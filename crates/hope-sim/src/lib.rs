//! # hope-sim — workloads and the experiment harness
//!
//! One module per experiment of DESIGN.md's index, each exposing a config
//! struct and a `run` function returning a plain result struct, plus
//! [`table::Table`] for printing paper-style rows:
//!
//! | Module | Experiment | Paper artefact |
//! |--------|-----------|----------------|
//! | [`printer`]    | F1/F2 | Figures 1–2: the print-server call-streaming transformation |
//! | [`chain`]      | E3    | the "up to 70 % RPC improvement" claim (companion paper \[11\]) |
//! | [`waitfree`]   | E4    | §5's wait-free design criterion |
//! | [`quadratic`]  | E5, E5b | §6's "quadratic in the number of intervals and AIDs"; §5's commit point: local work per tagged receive flat in settled history |
//! | [`rings`]      | F13/F14 | interference cycles and Algorithm 2's detection |
//! | [`rollback`]   | E6    | rollback/replay cost vs. speculation depth |
//! | [`scientific`] | E7    | optimistic convergence detection (\[6\]: scientific programming) |
//! | [`replication`] | E8   | optimistic replication conflict churn (\[5\]) |
//! | [`soak`]       | E9    | mixed load: latency percentiles under rollback pressure |
//! | [`protocol`]   | T1    | Table 1 message accounting |
//! | [`chaos`]      | E-chaos | fault injection: safety invariants under drop/dup/crash |
//! | [`contention`] | E-adaptive | adaptive speculation control under configurable deny rates |
//! | [`disk_chaos`] | E-disk  | durable op-log recovery under crashes with storage faults |
//! | [`netchaos`]   | E-net   | socket-level chaos proxy: partitions, resets, mid-frame cuts against the real TCP transport |
//! | [`scenarios`]  | E-check | zero-latency scenario builders for the `hope-check` model checker |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod chaos;
pub mod contention;
pub mod disk_chaos;
pub mod json;
pub mod netchaos;
pub mod printer;
pub mod protocol;
pub mod quadratic;
pub mod replication;
pub mod rings;
pub mod rollback;
pub mod scenarios;
pub mod scientific;
pub mod soak;
pub mod table;
pub mod trace_export;
pub mod waitfree;
