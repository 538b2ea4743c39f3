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
//! | [`throughput`] | E-perf | reliable-link streaming under speculation: tag bytes on the wire, registrations, virtual primitive cost |

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
pub mod throughput;
pub mod trace_export;
pub mod waitfree;

use bytes::Bytes;
use hope_types::{AidId, ProcessId};

/// Packs assumption identifiers into a message payload (8 little-endian
/// bytes each) — how every workload here hands AIDs to the process that
/// will resolve them.
pub fn encode_aids(aids: &[AidId]) -> Bytes {
    let mut out = Vec::with_capacity(aids.len() * 8);
    for aid in aids {
        out.extend_from_slice(&aid.process().as_raw().to_le_bytes());
    }
    Bytes::from(out)
}

/// Inverse of [`encode_aids`]; a trailing partial chunk is ignored.
pub fn decode_aids(data: &[u8]) -> Vec<AidId> {
    data.chunks_exact(8)
        .map(|c| {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(c);
            AidId::from_raw(ProcessId::from_raw(u64::from_le_bytes(raw)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aid_payload_round_trips() {
        let aids: Vec<AidId> = [0, 1, 7, u64::MAX]
            .iter()
            .map(|&raw| AidId::from_raw(ProcessId::from_raw(raw)))
            .collect();
        let payload = encode_aids(&aids);
        assert_eq!(payload.len(), aids.len() * 8);
        assert_eq!(decode_aids(&payload), aids);
    }

    #[test]
    fn empty_aid_payload_is_empty_both_ways() {
        assert!(encode_aids(&[]).is_empty());
        assert!(decode_aids(&[]).is_empty());
        // Fewer than eight bytes is not an identifier.
        assert!(decode_aids(&[1, 2, 3]).is_empty());
    }
}
