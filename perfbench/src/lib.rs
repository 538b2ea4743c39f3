//! The repository's benchmark: five workloads that stress different
//! layers of the HOPE stack, a per-layer cost ladder, and a traced run.
//!
//! Everything is measured from outside, by timing calls into the public
//! functions of `hope-types`, `hope-runtime`, `hope-core`, `hope-rpc`
//! and `hope-store`. See `README.md` for the metric glossary and
//! `../BENCHMARK.json` for the manifest generated from [`metrics`].

#![deny(unsafe_code)] // `sys` alone allows it, for three foreign calls
#![warn(missing_docs)]

pub mod alloc;
pub mod ladder;
pub mod metrics;
pub mod procfs;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod workloads;
