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
//! | [`rollback`]   | E6, E6b | rollback/replay cost vs. speculation depth; one deny vs. the tagged backlog queued behind it |
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
//! | [`link_budget`] | E-link | what the reliable sublayer adds per message: link events, acks and timers counted on one link, clean and lossy |
//!
//! Each idea the modules share is written once:
//!
//! * the mutual-affirm ring (F13/F14 and every `ring`/`chaos`/`disk`
//!   checker scenario) — [`rings::spawn_ring`];
//! * the threaded guess/affirm race of E-chaos and E-disk —
//!   `chaos::spawn_race`, written against "something that can spawn a
//!   user process" so either runtime can host it;
//! * run to quiescence and hold the run to "nobody panicked, not cut
//!   short, nobody stuck" — [`harness::run_settled`] and its wall-clock
//!   twin; the lossy workloads' fault plan is `harness::lossy_plan`;
//! * the seeded hash behind recomputed decisions — [`splitmix64`];
//! * the payload codec — [`encode_u64s`]/[`decode_u64s`], with
//!   [`encode_aids`]/[`decode_aids`] on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod chaos;
pub mod contention;
pub mod disk_chaos;
pub mod harness;
pub mod json;
pub mod link_budget;
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

/// Packs scalars into a message payload, 8 little-endian bytes each —
/// the one wire format every workload here uses for its own fields.
pub fn encode_u64s(words: &[u64]) -> Bytes {
    Bytes::from(
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect::<Vec<u8>>(),
    )
}

/// Inverse of [`encode_u64s`]; a trailing partial chunk is ignored.
pub fn decode_u64s(data: &[u8]) -> Vec<u64> {
    data.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// Packs assumption identifiers into a message payload (8 little-endian
/// bytes each) — how every workload here hands AIDs to the process that
/// will resolve them.
pub fn encode_aids(aids: &[AidId]) -> Bytes {
    let words: Vec<u64> = aids.iter().map(|aid| aid.process().as_raw()).collect();
    encode_u64s(&words)
}

/// Inverse of [`encode_aids`]; a trailing partial chunk is ignored.
pub fn decode_aids(data: &[u8]) -> Vec<AidId> {
    decode_u64s(data).into_iter().map(aid_of).collect()
}

/// The assumption a payload word names (see [`encode_aids`]), for
/// payloads that carry AIDs and scalars side by side.
pub(crate) fn aid_of(word: u64) -> AidId {
    AidId::from_raw(ProcessId::from_raw(word))
}

/// The splitmix64 finalizer: the one deterministic hash behind every
/// seeded decision a workload recomputes on both sides of the wire
/// (`contention`'s deny verdicts, `disk_chaos`'s round values). Callers
/// pre-mix their own coordinates into `z`.
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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

    #[test]
    fn scalar_payload_round_trips() {
        let words = [0, 1, 0x0102_0304_0506_0708, u64::MAX];
        let payload = encode_u64s(&words);
        assert_eq!(payload.len(), words.len() * 8);
        assert_eq!(&payload[16..24], &[8, 7, 6, 5, 4, 3, 2, 1], "little-endian");
        assert_eq!(decode_u64s(&payload), words);
    }

    #[test]
    fn empty_scalar_payload_is_empty_both_ways() {
        assert!(encode_u64s(&[]).is_empty());
        assert!(decode_u64s(&[]).is_empty());
    }

    #[test]
    fn a_trailing_partial_chunk_is_ignored() {
        let mut bytes = encode_u64s(&[7, 9]).to_vec();
        bytes.extend_from_slice(&[0xff; 5]);
        assert_eq!(decode_u64s(&bytes), [7, 9]);
    }

    /// The reference outputs of splitmix64 seeded with 0: the finalizer
    /// applied to successive multiples of the golden-ratio increment.
    #[test]
    fn splitmix64_matches_the_reference_stream() {
        const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
        assert_eq!(splitmix64(0), 0);
        assert_eq!(splitmix64(GAMMA), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(GAMMA.wrapping_mul(2)), 0x6e78_9e6a_a1b9_65f4);
    }
}
