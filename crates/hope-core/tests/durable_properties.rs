//! Property tests of the durable layer end to end: arbitrary op streams
//! round-trip through `Op::encode`/`Op::decode`, survive a kind crash of
//! the [`DurableStore`] byte-for-byte, and recover as a valid prefix —
//! without panicking — when the crash image takes an injected storage
//! fault (style of `hope-types/tests/codec_properties.rs`).

use bytes::Bytes;
use hope_core::{DurableConfig, DurableStore, Op, OpList, SyncPolicy};
use hope_runtime::StorageFaultPlan;
use hope_types::{AidId, ProcessId, UserMessage, VirtualDuration, VirtualTime};
use proptest::prelude::*;

fn aid(raw: u64) -> AidId {
    AidId::from_raw(ProcessId::from_raw(raw))
}

fn message(channel: u32, data: &[u8], tag: &[u64]) -> UserMessage {
    UserMessage::tagged(
        channel,
        Bytes::copy_from_slice(data),
        tag.iter().map(|&r| aid(r)).collect(),
    )
}

/// Every `Op` variant reachable from one generator; `pick` selects the
/// variant so a single property covers the whole enum.
fn op(pick: u8, a: u64, b: u64, flag: bool, data: &[u8], tag: &[u64]) -> Op {
    match pick % 15 {
        0 => Op::AidInit { aid: aid(a) },
        1 => Op::AidRetain { aid: aid(a) },
        2 => Op::AidRelease { aid: aid(a) },
        3 => Op::Guess {
            aid: aid(a),
            outcome: flag,
        },
        4 => Op::Affirm { aid: aid(a) },
        5 => Op::Deny { aid: aid(a) },
        6 => Op::FreeOf {
            aid: aid(a),
            outcome: flag,
        },
        7 => Op::Send {
            dst: ProcessId::from_raw(a),
            channel: b as u32,
        },
        8 => Op::Receive {
            src: ProcessId::from_raw(a),
            msg: message(b as u32, data, tag),
        },
        9 => Op::TryReceive {
            result: flag.then(|| (ProcessId::from_raw(a), message(b as u32, data, tag))),
        },
        10 => Op::Compute {
            dur: VirtualDuration::from_nanos(a),
        },
        11 => Op::Now {
            value: VirtualTime::from_nanos(a),
        },
        12 => Op::Random { value: a },
        13 => Op::Barrier,
        _ => Op::SpawnUser {
            pid: ProcessId::from_raw(a),
        },
    }
}

fn ops_strategy(max: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            any::<u8>(),
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..24),
            proptest::collection::vec(any::<u64>(), 0..4),
        ),
        0..max,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(pick, a, b, flag, data, tag)| op(pick, a, b, flag, &data, &tag))
            .collect()
    })
}

fn config(segment_bytes: usize, sync_policy: SyncPolicy) -> DurableConfig {
    DurableConfig {
        segment_bytes,
        checkpoint_every: 6,
        sync_policy,
    }
}

/// All three storage fault kinds, rates summing to 1: every crash image
/// takes one.
fn always_faulted() -> StorageFaultPlan {
    StorageFaultPlan::default()
        .torn_final_record(0.4)
        .lost_sync_window(0.3)
        .bit_flip(0.3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A concatenated stream of arbitrary ops decodes back to itself.
    #[test]
    fn op_stream_round_trips(ops in ops_strategy(40)) {
        let mut wire = Vec::new();
        for op in &ops {
            wire.extend_from_slice(&op.encode());
        }
        let mut at = 0;
        let mut back = Vec::new();
        while at < wire.len() {
            match Op::decode(&wire, &mut at) {
                Some(op) => back.push(op),
                None => break,
            }
        }
        prop_assert_eq!(back, ops);
        prop_assert_eq!(at, wire.len());
    }

    /// Under `EveryRecord`, a kind crash (no storage fault) loses
    /// nothing: recovery returns the exact op stream, checkpoints and
    /// segment rotations notwithstanding.
    #[test]
    fn kind_crash_round_trips_through_the_store(
        ops in ops_strategy(40),
        segment_bytes in 64usize..512,
        frontiers in any::<u8>(),
    ) {
        let mut store = DurableStore::new(
            ProcessId::from_raw(3),
            config(segment_bytes, SyncPolicy::EveryRecord),
            None,
            11,
        );
        let mut log = OpList::new();
        for (i, op) in ops.iter().enumerate() {
            store.append(op);
            log.push(op.clone());
            // Periodic frontier advances exercise checkpointing + GC.
            if frontiers > 0 && i % frontiers as usize == 0 {
                store.on_frontier(&log);
            }
        }
        store.note_crash(0);
        store.mark_restarted();
        let recovered = store.take_recovery().expect("restart pends recovery");
        prop_assert_eq!(recovered.iter().cloned().collect::<Vec<_>>(), ops);
    }

    /// With a storage fault injected on every crash, recovery still never
    /// panics and yields an exact prefix of the appended stream; under
    /// `Visible` the prefix covers every externally visible op.
    #[test]
    fn faulted_crash_recovers_a_valid_prefix(
        ops in ops_strategy(40),
        segment_bytes in 64usize..512,
        seed in any::<u64>(),
    ) {
        let plan = always_faulted();
        let mut store = DurableStore::new(
            ProcessId::from_raw(5),
            config(segment_bytes, SyncPolicy::Visible),
            Some(&plan),
            seed,
        );
        for op in &ops {
            store.append(op);
        }
        store.note_crash(0);
        store.mark_restarted();
        let recovered: Vec<Op> = store
            .take_recovery()
            .expect("restart pends recovery")
            .iter()
            .cloned()
            .collect();
        prop_assert!(recovered.len() <= ops.len());
        prop_assert_eq!(recovered.as_slice(), &ops[..recovered.len()]);
        // `Visible` syncs through the last visible op, so only the
        // trailing run of invisible ops (Now/Random/Compute/empty
        // TryReceive) is at risk.
        let visible = |op: &Op| {
            !matches!(
                op,
                Op::Now { .. }
                    | Op::Random { .. }
                    | Op::Compute { .. }
                    | Op::TryReceive { result: None }
            )
        };
        let last_visible = ops.iter().rposition(visible).map_or(0, |i| i + 1);
        prop_assert!(
            recovered.len() >= last_visible,
            "recovered {} ops but {} were synced as visible",
            recovered.len(),
            last_visible
        );
    }
}
