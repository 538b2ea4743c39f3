//! Property tests of the recovery path: an uncorrupted log round-trips
//! exactly; a crash with any injected storage fault keeps at least the
//! synced watermark and recovers a contiguous run of the appended
//! records; arbitrary global mutations (truncation, bit flips) never
//! panic and can only shorten the recovered stream, never forge it.
//!
//! Style follows `hope-types/tests/codec_properties.rs`.

use proptest::prelude::*;

use super::{SegmentedLog, StorageFault};

/// One scripted action against the log, decoded from a `(pick, data)`
/// pair (the compat `proptest` has no `prop_oneof!`). Checkpoint payloads
/// embed a counter at drive time so every checkpoint is unique and can be
/// located in the model.
#[derive(Debug, Clone)]
enum Action {
    Event(Vec<u8>),
    Checkpoint,
    Sync,
}

fn action(pick: u8, data: Vec<u8>) -> Action {
    match pick % 9 {
        0 => Action::Checkpoint,
        1 | 2 => Action::Sync,
        _ => Action::Event(data),
    }
}

fn script_strategy(max: usize) -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..32)),
        0..max,
    )
    .prop_map(|steps| {
        steps
            .into_iter()
            .map(|(pick, data)| action(pick, data))
            .collect()
    })
}

fn fault(pick: u8, a: u64, b: u8) -> Option<StorageFault> {
    match pick % 4 {
        0 => None,
        1 => Some(StorageFault::LostSyncWindow),
        2 => Some(StorageFault::TornFinalRecord { keep: a }),
        _ => Some(StorageFault::BitFlip { offset: a, bit: b }),
    }
}

/// The model: the full record stream in append order, checkpoints
/// included, plus the synced watermark (events covered at the last sync).
struct Model {
    /// `(events appended before it, payload)` for every checkpoint.
    checkpoints: Vec<(usize, Vec<u8>)>,
    events: Vec<Vec<u8>>,
    synced_events: usize,
}

fn drive(log: &mut SegmentedLog, script: &[Action]) -> Model {
    let mut model = Model {
        checkpoints: Vec::new(),
        events: Vec::new(),
        synced_events: 0,
    };
    let mut cp_counter = 0u64;
    for step in script {
        match step {
            Action::Event(payload) => {
                log.append_event(payload);
                model.events.push(payload.clone());
            }
            Action::Checkpoint => {
                let payload = format!("checkpoint-{cp_counter}").into_bytes();
                cp_counter += 1;
                log.append_checkpoint(&payload);
                model.checkpoints.push((model.events.len(), payload));
            }
            Action::Sync => {
                log.sync();
                model.synced_events = model.events.len();
            }
        }
    }
    model
}

/// Where the recovered stream sits in the model: the index of the first
/// event after the recovered checkpoint (0 when no checkpoint was used).
fn anchor_of(model: &Model, checkpoint: &Option<Vec<u8>>) -> Option<usize> {
    match checkpoint {
        None => Some(0),
        Some(cp) => model
            .checkpoints
            .iter()
            .find(|(_, payload)| payload == cp)
            .map(|&(events_before, _)| events_before),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A fully synced, uncorrupted log recovers exactly: the newest
    /// checkpoint, then every event appended after it, in order.
    #[test]
    fn uncorrupted_log_round_trips(
        script in script_strategy(60),
        segment_bytes in 32usize..512,
    ) {
        let mut log = SegmentedLog::new(segment_bytes);
        let model = drive(&mut log, &script);
        log.sync();
        let recovered = log.recover_copied();
        prop_assert!(!recovered.corrupted);
        prop_assert_eq!(recovered.dropped_bytes, 0);
        let want_anchor = model.checkpoints.last().map(|(n, _)| *n).unwrap_or(0);
        prop_assert_eq!(
            recovered.checkpoint,
            model.checkpoints.last().map(|(_, p)| p.clone())
        );
        prop_assert_eq!(recovered.events, model.events[want_anchor..].to_vec());
    }

    /// A crash with any injected storage fault never panics, never loses
    /// the synced watermark, and never forges records: the recovered
    /// stream is a contiguous run of the appended one.
    #[test]
    fn crash_faults_keep_a_valid_covering_prefix(
        script in script_strategy(60),
        segment_bytes in 32usize..512,
        fault_pick in any::<u8>(),
        fault_a in any::<u64>(),
        fault_b in any::<u8>(),
    ) {
        let mut log = SegmentedLog::new(segment_bytes);
        let model = drive(&mut log, &script);
        log.crash(fault(fault_pick, fault_a, fault_b));
        let recovered = log.recover_copied();
        let anchor = anchor_of(&model, &recovered.checkpoint);
        prop_assert!(anchor.is_some(), "recovered checkpoint was never written");
        let anchor = anchor.unwrap();
        let tail = &model.events[anchor..];
        prop_assert!(recovered.events.len() <= tail.len());
        prop_assert_eq!(
            recovered.events.as_slice(),
            &tail[..recovered.events.len()],
            "recovered events must be the contiguous run after the anchor"
        );
        // Durability: everything behind the last sync survives. The
        // anchor checkpoint summarises events before it, so coverage is
        // anchor + recovered tail length.
        let covered = anchor + recovered.events.len();
        prop_assert!(
            covered >= model.synced_events,
            "coverage {} fell behind the synced watermark {}",
            covered,
            model.synced_events
        );
    }

    /// Arbitrary global mutations — truncation anywhere plus up to two
    /// bit flips (CRC32 detects all single and double bit errors) — never
    /// panic recovery and only ever shorten the stream.
    #[test]
    fn global_corruption_never_panics_and_never_forges(
        script in script_strategy(60),
        segment_bytes in 32usize..512,
        do_truncate in any::<bool>(),
        truncate_at in any::<u64>(),
        flips in proptest::collection::vec((any::<u64>(), any::<u8>()), 0..2),
    ) {
        let mut log = SegmentedLog::new(segment_bytes);
        let model = drive(&mut log, &script);
        log.sync();
        if do_truncate {
            let total = log.total_bytes() as u64;
            log.truncate(truncate_at % total.max(1));
        }
        for (byte, bit) in flips {
            let total = log.total_bytes() as u64;
            log.flip_bit(byte % total.max(1), bit);
        }
        let recovered = log.recover_copied();
        // A flip inside a checkpoint payload leaves its frame CRC
        // invalid, so a checkpoint recovery can never return a payload
        // that was not written.
        let anchor = anchor_of(&model, &recovered.checkpoint);
        prop_assert!(anchor.is_some(), "recovered checkpoint was never written");
        let tail = &model.events[anchor.unwrap()..];
        prop_assert!(recovered.events.len() <= tail.len());
        prop_assert_eq!(
            recovered.events.as_slice(),
            &tail[..recovered.events.len()],
            "recovered events must be the contiguous run after the anchor"
        );
    }

    /// Recovery is idempotent: recovering twice (the second time after
    /// the corruption was truncated away) yields the same stream.
    #[test]
    fn recovery_is_idempotent(
        script in script_strategy(40),
        segment_bytes in 32usize..512,
        fault_pick in any::<u8>(),
        fault_a in any::<u64>(),
        fault_b in any::<u8>(),
    ) {
        let mut log = SegmentedLog::new(segment_bytes);
        drive(&mut log, &script);
        log.crash(fault(fault_pick, fault_a, fault_b));
        let first = log.recover_copied();
        let second = log.recover_copied();
        prop_assert_eq!(first.checkpoint, second.checkpoint);
        prop_assert_eq!(first.events, second.events);
        prop_assert!(!second.corrupted, "corruption was truncated away");
    }
}
