//! Regression: a second crash arriving while a process is still replaying
//! its op log from the first recovery must re-enter recovery cleanly — in
//! both runtimes, with the durable store (not the surviving in-memory log)
//! as the source of truth, and with a storage fault injected at *each*
//! crash.
//!
//! The workload commits a value only when its guess holds, so a lost
//! affirm, a double-applied replay, or a stale recovery image all show up
//! as a wrong committed total rather than merely a liveness hiccup.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use hope_core::{DurableConfig, HopeEnv, SyncPolicy, ThreadedHopeEnv};
use hope_runtime::{FaultPlan, NetworkConfig, StorageFaultPlan};
use hope_types::{AidId, ProcessId, VirtualDuration, VirtualTime};

const VALUE: u64 = 0x1dea_c0de_5eed_f00d;

fn durable() -> DurableConfig {
    DurableConfig {
        segment_bytes: 128,
        checkpoint_every: 4,
        sync_policy: SyncPolicy::Visible,
    }
}

fn storage() -> StorageFaultPlan {
    StorageFaultPlan::default()
        .torn_final_record(0.4)
        .lost_sync_window(0.3)
        .bit_flip(0.2)
}

fn payload(aid: AidId) -> Bytes {
    let mut data = Vec::with_capacity(16);
    data.extend_from_slice(&aid.process().as_raw().to_le_bytes());
    data.extend_from_slice(&VALUE.to_le_bytes());
    Bytes::from(data)
}

fn parse(data: &[u8]) -> (AidId, u64) {
    let aid = AidId::from_raw(ProcessId::from_raw(u64::from_le_bytes(
        data[..8].try_into().unwrap(),
    )));
    (aid, u64::from_le_bytes(data[8..16].try_into().unwrap()))
}

/// Worker pid 0 guesses and folds; the owner affirms after a long
/// speculation window that both crash windows land inside.
fn double_crash_plan(seed: u64) -> FaultPlan {
    FaultPlan::new()
        .seed(seed)
        .rto(VirtualDuration::from_millis(2))
        .storage(storage())
        // First crash: mid-speculation.
        .crash(
            ProcessId::from_raw(0),
            VirtualTime::from_nanos(1_500_000),
            VirtualDuration::from_micros(500),
        )
        // Second crash: right after the first restart, while the worker
        // is still re-running its log (the speculative interval it
        // recovered is not yet definite).
        .crash(
            ProcessId::from_raw(0),
            VirtualTime::from_nanos(2_500_000),
            VirtualDuration::from_micros(500),
        )
}

#[test]
fn second_crash_during_replay_reenters_recovery_cleanly() {
    for seed in 0..16 {
        let mut env = HopeEnv::builder()
            .seed(seed)
            .network(NetworkConfig::constant(VirtualDuration::from_millis(1)))
            .faults(double_crash_plan(seed))
            .durable(durable())
            .build();
        let committed = Arc::new(Mutex::new(None));
        let sink = committed.clone();
        let worker = env.spawn_user("worker", move |ctx| {
            let m = ctx.receive(None);
            let (aid, value) = parse(&m.data);
            let mut total = 0u64;
            if ctx.guess(aid) {
                total = total.wrapping_add(value);
            }
            ctx.compute(VirtualDuration::from_micros(200));
            ctx.await_definite();
            if !ctx.is_replaying() {
                *sink.lock().unwrap() = Some(total);
            }
        });
        assert_eq!(worker, ProcessId::from_raw(0), "crash plan targets pid 0");
        env.spawn_user("owner", move |ctx| {
            let x = ctx.aid_init();
            ctx.send(worker, 0, payload(x));
            // Speculation stays open across both crash windows.
            ctx.compute(VirtualDuration::from_millis(4));
            ctx.affirm(x);
        });
        let report = env.run();
        assert!(report.is_clean(), "seed {seed}: {:?}", report.run.panics);
        assert!(
            report.run.blocked.is_empty(),
            "seed {seed}: worker stranded: {:?}",
            report.run.blocked
        );
        assert!(
            report.hope.crash_recoveries >= 2,
            "seed {seed}: both crashes must recover, got {}",
            report.hope.crash_recoveries
        );
        let store = env.store_stats().expect("durable storage configured");
        assert_eq!(store.frontier_violations, 0, "seed {seed}: {store:?}");
        assert!(
            store.recoveries >= 2,
            "seed {seed}: each restart must replay from the store: {store:?}"
        );
        assert_eq!(
            *committed.lock().unwrap(),
            Some(VALUE),
            "seed {seed}: the affirmed value must survive both recoveries"
        );
    }
}

#[test]
fn threaded_double_crash_with_storage_faults_stays_safe() {
    let plan = FaultPlan::new()
        .seed(7)
        .rto(VirtualDuration::from_millis(2))
        .storage(storage())
        .crash(
            ProcessId::from_raw(0),
            VirtualTime::from_nanos(2_000_000),
            VirtualDuration::from_millis(2),
        )
        .crash(
            ProcessId::from_raw(0),
            VirtualTime::from_nanos(8_000_000),
            VirtualDuration::from_millis(2),
        );
    let env = ThreadedHopeEnv::builder()
        .seed(7)
        .faults(plan)
        .durable(durable())
        .build();
    let committed = Arc::new(Mutex::new(None));
    let sink = committed.clone();
    let worker = env.spawn_user("worker", move |ctx| {
        let m = ctx.receive(None);
        let (aid, value) = parse(&m.data);
        let mut total = 0u64;
        if ctx.guess(aid) {
            total = total.wrapping_add(value);
        }
        ctx.await_definite();
        if !ctx.is_replaying() {
            *sink.lock().unwrap() = Some(total);
        }
    });
    env.spawn_user("owner", move |ctx| {
        let x = ctx.aid_init();
        ctx.send(worker, 0, payload(x));
        // Wall-clock speculation window spanning both crash offsets.
        ctx.compute(VirtualDuration::from_millis(15));
        ctx.affirm(x);
    });
    let report = env.run_until_quiescent(
        std::time::Duration::from_millis(50),
        std::time::Duration::from_secs(30),
    );
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(!report.hit_event_limit, "must reach quiescence");
    assert!(report.blocked.is_empty(), "{:?}", report.blocked);
    let store = env.store_stats().expect("durable storage configured");
    assert_eq!(store.frontier_violations, 0, "{store:?}");
    // Wall-clock timing decides how many crash windows land inside the
    // speculation, but whenever the worker commits it must commit the
    // affirmed value.
    assert_eq!(*committed.lock().unwrap(), Some(VALUE));
}
