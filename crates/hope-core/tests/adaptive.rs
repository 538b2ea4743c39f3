//! Adaptive speculation control (DESIGN.md §9) end to end: the EWMA
//! trajectory is a pure deterministic fold of the observation sequence,
//! identical on the simulator and the wall-clock threaded runtime;
//! throttling engages and recovers through the hysteresis band; the
//! guess-chain depth cap and doomed-interval cancellation fire; crash
//! rollbacks never feed the deny-rate estimator.

use std::sync::Arc;

use bytes::Bytes;
use hope_core::{HopeEnv, SpecPolicy, ThreadedHopeEnv};
use hope_runtime::{FaultPlan, NetworkConfig};
use hope_types::spec::{ewma_step, SPEC_EWMA_ONE};
use hope_types::{
    AidId, ProcessId, TraceCollector, TraceEvent, TraceEventKind, VirtualDuration, VirtualTime,
};

fn encode_aid(aid: AidId) -> Bytes {
    Bytes::copy_from_slice(&aid.process().as_raw().to_le_bytes())
}

fn decode_aid(data: &[u8]) -> AidId {
    AidId::from_raw(ProcessId::from_raw(u64::from_le_bytes(
        data[..8].try_into().unwrap(),
    )))
}

/// Per-round verdicts: four denies push the process EWMA through the
/// 0.4 threshold (flip to pessimistic), three affirms pull it back under
/// `0.4 - 0.1` (flip back to optimistic).
const PATTERN: [bool; 7] = [true, true, true, true, false, false, false];

/// `(denied, aid_ewma, process_ewma)` for every SpecObserve of `pid`, in
/// trace order, plus `(aid_flipped, on, ewma)` for every SpecThrottle.
type Trajectory = (Vec<(bool, u32, u32)>, Vec<(bool, bool, u32)>);

fn trajectory_of(tracer: &Arc<TraceCollector>, pid: ProcessId) -> Trajectory {
    let mut observations = Vec::new();
    let mut flips = Vec::new();
    for TraceEvent { pid: p, kind, .. } in tracer.drain() {
        if p != pid {
            continue;
        }
        match kind {
            TraceEventKind::SpecObserve {
                denied,
                aid_ewma,
                process_ewma,
                ..
            } => observations.push((denied, aid_ewma, process_ewma)),
            TraceEventKind::SpecThrottle { aid, on, ewma } => flips.push((aid.is_some(), on, ewma)),
            _ => {}
        }
    }
    (observations, flips)
}

/// The serialized probe workload: one worker guesses a fresh AID per
/// round and goes definite before the next; a verifier resolves each
/// request per [`PATTERN`]. Serialization pins the observation order, so
/// the worker's EWMA trajectory must be the same bit-for-bit wherever
/// the workload runs. Returns the worker body wiring via closures so the
/// sim and threaded variants stay textually identical.
fn worker_rounds(ctx: &mut hope_core::ProcessCtx, verifier: ProcessId) {
    for _ in 0..PATTERN.len() {
        let aid = ctx.aid_init();
        ctx.send(verifier, 0, encode_aid(aid));
        let _ = ctx.guess(aid);
        ctx.compute(VirtualDuration::from_millis(1));
        ctx.await_definite();
    }
}

fn verifier_rounds(ctx: &mut hope_core::ProcessCtx) {
    for deny in PATTERN {
        let aid = decode_aid(&ctx.receive(None).data);
        if deny {
            ctx.deny(aid);
        } else {
            ctx.affirm(aid);
        }
    }
}

fn probe_policy() -> SpecPolicy {
    SpecPolicy::adaptive(0.4, 8, 0.1).unwrap()
}

fn sim_trajectory(seed: u64) -> Trajectory {
    let mut env = HopeEnv::builder()
        .seed(seed)
        .network(NetworkConfig::constant(VirtualDuration::from_millis(1)))
        .spec_policy(probe_policy())
        .build();
    env.enable_tracing(1 << 14);
    let tracer = env.tracer();
    let verifier = env.spawn_user("verifier", verifier_rounds);
    let worker = env.spawn_user("worker", move |ctx| worker_rounds(ctx, verifier));
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(report.run.blocked.is_empty());
    trajectory_of(&tracer, worker)
}

fn threaded_trajectory(seed: u64) -> Trajectory {
    let env = ThreadedHopeEnv::builder()
        .seed(seed)
        .spec_policy(probe_policy())
        .build();
    env.enable_tracing(1 << 14);
    let tracer = env.tracer();
    let verifier = env.spawn_user("verifier", verifier_rounds);
    let worker = env.spawn_user("worker", move |ctx| worker_rounds(ctx, verifier));
    let report = env.run_until_quiescent(
        std::time::Duration::from_millis(30),
        std::time::Duration::from_secs(20),
    );
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(!report.hit_event_limit, "must reach quiescence");
    assert!(report.blocked.is_empty(), "{:?}", report.blocked);
    trajectory_of(&tracer, worker)
}

/// The trajectory the pure controller arithmetic predicts: per-AID EWMAs
/// start from zero (every round guesses a fresh AID), the process EWMA
/// folds across rounds.
fn predicted_observations() -> Vec<(bool, u32, u32)> {
    let mut process = 0u32;
    PATTERN
        .iter()
        .map(|&deny| {
            let sample = if deny { SPEC_EWMA_ONE } else { 0 };
            process = ewma_step(process, sample);
            (deny, ewma_step(0, sample), process)
        })
        .collect()
}

#[test]
fn ewma_trajectory_is_the_pure_fold_and_identical_across_runtimes() {
    let (sim_obs, sim_flips) = sim_trajectory(11);
    assert_eq!(
        sim_obs,
        predicted_observations(),
        "the traced trajectory must be exactly the controller fold"
    );
    // Throttling engages on the 4th deny and recovers on the 3rd affirm:
    // exactly one process-level flip each way, no per-AID flips (a single
    // observation of a fresh AID stays under the threshold).
    let process_flips: Vec<(bool, u32)> = sim_flips
        .iter()
        .filter(|(aid_flip, _, _)| !aid_flip)
        .map(|&(_, on, ewma)| (on, ewma))
        .collect();
    assert_eq!(process_flips.len(), 2, "{sim_flips:?}");
    assert!(
        process_flips[0].0,
        "first flip enters the pessimistic regime"
    );
    assert!(!process_flips[1].0, "second flip resumes optimism");
    assert!(process_flips[0].1 > process_flips[1].1);
    assert!(
        sim_flips.iter().all(|(aid_flip, _, _)| !aid_flip),
        "no per-AID flip expected: {sim_flips:?}"
    );

    let (threaded_obs, threaded_flips) = threaded_trajectory(11);
    assert_eq!(sim_obs, threaded_obs, "trajectories must agree bit-for-bit");
    assert_eq!(sim_flips, threaded_flips, "flip points must agree");
}

#[test]
fn trajectory_is_stable_across_seeds_and_reruns() {
    // The workload is serialized, so the trajectory is a function of
    // PATTERN alone — not of the scheduler seed.
    assert_eq!(sim_trajectory(1), sim_trajectory(99));
    assert_eq!(threaded_trajectory(5), threaded_trajectory(5));
}

/// A guess beyond `max_depth` unresolved speculations must wait for the
/// chain to drain (SpecWait with `depth_limited`), and the run still
/// converges once the verifier affirms the backlog.
#[test]
fn depth_cap_stalls_the_guess_chain_until_affirms_drain_it() {
    const GUESSES: usize = 6;
    let policy = SpecPolicy::adaptive(0.99, 2, 0.5).unwrap(); // depth 2, no throttle
    let mut env = HopeEnv::builder()
        .seed(3)
        .network(NetworkConfig::constant(VirtualDuration::from_millis(1)))
        .spec_policy(policy)
        .build();
    env.enable_tracing(1 << 14);
    let tracer = env.tracer();
    let verifier = env.spawn_user("verifier", |ctx| {
        for _ in 0..GUESSES {
            let aid = decode_aid(&ctx.receive(None).data);
            ctx.compute(VirtualDuration::from_millis(1));
            ctx.affirm(aid);
        }
    });
    let worker = env.spawn_user("worker", move |ctx| {
        for _ in 0..GUESSES {
            let aid = ctx.aid_init();
            ctx.send(verifier, 0, encode_aid(aid));
            let _ = ctx.guess(aid);
        }
        ctx.await_definite();
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(report.run.blocked.is_empty());
    let depth_waits = tracer
        .drain()
        .iter()
        .filter(|e| {
            e.pid == worker
                && matches!(
                    e.kind,
                    TraceEventKind::SpecWait {
                        depth_limited: true,
                        ..
                    }
                )
        })
        .count();
    assert!(
        depth_waits >= GUESSES - 2,
        "guesses beyond depth 2 must wait: {depth_waits}"
    );
    let snapshot = env.spec_of(worker).expect("worker tracked");
    assert_eq!(snapshot.denies, 0);
    assert_eq!(snapshot.affirms, GUESSES as u64);
}

/// Doomed-interval cancellation: once a deny identifies a dead
/// assumption, queued messages tagged with it are discarded before they
/// can open (and immediately doom) new receive intervals.
#[test]
fn known_denied_tags_cancel_queued_messages() {
    // High threshold: the controller stays optimistic throughout, so the
    // cancellations observed are pure known-denied filtering.
    let policy = SpecPolicy::adaptive(0.99, 64, 0.5).unwrap();
    let mut env = HopeEnv::builder()
        .seed(4)
        .network(NetworkConfig::constant(VirtualDuration::from_millis(1)))
        .spec_policy(policy)
        .build();
    env.enable_tracing(1 << 14);
    let tracer = env.tracer();
    let denier = env.spawn_user("denier", |ctx| {
        let aid = decode_aid(&ctx.receive(None).data);
        ctx.compute(VirtualDuration::from_millis(4));
        ctx.deny(aid);
    });
    let consumer = env.spawn_user("consumer", |ctx| loop {
        // Speculative stream on channel 0, definite completion on 1.
        if ctx.receive(None).channel == 1 {
            break;
        }
    });
    env.spawn_user("producer", move |ctx| {
        let x = ctx.aid_init();
        ctx.send(denier, 0, encode_aid(x));
        if ctx.guess(x) {
            // Three tagged messages with a gap: the consumer's rollback on
            // the first lands after the rest were consumed behind it. The
            // boundary message itself is discarded by the rollback (its
            // sender rolled back), so the known-denied filter sees the
            // two requeued followers on redelivery.
            ctx.send(consumer, 0, Bytes::from_static(b"speculative"));
            ctx.compute(VirtualDuration::from_millis(3));
            ctx.send(consumer, 0, Bytes::from_static(b"speculative"));
            ctx.send(consumer, 0, Bytes::from_static(b"speculative"));
        } else {
            ctx.send(consumer, 1, Bytes::from_static(b"definite"));
        }
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(report.run.blocked.is_empty(), "{:?}", report.run.blocked);
    // Both requeued stream messages are discarded by the known-denied
    // filter on redelivery (the boundary message never comes back).
    assert_eq!(report.hope.cancelled_intervals, 2, "{:?}", report.hope);
    let cancel_events = tracer
        .drain()
        .iter()
        .filter(|e| {
            e.pid == consumer
                && matches!(e.kind, TraceEventKind::CancelDoomed { message: true, .. })
        })
        .count();
    assert_eq!(cancel_events, 2);
    let snapshot = env.spec_of(consumer).expect("consumer tracked");
    assert_eq!(snapshot.cancelled, 2);
}

/// Crash rollbacks have no verdict: recovery discards speculative
/// intervals because the process died, not because an assumption was
/// wrong, so the deny-rate estimator must not move.
#[test]
fn crash_recovery_does_not_feed_the_deny_ewma() {
    // A threshold this low would throttle on the very first observed
    // deny, so the assertion below is sharp.
    let policy = SpecPolicy::adaptive(0.05, 8, 0.01).unwrap();
    let victim = ProcessId::from_raw(0);
    let plan = FaultPlan::new()
        .seed(9)
        .crash(
            victim,
            VirtualTime::from_nanos(5_000_000),
            VirtualDuration::from_millis(2),
        )
        .rto(VirtualDuration::from_millis(5));
    let mut env = HopeEnv::builder()
        .seed(9)
        .network(NetworkConfig::constant(VirtualDuration::from_millis(1)))
        .spec_policy(policy)
        .faults(plan)
        .build();
    env.enable_tracing(1 << 14);
    let tracer = env.tracer();
    let worker = env.spawn_user("worker", |ctx| {
        let x = ctx.aid_init();
        if ctx.guess(x) {
            ctx.compute(VirtualDuration::from_millis(10));
            ctx.affirm(x);
        }
    });
    assert_eq!(worker, victim, "crash plan must target the worker");
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(
        report.hope.crash_recoveries >= 1,
        "the crash must actually fire: {:?}",
        report.hope
    );
    let denied_observations = tracer
        .drain()
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::SpecObserve { denied: true, .. }))
        .count();
    assert_eq!(denied_observations, 0, "crashes are not denies");
    let snapshot = env.spec_of(worker).expect("worker tracked");
    assert_eq!(snapshot.denies, 0, "{snapshot:?}");
    assert!(!snapshot.process_throttled);
}

#[test]
fn builder_rejects_invalid_policies() {
    use hope_types::HopeError;
    for (threshold, depth, hysteresis) in [
        (0.0, 8, 0.0), // threshold must be > 0
        (1.0, 8, 0.1), // threshold must be < 1
        (0.5, 0, 0.1), // depth must be >= 1
        (0.4, 8, 0.4), // hysteresis must be < threshold
        (f64::NAN, 8, 0.1),
    ] {
        let err = SpecPolicy::adaptive(threshold, depth, hysteresis)
            .expect_err("invalid policy must be rejected");
        assert!(
            matches!(err, HopeError::InvalidSpecPolicy(_)),
            "{threshold} {depth} {hysteresis}: {err:?}"
        );
    }
}

#[test]
#[should_panic(expected = "invalid speculation policy")]
fn builder_panics_on_hand_rolled_invalid_policy() {
    let bad = SpecPolicy::Adaptive {
        deny_ewma_threshold: 0,
        max_depth: 8,
        hysteresis: 0,
    };
    let _ = HopeEnv::builder().spec_policy(bad);
}
