//! Tests of the replay engine's user-visible guarantees: determinism of
//! re-execution, divergence detection, logged time/randomness, nested
//! process spawning, and non-blocking receives under speculation.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use hope_core::{HopeEnv, ProcessCtx};
use hope_types::{AidId, ProcessId, VirtualDuration};

fn encode_aid(aid: AidId) -> Bytes {
    Bytes::copy_from_slice(&aid.process().as_raw().to_le_bytes())
}

fn decode_aid(data: &[u8]) -> AidId {
    AidId::from_raw(ProcessId::from_raw(u64::from_le_bytes(
        data[..8].try_into().unwrap(),
    )))
}

#[test]
fn randomness_is_stable_across_reexecution() {
    let mut env = HopeEnv::builder().seed(5).build();
    let draws = Arc::new(Mutex::new(Vec::new()));
    let d = draws.clone();
    env.spawn_user("p", move |ctx| {
        // Record the pre-guess draw on both passes (original execution
        // and rollback replay): plain side effects re-run during replay.
        let before_guess = ctx.random();
        d.lock().unwrap().push(before_guess);
        let x = ctx.aid_init();
        if ctx.guess(x) {
            ctx.deny(x);
            ctx.compute(VirtualDuration::from_millis(1));
        }
    });
    let report = env.run();
    assert!(report.is_clean());
    let seen = draws.lock().unwrap().clone();
    assert_eq!(seen.len(), 2, "body ran twice");
    assert_eq!(seen[0], seen[1], "replayed randomness must match");
}

#[test]
fn clock_reads_replay_their_original_values() {
    let mut env = HopeEnv::builder().seed(5).build();
    let times = Arc::new(Mutex::new(Vec::new()));
    let t = times.clone();
    env.spawn_user("p", move |ctx| {
        ctx.compute(VirtualDuration::from_millis(3));
        let observed = ctx.now(); // logged at 3ms
        t.lock().unwrap().push(observed);
        let x = ctx.aid_init();
        if ctx.guess(x) {
            ctx.deny(x);
            ctx.compute(VirtualDuration::from_millis(1));
        }
    });
    let report = env.run();
    assert!(report.is_clean());
    let seen = times.lock().unwrap().clone();
    assert_eq!(seen.len(), 2);
    assert_eq!(
        seen[0], seen[1],
        "rollback does not rewind the clock; replay returns the original read"
    );
}

#[test]
fn nondeterministic_bodies_are_detected_as_divergence() {
    // A body that branches on external mutable state violates the replay
    // contract; the divergence must surface as a process panic, not
    // silent corruption. Each input is the part of a body that differs
    // between the first execution and the re-execution (`second_run`).
    type Diverge = fn(&mut ProcessCtx<'_>, bool);
    let inputs: [(&str, Diverge); 2] = [
        ("a different operation sequence", |ctx, second_run| {
            if second_run {
                let _ = ctx.random();
            }
        }),
        // The re-execution polls another channel than the one whose
        // message the log holds: it must not be handed that message.
        ("try_receive on another channel", |ctx, second_run| {
            let me = ctx.pid();
            ctx.send(me, 1, Bytes::from_static(b"queued"));
            ctx.compute(VirtualDuration::from_millis(50));
            let polled = ctx.try_receive(Some(if second_run { 2 } else { 1 }));
            assert!(polled.is_some(), "the first execution finds the message");
        }),
    ];
    for (what, diverge) in inputs {
        println!("input: {what}");
        let mut env = HopeEnv::builder().seed(5).build();
        let flip = Arc::new(Mutex::new(0u32));
        let f = flip.clone();
        env.spawn_user("bad", move |ctx| {
            let x = ctx.aid_init();
            let mut count = f.lock().unwrap();
            *count += 1;
            let second_run = *count > 1;
            drop(count);
            diverge(ctx, second_run);
            if ctx.guess(x) {
                ctx.deny(x);
                ctx.compute(VirtualDuration::from_millis(1));
            }
        });
        let report = env.run();
        assert_eq!(report.run.panics.len(), 1, "divergence must be reported");
        assert!(
            report.run.panics[0].1.contains("replay diverged"),
            "got: {}",
            report.run.panics[0].1
        );
    }
}

#[test]
fn try_receive_results_replay() {
    let mut env = HopeEnv::builder().seed(6).build();
    let outcomes = Arc::new(Mutex::new(Vec::new()));
    let o = outcomes.clone();
    env.spawn_user("p", move |ctx| {
        // Nothing queued: None is logged on the first pass and replayed
        // identically on re-execution (recorded on both passes).
        let empty = ctx.try_receive(None).is_none();
        o.lock().unwrap().push(empty);
        let x = ctx.aid_init();
        if ctx.guess(x) {
            ctx.deny(x);
            ctx.compute(VirtualDuration::from_millis(1));
        }
    });
    let report = env.run();
    assert!(report.is_clean());
    assert_eq!(*outcomes.lock().unwrap(), vec![true, true]);
}

#[test]
fn children_spawned_before_the_guess_are_not_duplicated() {
    let mut env = HopeEnv::builder().seed(7).build();
    let child_runs = Arc::new(Mutex::new(0u32));
    let c = child_runs.clone();
    env.spawn_user("parent", move |ctx| {
        let c2 = c.clone();
        let child = ctx.spawn_user("child", move |cctx| {
            let _ = cctx.receive(None);
            *c2.lock().unwrap() += 1;
        });
        let x = ctx.aid_init();
        if ctx.guess(x) {
            ctx.deny(x);
            ctx.compute(VirtualDuration::from_millis(1));
        }
        // After the rollback, the SpawnUser op replays: same pid, no
        // second child.
        ctx.send(child, 0, Bytes::from_static(b"go"));
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert_eq!(
        *child_runs.lock().unwrap(),
        1,
        "exactly one child, messaged once"
    );
}

#[test]
fn deep_histories_replay_correctly_under_late_denial() {
    // Stress: 20 nested guesses with logged traffic, then the 10th
    // assumption is denied — intervals 10.. roll back, 0..9 survive.
    let mut env = HopeEnv::builder().seed(8).build();
    let survivors = Arc::new(Mutex::new(Vec::new()));
    let s = survivors.clone();
    let resolver = env.spawn_user("resolver", move |ctx| {
        let m = ctx.receive(None);
        let aids: Vec<AidId> = m.data.chunks_exact(8).map(decode_aid).collect();
        ctx.compute(VirtualDuration::from_millis(5));
        for (i, aid) in aids.iter().enumerate() {
            if i == 10 {
                ctx.deny(*aid);
            } else {
                ctx.affirm(*aid);
            }
        }
    });
    env.spawn_user("speculator", move |ctx| {
        let aids: Vec<AidId> = (0..20).map(|_| ctx.aid_init()).collect();
        let mut payload = Vec::new();
        for aid in &aids {
            payload.extend_from_slice(&encode_aid(*aid));
        }
        ctx.send(resolver, 0, Bytes::from(payload));
        let mut held = Vec::new();
        for (i, &aid) in aids.iter().enumerate() {
            if ctx.guess(aid) {
                held.push(i);
            }
            let _ = ctx.random();
        }
        if !ctx.is_replaying() {
            *s.lock().unwrap() = held.clone();
        }
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    let held = survivors.lock().unwrap().clone();
    let expected: Vec<usize> = (0..20).filter(|&i| i != 10).collect();
    assert_eq!(held, expected, "only the denied assumption reads false");
}

#[test]
fn interleaved_multi_process_denials_converge() {
    // Failure injection: jittered latency reorders protocol traffic among
    // three speculators sharing three assumptions with mixed outcomes.
    use hope_runtime::NetworkConfig;
    for seed in 0..8u64 {
        let mut env = HopeEnv::builder()
            .seed(seed)
            .network(NetworkConfig::uniform(
                VirtualDuration::from_micros(10),
                VirtualDuration::from_millis(2),
            ))
            .build();
        let results = Arc::new(Mutex::new(std::collections::BTreeMap::new()));
        let mut pids = Vec::new();
        for i in 0..3usize {
            let r = results.clone();
            let pid = env.spawn_user(&format!("spec-{i}"), move |ctx| {
                let m = ctx.receive(None);
                let aids: Vec<AidId> = m.data.chunks_exact(8).map(decode_aid).collect();
                // Each speculator guesses all three in its own order.
                let mut outcome = [false; 3];
                for k in 0..3 {
                    let idx = (i + k) % 3;
                    outcome[idx] = ctx.guess(aids[idx]);
                }
                if !ctx.is_replaying() {
                    // Last write wins: earlier speculative observations are
                    // superseded by the post-rollback execution.
                    r.lock().unwrap().insert(i, outcome);
                }
            });
            pids.push(pid);
        }
        env.spawn_user("resolver", move |ctx| {
            let aids: Vec<AidId> = (0..3).map(|_| ctx.aid_init()).collect();
            let mut payload = Vec::new();
            for aid in &aids {
                payload.extend_from_slice(&encode_aid(*aid));
            }
            let payload = Bytes::from(payload);
            for &p in &pids {
                ctx.send(p, 0, payload.clone());
            }
            ctx.compute(VirtualDuration::from_millis(1));
            ctx.affirm(aids[0]);
            ctx.deny(aids[1]);
            ctx.affirm(aids[2]);
        });
        let report = env.run();
        assert!(report.is_clean(), "seed {seed}: {:?}", report.run.panics);
        assert!(
            report.run.blocked.is_empty(),
            "seed {seed}: {:?}",
            report.run.blocked
        );
        let got = results.lock().unwrap().clone();
        assert_eq!(got.len(), 3);
        // Every speculator's final outcomes match the plan regardless of
        // jitter-induced interleaving.
        for (i, outcome) in got {
            assert_eq!(outcome, [true, false, true], "speculator {i} seed {seed}");
        }
    }
}
