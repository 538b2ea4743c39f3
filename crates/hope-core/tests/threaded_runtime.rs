//! The HOPE algorithm under *real* concurrency: the same scenarios as the
//! simulator tests, on the wall-clock threaded runtime. Timing assertions
//! use generous margins; correctness assertions are exact.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use hope_core::{DenyPolicy, ThreadedHopeEnv};
use hope_runtime::NetworkConfig;
use hope_types::{AidId, ProcessId, VirtualDuration};

fn encode_aid(aid: AidId) -> Bytes {
    Bytes::copy_from_slice(&aid.process().as_raw().to_le_bytes())
}

fn decode_aid(data: &[u8]) -> AidId {
    AidId::from_raw(ProcessId::from_raw(u64::from_le_bytes(
        data[..8].try_into().unwrap(),
    )))
}

const GRACE: Duration = Duration::from_millis(30);
const TIMEOUT: Duration = Duration::from_secs(20);

#[test]
fn guess_affirm_retains_optimistic_path() {
    let env = ThreadedHopeEnv::builder().seed(1).build();
    let t = Arc::new(Mutex::new(Vec::new()));
    let t2 = t.clone();
    env.spawn_user("p", move |ctx| {
        let x = ctx.aid_init();
        if ctx.guess(x) {
            t2.lock().unwrap().push("optimistic");
            ctx.affirm(x);
        } else {
            t2.lock().unwrap().push("pessimistic");
        }
    });
    let report = env.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(!report.hit_event_limit, "must reach quiescence");
    assert!(report.blocked.is_empty(), "{:?}", report.blocked);
    assert_eq!(t.lock().unwrap().as_slice(), &["optimistic"]);
}

#[test]
fn deny_rolls_back_across_real_threads() {
    let env = ThreadedHopeEnv::builder().seed(2).build();
    let t = Arc::new(Mutex::new(Vec::new()));
    let t3 = t.clone();
    let verifier = env.spawn_user("verifier", move |ctx| {
        let m = ctx.receive(None);
        let aid = decode_aid(&m.data);
        ctx.compute(VirtualDuration::from_millis(5));
        ctx.deny(aid);
    });
    let t2 = t.clone();
    env.spawn_user("guesser", move |ctx| {
        let x = ctx.aid_init();
        ctx.send(verifier, 0, encode_aid(x));
        if ctx.guess(x) {
            if !ctx.is_replaying() {
                t2.lock().unwrap().push("optimistic");
            }
            ctx.compute(VirtualDuration::from_millis(50));
            if !ctx.is_replaying() {
                t2.lock().unwrap().push("optimistic-finished");
            }
        } else if !ctx.is_replaying() {
            t3.lock().unwrap().push("pessimistic");
        }
    });
    let report = env.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(!report.hit_event_limit);
    let log = t.lock().unwrap().clone();
    assert!(log.contains(&"optimistic"), "{log:?}");
    assert!(log.contains(&"pessimistic"), "{log:?}");
    assert!(env.metrics().rollbacks >= 1);
}

#[test]
fn primitives_do_not_wait_in_wall_time_either() {
    // Over a (real) 20 ms link, a batch of primitives must complete in
    // far less than one round trip.
    let env = ThreadedHopeEnv::builder()
        .seed(3)
        .network(NetworkConfig::constant(VirtualDuration::from_millis(20)))
        .build();
    let elapsed = Arc::new(Mutex::new(None));
    let e = elapsed.clone();
    env.spawn_user("probe", move |ctx| {
        let start = Instant::now();
        let x = ctx.aid_init();
        let y = ctx.aid_init();
        let _ = ctx.guess(x);
        ctx.affirm(y);
        let _ = ctx.free_of(y);
        ctx.affirm(x);
        if !ctx.is_replaying() {
            *e.lock().unwrap() = Some(start.elapsed());
        }
    });
    let report = env.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    let spent = elapsed.lock().unwrap().unwrap();
    assert!(
        spent < Duration::from_millis(20),
        "primitives must not wait for the 40 ms round trip: took {spent:?}"
    );
}

#[test]
fn speculation_overlaps_real_verification_latency() {
    // The whole point: with a 20 ms (real) verification round trip, the
    // guesser's 3 × 10 ms of useful work overlaps it instead of waiting.
    let env = ThreadedHopeEnv::builder()
        .seed(4)
        .network(NetworkConfig::constant(VirtualDuration::from_millis(10)))
        .build();
    let done = Arc::new(Mutex::new(None));
    let d = done.clone();
    let verifier = env.spawn_user("verifier", move |ctx| {
        let m = ctx.receive(None);
        let aid = decode_aid(&m.data);
        ctx.affirm(aid);
    });
    env.spawn_user("guesser", move |ctx| {
        let start = Instant::now();
        let x = ctx.aid_init();
        ctx.send(verifier, 0, encode_aid(x));
        if ctx.guess(x) {
            for _ in 0..3 {
                ctx.compute(VirtualDuration::from_millis(10)); // real work
            }
            if !ctx.is_replaying() {
                *d.lock().unwrap() = Some(start.elapsed());
            }
        }
    });
    let report = env.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(!report.hit_event_limit);
    let spent = done.lock().unwrap().unwrap();
    // Sequential (wait-then-work) would need ≥ 20 + 30 = 50 ms; overlap
    // needs ~30 ms. Allow margin for CI jitter.
    assert!(
        spent < Duration::from_millis(45),
        "speculative work must overlap the verification: took {spent:?}"
    );
    assert_eq!(env.metrics().rollbacks, 0);
}

#[test]
fn tagged_messages_cascade_rollback_across_threads() {
    let env = ThreadedHopeEnv::builder().seed(5).build();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s = seen.clone();
    let downstream = env.spawn_user("downstream", move |ctx| {
        // First consume (possibly) the speculative message, then — after
        // its rollback — the corrected one.
        let m = ctx.receive(None);
        if !ctx.is_replaying() {
            s.lock().unwrap().push(m.data.to_vec());
        }
        let m2 = ctx.receive(None);
        if !ctx.is_replaying() {
            s.lock().unwrap().push(m2.data.to_vec());
        }
    });
    env.spawn_user("speculator", move |ctx| {
        let x = ctx.aid_init();
        if ctx.guess(x) {
            ctx.send(downstream, 0, Bytes::from_static(b"spec"));
            ctx.compute(VirtualDuration::from_millis(2));
            ctx.deny(x);
            ctx.compute(VirtualDuration::from_millis(2));
        } else {
            ctx.send(downstream, 0, Bytes::from_static(b"safe"));
        }
        ctx.send(downstream, 0, Bytes::from_static(b"tail"));
    });
    let report = env.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(!report.hit_event_limit);
    let log = seen.lock().unwrap().clone();
    // The committed outcome: downstream ends up with "safe" then "tail".
    assert_eq!(log.last().unwrap(), b"tail", "{log:?}");
    assert!(log.iter().any(|m| m == b"safe"), "{log:?}");
}

#[test]
fn many_guessers_race_one_resolver() {
    // Stress: 8 threads guessing the same assumption, real scheduling.
    let env = ThreadedHopeEnv::builder().seed(6).build();
    let count = Arc::new(Mutex::new(0u32));
    let mut guessers = Vec::new();
    for i in 0..8 {
        let count = count.clone();
        let pid = env.spawn_user(&format!("g{i}"), move |ctx| {
            let m = ctx.receive(None);
            let x = decode_aid(&m.data);
            if ctx.guess(x) && !ctx.is_replaying() {
                *count.lock().unwrap() += 1;
            }
        });
        guessers.push(pid);
    }
    env.spawn_user("owner", move |ctx| {
        let x = ctx.aid_init();
        for &g in &guessers {
            ctx.send(g, 0, encode_aid(x));
        }
        ctx.compute(VirtualDuration::from_millis(3));
        ctx.affirm(x);
    });
    let report = env.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(!report.hit_event_limit);
    assert!(report.blocked.is_empty(), "{:?}", report.blocked);
    assert_eq!(*count.lock().unwrap(), 8);
}

#[test]
fn buffered_denies_wait_for_the_enclosing_affirm_on_threads() {
    // A shared policy setter turned on the threaded runtime: with
    // DenyPolicy::Buffered the speculative deny(z) stays in the denier's
    // IHD set until affirm(x) finalizes the interval, so the victim cannot
    // roll back before the denier announced the affirm — whatever the
    // thread timing. (Under the default Immediate policy the deny lands
    // during the 30 ms compute and the order below is reversed.)
    let env = ThreadedHopeEnv::builder()
        .seed(7)
        .deny_policy(DenyPolicy::Buffered)
        .build();
    assert_eq!(env.config().deny_policy, DenyPolicy::Buffered);
    let log = Arc::new(Mutex::new(Vec::new()));
    let lv = log.clone();
    let victim = env.spawn_user("victim", move |ctx| {
        let m = ctx.receive(None);
        let z = decode_aid(&m.data);
        if !ctx.guess(z) {
            lv.lock().unwrap().push("victim rolled back");
        }
    });
    let ld = log.clone();
    env.spawn_user("denier", move |ctx| {
        let x = ctx.aid_init();
        let z = ctx.aid_init();
        ctx.send(victim, 0, encode_aid(z));
        if ctx.guess(x) {
            ctx.deny(z);
            ctx.compute(VirtualDuration::from_millis(30));
            ld.lock().unwrap().push("affirming x");
            ctx.affirm(x);
        }
    });
    let report = env.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(!report.hit_event_limit);
    assert_eq!(
        log.lock().unwrap().as_slice(),
        &["affirming x", "victim rolled back"],
        "the buffered deny lands, and only after the affirm"
    );
}

#[test]
fn reliable_without_a_fault_plan_runs_the_sublayer() {
    // `reliable(true)` alone (no faults) must switch sequencing and acks
    // on; the threaded front end had no way to ask for that before.
    let env = ThreadedHopeEnv::builder().seed(8).reliable(true).build();
    let sink = env.spawn_user("sink", |ctx| {
        let _ = ctx.receive(None);
    });
    env.spawn_user("source", move |ctx| {
        ctx.send(sink, 0, Bytes::from_static(b"x"));
    });
    let report = env.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(report.blocked.is_empty(), "{:?}", report.blocked);
    assert!(report.stats.link().acks > 0, "{:?}", report.stats.link());

    let plain = ThreadedHopeEnv::builder().seed(8).build();
    let report = plain.run_until_quiescent(GRACE, TIMEOUT);
    assert_eq!(
        report.stats.link().acks,
        0,
        "the sublayer is off by default"
    );
}

#[test]
fn introspection_answers_for_a_threaded_top_level_process() {
    // history_of / speculative_processes / user_pids live in the shared
    // front end; they used to exist on the simulator only.
    let env = ThreadedHopeEnv::builder().seed(9).build();
    let holder = env.spawn_user("holder", |ctx| {
        let x = ctx.aid_init();
        let _ = ctx.guess(x); // nobody resolves x: stays speculative
    });
    let plain = env.spawn_user("plain", |_ctx| {});
    let report = env.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert_eq!(env.user_pids(), vec![holder, plain]);
    assert_eq!(
        env.speculative_processes(),
        vec![(holder, "holder".to_string())]
    );
    let history = env.history_of(holder).expect("tracked");
    assert_eq!(history.len(), 2, "root + the guess interval: {history:?}");
    assert!(history[0].definite && !history[1].definite);
    assert_eq!(env.history_of(plain).expect("tracked").len(), 1);
    assert!(env.history_of(ProcessId::from_raw(9_999)).is_none());
}
