//! Facade-level coverage of surfaces not exercised elsewhere: partial
//! runs, mid-run introspection, threaded-env RPC streaming, and the
//! smaller public accessors.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use hope::hope_core::ThreadedHopeEnv;
use hope::prelude::*;
use hope_rpc::{RpcServer, StreamingClient};

#[test]
fn run_until_exposes_intermediate_speculation() {
    let mut env = HopeEnv::builder().seed(1).build();
    let pid = env.spawn_user("p", |ctx| {
        let x = ctx.aid_init();
        if ctx.guess(x) {
            ctx.compute(VirtualDuration::from_millis(10));
            ctx.affirm(x);
        }
    });
    // Stop mid-compute: the process must still be speculative.
    let mid = env.run_until(VirtualTime::from_nanos(5_000_000));
    assert!(mid.run.panics.is_empty());
    let speculative = env.speculative_processes();
    assert_eq!(speculative.len(), 1, "{speculative:?}");
    assert_eq!(speculative[0].0, pid);
    let history = env.history_of(pid).unwrap();
    assert!(history.iter().any(|r| !r.definite));
    // Finish: everything resolves.
    let done = env.run();
    assert!(done.is_clean());
    assert!(env.speculative_processes().is_empty());
    assert!(env.history_of(pid).unwrap().iter().all(|r| r.definite));
}

#[test]
fn reply_promise_exposes_its_aid() {
    let mut env = HopeEnv::builder().seed(2).build();
    let server = env.spawn_user("echo", |ctx| {
        RpcServer::serve(ctx, |_ctx, _m, body| body.clone());
    });
    let observed = Arc::new(Mutex::new(false));
    let o = observed.clone();
    env.spawn_user("client", move |ctx| {
        let promise = StreamingClient::call(
            ctx,
            server,
            0,
            Bytes::from_static(&[1]),
            Bytes::from_static(&[1]),
        );
        let aid = promise.aid();
        let (_, predicted) = promise.redeem(ctx);
        // The promise's AID is exactly what the redeem guessed.
        if !ctx.is_replaying() {
            *o.lock().unwrap() = predicted && ctx.current_deps().contains(&aid);
        }
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(*observed.lock().unwrap());
}

#[test]
fn threaded_env_runs_rpc_streaming() {
    let env = ThreadedHopeEnv::builder().seed(3).build();
    let results = Arc::new(Mutex::new(Vec::new()));
    let server = env.spawn_user("doubler", |ctx| {
        RpcServer::serve(ctx, |_ctx, _m, body| Bytes::from(vec![body[0] * 2]));
    });
    let r = results.clone();
    env.spawn_user("client", move |ctx| {
        // Right prediction then wrong prediction, under real threads.
        let p1 = StreamingClient::call(
            ctx,
            server,
            0,
            Bytes::from_static(&[4]),
            Bytes::from_static(&[8]),
        );
        let (v1, ok1) = p1.redeem(ctx);
        let p2 = StreamingClient::call(
            ctx,
            server,
            0,
            Bytes::from_static(&[5]),
            Bytes::from_static(&[99]),
        );
        let (v2, ok2) = p2.redeem(ctx);
        if !ctx.is_replaying() {
            r.lock().unwrap().push((v1[0], ok1, v2[0], ok2));
        }
    });
    let report = env.run_until_quiescent(Duration::from_millis(30), Duration::from_secs(20));
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    let seen = results.lock().unwrap().clone();
    let last = *seen.last().expect("client finished");
    assert_eq!(last.0, 8);
    assert_eq!(last.2, 10, "misprediction corrected under real threads");
    assert!(!last.3, "second call must report misprediction");
}

#[test]
fn metrics_display_is_comprehensive() {
    let mut env = HopeEnv::builder().seed(4).build();
    env.spawn_user("p", |ctx| {
        let x = ctx.aid_init();
        if ctx.guess(x) {
            ctx.deny(x);
            ctx.compute(VirtualDuration::from_millis(1));
        }
    });
    let report = env.run();
    let text = report.hope.to_string();
    for needle in ["guesses=1", "denies=1", "rollbacks=1", "aids_collected=0"] {
        assert!(text.contains(needle), "missing {needle} in: {text}");
    }
}

#[test]
fn hope_error_variants_render() {
    use hope_types::HopeError;
    let errors: Vec<HopeError> = vec![
        HopeError::FinalAid(AidId::from_raw(ProcessId::from_raw(1))),
        HopeError::UnknownProcess(ProcessId::from_raw(2)),
        HopeError::UnknownInterval(IntervalId::new(ProcessId::from_raw(3), 4)),
        HopeError::RuntimeStopped,
        HopeError::ProcessPanicked(ProcessId::from_raw(5), "boom".into()),
        HopeError::Codec("bad frame".into()),
    ];
    for e in errors {
        assert!(!e.to_string().is_empty());
    }
}

#[test]
fn trace_capture_via_the_facade() {
    let mut env = HopeEnv::builder().seed(5).build();
    env.enable_tracing(128);
    env.spawn_user("p", |ctx| {
        let x = ctx.aid_init();
        if ctx.guess(x) {
            ctx.affirm(x);
        }
    });
    let report = env.run();
    assert!(report.is_clean());
    let delivered: Vec<&str> = env
        .tracer()
        .events()
        .into_iter()
        .filter_map(|e| match e.kind {
            hope::hope_types::TraceEventKind::Deliver { kind, .. } => Some(kind),
            _ => None,
        })
        .collect();
    for kind in ["Guess", "Affirm", "Replace"] {
        assert!(delivered.contains(&kind), "{kind} in {delivered:?}");
    }
}
