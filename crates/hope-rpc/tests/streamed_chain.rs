//! The streamed dependent chain that `perfbench`'s `sim_chain` times,
//! run once under the simulator with the trace on and held to its
//! deterministic counts: what a streamed call costs in scheduler turns,
//! and when the WorryWarts orphaned by a client rollback ask the server.

use std::collections::HashMap;

use bytes::Bytes;
use hope_core::HopeEnv;
use hope_rpc::{RpcServer, StreamingClient};
use hope_runtime::NetworkConfig;
use hope_types::trace::TraceEventKind;
use hope_types::{AidId, ProcessId, VirtualDuration};

const DEPTH: u64 = 128;

fn stage_fn(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

fn payload(v: u64) -> Bytes {
    Bytes::from(v.to_le_bytes().to_vec())
}

fn read(data: &[u8]) -> u64 {
    u64::from_le_bytes(data[..8].try_into().expect("an 8-byte reply"))
}

/// `DEPTH` dependent streamed calls, the prediction wrong at `i % 10 ==
/// 5`, over a constant 10 ms link: the stage server is pid 0, the client
/// pid 1.
#[test]
fn a_streamed_call_costs_five_turns_and_no_orphan_asks_after_its_rollback() {
    let mut env = HopeEnv::builder()
        .seed(1)
        .network(NetworkConfig::constant(VirtualDuration::from_millis(10)))
        .build();
    env.enable_tracing(1 << 20);
    let server = env.spawn_user("stage", |ctx| {
        RpcServer::serve(ctx, |ctx, _method, body| {
            ctx.compute(VirtualDuration::from_micros(100));
            payload(stage_fn(read(body)))
        });
    });
    let client = env.spawn_user("client", move |ctx| {
        let mut value = 1u64;
        for i in 0..DEPTH {
            ctx.compute(VirtualDuration::from_micros(20));
            let correct = stage_fn(value);
            let predicted = if i % 10 == 5 { !correct } else { correct };
            let promise = StreamingClient::call(ctx, server, 0, payload(value), payload(predicted));
            value = read(&promise.redeem(ctx).0);
        }
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);

    // Each of the 934 issued calls (128, plus 806 re-issued by
    // re-execution) makes an `aid_init` and a WorryWart spawn: two outbox
    // entries, where each used to be a turn of its own (5 748 turns).
    assert_eq!(report.run.turns, 3_880);
    assert_eq!(report.run.events, 8_408);
    assert_eq!(report.hope.rollbacks, 819);

    // Trace order is execution order: one party runs at a time.
    let tracer = env.tracer();
    assert_eq!(tracer.dropped(), 0, "the ring must hold the whole run");
    let events = tracer.events();
    let mut resolver: HashMap<AidId, ProcessId> = HashMap::new();
    let mut request_at: HashMap<ProcessId, usize> = HashMap::new();
    for (at, ev) in events.iter().enumerate() {
        match ev.kind {
            TraceEventKind::Affirm { aid } | TraceEventKind::Deny { aid } => {
                resolver.insert(aid, ev.pid);
            }
            TraceEventKind::Send { dst, .. } if dst == server => {
                request_at.entry(ev.pid).or_insert(at);
            }
            _ => {}
        }
    }
    // A rollback to `floor` discards every live `aid_init` (and the
    // WorryWart spawned right after it) logged since `floor` opened.
    let mut opened_at = HashMap::new();
    let mut live_calls: Vec<(usize, AidId)> = Vec::new();
    let (mut orphans, mut asked_after_rollback) = (0, 0);
    for (at, ev) in events.iter().enumerate().filter(|(_, e)| e.pid == client) {
        match ev.kind {
            TraceEventKind::AidInit { aid } => live_calls.push((at, aid)),
            TraceEventKind::IntervalOpen { interval, .. } => {
                opened_at.insert(interval, at);
            }
            TraceEventKind::RollbackStart { floor, .. } => {
                let from = opened_at[&floor];
                live_calls.retain(|&(issued, aid)| {
                    if issued < from {
                        return true;
                    }
                    orphans += 1;
                    if request_at[&resolver[&aid]] > at {
                        asked_after_rollback += 1;
                    }
                    false
                });
            }
            _ => {}
        }
    }
    assert_eq!(orphans, 806, "WorryWarts whose spawn a rollback discarded");
    assert_eq!(
        asked_after_rollback, 0,
        "a WorryWart asks the server in its first turn, at its spawn instant"
    );
}
