//! Both runtimes drive one link pipeline: the same scripted scenario
//! yields the same link counters from the simulator and from the threaded
//! runtime at any shard count, and the threaded runtime's quiescence
//! detection does not fire in the middle of a run.

use std::time::Duration;

use bytes::Bytes;
use hope_runtime::{FaultPlan, LinkStats, RunReport, SimRuntime, SysApi, ThreadedRuntime};
use hope_types::{Payload, ProcessId, UserMessage, VirtualDuration};

fn user() -> Payload {
    Payload::User(UserMessage::new(0, Bytes::from_static(b"x")))
}

/// Reliable sublayer on, lossless wire. The rto is far above any
/// scheduling hiccup so the wall-clock runs cannot retransmit spuriously,
/// and far below the one second they are given to settle.
fn lossless_reliable() -> FaultPlan {
    FaultPlan::new().rto(VirtualDuration::from_millis(100))
}

fn receive_one(ctx: &mut dyn SysApi) {
    ctx.receive(None, &mut || false).expect("one message");
}

/// One send to a live process, one to a pid nobody ever spawned.
fn send_to_live_and_missing(live: ProcessId) -> impl FnOnce(&mut dyn SysApi) + Send + 'static {
    move |ctx| {
        ctx.send(live, user());
        ctx.send(ProcessId::from_raw(99), user());
    }
}

fn counters(report: &RunReport) -> (u64, u64, u64, u64) {
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(report.blocked.is_empty(), "{:?}", report.blocked);
    let link: &LinkStats = report.stats.link();
    (link.unroutable, link.acks, link.retransmits, link.abandoned)
}

#[test]
fn never_spawned_destination_counts_the_same_on_every_driver() {
    // The missing destination's envelope is acked once (so its sender
    // stops retransmitting) and counted unroutable once.
    let expected = (1, 2, 0, 0);

    let mut sim = SimRuntime::builder().faults(lossless_reliable()).build();
    let live = sim.spawn_threaded("live", None, receive_one);
    sim.spawn_threaded("sender", None, send_to_live_and_missing(live));
    assert_eq!(counters(&sim.run()), expected, "simulator");

    for shards in [1, 4] {
        let rt = ThreadedRuntime::builder()
            .faults(lossless_reliable())
            .shards(shards)
            .build();
        let live = rt.spawn_threaded("live", None, receive_one);
        rt.spawn_threaded("sender", None, send_to_live_and_missing(live));
        let report = rt.run_until_quiescent(Duration::from_millis(5), Duration::from_secs(1));
        assert!(
            !report.hit_event_limit,
            "shards({shards}): quiescent in 1 s"
        );
        assert_eq!(counters(&report), expected, "shards({shards})");
    }
}

#[test]
fn quiescence_is_not_declared_in_the_middle_of_a_ping_pong() {
    const ROUNDS: usize = 20_000;
    let rt = ThreadedRuntime::builder().shards(1).build();
    let pong = rt.spawn_threaded("pong", None, |ctx| {
        for _ in 0..ROUNDS {
            let ping = ctx.receive(None, &mut || false).expect("ping");
            ctx.send(ping.src, user());
        }
    });
    rt.spawn_threaded("ping", None, move |ctx| {
        for _ in 0..ROUNDS {
            ctx.send(pong, user());
            ctx.receive(None, &mut || false).expect("pong");
        }
    });
    // Between rounds nothing is in flight and the receiving thread may
    // not have woken yet: a 1 ms grace is shorter than the run by three
    // orders of magnitude, so any mid-run verdict shows up here as an
    // unfinished process.
    let report = rt.run_until_quiescent(Duration::from_millis(1), Duration::from_secs(20));
    assert!(!report.hit_event_limit, "ran to completion inside 20 s");
    assert!(report.blocked.is_empty(), "{:?}", report.blocked);
}
