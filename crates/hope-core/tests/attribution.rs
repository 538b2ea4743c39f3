//! Rollback attribution across the two runtimes.
//!
//! The attribution table (`RollbackAttribution`) charges every rollback's
//! wasted work to the AID whose deny caused it (or to the crash that
//! forced it). These tests pin two properties:
//!
//! * **Cross-runtime parity** — a deny with two speculating victims
//!   produces a bit-identical table on the virtual-time simulator and the
//!   wall-clock threaded runtime: every victim's op log is complete and
//!   the victim parked in `await_definite` long before the deny lands, so
//!   the charged counts depend on the program, not on a clock.
//! * **No double-charging under crash recovery** — recovery replays the
//!   victim's op log, re-traversing the aftermath of a rollback it
//!   executed live, but only the live rollback charges the table; the
//!   crash itself gets its own ledger row.

use std::time::Duration;

use bytes::Bytes;
use hope_core::{HopeEnv, ProcessCtx, ThreadedHopeEnv};
use hope_runtime::FaultPlan;
use hope_types::{AidId, BlameKey, ProcessId, RollbackAttribution, VirtualDuration, VirtualTime};

fn encode_aid(aid: AidId) -> Bytes {
    Bytes::copy_from_slice(&aid.process().as_raw().to_le_bytes())
}

fn decode_aid(data: &[u8]) -> AidId {
    AidId::from_raw(ProcessId::from_raw(u64::from_le_bytes(
        data[..8].try_into().unwrap(),
    )))
}

const CHANNEL_AID: u32 = 1;
const CHANNEL_SHARE: u32 = 2;
const CHANNEL_JUNK: u32 = 5;
const JUNK_MESSAGES: u32 = 6;
const LOCAL_OPS_A: u32 = 4;
const LOCAL_OPS_B: u32 = 9;

/// The deny scenario with two victims. All speculative work is local ops
/// plus sends into a channel nobody reads (so no third process ever
/// speculates): when the deny lands, both guessers have long been parked
/// in `await_definite` with complete, program-determined op logs. Spawn
/// order (= pids) must match across runtimes: verifier, follower, leader.
mod cascade {
    use super::*;

    /// Receives the AID (untagged), waits out a wide margin, denies. The
    /// leader's speculative junk stream lands in this process's mailbox
    /// on a channel it never reads — delivered-but-unread messages don't
    /// make it a speculator, but their invalidation is charged to the
    /// leader — and is simply discarded when the verifier exits.
    pub fn verifier() -> impl Fn(&mut ProcessCtx<'_>) + Send + 'static {
        |ctx| {
            let x = decode_aid(&ctx.receive(Some(CHANNEL_AID)).data);
            // A wide margin, not a race: both victims park within
            // microseconds of work; the deny arrives milliseconds later.
            ctx.compute(VirtualDuration::from_millis(10));
            ctx.deny(x);
        }
    }

    /// Guesses the AID the leader shares (learned from an untagged,
    /// pre-speculation message) and wastes `LOCAL_OPS_B` logged ops on it.
    pub fn follower() -> impl Fn(&mut ProcessCtx<'_>) + Send + 'static {
        |ctx| {
            let x = decode_aid(&ctx.receive(Some(CHANNEL_SHARE)).data);
            if ctx.guess(x) {
                for _ in 0..LOCAL_OPS_B {
                    let _ = ctx.random();
                }
                ctx.await_definite();
            }
        }
    }

    pub fn leader(
        verifier: ProcessId,
        follower: ProcessId,
    ) -> impl Fn(&mut ProcessCtx<'_>) + Send + 'static {
        move |ctx| {
            let x = ctx.aid_init();
            // Both sends happen before the guess opens the speculative
            // interval, so they carry no tag.
            ctx.send(follower, CHANNEL_SHARE, encode_aid(x));
            ctx.send(verifier, CHANNEL_AID, encode_aid(x));
            if ctx.guess(x) {
                for _ in 0..LOCAL_OPS_A {
                    let _ = ctx.random();
                }
                for i in 0..JUNK_MESSAGES {
                    ctx.send(verifier, CHANNEL_JUNK, Bytes::from(vec![i as u8]));
                }
                ctx.await_definite();
            }
        }
    }
}

fn run_cascade_sim(seed: u64) -> RollbackAttribution {
    let mut env = HopeEnv::builder().seed(seed).build();
    let verifier = env.spawn_user("verifier", cascade::verifier());
    let follower = env.spawn_user("follower", cascade::follower());
    env.spawn_user("leader", cascade::leader(verifier, follower));
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(report.hope.rollbacks >= 2, "{:?}", report.hope);
    report.hope.attribution
}

fn run_cascade_threaded(seed: u64) -> RollbackAttribution {
    let env = ThreadedHopeEnv::builder().seed(seed).build();
    let verifier = env.spawn_user("verifier", cascade::verifier());
    let follower = env.spawn_user("follower", cascade::follower());
    env.spawn_user("leader", cascade::leader(verifier, follower));
    let report = env.run_until_quiescent(Duration::from_millis(30), Duration::from_secs(20));
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(!report.hit_event_limit, "must reach quiescence");
    env.metrics().attribution
}

#[test]
fn deny_attribution_is_identical_across_runtimes() {
    let sim = run_cascade_sim(42);
    assert_eq!(sim.by_cause.len(), 1, "one denied AID: {sim:?}");
    let (cause, work) = sim.by_cause.iter().next().unwrap();
    assert!(matches!(cause, BlameKey::Aid(_)), "{cause:?}");
    assert_eq!(work.reexecutions, 2, "two victims re-execute: {work:?}");
    assert_eq!(
        work.messages_invalidated,
        u64::from(JUNK_MESSAGES),
        "the leader's speculative stream must be charged: {work:?}"
    );
    assert!(
        work.ops_discarded >= u64::from(LOCAL_OPS_A + LOCAL_OPS_B + JUNK_MESSAGES),
        "both victims' local work must be charged: {work:?}"
    );

    let threaded = run_cascade_threaded(42);
    assert_eq!(
        sim, threaded,
        "attribution must be bit-identical across runtimes"
    );
}

#[test]
fn cascade_attribution_is_deterministic_per_seed() {
    assert_eq!(run_cascade_sim(7), run_cascade_sim(7));
    assert_eq!(run_cascade_threaded(7), run_cascade_threaded(7));
}

/// A deny-caused rollback, then a crash of the same process while it
/// speculates on a *second* AID: recovery replays the op log (including
/// the logged `guess(x) == false` from the first rollback's re-execution)
/// without re-charging the deny, and the crash's own doomed speculation
/// lands on a separate `Crash` ledger row.
#[test]
fn crash_recovery_does_not_double_charge() {
    let mut env = HopeEnv::builder()
        .seed(3)
        .faults(
            // Spawn order: verifier_x (pid 0), verifier_y (pid 1),
            // guesser (pid 2). The deny of x lands at ~2 ms; the guesser
            // then speculates on y inside a 30 ms compute; crash it at
            // 10 ms, squarely inside that window.
            FaultPlan::new().crash(
                ProcessId::from_raw(2),
                VirtualTime::from_nanos(10_000_000),
                VirtualDuration::from_millis(2),
            ),
        )
        .build();
    let verifier_x = env.spawn_user("verifier_x", |ctx| {
        let x = decode_aid(&ctx.receive(Some(CHANNEL_AID)).data);
        ctx.compute(VirtualDuration::from_millis(2));
        ctx.deny(x);
    });
    let verifier_y = env.spawn_user("verifier_y", |ctx| {
        let y = decode_aid(&ctx.receive(Some(CHANNEL_AID)).data);
        ctx.compute(VirtualDuration::from_millis(40));
        ctx.affirm(y);
    });
    env.spawn_user("guesser", move |ctx| {
        let x = ctx.aid_init();
        ctx.send(verifier_x, CHANNEL_AID, encode_aid(x));
        if ctx.guess(x) {
            ctx.compute(VirtualDuration::from_millis(1));
            ctx.await_definite();
        } else {
            let y = ctx.aid_init();
            ctx.send(verifier_y, CHANNEL_AID, encode_aid(y));
            if ctx.guess(y) {
                ctx.compute(VirtualDuration::from_millis(30));
                ctx.await_definite();
            }
        }
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert_eq!(report.hope.crash_recoveries, 1, "{:?}", report.hope);
    let attribution = &report.hope.attribution;
    let aid_rows: Vec<_> = attribution
        .by_cause
        .iter()
        .filter(|(k, _)| matches!(k, BlameKey::Aid(_)))
        .collect();
    assert_eq!(aid_rows.len(), 1, "{attribution:?}");
    assert_eq!(
        aid_rows[0].1.reexecutions, 1,
        "the deny must be charged exactly once despite the crash replay: {attribution:?}"
    );
    let crash_row = attribution
        .by_cause
        .get(&BlameKey::Crash(ProcessId::from_raw(2)))
        .expect("the crash must appear in the ledger");
    assert_eq!(crash_row.reexecutions, 1, "{attribution:?}");
}
