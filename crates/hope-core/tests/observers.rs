//! A HOPElib has one owner: `Env`'s observers ask the process's scheduler
//! — inline on the simulator, between turns on the owning shard — instead
//! of reading shared state. These tests hold the observers to what the
//! owner holds, on every runtime:
//!
//! * a tracked process that has not had its first turn reads as fresh
//!   state of its own pid;
//! * one program reads the same through every observer on the simulator
//!   and at one and four shards;
//! * a driver thread observing in a loop does not change a run's outcome;
//! * an unknown pid reads `None`, an exited process its final state;
//! * an observer called from a process body panics instead of waiting on
//!   its own shard.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hope_core::{
    Env, HopeEnv, IntervalRecord, PendingRollback, ProcessCtx, SpecSnapshot, ThreadedHopeEnv,
};
use hope_runtime::{FaultPlan, Inspect};
use hope_types::{ProcessId, VirtualDuration, VirtualTime};

const GRACE: Duration = Duration::from_millis(30);
const TIMEOUT: Duration = Duration::from_secs(20);

/// Everything the observers report about the tracked processes.
#[derive(Debug, PartialEq)]
struct Seen {
    history_visits: u64,
    histories: Vec<Option<Vec<IntervalRecord>>>,
    speculative: Vec<(ProcessId, String)>,
    specs: Vec<Option<SpecSnapshot>>,
    pending: Vec<Option<Option<PendingRollback>>>,
}

fn seen<R: Inspect>(env: &Env<R>) -> Seen {
    // First: the other observers walk the histories too.
    let history_visits = env.metrics().history_visits;
    let pids = env.user_pids();
    Seen {
        history_visits,
        histories: pids.iter().map(|&p| env.history_of(p)).collect(),
        speculative: env.speculative_processes(),
        specs: pids.iter().map(|&p| env.spec_of(p)).collect(),
        pending: pids.iter().map(|&p| env.pending_rollback_of(p)).collect(),
    }
}

fn threaded(shards: usize) -> ThreadedHopeEnv {
    ThreadedHopeEnv::builder().seed(3).shards(shards).build()
}

fn settle(env: &ThreadedHopeEnv) {
    let report = env.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(!report.hit_event_limit, "must settle");
}

/// Down for this long from the start, so its first turn waits.
const DOWN: Duration = Duration::from_millis(300);

fn down_at_start(pid: u64) -> FaultPlan {
    let down = VirtualDuration::from_millis(DOWN.as_millis() as u64);
    FaultPlan::new().crash(ProcessId::from_raw(pid), VirtualTime::ZERO, down)
}

fn guess_and_affirm(ctx: &mut ProcessCtx<'_>) {
    let x = ctx.aid_init();
    if ctx.guess(x) {
        ctx.affirm(x);
    }
}

/// A process that is down from the start has its first turn at its
/// restart. Before that an observer reads a fresh history of the pid it
/// asked about — not of a placeholder pid — and after it the real one.
#[test]
fn an_unstarted_process_reads_as_fresh_state_of_its_own_pid() {
    let root_of = |history: Option<Vec<IntervalRecord>>| {
        let history = history.expect("a tracked process");
        (history.len(), history[0].id.process())
    };
    let mut sim = HopeEnv::builder().faults(down_at_start(0)).build();
    let pid = sim.spawn_user("late", guess_and_affirm);
    assert_eq!(root_of(sim.history_of(pid)), (1, pid), "before the run");
    sim.run_until(VirtualTime::from_nanos(DOWN.as_nanos() as u64 / 2));
    assert_eq!(root_of(sim.history_of(pid)), (1, pid), "while down");
    assert!(sim.run().is_clean());
    assert_eq!(root_of(sim.history_of(pid)), (2, pid), "after the run");

    for shards in [1, 4] {
        let env = ThreadedHopeEnv::builder()
            .shards(shards)
            .faults(down_at_start(0))
            .build();
        let pid = env.spawn_user("late", guess_and_affirm);
        assert_eq!(root_of(env.history_of(pid)), (1, pid), "shards={shards}");
        settle(&env);
        assert_eq!(root_of(env.history_of(pid)), (2, pid), "shards={shards}");
    }
}

/// One process: an affirmed guess committed first, then a guess it denies
/// itself (one rollback), then a guess nobody resolves, so it stays
/// speculative. Every message it waits for is the only one in flight.
fn program(ctx: &mut ProcessCtx<'_>) {
    guess_and_affirm(ctx);
    ctx.await_definite();
    let (y, z) = (ctx.aid_init(), ctx.aid_init());
    if ctx.guess(y) {
        ctx.deny(y);
    }
    ctx.guess(z);
}

#[test]
fn every_observer_agrees_on_every_runtime() {
    let mut sim = HopeEnv::builder().seed(3).build();
    let pid = sim.spawn_user("p", program);
    sim.run();
    let want = seen(&sim);
    assert_eq!(want.speculative, [(pid, "p".to_string())]);
    assert_eq!(want.pending, [Some(None)]);
    assert_eq!(
        sim.metrics().rollbacks,
        2,
        "the denied guess and the one after it"
    );
    for shards in [1, 4] {
        let env = threaded(shards);
        env.spawn_user("p", program);
        settle(&env);
        assert_eq!(seen(&env), want, "shards={shards}");
    }
}

/// Forty guesses, every fifth denied by the guesser itself: the committed
/// execution's outcomes, in order.
fn stream(out: Arc<Mutex<Option<Vec<bool>>>>) -> impl Fn(&mut ProcessCtx<'_>) + Send + 'static {
    move |ctx| {
        let outcomes: Vec<bool> = (0..40)
            .map(|i| {
                let x = ctx.aid_init();
                let held = ctx.guess(x);
                match (held, i % 5) {
                    (true, 0) => ctx.deny(x),
                    (true, _) => ctx.affirm(x),
                    (false, _) => {}
                }
                held
            })
            .collect();
        ctx.await_definite();
        *out.lock().unwrap() = Some(outcomes);
    }
}

#[test]
fn a_driver_observing_in_a_loop_leaves_the_outcome_alone() {
    let run = |observe: bool| {
        let env = threaded(4);
        let out = Arc::new(Mutex::new(None));
        let pid = env.spawn_user("stream", stream(out.clone()));
        let done = AtomicBool::new(false);
        let asked = std::thread::scope(|s| {
            let observer = s.spawn(|| {
                let mut asked = 0u64;
                while observe && !done.load(Ordering::Acquire) {
                    assert!(env.history_of(pid).is_some());
                    assert!(env.spec_of(pid).is_some());
                    assert!(env.pending_rollback_of(pid).is_some());
                    env.speculative_processes();
                    env.metrics();
                    asked += 1;
                }
                asked
            });
            settle(&env);
            done.store(true, Ordering::Release);
            observer.join().unwrap()
        });
        assert_eq!(asked > 0, observe);
        assert!(env.speculative_processes().is_empty());
        assert_eq!(env.pending_rollback_of(pid), Some(None));
        let outcomes = out.lock().unwrap().take();
        outcomes.expect("the stream committed")
    };
    let want: Vec<bool> = (0..40).map(|i| i % 5 != 0).collect();
    assert_eq!(run(false), want);
    assert_eq!(run(true), want);
}

#[test]
fn an_unknown_pid_reads_none() {
    let mut sim = HopeEnv::new();
    let pid = sim.spawn_user("p", guess_and_affirm);
    sim.run();
    let env = threaded(4);
    env.spawn_user("p", guess_and_affirm);
    settle(&env);
    // The AID the process made, and a pid nobody spawned.
    for other in [
        ProcessId::from_raw(pid.as_raw() + 1),
        ProcessId::from_raw(99),
    ] {
        assert_eq!(sim.history_of(other), None);
        assert_eq!(sim.spec_of(other), None);
        assert_eq!(sim.pending_rollback_of(other), None);
        assert_eq!(env.history_of(other), None);
        assert_eq!(env.spec_of(other), None);
        assert_eq!(env.pending_rollback_of(other), None);
    }
}

#[test]
fn an_exited_process_reads_its_final_state() {
    let check = |history: Option<Vec<IntervalRecord>>| {
        let history = history.expect("still tracked");
        assert_eq!(history.len(), 2, "the root and the affirmed guess");
        assert!(history.iter().all(|rec| rec.definite));
    };
    let mut sim = HopeEnv::new();
    let pid = sim.spawn_user("p", guess_and_affirm);
    sim.run();
    assert_eq!(
        sim.runtime().status(pid),
        Some(hope_runtime::ProcessStatus::Exited)
    );
    check(sim.history_of(pid));
    for shards in [1, 4] {
        let env = threaded(shards);
        let pid = env.spawn_user("p", guess_and_affirm);
        let report = env.run_until_quiescent(GRACE, TIMEOUT);
        assert!(report.blocked.is_empty(), "exited: {:?}", report.blocked);
        check(env.history_of(pid));
    }
}

/// A body that asks would wait for its own shard's answer: it panics, and
/// the panic says where to call from.
#[test]
fn an_observer_called_from_a_process_body_panics_instead_of_waiting() {
    for shards in [1, 4] {
        let env = Arc::new(threaded(shards));
        let asker = env.clone();
        let pid = env.spawn_user("asker", move |ctx| {
            asker.history_of(ctx.pid());
        });
        let report = env.run_until_quiescent(GRACE, TIMEOUT);
        assert!(!report.hit_event_limit, "shards={shards}: no deadlock");
        let [(panicked, msg)] = report.panics.as_slice() else {
            panic!("shards={shards}: one panic, got {:?}", report.panics);
        };
        assert_eq!(*panicked, pid);
        assert!(msg.contains("call it from a driver thread"), "{msg}");
    }
}
