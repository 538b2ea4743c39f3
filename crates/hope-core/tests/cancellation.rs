//! A proven-`False` assumption cancels on sight under the **default**
//! policy (DESIGN.md S8): once a caused `Rollback` has told a process
//! that an AID is denied, a message tagged with it is dropped before it
//! is logged, and a `guess` on it is `false` at once — on the simulator
//! and on real threads, with and without a durable store, and with the
//! set of denied AIDs at its bound.
//!
//! One two-process program drives the first four tests. Its ordering is
//! forced by messages, not by time: the producer sends its speculative
//! `CH_B` message *before* the `CH_A` one the consumer waits for, so
//! per-link FIFO has it queued when the consumer — dependent on `x`
//! through the `CH_A` tag — calls `free_of(x)`, which is what denies `x`.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use hope_core::{DurableConfig, HopeEnv, MetricsSnapshot, ProcessCtx, ThreadedHopeEnv};
use hope_runtime::{FaultPlan, MessageStats, NetworkConfig};
use hope_types::{AidId, ProcessId, TraceCollector, TraceEventKind, VirtualDuration, VirtualTime};
use std::sync::Mutex;

const CH_SETUP: u32 = 0;
const CH_A: u32 = 1;
const CH_B: u32 = 2;
const CH_Y: u32 = 3;
const SPEC: &[u8] = b"spec";
const DEF: &[u8] = b"def";

fn encode_aids(aids: &[AidId]) -> Bytes {
    aids.iter()
        .flat_map(|aid| aid.process().as_raw().to_le_bytes())
        .collect::<Vec<u8>>()
        .into()
}

fn decode_aids(data: &[u8]) -> Vec<AidId> {
    data.chunks_exact(8)
        .map(|c| {
            AidId::from_raw(ProcessId::from_raw(u64::from_le_bytes(
                c.try_into().unwrap(),
            )))
        })
        .collect()
}

/// What the consumer's surviving execution saw.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    a: Bytes,
    b: Bytes,
    guessed_x: bool,
    guessed_y: bool,
}

/// The only committed outcome: both definite payloads, both guesses false.
fn committed() -> Outcome {
    Outcome {
        a: Bytes::from_static(DEF),
        b: Bytes::from_static(DEF),
        guessed_x: false,
        guessed_y: false,
    }
}

type Slot = Arc<Mutex<Option<Outcome>>>;

fn producer(ctx: &mut ProcessCtx, consumer: ProcessId) {
    let x = ctx.aid_init();
    ctx.send(consumer, CH_SETUP, encode_aids(&[x]));
    if ctx.guess(x) {
        ctx.send(consumer, CH_B, Bytes::from_static(SPEC));
        ctx.send(consumer, CH_A, Bytes::from_static(SPEC));
        // `x` is only ever denied: the rollback unwinds from here.
        ctx.await_definite();
    } else {
        ctx.send(consumer, CH_A, Bytes::from_static(DEF));
        ctx.send(consumer, CH_B, Bytes::from_static(DEF));
        let y = decode_aids(&ctx.receive(Some(CH_Y)).data)[0];
        // Long enough for a scheduled crash to find the consumer
        // speculative on `y`.
        ctx.compute(VirtualDuration::from_millis(5));
        ctx.deny(y);
    }
}

fn consumer(ctx: &mut ProcessCtx, out: &Slot) {
    let x = decode_aids(&ctx.receive(Some(CH_SETUP)).data)[0];
    let a = ctx.receive(Some(CH_A));
    if a.data == SPEC {
        // Dependent on `x` through the tag, so this denies it; the caused
        // rollback returns this process to the receive above.
        assert!(!ctx.free_of(x));
        ctx.await_definite();
    }
    // The speculative CH_B message has been queued since before the deny.
    let b = ctx.receive(Some(CH_B));
    let guessed_x = ctx.guess(x);
    // An unrelated assumption, denied later: its rollback re-executes
    // across both cancellation points.
    let y = ctx.aid_init();
    ctx.send(a.src, CH_Y, encode_aids(&[y]));
    let guessed_y = ctx.guess(y);
    ctx.await_definite();
    *out.lock().unwrap() = Some(Outcome {
        a: a.data,
        b: b.data,
        guessed_x,
        guessed_y,
    });
}

/// Everything a run leaves behind that the tests look at.
struct Run {
    outcome: Option<Outcome>,
    hope: MetricsSnapshot,
    stats: MessageStats,
    tracer: Arc<TraceCollector>,
    consumer: ProcessId,
}

impl Run {
    /// The consumer's trace events matching `pick`.
    fn consumer_events(&self, pick: impl Fn(&TraceEventKind) -> bool) -> usize {
        self.tracer
            .events()
            .iter()
            .filter(|e| e.pid == self.consumer && pick(&e.kind))
            .count()
    }
}

fn network() -> NetworkConfig {
    NetworkConfig::constant(VirtualDuration::from_millis(1))
}

/// The program on the simulator; `configure` adds faults and storage.
fn run_sim(configure: impl FnOnce(hope_core::HopeEnvBuilder) -> hope_core::HopeEnvBuilder) -> Run {
    let mut env = configure(HopeEnv::builder().seed(5).network(network())).build();
    env.enable_tracing(1 << 14);
    let slot = Slot::default();
    let out = slot.clone();
    let consumer_pid = env.spawn_user("consumer", move |ctx| consumer(ctx, &out));
    env.spawn_user("producer", move |ctx| producer(ctx, consumer_pid));
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(report.run.blocked.is_empty(), "{:?}", report.run.blocked);
    if let Some(store) = env.store_stats() {
        assert_eq!(store.frontier_violations, 0, "{store:?}");
    }
    let outcome = slot.lock().unwrap().clone();
    Run {
        outcome,
        hope: report.hope,
        stats: report.run.stats,
        tracer: env.tracer(),
        consumer: consumer_pid,
    }
}

fn run_threaded() -> Run {
    let env = ThreadedHopeEnv::builder().seed(5).build();
    env.enable_tracing(1 << 14);
    let slot = Slot::default();
    let out = slot.clone();
    let consumer_pid = env.spawn_user("consumer", move |ctx| consumer(ctx, &out));
    env.spawn_user("producer", move |ctx| producer(ctx, consumer_pid));
    let report = env.run_until_quiescent(Duration::from_millis(50), Duration::from_secs(30));
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(!report.hit_event_limit, "must reach quiescence");
    assert!(report.blocked.is_empty(), "{:?}", report.blocked);
    let outcome = slot.lock().unwrap().clone();
    Run {
        outcome,
        hope: env.metrics(),
        stats: report.stats,
        tracer: env.tracer(),
        consumer: consumer_pid,
    }
}

fn both_runtimes() -> [(&'static str, Run); 2] {
    [("sim", run_sim(|b| b)), ("threaded", run_threaded())]
}

/// (i) The queued `CH_B` message names the AID the consumer was just
/// rolled back for: it is dropped — nothing logged, no interval, no
/// `Guess` — counted, and traced.
#[test]
fn a_message_tagged_with_a_denied_aid_is_dropped_on_sight() {
    for (rt, run) in both_runtimes() {
        // The producer's guess of `x`, the consumer's implicit guess on
        // the CH_A message and its guess of `y`; none for the dropped one.
        assert_eq!(run.stats.count_kind("Guess"), 3, "{rt}");
        assert_eq!(run.hope.implicit_guesses, 1, "{rt}: {:?}", run.hope);
        let implicit_opens = run
            .consumer_events(|k| matches!(k, TraceEventKind::IntervalOpen { implicit: true, .. }));
        assert_eq!(implicit_opens, 1, "{rt}: only the CH_A message opens one");
        let dropped = run
            .consumer_events(|k| matches!(k, TraceEventKind::CancelDoomed { message: true, .. }));
        assert_eq!(dropped, 1, "{rt}");
        // The dropped message and the short-circuited guess of (ii).
        assert_eq!(run.hope.cancelled_intervals, 2, "{rt}: {:?}", run.hope);
        // `x` rolls both processes back once, `y` the consumer once more.
        assert_eq!(run.stats.count_kind("Rollback"), 3, "{rt}");
        assert_eq!(run.hope.reexecutions, 3, "{rt}: {:?}", run.hope);
        assert_eq!(run.outcome, Some(committed()), "{rt}");
    }
}

/// (ii) `guess(x)` after the proof returns the `false` a rollback would
/// have produced, without an interval or a registration.
#[test]
fn a_guess_on_a_denied_aid_is_false_at_once() {
    for (rt, run) in both_runtimes() {
        let outcome = run.outcome.clone().expect("the consumer finished");
        assert!(!outcome.guessed_x, "{rt}");
        assert_eq!(run.hope.guesses, 3, "{rt}: counted like any guess");
        let explicit_opens = run.consumer_events(|k| {
            matches!(
                k,
                TraceEventKind::IntervalOpen {
                    implicit: false,
                    ..
                }
            )
        });
        assert_eq!(explicit_opens, 1, "{rt}: only the guess of `y` opens one");
        let resolved = run
            .consumer_events(|k| matches!(k, TraceEventKind::CancelDoomed { message: false, .. }));
        assert_eq!(resolved, 1, "{rt}");
    }
}

/// (iii) The deny of `y` re-executes the consumer from the top, across
/// the dropped message (never logged) and the short-circuited guess
/// (logged as `false`): a log that disagreed with the re-execution at
/// either point would panic with `ReplayDiverged`.
#[test]
fn a_later_rollback_replays_across_the_cancellation_point() {
    for (rt, run) in both_runtimes() {
        // Setup, CH_A, CH_B, the guess of `x`, `aid_init`, the send and
        // the guess of `y` are replayed, not re-issued.
        assert!(run.hope.replayed_ops >= 7, "{rt}: {:?}", run.hope);
        assert_eq!(run.outcome, Some(committed()), "{rt}");
    }
}

/// (iv) The same with a durable store and a crash after both
/// cancellations, while the consumer is speculative on `y`: the drop was
/// never journalled, so recovery rebuilds a log the re-execution agrees
/// with, reaches the definite frontier and commits what the store-less
/// run commits.
#[test]
fn crash_recovery_from_a_durable_store_agrees_with_the_cancellations() {
    let plain = run_sim(|b| b);
    // The consumer (pid 0) sends `y` at 4 ms and is rolled back for it at
    // 12 ms; both cancellations happened at 4 ms.
    let crash = FaultPlan::new()
        .seed(5)
        .crash(
            ProcessId::from_raw(0),
            VirtualTime::from_nanos(7_000_000),
            VirtualDuration::from_millis(1),
        )
        .rto(VirtualDuration::from_millis(5));
    let durable = run_sim(|b| b.faults(crash).durable(DurableConfig::default()));
    assert_eq!(durable.consumer, ProcessId::from_raw(0));
    assert_eq!(durable.hope.crash_recoveries, 1, "{:?}", durable.hope);
    assert_eq!(durable.hope.cancelled_intervals, 2);
    assert_eq!(durable.outcome, Some(committed()));
    assert_eq!(durable.outcome, plain.outcome);
    assert_eq!(
        durable.hope.finalized_intervals,
        plain.hope.finalized_intervals
    );
}

/// (v) At the bound. One message tagged with `DENIED` assumptions makes
/// the consumer a registrant of every one of them; all are denied, so
/// the consumer hears `DENIED` caused rollbacks and the set, capped one
/// below that, has dropped the oldest — `aids[0]`. A message tagged with
/// only that one is then received like any other and converges through
/// the ordinary rollback path: forgetting a member costs a rollback,
/// never an outcome.
#[test]
fn an_evicted_aid_still_converges_through_the_rollback_path() {
    const DENIED: usize = 4097; // hopelib's KNOWN_DENIED_CAP + 1
    let mut env = HopeEnv::builder().seed(5).network(network()).build();
    let slot: Arc<Mutex<Option<Bytes>>> = Arc::default();
    let out = slot.clone();
    let denier = env.spawn_user("denier", |ctx| {
        let aids = decode_aids(&ctx.receive(None).data);
        ctx.compute(VirtualDuration::from_millis(5)); // let the consumer register
        for aid in aids {
            ctx.deny(aid);
        }
    });
    let consumer = env.spawn_user("consumer", move |ctx| {
        let _ = ctx.receive(Some(CH_A));
        let b = ctx.receive(Some(CH_B));
        ctx.await_definite();
        *out.lock().unwrap() = Some(b.data);
    });
    env.spawn_user("producer", move |ctx| {
        let aids: Vec<AidId> = (0..DENIED).map(|_| ctx.aid_init()).collect();
        ctx.send(denier, 0, encode_aids(&aids));
        if ctx.guess(aids[0]) {
            // Tagged with the oldest assumption alone.
            ctx.send(consumer, CH_B, Bytes::from_static(SPEC));
            if aids[1..].iter().all(|&aid| ctx.guess(aid)) {
                ctx.send(consumer, CH_A, Bytes::from_static(SPEC));
                ctx.await_definite();
            }
        }
        ctx.send(consumer, CH_A, Bytes::from_static(DEF));
        ctx.send(consumer, CH_B, Bytes::from_static(DEF));
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(report.run.blocked.is_empty(), "{:?}", report.run.blocked);
    assert_eq!(slot.lock().unwrap().as_deref(), Some(DEF));
    // Nothing was dropped on sight: the only tagged message that came
    // after a proof named the one AID the set had forgotten, so it was
    // received, registered and rolled back.
    assert_eq!(report.hope.cancelled_intervals, 0, "{:?}", report.hope);
    let guesses = report.run.stats.count_kind("Guess") as usize;
    assert_eq!(guesses, 2 * DENIED + 1, "producer, CH_A tag, CH_B tag");
    assert!(env.history_of(consumer).unwrap().iter().all(|r| r.definite));
}
