//! Seeded determinism at the simulator level: the same seed must produce
//! the same delivery schedule — with jittered latency, and with the fault
//! model and reliable sublayer engaged. The second half extends the same
//! claim across the *sharded wall-clock runtime* (DESIGN.md §10): wall
//! timings vary run to run, but the deterministic outcome fields — what
//! was delivered, to whom, how often — must be bit-identical whether the
//! transport runs on one shard, many shards, or the simulator. The last
//! part holds the causal trace to the Table 1 accounting: every delivery
//! is traced once, with the kind `MessageStats` counts it under. The last
//! holds both runtimes to one dispatch table, crash hook included.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use hope_core::{HopeEnv, ProcessCtx, ThreadedHopeEnv};
use hope_runtime::{
    Actor, ActorApi, ControlApi, ControlHandler, FaultPlan, MessageStats, NetworkConfig,
    SimRuntime, SysApi, ThreadedRuntime,
};
use hope_types::{
    AidId, Envelope, HopeMessage, Payload, ProcessId, TraceCollector, TraceEvent, TraceEventKind,
    UserMessage, VirtualDuration, VirtualTime,
};

/// The deterministic projection of a causal trace: every event's virtual
/// time, process and kind (the wall-clock stamp is left out).
type Schedule = Vec<(VirtualTime, ProcessId, TraceEventKind)>;

/// A small token-passing workload: `n` threaded processes forward a
/// counter around a ring until it reaches `hops`.
fn ring(seed: u64, faults: Option<FaultPlan>) -> (Schedule, VirtualTime, u64) {
    const N: u64 = 4;
    const HOPS: u8 = 24;
    let tracer = Arc::new(TraceCollector::new());
    tracer.enable_default();
    let mut builder = SimRuntime::builder()
        .seed(seed)
        .network(NetworkConfig::uniform(
            VirtualDuration::from_micros(200),
            VirtualDuration::from_millis(2),
        ))
        .tracer(tracer.clone());
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    let mut rt = builder.build();
    for i in 0..N {
        rt.spawn_threaded(&format!("ring-{i}"), None, move |ctx| loop {
            let got = ctx.receive(None, &mut || false).unwrap();
            let hop = got.msg.data[0];
            if hop == 0 {
                return;
            }
            let next = ProcessId::from_raw((i + 1) % N);
            ctx.send(
                next,
                Payload::User(UserMessage::new(0, Bytes::from(vec![hop - 1]))),
            );
        });
    }
    rt.inject(
        ProcessId::from_raw(0),
        ProcessId::from_raw(1),
        Payload::User(UserMessage::new(0, Bytes::from(vec![HOPS]))),
    )
    .unwrap();
    let report = rt.run();
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    let events = tracer
        .events()
        .into_iter()
        .map(|e| (e.virt, e.pid, e.kind))
        .collect();
    (events, report.now, report.stats.link().retransmits)
}

fn lossy_plan(fault_seed: u64) -> FaultPlan {
    FaultPlan::new()
        .drop_rate(0.2)
        .duplicate_rate(0.1)
        .seed(fault_seed)
        .rto(VirtualDuration::from_millis(4))
        .crash(
            ProcessId::from_raw(2),
            VirtualTime::from_nanos(5_000_000),
            VirtualDuration::from_millis(3),
        )
}

#[test]
fn same_seed_same_delivery_schedule_under_jitter() {
    let (a, now_a, _) = ring(42, None);
    let (b, now_b, _) = ring(42, None);
    assert!(!a.is_empty());
    assert_eq!(a, b, "uniform-latency schedule must be seed-deterministic");
    assert_eq!(now_a, now_b);
}

#[test]
fn different_seed_different_delivery_schedule() {
    let (a, _, _) = ring(1, None);
    let (b, _, _) = ring(2, None);
    assert_ne!(a, b, "different seeds should jitter differently");
}

#[test]
fn same_seed_same_fault_schedule_end_to_end() {
    let (a, now_a, rtx_a) = ring(7, Some(lossy_plan(99)));
    let (b, now_b, rtx_b) = ring(7, Some(lossy_plan(99)));
    assert!(!a.is_empty());
    assert!(rtx_a > 0, "the lossy wire must force retransmissions");
    assert_eq!(a, b, "faulted schedule must be bit-identical per seed");
    assert_eq!(now_a, now_b);
    assert_eq!(rtx_a, rtx_b);
}

#[test]
fn different_fault_seed_different_fault_schedule() {
    let (a, _, _) = ring(7, Some(lossy_plan(1)));
    let (b, _, _) = ring(7, Some(lossy_plan(2)));
    assert_ne!(a, b, "the fault seed must steer which transits fail");
}

// --- Sharded wall-clock runtime: outcome determinism ------------------
//
// A threaded run's *schedule* is wall-clock and therefore not replayable,
// but for a closed workload its *outcome* is: exactly-once delivery means
// the set of (hop, receiver) pairs — and hence the checksum below and the
// Table-1 counts — is a pure function of the topology, independent of the
// shard count, the interleaving, and even of which wire transits the
// fault model kills (drops are repaired, duplicates deduplicated).

const N: u64 = 4;
const HOPS: u8 = 24;
const CHECK_PRIME: u64 = 1_000_003;

/// The deterministic outcome fields of one run, in a directly comparable
/// form. Wall-clock-dependent fields (timings, retransmit churn) are
/// deliberately absent.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// Order-independent checksum over every (receiver, hop) delivery.
    checksum: u64,
    /// Table-1 counts keyed by (kind, from, to).
    counts: BTreeMap<(String, String, String), u64>,
    /// Messages dropped because their destination was gone.
    dropped: u64,
    /// Processes still blocked in `receive` at quiescence.
    blocked: Vec<u64>,
}

/// What the token ring must deliver: hop values `HOPS..=0`, rotating
/// around the ring starting at process 0. Computed analytically so the
/// cross-runtime comparisons cannot agree on a shared wrong answer.
fn expected_checksum() -> u64 {
    let mut sum = 0u64;
    let mut pid = 0u64;
    for hop in (0..=u64::from(HOPS)).rev() {
        sum = sum.wrapping_add(pid * CHECK_PRIME + hop);
        pid = (pid + 1) % N;
    }
    sum
}

/// The `ring` workload on the sharded wall-clock runtime: `N` threaded
/// processes forward the token, a fifth "kicker" process injects it
/// (the threaded runtime has no external `inject`).
fn threaded_outcome(seed: u64, shards: usize, faults: Option<FaultPlan>) -> Outcome {
    let mut builder = ThreadedRuntime::builder()
        .seed(seed)
        .network(NetworkConfig::constant(VirtualDuration::from_micros(100)))
        .shards(shards);
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    let rt = builder.build();
    let checksum = Arc::new(Mutex::new(0u64));
    for i in 0..N {
        let sum = checksum.clone();
        rt.spawn_threaded(&format!("ring-{i}"), None, move |ctx| {
            while let Some(got) = ctx.receive(None, &mut || false) {
                let hop = got.msg.data[0];
                let mut s = sum.lock().unwrap();
                *s = s.wrapping_add(i * CHECK_PRIME + u64::from(hop));
                drop(s);
                if hop == 0 {
                    return;
                }
                let next = ProcessId::from_raw((i + 1) % N);
                ctx.send(
                    next,
                    Payload::User(UserMessage::new(0, Bytes::from(vec![hop - 1]))),
                );
            }
        });
    }
    rt.spawn_threaded("kicker", None, move |ctx| {
        ctx.send(
            ProcessId::from_raw(0),
            Payload::User(UserMessage::new(0, Bytes::from(vec![HOPS]))),
        );
    });
    let report = rt.run_until_quiescent(Duration::from_millis(25), Duration::from_secs(30));
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(!report.hit_event_limit, "must reach quiescence");
    let mut blocked: Vec<u64> = report.blocked.iter().map(|(p, _)| p.as_raw()).collect();
    blocked.sort_unstable();
    let checksum = *checksum.lock().unwrap();
    Outcome {
        checksum,
        counts: report
            .stats
            .iter()
            .map(|(k, f, t, c)| ((k.to_string(), format!("{f:?}"), format!("{t:?}")), c))
            .collect(),
        dropped: report.stats.dropped(),
        blocked,
    }
}

/// The identical workload on the simulator (same five processes, same
/// checksum), for the cross-runtime half of the comparison.
fn sim_outcome(seed: u64) -> Outcome {
    let mut rt = SimRuntime::builder()
        .seed(seed)
        .network(NetworkConfig::constant(VirtualDuration::from_micros(100)))
        .build();
    let checksum = Arc::new(Mutex::new(0u64));
    for i in 0..N {
        let sum = checksum.clone();
        rt.spawn_threaded(&format!("ring-{i}"), None, move |ctx| {
            while let Some(got) = ctx.receive(None, &mut || false) {
                let hop = got.msg.data[0];
                let mut s = sum.lock().unwrap();
                *s = s.wrapping_add(i * CHECK_PRIME + u64::from(hop));
                drop(s);
                if hop == 0 {
                    return;
                }
                let next = ProcessId::from_raw((i + 1) % N);
                ctx.send(
                    next,
                    Payload::User(UserMessage::new(0, Bytes::from(vec![hop - 1]))),
                );
            }
        });
    }
    rt.spawn_threaded("kicker", None, move |ctx| {
        ctx.send(
            ProcessId::from_raw(0),
            Payload::User(UserMessage::new(0, Bytes::from(vec![HOPS]))),
        );
    });
    let report = rt.run();
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    let mut blocked: Vec<u64> = report.blocked.iter().map(|(p, _)| p.as_raw()).collect();
    blocked.sort_unstable();
    let checksum = *checksum.lock().unwrap();
    Outcome {
        checksum,
        counts: report
            .stats
            .iter()
            .map(|(k, f, t, c)| ((k.to_string(), format!("{f:?}"), format!("{t:?}")), c))
            .collect(),
        dropped: report.stats.dropped(),
        blocked,
    }
}

#[test]
fn threaded_outcome_is_shard_count_independent() {
    let one = threaded_outcome(42, 1, None);
    assert_eq!(
        one.checksum,
        expected_checksum(),
        "one shard: every hop, once"
    );
    assert_eq!(one.dropped, 0);
    let two = threaded_outcome(42, 2, None);
    let four = threaded_outcome(42, 4, None);
    assert_eq!(one, two, "shards(1) vs shards(2)");
    assert_eq!(one, four, "shards(1) vs shards(4)");
}

#[test]
fn threaded_outcome_matches_the_simulator() {
    let sim = sim_outcome(42);
    let threaded = threaded_outcome(42, 4, None);
    assert_eq!(sim.checksum, expected_checksum());
    assert_eq!(
        sim, threaded,
        "the sharded wall-clock runtime must commit the simulator's outcome"
    );
}

#[test]
fn faulted_threaded_outcome_is_shard_count_independent() {
    // Under drops, duplicates and a crash/restart the *schedule* is
    // wall-clock racy and which transits fail varies with lane layout —
    // but exactly-once delivery makes the outcome invariant anyway.
    let one = threaded_outcome(7, 1, Some(lossy_plan(99)));
    let four = threaded_outcome(7, 4, Some(lossy_plan(99)));
    assert_eq!(one.checksum, expected_checksum(), "faults must be repaired");
    assert_eq!(one, four, "fault outcomes must be shard-count independent");
}

#[test]
fn fault_seed_defaults_to_runtime_seed() {
    // Omitting `FaultPlan::seed` derives the fault stream from the
    // runtime seed: still fully deterministic.
    let plan = || {
        FaultPlan::new()
            .drop_rate(0.2)
            .duplicate_rate(0.1)
            .rto(VirtualDuration::from_millis(4))
    };
    let (a, now_a, _) = ring(11, Some(plan()));
    let (b, now_b, _) = ring(11, Some(plan()));
    assert_eq!(a, b);
    assert_eq!(now_a, now_b);
}

// --- One trace: deliveries by Table 1 kind ---------------------------
//
// The causal trace is the only record of individual deliveries, so its
// `Deliver` events must agree with the runtime's Table 1 counts kind by
// kind. The program below makes every kind appear: two guessed
// assumptions, one affirmed (Affirm, then Replace to the guesser) and one
// denied (Deny, then Rollback), the AIDs carried in a user message.

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

/// Pid 0: affirms the first assumption it is sent and denies the second.
fn resolver(ctx: &mut ProcessCtx<'_>) {
    let aids = decode_aids(&ctx.receive(None).data);
    ctx.affirm(aids[0]);
    ctx.deny(aids[1]);
}

/// Pid 1: hands two assumptions to the resolver, then guesses both.
fn guesser(ctx: &mut ProcessCtx<'_>) {
    let (x, y) = (ctx.aid_init(), ctx.aid_init());
    ctx.send(ProcessId::from_raw(0), 0, encode_aids(&[x, y]));
    if ctx.guess(x) && ctx.guess(y) {
        ctx.compute(VirtualDuration::from_millis(1));
    }
}

/// Checks the traced `Deliver` kinds against `stats`, kind by kind and in
/// total, and that every Table 1 kind was delivered at least once.
fn assert_trace_matches_table_1(label: &str, events: &[TraceEvent], stats: &MessageStats) {
    let mut traced: BTreeMap<&str, u64> = BTreeMap::new();
    for e in events {
        if let TraceEventKind::Deliver { kind, .. } = e.kind {
            *traced.entry(kind).or_default() += 1;
        }
    }
    let counted: BTreeMap<&str, u64> = stats
        .iter()
        .map(|(kind, ..)| (kind, stats.count_kind(kind)))
        .collect();
    assert_eq!(traced, counted, "{label}: Deliver kinds vs Table 1 counts");
    assert_eq!(traced.values().sum::<u64>(), stats.total(), "{label}");
    for kind in ["Guess", "Affirm", "Deny", "Replace", "Rollback", "User"] {
        assert!(traced.contains_key(kind), "{label}: no {kind} delivered");
    }
}

#[test]
fn traced_deliveries_match_table_1_on_both_runtimes() {
    let mut env = HopeEnv::builder().seed(3).build();
    env.enable_tracing(1 << 16);
    env.spawn_user("resolver", resolver);
    env.spawn_user("guesser", guesser);
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert_trace_matches_table_1("simulator", &env.tracer().events(), &report.run.stats);

    for shards in [1, 4] {
        let env = ThreadedHopeEnv::builder().seed(3).shards(shards).build();
        env.enable_tracing(1 << 16);
        env.spawn_user("resolver", resolver);
        env.spawn_user("guesser", guesser);
        let report = env.run_until_quiescent(Duration::from_millis(25), Duration::from_secs(30));
        assert!(report.is_clean(), "{:?}", report.panics);
        let label = format!("threaded shards({shards})");
        assert_trace_matches_table_1(&label, &env.tracer().events(), &report.stats);
        assert_eq!(env.tracer().dropped(), 0);
    }
}

// --- One dispatch step: the same table on both runtimes ----------------
//
// Both runtimes route an arrived envelope through one step (DESIGN.md §10
// "One dispatch step"): user mail to the mailbox, a HOPE message to
// `Control` or dropped without one, a message to a stopped actor dropped,
// and a crashed process's `on_crash` sends nothing. Each case below runs
// on the simulator and on the threaded runtime at one and four shards, and
// the counts must agree.

/// What the dispatch-table program saw happen.
#[derive(Debug, Default)]
struct Seen {
    /// User mail a blocked receiver got.
    mail: AtomicU64,
    /// Parked bodies a `Control` wake resumed.
    resumed: AtomicU64,
    /// Messages an actor handled (it stops after the first).
    handled: AtomicU64,
    /// `on_crash` calls.
    crashes: AtomicU64,
    /// Messages a sink actor got.
    sunk: AtomicU64,
    /// The `now()` a body read after its compute step, in nanoseconds.
    resumed_at: AtomicU64,
}

/// A `Control` that wakes its process on any HOPE message, after raising
/// the flag the process parks on.
struct Waker(Arc<AtomicBool>);

impl ControlHandler for Waker {
    fn on_hope_message(&mut self, _: ProcessId, _: HopeMessage, api: &mut dyn ControlApi) {
        self.0.store(true, Ordering::Release);
        api.wake();
    }
}

/// An actor that handles one message and stops.
struct Once(Arc<Seen>);

impl Actor for Once {
    fn on_message(&mut self, _: Envelope, api: &mut dyn ActorApi) {
        self.0.handled.fetch_add(1, Ordering::Relaxed);
        api.stop();
    }
}

fn user(data: &'static [u8]) -> Payload {
    Payload::User(UserMessage::new(0, Bytes::from_static(data)))
}

/// The program, as one root process that spawns every case and then sends
/// to each: a blocked receiver, a body parked on its `Control`'s flag, a
/// process without `Control`, and an actor that stops after one message.
fn dispatch_table(seen: Arc<Seen>) -> impl FnOnce(&mut dyn SysApi) + Send + 'static {
    move |sys| {
        let got = seen.clone();
        let receiver = sys.spawn_threaded(
            "receiver",
            None,
            Box::new(move |sys| {
                if sys.receive(None, &mut || false).is_some() {
                    got.mail.fetch_add(1, Ordering::Relaxed);
                }
            }),
        );
        let flag = Arc::new(AtomicBool::new(false));
        let raised = flag.clone();
        let got = seen.clone();
        let parked = sys.spawn_threaded(
            "parked",
            Some(Box::new(Waker(flag))),
            Box::new(move |sys| {
                if sys.park(&mut || raised.load(Ordering::Acquire)) {
                    got.resumed.fetch_add(1, Ordering::Relaxed);
                }
            }),
        );
        let deaf = sys.spawn_threaded("deaf", None, Box::new(|_| {}));
        let once = sys.spawn_actor("once", Box::new(Once(seen)));
        sys.send(receiver, user(b"mail"));
        sys.send(parked, Payload::Hope(HopeMessage::Release));
        sys.send(deaf, Payload::Hope(HopeMessage::Release));
        sys.send(once, user(b"first"));
        sys.send(once, user(b"late"));
    }
}

/// The counts one run leaves: what the program saw, and the runtime's
/// drops and Table 1 counts.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    mail: u64,
    resumed: u64,
    handled: u64,
    crashes: u64,
    sunk: u64,
    resumed_at: u64,
    dropped: u64,
    abandoned: u64,
    table_1: BTreeMap<(String, String, String), u64>,
}

fn counts(seen: &Seen, stats: &MessageStats) -> Counts {
    Counts {
        mail: seen.mail.load(Ordering::Relaxed),
        resumed: seen.resumed.load(Ordering::Relaxed),
        handled: seen.handled.load(Ordering::Relaxed),
        crashes: seen.crashes.load(Ordering::Relaxed),
        sunk: seen.sunk.load(Ordering::Relaxed),
        resumed_at: seen.resumed_at.load(Ordering::Relaxed),
        dropped: stats.dropped(),
        abandoned: stats.link().abandoned,
        table_1: stats
            .iter()
            .map(|(k, f, t, c)| ((k.to_string(), format!("{f:?}"), format!("{t:?}")), c))
            .collect(),
    }
}

/// Runs `program` as one root process, with `faults` if given, on the
/// simulator and then on the threaded runtime at one and four shards.
fn on_every_runtime(
    faults: Option<FaultPlan>,
    program: impl Fn(Arc<Seen>) -> Box<dyn FnOnce(&mut dyn SysApi) + Send>,
) -> Vec<(String, Counts)> {
    let network = NetworkConfig::constant(VirtualDuration::from_micros(100));
    let mut runs = Vec::new();
    let seen = Arc::new(Seen::default());
    let mut builder = SimRuntime::builder().seed(5).network(network.clone());
    if let Some(plan) = faults.clone() {
        builder = builder.faults(plan);
    }
    let mut rt = builder.build();
    rt.spawn_threaded("root", None, program(seen.clone()));
    let report = rt.run();
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    runs.push(("simulator".to_string(), counts(&seen, &report.stats)));
    for shards in [1, 4] {
        let seen = Arc::new(Seen::default());
        let mut builder = ThreadedRuntime::builder()
            .seed(5)
            .network(network.clone())
            .shards(shards);
        if let Some(plan) = faults.clone() {
            builder = builder.faults(plan);
        }
        let rt = builder.build();
        rt.spawn_threaded("root", None, program(seen.clone()));
        let report = rt.run_until_quiescent(Duration::from_millis(25), Duration::from_secs(30));
        assert!(report.panics.is_empty(), "{:?}", report.panics);
        assert!(!report.hit_event_limit, "must reach quiescence");
        runs.push((
            format!("threaded shards({shards})"),
            counts(&seen, &report.stats),
        ));
    }
    runs
}

#[test]
fn dispatch_table_is_the_same_on_both_runtimes() {
    let runs = on_every_runtime(None, |seen| Box::new(dispatch_table(seen)));
    let (_, sim) = &runs[0];
    // Dropped: the HOPE message to `deaf` and the late one to `once`.
    let seen = (sim.mail, sim.resumed, sim.handled, sim.dropped);
    assert_eq!(seen, (1, 1, 1, 2), "mail, resumed, handled, dropped");
    for (label, run) in &runs[1..] {
        assert_eq!(run, sim, "{label} vs the simulator");
    }
}

/// A `Control` whose `on_crash` sends user mail to `sink`.
struct CrashSender {
    sink: ProcessId,
    seen: Arc<Seen>,
}

impl ControlHandler for CrashSender {
    fn on_hope_message(&mut self, _: ProcessId, _: HopeMessage, _: &mut dyn ControlApi) {}

    fn on_crash(&mut self, api: &mut dyn ControlApi) {
        self.seen.crashes.fetch_add(1, Ordering::Relaxed);
        api.send(self.sink, user(b"sent while down"));
    }
}

/// Counts every message it is sent, and never stops.
struct Sink(Arc<Seen>);

impl Actor for Sink {
    fn on_message(&mut self, _: Envelope, _: &mut dyn ActorApi) {
        self.0.sunk.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn a_crashed_process_sends_nothing_on_either_runtime() {
    // The root (pid 0) spawns a sink and pid 2, which crashes at 100 ms
    // (wall-clock on the threaded runtime: long after the spawns) for
    // 5 ms; its `on_crash` tries to mail the sink.
    let plan = FaultPlan::new().crash(
        ProcessId::from_raw(2),
        VirtualTime::from_nanos(100_000_000),
        VirtualDuration::from_millis(5),
    );
    let runs = on_every_runtime(Some(plan), |seen| {
        Box::new(move |sys: &mut dyn SysApi| {
            let sink = sys.spawn_actor("sink", Box::new(Sink(seen.clone())));
            let control = CrashSender { sink, seen };
            let doomed = sys.spawn_threaded("doomed", Some(Box::new(control)), Box::new(|_| {}));
            assert_eq!(doomed, ProcessId::from_raw(2));
        })
    });
    let (_, sim) = &runs[0];
    for (label, run) in &runs {
        assert_eq!(run.crashes, 1, "{label}: the crash must reach `on_crash`");
        assert_eq!(run.sunk, 0, "{label}: a crashed process sent mail");
        assert_eq!(run, sim, "{label} vs the simulator");
    }
}

#[test]
fn a_crashed_process_does_not_run_until_its_restart() {
    // The root (pid 0) computes for 100 ms and reads the clock; it is down
    // from 50 ms to 250 ms, so the end of its compute step waits for the
    // restart on every runtime.
    let plan = FaultPlan::new().crash(
        ProcessId::from_raw(0),
        VirtualTime::from_nanos(50_000_000),
        VirtualDuration::from_millis(200),
    );
    let runs = on_every_runtime(Some(plan), |seen| {
        Box::new(move |sys: &mut dyn SysApi| {
            sys.compute(VirtualDuration::from_millis(100));
            let now = sys.now().as_nanos();
            seen.resumed_at.store(now, Ordering::Relaxed);
        })
    });
    let restart = 250_000_000;
    let (_, sim) = &runs[0];
    assert_eq!(
        sim.resumed_at, restart,
        "the simulator resumes at the restart"
    );
    for (label, run) in &runs[1..] {
        assert!(
            run.resumed_at >= restart,
            "{label}: resumed at {} ns, inside the down window",
            run.resumed_at
        );
    }
}

#[test]
fn a_seq_given_up_leaves_no_gap_on_any_runtime() {
    // The sink (pid 1: shard 1 of 4, the root's is 0) is down from 0 to
    // 200 ms. The root's five messages meanwhile are resent twice and
    // given up (by 70 ms); the 40 it paces out after 300 ms must then
    // arrive in order, not past a gap no ack can cover, so the seqs given
    // up reach the receiver's half of the link wherever it lives. (With a
    // 2 ms rto a shard starved of CPU for a few milliseconds gives a
    // delivered message up too.)
    let sink = ProcessId::from_raw(1);
    let plan = FaultPlan::new()
        .rto(VirtualDuration::from_millis(10))
        .max_retransmits(2)
        .crash(sink, VirtualTime::ZERO, VirtualDuration::from_millis(200));
    let runs = on_every_runtime(Some(plan), |seen| {
        Box::new(move |sys: &mut dyn SysApi| {
            assert_eq!(sys.spawn_actor("sink", Box::new(Sink(seen))), sink);
            for _ in 0..5 {
                sys.send(sink, user(b"lost"));
            }
            sys.compute(VirtualDuration::from_millis(300));
            for _ in 0..40 {
                sys.send(sink, user(b"late"));
                sys.compute(VirtualDuration::from_millis(1));
            }
        })
    });
    let (_, sim) = &runs[0];
    for (label, run) in &runs {
        let outcome = (run.sunk, run.abandoned);
        assert_eq!(outcome, (40, 5), "{label}: delivered, abandoned");
        assert_eq!(run, sim, "{label} vs the simulator");
    }
}

/// Sends two messages to each actor in `to`: it handles the first and
/// stops, so the second is dropped.
fn mail_twice(sys: &mut dyn SysApi, to: &[ProcessId]) {
    for &actor in to {
        sys.send(actor, user(b"first"));
        sys.send(actor, user(b"late"));
    }
}

#[test]
fn an_actor_is_taken_over_by_its_own_shard() {
    // At four shards: `outside` (pid 0, shard 0) is spawned from the test
    // thread, `inside` (pid 2, shard 2) by the root body on shard 1. Each
    // shard takes its actor over at the actor's first delivery.
    let network = NetworkConfig::constant(VirtualDuration::from_micros(100));
    let program = |seen: Arc<Seen>, outside: ProcessId| {
        move |sys: &mut dyn SysApi| {
            let inside = sys.spawn_actor("inside", Box::new(Once(seen)));
            assert_eq!(
                (outside, inside),
                (ProcessId::from_raw(0), ProcessId::from_raw(2))
            );
            mail_twice(sys, &[outside, inside]);
        }
    };
    let seen = Arc::new(Seen::default());
    let mut rt = SimRuntime::builder()
        .seed(5)
        .network(network.clone())
        .build();
    let outside = rt.spawn_actor("outside", Box::new(Once(seen.clone())));
    rt.spawn_threaded("root", None, program(seen.clone(), outside));
    let report = rt.run();
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    let sim = counts(&seen, &report.stats);
    assert_eq!((sim.handled, sim.dropped), (2, 2), "handled, dropped");

    let seen = Arc::new(Seen::default());
    let rt = ThreadedRuntime::builder()
        .seed(5)
        .network(network)
        .shards(4)
        .build();
    let outside = rt.spawn_actor("outside", Box::new(Once(seen.clone())));
    rt.spawn_threaded("root", None, program(seen.clone(), outside));
    let report = rt.run_until_quiescent(Duration::from_millis(25), Duration::from_secs(30));
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(!report.hit_event_limit, "must reach quiescence");
    assert_eq!(
        counts(&seen, &report.stats),
        sim,
        "shards(4) vs the simulator"
    );
}
