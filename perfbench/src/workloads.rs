//! The five workloads. Each `run_unit` call builds a fresh environment,
//! runs one deterministic unit (fixed operation counts, inputs derived
//! from the seed), checks every output and returns what it measured.
//!
//! All five are closed loops: the consumer drains before the producer's
//! next round, the worker waits for its verdicts, the echo generator
//! blocks on the reply channel, the RPC client redeems each call.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use hope_core::{HopeEnv, MetricsSnapshot, ProcessCtx, ThreadedHopeEnv};
use hope_rpc::{RpcClient, RpcServer, StreamingClient};
use hope_runtime::{
    FaultPlan, MessageStats, NetConfig, NetTransport, NetworkConfig, NodeDirectory,
};
use hope_sim::chain::{expected_value, stage_fn};
use hope_types::net::NodeId;
use hope_types::{AidId, ProcessId, TraceCollector, TraceEventKind, VirtualDuration};

use crate::procfs;
use crate::spans::SpanLog;
use crate::sys;

/// The benchmark's workloads, in the order they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Untagged producer → consumer stream on the threaded runtime.
    StreamDefinite,
    /// The same stream at speculation depth 8, every assumption affirmed.
    StreamSpec,
    /// Worker/resolver rounds with one assumption in ten denied.
    ContendDeny,
    /// Two TCP transport nodes echoing over loopback.
    TcpEcho,
    /// A dependent RPC chain on the virtual-time simulator.
    SimChain,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 5] = [
        Workload::StreamDefinite,
        Workload::StreamSpec,
        Workload::ContendDeny,
        Workload::TcpEcho,
        Workload::SimChain,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamDefinite => "stream_definite",
            Workload::StreamSpec => "stream_spec",
            Workload::ContendDeny => "contend_deny",
            Workload::TcpEcho => "tcp_echo",
            Workload::SimChain => "sim_chain",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line, for the manifest).
    pub fn why(self) -> &'static str {
        match self {
            Workload::StreamDefinite => {
                "200k untagged 8-byte messages, credit flow control, no guesses, runtime defaults: \
                 threaded send, shard fabric and mailbox do all the work; primary latency = \
                 ctx.send"
            }
            Workload::StreamSpec => {
                "same stream at speculation depth 8 over the reliable sublayer, all affirmed: \
                 tags, implicit intervals and the delta codec dominate; primary latency = tagged \
                 ctx.send"
            }
            Workload::ContendDeny => {
                "60 worker/resolver rounds, 1 in 10 denied: rollback, replay and re-execution, \
                 the abort path; primary latency = deny to pessimistic branch"
            }
            Workload::TcpEcho => {
                "two NetTransport nodes on loopback, window 1 then 64: sockets, framing, reliable \
                 layer, no hope-core; primary latency = blocking round trip"
            }
            Workload::SimChain => {
                "128 dependent streamed RPCs, 1 in 10 mispredicted, on the virtual-time \
                 simulator: SimRuntime and hope-rpc; primary latency = call+redeem"
            }
        }
    }
}

/// Operation counts of one unit. `full()` is what the benchmark runs;
/// `smoke()` is a hundredth of it for `cargo test`.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Messages per `stream_definite` unit.
    pub definite_msgs: u64,
    /// Rounds per `stream_spec` unit (8 guesses over 500 messages each).
    pub spec_rounds: u64,
    /// Rounds per `contend_deny` unit (a multiple of 10).
    pub deny_rounds: u64,
    /// Window-1 echoes per `tcp_echo` unit.
    pub echo_serial: u64,
    /// Window-64 echoes per `tcp_echo` unit.
    pub echo_windowed: u64,
    /// Dependent calls per `sim_chain` unit (a multiple of 10, plus any).
    pub chain_depth: u32,
}

impl Sizing {
    /// The benchmark's unit sizes.
    pub fn full() -> Sizing {
        Sizing {
            definite_msgs: 200_000,
            spec_rounds: 8,
            deny_rounds: 60,
            echo_serial: 2_000,
            echo_windowed: 16_000,
            chain_depth: 128,
        }
    }

    /// A hundredth of [`Sizing::full`], rounded up to something that
    /// still exercises every code path (a deny, a misprediction, a full
    /// echo window).
    pub fn smoke() -> Sizing {
        Sizing {
            definite_msgs: 2_000,
            spec_rounds: 1,
            deny_rounds: 10,
            echo_serial: 40,
            echo_windowed: 240,
            chain_depth: 10,
        }
    }
}

/// Guesses per `stream_spec` round: the speculation depth.
pub const SPEC_DEPTH: u64 = 8;
/// Messages per `stream_spec` round.
pub const SPEC_ROUND_MSGS: u64 = 500;
/// Tagged progress sends per optimistic `contend_deny` round.
pub const DENY_CHUNKS: u64 = 8;
/// One round in this many is denied / one call in this many mispredicted.
pub const MISS_EVERY: u64 = 10;
/// In-flight echoes in the throughput phase of `tcp_echo`.
pub const ECHO_WINDOW: u64 = 64;
/// `ctx.send` is timed once in this many calls on `stream_definite`.
const SEND_SAMPLE_EVERY: u64 = 16;
/// Delivery shards of the threaded runtime. One: the benchmark runs on a
/// single CPU (see `main.rs`), where a second delivery thread is one more
/// thread to switch to and nothing else.
pub const SHARDS: usize = 1;

/// What one unit measured.
#[derive(Debug, Default, Clone)]
pub struct Unit {
    /// Operations attempted (all phases).
    pub attempted: u64,
    /// Operations whose output was wrong or never arrived.
    pub failed: u64,
    /// Operations completed inside the throughput window.
    pub ops: u64,
    /// Wall time of the throughput window.
    pub wall_ns: u64,
    /// CPU time of the whole process while the unit ran, building and
    /// tearing down its environment included.
    pub cpu_ns: u64,
    /// Set-up times: environment build → first timed operation (thread
    /// and shard spawn, link-up, handshake), one per environment built.
    pub setup_ns: Vec<u64>,
    /// Samples of the workload's primary latency.
    pub primary_ns: Vec<u64>,
    /// Other latency samples by name.
    pub samples: BTreeMap<&'static str, Vec<u64>>,
    /// Totals over the unit by name (counts, nanoseconds, bytes).
    pub totals: BTreeMap<&'static str, f64>,
    /// What went wrong, for the report (empty when nothing did).
    pub problems: Vec<String>,
}

impl Unit {
    fn total(&mut self, name: &'static str, value: f64) {
        *self.totals.entry(name).or_insert(0.0) += value;
    }

    fn fail_all(&mut self, why: String) {
        self.failed = self.attempted;
        self.problems.push(why);
    }
}

/// Runs one unit of `workload`. `log` records spans when enabled, and
/// then the HOPE environment's own `TraceCollector` is switched on too
/// (rollback spans) — which only the traced run does.
pub fn run_unit(workload: Workload, seed: u64, sizing: &Sizing, log: &Arc<SpanLog>) -> Unit {
    let cpu0 = sys::process_cpu_ns();
    let mut unit = match workload {
        Workload::StreamDefinite => stream(seed, StreamCfg::definite(sizing.definite_msgs), log),
        Workload::StreamSpec => stream(seed, StreamCfg::spec(sizing.spec_rounds), log),
        Workload::ContendDeny => contend_deny(seed, sizing.deny_rounds, log),
        Workload::TcpEcho => tcp_echo(seed, sizing.echo_serial, sizing.echo_windowed, log),
        Workload::SimChain => sim_chain(seed, sizing.chain_depth, log),
    };
    unit.cpu_ns = sys::process_cpu_ns().saturating_sub(cpu0);
    unit
}

/// One `stream_spec` unit with every op-log record synced to a durable
/// store — the numerator of `core.durable_overhead_ratio`.
pub fn run_durable_spec_unit(seed: u64, sizing: &Sizing) -> Unit {
    let cfg = StreamCfg {
        durable: true,
        ..StreamCfg::spec(sizing.spec_rounds)
    };
    stream(seed, cfg, &SpanLog::new(false))
}

/// splitmix64: every payload is a pure function of the seed and its
/// position in the stream, so closures replay identically.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xd134_2543_de82_ef95));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether position `i` is a miss (a denied round, a wrong prediction):
/// the middle one of every block of [`MISS_EVERY`]. The schedule is
/// fixed, not drawn from the seed: where a deny falls decides how much
/// is rolled back and replayed, and a seeded draw moved `contend_deny`'s
/// throughput by a factor of 2.7 between seeds (60 to 163 rounds/s).
/// The seed draws the payloads and the runtimes' own random streams.
pub fn is_miss(i: u64) -> bool {
    i % MISS_EVERY == MISS_EVERY / 2
}

fn u64_payload(v: u64) -> Bytes {
    Bytes::from(v.to_le_bytes().to_vec())
}

fn read_u64(data: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(data.get(..8)?.try_into().ok()?))
}

fn encode_aids(aids: &[AidId]) -> Bytes {
    let mut out = Vec::with_capacity(aids.len() * 8);
    for aid in aids {
        out.extend_from_slice(&aid.process().as_raw().to_le_bytes());
    }
    Bytes::from(out)
}

fn decode_aids(data: &[u8]) -> Vec<AidId> {
    data.chunks_exact(8)
        .filter_map(read_u64)
        .map(|raw| AidId::from_raw(ProcessId::from_raw(raw)))
        .collect()
}

/// Nanoseconds since `epoch`, never 0 (0 means "not stamped").
fn stamp(epoch: Instant) -> u64 {
    (epoch.elapsed().as_nanos() as u64).max(1)
}

/// Times `f`, pushing the wall nanoseconds onto `into`.
fn timed<R>(into: &mut Vec<u64>, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    into.push(t0.elapsed().as_nanos() as u64);
    out
}

/// Folds the HOPE and link counters of a finished environment into the
/// unit's totals.
fn fold_counters(unit: &mut Unit, hope: &MetricsSnapshot, stats: &MessageStats) {
    let link = stats.link();
    let wasted = hope.attribution.total();
    for (name, value) in [
        ("hope_msgs", stats.total_hope()),
        ("implicit_guesses", hope.implicit_guesses),
        ("rollbacks", hope.rollbacks),
        ("replayed_ops", hope.replayed_ops),
        ("wasted_ops", wasted.ops_discarded),
        ("intervals_finalized", hope.finalized_intervals),
        ("intervals_discarded", wasted.intervals_discarded),
        ("retransmits", link.retransmits),
        ("dedup_dropped", link.dedup_dropped),
        ("acks", link.acks),
        ("tag_bytes_wire", link.tag_bytes_wire),
        ("tags_full", link.tags_full),
        ("tags", link.tags_full + link.tags_delta),
    ] {
        unit.total(name, value as f64);
    }
}

/// `RollbackStart` → the `Reexecution` that follows it on the same
/// process, from the environment's own trace.
fn rollback_spans_ns(tracer: &TraceCollector) -> Vec<u64> {
    let mut open: BTreeMap<ProcessId, u64> = BTreeMap::new();
    let mut spans = Vec::new();
    for event in tracer.events() {
        match event.kind {
            TraceEventKind::RollbackStart { .. } => {
                open.entry(event.pid).or_insert(event.wall_ns);
            }
            TraceEventKind::Reexecution => {
                if let Some(start) = open.remove(&event.pid) {
                    spans.push(event.wall_ns.saturating_sub(start));
                }
            }
            _ => {}
        }
    }
    spans
}

/// Waits for a threaded environment to finish. The runtime reports
/// quiescence when nothing is in flight and every thread is idle for the
/// grace period, but a process can still be unfinished then and go on
/// a moment later (seen about once in 150 `contend_deny` units: progress
/// resumes when a timer fires). So quiescence with unfinished processes
/// is waited out, for at most 20 s in all, before it counts as a failure.
fn settle(env: &ThreadedHopeEnv) -> hope_runtime::RunReport {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        let report = env.run_until_quiescent(Duration::from_millis(5), left);
        if report.blocked.is_empty() || report.hit_event_limit {
            return report;
        }
    }
}

// ---------------------------------------------------------------------
// stream_definite / stream_spec
// ---------------------------------------------------------------------

const CH_DATA: u32 = 0;
const CH_AIDS: u32 = 1;
const CH_HELLO: u32 = 2;
const CH_READY: u32 = 3;
const CH_DONE: u32 = 4;
const CH_CREDIT: u32 = 5;
/// The consumer of `stream_definite` returns one credit per this many
/// messages…
const CREDIT_BATCH: u64 = 1024;
/// …and the producer runs at most this many batches ahead of it, so the
/// backlog (and with it memory and cache behaviour) is bounded the way a
/// flow-controlled stream's is, not set by how far the scheduler happens
/// to let the producer race ahead.
const CREDIT_WINDOW: u64 = 4;

/// What the stream's two closures report back.
#[derive(Default)]
struct StreamShared {
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    delivered_ok: AtomicU64,
    producer_cpu_ns: AtomicU64,
    consumer_cpu_ns: AtomicU64,
    ctx_switches: AtomicU64,
    send_ns: Mutex<Vec<u64>>,
    guess_ns: Mutex<Vec<u64>>,
    affirm_ns: Mutex<Vec<u64>>,
}

/// Shape of one stream unit.
#[derive(Clone, Copy)]
struct StreamCfg {
    rounds: u64,
    per_round: u64,
    /// Guesses spread over each round; 0 = no speculation.
    depth: u64,
    /// Reliable sublayer (and with it the delta tag codec) in the path.
    reliable: bool,
    /// Every op-log record synced to a durable store.
    durable: bool,
}

impl StreamCfg {
    /// `stream_definite`: the runtime's defaults, nothing speculative.
    fn definite(msgs: u64) -> StreamCfg {
        StreamCfg {
            rounds: 1,
            per_round: msgs,
            depth: 0,
            reliable: false,
            durable: false,
        }
    }

    /// `stream_spec`: tagged messages through the reliable sublayer.
    fn spec(rounds: u64) -> StreamCfg {
        StreamCfg {
            rounds,
            per_round: SPEC_ROUND_MSGS,
            depth: SPEC_DEPTH,
            reliable: true,
            durable: false,
        }
    }
}

/// Producer → consumer stream: `rounds` × `per_round` 8-byte messages
/// with `depth` guesses spread over each round (0 = no speculation). The
/// consumer checks content and order of every message, affirms the
/// round's assumptions, and the producer waits to be definite again
/// before the next round, which keeps the speculation depth at `depth`.
fn stream(seed: u64, cfg: StreamCfg, log: &Arc<SpanLog>) -> Unit {
    let StreamCfg {
        rounds,
        per_round,
        depth,
        ..
    } = cfg;
    let total = rounds * per_round;
    let mut unit = Unit {
        attempted: total,
        ..Unit::default()
    };
    let epoch = Instant::now();
    let switches0 = procfs::ctx_switches_live();
    let mut builder = ThreadedHopeEnv::builder()
        .seed(seed)
        .network(NetworkConfig::local())
        .shards(SHARDS);
    if cfg.reliable {
        // A fault plan with every rate at zero: nothing is dropped, but
        // the reliable sublayer (sequence numbers, acks, retransmit
        // buffer, the delta tag codec) is in the path, as it is wherever
        // a message can be lost.
        builder = builder.faults(FaultPlan::new());
    }
    if cfg.durable {
        builder = builder.durable(hope_core::DurableConfig {
            sync_policy: hope_core::SyncPolicy::EveryRecord,
            ..Default::default()
        });
    }
    let env = builder.build();
    let shared = Arc::new(StreamShared::default());

    let (sh, lane) = (shared.clone(), log.lane("consumer"));
    let consumer = env.spawn_user("consumer", move |ctx| {
        let producer = ctx.receive(Some(CH_HELLO)).src;
        ctx.send(producer, CH_READY, Bytes::new());
        let cpu0 = procfs::thread_cpu_ns();
        let mut affirm_ns = Vec::new();
        let (mut next, mut ok) = (0u64, 0u64);
        for _ in 0..rounds {
            let aids = if depth > 0 {
                decode_aids(&ctx.receive(Some(CH_AIDS)).data)
            } else {
                Vec::new()
            };
            for _ in 0..per_round {
                let delivery = {
                    let _s = lane.enter("ctx.receive", next);
                    ctx.receive(Some(CH_DATA))
                };
                ok += u64::from(read_u64(&delivery.data) == Some(mix(seed, next)));
                next += 1;
                if depth == 0 && next % CREDIT_BATCH == 0 {
                    ctx.send(producer, CH_CREDIT, Bytes::new());
                }
            }
            for aid in aids {
                let _s = lane.enter("ctx.affirm", next);
                timed(&mut affirm_ns, || ctx.affirm(aid));
            }
        }
        sh.end_ns.store(stamp(epoch), Ordering::Release);
        sh.delivered_ok.store(ok, Ordering::Release);
        sh.consumer_cpu_ns
            .store(procfs::thread_cpu_ns() - cpu0, Ordering::Release);
        // The producer is still alive (it waits for CH_DONE), so every
        // thread of the unit is counted.
        sh.ctx_switches
            .store(procfs::ctx_switches_live(), Ordering::Release);
        *sh.affirm_ns.lock().expect("samples") = affirm_ns;
        ctx.send(producer, CH_DONE, Bytes::new());
    });

    let (sh, lane) = (shared.clone(), log.lane("producer"));
    env.spawn_user("producer", move |ctx| {
        ctx.send(consumer, CH_HELLO, Bytes::new());
        let _ = ctx.receive(Some(CH_READY));
        sh.start_ns.store(stamp(epoch), Ordering::Release);
        let cpu0 = procfs::thread_cpu_ns();
        let (mut send_ns, mut guess_ns) = (Vec::new(), Vec::new());
        let sample_every = if depth > 0 { 1 } else { SEND_SAMPLE_EVERY };
        let stride = per_round.checked_div(depth).unwrap_or(0).max(1);
        let (mut i, mut credits) = (0u64, 0u64);
        for _ in 0..rounds {
            let aids: Vec<AidId> = (0..depth).map(|_| ctx.aid_init()).collect();
            if depth > 0 {
                ctx.send(consumer, CH_AIDS, encode_aids(&aids));
            }
            for k in 0..per_round {
                if k % stride == 0 {
                    if let Some(&aid) = aids.get((k / stride) as usize) {
                        let _s = lane.enter("ctx.guess", i);
                        let _ = timed(&mut guess_ns, || ctx.guess(aid));
                    }
                }
                let payload = u64_payload(mix(seed, i));
                let _s = lane.enter("ctx.send", i);
                if i % sample_every == 0 {
                    timed(&mut send_ns, || ctx.send(consumer, CH_DATA, payload));
                } else {
                    ctx.send(consumer, CH_DATA, payload);
                }
                i += 1;
                // Flow control for the unspeculative stream: at most
                // CREDIT_WINDOW batches ahead of the consumer.
                while depth == 0 && i / CREDIT_BATCH >= credits + CREDIT_WINDOW {
                    let _ = ctx.receive(Some(CH_CREDIT));
                    credits += 1;
                }
            }
            if depth > 0 {
                let _s = lane.enter("ctx.await_definite", i);
                ctx.await_definite();
            }
        }
        let _ = ctx.receive(Some(CH_DONE));
        sh.producer_cpu_ns
            .store(procfs::thread_cpu_ns() - cpu0, Ordering::Release);
        *sh.send_ns.lock().expect("samples") = send_ns;
        *sh.guess_ns.lock().expect("samples") = guess_ns;
    });

    let report = settle(&env);
    let (start, end) = (
        shared.start_ns.load(Ordering::Acquire),
        shared.end_ns.load(Ordering::Acquire),
    );
    unit.setup_ns.push(start);
    unit.wall_ns = end.saturating_sub(start);
    unit.ops = total;
    unit.failed = total - shared.delivered_ok.load(Ordering::Acquire).min(total);
    if report.hit_event_limit || !report.panics.is_empty() || !report.blocked.is_empty() {
        unit.fail_all(format!(
            "stream did not finish cleanly: timeout={} panics={:?} blocked={:?}",
            report.hit_event_limit, report.panics, report.blocked
        ));
    }
    unit.primary_ns = std::mem::take(&mut *shared.send_ns.lock().expect("samples"));
    unit.samples.insert(
        "guess_ns",
        std::mem::take(&mut *shared.guess_ns.lock().expect("samples")),
    );
    unit.samples.insert(
        "affirm_ns",
        std::mem::take(&mut *shared.affirm_ns.lock().expect("samples")),
    );
    fold_counters(&mut unit, &env.metrics(), &report.stats);
    let producer_cpu = shared.producer_cpu_ns.load(Ordering::Acquire) as f64;
    let consumer_cpu = shared.consumer_cpu_ns.load(Ordering::Acquire) as f64;
    unit.total("producer_cpu_ns", producer_cpu);
    unit.total("consumer_cpu_ns", consumer_cpu);
    unit.total("user_cpu_ns", producer_cpu + consumer_cpu);
    unit.total(
        "ctx_switches",
        shared
            .ctx_switches
            .load(Ordering::Acquire)
            .saturating_sub(switches0) as f64,
    );
    unit
}

// ---------------------------------------------------------------------
// contend_deny
// ---------------------------------------------------------------------

const CH_REQUEST: u32 = 0;
const CH_PROGRESS: u32 = 1;
const CH_FINISHED: u32 = 2;

/// The `hope_sim::contention` worker/resolver protocol on the threaded
/// runtime, without the simulated compute: one worker, one resolver,
/// `rounds` rounds. Each round the worker creates an assumption, asks
/// the resolver for a verdict, guesses it and streams [`DENY_CHUNKS`]
/// tagged progress messages; the resolver settles its own speculation,
/// then affirms — or, for one round in ten, denies.
fn contend_deny(seed: u64, rounds: u64, log: &Arc<SpanLog>) -> Unit {
    let mut unit = Unit {
        attempted: rounds,
        ..Unit::default()
    };
    let epoch = Instant::now();
    let switches0 = procfs::ctx_switches_live();
    let env = ThreadedHopeEnv::builder()
        .seed(seed)
        .network(NetworkConfig::local())
        .shards(SHARDS)
        .faults(FaultPlan::new())
        .build();
    if log.enabled() {
        env.enable_tracing(hope_types::trace::DEFAULT_TRACE_CAPACITY);
    }
    // Per round: when the resolver called `deny` (0 = not denied yet).
    let denied_at: Arc<Vec<AtomicU64>> = Arc::new((0..rounds).map(|_| AtomicU64::new(0)).collect());
    let start_ns = Arc::new(AtomicU64::new(0));
    let end_ns = Arc::new(AtomicU64::new(0));
    let user_cpu_ns = Arc::new(AtomicU64::new(0));
    // The branch each round finally committed on (true = optimistic).
    let committed: Arc<Mutex<Vec<bool>>> = Arc::default();
    let recover_ns: Arc<Mutex<Vec<u64>>> = Arc::default();
    let guess_ns: Arc<Mutex<Vec<u64>>> = Arc::default();

    let (stamps, lane, cpu) = (denied_at.clone(), log.lane("resolver"), user_cpu_ns.clone());
    let resolver = env.spawn_user("resolver", move |ctx| {
        let cpu0 = procfs::thread_cpu_ns();
        loop {
            let m = {
                let _s = lane.enter("ctx.receive", 0);
                ctx.receive(None)
            };
            match m.channel {
                CH_REQUEST => {
                    let round = read_u64(&m.data).unwrap_or(u64::MAX);
                    let aid = decode_aids(&m.data[8..])[0];
                    {
                        let _s = lane.enter("ctx.await_definite", round);
                        ctx.await_definite();
                    }
                    if is_miss(round) {
                        if !ctx.is_replaying() {
                            stamps[round as usize].store(stamp(epoch), Ordering::Release);
                        }
                        let _s = lane.enter("ctx.deny", round);
                        ctx.deny(aid);
                    } else {
                        let _s = lane.enter("ctx.affirm", round);
                        ctx.affirm(aid);
                    }
                }
                CH_PROGRESS => {}
                _ => break,
            }
        }
        cpu.fetch_add(procfs::thread_cpu_ns() - cpu0, Ordering::AcqRel);
    });

    let (stamps, lane, cpu) = (denied_at, log.lane("worker"), user_cpu_ns.clone());
    let (start, end) = (start_ns.clone(), end_ns.clone());
    let (commits, recovers, guesses) = (committed.clone(), recover_ns.clone(), guess_ns.clone());
    env.spawn_user("worker", move |ctx| {
        // A rollback re-runs this closure from the top, replaying the
        // logged prefix: everything measured below is guarded so that
        // only live execution is sampled, and `branches` is rebuilt on
        // every pass so the last pass holds the committed history.
        let cpu0 = procfs::thread_cpu_ns();
        if !ctx.is_replaying() {
            start.store(stamp(epoch), Ordering::Release);
        }
        let mut branches = Vec::with_capacity(rounds as usize);
        for round in 0..rounds {
            let aid = ctx.aid_init();
            let mut request = round.to_le_bytes().to_vec();
            request.extend_from_slice(&encode_aids(&[aid]));
            ctx.send(resolver, CH_REQUEST, Bytes::from(request));
            let live = !ctx.is_replaying();
            let t0 = Instant::now();
            let optimistic = {
                let _s = lane.enter("ctx.guess", round);
                ctx.guess(aid)
            };
            if live && optimistic {
                guesses
                    .lock()
                    .expect("samples")
                    .push(t0.elapsed().as_nanos() as u64);
            }
            if optimistic {
                for chunk in 0..DENY_CHUNKS {
                    let _s = lane.enter("ctx.send", round);
                    ctx.send(
                        resolver,
                        CH_PROGRESS,
                        u64_payload(mix(seed, round * DENY_CHUNKS + chunk)),
                    );
                }
            } else if !ctx.is_replaying() {
                // Live in the pessimistic branch for the first time.
                let denied = stamps[round as usize].swap(0, Ordering::AcqRel);
                if denied != 0 {
                    recovers
                        .lock()
                        .expect("samples")
                        .push(stamp(epoch).saturating_sub(denied));
                }
            }
            branches.push(optimistic);
        }
        {
            let _s = lane.enter("ctx.await_definite", rounds);
            ctx.await_definite();
        }
        end.store(stamp(epoch), Ordering::Release);
        *commits.lock().expect("commits") = branches;
        cpu.fetch_add(procfs::thread_cpu_ns() - cpu0, Ordering::AcqRel);
        ctx.send(resolver, CH_FINISHED, Bytes::new());
    });

    let report = settle(&env);
    unit.total(
        "ctx_switches",
        procfs::ctx_switches_live().saturating_sub(switches0) as f64,
    );
    let start = start_ns.load(Ordering::Acquire);
    unit.setup_ns.push(start);
    unit.wall_ns = end_ns.load(Ordering::Acquire).saturating_sub(start);
    unit.ops = rounds;
    let branches = std::mem::take(&mut *committed.lock().expect("commits"));
    let right = branches
        .iter()
        .enumerate()
        .filter(|&(round, &optimistic)| optimistic != is_miss(round as u64))
        .count() as u64;
    unit.failed = rounds - right.min(rounds);
    if report.hit_event_limit || !report.panics.is_empty() || !report.blocked.is_empty() {
        unit.fail_all(format!(
            "contention did not finish cleanly: timeout={} panics={:?} blocked={:?}",
            report.hit_event_limit, report.panics, report.blocked
        ));
    }
    unit.primary_ns = std::mem::take(&mut *recover_ns.lock().expect("samples"));
    unit.samples.insert(
        "guess_ns",
        std::mem::take(&mut *guess_ns.lock().expect("samples")),
    );
    if log.enabled() {
        unit.samples
            .insert("rollback_span_ns", rollback_spans_ns(&env.tracer()));
    }
    fold_counters(&mut unit, &env.metrics(), &report.stats);
    unit.total("user_cpu_ns", user_cpu_ns.load(Ordering::Acquire) as f64);
    unit
}

// ---------------------------------------------------------------------
// tcp_echo
// ---------------------------------------------------------------------

/// Echo payload: sequence number, then a seeded word the reply must
/// carry back unchanged.
fn echo_payload(seed: u64, seq: u64) -> Bytes {
    let mut out = seq.to_le_bytes().to_vec();
    out.extend_from_slice(&mix(seed, seq).to_le_bytes());
    Bytes::from(out)
}

/// Two `NetTransport` nodes with default `NetConfig` in one process over
/// 127.0.0.1 — loopback, not a real link. Node 1 echoes every message
/// back from its sink; node 0's sink feeds `replies`.
struct EchoPair {
    n1: NodeId,
    t0: NetTransport,
    t1: Arc<NetTransport>,
    replies: mpsc::Receiver<Bytes>,
}

impl EchoPair {
    /// Binds both nodes on ephemeral ports; the echo sink records its
    /// spans on a lane of `log`.
    fn start(log: &SpanLog) -> std::io::Result<EchoPair> {
        let (n0, n1) = (NodeId::from_raw(0), NodeId::from_raw(1));
        let l0 = TcpListener::bind("127.0.0.1:0")?;
        let l1 = TcpListener::bind("127.0.0.1:0")?;
        let dir = NodeDirectory::new()
            .with_node(n0, l0.local_addr()?)
            .with_node(n1, l1.local_addr()?);
        let (reply_tx, replies) = mpsc::channel::<Bytes>();
        let t0 = NetTransport::bind_on(NetConfig::new(n0, dir.clone()), l0, move |_, bytes| {
            let _ = reply_tx.send(bytes);
        })?;
        // The sink needs the transport it belongs to; a weak handle, so
        // that dropping the pair still shuts node 1 down.
        let echo_node: Arc<OnceLock<Weak<NetTransport>>> = Arc::default();
        let (echo, lane) = (echo_node.clone(), log.lane("node1.sink"));
        let t1 = Arc::new(NetTransport::bind_on(
            NetConfig::new(n1, dir),
            l1,
            move |from, bytes| {
                let op = read_u64(&bytes).unwrap_or(0);
                let _s = lane.enter("net.sink", op);
                if let Some(node) = echo.get().and_then(Weak::upgrade) {
                    let _s = lane.enter("net.send", op);
                    let _ = node.send(from, bytes);
                }
            },
        )?);
        let _ = echo_node.set(Arc::downgrade(&t1));
        Ok(EchoPair {
            n1,
            t0,
            t1,
            replies,
        })
    }

    /// Polls until both directions are connected (at most 10 s each).
    fn wait_linked(&self) -> bool {
        let limit = Duration::from_secs(10);
        self.t0.wait_link_up(self.n1, limit) && self.t1.wait_link_up(self.t0.node(), limit)
    }

    fn send(&self, seed: u64, seq: u64) -> bool {
        self.t0.send(self.n1, echo_payload(seed, seq)).is_ok()
    }

    /// Blocks for the next reply; true when it is echo `seq`, intact.
    fn reply_is(&self, seed: u64, seq: u64, limit: Duration) -> bool {
        matches!(self.replies.recv_timeout(limit), Ok(bytes) if bytes == echo_payload(seed, seq))
    }
}

/// `tcp_echo`: one generator thread (the caller) blocks on the reply
/// channel of an [`EchoPair`]. Phase A keeps one echo in flight
/// (latency), phase B [`ECHO_WINDOW`] (throughput); every reply is
/// checked for exactly-once, in-order delivery and content.
fn tcp_echo(seed: u64, serial: u64, windowed: u64, log: &Arc<SpanLog>) -> Unit {
    let mut unit = Unit {
        attempted: serial + windowed,
        ..Unit::default()
    };
    let epoch = Instant::now();
    let switches0 = procfs::ctx_switches_live();
    let pair = match EchoPair::start(log) {
        Ok(pair) => pair,
        Err(e) => {
            unit.fail_all(format!("cannot start the loopback transports: {e}"));
            return unit;
        }
    };
    if !pair.wait_linked() {
        unit.fail_all("loopback links did not come up within 10 s".into());
        return unit;
    }

    let lane = log.lane("generator");
    let mut send_ns = Vec::new();
    let (mut next_send, mut next_reply, mut ok) = (0u64, 0u64, 0u64);
    let send_one = |seq: u64, send_ns: &mut Vec<u64>| {
        let _s = lane.enter("net.send", seq);
        timed(send_ns, || pair.send(seed, seq))
    };
    let await_reply = |seq: u64| {
        let _s = lane.enter("reply.wait", seq);
        pair.reply_is(seed, seq, Duration::from_secs(10))
    };

    // Phase A: one echo in flight.
    unit.setup_ns.push(stamp(epoch));
    let mut rtt_ns = Vec::with_capacity(serial as usize);
    'serial: for _ in 0..serial {
        let t = Instant::now();
        if !send_one(next_send, &mut send_ns) || !await_reply(next_reply) {
            unit.problems
                .push(format!("echo {next_reply} lost or out of order"));
            break 'serial;
        }
        rtt_ns.push(t.elapsed().as_nanos() as u64);
        ok += 1;
        next_send += 1;
        next_reply += 1;
    }

    // Phase B: a window of echoes in flight.
    let phase_b = Instant::now();
    let end = serial + windowed;
    let mut windowed_ok = 0u64;
    if ok == serial {
        'windowed: while next_reply < end {
            while next_send < end && next_send - next_reply < ECHO_WINDOW {
                if !send_one(next_send, &mut send_ns) {
                    break 'windowed;
                }
                next_send += 1;
            }
            if !await_reply(next_reply) {
                unit.problems
                    .push(format!("echo {next_reply} lost or out of order"));
                break 'windowed;
            }
            windowed_ok += 1;
            next_reply += 1;
        }
    }
    unit.wall_ns = phase_b.elapsed().as_nanos() as u64;
    unit.ops = windowed_ok;
    unit.failed = unit.attempted - (ok + windowed_ok);
    unit.total(
        "ctx_switches",
        procfs::ctx_switches_live().saturating_sub(switches0) as f64,
    );
    let _ = pair.t0.wait_drained(Duration::from_secs(5));
    let (s0, s1) = (pair.t0.stats(), pair.t1.stats());
    unit.total("retransmits", (s0.retransmits + s1.retransmits) as f64);
    unit.total(
        "dedup_dropped",
        (s0.dedup_dropped + s1.dedup_dropped) as f64,
    );
    unit.total("acks", (s0.acks + s1.acks) as f64);
    unit.primary_ns = rtt_ns;
    unit.samples.insert("tcp_send_ns", send_ns);
    unit
}

/// `kill_connection` → the next echo's reply, in nanoseconds: one
/// reconnect (supervisor notices, backs off, redials, handshakes,
/// retransmits) on a pair of default-configured loopback nodes. `None`
/// when the echo is lost or arrives out of order.
pub fn tcp_reconnect_ns(seed: u64, cycles: u64) -> Option<Vec<u64>> {
    let pair = EchoPair::start(&SpanLog::new(false)).ok()?;
    let mut out = Vec::new();
    for cycle in 0..cycles {
        if !pair.wait_linked() {
            return None;
        }
        // One echo on the healthy link first, so the cut hits a
        // connection that carries traffic.
        for (seq, cut) in [(2 * cycle, false), (2 * cycle + 1, true)] {
            let t = Instant::now();
            if cut && !pair.t0.kill_connection(pair.n1) {
                return None;
            }
            if !(pair.send(seed, seq) && pair.reply_is(seed, seq, Duration::from_secs(20))) {
                return None;
            }
            if cut {
                out.push(t.elapsed().as_nanos() as u64);
            }
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------
// sim_chain
// ---------------------------------------------------------------------

/// `hope_sim::chain` with the benchmark's spans around the RPC calls:
/// `depth` dependent streamed calls on the virtual-time `HopeEnv`, one
/// prediction in ten wrong, then the same chain through the
/// sequential `RpcClient` for the virtual-time ratio. The final value is
/// checked against `expected_value(depth)`.
fn sim_chain(seed: u64, depth: u32, log: &Arc<SpanLog>) -> Unit {
    let mut unit = Unit {
        attempted: u64::from(depth),
        ..Unit::default()
    };
    let epoch = Instant::now();
    let latency = VirtualDuration::from_millis(10);
    let service = VirtualDuration::from_micros(100);
    let local_work = VirtualDuration::from_micros(20);
    let build = |trace: bool| {
        let mut env = HopeEnv::builder()
            .seed(seed)
            .network(NetworkConfig::constant(latency))
            .build();
        if trace {
            env.enable_tracing(hope_types::trace::DEFAULT_TRACE_CAPACITY);
        }
        let server = env.spawn_user("stage", move |ctx| {
            RpcServer::serve(ctx, move |ctx, _method, body| {
                ctx.compute(service);
                u64_payload(stage_fn(read_u64(body).unwrap_or(0)))
            });
        });
        (env, server)
    };

    // (final value, virtual client time) of a finished chain.
    type Outcome = Arc<Mutex<(u64, u64)>>;
    let finish = |ctx: &mut ProcessCtx<'_>, out: &Outcome, value: u64| {
        if !ctx.is_replaying() {
            *out.lock().expect("outcome") = (value, ctx.now().as_nanos());
        }
    };

    // Streamed.
    let (mut env, server) = build(log.enabled());
    let streamed: Outcome = Arc::default();
    let call_ns: Arc<Mutex<Vec<u64>>> = Arc::default();
    let redeem_ns: Arc<Mutex<Vec<u64>>> = Arc::default();
    let pair_ns: Arc<Mutex<Vec<u64>>> = Arc::default();
    let hits = Arc::new(AtomicU64::new(0));
    let (out, lane) = (streamed.clone(), log.lane("client"));
    let (calls, redeems, pairs, hit) = (
        call_ns.clone(),
        redeem_ns.clone(),
        pair_ns.clone(),
        hits.clone(),
    );
    env.spawn_user("client", move |ctx| {
        let mut value = 1u64;
        for i in 0..u64::from(depth) {
            ctx.compute(local_work);
            let correct = stage_fn(value);
            let predicted = if is_miss(i) { !correct } else { correct };
            let live = !ctx.is_replaying();
            let t0 = Instant::now();
            let promise = {
                let _s = lane.enter("rpc.call", i);
                StreamingClient::call(ctx, server, 0, u64_payload(value), u64_payload(predicted))
            };
            let t1 = Instant::now();
            let (reply, was_predicted) = {
                let _s = lane.enter("rpc.redeem", i);
                promise.redeem(ctx)
            };
            if live && was_predicted {
                // Only the optimistic pass is sampled: the pessimistic
                // redeem after a rollback blocks on the true reply.
                let t2 = Instant::now();
                calls
                    .lock()
                    .expect("samples")
                    .push((t1 - t0).as_nanos() as u64);
                redeems
                    .lock()
                    .expect("samples")
                    .push((t2 - t1).as_nanos() as u64);
                pairs
                    .lock()
                    .expect("samples")
                    .push((t2 - t0).as_nanos() as u64);
            }
            if live && was_predicted && !is_miss(i) {
                hit.fetch_add(1, Ordering::Relaxed);
            }
            value = read_u64(&reply).unwrap_or(0);
        }
        finish(ctx, &out, value);
    });
    unit.setup_ns.push(stamp(epoch));
    let run_lane = log.lane("main");
    let t_run = Instant::now();
    let report = {
        let _s = run_lane.enter("env.run", 0);
        env.run()
    };
    unit.wall_ns = t_run.elapsed().as_nanos() as u64;
    unit.ops = u64::from(depth);
    let (value, streamed_virt_ns) = *streamed.lock().expect("outcome");
    if !report.is_clean() || value != expected_value(depth) {
        unit.fail_all(format!(
            "streamed chain: clean={} value={value:#x} expected={:#x} panics={:?}",
            report.is_clean(),
            expected_value(depth),
            report.run.panics
        ));
    }
    unit.primary_ns = std::mem::take(&mut *pair_ns.lock().expect("samples"));
    unit.samples.insert(
        "rpc_call_ns",
        std::mem::take(&mut *call_ns.lock().expect("samples")),
    );
    unit.samples.insert(
        "rpc_redeem_ns",
        std::mem::take(&mut *redeem_ns.lock().expect("samples")),
    );
    if log.enabled() {
        unit.samples
            .insert("rollback_span_ns", rollback_spans_ns(&env.tracer()));
    }
    fold_counters(&mut unit, &report.hope, &report.run.stats);
    // Optimistic redeems over every pass, and those whose prediction held.
    unit.total("rpc_redeems", unit.primary_ns.len() as f64);
    unit.total("rpc_hits", hits.load(Ordering::Relaxed) as f64);
    unit.total("sim_events", report.run.events as f64);

    // Sequential, outside the timed window: the baseline of virt_speedup
    // (and a second set-up sample).
    let epoch = Instant::now();
    let (mut env, server) = build(false);
    let sequential: Outcome = Arc::default();
    let out = sequential.clone();
    env.spawn_user("client", move |ctx| {
        let mut value = 1u64;
        for _ in 0..depth {
            ctx.compute(local_work);
            let reply = RpcClient::call(ctx, server, 0, u64_payload(value));
            value = read_u64(&reply).unwrap_or(0);
        }
        finish(ctx, &out, value);
    });
    unit.setup_ns.push(stamp(epoch));
    let report = env.run();
    let (value, sequential_virt_ns) = *sequential.lock().expect("outcome");
    if !report.is_clean() || value != expected_value(depth) {
        unit.fail_all(format!("sequential chain: value={value:#x}"));
    }
    unit.total("virt_sequential_ns", sequential_virt_ns as f64);
    unit.total("virt_streamed_ns", streamed_virt_ns as f64);
    unit
}
