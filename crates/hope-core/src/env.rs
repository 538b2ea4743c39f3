//! The HOPE environment: wires user processes, their HOPElibs and AID
//! processes onto a runtime (the overall structure of the paper's
//! Figure 3). There is one front end, [`Env<R>`](Env) built by
//! [`EnvBuilder<R>`](EnvBuilder): what does not touch the runtime lives in
//! one shared `impl<R>` block, and each runtime — the virtual-time
//! [`SimRuntime`] and the wall-clock [`ThreadedRuntime`] — adds its own
//! knobs, `build`, `spawn_user` and run methods in a block of its own.

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use hope_runtime::{
    ControlHandler, FaultPlan, NetworkConfig, RunReport, SimRuntime, SysApi, ThreadedRuntime,
};
use hope_types::{
    BlameKey, ProcessId, SpecPolicy, SpecSnapshot, TraceCollector, TraceEventKind, VirtualTime,
    WastedWork,
};

use crate::config::{DenyPolicy, GuessRollbackPolicy, HopeConfig, RetractPolicy};
use crate::ctx::{ProcessCtx, RollbackSignal, ShutdownSignal};
use crate::durable::{DurableConfig, DurableSnapshot, StoreRegistry};
use crate::hopelib::{LibControl, LibState};
use crate::interval::IntervalOrigin;
use crate::metrics::{HopeMetrics, MetricsSnapshot};
use crate::replay::{Op, ReplayLog};

/// A HOPE user-process body: called with a fresh context on first execution
/// and on every rollback-driven re-execution (hence `Fn`, not `FnOnce`).
pub type UserBody = Box<dyn Fn(&mut ProcessCtx<'_>) + Send>;

/// One user process's HOPElib state, shared by its `Control` handler, its
/// thread body and the environment's observers.
type SharedLib = Arc<Mutex<LibState>>;

/// The pieces a runtime needs to host one HOPE user process.
pub(crate) type UserProcessParts = (
    SharedLib,
    Box<dyn ControlHandler>,
    hope_runtime::ProcessBody,
);

/// Builds the control handler and thread body for one HOPE user process.
/// Used by the environment's `spawn_user` and by
/// [`ProcessCtx::spawn_user`](crate::ProcessCtx::spawn_user).
pub(crate) fn make_user_process(
    config: HopeConfig,
    metrics: Arc<HopeMetrics>,
    registry: Option<Arc<StoreRegistry>>,
    body: UserBody,
) -> UserProcessParts {
    let lib = Arc::new(Mutex::new(LibState::new(config, metrics.clone())));
    let control = Box::new(LibControl::new(lib.clone()));
    let runner_lib = lib.clone();
    let runner = Box::new(move |sys: &mut dyn SysApi| {
        run_user_body(sys, &runner_lib, metrics, registry, body);
    });
    (lib, control, runner)
}

enum LingerOutcome {
    /// Every interval finalized: the process may terminate.
    Definite,
    /// A rollback arrived after the body finished.
    Rollback,
    /// The runtime is shutting down.
    Shutdown,
}

/// Silences the default panic printout for the internal unwind signals
/// (they are caught and handled; printing them would flood stderr on every
/// rollback). Installed once per process, chaining to the previous hook
/// for genuine panics.
fn install_silent_signal_hook() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<RollbackSignal>().is_some()
                || info.payload().downcast_ref::<ShutdownSignal>().is_some()
            {
                return;
            }
            prev(info);
        }));
    });
}

/// The process main loop: run the body, handle rollback unwinds by
/// re-executing, and linger after completion until every interval is
/// definite (a finished-but-speculative process can still be rolled back).
fn run_user_body(
    sys: &mut dyn SysApi,
    lib: &SharedLib,
    metrics: Arc<HopeMetrics>,
    registry: Option<Arc<StoreRegistry>>,
    body: UserBody,
) {
    install_silent_signal_hook();
    lib.lock().bind(sys.pid());
    let mut log = ReplayLog::new(sys.pid());
    if let Some(registry) = registry {
        // Open (or re-open) this process's durable store and mirror every
        // op-log mutation into it (DESIGN.md S6).
        let store = registry.open(sys.pid());
        lib.lock().attach_store(store.clone(), registry);
        log.set_sink(Box::new(store));
    }
    loop {
        let outcome = {
            let mut ctx = ProcessCtx::new(sys, lib, &mut log, metrics.clone());
            catch_unwind(AssertUnwindSafe(|| body(&mut ctx)))
        };
        match outcome {
            Ok(()) => match linger(sys, lib) {
                LingerOutcome::Definite | LingerOutcome::Shutdown => return,
                LingerOutcome::Rollback => perform_rollback(sys, lib, &mut log, &metrics),
            },
            Err(payload) => {
                if payload.is::<RollbackSignal>() {
                    perform_rollback(sys, lib, &mut log, &metrics);
                } else if payload.is::<ShutdownSignal>() {
                    return;
                } else {
                    // A genuine user panic: let the runtime report it.
                    resume_unwind(payload);
                }
            }
        }
    }
}

/// After the body returns, wait until every interval is definite (or a
/// rollback arrives, or the runtime stops).
fn linger(sys: &mut dyn SysApi, lib: &SharedLib) -> LingerOutcome {
    loop {
        {
            let state = lib.lock();
            if state.pending_rollback.is_some() {
                return LingerOutcome::Rollback;
            }
            if state.history.fully_definite() {
                return LingerOutcome::Definite;
            }
        }
        let lib2 = Arc::clone(lib);
        let mut interrupt = move || {
            let state = lib2.lock();
            state.pending_rollback.is_some() || state.history.fully_definite()
        };
        // Park WITHOUT consuming messages: queued user messages may be
        // needed by a rollback re-execution (e.g. a WorryWart's forwarded
        // true reply).
        if !sys.park(&mut interrupt) {
            return LingerOutcome::Shutdown;
        }
    }
}

/// Applies a pending rollback: truncate the history, retract speculative
/// affirms per policy and rewind the operation log; the caller then
/// re-executes the body. A stale rollback (nothing pending, or nothing
/// live at its floor) only rewinds: the log replays to its end,
/// reproducing the current state.
fn perform_rollback(
    sys: &mut dyn SysApi,
    lib: &SharedLib,
    log: &mut ReplayLog,
    metrics: &Arc<HopeMetrics>,
) {
    // Post-crash recovery: rebuild the op log from the durable store
    // before unwinding. The in-memory log conveniently survived the crash
    // in these runtimes; a real process image would not, so when storage
    // is configured the store's recovered prefix is authoritative (S6).
    let store = lib.lock().store().cloned();
    if let Some(store) = &store {
        if let Some(ops) = store.take_recovery() {
            log.reset_ops(ops);
        }
    }
    let (discarded, cause, crash_recovery, guess_policy) = {
        let mut state = lib.lock();
        let Some(pending) = state.pending_rollback.take() else {
            log.rewind();
            return;
        };
        let target = state
            .history
            .live()
            .iter()
            .find(|r| r.id.index() >= pending.floor && !r.definite)
            .map(|r| r.id);
        let Some(target) = target else {
            log.rewind();
            return;
        };
        let retract = state.config().retract_policy;
        let guess_policy = state.config().guess_rollback;
        // `target` was just selected from the live non-definite intervals,
        // so truncation cannot legitimately fail: a typed refusal here is
        // a protocol bug, not a stale message.
        let discarded = match state.history.truncate_from(target) {
            Ok(discarded) => discarded,
            Err(err) => {
                debug_assert!(false, "rollback target {target} must be truncatable: {err}");
                Vec::new()
            }
        };
        if retract == RetractPolicy::Deny {
            for rec in &discarded {
                for &aid in rec.iha.iter() {
                    sys.send(
                        aid.process(),
                        hope_types::Payload::Hope(hope_types::HopeMessage::Deny { iid: None }),
                    );
                }
            }
        }
        (discarded, pending.cause, pending.crash, guess_policy)
    };
    if discarded.is_empty() {
        log.rewind();
        return;
    }
    metrics
        .rollbacks
        .fetch_add(discarded.len() as u64, Ordering::Relaxed);
    metrics.reexecutions.fetch_add(1, Ordering::Relaxed);
    // Causal attribution: charge this rollback's wasted work to the deny
    // that started the cascade (the AID carried as the Rollback's cause),
    // or to this process's own crash when recovery — not a deny — doomed
    // the intervals. Only this live path charges; a replayed execution
    // never reaches here, so crash recovery cannot double-count.
    let blame = match cause {
        Some(aid) => BlameKey::Aid(aid),
        None => BlameKey::Crash(sys.pid()),
    };
    // Did the rollback's cause die on *this* interval's own assumption
    // (its trigger set)? If so the boundary primitive resolves as false /
    // tainted; otherwise — under the Reguess policy — the boundary
    // primitive is re-issued live, because its own assumption still holds.
    let boundary = &discarded[0];
    let own_assumption_died = match cause {
        Some(c) => boundary.trigger.contains(&c),
        // Unknown cause: take the paper's Figure 11 reading.
        None => true,
    };
    let paper_semantics = guess_policy == GuessRollbackPolicy::ReturnFalse;
    // After a store recovery the log may be shorter than the history
    // remembers (permissive sync policies can lose an unsynced suffix).
    // A boundary op that did not survive has nothing to truncate: the
    // whole recovered prefix replays and the boundary primitive runs
    // live again.
    let boundary_survived = |op: usize, want_guess: bool| match log.ops().get(op) {
        Some(Op::Guess { .. }) => want_guess,
        Some(Op::Receive { .. }) | Some(Op::TryReceive { .. }) => !want_guess,
        _ => false,
    };
    let removed = match boundary.origin {
        IntervalOrigin::ExplicitGuess { op } if !boundary_survived(op, true) => {
            log.rewind();
            Vec::new()
        }
        IntervalOrigin::ImplicitReceive { op } if !boundary_survived(op, false) => {
            log.rewind();
            Vec::new()
        }
        // A crash dooms speculative intervals without failing any
        // assumption: re-issue the boundary primitive live. The guess
        // must not resolve false (the AID may well be affirmed), and the
        // boundary message must be restored rather than discarded — its
        // sender never rolled back, so nobody would re-send it.
        IntervalOrigin::ExplicitGuess { op } | IntervalOrigin::ImplicitReceive { op }
            if crash_recovery =>
        {
            log.rollback_before(op)
        }
        IntervalOrigin::ExplicitGuess { op } => {
            if own_assumption_died || paper_semantics {
                log.rollback_to_guess(op)
            } else {
                // The cause reached this interval through a *replaced*
                // dependency, not its own assumption: re-issue the guess —
                // drop the Guess op so re-execution performs it live
                // (fresh interval, eager true again).
                log.rollback_before(op)
            }
        }
        // The boundary message is always discarded: the rollback reached
        // this interval through the message's dependency chain (directly
        // through its tag, or through a Replace of a tag member), so the
        // message's *sender* has rolled back and will re-send whatever is
        // still warranted. Re-receiving the old copy would duplicate it.
        IntervalOrigin::ImplicitReceive { op } => log.rollback_to_receive(op),
        IntervalOrigin::Root => unreachable!("the root interval is definite"),
    };
    let wasted = WastedWork {
        intervals_discarded: discarded.len() as u64,
        ops_discarded: removed.len() as u64,
        messages_invalidated: removed
            .iter()
            .filter(|op| matches!(op, Op::Send { .. }))
            .count() as u64,
        reexecutions: 1,
    };
    metrics.charge_rollback(blame, wasted);
    // Adaptive speculation control: a caused rollback on this live path is
    // the one place a deny provably reached this process (replays and
    // crash recoveries never get here with a cause), so feed the deny-rate
    // EWMA exactly once per cascade. Crash-caused rollbacks carry no
    // cause and charge nothing — a crash is not evidence against the
    // assumption.
    {
        let mut state = lib.lock();
        state.spec_waiting = false;
        if !crash_recovery {
            if let Some(cause_aid) = cause {
                let now = sys.now();
                state.observe_resolution(cause_aid, true, now);
            }
        }
    }
    if metrics.tracer.is_enabled() {
        let pid = sys.pid();
        let now = sys.now();
        metrics.tracer.record(
            pid,
            now,
            TraceEventKind::RollbackStart {
                floor: boundary.id,
                cause,
                crash: crash_recovery,
                discarded: wasted.intervals_discarded,
                ops_discarded: wasted.ops_discarded,
                messages_invalidated: wasted.messages_invalidated,
            },
        );
        metrics.tracer.record(pid, now, TraceEventKind::Reexecution);
    }
    // Restore messages consumed inside the discarded region to the mailbox
    // in their original order (a process-image restore would restore the
    // input queue). Tainted survivors are dropped when re-received:
    // `handle_rollback` latched the cause before this thread unwound, so
    // `receive`'s known-denied gate sees them (DESIGN.md S8). One whose
    // tag names only *other* assumptions is received as usual.
    let requeue: Vec<hope_runtime::Received> = removed
        .into_iter()
        .filter_map(|op| match op {
            crate::replay::Op::Receive { src, msg } => Some(hope_runtime::Received { src, msg }),
            crate::replay::Op::TryReceive {
                result: Some((src, msg)),
            } => Some(hope_runtime::Received { src, msg }),
            _ => None,
        })
        .collect();
    if !requeue.is_empty() {
        sys.requeue_front(requeue);
    }
}

/// Builds an [`Env`] on runtime `R`. One impl block holds everything the
/// two runtimes share; [`HopeEnvBuilder`] and [`ThreadedHopeEnvBuilder`]
/// each add the knobs of their own runtime and `build`.
///
/// # Examples
///
/// ```
/// use hope_core::{HopeEnv, RetractPolicy};
/// use hope_runtime::NetworkConfig;
///
/// let env = HopeEnv::builder()
///     .seed(7)
///     .network(NetworkConfig::wan())
///     .retract_policy(RetractPolicy::Keep)
///     .build();
/// # let _ = env;
/// ```
pub struct EnvBuilder<R> {
    seed: u64,
    network: NetworkConfig,
    config: HopeConfig,
    faults: Option<FaultPlan>,
    durable: Option<DurableConfig>,
    reliable: bool,
    /// [`SimRuntime`] only; unset = the runtime builder's own default.
    max_events: Option<u64>,
    /// [`ThreadedRuntime`] only; unset = the runtime builder's own default.
    shards: Option<usize>,
    runtime: PhantomData<fn() -> R>,
}

/// Builds a [`HopeEnv`] (the virtual-time simulator).
pub type HopeEnvBuilder = EnvBuilder<SimRuntime>;
/// Builds a [`ThreadedHopeEnv`] (shard threads, wall-clock time).
pub type ThreadedHopeEnvBuilder = EnvBuilder<ThreadedRuntime>;

impl<R> EnvBuilder<R> {
    fn new(network: NetworkConfig) -> Self {
        EnvBuilder {
            seed: 0,
            network,
            config: HopeConfig::new(),
            faults: None,
            durable: None,
            reliable: false,
            max_events: None,
            shards: None,
            runtime: PhantomData,
        }
    }

    /// Seed for all deterministic randomness (per-process RNGs, latency
    /// jitter, fault decisions).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Network latency configuration. The simulator defaults to
    /// [`NetworkConfig::default`]; the threaded runtime, where latency
    /// elapses in wall time, to [`NetworkConfig::local`].
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Full algorithm configuration.
    pub fn config(mut self, config: HopeConfig) -> Self {
        self.config = config;
        self
    }

    /// Rollback treatment of speculative affirms.
    pub fn retract_policy(mut self, policy: RetractPolicy) -> Self {
        self.config.retract_policy = policy;
        self
    }

    /// Delivery timing of speculative denies.
    pub fn deny_policy(mut self, policy: DenyPolicy) -> Self {
        self.config.deny_policy = policy;
        self
    }

    /// Toggle Algorithm 2's cycle detection (off = paper's Algorithm 1).
    pub fn cycle_detection(mut self, enabled: bool) -> Self {
        self.config.cycle_detection = enabled;
        self
    }

    /// Speculation-control policy (DESIGN.md §9). Defaults to
    /// [`SpecPolicy::AlwaysOptimistic`], the paper's unconditional guess.
    ///
    /// # Panics
    ///
    /// Panics with the [`HopeError::InvalidSpecPolicy`](hope_types::HopeError)
    /// rendering when `policy` fails validation (mirrors the `FaultPlan`
    /// precedent of rejecting bad configuration at build time).
    pub fn spec_policy(mut self, policy: SpecPolicy) -> Self {
        if let Err(e) = policy.validate() {
            panic!("{e}");
        }
        self.config.spec_policy = policy;
        self
    }

    /// Forces the reliable-delivery sublayer on even with a lossless wire
    /// (implied by [`EnvBuilder::faults`]). Benchmarks use this to
    /// account per-link sequencing, acks and dependency-tag wire coding
    /// without also paying for injected faults.
    pub fn reliable(mut self, on: bool) -> Self {
        self.reliable = on;
        self
    }

    /// Injects runtime faults (drops, duplicates, crash/restarts) per
    /// `plan`; enables the reliable-delivery sublayer and HOPElib crash
    /// recovery via operation-log replay. On the threaded runtime crash
    /// times are wall-clock offsets from startup.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Gives every user process a durable op-log store (segmented WAL +
    /// checkpoints, DESIGN.md S6): crash recovery replays from storage
    /// instead of the surviving in-memory log, exercising the recovery
    /// path against the storage faults configured in
    /// [`FaultPlan::storage`](hope_runtime::FaultPlan::storage).
    pub fn durable(mut self, config: DurableConfig) -> Self {
        self.durable = Some(config);
        self
    }

    /// The runtime-independent part of `build`: validates the policy,
    /// creates the shared metrics and the store registry, and wraps the
    /// runtime that `start` builds from this builder and the tracer every
    /// layer records into.
    fn build_on(self, start: impl FnOnce(Self, Arc<TraceCollector>) -> R) -> Env<R> {
        let config = self.config;
        if let Err(e) = config.spec_policy.validate() {
            panic!("{e}");
        }
        let metrics = Arc::new(HopeMetrics::new());
        let storage = self
            .faults
            .as_ref()
            .and_then(|plan| plan.storage_plan().copied());
        let registry = self
            .durable
            .map(|durable| Arc::new(StoreRegistry::new(durable, storage, self.seed)));
        Env {
            rt: start(self, metrics.tracer.clone()),
            config,
            metrics,
            libs: Mutex::new(Vec::new()),
            registry,
        }
    }
}

impl EnvBuilder<SimRuntime> {
    /// Event-count safety valve.
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Builds the environment.
    ///
    /// # Panics
    ///
    /// Panics when the configured [`SpecPolicy`] is invalid (it can reach
    /// the builder unvalidated through [`EnvBuilder::config`]).
    pub fn build(self) -> HopeEnv {
        self.build_on(|b, tracer| {
            let mut rt = SimRuntime::builder()
                .seed(b.seed)
                .network(b.network)
                .tracer(tracer)
                .reliable(b.reliable);
            if let Some(n) = b.max_events {
                rt = rt.max_events(n);
            }
            if let Some(plan) = b.faults {
                rt = rt.faults(plan);
            }
            rt.build()
        })
    }
}

impl EnvBuilder<ThreadedRuntime> {
    /// Number of delivery shards for the underlying runtime (DESIGN.md
    /// §10). Defaults to the machine's available parallelism; outcomes
    /// are shard-count independent.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n);
        self
    }

    /// Builds and starts the environment.
    ///
    /// # Panics
    ///
    /// Panics when the configured [`SpecPolicy`] is invalid (it can reach
    /// the builder unvalidated through [`EnvBuilder::config`]).
    pub fn build(self) -> ThreadedHopeEnv {
        self.build_on(|b, tracer| {
            let mut rt = ThreadedRuntime::builder()
                .seed(b.seed)
                .network(b.network)
                .tracer(tracer)
                .reliable(b.reliable);
            if let Some(n) = b.shards {
                rt = rt.shards(n);
            }
            if let Some(plan) = b.faults {
                rt = rt.faults(plan);
            }
            rt.build()
        })
    }
}

/// A complete HOPE environment on runtime `R`: the runtime plus the shared
/// algorithm configuration, metrics and the HOPElibs of its top-level user
/// processes. One impl block holds everything that does not drive the
/// runtime; [`HopeEnv`] and [`ThreadedHopeEnv`] add spawning and running.
/// See the crate docs for an example.
pub struct Env<R> {
    rt: R,
    config: HopeConfig,
    metrics: Arc<HopeMetrics>,
    libs: Mutex<Vec<(ProcessId, String, SharedLib)>>,
    registry: Option<Arc<StoreRegistry>>,
}

/// The environment on the deterministic virtual-time simulator.
pub type HopeEnv = Env<SimRuntime>;
/// The environment on the wall-clock threaded runtime: same programming
/// model, but each user process runs on the shard thread that owns it,
/// taking turns with its `Control` there, and starts as soon as it is
/// spawned; processes on different shards run in parallel, `compute` is
/// a wall-clock timer and network latency elapses in wall time. Within a
/// shard there is no preemption: a body that blocks outside the
/// [`ProcessCtx`] primitives (a `std` sleep or channel, a spin) stalls
/// its shard-mates. Validates that the algorithm — wait-freedom included
/// — does not depend on virtual time or on one thread.
pub type ThreadedHopeEnv = Env<ThreadedRuntime>;

/// Outcome of [`HopeEnv::run`].
#[derive(Debug, Clone)]
pub struct HopeReport {
    /// The runtime-level report (virtual time, messages, panics, blocked).
    pub run: RunReport,
    /// HOPE algorithm counters.
    pub hope: MetricsSnapshot,
}

impl HopeReport {
    /// True when the run finished without panics or event-limit stops.
    pub fn is_clean(&self) -> bool {
        self.run.is_clean()
    }
}

impl<R> Env<R> {
    /// Builds the pieces of a user process running `body`; the caller
    /// spawns them on its runtime and [`track`](Env::track)s the result.
    fn make_user(&self, body: UserBody) -> UserProcessParts {
        make_user_process(
            self.config,
            self.metrics.clone(),
            self.registry.clone(),
            body,
        )
    }

    fn track(&self, pid: ProcessId, name: &str, lib: SharedLib) -> ProcessId {
        self.libs.lock().push((pid, name.to_string(), lib));
        pid
    }

    /// The HOPElib of a top-level user process (spawned via `spawn_user`
    /// on the environment; children spawned by
    /// [`ProcessCtx::spawn_user`] are not tracked).
    fn lib_of(&self, pid: ProcessId) -> Option<SharedLib> {
        let libs = self.libs.lock();
        let (_, _, lib) = libs.iter().find(|(p, _, _)| *p == pid)?;
        Some(lib.clone())
    }

    /// Pids of the top-level user processes (spawned via `spawn_user` on
    /// the environment; children spawned by
    /// [`ProcessCtx::spawn_user`](crate::ProcessCtx::spawn_user) are not
    /// tracked — here or by any `*_of` observer below).
    pub fn user_pids(&self) -> Vec<ProcessId> {
        self.libs.lock().iter().map(|(p, _, _)| *p).collect()
    }

    /// A snapshot of a tracked process's interval history.
    pub fn history_of(&self, pid: ProcessId) -> Option<Vec<crate::interval::IntervalRecord>> {
        self.lib_of(pid)
            .map(|lib| lib.lock().history.intervals().to_vec())
    }

    /// Tracked processes (pid, name) that still hold speculative intervals.
    pub fn speculative_processes(&self) -> Vec<(ProcessId, String)> {
        self.libs
            .lock()
            .iter()
            .filter(|(_, _, lib)| !lib.lock().history.fully_definite())
            .map(|(p, n, _)| (*p, n.clone()))
            .collect()
    }

    /// A snapshot of a tracked process's speculation-control state (EWMAs,
    /// flips, cancellations).
    pub fn spec_of(&self, pid: ProcessId) -> Option<SpecSnapshot> {
        self.lib_of(pid).map(|lib| lib.lock().spec_snapshot())
    }

    /// The not-yet-executed rollback of a tracked process. Outer `None`
    /// means the pid is not a tracked user process.
    pub fn pending_rollback_of(
        &self,
        pid: ProcessId,
    ) -> Option<Option<crate::hopelib::PendingRollback>> {
        self.lib_of(pid).map(|lib| lib.lock().pending_rollback)
    }

    /// Aggregate durable-store counters, when the environment was built
    /// with [`durable`](EnvBuilder::durable) storage.
    pub fn store_stats(&self) -> Option<DurableSnapshot> {
        self.registry.as_ref().map(|r| r.snapshot())
    }

    /// Turns on causal trace collection with a ring of `capacity` events
    /// (drop-oldest once full). Tracing is off by default and costs a
    /// single relaxed atomic load per hook while disabled.
    pub fn enable_tracing(&self, capacity: usize) {
        self.metrics.tracer.enable(capacity);
    }

    /// The shared trace collector (runtime and library layers both emit
    /// into it).
    pub fn tracer(&self) -> Arc<TraceCollector> {
        self.metrics.tracer.clone()
    }

    /// HOPE metrics so far.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut hope = self.metrics.snapshot();
        hope.history_visits = self
            .libs
            .lock()
            .iter()
            .map(|(_, _, lib)| lib.lock().history.visits())
            .sum();
        hope
    }

    /// The live metrics behind [`metrics`](Env::metrics) snapshots.
    /// For observers that must read counters after the environment itself
    /// has been moved (e.g. the model checker's replay trace dump).
    pub fn hope_metrics(&self) -> Arc<HopeMetrics> {
        self.metrics.clone()
    }

    /// The algorithm configuration.
    pub fn config(&self) -> HopeConfig {
        self.config
    }

    /// Read-only access to the underlying runtime.
    pub fn runtime(&self) -> &R {
        &self.rt
    }
}

impl Env<SimRuntime> {
    /// Starts configuring an environment.
    pub fn builder() -> HopeEnvBuilder {
        EnvBuilder::new(NetworkConfig::default())
    }

    /// Default environment (LAN latency, Algorithm 2, seed 0).
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Spawns a HOPE user process. `body` may be re-executed after
    /// rollbacks; see [`ProcessCtx`] for the determinism contract.
    pub fn spawn_user<F>(&mut self, name: &str, body: F) -> ProcessId
    where
        F: Fn(&mut ProcessCtx<'_>) + Send + 'static,
    {
        let (lib, control, runner) = self.make_user(Box::new(body));
        let pid = self.rt.spawn_threaded(name, Some(control), runner);
        self.track(pid, name, lib)
    }

    /// Runs to quiescence and reports.
    pub fn run(&mut self) -> HopeReport {
        let run = self.rt.run();
        HopeReport {
            run,
            hope: self.metrics(),
        }
    }

    /// Runs until `deadline` (later events stay queued).
    pub fn run_until(&mut self, deadline: VirtualTime) -> HopeReport {
        let run = self.rt.run_until(deadline);
        HopeReport {
            run,
            hope: self.metrics(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.rt.now()
    }

    /// Snapshots every live AID state machine (garbage-collected AIDs are
    /// absent). Checker oracles use this to see Hot/True/False states.
    pub fn aid_machines(&self) -> Vec<(hope_types::AidId, crate::aid::AidMachine)> {
        self.rt
            .actor_pids()
            .into_iter()
            .filter_map(|pid| {
                let any = self.rt.actor_ref(pid)?.as_any()?;
                let actor = any.downcast_ref::<crate::aid::AidActor>()?;
                Some((hope_types::AidId::from_raw(pid), actor.machine().clone()))
            })
            .collect()
    }

    /// Deterministic fingerprint of the environment's protocol-visible
    /// state: the runtime's [`state_hash`](SimRuntime::state_hash) (process
    /// states and in-flight events) combined with every tracked HOPElib's
    /// interval history and pending rollback. Virtual time and statistics
    /// are excluded, so commuting schedules that reach the same state hash
    /// equal.
    pub fn state_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.rt.state_hash().hash(&mut h);
        for (pid, _, lib) in self.libs.lock().iter() {
            pid.as_raw().hash(&mut h);
            let state = lib.lock();
            state.history.intervals().hash(&mut h);
            state.pending_rollback.hash(&mut h);
        }
        h.finish()
    }

    /// Direct access to the underlying runtime (workload generators use
    /// this for non-HOPE helper processes and message statistics).
    pub fn runtime_mut(&mut self) -> &mut SimRuntime {
        &mut self.rt
    }
}

impl Default for Env<SimRuntime> {
    fn default() -> Self {
        HopeEnv::new()
    }
}

impl Env<ThreadedRuntime> {
    /// Starts configuring an environment.
    pub fn builder() -> ThreadedHopeEnvBuilder {
        EnvBuilder::new(NetworkConfig::local())
    }

    /// Spawns a HOPE user process (it begins running immediately).
    pub fn spawn_user<F>(&self, name: &str, body: F) -> ProcessId
    where
        F: Fn(&mut ProcessCtx<'_>) + Send + 'static,
    {
        let (lib, control, runner) = self.make_user(Box::new(body));
        let pid = self.rt.spawn_threaded(name, Some(control), runner);
        self.track(pid, name, lib)
    }

    /// Waits until the system has been quiescent for `grace` (or
    /// `timeout` elapses) and returns the runtime's report; the HOPE
    /// counters are [`Env::metrics`]. `hit_event_limit` in the report
    /// means the timeout fired first.
    pub fn run_until_quiescent(&self, grace: Duration, timeout: Duration) -> RunReport {
        self.rt.run_until_quiescent(grace, timeout)
    }
}
