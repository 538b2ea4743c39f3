//! The HOPE environment: wires user processes, their HOPElibs and AID
//! processes onto a runtime (the overall structure of the paper's
//! Figure 3). There is one front end, [`Env<R>`](Env) built by
//! [`EnvBuilder<R>`](EnvBuilder): what does not touch the runtime lives in
//! one shared `impl<R>` block, and each runtime — the virtual-time
//! [`SimRuntime`] and the wall-clock [`ThreadedRuntime`] — adds its own
//! knobs, `build`, `spawn_user` and run methods in a block of its own.

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hope_runtime::{
    ControlHandler, FaultPlan, Inspect, NetworkConfig, ProcessBody, RunReport, RuntimeBuilder,
    SimRuntime, StorageFaultPlan, SysApi, ThreadedRuntime,
};
use hope_types::{
    BlameKey, ProcessId, SpecPolicy, SpecSnapshot, TraceCollector, TraceEventKind, VirtualTime,
    WastedWork,
};

use crate::config::{DenyPolicy, GuessRollbackPolicy, HopeConfig, RetractPolicy};
use crate::ctx::{park_until, Parked, ProcessCtx, RollbackSignal, ShutdownSignal};
use crate::durable::{DurableConfig, DurableSnapshot, DurableStore};
use crate::hopelib::{LibControl, LibState};
use crate::interval::IntervalOrigin;
use crate::metrics::{HopeMetrics, MetricsSnapshot};
use crate::replay::{Op, OpList};

/// A HOPE user-process body: called with a fresh context on first execution
/// and on every rollback-driven re-execution (hence `Fn`, not `FnOnce`).
pub type UserBody = Box<dyn Fn(&mut ProcessCtx<'_>) + Send>;

/// What every user process of one environment is made with, and the list
/// of their HOPElibs that the observers ask.
pub(crate) struct Shared {
    config: HopeConfig,
    /// The tracer and the AID actors' counts.
    pub(crate) metrics: Arc<HopeMetrics>,
    /// Every user process's durable store is made with this, when the
    /// environment has storage, and with the seeded storage-fault plan and
    /// the seed below.
    durable: Option<DurableConfig>,
    storage: Option<StorageFaultPlan>,
    seed: u64,
    /// The pid of every HOPElib, children included, in the order of their
    /// first turns: [`Env::metrics`] and [`Env::store_stats`] ask each.
    libs: Mutex<Vec<ProcessId>>,
}

impl Shared {
    fn libs(&self) -> Vec<ProcessId> {
        self.libs.lock().expect(HELD_BRIEFLY).clone()
    }
}

/// Why the HOPElib list's lock is never poisoned.
const HELD_BRIEFLY: &str = "the HOPElib list is locked only for a push or a copy";

/// The runner of one HOPE user process: on its first turn, on the thread
/// that owns the pid, it lists the process's HOPElib, makes its
/// [`LibState`] (with its op log's durable store, when the environment has
/// storage), attaches the `Control` that shares it, and runs `body`. Used
/// by the environment's `spawn_user` and by
/// [`ProcessCtx::spawn_user`](crate::ProcessCtx::spawn_user).
pub(crate) fn user_runner(shared: Arc<Shared>, body: UserBody) -> ProcessBody {
    Box::new(move |sys: &mut dyn SysApi| {
        let pid = sys.pid();
        shared.libs.lock().expect(HELD_BRIEFLY).push(pid);
        let mut lib = LibState::new(pid, shared.config, shared.metrics.clone());
        if let Some(config) = shared.durable {
            // Every op-log mutation is written to this store (DESIGN.md
            // S6); it survives the process's crashes with its HOPElib.
            let store = DurableStore::new(pid, config, shared.storage.as_ref(), shared.seed);
            lib.log.store = Some(Box::new(store));
        }
        let lib = Rc::new(RefCell::new(lib));
        sys.attach_control(Box::new(LibControl { lib: lib.clone() }));
        run_user_body(sys, &lib, &shared, body);
        // Nothing re-executes the body now, but its `LibState` stays with
        // the attached `Control` for observers: free the ops' chunks (the
        // store keeps its WAL and counters).
        lib.borrow_mut().log.reset_ops(OpList::new());
    })
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
    lib: &RefCell<LibState>,
    shared: &Arc<Shared>,
    body: UserBody,
) {
    install_silent_signal_hook();
    let tracer = &shared.metrics.tracer;
    loop {
        let outcome = {
            let mut ctx = ProcessCtx {
                sys: &mut *sys,
                lib,
                shared,
            };
            catch_unwind(AssertUnwindSafe(|| body(&mut ctx)))
        };
        match outcome {
            Ok(()) => match park_until(sys, lib, |state| state.history.fully_definite()) {
                Parked::Ready | Parked::Shutdown => return,
                Parked::Rollback => perform_rollback(sys, lib, tracer),
            },
            Err(payload) => {
                if payload.is::<RollbackSignal>() {
                    perform_rollback(sys, lib, tracer);
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

/// Applies a pending rollback: truncate the history, retract speculative
/// affirms per policy and rewind the operation log; the caller then
/// re-executes the body. A stale rollback (nothing pending, or nothing
/// live at its floor) only rewinds: the log replays to its end,
/// reproducing the current state. The process counts the rollback into
/// its own attribution table.
fn perform_rollback(sys: &mut dyn SysApi, lib: &RefCell<LibState>, tracer: &TraceCollector) {
    let (config, discarded, cause, crash_recovery) = {
        let mut state = lib.borrow_mut();
        // Post-crash recovery: rebuild the op log from the durable store
        // before unwinding. The in-memory log conveniently survived the
        // crash in these runtimes; a real process image would not, so when
        // storage is configured the store's recovered prefix is
        // authoritative (S6).
        state.log.recover();
        let Some(pending) = state.pending_rollback.take() else {
            state.log.rewind();
            return;
        };
        let target = state
            .history
            .live()
            .iter()
            .find(|r| r.id.index() >= pending.floor && !r.definite)
            .map(|r| r.id);
        let Some(target) = target else {
            state.log.rewind();
            return;
        };
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
        (state.config(), discarded, pending.cause, pending.crash)
    };
    if config.retract_policy == RetractPolicy::Deny {
        for rec in &discarded {
            for &aid in rec.iha.iter() {
                sys.send(
                    aid.process(),
                    hope_types::Payload::Hope(hope_types::HopeMessage::Deny { iid: None }),
                );
            }
        }
    }
    if discarded.is_empty() {
        lib.borrow_mut().log.rewind();
        return;
    }
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
    let paper_semantics = config.guess_rollback == GuessRollbackPolicy::ReturnFalse;
    // After a store recovery the log may be shorter than the history
    // remembers (permissive sync policies can lose an unsynced suffix).
    // A boundary op that did not survive has nothing to truncate: the
    // whole recovered prefix replays and the boundary primitive runs
    // live again.
    let mut state = lib.borrow_mut();
    let log = &mut state.log;
    let boundary_survived = |op: usize, want_guess: bool| match log.get(op) {
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
    drop(state);
    // The attribution is the one count of rollbacks and re-executions.
    let wasted = WastedWork {
        intervals_discarded: discarded.len() as u64,
        ops_discarded: removed.len() as u64,
        messages_invalidated: removed
            .iter()
            .filter(|op| matches!(op, Op::Send { .. }))
            .count() as u64,
        reexecutions: 1,
    };
    // Adaptive speculation control: a caused rollback on this live path is
    // the one place a deny provably reached this process (replays and
    // crash recoveries never get here with a cause), so feed the deny-rate
    // EWMA exactly once per cascade. Crash-caused rollbacks carry no
    // cause and charge nothing — a crash is not evidence against the
    // assumption.
    let observed = cause.filter(|_| !crash_recovery);
    let now = observed.map(|_| sys.now());
    let mut state = lib.borrow_mut();
    state.counts.attribution.charge(blame, wasted);
    state.spec_waiting = false;
    if let (Some(cause_aid), Some(now)) = (observed, now) {
        state.observe_resolution(cause_aid, true, now);
    }
    drop(state);
    if tracer.is_enabled() {
        let pid = sys.pid();
        let now = sys.now();
        tracer.record(
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
        tracer.record(pid, now, TraceEventKind::Reexecution);
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
    /// The runtime's own builder: every runtime knob is set on it.
    rt: RuntimeBuilder<R>,
    /// What every durable store is seeded and faulted with.
    seed: u64,
    storage: Option<StorageFaultPlan>,
    config: HopeConfig,
    durable: Option<DurableConfig>,
}

/// Builds a [`HopeEnv`] (the virtual-time simulator).
pub type HopeEnvBuilder = EnvBuilder<SimRuntime>;
/// Builds a [`ThreadedHopeEnv`] (shard threads, wall-clock time).
pub type ThreadedHopeEnvBuilder = EnvBuilder<ThreadedRuntime>;

impl<R> EnvBuilder<R> {
    fn new(rt: RuntimeBuilder<R>) -> Self {
        EnvBuilder {
            rt,
            seed: 0,
            storage: None,
            config: HopeConfig::new(),
            durable: None,
        }
    }

    /// Seed for all deterministic randomness (per-process RNGs, latency
    /// jitter, fault decisions).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.rt = self.rt.seed(seed);
        self
    }

    /// Network latency configuration. The simulator defaults to
    /// [`NetworkConfig::default`]; the threaded runtime, where latency
    /// elapses in wall time, to [`NetworkConfig::local`].
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.rt = self.rt.network(network);
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
        self.rt = self.rt.reliable(on);
        self
    }

    /// Injects runtime faults (drops, duplicates, crash/restarts) per
    /// `plan`; enables the reliable-delivery sublayer and HOPElib crash
    /// recovery via operation-log replay. On the threaded runtime crash
    /// times are wall-clock offsets from startup.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.storage = plan.storage_plan().copied();
        self.rt = self.rt.faults(plan);
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
    /// creates what the processes share (the storage settings among it), and
    /// builds the runtime with `build`, recording into the shared tracer.
    fn build_on(self, build: impl FnOnce(RuntimeBuilder<R>) -> R) -> Env<R> {
        let config = self.config;
        if let Err(e) = config.spec_policy.validate() {
            panic!("{e}");
        }
        let metrics = Arc::new(HopeMetrics::new());
        Env {
            rt: build(self.rt.tracer(metrics.tracer.clone())),
            shared: Arc::new(Shared {
                config,
                metrics,
                durable: self.durable,
                storage: self.storage,
                seed: self.seed,
                libs: Mutex::new(Vec::new()),
            }),
            users: Mutex::new(Vec::new()),
        }
    }
}

impl EnvBuilder<SimRuntime> {
    /// Event-count safety valve.
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.rt = self.rt.max_events(max_events);
        self
    }

    /// Builds the environment.
    ///
    /// # Panics
    ///
    /// Panics when the configured [`SpecPolicy`] is invalid (it can reach
    /// the builder unvalidated through [`EnvBuilder::config`]).
    pub fn build(self) -> HopeEnv {
        self.build_on(RuntimeBuilder::<SimRuntime>::build)
    }
}

impl EnvBuilder<ThreadedRuntime> {
    /// Number of delivery shards for the underlying runtime (DESIGN.md
    /// §10). Defaults to the machine's available parallelism; outcomes
    /// are shard-count independent.
    pub fn shards(mut self, n: usize) -> Self {
        self.rt = self.rt.shards(n);
        self
    }

    /// Builds and starts the environment.
    ///
    /// # Panics
    ///
    /// Panics when the configured [`SpecPolicy`] is invalid (it can reach
    /// the builder unvalidated through [`EnvBuilder::config`]).
    pub fn build(self) -> ThreadedHopeEnv {
        self.build_on(RuntimeBuilder::<ThreadedRuntime>::build)
    }
}

/// A complete HOPE environment on runtime `R`: the runtime plus what its
/// processes share (algorithm configuration, tracer, storage) and the pids
/// of its top-level user processes. Each process's HOPElib, counters
/// included, stays with the process; an observer asks its owner
/// ([`Inspect`]). One impl block holds everything that does
/// not drive the runtime; [`HopeEnv`] and [`ThreadedHopeEnv`] add spawning
/// and running. See the crate docs for an example.
pub struct Env<R> {
    rt: R,
    shared: Arc<Shared>,
    /// The top-level user processes, (pid, name) in spawn order.
    users: Mutex<Vec<(ProcessId, String)>>,
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

impl<R: Inspect> Env<R> {
    /// The runner of a user process running `body`; the caller spawns it
    /// on its runtime and [`track`](Env::track)s the pid.
    fn runner(&self, body: UserBody) -> ProcessBody {
        user_runner(self.shared.clone(), body)
    }

    fn track(&self, pid: ProcessId, name: &str) -> ProcessId {
        self.users.lock().unwrap().push((pid, name.to_string()));
        pid
    }

    /// Runs `f` on `pid`'s HOPElib where it lives — inline on the
    /// simulator, between turns on its shard — and returns the answer. A
    /// process that has not had its first turn reads as fresh state of its
    /// own pid.
    fn read_lib<T: Send + 'static>(
        &self,
        pid: ProcessId,
        f: impl FnOnce(&LibState) -> T + Send + 'static,
    ) -> T {
        let (config, metrics) = (self.shared.config, self.shared.metrics.clone());
        let read = move |control: Option<&dyn ControlHandler>| match control
            .and_then(|c| c.as_any()?.downcast_ref::<LibControl>())
        {
            Some(control) => f(&control.lib.borrow()),
            None => f(&LibState::new(pid, config, metrics)),
        };
        self.rt.inspect(pid, read)
    }

    /// [`read_lib`](Env::read_lib) for a tracked process; `None` for a pid
    /// that is not tracked.
    fn ask<T: Send + 'static>(
        &self,
        pid: ProcessId,
        f: impl FnOnce(&LibState) -> T + Send + 'static,
    ) -> Option<T> {
        let tracked = self.users.lock().unwrap().iter().any(|(p, _)| *p == pid);
        tracked.then(|| self.read_lib(pid, f))
    }

    /// Pids of the top-level user processes (spawned via `spawn_user` on
    /// the environment; children spawned by
    /// [`ProcessCtx::spawn_user`](crate::ProcessCtx::spawn_user) are not
    /// tracked — here or by any `*_of` observer below — but are counted
    /// by [`metrics`](Env::metrics) and
    /// [`store_stats`](Env::store_stats)). The observers ask each
    /// process's owner, so on [`ThreadedHopeEnv`] they wait for its shard
    /// and panic when called from a process body.
    pub fn user_pids(&self) -> Vec<ProcessId> {
        self.users.lock().unwrap().iter().map(|(p, _)| *p).collect()
    }

    /// A snapshot of a tracked process's interval history.
    pub fn history_of(&self, pid: ProcessId) -> Option<Vec<crate::interval::IntervalRecord>> {
        self.ask(pid, |lib| lib.history.intervals().to_vec())
    }

    /// Tracked processes (pid, name) that still hold speculative intervals.
    pub fn speculative_processes(&self) -> Vec<(ProcessId, String)> {
        let users = self.users.lock().unwrap().clone();
        users
            .into_iter()
            .filter(|(pid, _)| self.ask(*pid, |lib| !lib.history.fully_definite()) == Some(true))
            .collect()
    }

    /// A snapshot of a tracked process's speculation-control state (EWMAs,
    /// flips, cancellations).
    pub fn spec_of(&self, pid: ProcessId) -> Option<SpecSnapshot> {
        self.ask(pid, LibState::spec_snapshot)
    }

    /// The not-yet-executed rollback of a tracked process. Outer `None`
    /// means the pid is not a tracked user process.
    pub fn pending_rollback_of(
        &self,
        pid: ProcessId,
    ) -> Option<Option<crate::hopelib::PendingRollback>> {
        self.ask(pid, |lib| lib.pending_rollback)
    }

    /// Aggregate durable-store counters, when the environment was built
    /// with [`durable`](EnvBuilder::durable) storage: every process that
    /// opened a store is asked, children spawned by
    /// [`ProcessCtx::spawn_user`](crate::ProcessCtx::spawn_user) included.
    pub fn store_stats(&self) -> Option<DurableSnapshot> {
        self.shared.durable?;
        let stores = self.shared.libs().into_iter().filter_map(|pid| {
            self.read_lib(pid, |lib| lib.log.store.as_deref().map(DurableStore::stats))
        });
        Some(DurableSnapshot::total(stores))
    }

    /// Turns on causal trace collection with a ring of `capacity` events
    /// (drop-oldest once full). Tracing is off by default and costs a
    /// single relaxed atomic load per hook while disabled.
    pub fn enable_tracing(&self, capacity: usize) {
        self.shared.metrics.tracer.enable(capacity);
    }

    /// The shared trace collector (runtime and library layers both emit
    /// into it).
    pub fn tracer(&self) -> Arc<TraceCollector> {
        self.shared.metrics.tracer.clone()
    }

    /// HOPE metrics so far: every user process's counters, children
    /// spawned by [`ProcessCtx::spawn_user`](crate::ProcessCtx::spawn_user)
    /// included, each asked of its owner and summed, plus the AID actors'
    /// two counts.
    pub fn metrics(&self) -> MetricsSnapshot {
        let aids = &self.shared.metrics;
        let mut hope = MetricsSnapshot {
            aid_contract_violations: aids.aid_contract_violations.load(Relaxed),
            aids_collected: aids.aids_collected.load(Relaxed),
            ..MetricsSnapshot::default()
        };
        for pid in self.shared.libs() {
            hope.add(&self.read_lib(pid, LibState::metrics));
        }
        hope
    }

    /// The algorithm configuration.
    pub fn config(&self) -> HopeConfig {
        self.shared.config
    }

    /// Read-only access to the underlying runtime.
    pub fn runtime(&self) -> &R {
        &self.rt
    }
}

impl Env<SimRuntime> {
    /// Starts configuring an environment.
    pub fn builder() -> HopeEnvBuilder {
        EnvBuilder::new(SimRuntime::builder())
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
        let runner = self.runner(Box::new(body));
        let pid = self.rt.spawn_threaded(name, None, runner);
        self.track(pid, name)
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
    /// states and in-flight events) combined with every HOPElib's interval
    /// history and pending rollback — the tracked processes' first, then
    /// the spawned children's in the order of their first turns. Virtual
    /// time and statistics are excluded, so commuting schedules that reach
    /// the same state hash equal.
    pub fn state_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.rt.state_hash().hash(&mut h);
        let users = self.user_pids();
        let children = self
            .shared
            .libs()
            .into_iter()
            .filter(|p| !users.contains(p));
        for pid in users.iter().copied().chain(children) {
            pid.as_raw().hash(&mut h);
            let read = |lib: &LibState| (lib.history.intervals().to_vec(), lib.pending_rollback);
            // (intervals, pending) hashes as the two one after the other.
            self.read_lib(pid, read).hash(&mut h);
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
        EnvBuilder::new(ThreadedRuntime::builder())
    }

    /// Spawns a HOPE user process (it begins running immediately).
    pub fn spawn_user<F>(&self, name: &str, body: F) -> ProcessId
    where
        F: Fn(&mut ProcessCtx<'_>) + Send + 'static,
    {
        let pid = self
            .rt
            .spawn_threaded(name, None, self.runner(Box::new(body)));
        self.track(pid, name)
    }

    /// Waits until the system has been quiescent for `grace` (or
    /// `timeout` elapses) and returns the runtime's report; the HOPE
    /// counters are [`Env::metrics`]. `hit_event_limit` in the report
    /// means the timeout fired first.
    pub fn run_until_quiescent(&self, grace: Duration, timeout: Duration) -> RunReport {
        self.rt.run_until_quiescent(grace, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    use bytes::Bytes;

    /// Messages the parent sends its child while it guesses.
    const TAGGED: u64 = 5;

    /// A parent that spawns a child, then sends it `TAGGED` messages from
    /// a guess it denies itself: both roll back, and the parent's
    /// re-execution sends them untagged. The child's pid lands in `child`.
    fn parent(child: Arc<AtomicU64>) -> impl Fn(&mut ProcessCtx<'_>) + Send + 'static {
        move |ctx| {
            let a = ctx.aid_init();
            let pid = ctx.spawn_user("child", guessing_child);
            child.store(pid.as_raw(), Relaxed);
            let optimistic = ctx.guess(a);
            for n in 0..TAGGED {
                ctx.send(pid, 0, Bytes::from(n.to_le_bytes().to_vec()));
            }
            if optimistic {
                ctx.deny(a);
            }
        }
    }

    /// The child guesses and affirms, frees itself of a fresh AID, and
    /// receives the parent's messages: the tagged ones open an interval
    /// that the parent's deny rolls back, and the rest are cancelled.
    fn guessing_child(ctx: &mut ProcessCtx<'_>) {
        let b = ctx.aid_init();
        if ctx.guess(b) {
            ctx.affirm(b);
        }
        let c = ctx.aid_init();
        ctx.free_of(c);
        for _ in 0..TAGGED {
            ctx.receive(Some(0));
        }
    }

    /// `Env::metrics` is the parent's and the child's counters summed,
    /// plus the AID actors' counts; the child's are not zero.
    fn check_family<R: Inspect>(env: &Env<R>, child: &AtomicU64, runtime: &str) {
        let family = [env.user_pids()[0], ProcessId::from_raw(child.load(Relaxed))];
        let total = env.metrics();
        let [mine, childs] = family.map(|pid| env.read_lib(pid, LibState::metrics));
        let visits = family.map(|pid| env.read_lib(pid, |lib| lib.history.visits()));
        assert!(visits[1] > 0, "{runtime}: the child walks its history");
        assert_eq!(
            total.history_visits,
            visits[0] + visits[1],
            "{runtime}: the child's visits are counted"
        );
        let mut sum = MetricsSnapshot {
            aid_contract_violations: total.aid_contract_violations,
            aids_collected: total.aids_collected,
            ..mine.clone()
        };
        sum.add(&childs);
        assert_eq!(total, sum, "{runtime}: every counter is the family's sum");
        assert_eq!((childs.guesses, childs.affirms, childs.free_ofs), (1, 1, 1));
        assert!(childs.implicit_guesses >= 1, "{runtime}: {childs:?}");
        assert!(childs.rollbacks >= 1, "{runtime}: {childs:?}");
        assert_eq!(childs.cancelled_intervals, TAGGED - 1, "{runtime}");
        assert_eq!((mine.denies, mine.rollbacks), (1, 1), "{runtime}: {mine:?}");
    }

    /// A child's pending rollback is part of the state: two states that
    /// differ only there must not hash equal.
    #[test]
    fn state_hash_covers_a_spawned_child() {
        let child = Arc::new(AtomicU64::new(0));
        let mut env = HopeEnv::new();
        env.spawn_user("parent", parent(child.clone()));
        assert!(env.run().is_clean());
        let child = ProcessId::from_raw(child.load(Relaxed));
        assert!(
            !env.user_pids().contains(&child),
            "the child is not tracked"
        );
        let before = env.state_hash();
        env.rt.inspect(child, |control| {
            let control = control.and_then(|c| c.as_any()?.downcast_ref::<LibControl>());
            control
                .expect("the child's HOPElib")
                .lib
                .borrow_mut()
                .pending_rollback = Some(crate::hopelib::PendingRollback {
                floor: 0,
                cause: None,
                crash: true,
            });
        });
        assert_ne!(env.state_hash(), before, "the child's state is hashed");
    }

    #[test]
    fn a_childs_counters_are_counted() {
        let child = Arc::new(AtomicU64::new(0));
        let mut sim = HopeEnv::new();
        sim.spawn_user("parent", parent(child.clone()));
        assert!(sim.run().is_clean());
        check_family(&sim, &child, "simulator");

        for shards in [1, 2] {
            let env = ThreadedHopeEnv::builder().shards(shards).build();
            env.spawn_user("parent", parent(child.clone()));
            let wait = Duration::from_millis;
            let report = env.run_until_quiescent(wait(50), wait(10_000));
            assert!(report.is_clean(), "shards({shards}): {report:?}");
            check_family(&env, &child, &format!("shards({shards})"));
        }
    }
}
