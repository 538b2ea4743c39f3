//! The simulator: one [`Scheduler`] on a virtual clock.

use std::marker::PhantomData;
use std::sync::Arc;

use hope_types::{HopeError, Payload, ProcessId, TraceCollector, VirtualTime};

use crate::actor::Actor;
use crate::control::{ControlHandler, Inspect};
use crate::event::{EventKind, Timed, TimedQueue};
use crate::fault::FaultPlan;
use crate::link::Outbound;
use crate::net::NetworkConfig;
use crate::reliable::ReliableState;
use crate::sched::{self, PendingEvent};
use crate::scheduler::{Clock, Links, Local, Scheduler};
use crate::stats::{MessageStats, RunReport};
use crate::sysapi::SysApi;
use crate::threadproc::{ProcessStatus, SpawnRequest};

/// Configures a [`SimRuntime`] or a
/// [`ThreadedRuntime`](crate::ThreadedRuntime): shared setters, then each
/// runtime's own knob (`max_events`, `shards`) and `build`.
///
/// # Examples
///
/// ```
/// use hope_runtime::{NetworkConfig, SimRuntime};
/// let rt = SimRuntime::builder()
///     .seed(42)
///     .network(NetworkConfig::wan())
///     .max_events(1_000_000)
///     .build();
/// # let _ = rt;
/// ```
pub struct RuntimeBuilder<R = SimRuntime> {
    pub(crate) seed: u64,
    pub(crate) network: NetworkConfig,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) reliable: bool,
    pub(crate) tracer: Option<Arc<TraceCollector>>,
    /// [`SimRuntime`] only.
    max_events: u64,
    /// [`ThreadedRuntime`](crate::ThreadedRuntime) only; unset = the
    /// machine's available parallelism.
    pub(crate) shards: Option<usize>,
    runtime: PhantomData<fn() -> R>,
}

impl<R> RuntimeBuilder<R> {
    pub(crate) fn new(network: NetworkConfig) -> Self {
        RuntimeBuilder {
            seed: 0,
            network,
            faults: None,
            reliable: false,
            tracer: None,
            max_events: 50_000_000,
            shards: None,
            runtime: PhantomData,
        }
    }

    /// Seed for all runtime randomness (latency jitter, fault decisions,
    /// per-process RNGs).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Network latency. Defaults to [`NetworkConfig::default`] on the
    /// simulator, [`NetworkConfig::local`] on the threaded runtime.
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Injects faults per `plan` (drops, duplicates, crash/restarts) and
    /// enables the reliable-delivery sublayer to mask them; without one the
    /// wire is lossless. On the threaded runtime crash times are wall-clock
    /// offsets from its start and the [`rto`](FaultPlan::rto) is waited in
    /// real time: keep it small there.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Forces the reliable-delivery sublayer on even with a lossless wire
    /// (sequence numbers, acks and retransmit timers run; useful for
    /// testing the sublayer itself).
    pub fn reliable(mut self, on: bool) -> Self {
        self.reliable = on;
        self
    }

    /// Shares a causal-trace collector with the runtime: wire events
    /// (send/deliver/retransmit/crash/restart, tag decode mismatches) are
    /// recorded into it when it is enabled.
    pub fn tracer(mut self, tracer: Arc<TraceCollector>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The link halves scheduler `ix` starts with (the simulator is
    /// scheduler 0): the sublayer's records when it is on — forced, or
    /// implied by a fault plan — with the RTO and retransmit cap of the
    /// plan (of the default plan without one), and latency and fault
    /// models of its own, seeded by `ix`. Panics as `build`.
    pub(crate) fn links(&self, ix: usize, tracer: &Arc<TraceCollector>) -> Links {
        if let Some(Err(err)) = self.faults.as_ref().map(FaultPlan::validate) {
            panic!("{err}");
        }
        let on = self.reliable || self.faults.is_some();
        let timing = self.faults.clone().unwrap_or_default();
        let mix = (ix as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let fault = self.faults.clone().map(|plan| {
            // Decorrelate the schedulers' fate streams even when the plan
            // pinned its own seed, keeping the configured rates.
            let base = plan.pinned_seed().unwrap_or(self.seed);
            plan.seed(base ^ mix).into_model(self.seed)
        });
        Links {
            rel: on.then(|| ReliableState::with_rto(timing.retransmit_timeout().as_nanos())),
            latency: self.network.clone().into_model(self.seed ^ mix),
            fault,
            max_retransmits: timing.retransmit_cap(),
            outbound: Outbound::new(),
            srtt: (0, 0),
            tracer: tracer.clone(),
        }
    }
}

impl RuntimeBuilder<SimRuntime> {
    /// Safety valve: abort the run after this many events.
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Builds the runtime.
    ///
    /// # Panics
    ///
    /// Panics with the typed [`HopeError::InvalidFaultPlan`]
    /// (`hope_types::HopeError`) rendering if the fault plan fails
    /// [`FaultPlan::validate`] — NaN or out-of-range rates, a
    /// non-positive rto, or overlapping crash windows for one process.
    pub fn build(self) -> SimRuntime {
        let links = self.links(0, &self.tracer.clone().unwrap_or_default());
        let wire = Wire {
            clock: VirtualTime::ZERO,
            next_tie: 0,
            panics: Vec::new(),
        };
        let mut sched = Scheduler::new(wire, links, 1, self.seed);
        for c in self.faults.iter().flat_map(FaultPlan::crashes) {
            let up_at = c.at + c.down_for;
            sched.push(c.at, EventKind::Crash { pid: c.pid, up_at });
            sched.push(up_at, EventKind::Restart(c.pid));
        }
        SimRuntime {
            sched,
            max_events: self.max_events,
            events_processed: 0,
        }
    }
}

/// The deterministic simulated message-passing runtime (PVM substitute).
///
/// See the [crate docs](crate) for an overview and an example.
///
/// A runtime stays on the thread that built it: its processes run as
/// coroutines on that thread, and a suspended one may hold a borrow of the
/// thread's locals. So `SimRuntime` is not `Send`:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<hope_runtime::SimRuntime>();
/// ```
pub struct SimRuntime {
    sched: Scheduler<Wire>,
    max_events: u64,
    events_processed: u64,
}

/// The simulator's side of its scheduler: the virtual clock, advanced by
/// the events it fires, the tie counter, and the panics.
struct Wire {
    clock: VirtualTime,
    next_tie: u64,
    panics: Vec<(ProcessId, String)>,
}

impl Clock for Wire {
    fn now(&self) -> VirtualTime {
        self.clock
    }

    fn stamp(&mut self, time: VirtualTime, work: EventKind) -> Timed {
        self.next_tie += 1;
        let tie = self.next_tie - 1;
        Timed { time, tie, work }
    }

    /// Every item is the simulator's.
    fn queue(&mut self, queue: &mut TimedQueue, item: Timed) {
        queue.push(item);
    }

    fn exited(&mut self, pid: ProcessId, panic: Option<String>) {
        self.panics.extend(panic.map(|msg| (pid, msg)));
    }
}

impl SimRuntime {
    /// Starts configuring a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new(NetworkConfig::default())
    }

    /// Creates a runtime with default settings (LAN latency, seed 0).
    pub fn new() -> Self {
        SimRuntime::builder().build()
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.sched.clock.clock
    }

    /// Seed this runtime was built with.
    pub fn seed(&self) -> u64 {
        self.sched.seed
    }

    /// Message statistics accumulated so far.
    pub fn stats(&self) -> &MessageStats {
        &self.sched.stats
    }

    /// Coroutine stacks this runtime mapped so far. A process takes a stack
    /// from its thread's free list at its first resume, mapping one only
    /// when the list is empty, and returns it when it exits: this stays at
    /// the peak number of processes running at once, not the number
    /// spawned, less what the thread's earlier runtimes left in the list.
    pub fn stacks_mapped(&self) -> usize {
        self.sched.stacks_mapped
    }

    /// Actor processes garbage-collected so far (AID reference counting).
    pub fn collected_actors(&self) -> u64 {
        let gone = self.sched.locals.iter().flatten();
        gone.filter(|local| matches!(local, Local::Gone)).count() as u64
    }

    /// The shared causal-trace collector (always present; disabled unless
    /// [`hope_types::TraceCollector::enable`]d).
    pub fn tracer(&self) -> &Arc<TraceCollector> {
        &self.sched.links.tracer
    }

    fn local(&self, pid: ProcessId) -> Option<&Local> {
        self.sched.locals.get(pid.as_raw() as usize)?.as_ref()
    }

    /// Name of a process, if it exists.
    pub fn process_name(&self, pid: ProcessId) -> Option<&str> {
        match self.local(pid)? {
            Local::Actor { name, .. } => Some(name),
            Local::Proc(proc) => Some(&proc.name),
            Local::Gone | Local::Gateway(_) => None,
        }
    }

    /// Status of a threaded process (`None` for actors and unknown pids).
    pub fn status(&self, pid: ProcessId) -> Option<ProcessStatus> {
        match self.local(pid)? {
            Local::Proc(proc) => Some(proc.status),
            _ => None,
        }
    }

    /// Spawns an event-driven actor process (e.g. an AID process).
    pub fn spawn_actor(&mut self, name: &str, actor: Box<dyn Actor>) -> ProcessId {
        self.sched.register(SpawnRequest::actor(name, actor))
    }

    /// Spawns a threaded user process.
    ///
    /// `control` receives every HOPE protocol message addressed to the
    /// process (the paper's HOPElib `Control` function) until the body
    /// attaches its own ([`SysApi::attach_control`]); pass `None` for
    /// processes that take no part in HOPE bookkeeping. `body` starts at
    /// the current virtual time once [`SimRuntime::run`] is called, as a
    /// coroutine on the thread that runs the scheduler, on a stack an
    /// earlier process may have used and a later one will reuse after this
    /// one exits: thread-locals and `std::thread::current()` are that
    /// thread's, not the process's.
    pub fn spawn_threaded<F>(
        &mut self,
        name: &str,
        control: Option<Box<dyn ControlHandler + Send>>,
        body: F,
    ) -> ProcessId
    where
        F: FnOnce(&mut dyn SysApi) + Send + 'static,
    {
        let req = SpawnRequest::threaded(name, control, Box::new(body));
        self.sched.register(req)
    }

    /// Injects a message from outside the simulation (delivered with normal
    /// network latency). Useful in tests and open-loop workloads.
    ///
    /// # Errors
    ///
    /// [`HopeError::UnknownProcess`] if `dst` was never spawned (also
    /// counted in [`LinkStats::unroutable`](crate::LinkStats)). A
    /// garbage-collected destination is not an error: the send is
    /// scheduled and dropped at delivery, like any late in-flight message.
    pub fn inject(
        &mut self,
        src: ProcessId,
        dst: ProcessId,
        payload: Payload,
    ) -> Result<(), HopeError> {
        if dst.as_raw() as usize >= self.sched.locals.len() {
            self.sched.stats.link_mut().unroutable += 1;
            return Err(HopeError::UnknownProcess(dst));
        }
        self.sched.send(src, dst, payload);
        Ok(())
    }

    /// Runs until quiescence (no events left) or the event limit, and
    /// reports the outcome.
    pub fn run(&mut self) -> RunReport {
        self.run_bounded(None)
    }

    /// Runs until virtual time would exceed `deadline` (later events stay
    /// queued), quiescence, or the event limit.
    pub fn run_until(&mut self, deadline: VirtualTime) -> RunReport {
        self.run_bounded(Some(deadline))
    }

    fn run_bounded(&mut self, deadline: Option<VirtualTime>) -> RunReport {
        let mut hit_limit = false;
        while let Some(next_time) = self.sched.queue.peek().map(|e| e.time) {
            if deadline.is_some_and(|d| next_time > d) {
                break;
            }
            // Check the cap *before* popping so the next event survives in
            // the queue and a resumed run can still fire it.
            if self.events_processed >= self.max_events {
                hit_limit = true;
                break;
            }
            let ev = self.sched.queue.pop().expect("peeked event must exist");
            self.fire(ev);
        }
        self.report(hit_limit)
    }

    /// Fires one event however it was selected, at the clock clamped
    /// monotone, and gives the process it made ready its turn.
    fn fire(&mut self, mut ev: Timed) {
        let clock = &mut self.sched.clock.clock;
        *clock = ev.time.max(*clock);
        ev.time = *clock;
        self.events_processed += 1;
        self.sched.fire(ev);
        self.sched.turns();
    }

    /// True if an external scheduler may fire this event now. Restarts are
    /// held back until their crash has fired and wakes of a crashed process
    /// are held back until its restart, which preserves the fault
    /// timeline's causal order under arbitrary reordering of everything
    /// else.
    fn schedulable(&self, kind: &EventKind) -> bool {
        match kind {
            EventKind::Restart(pid) => self.sched.down.contains_key(&pid.as_raw()),
            EventKind::Wake(pid) => !self.sched.down.contains_key(&pid.as_raw()),
            _ => true,
        }
    }

    /// The events an external scheduler may fire next, sorted by
    /// `(time, tie)` — index 0 is what [`SimRuntime::run`] would fire.
    pub fn pending_events(&self) -> Vec<PendingEvent> {
        let mut pending: Vec<PendingEvent> = self
            .sched
            .queue
            .iter()
            .filter(|e| self.schedulable(&e.work))
            .map(sched::describe)
            .collect();
        pending.sort_by_key(|p| (p.time, p.tie));
        pending
    }

    /// Fires the `n`-th entry of [`SimRuntime::pending_events`]. The clock
    /// is clamped monotone: an event chosen before an earlier-timestamped
    /// rival fires at its own timestamp, one chosen after fires "late" at
    /// the current clock. Returns `false` if `n` is out of range.
    pub fn step_chosen(&mut self, n: usize) -> bool {
        let pending = self.pending_events();
        let Some(chosen) = pending.get(n) else {
            return false;
        };
        let ev = self
            .sched
            .queue
            .take_tie(chosen.tie)
            .expect("pending events are queued");
        self.fire(ev);
        true
    }

    /// The report [`SimRuntime::run`] would return right now, without
    /// processing anything. Lets checkers inspect blocked processes and
    /// statistics between externally scheduled steps.
    pub fn snapshot_report(&self) -> RunReport {
        self.report(false)
    }

    /// Deterministic fingerprint of the runtime's protocol-visible state:
    /// process states (actor hashes, threaded statuses and mailboxes), the
    /// crashed-process set, and the multiset of in-flight events. The
    /// clock, statistics and event counts are deliberately excluded so
    /// that commuting schedules reaching the same state hash equal.
    pub fn state_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (idx, slot) in self.sched.locals.iter().enumerate() {
            idx.hash(&mut h);
            match slot {
                Some(Local::Actor { actor, .. }) => {
                    1u8.hash(&mut h);
                    actor.state_hash().hash(&mut h);
                }
                Some(Local::Proc(proc)) => {
                    2u8.hash(&mut h);
                    proc.status.hash(&mut h);
                    proc.blocked_channel.hash(&mut h);
                    let shared = proc.shared.borrow();
                    shared.mailbox.len().hash(&mut h);
                    for received in &shared.mailbox {
                        received.src.as_raw().hash(&mut h);
                        received.msg.channel.hash(&mut h);
                        received.msg.data[..].hash(&mut h);
                        received.msg.tag.hash(&mut h);
                    }
                }
                _ => 0u8.hash(&mut h),
            }
        }
        for (&pid, &up_at) in &self.sched.down {
            pid.hash(&mut h);
            up_at.as_nanos().hash(&mut h);
        }
        let mut in_flight: Vec<u64> = self.sched.queue.iter().map(sched::content_hash).collect();
        in_flight.sort_unstable();
        in_flight.hash(&mut h);
        h.finish()
    }

    /// Read access to an actor process, for checker oracles (via
    /// [`Actor::as_any`]). `None` for threaded processes, vacant slots and
    /// unknown pids.
    pub fn actor_ref(&self, pid: ProcessId) -> Option<&dyn Actor> {
        match self.local(pid)? {
            Local::Actor { actor, .. } => Some(actor.as_ref()),
            _ => None,
        }
    }

    /// Pids of all live actor processes.
    pub fn actor_pids(&self) -> Vec<ProcessId> {
        (0..self.sched.locals.len() as u64)
            .map(ProcessId::from_raw)
            .filter(|&pid| self.actor_ref(pid).is_some())
            .collect()
    }

    fn report(&self, hit_event_limit: bool) -> RunReport {
        let blocked = (0..self.sched.locals.len() as u64)
            .map(ProcessId::from_raw)
            .filter_map(|pid| match self.local(pid)? {
                Local::Proc(proc) if proc.waiting() => Some((pid, proc.name.clone())),
                _ => None,
            })
            .collect();
        RunReport {
            now: self.now(),
            events: self.events_processed,
            blocked,
            panics: self.sched.clock.panics.clone(),
            stats: self.stats().clone(),
            hit_event_limit,
            turns: self.sched.turns,
        }
    }
}

/// Inline: the simulator's processes are suspended between its events.
impl Inspect for SimRuntime {
    fn inspect<T: Send + 'static>(
        &self,
        pid: ProcessId,
        f: impl FnOnce(Option<&dyn ControlHandler>) -> T + Send + 'static,
    ) -> T {
        f(self.sched.control_ref(pid))
    }
}

impl Default for SimRuntime {
    fn default() -> Self {
        SimRuntime::new()
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
