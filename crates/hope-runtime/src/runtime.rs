//! The deterministic virtual-time scheduler.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::Arc;

use hope_types::{
    Envelope, HopeError, Payload, ProcessId, TraceCollector, TraceEventKind, VirtualTime,
};

use crate::actor::Actor;
use crate::control::ControlHandler;
use crate::coro::Stack;
use crate::event::{Event, EventKind, EventQueue};
use crate::fault::{FaultModel, FaultPlan};
use crate::link::{state_link, Link, LinkWork, Outbound};
use crate::net::{LatencyModel, NetworkConfig};
use crate::node::{self, Host, Step, Target};
use crate::reliable::{CopyKind, LinkId, ReliableState};
use crate::sched::{self, PendingEvent};
use crate::stats::{MessageStats, PartyKind, RunReport};
use crate::sysapi::{ProcessBody, SysApi};
use crate::threadproc::{self, Outgoing, Shared, SpawnKind, SpawnRequest, Worker, YieldMsg};

/// Lifecycle state of a threaded process, as visible to tests and tools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessStatus {
    /// Spawned but not yet started.
    New,
    /// Currently blocked in `receive`.
    Blocked,
    /// Parked waiting for a control wake (lingering speculative process).
    Parked,
    /// Waiting for a compute step to finish.
    Sleeping,
    /// Finished (normally or by panic).
    Exited,
}

enum ProcSlot {
    /// A garbage-collected actor, or a process slot whose contents
    /// `run_threaded` has taken out for the turn.
    Vacant,
    Actor {
        name: String,
        actor: Box<dyn Actor>,
    },
    Threaded(Box<ThreadedEntry>),
}

struct ThreadedEntry {
    pid: ProcessId,
    name: String,
    shared: Rc<RefCell<Shared>>,
    /// The body, until the first resume starts it on a stack.
    body: Option<ProcessBody>,
    /// The coroutine running the body, from the first resume until it exits.
    worker: Option<Worker>,
    control: Option<Box<dyn ControlHandler>>,
    status: ProcessStatus,
    blocked_channel: Option<u32>,
}

impl ThreadedEntry {
    /// Blocked in `receive` or parked: a `Control` wake resumes it.
    fn waiting(&self) -> bool {
        matches!(self.status, ProcessStatus::Blocked | ProcessStatus::Parked)
    }
}

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
        let (make_rel, max_retransmits) = FaultPlan::sublayer(self.faults.as_ref(), self.reliable);
        let mut queue = EventQueue::new();
        let fault = self.faults.map(|plan| {
            for c in plan.crashes() {
                let up_at = c.at + c.down_for;
                queue.push(c.at, EventKind::Crash { pid: c.pid, up_at });
                queue.push(up_at, EventKind::Restart(c.pid));
            }
            plan.into_model(self.seed)
        });
        SimRuntime {
            procs: Vec::new(),
            wire: Wire {
                queue,
                clock: VirtualTime::ZERO,
                latency: self.network.into_model(self.seed),
                stats: MessageStats::new(),
                fault,
                rel: make_rel.map(|make| make()),
                outbound: Outbound::new(),
                tracer: self.tracer.unwrap_or_default(),
            },
            seed: self.seed,
            max_events: self.max_events,
            events_processed: 0,
            panics: Vec::new(),
            collected: 0,
            down: BTreeMap::new(),
            max_retransmits,
            idle: Vec::new(),
            stacks_mapped: 0,
            turns: 0,
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
    procs: Vec<ProcSlot>,
    /// What a send touches, apart from the slots: the dispatch step's host.
    wire: Wire,
    seed: u64,
    max_events: u64,
    events_processed: u64,
    panics: Vec<(ProcessId, String)>,
    collected: u64,
    /// Crashed processes: raw pid -> restart time (for wake deferral).
    down: BTreeMap<u64, VirtualTime>,
    max_retransmits: u32,
    /// Stacks whose process exited, ready for the next first resume.
    idle: Vec<Stack>,
    /// Coroutine stacks mapped so far.
    stacks_mapped: usize,
    /// Scheduler → process resumes so far.
    turns: u64,
}

/// The simulator's clock, event queue and link-pipeline state.
struct Wire {
    queue: EventQueue,
    clock: VirtualTime,
    latency: Box<dyn LatencyModel>,
    stats: MessageStats,
    /// Fault model, when fault injection is configured.
    fault: Option<FaultModel>,
    /// Reliable-delivery link state, when the sublayer is enabled.
    rel: Option<ReliableState>,
    /// The buffer every link-pipeline step reports its work in, kept so a
    /// step allocates nothing.
    outbound: Outbound,
    /// Causal-trace collector for wire events (disabled unless enabled by
    /// the owner; recording is a single atomic load when off).
    tracer: Arc<TraceCollector>,
}

impl Wire {
    /// Runs one link-pipeline step for `link` at the current clock — the
    /// step's one lookup by link is here — then queues what it asked for,
    /// in the order asked (event ties follow it).
    fn step<T>(&mut self, link: LinkId, f: impl FnOnce(&mut Link<'_>, &mut Outbound) -> T) -> T {
        let now = self.clock;
        let mut out = std::mem::take(&mut self.outbound);
        let mut link = Link {
            now,
            rel: self.rel.as_mut().map(|rel| rel.link_mut(link)),
            stats: &mut self.stats,
            latency: &mut *self.latency,
            fault: self.fault.as_mut(),
            tracer: &self.tracer,
        };
        let result = f(&mut link, &mut out);
        for (delay, work) in out.drain(..) {
            self.queue.push(now + delay, EventKind::Link(work));
        }
        self.outbound = out;
        result
    }
}

/// A handler's sends are queued as it makes them: nothing else pushes an
/// event in between, so the order is the one buffering them would give.
impl Host for Wire {
    fn now(&self) -> VirtualTime {
        self.clock
    }

    fn send(&mut self, src: ProcessId, dst: ProcessId, payload: Payload) {
        self.step((src, dst), |link, out| link.send(src, dst, payload, out));
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
        self.wire.clock
    }

    /// Seed this runtime was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Message statistics accumulated so far.
    pub fn stats(&self) -> &MessageStats {
        &self.wire.stats
    }

    /// Coroutine stacks mapped so far. A process takes an idle stack at its
    /// first resume and returns it when it exits, so this stays at the
    /// peak number of processes running at once, not the number spawned.
    pub fn stacks_mapped(&self) -> usize {
        self.stacks_mapped
    }

    /// Actor processes garbage-collected so far (AID reference counting).
    pub fn collected_actors(&self) -> u64 {
        self.collected
    }

    /// The shared causal-trace collector (always present; disabled unless
    /// [`hope_types::TraceCollector::enable`]d).
    pub fn tracer(&self) -> &Arc<TraceCollector> {
        &self.wire.tracer
    }

    /// Name of a process, if it exists.
    pub fn process_name(&self, pid: ProcessId) -> Option<&str> {
        match self.procs.get(pid.as_raw() as usize)? {
            ProcSlot::Vacant => None,
            ProcSlot::Actor { name, .. } => Some(name),
            ProcSlot::Threaded(entry) => Some(&entry.name),
        }
    }

    /// Status of a threaded process (`None` for actors and unknown pids).
    pub fn status(&self, pid: ProcessId) -> Option<ProcessStatus> {
        match self.procs.get(pid.as_raw() as usize)? {
            ProcSlot::Threaded(entry) => Some(entry.status),
            _ => None,
        }
    }

    /// Spawns an event-driven actor process (e.g. an AID process).
    pub fn spawn_actor(&mut self, name: &str, actor: Box<dyn Actor>) -> ProcessId {
        self.register(SpawnRequest {
            name: name.to_string(),
            kind: SpawnKind::Actor(actor),
        })
    }

    /// Spawns a threaded user process.
    ///
    /// `control` receives every HOPE protocol message addressed to the
    /// process (the paper's HOPElib `Control` function); pass `None` for
    /// processes that take no part in HOPE bookkeeping. `body` starts at
    /// the current virtual time once [`SimRuntime::run`] is called, as a
    /// coroutine on the thread that runs the scheduler, on a stack an
    /// earlier process may have used and a later one will reuse after this
    /// one exits: thread-locals and `std::thread::current()` are that
    /// thread's, not the process's.
    pub fn spawn_threaded<F>(
        &mut self,
        name: &str,
        control: Option<Box<dyn ControlHandler>>,
        body: F,
    ) -> ProcessId
    where
        F: FnOnce(&mut dyn SysApi) + Send + 'static,
    {
        self.register(SpawnRequest {
            name: name.to_string(),
            kind: SpawnKind::Threaded {
                control,
                body: Box::new(body),
            },
        })
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
        if dst.as_raw() as usize >= self.procs.len() {
            self.wire.stats.link_mut().unroutable += 1;
            return Err(HopeError::UnknownProcess(dst));
        }
        self.wire.send(src, dst, payload);
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
        while let Some(next_time) = self.wire.queue.peek_time() {
            if deadline.is_some_and(|d| next_time > d) {
                break;
            }
            // Check the cap *before* popping so the next event survives in
            // the queue and a resumed run can still fire it.
            if self.events_processed >= self.max_events {
                hit_limit = true;
                break;
            }
            let ev = self.wire.queue.pop().expect("peeked event must exist");
            self.fire(ev);
        }
        self.report(hit_limit)
    }

    /// Fires one event however it was selected, with the clock clamped
    /// monotone.
    fn fire(&mut self, ev: Event) {
        self.wire.clock = self.wire.clock.max(ev.time);
        self.events_processed += 1;
        match ev.work {
            EventKind::Wake(pid) => match self.down.get(&pid.as_raw()) {
                // Crashed processes don't run; finish the wake once the
                // process is back up.
                Some(&up_at) => self.wire.queue.push(up_at, EventKind::Wake(pid)),
                None => self.wake(pid),
            },
            EventKind::Link(LinkWork::Deliver { env, copy }) => self.deliver(env, copy),
            EventKind::Link(LinkWork::Retransmit { link }) => {
                let cap = self.max_retransmits;
                self.wire.step(link, |l, out| l.timer(link, cap, out));
            }
            EventKind::Link(LinkWork::AckDue { link }) => {
                self.wire.step(link, |l, out| l.ack_due(link, out));
            }
            EventKind::Crash { pid, up_at } => self.crash(pid, up_at),
            EventKind::Restart(pid) => self.restart(pid),
        }
    }

    /// True if an external scheduler may fire this event now. Restarts are
    /// held back until their crash has fired and wakes of a crashed process
    /// are held back until its restart, which preserves the fault
    /// timeline's causal order under arbitrary reordering of everything
    /// else.
    fn schedulable(&self, kind: &EventKind) -> bool {
        match kind {
            EventKind::Restart(pid) => self.down.contains_key(&pid.as_raw()),
            EventKind::Wake(pid) => !self.down.contains_key(&pid.as_raw()),
            _ => true,
        }
    }

    /// The events an external scheduler may fire next, sorted by
    /// `(time, tie)` — index 0 is what [`SimRuntime::run`] would fire.
    pub fn pending_events(&self) -> Vec<PendingEvent> {
        let mut pending: Vec<PendingEvent> = self
            .wire
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
            .wire
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
        for (idx, slot) in self.procs.iter().enumerate() {
            idx.hash(&mut h);
            match slot {
                ProcSlot::Vacant => 0u8.hash(&mut h),
                ProcSlot::Actor { actor, .. } => {
                    1u8.hash(&mut h);
                    actor.state_hash().hash(&mut h);
                }
                ProcSlot::Threaded(entry) => {
                    2u8.hash(&mut h);
                    entry.status.hash(&mut h);
                    entry.blocked_channel.hash(&mut h);
                    let shared = entry.shared.borrow();
                    shared.mailbox.len().hash(&mut h);
                    for received in &shared.mailbox {
                        received.src.as_raw().hash(&mut h);
                        received.msg.channel.hash(&mut h);
                        received.msg.data[..].hash(&mut h);
                        received.msg.tag.hash(&mut h);
                    }
                }
            }
        }
        for (&pid, &up_at) in &self.down {
            pid.hash(&mut h);
            up_at.as_nanos().hash(&mut h);
        }
        let mut in_flight: Vec<u64> = self.wire.queue.iter().map(sched::content_hash).collect();
        in_flight.sort_unstable();
        in_flight.hash(&mut h);
        h.finish()
    }

    /// Read access to an actor process, for checker oracles (via
    /// [`Actor::as_any`]). `None` for threaded processes, vacant slots and
    /// unknown pids.
    pub fn actor_ref(&self, pid: ProcessId) -> Option<&dyn Actor> {
        match self.procs.get(pid.as_raw() as usize)? {
            ProcSlot::Actor { actor, .. } => Some(actor.as_ref()),
            _ => None,
        }
    }

    /// Pids of all live actor processes.
    pub fn actor_pids(&self) -> Vec<ProcessId> {
        self.procs
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| match slot {
                ProcSlot::Actor { .. } => Some(ProcessId::from_raw(idx as u64)),
                _ => None,
            })
            .collect()
    }

    fn report(&self, hit_event_limit: bool) -> RunReport {
        let blocked = self
            .procs
            .iter()
            .filter_map(|slot| match slot {
                ProcSlot::Threaded(e) if e.waiting() => Some((e.pid, e.name.clone())),
                _ => None,
            })
            .collect();
        RunReport {
            now: self.wire.clock,
            events: self.events_processed,
            blocked,
            panics: self.panics.clone(),
            stats: self.wire.stats.clone(),
            hit_event_limit,
            turns: self.turns,
        }
    }

    fn party_kind(&self, pid: ProcessId) -> PartyKind {
        match self.procs.get(pid.as_raw() as usize) {
            Some(ProcSlot::Actor { .. }) => PartyKind::Aid,
            _ => PartyKind::User,
        }
    }

    fn register(&mut self, req: SpawnRequest) -> ProcessId {
        let pid = ProcessId::from_raw(self.procs.len() as u64);
        match req.kind {
            SpawnKind::Actor(actor) => {
                self.procs.push(ProcSlot::Actor {
                    name: req.name,
                    actor,
                });
            }
            SpawnKind::Threaded { control, body } => {
                // No thread yet: the first resume hands the body to one.
                self.procs.push(ProcSlot::Threaded(Box::new(ThreadedEntry {
                    pid,
                    name: req.name,
                    shared: Shared::new(),
                    body: Some(body),
                    worker: None,
                    control,
                    status: ProcessStatus::New,
                    blocked_channel: None,
                })));
                // Kick the process off at the current virtual time.
                self.wire.queue.push(self.wire.clock, EventKind::Wake(pid));
            }
        }
        pid
    }

    fn crash(&mut self, pid: ProcessId, up_at: VirtualTime) {
        if self.down.insert(pid.as_raw(), up_at).is_some() {
            return; // overlapping crash windows merge
        }
        let now = self.wire.clock;
        self.wire.tracer.record(pid, now, TraceEventKind::Crash);
        // The link layer loses only what a crash genuinely destroys (RTT
        // estimates, tag-codec state); dedup windows and retransmit
        // buffers survive — see `ReliableState::on_crash`.
        if let Some(rel) = self.wire.rel.as_mut() {
            rel.on_crash(pid);
        }
        if let Some(ProcSlot::Threaded(entry)) = self.procs.get_mut(pid.as_raw() as usize) {
            node::crash(pid, now, entry.control.as_mut());
        }
    }

    fn restart(&mut self, pid: ProcessId) {
        if self.down.remove(&pid.as_raw()).is_none() {
            return;
        }
        let now = self.wire.clock;
        self.wire.tracer.record(pid, now, TraceEventKind::Restart);
        if let Some(ProcSlot::Threaded(entry)) = self.procs.get_mut(pid.as_raw() as usize) {
            if node::restart(&mut self.wire, pid, entry.control.as_mut()) && entry.waiting() {
                self.run_threaded(pid);
            }
        }
    }

    fn wake(&mut self, pid: ProcessId) {
        let runnable = matches!(
            self.procs.get(pid.as_raw() as usize),
            Some(ProcSlot::Threaded(e))
                if e.status == ProcessStatus::New || e.status == ProcessStatus::Sleeping
        );
        if runnable {
            self.run_threaded(pid);
        }
    }

    fn deliver(&mut self, env: Envelope, copy: CopyKind) {
        let pid = env.dst;
        let idx = pid.as_raw() as usize;
        let down = self.down.contains_key(&pid.as_raw());
        let route =
            (idx < self.procs.len()).then(|| (self.party_kind(env.src), self.party_kind(pid)));
        let samples = self.wire.stats.link().rtt_samples;
        let deliver = self.wire.step(state_link(&env), |link, out| {
            link.arrive(&env, copy, down, route, out)
        });
        // `srtt_nanos` is the mean across sampled links *at the last
        // sample*, so it is refreshed per sample here (the threaded
        // runtime recomputes it from its stripes at report time).
        if self.wire.stats.link().rtt_samples != samples {
            let Wire { rel, stats, .. } = &mut self.wire;
            stats.link_mut().srtt_nanos = rel.as_ref().map_or(0, ReliableState::mean_srtt_nanos);
        }
        if !deliver {
            return;
        }
        let target = match &mut self.procs[idx] {
            ProcSlot::Vacant => Target::Gone,
            ProcSlot::Actor { actor, .. } => Target::Actor(&mut **actor),
            ProcSlot::Threaded(entry) => {
                let control = &mut entry.control;
                Target::Process(move || control)
            }
        };
        match node::deliver(&mut self.wire, target, env) {
            Step::Done => {}
            Step::Dropped => self.wire.stats.record_dropped(),
            Step::Stop => {
                self.procs[idx] = ProcSlot::Vacant;
                self.collected += 1;
            }
            // A process runs only when what arrived is what it waits for;
            // the threaded runtime rings instead and lets it re-check.
            Step::Mail(mail) => {
                if let ProcSlot::Threaded(entry) = &mut self.procs[idx] {
                    let wanted = entry.status == ProcessStatus::Blocked
                        && entry.blocked_channel.is_none_or(|c| c == mail.msg.channel);
                    entry.shared.borrow_mut().mailbox.push_back(mail);
                    if wanted {
                        self.run_threaded(pid);
                    }
                }
            }
            Step::Wake => {
                if matches!(&self.procs[idx], ProcSlot::Threaded(e) if e.waiting()) {
                    self.run_threaded(pid);
                }
            }
        }
    }

    /// Gives a threaded process one turn and carries out what it did.
    fn run_threaded(&mut self, pid: ProcessId) {
        let idx = pid.as_raw() as usize;
        let ProcSlot::Threaded(mut entry) =
            std::mem::replace(&mut self.procs[idx], ProcSlot::Vacant)
        else {
            unreachable!("only a threaded process takes turns")
        };
        if let Some(body) = entry.body.take() {
            let stack = self.idle.pop().unwrap_or_else(|| {
                self.stacks_mapped += 1;
                Stack::new()
            });
            let shared = entry.shared.clone();
            entry.worker = Some(threadproc::start(stack, pid, shared, body, self.seed));
        }
        {
            // The turn's spawns number themselves from the next free slot:
            // nothing else registers a process before they are drained.
            let mut shared = entry.shared.borrow_mut();
            shared.now = self.wire.clock;
            shared.next_pid = self.procs.len() as u64;
        }
        self.turns += 1;
        let msg = entry.worker.as_mut().and_then(Worker::resume);
        // However the turn ended, its sends and spawns happen now, in call
        // order: a child's pid is already in its spawner's hands.
        let out = std::mem::take(&mut entry.shared.borrow_mut().outbox);
        for item in out {
            match item {
                Outgoing::Send(dst, payload) => self.wire.send(pid, dst, payload),
                Outgoing::Spawn(child, req) => assert_eq!(self.register(req), child),
            }
        }
        match msg {
            Some(YieldMsg::Blocked { channel }) => {
                entry.status = ProcessStatus::Blocked;
                entry.blocked_channel = channel;
            }
            Some(YieldMsg::Park) => entry.status = ProcessStatus::Parked,
            Some(YieldMsg::Compute { dur }) => {
                entry.status = ProcessStatus::Sleeping;
                self.wire
                    .queue
                    .push(self.wire.clock + dur, EventKind::Wake(pid));
            }
            Some(YieldMsg::Exited { panic }) => {
                entry.status = ProcessStatus::Exited;
                if let Some(msg) = panic {
                    self.panics.push((pid, msg));
                }
                self.idle
                    .extend(entry.worker.take().map(Worker::into_stack));
            }
            None => {
                entry.status = ProcessStatus::Exited;
                entry.worker = None;
            }
        }
        self.procs[idx] = ProcSlot::Threaded(entry);
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
