//! The wall-clock runtime: `n` schedulers, one per shard thread, each fed
//! by one inbox (DESIGN.md §10).
//!
//! Each shard runs the simulator's [`Scheduler`] on the wall clock, for
//! the pids `pid % n` names: their actors, their processes as coroutines
//! taking turns with their `Control`, their crash windows. Around it the
//! shard adds its inbox, a `std::sync::mpsc` channel with the shard as its
//! one consumer: work for another shard leaves its `Lane` by one send to
//! that shard's inbox, as do spawns, injections and a driver's asks, and
//! the shard parks on the inbox's blocking receive. A link's sender half
//! lives on its sender's shard and its receiver half on its receiver's,
//! and a step counts into its own scheduler's `MessageStats`, so no link
//! step takes a lock.
//!
//! A shard's state has one owner, its thread: a driver thread asks for it
//! (a closure sent to the inbox and run between turns), and a stopped
//! shard fails the ask. The routing table every thread reads is
//! append-only: a pid's slot is written once, at its spawn.
//!
//! Within a shard there is no preemption: a body that blocks outside
//! [`SysApi`] (a `std` sleep or channel, a spin on an atomic) stalls its
//! shard's other processes and timers. Outcomes are the same at every
//! shard count and match the simulator's.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use hope_types::{Envelope, ProcessId, TraceCollector, VirtualTime};

use crate::actor::Actor;
use crate::control::{ControlHandler, Inspect};
use crate::event::{EventKind, Timed, TimedQueue};
use crate::fault::FaultPlan;
use crate::link::LinkWork;
use crate::net::NetworkConfig;
use crate::reliable::CopyKind;
use crate::runtime::RuntimeBuilder;
use crate::scheduler::{Clock, Local, Scheduler};
use crate::shard::{shard_of, AppendTable, Doorbell};
use crate::stats::{MessageStats, PartyKind, RunReport};
use crate::sysapi::SysApi;
use crate::threadproc::{Live, SpawnKind, SpawnRequest};

/// Park-time backstop: a shard never sleeps longer than this without
/// re-checking the world.
const PARK_BACKSTOP: Duration = Duration::from_millis(5);

/// A pid in the routing table: only what threads other than its shard's
/// read. Written once, at the spawn.
enum Slot {
    /// An actor or a user process.
    Party {
        kind: PartyKind,
        name: String,
        /// What the pid's shard takes over at the pid's first work item.
        handover: Mutex<Option<SpawnKind>>,
        /// Set once a user process's body is gone: its panic message, if
        /// it unwound.
        exit: OnceLock<Option<String>>,
        /// Set by the pid's shard when the actor stops: Table 1 then counts
        /// it as a user party, as the simulator does.
        gone: AtomicBool,
    },
    /// An egress seam to another runtime: deliveries addressed to this
    /// pid are handed to the sink (e.g. a [`crate::NetTransport`] link to
    /// a remote node) instead of a local process. The inverse direction
    /// is [`ThreadedRuntime::inject`].
    Gateway(Arc<dyn Fn(Envelope) + Send + Sync>),
}

/// What reaches a shard from another thread, in the order it was sent.
enum Inbox {
    /// Work for a pid the shard owns.
    Item(Timed),
    /// A question to the shard's scheduler, answered between turns (see
    /// [`ThreadedRuntime::ask`]).
    Ask(Ask),
}

/// A question to one shard, run on its scheduler.
type Ask = Box<dyn FnOnce(&Scheduler<Lane>) + Send>;

/// One shard's side of its scheduler: the wall clock and the other
/// shards' inboxes.
struct Lane {
    inner: Arc<Inner>,
    /// The index of the shard that owns the lane.
    own: usize,
    /// Items queued on the lane's own shard since the shard's last collect.
    mine: usize,
}

impl Clock for Lane {
    /// The wall clock, read at each call.
    fn now(&self) -> VirtualTime {
        self.inner.now()
    }

    fn stamp(&mut self, time: VirtualTime, work: EventKind) -> Timed {
        self.inner.queued(time, work)
    }

    /// The lane's own shard's queue directly, another's by one send to its
    /// inbox.
    fn queue(&mut self, queue: &mut TimedQueue, item: Timed) {
        let ix = self.inner.shard_for(&item.work);
        if ix == self.own {
            self.mine += 1;
            queue.push(item);
        } else {
            self.inner.send(ix, item);
        }
    }

    fn owns(&self, pid: ProcessId) -> bool {
        shard_of(pid, self.inner.shards.len()) == self.own
    }

    /// Read from the routing table, without a lock.
    fn route(&mut self, _: &[Option<Local>], env: &Envelope) -> Option<(PartyKind, PartyKind)> {
        let party = |pid: ProcessId| match self.inner.slot(pid) {
            Some(Slot::Party { kind, gone, .. }) if !gone.load(Ordering::Relaxed) => *kind,
            _ => PartyKind::User,
        };
        let dst = self.inner.slot(env.dst);
        dst.map(|_| (party(env.src), party(env.dst)))
    }

    fn hand_over(&mut self, pid: ProcessId) -> Option<Local> {
        Some(match self.inner.slot(pid)? {
            Slot::Party { name, handover, .. } => {
                let (name, kind) = (name.clone(), handover.lock().take()?);
                let live: Arc<dyn Live> = self.inner.clone();
                Local::new(
                    pid,
                    SpawnRequest { name, kind },
                    self.inner.seed,
                    Some(live),
                )
            }
            Slot::Gateway(sink) => Local::Gateway(sink.clone()),
        })
    }

    fn stopped(&mut self, pid: ProcessId) {
        if let Some(Slot::Party { gone, .. }) = self.inner.slot(pid) {
            gone.store(true, Ordering::Relaxed);
        }
    }

    fn exited(&mut self, pid: ProcessId, panic: Option<String>) {
        if let Some(Slot::Party { exit, .. }) = self.inner.slot(pid) {
            let _ = exit.set(panic);
        }
    }
}

struct Inner {
    /// The routing table, at the pid.
    procs: AppendTable<Slot>,
    /// Each shard's inbox.
    shards: Vec<Sender<Inbox>>,
    in_flight: AtomicU64,
    /// Rung when `in_flight` drops to zero.
    settled: Doorbell,
    seq: AtomicU64,
    shutdown: AtomicBool,
    start: Instant,
    seed: u64,
    /// The shards' causal-trace collector.
    tracer: Arc<TraceCollector>,
}

impl Inner {
    /// The shard of the pid `work` is for: a link's sender half takes its
    /// retransmit timer (where the acks it judges arrive), its receiver
    /// half the delayed-ack timer and a seq the sender gave up.
    fn shard_for(&self, work: &EventKind) -> usize {
        let n = self.shards.len();
        match work {
            EventKind::Link(LinkWork::Deliver { env, .. }) => shard_of(env.dst, n),
            EventKind::Link(LinkWork::Retransmit { link }) => shard_of(link.0, n),
            EventKind::Link(LinkWork::AckDue { link } | LinkWork::Abandoned { link, .. }) => {
                shard_of(link.1, n)
            }
            EventKind::Crash { pid, .. } | EventKind::Restart(pid) | EventKind::Wake(pid) => {
                shard_of(*pid, n)
            }
        }
    }

    /// `work` as a queued item due at `time`. `in_flight` counts every
    /// queued item (deliveries, timers, starts and wakes), so quiescence
    /// waits for the reliable sublayer to settle and for every process's
    /// next turn.
    fn queued(&self, time: VirtualTime, work: EventKind) -> Timed {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        let tie = self.seq.fetch_add(1, Ordering::Relaxed);
        Timed { time, tie, work }
    }

    /// `n` queued items are done.
    fn done(&self, n: u64) {
        if self.in_flight.fetch_sub(n, Ordering::AcqRel) == n {
            self.settled.notify();
        }
    }

    /// Sends `item` to shard `ix`'s inbox. A stopped shard reads no more,
    /// so there the item is dropped.
    fn send(&self, ix: usize, item: Timed) {
        let _ = self.shards[ix].send(Inbox::Item(item));
    }

    /// Queues `work` on its shard from any thread: the builder arming crash
    /// timers, spawns, `inject`.
    fn schedule(&self, time: VirtualTime, work: EventKind) {
        self.send(self.shard_for(&work), self.queued(time, work));
    }

    /// Gives `slot` the next pid.
    fn register(&self, slot: Slot) -> ProcessId {
        ProcessId::from_raw(self.procs.push(slot) as u64)
    }

    /// `pid`'s slot, once its spawn has written it.
    fn slot(&self, pid: ProcessId) -> Option<&Slot> {
        self.procs.get(pid.as_raw() as usize)
    }
}

/// One shard thread: its scheduler, and the inbox it is fed by and parks on.
struct Shard {
    sched: Scheduler<Lane>,
    inbox: Receiver<Inbox>,
    /// Asks taken from the inbox, run at the next point between turns.
    asks: Vec<Ask>,
}

impl Shard {
    /// Moves everything in the inbox into the shard's queue (an item) or
    /// its asks; returns how much that was, with what the shard queued for
    /// itself since, so that it looks again before it parks.
    fn collect(&mut self) -> usize {
        let mut n = std::mem::take(&mut self.sched.clock.mine);
        while let Ok(msg) = self.inbox.try_recv() {
            self.take(msg);
            n += 1;
        }
        n
    }

    /// Files one message from the inbox.
    fn take(&mut self, msg: Inbox) {
        match msg {
            Inbox::Item(item) => self.sched.queue.push(item),
            Inbox::Ask(ask) => self.asks.push(ask),
        }
    }

    /// The main loop: collect the inbox, run what is due in batches, give
    /// the batch's ready processes their turns, park on the inbox.
    /// Dropping the shard at shutdown runs its suspended processes out.
    fn run(mut self) {
        let inner = self.sched.clock.inner.clone();
        loop {
            if inner.shutdown.load(Ordering::Acquire) {
                // Drain without running anything and settle the count.
                self.collect();
                inner.done(self.sched.queue.len() as u64);
                return;
            }
            let drained = self.collect();
            // Observers' questions, between turns.
            for ask in std::mem::take(&mut self.asks) {
                ask(&self.sched);
            }
            // Process everything due. The clock is read once a pass, and
            // again only when the head looks not yet due.
            let mut processed = 0u64;
            let mut now = inner.now();
            while let Some(next) = self.sched.queue.peek() {
                if next.time > now {
                    now = inner.now();
                    if next.time > now {
                        break;
                    }
                }
                let item = self.sched.queue.pop().expect("peeked");
                let link_timer = matches!(
                    item.work,
                    EventKind::Link(LinkWork::Retransmit { .. } | LinkWork::AckDue { .. })
                );
                // A link timer judges what has arrived by its due time, so
                // everything due before it comes first, wherever it is
                // queued: the acks it was owed may still be in the inbox.
                let earlier = |next: &Timed| next.key() < item.key();
                if link_timer && self.collect() > 0 && self.sched.queue.peek().is_some_and(earlier)
                {
                    self.sched.queue.push(item);
                    continue;
                }
                self.sched.fire(item);
                processed += 1;
            }
            if processed > 0 {
                self.sched.turns();
                inner.done(processed);
            }
            if processed > 0 || drained > 0 {
                continue; // deliveries often chain; look again before parking
            }
            let wait = match self.sched.queue.peek() {
                Some(next) => Duration::from(next.time.saturating_duration_since(inner.now()))
                    .min(PARK_BACKSTOP),
                None => PARK_BACKSTOP,
            };
            // `Inner`, which the shard's own lane holds, keeps every sender,
            // so the inbox cannot disconnect while the shard runs: an `Err`
            // is the timeout.
            if let Ok(msg) = self.inbox.recv_timeout(wait) {
                self.take(msg);
            }
        }
    }
}

/// A shard that stops (at shutdown, or a handler panicked on it) wakes the
/// quiescence wait, which then finds its thread finished. Its inbox goes
/// with it, and the asks still queued there: they and every later one fail,
/// not wait.
impl Drop for Shard {
    fn drop(&mut self) {
        self.sched.clock.inner.settled.notify();
    }
}

/// The clock and spawns of the runtime, a body's included: the wall clock,
/// read at the call, and a pid that is final when the spawn returns. A
/// user process's first turn is queued on its shard at once.
impl Live for Inner {
    /// The wall clock on the runtime's virtual axis: nanoseconds since its
    /// start.
    fn now(&self) -> VirtualTime {
        let since = self.start.elapsed().as_nanos();
        VirtualTime::from_nanos(since.min(u64::MAX as u128) as u64)
    }

    fn spawn(&self, req: SpawnRequest) -> ProcessId {
        let threaded = matches!(req.kind, SpawnKind::Threaded { .. });
        let pid = self.register(Slot::Party {
            kind: if threaded {
                PartyKind::User
            } else {
                PartyKind::Aid
            },
            name: req.name,
            handover: Mutex::new(Some(req.kind)),
            exit: OnceLock::new(),
            gone: AtomicBool::new(false),
        });
        if threaded {
            self.schedule(self.now(), EventKind::Wake(pid));
        }
        pid
    }
}

/// Configures a [`ThreadedRuntime`]: the shared [`RuntimeBuilder`]
/// setters, plus [`shards`](RuntimeBuilder::shards).
pub type ThreadedRuntimeBuilder = RuntimeBuilder<ThreadedRuntime>;

impl RuntimeBuilder<ThreadedRuntime> {
    /// Number of delivery shards (DESIGN.md §10). Defaults to the
    /// machine's available parallelism. Outcomes are shard-count
    /// independent (processes are partitioned by pid and each link's
    /// traffic stays on one shard); only wall-clock throughput changes.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n.max(1));
        self
    }

    /// Builds and starts the runtime (the shard threads run immediately;
    /// a process runs on its shard as soon as it is spawned).
    /// # Panics
    ///
    /// Panics with the typed `HopeError::InvalidFaultPlan` rendering if
    /// the fault plan fails [`FaultPlan::validate`].
    pub fn build(self) -> ThreadedRuntime {
        let start = Instant::now();
        let nshards = self
            .shards
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let (senders, inboxes): (Vec<_>, Vec<_>) = (0..nshards).map(|_| mpsc::channel()).unzip();
        let inner = Arc::new(Inner {
            procs: AppendTable::new(),
            shards: senders,
            in_flight: AtomicU64::new(0),
            settled: Doorbell::default(),
            seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            start,
            seed: self.seed,
            tracer: self.tracer.clone().unwrap_or_default(),
        });
        let threads = inboxes
            .into_iter()
            .enumerate()
            .map(|(ix, inbox)| {
                let lane = Lane {
                    inner: inner.clone(),
                    own: ix,
                    mine: 0,
                };
                let links = self.links(ix, &inner.tracer);
                std::thread::Builder::new()
                    .name(format!("hope-shard-{ix}"))
                    .spawn(move || {
                        // Built on its thread: a scheduler's processes stay there.
                        let sched = Scheduler::new(lane, links, nshards, self.seed);
                        let asks = Vec::new();
                        Shard { sched, inbox, asks }.run()
                    })
                    .expect("failed to spawn shard")
            })
            .collect();
        for c in self.faults.iter().flat_map(FaultPlan::crashes) {
            let up_at = c.at + c.down_for;
            // Every shard holds link halves the crash touches.
            for ix in 0..nshards {
                inner.send(
                    ix,
                    inner.queued(c.at, EventKind::Crash { pid: c.pid, up_at }),
                );
            }
            inner.schedule(up_at, EventKind::Restart(c.pid));
        }
        ThreadedRuntime { inner, threads }
    }
}

/// The wall-clock runtime: see the type-level discussion at the top of
/// this file's documentation in the crate docs.
pub struct ThreadedRuntime {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadedRuntime {
    /// Starts configuring a runtime.
    pub fn builder() -> ThreadedRuntimeBuilder {
        RuntimeBuilder::new(NetworkConfig::local())
    }

    /// Wall-clock time since the runtime started, as virtual time.
    pub fn now(&self) -> VirtualTime {
        self.inner.now()
    }

    /// The number of delivery shards this runtime runs.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Coroutine stacks mapped so far, over all shards. A process takes a
    /// stack from its shard thread's free list at its first turn, mapping
    /// one only when the list is empty, and returns it when it exits, so
    /// this stays at the peak number of processes running at once, not the
    /// number spawned. The lists die with the shard threads.
    pub fn stacks_mapped(&self) -> usize {
        let shards = 0..self.shards();
        shards
            .map(|ix| self.ask(ix, |sched| sched.stacks_mapped))
            .sum()
    }

    /// Spawns an event-driven actor process.
    pub fn spawn_actor(&self, name: &str, actor: Box<dyn Actor>) -> ProcessId {
        self.inner.spawn(SpawnRequest::actor(name, actor))
    }

    /// Registers an egress gateway: a local pid whose deliveries are
    /// handed to `sink` instead of a process — the seam a network
    /// transport plugs into to represent a remote peer. Sends to the
    /// returned pid traverse the full local fabric (lanes, shards,
    /// latency/fault models, reliable sublayer) before reaching the sink.
    pub fn register_gateway(
        &self,
        _name: &str,
        sink: impl Fn(Envelope) + Send + Sync + 'static,
    ) -> ProcessId {
        self.inner.register(Slot::Gateway(Arc::new(sink)))
    }

    /// Injects an externally-originated envelope (e.g. one received from
    /// a remote node by a [`crate::NetTransport`]) into the local fabric
    /// for delivery to `envelope.dst`. The transport below already
    /// guarantees exactly-once in-order arrival, so the envelope enters
    /// with the reliable sublayer disabled (`seq` forced to 0) and is
    /// delivered like any local original.
    pub fn inject(&self, mut envelope: Envelope) {
        envelope.seq = 0;
        let work = LinkWork::Deliver {
            env: envelope,
            copy: CopyKind::Original,
        };
        self.inner.schedule(self.now(), EventKind::Link(work));
    }

    /// Spawns a threaded user process. Its body starts at once, as a
    /// coroutine on the shard that owns the pid, on a stack an earlier
    /// process may have used: thread-locals and `std::thread::current()`
    /// are that shard's.
    pub fn spawn_threaded<F>(
        &self,
        name: &str,
        control: Option<Box<dyn ControlHandler + Send>>,
        body: F,
    ) -> ProcessId
    where
        F: FnOnce(&mut dyn SysApi) + Send + 'static,
    {
        let req = SpawnRequest::threaded(name, control, Box::new(body));
        self.inner.spawn(req)
    }

    /// Waits (wall clock) until the system has been quiescent — nothing
    /// queued on any shard, and nothing scheduled in between — for
    /// `grace`, or until `timeout` elapses. A process turns only for a
    /// queued item (its start, mail it waits for, a wake, its compute
    /// timer), so then every process is blocked, parked or finished.
    /// Returns the run report, asked of the shards: it panics where an ask
    /// does, and as soon as a handler's panic has stopped a shard.
    pub fn run_until_quiescent(&self, grace: Duration, timeout: Duration) -> RunReport {
        let deadline = Instant::now() + timeout;
        // Start of the current quiet interval and the schedule counter
        // then: two quiet samples bracket a quiet interval only if no work
        // item was scheduled between them.
        let mut quiet_since: Option<(Instant, u64)> = None;
        let mut hit_timeout = true;
        let busy = || self.inner.in_flight.load(Ordering::Acquire) > 0;
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            if self.threads.iter().any(|t| t.is_finished()) {
                break; // the report's ask names the shard
            }
            let scheduled = self.inner.seq.load(Ordering::Acquire);
            match quiet_since {
                Some((since, at)) if !busy() && at == scheduled => {
                    if since.elapsed() >= grace {
                        hit_timeout = false;
                        break;
                    }
                }
                _ => quiet_since = (!busy()).then(|| (Instant::now(), scheduled)),
            }
            // Quiet: sleep the grace out, then look again. Busy: wait for
            // the last queued item to be done.
            let wait = quiet_since.map_or(PARK_BACKSTOP, |(since, _)| {
                grace.saturating_sub(since.elapsed())
            });
            let quiet = quiet_since.is_some();
            self.inner
                .settled
                .park_for(wait.min(left), || !quiet && !busy());
        }
        let (stats, turns) = self.merged();
        let (mut blocked, mut panics) = (Vec::new(), Vec::new());
        for (i, slot) in self.inner.procs.iter() {
            if let Slot::Party {
                kind: PartyKind::User,
                name,
                exit,
                ..
            } = slot
            {
                let pid = ProcessId::from_raw(i as u64);
                match exit.get() {
                    None => blocked.push((pid, name.clone())),
                    Some(panic) => panics.extend(panic.clone().map(|msg| (pid, msg))),
                }
            }
        }
        RunReport {
            now: self.inner.now(),
            events: self.inner.seq.load(Ordering::Relaxed),
            blocked,
            panics,
            stats,
            hit_event_limit: hit_timeout,
            turns,
        }
    }

    /// Message statistics so far: every shard's, asked for and merged
    /// (`srtt_nanos` as the sample-weighted mean of the shards').
    pub fn stats(&self) -> MessageStats {
        self.merged().0
    }

    /// Every shard's statistics and turns, asked for and summed.
    fn merged(&self) -> (MessageStats, u64) {
        let mut total = (MessageStats::new(), 0);
        for ix in 0..self.shards() {
            let (stats, turns) = self.ask(ix, |sched| (sched.stats.clone(), sched.turns));
            total.0.merge(&stats);
            total.1 += turns;
        }
        total
    }

    /// Asks shard `ix`: `f` is queued to the shard and run on its scheduler
    /// between turns while the caller waits. Panics on a shard thread (a
    /// body or a handler), where it could wait for its own shard, and when
    /// the shard has stopped, which would never answer.
    fn ask<T: Send + 'static>(
        &self,
        ix: usize,
        f: impl FnOnce(&Scheduler<Lane>) -> T + Send + 'static,
    ) -> T {
        let me = std::thread::current().id();
        if let Some(on) = self.threads.iter().position(|t| t.thread().id() == me) {
            panic!(
                "shard {ix} was asked on shard {on}'s thread (a process body or a handler), \
                 where it could wait for itself; call it from a driver thread"
            );
        }
        let stopped = || -> ! { panic!("shard {ix} has stopped: a handler panicked on it") };
        let (tx, rx) = mpsc::channel();
        let ask: Ask = Box::new(move |sched| drop(tx.send(f(sched))));
        if self.inner.shards[ix].send(Inbox::Ask(ask)).is_err() {
            stopped();
        }
        rx.recv().unwrap_or_else(|_| stopped())
    }

    /// The shared causal-trace collector (always present; disabled unless
    /// [`hope_types::TraceCollector::enable`]d).
    pub fn tracer(&self) -> Arc<hope_types::TraceCollector> {
        self.inner.tracer.clone()
    }
}

/// An ask to the shard that owns the pid: run there between turns while
/// the caller waits; panics on a shard thread and on a stopped shard.
impl Inspect for ThreadedRuntime {
    fn inspect<T: Send + 'static>(
        &self,
        pid: ProcessId,
        f: impl FnOnce(Option<&dyn ControlHandler>) -> T + Send + 'static,
    ) -> T {
        let ix = shard_of(pid, self.shards());
        self.ask(ix, move |sched| f(sched.control_ref(pid)))
    }
}

impl Drop for ThreadedRuntime {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Wake every shard so it observes the shutdown (an empty ask); a
        // shard runs its suspended processes out as it exits.
        for shard in &self.inner.shards {
            let _ = shard.send(Inbox::Ask(Box::new(|_| ())));
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}
