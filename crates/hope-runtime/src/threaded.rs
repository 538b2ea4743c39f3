//! The wall-clock threaded runtime: N shard threads, real latency, real
//! parallelism across shards, and a wait-free transport between them
//! (DESIGN.md §10).
//!
//! Where [`SimRuntime`](crate::SimRuntime) sequences everything for
//! determinism and virtual time, `ThreadedRuntime` runs N *shards*, one OS
//! thread each, and imposes network latency in *wall time*. A process
//! belongs to shard `pid % N`, which runs its deliveries, its `Control`
//! and, as a coroutine (`threadproc.rs`), its body: body and `Control`
//! take turns on one thread, as HOPElib and its process do in the paper.
//! The same [`SysApi`] / [`ControlHandler`] / [`Actor`] contracts apply,
//! so `hope-core`'s algorithm runs unmodified.
//!
//! Work items — deliveries, link timers, process wakes, crash/restart
//! events — go to the *destination's* shard, which owns a timed queue (a
//! line for deliveries that come in due order, a heap for the rest), its
//! processes, their crash windows and a cached snapshot of the
//! version-validated routing table, and runs each due delivery through the
//! dispatch step both runtimes share (`node.rs`). A shard sends through
//! its `Lane`: one lazily created SPSC ring to each other shard
//! ([`spsc`](crate::spsc)), its own latency and fault models and its own
//! `MessageStats`, merged at report time. The reliable sublayer is striped
//! by link.
//!
//! Within a shard there is no preemption: a body that blocks outside
//! [`SysApi`] (a `std` sleep or channel, a spin on an atomic) stalls its
//! shard's other processes and timers. Use the simulator for experiments
//! and reproducibility; use this runtime to check that outcomes depend on
//! neither virtual time nor one thread (they are the same at every shard
//! count and match the simulator) and to measure the protocol on real
//! threads.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use hope_types::{Envelope, Payload, ProcessId, TraceEventKind, VirtualDuration, VirtualTime};

use crate::actor::Actor;
use crate::control::ControlHandler;
use crate::coro::Stack;
use crate::event::{Routed, Timed, TimedQueue};
use crate::fault::{FaultModel, FaultPlan};
use crate::link::{state_link, Link, LinkWork, Outbound, StatsSink};
use crate::net::{LatencyModel, NetworkConfig};
use crate::node::{self, Host, Step, Target};
use crate::reliable::{CopyKind, LinkId, ReliableState};
use crate::runtime::RuntimeBuilder;
use crate::shard::{shard_of, Doorbell, TableReader, VersionedTable};
use crate::spsc;
use crate::stats::{MessageStats, PartyKind, RunReport};
use crate::sysapi::{ProcessBody, SysApi};
use crate::threadproc::{Live, Proc, SpawnKind, SpawnRequest, Turns};

/// Lock stripes for the reliable sublayer. All state for one link lives
/// in one stripe, so per-link operations contend only with links that
/// hash to the same stripe; crash handling visits every stripe (cold).
const REL_STRIPES: usize = 16;

/// Slots per lane→shard ingress ring. Ring-full sends overflow to the
/// shard's mutex-protected queue, so this bounds the fast path, not the
/// runtime's capacity.
const INGRESS_RING_CAPACITY: usize = 1024;

/// Park-time backstop: a shard never sleeps longer than this without
/// re-checking the world.
const PARK_BACKSTOP: Duration = Duration::from_millis(5);

/// What a scheduled shard work item does when it comes due.
enum Work {
    /// Link-layer work: a message arrival or a retransmission timer.
    Link(LinkWork),
    /// Take a process down until its `Restart` (fault injection).
    Crash(ProcessId),
    /// Bring a crashed process back up and run its recovery hook.
    Restart(ProcessId),
    /// A new process's first turn, or the end of its compute step.
    Wake(ProcessId),
}

impl Routed for Work {
    fn is_delivery(&self) -> bool {
        matches!(self, Work::Link(LinkWork::Deliver { .. }))
    }
}

/// A shard work item scheduled for a wall-clock instant; `tie` is the
/// runtime-global schedule counter (`Inner::seq`).
type Scheduled = Timed<Instant, Work>;

/// What a new process's shard takes from its slot at the process's first
/// work item.
struct Handover {
    control: Option<Box<dyn ControlHandler>>,
    body: ProcessBody,
}

enum Slot {
    /// A garbage-collected actor: deliveries are dropped.
    Gone,
    Actor(Mutex<Box<dyn Actor>>),
    /// A user process, run by its shard; the slot keeps what the report
    /// reads.
    Threaded {
        name: String,
        /// The body and `Control`, until the shard takes them over.
        handover: Mutex<Option<Handover>>,
        /// Set once the body is gone: its panic message, if it unwound.
        exit: OnceLock<Option<String>>,
    },
    /// An egress seam to another runtime: deliveries addressed to this
    /// pid are handed to the sink (e.g. a [`crate::NetTransport`] link to
    /// a remote node) instead of a local process. The inverse direction
    /// is [`ThreadedRuntime::inject`].
    Gateway(Box<dyn Fn(Envelope) + Send + Sync>),
}

/// The cross-thread face of one shard: where lanes register their
/// ingress rings and park/overflow when a ring is full.
#[derive(Default)]
struct ShardHandle {
    /// Consumers registered by lanes, collected by the shard thread.
    ingress: Mutex<Vec<spsc::Consumer<Scheduled>>>,
    /// Bumped on each registration so the shard knows to collect.
    epoch: AtomicU64,
    /// Cold-path queue: ring-full overflow and sends from other threads.
    overflow: Mutex<VecDeque<Scheduled>>,
    overflowed: AtomicBool,
    bell: Doorbell,
    /// The shard's share of the runtime statistics, merged at report
    /// time; the lock is effectively uncontended (the shard writes,
    /// reports read rarely).
    stats: Arc<Mutex<MessageStats>>,
}

/// One shard's sending side of the transport: its ingress rings (one per
/// other shard, created on first use), its own seeded latency and fault
/// models, and its statistics sink.
struct Lane {
    /// The index of the shard that owns the lane.
    own: usize,
    /// What the shard queues for itself, until its next collect.
    mine: Vec<Scheduled>,
    rings: Vec<Option<spsc::Producer<Scheduled>>>,
    latency: Box<dyn LatencyModel>,
    fault: Option<FaultModel>,
    stats: Arc<Mutex<MessageStats>>,
    /// The buffer every link-pipeline step on this lane reports its work
    /// in, kept so a step allocates nothing.
    outbound: Outbound,
}

/// A lane's statistics as lent to one link-pipeline step: locked on
/// first use, held to the end of the step.
struct LaneStats<'a> {
    lane: &'a Mutex<MessageStats>,
    held: Option<MutexGuard<'a, MessageStats>>,
}

impl StatsSink for LaneStats<'_> {
    fn stats(&mut self) -> &mut MessageStats {
        self.held.get_or_insert_with(|| self.lane.lock())
    }
}

impl Lane {
    /// Hands one work item to shard `ix`: wait-free ring push on the fast
    /// path, mutex overflow when the ring is full, then the doorbell. Work
    /// for the lane's own shard takes no ring.
    fn push(&mut self, shards: &[Arc<ShardHandle>], ix: usize, item: Scheduled) {
        if ix == self.own {
            self.mine.push(item);
            return;
        }
        let shard = &shards[ix];
        let slot = &mut self.rings[ix];
        if slot.is_none() {
            let (tx, rx) = spsc::ring(INGRESS_RING_CAPACITY);
            shard.ingress.lock().push(rx);
            shard.epoch.fetch_add(1, Ordering::Release);
            *slot = Some(tx);
        }
        match slot.as_mut().expect("ring created above").push(item) {
            Ok(()) => {}
            Err(item) => {
                // Order across the two paths is restored by the shard's
                // (due, seq) queue: an overflow item lands in its heap when
                // it is earlier than the line's tail. The shard drains the
                // overflow queue before the rings each cycle (see
                // `Shard::collect`), so an overflow item and its ring-bound
                // predecessors always land in the same collect.
                let mut q = shard.overflow.lock();
                q.push_back(item);
                shard.overflowed.store(true, Ordering::Release);
            }
        }
        shard.bell.notify();
    }
}

struct Inner {
    procs: VersionedTable<Arc<Slot>>,
    shards: Vec<Arc<ShardHandle>>,
    in_flight: AtomicU64,
    /// Rung when `in_flight` drops to zero.
    settled: Doorbell,
    seq: AtomicU64,
    /// Template cloned into each lane's latency model.
    network: NetworkConfig,
    /// Template cloned into each lane's fault model (when faults are on).
    fault_plan: Option<FaultPlan>,
    shutdown: AtomicBool,
    start: Instant,
    seed: u64,
    /// Reliable-delivery link state, striped by link; `None` when the
    /// sublayer is off.
    rel: Option<Vec<Mutex<ReliableState>>>,
    max_retransmits: u32,
    /// Causal-trace collector for wire events (disabled unless enabled by
    /// the owner; recording is a single atomic load when off).
    tracer: Arc<hope_types::TraceCollector>,
    /// Coroutine stacks the shards have mapped so far.
    stacks_mapped: AtomicUsize,
    /// Turns the shards have given their processes so far.
    turns: AtomicU64,
}

impl Inner {
    /// `at` on the runtime's virtual axis: nanoseconds since start.
    fn virt(&self, at: Instant) -> VirtualTime {
        let since = at.saturating_duration_since(self.start);
        VirtualTime::from_nanos(since.as_nanos().min(u64::MAX as u128) as u64)
    }

    /// The reliable-state stripe owning `link`, when the sublayer is on.
    fn rel_stripe(&self, link: LinkId) -> Option<&Mutex<ReliableState>> {
        self.rel.as_ref().map(|stripes| {
            let h = link
                .0
                .as_raw()
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(link.1.as_raw().wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
            &stripes[(h % stripes.len() as u64) as usize]
        })
    }

    /// Shard `ix`'s lane, seeded by its index.
    fn new_lane(&self, ix: usize) -> Lane {
        let mix = (ix as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let fault = self.fault_plan.clone().map(|plan| {
            // Decorrelate the per-lane fate streams even when the plan
            // pinned its own seed, keeping the configured rates.
            let base = plan.pinned_seed().unwrap_or(self.seed);
            plan.seed(base ^ mix).into_model(self.seed)
        });
        Lane {
            own: ix,
            mine: Vec::new(),
            rings: (0..self.shards.len()).map(|_| None).collect(),
            latency: self.network.clone().into_model(self.seed ^ mix),
            fault,
            stats: self.shards[ix].stats.clone(),
            outbound: Outbound::new(),
        }
    }

    fn shard_for(&self, work: &Work) -> usize {
        let n = self.shards.len();
        match work {
            Work::Link(LinkWork::Deliver { env, .. }) => shard_of(env.dst, n),
            Work::Link(LinkWork::Retransmit { link } | LinkWork::AckDue { link }) => {
                shard_of(link.1, n)
            }
            Work::Crash(pid) | Work::Restart(pid) | Work::Wake(pid) => shard_of(*pid, n),
        }
    }

    /// `work` as a queued item due at `time`. `in_flight` counts every
    /// queued item (deliveries, timers, starts and wakes), so quiescence
    /// waits for the reliable sublayer to settle and for every process's
    /// next turn.
    fn queued(&self, time: Instant, work: Work) -> Scheduled {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        let tie = self.seq.fetch_add(1, Ordering::Relaxed);
        Scheduled { time, tie, work }
    }

    /// `n` queued items are done.
    fn done(&self, n: u64) {
        if self.in_flight.fetch_sub(n, Ordering::AcqRel) == n {
            self.settled.notify();
        }
    }

    /// Hands one work item to its owning shard, through `lane` or, for
    /// a thread that never sends in volume (the builder arming crash
    /// timers, spawns, `inject`), straight to the overflow queue.
    fn schedule(&self, lane: Option<&mut Lane>, time: Instant, work: Work) {
        let ix = self.shard_for(&work);
        let item = self.queued(time, work);
        match lane {
            Some(lane) => lane.push(&self.shards, ix, item),
            None => {
                let shard = &self.shards[ix];
                shard.overflow.lock().push_back(item);
                shard.overflowed.store(true, Ordering::Release);
                shard.bell.notify();
            }
        }
    }

    /// Runs one link-pipeline step for `link` on `lane` at `at`, then
    /// schedules what it asked for. A send happens when it is made; a
    /// queued item happens when it was *due*, however late the shard runs
    /// (DESIGN.md §10 "Whose clock": on the wall clock each ack would queue
    /// behind the backlog and the timer would resend all of it). The
    /// link's one stripe and the lane's stats are held for the step only,
    /// never across the ring pushes.
    fn step<R>(
        &self,
        lane: &mut Lane,
        link: LinkId,
        at: Instant,
        f: impl FnOnce(&mut Link<'_>, &mut Outbound) -> R,
    ) -> R {
        let mut out = std::mem::take(&mut lane.outbound);
        let result = {
            let mut rel = self.rel_stripe(link).map(|stripe| stripe.lock());
            let mut stats = LaneStats {
                lane: &lane.stats,
                held: None,
            };
            let mut link = Link {
                now: self.virt(at),
                rel: rel.as_mut().map(|stripe| stripe.link_mut(link)),
                stats: &mut stats,
                latency: &mut *lane.latency,
                fault: lane.fault.as_mut(),
                tracer: &self.tracer,
            };
            f(&mut link, &mut out)
        };
        for (delay, work) in out.drain(..) {
            self.schedule(Some(lane), at + Duration::from(delay), Work::Link(work));
        }
        lane.outbound = out;
        result
    }

    fn send(&self, lane: &mut Lane, src: ProcessId, dst: ProcessId, payload: Payload) {
        if self.shutdown.load(Ordering::Acquire) {
            return;
        }
        self.step(lane, (src, dst), Instant::now(), |link, out| {
            link.send(src, dst, payload, out)
        });
    }

    /// Gives `slot` the next pid.
    fn register(&self, slot: Slot) -> ProcessId {
        self.procs.update(move |procs| {
            procs.push(Arc::new(slot));
            ProcessId::from_raw(procs.len() as u64 - 1)
        })
    }

    /// Merges every lane's statistics and recomputes the reliable-layer
    /// aggregate (mean SRTT) from the stripes, which own the truth.
    fn merged_stats(&self) -> MessageStats {
        let mut total = MessageStats::new();
        for shard in &self.shards {
            total.merge(&shard.stats.lock());
        }
        if let Some(stripes) = self.rel.as_ref() {
            let (mut sum, mut links) = (0u64, 0u64);
            for stripe in stripes {
                let (s, n) = stripe.lock().srtt_totals();
                sum = sum.saturating_add(s);
                links += n;
            }
            if let Some(mean) = sum.checked_div(links) {
                total.link_mut().srtt_nanos = mean;
            }
        }
        total
    }
}

/// One shard thread's state: the processes it runs, and what their turns
/// and deliveries use.
struct Shard {
    inner: Arc<Inner>,
    handle: Arc<ShardHandle>,
    lane: Lane,
    reader: TableReader<Arc<Slot>>,
    /// The pids this shard owns that are crashed. Shard-local, so the
    /// hot-path down-check costs nothing.
    down: BTreeSet<u64>,
    /// Collected work, popped in (due, tie) order: deliveries that come in
    /// due order queue in its line, everything else in its heap.
    queue: TimedQueue<Instant, Work>,
    /// The shard's end of its ingress: the rings lanes registered with it
    /// so far.
    rings: Vec<spsc::Consumer<Scheduled>>,
    epoch_seen: u64,
    /// The processes this shard has taken over, at `pid / shards`.
    procs: Vec<Option<Box<Proc>>>,
    /// Those due a turn at the end of the batch, in the order they became
    /// due.
    ready: Vec<usize>,
    /// Stacks whose process exited, ready for the next first turn.
    idle: Vec<Stack>,
}

impl Shard {
    fn new(inner: Arc<Inner>, ix: usize, lane: Lane) -> Shard {
        Shard {
            handle: inner.shards[ix].clone(),
            inner,
            lane,
            reader: TableReader::new(),
            down: BTreeSet::new(),
            queue: TimedQueue::default(),
            rings: Vec::new(),
            epoch_seen: u64::MAX,
            procs: Vec::new(),
            ready: Vec::new(),
            idle: Vec::new(),
        }
    }

    /// Moves everything queued for the shard into its queue, straight from
    /// each source; returns how much that was.
    ///
    /// Drains the overflow queue FIRST, then syncs and drains the ingress
    /// rings: an overflow item exists only because its lane's ring was full
    /// of its predecessors, so the ring drain after it sees every one of
    /// them and the (due, seq) queue restores the order. Rings first races
    /// (DESIGN.md §10 "Ingress lanes").
    fn collect(&mut self) -> usize {
        let (handle, before) = (&self.handle, self.queue.len());
        if handle.overflowed.load(Ordering::Acquire) {
            let mut q = handle.overflow.lock();
            self.queue.extend(q.drain(..));
            handle.overflowed.store(false, Ordering::Release);
        }
        let epoch = handle.epoch.load(Ordering::Acquire);
        if epoch != self.epoch_seen {
            self.rings.append(&mut handle.ingress.lock());
            self.epoch_seen = epoch;
        }
        for ring in self.rings.iter_mut() {
            ring.drain_into(&mut self.queue);
        }
        self.queue.extend(self.lane.mine.drain(..));
        self.queue.len() - before
    }

    /// The main loop: collect ingress, order by due time, run what is due
    /// in batches, park on the doorbell. Dropping the shard at shutdown
    /// runs its suspended processes out.
    fn run(mut self) {
        let inner = self.inner.clone();
        loop {
            if inner.shutdown.load(Ordering::Acquire) {
                // Drain without running anything and settle the count.
                self.collect();
                inner.done(self.queue.len() as u64);
                return;
            }
            let drained = self.collect();
            // Process everything due. The clock is read once a pass, and
            // again only when the head looks not yet due.
            let mut processed = 0u64;
            let mut now = Instant::now();
            while let Some(next) = self.queue.peek() {
                if next.time > now {
                    now = Instant::now();
                    if next.time > now {
                        break;
                    }
                }
                let item = self.queue.pop().expect("peeked");
                let link_timer = matches!(
                    item.work,
                    Work::Link(LinkWork::Retransmit { .. } | LinkWork::AckDue { .. })
                );
                // A link timer judges what has arrived by its due time, so
                // everything due before it comes first, wherever it is
                // queued: what this loop's own deliveries produced (the acks
                // they were owed among it) is still in the shard's lane.
                if link_timer && self.collect() > 0 {
                    let earlier = |next: &Scheduled| (next.time, next.tie) < (item.time, item.tie);
                    if self.queue.peek().is_some_and(earlier) {
                        self.queue.push(item);
                        continue;
                    }
                }
                match item.work {
                    Work::Link(LinkWork::Deliver { env, copy }) => {
                        self.deliver(item.time, env, copy)
                    }
                    Work::Link(LinkWork::Retransmit { link }) => {
                        let cap = inner.max_retransmits;
                        inner.step(&mut self.lane, link, item.time, |l, out| {
                            l.timer(link, cap, out)
                        });
                    }
                    Work::Link(LinkWork::AckDue { link }) => {
                        inner.step(&mut self.lane, link, item.time, |l, out| {
                            l.ack_due(link, out)
                        });
                    }
                    Work::Crash(pid) => self.crash(pid),
                    Work::Restart(pid) => self.restart(pid),
                    Work::Wake(pid) => {
                        if let Some(at) = self.local(pid).filter(|&at| self.proc(at).runnable()) {
                            self.ready(at);
                        }
                    }
                }
                processed += 1;
            }
            if processed > 0 {
                self.turns();
                inner.done(processed);
            }
            if processed > 0 || drained > 0 {
                continue; // deliveries often chain; look again before parking
            }
            let wait = match self.queue.peek() {
                Some(next) => next
                    .time
                    .saturating_duration_since(Instant::now())
                    .min(PARK_BACKSTOP),
                None => PARK_BACKSTOP,
            };
            let Shard {
                handle,
                rings,
                epoch_seen,
                ..
            } = &mut self;
            handle.bell.park_for(wait, || {
                rings.iter_mut().any(|r| !r.is_empty())
                    || handle.overflowed.load(Ordering::Acquire)
                    || handle.epoch.load(Ordering::Acquire) != *epoch_seen
                    || inner.shutdown.load(Ordering::Acquire)
            });
        }
    }

    /// Where `pid`'s process sits in `procs`, taking it over from its slot
    /// at its first work item; `None` if `pid` is not a user process.
    fn local(&mut self, pid: ProcessId) -> Option<usize> {
        let at = pid.as_raw() as usize / self.inner.shards.len();
        if self.procs.get(at).is_some_and(Option::is_some) {
            return Some(at);
        }
        let slots = self.reader.get(&self.inner.procs);
        let Some(Slot::Threaded { handover, .. }) =
            slots.get(pid.as_raw() as usize).map(Arc::as_ref)
        else {
            return None;
        };
        let Handover { control, body } = handover.lock().take()?;
        if self.procs.len() <= at {
            self.procs.resize_with(at + 1, || None);
        }
        let live: Arc<dyn Live> = self.inner.clone();
        let proc = Proc::new(pid, control, body, self.inner.seed, Some(live));
        self.procs[at] = Some(Box::new(proc));
        Some(at)
    }

    fn proc(&mut self, at: usize) -> &mut Proc {
        self.procs[at].as_mut().expect("a taken-over process stays")
    }

    /// Gives the process at `at` a turn once the batch is worked off.
    fn ready(&mut self, at: usize) {
        if !self.ready.contains(&at) {
            self.ready.push(at);
        }
    }

    /// Gives every ready process its turn (`Proc::turn`), so each works
    /// off all the mail the batch brought it in one.
    fn turns(&mut self) {
        let mut ready = std::mem::take(&mut self.ready);
        self.inner
            .turns
            .fetch_add(ready.len() as u64, Ordering::Relaxed);
        for at in ready.drain(..) {
            let mut proc = self.procs[at].take().expect("a taken-over process stays");
            proc.turn(self);
            self.procs[at] = Some(proc);
        }
        self.ready = ready;
    }

    /// Delivery of one envelope that was due at `due`.
    fn deliver(&mut self, due: Instant, envelope: Envelope, copy: CopyKind) {
        // The crash window lives on this shard (the destination's owner),
        // so the down check is a local map lookup; one version-validated
        // table read covers routing and Table 1 party classification for
        // both endpoints.
        let pid = envelope.dst;
        let down = self.down.contains(&pid.as_raw());
        let local = self.local(pid);
        let slots = self.reader.get(&self.inner.procs);
        let party = |pid: ProcessId| match slots.get(pid.as_raw() as usize).map(Arc::as_ref) {
            Some(Slot::Actor(_)) => PartyKind::Aid,
            _ => PartyKind::User,
        };
        let slot = slots.get(pid.as_raw() as usize);
        let route = slot.map(|_| (party(envelope.src), party(pid)));
        let deliver = self
            .inner
            .step(&mut self.lane, state_link(&envelope), due, |link, out| {
                link.arrive(&envelope, copy, down, route, out)
            });
        let (true, Some(slot)) = (deliver, slot) else {
            return;
        };
        let step = {
            let mut held; // the actor's lock, for its step
            let target = match slot.as_ref() {
                Slot::Gone => Target::Gone,
                Slot::Actor(actor) => {
                    held = actor.lock();
                    Target::Actor(&mut **held)
                }
                Slot::Threaded { .. } => {
                    let at = local.expect("a user process is taken over at its first item");
                    let control = &mut self.procs[at].as_mut().expect("taken over").control;
                    Target::Process(move || control)
                }
                Slot::Gateway(sink) => Target::Gateway(&**sink),
            };
            node::deliver(&mut (&*self.inner, &mut self.lane), target, envelope)
        };
        match step {
            Step::Done => {}
            Step::Dropped => self.lane.stats.lock().record_dropped(),
            Step::Stop => self.inner.procs.update(|procs| {
                procs[pid.as_raw() as usize] = Arc::new(Slot::Gone);
            }),
            // A process runs only when what arrived is what it waits for.
            Step::Mail(mail) => {
                let at = local.expect("mail is for a user process");
                if self.proc(at).mail(mail) {
                    self.ready(at);
                }
            }
            Step::Wake => {
                let at = local.expect("a wake is for a user process");
                if self.proc(at).waiting() {
                    self.ready(at);
                }
            }
        }
    }

    /// Fault injection: take `pid` down until its restart. Runs on the
    /// shard that owns `pid`, which also performs all its deliveries, so
    /// the down window needs no synchronization.
    fn crash(&mut self, pid: ProcessId) {
        if !self.down.insert(pid.as_raw()) {
            return; // overlapping crash windows merge
        }
        let now = self.inner.now();
        self.inner.tracer.record(pid, now, TraceEventKind::Crash);
        // Link layer: drop only genuinely-volatile state (RTT estimates);
        // dedup windows and retransmit buffers survive. A crash touches
        // links in any stripe, so visit them all (cold path; stripes are
        // locked one at a time, never nested).
        if let Some(stripes) = self.inner.rel.as_ref() {
            for stripe in stripes {
                stripe.lock().on_crash(pid);
            }
        }
        if let Some(at) = self.local(pid) {
            node::crash(pid, now, self.proc(at).control.as_mut());
        }
    }

    /// Fault injection: bring `pid` back up and run its recovery hook.
    fn restart(&mut self, pid: ProcessId) {
        if !self.down.remove(&pid.as_raw()) {
            return;
        }
        self.inner
            .tracer
            .record(pid, self.inner.now(), TraceEventKind::Restart);
        let Some(at) = self.local(pid) else {
            return;
        };
        let proc = self.procs[at].as_mut().expect("taken over");
        let host = &mut (&*self.inner, &mut self.lane);
        if node::restart(host, pid, proc.control.as_mut()) && proc.waiting() {
            self.ready(at);
        }
    }
}

/// A shard's side of a turn: a body's sends leave through the shard's lane
/// when the turn ends, and a compute step is a wake in the shard's queue
/// (its heap: a wake is not a delivery).
impl Turns for Shard {
    fn stack(&mut self) -> Stack {
        self.idle.pop().unwrap_or_else(|| {
            self.inner.stacks_mapped.fetch_add(1, Ordering::Relaxed);
            Stack::new()
        })
    }

    fn send(&mut self, src: ProcessId, dst: ProcessId, payload: Payload) {
        self.inner.send(&mut self.lane, src, dst, payload);
    }

    fn spawn(&mut self, _: ProcessId, _: SpawnRequest) {
        unreachable!("a spawn on a shard registers at the call")
    }

    fn sleep(&mut self, pid: ProcessId, dur: VirtualDuration) {
        let due = Instant::now() + Duration::from(dur);
        self.queue.push(self.inner.queued(due, Work::Wake(pid)));
    }

    fn exited(&mut self, pid: ProcessId, panic: Option<String>, stack: Option<Stack>) {
        self.idle.extend(stack);
        let slots = self.reader.get(&self.inner.procs);
        if let Some(Slot::Threaded { exit, .. }) = slots.get(pid.as_raw() as usize).map(Arc::as_ref)
        {
            let _ = exit.set(panic);
        }
    }
}

/// What a shard lends the dispatch step: the wall clock, read on each
/// call, and the shard's own lane, so `Control` sends leave inside the
/// handler call.
impl Host for (&Inner, &mut Lane) {
    fn now(&self) -> VirtualTime {
        self.0.now()
    }

    fn send(&mut self, src: ProcessId, dst: ProcessId, payload: Payload) {
        self.0.send(self.1, src, dst, payload);
    }
}

/// The clock and spawns of the runtime, a body's included: the wall clock,
/// read at the call, and a pid that is final when the spawn returns. A
/// user process's first turn is queued on its shard at once.
impl Live for Inner {
    fn now(&self) -> VirtualTime {
        self.virt(Instant::now())
    }

    fn spawn(&self, req: SpawnRequest) -> ProcessId {
        let (control, body) = match req.kind {
            SpawnKind::Actor(actor) => return self.register(Slot::Actor(Mutex::new(actor))),
            SpawnKind::Threaded { control, body } => (control, body),
        };
        let handover = Mutex::new(Some(Handover { control, body }));
        let (name, exit) = (req.name, OnceLock::new());
        let pid = self.register(Slot::Threaded {
            name,
            handover,
            exit,
        });
        self.schedule(None, Instant::now(), Work::Wake(pid));
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
        let (make_rel, max_retransmits) = FaultPlan::sublayer(self.faults.as_ref(), self.reliable);
        let start = Instant::now();
        let nshards = self
            .shards
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let inner = Arc::new(Inner {
            procs: VersionedTable::new(),
            shards: (0..nshards).map(|_| Arc::default()).collect(),
            in_flight: AtomicU64::new(0),
            settled: Doorbell::default(),
            seq: AtomicU64::new(0),
            network: self.network,
            fault_plan: self.faults,
            shutdown: AtomicBool::new(false),
            start,
            seed: self.seed,
            rel: make_rel.map(|make| (0..REL_STRIPES).map(|_| Mutex::new(make())).collect()),
            max_retransmits,
            tracer: self.tracer.unwrap_or_default(),
            stacks_mapped: AtomicUsize::new(0),
            turns: AtomicU64::new(0),
        });
        let threads = (0..nshards)
            .map(|ix| {
                let (inner, lane) = (inner.clone(), inner.new_lane(ix));
                std::thread::Builder::new()
                    .name(format!("hope-shard-{ix}"))
                    .spawn(move || Shard::new(inner, ix, lane).run())
                    .expect("failed to spawn shard")
            })
            .collect();
        for c in inner.fault_plan.iter().flat_map(FaultPlan::crashes) {
            let at = start + Duration::from_nanos(c.at.as_nanos());
            inner.schedule(None, at, Work::Crash(c.pid));
            inner.schedule(None, at + Duration::from(c.down_for), Work::Restart(c.pid));
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

    /// Coroutine stacks mapped so far, over all shards. A process takes an
    /// idle stack of its shard at its first turn and returns it when it
    /// exits, so this stays at the peak number of processes running at
    /// once, not the number spawned.
    pub fn stacks_mapped(&self) -> usize {
        self.inner.stacks_mapped.load(Ordering::Relaxed)
    }

    /// Spawns an event-driven actor process.
    pub fn spawn_actor(&self, _name: &str, actor: Box<dyn Actor>) -> ProcessId {
        self.inner.register(Slot::Actor(Mutex::new(actor)))
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
        self.inner.register(Slot::Gateway(Box::new(sink)))
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
        self.inner.schedule(None, Instant::now(), Work::Link(work));
    }

    /// Spawns a threaded user process. Its body starts at once, as a
    /// coroutine on the shard that owns the pid, on a stack an earlier
    /// process may have used: thread-locals and `std::thread::current()`
    /// are that shard's.
    pub fn spawn_threaded<F>(
        &self,
        name: &str,
        control: Option<Box<dyn ControlHandler>>,
        body: F,
    ) -> ProcessId
    where
        F: FnOnce(&mut dyn SysApi) + Send + 'static,
    {
        let kind = SpawnKind::Threaded {
            control,
            body: Box::new(body),
        };
        self.inner.spawn(SpawnRequest {
            name: name.to_string(),
            kind,
        })
    }

    /// Waits (wall clock) until the system has been quiescent — nothing
    /// queued on any shard, and nothing scheduled in between — for
    /// `grace`, or until `timeout` elapses. A process turns only for a
    /// queued item (its start, mail it waits for, a wake, its compute
    /// timer), so then every process is blocked, parked or finished.
    /// Returns the run report.
    pub fn run_until_quiescent(&self, grace: Duration, timeout: Duration) -> RunReport {
        let deadline = Instant::now() + timeout;
        // Start of the current quiet interval and the schedule counter
        // then: two quiet samples bracket a quiet interval only if no work
        // item was scheduled between them.
        let mut quiet_since: Option<(Instant, u64)> = None;
        let mut hit_timeout = true;
        let busy = || self.inner.in_flight.load(Ordering::Acquire) > 0;
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
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
        let (mut blocked, mut panics) = (Vec::new(), Vec::new());
        for (i, slot) in self.inner.procs.snapshot().iter().enumerate() {
            if let Slot::Threaded { name, exit, .. } = slot.as_ref() {
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
            stats: self.inner.merged_stats(),
            hit_event_limit: hit_timeout,
            turns: self.inner.turns.load(Ordering::Relaxed),
        }
    }

    /// Message statistics so far (all lanes merged).
    pub fn stats(&self) -> MessageStats {
        self.inner.merged_stats()
    }

    /// The shared causal-trace collector (always present; disabled unless
    /// [`hope_types::TraceCollector::enable`]d).
    pub fn tracer(&self) -> Arc<hope_types::TraceCollector> {
        self.inner.tracer.clone()
    }
}

impl Drop for ThreadedRuntime {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Wake every shard so it observes the shutdown; a shard runs its
        // suspended processes out as it exits.
        for shard in &self.inner.shards {
            shard.bell.notify();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}
