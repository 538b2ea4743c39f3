//! The wall-clock threaded runtime: real OS threads, real sleeps, real
//! concurrency — with a sharded, wait-free transport (DESIGN.md §10).
//!
//! Where [`SimRuntime`](crate::SimRuntime) sequences everything for
//! determinism and virtual time, `ThreadedRuntime` runs every user process
//! on its own preemptively scheduled thread and delivers messages through
//! N *delivery shards* that impose the configured network latency in
//! *wall time*. The same [`SysApi`] / [`ControlHandler`] / [`Actor`]
//! contracts apply, so `hope-core`'s entire algorithm — primitives,
//! Control, replay-based rollback — runs unmodified under genuine
//! parallelism.
//!
//! # Transport layout
//!
//! No hot-path lock can contend (DESIGN.md §10 has the whole story).
//! Work items — deliveries, link timers, crash/restart events — go to the
//! *destination's* shard (`pid % N`), which owns a timer heap, its
//! processes' crash windows and a cached snapshot of the version-validated
//! routing table, and runs each due delivery through the dispatch step
//! both runtimes share (`node.rs`). Every sending thread owns a `Lane`:
//! one lazily created SPSC ring per shard ([`spsc`](crate::spsc)), its own
//! latency and fault models and its own `MessageStats`, merged at report
//! time, so a send is a ring push and a doorbell. A process's mailbox is an
//! SPSC ring whose one producer is its shard, with a FIFO spill queue for
//! overflow. The reliable sublayer is striped by link, and a panic lands
//! in its process's own slot.
//!
//! Use the simulator for experiments and reproducibility; use this
//! runtime to validate that nothing depends on the simulator's
//! cooperative scheduling — and, since the sharding, to measure how the
//! protocol scales with cores.

use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hope_types::{Envelope, Payload, ProcessId, TraceEventKind, VirtualDuration, VirtualTime};

use crate::actor::Actor;
use crate::control::ControlHandler;
use crate::event::Timed;
use crate::fault::{FaultModel, FaultPlan};
use crate::link::{state_link, Link, LinkWork, Outbound, StatsSink};
use crate::net::{LatencyModel, NetworkConfig};
use crate::node::{self, Host, Step, Target};
use crate::reliable::{CopyKind, LinkId, ReliableState};
use crate::runtime::RuntimeBuilder;
use crate::shard::{shard_of, Doorbell, TableReader, VersionedTable};
use crate::spsc;
use crate::stats::{MessageStats, PartyKind, RunReport};
use crate::sysapi::{mailbox_position, Received, SysApi};

/// Lock stripes for the reliable sublayer. All state for one link lives
/// in one stripe, so per-link operations contend only with links that
/// hash to the same stripe; crash handling visits every stripe (cold).
const REL_STRIPES: usize = 16;

/// Slots per lane→shard ingress ring. Ring-full sends overflow to the
/// shard's mutex-protected queue, so this bounds the fast path, not the
/// runtime's capacity.
const INGRESS_RING_CAPACITY: usize = 1024;

/// Slots per process mailbox ring. Ring-full deliveries spill to the
/// process's FIFO spill queue, so this bounds the wait-free path, not
/// the mailbox.
const MAILBOX_CAPACITY: usize = 1024;

/// Park-time backstop: shards and processes never sleep longer than this
/// without re-checking the world, mirroring the old dispatcher cadence.
const PARK_BACKSTOP: Duration = Duration::from_millis(5);

/// What a scheduled shard work item does when it comes due.
enum Work {
    /// Link-layer work: a message arrival or a retransmission timer.
    Link(LinkWork),
    /// Take a process down until its `Restart` (fault injection).
    Crash(ProcessId),
    /// Bring a crashed process back up and run its recovery hook.
    Restart(ProcessId),
}

/// A shard work item scheduled for a wall-clock instant; `tie` is the
/// runtime-global schedule counter (`Inner::seq`).
type Scheduled = Timed<Instant, Work>;

/// Per-threaded-process shared state.
struct ProcShared {
    /// Producer end of the mailbox ring. Only the one shard that owns
    /// this pid ever pushes, so the mutex is uncontended by construction
    /// — it exists to satisfy the borrow checker, not to serialize.
    inbox: Mutex<spsc::Producer<Received>>,
    /// FIFO overflow for a full ring. Once `spilled` is set the producer
    /// keeps appending here (so order is preserved) until the consumer
    /// drains the queue and clears the flag under the same lock.
    spill: Mutex<VecDeque<Received>>,
    spilled: AtomicBool,
    bell: Doorbell,
    /// Set by control handlers requesting a wake; consumed by waiters.
    control_poke: AtomicBool,
    /// True while the process is blocked in receive/park (for quiescence).
    idle: AtomicBool,
    /// True once the process body returned.
    done: AtomicBool,
    /// The process's panic message, if its body panicked. Per-process so
    /// one panic can never poison or contend a runtime-global lock.
    panic: Mutex<Option<String>>,
    name: String,
}

impl ProcShared {
    /// Appends one message, ring first, spill on overflow. Called only by
    /// the owning shard (the mailbox's single producer).
    fn push_mail(&self, item: Received) {
        if self.spilled.load(Ordering::Acquire) {
            let mut spill = self.spill.lock();
            // Re-check under the lock: the consumer may have drained the
            // spill (and cleared the flag) while we acquired it.
            if self.spilled.load(Ordering::Acquire) {
                spill.push_back(item);
                return;
            }
        }
        let item = {
            let mut inbox = self.inbox.lock();
            match inbox.push(item) {
                Ok(()) => return,
                Err(item) => item,
            }
        };
        let mut spill = self.spill.lock();
        spill.push_back(item);
        self.spilled.store(true, Ordering::Release);
    }

    /// Rings the process after mail was pushed or a poke was set. It now
    /// has work it has not seen, so it stops counting as idle here, on the
    /// shard, before the batch's `in_flight` decrement: its own thread
    /// clears the flag only once it is scheduled again, and a quiescence
    /// sample landing in between would find nothing in flight and
    /// everyone idle in the middle of a run.
    fn rouse(&self) {
        self.idle.store(false, Ordering::Release);
        self.bell.notify();
    }

    /// Carries out a `Control` wake: the process's thread re-checks its
    /// interrupt predicate, whatever it was doing.
    fn poke(&self) {
        self.control_poke.store(true, Ordering::Release);
        self.rouse();
    }
}

enum Slot {
    /// A garbage-collected actor: deliveries are dropped.
    Gone,
    Actor(Mutex<Box<dyn Actor>>),
    Threaded {
        shared: Arc<ProcShared>,
        control: Mutex<Option<Box<dyn ControlHandler>>>,
        join: Mutex<Option<std::thread::JoinHandle<()>>>,
    },
    /// An egress seam to another runtime: deliveries addressed to this
    /// pid are handed to the sink (e.g. a [`crate::NetTransport`] link to
    /// a remote node) instead of a local process. The inverse direction
    /// is [`ThreadedRuntime::inject`].
    Gateway(Box<dyn Fn(Envelope) + Send + Sync>),
}

/// The cross-thread face of one delivery shard: where lanes register
/// their ingress rings and park/overflow when a ring is full.
#[derive(Default)]
struct ShardHandle {
    /// Consumers registered by lanes, collected by the shard thread.
    ingress: Mutex<Vec<spsc::Consumer<Scheduled>>>,
    /// Bumped on each registration so the shard knows to collect.
    epoch: AtomicU64,
    /// Cold-path queue: ring-full overflow and pre-shard scheduling.
    overflow: Mutex<VecDeque<Scheduled>>,
    overflowed: AtomicBool,
    bell: Doorbell,
    join: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// One sending thread's private view of the transport: its ingress rings
/// (one per shard, created on first use), its own seeded latency and
/// fault models, and its own statistics sink.
struct Lane {
    rings: Vec<Option<spsc::Producer<Scheduled>>>,
    latency: Box<dyn LatencyModel>,
    fault: Option<FaultModel>,
    /// This lane's share of the runtime statistics. The `Arc` is also
    /// registered with the runtime for report-time merging; the lock is
    /// effectively uncontended (the owner writes, reports read rarely).
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
    /// path, mutex overflow when the ring is full, then the doorbell.
    fn push(&mut self, shards: &[Arc<ShardHandle>], ix: usize, item: Scheduled) {
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
                // (due, seq) heap; the shard drains the overflow queue
                // before the rings each cycle (see shard_main) so an
                // overflow item and its ring-bound predecessors always
                // land in the same batch.
                let mut q = shard.overflow.lock();
                q.push_back(item);
                shard.overflowed.store(true, Ordering::Release);
            }
        }
        shard.bell.notify();
    }
}

/// A shard thread's private state.
struct ShardCtx {
    lane: Lane,
    reader: TableReader<Arc<Slot>>,
    /// The pids this shard owns that are crashed. Shard-local, so the
    /// hot-path down-check costs nothing.
    down: BTreeSet<u64>,
}

struct Inner {
    procs: VersionedTable<Arc<Slot>>,
    shards: Vec<Arc<ShardHandle>>,
    in_flight: AtomicU64,
    seq: AtomicU64,
    lane_ids: AtomicU64,
    lane_stats: Mutex<Vec<Arc<Mutex<MessageStats>>>>,
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
}

impl Inner {
    fn now(&self) -> VirtualTime {
        self.virt(Instant::now())
    }

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

    /// Creates a lane for one sending thread and registers its stats sink
    /// for report-time merging.
    fn new_lane(&self) -> Lane {
        let id = self.lane_ids.fetch_add(1, Ordering::Relaxed);
        let mix = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let stats = Arc::new(Mutex::new(MessageStats::new()));
        self.lane_stats.lock().push(stats.clone());
        let fault = self.fault_plan.clone().map(|plan| {
            // Decorrelate the per-lane fate streams even when the plan
            // pinned its own seed, keeping the configured rates.
            let base = plan.pinned_seed().unwrap_or(self.seed);
            plan.seed(base ^ mix).into_model(self.seed)
        });
        Lane {
            rings: (0..self.shards.len()).map(|_| None).collect(),
            latency: self.network.clone().into_model(self.seed ^ mix),
            fault,
            stats,
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
            Work::Crash(pid) | Work::Restart(pid) => shard_of(*pid, n),
        }
    }

    /// Hands one work item to its owning shard, through `lane` or, for
    /// a thread that never sends in volume (the builder arming crash
    /// timers, `inject`), straight to the overflow queue. `in_flight`
    /// counts every queued item (deliveries *and* timers) so quiescence
    /// waits for the reliable sublayer to settle.
    fn schedule(&self, lane: Option<&mut Lane>, time: Instant, work: Work) {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        let tie = self.seq.fetch_add(1, Ordering::Relaxed);
        let ix = self.shard_for(&work);
        let item = Scheduled { time, tie, work };
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

    /// Shard-side delivery of one envelope that was due at `due`.
    fn deliver(&self, sctx: &mut ShardCtx, due: Instant, envelope: Envelope, copy: CopyKind) {
        // The crash window lives on this shard (the destination's owner),
        // so the down check is a local map lookup; one version-validated
        // table read covers routing and Table 1 party classification for
        // both endpoints.
        let pid = envelope.dst;
        let down = sctx.down.contains(&pid.as_raw());
        let procs = sctx.reader.get(&self.procs);
        let party = |pid: ProcessId| match procs.get(pid.as_raw() as usize).map(Arc::as_ref) {
            Some(Slot::Actor(_)) => PartyKind::Aid,
            _ => PartyKind::User,
        };
        let slot = procs.get(pid.as_raw() as usize);
        let route = slot.map(|_| (party(envelope.src), party(pid)));
        let deliver = self.step(&mut sctx.lane, state_link(&envelope), due, |link, out| {
            link.arrive(&envelope, copy, down, route, out)
        });
        let (true, Some(slot)) = (deliver, slot) else {
            return;
        };
        let mut held; // the actor's lock, for its step
        let target = match slot.as_ref() {
            Slot::Gone => Target::Gone,
            Slot::Actor(actor) => {
                held = actor.lock();
                Target::Actor(&mut **held)
            }
            Slot::Threaded { control, .. } => Target::Process(|| control.lock()),
            Slot::Gateway(sink) => Target::Gateway(&**sink),
        };
        let step = node::deliver(&mut (self, &mut sctx.lane), target, envelope);
        match (step, slot.as_ref()) {
            (Step::Dropped, _) => sctx.lane.stats.lock().record_dropped(),
            (Step::Stop, _) => self.procs.update(|procs| {
                procs[pid.as_raw() as usize] = Arc::new(Slot::Gone);
            }),
            (Step::Mail(mail), Slot::Threaded { shared, .. }) => {
                shared.push_mail(mail);
                shared.rouse();
            }
            (Step::Wake, Slot::Threaded { shared, .. }) => shared.poke(),
            _ => {}
        }
    }

    /// Fault injection: take `pid` down until its restart. Runs on the
    /// shard that owns `pid`, which also performs all its deliveries, so
    /// the down window needs no synchronization.
    fn crash(&self, sctx: &mut ShardCtx, pid: ProcessId) {
        if !sctx.down.insert(pid.as_raw()) {
            return; // overlapping crash windows merge
        }
        let now = self.now();
        self.tracer.record(pid, now, TraceEventKind::Crash);
        // Link layer: drop only genuinely-volatile state (RTT estimates,
        // tag-codec state); dedup windows and retransmit buffers survive.
        // A crash touches links in any stripe, so visit them all (cold
        // path; stripes are locked one at a time, never nested).
        if let Some(stripes) = self.rel.as_ref() {
            for stripe in stripes {
                stripe.lock().on_crash(pid);
            }
        }
        let procs = sctx.reader.get(&self.procs);
        if let Some(Slot::Threaded { control, .. }) =
            procs.get(pid.as_raw() as usize).map(Arc::as_ref)
        {
            node::crash(pid, now, control.lock().as_mut());
        }
    }

    /// Fault injection: bring `pid` back up and run its recovery hook.
    fn restart(&self, sctx: &mut ShardCtx, pid: ProcessId) {
        if !sctx.down.remove(&pid.as_raw()) {
            return;
        }
        self.tracer.record(pid, self.now(), TraceEventKind::Restart);
        let procs = sctx.reader.get(&self.procs);
        if let Some(Slot::Threaded {
            shared, control, ..
        }) = procs.get(pid.as_raw() as usize).map(Arc::as_ref)
        {
            if node::restart(&mut (self, &mut sctx.lane), pid, control.lock().as_mut()) {
                shared.poke();
            }
        }
    }

    /// Merges every lane's statistics and recomputes the reliable-layer
    /// aggregate (mean SRTT) from the stripes, which own the truth.
    fn merged_stats(&self) -> MessageStats {
        let mut total = MessageStats::new();
        for lane in self.lane_stats.lock().iter() {
            total.merge(&lane.lock());
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

/// A shard thread's end of its ingress: the rings lanes registered with
/// it so far.
struct Ingress {
    rings: Vec<spsc::Consumer<Scheduled>>,
    epoch_seen: u64,
    batch: Vec<Scheduled>,
}

impl Ingress {
    /// Moves everything queued for the shard into `heap`; returns how
    /// much that was.
    ///
    /// Drains the overflow queue FIRST, then syncs and drains the ingress
    /// rings, all into one batch: an overflow item exists only because its
    /// lane's ring was full of its predecessors, so the ring drain after it
    /// sees every one of them and the (due, seq) heap restores the order.
    /// Rings first races (DESIGN.md §10 "Ingress lanes").
    fn collect(&mut self, handle: &ShardHandle, heap: &mut BinaryHeap<Scheduled>) -> usize {
        self.batch.clear();
        if handle.overflowed.load(Ordering::Acquire) {
            let mut q = handle.overflow.lock();
            self.batch.extend(q.drain(..));
            handle.overflowed.store(false, Ordering::Release);
        }
        let epoch = handle.epoch.load(Ordering::Acquire);
        if epoch != self.epoch_seen {
            self.rings.append(&mut handle.ingress.lock());
            self.epoch_seen = epoch;
        }
        for ring in self.rings.iter_mut() {
            ring.drain_into(&mut self.batch);
        }
        let drained = self.batch.len();
        heap.extend(self.batch.drain(..));
        drained
    }
}

/// One delivery shard's main loop: collect ingress, order by due time,
/// deliver in batches, park on the doorbell.
fn shard_main(inner: Arc<Inner>, ix: usize) {
    let handle = inner.shards[ix].clone();
    let mut sctx = ShardCtx {
        lane: inner.new_lane(),
        reader: TableReader::new(),
        down: BTreeSet::new(),
    };
    let mut ingress = Ingress {
        rings: Vec::new(),
        epoch_seen: u64::MAX,
        batch: Vec::new(),
    };
    let mut heap: BinaryHeap<Scheduled> = BinaryHeap::new();
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            // Drain without delivering and settle the in-flight count.
            ingress.collect(&handle, &mut heap);
            inner
                .in_flight
                .fetch_sub(heap.len() as u64, Ordering::AcqRel);
            return;
        }
        let drained = ingress.collect(&handle, &mut heap);
        // Process everything due.
        let mut processed = 0u64;
        while let Some(next) = heap.peek() {
            if next.time > Instant::now() {
                break;
            }
            let item = heap.pop().expect("peeked");
            let link_timer = matches!(
                item.work,
                Work::Link(LinkWork::Retransmit { .. } | LinkWork::AckDue { .. })
            );
            // A link timer judges what has arrived by its due time, so
            // everything due before it comes first, wherever it is
            // queued: what this loop's own deliveries produced (the acks
            // they were owed among it) is still in the shard's ring to
            // itself.
            if link_timer && ingress.collect(&handle, &mut heap) > 0 {
                let earlier = |next: &Scheduled| (next.time, next.tie) < (item.time, item.tie);
                if heap.peek().is_some_and(earlier) {
                    heap.push(item);
                    continue;
                }
            }
            match item.work {
                Work::Link(LinkWork::Deliver { env, copy }) => {
                    inner.deliver(&mut sctx, item.time, env, copy)
                }
                Work::Link(LinkWork::Retransmit { link }) => {
                    let cap = inner.max_retransmits;
                    inner.step(&mut sctx.lane, link, item.time, |l, out| {
                        l.timer(link, cap, out)
                    });
                }
                Work::Link(LinkWork::AckDue { link }) => {
                    inner.step(&mut sctx.lane, link, item.time, |l, out| {
                        l.ack_due(link, out)
                    });
                }
                Work::Crash(pid) => inner.crash(&mut sctx, pid),
                Work::Restart(pid) => inner.restart(&mut sctx, pid),
            }
            processed += 1;
        }
        if processed > 0 {
            inner.in_flight.fetch_sub(processed, Ordering::AcqRel);
        }
        if processed > 0 || drained > 0 {
            continue; // deliveries often chain; look again before parking
        }
        let wait = match heap.peek() {
            Some(next) => next
                .time
                .saturating_duration_since(Instant::now())
                .min(PARK_BACKSTOP),
            None => PARK_BACKSTOP,
        };
        let Ingress {
            rings, epoch_seen, ..
        } = &mut ingress;
        handle.bell.park_for(wait, || {
            rings.iter_mut().any(|r| !r.is_empty())
                || handle.overflowed.load(Ordering::Acquire)
                || handle.epoch.load(Ordering::Acquire) != *epoch_seen
                || inner.shutdown.load(Ordering::Acquire)
        });
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

/// The [`SysApi`] handed to bodies running on the threaded runtime. Owns
/// the consumer end of the process's mailbox ring and a staging queue
/// where channel-filtered receive scans run without any lock.
struct ThreadedCtx {
    pid: ProcessId,
    inner: Arc<Inner>,
    shared: Arc<ProcShared>,
    lane: Lane,
    rx: spsc::Consumer<Received>,
    staging: VecDeque<Received>,
    scratch: Vec<Received>,
    rng: StdRng,
}

impl ThreadedCtx {
    /// Moves everything currently deliverable into the staging queue:
    /// the ring in one batched drain, then (under the spill lock, where
    /// the producer cannot be mid-overflow) the ring again and the spill.
    fn pump(&mut self) {
        self.rx.drain_into(&mut self.scratch);
        self.staging.extend(self.scratch.drain(..));
        if self.shared.spilled.load(Ordering::Acquire) {
            let mut spill = self.shared.spill.lock();
            // The producer may have refilled the ring *and* spilled
            // between the drain above and this lock. While `spilled` is
            // set the producer never touches the ring, so under the lock
            // every ring message is older than every spill message:
            // re-drain the ring first and FIFO is preserved.
            self.rx.drain_into(&mut self.scratch);
            self.staging.extend(self.scratch.drain(..));
            self.staging.extend(spill.drain(..));
            self.shared.spilled.store(false, Ordering::Release);
        }
    }

    /// Parks on the process doorbell until a control poke (or, with
    /// `mail`, new mail) arrives or the poll backstop elapses (callers
    /// re-check their predicates on every wake).
    fn doze(&mut self, mail: bool) {
        let rx = &mut self.rx;
        let shared = &self.shared;
        shared.idle.store(true, Ordering::Release);
        shared.bell.park_for(PARK_BACKSTOP, || {
            mail && (!rx.is_empty() || shared.spilled.load(Ordering::Acquire))
                || shared.control_poke.load(Ordering::Acquire)
        });
        shared.idle.store(false, Ordering::Release);
    }
}

impl SysApi for ThreadedCtx {
    fn pid(&self) -> ProcessId {
        self.pid
    }

    fn now(&mut self) -> VirtualTime {
        self.inner.now()
    }

    fn send(&mut self, dst: ProcessId, payload: Payload) {
        self.inner.send(&mut self.lane, self.pid, dst, payload);
    }

    fn receive(
        &mut self,
        channel: Option<u32>,
        interrupt: &mut dyn FnMut() -> bool,
    ) -> Option<Received> {
        loop {
            if interrupt() || self.inner.shutdown.load(Ordering::Acquire) {
                return None;
            }
            self.shared.control_poke.store(false, Ordering::Release);
            self.pump();
            if let Some(pos) = mailbox_position(&self.staging, channel) {
                return self.staging.remove(pos);
            }
            if interrupt() {
                return None;
            }
            self.doze(true);
        }
    }

    fn try_receive(&mut self, channel: Option<u32>) -> Option<Received> {
        self.pump();
        let pos = mailbox_position(&self.staging, channel)?;
        self.staging.remove(pos)
    }

    fn requeue_front(&mut self, items: Vec<Received>) {
        for item in items.into_iter().rev() {
            self.staging.push_front(item);
        }
    }

    fn park(&mut self, interrupt: &mut dyn FnMut() -> bool) -> bool {
        loop {
            if interrupt() {
                return true;
            }
            if self.inner.shutdown.load(Ordering::Acquire) {
                return false;
            }
            self.shared.control_poke.store(false, Ordering::Release);
            if interrupt() {
                return true;
            }
            // Park without consuming mail: only a control poke (or the
            // backstop) ends the nap early.
            self.doze(false);
        }
    }

    fn compute(&mut self, dur: VirtualDuration) {
        std::thread::sleep(Duration::from(dur));
    }

    fn spawn_actor(&mut self, _name: &str, actor: Box<dyn Actor>) -> ProcessId {
        ThreadedRuntime::register(&self.inner, Arc::new(Slot::Actor(Mutex::new(actor))))
    }

    fn spawn_threaded(
        &mut self,
        name: &str,
        control: Option<Box<dyn ControlHandler>>,
        body: crate::sysapi::ProcessBody,
    ) -> ProcessId {
        ThreadedRuntime::register_threaded(&self.inner, name, control, body)
    }

    fn random_u64(&mut self) -> u64 {
        self.rng.next_u64()
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
    /// processes run as soon as they are spawned).
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
            seq: AtomicU64::new(0),
            lane_ids: AtomicU64::new(0),
            lane_stats: Mutex::new(Vec::new()),
            network: self.network,
            fault_plan: self.faults,
            shutdown: AtomicBool::new(false),
            start,
            seed: self.seed,
            rel: make_rel.map(|make| (0..REL_STRIPES).map(|_| Mutex::new(make())).collect()),
            max_retransmits,
            tracer: self.tracer.unwrap_or_default(),
        });
        for ix in 0..nshards {
            let shard_inner = inner.clone();
            let handle = std::thread::Builder::new()
                .name(format!("hope-shard-{ix}"))
                .spawn(move || shard_main(shard_inner, ix))
                .expect("failed to spawn shard");
            *inner.shards[ix].join.lock() = Some(handle);
        }
        for c in inner.fault_plan.iter().flat_map(FaultPlan::crashes) {
            let at = start + Duration::from_nanos(c.at.as_nanos());
            inner.schedule(None, at, Work::Crash(c.pid));
            inner.schedule(None, at + Duration::from(c.down_for), Work::Restart(c.pid));
        }
        ThreadedRuntime { inner }
    }
}

/// The wall-clock runtime: see the type-level discussion at the top of
/// this file's documentation in the crate docs.
pub struct ThreadedRuntime {
    inner: Arc<Inner>,
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

    /// Gives `slot` the next pid.
    fn register(inner: &Inner, slot: Arc<Slot>) -> ProcessId {
        inner.procs.update(move |procs| {
            procs.push(slot);
            ProcessId::from_raw(procs.len() as u64 - 1)
        })
    }

    fn register_threaded(
        inner: &Arc<Inner>,
        name: &str,
        control: Option<Box<dyn ControlHandler>>,
        body: crate::sysapi::ProcessBody,
    ) -> ProcessId {
        let (inbox, rx) = spsc::ring::<Received>(MAILBOX_CAPACITY);
        let shared = Arc::new(ProcShared {
            inbox: Mutex::new(inbox),
            spill: Mutex::new(VecDeque::new()),
            spilled: AtomicBool::new(false),
            bell: Doorbell::default(),
            control_poke: AtomicBool::new(false),
            idle: AtomicBool::new(false),
            done: AtomicBool::new(false),
            panic: Mutex::new(None),
            name: name.to_string(),
        });
        let slot = Arc::new(Slot::Threaded {
            shared: shared.clone(),
            control: Mutex::new(control),
            join: Mutex::new(None),
        });
        let pid = Self::register(inner, slot.clone());
        // The lane is created on the spawning thread so lane ids (and
        // with them the per-lane seeds) are deterministic for any
        // deterministic spawn sequence.
        let mut ctx = ThreadedCtx {
            pid,
            inner: inner.clone(),
            shared,
            lane: inner.new_lane(),
            rx,
            staging: VecDeque::new(),
            scratch: Vec::new(),
            rng: StdRng::seed_from_u64(
                inner.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pid.as_raw(),
            ),
        };
        let handle = std::thread::Builder::new()
            .name(format!("hope-rt-{}-{}", pid.as_raw(), name))
            .spawn(move || {
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)));
                let shared = &ctx.shared;
                if let Err(payload) = result {
                    *shared.panic.lock() = Some(crate::runtime::panic_message(payload.as_ref()));
                }
                shared.done.store(true, Ordering::Release);
                shared.idle.store(true, Ordering::Release);
            })
            .expect("failed to spawn process thread");
        if let Slot::Threaded { join, .. } = slot.as_ref() {
            *join.lock() = Some(handle);
        }
        pid
    }

    /// Spawns an event-driven actor process.
    pub fn spawn_actor(&self, _name: &str, actor: Box<dyn Actor>) -> ProcessId {
        Self::register(&self.inner, Arc::new(Slot::Actor(Mutex::new(actor))))
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
        Self::register(&self.inner, Arc::new(Slot::Gateway(Box::new(sink))))
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

    /// Spawns a threaded user process; its body starts running at once.
    pub fn spawn_threaded<F>(
        &self,
        name: &str,
        control: Option<Box<dyn ControlHandler>>,
        body: F,
    ) -> ProcessId
    where
        F: FnOnce(&mut dyn SysApi) + Send + 'static,
    {
        Self::register_threaded(&self.inner, name, control, Box::new(body))
    }

    /// Waits (wall clock) until the system has been quiescent — no
    /// messages in flight, every process idle or finished, and nothing
    /// scheduled in between — for `grace`, or until `timeout` elapses.
    /// Returns the run report.
    pub fn run_until_quiescent(&self, grace: Duration, timeout: Duration) -> RunReport {
        let deadline = Instant::now() + timeout;
        // Start of the current quiet interval and the schedule counter
        // then: two quiet samples bracket a quiet interval only if no work
        // item was scheduled between them.
        let mut quiet_since: Option<(Instant, u64)> = None;
        let mut hit_timeout = true;
        while Instant::now() < deadline {
            let scheduled = self.inner.seq.load(Ordering::Acquire);
            let in_flight = self.inner.in_flight.load(Ordering::Acquire);
            let procs = self.inner.procs.snapshot();
            let all_idle = procs.iter().all(|slot| match slot.as_ref() {
                Slot::Gone | Slot::Actor(_) | Slot::Gateway(_) => true,
                Slot::Threaded { shared, .. } => {
                    shared.idle.load(Ordering::Acquire) || shared.done.load(Ordering::Acquire)
                }
            });
            if in_flight == 0 && all_idle {
                match quiet_since {
                    Some((since, at)) if at == scheduled => {
                        if since.elapsed() >= grace {
                            hit_timeout = false;
                            break;
                        }
                    }
                    _ => quiet_since = Some((Instant::now(), scheduled)),
                }
            } else {
                quiet_since = None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let (mut blocked, mut panics) = (Vec::new(), Vec::new());
        for (i, slot) in self.inner.procs.snapshot().iter().enumerate() {
            if let Slot::Threaded { shared, .. } = slot.as_ref() {
                let pid = ProcessId::from_raw(i as u64);
                if !shared.done.load(Ordering::Acquire) {
                    blocked.push((pid, shared.name.clone()));
                }
                panics.extend(shared.panic.lock().clone().map(|msg| (pid, msg)));
            }
        }
        RunReport {
            now: self.inner.now(),
            events: self.inner.seq.load(Ordering::Relaxed),
            blocked,
            panics,
            stats: self.inner.merged_stats(),
            hit_event_limit: hit_timeout,
            turns: 0,
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
        // Wake every shard and every parked process so they observe the
        // shutdown.
        for shard in &self.inner.shards {
            shard.bell.notify();
        }
        for slot in self.inner.procs.snapshot().iter() {
            if let Slot::Threaded { shared, .. } = slot.as_ref() {
                shared.poke();
            }
        }
        for shard in &self.inner.shards {
            if let Some(handle) = shard.join.lock().take() {
                let _ = handle.join();
            }
        }
        for slot in self.inner.procs.snapshot().iter() {
            if let Slot::Threaded { join, .. } = slot.as_ref() {
                let handle = join.lock().take();
                if let Some(handle) = handle {
                    let _ = handle.join();
                }
            }
        }
    }
}
