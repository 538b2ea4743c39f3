//! The one scheduler both runtimes run (DESIGN.md §10 "One scheduler, two
//! clocks"): a queue of timed work, the actors and processes it owns, their
//! crash windows and turns, and the link halves they use. The simulator is
//! one on a virtual clock; the threaded runtime one per shard on the wall
//! clock, owning the pids `pid % n` names it. What differs is the [`Clock`].

use std::collections::BTreeMap;
use std::sync::Arc;

use hope_types::{Envelope, Payload, ProcessId, TraceCollector, TraceEventKind, VirtualTime};

use crate::actor::Actor;
use crate::control::ControlHandler;
use crate::coro::Stack;
use crate::event::{EventKind, Timed, TimedQueue};
use crate::fault::FaultModel;
use crate::link::{state_link, Link, LinkWork, Outbound};
use crate::net::LatencyModel;
use crate::node::{self, Host, Step, Target};
use crate::reliable::{CopyKind, LinkId, ReliableState};
use crate::stats::{MessageStats, PartyKind};
use crate::threadproc::{Live, Proc, SpawnKind, SpawnRequest};

/// What one runtime lends its schedulers: the clock, the tie, where a
/// queued item goes, and the routing table.
pub(crate) trait Clock {
    /// The time a handler or a body reads now.
    fn now(&self) -> VirtualTime;
    /// `work` due at `time`, with the tie that orders it among equals.
    fn stamp(&mut self, time: VirtualTime, work: EventKind) -> Timed;
    /// Hands `item` to its scheduler: onto `queue` when that is this one.
    fn queue(&mut self, queue: &mut TimedQueue, item: Timed);
    /// Whether `pid` is this scheduler's.
    fn owns(&self, _: ProcessId) -> bool {
        true
    }
    /// The Table 1 party kinds of an arrival's ends, `None` when its
    /// destination was never spawned; `locals` answers when every pid is
    /// local.
    fn route(
        &mut self,
        locals: &[Option<Local>],
        env: &Envelope,
    ) -> Option<(PartyKind, PartyKind)> {
        let party = |pid: ProcessId| match locals.get(pid.as_raw() as usize) {
            Some(Some(Local::Actor { .. })) => PartyKind::Aid,
            _ => PartyKind::User,
        };
        ((env.dst.as_raw() as usize) < locals.len()).then(|| (party(env.src), party(env.dst)))
    }
    /// `pid`'s entry, for a scheduler that takes its pids over at their
    /// first work item rather than at their spawn.
    fn hand_over(&mut self, _: ProcessId) -> Option<Local> {
        None
    }
    /// The actor at `pid` stopped.
    fn stopped(&mut self, _: ProcessId) {}
    /// `pid`'s body is gone, with its panic message if it unwound.
    fn exited(&mut self, pid: ProcessId, panic: Option<String>);
}

/// The link halves a scheduler holds and what a step on them draws on: a
/// link's sender half is used where its sender runs, its receiver half
/// where its receiver runs, so each half has one owner and no lock.
pub(crate) struct Links {
    /// The sublayer's records, when it is on.
    pub rel: Option<ReliableState>,
    pub latency: Box<dyn LatencyModel>,
    /// `None` on a fault-free wire.
    pub fault: Option<FaultModel>,
    pub max_retransmits: u32,
    /// Where every step reports its work, kept so a step allocates nothing.
    pub outbound: Outbound,
    /// The sum and number of the SRTTs of the sampled links held here,
    /// kept as samples and crashes change them.
    pub srtt: (u64, u64),
    pub tracer: Arc<TraceCollector>,
}

/// What a scheduler holds for one pid it owns.
pub(crate) enum Local {
    /// A stopped actor: deliveries are dropped.
    Gone,
    Actor {
        name: String,
        actor: Box<dyn Actor>,
    },
    Proc(Box<Proc>),
    /// An egress seam to another runtime (threaded runtime only).
    Gateway(Arc<dyn Fn(Envelope) + Send + Sync>),
}

impl Local {
    pub fn new(pid: ProcessId, req: SpawnRequest, seed: u64, live: Option<Arc<dyn Live>>) -> Local {
        let name = req.name;
        match req.kind {
            SpawnKind::Actor(actor) => Local::Actor { name, actor },
            SpawnKind::Threaded { control, body } => {
                Local::Proc(Box::new(Proc::new(pid, name, control, body, seed, live)))
            }
        }
    }
}

pub(crate) struct Scheduler<C> {
    pub clock: C,
    pub queue: TimedQueue,
    pub links: Links,
    /// What this scheduler's steps counted (on a shard, read by asking it).
    pub stats: MessageStats,
    /// The pids this scheduler owns, at `pid / n`: `None` before a shard
    /// takes the pid over, and while a process is out for its turn.
    pub locals: Vec<Option<Local>>,
    n: usize,
    /// Crashed pids and their restart times.
    pub down: BTreeMap<u64, VirtualTime>,
    /// Processes due a turn, in the order they became due.
    ready: Vec<usize>,
    /// Stacks this scheduler mapped anew, finding its thread's free list
    /// empty.
    pub stacks_mapped: usize,
    pub turns: u64,
    pub seed: u64,
}

impl<C: Clock> Scheduler<C> {
    pub fn new(clock: C, links: Links, n: usize, seed: u64) -> Self {
        Scheduler {
            clock,
            queue: TimedQueue::default(),
            links,
            stats: MessageStats::new(),
            locals: Vec::new(),
            n,
            down: BTreeMap::new(),
            ready: Vec::new(),
            stacks_mapped: 0,
            turns: 0,
            seed,
        }
    }

    /// Queues `work` due at `time`.
    pub fn push(&mut self, time: VirtualTime, work: EventKind) {
        let item = self.clock.stamp(time, work);
        self.queue.push(item);
    }

    /// Carries out one due item at its time; the processes it makes ready
    /// wait for [`Scheduler::turns`].
    pub fn fire(&mut self, item: Timed) {
        let at = item.time;
        match item.work {
            EventKind::Link(LinkWork::Deliver { env, copy }) => self.deliver(at, env, copy),
            EventKind::Link(LinkWork::Retransmit { link }) => {
                let (cap, here) = (self.links.max_retransmits, self.clock.owns(link.1));
                self.step(link, at, |l, out| l.timer(link, cap, here, out));
            }
            EventKind::Link(LinkWork::AckDue { link }) => {
                self.step(link, at, |l, out| l.ack_due(link, out));
            }
            EventKind::Link(LinkWork::Abandoned { link, seq }) => {
                self.step(link, at, |l, _| l.abandoned(seq));
            }
            // A crashed process does not run: its wake waits for the restart.
            EventKind::Wake(pid) => match self.down.get(&pid.as_raw()) {
                Some(&up_at) => self.push(up_at, EventKind::Wake(pid)),
                None => self.ready_if(pid, |proc, _| proc.runnable()),
            },
            EventKind::Crash { pid, up_at } => self.crash(pid, up_at),
            EventKind::Restart(pid) => self.restart(pid),
        }
    }

    /// Whether `item` is a retransmit timer whose link has nothing
    /// unacknowledged here. Firing it resends nothing and leaves the link
    /// without a timer, whenever it fires: a later send arms a new one,
    /// due when this one would have found that send due.
    pub fn idle_timer(&self, item: &Timed) -> bool {
        match (&item.work, &self.links.rel) {
            (EventKind::Link(LinkWork::Retransmit { link }), Some(rel)) => rel.idle(*link),
            _ => false,
        }
    }

    /// Where `pid`'s entry sits in `locals`, taking it over if need be.
    fn local(&mut self, pid: ProcessId) -> Option<usize> {
        let at = pid.as_raw() as usize / self.n;
        if self.locals.get(at).is_some_and(Option::is_some) {
            return Some(at);
        }
        let local = self.clock.hand_over(pid)?;
        if self.locals.len() <= at {
            self.locals.resize_with(at + 1, || None);
        }
        self.locals[at] = Some(local);
        Some(at)
    }

    /// Runs one link-pipeline step for `link` at `at` on the halves of it
    /// held here — the one [`Link`] either runtime builds — then hands on
    /// what it asked for, in the order asked (event ties follow it). A
    /// queued item's step runs at its *due* time (DESIGN.md §10 "Whose
    /// clock").
    fn step<R>(
        &mut self,
        link: LinkId,
        at: VirtualTime,
        f: impl FnOnce(&mut Link<'_>, &mut Outbound) -> R,
    ) -> R {
        let links = &mut self.links;
        let mut out = std::mem::take(&mut links.outbound);
        let mut lent = Link {
            now: at,
            rel: links.rel.as_mut().map(|rel| rel.link_mut(link)),
            stats: &mut self.stats,
            latency: &mut *links.latency,
            fault: links.fault.as_mut(),
            tracer: &links.tracer,
        };
        let before = lent.rel.as_ref().map(|rec| rec.rtt());
        let result = f(&mut lent, &mut out);
        // `srtt_nanos` is the mean across sampled links at the last
        // sample, kept without a walk over the links.
        if let (Some(old), Some(new)) = (before, lent.rel.as_ref().map(|rec| rec.rtt())) {
            if new.samples() != old.samples() {
                let (sum, sampled) = &mut links.srtt;
                *sum = *sum - old.srtt_nanos() + new.srtt_nanos();
                *sampled += u64::from(old.samples() == 0);
                let mean = *sum / *sampled;
                debug_assert_eq!(Some(mean), links.rel.as_ref().map(|r| r.mean_srtt_nanos()));
                self.stats.link_mut().srtt_nanos = mean;
            }
        }
        for (delay, work) in out.drain(..) {
            let item = self.clock.stamp(at + delay, EventKind::Link(work));
            self.clock.queue(&mut self.queue, item);
        }
        self.links.outbound = out;
        result
    }

    /// Runs `due` on `pid`'s process, if it is one, and makes the process
    /// ready for a turn if `due` says that what happened is what it waits
    /// for. The process is out of its slot for the call, so that a
    /// handler's sends can go through the scheduler.
    fn ready_if(&mut self, pid: ProcessId, due: impl FnOnce(&mut Proc, &mut Self) -> bool) {
        let Some(at) = self.local(pid) else {
            return;
        };
        let is_proc = |local: &mut Local| matches!(local, Local::Proc(_));
        let Some(Local::Proc(mut proc)) = self.locals[at].take_if(is_proc) else {
            return;
        };
        let due = due(&mut proc, self);
        self.locals[at] = Some(Local::Proc(proc));
        if due && !self.ready.contains(&at) {
            self.ready.push(at);
        }
    }

    fn deliver(&mut self, due: VirtualTime, env: Envelope, copy: CopyKind) {
        let pid = env.dst;
        let down = self.down.contains_key(&pid.as_raw());
        let local = self.local(pid);
        let route = self.clock.route(&self.locals, &env);
        let deliver = self.step(state_link(&env), due, |link, out| {
            link.arrive(&env, copy, down, route, out)
        });
        let (true, Some(at)) = (deliver, local) else {
            return;
        };
        // Out of its slot for the handler call, like a process for its turn.
        let mut slot = self.locals[at].take();
        let target = match &mut slot {
            Some(Local::Actor { actor, .. }) => Target::Actor(&mut **actor),
            Some(Local::Proc(proc)) => Target::Process(&mut proc.control),
            Some(Local::Gateway(sink)) => Target::Gateway(&**sink),
            Some(Local::Gone) | None => Target::Gone,
        };
        let step = node::deliver(self, target, env);
        self.locals[at] = slot;
        match step {
            Step::Done => {}
            Step::Dropped => self.stats.record_dropped(),
            Step::Stop => {
                self.locals[at] = Some(Local::Gone);
                self.clock.stopped(pid);
            }
            // A process runs only when what arrived is what it waits for.
            Step::Mail(mail) => self.ready_if(pid, |proc, _| proc.mail(mail)),
            Step::Wake => self.ready_if(pid, |proc, _| proc.waiting()),
        }
    }

    /// Every scheduler forgets what the crash destroys of the link halves
    /// it holds; only `pid`'s own takes it down.
    fn crash(&mut self, pid: ProcessId, up_at: VirtualTime) {
        let own = self.clock.owns(pid);
        if own && self.down.insert(pid.as_raw(), up_at).is_some() {
            return; // overlapping crash windows merge
        }
        // The link layer loses only what a crash genuinely destroys (RTT
        // estimates); dedup windows and retransmit buffers survive.
        if let Some(rel) = self.links.rel.as_mut() {
            let (sum, sampled) = rel.on_crash(pid);
            self.links.srtt = (self.links.srtt.0 - sum, self.links.srtt.1 - sampled);
        }
        if !own {
            return;
        }
        let now = self.clock.now();
        self.links.tracer.record(pid, now, TraceEventKind::Crash);
        self.ready_if(pid, |proc, _| {
            node::crash(pid, now, proc.control.as_mut());
            false
        });
    }

    fn restart(&mut self, pid: ProcessId) {
        if self.down.remove(&pid.as_raw()).is_none() {
            return;
        }
        let now = self.clock.now();
        self.links.tracer.record(pid, now, TraceEventKind::Restart);
        self.ready_if(pid, |proc, host| {
            node::restart(host, pid, proc.control.as_mut()) && proc.waiting()
        });
    }

    /// Gives every ready process its turn, in the order it became ready.
    pub fn turns(&mut self) {
        let mut ready = std::mem::take(&mut self.ready);
        for at in ready.drain(..) {
            // Out of its slot for the turn: the turn's spawns register.
            let Some(Local::Proc(mut proc)) = self.locals[at].take() else {
                unreachable!("only a process takes turns")
            };
            self.turns += 1;
            proc.turn(self);
            self.locals[at] = Some(Local::Proc(proc));
        }
        self.ready = ready;
    }

    /// `pid`'s `Control`, if it is a process here that has one. Never
    /// called while the process is out for its turn.
    pub fn control_ref(&self, pid: ProcessId) -> Option<&dyn ControlHandler> {
        match self.locals.get(pid.as_raw() as usize / self.n)? {
            Some(Local::Proc(proc)) => proc.control.as_deref(),
            _ => None,
        }
    }

    /// A stack for a first turn: from this thread's free list, or a new
    /// mapping.
    pub fn stack(&mut self) -> Stack {
        let (stack, mapped) = Stack::take();
        self.stacks_mapped += usize::from(mapped);
        stack
    }

    /// Sends `payload` from `src` to `dst` as of `at`, a clock reading
    /// the caller took.
    pub fn send(&mut self, at: VirtualTime, src: ProcessId, dst: ProcessId, payload: Payload) {
        self.step((src, dst), at, |l, out| l.send(src, dst, payload, out));
    }

    /// Places `req` at the next pid now, as the simulator spawns (its
    /// every pid is local); a user process starts at the current time.
    pub fn register(&mut self, req: SpawnRequest) -> ProcessId {
        let pid = ProcessId::from_raw(self.locals.len() as u64);
        let local = Local::new(pid, req, self.seed, None);
        if matches!(local, Local::Proc(_)) {
            self.push(self.clock.now(), EventKind::Wake(pid));
        }
        self.locals.push(Some(local));
        pid
    }
}

/// A handler's sends leave as it makes them. Nothing runs between them —
/// the body is suspended while its `Control` runs — so this is the order
/// buffering them would give.
impl<C: Clock> Host for Scheduler<C> {
    fn now(&self) -> VirtualTime {
        self.clock.now()
    }

    fn send(&mut self, src: ProcessId, dst: ProcessId, payload: Payload) {
        let now = self.clock.now();
        Scheduler::send(self, now, src, dst, payload);
    }
}
