//! The one scheduler both runtimes run (DESIGN.md §10 "One scheduler, two
//! clocks"): a queue of timed work, the actors and processes it owns,
//! their crash windows, and their turns. The simulator is one on a virtual
//! clock; the threaded runtime one per shard on the wall clock, owning the
//! pids `pid % n` names it. What differs is the [`Clock`].

use std::collections::BTreeMap;
use std::sync::Arc;

use hope_types::{Envelope, Payload, ProcessId, TraceCollector, TraceEventKind, VirtualTime};

use crate::actor::Actor;
use crate::coro::Stack;
use crate::event::{EventKind, Timed, TimedQueue};
use crate::link::{state_link, Link, LinkWork, Outbound};
use crate::node::{self, Host, Step, Target};
use crate::reliable::{CopyKind, LinkId};
use crate::stats::PartyKind;
use crate::threadproc::{Live, Proc, SpawnKind, SpawnRequest};

/// What one runtime lends its schedulers: the clock, the tie, where a
/// send's work goes, the link record, and the routing table.
pub(crate) trait Clock {
    /// The time a handler or a body reads now.
    fn now(&self) -> VirtualTime;
    /// `work` due at `time`, with the tie that orders it among equals.
    fn stamp(&mut self, time: VirtualTime, work: EventKind) -> Timed;
    /// Runs one link-pipeline step for `link` at `at`, then queues what it
    /// asked for: on `queue` when it is this scheduler's, else elsewhere.
    fn step<R>(
        &mut self,
        queue: &mut TimedQueue,
        link: LinkId,
        at: VirtualTime,
        f: impl FnOnce(&mut Link<'_>, &mut Outbound) -> R,
    ) -> R;
    /// `src` sends `payload` to `dst` now.
    fn send(&mut self, queue: &mut TimedQueue, src: ProcessId, dst: ProcessId, payload: Payload) {
        let now = self.now();
        self.step(queue, (src, dst), now, |l, out| {
            l.send(src, dst, payload, out)
        });
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
    /// The link layer forgets what a crash of `pid` destroys.
    fn crash_links(&mut self, pid: ProcessId);
    /// The actor at `pid` stopped.
    fn stopped(&mut self, _: ProcessId) {}
    /// `pid`'s body is gone, with its panic message if it unwound.
    fn exited(&mut self, pid: ProcessId, panic: Option<String>);
    /// Counts a message the dispatch step dropped.
    fn dropped(&mut self);
    fn tracer(&self) -> &TraceCollector;
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
    /// The pids this scheduler owns, at `pid / n`: `None` before a shard
    /// takes the pid over, and while a process is out for its turn.
    pub locals: Vec<Option<Local>>,
    n: usize,
    /// Crashed pids and their restart times.
    pub down: BTreeMap<u64, VirtualTime>,
    /// Processes due a turn, in the order they became due.
    ready: Vec<usize>,
    /// Stacks whose process exited, ready for the next first turn.
    idle: Vec<Stack>,
    pub stacks_mapped: usize,
    pub turns: u64,
    pub seed: u64,
    max_retransmits: u32,
}

impl<C: Clock> Scheduler<C> {
    pub fn new(clock: C, n: usize, seed: u64, max_retransmits: u32) -> Self {
        Scheduler {
            clock,
            queue: TimedQueue::default(),
            locals: Vec::new(),
            n,
            down: BTreeMap::new(),
            ready: Vec::new(),
            idle: Vec::new(),
            stacks_mapped: 0,
            turns: 0,
            seed,
            max_retransmits,
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
                let cap = self.max_retransmits;
                self.clock
                    .step(&mut self.queue, link, at, |l, out| l.timer(link, cap, out));
            }
            EventKind::Link(LinkWork::AckDue { link }) => {
                self.clock
                    .step(&mut self.queue, link, at, |l, out| l.ack_due(link, out));
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

    /// Runs `due` on `pid`'s process, if it is one, and makes the process
    /// ready for a turn if `due` says that what happened is what it waits
    /// for.
    fn ready_if(&mut self, pid: ProcessId, due: impl FnOnce(&mut Proc, &mut Sends<'_, C>) -> bool) {
        let Some(at) = self.local(pid) else {
            return;
        };
        if let Some(Local::Proc(proc)) = &mut self.locals[at] {
            if due(proc, &mut (&mut self.clock, &mut self.queue)) && !self.ready.contains(&at) {
                self.ready.push(at);
            }
        }
    }

    fn deliver(&mut self, due: VirtualTime, env: Envelope, copy: CopyKind) {
        let pid = env.dst;
        let down = self.down.contains_key(&pid.as_raw());
        let local = self.local(pid);
        let route = self.clock.route(&self.locals, &env);
        let deliver = self
            .clock
            .step(&mut self.queue, state_link(&env), due, |link, out| {
                link.arrive(&env, copy, down, route, out)
            });
        let (true, Some(at)) = (deliver, local) else {
            return;
        };
        let target = match &mut self.locals[at] {
            Some(Local::Actor { actor, .. }) => Target::Actor(&mut **actor),
            Some(Local::Proc(proc)) => Target::Process(&mut proc.control),
            Some(Local::Gateway(sink)) => Target::Gateway(&**sink),
            Some(Local::Gone) | None => Target::Gone,
        };
        match node::deliver(&mut (&mut self.clock, &mut self.queue), target, env) {
            Step::Done => {}
            Step::Dropped => self.clock.dropped(),
            Step::Stop => {
                self.locals[at] = Some(Local::Gone);
                self.clock.stopped(pid);
            }
            // A process runs only when what arrived is what it waits for.
            Step::Mail(mail) => self.ready_if(pid, |proc, _| proc.mail(mail)),
            Step::Wake => self.ready_if(pid, |proc, _| proc.waiting()),
        }
    }

    fn crash(&mut self, pid: ProcessId, up_at: VirtualTime) {
        if self.down.insert(pid.as_raw(), up_at).is_some() {
            return; // overlapping crash windows merge
        }
        let now = self.clock.now();
        self.clock.tracer().record(pid, now, TraceEventKind::Crash);
        // The link layer loses only what a crash genuinely destroys (RTT
        // estimates); dedup windows and retransmit buffers survive.
        self.clock.crash_links(pid);
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
        self.clock
            .tracer()
            .record(pid, now, TraceEventKind::Restart);
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
            {
                // A simulated turn runs at the clock's instant, and its
                // spawns number themselves from the next free slot.
                let mut shared = proc.shared.borrow_mut();
                shared.now = self.clock.now();
                shared.next_pid = self.locals.len() as u64;
            }
            self.turns += 1;
            proc.turn(self);
            self.locals[at] = Some(Local::Proc(proc));
        }
        self.ready = ready;
    }

    /// A stack for a first turn: an idle one, or a new mapping.
    pub fn stack(&mut self) -> Stack {
        self.idle.pop().unwrap_or_else(|| {
            self.stacks_mapped += 1;
            Stack::new()
        })
    }

    pub fn send(&mut self, src: ProcessId, dst: ProcessId, payload: Payload) {
        self.clock.send(&mut self.queue, src, dst, payload);
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

    /// `pid` is gone; its stack, if it still has one, is free.
    pub fn exited(&mut self, pid: ProcessId, panic: Option<String>, stack: Option<Stack>) {
        self.clock.exited(pid, panic);
        self.idle.extend(stack);
    }
}

/// What a handler sends through: its scheduler's clock and queue.
type Sends<'a, C> = (&'a mut C, &'a mut TimedQueue);

/// A handler's sends leave as it makes them. Nothing runs between them —
/// the body is suspended while its `Control` runs — so this is the order
/// buffering them would give.
impl<C: Clock> Host for Sends<'_, C> {
    fn now(&self) -> VirtualTime {
        self.0.now()
    }

    fn send(&mut self, src: ProcessId, dst: ProcessId, payload: Payload) {
        self.0.send(self.1, src, dst, payload);
    }
}
