//! User processes as coroutines, and the turn protocol both runtimes share.
//!
//! A user process runs on a stack of its own ([`crate::coro`]) but on the
//! thread of the [`Scheduler`] that owns it: the simulator's, or the
//! threaded runtime's shard that owns the pid and also runs its `Control`.
//! The two take strict turns: the scheduler switches into the process,
//! which runs until it yields (by blocking in `receive`, parking, spending
//! compute time, or exiting) and switches back. Exactly one party runs at
//! any instant, so `Control` never runs while the body does, and user code
//! is still written as ordinary blocking Rust. A scheduler resumes a
//! process only when what arrived is what it waits for ([`Proc::mail`],
//! [`Proc::waiting`]) and carries out the turn ([`Proc::turn`]).
//!
//! Sends do not yield. They go into the process's ordered outbox, which
//! the runtime carries out when the turn ends. A spawn does not yield
//! either: on the simulator it joins the outbox with the next free pid,
//! handed over with the turn; on the threaded runtime ([`Live`]) it is
//! registered at once.
//!
//! Stacks are reused. A process gets its stack at its first resume, from
//! the running thread's free list or a new mapping, and the stack goes
//! back to that list when the body exits, to serve any runtime on the
//! thread. Thread-locals and `std::thread::current()` are the running
//! thread's, not the process's.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hope_types::{Payload, ProcessId, VirtualDuration, VirtualTime};

use crate::actor::Actor;
use crate::control::ControlHandler;
use crate::coro::{Coroutine, Yielder};
use crate::event::EventKind;
use crate::scheduler::{Clock, Scheduler};
use crate::sysapi::{ProcessBody, Received, SysApi};

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

/// Process → runtime control transfer.
pub(crate) enum YieldMsg {
    /// The process is blocked waiting for a user message.
    Blocked {
        /// Optional channel filter of the pending `receive`.
        channel: Option<u32>,
    },
    /// The process waits for a control wake without consuming messages.
    Park,
    /// The process spends compute time.
    Compute { dur: VirtualDuration },
    /// The process finished (with a panic message if it unwound).
    Exited { panic: Option<String> },
}

/// A process to create.
pub(crate) struct SpawnRequest {
    pub name: String,
    pub kind: SpawnKind,
}

impl SpawnRequest {
    pub fn actor(name: &str, actor: Box<dyn Actor>) -> Self {
        let (name, kind) = (name.to_string(), SpawnKind::Actor(actor));
        SpawnRequest { name, kind }
    }

    pub fn threaded(
        name: &str,
        control: Option<Box<dyn ControlHandler + Send>>,
        body: ProcessBody,
    ) -> Self {
        let (name, kind) = (name.to_string(), SpawnKind::Threaded { control, body });
        SpawnRequest { name, kind }
    }
}

pub(crate) enum SpawnKind {
    Actor(Box<dyn Actor>),
    Threaded {
        control: Option<Box<dyn ControlHandler + Send>>,
        body: ProcessBody,
    },
}

/// One entry of a process's outbox.
pub(crate) enum Outgoing {
    Send(ProcessId, Payload),
    /// A child to register under the pid its spawner already holds.
    Spawn(ProcessId, SpawnRequest),
}

/// A runtime whose clock and spawns a body reads at the call, not at its
/// turn's start: the threaded runtime, where other threads spawn too.
pub(crate) trait Live {
    /// The wall clock, as virtual time.
    fn now(&self) -> VirtualTime;
    /// Registers `req` and returns its final pid.
    fn spawn(&self, req: SpawnRequest) -> ProcessId;
}

/// State shared between the runtime and one process. Only one of the two
/// parties runs at a time, and never across a switch with a borrow open.
pub(crate) struct Shared {
    /// The process's virtual clock; the simulator syncs it before resuming.
    pub now: VirtualTime,
    /// Delivered-but-unconsumed user messages.
    pub mailbox: VecDeque<Received>,
    /// Sends and spawns since the last yield, in call order; the runtime
    /// drains them when the turn ends, however it ends.
    pub outbox: Vec<Outgoing>,
    /// The pid the next spawn gets; the simulator syncs it before resuming.
    pub next_pid: u64,
    /// A `Control` the body attached this turn, for [`Proc::control`].
    control: Option<Box<dyn ControlHandler>>,
    /// Set on the threaded runtime: `now` and spawns go to it instead.
    live: Option<Arc<dyn Live>>,
}

/// The runtime's handle on one running process: each turn hands back a
/// [`YieldMsg`], or `None` if a panic escaped the body and lost the
/// process. Dropping it resumes a suspended body once, so the body sees the
/// runtime shut down (its wait returns `None`/`false`) and runs out before
/// its stack goes back to the thread's free list.
type Worker = Coroutine<YieldMsg>;

/// One threaded process as its runtime holds it: the body (and the seed of
/// its RNG) until its first turn, then the coroutine running it; its
/// `Control`; where it waits.
pub(crate) struct Proc {
    pid: ProcessId,
    pub name: String,
    pub shared: Rc<RefCell<Shared>>,
    body: Option<(ProcessBody, u64)>,
    worker: Option<Worker>,
    pub control: Option<Box<dyn ControlHandler>>,
    pub status: ProcessStatus,
    pub blocked_channel: Option<u32>,
}

impl Proc {
    pub fn new(
        pid: ProcessId,
        name: String,
        control: Option<Box<dyn ControlHandler + Send>>,
        body: ProcessBody,
        seed: u64,
        live: Option<Arc<dyn Live>>,
    ) -> Proc {
        Proc {
            pid,
            name,
            shared: Rc::new(RefCell::new(Shared {
                now: VirtualTime::ZERO,
                mailbox: VecDeque::new(),
                outbox: Vec::new(),
                next_pid: 0,
                control: None,
                live,
            })),
            body: Some((body, seed)),
            worker: None,
            control: control.map(|c| c as Box<dyn ControlHandler>),
            status: ProcessStatus::New,
            blocked_channel: None,
        }
    }

    /// New, or its compute step is over: a wake (its start, its timer)
    /// runs it.
    pub fn runnable(&self) -> bool {
        matches!(self.status, ProcessStatus::New | ProcessStatus::Sleeping)
    }

    /// Blocked in `receive` or parked: a `Control` wake resumes it.
    pub fn waiting(&self) -> bool {
        matches!(self.status, ProcessStatus::Blocked | ProcessStatus::Parked)
    }

    /// Queues user mail; true if it is what the process waits for, and so
    /// the caller must give it a turn.
    pub fn mail(&mut self, mail: Received) -> bool {
        let wanted = self.status == ProcessStatus::Blocked
            && self.blocked_channel.is_none_or(|c| c == mail.msg.channel);
        self.shared.borrow_mut().mailbox.push_back(mail);
        wanted
    }

    /// Gives the process one turn and carries out what it did: its sends
    /// and spawns in call order however the turn ended, then what it
    /// waits for next.
    pub fn turn(&mut self, sched: &mut Scheduler<impl Clock>) {
        let pid = self.pid;
        if let Some((body, seed)) = self.body.take() {
            let (stack, shared) = (sched.stack(), self.shared.clone());
            self.worker = Some(Coroutine::new(stack, move |yielder| {
                let mut ctx = ThreadCtx {
                    pid,
                    shared,
                    yielder,
                    rng: StdRng::seed_from_u64(
                        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pid.as_raw(),
                    ),
                    alive: true,
                };
                let result = catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
                let panic = result
                    .err()
                    .map(|p| crate::runtime::panic_message(p.as_ref()));
                YieldMsg::Exited { panic }
            }));
        }
        let msg = self.worker.as_mut().and_then(Worker::resume);
        if let Some(control) = self.shared.borrow_mut().control.take() {
            self.control = Some(control);
        }
        let mut out = std::mem::take(&mut self.shared.borrow_mut().outbox);
        for item in out.drain(..) {
            match item {
                Outgoing::Send(dst, payload) => sched.send(pid, dst, payload),
                Outgoing::Spawn(child, req) => assert_eq!(sched.register(req), child),
            }
        }
        self.shared.borrow_mut().outbox = out;
        // A lost body exits without a message.
        self.status = match msg.unwrap_or(YieldMsg::Exited { panic: None }) {
            YieldMsg::Blocked { channel } => {
                self.blocked_channel = channel;
                ProcessStatus::Blocked
            }
            YieldMsg::Park => ProcessStatus::Parked,
            YieldMsg::Compute { dur } => {
                sched.push(sched.clock.now() + dur, EventKind::Wake(pid));
                ProcessStatus::Sleeping
            }
            YieldMsg::Exited { panic } => {
                // Its stack goes back to this thread's free list.
                self.worker = None;
                sched.clock.exited(pid, panic);
                ProcessStatus::Exited
            }
        };
    }
}

/// The [`SysApi`] implementation handed to a threaded process body.
struct ThreadCtx<'a> {
    pid: ProcessId,
    shared: Rc<RefCell<Shared>>,
    yielder: &'a mut Yielder<YieldMsg>,
    rng: StdRng,
    /// False once the runtime side has gone away.
    alive: bool,
}

impl ThreadCtx<'_> {
    /// Hands the turn back; `false` once the runtime is shutting down.
    fn yield_and_wait(&mut self, msg: YieldMsg) -> bool {
        self.alive = self.yielder.suspend(msg);
        self.alive
    }

    fn take_from_mailbox(&mut self, channel: Option<u32>) -> Option<Received> {
        let mut shared = self.shared.borrow_mut();
        let pos = crate::sysapi::mailbox_position(&shared.mailbox, channel)?;
        shared.mailbox.remove(pos)
    }

    fn spawn(&mut self, req: SpawnRequest) -> ProcessId {
        // No runtime is left to run a process spawned now.
        assert!(
            self.alive,
            "hope-runtime shut down while process {} was spawning",
            self.pid
        );
        let mut shared = self.shared.borrow_mut();
        if let Some(live) = &shared.live {
            return live.spawn(req);
        }
        let pid = ProcessId::from_raw(shared.next_pid);
        shared.next_pid += 1;
        shared.outbox.push(Outgoing::Spawn(pid, req));
        pid
    }
}

impl SysApi for ThreadCtx<'_> {
    fn pid(&self) -> ProcessId {
        self.pid
    }

    fn now(&mut self) -> VirtualTime {
        let shared = self.shared.borrow();
        shared.live.as_ref().map_or(shared.now, |live| live.now())
    }

    fn send(&mut self, dst: ProcessId, payload: Payload) {
        self.shared
            .borrow_mut()
            .outbox
            .push(Outgoing::Send(dst, payload));
    }

    fn receive(
        &mut self,
        channel: Option<u32>,
        interrupt: &mut dyn FnMut() -> bool,
    ) -> Option<Received> {
        loop {
            if interrupt() {
                return None;
            }
            if let Some(r) = self.take_from_mailbox(channel) {
                return Some(r);
            }
            if !self.yield_and_wait(YieldMsg::Blocked { channel }) {
                return None;
            }
        }
    }

    fn try_receive(&mut self, channel: Option<u32>) -> Option<Received> {
        self.take_from_mailbox(channel)
    }

    fn requeue_front(&mut self, items: Vec<Received>) {
        let mut shared = self.shared.borrow_mut();
        for item in items.into_iter().rev() {
            shared.mailbox.push_front(item);
        }
    }

    fn park(&mut self, interrupt: &mut dyn FnMut() -> bool) -> bool {
        loop {
            if interrupt() {
                return true;
            }
            if !self.yield_and_wait(YieldMsg::Park) {
                return false;
            }
        }
    }

    fn compute(&mut self, dur: VirtualDuration) {
        if dur.is_zero() {
            return;
        }
        self.yield_and_wait(YieldMsg::Compute { dur });
    }

    fn spawn_actor(&mut self, name: &str, actor: Box<dyn Actor>) -> ProcessId {
        self.spawn(SpawnRequest::actor(name, actor))
    }

    fn spawn_threaded(
        &mut self,
        name: &str,
        control: Option<Box<dyn ControlHandler + Send>>,
        body: ProcessBody,
    ) -> ProcessId {
        self.spawn(SpawnRequest::threaded(name, control, body))
    }

    fn attach_control(&mut self, control: Box<dyn ControlHandler>) {
        self.shared.borrow_mut().control = Some(control);
    }

    fn random_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}
