//! User processes as coroutines, and the turn protocol.
//!
//! A user process runs on a stack of its own ([`crate::coro`]) but on the
//! scheduler's thread, and the two take strict turns: the scheduler
//! switches into the process, which runs until it yields (by blocking in
//! `receive`, spending compute time, or exiting) and switches back.
//! Exactly one party runs at any instant, which is what makes whole
//! simulations deterministic while still letting user code be written as
//! ordinary blocking Rust.
//!
//! Sends and spawns do not yield. Both go into the process's ordered
//! outbox, which the scheduler carries out when the turn ends; a spawn
//! returns at once with the next free pid, handed over with the turn.
//!
//! Stacks are reused. A process gets its stack at its first resume, from
//! the runtime's idle list or a new mapping, and the stack goes back to
//! that list when the body exits. Thread-locals and
//! `std::thread::current()` are the scheduler thread's.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hope_types::{Payload, ProcessId, VirtualDuration, VirtualTime};

use crate::actor::Actor;
use crate::control::ControlHandler;
use crate::coro::{Coroutine, Stack, Yielder};
use crate::sysapi::{ProcessBody, Received, SysApi};

/// Process → scheduler control transfer.
pub(crate) enum YieldMsg {
    /// The process is blocked waiting for a user message.
    Blocked {
        /// Optional channel filter of the pending `receive`.
        channel: Option<u32>,
    },
    /// The process waits for a control wake without consuming messages.
    Park,
    /// The process spends virtual compute time.
    Compute { dur: VirtualDuration },
    /// The process finished (with a panic message if it unwound).
    Exited { panic: Option<String> },
}

/// A process to create.
pub(crate) struct SpawnRequest {
    pub name: String,
    pub kind: SpawnKind,
}

pub(crate) enum SpawnKind {
    Actor(Box<dyn Actor>),
    Threaded {
        control: Option<Box<dyn ControlHandler>>,
        body: ProcessBody,
    },
}

/// One entry of a process's outbox.
pub(crate) enum Outgoing {
    Send(ProcessId, Payload),
    /// A child to register under the pid its spawner already holds.
    Spawn(ProcessId, SpawnRequest),
}

/// State shared between the scheduler and one process. Only one of the two
/// parties runs at a time, and never across a switch with a borrow open.
pub(crate) struct Shared {
    /// The process's virtual clock; the scheduler syncs it before resuming.
    pub now: VirtualTime,
    /// Delivered-but-unconsumed user messages.
    pub mailbox: VecDeque<Received>,
    /// Sends and spawns since the last yield, in call order; the scheduler
    /// drains them, at the instant the turn began, however the turn ends.
    pub outbox: Vec<Outgoing>,
    /// The pid the next spawn gets; the scheduler syncs it before resuming.
    pub next_pid: u64,
}

impl Shared {
    pub fn new() -> Rc<RefCell<Shared>> {
        Rc::new(RefCell::new(Shared {
            now: VirtualTime::ZERO,
            mailbox: VecDeque::new(),
            outbox: Vec::new(),
            next_pid: 0,
        }))
    }
}

/// The scheduler's handle on one running process: each turn hands back a
/// [`YieldMsg`], or `None` if a panic escaped the body and lost the
/// process. Dropping it resumes a suspended body once, so the body sees the
/// runtime shut down (its wait returns `None`/`false`) and runs out before
/// its stack is unmapped.
pub(crate) type Worker = Coroutine<YieldMsg>;

/// Readies process `pid` on `stack`: its first turn runs `body` from the
/// top, and its last hands back [`YieldMsg::Exited`].
pub(crate) fn start(
    stack: Stack,
    pid: ProcessId,
    shared: Rc<RefCell<Shared>>,
    body: ProcessBody,
    seed: u64,
) -> Worker {
    Coroutine::new(stack, move |yielder| {
        let mut ctx = ThreadCtx::new(pid, shared, yielder, seed);
        let result = catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
        let panic = result
            .err()
            .map(|p| crate::runtime::panic_message(p.as_ref()));
        YieldMsg::Exited { panic }
    })
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

impl<'a> ThreadCtx<'a> {
    fn new(
        pid: ProcessId,
        shared: Rc<RefCell<Shared>>,
        yielder: &'a mut Yielder<YieldMsg>,
        seed: u64,
    ) -> Self {
        ThreadCtx {
            pid,
            shared,
            yielder,
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pid.as_raw()),
            alive: true,
        }
    }

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
        // No runtime is left to register a pid handed out now.
        assert!(
            self.alive,
            "hope-runtime shut down while process {} was spawning",
            self.pid
        );
        let mut shared = self.shared.borrow_mut();
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
        self.shared.borrow().now
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
        self.spawn(SpawnRequest {
            name: name.to_string(),
            kind: SpawnKind::Actor(actor),
        })
    }

    fn spawn_threaded(
        &mut self,
        name: &str,
        control: Option<Box<dyn ControlHandler>>,
        body: ProcessBody,
    ) -> ProcessId {
        self.spawn(SpawnRequest {
            name: name.to_string(),
            kind: SpawnKind::Threaded { control, body },
        })
    }

    fn random_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}
