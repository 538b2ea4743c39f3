//! Thread-backed user processes and the turn-handoff protocol.
//!
//! A threaded process runs on a worker thread, but the scheduler and the
//! process take strict turns: the scheduler resumes the process and then
//! blocks until the process yields (by blocking in `receive`, spending
//! compute time, or exiting). Exactly one party runs at any instant, which
//! is what makes whole simulations deterministic while still letting user
//! code be written as ordinary blocking Rust.
//!
//! Sends and spawns do not yield. Both go into the process's ordered
//! outbox, which the scheduler carries out when the turn ends; a spawn
//! returns at once with the next free pid, handed over with the turn.
//!
//! A turn is handed over through a [`Handoff`] slot: the sender drops one
//! value in and unparks the receiver without waiting; each side then blocks
//! on its own slot, so only one side runs at a time.
//!
//! Workers are reused. A process gets its worker at its first resume
//! ([`Resume::Start`]), from the runtime's idle list or a new `hope-sim-N`
//! thread, and the worker goes back to that list when the body exits — so
//! thread-locals and `std::thread::current()` are per worker, not per
//! process.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hope_types::{Payload, ProcessId, VirtualDuration, VirtualTime};

use crate::actor::Actor;
use crate::control::ControlHandler;
use crate::sysapi::{ProcessBody, Received, SysApi};

/// Scheduler → process control transfer.
pub(crate) enum Resume {
    /// The first turn of a process: run this job on the worker.
    Start(Job),
    /// Continue running.
    Go,
}

/// What a worker needs to run one process from the top.
pub(crate) struct Job {
    pub pid: ProcessId,
    pub shared: Arc<Mutex<Shared>>,
    pub body: ProcessBody,
    pub seed: u64,
}

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
/// parties runs at a time, so the mutex is never contended; it exists to
/// satisfy `Send`/`Sync`.
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
    pub fn new() -> Arc<Mutex<Shared>> {
        Arc::new(Mutex::new(Shared {
            now: VirtualTime::ZERO,
            mailbox: VecDeque::new(),
            outbox: Vec::new(),
            next_pid: 0,
        }))
    }
}

/// A one-value slot one thread drops a value into and another blocks on.
/// `send` never waits; `recv` parks until a value or `close` arrives.
struct Handoff<T> {
    state: Mutex<HandoffState<T>>,
}

struct HandoffState<T> {
    value: Option<T>,
    closed: bool,
    /// The thread parked in `recv`, if any.
    waiter: Option<Thread>,
}

impl<T> Handoff<T> {
    fn new() -> Self {
        Handoff {
            state: Mutex::new(HandoffState {
                value: None,
                closed: false,
                waiter: None,
            }),
        }
    }

    /// Hands `value` over; `Err` if the slot is closed.
    fn send(&self, value: T) -> Result<(), T> {
        let waiter = {
            let mut state = self.state.lock();
            if state.closed {
                return Err(value);
            }
            debug_assert!(state.value.is_none(), "one turn in flight at a time");
            state.value = Some(value);
            state.waiter.take()
        };
        if let Some(thread) = waiter {
            thread.unpark();
        }
        Ok(())
    }

    /// Waits for the next value; `Err` once the slot is closed and empty.
    fn recv(&self) -> Result<T, ()> {
        loop {
            {
                let mut state = self.state.lock();
                if let Some(value) = state.value.take() {
                    return Ok(value);
                }
                if state.closed {
                    return Err(());
                }
                state.waiter = Some(std::thread::current());
            }
            // A stale token or a spurious wake only costs a re-check.
            std::thread::park();
        }
    }

    /// Fails every later `send` and wakes a parked `recv` with `Err`.
    fn close(&self) {
        let waiter = {
            let mut state = self.state.lock();
            state.closed = true;
            state.waiter.take()
        };
        if let Some(thread) = waiter {
            thread.unpark();
        }
    }
}

/// The two slots between the scheduler and one worker.
struct Turns {
    resume: Handoff<Resume>,
    yields: Handoff<YieldMsg>,
}

/// Closes the yield slot when the worker thread ends, however it ends, so
/// a scheduler waiting for the turn back wakes with `Err`.
struct CloseOnExit<'a>(&'a Turns);

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        self.0.yields.close();
    }
}

/// The scheduler's handle on one worker thread. Dropping it closes the
/// resume slot and joins the thread. That cannot hang: between scheduler
/// turns a worker only ever waits on that slot, and the close wakes it
/// with `Err`, so its process's body sees the runtime shut down.
pub(crate) struct Worker {
    turns: Arc<Turns>,
    join: Option<JoinHandle<()>>,
}

impl Worker {
    /// Starts the worker thread named `hope-sim-{number}`; it waits for a
    /// [`Resume::Start`].
    pub fn spawn(number: usize) -> Worker {
        let turns = Arc::new(Turns {
            resume: Handoff::new(),
            yields: Handoff::new(),
        });
        let thread_turns = turns.clone();
        let join = std::thread::Builder::new()
            .name(format!("hope-sim-{number}"))
            .spawn(move || worker_main(&thread_turns))
            .expect("failed to spawn worker thread");
        Worker {
            turns,
            join: Some(join),
        }
    }

    /// Gives the worker its turn and waits for it back; `None` if the
    /// worker is gone.
    pub fn turn(&self, resume: Resume) -> Option<YieldMsg> {
        self.turns.resume.send(resume).ok()?;
        self.turns.yields.recv().ok()
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.turns.resume.close();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Runs one job after another until the runtime closes the resume slot.
fn worker_main(turns: &Turns) {
    let _close = CloseOnExit(turns);
    while let Ok(Resume::Start(job)) = turns.resume.recv() {
        let mut ctx = ThreadCtx::new(job.pid, job.shared, turns, job.seed);
        let result = catch_unwind(AssertUnwindSafe(|| (job.body)(&mut ctx)));
        let panic = result
            .err()
            .map(|p| crate::runtime::panic_message(p.as_ref()));
        if !ctx.notify_exit(panic) {
            return;
        }
    }
}

/// The [`SysApi`] implementation handed to a threaded process body.
struct ThreadCtx<'a> {
    pid: ProcessId,
    shared: Arc<Mutex<Shared>>,
    turns: &'a Turns,
    rng: StdRng,
    /// False once the runtime side has gone away.
    alive: bool,
}

impl<'a> ThreadCtx<'a> {
    fn new(pid: ProcessId, shared: Arc<Mutex<Shared>>, turns: &'a Turns, seed: u64) -> Self {
        ThreadCtx {
            pid,
            shared,
            turns,
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pid.as_raw()),
            alive: true,
        }
    }

    /// Sends the final exit notification. Returns `false` if the runtime
    /// side has gone away, so the worker should stop.
    fn notify_exit(&self, panic: Option<String>) -> bool {
        self.alive && self.turns.yields.send(YieldMsg::Exited { panic }).is_ok()
    }

    fn yield_and_wait(&mut self, msg: YieldMsg) -> Option<Resume> {
        if !self.alive {
            return None;
        }
        if self.turns.yields.send(msg).is_err() {
            self.alive = false;
            return None;
        }
        match self.turns.resume.recv() {
            Ok(r) => Some(r),
            Err(()) => {
                self.alive = false;
                None
            }
        }
    }

    fn take_from_mailbox(&mut self, channel: Option<u32>) -> Option<Received> {
        let mut shared = self.shared.lock();
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
        let mut shared = self.shared.lock();
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
        self.shared.lock().now
    }

    fn send(&mut self, dst: ProcessId, payload: Payload) {
        self.shared.lock().outbox.push(Outgoing::Send(dst, payload));
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
            if !self.alive {
                return None;
            }
            match self.yield_and_wait(YieldMsg::Blocked { channel }) {
                Some(_) => continue,
                None => return None,
            }
        }
    }

    fn try_receive(&mut self, channel: Option<u32>) -> Option<Received> {
        self.take_from_mailbox(channel)
    }

    fn requeue_front(&mut self, items: Vec<Received>) {
        let mut shared = self.shared.lock();
        for item in items.into_iter().rev() {
            shared.mailbox.push_front(item);
        }
    }

    fn park(&mut self, interrupt: &mut dyn FnMut() -> bool) -> bool {
        loop {
            if interrupt() {
                return true;
            }
            if !self.alive {
                return false;
            }
            match self.yield_and_wait(YieldMsg::Park) {
                Some(_) => continue,
                None => return false,
            }
        }
    }

    fn compute(&mut self, dur: VirtualDuration) {
        if dur.is_zero() {
            return;
        }
        let _ = self.yield_and_wait(YieldMsg::Compute { dur });
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
