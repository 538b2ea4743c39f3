//! Thread-backed user processes and the rendezvous handoff protocol.
//!
//! Each threaded process runs on its own OS thread, but the scheduler and
//! the process exchange control in strict rendezvous over zero-capacity
//! channels: the scheduler resumes the process and then blocks until the
//! process yields (by blocking in `receive`, spending compute time,
//! spawning, or exiting). Exactly one party runs at any instant, which is
//! what makes whole simulations deterministic while still letting user code
//! be written as ordinary blocking Rust.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hope_types::{Payload, ProcessId, VirtualDuration, VirtualTime};

use crate::actor::Actor;
use crate::control::ControlHandler;
use crate::sysapi::{Received, SysApi};

/// Scheduler → process control transfer.
pub(crate) enum Resume {
    /// Continue running.
    Go,
    /// Reply to a spawn request: the new process's id.
    Spawned(ProcessId),
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
    /// The process asks the scheduler to create a new process.
    Spawn(SpawnRequest),
    /// The process finished (with a panic message if it unwound).
    Exited { panic: Option<String> },
}

/// A spawn request carried by [`YieldMsg::Spawn`].
pub(crate) struct SpawnRequest {
    pub name: String,
    pub kind: SpawnKind,
}

pub(crate) enum SpawnKind {
    Actor(Box<dyn Actor>),
    Threaded {
        control: Option<Box<dyn ControlHandler>>,
        body: crate::sysapi::ProcessBody,
    },
}

/// State shared between the scheduler and one process thread. Only one of
/// the two parties runs at a time, so the mutex is never contended; it
/// exists to satisfy `Send`/`Sync`.
pub(crate) struct Shared {
    /// The process's virtual clock; the scheduler syncs it before resuming.
    pub now: VirtualTime,
    /// Delivered-but-unconsumed user messages.
    pub mailbox: VecDeque<Received>,
    /// Messages sent since the last yield; drained by the scheduler.
    pub outbox: Vec<(ProcessId, Payload, VirtualTime)>,
}

impl Shared {
    pub fn new() -> Arc<Mutex<Shared>> {
        Arc::new(Mutex::new(Shared {
            now: VirtualTime::ZERO,
            mailbox: VecDeque::new(),
            outbox: Vec::new(),
        }))
    }
}

/// The [`SysApi`] implementation handed to a threaded process body.
pub(crate) struct ThreadCtx {
    pid: ProcessId,
    shared: Arc<Mutex<Shared>>,
    resume_rx: Receiver<Resume>,
    yield_tx: SyncSender<YieldMsg>,
    rng: StdRng,
    /// False once the runtime side has gone away.
    alive: bool,
}

impl ThreadCtx {
    pub fn new(
        pid: ProcessId,
        shared: Arc<Mutex<Shared>>,
        resume_rx: Receiver<Resume>,
        yield_tx: SyncSender<YieldMsg>,
        seed: u64,
    ) -> Self {
        ThreadCtx {
            pid,
            shared,
            resume_rx,
            yield_tx,
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pid.as_raw()),
            alive: true,
        }
    }

    /// Waits for the scheduler's kickoff resume. Returns `false` if the
    /// runtime was dropped before the process ever ran.
    pub fn wait_initial(&mut self) -> bool {
        match self.resume_rx.recv() {
            Ok(_) => true,
            Err(_) => {
                self.alive = false;
                false
            }
        }
    }

    /// Sends the final exit notification; ignores a vanished runtime.
    pub fn notify_exit(&self, panic: Option<String>) {
        let _ = self.yield_tx.send(YieldMsg::Exited { panic });
    }

    fn yield_and_wait(&mut self, msg: YieldMsg) -> Option<Resume> {
        if !self.alive {
            return None;
        }
        if self.yield_tx.send(msg).is_err() {
            self.alive = false;
            return None;
        }
        match self.resume_rx.recv() {
            Ok(r) => Some(r),
            Err(_) => {
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
        match self.yield_and_wait(YieldMsg::Spawn(req)) {
            Some(Resume::Spawned(pid)) => pid,
            _ => panic!(
                "hope-runtime shut down while process {} was spawning",
                self.pid
            ),
        }
    }
}

impl SysApi for ThreadCtx {
    fn pid(&self) -> ProcessId {
        self.pid
    }

    fn now(&mut self) -> VirtualTime {
        self.shared.lock().now
    }

    fn send(&mut self, dst: ProcessId, payload: Payload) {
        let mut shared = self.shared.lock();
        let now = shared.now;
        shared.outbox.push((dst, payload, now));
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
        body: crate::sysapi::ProcessBody,
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
