//! The system interface presented to threaded (user) processes.

use hope_types::{Payload, ProcessId, UserMessage, VirtualDuration, VirtualTime};

use crate::actor::Actor;
use crate::control::ControlHandler;

/// A boxed threaded-process body, as accepted by the spawn APIs.
pub type ProcessBody = Box<dyn FnOnce(&mut dyn SysApi) + Send>;

/// Position of the first queued message matching the channel filter, as
/// used by every runtime's receive path (`None` filter matches anything).
pub(crate) fn mailbox_position(
    mailbox: &std::collections::VecDeque<Received>,
    channel: Option<u32>,
) -> Option<usize> {
    mailbox
        .iter()
        .position(|r| channel.is_none_or(|c| r.msg.channel == c))
}

/// A user message as delivered to a process, with its sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Received {
    /// The sending process.
    pub src: ProcessId,
    /// The delivered message (channel, payload bytes, dependency tag).
    pub msg: UserMessage,
}

/// The "PVM library" interface: everything a threaded user process can ask
/// of the runtime. `hope-core` builds the HOPE primitives on top of this
/// trait, which keeps the algorithm independent of the concrete runtime.
///
/// All operations except [`SysApi::receive`], [`SysApi::park`] and
/// [`SysApi::compute`] are asynchronous and return without waiting — the
/// property HOPE's wait-free design criterion demands of its primitives.
/// [`SysApi::hand_over`] ends the caller's turn on the threaded runtime
/// but waits for nothing: the process is runnable again at once.
pub trait SysApi {
    /// This process's identity.
    fn pid(&self) -> ProcessId;

    /// Current virtual time.
    fn now(&mut self) -> VirtualTime;

    /// Sends `payload` to `dst` asynchronously (fire-and-forget).
    fn send(&mut self, dst: ProcessId, payload: Payload);

    /// Blocks until a user message arrives.
    ///
    /// With `channel = Some(c)`, only messages sent on channel `c` are
    /// returned; non-matching messages stay queued. `interrupt` is polled
    /// whenever the process wakes: if it returns `true` the receive aborts
    /// and returns `None` (used by HOPElib to break a blocked process out of
    /// `receive` when one of its intervals is rolled back). `None` is also
    /// returned if the runtime shuts down.
    fn receive(
        &mut self,
        channel: Option<u32>,
        interrupt: &mut dyn FnMut() -> bool,
    ) -> Option<Received>;

    /// Returns the first queued message without blocking, or `None`.
    fn try_receive(&mut self, channel: Option<u32>) -> Option<Received>;

    /// Restores messages to the *front* of the mailbox in the given order
    /// (so they are consumed again before anything queued later). Used by
    /// the rollback machinery to undo consumption of messages received in
    /// rolled-back intervals.
    fn requeue_front(&mut self, items: Vec<Received>);

    /// Blocks **without consuming messages** until `interrupt` returns
    /// `true` (polled on every control-handler wake) or the runtime shuts
    /// down. Returns `true` if interrupted, `false` on shutdown. Used by
    /// HOPElib to let a finished-but-speculative process linger until its
    /// intervals resolve, leaving queued messages intact for a possible
    /// rollback re-execution.
    fn park(&mut self, interrupt: &mut dyn FnMut() -> bool) -> bool;

    /// Ends the current turn without waiting for anything: the turn's
    /// sends go out, the scheduler runs what they made due, and the process
    /// is runnable again at once. Only the threaded runtime hands over; on
    /// the simulator, whose turns take no virtual time, it does nothing.
    /// `hope-core` calls it in `guess`, so that a speculating process does
    /// not run ahead of the process that verifies its assumption.
    fn hand_over(&mut self);

    /// Spends `dur` of virtual compute time. In the simulator this advances
    /// the virtual clock without consuming wall time.
    fn compute(&mut self, dur: VirtualDuration);

    /// Spawns an event-driven actor process (used for AID processes) and
    /// returns its id, which is valid at once: a send to it from the same
    /// turn is delivered. In the simulator the actor is registered at the
    /// caller's next yield, at the spawn instant, after the caller's
    /// earlier sends and spawns.
    fn spawn_actor(&mut self, name: &str, actor: Box<dyn Actor>) -> ProcessId;

    /// Spawns another threaded user process and returns its id, which is
    /// valid at once. In the simulator the child first runs after the
    /// caller's next yield, at the spawn instant; spawning takes no turn.
    fn spawn_threaded(
        &mut self,
        name: &str,
        control: Option<Box<dyn ControlHandler + Send>>,
        body: ProcessBody,
    ) -> ProcessId;

    /// Makes `control` this process's `Control` from the end of the current
    /// turn on, in place of any it had. A handler made inside the body
    /// stays on the thread that runs it, so it need not be `Send`.
    fn attach_control(&mut self, control: Box<dyn ControlHandler>);

    /// Deterministic per-process random number (seeded from the runtime
    /// seed and the process id).
    fn random_u64(&mut self) -> u64;
}
