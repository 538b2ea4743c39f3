//! Interception of HOPE protocol messages: the paper's `Control` hook.
//!
//! In Figure 3 of the paper, messages from AID processes to user processes
//! "are intercepted by the message passing system and given to the HOPElib
//! attached to each user process for processing". A [`ControlHandler`]
//! registered by the process itself ([`SysApi::attach_control`]) plays that
//! role: every [`HopeMessage`] addressed to the process is routed to the
//! handler (on the thread that runs the process, between its turns), and
//! the handler may send further messages and wake the process if it is
//! blocked in `receive` (so a rollback can interrupt it). The handler never
//! leaves that thread; an observer asks it through [`Inspect`].
//!
//! [`SysApi::attach_control`]: crate::SysApi::attach_control

use hope_types::{HopeMessage, Payload, ProcessId, VirtualTime};

/// Facilities available to a [`ControlHandler`] while it processes a
/// message.
pub trait ControlApi {
    /// The user process this handler is attached to.
    fn pid(&self) -> ProcessId;

    /// Current virtual time.
    fn now(&self) -> VirtualTime;

    /// Sends `payload` (on behalf of the attached process) to `dst`.
    fn send(&mut self, dst: ProcessId, payload: Payload);

    /// Requests that the attached process be woken if it is blocked in
    /// `receive`, so that its interrupt predicate runs (used to deliver
    /// rollbacks to blocked processes).
    fn wake(&mut self);
}

/// The HOPElib `Control` function: handles HOPE protocol messages addressed
/// to a threaded user process. It lives on the thread that runs the
/// process, so it need not be `Send`.
pub trait ControlHandler {
    /// Processes one HOPE message sent by `src` (an AID process, or a user
    /// process forwarding bookkeeping).
    fn on_hope_message(&mut self, src: ProcessId, msg: HopeMessage, api: &mut dyn ControlApi);

    /// The attached process just crashed (fault injection): its links are
    /// dead until restart. Handlers usually need no action here — volatile
    /// protocol state conceptually dies with the process and is rebuilt on
    /// restart. Default: no-op.
    fn on_crash(&mut self, _api: &mut dyn ControlApi) {}

    /// The attached process came back up after a crash. HOPElib handlers
    /// recover here by discarding every speculative interval and replaying
    /// the operation log back to the definite frontier (the paper's
    /// rollback recovery doubles as crash recovery). Default: no-op.
    fn on_restart(&mut self, _api: &mut dyn ControlApi) {}

    /// Concrete-type access for observers (see [`Inspect`]). Returning
    /// `None` (the default) keeps the handler opaque.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// A runtime that lets an observer look at a process's `Control` where it
/// lives, inline on the simulator and between turns on the owning shard.
pub trait Inspect {
    /// Runs `f` on `pid`'s `Control` (`None` before the process attached
    /// one, or for a pid that is not a process) and returns its answer.
    fn inspect<T: Send + 'static>(
        &self,
        pid: ProcessId,
        f: impl FnOnce(Option<&dyn ControlHandler>) -> T + Send + 'static,
    ) -> T;
}
