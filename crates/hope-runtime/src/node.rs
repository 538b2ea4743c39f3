//! The dispatch step, written once for both runtimes: an envelope the
//! link pipeline let through reaches its actor, its process's mailbox or
//! HOPElib `Control` (the paper's Figures 3 and 9–11), or a gateway.
//!
//! The only handler calls are here: [`deliver`], [`crash`], [`restart`].
//! Like the link pipeline it is sans-IO: the scheduler lends a [`Host`] (a
//! clock and a send) and carries out the [`Step`] reported (DESIGN.md §10
//! "One dispatch step").

use hope_types::{Envelope, Payload, ProcessId, VirtualTime};

use crate::actor::{Actor, ActorApi};
use crate::control::{ControlApi, ControlHandler};
use crate::sysapi::Received;

/// What a runtime lends the dispatch step for one call.
pub(crate) trait Host {
    /// The time a handler reads: the event's instant on the simulator,
    /// the wall clock on the threaded runtime.
    fn now(&self) -> VirtualTime;

    /// Sends `payload` from `src` to `dst` now, inside the handler call.
    /// The process's body is suspended while a handler runs, so its sends
    /// wait in its outbox and cannot come between the handler's.
    fn send(&mut self, src: ProcessId, dst: ProcessId, payload: Payload);
}

/// Where an arrived envelope goes, as the scheduler holds it.
pub(crate) enum Target<'a> {
    /// A garbage-collected actor.
    Gone,
    /// An event-driven process (an AID process, a sink).
    Actor(&'a mut dyn Actor),
    /// A threaded process, by its `Control` slot.
    Process(&'a mut Option<Box<dyn ControlHandler>>),
    /// An egress seam to another runtime (threaded runtime only).
    Gateway(&'a (dyn Fn(Envelope) + Send + Sync)),
}

/// What the runtime must do after a step.
pub(crate) enum Step {
    /// Nothing more.
    Done,
    /// Count a dropped message (`MessageStats::record_dropped`).
    Dropped,
    /// The actor stopped: later deliveries to its slot are dropped.
    Stop,
    /// Put user mail in the process's mailbox.
    Mail(Received),
    /// `Control` asked for the process to be woken.
    Wake,
}

/// The one [`ActorApi`] and [`ControlApi`]: a handler's view of its host
/// for one call, and the `stop` or `wake` it asked for.
struct Api<'h, H> {
    host: &'h mut H,
    pid: ProcessId,
    step: Step,
}

impl<H: Host> ActorApi for Api<'_, H> {
    fn pid(&self) -> ProcessId {
        self.pid
    }
    fn now(&self) -> VirtualTime {
        self.host.now()
    }
    fn send(&mut self, dst: ProcessId, payload: Payload) {
        self.host.send(self.pid, dst, payload);
    }
    fn stop(&mut self) {
        self.step = Step::Stop;
    }
}

impl<H: Host> ControlApi for Api<'_, H> {
    fn pid(&self) -> ProcessId {
        self.pid
    }
    fn now(&self) -> VirtualTime {
        self.host.now()
    }
    fn send(&mut self, dst: ProcessId, payload: Payload) {
        self.host.send(self.pid, dst, payload);
    }
    fn wake(&mut self) {
        self.step = Step::Wake;
    }
}

/// Routes one arrived envelope to `target`, the slot of `env.dst`: an
/// actor runs `on_message`; a threaded process's user mail goes back to
/// the host, and its HOPE message to `Control` (dropped without one); a
/// gateway hands the envelope to its sink.
pub(crate) fn deliver(host: &mut impl Host, target: Target<'_>, env: Envelope) -> Step {
    let (src, pid) = (env.src, env.dst);
    let mut api = Api {
        host,
        pid,
        step: Step::Done,
    };
    match target {
        Target::Gone => return Step::Dropped,
        Target::Actor(actor) => actor.on_message(env, &mut api),
        Target::Process(control) => match env.payload {
            Payload::User(msg) => return Step::Mail(Received { src, msg }),
            Payload::Hope(msg) => match control.as_mut() {
                Some(handler) => handler.on_hope_message(src, msg, &mut api),
                None => return Step::Dropped,
            },
            Payload::Ack { .. } => unreachable!("acks are consumed by the link layer"),
        },
        Target::Gateway(sink) => sink(env),
    }
    api.step
}

/// A crashed process's host: it keeps the crash instant and sends nothing.
struct Down(VirtualTime);

impl Host for Down {
    fn now(&self) -> VirtualTime {
        self.0
    }
    fn send(&mut self, _: ProcessId, _: ProcessId, _: Payload) {}
}

/// The crash hook: `pid`'s `Control` hears that it went down at `now`.
/// A crashed process sends nothing, so whatever `on_crash` sends is
/// discarded, on either runtime.
pub(crate) fn crash(
    pid: ProcessId,
    now: VirtualTime,
    control: Option<&mut Box<dyn ControlHandler>>,
) {
    if let Some(handler) = control {
        handler.on_crash(&mut Api {
            host: &mut Down(now),
            pid,
            step: Step::Done,
        });
    }
}

/// The restart hook: `pid`'s `Control` recovers, sending through `host`.
/// Returns whether it asked for the process to be woken.
pub(crate) fn restart<H: Host>(
    host: &mut H,
    pid: ProcessId,
    control: Option<&mut Box<dyn ControlHandler>>,
) -> bool {
    let Some(handler) = control else {
        return false;
    };
    let mut api = Api {
        host,
        pid,
        step: Step::Done,
    };
    handler.on_restart(&mut api);
    matches!(api.step, Step::Wake)
}
