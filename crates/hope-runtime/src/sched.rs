//! External scheduling: the hook a model checker uses to drive the runtime
//! through chosen delivery orders.
//!
//! [`SimRuntime::run`](crate::SimRuntime::run) fires events in virtual-time
//! order, which explores exactly one interleaving per seed. The scheduled
//! mode instead exposes every *schedulable* queued event as a
//! [`PendingEvent`] and lets an external strategy pick which one fires
//! next ([`SimRuntime::step_chosen`](crate::SimRuntime::step_chosen)),
//! regardless of its timestamp (the clock is clamped monotone, so an
//! event chosen "out of order" simply fires late). Exhaustive and
//! randomized checkers in `hope-check` are built on this hook.

use std::hash::{Hash, Hasher};

use hope_types::{Envelope, Payload, ProcessId, VirtualTime};

use crate::event::{EventKind, Timed};
use crate::link::LinkWork;

/// What a queued event will do when fired, as visible to an external
/// scheduling strategy. Identity-level only — payload contents are folded
/// into [`PendingEvent::content_hash`] instead of being exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventDesc {
    /// A message delivery; `kind` names the payload ("User", "Ack", or the
    /// HOPE message kind).
    Deliver {
        /// Sending process.
        src: ProcessId,
        /// Destination process.
        dst: ProcessId,
        /// Payload kind name.
        kind: &'static str,
    },
    /// A process wake (spawn kickoff or compute completion).
    Wake(ProcessId),
    /// A scheduled crash takes the process down.
    Crash(ProcessId),
    /// A crashed process comes back up.
    Restart(ProcessId),
    /// A link's reliable-delivery retransmission timer.
    Retransmit {
        /// Sending side of the link.
        src: ProcessId,
        /// Receiving side of the link.
        dst: ProcessId,
    },
    /// A link's delayed-acknowledgement timer.
    AckDue {
        /// Sending side of the data link (the ack's destination).
        src: ProcessId,
        /// Receiving side of the data link (the ack's source).
        dst: ProcessId,
    },
}

impl EventDesc {
    /// The destination process of a delivery, if this is one.
    pub fn deliver_dst(&self) -> Option<ProcessId> {
        match self {
            EventDesc::Deliver { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// True when `self` and `other` commute: firing them in either order
    /// reaches the same state. Two deliveries to *distinct* processes are
    /// independent — each only mutates its destination, and a message's
    /// content is fixed at send time. Everything else (wakes, crashes,
    /// timers) is conservatively treated as dependent.
    pub fn commutes_with(&self, other: &EventDesc) -> bool {
        match (self.deliver_dst(), other.deliver_dst()) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        }
    }
}

/// One schedulable event, as presented to an external scheduler.
#[derive(Debug, Clone)]
pub struct PendingEvent {
    /// The virtual time the event was scheduled for (advisory in scheduled
    /// mode: firing it earlier than a smaller-timestamped rival is allowed).
    pub time: VirtualTime,
    /// Stable identity within one run: the queue's global insertion
    /// counter. Replays that make identical choices see identical ties.
    pub tie: u64,
    /// What firing the event will do.
    pub desc: EventDesc,
    /// Deterministic hash over the event's full content (timestamp,
    /// endpoints, sequence numbers, payload bytes). Two queued events with
    /// equal hashes are interchangeable for state-fingerprinting purposes.
    pub content_hash: u64,
}

/// Builds the external-scheduler view of one queued event.
pub(crate) fn describe(ev: &Timed) -> PendingEvent {
    let desc = match &ev.work {
        // `copy` is accounting metadata, invisible to schedulers.
        EventKind::Link(LinkWork::Deliver { env, .. }) => EventDesc::Deliver {
            src: env.src,
            dst: env.dst,
            kind: payload_kind(&env.payload),
        },
        EventKind::Wake(pid) => EventDesc::Wake(*pid),
        EventKind::Crash { pid, .. } => EventDesc::Crash(*pid),
        EventKind::Restart(pid) => EventDesc::Restart(*pid),
        EventKind::Link(LinkWork::Retransmit { link }) => EventDesc::Retransmit {
            src: link.0,
            dst: link.1,
        },
        EventKind::Link(LinkWork::AckDue { link }) => EventDesc::AckDue {
            src: link.0,
            dst: link.1,
        },
        EventKind::Link(LinkWork::Abandoned { .. }) => unreachable!("one scheduler, both halves"),
    };
    PendingEvent {
        time: ev.time,
        tie: ev.tie,
        desc,
        content_hash: content_hash(ev),
    }
}

/// The Table 1 / scheduler name of a payload: "User", "Ack", or the HOPE
/// message kind.
pub(crate) fn payload_kind(payload: &Payload) -> &'static str {
    match payload {
        Payload::User(_) => "User",
        Payload::Hope(m) => m.kind(),
        Payload::Ack { .. } => "Ack",
    }
}

/// Deterministic content hash of a queued event, excluding the tie counter
/// (two in-flight copies of the same message hash equal).
pub(crate) fn content_hash(ev: &Timed) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ev.time.as_nanos().hash(&mut h);
    match &ev.work {
        // `copy` is deliberately not hashed: two in-flight copies of one
        // message are interchangeable regardless of how they arose.
        EventKind::Link(LinkWork::Deliver { env, .. }) => {
            0u8.hash(&mut h);
            hash_envelope(env, &mut h);
        }
        EventKind::Wake(pid) => {
            1u8.hash(&mut h);
            pid.as_raw().hash(&mut h);
        }
        EventKind::Crash { pid, up_at } => {
            2u8.hash(&mut h);
            pid.as_raw().hash(&mut h);
            up_at.as_nanos().hash(&mut h);
        }
        EventKind::Restart(pid) => {
            3u8.hash(&mut h);
            pid.as_raw().hash(&mut h);
        }
        EventKind::Link(LinkWork::Retransmit { link }) => {
            4u8.hash(&mut h);
            link.0.as_raw().hash(&mut h);
            link.1.as_raw().hash(&mut h);
        }
        EventKind::Link(LinkWork::AckDue { link }) => {
            5u8.hash(&mut h);
            link.0.as_raw().hash(&mut h);
            link.1.as_raw().hash(&mut h);
        }
        // The simulator's one scheduler holds both halves of every link.
        EventKind::Link(LinkWork::Abandoned { .. }) => unreachable!("one scheduler, both halves"),
    }
    h.finish()
}

/// Hashes an envelope's full content into `h`.
pub(crate) fn hash_envelope<H: Hasher>(env: &Envelope, h: &mut H) {
    env.src.as_raw().hash(h);
    env.dst.as_raw().hash(h);
    env.sent_at.as_nanos().hash(h);
    env.seq.hash(h);
    hash_payload(&env.payload, h);
}

/// Hashes a payload's full content into `h`.
pub(crate) fn hash_payload<H: Hasher>(payload: &Payload, h: &mut H) {
    match payload {
        Payload::User(m) => {
            0u8.hash(h);
            m.channel.hash(h);
            m.data[..].hash(h);
            m.tag.hash(h);
        }
        Payload::Hope(m) => {
            1u8.hash(h);
            m.hash(h);
        }
        Payload::Ack { seq } => {
            2u8.hash(h);
            seq.hash(h);
        }
    }
}
