//! Message formats: the HOPE protocol messages of the paper's Table 1,
//! tagged user messages, and the runtime envelope that carries both.

use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

use crate::codec::{
    put_aid, put_bytes, put_ido, put_opt, put_user_message, read_aid, read_bytes, read_ido,
    read_opt, read_u32, read_u64, read_u8, read_user_message,
};
use crate::{AidId, IdoSet, IntervalId, ProcessId, VirtualTime};

/// The dependency tag piggy-backed on every user message.
///
/// "A speculative process tags the messages it sends with the set of AIDs
/// that it depends on. Receivers implicitly apply guess primitives to each
/// of the AIDs in the message's tag." (§3)
pub type DepTag = IdoSet;

/// One of the five HOPE protocol messages (paper, Table 1).
///
/// | Variant    | From | To   | Meaning                                    |
/// |------------|------|------|--------------------------------------------|
/// | `Guess`    | User | AID  | sender guesses the AID is true             |
/// | `Affirm`   | User | AID  | sender affirms the AID, subject to `ido`   |
/// | `Deny`     | User | AID  | sender denies the AID unconditionally      |
/// | `Replace`  | AID  | User | replace the sending AID with `ido` in the  |
/// |            |      |      | target interval's IDO set                  |
/// | `Rollback` | AID  | User | roll back the target interval              |
///
/// # Examples
///
/// ```
/// use hope_types::{HopeMessage, IntervalId, ProcessId};
/// let iid = IntervalId::new(ProcessId::from_raw(1), 0);
/// let m = HopeMessage::Guess { iid };
/// assert_eq!(m.interval(), iid);
/// assert_eq!(m.kind(), "Guess");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HopeMessage {
    /// `<Guess, iid>` — the interval `iid` guesses that the destination AID
    /// is true and asks to be notified of its terminal state.
    Guess {
        /// The guessing interval, to be recorded in the AID's `DOM` set.
        iid: IntervalId,
    },
    /// `<Affirm, iid, IDO>` — assert the destination AID's assumption is
    /// true, subject to every AID in `ido` also being affirmed. An empty
    /// `ido` is a *definite* (unconditional) affirm.
    Affirm {
        /// The affirming interval (`None` when sent by `finalize`, whose
        /// affirms are definite and no longer tied to a live interval).
        iid: Option<IntervalId>,
        /// The affirming interval's IDO set at the time of the affirm.
        ido: IdoSet,
    },
    /// `<Deny, iid>` — assert the destination AID's assumption is false.
    /// Denies are always unconditional; speculative denies are buffered in
    /// `IHD` until the denying interval is definite (paper, footnote 1).
    Deny {
        /// The denying interval (`None` when sent by `finalize`).
        iid: Option<IntervalId>,
    },
    /// `<Replace, iid, IDO>` — replace the sending AID with `ido` in
    /// interval `iid`'s IDO set. An empty `ido` means the sending AID has
    /// reached state `True` and the dependency simply disappears.
    Replace {
        /// The interval whose IDO set must be updated.
        iid: IntervalId,
        /// The replacement set (the AID's `A_IDO`, or empty on `True`).
        ido: IdoSet,
    },
    /// `<Retain>` — reference-counting extension (paper §5: "Reference
    /// counting can garbage collect old AID processes"): the sender holds
    /// an additional reference to the destination AID.
    Retain,
    /// `<Release>` — the sender drops a reference; an AID in a terminal
    /// state with no remaining references stops its process.
    Release,
    /// `<Rollback, iid>` — roll back interval `iid` and every subsequent
    /// interval of its process.
    Rollback {
        /// The first interval to discard.
        iid: IntervalId,
        /// The denied assumption that triggered the rollback, when known.
        /// Lets the receiving Control decide whether the boundary `guess`
        /// should return `false` (its own assumption died) or be re-issued
        /// (a transitively acquired dependency died) — see
        /// `GuessRollbackPolicy` in `hope-core`.
        cause: Option<AidId>,
    },
}

impl HopeMessage {
    /// The interval this message concerns: the target interval for
    /// `Replace`/`Rollback`, the sending interval for `Guess`, and the
    /// sending interval (or a synthetic definite id) for `Affirm`/`Deny`.
    pub fn interval(&self) -> IntervalId {
        match self {
            HopeMessage::Guess { iid }
            | HopeMessage::Replace { iid, .. }
            | HopeMessage::Rollback { iid, .. } => *iid,
            HopeMessage::Affirm { iid, .. } | HopeMessage::Deny { iid } => {
                iid.unwrap_or(IntervalId::new(ProcessId::from_raw(u64::MAX), 0))
            }
            HopeMessage::Retain | HopeMessage::Release => {
                IntervalId::new(ProcessId::from_raw(u64::MAX), 0)
            }
        }
    }

    /// Short name of the message type, matching the paper's Table 1.
    pub fn kind(&self) -> &'static str {
        match self {
            HopeMessage::Guess { .. } => "Guess",
            HopeMessage::Affirm { .. } => "Affirm",
            HopeMessage::Deny { .. } => "Deny",
            HopeMessage::Replace { .. } => "Replace",
            HopeMessage::Retain => "Retain",
            HopeMessage::Release => "Release",
            HopeMessage::Rollback { .. } => "Rollback",
        }
    }
}

/// Wire-format tags for [`HopeMessage::encode`].
mod wire {
    pub const GUESS: u8 = 1;
    pub const AFFIRM: u8 = 2;
    pub const DENY: u8 = 3;
    pub const REPLACE: u8 = 4;
    pub const RETAIN: u8 = 5;
    pub const RELEASE: u8 = 6;
    pub const ROLLBACK: u8 = 7;
}

fn put_iid(buf: &mut BytesMut, iid: IntervalId) {
    buf.put_u64_le(iid.process().as_raw());
    buf.put_u32_le(iid.index());
}

fn read_iid(buf: &[u8], at: &mut usize) -> Option<IntervalId> {
    let process = ProcessId::from_raw(read_u64(buf, at)?);
    let index = read_u32(buf, at)?;
    Some(IntervalId::new(process, index))
}

impl HopeMessage {
    /// Serializes this message into a compact little-endian wire form.
    /// Used by the reliable-delivery layer's tests and by external
    /// transports; in-memory runtimes pass messages by value.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(32);
        match self {
            HopeMessage::Guess { iid } => {
                buf.put_u8(wire::GUESS);
                put_iid(&mut buf, *iid);
            }
            HopeMessage::Affirm { iid, ido } => {
                buf.put_u8(wire::AFFIRM);
                put_opt(&mut buf, *iid, put_iid);
                put_ido(&mut buf, ido);
            }
            HopeMessage::Deny { iid } => {
                buf.put_u8(wire::DENY);
                put_opt(&mut buf, *iid, put_iid);
            }
            HopeMessage::Replace { iid, ido } => {
                buf.put_u8(wire::REPLACE);
                put_iid(&mut buf, *iid);
                put_ido(&mut buf, ido);
            }
            HopeMessage::Retain => buf.put_u8(wire::RETAIN),
            HopeMessage::Release => buf.put_u8(wire::RELEASE),
            HopeMessage::Rollback { iid, cause } => {
                buf.put_u8(wire::ROLLBACK);
                put_iid(&mut buf, *iid);
                put_opt(&mut buf, *cause, put_aid);
            }
        }
        buf.freeze()
    }

    /// Parses a message produced by [`HopeMessage::encode`]. Returns
    /// `None` on truncated or malformed input (trailing bytes are also
    /// rejected — a reliable link never legitimately pads frames).
    pub fn decode(buf: &[u8]) -> Option<HopeMessage> {
        let mut at = 0usize;
        let msg = match read_u8(buf, &mut at)? {
            wire::GUESS => HopeMessage::Guess {
                iid: read_iid(buf, &mut at)?,
            },
            wire::AFFIRM => HopeMessage::Affirm {
                iid: read_opt(buf, &mut at, read_iid)?,
                ido: read_ido(buf, &mut at)?,
            },
            wire::DENY => HopeMessage::Deny {
                iid: read_opt(buf, &mut at, read_iid)?,
            },
            wire::REPLACE => HopeMessage::Replace {
                iid: read_iid(buf, &mut at)?,
                ido: read_ido(buf, &mut at)?,
            },
            wire::RETAIN => HopeMessage::Retain,
            wire::RELEASE => HopeMessage::Release,
            wire::ROLLBACK => HopeMessage::Rollback {
                iid: read_iid(buf, &mut at)?,
                cause: read_opt(buf, &mut at, read_aid)?,
            },
            _ => return None,
        };
        (at == buf.len()).then_some(msg)
    }
}

impl fmt::Display for HopeMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HopeMessage::Guess { iid } => write!(f, "<Guess, {iid}>"),
            HopeMessage::Affirm { iid: Some(i), ido } => write!(f, "<Affirm, {i}, {ido}>"),
            HopeMessage::Affirm { iid: None, ido } => write!(f, "<Affirm, definite, {ido}>"),
            HopeMessage::Deny { iid: Some(i) } => write!(f, "<Deny, {i}>"),
            HopeMessage::Deny { iid: None } => write!(f, "<Deny, definite>"),
            HopeMessage::Replace { iid, ido } => write!(f, "<Replace, {iid}, {ido}>"),
            HopeMessage::Retain => write!(f, "<Retain>"),
            HopeMessage::Release => write!(f, "<Release>"),
            HopeMessage::Rollback {
                iid,
                cause: Some(c),
            } => {
                write!(f, "<Rollback, {iid}, cause={c}>")
            }
            HopeMessage::Rollback { iid, cause: None } => write!(f, "<Rollback, {iid}>"),
        }
    }
}

/// An application-level message exchanged between user processes.
///
/// The `tag` carries the sender's dependency set; the receiving HOPElib
/// implicitly guesses every AID in it before handing `data` to user code.
/// `channel` is an application-chosen demultiplexing key (e.g. the RPC
/// layer uses it to separate requests from replies).
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use hope_types::UserMessage;
/// let m = UserMessage::new(0, Bytes::from_static(b"hello"));
/// assert!(m.tag.is_empty());
/// assert_eq!(&m.data[..], b"hello");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserMessage {
    /// Application demultiplexing channel.
    pub channel: u32,
    /// Opaque payload.
    pub data: Bytes,
    /// AIDs the sender depended on when sending (implicit-guess tag).
    pub tag: DepTag,
}

impl UserMessage {
    /// Builds an untagged user message on `channel`.
    pub fn new(channel: u32, data: Bytes) -> Self {
        UserMessage {
            channel,
            data,
            tag: DepTag::new(),
        }
    }

    /// Builds a tagged user message; normally the HOPElib attaches the tag.
    pub fn tagged(channel: u32, data: Bytes, tag: DepTag) -> Self {
        UserMessage { channel, data, tag }
    }
}

/// What an [`Envelope`] carries: either an application message or a HOPE
/// protocol message. The runtime delivers `User` payloads to the process's
/// receive queue and `Hope` payloads to the process's HOPElib `Control`
/// function, mirroring the interception of Figure 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// An application message for user code.
    User(UserMessage),
    /// A HOPE protocol message for the HOPElib / AID state machine.
    Hope(HopeMessage),
    /// A link-layer acknowledgement for the reliable-delivery sublayer:
    /// confirms receipt of the envelope carrying sequence number `seq`
    /// on the acknowledging link. Consumed by the runtime's link state,
    /// never delivered to a process.
    Ack {
        /// The acknowledged per-link sequence number.
        seq: u64,
    },
}

impl Payload {
    /// True if this payload is a HOPE protocol message.
    pub fn is_hope(&self) -> bool {
        matches!(self, Payload::Hope(_))
    }
}

/// Wire-format tags for [`Payload::encode`].
mod payload_wire {
    pub const USER: u8 = 16;
    pub const HOPE: u8 = 17;
    pub const ACK: u8 = 18;
}

fn put_payload(buf: &mut BytesMut, payload: &Payload) {
    match payload {
        Payload::User(m) => {
            buf.put_u8(payload_wire::USER);
            put_user_message(buf, m);
        }
        Payload::Hope(m) => {
            buf.put_u8(payload_wire::HOPE);
            // Length-prefixed so the nested decoder sees an exact frame
            // (HopeMessage::decode rejects trailing bytes).
            put_bytes(buf, &m.encode());
        }
        Payload::Ack { seq } => {
            buf.put_u8(payload_wire::ACK);
            buf.put_u64_le(*seq);
        }
    }
}

fn read_payload(buf: &[u8], at: &mut usize) -> Option<Payload> {
    match read_u8(buf, at)? {
        payload_wire::USER => Some(Payload::User(read_user_message(buf, at)?)),
        payload_wire::HOPE => {
            let frame = read_bytes(buf, at)?;
            Some(Payload::Hope(HopeMessage::decode(&frame)?))
        }
        payload_wire::ACK => Some(Payload::Ack {
            seq: read_u64(buf, at)?,
        }),
        _ => None,
    }
}

impl Payload {
    /// Serializes this payload in the same little-endian wire form as
    /// [`HopeMessage::encode`]; payload tags live in a disjoint range so a
    /// frame's first byte identifies the layer it belongs to.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(32);
        put_payload(&mut buf, self);
        buf.freeze()
    }

    /// Parses a payload produced by [`Payload::encode`]. Returns `None` on
    /// truncated, malformed, or padded input.
    pub fn decode(buf: &[u8]) -> Option<Payload> {
        let mut at = 0usize;
        let payload = read_payload(buf, &mut at)?;
        (at == buf.len()).then_some(payload)
    }
}

/// A message in flight between two runtime processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending process.
    pub src: ProcessId,
    /// Destination process.
    pub dst: ProcessId,
    /// Virtual instant at which the message was sent.
    pub sent_at: VirtualTime,
    /// Per-sender sequence number (FIFO per link).
    pub seq: u64,
    /// The carried message.
    pub payload: Payload,
}

impl Envelope {
    /// Serializes the full envelope — link header (`src`, `dst`,
    /// `sent_at`, `seq`) followed by the payload — for transports that
    /// move frames between address spaces.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u64_le(self.src.as_raw());
        buf.put_u64_le(self.dst.as_raw());
        buf.put_u64_le(self.sent_at.as_nanos());
        buf.put_u64_le(self.seq);
        put_payload(&mut buf, &self.payload);
        buf.freeze()
    }

    /// Parses an envelope produced by [`Envelope::encode`]. Returns `None`
    /// on truncated or malformed input; trailing bytes are rejected.
    pub fn decode(buf: &[u8]) -> Option<Envelope> {
        let mut at = 0usize;
        let src = ProcessId::from_raw(read_u64(buf, &mut at)?);
        let dst = ProcessId::from_raw(read_u64(buf, &mut at)?);
        let sent_at = VirtualTime::from_nanos(read_u64(buf, &mut at)?);
        let seq = read_u64(buf, &mut at)?;
        let payload = read_payload(buf, &mut at)?;
        (at == buf.len()).then_some(Envelope {
            src,
            dst,
            sent_at,
            seq,
            payload,
        })
    }
}

/// Helper for building the synthetic interval id used by definite
/// affirms/denies in traces.
pub fn definite_interval() -> IntervalId {
    IntervalId::new(ProcessId::from_raw(u64::MAX), 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iid(p: u64, i: u32) -> IntervalId {
        IntervalId::new(ProcessId::from_raw(p), i)
    }

    fn aid(n: u64) -> AidId {
        AidId::from_raw(ProcessId::from_raw(n))
    }

    #[test]
    fn kind_matches_table_1() {
        assert_eq!(HopeMessage::Guess { iid: iid(1, 0) }.kind(), "Guess");
        assert_eq!(
            HopeMessage::Affirm {
                iid: Some(iid(1, 0)),
                ido: IdoSet::new()
            }
            .kind(),
            "Affirm"
        );
        assert_eq!(HopeMessage::Deny { iid: None }.kind(), "Deny");
        assert_eq!(
            HopeMessage::Replace {
                iid: iid(1, 0),
                ido: IdoSet::new()
            }
            .kind(),
            "Replace"
        );
        assert_eq!(
            HopeMessage::Rollback {
                iid: iid(1, 0),
                cause: None
            }
            .kind(),
            "Rollback"
        );
    }

    #[test]
    fn interval_extraction() {
        let m = HopeMessage::Replace {
            iid: iid(2, 3),
            ido: IdoSet::new(),
        };
        assert_eq!(m.interval(), iid(2, 3));
        let definite = HopeMessage::Deny { iid: None };
        assert_eq!(definite.interval(), definite_interval());
    }

    #[test]
    fn display_forms() {
        let m = HopeMessage::Affirm {
            iid: Some(iid(1, 2)),
            ido: [aid(5)].into_iter().collect(),
        };
        assert_eq!(m.to_string(), "<Affirm, P1#2, {X5}>");
        assert_eq!(
            HopeMessage::Rollback {
                iid: iid(1, 2),
                cause: None
            }
            .to_string(),
            "<Rollback, P1#2>"
        );
        assert_eq!(
            HopeMessage::Rollback {
                iid: iid(1, 2),
                cause: Some(aid(3))
            }
            .to_string(),
            "<Rollback, P1#2, cause=X3>"
        );
    }

    #[test]
    fn user_message_builders() {
        let plain = UserMessage::new(7, Bytes::from_static(b"x"));
        assert_eq!(plain.channel, 7);
        assert!(plain.tag.is_empty());
        let tag: DepTag = [aid(1)].into_iter().collect();
        let tagged = UserMessage::tagged(7, Bytes::new(), tag.clone());
        assert_eq!(tagged.tag, tag);
    }

    #[test]
    fn payload_discrimination() {
        assert!(Payload::Hope(HopeMessage::Deny { iid: None }).is_hope());
        assert!(!Payload::User(UserMessage::new(0, Bytes::new())).is_hope());
    }

    #[test]
    fn hope_message_wire_roundtrip() {
        let samples = [
            HopeMessage::Guess { iid: iid(1, 0) },
            HopeMessage::Affirm {
                iid: Some(iid(4, 9)),
                ido: [aid(1), aid(2)].into_iter().collect(),
            },
            HopeMessage::Affirm {
                iid: None,
                ido: IdoSet::new(),
            },
            HopeMessage::Deny {
                iid: Some(iid(7, 3)),
            },
            HopeMessage::Deny { iid: None },
            HopeMessage::Replace {
                iid: iid(4, 9),
                ido: [aid(1), aid(2), aid(3)].into_iter().collect(),
            },
            HopeMessage::Retain,
            HopeMessage::Release,
            HopeMessage::Rollback {
                iid: iid(2, 1),
                cause: Some(aid(8)),
            },
            HopeMessage::Rollback {
                iid: iid(2, 1),
                cause: None,
            },
        ];
        for m in samples {
            let encoded = m.encode();
            let back = HopeMessage::decode(&encoded).expect("well-formed frame decodes");
            assert_eq!(m, back, "round trip of {m}");
        }
    }

    #[test]
    fn wire_decode_rejects_malformed_frames() {
        assert_eq!(HopeMessage::decode(&[]), None, "empty frame");
        assert_eq!(HopeMessage::decode(&[0xff]), None, "unknown tag");
        let good = HopeMessage::Guess { iid: iid(1, 2) }.encode();
        assert_eq!(
            HopeMessage::decode(&good[..good.len() - 1]),
            None,
            "truncated"
        );
        let mut padded = good.to_vec();
        padded.push(0);
        assert_eq!(HopeMessage::decode(&padded), None, "trailing bytes");
    }
}
