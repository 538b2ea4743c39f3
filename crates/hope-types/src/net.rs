//! Network wire vocabulary: node identity, the stream-frame format, and
//! the node handshake protocol.
//!
//! The paper's prototype ran over PVM's daemons; this reproduction's real
//! transport (`hope-runtime::net`) runs over TCP sockets. A TCP stream is
//! a byte pipe, not a datagram service, so everything that crosses a
//! socket is wrapped in a **length-prefixed, CRC-guarded frame**:
//!
//! ```text
//! [magic u32][kind u8][len u32][crc32 u32][payload: len bytes]
//! ```
//!
//! All integers are little-endian. The CRC covers the kind byte and the
//! payload, so a corrupted kind is rejected even when the payload
//! survives. [`FrameReader`] reassembles frames incrementally from
//! arbitrary read boundaries (a `read()` may return half a header, three
//! frames and a trailing fragment — all legal), and rejects damage with
//! typed [`FrameError`]s instead of mis-parsing: a transport that sees
//! any `FrameError` must drop the connection, because a byte stream that
//! has lost framing cannot be resynchronized safely.
//!
//! Connections open with a **handshake**: the dialer sends a
//! [`NodeHello`] (node id, protocol version, feature bits) and the
//! acceptor answers with a hello of its own or a typed
//! [`HelloReject`] — version mismatches and unknown node ids are
//! protocol-level rejections, not silent drops.

use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

use crate::crc32::crc32;

/// The wire protocol version spoken by this build. Bumped on any
/// incompatible change to the frame or handshake formats; peers with a
/// different version reject each other during the handshake.
pub const PROTOCOL_VERSION: u16 = 1;

/// Feature bit: the peer runs the reliable sublayer (per-link seq/ack/
/// retransmit/dedup) over its data frames.
pub const FEATURE_RELIABLE: u32 = 1;

/// Feature bit: the peer sends liveness heartbeats ([`FrameKind::Ping`])
/// and expects [`FrameKind::Pong`] echoes.
pub const FEATURE_HEARTBEAT: u32 = 1 << 1;

/// Frame magic: `"HOPE"` as a little-endian u32.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"HOPE");

/// Hard ceiling on a frame payload. Anything larger is corruption (or an
/// attack), not traffic: the transport's envelopes are tiny.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Bytes of framing overhead per frame (magic + kind + len + crc).
pub const FRAME_HEADER_LEN: usize = 4 + 1 + 4 + 4;

/// Identity of one OS-process node in a cluster. Distinct from
/// [`ProcessId`](crate::ProcessId): a node *hosts* many runtime
/// processes; the node id names the address-space boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u16);

impl NodeId {
    /// Builds a node id from its raw numeric value.
    pub const fn from_raw(raw: u16) -> Self {
        NodeId(raw)
    }

    /// The raw numeric value.
    pub const fn as_raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// What a stream frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Handshake opener: a [`NodeHello`].
    Hello = 1,
    /// Handshake acceptance: the responder's own [`NodeHello`].
    HelloOk = 2,
    /// Handshake rejection: a [`HelloReject`].
    HelloReject = 3,
    /// A transport data frame: one encoded [`Envelope`](crate::Envelope).
    Data = 4,
    /// Transport-level acknowledgement of a data frame's link sequence
    /// number (`[seq: u64]`).
    Ack = 5,
    /// Liveness probe (`[nonce: u64]`).
    Ping = 6,
    /// Liveness echo (`[nonce: u64]`, copied from the ping).
    Pong = 7,
}

impl FrameKind {
    fn from_byte(b: u8) -> Option<FrameKind> {
        Some(match b {
            1 => FrameKind::Hello,
            2 => FrameKind::HelloOk,
            3 => FrameKind::HelloReject,
            4 => FrameKind::Data,
            5 => FrameKind::Ack,
            6 => FrameKind::Ping,
            7 => FrameKind::Pong,
            _ => return None,
        })
    }
}

/// One reassembled stream frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// The payload bytes (already CRC-verified).
    pub payload: Bytes,
}

impl Frame {
    /// Builds a frame.
    pub fn new(kind: FrameKind, payload: Bytes) -> Self {
        Frame { kind, payload }
    }

    /// Serializes the frame, header included, ready for a socket write.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_FRAME_LEN`] — the transport
    /// never legitimately builds such a frame.
    pub fn encode(&self) -> Bytes {
        assert!(
            self.payload.len() <= MAX_FRAME_LEN as usize,
            "frame payload exceeds MAX_FRAME_LEN"
        );
        let mut buf = BytesMut::with_capacity(FRAME_HEADER_LEN + self.payload.len());
        buf.put_u32_le(FRAME_MAGIC);
        buf.put_u8(self.kind as u8);
        buf.put_u32_le(self.payload.len() as u32);
        buf.put_u32_le(crc32(&[&[self.kind as u8], &self.payload]));
        buf.put_slice(&self.payload);
        buf.freeze()
    }
}

/// Why a byte stream stopped parsing. Every variant is fatal for the
/// connection that produced it: framing is lost and the link must be
/// torn down and re-established (the reliable sublayer replays anything
/// unacknowledged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The four magic bytes did not match [`FRAME_MAGIC`].
    BadMagic {
        /// What arrived instead.
        found: u32,
    },
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversize {
        /// The declared length.
        len: u32,
    },
    /// The payload arrived but its CRC did not match the header's.
    BadCrc {
        /// CRC the header declared.
        declared: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// The kind byte names no known [`FrameKind`].
    UnknownKind(u8),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { found } => {
                write!(f, "bad frame magic {found:#010x} (stream desynchronized)")
            }
            FrameError::Oversize { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN} ceiling")
            }
            FrameError::BadCrc { declared, computed } => {
                write!(
                    f,
                    "frame crc mismatch: declared {declared:#010x}, computed {computed:#010x}"
                )
            }
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental frame reassembly over arbitrary read boundaries.
///
/// Feed it whatever each `read()` returned; pull zero or more complete
/// frames after each feed. The reader validates magic, kind, length and
/// CRC *before* surfacing a frame, so a caller never sees a damaged
/// frame — it sees a [`FrameError`] and must drop the connection.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use hope_types::net::{Frame, FrameKind, FrameReader};
///
/// let frame = Frame::new(FrameKind::Ping, Bytes::from_static(&[1, 2, 3]));
/// let wire = frame.encode();
/// let mut reader = FrameReader::new();
/// // Bytes arrive split at an arbitrary boundary:
/// reader.feed(&wire[..5]);
/// assert_eq!(reader.next_frame(), Ok(None)); // header incomplete
/// reader.feed(&wire[5..]);
/// assert_eq!(reader.next_frame(), Ok(Some(frame)));
/// ```
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted when it grows past half.
    read: usize,
    /// Set once a `FrameError` surfaced: the stream is poisoned.
    poisoned: bool,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends freshly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet parsed into a frame.
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Parses the next complete frame, if the buffer holds one.
    ///
    /// * `Ok(Some(frame))` — a validated frame.
    /// * `Ok(None)` — no complete frame yet; feed more bytes.
    /// * `Err(_)` — the stream is corrupt; the reader stays poisoned and
    ///   every further call returns the same class of failure.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.poisoned {
            return Err(FrameError::BadMagic { found: 0xDEAD_DEAD });
        }
        let avail = &self.buf[self.read..];
        if avail.len() < FRAME_HEADER_LEN {
            self.compact();
            return Ok(None);
        }
        let magic = u32::from_le_bytes(avail[0..4].try_into().expect("4 bytes"));
        if magic != FRAME_MAGIC {
            self.poisoned = true;
            return Err(FrameError::BadMagic { found: magic });
        }
        let kind_byte = avail[4];
        let len = u32::from_le_bytes(avail[5..9].try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN {
            self.poisoned = true;
            return Err(FrameError::Oversize { len });
        }
        let declared_crc = u32::from_le_bytes(avail[9..13].try_into().expect("4 bytes"));
        let total = FRAME_HEADER_LEN + len as usize;
        if avail.len() < total {
            self.compact();
            return Ok(None);
        }
        let payload = &avail[FRAME_HEADER_LEN..total];
        let computed = crc32(&[&[kind_byte], payload]);
        if computed != declared_crc {
            self.poisoned = true;
            return Err(FrameError::BadCrc {
                declared: declared_crc,
                computed,
            });
        }
        let Some(kind) = FrameKind::from_byte(kind_byte) else {
            self.poisoned = true;
            return Err(FrameError::UnknownKind(kind_byte));
        };
        let frame = Frame {
            kind,
            payload: Bytes::copy_from_slice(payload),
        };
        self.read += total;
        self.compact();
        Ok(Some(frame))
    }

    fn compact(&mut self) {
        if self.read > 0 && self.read * 2 >= self.buf.len() {
            self.buf.drain(..self.read);
            self.read = 0;
        }
    }
}

/// The handshake opener: who is calling, speaking which protocol
/// version, with which optional features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeHello {
    /// The sender's node id.
    pub node: NodeId,
    /// The sender's [`PROTOCOL_VERSION`].
    pub version: u16,
    /// The sender's feature bits ([`FEATURE_RELIABLE`] | …).
    pub features: u32,
}

impl NodeHello {
    /// A hello for `node` at this build's protocol version with the
    /// standard feature set.
    pub fn current(node: NodeId) -> Self {
        NodeHello {
            node,
            version: PROTOCOL_VERSION,
            features: FEATURE_RELIABLE | FEATURE_HEARTBEAT,
        }
    }

    /// Serializes the hello (frame payload, not a whole frame).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u16_le(self.node.as_raw());
        buf.put_u16_le(self.version);
        buf.put_u32_le(self.features);
        buf.freeze()
    }

    /// Parses a hello payload; `None` on truncated or padded input.
    pub fn decode(buf: &[u8]) -> Option<NodeHello> {
        if buf.len() != 8 {
            return None;
        }
        Some(NodeHello {
            node: NodeId::from_raw(u16::from_le_bytes(buf[0..2].try_into().ok()?)),
            version: u16::from_le_bytes(buf[2..4].try_into().ok()?),
            features: u32::from_le_bytes(buf[4..8].try_into().ok()?),
        })
    }
}

/// Why an acceptor refused a [`NodeHello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelloReject {
    /// The dialer speaks a different protocol version.
    VersionMismatch {
        /// The acceptor's version.
        ours: u16,
        /// The dialer's version.
        theirs: u16,
    },
    /// The dialer's node id is not in the acceptor's node directory.
    UnknownNode(NodeId),
    /// The dialer claimed the acceptor's own node id.
    IdCollision(NodeId),
}

mod reject_wire {
    pub const VERSION: u8 = 1;
    pub const UNKNOWN: u8 = 2;
    pub const COLLISION: u8 = 3;
}

impl HelloReject {
    /// Serializes the rejection (frame payload).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(5);
        match self {
            HelloReject::VersionMismatch { ours, theirs } => {
                buf.put_u8(reject_wire::VERSION);
                buf.put_u16_le(*ours);
                buf.put_u16_le(*theirs);
            }
            HelloReject::UnknownNode(node) => {
                buf.put_u8(reject_wire::UNKNOWN);
                buf.put_u16_le(node.as_raw());
            }
            HelloReject::IdCollision(node) => {
                buf.put_u8(reject_wire::COLLISION);
                buf.put_u16_le(node.as_raw());
            }
        }
        buf.freeze()
    }

    /// Parses a rejection payload; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<HelloReject> {
        match (buf.first()?, buf.len()) {
            (&reject_wire::VERSION, 5) => Some(HelloReject::VersionMismatch {
                ours: u16::from_le_bytes(buf[1..3].try_into().ok()?),
                theirs: u16::from_le_bytes(buf[3..5].try_into().ok()?),
            }),
            (&reject_wire::UNKNOWN, 3) => Some(HelloReject::UnknownNode(NodeId::from_raw(
                u16::from_le_bytes(buf[1..3].try_into().ok()?),
            ))),
            (&reject_wire::COLLISION, 3) => Some(HelloReject::IdCollision(NodeId::from_raw(
                u16::from_le_bytes(buf[1..3].try_into().ok()?),
            ))),
            _ => None,
        }
    }
}

impl fmt::Display for HelloReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HelloReject::VersionMismatch { ours, theirs } => {
                write!(
                    f,
                    "protocol version mismatch: acceptor v{ours}, dialer v{theirs}"
                )
            }
            HelloReject::UnknownNode(node) => write!(f, "node {node} is not in the directory"),
            HelloReject::IdCollision(node) => {
                write!(f, "dialer claims the acceptor's own id {node}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(kind: FrameKind, payload: &[u8]) -> Frame {
        Frame::new(kind, Bytes::copy_from_slice(payload))
    }

    #[test]
    fn frame_round_trips_whole() {
        let f = frame(FrameKind::Data, b"hello world");
        let wire = f.encode();
        let mut r = FrameReader::new();
        r.feed(&wire);
        assert_eq!(r.next_frame(), Ok(Some(f)));
        assert_eq!(r.next_frame(), Ok(None));
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn frame_round_trips_byte_at_a_time() {
        let f = frame(FrameKind::Ack, &[9; 32]);
        let wire = f.encode();
        let mut r = FrameReader::new();
        for b in wire.iter() {
            assert_eq!(r.next_frame(), Ok(None), "no frame before the last byte");
            r.feed(&[*b]);
        }
        assert_eq!(r.next_frame(), Ok(Some(f)));
    }

    #[test]
    fn several_frames_in_one_feed() {
        let a = frame(FrameKind::Ping, &[1]);
        let b = frame(FrameKind::Pong, &[2]);
        let c = frame(FrameKind::Data, &[]);
        let mut wire = a.encode().to_vec();
        wire.extend_from_slice(&b.encode());
        wire.extend_from_slice(&c.encode());
        let mut r = FrameReader::new();
        r.feed(&wire);
        assert_eq!(r.next_frame(), Ok(Some(a)));
        assert_eq!(r.next_frame(), Ok(Some(b)));
        assert_eq!(r.next_frame(), Ok(Some(c)));
        assert_eq!(r.next_frame(), Ok(None));
    }

    #[test]
    fn bad_magic_is_fatal_and_sticky() {
        let mut r = FrameReader::new();
        r.feed(b"NOPE_________");
        let err = r.next_frame().unwrap_err();
        assert!(matches!(err, FrameError::BadMagic { .. }));
        // Poisoned: even well-formed follow-up bytes cannot resurrect it.
        r.feed(&frame(FrameKind::Ping, &[]).encode());
        assert!(r.next_frame().is_err());
    }

    #[test]
    fn payload_damage_is_rejected_by_crc() {
        let wire = frame(FrameKind::Data, b"payload-bytes").encode();
        for ix in FRAME_HEADER_LEN..wire.len() {
            let mut damaged = wire.to_vec();
            damaged[ix] ^= 0x40;
            let mut r = FrameReader::new();
            r.feed(&damaged);
            assert!(
                matches!(r.next_frame(), Err(FrameError::BadCrc { .. })),
                "flip at {ix} must fail the crc"
            );
        }
    }

    #[test]
    fn kind_damage_is_rejected() {
        let wire = frame(FrameKind::Data, b"x").encode();
        let mut damaged = wire.to_vec();
        damaged[4] = 0xEE; // kind byte: crc covers it
        let mut r = FrameReader::new();
        r.feed(&damaged);
        assert!(r.next_frame().is_err());
    }

    #[test]
    fn oversize_length_is_rejected_before_buffering() {
        let mut wire = frame(FrameKind::Data, b"x").encode().to_vec();
        wire[5..9].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut r = FrameReader::new();
        r.feed(&wire);
        assert!(matches!(r.next_frame(), Err(FrameError::Oversize { .. })));
    }

    #[test]
    fn hello_round_trips() {
        let hello = NodeHello {
            node: NodeId::from_raw(42),
            version: PROTOCOL_VERSION,
            features: FEATURE_RELIABLE | FEATURE_HEARTBEAT,
        };
        assert_eq!(NodeHello::decode(&hello.encode()), Some(hello));
        assert_eq!(NodeHello::decode(&hello.encode()[..7]), None, "truncated");
        let mut padded = hello.encode().to_vec();
        padded.push(0);
        assert_eq!(NodeHello::decode(&padded), None, "padded");
    }

    #[test]
    fn reject_round_trips_every_variant() {
        let samples = [
            HelloReject::VersionMismatch { ours: 1, theirs: 2 },
            HelloReject::UnknownNode(NodeId::from_raw(7)),
            HelloReject::IdCollision(NodeId::from_raw(3)),
        ];
        for r in samples {
            assert_eq!(HelloReject::decode(&r.encode()), Some(r), "{r}");
        }
        assert_eq!(HelloReject::decode(&[]), None);
        assert_eq!(HelloReject::decode(&[99, 0, 0]), None, "unknown code");
    }

    #[test]
    fn display_is_informative() {
        assert!(NodeId::from_raw(3).to_string().contains("N3"));
        let r = HelloReject::VersionMismatch { ours: 1, theirs: 9 };
        assert!(r.to_string().contains("version"));
        let e = FrameError::Oversize { len: u32::MAX };
        assert!(e.to_string().contains("ceiling"));
    }

    #[test]
    fn compaction_keeps_partial_frames_intact() {
        // Stream many frames through a reader, always feeding fragments
        // that straddle frame boundaries, and confirm nothing is lost to
        // buffer compaction.
        let frames: Vec<Frame> = (0..50u8)
            .map(|i| frame(FrameKind::Data, &vec![i; (i as usize * 7) % 97]))
            .collect();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        let mut r = FrameReader::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(13) {
            r.feed(chunk);
            while let Some(f) = r.next_frame().expect("clean stream") {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
    }
}
