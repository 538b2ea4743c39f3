//! Record framing: `[kind u8][len u32 LE][crc u32 LE][payload]`.
//!
//! The CRC covers the kind byte, the length field and the payload, so a
//! corrupted header is as detectable as a corrupted body. The reader
//! never panics: any byte sequence decodes to either a valid frame, a
//! clean end-of-log, or [`FrameOutcome::Invalid`] — the recovery scan
//! stops at the first invalid frame and keeps the prefix before it.

use hope_types::crc32::crc32;

/// Bytes of framing overhead per record: kind (1) + len (4) + crc (4).
pub const HEADER_BYTES: usize = 9;

/// What a framed record contains. Payload semantics live in `hope-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// One incremental log event (an `Op` append or a rollback marker).
    Event = 1,
    /// A full snapshot superseding every record before it.
    Checkpoint = 2,
}

impl RecordKind {
    fn from_byte(b: u8) -> Option<RecordKind> {
        match b {
            1 => Some(RecordKind::Event),
            2 => Some(RecordKind::Checkpoint),
            _ => None,
        }
    }
}

/// Appends one framed record to `buf`.
pub fn append_frame(buf: &mut Vec<u8>, kind: RecordKind, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("record payload exceeds u32::MAX bytes");
    let crc = crc32(&[&[kind as u8], &len.to_le_bytes(), payload]);
    buf.push(kind as u8);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Result of reading one frame at a given offset.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameOutcome<'a> {
    /// A checksum-valid frame; `next` is the offset just past it.
    Frame {
        /// The record kind byte, validated.
        kind: RecordKind,
        /// The payload bytes, checksum-verified.
        payload: &'a [u8],
        /// Offset of the byte after this frame.
        next: usize,
    },
    /// Clean end: `at` is exactly the end of the buffer.
    End,
    /// Torn, truncated or corrupted bytes; nothing past `at` is trusted.
    Invalid,
}

/// Reads the frame starting at `at`, verifying the checksum. Never
/// panics on arbitrary bytes; all failure modes map to `Invalid`.
pub fn read_frame(buf: &[u8], at: usize) -> FrameOutcome<'_> {
    if at == buf.len() {
        return FrameOutcome::End;
    }
    if at > buf.len() || buf.len() - at < HEADER_BYTES {
        return FrameOutcome::Invalid;
    }
    let Some(kind) = RecordKind::from_byte(buf[at]) else {
        return FrameOutcome::Invalid;
    };
    let len = u32::from_le_bytes(buf[at + 1..at + 5].try_into().unwrap()) as usize;
    let stored = u32::from_le_bytes(buf[at + 5..at + 9].try_into().unwrap());
    let body = at + HEADER_BYTES;
    if buf.len() - body < len {
        return FrameOutcome::Invalid;
    }
    let payload = &buf[body..body + len];
    if crc32(&[&buf[at..at + 5], payload]) != stored {
        return FrameOutcome::Invalid;
    }
    FrameOutcome::Frame {
        kind,
        payload,
        next: body + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        append_frame(&mut buf, RecordKind::Event, b"first");
        append_frame(&mut buf, RecordKind::Checkpoint, b"");
        append_frame(&mut buf, RecordKind::Event, b"third");
        let mut at = 0;
        let mut seen = Vec::new();
        loop {
            match read_frame(&buf, at) {
                FrameOutcome::Frame {
                    kind,
                    payload,
                    next,
                } => {
                    seen.push((kind, payload.to_vec()));
                    at = next;
                }
                FrameOutcome::End => break,
                FrameOutcome::Invalid => panic!("valid log must scan cleanly"),
            }
        }
        assert_eq!(
            seen,
            vec![
                (RecordKind::Event, b"first".to_vec()),
                (RecordKind::Checkpoint, b"".to_vec()),
                (RecordKind::Event, b"third".to_vec()),
            ]
        );
    }

    #[test]
    fn truncation_is_invalid_not_a_panic() {
        let mut buf = Vec::new();
        append_frame(&mut buf, RecordKind::Event, b"payload bytes");
        for cut in 1..buf.len() {
            assert_eq!(
                read_frame(&buf[..cut], 0),
                FrameOutcome::Invalid,
                "cut={cut}"
            );
        }
        assert_eq!(read_frame(&buf[..0], 0), FrameOutcome::End);
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let mut buf = Vec::new();
        append_frame(&mut buf, RecordKind::Event, b"checksummed");
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut evil = buf.clone();
                evil[byte] ^= 1 << bit;
                match read_frame(&evil, 0) {
                    FrameOutcome::Frame { .. } => {
                        panic!("flip at {byte}:{bit} produced a valid frame")
                    }
                    FrameOutcome::End | FrameOutcome::Invalid => {}
                }
            }
        }
    }

    #[test]
    fn unknown_kind_byte_is_invalid() {
        let mut buf = Vec::new();
        append_frame(&mut buf, RecordKind::Event, b"x");
        buf[0] = 7;
        assert_eq!(read_frame(&buf, 0), FrameOutcome::Invalid);
    }

    #[test]
    fn insane_length_is_invalid() {
        let mut buf = Vec::new();
        append_frame(&mut buf, RecordKind::Event, b"x");
        buf[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(read_frame(&buf, 0), FrameOutcome::Invalid);
    }
}
