//! Every byte format that leaves a process is pinned: a WAL record, an
//! op-log entry, a `SetCoding`, an envelope and a TCP frame, each for one
//! known value. The round-trip property tests prove a codec reads what it
//! writes; these prove the bytes themselves never move, so a refactor of
//! the shared cursor, set codec or CRC cannot change what an older log or
//! peer expects to read.

use bytes::Bytes;
use hope_core::durable::{append_frame, RecordKind};
use hope_core::Op;
use hope_types::net::{Frame, FrameKind};
use hope_types::{
    AidId, Envelope, IdoSet, Payload, ProcessId, SetCoding, UserMessage, VirtualTime,
};

fn aids(raw: &[u64]) -> IdoSet {
    raw.iter()
        .map(|&n| AidId::from_raw(ProcessId::from_raw(n)))
        .collect()
}

/// Channel 3, payload `hi`, tagged with X5 and X9.
fn tagged_message() -> UserMessage {
    UserMessage::tagged(3, Bytes::from_static(b"hi"), aids(&[5, 9]))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The user-message body every codec shares: channel, length-prefixed
/// data, then the tag as a count and one `u64` per AID.
const MESSAGE_BODY: &str = "03000000\
                            02000000 6869\
                            02000000 0500000000000000 0900000000000000";

fn spaced(groups: &str) -> String {
    groups.split_whitespace().collect()
}

#[test]
fn op_log_and_wal_record_bytes_are_pinned() {
    let op = Op::Receive {
        src: ProcessId::from_raw(7),
        msg: tagged_message(),
    };
    let op_bytes = spaced(&format!("09 0700000000000000 {MESSAGE_BODY}"));
    assert_eq!(hex(&op.encode()), op_bytes);
    let mut record = Vec::new();
    append_frame(&mut record, RecordKind::Event, &op.encode());
    assert_eq!(
        hex(&record),
        spaced(&format!("01 27000000 fe60efb5 {op_bytes}"))
    );
}

#[test]
fn set_coding_and_envelope_bytes_are_pinned() {
    let delta = SetCoding::Delta {
        base_seq: 42,
        add: aids(&[1, 300]),
        del: aids(&[2]),
    };
    assert_eq!(
        hex(&delta.encode()),
        spaced(
            "02 2a00000000000000 \
             02000000 0100000000000000 2c01000000000000 \
             01000000 0200000000000000"
        )
    );
    let envelope = Envelope {
        src: ProcessId::from_raw(1),
        dst: ProcessId::from_raw(2),
        sent_at: VirtualTime::from_nanos(1_000),
        seq: 4,
        payload: Payload::User(tagged_message()),
    };
    assert_eq!(
        hex(&envelope.encode()),
        spaced(&format!(
            "0100000000000000 0200000000000000 e803000000000000 0400000000000000 \
             10 {MESSAGE_BODY}"
        ))
    );
}

#[test]
fn tcp_frame_bytes_are_pinned() {
    let frame = Frame::new(FrameKind::Data, Bytes::from_static(b"hope")).encode();
    assert_eq!(
        hex(&frame),
        spaced("484f5045 04 04000000 0dee5c9c 686f7065")
    );
}
