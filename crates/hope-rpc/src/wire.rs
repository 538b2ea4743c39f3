//! Wire format: a tiny self-describing header in front of the payload.
//!
//! Requests travel on [`CHANNEL_REQUEST`]; each request names the channel
//! its reply should be sent back on, which lets a client hold several
//! outstanding streamed calls at once.

use bytes::{BufMut, Bytes, BytesMut};
use hope_types::codec::read_u32;

/// The channel RPC servers listen on.
pub const CHANNEL_REQUEST: u32 = 0x5250_4300; // "RPC\0"

/// Reserved method id that makes [`RpcServer::serve`](crate::RpcServer)
/// return (used to let closed workloads reach quiescence).
pub const METHOD_STOP: u32 = u32::MAX;

/// A decoded RPC request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Application-chosen method id.
    pub method: u32,
    /// Channel the reply must be sent on.
    pub reply_channel: u32,
    /// Argument payload.
    pub body: Bytes,
}

/// Encodes a request frame.
pub fn encode_request(method: u32, reply_channel: u32, body: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(8 + body.len());
    out.put_u32_le(method);
    out.put_u32_le(reply_channel);
    out.put_slice(body);
    out.freeze()
}

/// Decodes a request frame. Returns `None` on malformed input.
pub fn decode_request(data: &Bytes) -> Option<Request> {
    let mut at = 0;
    Some(Request {
        method: read_u32(data, &mut at)?,
        reply_channel: read_u32(data, &mut at)?,
        body: data.slice(at..),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let frame = encode_request(7, 99, b"hello");
        let req = decode_request(&frame).unwrap();
        assert_eq!(req.method, 7);
        assert_eq!(req.reply_channel, 99);
        assert_eq!(&req.body[..], b"hello");
    }

    #[test]
    fn empty_body_roundtrip() {
        let frame = encode_request(0, 1, b"");
        let req = decode_request(&frame).unwrap();
        assert!(req.body.is_empty());
    }

    #[test]
    fn short_frame_is_rejected() {
        assert!(decode_request(&Bytes::from_static(b"xx")).is_none());
        assert!(decode_request(&Bytes::new()).is_none());
    }

    #[test]
    fn header_is_little_endian() {
        let frame = encode_request(0x0102_0304, 0x0a0b_0c0d, b"");
        assert_eq!(&frame[..4], &[0x04, 0x03, 0x02, 0x01]);
        assert_eq!(&frame[4..8], &[0x0d, 0x0c, 0x0b, 0x0a]);
    }
}
