//! The workspace's one little-endian wire idiom, shared by the envelope,
//! tag ([`SetCoding`](crate::SetCoding)) and op-log codecs. Writers are
//! generic over [`BufMut`] (a `BytesMut` or a `Vec<u8>`); readers advance
//! a cursor past what they consumed and return `None`, never panic, on
//! truncated input.

use bytes::{BufMut, Bytes};

use crate::{AidId, IdoSet, ProcessId, UserMessage};

/// Reads `N` bytes, advancing the cursor.
fn read_array<const N: usize>(buf: &[u8], at: &mut usize) -> Option<[u8; N]> {
    let bytes = buf.get(*at..at.checked_add(N)?)?;
    *at += N;
    bytes.try_into().ok()
}

/// Reads one byte, advancing the cursor.
pub fn read_u8(buf: &[u8], at: &mut usize) -> Option<u8> {
    read_array::<1>(buf, at).map(|[b]| b)
}

/// Reads one little-endian `u32`, advancing the cursor.
pub fn read_u32(buf: &[u8], at: &mut usize) -> Option<u32> {
    read_array(buf, at).map(u32::from_le_bytes)
}

/// Reads one little-endian `u64`, advancing the cursor.
pub fn read_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    read_array(buf, at).map(u64::from_le_bytes)
}

/// Writes `data` with a `u32` length prefix.
pub(crate) fn put_bytes(buf: &mut impl BufMut, data: &[u8]) {
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(data);
}

/// Reads a `u32`-length-prefixed byte string, advancing the cursor.
pub(crate) fn read_bytes(buf: &[u8], at: &mut usize) -> Option<Bytes> {
    let n = read_u32(buf, at)? as usize;
    let bytes = buf.get(*at..at.checked_add(n)?)?;
    *at += n;
    Some(Bytes::copy_from_slice(bytes))
}

/// Writes one AID as its raw `u64`.
pub fn put_aid(buf: &mut impl BufMut, aid: AidId) {
    buf.put_u64_le(aid.process().as_raw());
}

/// Reads one AID, advancing the cursor.
pub fn read_aid(buf: &[u8], at: &mut usize) -> Option<AidId> {
    Some(AidId::from_raw(ProcessId::from_raw(read_u64(buf, at)?)))
}

/// Writes an optional value: a presence byte (0 or 1), then the value.
pub fn put_opt<B: BufMut, T>(buf: &mut B, value: Option<T>, put: impl FnOnce(&mut B, T)) {
    match value {
        Some(v) => {
            buf.put_u8(1);
            put(buf, v);
        }
        None => buf.put_u8(0),
    }
}

/// Reads a value written by [`put_opt`]; any other presence byte is
/// malformed.
pub fn read_opt<T>(
    buf: &[u8],
    at: &mut usize,
    read: impl FnOnce(&[u8], &mut usize) -> Option<T>,
) -> Option<Option<T>> {
    match read_u8(buf, at)? {
        0 => Some(None),
        1 => read(buf, at).map(Some),
        _ => None,
    }
}

/// Writes a dependency set verbatim: a `u32` count, then one `u64` per
/// member in set order ([`full_set_wire_len`](crate::full_set_wire_len)
/// bytes).
pub(crate) fn put_ido(buf: &mut impl BufMut, ido: &IdoSet) {
    buf.put_u32_le(ido.len() as u32);
    for &aid in ido.iter() {
        put_aid(buf, aid);
    }
}

/// Reads a set written by [`put_ido`], advancing the cursor.
pub(crate) fn read_ido(buf: &[u8], at: &mut usize) -> Option<IdoSet> {
    let n = read_u32(buf, at)?;
    let mut ido = IdoSet::new();
    for _ in 0..n {
        ido.insert(read_aid(buf, at)?);
    }
    Some(ido)
}

/// Writes a user message's body: channel, length-prefixed data, tag.
pub fn put_user_message(buf: &mut impl BufMut, msg: &UserMessage) {
    buf.put_u32_le(msg.channel);
    put_bytes(buf, &msg.data);
    put_ido(buf, &msg.tag);
}

/// Reads a body written by [`put_user_message`], advancing the cursor.
pub fn read_user_message(buf: &[u8], at: &mut usize) -> Option<UserMessage> {
    let channel = read_u32(buf, at)?;
    let data = read_bytes(buf, at)?;
    let tag = read_ido(buf, at)?;
    Some(UserMessage::tagged(channel, data, tag))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_stop_at_the_end_without_moving_the_cursor() {
        let buf = [1u8, 2, 3];
        let mut at = 0;
        assert_eq!(read_u32(&buf, &mut at), None);
        assert_eq!(at, 0);
        assert_eq!(read_u8(&buf, &mut at), Some(1));
        assert_eq!(read_u64(&buf, &mut at), None);
        assert_eq!(at, 1);
        let mut far = usize::MAX;
        assert_eq!(read_u64(&buf, &mut far), None, "no overflow past the end");
    }

    #[test]
    fn one_writer_fills_both_buffer_types_identically() {
        let msg = UserMessage::tagged(
            9,
            Bytes::from_static(b"abc"),
            [1, 7]
                .map(|n| AidId::from_raw(ProcessId::from_raw(n)))
                .into_iter()
                .collect(),
        );
        let mut vec = Vec::new();
        put_user_message(&mut vec, &msg);
        let mut bytes = bytes::BytesMut::new();
        put_user_message(&mut bytes, &msg);
        assert_eq!(&vec[..], &bytes.freeze()[..]);
        let mut at = 0;
        assert_eq!(read_user_message(&vec, &mut at), Some(msg));
        assert_eq!(at, vec.len());
        for cut in 0..vec.len() {
            assert_eq!(read_user_message(&vec[..cut], &mut 0), None, "cut={cut}");
        }
    }
}
