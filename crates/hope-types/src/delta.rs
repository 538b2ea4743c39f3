//! Delta encoding for piggybacked dependency sets.
//!
//! Every user message carries the sender's cumulative dependency tag
//! ([`DepTag`](crate::DepTag)). Deep speculation makes that tag large and
//! slow-changing: consecutive messages on one link usually differ by at
//! most an AID or two, yet the naive wire form re-ships the whole set
//! every send — the on-the-wire face of the §6 quadratic cost.
//!
//! [`TagEncoder`]/[`TagDecoder`] fix this per link. The encoder remembers
//! the last tag the peer has *acknowledged* and emits a [`SetCoding`]:
//! either the set verbatim (`Full`) or its symmetric difference against
//! that acked base (`Delta { base_seq, add, del }`). The decoder keeps a
//! bounded window of recently decoded sets keyed by link sequence number,
//! so it can resolve a delta even when envelopes arrive out of order.
//!
//! Loss is self-healing by construction: a delta is only emitted against
//! a base the peer has positively acknowledged, and when the base falls
//! outside the window (acks lost, peer restarted, long silence) the
//! encoder falls back to `Full`, which resynchronizes both sides
//! unconditionally. A crash/restart clears both directions' state
//! ([`TagEncoder::reset`]/[`TagDecoder::reset`]), forcing `Full` on the
//! first post-restart send.

use std::collections::BTreeMap;

use bytes::{BufMut, Bytes, BytesMut};

use crate::codec::{put_ido, read_ido, read_u64, read_u8};
use crate::IdoSet;

/// How a dependency set travels on a link: verbatim, or as a delta
/// against an earlier set both ends hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetCoding {
    /// The whole set, shipped verbatim (also the resync path).
    Full {
        /// The encoded set.
        set: IdoSet,
    },
    /// The set expressed as edits against the set that travelled on this
    /// link with sequence number `base_seq`.
    Delta {
        /// Link sequence number of the base set.
        base_seq: u64,
        /// Members present now but absent from the base.
        add: IdoSet,
        /// Members present in the base but absent now.
        del: IdoSet,
    },
}

/// Wire size in bytes of a set shipped verbatim (`u32` count + one `u64`
/// per member), as the shared codec's `put_ido` writes it.
pub fn full_set_wire_len(set: &IdoSet) -> usize {
    4 + 8 * set.len()
}

mod wire {
    pub const FULL: u8 = 1;
    pub const DELTA: u8 = 2;
}

impl SetCoding {
    /// Number of bytes [`SetCoding::encode`] produces, without encoding.
    pub fn wire_len(&self) -> usize {
        match self {
            SetCoding::Full { set } => 1 + full_set_wire_len(set),
            SetCoding::Delta { add, del, .. } => {
                1 + 8 + full_set_wire_len(add) + full_set_wire_len(del)
            }
        }
    }

    /// Serializes in the workspace's little-endian wire idiom.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        match self {
            SetCoding::Full { set } => {
                buf.put_u8(wire::FULL);
                put_ido(&mut buf, set);
            }
            SetCoding::Delta { base_seq, add, del } => {
                buf.put_u8(wire::DELTA);
                buf.put_u64_le(*base_seq);
                put_ido(&mut buf, add);
                put_ido(&mut buf, del);
            }
        }
        buf.freeze()
    }

    /// Parses a coding produced by [`SetCoding::encode`]; rejects
    /// truncated, malformed or padded input.
    pub fn decode(buf: &[u8]) -> Option<SetCoding> {
        let mut at = 0usize;
        let coding = match read_u8(buf, &mut at)? {
            wire::FULL => SetCoding::Full {
                set: read_ido(buf, &mut at)?,
            },
            wire::DELTA => SetCoding::Delta {
                base_seq: read_u64(buf, &mut at)?,
                add: read_ido(buf, &mut at)?,
                del: read_ido(buf, &mut at)?,
            },
            _ => return None,
        };
        (at == buf.len()).then_some(coding)
    }
}

/// Default history window for both codec sides: how far back (in link
/// sequence numbers) a delta base may lie, and how many decoded sets the
/// receiver retains to resolve reordered deltas.
pub const DEFAULT_CODEC_WINDOW: u64 = 32;

/// Sender side of the per-link dependency-set codec.
#[derive(Debug, Clone)]
pub struct TagEncoder {
    /// The newest (seq, set) this link's peer has acknowledged receiving.
    base: Option<(u64, IdoSet)>,
    /// Sets in flight: sent but not yet acknowledged, keyed by seq.
    sent: BTreeMap<u64, IdoSet>,
    window: u64,
}

impl TagEncoder {
    /// A fresh encoder with the given history window.
    pub fn new(window: u64) -> Self {
        TagEncoder {
            base: None,
            sent: BTreeMap::new(),
            window: window.max(1),
        }
    }

    /// Encodes `set` for the envelope carrying link sequence `seq`.
    /// Emits a delta only when an acked base exists and is recent enough
    /// for the peer to still hold it; otherwise ships the set verbatim.
    pub fn encode(&mut self, seq: u64, set: &IdoSet) -> SetCoding {
        let coding = match &self.base {
            Some((base_seq, base)) if seq.saturating_sub(*base_seq) <= self.window => {
                SetCoding::Delta {
                    base_seq: *base_seq,
                    add: set.difference(base),
                    del: base.difference(set),
                }
            }
            _ => SetCoding::Full { set: set.clone() },
        };
        self.sent.insert(seq, set.clone());
        // Anything the peer could no longer use as a base is dead weight.
        let floor = seq.saturating_sub(self.window);
        while let Some((&first, _)) = self.sent.first_key_value() {
            if first < floor && Some(first) != self.base.as_ref().map(|(s, _)| *s) {
                self.sent.remove(&first);
            } else {
                break;
            }
        }
        coding
    }

    /// Records that the peer acknowledged every envelope up to sequence
    /// `seq`: the newest set sent at or below it becomes the preferred
    /// delta base. (A cumulative ack can name an envelope that carried no
    /// set, so `seq` itself need not be in `sent`.)
    pub fn on_ack(&mut self, seq: u64) {
        let Some((&at, set)) = self.sent.range(..=seq).next_back() else {
            return;
        };
        if self
            .base
            .as_ref()
            .is_none_or(|(base_seq, _)| at > *base_seq)
        {
            self.base = Some((at, set.clone()));
            self.sent = self.sent.split_off(&at);
        }
    }

    /// The envelope carrying `seq` was given up unacknowledged: the peer
    /// never decoded its set, so an ack that passes over it must not make
    /// it the base.
    pub fn forget(&mut self, seq: u64) {
        self.sent.remove(&seq);
    }

    /// Forgets all link state (peer crash/restart): the next encode is
    /// forced `Full`, resynchronizing the pair.
    pub fn reset(&mut self) {
        self.base = None;
        self.sent.clear();
    }
}

impl Default for TagEncoder {
    fn default() -> Self {
        TagEncoder::new(DEFAULT_CODEC_WINDOW)
    }
}

/// Receiver side of the per-link dependency-set codec.
#[derive(Debug, Clone)]
pub struct TagDecoder {
    /// Recently decoded sets by link seq, retained as delta bases.
    decoded: BTreeMap<u64, IdoSet>,
    window: u64,
}

impl TagDecoder {
    /// A fresh decoder with the given history window.
    pub fn new(window: u64) -> Self {
        TagDecoder {
            decoded: BTreeMap::new(),
            window: window.max(1),
        }
    }

    /// Reconstructs the set carried by the envelope with sequence `seq`.
    /// Returns `None` when a delta references a base outside the retained
    /// window — the sender will have shipped (or will retransmit) a
    /// `Full` coding in that regime, so a well-behaved link never hits it.
    pub fn decode(&mut self, seq: u64, coding: &SetCoding) -> Option<IdoSet> {
        let set = match coding {
            SetCoding::Full { set } => set.clone(),
            SetCoding::Delta { base_seq, add, del } => {
                let base = self.decoded.get(base_seq)?;
                base.difference(del).union(add)
            }
        };
        self.decoded.insert(seq, set.clone());
        while self.decoded.len() as u64 > self.window {
            self.decoded.pop_first();
        }
        Some(set)
    }

    /// Forgets all link state (peer crash/restart).
    pub fn reset(&mut self) {
        self.decoded.clear();
    }
}

impl Default for TagDecoder {
    fn default() -> Self {
        TagDecoder::new(DEFAULT_CODEC_WINDOW)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AidId, ProcessId};

    fn aid(n: u64) -> AidId {
        AidId::from_raw(ProcessId::from_raw(n))
    }

    fn set(members: &[u64]) -> IdoSet {
        members.iter().map(|&n| aid(n)).collect()
    }

    #[test]
    fn first_send_is_full_then_deltas_after_ack() {
        let mut enc = TagEncoder::default();
        let c1 = enc.encode(1, &set(&[1, 2, 3]));
        assert!(matches!(c1, SetCoding::Full { .. }));
        // Unacked: still no usable base.
        let c2 = enc.encode(2, &set(&[1, 2, 3, 4]));
        assert!(matches!(c2, SetCoding::Full { .. }));
        enc.on_ack(1);
        let c3 = enc.encode(3, &set(&[1, 2, 3, 4]));
        assert_eq!(
            c3,
            SetCoding::Delta {
                base_seq: 1,
                add: set(&[4]),
                del: IdoSet::new(),
            }
        );
    }

    #[test]
    fn cumulative_ack_on_an_untagged_seq_takes_the_newest_set_below_it() {
        // Seqs 1, 3 and 5 carried sets; 2, 4 and 6 were protocol messages
        // the encoder never saw.
        let mut enc = TagEncoder::default();
        for (seq, members) in [(1, &[1][..]), (3, &[1, 2]), (5, &[1, 2, 3])] {
            assert!(matches!(
                enc.encode(seq, &set(members)),
                SetCoding::Full { .. }
            ));
        }
        let base_of = |enc: &mut TagEncoder, seq| match enc.encode(seq, &set(&[1, 2, 3])) {
            SetCoding::Delta { base_seq, .. } => Some(base_seq),
            SetCoding::Full { .. } => None,
        };
        enc.on_ack(4);
        assert_eq!(base_of(&mut enc, 7), Some(3), "newest set at or below 4");
        enc.on_ack(2);
        assert_eq!(base_of(&mut enc, 8), Some(3), "an older ack moves nothing");
        enc.on_ack(6);
        assert_eq!(base_of(&mut enc, 9), Some(5));
        // Nothing at or below the ack that is not already the base.
        enc.on_ack(6);
        assert_eq!(base_of(&mut enc, 10), Some(5));
        let mut fresh = TagEncoder::default();
        fresh.encode(3, &set(&[1]));
        fresh.on_ack(2);
        assert_eq!(base_of(&mut fresh, 4), None, "nothing sent at or below 2");
        // A set the peer never got (its envelope was abandoned) is no base.
        fresh.forget(4);
        fresh.forget(3);
        fresh.on_ack(4);
        assert_eq!(base_of(&mut fresh, 5), None);
    }

    #[test]
    fn decoder_resolves_deltas_and_reordering() {
        let mut enc = TagEncoder::default();
        let mut dec = TagDecoder::default();
        let s1 = set(&[1, 2]);
        let s2 = set(&[2, 3, 4]);
        let s3 = set(&[3, 4]);
        let c1 = enc.encode(1, &s1);
        enc.on_ack(1);
        let c2 = enc.encode(2, &s2);
        let c3 = enc.encode(3, &s3);
        assert_eq!(dec.decode(1, &c1).unwrap(), s1);
        // Out-of-order arrival: seq 3 before seq 2. Both delta against 1.
        assert_eq!(dec.decode(3, &c3).unwrap(), s3);
        assert_eq!(dec.decode(2, &c2).unwrap(), s2);
    }

    #[test]
    fn stale_base_falls_back_to_full() {
        let mut enc = TagEncoder::new(4);
        let c = enc.encode(1, &set(&[1]));
        assert!(matches!(c, SetCoding::Full { .. }));
        enc.on_ack(1);
        // Base seq 1 is too old for seq 10 with window 4: resync.
        let c = enc.encode(10, &set(&[1, 2]));
        assert!(matches!(c, SetCoding::Full { .. }));
    }

    #[test]
    fn reset_forces_resync() {
        let mut enc = TagEncoder::default();
        let mut dec = TagDecoder::default();
        let c = enc.encode(1, &set(&[1]));
        dec.decode(1, &c).unwrap();
        enc.on_ack(1);
        enc.reset();
        dec.reset();
        let c = enc.encode(2, &set(&[1, 2]));
        assert!(matches!(c, SetCoding::Full { .. }));
        assert_eq!(dec.decode(2, &c).unwrap(), set(&[1, 2]));
    }

    #[test]
    fn decoder_rejects_base_outside_window() {
        let mut dec = TagDecoder::new(2);
        assert!(dec
            .decode(
                5,
                &SetCoding::Delta {
                    base_seq: 1,
                    add: set(&[9]),
                    del: IdoSet::new(),
                }
            )
            .is_none());
    }

    #[test]
    fn wire_roundtrip_and_len() {
        let samples = [
            SetCoding::Full { set: set(&[1, 2]) },
            SetCoding::Full { set: IdoSet::new() },
            SetCoding::Delta {
                base_seq: 7,
                add: set(&[3]),
                del: set(&[1, 2]),
            },
        ];
        for c in samples {
            let bytes = c.encode();
            assert_eq!(bytes.len(), c.wire_len());
            assert_eq!(SetCoding::decode(&bytes).unwrap(), c);
        }
        assert_eq!(SetCoding::decode(&[]), None);
        assert_eq!(SetCoding::decode(&[9]), None);
        let good = SetCoding::Full { set: set(&[1]) }.encode();
        let mut padded = good.to_vec();
        padded.push(0);
        assert_eq!(SetCoding::decode(&padded), None);
    }

    #[test]
    fn delta_is_smaller_for_slow_changing_large_sets() {
        let big: IdoSet = (0..64).map(aid).collect();
        let mut bigger = big.clone();
        bigger.insert(aid(100));
        let mut enc = TagEncoder::default();
        let full = enc.encode(1, &big);
        enc.on_ack(1);
        let delta = enc.encode(2, &bigger);
        assert!(delta.wire_len() < full.wire_len() / 10);
    }
}
