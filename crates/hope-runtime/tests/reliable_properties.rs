//! Model-based properties of the reliable sublayer's per-link record
//! (`hope_runtime::LinkRecord`): arbitrary interleavings of the inputs a
//! link sees, on two links sharing one endpoint, against a naive model
//! that keeps a flat list of everything ever sent.

use hope_runtime::{LinkId, ReliableState, TagDecode};
use hope_types::{
    AidId, Envelope, IdoSet, Payload, ProcessId, UserMessage, VirtualTime, DEFAULT_CODEC_WINDOW,
};
use proptest::prelude::*;

fn p(n: u64) -> ProcessId {
    ProcessId::from_raw(n)
}

/// 1->2 and 2->3: process 2 is the receiver of one and the sender of the
/// other, 1 and 3 touch one link each.
fn links() -> [LinkId; 2] {
    [(p(1), p(2)), (p(2), p(3))]
}

/// One input to a link. `pick` chooses among the link's sequence numbers
/// sent so far, so copies, acks and timers hit live, retired and
/// abandoned entries alike.
#[derive(Debug, Clone)]
enum Op {
    Send {
        link: usize,
        tag: u8,
    },
    /// A copy arrives: the first, a wire duplicate or a retransmission.
    Deliver {
        link: usize,
        pick: u8,
    },
    /// An ack arrives for something delivered, possibly not for the first time.
    Ack {
        link: usize,
        pick: u8,
    },
    /// A retransmit timer fires.
    Resend {
        link: usize,
        pick: u8,
    },
    Abandon {
        link: usize,
        pick: u8,
    },
    Crash {
        pid: u64,
    },
}

fn op() -> impl Strategy<Value = Op> {
    let on_link = || (0usize..2, any::<u8>());
    prop_oneof![
        4 => on_link().prop_map(|(link, tag)| Op::Send { link, tag }),
        5 => on_link().prop_map(|(link, pick)| Op::Deliver { link, pick }),
        4 => on_link().prop_map(|(link, pick)| Op::Ack { link, pick }),
        2 => on_link().prop_map(|(link, pick)| Op::Resend { link, pick }),
        1 => on_link().prop_map(|(link, pick)| Op::Abandon { link, pick }),
        1 => (1u64..4).prop_map(|pid| Op::Crash { pid }),
    ]
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Pending,
    Retired,
    Abandoned,
}

/// What the model remembers of one sent message (its seq is its index + 1).
#[derive(Debug)]
struct Sent {
    tag: IdoSet,
    /// The link's crash count when the tag was coded.
    epoch: u32,
    fate: Fate,
    delivered: bool,
    resent: bool,
}

impl Sent {
    /// The receiver's window has it: a copy arrived, or the sender gave up.
    fn observed(&self) -> bool {
        self.delivered || self.fate == Fate::Abandoned
    }
}

#[derive(Debug, Default)]
struct LinkModel {
    sent: Vec<Sent>,
    /// Crashes of either endpoint so far.
    epoch: u32,
}

impl LinkModel {
    fn seq(&self, pick: u8) -> Option<u64> {
        (!self.sent.is_empty()).then(|| u64::from(pick) % self.sent.len() as u64 + 1)
    }

    fn pending(&self) -> usize {
        let pending = |m: &&Sent| m.fate == Fate::Pending;
        self.sent.iter().filter(pending).count()
    }
}

const ACKED_AT: u64 = 7_000;

proptest! {
    #[test]
    fn record_agrees_with_a_flat_model(ops in proptest::collection::vec(op(), 0..120)) {
        let mut st = ReliableState::new();
        let mut model = [LinkModel::default(), LinkModel::default()];
        for op in ops {
            match op {
                // The codec resolves reordering within its window; past it
                // a delta can legitimately lose its base without a crash.
                Op::Send { link, .. } if model[link].sent.len() as u64 >= DEFAULT_CODEC_WINDOW => {}
                Op::Send { link, tag } => {
                    let (id, m) = (links()[link], &mut model[link]);
                    let tag: IdoSet = (0..3u64)
                        .filter(|bit| tag >> bit & 1 == 1)
                        .map(|bit| AidId::from_raw(p(10 + bit)))
                        .collect();
                    let rec = st.link_mut(id);
                    let seq = rec.assign_seq();
                    prop_assert_eq!(seq, m.sent.len() as u64 + 1);
                    let coding = rec.encode_tag(seq, &tag);
                    let envelope = Envelope {
                        src: id.0,
                        dst: id.1,
                        sent_at: VirtualTime::ZERO,
                        seq,
                        payload: Payload::User(UserMessage::tagged(0, bytes::Bytes::new(), tag.clone())),
                    };
                    rec.track(envelope, Some(coding));
                    m.sent.push(Sent {
                        tag,
                        epoch: m.epoch,
                        fate: Fate::Pending,
                        delivered: false,
                        resent: false,
                    });
                }
                Op::Deliver { link, pick } => {
                    let Some(seq) = model[link].seq(pick) else { continue };
                    let (rec, epoch) = (st.link_mut(links()[link]), model[link].epoch);
                    let m = &mut model[link].sent[seq as usize - 1];
                    // Exactly once per (link, seq), and never once abandoned.
                    let fresh = !m.observed();
                    prop_assert_eq!(rec.accept(seq), fresh);
                    if fresh {
                        let decoded = rec.decode_tag(seq);
                        if m.epoch == epoch {
                            prop_assert_eq!(decoded, TagDecode::Decoded(m.tag.clone()));
                        } else if let TagDecode::Decoded(set) = decoded {
                            // A crash of either end lost the codec state:
                            // a delta's base may be gone, but a tag that
                            // does decode is never a wrong one.
                            prop_assert_eq!(set, m.tag.clone());
                        }
                        m.delivered = true;
                    }
                }
                Op::Ack { link, pick } => {
                    let Some(seq) = model[link].seq(pick) else { continue };
                    let m = &mut model[link].sent[seq as usize - 1];
                    if !m.delivered {
                        continue; // an ack exists only for what arrived
                    }
                    let outcome = st.link_mut(links()[link]).acknowledge_at(seq, ACKED_AT);
                    prop_assert_eq!(outcome.retired, m.fate == Fate::Pending);
                    // Karn's rule, and no sample without a retirement.
                    let sample = (outcome.retired && !m.resent).then_some(ACKED_AT);
                    prop_assert_eq!(outcome.rtt_sample_nanos, sample);
                    if outcome.retired {
                        m.fate = Fate::Retired;
                    }
                }
                Op::Resend { link, pick } => {
                    let Some(seq) = model[link].seq(pick) else { continue };
                    let m = &mut model[link].sent[seq as usize - 1];
                    let rec = st.link_mut(links()[link]);
                    prop_assert_eq!(rec.unacked(seq).is_some(), m.fate == Fate::Pending);
                    // A timer that outlived its envelope marks nothing.
                    rec.mark_retransmitted(seq);
                    m.resent |= m.fate == Fate::Pending;
                }
                Op::Abandon { link, pick } => {
                    let Some(seq) = model[link].seq(pick) else { continue };
                    let m = &mut model[link].sent[seq as usize - 1];
                    let lost = st.link_mut(links()[link]).abandon(seq);
                    prop_assert_eq!(lost, m.fate == Fate::Pending);
                    if lost {
                        m.fate = Fate::Abandoned;
                    }
                }
                Op::Crash { pid } => {
                    st.on_crash(p(pid));
                    for (id, m) in links().iter().zip(&mut model) {
                        if id.0 == p(pid) || id.1 == p(pid) {
                            m.epoch += 1;
                        }
                        if id.0 == p(pid) {
                            m.sent.iter_mut().for_each(|sent| sent.resent = false);
                        }
                    }
                }
            }
            // sent - retired - abandoned, over both links.
            let pending: usize = model.iter().map(LinkModel::pending).sum();
            prop_assert_eq!(st.in_flight(), pending);
        }
        // A record with nothing pending holds nothing per-message: no
        // coding is left for any sequence number it ever sent.
        for (id, m) in links().into_iter().zip(&model) {
            if m.pending() == 0 {
                let rec = st.link_mut(id);
                for seq in 1..=m.sent.len() as u64 {
                    prop_assert_eq!(rec.decode_tag(seq), TagDecode::Uncoded);
                }
            }
        }
    }
}
