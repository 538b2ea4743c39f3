//! Model-based properties of the reliable sublayer's per-link record
//! (`hope_runtime::LinkRecord`): arbitrary interleavings of the inputs a
//! link sees, on two links sharing one endpoint, against a naive model
//! that keeps a flat list of everything ever sent and works every
//! cumulative answer out by scanning it. After every input, every seq the
//! model sent is looked up in the record's retransmit buffer.
//!
//! The same inputs drive the dependency-tag codec end to end: beside each
//! record the model keeps a `TagEncoder`/`TagDecoder` pair fed as a wire
//! that carried coded tags would feed it — a send encodes, an ack
//! acknowledges, an abandon forgets, a crash resets and a first delivery
//! decodes.

use hope_runtime::{AckPlan, LinkId, LinkRecord, Overdue, ReliableState, ACK_EVERY};
use hope_types::{
    AidId, Envelope, IdoSet, Payload, ProcessId, SetCoding, TagDecoder, TagEncoder, UserMessage,
    VirtualTime, DEFAULT_CODEC_WINDOW,
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
/// sent so far, so copies hit live, retired and abandoned entries alike.
#[derive(Debug, Clone)]
enum Op {
    Send {
        link: usize,
        tag: u8,
    },
    /// `n` sends at once, nothing arriving in between: the retransmit
    /// buffer grows past what single sends reach and, with acks retiring
    /// its front, wraps around and regrows. The frames carry no coded tag
    /// (as a `Hope` message carries none), so the codec sees only `Send`s.
    Burst {
        link: usize,
        n: u8,
    },
    /// A copy arrives: the first, a wire duplicate or a retransmission.
    Deliver {
        link: usize,
        pick: u8,
    },
    /// A cumulative ack arrives, for some prefix of what has arrived,
    /// possibly not for the first time and possibly an old one.
    Ack {
        link: usize,
        pick: u8,
    },
    /// The delayed-ack timer fires.
    AckDue {
        link: usize,
    },
    /// The retransmit timer fires, an era after everything pending was
    /// sent or resent: all of it is overdue.
    Timer {
        link: usize,
    },
    /// The driver's queue is lost, the link's two timers with it.
    TimersLost {
        link: usize,
    },
    Crash {
        pid: u64,
    },
}

fn op() -> impl Strategy<Value = Op> {
    let on_link = || (0usize..2, any::<u8>());
    prop_oneof![
        4 => on_link().prop_map(|(link, tag)| Op::Send { link, tag }),
        1 => (0usize..2, 1u8..=100).prop_map(|(link, n)| Op::Burst { link, n }),
        6 => on_link().prop_map(|(link, pick)| Op::Deliver { link, pick }),
        3 => on_link().prop_map(|(link, pick)| Op::Ack { link, pick }),
        2 => (0usize..2).prop_map(|link| Op::AckDue { link }),
        2 => (0usize..2).prop_map(|link| Op::Timer { link }),
        1 => (0usize..2).prop_map(|link| Op::TimersLost { link }),
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
    /// Whether the frame carries a coded tag (a `Burst`'s does not).
    coded: bool,
    /// What the frame carries in place of the tag, until a first copy
    /// arrives and decodes it.
    coding: Option<SetCoding>,
    /// The link's crash count when the tag was coded.
    epoch: u32,
    fate: Fate,
    delivered: bool,
    /// Karn's marker.
    resent: bool,
    /// Timer resends so far.
    attempts: u32,
    sent_at: u64,
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
    /// In-order first arrivals since the last ack went out.
    owed: u32,
    ack_timer: bool,
    retransmit_timer: bool,
    enc: TagEncoder,
    dec: TagDecoder,
}

impl LinkModel {
    fn seq(&self, pick: u8) -> Option<u64> {
        (!self.sent.is_empty()).then(|| u64::from(pick) % self.sent.len() as u64 + 1)
    }

    fn pending(&self) -> usize {
        let pending = |m: &&Sent| m.fate == Fate::Pending;
        self.sent.iter().filter(pending).count()
    }

    /// What a cumulative ack sent now says: everything up to here arrived.
    fn prefix(&self) -> u64 {
        self.sent.iter().take_while(|m| m.observed()).count() as u64
    }
}

const ACKED_AT: u64 = 7_000;
/// Every sent message is resent at most this often before it is given up.
const CAP: u32 = 2;
/// Far longer than any backed-off timeout the estimator's clamp allows.
const ERA: u64 = 1 << 44;

/// One send on `link`, its tag coded if it has one: the record hands out
/// the next seq, and only the send that finds no timer starts one.
fn send(st: &mut ReliableState, link: usize, m: &mut LinkModel, now: u64, tag: Option<IdoSet>) {
    let id = links()[link];
    let rec = st.link_mut(id);
    let seq = rec.assign_seq();
    assert_eq!(seq, m.sent.len() as u64 + 1);
    let coding = tag.as_ref().map(|tag| m.enc.encode(seq, tag));
    let tag = tag.unwrap_or_default();
    let envelope = Envelope {
        src: id.0,
        dst: id.1,
        sent_at: VirtualTime::from_nanos(now),
        seq,
        payload: Payload::User(UserMessage::tagged(0, bytes::Bytes::new(), tag.clone())),
    };
    rec.track(envelope);
    assert_eq!(rec.arm_timer(), !m.retransmit_timer);
    m.retransmit_timer = true;
    m.sent.push(Sent {
        tag,
        coded: coding.is_some(),
        coding,
        epoch: m.epoch,
        fate: Fate::Pending,
        delivered: false,
        resent: false,
        attempts: 0,
        sent_at: now,
    });
}

/// An ack goes out: it must say what the flat model says.
fn ack_goes_out(rec: &mut LinkRecord, m: &mut LinkModel) {
    assert_eq!(rec.take_ack(), m.prefix());
    m.owed = 0;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn record_agrees_with_a_flat_model(ops in proptest::collection::vec(op(), 0..160)) {
        let mut st = ReliableState::new();
        let mut model = [LinkModel::default(), LinkModel::default()];
        let mut now = 0u64;
        for op in ops {
            match op {
                // The codec resolves reordering within its window; past it
                // a delta can legitimately lose its base without a crash.
                // `Burst`s count too, so every coded seq is inside it.
                Op::Send { link, .. } if model[link].sent.len() as u64 >= DEFAULT_CODEC_WINDOW => {}
                Op::Send { link, tag } => {
                    let tag: IdoSet = (0..3u64)
                        .filter(|bit| tag >> bit & 1 == 1)
                        .map(|bit| AidId::from_raw(p(10 + bit)))
                        .collect();
                    send(&mut st, link, &mut model[link], now, Some(tag));
                }
                Op::Burst { link, n } => {
                    for _ in 0..n {
                        send(&mut st, link, &mut model[link], now, None);
                    }
                }
                Op::Deliver { link, pick } => {
                    let Some(seq) = model[link].seq(pick) else { continue };
                    let (rec, m) = (st.link_mut(links()[link]), &mut model[link]);
                    let sent = &mut m.sent[seq as usize - 1];
                    // Exactly once per (link, seq), and never once abandoned.
                    let fresh = !sent.observed();
                    prop_assert_eq!(rec.accept(seq), fresh);
                    if fresh && sent.coded {
                        // Neither acked nor abandoned: its coding is still
                        // in flight.
                        let coding = sent.coding.take().expect("a first copy finds its coding");
                        let decoded = m.dec.decode(seq, &coding);
                        if sent.epoch == m.epoch {
                            prop_assert_eq!(decoded, Some(sent.tag.clone()));
                        } else if let Some(set) = decoded {
                            // A crash of either end lost the codec state:
                            // a delta's base may be gone, but a tag that
                            // does decode is never a wrong one.
                            prop_assert_eq!(set, sent.tag.clone());
                        }
                    }
                    sent.delivered |= fresh;
                    // At once for a duplicate or past a gap; otherwise
                    // owed, with one timer for all that is.
                    let plan = rec.ack_plan(seq, fresh);
                    if !fresh || seq > m.prefix() {
                        prop_assert_eq!(plan, AckPlan::Now);
                        ack_goes_out(rec, m);
                        continue;
                    }
                    m.owed += 1;
                    if m.owed >= ACK_EVERY {
                        prop_assert_eq!(plan, AckPlan::Now);
                        ack_goes_out(rec, m);
                    } else {
                        let expect = if m.ack_timer { AckPlan::Wait } else { AckPlan::Arm };
                        prop_assert_eq!(plan, expect);
                        m.ack_timer = true;
                    }
                }
                Op::Ack { link, pick } => {
                    // An ack exists only for a prefix that arrived.
                    let m = &mut model[link];
                    let acked = u64::from(pick) % (m.prefix() + 1);
                    let outcome = st.link_mut(links()[link]).acknowledge_at(acked, now + ACKED_AT);
                    m.enc.on_ack(acked);
                    let covered = &mut m.sent[..acked as usize];
                    let retired = || covered.iter().filter(|m| m.fate == Fate::Pending);
                    prop_assert_eq!(outcome.retired, retired().count() > 0);
                    // Karn's rule, and no sample without a retirement: the
                    // newest retired entry that was never resent.
                    let fresh = retired().rfind(|m| !m.resent);
                    let sample = fresh.map(|m| now + ACKED_AT - m.sent_at);
                    prop_assert_eq!(outcome.rtt_sample_nanos, sample);
                    for m in covered.iter_mut().filter(|m| m.fate == Fate::Pending) {
                        m.fate = Fate::Retired;
                    }
                }
                Op::AckDue { link } => {
                    let (rec, m) = (st.link_mut(links()[link]), &mut model[link]);
                    prop_assert_eq!(rec.ack_due(), m.owed > 0);
                    m.ack_timer = false;
                    if m.owed > 0 {
                        ack_goes_out(rec, m);
                    }
                }
                Op::Timer { link } => {
                    now += ERA;
                    let (rec, m) = (st.link_mut(links()[link]), &mut model[link]);
                    let (mut resent, mut lost) = (Vec::new(), 0);
                    let fire = |rec: &mut LinkRecord, resent: &mut Vec<(u64, u32)>, lost: &mut usize| {
                        rec.retransmit_due(now, CAP, false, true, |due| match due {
                            Overdue::Resend { env, attempt } => resent.push((env.seq, attempt)),
                            Overdue::Abandoned(_) => *lost += 1,
                        })
                    };
                    let next = fire(rec, &mut resent, &mut lost);
                    // Oldest first, each with its own count; given up
                    // once resent CAP times.
                    let (mut expect, mut expect_lost) = (Vec::new(), 0);
                    for (at, sent) in m.sent.iter_mut().enumerate() {
                        if sent.fate != Fate::Pending {
                            continue;
                        }
                        if sent.attempts >= CAP {
                            sent.fate = Fate::Abandoned;
                            // The peer never decoded its set: an ack that
                            // passes over it must not make it the base.
                            m.enc.forget(at as u64 + 1);
                            expect_lost += 1;
                        } else {
                            sent.attempts += 1;
                            sent.resent = true;
                            expect.push((at as u64 + 1, sent.attempts));
                        }
                    }
                    prop_assert_eq!(&resent, &expect);
                    prop_assert_eq!(lost, expect_lost);
                    // Rearmed iff something is left to guard ...
                    prop_assert_eq!(next.is_some(), m.pending() > 0);
                    m.retransmit_timer = next.is_some();
                    // ... and none of it is due again yet.
                    resent.clear();
                    let again = fire(rec, &mut resent, &mut lost);
                    prop_assert_eq!((resent.len(), lost, again), (0, expect_lost, next));
                }
                Op::TimersLost { link } => {
                    st.link_mut(links()[link]).timers_lost();
                    let m = &mut model[link];
                    (m.owed, m.ack_timer, m.retransmit_timer) = (0, false, false);
                }
                Op::Crash { pid } => {
                    st.on_crash(p(pid));
                    for (id, m) in links().iter().zip(&mut model) {
                        if id.0 == p(pid) || id.1 == p(pid) {
                            m.epoch += 1;
                            m.enc.reset();
                            m.dec.reset();
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
            for (id, m) in links().into_iter().zip(&model) {
                let rec = st.link_mut(id);
                prop_assert_eq!(rec.owes_ack(), m.owed > 0);
                // The buffer holds exactly what the model calls pending,
                // each envelope under its own seq.
                for (seq, sent) in (1u64..).zip(&m.sent) {
                    let unacked = rec.unacked(seq).map(|env| env.seq);
                    let pending = (sent.fate == Fate::Pending).then_some(seq);
                    prop_assert_eq!(unacked, pending, "unacked({})", seq);
                }
            }
        }
    }
}
