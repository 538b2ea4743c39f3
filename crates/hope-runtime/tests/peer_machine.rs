//! Socket-free tests of the per-peer link machine
//! (`hope_runtime::PeerMachine`): scripted lifecycles, and a property
//! over two machines joined by an in-memory byte pipe that cuts wherever
//! it likes. Everything `net/tcp.rs` decides about a link it decides in
//! here, so none of this needs a port.

use std::collections::VecDeque;

use bytes::Bytes;
use hope_runtime::{NetConfig, NodeDirectory, PeerMachine, PeerOutput};
use hope_types::net::{Frame, FrameKind, FrameReader, HelloReject, NodeHello, NodeId};
use hope_types::{Envelope, HopeError, Payload};
use proptest::prelude::*;

const MS: u64 = 1_000_000;

fn n(raw: u16) -> NodeId {
    NodeId::from_raw(raw)
}

/// Node `node`'s default config; the machine reads no address from it.
fn cfg(node: u16) -> NetConfig {
    NetConfig::new(n(node), NodeDirectory::new())
}

/// Node 1's machine for its link to node 2: the side that dials.
fn dialer(cfg: &NetConfig) -> PeerMachine {
    PeerMachine::new(cfg, n(2))
}

fn payload(i: u32) -> Bytes {
    Bytes::from(i.to_le_bytes().to_vec())
}

fn number(data: &[u8]) -> u32 {
    u32::from_le_bytes(data.try_into().expect("a 4-byte test payload"))
}

/// `(seq, payload number)` of every data frame among `out`, in order.
fn data_written(out: &[PeerOutput]) -> Vec<(u64, u32)> {
    let frames = out.iter().filter_map(|o| match o {
        PeerOutput::Write(_, frame) if frame.kind == FrameKind::Data => Some(frame),
        _ => None,
    });
    frames
        .map(|frame| {
            let env = Envelope::decode(&frame.payload).expect("an envelope");
            let Payload::User(msg) = env.payload else {
                panic!("data frames carry user payloads");
            };
            (env.seq, number(&msg.data))
        })
        .collect()
}

fn delivered(out: &[PeerOutput]) -> Vec<u32> {
    let payloads = out.iter().filter_map(|o| match o {
        PeerOutput::Deliver(data) => Some(number(data)),
        _ => None,
    });
    payloads.collect()
}

fn ack(seq: u64) -> Frame {
    Frame::new(FrameKind::Ack, Bytes::from(seq.to_le_bytes().to_vec()))
}

/// `tick` at `now`, returning only what it asked for.
fn tick(m: &mut PeerMachine, now: u64) -> Vec<PeerOutput> {
    let mut out = Vec::new();
    m.tick(now, &mut out);
    out
}

#[test]
fn failed_dials_back_off_by_the_policy() {
    let cfg = cfg(1);
    let mut m = dialer(&cfg);
    let mut now = 0;
    assert_eq!(tick(&mut m, now), [PeerOutput::Dial], "first dial at once");
    for attempt in 0..3 {
        assert_eq!(tick(&mut m, now + 1), [], "one dial out at a time");
        m.dial_failed(now);
        let due = now + cfg.backoff.delay_nanos(attempt);
        assert_eq!(tick(&mut m, due - 1), [], "attempt {attempt}: too early");
        assert_eq!(tick(&mut m, due), [PeerOutput::Dial], "attempt {attempt}");
        now = due;
    }
    assert_eq!(m.stats().link_down_events, 3);
    // The higher node id waits to be dialed.
    let mut acceptor = PeerMachine::new(&self::cfg(2), n(1));
    assert_eq!(tick(&mut acceptor, 3_600_000 * MS), []);
}

#[test]
fn parked_sends_flush_in_seq_order_on_connect() {
    let mut m = dialer(&cfg(1));
    let mut out = Vec::new();
    for i in 0..5 {
        m.send(i, payload(i as u32), &mut out).expect("parks");
    }
    assert_eq!(out, [], "nothing to write on while down");
    assert_eq!((m.in_flight(), m.stats().parked), (5, 5));
    let generation = m.connected(10 * MS, &mut FrameReader::new(), &mut out);
    assert_eq!(
        data_written(&out),
        [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)],
        "oldest first: the receiver dedups, it does not reorder"
    );
    let this_connection = |o: &PeerOutput| matches!(o, PeerOutput::Write(g, _) if *g == generation);
    assert!(out.iter().all(this_connection));
    // The flush is the pipeline's retransmit step, so Karn's rule holds:
    // a parked envelope's send time is stale and its ack samples nothing.
    assert_eq!(m.stats().retransmits, 5);
    out.clear();
    m.frame(11 * MS, generation, ack(1), &mut out);
    assert_eq!(out, []);
    let stats = m.stats();
    assert_eq!((m.in_flight(), stats.acks, stats.rtt_samples), (4, 1, 0));
    // A send on the live link is wired at once and does sample.
    m.send(12 * MS, payload(5), &mut out).expect("link up");
    assert_eq!(data_written(&out), [(6, 5)]);
    m.frame(13 * MS, generation, ack(6), &mut out);
    let stats = m.stats();
    assert_eq!((stats.rtt_samples, stats.srtt_nanos), (1, MS));
}

fn acks_written(out: &[PeerOutput]) -> Vec<u64> {
    let acks = out.iter().filter_map(|o| match o {
        PeerOutput::Write(_, frame) if frame.kind == FrameKind::Ack => Some(u64::from_le_bytes(
            frame.payload[..].try_into().expect("8 bytes"),
        )),
        _ => None,
    });
    acks.collect()
}

/// The link's two timers are two due times `tick` fires, and an end is
/// drained only once it owes no ack.
#[test]
fn arrivals_share_a_delayed_ack_and_owing_one_is_not_drained() {
    let mut sender = dialer(&cfg(1));
    let mut receiver = PeerMachine::new(&cfg(2), n(1));
    let (mut wire, mut out) = (Vec::new(), Vec::new());
    let up = sender.connected(MS, &mut FrameReader::new(), &mut wire);
    let down = receiver.connected(MS, &mut FrameReader::new(), &mut out);
    for i in 0..3 {
        sender.send(2 * MS, payload(i), &mut wire).expect("link up");
    }
    for output in wire.drain(..) {
        let PeerOutput::Write(_, frame) = output else {
            panic!("a send on a live link only writes");
        };
        receiver.frame(3 * MS, down, frame, &mut out);
    }
    assert_eq!(delivered(&out), [0, 1, 2]);
    assert_eq!(acks_written(&out), [], "in order: owed, not sent");
    assert!(!receiver.drained(), "an ack is owed");
    assert_eq!(
        receiver.in_flight(),
        0,
        "though nothing of its own is unacked"
    );
    // The delayed-ack timer is a quarter of the wall-clock RTO floor.
    out.clear();
    receiver.tick(3 * MS + 249_999, &mut out);
    assert_eq!(acks_written(&out), []);
    receiver.tick(3 * MS + 250_000, &mut out);
    assert_eq!(acks_written(&out), [3], "one ack for all three");
    assert!(receiver.drained());
    // It retires all three at the sender, whose timer then finds nothing.
    for output in out.drain(..) {
        let PeerOutput::Write(_, frame) = output else {
            panic!("a tick on a live link only writes");
        };
        sender.frame(4 * MS, up, frame, &mut wire);
    }
    assert!(sender.drained());
    sender.tick(90 * MS, &mut wire);
    assert_eq!(wire, [], "past the rto: nothing unacked, nothing resent");
    // `flush_ack` is the timer fired early: what a node does before it
    // stops ticking.
    sender
        .send(91 * MS, payload(3), &mut wire)
        .expect("link up");
    for output in wire.drain(..) {
        if let PeerOutput::Write(_, frame) = output {
            receiver.frame(91 * MS, down, frame, &mut out);
        }
    }
    assert!(!receiver.drained());
    out.clear();
    receiver.flush_ack(91 * MS, &mut out);
    assert_eq!(acks_written(&out), [4]);
    assert!(receiver.drained());
    // A connection takes what it owed with it: the sender's resend on
    // the next one is a duplicate, and that is acked at once.
    sender
        .send(92 * MS, payload(4), &mut wire)
        .expect("link up");
    let PeerOutput::Write(_, fifth) = wire.remove(0) else {
        panic!("a data frame");
    };
    receiver.frame(92 * MS, down, fifth.clone(), &mut out);
    assert!(!receiver.drained());
    receiver.closed(93 * MS, down, &mut out);
    assert!(
        receiver.drained(),
        "nothing can be owed on a dead connection"
    );
    out.clear();
    let down = receiver.connected(94 * MS, &mut FrameReader::new(), &mut out);
    receiver.frame(94 * MS, down, fifth, &mut out);
    assert_eq!((delivered(&out), acks_written(&out)), (vec![], vec![5]));
}

/// One timer per link: a tick resends what is overdue, oldest first, and
/// a cut takes the timer with it.
#[test]
fn the_retransmit_timer_is_one_due_time_per_link() {
    let cfg = cfg(1);
    let mut m = dialer(&cfg);
    let mut out = Vec::new();
    let generation = m.connected(MS, &mut FrameReader::new(), &mut out);
    for i in 0..3 {
        m.send((2 + u64::from(i)) * MS, payload(i), &mut out)
            .expect("link up");
    }
    out.clear();
    let rto = cfg.initial_rto_nanos;
    // Seq 1 is due at 2 ms + rto; a tick just before resends nothing.
    m.tick(2 * MS + rto - 1, &mut out);
    assert_eq!(data_written(&out), []);
    m.tick(3 * MS + rto, &mut out);
    assert_eq!(
        data_written(&out),
        [(1, 0), (2, 1)],
        "overdue, oldest first"
    );
    assert_eq!(m.stats().retransmits, 2);
    // Seq 3 is the earliest deadline left.
    out.clear();
    m.tick(4 * MS + rto, &mut out);
    assert_eq!(data_written(&out), [(3, 2)]);
    // The timer goes with the connection; the next one starts it over
    // with everything unacked.
    m.closed(5 * MS + rto, generation, &mut out);
    out.clear();
    m.tick(3_600_000 * MS, &mut out);
    assert_eq!(out, [PeerOutput::Dial], "down: no timer fires");
    m.connected(3_600_001 * MS, &mut FrameReader::new(), &mut out);
    assert_eq!(data_written(&out), [(1, 0), (2, 1), (3, 2)]);
}

#[test]
fn silence_closes_the_connection_and_redials() {
    let cfg = cfg(1);
    let mut m = dialer(&cfg);
    let t0 = 7 * MS;
    let generation = m.connected(t0, &mut FrameReader::new(), &mut Vec::new());
    let ping = PeerOutput::Write(generation, Frame::new(FrameKind::Ping, Bytes::new()));
    assert_eq!(tick(&mut m, t0 + cfg.heartbeat.interval_nanos - 1), []);
    assert_eq!(tick(&mut m, t0 + cfg.heartbeat.interval_nanos), [ping]);
    // A pong is not silence.
    let heard = t0 + 300 * MS;
    let pong = Frame::new(FrameKind::Pong, Bytes::new());
    m.frame(heard, generation, pong, &mut Vec::new());
    let dead = heard + cfg.heartbeat.timeout_nanos;
    let quiet = |out: Vec<PeerOutput>| !out.contains(&PeerOutput::Close(generation));
    assert!(quiet(tick(&mut m, dead - 1)) && m.is_up());
    assert_eq!(tick(&mut m, dead), [PeerOutput::Close(generation)]);
    assert!(!m.is_up());
    assert_eq!(m.stats().link_down_events, 1);
    let redial = dead + cfg.backoff.delay_nanos(0);
    assert_eq!(tick(&mut m, redial - 1), []);
    assert_eq!(tick(&mut m, redial), [PeerOutput::Dial]);
}

#[test]
fn a_dead_connection_cannot_touch_its_successor() {
    let cfg = cfg(2);
    let mut m = PeerMachine::new(&cfg, n(1));
    let mut out = Vec::new();
    let old = m.connected(MS, &mut FrameReader::new(), &mut out);
    // The peer dialed again before this side noticed the old socket die.
    let new = m.connected(2 * MS, &mut FrameReader::new(), &mut out);
    assert!(new > old);
    assert_eq!(m.stats().reconnects, 1);
    m.closed(3 * MS, old, &mut out);
    m.frame(
        3 * MS,
        old,
        Frame::new(FrameKind::Ping, Bytes::new()),
        &mut out,
    );
    assert_eq!(out, [], "the old reader's last words are ignored");
    assert!(m.is_up());
    assert_eq!(m.stats().link_down_events, 0);
    m.closed(4 * MS, new, &mut out);
    assert_eq!(out, [PeerOutput::Close(new)]);
    assert!(!m.is_up());
}

#[test]
fn rejection_is_sticky_and_surfaces_on_send() {
    let mut m = dialer(&cfg(1));
    assert_eq!(tick(&mut m, 0), [PeerOutput::Dial]);
    let reason = HelloReject::VersionMismatch { ours: 1, theirs: 9 };
    m.rejected(reason);
    let mut out = Vec::new();
    for now in [MS, 3_600_000 * MS] {
        assert_eq!(
            m.send(now, payload(0), &mut out),
            Err(HopeError::HandshakeRejected { node: n(2), reason })
        );
        assert_eq!(tick(&mut m, now), [], "no further dial");
    }
    assert_eq!((m.in_flight(), m.stats().handshake_rejected), (0, 1));
}

/// The park bound is on what the peer has not acknowledged, so what was
/// in flight at the cut counts against it.
#[test]
fn park_bound_counts_what_was_in_flight_at_the_cut() {
    let mut cfg = cfg(1);
    cfg.park_limit = 8;
    let mut m = dialer(&cfg);
    let mut out = Vec::new();
    let generation = m.connected(MS, &mut FrameReader::new(), &mut out);
    for i in 0..3 {
        m.send(2 * MS, payload(i), &mut out).expect("link up");
    }
    m.closed(3 * MS, generation, &mut out);
    for i in 3..8 {
        m.send(4 * MS, payload(i), &mut out).expect("room to park");
    }
    assert_eq!(
        m.send(4 * MS, payload(8), &mut out),
        Err(HopeError::NodeUnreachable(n(2)))
    );
    let stats = m.stats();
    assert_eq!(
        (m.in_flight(), stats.parked, stats.node_unreachable),
        (8, 5, 1)
    );
    // All eight go out on the next connection, oldest first.
    out.clear();
    m.connected(5 * MS, &mut FrameReader::new(), &mut out);
    let seqs: Vec<u64> = data_written(&out).iter().map(|&(seq, _)| seq).collect();
    assert_eq!(seqs, (1..=8).collect::<Vec<u64>>());
    // A link that is up never refuses.
    m.send(6 * MS, payload(8), &mut out).expect("link up");
}

/// What the handshake read pulled in behind the `HelloOk` is the
/// connection's first arrivals (DESIGN.md §11, "one hard-won invariant").
#[test]
fn frames_carried_in_by_the_handshake_are_the_first_arrivals() {
    let mut sender = PeerMachine::new(&cfg(2), n(1));
    let mut written = Vec::new();
    for i in 0..3 {
        sender.send(0, payload(i), &mut written).expect("parks");
    }
    sender.connected(MS, &mut FrameReader::new(), &mut written);
    let mut carry = FrameReader::new();
    for output in &written {
        let PeerOutput::Write(_, frame) = output else {
            panic!("the acceptor only writes");
        };
        carry.feed(&frame.encode());
    }
    carry.feed(&ack(99).encode()[..5]); // and the head of a frame still in flight
    let mut out = Vec::new();
    dialer(&cfg(1)).connected(MS, &mut carry, &mut out);
    assert_eq!(delivered(&out), [0, 1, 2]);
    assert_eq!(carry.pending_len(), 5, "the reader keeps the partial frame");
}

// ---------------------------------------------------------------------
// Two machines, one unreliable pipe.
// ---------------------------------------------------------------------

/// One connection between end 0 (node 1, dials) and end 1 (node 2).
#[derive(Default)]
struct Conn {
    /// Bytes end `e` wrote that the other end has not read yet.
    pipe: [VecDeque<u8>; 2],
    /// Each end's reader, and the generation its machine gave the
    /// connection.
    reader: [FrameReader; 2],
    generation: [u64; 2],
}

struct End {
    machine: PeerMachine,
    /// Sends accepted so far; payloads count up from 0.
    sent: u32,
    /// Payloads delivered so far; the next must be this number.
    got: u32,
}

/// The driver of both machines: carries out their outputs on an
/// in-memory connection it may cut at any byte.
struct World {
    ends: [End; 2],
    conn: Option<Conn>,
    now: u64,
    /// Dials fail while set.
    partitioned: bool,
}

impl World {
    fn new() -> World {
        let end = |me: u16, peer: u16| End {
            machine: PeerMachine::new(&cfg(me), n(peer)),
            sent: 0,
            got: 0,
        };
        World {
            ends: [end(1, 2), end(2, 1)],
            conn: None,
            now: 0,
            partitioned: false,
        }
    }

    /// Feeds end `e`'s machine one input and carries out what it asks.
    /// `pick` decides whatever the pipe is free to decide meanwhile.
    fn input(
        &mut self,
        e: usize,
        pick: u64,
        f: impl FnOnce(&mut PeerMachine, u64, &mut Vec<PeerOutput>),
    ) {
        let mut out = Vec::new();
        f(&mut self.ends[e].machine, self.now, &mut out);
        self.perform(e, pick, out);
    }

    fn perform(&mut self, e: usize, pick: u64, out: Vec<PeerOutput>) {
        let current = |conn: &Option<Conn>, generation: u64| {
            conn.as_ref().is_some_and(|c| c.generation[e] == generation)
        };
        for output in out {
            match output {
                PeerOutput::Dial => self.dial(pick),
                PeerOutput::Write(generation, frame) => {
                    if current(&self.conn, generation) {
                        let conn = self.conn.as_mut().expect("current");
                        conn.pipe[e].extend(frame.encode().iter());
                    }
                }
                PeerOutput::Close(generation) => {
                    if current(&self.conn, generation) {
                        self.cut(pick);
                    }
                }
                PeerOutput::Deliver(data) => {
                    let end = &mut self.ends[e];
                    assert_eq!(number(&data), end.got, "end {e}: exactly once, in order");
                    end.got += 1;
                }
            }
        }
    }

    fn send(&mut self, e: usize) {
        let data = payload(self.ends[e].sent);
        self.ends[e].sent += 1;
        self.input(e, 0, |m, now, out| {
            m.send(now, data, out).expect("under the park limit");
        });
    }

    /// End `e` reads up to `bytes` of what the other end wrote.
    fn read(&mut self, e: usize, bytes: usize) {
        let Some(conn) = self.conn.as_mut() else {
            return;
        };
        let generation = conn.generation[e];
        let bytes = bytes.min(conn.pipe[1 - e].len());
        let chunk: Vec<u8> = conn.pipe[1 - e].drain(..bytes).collect();
        conn.reader[e].feed(&chunk);
        let mut frames = Vec::new();
        while let Some(frame) = conn.reader[e]
            .next_frame()
            .expect("the pipe corrupts nothing")
        {
            frames.push(frame);
        }
        for frame in frames {
            self.input(e, 0, |m, now, out| m.frame(now, generation, frame, out));
        }
    }

    /// End `e`'s handshake is done; `carry` is the reader it ran on.
    fn connected(&mut self, e: usize, pick: u64, mut carry: FrameReader) {
        let mut out = Vec::new();
        let generation = self.ends[e]
            .machine
            .connected(self.now, &mut carry, &mut out);
        let conn = self.conn.as_mut().expect("connecting");
        conn.generation[e] = generation;
        conn.reader[e] = carry;
        self.perform(e, pick, out);
    }

    /// The dialer's `Dial`: both handshakes, as `net/tcp.rs` runs them.
    fn dial(&mut self, pick: u64) {
        assert!(self.conn.is_none(), "a cut closes both ends");
        if self.partitioned {
            return self.ends[0].machine.dial_failed(self.now);
        }
        // The acceptor answers and adopts first — the dialer is still
        // waiting, so nothing can have been carried in — and its resends
        // land in the pipe right behind the `HelloOk`.
        let hello_ok = Frame::new(FrameKind::HelloOk, NodeHello::current(n(2)).encode()).encode();
        let mut conn = Conn::default();
        conn.pipe[1].extend(hello_ok.iter());
        self.conn = Some(conn);
        self.connected(1, pick, FrameReader::new());
        // The dialer's handshake read returns the `HelloOk` and as much
        // more as the kernel had: anything from nothing to all of it.
        let pipe = &mut self.conn.as_mut().expect("just made").pipe[1];
        let gulp = hello_ok.len() + pick as usize % (pipe.len() - hello_ok.len() + 1);
        let chunk: Vec<u8> = pipe.drain(..gulp).collect();
        let mut carry = FrameReader::new();
        carry.feed(&chunk);
        let first = carry.next_frame().expect("intact").expect("whole");
        assert_eq!(first.kind, FrameKind::HelloOk);
        self.connected(0, pick, carry);
    }

    /// The connection dies. Each direction delivers some prefix of what
    /// was still in the pipe and loses the rest; the acks for what
    /// arrives now die with the connection, so the tail the receiver did
    /// get is sent again on the next one.
    fn cut(&mut self, pick: u64) {
        let Some(conn) = self.conn.as_ref() else {
            return;
        };
        let generation = conn.generation;
        let pending = [conn.pipe[1].len(), conn.pipe[0].len()];
        let keep = [pick as usize, (pick >> 20) as usize];
        for e in [0, 1] {
            self.read(e, keep[e] % (pending[e] + 1));
        }
        self.conn = None;
        for e in [0, 1] {
            self.input(e, pick, |m, now, out| m.closed(now, generation[e], out));
        }
    }

    /// Time passes at both ends.
    fn advance(&mut self, nanos: u64, pick: u64) {
        self.now += nanos;
        for e in [0, 1] {
            self.input(e, pick, |m, now, out| m.tick(now, out));
        }
    }

    fn settled(&self) -> bool {
        let done =
            |e: usize| self.ends[e].machine.drained() && self.ends[e].got == self.ends[1 - e].sent;
        done(0) && done(1)
    }
}

#[derive(Debug, Clone)]
enum Op {
    Send {
        end: usize,
    },
    /// One end reads some of what is in the pipe.
    Read {
        end: usize,
        bytes: usize,
    },
    Advance {
        millis: u64,
        pick: u64,
    },
    Cut {
        pick: u64,
    },
    Partition(bool),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0usize..2).prop_map(|end| Op::Send { end }),
        6 => (0usize..2, 1usize..400).prop_map(|(end, bytes)| Op::Read { end, bytes }),
        4 => (1u64..40, any::<u64>()).prop_map(|(millis, pick)| Op::Advance { millis, pick }),
        1 => any::<u64>().prop_map(|pick| Op::Cut { pick }),
        1 => any::<bool>().prop_map(Op::Partition),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the pipe does — cuts at any byte, tails delivered twice,
    /// data riding in on the handshake read — every accepted send is
    /// delivered exactly once, in order (checked at each delivery), and
    /// once the pipe behaves nothing stays in flight and no ack stays
    /// owed.
    #[test]
    fn every_accepted_send_is_delivered_once_in_order(
        ops in proptest::collection::vec(op(), 0..200),
    ) {
        let mut world = World::new();
        for op in ops {
            match op {
                Op::Send { end } => world.send(end),
                Op::Read { end, bytes } => world.read(end, bytes),
                Op::Advance { millis, pick } => world.advance(millis * MS, pick),
                Op::Cut { pick } => world.cut(pick),
                Op::Partition(on) => world.partitioned = on,
            }
        }
        // Heal: dials succeed, the pipe delivers everything.
        world.partitioned = false;
        for round in 0.. {
            prop_assert!(round < 2_000, "did not settle");
            world.advance(10 * MS, u64::MAX);
            for _ in 0..4 {
                world.read(0, usize::MAX);
                world.read(1, usize::MAX);
            }
            if world.settled() {
                break;
            }
        }
        for end in &world.ends {
            let stats = end.machine.stats();
            prop_assert_eq!(stats.abandoned, 0);
            prop_assert_eq!(end.machine.in_flight(), 0);
            prop_assert!(end.machine.drained(), "nothing owed");
            // Acknowledgement is cumulative: at least one ack if anything
            // was sent, at most one per copy that was put on the wire.
            let copies = u64::from(end.sent) + stats.retransmits;
            prop_assert!(stats.acks >= u64::from(end.sent.min(1)) && stats.acks <= copies);
        }
    }
}
