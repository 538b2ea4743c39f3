//! Link supervision without IO: the per-peer state machine and the two
//! pure time policies it runs on.
//!
//! A [`PeerMachine`] is everything one node knows about its link to one
//! peer: whether a connection is up and which generation it is, when to
//! dial, ping or give a silent connection up, and the peer's two
//! [`LinkRecord`]s (data out, data in). It opens no socket, starts no
//! thread and reads no clock. A driver feeds it inputs stamped with
//! nanoseconds on the driver's clock — `tick`, `connected`,
//! `dial_failed`, `rejected`, `frame`, `closed`, `send` — and carries
//! out the [`PeerOutput`]s each appends. [`super::tcp`] is the socket
//! driver; `tests/peer_machine.rs` drives two machines over a byte pipe.
//!
//! The data path is the link pipeline (`link.rs`) and nothing else: a
//! send is `Link::send`, an arriving `Data` or `Ack` frame `Link::arrive`,
//! a due retransmission `Link::timer`, a due delayed ack `Link::ack_due`.
//! The machine is that pipeline's third driver. It lends a zero-latency
//! wire with no fault model, never abandons (`u32::MAX` attempts), keeps
//! the link's two timers as two due times that `tick` fires, and turns a
//! returned `Deliver` into a [`PeerOutput::Write`] — or, with no
//! connection up, into nothing: the envelope stays in the record's
//! retransmit buffer, which is all "parked" means. On `connected` every
//! buffered envelope goes out again (`Link::rewire`), oldest first. The
//! receiver dedups, it does not reorder, so that ascending resend (with
//! TCP's order within a connection) is what keeps delivery in send order
//! across a flap.

use bytes::Bytes;
use hope_types::net::{Frame, FrameKind, FrameReader, HelloReject, NodeId};
use hope_types::{
    Envelope, HopeError, Payload, ProcessId, TraceCollector, UserMessage, VirtualDuration,
    VirtualTime,
};

use super::tcp::NetConfig;
use super::{LatencyModel, NetworkConfig};
use crate::link::{Link, LinkWork, Outbound};
use crate::reliable::{CopyKind, LinkRecord, RttEstimator};
use crate::stats::{LinkStats, MessageStats, PartyKind};

/// What a [`PeerMachine`] asks its driver to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerOutput {
    /// Connect to the peer and run the client handshake, then report
    /// `connected`, `dial_failed` or `rejected`.
    Dial,
    /// Write this frame on connection `generation`, after everything
    /// asked for earlier; drop it if that connection is gone.
    Write(u64, Frame),
    /// Shut connection `generation` down, unless a later one replaced it.
    Close(u64),
    /// Hand this payload to the application: each accepted send surfaces
    /// here exactly once, in send order.
    Deliver(Bytes),
}

/// One node's link to one peer, as a sans-IO state machine (see the
/// module docs). Times are nanoseconds on the driver's clock.
pub struct PeerMachine {
    /// The two nodes, as they appear in the link records: transport
    /// sequencing is node-to-node, whatever processes the payloads name.
    /// The lower id dials; the higher only adopts what it accepts.
    me: ProcessId,
    them: ProcessId,
    peer: NodeId,
    park_limit: usize,
    backoff: BackoffPolicy,
    heartbeat: HeartbeatPolicy,
    /// Sender half in use: sequencing, retransmit buffer, RTT estimator.
    data_out: LinkRecord,
    /// Receiver half in use: the dedup window, which outlives connections.
    data_in: LinkRecord,
    stats: MessageStats,
    /// Zero: the kernel does the delaying.
    latency: Box<dyn LatencyModel>,
    /// Never enabled: the pipeline's trace calls cost one atomic load.
    tracer: TraceCollector,
    /// The buffer every pipeline step reports its work in.
    outbound: Outbound,
    /// When `data_out`'s retransmit timer and `data_in`'s delayed-ack
    /// timer fire; `u64::MAX` while the pipeline has none running. Both
    /// go with the connection.
    retransmit_due: u64,
    ack_due: u64,
    up: bool,
    /// Counts connections, so a dead connection's frames and `closed`
    /// cannot touch its successor.
    generation: u64,
    /// Consecutive failed connections: the backoff exponent.
    attempt: u32,
    /// When to dial next; never, while a `Dial` is out.
    next_dial: u64,
    last_tx: u64,
    last_heard: u64,
    rejected: Option<HelloReject>,
}

impl PeerMachine {
    /// The machine for `cfg.node`'s link to `peer`: down, nothing sent,
    /// first dial (if this side dials) due at once.
    pub fn new(cfg: &NetConfig, peer: NodeId) -> PeerMachine {
        let pid = |node: NodeId| ProcessId::from_raw(u64::from(node.as_raw()));
        let record = || LinkRecord::new(RttEstimator::for_wall_clock(cfg.initial_rto_nanos));
        PeerMachine {
            me: pid(cfg.node),
            them: pid(peer),
            peer,
            park_limit: cfg.park_limit,
            backoff: cfg.backoff,
            heartbeat: cfg.heartbeat,
            data_out: record(),
            data_in: record(),
            stats: MessageStats::new(),
            latency: NetworkConfig::constant(VirtualDuration::ZERO).into_model(0),
            tracer: TraceCollector::new(),
            outbound: Outbound::new(),
            retransmit_due: u64::MAX,
            ack_due: u64::MAX,
            up: false,
            generation: 0,
            attempt: 0,
            next_dial: 0,
            last_tx: 0,
            last_heard: 0,
            rejected: None,
        }
    }

    /// Whether a connection is up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Accepted sends the peer has not acknowledged yet, parked or wired.
    pub fn in_flight(&self) -> usize {
        self.data_out.in_flight()
    }

    /// Whether this end has nothing left to do for the link: nothing it
    /// sent is unacknowledged, and it owes no ack — a node that left while
    /// one was waiting for its timer would leave the peer unacknowledged.
    pub fn drained(&self) -> bool {
        self.data_out.in_flight() == 0 && !self.data_in.owes_ack()
    }

    /// Sends the ack the delayed-ack timer is holding, if any, now.
    pub fn flush_ack(&mut self, now: u64, out: &mut Vec<PeerOutput>) {
        if self.up {
            self.ack_due = u64::MAX;
            let link = (self.them, self.me);
            self.step(now, true, out, |l, work| l.ack_due(link, work));
        }
    }

    /// This link's counters; `srtt_nanos` is read off the record.
    pub fn stats(&self) -> LinkStats {
        let srtt_nanos = self.data_out.srtt_nanos().unwrap_or(0);
        LinkStats {
            srtt_nanos,
            ..*self.stats.link()
        }
    }

    /// Time passes: gives a silent connection up, pings a quiet one,
    /// fires the link's timers if due, and asks for a dial when one is
    /// due.
    pub fn tick(&mut self, now: u64, out: &mut Vec<PeerOutput>) {
        if self.up && self.heartbeat.link_dead(now, self.last_heard) {
            self.closed(now, self.generation, out);
        }
        if self.up {
            if self.heartbeat.ping_due(now, self.last_tx) {
                self.write(now, Frame::new(FrameKind::Ping, Bytes::new()), out);
            }
            if self.ack_due <= now {
                self.flush_ack(now, out);
            }
            if self.retransmit_due <= now {
                self.retransmit_due = u64::MAX;
                let link = (self.me, self.them);
                self.step(now, false, out, |l, work| {
                    l.timer(link, u32::MAX, false, work)
                });
            }
        } else if self.me < self.them && self.rejected.is_none() && now >= self.next_dial {
            self.next_dial = u64::MAX;
            out.push(PeerOutput::Dial);
        }
    }

    /// A handshaken connection exists (dialed or accepted); returns its
    /// generation. What the old connection carried may or may not have
    /// arrived, so every unacknowledged envelope is retransmitted, in
    /// ascending seq (module docs); dedup drops survivors and Karn's rule
    /// the ambiguous acks. Then the frames the handshake read pulled in
    /// behind the `HelloOk` (`carry`: the peer streams the instant its
    /// side completes) are the connection's first arrivals; dropping
    /// them would leave those envelopes to their timers, behind newer
    /// sends.
    pub fn connected(
        &mut self,
        now: u64,
        carry: &mut FrameReader,
        out: &mut Vec<PeerOutput>,
    ) -> u64 {
        if self.generation > 0 {
            self.stats.link_mut().reconnects += 1;
        }
        self.generation += 1;
        self.up = true;
        self.attempt = 0;
        self.last_heard = now;
        self.last_tx = now;
        self.timers_lost();
        let link = (self.me, self.them);
        self.step(now, false, out, |l, work| l.rewire(link, work));
        let generation = self.generation;
        while self.up {
            match carry.next_frame() {
                Ok(Some(frame)) => self.frame(now, generation, frame, out),
                Ok(None) => break,
                Err(_) => self.closed(now, generation, out),
            }
        }
        generation
    }

    /// A dial failed before a handshake verdict, or a connection was
    /// lost: count it and back the next dial off from `now`.
    pub fn dial_failed(&mut self, now: u64) {
        self.stats.link_mut().link_down_events += 1;
        self.next_dial = now.saturating_add(self.backoff.delay_nanos(self.attempt));
        self.attempt = self.attempt.saturating_add(1);
    }

    /// The peer refused the handshake. Sticky: no further dial, and every
    /// `send` from now on reports it.
    pub fn rejected(&mut self, reason: HelloReject) {
        self.stats.link_mut().handshake_rejected += 1;
        self.rejected = Some(reason);
    }

    /// A frame arrived on connection `generation`. A frame that cannot
    /// be what it claims to be, or a handshake frame after the handshake,
    /// closes the connection; reconnecting resynchronizes.
    pub fn frame(&mut self, now: u64, generation: u64, frame: Frame, out: &mut Vec<PeerOutput>) {
        if !self.up || generation != self.generation {
            return;
        }
        self.last_heard = now;
        let sequenced = |env: &Envelope| env.seq > 0 && !matches!(env.payload, Payload::Ack { .. });
        let arrival = match frame.kind {
            FrameKind::Data => Envelope::decode(&frame.payload).filter(sequenced),
            FrameKind::Ack => <[u8; 8]>::try_from(&frame.payload[..]).ok().map(|seq| {
                let seq = u64::from_le_bytes(seq);
                Envelope {
                    src: self.them,
                    dst: self.me,
                    sent_at: VirtualTime::from_nanos(now),
                    seq: 0,
                    payload: Payload::Ack { seq },
                }
            }),
            FrameKind::Ping => {
                return self.write(now, Frame::new(FrameKind::Pong, Bytes::new()), out);
            }
            FrameKind::Pong => return,
            FrameKind::Hello | FrameKind::HelloOk | FrameKind::HelloReject => None,
        };
        let Some(env) = arrival else {
            return self.closed(now, generation, out);
        };
        // Provenance is not on the wire; only a resent copy can be a
        // duplicate here, so that is what dedup is told it sees.
        let users = Some((PartyKind::User, PartyKind::User));
        let inbound = frame.kind == FrameKind::Data;
        let fresh = self.step(now, inbound, out, |link, work| {
            link.arrive(&env, CopyKind::Retransmit, false, users, work)
        });
        if let (true, Payload::User(msg)) = (fresh, env.payload) {
            out.push(PeerOutput::Deliver(msg.data));
        }
    }

    /// Connection `generation` is gone (end of stream, a failed write,
    /// silence): the link is down until the next `connected`, which also
    /// starts the retransmit timer that goes with the connection again.
    pub fn closed(&mut self, now: u64, generation: u64, out: &mut Vec<PeerOutput>) {
        if self.up && generation == self.generation {
            self.up = false;
            self.timers_lost();
            out.push(PeerOutput::Close(generation));
            self.dial_failed(now);
        }
    }

    /// The application sends `data` to the peer. Never fails for a link
    /// that is up; while it is down, accepts until `park_limit` envelopes
    /// are unacknowledged (whatever was in flight at the cut counts).
    pub fn send(
        &mut self,
        now: u64,
        data: Bytes,
        out: &mut Vec<PeerOutput>,
    ) -> hope_types::Result<()> {
        if let Some(reason) = self.rejected {
            let node = self.peer;
            return Err(HopeError::HandshakeRejected { node, reason });
        }
        if !self.up {
            if self.data_out.in_flight() >= self.park_limit {
                self.stats.link_mut().node_unreachable += 1;
                return Err(HopeError::NodeUnreachable(self.peer));
            }
            self.stats.link_mut().parked += 1;
        }
        let (src, dst) = (self.me, self.them);
        let payload = Payload::User(UserMessage::new(0, data));
        self.step(now, false, out, |link, work| {
            link.send(src, dst, payload, work)
        });
        Ok(())
    }

    /// Both timers go with their connection: the records are told, so the
    /// next send starts a retransmit timer and nothing stays owed an ack
    /// that `connected`'s resend will ask for again anyway.
    fn timers_lost(&mut self) {
        (self.retransmit_due, self.ack_due) = (u64::MAX, u64::MAX);
        self.data_out.timers_lost();
        self.data_in.timers_lost();
    }

    /// One link-pipeline step at `now` on the record it touches — an
    /// arriving data envelope and its delayed ack are `inbound`,
    /// everything else (send, retransmit timer, arriving ack) belongs to
    /// `data_out` — then what the step asked for: timers into their due
    /// times, copies onto the connection. With no connection up both are
    /// dropped; `connected` redoes them.
    fn step<R>(
        &mut self,
        now: u64,
        inbound: bool,
        out: &mut Vec<PeerOutput>,
        f: impl FnOnce(&mut Link<'_>, &mut Outbound) -> R,
    ) -> R {
        let mut work = std::mem::take(&mut self.outbound);
        let rel = if inbound {
            &mut self.data_in
        } else {
            &mut self.data_out
        };
        let mut link = Link {
            now: VirtualTime::from_nanos(now),
            rel: Some(rel),
            stats: &mut self.stats,
            latency: &mut *self.latency,
            fault: None,
            tracer: &self.tracer,
        };
        let result = f(&mut link, &mut work);
        for (delay, item) in work.drain(..) {
            let due = now.saturating_add(delay.as_nanos());
            match item {
                _ if !self.up => {}
                LinkWork::Retransmit { .. } => self.retransmit_due = due,
                LinkWork::AckDue { .. } => self.ack_due = due,
                LinkWork::Abandoned { .. } => {} // the cap here is unbounded
                LinkWork::Deliver { env, .. } => {
                    let frame = match env.payload {
                        Payload::Ack { seq } => {
                            Frame::new(FrameKind::Ack, Bytes::from(seq.to_le_bytes().to_vec()))
                        }
                        _ => Frame::new(FrameKind::Data, env.encode()),
                    };
                    self.write(now, frame, out);
                }
            }
        }
        self.outbound = work;
        if !self.up {
            // The step may have claimed a timer that was just dropped.
            self.timers_lost();
        }
        result
    }

    fn write(&mut self, now: u64, frame: Frame, out: &mut Vec<PeerOutput>) {
        self.last_tx = now;
        out.push(PeerOutput::Write(self.generation, frame));
    }
}

/// Capped exponential backoff with deterministic seeded jitter.
///
/// Attempt `n` waits `min(base·2ⁿ, cap)` nanoseconds, then jitter pulls
/// the wait into `[delay/2, delay]` using a hash of `(seed, attempt)` —
/// deterministic per transport (reproducible tests, no thundering herd
/// between distinct seeds) without any shared RNG state.
#[derive(Debug, Clone, Copy)]
pub struct BackoffPolicy {
    /// First-retry delay in nanoseconds.
    pub base_nanos: u64,
    /// Upper bound any attempt's delay is capped to.
    pub cap_nanos: u64,
    /// Jitter seed; two supervisors with different seeds desynchronize.
    pub seed: u64,
}

impl BackoffPolicy {
    /// The delay before reconnect attempt `attempt` (0-based).
    pub fn delay_nanos(&self, attempt: u32) -> u64 {
        let base = self.base_nanos.max(1);
        let cap = self.cap_nanos.max(base);
        let raw = base
            .checked_shl(attempt)
            .filter(|v| v >> attempt == base) // shift wrapped → cap
            .unwrap_or(cap)
            .min(cap);
        // SplitMix64 finalizer over (seed, attempt): cheap, stateless,
        // and fully determined by the policy's inputs.
        let mut h = self.seed ^ (u64::from(attempt)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        let half = raw / 2;
        half + h % (raw - half + 1)
    }
}

/// Heartbeat scheduling: when to ping, and when silence is death.
///
/// Both ends of a link run this symmetrically: send a ping every
/// `interval_nanos` of transmit-quiet, and declare the link down when
/// nothing (pong, data, anything) has arrived for `timeout_nanos`.
#[derive(Debug, Clone, Copy)]
pub struct HeartbeatPolicy {
    /// Gap between liveness pings in nanoseconds.
    pub interval_nanos: u64,
    /// Inbound silence after which the link is declared down. Should be
    /// several multiples of `interval_nanos` so one lost ping is not a
    /// death sentence.
    pub timeout_nanos: u64,
}

impl HeartbeatPolicy {
    /// True when a ping should be sent: `now` is at least an interval
    /// past the last transmission.
    pub fn ping_due(&self, now_nanos: u64, last_sent_nanos: u64) -> bool {
        now_nanos.saturating_sub(last_sent_nanos) >= self.interval_nanos
    }

    /// True when the peer has been silent past the timeout and the link
    /// must be declared down.
    pub fn link_dead(&self, now_nanos: u64, last_heard_nanos: u64) -> bool {
        now_nanos.saturating_sub(last_heard_nanos) >= self.timeout_nanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let p = BackoffPolicy {
            base_nanos: 1_000,
            cap_nanos: 16_000,
            seed: 42,
        };
        // Jitter keeps each delay in [raw/2, raw]; the raw schedule is
        // 1000, 2000, 4000, 8000, 16000, 16000, ...
        let raws = [1_000u64, 2_000, 4_000, 8_000, 16_000, 16_000, 16_000];
        for (attempt, &raw) in raws.iter().enumerate() {
            let d = p.delay_nanos(attempt as u32);
            assert!(
                d >= raw / 2 && d <= raw,
                "attempt {attempt}: delay {d} outside [{}, {raw}]",
                raw / 2
            );
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_varies_across_seeds() {
        let a = BackoffPolicy {
            base_nanos: 1_000_000,
            cap_nanos: 1_000_000_000,
            seed: 7,
        };
        let b = BackoffPolicy { seed: 8, ..a };
        for attempt in 0..10 {
            assert_eq!(a.delay_nanos(attempt), a.delay_nanos(attempt));
        }
        // Different seeds should disagree somewhere (thundering-herd
        // avoidance); all ten colliding would mean the seed is ignored.
        assert!((0..10).any(|n| a.delay_nanos(n) != b.delay_nanos(n)));
    }

    #[test]
    fn backoff_survives_huge_attempt_counts() {
        let p = BackoffPolicy {
            base_nanos: 1_000,
            cap_nanos: 60_000_000_000,
            seed: 1,
        };
        let d = p.delay_nanos(u32::MAX);
        assert!(d <= 60_000_000_000, "capped even at absurd attempts");
        assert!(d >= 30_000_000_000, "jitter floor holds at the cap");
    }

    #[test]
    fn heartbeat_ping_and_death_deadlines() {
        let h = HeartbeatPolicy {
            interval_nanos: 100,
            timeout_nanos: 350,
        };
        assert!(!h.ping_due(99, 0));
        assert!(h.ping_due(100, 0));
        assert!(!h.link_dead(349, 0));
        assert!(h.link_dead(350, 0));
        // Non-monotonic clock (now < last): saturates to "not yet".
        assert!(!h.ping_due(50, 100));
        assert!(!h.link_dead(50, 100));
    }
}
