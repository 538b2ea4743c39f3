//! Reliable-delivery sublayer: per-link sequence numbers, acknowledgement,
//! retransmission with exponential backoff, and receiver-side
//! deduplication.
//!
//! HOPE (the paper, §2) is built over PVM's reliable FIFO message layer;
//! DESIGN.md §3 records the substitutions this reproduction makes for
//! 1996-era infrastructure. When a [`FaultPlan`](crate::FaultPlan) makes
//! the wire lossy, this sublayer restores the at-least-once contract —
//! upgraded to exactly-once by dedup — that the protocol's correctness
//! argument (theorem 5.1: no affirm or deny may be lost) depends on:
//!
//! * every reliable envelope carries a per-`(src, dst)` link sequence
//!   number (`Envelope::seq`, 1-based; 0 marks the sublayer disabled),
//! * acknowledgement is queue progress: a
//!   [`Payload::Ack`](hope_types::Payload::Ack) datagram is cumulative —
//!   "every sequence number up to this one has arrived" — and the
//!   receiving endpoint sends one per [`ACK_EVERY`] in-order arrivals or
//!   per delayed-ack timer, whichever comes first, and at once for a
//!   duplicate or an arrival past a gap (the sender is missing
//!   something). Acks travel the same faulty wire but are never
//!   sequenced, retransmitted, or delivered to a process,
//! * the sender keeps one retransmit timer per link: when it fires,
//!   every envelope unacknowledged past its own doubling timeout is
//!   resent, oldest first, until acked or a retry cap abandons it,
//! * the receiver delivers each sequence number at most once, whether a
//!   second copy comes from wire duplication or from retransmission
//!   racing a slow ack.
//!
//! The retransmission timeout is adaptive: each link runs a
//! Jacobson/Karels [`RttEstimator`] (SRTT/RTTVAR, RTO = SRTT + 4·RTTVAR,
//! clamped) fed by ack round-trip samples, with Karn's rule excluding
//! samples from retransmitted sequence numbers. The configured
//! [`FaultPlan::rto`](crate::FaultPlan::rto) is only the starting point;
//! [`backoff_nanos`] then doubles the adapted value per failed attempt.
//!
//! This module holds the *state*, one [`LinkRecord`] per directed link;
//! the steps that use it between a send and a mailbox — in the simulator
//! and the threaded runtime alike — are the link pipeline (`link.rs`),
//! which borrows the one record a step touches. The TCP transport's
//! peer machine (`net/supervisor.rs`) owns its two records outright and
//! lends them to the same pipeline.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use hope_types::{Envelope, ProcessId};

/// A directed link: (sender, receiver).
pub type LinkId = (ProcessId, ProcessId);

/// How one on-the-wire copy of an envelope came to exist — the provenance
/// the link pipeline threads through to delivery so receiver-side dedup can
/// attribute each suppression to its actual cause instead of lumping
/// fault-injected wire duplicates together with the sublayer's own
/// retransmissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyKind {
    /// The first transmission of the envelope.
    Original,
    /// An extra copy the fault model injected on the wire.
    WireDup,
    /// A copy resent by a reliable-sublayer retransmission timer.
    Retransmit,
}

/// In-order first arrivals that share one acknowledgement (the delayed-ack
/// timer covers a shorter run). It sets the acks per in-order arrival on
/// every driver — about one in eight on a clean link — and with it E-link's
/// per-message event budget and the `hope-check` walk pins of the
/// scenarios that turn the sublayer on.
pub const ACK_EVERY: u32 = 8;

/// The delayed-ack timer runs for this fraction of the estimator's RTO
/// floor, so the oldest arrival an ack covers has waited well under the
/// shortest timeout its sender can be running.
const ACK_DELAY_DIVISOR: u64 = 4;

/// What the receiver half does about acknowledging one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckPlan {
    /// Acknowledge at once: a duplicate or an arrival past a gap (the
    /// sender is missing something), or [`ACK_EVERY`] arrivals are owed.
    Now,
    /// The arrival is owed an ack and no delayed-ack timer is running:
    /// start one.
    Arm,
    /// The arrival rides on the ack a running timer will send.
    Wait,
}

/// Receiver-side record of which sequence numbers a link has delivered.
///
/// Kept compact: a contiguous prefix (`..=prefix` all seen) plus the set of
/// out-of-order arrivals beyond it, which drain into the prefix as gaps
/// fill. Latency jitter reorders legitimately, so this must not assume
/// in-order arrival even though senders number in order; but in-order is
/// the common case, and the next seq with no gap open moves the prefix
/// without touching the set.
#[derive(Debug, Default, Clone)]
struct SeqWindow {
    prefix: u64,
    beyond: BTreeSet<u64>,
}

impl SeqWindow {
    /// Records `seq`; returns true iff this is its first arrival.
    fn observe(&mut self, seq: u64) -> bool {
        if seq == self.prefix + 1 && self.beyond.is_empty() {
            self.prefix = seq;
            return true;
        }
        if seq <= self.prefix || !self.beyond.insert(seq) {
            return false;
        }
        while self.beyond.remove(&(self.prefix + 1)) {
            self.prefix += 1;
        }
        true
    }
}

/// Jacobson/Karels round-trip estimation for one link: smoothed RTT
/// (gain 1/8), mean deviation RTTVAR (gain 1/4), and
/// `RTO = SRTT + 4·RTTVAR` clamped to `[initial/8, initial·64]` so a
/// burst of lucky or pathological samples cannot drive the timer to
/// zero or to forever. Integer nanoseconds throughout — both runtimes'
/// clocks are nanosecond-granular and determinism forbids floats here.
#[derive(Debug, Clone, Copy)]
pub struct RttEstimator {
    srtt: u64,
    rttvar: u64,
    rto: u64,
    min: u64,
    max: u64,
    samples: u64,
}

/// Minimum RTO for wall-clock (real-socket) transports: 1 ms. The
/// virtual-clock derivation `initial/8` can reach microseconds, which on
/// a real network turns every scheduling hiccup into a spurious
/// retransmit storm.
pub const WALL_RTO_MIN_NANOS: u64 = 1_000_000;

/// Maximum RTO for wall-clock transports: 2 s. Caps how long a stalled
/// link waits between retries so reconnect recovery is bounded, while
/// staying far above any sane localhost or LAN round trip.
pub const WALL_RTO_MAX_NANOS: u64 = 2_000_000_000;

impl RttEstimator {
    /// An estimator starting at `initial_rto_nanos` with no samples.
    pub fn new(initial_rto_nanos: u64) -> Self {
        let initial = initial_rto_nanos.max(1);
        RttEstimator::with_bounds(initial, (initial / 8).max(1), initial.saturating_mul(64))
    }

    /// An estimator whose RTO is clamped to `[min, max]` regardless of
    /// what samples arrive. `initial` is itself clamped into the band;
    /// a degenerate band (`min > max`) collapses to `min`.
    pub fn with_bounds(initial_rto_nanos: u64, min_nanos: u64, max_nanos: u64) -> Self {
        let min = min_nanos.max(1);
        let max = max_nanos.max(min);
        RttEstimator {
            srtt: 0,
            rttvar: 0,
            rto: initial_rto_nanos.clamp(min, max),
            min,
            max,
            samples: 0,
        }
    }

    /// An estimator tuned for real-millisecond RTTs: RTO clamped to
    /// [`WALL_RTO_MIN_NANOS`, `WALL_RTO_MAX_NANOS`].
    pub fn for_wall_clock(initial_rto_nanos: u64) -> Self {
        RttEstimator::with_bounds(initial_rto_nanos, WALL_RTO_MIN_NANOS, WALL_RTO_MAX_NANOS)
    }

    /// Folds one round-trip sample in (Jacobson/Karels update rules).
    pub fn observe(&mut self, sample_nanos: u64) {
        if self.samples == 0 {
            self.srtt = sample_nanos;
            self.rttvar = sample_nanos / 2;
        } else {
            let err = self.srtt.abs_diff(sample_nanos);
            // Saturating gain updates: a pathological wall-clock sample
            // (e.g. u64::MAX from a non-monotonic clock) must pin the
            // estimate, not overflow the arithmetic.
            self.rttvar = self.rttvar.saturating_mul(3).saturating_add(err) / 4;
            self.srtt = self.srtt.saturating_mul(7).saturating_add(sample_nanos) / 8;
        }
        self.samples += 1;
        self.rto = self
            .srtt
            .saturating_add(self.rttvar.saturating_mul(4))
            .clamp(self.min, self.max);
    }

    /// The current retransmission timeout in nanoseconds.
    pub fn rto_nanos(&self) -> u64 {
        self.rto
    }

    /// The smoothed round-trip time (0 until the first sample).
    pub fn srtt_nanos(&self) -> u64 {
        self.srtt
    }

    /// Round-trip samples folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The lower clamp of the RTO.
    pub fn floor_nanos(&self) -> u64 {
        self.min
    }
}

/// The result of processing one acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckOutcome {
    /// Whether any pending envelope was retired (false for an ack that
    /// told the sender nothing new).
    pub retired: bool,
    /// The round-trip sample taken: that of the newest retired envelope
    /// that was never retransmitted (Karn's rule: an ack for a
    /// retransmitted sequence number is ambiguous and must not feed the
    /// estimator).
    pub rtt_sample_nanos: Option<u64>,
}

/// What a fired retransmit timer does with one overdue envelope.
#[derive(Debug)]
pub enum Overdue<'a> {
    /// Put this copy on the wire; `attempt` counts its retransmissions,
    /// this one included.
    Resend {
        /// The buffered envelope.
        env: &'a Envelope,
        /// Retransmissions of it so far.
        attempt: u32,
    },
    /// The retry cap is reached: the entry (this seq) is dropped and the
    /// message is now known lost.
    Abandoned(u64),
}

/// One retransmit-buffer entry. What is only meaningful while the
/// envelope is unacknowledged lives and dies with it.
#[derive(Debug)]
struct Pending {
    env: Envelope,
    /// Karn's rule: a copy was resent (or parked), so the ack is ambiguous.
    retransmitted: bool,
    /// Retransmissions so far: the backoff exponent of the next deadline.
    attempts: u32,
    /// When the newest copy went on the wire; the entry is overdue at
    /// `last_tx + rto << attempts`.
    last_tx: u64,
}

/// Everything the reliable sublayer knows about one directed link: the
/// sender half (sequencing, retransmit buffer, RTT estimator) and the
/// receiver half (dedup window, owed acks). A link pipeline step borrows
/// exactly one of these.
///
/// The retransmit buffer is a line, not a search tree: sequence numbers
/// are handed out in order and tracked as they are, and a cumulative ack
/// retires a prefix, so the unacknowledged envelopes are always a run in
/// ascending seq that grows at the back and shrinks at the front.
#[derive(Debug)]
pub struct LinkRecord {
    next_seq: u64,
    /// Unacknowledged envelopes in ascending `env.seq` (not necessarily
    /// contiguous: an abandoned one leaves a hole).
    pending: VecDeque<Pending>,
    rtt: RttEstimator,
    /// Whether the driver holds this link's retransmit timer.
    timer_armed: bool,
    seen: SeqWindow,
    /// In-order first arrivals since the last ack was sent.
    ack_owed: u32,
    /// Whether the driver holds this link's delayed-ack timer.
    ack_armed: bool,
}

impl LinkRecord {
    pub(crate) fn new(rtt: RttEstimator) -> Self {
        LinkRecord {
            next_seq: 0,
            pending: VecDeque::new(),
            rtt,
            timer_armed: false,
            seen: SeqWindow::default(),
            ack_owed: 0,
            ack_armed: false,
        }
    }

    /// Allocates the next sequence number (1-based; 0 is the sublayer-off
    /// sentinel on [`Envelope::seq`]).
    pub fn assign_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Buffers `envelope` for retransmission until acknowledged. The
    /// envelope must carry the seq [`LinkRecord::assign_seq`] just gave:
    /// tracking is in seq order, so the buffer stays a line.
    pub fn track(&mut self, envelope: Envelope) {
        debug_assert!(envelope.seq > 0, "track() needs a sequenced envelope");
        debug_assert!(
            self.pending
                .back()
                .is_none_or(|last| last.env.seq < envelope.seq),
            "track() takes sequence numbers in the order assign_seq gives them"
        );
        self.pending.push_back(Pending {
            last_tx: envelope.sent_at.as_nanos(),
            env: envelope,
            retransmitted: false,
            attempts: 0,
        });
    }

    /// Claims the link's retransmit timer for a send: true iff none was
    /// running, in which case the caller must start one for
    /// [`LinkRecord::rto_nanos`].
    pub fn arm_timer(&mut self) -> bool {
        !std::mem::replace(&mut self.timer_armed, true)
    }

    /// Processes a cumulative ack observed at `now_nanos` — every
    /// sequence number up to `seq` has arrived: retires every pending
    /// envelope at or below it and feeds the estimator `now - sent_at` of
    /// the newest of them that was never retransmitted (Karn's rule).
    pub fn acknowledge_at(&mut self, seq: u64, now_nanos: u64) -> AckOutcome {
        let mut outcome = AckOutcome {
            retired: false,
            rtt_sample_nanos: None,
        };
        while let Some(entry) = self.pending.pop_front_if(|e| e.env.seq <= seq) {
            outcome.retired = true;
            if !entry.retransmitted {
                let sample = now_nanos.saturating_sub(entry.env.sent_at.as_nanos());
                outcome.rtt_sample_nanos = Some(sample);
            }
        }
        if let Some(sample) = outcome.rtt_sample_nanos {
            self.rtt.observe(sample);
        }
        outcome
    }

    /// The link's retransmit timer fired at `now_nanos` (or, with
    /// `everything`, the wire the copies were on is gone and all of them
    /// are due): every envelope past its deadline — the adapted RTO,
    /// doubled per retransmission of that envelope — is handed to `each`,
    /// oldest first, to be resent, or dropped as lost once it has been
    /// resent `max_retransmits` times. Returns how long until the
    /// earliest remaining deadline, for which the caller must start the
    /// timer again; `None` leaves the link without one.
    ///
    /// An abandoned sequence number must be recorded as observed by the
    /// receiver half: nothing will fill that gap, and an open gap would
    /// keep every later arrival in the window's out-of-order set (and
    /// unacknowledged) forever. It is, in place, when that half is `here`;
    /// otherwise the caller carries it to the one that holds it.
    pub fn retransmit_due(
        &mut self,
        now_nanos: u64,
        max_retransmits: u32,
        everything: bool,
        here: bool,
        mut each: impl FnMut(Overdue<'_>),
    ) -> Option<u64> {
        let rto = self.rtt.rto_nanos();
        let deadline = |entry: &Pending| {
            entry
                .last_tx
                .saturating_add(backoff_nanos(rto, entry.attempts))
        };
        let seen = &mut self.seen;
        let mut next: Option<u64> = None;
        self.pending.retain_mut(|entry| {
            let mut due = deadline(entry);
            if everything || due <= now_nanos {
                if entry.attempts >= max_retransmits {
                    if here {
                        seen.observe(entry.env.seq);
                    }
                    each(Overdue::Abandoned(entry.env.seq));
                    return false;
                }
                entry.attempts = if everything { 1 } else { entry.attempts + 1 };
                entry.last_tx = now_nanos;
                entry.retransmitted = true;
                let (env, attempt) = (&entry.env, entry.attempts);
                each(Overdue::Resend { env, attempt });
                due = deadline(entry);
            }
            next = Some(next.map_or(due, |n| n.min(due)));
            true
        });
        self.timer_armed = next.is_some();
        next.map(|due| due.saturating_sub(now_nanos))
    }

    /// The adaptive retransmission timeout in nanoseconds (the initial
    /// RTO until samples arrive).
    pub fn rto_nanos(&self) -> u64 {
        self.rtt.rto_nanos()
    }

    /// The still-unacknowledged envelope for `seq`, if any — what a
    /// retransmit timer should resend.
    pub fn unacked(&self, seq: u64) -> Option<&Envelope> {
        let at = self.pending.binary_search_by_key(&seq, |e| e.env.seq);
        at.ok().map(|at| &self.pending[at].env)
    }

    /// Number of envelopes awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// The smoothed round-trip time, once the link has a sample.
    pub fn srtt_nanos(&self) -> Option<u64> {
        (self.rtt.samples() > 0).then(|| self.rtt.srtt_nanos())
    }

    /// The link's round-trip estimator.
    pub fn rtt(&self) -> RttEstimator {
        self.rtt
    }

    /// Receiver-side dedup: records the arrival of `seq` and returns true
    /// iff it should be delivered (first arrival).
    pub fn accept(&mut self, seq: u64) -> bool {
        self.seen.observe(seq)
    }

    /// What to do about acknowledging the arrival of `seq`, which
    /// [`LinkRecord::accept`] just called `first` or not.
    pub fn ack_plan(&mut self, seq: u64, first: bool) -> AckPlan {
        if !first || seq > self.seen.prefix {
            return AckPlan::Now;
        }
        self.ack_owed += 1;
        if self.ack_owed >= ACK_EVERY {
            AckPlan::Now
        } else if std::mem::replace(&mut self.ack_armed, true) {
            AckPlan::Wait
        } else {
            AckPlan::Arm
        }
    }

    /// An ack goes out now: nothing is owed any more. Returns what it
    /// says — every sequence number up to this one has arrived.
    pub fn take_ack(&mut self) -> u64 {
        self.ack_owed = 0;
        self.seen.prefix
    }

    /// The delayed-ack timer fired: whether anything is still owed.
    pub fn ack_due(&mut self) -> bool {
        self.ack_armed = false;
        self.ack_owed > 0
    }

    /// Whether arrivals are waiting for the delayed-ack timer.
    pub fn owes_ack(&self) -> bool {
        self.ack_owed > 0
    }

    /// How long an in-order arrival may wait for company before it is
    /// acknowledged.
    pub fn ack_delay_nanos(&self) -> u64 {
        self.rtt.floor_nanos() / ACK_DELAY_DIVISOR
    }

    /// The driver's queue is gone, and both of the link's timers with it
    /// (a connection died): the next send starts a retransmit timer
    /// again, and what was owed an ack goes unacknowledged — its sender
    /// resends it, and a duplicate is acknowledged at once.
    pub fn timers_lost(&mut self) {
        self.timer_armed = false;
        self.ack_armed = false;
        self.ack_owed = 0;
    }
}

/// The reliable-delivery state one scheduler holds: a [`LinkRecord`] per
/// directed link it steps, created on first use. On the threaded runtime
/// a link's sender half is used on the sender's shard and its receiver
/// half on the receiver's; one shard, or the simulator, holds both.
///
/// The map is ordered so iteration (and therefore simulator behaviour)
/// is deterministic.
#[derive(Debug)]
pub struct ReliableState {
    links: BTreeMap<LinkId, LinkRecord>,
    /// The estimator a new (or crash-reset) link starts from: it carries
    /// the initial RTO and the clamp band.
    fresh_rtt: RttEstimator,
}

impl Default for ReliableState {
    fn default() -> Self {
        // 5 ms matches FaultPlan's default rto.
        ReliableState::with_rto(5_000_000)
    }
}

impl ReliableState {
    /// Fresh state with no links established and the default initial RTO.
    pub fn new() -> Self {
        ReliableState::default()
    }

    /// Fresh state whose per-link estimators start (and stay clamped
    /// around) `initial_rto_nanos`: the virtual-clock derivation
    /// `[initial/8, initial·64]`.
    pub fn with_rto(initial_rto_nanos: u64) -> Self {
        ReliableState {
            links: BTreeMap::new(),
            fresh_rtt: RttEstimator::new(initial_rto_nanos),
        }
    }

    /// The record for `link`, created on first use. This is the one
    /// lookup a link pipeline step makes; the methods below that take a
    /// `LinkId` are the same lookup followed by one record call.
    pub fn link_mut(&mut self, link: LinkId) -> &mut LinkRecord {
        let fresh = || LinkRecord::new(self.fresh_rtt);
        self.links.entry(link).or_insert_with(fresh)
    }

    /// See [`LinkRecord::assign_seq`].
    pub fn assign_seq(&mut self, link: LinkId) -> u64 {
        self.link_mut(link).assign_seq()
    }

    /// Buffers `envelope` on its `(src, dst)` link; see
    /// [`LinkRecord::track`].
    pub fn track(&mut self, envelope: Envelope) {
        self.link_mut((envelope.src, envelope.dst)).track(envelope);
    }

    /// See [`LinkRecord::acknowledge_at`].
    pub fn acknowledge_at(&mut self, link: LinkId, seq: u64, now_nanos: u64) -> AckOutcome {
        self.link_mut(link).acknowledge_at(seq, now_nanos)
    }

    /// See [`LinkRecord::accept`].
    pub fn accept(&mut self, link: LinkId, seq: u64) -> bool {
        self.link_mut(link).accept(seq)
    }

    /// Number of envelopes awaiting acknowledgement, over all links.
    pub fn in_flight(&self) -> usize {
        self.links.values().map(LinkRecord::in_flight).sum()
    }

    /// Mean smoothed RTT across links with at least one sample (0 if
    /// none) — the aggregate surfaced in `LinkStats`.
    pub fn mean_srtt_nanos(&self) -> u64 {
        let sampled = self.links.values().filter_map(LinkRecord::srtt_nanos);
        let (sum, links) = sampled.fold((0u64, 0), |(sum, n), srtt| {
            (sum.saturating_add(srtt), n + 1)
        });
        sum.checked_div(links).unwrap_or(0)
    }

    /// Resets the link state a crash of `pid` genuinely loses, on the
    /// records held here, and nothing more:
    ///
    /// * RTT estimators of links touching `pid` — link-quality estimates
    ///   are in-memory and a restarted process re-learns them;
    /// * Karn markers on `pid`'s outgoing links — ambiguous-sample
    ///   bookkeeping tied to those estimators.
    ///
    /// Deliberately survives: sequence counters (reusing sequence numbers
    /// would alias distinct messages in the dedup windows), dedup windows
    /// (clearing one would let a stale pre-crash packet re-deliver,
    /// breaking exactly-once), and the retransmit buffers (the buffer is
    /// the only thing that carries an unacked message past the down
    /// window — crash-recovery replay re-executes sends' effects locally
    /// but does not put them back on the wire).
    ///
    /// Returns the sum and number of the SRTTs it forgot, for a caller that
    /// keeps their mean.
    pub fn on_crash(&mut self, pid: ProcessId) -> (u64, u64) {
        let mut forgot = (0, 0);
        for (link, rec) in &mut self.links {
            if link.0 != pid && link.1 != pid {
                continue;
            }
            if let Some(srtt) = rec.srtt_nanos() {
                forgot = (forgot.0 + srtt, forgot.1 + 1);
            }
            rec.rtt = self.fresh_rtt;
            if link.0 == pid {
                for entry in rec.pending.iter_mut() {
                    entry.retransmitted = false;
                }
            }
        }
        forgot
    }
}

/// The retransmission delay for `attempt` (0-based): `rto << attempt`,
/// saturating, so backoff doubles per attempt.
pub fn backoff_nanos(rto_nanos: u64, attempt: u32) -> u64 {
    rto_nanos.saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_types::{Payload, UserMessage, VirtualTime};

    fn p(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    const LINK: LinkId = (ProcessId::from_raw(1), ProcessId::from_raw(2));

    fn srtt(st: &ReliableState, link: LinkId) -> Option<u64> {
        st.links.get(&link).and_then(LinkRecord::srtt_nanos)
    }

    /// Fires the timer at `1 << era` ns, long after everything sent an
    /// era earlier was due; returns (resent, abandoned).
    fn fire(rec: &mut LinkRecord, era: u32, cap: u32) -> (Vec<u64>, usize) {
        let (mut resent, mut lost) = (Vec::new(), 0);
        rec.retransmit_due(1 << era, cap, false, true, |due| match due {
            Overdue::Resend { env, .. } => resent.push(env.seq),
            Overdue::Abandoned(_) => lost += 1,
        });
        (resent, lost)
    }

    fn env(src: u64, dst: u64, seq: u64) -> Envelope {
        Envelope {
            src: p(src),
            dst: p(dst),
            sent_at: VirtualTime::ZERO,
            seq,
            payload: Payload::User(UserMessage::new(0, bytes::Bytes::new())),
        }
    }

    #[test]
    fn sequences_are_per_link_and_one_based() {
        let mut st = ReliableState::new();
        assert_eq!(st.assign_seq((p(1), p(2))), 1);
        assert_eq!(st.assign_seq((p(1), p(2))), 2);
        assert_eq!(st.assign_seq((p(2), p(1))), 1, "reverse link is distinct");
        assert_eq!(st.assign_seq((p(1), p(3))), 1);
    }

    #[test]
    fn ack_retires_pending_exactly_once() {
        let mut st = ReliableState::new();
        st.track(env(1, 2, 1));
        assert!(st.link_mut(LINK).unacked(1).is_some());
        assert!(st.acknowledge_at((p(1), p(2)), 1, 0).retired);
        assert!(st.link_mut(LINK).unacked(1).is_none());
        let again = st.acknowledge_at((p(1), p(2)), 1, 0);
        assert!(!again.retired, "duplicate ack is a no-op");
        assert_eq!(st.in_flight(), 0);
    }

    #[test]
    fn dedup_accepts_each_seq_once_in_any_order() {
        let mut st = ReliableState::new();
        let link = (p(1), p(2));
        assert!(st.accept(link, 2), "out-of-order first arrival delivers");
        assert!(st.accept(link, 1));
        assert!(!st.accept(link, 1), "retransmitted copy suppressed");
        assert!(!st.accept(link, 2), "wire duplicate suppressed");
        assert!(st.accept(link, 3));
    }

    #[test]
    fn dedup_window_compacts_to_prefix() {
        let mut st = ReliableState::new();
        let link = (p(1), p(2));
        for seq in (1..=100).rev() {
            assert!(st.accept(link, seq));
        }
        let window = &st.links[&link].seen;
        assert_eq!(window.prefix, 100);
        assert!(window.beyond.is_empty(), "no stragglers retained");
    }

    #[test]
    fn cumulative_ack_retires_everything_at_or_below_it() {
        let mut st = ReliableState::new();
        for seq in 1..=5 {
            st.track(env(1, 2, seq));
        }
        assert!(st.acknowledge_at(LINK, 3, 0).retired);
        let rec = st.link_mut(LINK);
        assert!(rec.unacked(3).is_none() && rec.unacked(4).is_some());
        assert_eq!(rec.in_flight(), 2);
        assert!(!rec.acknowledge_at(2, 0).retired, "an older ack is a no-op");
        assert!(
            rec.acknowledge_at(9, 0).retired,
            "beyond what was sent: all of it"
        );
        assert_eq!(rec.in_flight(), 0);
    }

    #[test]
    fn the_timer_resends_until_the_cap_then_gives_the_message_up() {
        let mut st = ReliableState::new();
        st.track(env(1, 2, 5));
        let rec = st.link_mut(LINK);
        assert_eq!(fire(rec, 40, 1), (vec![5], 0));
        assert_eq!(fire(rec, 40, 1), (vec![], 0), "not due again yet");
        assert_eq!(fire(rec, 50, 1), (vec![], 1), "resent once already: lost");
        assert_eq!(fire(rec, 60, 1), (vec![], 0), "nothing pending");
        assert_eq!(st.in_flight(), 0);
    }

    #[test]
    fn arrivals_are_owed_an_ack_until_enough_of_them_are() {
        let mut st = ReliableState::new();
        let rec = st.link_mut(LINK);
        let arrive = |rec: &mut LinkRecord, seq| {
            let first = rec.accept(seq);
            rec.ack_plan(seq, first)
        };
        assert_eq!(arrive(rec, 1), AckPlan::Arm);
        assert!(rec.owes_ack());
        for seq in 2..u64::from(ACK_EVERY) {
            assert_eq!(arrive(rec, seq), AckPlan::Wait);
        }
        assert_eq!(arrive(rec, u64::from(ACK_EVERY)), AckPlan::Now);
        assert_eq!(rec.take_ack(), u64::from(ACK_EVERY));
        assert!(!rec.owes_ack());
        // The timer the first arrival started is still running.
        assert_eq!(arrive(rec, u64::from(ACK_EVERY) + 1), AckPlan::Wait);
        assert!(rec.ack_due(), "it fires with one arrival owed");
        assert_eq!(rec.take_ack(), u64::from(ACK_EVERY) + 1);
        assert!(!rec.ack_due(), "and again with none");
        // A duplicate, or an arrival past a gap, is answered at once and
        // with what is contiguous.
        assert_eq!(arrive(rec, 1), AckPlan::Now);
        assert_eq!(arrive(rec, u64::from(ACK_EVERY) + 3), AckPlan::Now);
        assert_eq!(rec.take_ack(), u64::from(ACK_EVERY) + 1);
        // Losing the driver's queue loses what was owed with it.
        assert_eq!(arrive(rec, u64::from(ACK_EVERY) + 2), AckPlan::Arm);
        rec.timers_lost();
        assert!(!rec.owes_ack());
        assert!(rec.arm_timer(), "and the retransmit timer");
        assert!(!rec.arm_timer());
    }

    #[test]
    fn abandoned_seq_leaves_no_gap_in_the_dedup_window() {
        // The bound on the out-of-order set: it holds only sequence
        // numbers above a gap that can still fill. An abandoned one never
        // will, so it must not hold 10 000 later arrivals hostage.
        let mut st = ReliableState::new();
        let rec = st.link_mut(LINK);
        let first = rec.assign_seq();
        assert!(rec.accept(first));
        let lost = rec.assign_seq();
        rec.track(env(1, 2, lost));
        assert_eq!(fire(rec, 40, 0), (vec![], 1));
        for _ in 0..10_000 {
            let seq = rec.assign_seq();
            assert!(rec.accept(seq));
        }
        assert_eq!(rec.seen.prefix, 10_002);
        assert!(rec.seen.beyond.is_empty(), "nothing waits on the lost seq");
        assert!(!rec.accept(lost), "a stale copy of it is suppressed");
    }

    #[test]
    fn estimator_converges_toward_stable_rtt() {
        let mut e = RttEstimator::new(5_000_000);
        for _ in 0..50 {
            e.observe(1_000_000);
        }
        assert_eq!(e.srtt_nanos(), 1_000_000);
        // Stable samples shrink RTTVAR, so RTO approaches SRTT (bounded
        // below by the clamp floor initial/8).
        assert!(e.rto_nanos() >= 1_000_000);
        assert!(e.rto_nanos() < 2_000_000, "rto={}", e.rto_nanos());
    }

    #[test]
    fn estimator_clamps_to_min_and_max() {
        let mut e = RttEstimator::new(8_000);
        for _ in 0..50 {
            e.observe(1);
        }
        assert_eq!(e.rto_nanos(), 1_000, "clamped at initial/8");
        for _ in 0..50 {
            e.observe(u64::MAX / 8);
        }
        assert_eq!(e.rto_nanos(), 8_000 * 64, "clamped at initial*64");
    }

    #[test]
    fn bounded_estimator_survives_pathological_samples() {
        // Zero samples (a wall clock that didn't advance between send
        // and ack) must not drive the RTO below the wall floor.
        let mut e = RttEstimator::for_wall_clock(100_000_000);
        for _ in 0..50 {
            e.observe(0);
        }
        assert_eq!(e.rto_nanos(), WALL_RTO_MIN_NANOS, "floored at wall min");

        // Huge samples (clock slew, suspend/resume) must saturate, not
        // overflow, and the RTO stays capped at the wall ceiling.
        let mut e = RttEstimator::for_wall_clock(100_000_000);
        e.observe(u64::MAX);
        e.observe(u64::MAX);
        assert_eq!(e.rto_nanos(), WALL_RTO_MAX_NANOS, "capped at wall max");

        // Non-monotonic wall clocks alternate tiny and huge samples; the
        // estimator must stay inside the band throughout.
        let mut e = RttEstimator::for_wall_clock(100_000_000);
        for i in 0..100u64 {
            e.observe(if i % 2 == 0 { 0 } else { u64::MAX / 2 });
            let rto = e.rto_nanos();
            assert!(
                (WALL_RTO_MIN_NANOS..=WALL_RTO_MAX_NANOS).contains(&rto),
                "rto {rto} escaped the wall band at sample {i}"
            );
        }
    }

    #[test]
    fn with_bounds_clamps_initial_and_degenerate_bands() {
        let e = RttEstimator::with_bounds(1, 5_000, 10_000);
        assert_eq!(e.rto_nanos(), 5_000, "initial clamped up into band");
        let e = RttEstimator::with_bounds(1_000_000, 5_000, 10_000);
        assert_eq!(e.rto_nanos(), 10_000, "initial clamped down into band");
        let e = RttEstimator::with_bounds(7, 10_000, 2 /* min > max */);
        assert_eq!(e.rto_nanos(), 10_000, "degenerate band collapses to min");
    }

    #[test]
    fn wall_clock_record_holds_its_rto_inside_the_band() {
        // The record a socket peer owns: no map around it.
        let mut rec = LinkRecord::new(RttEstimator::for_wall_clock(5_000_000));
        assert_eq!(rec.rto_nanos(), 5_000_000, "initial inside band");
        // An instant (0 ns) ack would push an unbounded estimator's RTO
        // toward zero; the band holds it at the floor.
        for seq in 1..=20 {
            rec.track(env(1, 2, seq));
            rec.acknowledge_at(seq, 0);
        }
        assert_eq!(
            rec.rto_nanos(),
            WALL_RTO_MIN_NANOS,
            "held at the wall floor"
        );
        assert_eq!((rec.in_flight(), rec.srtt_nanos()), (0, Some(0)));
    }

    #[test]
    fn jittery_samples_raise_rto_above_srtt() {
        let mut e = RttEstimator::new(5_000_000);
        for i in 0..100u64 {
            e.observe(if i % 2 == 0 { 500_000 } else { 1_500_000 });
        }
        assert!(e.rto_nanos() > e.srtt_nanos() + 1_000_000, "4·RTTVAR term");
    }

    #[test]
    fn acknowledge_at_samples_fresh_sends_only() {
        let mut st = ReliableState::with_rto(5_000_000);
        let link = (p(1), p(2));
        st.track(env(1, 2, 1));
        let out = st.acknowledge_at(link, 1, 2_000_000);
        assert!(out.retired);
        assert_eq!(out.rtt_sample_nanos, Some(2_000_000));
        assert_eq!(srtt(&st, link), Some(2_000_000));
        // Karn's rule: a retransmitted seq yields no sample.
        st.track(env(1, 2, 2));
        assert_eq!(fire(st.link_mut(link), 40, 8), (vec![2], 0));
        let out = st.acknowledge_at(link, 2, 9_000_000);
        assert!(out.retired);
        assert_eq!(out.rtt_sample_nanos, None);
        assert_eq!(srtt(&st, link), Some(2_000_000), "estimator untouched");
        // One ack for several: the newest fresh entry is the sample.
        for seq in 3..=5 {
            let mut sent = env(1, 2, seq);
            sent.sent_at = VirtualTime::from_nanos(seq * 1_000_000);
            st.track(sent);
        }
        let out = st.acknowledge_at(link, 5, 9_000_000);
        assert_eq!(out.rtt_sample_nanos, Some(4_000_000), "9 ms - 5 ms");
    }

    #[test]
    fn rto_adapts_from_initial_to_measured() {
        let mut st = ReliableState::with_rto(5_000_000);
        let link = (p(1), p(2));
        assert_eq!(
            st.link_mut(link).rto_nanos(),
            5_000_000,
            "no samples: initial rto"
        );
        for seq in 1..=20 {
            st.track(env(1, 2, seq));
            st.acknowledge_at(link, seq, 1_000_000);
        }
        assert!(
            st.link_mut(link).rto_nanos() < 5_000_000,
            "rto adapted downward"
        );
        assert!(
            st.link_mut(link).rto_nanos() >= 625_000,
            "but not below initial/8"
        );
        assert!(st.mean_srtt_nanos() > 0);
    }

    #[test]
    fn duplicate_ack_takes_no_sample() {
        let mut st = ReliableState::with_rto(5_000_000);
        let link = (p(1), p(2));
        st.track(env(1, 2, 1));
        assert!(st.acknowledge_at(link, 1, 1_000).retired);
        let dup = st.acknowledge_at(link, 1, 2_000);
        assert!(!dup.retired);
        assert_eq!(dup.rtt_sample_nanos, None);
    }

    #[test]
    fn on_crash_clears_rtt_but_keeps_delivery_obligations() {
        let mut st = ReliableState::with_rto(5_000_000);
        let link = (p(1), p(2));
        assert_eq!(st.assign_seq(link), 1);
        st.track(env(1, 2, 1));
        assert!(st.accept(link, 1), "first delivery before the crash");
        st.acknowledge_at(link, 1, 1_000_000);
        assert_eq!(st.assign_seq(link), 2);
        assert!(srtt(&st, link).is_some());
        st.track(env(1, 2, 2));
        st.on_crash(p(2));
        assert!(!st.accept(link, 1), "a stale copy after the restart: dedup");
        assert_eq!(srtt(&st, link), None, "estimator is volatile");
        assert_eq!(
            st.link_mut(link).rto_nanos(),
            5_000_000,
            "back to the initial rto"
        );
        assert!(
            st.link_mut(link).unacked(2).is_some(),
            "retransmit buffer survives"
        );
        assert_eq!(st.assign_seq(link), 3, "sequence numbers never restart");
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        assert_eq!(backoff_nanos(1_000, 0), 1_000);
        assert_eq!(backoff_nanos(1_000, 1), 2_000);
        assert_eq!(backoff_nanos(1_000, 10), 1_024_000);
        assert_eq!(backoff_nanos(u64::MAX, 3), u64::MAX);
        assert_eq!(backoff_nanos(1, 64), u64::MAX, "shift overflow saturates");
    }
}
