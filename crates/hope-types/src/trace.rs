//! Causal trace layer: lifecycle events for speculation, rollback and the
//! wire, plus rollback **attribution** (who a rollback is causally charged
//! to and how much work it wasted).
//!
//! The trace is an append-only ring of [`TraceEvent`]s collected by a
//! [`TraceCollector`] that both runtimes and every HOPElib instance share.
//! Collection is disabled by default and gated by one relaxed atomic load,
//! so the hot path pays nothing when tracing is off; when enabled the ring
//! drops its oldest events once `capacity` is reached (the drop count is
//! reported so truncation is never silent).
//!
//! Every event carries a virtual-time stamp (deterministic under the
//! simulator) and a wall-clock stamp in nanoseconds since the collector's
//! epoch (monotonic, suitable for Chrome trace-event `ts` fields).
//!
//! Attribution ([`RollbackAttribution`]) is independent of the ring: it is
//! a small map from [`BlameKey`] (the denying AID, or the crashed process)
//! to [`WastedWork`] totals, accumulated at rollback time and surfaced in
//! `MetricsSnapshot` even when event tracing is disabled.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::{AidId, IntervalId, ProcessId, VirtualTime};

/// Default ring capacity used by [`TraceCollector::enable_default`].
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// What happened, from the point of view of the process in
/// [`TraceEvent::pid`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// An AID process was created (`aid_init`).
    AidInit {
        /// The new assumption identifier.
        aid: AidId,
    },
    /// An explicit `guess(aid)` opened a speculative interval.
    Guess {
        /// The assumption guessed.
        aid: AidId,
        /// The interval the guess opened.
        interval: IntervalId,
    },
    /// A message receive implicitly guessed the AIDs on its tag.
    ImplicitGuess {
        /// Number of newly guessed AIDs on the tag.
        new_aids: u64,
        /// The interval the receive opened.
        interval: IntervalId,
    },
    /// `affirm(aid)` executed.
    Affirm {
        /// The assumption affirmed.
        aid: AidId,
    },
    /// `deny(aid)` executed.
    Deny {
        /// The assumption denied.
        aid: AidId,
    },
    /// `free_of(aid)` executed.
    FreeOf {
        /// The assumption dropped from the current interval.
        aid: AidId,
    },
    /// An AID process reached a terminal state (from the AID's own
    /// perspective; the resolving primitive is traced separately at the
    /// caller).
    AidResolved {
        /// The resolved assumption (the AID's own identity).
        aid: AidId,
        /// True when resolved `False` (denied), false for `True`.
        denied: bool,
    },
    /// A speculative interval opened (explicitly or implicitly).
    IntervalOpen {
        /// The new interval.
        interval: IntervalId,
        /// True when opened by a tagged receive rather than `guess`.
        implicit: bool,
    },
    /// An interval became definite (the commit point).
    IntervalFinalized {
        /// The finalized interval.
        interval: IntervalId,
    },
    /// A rollback began: intervals at and above `floor` are discarded.
    RollbackStart {
        /// First discarded interval.
        floor: IntervalId,
        /// The denying AID this rollback is charged to (`None` for
        /// crash-caused rollbacks).
        cause: Option<AidId>,
        /// True when the rollback recovers from a crash.
        crash: bool,
        /// Intervals discarded.
        discarded: u64,
        /// Replay-log operations removed.
        ops_discarded: u64,
        /// Sends among the removed operations (messages whose effects are
        /// now invalidated downstream).
        messages_invalidated: u64,
    },
    /// The user body restarted after a rollback (re-execution depth grows
    /// by one each time).
    Reexecution,
    /// Crash recovery replayed the durable log to the definite frontier.
    CrashRecovery,
    /// A user/protocol message was handed to the network.
    Send {
        /// Destination process.
        dst: ProcessId,
        /// Link sequence number (0 when the reliable sublayer is off).
        seq: u64,
    },
    /// A message was delivered to its destination.
    Deliver {
        /// Source process.
        src: ProcessId,
        /// Link sequence number (0 when the reliable sublayer is off).
        seq: u64,
        /// The paper's Table 1 message kind (`"Guess"`, `"Affirm"`,
        /// `"Deny"`, `"Replace"`, `"Rollback"`) or `"User"`.
        kind: &'static str,
    },
    /// The reliable sublayer retransmitted an unacked message.
    Retransmit {
        /// Destination process.
        dst: ProcessId,
        /// Link sequence number.
        seq: u64,
    },
    /// The process crashed (fault injection).
    Crash,
    /// The process restarted after a crash.
    Restart,
    /// The wire-side delta-coded dependency tag decoded to a different set
    /// than the typed tag carried in the same envelope; the link codec was
    /// forced to Full resync.
    TagDecodeMismatch {
        /// Source process of the mis-decoded message.
        src: ProcessId,
        /// Link sequence number.
        seq: u64,
    },
    /// The speculation controller folded in one observed resolution
    /// (adaptive speculation control, DESIGN.md §9). EWMAs are Q16 fixed
    /// point; the per-pid event order is this process's observation order,
    /// so filtering a trace by pid yields the exact EWMA trajectory.
    SpecObserve {
        /// The resolved assumption.
        aid: AidId,
        /// True for a deny (observed through rollback attribution), false
        /// for an affirm (observed through interval finalization).
        denied: bool,
        /// Post-observation per-AID deny-rate EWMA (Q16).
        aid_ewma: u32,
        /// Post-observation process-aggregate deny-rate EWMA (Q16).
        process_ewma: u32,
    },
    /// The adaptive policy flipped regime for one key.
    SpecThrottle {
        /// The AID whose per-AID EWMA flipped, or `None` for the
        /// process-aggregate EWMA.
        aid: Option<AidId>,
        /// True entering the pessimistic regime, false resuming optimism.
        on: bool,
        /// The EWMA value at the flip (Q16).
        ewma: u32,
    },
    /// A `guess` waited under speculation control before proceeding:
    /// either the guessed AID (or the process) was throttled into the
    /// pessimistic regime, or the unaffirmed guess chain hit `max_depth`.
    SpecWait {
        /// The assumption being guessed.
        aid: AidId,
        /// True when the wait was for chain depth rather than throttling.
        depth_limited: bool,
    },
    /// Doomed speculative work was cancelled before it could run: the AID
    /// is known denied, so the interval that would have depended on it was
    /// never opened (early doomed-interval cancellation).
    CancelDoomed {
        /// The known-denied assumption that doomed the work.
        aid: AidId,
        /// True when a stale tagged message was discarded before its
        /// implicit receive interval opened; false when an explicit
        /// `guess` was short-circuited straight to `false`.
        message: bool,
    },
}

/// One trace record: where, when (twice) and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Process the event belongs to.
    pub pid: ProcessId,
    /// Deterministic virtual-time stamp.
    pub virt: VirtualTime,
    /// Wall-clock nanoseconds since the collector's epoch.
    pub wall_ns: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

struct Ring {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
}

/// Shared, ring-buffered event sink. Always constructed (both runtimes and
/// every HOPElib hold an `Arc` to one) but off by default: [`record`]
/// returns after a single relaxed atomic load until [`enable`] is called.
///
/// [`record`]: TraceCollector::record
/// [`enable`]: TraceCollector::enable
pub struct TraceCollector {
    enabled: AtomicBool,
    dropped: AtomicU64,
    ring: Mutex<Ring>,
    epoch: Instant,
}

impl fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceCollector")
            .field("enabled", &self.is_enabled())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new()
    }
}

impl TraceCollector {
    /// A disabled collector with the default capacity.
    pub fn new() -> Self {
        TraceCollector {
            enabled: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                buf: VecDeque::new(),
                capacity: DEFAULT_TRACE_CAPACITY,
            }),
            epoch: Instant::now(),
        }
    }

    /// Clears the ring, sets its capacity and turns collection on.
    pub fn enable(&self, capacity: usize) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        ring.buf.clear();
        ring.capacity = capacity.max(1);
        self.dropped.store(0, Ordering::Relaxed);
        self.enabled.store(true, Ordering::Release);
    }

    /// [`enable`](TraceCollector::enable) with
    /// [`DEFAULT_TRACE_CAPACITY`].
    pub fn enable_default(&self) {
        self.enable(DEFAULT_TRACE_CAPACITY);
    }

    /// Turns collection off (already-collected events remain readable).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether [`record`](TraceCollector::record) currently stores events.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Appends an event if tracing is enabled; otherwise a single relaxed
    /// atomic load. The wall stamp is taken here, relative to the
    /// collector's construction.
    #[inline]
    pub fn record(&self, pid: ProcessId, virt: VirtualTime, kind: TraceEventKind) {
        if !self.is_enabled() {
            return;
        }
        self.record_slow(pid, virt, kind);
    }

    #[cold]
    fn record_slow(&self, pid: ProcessId, virt: VirtualTime, kind: TraceEventKind) {
        let wall_ns = self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.buf.len() >= ring.capacity {
            ring.buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.buf.push_back(TraceEvent {
            pid,
            virt,
            wall_ns,
            kind,
        });
    }

    /// Copies the collected events in arrival order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring
            .lock()
            .expect("trace ring poisoned")
            .buf
            .iter()
            .cloned()
            .collect()
    }

    /// Removes and returns the collected events in arrival order.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.ring
            .lock()
            .expect("trace ring poisoned")
            .buf
            .drain(..)
            .collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring poisoned").buf.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Who a rollback is causally charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlameKey {
    /// The AID whose `deny` started the cascade that reached this process.
    Aid(AidId),
    /// A crash of this process (no deny involved).
    Crash(ProcessId),
}

impl fmt::Display for BlameKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlameKey::Aid(aid) => write!(f, "deny({aid})"),
            BlameKey::Crash(pid) => write!(f, "crash({pid})"),
        }
    }
}

/// Wasted-work totals charged to one [`BlameKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WastedWork {
    /// Speculative intervals discarded.
    pub intervals_discarded: u64,
    /// Replay-log operations discarded (work that must be redone).
    pub ops_discarded: u64,
    /// Sends among the discarded operations — messages whose downstream
    /// effects are invalidated by the rollback.
    pub messages_invalidated: u64,
    /// Re-executions triggered (each rollback restarts the body once, so
    /// this is the re-execution depth charged to the cause).
    pub reexecutions: u64,
}

impl WastedWork {
    /// Component-wise sum.
    pub fn add(&mut self, other: &WastedWork) {
        self.intervals_discarded += other.intervals_discarded;
        self.ops_discarded += other.ops_discarded;
        self.messages_invalidated += other.messages_invalidated;
        self.reexecutions += other.reexecutions;
    }

    /// True when every total is zero.
    pub fn is_zero(&self) -> bool {
        *self == WastedWork::default()
    }
}

impl fmt::Display for WastedWork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "intervals={} ops={} msgs_invalidated={} reexecutions={}",
            self.intervals_discarded,
            self.ops_discarded,
            self.messages_invalidated,
            self.reexecutions
        )
    }
}

/// Per-cause wasted-work totals for one execution (one env). Deterministic
/// iteration order (`BTreeMap`) so two runs of the same seeded scenario
/// compare bit-identically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RollbackAttribution {
    /// Totals keyed by the rollback cause.
    pub by_cause: BTreeMap<BlameKey, WastedWork>,
}

impl RollbackAttribution {
    /// An empty attribution table.
    pub fn new() -> Self {
        RollbackAttribution::default()
    }

    /// Adds `work` to the totals charged to `key`.
    pub fn charge(&mut self, key: BlameKey, work: WastedWork) {
        self.by_cause.entry(key).or_default().add(&work);
    }

    /// Merges another table into this one (component-wise sums).
    pub fn merge(&mut self, other: &RollbackAttribution) {
        for (key, work) in &other.by_cause {
            self.by_cause.entry(*key).or_default().add(work);
        }
    }

    /// Sum over every cause.
    pub fn total(&self) -> WastedWork {
        let mut total = WastedWork::default();
        for work in self.by_cause.values() {
            total.add(work);
        }
        total
    }

    /// True when nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.by_cause.is_empty()
    }
}

impl fmt::Display for RollbackAttribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.by_cause.is_empty() {
            return write!(f, "attribution: (no rollbacks)");
        }
        write!(f, "attribution:")?;
        for (key, work) in &self.by_cause {
            write!(f, "\n  {key}: {work}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn aid(n: u64) -> AidId {
        AidId::from_raw(pid(n))
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let c = TraceCollector::new();
        c.record(pid(0), VirtualTime::ZERO, TraceEventKind::Reexecution);
        assert!(c.is_empty());
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn enabled_collector_keeps_order_and_drops_oldest() {
        let c = TraceCollector::new();
        c.enable(2);
        for n in 0..3u64 {
            c.record(
                pid(n),
                VirtualTime::from_nanos(n),
                TraceEventKind::Affirm { aid: aid(n) },
            );
        }
        let events = c.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].pid, pid(1));
        assert_eq!(events[1].pid, pid(2));
        assert_eq!(c.dropped(), 1);
    }

    #[test]
    fn drain_empties_the_ring() {
        let c = TraceCollector::new();
        c.enable(8);
        c.record(pid(0), VirtualTime::ZERO, TraceEventKind::Crash);
        assert_eq!(c.drain().len(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn attribution_charges_and_merges() {
        let mut a = RollbackAttribution::new();
        a.charge(
            BlameKey::Aid(aid(1)),
            WastedWork {
                intervals_discarded: 2,
                ops_discarded: 5,
                messages_invalidated: 1,
                reexecutions: 1,
            },
        );
        a.charge(
            BlameKey::Aid(aid(1)),
            WastedWork {
                intervals_discarded: 1,
                ops_discarded: 2,
                messages_invalidated: 0,
                reexecutions: 1,
            },
        );
        let mut b = RollbackAttribution::new();
        b.charge(
            BlameKey::Crash(pid(3)),
            WastedWork {
                intervals_discarded: 4,
                ops_discarded: 9,
                messages_invalidated: 2,
                reexecutions: 1,
            },
        );
        b.merge(&a);
        assert_eq!(b.by_cause.len(), 2);
        let total = b.total();
        assert_eq!(total.intervals_discarded, 7);
        assert_eq!(total.ops_discarded, 16);
        assert_eq!(total.messages_invalidated, 3);
        assert_eq!(total.reexecutions, 3);
        assert!(!b.is_empty());
    }

    #[test]
    fn display_is_stable() {
        let mut a = RollbackAttribution::new();
        a.charge(BlameKey::Aid(aid(2)), WastedWork::default());
        let text = a.to_string();
        assert!(text.contains("deny("));
        assert!(RollbackAttribution::new()
            .to_string()
            .contains("no rollbacks"));
    }
}
