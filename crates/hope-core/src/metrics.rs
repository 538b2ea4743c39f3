//! The counters of a HOPE execution. Each HOPElib counts into a plain
//! [`MetricsSnapshot`] of its own (`LibState`); an observer asks every
//! HOPElib for its view and sums them ([`Env::metrics`](crate::Env::metrics)).
//! [`HopeMetrics`] holds only what outlives its owner.

use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use hope_types::{RollbackAttribution, TraceCollector};

/// What the HOPElibs, AID actors and runtime of one
/// [`HopeEnv`](crate::HopeEnv) share: the trace collector and the AID
/// actors' two counts. An AID actor stops once collected, so nothing could
/// ask it afterwards; it counts into these relaxed atomics instead, off
/// every primitive's path.
#[derive(Debug, Default)]
pub struct HopeMetrics {
    /// `affirm`/`deny` applied to already-final AIDs (the paper's "user
    /// error" aborts, reported instead of aborting).
    pub aid_contract_violations: AtomicU64,
    /// AID processes garbage-collected by reference counting.
    pub aids_collected: AtomicU64,
    /// The shared causal-trace collector every HOPElib, AID actor and
    /// runtime of one environment records into. Disabled by default;
    /// recording costs one relaxed atomic load until enabled.
    pub tracer: Arc<TraceCollector>,
}

impl HopeMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        HopeMetrics::default()
    }
}

/// HOPE's counters: one HOPElib's view (`LibState::metrics`), or the sum
/// over an environment's HOPElibs plus its AID actors' counts
/// ([`Env::metrics`](crate::Env::metrics)).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Explicit `guess` primitives executed (live, not replayed).
    pub guesses: u64,
    /// Implicit guesses performed by receiving tagged messages: every
    /// member of every received tag, whether or not the receive opened an
    /// interval (a receive the current interval covers opens none,
    /// DESIGN.md S9).
    pub implicit_guesses: u64,
    /// `affirm` primitives executed.
    pub affirms: u64,
    /// `deny` primitives executed.
    pub denies: u64,
    /// `free_of` primitives executed.
    pub free_ofs: u64,
    /// Intervals rolled back: the attribution's `intervals_discarded`.
    pub rollbacks: u64,
    /// Process re-executions triggered by rollbacks: the attribution's
    /// `reexecutions`.
    pub reexecutions: u64,
    /// Operations replayed from logs during re-execution.
    pub replayed_ops: u64,
    /// Intervals finalized (made definite).
    pub finalized_intervals: u64,
    /// Rollback messages that arrived for already-definite intervals
    /// (ignored; see DESIGN.md on the finalize commit point).
    pub late_rollbacks: u64,
    /// See [`HopeMetrics::aid_contract_violations`].
    pub aid_contract_violations: u64,
    /// Dependencies discarded by Algorithm 2's UDO cycle detection.
    pub cycles_broken: u64,
    /// Deep copies of a shared `IDO` made by `Replace` handling: local
    /// bookkeeping work, which no message count shows. One per run of
    /// equal holders, not one per holder (E5b).
    pub ido_unshares: u64,
    /// See [`HopeMetrics::aids_collected`].
    pub aids_collected: u64,
    /// Crash recoveries performed: restarts that discarded speculative
    /// intervals and replayed the operation log to the definite frontier.
    pub crash_recoveries: u64,
    /// Doomed speculative intervals cancelled *before* they ran: stale
    /// tagged messages discarded pre-receive and guesses on known-denied
    /// AIDs short-circuited to `false` (DESIGN.md S8; every policy). The
    /// speculation controller's count.
    pub cancelled_intervals: u64,
    /// Interval records examined by the history queries of every user
    /// process, children spawned by
    /// [`ProcessCtx::spawn_user`](crate::ProcessCtx::spawn_user) included
    /// ([`History::visits`](crate::History::visits) summed): local
    /// bookkeeping work, which no message count shows.
    pub history_visits: u64,
    /// Per-cause rollback attribution: which deny (or crash) wasted how
    /// much work. Charged at rollback time by the process that rolled
    /// back; only live (non-replayed) rollbacks charge, so crash recovery
    /// never double-counts.
    pub attribution: RollbackAttribution,
}

impl MetricsSnapshot {
    /// Adds `other`'s counts to these. Every field is named, so a field
    /// added without being summed here does not compile.
    pub(crate) fn add(&mut self, other: &MetricsSnapshot) {
        let MetricsSnapshot {
            guesses,
            implicit_guesses,
            affirms,
            denies,
            free_ofs,
            rollbacks,
            reexecutions,
            replayed_ops,
            finalized_intervals,
            late_rollbacks,
            aid_contract_violations,
            cycles_broken,
            ido_unshares,
            aids_collected,
            crash_recoveries,
            cancelled_intervals,
            history_visits,
            attribution,
        } = other;
        self.guesses += guesses;
        self.implicit_guesses += implicit_guesses;
        self.affirms += affirms;
        self.denies += denies;
        self.free_ofs += free_ofs;
        self.rollbacks += rollbacks;
        self.reexecutions += reexecutions;
        self.replayed_ops += replayed_ops;
        self.finalized_intervals += finalized_intervals;
        self.late_rollbacks += late_rollbacks;
        self.aid_contract_violations += aid_contract_violations;
        self.cycles_broken += cycles_broken;
        self.ido_unshares += ido_unshares;
        self.aids_collected += aids_collected;
        self.crash_recoveries += crash_recoveries;
        self.cancelled_intervals += cancelled_intervals;
        self.history_visits += history_visits;
        self.attribution.merge(attribution);
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "guesses={} (implicit={}) affirms={} denies={} free_ofs={}",
            self.guesses, self.implicit_guesses, self.affirms, self.denies, self.free_ofs
        )?;
        writeln!(
            f,
            "rollbacks={} reexecutions={} replayed_ops={} finalized={}",
            self.rollbacks, self.reexecutions, self.replayed_ops, self.finalized_intervals
        )?;
        write!(
            f,
            "late_rollbacks={} violations={} cycles_broken={} aids_collected={} \
             crash_recoveries={} cancelled_intervals={}",
            self.late_rollbacks,
            self.aid_contract_violations,
            self.cycles_broken,
            self.aids_collected,
            self.crash_recoveries,
            self.cancelled_intervals
        )?;
        if !self.attribution.is_empty() {
            write!(f, "\n{}", self.attribution)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_types::{AidId, BlameKey, ProcessId, WastedWork};

    /// A snapshot whose every counter is distinct and non-zero, its
    /// attribution charged to `cause`.
    fn every_field(base: u64, cause: u64) -> MetricsSnapshot {
        let mut attribution = RollbackAttribution::new();
        let work = WastedWork {
            intervals_discarded: base + 20,
            ops_discarded: base + 21,
            messages_invalidated: base + 22,
            reexecutions: base + 23,
        };
        let aid = AidId::from_raw(ProcessId::from_raw(cause));
        attribution.charge(BlameKey::Aid(aid), work);
        MetricsSnapshot {
            guesses: base + 1,
            implicit_guesses: base + 2,
            affirms: base + 3,
            denies: base + 4,
            free_ofs: base + 5,
            rollbacks: base + 6,
            reexecutions: base + 7,
            replayed_ops: base + 8,
            finalized_intervals: base + 9,
            late_rollbacks: base + 10,
            aid_contract_violations: base + 11,
            cycles_broken: base + 12,
            ido_unshares: base + 13,
            aids_collected: base + 14,
            crash_recoveries: base + 15,
            cancelled_intervals: base + 16,
            history_visits: base + 17,
            attribution,
        }
    }

    #[test]
    fn add_sums_every_field_and_merges_the_attribution() {
        let (a, b) = (every_field(100, 7), every_field(1_000, 7));
        let mut sum = a.clone();
        sum.add(&b);
        let both = |x: u64| 1_100 + 2 * x;
        assert_eq!(sum.guesses, both(1));
        assert_eq!(sum.implicit_guesses, both(2));
        assert_eq!(sum.affirms, both(3));
        assert_eq!(sum.denies, both(4));
        assert_eq!(sum.free_ofs, both(5));
        assert_eq!(sum.rollbacks, both(6));
        assert_eq!(sum.reexecutions, both(7));
        assert_eq!(sum.replayed_ops, both(8));
        assert_eq!(sum.finalized_intervals, both(9));
        assert_eq!(sum.late_rollbacks, both(10));
        assert_eq!(sum.aid_contract_violations, both(11));
        assert_eq!(sum.cycles_broken, both(12));
        assert_eq!(sum.ido_unshares, both(13));
        assert_eq!(sum.aids_collected, both(14));
        assert_eq!(sum.crash_recoveries, both(15));
        assert_eq!(sum.cancelled_intervals, both(16));
        assert_eq!(sum.history_visits, both(17));
        let total = sum.attribution.total();
        assert_eq!(sum.attribution.by_cause.len(), 1, "one cause, merged");
        assert_eq!(total.intervals_discarded, both(20));
        assert_eq!(total.ops_discarded, both(21));
        assert_eq!(total.messages_invalidated, both(22));
        assert_eq!(total.reexecutions, both(23));

        // A second cause keeps its own row.
        sum.add(&every_field(0, 8));
        assert_eq!(sum.attribution.by_cause.len(), 2);
        assert_eq!(sum.guesses, both(1) + 1);
    }

    #[test]
    fn display_mentions_key_counters() {
        let s = MetricsSnapshot {
            guesses: 2,
            rollbacks: 5,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("guesses=2"));
        assert!(text.contains("rollbacks=5"));
    }
}
