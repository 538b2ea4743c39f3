//! Shared counters describing a HOPE execution.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hope_types::{BlameKey, RollbackAttribution, TraceCollector, WastedWork};

/// Atomic counters shared by every HOPElib instance and AID actor of one
/// [`HopeEnv`](crate::HopeEnv). Cheap to clone via `Arc`; read with
/// [`HopeMetrics::snapshot`].
#[derive(Debug, Default)]
pub struct HopeMetrics {
    /// Explicit `guess` primitives executed (live, not replayed).
    pub guesses: AtomicU64,
    /// Implicit guesses performed by receiving tagged messages: every
    /// member of every received tag, whether or not the receive opened an
    /// interval (a receive the current interval covers opens none,
    /// DESIGN.md S9).
    pub implicit_guesses: AtomicU64,
    /// `affirm` primitives executed.
    pub affirms: AtomicU64,
    /// `deny` primitives executed.
    pub denies: AtomicU64,
    /// `free_of` primitives executed.
    pub free_ofs: AtomicU64,
    /// Intervals rolled back.
    pub rollbacks: AtomicU64,
    /// Process re-executions triggered by rollbacks.
    pub reexecutions: AtomicU64,
    /// Operations replayed from logs during re-execution.
    pub replayed_ops: AtomicU64,
    /// Intervals finalized (made definite).
    pub finalized_intervals: AtomicU64,
    /// Rollback messages that arrived for already-definite intervals
    /// (ignored; see DESIGN.md on the finalize commit point).
    pub late_rollbacks: AtomicU64,
    /// `affirm`/`deny` applied to already-final AIDs (the paper's "user
    /// error" aborts, reported instead of aborting).
    pub aid_contract_violations: AtomicU64,
    /// Dependencies discarded by Algorithm 2's UDO cycle detection.
    pub cycles_broken: AtomicU64,
    /// Deep copies of a shared `IDO` made by `Replace` handling: local
    /// bookkeeping work, which no message count shows. One per run of
    /// equal holders, not one per holder (E5b).
    pub ido_unshares: AtomicU64,
    /// AID processes garbage-collected by reference counting.
    pub aids_collected: AtomicU64,
    /// Crash recoveries performed: restarts that discarded speculative
    /// intervals and replayed the operation log to the definite frontier.
    pub crash_recoveries: AtomicU64,
    /// Doomed speculative intervals cancelled *before* they ran: stale
    /// tagged messages discarded pre-receive and guesses on known-denied
    /// AIDs short-circuited to `false` (DESIGN.md S8; every policy).
    pub cancelled_intervals: AtomicU64,
    /// Per-cause rollback attribution: which deny (or crash) wasted how
    /// much work. Charged at rollback time by the environment loop; only
    /// live (non-replayed) rollbacks charge, so crash recovery never
    /// double-counts.
    pub attribution: Mutex<RollbackAttribution>,
    /// The shared causal-trace collector every HOPElib, AID actor and
    /// runtime of one environment records into. Disabled by default;
    /// recording costs one relaxed atomic load until enabled.
    pub tracer: Arc<TraceCollector>,
}

/// A plain-value copy of [`HopeMetrics`] at one instant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// See [`HopeMetrics::guesses`].
    pub guesses: u64,
    /// See [`HopeMetrics::implicit_guesses`].
    pub implicit_guesses: u64,
    /// See [`HopeMetrics::affirms`].
    pub affirms: u64,
    /// See [`HopeMetrics::denies`].
    pub denies: u64,
    /// See [`HopeMetrics::free_ofs`].
    pub free_ofs: u64,
    /// See [`HopeMetrics::rollbacks`].
    pub rollbacks: u64,
    /// See [`HopeMetrics::reexecutions`].
    pub reexecutions: u64,
    /// See [`HopeMetrics::replayed_ops`].
    pub replayed_ops: u64,
    /// See [`HopeMetrics::finalized_intervals`].
    pub finalized_intervals: u64,
    /// See [`HopeMetrics::late_rollbacks`].
    pub late_rollbacks: u64,
    /// See [`HopeMetrics::aid_contract_violations`].
    pub aid_contract_violations: u64,
    /// See [`HopeMetrics::cycles_broken`].
    pub cycles_broken: u64,
    /// See [`HopeMetrics::ido_unshares`].
    pub ido_unshares: u64,
    /// See [`HopeMetrics::aids_collected`].
    pub aids_collected: u64,
    /// See [`HopeMetrics::crash_recoveries`].
    pub crash_recoveries: u64,
    /// See [`HopeMetrics::cancelled_intervals`].
    pub cancelled_intervals: u64,
    /// Interval records examined by the history queries of the
    /// environment's top-level user processes
    /// ([`History::visits`](crate::History::visits) summed): local
    /// bookkeeping work, which no message count shows. A plain count kept
    /// inside each history, so it is filled in by
    /// [`Env::metrics`](crate::Env::metrics) and run reports and reads 0
    /// in a bare [`HopeMetrics::snapshot`].
    pub history_visits: u64,
    /// See [`HopeMetrics::attribution`].
    pub attribution: RollbackAttribution,
}

impl HopeMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        HopeMetrics::default()
    }

    /// Adds `work` to the rollback-attribution totals charged to `cause`.
    pub fn charge_rollback(&self, cause: BlameKey, work: WastedWork) {
        self.attribution
            .lock()
            .expect("attribution lock poisoned")
            .charge(cause, work);
    }

    /// Copies the attribution table at one instant.
    pub fn attribution(&self) -> RollbackAttribution {
        self.attribution
            .lock()
            .expect("attribution lock poisoned")
            .clone()
    }

    /// Copies every counter at once.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            guesses: self.guesses.load(Ordering::Relaxed),
            implicit_guesses: self.implicit_guesses.load(Ordering::Relaxed),
            affirms: self.affirms.load(Ordering::Relaxed),
            denies: self.denies.load(Ordering::Relaxed),
            free_ofs: self.free_ofs.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            reexecutions: self.reexecutions.load(Ordering::Relaxed),
            replayed_ops: self.replayed_ops.load(Ordering::Relaxed),
            finalized_intervals: self.finalized_intervals.load(Ordering::Relaxed),
            late_rollbacks: self.late_rollbacks.load(Ordering::Relaxed),
            aid_contract_violations: self.aid_contract_violations.load(Ordering::Relaxed),
            cycles_broken: self.cycles_broken.load(Ordering::Relaxed),
            ido_unshares: self.ido_unshares.load(Ordering::Relaxed),
            aids_collected: self.aids_collected.load(Ordering::Relaxed),
            crash_recoveries: self.crash_recoveries.load(Ordering::Relaxed),
            cancelled_intervals: self.cancelled_intervals.load(Ordering::Relaxed),
            history_visits: 0,
            attribution: self.attribution(),
        }
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

    #[test]
    fn snapshot_reflects_counters() {
        let m = HopeMetrics::new();
        m.guesses.fetch_add(3, Ordering::Relaxed);
        m.rollbacks.fetch_add(1, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.guesses, 3);
        assert_eq!(s.rollbacks, 1);
        assert_eq!(s.affirms, 0);
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
