//! Fault injection: seeded, deterministic message-, process- and
//! storage-level failures.
//!
//! The paper assumes PVM's lossless FIFO links (DESIGN.md S1), so the
//! happy-path runtimes never lose a message. A [`FaultPlan`] makes the
//! substrate adversarial on purpose: each wire transit can be dropped or
//! duplicated with configured probabilities, processes can crash at
//! scheduled virtual times and restart after a down window, and — when a
//! durable op-log store is attached (DESIGN.md S6) — each crash can
//! additionally mangle the store's unsynced tail via a
//! [`StorageFaultPlan`] (torn final record, lost fsync window, bit
//! flip). Like [`NetworkConfig`](crate::NetworkConfig), the plan is
//! declarative and seeded — the same plan and seed produce bit-identical
//! fault schedules, so chaos runs are replayable.
//!
//! Configuring a fault plan automatically enables the reliable-delivery
//! sublayer (see `reliable`), which restores the lossless FIFO contract
//! the HOPE protocol needs on top of the now-lossy wire.
//!
//! Plans are validated by the runtime builders ([`FaultPlan::validate`]):
//! NaN or out-of-range rates and overlapping crash windows for the same
//! process are rejected with a typed
//! [`HopeError::InvalidFaultPlan`](hope_types::HopeError) instead of
//! producing undefined seeded behaviour mid-run.

use std::collections::BTreeMap;

use hope_types::{HopeError, ProcessId, VirtualDuration, VirtualTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A scheduled crash of one process: at `at`, the process's links go dead
/// (every delivery to it is dropped and nothing is acknowledged); at
/// `at + down_for` it restarts and its HOPElib recovers by replaying the
/// operation log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The process to crash (by spawn order, which is deterministic).
    pub pid: ProcessId,
    /// Virtual time of the crash.
    pub at: VirtualTime,
    /// How long the process stays down before restarting.
    pub down_for: VirtualDuration,
}

/// Per-crash storage fault probabilities for processes with a durable
/// op-log store attached. At each crash one outcome is drawn: tear the
/// final record, lose the whole unsynced fsync window, flip one bit in
/// the tail, or (remaining probability) leave the image intact. The
/// draws are seeded per process, so a run's storage faults replay
/// bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StorageFaultPlan {
    torn_final_record: f64,
    lost_sync_window: f64,
    bit_flip: f64,
    seed: Option<u64>,
}

impl StorageFaultPlan {
    /// No storage faults; a base for builder chains.
    pub fn new() -> Self {
        StorageFaultPlan::default()
    }

    /// Probability that a crash tears the final unsynced record mid-frame.
    pub fn torn_final_record(mut self, rate: f64) -> Self {
        self.torn_final_record = rate;
        self
    }

    /// Probability that a crash loses the entire unsynced fsync window.
    pub fn lost_sync_window(mut self, rate: f64) -> Self {
        self.lost_sync_window = rate;
        self
    }

    /// Probability that a crash flips one bit in the unsynced tail.
    pub fn bit_flip(mut self, rate: f64) -> Self {
        self.bit_flip = rate;
        self
    }

    /// Seed for the per-process storage fault draws. Defaults to the
    /// runtime seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// The configured torn-final-record rate.
    pub fn torn_rate(&self) -> f64 {
        self.torn_final_record
    }

    /// The configured lost-sync-window rate.
    pub fn lost_sync_rate(&self) -> f64 {
        self.lost_sync_window
    }

    /// The configured bit-flip rate.
    pub fn bit_flip_rate(&self) -> f64 {
        self.bit_flip
    }

    /// The pinned seed, if any.
    pub fn pinned_seed(&self) -> Option<u64> {
        self.seed
    }

    fn validate(&self) -> Result<(), HopeError> {
        for (name, rate) in [
            ("torn_final_record", self.torn_final_record),
            ("lost_sync_window", self.lost_sync_window),
            ("bit_flip", self.bit_flip),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(HopeError::InvalidFaultPlan(format!(
                    "storage {name} rate must be in [0, 1], got {rate}"
                )));
            }
        }
        let total = self.torn_final_record + self.lost_sync_window + self.bit_flip;
        if !(0.0..=1.0).contains(&total) {
            return Err(HopeError::InvalidFaultPlan(format!(
                "storage fault rates must sum to at most 1, got {total}"
            )));
        }
        Ok(())
    }
}

/// Declarative fault configuration, converted into a runnable
/// [`FaultModel`] by the runtime builders.
///
/// # Examples
///
/// ```
/// use hope_runtime::FaultPlan;
/// use hope_types::{ProcessId, VirtualDuration, VirtualTime};
///
/// let plan = FaultPlan::new()
///     .drop_rate(0.15)
///     .duplicate_rate(0.05)
///     .crash(
///         ProcessId::from_raw(2),
///         VirtualTime::from_nanos(5_000_000),
///         VirtualDuration::from_millis(20),
///     );
/// assert_eq!(plan.crashes().len(), 1);
/// assert!(plan.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    drop_rate: f64,
    duplicate_rate: f64,
    seed: Option<u64>,
    crashes: Vec<CrashPoint>,
    storage: Option<StorageFaultPlan>,
    rto: VirtualDuration,
    max_retransmits: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            seed: None,
            crashes: Vec::new(),
            storage: None,
            rto: VirtualDuration::from_millis(5),
            max_retransmits: 32,
        }
    }
}

impl FaultPlan {
    /// An empty plan: no drops, no duplicates, no crashes. Useful as a
    /// base for builder chains, and to force the reliable sublayer on
    /// without injecting any faults.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Probability in `[0, 1)` that any single wire transit is dropped.
    /// Applies to retransmissions and acknowledgements too. A rate of
    /// 1.0 is rejected by [`validate`](FaultPlan::validate) — it would
    /// make the retransmit loop unable to ever succeed.
    pub fn drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Probability in `[0, 1)` that a transit is delivered twice (with
    /// independent latencies, so the copies can arrive out of order).
    pub fn duplicate_rate(mut self, rate: f64) -> Self {
        self.duplicate_rate = rate;
        self
    }

    /// Seed for the fault RNG. Defaults to the runtime seed, so one seed
    /// reproduces the whole run including its faults.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Schedules a crash/restart of `pid` (see [`CrashPoint`]).
    pub fn crash(mut self, pid: ProcessId, at: VirtualTime, down_for: VirtualDuration) -> Self {
        self.crashes.push(CrashPoint { pid, at, down_for });
        self
    }

    /// Attaches storage fault probabilities applied at each crash of a
    /// process with a durable op-log store (see [`StorageFaultPlan`]).
    pub fn storage(mut self, storage: StorageFaultPlan) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Base retransmission timeout for the reliable sublayer. This seeds
    /// the per-link Jacobson/Karels estimator (see `reliable`): links
    /// start here, then adapt to measured round-trip times within
    /// clamped bounds. Default 5 ms of virtual time.
    pub fn rto(mut self, rto: VirtualDuration) -> Self {
        self.rto = rto;
        self
    }

    /// Retransmission attempts before a send is abandoned (counted in
    /// [`MessageStats`](crate::MessageStats) as a lost message). High by
    /// default (32) because exponential backoff makes late attempts cheap.
    pub fn max_retransmits(mut self, max: u32) -> Self {
        self.max_retransmits = max;
        self
    }

    /// The scheduled crashes.
    pub fn crashes(&self) -> &[CrashPoint] {
        &self.crashes
    }

    /// The storage fault probabilities, if configured.
    pub fn storage_plan(&self) -> Option<&StorageFaultPlan> {
        self.storage.as_ref()
    }

    /// The configured base retransmission timeout.
    pub fn retransmit_timeout(&self) -> VirtualDuration {
        self.rto
    }

    /// The configured retransmission attempt cap.
    pub fn retransmit_cap(&self) -> u32 {
        self.max_retransmits
    }

    /// The pinned fault-RNG seed, if [`seed`](FaultPlan::seed) was called.
    /// Runtimes that run several fault models (one per shard) use this as
    /// the base they mix per-shard salts into, so a pinned seed stays
    /// reproducible without correlating the shards' decision streams.
    pub fn pinned_seed(&self) -> Option<u64> {
        self.seed
    }

    /// Checks the plan for configurations with no sane runtime meaning.
    /// The runtime builders call this and refuse invalid plans; callers
    /// constructing plans from untrusted input can check ahead of time.
    ///
    /// Rejected: NaN or out-of-`[0, 1)` drop/duplicate rates, NaN or
    /// out-of-range storage fault rates (or rates summing past 1), a
    /// non-positive retransmission timeout, and overlapping
    /// [`CrashPoint`] windows for the same process (a process cannot
    /// crash while already down).
    pub fn validate(&self) -> Result<(), HopeError> {
        for (name, rate) in [("drop", self.drop_rate), ("duplicate", self.duplicate_rate)] {
            if !(0.0..1.0).contains(&rate) {
                return Err(HopeError::InvalidFaultPlan(format!(
                    "{name} rate must be in [0, 1), got {rate}"
                )));
            }
        }
        if self.rto <= VirtualDuration::ZERO {
            return Err(HopeError::InvalidFaultPlan(
                "retransmission timeout must be positive".into(),
            ));
        }
        if let Some(storage) = &self.storage {
            storage.validate()?;
        }
        let mut by_pid: BTreeMap<u64, Vec<(VirtualTime, VirtualTime)>> = BTreeMap::new();
        for c in &self.crashes {
            by_pid
                .entry(c.pid.as_raw())
                .or_default()
                .push((c.at, c.at + c.down_for));
        }
        for (pid, mut windows) in by_pid {
            windows.sort();
            for pair in windows.windows(2) {
                let (prev, next) = (pair[0], pair[1]);
                if next.0 < prev.1 {
                    return Err(HopeError::InvalidFaultPlan(format!(
                        "overlapping crash windows for P{pid}: [{}, {}) and [{}, {})",
                        prev.0, prev.1, next.0, next.1
                    )));
                }
            }
        }
        Ok(())
    }

    /// Builds the runnable model. `default_seed` (the runtime seed) is
    /// used unless the plan pinned its own seed.
    pub fn into_model(self, default_seed: u64) -> FaultModel {
        let seed = self.seed.unwrap_or(default_seed);
        FaultModel {
            rng: StdRng::seed_from_u64(seed ^ 0x6661_756c_7473_2121),
            plan: self,
        }
    }
}

/// What the fault model decided for one wire transit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFate {
    /// Deliver the message at all?
    pub deliver: bool,
    /// Deliver a second, independently delayed copy?
    pub duplicate: bool,
}

impl WireFate {
    /// The fate on a fault-free wire.
    pub const CLEAN: WireFate = WireFate {
        deliver: true,
        duplicate: false,
    };
}

/// Runnable fault state: the plan plus its seeded RNG. One instance per
/// scheduler, consulted once per wire transit, in deterministic order.
#[derive(Debug)]
pub struct FaultModel {
    rng: StdRng,
    plan: FaultPlan,
}

impl FaultModel {
    /// Decides the fate of one wire transit. Always draws exactly two
    /// samples, so the decision stream depends only on the number of
    /// prior transits — not on their outcomes.
    pub fn wire_fate(&mut self) -> WireFate {
        let drop_draw = self.rng.next_u64() as f64 / u64::MAX as f64;
        let dup_draw = self.rng.next_u64() as f64 / u64::MAX as f64;
        WireFate {
            deliver: drop_draw >= self.plan.drop_rate,
            duplicate: dup_draw < self.plan.duplicate_rate,
        }
    }

    /// The plan this model was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let plan = FaultPlan::new().drop_rate(0.3).duplicate_rate(0.2);
        let mut a = plan.clone().into_model(99);
        let mut b = plan.into_model(99);
        for _ in 0..500 {
            assert_eq!(a.wire_fate(), b.wire_fate());
        }
    }

    #[test]
    fn plan_seed_overrides_runtime_seed() {
        let plan = FaultPlan::new().drop_rate(0.5).seed(7);
        let mut a = plan.clone().into_model(1);
        let mut b = plan.into_model(2);
        for _ in 0..100 {
            assert_eq!(a.wire_fate(), b.wire_fate());
        }
    }

    #[test]
    fn zero_rates_are_clean() {
        let mut m = FaultPlan::new().into_model(3);
        for _ in 0..100 {
            assert_eq!(m.wire_fate(), WireFate::CLEAN);
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let mut m = FaultPlan::new().drop_rate(0.25).into_model(42);
        let dropped = (0..10_000).filter(|_| !m.wire_fate().deliver).count();
        assert!(
            (2_000..3_000).contains(&dropped),
            "≈25% of 10k transits should drop, got {dropped}"
        );
    }

    #[test]
    fn rejects_certain_loss() {
        let err = FaultPlan::new().drop_rate(1.0).validate().unwrap_err();
        assert!(matches!(err, HopeError::InvalidFaultPlan(_)));
        assert!(err.to_string().contains("drop rate"));
    }

    #[test]
    fn rejects_nan_rates() {
        for plan in [
            FaultPlan::new().drop_rate(f64::NAN),
            FaultPlan::new().duplicate_rate(f64::NAN),
            FaultPlan::new().storage(StorageFaultPlan::new().bit_flip(f64::NAN)),
        ] {
            let err = plan.validate().unwrap_err();
            assert!(matches!(err, HopeError::InvalidFaultPlan(_)), "{err}");
        }
    }

    #[test]
    fn rejects_storage_rates_summing_past_one() {
        let plan = FaultPlan::new().storage(
            StorageFaultPlan::new()
                .torn_final_record(0.5)
                .lost_sync_window(0.4)
                .bit_flip(0.3),
        );
        let err = plan.validate().unwrap_err();
        assert!(err.to_string().contains("sum"));
    }

    #[test]
    fn rejects_overlapping_crash_windows_same_pid() {
        let plan = FaultPlan::new()
            .crash(
                p(1),
                VirtualTime::from_nanos(10),
                VirtualDuration::from_nanos(20),
            )
            .crash(
                p(1),
                VirtualTime::from_nanos(25),
                VirtualDuration::from_nanos(5),
            );
        let err = plan.validate().unwrap_err();
        assert!(matches!(err, HopeError::InvalidFaultPlan(_)));
        assert!(err.to_string().contains("overlapping"), "{err}");
    }

    #[test]
    fn accepts_adjacent_windows_and_other_pids() {
        // Back-to-back windows ([10, 30) then [30, …)) and a window for a
        // different process overlapping in time are both fine.
        let plan = FaultPlan::new()
            .crash(
                p(1),
                VirtualTime::from_nanos(10),
                VirtualDuration::from_nanos(20),
            )
            .crash(
                p(1),
                VirtualTime::from_nanos(30),
                VirtualDuration::from_nanos(5),
            )
            .crash(
                p(2),
                VirtualTime::from_nanos(15),
                VirtualDuration::from_nanos(50),
            );
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn rejects_zero_rto() {
        let err = FaultPlan::new()
            .rto(VirtualDuration::ZERO)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("timeout"));
    }

    #[test]
    fn storage_draw_rates_are_accessible() {
        let s = StorageFaultPlan::new()
            .torn_final_record(0.3)
            .lost_sync_window(0.2)
            .bit_flip(0.1)
            .seed(5);
        assert_eq!(s.torn_rate(), 0.3);
        assert_eq!(s.lost_sync_rate(), 0.2);
        assert_eq!(s.bit_flip_rate(), 0.1);
        assert_eq!(s.pinned_seed(), Some(5));
    }

    #[test]
    fn crash_points_recorded_in_order() {
        let plan = FaultPlan::new()
            .crash(
                p(1),
                VirtualTime::from_nanos(10),
                VirtualDuration::from_nanos(5),
            )
            .crash(
                p(2),
                VirtualTime::from_nanos(20),
                VirtualDuration::from_nanos(5),
            );
        assert_eq!(plan.crashes()[0].pid, p(1));
        assert_eq!(plan.crashes()[1].at, VirtualTime::from_nanos(20));
    }
}
