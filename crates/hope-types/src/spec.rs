//! Adaptive speculation control: the [`SpecPolicy`] configuration and the
//! deterministic fixed-point controller state ([`SpecController`]) each
//! HOPElib maintains from the rollback-attribution signal.
//!
//! The paper's optimism is unconditional: every `guess` eagerly returns
//! `true`, whatever the odds. Under high deny rates that turns throughput
//! into rollback churn. The controller closes the loop: every resolution a
//! process *observes* — a deny charged through the attribution path, an
//! affirm implied by one of its intervals finalizing — feeds a deny-rate
//! EWMA, kept both per assumption identifier and as a per-process
//! aggregate (AIDs are one-resolution, so a fresh AID has no history of
//! its own; the aggregate is what says "optimism has stopped paying for
//! this process"). When the EWMA crosses the configured threshold the
//! process enters the *pessimistic regime* for its guesses — it waits for
//! the definite value instead of speculating, the blocking discipline of
//! pessimistic transactional memory — and leaves it again once the EWMA
//! recovers below `threshold - hysteresis`.
//!
//! A policy governs *waiting* and nothing else. Acting on an assumption
//! already proven `False` — dropping a message tagged with it, answering
//! a guess of it with `false` — is not a policy matter: every process
//! does it under every policy (DESIGN.md S8). The controller only keeps
//! the count.
//!
//! All arithmetic is integer Q16 fixed point ([`SPEC_EWMA_ONE`] = 1.0) so
//! the simulated and threaded runtimes agree bit-for-bit per seed; no
//! float ever enters the hot path.

use std::collections::BTreeMap;
use std::fmt;

use crate::{AidId, HopeError};

/// Fixed-point scale of the controller: `1.0` in Q16.
pub const SPEC_EWMA_ONE: u32 = 1 << 16;

/// EWMA gain as a right shift: each observation moves the average by
/// `diff >> SPEC_EWMA_GAIN_SHIFT`, i.e. a gain of 1/8.
pub const SPEC_EWMA_GAIN_SHIFT: u32 = 3;

/// Per-AID stat entries kept before the oldest (lowest AID — creation
/// order) is evicted. AIDs are one-resolution, so old entries are dead
/// weight; the aggregate EWMA carries the long-term signal.
pub const SPEC_PER_AID_CAP: usize = 1024;

/// When (and whether) `guess` speculates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpecPolicy {
    /// The paper's behaviour: every guess eagerly returns `true` and
    /// nothing ever waits. The controller observes nothing.
    #[default]
    AlwaysOptimistic,
    /// Closed-loop throttling. Guesses are optimistic until the observed
    /// deny-rate EWMA (per AID or per process) reaches
    /// `deny_ewma_threshold`, pessimistic until it falls back to
    /// `deny_ewma_threshold - hysteresis`, and the unaffirmed guess-chain
    /// depth is capped at `max_depth` throughout.
    Adaptive {
        /// Q16 deny-rate at which optimism stops ([`SPEC_EWMA_ONE`] =
        /// every observation a deny). Must be in `(0, SPEC_EWMA_ONE)`.
        deny_ewma_threshold: u32,
        /// Maximum non-definite intervals a process may hold when opening
        /// a new explicit guess; further guesses wait. Must be ≥ 1. It
        /// counts rollback points: a receive the current interval already
        /// covers opens no interval and is not one (`hope-core`'s
        /// `History::covers`).
        max_depth: u32,
        /// Q16 width of the hysteresis band: optimism resumes only below
        /// `deny_ewma_threshold - hysteresis`, preventing regime flapping
        /// around the threshold. Must be < `deny_ewma_threshold`.
        hysteresis: u32,
    },
    /// Every guess waits for the definite value: no speculation at all.
    /// The wait-free property of `guess` is deliberately traded away.
    Pessimistic,
}

/// Converts a probability in `[0, 1]` to Q16, rejecting NaN/∞.
fn q16(name: &str, value: f64) -> Result<u32, HopeError> {
    if !value.is_finite() {
        return Err(HopeError::InvalidSpecPolicy(format!(
            "{name} must be finite, got {value}"
        )));
    }
    if !(0.0..=1.0).contains(&value) {
        return Err(HopeError::InvalidSpecPolicy(format!(
            "{name} must be in [0, 1], got {value}"
        )));
    }
    Ok((value * SPEC_EWMA_ONE as f64).round() as u32)
}

impl SpecPolicy {
    /// Builds an [`SpecPolicy::Adaptive`] policy from float rates,
    /// validating as it converts: `deny_rate_threshold` in `(0, 1)`,
    /// `max_depth >= 1`, `hysteresis` in `[0, deny_rate_threshold)`; NaN
    /// and ∞ are rejected.
    pub fn adaptive(
        deny_rate_threshold: f64,
        max_depth: u32,
        hysteresis: f64,
    ) -> Result<SpecPolicy, HopeError> {
        let policy = SpecPolicy::Adaptive {
            deny_ewma_threshold: q16("deny_rate_threshold", deny_rate_threshold)?,
            max_depth,
            hysteresis: q16("hysteresis", hysteresis)?,
        };
        policy.validate()?;
        Ok(policy)
    }

    /// Checks the policy's parameters, mirroring the `FaultPlan`
    /// validation precedent: reject up front what would otherwise be
    /// undefined throttling behaviour mid-run.
    pub fn validate(&self) -> Result<(), HopeError> {
        let SpecPolicy::Adaptive {
            deny_ewma_threshold,
            max_depth,
            hysteresis,
        } = *self
        else {
            return Ok(());
        };
        if deny_ewma_threshold == 0 || deny_ewma_threshold >= SPEC_EWMA_ONE {
            return Err(HopeError::InvalidSpecPolicy(format!(
                "deny_ewma_threshold must be in (0, {SPEC_EWMA_ONE}) (Q16, exclusive), \
                 got {deny_ewma_threshold}"
            )));
        }
        if max_depth == 0 {
            return Err(HopeError::InvalidSpecPolicy(
                "max_depth must be >= 1 (0 would forbid every guess forever)".into(),
            ));
        }
        if hysteresis >= deny_ewma_threshold {
            return Err(HopeError::InvalidSpecPolicy(format!(
                "hysteresis ({hysteresis}) must be smaller than deny_ewma_threshold \
                 ({deny_ewma_threshold}); an equal-or-wider band could never re-enable optimism"
            )));
        }
        Ok(())
    }

    /// The guess-chain depth cap, when the policy imposes one.
    pub fn max_depth(&self) -> Option<u32> {
        match *self {
            SpecPolicy::Adaptive { max_depth, .. } => Some(max_depth),
            _ => None,
        }
    }
}

impl fmt::Display for SpecPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SpecPolicy::AlwaysOptimistic => write!(f, "always-optimistic"),
            SpecPolicy::Adaptive {
                deny_ewma_threshold,
                max_depth,
                hysteresis,
            } => write!(
                f,
                "adaptive(threshold={deny_ewma_threshold}/{SPEC_EWMA_ONE}, \
                 max_depth={max_depth}, hysteresis={hysteresis}/{SPEC_EWMA_ONE})"
            ),
            SpecPolicy::Pessimistic => write!(f, "pessimistic"),
        }
    }
}

/// One Q16 EWMA step toward `sample`. Rounds away from the current value
/// (ceiling upward, floor downward) so the average converges *exactly* to
/// a sustained sample instead of parking `2^shift - 1` short of it.
pub fn ewma_step(ewma: u32, sample: u32) -> u32 {
    let diff = sample as i64 - ewma as i64;
    let step = if diff >= 0 {
        (diff + ((1 << SPEC_EWMA_GAIN_SHIFT) - 1)) >> SPEC_EWMA_GAIN_SHIFT
    } else {
        diff >> SPEC_EWMA_GAIN_SHIFT
    };
    (ewma as i64 + step) as u32
}

/// Deny-rate statistics for one key (one AID, or the process aggregate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpecStats {
    /// Q16 deny-rate EWMA (0 = always affirmed, [`SPEC_EWMA_ONE`] =
    /// always denied).
    pub ewma: u32,
    /// Deny observations folded in.
    pub denies: u64,
    /// Affirm observations folded in.
    pub affirms: u64,
    /// True while this key holds its guesses in the pessimistic regime.
    pub throttled: bool,
}

impl SpecStats {
    /// Folds one observation in and applies the hysteresis band; returns
    /// `Some(new_state)` when the throttle flipped.
    fn observe(&mut self, denied: bool, threshold_band: Option<(u32, u32)>) -> Option<bool> {
        if denied {
            self.denies += 1;
        } else {
            self.affirms += 1;
        }
        self.ewma = ewma_step(self.ewma, if denied { SPEC_EWMA_ONE } else { 0 });
        let (threshold, hysteresis) = threshold_band?;
        if !self.throttled && self.ewma >= threshold {
            self.throttled = true;
            Some(true)
        } else if self.throttled && self.ewma <= threshold.saturating_sub(hysteresis) {
            self.throttled = false;
            Some(false)
        } else {
            None
        }
    }
}

/// What one [`SpecController::observe`] call did, for tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecObservation {
    /// Post-observation EWMA of the observed AID.
    pub aid_ewma: u32,
    /// Post-observation EWMA of the process aggregate.
    pub process_ewma: u32,
    /// The observed AID's throttle flipped to this state.
    pub aid_flip: Option<bool>,
    /// The process aggregate's throttle flipped to this state.
    pub process_flip: Option<bool>,
}

/// Plain-value copy of a process's controller state at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpecSnapshot {
    /// Aggregate deny-rate EWMA of the process (Q16).
    pub process_ewma: u32,
    /// True while the process aggregate holds guesses pessimistic.
    pub process_throttled: bool,
    /// Deny observations (per-process total).
    pub denies: u64,
    /// Affirm observations (per-process total).
    pub affirms: u64,
    /// Throttle regime transitions, per-AID and aggregate combined.
    pub flips: u64,
    /// Doomed speculative work cancelled early by this process: stale
    /// tagged messages discarded before opening an interval, plus guesses
    /// on known-denied AIDs short-circuited to `false`. Counted under
    /// every policy.
    pub cancelled: u64,
    /// AIDs currently tracked in the per-AID table.
    pub tracked_aids: u64,
}

/// The per-process speculation controller: per-AID and aggregate deny-rate
/// EWMAs with hysteresis, plus the early-cancellation counter. Lives in
/// each HOPElib's `LibState`; all updates are integer-deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecController {
    policy: SpecPolicy,
    per_aid: BTreeMap<AidId, SpecStats>,
    process: SpecStats,
    flips: u64,
    cancelled: u64,
}

impl SpecController {
    /// A fresh controller (EWMAs at zero: optimism assumed to pay until
    /// observed otherwise).
    pub fn new(policy: SpecPolicy) -> Self {
        SpecController {
            policy,
            per_aid: BTreeMap::new(),
            process: SpecStats::default(),
            flips: 0,
            cancelled: 0,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> SpecPolicy {
        self.policy
    }

    /// True when the controller can ever make a guess wait — callers skip
    /// the deny-rate bookkeeping under [`SpecPolicy::AlwaysOptimistic`].
    pub fn is_active(&self) -> bool {
        self.policy != SpecPolicy::AlwaysOptimistic
    }

    fn band(&self) -> Option<(u32, u32)> {
        match self.policy {
            SpecPolicy::Adaptive {
                deny_ewma_threshold,
                hysteresis,
                ..
            } => Some((deny_ewma_threshold, hysteresis)),
            _ => None,
        }
    }

    /// Folds one observed resolution of `aid` into the per-AID and
    /// aggregate EWMAs, applying hysteresis to both.
    pub fn observe(&mut self, aid: AidId, denied: bool) -> SpecObservation {
        let band = self.band();
        let entry = self.per_aid.entry(aid).or_default();
        let aid_flip = entry.observe(denied, band);
        let aid_ewma = entry.ewma;
        if self.per_aid.len() > SPEC_PER_AID_CAP {
            self.per_aid.pop_first();
        }
        let process_flip = self.process.observe(denied, band);
        self.flips += aid_flip.is_some() as u64 + process_flip.is_some() as u64;
        SpecObservation {
            aid_ewma,
            process_ewma: self.process.ewma,
            aid_flip,
            process_flip,
        }
    }

    /// Whether a `guess(aid)` must take the pessimistic regime right now.
    pub fn is_throttled(&self, aid: AidId) -> bool {
        match self.policy {
            SpecPolicy::AlwaysOptimistic => false,
            SpecPolicy::Pessimistic => true,
            SpecPolicy::Adaptive { .. } => {
                self.process.throttled || self.per_aid.get(&aid).is_some_and(|s| s.throttled)
            }
        }
    }

    /// The depth cap, when the policy imposes one.
    pub fn max_depth(&self) -> Option<u32> {
        self.policy.max_depth()
    }

    /// Counts one early cancellation of doomed speculative work.
    pub fn count_cancelled(&mut self) {
        self.cancelled += 1;
    }

    /// Doomed work cancelled early by this process so far.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Per-AID stats, when `aid` is still tracked.
    pub fn aid_stats(&self, aid: AidId) -> Option<SpecStats> {
        self.per_aid.get(&aid).copied()
    }

    /// Plain-value snapshot for reports and cross-runtime comparisons.
    pub fn snapshot(&self) -> SpecSnapshot {
        SpecSnapshot {
            process_ewma: self.process.ewma,
            process_throttled: self.process.throttled,
            denies: self.process.denies,
            affirms: self.process.affirms,
            flips: self.flips,
            cancelled: self.cancelled,
            tracked_aids: self.per_aid.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessId;

    fn aid(n: u64) -> AidId {
        AidId::from_raw(ProcessId::from_raw(n))
    }

    #[test]
    fn ewma_converges_exactly_in_both_directions() {
        let mut e = 0;
        for _ in 0..200 {
            e = ewma_step(e, SPEC_EWMA_ONE);
        }
        assert_eq!(e, SPEC_EWMA_ONE, "sustained denies reach exactly 1.0");
        for _ in 0..200 {
            e = ewma_step(e, 0);
        }
        assert_eq!(e, 0, "sustained affirms reach exactly 0.0");
    }

    #[test]
    fn ewma_first_deny_moves_by_one_gain() {
        assert_eq!(
            ewma_step(0, SPEC_EWMA_ONE),
            SPEC_EWMA_ONE >> SPEC_EWMA_GAIN_SHIFT
        );
    }

    #[test]
    fn adaptive_constructor_validates() {
        assert!(SpecPolicy::adaptive(0.5, 4, 0.1).is_ok());
        for bad in [f64::NAN, f64::INFINITY, -0.1, 1.5] {
            assert!(matches!(
                SpecPolicy::adaptive(bad, 4, 0.1),
                Err(HopeError::InvalidSpecPolicy(_))
            ));
        }
        assert!(matches!(
            SpecPolicy::adaptive(0.0, 4, 0.0),
            Err(HopeError::InvalidSpecPolicy(_))
        ));
        assert!(matches!(
            SpecPolicy::adaptive(0.5, 0, 0.1),
            Err(HopeError::InvalidSpecPolicy(_))
        ));
        assert!(
            matches!(
                SpecPolicy::adaptive(0.5, 4, 0.5),
                Err(HopeError::InvalidSpecPolicy(_)),
            ),
            "hysteresis as wide as the threshold can never re-enable optimism"
        );
        assert!(matches!(
            SpecPolicy::adaptive(0.5, 4, f64::NAN),
            Err(HopeError::InvalidSpecPolicy(_))
        ));
    }

    #[test]
    fn validate_rejects_threshold_of_one() {
        let p = SpecPolicy::Adaptive {
            deny_ewma_threshold: SPEC_EWMA_ONE,
            max_depth: 1,
            hysteresis: 0,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn non_adaptive_policies_always_validate() {
        assert!(SpecPolicy::AlwaysOptimistic.validate().is_ok());
        assert!(SpecPolicy::Pessimistic.validate().is_ok());
        assert_eq!(SpecPolicy::AlwaysOptimistic.max_depth(), None);
        assert_eq!(SpecPolicy::Pessimistic.max_depth(), None);
    }

    #[test]
    fn hysteresis_gates_the_flip_back() {
        let policy = SpecPolicy::Adaptive {
            deny_ewma_threshold: SPEC_EWMA_ONE / 2,
            max_depth: 4,
            hysteresis: SPEC_EWMA_ONE / 4,
        };
        let mut c = SpecController::new(policy);
        let x = aid(1);
        assert!(!c.is_throttled(x));
        // Deny until the per-AID EWMA crosses 0.5.
        let mut flipped_on = 0;
        for _ in 0..10 {
            let obs = c.observe(x, true);
            if obs.aid_flip == Some(true) {
                flipped_on += 1;
            }
        }
        assert_eq!(flipped_on, 1, "one on-flip, no flapping");
        assert!(c.is_throttled(x));
        // One affirm leaves the EWMA inside the band: still throttled.
        c.observe(x, false);
        assert!(c.is_throttled(x), "hysteresis holds inside the band");
        // Affirm until below threshold - hysteresis (0.25).
        for _ in 0..10 {
            c.observe(x, false);
        }
        assert!(!c.is_throttled(x));
        let snap = c.snapshot();
        assert!(snap.flips >= 2, "on and off transitions counted");
    }

    #[test]
    fn process_aggregate_throttles_fresh_aids() {
        let policy = SpecPolicy::adaptive(0.5, 4, 0.1).unwrap();
        let mut c = SpecController::new(policy);
        // Each round a *different* AID is denied: no single AID ever
        // accumulates history, but the aggregate does.
        for n in 0..10 {
            c.observe(aid(n), true);
        }
        let fresh = aid(999);
        assert!(
            c.is_throttled(fresh),
            "aggregate EWMA throttles an AID never seen before"
        );
    }

    #[test]
    fn pessimistic_throttles_and_optimistic_never_does() {
        let mut p = SpecController::new(SpecPolicy::Pessimistic);
        assert!(p.is_throttled(aid(1)));
        let mut o = SpecController::new(SpecPolicy::AlwaysOptimistic);
        assert!(!o.is_throttled(aid(1)));
        assert!(!o.is_active());
        assert!(p.is_active());
        // Observations never flip them.
        for _ in 0..20 {
            o.observe(aid(1), true);
            p.observe(aid(1), false);
        }
        assert!(!o.is_throttled(aid(1)));
        assert!(p.is_throttled(aid(1)));
    }

    #[test]
    fn per_aid_table_is_capped() {
        let mut c = SpecController::new(SpecPolicy::adaptive(0.9, 4, 0.0).unwrap());
        for n in 0..(SPEC_PER_AID_CAP as u64 + 100) {
            c.observe(aid(n), false);
        }
        assert_eq!(c.snapshot().tracked_aids, SPEC_PER_AID_CAP as u64);
        assert!(c.aid_stats(aid(0)).is_none(), "oldest entries evicted");
        assert!(c.aid_stats(aid(SPEC_PER_AID_CAP as u64 + 50)).is_some());
    }

    #[test]
    fn observation_is_deterministic() {
        let policy = SpecPolicy::adaptive(0.4, 2, 0.05).unwrap();
        let run = || {
            let mut c = SpecController::new(policy);
            let mut trajectory = Vec::new();
            for n in 0..64u64 {
                let obs = c.observe(aid(n % 7), n % 3 == 0);
                trajectory.push((
                    obs.aid_ewma,
                    obs.process_ewma,
                    obs.aid_flip,
                    obs.process_flip,
                ));
            }
            (trajectory, c.snapshot())
        };
        assert_eq!(run(), run(), "bit-identical across runs");
    }

    #[test]
    fn display_names_the_regime() {
        assert_eq!(
            SpecPolicy::AlwaysOptimistic.to_string(),
            "always-optimistic"
        );
        assert_eq!(SpecPolicy::Pessimistic.to_string(), "pessimistic");
        let a = SpecPolicy::adaptive(0.5, 3, 0.1).unwrap();
        assert!(a.to_string().contains("max_depth=3"));
    }
}
