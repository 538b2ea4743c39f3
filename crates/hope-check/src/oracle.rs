//! Invariant oracles: predicates over [`WorldView`]s checked after every
//! step and at every terminal (quiescent) state of a schedule.
//!
//! The built-ins cover the paper's central claims:
//!
//! * [`SafetyOracle`] — Theorem 5.1: no definite interval depends on a
//!   denied assumption.
//! * [`ConvergenceOracle`] — Algorithm 2 / Theorem 5.3: every terminal
//!   state of a well-formed workload is fully finalized.
//! * [`WaitFreedomOracle`] — §5's wait-free criterion, as a per-schedule
//!   step bound: a livelocking protocol exceeds any bound.
//! * [`CrashRecoveryOracle`] — §4.3 recovery: a crash/replay cycle must
//!   preserve the definite frontier that existed when the crash fired.
//! * [`CommittedOutcomeOracle`] — reversibility: what a scenario reports
//!   as committed equals what it reports when it never speculates.
//! * [`DemoOrderOracle`] — *intentionally broken*, asserting a property
//!   the protocol never promises; used to exercise the shrinker.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use hope_core::{AidState, HopeEnv};
use hope_runtime::{EventDesc, PendingEvent};
use hope_sim::scenarios::ledger_of;
use hope_types::{AidId, IntervalId, ProcessId};

use crate::world::WorldView;

/// A violated invariant: which oracle fired and a human-readable account.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Name of the oracle that fired.
    pub oracle: &'static str,
    /// What went wrong, with enough identifiers to debug a replay.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// An invariant checked along every explored schedule. Oracles are stateful
/// (e.g. [`CrashRecoveryOracle`] remembers pre-crash frontiers) and are
/// [`reset`](Oracle::reset) at the start of each schedule replay.
pub trait Oracle {
    /// Short stable name, used in violation reports.
    fn name(&self) -> &'static str;

    /// Called at the start of every schedule, before any step.
    fn reset(&mut self) {}

    /// Called immediately *before* `event` fires, with the view of the
    /// state it fires in.
    fn on_event(&mut self, event: &PendingEvent, view: &WorldView) {
        let _ = (event, view);
    }

    /// Checked after every step.
    fn check_step(&mut self, view: &WorldView) -> Result<(), Violation> {
        let _ = view;
        Ok(())
    }

    /// Checked once the schedule reaches a terminal (no schedulable
    /// events) state.
    fn check_terminal(&mut self, view: &WorldView) -> Result<(), Violation>;
}

fn violation(oracle: &'static str, detail: String) -> Violation {
    Violation { oracle, detail }
}

/// Theorem 5.1 safety: once an interval is definite (its effects are
/// released to the world), no assumption it was triggered by may resolve
/// `False`. AIDs with recorded contract violations are exempt — a
/// conflicting affirm+deny means the *user program* broke the
/// one-resolution contract the theorem presumes.
#[derive(Debug, Default)]
pub struct SafetyOracle;

impl SafetyOracle {
    fn scan(&self, view: &WorldView) -> Result<(), Violation> {
        let denied: BTreeSet<AidId> = view
            .aids
            .iter()
            .filter(|(_, m)| m.state() == AidState::False && m.contract_violations() == 0)
            .map(|(a, _)| *a)
            .collect();
        if denied.is_empty() {
            return Ok(());
        }
        for (pid, history) in &view.histories {
            for rec in history {
                if !rec.definite {
                    continue;
                }
                if let Some(bad) = rec.trigger.iter().find(|a| denied.contains(a)) {
                    return Err(violation(
                        self.name(),
                        format!(
                            "definite interval {:?} of process {} was triggered by \
                             denied AID {:?}",
                            rec.id, pid, bad
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Oracle for SafetyOracle {
    fn name(&self) -> &'static str {
        "safety-5.1"
    }

    fn check_step(&mut self, view: &WorldView) -> Result<(), Violation> {
        self.scan(view)
    }

    fn check_terminal(&mut self, view: &WorldView) -> Result<(), Violation> {
        self.scan(view)
    }
}

/// Algorithm 2 convergence: a terminal state of a well-formed workload has
/// no panics, no process still blocked in `receive`, no pending rollback,
/// and every interval finalized. Only sound for scenarios where no message
/// can be lost for good (no crash windows), hence not used on chaos
/// scenarios.
#[derive(Debug, Default)]
pub struct ConvergenceOracle;

impl Oracle for ConvergenceOracle {
    fn name(&self) -> &'static str {
        "convergence-alg2"
    }

    fn check_terminal(&mut self, view: &WorldView) -> Result<(), Violation> {
        if let Some((pid, msg)) = view.report.panics.first() {
            return Err(violation(
                self.name(),
                format!("process {pid} panicked: {msg}"),
            ));
        }
        if let Some((pid, name)) = view.report.blocked.first() {
            return Err(violation(
                self.name(),
                format!("terminal state leaves {name} ({pid}) blocked in receive"),
            ));
        }
        if let Some(pid) = view.rollbacks_pending.first() {
            return Err(violation(
                self.name(),
                format!("terminal state leaves process {pid} with an unexecuted rollback"),
            ));
        }
        for (pid, history) in &view.histories {
            if let Some(rec) = history.iter().find(|r| !r.definite) {
                return Err(violation(
                    self.name(),
                    format!(
                        "terminal state leaves interval {:?} of process {} speculative \
                         (ido = {:?})",
                        rec.id, pid, rec.ido
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Wait-freedom as a step bound: every schedule of the scenario must
/// quiesce within `max_steps` events. Under Algorithm 1 the mutual-affirm
/// ring recirculates Replace messages forever, so any bound is eventually
/// exceeded; under Algorithm 2 the bound certifies progress.
#[derive(Debug)]
pub struct WaitFreedomOracle {
    /// Maximum events a single schedule may fire.
    pub max_steps: u64,
}

impl Oracle for WaitFreedomOracle {
    fn name(&self) -> &'static str {
        "wait-freedom"
    }

    fn check_step(&mut self, view: &WorldView) -> Result<(), Violation> {
        if view.steps > self.max_steps {
            return Err(violation(
                self.name(),
                format!(
                    "schedule exceeded {} steps without quiescing ({} events pending)",
                    self.max_steps, view.pending
                ),
            ));
        }
        Ok(())
    }

    fn check_terminal(&mut self, _view: &WorldView) -> Result<(), Violation> {
        Ok(())
    }
}

/// Crash-recovery equivalence: when a crash fires, the victim's definite
/// intervals are the state the paper's §4.3 recovery must reproduce.
/// At the terminal state, every such interval must still exist and still
/// be definite — replay may extend the history but never contradict the
/// pre-crash definite frontier.
#[derive(Debug, Default)]
pub struct CrashRecoveryOracle {
    frontiers: BTreeMap<ProcessId, BTreeSet<IntervalId>>,
}

impl Oracle for CrashRecoveryOracle {
    fn name(&self) -> &'static str {
        "crash-recovery"
    }

    fn reset(&mut self) {
        self.frontiers.clear();
    }

    fn on_event(&mut self, event: &PendingEvent, view: &WorldView) {
        let EventDesc::Crash(pid) = event.desc else {
            return;
        };
        let Some((_, history)) = view.histories.iter().find(|(p, _)| *p == pid) else {
            return;
        };
        // A crash can fire before the victim's thread ever ran, while its
        // HOPElib still holds the unbound placeholder history; only
        // intervals actually owned by the process count as its frontier.
        let definite: BTreeSet<IntervalId> = history
            .iter()
            .filter(|r| r.definite && r.id.process() == pid)
            .map(|r| r.id)
            .collect();
        // Later crashes of the same process extend (never shrink) the
        // recorded frontier: definiteness is monotone.
        self.frontiers.entry(pid).or_default().extend(definite);
    }

    fn check_terminal(&mut self, view: &WorldView) -> Result<(), Violation> {
        for (pid, frontier) in &self.frontiers {
            let Some((_, history)) = view.histories.iter().find(|(p, _)| p == pid) else {
                return Err(violation(
                    self.name(),
                    format!("crashed process {pid} is no longer tracked"),
                ));
            };
            for iid in frontier {
                match history.iter().find(|r| r.id == *iid) {
                    Some(rec) if rec.definite => {}
                    Some(_) => {
                        return Err(violation(
                            self.name(),
                            format!(
                                "interval {iid:?} of {pid} was definite before the crash \
                                 but speculative after recovery"
                            ),
                        ));
                    }
                    None => {
                        return Err(violation(
                            self.name(),
                            format!(
                                "interval {iid:?} of {pid} was definite before the crash \
                                 but missing after recovery"
                            ),
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Reversibility (Theorem 5.1 read as causal consistency): speculate,
/// deny and re-execute in any order, and what the scenario's processes
/// report to the outside world — its `Ledger` — is what the same program
/// reports under a policy that never runs ahead. Reports must come from
/// definite state, so one that carries a dependency tag is a violation at
/// the step it arrives.
#[derive(Debug)]
pub struct CommittedOutcomeOracle {
    reference: Vec<(u32, Bytes)>,
}

impl CommittedOutcomeOracle {
    /// Takes the reference outcome from `env` — the scenario built under
    /// the never-speculating policy — by running it in default order.
    pub fn from_reference(mut env: HopeEnv) -> Self {
        let report = env.run();
        assert!(report.is_clean(), "{:?}", report.run.panics);
        let ledger = ledger_of(&env).expect("a reference scenario reports to a ledger");
        assert!(!ledger.tainted(), "the reference reported speculatively");
        CommittedOutcomeOracle {
            reference: ledger.committed().to_vec(),
        }
    }
}

impl Oracle for CommittedOutcomeOracle {
    fn name(&self) -> &'static str {
        "committed-outcome"
    }

    fn check_step(&mut self, view: &WorldView) -> Result<(), Violation> {
        if view.ledger.as_ref().is_some_and(|ledger| ledger.tainted()) {
            return Err(violation(
                self.name(),
                "a process reported an outcome from a speculative interval".into(),
            ));
        }
        Ok(())
    }

    fn check_terminal(&mut self, view: &WorldView) -> Result<(), Violation> {
        let committed = view.ledger.as_ref().map(|l| l.committed());
        if committed == Some(&self.reference[..]) {
            return Ok(());
        }
        Err(violation(
            self.name(),
            format!(
                "committed {committed:?}, but without speculation the program commits {:?}",
                self.reference
            ),
        ))
    }
}

/// **Intentionally broken** oracle for shrinker demonstrations: claims the
/// lowest-numbered AID always resolves first. The protocol promises no
/// such order, so some — but not all — schedules violate it, which makes
/// the violating decision lists interesting to shrink.
#[derive(Debug, Default)]
pub struct DemoOrderOracle;

impl DemoOrderOracle {
    fn scan(&self, view: &WorldView) -> Result<(), Violation> {
        let lowest = view.aids.iter().map(|(a, _)| *a).min();
        let Some(lowest) = lowest else { return Ok(()) };
        let lowest_final = view
            .aids
            .iter()
            .any(|(a, m)| *a == lowest && m.state().is_final());
        if lowest_final {
            return Ok(());
        }
        if let Some((a, m)) = view.aids.iter().find(|(_, m)| m.state().is_final()) {
            return Err(violation(
                self.name(),
                format!(
                    "AID {:?} resolved {} before lowest AID {:?} resolved \
                     (a property HOPE never promises — this oracle is a demo)",
                    a,
                    m.state(),
                    lowest
                ),
            ));
        }
        Ok(())
    }
}

impl Oracle for DemoOrderOracle {
    fn name(&self) -> &'static str {
        "demo-lowest-aid-first"
    }

    fn check_step(&mut self, view: &WorldView) -> Result<(), Violation> {
        self.scan(view)
    }

    fn check_terminal(&mut self, view: &WorldView) -> Result<(), Violation> {
        self.scan(view)
    }
}
