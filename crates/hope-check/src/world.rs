//! A steppable world: one [`HopeEnv`] driven through the runtime's
//! external scheduler hook, plus the read-only [`WorldView`] oracles
//! inspect after every step.

use hope_core::{AidMachine, HopeEnv, IntervalRecord, MetricsSnapshot};
use hope_runtime::{PendingEvent, RunReport};
use hope_sim::scenarios::{ledger_of, Ledger};
use hope_types::{AidId, ProcessId};

/// One environment under checker control. The checker never calls
/// [`HopeEnv::run`]; every event firing goes through [`RtWorld::step`], so
/// the full schedule is a sequence of explicit decisions.
pub struct RtWorld {
    env: HopeEnv,
    steps: u64,
}

/// A read-only snapshot of the protocol-visible state, assembled once per
/// step for the oracles. Building it locks every HOPElib briefly; the
/// worlds checked here are small (a handful of processes), so this is
/// cheap relative to the thread handoffs each step costs.
#[derive(Debug, Clone)]
pub struct WorldView {
    /// Steps taken so far in this schedule.
    pub steps: u64,
    /// Number of currently schedulable events (0 = terminal state).
    pub pending: usize,
    /// Runtime report snapshot (panics, blocked processes, clock).
    pub report: RunReport,
    /// HOPE algorithm counters.
    pub metrics: MetricsSnapshot,
    /// Interval history of every tracked user process.
    pub histories: Vec<(ProcessId, Vec<IntervalRecord>)>,
    /// Every live AID state machine.
    pub aids: Vec<(AidId, AidMachine)>,
    /// Tracked user processes with a rollback accepted but not yet
    /// executed by the user thread.
    pub rollbacks_pending: Vec<ProcessId>,
    /// What the scenario's processes have reported as committed so far,
    /// for scenarios that report to a [`Ledger`].
    pub ledger: Option<Ledger>,
}

impl RtWorld {
    /// Wraps a freshly built (un-run) environment.
    pub fn new(env: HopeEnv) -> Self {
        RtWorld { env, steps: 0 }
    }

    /// The currently schedulable events, sorted by `(time, tie)`.
    pub fn pending(&self) -> Vec<PendingEvent> {
        self.env.runtime().pending_events()
    }

    /// Fires the `n`-th pending event (an index into [`RtWorld::pending`]).
    /// Returns false if the index was stale.
    pub fn step(&mut self, n: usize) -> bool {
        let ok = self.env.runtime_mut().step_chosen(n);
        if ok {
            self.steps += 1;
        }
        ok
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Deterministic fingerprint of the protocol-visible state (see
    /// [`HopeEnv::state_hash`]).
    pub fn fingerprint(&self) -> u64 {
        self.env.state_hash()
    }

    /// Assembles the oracle view of the current state.
    pub fn view(&self) -> WorldView {
        let pending = self.env.runtime().pending_events().len();
        let histories = self
            .env
            .user_pids()
            .into_iter()
            .filter_map(|pid| Some((pid, self.env.history_of(pid)?)))
            .collect();
        let rollbacks_pending = self
            .env
            .user_pids()
            .into_iter()
            .filter(|&pid| matches!(self.env.pending_rollback_of(pid), Some(Some(_))))
            .collect();
        WorldView {
            steps: self.steps,
            pending,
            report: self.env.runtime().snapshot_report(),
            metrics: self.env.metrics(),
            histories,
            aids: self.env.aid_machines(),
            rollbacks_pending,
            ledger: ledger_of(&self.env),
        }
    }

    /// The wrapped environment.
    pub fn env(&self) -> &HopeEnv {
        &self.env
    }
}
