//! # hope-check — a schedule-exploring model checker for HOPE
//!
//! The paper argues Lemma 5.1 "by a construction that exhaustively shows"
//! that every conflict between concurrent affirms resolves, and Theorem 5.3
//! rests on considering all delivery orders. This crate mechanizes that
//! argument against the **real** stack: scenarios are ordinary
//! [`HopeEnv`](hope_core::HopeEnv) environments, and the checker drives the
//! runtime through its external scheduler hook
//! ([`SimRuntime::pending_events`](hope_runtime::SimRuntime::pending_events)
//! / [`step_chosen`](hope_runtime::SimRuntime::step_chosen)) so *every*
//! nondeterministic choice is a checker decision.
//!
//! Pieces:
//!
//! * [`world`] — wraps an environment as a steppable, fingerprintable
//!   world; a schedule is a list of decisions taken at branch points.
//! * [`oracle`] — invariant oracles checked after every step and at every
//!   terminal state: Theorem 5.1 safety, Algorithm 2 convergence,
//!   wait-freedom step bounds, crash-recovery equivalence, and committed
//!   outcomes equal to the never-speculating run's.
//! * [`explore`] — bounded exhaustive DFS over delivery orders with
//!   state-hash deduplication, on-path cycle detection (the §5.3 livelock
//!   witness) and a sleep-set-style reduction for commuting deliveries.
//! * [`random`] — seeded random walks for depths DFS cannot reach.
//! * [`shrink`] — greedy delta debugging reducing a violating schedule to
//!   a minimal replayable decision list.
//! * [`proto`] — a protocol-level exhaustive engine over the real
//!   [`LibState`](hope_core::LibState) and
//!   [`AidMachine`](hope_core::AidMachine) (no runtime, no threads), used
//!   to cross-check reachable-state counts against the model-based test
//!   in `hope-core/tests/exhaustive_interleavings.rs`.
//!
//! The `hope-check` binary packages fixed-budget suites for CI; see
//! EXPERIMENTS.md §E-check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod oracle;
pub mod proto;
pub mod random;
pub mod shrink;
pub mod world;

pub use explore::{dfs, Counterexample, DfsConfig, DfsReport};
pub use oracle::{
    CommittedOutcomeOracle, ConvergenceOracle, CrashRecoveryOracle, DemoOrderOracle, Oracle,
    SafetyOracle, Violation, WaitFreedomOracle,
};
pub use random::{random_walk, WalkConfig, WalkReport};
pub use shrink::{shrink, ShrinkReport};
pub use world::{RtWorld, WorldView};

/// A scenario builder. Checkers re-create the environment from scratch for
/// every schedule (stateless exploration), so scenarios must be pure
/// functions of their configuration.
pub type Builder<'a> = &'a dyn Fn() -> hope_core::HopeEnv;
