//! End-to-end tests of the schedule explorer against the real runtime:
//! the 2-ring converges under every delivery order (Theorem 5.3 /
//! Algorithm 2), Algorithm 1 livelocks, the reductions are sound, and the
//! counterexample pipeline (walk → shrink → replay) closes the loop.

use hope_check::explore::{replay, ReplayEnd};
use hope_check::{
    dfs, random_walk, shrink, CommittedOutcomeOracle, ConvergenceOracle, CrashRecoveryOracle,
    DemoOrderOracle, DfsConfig, Oracle, SafetyOracle, WaitFreedomOracle, WalkConfig,
};
use hope_core::SpecPolicy;
use hope_sim::scenarios;

fn full_oracles() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(SafetyOracle),
        Box::new(ConvergenceOracle),
        Box::new(WaitFreedomOracle { max_steps: 2_000 }),
    ]
}

#[test]
fn exhaustive_2ring_converges_under_algorithm_2() {
    let build = || scenarios::ring(2, true, 1);
    let mut oracles = full_oracles();
    let report = dfs(&build, &mut oracles, &DfsConfig::default());
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(!report.found_cycle, "Algorithm 2 must always make progress");
    assert!(!report.truncated, "the 2-ring space must fit the budget");
    assert!(report.terminals > 0, "must reach terminal states");
    assert!(
        report.branch_states > report.terminals,
        "nontrivial interleaving space: {} branch states",
        report.branch_states
    );
}

#[test]
fn exhaustive_2ring_finds_the_algorithm_1_livelock() {
    let build = || scenarios::ring(2, false, 1);
    // Safety still holds under Algorithm 1; only progress is lost.
    let mut oracles: Vec<Box<dyn Oracle>> = vec![Box::new(SafetyOracle)];
    let report = dfs(
        &build,
        &mut oracles,
        &DfsConfig {
            max_states: 50_000,
            ..DfsConfig::default()
        },
    );
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(
        report.found_cycle,
        "the §5.3 livelock must exist as a real runtime execution"
    );
    let witness = report.cycle_witness.expect("cycle implies witness");
    // The witness replays into a livelock, not a terminal state.
    let mut oracles: Vec<Box<dyn Oracle>> = vec![Box::new(SafetyOracle)];
    let out = replay(&build, &witness, &mut oracles, 2_000, false);
    assert!(
        matches!(out.end, ReplayEnd::Cycle | ReplayEnd::Branch { .. }),
        "witness must not quiesce: {:?}",
        out.end
    );
}

#[test]
fn sleep_set_reduction_preserves_terminal_states() {
    // Soundness of the partial-order reduction: with and without sleep
    // sets, the same set of distinct terminal states is reached (sleep
    // sets only prune redundant interleavings, never outcomes).
    let build = || scenarios::ring(2, true, 1);
    let mut oracles = full_oracles();
    let with = dfs(
        &build,
        &mut oracles,
        &DfsConfig {
            sleep_sets: true,
            ..DfsConfig::default()
        },
    );
    let without = dfs(
        &build,
        &mut oracles,
        &DfsConfig {
            sleep_sets: false,
            ..DfsConfig::default()
        },
    );
    assert!(with.violation.is_none() && without.violation.is_none());
    assert_eq!(
        with.terminals, without.terminals,
        "reduction changed the reachable terminal states"
    );
    assert!(
        with.replays <= without.replays,
        "the reduction must not explore more: {} vs {}",
        with.replays,
        without.replays
    );
}

#[test]
fn replay_is_deterministic() {
    let build = || scenarios::ring(2, true, 1);
    let mut oracles = full_oracles();
    let a = replay(&build, &[1, 0, 1], &mut oracles, 2_000, true);
    let b = replay(&build, &[1, 0, 1], &mut oracles, 2_000, true);
    assert_eq!(a.fingerprint, b.fingerprint, "same decisions, same state");
    assert_eq!(a.steps, b.steps);
    let c = replay(&build, &[], &mut oracles, 2_000, true);
    assert!(matches!(c.end, ReplayEnd::Terminal), "{:?}", c.end);
}

#[test]
fn random_walks_on_the_3_ring_stay_clean() {
    let build = || scenarios::ring(3, true, 1);
    let mut oracles = full_oracles();
    let report = random_walk(
        &build,
        &mut oracles,
        &WalkConfig {
            schedules: 40,
            max_schedule_steps: 2_000,
            seed: 0xC0FFEE,
        },
    );
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert_eq!(report.terminal_runs, 40, "every schedule must quiesce");
    assert!(
        report.distinct_terminals > 1,
        "walks must reach different terminal states"
    );
}

#[test]
fn chaos_walks_preserve_safety_and_crash_recovery() {
    let build = || scenarios::chaos_ring(2, 1);
    let mut oracles: Vec<Box<dyn Oracle>> = vec![
        Box::new(SafetyOracle),
        Box::new(CrashRecoveryOracle::default()),
    ];
    let report = random_walk(
        &build,
        &mut oracles,
        &WalkConfig {
            schedules: 40,
            max_schedule_steps: 10_000,
            seed: 7,
        },
    );
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.terminal_runs > 0);
}

/// The doomed stream under unconditional optimism commits what it
/// commits when it never speculates (the exhaustive version is the CI
/// job's), and a program that reports something else is caught.
#[test]
fn committed_outcomes_are_held_to_the_never_speculating_run() {
    let reference = || -> Box<dyn Oracle> {
        let pessimistic = scenarios::doomed_stream(SpecPolicy::Pessimistic, 1);
        Box::new(CommittedOutcomeOracle::from_reference(pessimistic))
    };
    let walk = WalkConfig {
        schedules: 40,
        max_schedule_steps: 2_000,
        seed: 3,
    };
    let build = || scenarios::doomed_stream(SpecPolicy::AlwaysOptimistic, 1);
    let mut oracles = full_oracles();
    oracles.push(reference());
    let report = random_walk(&build, &mut oracles, &walk);
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert_eq!(report.terminal_runs, 40, "every schedule must quiesce");

    let silent = || scenarios::ring(2, true, 1);
    let report = random_walk(&silent, &mut [reference()], &walk);
    let caught = report.violation.expect("a ring reports nothing");
    assert_eq!(caught.violation.oracle, "committed-outcome");
}

#[test]
fn injected_violation_shrinks_to_a_minimal_replayable_counterexample() {
    // The deliberately broken oracle asserts an ordering HOPE never
    // promises, so some schedules violate it; the pipeline must find one,
    // shrink it, and the shrunk decision list must still reproduce it.
    let build = || scenarios::ring(2, true, 42);
    let mut oracles: Vec<Box<dyn Oracle>> = vec![Box::new(DemoOrderOracle)];
    let walk = random_walk(
        &build,
        &mut oracles,
        &WalkConfig {
            schedules: 200,
            max_schedule_steps: 2_000,
            seed: 42,
        },
    );
    let cx = walk.violation.expect("the demo oracle must fire");
    let report = shrink(&build, &mut oracles, &cx.decisions, 2_000, 2_000)
        .expect("the original counterexample must replay");
    assert!(report.minimal.len() <= cx.decisions.len());
    assert!(
        !report.minimal.is_empty(),
        "the default order must satisfy the demo oracle, so steering is needed"
    );
    // 1-minimality under this shrinker's moves: dropping any single
    // decision or zeroing any single nonzero decision no longer violates.
    for i in 0..report.minimal.len() {
        let mut smaller = report.minimal.clone();
        smaller.remove(i);
        let out = replay(&build, &smaller, &mut oracles, 2_000, true);
        assert!(
            !matches!(out.end, ReplayEnd::Violated(_)),
            "dropping decision {i} still violates: not minimal"
        );
    }
    // And the minimal list itself replays to the violation.
    let out = replay(&build, &report.minimal, &mut oracles, 2_000, true);
    assert!(matches!(out.end, ReplayEnd::Violated(_)));
}
