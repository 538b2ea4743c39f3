//! Stateless schedule exploration: replay-from-scratch plus a bounded
//! exhaustive DFS over delivery orders.
//!
//! A **schedule** is encoded as the list of decisions taken at *branch
//! points* — states with more than one schedulable event. Singleton
//! frontiers are stepped automatically, so decision lists stay short and a
//! list replays identically however the intervening deterministic stretches
//! are shaped. The DFS is *stateless* in the model-checking sense: it never
//! snapshots the world (which contains live coroutine stacks), it re-executes the
//! decision prefix from a fresh environment for every node.
//!
//! Two reductions keep the state count down:
//!
//! * **state-hash dedup** — branch states are fingerprinted
//!   ([`RtWorld::fingerprint`]) and not re-expanded, with the standard
//!   sleep-set caveat: a state is re-explored when reached with a sleep set
//!   that is not a superset of one it was already explored under.
//! * **sleep sets** — after exploring branch `i`, later siblings that
//!   *commute* with it (deliveries to distinct processes, see
//!   [`EventDesc::commutes_with`]) carry it as asleep, pruning the
//!   mirror-image interleaving.
//!
//! Cycles in the branch graph (a fingerprint re-encountered on the current
//! DFS path, or a repeating fingerprint along a deterministic stretch) are
//! reported as livelock witnesses — this is how the checker finds the
//! paper's §5.3 Algorithm 1 livelock.

use std::collections::{BTreeSet, HashMap, HashSet};

use hope_core::MetricsSnapshot;
use hope_runtime::{EventDesc, PendingEvent};

use crate::oracle::{Oracle, Violation};
use crate::world::{RtWorld, WorldView};
use crate::Builder;

/// How a single schedule replay ended.
#[derive(Debug)]
pub enum ReplayEnd {
    /// No schedulable events remain; terminal oracles passed.
    Terminal,
    /// The decision list was exhausted at a state with several schedulable
    /// events.
    Branch {
        /// The schedulable events at the branch, sorted by `(time, tie)`.
        candidates: Vec<PendingEvent>,
        /// Descriptions of the singleton-frontier events auto-stepped
        /// after the last decision (used to age sleep sets).
        extension: Vec<EventDesc>,
    },
    /// An oracle fired.
    Violated(Violation),
    /// A state fingerprint repeated along a deterministic (singleton
    /// frontier) stretch: a livelock.
    Cycle,
    /// The per-schedule step budget ran out.
    Over,
}

/// Result of [`replay`].
#[derive(Debug)]
pub struct ReplayOutcome {
    /// How the replay ended.
    pub end: ReplayEnd,
    /// Fingerprint of the final state reached.
    pub fingerprint: u64,
    /// Events fired during this replay.
    pub steps: u64,
    /// The HOPE counters of the final state.
    pub metrics: MetricsSnapshot,
}

/// Re-executes a scenario from scratch, consuming `decisions` at branch
/// points (out-of-range decisions are clamped; singleton frontiers never
/// consume one). With `complete_with_zero`, exhausted decisions fall back
/// to choice 0 instead of stopping at the next branch — this is how a
/// shrunk counterexample replays to completion.
pub fn replay(
    build: Builder<'_>,
    decisions: &[u32],
    oracles: &mut [Box<dyn Oracle>],
    max_steps: u64,
    complete_with_zero: bool,
) -> ReplayOutcome {
    let mut world = RtWorld::new(build());
    for o in oracles.iter_mut() {
        o.reset();
    }
    let mut view = world.view();
    let mut di = 0usize;
    let mut extension: Vec<EventDesc> = Vec::new();
    let mut extension_fps: HashSet<u64> = HashSet::new();
    loop {
        let candidates = world.pending();
        if candidates.is_empty() {
            for o in oracles.iter_mut() {
                if let Err(v) = o.check_terminal(&view) {
                    return done(ReplayEnd::Violated(v), &world, &view);
                }
            }
            return done(ReplayEnd::Terminal, &world, &view);
        }
        if world.steps() >= max_steps {
            return done(ReplayEnd::Over, &world, &view);
        }
        let exhausted = di >= decisions.len();
        if exhausted && !complete_with_zero {
            // Deterministic extension: watch for livelock cycles.
            if !extension_fps.insert(world.fingerprint()) {
                return done(ReplayEnd::Cycle, &world, &view);
            }
            if candidates.len() > 1 {
                return done(
                    ReplayEnd::Branch {
                        candidates,
                        extension,
                    },
                    &world,
                    &view,
                );
            }
            extension.push(candidates[0].desc);
        }
        let choice = if candidates.len() == 1 {
            0
        } else if !exhausted {
            let c = (decisions[di] as usize).min(candidates.len() - 1);
            di += 1;
            c
        } else {
            0 // complete_with_zero
        };
        let event = candidates[choice].clone();
        for o in oracles.iter_mut() {
            o.on_event(&event, &view);
        }
        let stepped = world.step(choice);
        debug_assert!(stepped, "pending index cannot be stale within one step");
        view = world.view();
        for o in oracles.iter_mut() {
            if let Err(v) = o.check_step(&view) {
                return done(ReplayEnd::Violated(v), &world, &view);
            }
        }
    }
}

fn done(end: ReplayEnd, world: &RtWorld, view: &WorldView) -> ReplayOutcome {
    ReplayOutcome {
        end,
        fingerprint: world.fingerprint(),
        steps: world.steps(),
        metrics: view.metrics.clone(),
    }
}

/// Budget knobs for [`dfs`].
#[derive(Debug, Clone)]
pub struct DfsConfig {
    /// Stop expanding once this many distinct branch states were seen.
    pub max_states: usize,
    /// Per-schedule step budget (see [`replay`]).
    pub max_schedule_steps: u64,
    /// Enable the sleep-set reduction for commuting deliveries.
    pub sleep_sets: bool,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            max_states: 200_000,
            max_schedule_steps: 10_000,
            sleep_sets: true,
        }
    }
}

/// A violating schedule: the decision list to replay plus what it violates.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Branch decisions reproducing the violation (replay with
    /// `complete_with_zero = true`).
    pub decisions: Vec<u32>,
    /// The invariant that fired.
    pub violation: Violation,
}

/// What a [`dfs`] run covered and found.
#[derive(Debug, Default)]
pub struct DfsReport {
    /// Distinct branch-state fingerprints expanded.
    pub branch_states: usize,
    /// Distinct terminal-state fingerprints reached.
    pub terminals: usize,
    /// Schedule replays performed (stateless exploration re-executes the
    /// prefix for every node).
    pub replays: u64,
    /// Total events fired across all replays.
    pub total_steps: u64,
    /// A state recurred on one schedule: a livelock exists.
    pub found_cycle: bool,
    /// Decisions leading into the first cycle found.
    pub cycle_witness: Option<Vec<u32>>,
    /// A budget (states or steps) was hit before exhausting the space.
    pub truncated: bool,
    /// First oracle violation found, if any (the DFS stops on it).
    pub violation: Option<Counterexample>,
}

enum Node {
    Enter {
        decisions: Vec<u32>,
        sleep: Vec<(u64, EventDesc)>,
    },
    Exit {
        fp: u64,
    },
}

/// Bounded exhaustive DFS over all delivery orders of a scenario.
///
/// Every node is one branch state, re-reached by replaying its decision
/// prefix. Exploration order is decision-index order, so the first
/// schedule explored is exactly the runtime's default virtual-time order.
/// Stops at the first oracle violation.
pub fn dfs(build: Builder<'_>, oracles: &mut [Box<dyn Oracle>], cfg: &DfsConfig) -> DfsReport {
    let mut report = DfsReport::default();
    // fp -> sleep sets (as content-hash sets) it was already explored under.
    let mut visited: HashMap<u64, Vec<BTreeSet<u64>>> = HashMap::new();
    let mut on_path: HashSet<u64> = HashSet::new();
    let mut terminals: HashSet<u64> = HashSet::new();
    let mut stack = vec![Node::Enter {
        decisions: Vec::new(),
        sleep: Vec::new(),
    }];
    while let Some(node) = stack.pop() {
        let (decisions, sleep) = match node {
            Node::Exit { fp } => {
                on_path.remove(&fp);
                continue;
            }
            Node::Enter { decisions, sleep } => (decisions, sleep),
        };
        report.replays += 1;
        let out = replay(build, &decisions, oracles, cfg.max_schedule_steps, false);
        report.total_steps += out.steps;
        match out.end {
            ReplayEnd::Violated(violation) => {
                report.violation = Some(Counterexample {
                    decisions,
                    violation,
                });
                break;
            }
            ReplayEnd::Terminal => {
                terminals.insert(out.fingerprint);
            }
            ReplayEnd::Cycle => {
                report.found_cycle = true;
                report.cycle_witness.get_or_insert(decisions);
            }
            ReplayEnd::Over => {
                report.truncated = true;
            }
            ReplayEnd::Branch {
                candidates,
                extension,
            } => {
                let fp = out.fingerprint;
                if on_path.contains(&fp) {
                    report.found_cycle = true;
                    report.cycle_witness.get_or_insert(decisions);
                    continue;
                }
                // Sleeping events stay asleep only while everything fired
                // since the parent branch commutes with them.
                let effective: Vec<(u64, EventDesc)> = if cfg.sleep_sets {
                    sleep
                        .into_iter()
                        .filter(|(_, d)| extension.iter().all(|e| d.commutes_with(e)))
                        .collect()
                } else {
                    Vec::new()
                };
                let sleep_key: BTreeSet<u64> = effective.iter().map(|(h, _)| *h).collect();
                let seen = visited.entry(fp).or_default();
                // Explored before under a sleep set no larger than this
                // one: that exploration covered at least as much.
                if seen.iter().any(|old| old.is_subset(&sleep_key)) {
                    continue;
                }
                seen.push(sleep_key);
                if visited.len() >= cfg.max_states {
                    report.truncated = true;
                    continue;
                }
                on_path.insert(fp);
                stack.push(Node::Exit { fp });
                let asleep = |c: &PendingEvent| effective.iter().any(|(h, _)| *h == c.content_hash);
                for i in (0..candidates.len()).rev() {
                    let chosen = &candidates[i];
                    if asleep(chosen) {
                        continue;
                    }
                    let mut child_sleep: Vec<(u64, EventDesc)> = effective
                        .iter()
                        .filter(|(_, d)| d.commutes_with(&chosen.desc))
                        .cloned()
                        .collect();
                    for earlier in candidates[..i].iter() {
                        if !asleep(earlier) && earlier.desc.commutes_with(&chosen.desc) {
                            child_sleep.push((earlier.content_hash, earlier.desc));
                        }
                    }
                    let mut child_decisions = decisions.clone();
                    child_decisions.push(i as u32);
                    stack.push(Node::Enter {
                        decisions: child_decisions,
                        sleep: child_sleep,
                    });
                }
            }
        }
    }
    report.branch_states = visited.len();
    report.terminals = terminals.len();
    report
}
