//! E-chaos — fault-injection soak: the HOPE safety invariants under a
//! lossy, duplicating, crashing network.
//!
//! The paper assumes PVM's reliable transport; DESIGN.md §3 substitutes a
//! reliable-delivery sublayer (per-link sequencing, acks, retransmission
//! with exponential backoff, receiver-side dedup) so the algorithm can be
//! exercised over an adversarial wire. This workload runs the E8
//! replication and E3 chain scenarios under seeded drops, duplicates and
//! scheduled crash/restarts and checks the theorem 5.1 safety outcomes:
//!
//! * the run reaches quiescence with every process exited (a process
//!   cannot exit while any of its intervals is speculative, so this
//!   means every interval was finalized or rolled back and re-run);
//! * no `affirm`/`deny` is lost — the committed outcome equals the
//!   fault-free run's outcome;
//! * a crashed process recovers by discarding its speculative intervals
//!   and replaying its operation log to the definite frontier.

use std::sync::{Arc, Mutex};

use hope_core::env::UserBody;
use hope_core::{HopeEnv, HopeReport, ProcessCtx, SpecPolicy, ThreadedHopeEnv};
use hope_runtime::{FaultPlan, LinkStats, NetworkConfig};
use hope_types::{ProcessId, VirtualDuration, VirtualTime};

use crate::chain::{self, ChainConfig};
use crate::harness::{lossy_plan, run_settled_threaded};
use crate::replication::{self, ReplicationConfig};
use crate::{decode_aids, encode_u64s};

/// Parameters of one chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Probability in `[0, 1)` that a wire transit is dropped.
    pub drop_rate: f64,
    /// Probability in `[0, 1)` that a wire transit is duplicated.
    pub duplicate_rate: f64,
    /// Schedule one crash/restart of a speculating process mid-run.
    pub crash: bool,
    /// Replicas in the replication scenario.
    pub replicas: u32,
    /// Dependent calls in the chain scenario.
    pub depth: u32,
    /// Delivery shards for the threaded scenario (DESIGN.md §10);
    /// `None` uses the machine's available parallelism. Safety outcomes
    /// must be shard-count independent.
    pub shards: Option<usize>,
    /// Speculation-control policy for every process in the run
    /// (DESIGN.md §9). The safety outcomes must hold whatever the policy:
    /// throttling changes *when* a process speculates, never what commits.
    pub policy: SpecPolicy,
    /// Seed for the network, the workload and the fault model.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            drop_rate: 0.15,
            duplicate_rate: 0.10,
            crash: true,
            replicas: 4,
            depth: 6,
            shards: None,
            policy: SpecPolicy::AlwaysOptimistic,
            seed: 0,
        }
    }
}

/// Measured outcome of one chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosResult {
    /// The faulted run committed the same outcome as the fault-free run.
    pub matches_fault_free: bool,
    /// Intervals finalized in the faulted run.
    pub finalized: u64,
    /// Intervals rolled back in the faulted run.
    pub rollbacks: u64,
    /// Crash recoveries (restarts that doomed speculative state).
    pub crash_recoveries: u64,
    /// Reliable-sublayer and fault counters of the faulted run.
    pub link: LinkStats,
    /// Virtual time at quiescence of the faulted run.
    pub quiescent: VirtualTime,
}

/// The simulator scenarios' plan. Both spawn their server first (pid 0)
/// and the process that speculates second: pid 1 crashes (if the run
/// crashes at all) 3 ms in — while its first calls are in flight — for
/// 2 ms.
fn fault_plan(cfg: ChaosConfig) -> FaultPlan {
    let crash = (
        ProcessId::from_raw(1),
        VirtualTime::from_nanos(3_000_000),
        VirtualDuration::from_millis(2),
    );
    // Keep the retransmit timer comfortably above one round trip so
    // retransmissions come from real drops, not impatience.
    let rto = VirtualDuration::from_millis(5);
    lossy_plan(
        cfg.drop_rate,
        cfg.duplicate_rate,
        cfg.seed,
        rto,
        cfg.crash.then_some(crash),
    )
}

fn faulted_env(cfg: ChaosConfig, latency: VirtualDuration) -> HopeEnv {
    HopeEnv::builder()
        .seed(cfg.seed)
        .network(NetworkConfig::constant(latency))
        .faults(fault_plan(cfg))
        .spec_policy(cfg.policy)
        .build()
}

/// Packages the counters of a settled run (the workload's own
/// `run_settled` has already held it to "everyone finalized and exited").
fn outcome(report: &HopeReport, matches_fault_free: bool) -> ChaosResult {
    ChaosResult {
        matches_fault_free,
        finalized: report.hope.finalized_intervals,
        rollbacks: report.hope.rollbacks,
        crash_recoveries: report.hope.crash_recoveries,
        link: *report.run.stats.link(),
        quiescent: report.run.now,
    }
}

/// [`outcome`] for the simulator scenarios, whose committed result is
/// deterministic and so must equal the fault-free run's.
fn check(report: &HopeReport, matches_fault_free: bool) -> ChaosResult {
    assert!(
        matches_fault_free,
        "the faulted run must commit the fault-free outcome"
    );
    outcome(report, matches_fault_free)
}

/// Runs E8 replication under faults: racing replicas, an owner
/// affirming/denying version checks, and (optionally) `replica-0`
/// crashing mid-speculation. The committed `(version, value)` pair must
/// equal the fault-free run's.
pub fn run_replication(cfg: ChaosConfig) -> ChaosResult {
    let rep = ReplicationConfig {
        replicas: cfg.replicas,
        latency: VirtualDuration::from_millis(2),
        seed: cfg.seed,
    };
    let reference = replication::run(rep);
    // Spawn order is owner (pid 0), then replica-0 (pid 1), …: crash the
    // first replica inside its snapshot-fetch window (the ~4 ms GET/SNAP
    // round trip). Crashing *after* the owner validates an update would
    // retry it on re-execution — the scenario's updates are not
    // idempotent, so exactly-once under mid-speculation crashes is the
    // application's burden, not the sublayer's (the chain and threaded
    // scenarios exercise mid-speculation recovery instead).
    let (faulted, report) = replication::run_in(faulted_env(cfg, rep.latency), rep);
    check(
        &report,
        faulted.value == reference.value && faulted.version == reference.version,
    )
}

/// Runs the E3 streaming chain under faults: a client chains `depth`
/// dependent optimistic calls through a stage server over a lossy wire,
/// with (optionally) the client crashing mid-chain. The committed final
/// value must equal the fault-free chain's.
pub fn run_chain(cfg: ChaosConfig) -> ChaosResult {
    run_chain_inner(cfg, None).0
}

/// [`run_chain`] with the causal tracer enabled at `capacity` events,
/// additionally returning the run's exported Chrome trace object (see
/// [`crate::trace_export`]). The faulted chain is the richest single
/// scenario for a trace artifact: speculation, denies, rollbacks,
/// retransmissions and a crash recovery all appear in one timeline.
pub fn run_chain_traced(cfg: ChaosConfig, capacity: usize) -> (ChaosResult, crate::json::Value) {
    let (result, trace) = run_chain_inner(cfg, Some(capacity));
    (result, trace.expect("tracing was enabled"))
}

fn run_chain_inner(
    cfg: ChaosConfig,
    tracing: Option<usize>,
) -> (ChaosResult, Option<crate::json::Value>) {
    let chain_cfg = ChainConfig {
        depth: cfg.depth,
        latency: VirtualDuration::from_millis(1),
        accuracy: 0.8,
        seed: cfg.seed,
        ..ChainConfig::default()
    };
    let reference = chain::run_streaming(chain_cfg);
    // Spawn order is the stage server (pid 0), then the client (pid 1):
    // crash the client while calls are in flight.
    let env = faulted_env(cfg, chain_cfg.latency);
    if let Some(capacity) = tracing {
        env.enable_tracing(capacity);
    }
    let tracer = env.tracer();
    let (faulted, report) = chain::run_streaming_in(env, chain_cfg);
    let result = check(&report, faulted.value == reference.value);
    let trace = tracing.map(|_| {
        crate::trace_export::chrome_trace(
            &tracer.drain(),
            tracer.dropped(),
            &report.hope.attribution,
        )
    });
    (result, trace)
}

/// Spawns the guess/affirm race through `spawn` — whichever runtime is
/// behind it: guessers `g0..n` first (so `g0` is pid 0), then the
/// `owner`, who mints one assumption, sends it to every guesser (followed
/// by `payload_tail`, for a caller whose rounds carry more than the AID),
/// computes for 3 ms and affirms it. Each guesser guesses the assumption,
/// waits until that is definite and adds itself to the returned tally.
pub(crate) fn spawn_race(
    mut spawn: impl FnMut(&str, UserBody) -> ProcessId,
    guessers: u32,
    payload_tail: &[u64],
) -> Arc<Mutex<u32>> {
    let tally = Arc::new(Mutex::new(0u32));
    let mut pids = Vec::new();
    for i in 0..guessers {
        let tally = tally.clone();
        let body = move |ctx: &mut ProcessCtx<'_>| {
            let m = ctx.receive(None);
            let x = decode_aids(&m.data)[0];
            let _ = ctx.guess(x);
            ctx.await_definite();
            if !ctx.is_replaying() {
                *tally.lock().unwrap() += 1;
            }
        };
        pids.push(spawn(&format!("g{i}"), Box::new(body)));
    }
    let payload_tail = payload_tail.to_vec();
    let owner = move |ctx: &mut ProcessCtx<'_>| {
        let x = ctx.aid_init();
        let mut words = vec![x.process().as_raw()];
        words.extend_from_slice(&payload_tail);
        let payload = encode_u64s(&words);
        for &g in &pids {
            ctx.send(g, 0, payload.clone());
        }
        ctx.compute(VirtualDuration::from_millis(3));
        ctx.affirm(x);
    };
    spawn("owner", Box::new(owner));
    tally
}

/// Runs a guess/affirm race on the wall-clock [`ThreadedHopeEnv`] under
/// faults: `replicas` guessers speculate on one owner's assumption while
/// the wire drops and duplicates, and (optionally) one guesser crashes.
/// Crash times in the plan are wall-clock offsets from startup.
pub fn run_threaded(cfg: ChaosConfig) -> ChaosResult {
    // Guessers are spawned first: pid 0 is `g0`.
    let crash = (
        ProcessId::from_raw(0),
        VirtualTime::from_nanos(5_000_000),
        VirtualDuration::from_millis(5),
    );
    // Wall-clock rto: keep it small so retransmits resolve quickly.
    let rto = VirtualDuration::from_millis(2);
    let mut env_builder = ThreadedHopeEnv::builder()
        .seed(cfg.seed)
        .faults(lossy_plan(
            cfg.drop_rate,
            cfg.duplicate_rate,
            cfg.seed,
            rto,
            cfg.crash.then_some(crash),
        ))
        .spec_policy(cfg.policy);
    if let Some(n) = cfg.shards {
        env_builder = env_builder.shards(n);
    }
    let env = env_builder.build();
    let tally = spawn_race(|name, body| env.spawn_user(name, body), cfg.replicas, &[]);
    let report = run_settled_threaded(&env);
    let done = *tally.lock().unwrap();
    outcome(&report, done == cfg.replicas)
}

/// Sweeps drop rate over both simulator scenarios and tabulates the
/// safety outcomes and link-layer churn.
pub fn sweep(drop_rates: &[f64], cfg_base: ChaosConfig) -> crate::table::Table {
    let mut table = crate::table::Table::new(
        "E-chaos: safety under drops, duplicates and crash/restarts",
        &[
            "scenario",
            "drop",
            "finalized",
            "rollbacks",
            "recoveries",
            "retransmits",
            "dedup",
            "correct",
        ],
    );
    for &drop_rate in drop_rates {
        let cfg = ChaosConfig {
            drop_rate,
            ..cfg_base
        };
        for (name, r) in [
            ("replication", run_replication(cfg)),
            ("chain", run_chain(cfg)),
        ] {
            table.row(&[
                &name,
                &format_args!("{drop_rate:.2}"),
                &r.finalized,
                &r.rollbacks,
                &r.crash_recoveries,
                &r.link.retransmits,
                &r.link.dedup_dropped,
                &r.matches_fault_free,
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_survives_drops_dups_and_a_crash() {
        let r = run_replication(ChaosConfig::default());
        assert!(r.matches_fault_free);
        assert!(r.finalized > 0);
        assert!(r.link.fault_dropped > 0, "the wire must actually be lossy");
        assert!(r.link.retransmits > 0, "drops must be repaired");
    }

    #[test]
    fn chain_survives_drops_dups_and_a_crash() {
        let r = run_chain(ChaosConfig::default());
        assert!(r.matches_fault_free);
        assert!(r.finalized > 0);
    }

    #[test]
    fn duplicates_are_suppressed_by_dedup() {
        let r = run_replication(ChaosConfig {
            drop_rate: 0.0,
            duplicate_rate: 0.4,
            crash: false,
            ..ChaosConfig::default()
        });
        assert!(r.matches_fault_free);
        assert!(r.link.duplicated > 0);
        assert!(
            r.link.dedup_dropped > 0,
            "wire duplicates must be absorbed: {:?}",
            r.link
        );
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let cfg = ChaosConfig {
            seed: 7,
            ..ChaosConfig::default()
        };
        let a = run_replication(cfg);
        let b = run_replication(cfg);
        assert_eq!(a.quiescent, b.quiescent);
        assert_eq!(a.link, b.link);
        assert_eq!(a.rollbacks, b.rollbacks);
    }

    /// Tracing is pure observation: a traced run must be event-for-event
    /// the run the untraced simulator produces, and its export must pass
    /// the schema check with a non-empty timeline that includes the
    /// rollback events this scenario is guaranteed to generate.
    #[test]
    fn traced_chain_is_identical_and_exports_a_valid_trace() {
        use crate::json::Value;
        let cfg = ChaosConfig::default();
        let plain = run_chain(cfg);
        let (traced, trace) = run_chain_traced(cfg, 1 << 16);
        assert_eq!(plain.quiescent, traced.quiescent);
        assert_eq!(plain.rollbacks, traced.rollbacks);
        assert_eq!(plain.finalized, traced.finalized);
        assert_eq!(plain.link, traced.link);
        crate::trace_export::validate_chrome_trace(&trace).unwrap();
        let events = match trace.get("traceEvents") {
            Value::Array(events) => events,
            _ => panic!("traceEvents missing"),
        };
        assert!(!events.is_empty());
        assert!(
            events
                .iter()
                .any(|e| e.get("name").as_str() == Some("rollback")),
            "the faulted chain must trace its rollbacks"
        );
        assert!(
            matches!(trace["otherData"]["attribution"], Value::Array(ref rows) if !rows.is_empty()),
            "rollbacks must be attributed in the artifact"
        );
    }

    /// The race is written against "something that can spawn a user
    /// process": the same text settles on the simulator, with the payload
    /// tail riding along unread.
    #[test]
    fn the_race_runs_on_the_simulator_too() {
        let mut env = HopeEnv::builder().seed(3).build();
        let tally = spawn_race(|name, body| env.spawn_user(name, body), 3, &[0xfeed]);
        let report = crate::harness::run_settled(&mut env, &[]);
        assert_eq!(*tally.lock().unwrap(), 3);
        assert_eq!(report.hope.rollbacks, 0);
        let names: Vec<_> = env.user_pids().into_iter().map(|p| p.as_raw()).collect();
        assert_eq!(names, [0, 1, 2, 3], "g0..g2 then the owner");
    }

    #[test]
    fn threaded_chaos_commits_every_guess() {
        let r = run_threaded(ChaosConfig {
            drop_rate: 0.1,
            duplicate_rate: 0.1,
            ..ChaosConfig::default()
        });
        assert!(r.matches_fault_free);
        assert!(r.finalized > 0);
    }

    /// DESIGN.md §9: adaptive throttling under drops, duplicates and a
    /// crash/restart must preserve the theorem 5.1 safety outcomes — the
    /// faulted runs commit the fault-free outcomes, nothing livelocks,
    /// and crash recovery still lands on the definite frontier. A low
    /// threshold makes a single observed deny actually throttle, so the
    /// parked-guess paths run under fault pressure, not just in the
    /// clean-network tests.
    #[test]
    fn adaptive_policy_is_safe_under_chaos() {
        let policy = SpecPolicy::adaptive(0.1, 4, 0.05).unwrap();
        for seed in [0, 7] {
            let cfg = ChaosConfig {
                policy,
                seed,
                ..ChaosConfig::default()
            };
            let rep = run_replication(cfg);
            assert!(rep.matches_fault_free, "replication seed {seed}");
            let chain = run_chain(cfg);
            assert!(chain.matches_fault_free, "chain seed {seed}");
            assert!(chain.finalized > 0);
        }
        let threaded = run_threaded(ChaosConfig {
            policy,
            drop_rate: 0.1,
            duplicate_rate: 0.1,
            ..ChaosConfig::default()
        });
        assert!(threaded.matches_fault_free, "threaded chaos under adaptive");
    }

    /// DESIGN.md §10: the number of delivery shards is a performance
    /// knob, never a semantics knob. The faulted threaded scenario must
    /// commit the fault-free outcome at every shard count — the E-chaos
    /// soak's shard-count sweep.
    #[test]
    fn threaded_chaos_outcome_is_shard_count_independent() {
        for shards in [1, 2, 4] {
            let r = run_threaded(ChaosConfig {
                drop_rate: 0.1,
                duplicate_rate: 0.1,
                shards: Some(shards),
                ..ChaosConfig::default()
            });
            assert!(
                r.matches_fault_free,
                "shards({shards}) must commit every guess"
            );
            assert!(r.finalized > 0, "shards({shards}) must finalize work");
        }
    }

    #[test]
    fn sweep_rows_all_correct() {
        let t = sweep(
            &[0.0, 0.15],
            ChaosConfig {
                replicas: 3,
                depth: 4,
                ..ChaosConfig::default()
            },
        );
        assert_eq!(t.rows.len(), 4);
        assert!(t.rows.iter().all(|r| r[7] == "true"));
    }
}
