//! E-adaptive — speculation under contention: optimistic workers against
//! a resolver that denies a configurable fraction of their assumptions.
//!
//! The workload that motivates DESIGN.md §9's adaptive speculation
//! control. `workers` processes each run `rounds` of: create an AID, ask
//! the resolver to validate it, **guess** it, and do heavy chunked work
//! on the optimistic branch (streaming tagged progress messages to the
//! resolver) or cheap fallback work on the pessimistic branch. The
//! resolver affirms or denies each request by a deterministic per-seed
//! hash, so the deny rate is exact and reproducible.
//!
//! At low deny rates unconditional optimism wins: the heavy work
//! overlaps the validation round trip. At high deny rates it wastes —
//! every denied round runs heavy chunks until the deny lands and streams
//! a tagged progress message after each, all of it discarded. The
//! resolver pays for that stream once: its first rollback proves the AID
//! denied and every doomed message behind it is dropped on sight, under
//! every policy (DESIGN.md S8). [`SpecPolicy::Adaptive`] should track the
//! optimistic throughput when denies are rare and approach the
//! pessimistic (wait-for-the-definite-value) waste when they are common.
//! `hope-bench -- adaptive` sweeps the deny rate over this workload and
//! gates those ratios in CI.

use bytes::Bytes;

use hope_core::{HopeEnv, SpecPolicy};
use hope_runtime::NetworkConfig;
use hope_types::{VirtualDuration, VirtualTime};

use crate::harness::run_settled;
use crate::{aid_of, decode_u64s, encode_u64s, splitmix64};

/// Request channel: `(worker, round, aid)` triples for the resolver.
const CH_REQUEST: u32 = 0;
/// Progress channel: speculative streaming updates (tag is the payload).
const CH_PROGRESS: u32 = 1;
/// Done channel: a worker finished all rounds and went definite.
const CH_DONE: u32 = 2;

/// Parameters of one contention run.
#[derive(Debug, Clone, Copy)]
pub struct ContentionConfig {
    /// Speculating worker processes.
    pub workers: u32,
    /// Rounds (one AID + one guess) per worker.
    pub rounds: u32,
    /// Fraction of requests the resolver denies, in permille (0..=1000).
    pub deny_permille: u32,
    /// Heavy-work chunks per optimistic round (one tagged progress
    /// message is streamed after each chunk).
    pub chunks: u32,
    /// Virtual compute per heavy chunk.
    pub chunk: VirtualDuration,
    /// Virtual compute of the pessimistic fallback branch.
    pub light: VirtualDuration,
    /// One-way wire latency.
    pub latency: VirtualDuration,
    /// Speculation-control policy for every process in the run.
    pub policy: SpecPolicy,
    /// Seed for the runtime and the deny hash.
    pub seed: u64,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        ContentionConfig {
            workers: 4,
            rounds: 100,
            deny_permille: 300,
            chunks: 40,
            chunk: VirtualDuration::from_nanos(500_000),
            light: VirtualDuration::from_nanos(500_000),
            latency: VirtualDuration::from_millis(1),
            policy: SpecPolicy::AlwaysOptimistic,
            seed: 0,
        }
    }
}

/// Measured outcome of one contention run.
#[derive(Debug, Clone, Copy)]
pub struct ContentionResult {
    /// Rounds committed (always `workers * rounds`: every round resolves).
    pub committed_rounds: u64,
    /// Rounds the resolver denied (exact, from the deny hash).
    pub denied_rounds: u64,
    /// Virtual time at quiescence.
    pub quiescent: VirtualTime,
    /// Committed rounds per virtual second.
    pub throughput: f64,
    /// Intervals rolled back across all processes.
    pub rollbacks: u64,
    /// Doomed intervals proactively cancelled: tagged messages dropped and
    /// guesses resolved on the spot because the AID was known denied.
    pub cancelled_intervals: u64,
    /// Operations discarded by rollbacks (wasted work).
    pub wasted_ops: u64,
}

/// The deterministic deny decision for `(worker, round)`: [`splitmix64`]
/// over the seed and coordinates, reduced to permille. Workers and the
/// resolver never communicate about it — the resolver computes it on
/// receipt, tests and reports recompute it independently.
pub fn denied(seed: u64, worker: u32, round: u32, deny_permille: u32) -> bool {
    let z = splitmix64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((u64::from(worker) << 32) | u64::from(round)),
    );
    (z % 1000) < u64::from(deny_permille)
}

/// Builds the environment without running it: one resolver/worker pair per
/// lane (resolver spawned first in each pair). Sharding the resolvers, one
/// per worker, keeps every op log proportional to `rounds` — a shared
/// resolver's log would grow with `workers * rounds` and rollback
/// re-execution (which replays the whole log) would go quadratic — and
/// keeps each worker's deny cascades out of the other workers' A_IDO
/// chains.
pub fn build(cfg: ContentionConfig) -> HopeEnv {
    assert!(cfg.workers >= 1 && cfg.rounds >= 1);
    assert!(cfg.deny_permille <= 1000, "deny_permille is out of range");
    let mut env = HopeEnv::builder()
        .seed(cfg.seed)
        .network(NetworkConfig::constant(cfg.latency))
        .spec_policy(cfg.policy)
        .build();
    for w in 0..cfg.workers {
        let resolver = env.spawn_user(&format!("resolver-{w}"), move |ctx| loop {
            let m = ctx.receive(None);
            match m.channel {
                CH_REQUEST => {
                    let request = decode_u64s(&m.data);
                    let (worker, round) = (request[0] as u32, request[1] as u32);
                    let aid = aid_of(request[2]);
                    // Resolve from a definite state: an affirm issued from
                    // an interval tainted by a pending assumption would be
                    // retracted when that assumption dies (A_IDO
                    // transitivity), and each retraction re-executes the
                    // affirmed rounds for no reason — at a 30% deny rate
                    // the retraction cascade is self-sustaining. A verdict
                    // is a commitment: the resolver settles its own
                    // speculation first.
                    ctx.await_definite();
                    if denied(cfg.seed, worker, round, cfg.deny_permille) {
                        ctx.deny(aid);
                    } else {
                        ctx.affirm(aid);
                    }
                }
                CH_PROGRESS => {} // speculative streaming update
                CH_DONE => break,
                other => unreachable!("unknown channel {other}"),
            }
        });
        env.spawn_user(&format!("worker-{w}"), move |ctx| {
            for round in 0..cfg.rounds {
                let aid = ctx.aid_init();
                let request = [w.into(), round.into(), aid.process().as_raw()];
                ctx.send(resolver, CH_REQUEST, encode_u64s(&request));
                if ctx.guess(aid) {
                    // Optimistic branch: heavy work, streamed in chunks so
                    // a late deny leaves tagged in-flight progress for the
                    // resolver to cancel.
                    for _ in 0..cfg.chunks {
                        ctx.compute(cfg.chunk);
                        ctx.send(resolver, CH_PROGRESS, Bytes::from_static(b"p"));
                    }
                } else {
                    // Pessimistic branch: the cheap definite fallback.
                    ctx.compute(cfg.light);
                }
            }
            ctx.await_definite();
            ctx.send(resolver, CH_DONE, Bytes::new());
        });
    }
    env
}

/// Runs one configuration to quiescence.
pub fn run(cfg: ContentionConfig) -> ContentionResult {
    let mut env = build(cfg);
    let report = run_settled(&mut env, &[]);
    let committed = u64::from(cfg.workers) * u64::from(cfg.rounds);
    let denied_rounds = (0..cfg.workers)
        .flat_map(|w| (0..cfg.rounds).map(move |r| (w, r)))
        .filter(|&(w, r)| denied(cfg.seed, w, r, cfg.deny_permille))
        .count() as u64;
    let elapsed_ns = report.run.now.as_nanos().max(1);
    ContentionResult {
        committed_rounds: committed,
        denied_rounds,
        quiescent: report.run.now,
        throughput: committed as f64 * 1e9 / elapsed_ns as f64,
        rollbacks: report.hope.rollbacks,
        cancelled_intervals: report.hope.cancelled_intervals,
        wasted_ops: report
            .hope
            .attribution
            .by_cause
            .values()
            .map(|w| w.ops_discarded)
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(deny_permille: u32, policy: SpecPolicy, seed: u64) -> ContentionConfig {
        ContentionConfig {
            workers: 2,
            rounds: 20,
            deny_permille,
            chunks: 8,
            policy,
            seed,
            ..ContentionConfig::default()
        }
    }

    #[test]
    fn deny_hash_matches_requested_rate_roughly() {
        let hits = (0..10_000).filter(|&i| denied(1, i, 0, 300)).count();
        assert!((2_700..3_300).contains(&hits), "{hits}");
    }

    /// Bit `r` of row `w` is `denied(seed, w, r, 300)`. The cells of
    /// `BENCH_adaptive.json` hang off these verdicts: a change to the
    /// pre-mix here or to the shared `splitmix64` moves them.
    #[test]
    fn deny_verdicts_are_pinned() {
        let grid = |seed| -> [u8; 4] {
            std::array::from_fn(|w| {
                (0..8).fold(0u8, |row, r| {
                    row | (u8::from(denied(seed, w as u32, r, 300)) << r)
                })
            })
        };
        assert_eq!(grid(0), [0x31, 0x0a, 0x41, 0x25]);
        assert_eq!(grid(1), [0x0c, 0x2b, 0xc1, 0x5a]);
        assert_eq!(grid(7), [0x4a, 0xa5, 0x33, 0x0a]);
        assert_eq!(grid(42), [0x8a, 0x09, 0x14, 0x87]);
    }

    #[test]
    fn optimistic_run_commits_every_round() {
        let cfg = small(300, SpecPolicy::AlwaysOptimistic, 3);
        let r = run(cfg);
        assert_eq!(r.committed_rounds, 40);
        assert!(r.rollbacks > 0, "a 30% deny rate must cause rollbacks");
        assert!(
            r.cancelled_intervals > 0,
            "doomed progress is dropped: {r:?}"
        );
        // A denied round is paid for once: the worker's guess, and at the
        // resolver at most one interval per progress message it consumed.
        let per_denied_round = u64::from(cfg.chunks) + 2;
        assert!(r.rollbacks <= r.denied_rounds * per_denied_round, "{r:?}");
    }

    #[test]
    fn adaptive_cancels_doomed_work_under_heavy_denial() {
        let policy = SpecPolicy::adaptive(0.4, 8, 0.1).unwrap();
        let r = run(small(900, policy, 3));
        assert_eq!(r.committed_rounds, 40);
        assert!(
            r.cancelled_intervals > 0,
            "doomed progress messages must be cancelled: {r:?}"
        );
    }

    #[test]
    fn pessimistic_run_never_rolls_back_the_workers() {
        let r = run(small(500, SpecPolicy::Pessimistic, 5));
        assert_eq!(r.committed_rounds, 40);
        // Workers wait for the definite value, so no heavy branch is ever
        // discarded; the denied guesses resolve at the guess point itself.
        assert!(
            r.quiescent > VirtualTime::ZERO,
            "waiting consumes round trips"
        );
    }

    #[test]
    fn contention_is_deterministic_per_seed() {
        let policy = SpecPolicy::adaptive(0.5, 8, 0.1).unwrap();
        let a = run(small(600, policy, 11));
        let b = run(small(600, policy, 11));
        assert_eq!(a.quiescent, b.quiescent);
        assert_eq!(a.rollbacks, b.rollbacks);
        assert_eq!(a.cancelled_intervals, b.cancelled_intervals);
    }

    #[test]
    fn adaptive_wastes_less_than_optimistic_when_denies_dominate() {
        let policy = SpecPolicy::adaptive(0.4, 8, 0.1).unwrap();
        let optimistic = run(ContentionConfig {
            deny_permille: 900,
            seed: 7,
            ..ContentionConfig::default()
        });
        let adaptive = run(ContentionConfig {
            deny_permille: 900,
            policy,
            seed: 7,
            ..ContentionConfig::default()
        });
        assert!(
            adaptive.wasted_ops < optimistic.wasted_ops,
            "{adaptive:?} vs {optimistic:?}"
        );
        // Waiting for the verdict costs no more than a round trip a round.
        assert!(
            adaptive.throughput >= 0.9 * optimistic.throughput,
            "adaptive {a:.1} must stay within 10% of optimistic {o:.1} at 90% deny",
            a = adaptive.throughput,
            o = optimistic.throughput
        );
    }
}
