//! E6 — rollback/replay cost versus speculation depth.
//!
//! The replay substitute for process checkpointing (DESIGN.md S2) pays for
//! a rollback by re-executing the operation-log prefix. This workload
//! stacks `depth` intervals (each with some logged traffic), denies the
//! *first* assumption, and measures how much work the rollback caused —
//! the cost grows linearly with the log prefix, the price of checkpoints
//! that occupy no memory.
//!
//! E6b — a denied assumption is paid for once. E6 denies a stack nobody
//! else has heard of; the expensive case is a deny with tagged messages
//! already queued behind it at *another* process. [`measure_backlog`]
//! streams `backlog` messages tagged with one assumption to a sink and
//! then denies it: the sink must roll back once and drop the rest on
//! sight (DESIGN.md S8), so re-executions and protocol messages are flat
//! in the backlog — receiving each doomed message again, to be told again
//! that it is doomed, fits exponents of ≈ 1 and ≈ 2. Interval rollbacks
//! are flat too: the sink's first receive opens its one interval and
//! every later receive is covered by it (DESIGN.md S9); one interval per
//! consumed message fits ≈ 0.95. [`measure_settled`] records the other
//! half of the cost, which is still open: one denied round replays
//! everything that settled before it.

use bytes::Bytes;
use hope_core::HopeEnv;
use hope_runtime::NetworkConfig;
use hope_types::{AidId, VirtualDuration};

use crate::harness::run_settled;
use crate::{decode_aids, encode_aids};

/// Measured rollback cost at one depth.
#[derive(Debug, Clone, Copy)]
pub struct RollbackResult {
    /// Stacked speculation depth.
    pub depth: u32,
    /// Intervals rolled back (= depth: the first deny kills the stack).
    pub rollbacks: u64,
    /// Operations replayed during re-execution.
    pub replayed_ops: u64,
    /// Process re-executions.
    pub reexecutions: u64,
}

/// Stacks `depth` guesses with `ops_per_interval` logged operations each,
/// then the resolver denies the first assumption (rolling the whole stack
/// back) and affirms the rest so the run converges.
pub fn measure(depth: u32, ops_per_interval: u32, seed: u64) -> RollbackResult {
    let mut env = HopeEnv::builder()
        .seed(seed)
        .network(NetworkConfig::lan())
        .build();
    let resolver = env.spawn_user("resolver", move |ctx| {
        let m = ctx.receive(None);
        let aids = decode_aids(&m.data);
        ctx.compute(VirtualDuration::from_millis(5)); // let the stack build
        ctx.deny(aids[0]);
        for &aid in &aids[1..] {
            ctx.affirm(aid);
        }
    });
    env.spawn_user("speculator", move |ctx| {
        let aids: Vec<AidId> = (0..depth).map(|_| ctx.aid_init()).collect();
        ctx.send(resolver, 0, encode_aids(&aids));
        for &aid in &aids {
            if ctx.guess(aid) {
                // Logged work inside the interval: compute + randomness.
                for _ in 0..ops_per_interval {
                    let _ = ctx.random();
                }
                ctx.compute(VirtualDuration::from_micros(10));
            }
        }
    });
    let report = run_settled(&mut env, &[]);
    RollbackResult {
        depth,
        rollbacks: report.hope.rollbacks,
        replayed_ops: report.hope.replayed_ops,
        reexecutions: report.hope.reexecutions,
    }
}

/// Sweeps depth and tabulates replay cost.
pub fn sweep(depths: &[u32], ops_per_interval: u32, seed: u64) -> crate::table::Table {
    let mut table = crate::table::Table::new(
        "E6: rollback cost vs. speculation depth (replay-based checkpointing)",
        &["depth", "rollbacks", "replayed ops", "re-executions"],
    );
    for &depth in depths {
        let r = measure(depth, ops_per_interval, seed);
        table.row(&[&depth, &r.rollbacks, &r.replayed_ops, &r.reexecutions]);
    }
    table
}

/// What one deny cost with `backlog` tagged messages queued behind it.
#[derive(Debug, Clone, Copy)]
pub struct BacklogResult {
    /// Tagged messages streamed to the sink before the deny.
    pub backlog: u32,
    /// Process re-executions, all processes.
    pub reexecutions: u64,
    /// Intervals rolled back, all processes.
    pub rollbacks: u64,
    /// HOPE protocol messages sent.
    pub hope_messages: u64,
    /// Doomed messages dropped before they could open an interval.
    pub cancelled: u64,
}

const CH_STREAM: u32 = 0;
const CH_DONE: u32 = 1;

/// A speculator guesses one assumption and streams `backlog` messages
/// tagged with it to a sink that only receives; the resolver denies the
/// assumption 5 ms later, when the sink has consumed them all.
pub fn measure_backlog(backlog: u32, seed: u64) -> BacklogResult {
    let mut env = HopeEnv::builder()
        .seed(seed)
        .network(NetworkConfig::lan())
        .build();
    let resolver = env.spawn_user("resolver", move |ctx| {
        let m = ctx.receive(None);
        ctx.compute(VirtualDuration::from_millis(5)); // let the backlog build
        ctx.deny(decode_aids(&m.data)[0]);
    });
    let sink = env.spawn_user(
        "sink",
        move |ctx| {
            while ctx.receive(None).channel != CH_DONE {}
        },
    );
    env.spawn_user("speculator", move |ctx| {
        let aid = ctx.aid_init();
        ctx.send(resolver, 0, encode_aids(&[aid]));
        if ctx.guess(aid) {
            for _ in 0..backlog {
                ctx.send(sink, CH_STREAM, Bytes::new());
            }
        }
        ctx.await_definite();
        ctx.send(sink, CH_DONE, Bytes::new());
    });
    let report = run_settled(&mut env, &[]);
    BacklogResult {
        backlog,
        reexecutions: report.hope.reexecutions,
        rollbacks: report.hope.rollbacks,
        hope_messages: report.run.stats.total_hope(),
        cancelled: report.hope.cancelled_intervals,
    }
}

/// Tabulates E6b.
pub fn backlog_table(results: &[BacklogResult]) -> crate::table::Table {
    let mut table = crate::table::Table::new(
        "E6b: one deny vs. the tagged backlog queued behind it (cancel on sight, S8)",
        &[
            "backlog",
            "re-executions",
            "rollbacks",
            "HOPE msgs",
            "cancelled",
        ],
    );
    for r in results {
        table.row(&[
            &r.backlog,
            &r.reexecutions,
            &r.rollbacks,
            &r.hope_messages,
            &r.cancelled,
        ]);
    }
    table
}

/// Operations replayed by one denied round after `settled` rounds that
/// were affirmed and went definite: each round is one guess with
/// `ops_per_round` logged operations inside it, and nothing but the last
/// round ever rolls back.
pub fn measure_settled(settled: u32, ops_per_round: u32, seed: u64) -> u64 {
    let mut env = HopeEnv::builder()
        .seed(seed)
        .network(NetworkConfig::lan())
        .build();
    let resolver = env.spawn_user("resolver", move |ctx| {
        for round in 0..=settled {
            let m = ctx.receive(None);
            let aid = decode_aids(&m.data)[0];
            if round < settled {
                ctx.affirm(aid);
            } else {
                ctx.deny(aid);
            }
        }
    });
    env.spawn_user("speculator", move |ctx| {
        for _ in 0..=settled {
            let aid = ctx.aid_init();
            ctx.send(resolver, 0, encode_aids(&[aid]));
            if ctx.guess(aid) {
                for _ in 0..ops_per_round {
                    let _ = ctx.random();
                }
            }
            ctx.await_definite();
        }
    });
    let report = run_settled(&mut env, &[]);
    assert_eq!(report.hope.reexecutions, 1, "only the last round is denied");
    report.hope.replayed_ops
}

/// Tabulates [`measure_settled`]: linear in N while re-execution starts
/// from the top of an op log that is never truncated (ROADMAP 1(b)).
pub fn settled_table(settled: &[u32], ops_per_round: u32, seed: u64) -> crate::table::Table {
    let mut table = crate::table::Table::new(
        "E6b: replay cost of one denied round vs. settled history \
         (linear until the op log is truncated at the definite frontier)",
        &["settled rounds N", "replayed ops", "replayed ops/N"],
    );
    for &n in settled {
        let replayed = measure_settled(n, ops_per_round, seed);
        table.row(&[
            &n,
            &replayed,
            &format_args!("{:.1}", replayed as f64 / f64::from(n)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_deny_is_paid_for_once_whatever_the_backlog() {
        let (small, large) = (measure_backlog(4, 1), measure_backlog(64, 1));
        // The speculator and the sink roll back once each.
        assert_eq!(small.reexecutions, 2);
        assert_eq!(large.reexecutions, 2);
        // Two guesses, one deny, two rollback notices.
        assert_eq!(small.hope_messages, 5);
        assert_eq!(large.hope_messages, 5);
        // One interval each: the sink's first receive opens it and every
        // later one is covered by it (DESIGN.md S9). The boundary message
        // goes with the rollback and every requeued one is dropped on
        // sight.
        assert_eq!(large.rollbacks, small.rollbacks);
        assert_eq!(large.rollbacks, 2);
        assert_eq!(large.cancelled, 63);
    }

    #[test]
    fn replay_of_a_denied_round_still_grows_with_settled_history() {
        assert!(measure_settled(16, 8, 1) > measure_settled(1, 8, 1));
    }

    #[test]
    fn denying_the_first_assumption_rolls_back_everything() {
        let r = measure(6, 4, 1);
        assert!(
            r.rollbacks >= 6,
            "the whole stack must roll back: {}",
            r.rollbacks
        );
        assert!(r.reexecutions >= 1);
    }

    #[test]
    fn replay_cost_grows_with_depth() {
        let shallow = measure(2, 4, 1);
        let deep = measure(12, 4, 1);
        assert!(
            deep.replayed_ops > shallow.replayed_ops,
            "{} vs {}",
            shallow.replayed_ops,
            deep.replayed_ops
        );
    }

    #[test]
    fn replay_cost_grows_with_interval_size() {
        let small = measure(4, 2, 1);
        let big = measure(4, 32, 1);
        assert!(big.replayed_ops >= small.replayed_ops);
    }

    #[test]
    fn sweep_shape() {
        let t = sweep(&[2, 4], 2, 1);
        assert_eq!(t.rows.len(), 2);
    }
}
