//! E6 — rollback/replay cost versus speculation depth.
//!
//! The replay substitute for process checkpointing (DESIGN.md S2) pays for
//! a rollback by re-executing the operation-log prefix. This workload
//! stacks `depth` intervals (each with some logged traffic), denies the
//! *first* assumption, and measures how much work the rollback caused —
//! the cost grows linearly with the log prefix, the price of checkpoints
//! that occupy no memory.

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

#[cfg(test)]
mod tests {
    use super::*;

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
