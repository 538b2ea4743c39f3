//! E7 — optimistic scientific programming (the paper's §6 pointer to
//! "Optimistic Programming in PVM" \[6\]).
//!
//! An iterative solver with distributed convergence detection: after each
//! iteration a worker must learn from the master whether the *global*
//! residual has converged. Synchronously that puts a network round trip on
//! every iteration's critical path. Optimistically, the worker guesses
//! "not converged yet" and starts the next iteration immediately; the
//! master affirms the guess while iterations remain, and denies it at the
//! convergence point — rolling back the few overshoot iterations the
//! worker speculated past the end.
//!
//! Expected shape: optimistic time ≈ K·C + overshoot, synchronous time ≈
//! K·(C + 2L); the speedup approaches (C + 2L)/C and the waste is bounded
//! by ≈ 2L/C rolled-back iterations per worker.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use hope_core::HopeEnv;
use hope_runtime::NetworkConfig;
use hope_types::{AidId, VirtualDuration, VirtualTime};

use crate::harness::run_settled;
use crate::{aid_of, decode_u64s, encode_u64s};

const CH_CHECK: u32 = 30;
const CH_VERDICT: u32 = 31;

/// Parameters of one solver run.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Worker count.
    pub workers: u32,
    /// Iterations until the global residual converges.
    pub iterations_to_converge: u32,
    /// Compute time per iteration per worker.
    pub compute: VirtualDuration,
    /// One-way network latency.
    pub latency: VirtualDuration,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            workers: 4,
            iterations_to_converge: 10,
            compute: VirtualDuration::from_millis(2),
            latency: VirtualDuration::from_millis(5),
            seed: 0,
        }
    }
}

/// Measured outcome of one solver run.
#[derive(Debug, Clone, Copy)]
pub struct SolverResult {
    /// Virtual time when the last worker committed its final iteration.
    pub completion: VirtualTime,
    /// Intervals rolled back (the speculation overshoot).
    pub rollbacks: u64,
    /// Every worker's committed final iteration (must equal
    /// `iterations_to_converge`); `u32::MAX` when workers disagreed.
    pub final_iteration: u32,
}

/// A convergence check: `(aid or 0, worker, iteration)`.
fn encode_check(aid: Option<AidId>, worker: u64, iter: u32) -> Bytes {
    encode_u64s(&[aid.map_or(0, |a| a.process().as_raw()), worker, iter.into()])
}

/// Runs the solver. `optimistic = false` waits for the master's verdict
/// every iteration; `true` speculates through the check.
pub fn run_solver(cfg: SolverConfig, optimistic: bool) -> SolverResult {
    let mut env = HopeEnv::builder()
        .seed(cfg.seed)
        .network(NetworkConfig::constant(cfg.latency))
        .build();
    let k = cfg.iterations_to_converge;
    let workers = cfg.workers;

    // The master knows the global residual schedule: converged at k.
    let master = env.spawn_user("master", move |ctx| {
        let mut finished = 0u32;
        while finished < workers {
            let msg = ctx.receive(Some(CH_CHECK));
            let check = decode_u64s(&msg.data);
            let (aid_raw, iter) = (check[0], check[2] as u32);
            let converged = iter + 1 >= k;
            if aid_raw != 0 {
                let aid = aid_of(aid_raw);
                if converged {
                    ctx.deny(aid);
                    finished += 1;
                } else {
                    ctx.affirm(aid);
                }
            } else {
                // Synchronous protocol: reply with the verdict.
                ctx.send(msg.src, CH_VERDICT, Bytes::from(vec![u8::from(converged)]));
                if converged {
                    finished += 1;
                }
            }
        }
    });

    let finals: Arc<Mutex<BTreeMap<u64, (u32, VirtualTime)>>> =
        Arc::new(Mutex::new(BTreeMap::new()));
    for w in 0..cfg.workers as u64 {
        let finals = finals.clone();
        let compute = cfg.compute;
        env.spawn_user(&format!("worker-{w}"), move |ctx| {
            let mut iter = 0u32;
            loop {
                ctx.compute(compute); // the iteration's real work
                if optimistic {
                    let cont = ctx.aid_init();
                    ctx.send(master, CH_CHECK, encode_check(Some(cont), w, iter));
                    if ctx.guess(cont) {
                        iter += 1; // speculate into the next iteration
                        continue;
                    }
                    break; // converged at `iter`
                } else {
                    ctx.send(master, CH_CHECK, encode_check(None, w, iter));
                    let verdict = ctx.receive(Some(CH_VERDICT));
                    if verdict.data[0] == 1 {
                        break;
                    }
                    iter += 1;
                }
            }
            if !ctx.is_replaying() {
                finals.lock().unwrap().insert(w, (iter, ctx.now()));
            }
        });
    }
    let report = run_settled(&mut env, &[]);
    let finals = finals.lock().unwrap();
    assert_eq!(finals.len(), cfg.workers as usize);
    let mut iterations: Vec<u32> = finals.values().map(|(i, _)| *i).collect();
    iterations.dedup();
    let final_iteration = if iterations.len() == 1 {
        iterations[0]
    } else {
        u32::MAX
    };
    let completion = finals
        .values()
        .map(|(_, t)| *t)
        .max()
        .unwrap_or(VirtualTime::ZERO);
    SolverResult {
        completion,
        rollbacks: report.hope.rollbacks,
        final_iteration,
    }
}

/// Sweeps the compute/latency ratio and tabulates speedup and waste.
pub fn sweep(cfg_base: SolverConfig, ratios: &[(u64, u64)]) -> crate::table::Table {
    let mut table = crate::table::Table::new(
        "E7: optimistic convergence detection (iterative solver, [6])",
        &[
            "compute/iter",
            "latency",
            "sync time",
            "optimistic time",
            "speedup",
            "wasted iters (rollbacks)",
        ],
    );
    for &(compute_us, latency_us) in ratios {
        let cfg = SolverConfig {
            compute: VirtualDuration::from_micros(compute_us),
            latency: VirtualDuration::from_micros(latency_us),
            ..cfg_base
        };
        let sync = run_solver(cfg, false);
        let optimistic = run_solver(cfg, true);
        assert_eq!(sync.final_iteration, optimistic.final_iteration);
        let (s, t) = (
            sync.completion.as_secs_f64(),
            optimistic.completion.as_secs_f64(),
        );
        table.row(&[
            &cfg.compute,
            &cfg.latency,
            &format_args!("{:.3}ms", s * 1e3),
            &format_args!("{:.3}ms", t * 1e3),
            &format_args!("{:.2}x", s / t.max(1e-12)),
            &optimistic.rollbacks,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_variants_converge_at_the_same_iteration() {
        let cfg = SolverConfig::default();
        let sync = run_solver(cfg, false);
        let optimistic = run_solver(cfg, true);
        assert_eq!(sync.final_iteration, cfg.iterations_to_converge - 1);
        assert_eq!(optimistic.final_iteration, sync.final_iteration);
    }

    #[test]
    fn optimism_removes_the_round_trip_from_each_iteration() {
        let cfg = SolverConfig::default(); // C=2ms, L=5ms, K=10
        let sync = run_solver(cfg, false);
        let optimistic = run_solver(cfg, true);
        // Sync ≈ 10 × 12 ms = 120 ms; optimistic ≈ 10 × 2 ms + tail.
        assert!(
            sync.completion.as_secs_f64() > optimistic.completion.as_secs_f64() * 2.0,
            "sync {} vs optimistic {}",
            sync.completion.as_secs_f64(),
            optimistic.completion.as_secs_f64()
        );
    }

    #[test]
    fn overshoot_is_bounded_by_the_latency_compute_ratio() {
        let cfg = SolverConfig {
            workers: 2,
            compute: VirtualDuration::from_millis(2),
            latency: VirtualDuration::from_millis(5),
            ..SolverConfig::default()
        };
        let optimistic = run_solver(cfg, true);
        // Overshoot per worker ≈ ceil(2L/C) = 5 iterations; allow slack
        // for the protocol tail but demand boundedness.
        let per_worker = optimistic.rollbacks / cfg.workers as u64;
        assert!(
            per_worker <= 10,
            "overshoot should be ≈ 2L/C ≈ 5, got {per_worker}"
        );
        assert!(per_worker >= 1, "speculation must overshoot at least once");
    }

    #[test]
    fn sync_variant_never_rolls_back() {
        let sync = run_solver(SolverConfig::default(), false);
        assert_eq!(sync.rollbacks, 0);
    }

    #[test]
    fn sweep_rows() {
        let t = sweep(
            SolverConfig {
                workers: 2,
                iterations_to_converge: 5,
                ..SolverConfig::default()
            },
            &[(2_000, 1_000), (2_000, 10_000)],
        );
        assert_eq!(t.rows.len(), 2);
    }
}
