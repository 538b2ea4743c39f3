//! E9 — a mixed soak workload: many streaming clients, multiple servers,
//! jittered links, imperfect predictors. Not a figure from the paper but
//! the load profile a deployed HOPE would face; it measures client call
//! latency percentiles and validates global correctness under sustained
//! rollback pressure.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use hope_core::HopeEnv;
use hope_runtime::NetworkConfig;
use hope_types::{VirtualDuration, VirtualTime};

use crate::chain::{spawn_stage_server, stage_fn, streamed_call};
use crate::harness::run_settled;

/// Parameters of one soak run.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Concurrent streaming clients.
    pub clients: u32,
    /// Echo-style servers, assigned round-robin.
    pub servers: u32,
    /// Calls per client.
    pub calls_per_client: u32,
    /// Predictor accuracy in [0, 1].
    pub accuracy: f64,
    /// Latency jitter bounds.
    pub latency_min: VirtualDuration,
    /// Upper jitter bound.
    pub latency_max: VirtualDuration,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            clients: 8,
            servers: 2,
            calls_per_client: 10,
            accuracy: 0.9,
            latency_min: VirtualDuration::from_micros(200),
            latency_max: VirtualDuration::from_millis(2),
            seed: 0,
        }
    }
}

/// Measured outcome of one soak run.
#[derive(Debug, Clone)]
pub struct SoakResult {
    /// Per-call committed latencies (ms), across all clients.
    pub call_latencies_ms: Vec<f64>,
    /// Total rollbacks.
    pub rollbacks: u64,
    /// Virtual time at quiescence.
    pub quiescent: VirtualTime,
    /// True if every client's final accumulator matched the deterministic
    /// reference.
    pub all_correct: bool,
}

/// Runs the soak. Each client chains `calls_per_client` dependent calls
/// through its round-robin server with an accuracy-degraded predictor.
pub fn run(cfg: SoakConfig) -> SoakResult {
    let mut env = HopeEnv::builder()
        .seed(cfg.seed)
        .network(NetworkConfig::uniform(cfg.latency_min, cfg.latency_max))
        .build();
    let server_names: Vec<String> = (0..cfg.servers).map(|s| format!("server-{s}")).collect();
    let service = VirtualDuration::from_micros(20);
    let servers: Vec<_> = server_names
        .iter()
        .map(|name| spawn_stage_server(&mut env, name, service))
        .collect();
    // Keyed by client, last write wins: a rollback arriving after the body
    // finished re-executes it, and the re-execution's record supersedes.
    let latencies: Arc<Mutex<BTreeMap<u32, Vec<f64>>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let correct: Arc<Mutex<BTreeMap<u32, bool>>> = Arc::new(Mutex::new(BTreeMap::new()));
    for c in 0..cfg.clients {
        let server = servers[(c % cfg.servers) as usize];
        let latencies = latencies.clone();
        let correct = correct.clone();
        let calls = cfg.calls_per_client;
        let accuracy = cfg.accuracy;
        env.spawn_user(&format!("client-{c}"), move |ctx| {
            let mut value = 1 + c as u64;
            let expected = {
                let mut v = value;
                for _ in 0..calls {
                    v = stage_fn(v);
                }
                v
            };
            let mut my_latencies = Vec::new();
            for _ in 0..calls {
                ctx.compute(VirtualDuration::from_micros(50));
                let start = ctx.now();
                value = streamed_call(ctx, server, value, accuracy);
                let elapsed = ctx.now() - start;
                if !ctx.is_replaying() {
                    my_latencies.push(elapsed.as_millis_f64());
                }
            }
            if !ctx.is_replaying() {
                latencies.lock().unwrap().insert(c, my_latencies.clone());
                correct.lock().unwrap().insert(c, value == expected);
            }
        });
    }
    // The servers are open-loop `serve`s and linger in `receive`.
    let lingering: Vec<&str> = server_names.iter().map(String::as_str).collect();
    let report = run_settled(&mut env, &lingering);
    let call_latencies_ms: Vec<f64> = latencies
        .lock()
        .unwrap()
        .values()
        .flatten()
        .copied()
        .collect();
    let flags = correct.lock().unwrap().clone();
    SoakResult {
        call_latencies_ms,
        rollbacks: report.hope.rollbacks,
        quiescent: report.run.now,
        all_correct: flags.len() == cfg.clients as usize && flags.values().all(|&b| b),
    }
}

/// Sweeps predictor accuracy and tabulates latency percentiles.
pub fn sweep(accuracies: &[f64], cfg_base: SoakConfig) -> crate::table::Table {
    let mut table = crate::table::Table::new(
        "E9: mixed soak — call latency percentiles vs. predictor accuracy",
        &["accuracy", "p50", "p90", "p99", "rollbacks", "correct"],
    );
    for &accuracy in accuracies {
        let r = run(SoakConfig {
            accuracy,
            ..cfg_base
        });
        let p = |q| crate::table::percentile(&r.call_latencies_ms, q);
        table.row(&[
            &format_args!("{accuracy:.2}"),
            &format_args!("{:.3}ms", p(0.5)),
            &format_args!("{:.3}ms", p(0.9)),
            &format_args!("{:.3}ms", p(0.99)),
            &r.rollbacks,
            &r.all_correct,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions_give_zero_latency_calls() {
        let r = run(SoakConfig {
            accuracy: 1.0,
            clients: 4,
            calls_per_client: 5,
            ..SoakConfig::default()
        });
        assert!(r.all_correct);
        assert_eq!(r.rollbacks, 0);
        assert!(
            r.call_latencies_ms.iter().all(|&l| l == 0.0),
            "every committed call should be wait-free"
        );
    }

    #[test]
    fn soak_stays_correct_under_heavy_misprediction() {
        let r = run(SoakConfig {
            accuracy: 0.3,
            clients: 6,
            calls_per_client: 8,
            seed: 9,
            ..SoakConfig::default()
        });
        assert!(r.all_correct, "rollback storms must not corrupt results");
        assert!(r.rollbacks > 0);
    }

    #[test]
    fn latency_percentiles_degrade_with_accuracy() {
        let good = run(SoakConfig {
            accuracy: 1.0,
            ..SoakConfig::default()
        });
        let bad = run(SoakConfig {
            accuracy: 0.0,
            ..SoakConfig::default()
        });
        let p99_good = crate::table::percentile(&good.call_latencies_ms, 0.99);
        let p99_bad = crate::table::percentile(&bad.call_latencies_ms, 0.99);
        assert!(p99_bad > p99_good);
        assert!(bad.all_correct);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SoakConfig {
            accuracy: 0.7,
            seed: 11,
            ..SoakConfig::default()
        };
        let a = run(cfg);
        let b = run(cfg);
        assert_eq!(a.call_latencies_ms, b.call_latencies_ms);
        assert_eq!(a.rollbacks, b.rollbacks);
    }

    #[test]
    fn sweep_rows() {
        let t = sweep(
            &[1.0, 0.5],
            SoakConfig {
                clients: 3,
                calls_per_client: 4,
                ..SoakConfig::default()
            },
        );
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows.iter().all(|r| r[5] == "true"));
    }
}
