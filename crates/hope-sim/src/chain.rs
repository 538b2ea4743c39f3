//! E3 — dependent RPC chains: the "up to 70 % RPC improvement" claim.
//!
//! A client makes `depth` *dependent* calls to a remote stage server: each
//! request carries the previous reply. Synchronously that costs
//! `depth × (2·latency + service)`. With call streaming and a predictor of
//! accuracy `a`, correctly predicted calls overlap their round trips
//! completely; a misprediction rolls the client back to the redeem point
//! and pays the round trip after all.
//!
//! The *improvement* `1 − streamed/sequential` rises with depth toward the
//! paper's ~70 % figure (measured in its companion paper \[11\]) and falls
//! as the predictor degrades.

use std::sync::{Arc, Mutex};

use hope_core::{HopeEnv, HopeReport, ProcessCtx};
use hope_rpc::{RpcClient, RpcServer, StreamingClient};
use hope_runtime::NetworkConfig;
use hope_types::{ProcessId, VirtualDuration, VirtualTime};

use crate::harness::run_settled;
use crate::{decode_u64s, encode_u64s};

/// The stage function every server applies: a cheap, deterministic mix so
/// each call's argument genuinely depends on the previous reply.
pub fn stage_fn(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// Parameters of one chain run.
#[derive(Debug, Clone, Copy)]
pub struct ChainConfig {
    /// Number of dependent calls.
    pub depth: u32,
    /// One-way network latency.
    pub latency: VirtualDuration,
    /// Server service time per call.
    pub service: VirtualDuration,
    /// Client CPU time between issuing calls (keeps send order realistic
    /// and models the work the paper overlaps with communication).
    pub local_work: VirtualDuration,
    /// Predictor accuracy in [0, 1]: each prediction is independently
    /// correct with this probability (seeded, deterministic).
    pub accuracy: f64,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            depth: 4,
            latency: VirtualDuration::from_millis(10),
            service: VirtualDuration::from_micros(100),
            local_work: VirtualDuration::from_micros(20),
            accuracy: 1.0,
            seed: 0,
        }
    }
}

/// Measured outcome of one chain run.
#[derive(Debug, Clone, Copy)]
pub struct ChainResult {
    /// Client completion (virtual) — the committed value of the final
    /// reply is in hand.
    pub client_time: VirtualDuration,
    /// Virtual time at quiescence (all verification finished).
    pub quiescent: VirtualTime,
    /// Final chained value (correctness witness).
    pub value: u64,
    /// Intervals rolled back.
    pub rollbacks: u64,
}

/// Spawns an open-loop server that applies [`stage_fn`] to each request
/// after `service` of compute (shared with the soak workload).
pub(crate) fn spawn_stage_server(
    env: &mut HopeEnv,
    name: &str,
    service: VirtualDuration,
) -> ProcessId {
    env.spawn_user(name, move |ctx| {
        RpcServer::serve(ctx, move |ctx, _method, body| {
            ctx.compute(service);
            encode_u64s(&[stage_fn(decode_u64s(body)[0])])
        });
    })
}

/// One streamed call of `stage_fn(value)` under an oracle predictor
/// degraded to `accuracy`: the coin comes from the context so it replays
/// deterministically. Returns the committed reply.
pub(crate) fn streamed_call(
    ctx: &mut ProcessCtx<'_>,
    server: ProcessId,
    value: u64,
    accuracy: f64,
) -> u64 {
    let correct = stage_fn(value);
    let coin = (ctx.random() as f64) / (u64::MAX as f64);
    let predicted = if coin < accuracy { correct } else { !correct };
    let (request, predicted) = (encode_u64s(&[value]), encode_u64s(&[predicted]));
    let promise = StreamingClient::call(ctx, server, 0, request, predicted);
    let (reply, _was_predicted) = promise.redeem(ctx);
    decode_u64s(&reply)[0]
}

/// The reference value the chain must produce.
pub fn expected_value(depth: u32) -> u64 {
    let mut v = 1u64;
    for _ in 0..depth {
        v = stage_fn(v);
    }
    v
}

/// Spawns the stage server (pid 0) and a client (pid 1) that makes `depth`
/// dependent calls through `call`, runs to quiescence — the stage server
/// is an open-loop `serve` and lingers in `receive` — and reads off the
/// client's committed completion.
fn run_chain(
    mut env: HopeEnv,
    cfg: ChainConfig,
    call: impl Fn(&mut ProcessCtx<'_>, ProcessId, u64) -> u64 + Send + 'static,
) -> (ChainResult, HopeReport) {
    let server = spawn_stage_server(&mut env, "stage", cfg.service);
    let out = Arc::new(Mutex::new((VirtualTime::ZERO, 0u64)));
    let o = out.clone();
    env.spawn_user("client", move |ctx| {
        let mut value = 1u64;
        for _ in 0..cfg.depth {
            ctx.compute(cfg.local_work);
            value = call(ctx, server, value);
        }
        if !ctx.is_replaying() {
            *o.lock().unwrap() = (ctx.now(), value);
        }
    });
    let report = run_settled(&mut env, &["stage"]);
    let (t, value) = *out.lock().unwrap();
    let result = ChainResult {
        client_time: t.saturating_duration_since(VirtualTime::ZERO),
        quiescent: report.run.now,
        value,
        rollbacks: report.hope.rollbacks,
    };
    (result, report)
}

fn plain_env(cfg: ChainConfig) -> HopeEnv {
    HopeEnv::builder()
        .seed(cfg.seed)
        .network(NetworkConfig::constant(cfg.latency))
        .build()
}

/// Runs the chain with plain synchronous RPC (the baseline).
pub fn run_sequential(cfg: ChainConfig) -> ChainResult {
    let call = |ctx: &mut ProcessCtx<'_>, server, value| {
        decode_u64s(&RpcClient::call(ctx, server, 0, encode_u64s(&[value])))[0]
    };
    run_chain(plain_env(cfg), cfg, call).0
}

/// Runs the chain with optimistic call streaming and an `accuracy`-grade
/// predictor.
pub fn run_streaming(cfg: ChainConfig) -> ChainResult {
    run_streaming_in(plain_env(cfg), cfg).0
}

/// Runs the streaming chain in a caller-built environment, also handing
/// back the full [`HopeReport`] (the chaos workload uses this to add
/// fault injection and read the link-layer counters). Spawn order is
/// part of the contract: the stage server first, then the client.
pub fn run_streaming_in(env: HopeEnv, cfg: ChainConfig) -> (ChainResult, HopeReport) {
    let accuracy = cfg.accuracy;
    run_chain(env, cfg, move |ctx, server, value| {
        streamed_call(ctx, server, value, accuracy)
    })
}

/// Sweeps chain depth × predictor accuracy, reporting the RPC improvement
/// (1 − streamed/sequential), the experiment behind the paper's "up to
/// 70 %" claim.
pub fn sweep(depths: &[u32], accuracies: &[f64], seed: u64) -> crate::table::Table {
    let mut table = crate::table::Table::new(
        "E3: RPC improvement from call streaming (dependent chains)",
        &[
            "depth",
            "accuracy",
            "sequential",
            "streamed",
            "improvement",
            "rollbacks",
        ],
    );
    for &depth in depths {
        for &accuracy in accuracies {
            let cfg = ChainConfig {
                depth,
                accuracy,
                seed,
                ..ChainConfig::default()
            };
            let seq = run_sequential(cfg);
            let stream = run_streaming(cfg);
            assert_eq!(seq.value, expected_value(depth));
            assert_eq!(
                stream.value, seq.value,
                "streaming must converge to the same value"
            );
            let s = seq.quiescent.as_secs_f64() * 1e3;
            let t = stream.quiescent.as_secs_f64() * 1e3;
            table.row(&[
                &depth,
                &format_args!("{accuracy:.2}"),
                &format_args!("{s:.3}ms"),
                &format_args!("{t:.3}ms"),
                &format_args!("{:.1}%", (1.0 - t / s.max(1e-12)) * 100.0),
                &stream.rollbacks,
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_pays_depth_round_trips() {
        let cfg = ChainConfig::default();
        let r = run_sequential(cfg);
        assert_eq!(r.value, expected_value(cfg.depth));
        // 4 × (20 ms + 100 µs + 20 µs local) ≈ 80.5 ms
        assert!(r.client_time >= VirtualDuration::from_millis(80));
        assert_eq!(r.rollbacks, 0);
    }

    #[test]
    fn perfect_predictions_hide_nearly_all_latency() {
        let cfg = ChainConfig::default();
        let seq = run_sequential(cfg);
        let stream = run_streaming(cfg);
        assert_eq!(stream.value, seq.value);
        let improvement =
            1.0 - stream.client_time.as_millis_f64() / seq.client_time.as_millis_f64();
        assert!(
            improvement > 0.7,
            "depth-4 perfect streaming should beat the paper's 70%: got {:.1}%",
            improvement * 100.0
        );
        assert_eq!(stream.rollbacks, 0);
    }

    #[test]
    fn zero_accuracy_still_converges_to_the_right_value() {
        let cfg = ChainConfig {
            accuracy: 0.0,
            depth: 3,
            ..ChainConfig::default()
        };
        let stream = run_streaming(cfg);
        assert_eq!(stream.value, expected_value(3));
        assert!(stream.rollbacks >= 3, "every prediction must roll back");
    }

    #[test]
    fn zero_accuracy_is_not_faster_than_sequential() {
        let cfg = ChainConfig {
            accuracy: 0.0,
            depth: 3,
            ..ChainConfig::default()
        };
        let seq = run_sequential(cfg);
        let stream = run_streaming(cfg);
        assert!(
            stream.client_time.as_nanos() >= seq.client_time.as_nanos() * 9 / 10,
            "mispredicted streaming cannot beat sequential: {} vs {}",
            stream.client_time,
            seq.client_time
        );
    }

    #[test]
    fn end_to_end_improvement_grows_with_depth() {
        // The client-visible improvement saturates immediately (perfect
        // predictions hide everything); the *end-to-end* improvement —
        // including the verification tail at quiescence — grows with
        // depth toward 100% as the fixed verification tail amortizes.
        let imp = |depth| {
            let cfg = ChainConfig {
                depth,
                ..ChainConfig::default()
            };
            let seq = run_sequential(cfg);
            let stream = run_streaming(cfg);
            1.0 - stream.quiescent.as_secs_f64() / seq.quiescent.as_secs_f64()
        };
        let i2 = imp(2);
        let i4 = imp(4);
        let i8 = imp(8);
        assert!(i4 > i2, "deeper chains hide more latency: {i2} vs {i4}");
        assert!(i8 > i4, "{i4} vs {i8}");
        // The end-to-end improvement follows ≈ 1 − 2/depth: ~50% at 4,
        // crossing the paper's 70% around depth 7.
        assert!(i4 > 0.45, "depth 4 should approach 50%: {i4}");
        assert!(i8 > 0.7, "depth 8 should clear the paper's 70%: {i8}");
    }

    #[test]
    fn sweep_has_expected_rows() {
        let t = sweep(&[2, 4], &[1.0], 3);
        assert_eq!(t.rows.len(), 2);
    }
}
