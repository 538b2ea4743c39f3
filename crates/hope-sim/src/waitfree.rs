//! E4 — the wait-free property: HOPE primitive cost is flat in network
//! latency, while synchronous RPC cost grows linearly.
//!
//! "It is an important design criterion that all of the remote operations
//! resulting from user processes executing HOPE primitives be
//! asynchronous: user processes executing HOPE primitives should never
//! have to wait for a message from another process." (§5)

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use hope_core::HopeEnv;
use hope_rpc::{RpcClient, RpcServer};
use hope_runtime::NetworkConfig;
use hope_types::VirtualDuration;

use crate::harness::run_settled;

/// Measured costs at one latency point.
#[derive(Debug, Clone, Copy)]
pub struct WaitfreeResult {
    /// One-way latency configured.
    pub latency: VirtualDuration,
    /// Virtual time spent executing a guess+affirm+free_of batch.
    pub primitive_cost: VirtualDuration,
    /// Virtual time spent on one synchronous RPC (the contrast).
    pub rpc_cost: VirtualDuration,
}

/// Measures primitive cost vs. RPC cost at one latency.
pub fn measure(latency: VirtualDuration, seed: u64) -> WaitfreeResult {
    let mut env = HopeEnv::builder()
        .seed(seed)
        .network(NetworkConfig::constant(latency))
        .build();
    let server = env.spawn_user("echo", |ctx| {
        RpcServer::serve(ctx, |_ctx, _m, body| body.clone());
    });
    let out = Arc::new(Mutex::new((VirtualDuration::ZERO, VirtualDuration::ZERO)));
    let o = out.clone();
    env.spawn_user("probe", move |ctx| {
        // A representative batch of primitives.
        let t0 = ctx.now();
        let x = ctx.aid_init();
        let y = ctx.aid_init();
        let _ = ctx.guess(x);
        ctx.affirm(y);
        let _ = ctx.free_of(y);
        ctx.affirm(x);
        let t1 = ctx.now();
        // One synchronous RPC for contrast.
        let _ = RpcClient::call(ctx, server, 0, Bytes::from_static(b"ping"));
        let t2 = ctx.now();
        if !ctx.is_replaying() {
            *o.lock().unwrap() = (t1 - t0, t2 - t1);
        }
    });
    run_settled(&mut env, &["echo"]);
    let (primitive_cost, rpc_cost) = *out.lock().unwrap();
    WaitfreeResult {
        latency,
        primitive_cost,
        rpc_cost,
    }
}

/// Sweeps latency and tabulates the contrast.
pub fn sweep(latencies: &[VirtualDuration], seed: u64) -> crate::table::Table {
    let mut table = crate::table::Table::new(
        "E4: wait-freedom — primitive cost vs. sync RPC cost by network latency",
        &["latency", "HOPE primitives", "sync RPC"],
    );
    for &latency in latencies {
        let r = measure(latency, seed);
        table.row(&[&latency, &r.primitive_cost, &r.rpc_cost]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_cost_zero_at_any_latency() {
        for millis in [0u64, 1, 10, 100] {
            let r = measure(VirtualDuration::from_millis(millis), 1);
            assert_eq!(
                r.primitive_cost,
                VirtualDuration::ZERO,
                "primitives must never wait (latency {millis} ms)"
            );
        }
    }

    #[test]
    fn rpc_cost_scales_with_latency() {
        let r1 = measure(VirtualDuration::from_millis(1), 1);
        let r10 = measure(VirtualDuration::from_millis(10), 1);
        assert_eq!(r1.rpc_cost, VirtualDuration::from_millis(2));
        assert_eq!(r10.rpc_cost, VirtualDuration::from_millis(20));
    }

    #[test]
    fn sweep_emits_one_row_per_latency() {
        let t = sweep(
            &[
                VirtualDuration::from_micros(100),
                VirtualDuration::from_millis(15),
            ],
            2,
        );
        assert_eq!(t.rows.len(), 2);
    }
}
