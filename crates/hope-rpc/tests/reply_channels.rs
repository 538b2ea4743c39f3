//! Reply-channel collision regression and PR-4 wire-coding coverage.
//!
//! The original allocator drew reply channels from 31 random bits with no
//! collision check; two in-flight calls could alias and each would consume
//! the other's reply. The sequence-derived allocator makes aliasing
//! impossible, and these tests pin the observable contract: many
//! overlapping calls all pair with their own replies, including over the
//! reliable sublayer, where each dependency tag travels in full.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use hope_core::HopeEnv;
use hope_rpc::{RpcClient, RpcServer, StreamingClient};
use hope_runtime::NetworkConfig;
use hope_types::VirtualDuration;

/// Spawns an adder server: method m, body [x] -> [x + m].
fn spawn_adder(env: &mut HopeEnv) -> hope_types::ProcessId {
    env.spawn_user("adder", |ctx| {
        RpcServer::serve(ctx, |ctx, method, body| {
            ctx.compute(VirtualDuration::from_micros(10));
            Bytes::from(vec![body[0].wrapping_add(method as u8)])
        });
    })
}

/// Many overlapping streamed calls from one client: every promise must
/// redeem to its own call's reply. Under the random allocator two of the
/// 24 in-flight calls sharing a channel would cross-wire their replies.
#[test]
fn overlapping_calls_keep_their_replies_apart() {
    let mut env = HopeEnv::builder()
        .seed(13)
        .network(NetworkConfig::constant(VirtualDuration::from_millis(5)))
        .build();
    let server = spawn_adder(&mut env);
    let out = Arc::new(Mutex::new(Vec::new()));
    let o = out.clone();
    env.spawn_user("client", move |ctx| {
        let promises: Vec<_> = (0..24u8)
            .map(|i| {
                StreamingClient::call(
                    ctx,
                    server,
                    0,
                    Bytes::from(vec![i]),
                    Bytes::from(vec![200]), // wrong: force the receive path
                )
            })
            .collect();
        let replies: Vec<u8> = promises
            .into_iter()
            .map(|p| p.redeem_actual(ctx)[0])
            .collect();
        if !ctx.is_replaying() {
            *o.lock().unwrap() = replies;
        }
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    let replies = out.lock().unwrap().clone();
    assert_eq!(replies, (0..24u8).collect::<Vec<_>>());
}

/// RPC traffic over the reliable sublayer: every reply of a sequenced,
/// acknowledged client<->server exchange comes back, in order.
#[test]
fn rpc_over_reliable_link_returns_every_reply() {
    let mut env = HopeEnv::builder()
        .seed(14)
        .network(NetworkConfig::constant(VirtualDuration::from_millis(2)))
        .reliable(true)
        .build();
    let server = spawn_adder(&mut env);
    let out = Arc::new(Mutex::new(Vec::new()));
    let o = out.clone();
    env.spawn_user("client", move |ctx| {
        let mut replies = Vec::new();
        for i in 0..8u8 {
            let reply = RpcClient::call(ctx, server, 1, Bytes::from(vec![i]));
            replies.push(reply[0]);
        }
        if !ctx.is_replaying() {
            *o.lock().unwrap() = replies;
        }
        RpcServer::stop(ctx, server);
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert_eq!(out.lock().unwrap().clone(), (1..=8u8).collect::<Vec<_>>());
    assert!(report.run.stats.link().acks > 0, "the sublayer was on");
}
