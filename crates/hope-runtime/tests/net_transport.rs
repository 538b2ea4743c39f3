//! Integration tests of the real TCP transport: loopback clusters,
//! exactly-once ordering across connection flaps, typed unreachable /
//! handshake-rejection errors, and the gateway seam bridging two
//! `ThreadedRuntime`s over sockets.

use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use hope_runtime::{
    BackoffPolicy, HeartbeatPolicy, NetConfig, NetTransport, NodeDirectory, ThreadedRuntime,
};
use hope_types::net::NodeId;
use hope_types::{Envelope, HopeError, Payload, UserMessage};

fn n(raw: u16) -> NodeId {
    NodeId::from_raw(raw)
}

/// Pre-binds one listener per node id so tests never race on ports, and
/// returns the listeners plus the directory describing them.
fn cluster(ids: &[u16]) -> (Vec<TcpListener>, NodeDirectory) {
    let mut dir = NodeDirectory::new();
    let mut listeners = Vec::new();
    for &id in ids {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        dir = dir.with_node(n(id), listener.local_addr().expect("addr"));
        listeners.push(listener);
    }
    (listeners, dir)
}

/// Fast-retry config for tests: millisecond timers instead of the
/// production defaults so flap recovery fits in a test budget.
fn fast(node: NodeId, dir: NodeDirectory) -> NetConfig {
    let mut cfg = NetConfig::new(node, dir);
    cfg.initial_rto_nanos = 20_000_000;
    cfg.tick_nanos = 1_000_000;
    cfg.backoff = BackoffPolicy {
        base_nanos: 2_000_000,
        cap_nanos: 50_000_000,
        seed: u64::from(node.as_raw()),
    };
    cfg.heartbeat = HeartbeatPolicy {
        interval_nanos: 20_000_000,
        timeout_nanos: 400_000_000,
    };
    cfg
}

#[test]
fn two_nodes_exchange_exactly_once_in_order() {
    let (mut listeners, dir) = cluster(&[1, 2]);
    let (tx1, rx1) = mpsc::channel::<(NodeId, Bytes)>();
    let (tx2, rx2) = mpsc::channel::<(NodeId, Bytes)>();
    let t1 = NetTransport::bind_on(
        fast(n(1), dir.clone()),
        listeners.remove(0),
        move |from, b| {
            tx1.send((from, b)).unwrap();
        },
    )
    .expect("bind node 1");
    let t2 = NetTransport::bind_on(fast(n(2), dir), listeners.remove(0), move |from, b| {
        tx2.send((from, b)).unwrap();
    })
    .expect("bind node 2");

    assert!(t1.wait_link_up(n(2), Duration::from_secs(5)), "1→2 up");
    assert!(t2.wait_link_up(n(1), Duration::from_secs(5)), "2→1 up");

    for i in 0u32..100 {
        t1.send(n(2), Bytes::from(i.to_le_bytes().to_vec()))
            .unwrap();
        t2.send(n(1), Bytes::from((1000 + i).to_le_bytes().to_vec()))
            .unwrap();
    }
    for i in 0u32..100 {
        let (from, b) = rx2.recv_timeout(Duration::from_secs(5)).expect("deliver");
        assert_eq!(from, n(1));
        assert_eq!(u32::from_le_bytes(b[..4].try_into().unwrap()), i);
        let (from, b) = rx1.recv_timeout(Duration::from_secs(5)).expect("deliver");
        assert_eq!(from, n(2));
        assert_eq!(u32::from_le_bytes(b[..4].try_into().unwrap()), 1000 + i);
    }
    for t in [&t1, &t2] {
        assert_eq!(t.wait_drained(Duration::from_secs(5)), 0, "all acked");
        assert!(t.drained(), "and no ack owed");
        // Acknowledgement is cumulative: a hundred in-order arrivals
        // share a handful of acks.
        let stats = t.stats();
        assert!((1..=100).contains(&stats.acks), "acks={}", stats.acks);
        assert!(stats.rtt_samples > 0, "estimator fed from live acks");
    }
}

#[test]
fn link_flap_preserves_order_without_loss_or_duplication() {
    let (mut listeners, dir) = cluster(&[1, 2]);
    let received = Arc::new(Mutex::new(Vec::<u32>::new()));
    let sink = Arc::clone(&received);
    let t1 = NetTransport::bind_on(fast(n(1), dir.clone()), listeners.remove(0), |_, _| {})
        .expect("bind node 1");
    let t2 = NetTransport::bind_on(fast(n(2), dir), listeners.remove(0), move |_, b| {
        sink.lock()
            .unwrap()
            .push(u32::from_le_bytes(b[..4].try_into().unwrap()));
    })
    .expect("bind node 2");
    assert!(t1.wait_link_up(n(2), Duration::from_secs(5)));

    // Stream 1..=300 with two mid-stream cuts on both ends of the link.
    for i in 1u32..=300 {
        t1.send(n(2), Bytes::from(i.to_le_bytes().to_vec()))
            .unwrap();
        if i == 100 {
            assert!(t1.kill_connection(n(2)), "first cut");
        }
        if i == 200 {
            t2.kill_connection(n(1));
        }
        if i % 50 == 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    assert_eq!(
        t1.wait_drained(Duration::from_secs(30)),
        0,
        "every send acked after reconnects (stats: {})",
        t1.stats()
    );
    // Drain any in-flight sink callbacks.
    std::thread::sleep(Duration::from_millis(50));
    let got = received.lock().unwrap().clone();
    let want: Vec<u32> = (1..=300).collect();
    assert_eq!(got, want, "exactly-once, in order, across both flaps");

    let s1 = t1.stats();
    assert!(s1.reconnects >= 1, "flap was a real reconnect: {s1}");
    assert!(s1.link_down_events >= 1);
    // The receiver dedup window survived the reconnects: any resent
    // survivor was suppressed, never double-delivered — checked by the
    // exact sequence above. (A kill can land with nothing unacked and
    // reconnect before the next send, so parked/retransmits may both
    // legitimately be zero.)
}

/// Regression: the acceptor flushes parked envelopes the instant its
/// handshake completes, so the dialer's kernel may coalesce the first
/// data frames into the same read that returns HelloOk. Those bytes must
/// be carried into the connection's reader, not dropped — dropping them
/// delayed the first envelopes to their retransmit timers, delivering
/// them out of order behind newer sends.
#[test]
fn frames_coalesced_with_handshake_are_not_lost_or_reordered() {
    for round in 0..10 {
        let (mut listeners, dir) = cluster(&[1, 2]);
        let received = Arc::new(Mutex::new(Vec::<u32>::new()));
        let sink = Arc::clone(&received);
        // Node 2 (acceptor; node 1 dials) starts first and parks a burst
        // before the dialer exists — flushed in one gulp at adopt time.
        let t2 = NetTransport::bind_on(fast(n(2), dir.clone()), listeners.remove(1), |_, _| {})
            .expect("bind node 2");
        for i in 1u32..=20 {
            t2.send(n(1), Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap();
        }
        let t1 = NetTransport::bind_on(fast(n(1), dir), listeners.remove(0), move |_, b| {
            sink.lock()
                .unwrap()
                .push(u32::from_le_bytes(b[..4].try_into().unwrap()));
        })
        .expect("bind node 1");
        assert_eq!(
            t2.wait_drained(Duration::from_secs(10)),
            0,
            "round {round}: all parked sends acked"
        );
        std::thread::sleep(Duration::from_millis(20));
        let got = received.lock().unwrap().clone();
        let want: Vec<u32> = (1..=20).collect();
        assert_eq!(got, want, "round {round}: first frames in order");
        drop(t1);
    }
}

#[test]
fn unknown_node_send_is_a_typed_error_with_counter() {
    let (mut listeners, dir) = cluster(&[1, 2]);
    let t1 = NetTransport::bind_on(fast(n(1), dir), listeners.remove(0), |_, _| {})
        .expect("bind node 1");
    let err = t1.send(n(9), Bytes::from_static(b"hi")).unwrap_err();
    assert_eq!(err, HopeError::NodeUnreachable(n(9)));
    assert_eq!(t1.stats().node_unreachable, 1);
}

#[test]
fn full_park_buffer_rejects_instead_of_blocking() {
    let (mut listeners, dir) = cluster(&[1, 2]);
    let mut cfg = fast(n(1), dir);
    cfg.park_limit = 8;
    // Node 2 never starts: the link stays down and sends park.
    let t1 = NetTransport::bind_on(cfg, listeners.remove(0), |_, _| {}).expect("bind node 1");
    for _ in 0..8 {
        t1.send(n(2), Bytes::from_static(b"parked")).unwrap();
    }
    let err = t1.send(n(2), Bytes::from_static(b"overflow")).unwrap_err();
    assert_eq!(err, HopeError::NodeUnreachable(n(2)));
    let stats = t1.stats();
    assert_eq!(stats.parked, 8);
    assert_eq!(stats.node_unreachable, 1);
}

#[test]
fn version_mismatch_is_a_typed_handshake_rejection() {
    let (mut listeners, dir) = cluster(&[1, 2]);
    let mut cfg1 = fast(n(1), dir.clone());
    cfg1.advertise_version = 99;
    let t1 = NetTransport::bind_on(cfg1, listeners.remove(0), |_, _| {}).expect("bind node 1");
    let _t2 = NetTransport::bind_on(fast(n(2), dir), listeners.remove(0), |_, _| {})
        .expect("bind node 2");

    // Node 1 dials with the bogus version; node 2 rejects it. The
    // rejection is surfaced on the next send as a typed error.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let err = loop {
        match t1.send(n(2), Bytes::from_static(b"hi")) {
            Err(e) => break e,
            Ok(()) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "rejection never surfaced; stats: {}",
                    t1.stats()
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };
    match err {
        HopeError::HandshakeRejected { node, reason } => {
            assert_eq!(node, n(2));
            assert!(reason.to_string().contains("version"), "reason: {reason}");
        }
        other => panic!("expected HandshakeRejected, got {other}"),
    }
    assert!(t1.stats().handshake_rejected >= 1);
    assert!(!t1.link_up(n(2)));
}

/// Two `ThreadedRuntime`s, one per "node", bridged by gateways over two
/// TCP transports: a process on runtime A sends to a gateway pid that
/// ships the envelope to node B, where it is injected and delivered to a
/// real process, which replies the same way.
#[test]
fn gateway_bridges_two_threaded_runtimes_over_tcp() {
    let (mut listeners, dir) = cluster(&[1, 2]);

    let rt_a = Arc::new(ThreadedRuntime::builder().shards(2).build());
    let rt_b = Arc::new(ThreadedRuntime::builder().shards(2).build());

    let (ta_tx, ta_rx) = mpsc::channel::<Bytes>();
    let (tb_tx, tb_rx) = mpsc::channel::<Bytes>();
    let t_a = Arc::new(
        NetTransport::bind_on(fast(n(1), dir.clone()), listeners.remove(0), move |_, b| {
            ta_tx.send(b).unwrap();
        })
        .expect("bind node A"),
    );
    let t_b = Arc::new(
        NetTransport::bind_on(fast(n(2), dir), listeners.remove(0), move |_, b| {
            tb_tx.send(b).unwrap();
        })
        .expect("bind node B"),
    );
    assert!(t_a.wait_link_up(n(2), Duration::from_secs(5)));

    // B: an echo process plus a gateway back to A.
    let (echo_done_tx, echo_done_rx) = mpsc::channel::<u32>();
    let echo = rt_b.spawn_threaded("echo", None, move |ctx| {
        for _ in 0..10 {
            let got = ctx.receive(None, &mut || false).expect("receive");
            let v = u32::from_le_bytes(got.msg.data[..4].try_into().unwrap());
            echo_done_tx.send(v).unwrap();
        }
    });
    let gw_b = {
        let t_b = Arc::clone(&t_b);
        rt_b.register_gateway("to-node-a", move |envelope| {
            let _ = t_b.send(n(1), envelope.encode());
        })
    };
    let _ = gw_b;

    // A: a sender process and a gateway pid standing in for B's echo.
    let gw_a = {
        let t_a = Arc::clone(&t_a);
        rt_a.register_gateway("to-node-b", move |envelope| {
            let _ = t_a.send(n(2), envelope.encode());
        })
    };
    rt_a.spawn_threaded("sender", None, move |ctx| {
        for i in 0u32..10 {
            ctx.send(
                gw_a,
                Payload::User(UserMessage::new(7, Bytes::from(i.to_le_bytes().to_vec()))),
            );
        }
    });

    // Pump: bytes arriving at B are re-addressed to the echo process and
    // injected into B's fabric.
    let pump_b = {
        let rt_b = Arc::clone(&rt_b);
        std::thread::spawn(move || {
            for _ in 0..10 {
                let bytes = tb_rx.recv_timeout(Duration::from_secs(10)).expect("wire b");
                let wire = Envelope::decode(&bytes).expect("decode");
                rt_b.inject(Envelope { dst: echo, ..wire });
            }
        })
    };

    let mut seen = Vec::new();
    for _ in 0..10 {
        seen.push(echo_done_rx.recv_timeout(Duration::from_secs(10)).unwrap());
    }
    pump_b.join().unwrap();
    assert_eq!(seen, (0..10).collect::<Vec<u32>>(), "in order across TCP");
    let _ = ta_rx; // reply path exercised by the cluster bench instead

    rt_a.run_until_quiescent(Duration::from_millis(20), Duration::from_secs(5));
    rt_b.run_until_quiescent(Duration::from_millis(20), Duration::from_secs(5));
}
