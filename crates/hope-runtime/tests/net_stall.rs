//! Regression: a peer that completes the handshake and then stops reading
//! (SIGSTOP, a black-holed partition behind a full send buffer) must not
//! wedge the supervisor thread that would notice. Socket writes time out
//! after the heartbeat timeout and a timed-out write drops the link.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hope_runtime::{HeartbeatPolicy, NetConfig, NetTransport, NodeDirectory};
use hope_types::net::{Frame, FrameKind, FrameReader, NodeHello, NodeId};

fn n(raw: u16) -> NodeId {
    NodeId::from_raw(raw)
}

#[test]
fn stalled_peer_drops_the_link_and_never_blocks_send() {
    let l1 = TcpListener::bind("127.0.0.1:0").expect("bind");
    let l2 = TcpListener::bind("127.0.0.1:0").expect("bind");
    let dir = NodeDirectory::new()
        .with_node(n(1), l1.local_addr().expect("addr"))
        .with_node(n(2), l2.local_addr().expect("addr"));

    // Node 2 by hand: answers every Hello with HelloOk, then holds the
    // socket open and never reads or writes again.
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for stream in l2.incoming() {
            let Ok(mut stream) = stream else { return };
            let (mut reader, mut buf) = (FrameReader::new(), [0u8; 256]);
            while !matches!(reader.next_frame(), Ok(Some(f)) if f.kind == FrameKind::Hello) {
                match stream.read(&mut buf) {
                    Ok(read) if read > 0 => reader.feed(&buf[..read]),
                    _ => break,
                }
            }
            let ok = Frame::new(FrameKind::HelloOk, NodeHello::current(n(2)).encode());
            let _ = stream.write_all(&ok.encode());
            held.push(stream);
        }
    });

    let mut cfg = NetConfig::new(n(1), dir);
    cfg.tick_nanos = 1_000_000;
    cfg.heartbeat = HeartbeatPolicy {
        interval_nanos: 50_000_000,
        timeout_nanos: 300_000_000,
    };
    let timeout = Duration::from_nanos(cfg.heartbeat.timeout_nanos);
    let t1 = NetTransport::bind_on(cfg, l1, |_, _| {}).expect("bind node 1");
    assert!(t1.wait_link_up(n(2), Duration::from_secs(5)), "handshake");

    // Far more than loopback socket buffers hold, at once: the
    // supervisor is deep in a blocked write well before silence alone
    // would have ended the link, so only the write timeout can.
    let chunk = Bytes::from(vec![7u8; 1 << 20]);
    let start = Instant::now();
    let mut slowest = Duration::ZERO;
    let mut sent = 0;
    while t1.stats().link_down_events == 0 {
        assert!(
            start.elapsed() < 4 * timeout,
            "link still up after {:?} ({sent} MiB queued): {}",
            start.elapsed(),
            t1.stats()
        );
        if sent < 48 {
            let before = Instant::now();
            t1.send(n(2), chunk.clone()).expect("accepted");
            slowest = slowest.max(before.elapsed());
            sent += 1;
        } else {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    assert!(
        slowest < timeout / 2,
        "send waited on the network: {slowest:?}"
    );
    assert_eq!(t1.in_flight(), sent, "nothing was acknowledged or lost");
}
