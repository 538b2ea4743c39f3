//! E-net: a socket-level network chaos proxy.
//!
//! [`NetChaos`] sits between a dialing node and a real TCP listener and
//! misbehaves on command: one-way or full partitions (bytes black-holed
//! while the socket stays "connected" — the failure heartbeats exist to
//! catch), hard connection resets, and *mid-frame* cuts (the stream is
//! severed after an exact byte budget, leaving a partial frame in the
//! peer's reader — the case the length-prefixed codec must reject and the
//! reconnect machinery must recover from). Cut points can be drawn from a
//! seeded schedule ([`seeded_cut_points`]) so soak runs are reproducible.
//!
//! The proxy is transport-agnostic — it forwards opaque bytes — so the
//! same tool drives the `hope-bench` cluster partition-heal scenario and
//! the regression tests here.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Byte budget value meaning "no scheduled cut".
const NO_CUT: u64 = u64::MAX;

struct Ctl {
    shutdown: AtomicBool,
    /// Black-hole client→server bytes (one-way partition).
    drop_a_to_b: AtomicBool,
    /// Black-hole server→client bytes.
    drop_b_to_a: AtomicBool,
    /// Refuse (accept-then-reset) new connections — set during full
    /// partitions so reconnect dials fail fast instead of stalling in
    /// their handshake.
    refuse_new: AtomicBool,
    /// Remaining bytes until a one-shot mid-stream cut ([`NO_CUT`] off).
    cut_budget: Mutex<u64>,
    /// Total payload bytes forwarded (both directions).
    forwarded: AtomicU64,
    /// Connections accepted so far.
    accepted: AtomicU64,
    /// Live proxied streams, for hard resets.
    live: Mutex<Vec<TcpStream>>,
}

/// A chaos TCP proxy: listens on an ephemeral localhost port and
/// forwards every accepted connection to `target`, subject to the
/// currently-commanded misbehaviour. Point the *dialing* node's
/// directory entry for its peer at [`NetChaos::frontend`] and the link
/// runs through the proxy.
pub struct NetChaos {
    ctl: Arc<Ctl>,
    frontend: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl NetChaos {
    /// Starts the proxy in front of `target`.
    pub fn spawn(target: SocketAddr) -> io::Result<NetChaos> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let frontend = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let ctl = Arc::new(Ctl {
            shutdown: AtomicBool::new(false),
            drop_a_to_b: AtomicBool::new(false),
            drop_b_to_a: AtomicBool::new(false),
            refuse_new: AtomicBool::new(false),
            cut_budget: Mutex::new(NO_CUT),
            forwarded: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            live: Mutex::new(Vec::new()),
        });
        let accept_ctl = Arc::clone(&ctl);
        let accept_thread = std::thread::spawn(move || accept_loop(accept_ctl, listener, target));
        Ok(NetChaos {
            ctl,
            frontend,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address dialers should connect to instead of the real target.
    pub fn frontend(&self) -> SocketAddr {
        self.frontend
    }

    /// Full partition: black-hole both directions on live connections
    /// and reset any new connection attempt. Existing sockets stay
    /// "connected" — only heartbeat timeouts can tell.
    pub fn partition(&self) {
        self.ctl.drop_a_to_b.store(true, Ordering::Release);
        self.ctl.drop_b_to_a.store(true, Ordering::Release);
        self.ctl.refuse_new.store(true, Ordering::Release);
    }

    /// One-way partition: black-hole client→server when `a_to_b`, the
    /// reverse otherwise. The other direction keeps flowing.
    pub fn partition_one_way(&self, a_to_b: bool) {
        if a_to_b {
            self.ctl.drop_a_to_b.store(true, Ordering::Release);
        } else {
            self.ctl.drop_b_to_a.store(true, Ordering::Release);
        }
    }

    /// Heals all partitions and accepts new connections again.
    pub fn heal(&self) {
        self.ctl.drop_a_to_b.store(false, Ordering::Release);
        self.ctl.drop_b_to_a.store(false, Ordering::Release);
        self.ctl.refuse_new.store(false, Ordering::Release);
    }

    /// Arms a one-shot cut: after exactly `bytes` more forwarded payload
    /// bytes, the carrying connection is severed — typically mid-frame.
    pub fn cut_after(&self, bytes: u64) {
        *self.ctl.cut_budget.lock().unwrap() = bytes;
    }

    /// Hard-resets every live proxied connection right now (seeded
    /// connection-reset injection: call at seeded instants).
    pub fn kill_all(&self) {
        let live = self.ctl.live.lock().unwrap();
        for stream in live.iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Total payload bytes forwarded in both directions.
    pub fn forwarded_bytes(&self) -> u64 {
        self.ctl.forwarded.load(Ordering::Acquire)
    }

    /// Connections accepted since the proxy started.
    pub fn connections(&self) -> u64 {
        self.ctl.accepted.load(Ordering::Acquire)
    }
}

impl Drop for NetChaos {
    fn drop(&mut self) {
        self.ctl.shutdown.store(true, Ordering::Release);
        self.kill_all();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// A deterministic schedule of `count` cut points, each in `[lo, hi)`
/// bytes: the seeded side of "seeded connection resets". Feed each value
/// to [`NetChaos::cut_after`] once the previous cut has happened.
pub fn seeded_cut_points(seed: u64, count: usize, lo: u64, hi: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6375_745f_7365_6564);
    (0..count)
        .map(|_| {
            if hi <= lo {
                lo
            } else {
                rng.random_range(lo..hi)
            }
        })
        .collect()
}

fn accept_loop(ctl: Arc<Ctl>, listener: TcpListener, target: SocketAddr) {
    while !ctl.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((client, _)) => {
                if ctl.refuse_new.load(Ordering::Acquire) {
                    // Connection-reset injection: accept, then slam shut.
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
                let Ok(server) = TcpStream::connect_timeout(&target, Duration::from_millis(500))
                else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                ctl.accepted.fetch_add(1, Ordering::AcqRel);
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                register(&ctl, &client);
                register(&ctl, &server);
                spawn_pump(&ctl, &client, &server, Dir::AToB);
                spawn_pump(&ctl, &server, &client, Dir::BToA);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn register(ctl: &Ctl, stream: &TcpStream) {
    if let Ok(clone) = stream.try_clone() {
        let mut live = ctl.live.lock().unwrap();
        // Opportunistic GC of long-dead entries to keep the list small.
        if live.len() > 64 {
            live.clear();
        }
        live.push(clone);
    }
}

#[derive(Clone, Copy)]
enum Dir {
    AToB,
    BToA,
}

fn spawn_pump(ctl: &Arc<Ctl>, from: &TcpStream, to: &TcpStream, dir: Dir) {
    let (Ok(from), Ok(to)) = (from.try_clone(), to.try_clone()) else {
        return;
    };
    let ctl = Arc::clone(ctl);
    std::thread::spawn(move || pump(ctl, from, to, dir));
}

fn pump(ctl: Arc<Ctl>, mut from: TcpStream, mut to: TcpStream, dir: Dir) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 8192];
    while !ctl.shutdown.load(Ordering::Acquire) {
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                ctl.forwarded.fetch_add(n as u64, Ordering::AcqRel);
                let dropped = match dir {
                    Dir::AToB => ctl.drop_a_to_b.load(Ordering::Acquire),
                    Dir::BToA => ctl.drop_b_to_a.load(Ordering::Acquire),
                };
                if dropped {
                    continue; // black hole: consume, never forward
                }
                // One-shot mid-frame cut: forward exactly the remaining
                // budget, then sever both directions.
                let cut_now = {
                    let mut budget = ctl.cut_budget.lock().unwrap();
                    if *budget == NO_CUT {
                        None
                    } else if (n as u64) < *budget {
                        *budget -= n as u64;
                        None
                    } else {
                        let keep = *budget as usize;
                        *budget = NO_CUT;
                        Some(keep)
                    }
                };
                match cut_now {
                    None => {
                        if to.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                    Some(keep) => {
                        let _ = to.write_all(&buf[..keep]);
                        break;
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    use bytes::Bytes;
    use hope_runtime::{BackoffPolicy, HeartbeatPolicy, NetConfig, NetTransport, NodeDirectory};
    use hope_types::net::NodeId;

    /// A trivial echo server; returns its address.
    fn echo_server() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            while let Ok((mut stream, _)) = listener.accept() {
                std::thread::spawn(move || {
                    let mut buf = [0u8; 1024];
                    while let Ok(len) = stream.read(&mut buf) {
                        if len == 0 || stream.write_all(&buf[..len]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn forwards_transparently_when_clean() {
        let proxy = NetChaos::spawn(echo_server()).unwrap();
        let mut client = TcpStream::connect(proxy.frontend()).unwrap();
        client.write_all(b"hello through the proxy").unwrap();
        let mut got = [0u8; 23];
        client.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello through the proxy");
        assert!(proxy.forwarded_bytes() >= 46, "both directions counted");
        assert_eq!(proxy.connections(), 1);
    }

    #[test]
    fn one_way_partition_black_holes_one_direction_only() {
        let proxy = NetChaos::spawn(echo_server()).unwrap();
        let mut client = TcpStream::connect(proxy.frontend()).unwrap();
        client.write_all(b"before").unwrap();
        let mut got = [0u8; 6];
        client.read_exact(&mut got).unwrap();

        proxy.partition_one_way(true); // client→server vanishes
        client.write_all(b"lost!!").unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut buf = [0u8; 6];
        assert!(
            client.read_exact(&mut buf).is_err(),
            "echo of black-holed bytes must never arrive"
        );

        proxy.heal();
        client.write_all(b"after!").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"after!", "healed link flows again");
    }

    #[test]
    fn cut_after_severs_mid_stream() {
        let proxy = NetChaos::spawn(echo_server()).unwrap();
        let mut client = TcpStream::connect(proxy.frontend()).unwrap();
        proxy.cut_after(10); // mid-"frame" for a 20-byte write
        client.write_all(&[0xAB; 20]).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match client.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
            }
        }
        assert!(
            got.len() <= 10,
            "at most the pre-cut bytes echo back, got {}",
            got.len()
        );
    }

    #[test]
    fn seeded_cut_points_are_deterministic_and_bounded() {
        let a = seeded_cut_points(42, 8, 100, 5_000);
        let b = seeded_cut_points(42, 8, 100, 5_000);
        assert_eq!(a, b);
        assert!(a.iter().all(|&c| (100..5_000).contains(&c)));
        assert_ne!(a, seeded_cut_points(43, 8, 100, 5_000));
    }

    /// The regression the tentpole demands: a transport link running
    /// through the proxy survives a full partition — sends park, the
    /// supervisor reconnects after heal, and the receiver observes the
    /// whole stream exactly once, in order.
    #[test]
    fn transport_partition_heal_preserves_exactly_once_order() {
        fn n(raw: u16) -> NodeId {
            NodeId::from_raw(raw)
        }
        // Node 2's real listener, fronted by the proxy for node 1's dials.
        let l2 = TcpListener::bind("127.0.0.1:0").unwrap();
        let proxy = NetChaos::spawn(l2.local_addr().unwrap()).unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let dir1 = NodeDirectory::new()
            .with_node(n(1), l1.local_addr().unwrap())
            .with_node(n(2), proxy.frontend());
        let dir2 = NodeDirectory::new()
            .with_node(n(1), l1.local_addr().unwrap())
            .with_node(n(2), l2.local_addr().unwrap());
        let fast = |node: NodeId, dir: NodeDirectory| {
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
                timeout_nanos: 150_000_000,
            };
            cfg
        };
        let (tx, rx) = mpsc::channel::<u32>();
        let t1 = NetTransport::bind_on(fast(n(1), dir1), l1, |_, _| {}).unwrap();
        let _t2 = NetTransport::bind_on(fast(n(2), dir2), l2, move |_, b| {
            tx.send(u32::from_le_bytes(b[..4].try_into().unwrap()))
                .unwrap();
        })
        .unwrap();
        assert!(t1.wait_link_up(n(2), Duration::from_secs(5)));

        for i in 1u32..=50 {
            t1.send(n(2), Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap();
        }
        let mut got = Vec::new();
        while got.len() < 50 {
            got.push(rx.recv_timeout(Duration::from_secs(5)).unwrap());
        }

        proxy.partition();
        // Sends during the outage park (possibly after a few slip onto
        // the dead socket — they retransmit after heal).
        for i in 51u32..=100 {
            t1.send(n(2), Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap();
        }
        // Wait until the heartbeat timeout declares the link down.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while t1.link_up(n(2)) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!t1.link_up(n(2)), "partition detected via heartbeats");

        proxy.heal();
        assert!(t1.wait_link_up(n(2), Duration::from_secs(10)), "reconnect");
        while got.len() < 100 {
            got.push(
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("post-heal delivery"),
            );
        }
        assert_eq!(
            got,
            (1..=100).collect::<Vec<u32>>(),
            "exactly once, in order"
        );
        assert_eq!(t1.wait_drained(Duration::from_secs(10)), 0);
        let stats = t1.stats();
        assert!(stats.reconnects >= 1, "{stats}");
        assert!(stats.link_down_events >= 1);
        assert!(proxy.connections() >= 2, "reconnect went through the proxy");
    }
}
