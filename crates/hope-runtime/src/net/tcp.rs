//! The real TCP transport: framed streams, handshakes, supervised links.
//!
//! A [`NetTransport`] is one node's view of a small static cluster: a
//! [`NodeDirectory`] names every node and its socket address, a listener
//! thread accepts inbound connections, and one supervisor thread per
//! remote peer owns that link's lifecycle — dialing (lower node id dials,
//! higher accepts, though either side adopts a freshly handshaken socket),
//! capped-backoff reconnects, heartbeats, retransmit timers, and all
//! writes to the socket. A per-connection reader thread parses frames and
//! feeds the reliable sublayer.
//!
//! ## Degradation invariants
//!
//! * `send` never blocks on the network: while a peer is unreachable the
//!   envelope parks in the bounded retransmit buffer (`parked` counter in
//!   [`LinkStats`]) and is transmitted after reconnect; when the buffer
//!   is full, `send` returns [`HopeError::NodeUnreachable`] instead of
//!   blocking, so callers on the shard fabric stay wait-free.
//! * Exactly-once across flaps: TCP orders bytes within one connection;
//!   the reliable sublayer's sequence numbers, retransmit buffer and
//!   dedup window (which all survive reconnects) cover the gap *between*
//!   connections, so a flap neither drops, duplicates, nor reorders the
//!   committed stream.
//! * Karn's rule at the transport: envelopes parked during an outage or
//!   resent on a fresh connection carry stale send timestamps and are
//!   excluded from RTT sampling; the Jacobson/Karels estimator is clamped
//!   to the wall band ([`crate::reliable::WALL_RTO_MIN_NANOS`] ..
//!   [`crate::reliable::WALL_RTO_MAX_NANOS`]).

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hope_types::net::{
    Frame, FrameKind, FrameReader, HelloReject, NodeHello, NodeId, FEATURE_HEARTBEAT,
    FEATURE_RELIABLE,
};
use hope_types::{Envelope, HopeError, Payload, ProcessId, UserMessage, VirtualTime};

use crate::net::supervisor::{BackoffPolicy, HeartbeatPolicy};
use crate::reliable::{
    backoff_nanos, LinkId, ReliableState, WALL_RTO_MAX_NANOS, WALL_RTO_MIN_NANOS,
};
use crate::stats::LinkStats;

/// Static cluster membership: every node's id and socket address.
///
/// Deliberately a plain map with no discovery protocol — cluster
/// composition is part of the experiment configuration, exactly like the
/// paper's PVM host file.
#[derive(Debug, Clone, Default)]
pub struct NodeDirectory {
    nodes: BTreeMap<NodeId, SocketAddr>,
}

impl NodeDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        NodeDirectory::default()
    }

    /// Adds (or replaces) a node's address; builder-style.
    pub fn with_node(mut self, node: NodeId, addr: SocketAddr) -> Self {
        self.nodes.insert(node, addr);
        self
    }

    /// The address registered for `node`, if any.
    pub fn addr_of(&self, node: NodeId) -> Option<SocketAddr> {
        self.nodes.get(&node).copied()
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains_key(&node)
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates members in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, SocketAddr)> + '_ {
        self.nodes.iter().map(|(&n, &a)| (n, a))
    }
}

/// Configuration for one node's [`NetTransport`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// This node's id (must appear in `directory`).
    pub node: NodeId,
    /// Cluster membership.
    pub directory: NodeDirectory,
    /// Initial retransmission timeout before any RTT samples.
    pub initial_rto_nanos: u64,
    /// Maximum envelopes parked per peer while its link is down; beyond
    /// this, `send` returns [`HopeError::NodeUnreachable`].
    pub park_limit: usize,
    /// Reconnect backoff policy.
    pub backoff: BackoffPolicy,
    /// Liveness heartbeat policy.
    pub heartbeat: HeartbeatPolicy,
    /// Supervisor tick (timer granularity) in nanoseconds.
    pub tick_nanos: u64,
    /// Protocol version to advertise in the handshake. Defaults to
    /// [`hope_types::net::PROTOCOL_VERSION`]; tests override it to
    /// exercise typed version-mismatch rejection.
    pub advertise_version: u16,
}

impl NetConfig {
    /// Defaults tuned for localhost clusters: 50 ms initial RTO, 10 ms
    /// base backoff capped at 1 s, 100 ms heartbeats with a 500 ms death
    /// timeout, 5 ms supervisor tick, 1024-envelope park buffers.
    pub fn new(node: NodeId, directory: NodeDirectory) -> Self {
        NetConfig {
            node,
            directory,
            initial_rto_nanos: 50_000_000,
            park_limit: 1024,
            backoff: BackoffPolicy {
                base_nanos: 10_000_000,
                cap_nanos: 1_000_000_000,
                seed: u64::from(node.as_raw()),
            },
            heartbeat: HeartbeatPolicy {
                interval_nanos: 100_000_000,
                timeout_nanos: 500_000_000,
            },
            tick_nanos: 5_000_000,
            advertise_version: hope_types::net::PROTOCOL_VERSION,
        }
    }
}

/// The pseudo process id a node appears as inside the transport's own
/// reliable sublayer. Transport sequencing is node-to-node, independent
/// of application process ids.
fn node_pid(node: NodeId) -> ProcessId {
    ProcessId::from_raw(u64::from(node.as_raw()))
}

/// Commands delivered to a peer's supervisor thread, which owns the
/// socket writer.
enum Cmd {
    /// A new application send (already tracked in the reliable state).
    Send(u64),
    /// The peer acknowledged this seq; stop retransmitting it.
    Acked(u64),
    /// Send an Ack frame for a received seq.
    ReplyAck(u64),
    /// Answer a Ping.
    SendPong,
    /// A handshaken inbound connection to adopt, plus the frame reader
    /// carrying any bytes the kernel coalesced into the handshake read
    /// (the peer may start streaming data the instant its handshake
    /// completes; dropping those bytes would reorder the stream).
    Socket(TcpStream, FrameReader),
    /// The reader for connection generation `.0` died.
    Closed(u64),
    /// Transport is shutting down.
    Shutdown,
}

struct Shared {
    cfg: NetConfig,
    reliable: Mutex<ReliableState>,
    stats: Mutex<LinkStats>,
    sink: Box<dyn Fn(NodeId, Bytes) + Send + Sync>,
    epoch: Instant,
    shutdown: AtomicBool,
}

impl Shared {
    fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

struct Peer {
    node: NodeId,
    cmd_tx: Sender<Cmd>,
    up: AtomicBool,
    /// Envelopes currently parked awaiting reconnect (gauge).
    parked_now: AtomicU64,
    /// Wall nanos (transport epoch) when the peer was last heard from.
    last_heard: AtomicU64,
    /// Set when the peer rejected our handshake; `send` surfaces it.
    rejected: Mutex<Option<HelloReject>>,
    /// Current connection, for the chaos `kill_connection` hook.
    conn: Mutex<Option<TcpStream>>,
}

/// Per-seq retransmission bookkeeping, supervisor-local.
#[derive(Default)]
struct Retry {
    next_nanos: u64,
    attempt: u64,
    transmitted: bool,
}

/// A TCP transport endpoint for one cluster node.
///
/// Construct with [`NetTransport::bind`] (or
/// [`NetTransport::bind_on`] with a pre-bound listener, which sidesteps
/// port races in tests). Delivered payloads arrive on the `sink`
/// callback, exactly once each, in per-peer send order.
pub struct NetTransport {
    shared: Arc<Shared>,
    peers: BTreeMap<NodeId, Arc<Peer>>,
    local_addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl NetTransport {
    /// Binds the listener at this node's directory address and starts
    /// the link supervisors.
    pub fn bind(
        cfg: NetConfig,
        sink: impl Fn(NodeId, Bytes) + Send + Sync + 'static,
    ) -> io::Result<NetTransport> {
        let addr = cfg.directory.addr_of(cfg.node).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "own node id not in directory")
        })?;
        NetTransport::bind_on(cfg, TcpListener::bind(addr)?, sink)
    }

    /// Starts the transport on an already-bound listener.
    pub fn bind_on(
        cfg: NetConfig,
        listener: TcpListener,
        sink: impl Fn(NodeId, Bytes) + Send + Sync + 'static,
    ) -> io::Result<NetTransport> {
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            reliable: Mutex::new(ReliableState::with_rto_bounds(
                cfg.initial_rto_nanos,
                WALL_RTO_MIN_NANOS,
                WALL_RTO_MAX_NANOS,
            )),
            stats: Mutex::new(LinkStats::default()),
            sink: Box::new(sink),
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            cfg,
        });

        let mut peers = BTreeMap::new();
        let mut threads = Vec::new();
        let members: Vec<NodeId> = shared.cfg.directory.iter().map(|(n, _)| n).collect();
        for node in members {
            if node == shared.cfg.node {
                continue;
            }
            let (cmd_tx, cmd_rx) = mpsc::channel();
            let peer = Arc::new(Peer {
                node,
                cmd_tx,
                up: AtomicBool::new(false),
                parked_now: AtomicU64::new(0),
                last_heard: AtomicU64::new(0),
                rejected: Mutex::new(None),
                conn: Mutex::new(None),
            });
            let (sh, pr) = (Arc::clone(&shared), Arc::clone(&peer));
            threads.push(std::thread::spawn(move || {
                Supervisor::new(sh, pr).run(cmd_rx)
            }));
            peers.insert(node, peer);
        }

        let accept_peers = peers.clone();
        let sh = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            accept_loop(sh, listener, accept_peers)
        }));

        Ok(NetTransport {
            shared,
            peers,
            local_addr,
            threads,
        })
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.shared.cfg.node
    }

    /// The address the listener actually bound (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Sends `data` to `to` with exactly-once, in-order delivery across
    /// connection flaps. Never blocks on the network: while the link is
    /// down the envelope parks in the bounded retransmit buffer. Returns
    /// [`HopeError::NodeUnreachable`] for unknown nodes or a full park
    /// buffer, [`HopeError::HandshakeRejected`] once the peer has
    /// refused our handshake.
    pub fn send(&self, to: NodeId, data: Bytes) -> hope_types::Result<()> {
        let Some(peer) = self.peers.get(&to) else {
            self.shared.stats.lock().unwrap().node_unreachable += 1;
            return Err(HopeError::NodeUnreachable(to));
        };
        if let Some(reason) = *peer.rejected.lock().unwrap() {
            return Err(HopeError::HandshakeRejected { node: to, reason });
        }
        let up = peer.up.load(Ordering::Acquire);
        if !up && peer.parked_now.load(Ordering::Relaxed) >= self.shared.cfg.park_limit as u64 {
            self.shared.stats.lock().unwrap().node_unreachable += 1;
            return Err(HopeError::NodeUnreachable(to));
        }
        let link = (node_pid(self.shared.cfg.node), node_pid(to));
        let now = self.shared.now_nanos();
        let seq = {
            let mut rel = self.shared.reliable.lock().unwrap();
            let seq = rel.assign_seq(link);
            rel.track(Envelope {
                src: link.0,
                dst: link.1,
                sent_at: VirtualTime::from_nanos(now),
                seq,
                payload: Payload::User(UserMessage::new(0, data)),
            });
            if !up {
                // The park delay will make the send timestamp stale;
                // exclude the eventual ack from RTT sampling.
                rel.mark_retransmitted(link, seq);
            }
            seq
        };
        if !up {
            peer.parked_now.fetch_add(1, Ordering::Relaxed);
            self.shared.stats.lock().unwrap().parked += 1;
        }
        let _ = peer.cmd_tx.send(Cmd::Send(seq));
        Ok(())
    }

    /// Whether the link to `peer` is currently connected.
    pub fn link_up(&self, peer: NodeId) -> bool {
        self.peers
            .get(&peer)
            .is_some_and(|p| p.up.load(Ordering::Acquire))
    }

    /// Polls until the link to `peer` is up or `timeout` elapses.
    pub fn wait_link_up(&self, peer: NodeId, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.link_up(peer) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.link_up(peer)
    }

    /// Envelopes tracked but not yet acknowledged, across all peers.
    pub fn in_flight(&self) -> usize {
        self.shared.reliable.lock().unwrap().in_flight()
    }

    /// Polls until nothing is in flight or `timeout` elapses; returns
    /// the final in-flight count.
    pub fn wait_drained(&self, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.in_flight() == 0 {
                return 0;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.in_flight()
    }

    /// A snapshot of the transport's link counters.
    pub fn stats(&self) -> LinkStats {
        *self.shared.stats.lock().unwrap()
    }

    /// Chaos hook: hard-closes the current connection to `peer` (both
    /// directions), as a mid-stream network cut would. The supervisor
    /// notices and reconnects with backoff. Returns false when no
    /// connection was up.
    pub fn kill_connection(&self, peer: NodeId) -> bool {
        let Some(p) = self.peers.get(&peer) else {
            return false;
        };
        let conn = p.conn.lock().unwrap();
        match conn.as_ref() {
            Some(stream) => {
                let _ = stream.shutdown(Shutdown::Both);
                true
            }
            None => false,
        }
    }
}

impl Drop for NetTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for peer in self.peers.values() {
            let _ = peer.cmd_tx.send(Cmd::Shutdown);
            if let Some(stream) = peer.conn.lock().unwrap().as_ref() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Accept loop: nonblocking accepts polled on the tick, inline
/// handshake validation, sockets routed to the owning supervisor.
fn accept_loop(shared: Arc<Shared>, listener: TcpListener, peers: BTreeMap<NodeId, Arc<Peer>>) {
    let tick = Duration::from_nanos(shared.cfg.tick_nanos);
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Some((node, stream, carry)) = handshake_accept(&shared, stream) {
                    if let Some(peer) = peers.get(&node) {
                        let _ = peer.cmd_tx.send(Cmd::Socket(stream, carry));
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(tick),
            Err(_) => std::thread::sleep(tick),
        }
    }
}

/// Validates one inbound handshake: reads the Hello, checks version and
/// directory membership, replies HelloOk or a typed HelloReject.
fn handshake_accept(
    shared: &Shared,
    stream: TcpStream,
) -> Option<(NodeId, TcpStream, FrameReader)> {
    let mut stream = stream;
    stream.set_nonblocking(false).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    let (hello, carry) = match read_one_frame(&mut stream) {
        Some((f, carry)) if f.kind == FrameKind::Hello => (NodeHello::decode(&f.payload)?, carry),
        _ => return None,
    };
    let ours = shared.cfg.advertise_version;
    let verdict = if hello.version != ours {
        Err(HelloReject::VersionMismatch {
            ours,
            theirs: hello.version,
        })
    } else if hello.node == shared.cfg.node {
        Err(HelloReject::IdCollision(hello.node))
    } else if !shared.cfg.directory.contains(hello.node) {
        Err(HelloReject::UnknownNode(hello.node))
    } else {
        Ok(hello.node)
    };
    match verdict {
        Ok(node) => {
            let ok = NodeHello {
                node: shared.cfg.node,
                version: ours,
                features: FEATURE_RELIABLE | FEATURE_HEARTBEAT,
            };
            let frame = Frame::new(FrameKind::HelloOk, Bytes::from(ok.encode().to_vec()));
            stream.write_all(&frame.encode()).ok()?;
            let _ = stream.set_nodelay(true);
            Some((node, stream, carry))
        }
        Err(reject) => {
            shared.stats.lock().unwrap().handshake_rejected += 1;
            let frame = Frame::new(
                FrameKind::HelloReject,
                Bytes::from(reject.encode().to_vec()),
            );
            let _ = stream.write_all(&frame.encode());
            None
        }
    }
}

/// Reads exactly one frame from a blocking stream (with its configured
/// read timeout). Used only during handshakes. Returns the reader too:
/// the kernel may coalesce bytes written *after* the handshake frame
/// (the peer's first data frames) into the same read, and they must be
/// handed to the connection's read loop, not dropped.
fn read_one_frame(stream: &mut TcpStream) -> Option<(Frame, FrameReader)> {
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Ok(Some(frame)) = reader.next_frame() {
            return Some((frame, reader));
        }
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => reader.feed(&buf[..n]),
            Err(_) => return None,
        }
    }
}

/// Dials `peer` and runs the client side of the handshake. On success
/// returns the stream plus the frame reader carrying any data bytes
/// that arrived coalesced with the HelloOk.
fn handshake_dial(shared: &Shared, peer: &Peer) -> Result<(TcpStream, FrameReader), DialError> {
    let addr = shared
        .cfg
        .directory
        .addr_of(peer.node)
        .ok_or(DialError::Io)?;
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).map_err(|_| DialError::Io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(|_| DialError::Io)?;
    let hello = NodeHello {
        node: shared.cfg.node,
        version: shared.cfg.advertise_version,
        features: FEATURE_RELIABLE | FEATURE_HEARTBEAT,
    };
    let frame = Frame::new(FrameKind::Hello, Bytes::from(hello.encode().to_vec()));
    stream
        .write_all(&frame.encode())
        .map_err(|_| DialError::Io)?;
    match read_one_frame(&mut stream) {
        Some((f, carry)) if f.kind == FrameKind::HelloOk => {
            let _ = stream.set_nodelay(true);
            Ok((stream, carry))
        }
        Some((f, _)) if f.kind == FrameKind::HelloReject => match HelloReject::decode(&f.payload) {
            Some(reason) => Err(DialError::Rejected(reason)),
            None => Err(DialError::Io),
        },
        _ => Err(DialError::Io),
    }
}

enum DialError {
    Io,
    Rejected(HelloReject),
}

/// The per-peer supervisor: owns the link state machine and all socket
/// writes for this peer.
struct Supervisor {
    shared: Arc<Shared>,
    peer: Arc<Peer>,
    /// This node's data link to the peer in the reliable sublayer.
    link: LinkId,
    conn: Option<TcpStream>,
    /// Counts adopted connections, so a dead reader's `Closed` cannot
    /// take down its successor.
    generation: u64,
    outstanding: BTreeMap<u64, Retry>,
    /// Consecutive failed connections: the backoff exponent.
    attempt: u32,
    next_dial: u64,
    last_tx: u64,
    ever_connected: bool,
}

impl Supervisor {
    fn new(shared: Arc<Shared>, peer: Arc<Peer>) -> Supervisor {
        Supervisor {
            link: (node_pid(shared.cfg.node), node_pid(peer.node)),
            shared,
            peer,
            conn: None,
            generation: 0,
            outstanding: BTreeMap::new(),
            attempt: 0,
            next_dial: 0,
            last_tx: 0,
            ever_connected: false,
        }
    }

    fn run(mut self, cmd_rx: Receiver<Cmd>) {
        let tick = Duration::from_nanos(self.shared.cfg.tick_nanos);
        let i_dial = self.shared.cfg.node < self.peer.node;

        'outer: loop {
            // Drain commands; block at most one tick so timers keep firing.
            let mut first = Some(cmd_rx.recv_timeout(tick));
            loop {
                let cmd = match first.take() {
                    Some(Ok(c)) => c,
                    Some(Err(RecvTimeoutError::Timeout)) => break,
                    Some(Err(RecvTimeoutError::Disconnected)) => break 'outer,
                    None => match cmd_rx.try_recv() {
                        Ok(c) => c,
                        Err(_) => break,
                    },
                };
                match cmd {
                    Cmd::Send(seq) => {
                        self.outstanding.insert(seq, Retry::default());
                    }
                    Cmd::Acked(seq) => {
                        self.outstanding.remove(&seq);
                    }
                    Cmd::ReplyAck(seq) => {
                        let seq = Bytes::from(seq.to_le_bytes().to_vec());
                        self.write(Frame::new(FrameKind::Ack, seq));
                    }
                    Cmd::SendPong => {
                        self.write(Frame::new(FrameKind::Pong, Bytes::new()));
                    }
                    Cmd::Socket(stream, carry) => self.adopt(stream, carry),
                    Cmd::Closed(gen) => {
                        if gen == self.generation {
                            self.drop_link();
                        }
                    }
                    Cmd::Shutdown => break 'outer,
                }
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let now = self.shared.now_nanos();

            let dial_due = self.conn.is_none() && i_dial && now >= self.next_dial;
            if dial_due && self.peer.rejected.lock().unwrap().is_none() {
                match handshake_dial(&self.shared, &self.peer) {
                    Ok((stream, carry)) => self.adopt(stream, carry),
                    Err(DialError::Rejected(reason)) => {
                        self.shared.stats.lock().unwrap().handshake_rejected += 1;
                        *self.peer.rejected.lock().unwrap() = Some(reason);
                    }
                    Err(DialError::Io) => self.link_down(now),
                }
            }

            // Death check first: a silent peer means the socket is lies.
            if let Some(stream) = self.conn.as_ref() {
                let heard = self.peer.last_heard.load(Ordering::Acquire);
                if self.shared.cfg.heartbeat.link_dead(now, heard) {
                    let _ = stream.shutdown(Shutdown::Both);
                    self.drop_link();
                }
            }
            if self.conn.is_some() && self.shared.cfg.heartbeat.ping_due(now, self.last_tx) {
                self.write(Frame::new(FrameKind::Ping, Bytes::new()));
            }
            if self.conn.is_some() {
                self.transmit_due();
            }
        }

        if let Some(stream) = self.conn.as_ref() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Writes one frame on the current connection; a failed write drops
    /// the link. Returns whether the frame went out.
    fn write(&mut self, frame: Frame) -> bool {
        let Some(stream) = self.conn.as_mut() else {
            return false;
        };
        if stream.write_all(&frame.encode()).is_err() {
            self.drop_link();
            return false;
        }
        self.last_tx = self.shared.now_nanos();
        true
    }

    /// Counts a failed connection and schedules the next dial, backing
    /// off from `now`.
    fn link_down(&mut self, now: u64) {
        self.shared.stats.lock().unwrap().link_down_events += 1;
        self.next_dial = now + self.shared.cfg.backoff.delay_nanos(self.attempt);
        self.attempt = self.attempt.saturating_add(1);
    }

    /// Marks the link down (if it was up) and schedules the next dial.
    fn drop_link(&mut self) {
        if self.conn.take().is_some() {
            self.peer.up.store(false, Ordering::Release);
            *self.peer.conn.lock().unwrap() = None;
            self.link_down(self.shared.now_nanos());
        }
    }

    /// Adopts a freshly handshaken connection: spawns its reader, marks
    /// the link up, and schedules every outstanding envelope for
    /// (re)transmit.
    fn adopt(&mut self, stream: TcpStream, carry: FrameReader) {
        if let Some(old) = self.conn.take() {
            let _ = old.shutdown(Shutdown::Both);
        }
        self.generation += 1;
        let gen = self.generation;
        let (Ok(reader_stream), Ok(peer_handle)) = (stream.try_clone(), stream.try_clone()) else {
            return;
        };
        let (shared, peer) = (&self.shared, &self.peer);
        *peer.conn.lock().unwrap() = Some(peer_handle);
        peer.last_heard.store(shared.now_nanos(), Ordering::Release);
        peer.up.store(true, Ordering::Release);
        peer.parked_now.store(0, Ordering::Relaxed);
        if self.ever_connected {
            shared.stats.lock().unwrap().reconnects += 1;
        }
        self.ever_connected = true;
        self.attempt = 0;
        // Anything transmitted on the dead connection may or may not have
        // arrived; resend it all (dedup suppresses survivors) and exclude
        // the ambiguous acks from RTT sampling (Karn's rule).
        {
            let mut rel = shared.reliable.lock().unwrap();
            let record = rel.link_mut(self.link);
            for (seq, retry) in self.outstanding.iter_mut() {
                retry.next_nanos = 0;
                if retry.transmitted {
                    record.mark_retransmitted(*seq);
                }
            }
        }
        self.conn = Some(stream);
        self.last_tx = shared.now_nanos();
        let (sh, pr, tx) = (Arc::clone(shared), Arc::clone(peer), peer.cmd_tx.clone());
        std::thread::spawn(move || read_loop(sh, pr, reader_stream, carry, gen, tx));
    }

    /// Transmits every outstanding envelope whose timer is due; doubles
    /// the per-envelope backoff off the link's adaptive RTO.
    fn transmit_due(&mut self) {
        let now = self.shared.now_nanos();
        let mut frames = Vec::new();
        {
            let mut rel = self.shared.reliable.lock().unwrap();
            let record = rel.link_mut(self.link);
            let rto = record.rto_nanos();
            self.outstanding.retain(|&seq, retry| {
                if retry.next_nanos > now {
                    return true;
                }
                let Some(envelope) = record.unacked(seq) else {
                    return false; // acked in the meantime
                };
                let payload = Bytes::from(envelope.encode().to_vec());
                frames.push(Frame::new(FrameKind::Data, payload));
                let was_retransmit = retry.transmitted;
                retry.transmitted = true;
                retry.next_nanos =
                    now + backoff_nanos(rto, retry.attempt.min(u32::MAX as u64) as u32);
                retry.attempt += 1;
                if was_retransmit {
                    record.mark_retransmitted(seq);
                    let mut stats = self.shared.stats.lock().unwrap();
                    stats.retransmits += 1;
                    stats.max_retransmit_attempt =
                        stats.max_retransmit_attempt.max(retry.attempt - 1);
                }
                true
            });
        }
        for frame in frames {
            if !self.write(frame) {
                return;
            }
        }
    }
}

/// Per-connection reader: parses frames, feeds the reliable sublayer,
/// delivers fresh payloads to the sink, and reports death.
fn read_loop(
    shared: Arc<Shared>,
    peer: Arc<Peer>,
    stream: TcpStream,
    carry: FrameReader,
    gen: u64,
    tx: Sender<Cmd>,
) {
    let mut stream = stream;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    // Seeded with whatever the handshake read pulled in beyond the
    // handshake frame itself — the peer's first data frames may already
    // be buffered here and must be processed before new socket bytes.
    let mut reader = carry;
    let mut buf = [0u8; 64 * 1024];
    let send_link = (node_pid(shared.cfg.node), node_pid(peer.node));
    let recv_link = (node_pid(peer.node), node_pid(shared.cfg.node));
    'outer: while !shared.shutdown.load(Ordering::Acquire) {
        // Drain parsed frames first (including carried handshake bytes),
        // then block for more socket data.
        loop {
            let frame = match reader.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                // Corrupt frame: the stream offset is untrustworthy
                // from here on; kill the connection and resync via
                // reconnect.
                Err(_) => break 'outer,
            };
            match frame.kind {
                FrameKind::Data => {
                    let Some(envelope) = Envelope::decode(&frame.payload) else {
                        break 'outer;
                    };
                    let seq = envelope.seq;
                    let fresh = shared.reliable.lock().unwrap().accept(recv_link, seq);
                    if fresh {
                        if let Payload::User(msg) = envelope.payload {
                            (shared.sink)(peer.node, msg.data);
                        }
                    } else {
                        shared
                            .stats
                            .lock()
                            .unwrap()
                            .record_dedup(crate::reliable::CopyKind::Retransmit);
                    }
                    let _ = tx.send(Cmd::ReplyAck(seq));
                }
                FrameKind::Ack => {
                    let Ok(bytes) = <[u8; 8]>::try_from(&frame.payload[..]) else {
                        break 'outer;
                    };
                    let seq = u64::from_le_bytes(bytes);
                    let now = shared.now_nanos();
                    let outcome = {
                        let mut rel = shared.reliable.lock().unwrap();
                        let outcome = rel.acknowledge_at(send_link, seq, now);
                        if outcome.rtt_sample_nanos.is_some() {
                            let srtt = rel.mean_srtt_nanos();
                            let mut stats = shared.stats.lock().unwrap();
                            stats.rtt_samples += 1;
                            stats.srtt_nanos = srtt;
                        }
                        outcome
                    };
                    if outcome.retired {
                        shared.stats.lock().unwrap().acks += 1;
                    }
                    let _ = tx.send(Cmd::Acked(seq));
                }
                FrameKind::Ping => {
                    let _ = tx.send(Cmd::SendPong);
                }
                FrameKind::Pong => {}
                // Handshake frames after the handshake are a
                // protocol violation; drop the connection.
                FrameKind::Hello | FrameKind::HelloOk | FrameKind::HelloReject => {
                    break 'outer;
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                reader.feed(&buf[..n]);
                peer.last_heard.store(shared.now_nanos(), Ordering::Release);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    let _ = tx.send(Cmd::Closed(gen));
}
