//! The real TCP transport: the socket driver of the per-peer link
//! machines.
//!
//! A [`NetTransport`] is one node's view of a small static cluster: a
//! [`NodeDirectory`] names every node and its socket address. Whatever
//! the node decides about a link — dial, ping, retransmit, declare dead,
//! park or refuse a send, deliver or drop an arrival — that peer's
//! [`PeerMachine`] decides. This file holds no link state: it lends the
//! machine a clock (nanoseconds since bind) and turns its
//! [`PeerOutput`]s into syscalls, on three kinds of thread. The listener
//! validates inbound handshakes and routes sockets to their peer. One
//! supervisor per peer ticks the machine, dials when asked (lower node id
//! dials, higher accepts), adopts connections and is the only writer of
//! the peer's socket. One reader per connection feeds the machine frames.
//!
//! What the driver adds to the machine's guarantees (DESIGN.md §11):
//! [`NetTransport::send`] is a machine input plus a queue push, so it
//! never blocks on the network; and a stalled peer cannot wedge its
//! supervisor, because socket writes time out after the heartbeat
//! timeout and a timed-out write drops the link.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hope_types::net::{Frame, FrameKind, FrameReader, HelloReject, NodeHello, NodeId};
use hope_types::HopeError;
use parking_lot::Mutex;

use crate::net::supervisor::{BackoffPolicy, HeartbeatPolicy, PeerMachine, PeerOutput};
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

/// What reaches a peer's supervisor thread from the other threads.
enum Cmd {
    /// A machine output: only the supervisor touches the socket.
    Do(PeerOutput),
    /// A handshaken inbound connection to adopt, plus the frame reader
    /// holding whatever the kernel coalesced into the handshake read.
    Socket(TcpStream, FrameReader),
    /// Reply once everything queued before this is written and flushed.
    Flushed(mpsc::SyncSender<()>),
}

struct Shared {
    cfg: NetConfig,
    /// Counters that belong to no peer: sends to unknown nodes, inbound
    /// handshakes refused.
    stats: Mutex<LinkStats>,
    sink: Box<dyn Fn(NodeId, Bytes) + Send + Sync>,
    epoch: Instant,
    shutdown: AtomicBool,
}

impl Shared {
    fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A handshake frame of `kind` introducing this node.
    fn hello(&self, kind: FrameKind) -> Bytes {
        let version = self.cfg.advertise_version;
        let hello = NodeHello::current(self.cfg.node);
        Frame::new(kind, NodeHello { version, ..hello }.encode()).encode()
    }
}

struct Peer {
    shared: Arc<Shared>,
    node: NodeId,
    machine: Mutex<PeerMachine>,
    cmd_tx: Sender<Cmd>,
    /// Current connection, for `kill_connection` and a prompt drop.
    conn: Mutex<Option<TcpStream>>,
}

impl Peer {
    /// Feeds the machine one input at the current time. What it asks of
    /// the socket is queued for the supervisor before the machine is
    /// unlocked, so the queue's order is the machine's order whichever
    /// thread the input came from; payloads go to the sink after the
    /// unlock (the sink may send).
    fn input<R>(&self, f: impl FnOnce(&mut PeerMachine, u64, &mut Vec<PeerOutput>) -> R) -> R {
        let (mut out, mut delivered) = (Vec::new(), Vec::new());
        let result = {
            let mut machine = self.machine.lock();
            let result = f(&mut machine, self.shared.now_nanos(), &mut out);
            for output in out {
                match output {
                    PeerOutput::Deliver(data) => delivered.push(data),
                    other => drop(self.cmd_tx.send(Cmd::Do(other))),
                }
            }
            result
        };
        for data in delivered {
            (self.shared.sink)(self.node, data);
        }
        result
    }
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

/// Polls `done` every 2 ms until it holds or `timeout` elapses.
fn poll_until(timeout: Duration, done: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !done() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    done()
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
            stats: Mutex::new(LinkStats::default()),
            sink: Box::new(sink),
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            cfg,
        });

        let mut peers = BTreeMap::new();
        let mut threads = Vec::new();
        for (node, _) in shared.cfg.directory.iter() {
            if node == shared.cfg.node {
                continue;
            }
            let (cmd_tx, cmd_rx) = mpsc::channel();
            let peer = Arc::new(Peer {
                shared: Arc::clone(&shared),
                node,
                machine: Mutex::new(PeerMachine::new(&shared.cfg, node)),
                cmd_tx,
                conn: Mutex::new(None),
            });
            peers.insert(node, Arc::clone(&peer));
            let supervisor = Supervisor { peer, conn: None };
            threads.push(std::thread::spawn(move || supervisor.run(cmd_rx)));
        }

        let (sh, accept_peers) = (Arc::clone(&shared), peers.clone());
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
            self.shared.stats.lock().node_unreachable += 1;
            return Err(HopeError::NodeUnreachable(to));
        };
        peer.input(|m, now, out| m.send(now, data, out))
    }

    /// Whether the link to `peer` is currently connected.
    pub fn link_up(&self, peer: NodeId) -> bool {
        let peer = self.peers.get(&peer);
        peer.is_some_and(|p| p.machine.lock().is_up())
    }

    /// Polls until the link to `peer` is up or `timeout` elapses.
    pub fn wait_link_up(&self, peer: NodeId, timeout: Duration) -> bool {
        poll_until(timeout, || self.link_up(peer))
    }

    /// Envelopes tracked but not yet acknowledged, across all peers.
    pub fn in_flight(&self) -> usize {
        let peers = self.peers.values();
        peers.map(|p| p.machine.lock().in_flight()).sum()
    }

    /// Polls until every link is drained — nothing this node sent is
    /// unacknowledged and it owes no peer an ack (what it does owe goes
    /// out now rather than with the delayed-ack timer) — or `timeout`
    /// elapses; returns the final in-flight count. A drained link's last
    /// ack is on the wire, not in a queue, when this returns: the caller
    /// may be about to exit, and its peer is waiting for that ack.
    pub fn wait_drained(&self, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        let flushed = |peer: &Arc<Peer>| {
            peer.input(|m, now, out| {
                m.flush_ack(now, out);
                m.drained()
            })
        };
        if poll_until(timeout, || self.peers.values().all(flushed)) {
            for peer in self.peers.values() {
                let (done, written) = mpsc::sync_channel(1);
                if peer.cmd_tx.send(Cmd::Flushed(done)).is_ok() {
                    let left = deadline.saturating_duration_since(Instant::now());
                    let _ = written.recv_timeout(left);
                }
            }
        }
        self.in_flight()
    }

    /// Whether every link is drained: nothing in flight, no ack owed.
    pub fn drained(&self) -> bool {
        self.peers.values().all(|p| p.machine.lock().drained())
    }

    /// A snapshot of the transport's link counters, summed over peers.
    pub fn stats(&self) -> LinkStats {
        let mut total = *self.shared.stats.lock();
        for peer in self.peers.values() {
            total.merge(&peer.machine.lock().stats());
        }
        total
    }

    /// Chaos hook: hard-closes the current connection to `peer` (both
    /// directions), as a mid-stream network cut would. The supervisor
    /// notices and reconnects with backoff. Returns false when no
    /// connection was up.
    pub fn kill_connection(&self, peer: NodeId) -> bool {
        self.peers.get(&peer).is_some_and(|peer| {
            let conn = peer.conn.lock();
            let killed = conn.as_ref().map(|stream| stream.shutdown(Shutdown::Both));
            killed.is_some()
        })
    }
}

impl Drop for NetTransport {
    fn drop(&mut self) {
        // Every thread looks at the flag at least once a tick.
        self.shared.shutdown.store(true, Ordering::Release);
        for peer in self.peers.keys() {
            self.kill_connection(*peer);
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
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else {
            std::thread::sleep(tick);
            continue;
        };
        if let Some((node, stream, carry)) = handshake_accept(&shared, stream) {
            if let Some(peer) = peers.get(&node) {
                let _ = peer.cmd_tx.send(Cmd::Socket(stream, carry));
            }
        }
    }
}

/// Validates one inbound handshake: reads the Hello, checks version and
/// directory membership, replies HelloOk or a typed HelloReject.
fn handshake_accept(
    shared: &Shared,
    mut stream: TcpStream,
) -> Option<(NodeId, TcpStream, FrameReader)> {
    stream.set_nonblocking(false).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    let (frame, carry) = read_one_frame(&mut stream)?;
    let hello = NodeHello::decode(&frame.payload).filter(|_| frame.kind == FrameKind::Hello)?;
    let ours = shared.cfg.advertise_version;
    let reject = if hello.version != ours {
        let theirs = hello.version;
        HelloReject::VersionMismatch { ours, theirs }
    } else if hello.node == shared.cfg.node {
        HelloReject::IdCollision(hello.node)
    } else if !shared.cfg.directory.contains(hello.node) {
        HelloReject::UnknownNode(hello.node)
    } else {
        stream.write_all(&shared.hello(FrameKind::HelloOk)).ok()?;
        let _ = stream.set_nodelay(true);
        return Some((hello.node, stream, carry));
    };
    shared.stats.lock().handshake_rejected += 1;
    let frame = Frame::new(FrameKind::HelloReject, reject.encode());
    let _ = stream.write_all(&frame.encode());
    None
}

/// Reads exactly one frame from a blocking stream (with its configured
/// read timeout). Used only during handshakes. Returns the reader too:
/// the kernel may coalesce bytes written *after* the handshake frame
/// (the peer's first data frames) into the same read, and they must
/// reach the machine as the connection's first arrivals, not be dropped.
fn read_one_frame(stream: &mut TcpStream) -> Option<(Frame, FrameReader)> {
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Ok(Some(frame)) = reader.next_frame() {
            return Some((frame, reader));
        }
        match stream.read(&mut buf) {
            Ok(n) if n > 0 => reader.feed(&buf[..n]),
            _ => return None,
        }
    }
}

/// Dials `to` and runs the client side of the handshake. On success
/// returns the stream plus the frame reader carrying any data bytes that
/// arrived coalesced with the HelloOk; on failure the peer's typed
/// rejection, if that is what failed.
fn handshake_dial(
    shared: &Shared,
    to: NodeId,
) -> Result<(TcpStream, FrameReader), Option<HelloReject>> {
    let exchange = || {
        let addr = shared.cfg.directory.addr_of(to)?;
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok()?;
        stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
        stream.write_all(&shared.hello(FrameKind::Hello)).ok()?;
        let (reply, carry) = read_one_frame(&mut stream)?;
        Some((stream, reply, carry))
    };
    let (stream, reply, carry) = exchange().ok_or(None)?;
    match reply.kind {
        FrameKind::HelloOk => {
            let _ = stream.set_nodelay(true);
            Ok((stream, carry))
        }
        FrameKind::HelloReject => Err(HelloReject::decode(&reply.payload)),
        _ => Err(None),
    }
}

/// A peer's supervisor thread: it ticks the machine, dials and adopts
/// connections, and is the single writer of the peer's socket, working
/// through the queue in order.
struct Supervisor {
    peer: Arc<Peer>,
    /// The current connection and the generation the machine gave it.
    /// Frames collect in the buffer while the queue has more and go out
    /// in one write when it runs dry: one write per frame is one TCP
    /// segment per frame, a third more CPU per message on loopback.
    conn: Option<(u64, BufWriter<TcpStream>)>,
}

impl Supervisor {
    fn run(mut self, cmd_rx: Receiver<Cmd>) {
        let shared = Arc::clone(&self.peer.shared);
        let tick = Duration::from_nanos(shared.cfg.tick_nanos);
        // The first tick is due at once: a dialer does not idle before
        // its first dial.
        let mut next_tick = Instant::now();
        while !shared.shutdown.load(Ordering::Acquire) {
            let now = Instant::now();
            if now >= next_tick {
                next_tick = now + tick;
                self.peer.input(|m, now, out| m.tick(now, out));
            }
            let cmd = cmd_rx.try_recv().or_else(|_| {
                self.write(None, BufWriter::flush);
                cmd_rx.recv_timeout(next_tick - now)
            });
            match cmd {
                Ok(Cmd::Do(output)) => self.perform(output),
                Ok(Cmd::Socket(stream, carry)) => self.adopt(stream, carry),
                Ok(Cmd::Flushed(done)) => {
                    self.write(None, BufWriter::flush);
                    let _ = done.send(());
                }
                Err(_) => {}
            }
        }
        self.disconnect();
    }

    fn perform(&mut self, output: PeerOutput) {
        match output {
            PeerOutput::Dial => match handshake_dial(&self.peer.shared, self.peer.node) {
                Ok((stream, carry)) => self.adopt(stream, carry),
                Err(Some(reason)) => self.peer.input(|m, _, _| m.rejected(reason)),
                Err(None) => self.peer.input(|m, now, _| m.dial_failed(now)),
            },
            // Only on the connection it was meant for. With none, or a
            // later one: whatever it carried that matters is in the
            // machine's retransmit buffer, and `connected` wired that
            // again, in order, behind this in the queue.
            PeerOutput::Write(generation, frame) => {
                self.write(Some(generation), |w| w.write_all(&frame.encode()))
            }
            PeerOutput::Close(generation) => {
                if self.conn.as_ref().is_some_and(|(g, _)| *g == generation) {
                    self.disconnect();
                }
            }
            PeerOutput::Deliver(data) => (self.peer.shared.sink)(self.peer.node, data),
        }
    }

    /// Runs `op` on the current connection (if it is `generation`, when
    /// given). A failed or timed-out write may have left half a frame
    /// behind, so the connection is unusable either way: drop it.
    fn write(
        &mut self,
        generation: Option<u64>,
        op: impl FnOnce(&mut BufWriter<TcpStream>) -> io::Result<()>,
    ) {
        let conn = self.conn.as_mut();
        let Some((current, writer)) =
            conn.filter(|(g, _)| generation.is_none_or(|want| want == *g))
        else {
            return;
        };
        if op(writer).is_err() {
            let current = *current;
            self.disconnect();
            self.peer.input(|m, now, out| m.closed(now, current, out));
        }
    }

    /// Drops the connection, and unwritten frames with it: the machine's
    /// retransmit buffer has what mattered in them.
    fn disconnect(&mut self) {
        if let Some((_, writer)) = self.conn.take() {
            let _ = writer.into_parts().0.shutdown(Shutdown::Both);
            *self.peer.conn.lock() = None;
        }
    }

    /// Adopts a freshly handshaken connection: tells the machine, which
    /// queues what it resends, and starts the connection's reader.
    fn adopt(&mut self, stream: TcpStream, mut carry: FrameReader) {
        // A peer that stops reading must not block this thread — the one
        // that would notice — for longer than silence is tolerated.
        let stall = Duration::from_nanos(self.peer.shared.cfg.heartbeat.timeout_nanos.max(1));
        let (Ok(reader_stream), Ok(handle), Ok(())) = (
            stream.try_clone(),
            stream.try_clone(),
            stream.set_write_timeout(Some(stall)),
        ) else {
            // Unusable socket: to the machine, one more failed dial.
            return self.peer.input(|m, now, _| m.dial_failed(now));
        };
        self.disconnect();
        *self.peer.conn.lock() = Some(handle);
        let peer = Arc::clone(&self.peer);
        let generation = peer.input(|m, now, out| m.connected(now, &mut carry, out));
        self.conn = Some((generation, BufWriter::new(stream)));
        std::thread::spawn(move || read_loop(peer, reader_stream, carry, generation));
    }
}

/// Per-connection reader: parses frames and feeds them to the machine
/// until the stream ends, then reports the connection closed.
fn read_loop(peer: Arc<Peer>, mut stream: TcpStream, mut reader: FrameReader, generation: u64) {
    use io::ErrorKind::{TimedOut, WouldBlock};
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 64 * 1024];
    'conn: while !peer.shared.shutdown.load(Ordering::Acquire) {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => reader.feed(&buf[..n]),
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => continue,
            Err(_) => break,
        }
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => peer.input(|m, now, out| m.frame(now, generation, frame, out)),
                Ok(None) => break,
                // Corrupt frame: the stream offset is untrustworthy from
                // here on; kill the connection and resync via reconnect.
                Err(_) => break 'conn,
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    peer.input(|m, now, out| m.closed(now, generation, out));
}
