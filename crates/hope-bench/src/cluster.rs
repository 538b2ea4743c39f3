//! E-cluster: a real multi-process TCP cluster on localhost, and the
//! committed `BENCH_cluster.json` (EXPERIMENTS.md E-cluster).
//!
//! The orchestrator ([`run`]) re-executes the driver three times with the
//! hidden `cluster-node` subcommand ([`run_node`]) — one OS process per
//! node, each a [`hope_runtime::NetTransport`] over loopback TCP. Node *i*
//! streams `ENTRIES` sequenced entries to node *(i+1) % 3*, which commits
//! each against a per-origin contiguous-frontier check and echoes it
//! back, so every link carries traffic both ways and the echoes face the
//! same check. The run is made twice: clean, and with the node 1 ↔ node 2
//! link cut mid-stream through the `hope-sim::netchaos` proxy and healed;
//! the healed run must commit exactly what the clean run commits.
//!
//! Only outcomes are committed. How many sends parked and how many
//! reconnects the heal took depend on thread timing: asserted ≥ 1,
//! printed, never committed. A loopback round trip is priced by
//! `perfbench`'s `tcp_echo`.

use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hope_runtime::{BackoffPolicy, HeartbeatPolicy, NetConfig, NetTransport, NodeDirectory};
use hope_sim::netchaos::NetChaos;
use hope_types::net::NodeId;

use crate::baseline::{cells_table, obj, s};
use crate::{Opts, Report};

/// The hidden subcommand the orchestrator re-executes itself with.
pub const NODE_SUBCOMMAND: &str = "cluster-node";

const NODES: u16 = 3;
const ENTRIES: u64 = 300;
/// Per-entry pacing so the partition window lands mid-stream.
const PACE: Duration = Duration::from_millis(1);
const CHILD_DEADLINE: Duration = Duration::from_secs(120);

const KIND_ENTRY: u8 = 0;
const KIND_ECHO: u8 = 1;

fn encode_msg(kind: u8, origin: u16, seq: u64) -> Bytes {
    let mut out = Vec::with_capacity(11);
    out.push(kind);
    out.extend_from_slice(&origin.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    Bytes::from(out)
}

fn decode_msg(b: &[u8]) -> Option<(u8, u16, u64)> {
    if b.len() != 11 || b[0] > KIND_ECHO {
        return None;
    }
    Some((
        b[0],
        u16::from_le_bytes(b[1..3].try_into().ok()?),
        u64::from_le_bytes(b[3..11].try_into().ok()?),
    ))
}

/// Transport tuning for localhost: millisecond timers so flap recovery
/// is fast, park buffers sized for a full partition window.
fn node_config(node: NodeId, dir: NodeDirectory) -> NetConfig {
    let mut cfg = NetConfig::new(node, dir);
    cfg.initial_rto_nanos = 30_000_000;
    cfg.tick_nanos = 1_000_000;
    cfg.park_limit = 4096;
    cfg.backoff = BackoffPolicy {
        base_nanos: 5_000_000,
        cap_nanos: 200_000_000,
        seed: u64::from(node.as_raw()),
    };
    cfg.heartbeat = HeartbeatPolicy {
        interval_nanos: 25_000_000,
        timeout_nanos: 250_000_000,
    };
    cfg
}

/// One cluster node: stream entries to the successor, commit + echo the
/// predecessor's entries against the frontier check, and report on a
/// `RESULT` line. Exits the process: 0 only if converged and clean.
pub fn run_node(me: u16, addrs: &[String]) -> ! {
    let succ = NodeId::from_raw((me + 1) % NODES);
    let pred = NodeId::from_raw((me + NODES - 1) % NODES);
    let (tx, rx) = mpsc::channel::<(NodeId, Bytes)>();
    let dir = (0..)
        .zip(addrs)
        .fold(NodeDirectory::new(), |dir, (id, addr)| {
            dir.with_node(NodeId::from_raw(id), addr.parse().expect("socket addr"))
        });
    let transport = bind_with_retry(node_config(NodeId::from_raw(me), dir), tx);

    let deadline = Instant::now() + CHILD_DEADLINE;
    let mut sent = 0u64;
    let mut entries_recv = 0u64;
    let mut echoes_recv = 0u64;
    let mut violations = 0u64;
    let mut expect_entry = 0u64; // last committed seq from the predecessor
    let mut expect_echo = 0u64; // last of our own entries echoed back

    while (sent < ENTRIES || entries_recv < ENTRIES || echoes_recv < ENTRIES)
        && Instant::now() < deadline
    {
        if sent < ENTRIES {
            // On error (park buffer full during a long partition) retry
            // after the pacing sleep; the send path itself never blocks.
            if transport
                .send(succ, encode_msg(KIND_ENTRY, me, sent + 1))
                .is_ok()
            {
                sent += 1;
            }
        }
        std::thread::sleep(PACE);
        while let Ok((from, bytes)) = rx.try_recv() {
            let Some((kind, origin, seq)) = decode_msg(&bytes) else {
                violations += 1;
                continue;
            };
            // Frontier check: each stream must be the contiguous prefix
            // 1..=n of the origin it is expected from.
            let (expect_origin, frontier, received) = if kind == KIND_ENTRY {
                (pred.as_raw(), &mut expect_entry, &mut entries_recv)
            } else {
                (me, &mut expect_echo, &mut echoes_recv)
            };
            *received += 1;
            if origin == expect_origin && seq == *frontier + 1 {
                *frontier = seq;
            } else {
                violations += 1;
                eprintln!(
                    "node {me} violation: kind={kind} from={from} origin={origin} seq={seq} \
                     expect={}",
                    *frontier + 1
                );
            }
            if kind == KIND_ENTRY {
                let _ = transport.send(from, encode_msg(KIND_ECHO, origin, seq));
            }
        }
    }
    let leftover = transport.wait_drained(Duration::from_secs(20));
    let stats = transport.stats();
    let converged = sent == ENTRIES && entries_recv == ENTRIES && echoes_recv == ENTRIES;
    println!(
        "RESULT node={me} sent={sent} entries={entries_recv} echoes={echoes_recv} \
         violations={violations} leftover={leftover} parked={} reconnects={} link_down={}",
        stats.parked, stats.reconnects, stats.link_down_events,
    );
    std::process::exit(if converged && violations == 0 && leftover == 0 {
        0
    } else {
        2
    });
}

/// Binds the node's listener with a few retries: the orchestrator probed
/// these ports moments ago and the OS occasionally needs a beat to
/// release them.
fn bind_with_retry(cfg: NetConfig, tx: mpsc::Sender<(NodeId, Bytes)>) -> NetTransport {
    for attempt in 0..50 {
        let tx = tx.clone();
        match NetTransport::bind(cfg.clone(), move |from, b| {
            let _ = tx.send((from, b));
        }) {
            Ok(t) => return t,
            Err(e) if attempt == 49 => panic!("bind failed after retries: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    unreachable!()
}

/// Probes three free localhost ports. The listeners are dropped before
/// the children bind; children retry to absorb the hand-off race.
fn probe_addrs() -> Vec<SocketAddr> {
    (0..NODES)
        .map(|_| {
            TcpListener::bind("127.0.0.1:0")
                .expect("probe port")
                .local_addr()
                .expect("probe addr")
        })
        .collect()
}

/// Summed over the three nodes' `RESULT` lines.
#[derive(Debug, Default)]
struct Scenario {
    entries: u64,
    violations: u64,
    parked: u64,
    reconnects: u64,
}

impl Scenario {
    fn add(&mut self, line: &str) -> Option<()> {
        for field in line.strip_prefix("RESULT ")?.split_whitespace() {
            let (k, v) = field.split_once('=')?;
            let v: u64 = v.parse().ok()?;
            match k {
                "entries" => self.entries += v,
                "violations" => self.violations += v,
                "parked" => self.parked += v,
                "reconnects" => self.reconnects += v,
                _ => {}
            }
        }
        Some(())
    }
}

/// Spawns the three node processes (node 1's link to node 2 optionally
/// proxied), drives the chaos schedule, and collects their reports.
fn run_scenario(partition: bool) -> Scenario {
    let addrs = probe_addrs();
    let proxy = partition.then(|| NetChaos::spawn(addrs[2]).expect("spawn proxy"));
    let exe = std::env::current_exe().expect("current exe");
    let mut children = Vec::new();
    for i in 0..NODES {
        // Node 1 dials node 2 through the proxy in the partition run.
        let mut view = addrs.clone();
        if let (1, Some(p)) = (i, proxy.as_ref()) {
            view[2] = p.frontend();
        }
        let child = Command::new(&exe)
            .arg(NODE_SUBCOMMAND)
            .arg(i.to_string())
            .args(view.iter().map(SocketAddr::to_string))
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn node process");
        children.push(child);
    }

    if let Some(p) = proxy.as_ref() {
        // Let the stream establish, then cut the 1↔2 link mid-flight
        // long enough for heartbeats to declare it down, then heal.
        std::thread::sleep(Duration::from_millis(150));
        p.partition();
        p.kill_all();
        std::thread::sleep(Duration::from_millis(400));
        p.heal();
    }

    let deadline = Instant::now() + CHILD_DEADLINE + Duration::from_secs(30);
    let mut scenario = Scenario::default();
    for (i, mut child) in children.into_iter().enumerate() {
        let status = loop {
            if let Some(status) = child.try_wait().expect("child wait") {
                break status;
            }
            assert!(Instant::now() < deadline, "node {i} did not finish in time");
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut out = String::new();
        let mut stdout = child.stdout.take().expect("piped stdout");
        stdout.read_to_string(&mut out).expect("read child stdout");
        print!("{out}");
        assert!(status.success(), "node {i} failed ({status}): {out}");
        let line = out.lines().find(|l| l.starts_with("RESULT "));
        scenario
            .add(line.expect("RESULT line"))
            .expect("parse RESULT line");
    }
    scenario
}

/// The orchestrator: both scenarios, the safety asserts, the outcome
/// cells. One parameter set — `--fast` changes nothing here.
pub(crate) fn run(_: &Opts) -> Report {
    println!("cluster: {NODES} node processes x {ENTRIES} entries over loopback TCP");
    let clean = run_scenario(false);
    let healed = run_scenario(true);

    // Safety: zero frontier violations in both scenarios, and the healed
    // run converges to totals identical to the fault-free run.
    assert_eq!(clean.violations, 0, "clean run must have no violations");
    assert_eq!(healed.violations, 0, "healed run must have no violations");
    assert_eq!(
        clean.entries,
        u64::from(NODES) * ENTRIES,
        "clean run commits every entry"
    );
    assert_eq!(
        healed.entries, clean.entries,
        "partition-heal must converge to fault-free-identical totals"
    );
    // A too-gentle chaos schedule must fail the run, not weaken the claim.
    assert!(
        healed.reconnects >= 1 && healed.parked >= 1,
        "the partition must actually sever a link, park sends and re-establish it: \
         {healed:?}"
    );

    let cells = obj(vec![
        (
            "bench",
            s("cluster (E-cluster: multi-process TCP ring with partition-heal)"),
        ),
        ("nodes", s(NODES)),
        ("entries_per_node", s(ENTRIES)),
        ("entries_total", s(clean.entries)),
        (
            "frontier_violations",
            s(clean.violations + healed.violations),
        ),
        ("healed_entries_total", s(healed.entries)),
        ("converged", s(true)),
    ]);
    let mut report = Report::new(
        cells_table(
            "E-cluster: ring ledger over loopback TCP, one OS process per node",
            &cells,
        ),
        vec![format!(
            "partition-heal: {} reconnects, {} parked sends (timing-dependent, not committed)",
            healed.reconnects, healed.parked
        )],
    );
    report.cells = Some(cells);
    report
}
