//! The paper's §3.1 printer workload (Figures 1 and 2).
//!
//! A worker prints a report total to a remote print server, must start a
//! new page if the total overflowed the current page, and then prints a
//! summary:
//!
//! ```text
//! S1:  line = call print("Total is", total)
//! S2:  if line >= PageSize { call newpage() }
//! S3:  call print("Summary ...")
//! ```
//!
//! [`run_sequential`] executes the three statements as synchronous RPCs
//! (Figure 1: the worker idles through every round trip).
//! [`run_streaming`] applies the paper's call-streaming transformation
//! (Figure 2): a *WorryWart* process executes S1 and verifies the
//! optimistic assumption `PartPage` ("the report does not end exactly at
//! the bottom of the page") while the worker runs S2/S3 immediately; the
//! `Order` assumption guards against S3 overtaking S1 at the print server
//! (the §3.1 causality violation), detected by the WorryWart's
//! `free_of(Order)`.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use hope_core::{HopeEnv, ProcessCtx};
use hope_rpc::{RpcClient, RpcServer};
use hope_runtime::NetworkConfig;
use hope_types::{ProcessId, VirtualDuration, VirtualTime};

use crate::harness::run_settled;
use crate::{decode_u64s, encode_u64s};

/// Print-server method: append a line, reply with the new line number.
pub const METHOD_PRINT: u32 = 1;
/// Print-server method: start a new page (line counter back to zero).
pub const METHOD_NEWPAGE: u32 = 2;

/// Parameters of one printer run.
#[derive(Debug, Clone, Copy)]
pub struct PrinterConfig {
    /// One-way network latency.
    pub latency: VirtualDuration,
    /// Print-server service time per request.
    pub service: VirtualDuration,
    /// Lines per page.
    pub page_size: u32,
    /// If true, the total lands exactly at the page boundary — the
    /// optimistic assumption is wrong and the streaming variant must roll
    /// back and call `newpage`.
    pub hit_boundary: bool,
    /// Local CPU time the worker spends between spawning the WorryWart and
    /// issuing S3 (the S2 bookkeeping of Figure 2). With a realistic
    /// non-zero value the WorryWart's S1 reaches the server first; set it
    /// to zero to deliberately trigger the §3.1 ordering violation that
    /// `free_of(Order)` exists to catch.
    pub local_work: VirtualDuration,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for PrinterConfig {
    fn default() -> Self {
        PrinterConfig {
            latency: VirtualDuration::from_millis(10),
            service: VirtualDuration::from_micros(50),
            page_size: 60,
            hit_boundary: false,
            local_work: VirtualDuration::from_micros(10),
            seed: 0,
        }
    }
}

/// Measured outcome of one printer run.
#[derive(Debug, Clone, Copy)]
pub struct PrinterResult {
    /// Virtual time at which the worker finished its last statement
    /// (after any rollbacks — the committed completion).
    pub worker_time: VirtualDuration,
    /// Virtual time at full quiescence (verification tail included).
    pub quiescent: VirtualTime,
    /// Intervals rolled back during the run.
    pub rollbacks: u64,
    /// HOPE protocol messages exchanged.
    pub hope_messages: u64,
    /// Application messages exchanged.
    pub user_messages: u64,
    /// Final line counter at the print server (correctness witness).
    pub final_line: u32,
}

/// The line number in a print-server reply.
fn reply_line(reply: &[u8]) -> u32 {
    decode_u64s(reply)[0] as u32
}

fn spawn_print_server(
    env: &mut HopeEnv,
    cfg: PrinterConfig,
    final_line: Arc<Mutex<u32>>,
) -> hope_types::ProcessId {
    let init_line = if cfg.hit_boundary {
        cfg.page_size - 1
    } else {
        0
    };
    let service = cfg.service;
    env.spawn_user("print-server", move |ctx| {
        let mut line = init_line;
        let fl = final_line.clone();
        RpcServer::serve(ctx, move |ctx, method, _body| {
            ctx.compute(service);
            match method {
                METHOD_PRINT => line += 1,
                METHOD_NEWPAGE => line = 0,
                _ => {}
            }
            if !ctx.is_replaying() {
                *fl.lock().unwrap() = line;
            }
            encode_u64s(&[line.into()])
        });
    })
}

/// Runs `worker` against a fresh print server (pid 0; an open-loop
/// `serve`, so it lingers in `receive`) and reads off the committed
/// completion time and the server's final line.
fn run_worker(
    cfg: PrinterConfig,
    worker: impl Fn(&mut ProcessCtx<'_>, ProcessId) + Send + 'static,
) -> PrinterResult {
    let mut env = HopeEnv::builder()
        .seed(cfg.seed)
        .network(NetworkConfig::constant(cfg.latency))
        .build();
    let final_line = Arc::new(Mutex::new(0));
    let server = spawn_print_server(&mut env, cfg, final_line.clone());
    let worker_done = Arc::new(Mutex::new(VirtualTime::ZERO));
    let done = worker_done.clone();
    env.spawn_user("worker", move |ctx| {
        worker(ctx, server);
        if !ctx.is_replaying() {
            *done.lock().unwrap() = ctx.now();
        }
    });
    let report = run_settled(&mut env, &["print-server"]);
    let worker_time = worker_done
        .lock()
        .unwrap()
        .saturating_duration_since(VirtualTime::ZERO);
    let final_line = *final_line.lock().unwrap();
    PrinterResult {
        worker_time,
        quiescent: report.run.now,
        rollbacks: report.hope.rollbacks,
        hope_messages: report.run.stats.total_hope(),
        user_messages: report.run.stats.count_kind("User"),
        final_line,
    }
}

/// Figure 1: the untransformed worker — three synchronous calls.
pub fn run_sequential(cfg: PrinterConfig) -> PrinterResult {
    run_worker(cfg, move |ctx, server| {
        // S1
        let reply = RpcClient::call(ctx, server, METHOD_PRINT, Bytes::new());
        // S2
        if reply_line(&reply) >= cfg.page_size {
            let _ = RpcClient::call(ctx, server, METHOD_NEWPAGE, Bytes::new());
        }
        // S3
        let _ = RpcClient::call(ctx, server, METHOD_PRINT, Bytes::new());
    })
}

/// Figure 2: the call-streaming worker with its WorryWart verifier.
pub fn run_streaming(cfg: PrinterConfig) -> PrinterResult {
    run_worker(cfg, move |ctx, server| {
        streaming_worker(ctx, server, cfg.page_size, cfg.local_work)
    })
}

/// The Figure 2 worker body, reusable from examples. `local_work` models
/// the worker's own CPU time for the S2 bookkeeping (with zero local work
/// the simulator's zero-cost primitives would let S3 overtake S1 on every
/// run; real CPUs spend time there, which is what keeps the common case
/// violation-free in the paper's measurements).
pub fn streaming_worker(
    ctx: &mut ProcessCtx<'_>,
    server: hope_types::ProcessId,
    page_size: u32,
    local_work: VirtualDuration,
) {
    // PartPage: "the report does not end exactly at the bottom of the
    // page". Order: "S3 does not overtake S1 at the print server".
    let order = ctx.aid_init();
    // S1 runs in the WorryWart: only the boundary outcome matters to the
    // worker, so no value is redeemed — the WorryWart's affirm/deny of
    // PartPage carries the decision.
    let part_page = streaming_print_s1(ctx, server, page_size, order);
    ctx.compute(local_work);
    // S2: optimistically assume no page break.
    if ctx.guess(part_page) {
        // nothing to do — the assumption says the page has room
    } else {
        let _ = RpcClient::call(ctx, server, METHOD_NEWPAGE, Bytes::new());
    }
    // S3 must stay ordered after S1: depend on Order while sending it.
    let _ = ctx.guess(order);
    let _ = RpcClient::call(ctx, server, METHOD_PRINT, Bytes::new());
}

/// Spawns the WorryWart for S1 and returns the `PartPage` assumption.
fn streaming_print_s1(
    ctx: &mut ProcessCtx<'_>,
    server: hope_types::ProcessId,
    page_size: u32,
    order: hope_types::AidId,
) -> hope_types::AidId {
    let part_page = ctx.aid_init();
    ctx.spawn_user("worrywart", move |wctx| {
        // S1: the real print call.
        let reply = RpcClient::call(wctx, server, METHOD_PRINT, Bytes::new());
        let line = reply_line(&reply);
        // §3.1: if S3 overtook S1, our reply was tainted by the worker's
        // Order-tagged message; deny Order to force corrective rollbacks.
        let _ = wctx.free_of(order);
        if line < page_size {
            wctx.affirm(part_page);
        } else {
            wctx.deny(part_page);
        }
    });
    part_page
}

/// Sweeps latency × boundary-hit probability, averaging worker completion
/// time over `iterations` seeded Bernoulli draws per cell.
pub fn sweep(
    latencies: &[VirtualDuration],
    hit_probs: &[f64],
    iterations: u32,
    seed: u64,
) -> crate::table::Table {
    use rand::{Rng, SeedableRng};
    let mut table = crate::table::Table::new(
        "Figures 1-2: sequential RPC vs. HOPE call streaming (printer workload)",
        &[
            "latency",
            "p(break)",
            "seq worker",
            "stream worker",
            "speedup",
            "rollbacks/iter",
        ],
    );
    for &latency in latencies {
        for &p in hit_probs {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ latency.as_nanos());
            let mut seq = Vec::new();
            let mut stream = Vec::new();
            let mut rolls = 0u64;
            for i in 0..iterations {
                let hit = (rng.next_u64() as f64 / u64::MAX as f64) < p;
                let cfg = PrinterConfig {
                    latency,
                    hit_boundary: hit,
                    seed: seed + i as u64,
                    ..PrinterConfig::default()
                };
                let s = run_sequential(cfg);
                let t = run_streaming(cfg);
                assert_eq!(
                    s.final_line, t.final_line,
                    "both variants must leave the server in the same state"
                );
                seq.push(s.worker_time.as_millis_f64());
                stream.push(t.worker_time.as_millis_f64());
                rolls += t.rollbacks;
            }
            let seq_mean = crate::table::mean(&seq);
            let stream_mean = crate::table::mean(&stream);
            table.row(&[
                &latency,
                &format_args!("{p:.2}"),
                &format_args!("{seq_mean:.3}ms"),
                &format_args!("{stream_mean:.3}ms"),
                &format_args!("{:.2}x", seq_mean / stream_mean.max(1e-9)),
                &format_args!("{:.2}", rolls as f64 / iterations as f64),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_costs_three_or_two_round_trips() {
        let cfg = PrinterConfig::default();
        let r = run_sequential(cfg);
        // Two calls (S1, S3) at 2×10ms each plus service time.
        assert!(r.worker_time >= VirtualDuration::from_millis(40));
        assert!(r.worker_time < VirtualDuration::from_millis(45));
        assert_eq!(r.rollbacks, 0);
        assert_eq!(r.final_line, 2);
    }

    #[test]
    fn sequential_boundary_adds_newpage_round_trip() {
        let cfg = PrinterConfig {
            hit_boundary: true,
            ..PrinterConfig::default()
        };
        let r = run_sequential(cfg);
        assert!(r.worker_time >= VirtualDuration::from_millis(60));
        assert_eq!(r.final_line, 1, "newpage reset then summary printed");
    }

    #[test]
    fn streaming_beats_sequential_off_boundary() {
        let cfg = PrinterConfig::default();
        let seq = run_sequential(cfg);
        let stream = run_streaming(cfg);
        assert_eq!(stream.final_line, seq.final_line, "same server end state");
        assert!(
            stream.worker_time.as_nanos() * 3 <= seq.worker_time.as_nanos() * 2,
            "streaming must save at least a third: {} vs {}",
            stream.worker_time,
            seq.worker_time
        );
    }

    #[test]
    fn streaming_on_boundary_rolls_back_but_stays_correct() {
        let cfg = PrinterConfig {
            hit_boundary: true,
            ..PrinterConfig::default()
        };
        let seq = run_sequential(cfg);
        let stream = run_streaming(cfg);
        assert!(stream.rollbacks >= 1, "the wrong guess must roll back");
        assert_eq!(
            stream.final_line, seq.final_line,
            "rollback must restore correctness"
        );
    }

    #[test]
    fn zero_local_work_triggers_the_order_violation() {
        // With no local work, S3 overtakes S1 at the server: the WorryWart's
        // free_of(Order) must detect the §3.1 causality violation, deny
        // Order, and force corrective rollbacks — and the final state must
        // still be right.
        let cfg = PrinterConfig {
            local_work: VirtualDuration::ZERO,
            ..PrinterConfig::default()
        };
        let seq = run_sequential(cfg);
        let stream = run_streaming(cfg);
        assert!(
            stream.rollbacks >= 1,
            "the ordering violation must force rollbacks"
        );
        assert_eq!(stream.final_line, seq.final_line);
    }

    #[test]
    fn sweep_produces_full_grid() {
        let t = sweep(&[VirtualDuration::from_millis(1)], &[0.0, 1.0], 2, 7);
        assert_eq!(t.rows.len(), 2);
        let text = t.to_string();
        assert!(text.contains("speedup"));
    }
}
