//! The experiment table: one row per EXPERIMENTS.md section, in the
//! order `all` prints them. Each row's full and `--fast` parameter sets
//! live here and nowhere else.

use hope_sim::chaos::ChaosConfig;
use hope_sim::disk_chaos::DiskChaosConfig;
use hope_sim::scientific::SolverConfig;
use hope_sim::soak::SoakConfig;
use hope_sim::{chain, chaos, disk_chaos, link_budget, printer, protocol, replication, rings};
use hope_sim::{rollback, scientific, soak, trace_export, waitfree};
use hope_types::VirtualDuration as D;

use crate::baseline::{cells_table, fit_below, obj, s};
use crate::{ablation_policies, adaptive, cluster, quadratic, throughput, trace_demo};
use crate::{Experiment, Opts, Report};

/// A row `all` includes: one of the simulator sweeps EXPERIMENTS.md
/// tabulates.
const fn sweep(id: &'static str, name: &'static str, run: fn(&Opts) -> Report) -> Experiment {
    Experiment {
        id,
        name,
        in_all: true,
        takes_path: false,
        ledger: None,
        run,
    }
}

/// A row that runs only under its own name.
const fn alone(id: &'static str, name: &'static str, run: fn(&Opts) -> Report) -> Experiment {
    Experiment {
        in_all: false,
        ..sweep(id, name, run)
    }
}

fn micros(latencies: &[u64]) -> Vec<D> {
    latencies.iter().map(|&us| D::from_micros(us)).collect()
}

/// Every experiment the driver knows.
pub static EXPERIMENTS: &[Experiment] = &[
    sweep("T1", "table1", |_| {
        protocol::table_1(&protocol::run_canonical(1)).into()
    }),
    sweep("F1/F2", "fig1_fig2", |o| {
        // µs one way: LAN, 1 ms, WAN, and the paper's 30 ms round trip.
        let latencies = micros(if o.fast {
            &[10_000]
        } else {
            &[100, 1_000, 10_000, 15_000]
        });
        let iterations = if o.fast { 3 } else { 10 };
        printer::sweep(&latencies, &[0.0, 0.01, 0.1, 0.5, 1.0], iterations, 42).into()
    }),
    sweep("E3", "rpc_improvement", |o| {
        let depths: &[u32] = if o.fast { &[2, 4] } else { &[1, 2, 3, 4, 6, 8] };
        chain::sweep(depths, &[1.0, 0.9, 0.5, 0.0], 42).into()
    }),
    sweep("E4", "waitfree", |o| {
        let latencies = micros(if o.fast {
            &[100, 10_000, 100_000]
        } else {
            &[1, 100, 1_000, 10_000, 15_000, 100_000]
        });
        waitfree::sweep(&latencies, 42).into()
    }),
    Experiment {
        ledger: Some("BENCH_quadratic.json"),
        ..sweep("E5/E5b", "quadratic", quadratic::run)
    },
    sweep("F13/F14", "fig14_cycles", |o| {
        let sizes: &[u32] = if o.fast {
            &[2, 4]
        } else {
            &[2, 3, 4, 6, 8, 12, 16, 24, 32]
        };
        rings::sweep(sizes, 42).into()
    }),
    sweep("E6/E6b", "rollback_depth", run_rollback_depth),
    sweep("E7", "scientific", |o| {
        let cfg = SolverConfig {
            workers: if o.fast { 2 } else { 4 },
            iterations_to_converge: if o.fast { 5 } else { 20 },
            ..SolverConfig::default()
        };
        // (compute µs, latency µs): LAN to transcontinental, then tiny
        // iterations under huge latency.
        let ratios: &[(u64, u64)] = if o.fast {
            &[(2_000, 5_000)]
        } else {
            &[
                (2_000, 100),
                (2_000, 1_000),
                (2_000, 5_000),
                (2_000, 15_000),
                (500, 15_000),
            ]
        };
        scientific::sweep(cfg, ratios).into()
    }),
    sweep("E8", "replication", |o| {
        let replicas: &[u32] = if o.fast { &[2, 4] } else { &[1, 2, 4, 8, 16] };
        replication::sweep(replicas, D::from_millis(2), 42).into()
    }),
    sweep("E9", "soak", |o| {
        let accuracies: &[f64] = if o.fast {
            &[1.0, 0.5]
        } else {
            &[1.0, 0.95, 0.9, 0.7, 0.5, 0.0]
        };
        let cfg = SoakConfig {
            clients: if o.fast { 3 } else { 8 },
            calls_per_client: if o.fast { 4 } else { 10 },
            ..SoakConfig::default()
        };
        soak::sweep(accuracies, cfg).into()
    }),
    sweep("E-chaos", "chaos", run_chaos),
    sweep("E-link", "link_budget", run_link_budget),
    Experiment {
        ledger: Some("BENCH_throughput.json"),
        ..alone("E-perf", "throughput", throughput::run)
    },
    Experiment {
        ledger: Some("BENCH_adaptive.json"),
        ..alone("E-adaptive", "adaptive", adaptive::run)
    },
    alone("E-disk", "disk_chaos", run_disk_chaos),
    Experiment {
        takes_path: true,
        ..alone("E-trace", "trace", run_trace)
    },
    alone("Ablations", "ablation_policies", ablation_policies::run),
    alone("Demo", "trace_demo", trace_demo::run),
    Experiment {
        ledger: Some("BENCH_cluster.json"),
        ..alone("E-cluster", "cluster", cluster::run)
    },
];

/// E6, then (full set only — a fit needs the range) E6b: one deny with a
/// tagged backlog queued behind it at another process costs one rollback
/// there, whatever the backlog (DESIGN.md S8). Re-executions, HOPE
/// messages and interval rollbacks must each fit an exponent < 0.2
/// against the backlog. Receiving every doomed message again fits ≈ 1
/// and ≈ 2; an interval per consumed message, where a covered receive
/// would be absorbed (DESIGN.md S9), fits ≈ 0.95. The last table is
/// information for ROADMAP 1(b), ungated.
fn run_rollback_depth(o: &Opts) -> Report {
    const SEED: u64 = 42;
    if o.fast {
        return rollback::sweep(&[2, 8], 8, SEED).into();
    }
    let mut report = Report::from(rollback::sweep(&[1, 2, 4, 8, 16, 32], 8, SEED));
    let results: Vec<_> = [4, 16, 64, 256]
        .iter()
        .map(|&backlog| rollback::measure_backlog(backlog, SEED))
        .collect();
    let fit = |what: &str, ceiling: f64, of: fn(&rollback::BacklogResult) -> u64| {
        let points = results
            .iter()
            .map(|r| (f64::from(r.backlog), of(r) as f64))
            .collect();
        let regression =
            format!("a deny is paid for per queued message again ({what} vs. backlog)");
        let exponent = fit_below(points, ceiling, &regression);
        format!("{what} {exponent:.3} (ceiling {ceiling})")
    };
    let exponents = format!(
        "fitted growth exponents vs. backlog: {}, {}, {}",
        fit("re-executions", 0.2, |r| r.reexecutions),
        fit("HOPE msgs", 0.2, |r| r.hope_messages),
        fit("rollbacks", 0.2, |r| r.rollbacks),
    );
    report.push(
        rollback::backlog_table(&results),
        vec![exponents, String::new()],
    );
    report.push(
        rollback::settled_table(&[1, 4, 16, 64], 8, SEED),
        Vec::new(),
    );
    report
}

/// E-chaos: the simulator sweep, then (full set only) the same workload
/// on the threaded runtime at 1, 2 and 4 shards — the shard count is a
/// performance knob, never a semantics knob (DESIGN.md §10), so every
/// row must commit the fault-free outcome. Their link counters depend
/// on thread timing; only `correct=true` is stable.
fn run_chaos(o: &Opts) -> Report {
    let rates: &[f64] = if o.fast {
        &[0.15]
    } else {
        &[0.0, 0.05, 0.15, 0.25]
    };
    let table = chaos::sweep(rates, ChaosConfig::default());
    let shard_counts: &[usize] = if o.fast { &[] } else { &[1, 2, 4] };
    let mut notes = Vec::new();
    for &shards in shard_counts {
        let t = chaos::run_threaded(ChaosConfig {
            shards: Some(shards),
            ..ChaosConfig::default()
        });
        assert!(t.matches_fault_free, "shards={shards} must be correct");
        notes.push(format!(
            "threaded shards={shards}: correct={} finalized={} rollbacks={} recoveries={} ({})",
            t.matches_fault_free, t.finalized, t.rollbacks, t.crash_recoveries, t.link
        ));
    }
    Report::new(table, notes)
}

/// E-link: the reliable sublayer costs per link, not per message. One
/// burst on one link, every fired event classified. Fault-free: at most
/// 1.4 link events, 0.25 acks and 0.05 timer fires per message and no
/// retransmission (an ack and a timer per message is 3.0 / 1.0 / 1.0).
/// With one copy in ten dropped: every message delivered exactly once,
/// none abandoned, and the link settled within twice the virtual time a
/// timer per message took (those times, for this seed, are the table
/// below). See EXPERIMENTS.md E-link.
fn run_link_budget(o: &Opts) -> Report {
    const SEED: u64 = 42;
    /// `(messages, ns to settle with a timer per message)` at drop 0.1.
    const PER_MESSAGE_TIMERS_SETTLED: [(u64, u64); 3] =
        [(64, 13_750_000), (256, 8_750_000), (1024, 13_750_000)];
    let sizes = if o.fast {
        &PER_MESSAGE_TIMERS_SETTLED[1..2]
    } else {
        &PER_MESSAGE_TIMERS_SETTLED[..]
    };
    let clean: Vec<_> = sizes
        .iter()
        .map(|&(n, _)| link_budget::measure(n, 0.0, SEED))
        .collect();
    for r in &clean {
        assert_eq!(r.delivered, r.messages, "{r:?}");
        assert_eq!((r.retransmits, r.abandoned), (0, 0), "{r:?}");
        assert!(
            r.events_per_message() <= 1.4
                && r.acks_per_message() <= 0.25
                && r.timers_per_message() <= 0.05,
            "the sublayer costs per message again: {r:?}"
        );
    }
    let lossy: Vec<_> = sizes
        .iter()
        .map(|&(n, _)| link_budget::measure(n, 0.1, SEED))
        .collect();
    for (r, &(_, before)) in lossy.iter().zip(sizes) {
        assert_eq!(r.delivered, r.messages, "exactly once: {r:?}");
        assert_eq!(r.abandoned, 0, "{r:?}");
        assert!(
            r.settled_at.as_nanos() <= 2 * before,
            "slower to settle than a timer per message by more than 2x ({before} ns): {r:?}"
        );
    }
    let mut report = Report::default();
    report.push(
        link_budget::table(
            "E-link: link-layer events per message, one burst on one fault-free link",
            &clean,
        ),
        vec![String::new()],
    );
    report.push(
        link_budget::table(
            "E-link: the same burst with one copy in ten dropped",
            &lossy,
        ),
        Vec::new(),
    );
    report
}

/// E-disk: the drop-rate sweep, a many-seed soak and one threaded run.
/// Every run must recover the longest valid prefix, reach the definite
/// frontier recorded at crash time and commit the fault-free totals
/// (Theorem 5.1); checkpoint GC must keep live WAL segments bounded.
fn run_disk_chaos(o: &Opts) -> Report {
    let cfg = DiskChaosConfig::default();
    let (per_row, rates, seeds): (u64, &[f64], u64) = if o.fast {
        (8, &[0.15], 64)
    } else {
        (64, &[0.0, 0.05, 0.15, 0.25], 1000)
    };
    let table = disk_chaos::sweep(per_row, rates, cfg);

    let out = disk_chaos::soak(seeds, cfg);
    assert_eq!(out.runs, out.correct, "Theorem 5.1 violation in soak");
    assert_eq!(out.frontier_violations, 0, "frontier equivalence violated");
    let t = disk_chaos::run_threaded(cfg);
    assert!(t.matches_fault_free, "threaded run diverged");
    let notes = vec![
        format!(
            "soak: runs={} correct={} recoveries={} corrupt={} disk-faults={} \
             frontier-violations={} gc-segments={} max-live-segments={}",
            out.runs,
            out.correct,
            out.recoveries,
            out.corrupt_recoveries,
            out.faults_injected,
            out.frontier_violations,
            out.gc_segments,
            out.max_live_segments
        ),
        format!(
            "threaded: correct={} finalized={} rollbacks={} recoveries={} \
             store-recoveries={} frontier-violations={}",
            t.matches_fault_free,
            t.finalized,
            t.rollbacks,
            t.crash_recoveries,
            t.store.recoveries,
            t.store.frontier_violations
        ),
    ];
    Report::new(table, notes)
}

/// E-trace: runs the faulted chain scenario with the causal tracer on,
/// validates the Chrome trace-event export against the structural schema
/// and only then writes it (`BENCH_trace.json` unless a path is given).
/// Open the file in `chrome://tracing` or Perfetto's legacy loader.
fn run_trace(o: &Opts) -> Report {
    let out = o.path.as_deref().unwrap_or("BENCH_trace.json");
    let (result, trace) = chaos::run_chain_traced(ChaosConfig::default(), 1 << 16);
    trace_export::validate_chrome_trace(&trace).expect("exported trace must satisfy the schema");
    let events = match trace.get("traceEvents") {
        hope_sim::json::Value::Array(events) => events.len(),
        _ => unreachable!("validated trace has a traceEvents array"),
    };
    std::fs::write(out, hope_sim::json::to_string_pretty(&trace)).expect("write trace artifact");
    let dropped = trace["otherData"]["dropped_events"].as_i64().unwrap_or(0);
    cells_table(
        "E-trace: Chrome trace-event export of the faulted chain run",
        &obj(vec![
            ("file", s(out)),
            ("events", s(events)),
            ("dropped", s(dropped)),
            ("rollbacks", s(result.rollbacks)),
            ("recoveries", s(result.crash_recoveries)),
            ("correct", s(result.matches_fault_free)),
        ]),
    )
    .into()
}
