//! One run of one workload: warm-up, the timed window of repeated units,
//! and — for a traced run — alternating traced units plus the ladder.
//!
//! End-to-end numbers always come from untraced units. A traced run
//! (`--trace 1`) spends half its window alternating untraced and traced
//! units (the ratio of their throughputs is the tracing overhead) and
//! the other half on the ladder.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::metrics::{self, Value, END_TO_END, PER_LAYER};
use crate::spans::SpanLog;
use crate::stats::{self, Summary};
use crate::workloads::{run_unit, Sizing, Unit, Workload};
use crate::{alloc, ladder, procfs};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or timed run (end-to-end metrics).
    pub trace: bool,
    /// Unit sizes.
    pub sizing: Sizing,
    /// Where a traced run writes `trace-<workload>.json` (nowhere if
    /// `None`).
    pub trace_dir: Option<PathBuf>,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output of every unit was correct.
    pub correct: bool,
    /// Operations attempted in the counted units.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics of the run's mode, in registry order.
    pub values: Vec<Value>,
    /// Human-readable report lines (sample counts, medians, quartiles).
    pub report: Vec<String>,
}

/// Largest share of the CPU's time the host may steal during a unit that
/// still counts. Undisturbed units read 1 to 4 % here; during
/// the host's busy spells (16 to 35 %) `contend_deny` loses two percent
/// of throughput per percent stolen.
const MAX_STEAL: f64 = 0.05;

/// Units pooled over a window.
#[derive(Default)]
struct Pool {
    units: Vec<Unit>,
}

impl Pool {
    fn ops(&self) -> f64 {
        self.units.iter().map(|u| u.ops as f64).sum()
    }

    fn attempted(&self) -> u64 {
        self.units.iter().map(|u| u.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.units.iter().map(|u| u.failed).sum()
    }

    fn cpu_ns(&self) -> f64 {
        self.units.iter().map(|u| u.cpu_ns as f64).sum()
    }

    fn ops_per_s(&self) -> f64 {
        let wall_ns: f64 = self.units.iter().map(|u| u.wall_ns as f64).sum();
        if wall_ns > 0.0 {
            self.ops() * 1e9 / wall_ns
        } else {
            0.0
        }
    }

    fn total(&self, name: &str) -> f64 {
        // fold, not sum: an empty f64 sum is -0.0, which prints as "-0".
        self.units
            .iter()
            .filter_map(|u| u.totals.get(name))
            .fold(0.0, |acc, v| acc + v)
    }

    fn per_op(&self, name: &str) -> f64 {
        let attempted = self.attempted() as f64;
        if attempted > 0.0 {
            self.total(name) / attempted
        } else {
            0.0
        }
    }

    fn primary(&self) -> Vec<u64> {
        self.units
            .iter()
            .flat_map(|u| u.primary_ns.iter().copied())
            .collect()
    }

    fn samples(&self, name: &str) -> Vec<u64> {
        self.units
            .iter()
            .filter_map(|u| u.samples.get(name))
            .flatten()
            .copied()
            .collect()
    }

    fn per_unit(&self, f: impl Fn(&Unit) -> f64) -> Vec<f64> {
        self.units.iter().map(f).collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn tail_value(samples: &[u64]) -> f64 {
    stats::tail(samples).map_or(0.0, |(_, v)| v)
}

fn describe(label: &str, unit: &str, s: Summary) -> String {
    format!(
        "  {label}: n={} median={:.4} q1={:.4} q3={:.4} {unit} (spread {:.1} %)",
        s.n,
        s.median,
        s.q1,
        s.q3,
        s.spread() * 100.0
    )
}

/// Runs `cfg` and returns the metrics of its mode.
pub fn run(cfg: &RunConfig) -> RunResult {
    let off = SpanLog::new(false);
    let mut report = vec![format!(
        "workload {} seed {} window {} s trace {} shards {} on cpu {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        crate::workloads::SHARDS,
        procfs::cpus_allowed(),
    )];

    // Warm-up: page in the code, grow the heap, start lazy statics.
    let warm = run_unit(cfg.workload, cfg.seed, &cfg.sizing, &off);
    report.extend(warm.problems.iter().map(|p| format!("  warm-up: {p}")));

    let (stolen0, ticks0) = procfs::machine_ticks();
    let result = if cfg.trace {
        traced_run(cfg, &off, &mut report)
    } else {
        timed_run(cfg, &off, &mut report)
    };
    // Not a metric, but the first thing to look at when a run reads slow:
    // above a few percent the numbers are the neighbours', not the code's.
    let (stolen1, ticks1) = procfs::machine_ticks();
    report.push(format!(
        "  host steal during the run: {:.1} % of the CPU's time",
        ratio((stolen1 - stolen0) as f64, (ticks1 - ticks0) as f64) * 100.0
    ));
    RunResult { report, ..result }
}

/// The untraced window: end-to-end metrics.
fn timed_run(
    cfg: &RunConfig,
    off: &std::sync::Arc<SpanLog>,
    report: &mut Vec<String>,
) -> RunResult {
    // Units run until `seconds` of undisturbed unit time are collected, or
    // twice that has passed on the clock. A unit is disturbed when the
    // host stole more than MAX_STEAL of the CPU's time while it
    // ran — an outside signal, not the unit's own result — and is kept
    // out of every metric (its failures still count).
    let mut pool = Pool::default();
    let mut disturbed = Pool::default();
    let mut kept_secs = 0.0;
    let window = Instant::now();
    while kept_secs < cfg.seconds && window.elapsed().as_secs_f64() < 2.0 * cfg.seconds {
        let started = Instant::now();
        let (stolen0, ticks0) = procfs::machine_ticks();
        let unit = run_unit(cfg.workload, cfg.seed, &cfg.sizing, off);
        let (stolen1, ticks1) = procfs::machine_ticks();
        if ratio((stolen1 - stolen0) as f64, (ticks1 - ticks0) as f64) > MAX_STEAL {
            disturbed.units.push(unit);
        } else {
            kept_secs += started.elapsed().as_secs_f64();
            pool.units.push(unit);
        }
    }
    report.push(format!(
        "  units: {} kept, {} set aside (host steal above {:.0} % while they ran)",
        pool.units.len(),
        disturbed.units.len(),
        MAX_STEAL * 100.0
    ));
    if pool.units.is_empty() {
        report.push("  every unit was disturbed: reporting them all the same".into());
        pool = std::mem::take(&mut disturbed);
    }
    let primary = pool.primary();

    // Every end-to-end metric is the calm mean (see `stats`) of one value
    // per unit — per environment for the set-up time: what slows the box
    // for a second or two is left out, where a total over the window
    // would carry it.
    let setups: Vec<f64> = pool
        .units
        .iter()
        .flat_map(|u| u.setup_ns.iter().map(|&ns| ns as f64 / 1e9))
        .collect();
    let rates = pool.per_unit(|u| ratio(u.ops as f64 * 1e9, u.wall_ns as f64));
    let cpu_costs = pool.per_unit(|u| ratio(u.cpu_ns as f64 / 1e3, u.attempted as f64));
    let medians: Vec<f64> = pool
        .units
        .iter()
        .filter(|u| !u.primary_ns.is_empty())
        .map(|u| stats::p50(&u.primary_ns) / 1e3)
        .collect();
    let series = |name: &str| match name {
        "setup_s" => &setups,
        "ops_per_s" => &rates,
        "cpu_us_per_op" => &cpu_costs,
        "primary_p50_us" => &medians,
        other => unreachable!("unregistered end-to-end metric {other}"),
    };
    let values = END_TO_END
        .iter()
        .map(|m| Value {
            name: m.name.to_string(),
            value: stats::calm_mean(series(m.name), m.better),
            unit: m.unit.to_string(),
        })
        .collect();

    for m in END_TO_END {
        let per = if m.name == "setup_s" { "environment" } else { "unit" };
        let label = format!("{} per {per}", m.name);
        report.push(describe(&label, m.unit, Summary::of(series(m.name))));
    }
    report.push(format!(
        "  primary latency, all samples: n={} p50={:.3} us tail={}",
        primary.len(),
        stats::p50(&primary) / 1e3,
        stats::tail(&primary).map_or("unsupported (<40 samples)".to_string(), |(p, v)| format!(
            "p{p}={:.3} us",
            v / 1e3
        )),
    ));
    // Failures of the units set aside are failures all the same.
    for problem in disturbed.units.iter().flat_map(|u| &u.problems) {
        report.push(format!("  FAILED (unit set aside): {problem}"));
    }
    let mut result = finish(pool, values, report);
    result.attempted += disturbed.attempted();
    result.failed += disturbed.failed();
    result.correct &= disturbed.failed() == 0;
    result
}

/// The traced run: per-layer metrics.
fn traced_run(
    cfg: &RunConfig,
    off: &std::sync::Arc<SpanLog>,
    report: &mut Vec<String>,
) -> RunResult {
    let mut plain = Pool::default();
    let mut traced = Pool::default();
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut allocs = alloc::Counted::default();
    let mut last_log = None;
    let window = Instant::now();
    // Read after a fixed amount of work (the warm-up and one untraced
    // unit) and before any span is recorded: the heap of a process that
    // keeps starting threads creeps up with every unit, so a peak taken at
    // the end would grow with the number of units that fit the window.
    let mut peak_rss_mb = 0.0;
    while traced.units.is_empty() || window.elapsed().as_secs_f64() < cfg.seconds / 2.0 {
        plain
            .units
            .push(run_unit(cfg.workload, cfg.seed, &cfg.sizing, off));
        if plain.units.len() == 1 {
            peak_rss_mb = procfs::peak_rss_mb();
        }

        let log = SpanLog::new(true);
        let (unit, counted) =
            alloc::counted(|| run_unit(cfg.workload, cfg.seed, &cfg.sizing, &log));
        allocs.allocs += counted.allocs;
        allocs.bytes += counted.bytes;
        for (name, ns) in log.self_time_ns() {
            *self_ns.entry(name).or_insert(0) += ns;
        }
        traced.units.push(unit);
        last_log = Some(log);
    }
    if let (Some(dir), Some(log)) = (&cfg.trace_dir, &last_log) {
        let path = dir.join(format!("trace-{}.json", cfg.workload.name()));
        match log.write_chrome_trace(&path) {
            Ok(()) => report.push(format!(
                "  trace: {} spans -> {}",
                log.len(),
                path.display()
            )),
            Err(e) => report.push(format!("  trace: not written ({e})")),
        }
    }

    let rung_budget = Duration::from_secs_f64((cfg.seconds / 40.0).max(0.005));
    let ladder = ladder::run(cfg.seed, rung_budget, &cfg.sizing);

    let primary = plain.primary();
    let on = |workloads: &[Workload], v: f64| {
        if workloads.contains(&cfg.workload) {
            v
        } else {
            0.0
        }
    };
    let streams = [Workload::StreamDefinite, Workload::StreamSpec];
    let traced_attempted = traced.attempted() as f64;
    let finalized = plain.total("intervals_finalized");
    let value = |name: &str| -> f64 {
        if let Some(v) = ladder.get(name) {
            return *v;
        }
        if name.starts_with("span.") {
            // A span name this workload never opens reads 0.
            let own_ns = self_ns
                .iter()
                .find(|(span, _)| metrics::span_metric_name(span) == name)
                .map_or(0, |(_, ns)| *ns);
            return ratio(own_ns as f64 / 1e3, traced_attempted);
        }
        match name {
            "bench.fail_share" => ratio(
                (plain.failed() + traced.failed()) as f64,
                (plain.attempted() + traced.attempted()) as f64,
            ),
            "bench.units" => (plain.units.len() + traced.units.len()) as f64,
            "bench.trace_overhead_ratio" => ratio(plain.ops_per_s(), traced.ops_per_s()),
            "bench.primary_p99_us" => tail_value(&primary) / 1e3,
            "bench.allocs_per_op" => ratio(allocs.allocs as f64, traced_attempted),
            "bench.alloc_bytes_per_op" => ratio(allocs.bytes as f64, traced_attempted),
            "bench.peak_rss_mb" => peak_rss_mb,
            "types.tag_wire_bytes_per_op" => plain.per_op("tag_bytes_wire"),
            "types.tag_full_share" => ratio(plain.total("tags_full"), plain.total("tags")),
            "runtime.fabric_cpu_ns_per_op" => ratio(
                (plain.cpu_ns() - plain.total("user_cpu_ns")).max(0.0),
                plain.attempted() as f64,
            ),
            "runtime.ctx_switches_per_op" => plain.per_op("ctx_switches"),
            "runtime.retransmits_per_kop" => plain.per_op("retransmits") * 1e3,
            "runtime.dedup_dropped_per_kop" => plain.per_op("dedup_dropped") * 1e3,
            "runtime.acks_per_op" => plain.per_op("acks"),
            "runtime.tcp_send_ns" => stats::p50(&plain.samples("tcp_send_ns")),
            "runtime.tcp_rtt_p50_us" => on(&[Workload::TcpEcho], stats::p50(&primary) / 1e3),
            "runtime.tcp_rtt_p99_us" => on(&[Workload::TcpEcho], tail_value(&primary) / 1e3),
            "core.producer_cpu_ns_per_op" => plain.per_op("producer_cpu_ns"),
            "core.consumer_cpu_ns_per_op" => plain.per_op("consumer_cpu_ns"),
            "core.implicit_guesses_per_op" => plain.per_op("implicit_guesses"),
            "core.hope_msgs_per_op" => plain.per_op("hope_msgs"),
            "core.send_p50_ns" => on(&streams, stats::p50(&primary)),
            "core.guess_p50_ns" => stats::p50(&plain.samples("guess_ns")),
            "core.guess_p99_ns" => tail_value(&plain.samples("guess_ns")),
            "core.affirm_p50_ns" => stats::p50(&plain.samples("affirm_ns")),
            "core.affirm_p99_ns" => tail_value(&plain.samples("affirm_ns")),
            "core.rollbacks_per_op" => plain.per_op("rollbacks"),
            "core.replayed_ops_per_op" => plain.per_op("replayed_ops"),
            "core.wasted_ops_per_op" => plain.per_op("wasted_ops"),
            "core.commit_ratio" => ratio(finalized, finalized + plain.total("intervals_discarded")),
            "core.rollback_span_us" => stats::p50(&traced.samples("rollback_span_ns")) / 1e3,
            "core.deny_recover_p50_us" => on(&[Workload::ContendDeny], stats::p50(&primary) / 1e3),
            "core.deny_recover_p99_us" => on(&[Workload::ContendDeny], tail_value(&primary) / 1e3),
            "rpc.hit_ratio" => ratio(plain.total("rpc_hits"), plain.total("rpc_redeems")),
            "rpc.virt_speedup" => ratio(
                plain.total("virt_sequential_ns"),
                plain.total("virt_streamed_ns"),
            ),
            other => unreachable!("unregistered per-layer metric {other}"),
        }
    };
    let values: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| Value {
            name: m.name.to_string(),
            value: value(m.name),
            unit: m.unit.to_string(),
        })
        .collect();

    report.push(format!(
        "  units: {} untraced at {:.1} ops/s, {} traced at {:.1} ops/s",
        plain.units.len(),
        plain.ops_per_s(),
        traced.units.len(),
        traced.ops_per_s()
    ));
    plain.units.append(&mut traced.units);
    finish(plain, values, report)
}

fn finish(pool: Pool, values: Vec<Value>, report: &mut Vec<String>) -> RunResult {
    for problem in pool.units.iter().flat_map(|u| &u.problems) {
        report.push(format!("  FAILED: {problem}"));
    }
    for v in &values {
        report.push(format!("  {:<40} {:>16.4} {}", v.name, v.value, v.unit));
    }
    let (attempted, failed) = (pool.attempted().max(1), pool.failed());
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        values,
        report: Vec::new(),
    }
}
