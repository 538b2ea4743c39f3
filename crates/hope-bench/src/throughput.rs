//! E-perf: the [`hope_sim::throughput`] streaming workload and the
//! committed `BENCH_throughput.json` — tag bytes verbatim vs. on a wire
//! that delta-codes them ([`tag_wire`], run over the tags the producer
//! sent), `Guess` registrations, and the virtual-time cost of `guess` and
//! `affirm` (the wait-free claim: zero). Every run also repeats the
//! workload with the causal tracer on and requires the identical clock,
//! link statistics and finalized count: tracing is pure observation.
//! What tracing costs in wall time is `perfbench`'s
//! `bench.trace_overhead_ratio`.

use hope_sim::table::percentile;
use hope_sim::throughput::{
    assert_tracing_is_observation, run as stream, tag_wire, ThroughputConfig,
};

use crate::baseline::{cells_table, obj, s};
use crate::{Opts, Report};

pub(crate) fn run(o: &Opts) -> Report {
    let cfg = ThroughputConfig {
        messages: if o.fast { 200 } else { 2_000 },
        depth: if o.fast { 8 } else { 32 },
        seed: 7,
    };
    let outcome = stream(cfg, None);
    let traced = stream(cfg, Some(1 << 16));
    assert_tracing_is_observation(&outcome, &traced);

    let stats = &outcome.report.run.stats;
    let wire = tag_wire(&outcome.tags);
    let p = |samples: &[f64], q: f64| s(format!("{:.0}", percentile(samples, q)));
    let cells = obj(vec![
        (
            "bench",
            s("throughput (E-perf: reliable-link streaming under speculation)"),
        ),
        ("seed", s(cfg.seed)),
        ("messages", s(cfg.messages)),
        ("depth", s(cfg.depth)),
        ("registrations", s(stats.count_kind("Guess"))),
        ("total_hope_messages", s(stats.total_hope())),
        ("tag_bytes_full", s(wire.bytes_full)),
        ("tag_bytes_wire", s(wire.bytes_wire)),
        ("tags_full", s(wire.full)),
        ("tags_delta", s(wire.delta)),
        (
            "virtual_micros_total",
            s(outcome.report.run.now.as_nanos() / 1_000),
        ),
        ("guess_p50_virtual_ns", p(&outcome.guess_virtual_ns, 0.5)),
        ("guess_p99_virtual_ns", p(&outcome.guess_virtual_ns, 0.99)),
        ("affirm_p50_virtual_ns", p(&outcome.affirm_virtual_ns, 0.5)),
        ("affirm_p99_virtual_ns", p(&outcome.affirm_virtual_ns, 0.99)),
    ]);
    let mut report = Report::new(
        cells_table("E-perf: reliable-link streaming under speculation", &cells),
        vec![format!(
            "traced re-run identical (clock, link statistics, finalized intervals, tags); \
             {} events collected",
            traced.trace_events
        )],
    );
    report.cells = (!o.fast).then_some(cells);
    report
}
