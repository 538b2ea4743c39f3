//! The benchmark's metric registry: every name the binary prints, with
//! its unit, direction and (end to end) regression bound. `BENCHMARK.json`
//! is generated from this table (`bench --print-manifest`) and the smoke
//! test checks the committed file against it, so the manifest and the
//! binary cannot drift apart.

use crate::workloads::Workload;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By how much `second` is worse than `first`, as a share of `first`
    /// (negative when it is better).
    pub fn worsening(self, first: f64, second: f64) -> f64 {
        if first == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (second - first) / first.abs(),
            Better::Higher => (first - second) / first.abs(),
        }
    }
}

/// One metric of the registry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the system sees, on every workload.
///
/// `primary_p50_us` is the median of the workload's primary latency —
/// which call that is, is part of each workload's definition (see
/// [`Workload::why`] and the README's glossary).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, BOUND),
    e2e("ops_per_s", "1/s", Better::Higher, BOUND),
    e2e("cpu_us_per_op", "us", Better::Lower, BOUND),
    e2e("primary_p50_us", "us", Better::Lower, BOUND),
];

/// Every end-to-end bound is the largest a bound may be. Ten runs with
/// ten seeds spread (interquartile range over median) by 1 to 8 % on this
/// shared box in a calm hour, but its level moves by 10 to 20 % from one
/// hour to the next (`sim_chain`, all arithmetic, follows the host's
/// clock most closely); a bound has to sit above that to mean anything.
const BOUND: f64 = 0.25;

/// Single-layer metrics: the ladder (`*_ns`, `*_allocs_per_op` measured
/// by direct calls) and what the units count at their call sites. A
/// metric a workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // -- the run itself
    lower("bench.fail_share", "ratio"),
    higher("bench.units", "count"),
    lower("bench.trace_overhead_ratio", "ratio"),
    lower("bench.primary_p99_us", "us"),
    lower("bench.allocs_per_op", "count"),
    lower("bench.alloc_bytes_per_op", "B"),
    lower("bench.peak_rss_mb", "MiB"),
    // -- hope-types
    lower("types.tag_encode_ns", "ns"),
    lower("types.tag_encode_allocs_per_op", "count"),
    lower("types.tag_decode_ns", "ns"),
    lower("types.tag_decode_allocs_per_op", "count"),
    lower("types.idset_merge_ns", "ns"),
    lower("types.idset_merge_allocs_per_op", "count"),
    lower("types.envelope_codec_ns", "ns"),
    lower("types.envelope_codec_allocs_per_op", "count"),
    lower("types.frame_codec_ns", "ns"),
    lower("types.frame_codec_allocs_per_op", "count"),
    lower("types.tag_wire_bytes_per_op", "B"),
    lower("types.tag_full_share", "ratio"),
    // -- hope-runtime
    lower("runtime.spsc_ns", "ns"),
    lower("runtime.spsc_allocs_per_op", "count"),
    lower("runtime.reliable_ns", "ns"),
    lower("runtime.reliable_allocs_per_op", "count"),
    lower("runtime.raw_send_ns", "ns"),
    higher("runtime.raw_msgs_per_s", "1/s"),
    higher("runtime.sim_events_per_s", "1/s"),
    lower("runtime.tcp_reconnect_ms", "ms"),
    lower("runtime.fabric_cpu_ns_per_op", "ns"),
    lower("runtime.ctx_switches_per_op", "count"),
    lower("runtime.retransmits_per_kop", "count"),
    lower("runtime.dedup_dropped_per_kop", "count"),
    lower("runtime.acks_per_op", "count"),
    lower("runtime.tcp_send_ns", "ns"),
    lower("runtime.tcp_rtt_p50_us", "us"),
    lower("runtime.tcp_rtt_p99_us", "us"),
    // -- hope-core
    lower("core.aid_step_ns", "ns"),
    lower("core.aid_step_allocs_per_op", "count"),
    lower("core.durable_overhead_ratio", "ratio"),
    lower("core.producer_cpu_ns_per_op", "ns"),
    lower("core.consumer_cpu_ns_per_op", "ns"),
    lower("core.implicit_guesses_per_op", "count"),
    lower("core.hope_msgs_per_op", "count"),
    lower("core.send_p50_ns", "ns"),
    lower("core.guess_p50_ns", "ns"),
    lower("core.guess_p99_ns", "ns"),
    lower("core.affirm_p50_ns", "ns"),
    lower("core.affirm_p99_ns", "ns"),
    lower("core.rollbacks_per_op", "count"),
    lower("core.replayed_ops_per_op", "count"),
    lower("core.wasted_ops_per_op", "count"),
    higher("core.commit_ratio", "ratio"),
    lower("core.rollback_span_us", "us"),
    lower("core.deny_recover_p50_us", "us"),
    lower("core.deny_recover_p99_us", "us"),
    // -- hope-rpc
    lower("rpc.call_issue_ns", "ns"),
    lower("rpc.redeem_ns", "ns"),
    higher("rpc.hit_ratio", "ratio"),
    higher("rpc.virt_speedup", "ratio"),
    // -- hope-store
    lower("store.append_ns", "ns"),
    lower("store.append_allocs_per_op", "count"),
    lower("store.recover_us_per_kop", "us"),
    // -- self time of the spans around each call into a layer
    lower("span.ctx_send_us_per_op", "us"),
    lower("span.ctx_receive_us_per_op", "us"),
    lower("span.ctx_guess_us_per_op", "us"),
    lower("span.ctx_affirm_us_per_op", "us"),
    lower("span.ctx_deny_us_per_op", "us"),
    lower("span.ctx_await_definite_us_per_op", "us"),
    lower("span.net_send_us_per_op", "us"),
    lower("span.net_sink_us_per_op", "us"),
    lower("span.reply_wait_us_per_op", "us"),
    lower("span.rpc_call_us_per_op", "us"),
    lower("span.rpc_redeem_us_per_op", "us"),
    lower("span.env_run_us_per_op", "us"),
];

/// The span names the workloads record, in `PER_LAYER` spelling:
/// `ctx.send` is reported as `span.ctx_send_us_per_op`.
pub fn span_metric_name(span: &str) -> String {
    format!("span.{}_us_per_op", span.replace('.', "_"))
}

/// Seconds one run measures (`run_seconds` of the manifest, and the
/// default of `--seconds`).
pub const RUN_SECONDS: u64 = 10;

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--bin",
        "bench",
        "--",
    ];
    let list = |items: Vec<String>| items.join(",\n    ");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.map(json_str).join(", "),
        list(Workload::ALL
            .iter()
            .map(|w| format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            ))
            .collect()),
        list(END_TO_END
            .iter()
            .map(|m| format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound
            ))
            .collect()),
        list(PER_LAYER
            .iter()
            .map(|m| format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            ))
            .collect()),
    )
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// The number as measured (non-finite values are printed as 0).
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// The benchmark's last line of output: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            let value = if v.value.is_finite() { v.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(&v.name),
                json_str(&v.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Reads back a [`result_line`]: (correct, attempted, failed, values).
/// Only this benchmark's own output format is understood.
pub fn parse_result_line(line: &str) -> Option<(bool, u64, u64, Vec<Value>)> {
    let after = |hay: &'_ str, key: &str| -> Option<usize> { Some(hay.find(key)? + key.len()) };
    let number_at = |at: usize| -> Option<&str> {
        let rest = &line[at..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let correct = number_at(after(line, "\"correct\": ")?)? == "true";
    let attempted = number_at(after(line, "\"attempted\": ")?)?.parse().ok()?;
    let failed = number_at(after(line, "\"failed\": ")?)?.parse().ok()?;
    let mut values = Vec::new();
    let mut rest = &line[after(line, "\"metrics\": {")?..];
    while let Some(open) = rest.find("\": {\"value\": ") {
        let name = &rest[rest[..open].rfind('"')? + 1..open];
        let tail = &rest[open + "\": {\"value\": ".len()..];
        let value = tail[..tail.find(',')?].parse().ok()?;
        let unit_at = after(tail, "\"unit\": \"")?;
        let unit_len = tail[unit_at..].find('"')?;
        values.push(Value {
            name: name.to_string(),
            value,
            unit: tail[unit_at..unit_at + unit_len].to_string(),
        });
        rest = &tail[unit_at + unit_len..];
    }
    Some((correct, attempted, failed, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let values = vec![
            Value {
                name: "ops_per_s".into(),
                value: 1234.5678,
                unit: "1/s".into(),
            },
            Value {
                name: "core.commit_ratio".into(),
                value: f64::NAN,
                unit: "ratio".into(),
            },
        ];
        let line = result_line(true, 10, 0, &values);
        let (correct, attempted, failed, back) = parse_result_line(&line).expect("parses");
        assert!(correct);
        assert_eq!((attempted, failed), (10, 0));
        assert_eq!(back[0], values[0]);
        assert_eq!(back[1].value, 0.0, "non-finite values print as 0");
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{} {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in Workload::ALL {
            assert!(ok_name(w.name()) && seen.insert(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.why()
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
    }
}
