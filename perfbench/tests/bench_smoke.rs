//! Every workload and every ladder rung at a hundredth of the benchmark's
//! size: no operation fails, every registered metric is printed under a
//! well-formed name, and `BENCHMARK.json` lists exactly those names.

use std::collections::BTreeSet;
use std::time::Duration;

use hope_perfbench::metrics::{manifest, parse_result_line, result_line, END_TO_END, PER_LAYER};
use hope_perfbench::runner::{run, RunConfig};
use hope_perfbench::workloads::{is_miss, mix, Sizing, Workload, MISS_EVERY};
use hope_perfbench::{ladder, spans::SpanLog};

fn smoke(workload: Workload, trace: bool, seed: u64) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 0.2,
        trace,
        sizing: Sizing::smoke(),
        trace_dir: None,
    }
}

/// Runs `workload` in both modes and checks the printed result against
/// the registry.
fn check(workload: Workload) {
    for (trace, registry) in [(false, END_TO_END), (true, PER_LAYER)] {
        let result = run(&smoke(workload, trace, 7));
        assert_eq!(result.failed, 0, "{}: {:?}", workload.name(), result.report);
        assert!(result.correct && result.attempted >= 1);
        // What a reader of the last output line sees.
        let line = result_line(
            result.correct,
            result.attempted,
            result.failed,
            &result.values,
        );
        let (_, _, failed, printed) = parse_result_line(&line).expect("result line parses");
        assert_eq!(failed, 0);
        let names: Vec<&str> = printed.iter().map(|v| v.name.as_str()).collect();
        let expected: Vec<&str> = registry.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{} trace={trace}", workload.name());
        for (value, def) in printed.iter().zip(registry) {
            assert_eq!(value.unit, def.unit, "{}", def.name);
            assert!(value.value.is_finite() && value.value >= 0.0, "{value:?}");
        }
        if !trace {
            // Wall-clock end-to-end metrics are never 0 (CPU time can be,
            // below one scheduler tick, at this size only).
            for v in printed.iter().filter(|v| v.name != "cpu_us_per_op") {
                assert!(v.value > 0.0, "{} {v:?}", workload.name());
            }
        } else {
            let get = |name: &str| printed.iter().find(|v| v.name == name).unwrap().value;
            assert_eq!(get("bench.fail_share"), 0.0);
            assert!(
                get("bench.units") >= 2.0,
                "one untraced and one traced unit"
            );
        }
    }
}

#[test]
fn stream_definite_smoke() {
    check(Workload::StreamDefinite);
}

#[test]
fn stream_spec_smoke() {
    check(Workload::StreamSpec);
}

#[test]
fn contend_deny_smoke() {
    check(Workload::ContendDeny);
}

#[test]
fn tcp_echo_smoke() {
    check(Workload::TcpEcho);
}

#[test]
fn sim_chain_smoke() {
    check(Workload::SimChain);
}

#[test]
fn workloads_exercise_the_layers_they_claim() {
    let get = |workload, name: &str| {
        let result = run(&smoke(workload, true, 11));
        assert_eq!(result.failed, 0, "{:?}", result.report);
        result.values.iter().find(|v| v.name == name).unwrap().value
    };
    // No speculation, no HOPE traffic; speculation, tags on the wire.
    assert_eq!(get(Workload::StreamDefinite, "core.hope_msgs_per_op"), 0.0);
    assert!(get(Workload::StreamSpec, "core.implicit_guesses_per_op") > 0.0);
    assert!(get(Workload::StreamSpec, "types.tag_wire_bytes_per_op") > 0.0);
    assert_eq!(get(Workload::StreamSpec, "core.rollbacks_per_op"), 0.0);
    // One deny per ten rounds really rolls something back.
    assert!(get(Workload::ContendDeny, "core.rollbacks_per_op") > 0.0);
    assert!(get(Workload::ContendDeny, "core.deny_recover_p50_us") > 0.0);
    // The echo bypasses hope-core; the chain hides latency.
    assert_eq!(get(Workload::TcpEcho, "core.implicit_guesses_per_op"), 0.0);
    assert!(get(Workload::TcpEcho, "runtime.tcp_rtt_p50_us") > 0.0);
    assert!(get(Workload::SimChain, "rpc.virt_speedup") > 1.0);
    let hit = get(Workload::SimChain, "rpc.hit_ratio");
    assert!(
        (0.5..1.0).contains(&hit),
        "most predictions hold, one missed: {hit}"
    );
}

#[test]
fn every_ladder_rung_reports() {
    let rungs = ladder::run(3, Duration::from_millis(5), &Sizing::smoke());
    let registered: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    for (name, value) in &rungs {
        assert!(registered.contains(name), "{name} is not in the registry");
        assert!(value.is_finite() && *value >= 0.0, "{name} = {value}");
        // Allocation counts are 0 here: only the `bench` binary installs
        // the counting allocator.
        if !name.ends_with("_allocs_per_op") {
            assert!(*value > 0.0, "{name} measured nothing");
        }
    }
    assert!(rungs.len() >= 20, "{} rungs", rungs.len());
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    let stream = |seed| (0..100).map(|i| mix(seed, i)).collect::<Vec<_>>();
    assert_eq!(stream(5), stream(5));
    assert_ne!(stream(5), stream(6));
    // The miss schedule is fixed: exactly one per block of ten.
    let misses = (0..100).filter(|&i| is_miss(i)).count() as u64;
    assert_eq!(misses, 100 / MISS_EVERY);
}

#[test]
fn spans_are_recorded_only_when_tracing() {
    use hope_perfbench::workloads::run_unit;
    let off = SpanLog::new(false);
    run_unit(Workload::StreamSpec, 1, &Sizing::smoke(), &off);
    assert!(off.is_empty());
    let on = SpanLog::new(true);
    let unit = run_unit(Workload::StreamSpec, 1, &Sizing::smoke(), &on);
    assert_eq!(unit.failed, 0);
    let own = on.self_time_ns();
    for span in ["ctx.send", "ctx.receive", "ctx.guess", "ctx.affirm"] {
        assert!(own.get(span).copied().unwrap_or(0) > 0, "{span}: {own:?}");
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace-smoke.json");
    on.write_chrome_trace(&path).expect("trace written");
    let text = std::fs::read_to_string(&path).expect("trace readable");
    let _ = std::fs::remove_file(&path);
    assert!(text.starts_with("{\"traceEvents\":[") && text.trim_end().ends_with("]}"));
    assert!(text.contains("\"name\":\"ctx.send\",\"ph\":\"X\""));
}

#[test]
fn benchmark_json_is_generated_from_the_registry() {
    let committed = include_str!("../../BENCHMARK.json");
    assert_eq!(
        committed,
        manifest(),
        "BENCHMARK.json is stale: regenerate it with `bench --print-manifest`"
    );
    // Exactly the names the binary prints, and nothing else.
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let needle = format!("\"name\": \"{}\"", def.name);
        assert_eq!(committed.matches(&needle).count(), 1, "{}", def.name);
    }
    let listed = committed.matches("\"name\": ").count();
    assert_eq!(
        listed,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
