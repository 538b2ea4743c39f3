//! `hope-check` — drive the model checker from the command line.
//!
//! ```text
//! hope-check ci                         # the fixed-budget CI suite
//! hope-check explore ring2             # bounded exhaustive DFS
//! hope-check explore ring2-alg1       # expect the §5.3 livelock
//! hope-check walk chaos2 --schedules 200 --seed 7
//! hope-check replay ring2 --decisions 2,0,1
//! hope-check shrink-demo              # break an oracle, shrink the trace
//! ```
//!
//! Scenarios: `ring2`, `ring3` (Algorithm 2 mutual-affirm rings),
//! `ring2-alg1`, `ring3-alg1` (Algorithm 1, livelocks), `chaos2`,
//! `chaos3` (Algorithm 2 plus a crash/restart of ring process 0 and the
//! reliable-delivery sublayer), `disk2`, `disk3` (the chaos ring with
//! durable op-logs whose crash images take seeded storage faults),
//! `storm2-adaptive`, `storm3-adaptive`, `storm2-pessimistic`,
//! `storm3-pessimistic` (a ring plus a persistently denied AID under the
//! DESIGN.md §9 speculation-control policies), `doomed-optimistic`,
//! `doomed-adaptive`, `doomed-pessimistic` (a denied assumption with a
//! tagged stream queued behind it, DESIGN.md S8; committed outcomes are
//! held to the pessimistic run's).
//! Everything is deterministic given the flags; all run within a small
//! fixed budget (see EXPERIMENTS.md E-check).

use std::process::ExitCode;
use std::time::Instant;

use hope_check::{
    dfs, random_walk, shrink, CommittedOutcomeOracle, ConvergenceOracle, CrashRecoveryOracle,
    DemoOrderOracle, DfsConfig, Oracle, SafetyOracle, WaitFreedomOracle, WalkConfig,
};
use hope_core::HopeEnv;
use hope_core::SpecPolicy::{self, AlwaysOptimistic, Pessimistic};
use hope_sim::scenarios::{chaos_ring, deny_storm, disk_ring, doomed_stream, ring};

/// Builds a scenario from a seed.
type Builder = fn(u64) -> HopeEnv;

struct Scenario {
    name: &'static str,
    build: Builder,
    /// Algorithm 1 scenarios are *expected* to livelock.
    expect_livelock: bool,
    /// Convergence is only promised when no message can be lost for good.
    lossless: bool,
    has_crashes: bool,
    /// The same program under a policy that never runs ahead, for
    /// scenarios whose processes report what they committed.
    reference: Option<Builder>,
}

/// The storm scenarios use a threshold low enough that a single denied
/// observation throttles the process, so the checker explores the
/// parked-guess wake paths, not just unthrottled optimism.
fn adaptive() -> SpecPolicy {
    SpecPolicy::adaptive(0.1, 4, 0.05).expect("valid checker policy")
}

/// Name, builder from a seed, then `expect_livelock`, `lossless` and
/// `has_crashes`: a [`Scenario`], one line each.
type Row = (&'static str, Builder, bool, bool, bool);

static SCENARIOS: &[Row] = &[
    ("ring2", |seed| ring(2, true, seed), false, true, false),
    ("ring3", |seed| ring(3, true, seed), false, true, false),
    ("ring2-alg1", |seed| ring(2, false, seed), true, true, false),
    ("ring3-alg1", |seed| ring(3, false, seed), true, true, false),
    ("chaos2", |seed| chaos_ring(2, seed), false, false, true),
    ("chaos3", |seed| chaos_ring(3, seed), false, false, true),
    ("disk2", |seed| disk_ring(2, seed), false, false, true),
    ("disk3", |seed| disk_ring(3, seed), false, false, true),
    (
        "storm2-adaptive",
        |s| deny_storm(2, adaptive(), s),
        false,
        true,
        false,
    ),
    (
        "storm3-adaptive",
        |s| deny_storm(3, adaptive(), s),
        false,
        true,
        false,
    ),
    (
        "storm2-pessimistic",
        |s| deny_storm(2, Pessimistic, s),
        false,
        true,
        false,
    ),
    (
        "storm3-pessimistic",
        |s| deny_storm(3, Pessimistic, s),
        false,
        true,
        false,
    ),
];

/// [`doomed_stream`] under the policy that never runs ahead.
const DOOMED_NEVER_AHEAD: Builder = |s| doomed_stream(Pessimistic, s);

/// Scenarios whose processes report what they committed (lossless,
/// crash-free): name, builder, and the same program under a policy that
/// never runs ahead — its `reference`.
static COMMITTING: &[(&str, Builder, Builder)] = &[
    (
        "doomed-optimistic",
        |s| doomed_stream(AlwaysOptimistic, s),
        DOOMED_NEVER_AHEAD,
    ),
    (
        "doomed-adaptive",
        |s| doomed_stream(adaptive(), s),
        DOOMED_NEVER_AHEAD,
    ),
    ("doomed-pessimistic", DOOMED_NEVER_AHEAD, DOOMED_NEVER_AHEAD),
];

fn scenario(name: &str) -> Result<Scenario, String> {
    if let Some(&(name, build, reference)) = COMMITTING.iter().find(|row| row.0 == name) {
        return Ok(Scenario {
            name,
            build,
            expect_livelock: false,
            lossless: true,
            has_crashes: false,
            reference: Some(reference),
        });
    }
    let row = SCENARIOS.iter().find(|row| row.0 == name);
    let &(name, build, expect_livelock, lossless, has_crashes) =
        row.ok_or_else(|| format!("unknown scenario {name}"))?;
    Ok(Scenario {
        name,
        build,
        expect_livelock,
        lossless,
        has_crashes,
        reference: None,
    })
}

fn oracles_for(s: &Scenario, seed: u64, max_steps: u64) -> Vec<Box<dyn Oracle>> {
    let mut set: Vec<Box<dyn Oracle>> = vec![Box::new(SafetyOracle)];
    if s.lossless && !s.expect_livelock {
        set.push(Box::new(ConvergenceOracle));
        set.push(Box::new(WaitFreedomOracle { max_steps }));
    }
    if s.has_crashes {
        set.push(Box::new(CrashRecoveryOracle::default()));
    }
    if let Some(reference) = s.reference {
        set.push(Box::new(CommittedOutcomeOracle::from_reference(reference(
            seed,
        ))));
    }
    set
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn num(args: &[String], name: &str, default: u64) -> u64 {
    flag(args, name)
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {name}: {v}")))
        .unwrap_or(default)
}

fn fmt_decisions(d: &[u32]) -> String {
    let parts: Vec<String> = d.iter().map(|x| x.to_string()).collect();
    parts.join(",")
}

fn cmd_explore(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("explore needs a scenario")?;
    let seed = num(args, "--seed", 1);
    let s = scenario(name)?;
    let cfg = DfsConfig {
        max_states: num(args, "--max-states", 200_000) as usize,
        max_schedule_steps: num(args, "--max-steps", 2_000),
        sleep_sets: !args.iter().any(|a| a == "--no-sleep"),
    };
    let mut oracles = oracles_for(&s, seed, cfg.max_schedule_steps);
    let start = Instant::now();
    let report = dfs(&|| (s.build)(seed), &mut oracles, &cfg);
    println!(
        "explore {}: {} branch states, {} terminal states, {} replays, {} steps, {:.2?}",
        s.name,
        report.branch_states,
        report.terminals,
        report.replays,
        report.total_steps,
        start.elapsed()
    );
    if report.truncated {
        println!("  (budget hit: exploration truncated)");
    }
    if let Some(cx) = &report.violation {
        return Err(format!(
            "violation: {}\n  replay with: hope-check replay {} --seed {} --decisions {}",
            cx.violation,
            s.name,
            seed,
            fmt_decisions(&cx.decisions)
        ));
    }
    match (report.found_cycle, s.expect_livelock) {
        (true, true) => {
            let witness = report.cycle_witness.clone().unwrap_or_default();
            println!(
                "  livelock cycle found (expected for Algorithm 1); witness decisions: [{}]",
                fmt_decisions(&witness)
            );
        }
        (false, true) => return Err("expected the Algorithm 1 livelock, found none".into()),
        (true, false) => {
            return Err(format!(
                "unexpected livelock; witness decisions: [{}]",
                fmt_decisions(&report.cycle_witness.clone().unwrap_or_default())
            ))
        }
        (false, false) => {}
    }
    // Pinned state count: CI uses this to assert that a transport or
    // runtime change did not alter the model-checked state space.
    if let Some(expect) = flag(args, "--expect-states") {
        let expect: u64 = expect
            .parse()
            .map_err(|_| format!("bad --expect-states: {expect}"))?;
        if report.branch_states as u64 != expect {
            return Err(format!(
                "pinned state count changed: explored {} branch states, pinned {expect}",
                report.branch_states
            ));
        }
    }
    Ok(())
}

fn cmd_walk(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("walk needs a scenario")?;
    let seed = num(args, "--seed", 1);
    let s = scenario(name)?;
    let cfg = WalkConfig {
        schedules: num(args, "--schedules", 100),
        max_schedule_steps: num(args, "--max-steps", 10_000),
        seed: num(args, "--walk-seed", seed),
    };
    let mut oracles = oracles_for(&s, seed, cfg.max_schedule_steps);
    let start = Instant::now();
    let report = random_walk(&|| (s.build)(seed), &mut oracles, &cfg);
    println!(
        "walk {}: {} schedules ({} terminal, {} abandoned), {} steps, {} distinct terminal states, {:.2?}",
        s.name,
        report.schedules,
        report.terminal_runs,
        report.abandoned,
        report.total_steps,
        report.distinct_terminals,
        start.elapsed()
    );
    if let Some(cx) = &report.violation {
        return Err(format!(
            "violation: {}\n  replay with: hope-check replay {} --seed {} --decisions {}",
            cx.violation,
            s.name,
            seed,
            fmt_decisions(&cx.decisions)
        ));
    }
    // Pinned terminal-state count, the walk-mode analogue of
    // `--expect-states` (see cmd_explore).
    if let Some(expect) = flag(args, "--expect-terminals") {
        let expect: u64 = expect
            .parse()
            .map_err(|_| format!("bad --expect-terminals: {expect}"))?;
        if report.distinct_terminals as u64 != expect {
            return Err(format!(
                "pinned terminal count changed: {} distinct terminal states, pinned {expect}",
                report.distinct_terminals
            ));
        }
    }
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("replay needs a scenario")?;
    let seed = num(args, "--seed", 1);
    let s = scenario(name)?;
    let decisions: Vec<u32> = flag(args, "--decisions")
        .map(|v| {
            v.split(',')
                .filter(|p| !p.is_empty())
                .map(|p| p.parse().unwrap_or_else(|_| panic!("bad decision {p}")))
                .collect()
        })
        .unwrap_or_default();
    let mut oracles = oracles_for(&s, seed, u64::MAX);
    // Counterexamples found by shrink-demo fire the deliberately broken
    // ordering oracle; opt into it to reproduce them.
    if args.iter().any(|a| a == "--demo-oracle") {
        oracles.push(Box::new(DemoOrderOracle));
    }
    // With `--trace out.json`, enable the causal tracer on the replayed
    // environment and export its Chrome trace afterwards — the timeline of
    // a shrunken counterexample is usually the fastest way to read it.
    let trace_out = flag(args, "--trace");
    let tracer: std::cell::RefCell<Option<std::sync::Arc<hope_types::TraceCollector>>> =
        std::cell::RefCell::new(None);
    let out = hope_check::explore::replay(
        &|| {
            let env = (s.build)(seed);
            if trace_out.is_some() {
                env.enable_tracing(1 << 16);
                *tracer.borrow_mut() = Some(env.tracer());
            }
            env
        },
        &decisions,
        &mut oracles,
        num(args, "--max-steps", 10_000),
        true,
    );
    println!(
        "replay {} decisions=[{}]: {} steps, end = {:?}",
        s.name,
        fmt_decisions(&decisions),
        out.steps,
        match &out.end {
            hope_check::explore::ReplayEnd::Violated(v) => format!("VIOLATED {v}"),
            other => format!("{other:?}"),
        }
    );
    if let Some(path) = trace_out {
        let tracer = tracer
            .into_inner()
            .expect("replay built the environment under --trace");
        hope_sim::trace_export::write_trace_file(
            std::path::Path::new(&path),
            &tracer,
            &out.metrics.attribution,
        )
        .map_err(|e| format!("writing {path}: {e}"))?;
        println!("trace written to {path}");
    }
    Ok(())
}

/// Breaks an (intentionally bogus) ordering oracle on the 2-ring, then
/// shrinks the violating schedule — the end-to-end demo of the
/// counterexample pipeline. Prints the minimal replayable seed + decisions.
fn cmd_shrink_demo(args: &[String]) -> Result<(), String> {
    let seed = num(args, "--seed", 42);
    let build_env = || ring(2, true, seed);
    let build: &dyn Fn() -> HopeEnv = &build_env;
    let mut oracles: Vec<Box<dyn Oracle>> = vec![Box::new(DemoOrderOracle)];
    let walk = random_walk(
        &build,
        &mut oracles,
        &WalkConfig {
            schedules: 200,
            max_schedule_steps: 2_000,
            seed,
        },
    );
    let Some(cx) = walk.violation else {
        return Err("demo oracle never fired — the walk should find an order violation".into());
    };
    println!(
        "violation after {} steps: {}\n  original decisions ({}): [{}]",
        walk.total_steps,
        cx.violation,
        cx.decisions.len(),
        fmt_decisions(&cx.decisions)
    );
    let report = shrink(&build, &mut oracles, &cx.decisions, 2_000, 2_000)
        .ok_or("original counterexample failed to replay")?;
    println!(
        "shrunk {} -> {} decisions in {} trials",
        report.original.len(),
        report.minimal.len(),
        report.trials
    );
    println!(
        "minimal counterexample: seed={} decisions=[{}]\n  ({})",
        seed,
        fmt_decisions(&report.minimal),
        report.violation
    );
    println!(
        "  replay with: hope-check replay ring2 --seed {} --demo-oracle --decisions {}",
        seed,
        fmt_decisions(&report.minimal)
    );
    Ok(())
}

/// The CI suite: fixed seeds, fixed budgets, deterministic, < ~2 min.
fn cmd_ci(args: &[String]) -> Result<(), String> {
    let start = Instant::now();
    // 1. Exhaustive: every delivery order of the 2-ring converges under
    //    Algorithm 2.
    cmd_explore(&["ring2".into(), "--seed".into(), "1".into()])?;
    // 2. Exhaustive: Algorithm 1 livelocks on the same ring.
    cmd_explore(&[
        "ring2-alg1".into(),
        "--seed".into(),
        "1".into(),
        "--max-states".into(),
        num(args, "--max-states", 50_000).to_string(),
    ])?;
    // 3. Random walks: 3-ring under Algorithm 2.
    cmd_walk(&[
        "ring3".into(),
        "--schedules".into(),
        "150".into(),
        "--walk-seed".into(),
        "3405691582".into(), // 0xCAFEBABE
    ])?;
    // 4. Random walks: chaos ring (crash + retransmissions), safety and
    //    crash-recovery equivalence only.
    cmd_walk(&[
        "chaos2".into(),
        "--schedules".into(),
        "150".into(),
        "--walk-seed".into(),
        "7".into(),
    ])?;
    // 5. Random walks: disk ring (crash with a storage-faulted durable
    //    op-log) — recovery must stay safe on every schedule even when the
    //    crash image is torn, truncated, or bit-flipped.
    cmd_walk(&[
        "disk2".into(),
        "--schedules".into(),
        "150".into(),
        "--walk-seed".into(),
        "11".into(),
    ])?;
    // 6. Deny storm under adaptive throttling and full pessimism: a
    //    persistently denied AID must not cost convergence or wait-freedom
    //    whichever way the speculation policy reacts (DESIGN.md §9).
    cmd_explore(&["storm2-adaptive".into(), "--seed".into(), "1".into()])?;
    cmd_walk(&[
        "storm3-adaptive".into(),
        "--schedules".into(),
        "150".into(),
        "--walk-seed".into(),
        "13".into(),
    ])?;
    cmd_explore(&["storm2-pessimistic".into(), "--seed".into(), "1".into()])?;
    cmd_walk(&[
        "storm3-pessimistic".into(),
        "--schedules".into(),
        "150".into(),
        "--walk-seed".into(),
        "17".into(),
    ])?;
    // 7. A denied assumption with a tagged stream queued behind it
    //    (DESIGN.md S8), exhaustively under all three policies: what the
    //    processes report as committed must be what the pessimistic run
    //    reports, on every schedule.
    for &(name, ..) in COMMITTING {
        cmd_explore(&[name.into(), "--seed".into(), "1".into()])?;
    }
    // 8. The counterexample pipeline end-to-end.
    cmd_shrink_demo(&["--seed".into(), "42".into()])?;
    println!("ci suite passed in {:.2?}", start.elapsed());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r.to_vec()),
        None => ("ci", Vec::new()),
    };
    let result = match cmd {
        "ci" => cmd_ci(&rest),
        "explore" => cmd_explore(&rest),
        "walk" => cmd_walk(&rest),
        "replay" => cmd_replay(&rest),
        "shrink-demo" => cmd_shrink_demo(&rest),
        "--help" | "-h" | "help" => {
            let names = SCENARIOS.iter().map(|row| row.0);
            let names: Vec<&str> = names.chain(COMMITTING.iter().map(|row| row.0)).collect();
            println!(
                "usage: hope-check [ci|explore|walk|replay|shrink-demo] [scenario] [flags]\n\
                 scenarios: {}\n\
                 flags: --seed N --decisions 1,0,2 --schedules N --max-states N --max-steps N\n\
                 \x20      --walk-seed N --no-sleep --demo-oracle --trace out.json (replay only)\n\
                 \x20      --expect-states N (explore) --expect-terminals N (walk): fail unless\n\
                 \x20      the explored state counts equal the pinned values",
                names.join(" ")
            );
            Ok(())
        }
        other => Err(format!("unknown command {other}; try --help")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("hope-check: {msg}");
            ExitCode::FAILURE
        }
    }
}
