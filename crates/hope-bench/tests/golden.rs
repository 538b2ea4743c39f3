//! The driver's transcript is committed: every run must print the bytes
//! in `tests/golden/*.txt`, so a change that claims "same tables" for the
//! experiments with no `BENCH_*.json` is checked, not eyeballed. A change
//! that means to move a number regenerates the file and says why.
//!
//! One rule, stated once: lines starting `threaded` are dropped from both
//! sides before comparing. They report runs on real threads — E-chaos's
//! `threaded shards=N:` link counters and E-disk's `threaded:` line, whose
//! crash lands 1.5 ms of wall clock into the run and now and then misses
//! the speculation window — so their counters depend on thread timing.
//! Everything else the driver prints is deterministic.

use std::process::Command;

const WALL_CLOCK_LINE: &str = "threaded";

fn deterministic_lines(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|line| !line.starts_with(WALL_CLOCK_LINE))
        .collect()
}

fn assert_golden(args: &[&str], golden: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_hope-bench"))
        .args(args)
        .output()
        .expect("run the driver");
    assert!(out.status.success(), "{args:?} failed: {:?}", out.status);
    let printed = String::from_utf8(out.stdout).expect("utf-8");
    let (got, want) = (deterministic_lines(&printed), deterministic_lines(golden));
    if let Some(at) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
        panic!(
            "{args:?} diverges from its golden file at line {}:\n  golden:  {:?}\n  printed: {:?}",
            at + 1,
            want.get(at),
            got.get(at),
        );
    }
}

#[test]
fn all_matches_its_transcript() {
    assert_golden(&["all"], include_str!("golden/all.txt"));
}

#[test]
fn all_fast_matches_its_transcript() {
    assert_golden(&["all", "--fast"], include_str!("golden/all_fast.txt"));
}

#[test]
fn disk_chaos_fast_matches_its_transcript() {
    assert_golden(
        &["disk_chaos", "--fast"],
        include_str!("golden/disk_chaos_fast.txt"),
    );
}

#[test]
fn ablation_policies_matches_its_transcript() {
    assert_golden(
        &["ablation_policies"],
        include_str!("golden/ablation_policies.txt"),
    );
}

#[test]
fn trace_demo_matches_its_transcript() {
    assert_golden(&["trace_demo"], include_str!("golden/trace_demo.txt"));
}
