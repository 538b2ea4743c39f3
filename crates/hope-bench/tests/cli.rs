//! The command line: flags are parsed, not ignored, and anything the
//! driver does not know is a usage error (exit code 2) on stderr.

use std::process::{Command, Output};

use hope_bench::EXPERIMENTS;

fn hope_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hope-bench"))
        .args(args)
        .output()
        .expect("run the driver")
}

fn assert_usage_error(args: &[&str]) {
    let out = hope_bench(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    assert!(
        out.stdout.is_empty(),
        "{args:?} must print nothing on stdout"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: hope-bench"), "{args:?}: {stderr}");
}

#[test]
fn unknown_subcommands_and_flags_are_usage_errors() {
    assert_usage_error(&[]);
    assert_usage_error(&["all_experiments"]);
    assert_usage_error(&["table1", "--quick"]);
    assert_usage_error(&["table1", "out.json"]);
    assert_usage_error(&["trace", "a.json", "b.json"]);
    // Nothing to check against: an ungated experiment, a reduced run.
    assert_usage_error(&["table1", "--check"]);
    assert_usage_error(&["quadratic", "--fast", "--check"]);
    assert_usage_error(&["all", "--check"]);
    // `list` has no variants: a flag it would ignore is a mistake.
    assert_usage_error(&["list", "--fast"]);
    assert_usage_error(&["list", "--json"]);
}

#[test]
fn fast_is_read_from_the_command_line() {
    let full = hope_bench(&["rpc_improvement"]);
    let fast = hope_bench(&["rpc_improvement", "--fast"]);
    assert!(full.status.success() && fast.status.success());
    assert!(
        fast.stdout.len() < full.stdout.len(),
        "--fast must shrink the sweep"
    );
}

#[test]
fn list_prints_id_name_and_baseline_file() {
    let out = hope_bench(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(text.lines().count(), EXPERIMENTS.len());
    for (line, e) in text.lines().zip(EXPERIMENTS) {
        let mut columns = line.split_whitespace();
        assert_eq!(columns.next(), Some(e.id));
        assert_eq!(columns.next(), Some(e.name));
        assert_eq!(columns.next(), Some(e.baseline.map_or("-", |b| b.file)));
    }
}
