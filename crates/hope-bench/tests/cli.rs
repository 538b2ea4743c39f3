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

/// Asserts `args` is refused with usage on stderr; returns that stderr.
fn assert_usage_error(args: &[&str]) -> String {
    let out = hope_bench(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    assert!(
        out.stdout.is_empty(),
        "{args:?} must print nothing on stdout"
    );
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("usage: hope-bench"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn unknown_subcommands_and_flags_are_usage_errors() {
    assert_usage_error(&[]);
    assert_usage_error(&["all_experiments"]);
    assert_usage_error(&["table1", "--quick"]);
    assert_usage_error(&["table1", "out.json"]);
    assert_usage_error(&["trace", "a.json", "b.json"]);
    assert_usage_error(&["all", "out.json"]);
    // `list` has no variants: a flag it would ignore is a mistake.
    assert_usage_error(&["list", "--fast"]);
    assert_usage_error(&["list", "--json"]);
}

/// A ledger file has one rule, byte equality, checked by the registry
/// test: there is no tolerant compare mode to ask for.
#[test]
fn check_is_an_unknown_flag() {
    for args in [
        &["quadratic", "--check"][..],
        &["quadratic", "--fast", "--check"],
        &["table1", "--check"],
        &["all", "--check"],
    ] {
        let stderr = assert_usage_error(args);
        assert!(
            stderr.contains("unknown flag --check"),
            "{args:?}: {stderr}"
        );
    }
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
fn list_prints_id_name_and_ledger_file() {
    let out = hope_bench(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(text.lines().count(), EXPERIMENTS.len());
    for (line, e) in text.lines().zip(EXPERIMENTS) {
        let mut columns = line.split_whitespace();
        assert_eq!(columns.next(), Some(e.id));
        assert_eq!(columns.next(), Some(e.name));
        assert_eq!(columns.next(), Some(e.ledger.unwrap_or("-")));
    }
}
