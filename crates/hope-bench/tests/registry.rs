//! The experiment table holds together: unique rows, every experiment
//! runnable at its `--fast` set, and every committed `BENCH_*.json`
//! reproduced byte for byte by a fresh full run.

use std::collections::BTreeSet;

use hope_bench::{baseline, Opts, EXPERIMENTS};

/// Needs three child processes of the driver binary; CI's cluster-smoke
/// job writes its file with `-- cluster` and diffs it instead.
const NEEDS_CHILD_PROCESSES: &str = "cluster";

#[test]
fn names_and_ids_are_unique() {
    let names: BTreeSet<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let ids: BTreeSet<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate subcommand name");
    assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");
    for reserved in ["all", "list", hope_bench::cluster::NODE_SUBCOMMAND] {
        assert!(
            !names.contains(reserved),
            "{reserved} is a driver subcommand"
        );
    }
    let files: BTreeSet<_> = EXPERIMENTS.iter().filter_map(|e| e.ledger).collect();
    let writers = EXPERIMENTS.iter().filter(|e| e.ledger.is_some()).count();
    assert_eq!(files.len(), writers, "two experiments share a ledger file");
}

#[test]
fn every_experiment_runs_fast_and_returns_a_table() {
    let scratch = std::env::temp_dir().join(format!("hope-bench-{}.json", std::process::id()));
    for e in EXPERIMENTS
        .iter()
        .filter(|e| e.name != NEEDS_CHILD_PROCESSES)
    {
        let report = (e.run)(&Opts {
            fast: true,
            path: e.takes_path.then(|| scratch.display().to_string()),
        });
        assert!(!report.sections.is_empty(), "{}: no table", e.name);
        for section in &report.sections {
            assert!(!section.table.rows.is_empty(), "{}: empty table", e.name);
        }
        assert!(
            report.cells.is_none(),
            "{}: a --fast run must not yield ledger cells",
            e.name
        );
    }
    let _ = std::fs::remove_file(scratch);
}

/// The ledger is deterministic, so equality — not a tolerance — is the
/// test, and it is byte equality: the fresh run is rendered exactly as
/// the driver writes it and compared with the committed text. Nothing is
/// parsed.
#[test]
fn committed_ledgers_are_reproduced_exactly() {
    for e in EXPERIMENTS
        .iter()
        .filter(|e| e.name != NEEDS_CHILD_PROCESSES)
    {
        let Some(file) = e.ledger else {
            continue;
        };
        let fresh = (e.run)(&Opts::default())
            .cells
            .unwrap_or_else(|| panic!("{}: a full run yields cells", e.name));
        let committed = std::fs::read_to_string(baseline::repo_root().join(file))
            .unwrap_or_else(|err| panic!("{file}: {err}"));
        assert_eq!(
            baseline::render(&fresh),
            committed,
            "{file} is stale: rewrite it with `cargo run --release -p hope-bench -- {}`",
            e.name
        );
    }
}

#[test]
fn no_committed_cell_is_a_wall_clock_reading() {
    for file in EXPERIMENTS.iter().filter_map(|e| e.ledger) {
        let text = std::fs::read_to_string(baseline::repo_root().join(file))
            .unwrap_or_else(|err| panic!("{file}: {err}"));
        assert!(!text.contains("wall"), "{file} holds a wall cell");
    }
}
