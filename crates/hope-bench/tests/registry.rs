//! The experiment table holds together: unique rows, every experiment
//! runnable at its `--fast` set, and every committed `BENCH_*.json`
//! reproduced cell for cell by a fresh full run.

use std::collections::BTreeSet;

use hope_bench::{baseline, Opts, EXPERIMENTS};

/// Needs three child processes of the driver binary; CI's cluster-smoke
/// job runs it (`-- cluster --check` plus the reproducible-ledger step).
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
    let files: BTreeSet<_> = EXPERIMENTS
        .iter()
        .filter_map(|e| e.baseline.map(|b| b.file))
        .collect();
    let gated = EXPERIMENTS.iter().filter(|e| e.baseline.is_some()).count();
    assert_eq!(files.len(), gated, "two experiments share a baseline file");
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

/// What `perf-smoke` / `adaptive-smoke` check through `cargo run`: the
/// ledger is deterministic, so equality — not a tolerance — is the test.
#[test]
fn committed_ledgers_are_reproduced_exactly() {
    for e in EXPERIMENTS
        .iter()
        .filter(|e| e.name != NEEDS_CHILD_PROCESSES)
    {
        let Some(committed) = e.baseline else {
            continue;
        };
        let fresh = (e.run)(&Opts::default())
            .cells
            .unwrap_or_else(|| panic!("{}: a full run of a gated experiment yields cells", e.name));
        let on_disk = baseline::load(committed.file)
            .unwrap_or_else(|| panic!("{} is committed and parses", committed.file));
        assert_eq!(fresh, on_disk, "{} is stale", committed.file);
        assert!(baseline::gate(&on_disk, &fresh, committed.gated).is_empty());
    }
}

#[test]
fn no_committed_cell_is_a_wall_clock_reading() {
    for e in EXPERIMENTS {
        let Some(committed) = e.baseline else {
            continue;
        };
        let text = std::fs::read_to_string(baseline::repo_root().join(committed.file))
            .unwrap_or_else(|err| panic!("{}: {err}", committed.file));
        assert!(
            !text.contains("wall"),
            "{} holds a wall cell",
            committed.file
        );
    }
}
