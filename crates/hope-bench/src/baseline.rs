//! The committed ledger: `BENCH_*.json` files at the repository root.
//!
//! A gated experiment renders its headline cells into the workspace's
//! tiny JSON subset (string scalars only — see `hope_sim::json`) and
//! writes them next to the sources, so a change shows up as a diff in
//! review and CI can gate on it. Every cell is deterministic — counts,
//! bytes, virtual time, outcomes, fitted exponents — so a committed file
//! is reproducible byte-for-byte on any machine; anything measured with
//! a stopwatch belongs to `perfbench`, not here.

use std::path::PathBuf;

use hope_sim::json::Value;
use hope_sim::table::Table;

/// How a gated cell is held against its committed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// An outcome (entries committed, violations, convergence): must be
    /// exactly the committed value — fewer entries is as wrong as more.
    Equal,
    /// A cost (messages, bytes, virtual time, exponent): may not exceed
    /// [`COST_FACTOR`]× the committed value.
    Cost,
}

/// Regression factor tolerated on a [`Gate::Cost`] cell.
pub const COST_FACTOR: f64 = 2.0;

/// An experiment's committed file and the cells of it that are gated.
#[derive(Debug, Clone, Copy)]
pub struct Baseline {
    /// File name at the repository root.
    pub file: &'static str,
    /// Top-level keys compared by [`gate`], each with its rule.
    pub gated: &'static [(&'static str, Gate)],
}

/// The workspace root (where `BENCH_*.json` lives), resolved from this
/// crate's manifest so the driver works from any working directory.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

/// A string scalar — the only scalar the committed files hold.
pub fn s(v: impl ToString) -> Value {
    Value::String(v.to_string())
}

/// Builds a JSON object, keeping the given key order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Renders the scalar cells of `cells` as a two-column table, in order
/// (the `bench` label and row arrays are left to the caller's tables).
pub fn cells_table(title: &str, cells: &Value) -> Table {
    let mut table = Table::new(title, &["cell", "value"]);
    if let Value::Object(fields) = cells {
        for (key, value) in fields.iter().filter(|(key, _)| key != "bench") {
            if let Some(text) = value.as_str() {
                table.row(&[key, &text]);
            }
        }
    }
    table
}

/// Least-squares slope of `ln(y)` against `ln(x)` — the growth exponent
/// of a power law `y ≈ c·xᵉ`. Points with a non-positive coordinate are
/// skipped (ln is undefined there); fewer than two usable points fit a
/// flat line (exponent 0).
pub fn fit_exponent(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return 0.0;
    }
    let n = logs.len() as f64;
    let (sx, sy): (f64, f64) = logs
        .iter()
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    let (mx, my) = (sx / n, sy / n);
    let num: f64 = logs.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let den: f64 = logs.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fits the growth exponent of `points` and holds it under `ceiling`.
pub fn fit_below(points: Vec<(f64, f64)>, ceiling: f64, regression: &str) -> f64 {
    let exponent = fit_exponent(&points);
    assert!(
        exponent < ceiling,
        "{regression}: fitted exponent {exponent:.3} >= {ceiling} over {points:?}"
    );
    exponent
}

/// Loads a committed baseline, if the file exists and parses.
pub fn load(file_name: &str) -> Option<Value> {
    let text = std::fs::read_to_string(repo_root().join(file_name)).ok()?;
    hope_sim::json::from_str(&text).ok()
}

/// Writes `value` as the new committed baseline.
pub fn store(file_name: &str, value: &Value) {
    let path = repo_root().join(file_name);
    let mut text = hope_sim::json::to_string_pretty(value);
    text.push('\n');
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Holds the fresh run against the committed baseline on the gated keys
/// and returns human-readable violations. A gated key that is missing or
/// unreadable on either side is itself a violation: a renamed cell must
/// not silently un-gate itself.
pub fn gate(baseline: &Value, fresh: &Value, gated: &[(&str, Gate)]) -> Vec<String> {
    let mut violations = Vec::new();
    for &(key, rule) in gated {
        let (old, new) = (baseline[key].as_str(), fresh[key].as_str());
        let (Some(old), Some(new)) = (old, new) else {
            let side = if old.is_none() {
                "the committed baseline"
            } else {
                "the fresh run"
            };
            violations.push(format!("{key}: gated cell missing from {side}"));
            continue;
        };
        match rule {
            Gate::Equal if new != old => {
                violations.push(format!("{key}: {new} differs from the committed {old}"));
            }
            Gate::Equal => {}
            Gate::Cost => match (old.parse::<f64>(), new.parse::<f64>()) {
                (Ok(old), Ok(new)) if new > old * COST_FACTOR => violations.push(format!(
                    "{key}: {new} exceeds {COST_FACTOR}x the committed baseline {old}"
                )),
                (Ok(_), Ok(_)) => {}
                _ => violations.push(format!(
                    "{key}: cost cell is not a number (committed {old:?}, fresh {new:?})"
                )),
            },
        }
    }
    violations
}

/// The tail of every gated experiment: under `--check` compare `fresh`
/// against the committed file, leaving the tree clean; otherwise rewrite
/// the file. Returns the violations (or the missing-file error) to fail
/// the run with.
pub fn settle(baseline: &Baseline, fresh: &Value, check: bool) -> Result<(), Vec<String>> {
    if !check {
        store(baseline.file, fresh);
        return Ok(());
    }
    let file = baseline.file;
    let committed = load(file).ok_or_else(|| vec![format!("no committed {file} to check")])?;
    let violations = gate(&committed, fresh, baseline.gated);
    if violations.is_empty() {
        println!("perf-smoke: {file} holds against the committed baseline");
        Ok(())
    } else {
        Err(violations
            .into_iter()
            .map(|v| format!("regression in {file}: {v}"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(fields: &[(&str, &str)]) -> Value {
        obj(fields.iter().map(|&(k, v)| (k, s(v))).collect())
    }

    #[test]
    fn exponent_of_linear_data_is_one() {
        let pts: Vec<(f64, f64)> = (1..=64).map(|n| (n as f64, 3.0 * n as f64)).collect();
        assert!((fit_exponent(&pts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exponent_of_quadratic_data_is_two() {
        let pts: Vec<(f64, f64)> = (1..=64).map(|n| (n as f64, (n * n) as f64)).collect();
        assert!((fit_exponent(&pts) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cost_cells_fail_only_beyond_the_factor() {
        let gated = [("a", Gate::Cost), ("b", Gate::Cost)];
        let old = cells(&[("a", "100"), ("b", "10")]);
        assert!(gate(&old, &cells(&[("a", "150"), ("b", "20")]), &gated).is_empty());
        assert!(gate(&old, &cells(&[("a", "3"), ("b", "0")]), &gated).is_empty());
        assert_eq!(
            gate(&old, &cells(&[("a", "201"), ("b", "10")]), &gated).len(),
            1
        );
    }

    #[test]
    fn a_missing_gated_key_is_a_violation_on_either_side() {
        let gated = [("a", Gate::Cost)];
        let has = cells(&[("a", "100")]);
        let renamed = cells(&[("a_total", "100")]);
        assert_eq!(gate(&has, &renamed, &gated).len(), 1, "fresh side");
        assert_eq!(gate(&renamed, &has, &gated).len(), 1, "committed side");
    }

    #[test]
    fn an_unparsable_cost_cell_is_a_violation() {
        let gated = [("a", Gate::Cost)];
        let old = cells(&[("a", "100")]);
        assert_eq!(gate(&old, &cells(&[("a", "fast")]), &gated).len(), 1);
        assert_eq!(gate(&cells(&[("a", "n/a")]), &old, &gated).len(), 1);
    }

    #[test]
    fn outcome_cells_must_match_exactly() {
        let gated = [("entries_total", Gate::Equal), ("converged", Gate::Equal)];
        let old = cells(&[("entries_total", "900"), ("converged", "true")]);
        assert!(gate(&old, &old.clone(), &gated).is_empty());
        // Entries lost: lower is not better.
        let lost = cells(&[("entries_total", "899"), ("converged", "true")]);
        assert_eq!(gate(&old, &lost, &gated).len(), 1);
        // A cell that is not a number is gated all the same.
        let diverged = cells(&[("entries_total", "900"), ("converged", "false")]);
        assert_eq!(gate(&old, &diverged, &gated).len(), 1);
    }
}
