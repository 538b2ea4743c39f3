//! The committed ledger: `BENCH_*.json` files at the repository root.
//!
//! A ledger experiment renders its headline cells into the workspace's
//! tiny JSON subset (string scalars only — see `hope_sim::json`) and a
//! full run writes them next to the sources, so a change shows up as a
//! diff in review. Every cell is deterministic — counts, bytes, virtual
//! time, outcomes, fitted exponents — so a committed file is reproduced
//! byte for byte on any machine, and byte equality with [`render`] is the
//! one check it gets; anything measured with a stopwatch belongs to
//! `perfbench`, not here.

use std::path::PathBuf;

use hope_sim::json::Value;
use hope_sim::table::Table;

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

/// The exact text of a ledger file holding `cells`: what [`store`]
/// writes, and what the committed file must equal byte for byte.
pub fn render(cells: &Value) -> String {
    let mut text = hope_sim::json::to_string_pretty(cells);
    text.push('\n');
    text
}

/// Writes `cells` as the committed ledger file `file_name`.
pub fn store(file_name: &str, cells: &Value) {
    let path = repo_root().join(file_name);
    std::fs::write(&path, render(cells))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn a_ledger_file_is_the_pretty_form_and_one_newline() {
        let cells = obj(vec![("bench", s("demo")), ("messages", s(42))]);
        assert_eq!(
            render(&cells),
            "{\n  \"bench\": \"demo\",\n  \"messages\": \"42\"\n}\n"
        );
    }
}
