//! Paper-style result tables: fixed-width text plus machine-readable JSON.

use crate::json;
use std::fmt;

/// A printable results table. A row takes values and renders each with
/// its `Display`; a cell that needs a unit or a precision passes a
/// `format_args!` (keeps units explicit in the output).
///
/// # Examples
///
/// ```
/// use hope_sim::table::Table;
/// let mut t = Table::new("Demo", &["n", "time"]);
/// t.row(&[&1, &format_args!("{:.1}ms", 2.0)]);
/// let text = t.to_string();
/// assert!(text.contains("Demo"));
/// assert!(text.contains("2.0ms"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption (e.g. "Figure 2: call streaming, L=10ms").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each row has `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: &[&dyn fmt::Display]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// The table as a JSON array of objects keyed by header.
    pub fn to_json(&self) -> String {
        let objects: Vec<json::Value> = self
            .rows
            .iter()
            .map(|row| {
                json::Value::Object(
                    self.headers
                        .iter()
                        .zip(row)
                        .map(|(h, c)| (h.clone(), json::Value::String(c.clone())))
                        .collect(),
                )
            })
            .collect();
        json::to_string_pretty(&json::Value::Array(objects))
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        for (i, h) in self.headers.iter().enumerate() {
            write!(f, "{:<w$}  ", h, w = widths[i])?;
        }
        writeln!(f)?;
        for (i, _) in self.headers.iter().enumerate() {
            write!(f, "{}  ", "-".repeat(widths[i]))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                write!(f, "{:<w$}  ", cell, w = widths[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Arithmetic mean of a slice (0.0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `q`-quantile (0.0–1.0) of a sample by nearest-rank; 0.0 for empty
/// input.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    let rank = ((q.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_headers_rows() {
        let mut t = Table::new("T", &["a", "bee"]);
        t.row(&[&"1", &"2"]);
        t.row(&[&"333", &"4"]);
        let text = t.to_string();
        assert!(text.contains("== T =="));
        assert!(text.contains("bee"));
        assert!(text.contains("333"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_mismatched_rows() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&[&"only one"]);
    }

    #[test]
    fn json_is_one_object_per_row_keyed_by_header() {
        let mut t = Table::new("T", &["k", "v"]);
        assert_eq!(t.to_json(), "[]");
        t.row(&[&"x", &"1"]);
        t.row(&[&"y\"", &2]);
        assert_eq!(
            t.to_json(),
            r#"[
  {
    "k": "x",
    "v": "1"
  },
  {
    "k": "y\"",
    "v": "2"
  }
]"#
        );
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn percentiles() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        let p50 = percentile(&v, 0.5);
        assert!((49.0..=51.0).contains(&p50), "{p50}");
        let p99 = percentile(&v, 0.99);
        assert!((98.0..=100.0).contains(&p99), "{p99}");
        // Unsorted input is handled.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 1.0), 3.0);
    }
}
