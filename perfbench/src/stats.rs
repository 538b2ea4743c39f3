//! Order statistics for the benchmark's reports: medians, quartiles, the
//! calm mean and the highest tail percentile a sample can support.

use crate::metrics::Better;

/// Sorts a sample in place (NaN-free inputs; ties keep any order).
fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// The `q`-quantile (0..=1) of an already sorted sample, linearly
/// interpolated at position `q * (n + 1)` — the "exclusive" method of
/// Python's `statistics.quantiles`, so the quartiles printed here are
/// the ones the acceptance check computes from the same values.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = (q * (n as f64 + 1.0)).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            let hi = (lo + 1).min(n);
            sorted[lo - 1] + frac * (sorted[hi - 1] - sorted[lo - 1])
        }
    }
}

/// Sample count, median and quartiles of one series.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values` (an empty series summarises to all zeros).
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sort(&mut sorted);
        Summary {
            n: sorted.len(),
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
        }
    }

    /// Interquartile range as a share of the median: the spread the
    /// acceptance check compares with a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values` (0 for an empty series).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The calm mean of `values`: sorted from best to worst, the mean of the
/// better half without its best eighth (0 for an empty series).
///
/// What disturbs a unit on a shared box — a neighbour on the sibling
/// hyperthread, a stolen slice — only ever slows it down, comes in spells
/// of a second or two, and in a bad hour touches a third of the units: a
/// median or a midmean then sits between the two levels and moves with
/// the mix (12 % between windows of `tcp_echo`), the better half does not
/// (5 %). The best eighth is left out because the box also has short fast
/// spells. A change that slows every unit moves this as it moves a mean.
pub fn calm_mean(values: &[f64], better: Better) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    if better == Better::Higher {
        sorted.reverse();
    }
    let n = sorted.len();
    let kept = &sorted[n / 8..(n / 2).max(n / 8 + 1).min(n)];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// The tail of a latency sample: the highest percentile out of
/// 99.9 / 99 / 95 / 90 / 75 that still has at least ten samples beyond
/// it, and the value there. `None` below 40 samples, where even the
/// third quartile has fewer than ten samples beyond it.
pub fn tail(values: &[u64]) -> Option<(f64, f64)> {
    let mut sorted: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    sort(&mut sorted);
    // Per-mille and integers: 100 * (1 - 0.9) is 9.999… in floating point.
    let n = sorted.len() as u64;
    [999u64, 990, 950, 900, 750]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) >= 10 * 1000)
        .map(|per_mille| {
            let q = per_mille as f64 / 1000.0;
            (q * 100.0, quantile_sorted(&sorted, q))
        })
}

/// Median of an integer latency sample.
pub fn p50(values: &[u64]) -> f64 {
    let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    median(&as_f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let s = Summary::of(&[9.0, 1.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 5.0, 9.0));
    }

    #[test]
    fn degenerate_series_do_not_panic() {
        assert_eq!(Summary::of(&[]), Summary::default());
        let one = Summary::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
        assert_eq!(p50(&[]), 0.0);
    }

    #[test]
    fn calm_mean_keeps_the_better_half_without_its_best_eighth() {
        assert_eq!(calm_mean(&[], Better::Lower), 0.0);
        assert_eq!(calm_mean(&[7.0], Better::Lower), 7.0);
        assert_eq!(calm_mean(&[1.0, 3.0], Better::Lower), 1.0);
        assert_eq!(calm_mean(&[1.0, 3.0], Better::Higher), 3.0);
        // 16 values: the best two and the worse eight are left out.
        let values: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(calm_mean(&values, Better::Lower), (3 + 4 + 5 + 6 + 7 + 8) as f64 / 6.0);
        assert_eq!(
            calm_mean(&values, Better::Higher),
            (14 + 13 + 12 + 11 + 10 + 9) as f64 / 6.0
        );
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail(&[1; 39]), None);
        let hundred: Vec<u64> = (1..=100).collect();
        let (p, v) = tail(&hundred).expect("100 samples support p90");
        assert_eq!(p, 90.0);
        assert!((90.0..=92.0).contains(&v), "{v}");
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&thousand).map(|(p, _)| p), Some(99.0));
        let many: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&many).map(|(p, _)| p), Some(99.9));
    }

    #[test]
    fn p50_is_the_median() {
        assert_eq!(p50(&[5, 1, 3]), 3.0);
        assert_eq!(p50(&[4, 2]), 3.0);
    }
}
