//! Order statistics with an explicit sample-count rule.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it: with fewer, one outlier more or less moves the number, and a
//! run-to-run comparison of it measures luck. Every summary carries its
//! sample count so a reader can check the rule.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Linear interpolation between closest ranks (the `numpy` default) on an
/// ascending slice. `p` is in percent. Panics on an empty slice: callers
/// check the sample-count rule first.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Samples strictly beyond the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - (p * n as f64 / 100.0).ceil() as usize
}

/// Whether `n` samples support reporting the `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// Median of an unsorted sample (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, 50.0))
}

/// One percentile of a sample, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile asked for, in percent.
    pub p: f64,
    /// Its value (`NaN` when the sample is empty).
    pub value: f64,
    /// Sample size.
    pub samples: usize,
    /// Whether the sample-count rule holds for `p`.
    pub supported: bool,
}

/// The `p`-th percentile of an unsorted sample, flagged by the rule.
pub fn quantile(values: &[f64], p: f64) -> Quantile {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Quantile {
        p,
        value: if sorted.is_empty() {
            f64::NAN
        } else {
            percentile_sorted(&sorted, p)
        },
        samples: sorted.len(),
        supported: supports(sorted.len(), p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_closest_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 50.0), 3.0);
        assert_eq!(percentile_sorted(&v, 100.0), 5.0);
        assert_eq!(percentile_sorted(&v, 25.0), 2.0);
        assert!((percentile_sorted(&v, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 needs 200 samples, p90 needs 100, the median needs 20.
        assert!(supports(200, 95.0));
        assert!(!supports(199, 95.0));
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(!supports(0, 50.0));
        assert_eq!(beyond(1000, 99.0), 10);
    }

    #[test]
    fn quantile_reports_count_and_rule() {
        let v: Vec<f64> = (0..150).map(f64::from).collect();
        let q = quantile(&v, 95.0);
        assert_eq!(q.samples, 150);
        assert!(!q.supported);
        assert!((q.value - 141.55).abs() < 1e-9);
        assert!(quantile(&[], 50.0).value.is_nan());
    }
}
