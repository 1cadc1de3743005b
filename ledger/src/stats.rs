//! Median and quartiles of a handful of repetitions.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because the spread the ledger reports for
//! itself must be the spread whoever re-runs it computes.

/// Median of `values` (mean of the two middle values for even counts).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)` by the exclusive method; needs at least two values
/// (`None` otherwise, as Python raises).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed on purpose: clamping j moves it away from i*m/4, and the
        // interpolation then extrapolates exactly as Python's does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread a metric's bound is judged against. `NaN` below two values.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, _, q3)) => (q3 - q1) / median(values).abs(),
        None => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) -> [2.0, 8.0, 32.0]
        assert_eq!(
            quartiles(&[64.0, 1.0, 8.0, 2.0, 32.0, 4.0, 16.0]),
            Some((2.0, 8.0, 32.0))
        );
        // statistics.quantiles([10, 20], n=4) -> [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 15.0, 22.5)));
        // statistics.quantiles([1, 2, 3], n=4) -> [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
        assert!(spread(&[5.0]).is_nan());
    }
}
