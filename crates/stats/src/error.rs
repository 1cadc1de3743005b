//! Error metrics.
//!
//! The paper's accuracy metric is the *relative error* of a per-flow estimate
//! against the true value computed from simulator ground truth. These helpers
//! centralise the conventions (absolute value, zero-truth handling) so every
//! experiment and test measures the same thing.

/// Relative error `|estimate - truth| / truth`.
///
/// When the true value is zero (possible for, e.g., the standard deviation of
/// a flow whose packets all saw identical delay): returns `0.0` if the
/// estimate is also (near) zero, `+inf` otherwise — an estimator that invents
/// variance where there is none is maximally wrong.
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    debug_assert!(
        !estimate.is_nan() && !truth.is_nan(),
        "NaN in relative_error"
    );
    if truth == 0.0 {
        if estimate.abs() < 1e-12 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (estimate - truth).abs() / truth.abs()
    }
}

/// Summary of an error distribution, as quoted in the paper's prose
/// ("median relative error of 4.5%", "70% of flows have less than 10%
/// relative errors").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSummary {
    /// Number of error samples.
    pub count: usize,
    /// Median error.
    pub median: f64,
    /// Mean error.
    pub mean: f64,
    /// 90th percentile error.
    pub p90: f64,
    /// 99th percentile error.
    pub p99: f64,
    /// Fraction of samples with error below 0.10 (the paper's "<10%" cut).
    pub frac_below_10pct: f64,
}

impl ErrorSummary {
    /// Summarise a set of error samples. Returns `None` if empty.
    pub fn from_samples(samples: &[f64]) -> Option<ErrorSummary> {
        if samples.is_empty() {
            return None;
        }
        let e = crate::cdf::Ecdf::new(samples.to_vec());
        Some(ErrorSummary {
            count: e.len(),
            median: e.median().expect("non-empty"),
            mean: e.mean().expect("non-empty"),
            p90: e.quantile(0.9).expect("non-empty"),
            p99: e.quantile(0.99).expect("non-empty"),
            frac_below_10pct: e.fraction_at_or_below(0.10),
        })
    }
}

impl core::fmt::Display for ErrorSummary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "n={} median={:.2}% mean={:.2}% p90={:.2}% p99={:.2}% <10%err: {:.1}% of flows",
            self.count,
            self.median * 100.0,
            self.mean * 100.0,
            self.p90 * 100.0,
            self.p99 * 100.0,
            self.frac_below_10pct * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(110.0, 100.0), 0.1);
        assert_eq!(relative_error(90.0, 100.0), 0.1);
        assert_eq!(relative_error(100.0, 100.0), 0.0);
        assert_eq!(relative_error(3.0, -2.0), 2.5);
    }

    #[test]
    fn zero_truth_conventions() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(1e-15, 0.0), 0.0);
        assert_eq!(relative_error(0.5, 0.0), f64::INFINITY);
    }

    #[test]
    fn summary_of_uniform_errors() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        let s = ErrorSummary::from_samples(&samples).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.median - 0.50).abs() < 0.011);
        assert!((s.p90 - 0.90).abs() < 0.011);
        assert!((s.frac_below_10pct - 0.10).abs() < 1e-9);
        assert!(ErrorSummary::from_samples(&[]).is_none());
    }

    #[test]
    fn summary_display_mentions_median() {
        let s = ErrorSummary::from_samples(&[0.045; 10]).unwrap();
        let text = s.to_string();
        assert!(text.contains("median=4.50%"), "got: {text}");
    }
}
