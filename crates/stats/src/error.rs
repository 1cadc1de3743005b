//! Error metrics.
//!
//! The paper's accuracy metric is the *relative error* of a per-flow estimate
//! against the true value computed from simulator ground truth. This helper
//! centralises the conventions (absolute value, zero-truth handling) so every
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
}
