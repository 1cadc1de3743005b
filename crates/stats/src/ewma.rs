//! Exponentially weighted moving averages.
//!
//! RLI's adaptive injection policy drives its rate from "an estimated link
//! utilization at the interface" (§1). The sender estimates utilization with
//! an EWMA over fixed windows of observed bytes — the same structure the
//! original RLI paper uses — implemented here as a small reusable component.

/// A plain EWMA over scalar observations: `v ← α·x + (1-α)·v`.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Create with smoothing factor `alpha` in `(0, 1]`. Higher = more
    /// reactive.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, value: None }
    }

    /// Fold in an observation and return the updated average.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        };
        self.value = Some(v);
        v
    }

    /// Current average (`None` before the first observation).
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Reset to the no-observation state.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

/// Windowed link-utilization estimator: accumulates bytes sent in fixed
/// nanosecond windows, converts each full window into a utilization fraction
/// of the configured link rate, and smooths across windows with an EWMA.
#[derive(Debug, Clone)]
pub struct UtilizationEstimator {
    link_rate_bps: u64,
    window_ns: u64,
    ewma: Ewma,
    window_start_ns: u64,
    bytes_in_window: u64,
}

impl UtilizationEstimator {
    /// Build for a link of `link_rate_bps`, integrating over `window_ns`
    /// windows with smoothing factor `alpha`.
    pub fn new(link_rate_bps: u64, window_ns: u64, alpha: f64) -> Self {
        assert!(link_rate_bps > 0, "link rate must be positive");
        assert!(window_ns > 0, "window must be positive");
        UtilizationEstimator {
            link_rate_bps,
            window_ns,
            ewma: Ewma::new(alpha),
            window_start_ns: 0,
            bytes_in_window: 0,
        }
    }

    /// Record `bytes` observed at time `now_ns`. Closes any windows that have
    /// elapsed (empty windows count as zero utilization).
    pub fn record(&mut self, now_ns: u64, bytes: u32) {
        self.roll_to(now_ns);
        self.bytes_in_window += bytes as u64;
    }

    /// Advance the window clock to `now_ns` without recording traffic.
    pub fn roll_to(&mut self, now_ns: u64) {
        while now_ns >= self.window_start_ns + self.window_ns {
            let util = self.window_utilization();
            self.ewma.update(util);
            self.window_start_ns += self.window_ns;
            self.bytes_in_window = 0;
        }
    }

    fn window_utilization(&self) -> f64 {
        let capacity_bytes = self.link_rate_bps as f64 / 8.0 * (self.window_ns as f64 / 1e9);
        (self.bytes_in_window as f64 / capacity_bytes).min(1.0)
    }

    /// The smoothed utilization estimate in `[0, 1]`; falls back to the
    /// in-progress window if no window has completed yet.
    pub fn utilization(&self) -> f64 {
        self.ewma
            .value()
            .unwrap_or_else(|| self.window_utilization())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_first_value_is_observation() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(10.0), 10.0);
        assert_eq!(e.update(0.0), 5.0);
        assert_eq!(e.update(5.0), 5.0);
        e.reset();
        assert_eq!(e.value(), None);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        Ewma::new(0.0);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        for _ in 0..200 {
            e.update(0.93);
        }
        assert!((e.value().unwrap() - 0.93).abs() < 1e-6);
    }

    #[test]
    fn utilization_full_link() {
        // 1 Gb/s link, 1 ms windows → capacity 125_000 bytes per window.
        let mut u = UtilizationEstimator::new(1_000_000_000, 1_000_000, 1.0);
        u.record(0, 125_000);
        u.roll_to(1_000_001);
        assert!((u.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_half_link_smoothed() {
        let mut u = UtilizationEstimator::new(1_000_000_000, 1_000_000, 0.5);
        for w in 0..50u64 {
            u.record(w * 1_000_000, 62_500); // 50% each window
        }
        // Close exactly the 50 recorded windows — rolling further would
        // append empty (0%) windows and drag the EWMA down.
        u.roll_to(50_000_000);
        assert!((u.utilization() - 0.5).abs() < 1e-6, "{}", u.utilization());
    }

    #[test]
    fn idle_windows_decay_estimate() {
        let mut u = UtilizationEstimator::new(1_000_000_000, 1_000_000, 0.5);
        u.record(0, 125_000); // one full window
        u.roll_to(1_000_000); // closes it at 1.0
        u.roll_to(10_000_000); // 9 idle windows
        assert!(u.utilization() < 0.01, "{}", u.utilization());
    }

    #[test]
    fn utilization_clamped_at_one() {
        let mut u = UtilizationEstimator::new(1_000_000_000, 1_000_000, 1.0);
        u.record(0, 10_000_000); // way over capacity
        u.roll_to(1_000_000);
        assert_eq!(u.utilization(), 1.0);
    }

    #[test]
    fn in_progress_window_used_before_first_close() {
        let mut u = UtilizationEstimator::new(1_000_000_000, 1_000_000, 0.3);
        u.record(10, 62_500);
        // No window has closed; utilization should reflect the partial window.
        assert!((u.utilization() - 0.5).abs() < 1e-9);
    }
}
