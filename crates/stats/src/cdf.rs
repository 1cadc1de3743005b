//! Empirical CDFs.
//!
//! Every accuracy figure in the paper (Figs. 4a–4c) is a CDF of per-flow
//! relative errors. [`Ecdf`] stores the sorted sample and answers quantile
//! and fraction-below queries; [`CdfSeries`] renders the exact step points
//! the experiment harness writes to CSV.

/// An empirical cumulative distribution function over `f64` samples.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples; NaNs are rejected with a panic because they would
    /// poison ordering silently.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "Ecdf built with NaN sample"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs after check"));
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (the CDF value at `x`).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile for `q` in `[0, 1]` using the nearest-rank method;
    /// `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    /// Median (0.5-quantile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Read-only access to the sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Downsample to at most `max_points` evenly spaced CDF step points
    /// `(x, F(x))`, always keeping the first and last sample. This is what
    /// the figure CSVs contain.
    pub fn series(&self, max_points: usize) -> CdfSeries {
        let n = self.sorted.len();
        let mut points = Vec::new();
        if n == 0 || max_points == 0 {
            return CdfSeries { points };
        }
        let step = (n.max(2) - 1) as f64 / (max_points.min(n).max(2) - 1) as f64;
        let mut last_idx = usize::MAX;
        for i in 0..max_points.min(n) {
            let idx = ((i as f64 * step).round() as usize).min(n - 1);
            if idx == last_idx {
                continue;
            }
            last_idx = idx;
            points.push((self.sorted[idx], (idx + 1) as f64 / n as f64));
        }
        CdfSeries { points }
    }
}

/// A downsampled CDF as `(value, cumulative_fraction)` step points.
#[derive(Debug, Clone)]
pub struct CdfSeries {
    /// Step points, ascending in both coordinates.
    pub points: Vec<(f64, f64)>,
}

impl CdfSeries {
    /// Render as CSV lines `value,fraction` (no header).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (x, f) in &self.points {
            out.push_str(&format!("{x},{f}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.fraction_at_or_below(1.0), 0.0);
        assert_eq!(e.quantile(0.5), None);
        assert_eq!(e.mean(), None);
        assert!(e.series(10).points.is_empty());
    }

    #[test]
    fn fraction_at_or_below_steps() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.fraction_at_or_below(0.5), 0.0);
        assert_eq!(e.fraction_at_or_below(1.0), 0.25);
        assert_eq!(e.fraction_at_or_below(2.999), 0.5);
        assert_eq!(e.fraction_at_or_below(4.0), 1.0);
        assert_eq!(e.fraction_at_or_below(99.0), 1.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let e = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(e.quantile(0.0), Some(10.0));
        assert_eq!(e.median(), Some(30.0));
        assert_eq!(e.quantile(0.2), Some(10.0));
        assert_eq!(e.quantile(0.21), Some(20.0));
        assert_eq!(e.quantile(1.0), Some(50.0));
        assert_eq!(e.min(), Some(10.0));
        assert_eq!(e.max(), Some(50.0));
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(e.samples(), &[1.0, 2.0, 3.0]);
        assert!((e.mean().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Ecdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn series_monotone_and_bounded() {
        let samples: Vec<f64> = (0..1000).map(|i| (i as f64 * 7.3) % 100.0).collect();
        let e = Ecdf::new(samples);
        let s = e.series(50);
        assert!(s.points.len() <= 50);
        for w in s.points.windows(2) {
            assert!(w[1].0 >= w[0].0, "x not monotone");
            assert!(w[1].1 >= w[0].1, "F not monotone");
        }
        assert_eq!(s.points.last().unwrap().1, 1.0);
    }

    #[test]
    fn series_keeps_all_points_when_small() {
        let e = Ecdf::new(vec![1.0, 2.0]);
        let s = e.series(10);
        assert_eq!(s.points, vec![(1.0, 0.5), (2.0, 1.0)]);
    }

    #[test]
    fn csv_rendering() {
        let e = Ecdf::new(vec![1.0, 2.0]);
        let csv = e.series(10).to_csv();
        assert_eq!(csv, "1,0.5\n2,1\n");
    }
}
