//! Per-flow tail quantiles from a flow's four largest delays.
//!
//! The original RLI work estimates not only per-flow means and standard
//! deviations but also tail quantiles; storing every per-packet delay per
//! flow is exactly what switch implementations cannot afford. A tail does
//! not need every delay, though: the nearest-rank `p`-quantile of `n`
//! samples is the `k`-th largest, `k = n − ⌈p·n⌉ + 1`, so while `n` stays
//! under `4 / (1 − p)` (399 samples for p99, 39 for p90) it is one of the
//! four largest. [`LargestFour`] keeps those in 32 bytes; past that bound its
//! fourth largest is an upper bound on the quantile. Unlike a sketch of the
//! whole distribution, four largest merge exactly: the four largest of a
//! union lie among the two sides' four largest.

/// The four largest of a stream of samples, largest first (32 bytes).
/// Slots no sample reached hold `-∞`; a sample equal to the fourth largest
/// changes nothing, so the values held do not depend on the order the
/// samples came in, nor on how they were split and [merged](Self::merge).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LargestFour([f64; 4]);

impl Default for LargestFour {
    fn default() -> Self {
        LargestFour([f64::NEG_INFINITY; 4])
    }
}

impl LargestFour {
    /// Nothing seen yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        debug_assert!(!x.is_nan(), "NaN observation");
        let top = &mut self.0;
        if x <= top[3] {
            return;
        }
        let mut at = 3;
        while at > 0 && top[at - 1] < x {
            top[at] = top[at - 1];
            at -= 1;
        }
        top[at] = x;
    }

    /// Fold in the four largest of another stream.
    pub fn merge(&mut self, other: &LargestFour) {
        other.0.iter().for_each(|&x| self.push(x));
    }

    /// The nearest-rank `p`-quantile of the `n` samples pushed and merged
    /// in, and whether it is exact: the `k`-th largest while `k ≤ 4`, else
    /// the fourth largest, an upper bound (`false`). `None` of no sample.
    pub fn nearest_rank(&self, p: f64, n: u64) -> Option<(f64, bool)> {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0,1)");
        let n = usize::try_from(n).ok().filter(|&n| n > 0)?;
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        let k = n - rank + 1;
        Some(match self.0.get(k - 1) {
            Some(&x) => (x, true),
            None => (self.0[3], false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn exact_quantile(mut xs: Vec<f64>, p: f64) -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((p * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
        xs[rank - 1]
    }

    fn fed(xs: &[f64]) -> LargestFour {
        let mut top = LargestFour::new();
        xs.iter().for_each(|&x| top.push(x));
        top
    }

    #[test]
    fn empty_and_small_inputs() {
        let mut xs = Vec::new();
        assert_eq!(fed(&xs).nearest_rank(0.5, 0), None);
        for (x, median) in [(10.0, 10.0), (20.0, 10.0), (30.0, 20.0)] {
            xs.push(x);
            let n = xs.len() as u64;
            assert_eq!(fed(&xs).nearest_rank(0.5, n), Some((median, true)));
        }
    }

    #[test]
    fn tracks_exact_quantile_on_skewed_data() {
        // Log-normal-ish: squares of normals via sum of uniforms. Every
        // length below 4 / (1 − p) answers exactly, in any arrival order.
        let mut rng = StdRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..5_000)
            .map(|_| {
                let s: f64 = (0..12).map(|_| rng.random::<f64>()).sum::<f64>() - 6.0;
                (s * 0.8).exp()
            })
            .collect();
        for p in [0.9f64, 0.99, 0.999] {
            let exact_below = (4.0 / (1.0 - p)).round() as usize - 1;
            for n in [1, 7, exact_below / 2, exact_below] {
                let want = exact_quantile(xs[..n].to_vec(), p);
                assert_eq!(fed(&xs[..n]).nearest_rank(p, n as u64), Some((want, true)));
                let mut reversed = xs[..n].to_vec();
                reversed.reverse();
                assert_eq!(fed(&reversed).nearest_rank(p, n as u64), Some((want, true)));
            }
            let n = exact_below + 1;
            let (bound, exact) = fed(&xs[..n]).nearest_rank(p, n as u64).unwrap();
            assert!(
                !exact && bound >= exact_quantile(xs[..n].to_vec(), p),
                "p={p}"
            );
        }
    }

    #[test]
    fn monotone_input_is_fine() {
        let rising: Vec<f64> = (0..300).map(f64::from).collect();
        let falling: Vec<f64> = rising.iter().rev().copied().collect();
        for xs in [rising, falling] {
            // Rank 297 of 300 is the fourth largest, 296.
            assert_eq!(fed(&xs).nearest_rank(0.99, 300), Some((296.0, true)));
        }
    }

    #[test]
    fn constant_input() {
        let top = fed(&[7.5; 1000]);
        assert_eq!(top.nearest_rank(0.99, 1000), Some((7.5, false)));
        assert_eq!(top.nearest_rank(0.999, 1000), Some((7.5, true)));
    }

    #[test]
    fn largest_four_is_32_bytes() {
        // Pinned at its own size: per flow and side, this is the tail.
        assert_eq!(std::mem::size_of::<LargestFour>(), 32);
    }

    #[test]
    fn merged_streams_hold_the_four_largest_of_their_union() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let xs: Vec<f64> = (0..rng.random_range(0..12))
                .map(|_| f64::from(rng.random_range(0..6u8)))
                .collect();
            let cut = rng.random_range(0..=xs.len());
            let mut merged = fed(&xs[cut..]);
            merged.merge(&fed(&xs[..cut]));
            assert_eq!(merged, fed(&xs), "{xs:?} cut at {cut}");
        }
    }

    #[test]
    fn few_samples_report_their_nearest_rank_in_any_order() {
        // Up to four samples every rank is among the four largest: exact
        // for any p, however low.
        for p in [0.01, 0.25, 0.5, 0.9, 0.99] {
            assert_eq!(fed(&[]).nearest_rank(p, 0), None);
            let xs = [30.0, 10.0, 40.0, 20.0];
            for n in 1..=4 {
                let want = exact_quantile(xs[..n].to_vec(), p);
                let got = fed(&xs[..n]).nearest_rank(p, n as u64);
                assert_eq!(got, Some((want, true)), "p={p} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0,1)")]
    fn rejects_invalid_p() {
        LargestFour::new().nearest_rank(1.0, 1);
    }

    #[test]
    fn estimate_between_extremes() {
        // Past the exact bound the answer is still one of the samples: at
        // least the exact quantile, at most the largest.
        let mut rng = StdRng::seed_from_u64(4);
        let xs: Vec<f64> = (0..5000)
            .map(|_| rng.random::<f64>() * 100.0 - 50.0)
            .collect();
        let (est, exact) = fed(&xs).nearest_rank(0.5, 5000).unwrap();
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(!exact && est >= exact_quantile(xs.clone(), 0.5) && est <= hi);
        assert!(xs.contains(&est));
    }
}
