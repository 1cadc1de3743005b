//! Streaming quantile estimation (the P² algorithm).
//!
//! The original RLI work estimates not only per-flow means and standard
//! deviations but also tail quantiles; storing every per-packet delay per
//! flow is exactly what switch implementations cannot afford. The P²
//! algorithm (Jain & Chlamtac, CACM 1985) tracks one quantile with five
//! markers in O(1) memory and O(1) per observation — the right shape for a
//! per-flow accumulator.

use serde::{Deserialize, Serialize};

/// Streaming estimator of a single quantile using the P² algorithm.
///
/// One tracker per flow per tap makes its size a per-flow cost, so only
/// what the algorithm cannot recompute is stored (104 bytes): the five
/// marker heights, the three *middle* marker positions and desired
/// positions, the count and `p`. The outer markers sit at ranks 1 and
/// `count` by construction, their desired positions are never read, and
/// the per-observation increments are a function of `p`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct P2Quantile {
    p: f64,
    // Marker heights (estimates of the quantile positions).
    q: [f64; 5],
    // Positions of markers 1..=3 (1-based observation ranks); marker 0 is
    // at rank 1 and marker 4 at rank `count`.
    n: [f64; 3],
    // Desired positions of markers 1..=3.
    np: [f64; 3],
    count: u64,
}

impl P2Quantile {
    /// Track the `p`-quantile, `p` in `(0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0,1)");
        P2Quantile {
            p,
            q: [0.0; 5],
            n: [2.0, 3.0, 4.0],
            np: [1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p],
            count: 0,
        }
    }

    /// Convenience: median tracker.
    pub fn median() -> Self {
        Self::new(0.5)
    }

    /// Convenience: 99th-percentile tracker.
    pub fn p99() -> Self {
        Self::new(0.99)
    }

    /// The tracked quantile parameter.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Observations seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(!x.is_nan(), "NaN observation");
        if self.count < 5 {
            self.q[self.count as usize] = x;
            self.count += 1;
            if self.count == 5 {
                self.q.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
            }
            return;
        }
        self.count += 1;

        // Find the cell k such that q[k] <= x < q[k+1], adjusting extremes.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if self.q[i] <= x && x < self.q[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        // Increment positions of the middle markers above the cell.
        self.n[0] += f64::from(k < 1);
        self.n[1] += f64::from(k < 2);
        self.n[2] += f64::from(k < 3);
        let p = self.p;
        self.np[0] += p / 2.0;
        self.np[1] += p;
        self.np[2] += (1.0 + p) / 2.0;

        // Adjust the three middle markers, in order, if they are off their
        // desired positions by at least one. The outer markers sit at
        // ranks 1 and `count`.
        let [q0, q1, q2, q3, q4] = &mut self.q;
        let [n1, n2, n3] = &mut self.n;
        adjust((*q0, q1, *q2), (1.0, n1, *n2), self.np[0]);
        adjust((*q1, q2, *q3), (*n1, n2, *n3), self.np[1]);
        adjust((*q2, q3, *q4), (*n2, n3, self.count as f64), self.np[2]);
    }

    /// Current quantile estimate (`None` before any observation). With
    /// fewer than five observations, falls back to the exact order
    /// statistic of the buffered values ([`nearest_rank_of_few`]).
    pub fn estimate(&self) -> Option<f64> {
        if self.count < 5 {
            return nearest_rank_of_few(self.p, &self.q[..self.count as usize]);
        }
        Some(self.q[2])
    }
}

/// The nearest-rank `p`-quantile of at most four samples, in any order
/// (`None` of none): what a [`P2Quantile`] reports before its fifth
/// observation, for a caller that holds those first samples itself. Sorts
/// a copy on the stack; more than four samples is a panic.
pub fn nearest_rank_of_few(p: f64, samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = [0.0; 4];
    let sorted = &mut sorted[..n];
    sorted.copy_from_slice(samples);
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// One marker's P² adjustment: `(below, this, above)` heights and
/// positions, and the position this marker should be at.
#[inline(always)]
fn adjust((qm, qi, qp): (f64, &mut f64, f64), (nm, ni, np): (f64, &mut f64, f64), desired: f64) {
    let d = desired - *ni;
    if (d >= 1.0 && np - *ni > 1.0) || (d <= -1.0 && nm - *ni < -1.0) {
        let d = d.signum();
        let parabolic = *qi
            + d / (np - nm)
                * ((*ni - nm + d) * (qp - *qi) / (np - *ni)
                    + (np - *ni - d) * (*qi - qm) / (*ni - nm));
        *qi = if qm < parabolic && parabolic < qp {
            parabolic
        } else {
            // Linear towards the neighbour on `d`'s side.
            let (qj, nj) = if d > 0.0 { (qp, np) } else { (qm, nm) };
            *qi + d * (qj - *qi) / (nj - *ni)
        };
        *ni += d;
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

    #[test]
    fn empty_and_small_inputs() {
        let mut q = P2Quantile::median();
        assert_eq!(q.estimate(), None);
        q.push(10.0);
        assert_eq!(q.estimate(), Some(10.0));
        q.push(20.0);
        assert_eq!(q.estimate(), Some(10.0)); // nearest-rank median of 2
        q.push(30.0);
        assert_eq!(q.estimate(), Some(20.0));
        assert_eq!(q.count(), 3);
    }

    #[test]
    fn median_of_uniform_converges() {
        let mut q = P2Quantile::median();
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.random::<f64>()).collect();
        for &x in &xs {
            q.push(x);
        }
        let est = q.estimate().unwrap();
        assert!((est - 0.5).abs() < 0.01, "median estimate {est}");
    }

    #[test]
    fn p99_of_exponential_converges() {
        // Exponential(1): p99 = ln(100) ≈ 4.605.
        let mut q = P2Quantile::p99();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200_000 {
            let u: f64 = 1.0 - rng.random::<f64>();
            q.push(-u.ln());
        }
        let est = q.estimate().unwrap();
        let truth = 100.0f64.ln();
        assert!(
            (est - truth).abs() / truth < 0.05,
            "p99 estimate {est} vs {truth}"
        );
    }

    #[test]
    fn tracks_exact_quantile_on_skewed_data() {
        // Log-normal-ish: squares of normals via sum of uniforms.
        let mut rng = StdRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..100_000)
            .map(|_| {
                let s: f64 = (0..12).map(|_| rng.random::<f64>()).sum::<f64>() - 6.0;
                (s * 0.8).exp()
            })
            .collect();
        for p in [0.25, 0.5, 0.9] {
            let mut q = P2Quantile::new(p);
            for &x in &xs {
                q.push(x);
            }
            let est = q.estimate().unwrap();
            let truth = exact_quantile(xs.clone(), p);
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.05, "p={p}: {est} vs {truth} (rel {rel})");
        }
    }

    #[test]
    fn monotone_input_is_fine() {
        let mut q = P2Quantile::new(0.9);
        for i in 0..10_000 {
            q.push(i as f64);
        }
        let est = q.estimate().unwrap();
        assert!((est - 9000.0).abs() < 200.0, "p90 of 0..10000: {est}");
    }

    #[test]
    fn constant_input() {
        let mut q = P2Quantile::median();
        for _ in 0..1000 {
            q.push(7.5);
        }
        assert_eq!(q.estimate(), Some(7.5));
    }

    #[test]
    fn tracker_fits_in_104_bytes() {
        assert!(std::mem::size_of::<P2Quantile>() <= 104);
    }

    #[test]
    fn few_samples_report_their_nearest_rank_in_any_order() {
        assert_eq!(nearest_rank_of_few(0.5, &[]), None);
        for p in [0.01, 0.25, 0.5, 0.9, 0.99] {
            let xs = [30.0, 10.0, 40.0, 20.0];
            for n in 1..=4 {
                let want = exact_quantile(xs[..n].to_vec(), p);
                assert_eq!(nearest_rank_of_few(p, &xs[..n]), Some(want), "p={p} n={n}");
                // The tracker answers from the same rule below five.
                let mut q = P2Quantile::new(p);
                xs[..n].iter().for_each(|&x| q.push(x));
                assert_eq!(q.estimate(), Some(want));
            }
        }
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0,1)")]
    fn rejects_invalid_p() {
        P2Quantile::new(1.0);
    }

    #[test]
    fn estimate_between_extremes() {
        let mut q = P2Quantile::median();
        let mut rng = StdRng::seed_from_u64(4);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..5000 {
            let x = rng.random::<f64>() * 100.0 - 50.0;
            lo = lo.min(x);
            hi = hi.max(x);
            q.push(x);
        }
        let est = q.estimate().unwrap();
        assert!(est >= lo && est <= hi);
    }
}
