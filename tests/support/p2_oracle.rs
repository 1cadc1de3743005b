//! The 176-byte `P2Quantile` as it stood before the per-flow rows were
//! compacted (marker positions, desired positions and increments all held
//! as five-element arrays), kept verbatim as the differential oracle for
//! `rlir_stats::P2Quantile`: the compact tracker must return the same
//! `estimate()` bit pattern after every push.
#![allow(dead_code)]

/// Streaming estimator of a single quantile using the P² algorithm.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    p: f64,
    // Marker heights (estimates of the quantile positions).
    q: [f64; 5],
    // Marker positions (1-based observation ranks).
    n: [f64; 5],
    // Desired marker positions.
    np: [f64; 5],
    // Desired position increments per observation.
    dn: [f64; 5],
    count: u64,
}

impl P2Quantile {
    /// Track the `p`-quantile, `p` in `(0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0,1)");
        P2Quantile {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
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

        // Increment positions of markers above the cell.
        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }

        // Adjust the three middle markers if they are off their desired
        // positions by at least one.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let qp = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (qm, qi, qp) = (self.q[i - 1], self.q[i], self.q[i + 1]);
        let (nm, ni, np) = (self.n[i - 1], self.n[i], self.n[i + 1]);
        qi + d / (np - nm)
            * ((ni - nm + d) * (qp - qi) / (np - ni) + (np - ni - d) * (qi - qm) / (ni - nm))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = (i as f64 + d) as usize;
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Current quantile estimate (`None` before any observation). With
    /// fewer than five observations, falls back to the exact order
    /// statistic of the buffered values.
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.count < 5 {
            let mut v: Vec<f64> = self.q[..self.count as usize].to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
            let rank = ((self.p * self.count as f64).ceil() as usize).clamp(1, v.len());
            return Some(v[rank - 1]);
        }
        Some(self.q[2])
    }
}
