//! Random samplers for workload synthesis.
//!
//! The CAIDA traces the paper uses are heavy-tailed in flow size and
//! multi-modal in packet size. We sample from the matching families here —
//! exponential inter-arrivals, bounded Pareto flow sizes, geometric mice,
//! log-uniform rates and an empirical packet-size mix — implemented directly
//! on top of `rand::Rng` so the workspace needs no extra distribution crate
//! (it builds offline against the stubs under `vendor/`).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Exponential distribution with the given rate (events per unit).
/// Sampled by inversion: `-ln(U)/λ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// `rate` must be positive.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Exponential { rate }
    }

    /// Mean of the distribution (`1/rate`).
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // random() yields [0,1); complement avoids ln(0).
        let u: f64 = 1.0 - rng.random::<f64>();
        -u.ln() / self.rate
    }
}

/// Bounded Pareto on `[low, high]` with shape `alpha` — the classic model for
/// heavy-tailed flow sizes. Sampled by inversion of the truncated CDF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    low: f64,
    high: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Requires `0 < low < high` and `alpha > 0`.
    pub fn new(low: f64, high: f64, alpha: f64) -> Self {
        assert!(low > 0.0 && high > low, "need 0 < low < high");
        assert!(alpha > 0.0, "alpha must be positive");
        BoundedPareto { low, high, alpha }
    }

    /// Analytic mean of the bounded Pareto.
    pub fn mean(&self) -> f64 {
        let (l, h, a) = (self.low, self.high, self.alpha);
        if (a - 1.0).abs() < 1e-9 {
            // α = 1 limit: E = ln(h/l) · l·h/(h−l)
            (h * l) / (h - l) * (h / l).ln()
        } else {
            let la = l.powf(a);
            let norm = 1.0 - (l / h).powf(a);
            la / norm * (a / (a - 1.0)) * (l.powf(1.0 - a) - h.powf(1.0 - a))
        }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        let (l, h, a) = (self.low, self.high, self.alpha);
        let ha = h.powf(a);
        let la = l.powf(a);
        // Inverse CDF of the truncated Pareto.
        let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / a);
        x.clamp(l, h)
    }
}

/// Geometric distribution on `{1, 2, …}` with success probability `p`
/// (mean `1/p`) — models "mice" flows of a few packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
}

impl Geometric {
    /// `p` must be in `(0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0,1]");
        Geometric { p }
    }

    /// Build from the desired mean (`mean >= 1`).
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean >= 1.0, "geometric mean must be >= 1");
        Geometric::new(1.0 / mean)
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        1.0 / self.p
    }

    /// Draw one sample (at least 1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        let u: f64 = 1.0 - rng.random::<f64>();
        let x = (u.ln() / (1.0 - self.p).ln()).ceil();
        (x as u64).max(1)
    }
}

/// Log-uniform distribution on `[low, high]`: `exp(U(ln low, ln high))`.
/// Used for per-flow packet rates, which span orders of magnitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogUniform {
    ln_low: f64,
    ln_high: f64,
}

impl LogUniform {
    /// Requires `0 < low <= high`.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(low > 0.0 && high >= low, "need 0 < low <= high");
        LogUniform {
            ln_low: low.ln(),
            ln_high: high.ln(),
        }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        (self.ln_low + u * (self.ln_high - self.ln_low)).exp()
    }
}

/// Empirical packet-size mix modelled on Internet backbone traces: spikes at
/// minimum (ACK-sized), 576 B (legacy default MTU) and 1500 B (Ethernet MTU),
/// plus a uniform spread. Weights are configurable; the default approximates
/// the ~730 B average packet size implied by the paper's trace statistics
/// (22.4 M packets ≈ 22% of a 9.953 Gb/s link over 60 s).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PacketSizeMix {
    // (cumulative weight, mode) — mode None means "uniform spread".
    modes: Vec<(f64, Option<u32>)>,
    uniform_low: u32,
    uniform_high: u32,
}

impl PacketSizeMix {
    /// Backbone-like default mix (≈35% 40 B, ≈15% 576 B, ≈40% 1500 B, ≈10%
    /// uniform in 64..=1500), averaging ≈ 730–780 B.
    pub fn backbone() -> Self {
        PacketSizeMix::new(
            &[
                (0.35, Some(40)),
                (0.15, Some(576)),
                (0.40, Some(1500)),
                (0.10, None),
            ],
            64,
            1500,
        )
    }

    /// Build from `(weight, size)` entries; a `None` size draws uniformly
    /// from `[uniform_low, uniform_high]`. Weights are normalised.
    pub fn new(entries: &[(f64, Option<u32>)], uniform_low: u32, uniform_high: u32) -> Self {
        assert!(!entries.is_empty(), "need at least one mode");
        assert!(uniform_low > 0 && uniform_high >= uniform_low);
        let total: f64 = entries.iter().map(|(w, _)| *w).sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut acc = 0.0;
        let modes = entries
            .iter()
            .map(|(w, s)| {
                acc += w / total;
                (acc, *s)
            })
            .collect();
        PacketSizeMix {
            modes,
            uniform_low,
            uniform_high,
        }
    }

    /// Analytic mean packet size of the mix.
    pub fn mean(&self) -> f64 {
        let mut prev = 0.0;
        let mut mean = 0.0;
        for &(cum, mode) in &self.modes {
            let w = cum - prev;
            prev = cum;
            let m = match mode {
                Some(s) => s as f64,
                None => (self.uniform_low + self.uniform_high) as f64 / 2.0,
            };
            mean += w * m;
        }
        mean
    }

    /// Draw one packet size in bytes.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let u: f64 = rng.random();
        for &(cum, mode) in &self.modes {
            if u <= cum {
                return match mode {
                    Some(s) => s,
                    None => rng.random_range(self.uniform_low..=self.uniform_high),
                };
            }
        }
        // Floating-point slack: fall into the last mode.
        match self.modes.last().expect("non-empty").1 {
            Some(s) => s,
            None => rng.random_range(self.uniform_low..=self.uniform_high),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xBEEF)
    }

    fn sample_mean<F: FnMut(&mut StdRng) -> f64>(n: usize, mut f: F) -> f64 {
        let mut r = rng();
        (0..n).map(|_| f(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::new(4.0);
        assert_eq!(d.mean(), 0.25);
        let m = sample_mean(200_000, |r| d.sample(r));
        assert!((m - 0.25).abs() < 0.005, "sample mean {m}");
    }

    #[test]
    fn exponential_is_positive() {
        let d = Exponential::new(1e9);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(d.sample(&mut r) > 0.0);
        }
    }

    #[test]
    fn bounded_pareto_stays_in_range() {
        let d = BoundedPareto::new(20.0, 50_000.0, 1.2);
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((20.0..=50_000.0).contains(&x), "sample {x} out of range");
        }
    }

    #[test]
    fn bounded_pareto_mean_matches_analytic() {
        let d = BoundedPareto::new(20.0, 50_000.0, 1.2);
        let analytic = d.mean();
        // Heavy tail → slow convergence; generous tolerance.
        let m = sample_mean(400_000, |r| d.sample(r));
        assert!(
            (m - analytic).abs() / analytic < 0.15,
            "sample mean {m} vs analytic {analytic}"
        );
    }

    #[test]
    fn bounded_pareto_alpha_one_mean() {
        let d = BoundedPareto::new(1.0, 1000.0, 1.0);
        // E = h·l/(h−l)·ln(h/l) = 1000/999·ln(1000) ≈ 6.9147
        assert!((d.mean() - 6.9146).abs() < 0.01, "{}", d.mean());
    }

    #[test]
    fn geometric_mean_and_support() {
        let d = Geometric::with_mean(4.0);
        assert_eq!(d.mean(), 4.0);
        let mut r = rng();
        let mut sum = 0u64;
        for _ in 0..100_000 {
            let x = d.sample(&mut r);
            assert!(x >= 1);
            sum += x;
        }
        let m = sum as f64 / 100_000.0;
        assert!((m - 4.0).abs() < 0.1, "sample mean {m}");
        assert_eq!(Geometric::new(1.0).sample(&mut r), 1);
    }

    #[test]
    fn log_uniform_range_and_median() {
        let d = LogUniform::new(1e3, 1e7);
        let mut r = rng();
        let mut samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(samples[0] >= 1e3 && *samples.last().unwrap() <= 1e7);
        // Median of a log-uniform is the geometric mean of the bounds: 1e5.
        let med = samples[25_000];
        assert!((4.7..=5.3).contains(&med.log10()), "median {med}");
    }

    #[test]
    fn packet_mix_samples_valid_sizes() {
        let mix = PacketSizeMix::backbone();
        let mut r = rng();
        for _ in 0..10_000 {
            let s = mix.sample(&mut r);
            assert!((40..=1500).contains(&s), "size {s}");
        }
    }

    #[test]
    fn packet_mix_mean_close_to_analytic() {
        let mix = PacketSizeMix::backbone();
        let analytic = mix.mean();
        assert!((650.0..850.0).contains(&analytic), "analytic {analytic}");
        let m = sample_mean(200_000, |r| mix.sample(r) as f64);
        assert!((m - analytic).abs() / analytic < 0.03, "{m} vs {analytic}");
    }

    #[test]
    fn determinism_under_same_seed() {
        let d = BoundedPareto::new(1.0, 100.0, 1.5);
        let a: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..100).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..100).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
