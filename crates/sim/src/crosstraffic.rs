//! Cross-traffic injection.
//!
//! The Fig. 3 "cross traffic injector" releases a controlled subset of the
//! cross-traffic trace onto the bottleneck queue. Two selection models from
//! §4.1:
//!
//! * **Uniform** ("random"): each packet is kept i.i.d. with probability `p`
//!   — "randomly selects cross traffic with a given probability, which can
//!   demonstrate a persistent congestion event as we increase injection
//!   rate".
//! * **Bursty**: an on/off gate with configurable burst (injection) duration
//!   — "simulates a situation where cross traffic arrives in a bursty
//!   fashion by controlling cross traffic injection duration"; packets are
//!   kept with probability `p` *during* bursts and dropped outside them.
//!
//! The injector also hosts the utilization calibrator: given a target
//! bottleneck utilization, it computes the keep-probability analytically
//! from the base trace's offered rate (experiments then report realised
//! utilization measured at the queue).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlir_net::packet::Packet;
use rlir_net::time::{SimDuration, SimTime};

/// Cross-traffic selection model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrossModel {
    /// Keep each packet with probability `keep_prob` (the paper's "random"
    /// model).
    Uniform {
        /// Independent keep-probability per packet.
        keep_prob: f64,
    },
    /// On/off gating: during `on` windows keep with `keep_prob`; during the
    /// following `off` windows keep nothing.
    Bursty {
        /// Keep-probability inside a burst.
        keep_prob: f64,
        /// Burst (injection) duration.
        on: SimDuration,
        /// Gap between bursts.
        off: SimDuration,
    },
}

impl CrossModel {
    /// Is `t` inside an injection window?
    fn gate_open(&self, t: SimTime) -> bool {
        match *self {
            CrossModel::Uniform { .. } => true,
            CrossModel::Bursty { on, off, .. } => {
                let period = on.as_nanos() + off.as_nanos();
                if period == 0 {
                    return false;
                }
                t.as_nanos() % period < on.as_nanos()
            }
        }
    }

    fn keep_prob(&self) -> f64 {
        match *self {
            CrossModel::Uniform { keep_prob } | CrossModel::Bursty { keep_prob, .. } => keep_prob,
        }
    }
}

/// Mantissa bits of the unit-interval `f64` draw: the RNG's `f64` sampling
/// uses the top 53 bits of one 64-bit word, so `u < p` over `[0, 1)` is
/// exactly `(word >> 11) < ⌈p·2⁵³⌉` over integers (multiplying a ≤ 53-bit
/// integer by 2⁻⁵³ is lossless, and `p·2⁵³` is just an exponent shift of
/// `p`'s own mantissa — both sides of the threshold conversion are exact).
const UNIT_BITS: u32 = 53;

/// Integer keep-threshold equivalent to `rng.random::<f64>() < keep_prob`.
fn keep_threshold(keep_prob: f64) -> u64 {
    (keep_prob * (1u64 << UNIT_BITS) as f64).ceil() as u64
}

/// Stateful injector filtering a cross-traffic packet stream.
#[derive(Debug, Clone)]
pub struct CrossInjector {
    model: CrossModel,
    /// `⌈keep_prob·2⁵³⌉`, precomputed: the per-packet decision is one
    /// integer compare against the raw RNG word instead of an int→f64
    /// convert + float compare (the headroom item listed since PR 1).
    threshold: u64,
    rng: StdRng,
}

impl CrossInjector {
    /// Build with a model and RNG seed (selection is reproducible).
    pub fn new(model: CrossModel, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&model.keep_prob()),
            "keep probability out of [0,1]"
        );
        CrossInjector {
            model,
            threshold: keep_threshold(model.keep_prob()),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Decide whether to inject this packet (keyed on its trace timestamp).
    ///
    /// Draws from the RNG exactly when the float path did — gate open and
    /// `0 < keep_prob < 1` — so injection sequences are bit-identical to
    /// the pre-threshold implementation (pinned by the differential test
    /// below).
    #[inline]
    pub fn select(&mut self, p: &Packet) -> bool {
        // Degenerate probabilities need no random draw — the common
        // calibration outcome at the top of the utilization sweep is
        // keep_prob = 1.0 (threshold 2⁵³), which this turns into a pure
        // gate check.
        self.model.gate_open(p.created_at)
            && (self.threshold >= 1 << UNIT_BITS
                || (self.threshold > 0
                    && (rand::RngCore::next_u64(&mut self.rng) >> (64 - UNIT_BITS))
                        < self.threshold))
    }

    /// Filter an entire stream, preserving order.
    pub fn filter<'a>(
        &'a mut self,
        packets: impl Iterator<Item = Packet> + 'a,
    ) -> impl Iterator<Item = Packet> + 'a {
        packets.filter(move |p| self.select(p))
    }
}

/// Compute the keep-probability that makes `base_cross_utilization` of cross
/// traffic plus `regular_utilization` of regular traffic hit
/// `target_utilization` at the bottleneck, for a given model shape.
///
/// For the bursty model the probability applies only inside bursts, so it is
/// scaled up by the inverse duty cycle (capped at 1.0).
pub fn calibrate_keep_prob(
    target_utilization: f64,
    regular_utilization: f64,
    base_cross_utilization: f64,
    duty_cycle: f64,
) -> f64 {
    assert!(base_cross_utilization > 0.0, "no cross traffic to scale");
    assert!((0.0..=1.0).contains(&duty_cycle) && duty_cycle > 0.0);
    let needed = (target_utilization - regular_utilization).max(0.0);
    (needed / base_cross_utilization / duty_cycle).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_net::FlowKey;
    use std::net::Ipv4Addr;

    fn pkt(id: u64, at_ns: u64) -> Packet {
        Packet::cross(
            id,
            FlowKey::udp(Ipv4Addr::new(9, 9, 9, 9), 1, Ipv4Addr::new(8, 8, 8, 8), 2),
            100,
            SimTime::from_nanos(at_ns),
        )
    }

    #[test]
    fn uniform_keeps_expected_fraction() {
        let mut inj = CrossInjector::new(CrossModel::Uniform { keep_prob: 0.3 }, 1);
        let n = 100_000;
        let kept = (0..n).filter(|i| inj.select(&pkt(*i, *i * 10))).count();
        let frac = kept as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "kept {frac}");
    }

    #[test]
    fn uniform_extremes() {
        let mut none = CrossInjector::new(CrossModel::Uniform { keep_prob: 0.0 }, 2);
        let mut all = CrossInjector::new(CrossModel::Uniform { keep_prob: 1.0 }, 2);
        for i in 0..1000 {
            assert!(!none.select(&pkt(i, i)));
            assert!(all.select(&pkt(i, i)));
        }
    }

    #[test]
    fn bursty_gates_by_time() {
        let model = CrossModel::Bursty {
            keep_prob: 1.0,
            on: SimDuration::from_micros(10),
            off: SimDuration::from_micros(30),
        };
        let mut inj = CrossInjector::new(model, 3);
        // t = 5 µs: inside first burst. t = 15 µs: in the off window.
        assert!(inj.select(&pkt(1, 5_000)));
        assert!(!inj.select(&pkt(2, 15_000)));
        // t = 42 µs: second period begins at 40 µs → inside burst.
        assert!(inj.select(&pkt(3, 42_000)));
        assert!(model.gate_open(SimTime::from_micros(41)));
        assert!(!model.gate_open(SimTime::from_micros(39)));
    }

    #[test]
    fn bursty_average_keep_accounts_duty_cycle() {
        let model = CrossModel::Bursty {
            keep_prob: 0.6,
            on: SimDuration::from_micros(10),
            off: SimDuration::from_micros(30),
        };
        // Open a quarter of the time, kept at 0.6 while open.
        let mut inj = CrossInjector::new(model, 3);
        let kept = (0..200_000u64)
            .filter(|i| inj.select(&pkt(*i, *i * 17)))
            .count();
        assert!((kept as f64 / 2e5 - 0.15).abs() < 0.01, "kept {kept}");
    }

    #[test]
    fn bursty_realised_fraction_matches_average() {
        let model = CrossModel::Bursty {
            keep_prob: 0.5,
            on: SimDuration::from_micros(100),
            off: SimDuration::from_micros(100),
        };
        let mut inj = CrossInjector::new(model, 7);
        let n = 200_000u64;
        // Packets uniformly spread over many periods.
        let kept = (0..n).filter(|i| inj.select(&pkt(*i, *i * 17))).count();
        let frac = kept as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "kept {frac}");
    }

    #[test]
    fn filter_preserves_order() {
        let mut inj = CrossInjector::new(CrossModel::Uniform { keep_prob: 0.5 }, 9);
        let input: Vec<Packet> = (0..1000).map(|i| pkt(i, i * 5)).collect();
        let out: Vec<Packet> = inj.filter(input.clone().into_iter()).collect();
        assert!(!out.is_empty() && out.len() < input.len());
        for w in out.windows(2) {
            assert!(w[0].created_at <= w[1].created_at);
        }
    }

    #[test]
    fn integer_threshold_matches_float_comparison_bit_for_bit() {
        // The pre-threshold implementation, verbatim: an f64 unit draw
        // compared against keep_prob, drawn only when the gate is open and
        // the probability is non-degenerate. The integer fast path must
        // reproduce every decision *and* every RNG consumption.
        use rand::{Rng, RngCore};
        struct FloatOracle {
            model: CrossModel,
            rng: StdRng,
        }
        impl FloatOracle {
            fn select(&mut self, p: &Packet) -> bool {
                let keep_prob = self.model.keep_prob();
                self.model.gate_open(p.created_at)
                    && (keep_prob >= 1.0
                        || (keep_prob > 0.0 && self.rng.random::<f64>() < keep_prob))
            }
        }
        let probs = [
            0.0,
            1.0,
            0.5,
            0.3,
            1.0 / 3.0,
            0.125,
            1e-12,
            f64::EPSILON,
            1.0 - f64::EPSILON,
            0.999_999_999,
            0.637,
        ];
        for &keep_prob in &probs {
            for model in [
                CrossModel::Uniform { keep_prob },
                CrossModel::Bursty {
                    keep_prob,
                    on: SimDuration::from_micros(10),
                    off: SimDuration::from_micros(30),
                },
            ] {
                for seed in [1u64, 7, 0xDEAD] {
                    let mut fast = CrossInjector::new(model, seed);
                    let mut oracle = FloatOracle {
                        model,
                        rng: StdRng::seed_from_u64(seed),
                    };
                    for i in 0..5_000u64 {
                        let p = pkt(i, i * 1_237);
                        assert_eq!(
                            fast.select(&p),
                            oracle.select(&p),
                            "p={keep_prob} seed={seed} packet {i}: decision diverged"
                        );
                    }
                    // Both consumed the same number of words: the streams
                    // stay aligned for any continuation.
                    assert_eq!(fast.rng.next_u64(), oracle.rng.next_u64());
                }
            }
        }
    }

    #[test]
    fn threshold_conversion_is_exact_at_the_edges() {
        assert_eq!(keep_threshold(0.0), 0);
        assert_eq!(keep_threshold(1.0), 1 << UNIT_BITS);
        assert_eq!(keep_threshold(0.5), 1 << (UNIT_BITS - 1));
        // Smallest draw is 0: any positive probability keeps it.
        assert!(keep_threshold(f64::MIN_POSITIVE) >= 1);
        // Largest draw is 2⁵³−1: only p = 1.0 keeps everything.
        assert!(keep_threshold(1.0 - f64::EPSILON) < 1 << UNIT_BITS);
    }

    #[test]
    fn selection_is_deterministic_per_seed() {
        let run = |seed| {
            let mut inj = CrossInjector::new(CrossModel::Uniform { keep_prob: 0.5 }, seed);
            (0..500).map(|i| inj.select(&pkt(i, i))).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn calibration_math() {
        // Paper §4.1/§4.2: regular ≈ 22%, base cross ≈ 71%.
        // Target 93% with uniform model → keep everything.
        let p = calibrate_keep_prob(0.93, 0.22, 0.71, 1.0);
        assert!((p - 1.0).abs() < 1e-9);
        // Target 67% → keep ≈ 63%.
        let p = calibrate_keep_prob(0.67, 0.22, 0.71, 1.0);
        assert!((p - 0.6338).abs() < 0.001, "{p}");
        // Target 34% uniform → ≈ 17%, close to the paper's quoted 15%.
        let p = calibrate_keep_prob(0.34, 0.22, 0.71, 1.0);
        assert!((0.14..=0.20).contains(&p), "{p}");
        // Bursty with 50% duty cycle doubles the in-burst probability.
        let p_burst = calibrate_keep_prob(0.34, 0.22, 0.71, 0.5);
        assert!((p_burst - 2.0 * p).abs() < 1e-9);
        // Target below regular → no cross traffic at all.
        assert_eq!(calibrate_keep_prob(0.10, 0.22, 0.71, 1.0), 0.0);
    }
}
