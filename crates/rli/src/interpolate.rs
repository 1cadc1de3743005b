//! Delay interpolation between reference packets.
//!
//! The heart of RLI (§2): "Given the delays of the two reference packets …
//! and arrival times of the reference and regular packets, RLI uses linear
//! interpolation to estimate per-packet latency." The linear estimator is
//! the paper's; the constant/midpoint variants are ablation baselines that
//! quantify how much the *slope* of the interpolation actually buys
//! (ablation A2, the `interp` scenario of `experiments`).

use rlir_net::time::SimTime;
use serde::{Deserialize, Serialize};

/// A known (arrival time, one-way delay) sample from a reference packet.
/// Delay is in signed nanoseconds — clock skew can produce negative
/// measured delays, which the estimator must propagate rather than hide.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelaySample {
    /// Arrival time at the receiver (receiver clock).
    pub at: SimTime,
    /// Measured one-way delay in nanoseconds.
    pub delay_ns: f64,
}

impl DelaySample {
    /// Construct from raw parts.
    pub fn new(at: SimTime, delay_ns: f64) -> Self {
        DelaySample { at, delay_ns }
    }
}

/// Estimator choice for delays of regular packets between two reference
/// samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Interpolator {
    /// The paper's estimator: linear interpolation between the bracketing
    /// reference delays, evaluated at the regular packet's arrival time.
    #[default]
    Linear,
    /// Use the delay of the *preceding* reference packet (zero-order hold).
    LeftConstant,
    /// Use the delay of the *following* reference packet.
    RightConstant,
    /// Average of the two bracketing delays, ignoring arrival position.
    Midpoint,
}

impl Interpolator {
    /// Estimate the delay (ns) of a packet arriving at `t`, bracketed by
    /// reference samples `left` and `right` (`left.at <= t <= right.at`
    /// expected; `t` outside the bracket is clamped).
    pub fn estimate(&self, left: DelaySample, right: DelaySample, t: SimTime) -> f64 {
        match self {
            Interpolator::LeftConstant => left.delay_ns,
            Interpolator::RightConstant => right.delay_ns,
            Interpolator::Midpoint => 0.5 * (left.delay_ns + right.delay_ns),
            Interpolator::Linear => {
                let span = right.at.signed_delta_nanos(left.at);
                if span <= 0 {
                    // Degenerate bracket: both references landed together.
                    return 0.5 * (left.delay_ns + right.delay_ns);
                }
                let x = t.signed_delta_nanos(left.at) as f64 / span as f64;
                let x = x.clamp(0.0, 1.0);
                left.delay_ns + (right.delay_ns - left.delay_ns) * x
            }
        }
    }

    /// Precompute a per-interval estimator for the bracket `[left, right]`.
    ///
    /// The receiver estimates every buffered packet of an interval against
    /// the same bracket; hoisting the slope division out of the per-packet
    /// loop turns each estimate into one multiply-add. Agrees with
    /// [`Interpolator::estimate`] up to floating-point associativity.
    #[inline]
    pub fn segment(&self, left: DelaySample, right: DelaySample) -> Segment {
        match self {
            Interpolator::LeftConstant => Segment::Const(left.delay_ns),
            Interpolator::RightConstant => Segment::Const(right.delay_ns),
            Interpolator::Midpoint => Segment::Const(0.5 * (left.delay_ns + right.delay_ns)),
            Interpolator::Linear => {
                let span = right.at.signed_delta_nanos(left.at);
                if span <= 0 {
                    // Degenerate bracket: both references landed together.
                    Segment::Const(0.5 * (left.delay_ns + right.delay_ns))
                } else {
                    Segment::Affine {
                        left_at: left.at,
                        span,
                        base: left.delay_ns,
                        slope: (right.delay_ns - left.delay_ns) / span as f64,
                    }
                }
            }
        }
    }

    /// Figure-legend label.
    pub fn label(&self) -> &'static str {
        match self {
            Interpolator::Linear => "linear",
            Interpolator::LeftConstant => "left-constant",
            Interpolator::RightConstant => "right-constant",
            Interpolator::Midpoint => "midpoint",
        }
    }

    /// All variants, for ablation sweeps.
    pub fn all() -> [Interpolator; 4] {
        [
            Interpolator::Linear,
            Interpolator::LeftConstant,
            Interpolator::RightConstant,
            Interpolator::Midpoint,
        ]
    }
}

/// A per-interval estimator produced by [`Interpolator::segment`]: the
/// slope division is paid once per reference interval, not once per packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Segment {
    /// Interval-constant estimate (the constant/midpoint ablations, or a
    /// degenerate zero-span bracket).
    Const(f64),
    /// Linear interpolation with a precomputed slope.
    Affine {
        /// Arrival time of the opening reference.
        left_at: SimTime,
        /// Bracket width in nanoseconds (`> 0`).
        span: i64,
        /// Delay at the opening reference, ns.
        base: f64,
        /// Delay change per nanosecond across the bracket.
        slope: f64,
    },
}

impl Segment {
    /// Estimate the delay (ns) of a packet arriving at `t` (clamped to the
    /// bracket, like [`Interpolator::estimate`]).
    #[inline]
    pub fn estimate_at(&self, t: SimTime) -> f64 {
        match *self {
            Segment::Const(v) => v,
            Segment::Affine {
                left_at,
                span,
                base,
                slope,
            } => {
                let dt = t.signed_delta_nanos(left_at).clamp(0, span);
                base + dt as f64 * slope
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(at_ns: u64, delay: f64) -> DelaySample {
        DelaySample::new(SimTime::from_nanos(at_ns), delay)
    }

    #[test]
    fn segment_agrees_with_estimate() {
        let left = s(100, 50.0);
        let right = s(1100, 250.0);
        for interp in Interpolator::all() {
            let seg = interp.segment(left, right);
            for t_ns in [0u64, 100, 350, 600, 1100, 2000] {
                let t = SimTime::from_nanos(t_ns);
                let a = interp.estimate(left, right, t);
                let b = seg.estimate_at(t);
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                    "{interp:?} at {t_ns}: {a} vs {b}"
                );
            }
        }
        // Degenerate bracket falls back to the midpoint constant.
        let seg = Interpolator::Linear.segment(s(500, 10.0), s(500, 30.0));
        assert_eq!(seg, Segment::Const(20.0));
    }

    #[test]
    fn linear_midpoint_of_bracket() {
        let est =
            Interpolator::Linear.estimate(s(0, 100.0), s(1000, 300.0), SimTime::from_nanos(500));
        assert!((est - 200.0).abs() < 1e-9);
    }

    #[test]
    fn linear_at_endpoints_matches_references() {
        let (l, r) = (s(100, 50.0), s(900, 250.0));
        assert_eq!(Interpolator::Linear.estimate(l, r, l.at), 50.0);
        assert_eq!(Interpolator::Linear.estimate(l, r, r.at), 250.0);
    }

    #[test]
    fn linear_clamps_outside_bracket() {
        let (l, r) = (s(100, 50.0), s(900, 250.0));
        assert_eq!(
            Interpolator::Linear.estimate(l, r, SimTime::from_nanos(0)),
            50.0
        );
        assert_eq!(
            Interpolator::Linear.estimate(l, r, SimTime::from_nanos(5000)),
            250.0
        );
    }

    #[test]
    fn linear_is_bounded_by_endpoint_delays() {
        let (l, r) = (s(0, 120.0), s(10_000, 80.0));
        for t in (0..=10_000).step_by(250) {
            let e = Interpolator::Linear.estimate(l, r, SimTime::from_nanos(t));
            assert!((80.0..=120.0).contains(&e), "t={t} est={e}");
        }
    }

    #[test]
    fn degenerate_bracket_uses_average() {
        let est =
            Interpolator::Linear.estimate(s(500, 10.0), s(500, 30.0), SimTime::from_nanos(500));
        assert!((est - 20.0).abs() < 1e-9);
    }

    #[test]
    fn negative_delays_propagate() {
        // Clock skew can make measured reference delays negative; the
        // estimator must not clamp them away.
        let est =
            Interpolator::Linear.estimate(s(0, -100.0), s(100, -50.0), SimTime::from_nanos(50));
        assert!((est - -75.0).abs() < 1e-9);
    }

    #[test]
    fn ablation_variants() {
        let (l, r) = (s(0, 100.0), s(1000, 300.0));
        let t = SimTime::from_nanos(900);
        assert_eq!(Interpolator::LeftConstant.estimate(l, r, t), 100.0);
        assert_eq!(Interpolator::RightConstant.estimate(l, r, t), 300.0);
        assert_eq!(Interpolator::Midpoint.estimate(l, r, t), 200.0);
        let lin = Interpolator::Linear.estimate(l, r, t);
        assert!((lin - 280.0).abs() < 1e-9);
    }

    #[test]
    fn labels_and_all() {
        assert_eq!(Interpolator::all().len(), 4);
        assert_eq!(Interpolator::default(), Interpolator::Linear);
        assert_eq!(Interpolator::Linear.label(), "linear");
    }
}
