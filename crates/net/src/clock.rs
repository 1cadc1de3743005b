//! Measurement-clock model.
//!
//! RLI requires time synchronisation between sender and receiver ("that can
//! be achieved by GPS-based clock synchronization or IEEE 1588", §2). The
//! simulator keeps one true timeline; each measurement instance *observes* it
//! through a [`ClockModel`] with configurable offset, drift and jitter, which
//! lets experiments quantify how much synchronisation error RLI/RLIR
//! tolerates (ablation A4, the `sync` scenario of `experiments`).
//!
//! Jitter is *stateless*: it is derived by hashing the true time with the
//! model's seed, so observing the same instant twice yields the same reading
//! and simulations stay reproducible regardless of call order.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// A model of an imperfect local clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockModel {
    /// Constant offset from true time, in nanoseconds (positive = fast).
    pub offset_ns: i64,
    /// Frequency error in parts-per-million (positive = ticks fast).
    pub drift_ppm: f64,
    /// Half-width of uniform reading jitter, in nanoseconds.
    pub jitter_ns: u64,
    /// Seed for the stateless jitter hash.
    pub seed: u64,
}

impl Default for ClockModel {
    fn default() -> Self {
        Self::perfect()
    }
}

impl ClockModel {
    /// A perfectly synchronised clock (what GPS sync approximates).
    pub const fn perfect() -> Self {
        ClockModel {
            offset_ns: 0,
            drift_ppm: 0.0,
            jitter_ns: 0,
            seed: 0,
        }
    }

    /// A clock typical of a good IEEE 1588 (PTP) deployment: sub-µs offset,
    /// small residual drift and tens of nanoseconds of jitter.
    pub fn ptp(seed: u64) -> Self {
        ClockModel {
            offset_ns: 200,
            drift_ppm: 0.05,
            jitter_ns: 50,
            seed,
        }
    }

    /// Build a fixed-offset clock.
    pub fn with_offset(offset_ns: i64) -> Self {
        ClockModel {
            offset_ns,
            ..Self::perfect()
        }
    }

    /// Is this clock exactly synchronised to true time?
    pub fn is_perfect(&self) -> bool {
        self.offset_ns == 0 && self.drift_ppm == 0.0 && self.jitter_ns == 0
    }

    /// The local reading this clock produces when true time is `t`.
    ///
    /// Saturates at zero: a clock cannot report a negative timestamp.
    pub fn observe(&self, t: SimTime) -> SimTime {
        let true_ns = t.as_nanos();
        let drift = (true_ns as f64 * self.drift_ppm * 1e-6) as i64;
        let jitter = if self.jitter_ns == 0 {
            0
        } else {
            let h = splitmix64(self.seed ^ true_ns);
            let span = 2 * self.jitter_ns as i64 + 1;
            (h % span as u64) as i64 - self.jitter_ns as i64
        };
        let reading = true_ns as i64 + self.offset_ns + drift + jitter;
        SimTime::from_nanos(reading.max(0) as u64)
    }

    /// The worst-case absolute error of a reading taken at true time `t`
    /// (useful for test bounds).
    pub fn max_error_at(&self, t: SimTime) -> u64 {
        let drift = (t.as_nanos() as f64 * self.drift_ppm.abs() * 1e-6).ceil() as u64;
        self.offset_ns.unsigned_abs() + drift + self.jitter_ns
    }
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A synchronised sender/receiver clock pair, as RLI assumes. The one-way
/// delay measured by the pair for a packet stamped at `tx` (sender clock) and
/// received at `rx` (receiver clock) is `receiver.observe(rx) -
/// sender.observe(tx)`, which equals the true delay when both clocks are
/// perfect.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ClockPair {
    /// The sender-side clock.
    pub sender: ClockModel,
    /// The receiver-side clock.
    pub receiver: ClockModel,
}

impl ClockPair {
    /// Two perfect clocks.
    pub const fn perfect() -> Self {
        ClockPair {
            sender: ClockModel::perfect(),
            receiver: ClockModel::perfect(),
        }
    }

    /// The one-way delay as *measured* by this clock pair, in signed
    /// nanoseconds (clock skew can drive the measurement negative).
    pub fn measured_delay_ns(&self, tx_true: SimTime, rx_true: SimTime) -> i64 {
        let tx = self.sender.observe(tx_true);
        let rx = self.receiver.observe(rx_true);
        rx.signed_delta_nanos(tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_is_identity() {
        let c = ClockModel::perfect();
        for ns in [0u64, 1, 1_000_000, u64::MAX / 2] {
            assert_eq!(c.observe(SimTime::from_nanos(ns)).as_nanos(), ns);
        }
        assert!(c.is_perfect());
    }

    #[test]
    fn offset_shifts_reading() {
        let fast = ClockModel::with_offset(500);
        assert_eq!(fast.observe(SimTime::from_nanos(1000)).as_nanos(), 1500);
        let slow = ClockModel::with_offset(-500);
        assert_eq!(slow.observe(SimTime::from_nanos(1000)).as_nanos(), 500);
        // Saturation at zero.
        assert_eq!(slow.observe(SimTime::from_nanos(100)).as_nanos(), 0);
    }

    #[test]
    fn drift_accumulates() {
        let c = ClockModel {
            drift_ppm: 100.0, // 100 µs per second
            ..ClockModel::perfect()
        };
        let reading = c.observe(SimTime::from_secs(10));
        let expected = 10_000_000_000u64 + 1_000_000; // +1 ms after 10 s
        assert_eq!(reading.as_nanos(), expected);
    }

    #[test]
    fn jitter_bounded_and_reproducible() {
        let c = ClockModel {
            jitter_ns: 100,
            seed: 42,
            ..ClockModel::perfect()
        };
        let mut seen_nonzero = false;
        for i in 0..1000u64 {
            let t = SimTime::from_nanos(1_000_000 + i * 13);
            let r1 = c.observe(t);
            let r2 = c.observe(t);
            assert_eq!(r1, r2, "jitter must be stateless");
            let err = r1.signed_delta_nanos(t).unsigned_abs();
            assert!(err <= 100, "jitter {err} exceeds bound");
            seen_nonzero |= err > 0;
        }
        assert!(seen_nonzero, "jitter never fired");
    }

    #[test]
    fn max_error_bounds_observation() {
        let c = ClockModel::ptp(7);
        for i in 0..200u64 {
            let t = SimTime::from_millis(i * 17);
            let err = c.observe(t).signed_delta_nanos(t).unsigned_abs();
            assert!(err <= c.max_error_at(t), "error {err} over bound");
        }
    }

    #[test]
    fn clock_pair_measures_true_delay_when_perfect() {
        let pair = ClockPair::perfect();
        let d = pair.measured_delay_ns(SimTime::from_nanos(100), SimTime::from_nanos(350));
        assert_eq!(d, 250);
    }

    #[test]
    fn skewed_pair_biases_measurement() {
        let pair = ClockPair {
            sender: ClockModel::with_offset(0),
            receiver: ClockModel::with_offset(-1000),
        };
        let d = pair.measured_delay_ns(SimTime::from_micros(10), SimTime::from_micros(11));
        assert_eq!(d, 0); // true 1 µs delay erased by 1 µs receiver lag
        let pair = ClockPair {
            sender: ClockModel::with_offset(2000),
            receiver: ClockModel::with_offset(0),
        };
        let d = pair.measured_delay_ns(SimTime::from_micros(10), SimTime::from_micros(11));
        assert_eq!(d, -1000); // negative measured delay is representable
    }
}
