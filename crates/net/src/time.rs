//! Simulated time.
//!
//! All timestamps in the simulator and in the RLI/RLIR measurement plane are
//! expressed as [`SimTime`], a nanosecond count since the start of the
//! simulation. Durations are [`SimDuration`]. Both are thin `u64` wrappers so
//! they are `Copy`, totally ordered and cheap to store in packet records; the
//! arithmetic provided here is deliberately checked (saturating) because
//! event-driven simulations are notorious for silently wrapping timestamps.
//!
//! The paper's measurement plane works at microsecond granularity ("tens of
//! µseconds to forward requests"); a nanosecond base unit leaves headroom for
//! sub-microsecond queueing on 10 Gb/s links (a 40-byte packet serialises in
//! ~32 ns at OC-192 rate).

use core::fmt;

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant (used as an "infinitely far" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from a raw nanosecond count.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "SimTime cannot be negative");
        SimTime((s * 1e9).round() as u64)
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later
    /// (which can happen with skewed measurement clocks).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Signed difference `self - other` in nanoseconds. Needed when a skewed
    /// receiver clock makes a one-way delay measurement negative.
    #[inline]
    pub fn signed_delta_nanos(self, other: SimTime) -> i64 {
        self.0 as i64 - other.0 as i64
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Maximum representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from a raw nanosecond count.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "SimDuration cannot be negative");
        SimDuration((s * 1e9).round() as u64)
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Serialisation time of `bytes` at `rate_bps` bits per second, rounded up
    /// so that back-to-back packets never overlap on the wire. Saturates at
    /// `u64::MAX` ns (a 4 GiB packet below ≈ 2 bit/s), like every other
    /// operation on simulated time.
    #[inline]
    pub fn transmission(bytes: u32, rate_bps: u64) -> Self {
        debug_assert!(rate_bps > 0, "link rate must be positive");
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(rate_bps as u128);
        SimDuration(u64::try_from(ns).unwrap_or(u64::MAX))
    }

    /// Scale by a non-negative factor, rounding to the nearest nanosecond.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Self {
        debug_assert!(factor >= 0.0, "duration factor must be non-negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> Self {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl core::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl core::ops::AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl core::ops::Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl core::ops::Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "SimTime subtraction would underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl core::ops::Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl core::ops::AddAssign<SimDuration> for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl core::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_nanos(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_nanos(self.0))
    }
}

/// Human-friendly rendering of a nanosecond count (`832ns`, `83.2µs`, `1.2ms`,
/// `3.5s`), chosen to match how the paper quotes latencies.
fn format_nanos(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_secs(1).as_secs_f64(), 1.0);
    }

    #[test]
    fn fractional_seconds() {
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_nanos(), 250_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_nanos(100);
        let d = SimDuration::from_nanos(40);
        assert_eq!((t + d).as_nanos(), 140);
        assert_eq!((t - d).as_nanos(), 60);
        assert_eq!((t + d) - t, d);
        let mut u = t;
        u += d;
        assert_eq!(u.as_nanos(), 140);
    }

    #[test]
    fn saturating_behaviour() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(50);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early).as_nanos(), 40);
        assert_eq!(SimTime::MAX + SimDuration::from_nanos(1), SimTime::MAX);
    }

    #[test]
    fn signed_delta() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(250);
        assert_eq!(a.signed_delta_nanos(b), -150);
        assert_eq!(b.signed_delta_nanos(a), 150);
    }

    #[test]
    fn transmission_time_oc192() {
        // A 1250-byte packet at exactly 10 Gb/s serialises in 1 µs.
        let d = SimDuration::transmission(1250, 10_000_000_000);
        assert_eq!(d.as_nanos(), 1_000);
        // 40-byte minimum TCP segment at OC-192 payload rate (9.953 Gb/s):
        // 320 bits / 9.953e9 bps ≈ 32.2 ns, rounded up.
        let d = SimDuration::transmission(40, 9_953_000_000);
        assert_eq!(d.as_nanos(), 33);
    }

    #[test]
    fn transmission_rounds_up() {
        // 1 byte at 3 bps = 8/3 s ≈ 2.666..s, must round *up*.
        let d = SimDuration::transmission(1, 3);
        assert_eq!(d.as_nanos(), 2_666_666_667);
    }

    #[test]
    fn transmission_saturates_instead_of_wrapping() {
        // u32::MAX bytes at 1 bit/s is ≈ 3.4e19 ns, past u64::MAX: the
        // unchecked cast used to wrap it to ≈ 1.6e19.
        let d = SimDuration::transmission(u32::MAX, 1);
        assert_eq!(d.as_nanos(), u64::MAX);
        // The largest value that still fits is returned exactly.
        let d = SimDuration::transmission(u32::MAX, 2);
        assert_eq!(d.as_nanos(), u32::MAX as u64 * 4_000_000_000);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_nanos(1000);
        assert_eq!(d.mul_f64(1.5).as_nanos(), 1500);
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_nanos(832).to_string(), "832ns");
        assert_eq!(SimDuration::from_nanos(83_200).to_string(), "83.2µs");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.0ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.00s");
        assert_eq!(SimTime::from_nanos(5).to_string(), "5ns");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_nanos(5),
            SimTime::ZERO,
            SimTime::from_nanos(2),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_nanos(2),
                SimTime::from_nanos(5)
            ]
        );
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = [1u64, 2, 3].into_iter().map(SimDuration::from_nanos).sum();
        assert_eq!(total.as_nanos(), 6);
    }
}
