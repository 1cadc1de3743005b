//! Single-pass moment accumulation.
//!
//! Per-flow latency statistics (the paper reports per-flow *mean* and
//! *standard deviation* estimates, Figs. 4a/4b) are accumulated with
//! Welford's online algorithm: numerically stable, O(1) memory per flow, and
//! mergeable so parallel experiment shards can combine partial results.

/// Online mean/variance/min/max accumulator (Welford).
#[derive(Debug, Clone, Copy)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingStats {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or `None` with no observations.
    #[inline]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance (divide by n), or `None` with no observations.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| (self.m2 / self.count as f64).max(0.0))
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest observation.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Merge another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Set in [`FewStats::tag_count`] once `w` holds moments.
const MOMENTS: u64 = 1 << 63;
/// A [`StreamingStats`] that starts as the stream itself (40 bytes): its
/// first four observations are kept as they came, and the fifth replays
/// them through [`StreamingStats::push`], so every bit of every answer is
/// the one streaming produced. Most flows of a data-center trace never see
/// a fifth packet; for them this is both the moments and the samples a
/// tail quantile is read from ([`few`](FewStats::few)).
#[derive(Debug, Clone, Copy, Default)]
pub struct FewStats {
    /// The count, with [`MOMENTS`] set once `w` is
    /// `[mean, m2, min, max]`; until then `w[..count]` are the
    /// observations in arrival order.
    tag_count: u64,
    w: [f64; Self::FEW],
}

const _: () = assert!(std::mem::size_of::<FewStats>() == 40);

impl FewStats {
    /// Observations held as they came; the next one turns them into moments.
    pub const FEW: usize = 4;

    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        if self.tag_count < Self::FEW as u64 {
            self.w[self.tag_count as usize] = x;
            self.tag_count += 1;
        } else {
            // The fifth observation, or moments already (`MOMENTS` makes
            // `tag_count` huge).
            let mut stats = self.stats();
            stats.push(x);
            self.set_moments(stats);
        }
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.tag_count & !MOMENTS
    }

    /// The observations as they came, while there are at most four of them
    /// (merges of such lists included).
    #[inline]
    pub fn few(&self) -> Option<&[f64]> {
        // `MOMENTS` makes `tag_count` larger than any count of samples.
        (self.tag_count <= Self::FEW as u64).then(|| &self.w[..self.tag_count as usize])
    }

    /// The accumulator streaming the same observations would have built.
    #[inline]
    pub fn stats(&self) -> StreamingStats {
        match self.few() {
            Some(observations) => {
                let mut stats = StreamingStats::new();
                observations.iter().for_each(|&x| stats.push(x));
                stats
            }
            None => {
                let [mean, m2, min, max] = self.w;
                StreamingStats {
                    count: self.count(),
                    mean,
                    m2,
                    min,
                    max,
                }
            }
        }
    }

    /// Merge another accumulator into this one. Two sample lists of at
    /// most four observations together concatenate, ours first: the result
    /// is what pushing them in that order builds. Anything else merges
    /// moments ([`StreamingStats::merge`]) and holds moments from then on.
    pub fn merge(&mut self, other: &FewStats) {
        // `MOMENTS` makes either tag larger than any count of samples.
        let total = self.tag_count.saturating_add(other.tag_count);
        if total <= Self::FEW as u64 {
            let (ours, theirs) = (self.tag_count as usize, other.tag_count as usize);
            self.w[ours..total as usize].copy_from_slice(&other.w[..theirs]);
            self.tag_count = total;
            return;
        }
        let mut stats = self.stats();
        stats.merge(&other.stats());
        self.set_moments(stats);
    }

    fn set_moments(&mut self, stats: StreamingStats) {
        self.tag_count = stats.count | MOMENTS;
        self.w = [stats.mean, stats.m2, stats.min, stats.max];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn empty_yields_none() {
        let s = StreamingStats::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_none());
        assert!(s.variance().is_none());
        assert!(s.std_dev().is_none());
        assert!(s.min().is_none());
        assert!(s.max().is_none());
    }

    #[test]
    fn single_observation() {
        let mut s = StreamingStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), Some(42.0));
        assert_eq!(s.variance(), Some(0.0));
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
    }

    #[test]
    fn matches_naive_two_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 113) as f64 * 0.5).collect();
        let mut s = StreamingStats::new();
        for &x in &xs {
            s.push(x);
        }
        let (mean, var) = naive(&xs);
        assert!((s.mean().unwrap() - mean).abs() < 1e-9);
        assert!((s.variance().unwrap() - var).abs() < 1e-9);
        assert_eq!(s.count(), 1000);
        assert!((s.sum() - xs.iter().sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn numerically_stable_with_large_offset() {
        // Classic catastrophic-cancellation scenario for naive sum-of-squares.
        let offset = 1e9;
        let xs: Vec<f64> = (0..100).map(|i| offset + (i % 7) as f64).collect();
        let mut s = StreamingStats::new();
        for &x in &xs {
            s.push(x);
        }
        let (_, var) = naive(&xs);
        assert!((s.variance().unwrap() - var).abs() / var < 1e-6);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 100.0).collect();
        let mut whole = StreamingStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = StreamingStats::new();
        let mut b = StreamingStats::new();
        for &x in &xs[..137] {
            a.push(x);
        }
        for &x in &xs[137..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((a.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = StreamingStats::new();
        s.push(5.0);
        s.push(7.0);
        let snapshot = s;
        s.merge(&StreamingStats::new());
        assert_eq!(s.count(), snapshot.count());
        assert_eq!(s.mean(), snapshot.mean());

        let mut e = StreamingStats::new();
        e.merge(&snapshot);
        assert_eq!(e.count(), 2);
        assert_eq!(e.mean(), snapshot.mean());
    }
}
