//! Epoch-windowed aggregation.
//!
//! A deployed RLI instance cannot hold a run's worth of observations in
//! router SRAM and report once at the end; it aggregates into fixed-width
//! **epochs** of event time and exports one bounded-size snapshot per
//! epoch. [`EpochSnapshot`] is that export: the estimate/truth moments and
//! counter deltas of one epoch, mergeable across instances so segment-level
//! series can be folded from per-receiver series. Final (whole-run)
//! aggregates are *not* derived from snapshots — the receiver keeps its
//! cumulative [`crate::FlowTable`] alongside, so enabling epochs never
//! perturbs the per-flow statistics bit-for-bit.
//!
//! An [`EpochSeries`] holds a receiver's snapshots the way
//! [`crate::FlowTable`] holds its flows: one dense 40-byte row of counters
//! per epoch, and the 80-byte estimate/truth moments only for the epochs
//! that got an estimate — most epochs of an all-ports fleet get none. A
//! snapshot is built on read.
//!
//! Epoch membership is decided by the **observation time** of the packet
//! (not the time its estimate was computed): an estimate produced when the
//! closing reference arrives in epoch `e+2` still lands in the epoch its
//! packet crossed the observation point in.

use rlir_net::time::SimTime;
use rlir_stats::StreamingStats;
use std::ops::Range;

/// One epoch's aggregate: estimate/truth moments plus counter deltas.
#[derive(Debug, Clone, Default)]
pub struct EpochSnapshot {
    /// Epoch index (`observation time / epoch_ns`).
    pub epoch: u64,
    /// Epoch start (`epoch × epoch_ns`).
    pub start: SimTime,
    /// Per-packet delay estimates whose observation time fell in this epoch.
    pub est: StreamingStats,
    /// Matching ground-truth delays (simulation only).
    pub truth: StreamingStats,
    /// Reference packets accepted in this epoch.
    pub refs_accepted: u64,
    /// Regular packets offered in this epoch.
    pub regulars_seen: u64,
    /// Estimates produced for this epoch.
    pub estimated: u64,
    /// Regular packets of this epoch that could not be estimated (before
    /// the first reference, after the last, or shed by a buffer cap).
    pub unestimated: u64,
    /// Metered packets of this epoch that died *downstream* of the
    /// observation point after being observed. A receiver cannot know this
    /// on its own — the measurement plane fills it in from the engine's
    /// drop events (zero on delivered-gated taps by construction).
    pub dropped_after_metering: u64,
}

impl EpochSnapshot {
    /// An empty snapshot for epoch `epoch` of width `epoch_ns`.
    pub fn empty(epoch: u64, epoch_ns: u64) -> Self {
        EpochSnapshot {
            epoch,
            start: SimTime::from_nanos(epoch * epoch_ns),
            ..Self::default()
        }
    }

    /// Mean estimated delay of the epoch, ns.
    pub fn est_mean(&self) -> Option<f64> {
        self.est.mean()
    }

    /// Mean true delay of the epoch, ns.
    pub fn true_mean(&self) -> Option<f64> {
        self.truth.mean()
    }

    /// Whether nothing at all was observed in this epoch.
    pub fn is_empty(&self) -> bool {
        self.refs_accepted == 0 && self.regulars_seen == 0 && self.dropped_after_metering == 0
    }

    /// Fold another instance's snapshot of the *same* epoch into this one
    /// (counts and moments merge exactly).
    pub fn merge(&mut self, other: &EpochSnapshot) {
        assert_eq!(self.epoch, other.epoch, "merging different epochs");
        self.est.merge(&other.est);
        self.truth.merge(&other.truth);
        self.refs_accepted += other.refs_accepted;
        self.regulars_seen += other.regulars_seen;
        self.estimated += other.estimated;
        self.unestimated += other.unestimated;
        self.dropped_after_metering += other.dropped_after_metering;
    }
}

/// How many epochs one observation may extend a dense series by, in either
/// direction. A dense series costs a row per epoch it spans, so a single
/// wild timestamp (a capture record with a flipped high bit still decodes)
/// must not be able to size it; at millisecond epochs this is still a
/// minute of silence.
pub const MAX_EPOCH_GAP: u64 = 1 << 16;

/// How many slots a buffer of `len` elements reserves when it needs `need`
/// more than it has room for — the measurement plane's one growth rule, for
/// the epoch series, the event-record FIFO and the per-flow rows.
/// Geometric, so a long run copies each element O(1) times, with at most
/// `len / 8` (or 8) spare.
pub fn growth(len: usize, need: usize) -> usize {
    need.max(len / 8).max(8)
}

/// Push `x` onto `v`, reserving by [`growth`] when it is full instead of
/// doubling — the rule for per-flow row vectors, which live as long as the
/// run and are never trimmed.
#[inline]
pub fn push_grown<T>(v: &mut Vec<T>, x: T) {
    if v.len() == v.capacity() {
        v.reserve_exact(growth(v.len(), 1));
    }
    v.push(x);
}

/// A counter of an [`EpochSnapshot`] that [`EpochSeries::count`] bumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochCounter {
    /// [`EpochSnapshot::refs_accepted`].
    RefAccepted,
    /// [`EpochSnapshot::regulars_seen`].
    RegularSeen,
    /// [`EpochSnapshot::unestimated`].
    Unestimated,
    /// [`EpochSnapshot::dropped_after_metering`].
    DroppedAfterMetering,
}

/// Set in [`EpochRow::moments`] while the epoch has no estimate.
const NO_MOMENTS: u32 = u32::MAX;

/// One epoch's counters; its index, start and estimate count are derived.
#[derive(Debug, Clone, Copy)]
struct EpochRow {
    refs_accepted: u64,
    regulars_seen: u64,
    unestimated: u64,
    dropped_after_metering: u64,
    /// The epoch's slot in [`EpochSeries::moments`], or [`NO_MOMENTS`].
    moments: u32,
}

const EMPTY_ROW: EpochRow = EpochRow {
    refs_accepted: 0,
    regulars_seen: 0,
    unestimated: 0,
    dropped_after_metering: 0,
    moments: NO_MOMENTS,
};

const _: () = assert!(std::mem::size_of::<EpochRow>() <= 40);

/// The estimate and truth moments of an epoch that got an estimate.
#[derive(Debug, Clone, Copy, Default)]
struct Moments {
    est: StreamingStats,
    truth: StreamingStats,
}

/// A dense series of epochs: a receiver's per-epoch export, grown on
/// demand as observation times advance, and the union of several such
/// series ([`EpochSeries::merge`]).
///
/// Reads build [`EpochSnapshot`]s: [`get`](EpochSeries::get) one epoch in
/// O(1), [`iter`](EpochSeries::iter) all of them in epoch order. Rows and
/// moments grow by [`growth`].
#[derive(Debug, Clone, Default)]
pub struct EpochSeries {
    /// Zero only for the empty series [`Default`] builds, which is never
    /// written.
    epoch_ns: u64,
    /// Epoch index of `rows[0]`.
    first: u64,
    rows: Vec<EpochRow>,
    moments: Vec<Moments>,
    /// The epoch hit last: observation times in `lo_ns..hi_ns` belong to
    /// `rows[index]`. Consecutive observations mostly share an epoch, so
    /// they cost two compares instead of a 64-bit division. Empty
    /// (`lo_ns == hi_ns`) until the first hit.
    cursor: Cursor,
}

#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    lo_ns: u64,
    hi_ns: u64,
    index: usize,
}

impl EpochSeries {
    /// An empty series of `epoch_ns`-wide epochs.
    pub fn new(epoch_ns: u64) -> Self {
        assert!(epoch_ns > 0, "epoch width must be positive");
        EpochSeries {
            epoch_ns,
            ..Self::default()
        }
    }

    /// The union of `series` (all `epoch_ns` wide), merged in order (see
    /// [`merge`](EpochSeries::merge)).
    pub fn union<'a>(epoch_ns: u64, series: impl IntoIterator<Item = &'a EpochSeries>) -> Self {
        let mut union = EpochSeries::new(epoch_ns);
        for s in series {
            union.merge(s);
        }
        union
    }

    /// Number of epochs the series spans.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the series spans no epoch.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The epoch indices the series spans.
    pub fn epochs(&self) -> Range<u64> {
        self.first..self.first + self.rows.len() as u64
    }

    /// The snapshot of epoch `epoch`, if the series spans it.
    pub fn get(&self, epoch: u64) -> Option<EpochSnapshot> {
        let spanned = self.epochs().contains(&epoch);
        spanned.then(|| self.snapshot((epoch - self.first) as usize))
    }

    /// Every epoch's snapshot, in epoch order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            series: self,
            rows: 0..self.rows.len(),
        }
    }

    /// The snapshot of `rows[i]`.
    fn snapshot(&self, i: usize) -> EpochSnapshot {
        let (row, epoch) = (&self.rows[i], self.first + i as u64);
        let Moments { est, truth } = match row.moments {
            NO_MOMENTS => Moments::default(),
            m => self.moments[m as usize],
        };
        EpochSnapshot {
            epoch,
            start: SimTime::from_nanos(epoch * self.epoch_ns),
            est,
            truth,
            refs_accepted: row.refs_accepted,
            regulars_seen: row.regulars_seen,
            estimated: est.count(),
            unestimated: row.unestimated,
            dropped_after_metering: row.dropped_after_metering,
        }
    }

    /// Bump `counter` in the epoch of observation time `at`, creating the
    /// epoch if absent — or return `false` when `at` lies more than
    /// [`MAX_EPOCH_GAP`] epochs outside the series, which then stays as it
    /// is. The series only ever grows, so a time that has an epoch keeps
    /// having one.
    #[inline]
    pub fn count(&mut self, at: SimTime, counter: EpochCounter) -> bool {
        let Some(i) = self.index(at) else {
            return false;
        };
        let row = &mut self.rows[i];
        *match counter {
            EpochCounter::RefAccepted => &mut row.refs_accepted,
            EpochCounter::RegularSeen => &mut row.regulars_seen,
            EpochCounter::Unestimated => &mut row.unestimated,
            EpochCounter::DroppedAfterMetering => &mut row.dropped_after_metering,
        } += 1;
        true
    }

    /// Add a delay estimate (and its truth, when known) to the epoch of
    /// observation time `at`, under the same growth rule as
    /// [`count`](EpochSeries::count).
    #[inline]
    pub fn estimate(&mut self, at: SimTime, est: f64, truth: Option<f64>) -> bool {
        let Some(i) = self.index(at) else {
            return false;
        };
        let m = self.moments_of(i);
        m.est.push(est);
        if let Some(truth) = truth {
            m.truth.push(truth);
        }
        true
    }

    /// Fold `other` into this series, epoch by epoch (counts and moments
    /// merge exactly). The union grows the way a receiver's own series
    /// does, in epoch order: epochs of `other` more than [`MAX_EPOCH_GAP`]
    /// outside the union so far are left out instead of being bridged, so
    /// the order of several merges decides which of two far-apart series
    /// is kept.
    pub fn merge(&mut self, other: &EpochSeries) {
        let Some(other_last) = other.last() else {
            return;
        };
        assert_eq!(
            self.epoch_ns, other.epoch_ns,
            "merging different epoch widths"
        );
        let lo = match self.last() {
            None => other.first,
            Some(last) if other.first > last.saturating_add(MAX_EPOCH_GAP) => return,
            Some(_) => other.first.max(self.first.saturating_sub(MAX_EPOCH_GAP)),
        };
        if lo > other_last {
            return;
        }
        self.span(lo, other_last);
        for (e, row) in (lo..=other_last).zip(&other.rows[(lo - other.first) as usize..]) {
            let i = (e - self.first) as usize;
            let mine = &mut self.rows[i];
            mine.refs_accepted += row.refs_accepted;
            mine.regulars_seen += row.regulars_seen;
            mine.unestimated += row.unestimated;
            mine.dropped_after_metering += row.dropped_after_metering;
            if row.moments != NO_MOMENTS {
                let theirs = other.moments[row.moments as usize];
                let m = self.moments_of(i);
                m.est.merge(&theirs.est);
                m.truth.merge(&theirs.truth);
            }
        }
    }

    fn last(&self) -> Option<u64> {
        self.epochs().next_back()
    }

    /// The moments of `rows[i]`, added on its first estimate.
    fn moments_of(&mut self, i: usize) -> &mut Moments {
        let row = &mut self.rows[i];
        if row.moments == NO_MOMENTS {
            row.moments = u32::try_from(self.moments.len()).expect("under 2^32 estimated epochs");
            push_grown(&mut self.moments, Moments::default());
        }
        &mut self.moments[row.moments as usize]
    }

    /// Row index of observation time `at`, through the cursor.
    #[inline]
    fn index(&mut self, at: SimTime) -> Option<usize> {
        let t = at.as_nanos();
        if !(self.cursor.lo_ns <= t && t < self.cursor.hi_ns) {
            let e = t / self.epoch_ns;
            let index = self.grow_to(e)?;
            let lo_ns = e * self.epoch_ns;
            self.cursor = Cursor {
                lo_ns,
                hi_ns: lo_ns.saturating_add(self.epoch_ns),
                index,
            };
        }
        Some(self.cursor.index)
    }

    /// Row index of epoch `e`, growing the series densely up to it unless
    /// that bridges more than [`MAX_EPOCH_GAP`] epochs.
    fn grow_to(&mut self, e: u64) -> Option<usize> {
        if let Some(last) = self.last() {
            if self.first.saturating_sub(e) > MAX_EPOCH_GAP
                || e.saturating_sub(last) > MAX_EPOCH_GAP
            {
                return None;
            }
        }
        self.span(e, e);
        Some((e - self.first) as usize)
    }

    /// Grow the rows densely to cover epochs `lo..=hi`.
    fn span(&mut self, lo: u64, hi: u64) {
        let Some(last) = self.last() else {
            self.first = lo;
            self.reserve((hi - lo + 1) as usize);
            self.rows.resize((hi - lo + 1) as usize, EMPTY_ROW);
            return;
        };
        if lo < self.first {
            // Observation times only run backwards by a reorder window,
            // so front growth is rare and short.
            let fill = (self.first - lo) as usize;
            self.reserve(fill);
            self.rows.splice(0..0, std::iter::repeat_n(EMPTY_ROW, fill));
            self.first = lo;
            self.cursor.index += fill;
        }
        if hi > last {
            let fill = (hi - last) as usize;
            self.reserve(fill);
            self.rows.resize(self.rows.len() + fill, EMPTY_ROW);
        }
    }

    /// Room for `need` more rows, by [`growth`].
    fn reserve(&mut self, need: usize) {
        if self.rows.capacity() - self.rows.len() < need {
            self.rows.reserve_exact(growth(self.rows.len(), need));
        }
    }
}

/// The snapshots of an [`EpochSeries`], in epoch order
/// ([`EpochSeries::iter`]).
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    series: &'a EpochSeries,
    rows: Range<usize>,
}

impl Iterator for Iter<'_> {
    type Item = EpochSnapshot;

    fn next(&mut self) -> Option<EpochSnapshot> {
        self.rows.next().map(|i| self.series.snapshot(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a EpochSeries {
    type Item = EpochSnapshot;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Observation time `at` estimated as `est` (and counted seen).
    fn hit(s: &mut EpochSeries, at: u64, est: f64) -> bool {
        let at = SimTime::from_nanos(at);
        s.count(at, EpochCounter::RegularSeen) && s.estimate(at, est, Some(est + 1.0))
    }

    #[test]
    fn tracker_grows_dense_in_both_directions() {
        let mut t = EpochSeries::new(1000);
        assert!(hit(&mut t, 5_500, 1.0));
        assert!(hit(&mut t, 7_100, 1.0));
        assert!(hit(&mut t, 3_000, 1.0)); // front growth
        let v: Vec<EpochSnapshot> = t.iter().collect();
        assert_eq!(v.len(), 5); // epochs 3..=7, dense
        assert_eq!(v[0].epoch, 3);
        assert_eq!(v[0].start.as_nanos(), 3_000);
        assert_eq!(v[4].epoch, 7);
        assert_eq!(v[2].estimated, 1); // epoch 5
        for gap in [1usize, 3] {
            assert_eq!(v[gap].estimated, 0, "gap epochs stay empty");
            assert!(v[gap].is_empty());
        }
        // Only the three estimated epochs hold moments.
        assert_eq!(t.moments.len(), 3);
        assert_eq!(t.epochs(), 3..8);
    }

    /// The tracker before it had a cursor or a bound: one division per
    /// call, dense growth in a loop.
    fn snap_by_division(
        first: &mut u64,
        snaps: &mut Vec<EpochSnapshot>,
        at: u64,
        epoch_ns: u64,
    ) -> usize {
        let e = at / epoch_ns;
        if snaps.is_empty() {
            *first = e;
        }
        if e < *first {
            snaps.splice(0..0, (e..*first).map(|i| EpochSnapshot::empty(i, epoch_ns)));
            *first = e;
        }
        while *first + snaps.len() as u64 <= e {
            let next = *first + snaps.len() as u64;
            snaps.push(EpochSnapshot::empty(next, epoch_ns));
        }
        (e - *first) as usize
    }

    #[test]
    fn cursor_returns_the_snapshot_the_division_path_returns() {
        // A random walk of observation times: mostly small forward steps
        // (cursor hits), backward steps up to a window (hits, misses and
        // front growth early on), the odd sprint over several epochs.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for epoch_ns in [1u64, 7, 1_000, 4_096] {
            let window = 3 * epoch_ns + 1;
            let mut t = EpochSeries::new(epoch_ns);
            let (mut first, mut oracle) = (0u64, Vec::new());
            let mut at = 50 * epoch_ns;
            for step in 0..20_000u64 {
                at = match rand() % 16 {
                    0..=9 => at + rand() % (epoch_ns / 4 + 1),
                    10..=13 => at.saturating_sub(rand() % window),
                    14 => at + rand() % window,
                    _ => at + rand() % (9 * epoch_ns),
                };
                let i = snap_by_division(&mut first, &mut oracle, at, epoch_ns);
                let counted = step % 3 == 0;
                if counted {
                    oracle[i].unestimated += 1;
                } else {
                    oracle[i].est.push(step as f64);
                    oracle[i].estimated += 1;
                }
                let at = SimTime::from_nanos(at);
                assert!(if counted {
                    t.count(at, EpochCounter::Unestimated)
                } else {
                    t.estimate(at, step as f64, None)
                });
                let snap = t.get(oracle[i].epoch).expect("inside the series");
                assert_eq!(snap.start, oracle[i].start);
            }
            assert_eq!(t.len(), oracle.len());
            for (g, w) in t.iter().zip(&oracle) {
                assert_eq!(
                    (g.epoch, g.estimated, g.unestimated),
                    (w.epoch, w.estimated, w.unestimated)
                );
                assert_eq!(g.est.sum().to_bits(), w.est.sum().to_bits());
            }
        }
    }

    #[test]
    fn a_wild_timestamp_is_refused_not_bridged() {
        let mut t = EpochSeries::new(5_000_000); // 5 ms
        assert!(hit(&mut t, 12_000_000, 1.0));
        // `ts_sec = u32::MAX`: about 10^12 epochs ahead.
        let wild = u32::MAX as u64 * 1_000_000_000;
        assert!(!hit(&mut t, wild, 1.0));
        assert!(!hit(&mut t, u64::MAX, 1.0));
        // The series is as it was, and still takes what is near it — up to
        // the bound exactly, in both directions.
        assert_eq!(t.len(), 1);
        assert!(hit(&mut t, 13_000_000, 1.0));
        assert_eq!(t.get(2).unwrap().estimated, 2);
        let edge = (2 + MAX_EPOCH_GAP) * 5_000_000;
        assert!(!hit(&mut t, edge + 5_000_000, 1.0));
        assert!(hit(&mut t, edge, 1.0));
        assert_eq!(t.get(2 + MAX_EPOCH_GAP).unwrap().estimated, 1);
        assert_eq!(t.len() as u64, MAX_EPOCH_GAP + 1);

        let mut back = EpochSeries::new(10);
        assert!(hit(&mut back, wild, 1.0));
        assert!(!hit(&mut back, 12, 1.0));
        assert_eq!(back.len(), 1);
    }

    /// A series of `epoch_ns = 10` spanning `epochs`, each estimated once
    /// at the given value.
    fn series(epochs: &[(u64, f64)]) -> EpochSeries {
        let mut s = EpochSeries::new(10);
        for &(e, est) in epochs {
            assert!(hit(&mut s, e * 10, est));
        }
        s
    }

    #[test]
    fn series_merge_leaves_a_far_away_snapshot_out() {
        let near = series(&[(2, 1.0), (3, 1.0)]);
        let mut wild = EpochSeries::new(10);
        assert!(wild.count(
            SimTime::from_nanos(10 << 40),
            EpochCounter::DroppedAfterMetering
        ));
        let merged = EpochSeries::union(10, [&near, &wild]);
        assert_eq!(merged.len(), 2);
        // First come, first kept: the order of the series decides.
        let merged = EpochSeries::union(10, [&wild, &near]);
        assert_eq!(
            (merged.len(), merged.get(1 << 40).unwrap().epoch),
            (1, 1 << 40)
        );
        // A series reaching far below the union keeps its rows from the
        // bound up, as a receiver's own series would.
        let low = series(&[(0, 5.0), (MAX_EPOCH_GAP, 5.5), (MAX_EPOCH_GAP + 3, 6.0)]);
        let merged = EpochSeries::union(10, [&series(&[(2 * MAX_EPOCH_GAP, 1.0)]), &low]);
        assert_eq!(merged.len() as u64, MAX_EPOCH_GAP + 1);
        assert_eq!(merged.get(MAX_EPOCH_GAP).unwrap().est_mean(), Some(5.5));
        assert_eq!(merged.get(MAX_EPOCH_GAP + 3).unwrap().est_mean(), Some(6.0));
    }

    #[test]
    fn snapshot_merge_is_exact() {
        let mut a = EpochSnapshot::empty(4, 100);
        let mut b = EpochSnapshot::empty(4, 100);
        a.est.push(10.0);
        a.estimated = 1;
        b.est.push(30.0);
        b.estimated = 1;
        b.unestimated = 2;
        a.merge(&b);
        assert_eq!(a.est_mean(), Some(20.0));
        assert_eq!(a.estimated, 2);
        assert_eq!(a.unestimated, 2);
    }

    #[test]
    #[should_panic(expected = "different epochs")]
    fn merging_mismatched_epochs_panics() {
        let mut a = EpochSnapshot::empty(1, 100);
        a.merge(&EpochSnapshot::empty(2, 100));
    }

    #[test]
    fn series_merge_unions_ranges() {
        let a = series(&[(2, 100.0), (3, 200.0)]);
        let b = series(&[(3, 400.0), (5, 50.0)]);
        let merged = EpochSeries::union(10, [&a, &b]);
        let v: Vec<EpochSnapshot> = merged.iter().collect();
        assert_eq!(v.len(), 4); // 2..=5
        assert_eq!(v[0].est_mean(), Some(100.0));
        assert_eq!(v[1].est_mean(), Some(300.0)); // 200 and 400 merged
        assert_eq!(v[1].estimated, 2);
        assert_eq!(v[1].regulars_seen, 2);
        assert!(v[2].is_empty());
        assert_eq!(v[3].est_mean(), Some(50.0));
        assert!(EpochSeries::union(10, []).is_empty());
        assert!(EpochSeries::union(10, [&EpochSeries::default()]).is_empty());
    }

    #[test]
    fn get_finds_exactly_what_a_linear_scan_finds() {
        // Offset (starts at 7), estimates in 7, 8, 10 and 14 only.
        let s = series(&[(7, 1.0), (8, 1.0), (10, 1.0), (14, 1.0)]);
        for epoch in 0..20 {
            let scan = s.iter().find(|e| e.epoch == epoch).map(|e| e.estimated);
            assert_eq!(s.get(epoch).map(|e| e.estimated), scan);
        }
        assert!(EpochSeries::default().get(3).is_none());
        assert!(s.get(u64::MAX).is_none());
    }
}
