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
//! Epoch membership is decided by the **observation time** of the packet
//! (not the time its estimate was computed): an estimate produced when the
//! closing reference arrives in epoch `e+2` still lands in the epoch its
//! packet crossed the observation point in.

use rlir_net::time::SimTime;
use rlir_stats::StreamingStats;
use serde::{Deserialize, Serialize};

/// One epoch's aggregate: estimate/truth moments plus counter deltas.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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
/// direction. A dense series costs a snapshot per epoch it spans, so a
/// single wild timestamp (a capture record with a flipped high bit still
/// decodes) must not be able to size it; at millisecond epochs this is
/// still a minute of silence.
pub const MAX_EPOCH_GAP: u64 = 1 << 16;

/// Merge several per-instance epoch series into one dense segment-level
/// series (union of the epoch ranges; gaps filled with empty snapshots).
///
/// The union grows the way a receiver's own series does, in the order the
/// snapshots are given: one that lies more than [`MAX_EPOCH_GAP`] epochs
/// outside the union so far is left out instead of being bridged.
pub fn merge_epoch_series(series: &[&[EpochSnapshot]], epoch_ns: u64) -> Vec<EpochSnapshot> {
    let mut union = EpochTracker::new(epoch_ns);
    for snap in series.iter().copied().flatten() {
        if let Some(slot) = union.epoch(snap.epoch) {
            slot.merge(snap);
        }
    }
    union.into_vec()
}

/// The snapshot of `epoch` in a series sorted by epoch index (dense or
/// gapped) — a binary search, so per-epoch walks over many series stay
/// O(epochs · log epochs) instead of O(epochs²).
pub fn snapshot_at(series: &[EpochSnapshot], epoch: u64) -> Option<&EpochSnapshot> {
    let i = series.partition_point(|s| s.epoch < epoch);
    series.get(i).filter(|s| s.epoch == epoch)
}

/// The receiver-internal epoch accumulator: a dense window of snapshots
/// indexed by epoch, grown on demand as observation times advance and
/// held contiguously so mid-run queries borrow the series as a slice.
#[derive(Debug, Clone)]
pub(crate) struct EpochTracker {
    epoch_ns: u64,
    /// Epoch index of `snaps[0]`.
    first: u64,
    snaps: Vec<EpochSnapshot>,
    /// The epoch hit last: observation times in `lo_ns..hi_ns` belong to
    /// `snaps[index]`. Consecutive observations mostly share an epoch, so
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

impl EpochTracker {
    pub(crate) fn new(epoch_ns: u64) -> Self {
        assert!(epoch_ns > 0, "epoch width must be positive");
        EpochTracker {
            epoch_ns,
            first: 0,
            snaps: Vec::new(),
            cursor: Cursor::default(),
        }
    }

    /// The snapshot covering observation time `at`, created if absent —
    /// or `None` when `at` lies more than [`MAX_EPOCH_GAP`] epochs outside
    /// the series, which then stays as it is. The series only ever grows,
    /// so a time that has a snapshot keeps having one.
    #[inline]
    pub(crate) fn snap(&mut self, at: SimTime) -> Option<&mut EpochSnapshot> {
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
        Some(&mut self.snaps[self.cursor.index])
    }

    /// The snapshot of epoch `e`, under the same growth rule as
    /// [`snap`](Self::snap).
    pub(crate) fn epoch(&mut self, e: u64) -> Option<&mut EpochSnapshot> {
        let index = self.grow_to(e)?;
        Some(&mut self.snaps[index])
    }

    /// Index of epoch `e`'s snapshot, growing the series densely up to it.
    fn grow_to(&mut self, e: u64) -> Option<usize> {
        let epoch_ns = self.epoch_ns;
        if self.snaps.is_empty() {
            self.first = e;
            self.snaps.push(EpochSnapshot::empty(e, epoch_ns));
        }
        let last = self.first + (self.snaps.len() as u64 - 1);
        if e < self.first {
            let fill = self.first - e;
            if fill > MAX_EPOCH_GAP {
                return None;
            }
            // Observation times only run backwards by a reorder window,
            // so front growth is rare and short.
            self.snaps.splice(
                0..0,
                (e..self.first).map(|i| EpochSnapshot::empty(i, epoch_ns)),
            );
            self.first = e;
            self.cursor.index += fill as usize;
        } else if e > last {
            if e - last > MAX_EPOCH_GAP {
                return None;
            }
            self.snaps
                .extend((last + 1..=e).map(|i| EpochSnapshot::empty(i, epoch_ns)));
        }
        Some((e - self.first) as usize)
    }

    /// Snapshots accumulated so far, in epoch order.
    pub(crate) fn as_slice(&self) -> &[EpochSnapshot] {
        &self.snaps
    }

    pub(crate) fn into_vec(self) -> Vec<EpochSnapshot> {
        self.snaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_grows_dense_in_both_directions() {
        let mut t = EpochTracker::new(1000);
        t.snap(SimTime::from_nanos(5_500)).unwrap().estimated += 1;
        t.snap(SimTime::from_nanos(7_100)).unwrap().estimated += 1;
        t.snap(SimTime::from_nanos(3_000)).unwrap().estimated += 1; // front growth
        let v = t.into_vec();
        assert_eq!(v.len(), 5); // epochs 3..=7, dense
        assert_eq!(v[0].epoch, 3);
        assert_eq!(v[0].start.as_nanos(), 3_000);
        assert_eq!(v[4].epoch, 7);
        assert_eq!(v[2].estimated, 1); // epoch 5
        for gap in [1usize, 3] {
            assert_eq!(v[gap].estimated, 0, "gap epochs stay empty");
            assert!(v[gap].is_empty());
        }
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
            let mut t = EpochTracker::new(epoch_ns);
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
                oracle[i].estimated += step;
                let snap = t.snap(SimTime::from_nanos(at)).expect("inside the bound");
                assert_eq!((snap.epoch, snap.start), (oracle[i].epoch, oracle[i].start));
                snap.estimated += step;
            }
            let got = t.into_vec();
            assert_eq!(got.len(), oracle.len());
            for (g, w) in got.iter().zip(&oracle) {
                assert_eq!((g.epoch, g.estimated), (w.epoch, w.estimated));
            }
        }
    }

    #[test]
    fn a_wild_timestamp_is_refused_not_bridged() {
        let mut t = EpochTracker::new(5_000_000); // 5 ms
        t.snap(SimTime::from_nanos(12_000_000)).unwrap().estimated += 1;
        // `ts_sec = u32::MAX`: about 10^12 epochs ahead.
        let wild = SimTime::from_nanos(u32::MAX as u64 * 1_000_000_000);
        assert!(t.snap(wild).is_none());
        assert!(t.snap(SimTime::from_nanos(u64::MAX)).is_none());
        // The series is as it was, and still takes what is near it — up to
        // the bound exactly, in both directions.
        assert_eq!(t.as_slice().len(), 1);
        t.snap(SimTime::from_nanos(13_000_000)).unwrap().estimated += 1;
        assert_eq!(t.as_slice()[0].estimated, 2);
        let edge = (2 + MAX_EPOCH_GAP) * 5_000_000;
        assert!(t.snap(SimTime::from_nanos(edge + 5_000_000)).is_none());
        assert_eq!(
            t.snap(SimTime::from_nanos(edge)).unwrap().epoch,
            2 + MAX_EPOCH_GAP
        );
        assert_eq!(t.as_slice().len() as u64, MAX_EPOCH_GAP + 1);

        let mut back = EpochTracker::new(10);
        back.snap(wild).unwrap().estimated += 1;
        assert!(back.snap(SimTime::from_nanos(12)).is_none());
        assert_eq!(back.into_vec().len(), 1);
    }

    #[test]
    fn series_merge_leaves_a_far_away_snapshot_out() {
        let near = vec![EpochSnapshot::empty(2, 10), EpochSnapshot::empty(3, 10)];
        let mut wild = EpochSnapshot::empty(1 << 40, 10);
        wild.dropped_after_metering = 1;
        let merged = merge_epoch_series(&[&near, &[wild.clone()]], 10);
        assert_eq!(merged.len(), 2);
        // First come, first kept: the order of the series decides.
        let merged = merge_epoch_series(&[&[wild], &near], 10);
        assert_eq!((merged.len(), merged[0].epoch), (1, 1 << 40));
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
        let mk = |epoch: u64, est: f64| {
            let mut s = EpochSnapshot::empty(epoch, 10);
            s.est.push(est);
            s.estimated = 1;
            s
        };
        let a = vec![mk(2, 100.0), mk(3, 200.0)];
        let b = vec![mk(3, 400.0), mk(5, 50.0)];
        let merged = merge_epoch_series(&[&a, &b], 10);
        assert_eq!(merged.len(), 4); // 2..=5
        assert_eq!(merged[0].est_mean(), Some(100.0));
        assert_eq!(merged[1].est_mean(), Some(300.0)); // 200 and 400 merged
        assert_eq!(merged[1].estimated, 2);
        assert!(merged[2].is_empty());
        assert_eq!(merged[3].est_mean(), Some(50.0));
        assert!(merge_epoch_series(&[], 10).is_empty());
    }

    #[test]
    fn snapshot_at_finds_exactly_what_a_linear_scan_finds() {
        // Offset (starts at 7) and gapped (no 9, no 11..=13) series.
        let series: Vec<EpochSnapshot> = [7u64, 8, 10, 14]
            .iter()
            .map(|&e| EpochSnapshot::empty(e, 10))
            .collect();
        for epoch in 0..20 {
            let scan = series.iter().find(|s| s.epoch == epoch).map(|s| s.epoch);
            assert_eq!(snapshot_at(&series, epoch).map(|s| s.epoch), scan);
        }
        assert!(snapshot_at(&[], 3).is_none());
    }
}
