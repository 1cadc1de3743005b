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

/// Merge several per-instance epoch series into one dense segment-level
/// series (union of the epoch ranges; gaps filled with empty snapshots).
pub fn merge_epoch_series(series: &[&[EpochSnapshot]], epoch_ns: u64) -> Vec<EpochSnapshot> {
    let lo = series
        .iter()
        .filter_map(|s| s.first().map(|e| e.epoch))
        .min();
    let hi = series
        .iter()
        .filter_map(|s| s.last().map(|e| e.epoch))
        .max();
    let (Some(lo), Some(hi)) = (lo, hi) else {
        return Vec::new();
    };
    let mut out: Vec<EpochSnapshot> = (lo..=hi)
        .map(|e| EpochSnapshot::empty(e, epoch_ns))
        .collect();
    for s in series {
        for snap in *s {
            out[(snap.epoch - lo) as usize].merge(snap);
        }
    }
    out
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
}

impl EpochTracker {
    pub(crate) fn new(epoch_ns: u64) -> Self {
        assert!(epoch_ns > 0, "epoch width must be positive");
        EpochTracker {
            epoch_ns,
            first: 0,
            snaps: Vec::new(),
        }
    }

    /// The snapshot covering observation time `at`, created if absent.
    pub(crate) fn snap(&mut self, at: SimTime) -> &mut EpochSnapshot {
        let e = at.as_nanos() / self.epoch_ns;
        let epoch_ns = self.epoch_ns;
        if self.snaps.is_empty() {
            self.first = e;
        }
        if e < self.first {
            // Observation times only run backwards by a reorder window,
            // so front growth is rare and short.
            let fill = (e..self.first).map(|i| EpochSnapshot::empty(i, epoch_ns));
            self.snaps.splice(0..0, fill);
            self.first = e;
        }
        while self.first + self.snaps.len() as u64 <= e {
            let next = self.first + self.snaps.len() as u64;
            self.snaps.push(EpochSnapshot::empty(next, epoch_ns));
        }
        &mut self.snaps[(e - self.first) as usize]
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
        t.snap(SimTime::from_nanos(5_500)).estimated += 1;
        t.snap(SimTime::from_nanos(7_100)).estimated += 1;
        t.snap(SimTime::from_nanos(3_000)).estimated += 1; // front growth
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
