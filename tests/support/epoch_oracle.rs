//! The epoch series before it split counters from moments, kept as an
//! oracle: a dense `Vec<EpochSnapshot>` (136 bytes an epoch, estimated or
//! not) with a cursor over the epoch hit last, the union merge over
//! snapshots, and the binary search that found one epoch in a series.

use rlir_net::time::SimTime;
use rlir_rli::epoch::MAX_EPOCH_GAP;
use rlir_rli::{growth, EpochSnapshot};

/// Merge several per-instance epoch series into one dense segment-level
/// series (union of the epoch ranges; gaps filled with empty snapshots).
///
/// The union grows the way a receiver's own series does, in the order the
/// snapshots are given: one that lies more than [`MAX_EPOCH_GAP`] epochs
/// outside the union so far is left out instead of being bridged.
#[allow(dead_code)]
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
/// gapped) — a binary search.
#[allow(dead_code)]
pub fn snapshot_at(series: &[EpochSnapshot], epoch: u64) -> Option<&EpochSnapshot> {
    let i = series.partition_point(|s| s.epoch < epoch);
    series.get(i).filter(|s| s.epoch == epoch)
}

/// The receiver-internal epoch accumulator: a dense window of snapshots
/// indexed by epoch, grown on demand as observation times advance (by
/// [`growth`]).
#[derive(Debug, Clone)]
pub struct EpochTracker {
    epoch_ns: u64,
    /// Epoch index of `snaps[0]`.
    first: u64,
    snaps: Vec<EpochSnapshot>,
    /// The epoch hit last: observation times in `lo_ns..hi_ns` belong to
    /// `snaps[index]`. Empty (`lo_ns == hi_ns`) until the first hit.
    cursor: Cursor,
}

#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    lo_ns: u64,
    hi_ns: u64,
    index: usize,
}

impl EpochTracker {
    pub fn new(epoch_ns: u64) -> Self {
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
    /// the series, which then stays as it is.
    #[inline]
    pub fn snap(&mut self, at: SimTime) -> Option<&mut EpochSnapshot> {
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
    pub fn epoch(&mut self, e: u64) -> Option<&mut EpochSnapshot> {
        let index = self.grow_to(e)?;
        Some(&mut self.snaps[index])
    }

    /// Index of epoch `e`'s snapshot, growing the series densely up to it.
    fn grow_to(&mut self, e: u64) -> Option<usize> {
        let epoch_ns = self.epoch_ns;
        if self.snaps.is_empty() {
            self.first = e;
            self.reserve(1);
            self.snaps.push(EpochSnapshot::empty(e, epoch_ns));
        }
        let last = self.first + (self.snaps.len() as u64 - 1);
        if e < self.first {
            let fill = self.first - e;
            if fill > MAX_EPOCH_GAP {
                return None;
            }
            self.reserve(fill as usize);
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
            self.reserve((e - last) as usize);
            self.snaps
                .extend((last + 1..=e).map(|i| EpochSnapshot::empty(i, epoch_ns)));
        }
        Some((e - self.first) as usize)
    }

    /// Room for `need` more snapshots, by [`growth`].
    fn reserve(&mut self, need: usize) {
        if self.snaps.capacity() - self.snaps.len() < need {
            self.snaps.reserve_exact(growth(self.snaps.len(), need));
        }
    }

    /// Snapshots accumulated so far, in epoch order.
    #[allow(dead_code)]
    pub fn as_slice(&self) -> &[EpochSnapshot] {
        &self.snaps
    }

    pub fn into_vec(self) -> Vec<EpochSnapshot> {
        self.snaps
    }
}
