//! The reorder runs: one block pool for every tap's pending observations.
//!
//! A block of the plane-wide **pool** ([`Runs`]) is up to [`BLOCK`] 8-byte
//! entries; blocks chain through parallel arrays and are reused (LIFO)
//! before the pool grows, so a burst takes the blocks another tap's flush
//! just freed and the pool holds the peak of the *sum* of the runs.
//!
//! An entry's time is a 32-bit offset from its block's base, `max(tap's
//! flushed_to, at − 2³¹)` for the block's first `at`; later entries are at
//! or above `flushed_to`, so under any window below ≈ 2 s all fit. One
//! outside `[base, base + 2³²)` — runs spanning more than 2³¹ ns: a window
//! wider than the run, no watermark, multi-second windows — **closes** the
//! tail block early.
//!
//! A flush **gathers** the run into a scratch of 16-byte [`WindowEntry`]s,
//! stable-sorts it by `(at, tie, id)`, feeds the prefix below the bound and
//! **refills** a chain with the suffix a chunk at a time; the sort's run
//! detection finishes that order in about one merge pass.

/// Entry `rec`-word bit: the entry is scored — its record says since when
/// its truth runs.
pub(super) const ENTRY_HAS_TRUTH: u32 = 1 << 31;

/// A pending observation as a flush sorts and feeds it: when the tap saw
/// it, and which [`EventRecord`](super::records::EventRecord) says what it
/// was. Fed in ascending `(at, tie, packet id)` order — unique per tap.
#[derive(Clone, Copy, Default)]
pub(super) struct WindowEntry {
    pub(super) at: u64,
    /// The record's stream position modulo 2³¹ (resolved against
    /// `Records::base`) and the [`ENTRY_HAS_TRUTH`] bit.
    pub(super) rec: u32,
}

/// A [`WindowEntry`] in the pool: `at` less its block's base, and `rec`.
#[derive(Clone, Copy, Default)]
pub(super) struct PoolEntry {
    off: u32,
    rec: u32,
}

// What `plane.bytes_per_pending` and the flush's scratch are quoted against.
const _: () = assert!(std::mem::size_of::<PoolEntry>() == 8);
const _: () = assert!(std::mem::size_of::<WindowEntry>() == 16);

/// Entries per pool block: what a burst takes from the pool at a time, and
/// the most a tap's tail block leaves unused.
pub(super) const BLOCK: usize = 128;
const _: () = assert!(BLOCK <= u8::MAX as usize);

/// One tap's run: a chain of blocks, full but the tail and any closed
/// early. An empty run holds no block; its `head` / `tail` mean nothing.
#[derive(Clone, Copy, Default)]
pub(super) struct Run {
    pub(super) head: u32,
    pub(super) tail: u32,
    pub(super) len: u32,
}

impl Run {
    #[inline]
    pub(super) fn len(&self) -> usize {
        self.len as usize
    }
}

/// The plane-wide block pool every tap's [`Run`] lives in. A push that
/// does not fit its tail block's `[base, base + 2³²)` closes it early.
#[derive(Default)]
pub(super) struct Runs {
    /// Block `b` is `entries[b * BLOCK..][..held[b]]`.
    entries: Vec<PoolEntry>,
    /// Per block `b`: the block after it in its run's chain (stale once
    /// `b` is a tail or free), what its offsets count from (ns), and how
    /// many entries it holds.
    next: Vec<u32>,
    base: Vec<u64>,
    held: Vec<u8>,
    /// Blocks no run holds, most recently freed last.
    free: Vec<u32>,
    /// Blocks a run holds that were closed before they filled.
    closed_early: usize,
    /// A flush's run, gathered out of its blocks and sorted.
    scratch: Vec<WindowEntry>,
}

/// The reorder runs' block pool at one instant
/// ([`MeasurementPlane::window_pool`](super::MeasurementPlane::window_pool)).
/// Blocks in use are `blocks − free`: at least Σ ⌈[`pending`] /
/// `block_entries`⌉ over the taps, and at most that plus `closed_early`.
///
/// [`pending`]: super::MeasurementPlane::pending
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowPool {
    /// Entries per block.
    pub block_entries: usize,
    /// Blocks the pool has made — it never gives one back.
    pub blocks: usize,
    /// Of those, blocks no run holds.
    pub free: usize,
    /// Of those in use, blocks closed by an entry 2³² ns from their base.
    pub closed_early: usize,
}

/// `index` as a 32-bit block handle. Past 2³² a handle would wrap and
/// chain another run's block.
pub(super) fn block_index(index: usize) -> u32 {
    u32::try_from(index).expect("a window pool holds at most 2^32 blocks")
}

/// `len` as a run's 32-bit length, checked like [`block_index`].
pub(super) fn run_len(len: usize) -> u32 {
    u32::try_from(len).expect("a reorder run holds at most 2^32 - 1 entries")
}

/// Whether `at` lies in `[base, base + 2³²)`.
fn fits(base: u64, at: u64) -> bool {
    at.wrapping_sub(base) <= u32::MAX as u64
}

impl Runs {
    /// Chain an empty block based at `base` onto `run`'s tail — a free one
    /// if there is any — and return it. A tail left short is closed early.
    #[inline]
    fn chain(&mut self, run: &mut Run, base: u64) -> usize {
        let block = match self.free.pop() {
            Some(b) => b,
            None => {
                let b = block_index(self.next.len());
                self.next.push(0);
                self.base.push(0);
                self.held.push(0);
                self.entries
                    .resize(self.entries.len() + BLOCK, PoolEntry::default());
                b
            }
        };
        if run.len == 0 {
            run.head = block;
        } else {
            let tail = run.tail as usize;
            self.closed_early += usize::from((self.held[tail] as usize) < BLOCK);
            self.next[tail] = block;
        }
        run.tail = block;
        let b = block as usize;
        (self.base[b], self.held[b]) = (base, 0);
        b
    }

    /// Append `entry` to `run`, whose later entries are all at or above
    /// `floor` (the tap's flush bound).
    #[inline]
    pub(super) fn push(&mut self, run: &mut Run, floor: u64, entry: WindowEntry) {
        let len = run_len(run.len() + 1);
        let mut block = run.tail as usize;
        if run.len == 0 || self.held[block] as usize == BLOCK || !fits(self.base[block], entry.at) {
            block = self.chain(run, floor.max(entry.at.saturating_sub(1 << 31)));
        }
        let (off, rec) = ((entry.at - self.base[block]) as u32, entry.rec);
        let held = self.held[block];
        self.entries[block * BLOCK + held as usize] = PoolEntry { off, rec };
        self.held[block] = held + 1;
        run.len = len;
    }

    /// Empty `run`, handing each of its blocks' base and entries to `each`
    /// in run order before the block goes back to the free list.
    #[inline]
    pub(super) fn release(&mut self, run: &mut Run, mut each: impl FnMut(u64, &[PoolEntry])) {
        let mut left = run.len();
        let mut block = run.head;
        while left > 0 {
            let b = block as usize;
            let n = self.held[b] as usize;
            left -= n;
            self.closed_early -= usize::from(n < BLOCK && left > 0);
            each(self.base[b], &self.entries[b * BLOCK..][..n]);
            self.free.push(block);
            block = self.next[b];
        }
        run.len = 0;
    }

    /// Move `run`'s entries into the scratch, in run order, and free its
    /// blocks.
    pub(super) fn gather(&mut self, run: &mut Run) -> &mut [WindowEntry] {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        self.release(run, |base, entries| {
            let decoded = entries.iter().map(|e| (base + e.off as u64, e.rec));
            scratch.extend(decoded.map(|(at, rec)| WindowEntry { at, rec }))
        });
        self.scratch = scratch;
        &mut self.scratch
    }

    /// Give the empty `run` the sorted scratch from `from` on, a block at a
    /// time; every entry there is at or above `floor`.
    pub(super) fn refill(&mut self, run: &mut Run, from: usize, floor: u64) {
        debug_assert_eq!(run.len, 0);
        let mut at = from;
        while at < self.scratch.len() {
            let chunk = &self.scratch[at..self.scratch.len().min(at + BLOCK)];
            let base = floor.max(chunk[0].at.saturating_sub(1 << 31));
            // Sorted: the chunk fits if its last entry does; if not, the
            // block closes before the first entry that does not.
            let n = match fits(base, chunk[chunk.len() - 1].at) {
                true => chunk.len(),
                false => chunk.partition_point(|e| fits(base, e.at)),
            };
            let block = self.chain(run, base);
            let slots = &mut self.entries[block * BLOCK..][..n];
            for (slot, e) in slots.iter_mut().zip(&self.scratch[at..at + n]) {
                let off = (e.at - base) as u32;
                *slot = PoolEntry { off, rec: e.rec };
            }
            self.held[block] = n as u8;
            at += n;
            run.len = run_len(at - from);
        }
    }

    /// How the pool stands right now.
    pub(super) fn stats(&self) -> WindowPool {
        WindowPool {
            block_entries: BLOCK,
            blocks: self.next.len(),
            free: self.free.len(),
            closed_early: self.closed_early,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{records::*, tests::fk};
    use super::*;
    use rlir_net::time::SimTime;

    /// Records at positions straddling 2³¹ and 2³², the FIFO's base just
    /// below, named by entries alternately 2³³ ns apart (each closes its
    /// tail block): gathered, each resolves its record, time and truth bit.
    #[test]
    fn entries_resolve_records_across_two_to_the_31_and_32() {
        for pos in [1u64 << 31, 1 << 32] {
            let (mut records, mut runs, mut run) =
                (Records::default(), Runs::default(), Run::default());
            records.base = pos - 3;
            let mut want = Vec::new();
            for k in 0..6u64 {
                let rec = records.push_own(EventRecord::regular(k, k, &fk(1), SimTime::ZERO));
                let (at, scored) = ((k % 2) << 33 | k, k % 3 == 0);
                let entry = records.entry(SimTime::from_nanos(at), scored, rec);
                runs.push(&mut run, 0, entry);
                want.push((at, k, scored));
            }
            assert_eq!(runs.stats().closed_early, 5);
            let resolve = |e: &WindowEntry| (e.at, records.get(e).id, e.rec & ENTRY_HAS_TRUTH != 0);
            let got: Vec<_> = runs.gather(&mut run).iter().map(resolve).collect();
            assert_eq!(got, want);
        }
    }
}
