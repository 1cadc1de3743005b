//! The reorder runs: one block pool for every tap's pending observations.
//!
//! Every run lives in one plane-wide **block pool** ([`Runs`]): a block is
//! [`BLOCK`] consecutive entries of one entry array, blocks chain through a
//! parallel `next` array, and freed blocks are reused (LIFO) before the pool
//! grows. A tap holds a 12-byte handle `{head, tail, len}`, so a run of
//! `len` entries holds ⌈len / BLOCK⌉ blocks; the slack is one tail block a
//! tap and the flush scratch. A burst takes the blocks another tap's flush
//! just freed, so the pool holds the peak of the *sum* of the runs.
//!
//! A flush **gathers** the run block by block into the shared scratch,
//! frees the blocks, stable-sorts by `(at, tie, id)`, feeds the prefix
//! below the bound and **refills** a fresh chain with the suffix. Chain
//! order is the run's own — the sorted suffix, then arrivals in near-order
//! — so the sort's run detection finishes in about one merge pass.

/// Entry `rec`-word bit: the entry is scored — its record says since when
/// its truth runs.
pub(super) const ENTRY_HAS_TRUTH: u64 = 1 << 63;

/// One tap's pending observation of an event: when the tap saw it, and
/// which [`EventRecord`](super::records::EventRecord) says what it was and
/// since when its truth runs. Two words: fed in ascending
/// `(at, tie, packet id)` order — unique per tap, and the exact total
/// order a whole-run sort produces.
#[derive(Clone, Copy, Default)]
pub(super) struct WindowEntry {
    pub(super) at: u64,
    /// The record's position in the plane's stream of records, and the
    /// [`ENTRY_HAS_TRUTH`] bit.
    pub(super) rec: u64,
}

// What `plane.bytes_per_pending` and the 1.5-window bound on a run's
// footprint are quoted against.
const _: () = assert!(std::mem::size_of::<WindowEntry>() == 16);

/// Entries per pool block: what a burst takes from the pool at a time, and
/// the most a tap's tail block leaves unused.
pub(super) const BLOCK: usize = 128;

/// One tap's reorder run in the pool: entry `i` is entry `i % BLOCK` of
/// the chain's `i / BLOCK`-th block. An empty run holds no block, and its
/// `head` / `tail` mean nothing.
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

/// The plane-wide block pool every tap's [`Run`] lives in.
#[derive(Default)]
pub(super) struct Runs {
    /// Block `b` is `entries[b * BLOCK..][..BLOCK]`.
    entries: Vec<WindowEntry>,
    /// The block after block `b` in its run's chain (stale once `b` is a
    /// run's tail or free: a run's length says where its chain ends).
    next: Vec<u32>,
    /// Blocks no run holds, most recently freed last.
    free: Vec<u32>,
    /// A flush's run, gathered out of its blocks and sorted.
    scratch: Vec<WindowEntry>,
}

/// The reorder runs' block pool at one instant
/// ([`MeasurementPlane::window_pool`](super::MeasurementPlane::window_pool)).
/// Blocks in use are `blocks − free`, and equal Σ ⌈[`pending`] /
/// `block_entries`⌉ over the taps.
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

impl Runs {
    /// Chain a block onto `run`'s tail — a free one if there is any — and
    /// return where its first entry goes.
    #[inline]
    fn chain(&mut self, run: &mut Run) -> usize {
        let block = match self.free.pop() {
            Some(b) => b,
            None => {
                let b = block_index(self.next.len());
                self.next.push(0);
                self.entries
                    .resize(self.entries.len() + BLOCK, WindowEntry::default());
                b
            }
        };
        if run.len == 0 {
            run.head = block;
        } else {
            self.next[run.tail as usize] = block;
        }
        run.tail = block;
        block as usize * BLOCK
    }

    /// Append `entry` to `run`.
    #[inline]
    pub(super) fn push(&mut self, run: &mut Run, entry: WindowEntry) {
        let len = run_len(run.len() + 1);
        let at = run.len() % BLOCK;
        let base = if at == 0 {
            self.chain(run)
        } else {
            run.tail as usize * BLOCK
        };
        self.entries[base + at] = entry;
        run.len = len;
    }

    /// Empty `run`, handing each of its blocks' entries to `each` in run
    /// order before the block goes back to the free list.
    #[inline]
    pub(super) fn release(&mut self, run: &mut Run, mut each: impl FnMut(&[WindowEntry])) {
        let mut left = run.len();
        let mut block = run.head;
        while left > 0 {
            let n = left.min(BLOCK);
            let base = block as usize * BLOCK;
            each(&self.entries[base..base + n]);
            self.free.push(block);
            left -= n;
            block = self.next[block as usize];
        }
        run.len = 0;
    }

    /// Move `run`'s entries into the scratch, in run order, and free its
    /// blocks.
    pub(super) fn gather(&mut self, run: &mut Run) -> &mut [WindowEntry] {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        self.release(run, |entries| scratch.extend_from_slice(entries));
        self.scratch = scratch;
        &mut self.scratch
    }

    /// Give the empty `run` the scratch from `from` on, block by block.
    pub(super) fn refill(&mut self, run: &mut Run, from: usize) {
        debug_assert_eq!(run.len, 0);
        let mut at = from;
        while at < self.scratch.len() {
            let n = (self.scratch.len() - at).min(BLOCK);
            let base = self.chain(run);
            self.entries[base..base + n].copy_from_slice(&self.scratch[at..at + n]);
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
        }
    }
}
