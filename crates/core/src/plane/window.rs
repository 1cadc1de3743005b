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
//! A run is one chain, front to back: an **older** sorted segment, a
//! **newer** sorted segment, then the arrivals since the last flush in
//! arrival order. A flush **gathers** only the arrivals into a scratch of
//! 16-byte [`WindowEntry`]s and stable-sorts them by `(at, tie, id)`, then
//! feeds everything below the bound as a three-way merge of the two
//! segments and the scratch, the segments read where they lie, in chunks
//! of [`FEED_CHUNK`]. The fed entries leave the front of the chain — the
//! fed slots of the head block stay until the rest of it goes — and the
//! unfed arrivals are appended where they were, as the newer segment; the
//! old newer segment becomes the older. A delivered-gated tap's older
//! segment always goes whole: its entries lie below the watermark they
//! were pushed at, and the bound passes that two flushes later. What an
//! older segment keeps past the bound — departures that ran ahead of the
//! watermark, a last hop's or a live egress tap's — is gathered again and
//! joins the unfed arrivals. So each entry is gathered, sorted and
//! re-encoded about once, where a flush that gathered its whole run
//! handled each about three times.

use std::cmp::Ordering;

/// Entry `rec`-word bits: the entry is scored — its record says since when
/// its truth runs; the entry is a reference's, so a flush can book a
/// regular without reading its record; and the record's stream position
/// modulo 2³⁰.
pub(super) const ENTRY_HAS_TRUTH: u32 = 1 << 31;
pub(super) const ENTRY_IS_REFERENCE: u32 = 1 << 30;
pub(super) const ENTRY_POSITION: u32 = ENTRY_IS_REFERENCE - 1;

/// A pending observation as a flush sorts and feeds it: when the tap saw
/// it, and which [`EventRecord`](super::records::EventRecord) says what it
/// was. Fed in ascending `(at, tie, packet id)` order — unique per tap.
#[derive(Clone, Copy, Default)]
pub(super) struct WindowEntry {
    pub(super) at: u64,
    /// The record's stream position modulo 2³⁰ (resolved against
    /// `Records::base`), the [`ENTRY_IS_REFERENCE`] bit and the
    /// [`ENTRY_HAS_TRUTH`] bit.
    pub(super) rec: u32,
}

impl WindowEntry {
    /// Whether the entry observed a reference (else a regular).
    #[inline]
    pub(super) fn is_reference(&self) -> bool {
        self.rec & ENTRY_IS_REFERENCE != 0
    }
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
/// the most a tap's tail block leaves unused — and, since a run keeps its
/// head block's fed slots until the rest of it goes, its head block too:
/// at 128 the two ends' slack cost the all-ports fat-tree ≈ 2 % of its
/// resident memory.
pub(super) const BLOCK: usize = 64;
const _: () = assert!(BLOCK <= u8::MAX as usize);

/// One tap's run: a chain of blocks, full but the tail and any closed
/// early, whose head block may start with slots a flush already fed. An
/// empty run holds no block; its `head` / `tail` mean nothing, and every
/// count is zero.
#[derive(Clone, Copy, Default)]
pub(super) struct Run {
    pub(super) head: u32,
    pub(super) tail: u32,
    pub(super) len: u32,
    /// Of `len`, the sorted entries at the front: the older segment's
    /// `older`, then the newer segment's. The arrivals follow them.
    pub(super) sorted: u32,
    pub(super) older: u32,
    /// Slots at the front of the head block that were fed.
    pub(super) fed: u8,
    /// The tail block's fill and base, as the pool has them: what a push
    /// reads, kept beside the rest of the tap's hot state.
    pub(super) tail_held: u8,
    pub(super) tail_base: u64,
}

impl Run {
    #[inline]
    pub(super) fn len(&self) -> usize {
        self.len as usize
    }
}

/// Where a run's `k`-th entry lies: a block and a slot in it.
#[derive(Clone, Copy)]
struct Cursor {
    block: u32,
    slot: u32,
}

/// A sorted segment of a run as a flush merges it: where its next entry
/// lies and how many are left.
struct Segment {
    at: Cursor,
    left: usize,
}

/// Most entries a flush hands its feed at a time: what the feed may look
/// ahead over.
pub(super) const FEED_CHUNK: usize = 32;

/// The plane-wide block pool every tap's [`Run`] lives in. A push that
/// does not fit its tail block's `[base, base + 2³²)` closes it early.
#[derive(Default)]
pub(super) struct Runs {
    /// Block `b` is `entries[b * BLOCK..][..held[b]]`.
    entries: Vec<PoolEntry>,
    /// Per block `b`: the block after it in its run's chain (stale once
    /// `b` is a tail or free), what its offsets count from (ns), and how
    /// many slots it has written (fed ones included).
    next: Vec<u32>,
    base: Vec<u64>,
    held: Vec<u8>,
    /// Blocks no run holds, most recently freed last.
    free: Vec<u32>,
    /// Blocks a run holds that were closed before they filled.
    closed_early: usize,
    /// A flush's arrivals, gathered out of their blocks and sorted.
    scratch: Vec<WindowEntry>,
    /// Entries flushes gathered into the scratch, and entries they fed.
    gathered: u64,
    flushed: u64,
}

/// The reorder runs' block pool at one instant
/// ([`MeasurementPlane::window_pool`](super::MeasurementPlane::window_pool)).
/// Blocks in use are `blocks − free`: Σ
/// [`run_blocks`](super::MeasurementPlane::run_blocks) over the taps, each
/// at least ⌈[`pending`] / `block_entries`⌉ and at most one more — its head
/// block's fed slots — plus the blocks it closed early.
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
    /// Entries flushes took out of the pool to sort: each arrival once, and
    /// an older segment's entries again when they outlive the flush.
    pub gathered: u64,
    /// Entries flushes fed to their taps' receivers.
    pub flushed: u64,
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
            (run.head, run.fed) = (block, 0);
        } else {
            let tail = run.tail as usize;
            self.closed_early += usize::from((self.held[tail] as usize) < BLOCK);
            self.next[tail] = block;
        }
        (run.tail, run.tail_held, run.tail_base) = (block, 0, base);
        let b = block as usize;
        (self.base[b], self.held[b]) = (base, 0);
        b
    }

    /// Give block `b` of `run` back to the free list; a block short of
    /// full that is not `run`'s tail was closed early.
    fn free_block(&mut self, run: &Run, b: u32) {
        let short = (self.held[b as usize] as usize) < BLOCK;
        self.closed_early -= usize::from(short && b != run.tail);
        self.free.push(b);
    }

    /// Append `entry` to `run`, whose later entries are all at or above
    /// `floor` (the tap's flush bound).
    #[inline]
    pub(super) fn push(&mut self, run: &mut Run, floor: u64, entry: WindowEntry) {
        let len = run_len(run.len() + 1);
        if run.len == 0 || run.tail_held as usize == BLOCK || !fits(run.tail_base, entry.at) {
            self.chain(run, floor.max(entry.at.saturating_sub(1 << 31)));
        }
        let (block, held) = (run.tail as usize, run.tail_held);
        debug_assert_eq!((held, run.tail_base), (self.held[block], self.base[block]));
        let (off, rec) = ((entry.at - run.tail_base) as u32, entry.rec);
        self.entries[block * BLOCK + held as usize] = PoolEntry { off, rec };
        (run.tail_held, self.held[block]) = (held + 1, held + 1);
        run.len = len;
    }

    /// Append the sorted `entries`, all at or above `floor`, to `run`'s
    /// tail a block at a time.
    fn extend(&mut self, run: &mut Run, floor: u64, entries: &[WindowEntry]) {
        let mut at = 0;
        while at < entries.len() {
            let first = entries[at].at;
            if run.len == 0 || run.tail_held as usize == BLOCK || !fits(run.tail_base, first) {
                self.chain(run, floor.max(first.saturating_sub(1 << 31)));
            }
            let (block, base, held) = (run.tail as usize, run.tail_base, run.tail_held as usize);
            let chunk = &entries[at..entries.len().min(at + BLOCK - held)];
            // Sorted from an entry that fits: the chunk fits if its last
            // entry does; if not, the block closes before the first entry
            // that does not.
            let n = match fits(base, chunk[chunk.len() - 1].at) {
                true => chunk.len(),
                false => chunk.partition_point(|e| fits(base, e.at)),
            };
            let slots = &mut self.entries[block * BLOCK + held..][..n];
            for (slot, e) in slots.iter_mut().zip(&chunk[..n]) {
                *slot = PoolEntry {
                    off: (e.at - base) as u32,
                    rec: e.rec,
                };
            }
            (run.tail_held, self.held[block]) = ((held + n) as u8, (held + n) as u8);
            at += n;
            run.len = run_len(run.len() + n);
        }
    }

    /// Where `run`'s `k`-th entry lies (`k < run.len`).
    fn cursor(&self, run: &Run, k: usize) -> Cursor {
        let mut c = Cursor {
            block: run.head,
            slot: run.fed as u32,
        };
        self.skip(&mut c, k);
        c
    }

    /// Move `c` `n` entries further along its chain.
    #[inline]
    fn skip(&self, c: &mut Cursor, mut n: usize) {
        loop {
            let left = (self.held[c.block as usize] as u32 - c.slot) as usize;
            if n < left {
                c.slot += n as u32;
                return;
            }
            n -= left;
            (c.block, c.slot) = (self.next[c.block as usize], 0);
        }
    }

    /// The entry at `c`.
    #[inline]
    fn read(&self, c: Cursor) -> WindowEntry {
        let b = c.block as usize;
        let e = self.entries[b * BLOCK + c.slot as usize];
        WindowEntry {
            at: self.base[b] + e.off as u64,
            rec: e.rec,
        }
    }

    /// Move `run`'s entries from the `keep`-th on into `out`, in run order,
    /// and free the blocks they leave empty.
    fn split_off(&mut self, run: &mut Run, keep: usize, out: &mut Vec<WindowEntry>) {
        let mut left = run.len() - keep;
        if left == 0 {
            return;
        }
        // The block the kept entries end in, which becomes the tail, and
        // where the entries to move start.
        let (last, mut c) = match keep {
            0 => (None, self.cursor(run, 0)),
            _ => {
                let c = self.cursor(run, keep - 1);
                (
                    Some(c.block),
                    Cursor {
                        slot: c.slot + 1,
                        ..c
                    },
                )
            }
        };
        loop {
            let b = c.block as usize;
            let (slot, held) = (c.slot as usize, self.held[b] as usize);
            let base = self.base[b];
            let moved = self.entries[b * BLOCK..][slot..held].iter();
            out.extend(moved.map(|e| WindowEntry {
                at: base + e.off as u64,
                rec: e.rec,
            }));
            left -= held - slot;
            let next = self.next[b];
            if Some(c.block) == last {
                self.closed_early -= usize::from(held < BLOCK && c.block != run.tail);
                self.held[b] = slot as u8;
            } else {
                self.free_block(run, c.block);
            }
            if left == 0 {
                break;
            }
            c = Cursor {
                block: next,
                slot: 0,
            };
        }
        match last {
            None => *run = Run::default(),
            Some(tail) => {
                let t = tail as usize;
                (run.tail, run.tail_held, run.tail_base) = (tail, self.held[t], self.base[t]);
                run.len = run_len(keep);
            }
        }
    }

    /// Drop `n` fed entries off the front of `run`.
    fn pop_front(&mut self, run: &mut Run, mut n: usize) {
        while n > 0 {
            let b = run.head;
            let left = self.held[b as usize] as usize - run.fed as usize;
            if n < left {
                run.fed += n as u8;
                run.len -= n as u32;
                return;
            }
            n -= left;
            run.len -= left as u32;
            self.free_block(run, b);
            (run.head, run.fed) = (self.next[b as usize], 0);
        }
        if run.len == 0 {
            *run = Run::default();
        }
    }

    /// Empty `run` and give its blocks back.
    pub(super) fn clear(&mut self, run: &mut Run) {
        let n = run.len();
        self.pop_front(run, n);
    }

    /// Feed `feed` every entry of `run` strictly below `bound` (`None`:
    /// all of them) in `cmp` order, in chunks of at most [`FEED_CHUNK`],
    /// keep the rest and return how many were fed; the entries kept are all
    /// at or above `floor`. See the module docs for the run's layout.
    pub(super) fn flush(
        &mut self,
        run: &mut Run,
        floor: u64,
        bound: Option<u64>,
        cmp: impl Fn(&WindowEntry, &WindowEntry) -> Ordering,
        mut feed: impl FnMut(&[WindowEntry]),
    ) -> usize {
        let below = |e: &WindowEntry| bound.is_none_or(|b| e.at < b);
        let (older, newer) = (run.older as usize, (run.sorted - run.older) as usize);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        self.split_off(run, run.sorted as usize, &mut scratch);
        self.gathered += scratch.len() as u64;
        // Stable on purpose, though keys are unique: arrivals come in
        // near-order, which the merge sort's run detection finishes in
        // about one pass.
        scratch.sort_by(&cmp);
        let fresh = scratch.partition_point(below);

        // The three-way merge of the two sorted segments and the sorted
        // arrivals: each source's head while it is below the bound.
        let mut segments = [(older, 0), (newer, older)].map(|(left, from)| Segment {
            at: match left {
                0 => Cursor { block: 0, slot: 0 },
                _ => self.cursor(run, from),
            },
            left,
        });
        let arrivals = &scratch[..fresh];
        let mut heads = [
            self.head(&segments[0]).filter(below),
            self.head(&segments[1]).filter(below),
            arrivals.first().copied(),
        ];
        let (mut chunk, mut n, mut i) = ([WindowEntry::default(); FEED_CHUNK], 0, 0);
        let least = |heads: &[Option<WindowEntry>; 3], skip: usize| {
            let mut least: Option<(usize, WindowEntry)> = None;
            for (k, head) in heads.iter().enumerate() {
                if let Some(e) = head.filter(|_| k != skip) {
                    if least.is_none_or(|(_, m)| cmp(&e, &m).is_lt()) {
                        least = Some((k, e));
                    }
                }
            }
            least
        };
        // A run at a time from the source with the least head, while its
        // head stays below every other source's.
        while let Some((k, _)) = least(&heads, usize::MAX) {
            let other = least(&heads, k).map(|(_, e)| e);
            while let Some(e) = heads[k] {
                if other.is_some_and(|o| cmp(&e, &o).is_gt()) {
                    break;
                }
                chunk[n] = e;
                n += 1;
                if n == FEED_CHUNK {
                    feed(&chunk);
                    n = 0;
                }
                heads[k] = match k {
                    2 => {
                        i += 1;
                        arrivals.get(i).copied()
                    }
                    _ => {
                        self.advance(&mut segments[k]);
                        self.head(&segments[k]).filter(below)
                    }
                };
            }
        }
        if n > 0 {
            feed(&chunk[..n]);
        }
        // What the older segment keeps past the bound — departures that ran
        // ahead of the watermark — joins the arrivals' rest; the newer
        // segment's rest becomes the older.
        let [kept_older, kept_newer] = segments.each_ref().map(|s| s.left);
        if kept_older > 0 {
            self.copy(segments[0].at, kept_older, &mut scratch);
            self.gathered += kept_older as u64;
            scratch[fresh..].sort_by(&cmp);
        }
        self.pop_front(run, older + newer - kept_newer);
        self.extend(run, floor, &scratch[fresh..]);
        (run.older, run.sorted) = (run_len(kept_newer), run.len);
        self.scratch = scratch;
        let fed = older - kept_older + newer - kept_newer + fresh;
        self.flushed += fed as u64;
        fed
    }

    /// Append the `n` entries from `c` on to `out`.
    fn copy(&self, mut c: Cursor, n: usize, out: &mut Vec<WindowEntry>) {
        for k in 0..n {
            if k > 0 {
                self.skip(&mut c, 1);
            }
            out.push(self.read(c));
        }
    }

    /// The next entry of `segment`, if any is left.
    #[inline]
    fn head(&self, segment: &Segment) -> Option<WindowEntry> {
        (segment.left > 0).then(|| self.read(segment.at))
    }

    /// Step past `segment`'s head.
    #[inline]
    fn advance(&self, segment: &mut Segment) {
        segment.left -= 1;
        if segment.left > 0 {
            self.skip(&mut segment.at, 1);
        }
    }

    /// Blocks `run` holds, counted along its chain.
    pub(super) fn blocks(&self, run: &Run) -> usize {
        let (mut left, mut blocks) = (run.len(), 0);
        let mut c = Cursor {
            block: run.head,
            slot: run.fed as u32,
        };
        while left > 0 {
            let b = c.block as usize;
            left -= left.min(self.held[b] as usize - c.slot as usize);
            blocks += 1;
            c = Cursor {
                block: self.next[b],
                slot: 0,
            };
        }
        blocks
    }

    /// How the pool stands right now.
    pub(super) fn stats(&self) -> WindowPool {
        WindowPool {
            block_entries: BLOCK,
            blocks: self.next.len(),
            free: self.free.len(),
            closed_early: self.closed_early,
            gathered: self.gathered,
            flushed: self.flushed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{records::*, tests::fk};
    use super::*;
    use rlir_net::time::SimTime;

    /// Records at positions straddling 2³⁰, 2³¹ and 2³², the FIFO's base just
    /// below, named by entries alternately 2³³ ns apart (each closes its
    /// tail block): flushed, each resolves its record, time and truth bit.
    #[test]
    fn entries_resolve_records_across_two_to_the_31_and_32() {
        for pos in [1u64 << 30, 1 << 31, 1 << 32] {
            let (mut records, mut runs, mut run) =
                (Records::default(), Runs::default(), Run::default());
            records.base = pos - 3;
            let mut want = Vec::new();
            for k in 0..6u64 {
                let rec = records.push_own(EventRecord::regular(k, k, &fk(1), SimTime::ZERO));
                let (at, scored) = ((k % 2) << 33 | k, k % 3 == 0);
                let flags = if scored { ENTRY_HAS_TRUTH } else { 0 };
                let entry = records.entry(SimTime::from_nanos(at), flags, rec);
                runs.push(&mut run, 0, entry);
                want.push((at, k, scored));
            }
            assert_eq!(runs.stats().closed_early, 5);
            let resolve = |e: &WindowEntry| (e.at, records.get(e).id, e.rec & ENTRY_HAS_TRUTH != 0);
            let mut got = Vec::new();
            let by_arrival =
                |a: &WindowEntry, b: &WindowEntry| records.get(a).id.cmp(&records.get(b).id);
            runs.flush(&mut run, 0, None, by_arrival, |c| {
                got.extend(c.iter().map(resolve))
            });
            assert_eq!(got, want);
            assert_eq!((run.len(), runs.stats().closed_early), (0, 0));
        }
    }

    /// Sorted segments fed in place, arrivals merged in, the fed slots of
    /// the head block kept until the rest of it goes: every flush feeds
    /// the `(at)` order and keeps the chain dense, and an entry is
    /// gathered once unless it sits in the older segment past the bound
    /// (each round's last arrival lies 800 ns ahead of the rest).
    #[test]
    fn flushes_merge_the_sorted_segments_with_the_arrivals_once() {
        let (mut runs, mut run) = (Runs::default(), Run::default());
        let by_at = |a: &WindowEntry, b: &WindowEntry| (a.at, a.rec).cmp(&(b.at, b.rec));
        let (mut fed, mut pushed) = (Vec::new(), 0u32);
        let mut floor = 0;
        for round in 0..6u64 {
            // 300 arrivals over [floor, floor + 600), in a shuffled order,
            // and one at floor + 1 400.
            for k in 0..301u64 {
                let at = if k == 300 {
                    floor + 1_400
                } else {
                    floor + (k * 7 % 300) * 2
                };
                runs.push(&mut run, floor, WindowEntry { at, rec: pushed });
                pushed += 1;
            }
            let bound = floor + 200 + round * 10;
            let before = fed.len();
            runs.flush(&mut run, bound, Some(bound), by_at, |c| {
                fed.extend(c.iter().map(|e| e.at))
            });
            assert!(fed[before..].iter().all(|&at| at < bound));
            assert!(fed.windows(2).all(|w| w[0] <= w[1]), "round {round}");
            assert_eq!(
                runs.blocks(&run),
                (run.fed as usize + run.len()).div_ceil(BLOCK)
            );
            assert_eq!(runs.stats().blocks - runs.stats().free, runs.blocks(&run));
            floor = bound;
        }
        // A far arrival is the older segment's every second flush, and
        // gathered again each time it is still past the bound: rounds 0
        // and 1's twice, rounds 2 and 3's once.
        assert_eq!(runs.stats().gathered, pushed as u64 + 6);
        runs.flush(&mut run, floor, None, by_at, |c| {
            fed.extend(c.iter().map(|e| e.at))
        });
        assert_eq!(
            (fed.len(), runs.stats().flushed),
            (pushed as usize, pushed as u64)
        );
        assert_eq!(runs.stats().free, runs.stats().blocks);
    }
}
