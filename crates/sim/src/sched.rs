//! The engine's event queue.
//!
//! The engine needs one operation pair — `push(at, tie, item)` /
//! `pop() → min by (at, tie)` — over one 24-byte entry whose `(at, tie)` is
//! compared as a single `u128`. The engine packs `(packet ordinal, hop
//! progress)` into the `tie` (`crate::shard`), a *partition-independent*
//! total order, so N shards draining their own queues reproduce exactly the
//! one-shard drain. Entries with equal `at` carry distinct ties.
//!
//! [`CalendarQueue`] is the one implementation: a calendar queue at the
//! fabric's grain ([`fabric_geometry`]) — buckets no wider than the
//! network's lookahead, a wheel that spans its longest residence. The
//! cursor follows the engine's clock ([`EventSchedule::peek_due`]), so
//! nothing handled in a bucket schedules into it: opening one swaps its
//! `Vec` in, sorts it once and pops from the end. A push at or behind the
//! open bucket anyway (a zero-latency link, a geometry too coarse for the
//! fabric) goes to a side heap, so correctness never rests on the bound;
//! [`SchedStats`] counts how often each path ran. [`EventSchedule`] is the
//! contract a test substitutes its oracle through:
//! `tests/scheduler_equivalence.rs` pins the calendar to a binary heap
//! (`tests/support/heap_oracle.rs`) on identical `(time, tie)` drain
//! orders, same-timestamp ties included.

use rlir_net::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled entry — 24 bytes around an 8-byte item (pinned where the
/// engine defines its item) — ordered by `(at, tie)`.
pub(crate) struct Entry<T> {
    at: u64,
    tie: u64,
    item: T,
}

impl<T> Entry<T> {
    /// `(at, tie)` as one word: the whole comparison is a `u128` compare.
    #[inline]
    fn key(&self) -> u128 {
        (self.at as u128) << 64 | self.tie as u128
    }

    fn unpack(self) -> (SimTime, u64, T) {
        (SimTime::from_nanos(self.at), self.tie, self.item)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Deterministic queue traffic counters — what the calendar's geometry is
/// judged by. A diagnostic like `hop_allocations`: it varies with the
/// shard count and is excluded from determinism digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Entries pushed.
    pub pushes: u64,
    /// Entries popped.
    pub pops: u64,
    /// Pushes at or behind the open bucket, which took the side heap: zero
    /// when the width is within the lookahead and the cursor on the clock.
    pub same_bucket_pushes: u64,
    /// Pushes beyond the wheel's span, parked in the overflow heap.
    pub overflow_pushes: u64,
    /// Buckets opened (swapped in and sorted).
    pub buckets_opened: u64,
    /// Most entries any bucket held when it was opened.
    pub longest_bucket: u64,
}

impl SchedStats {
    /// Fold another queue's counters in: counts add, `longest_bucket` maxes.
    pub fn absorb(&mut self, other: &SchedStats) {
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.same_bucket_pushes += other.same_bucket_pushes;
        self.overflow_pushes += other.overflow_pushes;
        self.buckets_opened += other.buckets_opened;
        self.longest_bucket = self.longest_bucket.max(other.longest_bucket);
    }
}

/// The queue contract of the event engine.
pub trait EventSchedule<T> {
    /// Schedule `item` at `at`, tied by push order: equal timestamps drain
    /// FIFO. One queue uses either this or [`Self::push_keyed`], not both.
    fn push(&mut self, at: SimTime, item: T) {
        self.push_keyed(at, self.stats().pushes, item);
    }
    /// Schedule `item` at `at` under a caller-chosen `tie`, distinct among
    /// entries with equal `at`.
    fn push_keyed(&mut self, at: SimTime, tie: u64, item: T);
    /// Remove and return the earliest entry (smallest `(at, tie)`).
    fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_keyed().map(|(at, _, item)| (at, item))
    }
    /// Remove and return the earliest entry together with its tie.
    fn pop_keyed(&mut self) -> Option<(SimTime, u64, T)>;
    /// Time and tie of the earliest entry if it is due at or before `now`,
    /// the time of the unit the caller handles next if nothing is (`&mut`:
    /// the calendar moves its cursor up to `now`, no further). The engine
    /// merges its time-sorted injection stream against this, so pending
    /// injections occupy no queue or slab space.
    fn peek_due(&mut self, now: SimTime) -> Option<(SimTime, u64)>;
    /// Number of scheduled entries.
    fn len(&self) -> usize;
    /// Whether the schedule is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Traffic counters so far.
    fn stats(&self) -> SchedStats;
}

/// Bucket width for a fabric that offers no lookahead to size it by:
/// 2¹⁰ ns ≈ 1 µs, about one MTU serialisation at 10 Gb/s.
const DEFAULT_BUCKET_NS_LOG2: u32 = 10;

/// Calendar geometry `(bucket_ns_log2, buckets_log2)` at a fabric's grain.
///
/// `lookahead_ns` is the minimum switch-to-switch link delay: every push
/// lands at least that far after the unit that made it, so a bucket of the
/// largest power of two ≤ it is never pushed into while it is drained
/// (1 µs links → 512 ns buckets). `residence_ns` is the longest a packet
/// stays at one hop (processing, deepest queue drain, link): a wheel
/// spanning it keeps pushes out of the overflow heap. Speed only — any
/// geometry drains in the same order. Clamped to [2⁶, 2³⁰] ns × [2⁶, 2¹⁶]
/// buckets; with no lookahead (no such link, or a zero-latency one) 2¹⁰ ns.
pub fn fabric_geometry(lookahead_ns: Option<u64>, residence_ns: u64) -> (u32, u32) {
    let width = match lookahead_ns {
        Some(l) if l > 0 => l.ilog2().clamp(6, 30),
        _ => DEFAULT_BUCKET_NS_LOG2,
    };
    // The residence in buckets, plus the open bucket and the partial one
    // at the far end; `clamp` before the power of two so it cannot overflow.
    let buckets = ((residence_ns >> width) + 2).clamp(1 << 6, 1 << 16);
    (width, buckets.next_power_of_two().ilog2())
}

/// Calendar queue keyed on [`SimTime`]: a wheel of fixed-width time buckets
/// sliding with the cursor, a heap for pushes beyond its span.
///
/// Bucket `b` covers `[b·width, (b+1)·width)`. The wheel holds the buckets
/// `(open, open + nbuckets)`, unordered; entries beyond wait in `overflow`
/// and move into the wheel as the cursor brings their bucket inside. The
/// bucket under the cursor is `active`, sorted descending and popped from
/// the end; pushes at or behind it go to `side`.
pub struct CalendarQueue<T> {
    /// Unordered entry lists of the buckets after `open`, indexed by
    /// bucket number mod the wheel size.
    wheel: Vec<Vec<Entry<T>>>,
    /// The open bucket's entries, sorted descending.
    active: Vec<Entry<T>>,
    /// Entries pushed at or behind the open bucket.
    side: BinaryHeap<Reverse<Entry<T>>>,
    /// Entries pushed `nbuckets` or more beyond the open bucket.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    /// Number of the open bucket (the cursor). Bucket 0 starts open.
    open: u64,
    /// Entries in `wheel`.
    in_wheel: usize,
    bucket_ns_log2: u32,
    stats: SchedStats,
}

impl<T> CalendarQueue<T> {
    /// An empty queue with `2^bucket_ns_log2` ns buckets and
    /// `2^buckets_log2` of them in the wheel.
    pub fn with_geometry(bucket_ns_log2: u32, buckets_log2: u32) -> Self {
        assert!(
            bucket_ns_log2 < 40 && buckets_log2 <= 20,
            "geometry too big"
        );
        CalendarQueue {
            wheel: (0..1usize << buckets_log2).map(|_| Vec::new()).collect(),
            active: Vec::new(),
            side: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            open: 0,
            in_wheel: 0,
            bucket_ns_log2,
            stats: SchedStats::default(),
        }
    }

    /// Wheel slot of bucket `b`.
    #[inline]
    fn slot(&self, b: u64) -> usize {
        (b & (self.wheel.len() as u64 - 1)) as usize
    }

    /// Move the cursor to bucket `b` — every bucket in `(open, b)` is
    /// empty — and bring in the overflow entries the wheel now covers (bucket
    /// `b`'s own among them, when the cursor jumps to the overflow minimum).
    fn advance(&mut self, b: u64) {
        self.open = b;
        let nbuckets = self.wheel.len() as u64;
        while let Some(Reverse(e)) = self.overflow.peek() {
            let eb = e.at >> self.bucket_ns_log2;
            if eb - b >= nbuckets {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked");
            let slot = self.slot(eb);
            self.wheel[slot].push(e);
            self.in_wheel += 1;
        }
    }

    /// Bring the earliest entry to the end of `active`, opening buckets up
    /// to number `limit` and no further; `false` when nothing is pending at
    /// or before it. An empty wheel jumps straight to the overflow minimum.
    fn settle(&mut self, limit: u64) -> bool {
        if let Some(Reverse(s)) = self.side.peek() {
            // Below everything in `active`: appending keeps it descending.
            if self.active.last().is_none_or(|a| s.key() < a.key()) {
                let Reverse(s) = self.side.pop().expect("peeked");
                self.active.push(s);
            }
        }
        if !self.active.is_empty() {
            return true;
        }
        if limit <= self.open {
            return false;
        }
        let next = if self.in_wheel > 0 {
            let mut b = self.open + 1;
            while b <= limit && self.wheel[self.slot(b)].is_empty() {
                b += 1;
            }
            b
        } else if let Some(Reverse(min)) = self.overflow.peek() {
            min.at >> self.bucket_ns_log2
        } else {
            return false;
        };
        // Nothing due leaves the cursor with the clock, in bucket `limit`.
        self.advance(next.min(limit));
        if next > limit {
            return false;
        }
        let slot = self.slot(next);
        // `active` is empty: the swap hands its capacity to the slot.
        std::mem::swap(&mut self.active, &mut self.wheel[slot]);
        self.in_wheel -= self.active.len();
        self.active.sort_unstable_by_key(|e| Reverse(e.key()));
        self.stats.buckets_opened += 1;
        self.stats.longest_bucket = self.stats.longest_bucket.max(self.active.len() as u64);
        true
    }
}

impl<T> EventSchedule<T> for CalendarQueue<T> {
    fn push_keyed(&mut self, at: SimTime, tie: u64, item: T) {
        let at = at.as_nanos();
        let e = Entry { at, tie, item };
        self.stats.pushes += 1;
        let b = at >> self.bucket_ns_log2;
        if b <= self.open {
            self.stats.same_bucket_pushes += 1;
            self.side.push(Reverse(e));
        } else if b - self.open < self.wheel.len() as u64 {
            let slot = self.slot(b);
            self.wheel[slot].push(e);
            self.in_wheel += 1;
        } else {
            self.stats.overflow_pushes += 1;
            self.overflow.push(Reverse(e));
        }
    }

    fn pop_keyed(&mut self) -> Option<(SimTime, u64, T)> {
        self.settle(u64::MAX)
            .then(|| self.active.pop().expect("settled").unpack())
    }

    fn peek_due(&mut self, now: SimTime) -> Option<(SimTime, u64)> {
        let now = now.as_nanos();
        let settled = self.settle(now >> self.bucket_ns_log2);
        let e = settled.then(|| self.active.last()).flatten()?;
        (e.at <= now).then_some((SimTime::from_nanos(e.at), e.tie))
    }

    fn len(&self) -> usize {
        self.in_wheel + self.active.len() + self.side.len() + self.overflow.len()
    }

    fn stats(&self) -> SchedStats {
        SchedStats {
            pops: self.stats.pushes - self.len() as u64,
            ..self.stats
        }
    }
}

#[cfg(test)]
#[path = "../../../tests/support/heap_oracle.rs"]
mod heap_oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(t: u64) -> SimTime {
        SimTime::from_nanos(t)
    }

    /// Drain a schedule fully, returning `(time, payload)` pairs.
    fn drain(s: &mut impl EventSchedule<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, v)) = s.pop() {
            out.push((at.as_nanos(), v));
        }
        out
    }

    type Drained = Vec<(u64, u32)>;

    /// The same pushes through the heap and through `cal`, both drained.
    fn both_with(mut cal: CalendarQueue<u32>, pushes: &[(u64, u32)]) -> (Drained, Drained) {
        let mut heap = heap_oracle::new();
        for &(t, v) in pushes {
            heap.push(ns(t), v);
            cal.push(ns(t), v);
        }
        (drain(&mut heap), drain(&mut cal))
    }

    fn both(pushes: &[(u64, u32)]) -> (Drained, Drained) {
        both_with(CalendarQueue::with_geometry(10, 10), pushes)
    }

    #[test]
    fn drains_in_time_then_push_order() {
        let (h, c) = both(&[(50, 0), (10, 1), (50, 2), (10, 3), (0, 4)]);
        assert_eq!(h, vec![(0, 4), (10, 1), (10, 3), (50, 0), (50, 2)]);
        assert_eq!(h, c);
    }

    #[test]
    fn keyed_ties_drain_in_key_order_on_both_impls() {
        // Same timestamp, ties pushed out of order: the tie beats push
        // order, and survives the side heap (bucket 0 starts open), the
        // wheel and the overflow path.
        let pushes: &[(u64, u64, u32)] = &[
            (10, 7 << 20, 0),
            (10, 2 << 20 | 1, 1),
            (10, 2 << 20, 2),
            (5, 9 << 20 | 9, 3),
            (5_000, 7 << 20 | 1, 4),
            (5_000, 1 << 20, 5),
            (2_500_000, 8 << 20, 6),
            (2_500_000, 1 << 20 | 3, 7),
            (10, 3, 8),
        ];
        let mut heap = heap_oracle::new::<u32>();
        let mut cal: CalendarQueue<u32> = CalendarQueue::with_geometry(10, 10);
        let mut h = Vec::new();
        let mut c = Vec::new();
        for &(t, k, v) in pushes {
            heap.push_keyed(ns(t), k, v);
            cal.push_keyed(ns(t), k, v);
        }
        while let Some((at, k, v)) = heap.pop_keyed() {
            h.push((at.as_nanos(), k, v));
        }
        while let Some((at, k, v)) = cal.pop_keyed() {
            c.push((at.as_nanos(), k, v));
        }
        assert_eq!(h, c);
        let order: Vec<u32> = h.iter().map(|&(.., v)| v).collect();
        assert_eq!(order, vec![3, 8, 2, 1, 0, 5, 4, 7, 6]);
        let stats = cal.stats();
        assert_eq!((stats.pushes, stats.pops), (9, 9));
        assert_eq!(stats.same_bucket_pushes, 5);
        assert_eq!(stats.overflow_pushes, 2);
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        // The default wheel spans ~1 ms; push events many spans out.
        let pushes: Vec<(u64, u32)> = (0..100)
            .map(|i| ((i * 7_777_777) % 1_000_000_000, i as u32))
            .collect();
        let (h, c) = both(&pushes);
        assert_eq!(h, c);
        assert_eq!(h.len(), 100);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut cal: CalendarQueue<u32> = CalendarQueue::with_geometry(10, 10);
        let mut heap = heap_oracle::new::<u32>();
        // Seed both, then pop one / push two in lockstep (event-driven shape:
        // new events never precede the one just popped).
        for t in [5u64, 3, 9] {
            cal.push(ns(t), 0);
            heap.push(ns(t), 0);
        }
        let mut got = Vec::new();
        let mut next = 1u32;
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            let Some((t, v)) = a else { break };
            got.push((t.as_nanos(), v));
            if next <= 40 {
                // Two children per pop: one nearby, one far future.
                for dt in [17u64, 2_500_000] {
                    cal.push(ns(t.as_nanos() + dt), next);
                    heap.push(ns(t.as_nanos() + dt), next);
                    next += 1;
                }
            }
        }
        assert_eq!(got.len(), 43); // 3 seeds + 20 spawning pops × 2 children
        for w in got.windows(2) {
            assert!(w[0].0 <= w[1].0, "time went backwards: {w:?}");
        }
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut cal: CalendarQueue<u32> = CalendarQueue::with_geometry(10, 10);
        let mut heap = heap_oracle::new::<u32>();
        let end = ns(u64::MAX);
        assert_eq!(cal.peek_due(end), None);
        assert_eq!(heap.peek_due(end), None);
        // Spread over near buckets and the overflow path.
        for &(t, v) in &[(900u64, 1u32), (3, 2), (5_000_000, 3), (3, 4)] {
            cal.push(ns(t), v);
            heap.push(ns(t), v);
        }
        loop {
            let (pc, ph) = (cal.peek_due(end), heap.peek_due(end));
            assert_eq!(pc, ph);
            let (c, h) = (cal.pop_keyed(), heap.pop_keyed());
            assert_eq!(c, h);
            let Some((at, tie, _)) = c else { break };
            assert_eq!(pc, Some((at, tie)), "peek must name the popped entry");
        }
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut cal: CalendarQueue<u32> = CalendarQueue::with_geometry(10, 10);
        assert!(cal.is_empty());
        cal.push(ns(1), 1u32);
        cal.push(ns(5_000), 2);
        cal.push(ns(2_000_000_000), 3);
        assert_eq!(cal.len(), 3);
        cal.pop();
        assert_eq!(cal.len(), 2);
        cal.pop();
        cal.pop();
        assert!(cal.is_empty());
        assert!(cal.pop().is_none());
    }

    #[test]
    fn fabric_geometry_tracks_the_fabric() {
        // 1 µs links, 512 KiB at ~10 Gb/s: 512 ns buckets, 1024 of them
        // (≈ 524 µs) over the ≈ 423 µs residence.
        assert_eq!(fabric_geometry(Some(1_000), 423_400), (9, 10));
        // Width: the largest power of two ≤ the lookahead, exact powers
        // included, clamped at both ends.
        assert_eq!(fabric_geometry(Some(1_024), 423_400).0, 10);
        assert_eq!(fabric_geometry(Some(1_023), 423_400).0, 9);
        assert_eq!(fabric_geometry(Some(3), 423_400).0, 6);
        assert_eq!(fabric_geometry(Some(u64::MAX), 423_400).0, 30);
        // No lookahead evidence → the default width.
        for none in [None, Some(0)] {
            assert_eq!(fabric_geometry(none, 423_400).0, DEFAULT_BUCKET_NS_LOG2);
        }
        // Wheel: the residence in buckets, rounded up, clamped.
        assert_eq!(fabric_geometry(Some(1_000), 0).1, 6);
        assert_eq!(fabric_geometry(Some(1_000), 600_000).1, 11);
        assert_eq!(fabric_geometry(Some(1_000), u64::MAX).1, 16);
        // Every answer is a geometry `with_geometry` accepts.
        let (w, k) = fabric_geometry(Some(u64::MAX), u64::MAX);
        CalendarQueue::<u32>::with_geometry(w, k);
    }

    #[test]
    fn fabric_geometries_drain_like_the_heap() {
        // The same push sequence through fabric-derived geometries — right
        // for it, far too fine, far too coarse — drains like the heap.
        let pushes: Vec<(u64, u32)> = (0..300)
            .map(|i| ((i * 104_729) % 2_000_000, i as u32))
            .collect();
        for (lookahead, residence) in [
            (Some(1_000), 423_400),
            (Some(70), 10),
            (Some(u64::MAX), u64::MAX),
            (None, 0),
        ] {
            let (w, k) = fabric_geometry(lookahead, residence);
            let (h, c) = both_with(CalendarQueue::with_geometry(w, k), &pushes);
            assert_eq!(h, c, "lookahead {lookahead:?} residence {residence}");
        }
    }

    #[test]
    fn tiny_geometry_still_correct() {
        // 2-ns buckets, 4 in the wheel: everything exercises the overflow
        // and cursor-jump paths.
        let pushes: Vec<(u64, u32)> = (0..200).map(|i| ((i * 37) % 500, i as u32)).collect();
        let (h, c) = both_with(CalendarQueue::with_geometry(1, 2), &pushes);
        assert_eq!(h, c);
    }

    #[test]
    fn the_cursor_follows_the_clock() {
        // 512-ns buckets; every push lands ≥ 512 ns after the unit that
        // made it, and the caller merges an outside stream with `peek_due`.
        let mut cal: CalendarQueue<u32> = CalendarQueue::with_geometry(9, 10);
        cal.push(ns(100_000), 0);
        // The head is far ahead of the clock: not due, and the bucket that
        // holds it stays closed…
        assert_eq!(cal.peek_due(ns(1_000)), None);
        assert_eq!(cal.stats().buckets_opened, 0);
        // …so a push between the clock and the head takes the wheel.
        cal.push(ns(1_600), 1);
        assert_eq!(cal.peek_due(ns(1_500)), None);
        assert_eq!(cal.peek_due(ns(1_600)), Some((ns(1_600), 1)));
        assert_eq!(cal.pop(), Some((ns(1_600), 1)));
        assert_eq!(cal.stats().same_bucket_pushes, 0);
        // An unbounded peek moves the cursor to the head; a push behind it
        // then takes the side heap and still drains first.
        assert_eq!(cal.peek_due(ns(u64::MAX)), Some((ns(100_000), 0)));
        cal.push(ns(50_000), 2);
        assert_eq!(cal.stats().same_bucket_pushes, 1);
        assert_eq!(drain(&mut cal), vec![(50_000, 2), (100_000, 0)]);
        let stats = cal.stats();
        assert_eq!((stats.pushes, stats.pops), (3, 3));
        assert_eq!(stats.buckets_opened, 2);
        assert_eq!(stats.longest_bucket, 1);
        assert_eq!(stats.overflow_pushes, 0);
    }

    #[test]
    fn absorbed_counters_add_and_the_longest_bucket_is_a_max() {
        let mut a = SchedStats {
            pushes: 5,
            pops: 4,
            same_bucket_pushes: 1,
            overflow_pushes: 2,
            buckets_opened: 3,
            longest_bucket: 7,
        };
        a.absorb(&SchedStats {
            pushes: 10,
            pops: 10,
            same_bucket_pushes: 0,
            overflow_pushes: 1,
            buckets_opened: 6,
            longest_bucket: 4,
        });
        let sums = (a.pushes, a.pops, a.same_bucket_pushes, a.overflow_pushes);
        assert_eq!(sums, (15, 14, 1, 3));
        assert_eq!((a.buckets_opened, a.longest_bucket), (9, 7));
    }
}
