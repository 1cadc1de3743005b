//! Per-flow latency aggregation.
//!
//! "Obtaining per-flow measurements now is just a matter of aggregating
//! latency estimates across packets that share a given flow key" (§2). The
//! [`FlowTable`] accumulates, per flow, both the *estimated* delays produced
//! by interpolation and the *true* delays from simulator ground truth, and
//! derives exactly the two per-flow quantities the paper evaluates: mean
//! (Fig. 4a/4c) and standard deviation (Fig. 4b), each with its relative
//! error. A table built [`with_quantile`](FlowTable::with_quantile) also
//! reports each flow's nearest-rank tail quantile from its four largest
//! delays a side: exact while the flow has fewer than `4 / (1 − p)` delays
//! (399 for p99), the fourth largest — an upper bound — after.

use rlir_net::fxhash::FxBuildHasher;
use rlir_net::FlowKey;
use rlir_stats::{relative_error, FewStats, LargestFour, StreamingStats};
use serde::{Deserialize, Serialize};
use std::hash::BuildHasher;

/// Estimated and true delay moments for one flow, as
/// [`FlowTable::get`] materialises them from the flow's row.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowAccumulator {
    /// Interpolated (estimated) per-packet delays.
    pub est: StreamingStats,
    /// Ground-truth per-packet delays (absent in a real deployment; present
    /// in simulation for evaluation).
    pub truth: StreamingStats,
}

/// What a table keeps per flow (96 bytes): the key and one 40-byte
/// accumulator per side, each holding its first four delays as they came
/// and moments from the fifth on.
#[derive(Debug, Clone)]
struct Row {
    key: FlowKey,
    /// Interpolated (estimated) per-packet delays.
    est: FewStats,
    /// Ground-truth per-packet delays; never more of them than estimates.
    truth: FewStats,
}

/// A flow's tail from its fifth estimate on (64 bytes): its four largest
/// delays a side, which answer the nearest-rank `p`-quantile exactly while
/// the flow has fewer than `4 / (1 − p)` of them and bound it from above
/// after ([`LargestFour::nearest_rank`]).
#[derive(Debug, Clone, Copy, Default)]
struct FlowTails {
    /// Largest estimated delays.
    est: LargestFour,
    /// Largest true delays.
    truth: LargestFour,
}

impl FlowTails {
    /// The tail of a young row: its samples.
    fn of_young(row: &Row) -> FlowTails {
        fn fed(side: &FewStats) -> LargestFour {
            let mut top = LargestFour::new();
            let few = side.few().expect("a young row holds its samples");
            few.iter().for_each(|&x| top.push(x));
            top
        }
        FlowTails {
            est: fed(&row.est),
            truth: fed(&row.truth),
        }
    }

    fn push(&mut self, est: f64, truth: Option<f64>) {
        self.est.push(est);
        if let Some(t) = truth {
            self.truth.push(t);
        }
    }
}

/// Reference of a row that is its own tail: both of its sides still hold
/// their delays as they came ([`FewStats::few`]), at most four estimates.
const YOUNG: u32 = u32::MAX;

/// `index` as a 32-bit reference, unless it is the sentinel or past it.
fn reference(index: usize) -> Option<u32> {
    u32::try_from(index).ok().filter(|&r| r < YOUNG)
}

/// The slot of row `index`, as the index cells and the report's slot list
/// hold it. A table is bounded at 2³² − 1 flows: past that a slot would
/// read as the sentinel, or wrap and share a row with another flow.
fn row_slot(index: usize) -> u32 {
    reference(index).expect("a flow table holds at most 2^32 - 1 flows")
}

const _: () = {
    use std::mem::size_of;
    assert!(size_of::<Row>() == 96);
    assert!(size_of::<FlowTails>() == 64);
};

/// The tails of a table built [`with_quantile`](FlowTable::with_quantile):
/// one 32-bit reference per row. Empty in any other table.
#[derive(Debug, Clone, Default)]
struct TailStore {
    /// `refs[slot]` names the tail of `rows[slot]`: a `grown` index or
    /// [`YOUNG`]. A row is young exactly while it has at most four
    /// estimates.
    refs: Vec<u32>,
    grown: Vec<FlowTails>,
}

impl TailStore {
    /// Store `tails`; its reference.
    fn add_grown(&mut self, tails: FlowTails) -> u32 {
        let i = reference(self.grown.len()).expect("more tails than a table has rows");
        self.grown.push(tails);
        i
    }

    /// The 64-byte tail of `rows[slot]`, unless the row is its own (or the
    /// table keeps no tails).
    fn grown(&self, slot: usize) -> Option<FlowTails> {
        match self.refs.get(slot) {
            Some(&i) if i != YOUNG => Some(self.grown[i as usize]),
            _ => None,
        }
    }

    /// The tail of `rows[slot]`.
    fn tails(&self, slot: usize, row: &Row) -> FlowTails {
        self.grown(slot).unwrap_or_else(|| FlowTails::of_young(row))
    }

    /// Push one estimate (and its truth) onto the tail of `rows[slot]`,
    /// *before* `row` itself takes them. A young row needs nothing until
    /// its fifth estimate, which seeds the tail from its samples.
    #[inline]
    fn push(&mut self, slot: usize, row: &Row, est: f64, truth: Option<f64>) {
        match self.refs[slot] {
            // The row itself takes the sample.
            YOUNG if row.est.count() < FewStats::FEW as u64 => {}
            YOUNG => {
                let mut tails = FlowTails::of_young(row);
                tails.push(est, truth);
                self.refs[slot] = self.add_grown(tails);
            }
            i => self.grown[i as usize].push(est, truth),
        }
    }

    /// Fold the tail of the same flow's row `other` — `theirs`, or its
    /// samples — into the tail of `rows[slot]`, *before* the rows
    /// themselves merge. Two young rows that stay within four estimates
    /// together merge their samples, and stay young.
    fn merge(&mut self, slot: usize, ours: &Row, other: &Row, theirs: Option<FlowTails>) {
        if ours.est.count() + other.est.count() <= FewStats::FEW as u64 {
            return;
        }
        let theirs = theirs.unwrap_or_else(|| FlowTails::of_young(other));
        let mut tails = self.tails(slot, ours);
        tails.est.merge(&theirs.est);
        tails.truth.merge(&theirs.truth);
        match self.refs[slot] {
            YOUNG => self.refs[slot] = self.add_grown(tails),
            i => self.grown[i as usize] = tails,
        }
    }

    /// The `(estimated, true)` `p`-quantiles of `rows[slot]`, and whether
    /// either is only an upper bound.
    fn estimates(&self, slot: usize, p: f64, row: &Row) -> (Option<f64>, Option<f64>, bool) {
        let tails = self.tails(slot, row);
        let est = tails.est.nearest_rank(p, row.est.count());
        let truth = tails.truth.nearest_rank(p, row.truth.count());
        let bound = [est, truth].iter().flatten().any(|&(_, exact)| !exact);
        (est.map(|(x, _)| x), truth.map(|(x, _)| x), bound)
    }

    /// Allocated capacity × element size over every vector of the store.
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.refs.capacity() * size_of::<u32>() + self.grown.capacity() * size_of::<FlowTails>()
    }
}

/// A cell no row is in: no slot is `u32::MAX` ([`row_slot`]).
const EMPTY: u64 = u64::MAX;
/// Cells of the smallest index that is not empty.
const MIN_CELLS: usize = 8;

/// Which row holds a key, without the key: open addressing over 8-byte
/// cells of `hash32 << 32 | slot`, probed linearly from the cell the top
/// bits of `hash32` name. A look-up compares the 32 stored hash bits first
/// and asks its caller about the row only where they match; growing
/// re-places the cells by their own hash bits, so it touches no row.
#[derive(Debug, Clone, Default)]
struct SlotIndex {
    /// Empty, or a power of two of cells, at most three quarters in use.
    cells: Vec<u64>,
    /// Cells in use.
    len: usize,
}

impl SlotIndex {
    /// Where the probe for `hash32` starts.
    #[inline]
    fn home(&self, hash32: u32) -> usize {
        let bits = self.cells.len().trailing_zeros();
        (hash32 >> 32u32.saturating_sub(bits)) as usize
    }

    /// The slot stored under `hash32` for which `is_row` holds.
    #[inline]
    fn find(&self, hash32: u32, mut is_row: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.cells.is_empty() {
            return None;
        }
        let mask = self.cells.len() - 1;
        let mut at = self.home(hash32);
        loop {
            let cell = self.cells[at];
            if cell == EMPTY {
                return None;
            }
            // Truncations: a cell's halves.
            if (cell >> 32) as u32 == hash32 && is_row(cell as u32) {
                return Some(cell as u32);
            }
            at = (at + 1) & mask;
        }
    }

    /// Store `slot` under `hash32`; the caller found no such row.
    fn insert(&mut self, hash32: u32, slot: u32) {
        if (self.len + 1) * 4 > self.cells.len() * 3 {
            let cells = (self.cells.len() * 2).max(MIN_CELLS);
            let old = std::mem::replace(&mut self.cells, vec![EMPTY; cells]);
            old.into_iter()
                .filter(|&cell| cell != EMPTY)
                .for_each(|cell| self.place(cell));
        }
        self.place(u64::from(hash32) << 32 | u64::from(slot));
        self.len += 1;
    }

    /// Put `cell` in the first empty cell of its probe sequence.
    fn place(&mut self, cell: u64) {
        let mask = self.cells.len() - 1;
        let mut at = self.home((cell >> 32) as u32);
        while self.cells[at] != EMPTY {
            at = (at + 1) & mask;
        }
        self.cells[at] = cell;
    }
}

/// Per-flow report row.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlowReport {
    /// The flow.
    pub flow: FlowKey,
    /// Number of estimated packets.
    pub packets: u64,
    /// Estimated mean delay (ns).
    pub est_mean: f64,
    /// True mean delay (ns), if ground truth was supplied.
    pub true_mean: Option<f64>,
    /// Estimated standard deviation (ns); `None` with fewer than 2 packets.
    pub est_std: Option<f64>,
    /// True standard deviation (ns).
    pub true_std: Option<f64>,
    /// Relative error of the mean (needs ground truth).
    pub mean_rel_err: Option<f64>,
    /// Relative error of the standard deviation.
    pub std_rel_err: Option<f64>,
    /// Estimated tail quantile (when quantile tracking is enabled): the
    /// nearest-rank quantile of the flow's estimates, or their fourth
    /// largest when that is not one of the four largest.
    pub est_quantile: Option<f64>,
    /// True tail quantile, by the same rule.
    pub true_quantile: Option<f64>,
    /// Relative error of the tail-quantile estimate.
    pub quantile_rel_err: Option<f64>,
    /// Whether `est_quantile` or `true_quantile` is the fourth-largest
    /// delay, an upper bound on the quantile, rather than the quantile
    /// itself: the flow has at least `4 / (1 − p)` estimates.
    pub quantile_is_bound: bool,
}

/// Aggregates per-packet estimates by flow key.
///
/// A flow is stored once: a 96-byte row — its key and, per side, a
/// [`FewStats`] that *is* the flow's first four delays and becomes Welford
/// moments at the fifth — in a `Vec`, found through a keyless index of
/// 8-byte `(hash bits, slot)` cells; the key compared on a probe is the
/// row's own, on the line `record` writes next. A table that tracks a
/// quantile adds one 32-bit reference per row: a flow under five estimates
/// is its own tail (its quantile is read off the row's samples), and the
/// fifth estimate seeds a 64-byte tail from them, the flow's four largest
/// delays a side. The nearest-rank `p`-quantile of `n` delays is the
/// `k`-th largest, `k = n − ⌈p·n⌉ + 1`, so the tail answers it exactly
/// while `k ≤ 4` — fewer than `4 / (1 − p)` delays, 399 for p99 — and with
/// the fourth largest, an upper bound, after ([`FlowReport::quantile_is_bound`]).
/// Tails merge exactly, whatever `p`. So a mouse flow pays for neither
/// moments nor a tail it cannot use, and a table without a quantile pays no
/// tail bytes at all.
///
/// Generic over the table's hash builder, defaulting to FxHash — the
/// fastest choice for the simulated hot path. Instantiate with the standard
/// library's `RandomState` to get its DoS-resistant SipHash (what a
/// deployment facing adversarial flow keys would pick).
#[derive(Debug, Clone, Default)]
pub struct FlowTable<S: BuildHasher = FxBuildHasher> {
    hasher: S,
    index: SlotIndex,
    rows: Vec<Row>,
    /// Empty unless `quantile_p` is set.
    tails: TailStore,
    estimates: u64,
    quantile_p: Option<f64>,
}

impl<S: BuildHasher + Default> FlowTable<S> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table that additionally reports the `p`-quantile of each
    /// flow's delays from its four largest (the RLI line of work also
    /// reports per-flow tail latency).
    pub fn with_quantile(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0,1)");
        FlowTable {
            quantile_p: Some(p),
            ..Self::default()
        }
    }

    /// The tracked quantile, if enabled.
    pub fn quantile_p(&self) -> Option<f64> {
        self.quantile_p
    }

    /// The index's share of `flow`'s hash: the top half, the better mixed
    /// one of a multiplicative hasher.
    #[inline]
    fn hash32(&self, flow: &FlowKey) -> u32 {
        (self.hasher.hash_one(flow) >> 32) as u32
    }

    /// The slot of `flow`'s row, if it has one.
    #[inline]
    fn slot_of(&self, hash32: u32, flow: &FlowKey) -> Option<usize> {
        let slot = self
            .index
            .find(hash32, |slot| self.rows[slot as usize].key == *flow)?;
        Some(slot as usize)
    }

    /// Append `row`, a flow the table does not hold, with its tail
    /// (ignored by a table that tracks no quantile); its slot.
    fn insert(&mut self, hash32: u32, row: Row, tail: Option<FlowTails>) -> usize {
        let slot = self.rows.len();
        self.index.insert(hash32, row_slot(slot));
        self.rows.push(row);
        if self.quantile_p.is_some() {
            let r = tail.map_or(YOUNG, |tails| self.tails.add_grown(tails));
            self.tails.refs.push(r);
        }
        slot
    }

    /// Record one per-packet estimate (and optionally its ground truth).
    #[inline]
    pub fn record(&mut self, flow: FlowKey, est_ns: f64, truth_ns: Option<f64>) {
        let hash32 = self.hash32(&flow);
        let slot = self.slot_of(hash32, &flow).unwrap_or_else(|| {
            let row = Row {
                key: flow,
                est: FewStats::new(),
                truth: FewStats::new(),
            };
            self.insert(hash32, row, None)
        });
        let row = &mut self.rows[slot];
        if self.quantile_p.is_some() {
            self.tails.push(slot, row, est_ns, truth_ns);
        }
        row.est.push(est_ns);
        if let Some(t) = truth_ns {
            row.truth.push(t);
        }
        self.estimates += 1;
    }

    /// Number of flows with at least one estimate.
    pub fn flow_count(&self) -> usize {
        self.rows.len()
    }

    /// Total per-packet estimates recorded.
    pub fn estimate_count(&self) -> u64 {
        self.estimates
    }

    /// One flow's accumulators, materialised from its row.
    pub fn get(&self, flow: &FlowKey) -> Option<FlowAccumulator> {
        let row = &self.rows[self.slot_of(self.hash32(flow), flow)?];
        Some(FlowAccumulator {
            est: row.est.stats(),
            truth: row.truth.stats(),
        })
    }

    /// Merge another table into this one (parallel experiment shards).
    ///
    /// Counts merge exactly, means and variances as
    /// [`FewStats::merge`] does, and tails exactly: the four largest delays
    /// of a union lie among the two sides' four largest, whatever `p` either
    /// table reports. A table that tracks a quantile only absorbs one that
    /// keeps tails too (a panic otherwise); one that tracks none drops them.
    pub fn merge(&mut self, other: FlowTable<S>) {
        let tracking = self.quantile_p.is_some();
        assert!(
            !tracking || other.quantile_p.is_some(),
            "a table that keeps tails cannot absorb one that keeps none"
        );
        for (theirs, row) in other.rows.into_iter().enumerate() {
            let grown = other.tails.grown(theirs);
            let hash32 = self.hash32(&row.key);
            match self.slot_of(hash32, &row.key) {
                None => {
                    self.insert(hash32, row, grown);
                }
                Some(slot) => {
                    if tracking {
                        self.tails.merge(slot, &self.rows[slot], &row, grown);
                    }
                    let ours = &mut self.rows[slot];
                    ours.est.merge(&row.est);
                    ours.truth.merge(&row.truth);
                }
            }
        }
        self.estimates += other.estimates;
    }

    /// Per-flow reports for flows with at least `min_packets` estimates,
    /// in flow-key order for determinism. Lazy: the only allocation is the
    /// list of row slots (4 bytes a flow), sorted by the rows' keys; each
    /// [`FlowReport`] is built as it is yielded.
    pub fn report(&self, min_packets: u64) -> impl ExactSizeIterator<Item = FlowReport> + '_ {
        let min_packets = min_packets.max(1);
        let mut slots = Vec::with_capacity(self.rows.len());
        slots.extend(
            (0..=u32::MAX)
                .zip(&self.rows)
                .filter(|(_, row)| row.est.count() >= min_packets)
                .map(|(slot, _)| slot),
        );
        // Keys are unique, so an unstable sort has one possible outcome.
        slots.sort_unstable_by_key(|&slot| self.rows[slot as usize].key);
        slots.into_iter().map(|slot| self.row_report(slot as usize))
    }

    /// The report of `rows[slot]`, a row with at least one estimate.
    fn row_report(&self, slot: usize) -> FlowReport {
        let row = &self.rows[slot];
        let (est, truth) = (row.est.stats(), row.truth.stats());
        let est_mean = est.mean().expect("count >= 1");
        let true_mean = truth.mean();
        let est_std = est.std_dev().filter(|_| est.count() >= 2);
        let true_std = truth.std_dev().filter(|_| truth.count() >= 2);
        let (est_quantile, true_quantile, quantile_is_bound) = match self.quantile_p {
            Some(p) => self.tails.estimates(slot, p, row),
            None => (None, None, false),
        };
        FlowReport {
            flow: row.key,
            packets: est.count(),
            est_mean,
            true_mean,
            est_std,
            true_std,
            mean_rel_err: true_mean.map(|t| relative_error(est_mean, t)),
            std_rel_err: match (est_std, true_std) {
                (Some(e), Some(t)) => Some(relative_error(e, t)),
                _ => None,
            },
            est_quantile,
            true_quantile,
            quantile_rel_err: match (est_quantile, true_quantile) {
                (Some(e), Some(t)) => Some(relative_error(e, t)),
                _ => None,
            },
            quantile_is_bound,
        }
    }

    /// Per-flow relative errors of the *mean* estimate (Fig. 4a/4c input).
    pub fn mean_relative_errors(&self, min_packets: u64) -> Vec<f64> {
        self.report(min_packets)
            .filter_map(|r| r.mean_rel_err)
            .collect()
    }

    /// Per-flow relative errors of the *standard deviation* estimate
    /// (Fig. 4b input). Requires at least 2 packets per flow.
    pub fn std_relative_errors(&self, min_packets: u64) -> Vec<f64> {
        self.report(min_packets.max(2))
            .filter_map(|r| r.std_rel_err)
            .collect()
    }

    /// Per-flow relative errors of the tail-quantile estimate (requires
    /// [`FlowTable::with_quantile`]).
    pub fn quantile_relative_errors(&self, min_packets: u64) -> Vec<f64> {
        self.report(min_packets)
            .filter_map(|r| r.quantile_rel_err)
            .collect()
    }

    /// Mean of all flows' true mean delays (the paper quotes these:
    /// "we observed the average latencies as 3.0µs and 83µs").
    pub fn average_true_delay_ns(&self) -> Option<f64> {
        let mut all = StreamingStats::new();
        for row in &self.rows {
            if let Some(m) = row.truth.stats().mean() {
                all.push(m);
            }
        }
        all.mean()
    }

    /// Packet-weighted mean of all *estimated* delays across every flow
    /// (segment-level aggregate used by the localization reports).
    pub fn aggregate_est_mean(&self) -> Option<f64> {
        Self::aggregate_mean(self.rows.iter().map(|row| &row.est))
    }

    /// Packet-weighted mean of all *true* delays across every flow.
    pub fn aggregate_true_mean(&self) -> Option<f64> {
        Self::aggregate_mean(self.rows.iter().map(|row| &row.truth))
    }

    fn aggregate_mean<'a>(sides: impl Iterator<Item = &'a FewStats>) -> Option<f64> {
        let (sum, count) = sides.fold((0.0, 0u64), |(s, c), side| {
            let stats = side.stats();
            (s + stats.sum(), c + stats.count())
        });
        (count > 0).then(|| sum / count as f64)
    }

    /// How many flows are their own tail (at most four estimates) and hold
    /// a 64-byte one: `(young, grown)`. Both zero in a table that tracks no
    /// quantile; O(1).
    pub fn tail_counts(&self) -> (usize, usize) {
        let tails = &self.tails;
        (tails.refs.len() - tails.grown.len(), tails.grown.len())
    }

    /// Heap footprint of this table in bytes: allocated capacity × element
    /// size of the rows, the index cells, the tail references and the grown
    /// tails — everything the table allocates. A flow costs a 96-byte row
    /// and an 8-byte cell at a load of 3/8 to 3/4 (so 11–21 bytes), in a
    /// table that tracks a quantile a 4-byte reference too and, from its
    /// fifth estimate on, a 64-byte tail; each `Vec` adds what doubling left
    /// unused. Diagnostic only — feeds the plane's state estimate, not
    /// allocation decisions.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.rows.capacity() * size_of::<Row>()
            + self.index.cells.capacity() * size_of::<u64>()
            + self.tails.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn fk(i: u8) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, i),
            1000,
            Ipv4Addr::new(10, 1, 0, 1),
            80,
        )
    }

    #[test]
    fn records_accumulate_per_flow() {
        let mut t: FlowTable = FlowTable::new();
        t.record(fk(1), 100.0, Some(110.0));
        t.record(fk(1), 200.0, Some(190.0));
        t.record(fk(2), 50.0, Some(50.0));
        assert_eq!(t.flow_count(), 2);
        assert_eq!(t.estimate_count(), 3);
        let acc = t.get(&fk(1)).unwrap();
        assert_eq!(acc.est.count(), 2);
        assert_eq!(acc.est.mean(), Some(150.0));
        assert_eq!(acc.truth.mean(), Some(150.0));
    }

    #[test]
    fn report_computes_errors() {
        let mut t: FlowTable = FlowTable::new();
        t.record(fk(1), 110.0, Some(100.0));
        let mut rows = t.report(1);
        assert_eq!(rows.len(), 1);
        let r = rows.next().unwrap();
        assert_eq!(r.packets, 1);
        assert!((r.mean_rel_err.unwrap() - 0.10).abs() < 1e-9);
        assert!(r.est_std.is_none(), "std undefined for 1 packet");
        assert!(r.std_rel_err.is_none());
    }

    #[test]
    fn std_errors_need_two_packets() {
        let mut t: FlowTable = FlowTable::new();
        t.record(fk(1), 100.0, Some(100.0));
        t.record(fk(1), 200.0, Some(220.0));
        t.record(fk(2), 10.0, Some(10.0)); // single-packet flow excluded
        let errs = t.std_relative_errors(1);
        assert_eq!(errs.len(), 1);
        // Population std 50 against 60 (sample: 70.7 against 84.9) — 5 : 6
        // under either definition → rel err = 1/6.
        assert!(
            (errs[0] - 1.0 / 6.0).abs() < 1e-9,
            "std rel err {}",
            errs[0]
        );
        let mean_errs = t.mean_relative_errors(1);
        assert_eq!(mean_errs.len(), 2);
    }

    #[test]
    fn min_packet_filter() {
        let mut t: FlowTable = FlowTable::new();
        for i in 0..5 {
            t.record(fk(1), i as f64, Some(i as f64));
        }
        t.record(fk(2), 1.0, Some(1.0));
        assert_eq!(t.report(1).len(), 2);
        assert_eq!(t.report(2).len(), 1);
        assert_eq!(t.report(6).len(), 0);
    }

    #[test]
    fn missing_truth_yields_no_error() {
        let mut t: FlowTable = FlowTable::new();
        t.record(fk(1), 100.0, None);
        let r = t.report(1).next().unwrap();
        assert!(r.mean_rel_err.is_none());
        assert!(t.mean_relative_errors(1).is_empty());
    }

    #[test]
    fn merge_combines_shards() {
        let mut a: FlowTable = FlowTable::new();
        let mut b: FlowTable = FlowTable::new();
        a.record(fk(1), 100.0, Some(100.0));
        b.record(fk(1), 200.0, Some(200.0));
        b.record(fk(3), 10.0, None);
        a.merge(b);
        assert_eq!(a.flow_count(), 2);
        assert_eq!(a.estimate_count(), 3);
        assert_eq!(a.get(&fk(1)).unwrap().est.mean(), Some(150.0));
    }

    #[test]
    fn average_true_delay() {
        let mut t: FlowTable = FlowTable::new();
        t.record(fk(1), 0.0, Some(3000.0));
        t.record(fk(2), 0.0, Some(5000.0));
        assert_eq!(t.average_true_delay_ns(), Some(4000.0));
        assert_eq!(
            FlowTable::<FxBuildHasher>::new().average_true_delay_ns(),
            None
        );
    }

    #[test]
    fn quantile_tracking_when_enabled() {
        let mut t: FlowTable = FlowTable::with_quantile(0.9);
        assert_eq!(t.quantile_p(), Some(0.9));
        // 30 delays: rank 27 is the fourth largest, so the p90 is exact.
        for i in 1..=30 {
            let v = i as f64;
            t.record(fk(1), v, Some(v + 5.0));
        }
        let r = t.report(1).next().unwrap();
        assert_eq!((r.est_quantile, r.true_quantile), (Some(27.0), Some(32.0)));
        assert!(!r.quantile_is_bound);
        assert!((r.quantile_rel_err.unwrap() - 5.0 / 32.0).abs() < 1e-12);
        assert_eq!(t.quantile_relative_errors(1).len(), 1);
        // At 100 the p90 is the eleventh largest: the fourth bounds it.
        for i in 31..=100 {
            let v = i as f64;
            t.record(fk(1), v, Some(v + 5.0));
        }
        let r = t.report(1).next().unwrap();
        assert_eq!((r.est_quantile, r.true_quantile), (Some(97.0), Some(102.0)));
        assert!(r.quantile_is_bound);
    }

    #[test]
    fn quantiles_absent_by_default() {
        let mut t: FlowTable = FlowTable::new();
        t.record(fk(1), 1.0, Some(1.0));
        let r = t.report(1).next().unwrap();
        assert!(r.est_quantile.is_none());
        assert!(r.quantile_rel_err.is_none());
        assert!(t.quantile_relative_errors(1).is_empty());
    }

    /// Every delay of one flow, kept, and its nearest-rank `p`-quantile:
    /// what a 64-byte tail must report exactly while `k ≤ 4`.
    fn exact(p: f64, delays: &[f64]) -> Option<f64> {
        let mut sorted = delays.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sorted.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
        sorted.get(rank - 1).copied()
    }

    /// The first `n` estimates of a flow, the first `truths` of them with a
    /// truth: recorded into a tracking table, and kept.
    fn tracked_flow(n: usize, truths: usize) -> (FlowTable, Vec<f64>, Vec<f64>) {
        let mut table: FlowTable = FlowTable::with_quantile(0.9);
        let (mut ests, mut trues) = (Vec::new(), Vec::new());
        for i in 0..n {
            let est = ((i * 37) % 11) as f64;
            let truth = (i < truths).then_some(est + 0.5);
            table.record(fk(1), est, truth);
            ests.push(est);
            trues.extend(truth);
        }
        (table, ests, trues)
    }

    #[test]
    fn a_flow_graduates_exactly_at_its_fifth_estimate() {
        // Fewer truths than estimates is the case an index slip gets wrong.
        for truths in [0, 2, 4] {
            for n in 1..=12 {
                let (table, ests, trues) = tracked_flow(n, truths);
                let want = if n < 5 { (1, 0) } else { (0, 1) };
                assert_eq!(table.tail_counts(), want, "{n} estimates");
                let r = table.report(1).next().unwrap();
                assert_eq!(
                    (r.est_quantile, r.true_quantile, r.quantile_is_bound),
                    (exact(0.9, &ests), exact(0.9, &trues), false),
                    "{n} estimates, {truths} truths"
                );
            }
        }
    }

    #[test]
    fn merge_keeps_every_tail_exactly() {
        // One flow split over two tables at every cut, each side tracking
        // its own `p`: the merge reports what the whole stream reports.
        let delays: Vec<f64> = (0..9).map(|i| ((i * 5) % 9) as f64).collect();
        for n in 1..=delays.len() {
            for cut in 0..=n {
                let mut a: FlowTable = FlowTable::with_quantile(0.9);
                let mut b: FlowTable = FlowTable::with_quantile(0.5);
                delays[..cut]
                    .iter()
                    .for_each(|&d| a.record(fk(1), d, Some(d)));
                delays[cut..n]
                    .iter()
                    .for_each(|&d| b.record(fk(1), d, None));
                b.record(fk(2), 1.0, None);
                a.merge(b);
                let r = a.report(1).next().unwrap();
                // Nine delays or fewer: the p90 is one of the four largest.
                let want = (n as u64, exact(0.9, &delays[..n]), false);
                assert_eq!((r.packets, r.est_quantile, r.quantile_is_bound), want);
                assert_eq!(r.true_quantile, exact(0.9, &delays[..cut]));
                let young = usize::from(n <= 4);
                assert_eq!(a.tail_counts(), (young + 1, 1 - young), "{cut} of {n}");
            }
        }
        // A table that tracks none takes rows and leaves tails behind.
        let (tracked, _, _) = tracked_flow(7, 7);
        let mut plain: FlowTable = FlowTable::new();
        plain.merge(tracked);
        assert_eq!(
            (plain.tail_counts(), plain.tails.approx_bytes()),
            ((0, 0), 0)
        );
        assert!(plain.report(1).all(|r| r.est_quantile.is_none()));
    }

    #[test]
    #[should_panic(expected = "cannot absorb one that keeps none")]
    fn a_table_that_keeps_tails_refuses_one_that_keeps_none() {
        let mut tracked: FlowTable = FlowTable::with_quantile(0.99);
        tracked.merge(FlowTable::new());
    }

    #[test]
    fn a_cold_reset_receiver_drops_the_store_with_the_table() {
        use crate::receiver::{ReceiverConfig, RliReceiver};
        use rlir_net::packet::{ReferenceInfo, SenderId};
        use rlir_net::SimTime;
        let reference = |seq: u32, ns: u64| ReferenceInfo {
            sender: SenderId(1),
            seq,
            tx_timestamp: SimTime::from_nanos(ns),
        };
        let mut rx: RliReceiver =
            RliReceiver::with_quantile(ReceiverConfig::for_sender(SenderId(1)), 0.99);
        rx.on_reference(SimTime::from_nanos(100), &reference(0, 0));
        for i in 0..6 {
            rx.on_regular(SimTime::from_nanos(110 + i), fk(1), None);
        }
        rx.on_regular(SimTime::from_nanos(120), fk(2), None);
        rx.on_reference(SimTime::from_nanos(200), &reference(1, 100));
        assert_eq!(rx.flows().tail_counts(), (1, 1));
        assert!(rx.flows().approx_bytes() > 0);
        rx.reset_cold();
        assert_eq!(rx.flows().tail_counts(), (0, 0));
        assert_eq!(rx.flows().approx_bytes(), 0);
        assert_eq!(rx.flows().quantile_p(), Some(0.99));
    }

    #[test]
    fn approx_bytes_counts_the_capacity_of_every_vec() {
        let mut plain: FlowTable = FlowTable::new();
        let mut tracked: FlowTable = FlowTable::with_quantile(0.99);
        assert_eq!((plain.approx_bytes(), tracked.approx_bytes()), (0, 0));
        let mut last = 0;
        for i in 0..200 {
            // Every other flow grows, and every fourth of those then takes
            // a merge: both vectors of the store come into use.
            for _ in 0..if i % 2 == 0 { 5 } else { 1 } {
                plain.record(fk(i), 1.0, Some(1.0));
                tracked.record(fk(i), 1.0, Some(1.0));
            }
            if i % 8 == 0 {
                let mut more: FlowTable = FlowTable::with_quantile(0.99);
                more.record(fk(i), 1.0, None);
                tracked.merge(more);
                plain.record(fk(i), 1.0, None);
            }
            let cells = plain.index.cells.capacity();
            assert_eq!(
                cells,
                plain.index.cells.len(),
                "no cell beyond the probed ones"
            );
            assert_eq!(plain.approx_bytes(), 96 * plain.rows.capacity() + 8 * cells);
            assert_eq!(plain.tails.approx_bytes(), 0, "no quantile, no tail bytes");
            // Same insertions, same growth: the tracking table is larger by
            // exactly its tail store.
            let store = &tracked.tails;
            assert!(store.refs.capacity() >= tracked.rows.len());
            let tails = 4 * store.refs.capacity() + 64 * store.grown.capacity();
            assert_eq!(tracked.approx_bytes(), plain.approx_bytes() + tails);
            assert!(plain.approx_bytes() >= last, "a table never shrinks");
            last = plain.approx_bytes();
        }
        assert_eq!(tracked.tail_counts(), (100, 100));
        assert!(last >= 200 * (96 + 8), "200 flows need 200 rows and cells");
    }

    fn flow(i: u32) -> FlowKey {
        let [a, b, c, d] = i.to_be_bytes();
        FlowKey::tcp(Ipv4Addr::new(10, a, b, c), 1000 + d as u16, fk(0).dst, 80)
    }

    #[test]
    fn a_mouse_flow_costs_a_row_a_reference_and_a_cell() {
        let mut t: FlowTable = FlowTable::with_quantile(0.99);
        (0..10_000).for_each(|i| t.record(flow(i), 1.0, Some(1.0)));
        // Rows and references grow in step, each `Vec` to less than twice
        // what its elements need; the index is between 3/8 and 3/4 full;
        // nothing else is allocated.
        let slots = t.rows.capacity();
        assert!(slots < 2 * 10_000);
        let cells = t.index.cells.len();
        assert!(
            cells * 3 / 8 <= 10_000 && 10_000 <= cells * 3 / 4,
            "{cells} cells"
        );
        assert_eq!(t.approx_bytes(), slots * (96 + 4) + cells * 8);
        assert_eq!(t.tail_counts(), (10_000, 0));
        assert_eq!(t.tails.grown.capacity(), 0, "no flow grew, no tail exists");
        // Pushed to five estimates, every flow holds a tail.
        for _ in 1..5 {
            (0..10_000).for_each(|i| t.record(flow(i), 1.0, Some(1.0)));
        }
        assert_eq!(t.tail_counts(), (0, 10_000));
        assert_eq!(t.rows.capacity(), slots, "a row is reused, not replaced");
    }

    /// Sends every key to one of four hash values: the two ends of the
    /// cell array and the two cells around its middle.
    #[derive(Debug, Clone, Default)]
    struct Colliding;

    struct CollidingHasher(u64);

    impl std::hash::Hasher for CollidingHasher {
        fn write(&mut self, bytes: &[u8]) {
            self.0 = bytes.iter().fold(self.0, |h, &b| h.wrapping_add(b.into()));
        }
        fn finish(&self) -> u64 {
            [0, u64::MAX, 1 << 63, (1 << 63) - 1][(self.0 % 4) as usize]
        }
    }

    impl BuildHasher for Colliding {
        type Hasher = CollidingHasher;
        fn build_hasher(&self) -> CollidingHasher {
            CollidingHasher(0)
        }
    }

    #[test]
    fn the_keyless_index_agrees_with_a_hash_map_under_collisions() {
        use std::collections::HashMap;
        let mut table: FlowTable<Colliding> = FlowTable::new();
        let mut model: HashMap<FlowKey, u32> = HashMap::new();
        let slot_of = |table: &FlowTable<Colliding>, key: FlowKey| {
            table.slot_of(table.hash32(&key), &key).map(row_slot)
        };
        let mut state = 7u64;
        let mut growths = 0;
        for _ in 0..3000 {
            // Keys from a pool of 1 500: about as many look-ups as inserts.
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = flow((state >> 33) as u32 % 1500);
            let cells = table.index.cells.len();
            assert_eq!(slot_of(&table, key), model.get(&key).copied());
            table.record(key, 1.0, None);
            let next = row_slot(model.len());
            assert_eq!(
                slot_of(&table, key),
                Some(*model.entry(key).or_insert(next))
            );
            growths += usize::from(table.index.cells.len() != cells);
        }
        assert!(growths >= 8, "{growths} growths");
        assert_eq!(
            (table.index.len, table.flow_count()),
            (model.len(), model.len())
        );
        for i in 0..3000 {
            assert_eq!(
                slot_of(&table, flow(i)),
                model.get(&flow(i)).copied(),
                "flow {i}"
            );
        }
        // The run of cells hashed to the last cell wraps to the first ones.
        let cells = &table.index.cells;
        let homed_last = |cell: &u64| cell >> 32 == u64::from(u32::MAX) && *cell != EMPTY;
        assert!(homed_last(&cells[cells.len() - 1]));
        assert!(cells[..cells.len() / 4].iter().any(homed_last));
        assert!(cells.iter().filter(|&&cell| cell != EMPTY).count() == model.len());
        assert!(
            model.len() * 4 <= cells.len() * 3,
            "at most three quarters full"
        );
    }

    #[test]
    fn an_empty_index_finds_nothing() {
        let t: FlowTable = FlowTable::new();
        assert!(t.get(&fk(1)).is_none());
        assert_eq!(t.approx_bytes(), 0);
    }

    #[test]
    fn report_sorted_by_flow() {
        let mut t: FlowTable = FlowTable::new();
        for i in (1..10).rev() {
            t.record(fk(i), 1.0, None);
        }
        let flows: Vec<FlowKey> = t.report(1).map(|r| r.flow).collect();
        assert_eq!(flows.len(), 9);
        assert!(flows.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn references_stop_short_of_the_sentinels() {
        let last = YOUNG as usize - 1;
        assert_eq!(reference(last), Some(YOUNG - 1));
        assert_eq!(row_slot(last), YOUNG - 1);
        for past in [YOUNG as usize, YOUNG as usize + 1] {
            assert_eq!(reference(past), None, "{past}"); // `as u32` made the last one 0
        }
    }

    #[test]
    #[should_panic(expected = "at most 2^32 - 1 flows")]
    fn a_row_slot_that_reads_as_a_sentinel_is_refused() {
        row_slot(YOUNG as usize);
    }
}
