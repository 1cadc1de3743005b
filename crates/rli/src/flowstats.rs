//! Per-flow latency aggregation.
//!
//! "Obtaining per-flow measurements now is just a matter of aggregating
//! latency estimates across packets that share a given flow key" (§2). The
//! [`FlowTable`] accumulates, per flow, both the *estimated* delays produced
//! by interpolation and the *true* delays from simulator ground truth, and
//! derives exactly the two per-flow quantities the paper evaluates: mean
//! (Fig. 4a/4c) and standard deviation (Fig. 4b), each with its relative
//! error.

use rlir_net::fxhash::FxBuildHasher;
use rlir_net::FlowKey;
use rlir_stats::quantile::nearest_rank_of_few;
use rlir_stats::{relative_error, P2Quantile, StreamingStats};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Estimated and true delay moments for one flow: the row every table
/// keeps per flow (96 bytes with its key).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowAccumulator {
    /// Interpolated (estimated) per-packet delays.
    pub est: StreamingStats,
    /// Ground-truth per-packet delays (absent in a real deployment; present
    /// in simulation for evaluation).
    pub truth: StreamingStats,
}

/// Samples a flow's tail holds as they came before it is given trackers.
const YOUNG_SAMPLES: usize = 4;

/// A flow's tail before its fifth estimate (64 bytes): its first four
/// estimated delays, then its first four true delays. How many of each are
/// set is the row's own `est.count()` / `truth.count()`.
type YoungTail = [f64; 2 * YOUNG_SAMPLES];

/// A flow's tail from its fifth estimate on (208 bytes): one P² tracker
/// per side, made by replaying the [`YoungTail`] — P² only stores its first
/// five observations, so the trackers are the ones the flow would have had
/// from its first packet.
#[derive(Debug, Clone)]
struct FlowTails {
    /// Tracker over estimated delays.
    est: P2Quantile,
    /// Matching tracker over true delays.
    truth: P2Quantile,
}

/// Reference of a row whose tail is lost (P² markers cannot be merged, so
/// a flow two merged tables both observed has none): it holds no storage,
/// reports `None` and ignores what is pushed.
const NO_TAIL: u32 = u32::MAX;
/// Set in a reference into [`TailStore::grown`], clear in one into
/// [`TailStore::young`].
const GROWN: u32 = 1 << 31;

/// A reference, decoded.
enum Tail {
    Young(usize),
    Grown(usize),
    Lost,
}

fn tail_at(r: u32) -> Tail {
    if r & GROWN == 0 {
        Tail::Young(r as usize)
    } else if r != NO_TAIL {
        Tail::Grown((r & !GROWN) as usize)
    } else {
        Tail::Lost
    }
}

/// Store `value` in a free slot of `slots` — the one freed last — or in a
/// new one, and return its index.
fn place<T>(slots: &mut Vec<T>, free: &mut Vec<u32>, value: T) -> u32 {
    match free.pop() {
        Some(i) => {
            slots[i as usize] = value;
            i
        }
        None => {
            slots.push(value);
            (slots.len() - 1) as u32
        }
    }
}

/// The slot of row `index`, as the index and the report's slot list hold
/// it. A table is bounded at 2³² flows: past that the conversion would wrap
/// and two flows would share a row.
fn row_slot(index: usize) -> u32 {
    u32::try_from(index).expect("a flow table holds at most 2^32 flows")
}

const _: () = {
    use std::mem::size_of;
    assert!(size_of::<(FlowKey, FlowAccumulator)>() == 96);
    assert!(size_of::<YoungTail>() == 64);
    assert!(size_of::<FlowTails>() == 208);
};

/// The tails of a table built [`with_quantile`](FlowTable::with_quantile):
/// one 32-bit reference per row into one of two size classes, each with a
/// LIFO free list. Empty in any other table.
#[derive(Debug, Clone, Default)]
struct TailStore {
    /// `refs[slot]` names the tail of `rows[slot]`: a `young` index, a
    /// `grown` index with [`GROWN`] set, or [`NO_TAIL`].
    refs: Vec<u32>,
    young: Vec<YoungTail>,
    young_free: Vec<u32>,
    grown: Vec<FlowTails>,
    grown_free: Vec<u32>,
    /// Rows whose reference is [`NO_TAIL`].
    lost: usize,
}

impl TailStore {
    fn add_young(&mut self, samples: YoungTail) -> u32 {
        place(&mut self.young, &mut self.young_free, samples)
    }

    fn add_grown(&mut self, tails: FlowTails) -> u32 {
        let i = place(&mut self.grown, &mut self.grown_free, tails);
        assert!(i < GROWN, "grown index runs into the class bit");
        i | GROWN
    }

    /// Give a new row the tail `r` refers to.
    fn attach(&mut self, r: u32) {
        self.refs.push(r);
        self.lost += usize::from(r == NO_TAIL);
    }

    /// Copy the tail of `from`'s row `slot` into this store.
    fn adopt(&mut self, from: &TailStore, slot: usize) -> u32 {
        match tail_at(from.refs[slot]) {
            Tail::Young(i) => self.add_young(from.young[i]),
            Tail::Grown(i) => self.add_grown(from.grown[i].clone()),
            Tail::Lost => NO_TAIL,
        }
    }

    /// Give up the tail of `rows[slot]`: its storage goes back to its free
    /// list.
    fn lose(&mut self, slot: usize) {
        match tail_at(std::mem::replace(&mut self.refs[slot], NO_TAIL)) {
            Tail::Young(i) => self.young_free.push(i as u32),
            Tail::Grown(i) => self.grown_free.push(i as u32),
            Tail::Lost => return,
        }
        self.lost += 1;
    }

    /// Push one estimate (and its truth) onto the tail of `rows[slot]`,
    /// a row that held `n_est` estimates and `n_truth` truths before it.
    #[inline]
    fn push(
        &mut self,
        slot: usize,
        p: f64,
        (n_est, n_truth): (u64, u64),
        est: f64,
        truth: Option<f64>,
    ) {
        match tail_at(self.refs[slot]) {
            Tail::Grown(i) => {
                let tails = &mut self.grown[i];
                tails.est.push(est);
                if let Some(t) = truth {
                    tails.truth.push(t);
                }
            }
            Tail::Young(i) if (n_est as usize) < YOUNG_SAMPLES => {
                // `n_truth <= n_est`: no row has more truths than estimates.
                let samples = &mut self.young[i];
                samples[n_est as usize] = est;
                if let Some(t) = truth {
                    samples[YOUNG_SAMPLES + n_truth as usize] = t;
                }
            }
            Tail::Young(i) => {
                // The fifth estimate: replay the stored samples into fresh
                // trackers and hand the young slot back.
                let samples = self.young[i];
                self.young_free.push(i as u32);
                let (ests, truths) = samples.split_at(YOUNG_SAMPLES);
                let mut tails = FlowTails {
                    est: P2Quantile::new(p),
                    truth: P2Quantile::new(p),
                };
                ests.iter().chain(&[est]).for_each(|&x| tails.est.push(x));
                truths[..n_truth as usize]
                    .iter()
                    .chain(truth.as_ref())
                    .for_each(|&x| tails.truth.push(x));
                self.refs[slot] = self.add_grown(tails);
            }
            Tail::Lost => {}
        }
    }

    /// The `(estimated, true)` `p`-quantiles of `rows[slot]`, a row of
    /// `n_est` estimates and `n_truth` truths: a young flow answers from
    /// its samples by the rule a tracker applies below five.
    fn estimates(
        &self,
        slot: usize,
        p: f64,
        (n_est, n_truth): (u64, u64),
    ) -> (Option<f64>, Option<f64>) {
        match tail_at(self.refs[slot]) {
            Tail::Young(i) => {
                let (ests, truths) = self.young[i].split_at(YOUNG_SAMPLES);
                (
                    nearest_rank_of_few(p, &ests[..n_est as usize]),
                    nearest_rank_of_few(p, &truths[..n_truth as usize]),
                )
            }
            Tail::Grown(i) => (self.grown[i].est.estimate(), self.grown[i].truth.estimate()),
            Tail::Lost => (None, None),
        }
    }

    /// Allocated capacity × element size over every vector of the store.
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.refs.capacity() + self.young_free.capacity() + self.grown_free.capacity())
            * size_of::<u32>()
            + self.young.capacity() * size_of::<YoungTail>()
            + self.grown.capacity() * size_of::<FlowTails>()
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
    /// Estimated tail quantile (when quantile tracking is enabled).
    pub est_quantile: Option<f64>,
    /// True tail quantile.
    pub true_quantile: Option<f64>,
    /// Relative error of the tail-quantile estimate.
    pub quantile_rel_err: Option<f64>,
}

/// Aggregates per-packet estimates by flow key.
///
/// Layout is a dense index map: the hash table holds only compact
/// `key → u32` slots and the 96-byte `(key, moments)` rows live
/// contiguously in a `Vec`. A table that tracks a quantile adds a sparse
/// tail store: one 32-bit reference per row into one of two size classes —
/// a 64-byte *young* slot holding the flow's first four samples of each
/// side as they came, taken from a free list when the flow is created, and
/// the 208-byte *grown* pair of P² trackers made at the flow's fifth
/// estimate by replaying those samples (the young slot goes back to its
/// free list) — so a mouse flow never pays for trackers it cannot use, and
/// a flow whose tail is lost to a merge conflict holds no tail storage.
/// Hot-path `record` calls therefore probe small buckets and write two
/// cache lines of row (plus the tail where one exists); a table without a
/// quantile pays no tail bytes at all.
///
/// Generic over the table's hash builder, defaulting to FxHash — the
/// fastest choice for the simulated hot path. Instantiate as
/// [`SipFlowTable`] to get the standard library's DoS-resistant SipHash
/// (what a deployment facing adversarial flow keys would pick).
#[derive(Debug, Clone, Default)]
pub struct FlowTable<S: BuildHasher = FxBuildHasher> {
    index: HashMap<FlowKey, u32, S>,
    rows: Vec<(FlowKey, FlowAccumulator)>,
    /// Empty unless `quantile_p` is set.
    tails: TailStore,
    estimates: u64,
    quantile_p: Option<f64>,
}

/// [`FlowTable`] hashed with the standard library's SipHash.
pub type SipFlowTable = FlowTable<std::collections::hash_map::RandomState>;

impl<S: BuildHasher + Default> FlowTable<S> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table that additionally tracks the `p`-quantile of each
    /// flow's delays with P² trackers (the RLI line of work also reports
    /// per-flow tail latency).
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

    /// Record one per-packet estimate (and optionally its ground truth).
    #[inline]
    pub fn record(&mut self, flow: FlowKey, est_ns: f64, truth_ns: Option<f64>) {
        let slot = *self.index.entry(flow).or_insert_with(|| {
            self.rows.push((flow, FlowAccumulator::default()));
            if self.quantile_p.is_some() {
                let young = self.tails.add_young([0.0; 2 * YOUNG_SAMPLES]);
                self.tails.attach(young);
            }
            row_slot(self.rows.len() - 1)
        }) as usize;
        let acc = &mut self.rows[slot].1;
        if let Some(p) = self.quantile_p {
            let held = (acc.est.count(), acc.truth.count());
            self.tails.push(slot, p, held, est_ns, truth_ns);
        }
        acc.est.push(est_ns);
        if let Some(t) = truth_ns {
            acc.truth.push(t);
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

    /// Access one flow's accumulator.
    pub fn get(&self, flow: &FlowKey) -> Option<&FlowAccumulator> {
        self.index.get(flow).map(|&i| &self.rows[i as usize].1)
    }

    /// Merge another table into this one (parallel experiment shards).
    ///
    /// Counts, means and variances merge exactly; P² quantile trackers are
    /// *not* mergeable, so when both sides contributed observations to a
    /// flow its tail is given up — the flow reports `None` and its tail
    /// storage is freed (use per-shard tables if you need sharded
    /// quantiles). Tails are only ever kept by a table that tracks a
    /// quantile itself, and a flow arriving from a table that tracks none,
    /// or another one, arrives without a tail.
    pub fn merge(&mut self, other: FlowTable<S>) {
        let tracking = self.quantile_p.is_some();
        let same_quantile = other.quantile_p == self.quantile_p;
        for (theirs, (k, v)) in other.rows.into_iter().enumerate() {
            match self.index.entry(k) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    self.rows.push((k, v));
                    if tracking {
                        let tail = if same_quantile {
                            self.tails.adopt(&other.tails, theirs)
                        } else {
                            NO_TAIL
                        };
                        self.tails.attach(tail);
                    }
                    e.insert(row_slot(self.rows.len() - 1));
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let slot = *e.get() as usize;
                    let acc = &mut self.rows[slot].1;
                    acc.est.merge(&v.est);
                    acc.truth.merge(&v.truth);
                    if tracking {
                        self.tails.lose(slot);
                    }
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
                .filter(|(_, (_, acc))| acc.est.count() >= min_packets)
                .map(|(slot, _)| slot),
        );
        // Keys are unique, so an unstable sort has one possible outcome.
        slots.sort_unstable_by_key(|&slot| self.rows[slot as usize].0);
        slots.into_iter().map(|slot| self.row_report(slot as usize))
    }

    /// The report of `rows[slot]`, a row with at least one estimate.
    fn row_report(&self, slot: usize) -> FlowReport {
        let (flow, acc) = &self.rows[slot];
        let est_mean = acc.est.mean().expect("count >= 1");
        let true_mean = acc.truth.mean();
        let est_std = acc.est.std_dev().filter(|_| acc.est.count() >= 2);
        let true_std = acc.truth.std_dev().filter(|_| acc.truth.count() >= 2);
        let (est_quantile, true_quantile) = match self.quantile_p {
            Some(p) => {
                let held = (acc.est.count(), acc.truth.count());
                self.tails.estimates(slot, p, held)
            }
            None => (None, None),
        };
        FlowReport {
            flow: *flow,
            packets: acc.est.count(),
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
        for (_, acc) in &self.rows {
            if let Some(m) = acc.truth.mean() {
                all.push(m);
            }
        }
        all.mean()
    }

    /// Packet-weighted mean of all *estimated* delays across every flow
    /// (segment-level aggregate used by the localization reports).
    pub fn aggregate_est_mean(&self) -> Option<f64> {
        let (sum, count) = self.rows.iter().fold((0.0, 0u64), |(s, c), (_, acc)| {
            (s + acc.est.sum(), c + acc.est.count())
        });
        (count > 0).then(|| sum / count as f64)
    }

    /// Packet-weighted mean of all *true* delays across every flow.
    pub fn aggregate_true_mean(&self) -> Option<f64> {
        let (sum, count) = self.rows.iter().fold((0.0, 0u64), |(s, c), (_, acc)| {
            (s + acc.truth.sum(), c + acc.truth.count())
        });
        (count > 0).then(|| sum / count as f64)
    }

    /// How many flows hold a young tail, a grown tail, and none (lost to
    /// a merge conflict): `(young, grown, none)`. All zero in a table that
    /// tracks no quantile; O(1), kept as the store changes.
    pub fn tail_counts(&self) -> (usize, usize, usize) {
        let tails = &self.tails;
        (
            tails.young.len() - tails.young_free.len(),
            tails.grown.len() - tails.grown_free.len(),
            tails.lost,
        )
    }

    /// Approximate heap footprint of this table in bytes: allocated
    /// capacity × element size of the rows, the index and every vector of
    /// the tail store — references, young slots, grown trackers and both
    /// free lists, live or recycled alike. Diagnostic only — feeds the
    /// plane's state estimate, not allocation decisions.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        // Hashbrown stores key+value+1 control byte per slot.
        let slot = size_of::<(FlowKey, u32)>() + 1;
        self.rows.capacity() * size_of::<(FlowKey, FlowAccumulator)>()
            + self.tails.approx_bytes()
            + self.index.capacity() * slot
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
        for i in 1..=100 {
            let v = i as f64;
            t.record(fk(1), v, Some(v + 5.0));
        }
        let r = t.report(1).next().unwrap();
        let eq = r.est_quantile.unwrap();
        let tq = r.true_quantile.unwrap();
        assert!((85.0..=95.0).contains(&eq), "est p90 {eq}");
        assert!((90.0..=100.0).contains(&tq), "true p90 {tq}");
        assert!(r.quantile_rel_err.unwrap() < 0.2);
        assert_eq!(t.quantile_relative_errors(1).len(), 1);
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

    #[test]
    fn merge_drops_conflicting_quantiles_only() {
        let mut a: FlowTable = FlowTable::with_quantile(0.5);
        let mut b: FlowTable = FlowTable::with_quantile(0.5);
        a.record(fk(1), 1.0, None);
        b.record(fk(1), 2.0, None); // same flow → trackers poisoned
        b.record(fk(2), 3.0, None); // new flow → tracker kept
        a.merge(b);
        let r1 = a.report(1).find(|r| r.flow == fk(1)).unwrap();
        let r2 = a.report(1).find(|r| r.flow == fk(2)).unwrap();
        assert!(r1.est_quantile.is_none(), "conflicting tracker must drop");
        assert!(r2.est_quantile.is_some(), "unique tracker survives merge");
        assert_eq!(r1.packets, 2, "counts still merge exactly");
        // A poisoned tracker stays poisoned under later estimates.
        a.record(fk(1), 3.0, None);
        assert!(a.report(1).next().unwrap().est_quantile.is_none());
    }

    #[test]
    fn merge_keeps_tails_only_between_tables_tracking_the_same_quantile() {
        let mut tracked: FlowTable = FlowTable::with_quantile(0.5);
        let mut plain: FlowTable = FlowTable::new();
        let mut other_p: FlowTable = FlowTable::with_quantile(0.9);
        tracked.record(fk(1), 1.0, None);
        plain.record(fk(2), 2.0, None);
        other_p.record(fk(3), 3.0, None);
        // Into a tracking table: foreign flows arrive with lost tails, and
        // every row still has its reference.
        tracked.merge(plain.clone());
        tracked.merge(other_p.clone());
        assert_eq!(tracked.tails.refs.len(), tracked.rows.len());
        assert_eq!(tracked.tail_counts(), (1, 0, 2));
        let rows: Vec<FlowReport> = tracked.report(1).collect();
        assert_eq!(rows[0].est_quantile, Some(1.0));
        assert!(rows[1].est_quantile.is_none() && rows[2].est_quantile.is_none());
        tracked.record(fk(4), 4.0, None);
        assert_eq!(tracked.report(1).nth(3).unwrap().est_quantile, Some(4.0));
        // Into a plain table: no tail bytes appear.
        plain.merge(other_p);
        assert_eq!(plain.tails.approx_bytes(), 0);
        assert_eq!(plain.tail_counts(), (0, 0, 0));
        assert!(plain.report(1).all(|r| r.est_quantile.is_none()));
    }

    #[test]
    fn row_fits_in_96_bytes() {
        assert!(std::mem::size_of::<(FlowKey, FlowAccumulator)>() <= 96);
        assert!(std::mem::size_of::<FlowTails>() <= 208);
    }

    /// The first `n` estimates of a flow, the first `truths` of them with a
    /// truth — recorded into a tracking table, and pushed into the pair of
    /// trackers a dense table would have held from the first packet.
    fn tracked_flow(n: usize, truths: usize) -> (FlowTable, FlowTails) {
        let mut table: FlowTable = FlowTable::with_quantile(0.9);
        let mut dense = FlowTails {
            est: P2Quantile::new(0.9),
            truth: P2Quantile::new(0.9),
        };
        for i in 0..n {
            let est = ((i * 37) % 11) as f64;
            let truth = (i < truths).then_some(est + 0.5);
            table.record(fk(1), est, truth);
            dense.est.push(est);
            truth.into_iter().for_each(|t| dense.truth.push(t));
        }
        (table, dense)
    }

    #[test]
    fn a_flow_graduates_exactly_at_its_fifth_estimate() {
        // Fewer truths than estimates is the case an index slip gets wrong.
        for truths in [0, 2, 4] {
            for n in 1..=12 {
                let (table, dense) = tracked_flow(n, truths);
                let want = if n < 5 { (1, 0, 0) } else { (0, 1, 0) };
                assert_eq!(table.tail_counts(), want, "{n} estimates");
                let r = table.report(1).next().unwrap();
                assert_eq!(
                    (r.est_quantile, r.true_quantile),
                    (dense.est.estimate(), dense.truth.estimate()),
                    "{n} estimates, {truths} truths"
                );
                if n >= 5 {
                    assert_eq!(table.tails.young_free, [0], "the young slot is free again");
                }
            }
        }
    }

    #[test]
    fn a_freed_young_slot_is_the_next_one_handed_out() {
        // Freed by graduation: flow 1 took slot 0, flow 2 slot 1.
        let mut t: FlowTable = FlowTable::with_quantile(0.5);
        for i in 0..4 {
            t.record(fk(1), i as f64, None);
        }
        t.record(fk(2), 1.0, None);
        assert_eq!(t.tails.refs, [0, 1]);
        t.record(fk(1), 4.0, None);
        assert_eq!(
            (t.tails.refs[0], &t.tails.young_free[..]),
            (GROWN, &[0][..])
        );
        t.record(fk(3), 7.0, None);
        assert_eq!((t.tails.refs[2], t.tails.young.len()), (0, 2));
        let third = t.report(1).nth(2).unwrap();
        assert_eq!(third.est_quantile, Some(7.0), "no stale sample");
        // Freed by a merge conflict: flow 2 gives slot 1 up.
        let mut other: FlowTable = FlowTable::with_quantile(0.5);
        other.record(fk(2), 2.0, None);
        t.merge(other);
        assert_eq!(
            (t.tails.refs[1], &t.tails.young_free[..]),
            (NO_TAIL, &[1][..])
        );
        t.record(fk(4), 9.0, None);
        assert_eq!((t.tails.refs[3], t.tails.young.len()), (1, 2));
        assert_eq!(t.tail_counts(), (2, 1, 1));
    }

    #[test]
    fn a_conflict_on_a_grown_flow_returns_its_slot() {
        let (mut t, _) = tracked_flow(8, 8);
        let (other, _) = tracked_flow(1, 1);
        assert_eq!(t.tail_counts(), (0, 1, 0));
        t.merge(other);
        assert_eq!(t.tail_counts(), (0, 0, 1));
        assert_eq!(
            (t.tails.refs[0], &t.tails.grown_free[..]),
            (NO_TAIL, &[0][..])
        );
        // Lost for good: later estimates reach the moments only.
        t.record(fk(1), 3.0, Some(3.0));
        let r = t.report(1).next().unwrap();
        assert_eq!(
            (r.packets, r.est_quantile, r.true_quantile),
            (10, None, None)
        );
        assert_eq!(t.tail_counts(), (0, 0, 1));
        // The next flow to graduate takes the freed slot.
        for i in 0..5 {
            t.record(fk(2), i as f64, None);
        }
        assert_eq!((t.tails.refs[1], t.tails.grown.len()), (GROWN, 1));
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
        assert_eq!(rx.flows().tail_counts(), (1, 1, 0));
        assert!(rx.flows().approx_bytes() > 0);
        rx.reset_cold();
        assert_eq!(rx.flows().tail_counts(), (0, 0, 0));
        assert_eq!(rx.flows().approx_bytes(), 0);
        assert_eq!(rx.flows().quantile_p(), Some(0.99));
    }

    #[test]
    fn approx_bytes_counts_the_capacity_of_every_vec() {
        use std::mem::size_of;
        let mut plain: FlowTable = FlowTable::new();
        let mut tracked: FlowTable = FlowTable::with_quantile(0.99);
        assert_eq!((plain.approx_bytes(), tracked.approx_bytes()), (0, 0));
        let mut last = 0;
        for i in 0..200 {
            // Every other flow grows, and every fourth of those then loses
            // its tail: all five vectors of the store come into use.
            for _ in 0..if i % 2 == 0 { 5 } else { 1 } {
                plain.record(fk(i), 1.0, Some(1.0));
                tracked.record(fk(i), 1.0, Some(1.0));
            }
            if i % 8 == 0 {
                let mut conflict: FlowTable = FlowTable::with_quantile(0.99);
                conflict.record(fk(i), 1.0, None);
                tracked.merge(conflict);
                plain.record(fk(i), 1.0, None);
            }
            let rows = plain.rows.capacity() * size_of::<(FlowKey, FlowAccumulator)>();
            let index = plain.index.capacity() * (size_of::<(FlowKey, u32)>() + 1);
            assert_eq!(plain.approx_bytes(), rows + index);
            assert_eq!(plain.tails.approx_bytes(), 0, "no quantile, no tail bytes");
            // Same insertions, same growth: the tracking table is larger by
            // exactly its tail store.
            let store = &tracked.tails;
            assert!(store.refs.capacity() >= tracked.rows.len());
            let tails = 4 * store.refs.capacity()
                + 64 * store.young.capacity()
                + 4 * store.young_free.capacity()
                + 208 * store.grown.capacity()
                + 4 * store.grown_free.capacity();
            assert_eq!(tracked.approx_bytes(), plain.approx_bytes() + tails);
            assert!(plain.approx_bytes() >= last, "a table never shrinks");
            last = plain.approx_bytes();
        }
        assert_eq!(tracked.tail_counts(), (100, 75, 25));
        let store = &tracked.tails;
        assert!(store.young_free.capacity() > 0 && store.grown_free.capacity() > 0);
        assert!(last >= 200 * (96 + 21), "200 flows need 200 rows");
    }

    #[test]
    fn a_mouse_flow_costs_a_row_a_reference_and_a_young_slot() {
        let flow = |i: u32| {
            let [a, b, c, d] = i.to_be_bytes();
            FlowKey::tcp(Ipv4Addr::new(10, a, b, c), 1000 + d as u16, fk(0).dst, 80)
        };
        let mut t: FlowTable = FlowTable::with_quantile(0.99);
        (0..10_000).for_each(|i| t.record(flow(i), 1.0, Some(1.0)));
        // Rows, references and young slots grow in step, each `Vec` to less
        // than twice what its elements need; nothing else is allocated.
        let slots = t.rows.capacity();
        assert!(slots < 2 * 10_000);
        let index = t.index.capacity() * 21;
        assert_eq!(t.approx_bytes(), slots * (96 + 64 + 4) + index);
        assert_eq!(t.tail_counts(), (10_000, 0, 0));
        assert_eq!(
            t.tails.grown.capacity(),
            0,
            "no flow grew, no tracker exists"
        );
        // Pushed to five estimates, every flow holds trackers and every
        // young slot is back on the free list.
        for _ in 1..5 {
            (0..10_000).for_each(|i| t.record(flow(i), 1.0, Some(1.0)));
        }
        assert_eq!(t.tail_counts(), (0, 10_000, 0));
        assert_eq!(
            (t.tails.young.len(), t.tails.young_free.len()),
            (10_000, 10_000)
        );
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
    #[should_panic(expected = "at most 2^32 flows")]
    fn a_row_slot_past_u32_is_refused_not_wrapped() {
        assert_eq!(row_slot(u32::MAX as usize), u32::MAX);
        row_slot(u32::MAX as usize + 1); // `as u32` made this slot 0
    }
}
