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

/// One flow's streaming tail-quantile trackers, kept out of line from its
/// [`FlowAccumulator`] and only by tables built
/// [`with_quantile`](FlowTable::with_quantile).
#[derive(Debug, Clone)]
struct FlowTails {
    /// Tracker over estimated delays.
    est: P2Quantile,
    /// Matching tracker over true delays.
    truth: P2Quantile,
}

impl FlowTails {
    fn new(p: f64) -> Self {
        FlowTails {
            est: P2Quantile::new(p),
            truth: P2Quantile::new(p),
        }
    }

    /// Trackers standing in for tails that are lost (P² markers cannot be
    /// merged): they report `None` and ignore what is pushed.
    fn poisoned(p: f64) -> Self {
        let mut tails = FlowTails::new(p);
        tails.poison();
        tails
    }

    fn poison(&mut self) {
        self.est.poison();
        self.truth.poison();
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
/// `key → u32` slots, the 96-byte `(key, moments)` rows live contiguously
/// in a `Vec`, and a table that tracks a quantile keeps the two 104-byte
/// P² trackers of each flow in a second `Vec` under the same slot. Hot-path
/// `record` calls therefore probe small buckets and write two cache lines
/// of row (plus the trackers where they exist); a table without a quantile
/// pays no tail bytes at all.
///
/// Generic over the table's hash builder, defaulting to FxHash — the
/// fastest choice for the simulated hot path. Instantiate as
/// [`SipFlowTable`] to get the standard library's DoS-resistant SipHash
/// (what a deployment facing adversarial flow keys would pick).
#[derive(Debug, Clone, Default)]
pub struct FlowTable<S: BuildHasher = FxBuildHasher> {
    index: HashMap<FlowKey, u32, S>,
    rows: Vec<(FlowKey, FlowAccumulator)>,
    /// `tails[slot]` belongs to `rows[slot]`; empty unless `quantile_p`
    /// is set.
    tails: Vec<FlowTails>,
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
            if let Some(p) = self.quantile_p {
                self.tails.push(FlowTails::new(p));
            }
            (self.rows.len() - 1) as u32
        }) as usize;
        let acc = &mut self.rows[slot].1;
        acc.est.push(est_ns);
        if let Some(t) = truth_ns {
            acc.truth.push(t);
        }
        if let Some(tails) = self.tails.get_mut(slot) {
            tails.est.push(est_ns);
            if let Some(t) = truth_ns {
                tails.truth.push(t);
            }
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
    /// flow its trackers are poisoned and report `None` (use per-shard
    /// tables if you need sharded quantiles). Tails are only ever kept by
    /// a table that tracks a quantile itself, and a flow arriving from a
    /// table that tracks none, or another one, arrives without a tail.
    pub fn merge(&mut self, other: FlowTable<S>) {
        let same_quantile = other.quantile_p == self.quantile_p;
        let mut incoming = other.tails.into_iter();
        for (k, v) in other.rows {
            let tails = incoming.next().filter(|_| same_quantile);
            match self.index.entry(k) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    self.rows.push((k, v));
                    if let Some(p) = self.quantile_p {
                        self.tails
                            .push(tails.unwrap_or_else(|| FlowTails::poisoned(p)));
                    }
                    e.insert((self.rows.len() - 1) as u32);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let slot = *e.get() as usize;
                    let acc = &mut self.rows[slot].1;
                    acc.est.merge(&v.est);
                    acc.truth.merge(&v.truth);
                    if let Some(tails) = self.tails.get_mut(slot) {
                        tails.poison();
                    }
                }
            }
        }
        self.estimates += other.estimates;
    }

    /// Build per-flow reports for flows with at least `min_packets`
    /// estimates, sorted by flow key for determinism.
    pub fn report(&self, min_packets: u64) -> Vec<FlowReport> {
        let mut rows: Vec<FlowReport> = self
            .rows
            .iter()
            .enumerate()
            .filter(|(_, (_, acc))| acc.est.count() >= min_packets.max(1))
            .map(|(slot, (flow, acc))| {
                let est_mean = acc.est.mean().expect("count >= 1");
                let true_mean = acc.truth.mean();
                let est_std = acc.est.std_dev().filter(|_| acc.est.count() >= 2);
                let true_std = acc.truth.std_dev().filter(|_| acc.truth.count() >= 2);
                let tails = self.tails.get(slot);
                let est_quantile = tails.and_then(|t| t.est.estimate());
                let true_quantile = tails.and_then(|t| t.truth.estimate());
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
            })
            .collect();
        rows.sort_by_key(|r| r.flow);
        rows
    }

    /// Per-flow relative errors of the *mean* estimate (Fig. 4a/4c input).
    pub fn mean_relative_errors(&self, min_packets: u64) -> Vec<f64> {
        self.report(min_packets)
            .into_iter()
            .filter_map(|r| r.mean_rel_err)
            .collect()
    }

    /// Per-flow relative errors of the *standard deviation* estimate
    /// (Fig. 4b input). Requires at least 2 packets per flow.
    pub fn std_relative_errors(&self, min_packets: u64) -> Vec<f64> {
        self.report(min_packets.max(2))
            .into_iter()
            .filter_map(|r| r.std_rel_err)
            .collect()
    }

    /// Per-flow relative errors of the tail-quantile estimate (requires
    /// [`FlowTable::with_quantile`]).
    pub fn quantile_relative_errors(&self, min_packets: u64) -> Vec<f64> {
        self.report(min_packets)
            .into_iter()
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

    /// Approximate heap footprint of this table in bytes: allocated
    /// capacity × element size of the rows, the tails and the index.
    /// Diagnostic only — feeds the plane's state estimate, not allocation
    /// decisions.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        // Hashbrown stores key+value+1 control byte per slot.
        let slot = size_of::<(FlowKey, u32)>() + 1;
        self.rows.capacity() * size_of::<(FlowKey, FlowAccumulator)>()
            + self.tails.capacity() * size_of::<FlowTails>()
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
        let rows = t.report(1);
        assert_eq!(rows.len(), 1);
        let r = rows[0];
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
        // est std = 50, true std = 60 → rel err = 1/6.
        assert!((errs[0] - 50.0_f64 / 60.0 * 0.2).abs() < 1e-9 || errs[0] > 0.0);
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
        let rows = t.report(1);
        assert!(rows[0].mean_rel_err.is_none());
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
        let rows = t.report(1);
        let r = rows[0];
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
        let r = t.report(1)[0];
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
        let rows = a.report(1);
        let r1 = rows.iter().find(|r| r.flow == fk(1)).unwrap();
        let r2 = rows.iter().find(|r| r.flow == fk(2)).unwrap();
        assert!(r1.est_quantile.is_none(), "conflicting tracker must drop");
        assert!(r2.est_quantile.is_some(), "unique tracker survives merge");
        assert_eq!(r1.packets, 2, "counts still merge exactly");
        // A poisoned tracker stays poisoned under later estimates.
        a.record(fk(1), 3.0, None);
        assert!(a.report(1)[0].est_quantile.is_none());
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
        // every row still has its tail slot.
        tracked.merge(plain.clone());
        tracked.merge(other_p.clone());
        assert_eq!(tracked.tails.len(), tracked.rows.len());
        let rows = tracked.report(1);
        assert_eq!(rows[0].est_quantile, Some(1.0));
        assert!(rows[1].est_quantile.is_none() && rows[2].est_quantile.is_none());
        tracked.record(fk(4), 4.0, None);
        assert_eq!(tracked.report(1)[3].est_quantile, Some(4.0));
        // Into a plain table: no tail bytes appear.
        plain.merge(other_p);
        assert!(plain.tails.is_empty());
        assert!(plain.report(1).iter().all(|r| r.est_quantile.is_none()));
    }

    #[test]
    fn row_fits_in_96_bytes() {
        assert!(std::mem::size_of::<(FlowKey, FlowAccumulator)>() <= 96);
        assert!(std::mem::size_of::<FlowTails>() <= 208);
    }

    #[test]
    fn approx_bytes_counts_the_capacity_of_every_vec() {
        use std::mem::size_of;
        let mut plain: FlowTable = FlowTable::new();
        let mut tracked: FlowTable = FlowTable::with_quantile(0.99);
        assert_eq!((plain.approx_bytes(), tracked.approx_bytes()), (0, 0));
        let mut last = 0;
        for i in 0..200 {
            plain.record(fk(i), 1.0, Some(1.0));
            tracked.record(fk(i), 1.0, Some(1.0));
            let rows = plain.rows.capacity() * size_of::<(FlowKey, FlowAccumulator)>();
            let index = plain.index.capacity() * (size_of::<(FlowKey, u32)>() + 1);
            assert_eq!(plain.approx_bytes(), rows + index);
            assert!(plain.tails.capacity() == 0, "no quantile, no tail bytes");
            // Same insertions, same growth: the tracking table is larger by
            // exactly its tail Vec.
            assert!(tracked.tails.capacity() >= tracked.rows.len());
            assert_eq!(
                tracked.approx_bytes(),
                plain.approx_bytes() + tracked.tails.capacity() * size_of::<FlowTails>()
            );
            assert!(plain.approx_bytes() >= last, "a table never shrinks");
            last = plain.approx_bytes();
        }
        assert!(last >= 200 * (96 + 21), "200 flows need 200 rows");
    }

    #[test]
    fn report_sorted_by_flow() {
        let mut t: FlowTable = FlowTable::new();
        for i in (1..10).rev() {
            t.record(fk(i), 1.0, None);
        }
        let rows = t.report(1);
        for w in rows.windows(2) {
            assert!(w[0].flow < w[1].flow);
        }
    }
}
