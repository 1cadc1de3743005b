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

/// Estimated and true delay statistics for one flow.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowAccumulator {
    /// Interpolated (estimated) per-packet delays.
    pub est: StreamingStats,
    /// Ground-truth per-packet delays (absent in a real deployment; present
    /// in simulation for evaluation).
    pub truth: StreamingStats,
    /// Optional streaming tail-quantile tracker over estimated delays
    /// (enabled via [`FlowTable::with_quantile`]; O(1) memory per flow).
    pub est_q: Option<P2Quantile>,
    /// Matching tracker over true delays.
    pub truth_q: Option<P2Quantile>,
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
/// `key → u32` slots while the (large) accumulators live contiguously in a
/// `Vec`. Hot-path `record` calls therefore probe small buckets and write
/// one cache line, instead of probing ~300-byte buckets as the seed's
/// direct `HashMap<FlowKey, FlowAccumulator>` did.
///
/// Generic over the table's hash builder, defaulting to FxHash — the
/// fastest choice for the simulated hot path. Instantiate as
/// [`SipFlowTable`] to get the standard library's DoS-resistant SipHash
/// (what a deployment facing adversarial flow keys would pick).
#[derive(Debug, Clone, Default)]
pub struct FlowTable<S: BuildHasher = FxBuildHasher> {
    index: HashMap<FlowKey, u32, S>,
    accs: Vec<(FlowKey, FlowAccumulator)>,
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
            let qp = self.quantile_p;
            self.accs.push((
                flow,
                FlowAccumulator {
                    est_q: qp.map(P2Quantile::new),
                    truth_q: qp.map(P2Quantile::new),
                    ..FlowAccumulator::default()
                },
            ));
            (self.accs.len() - 1) as u32
        });
        let acc = &mut self.accs[slot as usize].1;
        acc.est.push(est_ns);
        if let Some(q) = acc.est_q.as_mut() {
            q.push(est_ns);
        }
        if let Some(t) = truth_ns {
            acc.truth.push(t);
            if let Some(q) = acc.truth_q.as_mut() {
                q.push(t);
            }
        }
        self.estimates += 1;
    }

    /// Number of flows with at least one estimate.
    pub fn flow_count(&self) -> usize {
        self.accs.len()
    }

    /// Total per-packet estimates recorded.
    pub fn estimate_count(&self) -> u64 {
        self.estimates
    }

    /// Access one flow's accumulator.
    pub fn get(&self, flow: &FlowKey) -> Option<&FlowAccumulator> {
        self.index.get(flow).map(|&i| &self.accs[i as usize].1)
    }

    /// Merge another table into this one (parallel experiment shards).
    ///
    /// Counts, means and variances merge exactly; P² quantile trackers are
    /// *not* mergeable, so when both sides contributed observations to a
    /// flow its quantile trackers are dropped (use per-shard tables if you
    /// need sharded quantiles).
    pub fn merge(&mut self, other: FlowTable<S>) {
        for (k, v) in other.accs {
            match self.index.entry(k) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    self.accs.push((k, v));
                    e.insert((self.accs.len() - 1) as u32);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let acc = &mut self.accs[*e.get() as usize].1;
                    acc.est.merge(&v.est);
                    acc.truth.merge(&v.truth);
                    acc.est_q = None;
                    acc.truth_q = None;
                }
            }
        }
        self.estimates += other.estimates;
    }

    /// Build per-flow reports for flows with at least `min_packets`
    /// estimates, sorted by flow key for determinism.
    pub fn report(&self, min_packets: u64) -> Vec<FlowReport> {
        let mut rows: Vec<FlowReport> = self
            .accs
            .iter()
            .filter(|(_, acc)| acc.est.count() >= min_packets.max(1))
            .map(|(flow, acc)| {
                let est_mean = acc.est.mean().expect("count >= 1");
                let true_mean = acc.truth.mean();
                let est_std = acc.est.std_dev().filter(|_| acc.est.count() >= 2);
                let true_std = acc.truth.std_dev().filter(|_| acc.truth.count() >= 2);
                let est_quantile = acc.est_q.as_ref().and_then(|q| q.estimate());
                let true_quantile = acc.truth_q.as_ref().and_then(|q| q.estimate());
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
        for (_, acc) in &self.accs {
            if let Some(m) = acc.truth.mean() {
                all.push(m);
            }
        }
        all.mean()
    }

    /// Packet-weighted mean of all *estimated* delays across every flow
    /// (segment-level aggregate used by the localization reports).
    pub fn aggregate_est_mean(&self) -> Option<f64> {
        let (sum, count) = self.accs.iter().fold((0.0, 0u64), |(s, c), (_, acc)| {
            (s + acc.est.sum(), c + acc.est.count())
        });
        (count > 0).then(|| sum / count as f64)
    }

    /// Packet-weighted mean of all *true* delays across every flow.
    pub fn aggregate_true_mean(&self) -> Option<f64> {
        let (sum, count) = self.accs.iter().fold((0.0, 0u64), |(s, c), (_, acc)| {
            (s + acc.truth.sum(), c + acc.truth.count())
        });
        (count > 0).then(|| sum / count as f64)
    }

    /// Approximate heap footprint of this table in bytes (index capacity +
    /// accumulator rows). Diagnostic only — feeds the plane's state
    /// estimate, not allocation decisions.
    pub fn approx_bytes(&self) -> usize {
        let row = std::mem::size_of::<(FlowKey, FlowAccumulator)>();
        // Hashbrown stores key+value+1 control byte per slot.
        let slot = std::mem::size_of::<(FlowKey, u32)>() + 1;
        self.accs.capacity() * row + self.index.capacity() * slot
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
        b.record(fk(1), 2.0, None); // same flow → trackers dropped
        b.record(fk(2), 3.0, None); // new flow → tracker kept
        a.merge(b);
        let rows = a.report(1);
        let r1 = rows.iter().find(|r| r.flow == fk(1)).unwrap();
        let r2 = rows.iter().find(|r| r.flow == fk(2)).unwrap();
        assert!(r1.est_quantile.is_none(), "conflicting tracker must drop");
        assert!(r2.est_quantile.is_some(), "unique tracker survives merge");
        assert_eq!(r1.packets, 2, "counts still merge exactly");
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
