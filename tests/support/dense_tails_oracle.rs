//! `rlir_rli::FlowTable` as it stood while every flow of a quantile-tracking
//! table owned a dense 208-byte pair of P² trackers from its first packet,
//! and a tail lost to a merge conflict was a *poisoned* tracker — kept as the
//! differential oracle for the sparse two-class tail store that replaced it
//! (`tests/sparse_tails_differential.rs`): `report`, `flow_count` and
//! `estimate_count` must agree bit for bit after any interleaving of
//! `record` and `merge`.
//!
//! `record`, `merge`, `report` and the tracker's `push` / `estimate` /
//! `poison` are verbatim; what the differential never calls (the error
//! vectors, the aggregates, `approx_bytes`, serde, the hasher generic) is
//! left out. The tracker is frozen here with it because the product
//! `P2Quantile` lost `poison` in the same change.
#![allow(dead_code)]

use rlir_net::FlowKey;
use rlir_rli::{FlowAccumulator, FlowReport};
use rlir_stats::relative_error;
use std::collections::HashMap;

/// `count` of a tracker whose estimate was given up (see
/// [`P2Quantile::poison`]).
const POISONED: u64 = u64::MAX;

/// The 104-byte P² tracker, poison state included.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    p: f64,
    // Marker heights (estimates of the quantile positions).
    q: [f64; 5],
    // Positions of markers 1..=3 (1-based observation ranks); marker 0 is
    // at rank 1 and marker 4 at rank `count`.
    n: [f64; 3],
    // Desired positions of markers 1..=3.
    np: [f64; 3],
    count: u64,
}

impl P2Quantile {
    /// Track the `p`-quantile, `p` in `(0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0,1)");
        P2Quantile {
            p,
            q: [0.0; 5],
            n: [2.0, 3.0, 4.0],
            np: [1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p],
            count: 0,
        }
    }

    /// Observations seen (0 once poisoned).
    pub fn count(&self) -> u64 {
        if self.count == POISONED {
            0
        } else {
            self.count
        }
    }

    /// Give the estimate up for good: [`estimate`](Self::estimate) reports
    /// `None` from here on and further observations are ignored. P² markers
    /// cannot be merged, so this is what a caller folding two trackers'
    /// streams into one is left with.
    pub fn poison(&mut self) {
        self.count = POISONED;
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(!x.is_nan(), "NaN observation");
        if self.count < 5 {
            self.q[self.count as usize] = x;
            self.count += 1;
            if self.count == 5 {
                self.q.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
            }
            return;
        }
        if self.count == POISONED {
            return;
        }
        self.count += 1;

        // Find the cell k such that q[k] <= x < q[k+1], adjusting extremes.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if self.q[i] <= x && x < self.q[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        // Increment positions of the middle markers above the cell.
        self.n[0] += f64::from(k < 1);
        self.n[1] += f64::from(k < 2);
        self.n[2] += f64::from(k < 3);
        let p = self.p;
        self.np[0] += p / 2.0;
        self.np[1] += p;
        self.np[2] += (1.0 + p) / 2.0;

        // Adjust the three middle markers, in order, if they are off their
        // desired positions by at least one. The outer markers sit at
        // ranks 1 and `count`.
        let [q0, q1, q2, q3, q4] = &mut self.q;
        let [n1, n2, n3] = &mut self.n;
        adjust((*q0, q1, *q2), (1.0, n1, *n2), self.np[0]);
        adjust((*q1, q2, *q3), (*n1, n2, *n3), self.np[1]);
        adjust((*q2, q3, *q4), (*n2, n3, self.count as f64), self.np[2]);
    }

    /// Current quantile estimate (`None` before any observation, and once
    /// [poisoned](Self::poison)). With fewer than five observations, falls
    /// back to the exact order statistic of the buffered values.
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 || self.count == POISONED {
            return None;
        }
        if self.count < 5 {
            let mut v: Vec<f64> = self.q[..self.count as usize].to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
            let rank = ((self.p * self.count as f64).ceil() as usize).clamp(1, v.len());
            return Some(v[rank - 1]);
        }
        Some(self.q[2])
    }
}

/// One marker's P² adjustment: `(below, this, above)` heights and
/// positions, and the position this marker should be at.
#[inline(always)]
fn adjust((qm, qi, qp): (f64, &mut f64, f64), (nm, ni, np): (f64, &mut f64, f64), desired: f64) {
    let d = desired - *ni;
    if (d >= 1.0 && np - *ni > 1.0) || (d <= -1.0 && nm - *ni < -1.0) {
        let d = d.signum();
        let parabolic = *qi
            + d / (np - nm)
                * ((*ni - nm + d) * (qp - *qi) / (np - *ni)
                    + (np - *ni - d) * (*qi - qm) / (*ni - nm));
        *qi = if qm < parabolic && parabolic < qp {
            parabolic
        } else {
            // Linear towards the neighbour on `d`'s side.
            let (qj, nj) = if d > 0.0 { (qp, np) } else { (qm, nm) };
            *qi + d * (qj - *qi) / (nj - *ni)
        };
        *ni += d;
    }
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

/// The dense table: `tails[slot]` belongs to `rows[slot]`, one pair per
/// row from the row's first packet.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    index: HashMap<FlowKey, u32>,
    rows: Vec<(FlowKey, FlowAccumulator)>,
    /// Empty unless `quantile_p` is set.
    tails: Vec<FlowTails>,
    estimates: u64,
    quantile_p: Option<f64>,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table that additionally tracks the `p`-quantile of each
    /// flow's delays with P² trackers.
    pub fn with_quantile(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0,1)");
        FlowTable {
            quantile_p: Some(p),
            ..Self::default()
        }
    }

    /// Record one per-packet estimate (and optionally its ground truth).
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

    /// Merge another table into this one: moments merge exactly, a flow
    /// both sides observed has its trackers poisoned, and a flow arriving
    /// from a table that tracks no quantile, or another one, arrives
    /// without a tail.
    pub fn merge(&mut self, other: FlowTable) {
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
}
