//! A flow table that keeps every delay and sorts to answer. `rlir_rli::FlowTable`
//! keeps four largest a side, so its quantile must be the nearest rank — the
//! `k`-th largest — when `k ≤ 4`, else the fourth largest with
//! `quantile_is_bound` set, bit for bit. Counts and flows must agree exactly,
//! moments within 1e-9 relative (the table merges Welford moments), and each
//! relative error is `relative_error` of the row's own estimate and truth,
//! bit for bit, `None` wherever either side is.

use rlir_net::FlowKey;
use rlir_rli::FlowReport;
use rlir_stats::relative_error;
use std::collections::BTreeMap;

/// A flow table that keeps every delay.
#[derive(Debug, Clone, Default)]
pub struct ExactTails {
    p: Option<f64>,
    flows: BTreeMap<FlowKey, Vec<(f64, Option<f64>)>>,
}

/// Bits of the nearest rank if among the four largest, else of the fourth and `true`.
fn tail(p: Option<f64>, delays: &[f64]) -> (Option<u64>, bool) {
    let mut largest_first = delays.to_vec();
    largest_first.sort_by(|a, b| b.total_cmp(a));
    let n = largest_first.len();
    let rank = |p: f64| ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    match p.and_then(|p| n.checked_sub(rank(p))) {
        None => (None, false),
        Some(k) => (Some(largest_first[k.min(3)].to_bits()), k > 3),
    }
}

/// Mean and population standard deviation (of at least two), two-pass.
fn moments(xs: &[f64]) -> [Option<f64>; 2] {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    [(n >= 1.0).then_some(mean), (n >= 2.0).then(|| var.sqrt())]
}

fn close(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
        (a, b) => a.is_none() && b.is_none(),
    }
}

impl ExactTails {
    /// An empty table reporting the `p`-quantile, if any.
    pub fn new(p: Option<f64>) -> Self {
        ExactTails {
            p,
            ..Self::default()
        }
    }

    /// Keep one estimate and its truth.
    pub fn record(&mut self, flow: FlowKey, est: f64, truth: Option<f64>) {
        self.flows.entry(flow).or_default().push((est, truth));
    }

    /// Every flow's delays become the union; our `p` stays.
    pub fn merge(&mut self, other: ExactTails) {
        for (flow, obs) in other.flows {
            self.flows.entry(flow).or_default().extend(obs);
        }
    }

    /// `report(min_packets)` of a table fed what this one was, checked.
    pub fn check(
        &self,
        rows: impl ExactSizeIterator<Item = FlowReport>,
        min_packets: u64,
    ) -> Result<(), String> {
        let want: Vec<_> = (self.flows.iter())
            .filter(|(_, obs)| obs.len() as u64 >= min_packets.max(1))
            .collect();
        if rows.len() != want.len() {
            return Err(format!("{} rows for {} flows", rows.len(), want.len()));
        }
        for (row, (flow, obs)) in rows.zip(want) {
            let ests: Vec<f64> = obs.iter().map(|o| o.0).collect();
            let truths: Vec<f64> = obs.iter().filter_map(|o| o.1).collect();
            let ([est_mean, est_std], [true_mean, true_std]) = (moments(&ests), moments(&truths));
            let ((est_q, est_bound), (true_q, true_bound)) =
                (tail(self.p, &ests), tail(self.p, &truths));
            let bits = |x: Option<f64>| x.map(f64::to_bits);
            let rel =
                |e: Option<f64>, t: Option<f64>| bits(e.zip(t).map(|(e, t)| relative_error(e, t)));
            let exact = (row.flow, row.packets, row.quantile_is_bound)
                == (*flow, ests.len() as u64, est_bound || true_bound)
                && (bits(row.est_quantile), bits(row.true_quantile)) == (est_q, true_q)
                && bits(row.mean_rel_err) == rel(Some(row.est_mean), row.true_mean)
                && bits(row.std_rel_err) == rel(row.est_std, row.true_std)
                && bits(row.quantile_rel_err) == rel(row.est_quantile, row.true_quantile);
            let near = close(Some(row.est_mean), est_mean)
                && close(row.est_std, est_std)
                && close(row.true_mean, true_mean)
                && close(row.true_std, true_std);
            if !(exact && near) {
                return Err(format!("{row:?} vs delays {ests:?} / {truths:?}"));
            }
        }
        Ok(())
    }
}
