//! The capture pair's seed-era matcher, kept as an oracle: a hash map from
//! wire identity to point-A stamp, a FIFO of every stamp for timeout
//! eviction (popped while its front is past `watermark − timeout`), and a
//! `HashMap<FlowKey, u32>` naming each flow's row.
//!
//! The FIFO is in point-A observation order. Where point A sees stamps out
//! of time order, an old stamp can sit behind a newer front and be evicted
//! late; the product books a stamp the moment the horizon passes it. The
//! oracle tallies each such late stamp by what became of it (`late_*`), so
//! a test can name the difference instead of filtering those streams out.

use rlir::TapPoint;
use rlir_net::fxhash::FxHashMap;
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
use rlir_sim::{HopEvent, HopKind, HopSink};
use std::collections::VecDeque;

type CaptureKey = (FlowKey, u16);

fn observes(point: TapPoint, ev: &HopEvent<'_>) -> bool {
    match point {
        TapPoint::NodeArrival(n) => ev.node == n && matches!(ev.kind, HopKind::Arrive),
        TapPoint::PortDeparture(n, p) => {
            ev.node == n && matches!(ev.kind, HopKind::Dequeue { port, .. } if port == p)
        }
        TapPoint::Delivery(n) => ev.node == n && matches!(ev.kind, HopKind::Deliver),
    }
}

/// What the oracle reports: the product's counters, and the stamps its
/// FIFO evicted late.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    pub matched: u64,
    pub unmatched_b: u64,
    pub ambiguous: u64,
    pub expired: u64,
    pub residual: u64,
    /// Per-flow `(count, sum_ns, min_ns, max_ns)`, sorted by flow key.
    pub flows: Vec<(FlowKey, [u64; 4])>,
    /// Matches of a stamp already past the horizon.
    pub late_matched: u64,
    /// Re-stamps over a stamp already past the horizon.
    pub late_restamped: u64,
    /// Stamps past the horizon still pending at the end.
    pub late_residual: u64,
    /// Per flow, the `(count, sum_ns)` of its late matches, sorted by key.
    pub late_flows: Vec<(FlowKey, (u64, u64))>,
}

#[derive(Debug)]
pub struct FifoCapturePair {
    a: TapPoint,
    b: TapPoint,
    timeout_ns: u64,
    horizon: u64,
    pending: FxHashMap<CaptureKey, u64>,
    fifo: VecDeque<(u64, CaptureKey)>,
    index: FxHashMap<FlowKey, u32>,
    flows: Vec<(FlowKey, [u64; 4])>,
    late: FxHashMap<FlowKey, (u64, u64)>,
    report: OracleReport,
}

impl FifoCapturePair {
    pub fn new(a: TapPoint, b: TapPoint, timeout: SimDuration) -> Self {
        FifoCapturePair {
            a,
            b,
            timeout_ns: timeout.as_nanos(),
            horizon: 0,
            pending: FxHashMap::default(),
            fifo: VecDeque::new(),
            index: FxHashMap::default(),
            flows: Vec::new(),
            late: FxHashMap::default(),
            report: OracleReport::default(),
        }
    }

    fn key(ev: &HopEvent<'_>) -> CaptureKey {
        (ev.packet.flow, (ev.packet.id.0 & 0xFFFF) as u16)
    }

    fn record(&mut self, flow: FlowKey, delta_ns: u64) {
        let next = self.flows.len();
        let slot = *self
            .index
            .entry(flow)
            .or_insert_with(|| u32::try_from(next).expect("at most 2^32 flows"))
            as usize;
        if slot == next {
            self.flows.push((flow, [0; 4]));
        }
        let [count, sum, min, max] = &mut self.flows[slot].1;
        if *count == 0 {
            (*min, *max) = (delta_ns, delta_ns);
        } else {
            (*min, *max) = ((*min).min(delta_ns), (*max).max(delta_ns));
        }
        *count += 1;
        *sum += delta_ns;
    }

    pub fn finish(mut self) -> OracleReport {
        let horizon = self.horizon;
        let mut r = self.report;
        r.residual = self.pending.len() as u64;
        r.late_residual = self.pending.values().filter(|&&t| t < horizon).count() as u64;
        self.flows.sort_unstable_by_key(|&(key, _)| key);
        r.flows = self.flows;
        r.late_flows = self.late.into_iter().collect();
        r.late_flows.sort_unstable_by_key(|&(key, _)| key);
        r
    }
}

impl HopSink for FifoCapturePair {
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        if observes(self.a, ev) {
            let key = Self::key(ev);
            if let Some(old) = self.pending.insert(key, ev.at.as_nanos()) {
                self.report.ambiguous += 1;
                self.report.late_restamped += u64::from(old < self.horizon);
            }
            self.fifo.push_back((ev.at.as_nanos(), key));
        } else if observes(self.b, ev) {
            let key = Self::key(ev);
            match self.pending.remove(&key) {
                Some(t_a) => {
                    self.report.matched += 1;
                    let delta = ev.at.as_nanos().saturating_sub(t_a);
                    if t_a < self.horizon {
                        self.report.late_matched += 1;
                        let (count, sum) = self.late.entry(key.0).or_default();
                        (*count, *sum) = (*count + 1, *sum + delta);
                    }
                    self.record(key.0, delta);
                }
                None => self.report.unmatched_b += 1,
            }
        }
    }

    fn on_watermark(&mut self, watermark: SimTime) {
        let horizon = watermark.as_nanos().saturating_sub(self.timeout_ns);
        self.horizon = horizon;
        while let Some(&(stamp, key)) = self.fifo.front() {
            if stamp >= horizon {
                break;
            }
            self.fifo.pop_front();
            if self.pending.get(&key) == Some(&stamp) {
                self.pending.remove(&key);
                self.report.expired += 1;
            }
        }
    }
}
