//! The "Multiflow" opportunistic estimator (Lee et al., Infocom 2010).
//!
//! §5: "the two timestamps already stored on a per-flow basis within NetFlow
//! were exploited to obtain a crude estimator called Multiflow estimator."
//! Given a flow's NetFlow record at an upstream and a downstream measurement
//! point, the flow's first and last packets each provide one delay sample —
//! "two samples are enough" — and their average is the per-flow latency
//! estimate. The estimator is per-flow (unlike LDA) but far cruder than RLI:
//! it is exact only for two-packet flows with no loss or reordering.

use rlir_net::fxhash::FxHashMap;
use rlir_net::FlowKey;
use rlir_trace::FlowRecord;

/// Per-flow Multiflow estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiflowEstimate {
    /// The flow.
    pub flow: FlowKey,
    /// Delay of the first packet (downstream first − upstream first), ns.
    pub first_delay_ns: i64,
    /// Delay of the last packet, ns.
    pub last_delay_ns: i64,
    /// The estimator's output: mean of the two samples, ns.
    pub mean_delay_ns: f64,
    /// Packets in the upstream record (context for confidence).
    pub packets: u64,
}

/// Estimate one flow from its two records. Returns `None` when the records
/// disagree on packet counts (loss makes first/last matching unsound).
pub fn estimate_flow(up: &FlowRecord, down: &FlowRecord) -> Option<MultiflowEstimate> {
    if up.key != down.key || up.packets != down.packets || up.packets == 0 {
        return None;
    }
    let first = down.first.signed_delta_nanos(up.first);
    let last = down.last.signed_delta_nanos(up.last);
    Some(MultiflowEstimate {
        flow: up.key,
        first_delay_ns: first,
        last_delay_ns: last,
        mean_delay_ns: (first + last) as f64 / 2.0,
        packets: up.packets,
    })
}

/// Join two record sets by flow key and estimate every matchable flow.
/// Records are matched 1:1 in (first-timestamp) order per key; flows whose
/// record counts differ between the points are skipped.
pub fn estimate_all(up: &[FlowRecord], down: &[FlowRecord]) -> Vec<MultiflowEstimate> {
    let mut down_by_key: FxHashMap<FlowKey, Vec<&FlowRecord>> = FxHashMap::default();
    for r in down {
        down_by_key.entry(r.key).or_default().push(r);
    }
    let mut up_by_key: FxHashMap<FlowKey, Vec<&FlowRecord>> = FxHashMap::default();
    for r in up {
        up_by_key.entry(r.key).or_default().push(r);
    }
    let mut out = Vec::new();
    for (key, mut ups) in up_by_key {
        let Some(mut downs) = down_by_key.remove(&key) else {
            continue;
        };
        if ups.len() != downs.len() {
            continue;
        }
        ups.sort_by_key(|r| r.first);
        downs.sort_by_key(|r| r.first);
        for (u, d) in ups.iter().zip(&downs) {
            if let Some(e) = estimate_flow(u, d) {
                out.push(e);
            }
        }
    }
    out.sort_by_key(|e| e.flow);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_net::time::{SimDuration, SimTime};
    use rlir_trace::{FlowMeter, FlowMeterConfig};
    use std::net::Ipv4Addr;

    fn key(i: u8) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, i),
            5,
            Ipv4Addr::new(10, 9, 0, 1),
            80,
        )
    }

    fn record(k: FlowKey, first_ns: u64, last_ns: u64, packets: u64) -> FlowRecord {
        FlowRecord {
            key: k,
            first: SimTime::from_nanos(first_ns),
            last: SimTime::from_nanos(last_ns),
            packets,
            bytes: packets * 100,
        }
    }

    #[test]
    fn two_sample_average() {
        let up = record(key(1), 1000, 9000, 5);
        let down = record(key(1), 1400, 9800, 5);
        let e = estimate_flow(&up, &down).unwrap();
        assert_eq!(e.first_delay_ns, 400);
        assert_eq!(e.last_delay_ns, 800);
        assert_eq!(e.mean_delay_ns, 600.0);
    }

    #[test]
    fn count_mismatch_rejected() {
        let up = record(key(1), 0, 10, 5);
        let down = record(key(1), 1, 11, 4); // one packet lost
        assert!(estimate_flow(&up, &down).is_none());
        let other = record(key(2), 1, 11, 5);
        assert!(estimate_flow(&up, &other).is_none(), "key mismatch");
    }

    #[test]
    fn join_matches_by_key() {
        let up = vec![record(key(1), 0, 100, 2), record(key(2), 50, 60, 1)];
        let down = vec![record(key(2), 55, 65, 1), record(key(1), 10, 120, 2)];
        let ests = estimate_all(&up, &down);
        assert_eq!(ests.len(), 2);
        let e1 = ests.iter().find(|e| e.flow == key(1)).unwrap();
        assert_eq!(e1.mean_delay_ns, 15.0);
        let e2 = ests.iter().find(|e| e.flow == key(2)).unwrap();
        assert_eq!(e2.mean_delay_ns, 5.0);
    }

    #[test]
    fn unmatched_flows_skipped() {
        let up = vec![record(key(1), 0, 100, 2)];
        let down: Vec<FlowRecord> = vec![];
        assert!(estimate_all(&up, &down).is_empty());
    }

    #[test]
    fn integrates_with_flow_meter() {
        // Meter the same packets at two points with a constant 250 ns shift.
        let mut up = FlowMeter::new(FlowMeterConfig::default());
        let mut down = FlowMeter::new(FlowMeterConfig::default());
        for i in 0..10u64 {
            let at = SimTime::from_micros(i * 3);
            up.observe_at(key(3), at, 100);
            down.observe_at(key(3), at + SimDuration::from_nanos(250), 100);
        }
        let ests = estimate_all(&up.finish(), &down.finish());
        assert_eq!(ests.len(), 1);
        assert_eq!(ests[0].mean_delay_ns, 250.0);
        let err = rlir_stats::relative_error(ests[0].mean_delay_ns, 250.0);
        assert_eq!(err, 0.0);
    }

    #[test]
    fn crude_for_varying_delay() {
        // First and last packets happen to see small delays while the middle
        // of the flow queued badly — Multiflow cannot see it (that is the
        // point of RLI's per-packet interpolation).
        let up = record(key(4), 0, 10_000, 50);
        let down = record(key(4), 100, 10_100, 50);
        let e = estimate_flow(&up, &down).unwrap();
        assert_eq!(e.mean_delay_ns, 100.0);
        // True mean including the congested middle was, say, 2 µs:
        let err = rlir_stats::relative_error(e.mean_delay_ns, 2000.0);
        assert!(err > 0.9, "Multiflow should look crude here, err {err}");
    }
}
