//! Trace statistics.
//!
//! Computes the summary numbers the paper quotes for its traces ("the number
//! of packets is about 22.4M and the number of flows is about 1.45M") so
//! generated workloads can be validated against the same yardsticks.

use crate::synthetic::Trace;
use rlir_net::fxhash::FxHashMap;
use rlir_net::time::SimTime;
use rlir_net::FlowKey;
use rlir_stats::StreamingStats;

/// Summary statistics of a trace.
#[derive(Debug, Clone)]
pub struct TraceStats {
    /// Total packets.
    pub packets: u64,
    /// Distinct 5-tuples.
    pub flows: u64,
    /// Total bytes.
    pub bytes: u64,
    /// Mean packet size in bytes.
    pub mean_packet_size: f64,
    /// Mean packets per flow.
    pub mean_flow_pkts: f64,
    /// Offered rate in bits/s over the trace duration.
    pub offered_bps: f64,
    /// Offered rate as a fraction of the trace's link rate.
    pub utilization: f64,
    /// Timestamp of the first packet.
    pub first_packet: Option<SimTime>,
    /// Timestamp of the last packet.
    pub last_packet: Option<SimTime>,
}

impl TraceStats {
    /// Compute statistics for `trace`.
    pub fn compute(trace: &Trace) -> TraceStats {
        let mut sizes = StreamingStats::new();
        let mut bytes = 0u64;
        let mut per_flow: FxHashMap<FlowKey, u64> = FxHashMap::default();
        let mut first = None;
        let mut last = None;
        for p in &trace.packets {
            sizes.push(p.size as f64);
            bytes += p.size as u64;
            *per_flow.entry(p.flow).or_insert(0) += 1;
            first = Some(first.map_or(p.created_at, |f: SimTime| f.min(p.created_at)));
            last = Some(last.map_or(p.created_at, |l: SimTime| l.max(p.created_at)));
        }
        let packets = trace.packets.len() as u64;
        let flows = per_flow.len() as u64;
        let secs = trace.duration.as_secs_f64();
        let offered_bps = if secs > 0.0 {
            bytes as f64 * 8.0 / secs
        } else {
            0.0
        };
        TraceStats {
            packets,
            flows,
            bytes,
            mean_packet_size: sizes.mean().unwrap_or(0.0),
            mean_flow_pkts: if flows > 0 {
                packets as f64 / flows as f64
            } else {
                0.0
            },
            offered_bps,
            utilization: if trace.link_rate_bps > 0 {
                offered_bps / trace.link_rate_bps as f64
            } else {
                0.0
            },
            first_packet: first,
            last_packet: last,
        }
    }
}

impl core::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} pkts, {} flows ({:.1} pkts/flow), {:.1} MB, avg pkt {:.0} B, {:.2} Gb/s ({:.1}% util)",
            self.packets,
            self.flows,
            self.mean_flow_pkts,
            self.bytes as f64 / 1e6,
            self.mean_packet_size,
            self.offered_bps / 1e9,
            self.utilization * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, TraceConfig};
    use rlir_net::time::SimDuration;

    #[test]
    fn stats_of_generated_trace() {
        let cfg = TraceConfig::paper_regular(9, SimDuration::from_millis(200));
        let t = generate(&cfg);
        let s = TraceStats::compute(&t);
        assert_eq!(s.packets, t.packets.len() as u64);
        assert!(s.flows > 0 && s.flows <= s.packets);
        assert!(s.mean_packet_size > 40.0 && s.mean_packet_size < 1500.0);
        assert!(s.mean_flow_pkts >= 1.0);
        assert!((s.utilization - t.offered_utilization()).abs() < 1e-9);
        assert!(s.first_packet.unwrap() <= s.last_packet.unwrap());
    }

    #[test]
    fn stats_of_empty_trace() {
        let t = Trace::empty(1_000_000_000, SimDuration::from_secs(1));
        let s = TraceStats::compute(&t);
        assert_eq!(s.packets, 0);
        assert_eq!(s.flows, 0);
        assert_eq!(s.utilization, 0.0);
        assert!(s.first_packet.is_none());
    }

    #[test]
    fn display_mentions_flows() {
        let cfg = TraceConfig::paper_regular(9, SimDuration::from_millis(20));
        let s = TraceStats::compute(&generate(&cfg));
        let text = s.to_string();
        assert!(text.contains("flows"), "{text}");
        assert!(text.contains("util"), "{text}");
    }
}
