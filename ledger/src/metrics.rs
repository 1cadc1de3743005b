//! The metric registry: every name the ledger prints, with its unit, its
//! direction, the regression bound of the end-to-end ones and — for layer
//! metrics — which end-to-end metric it should move, and where.
//! `BENCHMARK.json` lists the same names, units and directions; a unit
//! test keeps the two from drifting apart.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before the change counts as a regression.
    pub bound: f64,
    /// For layer metrics: the end-to-end metric (and workload) the layer
    /// should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        moves,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, per workload.
///
/// The bounds are what the host allows, not what one would wish: whoever
/// re-runs the ledger draws a fresh seed per run, so even the exact metrics
/// spread by a few percent between runs (the traffic differs), and on the
/// shared 2-vCPU host whole minutes run at two thirds speed, which spreads
/// throughput by 10–25 % between runs of one commit however it is averaged
/// inside a run. A bound below the spread would reject the benchmark's own
/// baseline. Changes are judged in alternating pairs, which cancels most of
/// that; `ledger compare` on one seed is exact for the exact metrics.
pub const END_TO_END: &[MetricDef] = &[
    e2e("pkts_per_s", "records/s", Higher, 0.25),
    e2e("peak_rss_bytes", "B", Lower, 0.15),
    e2e("peak_state_bytes", "B", Lower, 0.15),
    e2e("ok_share", "ratio", Higher, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
];

const QUALITY: &str = "gated by the benchmark itself (see README: estimate quality)";
const TRACE: &str = "pkts_per_s on tandem_replay; <= 5 % on fleet_*; none on incast_*";
const SENDER: &str = "pkts_per_s on tandem_replay only";
const SIM: &str = "pkts_per_s on incast_engine and incast_keyed; ~1/5 on fleet_e2e";
const SIM_MEM: &str = "peak_state_bytes on incast_*";
const SHARD: &str = "pkts_per_s on incast_keyed";
const TOPO: &str = "pkts_per_s on incast_engine and fleet_e2e; none on tandem_replay";
const PLANE: &str = "pkts_per_s on fleet_e2e and fleet_overload; nothing on incast_*";
const PLANE_MEM: &str = "peak_state_bytes and peak_rss_bytes on fleet_e2e";
const PLANE_ADMIT: &str = "ok_share and pkts_per_s on fleet_overload";
const DETECT: &str = "ttl_ms on fleet_e2e; < 1 % of pkts_per_s";
const CAPTURE: &str = "pkts_per_s on tandem_replay only";
const REPORT: &str = "pkts_per_s on fleet_e2e";
const LEDGER: &str = "the harness itself; moves nothing";
const LADDER: &str = "cross-check of the span self times; moves nothing";
const KERNEL: &str = "the layer's per-call cost alone, outside any workload";

/// Single layers, from one traced repetition (spans), the deterministic
/// books (counts), the subtractive ladder and the isolated kernels.
pub const PER_LAYER: &[MetricDef] = &[
    // Estimate quality and failures: exact, seed-deterministic.
    layer("flow_mean_relerr_p50", "ratio", Lower, QUALITY),
    layer("flow_std_relerr_p50", "ratio", Lower, QUALITY),
    layer("flow_p99_relerr_p50", "ratio", Lower, QUALITY),
    layer("failed_share", "ratio", Lower, QUALITY),
    layer("ttl_ms", "ms", Lower, QUALITY),
    // trace: rlir_trace::{pcap, replay}
    layer("trace.records", "count", Higher, TRACE),
    layer("trace.busy_s", "s", Lower, TRACE),
    layer("trace.ns_per_rec", "ns", Lower, TRACE),
    layer("trace.share", "ratio", Lower, TRACE),
    layer(
        "trace.peak_buffered",
        "count",
        Lower,
        "peak_state_bytes on tandem_replay",
    ),
    layer(
        "trace.late_dropped",
        "count",
        Lower,
        "ok_share on tandem_replay",
    ),
    layer("trace.skipped", "count", Lower, "ok_share on tandem_replay"),
    // rli.sender
    layer("rli.sender.busy_s", "s", Lower, SENDER),
    layer("rli.sender.ns_per_observe", "ns", Lower, SENDER),
    layer("rli.sender.refs_emitted", "count", Lower, SENDER),
    // sim: network + sched + slab + queue
    layer("sim.events", "count", Lower, SIM),
    layer("sim.self_s", "s", Lower, SIM),
    layer("sim.self_share", "ratio", Lower, SIM),
    layer("sim.ns_per_event", "ns", Lower, SIM),
    layer("sim.events_per_s", "1/s", Higher, SIM),
    layer("sim.peak_live_slots", "count", Lower, SIM_MEM),
    layer("sim.hop_allocations", "count", Lower, SIM_MEM),
    layer(
        "sim.queue_drops",
        "count",
        Lower,
        "none: part of the workload",
    ),
    layer(
        "sim.route_drops",
        "count",
        Lower,
        "none: part of the workload",
    ),
    layer(
        "sim.fault_drops",
        "count",
        Lower,
        "none: part of the workload",
    ),
    // sim.shard
    layer("sim.shard.windows", "count", Lower, SHARD),
    layer("sim.shard.stalls", "count", Lower, SHARD),
    layer("sim.shard.s2_windows", "count", Lower, SHARD),
    layer("sim.shard.s2_stalls", "count", Lower, SHARD),
    layer(
        "sim.shard.s2_wall_ratio",
        "ratio",
        Lower,
        "informational, never gated",
    ),
    // topo: FatTreeFabric::route + ECMP hash
    layer("topo.route_calls", "count", Lower, TOPO),
    layer("topo.busy_s", "s", Lower, TOPO),
    layer("topo.ns_per_route", "ns", Lower, TOPO),
    // plane: rlir::plane over rli::{receiver, interpolate, flowstats, epoch}
    layer("plane.hop_calls", "count", Lower, PLANE),
    layer("plane.hop_busy_s", "s", Lower, PLANE),
    layer("plane.watermark_calls", "count", Lower, PLANE),
    layer("plane.watermark_busy_s", "s", Lower, PLANE),
    layer("plane.share", "ratio", Lower, PLANE),
    layer("plane.ns_per_obs", "ns", Lower, PLANE),
    layer("plane.offered", "count", Higher, PLANE_ADMIT),
    layer("plane.admitted", "count", Higher, PLANE_ADMIT),
    layer(
        "plane.estimated",
        "count",
        Higher,
        "the accuracy trio on fleet_e2e and tandem_replay",
    ),
    layer(
        "plane.est_share",
        "ratio",
        Higher,
        "the accuracy trio on fleet_e2e and tandem_replay",
    ),
    layer("plane.shed", "count", Lower, PLANE_ADMIT),
    layer("plane.late", "count", Lower, PLANE_ADMIT),
    layer("plane.lost_window_obs", "count", Lower, PLANE_ADMIT),
    layer("plane.peak_pending_total", "count", Lower, PLANE_MEM),
    layer("plane.peak_state_bytes", "B", Lower, PLANE_MEM),
    layer("plane.bytes_per_pending", "B", Lower, PLANE_MEM),
    layer("plane.tenant0_shed_share", "ratio", Lower, PLANE_ADMIT),
    layer("plane.tenant1_shed_share", "ratio", Lower, PLANE_ADMIT),
    layer("plane.query_us", "us", Lower, PLANE),
    layer("sentinel.hop_busy_s", "s", Lower, PLANE),
    layer("sentinel.watermark_busy_s", "s", Lower, PLANE),
    layer(
        "sentinel.metered",
        "count",
        Higher,
        "the accuracy trio on fleet_e2e",
    ),
    layer(
        "sentinel.estimated",
        "count",
        Higher,
        "the accuracy trio on fleet_e2e",
    ),
    layer(
        "sentinel.est_share",
        "ratio",
        Higher,
        "the accuracy trio on fleet_e2e",
    ),
    layer("sentinel.late", "count", Lower, "ok_share on fleet_e2e"),
    // detect
    layer("detect.polls", "count", Lower, DETECT),
    layer("detect.busy_s", "s", Lower, DETECT),
    layer("detect.alarms", "count", Lower, DETECT),
    layer("detect.false_alarms", "count", Lower, DETECT),
    // capture
    layer("capture.busy_s", "s", Lower, CAPTURE),
    layer("capture.matched", "count", Higher, CAPTURE),
    layer("capture.evicted", "count", Lower, CAPTURE),
    layer("capture.vs_truth_relerr", "ratio", Lower, CAPTURE),
    // report
    layer("report.finish_s", "s", Lower, REPORT),
    layer("report.localize_s", "s", Lower, REPORT),
    layer("report.taps", "count", Lower, REPORT),
    layer("report.flows", "count", Lower, REPORT),
    layer("report.epochs", "count", Lower, REPORT),
    // ledger: the harness itself
    layer("ledger.span_cost_ns", "ns", Lower, LEDGER),
    layer("ledger.trace_overhead", "ratio", Lower, LEDGER),
    layer("ledger.stream_digest", "count", Lower, LEDGER),
    layer("ledger.ops", "count", Higher, LEDGER),
    layer("ledger.failed_ops", "count", Lower, LEDGER),
    // the subtractive ladder
    layer("ladder.engine_s", "s", Lower, LADDER),
    layer("ladder.ingest_s", "s", Lower, LADDER),
    layer("ladder.plane_s", "s", Lower, LADDER),
    layer("ladder.detect_s", "s", Lower, LADDER),
    layer("ladder.gap.engine", "ratio", Lower, LADDER),
    layer("ladder.gap.ingest", "ratio", Lower, LADDER),
    layer("ladder.gap.plane", "ratio", Lower, LADDER),
    layer("ladder.gap.detect", "ratio", Lower, LADDER),
    // isolated kernels
    layer("trace.decode_ns_per_rec", "ns", Lower, KERNEL),
    layer("trace.decode_lenient_ns_per_rec", "ns", Lower, KERNEL),
    layer("trace.replay_window_ns_per_rec", "ns", Lower, KERNEL),
    layer("rli.receiver.ns_per_obs", "ns", Lower, KERNEL),
    layer("rli.flowstats.ns_per_record", "ns", Lower, KERNEL),
    layer("rli.flowstats.ns_per_record_q99", "ns", Lower, KERNEL),
    layer("topo.ns_per_route_alone", "ns", Lower, KERNEL),
];

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::workloads::Workload;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let doc = manifest();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(m.name.len() <= 64 && m.name.chars().all(ok), "{}", m.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(m.unit.len() <= 16 && m.unit.chars().all(ok), "{}", m.unit);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(end_to_end("setup_s").is_some_and(|m| m.unit == "s" && m.better == Lower));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
    }
}
