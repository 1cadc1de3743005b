//! RLIR on the fat-tree: the architecture of §3 end-to-end.
//!
//! Measured traffic flows from several source ToRs to one destination ToR
//! (the paper's T1 → T7) across a fabric loaded with background traffic.
//! The [`Deployment`] lays the RLIR instances out: the path is split into
//! two segments at the cores, `ToR → core` and `core → ToR`, each measured
//! by its own sender/receiver pairs with the receiver-side demultiplexing
//! of §3.1. This module only runs it.
//!
//! The experiment is one simulation. The deployment's senders run in-band
//! ([`Deployment::senders`]): a ToR-uplink sender meters the measured
//! packets leaving by its uplink, a core sender every regular packet its
//! core forwards, and each puts its references right behind the trigger.
//! Its receivers ([`Deployment::attach`]) tap the same run's hop stream.
//!
//! Outputs cover the demux ablation (A1/A3: naive vs marking vs
//! reverse-ECMP association accuracy and the resulting estimation error)
//! and the per-segment observations consumed by the anomaly localizer (A5).

use crate::demux::{CoreDemux, RlirDemux};
use crate::deployment::Deployment;
use crate::detect::{ClosedLoopSink, Detection, DetectorConfig};
use crate::fabric::{build_network, FatTreeFabric};
use crate::localization::SegmentObservation;
use crate::plane::{MeasurementPlane, PlaneConfig, TenantReport};
use rlir_net::packet::Packet;
use rlir_net::time::SimDuration;
use rlir_net::HashAlgo;
use rlir_rli::{EpochSeries, FlowTable, PolicyKind, ReceiverCounters};
use rlir_sim::{
    run_network_streamed_source, FaultScript, QueueConfig, RunOptions, SortedVecSource, StopFlag,
    StreamedDelivery,
};
use rlir_topo::{FatTree, Role, TopoId};

/// A deliberate latency fault at one switch (a core, an aggregation or a
/// ToR switch) — what the localizer must find.
#[derive(Debug, Clone, Copy)]
pub struct SwitchAnomaly {
    /// The afflicted switch.
    pub node: TopoId,
    /// Extra per-packet processing delay at that switch.
    pub extra_processing: SimDuration,
}

/// The extra per-packet processing a victim switch suffers in the
/// localization, fault and chaos sweeps: the anomaly the detector's
/// defaults are tuned to.
pub(super) const ANOMALY: SimDuration = SimDuration::from_micros(400);

/// Fat-tree experiment configuration.
#[derive(Debug, Clone)]
pub struct FatTreeExpConfig {
    /// Fat-tree arity (the paper's Fig. 1 is k = 4).
    pub k: usize,
    /// Master seed.
    pub seed: u64,
    /// Trace duration.
    pub duration: SimDuration,
    /// Base ECMP hash family.
    pub hash: HashAlgo,
    /// Number of measured source ToRs (taken from pods other than the
    /// destination's).
    pub n_src_tors: usize,
    /// Offered load per measured source ToR (fraction of an edge link).
    pub measured_load: f64,
    /// Offered load per background ToR.
    pub background_load: f64,
    /// Injection policy for every sender.
    pub policy: PolicyKind,
    /// Downstream demultiplexing strategy.
    pub demux: CoreDemux,
    /// Queue parameters of every switch port.
    pub queue: QueueConfig,
    /// Link propagation delay.
    pub link_delay: SimDuration,
    /// Optional latency fault.
    pub anomaly: Option<SwitchAnomaly>,
    /// Optional synchronized burst envelope applied to every *measured*
    /// source trace (the incast regime: all sources transmit in the same
    /// windows, fan-in collides at the destination's downlink).
    pub burst: Option<rlir_trace::BurstShape>,
    /// Flow filter for error CDFs.
    pub min_flow_packets: u64,
    /// The measurement plane's reorder window, epoch width and budget.
    /// With [`PlaneConfig::epoch`] set every tap also exports an
    /// [`EpochSeries`] ([`FatTreeOutcome::segment_epochs`]).
    pub plane: PlaneConfig,
    /// Tenant assignment for the plane's taps: `Some((w1, w2))` places the
    /// segment-1 taps in tenant 0 with weight `w1` and the segment-2 taps
    /// in tenant 1 with weight `w2` — weighted guaranteed shares of the
    /// plane's [`PlaneConfig::pending_budget`], with work-conserving
    /// borrowing (see [`crate::plane::TenantId`]). `None` (the default) keeps every
    /// tap in the single default tenant, byte-identical to the pre-tenant
    /// plane.
    pub tenant_split: Option<(u64, u64)>,
}

impl FatTreeExpConfig {
    /// Paper-flavoured defaults: k=4 fabric, static 1-and-100 senders,
    /// reverse-ECMP demux, moderate load.
    pub fn paper(seed: u64, duration: SimDuration) -> Self {
        FatTreeExpConfig {
            k: 4,
            seed,
            duration,
            hash: HashAlgo::Crc32 { seed: 0xD47A },
            n_src_tors: 2,
            measured_load: 0.10,
            background_load: 0.15,
            policy: PolicyKind::Static { n: 100 },
            demux: CoreDemux::ReverseEcmp,
            queue: QueueConfig::oc192(),
            link_delay: SimDuration::from_micros(1),
            anomaly: None,
            burst: None,
            min_flow_packets: 1,
            plane: PlaneConfig {
                epoch: Some(SimDuration::from_millis(5)),
                ..PlaneConfig::default()
            },
            tenant_split: None,
        }
    }

    /// The measured destination ToR this configuration targets (first ToR
    /// of the last pod).
    pub fn dst_tor(&self, tree: &FatTree) -> TopoId {
        tree.tor(self.k - 1, 0)
    }

    /// The measured source ToRs: round-robin over pods other than the
    /// destination's.
    pub fn src_tors(&self, tree: &FatTree) -> Vec<TopoId> {
        let half = tree.half();
        (0..self.n_src_tors)
            .map(|i| tree.tor(i % (self.k - 1), (i / (self.k - 1)) % half))
            .collect()
    }

    /// The deployment measuring [`Self::src_tors`] → [`Self::dst_tor`].
    pub fn deployment(&self, tree: &FatTree) -> Deployment {
        Deployment::for_destination(tree, &self.src_tors(tree), self.dst_tor(tree))
    }

    /// The run's injections: the [measured traces](measured_traces), each
    /// entering at its source ToR, then the [background](background_injections).
    pub fn injections(&self, tree: &FatTree) -> Vec<(TopoId, Packet)> {
        let mut injections = Vec::new();
        for (src, trace) in &measured_traces(self, tree) {
            injections.extend(trace.packets.iter().map(|p| (*src, *p)));
        }
        injections.extend(background_injections(self, tree));
        injections
    }
}

/// Outcome of one fat-tree run.
#[derive(Debug, Clone)]
pub struct FatTreeOutcome {
    /// Segment-1 (source ToR → core) per-flow table, merged over receivers.
    pub seg1_flows: FlowTable,
    /// Segment-2 (core → destination ToR) per-flow table.
    pub seg2_flows: FlowTable,
    /// Per-flow mean relative errors, segment 1.
    pub seg1_errors: Vec<f64>,
    /// Per-flow mean relative errors, segment 2.
    pub seg2_errors: Vec<f64>,
    /// Measured regular packets judged by the downstream demux.
    pub demux_total: u64,
    /// …of which associated with the *correct* core.
    pub demux_correct: u64,
    /// …of which left unassociated (always all of them under naive).
    pub demux_unassociated: u64,
    /// Per-receiver segment observations (input to the localizer).
    pub segments: Vec<SegmentObservation>,
    /// Measured regular packets delivered end-to-end.
    pub measured_delivered: u64,
    /// References emitted by ToR senders / core senders.
    pub refs_emitted: (u64, u64),
    /// Every receiver's counters, in tap attachment order — segment 1
    /// first.
    pub tap_counters: Vec<ReceiverCounters>,
    /// Per-segment (per-tap) epoch series, `(segment name, series)`, in
    /// tap attachment order — segment 1 first. Empty unless
    /// [`PlaneConfig::epoch`] was set.
    pub segment_epochs: Vec<(String, EpochSeries)>,
    /// Segment-1 series merged across receivers.
    pub seg1_epochs: EpochSeries,
    /// Segment-2 series merged across receivers.
    pub seg2_epochs: EpochSeries,
    /// The epoch width the run used, ns.
    pub epoch_ns: Option<u64>,
    /// Highest per-tap buffered-observation high-water mark — O(reorder
    /// window); O(run) under a window wider than the run.
    pub peak_pending: usize,
    /// Observations that arrived after their reorder window was flushed
    /// (0 when the window covers the workload's reordering, as it must).
    pub late: u64,
    /// Regular observations shed across every tap (per-tap caps plus the
    /// global [`PlaneConfig::pending_budget`]).
    pub shed: u64,
    /// High-water mark of pending observations summed across all taps —
    /// the quantity the plane budget bounds.
    pub peak_pending_total: usize,
    /// Observations lost to tap outages, summed across taps: down-time
    /// discards plus crash-destroyed window/estimator state.
    pub lost_window_obs: u64,
    /// Non-empty epochs produced at or after a cold recovery, summed
    /// across taps (0 without tap faults).
    pub recovered_epochs: u64,
    /// Tap outages ([`rlir_sim::FaultKind::TapDown`]) the plane absorbed.
    pub tap_outages: u64,
    /// Per-tenant budget accounting, first-seen order (the single default
    /// tenant unless [`FatTreeExpConfig::tenant_split`] was set).
    pub tenants: Vec<TenantReport>,
}

impl FatTreeOutcome {
    /// Fraction of judged packets associated with the correct core.
    pub fn demux_accuracy(&self) -> f64 {
        if self.demux_total == 0 {
            0.0
        } else {
            self.demux_correct as f64 / self.demux_total as f64
        }
    }
}

fn measured_trace_cfg(
    cfg: &FatTreeExpConfig,
    tree: &FatTree,
    idx: usize,
    src: TopoId,
    dst: TopoId,
) -> rlir_trace::TraceConfig {
    let mut tc = rlir_trace::TraceConfig::paper_regular(cfg.seed ^ (idx as u64 + 1), cfg.duration);
    tc.link_rate_bps = cfg.queue.rate_bps;
    tc.target_utilization = cfg.measured_load;
    tc.src_prefix = tree.host_prefix(src);
    tc.dst_prefix = tree.host_prefix(dst);
    tc.first_packet_id = (idx as u64 + 1) << 34;
    tc
}

/// The measured traffic of a configuration: one trace per source ToR
/// towards the destination block, with the burst envelope applied when
/// configured. Shared by [`run_fattree`] and the engine benchmarks.
pub fn measured_traces(cfg: &FatTreeExpConfig, tree: &FatTree) -> Vec<(TopoId, rlir_trace::Trace)> {
    let dst_tor = cfg.dst_tor(tree);
    cfg.src_tors(tree)
        .into_iter()
        .enumerate()
        .map(|(i, src)| {
            let mut trace = rlir_trace::generate(&measured_trace_cfg(cfg, tree, i, src, dst_tor));
            if let Some(shape) = cfg.burst {
                trace = rlir_trace::compress_into_bursts(trace, shape);
            }
            (src, trace)
        })
        .collect()
}

/// The background traffic of a configuration: every non-measured ToR sends
/// to a rotated partner (never the destination ToR, never a measured
/// source as origin). Shared by [`run_fattree`] and the engine benchmarks.
/// The per-ToR traces are generated first, so the injections fill one
/// exactly sized `Vec`.
pub fn background_injections(cfg: &FatTreeExpConfig, tree: &FatTree) -> Vec<(TopoId, Packet)> {
    let half = tree.half();
    let dst_tor = cfg.dst_tor(tree);
    let src_tors = cfg.src_tors(tree);
    let all_tors: Vec<TopoId> = tree.tors().collect();
    let mut traces = Vec::new();
    for (bi, &tor) in all_tors.iter().enumerate() {
        if tor == dst_tor || src_tors.contains(&tor) || cfg.background_load <= 0.0 {
            continue;
        }
        let partner = all_tors
            .iter()
            .copied()
            .cycle()
            .skip(bi + half + 1)
            .find(|&p| p != tor && p != dst_tor)
            .expect("some partner exists");
        let mut tc = rlir_trace::TraceConfig::paper_regular(
            cfg.seed ^ 0xBAC0 ^ (bi as u64) << 3,
            cfg.duration,
        );
        tc.link_rate_bps = cfg.queue.rate_bps;
        tc.target_utilization = cfg.background_load;
        tc.src_prefix = tree.host_prefix(tor);
        tc.dst_prefix = tree.host_prefix(partner);
        tc.first_packet_id = (0x100 + bi as u64) << 34;
        traces.push((tor, rlir_trace::generate(&tc)));
    }
    let mut injections = Vec::with_capacity(traces.iter().map(|(_, t)| t.packets.len()).sum());
    for (tor, trace) in traces {
        injections.extend(trace.packets.iter().map(|p| (tor, *p)));
    }
    injections
}

/// Outcome of a closed-loop (fault-bearing) fat-tree run: the usual
/// outcome plus the online detector's verdict and the engine's
/// fault/memory accounting.
#[derive(Debug, Clone)]
pub struct ClosedLoopOutcome {
    /// The measurement outcome — truncated at the detection point when the
    /// detector fired (the run stops; that is the point).
    pub outcome: FatTreeOutcome,
    /// The online alarm, if one fired.
    pub detection: Option<Detection>,
    /// Packets killed by the fault script (loss bursts + blackholes).
    pub fault_drops: u64,
    /// Engine in-flight high-water mark — the soak harness's flat-memory
    /// witness.
    pub peak_live_slots: usize,
    /// Engine units the run processed, references' included.
    pub events: u64,
    /// Packets delivered, references included.
    pub delivered: u64,
}

/// Run the experiment.
pub fn run_fattree(cfg: &FatTreeExpConfig) -> FatTreeOutcome {
    run_fattree_faulted(cfg, None, None).outcome
}

/// [`run_fattree`] with a mid-run [`FaultScript`] applied to the run (a
/// rerouted trigger's references follow it, since its sender sees the port
/// it leaves by) and an optional closed-loop online detector watching it.
/// When the detector fires it raises the engine's stop flag, so the run
/// halts at the detection watermark — time-to-localize is measured online,
/// not by post-hoc replay. With `None`/`None` this is exactly
/// [`run_fattree`].
pub fn run_fattree_faulted(
    cfg: &FatTreeExpConfig,
    faults: Option<&FaultScript>,
    detector: Option<&DetectorConfig>,
) -> ClosedLoopOutcome {
    let tree = FatTree::new(cfg.k, cfg.hash);
    let deployment = cfg.deployment(&tree);
    let demux = RlirDemux::new(&tree, cfg.demux);
    let mut senders = deployment.senders(&cfg.policy);
    let slowed = |a: &SwitchAnomaly| QueueConfig {
        processing_delay: cfg.queue.processing_delay + a.extra_processing,
        ..cfg.queue
    };
    let overrides: Vec<_> = cfg.anomaly.iter().map(|a| (a.node, slowed(a))).collect();
    let fabric = FatTreeFabric::new(&tree, matches!(cfg.demux, CoreDemux::Marking));

    // The run, observed live by the measurement plane — the paper's
    // router-level deployment expressed as hop-event taps instead of
    // post-hoc event-queue plumbing. The workload accounting (not a
    // measurement-plane concern — how well the downstream demux associated
    // measured packets, from ground truth) rides on the same streamed
    // delivery callback, so the run never buffers deliveries either.
    let mut plane = MeasurementPlane::with_config(cfg.plane);
    let seg1_taps = deployment.attach(&mut plane, &tree, &demux, cfg.tenant_split);
    let dst_tor = deployment.dst_tor;
    let mut demux_total = 0u64;
    let mut demux_correct = 0u64;
    let mut demux_unassociated = 0u64;
    let mut measured_delivered = 0u64;
    let mut on_delivery = |d: &StreamedDelivery<'_>| {
        if d.packet.is_reference()
            || !d.packet.is_regular()
            || d.delivered_node != dst_tor
            || !deployment.measures(&demux, d.packet)
        {
            return;
        }
        let Some(core_hop) = d
            .hops
            .iter()
            .find(|h| matches!(tree.node(h.node).role, Role::Core { .. }))
        else {
            return; // intra-pod: not covered by this deployment
        };
        measured_delivered += 1;
        demux_total += 1;
        match demux.traversed_core(d.packet) {
            Some(c) if c == core_hop.node => demux_correct += 1,
            Some(_) => {}
            None => demux_unassociated += 1,
        }
    };
    let network = build_network(&tree, cfg.queue, cfg.link_delay, &overrides);
    let stop = StopFlag::new();
    let mut sink = ClosedLoopSink::new(&mut plane, detector.copied(), stop.clone());
    let stats = run_network_streamed_source(
        network,
        &fabric,
        SortedVecSource::new(cfg.injections(&tree)),
        &mut sink,
        RunOptions {
            faults,
            stop: detector.is_some().then_some(&stop),
            senders: Some(&mut senders),
        },
        &mut on_delivery,
    );
    let detection = sink.into_detection();
    let (refs_tor, refs_core) = deployment.refs_emitted(&senders);

    // Fold tap reports into the per-segment outcome.
    let report = plane.finish();
    let epoch_ns = report.epoch_ns;
    let peak_pending_total = report.peak_pending_total;
    let mut seg1_flows = FlowTable::new();
    let mut seg2_flows = FlowTable::new();
    let mut segments = Vec::new();
    let mut segment_epochs = Vec::new();
    let mut peak_pending = 0usize;
    let mut late = 0u64;
    let mut shed = 0u64;
    let mut lost_window_obs = 0u64;
    let mut recovered_epochs = 0u64;
    let mut tap_outages = 0u64;
    let mut tap_counters = Vec::new();
    for (i, tap) in report.taps.into_iter().enumerate() {
        if let Some(seg) = tap.segment() {
            segments.push(seg);
        }
        peak_pending = peak_pending.max(tap.peak_pending);
        late += tap.late;
        shed += tap.shed;
        lost_window_obs += tap.lost_window_obs;
        recovered_epochs += tap.recovered_epochs;
        tap_outages += u64::from(tap.outages);
        tap_counters.push(tap.report.counters);
        if epoch_ns.is_some() {
            segment_epochs.push((tap.name, tap.report.epochs));
        }
        if i < seg1_taps {
            seg1_flows.merge(tap.report.flows);
        } else {
            seg2_flows.merge(tap.report.flows);
        }
    }
    let (seg1_epochs, seg2_epochs) = match epoch_ns {
        Some(e) => (
            EpochSeries::union(e, segment_epochs[..seg1_taps].iter().map(|(_, s)| s)),
            EpochSeries::union(e, segment_epochs[seg1_taps..].iter().map(|(_, s)| s)),
        ),
        None => Default::default(),
    };

    let seg1_errors = seg1_flows.mean_relative_errors(cfg.min_flow_packets);
    let seg2_errors = seg2_flows.mean_relative_errors(cfg.min_flow_packets);
    ClosedLoopOutcome {
        outcome: FatTreeOutcome {
            seg1_flows,
            seg2_flows,
            seg1_errors,
            seg2_errors,
            demux_total,
            demux_correct,
            demux_unassociated,
            segments,
            measured_delivered,
            refs_emitted: (refs_tor, refs_core),
            tap_counters,
            segment_epochs,
            seg1_epochs,
            seg2_epochs,
            epoch_ns,
            peak_pending,
            late,
            shed,
            peak_pending_total,
            lost_window_obs,
            recovered_epochs,
            tap_outages,
            tenants: report.tenants,
        },
        detection,
        fault_drops: stats.fault_drops,
        peak_live_slots: stats.peak_live_slots,
        events: stats.events,
        delivered: stats.delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(demux: CoreDemux) -> FatTreeExpConfig {
        let mut cfg = FatTreeExpConfig::paper(11, SimDuration::from_millis(20));
        cfg.policy = PolicyKind::Static { n: 30 };
        cfg.demux = demux;
        cfg
    }

    #[test]
    fn reverse_ecmp_demux_is_perfect() {
        let out = run_fattree(&quick(CoreDemux::ReverseEcmp));
        assert!(out.measured_delivered > 500, "{}", out.measured_delivered);
        assert!(out.demux_total > 0);
        assert_eq!(
            out.demux_correct, out.demux_total,
            "reverse ECMP must be exact"
        );
        assert_eq!(out.demux_unassociated, 0);
        assert!(out.refs_emitted.0 > 0 && out.refs_emitted.1 > 0);
    }

    #[test]
    fn marking_demux_is_perfect_too() {
        let out = run_fattree(&quick(CoreDemux::Marking));
        assert!(out.demux_total > 0);
        assert_eq!(out.demux_correct, out.demux_total, "marking must be exact");
    }

    #[test]
    fn naive_demux_associates_nothing() {
        let out = run_fattree(&quick(CoreDemux::Naive));
        assert!(out.demux_total > 0);
        assert_eq!(out.demux_correct, 0);
        assert_eq!(out.demux_unassociated, out.demux_total);
        assert_eq!(out.demux_accuracy(), 0.0);
        // Estimates still happen (mixed receivers) — they are just wrong
        // more often; at minimum they must exist for the ablation contrast.
        assert!(out.seg2_flows.estimate_count() > 0);
    }

    #[test]
    fn segments_cover_sources_and_cores() {
        let out = run_fattree(&quick(CoreDemux::ReverseEcmp));
        // 2 src ToRs × (targets at up to 4 cores) + up to 4 core→dst rows.
        assert!(out.segments.len() >= 4, "{:?}", out.segments.len());
        for s in &out.segments {
            assert!(s.name.contains('→'), "{}", s.name);
            assert!(s.est_mean_ns.is_finite());
        }
    }

    #[test]
    fn estimation_errors_are_reasonable_with_demux() {
        let out = run_fattree(&quick(CoreDemux::ReverseEcmp));
        assert!(!out.seg2_errors.is_empty());
        let med = rlir_stats::Ecdf::new(out.seg2_errors.clone())
            .median()
            .unwrap();
        assert!(med < 1.0, "median seg2 error {med}");
    }

    #[test]
    fn anomaly_shows_up_in_the_right_segment() {
        let mut cfg = quick(CoreDemux::ReverseEcmp);
        let tree = FatTree::new(cfg.k, cfg.hash);
        let bad_core = tree.cores().next().unwrap();
        cfg.anomaly = Some(SwitchAnomaly {
            node: bad_core,
            extra_processing: SimDuration::from_micros(400),
        });
        let out = run_fattree(&cfg);
        let bad_name = tree.node(bad_core).name.clone();
        // The segment leaving the bad core must be among the slowest seg-2
        // rows (the extra processing delays departures from that core).
        let seg2_rows: Vec<_> = out
            .segments
            .iter()
            .filter(|s| s.name.starts_with("C["))
            .collect();
        assert!(!seg2_rows.is_empty());
        let slowest = seg2_rows
            .iter()
            .max_by(|a, b| a.est_mean_ns.partial_cmp(&b.est_mean_ns).unwrap())
            .unwrap();
        assert!(
            slowest.name.starts_with(&bad_name),
            "slowest seg2 {} is not the faulty core {bad_name}",
            slowest.name
        );
    }
}
