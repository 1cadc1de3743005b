//! RLIR on the fat-tree: the architecture of §3 end-to-end.
//!
//! Measured traffic flows from several source ToRs to one destination ToR
//! (the paper's T1 → T7) across a fabric loaded with background traffic.
//! RLIR instances are deployed per [`crate::deployment::Deployment`]: the
//! path is split into two segments at the cores, `ToR → core` and
//! `core → ToR`, each measured by its own sender/receiver pairs with the
//! receiver-side demultiplexing of §3.1.
//!
//! The experiment runs in two simulation phases: phase 1 (no references)
//! yields every core's regular-packet crossing times, from which the core
//! senders' 1-and-n injection schedules are derived; phase 2 runs the full
//! workload with all reference streams and feeds the measurement plane from
//! the delivered ground truth.
//!
//! Outputs cover the demux ablation (A1/A3: naive vs marking vs
//! reverse-ECMP association accuracy and the resulting estimation error)
//! and the per-segment observations consumed by the anomaly localizer (A5).

use crate::demux::{CoreDemux, RlirDemux};
use crate::deployment::{Deployment, CORE_SENDER_BASE};
use crate::detect::{ClosedLoopSink, Detection, DetectorConfig};
use crate::fabric::{build_network, FatTreeFabric};
use crate::localization::SegmentObservation;
use crate::plane::{MeasurementPlane, PlaneConfig, TapPoint, TapSpec, TenantReport, TruthRef};
use rlir_net::clock::ClockModel;
use rlir_net::fxhash::FxHashMap;
use rlir_net::packet::{Packet, ReferenceInfo, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::{FlowKey, HashAlgo};
use rlir_rli::{EpochSeries, FlowTable, PolicyKind, RliSender};
use rlir_sim::{
    run_network_streamed_source, FaultScript, NullSink, QueueConfig, RunOptions, SortedVecSource,
    StopFlag, StreamedDelivery,
};
use rlir_topo::{FatTree, Role, TopoId};

/// A deliberate latency fault injected at one core (for localization).
#[derive(Debug, Clone, Copy)]
pub struct CoreAnomaly {
    /// Which core, as an ordinal into [`FatTree::cores`].
    pub core_ordinal: usize,
    /// Extra per-packet processing delay at that core.
    pub extra_processing: SimDuration,
}

/// A latency fault at an *arbitrary* switch (cores and edge/aggregation
/// switches alike) — the `localize` scenario's victim injection.
#[derive(Debug, Clone, Copy)]
pub struct SwitchAnomaly {
    /// The afflicted switch.
    pub node: TopoId,
    /// Extra per-packet processing delay at that switch.
    pub extra_processing: SimDuration,
}

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
    /// Optional core fault.
    pub anomaly: Option<CoreAnomaly>,
    /// Optional fault at an arbitrary switch (composes with `anomaly`;
    /// takes precedence if both name the same switch).
    pub switch_anomaly: Option<SwitchAnomaly>,
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
            switch_anomaly: None,
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

/// Synthetic sender id used by "mixed" (non-demultiplexed) receivers in the
/// naive ablation.
const NAIVE_ID: SenderId = SenderId(u16::MAX);

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
                trace = rlir_trace::compress_into_bursts(&trace, shape);
            }
            (src, trace)
        })
        .collect()
}

/// The background traffic of a configuration: every non-measured ToR sends
/// to a rotated partner (never the destination ToR, never a measured
/// source as origin). Shared by [`run_fattree`] and the engine benchmarks.
pub fn background_injections(cfg: &FatTreeExpConfig, tree: &FatTree) -> Vec<(TopoId, Packet)> {
    let half = tree.half();
    let dst_tor = cfg.dst_tor(tree);
    let src_tors = cfg.src_tors(tree);
    let all_tors: Vec<TopoId> = tree.tors().collect();
    let mut injections = Vec::new();
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
        let trace = rlir_trace::generate(&tc);
        injections.extend(trace.packets.iter().map(|p| (tor, *p)));
    }
    injections
}

/// Outcome of a closed-loop (fault-bearing) fat-tree run: the usual
/// outcome plus the online detector's verdict and the engine's
/// fault/memory accounting from phase 2.
#[derive(Debug, Clone)]
pub struct ClosedLoopOutcome {
    /// The measurement outcome — truncated at the detection point when the
    /// detector fired (the run stops; that is the point).
    pub outcome: FatTreeOutcome,
    /// The online alarm, if one fired.
    pub detection: Option<Detection>,
    /// Packets killed by the fault script in phase 2 (loss bursts +
    /// blackholes).
    pub fault_drops: u64,
    /// Engine in-flight high-water mark of phase 2 — the soak harness's
    /// flat-memory witness.
    pub peak_live_slots: usize,
    /// Scheduler events processed in phase 2.
    pub events: u64,
    /// Packets delivered in phase 2.
    pub delivered: u64,
}

/// Run the experiment.
pub fn run_fattree(cfg: &FatTreeExpConfig) -> FatTreeOutcome {
    run_fattree_faulted(cfg, None, None).outcome
}

/// [`run_fattree`] with a mid-run [`FaultScript`] applied inside **both**
/// simulation phases (the fabric is faulted, so the phase-1 crossing
/// schedules see the same network the measurement phase does) and an
/// optional closed-loop online detector watching phase 2. When the
/// detector fires it raises the engine's stop flag, so the run halts at
/// the detection watermark — time-to-localize is measured online, not by
/// post-hoc replay. With `None`/`None` this is exactly [`run_fattree`].
pub fn run_fattree_faulted(
    cfg: &FatTreeExpConfig,
    faults: Option<&FaultScript>,
    detector: Option<&DetectorConfig>,
) -> ClosedLoopOutcome {
    let tree = FatTree::new(cfg.k, cfg.hash);
    let half = tree.half();
    let dst_tor = cfg.dst_tor(&tree);

    // Measured sources: round-robin over pods other than the destination's.
    let src_tors = cfg.src_tors(&tree);
    let deployment = Deployment::for_destination(&tree, &src_tors, dst_tor);
    let demux = RlirDemux::new(&tree, cfg.demux);

    // ---- Workload -------------------------------------------------------
    let measured_traces = measured_traces(cfg, &tree);
    let mut injections: Vec<(usize, Packet)> = Vec::new();
    for (src, trace) in &measured_traces {
        injections.extend(trace.packets.iter().map(|p| (*src, *p)));
    }
    injections.extend(background_injections(cfg, &tree));

    // ---- ToR-uplink senders (computable offline: the uplink a packet
    // takes is a pure function of its flow key) --------------------------
    let mut refs_tor = 0u64;
    for (i, (src, trace)) in measured_traces.iter().enumerate() {
        let mut senders: Vec<RliSender> = (0..half)
            .map(|u| {
                let spec = deployment.tor_sender(*src, u).expect("deployed");
                RliSender::new(
                    spec.id,
                    ClockModel::perfect(),
                    cfg.policy.build(),
                    spec.targets.iter().map(|(_, k)| *k).collect(),
                )
            })
            .collect();
        let _ = i;
        for p in &trace.packets {
            let uplink = tree.node(*src).hash.select(&p.flow, half);
            for r in senders[uplink].observe(p) {
                refs_tor += 1;
                injections.push((*src, *r));
            }
        }
    }

    // ---- Simulation phases ---------------------------------------------
    let slowed = |extra: SimDuration| QueueConfig {
        processing_delay: cfg.queue.processing_delay + extra,
        ..cfg.queue
    };
    // `switch_anomaly` first: `build_network` takes the first matching
    // override, so it wins over `anomaly` on the same switch.
    let overrides: Vec<(TopoId, QueueConfig)> = cfg
        .switch_anomaly
        .iter()
        .map(|a| (a.node, slowed(a.extra_processing)))
        .chain(cfg.anomaly.iter().map(|a| {
            let core = tree
                .cores()
                .nth(a.core_ordinal)
                .expect("core ordinal in range");
            (core, slowed(a.extra_processing))
        }))
        .collect();
    let fabric = FatTreeFabric::new(&tree, matches!(cfg.demux, CoreDemux::Marking));

    // Phase 1: derive core-crossing schedules (regular + background only,
    // ToR references included so the load matches phase 2 closely).
    // The crossing tables are built straight from the delivery callback,
    // so this phase runs in O(in-flight) engine memory. Per-core sequences
    // are sorted before use below, so the callback's processing order is
    // immaterial.
    let mut crossings: FxHashMap<TopoId, Vec<(SimTime, u32)>> = FxHashMap::default();
    run_network_streamed_source(
        build_network(&tree, cfg.queue, cfg.link_delay, &overrides),
        &fabric,
        SortedVecSource::new(injections.clone()),
        &mut NullSink,
        RunOptions {
            faults,
            ..RunOptions::default()
        },
        |d| {
            if !d.packet.is_regular() {
                return;
            }
            for h in d.hops {
                if matches!(tree.node(h.node).role, Role::Core { .. }) {
                    crossings
                        .entry(h.node)
                        .or_default()
                        .push((h.arrived, d.packet.size));
                }
            }
        },
    );

    // Core senders: replay each core's crossing sequence through the policy.
    let mut refs_core = 0u64;
    for spec in &deployment.core_senders {
        let mut sender = RliSender::new(
            spec.id,
            ClockModel::perfect(),
            cfg.policy.build(),
            vec![spec.target],
        );
        let Some(seq) = crossings.get_mut(&spec.core) else {
            continue;
        };
        seq.sort_unstable();
        for &(at, size) in seq.iter() {
            let proxy = Packet::regular(0, spec.target, size, at);
            for r in sender.observe(&proxy) {
                refs_core += 1;
                injections.push((spec.core, *r));
            }
        }
    }

    // Phase 2: the full run, observed live by the measurement plane — the
    // paper's router-level deployment expressed as hop-event taps instead
    // of post-hoc event-queue plumbing. The workload accounting (not a
    // measurement-plane concern — how well the downstream demux associated
    // measured packets, from ground truth) rides on the same streamed
    // delivery callback, so phase 2 never buffers deliveries either.
    let (mut plane, seg1_taps) = attach_rlir_taps(cfg, &tree, &deployment, &demux);
    let dst_tor = deployment.dst_tor;
    let mut demux_total = 0u64;
    let mut demux_correct = 0u64;
    let mut demux_unassociated = 0u64;
    let mut measured_delivered = 0u64;
    let mut on_delivery = |d: &StreamedDelivery<'_>| {
        if d.packet.is_reference()
            || !d.packet.is_regular()
            || d.delivered_node != dst_tor
            || measured_src(&demux, &deployment, &d.packet.flow).is_none()
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
    let phase2_net = build_network(&tree, cfg.queue, cfg.link_delay, &overrides);
    let stop = StopFlag::new();
    let opts = RunOptions {
        faults,
        stop: detector.is_some().then_some(&stop),
    };
    let (stats, detection) = match detector {
        Some(dc) => {
            let mut sink = ClosedLoopSink::new(&mut plane, *dc, stop.clone());
            let stats = run_network_streamed_source(
                phase2_net,
                &fabric,
                SortedVecSource::new(injections),
                &mut sink,
                opts,
                &mut on_delivery,
            );
            (stats, sink.into_detection())
        }
        None => {
            let stats = run_network_streamed_source(
                phase2_net,
                &fabric,
                SortedVecSource::new(injections),
                &mut plane,
                opts,
                &mut on_delivery,
            );
            (stats, None)
        }
    };

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

/// Origin ToR of a measured flow, if it is one of the deployment's sources
/// (upstream demultiplexing by IP-prefix matching, §3.1).
fn measured_src(demux: &RlirDemux<'_>, deployment: &Deployment, flow: &FlowKey) -> Option<TopoId> {
    demux
        .origin_tor(&Packet::regular(0, *flow, 0, SimTime::ZERO))
        .filter(|t| deployment.src_tors.contains(t))
}

/// Instantiate the paper's RLIR deployment as measurement-plane taps.
///
/// Segment 1 (ToR → core): one receiver per `(core, ToR-uplink sender)`
/// pair at the core's ingress, scoring against injection-to-core truth.
/// Segment 2 (core → destination ToR): one receiver per core sender at the
/// destination ToR's delivery point, scoring against core-to-delivery
/// truth; the meter applies the downstream demux (marking / reverse-ECMP)
/// to decide which receiver a packet belongs to. Under the naive ablation
/// each point collapses to a single "mixed" receiver ([`NAIVE_ID`]).
///
/// Returns the plane plus the number of segment-1 taps (taps are reported
/// in attachment order: segment 1 first).
fn attach_rlir_taps<'a>(
    cfg: &FatTreeExpConfig,
    tree: &'a FatTree,
    deployment: &'a Deployment,
    demux: &'a RlirDemux<'a>,
) -> (MeasurementPlane<'a>, usize) {
    let naive = matches!(cfg.demux, CoreDemux::Naive);
    let dst_tor = deployment.dst_tor;
    let cores: Vec<TopoId> = tree.cores().collect();
    let mut plane = MeasurementPlane::with_config(cfg.plane);
    if let Some((w1, w2)) = cfg.tenant_split {
        plane.set_tenant_weight(0, w1);
        plane.set_tenant_weight(1, w2);
    }

    let seg1_keys: Vec<(TopoId, SenderId)> = if naive {
        cores.iter().map(|&c| (c, NAIVE_ID)).collect()
    } else {
        let mut keys: Vec<_> = deployment
            .tor_senders
            .iter()
            .flat_map(|s| s.targets.iter().map(move |(core, _)| (*core, s.id)))
            .collect();
        keys.sort();
        keys
    };
    let seg1_taps = seg1_keys.len();
    for (core, sender) in seg1_keys {
        let from = deployment
            .tor_senders
            .iter()
            .find(|s| s.id == sender)
            .map(|s| tree.node(s.tor).name.clone())
            .unwrap_or_else(|| "mixed".to_string());
        let mut tap = TapSpec::new(
            format!("{from}→{}", tree.node(core).name),
            TapPoint::NodeArrival(core),
            sender,
        );
        // Evaluation methodology (the paper's): score only packets whose
        // end-to-end truth exists. Live taps are the plane default now; the
        // harness opts back into delivered gating explicitly.
        tap.delivered_only = true;
        tap.truth = TruthRef::SinceInjection;
        if cfg.tenant_split.is_some() {
            tap.tenant = 0;
        }
        tap.ref_map = Some(if naive {
            // The mixed receiver listens to every ToR-sender stream at
            // once (core-sender references belong to segment 2).
            Box::new(|info| {
                (info.sender.0 < CORE_SENDER_BASE).then_some(ReferenceInfo {
                    sender: NAIVE_ID,
                    ..*info
                })
            })
        } else {
            Box::new(move |info: &ReferenceInfo| (info.sender == sender).then_some(*info))
        });
        tap.meter = Some(Box::new(move |ev| {
            if ev.node != dst_tor {
                return false; // only flows measured end-to-end are judged
            }
            let Some(origin) = measured_src(demux, deployment, &ev.packet.flow) else {
                return false;
            };
            naive || deployment.tor_sender_for(tree, origin, core) == Some(sender)
        }));
        plane.attach(tap);
    }

    let seg2_keys: Vec<SenderId> = if naive {
        vec![NAIVE_ID]
    } else {
        deployment.core_senders.iter().map(|s| s.id).collect()
    };
    for sender in seg2_keys {
        let from = deployment
            .core_senders
            .iter()
            .find(|s| s.id == sender)
            .map(|s| tree.node(s.core).name.clone())
            .unwrap_or_else(|| "mixed".to_string());
        let mut tap = TapSpec::new(
            format!("{from}→{}", tree.node(dst_tor).name),
            TapPoint::Delivery(dst_tor),
            sender,
        );
        tap.delivered_only = true;
        tap.truth = TruthRef::SinceArrivalAt(cores.clone());
        if cfg.tenant_split.is_some() {
            tap.tenant = 1;
        }
        tap.ref_map = Some(if naive {
            Box::new(|info| {
                (info.sender.0 >= CORE_SENDER_BASE).then_some(ReferenceInfo {
                    sender: NAIVE_ID,
                    ..*info
                })
            })
        } else {
            Box::new(move |info: &ReferenceInfo| (info.sender == sender).then_some(*info))
        });
        tap.meter = Some(Box::new(move |ev| {
            if !ev
                .hops
                .iter()
                .any(|h| matches!(tree.node(h.node).role, Role::Core { .. }))
            {
                return false; // intra-pod
            }
            if measured_src(demux, deployment, &ev.packet.flow).is_none() {
                return false;
            }
            // Downstream demultiplexing: *infer* the traversed core and
            // route the packet to that core's receiver.
            naive
                || demux
                    .traversed_core(ev.packet)
                    .and_then(|c| deployment.core_sender(c))
                    .map(|s| s.id)
                    == Some(sender)
        }));
        plane.attach(tap);
    }

    (plane, seg1_taps)
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
        cfg.anomaly = Some(CoreAnomaly {
            core_ordinal: 0,
            extra_processing: SimDuration::from_micros(400),
        });
        let out = run_fattree(&cfg);
        let tree = FatTree::new(cfg.k, cfg.hash);
        let bad_core = tree.cores().next().unwrap();
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
