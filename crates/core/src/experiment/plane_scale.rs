//! Fleet-scale measurement plane: every port of the fabric tapped at once.
//!
//! The other harnesses deploy RLI the way the paper does — a handful of
//! receivers at cores and the destination ToR. This one asks the opposite
//! question: what does the *measurement plane itself* cost when an
//! operator taps **every `(switch, port)` of a k-ary fat-tree** under one
//! fixed memory budget? Every tap owns its flow table and reorder run,
//! and [`PlaneConfig::pending_budget`](crate::plane::PlaneConfig::pending_budget)
//! is the single allocation authority across all of them — so fixed
//! traffic must cost about the same state however many taps watch it.
//!
//! The harness reuses the fat-tree workload generators
//! ([`measured_traces`] / [`background_injections`]) plus the ToR-uplink
//! reference senders, then attaches `n` delivered-gated
//! [`TapPoint::PortDeparture`] taps spread evenly across the fabric's
//! ports (`n = ` all of them for the headline point). Delivered gating is
//! deliberate: reconstructing upstream crossing times from delivery
//! records is the plane's worst case — every observation waits in a
//! reorder run, so the window and the budget are both on the hot path at
//! fleet width.
//!
//! Every tap listens to the union of reference streams (the mixed-receiver
//! idiom of the naive demux ablation), so every tap estimates — this is a
//! plane-overhead harness, not an accuracy one. While the run streams, a
//! sampling sink polls the plane's point-in-time introspection APIs
//! ([`MeasurementPlane::approx_state_bytes`],
//! [`MeasurementPlane::snapshot_epochs`]) — the snapshot-query a collector
//! would issue against a live fabric, exercised here without stopping the
//! run.

use crate::deployment::Deployment;
use crate::fabric::{build_network, FatTreeFabric};
use crate::plane::{MeasurementPlane, TapPoint, TapSpec, TruthRef};
use rlir_net::clock::ClockModel;
use rlir_net::packet::{Packet, ReferenceInfo, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_rli::{PolicyKind, RliSender};
use rlir_sim::{
    run_network_streamed_source, HopEvent, HopSink, RunOptions, SortedVecSource, StreamedDelivery,
};
use rlir_topo::{FatTree, TopoId};

use super::fattree::{background_injections, measured_traces, FatTreeExpConfig};

/// Synthetic sender id every tap binds to; the ref map rewrites each
/// ToR-uplink reference stream onto it (mixed-receiver idiom).
const MIXED: SenderId = SenderId(u16::MAX);

/// Configuration of one fleet-scale plane run.
#[derive(Debug, Clone)]
pub struct PlaneScaleConfig {
    /// Fabric, workload and plane budget. The harness runs
    /// a single simulation phase on this fabric; the RLIR deployment
    /// fields (`demux`, `anomaly`, …) are ignored.
    pub base: FatTreeExpConfig,
    /// How many `(switch, port)` taps to attach, spread evenly (by
    /// stride) over the fabric's ports in `(node, port)` order. `None`
    /// taps **all** ports — the headline point.
    pub taps: Option<usize>,
    /// Cadence of the mid-run state/snapshot probe.
    pub sample_every: SimDuration,
}

impl PlaneScaleConfig {
    /// The headline configuration: a k=8 fat-tree (544 tappable ports —
    /// 32 ToRs × 5, 32 aggs × 8, 16 cores × 8), four measured source
    /// ToRs, background on every other ToR, and a fixed plane-wide
    /// pending budget.
    pub fn fleet(seed: u64, duration: SimDuration) -> Self {
        let mut base = FatTreeExpConfig::paper(seed, duration);
        base.k = 8;
        base.n_src_tors = 4;
        base.policy = PolicyKind::Static { n: 50 };
        base.plane.pending_budget = Some(1 << 16);
        PlaneScaleConfig {
            base,
            taps: None,
            sample_every: SimDuration::from_millis(5),
        }
    }

    /// Total tappable `(switch, port)` points of the configured fabric.
    pub fn all_ports(&self) -> usize {
        let tree = FatTree::new(self.base.k, self.base.hash);
        tree.nodes().iter().map(|n| n.ports.len()).sum()
    }
}

/// One mid-run probe of the plane's introspection APIs.
#[derive(Debug, Clone, Copy)]
pub struct StateSample {
    /// Engine watermark at the probe, ns.
    pub at_ns: u64,
    /// [`MeasurementPlane::approx_state_bytes`] at the probe.
    pub state_bytes: usize,
    /// Length of the plane-wide merged epoch series
    /// ([`MeasurementPlane::snapshot_epochs`]) at the probe.
    pub merged_epochs: usize,
}

/// Outcome of one fleet-scale plane run.
#[derive(Debug, Clone)]
pub struct PlaneScaleOutcome {
    /// Taps attached.
    pub taps: usize,
    /// Packets the engine delivered.
    pub delivered: u64,
    /// Scheduler events processed.
    pub events: u64,
    /// Regular observations offered across all taps.
    pub metered: u64,
    /// Per-packet estimates produced across all taps.
    pub estimated: u64,
    /// Reference packets accepted across all taps.
    pub refs_accepted: u64,
    /// Regular observations shed (per-tap caps + the plane budget).
    pub shed: u64,
    /// Observations that arrived after their reorder window flushed.
    pub late: u64,
    /// Highest single-tap pending high-water mark.
    pub peak_pending: usize,
    /// Plane-wide pending high-water mark — what the budget bounds.
    pub peak_pending_total: usize,
    /// Largest observed [`MeasurementPlane::approx_state_bytes`] (mid-run
    /// samples plus a final pre-drain probe).
    pub peak_state_bytes: usize,
    /// Order-sensitive digest of every tap's flow rows and epoch series
    /// (floats folded via `to_bits`) — a byte-identity witness for
    /// anything that must not move the plane's output.
    pub report_digest: u64,
    /// The mid-run probes, in time order.
    pub samples: Vec<StateSample>,
}

fn fold(h: u64, bits: u64) -> u64 {
    h.rotate_left(7) ^ bits.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The fabric's `(switch, port)` points in `(node, port)` order.
fn all_points(tree: &FatTree) -> Vec<(TopoId, usize)> {
    tree.nodes()
        .iter()
        .enumerate()
        .flat_map(|(id, node)| (0..node.ports.len()).map(move |p| (id, p)))
        .collect()
}

/// `n` points spread evenly over the fabric (stride sampling keeps a
/// 1-tap point and an 8-tap point representative of the whole fabric, not
/// of whichever switch enumerates first).
fn tap_points(tree: &FatTree, n: Option<usize>) -> Vec<(TopoId, usize)> {
    let all = all_points(tree);
    let n = n.unwrap_or(all.len()).clamp(1, all.len());
    (0..n).map(|i| all[i * all.len() / n]).collect()
}

/// Forwards into the wrapped plane and probes its point-in-time
/// introspection APIs on a fixed watermark cadence.
struct SamplingSink<'p, 'a> {
    plane: &'p mut MeasurementPlane<'a>,
    every: SimDuration,
    next: SimTime,
    samples: Vec<StateSample>,
}

impl HopSink for SamplingSink<'_, '_> {
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        self.plane.on_hop(ev);
    }

    fn on_watermark(&mut self, watermark: SimTime) {
        self.plane.on_watermark(watermark);
        if watermark >= self.next {
            self.samples.push(StateSample {
                at_ns: watermark.as_nanos(),
                state_bytes: self.plane.approx_state_bytes(),
                merged_epochs: self.plane.snapshot_epochs().len(),
            });
            while self.next <= watermark {
                self.next += self.every;
            }
        }
    }
}

/// Run one fleet-scale plane point.
pub fn run_plane_scale(cfg: &PlaneScaleConfig) -> PlaneScaleOutcome {
    let base = &cfg.base;
    let tree = FatTree::new(base.k, base.hash);
    let half = tree.half();
    let dst_tor = base.dst_tor(&tree);
    let src_tors = base.src_tors(&tree);
    let deployment = Deployment::for_destination(&tree, &src_tors, dst_tor);

    // Workload: measured traces + background + ToR-uplink references —
    // the exact fat-tree recipe, minus the phase-1 core-sender derivation
    // (no core receivers here; every tap listens to the mixed stream).
    let traces = measured_traces(base, &tree);
    let mut injections: Vec<(TopoId, Packet)> = Vec::new();
    for (src, trace) in &traces {
        injections.extend(trace.packets.iter().map(|p| (*src, *p)));
    }
    injections.extend(background_injections(base, &tree));
    for (src, trace) in &traces {
        let mut senders: Vec<RliSender> = (0..half)
            .map(|u| {
                let spec = deployment.tor_sender(*src, u).expect("deployed");
                RliSender::new(
                    spec.id,
                    ClockModel::perfect(),
                    base.policy.build(),
                    spec.targets.iter().map(|(_, k)| *k).collect(),
                )
            })
            .collect();
        for p in &trace.packets {
            let uplink = tree.node(*src).hash.select(&p.flow, half);
            for r in senders[uplink].observe(p) {
                injections.push((*src, *r));
            }
        }
    }

    // The plane: one delivered-gated tap per selected port, all under
    // one budget.
    let mut plane = MeasurementPlane::with_config(base.plane);
    let points = tap_points(&tree, cfg.taps);
    let taps = points.len();
    for (node, port) in points {
        let mut tap = TapSpec::new(
            format!("{}#p{port}", tree.node(node).name),
            TapPoint::PortDeparture(node, port),
            MIXED,
        );
        tap.delivered_only = true;
        tap.truth = TruthRef::SinceInjection;
        // Mixed receiver: accept every reference stream crossing the port.
        tap.ref_map = Some(Box::new(|info: &ReferenceInfo| {
            Some(ReferenceInfo {
                sender: MIXED,
                ..*info
            })
        }));
        plane.attach(tap);
    }

    let fabric = FatTreeFabric::new(&tree, false);
    let network = build_network(&tree, base.queue, base.link_delay, &[]);
    let mut sink = SamplingSink {
        plane: &mut plane,
        every: cfg.sample_every,
        next: SimTime::ZERO + cfg.sample_every,
        samples: Vec::new(),
    };
    let stats = run_network_streamed_source(
        network,
        &fabric,
        SortedVecSource::new(injections),
        &mut sink,
        RunOptions::default(),
        &mut |_: &StreamedDelivery<'_>| {},
    );
    let samples = std::mem::take(&mut sink.samples);

    // Final pre-drain probe: flow state only grows, so the peak is here
    // or at a mid-run sample with fuller windows.
    let final_bytes = plane.approx_state_bytes();
    let peak_state_bytes = samples
        .iter()
        .map(|s| s.state_bytes)
        .chain([final_bytes])
        .max()
        .unwrap_or(0);

    let report = plane.finish();
    let mut out = PlaneScaleOutcome {
        taps,
        delivered: stats.delivered,
        events: stats.events,
        metered: 0,
        estimated: 0,
        refs_accepted: 0,
        shed: 0,
        late: 0,
        peak_pending: 0,
        peak_pending_total: report.peak_pending_total,
        peak_state_bytes,
        report_digest: 0,
        samples,
    };
    let mut h = 0u64;
    for tap in &report.taps {
        out.metered += tap.report.counters.regulars_seen;
        out.estimated += tap.report.counters.estimated;
        out.refs_accepted += tap.report.counters.refs_accepted;
        out.shed += tap.shed;
        out.late += tap.late;
        out.peak_pending = out.peak_pending.max(tap.peak_pending);
        h = fold(h, tap.report.flows.flow_count() as u64);
        h = fold(h, tap.report.flows.estimate_count());
        for row in tap.report.flows.report(1) {
            h = fold(h, row.packets);
            h = fold(h, row.est_mean.to_bits());
            h = fold(h, row.true_mean.unwrap_or(f64::NAN).to_bits());
            h = fold(h, row.est_std.unwrap_or(f64::NAN).to_bits());
        }
        for e in &tap.report.epochs {
            h = fold(h, e.epoch);
            h = fold(h, e.regulars_seen);
            h = fold(h, e.estimated);
            h = fold(h, e.refs_accepted);
            h = fold(h, e.est_mean().unwrap_or(f64::NAN).to_bits());
        }
    }
    out.report_digest = h;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quick fabric the tests share: k=4 (72 tappable ports — 8 ToRs
    /// × 3, 8 aggs × 4, 4 cores × 4), short run, tight budget.
    fn quick(seed: u64) -> PlaneScaleConfig {
        let mut cfg = PlaneScaleConfig::fleet(seed, SimDuration::from_millis(10));
        cfg.base.k = 4;
        cfg.base.n_src_tors = 2;
        cfg.base.plane.pending_budget = Some(4096);
        cfg
    }

    #[test]
    fn all_ports_run_completes_and_probes_mid_run() {
        let cfg = quick(41);
        assert_eq!(cfg.all_ports(), 72);
        let out = run_plane_scale(&cfg);
        assert_eq!(out.taps, 72);
        assert!(out.delivered > 0);
        assert!(out.metered > 0, "every port must meter traffic");
        assert!(out.estimated > 0, "mixed refs must drive estimation");
        assert_eq!(out.late, 0, "window must cover the delivery lag");
        // The budget is plane-wide: the pending high-water mark for
        // *regulars* stays at or under it (references ride above).
        assert!(out.peak_pending_total > 0);
        // The mid-run probes ran and saw the epoch series forming.
        assert!(!out.samples.is_empty(), "sampling sink must fire");
        assert!(
            out.samples.last().expect("samples").merged_epochs > 0,
            "mid-run snapshot query must see merged epochs"
        );
        assert!(out.peak_state_bytes > 0);
    }

    #[test]
    fn tap_points_spread_and_scale() {
        let tree = FatTree::new(4, rlir_net::HashAlgo::default());
        let one = tap_points(&tree, Some(1));
        let all = tap_points(&tree, None);
        assert_eq!(one.len(), 1);
        assert_eq!(all.len(), 72);
        let four = tap_points(&tree, Some(4));
        // Stride sampling: distinct, ordered, spread across the fabric
        // rather than clustered on the first switch.
        assert_eq!(four.len(), 4);
        assert!(four.windows(2).all(|w| w[0] < w[1]));
        assert!(four.last().expect("4 taps").0 > tree.nodes().len() / 2);
    }

    #[test]
    fn fleet_memory_is_sublinear_in_tap_count() {
        // The acceptance claim: at fixed traffic, peak plane memory grows
        // sublinearly in tap count, because the budget caps the pending
        // component plane-wide no matter how many taps buffer it.
        let run_at = |n: usize| {
            let mut cfg = quick(47);
            cfg.taps = Some(n);
            run_plane_scale(&cfg)
        };
        let sparse = run_at(9);
        let dense = run_at(72);
        assert!(sparse.peak_state_bytes > 0);
        // 8x the taps must cost well under 8x the bytes (measured ~1x:
        // the pending population is budget-capped plane-wide).
        assert!(
            dense.peak_state_bytes < sparse.peak_state_bytes * 3,
            "taps 9 -> 72 grew state {} -> {} bytes: not sublinear",
            sparse.peak_state_bytes,
            dense.peak_state_bytes
        );
        // The budget holds at fleet width: regular pending is capped, so
        // the total (references ride above it) stays in its vicinity
        // instead of scaling with tap count.
        let budget = quick(47).base.plane.pending_budget.expect("quick sets one");
        assert!(
            dense.peak_pending_total < budget * 2,
            "peak pending {} vs budget {budget}",
            dense.peak_pending_total
        );
        assert!(dense.shed > sparse.shed, "more taps, more shedding");
    }
}
