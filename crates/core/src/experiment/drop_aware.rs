//! Drop-aware estimation on a loss-heavy path — what a **live** RLI
//! instance sees that a delivered-gated evaluation cannot.
//!
//! The paper's accuracy methodology scores a tap's estimates only on
//! packets that ultimately exit the network. A device-resident instance
//! has no such luxury: it meters everything that crosses its point,
//! including packets that die downstream moments later. Those packets are
//! not a random sample — drop-tail kills exactly the packets that arrive
//! during the deepest backlogs, which is also when the *measured* segment
//! runs slowest — so the delivered-only view is survivor-biased.
//!
//! This scenario quantifies that bias. Topology: `S0 → S1 → host`, with
//! the loss concentrated at S1 (half the rate of S0, a shallow buffer).
//! Two taps sit at the *same* observation point, S0's egress port:
//!
//! * `live` — the deployment default: ordered streaming feed from the
//!   dequeue events, meters every crossing, counts downstream deaths per
//!   epoch ([`rlir_rli::EpochSnapshot::dropped_after_metering`]);
//! * `delivered` — the paper's evaluation gate at the same point, its
//!   observations reconstructed from delivery records (and therefore fed
//!   through the plane's bounded reorder window).
//!
//! The sweep raises offered load through and past the bottleneck's
//! capacity and reports, per point: the realised loss split by where it
//! happened, how many metered packets died after metering, and the
//! estimated/true segment means under both views. The gap between the two
//! true means *is* the survivor bias; the live estimator's error against
//! its own (complete) truth shows RLI keeps working while packets die
//! downstream.

use crate::plane::{MeasurementPlane, PlaneConfig, TapPoint, TapSpec, TruthRef};
use rlir_exec::{PointContext, Scenario, SweepRunner};
use rlir_net::clock::ClockModel;
use rlir_net::packet::{Packet, SenderId};
use rlir_net::time::SimDuration;
use rlir_net::FlowKey;
use rlir_rli::{EpochSnapshot, PolicyKind, RliSender};
use rlir_sim::{
    run_network_streamed_source, Forwarder, Network, NodeId, Port, QueueConfig, RouteDecision,
    RunOptions, SortedVecSource,
};
use rlir_trace::{generate, TraceConfig};
use serde::{Deserialize, Serialize};

/// Configuration of the drop-aware sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DropAwareConfig {
    /// Master seed (per-point trace seeds are derived).
    pub seed: u64,
    /// Trace duration per point.
    pub duration: SimDuration,
    /// Injection policy of the sender at S0.
    pub policy: PolicyKind,
    /// Sweep points: offered load as a fraction of the *bottleneck* (S1)
    /// rate. Values at and above 1.0 drive sustained loss.
    pub offered_loads: Vec<f64>,
    /// Ingress switch (S0) queue — the measured segment's delay source.
    pub ingress_queue: QueueConfig,
    /// Bottleneck switch (S1) queue — where metered packets die.
    pub bottleneck_queue: QueueConfig,
    /// Link delay S0 → S1 and S1 → host.
    pub link_delay: SimDuration,
    /// Epoch width of the measurement plane.
    pub epoch: Option<SimDuration>,
    /// Flows with fewer estimated packets are excluded from error stats.
    pub min_flow_packets: u64,
}

impl DropAwareConfig {
    /// Defaults: a 10 Gb/s ingress feeding a 5 Gb/s bottleneck with a
    /// shallow 64 KiB buffer, load swept from calm through overload.
    pub fn paper(seed: u64, duration: SimDuration) -> Self {
        DropAwareConfig {
            seed,
            duration,
            policy: PolicyKind::Static { n: 100 },
            offered_loads: vec![0.5, 0.8, 0.95, 1.1],
            ingress_queue: QueueConfig {
                rate_bps: 10_000_000_000,
                capacity_bytes: 512 * 1024,
                processing_delay: SimDuration::from_micros(1),
            },
            bottleneck_queue: QueueConfig {
                rate_bps: 5_000_000_000,
                capacity_bytes: 64 * 1024,
                processing_delay: SimDuration::from_micros(1),
            },
            link_delay: SimDuration::from_micros(1),
            epoch: Some(SimDuration::from_millis(5)),
            min_flow_packets: 1,
        }
    }
}

/// One point of the drop-aware sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DropAwarePoint {
    /// Offered load, as a fraction of the bottleneck rate.
    pub offered_load: f64,
    /// Regular packets offered at S0.
    pub offered: u64,
    /// Regular-packet loss at the bottleneck (downstream of the tap).
    pub downstream_loss: f64,
    /// Regular-packet loss at the ingress queue (upstream of the tap —
    /// those packets were never metered).
    pub upstream_loss: f64,
    /// Live tap: regular packets metered.
    pub live_metered: u64,
    /// Live tap: metered packets that died downstream after metering.
    pub dropped_after_metering: u64,
    /// Live tap: estimated segment mean, ns (all crossings).
    pub live_est_mean_ns: f64,
    /// Live tap: true segment mean, ns (all crossings).
    pub live_true_mean_ns: f64,
    /// Delivered-gated tap at the same point: estimated mean, ns.
    pub delivered_est_mean_ns: f64,
    /// Delivered-gated tap: true mean, ns (survivors only).
    pub delivered_true_mean_ns: f64,
    /// Survivor bias of the delivered-gated view:
    /// `(live_true − delivered_true) / live_true`. Positive when the dying
    /// packets crossed the segment slower than the survivors.
    pub survivor_bias: f64,
    /// Live estimator's relative error against its own complete truth.
    pub live_rel_err: f64,
    /// Live tap per-epoch series, downstream deaths included per epoch.
    pub epochs: Vec<EpochSnapshot>,
    /// Plane reorder high-water mark of the delivered-gated tap.
    pub peak_pending: usize,
}

/// `S0 → S1 → host`: forward out port 0 everywhere; S1's port is
/// host-facing, so deliveries happen after its queue (and drop-tail kills
/// there).
struct Line;
impl Forwarder for Line {
    fn route(&self, _node: NodeId, _p: &Packet) -> RouteDecision {
        RouteDecision::Forward(0)
    }
}

const S0: NodeId = 0;
const S1: NodeId = 1;

fn ref_key() -> FlowKey {
    FlowKey::udp(
        "10.3.255.254".parse().expect("static"),
        40_000,
        "10.200.255.254".parse().expect("static"),
        rlir_net::wire::RLI_UDP_PORT,
    )
}

/// The sweep as a [`Scenario`]: one offered load per point.
pub struct DropAwareSweep<'a> {
    cfg: &'a DropAwareConfig,
}

impl<'a> DropAwareSweep<'a> {
    /// Build from configuration.
    pub fn new(cfg: &'a DropAwareConfig) -> Self {
        DropAwareSweep { cfg }
    }
}

impl Scenario for DropAwareSweep<'_> {
    type Point = f64;
    type Outcome = DropAwarePoint;
    type Aggregate = Vec<DropAwarePoint>;

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn points(&self) -> Vec<f64> {
        self.cfg.offered_loads.clone()
    }

    fn run_point(&self, ctx: &PointContext, &offered_load: &f64) -> DropAwarePoint {
        // Workload: one trace aimed at the bottleneck's rate fraction.
        let mut tc = TraceConfig::paper_regular(ctx.seed, self.cfg.duration);
        tc.link_rate_bps = self.cfg.bottleneck_queue.rate_bps;
        tc.target_utilization = offered_load;
        let trace = generate(&tc);

        let mut sender = RliSender::new(
            SenderId(1),
            ClockModel::perfect(),
            self.cfg.policy.build(),
            vec![ref_key()],
        );
        let mut injections: Vec<(NodeId, Packet)> = Vec::new();
        for p in &trace.packets {
            for r in sender.observe(p) {
                injections.push((S0, *r));
            }
            injections.push((S0, *p));
        }

        let mut net = Network::default();
        net.add_node("S0");
        net.add_node("S1");
        net.add_port(
            S0,
            Port::to_switch(self.cfg.ingress_queue, S1, self.cfg.link_delay),
        );
        net.add_port(
            S1,
            Port::to_host(self.cfg.bottleneck_queue, self.cfg.link_delay),
        );

        let mut plane = MeasurementPlane::with_config(PlaneConfig {
            epoch: self.cfg.epoch,
            ..PlaneConfig::default()
        });
        // Live tap at S0's egress: dequeue events leave one FIFO in
        // departure order, so the feed is ordered and streams unbuffered.
        let mut live = TapSpec::new("live", TapPoint::PortDeparture(S0, 0), SenderId(1));
        live.ordered = true;
        live.truth = TruthRef::SinceInjection;
        plane.attach(live);
        // The paper's evaluation gate at the same point, for contrast.
        let mut delivered = TapSpec::new("delivered", TapPoint::PortDeparture(S0, 0), SenderId(1));
        delivered.delivered_only = true;
        delivered.truth = TruthRef::SinceInjection;
        plane.attach(delivered);

        // Plane-only scenario: the plane *is* the consumer, so run in
        // streamed-delivery mode — no `Vec<NetDelivery>` is materialised
        // and engine memory stays O(in-flight) even at overload.
        let stats = run_network_streamed_source(
            net,
            &Line,
            SortedVecSource::new(injections),
            &mut plane,
            RunOptions::default(),
            |_| {},
        );
        let offered = trace.packets.len() as u64;
        // Loss rates are *regular-packet* rates (matching the documented
        // fields and `dropped_after_metering`'s scope): read the per-class
        // queue counters, not the all-kinds per-node drop totals, so dying
        // references don't inflate them.
        let s0_drops = stats.network.nodes[S0].ports[0].queue.regular().drops;
        let s1_drops = stats.network.nodes[S1].ports[0].queue.regular().drops;

        let mut report = plane.finish();
        let delivered_rep = report.taps.pop().expect("delivered tap");
        let live_rep = report.taps.pop().expect("live tap");

        let live_est = live_rep
            .report
            .flows
            .aggregate_est_mean()
            .unwrap_or(f64::NAN);
        let live_true = live_rep
            .report
            .flows
            .aggregate_true_mean()
            .unwrap_or(f64::NAN);
        let del_est = delivered_rep
            .report
            .flows
            .aggregate_est_mean()
            .unwrap_or(f64::NAN);
        let del_true = delivered_rep
            .report
            .flows
            .aggregate_true_mean()
            .unwrap_or(f64::NAN);
        DropAwarePoint {
            offered_load,
            offered,
            downstream_loss: s1_drops as f64 / offered.max(1) as f64,
            upstream_loss: s0_drops as f64 / offered.max(1) as f64,
            live_metered: live_rep.report.counters.regulars_seen,
            dropped_after_metering: live_rep.dropped_metered,
            live_est_mean_ns: live_est,
            live_true_mean_ns: live_true,
            delivered_est_mean_ns: del_est,
            delivered_true_mean_ns: del_true,
            survivor_bias: (live_true - del_true) / live_true,
            live_rel_err: rlir_stats::relative_error(live_est, live_true),
            epochs: live_rep.report.epochs,
            peak_pending: delivered_rep.peak_pending,
        }
    }

    fn aggregate(&self, outcomes: impl Iterator<Item = DropAwarePoint>) -> Vec<DropAwarePoint> {
        outcomes.collect()
    }
}

/// Run the drop-aware sweep through the shared executor.
pub fn run_drop_aware(cfg: &DropAwareConfig, runner: &SweepRunner) -> Vec<DropAwarePoint> {
    runner.run(&DropAwareSweep::new(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> DropAwareConfig {
        let mut cfg = DropAwareConfig::paper(31, SimDuration::from_millis(40));
        cfg.policy = PolicyKind::Static { n: 50 };
        cfg.offered_loads = vec![0.5, 1.1];
        cfg
    }

    #[test]
    fn overload_kills_metered_packets_downstream() {
        let pts = run_drop_aware(&quick_cfg(), &SweepRunner::single());
        assert_eq!(pts.len(), 2);
        let (calm, hot) = (&pts[0], &pts[1]);
        assert!(
            calm.downstream_loss < 0.01,
            "calm loss {}",
            calm.downstream_loss
        );
        assert_eq!(calm.dropped_after_metering, 0);
        assert!(
            hot.downstream_loss > 0.03,
            "hot loss {}",
            hot.downstream_loss
        );
        // Every downstream death was metered first — the tap sits upstream
        // of the fatal queue and meters every crossing.
        assert!(
            hot.dropped_after_metering > 0,
            "live tap must count downstream deaths"
        );
        assert!(hot.live_metered > calm.live_metered / 2);
        // The per-epoch series carries the deaths.
        let per_epoch: u64 = hot.epochs.iter().map(|e| e.dropped_after_metering).sum();
        assert_eq!(per_epoch, hot.dropped_after_metering, "epochs must tally");
    }

    #[test]
    fn live_view_sees_what_the_delivered_gate_misses() {
        let pts = run_drop_aware(&quick_cfg(), &SweepRunner::single());
        let hot = &pts[1];
        // The delivered-gated tap scores survivors only; the live tap
        // additionally scores the packets that died at the bottleneck.
        assert!(
            hot.live_metered
                > hot.offered - hot.dropped_after_metering.min(hot.offered) - hot.live_metered / 10,
            "live tap must meter ~every crossing: {} of {}",
            hot.live_metered,
            hot.offered
        );
        assert!(hot.dropped_after_metering > 0);
        // RLI still estimates accurately against its own complete truth.
        assert!(
            hot.live_rel_err < 0.25,
            "live estimator error {}",
            hot.live_rel_err
        );
        assert!(hot.survivor_bias.is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = quick_cfg();
        let a = run_drop_aware(&cfg, &SweepRunner::single());
        let b = run_drop_aware(&cfg, &SweepRunner::new(2));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.live_est_mean_ns.to_bits(), y.live_est_mean_ns.to_bits());
            assert_eq!(x.dropped_after_metering, y.dropped_after_metering);
            assert_eq!(x.live_metered, y.live_metered);
        }
    }
}
