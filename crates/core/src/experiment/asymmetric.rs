//! Asymmetric-routing round-trip latency measurement.
//!
//! In real data centers the forward and reverse halves of a round trip
//! routinely traverse *different* queues (asymmetric routing — cf. Shobhana
//! et al., "Measuring Round-Trip Response Latencies Under Asymmetric
//! Routing"), so a round-trip time alone cannot say which direction is
//! slow. This scenario models that regime with two independent two-hop
//! tandems: the forward tandem carries the request stream, the reverse
//! tandem carries the mirrored response stream (same flows, direction
//! reversed), and each direction is measured by its own RLI sender/receiver
//! pair. The sweep loads the reverse path progressively harder than the
//! forward path and checks that per-direction RLI attribution keeps
//! working: the per-flow RTT estimate stays accurate, and the direction RLI
//! blames for the latency is the direction that is actually slow.

use super::two_hop::{run_two_hop_on, CrossSpec, TwoHopConfig};
use rlir_exec::{PointContext, Scenario, SweepRunner};
use rlir_net::fxhash::FxHashMap;
use rlir_net::time::SimDuration;
use rlir_net::FlowKey;
use rlir_rli::{Interpolator, PolicyKind};
use rlir_sim::TandemConfig;
use rlir_stats::Ecdf;
use rlir_trace::{generate, reverse, reverse_flow, Trace};
use serde::{Deserialize, Serialize};

/// Configuration of the asymmetric-routing sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsymmetricConfig {
    /// Master seed (traces; per-point injector seeds are derived).
    pub seed: u64,
    /// Trace duration per direction.
    pub duration: SimDuration,
    /// Injection policy of both directions' senders.
    pub policy: PolicyKind,
    /// Delay estimator of both directions' receivers.
    pub interpolator: Interpolator,
    /// Fixed target utilization of the forward path.
    pub forward_utilization: f64,
    /// Sweep points: target utilization of the reverse path.
    pub reverse_utilizations: Vec<f64>,
    /// Queue/link parameters of the forward tandem.
    pub forward_tandem: TandemConfig,
    /// Queue/link parameters of the reverse tandem (may differ — the whole
    /// point is that the two directions see different queues).
    pub reverse_tandem: TandemConfig,
    /// Flows with fewer estimated packets are excluded from pairing.
    pub min_flow_packets: u64,
}

impl AsymmetricConfig {
    /// Defaults: forward path at a calm 50%, reverse path swept from parity
    /// into the paper's high-load regime.
    pub fn paper(seed: u64, duration: SimDuration) -> Self {
        AsymmetricConfig {
            seed,
            duration,
            policy: PolicyKind::Static { n: 100 },
            interpolator: Interpolator::Linear,
            forward_utilization: 0.50,
            reverse_utilizations: vec![0.50, 0.67, 0.80, 0.93],
            forward_tandem: TandemConfig::paper(duration),
            reverse_tandem: TandemConfig::paper(duration),
            min_flow_packets: 1,
        }
    }
}

/// One point of the asymmetric sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsymmetricPoint {
    /// Target utilization of the reverse path at this point.
    pub target_reverse_utilization: f64,
    /// Realised forward-path utilization.
    pub forward_utilization: f64,
    /// Realised reverse-path utilization.
    pub reverse_utilization: f64,
    /// Median per-flow relative error of forward mean-delay estimates.
    pub forward_median_error: f64,
    /// Median per-flow relative error of reverse mean-delay estimates.
    pub reverse_median_error: f64,
    /// Median per-flow relative error of the *RTT* estimate
    /// (forward + reverse estimated means vs forward + reverse true means).
    pub rtt_median_error: f64,
    /// Fraction of paired flows whose estimated dominant direction (the
    /// direction RLI blames for most of the RTT) matches the true one.
    pub attribution_accuracy: f64,
    /// Flows measured in both directions.
    pub paired_flows: usize,
    /// Forward-direction per-epoch series.
    pub forward_epochs: Vec<rlir_rli::EpochSnapshot>,
    /// Reverse-direction per-epoch series — the live view of *which half*
    /// of the round trip degrades, and when.
    pub reverse_epochs: Vec<rlir_rli::EpochSnapshot>,
}

/// The sweep as a [`Scenario`] over pre-generated base traces.
pub struct AsymmetricSweep<'a> {
    cfg: &'a AsymmetricConfig,
    forward_regular: &'a Trace,
    reverse_regular: &'a Trace,
    forward_cross: &'a Trace,
    reverse_cross: &'a Trace,
}

impl<'a> AsymmetricSweep<'a> {
    /// Build over explicit base traces (the reverse regular trace is
    /// usually [`reverse`]`(forward_regular, …)` so flows pair up).
    pub fn new(
        cfg: &'a AsymmetricConfig,
        forward_regular: &'a Trace,
        reverse_regular: &'a Trace,
        forward_cross: &'a Trace,
        reverse_cross: &'a Trace,
    ) -> Self {
        AsymmetricSweep {
            cfg,
            forward_regular,
            reverse_regular,
            forward_cross,
            reverse_cross,
        }
    }

    fn direction_cfg(&self, seed: u64, target: f64, tandem: TandemConfig) -> TwoHopConfig {
        let mut cfg = TwoHopConfig::paper(seed, self.cfg.duration);
        cfg.policy = self.cfg.policy.clone();
        cfg.interpolator = self.cfg.interpolator;
        cfg.cross = CrossSpec::Uniform {
            target_utilization: target,
        };
        cfg.min_flow_packets = self.cfg.min_flow_packets;
        cfg.tandem = tandem;
        cfg
    }
}

impl Scenario for AsymmetricSweep<'_> {
    type Point = f64;
    type Outcome = AsymmetricPoint;
    type Aggregate = Vec<AsymmetricPoint>;

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn points(&self) -> Vec<f64> {
        self.cfg.reverse_utilizations.clone()
    }

    fn run_point(&self, ctx: &PointContext, &reverse_target: &f64) -> AsymmetricPoint {
        // Two independent pipelines — different queues per direction. Each
        // direction's injector draws from its own derived stream.
        let fwd_cfg = self.direction_cfg(
            ctx.seed,
            self.cfg.forward_utilization,
            self.cfg.forward_tandem,
        );
        let rev_cfg = self.direction_cfg(
            ctx.seed ^ 0x0E5E_D0F0_0E5E_D0F0,
            reverse_target,
            self.cfg.reverse_tandem,
        );
        let fwd = run_two_hop_on(&fwd_cfg, self.forward_regular, self.forward_cross);
        let rev = run_two_hop_on(&rev_cfg, self.reverse_regular, self.reverse_cross);

        // Pair flows across directions via key reversal and judge the RTT
        // estimate and per-direction attribution.
        let rev_rows: FxHashMap<FlowKey, (f64, f64)> = rev
            .flows
            .report(self.cfg.min_flow_packets)
            .filter_map(|r| r.true_mean.map(|t| (r.flow, (r.est_mean, t))))
            .collect();
        let mut rtt_errors = Vec::new();
        let mut attributed = 0usize;
        let mut paired = 0usize;
        for row in fwd.flows.report(self.cfg.min_flow_packets) {
            let Some(t_fwd) = row.true_mean else { continue };
            let Some(&(e_rev, t_rev)) = rev_rows.get(&reverse_flow(&row.flow)) else {
                continue;
            };
            paired += 1;
            let est_rtt = row.est_mean + e_rev;
            let true_rtt = t_fwd + t_rev;
            let err = rlir_stats::relative_error(est_rtt, true_rtt);
            if err.is_finite() {
                rtt_errors.push(err);
            }
            if (e_rev > row.est_mean) == (t_rev > t_fwd) {
                attributed += 1;
            }
        }
        let median = |v: Vec<f64>| {
            Ecdf::new(v.into_iter().filter(|x| x.is_finite()).collect())
                .median()
                .unwrap_or(f64::NAN)
        };
        AsymmetricPoint {
            target_reverse_utilization: reverse_target,
            forward_utilization: fwd.utilization,
            reverse_utilization: rev.utilization,
            forward_median_error: median(fwd.mean_errors),
            reverse_median_error: median(rev.mean_errors),
            rtt_median_error: median(rtt_errors),
            attribution_accuracy: if paired == 0 {
                f64::NAN
            } else {
                attributed as f64 / paired as f64
            },
            paired_flows: paired,
            forward_epochs: fwd.epochs,
            reverse_epochs: rev.epochs,
        }
    }

    fn aggregate(&self, outcomes: impl Iterator<Item = AsymmetricPoint>) -> Vec<AsymmetricPoint> {
        outcomes.collect()
    }
}

/// Base id of the reverse-trace packet-id namespace (disjoint from forward
/// trace ids and from cross-trace ids at `1 << 40`).
const REVERSE_ID_BASE: u64 = 1 << 39;

/// Generate the four base traces of an asymmetric sweep: forward regular,
/// its reversed mirror, and one cross trace per direction.
pub fn asymmetric_traces(cfg: &AsymmetricConfig) -> (Trace, Trace, Trace, Trace) {
    let fwd_cfg = TwoHopConfig::paper(cfg.seed, cfg.duration);
    let forward_regular = generate(&fwd_cfg.regular_trace());
    let reverse_regular = reverse(&forward_regular, REVERSE_ID_BASE);
    let forward_cross = generate(&fwd_cfg.cross_trace());
    let reverse_cross = {
        let mut tc = fwd_cfg.cross_trace();
        tc.seed ^= 0x4153_594D; // "ASYM": an independent reverse-path workload
        generate(&tc)
    };
    (
        forward_regular,
        reverse_regular,
        forward_cross,
        reverse_cross,
    )
}

/// Run the asymmetric sweep, generating traces from the config.
pub fn run_asymmetric(cfg: &AsymmetricConfig, runner: &SweepRunner) -> Vec<AsymmetricPoint> {
    let (fr, rr, fc, rc) = asymmetric_traces(cfg);
    runner.run(&AsymmetricSweep::new(cfg, &fr, &rr, &fc, &rc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> AsymmetricConfig {
        let mut cfg = AsymmetricConfig::paper(11, SimDuration::from_millis(60));
        cfg.policy = PolicyKind::Static { n: 50 };
        cfg.reverse_utilizations = vec![0.50, 0.93];
        cfg
    }

    #[test]
    fn sweep_pairs_flows_and_tracks_reverse_load() {
        let pts = run_asymmetric(&quick_cfg(), &SweepRunner::single());
        assert_eq!(pts.len(), 2);
        let (lo, hi) = (&pts[0], &pts[1]);
        assert!(lo.paired_flows > 50, "{} paired flows", lo.paired_flows);
        assert!(
            hi.reverse_utilization > lo.reverse_utilization + 0.2,
            "reverse load did not rise: {} vs {}",
            lo.reverse_utilization,
            hi.reverse_utilization
        );
        // Forward path is identically loaded at both points.
        assert!((hi.forward_utilization - lo.forward_utilization).abs() < 0.05);
    }

    #[test]
    fn attribution_identifies_the_hot_direction() {
        let pts = run_asymmetric(&quick_cfg(), &SweepRunner::single());
        let hi = &pts[1];
        // Reverse at 93% vs forward at 50%: nearly every flow's RTT is
        // dominated by the reverse direction, and the estimates must say so.
        assert!(
            hi.attribution_accuracy > 0.7,
            "attribution accuracy {}",
            hi.attribution_accuracy
        );
        assert!(
            hi.rtt_median_error < 1.0,
            "rtt median error {}",
            hi.rtt_median_error
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = {
            let mut c = quick_cfg();
            c.duration = SimDuration::from_millis(30);
            c.reverse_utilizations = vec![0.8];
            c
        };
        let a = run_asymmetric(&cfg, &SweepRunner::single());
        let b = run_asymmetric(&cfg, &SweepRunner::new(2));
        assert_eq!(a.len(), b.len());
        assert_eq!(
            a[0].rtt_median_error.to_bits(),
            b[0].rtt_median_error.to_bits()
        );
        assert_eq!(a[0].paired_flows, b[0].paired_flows);
    }
}
