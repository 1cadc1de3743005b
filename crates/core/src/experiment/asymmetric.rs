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
use rlir_exec::SweepRunner;
use rlir_net::fxhash::FxHashMap;
use rlir_net::time::SimDuration;
use rlir_net::FlowKey;
use rlir_rli::{Interpolator, PolicyKind};
use rlir_sim::TandemConfig;
use rlir_stats::Ecdf;
use rlir_trace::{generate, reverse, reverse_flow};

/// Configuration of the asymmetric-routing sweep.
#[derive(Debug, Clone)]
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
            forward_tandem: TandemConfig::paper(),
            reverse_tandem: TandemConfig::paper(),
            min_flow_packets: 1,
        }
    }
}

/// One point of the asymmetric sweep.
#[derive(Debug, Clone)]
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
    pub forward_epochs: rlir_rli::EpochSeries,
    /// Reverse-direction per-epoch series — the live view of *which half*
    /// of the round trip degrades, and when.
    pub reverse_epochs: rlir_rli::EpochSeries,
}

/// Base id of the reverse-trace packet-id namespace (disjoint from forward
/// trace ids and from cross-trace ids at `1 << 40`).
const REVERSE_ID_BASE: u64 = 1 << 39;

/// Run the asymmetric sweep over four base traces generated from the
/// config: forward regular, its reversed mirror (so flows pair up), and
/// one cross trace per direction.
pub fn run_asymmetric(cfg: &AsymmetricConfig, runner: &SweepRunner) -> Vec<AsymmetricPoint> {
    let base = TwoHopConfig::paper(cfg.seed, cfg.duration);
    let forward_regular = generate(&base.regular_trace());
    let reverse_regular = reverse(&forward_regular, REVERSE_ID_BASE);
    let forward_cross = generate(&base.cross_trace());
    let reverse_cross = {
        let mut tc = base.cross_trace();
        tc.seed ^= 0x4153_594D; // "ASYM": an independent reverse-path workload
        generate(&tc)
    };
    let direction_cfg = |seed: u64, target: f64, tandem: TandemConfig| {
        let mut two_hop = TwoHopConfig::paper(seed, cfg.duration);
        two_hop.policy = cfg.policy.clone();
        two_hop.interpolator = cfg.interpolator;
        two_hop.cross = CrossSpec::Uniform {
            target_utilization: target,
        };
        two_hop.min_flow_packets = cfg.min_flow_packets;
        two_hop.tandem = tandem;
        two_hop
    };
    runner.map(
        cfg.seed,
        &cfg.reverse_utilizations,
        |ctx, &reverse_target| {
            // Two independent pipelines — different queues per direction. Each
            // direction's injector draws from its own derived stream.
            let fwd_cfg = direction_cfg(ctx.seed, cfg.forward_utilization, cfg.forward_tandem);
            let rev_cfg = direction_cfg(
                ctx.seed ^ 0x0E5E_D0F0_0E5E_D0F0,
                reverse_target,
                cfg.reverse_tandem,
            );
            let fwd = run_two_hop_on(&fwd_cfg, &forward_regular, &forward_cross);
            let rev = run_two_hop_on(&rev_cfg, &reverse_regular, &reverse_cross);

            // Pair flows across directions via key reversal and judge the RTT
            // estimate and per-direction attribution.
            let rev_rows: FxHashMap<FlowKey, (f64, f64)> = rev
                .flows
                .report(cfg.min_flow_packets)
                .filter_map(|r| r.true_mean.map(|t| (r.flow, (r.est_mean, t))))
                .collect();
            let mut rtt_errors = Vec::new();
            let mut attributed = 0usize;
            let mut paired = 0usize;
            for row in fwd.flows.report(cfg.min_flow_packets) {
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
        },
    )
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
