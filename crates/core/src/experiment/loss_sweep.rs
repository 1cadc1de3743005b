//! Reference-packet interference sweep (the paper's Fig. 5).
//!
//! "Figure 5 shows packet loss increase (difference) caused by reference
//! packets." For each bottleneck-utilization point the sweep runs the
//! two-hop pipeline twice with identical seeds — once with reference
//! injection, once without — and reports the difference in end-to-end
//! regular-packet loss rate. The sweep runs on the shared
//! [`SweepRunner`]; each pair shares the same base traces (mirroring
//! the paper's reuse of one trace across utilization settings) while the
//! cross-traffic injector of each point draws from its own derived seed.

use super::two_hop::{run_two_hop_on, CrossSpec, TwoHopConfig};
use rlir_exec::SweepRunner;
use rlir_rli::PolicyKind;
use rlir_trace::Trace;

/// One point of the Fig. 5 series.
#[derive(Debug, Clone, Copy)]
pub struct LossPoint {
    /// Target bottleneck utilization of this point.
    pub target_utilization: f64,
    /// Realised utilization (with references injected).
    pub utilization: f64,
    /// Regular-packet loss rate *with* reference injection.
    pub loss_with_refs: f64,
    /// Regular-packet loss rate *without* reference injection.
    pub loss_without_refs: f64,
    /// Reference packets emitted.
    pub refs_emitted: u64,
}

impl LossPoint {
    /// The quantity Fig. 5 plots: loss-rate increase caused by references.
    pub fn loss_difference(&self) -> f64 {
        self.loss_with_refs - self.loss_without_refs
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct LossSweepConfig {
    /// The base run configuration (policy is per-sweep; the cross spec's
    /// target is overridden per point).
    pub base: TwoHopConfig,
    /// Utilization points (paper: 0.82 … 0.98).
    pub targets: Vec<f64>,
}

impl LossSweepConfig {
    /// The paper's x-axis: 0.82..=0.98 in steps of 0.02.
    pub fn paper_targets() -> Vec<f64> {
        (0..9).map(|i| 0.82 + 0.02 * i as f64).collect()
    }

    /// Build a sweep for the given policy over the paper's target range.
    pub fn paper(policy: PolicyKind, base: TwoHopConfig) -> Self {
        LossSweepConfig {
            base: TwoHopConfig { policy, ..base },
            targets: Self::paper_targets(),
        }
    }
}

/// Run the sweep over pre-generated base traces: one [`LossPoint`] per
/// target utilization, in order, each a with/without-references pair.
pub fn run_loss_sweep_on(
    cfg: &LossSweepConfig,
    regular: &Trace,
    cross: &Trace,
    runner: &SweepRunner,
) -> Vec<LossPoint> {
    runner.map(cfg.base.seed, &cfg.targets, |ctx, &target| {
        // Both arms of the pair share the point's derived seed, so the
        // cross-traffic injector drops the *same* packets — the measured
        // difference isolates the reference packets.
        let mut with_cfg = cfg.base.clone();
        with_cfg.seed = ctx.seed;
        with_cfg.cross = CrossSpec::Uniform {
            target_utilization: target,
        };
        with_cfg.inject_references = true;
        let mut without_cfg = with_cfg.clone();
        without_cfg.inject_references = false;

        let with = run_two_hop_on(&with_cfg, regular, cross);
        let without = run_two_hop_on(&without_cfg, regular, cross);
        LossPoint {
            target_utilization: target,
            utilization: with.utilization,
            loss_with_refs: with.regular_loss,
            loss_without_refs: without.regular_loss,
            refs_emitted: with.refs_emitted,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_net::time::SimDuration;
    use rlir_trace::generate;

    fn small_sweep(policy: PolicyKind, targets: Vec<f64>) -> Vec<LossPoint> {
        let base = TwoHopConfig {
            policy: policy.clone(),
            ..TwoHopConfig::paper(3, SimDuration::from_millis(40))
        };
        let regular = generate(&base.regular_trace());
        let cross = generate(&base.cross_trace());
        let cfg = LossSweepConfig { base, targets };
        run_loss_sweep_on(&cfg, &regular, &cross, &SweepRunner::single())
    }

    #[test]
    fn sweep_returns_points_in_order() {
        let pts = small_sweep(PolicyKind::Static { n: 100 }, vec![0.7, 0.9]);
        assert_eq!(pts.len(), 2);
        assert!(pts[0].target_utilization < pts[1].target_utilization);
        assert!(pts[0].utilization < pts[1].utilization);
    }

    #[test]
    fn paired_runs_differ_only_by_references() {
        let pts = small_sweep(PolicyKind::Static { n: 10 }, vec![0.95]);
        let p = pts[0];
        assert!(p.refs_emitted > 0);
        assert!(p.loss_with_refs >= 0.0 && p.loss_without_refs >= 0.0);
        // On a short trace the true interference effect (≲10⁻⁴, Fig. 5) is
        // below drop-timing noise, so only bound the magnitude here; the
        // sign/shape is validated by the full-length Fig. 5 experiment.
        assert!(
            p.loss_difference().abs() < 0.01,
            "loss difference {}",
            p.loss_difference()
        );
    }

    #[test]
    fn paper_targets_span_082_098() {
        let t = LossSweepConfig::paper_targets();
        assert_eq!(t.len(), 9);
        assert!((t[0] - 0.82).abs() < 1e-9);
        assert!((t[8] - 0.98).abs() < 1e-9);
    }
}
