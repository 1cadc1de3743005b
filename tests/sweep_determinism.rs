//! Thread-count invariance of the shared sweep executor.
//!
//! The `SweepRunner` contract: an N-thread run is **byte-identical** to a
//! 1-thread run — point order is deterministic, every point's RNG seed is
//! derived from the scenario seed (never from scheduling), and aggregation
//! sees outcomes in point order. These tests pin that contract on the two
//! scenario families whose points are seed-sensitive: the Fig. 5 loss
//! sweep and the asymmetric-routing sweep. Floats are compared via
//! `to_bits`, so even a ULP of scheduling-dependent drift fails.

use rlir::experiment::{
    run_asymmetric, run_drop_aware, run_faults, run_localize, run_loss_sweep_on, AsymmetricConfig,
    DropAwareConfig, FaultsConfig, LocalizeConfig, LossPoint, LossSweepConfig, TwoHopConfig,
};
use rlir_exec::SweepRunner;
use rlir_net::time::SimDuration;
use rlir_rli::PolicyKind;
use rlir_trace::generate;

fn loss_points(runner: &SweepRunner) -> Vec<LossPoint> {
    let base = TwoHopConfig {
        policy: PolicyKind::Static { n: 40 },
        ..TwoHopConfig::paper(5, SimDuration::from_millis(30))
    };
    let regular = generate(&base.regular_trace());
    let cross = generate(&base.cross_trace());
    let cfg = LossSweepConfig {
        base,
        targets: vec![0.7, 0.82, 0.9, 0.95],
    };
    run_loss_sweep_on(&cfg, &regular, &cross, runner)
}

fn assert_loss_points_identical(a: &[LossPoint], b: &[LossPoint]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.target_utilization.to_bits(),
            y.target_utilization.to_bits()
        );
        assert_eq!(x.utilization.to_bits(), y.utilization.to_bits());
        assert_eq!(x.loss_with_refs.to_bits(), y.loss_with_refs.to_bits());
        assert_eq!(x.loss_without_refs.to_bits(), y.loss_without_refs.to_bits());
        assert_eq!(x.refs_emitted, y.refs_emitted);
    }
}

#[test]
fn loss_sweep_is_thread_count_invariant() {
    let one = loss_points(&SweepRunner::single());
    for threads in [2, 4, 7] {
        let n = loss_points(&SweepRunner::new(threads));
        assert_loss_points_identical(&one, &n);
    }
}

#[test]
fn loss_sweep_points_are_ordered_and_seeded_independently() {
    let pts = loss_points(&SweepRunner::new(3));
    for w in pts.windows(2) {
        assert!(w[0].target_utilization < w[1].target_utilization);
    }
    // Distinct derived seeds → distinct injector streams → the realised
    // utilizations are not accidentally identical across points.
    assert!(pts[0].utilization < pts[3].utilization);
}

#[test]
fn asymmetric_sweep_is_thread_count_invariant() {
    let mut cfg = AsymmetricConfig::paper(13, SimDuration::from_millis(30));
    cfg.policy = PolicyKind::Static { n: 40 };
    cfg.reverse_utilizations = vec![0.5, 0.8, 0.93];
    let one = run_asymmetric(&cfg, &SweepRunner::single());
    let many = run_asymmetric(&cfg, &SweepRunner::new(4));
    assert_eq!(one.len(), many.len());
    for (x, y) in one.iter().zip(&many) {
        assert_eq!(
            x.forward_utilization.to_bits(),
            y.forward_utilization.to_bits()
        );
        assert_eq!(
            x.reverse_utilization.to_bits(),
            y.reverse_utilization.to_bits()
        );
        assert_eq!(
            x.forward_median_error.to_bits(),
            y.forward_median_error.to_bits()
        );
        assert_eq!(
            x.reverse_median_error.to_bits(),
            y.reverse_median_error.to_bits()
        );
        assert_eq!(x.rtt_median_error.to_bits(), y.rtt_median_error.to_bits());
        assert_eq!(
            x.attribution_accuracy.to_bits(),
            y.attribution_accuracy.to_bits()
        );
        assert_eq!(x.paired_flows, y.paired_flows);
    }
}

#[test]
fn drop_aware_sweep_is_thread_count_invariant() {
    // The loss-heavy live-tap scenario: realised losses, drop-aware
    // counters and both views' aggregates must be bit-identical for any
    // thread count.
    let mut cfg = DropAwareConfig::paper(37, SimDuration::from_millis(30));
    cfg.policy = PolicyKind::Static { n: 40 };
    cfg.offered_loads = vec![0.6, 0.95, 1.1];
    let one = run_drop_aware(&cfg, &SweepRunner::single());
    for threads in [2, 4] {
        let many = run_drop_aware(&cfg, &SweepRunner::new(threads));
        assert_eq!(one.len(), many.len());
        for (x, y) in one.iter().zip(&many) {
            assert_eq!(x.offered, y.offered);
            assert_eq!(x.downstream_loss.to_bits(), y.downstream_loss.to_bits());
            assert_eq!(x.live_metered, y.live_metered);
            assert_eq!(x.dropped_after_metering, y.dropped_after_metering);
            assert_eq!(x.live_est_mean_ns.to_bits(), y.live_est_mean_ns.to_bits());
            assert_eq!(
                x.delivered_est_mean_ns.to_bits(),
                y.delivered_est_mean_ns.to_bits()
            );
            assert_eq!(x.survivor_bias.to_bits(), y.survivor_bias.to_bits());
            assert_eq!(x.epochs.len(), y.epochs.len());
            for (a, b) in x.epochs.iter().zip(&y.epochs) {
                assert_eq!(a.estimated, b.estimated);
                assert_eq!(a.dropped_after_metering, b.dropped_after_metering);
                assert_eq!(
                    a.est_mean().unwrap_or(f64::NAN).to_bits(),
                    b.est_mean().unwrap_or(f64::NAN).to_bits()
                );
            }
        }
    }
}

#[test]
fn faults_sweep_is_thread_count_invariant() {
    // The closed-loop sweep adds a twist: detection *truncates* each run
    // via the stop flag, so the engine-event counts — and therefore the
    // detection watermarks behind every TTL — must themselves be
    // reproduced bit-for-bit regardless of worker count.
    let mut cfg = FaultsConfig::paper(31, SimDuration::from_millis(20));
    cfg.base.policy = PolicyKind::Static { n: 30 };
    cfg.utilizations = vec![0.05, 0.2];
    cfg.onsets = vec![SimDuration::from_millis(4)];
    cfg.trials = 2;
    let one = run_faults(&cfg, &SweepRunner::single());
    for threads in [2, 4] {
        let many = run_faults(&cfg, &SweepRunner::new(threads));
        assert_eq!(one.len(), many.len());
        for (x, y) in one.iter().zip(&many) {
            assert_eq!(x.utilization.to_bits(), y.utilization.to_bits());
            assert_eq!(x.onset_ns, y.onset_ns);
            assert_eq!(
                (x.trials, x.detected, x.correct, x.false_positives),
                (y.trials, y.detected, y.correct, y.false_positives)
            );
            assert_eq!(x.mean_ttl_ns.to_bits(), y.mean_ttl_ns.to_bits());
        }
    }
}

#[test]
fn localize_sweep_is_thread_count_invariant() {
    // The victim draw and the per-trial workload both come from the derived
    // point seed, so any thread count must flag the same segments with
    // bit-identical severities.
    let mut cfg = LocalizeConfig::paper(29, SimDuration::from_millis(15));
    cfg.base.policy = PolicyKind::Static { n: 30 };
    cfg.utilizations = vec![0.05, 0.2];
    cfg.trials = 2;
    let one = run_localize(&cfg, &SweepRunner::single()).points;
    for threads in [2, 4] {
        let many = run_localize(&cfg, &SweepRunner::new(threads)).points;
        assert_eq!(one.len(), many.len());
        for (x, y) in one.iter().zip(&many) {
            assert_eq!(x.utilization.to_bits(), y.utilization.to_bits());
            assert_eq!(
                (x.trials, x.correct, x.flagged),
                (y.trials, y.correct, y.flagged)
            );
            assert_eq!(x.accuracy.to_bits(), y.accuracy.to_bits());
            assert_eq!(x.mean_severity.to_bits(), y.mean_severity.to_bits());
        }
    }
}
