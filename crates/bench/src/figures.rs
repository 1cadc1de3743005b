//! Runners for every table and figure in the paper's evaluation, plus the
//! repo's ablation studies (see DESIGN.md §4 for the index).

use crate::scale::Scale;
use rlir::experiment::{
    run_fattree, run_fattree_sweep, run_loss_sweep_on, run_two_hop_on, run_two_hop_sweep,
    CoreAnomaly, CrossSpec, FatTreeExpConfig, FatTreeSweep, LossSweepConfig, TwoHopConfig,
    TwoHopOutcome, TwoHopPoint, TwoHopSweep,
};
use rlir::localization::{localize, LocalizerConfig};
use rlir::CoreDemux;
use rlir_baselines::{
    estimate_all, trajectory_join, Lda, LdaConfig, TrajectoryConfig, TrajectoryPoint,
};
use rlir_exec::SweepRunner;
use rlir_net::clock::{ClockModel, ClockPair};
use rlir_net::fxhash::FxHashMap;
use rlir_net::time::SimDuration;
use rlir_net::FlowKey;
use rlir_rli::{Interpolator, PolicyKind};
use rlir_stats::Ecdf;
use rlir_trace::{generate, FlowMeter, FlowMeterConfig, Trace};
use serde::{Deserialize, Serialize};

/// One curve of an accuracy CDF figure (4a/4b/4c).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccuracyCurve {
    /// Legend label, e.g. `"Adaptive, 93%"`.
    pub label: String,
    /// Target bottleneck utilization.
    pub target_utilization: f64,
    /// Realised bottleneck utilization.
    pub utilization: f64,
    /// Mean of per-flow true mean delays, µs (paper: 3.0 µs @67%, 83 µs
    /// @93% random; 117 µs @67% bursty).
    pub avg_true_delay_us: f64,
    /// Median per-flow relative error.
    pub median_error: f64,
    /// Fraction of flows with relative error below 10%.
    pub frac_below_10pct: f64,
    /// Flows contributing to the CDF.
    pub flows: usize,
    /// The raw error samples (CDF input).
    pub errors: Vec<f64>,
    /// The run's per-epoch latency series (see `TwoHopOutcome::epochs`).
    pub epochs: Vec<rlir_rli::EpochSnapshot>,
}

impl AccuracyCurve {
    fn from_errors(label: String, target: f64, out: &TwoHopOutcome, errors: Vec<f64>) -> Self {
        let e = Ecdf::new(errors.iter().copied().filter(|x| x.is_finite()).collect());
        AccuracyCurve {
            label,
            target_utilization: target,
            utilization: out.utilization,
            avg_true_delay_us: out.avg_true_delay_ns / 1e3,
            median_error: e.median().unwrap_or(f64::NAN),
            frac_below_10pct: e.fraction_at_or_below(0.10),
            flows: e.len(),
            errors: e.samples().to_vec(),
            epochs: out.epochs.clone(),
        }
    }

    /// Downsampled CDF series for the CSV.
    pub fn cdf_csv(&self) -> String {
        Ecdf::new(self.errors.clone()).series(400).to_csv()
    }

    /// One summary line, paper style.
    pub fn summary(&self) -> String {
        format!(
            "{:<16} util {:>5.1}% | avg true delay {:>8.1} µs | median err {:>6.2}% | <10% err: {:>5.1}% of {} flows",
            self.label,
            self.utilization * 100.0,
            self.avg_true_delay_us,
            self.median_error * 100.0,
            self.frac_below_10pct * 100.0,
            self.flows
        )
    }
}

fn paper_policies() -> [(&'static str, PolicyKind); 2] {
    [
        (
            "Adaptive",
            PolicyKind::Adaptive(rlir_rli::AdaptiveConfig::paper_default()),
        ),
        ("Static", PolicyKind::Static { n: 100 }),
    ]
}

/// Shared base traces for a scale (regenerated deterministically).
pub fn base_traces(scale: &Scale, duration: SimDuration) -> (Trace, Trace) {
    let cfg = TwoHopConfig::paper(scale.base_seed, duration);
    (generate(&cfg.regular_trace()), generate(&cfg.cross_trace()))
}

/// The grid point every accuracy figure builds on.
fn accuracy_point(
    scale: &Scale,
    label: String,
    target: f64,
    policy: PolicyKind,
    cross_spec: CrossSpec,
    cross: usize,
) -> TwoHopPoint {
    let mut cfg = TwoHopConfig::paper(scale.base_seed, scale.accuracy_duration);
    cfg.policy = policy;
    cfg.cross = cross_spec;
    TwoHopPoint {
        label,
        target,
        cfg,
        cross,
    }
}

/// Figures 4(a) and 4(b): {Adaptive, Static} × {67%, 93%} under the random
/// cross-traffic model. Returns the four outcomes with labels; 4(a) reads
/// `mean_errors`, 4(b) reads `std_errors` from the same runs.
pub fn fig4_runs(scale: &Scale, runner: &SweepRunner) -> Vec<(String, f64, TwoHopOutcome)> {
    let (regular, cross) = base_traces(scale, scale.accuracy_duration);
    let points: Vec<TwoHopPoint> = paper_policies()
        .into_iter()
        .flat_map(|(name, policy)| {
            [0.93f64, 0.67].map(|u| {
                accuracy_point(
                    scale,
                    format!("{name}, {:.0}%", u * 100.0),
                    u,
                    policy.clone(),
                    CrossSpec::Uniform {
                        target_utilization: u,
                    },
                    0,
                )
            })
        })
        .collect();
    let sweep = TwoHopSweep {
        seed: scale.base_seed,
        points,
        regular: &regular,
        crosses: vec![&cross],
    };
    let mut v = run_two_hop_sweep(&sweep, runner);
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

/// Figure 4(a): CDFs of per-flow *mean* relative error.
pub fn fig4a(scale: &Scale, runner: &SweepRunner) -> Vec<AccuracyCurve> {
    fig4_runs(scale, runner)
        .into_iter()
        .map(|(label, target, out)| {
            let errors = out.mean_errors.clone();
            AccuracyCurve::from_errors(label, target, &out, errors)
        })
        .collect()
}

/// Figure 4(b): CDFs of per-flow *standard deviation* relative error.
pub fn fig4b(scale: &Scale, runner: &SweepRunner) -> Vec<AccuracyCurve> {
    fig4_runs(scale, runner)
        .into_iter()
        .map(|(label, target, out)| {
            let errors = out.std_errors.clone();
            AccuracyCurve::from_errors(label, target, &out, errors)
        })
        .collect()
}

/// Burst shape used for Fig. 4(c): 10 s bursts in the paper's 60 s trace;
/// scaled to 1/6 of the trace duration here, 50% duty cycle.
fn burst_shape(duration: SimDuration) -> (SimDuration, SimDuration) {
    let on = SimDuration::from_nanos((duration.as_nanos() / 6).max(1_000_000));
    (on, on)
}

/// Figure 4(c): mean-error CDFs comparing bursty vs random cross traffic at
/// 34% and 67% utilization (adaptive injection, as in the paper's §4.2
/// which contrasts the models at matched utilization).
///
/// The bursty runs draw from a *hotter* base cross trace (≈105% of link
/// rate) so that on-periods genuinely overload the bottleneck — the regime
/// behind the paper's 117 µs average at 67% — while the off-periods drain
/// it; the long-run average still meets the utilization target.
pub fn fig4c(scale: &Scale, runner: &SweepRunner) -> Vec<AccuracyCurve> {
    let (regular, cross) = base_traces(scale, scale.accuracy_duration);
    let cross_hot = {
        let mut tc = TwoHopConfig::paper(scale.base_seed, scale.accuracy_duration).cross_trace();
        tc.target_utilization = 1.05;
        generate(&tc)
    };
    let (on, off) = burst_shape(scale.accuracy_duration);
    let points: Vec<TwoHopPoint> = [0.67f64, 0.34]
        .into_iter()
        .flat_map(|u| {
            let policy = PolicyKind::Adaptive(rlir_rli::AdaptiveConfig::paper_default());
            [
                accuracy_point(
                    scale,
                    format!("Bursty, {:.0}%", u * 100.0),
                    u,
                    policy.clone(),
                    CrossSpec::Bursty {
                        target_utilization: u,
                        on,
                        off,
                    },
                    1, // the hotter cross trace: on-periods genuinely overload
                ),
                accuracy_point(
                    scale,
                    format!("Random, {:.0}%", u * 100.0),
                    u,
                    policy,
                    CrossSpec::Uniform {
                        target_utilization: u,
                    },
                    0,
                ),
            ]
        })
        .collect();
    let sweep = TwoHopSweep {
        seed: scale.base_seed,
        points,
        regular: &regular,
        crosses: vec![&cross, &cross_hot],
    };
    let mut v: Vec<AccuracyCurve> = run_two_hop_sweep(&sweep, runner)
        .into_iter()
        .map(|(label, target, out)| {
            let errors = out.mean_errors.clone();
            AccuracyCurve::from_errors(label, target, &out, errors)
        })
        .collect();
    v.sort_by(|a, b| a.label.cmp(&b.label));
    v
}

/// One Fig. 5 series point, averaged over seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Point {
    /// Policy label.
    pub policy: String,
    /// Target utilization.
    pub target: f64,
    /// Mean realised utilization.
    pub utilization: f64,
    /// Mean loss-rate difference (with refs − without refs).
    pub loss_difference: f64,
    /// Mean loss rate without references (context).
    pub base_loss: f64,
}

/// The Fig. 5 interference setup shared by [`fig5`] and the registry's
/// `loss_sweep` scenario: a paper two-hop base with the given policy, plus
/// its pre-generated regular and cross traces.
///
/// The cross trace is generated at ≈90% of link rate (hotter than the
/// paper's 71% base) so that keep-probability calibration can reach the
/// 0.94–0.98 utilization points without saturating.
pub fn interference_base(
    policy: PolicyKind,
    seed: u64,
    duration: SimDuration,
) -> (TwoHopConfig, Trace, Trace) {
    let base = TwoHopConfig {
        policy,
        ..TwoHopConfig::paper(seed, duration)
    };
    let regular = generate(&base.regular_trace());
    let cross = {
        let mut tc = base.cross_trace();
        tc.target_utilization = 0.90;
        generate(&tc)
    };
    (base, regular, cross)
}

/// Figure 5: reference-packet interference sweep for both policies.
///
/// See [`interference_base`] for the cross-trace calibration rationale.
pub fn fig5(scale: &Scale, runner: &SweepRunner) -> Vec<Fig5Point> {
    let targets = LossSweepConfig::paper_targets();
    let mut out = Vec::new();
    for (name, policy) in paper_policies() {
        // Accumulate across seeds.
        let mut acc: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); targets.len()];
        for s in 0..scale.seeds {
            let (base, regular, cross) = interference_base(
                policy.clone(),
                scale.base_seed + s,
                scale.interference_duration,
            );
            let sweep = LossSweepConfig {
                base,
                targets: targets.clone(),
            };
            for (i, p) in run_loss_sweep_on(&sweep, &regular, &cross, runner)
                .iter()
                .enumerate()
            {
                acc[i].0 += p.utilization;
                acc[i].1 += p.loss_difference();
                acc[i].2 += p.loss_without_refs;
            }
        }
        let n = scale.seeds as f64;
        for (i, &target) in targets.iter().enumerate() {
            out.push(Fig5Point {
                policy: name.to_string(),
                target,
                utilization: acc[i].0 / n,
                loss_difference: acc[i].1 / n,
                base_loss: acc[i].2 / n,
            });
        }
    }
    out
}

/// Demux-ablation row (experiments A1/A3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DemuxRow {
    /// Strategy label.
    pub mode: String,
    /// Fraction of measured packets associated with the correct core.
    pub accuracy: f64,
    /// Median per-flow error on segment 1.
    pub seg1_median_error: f64,
    /// Median per-flow error on segment 2.
    pub seg2_median_error: f64,
    /// Per-packet estimates produced on segment 2.
    pub seg2_estimates: u64,
    /// Observations arriving after their reorder window flushed, all taps.
    pub late: u64,
    /// Regular observations shed by tap buffer caps / the plane budget.
    pub shed: u64,
    /// Highest per-tap buffered-observation high-water mark.
    pub peak_pending: usize,
    /// Segment-2 per-epoch series (merged across receivers).
    pub seg2_epochs: Vec<rlir_rli::EpochSnapshot>,
}

/// The demultiplexing ablation on the fat-tree: naive vs marking vs
/// reverse-ECMP, identical workload.
///
/// One core carries a 150 µs processing fault so that equal-cost paths have
/// genuinely different delays — the regime in which association matters
/// ("the delay of a reference packet that traverses one path may have no
/// correlation with the delay of a packet that traverses a different path",
/// §1). With homogeneous paths even the naive receiver looks fine, which is
/// precisely why the paper's warning is about multipath *divergence*.
pub fn demux_ablation(scale: &Scale, runner: &SweepRunner) -> Vec<DemuxRow> {
    let points = [CoreDemux::Naive, CoreDemux::Marking, CoreDemux::ReverseEcmp]
        .into_iter()
        .map(|mode| {
            let mut cfg = FatTreeExpConfig::paper(scale.base_seed, scale.fattree_duration);
            cfg.shards = scale.shards;
            cfg.demux = mode;
            cfg.anomaly = Some(CoreAnomaly {
                core_ordinal: 0,
                extra_processing: SimDuration::from_micros(150),
            });
            (mode.label().to_string(), cfg)
        })
        .collect();
    let sweep = FatTreeSweep {
        seed: scale.base_seed,
        points,
    };
    run_fattree_sweep(&sweep, runner)
        .into_iter()
        .map(|(mode, out)| {
            let med = |v: &[f64]| {
                let finite: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
                Ecdf::new(finite).median().unwrap_or(f64::NAN)
            };
            DemuxRow {
                mode,
                accuracy: out.demux_accuracy(),
                seg1_median_error: med(&out.seg1_errors),
                seg2_median_error: med(&out.seg2_errors),
                seg2_estimates: out.seg2_flows.estimate_count(),
                late: out.late,
                shed: out.shed,
                peak_pending: out.peak_pending,
                seg2_epochs: out.seg2_epochs,
            }
        })
        .collect()
}

/// Interpolator-ablation row (experiment A2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterpRow {
    /// Estimator label.
    pub interpolator: String,
    /// Median per-flow mean-error.
    pub median_error: f64,
    /// 90th percentile error.
    pub p90_error: f64,
}

/// Interpolation-estimator ablation at 93% utilization (static 1-and-100).
pub fn interp_ablation(scale: &Scale, runner: &SweepRunner) -> Vec<InterpRow> {
    let (regular, cross) = base_traces(scale, scale.accuracy_duration);
    let points = Interpolator::all()
        .into_iter()
        .map(|interp| {
            let mut cfg = TwoHopConfig::paper(scale.base_seed, scale.accuracy_duration);
            cfg.interpolator = interp;
            TwoHopPoint::new(interp.label(), 0.93, cfg)
        })
        .collect();
    let sweep = TwoHopSweep {
        seed: scale.base_seed,
        points,
        regular: &regular,
        crosses: vec![&cross],
    };
    run_two_hop_sweep(&sweep, runner)
        .into_iter()
        .map(|(label, _, out)| {
            let e = Ecdf::new(
                out.mean_errors
                    .iter()
                    .copied()
                    .filter(|x| x.is_finite())
                    .collect(),
            );
            InterpRow {
                interpolator: label,
                median_error: e.median().unwrap_or(f64::NAN),
                p90_error: e.quantile(0.9).unwrap_or(f64::NAN),
            }
        })
        .collect()
}

/// Clock-sync-sensitivity row (experiment A4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncRow {
    /// Clock scenario label.
    pub scenario: String,
    /// Median per-flow mean-error.
    pub median_error: f64,
    /// Mean absolute per-flow mean-error in ns (absolute errors matter when
    /// skew biases everything).
    pub mean_abs_error_ns: f64,
}

/// Clock-synchronisation-error sensitivity at 93% utilization.
pub fn sync_ablation(scale: &Scale, runner: &SweepRunner) -> Vec<SyncRow> {
    let (regular, cross) = base_traces(scale, scale.accuracy_duration);
    let scenarios: Vec<(&str, ClockPair)> = vec![
        ("perfect", ClockPair::perfect()),
        (
            "ptp (200ns offset, 50ns jitter)",
            ClockPair {
                sender: ClockModel::perfect(),
                receiver: ClockModel::ptp(scale.base_seed),
            },
        ),
        (
            "1µs receiver offset",
            ClockPair {
                sender: ClockModel::perfect(),
                receiver: ClockModel::with_offset(1_000),
            },
        ),
        (
            "10µs receiver offset",
            ClockPair {
                sender: ClockModel::perfect(),
                receiver: ClockModel::with_offset(10_000),
            },
        ),
    ];
    let points = scenarios
        .into_iter()
        .map(|(name, clocks)| {
            let mut cfg = TwoHopConfig::paper(scale.base_seed, scale.accuracy_duration);
            cfg.clocks = clocks;
            TwoHopPoint::new(name, 0.93, cfg)
        })
        .collect();
    let sweep = TwoHopSweep {
        seed: scale.base_seed,
        points,
        regular: &regular,
        crosses: vec![&cross],
    };
    run_two_hop_sweep(&sweep, runner)
        .into_iter()
        .map(|(name, _, out)| {
            let e = Ecdf::new(
                out.mean_errors
                    .iter()
                    .copied()
                    .filter(|x| x.is_finite())
                    .collect(),
            );
            // Mean absolute error from per-flow report rows.
            let mut abs = rlir_stats::StreamingStats::new();
            for r in out.flows.report(1) {
                if let Some(t) = r.true_mean {
                    abs.push((r.est_mean - t).abs());
                }
            }
            SyncRow {
                scenario: name,
                median_error: e.median().unwrap_or(f64::NAN),
                mean_abs_error_ns: abs.mean().unwrap_or(f64::NAN),
            }
        })
        .collect()
}

/// Baseline-comparison row (experiment A6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineRow {
    /// Estimator label.
    pub estimator: String,
    /// Median per-flow relative error (`NaN` for aggregate-only LDA).
    pub per_flow_median_error: f64,
    /// Relative error of the *aggregate* mean-latency estimate.
    pub aggregate_error: f64,
    /// Flows the estimator could cover (0 for LDA).
    pub flows_covered: usize,
}

/// RLI vs LDA vs Multiflow on an identical 93%-utilization tandem run.
pub fn baselines_comparison(scale: &Scale) -> Vec<BaselineRow> {
    let mut cfg = TwoHopConfig::paper(scale.base_seed, scale.accuracy_duration);
    cfg.tandem.record_cross = false;
    let regular = generate(&cfg.regular_trace());
    let cross = generate(&cfg.cross_trace());

    // RLI run (gives per-flow estimates AND the ground-truth deliveries we
    // replay through the baselines).
    let out = run_two_hop_on(&cfg, &regular, &cross);

    // The baselines need per-packet delivery times, which the two-hop
    // harness does not expose, so re-run the tandem directly (without
    // references — LDA and Multiflow measure the undisturbed path) using the
    // same calibration as the harness.
    let sim_cfg = cfg.clone();
    let regular_util = regular.offered_utilization();
    let cross_util = cross.offered_utilization();
    let keep_prob = rlir_sim::calibrate_keep_prob(0.93, regular_util, cross_util, 1.0);
    let mut injector = rlir_sim::CrossInjector::new(
        rlir_sim::CrossModel::Uniform { keep_prob },
        sim_cfg.seed ^ 0xC505_11EC,
    );
    let cross_packets: Vec<rlir_net::Packet> = cross
        .packets
        .iter()
        .copied()
        .filter(|p| injector.select(p))
        .collect();
    let result = rlir_sim::run_tandem(
        &sim_cfg.tandem,
        regular.packets.iter().copied(),
        cross_packets.into_iter(),
    );

    // Ground truth per flow and aggregate.
    let mut truth_by_flow: FxHashMap<FlowKey, rlir_stats::StreamingStats> = FxHashMap::default();
    let mut truth_all = rlir_stats::StreamingStats::new();
    for d in &result.deliveries {
        let ns = d.true_delay().as_nanos() as f64;
        truth_by_flow.entry(d.packet.flow).or_default().push(ns);
        truth_all.push(ns);
    }
    let true_aggregate = truth_all.mean().unwrap_or(f64::NAN);

    // --- LDA -------------------------------------------------------------
    let lda_cfg = LdaConfig::default();
    let (mut tx, mut rx) = (Lda::new(lda_cfg), Lda::new(lda_cfg));
    for p in &regular.packets {
        tx.record(p.id.0, p.created_at);
    }
    for d in &result.deliveries {
        if d.packet.is_regular() {
            rx.record(d.packet.id.0, d.delivered_at);
        }
    }
    let lda_est = Lda::estimate(&tx, &rx);
    let lda_err = lda_est
        .map(|e| rlir_stats::relative_error(e.mean_delay_ns, true_aggregate))
        .unwrap_or(f64::NAN);

    // --- Multiflow ---------------------------------------------------------
    let mut up = FlowMeter::new(FlowMeterConfig::default());
    let mut down = FlowMeter::new(FlowMeterConfig::default());
    for p in &regular.packets {
        up.observe(p);
    }
    for d in &result.deliveries {
        if d.packet.is_regular() {
            down.observe_at(d.packet.flow, d.delivered_at, d.packet.size);
        }
    }
    let mf = estimate_all(&up.finish(), &down.finish());
    let mf_errors: Vec<f64> = mf
        .iter()
        .filter_map(|e| {
            truth_by_flow
                .get(&e.flow)
                .and_then(|s| s.mean())
                .map(|t| rlir_stats::relative_error(e.mean_delay_ns, t))
        })
        .filter(|x| x.is_finite())
        .collect();
    let mf_median = Ecdf::new(mf_errors.clone()).median().unwrap_or(f64::NAN);
    let mf_agg: f64 = {
        let mut s = rlir_stats::StreamingStats::new();
        for e in &mf {
            s.push(e.mean_delay_ns);
        }
        s.mean()
            .map(|m| rlir_stats::relative_error(m, true_aggregate))
            .unwrap_or(f64::NAN)
    };

    // --- RLI ---------------------------------------------------------------
    let rli_errors: Vec<f64> = out
        .mean_errors
        .iter()
        .copied()
        .filter(|x| x.is_finite())
        .collect();
    let rli_median = Ecdf::new(rli_errors).median().unwrap_or(f64::NAN);
    let rli_agg = {
        let est = out.flows.aggregate_est_mean().unwrap_or(f64::NAN);
        let truth = out.flows.aggregate_true_mean().unwrap_or(f64::NAN);
        rlir_stats::relative_error(est, truth)
    };

    // --- Trajectory sampling (1%) -----------------------------------------
    let tcfg = TrajectoryConfig::one_percent(scale.base_seed);
    let mut t_up = TrajectoryPoint::new(tcfg);
    let mut t_down = TrajectoryPoint::new(tcfg);
    for p in &regular.packets {
        t_up.observe(p.id.0, p.flow, p.created_at);
    }
    for d in &result.deliveries {
        if d.packet.is_regular() {
            t_down.observe(d.packet.id.0, d.packet.flow, d.delivered_at);
        }
    }
    let tj = trajectory_join(&t_up, &t_down);
    let traj_errors: Vec<f64> = tj
        .flows
        .iter()
        .filter_map(|f| {
            let est = f.delays.mean()?;
            let t = truth_by_flow.get(&f.flow).and_then(|s| s.mean())?;
            let e = rlir_stats::relative_error(est, t);
            e.is_finite().then_some(e)
        })
        .collect();
    let traj_median = Ecdf::new(traj_errors).median().unwrap_or(f64::NAN);
    let traj_agg = tj
        .aggregate
        .mean()
        .map(|m| rlir_stats::relative_error(m, true_aggregate))
        .unwrap_or(f64::NAN);

    vec![
        BaselineRow {
            estimator: "RLI (this paper's substrate)".into(),
            per_flow_median_error: rli_median,
            aggregate_error: rli_agg,
            flows_covered: out.flows.flow_count(),
        },
        BaselineRow {
            estimator: "LDA (aggregate only)".into(),
            per_flow_median_error: f64::NAN,
            aggregate_error: lda_err,
            flows_covered: 0,
        },
        BaselineRow {
            estimator: "Multiflow (NetFlow 2-sample)".into(),
            per_flow_median_error: mf_median,
            aggregate_error: mf_agg,
            flows_covered: mf.len(),
        },
        BaselineRow {
            estimator: "Trajectory sampling (1%)".into(),
            per_flow_median_error: traj_median,
            aggregate_error: traj_agg,
            flows_covered: tj.flows.len(),
        },
    ]
}

/// Per-flow tail-quantile (p90) accuracy row (experiment A7).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantileRow {
    /// Policy label.
    pub policy: String,
    /// The tracked quantile.
    pub p: f64,
    /// Median per-flow relative error of the quantile estimate.
    pub median_error: f64,
    /// Flows with a quantile estimate.
    pub flows: usize,
    /// Median per-flow relative error of the *mean* estimate on the same
    /// run (for contrast).
    pub mean_median_error: f64,
}

/// A7: per-flow p90 tail-latency accuracy at 93% utilization — the RLI line
/// of work's extension beyond means and standard deviations, using P²
/// streaming quantile trackers (O(1) memory per flow).
pub fn quantile_accuracy(scale: &Scale, runner: &SweepRunner) -> Vec<QuantileRow> {
    let (regular, cross) = base_traces(scale, scale.accuracy_duration);
    let points = paper_policies()
        .into_iter()
        .map(|(name, policy)| {
            let mut cfg = TwoHopConfig::paper(scale.base_seed, scale.accuracy_duration);
            cfg.policy = policy;
            cfg.track_quantile = Some(0.9);
            TwoHopPoint::new(name, 0.93, cfg)
        })
        .collect();
    let sweep = TwoHopSweep {
        seed: scale.base_seed,
        points,
        regular: &regular,
        crosses: vec![&cross],
    };
    run_two_hop_sweep(&sweep, runner)
        .into_iter()
        .map(|(name, _, out)| {
            let finite =
                |v: &[f64]| -> Vec<f64> { v.iter().copied().filter(|x| x.is_finite()).collect() };
            QuantileRow {
                policy: name,
                p: 0.9,
                median_error: Ecdf::new(finite(&out.quantile_errors))
                    .median()
                    .unwrap_or(f64::NAN),
                flows: out.quantile_errors.len(),
                mean_median_error: Ecdf::new(finite(&out.mean_errors))
                    .median()
                    .unwrap_or(f64::NAN),
            }
        })
        .collect()
}

/// Localization-demo output (experiment A5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalizeOutcome {
    /// Name of the faulty core injected.
    pub injected: String,
    /// Names of segments flagged, best first.
    pub flagged: Vec<String>,
    /// Whether the top finding matches the injected fault.
    pub correct: bool,
    /// All segment observations (name, est µs, true µs).
    pub segments: Vec<(String, f64, f64)>,
}

/// Inject a 400 µs processing fault at one core and ask the localizer.
pub fn localization_demo(scale: &Scale) -> LocalizeOutcome {
    let mut cfg = FatTreeExpConfig::paper(scale.base_seed, scale.fattree_duration);
    cfg.anomaly = Some(CoreAnomaly {
        core_ordinal: 1,
        extra_processing: SimDuration::from_micros(400),
    });
    let out = run_fattree(&cfg);
    let tree = rlir_topo::FatTree::new(cfg.k, cfg.hash);
    let injected = tree
        .node(tree.cores().nth(1).expect("core 1 exists"))
        .name
        .clone();
    let findings = localize(&out.segments, &LocalizerConfig::default());
    let flagged: Vec<String> = findings.iter().map(|f| f.name.clone()).collect();
    let correct = flagged
        .first()
        .map(|n| n.starts_with(&injected))
        .unwrap_or(false);
    LocalizeOutcome {
        injected,
        flagged,
        correct,
        segments: out
            .segments
            .iter()
            .map(|s| (s.name.clone(), s.est_mean_ns / 1e3, s.true_mean_ns / 1e3))
            .collect(),
    }
}

/// The §3.1 placement table for a range of arities.
pub fn placement_rows() -> Vec<rlir_topo::PlacementRow> {
    rlir_topo::placement_table(&[4, 6, 8, 16, 32, 48, 64])
}

/// Paper-vs-measured shape checks used by `experiments all` to print the
/// verdicts recorded in EXPERIMENTS.md.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShapeCheck {
    /// What is being checked.
    pub claim: String,
    /// Did the measured data satisfy it?
    pub holds: bool,
    /// Supporting detail.
    pub detail: String,
}

/// Evaluate the headline shape claims on Fig. 4(a) curves.
pub fn fig4a_shape_checks(curves: &[AccuracyCurve]) -> Vec<ShapeCheck> {
    let get = |label: &str| curves.iter().find(|c| c.label == label);
    let mut checks = Vec::new();
    if let (Some(a93), Some(a67), Some(s93), Some(s67)) = (
        get("Adaptive, 93%"),
        get("Adaptive, 67%"),
        get("Static, 93%"),
        get("Static, 67%"),
    ) {
        checks.push(ShapeCheck {
            claim: "accuracy improves with utilization (median err 93% < 67%), both schemes".into(),
            holds: a93.median_error < a67.median_error && s93.median_error < s67.median_error,
            detail: format!(
                "adaptive {:.1}% < {:.1}%; static {:.1}% < {:.1}%",
                a93.median_error * 100.0,
                a67.median_error * 100.0,
                s93.median_error * 100.0,
                s67.median_error * 100.0
            ),
        });
        checks.push(ShapeCheck {
            claim: "adaptive (1-and-10) beats static (1-and-100) at equal utilization".into(),
            holds: a93.median_error <= s93.median_error && a67.median_error <= s67.median_error,
            detail: format!(
                "at 93%: {:.2}% vs {:.2}%; at 67%: {:.2}% vs {:.2}%",
                a93.median_error * 100.0,
                s93.median_error * 100.0,
                a67.median_error * 100.0,
                s67.median_error * 100.0
            ),
        });
        checks.push(ShapeCheck {
            claim: "true delay grows strongly 67% → 93% (paper: 3 µs → 83 µs)".into(),
            holds: s93.avg_true_delay_us > 5.0 * s67.avg_true_delay_us,
            detail: format!(
                "{:.1} µs → {:.1} µs",
                s67.avg_true_delay_us, s93.avg_true_delay_us
            ),
        });
    }
    checks
}

/// Evaluate the shape claims on Fig. 4(c) curves.
pub fn fig4c_shape_checks(curves: &[AccuracyCurve]) -> Vec<ShapeCheck> {
    let get = |label: &str| curves.iter().find(|c| c.label == label);
    let mut checks = Vec::new();
    if let (Some(b67), Some(r67)) = (get("Bursty, 67%"), get("Random, 67%")) {
        checks.push(ShapeCheck {
            claim: "bursty cross traffic is easier to track than random at 67% (paper: ~1% vs ~10% median)".into(),
            holds: b67.median_error < r67.median_error,
            detail: format!(
                "bursty {:.2}% vs random {:.2}%",
                b67.median_error * 100.0,
                r67.median_error * 100.0
            ),
        });
        checks.push(ShapeCheck {
            claim: "bursty true delay ≫ random at equal utilization (paper: 117 µs vs 3 µs)".into(),
            holds: b67.avg_true_delay_us > 3.0 * r67.avg_true_delay_us,
            detail: format!(
                "{:.1} µs vs {:.1} µs",
                b67.avg_true_delay_us, r67.avg_true_delay_us
            ),
        });
    }
    checks
}

/// Evaluate the shape claims on Fig. 5 points.
pub fn fig5_shape_checks(points: &[Fig5Point]) -> Vec<ShapeCheck> {
    let max_of = |policy: &str| {
        points
            .iter()
            .filter(|p| p.policy == policy)
            .map(|p| p.loss_difference)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let s = max_of("Static");
    let a = max_of("Adaptive");
    vec![
        ShapeCheck {
            claim: "static perturbs less than adaptive (paper: ≤0.0042% vs up to 0.06%)".into(),
            holds: s <= a,
            detail: format!(
                "max diff static {:.4}% vs adaptive {:.4}%",
                s * 100.0,
                a * 100.0
            ),
        },
        ShapeCheck {
            claim: "interference stays small in absolute terms (<0.2% everywhere)".into(),
            holds: points.iter().all(|p| p.loss_difference.abs() < 0.002),
            detail: format!(
                "max |diff| {:.4}%",
                points
                    .iter()
                    .map(|p| p.loss_difference.abs())
                    .fold(0.0, f64::max)
                    * 100.0
            ),
        },
    ]
}
