//! Runners for every table and figure in the paper's evaluation, plus the
//! repo's ablation studies; `experiments list` names the scenario that
//! runs each. A runner whose rows only the terminal and the CSV read
//! returns its [`Table`]; the Fig. 4 curves and Fig. 5 points stay typed
//! for their shape checks.

use crate::scale::Scale;
use crate::table::{row, Table};
use rlir::experiment::{
    cross_stream, run_fattree, run_loss_sweep_on, run_two_hop_on, CoreAnomaly, CrossSpec,
    FatTreeExpConfig, LossSweepConfig, TwoHopConfig, TwoHopOutcome,
};
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
use rlir_sim::{run_network_streamed_source, NullSink, RunOptions, SortedVecSource, TandemConfig};
use rlir_stats::Ecdf;
use rlir_trace::{generate, FlowMeter, FlowMeterConfig, Trace};

/// One curve of an accuracy CDF figure (4a/4b/4c).
#[derive(Debug, Clone)]
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
    pub epochs: rlir_rli::EpochSeries,
}

impl AccuracyCurve {
    fn from_errors(label: String, target: f64, out: &TwoHopOutcome, errors: Vec<f64>) -> Self {
        let e = finite_ecdf(&errors);
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
}

/// The accuracy curves' table: one row per curve (its CDF goes to its own
/// file).
pub fn curve_table(curves: &[AccuracyCurve]) -> Table {
    let rows = curves.iter().map(|c| {
        row![
            c.label.as_str(),
            c.target_utilization,
            c.utilization,
            c.median_error,
            c.frac_below_10pct,
            c.flows,
        ]
    });
    Table::new(
        "label,target_utilization,utilization,median_error,frac_below_10pct,flows",
        rows,
    )
}

/// The median of the finite values of `v` (`NaN` when there are none).
fn finite_median(v: &[f64]) -> f64 {
    finite_ecdf(v).median().unwrap_or(f64::NAN)
}

fn finite_ecdf(v: &[f64]) -> Ecdf {
    Ecdf::new(v.iter().copied().filter(|x| x.is_finite()).collect())
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

/// The run configuration every accuracy figure builds on.
fn accuracy_cfg(scale: &Scale, policy: PolicyKind, cross: CrossSpec) -> TwoHopConfig {
    let mut cfg = TwoHopConfig::paper(scale.base_seed, scale.accuracy_duration);
    cfg.policy = policy;
    cfg.cross = cross;
    cfg
}

/// Figures 4(a) and 4(b) from one sweep: {Adaptive, Static} × {67%, 93%}
/// under the random cross-traffic model. Returns the CDFs of per-flow
/// *mean* relative error (4a) and of per-flow *standard deviation*
/// relative error (4b), both read off the same four runs.
pub fn fig4ab(scale: &Scale, runner: &SweepRunner) -> (Vec<AccuracyCurve>, Vec<AccuracyCurve>) {
    let (regular, cross) = base_traces(scale, scale.accuracy_duration);
    let points: Vec<(String, f64, TwoHopConfig)> = paper_policies()
        .into_iter()
        .flat_map(|(name, policy)| {
            [0.93f64, 0.67].map(|u| {
                let spec = CrossSpec::Uniform {
                    target_utilization: u,
                };
                let label = format!("{name}, {:.0}%", u * 100.0);
                (label, u, accuracy_cfg(scale, policy.clone(), spec))
            })
        })
        .collect();
    let mut runs = runner.map(scale.base_seed, &points, |_, (label, target, cfg)| {
        (
            label.clone(),
            *target,
            run_two_hop_on(cfg, &regular, &cross),
        )
    });
    runs.sort_by(|a, b| a.0.cmp(&b.0));
    let curves = |errors: fn(&TwoHopOutcome) -> &Vec<f64>| -> Vec<AccuracyCurve> {
        runs.iter()
            .map(|(label, target, out)| {
                AccuracyCurve::from_errors(label.clone(), *target, out, errors(out).clone())
            })
            .collect()
    };
    (curves(|o| &o.mean_errors), curves(|o| &o.std_errors))
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
    // 10 s bursts in the paper's 60 s trace: 1/6 of the trace here, 50% duty.
    let on = SimDuration::from_nanos((scale.accuracy_duration.as_nanos() / 6).max(1_000_000));
    let policy = PolicyKind::Adaptive(rlir_rli::AdaptiveConfig::paper_default());
    let points: Vec<(String, f64, TwoHopConfig, &Trace)> = [0.67f64, 0.34]
        .into_iter()
        .flat_map(|u| {
            let bursty = CrossSpec::Bursty {
                target_utilization: u,
                on,
                off: on,
            };
            let random = CrossSpec::Uniform {
                target_utilization: u,
            };
            [
                // The hotter cross trace: on-periods genuinely overload.
                ("Bursty", bursty, &cross_hot),
                ("Random", random, &cross),
            ]
            .map(|(name, spec, cross)| {
                let label = format!("{name}, {:.0}%", u * 100.0);
                (label, u, accuracy_cfg(scale, policy.clone(), spec), cross)
            })
        })
        .collect();
    let mut v = runner.map(
        scale.base_seed,
        &points,
        |_, (label, target, cfg, cross)| {
            let out = run_two_hop_on(cfg, &regular, cross);
            AccuracyCurve::from_errors(label.clone(), *target, &out, out.mean_errors.clone())
        },
    );
    v.sort_by(|a, b| a.label.cmp(&b.label));
    v
}

/// One Fig. 5 series point, averaged over seeds.
#[derive(Debug, Clone)]
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

/// The demultiplexing ablation on the fat-tree: naive vs marking vs
/// reverse-ECMP, identical workload, with each mode's segment-2 per-epoch
/// series (merged across receivers).
///
/// One core carries a 150 µs processing fault so that equal-cost paths have
/// genuinely different delays — the regime in which association matters
/// ("the delay of a reference packet that traverses one path may have no
/// correlation with the delay of a packet that traverses a different path",
/// §1). With homogeneous paths even the naive receiver looks fine, which is
/// precisely why the paper's warning is about multipath *divergence*.
pub fn demux_ablation(scale: &Scale, runner: &SweepRunner) -> Table {
    let modes = [CoreDemux::Naive, CoreDemux::Marking, CoreDemux::ReverseEcmp];
    let runs = runner.map(scale.base_seed, &modes, |_, &mode| {
        let mut cfg = FatTreeExpConfig::paper(scale.base_seed, scale.fattree_duration);
        cfg.demux = mode;
        cfg.anomaly = Some(CoreAnomaly {
            core_ordinal: 0,
            extra_processing: SimDuration::from_micros(150),
        });
        let out = run_fattree(&cfg);
        // `late` and `shed` count every tap; `peak_pending` is the highest
        // per-tap high-water mark.
        let cells = row![
            mode.label(),
            out.demux_accuracy(),
            finite_median(&out.seg1_errors),
            finite_median(&out.seg2_errors),
            out.seg2_flows.estimate_count(),
            out.late,
            out.shed,
            out.peak_pending,
        ];
        ((mode.label().to_string(), out.seg2_epochs), cells)
    });
    let (epochs, rows): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
    Table::new(
        "mode,accuracy,seg1_median_error,seg2_median_error,seg2_estimates,late,shed,peak_pending",
        rows,
    )
    .with_epochs(epochs)
}

/// Interpolation-estimator ablation at 93% utilization (static 1-and-100):
/// the median and p90 of the per-flow mean error.
pub fn interp_ablation(scale: &Scale, runner: &SweepRunner) -> Table {
    let (regular, cross) = base_traces(scale, scale.accuracy_duration);
    let rows = runner.map(scale.base_seed, &Interpolator::all(), |_, &interp| {
        let mut cfg = TwoHopConfig::paper(scale.base_seed, scale.accuracy_duration);
        cfg.interpolator = interp;
        let e = finite_ecdf(&run_two_hop_on(&cfg, &regular, &cross).mean_errors);
        row![
            interp.label(),
            e.median().unwrap_or(f64::NAN),
            e.quantile(0.9).unwrap_or(f64::NAN),
        ]
    });
    Table::new("interpolator,median_error,p90_error", rows)
}

/// Clock-synchronisation-error sensitivity at 93% utilization: the median
/// per-flow mean error, and the mean absolute per-flow error in ns
/// (absolute errors matter when skew biases everything).
pub fn sync_ablation(scale: &Scale, runner: &SweepRunner) -> Table {
    let (regular, cross) = base_traces(scale, scale.accuracy_duration);
    let receiver = |receiver| ClockPair {
        sender: ClockModel::perfect(),
        receiver,
    };
    let scenarios = [
        ("perfect", ClockPair::perfect()),
        (
            "ptp (200ns offset, 50ns jitter)",
            receiver(ClockModel::ptp(scale.base_seed)),
        ),
        (
            "1µs receiver offset",
            receiver(ClockModel::with_offset(1_000)),
        ),
        (
            "10µs receiver offset",
            receiver(ClockModel::with_offset(10_000)),
        ),
    ];
    let rows = runner.map(scale.base_seed, &scenarios, |_, &(name, clocks)| {
        let mut cfg = TwoHopConfig::paper(scale.base_seed, scale.accuracy_duration);
        cfg.clocks = clocks;
        let out = run_two_hop_on(&cfg, &regular, &cross);
        let mut abs = rlir_stats::StreamingStats::new();
        for r in out.flows.report(1) {
            if let Some(t) = r.true_mean {
                abs.push((r.est_mean - t).abs());
            }
        }
        row![
            name,
            finite_median(&out.mean_errors),
            abs.mean().unwrap_or(f64::NAN),
        ]
    });
    Table::new("scenario,median_error,mean_abs_error_ns", rows)
}

/// RLI vs LDA vs Multiflow vs trajectory sampling on an identical
/// 93%-utilization tandem run: each estimator's median per-flow relative
/// error (`NaN` for aggregate-only LDA), the relative error of its
/// *aggregate* mean-latency estimate, and the flows it covers.
pub fn baselines_comparison(scale: &Scale) -> Table {
    let cfg = TwoHopConfig::paper(scale.base_seed, scale.accuracy_duration);
    let regular = generate(&cfg.regular_trace());
    let cross = generate(&cfg.cross_trace());

    // RLI run (gives per-flow estimates AND the ground-truth deliveries we
    // replay through the baselines).
    let out = run_two_hop_on(&cfg, &regular, &cross);

    // The baselines need per-packet delivery times, which the two-hop
    // harness does not expose, so re-run the tandem directly (without
    // references — LDA and Multiflow measure the undisturbed path) on the
    // harness's own cross stream. Each regular delivery keeps `(delivered
    // at, id, flow, size, created at)`, in delivery-time-then-id order.
    let (sw1, sw2) = (TandemConfig::SW1, TandemConfig::SW2);
    let injections = (regular.packets.iter().map(|p| (sw1, *p)))
        .chain(cross_stream(&cfg, &regular, &cross).map(|p| (sw2, p)));
    let mut deliveries = Vec::new();
    run_network_streamed_source(
        cfg.tandem.network(),
        &cfg.tandem,
        SortedVecSource::new(injections),
        &mut NullSink,
        RunOptions::default(),
        |d| {
            let p = d.packet;
            if p.is_regular() {
                deliveries.push((d.delivered_at, p.id, p.flow, p.size, p.created_at));
            }
        },
    );
    deliveries.sort_by_key(|&(at, id, ..)| (at, id));

    // Ground truth per flow and aggregate.
    let mut truth_by_flow: FxHashMap<FlowKey, rlir_stats::StreamingStats> = FxHashMap::default();
    let mut truth_all = rlir_stats::StreamingStats::new();
    for &(at, _, flow, _, created) in &deliveries {
        let ns = at.saturating_since(created).as_nanos() as f64;
        truth_by_flow.entry(flow).or_default().push(ns);
        truth_all.push(ns);
    }
    let true_aggregate = truth_all.mean().unwrap_or(f64::NAN);
    let vs_aggregate =
        |est: Option<f64>| est.map_or(f64::NAN, |m| rlir_stats::relative_error(m, true_aggregate));
    let vs_flow = |flow: &FlowKey, est: f64| {
        let t = truth_by_flow.get(flow).and_then(|s| s.mean())?;
        Some(rlir_stats::relative_error(est, t))
    };

    // --- LDA -------------------------------------------------------------
    let lda_cfg = LdaConfig::default();
    let (mut tx, mut rx) = (Lda::new(lda_cfg), Lda::new(lda_cfg));
    for p in &regular.packets {
        tx.record(p.id.0, p.created_at);
    }
    for &(at, id, ..) in &deliveries {
        rx.record(id.0, at);
    }
    let lda_err = vs_aggregate(Lda::estimate(&tx, &rx).map(|e| e.mean_delay_ns));

    // --- Multiflow ---------------------------------------------------------
    let mut up = FlowMeter::new(FlowMeterConfig::default());
    let mut down = FlowMeter::new(FlowMeterConfig::default());
    for p in &regular.packets {
        up.observe(p);
    }
    for &(at, _, flow, size, _) in &deliveries {
        down.observe_at(flow, at, size);
    }
    let mf = estimate_all(&up.finish(), &down.finish());
    let mf_errors: Vec<f64> = (mf.iter())
        .filter_map(|e| vs_flow(&e.flow, e.mean_delay_ns))
        .collect();
    let mut mf_mean = rlir_stats::StreamingStats::new();
    mf.iter().for_each(|e| mf_mean.push(e.mean_delay_ns));

    // --- RLI ---------------------------------------------------------------
    let rli_median = finite_median(&out.mean_errors);
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
    for &(at, id, flow, ..) in &deliveries {
        t_down.observe(id.0, flow, at);
    }
    let tj = trajectory_join(&t_up, &t_down);
    let traj_errors: Vec<f64> = (tj.flows.iter())
        .filter_map(|f| vs_flow(&f.flow, f.delays.mean()?))
        .collect();

    let rows = vec![
        row![
            "RLI (this paper's substrate)",
            rli_median,
            rli_agg,
            out.flows.flow_count(),
        ],
        row!["LDA (aggregate only)", f64::NAN, lda_err, 0usize],
        row![
            "Multiflow (NetFlow 2-sample)",
            finite_median(&mf_errors),
            vs_aggregate(mf_mean.mean()),
            mf.len(),
        ],
        row![
            "Trajectory sampling (1%)",
            finite_median(&traj_errors),
            vs_aggregate(tj.aggregate.mean()),
            tj.flows.len(),
        ],
    ];
    Table::new(
        "estimator,per_flow_median_error,aggregate_error,flows_covered",
        rows,
    )
}

/// A7: per-flow p90 tail-latency accuracy at 93% utilization — the RLI line
/// of work's extension beyond means and standard deviations, read off each
/// flow's four largest delays (exact below 40 packets, an upper bound past).
/// Each policy's row holds the median per-flow error of the p90 estimate,
/// that of the *mean* estimate on the same run (for contrast), and the
/// flows with a p90 estimate.
pub fn quantile_accuracy(scale: &Scale, runner: &SweepRunner) -> Table {
    let (regular, cross) = base_traces(scale, scale.accuracy_duration);
    let rows = runner.map(scale.base_seed, &paper_policies(), |_, (name, policy)| {
        let mut cfg = TwoHopConfig::paper(scale.base_seed, scale.accuracy_duration);
        cfg.policy = policy.clone();
        cfg.track_quantile = Some(0.9);
        let out = run_two_hop_on(&cfg, &regular, &cross);
        row![
            *name,
            0.9,
            finite_median(&out.quantile_errors),
            finite_median(&out.mean_errors),
            out.quantile_errors.len(),
        ]
    });
    Table::new("policy,p,median_error,mean_median_error,flows", rows)
}

/// The §3.1 placement table for a range of arities (closed form).
pub fn placement_table() -> Table {
    let rows = rlir_topo::placement_table(&[4, 6, 8, 16, 32, 48, 64]);
    Table::new(
        "k,interface_pair,tor_pair,all_tor_pairs_paper,all_tor_pairs_enumerated,full_deployment",
        rows.iter().map(|r| {
            row![
                r.k,
                r.interface_pair,
                r.tor_pair,
                r.all_tor_pairs_paper,
                r.all_tor_pairs_enumerated,
                r.full_deployment,
            ]
        }),
    )
}

/// A paper-vs-measured shape check: the `[PASS]`/`[MISS]` verdicts the
/// `two_hop`, `bursty` and `interference` scenarios print.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// What is being checked.
    pub claim: String,
    /// Did the measured data satisfy it?
    pub holds: bool,
    /// Supporting detail.
    pub detail: String,
}

/// Print `[PASS]`/`[MISS]` shape-check lines.
pub fn print_shape_checks(checks: &[ShapeCheck]) {
    for c in checks {
        let verdict = if c.holds { "PASS" } else { "MISS" };
        println!("  [{verdict}] {} — {}", c.claim, c.detail);
    }
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
