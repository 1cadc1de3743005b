//! Fabric-wide latency-anomaly localization sweep — the operator workflow
//! the whole architecture exists for (§1: "detecting and localizing
//! latency-related problems at router and switch levels").
//!
//! Each point injects a queueing anomaly (extra per-packet processing
//! delay) at one *randomly drawn* core or edge (aggregation) switch of the
//! fat-tree, runs the full RLIR deployment through the measurement plane,
//! and asks the segment localizer to name the culprit. The sweep varies
//! background utilization: as the fabric's baseline queueing grows, the
//! anomaly's severity relative to the healthy-segment median shrinks, and
//! detection accuracy degrades — exactly the operating envelope an operator
//! needs to know.
//!
//! Localization granularity is the deployment's segment structure: a
//! finding is correct when the flagged segment crosses the victim, which
//! the [`Deployment`](crate::Deployment) answers from its receiver rows
//! ([`Deployment::segments_through`](crate::Deployment::segments_through)).
//! A core victim is nameable exactly (`C[g.j]→T…`), while an edge victim
//! shares its segments (a source-pod edge sits on `T→C` segments of its
//! pod; a destination-pod edge sits on the `C→T` segments of its core
//! group). That is the paper's trade-off of deployment cost against
//! granularity, made measurable. Victims are drawn from
//! [`Deployment::victim_pool`](crate::Deployment::victim_pool).

use super::fattree::{run_fattree, FatTreeExpConfig, SwitchAnomaly, ANOMALY};
use crate::localization::{localize, LocalizerConfig};
use crate::plane::localize_epoch_series;
use rlir_exec::SweepRunner;
use rlir_net::time::SimDuration;
use rlir_rli::EpochSeries;
use rlir_topo::FatTree;

/// Configuration of the localization sweep.
#[derive(Debug, Clone)]
pub struct LocalizeConfig {
    /// Base fat-tree experiment; `seed`, `background_load` and `anomaly`
    /// are overridden per point.
    pub base: FatTreeExpConfig,
    /// Sweep points: background utilization per non-measured ToR.
    pub utilizations: Vec<f64>,
    /// Victim draws per utilization point.
    pub trials: usize,
}

impl LocalizeConfig {
    /// Defaults: the k = 4 paper fabric, a 400 µs processing fault, three
    /// victims per utilization, background load swept from idle to busy.
    pub fn paper(seed: u64, duration: SimDuration) -> Self {
        LocalizeConfig {
            base: FatTreeExpConfig::paper(seed, duration),
            utilizations: vec![0.05, 0.15, 0.30],
            trials: 3,
        }
    }
}

/// Outcome of one victim trial.
#[derive(Debug, Clone)]
pub struct LocalizeTrial {
    /// Background utilization of this trial's point.
    pub utilization: f64,
    /// Name of the afflicted switch.
    pub victim: String,
    /// Name of the top-ranked flagged segment (`None`: nothing flagged).
    pub flagged: Option<String>,
    /// Severity of the top finding (`NaN` when nothing was flagged).
    pub severity: f64,
    /// Whether the top finding's segment traverses the victim.
    pub correct: bool,
    /// Scored segments available to the detector.
    pub segments: usize,
    /// Anomaly **onset**: start time of the first epoch in which the
    /// per-epoch ranking flagged a segment traversing the victim (`None`:
    /// never flagged per epoch, or epochs disabled). The whole-run
    /// detector answers "where"; this answers "since when".
    pub onset_ns: Option<u64>,
    /// The victim's merged per-epoch series (union over the segments that
    /// traverse it) — the registry's time-series export.
    pub victim_epochs: EpochSeries,
}

/// Per-utilization aggregate of the sweep.
#[derive(Debug, Clone)]
pub struct LocalizePoint {
    /// Background utilization.
    pub utilization: f64,
    /// Victim trials at this utilization.
    pub trials: usize,
    /// Trials whose top finding traversed the victim.
    pub correct: usize,
    /// Trials in which the detector flagged anything at all.
    pub flagged: usize,
    /// `correct / trials`.
    pub accuracy: f64,
    /// Mean top-finding severity over flagged trials (`NaN` if none).
    pub mean_severity: f64,
    /// Trials whose per-epoch ranking flagged the victim in some epoch.
    pub onsets: usize,
    /// Mean onset time over those trials, ns (`NaN` if none).
    pub mean_onset_ns: f64,
}

/// Full output of the localization sweep: the per-utilization aggregates
/// plus every trial (the registry's per-epoch series export reads the
/// trials).
#[derive(Debug, Clone)]
pub struct LocalizeReport {
    /// Per-utilization aggregates, in sweep order.
    pub points: Vec<LocalizePoint>,
    /// Every victim trial, in point order.
    pub trials: Vec<LocalizeTrial>,
}

/// Run the localization sweep through the shared executor:
/// `utilizations × trials` points, victim drawn per point from the derived
/// seed. Returns the per-utilization aggregates *and* the trials (they
/// carry the per-epoch victim series and onset times).
pub fn run_localize(cfg: &LocalizeConfig, runner: &SweepRunner) -> LocalizeReport {
    let grid: Vec<f64> = cfg
        .utilizations
        .iter()
        .flat_map(|&u| std::iter::repeat_n(u, cfg.trials))
        .collect();
    let localizer = LocalizerConfig::default();
    let trials = runner.map(cfg.base.seed, &grid, |ctx, &utilization| {
        let mut run_cfg = cfg.base.clone();
        run_cfg.seed = ctx.seed; // fresh workload per trial, seed-derived
        run_cfg.background_load = utilization;
        let tree = FatTree::new(run_cfg.k, run_cfg.hash);
        let deployment = run_cfg.deployment(&tree);
        let pool = deployment.victim_pool(&tree);
        // Victim draw: one multiplicative hash step of the derived seed —
        // deterministic in (config, point index), independent of threads.
        let draw = (ctx.seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as usize;
        let victim = pool[draw % pool.len()];
        run_cfg.anomaly = Some(SwitchAnomaly {
            node: victim,
            extra_processing: ANOMALY,
        });

        let out = run_fattree(&run_cfg);
        let findings = localize(&out.segments, &localizer);
        let expected = deployment.segments_through(victim);
        let top = findings.first();
        // The epoch dimension: rank segments per epoch and record when the
        // victim first stood out, plus its merged time-series.
        let (onset_ns, victim_epochs) = match out.epoch_ns {
            Some(epoch_ns) => {
                let series: Vec<(&str, &EpochSeries)> = out
                    .segment_epochs
                    .iter()
                    .map(|(n, s)| (n.as_str(), s))
                    .collect();
                let per_epoch = localize_epoch_series(&series, epoch_ns, &localizer);
                let onset = per_epoch
                    .iter()
                    .find(|ef| {
                        ef.findings
                            .iter()
                            .any(|f| expected.contains(&f.name.as_str()))
                    })
                    .map(|ef| ef.start.as_nanos());
                let victim_series = out
                    .segment_epochs
                    .iter()
                    .filter(|(n, _)| expected.contains(&n.as_str()))
                    .map(|(_, s)| s);
                (onset, EpochSeries::union(epoch_ns, victim_series))
            }
            None => (None, EpochSeries::default()),
        };
        LocalizeTrial {
            utilization,
            victim: tree.node(victim).name.clone(),
            flagged: top.map(|f| f.name.clone()),
            severity: top.map(|f| f.severity).unwrap_or(f64::NAN),
            correct: top.is_some_and(|f| expected.contains(&f.name.as_str())),
            segments: out.segments.len(),
            onset_ns,
            victim_epochs,
        }
    });
    let mut points: Vec<LocalizePoint> = Vec::with_capacity(cfg.utilizations.len());
    let mut severity_sum = 0.0f64;
    let mut onset_sum = 0.0f64;
    for trial in &trials {
        // Trials arrive in point order: trials of one utilization are
        // contiguous.
        let same = points
            .last()
            .is_some_and(|p| p.utilization == trial.utilization);
        if !same {
            severity_sum = 0.0;
            onset_sum = 0.0;
            points.push(LocalizePoint {
                utilization: trial.utilization,
                trials: 0,
                correct: 0,
                flagged: 0,
                accuracy: 0.0,
                mean_severity: f64::NAN,
                onsets: 0,
                mean_onset_ns: f64::NAN,
            });
        }
        let p = points.last_mut().expect("just ensured");
        p.trials += 1;
        if trial.correct {
            p.correct += 1;
        }
        if trial.severity.is_finite() {
            p.flagged += 1;
            severity_sum += trial.severity;
            p.mean_severity = severity_sum / p.flagged as f64;
        }
        if let Some(onset) = trial.onset_ns {
            p.onsets += 1;
            onset_sum += onset as f64;
            p.mean_onset_ns = onset_sum / p.onsets as f64;
        }
        p.accuracy = p.correct as f64 / p.trials as f64;
    }
    LocalizeReport { points, trials }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_rli::PolicyKind;

    fn quick_cfg() -> LocalizeConfig {
        let mut cfg = LocalizeConfig::paper(23, SimDuration::from_millis(20));
        cfg.base.policy = PolicyKind::Static { n: 30 };
        cfg.utilizations = vec![0.05, 0.15];
        cfg.trials = 2;
        cfg
    }

    #[test]
    fn localizes_random_victims_at_low_load() {
        let rep = run_localize(&quick_cfg(), &SweepRunner::single());
        let pts = &rep.points;
        assert_eq!(pts.len(), 2);
        for p in pts {
            assert_eq!(p.trials, 2);
        }
        // At calm load the 400 µs fault towers over µs-scale baselines:
        // every draw must be localized to a segment traversing the victim.
        assert_eq!(pts[0].correct, pts[0].trials, "low-load trials missed");
        assert!(
            pts[0].mean_severity > 3.0,
            "severity {}",
            pts[0].mean_severity
        );
        // The epoch dimension: the fault is on from t = 0, so the per-epoch
        // ranking must name the victim with an early onset, and every trial
        // must carry the victim's time-series.
        assert_eq!(rep.trials.len(), 4);
        let low: Vec<_> = rep
            .trials
            .iter()
            .filter(|t| t.utilization == 0.05)
            .collect();
        for t in &low {
            assert!(!t.victim_epochs.is_empty(), "victim series missing");
            let onset = t.onset_ns.expect("persistent fault must have an onset");
            assert!(onset <= 10_000_000, "onset {onset} ns not early");
        }
        assert!(pts[0].onsets >= 1);
        assert!(pts[0].mean_onset_ns.is_finite());
    }

    #[test]
    fn thread_count_invariant() {
        let cfg = {
            let mut c = quick_cfg();
            c.utilizations = vec![0.1];
            c
        };
        let a = run_localize(&cfg, &SweepRunner::single()).points;
        let b = run_localize(&cfg, &SweepRunner::new(2)).points;
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.utilization.to_bits(), y.utilization.to_bits());
            assert_eq!(x.correct, y.correct);
            assert_eq!(x.mean_severity.to_bits(), y.mean_severity.to_bits());
        }
    }
}
