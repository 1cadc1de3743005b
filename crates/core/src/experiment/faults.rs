//! Closed-loop fault detection sweep — **time-to-localize** as a
//! first-class metric.
//!
//! The localization sweep injects its anomaly at t = 0 and asks "where"
//! after the run. This sweep is the continuous-operation counterpart: a
//! scripted service-time degradation switches **on mid-run** at a swept
//! onset time, the online [`EpochDetector`](crate::detect::EpochDetector)
//! watches the measurement plane as epochs settle, and the first alarm
//! halts the engine through the stop-flag hook. What gets reported is the
//! operator's quantity: how long after the fault appeared was it localized
//! (detection watermark − onset), at what false-positive rate, as
//! background load — and with it the anomaly's relative severity — varies.
//!
//! The victim is drawn per trial from the same measured core/edge pool as
//! the localization sweep, and a detection is *correct* when the flagged
//! segment's path traverses the victim (the deployment's localization
//! granularity). An alarm that fires before the onset is a false positive.

use super::fattree::{run_fattree_faulted, FatTreeExpConfig, ANOMALY};
use crate::detect::DetectorConfig;
use rlir_exec::SweepRunner;
use rlir_net::time::SimDuration;
use rlir_sim::{FaultEvent, FaultKind, FaultScript};
use rlir_topo::FatTree;

/// Configuration of the closed-loop fault sweep.
#[derive(Debug, Clone)]
pub struct FaultsConfig {
    /// Base fat-tree experiment; `seed` and `background_load` are
    /// overridden per point.
    pub base: FatTreeExpConfig,
    /// Sweep points: background utilization per non-measured ToR.
    pub utilizations: Vec<f64>,
    /// Sweep points: fault onset times into the run.
    pub onsets: Vec<SimDuration>,
    /// Victim draws per (utilization, onset) point.
    pub trials: usize,
}

impl FaultsConfig {
    /// Defaults: the k = 4 paper fabric with 1 ms epochs, a 400 µs
    /// degradation switching on at two onsets, idle and busy background.
    pub fn paper(seed: u64, duration: SimDuration) -> Self {
        let mut base = FatTreeExpConfig::paper(seed, duration);
        // Online detection wants epochs much shorter than the run; 1 ms
        // keeps several settled epochs ahead of every swept onset.
        base.plane.epoch = Some(SimDuration::from_millis(1));
        FaultsConfig {
            base,
            utilizations: vec![0.05, 0.25],
            onsets: vec![SimDuration::from_millis(4), SimDuration::from_millis(8)],
            trials: 2,
        }
    }
}

/// Outcome of one victim trial.
#[derive(Debug, Clone)]
pub struct FaultsTrial {
    /// Background utilization of this trial's point.
    pub utilization: f64,
    /// Fault onset, ns into the run.
    pub onset_ns: u64,
    /// Name of the afflicted switch.
    pub victim: String,
    /// Name of the flagged segment (`None`: the detector never fired).
    pub flagged: Option<String>,
    /// Whether the flagged segment's path traverses the victim.
    pub correct: bool,
    /// The alarm fired **before** the onset — a false positive.
    pub false_positive: bool,
    /// Time-to-localize: detection watermark − onset, ns (`None` unless a
    /// post-onset detection fired).
    pub ttl_ns: Option<u64>,
    /// CUSUM score at the alarm (`NaN` without one).
    pub score: f64,
    /// Engine events processed before the run halted (detection truncates
    /// the run — that is the closed loop working).
    pub events: u64,
}

/// Per-(utilization, onset) aggregate of the sweep.
#[derive(Debug, Clone)]
pub struct FaultsPoint {
    /// Background utilization.
    pub utilization: f64,
    /// Fault onset, ns into the run.
    pub onset_ns: u64,
    /// Victim trials at this point.
    pub trials: usize,
    /// Trials with a post-onset detection.
    pub detected: usize,
    /// Detections whose flagged segment traverses the victim.
    pub correct: usize,
    /// Trials whose alarm fired before the onset.
    pub false_positives: usize,
    /// Mean time-to-localize over detected trials, ns (`NaN` if none).
    pub mean_ttl_ns: f64,
}

/// Run the closed-loop fault sweep through the shared executor:
/// `utilizations × onsets × trials` points, victim drawn per point from the
/// derived seed (thread-count invariant, like every sweep here), trials
/// folded per `(utilization, onset)` cell.
pub fn run_faults(cfg: &FaultsConfig, runner: &SweepRunner) -> Vec<FaultsPoint> {
    let grid: Vec<(f64, u64)> = cfg
        .utilizations
        .iter()
        .flat_map(|&u| {
            cfg.onsets
                .iter()
                .flat_map(move |o| std::iter::repeat_n((u, o.as_nanos()), cfg.trials))
        })
        .collect();
    let trials = runner.map(cfg.base.seed, &grid, |ctx, &(utilization, onset_ns)| {
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
        let onset = rlir_net::time::SimTime::from_nanos(onset_ns);
        let script = FaultScript::new(vec![FaultEvent {
            at: onset,
            kind: FaultKind::SlowSwitch {
                node: victim,
                extra: ANOMALY,
            },
        }]);

        let run = run_fattree_faulted(&run_cfg, Some(&script), Some(&DetectorConfig::default()));
        let expected = deployment.segments_through(victim);
        let detection = run.detection;
        let false_positive = detection
            .as_ref()
            .is_some_and(|d| d.at.as_nanos() < onset_ns);
        let post_onset = detection.as_ref().filter(|d| d.at.as_nanos() >= onset_ns);
        FaultsTrial {
            utilization,
            onset_ns,
            victim: tree.node(victim).name.clone(),
            flagged: detection.as_ref().map(|d| d.name.clone()),
            correct: post_onset.is_some_and(|d| expected.contains(&d.name.as_str())),
            false_positive,
            ttl_ns: post_onset.map(|d| d.at.as_nanos() - onset_ns),
            score: detection.as_ref().map_or(f64::NAN, |d| d.score),
            events: run.events,
        }
    });
    let mut points: Vec<FaultsPoint> = Vec::new();
    let mut ttl_sum = 0.0f64;
    for trial in trials {
        // Outcomes arrive in point order: trials of one
        // (utilization, onset) cell are contiguous.
        let same = points
            .last()
            .is_some_and(|p| p.utilization == trial.utilization && p.onset_ns == trial.onset_ns);
        if !same {
            ttl_sum = 0.0;
            points.push(FaultsPoint {
                utilization: trial.utilization,
                onset_ns: trial.onset_ns,
                trials: 0,
                detected: 0,
                correct: 0,
                false_positives: 0,
                mean_ttl_ns: f64::NAN,
            });
        }
        let p = points.last_mut().expect("just ensured");
        p.trials += 1;
        if trial.false_positive {
            p.false_positives += 1;
        }
        if let Some(ttl) = trial.ttl_ns {
            p.detected += 1;
            ttl_sum += ttl as f64;
            p.mean_ttl_ns = ttl_sum / p.detected as f64;
        }
        if trial.correct {
            p.correct += 1;
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_rli::PolicyKind;

    fn quick_cfg() -> FaultsConfig {
        let mut cfg = FaultsConfig::paper(29, SimDuration::from_millis(30));
        cfg.base.policy = PolicyKind::Static { n: 30 };
        cfg.utilizations = vec![0.05];
        cfg.onsets = vec![SimDuration::from_millis(5)];
        cfg.trials = 2;
        cfg
    }

    #[test]
    fn detects_mid_run_degradation_with_bounded_delay() {
        let pts = run_faults(&quick_cfg(), &SweepRunner::single());
        assert_eq!(pts.len(), 1);
        let p = &pts[0];
        assert_eq!(p.trials, 2);
        // A 400 µs degradation at calm load towers over the baseline:
        // every trial must detect it, after the onset, on a segment
        // traversing the victim.
        assert_eq!(p.detected, p.trials, "missed detections");
        assert_eq!(p.correct, p.detected, "wrong segment flagged");
        assert_eq!(p.false_positives, 0);
        // Online bound: epochs settle two reorder windows (8 ms) behind
        // the watermark, so TTL is the settling lag plus a few epochs —
        // and must stay well inside the run.
        assert!(p.mean_ttl_ns.is_finite());
        assert!(
            p.mean_ttl_ns < 20_000_000.0,
            "TTL {} ns not online",
            p.mean_ttl_ns
        );
    }

    #[test]
    fn detection_truncates_the_run() {
        let cfg = quick_cfg();
        let mut base = cfg.base.clone();
        base.background_load = 0.05;
        let tree = FatTree::new(base.k, base.hash);
        let victim = base.deployment(&tree).victim_pool(&tree)[0];
        let script = FaultScript::new(vec![FaultEvent {
            at: rlir_net::time::SimTime::from_nanos(5_000_000),
            kind: FaultKind::SlowSwitch {
                node: victim,
                extra: ANOMALY,
            },
        }]);
        // Same faulted run with and without the closed loop: the stop
        // flag must really halt the engine mid-run.
        let open = run_fattree_faulted(&base, Some(&script), None);
        let closed = run_fattree_faulted(&base, Some(&script), Some(&DetectorConfig::default()));
        assert!(open.detection.is_none());
        let d = closed.detection.expect("the 400 µs fault must be detected");
        assert!(d.at.as_nanos() >= 5_000_000);
        assert!(
            closed.events < open.events,
            "closed {} vs open {}: detection must truncate the run",
            closed.events,
            open.events
        );
    }

    #[test]
    fn thread_count_invariant() {
        let cfg = quick_cfg();
        let a = run_faults(&cfg, &SweepRunner::single());
        let b = run_faults(&cfg, &SweepRunner::new(2));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.detected, y.detected);
            assert_eq!(x.correct, y.correct);
            assert_eq!(x.mean_ttl_ns.to_bits(), y.mean_ttl_ns.to_bits());
        }
    }
}
