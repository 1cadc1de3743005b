//! Incast / burst-fan-in on the fat-tree.
//!
//! Partition–aggregate workloads (cf. RepNet, Liu et al.) synchronize many
//! senders onto one destination: every worker answers in the same short
//! window, the fan-in collides at the destination ToR's downlink, and
//! queues swing between empty and overloaded within milliseconds — the
//! hardest regime for reference-based latency estimation, because delay
//! changes fastest exactly where samples are sparsest. This scenario drives
//! the §3 RLIR fat-tree with synchronized-burst measured traffic
//! ([`rlir_trace::compress_into_bursts`]) and sweeps the fan-in degree,
//! reporting per-flow estimate accuracy per segment as the bursts steepen.

use super::fattree::{run_fattree, FatTreeExpConfig, FatTreeOutcome};
use rlir_exec::SweepRunner;
use rlir_net::time::SimDuration;
use rlir_rli::EpochSeries;
use rlir_stats::Ecdf;
use rlir_trace::BurstShape;

/// Configuration of the incast sweep.
#[derive(Debug, Clone)]
pub struct IncastConfig {
    /// Base fat-tree experiment; `n_src_tors`, `seed` and `burst` are
    /// overridden per point.
    pub base: FatTreeExpConfig,
    /// Sweep points: number of synchronized source ToRs (k = 4 supports up
    /// to 6 sources outside the destination pod).
    pub fan_in: Vec<usize>,
    /// The synchronized burst envelope all sources share.
    pub burst: BurstShape,
}

impl IncastConfig {
    /// Defaults: a k = 4 fabric whose sources each offer 25% of an edge
    /// link squeezed into 20%-duty bursts — a 1.25× instantaneous overload
    /// per source, so the destination downlink saturates once two or more
    /// sources fire together.
    pub fn paper(seed: u64, duration: SimDuration) -> Self {
        let mut base = FatTreeExpConfig::paper(seed, duration);
        base.measured_load = 0.25;
        IncastConfig {
            base,
            fan_in: vec![1, 2, 4, 6],
            burst: BurstShape {
                period: SimDuration::from_millis(5),
                duty: 0.2,
            },
        }
    }
}

/// One point of the incast sweep.
#[derive(Debug, Clone)]
pub struct IncastPoint {
    /// Number of synchronized sources at this point.
    pub fan_in: usize,
    /// Median per-flow relative error, segment 1 (source ToR → core).
    pub seg1_median_error: f64,
    /// Median per-flow relative error, segment 2 (core → destination ToR).
    pub seg2_median_error: f64,
    /// Mean true segment-2 delay, µs (burst pressure indicator).
    pub seg2_true_delay_us: f64,
    /// Downstream demux association accuracy.
    pub demux_accuracy: f64,
    /// Measured regular packets delivered end-to-end.
    pub measured_delivered: u64,
    /// Reference packets emitted (ToR + core senders).
    pub refs_emitted: u64,
    /// Segment-2 per-epoch series (merged across receivers): the
    /// burst-resolved latency time-series at the shared downlink.
    pub seg2_epochs: EpochSeries,
}

impl IncastPoint {
    fn from_outcome(fan_in: usize, out: FatTreeOutcome) -> Self {
        let med = |v: &[f64]| {
            let finite: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
            Ecdf::new(finite).median().unwrap_or(f64::NAN)
        };
        IncastPoint {
            fan_in,
            seg1_median_error: med(&out.seg1_errors),
            seg2_median_error: med(&out.seg2_errors),
            seg2_true_delay_us: out.seg2_flows.aggregate_true_mean().unwrap_or(f64::NAN) / 1e3,
            demux_accuracy: out.demux_accuracy(),
            measured_delivered: out.measured_delivered,
            refs_emitted: out.refs_emitted.0 + out.refs_emitted.1,
            seg2_epochs: out.seg2_epochs,
        }
    }
}

/// Run the incast sweep through the shared executor: one fan-in degree per
/// point.
pub fn run_incast(cfg: &IncastConfig, runner: &SweepRunner) -> Vec<IncastPoint> {
    runner.map(cfg.base.seed, &cfg.fan_in, |_, &fan_in| {
        // The seed is deliberately held fixed across points (like the demux
        // ablation): the fan-in degree is the only variable, so adjacent
        // points differ by burst pressure alone, not trace-regeneration
        // noise. Determinism does not need per-point seeds here — the
        // config already differs per point.
        let mut run_cfg = cfg.base.clone();
        run_cfg.n_src_tors = fan_in;
        run_cfg.burst = Some(cfg.burst);
        IncastPoint::from_outcome(fan_in, run_fattree(&run_cfg))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_rli::PolicyKind;

    fn quick_cfg() -> IncastConfig {
        let mut cfg = IncastConfig::paper(17, SimDuration::from_millis(20));
        cfg.base.policy = PolicyKind::Static { n: 30 };
        cfg.fan_in = vec![1, 4];
        cfg
    }

    #[test]
    fn fan_in_raises_burst_pressure() {
        let pts = run_incast(&quick_cfg(), &SweepRunner::single());
        assert_eq!(pts.len(), 2);
        let (lo, hi) = (&pts[0], &pts[1]);
        assert_eq!((lo.fan_in, hi.fan_in), (1, 4));
        assert!(lo.measured_delivered > 100, "{}", lo.measured_delivered);
        assert!(hi.measured_delivered > lo.measured_delivered);
        assert!(lo.refs_emitted > 0 && hi.refs_emitted > 0);
        // Synchronized fan-in must visibly load the shared downlink.
        assert!(
            hi.seg2_true_delay_us > lo.seg2_true_delay_us,
            "fan-in 4 delay {} µs not above fan-in 1 delay {} µs",
            hi.seg2_true_delay_us,
            lo.seg2_true_delay_us
        );
    }

    #[test]
    fn estimates_survive_bursts() {
        let pts = run_incast(&quick_cfg(), &SweepRunner::single());
        for p in &pts {
            assert!(p.demux_accuracy > 0.99, "demux {}", p.demux_accuracy);
            assert!(
                p.seg2_median_error.is_finite() && p.seg2_median_error < 1.5,
                "seg2 median error {}",
                p.seg2_median_error
            );
            // The burst-resolved downlink series rides along.
            assert!(p.seg2_epochs.iter().any(|e| e.estimated > 0));
        }
    }

    #[test]
    fn thread_count_invariant() {
        let cfg = quick_cfg();
        let a = run_incast(&cfg, &SweepRunner::single());
        let b = run_incast(&cfg, &SweepRunner::new(2));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fan_in, y.fan_in);
            assert_eq!(x.seg2_median_error.to_bits(), y.seg2_median_error.to_bits());
            assert_eq!(x.measured_delivered, y.measured_delivered);
        }
    }
}
