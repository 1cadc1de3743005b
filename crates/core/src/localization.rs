//! Latency-anomaly localization.
//!
//! The point of the whole architecture: "Detecting and localizing
//! latency-related problems at router and switch levels" (§1) at the
//! granularity RLIR's partial deployment affords — *segments* between
//! measurement instances (e.g. `T1→C1` and `C1→T7` instead of each of the
//! five switches on the path).
//!
//! The detector is deliberately simple and robust: a segment is anomalous
//! when its estimated mean latency exceeds a robust baseline (the median
//! across comparable segments) by a configurable factor. That is exactly the
//! operator workflow the paper targets: the per-segment estimates isolate
//! *which* upgraded-router-to-upgraded-router hop misbehaves.

/// One measured segment's aggregate latency.
#[derive(Debug, Clone)]
pub struct SegmentObservation {
    /// Printable segment name, e.g. `"T[0.0]→C[1.0]"`.
    pub name: String,
    /// Estimated mean latency over the observation window, ns.
    pub est_mean_ns: f64,
    /// True mean latency (simulation ground truth), ns.
    pub true_mean_ns: f64,
    /// Packets contributing to the estimate.
    pub packets: u64,
}

/// An anomaly verdict.
#[derive(Debug, Clone)]
pub struct AnomalyFinding {
    /// Index into the observation slice.
    pub segment: usize,
    /// Segment name (copied for convenience).
    pub name: String,
    /// Ratio of the segment's estimate to the baseline median.
    pub severity: f64,
}

/// Detector configuration.
#[derive(Debug, Clone, Copy)]
pub struct LocalizerConfig {
    /// A segment is anomalous when `est_mean > factor × median(est_means)`.
    pub factor: f64,
    /// Segments with fewer packets than this are not judged (too noisy).
    pub min_packets: u64,
}

impl Default for LocalizerConfig {
    fn default() -> Self {
        LocalizerConfig {
            factor: 3.0,
            min_packets: 10,
        }
    }
}

/// Find anomalous segments; results sorted by descending severity.
pub fn localize(observations: &[SegmentObservation], cfg: &LocalizerConfig) -> Vec<AnomalyFinding> {
    let eligible: Vec<(usize, &SegmentObservation)> = observations
        .iter()
        .enumerate()
        .filter(|(_, o)| o.packets >= cfg.min_packets && o.est_mean_ns.is_finite())
        .collect();
    if eligible.len() < 2 {
        return Vec::new();
    }
    let mut means: Vec<f64> = eligible.iter().map(|(_, o)| o.est_mean_ns).collect();
    means.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = means[means.len() / 2];
    if median <= 0.0 {
        return Vec::new();
    }
    let mut findings: Vec<AnomalyFinding> = eligible
        .into_iter()
        .filter_map(|(i, o)| {
            let severity = o.est_mean_ns / median;
            (severity > cfg.factor).then(|| AnomalyFinding {
                segment: i,
                name: o.name.clone(),
                severity,
            })
        })
        .collect();
    findings.sort_by(|a, b| b.severity.partial_cmp(&a.severity).expect("finite"));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(name: &str, est: f64, pkts: u64) -> SegmentObservation {
        SegmentObservation {
            name: name.to_string(),
            est_mean_ns: est,
            true_mean_ns: est,
            packets: pkts,
        }
    }

    #[test]
    fn flags_the_slow_segment() {
        let observations = vec![
            obs("T0→C0", 3000.0, 100),
            obs("T0→C1", 3200.0, 100),
            obs("C0→T7", 2900.0, 100),
            obs("C1→T7", 250_000.0, 100), // injected anomaly
        ];
        let findings = localize(&observations, &LocalizerConfig::default());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].segment, 3);
        assert_eq!(findings[0].name, "C1→T7");
        assert!(findings[0].severity > 50.0);
    }

    #[test]
    fn healthy_segments_produce_no_findings() {
        let observations = vec![
            obs("a", 3000.0, 100),
            obs("b", 3500.0, 100),
            obs("c", 2800.0, 100),
        ];
        assert!(localize(&observations, &LocalizerConfig::default()).is_empty());
    }

    #[test]
    fn low_traffic_segments_not_judged() {
        let observations = vec![
            obs("a", 3000.0, 100),
            obs("b", 3000.0, 100),
            obs("noisy", 1e9, 2), // huge but only 2 packets
        ];
        assert!(localize(&observations, &LocalizerConfig::default()).is_empty());
    }

    #[test]
    fn multiple_anomalies_sorted_by_severity() {
        let observations = vec![
            obs("a", 1000.0, 100),
            obs("b", 1000.0, 100),
            obs("c", 1000.0, 100),
            obs("bad1", 10_000.0, 100),
            obs("bad2", 50_000.0, 100),
        ];
        let findings = localize(&observations, &LocalizerConfig::default());
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].name, "bad2");
        assert_eq!(findings[1].name, "bad1");
    }

    #[test]
    fn degenerate_inputs() {
        assert!(localize(&[], &LocalizerConfig::default()).is_empty());
        assert!(localize(&[obs("only", 1e9, 100)], &LocalizerConfig::default()).is_empty());
        let zeros = vec![obs("a", 0.0, 100), obs("b", 0.0, 100)];
        assert!(localize(&zeros, &LocalizerConfig::default()).is_empty());
    }
}
