//! Trajectory sampling (Duffield & Grossglauser, ToN 2000).
//!
//! The third family of related work the paper discusses (§5): "trajectory
//! sampling for collecting packet trajectories across a network … Using
//! these trajectory samples to infer loss and delay at different measurement
//! points has been proposed [16, 6]. Incorporating flow key in trajectory
//! samples also enables per-flow latency estimation."
//!
//! Each measurement point applies the *same* hash to packet-invariant
//! content and samples the packet iff the hash falls below a threshold —
//! so either every point on the path samples a packet, or none does. Joining
//! the (label, timestamp) records of two points yields exact per-packet
//! delays for the sampled subset; aggregating by flow key gives per-flow
//! estimates whose coverage (unlike RLI's interpolation) is limited to
//! sampled packets.

use rlir_net::fxhash::FxHashMap;
use rlir_net::time::SimTime;
use rlir_net::FlowKey;
use rlir_stats::StreamingStats;

/// Sampling configuration — identical at every measurement point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryConfig {
    /// Sampling probability in `[0, 1]` (threshold on the label hash).
    pub probability: f64,
    /// Shared hash seed.
    pub seed: u64,
}

impl TrajectoryConfig {
    /// The classic operating point: sample ~1% of traffic.
    pub fn one_percent(seed: u64) -> Self {
        TrajectoryConfig {
            probability: 0.01,
            seed,
        }
    }
}

/// A sampled observation: the packet's invariant label, its flow key, and
/// the local timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectorySample {
    /// Hash-derived packet label (consistent across points).
    pub label: u64,
    /// The packet's flow key.
    pub flow: FlowKey,
    /// Local observation time.
    pub at: SimTime,
}

/// One measurement point's sampler + sample store.
#[derive(Debug, Clone)]
pub struct TrajectoryPoint {
    cfg: TrajectoryConfig,
    threshold: u64,
    samples: Vec<TrajectorySample>,
}

#[inline]
fn label_hash(seed: u64, packet_id: u64) -> u64 {
    let mut z = packet_id ^ seed.rotate_left(29);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TrajectoryPoint {
    /// Create a measurement point.
    pub fn new(cfg: TrajectoryConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.probability),
            "sampling probability out of range"
        );
        TrajectoryPoint {
            cfg,
            threshold: (cfg.probability * u64::MAX as f64) as u64,
            samples: Vec::new(),
        }
    }

    /// Observe a packet (identified by invariant id) at local time `at`.
    /// Returns whether it was sampled. Consistency guarantee: every point
    /// with the same config samples the same packets.
    pub fn observe(&mut self, packet_id: u64, flow: FlowKey, at: SimTime) -> bool {
        let h = label_hash(self.cfg.seed, packet_id);
        if h > self.threshold {
            return false;
        }
        self.samples.push(TrajectorySample { label: h, flow, at });
        true
    }

    /// Samples collected.
    pub fn samples(&self) -> &[TrajectorySample] {
        &self.samples
    }
}

/// Per-flow delay statistics recovered from a joined pair of points.
#[derive(Debug, Clone)]
pub struct TrajectoryFlowEstimate {
    /// The flow.
    pub flow: FlowKey,
    /// Sampled-packet delay statistics (mean/std over the sampled subset).
    pub delays: StreamingStats,
}

/// Result of joining two trajectory points.
#[derive(Debug, Clone)]
pub struct TrajectoryJoin {
    /// Per-flow estimates (flows with ≥1 matched sample), sorted by key.
    pub flows: Vec<TrajectoryFlowEstimate>,
    /// Matched samples.
    pub matched: u64,
    /// Upstream samples that never appeared downstream (lost packets —
    /// trajectory sampling measures loss too).
    pub lost: u64,
    /// Aggregate delay statistics over all matched samples.
    pub aggregate: StreamingStats,
}

/// Join an upstream and a downstream point by label.
///
/// Labels are hash-derived and may collide; collisions are resolved by
/// matching same-label samples in timestamp order (FIFO paths preserve
/// order).
pub fn join(upstream: &TrajectoryPoint, downstream: &TrajectoryPoint) -> TrajectoryJoin {
    assert_eq!(
        upstream.cfg, downstream.cfg,
        "trajectory points must share a sampling configuration"
    );
    let mut down_by_label: FxHashMap<u64, Vec<&TrajectorySample>> = FxHashMap::default();
    for s in &downstream.samples {
        down_by_label.entry(s.label).or_default().push(s);
    }
    for v in down_by_label.values_mut() {
        v.sort_by_key(|s| s.at);
        v.reverse(); // pop() yields earliest first
    }

    let mut per_flow: FxHashMap<FlowKey, StreamingStats> = FxHashMap::default();
    let mut aggregate = StreamingStats::new();
    let mut matched = 0u64;
    let mut lost = 0u64;
    let mut ups: Vec<&TrajectorySample> = upstream.samples.iter().collect();
    ups.sort_by_key(|s| s.at);
    for u in ups {
        match down_by_label.get_mut(&u.label).and_then(|v| v.pop()) {
            Some(d) => {
                let delay = d.at.signed_delta_nanos(u.at) as f64;
                per_flow.entry(u.flow).or_default().push(delay);
                aggregate.push(delay);
                matched += 1;
            }
            None => lost += 1,
        }
    }

    let mut flows: Vec<TrajectoryFlowEstimate> = per_flow
        .into_iter()
        .map(|(flow, delays)| TrajectoryFlowEstimate { flow, delays })
        .collect();
    flows.sort_by_key(|f| f.flow);
    TrajectoryJoin {
        flows,
        matched,
        lost,
        aggregate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_net::time::SimDuration;
    use std::net::Ipv4Addr;

    fn flow(i: u8) -> FlowKey {
        FlowKey::udp(Ipv4Addr::new(10, 0, 0, i), 7, Ipv4Addr::new(10, 2, 0, 1), 9)
    }

    fn pair(p: f64) -> (TrajectoryPoint, TrajectoryPoint) {
        let cfg = TrajectoryConfig {
            probability: p,
            seed: 0x7247,
        };
        (TrajectoryPoint::new(cfg), TrajectoryPoint::new(cfg))
    }

    #[test]
    fn sampling_is_consistent_across_points() {
        let (mut a, mut b) = pair(0.3);
        for id in 0..10_000u64 {
            let sa = a.observe(id, flow(1), SimTime::from_nanos(id));
            let sb = b.observe(id, flow(1), SimTime::from_nanos(id + 500));
            assert_eq!(sa, sb, "inconsistent sampling for id {id}");
        }
        assert!((a.samples().len() as f64 / 1e4 - 0.3).abs() < 0.02);
    }

    #[test]
    fn join_recovers_exact_delays() {
        let (mut up, mut down) = pair(0.5);
        let mut expected = StreamingStats::new();
        for id in 0..5_000u64 {
            let t = SimTime::from_nanos(id * 100);
            let delay = 1_000 + (id % 700);
            if up.observe(id, flow((id % 4) as u8), t) {
                expected.push(delay as f64);
            }
            down.observe(id, flow((id % 4) as u8), t + SimDuration::from_nanos(delay));
        }
        let j = join(&up, &down);
        assert_eq!(j.matched, expected.count());
        assert_eq!(j.lost, 0);
        assert!((j.aggregate.mean().unwrap() - expected.mean().unwrap()).abs() < 1e-9);
        assert_eq!(j.flows.len(), 4);
    }

    #[test]
    fn loss_shows_up_as_unmatched_upstream_samples() {
        let (mut up, mut down) = pair(1.0);
        for id in 0..1_000u64 {
            let t = SimTime::from_nanos(id * 50);
            up.observe(id, flow(1), t);
            if id % 10 != 0 {
                down.observe(id, flow(1), t + SimDuration::from_nanos(99));
            }
        }
        let j = join(&up, &down);
        assert_eq!(j.lost, 100);
        assert_eq!(j.matched, 900);
    }

    #[test]
    fn zero_probability_samples_nothing() {
        let (mut up, _) = pair(0.0);
        for id in 0..100u64 {
            assert!(!up.observe(id, flow(1), SimTime::ZERO));
        }
        assert_eq!(up.samples().len(), 0);
    }

    #[test]
    fn per_flow_estimates_separate_flows() {
        let (mut up, mut down) = pair(1.0);
        for id in 0..200u64 {
            let f = flow((id % 2) as u8);
            let t = SimTime::from_nanos(id * 10);
            let delay = if id % 2 == 0 { 100 } else { 900 };
            up.observe(id, f, t);
            down.observe(id, f, t + SimDuration::from_nanos(delay));
        }
        let j = join(&up, &down);
        assert_eq!(j.flows.len(), 2);
        let means: Vec<f64> = j.flows.iter().map(|f| f.delays.mean().unwrap()).collect();
        assert!(means.contains(&100.0) && means.contains(&900.0));
    }

    #[test]
    #[should_panic(expected = "share a sampling configuration")]
    fn mismatched_configs_rejected() {
        let (up, _) = pair(0.5);
        let (_, down) = pair(0.9);
        join(&up, &down);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = || {
            let (mut up, mut down) = pair(0.2);
            for id in 0..1000u64 {
                let t = SimTime::from_nanos(id * 10);
                up.observe(id, flow(1), t);
                down.observe(id, flow(1), t + SimDuration::from_nanos(77));
            }
            join(&up, &down).matched
        };
        assert_eq!(run(), run());
    }
}
