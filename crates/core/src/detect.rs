//! Closed-loop online anomaly detection over the measurement plane.
//!
//! The localization sweep answers "where" *after* the run; an operator
//! running RLI continuously needs "since when" *during* it — a detector
//! that watches the per-epoch export as epochs settle and raises an alarm
//! with bounded delay. [`EpochDetector`] is that consumer: it subscribes to
//! the plane's streaming epoch series (readable mid-run via
//! [`MeasurementPlane::epoch_series`]), scores every **settled** epoch —
//! one whose observations have all cleared the reorder window, so its
//! snapshot is final — and runs a per-segment CUSUM over EWMA-smoothed
//! est/median ratios. The median across concurrently-estimating segments
//! is the same robust baseline the whole-run
//! [`localize`](crate::localization::localize) uses, so a healthy fabric
//! contributes ratios near 1 regardless of load, and the CUSUM drift
//! absorbs the residual noise at a configurable false-positive budget.
//!
//! [`ClosedLoopSink`] closes the loop: it wraps the plane as the engine's
//! [`HopSink`], polls the detector on every watermark advance, and raises a
//! [`StopFlag`] on the first [`Detection`] — the engine halts mid-run, so
//! **time-to-localize** (detection watermark − fault onset) is an honest
//! online metric, not a post-hoc replay.

use crate::plane::MeasurementPlane;
use rlir_net::time::SimTime;
use rlir_sim::{FaultEvent, HopEvent, HopSink, StopFlag};

/// Configuration of the online epoch detector.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// CUSUM firing threshold: cumulative drift-adjusted excess ratio a
    /// segment must accumulate before an alarm. Higher = fewer false
    /// positives, longer detection delay.
    pub threshold: f64,
    /// Per-epoch slack subtracted before accumulating: a segment only
    /// charges its CUSUM while its smoothed ratio exceeds `1 + drift`.
    pub drift: f64,
    /// EWMA weight on the newest epoch's ratio (1.0 = no smoothing).
    pub alpha: f64,
    /// A segment's epoch is eligible only with at least this many
    /// estimated packets (mirrors
    /// [`LocalizerConfig::min_packets`](crate::localization::LocalizerConfig)).
    pub min_packets: u64,
    /// An epoch is scored only when at least this many segments are
    /// eligible (the median needs a baseline).
    pub min_segments: usize,
    /// Scored epochs to observe before any verdict may fire — lets the
    /// EWMA state converge on the fabric's healthy baseline.
    pub warmup_epochs: u64,
}

impl Default for DetectorConfig {
    /// Tuned for the evaluation fabric: a 400 µs degradation at µs-scale
    /// baselines produces ratios ≫ 2, firing one to two epochs after
    /// onset, while healthy-load ratio noise (≲ 1.5) never accumulates.
    fn default() -> Self {
        DetectorConfig {
            threshold: 4.0,
            drift: 0.75,
            alpha: 0.5,
            min_packets: 5,
            min_segments: 3,
            warmup_epochs: 2,
        }
    }
}

/// An online alarm: the first segment whose CUSUM crossed the threshold.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Index of the flagged tap (plane attachment order).
    pub tap: usize,
    /// Name of the flagged segment.
    pub name: String,
    /// The settled epoch whose evidence crossed the threshold.
    pub epoch: u64,
    /// Engine watermark at which the alarm fired — the **online detection
    /// time**; time-to-localize is `at − fault onset`.
    pub at: SimTime,
    /// The firing CUSUM score.
    pub score: f64,
}

/// Per-segment change-detection state.
#[derive(Debug, Clone, Copy, Default)]
struct SegState {
    /// EWMA-smoothed est/median ratio (`None` before the first eligible
    /// epoch).
    ewma: Option<f64>,
    /// One-sided CUSUM of the drift-adjusted smoothed ratio.
    cusum: f64,
}

/// Rolling change detector over the plane's settled epochs (see module
/// docs). Feed it watermarks via [`EpochDetector::poll`]; it consumes each
/// settled epoch exactly once and returns the first [`Detection`].
#[derive(Debug, Clone)]
pub struct EpochDetector {
    cfg: DetectorConfig,
    /// Next epoch index to score once settled.
    next_epoch: u64,
    /// Epochs actually scored (eligible-segment quorum met).
    scored: u64,
    /// Per-tap state, lazily sized to the plane's tap count.
    state: Vec<SegState>,
}

impl EpochDetector {
    /// A fresh detector.
    pub fn new(cfg: DetectorConfig) -> Self {
        EpochDetector {
            cfg,
            next_epoch: 0,
            scored: 0,
            state: Vec::new(),
        }
    }

    /// Score every newly-settled epoch against `watermark` and return the
    /// first alarm, if any — never on a plane without epochs.
    ///
    /// An epoch is *settled* once the watermark has advanced two reorder
    /// windows past its end: every observation inside it has cleared the
    /// plane's flush bound (one window) including the half-window flush
    /// granularity, so its snapshots are final. Under a window wider than
    /// the run, none is before [`MeasurementPlane::finish`].
    pub fn poll(&mut self, plane: &MeasurementPlane<'_>, watermark: SimTime) -> Option<Detection> {
        let cfg = plane.config();
        let epoch_ns = cfg.epoch_ns()?;
        let settled = watermark
            .as_nanos()
            .saturating_sub(cfg.reorder_window.as_nanos().saturating_mul(2));
        if self.state.len() < plane.tap_count() {
            self.state.resize(plane.tap_count(), SegState::default());
        }
        while (self.next_epoch + 1).saturating_mul(epoch_ns) <= settled {
            let epoch = self.next_epoch;
            self.next_epoch += 1;
            if let Some(d) = self.score_epoch(plane, epoch, watermark) {
                return Some(d);
            }
        }
        None
    }

    fn score_epoch(
        &mut self,
        plane: &MeasurementPlane<'_>,
        epoch: u64,
        watermark: SimTime,
    ) -> Option<Detection> {
        let mut eligible: Vec<(usize, f64)> = Vec::new();
        for idx in 0..plane.tap_count() {
            let snap = plane
                .epoch_series(idx)
                .get(epoch)
                .filter(|s| s.estimated >= self.cfg.min_packets);
            if let Some(mean) = snap.and_then(|s| s.est_mean()) {
                eligible.push((idx, mean));
            }
        }
        if eligible.len() < self.cfg.min_segments.max(2) {
            return None;
        }
        let mut means: Vec<f64> = eligible.iter().map(|&(_, m)| m).collect();
        means.sort_by(|a, b| a.partial_cmp(b).expect("epoch means are finite"));
        let median = means[means.len() / 2];
        if median <= 0.0 {
            return None;
        }
        self.scored += 1;
        let judge = self.scored > self.cfg.warmup_epochs;
        let mut best: Option<(usize, f64)> = None;
        for (idx, mean) in eligible {
            let st = &mut self.state[idx];
            let ratio = mean / median;
            let ewma = match st.ewma {
                Some(prev) => self.cfg.alpha * ratio + (1.0 - self.cfg.alpha) * prev,
                None => ratio,
            };
            st.ewma = Some(ewma);
            st.cusum = (st.cusum + ewma - 1.0 - self.cfg.drift).max(0.0);
            if judge && st.cusum >= self.cfg.threshold && best.is_none_or(|(_, s)| st.cusum > s) {
                best = Some((idx, st.cusum));
            }
        }
        best.map(|(tap, score)| Detection {
            tap,
            name: plane.tap_name(tap).to_string(),
            epoch,
            at: watermark,
            score,
        })
    }
}

/// The closed loop: plane + detector + engine termination, as one
/// [`HopSink`].
///
/// Forwards every hop event and watermark into the wrapped plane, then
/// polls the detector on watermark advances. On the first [`Detection`] it
/// raises the [`StopFlag`] handed to the engine via
/// [`RunOptions::stop`](rlir_sim::RunOptions), so the run halts — and the
/// detection watermark is a true online detection time.
pub struct ClosedLoopSink<'p, 'a> {
    plane: &'p mut MeasurementPlane<'a>,
    detector: EpochDetector,
    stop: StopFlag,
    detection: Option<Detection>,
}

impl<'p, 'a> ClosedLoopSink<'p, 'a> {
    /// Wrap `plane`; `stop` must be the same flag passed to the engine.
    pub fn new(plane: &'p mut MeasurementPlane<'a>, cfg: DetectorConfig, stop: StopFlag) -> Self {
        ClosedLoopSink {
            plane,
            detector: EpochDetector::new(cfg),
            stop,
            detection: None,
        }
    }

    /// The alarm, once one fired.
    pub fn detection(&self) -> Option<&Detection> {
        self.detection.as_ref()
    }

    /// Consume the sink, yielding the alarm (if any).
    pub fn into_detection(self) -> Option<Detection> {
        self.detection
    }
}

impl HopSink for ClosedLoopSink<'_, '_> {
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        self.plane.on_hop(ev);
    }

    fn on_fault(&mut self, ev: &FaultEvent) {
        self.plane.on_fault(ev);
    }

    fn on_watermark(&mut self, watermark: SimTime) {
        self.plane.on_watermark(watermark);
        if self.detection.is_none() {
            if let Some(d) = self.detector.poll(self.plane, watermark) {
                self.stop.request_stop();
                self.detection = Some(d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::{PlaneConfig, TapPoint, TapSpec, TruthRef};
    use rlir_net::packet::{Packet, SenderId};
    use rlir_net::time::SimDuration;
    use rlir_net::FlowKey;
    use rlir_sim::{Hop, HopKind};
    use std::net::Ipv4Addr;

    fn fk(i: u8) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, i),
            1,
            Ipv4Addr::new(10, 1, 0, 1),
            80,
        )
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            min_packets: 1,
            min_segments: 3,
            warmup_epochs: 1,
            ..DetectorConfig::default()
        }
    }

    /// Three delivery taps fed synthetic reference brackets; the "bad"
    /// segment's reference delays jump at `onset_ns` and fall back at
    /// `end_ns`. The feed runs to `total_ns` whether or not the closed
    /// loop raised its stop flag. Returns the closed loop's alarm, whether
    /// it raised the flag, and every alarm of a detector that keeps
    /// polling past the first.
    fn drive(
        onset_ns: u64,
        end_ns: u64,
        total_ns: u64,
    ) -> (Option<Detection>, bool, Vec<Detection>) {
        let mut plane = MeasurementPlane::with_config(PlaneConfig {
            reorder_window: SimDuration::from_nanos(2_000),
            epoch: Some(SimDuration::from_nanos(10_000)),
            ..PlaneConfig::default()
        });
        for (name, node) in [("good-a", 2usize), ("good-b", 3), ("bad", 4)] {
            let mut spec = TapSpec::new(name, TapPoint::Delivery(node), SenderId(1));
            spec.truth = TruthRef::NoTruth;
            plane.attach(spec);
        }
        let stop = StopFlag::new();
        let mut sink = ClosedLoopSink::new(&mut plane, cfg(), stop.clone());
        let hops: [Hop; 0] = [];
        let mut id = 0u64;
        for t in (0..total_ns).step_by(1_000) {
            sink.on_watermark(SimTime::from_nanos(t));
            for node in [2usize, 3, 4] {
                // Reference delay: 1 µs baseline; the bad segment jumps to
                // 10 µs during the burst. tx_timestamp = at − delay.
                let delay = if node == 4 && (onset_ns..end_ns).contains(&t) {
                    10_000
                } else {
                    1_000
                };
                id += 1;
                let r = Packet::reference(
                    id,
                    fk(9),
                    SenderId(1),
                    id as u32,
                    SimTime::from_nanos(t.saturating_sub(delay)),
                );
                sink.on_hop(&HopEvent {
                    kind: HopKind::Deliver,
                    node,
                    at: SimTime::from_nanos(t),
                    packet: &r,
                    injected_node: 0,
                    injected_at: r.created_at,
                    hops: &hops,
                });
                id += 1;
                let p = Packet::regular(id, fk(node as u8), 700, SimTime::from_nanos(t));
                sink.on_hop(&HopEvent {
                    kind: HopKind::Deliver,
                    node,
                    at: SimTime::from_nanos(t + 1),
                    packet: &p,
                    injected_node: 0,
                    injected_at: p.created_at,
                    hops: &hops,
                });
            }
        }
        let first = sink.into_detection();
        // A settled epoch's snapshots are final, so a fresh detector polled
        // at the last watermark raises exactly the alarms one polled all
        // along would have.
        let mut det = EpochDetector::new(cfg());
        let end = SimTime::from_nanos(total_ns);
        let alarms = std::iter::from_fn(|| det.poll(&plane, end)).collect();
        (first, stop.is_set(), alarms)
    }

    #[test]
    fn detects_the_degraded_segment_and_raises_the_stop_flag() {
        let (det, stopped, _) = drive(40_000, u64::MAX, 400_000);
        let det = det.expect("10× latency jump must be detected");
        assert!(stopped, "detection must raise the stop flag");
        assert_eq!(det.name, "bad");
        // Online: the alarm watermark trails the onset by epochs + the
        // settling lag, but must come well before the feed's end.
        assert!(det.at.as_nanos() > 40_000);
        assert!(det.at.as_nanos() < 200_000, "at {}", det.at.as_nanos());
        assert!(det.score >= 4.0);
        assert!(det.epoch >= 4, "epoch {} before the onset", det.epoch);
    }

    #[test]
    fn healthy_feed_never_fires() {
        // Onset beyond the horizon: all segments stay at the baseline.
        let (det, stopped, alarms) = drive(u64::MAX, u64::MAX, 400_000);
        assert!(det.is_none(), "false positive: {det:?}");
        assert!(!stopped);
        assert!(alarms.is_empty(), "false positives: {alarms:?}");
    }

    #[test]
    fn transient_burst_is_pinned_in_time_and_place() {
        // A 12-epoch burst (epochs 40..52) inside a 100-epoch run.
        let (det, stopped, alarms) = drive(400_000, 520_000, 1_000_000);
        let det = det.expect("10× burst must be detected");
        assert!(stopped);
        assert_eq!(det.name, "bad");
        assert!((40..=42).contains(&det.epoch), "epoch {}", det.epoch);
        // Polling on past the burst: the first alarm is the closed loop's,
        // none precedes the onset, and the quiet segments stay silent. The
        // bad segment's CUSUM carries the burst for dozens of epochs after
        // it ends, so later alarms still name it.
        assert_eq!((alarms[0].epoch, alarms[0].tap), (det.epoch, det.tap));
        for a in &alarms {
            assert_eq!(a.name, "bad", "quiet segment alarmed: {a:?}");
            assert!(a.epoch >= 40, "alarm before the onset: {a:?}");
        }
    }

    #[test]
    fn poll_is_a_noop_without_epochs() {
        let mut plane = MeasurementPlane::new(); // no epochs configured
        plane.attach(TapSpec::new("t", TapPoint::Delivery(0), SenderId(1)));
        let mut det = EpochDetector::new(DetectorConfig::default());
        assert!(det
            .poll(&plane, SimTime::from_nanos(1_000_000_000))
            .is_none());
    }

    #[test]
    fn poll_under_a_window_wider_than_the_run_finds_nothing_settled() {
        let plane = MeasurementPlane::with_config(PlaneConfig {
            reorder_window: SimDuration::MAX,
            epoch: Some(SimDuration::from_nanos(1_000)),
            ..PlaneConfig::default()
        });
        let mut det = EpochDetector::new(DetectorConfig::default());
        assert!(det.poll(&plane, SimTime::MAX).is_none());
    }
}
