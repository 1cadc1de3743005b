//! What the plane tells: mid-run queries (epoch series, merged snapshots,
//! localization, state bytes, the window pool) and the final report.

use super::admit::{TenantId, TenantReport};
use super::records::EventRecord;
use super::window::{WindowEntry, WindowPool};
use super::{MeasurementPlane, TapPoint};
use crate::localization::{localize, AnomalyFinding, LocalizerConfig, SegmentObservation};
use rlir_net::packet::SenderId;
use rlir_net::time::SimTime;
use rlir_rli::{EpochSeries, ReceiverReport};

/// Final output of one tap.
pub struct TapReport {
    /// The tap's name.
    pub name: String,
    /// Where it sat.
    pub point: TapPoint,
    /// The reference stream it was bound to.
    pub sender: SenderId,
    /// Receiver output: dense per-flow table, counters, per-epoch series.
    pub report: ReceiverReport,
    /// High-water mark of observations buffered for this tap — O(reorder
    /// window); O(run) under a window wider than the run; zero for an
    /// [`ordered`](super::TapSpec::ordered) tap.
    pub peak_pending: usize,
    /// Observations that arrived after their reorder window was flushed —
    /// on an ordered tap, before the last one fed (counted, never fed).
    /// Nonzero means the window is narrower than the workload's reordering.
    pub late: u64,
    /// Regular observations shed by the per-window buffer cap
    /// ([`TapSpec::max_buffer`](super::TapSpec::max_buffer)); also counted
    /// as unestimated in the receiver's (per-epoch) counters.
    pub shed: u64,
    /// Metered packets that died downstream of the observation point after
    /// being observed — the live tap's drop-awareness (always zero on
    /// delivered-gated taps).
    pub dropped_metered: u64,
    /// The tenant this tap drew budget from.
    pub tenant: TenantId,
    /// Observations destroyed by tap outages: buffered window
    /// entries freed at crash time, receiver-internal buffer destroyed by
    /// the cold restart, and stream observations that arrived while the
    /// tap was down or before its post-recovery epoch boundary. The
    /// estimation error attributable to the outage is *measured*, never
    /// silently folded into other counters.
    pub lost_window_obs: u64,
    /// Non-empty epochs this tap produced at-or-after its last recovery
    /// boundary — zero for taps that never crashed, nonzero proof that a
    /// cold restart resumed producing mergeable epoch snapshots.
    pub recovered_epochs: u64,
    /// Completed [`FaultKind::TapDown`](rlir_sim::FaultKind::TapDown)
    /// transitions this tap absorbed.
    pub outages: u32,
}

impl TapReport {
    /// The tap folded into a segment-level observation, when it produced
    /// scored estimates.
    pub fn segment(&self) -> Option<SegmentObservation> {
        match (
            self.report.flows.aggregate_est_mean(),
            self.report.flows.aggregate_true_mean(),
        ) {
            (Some(est), Some(truth)) => Some(SegmentObservation {
                name: self.name.clone(),
                est_mean_ns: est,
                true_mean_ns: truth,
                packets: self.report.counters.estimated,
            }),
            _ => None,
        }
    }

    /// The tap's per-epoch latency time-series (empty unless
    /// [`PlaneConfig::epoch`](super::PlaneConfig::epoch) was set).
    pub fn epochs(&self) -> &EpochSeries {
        &self.report.epochs
    }
}

/// Segment rankings of one epoch (see [`PlaneReport::localize_epochs`]).
#[derive(Debug, Clone)]
pub struct EpochFindings {
    /// Epoch index.
    pub epoch: u64,
    /// Epoch start time.
    pub start: SimTime,
    /// Anomaly findings within the epoch, descending severity.
    pub findings: Vec<AnomalyFinding>,
}

/// Everything the plane measured, in tap-attachment order.
pub struct PlaneReport {
    /// Per-tap reports.
    pub taps: Vec<TapReport>,
    /// Per-tenant budget accounting, in first-seen order (tenant `0`
    /// first on a default plane). Tenants are tracked even without a
    /// configured budget, so the shed/admitted books are always present.
    pub tenants: Vec<TenantReport>,
    /// The epoch width the plane ran with, ns.
    pub epoch_ns: Option<u64>,
    /// High-water mark of pending observations summed across **all** taps —
    /// the quantity [`PlaneConfig::pending_budget`](super::PlaneConfig::pending_budget)
    /// bounds, and the soak harness's flat-memory witness alongside the
    /// engine's `peak_live_slots`.
    pub peak_pending_total: usize,
    /// Event records made: one per hop event that at least one tap
    /// buffered, plus one per observation a tap buffered on a record of
    /// its own (a [`TapSpec::ref_map`](super::TapSpec::ref_map) tap's
    /// references, a [`TruthRef::SinceArrivalAt`](super::TruthRef::SinceArrivalAt)
    /// tap's scored regulars). Buffered observations ÷ this is how many taps
    /// shared a record — what the record / entry split of the window pays
    /// off by. Diagnostic.
    pub records_made: u64,
    /// High-water mark of event records held at once — O(reorder window);
    /// `records_made` under a window wider than the run.
    pub peak_records: usize,
}

impl PlaneReport {
    /// Segment observations of every tap that produced scored estimates,
    /// in tap order — the localizer's input.
    pub fn segments(&self) -> Vec<SegmentObservation> {
        self.taps.iter().filter_map(|t| t.segment()).collect()
    }

    /// Per-epoch localization: rank segments within every epoch that has
    /// estimates, yielding anomaly **onset** (first flagged epoch), not
    /// just whole-run presence. Empty unless the plane ran with epochs.
    pub fn localize_epochs(&self, cfg: &LocalizerConfig) -> Vec<EpochFindings> {
        let Some(epoch_ns) = self.epoch_ns else {
            return Vec::new();
        };
        let series: Vec<(&str, &EpochSeries)> = self
            .taps
            .iter()
            .map(|t| (t.name.as_str(), t.epochs()))
            .collect();
        localize_epoch_series(&series, epoch_ns, cfg)
    }
}

/// Rank segments per epoch from named epoch series — the epoch-level
/// counterpart of [`localize`], shared by [`PlaneReport::localize_epochs`]
/// and the experiment harnesses that carry per-segment series in their
/// outcomes. Epochs with fewer than two estimating segments produce no
/// findings (no baseline to compare against).
pub fn localize_epoch_series(
    series: &[(&str, &EpochSeries)],
    epoch_ns: u64,
    cfg: &LocalizerConfig,
) -> Vec<EpochFindings> {
    let spans = || {
        series
            .iter()
            .map(|(_, s)| s.epochs())
            .filter(|r| !r.is_empty())
    };
    let lo = spans().map(|r| r.start).min();
    let hi = spans().map(|r| r.end - 1).max();
    let (Some(lo), Some(hi)) = (lo, hi) else {
        return Vec::new();
    };
    (lo..=hi)
        .filter_map(|epoch| {
            let segs: Vec<SegmentObservation> = series
                .iter()
                .filter_map(|(name, s)| {
                    let snap = s.get(epoch).filter(|e| e.estimated > 0)?;
                    Some(SegmentObservation {
                        name: (*name).to_string(),
                        est_mean_ns: snap.est_mean()?,
                        true_mean_ns: snap.true_mean().unwrap_or(f64::NAN),
                        packets: snap.estimated,
                    })
                })
                .collect();
            if segs.is_empty() {
                return None;
            }
            Some(EpochFindings {
                epoch,
                start: SimTime::from_nanos(epoch * epoch_ns),
                findings: localize(&segs, cfg),
            })
        })
        .collect()
}

impl MeasurementPlane<'_> {
    /// Number of attached taps.
    pub fn tap_count(&self) -> usize {
        self.taps.len()
    }

    /// Name of tap `idx` (attachment order) — lets streaming consumers
    /// (e.g. an online detector) label findings without waiting for
    /// [`MeasurementPlane::finish`].
    pub fn tap_name(&self, idx: usize) -> &str {
        &self.cold[idx].spec.name
    }

    /// The per-epoch snapshots tap `idx` has produced *so far*, downstream
    /// deaths included — a streaming consumer can read the series mid-run,
    /// before [`MeasurementPlane::finish`].
    pub fn epoch_series(&self, idx: usize) -> &EpochSeries {
        self.cold[idx].rx.epoch_snapshots()
    }

    /// Point-in-time plane-wide epoch view: merge every tap's per-epoch
    /// snapshots produced *so far* into one series (dense union of the
    /// epoch ranges), without stopping the run — the snapshot-query a
    /// collector polls against a live fabric. Empty unless
    /// [`PlaneConfig::epoch`](super::PlaneConfig::epoch) is set.
    pub fn snapshot_epochs(&self) -> EpochSeries {
        let Some(epoch_ns) = self.cfg.epoch_ns() else {
            return EpochSeries::default();
        };
        EpochSeries::union(epoch_ns, self.cold.iter().map(|t| t.rx.epoch_snapshots()))
    }

    /// Mid-run per-epoch localization over the snapshots produced so far
    /// (see [`PlaneReport::localize_epochs`] for the post-run variant).
    /// Empty unless the plane runs with epochs.
    pub fn localize_now(&self, cfg: &LocalizerConfig) -> Vec<EpochFindings> {
        let Some(epoch_ns) = self.cfg.epoch_ns() else {
            return Vec::new();
        };
        let series: Vec<(&str, &EpochSeries)> = self
            .cold
            .iter()
            .map(|t| (t.spec.name.as_str(), t.rx.epoch_snapshots()))
            .collect();
        localize_epoch_series(&series, epoch_ns, cfg)
    }

    /// Approximate bytes of plane hot state right now, the plane's term of
    /// the ledger's `peak_state_bytes`: every tap's flow table at its
    /// *allocated capacity* ([`rlir_rli::FlowTable::approx_bytes`], to the
    /// byte), its run's 16-byte window entries at their *length*, and the
    /// 40-byte event records they name, at their length. O(taps).
    /// Not counted: the pool's block slack (at most 128 entries a tap, and
    /// the free blocks), the flush scratch, the receivers' interpolation
    /// buffers and epoch series (40 bytes an epoch, plus 80 for an epoch
    /// with an estimate), the FIFO's spare capacity — the last three
    /// bounded by the growth rule in the module docs — and anything
    /// transient. A diagnostic, not an allocator.
    pub fn approx_state_bytes(&self) -> usize {
        let entry = std::mem::size_of::<WindowEntry>();
        let windows: usize = self
            .taps
            .iter()
            .zip(&self.cold)
            .map(|(t, c)| c.rx.flows().approx_bytes() + t.run.len() * entry)
            .sum();
        windows + self.records.fifo.len() * std::mem::size_of::<EventRecord>()
    }

    /// Observations tap `idx` holds in its reorder run right now.
    pub fn pending(&self, idx: usize) -> usize {
        self.taps[idx].run.len()
    }

    /// How the reorder runs' block pool stands right now. Diagnostic, like
    /// [`approx_state_bytes`](MeasurementPlane::approx_state_bytes).
    pub fn window_pool(&self) -> WindowPool {
        self.runs.stats()
    }

    /// Drain every tap (deterministic order) and finish every receiver.
    pub fn finish(mut self) -> PlaneReport {
        let epoch_ns = self.cfg.epoch_ns();
        let peak_pending_total = self.totals.peak;
        for (tap, cold) in self.taps.iter_mut().zip(&mut self.cold) {
            Self::flush_tap(
                tap,
                cold,
                &mut self.totals,
                &mut self.tenants,
                &self.records,
                &mut self.runs,
                None,
            );
        }
        let taps = self
            .taps
            .into_iter()
            .zip(self.cold)
            .map(|(hot, t)| {
                let report = t.rx.finish();
                // Non-empty epochs at-or-after the last recovery boundary:
                // proof the cold restart resumed producing snapshots.
                let recovered_epochs = t.resume_epoch.map_or(0, |re| {
                    report
                        .epochs
                        .iter()
                        .filter(|s| s.epoch >= re && !s.is_empty())
                        .count() as u64
                });
                TapReport {
                    name: t.spec.name,
                    point: t.spec.point,
                    sender: t.spec.sender,
                    report,
                    peak_pending: hot.peak_pending,
                    late: t.late,
                    shed: t.shed,
                    dropped_metered: t.dropped_metered,
                    tenant: t.spec.tenant,
                    lost_window_obs: t.lost_window_obs,
                    recovered_epochs,
                    outages: t.outages,
                }
            })
            .collect();
        PlaneReport {
            taps,
            tenants: self.tenants.iter().map(|t| t.report()).collect(),
            epoch_ns,
            peak_pending_total,
            records_made: self.records.made(),
            peak_records: self.records.peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{arrive_ev, crossed, fk};
    use super::super::{MeasurementPlane, PlaneConfig, TapPoint, TapSpec};
    use rlir_net::packet::{Packet, SenderId};
    use rlir_net::time::{SimDuration, SimTime};
    use rlir_rli::EpochSeries;
    use rlir_sim::{HopEvent, HopKind, HopSink};

    #[test]
    fn mid_run_epoch_queries_see_downstream_deaths() {
        let mut plane = MeasurementPlane::with_config(PlaneConfig {
            reorder_window: SimDuration::from_nanos(500),
            epoch: Some(SimDuration::from_nanos(1_000)),
            ..PlaneConfig::default()
        });
        plane.attach(TapSpec::new("live", TapPoint::NodeArrival(0), SenderId(1)));
        let r0 = Packet::reference(1, fk(9), SenderId(1), 0, SimTime::ZERO);
        let p1 = Packet::regular(2, fk(1), 700, SimTime::ZERO);
        let p2 = Packet::regular(3, fk(1), 700, SimTime::ZERO);
        let r1 = Packet::reference(4, fk(9), SenderId(1), 1, SimTime::from_nanos(200));
        plane.on_watermark(SimTime::from_nanos(100));
        for (packet, at) in [(&r0, 100), (&p1, 150), (&p2, 160), (&r1, 300)] {
            plane.on_hop(&arrive_ev(packet, 0, at));
        }
        // p2 dies downstream at node 1, having crossed node 0 at t=160.
        plane.on_hop(&HopEvent {
            kind: HopKind::QueueDrop { port: 0 },
            node: 1,
            at: SimTime::from_nanos(260),
            packet: &p2,
            injected_node: 0,
            injected_at: SimTime::ZERO,
            hops: &[crossed(0, 160)],
        });
        // Two windows past the end of epoch 0: it has settled.
        plane.on_watermark(SimTime::from_nanos(2_000));
        let deaths = |series: &EpochSeries| {
            series
                .get(0)
                .map(|e| (e.estimated, e.dropped_after_metering))
        };
        let mid_run = (
            deaths(plane.epoch_series(0)),
            deaths(&plane.snapshot_epochs()),
        );
        let rep = plane.finish();
        assert_eq!(deaths(rep.taps[0].epochs()), Some((2, 1)));
        assert_eq!(mid_run, (Some((2, 1)), Some((2, 1))));
    }
}
