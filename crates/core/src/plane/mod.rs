//! The per-hop measurement plane.
//!
//! The paper's deployment model is an RLI instance *at every upgraded
//! router* (§3, Fig. 10), so latency faults can be localized to a hop, not
//! just noticed end-to-end. [`MeasurementPlane`] is that layer for the
//! simulator: any number of RLI estimator instances attach to taps of the
//! engine's [`HopEvent`] stream — a switch ingress, a `(node, port)`
//! egress, or a host-facing delivery point. A tap is an [`RliReceiver`]
//! (with its own [`FlowTable`](rlir_rli::FlowTable)) plus the wiring a
//! real deployment configures out of band: its [`TapPoint`], the sender
//! whose reference stream it locks onto, which regulars it meters
//! ([`TapSpec::meter`]) and — simulation only — which ground-truth span it
//! scores against ([`TruthRef`]).
//!
//! ## One reorder window
//!
//! Receivers require time-ordered input, but taps reconstructing upstream
//! crossings from [`HopKind::Deliver`] events see observations out of
//! order (a packet delivered late may have crossed the tap early). Every
//! unordered tap therefore owns an append-only **run** of pending
//! observations keyed `(observation time, tie, packet id)`, unique per
//! tap. Each time the engine's event-time **watermark**
//! ([`HopSink::on_watermark`]) advances half a window, every run is sorted
//! and its prefix below `watermark − window` fed to the receiver as one
//! batch. An observation lags the watermark by at most the packet's
//! downstream residence (the watermark contract in `rlir-sim`), so a wide
//! enough window feeds exactly the order a whole-run sort would, in
//! O(window) memory and while the simulation runs; what still arrives
//! late is counted in [`TapReport::late`], never fed out of order.
//!
//! The whole-run sort is a window wider than the run: at
//! [`SimDuration::MAX`], or with no watermark, every run waits for
//! [`MeasurementPlane::finish`] to sort it once, through the same
//! admission and books.
//!
//! Every run lives in one plane-wide pool of 128-entry blocks (module
//! `window`): a burst at one tap takes the blocks another tap's flush just
//! freed. [`PlaneConfig::pending_budget`], its tenant shares (module
//! `admit`) and [`TapSpec::max_buffer`] count run lengths.
//! [`TapSpec::ordered`] taps stream straight into the receiver, held to
//! the same lateness rule: an observation before one already fed is late.
//!
//! A tap is stored twice. Its **hot** half (`HotTap`, 80 bytes, all taps
//! contiguous) holds what admitting an observation reads and writes: the
//! point, the flags, the truth kind, the tenant slot, the `flushed_to` /
//! `resume_at` bounds, the cap, the pending peak and the run handle. Its
//! **cold** half (`ColdTap`: the [`TapSpec`], the receiver, the loss
//! counters) is reached only by closures, sheds, faults and flushes.
//!
//! ## One record per event, one 8-byte entry per tap
//!
//! A delivery is observed by every tap on its path — about five on a
//! fat-tree with all ports tapped — and what they share is stored once:
//! the first tap that buffers an event appends an **event record** (module
//! `records`: tie, packet id, packed 5-tuple or [`ReferenceInfo`], a tag
//! word and the event's injection time; 40 bytes) to a plane-wide FIFO,
//! and each tap's run holds an 8-byte **entry**: its observation time as
//! an offset in its pool block, and the record's position with a
//! truth-present bit. A flush computes a scored regular's truth as
//! `at − injection`, saturating — no entry carries a truth word. A tap
//! whose span starts elsewhere — a
//! [`TruthRef::SinceArrivalAt`] tap, at its own hop arrival — keeps a record
//! of its own per scored regular, as a [`TapSpec::ref_map`] tap does per
//! mapped reference. An event no tap buffers makes no record. A flush reads
//! a record only to break an `at` tie by `(tie, id)` and to decode what it
//! feeds. Records are reclaimed from the front once every tap has been
//! flushed past them. A lone tap pays 48 bytes an observation; at the
//! ≈ 4.85 taps a record of an all-ports fat-tree, about 16.
//!
//! ## Capacity follows length
//!
//! `approx_state_bytes` counts lengths; the allocator holds capacities.
//! The plane's growing buffers follow their lengths by one rule: the
//! record FIFO and each receiver's epoch series grow by
//! `max(need, len / 8, 8)` slots ([`rlir_rli::growth`]) — geometric, so a
//! long run copies each element O(1) times, with at most an eighth spare
//! where doubling left up to a half. A receiver's interpolation buffer
//! peaks inside a flush batch, so after every batch the plane has it give
//! back the capacity beyond its length ([`RliReceiver::trim_buffer`]).
//!
//! ## Live taps, drops and epochs
//!
//! [`TapSpec::new`] defaults to a **live** tap: it sees every crossing at
//! its point, including packets that later die downstream, as a
//! device-resident instance would. The plane watches the engine's drop
//! events and books each metered packet that died after being observed
//! ([`TapReport::dropped_metered`]) — in the receiver's epoch series too,
//! as it happens. Evaluation harnesses that score only packets with
//! end-to-end truth set [`TapSpec::delivered_only`]; the observation is
//! then reconstructed from the [`HopKind::Deliver`] event's hop record.
//!
//! With [`PlaneConfig::epoch`] set, every receiver also aggregates
//! per-epoch snapshots keyed by observation time — the bounded export a
//! router streams to a collector — and [`PlaneReport::localize_epochs`]
//! ranks segments per epoch, giving anomaly onset times.

mod admit;
mod records;
mod report;
#[cfg(test)]
mod tests;
mod window;

pub use admit::{TenantId, TenantReport};
pub use report::{localize_epoch_series, EpochFindings, PlaneReport, TapReport};
pub use window::WindowPool;

use admit::{Admission, PendingTotals, TenantState};
use records::{EventRecord, EventSlot, Payload, Records};
use rlir_net::clock::ClockModel;
use rlir_net::fxhash::FxHashMap;
use rlir_net::packet::{ReferenceInfo, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_rli::{Interpolator, ReceiverConfig, RliReceiver};
use rlir_sim::{FaultEvent, FaultKind, HopEvent, HopKind, HopSink, NodeId, PortId};
use window::{Run, Runs, WindowEntry};

/// Where on the hop-event stream a tap sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapPoint {
    /// Switch ingress: the instant a packet arrives at the node. This is
    /// where the paper's core-router receivers sit (references are
    /// timestamped on arrival, before local queueing).
    NodeArrival(NodeId),
    /// Port egress: the instant a packet's last bit leaves `(node, port)`.
    PortDeparture(NodeId, PortId),
    /// Host-facing delivery at the node — where the destination-ToR
    /// receiver sits.
    Delivery(NodeId),
}

impl TapPoint {
    /// The node this tap observes.
    pub fn node(&self) -> NodeId {
        match *self {
            TapPoint::NodeArrival(n) | TapPoint::PortDeparture(n, _) | TapPoint::Delivery(n) => n,
        }
    }
}

/// Which ground-truth span a tap scores its estimates against
/// (`None` in deployment — truth is a simulation-only input).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TruthRef {
    /// No ground truth: estimates are recorded unscored.
    #[default]
    NoTruth,
    /// Injection → observation (the upstream segment from the sender).
    SinceInjection,
    /// First traversed hop from this node set → observation (e.g. "since
    /// the core": the downstream segment). Unscored if no listed node was
    /// traversed.
    SinceArrivalAt(Vec<NodeId>),
}

/// Decides whether a tap meters a given regular packet (receives the full
/// hop event, marks applied). `None` meters everything at the point.
///
/// **Live-tap contract**: on a live (non-`delivered_only`) tap the meter
/// is consulted twice per dying packet — once with the crossing event
/// (arrive/dequeue) when metering, and once with the downstream
/// `QueueDrop`/`RouteDrop` event when attributing the death. The two
/// events describe the same packet but differ in `kind`/`node`/`at`, so a
/// live-tap meter must decide from *packet-stable* fields (flow, marks,
/// size) for the drop accounting to agree with the metering decision.
/// Delivered-gated taps (where the meter sees the `Deliver` event only)
/// are unaffected.
pub type MeterFn<'a> = Box<dyn Fn(&HopEvent<'_>) -> bool + 'a>;

/// Filters/rewrites reference packets before the receiver sees them —
/// RLIR's receiver-side demultiplexing decides which reference *stream* an
/// observation point listens to (§3.1). `None` passes references through
/// unchanged (the receiver still ignores senders it is not bound to).
pub type RefMapFn<'a> = Box<dyn Fn(&ReferenceInfo) -> Option<ReferenceInfo> + 'a>;

/// Default reorder window: the evaluation topologies bound any tap's
/// observation lag by a few queue residences (512 KiB @ OC-192 drains in
/// ≈ 420 µs, plus per-hop processing and µs links), so 4 ms covers the
/// worst case — including the 400 µs localization faults — with headroom.
pub const DEFAULT_REORDER_WINDOW: SimDuration = SimDuration::from_micros(4_000);

/// Plane-wide configuration shared by every attached tap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneConfig {
    /// Width of the reorder window. Must exceed the worst-case residence
    /// time between any tap and the event that reports its observation
    /// (for delivered-gated taps: the downstream path delay). Too small a
    /// window surfaces as [`TapReport::late`], never as reordered input;
    /// [`SimDuration::MAX`] feeds nothing before [`MeasurementPlane::finish`].
    pub reorder_window: SimDuration,
    /// Epoch width: when set, every tap's receiver additionally aggregates
    /// an [`EpochSeries`](rlir_rli::EpochSeries) and the report
    /// carries per-tap latency time-series. `None` keeps whole-run
    /// aggregates only.
    pub epoch: Option<SimDuration>,
    /// Global pending-observation budget across **all** taps — the plane's
    /// graceful-degradation knob for continuous operation. When the total
    /// number of buffered observations reaches the budget, further regular
    /// observations are shed at the offering tap (counted in
    /// [`TapReport::shed`] and as unestimated in the receiver's books,
    /// exactly like the per-tap [`TapSpec::max_buffer`] cap); references
    /// are still admitted, so estimation quality degrades instead of
    /// collapsing. `None` (the default) leaves only the per-tap caps —
    /// what a window wider than the run needs, since its runs hold
    /// everything until [`MeasurementPlane::finish`].
    ///
    /// With more than one [`TenantId`] attached the budget is
    /// *hierarchical*: the cap is divided into per-tenant weighted shares
    /// with work-conserving borrowing (see [`TenantId`] and
    /// [`MeasurementPlane::set_tenant_weight`]). With every tap in the
    /// default tenant this reduces exactly to the flat cap.
    pub pending_budget: Option<usize>,
}

impl Default for PlaneConfig {
    fn default() -> Self {
        PlaneConfig {
            reorder_window: DEFAULT_REORDER_WINDOW,
            epoch: None,
            pending_budget: None,
        }
    }
}

impl PlaneConfig {
    /// The epoch width in nanoseconds (clamped to ≥ 1 ns), if epochs are
    /// on — the single source of truth for epoch indexing across the
    /// receivers and the report.
    pub fn epoch_ns(&self) -> Option<u64> {
        self.epoch.map(|e| e.as_nanos().max(1))
    }
}

/// Full configuration of one attached tap.
pub struct TapSpec<'a> {
    /// Printable name (segment names feed
    /// [`SegmentObservation`](crate::localization::SegmentObservation)).
    pub name: String,
    /// Observation point.
    pub point: TapPoint,
    /// The reference stream this tap's receiver locks onto.
    pub sender: SenderId,
    /// Ground-truth span for evaluation.
    pub truth: TruthRef,
    /// Score only packets that ultimately exit the network (see module
    /// docs). Default `false`: a device-resident instance sees every
    /// crossing. Evaluation harnesses that need end-to-end truth set it.
    pub delivered_only: bool,
    /// The feed is already time-ordered: stream into the receiver without
    /// buffering. Only sound for live [`TapPoint::NodeArrival`] taps and
    /// externally-sorted feeds. Default `false`.
    pub ordered: bool,
    /// The receiver's local clock.
    pub clock: ClockModel,
    /// Delay estimator.
    pub interpolator: Interpolator,
    /// Buffer cap, applied **per reorder window**: bounds both the plane's
    /// pending-observation buffer for this tap and the receiver's
    /// interpolation buffer. Regular observations shed by the cap are
    /// counted as seen-but-unestimated (per epoch, when epochs are on) in
    /// [`TapReport::shed`]; references are always admitted (they are the
    /// estimation substrate and a vanishing fraction of traffic).
    pub max_buffer: usize,
    /// Report a per-flow delay quantile from each flow's four largest
    /// delays ([`rlir_rli::FlowTable::with_quantile`]), e.g. `Some(0.9)`.
    pub track_quantile: Option<f64>,
    /// Regular-packet admission rule.
    pub meter: Option<MeterFn<'a>>,
    /// Reference filter/rewrite rule.
    pub ref_map: Option<RefMapFn<'a>>,
    /// Which tenant's budget share this tap draws on (see [`TenantId`]).
    /// Default `0` — every tap in one tenant reproduces the flat budget.
    pub tenant: TenantId,
}

impl<'a> TapSpec<'a> {
    /// A tap with the deployment defaults: **live** (sees every crossing,
    /// drop-aware), buffered through the plane's drain, perfect clock,
    /// linear interpolation, 4M-observation buffer cap, truth since
    /// injection.
    pub fn new(name: impl Into<String>, point: TapPoint, sender: SenderId) -> Self {
        TapSpec {
            name: name.into(),
            point,
            sender,
            truth: TruthRef::SinceInjection,
            delivered_only: false,
            ordered: false,
            clock: ClockModel::perfect(),
            interpolator: Interpolator::Linear,
            max_buffer: 1 << 22,
            track_quantile: None,
            meter: None,
            ref_map: None,
            tenant: 0,
        }
    }
}

/// `index` as a tap's 32-bit routing handle. Past 2³² a handle would wrap
/// and route another tap's observations to tap 0.
fn tap_index(index: usize) -> u32 {
    u32::try_from(index).expect("a plane routes at most 2^32 taps")
}

/// Which ground truth a tap computes per regular ([`TruthRef`] without the
/// node list, which stays in the cold [`TapSpec`]).
#[derive(Clone, Copy)]
enum TruthKind {
    NoTruth,
    SinceInjection,
    SinceArrivalAt,
}

/// What admitting an observation reads and writes (see the module docs);
/// the flags and bounds are copies of the [`TapSpec`] fields, fixed at
/// attach.
struct HotTap {
    /// The reorder run, in the plane's [`Runs`]: observations in arrival
    /// order behind the sorted tail the last flush retained. Bounded by
    /// the reorder window; the whole run under a window wider than the run.
    run: Run,
    point: TapPoint,
    /// Observations with `at` below this are late: the last flush bound
    /// of a buffered tap, the last observation fed to an ordered one.
    flushed_to: SimTime,
    /// After a recovery, observations before this time are discarded
    /// (cold restart resumes on a clean epoch boundary). `ZERO` for taps
    /// that never crashed — a no-op bound.
    resume_at: SimTime,
    max_buffer: usize,
    /// High-water mark of buffered observations.
    peak_pending: usize,
    /// Index into the plane's tenant table (resolved at attach).
    tenant_slot: u32,
    truth: TruthKind,
    ordered: bool,
    /// True between a [`FaultKind::TapDown`] and its matching `TapUp`:
    /// the measurement instance is crashed and observes nothing.
    down: bool,
    has_meter: bool,
    has_ref_map: bool,
}

impl HotTap {
    #[inline]
    fn push(&mut self, runs: &mut Runs, entry: WindowEntry) {
        runs.push(&mut self.run, self.flushed_to.as_nanos(), entry);
        self.peak_pending = self.peak_pending.max(self.run.len());
    }
}

/// The rest of a tap: what closures, sheds, faults, flushes, ordered feeds
/// and `finish()` reach.
struct ColdTap<'a> {
    spec: TapSpec<'a>,
    rx: RliReceiver,
    /// Observations that arrived after their window was flushed.
    late: u64,
    /// Regular observations shed by the per-window buffer cap.
    shed: u64,
    /// Metered packets that died downstream after being observed (per
    /// epoch: in the receiver's series).
    dropped_metered: u64,
    /// The epoch index recovery resumed at (last outage wins); drives
    /// [`TapReport::recovered_epochs`].
    resume_epoch: Option<u64>,
    /// Observations destroyed by outages: window entries freed at
    /// crash, receiver buffer destroyed by the cold reset, and stream
    /// observations that arrived while the tap was down (or before its
    /// post-recovery resume boundary).
    lost_window_obs: u64,
    /// Completed `TapDown` transitions.
    outages: u32,
}

/// Candidate crossing code: the tap observed the packet at the event
/// itself, not at one of its recorded hops. Sorts before every hop.
const AT_EVENT: u32 = 0;

/// Routing indices of one kind of tap (live or delivered-gated): which
/// taps observe each node's arrivals and each port's departures. Built at
/// attach time so an event consults only its matching taps — O(matches),
/// not O(taps) — which is what lets an all-ports deployment scale.
#[derive(Default)]
struct Routes {
    arrival: FxHashMap<NodeId, Vec<u32>>,
    departure: FxHashMap<(NodeId, PortId), Vec<u32>>,
}

impl Routes {
    /// The taps that observed `ev`'s packet upstream — at one of its
    /// recorded hops — or, for `at_event`, at the event itself, as
    /// `(tap, crossing)` in attachment order with each tap's first
    /// matching crossing: [`AT_EVENT`], or one more than the hop's index.
    fn gather(&self, cand: &mut Vec<(u32, u32)>, ev: &HopEvent<'_>, at_event: Option<&Vec<u32>>) {
        cand.clear();
        if let Some(v) = at_event {
            cand.extend(v.iter().map(|&t| (t, AT_EVENT)));
        }
        for (h, crossing) in ev.hops.iter().zip(AT_EVENT + 1..) {
            if let Some(v) = self.arrival.get(&h.node) {
                cand.extend(v.iter().map(|&t| (t, crossing)));
            }
            if let Some(v) = self.departure.get(&(h.node, h.port)) {
                cand.extend(v.iter().map(|&t| (t, crossing)));
            }
        }
        // Sorted by tap id and deduplicated on it: attachment order, the
        // first matching crossing of each.
        cand.sort_unstable();
        cand.dedup_by_key(|c| c.0);
    }
}

/// Attachable RLI taps over the engine's hop-event stream. Implements
/// [`HopSink`], so a plane *is* the sink argument of
/// [`rlir_sim::run_network_streamed_source`].
#[derive(Default)]
pub struct MeasurementPlane<'a> {
    cfg: PlaneConfig,
    /// Hot records, contiguous, in attachment order.
    taps: Vec<HotTap>,
    /// Cold records, same index as `taps`.
    cold: Vec<ColdTap<'a>>,
    live_seq: u64,
    /// Whether any tap is live (`!delivered_only`). Arrive/dequeue events
    /// dominate the engine's stream; when every tap is delivered-gated
    /// (the evaluation default) they short-circuit without scanning taps.
    has_live_taps: bool,
    /// Next watermark at which the window scans the taps
    /// (half-window granularity: keeps the per-event cost at one branch
    /// while bounding pending growth to 1.5 windows).
    next_flush: SimTime,
    /// Plane-wide pending accounting for the global budget.
    totals: PendingTotals,
    /// What the taps' window entries point into.
    records: Records,
    /// Where the taps' reorder runs live.
    runs: Runs,
    /// Per-tenant budget state, in first-seen order (see [`TenantId`]).
    tenants: Vec<TenantState>,
    /// Live taps by the crossing they observe as it happens.
    live: Routes,
    /// Delivered-gated taps by the hop a delivery reports.
    gated: Routes,
    /// [`TapPoint::Delivery`] taps by node, live or not.
    deliver_at: FxHashMap<NodeId, Vec<u32>>,
    /// Reused candidate buffer of [`Routes::gather`].
    scratch: Vec<(u32, u32)>,
}

impl<'a> MeasurementPlane<'a> {
    /// An empty plane with the default configuration (default reorder
    /// window, no epochs, no budget).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty plane with an explicit configuration.
    pub fn with_config(cfg: PlaneConfig) -> Self {
        MeasurementPlane {
            cfg,
            ..Self::default()
        }
    }

    /// The plane's configuration.
    pub fn config(&self) -> PlaneConfig {
        self.cfg
    }

    /// Attach a tap; returns its index (reports come back in attachment
    /// order).
    pub fn attach(&mut self, spec: TapSpec<'a>) -> usize {
        let rx = {
            let cfg = ReceiverConfig {
                sender: spec.sender,
                clock: spec.clock,
                interpolator: spec.interpolator,
                max_buffer: spec.max_buffer,
                epoch_ns: self.cfg.epoch_ns(),
            };
            match spec.track_quantile {
                Some(p) => RliReceiver::with_quantile(cfg, p),
                None => RliReceiver::new(cfg),
            }
        };
        self.has_live_taps |= !spec.delivered_only;
        let idx = tap_index(self.taps.len());
        // Route the tap: which event lookups reach it (mirrors `on_hop`;
        // `Delivery` taps observe deliveries at their node regardless of
        // the delivered_only flag).
        let routes = if spec.delivered_only {
            &mut self.gated
        } else {
            &mut self.live
        };
        match spec.point {
            TapPoint::Delivery(n) => self.deliver_at.entry(n).or_default().push(idx),
            TapPoint::NodeArrival(n) => routes.arrival.entry(n).or_default().push(idx),
            TapPoint::PortDeparture(n, p) => routes.departure.entry((n, p)).or_default().push(idx),
        }
        let tenant_slot = self.tenant_slot(spec.tenant) as u32;
        self.taps.push(HotTap {
            run: Run::default(),
            point: spec.point,
            flushed_to: SimTime::ZERO,
            resume_at: SimTime::ZERO,
            max_buffer: spec.max_buffer,
            peak_pending: 0,
            tenant_slot,
            truth: match spec.truth {
                TruthRef::NoTruth => TruthKind::NoTruth,
                TruthRef::SinceInjection => TruthKind::SinceInjection,
                TruthRef::SinceArrivalAt(_) => TruthKind::SinceArrivalAt,
            },
            ordered: spec.ordered,
            down: false,
            has_meter: spec.meter.is_some(),
            has_ref_map: spec.ref_map.is_some(),
        });
        self.cold.push(ColdTap {
            spec,
            rx,
            late: 0,
            shed: 0,
            dropped_metered: 0,
            resume_epoch: None,
            lost_window_obs: 0,
            outages: 0,
        });
        self.taps.len() - 1
    }

    /// Route one observation into a tap at observation time `at` with
    /// tie-break key `(slot.tie, id)`.
    #[allow(clippy::too_many_arguments)]
    fn observe(
        tap: &mut HotTap,
        cold: &mut ColdTap<'a>,
        cfg: PlaneConfig,
        totals: &mut PendingTotals,
        tenants: &mut [TenantState],
        records: &mut Records,
        runs: &mut Runs,
        at: SimTime,
        slot: &mut EventSlot,
        ev: &HopEvent<'_>,
    ) {
        let id = ev.packet.id.0;
        match ev.packet.reference_info() {
            Some(info) => {
                // The flag first: a tap without a map never reads `cold`.
                let mapped = if tap.has_ref_map {
                    cold.spec.ref_map.as_ref().and_then(|f| f(&info))
                } else {
                    Some(info)
                };
                let Some(info) = mapped else { return };
                match Self::admit(tap, cold, cfg, totals, tenants, at, false) {
                    Admission::Refused => {}
                    Admission::Ordered => cold.rx.on_reference(at, &info),
                    Admission::Buffered => {
                        // What a map returns is the tap's own business: its
                        // record is not the event's.
                        let rec = if tap.has_ref_map {
                            records.push_own(EventRecord::reference(slot.tie, id, &info))
                        } else {
                            slot.shared(records, |tie| EventRecord::reference(tie, id, &info))
                        };
                        tap.push(runs, records.entry(at, false, rec))
                    }
                }
            }
            None if ev.packet.is_regular() => {
                if tap.has_meter && !cold.spec.meter.as_ref().is_some_and(|m| m(ev)) {
                    return;
                }
                // Where the tap's truth span starts (`None`: unscored).
                let since = match tap.truth {
                    TruthKind::NoTruth => None,
                    TruthKind::SinceInjection => Some(ev.injected_at),
                    TruthKind::SinceArrivalAt => match &cold.spec.truth {
                        TruthRef::SinceArrivalAt(nodes) => ev
                            .hops
                            .iter()
                            .find(|h| nodes.contains(&h.node))
                            .map(|h| h.arrived),
                        _ => None,
                    },
                };
                let flow = &ev.packet.flow;
                match Self::admit(tap, cold, cfg, totals, tenants, at, true) {
                    Admission::Refused => {}
                    Admission::Ordered => {
                        cold.rx
                            .on_regular(at, *flow, since.map(|s| at.saturating_since(s)))
                    }
                    Admission::Buffered => {
                        // The shared record's span starts at injection; one
                        // that starts anywhere else is the tap's own.
                        let rec = match since {
                            Some(s) if s != ev.injected_at => {
                                records.push_own(EventRecord::regular(slot.tie, id, flow, s))
                            }
                            _ => slot.shared(records, |tie| {
                                EventRecord::regular(tie, id, flow, ev.injected_at)
                            }),
                        };
                        tap.push(runs, records.entry(at, since.is_some(), rec))
                    }
                }
            }
            // Cross traffic is invisible to the measurement plane.
            None => {}
        }
    }

    /// Gather the tap's run out of the pool, sort it into `(at, tie, id)`
    /// order and feed its receiver everything strictly below `bound`
    /// (`None`: everything) as one batch, after which the receiver gives
    /// back its interpolation buffer's spare capacity; what stays behind
    /// goes back to the pool as the sorted tail the next flush extends.
    fn flush_tap(
        tap: &mut HotTap,
        cold: &mut ColdTap<'a>,
        totals: &mut PendingTotals,
        tenants: &mut [TenantState],
        records: &Records,
        runs: &mut Runs,
        bound: Option<SimTime>,
    ) {
        if let Some(b) = bound {
            tap.flushed_to = tap.flushed_to.max(b);
        }
        if tap.run.len > 0 {
            let run = runs.gather(&mut tap.run);
            // Stable on purpose, though keys are unique: the run is a
            // sorted tail plus arrivals in near-order, which the merge
            // sort's run detection finishes in about one pass. Only an
            // `at` tie reads the records.
            run.sort_by(|a, b| {
                a.at.cmp(&b.at).then_with(|| {
                    let (ra, rb) = (records.get(a), records.get(b));
                    (ra.tie, ra.id).cmp(&(rb.tie, rb.id))
                })
            });
            let n = match bound {
                Some(b) => run.partition_point(|obs| obs.at < b.as_nanos()),
                None => run.len(),
            };
            for obs in &run[..n] {
                let at = SimTime::from_nanos(obs.at);
                match records.get(obs).payload(obs) {
                    Payload::Reference(info) => cold.rx.on_reference(at, &info),
                    Payload::Regular { flow, truth } => cold.rx.on_regular(at, flow, truth),
                }
            }
            cold.rx.trim_buffer();
            runs.refill(&mut tap.run, n, tap.flushed_to.as_nanos());
            let t = &mut tenants[tap.tenant_slot as usize];
            debug_assert!(n <= totals.pending && n <= t.pending, "unbooked entries");
            totals.pending -= n;
            t.pending -= n;
        }
    }

    /// The window's scan, every half window of watermark: flush
    /// every unordered tap to `watermark − window`, then free the event
    /// records nothing names any more. Out of line: the engine calls
    /// [`HopSink::on_watermark`] per event, and all but one call in
    /// thousands is the two compares in front of this.
    #[inline(never)]
    fn flush_windows(&mut self, watermark: SimTime) {
        let reorder_window = self.cfg.reorder_window;
        let bound = SimTime::from_nanos(
            watermark
                .as_nanos()
                .saturating_sub(reorder_window.as_nanos()),
        );
        for (tap, cold) in self.taps.iter_mut().zip(&mut self.cold) {
            if !tap.ordered {
                Self::flush_tap(
                    tap,
                    cold,
                    &mut self.totals,
                    &mut self.tenants,
                    &self.records,
                    &mut self.runs,
                    Some(bound),
                );
            }
        }
        self.records.reclaim(bound);
        self.next_flush = watermark + SimDuration::from_nanos(reorder_window.as_nanos() / 2 + 1);
    }

    /// Crash every tap at `node`: its reorder run's blocks are freed and its
    /// receiver cold-reset (flow table included) — everything destroyed is
    /// accounted in [`TapReport::lost_window_obs`], and the state is gone
    /// from [`approx_state_bytes`](MeasurementPlane::approx_state_bytes)
    /// before this returns (the event records its entries named go with
    /// the next flush past them, like everyone else's). Until the matching
    /// [`tap_up`](MeasurementPlane::tap_up), crossings at the point are
    /// counted as lost, never observed. Delivered automatically from
    /// scripted [`FaultKind::TapDown`] events via [`HopSink::on_fault`];
    /// public so harnesses can drive outages directly.
    pub fn tap_down(&mut self, at: SimTime, node: NodeId) {
        let _ = at; // the crash takes effect immediately; time is in the script
        for (tap, cold) in self.taps.iter_mut().zip(&mut self.cold) {
            if tap.point.node() != node || tap.down {
                continue;
            }
            tap.down = true;
            cold.outages += 1;
            let freed = tap.run.len();
            self.runs.release(&mut tap.run, |_, _| {});
            let destroyed = cold.rx.reset_cold();
            cold.lost_window_obs += freed as u64 + destroyed;
            let t = &mut self.tenants[tap.tenant_slot as usize];
            debug_assert!(
                freed <= self.totals.pending && freed <= t.pending,
                "unbooked entries"
            );
            self.totals.pending -= freed;
            t.pending -= freed;
        }
    }

    /// Recover every downed tap at `node`, cold: estimation resumes at
    /// the next epoch boundary at-or-after `at` (at `at` itself when the
    /// plane runs without epochs), so the restarted instance produces
    /// clean whole-epoch snapshots that merge into its pre-crash series
    /// via the ordinary [`EpochSeries`](rlir_rli::EpochSeries)
    /// machinery. Observations between `at` and the boundary are counted in
    /// [`TapReport::lost_window_obs`]. The counterpart of
    /// [`tap_down`](MeasurementPlane::tap_down).
    pub fn tap_up(&mut self, at: SimTime, node: NodeId) {
        let epoch_ns = self.cfg.epoch_ns();
        for (tap, cold) in self.taps.iter_mut().zip(&mut self.cold) {
            if tap.point.node() != node || !tap.down {
                continue;
            }
            tap.down = false;
            let resume_ns = match epoch_ns {
                Some(e) => at.as_nanos().div_ceil(e).saturating_mul(e),
                None => at.as_nanos(),
            };
            tap.resume_at = SimTime::from_nanos(resume_ns);
            if let Some(e) = epoch_ns {
                cold.resume_epoch = Some(resume_ns / e);
            }
        }
    }
}

/// When a candidate tap observed the event's packet: at the event itself
/// ([`AT_EVENT`]: a delivery tap, or an arrival tap at the drop node), or at
/// hop `crossing − 1` — on arrival, or for an egress tap on departure.
#[inline]
fn crossing_time(point: TapPoint, crossing: u32, ev: &HopEvent<'_>) -> SimTime {
    match (crossing.checked_sub(1), point) {
        (None, _) => ev.at,
        (Some(k), TapPoint::PortDeparture(..)) => ev.hops[k as usize].departed,
        (Some(k), _) => ev.hops[k as usize].arrived,
    }
}

impl HopSink for MeasurementPlane<'_> {
    #[inline]
    fn on_watermark(&mut self, watermark: SimTime) {
        if watermark >= self.next_flush {
            self.flush_windows(watermark);
        }
    }

    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        match ev.kind {
            // A crossing the live taps at its point observe as it happens.
            HopKind::Arrive | HopKind::Dequeue { .. } => {
                if !self.has_live_taps {
                    return; // every tap is delivered-gated: nothing to do
                }
                self.live_seq += 1;
                let mut slot = EventSlot::new(self.live_seq);
                let taps = match ev.kind {
                    HopKind::Dequeue { port, .. } => self.live.departure.get(&(ev.node, port)),
                    _ => self.live.arrival.get(&ev.node),
                };
                for &i in taps.into_iter().flatten() {
                    Self::observe(
                        &mut self.taps[i as usize],
                        &mut self.cold[i as usize],
                        self.cfg,
                        &mut self.totals,
                        &mut self.tenants,
                        &mut self.records,
                        &mut self.runs,
                        ev.at,
                        &mut slot,
                        ev,
                    );
                }
            }
            HopKind::Deliver => {
                let mut slot = EventSlot::new(ev.at.as_nanos());
                let at_event = self.deliver_at.get(&ev.node);
                self.gated.gather(&mut self.scratch, ev, at_event);
                for &(i, crossing) in &self.scratch {
                    let i = i as usize;
                    let at = crossing_time(self.taps[i].point, crossing, ev);
                    Self::observe(
                        &mut self.taps[i],
                        &mut self.cold[i],
                        self.cfg,
                        &mut self.totals,
                        &mut self.tenants,
                        &mut self.records,
                        &mut self.runs,
                        at,
                        &mut slot,
                        ev,
                    );
                }
            }
            // Drop events carry the live taps' drop-awareness: a packet
            // that dies here was already *observed* by every live tap it
            // crossed upstream — those estimates must be accounted, not
            // silently folded into delivered-only statistics.
            HopKind::QueueDrop { .. } | HopKind::RouteDrop => {
                if !self.has_live_taps || !ev.packet.is_regular() {
                    return;
                }
                // The drop node itself counts: arrival there precedes the
                // fatal queue. Upstream crossings come from the hops.
                let at_event = self.live.arrival.get(&ev.node);
                self.live.gather(&mut self.scratch, ev, at_event);
                for &(i, crossing) in &self.scratch {
                    let (tap, cold) = (&self.taps[i as usize], &mut self.cold[i as usize]);
                    // A crashed instance never observed the crossing; there
                    // is no estimate to attribute the death to.
                    if tap.down
                        || (tap.has_meter && !cold.spec.meter.as_ref().is_some_and(|m| m(ev)))
                    {
                        continue;
                    }
                    cold.dropped_metered += 1;
                    cold.rx
                        .on_downstream_drop(crossing_time(tap.point, crossing, ev));
                }
            }
            // Enqueue events carry no measurement semantics: RLI meters
            // what crosses a point, not what waits at it.
            HopKind::Enqueue { .. } => {}
        }
    }

    fn on_fault(&mut self, ev: &FaultEvent) {
        match ev.kind {
            FaultKind::TapDown { node } => self.tap_down(ev.at, node),
            FaultKind::TapUp { node } => self.tap_up(ev.at, node),
            // Network faults don't touch the plane directly: their effects
            // arrive through the hop-event stream itself.
            _ => {}
        }
    }
}
