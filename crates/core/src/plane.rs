//! The per-hop measurement plane.
//!
//! The paper's deployment model is an RLI instance *at every upgraded
//! router* (§3, Fig. 10): operators attach estimator instances to
//! individual devices and segments so latency faults can be localized to a
//! hop, not just noticed end-to-end. [`MeasurementPlane`] is that layer for
//! the simulator: any number of RLI estimator instances (sender
//! interleaving feeds them over the fabric; receiver interpolation from
//! `rlir-rli` runs inside them) attach to arbitrary taps of the engine's
//! [`HopEvent`] stream — a switch ingress, a `(node, port)` egress, or a
//! host-facing delivery point — each with dense per-flow state
//! ([`FlowTable`](rlir_rli::FlowTable)) and optional simulation ground
//! truth for evaluation.
//!
//! A tap is an [`RliReceiver`] plus the wiring that a real deployment would
//! configure out of band: which observation point it sits on
//! ([`TapPoint`]), which sender's reference stream it locks onto, which
//! regular packets it meters ([`TapSpec::meter`]), and — simulation only —
//! which ground-truth span to score against ([`TruthRef`]).
//!
//! ## One reorder window: a run per tap, one block pool for all of them
//!
//! Receivers require time-ordered input, but taps reconstructing upstream
//! crossings from [`HopKind::Deliver`] events see observations *out of*
//! observation-time order (a packet delivered late may have crossed the tap
//! early). Every unordered tap therefore owns one append-only **run** of
//! pending observations, each keyed `(observation time, tie, packet id)` —
//! unique per tap. When the engine's event-time **watermark**
//! ([`HopSink::on_watermark`]) has advanced half a window past the last
//! flush, each run is sorted, split at `watermark − window`, and the
//! prefix is fed to the tap's own [`RliReceiver`] — and through it the
//! tap's own [`FlowTable`](rlir_rli::FlowTable) — as one batch. Because an
//! observation's lag behind the watermark is bounded by the packet's
//! residence time downstream of the tap (see the watermark contract in
//! `rlir-sim`), a window wider than the worst-case downstream residence
//! yields exactly the total order a whole-run sort produces — with peak
//! memory O(window), not O(run), and estimates available *while the
//! simulation runs*. Observations that still arrive late (window too small
//! for the workload) are counted in [`TapReport::late`], never fed out of
//! order.
//!
//! A run is not a `Vec` of its own: every run lives in one plane-wide
//! **block pool** (`Runs`). A **block** is `BLOCK` (128) consecutive entries
//! of the pool's one entry array; blocks chain through a parallel `next`
//! array and come from a LIFO free list before the pool ever grows. A tap
//! holds a 12-byte handle `{head, tail, len}` whose entries fill its chain
//! front to back, so a run of `len` entries holds exactly ⌈len / BLOCK⌉
//! blocks. The slack lives in the tail blocks — at most `BLOCK − 1`
//! entries a tap — and in the one flush scratch. A burst at one tap takes
//! the blocks another tap's flush just freed, so the pool holds the peak
//! of the *sum* of the runs, where a `Vec` per tap kept its own all-time
//! peak, rounded up to a power of two, long after its burst had passed.
//!
//! Observing appends to the tail block. A flush **gathers** the run block
//! by block into the shared scratch `Vec`, frees the blocks, stable-sorts
//! the scratch by `(at, tie, id)`, feeds the prefix below the bound and
//! **refills** a fresh chain with the suffix. Gathering in chain order
//! keeps the run's own order — the sorted suffix the previous flush left,
//! then arrivals in near-order — so the sort's run detection still
//! finishes in about one merge pass, and since keys are unique per tap
//! the order it feeds is the one total order whatever the layout. (A
//! plane-wide run sorted once per flush fed the same, but interleaving
//! the taps broke the runs the sort detects: ≈ 3× the flush time.)
//!
//! That pool is the plane's only reorder structure. The plane-wide
//! [`PlaneConfig::pending_budget`], the tenant shares and the per-tap
//! [`TapSpec::max_buffer`] all count run lengths; a crashed tap's blocks
//! simply go back to the free list. (Earlier revisions kept a per-tap
//! binary heap, then a plane-wide calendar wheel over a shared flow arena
//! whose geometry only [`MeasurementPlane::with_config`] sized —
//! `MeasurementPlane::new()` got an un-sized 1 ms wheel under a 4 ms
//! window. Both are gone, and the mis-sizing with them.)
//!
//! [`DrainMode::BufferedSort`] is the same pooled run never flushed before
//! [`MeasurementPlane::finish`]: the differential oracle
//! `tests/epoch_streaming_differential.rs` and
//! `tests/reorder_window_properties.rs` pin the streaming drain against,
//! byte for byte.
//!
//! Taps whose feed is already time-ordered (live [`TapPoint::NodeArrival`]
//! taps, delivery-sorted tandem feeds) can set [`TapSpec::ordered`] and
//! stream straight into the receiver with no buffering at all.
//!
//! ## What an observation touches
//!
//! A tap is stored as two records. The **hot** one (`HotTap`, 80 bytes,
//! all taps contiguous) holds exactly what admitting an observation reads
//! and writes: the point (the routing indices already tell live from
//! delivered-gated), the `ordered` / `down` flags, which truth to compute,
//! whether a meter or a reference map exists, the tenant slot, the
//! `flushed_to` / `resume_at` bounds, the buffer cap, the pending peak and
//! the run's handle into the pool. The **cold** one (`ColdTap`: the
//! [`TapSpec`] with its strings and closures, the [`RliReceiver`], the
//! loss / outage counters, the per-epoch drop map) is reached only by
//! closures, sheds, faults, flushes, ordered feeds and
//! [`MeasurementPlane::finish`].
//!
//! ## One record per event, one entry per tap
//!
//! A delivery is observed by every tap on the packet's path — about five
//! on a fat-tree with all ports tapped — and what those observations share
//! (which packet, which flow or reference, the tie) is stored once. The
//! first tap that buffers a hop event appends an **event record**
//! (`EventRecord`, four `u64` words: tie, packet id, the packed 5-tuple or
//! [`ReferenceInfo`], a tag word with the kind bit and protocol and ports
//! or sender and sequence) to one plane-wide FIFO; each tap's run then
//! holds a three-word **entry** (`WindowEntry`: observation time, truth,
//! and the record's position in the stream of records with the
//! truth-present bit). An event no tap buffers — filtered, late, shed,
//! lost, or fed straight to an ordered tap — makes no record. A tap with a
//! [`TapSpec::ref_map`] keeps a record of its own per mapped reference,
//! since what the map returns is that tap's alone. A flush sorts entries
//! by observation time and reads a record only to break a tie on it by
//! `(tie, id)` and to decode what it feeds, so the feed order is exactly
//! `(at, tie, id)`.
//!
//! Records are reclaimed from the front of the FIFO. About every 256
//! records (when an event's shared record is made: every earlier event's
//! entries exist by then) and at every watermark flush, the plane notes
//! `(latest observation time of any entry so far, where the FIFO ends)`;
//! once all unordered taps have been flushed beyond that time, no entry is
//! left that names a record before that end, and the front is freed up to
//! it. So records live about as long as entries do — between one and one
//! and a half windows past their event — and a live
//! [`TapPoint::PortDeparture`] tap, whose `Dequeue` events are stamped
//! with a departure time ahead of the watermark, merely holds the front
//! back until the watermark catches up. A crashed tap's entries are freed
//! at once and their records by the next flush past them; under
//! [`DrainMode::BufferedSort`] nothing is flushed and records stay, like
//! the runs, until [`MeasurementPlane::finish`]. The split pays off when
//! more than `32 / 24` taps buffer an event; a lone tap pays 56 bytes an
//! observation where a self-contained entry was 48
//! ([`PlaneReport::records_made`] and [`PlaneReport::peak_records`] say
//! which case a run was).
//!
//! ## Live taps and drop awareness
//!
//! [`TapSpec::new`] defaults to a **live** tap (`delivered_only = false`):
//! the instance sees every crossing at its point, including packets that
//! later die downstream — what a real device-resident instance observes.
//! The plane watches the engine's drop events and counts, per tap (and per
//! epoch when epochs are on), the metered packets that died downstream
//! after being observed ([`TapReport::dropped_metered`],
//! [`EpochSnapshot::dropped_after_metering`]) — the estimates a
//! delivered-gated evaluation would silently exclude.
//!
//! Evaluation harnesses that score only packets with end-to-end ground
//! truth (the paper's methodology) opt back in with
//! [`TapSpec::delivered_only`]` = true`; the observation is then
//! reconstructed from the [`HopKind::Deliver`] event's hop record.
//!
//! ## Epochs
//!
//! With [`PlaneConfig::epoch`] set, every tap's receiver aggregates into
//! per-epoch [`EpochSnapshot`]s keyed by observation time — the bounded
//! per-epoch export a deployed router streams to a collector — and
//! [`PlaneReport::localize_epochs`] ranks segments *per epoch*, giving
//! anomaly onset times instead of whole-run presence.

use crate::localization::{localize, AnomalyFinding, LocalizerConfig, SegmentObservation};
use rlir_net::clock::ClockModel;
use rlir_net::fxhash::FxHashMap;
use rlir_net::packet::{ReferenceInfo, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::{FlowKey, Protocol};
use rlir_rli::{
    merge_epoch_series, snapshot_at, EpochSnapshot, Interpolator, ReceiverConfig, ReceiverReport,
    RliReceiver,
};
use rlir_sim::pipeline::Delivery;
use rlir_sim::{FaultEvent, FaultKind, Hop, HopEvent, HopKind, HopSink, NodeId, PortId};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

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

/// How buffered (non-[`TapSpec::ordered`]) taps hand observations to their
/// receivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainMode {
    /// Bounded reorder window driven by the engine watermark (the
    /// default): observations are fed online, in observation-time order,
    /// as soon as the watermark clears them; peak memory is O(window).
    Streaming {
        /// Width of the reorder window. Must exceed the worst-case
        /// residence time between any tap and the event that reports its
        /// observation (for delivered-gated taps: the downstream path
        /// delay — queue drain caps + processing + links). Too-small
        /// windows surface as [`TapReport::late`], never as reordered
        /// input.
        reorder_window: SimDuration,
    },
    /// The differential oracle: the same per-tap run, never flushed
    /// before [`MeasurementPlane::finish`] — buffer every observation, sort
    /// once. O(run) memory, no admission control, nothing is ever late.
    BufferedSort,
}

/// Default reorder window: the evaluation topologies bound any tap's
/// observation lag by a few queue residences (512 KiB @ OC-192 drains in
/// ≈ 420 µs, plus per-hop processing and µs links), so 4 ms covers the
/// worst case — including the 400 µs localization faults — with headroom.
pub const DEFAULT_REORDER_WINDOW: SimDuration = SimDuration::from_micros(4_000);

impl Default for DrainMode {
    fn default() -> Self {
        DrainMode::Streaming {
            reorder_window: DEFAULT_REORDER_WINDOW,
        }
    }
}

/// Which tenant a tap belongs to (an operator-assigned opaque id).
///
/// The plane's multi-tenant dimension: several measurement customers —
/// different teams, different tools — share one fabric's hop-event
/// stream, and the plane's [`PlaneConfig::pending_budget`] becomes a
/// *hierarchy*: the plane-wide cap is split into per-tenant weighted
/// shares (set via [`MeasurementPlane::set_tenant_weight`]; unseen
/// tenants default to weight 1) with work-conserving borrowing: a tenant
/// under its share is always admitted; one over its share may borrow
/// headroom only while every other tenant's unused share remains
/// *reserved*. A flooding tenant therefore inflates only its own
/// [`TenantReport::shed`] — it can never displace another tenant's
/// guaranteed share, and the isolation tests pin a victim tenant's epoch
/// estimates byte-identical with and without the flood. Every tap
/// defaults to tenant `0`; a single-tenant plane reproduces the flat
/// budget's admissions bit-for-bit.
pub type TenantId = u32;

/// Plane-wide configuration shared by every attached tap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaneConfig {
    /// Drain strategy for buffered taps.
    pub drain: DrainMode,
    /// Epoch width: when set, every tap's receiver additionally aggregates
    /// per-epoch [`EpochSnapshot`]s and the report carries per-tap latency
    /// time-series. `None` keeps whole-run aggregates only.
    pub epoch: Option<SimDuration>,
    /// Global pending-observation budget across **all** taps — the plane's
    /// graceful-degradation knob for continuous operation. When the total
    /// number of buffered observations reaches the budget, further regular
    /// observations are shed at the offering tap (counted in
    /// [`TapReport::shed`] and as unestimated in the receiver's books,
    /// exactly like the per-tap [`TapSpec::max_buffer`] cap); references
    /// are still admitted, so estimation quality degrades instead of
    /// collapsing. `None` (the default) leaves only the per-tap caps.
    /// Applies to [`DrainMode::Streaming`]; the buffered-sort oracle is
    /// O(run) by design and ignores it.
    ///
    /// With more than one [`TenantId`] attached the budget is
    /// *hierarchical*: the cap is divided into per-tenant weighted shares
    /// with work-conserving borrowing (see [`TenantId`] and
    /// [`MeasurementPlane::set_tenant_weight`]). With every tap in the
    /// default tenant this reduces exactly to the flat cap.
    pub pending_budget: Option<usize>,
}

impl PlaneConfig {
    /// The epoch width in nanoseconds (clamped to ≥ 1 ns), if epochs are
    /// on — the single source of truth for epoch indexing across the
    /// receivers, the drop-accounting join, and the report.
    pub fn epoch_ns(&self) -> Option<u64> {
        self.epoch.map(|e| e.as_nanos().max(1))
    }
}

/// Full configuration of one attached tap.
pub struct TapSpec<'a> {
    /// Printable name (segment names feed [`SegmentObservation`]).
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
    /// Track a per-flow delay quantile (P² estimator), e.g. `Some(0.9)`.
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

/// What a run entry decodes to at flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Payload {
    Reference(ReferenceInfo),
    Regular {
        flow: FlowKey,
        truth: Option<SimDuration>,
    },
}

/// Tag-word bit: the record is a reference (clear: a regular).
const TAG_REFERENCE: u64 = 1 << 63;
/// Tag-word bits 40–41: which [`Protocol`] variant a regular's protocol
/// number (bits 32–39) came from — `Other(6)` is not `Tcp`.
const TAG_PROTO_UDP: u64 = 1 << 40;
const TAG_PROTO_OTHER: u64 = 2 << 40;
/// Entry `rec`-word bit: the truth word holds a value. A bit, not a
/// sentinel in the truth word: every `u64` is a truth a saturated clock can
/// produce.
const ENTRY_HAS_TRUTH: u64 = 1 << 63;

/// What every tap buffering one hop event shares: the `(tie, packet id)`
/// that breaks an observation-time tie, and the packed 5-tuple or
/// [`ReferenceInfo`]. Four plain words, written once per event and read at
/// flush; when it was observed and how long it took are per tap and live in
/// the [`WindowEntry`].
#[derive(Clone, Copy)]
struct EventRecord {
    tie: u64,
    id: u64,
    /// Regular: `src << 32 | dst`. Reference: the transmit timestamp, ns.
    body: u64,
    /// Kind bit, then — regular: protocol variant, protocol number, source
    /// port, destination port; reference: `sender << 32 | seq`.
    tag: u64,
}

impl EventRecord {
    #[inline]
    fn regular(tie: u64, id: u64, flow: &FlowKey) -> Self {
        let proto = match flow.proto {
            Protocol::Tcp => 0,
            Protocol::Udp => TAG_PROTO_UDP,
            Protocol::Other(n) => TAG_PROTO_OTHER | (n as u64) << 32,
        };
        EventRecord {
            tie,
            id,
            body: (u32::from(flow.src) as u64) << 32 | u32::from(flow.dst) as u64,
            tag: proto | (flow.sport as u64) << 16 | flow.dport as u64,
        }
    }

    #[inline]
    fn reference(tie: u64, id: u64, info: &ReferenceInfo) -> Self {
        EventRecord {
            tie,
            id,
            body: info.tx_timestamp.as_nanos(),
            tag: TAG_REFERENCE | (info.sender.0 as u64) << 32 | info.seq as u64,
        }
    }

    /// What one tap's entry for this record feeds its receiver.
    #[inline]
    fn payload(&self, truth: Option<SimDuration>) -> Payload {
        if self.tag & TAG_REFERENCE != 0 {
            return Payload::Reference(ReferenceInfo {
                sender: SenderId((self.tag >> 32) as u16),
                seq: self.tag as u32,
                tx_timestamp: SimTime::from_nanos(self.body),
            });
        }
        let proto = match self.tag & (TAG_PROTO_UDP | TAG_PROTO_OTHER) {
            0 => Protocol::Tcp,
            TAG_PROTO_UDP => Protocol::Udp,
            _ => Protocol::Other((self.tag >> 32) as u8),
        };
        Payload::Regular {
            flow: FlowKey {
                src: Ipv4Addr::from((self.body >> 32) as u32),
                dst: Ipv4Addr::from(self.body as u32),
                proto,
                sport: (self.tag >> 16) as u16,
                dport: self.tag as u16,
            },
            truth,
        }
    }
}

/// One tap's pending observation of an event: when the tap saw it, how
/// long it had taken, and which [`EventRecord`] says what it was. Fed in
/// ascending `(at, tie, packet id)` order — unique per tap, and the exact
/// total order the buffered-sort oracle produces.
#[derive(Clone, Copy, Default)]
struct WindowEntry {
    at: u64,
    /// With [`ENTRY_HAS_TRUTH`]: the truth, ns. Otherwise zero.
    truth: u64,
    /// The record's position in the plane's stream of records (see
    /// [`Records`]), and the [`ENTRY_HAS_TRUTH`] bit.
    rec: u64,
}

impl WindowEntry {
    #[inline]
    fn truth(&self) -> Option<SimDuration> {
        (self.rec & ENTRY_HAS_TRUTH != 0).then(|| SimDuration::from_nanos(self.truth))
    }
}

/// Entries per pool block (see the module docs): what a burst takes from
/// the pool at a time, and the most a tap's tail block leaves unused.
const BLOCK: usize = 128;

/// One tap's reorder run in the pool: entry `i` is entry `i % BLOCK` of
/// the chain's `i / BLOCK`-th block. An empty run holds no block, and its
/// `head` / `tail` mean nothing.
#[derive(Clone, Copy, Default)]
struct Run {
    head: u32,
    tail: u32,
    len: u32,
}

impl Run {
    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }
}

/// The plane-wide block pool every tap's [`Run`] lives in (see the module
/// docs).
#[derive(Default)]
struct Runs {
    /// Block `b` is `entries[b * BLOCK..][..BLOCK]`.
    entries: Vec<WindowEntry>,
    /// The block after block `b` in its run's chain (stale once `b` is a
    /// run's tail or free: a run's length says where its chain ends).
    next: Vec<u32>,
    /// Blocks no run holds, most recently freed last.
    free: Vec<u32>,
    /// A flush's run, gathered out of its blocks and sorted.
    scratch: Vec<WindowEntry>,
}

/// `index` as a tap's 32-bit routing handle. Past 2³² a handle would wrap
/// and route another tap's observations to tap 0.
fn tap_index(index: usize) -> u32 {
    u32::try_from(index).expect("a plane routes at most 2^32 taps")
}

/// `index` as a 32-bit block handle, checked like [`tap_index`].
fn block_index(index: usize) -> u32 {
    u32::try_from(index).expect("a window pool holds at most 2^32 blocks")
}

/// `len` as a run's 32-bit length, checked like [`tap_index`].
fn run_len(len: usize) -> u32 {
    u32::try_from(len).expect("a reorder run holds at most 2^32 - 1 entries")
}

impl Runs {
    /// Chain a block onto `run`'s tail — a free one if there is any — and
    /// return where its first entry goes.
    #[inline]
    fn chain(&mut self, run: &mut Run) -> usize {
        let block = match self.free.pop() {
            Some(b) => b,
            None => {
                let b = block_index(self.next.len());
                self.next.push(0);
                self.entries
                    .resize(self.entries.len() + BLOCK, WindowEntry::default());
                b
            }
        };
        if run.len == 0 {
            run.head = block;
        } else {
            self.next[run.tail as usize] = block;
        }
        run.tail = block;
        block as usize * BLOCK
    }

    /// Append `entry` to `run`.
    #[inline]
    fn push(&mut self, run: &mut Run, entry: WindowEntry) {
        let len = run_len(run.len() + 1);
        let at = run.len() % BLOCK;
        let base = if at == 0 {
            self.chain(run)
        } else {
            run.tail as usize * BLOCK
        };
        self.entries[base + at] = entry;
        run.len = len;
    }

    /// Empty `run`, handing each of its blocks' entries to `each` in run
    /// order before the block goes back to the free list.
    #[inline]
    fn release(&mut self, run: &mut Run, mut each: impl FnMut(&[WindowEntry])) {
        let mut left = run.len();
        let mut block = run.head;
        while left > 0 {
            let n = left.min(BLOCK);
            let base = block as usize * BLOCK;
            each(&self.entries[base..base + n]);
            self.free.push(block);
            left -= n;
            block = self.next[block as usize];
        }
        run.len = 0;
    }

    /// Move `run`'s entries into the scratch, in run order, and free its
    /// blocks.
    fn gather(&mut self, run: &mut Run) -> &mut [WindowEntry] {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        self.release(run, |entries| scratch.extend_from_slice(entries));
        self.scratch = scratch;
        &mut self.scratch
    }

    /// Give the empty `run` the scratch from `from` on, block by block.
    fn refill(&mut self, run: &mut Run, from: usize) {
        debug_assert_eq!(run.len, 0);
        let mut at = from;
        while at < self.scratch.len() {
            let n = (self.scratch.len() - at).min(BLOCK);
            let base = self.chain(run);
            self.entries[base..base + n].copy_from_slice(&self.scratch[at..at + n]);
            at += n;
            run.len = run_len(at - from);
        }
    }
}

/// The plane-wide FIFO of [`EventRecord`]s, oldest first. A record is
/// named by its position in the whole stream of records ever made, so
/// reclaiming the front never renumbers what the entries hold.
#[derive(Default)]
struct Records {
    fifo: VecDeque<EventRecord>,
    /// Records reclaimed so far: the stream position of `fifo`'s front.
    base: u64,
    /// High-water mark of `fifo.len()`.
    peak: usize,
    /// Latest observation time of any entry made so far, ns.
    max_at: u64,
    /// `(max_at then, stream position)` pairs, both ascending: every entry
    /// naming a record before the position was observed no later than the
    /// time, so once every tap is flushed past the time the records before
    /// the position have no entry left. About one pair per
    /// [`RECLAIM_GRAIN`] records, and one per flush for the records since
    /// the last pair.
    checkpoints: VecDeque<(u64, u64)>,
}

/// Records per reclamation checkpoint. A coarser grain frees records
/// later: the last-hop departures a delivery reports run ahead of the
/// watermark by that queue's residence, and a whole flush interval vouched
/// for by its latest entry would wait half a window more than most of its
/// records need. 16 bytes per 256 records is what the finer grain costs.
const RECLAIM_GRAIN: u64 = 256;

impl Records {
    /// Records ever made (the stream position the next one gets).
    #[inline]
    fn made(&self) -> u64 {
        self.base + self.fifo.len() as u64
    }

    /// Append a record only the calling tap will name (a mapped
    /// reference). Never a checkpoint: the event's shared record may lie
    /// before it with sharers still to come.
    #[inline]
    fn push_own(&mut self, rec: EventRecord) -> u64 {
        let pos = self.made();
        self.fifo.push_back(rec);
        self.peak = self.peak.max(self.fifo.len());
        pos
    }

    /// Append the record every tap buffering the current event shares.
    #[inline]
    fn push_shared(&mut self, rec: EventRecord) -> u64 {
        let pos = self.made();
        let last = self.checkpoints.back().map_or(self.base, |&(_, p)| p);
        if pos - last >= RECLAIM_GRAIN {
            // Every earlier record is an earlier event's, or a mapping
            // tap's own for this one: all their entries are made — and in
            // `max_at` — by now.
            self.checkpoints.push_back((self.max_at, pos));
        }
        self.push_own(rec)
    }

    /// An entry observing record `rec` at `at`. Every entry is made here,
    /// which is what lets `max_at` vouch for all of them.
    #[inline]
    fn entry(&mut self, at: SimTime, truth: Option<SimDuration>, rec: u64) -> WindowEntry {
        self.max_at = self.max_at.max(at.as_nanos());
        let (has_truth, truth) = match truth {
            Some(d) => (ENTRY_HAS_TRUTH, d.as_nanos()),
            None => (0, 0),
        };
        WindowEntry {
            at: at.as_nanos(),
            truth,
            rec: rec | has_truth,
        }
    }

    /// The record `entry` names. An entry outliving its record is a bug in
    /// the reclamation rule, and panics here rather than read a neighbour.
    #[inline]
    fn get(&self, entry: &WindowEntry) -> &EventRecord {
        let pos = entry.rec & !ENTRY_HAS_TRUTH;
        let i = pos
            .checked_sub(self.base)
            .expect("window entry names a reclaimed record");
        &self.fifo[i as usize]
    }

    /// Called with every unordered tap flushed to `bound`, between events:
    /// free the front up to the last checkpoint whose entries all lay
    /// below `bound` — they were just fed, or freed earlier.
    fn reclaim(&mut self, bound: SimTime) {
        let made = self.made();
        if self.checkpoints.back().is_none_or(|&(_, pos)| pos < made) {
            self.checkpoints.push_back((self.max_at, made));
        }
        let mut free_to = self.base;
        while let Some(&(max_at, pos)) = self.checkpoints.front() {
            if max_at >= bound.as_nanos() {
                break;
            }
            free_to = pos;
            self.checkpoints.pop_front();
        }
        self.fifo.drain(..(free_to - self.base) as usize);
        self.base = free_to;
    }
}

/// One hop event on its way through the taps at its point: the tie every
/// observation of it carries, and the record they share — made by the
/// first tap that buffers it, so an event nobody buffers costs nothing.
struct EventSlot {
    tie: u64,
    rec: Option<u64>,
}

impl EventSlot {
    fn new(tie: u64) -> Self {
        EventSlot { tie, rec: None }
    }

    /// The event's shared record, made from the tie on first use.
    #[inline]
    fn shared(&mut self, records: &mut Records, make: impl FnOnce(u64) -> EventRecord) -> u64 {
        let tie = self.tie;
        *self
            .rec
            .get_or_insert_with(|| records.push_shared(make(tie)))
    }
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
    /// the window under [`DrainMode::Streaming`]; the whole run under the
    /// oracle, which never flushes before [`MeasurementPlane::finish`].
    run: Run,
    point: TapPoint,
    /// Observations with `at` below this are late (window too small).
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
        runs.push(&mut self.run, entry);
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
    /// Metered packets that died downstream after being observed.
    dropped_metered: u64,
    /// Per-epoch downstream deaths (epoch index → count).
    drops_by_epoch: FxHashMap<u64, u64>,
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

/// What [`MeasurementPlane::admit`] decided about one observation.
enum Admission {
    /// Lost, late or shed: counted, nothing to store.
    Refused,
    /// An ordered tap: feed the receiver now.
    Ordered,
    /// Append to the tap's run.
    Buffered,
}

/// Plane-wide pending-observation accounting (streaming drain only): the
/// live total across every tap's reorder window, and its high-water mark —
/// what the global [`PlaneConfig::pending_budget`] bounds.
#[derive(Debug, Clone, Copy, Default)]
struct PendingTotals {
    pending: usize,
    peak: usize,
}

/// One tenant's live budget state (see [`TenantId`]).
#[derive(Debug, Clone, Copy)]
struct TenantState {
    id: TenantId,
    weight: u64,
    /// This tenant's guaranteed slice of the plane-wide cap:
    /// `cap × weight / Σweights` (recomputed at attach/weight change).
    share: usize,
    /// Live buffered observations across the tenant's taps (references
    /// included, mirroring the plane-wide total).
    pending: usize,
    peak_pending: usize,
    /// Regular observations that reached the admission decision.
    offered: u64,
    /// Regulars admitted into a reorder window.
    admitted: u64,
    /// Regulars shed (per-tap cap or budget hierarchy).
    shed: u64,
}

impl TenantState {
    fn new(id: TenantId) -> Self {
        TenantState {
            id,
            weight: 1,
            share: 0,
            pending: 0,
            peak_pending: 0,
            offered: 0,
            admitted: 0,
            shed: 0,
        }
    }
}

/// Final output of one tap.
pub struct TapReport {
    /// The tap's name.
    pub name: String,
    /// Where it sat.
    pub point: TapPoint,
    /// The reference stream it was bound to.
    pub sender: SenderId,
    /// Receiver output: dense per-flow table, counters, per-epoch series,
    /// optional per-packet log.
    pub report: ReceiverReport,
    /// High-water mark of observations buffered for this tap — O(reorder
    /// window) under [`DrainMode::Streaming`], O(run) under the oracle.
    pub peak_pending: usize,
    /// Observations that arrived after their reorder window was already
    /// flushed (counted, never fed out of order). Nonzero means the
    /// configured window is narrower than the workload's real reordering.
    pub late: u64,
    /// Regular observations shed by the per-window buffer cap
    /// ([`TapSpec::max_buffer`]); also counted as unestimated in the
    /// receiver's (per-epoch) counters.
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
    /// Completed [`FaultKind::TapDown`] transitions this tap absorbed.
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
    /// [`PlaneConfig::epoch`] was set).
    pub fn epochs(&self) -> &[EpochSnapshot] {
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

/// Final per-tenant budget accounting (see [`TenantId`]).
#[derive(Debug, Clone, Copy)]
pub struct TenantReport {
    /// The tenant id.
    pub id: TenantId,
    /// Its configured weight.
    pub weight: u64,
    /// Its guaranteed share of the plane-wide cap (0 when no budget was
    /// configured).
    pub share: usize,
    /// Regular observations that reached the admission decision.
    pub offered: u64,
    /// Regulars admitted into a reorder window. Per tenant,
    /// `admitted + shed == offered`.
    pub admitted: u64,
    /// Regulars shed by per-tap caps or the budget hierarchy.
    pub shed: u64,
    /// High-water mark of this tenant's buffered observations.
    pub peak_pending: usize,
}

/// The reorder runs' block pool at one instant
/// ([`MeasurementPlane::window_pool`]). Blocks in use are `blocks − free`,
/// and equal Σ ⌈[`MeasurementPlane::pending`] / `block_entries`⌉ over the
/// taps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowPool {
    /// Entries per block.
    pub block_entries: usize,
    /// Blocks the pool has made — it never gives one back.
    pub blocks: usize,
    /// Of those, blocks no run holds.
    pub free: usize,
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
    /// High-water mark of pending observations summed across **all** taps
    /// (streaming drain only; zero under the buffered-sort oracle) — the
    /// quantity [`PlaneConfig::pending_budget`] bounds, and the soak
    /// harness's flat-memory witness alongside the engine's
    /// `peak_live_slots`.
    pub peak_pending_total: usize,
    /// Event records made: one per hop event that at least one tap
    /// buffered (plus one per reference a [`TapSpec::ref_map`] tap
    /// buffered). Buffered observations ÷ this is how many taps shared a
    /// record — what the record / entry split of the window pays off by.
    /// Diagnostic, in both drain modes.
    pub records_made: u64,
    /// High-water mark of event records held at once — O(reorder window)
    /// under [`DrainMode::Streaming`], `records_made` under the oracle.
    pub peak_records: usize,
}

impl PlaneReport {
    /// Segment observations of every tap that produced scored estimates,
    /// in tap order — the localizer's input.
    pub fn segments(&self) -> Vec<SegmentObservation> {
        self.taps.iter().filter_map(|t| t.segment()).collect()
    }

    /// Fabric-wide localization: rank hops whose estimated latency stands
    /// out from the fabric median (descending severity).
    pub fn localize(&self, cfg: &LocalizerConfig) -> Vec<AnomalyFinding> {
        localize(&self.segments(), cfg)
    }

    /// Per-epoch localization: rank segments within every epoch that has
    /// estimates, yielding anomaly **onset** (first flagged epoch), not
    /// just whole-run presence. Empty unless the plane ran with epochs.
    pub fn localize_epochs(&self, cfg: &LocalizerConfig) -> Vec<EpochFindings> {
        let Some(epoch_ns) = self.epoch_ns else {
            return Vec::new();
        };
        let series: Vec<(&str, &[EpochSnapshot])> = self
            .taps
            .iter()
            .map(|t| (t.name.as_str(), t.epochs()))
            .collect();
        localize_epoch_series(&series, epoch_ns, cfg)
    }

    /// Highest per-tap buffered-observation high-water mark — the quantity
    /// the streaming refactor bounds to O(reorder window).
    pub fn max_peak_pending(&self) -> usize {
        self.taps.iter().map(|t| t.peak_pending).max().unwrap_or(0)
    }

    /// Regular observations shed across every tap (per-tap caps plus the
    /// global [`PlaneConfig::pending_budget`]).
    pub fn total_shed(&self) -> u64 {
        self.taps.iter().map(|t| t.shed).sum()
    }
}

/// Rank segments per epoch from named epoch series — the epoch-level
/// counterpart of [`localize`], shared by [`PlaneReport::localize_epochs`]
/// and the experiment harnesses that carry per-segment series in their
/// outcomes. Epochs with fewer than two estimating segments produce no
/// findings (no baseline to compare against).
pub fn localize_epoch_series(
    series: &[(&str, &[EpochSnapshot])],
    epoch_ns: u64,
    cfg: &LocalizerConfig,
) -> Vec<EpochFindings> {
    let lo = series
        .iter()
        .filter_map(|(_, s)| s.first().map(|e| e.epoch))
        .min();
    let hi = series
        .iter()
        .filter_map(|(_, s)| s.last().map(|e| e.epoch))
        .max();
    let (Some(lo), Some(hi)) = (lo, hi) else {
        return Vec::new();
    };
    (lo..=hi)
        .filter_map(|epoch| {
            let segs: Vec<SegmentObservation> = series
                .iter()
                .filter_map(|(name, s)| {
                    let snap = snapshot_at(s, epoch).filter(|e| e.estimated > 0)?;
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

/// Candidate crossing code: the tap observed the packet at the event
/// itself, not at one of its recorded hops. Sorts before every hop.
const AT_EVENT: u32 = 0;

/// Synthetic node ids for the two-switch tandem feed
/// ([`MeasurementPlane::observe_tandem`]).
pub const TANDEM_SW1: NodeId = 0;
/// Second (bottleneck) tandem switch — where tandem deliveries happen.
pub const TANDEM_SW2: NodeId = 1;

/// Attachable RLI taps over the engine's hop-event stream. Implements
/// [`HopSink`], so a plane *is* the sink argument of
/// [`rlir_sim::run_network_with`].
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
    /// Last watermark seen from the engine.
    watermark: SimTime,
    /// Next watermark at which the streaming drain scans the taps
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
    /// Routing indices: which taps observe each point. Built at attach
    /// time so an event consults only its matching taps — O(matches), not
    /// O(taps) — which is what lets an all-ports deployment scale.
    live_arrival: FxHashMap<NodeId, Vec<u32>>,
    live_departure: FxHashMap<(NodeId, PortId), Vec<u32>>,
    gated_arrival: FxHashMap<NodeId, Vec<u32>>,
    gated_departure: FxHashMap<(NodeId, PortId), Vec<u32>>,
    deliver_at: FxHashMap<NodeId, Vec<u32>>,
    /// Reused candidate buffer for multi-index events (deliver/drop):
    /// `(tap, crossing)`, the crossing being [`AT_EVENT`] or one more than
    /// the index of the matching hop.
    scratch: Vec<(u32, u32)>,
}

impl<'a> MeasurementPlane<'a> {
    /// An empty plane with the default configuration (streaming drain,
    /// default reorder window, no epochs).
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

    /// Set a tenant's budget weight (creating the tenant if unseen) and
    /// recompute every tenant's guaranteed share. Taps register their
    /// tenant at [`attach`](MeasurementPlane::attach) with weight 1; call
    /// this before or after attaching to skew the split. Shares divide
    /// [`PlaneConfig::pending_budget`] as `cap × weight / Σweights`
    /// (integer floor, so Σshares ≤ cap and borrowing headroom exists).
    pub fn set_tenant_weight(&mut self, tenant: TenantId, weight: u64) {
        let slot = self.tenant_slot(tenant);
        self.tenants[slot].weight = weight.max(1);
        self.recompute_shares();
    }

    /// The tenant's slot in first-seen order, creating it at weight 1.
    fn tenant_slot(&mut self, tenant: TenantId) -> usize {
        if let Some(i) = self.tenants.iter().position(|t| t.id == tenant) {
            return i;
        }
        self.tenants.push(TenantState::new(tenant));
        self.recompute_shares();
        self.tenants.len() - 1
    }

    fn recompute_shares(&mut self) {
        let Some(cap) = self.cfg.pending_budget else {
            return;
        };
        let total: u64 = self.tenants.iter().map(|t| t.weight).sum();
        if total == 0 {
            return;
        }
        for t in &mut self.tenants {
            t.share = ((cap as u64).saturating_mul(t.weight) / total) as usize;
        }
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
                record_estimates: false,
                epoch_ns: self.cfg.epoch_ns(),
            };
            match spec.track_quantile {
                Some(p) => RliReceiver::with_quantile(cfg, p),
                None => RliReceiver::new(cfg),
            }
        };
        self.has_live_taps |= !spec.delivered_only;
        let idx = tap_index(self.taps.len());
        // Route the tap: which event lookups reach it (mirrors the match
        // arms in `on_hop` exactly; `Delivery` taps observe deliveries at
        // their node regardless of the delivered_only flag).
        match (spec.delivered_only, spec.point) {
            (_, TapPoint::Delivery(n)) => self.deliver_at.entry(n).or_default().push(idx),
            (false, TapPoint::NodeArrival(n)) => self.live_arrival.entry(n).or_default().push(idx),
            (false, TapPoint::PortDeparture(n, p)) => {
                self.live_departure.entry((n, p)).or_default().push(idx)
            }
            (true, TapPoint::NodeArrival(n)) => self.gated_arrival.entry(n).or_default().push(idx),
            (true, TapPoint::PortDeparture(n, p)) => {
                self.gated_departure.entry((n, p)).or_default().push(idx)
            }
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
            drops_by_epoch: FxHashMap::default(),
            resume_epoch: None,
            lost_window_obs: 0,
            outages: 0,
        });
        self.taps.len() - 1
    }

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

    /// The per-epoch snapshots tap `idx` has produced *so far* — a
    /// streaming consumer can read the series mid-run, before
    /// [`MeasurementPlane::finish`].
    pub fn epoch_series(&self, idx: usize) -> &[EpochSnapshot] {
        self.cold[idx].rx.epoch_snapshots()
    }

    /// Feed one tandem-pipeline delivery (the two-switch topology of
    /// Fig. 3) as a hop event: switch 1 is [`TANDEM_SW1`], deliveries
    /// happen at [`TANDEM_SW2`]. Deliveries arrive in delivery-time order,
    /// so this feed self-advances the watermark, and a single
    /// [`TapPoint::Delivery`]`(TANDEM_SW2)` tap may set
    /// [`TapSpec::ordered`] and stream with no buffering at all.
    pub fn observe_tandem(&mut self, d: &Delivery) {
        if d.delivered_at > self.watermark {
            self.on_watermark(d.delivered_at);
        }
        let hop_buf;
        let hops: &[Hop] = match d.sw1_egress {
            Some(egress) => {
                hop_buf = [Hop {
                    node: TANDEM_SW1,
                    port: 0,
                    arrived: d.sent_at,
                    departed: egress,
                }];
                &hop_buf
            }
            None => &[],
        };
        let injected_node = if d.sw1_egress.is_some() {
            TANDEM_SW1
        } else {
            TANDEM_SW2
        };
        self.on_hop(&HopEvent {
            kind: HopKind::Deliver,
            node: TANDEM_SW2,
            at: d.delivered_at,
            packet: &d.packet,
            injected_node,
            injected_at: d.sent_at,
            hops,
        });
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
                    cold.spec.ref_map.as_ref().and_then(|f| f(info))
                } else {
                    Some(*info)
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
                        tap.push(runs, records.entry(at, None, rec))
                    }
                }
            }
            None if ev.packet.is_regular() => {
                if tap.has_meter && !cold.spec.meter.as_ref().is_some_and(|m| m(ev)) {
                    return;
                }
                let truth = match tap.truth {
                    TruthKind::NoTruth => None,
                    TruthKind::SinceInjection => Some(at.saturating_since(ev.injected_at)),
                    TruthKind::SinceArrivalAt => match &cold.spec.truth {
                        TruthRef::SinceArrivalAt(nodes) => ev
                            .hops
                            .iter()
                            .find(|h| nodes.contains(&h.node))
                            .map(|h| at.saturating_since(h.arrived)),
                        _ => None,
                    },
                };
                let flow = &ev.packet.flow;
                match Self::admit(tap, cold, cfg, totals, tenants, at, true) {
                    Admission::Refused => {}
                    Admission::Ordered => cold.rx.on_regular(at, *flow, truth),
                    Admission::Buffered => {
                        let rec = slot.shared(records, |tie| EventRecord::regular(tie, id, flow));
                        tap.push(runs, records.entry(at, truth, rec))
                    }
                }
            }
            // Cross traffic is invisible to the measurement plane.
            None => {}
        }
    }

    /// Decide what happens to an observation the tap's meter / reference
    /// map let through, and keep the books of whatever is refused.
    #[inline]
    fn admit(
        tap: &mut HotTap,
        cold: &mut ColdTap<'a>,
        cfg: PlaneConfig,
        totals: &mut PendingTotals,
        tenants: &mut [TenantState],
        at: SimTime,
        regular: bool,
    ) -> Admission {
        if tap.down {
            // The measurement instance is crashed: the crossing happened,
            // nothing observed it. Accounted, never estimated.
            cold.lost_window_obs += 1;
            return Admission::Refused;
        }
        if at < tap.resume_at {
            // Recovered mid-epoch: discard until the resume boundary so
            // the cold restart produces clean whole-epoch snapshots.
            cold.lost_window_obs += 1;
            return Admission::Refused;
        }
        if tap.ordered {
            return Admission::Ordered;
        }
        // Admission is the streaming drain's business: the oracle is
        // O(run) by design, never flushes (so nothing is ever late) and
        // keeps no plane-wide books.
        if let DrainMode::Streaming { .. } = cfg.drain {
            if at < tap.flushed_to {
                // The window for this observation time already closed:
                // feeding it would hand the receiver time-travelling
                // input. Count it and move on.
                cold.late += 1;
                return Admission::Refused;
            }
            let slot = tap.tenant_slot as usize;
            if regular {
                tenants[slot].offered += 1;
                // Hierarchical budget: a tenant under its guaranteed
                // share is always admitted; one at-or-over its share may
                // borrow free headroom only while every other tenant's
                // unused share stays reserved — so Σ(admissions) never
                // exceeds the cap and no flood can displace a guaranteed
                // share. With one tenant, share == cap and the rule is
                // bit-identical to the flat `pending >= budget` check.
                let over_budget = cfg.pending_budget.is_some_and(|cap| {
                    tenants[slot].pending >= tenants[slot].share && {
                        let reserved: usize = tenants
                            .iter()
                            .map(|t| t.share.saturating_sub(t.pending))
                            .sum();
                        totals.pending + reserved >= cap
                    }
                });
                if tap.run.len() >= tap.max_buffer || over_budget {
                    // Per-window cap or exhausted budget share: shed the
                    // observation but keep the books honest — it was seen
                    // at the point and will never be estimated. References
                    // are always admitted (see TapSpec docs).
                    cold.shed += 1;
                    tenants[slot].shed += 1;
                    cold.rx.on_shed(at);
                    return Admission::Refused;
                }
                tenants[slot].admitted += 1;
            }
            totals.pending += 1;
            totals.peak = totals.peak.max(totals.pending);
            let t = &mut tenants[slot];
            t.pending += 1;
            t.peak_pending = t.peak_pending.max(t.pending);
        }
        Admission::Buffered
    }

    /// Gather the tap's run out of the pool, sort it into `(at, tie, id)`
    /// order and feed its receiver everything strictly below `bound`
    /// (`None`: everything) as one batch; what stays behind goes back to
    /// the pool as the sorted tail the next flush extends.
    fn flush_tap(
        tap: &mut HotTap,
        cold: &mut ColdTap<'a>,
        totals: &mut PendingTotals,
        tenants: &mut [TenantState],
        records: &Records,
        runs: &mut Runs,
        bound: Option<SimTime>,
    ) {
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
                match records.get(obs).payload(obs.truth()) {
                    Payload::Reference(info) => cold.rx.on_reference(at, &info),
                    Payload::Regular { flow, truth } => cold.rx.on_regular(at, flow, truth),
                }
            }
            runs.refill(&mut tap.run, n);
            totals.pending = totals.pending.saturating_sub(n);
            let t = &mut tenants[tap.tenant_slot as usize];
            t.pending = t.pending.saturating_sub(n);
        }
        if let Some(b) = bound {
            tap.flushed_to = tap.flushed_to.max(b);
        }
    }

    /// The streaming drain's scan, every half window of watermark: flush
    /// every unordered tap to `watermark − window`, then free the event
    /// records nothing names any more. Out of line: the engine calls
    /// [`HopSink::on_watermark`] per event, and all but one call in
    /// thousands is the two compares in front of this.
    #[inline(never)]
    fn flush_windows(&mut self, watermark: SimTime, reorder_window: SimDuration) {
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

    /// Count a metered packet of a live tap that died downstream after
    /// crossing the tap at `at`.
    fn note_drop(cold: &mut ColdTap<'a>, epoch_ns: Option<u64>, at: SimTime) {
        cold.dropped_metered += 1;
        if let Some(e) = epoch_ns {
            *cold.drops_by_epoch.entry(at.as_nanos() / e).or_insert(0) += 1;
        }
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
            self.runs.release(&mut tap.run, |_| {});
            let destroyed = cold.rx.reset_cold();
            cold.lost_window_obs += freed as u64 + destroyed;
            // Saturating: the oracle keeps no plane-wide books to debit.
            self.totals.pending = self.totals.pending.saturating_sub(freed);
            let t = &mut self.tenants[tap.tenant_slot as usize];
            t.pending = t.pending.saturating_sub(freed);
        }
    }

    /// Recover every downed tap at `node`, cold: estimation resumes at
    /// the next epoch boundary at-or-after `at` (at `at` itself when the
    /// plane runs without epochs), so the restarted instance produces
    /// clean whole-epoch snapshots that merge into its pre-crash series
    /// via the ordinary [`EpochSnapshot`] machinery. Observations between
    /// `at` and the boundary are counted in
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

    /// Point-in-time plane-wide epoch view: merge every tap's per-epoch
    /// snapshots produced *so far* into one series (dense union of the
    /// epoch ranges), without stopping the run — the snapshot-query a
    /// collector polls against a live fabric. Empty unless
    /// [`PlaneConfig::epoch`] is set.
    pub fn snapshot_epochs(&self) -> Vec<EpochSnapshot> {
        let Some(epoch_ns) = self.cfg.epoch_ns() else {
            return Vec::new();
        };
        let slices: Vec<&[EpochSnapshot]> =
            self.cold.iter().map(|t| t.rx.epoch_snapshots()).collect();
        merge_epoch_series(&slices, epoch_ns)
    }

    /// Mid-run per-epoch localization over the snapshots produced so far
    /// (see [`PlaneReport::localize_epochs`] for the post-run variant).
    /// Empty unless the plane runs with epochs.
    pub fn localize_now(&self, cfg: &LocalizerConfig) -> Vec<EpochFindings> {
        let Some(epoch_ns) = self.cfg.epoch_ns() else {
            return Vec::new();
        };
        let series: Vec<(&str, &[EpochSnapshot])> = self
            .cold
            .iter()
            .map(|t| (t.spec.name.as_str(), t.rx.epoch_snapshots()))
            .collect();
        localize_epoch_series(&series, epoch_ns, cfg)
    }

    /// Approximate bytes of plane hot state right now, the plane's term of
    /// the ledger's `peak_state_bytes`: every tap's flow table at its
    /// *allocated capacity* ([`rlir_rli::FlowTable::approx_bytes`]: rows,
    /// index cells, tail references and trackers, capacity × element
    /// size — what the allocator holds for the table, to the byte) plus
    /// its run's window entries at their *length*, plus the event records
    /// those entries share, also at their length. O(taps) — neither the
    /// pool nor the FIFO is walked.
    /// Not counted: the pool's block slack (the unused end of each run's
    /// tail block, at most taps × `BLOCK` entries, and the free blocks),
    /// the flush scratch, the receivers' interpolation buffers, the epoch
    /// series, the FIFO's capacity beyond its length, and anything
    /// transient — a [`rlir_rli::FlowTable::report`] in progress is no
    /// state.
    /// Diagnostic — the fleet harness's sublinearity witness, not an
    /// allocator.
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

    /// How the reorder runs' block pool stands right now (see the module
    /// docs). Diagnostic, like
    /// [`approx_state_bytes`](MeasurementPlane::approx_state_bytes).
    pub fn window_pool(&self) -> WindowPool {
        WindowPool {
            block_entries: BLOCK,
            blocks: self.runs.next.len(),
            free: self.runs.free.len(),
        }
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
        let tenants = self
            .tenants
            .iter()
            .map(|t| TenantReport {
                id: t.id,
                weight: t.weight,
                share: t.share,
                offered: t.offered,
                admitted: t.admitted,
                shed: t.shed,
                peak_pending: t.peak_pending,
            })
            .collect();
        let taps = self
            .taps
            .into_iter()
            .zip(self.cold)
            .map(|(hot, t)| {
                let mut report = t.rx.finish();
                if let (Some(e), false) = (epoch_ns, t.drops_by_epoch.is_empty()) {
                    // Join the plane's downstream-death counts into the
                    // receiver's epoch series (dense union of the ranges).
                    let mut drop_epochs: Vec<EpochSnapshot> = t
                        .drops_by_epoch
                        .iter()
                        .map(|(&epoch, &count)| {
                            let mut s = EpochSnapshot::empty(epoch, e);
                            s.dropped_after_metering = count;
                            s
                        })
                        .collect();
                    drop_epochs.sort_by_key(|s| s.epoch);
                    report.epochs = merge_epoch_series(&[&report.epochs, &drop_epochs], e);
                }
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
            tenants,
            epoch_ns,
            peak_pending_total,
            records_made: self.records.made(),
            peak_records: self.records.peak,
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
        self.watermark = watermark;
        let DrainMode::Streaming { reorder_window } = self.cfg.drain else {
            return;
        };
        if watermark >= self.next_flush {
            self.flush_windows(watermark, reorder_window);
        }
    }

    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        match ev.kind {
            HopKind::Arrive => {
                if !self.has_live_taps {
                    return; // every tap is delivered-gated: nothing to do
                }
                self.live_seq += 1;
                let mut slot = EventSlot::new(self.live_seq);
                if let Some(idxs) = self.live_arrival.get(&ev.node) {
                    for &i in idxs {
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
            }
            HopKind::Dequeue { port, .. } => {
                if !self.has_live_taps {
                    return;
                }
                self.live_seq += 1;
                let mut slot = EventSlot::new(self.live_seq);
                if let Some(idxs) = self.live_departure.get(&(ev.node, port)) {
                    for &i in idxs {
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
            }
            HopKind::Deliver => {
                let mut slot = EventSlot::new(ev.at.as_nanos());
                // Candidates from the routing indices, each with the
                // crossing that matched; sorted by tap id and deduplicated
                // on it, they come out in attachment order with the first
                // matching hop of each.
                let mut cand = std::mem::take(&mut self.scratch);
                cand.clear();
                if let Some(v) = self.deliver_at.get(&ev.node) {
                    cand.extend(v.iter().map(|&t| (t, AT_EVENT)));
                }
                for (h, crossing) in ev.hops.iter().zip(AT_EVENT + 1..) {
                    if let Some(v) = self.gated_arrival.get(&h.node) {
                        cand.extend(v.iter().map(|&t| (t, crossing)));
                    }
                    if let Some(v) = self.gated_departure.get(&(h.node, h.port)) {
                        cand.extend(v.iter().map(|&t| (t, crossing)));
                    }
                }
                cand.sort_unstable();
                cand.dedup_by_key(|c| c.0);
                for &(i, crossing) in &cand {
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
                self.scratch = cand;
            }
            // Drop events carry the live taps' drop-awareness: a packet
            // that dies here was already *observed* by every live tap it
            // crossed upstream — those estimates must be accounted, not
            // silently folded into delivered-only statistics.
            HopKind::QueueDrop { .. } | HopKind::RouteDrop => {
                if !self.has_live_taps || !ev.packet.is_regular() {
                    return;
                }
                let epoch_ns = self.cfg.epoch_ns();
                let mut cand = std::mem::take(&mut self.scratch);
                cand.clear();
                // The drop node itself counts: arrival there precedes the
                // fatal queue. Upstream crossings come from the hops.
                if let Some(v) = self.live_arrival.get(&ev.node) {
                    cand.extend(v.iter().map(|&t| (t, AT_EVENT)));
                }
                for (h, crossing) in ev.hops.iter().zip(AT_EVENT + 1..) {
                    if let Some(v) = self.live_arrival.get(&h.node) {
                        cand.extend(v.iter().map(|&t| (t, crossing)));
                    }
                    if let Some(v) = self.live_departure.get(&(h.node, h.port)) {
                        cand.extend(v.iter().map(|&t| (t, crossing)));
                    }
                }
                cand.sort_unstable();
                cand.dedup_by_key(|c| c.0);
                for &(i, crossing) in &cand {
                    let i = i as usize;
                    let tap = &self.taps[i];
                    if tap.down {
                        // A crashed instance never observed the crossing;
                        // there is no estimate to attribute the death to.
                        continue;
                    }
                    if tap.has_meter && !self.cold[i].spec.meter.as_ref().is_some_and(|m| m(ev)) {
                        continue;
                    }
                    // Where (and when) this live tap observed the dying
                    // packet.
                    let at = crossing_time(tap.point, crossing, ev);
                    Self::note_drop(&mut self.cold[i], epoch_ns, at);
                }
                self.scratch = cand;
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rlir_net::packet::Packet;
    use std::net::Ipv4Addr;

    fn fk(i: u8) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, i),
            1,
            Ipv4Addr::new(10, 1, 0, 1),
            80,
        )
    }

    fn deliver_ev<'e>(
        packet: &'e Packet,
        hops: &'e [Hop],
        node: NodeId,
        at_ns: u64,
    ) -> HopEvent<'e> {
        HopEvent {
            kind: HopKind::Deliver,
            node,
            at: SimTime::from_nanos(at_ns),
            packet,
            injected_node: 0,
            injected_at: packet.created_at,
            hops,
        }
    }

    #[test]
    fn delivery_tap_estimates_and_scores_against_injection_truth() {
        let mut plane = MeasurementPlane::new();
        plane.attach(TapSpec::new("end", TapPoint::Delivery(2), SenderId(1)));
        let hops = [];
        let r0 = Packet::reference(10, fk(9), SenderId(1), 0, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&r0, &hops, 2, 100)); // delay 100
        let p = Packet::regular(11, fk(1), 700, SimTime::from_nanos(40));
        plane.on_hop(&deliver_ev(&p, &hops, 2, 150)); // truth 110
        let r1 = Packet::reference(12, fk(9), SenderId(1), 1, SimTime::from_nanos(60));
        plane.on_hop(&deliver_ev(&r1, &hops, 2, 200)); // delay 140
        let rep = plane.finish();
        assert_eq!(rep.taps.len(), 1);
        let flows = &rep.taps[0].report.flows;
        let acc = flows.get(&fk(1)).expect("metered");
        // left 100@100, right 140@200 → estimate at 150 = 120; truth 110.
        assert_eq!(acc.est.mean(), Some(120.0));
        assert_eq!(acc.truth.mean(), Some(110.0));
        let seg = rep.taps[0].segment().expect("scored");
        assert_eq!(seg.packets, 1);
    }

    #[test]
    fn delivered_only_node_tap_reconstructs_hop_crossings() {
        let mut plane = MeasurementPlane::new();
        let mut spec = TapSpec::new("mid", TapPoint::NodeArrival(1), SenderId(1));
        spec.truth = TruthRef::SinceInjection;
        spec.delivered_only = true;
        plane.attach(spec);
        // Packet injected at t=0, arrives node 1 at t=500, delivered 900.
        let hops = [
            Hop {
                node: 0,
                port: 0,
                arrived: SimTime::ZERO,
                departed: SimTime::from_nanos(400),
            },
            Hop {
                node: 1,
                port: 0,
                arrived: SimTime::from_nanos(500),
                departed: SimTime::from_nanos(800),
            },
        ];
        let r0 = Packet::reference(1, fk(9), SenderId(1), 0, SimTime::ZERO);
        let rhops = [Hop {
            node: 1,
            port: 0,
            arrived: SimTime::from_nanos(100),
            departed: SimTime::from_nanos(150),
        }];
        plane.on_hop(&deliver_ev(&r0, &rhops, 2, 400)); // seen at node1 @100, delay 100
        let p = Packet::regular(2, fk(1), 700, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&p, &hops, 2, 900)); // seen at node1 @500, truth 500
        let r1 = Packet::reference(3, fk(9), SenderId(1), 1, SimTime::from_nanos(500));
        let rhops1 = [Hop {
            node: 1,
            port: 0,
            arrived: SimTime::from_nanos(700),
            departed: SimTime::from_nanos(750),
        }];
        plane.on_hop(&deliver_ev(&r1, &rhops1, 2, 1000)); // seen @700, delay 200
        let rep = plane.finish();
        let acc = rep.taps[0].report.flows.get(&fk(1)).expect("metered");
        // left 100@100, right 200@700 → at 500: 100 + 100·(400/600) ≈ 166.67
        let est = acc.est.mean().unwrap();
        assert!((est - 166.666).abs() < 0.01, "est {est}");
        assert_eq!(acc.truth.mean(), Some(500.0));
        assert_eq!(rep.taps[0].dropped_metered, 0, "delivered-gated taps");
    }

    #[test]
    fn meter_and_ref_map_gate_the_tap() {
        let mut plane = MeasurementPlane::new();
        let mut spec = TapSpec::new("gated", TapPoint::Delivery(2), SenderId(7));
        // Only meter flow fk(1); rewrite every reference to sender 7.
        spec.meter = Some(Box::new(|ev| ev.packet.flow == fk(1)));
        spec.ref_map = Some(Box::new(|info| {
            Some(ReferenceInfo {
                sender: SenderId(7),
                ..*info
            })
        }));
        plane.attach(spec);
        let hops = [];
        let r0 = Packet::reference(1, fk(9), SenderId(3), 0, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&r0, &hops, 2, 100));
        let keep = Packet::regular(2, fk(1), 700, SimTime::ZERO);
        let drop = Packet::regular(3, fk(2), 700, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&keep, &hops, 2, 150));
        plane.on_hop(&deliver_ev(&drop, &hops, 2, 160));
        let r1 = Packet::reference(4, fk(9), SenderId(3), 1, SimTime::from_nanos(100));
        plane.on_hop(&deliver_ev(&r1, &hops, 2, 200));
        let rep = plane.finish();
        let report = &rep.taps[0].report;
        assert_eq!(report.counters.refs_accepted, 2, "rewritten refs accepted");
        assert_eq!(report.counters.estimated, 1, "only fk(1) metered");
        assert!(report.flows.get(&fk(2)).is_none());
    }

    #[test]
    fn buffered_taps_sort_by_time_then_delivery_order() {
        // Observations arrive out of delivery order (as Deliver events do);
        // the drain must reorder by (at, delivered, id) — in both modes.
        for drain in [DrainMode::default(), DrainMode::BufferedSort] {
            let mut plane = MeasurementPlane::with_config(PlaneConfig {
                drain,
                ..PlaneConfig::default()
            });
            let mut spec = TapSpec::new("mid", TapPoint::NodeArrival(1), SenderId(1));
            spec.truth = TruthRef::NoTruth;
            spec.delivered_only = true;
            plane.attach(spec);
            let hop_at = |ns: u64| {
                [Hop {
                    node: 1,
                    port: 0,
                    arrived: SimTime::from_nanos(ns),
                    departed: SimTime::from_nanos(ns + 10),
                }]
            };
            // Regular seen at node1 @150 but delivered late (at 900).
            let p = Packet::regular(5, fk(1), 700, SimTime::ZERO);
            let h = hop_at(150);
            let late = deliver_ev(&p, &h, 2, 900);
            // References bracket it, delivered earlier.
            let r0 = Packet::reference(1, fk(9), SenderId(1), 0, SimTime::ZERO);
            let h0 = hop_at(100);
            let r1 = Packet::reference(2, fk(9), SenderId(1), 1, SimTime::from_nanos(60));
            let h1 = hop_at(200);
            // Feed in "wrong" order: closing ref first.
            plane.on_hop(&deliver_ev(&r1, &h1, 2, 300));
            plane.on_hop(&late);
            plane.on_hop(&deliver_ev(&r0, &h0, 2, 250));
            let rep = plane.finish();
            let report = &rep.taps[0].report;
            assert_eq!(report.counters.estimated, 1, "packet bracketed after sort");
            // left delay 100@100, right delay 140@200 → at 150: 120.
            let acc = report.flows.get(&fk(1)).expect("metered");
            assert_eq!(acc.est.mean(), Some(120.0));
            assert_eq!(rep.taps[0].late, 0);
        }
    }

    #[test]
    fn two_live_taps_see_different_hops_of_one_event_stream() {
        let mut plane = MeasurementPlane::new();
        for node in [0usize, 1] {
            let mut spec =
                TapSpec::new(format!("n{node}"), TapPoint::NodeArrival(node), SenderId(1));
            spec.ordered = true;
            spec.truth = TruthRef::SinceInjection;
            plane.attach(spec);
        }
        fn arrive(packet: &Packet, node: NodeId, at_ns: u64) -> HopEvent<'_> {
            HopEvent {
                kind: HopKind::Arrive,
                node,
                at: SimTime::from_nanos(at_ns),
                packet,
                injected_node: 0,
                injected_at: packet.created_at,
                hops: &[],
            }
        }
        let r0 = Packet::reference(1, fk(9), SenderId(1), 0, SimTime::ZERO);
        let p = Packet::regular(2, fk(1), 700, SimTime::ZERO);
        let r1 = Packet::reference(3, fk(9), SenderId(1), 1, SimTime::from_nanos(100));
        // Node 0 sees everything early, node 1 sees it all 500 ns later.
        for (node, shift) in [(0usize, 0u64), (1, 500)] {
            plane.on_hop(&arrive(&r0, node, 10 + shift));
            plane.on_hop(&arrive(&p, node, 20 + shift));
            plane.on_hop(&arrive(&r1, node, 110 + shift));
        }
        let rep = plane.finish();
        assert_eq!(rep.taps.len(), 2);
        let m0 = rep.taps[0].report.flows.get(&fk(1)).unwrap().est.mean();
        let m1 = rep.taps[1].report.flows.get(&fk(1)).unwrap().est.mean();
        assert!(m1.unwrap() > m0.unwrap() + 400.0, "{m0:?} vs {m1:?}");
    }

    /// Build an Arrive event at `node`.
    fn arrive_ev<'e>(packet: &'e Packet, node: NodeId, at_ns: u64) -> HopEvent<'e> {
        HopEvent {
            kind: HopKind::Arrive,
            node,
            at: SimTime::from_nanos(at_ns),
            packet,
            injected_node: 0,
            injected_at: packet.created_at,
            hops: &[],
        }
    }

    #[test]
    fn watermark_streams_estimates_before_finish() {
        // The tentpole behaviour: with the watermark advancing, a live tap
        // produces per-epoch results *during* the run, bounded memory.
        let mut plane = MeasurementPlane::with_config(PlaneConfig {
            drain: DrainMode::Streaming {
                reorder_window: SimDuration::from_nanos(500),
            },
            epoch: Some(SimDuration::from_nanos(1_000)),
            ..PlaneConfig::default()
        });
        let idx = plane.attach(TapSpec::new("live", TapPoint::NodeArrival(0), SenderId(1)));
        let r0 = Packet::reference(1, fk(9), SenderId(1), 0, SimTime::ZERO);
        let p = Packet::regular(2, fk(1), 700, SimTime::ZERO);
        let r1 = Packet::reference(3, fk(9), SenderId(1), 1, SimTime::from_nanos(100));
        plane.on_watermark(SimTime::from_nanos(100));
        plane.on_hop(&arrive_ev(&r0, 0, 100));
        plane.on_hop(&arrive_ev(&p, 0, 150));
        plane.on_hop(&arrive_ev(&r1, 0, 240));
        // Watermark far past the window: everything flushes, the estimate
        // exists mid-run.
        plane.on_watermark(SimTime::from_nanos(5_000));
        let estimated: u64 = plane.epoch_series(idx).iter().map(|e| e.estimated).sum();
        assert_eq!(estimated, 1, "estimate must be produced before finish");
        let rep = plane.finish();
        assert_eq!(rep.taps[0].report.counters.estimated, 1);
        assert_eq!(rep.taps[0].late, 0);
        assert!(rep.taps[0].peak_pending <= 3);
    }

    #[test]
    fn late_observations_are_counted_not_fed() {
        let mut plane = MeasurementPlane::with_config(PlaneConfig {
            drain: DrainMode::Streaming {
                reorder_window: SimDuration::from_nanos(10),
            },
            epoch: None,
            ..PlaneConfig::default()
        });
        let mut spec = TapSpec::new("mid", TapPoint::NodeArrival(1), SenderId(1));
        spec.delivered_only = true;
        plane.attach(spec);
        let hop = [Hop {
            node: 1,
            port: 0,
            arrived: SimTime::from_nanos(100),
            departed: SimTime::from_nanos(110),
        }];
        // Watermark sprints ahead: window for t=100 closes at 110.
        plane.on_watermark(SimTime::from_nanos(10_000));
        let p = Packet::regular(5, fk(1), 700, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&p, &hop, 2, 10_000)); // seen @100: late
        let rep = plane.finish();
        assert_eq!(rep.taps[0].late, 1);
        assert_eq!(rep.taps[0].report.counters.regulars_seen, 0);
    }

    #[test]
    fn window_cap_sheds_regulars_but_admits_references() {
        let mut plane = MeasurementPlane::with_config(PlaneConfig {
            drain: DrainMode::default(),
            epoch: Some(SimDuration::from_nanos(100)),
            ..PlaneConfig::default()
        });
        let mut spec = TapSpec::new("capped", TapPoint::NodeArrival(0), SenderId(1));
        spec.max_buffer = 2;
        plane.attach(spec);
        let r0 = Packet::reference(1, fk(9), SenderId(1), 0, SimTime::ZERO);
        plane.on_hop(&arrive_ev(&r0, 0, 100));
        let regs: Vec<Packet> = (0..4)
            .map(|i| Packet::regular(10 + i, fk(1), 700, SimTime::ZERO))
            .collect();
        for (i, p) in regs.iter().enumerate() {
            plane.on_hop(&arrive_ev(p, 0, 110 + i as u64));
        }
        // The closing reference exceeds the cap but must be admitted.
        let r1 = Packet::reference(9, fk(9), SenderId(1), 1, SimTime::from_nanos(100));
        plane.on_hop(&arrive_ev(&r1, 0, 200));
        let rep = plane.finish();
        let tap = &rep.taps[0];
        assert_eq!(tap.shed, 3, "cap 2: ref + 1 regular fit, 3 shed");
        assert_eq!(tap.report.counters.refs_accepted, 2);
        assert_eq!(tap.report.counters.estimated, 1);
        // Shed observations are honest per-epoch unestimated counts.
        assert_eq!(tap.report.counters.regulars_seen, 4);
        assert_eq!(tap.report.counters.unestimated, 3);
        let epoch1 = &tap.report.epochs[0];
        assert_eq!(epoch1.epoch, 1);
        assert_eq!(epoch1.unestimated, 3);
    }

    #[test]
    fn live_tap_counts_downstream_deaths_per_epoch() {
        let mut plane = MeasurementPlane::with_config(PlaneConfig {
            drain: DrainMode::default(),
            epoch: Some(SimDuration::from_nanos(1_000)),
            ..PlaneConfig::default()
        });
        plane.attach(TapSpec::new("live", TapPoint::NodeArrival(0), SenderId(1)));
        let r0 = Packet::reference(1, fk(9), SenderId(1), 0, SimTime::ZERO);
        let p1 = Packet::regular(2, fk(1), 700, SimTime::ZERO);
        let p2 = Packet::regular(3, fk(1), 700, SimTime::ZERO);
        let r1 = Packet::reference(4, fk(9), SenderId(1), 1, SimTime::from_nanos(200));
        plane.on_hop(&arrive_ev(&r0, 0, 100));
        plane.on_hop(&arrive_ev(&p1, 0, 150));
        plane.on_hop(&arrive_ev(&p2, 0, 160));
        plane.on_hop(&arrive_ev(&r1, 0, 300));
        // p2 dies downstream at node 1, having crossed node 0 at t=160.
        let crossed = [Hop {
            node: 0,
            port: 0,
            arrived: SimTime::from_nanos(160),
            departed: SimTime::from_nanos(170),
        }];
        plane.on_hop(&HopEvent {
            kind: HopKind::QueueDrop { port: 0 },
            node: 1,
            at: SimTime::from_nanos(260),
            packet: &p2,
            injected_node: 0,
            injected_at: SimTime::ZERO,
            hops: &crossed,
        });
        let rep = plane.finish();
        let tap = &rep.taps[0];
        // Both regulars were estimated — the tap is live.
        assert_eq!(tap.report.counters.estimated, 2);
        assert_eq!(tap.dropped_metered, 1);
        let epoch0 = tap
            .report
            .epochs
            .iter()
            .find(|e| e.epoch == 0)
            .expect("epoch 0 exists");
        assert_eq!(epoch0.dropped_after_metering, 1);
        assert_eq!(epoch0.estimated, 2);
    }

    #[test]
    fn epoch_localization_ranks_segments_per_epoch() {
        // Three delivery taps; tap "bad" spikes only in epoch 1 (so the
        // per-epoch median stays anchored by the two healthy segments).
        let mut plane = MeasurementPlane::with_config(PlaneConfig {
            drain: DrainMode::default(),
            epoch: Some(SimDuration::from_nanos(10_000)),
            ..PlaneConfig::default()
        });
        for (name, node) in [("good-a", 2usize), ("good-b", 3), ("bad", 4)] {
            let mut spec = TapSpec::new(name, TapPoint::Delivery(node), SenderId(1));
            spec.truth = TruthRef::NoTruth;
            plane.attach(spec);
        }
        // One epoch of one tap: a reference bracket with the given path
        // delay, all deliveries inside [epoch_base, epoch_base + 10 µs).
        let mut id = 100u64;
        let mut feed_epoch = |node: NodeId, epoch_base: u64, delay: u64| {
            let tx0 = epoch_base + 100 - delay.min(epoch_base + 100);
            let r0 = Packet::reference(id, fk(9), SenderId(1), 0, SimTime::from_nanos(tx0));
            id += 1;
            plane.on_hop(&deliver_ev(&r0, &[], node, epoch_base + 100));
            for k in 0..12u64 {
                let p = Packet::regular(id, fk(1), 700, SimTime::from_nanos(epoch_base));
                id += 1;
                plane.on_hop(&deliver_ev(&p, &[], node, epoch_base + 200 + k * 20));
            }
            let tx1 = epoch_base + 500 - delay;
            let r1 = Packet::reference(id, fk(9), SenderId(1), 1, SimTime::from_nanos(tx1));
            id += 1;
            plane.on_hop(&deliver_ev(&r1, &[], node, epoch_base + 500));
        };
        for node in [2usize, 3, 4] {
            feed_epoch(node, 0, 100); // epoch 0: everyone healthy
        }
        feed_epoch(2, 10_000, 100);
        feed_epoch(3, 10_000, 100);
        feed_epoch(4, 10_000, 4_000); // the epoch-1 anomaly
        let rep = plane.finish();
        let cfg = LocalizerConfig {
            factor: 3.0,
            min_packets: 5,
        };
        let epochs = rep.localize_epochs(&cfg);
        let flagged: Vec<(u64, &str)> = epochs
            .iter()
            .flat_map(|e| e.findings.iter().map(move |f| (e.epoch, f.name.as_str())))
            .collect();
        assert_eq!(
            flagged,
            vec![(1, "bad")],
            "exactly the epoch-1 anomaly must be flagged"
        );
        assert_eq!(epochs[1].start.as_nanos(), 10_000);
    }

    #[test]
    fn epoch_localization_on_offset_and_gapped_series_matches_a_linear_scan() {
        // Series that start at different epochs and skip some: the lookup
        // must find exactly the snapshots a per-epoch linear scan finds.
        let snap = |epoch: u64, est: f64| {
            let mut s = EpochSnapshot::empty(epoch, 1_000);
            for _ in 0..10 {
                s.est.push(est);
            }
            s.estimated = 10;
            s
        };
        let a = vec![snap(3, 100.0), snap(4, 100.0), snap(7, 100.0)];
        let b = vec![snap(4, 110.0), snap(5, 90.0), snap(7, 105.0)];
        let c = vec![snap(5, 95.0), snap(6, 100.0), snap(7, 2_000.0)];
        let series: Vec<(&str, &[EpochSnapshot])> =
            vec![("a", &a), ("b", &b), ("c", &c), ("d", &[])];
        let cfg = LocalizerConfig {
            factor: 3.0,
            min_packets: 5,
        };
        let got = localize_epoch_series(&series, 1_000, &cfg);
        let render = |e: &EpochFindings| {
            let names: Vec<&str> = e.findings.iter().map(|f| f.name.as_str()).collect();
            (e.epoch, e.start.as_nanos(), names.join(","))
        };
        let want: Vec<(u64, u64, String)> = (3..=7u64)
            .map(|epoch| {
                let segs: Vec<SegmentObservation> = series
                    .iter()
                    .filter_map(|(name, s)| {
                        let snap = s.iter().find(|e| e.epoch == epoch)?;
                        Some(SegmentObservation {
                            name: (*name).to_string(),
                            est_mean_ns: snap.est_mean()?,
                            true_mean_ns: f64::NAN,
                            packets: snap.estimated,
                        })
                    })
                    .collect();
                let names: Vec<String> =
                    localize(&segs, &cfg).into_iter().map(|f| f.name).collect();
                (epoch, epoch * 1_000, names.join(","))
            })
            .collect();
        assert_eq!(got.iter().map(render).collect::<Vec<_>>(), want);
        assert_eq!(want[4].2, "c", "the epoch-7 outlier must be the finding");
    }

    /// A delivered-gated `NodeArrival(node)` tap scoring nothing.
    fn gated_tap(name: &str, node: NodeId) -> TapSpec<'static> {
        let mut spec = TapSpec::new(name, TapPoint::NodeArrival(node), SenderId(1));
        spec.truth = TruthRef::NoTruth;
        spec.delivered_only = true;
        spec
    }

    fn crossed(node: NodeId, at_ns: u64) -> Hop {
        Hop {
            node,
            port: 0,
            arrived: SimTime::from_nanos(at_ns),
            departed: SimTime::from_nanos(at_ns),
        }
    }

    fn streaming(window_ns: u64) -> PlaneConfig {
        PlaneConfig {
            drain: DrainMode::Streaming {
                reorder_window: SimDuration::from_nanos(window_ns),
            },
            ..PlaneConfig::default()
        }
    }

    #[test]
    fn equal_time_equal_delivery_ties_feed_in_packet_id_order() {
        // Two references cross the tap at the same instant and are
        // delivered at the same instant: only the packet id orders them.
        // The receiver interpolates from the one fed last, so the estimate
        // tells which that was — and must not depend on which delivery the
        // engine happened to report first (the order their records land in).
        for drain in [DrainMode::default(), DrainMode::BufferedSort] {
            for first_reported in [3u64, 9] {
                let mut plane = MeasurementPlane::with_config(PlaneConfig {
                    drain,
                    ..PlaneConfig::default()
                });
                plane.attach(gated_tap("mid", 1));
                // id 3 took 200 ns to the tap, id 9 took 100 ns.
                let tx = |id: u64| SimTime::from_nanos(if id == 3 { 0 } else { 100 });
                let both_at = [crossed(1, 200)];
                for id in [first_reported, 12 - first_reported] {
                    let r = Packet::reference(id, fk(9), SenderId(1), id as u32, tx(id));
                    plane.on_hop(&deliver_ev(&r, &both_at, 2, 500));
                }
                let p = Packet::regular(20, fk(1), 700, SimTime::ZERO);
                plane.on_hop(&deliver_ev(&p, &[crossed(1, 250)], 2, 600));
                let close = Packet::reference(21, fk(9), SenderId(1), 30, SimTime::from_nanos(200));
                plane.on_hop(&deliver_ev(&close, &[crossed(1, 300)], 2, 700));
                let rep = plane.finish();
                let acc = rep.taps[0].report.flows.get(&fk(1)).expect("metered");
                // Fed 3 then 9: left is 9's 100 ns @200, right 100 ns @300.
                assert_eq!(
                    acc.est.mean(),
                    Some(100.0),
                    "{drain:?}, id {first_reported} reported first"
                );
                assert_eq!(rep.records_made, 4);
            }
        }
    }

    #[test]
    fn several_taps_share_one_record_and_a_mapped_reference_gets_its_own() {
        let mut plane = MeasurementPlane::new();
        for node in [1, 2, 3] {
            plane.attach(gated_tap("shared", node));
        }
        let mut mapped = gated_tap("mapped", 3);
        mapped.ref_map = Some(Box::new(|info| Some(*info)));
        plane.attach(mapped);
        let path = [crossed(1, 100), crossed(2, 200), crossed(3, 300)];
        let entry = std::mem::size_of::<WindowEntry>();
        let record = std::mem::size_of::<EventRecord>();
        let empty = plane.approx_state_bytes();

        let p = Packet::regular(1, fk(1), 700, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&p, &path, 9, 400));
        assert_eq!(
            plane.records.made(),
            1,
            "four taps, one regular: one record"
        );
        assert_eq!(plane.approx_state_bytes(), empty + 4 * entry + record);

        let r = Packet::reference(2, fk(9), SenderId(1), 0, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&r, &path, 9, 500));
        assert_eq!(plane.records.made(), 3, "the mapping tap keeps its own");
        assert_eq!(plane.approx_state_bytes(), empty + 8 * entry + 3 * record);

        let rep = plane.finish();
        assert_eq!((rep.records_made, rep.peak_records), (3, 3));
        for tap in &rep.taps {
            assert_eq!(tap.report.counters.refs_accepted, 1);
            assert_eq!(tap.report.counters.regulars_seen, 1);
        }
    }

    #[test]
    fn filtered_and_refused_observations_make_no_record() {
        let mut plane = MeasurementPlane::with_config(streaming(100));
        let mut metered = gated_tap("metered", 1);
        metered.meter = Some(Box::new(|ev| ev.packet.flow != fk(2)));
        metered.ref_map = Some(Box::new(|_| None));
        plane.attach(metered);
        let mut full = gated_tap("full", 2);
        full.max_buffer = 0;
        plane.attach(full);
        plane.attach(gated_tap("crashed", 3));
        plane.tap_down(SimTime::ZERO, 3);
        plane.on_watermark(SimTime::from_nanos(10_000));
        let before = plane.approx_state_bytes();

        let unmetered = Packet::regular(1, fk(2), 700, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&unmetered, &[crossed(1, 9_990)], 9, 10_000));
        let unmapped = Packet::reference(2, fk(9), SenderId(1), 0, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&unmapped, &[crossed(1, 9_990)], 9, 10_000));
        let late = Packet::regular(3, fk(1), 700, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&late, &[crossed(1, 50)], 9, 10_000));
        let shed = Packet::regular(4, fk(1), 700, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&shed, &[crossed(2, 9_990)], 9, 10_000));
        let lost = Packet::regular(5, fk(1), 700, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&lost, &[crossed(3, 9_990)], 9, 10_000));

        assert_eq!(plane.approx_state_bytes(), before);
        let rep = plane.finish();
        assert_eq!((rep.records_made, rep.peak_records), (0, 0));
        assert_eq!(
            (
                rep.taps[0].late,
                rep.taps[1].shed,
                rep.taps[2].lost_window_obs
            ),
            (1, 1, 1)
        );
    }

    #[test]
    fn peak_records_track_the_window_not_the_run() {
        // One delivery every 100 ns that crossed two taps 250 and 150 ns
        // earlier, the watermark on its heels.
        let run = |deliveries: u64| {
            let mut plane = MeasurementPlane::with_config(streaming(1_000));
            plane.attach(gated_tap("a", 1));
            plane.attach(gated_tap("b", 2));
            for i in 0..deliveries {
                let now = 1_000 + i * 100;
                plane.on_watermark(SimTime::from_nanos(now));
                let p = Packet::regular(i, fk(1), 700, SimTime::ZERO);
                let path = [crossed(1, now - 250), crossed(2, now - 150)];
                plane.on_hop(&deliver_ev(&p, &path, 9, now));
            }
            let rep = plane.finish();
            assert_eq!(rep.taps[0].late + rep.taps[1].late, 0);
            (rep.records_made, rep.peak_records, rep.peak_pending_total)
        };
        let (made, peak, pending) = run(400);
        let (made_10x, peak_10x, pending_10x) = run(4_000);
        assert_eq!((made, made_10x), (400, 4_000));
        assert_eq!(peak, peak_10x);
        assert_eq!(pending, pending_10x);
        // 1.5 windows of deliveries plus the half-window flush grain.
        assert!((10..=21).contains(&peak), "peak records {peak}");
    }

    #[test]
    fn entries_just_ahead_of_the_watermark_do_not_cost_half_a_window_of_records() {
        // A delivery is reported when the packet joins its last queue, so
        // the last hop's departure runs a little ahead of the watermark. A
        // checkpoint per flush alone would be vouched for by a time just
        // past that flush's watermark, and wait for the next flush but one.
        let (window, spacing, ahead) = (100_000u64, 10u64, 50u64);
        let mut plane = MeasurementPlane::with_config(streaming(window));
        let mut egress = gated_tap("last-hop", 1);
        egress.point = TapPoint::PortDeparture(1, 0);
        plane.attach(egress);
        for i in 0..60_000u64 {
            let now = window + i * spacing;
            plane.on_watermark(SimTime::from_nanos(now));
            let p = Packet::regular(i, fk(1), 700, SimTime::ZERO);
            plane.on_hop(&deliver_ev(&p, &[crossed(1, now + ahead)], 9, now + ahead));
        }
        let rep = plane.finish();
        assert_eq!(rep.taps[0].late, 0);
        // One and a half windows of deliveries, plus the grain.
        let bound = (window + window / 2 + ahead) / spacing + 2 * RECLAIM_GRAIN;
        assert!(
            (rep.peak_records as u64) < bound,
            "peak records {} over {bound}",
            rep.peak_records
        );
        // One tap: a record per entry, freed at most a grain later.
        assert!(rep.peak_records as u64 <= rep.peak_pending_total as u64 + RECLAIM_GRAIN);
    }

    #[test]
    fn departures_ahead_of_the_watermark_hold_their_records() {
        // A live egress tap hears of a departure when the packet is
        // dequeued, stamped with the time its last bit will have left: up
        // to 3 windows past the watermark here, so flushes come and go
        // while the entry waits. Its record must wait with it — and the
        // records of the gated tap's deliveries queued behind it.
        let outcome = |drain: DrainMode| {
            let mut plane = MeasurementPlane::with_config(PlaneConfig {
                drain,
                ..PlaneConfig::default()
            });
            let mut live = TapSpec::new("egress", TapPoint::PortDeparture(1, 0), SenderId(1));
            live.truth = TruthRef::SinceInjection;
            plane.attach(live);
            plane.attach(gated_tap("mid", 2));
            for i in 0..600u64 {
                let now = 1_000 + i * 50;
                plane.on_watermark(SimTime::from_nanos(now));
                let ahead = (i * 7 % 13) * 100;
                let packet = if i % 10 == 0 {
                    Packet::reference(i, fk(9), SenderId(1), i as u32, SimTime::from_nanos(now))
                } else {
                    Packet::regular(i, fk((i % 3) as u8), 700, SimTime::from_nanos(now))
                };
                plane.on_hop(&HopEvent {
                    kind: HopKind::Dequeue {
                        port: 0,
                        arrived: SimTime::from_nanos(now),
                    },
                    node: 1,
                    at: SimTime::from_nanos(now + ahead),
                    packet: &packet,
                    injected_node: 0,
                    injected_at: packet.created_at,
                    hops: &[],
                });
                plane.on_hop(&deliver_ev(&packet, &[crossed(2, now - 30)], 9, now));
            }
            let rep = plane.finish();
            let taps: Vec<_> = rep
                .taps
                .iter()
                .map(|t| {
                    let c = t.report.counters;
                    let est = t.report.flows.aggregate_est_mean().map(f64::to_bits);
                    (c.refs_accepted, c.estimated, est, t.late)
                })
                .collect();
            (taps, rep.records_made, rep.peak_records)
        };
        let window = DrainMode::Streaming {
            reorder_window: SimDuration::from_nanos(400),
        };
        let (streamed, made, peak) = outcome(window);
        let (oracle, oracle_made, oracle_peak) = outcome(DrainMode::BufferedSort);
        assert_eq!(streamed, oracle);
        assert_eq!(streamed[0].3 + streamed[1].3, 0, "nothing may be late");
        assert_eq!((made, oracle_made, oracle_peak), (1_200, 1_200, 1_200));
        assert!(peak < 200, "records must still be reclaimed: peak {peak}");
    }

    #[test]
    fn a_crashed_taps_records_go_with_the_next_flush_past_them() {
        let mut plane = MeasurementPlane::with_config(streaming(100));
        plane.attach(gated_tap("crashes", 1));
        plane.attach(gated_tap("survives", 2));
        let empty = plane.approx_state_bytes();
        let entry = std::mem::size_of::<WindowEntry>();
        let record = std::mem::size_of::<EventRecord>();
        plane.on_watermark(SimTime::from_nanos(1_000));
        for i in 0..5u64 {
            let r = Packet::reference(i, fk(9), SenderId(1), i as u32, SimTime::ZERO);
            plane.on_hop(&deliver_ev(&r, &[crossed(1, 990 + i)], 9, 1_000));
        }
        let kept = Packet::reference(7, fk(9), SenderId(1), 7, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&kept, &[crossed(2, 2_000)], 9, 2_000));
        assert_eq!(plane.approx_state_bytes(), empty + 6 * (entry + record));
        plane.tap_down(SimTime::from_nanos(1_000), 1);
        // The entries are freed at once; the records wait for the sweep.
        assert_eq!(plane.approx_state_bytes(), empty + entry + 6 * record);
        // Flushed to 1 000: past the crashed tap's five, short of the sixth.
        plane.on_watermark(SimTime::from_nanos(1_100));
        assert_eq!(plane.records.fifo.len(), 6, "one checkpoint covers all six");
        let newer = Packet::reference(8, fk(9), SenderId(1), 8, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&newer, &[crossed(2, 2_000)], 9, 2_000));
        plane.on_watermark(SimTime::from_nanos(2_050));
        assert_eq!(plane.records.fifo.len(), 7);
        plane.on_watermark(SimTime::from_nanos(2_200));
        assert_eq!(plane.records.fifo.len(), 0);
        assert_eq!(plane.approx_state_bytes(), empty);
        let rep = plane.finish();
        assert_eq!(rep.taps[0].lost_window_obs, 5);
        assert_eq!(rep.taps[1].report.counters.refs_accepted, 2);
    }

    #[test]
    fn a_mapped_reference_between_two_sharers_does_not_free_their_record() {
        // One reference crosses a plain tap, a mapping tap and a second
        // plain tap. The mapping tap's own record lands between the first
        // sharer's entry and the second's — a checkpoint taken there would
        // vouch for the shared record with a time the second entry exceeds.
        let mut plane = MeasurementPlane::with_config(streaming(100));
        plane.attach(gated_tap("first", 1));
        let mut mapped = gated_tap("mapped", 2);
        mapped.ref_map = Some(Box::new(|info| Some(*info)));
        plane.attach(mapped);
        plane.attach(gated_tap("last", 3));
        plane.on_watermark(SimTime::from_nanos(1_000));
        // Fill the FIFO so the mapping tap's record is the one a grain ends on.
        for i in 0..RECLAIM_GRAIN - 1 {
            let p = Packet::regular(i, fk(1), 700, SimTime::ZERO);
            plane.on_hop(&deliver_ev(&p, &[crossed(1, 1_000)], 9, 1_000));
        }
        let r = Packet::reference(9_000, fk(9), SenderId(1), 0, SimTime::ZERO);
        let path = [crossed(1, 1_000), crossed(2, 1_000), crossed(3, 1_400)];
        plane.on_hop(&deliver_ev(&r, &path, 9, 1_400));
        assert_eq!(plane.records.made(), RECLAIM_GRAIN + 1);
        // Flushed to 1 200: past everything but the last tap's entry.
        plane.on_watermark(SimTime::from_nanos(1_300));
        assert_eq!(plane.pending(2), 1);
        plane.on_watermark(SimTime::from_nanos(2_000));
        let rep = plane.finish();
        for tap in &rep.taps {
            assert_eq!(tap.report.counters.refs_accepted, 1, "{}", tap.name);
        }
    }

    #[test]
    fn window_entry_is_24_bytes_and_event_record_32() {
        // Three words per tap and four per event: what
        // `plane.bytes_per_pending` and the 1.5-window bound on a run's
        // footprint are quoted against.
        assert_eq!(std::mem::size_of::<WindowEntry>(), 24);
        assert_eq!(std::mem::align_of::<WindowEntry>(), 8);
        assert_eq!(std::mem::size_of::<EventRecord>(), 32);
        assert_eq!(std::mem::align_of::<EventRecord>(), 8);
    }

    #[test]
    fn hot_tap_record_fits_two_cache_lines() {
        // Exact, not a ceiling: the run is a 12-byte pool handle where a
        // per-tap `Vec` took 24 (96 → 80 bytes), and an entry is three
        // words wherever it lives.
        assert_eq!(std::mem::size_of::<Run>(), 12);
        assert_eq!(std::mem::size_of::<HotTap>(), 80);
        assert_eq!(std::mem::size_of::<WindowEntry>(), 24);
    }

    #[test]
    fn handles_convert_checked_up_to_u32_max() {
        let max = u32::MAX as usize;
        assert_eq!(
            (tap_index(max), block_index(max), run_len(max)),
            (u32::MAX, u32::MAX, u32::MAX)
        );
    }

    #[test]
    #[should_panic(expected = "a plane routes at most 2^32 taps")]
    fn a_tap_index_past_u32_does_not_alias_tap_0() {
        tap_index(1 << 32);
    }

    #[test]
    #[should_panic(expected = "a window pool holds at most 2^32 blocks")]
    fn a_block_index_past_u32_does_not_wrap() {
        block_index(1 << 32);
    }

    #[test]
    #[should_panic(expected = "a reorder run holds at most 2^32 - 1 entries")]
    fn a_run_cannot_outgrow_its_length() {
        let mut run = Run {
            len: u32::MAX,
            ..Run::default()
        };
        Runs::default().push(&mut run, WindowEntry::default());
    }

    #[test]
    fn a_burst_takes_the_blocks_another_taps_flush_freed() {
        // Two taps burst in turn, each a window's worth of deliveries at a
        // time: the second burst reuses the first's blocks, so the pool is
        // one burst big, not two.
        let mut plane = MeasurementPlane::with_config(streaming(1_000));
        plane.attach(gated_tap("a", 1));
        plane.attach(gated_tap("b", 2));
        let burst = 3 * BLOCK as u64 + 5;
        let mut id = 0;
        for round in 0..4u64 {
            let now = 10_000 * (round + 1);
            let tap = round as usize % 2;
            plane.on_watermark(SimTime::from_nanos(now));
            for k in 0..burst {
                // Arrivals in reverse: the flush must sort them.
                let p = Packet::regular(id, fk(1), 700, SimTime::ZERO);
                id += 1;
                let hop = [crossed(1 + tap, now - 1 - k % 500)];
                plane.on_hop(&deliver_ev(&p, &hop, 9, now));
            }
            let pool = plane.window_pool();
            assert_eq!(plane.pending(tap), burst as usize);
            // Both in use and made: the other tap's blocks were reused.
            assert_eq!((pool.blocks, pool.free), (4, 0), "round {round}");
        }
        let rep = plane.finish();
        assert_eq!(rep.taps[0].late + rep.taps[1].late, 0);
        assert_eq!(rep.peak_pending_total, burst as usize);
    }

    /// Store `rec` behind `reclaimed` earlier records and one entry for
    /// it, and read back what a flush would feed: `(at, tie, id)` and the
    /// payload.
    fn round_trip(
        reclaimed: u64,
        rec: EventRecord,
        at: u64,
        truth: Option<SimDuration>,
    ) -> ((u64, u64, u64), Payload) {
        let mut records = Records {
            base: reclaimed,
            ..Records::default()
        };
        let pos = records.push_shared(rec);
        let entry = records.entry(SimTime::from_nanos(at), truth, pos);
        let stored = records.get(&entry);
        (
            (entry.at, stored.tie, stored.id),
            stored.payload(entry.truth()),
        )
    }

    proptest! {
        #[test]
        fn regular_entries_round_trip_every_flow_key_and_truth(
            addrs in (any::<u32>(), any::<u32>()),
            ports in (any::<u16>(), any::<u16>()),
            // 0 / 1: the named variants; otherwise `Other(n)` for every n,
            // the non-canonical `Other(6)` and `Other(17)` included.
            proto in (0u8..6, any::<u8>()),
            truth in 0u8..4,
            key in (any::<u64>(), any::<u64>(), any::<u64>()),
            // Every stream position an entry can name: 63 bits.
            reclaimed in 0u64..(1 << 63) - 1,
        ) {
            let proto = match proto {
                (0, _) => Protocol::Tcp,
                (1, _) => Protocol::Udp,
                (2, _) => Protocol::Other(6),
                (3, _) => Protocol::Other(17),
                (_, n) => Protocol::Other(n),
            };
            let flow = FlowKey {
                src: Ipv4Addr::from(addrs.0),
                dst: Ipv4Addr::from(addrs.1),
                proto,
                sport: ports.0,
                dport: ports.1,
            };
            // No value of the truth word means "absent": both ends of the
            // range are truths.
            let truth = match truth {
                0 => None,
                1 => Some(SimDuration::ZERO),
                2 => Some(SimDuration::from_nanos(u64::MAX)),
                _ => Some(SimDuration::from_nanos(key.2 ^ key.0)),
            };
            let (at, tie, id) = key;
            let got = round_trip(reclaimed, EventRecord::regular(tie, id, &flow), at, truth);
            prop_assert_eq!(got, (key, Payload::Regular { flow, truth }));
            // The derived equality tells `Other(6)` from `Tcp`; so must the
            // record.
            for named in [Protocol::Tcp, Protocol::Udp] {
                if proto != named {
                    let other = FlowKey { proto: named, ..flow };
                    let named = round_trip(reclaimed, EventRecord::regular(tie, id, &other), at, truth);
                    prop_assert_ne!(got.1, named.1);
                }
            }
        }

        #[test]
        fn reference_entries_round_trip_every_reference_info(
            sender in any::<u16>(),
            seq in any::<u32>(),
            tx in any::<u64>(),
            key in (any::<u64>(), any::<u64>(), any::<u64>()),
            reclaimed in 0u64..(1 << 63) - 1,
        ) {
            let info = ReferenceInfo {
                sender: SenderId(sender),
                seq,
                tx_timestamp: SimTime::from_nanos(tx),
            };
            let (at, tie, id) = key;
            let got = round_trip(reclaimed, EventRecord::reference(tie, id, &info), at, None);
            prop_assert_eq!(got, (key, Payload::Reference(info)));
        }
    }
}
