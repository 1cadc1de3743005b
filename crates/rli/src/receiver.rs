//! The RLI receiver.
//!
//! §2: the receiver computes true delays of reference packets from their
//! embedded timestamps and its own synchronised clock, holds regular packets
//! that arrive between two reference packets in an *interpolation buffer*,
//! and, when the closing reference arrives, estimates every buffered
//! packet's delay by linear interpolation and folds it into per-flow
//! statistics.
//!
//! The receiver is demultiplexing-aware in the minimal RLI sense: it is
//! bound to one sender id and ignores reference packets from other senders
//! (RLIR's full demultiplexer in the `rlir` crate decides which *regular*
//! packets to hand to which receiver instance).

use crate::epoch::{EpochCounter, EpochSeries};
use crate::flowstats::FlowTable;
use crate::interpolate::{DelaySample, Interpolator};
use rlir_net::clock::ClockModel;
use rlir_net::fxhash::FxBuildHasher;
use rlir_net::packet::{Packet, ReferenceInfo, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use std::hash::BuildHasher;

/// Receiver configuration.
#[derive(Debug, Clone, Copy)]
pub struct ReceiverConfig {
    /// Accept reference packets only from this sender.
    pub sender: SenderId,
    /// The receiver's local clock.
    pub clock: ClockModel,
    /// Delay estimator (the paper uses linear interpolation).
    pub interpolator: Interpolator,
    /// Safety cap on the interpolation buffer; packets beyond it are counted
    /// as unestimated rather than growing memory without bound (e.g. if the
    /// reference stream dies).
    pub max_buffer: usize,
    /// Width of the epoch window in nanoseconds: the receiver additionally
    /// aggregates into an [`EpochSeries`] keyed by observation
    /// time, the bounded-size export a deployed instance would stream off
    /// the router each epoch. `None` (the default) disables the epoch
    /// dimension. Enabling it never perturbs the cumulative per-flow table
    /// or counters — snapshots are an *additional* view.
    pub epoch_ns: Option<u64>,
}

impl ReceiverConfig {
    /// Standard configuration for a sender id: perfect clock, linear
    /// interpolation, 1M-packet buffer cap, no epochs.
    pub fn for_sender(sender: SenderId) -> Self {
        ReceiverConfig {
            sender,
            clock: ClockModel::perfect(),
            interpolator: Interpolator::Linear,
            max_buffer: 1 << 20,
            epoch_ns: None,
        }
    }
}

/// Receiver-side counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReceiverCounters {
    /// Reference packets accepted from the bound sender.
    pub refs_accepted: u64,
    /// Reference packets from other senders (ignored).
    pub refs_foreign: u64,
    /// Regular packets offered to the receiver.
    pub regulars_seen: u64,
    /// Per-packet estimates produced.
    pub estimated: u64,
    /// Regular packets that could not be estimated (before the first
    /// reference, after the last, or over the buffer cap).
    pub unestimated: u64,
    /// Packets (regular, shed or reference) observed more than
    /// [`MAX_EPOCH_GAP`](crate::epoch::MAX_EPOCH_GAP) epochs outside the epoch
    /// series — one wild timestamp must not size a dense series. They count
    /// in every other counter and in the per-flow table as usual, and
    /// appear in no epoch. Always zero without epochs.
    pub outside_epochs: u64,
    /// Accepted references `r` that break the FIFO pair law against the
    /// one before, `l`: `D_r − D_l > a_r − a_l`, arrivals on the receiver's
    /// clock (so only sender-clock jitter is slack). References sharing
    /// every FIFO queue of a segment never do; a count means
    /// mis-association, a path change or queues the two do not share.
    pub ref_inversions: u64,
    /// The largest `(D_r − D_l) − (a_r − a_l)` of an inversion, ns.
    pub max_inversion_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    at: SimTime,
    flow: rlir_net::FlowKey,
    /// Whether `at` has an epoch in the epoch series (decided once, on
    /// arrival, so an epoch's `regulars_seen` and `estimated` agree).
    in_epochs: bool,
    truth_ns: Option<f64>,
}

/// An RLI receiver instance.
///
/// Generic over the per-flow table's hash builder (see [`FlowTable`]);
/// defaults to FxHash for the simulation hot path.
#[derive(Debug, Clone)]
pub struct RliReceiver<S: BuildHasher = FxBuildHasher> {
    cfg: ReceiverConfig,
    left: Option<DelaySample>,
    buffer: Vec<Pending>,
    flows: FlowTable<S>,
    counters: ReceiverCounters,
    /// Empty and never written without [`ReceiverConfig::epoch_ns`].
    epochs: EpochSeries,
}

impl<S: BuildHasher + Default> RliReceiver<S> {
    /// Build from configuration.
    pub fn new(cfg: ReceiverConfig) -> Self {
        RliReceiver {
            cfg,
            left: None,
            buffer: Vec::new(),
            flows: FlowTable::new(),
            counters: ReceiverCounters::default(),
            epochs: cfg.epoch_ns.map(EpochSeries::new).unwrap_or_default(),
        }
    }

    /// Build with a per-flow quantile tracker enabled (see
    /// [`FlowTable::with_quantile`]).
    pub fn with_quantile(cfg: ReceiverConfig, p: f64) -> Self {
        RliReceiver {
            flows: FlowTable::with_quantile(p),
            ..Self::new(cfg)
        }
    }

    /// The bound sender.
    pub fn sender(&self) -> SenderId {
        self.cfg.sender
    }

    /// Current counters.
    pub fn counters(&self) -> ReceiverCounters {
        self.counters
    }

    /// Offer a packet arriving at the receiver's interface at (true) time
    /// `at`. `truth` is the simulator's ground-truth delay for evaluation
    /// (`None` in deployment). Dispatches on packet kind.
    pub fn on_packet(&mut self, at: SimTime, pkt: &Packet, truth: Option<SimDuration>) {
        match pkt.reference_info() {
            Some(info) => self.on_reference(at, &info),
            None => {
                if pkt.is_regular() {
                    self.on_regular(at, pkt.flow, truth);
                }
                // Cross traffic is invisible to the measurement plane.
            }
        }
    }

    /// A regular packet arrived: buffer it for interpolation.
    pub fn on_regular(&mut self, at: SimTime, flow: rlir_net::FlowKey, truth: Option<SimDuration>) {
        if !self.bracketed() {
            // Before the first reference there is no bracket; RLI cannot
            // estimate these packets.
            self.book_unestimable(at);
            return;
        }
        self.counters.regulars_seen += 1;
        let in_epochs = self.arrive(at, EpochCounter::RegularSeen);
        if self.buffer.len() >= self.cfg.max_buffer {
            self.count_unestimated(at, in_epochs);
            return;
        }
        self.buffer.push(Pending {
            at,
            flow,
            in_epochs,
            truth_ns: truth.map(|d| d.as_nanos() as f64),
        });
    }

    /// Whether a reference from the bound sender has opened a bracket: until
    /// one has, [`on_regular`](Self::on_regular) books a packet exactly as
    /// [`book_unestimable`](Self::book_unestimable) does.
    #[inline]
    pub fn bracketed(&self) -> bool {
        self.left.is_some()
    }

    /// First touch of a packet observed at `at`: bump `counter` in its
    /// epoch, or book the packet as outside the series. Returns whether it
    /// has an epoch (never, without epochs).
    #[inline]
    fn arrive(&mut self, at: SimTime, counter: EpochCounter) -> bool {
        if self.cfg.epoch_ns.is_none() {
            return false;
        }
        let inside = self.epochs.count(at, counter);
        self.counters.outside_epochs += u64::from(!inside);
        inside
    }

    /// A reference packet arrived: if it is ours, close the current
    /// interpolation interval and estimate everything buffered inside it.
    pub fn on_reference(&mut self, at: SimTime, info: &ReferenceInfo) {
        if info.sender != self.cfg.sender {
            self.counters.refs_foreign += 1;
            return;
        }
        self.counters.refs_accepted += 1;
        self.arrive(at, EpochCounter::RefAccepted);
        let rx_local = self.cfg.clock.observe(at);
        let delay_ns = rx_local.signed_delta_nanos(info.tx_timestamp) as f64;
        let right = DelaySample::new(at, delay_ns);
        if let Some(left) = self.left {
            // The pair law, both arrivals read on the receiver's clock.
            let gap = rx_local.signed_delta_nanos(self.cfg.clock.observe(left.at));
            let excess = right.delay_ns - left.delay_ns - gap as f64;
            if excess > 0.0 {
                self.counters.ref_inversions += 1;
                let excess = excess as u64;
                self.counters.max_inversion_ns = self.counters.max_inversion_ns.max(excess);
            }
            // One slope division per interval; one multiply-add per packet.
            let segment = self.cfg.interpolator.segment(left, right);
            for p in self.buffer.drain(..) {
                let est = segment.estimate_at(p.at);
                self.flows.record(p.flow, est, p.truth_ns);
                // The estimate belongs to the epoch the packet crossed
                // the observation point in, not the closing ref's.
                if p.in_epochs {
                    self.epochs.estimate(p.at, est, p.truth_ns);
                }
                self.counters.estimated += 1;
            }
        } else {
            debug_assert!(self.buffer.is_empty(), "buffered without a left ref");
        }
        self.left = Some(right);
    }

    /// Book a regular packet observed at `at` that will never be estimated
    /// as seen-but-unestimated, in `at`'s epoch: one the *caller* shed
    /// before the receiver could buffer it (e.g. a bounded reorder window
    /// overflowing upstream of the receiver) — the books stay honest even
    /// when memory pressure drops observations — or one offered before
    /// the receiver is [`bracketed`](Self::bracketed), which a caller can
    /// book this way without decoding its flow key and truth.
    #[inline]
    pub fn book_unestimable(&mut self, at: SimTime) {
        self.counters.regulars_seen += 1;
        let in_epochs = self.arrive(at, EpochCounter::RegularSeen);
        self.count_unestimated(at, in_epochs);
    }

    /// Book a packet observed at `at` that died downstream of the
    /// observation point, in `at`'s epoch — a receiver cannot see the death
    /// itself, its caller can. Nothing to book without epochs, or when `at`
    /// lies outside the series bound.
    pub fn on_downstream_drop(&mut self, at: SimTime) {
        if self.cfg.epoch_ns.is_some() {
            self.epochs.count(at, EpochCounter::DroppedAfterMetering);
        }
    }

    /// Give back interpolation-buffer capacity beyond its length. The
    /// buffer peaks inside a batch of observations; a caller feeding many
    /// receivers in batches calls this after each, so no receiver keeps
    /// its own all-time peak.
    pub fn trim_buffer(&mut self) {
        self.buffer.shrink_to_fit();
    }

    fn count_unestimated(&mut self, at: SimTime, in_epochs: bool) {
        self.counters.unestimated += 1;
        if in_epochs {
            self.epochs.count(at, EpochCounter::Unestimated);
        }
    }

    /// Crash-restart the estimator cold, as if the receiver process died
    /// and a fresh instance re-attached at the same point.
    ///
    /// Estimator *state* is discarded: the open interpolation bracket, the
    /// pending buffer (each buffered packet is counted seen-but-unestimated
    /// in its own epoch, so the books stay balanced) and the per-flow table
    /// (rebuilt empty with the same quantile configuration). The
    /// *accounting* — cumulative counters and the epoch series — survives,
    /// because it is the external record of what happened, not the crashed
    /// instance's memory. Returns how many buffered observations the crash
    /// destroyed.
    pub fn reset_cold(&mut self) -> u64 {
        let dropped = self.buffer.len() as u64;
        for p in std::mem::take(&mut self.buffer) {
            self.count_unestimated(p.at, p.in_epochs);
        }
        self.left = None;
        self.flows = match self.flows.quantile_p() {
            Some(p) => FlowTable::with_quantile(p),
            None => FlowTable::new(),
        };
        dropped
    }

    /// Finish the run: packets still buffered after the last reference are
    /// unestimable. Returns the per-flow table and final counters.
    pub fn finish(mut self) -> ReceiverReport<S> {
        for p in std::mem::take(&mut self.buffer) {
            self.count_unestimated(p.at, p.in_epochs);
        }
        ReceiverReport {
            flows: self.flows,
            counters: self.counters,
            epochs: self.epochs,
        }
    }

    /// Borrow the per-flow table accumulated so far.
    pub fn flows(&self) -> &FlowTable<S> {
        &self.flows
    }

    /// The epoch series accumulated so far (empty unless
    /// [`ReceiverConfig::epoch_ns`] is set) — a streaming consumer can read
    /// the series mid-run, before [`RliReceiver::finish`].
    pub fn epoch_snapshots(&self) -> &EpochSeries {
        &self.epochs
    }
}

/// Final output of a receiver.
#[derive(Debug, Clone)]
pub struct ReceiverReport<S: BuildHasher = FxBuildHasher> {
    /// Per-flow estimated/true statistics.
    pub flows: FlowTable<S>,
    /// Counters.
    pub counters: ReceiverCounters,
    /// Per-epoch series (empty unless [`ReceiverConfig::epoch_ns`] was
    /// set).
    pub epochs: EpochSeries,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_net::FlowKey;
    use std::net::Ipv4Addr;

    fn fk(i: u8) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, i),
            1,
            Ipv4Addr::new(10, 1, 0, 1),
            80,
        )
    }

    fn rx() -> RliReceiver {
        RliReceiver::new(ReceiverConfig::for_sender(SenderId(1)))
    }

    fn ref_info(seq: u32, tx_ns: u64) -> ReferenceInfo {
        ReferenceInfo {
            sender: SenderId(1),
            seq,
            tx_timestamp: SimTime::from_nanos(tx_ns),
        }
    }

    #[test]
    fn linear_interpolation_end_to_end() {
        let mut r = rx();
        // Ref 0: sent at 0, arrives at 100 → delay 100.
        r.on_reference(SimTime::from_nanos(100), &ref_info(0, 0));
        // Regular at 150, exactly between refs.
        r.on_regular(
            SimTime::from_nanos(150),
            fk(1),
            Some(SimDuration::from_nanos(140)),
        );
        // Ref 1: sent at 60, arrives at 200 → delay 140... use 200-60=140? No:
        // delay = arrival - tx = 200 - 0? Use tx=60 → 140.
        r.on_reference(SimTime::from_nanos(200), &ref_info(1, 60));
        let rep = r.finish();
        assert_eq!(rep.counters.estimated, 1);
        let acc = rep.flows.get(&fk(1)).unwrap();
        // left delay 100 @100, right delay 140 @200 → at 150: 120.
        assert_eq!(acc.est.mean(), Some(120.0));
        assert_eq!(acc.truth.mean(), Some(140.0));
    }

    #[test]
    fn packets_before_first_ref_are_unestimated() {
        let mut r = rx();
        r.on_regular(SimTime::from_nanos(10), fk(1), None);
        r.on_reference(SimTime::from_nanos(100), &ref_info(0, 0));
        r.on_reference(SimTime::from_nanos(200), &ref_info(1, 100));
        let rep = r.finish();
        assert_eq!(rep.counters.unestimated, 1);
        assert_eq!(rep.counters.estimated, 0);
    }

    #[test]
    fn packets_after_last_ref_are_unestimated() {
        let mut r = rx();
        r.on_reference(SimTime::from_nanos(100), &ref_info(0, 0));
        r.on_regular(SimTime::from_nanos(150), fk(1), None);
        let rep = r.finish();
        assert_eq!(rep.counters.unestimated, 1);
    }

    #[test]
    fn foreign_references_ignored() {
        let mut r = rx();
        let foreign = ReferenceInfo {
            sender: SenderId(99),
            seq: 0,
            tx_timestamp: SimTime::ZERO,
        };
        r.on_reference(SimTime::from_nanos(50), &foreign);
        r.on_regular(SimTime::from_nanos(60), fk(1), None);
        let rep = r.finish();
        assert_eq!(rep.counters.refs_foreign, 1);
        assert_eq!(rep.counters.refs_accepted, 0);
        // The foreign ref did not open an interval.
        assert_eq!(rep.counters.unestimated, 1);
    }

    #[test]
    fn on_packet_dispatches_by_kind() {
        let mut r = rx();
        let refpkt = Packet::reference(1, fk(9), SenderId(1), 0, SimTime::ZERO);
        r.on_packet(SimTime::from_nanos(100), &refpkt, None);
        let reg = Packet::regular(2, fk(1), 100, SimTime::ZERO);
        r.on_packet(
            SimTime::from_nanos(150),
            &reg,
            Some(SimDuration::from_nanos(120)),
        );
        let cross = Packet::cross(3, fk(2), 100, SimTime::ZERO);
        r.on_packet(SimTime::from_nanos(160), &cross, None);
        let refpkt2 = Packet::reference(4, fk(9), SenderId(1), 1, SimTime::from_nanos(60));
        r.on_packet(SimTime::from_nanos(200), &refpkt2, None);
        let rep = r.finish();
        assert_eq!(rep.counters.regulars_seen, 1, "cross must not be metered");
        assert_eq!(rep.counters.estimated, 1);
        assert_eq!(rep.counters.refs_accepted, 2);
    }

    #[test]
    fn lost_reference_stretches_interval() {
        // Refs 0 and 2 arrive; ref 1 was lost. Packets in between are still
        // estimated — against the wider bracket.
        let mut r = rx();
        r.on_reference(SimTime::from_nanos(100), &ref_info(0, 0)); // delay 100
        r.on_regular(SimTime::from_nanos(200), fk(1), None);
        r.on_regular(SimTime::from_nanos(400), fk(1), None);
        r.on_reference(SimTime::from_nanos(500), &ref_info(2, 200)); // delay 300
        let rep = r.finish();
        assert_eq!(rep.counters.estimated, 2);
        let acc = rep.flows.get(&fk(1)).unwrap();
        // at 200: 100 + (300-100)·0.25 = 150; at 400: 100 + 200·0.75 = 250.
        assert_eq!(acc.est.mean(), Some(200.0));
    }

    #[test]
    fn buffer_cap_counts_overflow() {
        let mut cfg = ReceiverConfig::for_sender(SenderId(1));
        cfg.max_buffer = 2;
        let mut r: RliReceiver = RliReceiver::new(cfg);
        r.on_reference(SimTime::from_nanos(10), &ref_info(0, 0));
        for i in 0..5u64 {
            r.on_regular(SimTime::from_nanos(20 + i), fk(1), None);
        }
        r.on_reference(SimTime::from_nanos(100), &ref_info(1, 90));
        let rep = r.finish();
        assert_eq!(rep.counters.estimated, 2);
        assert_eq!(rep.counters.unestimated, 3);
    }

    #[test]
    fn skewed_receiver_clock_biases_delay() {
        let mut cfg = ReceiverConfig::for_sender(SenderId(1));
        cfg.clock = ClockModel::with_offset(-50);
        let mut r: RliReceiver = RliReceiver::new(cfg);
        r.on_reference(SimTime::from_nanos(100), &ref_info(0, 0));
        r.on_regular(SimTime::from_nanos(150), fk(1), None);
        r.on_reference(SimTime::from_nanos(200), &ref_info(1, 100));
        let rep = r.finish();
        let acc = rep.flows.get(&fk(1)).unwrap();
        // True delays 100 and 100; measured 50 and 50 (clock lags by 50).
        assert_eq!(acc.est.mean(), Some(50.0));
    }

    #[test]
    fn epochs_bin_by_observation_time_not_estimation_time() {
        let mut cfg = ReceiverConfig::for_sender(SenderId(1));
        cfg.epoch_ns = Some(100);
        let mut r: RliReceiver = RliReceiver::new(cfg);
        r.on_reference(SimTime::from_nanos(100), &ref_info(0, 0)); // delay 100
        r.on_regular(SimTime::from_nanos(150), fk(1), None); // epoch 1
        r.on_regular(SimTime::from_nanos(250), fk(1), None); // epoch 2
                                                             // Closing ref arrives in epoch 5 — estimates still land in 1 and 2.
        r.on_reference(SimTime::from_nanos(500), &ref_info(1, 400)); // delay 100
                                                                     // Mid-run visibility: snapshots exist before finish.
        assert_eq!(
            r.epoch_snapshots().iter().map(|e| e.estimated).sum::<u64>(),
            2
        );
        let rep = r.finish();
        let epochs: Vec<_> = rep.epochs.iter().collect();
        assert_eq!(epochs.len(), 5); // dense epochs 1..=5
        assert_eq!(epochs[0].epoch, 1);
        assert_eq!(epochs[0].estimated, 1);
        assert_eq!(epochs[0].est_mean(), Some(100.0));
        assert_eq!(epochs[1].estimated, 1);
        assert!(epochs[2].is_empty() && epochs[3].is_empty());
        assert_eq!(epochs[4].refs_accepted, 1);
        // The cumulative view is untouched by the epoch dimension.
        assert_eq!(rep.counters.estimated, 2);
        assert_eq!(rep.flows.get(&fk(1)).unwrap().est.mean(), Some(100.0));
    }

    #[test]
    fn epoch_overflow_counts_unestimated_in_the_shedding_epoch() {
        // The buffer-cap satellite: overflow is charged to the epoch of the
        // packet that was shed, visible in that epoch's `unestimated`.
        let mut cfg = ReceiverConfig::for_sender(SenderId(1));
        cfg.max_buffer = 2;
        cfg.epoch_ns = Some(100);
        let mut r: RliReceiver = RliReceiver::new(cfg);
        r.on_regular(SimTime::from_nanos(50), fk(1), None); // epoch 0: before first ref
        r.on_reference(SimTime::from_nanos(90), &ref_info(0, 0));
        for at in [110u64, 120, 130, 240] {
            r.on_regular(SimTime::from_nanos(at), fk(1), None);
        }
        r.on_reference(SimTime::from_nanos(300), &ref_info(1, 250));
        r.on_regular(SimTime::from_nanos(350), fk(1), None); // after last ref
        let rep = r.finish();
        assert_eq!(rep.counters.estimated, 2);
        assert_eq!(rep.counters.unestimated, 4);
        let epochs: Vec<_> = rep.epochs.iter().collect();
        // Epoch 0: the pre-first-ref packet.
        assert_eq!(epochs[0].unestimated, 1);
        // Epoch 1: 130 shed by the cap (buffer held 110 and 120).
        assert_eq!(epochs[1].unestimated, 1);
        assert_eq!(epochs[1].estimated, 2);
        // Epoch 2: 240 shed by the cap too (buffer not yet drained).
        assert_eq!(epochs[2].unestimated, 1);
        // Epoch 3: 350 stranded after the last reference.
        assert_eq!(epochs[3].unestimated, 1);
        let per_epoch: u64 = rep.epochs.iter().map(|e| e.unestimated).sum();
        assert_eq!(per_epoch, rep.counters.unestimated, "epochs must tally");
    }

    #[test]
    fn a_wild_timestamp_stays_in_the_flow_table_and_out_of_the_epochs() {
        let mut cfg = ReceiverConfig::for_sender(SenderId(1));
        cfg.epoch_ns = Some(5_000_000);
        let mut r: RliReceiver = RliReceiver::new(cfg);
        let ms = |n: u64| SimTime::from_nanos(n * 1_000_000);
        r.on_reference(ms(1), &ref_info(0, 0));
        r.on_regular(ms(2), fk(1), None);
        // A record whose `ts_sec` lost a high bit: u32::MAX seconds.
        let wild = SimTime::from_nanos(u32::MAX as u64 * 1_000_000_000);
        r.on_regular(wild, fk(2), None);
        // One that is refused on arrival and would fit once the series has
        // grown stays out of the epochs for good.
        let far = ms(5 * (crate::epoch::MAX_EPOCH_GAP + 2));
        r.on_regular(far, fk(3), None);
        r.on_regular(ms(5 * crate::epoch::MAX_EPOCH_GAP), fk(3), None);
        r.book_unestimable(wild);
        r.on_reference(wild, &ref_info(1, 500_000));
        r.on_regular(wild, fk(1), None); // stranded after the last reference
        let rep = r.finish();
        assert_eq!(rep.counters.outside_epochs, 5);
        assert_eq!(rep.counters.estimated, 4);
        assert_eq!(rep.counters.unestimated, 2);
        assert_eq!(rep.flows.flow_count(), 3, "every estimate reaches its flow");
        assert_eq!(rep.epochs.len() as u64, crate::epoch::MAX_EPOCH_GAP + 1);
        for e in &rep.epochs {
            assert_eq!(e.regulars_seen, e.estimated + e.unestimated);
        }
        let seen: u64 = rep.epochs.iter().map(|e| e.regulars_seen).sum();
        assert_eq!(seen, 2);
    }

    #[test]
    fn no_epochs_without_config() {
        let mut r = rx();
        r.on_reference(SimTime::from_nanos(100), &ref_info(0, 0));
        r.on_regular(SimTime::from_nanos(150), fk(1), None);
        r.on_reference(SimTime::from_nanos(200), &ref_info(1, 100));
        assert!(r.epoch_snapshots().is_empty());
        assert!(r.finish().epochs.is_empty());
    }

    #[test]
    fn per_flow_separation() {
        let mut r = rx();
        // Rising delay across the interval (100 → 140) separates the flows.
        r.on_reference(SimTime::from_nanos(100), &ref_info(0, 0));
        r.on_regular(SimTime::from_nanos(120), fk(1), None);
        r.on_regular(SimTime::from_nanos(180), fk(2), None);
        r.on_reference(SimTime::from_nanos(200), &ref_info(1, 60));
        let rep = r.finish();
        assert_eq!(rep.flows.flow_count(), 2);
        assert!(
            rep.flows.get(&fk(1)).unwrap().est.mean().unwrap()
                < rep.flows.get(&fk(2)).unwrap().est.mean().unwrap()
        );
    }
}
