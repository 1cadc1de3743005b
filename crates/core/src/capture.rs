//! Two-point capture taps: per-flow latency by packet identity.
//!
//! The production idiom RLI is evaluated against in deployment (and the
//! one the related latency-measurement tooling uses): put a capture
//! point at two places in the fabric, record a timestamp for every packet
//! each point sees, and report latency as the timestamp delta of the
//! *same packet* at both points — RFC 1242's definition — matching
//! packets on their wire-visible identity (the 5-tuple plus the 16-bit
//! IPv4 identification field; no simulator-internal state).
//!
//! [`CapturePair`] implements that as a [`HopSink`]: point A stamps,
//! point B matches and accumulates per-flow latency. Because the match
//! key is exactly what `rlir_trace::pcap::write_pcap` emits on the wire
//! (`packet.id & 0xFFFF` as the IP ident), the pair measures what two
//! real taps running tcpdump at those fabric points would measure — an
//! **external** ground truth for the RLI estimate, unlike the
//! simulator-internal truth spans scenarios used before. On a tandem
//! where A is the injection point and B the delivery point, the pair's
//! per-packet deltas must coincide exactly with the engine's
//! `true_delay()`; `tests/trace_replay.rs` pins that.
//!
//! A packet costs two probes of one table — its identity's stamp goes in
//! at A and comes out at B — and a keyless row look-up when it matches; a
//! flow costs one row and one index cell. A stamp times out
//! once the engine watermark passes `stamp + timeout` (a packet that died
//! between the points, or an identity that never reaches B): from then on
//! a B sighting or a re-stamp that finds it books it `expired`, and a sweep
//! once the watermark has moved another timeout removes the rest. So the
//! pair holds the packets in flight between A and B and the drops of at
//! most two timeouts, not O(run) and not timeout × rate.

use crate::plane::TapPoint;
use rlir_net::fxhash::{FxBuildHasher, FxHashMap};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
use rlir_rli::{push_grown, slots, SlotIndex};
use rlir_sim::{HopEvent, HopKind, HopSink};

/// Wire-visible packet identity: 5-tuple + IPv4 ident. Everything a real
/// capture point can key on from the headers alone.
type CaptureKey = (FlowKey, u16);

fn observes(point: TapPoint, ev: &HopEvent<'_>) -> bool {
    match point {
        TapPoint::NodeArrival(n) => ev.node == n && matches!(ev.kind, HopKind::Arrive),
        TapPoint::PortDeparture(n, p) => {
            ev.node == n && matches!(ev.kind, HopKind::Dequeue { port, .. } if port == p)
        }
        TapPoint::Delivery(n) => ev.node == n && matches!(ev.kind, HopKind::Deliver),
    }
}

/// Per-flow latency accumulated from identity matches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlowCapture {
    /// Packets matched at both points.
    pub count: u64,
    /// Sum of per-packet deltas in nanoseconds.
    pub sum_ns: u64,
    /// Smallest delta seen.
    pub min_ns: u64,
    /// Largest delta seen.
    pub max_ns: u64,
}

/// Counters and per-flow results of a finished capture pair.
#[derive(Debug, Clone)]
pub struct CaptureReport {
    /// Packets matched at both points (the sample count).
    pub matched: u64,
    /// Point-B sightings with no pending point-A stamp (either A never
    /// saw the identity, or its stamp already expired).
    pub unmatched_b: u64,
    /// Point-A sightings whose identity was already pending — 16-bit
    /// ident reuse inside one A→B flight window; the newer stamp wins and
    /// the older is discarded, as a real matcher would.
    pub ambiguous: u64,
    /// Pending stamps that timed out (packets presumed lost between the
    /// points).
    pub expired: u64,
    /// Stamps still pending, and not timed out, when the run ended.
    pub residual: u64,
    /// High-water mark of the pending table — the pair's memory bound.
    /// It counts every stamp the table held, including stamps past the
    /// timeout horizon that stay in the table until the next sweep (at
    /// most one timeout of watermark later).
    pub peak_pending: usize,
    /// Per-flow latency, sorted by flow key for deterministic output.
    pub flows: Vec<(FlowKey, FlowCapture)>,
}

impl CaptureReport {
    /// Look up one flow's capture.
    pub fn flow(&self, key: &FlowKey) -> Option<&FlowCapture> {
        self.flows
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| &self.flows[i].1)
    }
}

/// A pair of identity-matching capture points on the hop-event stream
/// (see the module docs). Attach as the engine sink — or tee it next to a
/// measurement plane with `rlir_sim::TeeSink` — then call
/// [`finish`](Self::finish).
#[derive(Debug)]
pub struct CapturePair {
    a: TapPoint,
    b: TapPoint,
    timeout_ns: u64,
    /// Stamps below this have timed out: the last watermark less the
    /// timeout.
    horizon: u64,
    /// The horizon of the last sweep.
    swept: u64,
    /// The point-A stamp of every identity awaiting point B — the pair's
    /// only per-packet state.
    pending: FxHashMap<CaptureKey, u64>,
    /// Which row of `flows` holds a flow.
    index: SlotIndex,
    /// Per-flow latency, one row a flow in order of its first match.
    flows: Vec<(FlowKey, FlowCapture)>,
    matched: u64,
    unmatched_b: u64,
    ambiguous: u64,
    expired: u64,
    peak_pending: usize,
}

/// Default pending-stamp timeout: far beyond any sane A→B transit, small
/// enough to keep the pending table bounded by the in-flight window.
pub const DEFAULT_CAPTURE_TIMEOUT: SimDuration = SimDuration::from_millis(50);

impl CapturePair {
    /// Capture at `a`, match at `b`, with the default timeout.
    pub fn new(a: TapPoint, b: TapPoint) -> Self {
        Self::with_timeout(a, b, DEFAULT_CAPTURE_TIMEOUT)
    }

    /// Capture with an explicit pending-stamp timeout.
    pub(crate) fn with_timeout(a: TapPoint, b: TapPoint, timeout: SimDuration) -> Self {
        CapturePair {
            a,
            b,
            timeout_ns: timeout.as_nanos(),
            horizon: 0,
            swept: 0,
            pending: FxHashMap::default(),
            index: SlotIndex::default(),
            flows: Vec::new(),
            matched: 0,
            unmatched_b: 0,
            ambiguous: 0,
            expired: 0,
            peak_pending: 0,
        }
    }

    fn key(ev: &HopEvent<'_>) -> CaptureKey {
        (ev.packet.flow, (ev.packet.id.0 & 0xFFFF) as u16)
    }

    fn record(&mut self, flow: FlowKey, delta_ns: u64) {
        let hash32 = slots::hash32(&FxBuildHasher::default(), &flow);
        let rows = &self.flows;
        let slot = match self
            .index
            .find(hash32, |slot| rows[slot as usize].0 == flow)
        {
            Some(slot) => slot as usize,
            None => {
                let slot = self.flows.len();
                let cell =
                    u32::try_from(slot).expect("a capture pair holds at most 2^32 - 1 flows");
                self.index.insert(hash32, cell);
                push_grown(&mut self.flows, (flow, FlowCapture::default()));
                slot
            }
        };
        let f = &mut self.flows[slot].1;
        if f.count == 0 {
            f.min_ns = delta_ns;
            f.max_ns = delta_ns;
        } else {
            f.min_ns = f.min_ns.min(delta_ns);
            f.max_ns = f.max_ns.max(delta_ns);
        }
        f.count += 1;
        f.sum_ns += delta_ns;
    }

    /// Remove every timed-out stamp and book it `expired`.
    fn sweep(&mut self) {
        let (horizon, before) = (self.horizon, self.pending.len());
        self.pending.retain(|_, &mut stamp| stamp >= horizon);
        self.expired += (before - self.pending.len()) as u64;
        self.swept = horizon;
    }

    /// Finish: book the timed-out stamps, count the rest as residual and
    /// emit the per-flow table (sorted for deterministic output). The
    /// pending table and the index go first and the rows sort in place, so
    /// no second copy of the table is ever held.
    pub fn finish(mut self) -> CaptureReport {
        self.sweep();
        let residual = self.pending.len() as u64;
        self.pending = FxHashMap::default();
        self.index = SlotIndex::default();
        let mut flows = self.flows;
        // Keys are unique, so an unstable sort has one possible outcome.
        flows.sort_unstable_by_key(|&(key, _)| key);
        CaptureReport {
            matched: self.matched,
            unmatched_b: self.unmatched_b,
            ambiguous: self.ambiguous,
            expired: self.expired,
            residual,
            peak_pending: self.peak_pending,
            flows,
        }
    }
}

impl HopSink for CapturePair {
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        // A first: if one event is both points (a == b), the stamp lands
        // and immediately matches at zero delta on the next sighting —
        // not this one.
        if observes(self.a, ev) {
            if let Some(old) = self.pending.insert(Self::key(ev), ev.at.as_nanos()) {
                // The newer stamp wins; the older one had either timed out
                // or shares its identity with a packet still in flight.
                if old < self.horizon {
                    self.expired += 1;
                } else {
                    self.ambiguous += 1;
                }
            }
            self.peak_pending = self.peak_pending.max(self.pending.len());
        } else if observes(self.b, ev) {
            let key = Self::key(ev);
            match self.pending.remove(&key) {
                Some(t_a) if t_a >= self.horizon => {
                    self.matched += 1;
                    self.record(key.0, ev.at.as_nanos().saturating_sub(t_a));
                }
                Some(_) => {
                    self.expired += 1;
                    self.unmatched_b += 1;
                }
                None => self.unmatched_b += 1,
            }
        }
    }

    fn on_watermark(&mut self, watermark: SimTime) {
        let horizon = watermark.as_nanos().saturating_sub(self.timeout_ns);
        self.horizon = self.horizon.max(horizon);
        if self.horizon - self.swept >= self.timeout_ns.max(1) {
            self.sweep();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_net::packet::Packet;
    use rlir_sim::{run_network_streamed_source, Forwarder, Network, NodeId, Port, RouteDecision};
    use rlir_sim::{QueueConfig, RunOptions, SortedVecSource, TeeSink};
    use std::net::Ipv4Addr;

    fn qcfg() -> QueueConfig {
        QueueConfig {
            rate_bps: 8_000_000_000,
            capacity_bytes: 100_000,
            processing_delay: SimDuration::ZERO,
        }
    }

    fn pkt(id: u64, at_ns: u64) -> Packet {
        Packet::regular(
            id,
            FlowKey::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                1000,
                Ipv4Addr::new(10, 1, 0, 1),
                80,
            ),
            1000,
            SimTime::from_nanos(at_ns),
        )
    }

    struct Line {
        last: NodeId,
    }

    impl Forwarder for Line {
        fn route(&self, node: NodeId, _p: &Packet) -> RouteDecision {
            if node == self.last {
                RouteDecision::Deliver
            } else {
                RouteDecision::Forward(0)
            }
        }
    }

    fn tandem() -> Network {
        let mut net = Network::default();
        let a = net.add_node("S0");
        let b = net.add_node("S1");
        net.add_port(a, Port::to_switch(qcfg(), b, SimDuration::from_nanos(100)));
        net
    }

    #[test]
    fn injection_to_delivery_pair_equals_engine_truth() {
        let inj: Vec<(NodeId, Packet)> = (0..200).map(|i| (0usize, pkt(i, i * 1_500))).collect();
        let mut pair = CapturePair::new(TapPoint::NodeArrival(0), TapPoint::Delivery(1));
        let mut truth_sum = 0u64;
        let mut truth_n = 0u64;
        let stats = run_network_streamed_source(
            tandem(),
            &Line { last: 1 },
            SortedVecSource::new(inj),
            &mut pair,
            RunOptions::default(),
            |d| {
                truth_sum += d.true_delay().as_nanos();
                truth_n += 1;
            },
        );
        assert_eq!(stats.delivered, 200);
        let report = pair.finish();
        assert_eq!(report.matched, 200);
        assert_eq!(report.unmatched_b, 0);
        assert_eq!(report.residual, 0);
        let truth_mean = truth_sum as f64 / truth_n as f64;
        let (count, sum) = report
            .flows
            .iter()
            .fold((0, 0), |(c, s), (_, f)| (c + f.count, s + f.sum_ns));
        assert_eq!(
            sum as f64 / count as f64,
            truth_mean,
            "identity-matched capture must equal simulator truth exactly"
        );
    }

    #[test]
    fn timeout_evicts_stamps_of_packets_that_never_reach_b() {
        // Drop everything: every A-stamp must eventually expire, keeping
        // the pending table bounded.
        struct DropAll;
        impl Forwarder for DropAll {
            fn route(&self, node: NodeId, _p: &Packet) -> RouteDecision {
                if node == 0 {
                    RouteDecision::Forward(0)
                } else {
                    RouteDecision::Drop
                }
            }
        }
        let inj: Vec<(NodeId, Packet)> = (0..500).map(|i| (0usize, pkt(i, i * 2_000))).collect();
        let mut pair = CapturePair::with_timeout(
            TapPoint::NodeArrival(0),
            TapPoint::Delivery(1),
            SimDuration::from_nanos(20_000),
        );
        run_network_streamed_source(
            tandem(),
            &DropAll,
            SortedVecSource::new(inj),
            &mut pair,
            RunOptions::default(),
            |_| {},
        );
        let report = pair.finish();
        assert_eq!(report.matched, 0);
        assert!(report.expired > 400, "stamps must expire: {report:?}");
        assert!(
            report.peak_pending < 50,
            "pending table unbounded: peak {}",
            report.peak_pending
        );
    }

    #[test]
    fn tee_shares_the_stream_between_pair_and_another_sink() {
        let inj: Vec<(NodeId, Packet)> = (0..50).map(|i| (0usize, pkt(i, i * 1_500))).collect();
        let mut pair = CapturePair::new(TapPoint::NodeArrival(0), TapPoint::Delivery(1));
        let mut events = 0u64;
        let mut counter = |_: &rlir_sim::HopEvent<'_>| events += 1;
        {
            let mut tee = TeeSink::new(&mut pair, &mut counter);
            run_network_streamed_source(
                tandem(),
                &Line { last: 1 },
                SortedVecSource::new(inj),
                &mut tee,
                RunOptions::default(),
                |_| {},
            );
        }
        assert_eq!(pair.finish().matched, 50);
        assert!(events > 0, "second sink starved");
    }
}
