//! The ledger's own adapter types around each layer's public boundary.
//!
//! Every layer is measured **from outside**: `InjectionSource`,
//! `Forwarder`, `HopSink`, `EpochDetector::poll` and the plane's query
//! calls are wrapped here and attributed to a span through a
//! [`Probe`]. With [`crate::span::Off`] the wrappers monomorphize to the
//! bare calls.

use crate::span::{Probe, SpanId};
use rlir::{Detection, EpochDetector, LocalizerConfig, MeasurementPlane};
use rlir_net::packet::Packet;
use rlir_net::time::{SimDuration, SimTime};
use rlir_rli::RliSender;
use rlir_sim::{
    DeadPorts, FaultEvent, Forwarder, HopEvent, HopSink, InjectionSource, NodeId, PortId,
    RouteDecision,
};
use std::collections::VecDeque;
use std::time::Instant;

/// A materialized, time-sorted injection list served through the pull
/// interface — the ledger's stand-in for "the workload is already in
/// memory". Same-time injections keep their list order.
pub struct VecSource {
    items: Vec<(NodeId, Packet)>,
    next: usize,
}

impl VecSource {
    pub fn new(mut items: Vec<(NodeId, Packet)>) -> Self {
        items.sort_by_key(|(_, p)| p.created_at);
        VecSource { items, next: 0 }
    }

    /// Materialize everything `source` would emit.
    pub fn drain(mut source: impl InjectionSource) -> Self {
        let mut items = Vec::new();
        while let Some(item) = source.next_injection() {
            items.push(item);
        }
        VecSource::new(items)
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Bytes the materialized list holds for the whole run.
    pub fn bytes(&self) -> usize {
        self.items.len() * std::mem::size_of::<(NodeId, Packet)>()
    }
}

impl InjectionSource for VecSource {
    fn peek(&mut self) -> Option<SimTime> {
        self.items.get(self.next).map(|(_, p)| p.created_at)
    }

    fn next_injection(&mut self) -> Option<(NodeId, Packet)> {
        let item = self.items.get(self.next).copied();
        self.next += usize::from(item.is_some());
        item
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.items.len())
    }

    fn span_hint(&self) -> Option<u64> {
        match (self.items.first(), self.items.last()) {
            (Some((_, a)), Some((_, b))) => Some(b.created_at.as_nanos() - a.created_at.as_nanos()),
            _ => Some(0),
        }
    }
}

/// Where a replayed record enters the fabric, and which RLI sender (if
/// any) sits on the interface it crosses first.
pub trait Placement {
    fn place(&mut self, p: &Packet) -> (NodeId, Option<&mut RliSender>);

    /// References emitted by every sender so far.
    fn refs_emitted(&self) -> u64;
}

/// Capture replay with the RLI reference streams interleaved on the fly:
/// each record is pulled from `inner` (span `trace.next`), placed, shown
/// to its sender (span `rli.sender.observe`), and followed by whatever
/// references the sender's policy fires — the sender's own contract
/// ("inject immediately after it").
pub struct RefIngest<'p, S, M, P> {
    pub inner: S,
    pub placement: M,
    probe: &'p P,
    queue: VecDeque<(NodeId, Packet)>,
}

impl<'p, S: InjectionSource, M: Placement, P: Probe> RefIngest<'p, S, M, P> {
    pub fn new(inner: S, placement: M, probe: &'p P) -> Self {
        RefIngest {
            inner,
            placement,
            probe,
            queue: VecDeque::new(),
        }
    }

    fn fill(&mut self) {
        if !self.queue.is_empty() {
            return;
        }
        let inner = &mut self.inner;
        let Some((_, p)) = self
            .probe
            .time(SpanId::TraceNext, || inner.next_injection())
        else {
            return;
        };
        let (node, sender) = self.placement.place(&p);
        self.queue.push_back((node, p));
        if let Some(sender) = sender {
            let refs = self
                .probe
                .time(SpanId::SenderObserve, || sender.observe(&p));
            self.queue.extend(refs.iter().map(|r| (node, *r)));
        }
    }
}

impl<S: InjectionSource, M: Placement, P: Probe> InjectionSource for RefIngest<'_, S, M, P> {
    fn peek(&mut self) -> Option<SimTime> {
        self.fill();
        self.queue.front().map(|(_, p)| p.created_at)
    }

    fn next_injection(&mut self) -> Option<(NodeId, Packet)> {
        self.fill();
        self.queue.pop_front()
    }

    // Scheduler geometry only; undercounting the references is harmless.
    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn span_hint(&self) -> Option<u64> {
        self.inner.span_hint()
    }
}

/// `Forwarder::route` under span `topo.route`; the marking and reroute
/// hooks pass straight through.
pub struct TimedForwarder<'p, F, P> {
    pub inner: &'p F,
    pub probe: &'p P,
}

impl<F: Forwarder, P: Probe> Forwarder for TimedForwarder<'_, F, P> {
    #[inline]
    fn route(&self, node: NodeId, packet: &Packet) -> RouteDecision {
        self.probe
            .time(SpanId::TopoRoute, || self.inner.route(node, packet))
    }

    #[inline]
    fn on_forward(&self, node: NodeId, port: PortId, packet: &mut Packet) {
        self.inner.on_forward(node, port, packet);
    }

    fn reroute(
        &self,
        node: NodeId,
        packet: &Packet,
        chosen: PortId,
        dead: &DeadPorts<'_>,
    ) -> RouteDecision {
        self.inner.reroute(node, packet, chosen, dead)
    }
}

/// Any `HopSink` under a pair of spans.
pub struct TimedSink<'s, 'p, S, P> {
    pub inner: &'s mut S,
    pub probe: &'p P,
    pub hop: SpanId,
    pub watermark: SpanId,
}

impl<S: HopSink, P: Probe> HopSink for TimedSink<'_, '_, S, P> {
    #[inline]
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        let inner = &mut *self.inner;
        self.probe.time(self.hop, || inner.on_hop(ev));
    }

    #[inline]
    fn on_watermark(&mut self, watermark: SimTime) {
        let inner = &mut *self.inner;
        self.probe
            .time(self.watermark, || inner.on_watermark(watermark));
    }

    fn on_fault(&mut self, ev: &FaultEvent) {
        self.inner.on_fault(ev);
    }
}

/// Cadence of the state-size probe, simulated time.
pub const STATE_PROBE_EVERY: SimDuration = SimDuration::from_millis(1);
/// Cadence of the collector's mid-run snapshot + localization query.
pub const QUERY_EVERY: SimDuration = SimDuration::from_millis(5);

/// A measurement plane as the engine's sink, watched from outside: hop and
/// watermark calls go under the given spans, `approx_state_bytes()` is
/// probed every simulated millisecond, and — when `queries` is on — the
/// collector's `snapshot_epochs()` + `localize_now()` pair runs every five.
/// The queries are part of the workload, so traced and untraced
/// repetitions both issue them; only their wall time differs in use.
pub struct PlaneWatch<'s, 'a, 'p, P> {
    pub plane: &'s mut MeasurementPlane<'a>,
    probe: &'p P,
    hop: SpanId,
    watermark: SpanId,
    next_state: SimTime,
    /// `approx_state_bytes()` at each probe, in time order.
    pub state_bytes: Vec<usize>,
    next_query: Option<SimTime>,
    /// Wall nanoseconds of each mid-run query.
    pub query_ns: Vec<u64>,
    /// Rows the queries returned (merged epochs + epoch findings) — kept so
    /// the calls cannot be optimized out, and reported as a count.
    pub query_rows: u64,
}

impl<'s, 'a, 'p, P: Probe> PlaneWatch<'s, 'a, 'p, P> {
    pub fn new(
        plane: &'s mut MeasurementPlane<'a>,
        probe: &'p P,
        (hop, watermark): (SpanId, SpanId),
        queries: bool,
    ) -> Self {
        PlaneWatch {
            plane,
            probe,
            hop,
            watermark,
            next_state: SimTime::ZERO + STATE_PROBE_EVERY,
            state_bytes: Vec::new(),
            next_query: queries.then_some(SimTime::ZERO + QUERY_EVERY),
            query_ns: Vec::new(),
            query_rows: 0,
        }
    }
}

impl<P: Probe> HopSink for PlaneWatch<'_, '_, '_, P> {
    #[inline]
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        let plane = &mut *self.plane;
        self.probe.time(self.hop, || plane.on_hop(ev));
    }

    fn on_watermark(&mut self, watermark: SimTime) {
        let plane = &mut *self.plane;
        self.probe
            .time(self.watermark, || plane.on_watermark(watermark));
        if watermark >= self.next_state {
            self.state_bytes.push(self.plane.approx_state_bytes());
            while self.next_state <= watermark {
                self.next_state += STATE_PROBE_EVERY;
            }
        }
        if let Some(next) = self.next_query.filter(|&t| watermark >= t) {
            let start = Instant::now();
            let epochs = self.plane.snapshot_epochs();
            let findings = self.plane.localize_now(&LocalizerConfig::default());
            self.query_ns.push(start.elapsed().as_nanos() as u64);
            self.query_rows += (epochs.len() + findings.len()) as u64;
            let mut next = next;
            while next <= watermark {
                next += QUERY_EVERY;
            }
            self.next_query = Some(next);
        }
    }

    fn on_fault(&mut self, ev: &FaultEvent) {
        self.plane.on_fault(ev);
    }
}

/// The sentinel plane plus the online detector polled after every
/// watermark (span `detect.poll`). Unlike the product's closed-loop sink
/// it never stops the run — the workload's work must not depend on when
/// the alarm fires — and it keeps polling after the first alarm so every
/// verdict is counted.
pub struct DetectWatch<'s, 'a, 'p, P> {
    pub watch: PlaneWatch<'s, 'a, 'p, P>,
    detector: Option<EpochDetector>,
    pub polls: u64,
    pub alarms: Vec<Detection>,
}

impl<'s, 'a, 'p, P: Probe> DetectWatch<'s, 'a, 'p, P> {
    /// `detector: None` is the subtractive ladder's "planes, no detector"
    /// step.
    pub fn new(watch: PlaneWatch<'s, 'a, 'p, P>, detector: Option<EpochDetector>) -> Self {
        DetectWatch {
            watch,
            detector,
            polls: 0,
            alarms: Vec::new(),
        }
    }
}

impl<P: Probe> HopSink for DetectWatch<'_, '_, '_, P> {
    #[inline]
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        self.watch.on_hop(ev);
    }

    fn on_watermark(&mut self, watermark: SimTime) {
        self.watch.on_watermark(watermark);
        if let Some(detector) = self.detector.as_mut() {
            self.polls += 1;
            let plane = &*self.watch.plane;
            let alarm = self
                .watch
                .probe
                .time(SpanId::DetectPoll, || detector.poll(plane, watermark));
            self.alarms.extend(alarm);
        }
    }

    fn on_fault(&mut self, ev: &FaultEvent) {
        self.watch.on_fault(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Off, Pass, Sampler};
    use rlir_net::clock::ClockModel;
    use rlir_net::packet::SenderId;
    use rlir_net::FlowKey;
    use rlir_rli::PolicyKind;
    use std::net::Ipv4Addr;

    fn pkt(id: u64, at_ns: u64) -> Packet {
        let flow = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            Ipv4Addr::new(10, 1, 0, 2),
            80,
        );
        Packet::regular(id, flow, 500, SimTime::from_nanos(at_ns))
    }

    #[test]
    fn vec_source_sorts_stably_and_hints() {
        let mut src = VecSource::new(vec![(0, pkt(1, 9)), (1, pkt(2, 5)), (2, pkt(3, 5))]);
        assert_eq!((src.len_hint(), src.span_hint()), (Some(3), Some(4)));
        assert_eq!(src.bytes(), 3 * std::mem::size_of::<(NodeId, Packet)>());
        let mut order = Vec::new();
        while let Some(t) = src.peek() {
            let (node, p) = src.next_injection().unwrap();
            assert_eq!(p.created_at, t);
            order.push((node, p.id.0));
        }
        assert_eq!(order, vec![(1, 2), (2, 3), (0, 1)]);
        assert!(src.next_injection().is_none());
    }

    struct OneSender(RliSender);
    impl Placement for OneSender {
        fn place(&mut self, _p: &Packet) -> (NodeId, Option<&mut RliSender>) {
            (3, Some(&mut self.0))
        }
        fn refs_emitted(&self) -> u64 {
            self.0.refs_emitted()
        }
    }

    #[test]
    fn ref_ingest_places_records_and_follows_them_with_references() {
        let sender = RliSender::new(
            SenderId(1),
            ClockModel::perfect(),
            PolicyKind::Static { n: 2 }.build(),
            vec![pkt(0, 0).flow],
        );
        let inner = VecSource::new((0..6).map(|i| (0, pkt(i, 10 * i))).collect());
        let probe = Sampler::new(Pass::Uniform { stride: 1 });
        let mut ingest = RefIngest::new(inner, OneSender(sender), &probe);
        let mut seen = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some(t) = ingest.peek() {
            let (node, p) = ingest.next_injection().unwrap();
            assert_eq!((node, p.created_at), (3, t));
            assert!(t >= last, "emission stays monotone");
            last = t;
            seen.push(p.is_reference());
        }
        let refs = seen.iter().filter(|r| **r).count() as u64;
        assert_eq!(refs, ingest.placement.refs_emitted());
        assert!(refs >= 2, "1-and-2 policy over 6 packets: {seen:?}");
        assert!(!seen[0], "a reference follows its trigger, never leads");
        assert_eq!(seen.len() as u64, 6 + refs);
        // 6 records + the pull that found the source empty.
        assert_eq!(probe.stat(SpanId::TraceNext).calls, 7);
        assert_eq!(probe.stat(SpanId::SenderObserve).calls, 6);
    }

    struct CountingSink(u64, u64);
    impl HopSink for CountingSink {
        fn on_hop(&mut self, _ev: &HopEvent<'_>) {
            self.0 += 1;
        }
        fn on_watermark(&mut self, _w: SimTime) {
            self.1 += 1;
        }
    }

    #[test]
    fn timed_sink_forwards_and_attributes() {
        let probe = Sampler::new(Pass::Uniform { stride: 1 });
        let mut inner = CountingSink(0, 0);
        let mut sink = TimedSink {
            inner: &mut inner,
            probe: &probe,
            hop: SpanId::CaptureHop,
            watermark: SpanId::CaptureWatermark,
        };
        let p = pkt(1, 0);
        let ev = HopEvent {
            kind: rlir_sim::HopKind::Arrive,
            node: 0,
            at: SimTime::ZERO,
            packet: &p,
            injected_node: 0,
            injected_at: SimTime::ZERO,
            hops: &[],
        };
        sink.on_hop(&ev);
        sink.on_hop(&ev);
        sink.on_watermark(SimTime::from_nanos(5));
        assert_eq!((inner.0, inner.1), (2, 1));
        assert_eq!(probe.stat(SpanId::CaptureHop).calls, 2);
        assert_eq!(probe.stat(SpanId::CaptureWatermark).calls, 1);
        // And the untraced instantiation is the same code path.
        let mut sink = TimedSink {
            inner: &mut inner,
            probe: &Off,
            hop: SpanId::CaptureHop,
            watermark: SpanId::CaptureWatermark,
        };
        sink.on_hop(&ev);
        assert_eq!(inner.0, 3);
    }
}
