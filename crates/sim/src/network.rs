//! Arbitrary switch topologies and the observation surface of a run.
//!
//! The paper's Fig. 3 evaluation runs on a two-switch network
//! ([`crate::pipeline`]); the RLIR architecture itself (§3) lives on a
//! *fat-tree*, where packets traverse ToR → edge → core → edge → ToR with
//! ECMP choosing among equal-cost ports.
//! This module describes what the engine ([`crate::shard`]) runs and what
//! it reports: switches with per-output-port [`FifoQueue`]s, links with
//! propagation delay, a pluggable [`Forwarder`] (implemented by
//! `rlir-topo`), per-packet hop-by-hop ground truth handed to the run's
//! delivery callback ([`StreamedDelivery`]), and the run's aggregate
//! ([`NetworkRunStats`]).
//!
//! ## The hop-event stream
//!
//! Every run emits a typed, allocation-free stream of [`HopEvent`]s to a
//! [`HopSink`] — every switch arrival, queue enqueue/dequeue, drop and
//! delivery, each carrying the packet by reference plus the hop record
//! accumulated so far. This is the measurement plane's observation point:
//! an RLI instance "deployed at a router" is a sink that watches one
//! `(node, port)` tap of this stream (see `rlir::plane::MeasurementPlane`).
//! Sink callbacks are invoked in engine processing order: [`HopKind::Arrive`]
//! events are therefore globally time-ordered, while dequeue/delivery
//! timestamps may run ahead of the engine clock (the analytic queues decide
//! departure at offer time) — consumers that need strict delivery-time
//! order sort per tap.

use crate::fault::{DeadPorts, FaultScript, StopFlag};
use crate::queue::{FifoQueue, QueueConfig};
use crate::sched::{fabric_geometry, SchedStats};
use rlir_net::packet::Packet;
use rlir_net::time::{SimDuration, SimTime};

/// Index of a switch in the network.
pub type NodeId = usize;
/// Index of a port within a switch.
pub type PortId = usize;

/// One output port: a queue draining onto a link.
#[derive(Debug, Clone)]
pub struct Port {
    /// The output queue.
    pub queue: FifoQueue,
    /// Switch at the far end of the link; `None` for a host-facing port
    /// (packets delivered after queueing).
    pub link_to: Option<NodeId>,
    /// Propagation delay of the attached link.
    pub link_delay: SimDuration,
}

impl Port {
    /// A port towards another switch.
    pub fn to_switch(cfg: QueueConfig, node: NodeId, link_delay: SimDuration) -> Self {
        Port {
            queue: FifoQueue::new(cfg),
            link_to: Some(node),
            link_delay,
        }
    }

    /// A host-facing port (delivery after queueing).
    pub fn to_host(cfg: QueueConfig, link_delay: SimDuration) -> Self {
        Port {
            queue: FifoQueue::new(cfg),
            link_to: None,
            link_delay,
        }
    }
}

/// A switch: a named collection of output ports.
#[derive(Debug, Clone)]
pub struct SwitchNode {
    /// Human-readable name (e.g. `"T1"`, `"C3"` as in the paper's Fig. 1).
    pub name: String,
    /// Output ports.
    pub ports: Vec<Port>,
}

/// The switch graph.
#[derive(Debug, Clone, Default)]
pub struct Network {
    /// All switches, indexed by [`NodeId`].
    pub nodes: Vec<SwitchNode>,
}

impl Network {
    /// Add a switch, returning its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        self.nodes.push(SwitchNode {
            name: name.into(),
            ports: Vec::new(),
        });
        self.nodes.len() - 1
    }

    /// Add a port to `node`, returning its port id.
    pub fn add_port(&mut self, node: NodeId, port: Port) -> PortId {
        self.nodes[node].ports.push(port);
        self.nodes[node].ports.len() - 1
    }

    /// Every switch-to-switch link as `(from, to, port)` — the ports whose
    /// departures are scheduled (a host-facing one delivers in place).
    pub(crate) fn links(&self) -> impl Iterator<Item = (NodeId, NodeId, &Port)> {
        self.nodes.iter().enumerate().flat_map(|(from, node)| {
            let ports = node.ports.iter();
            ports.filter_map(move |p| Some((from, p.link_to?, p)))
        })
    }

    /// The geometry of the engine's calendar queue on this fabric (see
    /// [`fabric_geometry`]): bucket width from the minimum switch-to-switch
    /// link delay, wheel span from the longest per-hop residence —
    /// processing, a full buffer's drain, the link (a fault script that
    /// slows a switch mid-run only sends more pushes to the overflow heap).
    pub fn calendar_geometry(&self) -> (u32, u32) {
        let residence = |(_, _, p): (_, _, &Port)| {
            let cfg = p.queue.config();
            let buffer = u32::try_from(cfg.capacity_bytes).unwrap_or(u32::MAX);
            (cfg.processing_delay + cfg.transmission(buffer) + p.link_delay).as_nanos()
        };
        let lookahead = self.links().map(|(_, _, p)| p.link_delay.as_nanos()).min();
        fabric_geometry(lookahead, self.links().map(residence).max().unwrap_or(0))
    }
}

/// Forwarding decision for one packet at one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// Send out this port (queueing applies; if the port is host-facing the
    /// packet is delivered at its queue departure time).
    Forward(PortId),
    /// Deliver immediately at this switch (no further queueing) — used when
    /// the measurement point is the switch ingress.
    Deliver,
    /// Administratively drop (no route).
    Drop,
}

/// The routing/marking plane, implemented by the topology crate.
pub trait Forwarder {
    /// Choose what `node` does with `packet`.
    fn route(&self, node: NodeId, packet: &Packet) -> RouteDecision;

    /// Hook invoked when `node` forwards `packet` out `port` — RLIR's
    /// packet-marking demultiplexer stamps the ToS byte here (§3.1).
    fn on_forward(&self, node: NodeId, port: PortId, packet: &mut Packet) {
        let _ = (node, port, packet);
    }

    /// The forwarder's chosen egress `chosen` is administratively dead
    /// (fault plane, see [`crate::fault`]): pick an alternative.
    ///
    /// A topology-aware forwarder returns `Forward` of a live ECMP
    /// sibling (consult `dead`); the default — and the honest answer
    /// wherever no equal-cost alternative exists, e.g. the unique
    /// downward path of a fat-tree — is [`RouteDecision::Drop`], which
    /// the engine accounts as a route drop (blackhole). Returning a port
    /// that is itself dead is treated as `Drop`.
    fn reroute(
        &self,
        node: NodeId,
        packet: &Packet,
        chosen: PortId,
        dead: &DeadPorts<'_>,
    ) -> RouteDecision {
        let _ = (node, packet, chosen, dead);
        RouteDecision::Drop
    }
}

/// One traversed hop in a packet's ground-truth record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The switch.
    pub node: NodeId,
    /// The egress port taken.
    pub port: PortId,
    /// Arrival at the switch.
    pub arrived: SimTime,
    /// Departure from the switch (last bit out).
    pub departed: SimTime,
}

/// What a [`HopEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopKind {
    /// The packet arrived at the switch ([`HopEvent::at`] = arrival time).
    /// These events are emitted in global time order.
    Arrive,
    /// The packet was accepted into an output queue (`at` = arrival time;
    /// the marking hook has already run).
    Enqueue {
        /// The egress port.
        port: PortId,
    },
    /// The packet's last bit left the port (`at` = departure time, which
    /// the analytic queue computed at enqueue; `arrived` is its arrival at
    /// the switch). [`HopEvent::hops`] already includes this hop.
    Dequeue {
        /// The egress port.
        port: PortId,
        /// Arrival at the switch.
        arrived: SimTime,
    },
    /// Drop-tail discarded the packet at an output queue (`at` = arrival).
    QueueDrop {
        /// The egress port.
        port: PortId,
    },
    /// The forwarder had no route (`at` = arrival).
    RouteDrop,
    /// The packet left the network at this switch (`at` = delivery time;
    /// `hops` is the complete path record).
    Deliver,
}

/// One typed observation from the engine's per-hop stream — the
/// measurement plane's raw input. Borrowed, allocation-free: the packet
/// and the hop record live in the engine's event.
#[derive(Debug, Clone, Copy)]
pub struct HopEvent<'a> {
    /// What happened.
    pub kind: HopKind,
    /// Where.
    pub node: NodeId,
    /// When (see [`HopKind`] for which timestamp each kind carries).
    pub at: SimTime,
    /// The packet, marks applied so far.
    pub packet: &'a Packet,
    /// Where the packet entered the network.
    pub injected_node: NodeId,
    /// When the packet entered the network.
    pub injected_at: SimTime,
    /// Hops completed so far (complete path for [`HopKind::Deliver`]).
    pub hops: &'a [Hop],
}

/// A consumer of the engine's hop-event stream.
pub trait HopSink {
    /// Observe one event. Called synchronously from the engine loop.
    fn on_hop(&mut self, ev: &HopEvent<'_>);

    /// The engine's **event-time watermark** advanced to `watermark`.
    ///
    /// Called by the engine each time its clock moves forward (strictly
    /// increasing across calls), *before* the events at that time are
    /// emitted. The contract, which streaming consumers build bounded
    /// reorder windows on:
    ///
    /// * every subsequent [`HopEvent`] — of any [`HopKind`] — carries
    ///   `ev.at >= watermark` (departure/delivery timestamps are computed
    ///   at enqueue and are never earlier than the enqueue-time clock);
    /// * timestamps inside a future event's hop record can lie *before*
    ///   the watermark by at most the packet's residence time between that
    ///   hop and the event (a delivered-gated tap reconstructing upstream
    ///   crossings therefore lags by at most the downstream path delay).
    ///
    /// The default implementation ignores the watermark.
    fn on_watermark(&mut self, watermark: SimTime) {
        let _ = watermark;
    }

    /// A scripted [`FaultEvent`](crate::FaultEvent) was applied by the
    /// engine.
    ///
    /// Called once per applied transition, in script order, at the moment
    /// the engine lazily applies it — i.e. immediately before the
    /// watermark/hop callbacks of the first packet event whose processing
    /// time is `>= ev.at`. Most transitions only matter to the network
    /// itself; measurement-plane transitions
    /// ([`FaultKind::TapDown`](crate::fault::FaultKind::TapDown) /
    /// [`FaultKind::TapUp`](crate::fault::FaultKind::TapUp)) are pure
    /// sink-side notifications. The default implementation ignores them.
    fn on_fault(&mut self, ev: &crate::fault::FaultEvent) {
        let _ = ev;
    }
}

/// Closures are sinks.
impl<F: FnMut(&HopEvent<'_>)> HopSink for F {
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        self(ev)
    }
}

/// The no-op sink: its callbacks compile away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl HopSink for NullSink {
    #[inline(always)]
    fn on_hop(&mut self, _ev: &HopEvent<'_>) {}
}

/// Fan one hop-event stream out to two sinks (`a` first, then `b`) —
/// events and watermarks both. The engine takes a single sink; tee lets
/// independent observers (a measurement plane and a capture-point pair,
/// say) share one run without knowing about each other. Nest tees for
/// more than two.
#[derive(Debug)]
pub struct TeeSink<'a, A: HopSink, B: HopSink> {
    /// First observer (sees every callback before `b`).
    pub a: &'a mut A,
    /// Second observer.
    pub b: &'a mut B,
}

impl<'a, A: HopSink, B: HopSink> TeeSink<'a, A, B> {
    /// Tee the stream into `a` then `b`.
    pub fn new(a: &'a mut A, b: &'a mut B) -> Self {
        TeeSink { a, b }
    }
}

impl<A: HopSink, B: HopSink> HopSink for TeeSink<'_, A, B> {
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        self.a.on_hop(ev);
        self.b.on_hop(ev);
    }

    fn on_watermark(&mut self, watermark: SimTime) {
        self.a.on_watermark(watermark);
        self.b.on_watermark(watermark);
    }

    fn on_fault(&mut self, ev: &crate::fault::FaultEvent) {
        self.a.on_fault(ev);
        self.b.on_fault(ev);
    }
}

/// Order-sensitive digest over the full hop-event + watermark stream.
///
/// Two runs produced the same observable stream iff their digests match —
/// the differential tests and the trace-replay bench use this to pin
/// streamed ingest to the sorted-Vec oracle, event for event. [`fold`](Self::fold) is public so callers can
/// mix in anything else order-sensitive (delivery records, counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamDigest(u64);

impl StreamDigest {
    /// Mix one word into the digest (order-sensitive).
    pub fn fold(&mut self, x: u64) {
        let mut h = self.0 ^ x;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        self.0 = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }

    /// The digest value so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl HopSink for StreamDigest {
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        self.fold(match ev.kind {
            HopKind::Arrive => 1,
            HopKind::Enqueue { port } => 2 + ((port as u64) << 8),
            HopKind::Dequeue { port, arrived } => (3 + ((port as u64) << 8)) ^ arrived.as_nanos(),
            HopKind::QueueDrop { port } => 4 + ((port as u64) << 8),
            HopKind::RouteDrop => 5,
            HopKind::Deliver => 6,
        });
        self.fold(ev.node as u64);
        self.fold(ev.at.as_nanos());
        self.fold(ev.packet.id.0);
        self.fold(u64::from(ev.packet.mark));
        self.fold(ev.packet.created_at.as_nanos());
        self.fold(ev.hops.len() as u64);
    }

    fn on_watermark(&mut self, watermark: SimTime) {
        self.fold(0xFFFF_0000 ^ watermark.as_nanos());
    }
}

/// One delivery handed to a run's delivery callback: the packet's
/// ground truth, borrowed from the engine's slab — no per-delivery
/// allocation. The slot is recycled as soon as the callback returns; copy
/// out what must outlive it.
///
/// Deliveries stream in engine **processing** order: timestamps may
/// interleave (exactly like [`HopKind::Deliver`] events). A consumer that
/// needs delivery-time order sorts what it keeps.
#[derive(Debug, Clone, Copy)]
pub struct StreamedDelivery<'a> {
    /// The packet as delivered (marks applied).
    pub packet: &'a Packet,
    /// Where it was injected.
    pub injected_node: NodeId,
    /// When it was injected.
    pub injected_at: SimTime,
    /// The switch at which it was delivered.
    pub delivered_node: NodeId,
    /// Delivery time.
    pub delivered_at: SimTime,
    /// Every switch traversal, in order.
    pub hops: &'a [Hop],
}

impl StreamedDelivery<'_> {
    /// True end-to-end delay.
    pub fn true_delay(&self) -> SimDuration {
        self.delivered_at.saturating_since(self.injected_at)
    }
}

/// Bounded aggregate of a run: drop counts, final queue counters and the
/// slab's and event queue's own accounting — no delivery buffer.
///
/// Every field is an exact property of the run, pinned like its output.
#[derive(Debug, Clone, Default)]
pub struct NetworkRunStats {
    /// Packets delivered (each was handed to the callback exactly once).
    pub delivered: u64,
    /// Packets dropped by queues, per node.
    pub queue_drops: Vec<u64>,
    /// Packets dropped for lack of a route, per node.
    pub route_drops: Vec<u64>,
    /// Packets injected.
    pub injected: u64,
    /// Engine units processed (arrivals, including the injections).
    pub events: u64,
    /// High-water mark of concurrently in-flight packets — the engine's
    /// memory bound, independent of [`Self::injected`].
    pub peak_live_slots: usize,
    /// Hop-storage (re)allocations over the whole run; amortized O(max
    /// in-flight) thanks to slot recycling.
    pub hop_allocations: u64,
    /// The event queue's traffic counters.
    pub sched: SchedStats,
    /// Packets dropped *because of* an injected fault (loss-burst deaths
    /// and dead-link blackholes) — a subset of the route drops. Zero for
    /// runs without a [`FaultScript`].
    pub fault_drops: u64,
    /// The network with final queue states (counters).
    pub network: Network,
}

/// Run-shaping options for the engine's one entry,
/// [`run_network_streamed_source`](crate::shard::run_network_streamed_source).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// Timed fault script applied as the clock advances. `None` — and an
    /// empty script — are byte-identical to a fault-free run.
    pub faults: Option<&'a FaultScript>,
    /// Cooperative termination hook: when raised (typically by an online
    /// detector inside `sink`), the loop stops before its next event.
    pub stop: Option<&'a StopFlag>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::run_network_streamed_source;
    use crate::source::SortedVecSource;
    use rlir_net::FlowKey;
    use std::net::Ipv4Addr;

    fn qcfg() -> QueueConfig {
        QueueConfig {
            rate_bps: 8_000_000_000, // 1 B/ns
            capacity_bytes: 100_000,
            processing_delay: SimDuration::ZERO,
        }
    }

    fn pkt(id: u64, at_ns: u64, dport: u16) -> Packet {
        Packet::regular(
            id,
            FlowKey::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                1000,
                Ipv4Addr::new(10, 1, 0, 1),
                dport,
            ),
            1000,
            SimTime::from_nanos(at_ns),
        )
    }

    /// A line of switches: everything forwards out port 0 until the last
    /// node, which delivers.
    struct LineForwarder {
        last: NodeId,
    }

    impl Forwarder for LineForwarder {
        fn route(&self, node: NodeId, _p: &Packet) -> RouteDecision {
            if node == self.last {
                RouteDecision::Deliver
            } else {
                RouteDecision::Forward(0)
            }
        }
    }

    fn line(n: usize, link_ns: u64) -> Network {
        let mut net = Network::default();
        for i in 0..n {
            net.add_node(format!("S{i}"));
        }
        for i in 0..n - 1 {
            net.add_port(
                i,
                Port::to_switch(qcfg(), i + 1, SimDuration::from_nanos(link_ns)),
            );
        }
        net
    }

    /// A delivery copied out of the stream, hop record included.
    #[derive(Debug, PartialEq)]
    struct Kept {
        packet: Packet,
        delivered_node: NodeId,
        delivered_at: SimTime,
        delay: SimDuration,
        hops: Vec<Hop>,
    }

    /// Stream a run and keep every delivery, sorted by `(delivery time,
    /// packet id)`.
    fn run_with(
        network: Network,
        forwarder: &impl Forwarder,
        injections: Vec<(NodeId, Packet)>,
        sink: &mut impl HopSink,
        opts: RunOptions<'_>,
    ) -> (Vec<Kept>, NetworkRunStats) {
        let mut kept = Vec::new();
        let source = SortedVecSource::new(injections);
        let stats = run_network_streamed_source(network, forwarder, source, sink, opts, |d| {
            kept.push(Kept {
                packet: *d.packet,
                delivered_node: d.delivered_node,
                delivered_at: d.delivered_at,
                delay: d.true_delay(),
                hops: d.hops.to_vec(),
            })
        });
        kept.sort_by_key(|d| (d.delivered_at, d.packet.id));
        (kept, stats)
    }

    /// [`run_with`] without a sink or options.
    fn run_network(
        network: Network,
        forwarder: &impl Forwarder,
        injections: Vec<(NodeId, Packet)>,
    ) -> (Vec<Kept>, NetworkRunStats) {
        run_with(
            network,
            forwarder,
            injections,
            &mut NullSink,
            RunOptions::default(),
        )
    }

    #[test]
    fn single_hop_line_delay() {
        let net = line(3, 100);
        let (deliveries, _) =
            run_network(net, &LineForwarder { last: 2 }, vec![(0, pkt(1, 0, 80))]);
        assert_eq!(deliveries.len(), 1);
        let d = &deliveries[0];
        // 2 queues × 1000 ns tx + 2 links × 100 ns = 2200 ns.
        assert_eq!(d.delivered_at.as_nanos(), 2200);
        assert_eq!(d.hops.len(), 2);
        assert_eq!(d.hops[0].node, 0);
        assert_eq!(d.hops[1].node, 1);
        assert_eq!(d.delay.as_nanos(), 2200);
    }

    #[test]
    fn fifo_order_preserved_across_hops() {
        let net = line(2, 10);
        let inj: Vec<(NodeId, Packet)> = (0..100).map(|i| (0usize, pkt(i, i * 13, 80))).collect();
        let (deliveries, _) = run_network(net, &LineForwarder { last: 1 }, inj);
        assert_eq!(deliveries.len(), 100);
        for w in deliveries.windows(2) {
            assert!(w[0].delivered_at <= w[1].delivered_at);
            assert!(w[0].packet.id < w[1].packet.id, "FIFO order violated");
        }
    }

    #[test]
    fn host_port_delivers_after_queueing() {
        let mut net = Network::default();
        let s = net.add_node("edge");
        net.add_port(s, Port::to_host(qcfg(), SimDuration::from_nanos(50)));
        struct F;
        impl Forwarder for F {
            fn route(&self, _n: NodeId, _p: &Packet) -> RouteDecision {
                RouteDecision::Forward(0)
            }
        }
        let (deliveries, _) = run_network(net, &F, vec![(s, pkt(1, 0, 80))]);
        assert_eq!(deliveries.len(), 1);
        // 1000 ns tx + 50 ns host link.
        assert_eq!(deliveries[0].delivered_at.as_nanos(), 1050);
        assert_eq!(deliveries[0].hops.len(), 1);
    }

    #[test]
    fn route_drop_counted() {
        let net = line(2, 10);
        struct F;
        impl Forwarder for F {
            fn route(&self, _n: NodeId, p: &Packet) -> RouteDecision {
                if p.flow.dport == 666 {
                    RouteDecision::Drop
                } else {
                    RouteDecision::Deliver
                }
            }
        }
        let (deliveries, stats) =
            run_network(net, &F, vec![(0, pkt(1, 0, 666)), (0, pkt(2, 5, 80))]);
        assert_eq!(stats.route_drops[0], 1);
        assert_eq!(deliveries.len(), 1);
    }

    #[test]
    fn queue_drop_counted_and_packet_vanishes() {
        let mut net = Network::default();
        let s = net.add_node("sw");
        let mut cfg = qcfg();
        cfg.capacity_bytes = 1000; // fits exactly one packet
        net.add_port(s, Port::to_host(cfg, SimDuration::ZERO));
        struct F;
        impl Forwarder for F {
            fn route(&self, _n: NodeId, _p: &Packet) -> RouteDecision {
                RouteDecision::Forward(0)
            }
        }
        let (deliveries, stats) = run_network(
            net,
            &F,
            vec![(s, pkt(1, 0, 80)), (s, pkt(2, 0, 80)), (s, pkt(3, 0, 80))],
        );
        assert_eq!(deliveries.len(), 1, "only the first fits");
        assert_eq!(stats.queue_drops[s], 2);
        assert_eq!(stats.network.nodes[s].ports[0].queue.regular().drops, 2);
    }

    #[test]
    fn marking_hook_applies() {
        let net = line(2, 10);
        struct Marking;
        impl Forwarder for Marking {
            fn route(&self, node: NodeId, _p: &Packet) -> RouteDecision {
                if node == 1 {
                    RouteDecision::Deliver
                } else {
                    RouteDecision::Forward(0)
                }
            }
            fn on_forward(&self, node: NodeId, _port: PortId, p: &mut Packet) {
                p.mark = node as u8 + 7;
            }
        }
        let (deliveries, _) = run_network(net, &Marking, vec![(0, pkt(1, 0, 80))]);
        assert_eq!(deliveries[0].packet.mark, 7);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let run_once = || {
            let net = line(2, 10);
            let inj: Vec<(NodeId, Packet)> = (0..50).map(|i| (0usize, pkt(i, 0, 80))).collect(); // all at t=0
            run_network(net, &LineForwarder { last: 1 }, inj)
                .0
                .iter()
                .map(|d| d.packet.id.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(run_once(), run_once());
        // Same-instant injections are served in injection order.
        assert_eq!(run_once(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn node_lookup_by_name() {
        let net = line(3, 1);
        let by_name = |name| net.nodes.iter().position(|n| n.name == name);
        assert_eq!(by_name("S1"), Some(1));
        assert_eq!(by_name("nope"), None);
    }

    #[test]
    fn hop_stream_narrates_the_path() {
        let net = line(3, 100);
        let mut log: Vec<(HopKind, NodeId, u64)> = Vec::new();
        let mut sink = |ev: &HopEvent<'_>| log.push((ev.kind, ev.node, ev.at.as_nanos()));
        let (deliveries, _) = run_with(
            net,
            &LineForwarder { last: 2 },
            vec![(0, pkt(1, 0, 80))],
            &mut sink,
            RunOptions::default(),
        );
        assert_eq!(deliveries.len(), 1);
        let kinds: Vec<HopKind> = log.iter().map(|(k, _, _)| *k).collect();
        assert_eq!(
            kinds,
            vec![
                HopKind::Arrive,
                HopKind::Enqueue { port: 0 },
                HopKind::Dequeue {
                    port: 0,
                    arrived: SimTime::ZERO
                },
                HopKind::Arrive,
                HopKind::Enqueue { port: 0 },
                HopKind::Dequeue {
                    port: 0,
                    arrived: SimTime::from_nanos(1100)
                },
                HopKind::Arrive,
                HopKind::Deliver,
            ]
        );
        // Arrive events are globally time-ordered.
        let arrivals: Vec<u64> = log
            .iter()
            .filter(|(k, _, _)| *k == HopKind::Arrive)
            .map(|(_, _, t)| *t)
            .collect();
        assert_eq!(arrivals, vec![0, 1100, 2200]);
        // The final Deliver carries the delivery time.
        assert_eq!(log.last().unwrap().2, 2200);
    }

    #[test]
    fn hop_stream_reports_drops() {
        let net = line(2, 10);
        struct F;
        impl Forwarder for F {
            fn route(&self, node: NodeId, p: &Packet) -> RouteDecision {
                if p.flow.dport == 666 {
                    RouteDecision::Drop
                } else if node == 1 {
                    RouteDecision::Deliver
                } else {
                    RouteDecision::Forward(0)
                }
            }
        }
        let mut drops = Vec::new();
        let mut sink = |ev: &HopEvent<'_>| {
            if matches!(ev.kind, HopKind::RouteDrop | HopKind::QueueDrop { .. }) {
                drops.push((ev.kind, ev.packet.id.0));
            }
        };
        run_with(
            net,
            &F,
            vec![(0, pkt(1, 0, 666)), (0, pkt(2, 5, 80))],
            &mut sink,
            RunOptions::default(),
        );
        assert_eq!(drops, vec![(HopKind::RouteDrop, 1)]);
    }

    #[test]
    fn watermark_is_monotone_and_bounds_future_events() {
        // The watermark contract streaming sinks rely on: strictly
        // increasing, and no event emitted after a watermark carries an
        // earlier `at`.
        let mut sink = WatermarkCheck::new();
        let inj: Vec<(NodeId, Packet)> = (0..50).map(|i| (0usize, pkt(i, i * 37, 80))).collect();
        let opts = RunOptions::default();
        run_with(
            line(3, 100),
            &LineForwarder { last: 2 },
            inj,
            &mut sink,
            opts,
        );
        sink.assert_contract();
    }

    #[test]
    fn streamed_run_recycles_slots() {
        // 5000 packets spread over a long span through a 3-switch line:
        // only a handful are ever concurrently in flight, and the stats
        // must reflect that — not the injected count.
        let inj: Vec<(NodeId, Packet)> = (0..5_000)
            .map(|i| (0usize, pkt(i, i * 2_500, 80)))
            .collect();
        let (deliveries, stats) = run_network(line(3, 100), &LineForwarder { last: 2 }, inj);
        assert!(deliveries.iter().all(|d| d.delivered_node == 2));
        assert_eq!(deliveries.len(), 5_000);
        assert_eq!(stats.delivered, 5_000);
        assert_eq!(stats.injected, 5_000);
        assert_eq!(
            (stats.queue_drops, stats.route_drops),
            (vec![0; 3], vec![0; 3])
        );
        // The memory bound the slab exists for: O(in-flight), not O(run).
        assert!(
            stats.peak_live_slots < 50,
            "peak {} slots for 5000 injected",
            stats.peak_live_slots
        );
        assert!(
            stats.hop_allocations < 200,
            "{} hop allocations for 5000 packets × 2 hops",
            stats.hop_allocations
        );
        assert!(stats.events >= 3 * 5_000, "arrivals at 3 switches");
    }

    use crate::fault::{FaultEvent, FaultKind};

    /// The watermark-contract sink shared by the watermark tests: strictly
    /// increasing marks, no event behind the current mark.
    struct WatermarkCheck {
        marks: Vec<u64>,
        current: u64,
        violations: usize,
    }

    impl WatermarkCheck {
        fn new() -> Self {
            WatermarkCheck {
                marks: Vec::new(),
                current: 0,
                violations: 0,
            }
        }

        fn assert_contract(&self) {
            assert!(!self.marks.is_empty());
            for w in self.marks.windows(2) {
                assert!(w[0] < w[1], "watermark not strictly increasing: {w:?}");
            }
            assert_eq!(self.violations, 0, "events ran behind the watermark");
        }
    }

    impl HopSink for WatermarkCheck {
        fn on_hop(&mut self, ev: &HopEvent<'_>) {
            if ev.at.as_nanos() < self.current {
                self.violations += 1;
            }
        }
        fn on_watermark(&mut self, watermark: SimTime) {
            self.marks.push(watermark.as_nanos());
            self.current = watermark.as_nanos();
        }
    }

    #[test]
    fn empty_fault_script_is_byte_identical() {
        let inj: Vec<(NodeId, Packet)> = (0..300)
            .map(|i| (0usize, pkt(i, (i / 5) * 700, 80)))
            .collect();
        let (plain, plain_stats) =
            run_network(line(3, 100), &LineForwarder { last: 2 }, inj.clone());
        let script = FaultScript::empty();
        let faults = RunOptions {
            faults: Some(&script),
            ..RunOptions::default()
        };
        let (deliveries, stats) = run_with(
            line(3, 100),
            &LineForwarder { last: 2 },
            inj,
            &mut NullSink,
            faults,
        );
        assert_eq!(plain, deliveries);
        assert_eq!(stats.queue_drops, plain_stats.queue_drops);
        assert_eq!(stats.route_drops, plain_stats.route_drops);
        assert_eq!(stats.fault_drops, 0);
    }

    #[test]
    fn loss_burst_drops_only_inside_window_and_keeps_watermarks_monotone() {
        // 100 packets, 1 every 1000 ns; burst at node 1 covers arrivals
        // whose node-1 arrival time lands in [20_000, 40_000).
        let inj: Vec<(NodeId, Packet)> = (0..100).map(|i| (0usize, pkt(i, i * 1000, 80))).collect();
        let script = FaultScript::new(vec![
            FaultEvent {
                at: SimTime::from_nanos(20_000),
                kind: FaultKind::LossBurstStart { node: 1 },
            },
            FaultEvent {
                at: SimTime::from_nanos(40_000),
                kind: FaultKind::LossBurstEnd { node: 1 },
            },
        ]);
        let mut sink = WatermarkCheck::new();
        let mut delivered_ids: Vec<u64> = Vec::new();
        let stats = run_network_streamed_source(
            line(3, 100),
            &LineForwarder { last: 2 },
            SortedVecSource::new(inj),
            &mut sink,
            RunOptions {
                faults: Some(&script),
                ..RunOptions::default()
            },
            |d| delivered_ids.push(d.packet.id.0),
        );
        sink.assert_contract();
        assert!(stats.fault_drops > 0, "burst killed nobody");
        assert_eq!(stats.route_drops[1], stats.fault_drops);
        assert_eq!(stats.delivered + stats.fault_drops, 100);
        // Deaths are contiguous in injection order (fixed per-hop delay):
        // exactly one id gap, of exactly the burst's width.
        delivered_ids.sort_unstable();
        let gaps: Vec<u64> = delivered_ids
            .windows(2)
            .map(|w| w[1] - w[0] - 1)
            .filter(|&g| g > 0)
            .collect();
        assert_eq!(gaps, vec![stats.fault_drops]);
    }

    #[test]
    fn link_failure_blackholes_then_recovery_restores_and_watermarks_hold() {
        let inj: Vec<(NodeId, Packet)> = (0..100).map(|i| (0usize, pkt(i, i * 1500, 80))).collect();
        // Node 1's only egress (port 0) dies and later recovers; the line
        // forwarder knows no alternative, so the default reroute
        // blackholes — counted as route drops at node 1.
        let script = FaultScript::new(vec![
            FaultEvent {
                at: SimTime::from_nanos(30_000),
                kind: FaultKind::LinkDown { node: 1, port: 0 },
            },
            FaultEvent {
                at: SimTime::from_nanos(60_000),
                kind: FaultKind::LinkUp { node: 1, port: 0 },
            },
        ]);
        let mut sink = WatermarkCheck::new();
        let mut delivered = 0u64;
        let stats = run_network_streamed_source(
            line(3, 100),
            &LineForwarder { last: 2 },
            SortedVecSource::new(inj),
            &mut sink,
            RunOptions {
                faults: Some(&script),
                ..RunOptions::default()
            },
            |_| delivered += 1,
        );
        sink.assert_contract();
        assert!(stats.fault_drops > 0, "dead link dropped nobody");
        assert_eq!(stats.route_drops[1], stats.fault_drops);
        assert_eq!(delivered + stats.fault_drops, 100);
        assert!(delivered > 50, "recovery should restore most deliveries");
    }

    #[test]
    fn reroute_hook_diverts_to_live_ecmp_sibling() {
        // A diamond: node 0 has two equal ports to nodes 1 and 2, both of
        // which forward to 3. The forwarder always picks port 0; reroute
        // falls over to port 1 when it is dead.
        let build = || {
            let mut net = Network::default();
            let s = net.add_node("s");
            let a = net.add_node("a");
            let b = net.add_node("b");
            let t = net.add_node("t");
            net.add_port(s, Port::to_switch(qcfg(), a, SimDuration::from_nanos(10)));
            net.add_port(s, Port::to_switch(qcfg(), b, SimDuration::from_nanos(10)));
            net.add_port(a, Port::to_switch(qcfg(), t, SimDuration::from_nanos(10)));
            net.add_port(b, Port::to_switch(qcfg(), t, SimDuration::from_nanos(10)));
            net
        };
        struct Ecmp;
        impl Forwarder for Ecmp {
            fn route(&self, node: NodeId, _p: &Packet) -> RouteDecision {
                if node == 3 {
                    RouteDecision::Deliver
                } else {
                    RouteDecision::Forward(0)
                }
            }
            fn reroute(
                &self,
                node: NodeId,
                _p: &Packet,
                chosen: PortId,
                dead: &crate::fault::DeadPorts<'_>,
            ) -> RouteDecision {
                // Node 0 has an equal-cost sibling; elsewhere, blackhole.
                if node == 0 && chosen == 0 && !dead.is_dead(1) {
                    RouteDecision::Forward(1)
                } else {
                    RouteDecision::Drop
                }
            }
        }
        let inj: Vec<(NodeId, Packet)> = (0..40).map(|i| (0usize, pkt(i, i * 2000, 80))).collect();
        let script = FaultScript::new(vec![FaultEvent {
            at: SimTime::from_nanos(20_000),
            kind: FaultKind::LinkDown { node: 0, port: 0 },
        }]);
        let mut via: Vec<usize> = Vec::new();
        let stats = run_network_streamed_source(
            build(),
            &Ecmp,
            SortedVecSource::new(inj),
            &mut NullSink,
            RunOptions {
                faults: Some(&script),
                ..RunOptions::default()
            },
            |d| via.push(d.hops[1].node),
        );
        assert_eq!(stats.delivered, 40, "ECMP sibling must absorb the fault");
        assert_eq!(stats.fault_drops, 0);
        assert!(
            via.contains(&1) && via.contains(&2),
            "both paths used: {via:?}"
        );
    }

    #[test]
    fn slow_switch_onset_and_clearance_shift_delays() {
        // One packet before onset, one during degradation, one after
        // clearance; spacing large enough that queues idle in between.
        let inj = vec![
            (0usize, pkt(1, 0, 80)),
            (0usize, pkt(2, 100_000, 80)),
            (0usize, pkt(3, 200_000, 80)),
        ];
        let extra = SimDuration::from_nanos(5_000);
        let script = FaultScript::new(vec![
            FaultEvent {
                at: SimTime::from_nanos(50_000),
                kind: FaultKind::SlowSwitch { node: 1, extra },
            },
            FaultEvent {
                at: SimTime::from_nanos(150_000),
                kind: FaultKind::ClearSwitch { node: 1 },
            },
        ]);
        let mut delays: Vec<u64> = Vec::new();
        run_network_streamed_source(
            line(3, 100),
            &LineForwarder { last: 2 },
            SortedVecSource::new(inj),
            &mut NullSink,
            RunOptions {
                faults: Some(&script),
                ..RunOptions::default()
            },
            |d| delays.push(d.true_delay().as_nanos()),
        );
        delays.sort_unstable();
        assert_eq!(delays.len(), 3);
        assert_eq!(delays[0], delays[1], "pre-onset and post-clear identical");
        assert_eq!(
            delays[2],
            delays[0] + extra.as_nanos(),
            "degradation adds exactly the scripted extra at the one slowed hop"
        );
    }

    #[test]
    fn stop_flag_halts_the_run_early() {
        let inj: Vec<(NodeId, Packet)> = (0..100).map(|i| (0usize, pkt(i, i * 1000, 80))).collect();
        let stop = StopFlag::new();
        let raise_at = SimTime::from_nanos(50_000);
        let handle = stop.clone();
        let mut sink = move |ev: &HopEvent<'_>| {
            if ev.at >= raise_at {
                handle.request_stop();
            }
        };
        let stats = run_network_streamed_source(
            line(3, 100),
            &LineForwarder { last: 2 },
            SortedVecSource::new(inj),
            &mut sink,
            RunOptions {
                stop: Some(&stop),
                ..RunOptions::default()
            },
            |_| {},
        );
        assert!(stats.delivered < 100, "run should have stopped early");
        assert!(stats.delivered > 10, "but not immediately");
        assert!(stop.is_set());
    }

    #[test]
    fn hop_stream_matches_ground_truth_hops() {
        let net = line(3, 100);
        let inj: Vec<(NodeId, Packet)> = (0..20).map(|i| (0usize, pkt(i, i * 400, 80))).collect();
        let mut dequeues: Vec<(u64, NodeId, u64, u64)> = Vec::new(); // (pkt, node, arrived, departed)
        let mut sink = |ev: &HopEvent<'_>| {
            if let HopKind::Dequeue { arrived, .. } = ev.kind {
                dequeues.push((
                    ev.packet.id.0,
                    ev.node,
                    arrived.as_nanos(),
                    ev.at.as_nanos(),
                ));
            }
        };
        let opts = RunOptions::default();
        let (deliveries, _) = run_with(net, &LineForwarder { last: 2 }, inj, &mut sink, opts);
        let mut from_truth: Vec<(u64, NodeId, u64, u64)> = deliveries
            .iter()
            .flat_map(|d| {
                d.hops.iter().map(|h| {
                    (
                        d.packet.id.0,
                        h.node,
                        h.arrived.as_nanos(),
                        h.departed.as_nanos(),
                    )
                })
            })
            .collect();
        dequeues.sort_unstable();
        from_truth.sort_unstable();
        assert_eq!(dequeues, from_truth);
    }
}
