//! The `on_watermark` contract under fault regimes (proptest).
//!
//! Streaming sinks — the measurement plane, the closed-loop detector —
//! trust two properties of the engine's watermark callback: watermarks are
//! strictly increasing, and no hop event emitted after a watermark carries
//! an earlier timestamp. PR 6's fault plane gives the engine new ways to
//! perturb event flow mid-run (dead links rerouted or blackholed, loss
//! bursts killing packets at arrival, service-time degradation stretching
//! departures), so these properties are re-asserted here over *random*
//! fault scripts on a drop-heavy diamond network, together with packet
//! conservation: every injected packet is delivered or accounted to
//! exactly one drop counter, fault drops included.

use proptest::prelude::*;
use rlir_net::packet::Packet;
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
use rlir_sim::{
    run_network_streamed_source, DeadPorts, FaultEvent, FaultKind, FaultScript, Forwarder,
    HopEvent, HopSink, Network, NodeId, Port, QueueConfig, RouteDecision, RunOptions,
    SortedVecSource, StreamedDelivery,
};
use std::net::Ipv4Addr;

/// Shallow queues so random bursts genuinely overflow: the contract must
/// hold while queue drops, route drops and fault drops all fire.
fn qcfg() -> QueueConfig {
    QueueConfig {
        rate_bps: 1_000_000_000,
        capacity_bytes: 4_000,
        processing_delay: SimDuration::from_nanos(50),
    }
}

/// A diamond: 0 fans out to 1 or 2 (ECMP by packet id), both forward to 3.
/// Link faults on node 0's ports exercise the reroute path; faults on the
/// middle nodes' single egress exercise the blackhole path.
fn diamond() -> Network {
    let mut net = Network::default();
    let s = net.add_node("s");
    let a = net.add_node("a");
    let b = net.add_node("b");
    let t = net.add_node("t");
    net.add_port(s, Port::to_switch(qcfg(), a, SimDuration::from_nanos(20)));
    net.add_port(s, Port::to_switch(qcfg(), b, SimDuration::from_nanos(20)));
    net.add_port(a, Port::to_switch(qcfg(), t, SimDuration::from_nanos(20)));
    net.add_port(b, Port::to_switch(qcfg(), t, SimDuration::from_nanos(20)));
    net.add_port(t, Port::to_host(qcfg(), SimDuration::from_nanos(20)));
    net
}

struct DiamondForwarder;

impl Forwarder for DiamondForwarder {
    fn route(&self, node: NodeId, p: &Packet) -> RouteDecision {
        match node {
            0 => RouteDecision::Forward((p.id.0 % 2) as usize),
            1 | 2 => RouteDecision::Forward(0),
            _ => RouteDecision::Deliver,
        }
    }

    fn reroute(
        &self,
        node: NodeId,
        _p: &Packet,
        chosen: usize,
        dead: &DeadPorts<'_>,
    ) -> RouteDecision {
        // ECMP fallback exists only at the fan-out node.
        if node == 0 && !dead.is_dead(chosen ^ 1) {
            RouteDecision::Forward(chosen ^ 1)
        } else {
            RouteDecision::Drop
        }
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

/// Watermark-contract monitor.
#[derive(Default)]
struct Contract {
    marks: Vec<u64>,
    current: u64,
    behind: usize,
    hops: u64,
}

impl HopSink for Contract {
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        self.hops += 1;
        if ev.at.as_nanos() < self.current {
            self.behind += 1;
        }
    }
    fn on_watermark(&mut self, watermark: SimTime) {
        self.marks.push(watermark.as_nanos());
        self.current = watermark.as_nanos();
    }
}

/// One random timed fault. `(kind, node, port, at, extra)` raw draws are
/// mapped onto the diamond's real topology.
fn arb_fault() -> impl Strategy<Value = (u8, usize, usize, u64, u64)> {
    (0u8..6, 0usize..4, 0usize..2, 0u64..40_000, 1u64..2_000)
}

proptest! {
    #[test]
    fn watermarks_stay_monotone_under_random_fault_scripts(
        raw_faults in proptest::collection::vec(arb_fault(), 0..12),
        arrivals in proptest::collection::vec(0u64..40_000, 1..120),
    ) {
        let mut events = Vec::new();
        for (kind, node, port, at, extra) in raw_faults {
            let at = SimTime::from_nanos(at);
            // Middle/sink nodes have one egress; the fan-out node has two.
            let port = if node == 0 { port } else { 0 };
            let kind = match kind {
                0 => FaultKind::LinkDown { node, port },
                1 => FaultKind::LinkUp { node, port },
                2 => FaultKind::SlowSwitch { node, extra: SimDuration::from_nanos(extra) },
                3 => FaultKind::ClearSwitch { node },
                4 => FaultKind::LossBurstStart { node },
                _ => FaultKind::LossBurstEnd { node },
            };
            events.push(FaultEvent { at, kind });
        }
        let script = FaultScript::new(events);
        let injections: Vec<(NodeId, Packet)> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &at)| (0usize, pkt(i as u64, at)))
            .collect();
        let injected = injections.len() as u64;

        let mut sink = Contract::default();
        let stats = run_network_streamed_source(diamond(), &DiamondForwarder, SortedVecSource::new(injections), &mut sink, RunOptions { faults: Some(&script), ..RunOptions::default() }, &mut |_d: &StreamedDelivery<'_>| {});

        // Watermarks strictly increase …
        for w in sink.marks.windows(2) {
            prop_assert!(w[0] < w[1], "watermark regressed: {:?}", w);
        }
        // … and no event runs behind the watermark, faults or not.
        prop_assert_eq!(sink.behind, 0, "events behind the watermark");
        prop_assert!(sink.hops > 0);

        // Conservation: one fate per packet. Fault-induced kills (loss
        // bursts, blackholed dead links) are accounted *as* route drops,
        // with `fault_drops` the attributing sub-counter — so the route
        // column already contains them and the books must still balance.
        let queue: u64 = stats.queue_drops.iter().sum();
        let route: u64 = stats.route_drops.iter().sum();
        prop_assert_eq!(
            stats.delivered + queue + route,
            injected,
            "delivered {} queue {} route {} != injected {}",
            stats.delivered, queue, route, injected
        );
        prop_assert!(
            stats.fault_drops <= route,
            "fault sub-counter {} exceeds route drops {}",
            stats.fault_drops, route
        );
    }
}
