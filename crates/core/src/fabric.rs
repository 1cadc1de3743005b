//! Bridging the fat-tree topology onto the event-driven simulator.
//!
//! [`build_network`] materialises a [`FatTree`] as a `rlir-sim` network —
//! one simulator node per switch, ports in the topology's conventional
//! order, host blocks as host-facing ports. [`FatTreeFabric`] implements the
//! simulator's [`Forwarder`] using the topology's ECMP routing, and
//! optionally performs RLIR's ToS packet marking at core switches.

use crate::demux::core_mark;
use rlir_net::packet::Packet;
use rlir_net::time::SimDuration;
use rlir_sim::{DeadPorts, Forwarder, Network, NodeId, Port, PortId, QueueConfig, RouteDecision};
use rlir_topo::{FatTree, NextHop, PortTarget, Role, TopoId};

/// Build the simulator network for a fat-tree. Simulator node ids equal
/// topology ids and port order matches [`rlir_topo::TopoNode::ports`].
/// `overrides` lets experiments perturb individual switches (e.g. inject a
/// latency anomaly at one core).
pub fn build_network(
    tree: &FatTree,
    queue: QueueConfig,
    link_delay: SimDuration,
    overrides: &[(TopoId, QueueConfig)],
) -> Network {
    let mut net = Network::default();
    for node in tree.nodes() {
        net.add_node(node.name.clone());
    }
    for (id, node) in tree.nodes().iter().enumerate() {
        let cfg = overrides
            .iter()
            .find(|(t, _)| *t == id)
            .map(|(_, c)| *c)
            .unwrap_or(queue);
        for target in &node.ports {
            match target {
                PortTarget::Switch(next) => {
                    net.add_port(id, Port::to_switch(cfg, *next, link_delay));
                }
                PortTarget::Hosts => {
                    net.add_port(id, Port::to_host(cfg, link_delay));
                }
            }
        }
    }
    net
}

/// The forwarding plane: topology ECMP + optional core marking.
#[derive(Debug, Clone)]
pub struct FatTreeFabric<'t> {
    tree: &'t FatTree,
    mark_at_core: bool,
}

impl<'t> FatTreeFabric<'t> {
    /// Build; `mark_at_core` enables RLIR's packet-marking demux support.
    pub fn new(tree: &'t FatTree, mark_at_core: bool) -> Self {
        FatTreeFabric { tree, mark_at_core }
    }
}

impl Forwarder for FatTreeFabric<'_> {
    fn route(&self, node: NodeId, packet: &Packet) -> RouteDecision {
        match self.tree.next_hop(node, &packet.flow) {
            NextHop::Port(p) | NextHop::HostPort(p) => RouteDecision::Forward(p),
            NextHop::Unroutable => RouteDecision::Drop,
        }
    }

    fn on_forward(&self, node: NodeId, _port: PortId, packet: &mut Packet) {
        if self.mark_at_core
            && packet.mark == 0
            && matches!(self.tree.node(node).role, Role::Core { .. })
        {
            packet.mark = core_mark(self.tree, node);
        }
    }

    /// Fault-plane reroute: the fat-tree's path diversity is exactly its
    /// two upward ECMP decisions, so a dead *uplink* falls over to the
    /// next live sibling of the same `k/2` hashed set (scanning from the
    /// hash's choice keeps the fallback deterministic). Downward and
    /// host-facing links have a unique next hop — a dead one blackholes,
    /// which the engine accounts as a route drop.
    fn reroute(
        &self,
        node: NodeId,
        _packet: &Packet,
        chosen: PortId,
        dead: &DeadPorts<'_>,
    ) -> RouteDecision {
        let half = self.tree.half();
        let (lo, hi) = match self.tree.node(node).role {
            Role::Tor { .. } if chosen < half => (0, half),
            Role::Agg { .. } if (half..2 * half).contains(&chosen) => (half, 2 * half),
            _ => return RouteDecision::Drop,
        };
        let span = hi - lo;
        for k in 1..span {
            let p = lo + (chosen - lo + k) % span;
            if !dead.is_dead(p) {
                return RouteDecision::Forward(p);
            }
        }
        RouteDecision::Drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_net::time::SimTime;
    use rlir_net::{FlowKey, HashAlgo};
    use rlir_sim::{run_network_with, NullSink};

    fn tree() -> FatTree {
        FatTree::new(4, HashAlgo::default())
    }

    fn qcfg() -> QueueConfig {
        QueueConfig {
            rate_bps: 8_000_000_000,
            capacity_bytes: 1 << 20,
            processing_delay: SimDuration::ZERO,
        }
    }

    fn flow(t: &FatTree, s: TopoId, d: TopoId, sport: u16) -> FlowKey {
        FlowKey::tcp(t.host_addr(s, 0), sport, t.host_addr(d, 0), 80)
    }

    #[test]
    fn network_mirrors_topology() {
        let t = tree();
        let net = build_network(&t, qcfg(), SimDuration::from_nanos(100), &[]);
        assert_eq!(net.nodes.len(), t.len());
        for (id, node) in t.nodes().iter().enumerate() {
            assert_eq!(net.nodes[id].ports.len(), node.ports.len(), "{}", node.name);
            assert_eq!(net.nodes[id].name, node.name);
        }
    }

    #[test]
    fn packets_follow_topology_paths() {
        let t = tree();
        let net = build_network(&t, qcfg(), SimDuration::from_nanos(100), &[]);
        let fabric = FatTreeFabric::new(&t, false);
        let (src, dst) = (t.tor(0, 0), t.tor(3, 1));
        let f = flow(&t, src, dst, 777);
        let expected = t.path(&f).unwrap();
        let p = Packet::regular(1, f, 1000, SimTime::ZERO);
        let run = run_network_with(net, &fabric, vec![(src, p)], &mut NullSink);
        assert_eq!(run.deliveries.len(), 1);
        let hops: Vec<_> = run.deliveries[0].hops.iter().map(|h| h.node).collect();
        assert_eq!(hops, expected, "sim path must equal topology path");
        assert_eq!(run.deliveries[0].delivered_node, dst);
    }

    #[test]
    fn marking_stamps_core_only_when_enabled() {
        let t = tree();
        let (src, dst) = (t.tor(0, 0), t.tor(2, 0));
        let f = flow(&t, src, dst, 9);
        let expected_core = t.core_of_path(&f).unwrap();
        for (enabled, want_mark) in [(true, core_mark(&t, expected_core)), (false, 0)] {
            let net = build_network(&t, qcfg(), SimDuration::ZERO, &[]);
            let fabric = FatTreeFabric::new(&t, enabled);
            let p = Packet::regular(1, f, 1000, SimTime::ZERO);
            let run = run_network_with(net, &fabric, vec![(src, p)], &mut NullSink);
            assert_eq!(
                run.deliveries[0].packet.mark, want_mark,
                "enabled={enabled}"
            );
        }
    }

    #[test]
    fn queue_override_slows_one_core() {
        let t = tree();
        let (src, dst) = (t.tor(0, 0), t.tor(2, 0));
        let f = flow(&t, src, dst, 9);
        let core = t.core_of_path(&f).unwrap();
        let slow = QueueConfig {
            processing_delay: SimDuration::from_micros(500),
            ..qcfg()
        };
        let fabric = FatTreeFabric::new(&t, false);
        let base = run_network_with(
            build_network(&t, qcfg(), SimDuration::ZERO, &[]),
            &fabric,
            vec![(src, Packet::regular(1, f, 1000, SimTime::ZERO))],
            &mut NullSink,
        );
        let slowed = run_network_with(
            build_network(&t, qcfg(), SimDuration::ZERO, &[(core, slow)]),
            &fabric,
            vec![(src, Packet::regular(1, f, 1000, SimTime::ZERO))],
            &mut NullSink,
        );
        let d0 = base.deliveries[0].true_delay().as_nanos();
        let d1 = slowed.deliveries[0].true_delay().as_nanos();
        assert_eq!(d1 - d0, 500_000, "anomaly must add exactly 500 µs");
    }

    #[test]
    fn dead_tor_uplink_reroutes_over_ecmp_sibling() {
        use rlir_sim::fault::{FaultEvent, FaultKind, FaultScript};
        use rlir_sim::{run_network_streamed_source, RunOptions, SortedVecSource};
        let t = tree();
        let (src, dst) = (t.tor(0, 0), t.tor(3, 1));
        // Find a flow whose first upward choice is ToR port 0, then kill
        // that uplink: its ECMP sibling (port 1 at k=4) must absorb it.
        let f = (0..64u16)
            .map(|sport| flow(&t, src, dst, sport))
            .find(|f| t.node(src).hash.select(f, t.half()) == 0)
            .expect("some flow hashes to uplink 0");
        let inj: Vec<(usize, Packet)> = (0..20)
            .map(|i| {
                (
                    src,
                    Packet::regular(i, f, 1000, SimTime::from_nanos(i * 50_000)),
                )
            })
            .collect();
        let script = FaultScript::new(vec![FaultEvent {
            at: SimTime::from_nanos(500_000),
            kind: FaultKind::LinkDown { node: src, port: 0 },
        }]);
        let fabric = FatTreeFabric::new(&t, false);
        let mut first_aggs: Vec<usize> = Vec::new();
        let stats = run_network_streamed_source(
            build_network(&t, qcfg(), SimDuration::from_nanos(100), &[]),
            &fabric,
            SortedVecSource::new(inj),
            &mut NullSink,
            RunOptions {
                faults: Some(&script),
                ..RunOptions::default()
            },
            |d| first_aggs.push(d.hops[1].node),
        );
        assert_eq!(stats.delivered, 20, "sibling uplink must absorb the fault");
        assert_eq!(stats.fault_drops, 0);
        let (a0, a1) = (t.agg(0, 0), t.agg(0, 1));
        assert!(first_aggs.contains(&a0) && first_aggs.contains(&a1));
    }

    #[test]
    fn dead_downlink_blackholes_with_drop_accounting() {
        use rlir_sim::fault::{FaultEvent, FaultKind, FaultScript};
        use rlir_sim::{run_network_streamed_source, RunOptions, SortedVecSource};
        let t = tree();
        let (src, dst) = (t.tor(0, 0), t.tor(3, 1));
        let f = flow(&t, src, dst, 777);
        let core = t.core_of_path(&f).unwrap();
        // The core's downlink to pod 3 has no equal-cost alternative.
        let script = FaultScript::new(vec![FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::LinkDown {
                node: core,
                port: 3,
            },
        }]);
        let inj: Vec<(usize, Packet)> = (0..5)
            .map(|i| {
                (
                    src,
                    Packet::regular(i, f, 1000, SimTime::from_nanos(i * 10_000)),
                )
            })
            .collect();
        let fabric = FatTreeFabric::new(&t, false);
        let stats = run_network_streamed_source(
            build_network(&t, qcfg(), SimDuration::from_nanos(100), &[]),
            &fabric,
            SortedVecSource::new(inj),
            &mut NullSink,
            RunOptions {
                faults: Some(&script),
                ..RunOptions::default()
            },
            |_| {},
        );
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.fault_drops, 5);
        assert_eq!(stats.route_drops[core], 5);
    }

    #[test]
    fn unroutable_packets_dropped_at_ingress() {
        let t = tree();
        let net = build_network(&t, qcfg(), SimDuration::ZERO, &[]);
        let fabric = FatTreeFabric::new(&t, false);
        let f = FlowKey::tcp(
            t.host_addr(t.tor(0, 0), 0),
            1,
            "8.8.8.8".parse().unwrap(),
            53,
        );
        let run = run_network_with(
            net,
            &fabric,
            vec![(t.tor(0, 0), Packet::regular(1, f, 100, SimTime::ZERO))],
            &mut NullSink,
        );
        assert!(run.deliveries.is_empty());
        assert_eq!(run.route_drops[t.tor(0, 0)], 1);
    }
}
