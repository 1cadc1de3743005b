//! The two-switch tandem of the paper's Fig. 3 as a two-node [`Network`]:
//! regular traffic and the RLI sender's references enter
//! [`TandemConfig::SW1`], cross traffic enters the bottleneck
//! [`TandemConfig::SW2`] directly, and both switches forward out port 0.
//! Switch 2's only port faces the host with no link delay, so a delivery's
//! instant is its departure from switch 2.

use crate::network::{Forwarder, Network, NodeId, Port, RouteDecision};
use crate::queue::QueueConfig;
use rlir_net::packet::Packet;
use rlir_net::time::SimDuration;

/// Tandem configuration — and the tandem's forwarder.
#[derive(Debug, Clone, Copy)]
pub struct TandemConfig {
    /// First (sender-side) switch.
    pub switch1: QueueConfig,
    /// Second (bottleneck, receiver-side) switch.
    pub switch2: QueueConfig,
    /// Propagation delay of the link between them.
    pub link_delay: SimDuration,
}

impl TandemConfig {
    /// The sender-side switch.
    pub const SW1: NodeId = 0;
    /// The bottleneck switch, where deliveries happen.
    pub const SW2: NodeId = 1;

    /// Paper-style defaults: two OC-192 switches, 5 µs of fibre between them.
    pub fn paper() -> Self {
        TandemConfig {
            switch1: QueueConfig::oc192(),
            switch2: QueueConfig::oc192(),
            link_delay: SimDuration::from_micros(5),
        }
    }

    /// The two switches as a network, routed by `self`.
    pub fn network(&self) -> Network {
        let mut net = Network::default();
        let (sw1, sw2) = (net.add_node("sw1"), net.add_node("sw2"));
        net.add_port(sw1, Port::to_switch(self.switch1, sw2, self.link_delay));
        net.add_port(sw2, Port::to_host(self.switch2, SimDuration::ZERO));
        net
    }
}

impl Forwarder for TandemConfig {
    fn route(&self, _node: NodeId, _packet: &Packet) -> RouteDecision {
        RouteDecision::Forward(0)
    }
}
