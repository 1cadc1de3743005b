//! A buffered run for tests that read deliveries after the fact: the
//! engine's one entry, `run_network_streamed_source`, with every delivery
//! copied out of the stream (hop record included) and sorted by `(delivery
//! time, packet id)`. Product code consumes the stream in place. Include it
//! with `#[path]`.

#![allow(dead_code)]

use rlir_net::packet::Packet;
use rlir_net::time::{SimDuration, SimTime};
use rlir_sim::{
    run_network_streamed_source, Forwarder, Hop, HopSink, Network, NetworkRunStats, NodeId,
    RunOptions, SortedVecSource,
};

/// One delivery, owned.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// The packet as delivered (marks applied).
    pub packet: Packet,
    /// When it entered the network.
    pub injected_at: SimTime,
    /// Delivery time.
    pub delivered_at: SimTime,
    /// Every switch traversal, in order.
    pub hops: Vec<Hop>,
}

impl Delivered {
    /// True end-to-end delay.
    pub fn true_delay(&self) -> SimDuration {
        self.delivered_at.saturating_since(self.injected_at)
    }
}

/// Every delivery of a run, in `(delivery time, packet id)` order, and the
/// run's stats.
pub struct BufferedRun {
    /// The deliveries, sorted.
    pub deliveries: Vec<Delivered>,
    /// Drops, final queue counters and the engine's own accounting.
    pub stats: NetworkRunStats,
}

/// Run `injections` (each enters at its `created_at`) through `network`,
/// `sink` watching the hop-event stream, and keep every delivery.
pub fn run_buffered(
    network: Network,
    forwarder: &impl Forwarder,
    injections: impl IntoIterator<Item = (NodeId, Packet)>,
    sink: &mut impl HopSink,
) -> BufferedRun {
    let mut deliveries = Vec::new();
    let stats = run_network_streamed_source(
        network,
        forwarder,
        SortedVecSource::new(injections),
        sink,
        RunOptions::default(),
        |d| {
            deliveries.push(Delivered {
                packet: *d.packet,
                injected_at: d.injected_at,
                delivered_at: d.delivered_at,
                hops: d.hops.to_vec(),
            })
        },
    );
    deliveries.sort_by_key(|d| (d.delivered_at, d.packet.id));
    BufferedRun { deliveries, stats }
}
