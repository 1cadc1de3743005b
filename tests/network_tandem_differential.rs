//! Differential test: the event-driven `Network` engine on a degenerate
//! 2-switch topology reproduces the streaming tandem
//! ([`rlir_sim::run_tandem_with`]) **byte-identically** — same deliveries,
//! same queue counters — which pins the keyed engine against the
//! long-standing tandem oracle.
//!
//! Mapping: node 0 = switch 1 (one port to node 1 with the tandem's link
//! delay), node 1 = switch 2 (host-facing port with zero link delay, so the
//! delivery instant equals switch 2's departure). Upstream packets inject
//! at node 0, cross traffic injects at node 1 directly — exactly the
//! tandem's wiring.
//!
//! Tie-breaking caveat (checked here with deliberate collisions): at equal
//! switch-2 arrival instants the engine serves the earlier-injected packet
//! first (an in-flight upstream packet precedes a cross injection), while
//! the tandem merge compares packet ids — the two agree whenever upstream
//! ids sort below cross ids, which is how this suite (and any caller that
//! wants engine-equivalence) numbers them.

use rlir_net::packet::Packet;
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::{FlowKey, SenderId};
use rlir_sim::{
    run_network_with, run_tandem_two_pass, run_tandem_with, Delivery, Forwarder, HopEvent, HopKind,
    Network, NodeId, NullSink, Port, QueueConfig, RouteDecision, TandemConfig,
};
use std::net::Ipv4Addr;

struct Chain;
impl Forwarder for Chain {
    fn route(&self, _node: NodeId, _p: &Packet) -> RouteDecision {
        RouteDecision::Forward(0)
    }
}

fn tandem_cfg(sw2_capacity: u64) -> TandemConfig {
    TandemConfig {
        switch1: QueueConfig {
            rate_bps: 8_000_000_000,
            capacity_bytes: 20_000,
            processing_delay: SimDuration::from_nanos(250),
        },
        switch2: QueueConfig {
            rate_bps: 8_000_000_000,
            capacity_bytes: sw2_capacity,
            processing_delay: SimDuration::ZERO,
        },
        link_delay: SimDuration::from_nanos(100),
        horizon: SimDuration::from_millis(1),
        record_cross: true,
    }
}

/// The tandem as a 2-node network.
fn tandem_network(cfg: &TandemConfig) -> Network {
    let mut net = Network::default();
    let sw1 = net.add_node("sw1");
    let sw2 = net.add_node("sw2");
    net.add_port(sw1, Port::to_switch(cfg.switch1, sw2, cfg.link_delay));
    net.add_port(sw2, Port::to_host(cfg.switch2, SimDuration::ZERO));
    net
}

/// Deterministic pseudo-random mix. Upstream ids sort below cross ids so
/// both implementations break switch-2 arrival ties identically (see
/// module docs); timestamps are multiples of 50 ns so ties actually occur.
fn mix(seed: u64, n: usize) -> (Vec<Packet>, Vec<Packet>) {
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let flow = |i: u64| {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, (i % 7) as u8),
            1000,
            Ipv4Addr::new(10, 9, 0, 1),
            80,
        )
    };
    let mut upstream: Vec<Packet> = (0..n as u64)
        .map(|i| {
            let at = SimTime::from_nanos((rng() % 40_000) / 50 * 50);
            let size = 200 + (rng() % 1200) as u32;
            if i % 17 == 0 {
                Packet::reference(i, flow(i), SenderId(1), i as u32, at)
            } else {
                Packet::regular(i, flow(i), size, at)
            }
        })
        .collect();
    upstream.sort_by_key(|p| (p.created_at, p.id));
    let mut cross: Vec<Packet> = (0..n as u64)
        .map(|i| {
            let at = SimTime::from_nanos((rng() % 40_000) / 50 * 50);
            let size = 300 + (rng() % 900) as u32;
            Packet::cross(100_000 + i, flow(i + 3), size, at)
        })
        .collect();
    cross.sort_by_key(|p| (p.created_at, p.id));
    (upstream, cross)
}

/// Run the network form and convert to tandem [`Delivery`] records.
fn network_deliveries(
    cfg: &TandemConfig,
    upstream: &[Packet],
    cross: &[Packet],
) -> (Vec<Delivery>, [u64; 4]) {
    let injections: Vec<(NodeId, Packet)> = upstream
        .iter()
        .map(|p| (0usize, *p))
        .chain(cross.iter().map(|p| (1usize, *p)))
        .collect();
    let run = run_network_with(tandem_network(cfg), &Chain, injections, &mut NullSink);
    let deliveries = run
        .deliveries
        .iter()
        .map(|d| Delivery {
            packet: d.packet,
            sent_at: d.injected_at,
            sw1_egress: d.hops.iter().find(|h| h.node == 0).map(|h| h.departed),
            delivered_at: d.delivered_at,
        })
        .collect();
    let counters = [
        run.network.nodes[0].ports[0].queue.total_arrivals(),
        run.queue_drops[0],
        run.network.nodes[1].ports[0].queue.total_arrivals(),
        run.queue_drops[1],
    ];
    (deliveries, counters)
}

fn assert_equivalent(cfg: &TandemConfig, upstream: Vec<Packet>, cross: Vec<Packet>) {
    // Oracle 1: the seed's two-pass tandem. Oracle 2: the streaming tandem.
    let two_pass = run_tandem_two_pass(cfg, upstream.iter().copied(), cross.iter().copied());
    let mut streaming = Vec::new();
    let stats = run_tandem_with(cfg, upstream.iter().copied(), cross.iter().copied(), |d| {
        streaming.push(*d)
    });
    assert_eq!(streaming, two_pass.deliveries, "tandem self-check");

    let (net, counters) = network_deliveries(cfg, &upstream, &cross);
    assert_eq!(
        net, streaming,
        "network deliveries diverge from the tandem oracle"
    );
    assert_eq!(counters[0], stats.sw1.total_arrivals(), "sw1 arrivals");
    assert_eq!(counters[1], stats.sw1.total_drops(), "sw1 drops");
    assert_eq!(counters[2], stats.sw2.total_arrivals(), "sw2 arrivals");
    assert_eq!(counters[3], stats.sw2.total_drops(), "sw2 drops");
}

#[test]
fn network_reproduces_tandem_on_contended_random_mixes() {
    for seed in [3u64, 77, 2024, 0xDEAD] {
        let (upstream, cross) = mix(seed, 600);
        assert_equivalent(&tandem_cfg(1 << 20), upstream, cross);
    }
}

#[test]
fn network_reproduces_tandem_under_heavy_drops() {
    for seed in [5u64, 991] {
        let (upstream, cross) = mix(seed, 800);
        // Tiny switch-2 buffer: the merge order decides exactly which
        // packets die, so any ordering divergence becomes a hard failure.
        assert_equivalent(&tandem_cfg(2_000), upstream, cross);
    }
}

#[test]
fn network_reproduces_tandem_with_synchronized_ties() {
    // Every packet created on a 1 µs grid: switch-2 arrival collisions
    // between cross and in-flight upstream packets are guaranteed.
    let flow = FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, 1),
        1,
        Ipv4Addr::new(10, 9, 0, 1),
        80,
    );
    let upstream: Vec<Packet> = (0..200u64)
        .map(|i| Packet::regular(i, flow, 1000, SimTime::from_nanos(i / 4 * 1_000)))
        .collect();
    let cross: Vec<Packet> = (0..200u64)
        .map(|i| Packet::cross(100_000 + i, flow, 650, SimTime::from_nanos(i / 2 * 1_000)))
        .collect();
    assert_equivalent(&tandem_cfg(8_000), upstream, cross);
}

#[test]
fn hop_sink_deliver_events_match_returned_deliveries() {
    let cfg = tandem_cfg(4_000);
    let (upstream, cross) = mix(42, 500);
    let injections: Vec<(NodeId, Packet)> = upstream
        .iter()
        .map(|p| (0usize, *p))
        .chain(cross.iter().map(|p| (1usize, *p)))
        .collect();
    let mut seen: Vec<(u64, u64)> = Vec::new();
    let mut sink = |ev: &HopEvent<'_>| {
        if ev.kind == HopKind::Deliver {
            seen.push((ev.at.as_nanos(), ev.packet.id.0));
        }
    };
    let run = run_network_with(tandem_network(&cfg), &Chain, injections, &mut sink);
    let mut expected: Vec<(u64, u64)> = run
        .deliveries
        .iter()
        .map(|d| (d.delivered_at.as_nanos(), d.packet.id.0))
        .collect();
    seen.sort_unstable();
    expected.sort_unstable();
    assert_eq!(seen, expected, "sink saw a different delivery set");
}
