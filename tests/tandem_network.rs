//! The paper's two-switch tandem (Fig. 3) as a two-node network on the
//! engine ([`TandemConfig::network`]).
//!
//! The first half checks hand-computed delays, drops and utilization. The
//! second pins the engine's keyed order at the bottleneck: when a packet
//! in flight from switch 1 reaches switch 2 at the same nanosecond as a
//! cross injection there, the in-flight packet is served first — whatever
//! the two packets' ids, references (ids ≥ 2⁵⁶) included.

use proptest::prelude::*;
use rlir::experiment::tandem_loss_rate;
use rlir_net::packet::Packet;
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::{FlowKey, SenderId};
use rlir_rli::REF_ID_BASE;
use rlir_sim::{
    run_network_streamed_source, FifoQueue, HopEvent, HopKind, Network, NetworkRunStats, NodeId,
    NullSink, QueueConfig, RunOptions, SortedVecSource, TandemConfig,
};
use std::net::Ipv4Addr;

#[path = "support/buffered_run.rs"]
mod buffered_run;

use buffered_run::{run_buffered, BufferedRun};

const SW1: NodeId = TandemConfig::SW1;
const SW2: NodeId = TandemConfig::SW2;

/// 1 B/ns switches with deep buffers, 100 ns apart.
fn cfg() -> TandemConfig {
    let queue = QueueConfig {
        rate_bps: 8_000_000_000,
        capacity_bytes: 1_000_000,
        processing_delay: SimDuration::ZERO,
    };
    TandemConfig {
        switch1: queue,
        switch2: queue,
        link_delay: SimDuration::from_nanos(100),
    }
}

fn reg(id: u64, at_ns: u64, size: u32) -> Packet {
    Packet::regular(
        id,
        FlowKey::tcp(Ipv4Addr::new(10, 1, 0, 1), 1, Ipv4Addr::new(10, 2, 0, 1), 2),
        size,
        SimTime::from_nanos(at_ns),
    )
}

fn crs(id: u64, at_ns: u64, size: u32) -> Packet {
    Packet::cross(
        id,
        FlowKey::udp(
            Ipv4Addr::new(172, 16, 0, 1),
            3,
            Ipv4Addr::new(172, 20, 0, 1),
            4,
        ),
        size,
        SimTime::from_nanos(at_ns),
    )
}

/// `upstream` enters switch 1, `cross` switch 2, upstream first on ties.
fn injections(upstream: &[Packet], cross: &[Packet]) -> Vec<(NodeId, Packet)> {
    (upstream.iter().map(|p| (SW1, *p)))
        .chain(cross.iter().map(|p| (SW2, *p)))
        .collect()
}

fn run(cfg: &TandemConfig, upstream: &[Packet], cross: &[Packet]) -> BufferedRun {
    run_buffered(
        cfg.network(),
        cfg,
        injections(upstream, cross),
        &mut NullSink,
    )
}

fn queue(net: &Network, node: NodeId) -> &FifoQueue {
    &net.nodes[node].ports[0].queue
}

#[test]
fn single_packet_end_to_end_delay() {
    let r = run(&cfg(), &[reg(1, 0, 1000)], &[]);
    assert_eq!(r.deliveries.len(), 1);
    let d = &r.deliveries[0];
    // sw1: 1000 ns tx; link: 100 ns; sw2: 1000 ns tx → 2100 ns.
    assert_eq!(d.delivered_at.as_nanos(), 2100);
    assert_eq!(d.true_delay().as_nanos(), 2100);
    assert_eq!((d.hops[0].node, d.hops[0].departed.as_nanos()), (SW1, 1000));
}

#[test]
fn cross_traffic_delays_regular() {
    // A big cross packet hogs switch 2 just before the regular packet
    // arrives there.
    let r = run(&cfg(), &[reg(1, 0, 1000)], &[crs(2, 1000, 9000)]);
    let d = r.deliveries.iter().find(|d| d.packet.is_regular()).unwrap();
    // Regular reaches sw2 at 1100; cross started service at 1000 and
    // holds the server until 10_000; regular then serialises by 11_000.
    assert_eq!(d.delivered_at.as_nanos(), 11_000);
}

#[test]
fn cross_bypasses_switch1() {
    let r = run(&cfg(), &[], &[crs(1, 50, 500)]);
    assert_eq!(r.deliveries.len(), 1);
    let d = &r.deliveries[0];
    assert_eq!(d.delivered_at.as_nanos(), 550);
    assert!(d.hops.iter().all(|h| h.node == SW2));
    assert_eq!(queue(&r.stats.network, SW1).total_arrivals(), 0);
}

/// The plane's ordered delivery tap relies on this: switch 2's one FIFO
/// host port hands deliveries to the hop stream in time order.
#[test]
fn deliveries_sorted_by_delivery_time() {
    let upstream: Vec<Packet> = (0..200).map(|i| reg(i, i * 50, 400)).collect();
    let cross: Vec<Packet> = (0..200).map(|i| crs(1000 + i, i * 73, 600)).collect();
    let mut delivered = Vec::new();
    let mut sink = |ev: &HopEvent<'_>| {
        if ev.kind == HopKind::Deliver {
            delivered.push(ev.at);
        }
    };
    let tandem = cfg();
    let injections = injections(&upstream, &cross);
    let r = run_buffered(tandem.network(), &tandem, injections, &mut sink);
    assert_eq!(delivered.len(), 400);
    assert_eq!(r.deliveries.len(), 400);
    assert!(delivered.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn loss_accounting_end_to_end() {
    // Tiny switch-2 buffer forces drops there.
    let mut c = cfg();
    c.switch2.capacity_bytes = 1500;
    // Regular 1 leaves sw1 at 1500 ns and reaches sw2 at 1600 ns;
    // regular 2 follows a full service time later (reaches sw2 at 3100).
    let upstream = [reg(1, 0, 1500), reg(2, 10, 1500)];
    // The cross packet starts sw2 service at 1550 ns and holds 1450 B of
    // backlog when regular 1 arrives → regular 1 is tail-dropped; by the
    // time regular 2 arrives the buffer has drained.
    let r = run(&c, &upstream, &[crs(3, 1550, 1500)]);
    assert!(tandem_loss_rate(&r.stats.network, FifoQueue::regular) > 0.0);
    assert_eq!(
        queue(&r.stats.network, SW2).regular().drops,
        1,
        "one drop at sw2"
    );
    let regular = r.deliveries.iter().filter(|d| d.packet.is_regular());
    assert_eq!(regular.count(), 1);
}

#[test]
fn reference_loss_rate_separate() {
    let mut c = cfg();
    c.switch1.capacity_bytes = 1000; // drop refs at sw1 when full
    let flow = FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2);
    let upstream = [
        reg(1, 0, 1000),
        Packet::reference(2, flow, SenderId(0), 0, SimTime::from_nanos(1)),
    ];
    let r = run(&c, &upstream, &[]);
    assert_eq!(
        tandem_loss_rate(&r.stats.network, FifoQueue::reference),
        1.0
    );
    assert_eq!(tandem_loss_rate(&r.stats.network, FifoQueue::regular), 0.0);
}

#[test]
fn utilization_reflects_cross_injection() {
    // 1 ms horizon; cross only: 500 packets × 1000 B × 1 ns/B = 0.5 ms busy.
    let cross: Vec<Packet> = (0..500).map(|i| crs(i, i * 2000, 1000)).collect();
    let r = run(&cfg(), &[], &cross);
    let u = queue(&r.stats.network, SW2).utilization(SimDuration::from_millis(1));
    assert!((u - 0.5).abs() < 0.01, "utilization {u}");
}

#[test]
fn empty_inputs() {
    let r = run(&cfg(), &[], &[]);
    assert!(r.deliveries.is_empty());
    assert_eq!(tandem_loss_rate(&r.stats.network, FifoQueue::regular), 0.0);
    let u = queue(&r.stats.network, SW2).utilization(SimDuration::from_millis(1));
    assert_eq!(u, 0.0);
}

/// Switch 1 adds 250 ns of processing and is shallow; switch 2's buffer
/// is `sw2_capacity`.
fn tie_cfg(sw2_capacity: u64) -> TandemConfig {
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
    }
}

fn flow(i: u64) -> FlowKey {
    let src = Ipv4Addr::new(10, 0, 0, (i % 7) as u8);
    FlowKey::tcp(src, 1000, Ipv4Addr::new(10, 9, 0, 1), 80)
}

/// Every 17th upstream packet of a mix is a reference, its id above every
/// cross id.
fn upstream_packet(i: u64, size: u32, at: SimTime) -> Packet {
    if i.is_multiple_of(17) {
        Packet::reference(REF_ID_BASE + i, flow(i), SenderId(1), i as u32, at)
    } else {
        Packet::regular(i, flow(i), size, at)
    }
}

/// Deterministic background mix on a 50 ns grid.
fn mix(seed: u64, n: usize) -> (Vec<Packet>, Vec<Packet>) {
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut at = || SimTime::from_nanos((rng() % 40_000) / 50 * 50);
    let mut upstream: Vec<Packet> = (0..n as u64)
        .map(|i| upstream_packet(i, 200 + (i as u32 * 131) % 1200, at()))
        .collect();
    let mut cross: Vec<Packet> = (0..n as u64)
        .map(|i| Packet::cross(100_000 + i, flow(i + 3), 300 + (i as u32 * 173) % 900, at()))
        .collect();
    upstream.sort_by_key(|p| p.created_at);
    cross.sort_by_key(|p| p.created_at);
    (upstream, cross)
}

/// Every switch-2 arrival in the order the engine served them: when,
/// whether it came from switch 1, and whether it is a reference.
type Sw2Arrivals = Vec<(SimTime, bool, bool)>;

fn run_recording(
    cfg: &TandemConfig,
    upstream: &[Packet],
    cross: &[Packet],
) -> (Sw2Arrivals, NetworkRunStats) {
    let mut arrivals = Vec::new();
    let mut sink = |ev: &HopEvent<'_>| {
        if ev.kind == HopKind::Arrive && ev.node == SW2 {
            let upstream = ev.injected_node == SW1;
            arrivals.push((ev.at, upstream, ev.packet.is_reference()));
        }
    };
    let stats = run_network_streamed_source(
        cfg.network(),
        cfg,
        SortedVecSource::new(injections(upstream, cross)),
        &mut sink,
        RunOptions::default(),
        |_| {},
    );
    (arrivals, stats)
}

/// Add to `background` one cross injection at every instant an upstream
/// packet reaches switch 2 — cross traffic never touches switch 1, so those
/// instants do not move — and run the tandem. Assert that every collision
/// serves the in-flight packets first and that every port conserves
/// packets; return how many collisions involved a reference and how many
/// packets switch 2 dropped.
fn assert_keyed_ties(
    cfg: &TandemConfig,
    upstream: &[Packet],
    background: &[Packet],
) -> (usize, u64) {
    let (alone, _) = run_recording(cfg, upstream, &[]);
    let mut cross = background.to_vec();
    let colliding = alone.iter().enumerate();
    cross.extend(
        colliding.map(|(i, a)| Packet::cross(200_000 + i as u64, flow(i as u64), 500, a.0)),
    );
    cross.sort_by_key(|p| p.created_at);
    let (arrivals, stats) = run_recording(cfg, upstream, &cross);

    let (mut mixed, mut with_ref) = (0, 0);
    for group in arrivals.chunk_by(|a, b| a.0 == b.0) {
        let first_cross = group.iter().position(|a| !a.1).unwrap_or(group.len());
        assert!(
            group[first_cross..].iter().all(|a| !a.1),
            "at {}: an in-flight packet was served after a cross injection",
            group[0].0
        );
        if first_cross > 0 && first_cross < group.len() {
            mixed += 1;
            with_ref += usize::from(group[..first_cross].iter().any(|a| a.2));
        }
    }
    assert_eq!(mixed, alone.chunk_by(|a, b| a.0 == b.0).count());

    // Per port, what entered leaves by the link, by delivery or by a drop.
    let net = &stats.network;
    let (q1, q2) = (queue(net, SW1), queue(net, SW2));
    assert_eq!(q1.total_arrivals(), upstream.len() as u64);
    assert_eq!(
        q1.total_arrivals() - stats.queue_drops[SW1],
        alone.len() as u64
    );
    assert_eq!(q2.total_arrivals(), (alone.len() + cross.len()) as u64);
    assert_eq!(
        stats.delivered + stats.queue_drops[SW2],
        q2.total_arrivals()
    );
    let dropped: u64 = stats.queue_drops.iter().sum();
    assert_eq!(stats.delivered + dropped, stats.injected);
    (with_ref, stats.queue_drops[SW2])
}

#[test]
fn keyed_ties_on_contended_random_mixes() {
    for seed in [3u64, 77, 2024, 0xDEAD] {
        let (upstream, cross) = mix(seed, 600);
        let (with_ref, _) = assert_keyed_ties(&tie_cfg(1 << 20), &upstream, &cross);
        assert!(
            with_ref > 0,
            "seed {seed}: no collision involved a reference"
        );
    }
}

#[test]
fn keyed_ties_under_heavy_drops() {
    for seed in [5u64, 991] {
        let (upstream, cross) = mix(seed, 800);
        // Tiny switch-2 buffer: the service order decides which packets
        // die, so a misordered collision changes the drop set.
        let (with_ref, drops) = assert_keyed_ties(&tie_cfg(2_000), &upstream, &cross);
        assert!(
            with_ref > 0,
            "seed {seed}: no collision involved a reference"
        );
        assert!(drops > 0, "seed {seed}: switch 2 dropped nothing");
    }
}

#[test]
fn keyed_ties_with_synchronized_arrivals() {
    // Every packet on a 1 µs grid, so collisions pile up on the same
    // instants.
    let upstream: Vec<Packet> = (0..200u64)
        .map(|i| upstream_packet(i, 1000, SimTime::from_nanos(i / 4 * 1_000)))
        .collect();
    let cross: Vec<Packet> = (0..200u64)
        .map(|i| {
            Packet::cross(
                100_000 + i,
                flow(i),
                650,
                SimTime::from_nanos(i / 2 * 1_000),
            )
        })
        .collect();
    let (with_ref, _) = assert_keyed_ties(&tie_cfg(8_000), &upstream, &cross);
    assert!(with_ref > 0, "no collision involved a reference");
}

#[test]
fn keyed_ties_on_contended_mix() {
    // Regular-only upstream on the 1 B/ns tandem, with a switch-2 buffer
    // small enough that the service order decides the drops.
    let mut c = cfg();
    c.switch2.capacity_bytes = 4000;
    let mut upstream: Vec<Packet> = (0..500)
        .map(|i| reg(i, i * 37 % 9000, 200 + (i as u32 * 131) % 1200))
        .collect();
    upstream.sort_by_key(|p| p.created_at);
    let mut cross: Vec<Packet> = (0..500)
        .map(|i| crs(10_000 + i, i * 53 % 9000, 300 + (i as u32 * 173) % 900))
        .collect();
    cross.sort_by_key(|p| p.created_at);
    let (_, drops) = assert_keyed_ties(&c, &upstream, &cross);
    assert!(drops > 0, "switch 2 dropped nothing");
}

/// The sink's `Deliver` events and the delivery callback narrate the same
/// deliveries in the same order, event for event.
#[test]
fn hop_sink_deliver_events_match_returned_deliveries() {
    let cfg = tie_cfg(4_000);
    let (upstream, cross) = mix(42, 500);
    let mut seen = Vec::new();
    let mut sink = |ev: &HopEvent<'_>| {
        if ev.kind == HopKind::Deliver {
            seen.push((ev.at, ev.node, ev.packet.id, ev.hops.len()));
        }
    };
    let mut delivered = Vec::new();
    let stats = run_network_streamed_source(
        cfg.network(),
        &cfg,
        SortedVecSource::new(injections(&upstream, &cross)),
        &mut sink,
        RunOptions::default(),
        |d| delivered.push((d.delivered_at, d.delivered_node, d.packet.id, d.hops.len())),
    );
    assert_eq!(delivered.len() as u64, stats.delivered);
    assert!(stats.queue_drops[SW2] > 0, "switch 2 dropped nothing");
    assert_eq!(
        seen, delivered,
        "sink and callback saw different deliveries"
    );
}

/// Both switches add 500 ns of processing; switch 2's buffer is `cap2`.
fn tight_cfg(cap2: u64) -> TandemConfig {
    let mut c = tie_cfg(cap2);
    c.switch1.capacity_bytes = 16 * 1024;
    c.switch1.processing_delay = SimDuration::from_nanos(500);
    c.switch2.processing_delay = SimDuration::from_nanos(500);
    c
}

proptest! {
    /// Many packets on a few shared instants: the keyed order does all
    /// the work at switch 2.
    #[test]
    fn keyed_ties_under_heavy_ties(
        times in proptest::collection::vec(0u64..64, 1..200),
        cap2 in 1_500u64..8_000
    ) {
        let (mut upstream, mut cross): (Vec<Packet>, Vec<Packet>) = times
            .iter()
            .zip(0u64..)
            .map(|(t, i)| {
                let (at, size) = (SimTime::from_nanos(t * 1000), 600 + (i as u32 % 5) * 100);
                (upstream_packet(i, size, at), Packet::cross(100_000 + i, flow(i % 4), size, at))
            })
            .unzip();
        upstream.sort_by_key(|p| p.created_at);
        cross.sort_by_key(|p| p.created_at);
        assert_keyed_ties(&tight_cfg(cap2), &upstream, &cross);
    }
}
