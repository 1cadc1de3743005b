//! Property-based tests over the core data structures and invariants,
//! spanning crates (proptest).

use proptest::prelude::*;
use rlir_net::packet::Packet;
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::wire::{Ipv4Header, IPV4_HEADER_LEN};
use rlir_net::{FlowKey, HashAlgo, Ipv4Prefix, PrefixTrie, Protocol};
use rlir_rli::{DelaySample, Interpolator};
use rlir_sim::{
    run_network_streamed_source, FifoQueue, Forwarder, Hop, Network, NodeId, NullSink, PacketSlab,
    Port, PortId, QueueConfig, RouteDecision, RunOptions, SortedVecSource, Verdict,
};
use rlir_stats::{Ecdf, StreamingStats};
use rlir_topo::{FatTree, Role};
use std::net::Ipv4Addr;

#[path = "support/seed_fifo_oracle.rs"]
mod seed_fifo_oracle;

use seed_fifo_oracle::SeedFifoQueue;

fn arb_flow() -> impl Strategy<Value = FlowKey> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u8>(),
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(|(s, d, p, sp, dp)| FlowKey {
            src: Ipv4Addr::from(s),
            dst: Ipv4Addr::from(d),
            proto: Protocol::from_number(p),
            sport: sp,
            dport: dp,
        })
}

proptest! {
    // ---- rlir-net ------------------------------------------------------

    #[test]
    fn flow_key_bytes_round_trip(flow in arb_flow()) {
        let b = flow.to_bytes();
        prop_assert_eq!(FlowKey::from_bytes(&b), flow);
    }

    #[test]
    fn wire_detects_any_single_byte_corruption(flow in arb_flow(), ident in any::<u16>(), tos in any::<u8>(),
                                               byte in 0..IPV4_HEADER_LEN, flip in 1u8..=255) {
        // A one-byte change moves one 16-bit word by less than 0xFFFF, so
        // the one's-complement checksum (or the version byte) always sees it.
        let hdr = Ipv4Header { tos, total_len: 40, ident, ttl: 64, proto: flow.proto, src: flow.src, dst: flow.dst };
        let mut enc = [0u8; IPV4_HEADER_LEN];
        hdr.encode_into(&mut enc);
        prop_assert_eq!(Ipv4Header::decode(&enc).expect("own encoding decodes").0, hdr);
        enc[byte] ^= flip;
        prop_assert!(Ipv4Header::decode(&enc).is_err());
    }

    #[test]
    fn trie_agrees_with_linear_scan(
        entries in proptest::collection::vec((any::<u32>(), 8u8..=32), 1..40),
        probes in proptest::collection::vec(any::<u32>(), 1..60)
    ) {
        let prefixes: Vec<(Ipv4Prefix, usize)> = entries
            .iter()
            .enumerate()
            .map(|(i, (a, l))| (Ipv4Prefix::new(Ipv4Addr::from(*a), *l).unwrap(), i))
            .collect();
        let mut trie = PrefixTrie::new();
        for (p, v) in &prefixes {
            trie.insert(*p, *v);
        }
        for probe in probes {
            let addr = Ipv4Addr::from(probe);
            // Reference: the longest matching prefix wins; among duplicates
            // the last-inserted value wins.
            let expected = prefixes
                .iter()
                .filter(|(p, _)| p.contains(addr))
                .max_by_key(|(p, v)| (p.len(), *v))
                .map(|(_, v)| *v);
            prop_assert_eq!(trie.lookup(addr).copied(), expected, "addr {}", addr);
        }
    }

    #[test]
    fn prefix_nth_stays_inside(a in any::<u32>(), l in 0u8..=32, i in any::<u64>()) {
        let p = Ipv4Prefix::new(Ipv4Addr::from(a), l).unwrap();
        prop_assert!(p.contains(p.nth(i)));
    }

    // ---- rlir-stats ------------------------------------------------------

    #[test]
    fn welford_merge_equals_sequential(xs in proptest::collection::vec(-1e9f64..1e9, 2..200),
                                       split in 1usize..199) {
        let split = split.min(xs.len() - 1);
        let mut whole = StreamingStats::new();
        for &x in &xs { whole.push(x); }
        let (a, b) = xs.split_at(split);
        let mut sa = StreamingStats::new();
        let mut sb = StreamingStats::new();
        for &x in a { sa.push(x); }
        for &x in b { sb.push(x); }
        sa.merge(&sb);
        prop_assert_eq!(sa.count(), whole.count());
        prop_assert!((sa.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-6);
        let (va, vw) = (sa.variance().unwrap(), whole.variance().unwrap());
        prop_assert!((va - vw).abs() <= 1e-6 * vw.max(1.0), "{} vs {}", va, vw);
    }

    #[test]
    fn ecdf_is_monotone_and_normalised(xs in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let e = Ecdf::new(xs);
        let s = e.series(64);
        for w in s.points.windows(2) {
            prop_assert!(w[1].0 >= w[0].0);
            prop_assert!(w[1].1 >= w[0].1);
        }
        prop_assert_eq!(s.points.last().unwrap().1, 1.0);
        // Quantiles are monotone too.
        let (q1, q5, q9) = (e.quantile(0.1).unwrap(), e.quantile(0.5).unwrap(), e.quantile(0.9).unwrap());
        prop_assert!(q1 <= q5 && q5 <= q9);
    }

    // ---- rlir-rli --------------------------------------------------------

    #[test]
    fn interpolation_bounded_by_endpoints(
        d1 in -1e6f64..1e6, d2 in -1e6f64..1e6,
        t1 in 0u64..1_000_000, span in 1u64..1_000_000, frac in 0.0f64..1.0
    ) {
        let left = DelaySample::new(SimTime::from_nanos(t1), d1);
        let right = DelaySample::new(SimTime::from_nanos(t1 + span), d2);
        let t = SimTime::from_nanos(t1 + (span as f64 * frac) as u64);
        let est = Interpolator::Linear.estimate(left, right, t);
        let (lo, hi) = (d1.min(d2), d1.max(d2));
        prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9, "est {} outside [{}, {}]", est, lo, hi);
    }

    // ---- rlir-sim --------------------------------------------------------

    #[test]
    fn fifo_queue_is_causal_and_ordered(
        arrivals in proptest::collection::vec((0u64..1_000_000, 40u32..1500), 1..200)
    ) {
        let mut sorted = arrivals;
        sorted.sort();
        let mut q = FifoQueue::new(QueueConfig {
            rate_bps: 1_000_000_000,
            capacity_bytes: 64 * 1024,
            processing_delay: SimDuration::from_nanos(100),
        });
        let flow = FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2);
        let mut last_depart = SimTime::ZERO;
        for (i, (at, size)) in sorted.iter().enumerate() {
            let at = SimTime::from_nanos(*at);
            let p = Packet::regular(i as u64, flow, *size, at);
            match q.offer(at, &p) {
                Verdict::Departs(d) => {
                    // Causality: departure after arrival + processing + tx.
                    prop_assert!(d >= at + SimDuration::from_nanos(100));
                    // FIFO: departures never reorder.
                    prop_assert!(d >= last_depart);
                    last_depart = d;
                }
                Verdict::Dropped => {}
            }
        }
        // Conservation: every offered packet is either accepted or dropped,
        // and the byte counter only contains accepted packets.
        prop_assert_eq!(q.total_arrivals(), sorted.len() as u64);
        prop_assert!(q.total_drops() <= q.total_arrivals());
        let accepted_bytes: u64 = q.regular().bytes;
        let offered_bytes: u64 = sorted.iter().map(|(_, s)| *s as u64).sum();
        prop_assert!(accepted_bytes <= offered_bytes);
    }

    #[test]
    fn fifo_queue_matches_the_seed_oracle_at_edge_sizes_and_rates(
        rate in prop_oneof![Just(1u64), Just(9_953_000_000), Just(1_800_000_000_000)],
        capacity in prop_oneof![Just(64u64 * 1024), Just(1 << 33)],
        processing_ns in prop_oneof![Just(0u64), Just(100)],
        // (size index, gap mantissa, gap decimal exponent): gaps from 0 ns
        // to 10^16 ns, so every rate sees both back-to-back and idle offers.
        offers in proptest::collection::vec((0usize..8, 0u64..1_000, 0u32..14), 1..120),
    ) {
        // 2048 is where the deleted memo table ended, 2^30 where the
        // 64-bit product stops fitting.
        const SIZES: [u32; 8] = [0, 1, 2047, 2048, 65_535, (1 << 30) - 1, 1 << 30, u32::MAX];
        let cfg = QueueConfig {
            rate_bps: rate,
            capacity_bytes: capacity,
            processing_delay: SimDuration::from_nanos(processing_ns),
        };
        let mut q = FifoQueue::new(cfg);
        let mut seed = SeedFifoQueue::new(cfg);
        let flow = FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2);
        let mut at = SimTime::ZERO;
        let mut seed_peak = 0u64;
        for (i, &(size, mantissa, exp)) in offers.iter().enumerate() {
            at += SimDuration::from_nanos(mantissa * 10u64.pow(exp));
            let p = Packet::regular(i as u64, flow, SIZES[size], at);
            // The oracle keeps no backlog peak: what it would have seen.
            let seed_backlog = seed.backlog_bytes(at + cfg.processing_delay) + p.size as u64;
            let want = seed.offer(at, &p);
            if want != Verdict::Dropped {
                seed_peak = seed_peak.max(seed_backlog);
            }
            prop_assert_eq!(q.offer(at, &p), want, "offer {} of {} B at {}", i, p.size, at);
            prop_assert_eq!(q.busy(), seed.busy());
            prop_assert_eq!(q.peak_backlog(), seed_peak);
            prop_assert_eq!(q.backlog_bytes(at), seed.backlog_bytes(at));
        }
        prop_assert_eq!(q.regular().drops, seed.regular().drops);
        prop_assert_eq!(q.regular().bytes, seed.regular().bytes);
    }

    // ---- rlir-topo -------------------------------------------------------

    #[test]
    fn reverse_ecmp_matches_forward_for_random_flows(
        k in prop_oneof![Just(4usize), Just(6), Just(8)],
        seed in any::<u32>(),
        sport in 1024u16..60000,
        src_pod in 0usize..3, dst_pod_off in 1usize..3
    ) {
        let tree = FatTree::new(k, HashAlgo::Crc32 { seed });
        let src_pod = src_pod % k;
        let dst_pod = (src_pod + dst_pod_off) % k;
        prop_assume!(src_pod != dst_pod);
        let src_tor = tree.tor(src_pod, 0);
        let dst_tor = tree.tor(dst_pod, tree.half() - 1);
        let flow = FlowKey::tcp(
            tree.host_addr(src_tor, 1),
            sport,
            tree.host_addr(dst_tor, 0),
            443,
        );
        let path = tree.path(&flow).expect("routable");
        let rev = tree.reverse_ecmp(&flow).expect("reversible");
        prop_assert_eq!(rev.src_tor, path[0]);
        prop_assert_eq!(rev.agg, Some(path[1]));
        let fwd_core = path.iter().copied().find(|&n| matches!(tree.node(n).role, Role::Core { .. }));
        prop_assert_eq!(rev.core, fwd_core);
    }

    #[test]
    fn fat_tree_paths_are_valley_free(
        k in prop_oneof![Just(4usize), Just(6)],
        sport in 1024u16..60000, a in 0usize..6, b in 0usize..6
    ) {
        let tree = FatTree::new(k, HashAlgo::default());
        let tors: Vec<_> = tree.tors().collect();
        let (src, dst) = (tors[a % tors.len()], tors[b % tors.len()]);
        prop_assume!(src != dst);
        let flow = FlowKey::tcp(tree.host_addr(src, 0), sport, tree.host_addr(dst, 0), 80);
        let path = tree.path(&flow).expect("routable");
        // Valley-free: rank goes up then down exactly once (ToR=0, Agg=1,
        // Core=2).
        let rank = |n: usize| match tree.node(n).role {
            Role::Tor { .. } => 0i32,
            Role::Agg { .. } => 1,
            Role::Core { .. } => 2,
        };
        let ranks: Vec<i32> = path.iter().map(|&n| rank(n)).collect();
        let mut went_down = false;
        for w in ranks.windows(2) {
            prop_assert_eq!((w[1] - w[0]).abs(), 1, "non-adjacent tiers in {:?}", ranks);
            if w[1] < w[0] { went_down = true; }
            if w[1] > w[0] { prop_assert!(!went_down, "valley in path {:?}", ranks); }
        }
        prop_assert_eq!(*ranks.first().unwrap(), 0);
        prop_assert_eq!(*ranks.last().unwrap(), 0);
    }
}

/// The queue's 64-bit arithmetic reproduces the seed's u128 math bit for
/// bit at four fixed rates that stress rounding, over 2 000 offers each.
#[test]
fn fifo_queue_matches_the_seed_oracle_at_fixed_rates() {
    let flow = FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2);
    for rate in [1_000_000u64, 9_953_000_000, 8_000_000_000, 123_456_789] {
        let qc = QueueConfig {
            rate_bps: rate,
            capacity_bytes: 20_000,
            processing_delay: SimDuration::from_nanos(300),
        };
        let mut fast = FifoQueue::new(qc);
        let mut seed = SeedFifoQueue::new(qc);
        let mut at = 0u64;
        for i in 0..2000u64 {
            at += (i * 37) % 1500;
            let size = 40 + ((i * 131) % 1461) as u32;
            let t = SimTime::from_nanos(at);
            let p = Packet::regular(i, flow, size, t);
            assert_eq!(
                fast.offer(t, &p),
                seed.offer(t, &p),
                "offer {i} rate {rate}"
            );
            assert_eq!(
                fast.backlog_bytes(t),
                seed.backlog_bytes(t),
                "backlog {i} rate {rate}"
            );
        }
        assert_eq!(fast.regular().drops, seed.regular().drops);
        assert_eq!(fast.regular().bytes, seed.regular().bytes);
        let horizon = SimDuration::from_millis(10);
        assert_eq!(fast.utilization(horizon), seed.utilization(horizon));
    }
}

// ---- rlir-sim engine: the slab's memory bound and free list ------------

fn qcfg(capacity_bytes: u64) -> QueueConfig {
    QueueConfig {
        rate_bps: 8_000_000_000, // 1 B/ns
        capacity_bytes,
        processing_delay: SimDuration::from_nanos(50),
    }
}

fn pkt(id: u64, at_ns: u64, dport: u16) -> Packet {
    Packet::regular(
        id,
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, (id % 250) as u8 + 1),
            1000 + (id % 7) as u16,
            Ipv4Addr::new(10, 1, 0, 1),
            dport,
        ),
        400 + (id % 5) as u32 * 300,
        SimTime::from_nanos(at_ns),
    )
}

/// A 4-switch diamond: 0 fans out to 1 or 2 by dport parity, both feed 3,
/// which delivers via a host port. Port 666 is unroutable at node 0, and a
/// marking hook stamps the first forwarding switch.
fn diamond(capacity_bytes: u64) -> Network {
    let mut net = Network::default();
    let s0 = net.add_node("s0");
    let s1 = net.add_node("s1");
    let s2 = net.add_node("s2");
    let s3 = net.add_node("s3");
    net.add_port(
        s0,
        Port::to_switch(qcfg(capacity_bytes), s1, SimDuration::from_nanos(100)),
    );
    net.add_port(
        s0,
        Port::to_switch(qcfg(capacity_bytes), s2, SimDuration::from_nanos(150)),
    );
    net.add_port(
        s1,
        Port::to_switch(qcfg(capacity_bytes), s3, SimDuration::from_nanos(100)),
    );
    net.add_port(
        s2,
        Port::to_switch(qcfg(capacity_bytes), s3, SimDuration::from_nanos(100)),
    );
    net.add_port(
        s3,
        Port::to_host(qcfg(capacity_bytes), SimDuration::from_nanos(50)),
    );
    net
}

struct DiamondForwarder;

impl Forwarder for DiamondForwarder {
    fn route(&self, node: NodeId, p: &Packet) -> RouteDecision {
        match node {
            0 if p.flow.dport == 666 => RouteDecision::Drop,
            0 => RouteDecision::Forward((p.flow.dport % 2) as usize),
            1 | 2 => RouteDecision::Forward(0),
            _ => RouteDecision::Forward(0), // node 3: host port
        }
    }

    fn on_forward(&self, node: NodeId, _port: PortId, p: &mut Packet) {
        if p.mark == 0 {
            p.mark = node as u8 + 1;
        }
    }
}

#[test]
fn streamed_peak_slots_are_in_flight_bounded_not_run_bounded() {
    // The engine-side mirror of PR 4's peak-pending assertion: a run 100×
    // longer must not occupy more slots, because slots recycle at
    // deliver/drop. Injections spaced wider than the end-to-end residence
    // (~2.5 µs) keep only a handful of packets concurrently in flight.
    let peak_of = |packets: u64| {
        let inj: Vec<(NodeId, Packet)> = (0..packets)
            .map(|i| (0usize, pkt(i, i * 5_000, 80 + (i % 3) as u16)))
            .collect();
        let stats = run_network_streamed_source(
            diamond(1 << 20),
            &DiamondForwarder,
            SortedVecSource::new(inj),
            &mut NullSink,
            RunOptions::default(),
            |_| {},
        );
        assert_eq!(stats.delivered, packets);
        (stats.peak_live_slots, stats.hop_allocations)
    };
    let (peak_short, allocs_short) = peak_of(100);
    let (peak_long, allocs_long) = peak_of(10_000);
    assert!(
        peak_long <= peak_short.max(4),
        "peak slots grew with run length: {peak_short} → {peak_long}"
    );
    assert!(
        peak_long < 100,
        "peak {peak_long} not bounded by concurrency"
    );
    // Hop storage is recycled with the slots: a 100× longer run performs
    // no more hop allocations than the concurrency bound implies.
    assert!(
        allocs_long <= allocs_short.max(4 * peak_long as u64),
        "hop allocations grew with run length: {allocs_short} → {allocs_long}"
    );
}

#[test]
fn streamed_overload_keeps_slots_bounded_under_drops() {
    // Sustained 2× overload against a shallow buffer: drops recycle slots
    // just like deliveries, so even at overload the peak tracks the
    // (buffer-bounded) in-flight population, not the injected count.
    let inj: Vec<(NodeId, Packet)> = (0..20_000u64)
        .map(|i| (0usize, pkt(i, i * 350, 80 + (i % 3) as u16)))
        .collect();
    let stats = run_network_streamed_source(
        diamond(16_000),
        &DiamondForwarder,
        SortedVecSource::new(inj),
        &mut NullSink,
        RunOptions::default(),
        |_| {},
    );
    assert!(
        stats.queue_drops.iter().sum::<u64>() > 1_000,
        "not overloaded: {:?}",
        stats.queue_drops
    );
    assert!(
        stats.peak_live_slots < 2_000,
        "peak {} slots for 20000 injected under overload",
        stats.peak_live_slots
    );
}

#[derive(Debug, Clone)]
enum SlabOp {
    Insert(u64),
    /// Release the k-th live slot (mod live count).
    Release(usize),
    /// Push a hop onto the k-th live slot (mod live count).
    PushHop(usize),
}

fn arb_op() -> impl Strategy<Value = SlabOp> {
    (0u8..4, 0u64..1 << 40, 0usize..64).prop_map(|(tag, id, k)| match tag {
        0 | 1 => SlabOp::Insert(id), // insert-biased so sequences grow
        2 => SlabOp::Release(k),
        _ => SlabOp::PushHop(k),
    })
}

proptest! {
    /// Interleaved insert/release/push-hop against a mirror model: the
    /// slab must never hand out a slot that is still live (no aliasing),
    /// must preserve every live slot's packet and hop record verbatim, and
    /// its peak must equal the mirror's high-water mark.
    #[test]
    fn slot_recycling_never_aliases_live_packets(
        ops in proptest::collection::vec(arb_op(), 1..300),
    ) {
        let mut slab = PacketSlab::new();
        // Mirror: (slot, packet id, expected hop count), insertion-ordered.
        let mut live: Vec<(u32, u64, usize)> = Vec::new();
        let mut peak = 0usize;
        for op in ops {
            match op {
                SlabOp::Insert(id) => {
                    let slot = slab.insert(pkt(id, id % 9_999, 80), 0, SimTime::from_nanos(id));
                    prop_assert!(
                        !live.iter().any(|&(s, _, _)| s == slot),
                        "slot {slot} handed out while still live"
                    );
                    prop_assert!(slab.get(slot).hops().is_empty(), "recycled slot kept hops");
                    live.push((slot, id, 0));
                    peak = peak.max(live.len());
                }
                SlabOp::Release(k) => {
                    if live.is_empty() { continue; }
                    let (slot, _, _) = live.remove(k % live.len());
                    slab.release(slot);
                    prop_assert!(!slab.is_live(slot));
                }
                SlabOp::PushHop(k) => {
                    if live.is_empty() { continue; }
                    let idx = k % live.len();
                    let entry = &mut live[idx];
                    slab.push_hop(entry.0, Hop {
                        node: entry.2,
                        port: 0,
                        arrived: SimTime::from_nanos(entry.2 as u64),
                        departed: SimTime::from_nanos(entry.2 as u64 + 1),
                    });
                    entry.2 += 1;
                }
            }
            // Every live slot still holds exactly its own packet and hops.
            for &(slot, id, hops) in &live {
                prop_assert!(slab.is_live(slot));
                let st = slab.get(slot);
                prop_assert_eq!(st.packet.id.0, id, "live packet clobbered");
                prop_assert_eq!(st.hops().len(), hops, "live hop record clobbered");
                for (i, h) in st.hops().iter().enumerate() {
                    prop_assert_eq!(h.node, i, "hop record reordered");
                }
            }
            prop_assert_eq!(slab.live(), live.len());
        }
        prop_assert_eq!(slab.peak_live(), peak);
        prop_assert!(slab.capacity() <= peak.max(1), "slab grew beyond its peak");
    }
}
