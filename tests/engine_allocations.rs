//! What the engine asks the allocator for as a run gets longer.
//!
//! A run streams every delivery to its callback and keeps none, so engine
//! memory is O(max in-flight), not O(run). Under the counting
//! `#[global_allocator]` of `tests/support/counting_alloc.rs`, a run four
//! times as long may request more bytes than the short one only where a
//! container's capacity grew, and each of those is bounded by a
//! concurrency figure of the run, not by its length:
//!
//! * the slab: its slot and free-list `Vec`s double up to
//!   `peak_live_slots`, and its hop vectors are (re)allocated
//!   `hop_allocations` times in all;
//! * the calendar's buckets: every wheel slot and the open bucket hold at
//!   most `longest_bucket` entries.
//!
//! Each injection list, its source, its in-band senders and the network
//! are built before the counter starts: what is counted is the engine's run
//! alone. A reference an in-band sender puts behind its trigger takes a
//! slab slot and, when its birth instant lies in the open bucket, a push
//! into that bucket's side heap, which holds one trigger's references at a
//! time: no allocation of its own. The bounds are
//! checked to be tight enough that one hop record cloned per delivery would
//! break the law on every fabric.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use rlir::experiment::{
    background_injections, cross_stream, measured_traces, FatTreeExpConfig, TwoHopConfig,
};
use rlir::{build_network, FatTreeFabric, SenderSet};
use rlir_net::time::SimDuration;
use rlir_net::{FlowKey, SenderId};
use rlir_rli::RliSender;
use rlir_sim::{
    run_network_streamed_source, Forwarder, Network, NetworkRunStats, NullSink, RunOptions,
    SortedVecSource, TandemConfig,
};
use rlir_topo::FatTree;
use rlir_trace::generate;

/// Bytes of a slab slot, a free-list entry, a hop and a calendar entry,
/// pinned at compile time in the engine.
const SLOT: usize = 104;
const FREE: usize = 4;
const HOP: usize = 32;
const ENTRY: usize = 24;
/// The smallest capacity a growing `Vec` of any of those allocates.
const MIN_CAP: usize = 4;

/// Bytes a `Vec` of `size`-byte elements requests while it grows one push
/// at a time to `len` elements: capacities 4, 8, 16, … up to the first
/// that holds `len`, which sum to twice that one less 4.
fn grown(len: usize, size: usize) -> usize {
    match len {
        0 => 0,
        _ => (2 * len.next_power_of_two().max(MIN_CAP) - MIN_CAP) * size,
    }
}

/// One run: its stats, its calendar's wheel size, what it requested and
/// the references its senders emitted.
struct Measured {
    stats: NetworkRunStats,
    wheel: usize,
    requested: usize,
    refs: u64,
}

fn measure(
    net: Network,
    forwarder: &impl Forwarder,
    source: SortedVecSource,
    mut senders: Option<SenderSet>,
) -> Measured {
    let wheel = 1 << net.calendar_geometry().1;
    let before = counting_alloc::requested();
    let opts = RunOptions {
        senders: senders.as_mut().map(|s| s as _),
        ..RunOptions::default()
    };
    let stats = run_network_streamed_source(net, forwarder, source, &mut NullSink, opts, |_| {});
    let requested = counting_alloc::requested() - before;
    Measured {
        stats,
        wheel,
        requested,
        refs: senders.map_or(0, |s| s.refs_emitted()),
    }
}

/// The law between a run and one four times as long on the same fabric,
/// whose longest path crosses `max_hops` switches.
fn assert_only_capacity_grew(name: &str, short: &Measured, long: &Measured, max_hops: usize) {
    let (s, l) = (&short.stats, &long.stats);
    assert!(
        l.delivered > 3 * s.delivered,
        "{name}: the long run is short"
    );
    for m in [short, long] {
        // The side and overflow heaps grow with their pushes: none here
        // but references pushed at their birth instant, where it lies in
        // the open bucket.
        let sched = &m.stats.sched;
        assert!(sched.same_bucket_pushes <= m.refs, "{name}: {sched:?}");
        assert_eq!(sched.overflow_pushes, 0, "{name}");
    }
    // The slab: slots and free list are a function of the peak; a hop
    // vector's (re)allocation asks for 4 up to `max_hops` rounded up to a
    // power of two hops.
    let hop_cap = max_hops.next_power_of_two().max(MIN_CAP);
    let slab_long =
        grown(l.peak_live_slots, SLOT + FREE) + HOP * hop_cap * l.hop_allocations as usize;
    let slab_short =
        grown(s.peak_live_slots, SLOT + FREE) + HOP * MIN_CAP * s.hop_allocations as usize;
    let slab = slab_long.saturating_sub(slab_short);
    // The buckets: every wheel slot and the open bucket, each grown to hold
    // the longest bucket.
    let buckets = (long.wheel + 1) * grown(l.sched.longest_bucket as usize, ENTRY);
    let extra = long.requested.saturating_sub(short.requested);
    assert!(
        extra <= slab + buckets,
        "{name}: the long run requested {} B against {} B, {extra} B more than the \
         slab's {slab} B and the buckets' {buckets} B",
        long.requested,
        short.requested,
    );
    let clones = MIN_CAP * HOP * (l.delivered - s.delivered) as usize;
    assert!(
        slab + buckets < clones,
        "{name}: the law cannot tell a hop record cloned per delivery ({clones} B)"
    );
}

#[test]
fn a_longer_fat_tree_run_requests_more_only_where_capacity_grew() {
    let run = |ms| {
        let cfg = FatTreeExpConfig::paper(7, SimDuration::from_millis(ms));
        let tree = FatTree::new(cfg.k, cfg.hash);
        let measured = measured_traces(&cfg, &tree);
        let measured = (measured.iter()).flat_map(|(tor, t)| t.packets.iter().map(|p| (*tor, *p)));
        let source = SortedVecSource::new(measured.chain(background_injections(&cfg, &tree)));
        let net = build_network(&tree, cfg.queue, cfg.link_delay, &[]);
        measure(net, &FatTreeFabric::new(&tree, false), source, None)
    };
    // ToR, aggregation, core, aggregation, ToR.
    assert_only_capacity_grew("fat-tree", &run(3), &run(12), 5);
}

/// The paper tandem over `ms`, with the RLI sender at switch 1 in-band
/// or without one.
fn tandem(ms: u64, in_band: bool) -> Measured {
    let cfg = TwoHopConfig::paper(7, SimDuration::from_millis(ms));
    let (regular, cross) = (generate(&cfg.regular_trace()), generate(&cfg.cross_trace()));
    let upstream = regular.packets.iter().map(|p| (TandemConfig::SW1, *p));
    let cross = cross_stream(&cfg, &regular, &cross).map(|p| (TandemConfig::SW2, p));
    let source = SortedVecSource::new(upstream.chain(cross));
    let senders = in_band.then(|| {
        let key = FlowKey::udp([10, 1, 0, 250].into(), 4_000, [10, 2, 0, 250].into(), 9_000);
        let sender = RliSender::new(
            SenderId(1),
            cfg.clocks.sender,
            cfg.policy.build(),
            vec![key],
        );
        SenderSet::one(TandemConfig::SW1, sender)
    });
    measure(cfg.tandem.network(), &cfg.tandem, source, senders)
}

#[test]
fn a_longer_tandem_run_requests_more_only_where_capacity_grew() {
    assert_only_capacity_grew("tandem", &tandem(20, false), &tandem(80, false), 2);
}

#[test]
fn an_in_band_sender_allocates_nothing_per_reference() {
    let (short, long) = (tandem(20, true), tandem(80, true));
    assert!(long.refs > 3 * short.refs && short.refs > 0);
    assert_only_capacity_grew("tandem with a sender", &short, &long, 2);
}
