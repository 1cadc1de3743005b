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
//! Each injection list, its source and the network are built before the
//! counter starts: what is counted is the engine's run alone. The bounds
//! are checked to be tight enough that one hop record cloned per delivery
//! would break the law on both fabrics.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use rlir::experiment::{
    background_injections, cross_stream, measured_traces, FatTreeExpConfig, TwoHopConfig,
};
use rlir::{build_network, FatTreeFabric};
use rlir_net::time::SimDuration;
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

/// One run: its stats, its calendar's wheel size and what it requested.
struct Measured {
    stats: NetworkRunStats,
    wheel: usize,
    requested: usize,
}

fn measure(net: Network, forwarder: &impl Forwarder, source: SortedVecSource) -> Measured {
    let wheel = 1 << net.calendar_geometry().1;
    let before = counting_alloc::requested();
    let opts = RunOptions::default();
    let stats = run_network_streamed_source(net, forwarder, source, &mut NullSink, opts, |_| {});
    let requested = counting_alloc::requested() - before;
    Measured {
        stats,
        wheel,
        requested,
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
    for r in [s, l] {
        // The side and overflow heaps grow with their pushes: none here.
        assert_eq!(
            (r.sched.same_bucket_pushes, r.sched.overflow_pushes),
            (0, 0)
        );
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
        measure(net, &FatTreeFabric::new(&tree, false), source)
    };
    // ToR, aggregation, core, aggregation, ToR.
    assert_only_capacity_grew("fat-tree", &run(3), &run(12), 5);
}

#[test]
fn a_longer_tandem_run_requests_more_only_where_capacity_grew() {
    let run = |ms| {
        let cfg = TwoHopConfig::paper(7, SimDuration::from_millis(ms));
        let (regular, cross) = (generate(&cfg.regular_trace()), generate(&cfg.cross_trace()));
        let upstream = regular.packets.iter().map(|p| (TandemConfig::SW1, *p));
        let cross = cross_stream(&cfg, &regular, &cross).map(|p| (TandemConfig::SW2, p));
        let source = SortedVecSource::new(upstream.chain(cross));
        measure(cfg.tandem.network(), &cfg.tandem, source)
    };
    assert_only_capacity_grew("tandem", &run(20), &run(80), 2);
}
