//! Property tests: the [`CalendarQueue`] drains events in an identical
//! `(time, tie)` order to the original `BinaryHeap` scheduler
//! (`tests/support/heap_oracle.rs`) — under random event mixes, dense
//! same-timestamp ties, event-driven interleaved push/pop, the engine's
//! own merge-against-a-clock loop with caller-chosen ties, and geometries
//! from the fabrics' own down to degenerate wheels that force the side
//! heap, the overflow heap and the cursor jumps.
//!
//! CI also runs this file in release: the edge-of-time bug it guards
//! against was a panic in debug but an endless spin in release.

use proptest::prelude::*;
use rlir_net::time::SimTime;
use rlir_sim::sched::{fabric_geometry, EventSchedule, SchedStats};
use rlir_sim::CalendarQueue;

#[path = "support/heap_oracle.rs"]
mod heap_oracle;

fn drain<S: EventSchedule<u32>>(s: &mut S) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    while let Some((at, v)) = s.pop() {
        out.push((at.as_nanos(), v));
    }
    out
}

fn fill<S: EventSchedule<u32>>(s: &mut S, times: &[u64]) {
    for (i, &t) in times.iter().enumerate() {
        s.push(SimTime::from_nanos(t), i as u32);
    }
}

proptest! {
    /// Random timestamps spanning far beyond one wheel rotation (~1 ms):
    /// exercises buckets, overflow heap and rotation jumps.
    #[test]
    fn calendar_matches_heap_on_random_mixes(
        times in proptest::collection::vec(0u64..50_000_000, 1..500),
    ) {
        let mut heap = heap_oracle::new();
        let mut cal = CalendarQueue::with_geometry(10, 10);
        fill(&mut heap, &times);
        fill(&mut cal, &times);
        prop_assert_eq!(drain(&mut heap), drain(&mut cal));
    }

    /// A tiny timestamp domain forces many exact ties: FIFO (push-order)
    /// tie-breaking must agree.
    #[test]
    fn calendar_matches_heap_under_dense_ties(
        times in proptest::collection::vec(0u64..40, 1..400),
    ) {
        let mut heap = heap_oracle::new();
        let mut cal = CalendarQueue::with_geometry(10, 10);
        fill(&mut heap, &times);
        fill(&mut cal, &times);
        prop_assert_eq!(drain(&mut heap), drain(&mut cal));
    }

    /// Event-driven shape: each pop may schedule children at the popped
    /// time plus a delta (never into the past), like packets traversing
    /// hops. Both schedules must agree pop for pop.
    #[test]
    fn calendar_matches_heap_interleaved(
        seeds in proptest::collection::vec(0u64..2_000_000, 1..60),
        deltas in proptest::collection::vec(0u64..3_000_000, 3..120),
    ) {
        let mut heap = heap_oracle::new();
        let mut cal = CalendarQueue::with_geometry(10, 10);
        fill(&mut heap, &seeds);
        fill(&mut cal, &seeds);
        let mut next = seeds.len() as u32;
        let mut deltas = deltas.iter().cycle();
        let mut budget = 300usize;
        loop {
            let (h, c) = (heap.pop(), cal.pop());
            prop_assert_eq!(&h, &c, "pop divergence");
            let Some((at, _)) = h else { break };
            if budget > 0 {
                budget -= 1;
                // Two children per pop, same push order on both sides.
                for _ in 0..2 {
                    let dt = *deltas.next().expect("cycled");
                    heap.push(SimTime::from_nanos(at.as_nanos() + dt), next);
                    cal.push(SimTime::from_nanos(at.as_nanos() + dt), next);
                    next += 1;
                }
            }
        }
        prop_assert!(heap.is_empty() && cal.is_empty());
    }

    /// Degenerate geometries (buckets as small as 2 ns, wheels as small as
    /// 2 buckets) push everything through the rotation machinery.
    #[test]
    fn small_geometries_stay_exact(
        times in proptest::collection::vec(0u64..10_000, 1..300),
        bucket_log2 in 1u32..8,
        wheel_log2 in 1u32..6,
    ) {
        let mut heap = heap_oracle::new();
        let mut cal = CalendarQueue::with_geometry(bucket_log2, wheel_log2);
        fill(&mut heap, &times);
        fill(&mut cal, &times);
        prop_assert_eq!(drain(&mut heap), drain(&mut cal));
    }

    /// The fabric-derived constructor: whatever geometry `fabric_geometry`
    /// picks from a (lookahead, residence) pair — including pairs that have
    /// nothing to do with the pushes, and no lookahead at all — drains
    /// byte-identically to the heap oracle: geometry may be slow, never
    /// incorrect.
    #[test]
    fn fabric_geometries_stay_exact(
        times in proptest::collection::vec(0u64..100_000_000, 2..400),
        lookahead in prop_oneof![0u64..1, 1u64..5_000, 0u64..u64::MAX],
        residence in prop_oneof![0u64..1_000_000, 0u64..u64::MAX],
    ) {
        for lookahead in [Some(lookahead), None] {
            let (width, buckets) = fabric_geometry(lookahead, residence);
            let mut heap = heap_oracle::new();
            let mut cal = CalendarQueue::with_geometry(width, buckets);
            fill(&mut heap, &times);
            fill(&mut cal, &times);
            prop_assert_eq!(drain(&mut heap), drain(&mut cal));
        }
    }

    /// The engine's loop: a sorted outside stream merged against the
    /// schedule with `peek_due` (so the calendar's cursor follows the
    /// clock), each handled unit scheduling children under caller-chosen
    /// ties. Deltas of zero and below a bucket width are same-bucket
    /// pushes, twins share one `at` under distinct ties, the long deltas
    /// overshoot the wheel. Heap and calendar must handle the same units in
    /// the same order on the lookahead-derived geometry, the default one,
    /// 2-ns buckets and a wheel so coarse the whole run is one bucket.
    #[test]
    fn keyed_engine_loop_matches_heap(
        injections in proptest::collection::vec(0u64..200_000, 1..60),
        deltas in proptest::collection::vec(
            prop_oneof![0u64..1, 1u64..512, 512u64..5_000, 0u64..3_000_000],
            3..120,
        ),
    ) {
        let mut injections = injections;
        injections.sort_unstable();
        let (expect, _) = engine_loop(heap_oracle::new(), &injections, &deltas);
        let fabric = fabric_geometry(Some(1_000), 423_400);
        prop_assert_eq!(fabric, (9, 10));
        for (width, buckets) in [fabric, (10, 10), (1, 2), (30, 1)] {
            let cal = CalendarQueue::with_geometry(width, buckets);
            let (got, _) = engine_loop(cal, &injections, &deltas);
            prop_assert_eq!(&expect, &got, "geometry ({}, {})", width, buckets);
        }
    }
}

/// `SimDuration::transmission` saturates at `u64::MAX`, so entries at the
/// last representable tick are reachable: no geometry may overflow its
/// cursor arithmetic (a panic in debug) or stop making progress (a spin in
/// release). 1-ns buckets put the cursor itself on bucket `u64::MAX`.
#[test]
fn the_edge_of_time_neither_overflows_nor_spins() {
    let times = [10, u64::MAX - 5, u64::MAX, u64::MAX];
    for (width, buckets) in [(10, 10), (9, 10), (1, 2), (0, 1), (39, 20)] {
        let mut heap = heap_oracle::new();
        let mut cal = CalendarQueue::with_geometry(width, buckets);
        fill(&mut heap, &times);
        fill(&mut cal, &times);
        let drained = drain(&mut cal);
        assert_eq!(drain(&mut heap), drained, "geometry ({width}, {buckets})");
        assert_eq!(drained.len(), times.len());
    }
}

/// One handled unit: `(at, tie, item)`; injections carry item `u32::MAX`.
type Handled = Vec<(u64, u64, u32)>;

/// Drive `s` the way the engine does and return what was handled, in
/// order, followed by the queue's push/pop counts — and its counters.
fn engine_loop<S: EventSchedule<u32>>(
    mut s: S,
    injections: &[u64],
    deltas: &[u64],
) -> (Handled, SchedStats) {
    let mut handled = Handled::new();
    let mut injections = injections.iter().copied().peekable();
    let mut deltas = deltas.iter().copied().cycle();
    // A bijection of the push counter: distinct ties in scrambled order.
    let mut pushed = 0u64;
    let mut tie = || {
        pushed += 1;
        pushed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    };
    let mut budget = 300u32;
    loop {
        // A queued unit wins an equal timestamp, as in the engine.
        let inject = match injections.peek() {
            Some(&t) => s.peek_due(SimTime::from_nanos(t)).is_none(),
            None if s.is_empty() => break,
            None => false,
        };
        let at = if inject {
            let t = injections.next().expect("peeked");
            handled.push((t, 0, u32::MAX));
            t
        } else {
            let (at, tie, item) = s.pop_keyed().expect("non-empty");
            handled.push((at.as_nanos(), tie, item));
            at.as_nanos()
        };
        if budget > 0 {
            budget -= 1;
            let dt = deltas.next().expect("cycled");
            s.push_keyed(SimTime::from_nanos(at + dt), tie(), budget);
            if dt % 3 == 0 {
                // A twin at the same time under its own tie.
                s.push_keyed(SimTime::from_nanos(at + dt), tie(), budget);
            }
        }
    }
    let stats = s.stats();
    handled.push((stats.pushes, stats.pops, 0));
    (handled, stats)
}

// ---- The fabrics: order at queue level, counters through the engine ----

mod fabrics {
    use super::{engine_loop, heap_oracle, Handled};
    use rlir::experiment::{
        background_injections, measured_traces, FatTreeExpConfig, IncastConfig,
    };
    use rlir::{build_network, FatTreeFabric};
    use rlir_net::time::SimDuration;
    use rlir_sim::sched::{fabric_geometry, SchedStats};
    use rlir_sim::{
        run_network_streamed_source, CalendarQueue, Network, NullSink, RunOptions, SortedVecSource,
    };
    use rlir_topo::FatTree;

    /// The ledger's `incast_*` fabric and mix at test scale: k = 4, four
    /// source ToRs bursting in step at one destination over background.
    fn incast() -> FatTreeExpConfig {
        let incast = IncastConfig::paper(7, SimDuration::from_millis(7));
        FatTreeExpConfig {
            n_src_tors: 4,
            burst: Some(incast.burst),
            ..incast.base
        }
    }

    /// The ledger's `fleet_*` fabric and mix at test scale: k = 8.
    fn fleet() -> FatTreeExpConfig {
        FatTreeExpConfig {
            k: 8,
            n_src_tors: 4,
            ..FatTreeExpConfig::paper(7, SimDuration::from_millis(2))
        }
    }

    fn network(cfg: &FatTreeExpConfig, tree: &FatTree) -> Network {
        build_network(tree, cfg.queue, cfg.link_delay, &[])
    }

    /// The queue counters of one engine run of `cfg`'s mix.
    fn engine_counters(cfg: &FatTreeExpConfig) -> SchedStats {
        let tree = FatTree::new(cfg.k, cfg.hash);
        let measured = measured_traces(cfg, &tree);
        let measured = measured
            .iter()
            .flat_map(|(tor, trace)| trace.packets.iter().map(|p| (*tor, *p)));
        let injections = measured.chain(background_injections(cfg, &tree));
        let stats = run_network_streamed_source(
            network(cfg, &tree),
            &FatTreeFabric::new(&tree, false),
            SortedVecSource::new(injections),
            &mut NullSink,
            RunOptions::default(),
            |_| {},
        )
        .sched;
        assert_eq!(stats.pushes, stats.pops, "the run drained its queue");
        assert!(stats.pushes > 10_000, "the run is too small to judge");
        stats
    }

    /// `cfg`'s fabric in the engine loop's terms: injections spread over
    /// the run, each handled unit scheduling its successor one link plus
    /// a log-spread wait of up to one full buffer's drain later.
    fn fabric_stream(cfg: &FatTreeExpConfig) -> (Vec<u64>, Vec<u64>) {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let drain = cfg.queue.transmission(u32::MAX).as_nanos().min(1 << 20);
        let span = cfg.duration.as_nanos();
        let mut injections: Vec<u64> = (0..60).map(|_| next() % span).collect();
        injections.sort_unstable();
        let link = cfg.link_delay.as_nanos() + cfg.queue.processing_delay.as_nanos();
        let deltas = (0..120)
            .map(|_| link + ((next() % drain) >> (next() % 16)))
            .collect();
        (injections, deltas)
    }

    /// `cfg`'s stream through the heap and through a calendar of
    /// `geometry`: the same units in the same order, and the calendar's
    /// counters.
    fn drain_like_the_heap(cfg: &FatTreeExpConfig, geometry: (u32, u32)) -> SchedStats {
        let (injections, deltas) = fabric_stream(cfg);
        let (expect, _): (Handled, _) = engine_loop(heap_oracle::new(), &injections, &deltas);
        let cal = CalendarQueue::with_geometry(geometry.0, geometry.1);
        let (got, stats) = engine_loop(cal, &injections, &deltas);
        assert_eq!(expect, got, "geometry {geometry:?} diverged from the heap");
        stats
    }

    #[test]
    fn at_the_fabrics_grain_no_push_lands_in_the_open_bucket() {
        for cfg in [incast(), fleet()] {
            let tree = FatTree::new(cfg.k, cfg.hash);
            drain_like_the_heap(&cfg, network(&cfg, &tree).calendar_geometry());
            let sched = engine_counters(&cfg);
            assert_eq!(sched.same_bucket_pushes, 0, "k = {}: {sched:?}", cfg.k);
            assert!(
                sched.overflow_pushes * 100 < sched.pushes,
                "k = {}: {sched:?}",
                cfg.k
            );
            assert!(sched.buckets_opened > 0 && sched.longest_bucket > 0);
        }
    }

    #[test]
    fn a_fabric_without_lookahead_pays_with_the_side_heap_not_with_order() {
        // No link latency and no processing delay: an arrival is as close
        // behind the unit that scheduled it as one serialisation.
        let mut cfg = incast();
        cfg.link_delay = SimDuration::ZERO;
        cfg.queue.processing_delay = SimDuration::ZERO;
        let tree = FatTree::new(cfg.k, cfg.hash);
        let geometry = network(&cfg, &tree).calendar_geometry();
        assert_eq!(geometry.0, fabric_geometry(None, 0).0, "no lookahead");
        let sched = drain_like_the_heap(&cfg, geometry);
        assert!(sched.same_bucket_pushes > 0, "{sched:?}");
        let sched = engine_counters(&cfg);
        assert!(sched.same_bucket_pushes > 0, "{sched:?}");
        assert!(sched.same_bucket_pushes < sched.pushes, "{sched:?}");
    }

    #[test]
    fn a_whole_run_in_one_bucket_is_all_side_heap() {
        // 2³⁹ ns ≈ 9 min a bucket: bucket 0 never closes, so every push is
        // a heap push — no sorted insert anywhere, however wrong the
        // geometry is for the fabric.
        let sched = drain_like_the_heap(&incast(), (39, 1));
        assert_eq!(sched.same_bucket_pushes, sched.pushes, "{sched:?}");
        assert_eq!((sched.buckets_opened, sched.overflow_pushes), (0, 0));
    }
}
