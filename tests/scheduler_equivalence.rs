//! Property tests: the [`CalendarQueue`] drains events in an identical
//! `(time, tie)` order to the original `BinaryHeap` scheduler
//! ([`HeapSchedule`]) — under random event mixes, dense same-timestamp
//! ties, event-driven interleaved push/pop, the engines' own
//! merge-against-a-clock loop with caller-chosen ties, and geometries from
//! the fabric-derived one down to degenerate wheels that force the side
//! heap, the overflow heap and the cursor jumps.
//!
//! CI also runs this file in release: the edge-of-time bug it guards
//! against was a panic in debug but an endless spin in release.

use proptest::prelude::*;
use rlir_net::time::SimTime;
use rlir_sim::sched::fabric_geometry;
use rlir_sim::{CalendarQueue, EventSchedule, HeapSchedule};

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
        let mut heap = HeapSchedule::new();
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
        let mut heap = HeapSchedule::new();
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
        let mut heap = HeapSchedule::new();
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
        let mut heap = HeapSchedule::new();
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
            let mut heap = HeapSchedule::new();
            let mut cal = CalendarQueue::with_geometry(width, buckets);
            fill(&mut heap, &times);
            fill(&mut cal, &times);
            prop_assert_eq!(drain(&mut heap), drain(&mut cal));
        }
    }

    /// The engines' loop: a sorted outside stream merged against the
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
        let expect = engine_loop(HeapSchedule::new(), &injections, &deltas);
        let fabric = fabric_geometry(Some(1_000), 423_400);
        prop_assert_eq!(fabric, (9, 10));
        for (width, buckets) in [fabric, (10, 10), (1, 2), (30, 1)] {
            let cal = CalendarQueue::with_geometry(width, buckets);
            let got = engine_loop(cal, &injections, &deltas);
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
        let mut heap = HeapSchedule::new();
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

/// Drive `s` the way both engines do and return what was handled, in
/// order, followed by the queue's push/pop counts.
fn engine_loop<S: EventSchedule<u32>>(mut s: S, injections: &[u64], deltas: &[u64]) -> Handled {
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
        // An injection wins an equal timestamp, as in the sequential engine.
        let inject = match injections.peek() {
            Some(&t) => s
                .peek_due(SimTime::from_nanos(t))
                .is_none_or(|(at, _)| t <= at.as_nanos()),
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
    handled
}

// ---- Through the engines: the counters say which path the pushes took ----

mod fabrics {
    use rlir::experiment::{
        background_injections, measured_traces, FatTreeExpConfig, IncastConfig,
    };
    use rlir::{build_network, FatTreeFabric};
    use rlir_net::packet::Packet;
    use rlir_net::time::SimDuration;
    use rlir_sim::sched::SchedStats;
    use rlir_sim::{
        run_network_sharded, run_network_streamed_opts, HopSink, NetworkRunStats, RunOptions,
        SchedulerKind, ShardPlan, StreamDigest, StreamedDelivery,
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

    fn injections(cfg: &FatTreeExpConfig, tree: &FatTree) -> Vec<(usize, Packet)> {
        let measured = measured_traces(cfg, tree);
        let measured = measured
            .iter()
            .flat_map(|(tor, trace)| trace.packets.iter().map(|p| (*tor, *p)));
        measured.chain(background_injections(cfg, tree)).collect()
    }

    /// Everything a run exposes — hop events, watermarks, deliveries and
    /// the stream counters — as one digest, beside the queue's counters.
    fn outcome(mut digest: StreamDigest, stats: &NetworkRunStats) -> (u64, SchedStats) {
        for v in [stats.delivered, stats.injected, stats.events] {
            digest.fold(v);
        }
        for drops in [&stats.queue_drops, &stats.route_drops] {
            drops.iter().for_each(|&d| digest.fold(d));
        }
        (digest.value(), stats.sched)
    }

    /// One run of `cfg`'s mix on each engine — sequential, keyed at one
    /// shard — under `scheduler`.
    fn run(cfg: &FatTreeExpConfig, scheduler: SchedulerKind) -> [(u64, SchedStats); 2] {
        let tree = FatTree::new(cfg.k, cfg.hash);
        let fabric = FatTreeFabric::new(&tree, false);
        let injections = injections(cfg, &tree);
        let network = || build_network(&tree, cfg.queue, cfg.link_delay, &[]);
        let opts = || RunOptions {
            scheduler,
            ..RunOptions::default()
        };
        fn fold(digest: &mut StreamDigest, d: &StreamedDelivery<'_>) {
            digest.on_watermark(d.delivered_at);
            digest.fold(d.packet.id.0);
            digest.fold(d.delivered_node as u64);
        }

        let (mut sink, mut deliveries) = (StreamDigest::default(), StreamDigest::default());
        let stats = run_network_streamed_opts(
            network(),
            &fabric,
            injections.iter().copied(),
            &mut sink,
            opts(),
            |d| fold(&mut deliveries, d),
        );
        sink.fold(deliveries.value());
        let sequential = outcome(sink, &stats);

        let (mut sink, mut deliveries) = (StreamDigest::default(), StreamDigest::default());
        let keyed = run_network_sharded(
            network(),
            &fabric,
            injections.iter().copied(),
            &mut sink,
            opts(),
            &ShardPlan::new(tree.pod_partition()),
            1,
            |d| fold(&mut deliveries, d),
        );
        sink.fold(deliveries.value());
        [sequential, outcome(sink, &keyed.stats)]
    }

    /// `scheduler`'s runs of `cfg`, checked byte for byte against the heap's.
    fn run_like_the_heap(cfg: &FatTreeExpConfig, scheduler: SchedulerKind) -> [SchedStats; 2] {
        let (got, expect) = (run(cfg, scheduler), run(cfg, SchedulerKind::Heap));
        for (engine, ((digest, sched), (heap_digest, heap_sched))) in
            got.iter().zip(&expect).enumerate()
        {
            assert_eq!(
                digest, heap_digest,
                "engine {engine} diverged from the heap"
            );
            assert_eq!(sched.pushes, heap_sched.pushes);
            assert_eq!(sched.pushes, sched.pops, "the run drained its queue");
            assert!(sched.pushes > 10_000, "the run is too small to judge");
        }
        got.map(|(_, sched)| sched)
    }

    #[test]
    fn at_the_fabrics_grain_no_push_lands_in_the_open_bucket() {
        for cfg in [incast(), fleet()] {
            for sched in run_like_the_heap(&cfg, SchedulerKind::Calendar) {
                assert_eq!(sched.same_bucket_pushes, 0, "k = {}: {sched:?}", cfg.k);
                assert!(
                    sched.overflow_pushes * 100 < sched.pushes,
                    "k = {}: {sched:?}",
                    cfg.k
                );
                assert!(sched.buckets_opened > 0 && sched.longest_bucket > 0);
            }
        }
    }

    #[test]
    fn a_fabric_without_lookahead_pays_with_the_side_heap_not_with_order() {
        // No link latency and no processing delay: an arrival is as close
        // behind the unit that scheduled it as one serialisation.
        let mut cfg = incast();
        cfg.link_delay = SimDuration::ZERO;
        cfg.queue.processing_delay = SimDuration::ZERO;
        for sched in run_like_the_heap(&cfg, SchedulerKind::Calendar) {
            assert!(sched.same_bucket_pushes > 0, "{sched:?}");
            assert!(sched.same_bucket_pushes < sched.pushes, "{sched:?}");
        }
    }

    #[test]
    fn a_whole_run_in_one_bucket_is_all_side_heap() {
        // 2³⁹ ns ≈ 9 min a bucket: bucket 0 never closes, so every push is
        // a heap push — no sorted insert anywhere, however wrong the
        // geometry is for the fabric.
        let one_bucket = SchedulerKind::CalendarFixed {
            bucket_ns_log2: 39,
            buckets_log2: 1,
        };
        for sched in run_like_the_heap(&incast(), one_bucket) {
            assert_eq!(sched.same_bucket_pushes, sched.pushes, "{sched:?}");
            assert_eq!((sched.buckets_opened, sched.overflow_pushes), (0, 0));
        }
    }
}
