//! The engine's ingest contract and its work counters, through
//! [`run_network_streamed_source`] on the k=4 fat-tree.
//!
//! Ordinals are a pull counter, so a list wrapped in a [`SortedVecSource`]
//! and a streaming source feed the same run — every hop event, watermark
//! and delivery, hop records included — on tie-heavy streams under
//! arbitrary mid-run [`FaultScript`]s. A run pulls its source no further
//! than its clock, a raised [`StopFlag`] stops the pulling, and a
//! misordered source fails loudly. The last test pins one run's work
//! counters on the fat-tree mix: every field of
//! [`rlir_sim::NetworkRunStats`] is an exact property of the run.

use proptest::prelude::*;
use rlir::experiment::{background_injections, measured_traces, FatTreeExpConfig};
use rlir::{build_network, FatTreeFabric};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::{hash::HashAlgo, packet::Packet, FlowKey};
use rlir_sim::{run_network_streamed_source, FaultEvent, FaultKind, FaultScript, HopEvent};
use rlir_sim::{HopKind, HopSink, InjectionSource, QueueConfig, RunOptions, SortedVecSource};
use rlir_sim::{StopFlag, StreamDigest, StreamedDelivery};
use rlir_topo::FatTree;
use std::cell::Cell;

/// Link latency of the fabric a run goes through, unless a test zeroes it.
const LINK_NS: u64 = 1_000;

fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 27)
}

/// The sink: the run's [`StreamDigest`], and how far the source had been
/// pulled at the first `Deliver` event.
struct Watch<'a> {
    digest: StreamDigest,
    watermark: u64,
    pulled: &'a Cell<usize>,
    /// `(pulls so far, watermark)` at the first `Deliver` event.
    first_deliver: Option<(usize, u64)>,
}

impl HopSink for Watch<'_> {
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        if ev.kind == HopKind::Deliver && self.first_deliver.is_none() {
            self.first_deliver = Some((self.pulled.get(), self.watermark));
        }
        self.digest.on_hop(ev);
    }

    fn on_watermark(&mut self, watermark: SimTime) {
        self.watermark = watermark.as_nanos();
        self.digest.on_watermark(watermark);
    }
}

/// A streaming source that is not one of the engine's `Vec` adapters: it
/// serves a time-ordered slice and counts its pulls where the sink can
/// read them mid-run.
struct CountingSource<'a> {
    items: &'a [(usize, Packet)],
    pulled: &'a Cell<usize>,
}

impl InjectionSource for CountingSource<'_> {
    fn peek(&mut self) -> Option<SimTime> {
        Some(self.items.get(self.pulled.get())?.1.created_at)
    }

    fn next_injection(&mut self) -> Option<(usize, Packet)> {
        let next = *self.items.get(self.pulled.get())?;
        self.pulled.set(self.pulled.get() + 1);
        Some(next)
    }
}

fn tree() -> FatTree {
    FatTree::new(4, HashAlgo::default())
}

/// `n` packets across all ToR pairs: zero `spacing_ns` makes injections
/// collide in time (tie-heavy), and `burst` concentrates packets so
/// shallow queues overflow (drop-heavy).
fn workload(n: u64, spacing_ns: u64, burst: u64, seed: u64) -> Vec<(usize, Packet)> {
    let tree = tree();
    let tors: Vec<usize> = tree.tors().collect();
    let host = |r: u64, salt: u64| {
        let tor = tors[(r % tors.len() as u64) as usize];
        (tor, tree.host_addr(tor, (salt % 4) as usize))
    };
    let packet = |i| {
        let r = mix(seed, i);
        let ((src, s), (_, d)) = (host(r, r >> 16), host(r >> 8, r >> 18));
        let flow = FlowKey::tcp(s, 1000 + (r >> 16) as u16 % 50, d, 80);
        let at = SimTime::from_nanos(i / burst * spacing_ns);
        (src, Packet::regular(i, flow, 200 + (r % 1200) as u32, at))
    };
    (0..n).map(packet).collect()
}

/// Raw proptest draws as real fat-tree fault events: every switch has at
/// least `half` ports, so every draw is a legal fault.
fn fault_script(raw: &[(u8, u64, u64, u64)]) -> FaultScript {
    let tree = tree();
    let event = |&(kind, node, at, extra): &(u8, u64, u64, u64)| {
        let node = (node % tree.len() as u64) as usize;
        let port = (extra % tree.half() as u64) as usize;
        let extra = SimDuration::from_nanos(1 + extra % 3_000);
        let kind = match kind % 6 {
            0 => FaultKind::LinkDown { node, port },
            1 => FaultKind::LinkUp { node, port },
            2 => FaultKind::SlowSwitch { node, extra },
            3 => FaultKind::ClearSwitch { node },
            4 => FaultKind::LossBurstStart { node },
            _ => FaultKind::LossBurstEnd { node },
        };
        let at = SimTime::from_nanos(at);
        FaultEvent { at, kind }
    };
    FaultScript::new(raw.iter().map(event).collect())
}

/// Shallow queues for the drop-heavy regime.
fn shallow() -> (QueueConfig, u64) {
    let mut queue = QueueConfig::oc192();
    queue.capacity_bytes = 4_000;
    (queue, LINK_NS)
}

/// What a run shows: its stream digest, a digest of its deliveries (hop
/// records field for field), the deliveries the callback saw, and
/// `[delivered, events, injected, queue drops, route drops, fault drops]`.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    stream: u64,
    deliveries: u64,
    seen: u64,
    counts: [u64; 6],
}

/// What a run pulled: in all, and `(pulls, watermark)` at the first delivery.
type Pulls = (usize, Option<(usize, u64)>);

/// One run from the list (`streamed: false`) or a [`CountingSource`];
/// `stop_after` raises the [`StopFlag`] from inside the delivery callback
/// after that many deliveries, as a closed-loop detector does.
fn run(
    (queue, link_ns): (QueueConfig, u64),
    injections: &[(usize, Packet)],
    faults: Option<&FaultScript>,
    streamed: bool,
    stop_after: Option<u64>,
) -> (Observed, Pulls) {
    let tree = tree();
    let network = build_network(&tree, queue, SimDuration::from_nanos(link_ns), &[]);
    let pulled = Cell::new(0);
    let mut sink = Watch {
        digest: StreamDigest::default(),
        watermark: 0,
        pulled: &pulled,
        first_deliver: None,
    };
    let stop = StopFlag::new();
    let opts = RunOptions {
        faults,
        stop: Some(&stop),
    };
    let (mut dd, mut seen) = (StreamDigest::default(), 0);
    let on_delivery = |d: &StreamedDelivery<'_>| {
        seen += 1;
        dd.fold(d.packet.id.0);
        dd.fold(d.delivered_at.as_nanos() ^ (d.delivered_node as u64).rotate_left(48));
        for hop in d.hops {
            dd.fold((hop.node as u64) << 32 | hop.port as u64);
            dd.fold(hop.arrived.as_nanos());
            dd.fold(hop.departed.as_nanos());
        }
        if stop_after.is_some_and(|n| seen >= n) {
            stop.request_stop();
        }
    };
    let fabric = FatTreeFabric::new(&tree, true);
    let stats = if streamed {
        let source = CountingSource {
            items: injections,
            pulled: &pulled,
        };
        run_network_streamed_source(network, &fabric, source, &mut sink, opts, on_delivery)
    } else {
        let source = SortedVecSource::new(injections.iter().copied());
        run_network_streamed_source(network, &fabric, source, &mut sink, opts, on_delivery)
    };
    let [queue, route] = [&stats.queue_drops, &stats.route_drops].map(|v| v.iter().sum());
    let counts = [
        stats.delivered,
        stats.events,
        stats.injected,
        queue,
        route,
        stats.fault_drops,
    ];
    let observed = Observed {
        stream: sink.digest.value(),
        deliveries: dd.value(),
        seen,
        counts,
    };
    (observed, (pulled.get(), sink.first_deliver))
}

proptest! {
    /// A tie-heavy list wrapped in a `SortedVecSource` and pulled through a
    /// `CountingSource` run identically under any fault script, and every
    /// packet meets one fate.
    #[test]
    fn iterator_and_source_entries_agree_on_ties(
        seed in 0u64..1_000,
        n in 40u64..160,
        spacing in prop_oneof![Just(0u64), Just(40u64)],
        burst in 2u64..12,
        raw_faults in proptest::collection::vec(
            (0u8..6, 0u64..64, 0u64..120_000, 1u64..4_000), 0..6),
    ) {
        let injections = workload(n, spacing, burst, seed);
        let script = fault_script(&raw_faults);
        let (listed, _) = run(shallow(), &injections, Some(&script), false, None);
        let (pulled, (total, _)) = run(shallow(), &injections, Some(&script), true, None);
        prop_assert_eq!(&listed, &pulled);
        prop_assert_eq!(total as u64, n);
        let [delivered, _, injected, queue, route, fault] = listed.counts;
        prop_assert_eq!((injected, delivered + queue + route), (n, n));
        prop_assert!(fault <= route);
    }
}

/// When the sink sees its first delivery over links of `link_ns`, the
/// source has been pulled no further than the clock, and the run still
/// drains it.
fn assert_pulled_no_further_than_the_clock(link_ns: u64) {
    let injections = workload(400, 700, 1, 11);
    let fabric = (QueueConfig::oc192(), link_ns);
    let (out, (total, first)) = run(fabric, &injections, None, true, None);
    let (pulled, watermark) = first.expect("the run delivers");
    let due = (injections.iter()).filter(|(_, p)| p.created_at.as_nanos() <= watermark);
    let due = due.count();
    assert!(
        pulled <= due && pulled < injections.len(),
        "link {link_ns} ns: {pulled} of {} pulled at the first delivery, {due} due",
        injections.len()
    );
    assert_eq!(total, injections.len(), "the run drains the source");
    assert_eq!(out.counts[0], injections.len() as u64, "link {link_ns} ns");
}

/// Ingest streams over links with a latency.
#[test]
fn source_is_pulled_no_further_than_the_clock() {
    assert_pulled_no_further_than_the_clock(LINK_NS);
}

/// Zero-latency links are no reason to buffer the run: the first delivery
/// still reaches the sink before the source is exhausted.
#[test]
fn zero_latency_links_still_stream() {
    assert_pulled_no_further_than_the_clock(0);
}

/// A raised [`StopFlag`] stops the pulling too.
#[test]
fn stop_flag_leaves_the_source_undrained() {
    let injections = workload(400, 700, 1, 11);
    let (out, (total, _)) = run(shallow(), &injections, None, true, Some(10));
    assert_eq!(out.seen, 10);
    assert!(
        total < injections.len(),
        "the stopped run drained the source"
    );
}

/// Run a source that breaks the contract at its last record and return
/// the panic message.
fn panic_of(bad: (usize, Packet)) -> String {
    let mut injections = workload(20, 700, 1, 3);
    injections.push(bad);
    let fabric = (QueueConfig::oc192(), LINK_NS);
    let run = std::panic::AssertUnwindSafe(|| run(fabric, &injections, None, true, None));
    let payload = std::panic::catch_unwind(run).expect_err("the run panics");
    payload
        .downcast_ref::<String>()
        .expect("a formatted panic")
        .clone()
}

#[test]
fn a_source_going_backwards_fails_loudly() {
    let msg = panic_of(workload(1, 0, 1, 3)[0]);
    assert!(msg.contains("injection source went backwards"), "{msg}");
}

#[test]
fn a_source_naming_an_unknown_node_fails_loudly() {
    let (_, late) = workload(30, 700, 1, 3)[29];
    let msg = panic_of((tree().len(), late));
    assert!(msg.contains("injection at unknown node"), "{msg}");
}

/// The k=4 mix (measured and background traffic, 3 ms): the run's stream
/// digest folded with its deliveries, its counts and its work counters.
#[test]
fn engine_work_counters_are_pinned_on_the_fat_tree_mix() {
    let cfg = FatTreeExpConfig::paper(7, SimDuration::from_millis(3));
    let tree = FatTree::new(cfg.k, cfg.hash);
    let measured = measured_traces(&cfg, &tree);
    let measured = (measured.iter()).flat_map(|(tor, t)| t.packets.iter().map(|p| (*tor, *p)));
    let source = SortedVecSource::new(measured.chain(background_injections(&cfg, &tree)));
    let net = build_network(&tree, cfg.queue, cfg.link_delay, &[]);
    let (fabric, mut digest) = (FatTreeFabric::new(&tree, false), StreamDigest::default());
    let mut deliveries = Vec::new();
    let stats =
        run_network_streamed_source(net, &fabric, source, &mut digest, <_>::default(), |d| {
            deliveries.push((d.packet.id.0, d.delivered_at.as_nanos()));
        });
    for (id, at) in deliveries {
        digest.fold(id);
        digest.fold(at);
    }
    let run = (stats.events, stats.delivered, digest.value());
    assert_eq!(run, (26_665, 5_333, 9_137_878_280_107_506_219));
    assert_eq!((stats.peak_live_slots, stats.hop_allocations), (47, 94));
    let s = stats.sched;
    let queue = [s.pushes, s.pops, s.same_bucket_pushes, s.overflow_pushes];
    assert_eq!(queue, [21_332, 21_332, 0, 0]);
    assert_eq!((s.buckets_opened, s.longest_bucket), (5_518, 14));
}
