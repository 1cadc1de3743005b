//! The engine's ingest contract and its work counters, through
//! [`run_network_streamed_source`] on the k=4 fat-tree.
//!
//! Ordinals are a pull counter, so a list wrapped in a [`SortedVecSource`]
//! and a streaming source feed the same run — every hop event, watermark
//! and delivery, hop records included — on tie-heavy streams under
//! arbitrary mid-run [`FaultScript`]s. A run pulls its source no further
//! than its clock, a raised [`StopFlag`] stops the pulling, and a
//! misordered source fails loudly. A test pins one run's work counters on
//! the fat-tree mix: every field of [`rlir_sim::NetworkRunStats`] is an
//! exact property of the run.
//!
//! References are ingest born mid-run: the last tests hold an in-band
//! sender ([`RunOptions::senders`]) to its contract — a reference enters at
//! its sender's node and its trigger's instant, right behind the trigger;
//! only regulars trigger; the filter sees a rerouted packet's final port;
//! and a tandem run with an in-band sender equals the run over the
//! trigger-first list a test builds with `RliSender::observe`.

use proptest::prelude::*;
use rlir::experiment::{background_injections, measured_traces, FatTreeExpConfig};
use rlir::experiment::{cross_stream, CrossSpec, TwoHopConfig};
use rlir::{build_network, FatTreeFabric, SenderSet};
use rlir_net::clock::ClockModel;
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::{hash::HashAlgo, packet::Packet, FlowKey, SenderId};
use rlir_rli::{PolicyKind, RliSender, StaticPolicy};
use rlir_sim::{run_network_streamed_source, FaultEvent, FaultKind, FaultScript, HopEvent};
use rlir_sim::{Forwarder, Network, NullSink, Port, RouteDecision, TandemConfig};
use rlir_sim::{HopKind, HopSink, InjectionSource, QueueConfig, RunOptions, SortedVecSource};
use rlir_sim::{StopFlag, StreamDigest, StreamedDelivery};
use rlir_topo::FatTree;
use rlir_trace::generate;
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
        ..RunOptions::default()
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

/// One arrival as a sink saw it: node, instant, packet, entry node and
/// instant.
type Arrival = (usize, u64, Packet, usize, u64);

/// The `Arrive` events of a run, in processing order.
#[derive(Default)]
struct Arrivals(Vec<Arrival>);

impl HopSink for Arrivals {
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        if ev.kind == HopKind::Arrive {
            let (at, from) = (ev.at.as_nanos(), ev.injected_at.as_nanos());
            self.0
                .push((ev.node, at, *ev.packet, ev.injected_node, from));
        }
    }
}

/// Forward by port 0 everywhere.
struct Chain;
impl Forwarder for Chain {
    fn route(&self, _node: usize, _packet: &Packet) -> RouteDecision {
        RouteDecision::Forward(0)
    }
}

/// `0 → 1 → 2 → host`, 1 B/ns ports, 1 µs links.
fn chain() -> Network {
    let mut net = Network::default();
    let queue = QueueConfig {
        rate_bps: 8_000_000_000,
        capacity_bytes: 1 << 20,
        processing_delay: SimDuration::ZERO,
    };
    let link = SimDuration::from_nanos(LINK_NS);
    for n in 0..3 {
        net.add_node(format!("S{n}"));
    }
    net.add_port(0, Port::to_switch(queue, 1, link));
    net.add_port(1, Port::to_switch(queue, 2, link));
    net.add_port(2, Port::to_host(queue, link));
    net
}

fn ref_key(port: u16) -> FlowKey {
    FlowKey::udp([10, 0, 0, 250].into(), port, [10, 9, 0, 250].into(), 9_000)
}

/// An in-band sender at switch 1 (one in two, two targets) meters regulars
/// that entered at switch 0, mid-run. At the very instant each regular
/// arrives at switch 1, a packet pulled after it reaches switch 2, and a
/// cross packet and a foreign reference enter at switch 1. A reference
/// enters at the sender's node and its trigger's instant, keyed by an
/// ordinal drawn at birth: behind the trigger and the unit already queued
/// for that instant, ahead of the same-instant injections. Only regulars
/// trigger; the run counts the references as injected and every packet
/// meets one fate.
#[test]
fn references_are_born_at_their_sender_right_behind_the_trigger() {
    let flow = FlowKey::tcp([10, 1, 0, 1].into(), 1_000, [10, 2, 0, 1].into(), 80);
    let mut injections = Vec::new();
    for i in 0..40u64 {
        let at = |ns| SimTime::from_nanos(i * 5_000 + ns);
        // 1 000 B: serialised in 1 µs, plus the 1 µs link to switch 1.
        injections.push((0, Packet::regular(i, flow, 1_000, at(0))));
        // 500 B from switch 1 at +500 ns: at switch 2 at +2 µs as well.
        injections.push((1, Packet::cross(1_000 + i, flow, 500, at(500))));
        injections.push((1, Packet::cross(2_000 + i, flow, 500, at(2_000))));
        let foreign = Packet::reference(3_000 + i, ref_key(1), SenderId(9), 0, at(2_000));
        injections.push((1, foreign));
    }
    let policy = StaticPolicy::one_in(2);
    let sender = RliSender::new(
        SenderId(1),
        ClockModel::perfect(),
        policy,
        vec![ref_key(2); 2],
    );
    let mut senders = SenderSet::one(1, sender);
    let mut arrivals = Arrivals::default();
    let opts = RunOptions {
        senders: Some(&mut senders),
        ..RunOptions::default()
    };
    let source = SortedVecSource::new(injections.iter().copied());
    let stats = run_network_streamed_source(chain(), &Chain, source, &mut arrivals, opts, |_| {});

    let ours = |p: &Packet| p.reference_info().is_some_and(|r| r.sender == SenderId(1));
    // What each same-instant arrival is: (node, entry node, kind).
    let what = |&(node, _, p, from_node, _): &Arrival| {
        let kind = if ours(&p) {
            "ours"
        } else if p.is_cross() {
            "cross"
        } else {
            "other"
        };
        (node, from_node, kind)
    };
    let (mut triggers, mut births) = (0, 0);
    let arrivals = &arrivals.0;
    for (i, a @ &(node, at, p, ..)) in arrivals.iter().enumerate() {
        if ours(&p) && node == 1 {
            // The reference's own first unit: at the sender, at birth.
            assert_eq!(
                (a.3, a.4, p.reference_info().unwrap().tx_timestamp),
                (1, at, SimTime::from_nanos(at))
            );
            births += 1;
        }
        if !(p.is_regular() && node == 1) {
            continue;
        }
        let same: Vec<_> = arrivals[i + 1..]
            .iter()
            .take_while(|b| b.1 == at)
            .map(what)
            .collect();
        let queued = (2, 1, "cross");
        let pulled = [(1, 1, "cross"), (1, 1, "other")];
        if same.len() == 5 {
            assert_eq!(
                same[..3],
                [queued, (1, 1, "ours"), (1, 1, "ours")],
                "at {at}"
            );
            triggers += 1;
        } else {
            assert_eq!(same[..1], [queued], "at {at}");
        }
        assert_eq!(same[same.len() - 2..], pulled, "at {at}");
    }
    assert_eq!((triggers, births), (20, 40), "one in two of 40 regulars");
    assert_eq!(senders.refs_emitted(), 40);
    let regulars_seen: u64 = senders.senders().map(RliSender::regulars_seen).sum();
    assert_eq!(regulars_seen, 40, "only regulars reach the sender");
    assert_eq!(stats.injected, 4 * 40 + 40, "references count as injected");
    let [queue, route] = [&stats.queue_drops, &stats.route_drops].map(|v| v.iter().sum::<u64>());
    assert_eq!(stats.delivered + queue + route, stats.injected);
}

/// A sender's port filter sees the port a packet finally leaves by: with
/// ToR uplink 0 dead from the start, every packet the ECMP hash puts on it
/// is rerouted to uplink 1, and uplink 1's sender meters it.
#[test]
fn a_senders_filter_sees_the_rerouted_port() {
    let tree = tree();
    let (tor, dst) = (tree.tor(0, 0), tree.tor(2, 0));
    let packet = |i: u64| {
        let src = tree.host_addr(tor, (i % 4) as usize);
        let flow = FlowKey::tcp(src, 1_000 + i as u16, tree.host_addr(dst, 0), 80);
        (
            tor,
            Packet::regular(i, flow, 500, SimTime::from_nanos(i * 1_000)),
        )
    };
    let injections: Vec<_> = (0..200).map(packet).collect();
    let on_zero = (injections.iter())
        .filter(|(_, p)| tree.node(tor).hash.select(&p.flow, tree.half()) == 0)
        .count() as u64;
    assert!(
        on_zero > 50 && on_zero < 150,
        "{on_zero} of 200 hash to uplink 0"
    );
    let metered = |faults: Option<&FaultScript>| {
        let mut senders = SenderSet::default();
        for uplink in 0..tree.half() {
            let policy = StaticPolicy::one_in(1);
            let id = SenderId(uplink as u16);
            let sender = RliSender::new(id, ClockModel::perfect(), policy, vec![ref_key(3)]);
            senders.add(tor, Some(uplink), sender);
        }
        let opts = RunOptions {
            faults,
            senders: Some(&mut senders),
            ..RunOptions::default()
        };
        let network = build_network(
            &tree,
            QueueConfig::oc192(),
            SimDuration::from_micros(1),
            &[],
        );
        let fabric = FatTreeFabric::new(&tree, false);
        let source = SortedVecSource::new(injections.iter().copied());
        run_network_streamed_source(network, &fabric, source, &mut NullSink, opts, |_| {});
        let seen: Vec<u64> = senders.senders().map(RliSender::regulars_seen).collect();
        seen
    };
    assert_eq!(metered(None), [on_zero, 200 - on_zero]);
    let down = FaultKind::LinkDown { node: tor, port: 0 };
    let script = FaultScript::new(vec![FaultEvent {
        at: SimTime::ZERO,
        kind: down,
    }]);
    assert_eq!(metered(Some(&script)), [0, 200]);
}

/// Digest of a run's hop stream, watermarks and deliveries, and its
/// `(events, injected, delivered, drops at switch 1)`.
fn tandem_digest(
    cfg: &TwoHopConfig,
    source: SortedVecSource,
    senders: Option<&mut SenderSet>,
) -> (u64, [u64; 4]) {
    let mut digest = StreamDigest::default();
    let mut deliveries = StreamDigest::default();
    let opts = RunOptions {
        senders: senders.map(|s| s as _),
        ..RunOptions::default()
    };
    let net = cfg.tandem.network();
    let stats = run_network_streamed_source(net, &cfg.tandem, source, &mut digest, opts, |d| {
        deliveries.fold(d.packet.id.0);
        deliveries.fold(d.delivered_at.as_nanos());
    });
    digest.fold(deliveries.value());
    let drops = stats.queue_drops[TandemConfig::SW1];
    let counts = [stats.events, stats.injected, stats.delivered, drops];
    (digest.value(), counts)
}

/// The tandem with an in-band sender at switch 1 is the run over the list a
/// test builds by hand, each regular followed by the references `observe`
/// returns for it: digest for digest, calm, and past both switches' rates,
/// where switch 1 drops triggers its sender has seen.
#[test]
fn an_in_band_sender_equals_the_trigger_first_list() {
    for (target_utilization, sw1_bps) in [(0.67, None), (1.2, Some(1_000_000_000))] {
        let mut cfg = TwoHopConfig::paper(7, SimDuration::from_millis(20));
        cfg.cross = CrossSpec::Uniform { target_utilization };
        if let Some(rate_bps) = sw1_bps {
            cfg.tandem.switch1.rate_bps = rate_bps;
            cfg.tandem.switch1.capacity_bytes = 64 * 1024;
        }
        cfg.policy = PolicyKind::Static { n: 10 };
        let (regular, cross) = (generate(&cfg.regular_trace()), generate(&cfg.cross_trace()));
        let sender = || {
            let targets = vec![ref_key(4)];
            RliSender::new(SenderId(1), cfg.clocks.sender, cfg.policy.build(), targets)
        };
        let cross: Vec<_> = cross_stream(&cfg, &regular, &cross)
            .map(|p| (TandemConfig::SW2, p))
            .collect();
        let upstream = regular.packets.iter().map(|p| (TandemConfig::SW1, *p));

        let mut senders = SenderSet::one(TandemConfig::SW1, sender());
        let source = SortedVecSource::new(upstream.clone().chain(cross.iter().copied()));
        let in_band = tandem_digest(&cfg, source, Some(&mut senders));

        let (mut by_hand, mut listed) = (sender(), Vec::new());
        for (node, p) in upstream {
            listed.push((node, p));
            listed.extend(by_hand.observe(&p).iter().map(|r| (node, *r)));
        }
        let refs = listed.len() - regular.packets.len();
        let source = SortedVecSource::new(listed.into_iter().chain(cross));
        let offline = tandem_digest(&cfg, source, None);
        assert_eq!(in_band, offline, "target {target_utilization}");
        assert_eq!(in_band.1[3] > 0, sw1_bps.is_some(), "{:?}", in_band.1);
        assert!(refs > 500, "{refs} references");
        assert_eq!(senders.refs_emitted(), refs as u64);
    }
}
