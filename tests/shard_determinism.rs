//! Byte-identity of the pod-sharded engine (proptest).
//!
//! The sharded engine's whole contract is that shard count is a pure
//! performance knob: an N-shard run must produce **exactly** the stream a
//! 1-shard run produces — every [`HopEvent`] in the same order with the
//! same payload, every watermark, every delivery, and the same
//! stream-observable counters — across calm, tie-heavy and drop-heavy
//! regimes, under arbitrary mid-run [`FaultScript`]s, and when a
//! closed-loop detector truncates the run via [`StopFlag`]. These tests
//! drive a k=4 fat-tree partitioned by pod at 1, 2 and 4 shards (plus a
//! deliberately oversubscribed request) and compare order-sensitive
//! digests of everything the stream exposes — down to every field of
//! every hop record visible at each event, because one shard hands the
//! sink the live slab slot while several hand it a logged copy.
//!
//! The second half pins the ingest contract: ordinals are a pull counter,
//! so a run pulls its source only as far as it has got (a window's
//! horizon at most), whatever the shard count, and a misordered source
//! fails loudly.
//!
//! The per-shard capacity counters (`peak_live_slots`, `hop_allocations`)
//! are *documented* as shard-count-dependent and are excluded — see the
//! "Per-shard vs fused semantics" section on
//! [`rlir_sim::NetworkRunStats`].

use proptest::prelude::*;
use rlir::experiment::{run_fattree_faulted, FatTreeExpConfig};
use rlir::{build_network, DetectorConfig, FatTreeFabric};
use rlir_net::hash::HashAlgo;
use rlir_net::packet::Packet;
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
use rlir_sim::{
    run_network_sharded_source, FaultEvent, FaultKind, FaultScript, Hop, HopEvent, HopKind,
    HopSink, InjectionSource, QueueConfig, RunOptions, ShardPlan, SortedVecSource, StopFlag,
    StreamedDelivery,
};
use rlir_topo::FatTree;
use std::cell::Cell;

const K: usize = 4;

fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 27)
}

/// Fold a hop record field for field.
fn mix_hops(mut h: u64, hops: &[Hop]) -> u64 {
    h = mix(h, hops.len() as u64);
    for hop in hops {
        for v in [
            hop.node as u64,
            hop.port as u64,
            hop.arrived.as_nanos(),
            hop.departed.as_nanos(),
        ] {
            h = mix(h, v);
        }
    }
    h
}

/// Order-sensitive digest of the full observable stream: hop events
/// (kind, node, timestamp, packet id, marks, the visible hop record),
/// watermarks, and deliveries.
#[derive(Default)]
struct Digest<'a> {
    h: u64,
    hops: u64,
    marks: u64,
    deliveries: u64,
    watermark: u64,
    /// The run's source pull counter, when the test watches ingest.
    pulled: Option<&'a Cell<usize>>,
    /// `(pulls so far, watermark)` at the first `Deliver` event.
    first_deliver: Option<(usize, u64)>,
}

impl Digest<'_> {
    fn fold(&mut self, v: u64) {
        self.h = mix(self.h, v);
    }
}

impl HopSink for Digest<'_> {
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        if ev.kind == HopKind::Deliver && self.first_deliver.is_none() {
            let pulled = self.pulled.map_or(0, Cell::get);
            self.first_deliver = Some((pulled, self.watermark));
        }
        self.hops += 1;
        let kind = match ev.kind {
            HopKind::Arrive => 1,
            HopKind::Enqueue { port } => 2 + ((port as u64) << 8),
            HopKind::Dequeue { port, arrived } => {
                (3 + ((port as u64) << 8)) ^ arrived.as_nanos().rotate_left(17)
            }
            HopKind::QueueDrop { port } => 4 + ((port as u64) << 8),
            HopKind::RouteDrop => 5,
            HopKind::Deliver => 6,
        };
        self.fold(kind);
        self.fold(ev.node as u64);
        self.fold(ev.at.as_nanos());
        self.fold(ev.packet.id.0);
        self.fold(ev.packet.mark as u64);
        self.h = mix_hops(self.h, ev.hops);
    }

    fn on_watermark(&mut self, watermark: SimTime) {
        self.marks += 1;
        self.watermark = watermark.as_nanos();
        self.fold(0xABCD ^ watermark.as_nanos());
    }
}

/// A streaming source that is not one of the engine's `Vec` adapters: it
/// serves a time-ordered slice and counts its pulls where the sink can
/// read them mid-run. No hints, like a capture of unknown length.
struct CountingSource<'a> {
    items: &'a [(usize, Packet)],
    pulled: &'a Cell<usize>,
}

impl InjectionSource for CountingSource<'_> {
    fn peek(&mut self) -> Option<SimTime> {
        let next = self.items.get(self.pulled.get())?;
        Some(next.1.created_at)
    }

    fn next_injection(&mut self) -> Option<(usize, Packet)> {
        let next = *self.items.get(self.pulled.get())?;
        self.pulled.set(self.pulled.get() + 1);
        Some(next)
    }
}

fn tor_flow(tree: &FatTree, src_tor: usize, dst_tor: usize, salt: u64) -> FlowKey {
    let s = tree.host_addr(src_tor, (salt % 4) as usize);
    let d = tree.host_addr(dst_tor, ((salt >> 2) % 4) as usize);
    FlowKey::tcp(s, 1000 + (salt % 50) as u16, d, 80)
}

/// Workload generator: `n` packets across all ToR pairs. `spacing_ns`
/// controls the regime — large spacing is calm, zero spacing makes every
/// injection collide in time (tie-heavy), and `burst` concentrates
/// packets so shallow queues overflow (drop-heavy).
fn workload(
    tree: &FatTree,
    n: u64,
    spacing_ns: u64,
    burst: u64,
    seed: u64,
) -> Vec<(usize, Packet)> {
    let tors: Vec<usize> = tree.tors().collect();
    (0..n)
        .map(|i| {
            let r = mix(seed, i);
            let src = tors[(r % tors.len() as u64) as usize];
            let dst = tors[((r >> 8) % tors.len() as u64) as usize];
            let at = (i / burst.max(1)) * spacing_ns;
            let p = Packet::regular(
                i,
                tor_flow(tree, src, dst, r >> 16),
                200 + (r % 1200) as u32,
                SimTime::from_nanos(at),
            );
            (src, p)
        })
        .collect()
}

/// Map raw proptest draws onto real fat-tree fault events. Ports are
/// folded into each node's real port count inside the engine-facing
/// script, so every draw is a legal fault.
fn fault_script(tree: &FatTree, raw: &[(u8, u64, u64, u64)]) -> FaultScript {
    let n_nodes = tree.len() as u64;
    let events: Vec<FaultEvent> = raw
        .iter()
        .map(|&(kind, node, at, extra)| {
            let node = (node % n_nodes) as usize;
            // Every fat-tree switch has at least `half` ports.
            let port = (extra % tree.half() as u64) as usize;
            let kind = match kind % 6 {
                0 => FaultKind::LinkDown { node, port },
                1 => FaultKind::LinkUp { node, port },
                2 => FaultKind::SlowSwitch {
                    node,
                    extra: SimDuration::from_nanos(1 + extra % 3_000),
                },
                3 => FaultKind::ClearSwitch { node },
                4 => FaultKind::LossBurstStart { node },
                _ => FaultKind::LossBurstEnd { node },
            };
            FaultEvent {
                at: SimTime::from_nanos(at),
                kind,
            }
        })
        .collect();
    FaultScript::new(events)
}

struct RunOutput {
    digest: u64,
    hops: u64,
    marks: u64,
    deliveries: u64,
    delivery_digest: u64,
    delivered: u64,
    events: u64,
    injected: u64,
    queue_drops: u64,
    route_drops: u64,
    fault_drops: u64,
    shards: usize,
    windows: u64,
    /// Injections pulled by the end of a [`Fabric::streamed`] run.
    pulled: usize,
    first_deliver: Option<(usize, u64)>,
}

/// Link latency of [`run_sharded`]'s fabric — with the pod partition, the
/// lookahead.
const LINK_NS: u64 = 1_000;

/// The fabric a run goes through and the source it pulls from.
struct Fabric {
    queue: QueueConfig,
    link_delay: SimDuration,
    /// `None`: the fat-tree's pod partition.
    plan: Option<ShardPlan>,
    /// Pull from a [`CountingSource`] instead of the list wrapped in a
    /// [`SortedVecSource`].
    streamed: bool,
}

impl Fabric {
    fn pods(queue: QueueConfig) -> Self {
        Fabric {
            queue,
            link_delay: SimDuration::from_nanos(LINK_NS),
            plan: None,
            streamed: false,
        }
    }

    fn streamed(self) -> Self {
        Fabric {
            streamed: true,
            ..self
        }
    }

    /// One sharded run over the k=4 fat-tree; `stop_after` raises the
    /// [`StopFlag`] from inside the delivery callback after that many
    /// deliveries — the closed-loop detector's exact mechanism.
    fn run(
        &self,
        injections: &[(usize, Packet)],
        script: Option<&FaultScript>,
        shards: usize,
        stop_after: Option<u64>,
    ) -> RunOutput {
        let tree = FatTree::new(K, HashAlgo::default());
        let fabric = FatTreeFabric::new(&tree, true);
        let network = build_network(&tree, self.queue, self.link_delay, &[]);
        let plan = match &self.plan {
            Some(plan) => plan.clone(),
            None => ShardPlan::new(tree.pod_partition()),
        };
        let pulled = Cell::new(0);
        let mut sink = Digest {
            pulled: Some(&pulled),
            ..Digest::default()
        };
        let stop = StopFlag::new();
        let opts = RunOptions {
            faults: script,
            stop: Some(&stop),
        };
        let mut dd = 0u64;
        let mut seen = 0u64;
        let on_delivery = |d: &StreamedDelivery<'_>| {
            seen += 1;
            dd = mix(dd, d.packet.id.0);
            dd = mix(dd, d.delivered_node as u64);
            dd = mix(dd, d.delivered_at.as_nanos());
            dd = mix_hops(dd, d.hops);
            if stop_after.is_some_and(|n| seen >= n) {
                stop.request_stop();
            }
        };
        let out = if self.streamed {
            let source = CountingSource {
                items: injections,
                pulled: &pulled,
            };
            run_network_sharded_source(
                network,
                &fabric,
                source,
                &mut sink,
                opts,
                &plan,
                shards,
                on_delivery,
            )
        } else {
            run_network_sharded_source(
                network,
                &fabric,
                SortedVecSource::new(injections.iter().copied()),
                &mut sink,
                opts,
                &plan,
                shards,
                on_delivery,
            )
        };
        sink.deliveries = seen;
        RunOutput {
            pulled: pulled.get(),
            first_deliver: sink.first_deliver,
            ..RunOutput::of(&sink, dd, &out)
        }
    }
}

fn run_sharded(
    queue: QueueConfig,
    injections: &[(usize, Packet)],
    script: Option<&FaultScript>,
    shards: usize,
    stop_after: Option<u64>,
) -> RunOutput {
    Fabric::pods(queue).run(injections, script, shards, stop_after)
}

impl RunOutput {
    fn of(sink: &Digest<'_>, dd: u64, out: &rlir_sim::ShardRunStats) -> Self {
        RunOutput {
            digest: sink.h,
            hops: sink.hops,
            marks: sink.marks,
            deliveries: sink.deliveries,
            delivery_digest: dd,
            delivered: out.stats.delivered,
            events: out.stats.events,
            injected: out.stats.injected,
            queue_drops: out.stats.queue_drops.iter().sum(),
            route_drops: out.stats.route_drops.iter().sum(),
            fault_drops: out.stats.fault_drops,
            shards: out.shards,
            windows: out.windows,
            pulled: 0,
            first_deliver: None,
        }
    }
}

/// Assert two runs are observation-for-observation identical.
fn assert_identical(a: &RunOutput, b: &RunOutput) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.digest, b.digest, "hop/watermark stream diverged");
    prop_assert_eq!(a.delivery_digest, b.delivery_digest, "deliveries diverged");
    prop_assert_eq!(a.hops, b.hops);
    prop_assert_eq!(a.marks, b.marks);
    prop_assert_eq!(a.deliveries, b.deliveries);
    prop_assert_eq!(a.delivered, b.delivered);
    prop_assert_eq!(a.events, b.events);
    prop_assert_eq!(a.injected, b.injected);
    prop_assert_eq!(a.queue_drops, b.queue_drops);
    prop_assert_eq!(a.route_drops, b.route_drops);
    prop_assert_eq!(a.fault_drops, b.fault_drops);
    Ok(())
}

/// Shallow queues for the drop-heavy regime.
fn shallow() -> QueueConfig {
    QueueConfig {
        capacity_bytes: 4_000,
        ..QueueConfig::oc192()
    }
}

proptest! {
    /// The tentpole identity: arbitrary regime (spacing × burst × queue
    /// depth) and an arbitrary fault script, run at 1, 2 and 4 shards plus
    /// an oversubscribed shard request — all byte-identical.
    #[test]
    fn n_shards_match_one_shard_under_faults(
        seed in 0u64..1_000,
        n in 40u64..160,
        spacing in prop_oneof![Just(0u64), Just(40u64), Just(700u64)],
        burst in 1u64..8,
        deep in any::<bool>(),
        raw_faults in proptest::collection::vec(
            (0u8..6, 0u64..64, 0u64..120_000, 1u64..4_000), 0..10),
    ) {
        let tree = FatTree::new(K, HashAlgo::default());
        let queue = if deep { QueueConfig::oc192() } else { shallow() };
        let injections = workload(&tree, n, spacing, burst, seed);
        let script = fault_script(&tree, &raw_faults);

        let one = run_sharded(queue, &injections, Some(&script), 1, None);
        prop_assert_eq!(one.shards, 1);
        prop_assert_eq!(one.injected, n);
        prop_assert!(one.hops > 0);
        // Conservation while we're here: every packet meets one fate.
        prop_assert_eq!(
            one.delivered + one.queue_drops + one.route_drops,
            n,
            "delivered {} + queue {} + route {} != injected {}",
            one.delivered, one.queue_drops, one.route_drops, n
        );
        prop_assert!(one.fault_drops <= one.route_drops);

        for shards in [2usize, 4] {
            let many = run_sharded(queue, &injections, Some(&script), shards, None);
            prop_assert_eq!(many.shards, shards, "k=4 pods+core gives 5 groups");
            assert_identical(&one, &many)?;
            // Same safe-horizon window schedule regardless of shard count.
            prop_assert_eq!(many.windows, one.windows);
        }

        // Requesting more shards than partition groups caps at the group
        // count (k pods + the core group) and stays identical too.
        let over = run_sharded(queue, &injections, Some(&script), 64, None);
        prop_assert_eq!(over.shards, K + 1);
        assert_identical(&one, &over)?;
    }

    /// Closed-loop truncation: a detector raising [`StopFlag`] mid-stream
    /// halts every shard at the same event-time — the truncated N-shard
    /// run is byte-identical to the truncated 1-shard run, and genuinely
    /// shorter than the untruncated one.
    #[test]
    fn stop_flag_truncates_all_shards_at_the_same_point(
        seed in 0u64..1_000,
        n in 60u64..140,
        stop_after in 5u64..40,
        raw_faults in proptest::collection::vec(
            (0u8..6, 0u64..64, 0u64..120_000, 1u64..4_000), 0..6),
    ) {
        let tree = FatTree::new(K, HashAlgo::default());
        let injections = workload(&tree, n, 40, 4, seed);
        let script = fault_script(&tree, &raw_faults);

        let full = run_sharded(shallow(), &injections, Some(&script), 1, None);
        let one = run_sharded(shallow(), &injections, Some(&script), 1, Some(stop_after));
        for shards in [2usize, 4] {
            let many = run_sharded(shallow(), &injections, Some(&script), shards, Some(stop_after));
            assert_identical(&one, &many)?;
        }
        if full.deliveries > stop_after {
            prop_assert!(
                one.events < full.events,
                "stop at delivery {} of {} did not truncate ({} vs {} events)",
                stop_after, full.deliveries, one.events, full.events
            );
            prop_assert_eq!(one.deliveries, stop_after);
        }
    }
}

proptest! {
    /// The list adapter and a streaming source feed one engine: a
    /// tie-heavy list (every injection collides with others in time)
    /// wrapped in a `SortedVecSource` and pulled through a `CountingSource`
    /// digests identically, at one shard (emitted in place) and at several
    /// (logged and replayed).
    #[test]
    fn iterator_and_source_entries_agree_on_ties(
        seed in 0u64..1_000,
        n in 40u64..160,
        spacing in prop_oneof![Just(0u64), Just(40u64)],
        burst in 2u64..12,
        shards in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        raw_faults in proptest::collection::vec(
            (0u8..6, 0u64..64, 0u64..120_000, 1u64..4_000), 0..6),
    ) {
        let tree = FatTree::new(K, HashAlgo::default());
        let injections = workload(&tree, n, spacing, burst, seed);
        let script = fault_script(&tree, &raw_faults);
        let listed = Fabric::pods(shallow()).run(&injections, Some(&script), shards, None);
        let pulled = Fabric::pods(shallow())
            .streamed()
            .run(&injections, Some(&script), shards, None);
        assert_identical(&listed, &pulled)?;
        prop_assert_eq!(listed.windows, pulled.windows);
        prop_assert_eq!(pulled.pulled as u64, n);
    }
}

/// A calm stream long enough that the first delivery comes early in it.
fn long_stream(tree: &FatTree) -> Vec<(usize, Packet)> {
    workload(tree, 400, 700, 1, 11)
}

/// Ingest streams at every shard count: when the sink sees its first
/// delivery, the source has been pulled no further than the horizon of
/// the window that delivery was processed in.
#[test]
fn source_is_pulled_no_further_than_the_window_horizon() {
    let tree = FatTree::new(K, HashAlgo::default());
    let injections = long_stream(&tree);
    let fabric = Fabric::pods(QueueConfig::oc192()).streamed();
    for shards in [1usize, 2, 4] {
        let out = fabric.run(&injections, None, shards, None);
        assert_eq!(out.shards, shards);
        let (pulled, watermark) = out.first_deliver.expect("the run delivers");
        // The delivering unit ran at `watermark`, inside a window that
        // started no later: its horizon is at most one lookahead past it.
        let within_horizon = injections
            .iter()
            .filter(|(_, p)| p.created_at.as_nanos() < watermark + LINK_NS)
            .count();
        assert!(
            pulled <= within_horizon && pulled < injections.len(),
            "{shards} shard(s): {pulled} of {} pulled at the first delivery, \
             {within_horizon} lie before the horizon",
            injections.len()
        );
        assert_eq!(out.pulled, injections.len(), "the run drains the source");
    }
}

/// A raised [`StopFlag`] stops the pulling too — and the truncated stream,
/// counters and window count are the same however many shards ran.
#[test]
fn stop_flag_leaves_the_source_undrained() {
    let tree = FatTree::new(K, HashAlgo::default());
    let injections = long_stream(&tree);
    let fabric = Fabric::pods(shallow()).streamed();
    let one = fabric.run(&injections, None, 1, Some(10));
    assert_eq!(one.deliveries, 10);
    assert!(one.pulled < injections.len(), "1 shard drained the source");
    for shards in [2usize, 4] {
        let many = fabric.run(&injections, None, shards, Some(10));
        assert_identical(&one, &many).unwrap();
        assert_eq!(many.windows, one.windows, "shards={shards}");
        assert!(many.pulled < injections.len(), "shards={shards}");
    }
}

/// One unbounded window is no reason to buffer the run: under
/// [`ShardPlan::single`] and under a zero-latency collapse the first
/// delivery reaches the sink before the source is exhausted.
#[test]
fn one_unbounded_window_still_streams() {
    let tree = FatTree::new(K, HashAlgo::default());
    let injections = long_stream(&tree);
    let single = Fabric {
        plan: Some(ShardPlan::single(tree.len())),
        ..Fabric::pods(QueueConfig::oc192()).streamed()
    };
    let collapsed = Fabric {
        link_delay: SimDuration::from_nanos(0),
        ..Fabric::pods(QueueConfig::oc192()).streamed()
    };
    for (name, fabric) in [("single plan", single), ("zero-latency links", collapsed)] {
        let out = fabric.run(&injections, None, 4, None);
        assert_eq!((out.shards, out.windows), (1, 1), "{name}");
        let (pulled, _) = out.first_deliver.expect("the run delivers");
        assert!(
            pulled < injections.len(),
            "{name}: the whole source was pulled before the first delivery"
        );
        assert_eq!(out.delivered, injections.len() as u64, "{name}");
    }
}

/// Run a source that breaks the contract at its last record and return
/// the panic message, at one shard (the worker pulls) and two (the
/// coordinator pulls, with worker threads parked at the barrier).
fn panic_of(bad: (usize, Packet)) -> Vec<String> {
    let tree = FatTree::new(K, HashAlgo::default());
    let mut injections = workload(&tree, 20, 700, 1, 3);
    injections.push(bad);
    [1usize, 2]
        .into_iter()
        .map(|shards| {
            let run = std::panic::AssertUnwindSafe(|| {
                Fabric::pods(QueueConfig::oc192())
                    .streamed()
                    .run(&injections, None, shards, None)
            });
            let payload = std::panic::catch_unwind(run).err().expect("the run panics");
            payload
                .downcast_ref::<String>()
                .expect("a formatted panic")
                .clone()
        })
        .collect()
}

#[test]
fn a_source_going_backwards_fails_loudly() {
    let tree = FatTree::new(K, HashAlgo::default());
    let early = workload(&tree, 1, 0, 1, 3)[0];
    for msg in panic_of(early) {
        assert!(msg.contains("injection source went backwards"), "{msg}");
    }
}

#[test]
fn a_source_naming_an_unknown_node_fails_loudly() {
    let tree = FatTree::new(K, HashAlgo::default());
    let (_, late) = workload(&tree, 30, 700, 1, 3)[29];
    for msg in panic_of((tree.len(), late)) {
        assert!(msg.contains("injection at unknown node"), "{msg}");
    }
}

/// Scenario-level identity: the full `faults`-style experiment — two
/// simulation phases, measurement plane, online detector — through
/// `FatTreeExpConfig::shards`, 1 vs 2 vs 4.
#[test]
fn faulted_experiment_is_shard_count_invariant() {
    let mut cfg = FatTreeExpConfig::paper(7, SimDuration::from_millis(3));
    cfg.epoch = Some(SimDuration::from_millis(1));
    let script = FaultScript::new(vec![FaultEvent {
        at: SimTime::from_nanos(400_000),
        kind: FaultKind::SlowSwitch {
            node: 0,
            extra: SimDuration::from_micros(120),
        },
    }]);
    let detector = DetectorConfig::default();

    cfg.shards = 1;
    let one = run_fattree_faulted(&cfg, Some(&script), Some(&detector));
    for shards in [2usize, 4] {
        cfg.shards = shards;
        let many = run_fattree_faulted(&cfg, Some(&script), Some(&detector));
        assert_eq!(many.delivered, one.delivered, "shards={shards}");
        assert_eq!(many.events, one.events, "shards={shards}");
        assert_eq!(many.fault_drops, one.fault_drops, "shards={shards}");
        assert_eq!(
            many.detection.is_some(),
            one.detection.is_some(),
            "shards={shards}"
        );
        if let (Some(a), Some(b)) = (&one.detection, &many.detection) {
            assert_eq!(a.at, b.at, "detection time diverged at shards={shards}");
            assert_eq!(a.tap, b.tap, "detection site diverged at shards={shards}");
            assert_eq!(
                a.epoch, b.epoch,
                "detection epoch diverged at shards={shards}"
            );
        }
        assert_eq!(
            many.outcome.seg2_errors.len(),
            one.outcome.seg2_errors.len(),
            "shards={shards}"
        );
    }
}
