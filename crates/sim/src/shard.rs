//! The engine: one keyed per-hop step on one thread.
//!
//! Every simulation enters through [`run_network_streamed_source`] and goes
//! through one cascade, `ShardWorker::unit`: a packet arrives at a switch,
//! is routed (rerouted around a dead port, killed by a loss burst), marked,
//! queued and scheduled onward. Each switch's ports are
//! [`FifoQueue`](crate::queue::FifoQueue)s, in-flight packet state lives
//! in a free-list [`PacketSlab`] (memory O(max in-flight)), ingest is
//! pulled from an [`InjectionSource`], and the only queue is a
//! [`CalendarQueue`] at the fabric's grain
//! ([`Network::calendar_geometry`]).
//!
//! # One order
//!
//! Units drain by `(time, tie)`. The tie is `(ordinal, progress)` — the
//! packet's position in the time-ordered injection stream and its hop
//! counter, packed into the queue's one `u64` tie (`pack_key`) — a total
//! order: at one instant, the earlier-injected packet goes first, and a
//! scheduled arrival goes before an injection. Ordinals are a pull
//! counter, so ingest streams.
//!
//! A reference an in-band sender ([`RefSenders`]) puts behind its trigger
//! is born mid-run: it enters the slab at the trigger's node and instant
//! and the queue as `(instant, (ordinal, 0))`, its ordinal drawn at birth
//! from the same counter that numbers pulls. So it follows its trigger and
//! every unit already queued for that instant, and precedes every later
//! pull — where a reference pulled right after its trigger would stand.
//!
//! Everything a unit produces reaches `sink`, `on_delivery` and the stats
//! as the unit runs, through the run's `Emitter`, borrowed from the live
//! slab slot. [`run_network_sharded_source`] is the same loop plus a count
//! of the conservative-lookahead windows a node partition admits.

use crate::fault::{FaultEvent, FaultScript, FaultState, StopFlag};
use crate::network::{
    Forwarder, Hop, HopEvent, HopKind, HopSink, Network, NetworkRunStats, NodeId, PortId,
    RefSenders, RouteDecision, RunOptions, StreamedDelivery,
};
use crate::queue::Verdict;
use crate::sched::{CalendarQueue, EventSchedule};
use crate::slab::{PacketSlab, SlotId};
use crate::source::InjectionSource;
use rlir_net::packet::Packet;
use rlir_net::time::SimTime;

/// Low bits of the packed tie that hold the hop progress; the ordinal
/// takes the 44 above them (1.7 · 10¹³ injections, a million hops each).
const PROGRESS_BITS: u32 = 20;
const PROGRESS_MASK: u64 = (1 << PROGRESS_BITS) - 1;

/// Scheduler tie: `(packet ordinal, hop progress)` packed into one word,
/// ordinal above progress, so ties compare as the pair does. The ordinal is
/// the packet's position in the time-ordered injection stream (unique per
/// packet); progress is its hop counter, strictly increasing along the
/// packet's life, so `(at, tie)` is a total order over engine units. A
/// field that does not fit panics, never wraps into the other.
fn pack_key(ordinal: u64, progress: u32) -> u64 {
    assert!(
        ordinal >> (u64::BITS - PROGRESS_BITS) == 0,
        "packet ordinal {ordinal} overflows the packed scheduler key"
    );
    assert!(
        u64::from(progress) <= PROGRESS_MASK,
        "hop progress {progress} overflows the packed scheduler key (forwarding loop?)"
    );
    ordinal << PROGRESS_BITS | u64::from(progress)
}

/// The `(ordinal, progress)` a tie was packed from.
fn unpack_key(tie: u64) -> (u64, u32) {
    (tie >> PROGRESS_BITS, (tie & PROGRESS_MASK) as u32)
}

/// The tie of the same packet's next unit: one hop more progress, checked
/// like [`pack_key`] so it never carries into the ordinal.
fn next_hop(tie: u64) -> u64 {
    assert!(
        tie & PROGRESS_MASK != PROGRESS_MASK,
        "hop progress overflows the packed scheduler key (forwarding loop?)"
    );
    tie + 1
}

/// The tie of the next packet to enter the run — pulled or born — from the
/// run's ordinal counter `next_ord` (progress 0).
fn next_entry(next_ord: &mut u64) -> u64 {
    let tie = pack_key(*next_ord, 0);
    *next_ord += 1;
    tie
}

/// What the queue moves: slot handle + next node, 8 bytes, `Copy`, private
/// to the run's slab.
#[derive(Debug, Clone, Copy)]
struct ShardEvent {
    node: u32,
    slot: SlotId,
}

const _: () = assert!(std::mem::size_of::<ShardEvent>() == 8);
// … which makes the queue entry around it three words.
const _: () = assert!(std::mem::size_of::<crate::sched::Entry<ShardEvent>>() == 24);

/// A node-to-group partition of the network: the groups
/// [`run_network_sharded_source`] counts lookahead windows over.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    groups: Vec<usize>,
}

impl ShardPlan {
    /// A plan from an explicit node → group map. Group ids are labels,
    /// ranked densely in id order, so a sparse labelling (`[0, 5]`) counts
    /// exactly like the dense one (`[0, 1]`).
    pub fn new(mut groups: Vec<usize>) -> Self {
        let mut ids = groups.clone();
        ids.sort_unstable();
        ids.dedup();
        for g in &mut groups {
            *g = ids.binary_search(g).expect("every id was collected");
        }
        ShardPlan { groups }
    }

    /// The node → group map, group ids dense from 0.
    pub fn groups(&self) -> &[usize] {
        &self.groups
    }
}

/// Result of [`run_network_sharded_source`]: the run's
/// [`NetworkRunStats`] plus its window count.
#[derive(Debug, Clone)]
pub struct ShardRunStats {
    /// The run's stats, exactly [`run_network_streamed_source`]'s.
    pub stats: NetworkRunStats,
    /// Threads the run used: always 1.
    pub shards: usize,
    /// Conservative-lookahead windows the plan's partition divides the run
    /// into (see [`run_network_sharded_source`]).
    pub windows: u64,
    /// Windows some thread spent idle: always 0 on one thread.
    pub shard_stalls: u64,
}

/// The run's one observable output. Everything `sink`, `on_delivery` and
/// the stats ever see passes through here, in keyed order, as the units
/// run. A unit writes to it in order: `begin`, its hop events (views of the
/// live slab slot, whose hop record only appends within a unit; a
/// `Deliver` event is the delivery).
struct Emitter<'a, S, D> {
    sink: &'a mut S,
    on_delivery: &'a mut D,
    stop: Option<&'a StopFlag>,
    /// Scripted transitions still to be shown to the sink. The worker's
    /// `FaultState` applies them to the network; the notification happens
    /// here, before the callbacks of the first unit that reached them.
    script: &'a [FaultEvent],
    watermark: Option<SimTime>,
    stats: NetworkRunStats,
}

impl<'a, S, D> Emitter<'a, S, D> {
    fn new(
        sink: &'a mut S,
        on_delivery: &'a mut D,
        faults: Option<&'a FaultScript>,
        stop: Option<&'a StopFlag>,
        n_nodes: usize,
    ) -> Self {
        Emitter {
            sink,
            on_delivery,
            stop,
            script: faults.map_or(&[][..], FaultScript::events),
            watermark: None,
            stats: NetworkRunStats {
                queue_drops: vec![0; n_nodes],
                route_drops: vec![0; n_nodes],
                ..NetworkRunStats::default()
            },
        }
    }
}

impl<S: HopSink, D: FnMut(&StreamedDelivery<'_>)> Emitter<'_, S, D> {
    /// Whether the run was asked to stop before its next unit.
    fn stopped(&self) -> bool {
        self.stop.is_some_and(StopFlag::is_set)
    }

    /// A unit starts at `at` (progress 0: the packet is being injected).
    fn begin(&mut self, at: SimTime, tie: u64) {
        while let Some((ev, rest)) = self.script.split_first().filter(|(ev, _)| ev.at <= at) {
            self.script = rest;
            self.sink.on_fault(ev);
        }
        if self.watermark.is_none_or(|w| at > w) {
            self.sink.on_watermark(at);
            self.watermark = Some(at);
        }
        self.stats.events += 1;
        self.stats.injected += u64::from(unpack_key(tie).1 == 0);
    }

    // Inlined, so the match below folds away at each of the unit's call
    // sites, whose kinds are constants.
    #[inline(always)]
    fn hop(&mut self, ev: &HopEvent<'_>) {
        self.sink.on_hop(ev);
        match ev.kind {
            HopKind::QueueDrop { .. } => self.stats.queue_drops[ev.node] += 1,
            HopKind::RouteDrop => self.stats.route_drops[ev.node] += 1,
            HopKind::Deliver => {
                self.stats.delivered += 1;
                (self.on_delivery)(&StreamedDelivery {
                    packet: ev.packet,
                    injected_node: ev.injected_node,
                    injected_at: ev.injected_at,
                    delivered_node: ev.node,
                    delivered_at: ev.at,
                    hops: ev.hops,
                });
            }
            _ => {}
        }
    }

    /// The packet dies in this unit *because of* an injected fault.
    fn fault_drop(&mut self) {
        self.stats.fault_drops += 1;
    }
}

/// The injection stream. Each pull is checked against the source
/// contract — a misordered source would put `Arrive` events behind the
/// watermark and silently break every streaming consumer, so the engine
/// fails loudly instead.
struct Ingest<I> {
    source: I,
    last_at: SimTime,
    n_nodes: usize,
}

impl<I: InjectionSource> Ingest<I> {
    fn new(source: I, n_nodes: usize) -> Self {
        Ingest {
            source,
            last_at: SimTime::ZERO,
            n_nodes,
        }
    }

    fn peek(&mut self) -> Option<u64> {
        self.source.peek().map(SimTime::as_nanos)
    }

    /// The next injection.
    fn pull(&mut self) -> (NodeId, Packet) {
        let (node, packet) = self.source.next_injection().expect("peeked non-empty");
        assert!(node < self.n_nodes, "injection at unknown node {node}");
        let at = packet.created_at;
        assert!(
            at >= self.last_at,
            "injection source went backwards: {} after {}",
            at.as_nanos(),
            self.last_at.as_nanos()
        );
        self.last_at = at;
        (node, packet)
    }
}

/// The run's state: the network (its queues and fault effects), the
/// forwarder, the slab, the keyed queue, the fault cursor, the ordinal
/// counter and the in-band senders.
struct ShardWorker<'a, 's, F> {
    network: Network,
    forwarder: &'a F,
    slab: PacketSlab,
    schedule: CalendarQueue<ShardEvent>,
    faults: Option<FaultState<'a>>,
    /// Ordinal of the next pull or reference birth.
    next_ord: u64,
    senders: Option<&'s mut dyn RefSenders>,
    /// Whether each node hosts a sender: all `false` without senders.
    hosts: Vec<bool>,
}

impl<'a, 's, F: Forwarder> ShardWorker<'a, 's, F> {
    fn new(
        network: Network,
        forwarder: &'a F,
        faults: Option<&'a FaultScript>,
        senders: Option<&'s mut dyn RefSenders>,
    ) -> Self {
        let (width, buckets) = network.calendar_geometry();
        let nodes = 0..network.nodes.len();
        let hosts = nodes.map(|n| senders.as_ref().is_some_and(|s| s.hosts(n)));
        ShardWorker {
            hosts: hosts.collect(),
            network,
            forwarder,
            slab: PacketSlab::new(),
            schedule: CalendarQueue::with_geometry(width, buckets),
            faults: faults.map(FaultState::new),
            next_ord: 0,
            senders,
        }
    }

    /// The whole run, as one loop: pull an injection when nothing in the
    /// queue is due by its time, until both run dry or `out` says stop.
    /// Every queued unit belongs to a packet pulled earlier (a smaller
    /// ordinal), so at an equal time it wins the keyed tie against the
    /// injection.
    fn run_alone<S, D, I>(&mut self, out: &mut Emitter<'_, S, D>, ingest: &mut Ingest<I>)
    where
        S: HopSink,
        D: FnMut(&StreamedDelivery<'_>),
        I: InjectionSource,
    {
        while !out.stopped() {
            let inject = match ingest.peek() {
                Some(t) => self.schedule.peek_due(SimTime::from_nanos(t)).is_none(),
                None if self.schedule.is_empty() => break,
                None => false,
            };
            if inject {
                let (node, packet) = ingest.pull();
                let tie = next_entry(&mut self.next_ord);
                let at = packet.created_at;
                let slot = self.slab.insert(packet, node, at);
                self.unit(out, at, tie, node, slot);
            } else {
                let (at, tie, ev) = self.schedule.pop_keyed().expect("non-empty");
                self.unit(out, at, tie, ev.node as usize, ev.slot);
            }
        }
    }

    /// Hand `out` one hop event for the live packet in `slot`.
    #[inline(always)]
    fn hop<S, D>(
        &self,
        out: &mut Emitter<'_, S, D>,
        kind: HopKind,
        node: usize,
        at: SimTime,
        slot: SlotId,
    ) where
        S: HopSink,
        D: FnMut(&StreamedDelivery<'_>),
    {
        let st = self.slab.get(slot);
        out.hop(&HopEvent {
            kind,
            node,
            at,
            packet: &st.packet,
            injected_node: st.injected_node,
            injected_at: st.injected_at,
            hops: st.hops(),
        });
    }

    /// The references the sender at `node` puts behind the packet in `slot`,
    /// which arrived at `at` and leaves by `port`: each enters the slab at
    /// that node and instant and is keyed by its birth ordinal.
    #[inline(never)]
    fn send_references(&mut self, node: usize, port: PortId, at: SimTime, slot: SlotId) {
        let trigger = self.slab.get(slot).packet;
        if !trigger.is_regular() {
            return;
        }
        let senders = self.senders.as_deref_mut().expect("a hosting node");
        for r in senders.observe(node, port, at, &trigger) {
            let tie = next_entry(&mut self.next_ord);
            let slot = self.slab.insert(*r, node, at);
            let event = ShardEvent {
                node: node as u32,
                slot,
            };
            self.schedule.push_keyed(at, tie, event);
        }
    }

    /// One engine unit — the packet in `slot` arrives at `node` at `at` —
    /// with everything observable written to `out`.
    fn unit<S, D>(
        &mut self,
        out: &mut Emitter<'_, S, D>,
        at: SimTime,
        tie: u64,
        node: usize,
        slot: SlotId,
    ) where
        S: HopSink,
        D: FnMut(&StreamedDelivery<'_>),
    {
        if let Some(fs) = self.faults.as_mut() {
            fs.advance(at, &mut self.network);
        }
        out.begin(at, tie);
        self.hop(out, HopKind::Arrive, node, at, slot);
        // Whether the packet leaves the slab with this unit.
        let mut done = true;
        if self.faults.as_ref().is_some_and(|f| f.lossy(node)) {
            // Loss burst: the packet dies here, accounted exactly like a
            // route drop so drop-aware taps see it.
            out.fault_drop();
            self.hop(out, HopKind::RouteDrop, node, at, slot);
        } else {
            let mut decision = self.forwarder.route(node, &self.slab.get(slot).packet);
            if let (RouteDecision::Forward(chosen), Some(fs)) = (decision, self.faults.as_ref()) {
                if fs.is_dead(node, chosen) {
                    let packet = &self.slab.get(slot).packet;
                    let dead = fs.dead_ports(node);
                    decision = match self.forwarder.reroute(node, packet, chosen, &dead) {
                        RouteDecision::Forward(alt) if !fs.is_dead(node, alt) => {
                            RouteDecision::Forward(alt)
                        }
                        RouteDecision::Deliver => RouteDecision::Deliver,
                        _ => {
                            out.fault_drop();
                            RouteDecision::Drop
                        }
                    };
                }
            }
            match decision {
                RouteDecision::Drop => self.hop(out, HopKind::RouteDrop, node, at, slot),
                RouteDecision::Deliver => self.hop(out, HopKind::Deliver, node, at, slot),
                RouteDecision::Forward(port_id) => {
                    self.forwarder
                        .on_forward(node, port_id, self.slab.packet_mut(slot));
                    if self.hosts[node] {
                        self.send_references(node, port_id, at, slot);
                    }
                    let port = &mut self.network.nodes[node].ports[port_id];
                    let (link_to, link_delay) = (port.link_to, port.link_delay);
                    match port.queue.offer(at, &self.slab.get(slot).packet) {
                        Verdict::Dropped => {
                            self.hop(out, HopKind::QueueDrop { port: port_id }, node, at, slot);
                        }
                        Verdict::Departs(departed) => {
                            self.hop(out, HopKind::Enqueue { port: port_id }, node, at, slot);
                            let hop = Hop {
                                node,
                                port: port_id,
                                arrived: at,
                                departed,
                            };
                            self.slab.push_hop(slot, hop);
                            let dequeue = HopKind::Dequeue {
                                port: port_id,
                                arrived: at,
                            };
                            self.hop(out, dequeue, node, departed, slot);
                            let arrives = departed + link_delay;
                            match link_to {
                                Some(next) => {
                                    let event = ShardEvent {
                                        node: next as u32,
                                        slot,
                                    };
                                    self.schedule.push_keyed(arrives, next_hop(tie), event);
                                    done = false;
                                }
                                None => self.hop(out, HopKind::Deliver, node, arrives, slot),
                            }
                        }
                    }
                }
            }
        }
        if done {
            self.slab.release(slot);
        }
    }
}

/// Run packets through the network, pulling injections from `source` as
/// the run reaches them: every hop event and watermark goes to `sink`,
/// every delivery to `on_delivery` (borrowed from the slab, its slot
/// recycled when the callback returns), and the run returns bounded
/// [`NetworkRunStats`] — whole-run engine memory is O(max in-flight), and
/// ingest memory is whatever the source buffers. [`RunOptions`] adds a
/// mid-run fault script, a cooperative stop and in-band reference senders,
/// whose references count as injected. Wrap a list in
/// [`SortedVecSource::new`](crate::source::SortedVecSource::new); pass a
/// source by `&mut` to keep it (and its counters) after the run.
///
/// The source contract — known entry node, non-decreasing time — is
/// asserted per pull. Deliveries stream in processing order (see
/// [`StreamedDelivery`]). This is the engine's one loop (the module docs);
/// nothing here needs `Send` or `Sync`.
pub fn run_network_streamed_source(
    network: Network,
    forwarder: &impl Forwarder,
    source: impl InjectionSource,
    sink: &mut impl HopSink,
    opts: RunOptions<'_>,
    mut on_delivery: impl FnMut(&StreamedDelivery<'_>),
) -> NetworkRunStats {
    let RunOptions {
        faults,
        stop,
        senders,
    } = opts;
    let n = network.nodes.len();
    let mut ingest = Ingest::new(source, n);
    let mut out = Emitter::new(sink, &mut on_delivery, faults, stop, n);
    let mut worker = ShardWorker::new(network, forwarder, faults, senders);
    worker.run_alone(&mut out, &mut ingest);
    let mut stats = out.stats;
    stats.peak_live_slots = worker.slab.peak_live();
    stats.hop_allocations = worker.slab.hop_allocations();
    stats.sched = worker.schedule.stats();
    stats.network = worker.network;
    stats
}

/// Exclusive end of the lookahead window that opens at `t0`: `None` is
/// unbounded — no inter-group link, or a window reaching the end of time
/// (the two largest instants), which an exclusive bound could never close
/// over a unit at `u64::MAX`.
fn window_horizon(t0: u64, lookahead: Option<u64>) -> Option<u64> {
    t0.checked_add(lookahead?).filter(|&h| h < u64::MAX - 1)
}

/// The run's window count, read off the watermark stream on its way to the
/// sink. A unit at or past the horizon opens the next window, and it is
/// always a new watermark — every earlier unit lies below that horizon.
struct WindowCount<'a, S> {
    sink: &'a mut S,
    lookahead: Option<u64>,
    horizon: Option<u64>,
    windows: u64,
}

impl<S: HopSink> HopSink for WindowCount<'_, S> {
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        self.sink.on_hop(ev);
    }

    fn on_watermark(&mut self, watermark: SimTime) {
        let t = watermark.as_nanos();
        if self.horizon.is_some_and(|h| t >= h) {
            self.windows += 1;
            self.horizon = window_horizon(t, self.lookahead);
        }
        self.sink.on_watermark(watermark);
    }

    fn on_fault(&mut self, ev: &FaultEvent) {
        self.sink.on_fault(ev);
    }
}

/// [`run_network_streamed_source`] on the calling thread, whatever
/// `shards` says, plus the count of conservative-lookahead windows `plan`
/// admits: a window opens at the earliest pending unit `t0` and ends
/// before `t0 + L`, where the lookahead `L` is the minimum latency of any
/// link between two groups (one unbounded window when there is no such
/// link or one of them has zero latency). The result reports
/// `shards: 1` and `shard_stalls: 0`. Product code calls
/// [`run_network_streamed_source`]; the ledger's `incast_keyed` workload
/// calls this.
#[allow(clippy::too_many_arguments)]
pub fn run_network_sharded_source<F: Forwarder + Sync>(
    network: Network,
    forwarder: &F,
    source: impl InjectionSource,
    sink: &mut impl HopSink,
    opts: RunOptions<'_>,
    plan: &ShardPlan,
    _shards: usize,
    on_delivery: impl FnMut(&StreamedDelivery<'_>),
) -> ShardRunStats {
    let groups = plan.groups();
    assert_eq!(
        groups.len(),
        network.nodes.len(),
        "shard plan and network differ in size"
    );
    let inter_group = network.links().filter(|&(a, b, _)| groups[a] != groups[b]);
    let lookahead = inter_group.map(|(_, _, p)| p.link_delay.as_nanos()).min();
    let mut counted = WindowCount {
        sink,
        lookahead: lookahead.filter(|&l| l > 0),
        horizon: Some(0),
        windows: 0,
    };
    let stats =
        run_network_streamed_source(network, forwarder, source, &mut counted, opts, on_delivery);
    ShardRunStats {
        stats,
        shards: 1,
        windows: counted.windows,
        shard_stalls: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Port, StreamDigest};
    use crate::queue::QueueConfig;
    use crate::source::SortedVecSource;
    use rlir_net::flow::FlowKey;
    use rlir_net::time::SimDuration;
    use std::net::Ipv4Addr;

    /// Two switches in tandem, each its own group, 1 µs link.
    fn tandem() -> Network {
        let mut net = Network::default();
        let a = net.add_node("A");
        let b = net.add_node("B");
        let cfg = QueueConfig::oc192();
        net.add_port(a, Port::to_switch(cfg, b, SimDuration::from_micros(1)));
        net.add_port(b, Port::to_host(cfg, SimDuration::from_micros(1)));
        net
    }

    struct Chain;
    impl Forwarder for Chain {
        fn route(&self, _node: NodeId, _packet: &Packet) -> RouteDecision {
            RouteDecision::Forward(0)
        }
    }

    fn pkt(id: u64, at: u64) -> Packet {
        Packet::regular(
            id,
            FlowKey::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                1000,
                Ipv4Addr::new(10, 0, 0, 2),
                2000,
            ),
            1000,
            SimTime::from_nanos(at),
        )
    }

    /// Windows the 600-injection run below opens over the two-group plan.
    const WINDOWS: u64 = 152;

    /// The hop + watermark stream, then the deliveries, as one digest.
    fn digest_of(deliveries: Vec<(u64, u64)>, mut digest: StreamDigest) -> u64 {
        for (id, at) in deliveries {
            digest.fold(id);
            digest.fold(at);
        }
        digest.value()
    }

    fn sharded_digest(shards: usize, injections: &[(NodeId, Packet)]) -> (u64, ShardRunStats) {
        let mut digest = StreamDigest::default();
        let mut deliveries = Vec::new();
        let out = run_network_sharded_source(
            tandem(),
            &Chain,
            SortedVecSource::new(injections.iter().copied()),
            &mut digest,
            RunOptions::default(),
            &ShardPlan::new(vec![0, 1]),
            shards,
            |d| deliveries.push((d.packet.id.0, d.delivered_at.as_nanos())),
        );
        (digest_of(deliveries, digest), out)
    }

    #[test]
    fn streamed_source_entry_is_byte_identical_for_any_shard_count() {
        // The sharded entry is the streamed entry plus a window count,
        // whatever shard count it is asked for.
        let injections: Vec<(NodeId, Packet)> = (0..600)
            .map(|i| (i as usize % 2, pkt(i, (i % 7) * 900)))
            .collect();
        let mut digest = StreamDigest::default();
        let mut deliveries = Vec::new();
        let stats = run_network_streamed_source(
            tandem(),
            &Chain,
            SortedVecSource::new(injections.iter().copied()),
            &mut digest,
            RunOptions::default(),
            |d| deliveries.push((d.packet.id.0, d.delivered_at.as_nanos())),
        );
        let digest = digest_of(deliveries, digest);
        assert_eq!(stats.injected, injections.len() as u64);
        for shards in [1, 2, 16] {
            let (expect, out) = sharded_digest(shards, &injections);
            assert_eq!(
                digest, expect,
                "sharded entry diverged at {shards} shard(s)"
            );
            assert_eq!(out.stats.events, stats.events);
            assert_eq!((out.shards, out.shard_stalls), (1, 0));
            assert_eq!(out.windows, WINDOWS, "shards={shards}");
        }
    }

    #[test]
    fn packed_keys_round_trip_and_order_like_the_pair() {
        let max_ord = (1u64 << (u64::BITS - PROGRESS_BITS)) - 1;
        let max_prog = (1u32 << PROGRESS_BITS) - 1;
        let pairs = [
            (0, 0),
            (0, 1),
            (0, max_prog),
            (1, 0),
            (7, 3),
            (max_ord, 0),
            (max_ord, max_prog),
        ];
        for w in pairs.windows(2) {
            assert!(pack_key(w[0].0, w[0].1) < pack_key(w[1].0, w[1].1));
        }
        for (ord, prog) in pairs {
            assert_eq!(unpack_key(pack_key(ord, prog)), (ord, prog));
        }
    }

    #[test]
    #[should_panic(expected = "packet ordinal")]
    fn an_ordinal_too_wide_for_the_key_is_a_checked_failure() {
        pack_key(1 << (u64::BITS - PROGRESS_BITS), 0);
    }

    #[test]
    #[should_panic(expected = "hop progress")]
    fn a_progress_too_wide_for_the_key_is_a_checked_failure() {
        // One hop past the last progress must not carry into the ordinal.
        let (ord, prog) = unpack_key(pack_key(5, (1 << PROGRESS_BITS) - 1));
        pack_key(ord, prog + 1);
    }

    #[test]
    fn windows_reaching_the_end_of_time_are_unbounded() {
        assert_eq!(window_horizon(10, Some(1_000)), Some(1_010));
        assert_eq!(window_horizon(10, None), None);
        // An exclusive horizon can never hold a unit at u64::MAX, and the
        // two largest instants count as the end of time.
        assert_eq!(window_horizon(u64::MAX - 5, Some(1_000)), None);
        assert_eq!(window_horizon(u64::MAX - 1_000, Some(1_000)), None);
        assert_eq!(
            window_horizon(u64::MAX - 1_002, Some(1_000)),
            Some(u64::MAX - 2)
        );
        // So a run whose units sit there finishes.
        let injections = vec![
            (0usize, pkt(0, 10)),
            (0, pkt(1, u64::MAX - 5)),
            (0, pkt(2, u64::MAX)),
        ];
        let (_, run) = sharded_digest(1, &injections);
        assert_eq!(run.stats.injected, 3);
        assert_eq!(run.stats.delivered, 3);
    }
}
