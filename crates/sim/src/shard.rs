//! The engine: one keyed per-hop step, run on one shard or several.
//!
//! Every simulation — [`run_network_streamed_source`], the buffered
//! [`run_network_with`](crate::network::run_network_with) and the
//! pod-sharded [`run_network_sharded_source`] — goes through one
//! cascade, [`ShardWorker::unit`]: a packet arrives at a switch, is routed
//! (rerouted around a dead port, killed by a loss burst), marked, queued
//! and scheduled onward. Each switch's ports are
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
//! order no partition can perturb: at one instant, the earlier-injected
//! packet goes first, and a scheduled arrival goes before an injection.
//! Ordinals are a pull counter, so ingest streams.
//!
//! # Shards
//!
//! A topology-supplied partition (for the fat-tree one group per pod plus
//! one core group, `FatTree::pod_partition` in `rlir-topo`) splits the run
//! across worker threads. Each shard owns a clone of the network, its own
//! calendar queue, slab and fault cursor, and advances only to the
//! **global safe horizon** `min(pending event time) + L`, where the
//! lookahead `L` is the minimum link latency on any inter-group edge —
//! conservative-window PDES. Packets crossing a shard boundary are posted
//! to the destination's mailbox at the window barrier (their arrival is
//! provably `≥` the horizon), injections earlier than the horizon are
//! pulled and posted by the coordinator before each window.
//!
//! One unit, two outputs, written against [`UnitOut`]: with one effective
//! shard the output is the run's [`Emitter`], and everything reaches
//! `sink`, `on_delivery` and the stats as the unit runs, borrowed from the
//! live slab slot. With several, each worker fills a [`WindowLog`] and the
//! coordinator replays the logs, merged by key, into the same `Emitter` at
//! the barrier — a k-way merge of keyed streams *is* the keyed stream, so
//! an N-shard run is byte-identical to the one-shard run (pinned by
//! `tests/shard_determinism.rs`, asserted in-run by `shard_bench`),
//! including fault notifications and [`StopFlag`] truncation. Only the
//! diagnostics (`peak_live_slots`, `hop_allocations`, the `sched`
//! counters) are per-shard quantities; see [`NetworkRunStats`].

use crate::fault::{FaultEvent, FaultScript, FaultState, StopFlag};
use crate::network::{
    Forwarder, Hop, HopEvent, HopKind, HopSink, Network, NetworkRunStats, NodeId, RouteDecision,
    RunOptions, StreamedDelivery,
};
use crate::queue::Verdict;
use crate::sched::{CalendarQueue, EventSchedule, SchedStats};
use crate::slab::{PacketSlab, SlotId};
use crate::source::InjectionSource;
use rlir_net::packet::Packet;
use rlir_net::time::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

/// Low bits of the packed tie that hold the hop progress; the ordinal
/// takes the 44 above them (1.7 · 10¹³ injections, a million hops each).
const PROGRESS_BITS: u32 = 20;
const PROGRESS_MASK: u64 = (1 << PROGRESS_BITS) - 1;

/// Partition-independent scheduler tie: `(packet ordinal, hop progress)`
/// packed into one word, ordinal above progress, so ties compare as the
/// pair does. The ordinal is the packet's position in the time-ordered
/// injection stream (unique per packet); progress is its hop counter,
/// strictly increasing along the packet's life, so `(at, tie)` is a total
/// order over engine units that no partition can perturb. A field that
/// does not fit panics, never wraps into the other.
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

/// What a shard's queue moves: slot handle + next node, 8 bytes, `Copy`,
/// private to the shard's slab.
#[derive(Debug, Clone, Copy)]
struct ShardEvent {
    node: u32,
    slot: SlotId,
}

const _: () = assert!(std::mem::size_of::<ShardEvent>() == 8);
// … which makes the queue entry around it three words.
const _: () = assert!(std::mem::size_of::<crate::sched::Entry<ShardEvent>>() == 24);

/// A node-to-group partition of the network, the shard boundary.
///
/// Groups are the unit the lookahead is computed over — the window width
/// is the minimum link latency between *groups*, independent of how many
/// shards the groups are folded onto — which is what makes the window
/// sequence (and therefore every emitted byte) identical for every shard
/// count.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    groups: Vec<usize>,
}

impl ShardPlan {
    /// A plan from an explicit node → group map. Group ids are labels,
    /// ranked densely in id order: only *inhabited* groups count towards
    /// the shard cap, and a sparse labelling (`[0, 5]`) runs exactly like
    /// the dense one (`[0, 1]`).
    pub fn new(mut groups: Vec<usize>) -> Self {
        let mut ids = groups.clone();
        ids.sort_unstable();
        ids.dedup();
        for g in &mut groups {
            *g = ids.binary_search(g).expect("every id was collected");
        }
        ShardPlan { groups }
    }

    /// The degenerate plan: every node in one group (no parallelism, one
    /// unbounded window).
    pub fn single(n_nodes: usize) -> Self {
        ShardPlan {
            groups: vec![0; n_nodes],
        }
    }

    /// The node → group map, group ids dense from 0.
    pub fn groups(&self) -> &[usize] {
        &self.groups
    }
}

/// Result of a sharded run: the fused [`NetworkRunStats`] plus the
/// coordinator's own accounting.
#[derive(Debug, Clone)]
pub struct ShardRunStats {
    /// The fused run stats — every stream-observable field shard-count
    /// invariant (see the struct docs for the fusion rules).
    pub stats: NetworkRunStats,
    /// Effective shard count the run used (requested count capped by the
    /// plan's group count, and collapsed to 1 when a zero-latency
    /// inter-group link makes conservative lookahead impossible).
    pub shards: usize,
    /// Safe-horizon windows the run was divided into (shard-count
    /// invariant: window boundaries depend only on the group partition).
    pub windows: u64,
    /// Safe-horizon stalls: windows in which some shard had no unit to
    /// process and advanced to the horizon idle — the synchronization
    /// overhead of conservative lookahead (0 for a 1-shard run, since the
    /// window minimum always belongs to the only shard).
    pub shard_stalls: u64,
}

impl ShardRunStats {
    /// Fold each shard's diagnostics — `(peak_live_slots, hop_allocations,
    /// scheduler counters)` — into the fused [`NetworkRunStats`].
    ///
    /// Every stream-observable field of the fused stats is shard-count
    /// invariant and needs no aggregation rule: all shards emit the same
    /// merged stream. The diagnostics are the exception, and this is
    /// their one documented fusion:
    ///
    /// * [`NetworkRunStats::peak_live_slots`] — **max** of the per-shard
    ///   peaks. Each shard owns an independent slab (its own memory
    ///   pool), so the bound on any one pool is the worst shard's
    ///   high-water mark; summing would claim residency that never
    ///   coexisted in a single slab.
    /// * [`NetworkRunStats::hop_allocations`] — **sum** over shards.
    ///   Every shard's hop-storage (re)allocations really happened, so
    ///   the run-wide allocator pressure is their total.
    /// * [`NetworkRunStats::sched`] — [`SchedStats::absorb`] over the
    ///   shards' queues, for the same reason.
    pub fn merged(mut self, per_shard: impl IntoIterator<Item = (usize, u64, SchedStats)>) -> Self {
        for (peak_live_slots, hop_allocations, sched) in per_shard {
            self.stats.peak_live_slots = self.stats.peak_live_slots.max(peak_live_slots);
            self.stats.hop_allocations += hop_allocations;
            self.stats.sched.absorb(&sched);
        }
        self
    }
}

/// A keyed unit posted to a shard's mailbox: a packet crossing a shard
/// boundary mid-flight, or (progress 0, no hops yet) an injection the
/// coordinator stamped for this shard.
#[derive(Debug)]
struct Handoff {
    /// Arrival time at the destination node (≥ the producing window's
    /// horizon, by the lookahead bound).
    at: u64,
    tie: u64,
    /// Destination node.
    node: u32,
    packet: Packet,
    injected_node: u32,
    injected_at: u64,
    hops: Vec<Hop>,
}

/// Where [`ShardWorker::unit`] writes what one unit produces, in order:
/// `begin`, its hop events (views of the live slab slot, whose hop record
/// only appends within a unit; a `Deliver` event is the delivery), `end`.
trait UnitOut {
    /// Whether the run was asked to stop before its next unit.
    fn stopped(&self) -> bool;
    /// A unit starts at `at` (progress 0: the packet is being injected).
    fn begin(&mut self, at: SimTime, tie: u64);
    fn hop(&mut self, ev: &HopEvent<'_>);
    /// The packet dies in this unit *because of* an injected fault.
    fn fault_drop(&mut self);
    /// The unit is over; the packet in `slot` is about to be recycled or
    /// rescheduled.
    fn end(&mut self, slab: &PacketSlab, slot: SlotId);
}

/// Emit now — the run's one observable output. Everything `sink`,
/// `on_delivery` and the stats ever see passes through here in keyed
/// order, from the only shard as it runs or replayed from the window
/// logs, so it is shard-count invariant. Never leaves the calling thread.
struct Emitter<'a, S, D> {
    sink: &'a mut S,
    on_delivery: &'a mut D,
    stop: Option<&'a StopFlag>,
    /// Scripted transitions still to be shown to the sink. Every shard
    /// advances its own replicated `FaultState` for the network effects;
    /// the notification happens once, here: before the callbacks of the
    /// first unit that reached it.
    script: &'a [FaultEvent],
    watermark: Option<SimTime>,
    stats: NetworkRunStats,
}

impl<'a, S, D> Emitter<'a, S, D> {
    fn new(sink: &'a mut S, on_delivery: &'a mut D, opts: RunOptions<'a>, n_nodes: usize) -> Self {
        Emitter {
            sink,
            on_delivery,
            stop: opts.stop,
            script: opts.faults.map_or(&[][..], FaultScript::events),
            watermark: None,
            stats: NetworkRunStats {
                queue_drops: vec![0; n_nodes],
                route_drops: vec![0; n_nodes],
                ..NetworkRunStats::default()
            },
        }
    }
}

impl<S: HopSink, D: FnMut(&StreamedDelivery<'_>)> UnitOut for Emitter<'_, S, D> {
    fn stopped(&self) -> bool {
        self.stop.is_some_and(StopFlag::is_set)
    }

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

    fn fault_drop(&mut self) {
        self.stats.fault_drops += 1;
    }

    fn end(&mut self, _slab: &PacketSlab, _slot: SlotId) {}
}

/// One logged hop event, a deferred [`HopEvent`]: the packet snapshot at
/// emission time plus the length of the hop-record prefix visible then
/// (hops only append within a unit, so a prefix length into the unit's
/// sealed record reconstructs the exact borrowed view).
#[derive(Debug, Clone, Copy)]
struct LoggedEvent {
    kind: HopKind,
    node: u32,
    at: u64,
    packet: Packet,
    hops_len: u32,
}

/// One engine unit (= one `arrive` cascade) in a [`WindowLog`]. Its events
/// and sealed hop record run from the previous unit's ends to its own.
#[derive(Debug, Clone, Copy, Default)]
struct Unit {
    /// `(time, tie)`.
    key: (u64, u64),
    fault_drop: bool,
    injected_node: u32,
    injected_at: u64,
    ev_end: u32,
    hop_end: u32,
}

/// Emit later: one window of one shard's units in keyed order, which the
/// coordinator merges with the other shards' and replays at the barrier.
#[derive(Default)]
struct WindowLog {
    units: Vec<Unit>,
    events: Vec<LoggedEvent>,
    /// Sealed hop records of this window's units.
    arena: Vec<Hop>,
}

impl WindowLog {
    fn clear(&mut self) {
        self.units.clear();
        self.events.clear();
        self.arena.clear();
    }

    fn open(&mut self) -> &mut Unit {
        self.units.last_mut().expect("a unit is open")
    }

    /// Replay unit `i` into `out`: the calls, in the order, `out` would
    /// have received had it been the worker's own output.
    fn replay(&self, i: usize, out: &mut impl UnitOut) {
        let u = &self.units[i];
        let (ev0, hop0) = match i.checked_sub(1) {
            Some(prev) => (self.units[prev].ev_end, self.units[prev].hop_end),
            None => (0, 0),
        };
        let (injected_node, injected_at) =
            (u.injected_node as usize, SimTime::from_nanos(u.injected_at));
        out.begin(SimTime::from_nanos(u.key.0), u.key.1);
        if u.fault_drop {
            out.fault_drop();
        }
        let hops = &self.arena[hop0 as usize..u.hop_end as usize];
        for e in &self.events[ev0 as usize..u.ev_end as usize] {
            out.hop(&HopEvent {
                kind: e.kind,
                node: e.node as usize,
                at: SimTime::from_nanos(e.at),
                packet: &e.packet,
                injected_node,
                injected_at,
                hops: &hops[..e.hops_len as usize],
            });
        }
    }
}

impl UnitOut for WindowLog {
    /// A worker always finishes its window; truncation happens at replay.
    fn stopped(&self) -> bool {
        false
    }

    fn begin(&mut self, at: SimTime, tie: u64) {
        self.units.push(Unit {
            key: (at.as_nanos(), tie),
            ..Unit::default()
        });
    }

    fn hop(&mut self, ev: &HopEvent<'_>) {
        self.events.push(LoggedEvent {
            kind: ev.kind,
            node: ev.node as u32,
            at: ev.at.as_nanos(),
            packet: *ev.packet,
            hops_len: ev.hops.len() as u32,
        });
    }

    fn fault_drop(&mut self) {
        self.open().fault_drop = true;
    }

    fn end(&mut self, slab: &PacketSlab, slot: SlotId) {
        let st = slab.get(slot);
        self.arena.extend_from_slice(st.hops());
        let (ev_end, hop_end) = (self.events.len() as u32, self.arena.len() as u32);
        let u = self.open();
        (u.injected_node, u.injected_at) = (st.injected_node as u32, st.injected_at.as_nanos());
        (u.ev_end, u.hop_end) = (ev_end, hop_end);
    }
}

/// The injection stream with its ordinals: a packet's ordinal is the count
/// of injections pulled before it. Each pull is checked against the source
/// contract — a misordered source would put `Arrive` events behind the
/// watermark and silently break every streaming consumer, so the engine
/// fails loudly instead.
struct Ingest<I> {
    source: I,
    /// Ordinal of the next injection.
    next_ord: u64,
    last_at: SimTime,
    n_nodes: usize,
}

impl<I: InjectionSource> Ingest<I> {
    fn new(source: I, n_nodes: usize) -> Self {
        Ingest {
            source,
            next_ord: 0,
            last_at: SimTime::ZERO,
            n_nodes,
        }
    }

    fn peek(&mut self) -> Option<u64> {
        self.source.peek().map(SimTime::as_nanos)
    }

    /// The next injection and its tie (progress 0).
    fn pull(&mut self) -> (NodeId, Packet, u64) {
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
        let tie = pack_key(self.next_ord, 0);
        self.next_ord += 1;
        (node, packet, tie)
    }
}

/// One shard: a full clone of the network (it only *reads and writes*
/// the queues of nodes it owns; fault transitions are replicated so every
/// clone's owned nodes carry the right state), its own slab, keyed queue
/// and fault cursor. Its units write to whatever [`UnitOut`] the caller
/// passes in.
struct ShardWorker<'a, F> {
    shard: usize,
    network: Network,
    forwarder: &'a F,
    /// Node → shard; empty when this is the run's only shard, so a forward
    /// costs no lookup.
    shard_of: &'a [usize],
    slab: PacketSlab,
    schedule: CalendarQueue<ShardEvent>,
    faults: Option<FaultState<'a>>,
    /// Units posted to this shard since its last window, seeded into the
    /// slab + queue at the next window start.
    inbox: Vec<Handoff>,
    /// Earliest `at` in `inbox`, kept at push.
    inbox_min: Option<u64>,
    /// Handoffs this shard produced during the current window.
    outbox: Vec<Handoff>,
}

impl<'a, F: Forwarder> ShardWorker<'a, F> {
    fn new(
        shard: usize,
        network: Network,
        forwarder: &'a F,
        shard_of: &'a [usize],
        faults: Option<&'a FaultScript>,
    ) -> Self {
        // Every shard's queue has the same geometry, the whole fabric's.
        let (width, buckets) = network.calendar_geometry();
        ShardWorker {
            shard,
            network,
            forwarder,
            shard_of,
            slab: PacketSlab::new(),
            schedule: CalendarQueue::with_geometry(width, buckets),
            faults: faults.map(FaultState::new),
            inbox: Vec::new(),
            inbox_min: None,
            outbox: Vec::new(),
        }
    }

    /// `(peak_live_slots, hop_allocations, queue counters)`.
    fn diagnostics(&self) -> (usize, u64, SchedStats) {
        let slab = &self.slab;
        (
            slab.peak_live(),
            slab.hop_allocations(),
            self.schedule.stats(),
        )
    }

    fn post(&mut self, h: Handoff) {
        self.inbox_min = Some(self.inbox_min.map_or(h.at, |m| m.min(h.at)));
        self.inbox.push(h);
    }

    /// Earliest pending unit time in this shard (queue or un-seeded
    /// inbox) — min-reduced with the source head into the window start.
    fn next_time(&mut self) -> Option<u64> {
        let head = self.schedule.peek_due(SimTime::from_nanos(u64::MAX));
        let head = head.map(|(at, _)| at.as_nanos());
        head.into_iter().chain(self.inbox_min).min()
    }

    /// One window of an N-shard run: seed the inbox, then process every
    /// unit with `at < horizon` (all remaining units when `None`) in keyed
    /// order. The coordinator posted this window's injections.
    fn run_window(&mut self, out: &mut impl UnitOut, horizon: Option<u64>) {
        self.inbox_min = None;
        for h in self.inbox.drain(..) {
            let slot = self.slab.insert_with_hops(
                h.packet,
                h.injected_node as usize,
                SimTime::from_nanos(h.injected_at),
                &h.hops,
            );
            let event = ShardEvent { node: h.node, slot };
            self.schedule
                .push_keyed(SimTime::from_nanos(h.at), h.tie, event);
        }
        // A finite horizon is ≥ 1: the lookahead behind it is.
        let last = SimTime::from_nanos(horizon.map_or(u64::MAX, |h| h - 1));
        while self.schedule.peek_due(last).is_some() {
            let (at, tie, ev) = self.schedule.pop_keyed().expect("peeked non-empty");
            self.unit(out, at, tie, ev.node as usize, ev.slot);
        }
    }

    /// The whole run at one shard, as one loop: pull an injection when
    /// nothing in the queue is due by its time, until both run dry or
    /// `out` says stop. Every queued unit belongs to a packet pulled
    /// earlier (a smaller ordinal), so at an equal time it wins the keyed
    /// tie against the injection.
    fn run_alone<I: InjectionSource>(&mut self, out: &mut impl UnitOut, ingest: &mut Ingest<I>) {
        while !out.stopped() {
            let inject = match ingest.peek() {
                Some(t) => self.schedule.peek_due(SimTime::from_nanos(t)).is_none(),
                None if self.schedule.is_empty() => break,
                None => false,
            };
            if inject {
                let (node, packet, tie) = ingest.pull();
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
    fn hop(&self, out: &mut impl UnitOut, kind: HopKind, node: usize, at: SimTime, slot: SlotId) {
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

    /// One engine unit — the packet in `slot` arrives at `node` at `at` —
    /// with everything observable written to `out` and cross-shard
    /// forwards turned into handoffs.
    fn unit(&mut self, out: &mut impl UnitOut, at: SimTime, tie: u64, node: usize, slot: SlotId) {
        if let Some(fs) = self.faults.as_mut() {
            fs.advance(at, &mut self.network);
        }
        out.begin(at, tie);
        self.hop(out, HopKind::Arrive, node, at, slot);
        // Whether the packet leaves this shard's slab with this unit.
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
                                Some(next)
                                    if self.shard_of.is_empty()
                                        || self.shard_of[next] == self.shard =>
                                {
                                    let event = ShardEvent {
                                        node: next as u32,
                                        slot,
                                    };
                                    self.schedule.push_keyed(arrives, next_hop(tie), event);
                                    done = false;
                                }
                                Some(next) => {
                                    // Crossing the shard boundary: copy the
                                    // flight state out and recycle the slot
                                    // here; the destination re-seeds it.
                                    let st = self.slab.get(slot);
                                    self.outbox.push(Handoff {
                                        at: arrives.as_nanos(),
                                        tie: next_hop(tie),
                                        node: next as u32,
                                        packet: st.packet,
                                        injected_node: st.injected_node as u32,
                                        injected_at: st.injected_at.as_nanos(),
                                        hops: st.hops().to_vec(),
                                    });
                                }
                                None => self.hop(out, HopKind::Deliver, node, arrives, slot),
                            }
                        }
                    }
                }
            }
        }
        out.end(&self.slab, slot);
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
/// mid-run fault script and a cooperative stop. Wrap a list in
/// [`SortedVecSource::new`](crate::source::SortedVecSource::new); pass a
/// source by `&mut` to keep it (and its counters) after the run.
///
/// The source contract — known entry node, non-decreasing time — is
/// asserted per pull. Deliveries stream in processing order (see
/// [`StreamedDelivery`]). This is the one-shard loop of the engine (the
/// module docs); nothing here needs `Send` or `Sync`.
pub fn run_network_streamed_source(
    network: Network,
    forwarder: &impl Forwarder,
    source: impl InjectionSource,
    sink: &mut impl HopSink,
    opts: RunOptions<'_>,
    mut on_delivery: impl FnMut(&StreamedDelivery<'_>),
) -> NetworkRunStats {
    let n = network.nodes.len();
    let mut ingest = Ingest::new(source, n);
    let mut out = Emitter::new(sink, &mut on_delivery, opts, n);
    let mut worker = ShardWorker::new(0, network, forwarder, &[], opts.faults);
    worker.run_alone(&mut out, &mut ingest);
    let mut stats = out.stats;
    (stats.peak_live_slots, stats.hop_allocations, stats.sched) = worker.diagnostics();
    stats.network = worker.network;
    stats
}

/// A worker thread's shard and the log its windows fill.
type Logged<'a, F> = Mutex<(ShardWorker<'a, F>, WindowLog)>;

/// Horizon mailbox of the worker threads: a finite horizon is its own
/// value, below these two; `UNBOUNDED` is `None`, `SHUTDOWN` ends the loops.
const UNBOUNDED: u64 = u64::MAX - 1;
const SHUTDOWN: u64 = u64::MAX;

/// Exclusive end of the safe-horizon window that opens at `t0`: `None` is
/// unbounded — no inter-group link, or a window reaching the end of time,
/// which an exclusive bound could never close over a unit at `u64::MAX`
/// (no progress). There simulated time has saturated and the shard-count
/// identity of the window *count* is not claimed.
fn window_horizon(t0: u64, lookahead: Option<u64>) -> Option<u64> {
    t0.checked_add(lookahead?).filter(|&h| h < UNBOUNDED)
}

/// The one-shard run's window count: the windows the N-shard coordinator
/// would have opened, read off the watermark stream on its way to the
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

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a shard worker panicked")
}

/// The N-shard coordinator: compute the global safe horizon, stamp and
/// post the injections that fall before it, run every shard to it
/// (`run_all` steps the worker threads through one barrier pair), replay
/// the per-shard window logs merged in `(time, ordinal, progress)` order
/// into `out`, and route the produced handoffs for the next window.
/// Returns `(windows, stalls)`.
fn drive_windows<F: Forwarder, I: InjectionSource>(
    workers: &[Logged<'_, F>],
    shard_of: &[usize],
    lookahead: Option<u64>,
    ingest: &mut Ingest<I>,
    out: &mut impl UnitOut,
    run_all: &mut dyn FnMut(Option<u64>),
) -> (u64, u64) {
    let (mut windows, mut stalls) = (0u64, 0u64);
    let mut cursors = vec![0usize; workers.len()];
    let mut routed: Vec<Handoff> = Vec::new();
    // Held whenever the workers are parked at the start barrier.
    let mut guards: Vec<_> = workers.iter().map(lock).collect();
    'run: while !out.stopped() {
        let pending = guards.iter_mut().filter_map(|g| g.0.next_time());
        let Some(t0) = pending.chain(ingest.peek()).min() else {
            break;
        };
        // The horizon is *exclusive* and at least one tick wide (a zero
        // lookahead collapsed to one shard), so the t0 unit is always
        // processed: every window makes progress.
        let horizon = window_horizon(t0, lookahead);
        windows += 1;
        while ingest.peek().is_some_and(|t| horizon.is_none_or(|h| t < h)) {
            let (node, packet, tie) = ingest.pull();
            let at = packet.created_at.as_nanos();
            guards[shard_of[node]].0.post(Handoff {
                at,
                tie,
                node: node as u32,
                packet,
                injected_node: node as u32,
                injected_at: at,
                hops: Vec::new(),
            });
        }
        drop(guards);
        run_all(horizon);
        guards = workers.iter().map(lock).collect();

        stalls += guards.iter().filter(|g| g.1.units.is_empty()).count() as u64;
        cursors.fill(0);
        loop {
            let heads = guards.iter().zip(&cursors).enumerate();
            let next = heads.filter_map(|(i, (g, &c))| Some((g.1.units.get(c)?.key, i)));
            let Some((_, i)) = next.min() else { break };
            if out.stopped() {
                break 'run;
            }
            guards[i].1.replay(cursors[i], out);
            cursors[i] += 1;
        }
        // Route this window's handoffs; their arrival times are ≥ the
        // horizon (lookahead bound), so they belong to later windows.
        for g in guards.iter_mut() {
            routed.append(&mut g.0.outbox);
        }
        for h in routed.drain(..) {
            debug_assert!(
                horizon.is_none_or(|hz| h.at >= hz),
                "handoff inside its own window breaks the lookahead bound"
            );
            guards[shard_of[h.node as usize]].0.post(h);
        }
    }
    (windows, stalls)
}

/// Run the network sharded by `plan`, pulling injections from `source` as
/// the run reaches them — byte-identical to the same call with
/// `shards == 1`, which is [`run_network_streamed_source`] plus a window
/// count; see the module docs for the determinism argument and
/// [`NetworkRunStats`] for which fused fields are shard-count invariant.
///
/// The effective shard count is `shards` capped by the plan's group
/// count; if any inter-group link has zero latency the partition admits
/// no conservative lookahead and the run collapses to one shard (one
/// unbounded window). With one effective shard everything runs inline on
/// the calling thread; otherwise persistent worker threads process
/// windows between barriers while the caller's thread pulls (the
/// injections earlier than each window's horizon), merges and emits —
/// `source`, `sink`, `on_delivery` and `stop` never leave it. A raised
/// [`StopFlag`] leaves the rest of the source unpulled. After a
/// truncation the returned `network`'s queue counters cover what the
/// shards had processed: up to the stop at one shard, to the end of the
/// stopped window at several.
#[allow(clippy::too_many_arguments)]
pub fn run_network_sharded_source<F: Forwarder + Sync>(
    network: Network,
    forwarder: &F,
    source: impl InjectionSource,
    sink: &mut impl HopSink,
    opts: RunOptions<'_>,
    plan: &ShardPlan,
    shards: usize,
    mut on_delivery: impl FnMut(&StreamedDelivery<'_>),
) -> ShardRunStats {
    let n = network.nodes.len();
    let groups = plan.groups();
    assert_eq!(groups.len(), n, "shard plan and network differ in size");
    // Lookahead: minimum latency of any inter-group link. Zero admits no
    // conservative window — collapse to one shard; absent (no inter-group
    // edges) the window is unbounded.
    let inter_group = network.links().filter(|&(a, b, _)| groups[a] != groups[b]);
    let lookahead = inter_group.map(|(_, _, p)| p.link_delay.as_nanos()).min();
    let n_groups = groups.iter().max().map_or(1, |&m| m + 1);
    let (s, lookahead) = match lookahead {
        Some(0) => (1, None),
        l => (shards.max(1).min(n_groups), l),
    };

    if s == 1 {
        let mut counted = WindowCount {
            sink,
            lookahead,
            horizon: Some(0),
            windows: 0,
        };
        let stats = run_network_streamed_source(
            network,
            forwarder,
            source,
            &mut counted,
            opts,
            on_delivery,
        );
        return ShardRunStats {
            stats,
            shards: 1,
            windows: counted.windows,
            shard_stalls: 0,
        };
    }

    let shard_of: Vec<usize> = groups.iter().map(|&g| g % s).collect();
    let mut ingest = Ingest::new(source, n);
    let mut out = Emitter::new(sink, &mut on_delivery, opts, n);
    let workers: Vec<Logged<'_, F>> = (0..s)
        .map(|i| {
            let w = ShardWorker::new(i, network.clone(), forwarder, &shard_of, opts.faults);
            Mutex::new((w, WindowLog::default()))
        })
        .collect();
    let (start, done) = (Barrier::new(s + 1), Barrier::new(s + 1));
    let horizon = AtomicU64::new(0);
    /// Releases the parked workers when the coordinator is done — or
    /// unwinds: a sink or source that panics must not hang the run.
    struct Shutdown<'a>(&'a AtomicU64, &'a Barrier);
    impl Drop for Shutdown<'_> {
        fn drop(&mut self) {
            self.0.store(SHUTDOWN, Ordering::Release);
            self.1.wait();
        }
    }
    let (windows, shard_stalls) = std::thread::scope(|scope| {
        for w in &workers {
            scope.spawn(|| loop {
                start.wait();
                let h = horizon.load(Ordering::Acquire);
                if h == SHUTDOWN {
                    break;
                }
                {
                    let (worker, log) = &mut *lock(w);
                    log.clear();
                    worker.run_window(log, (h != UNBOUNDED).then_some(h));
                }
                done.wait();
            });
        }
        let _shutdown = Shutdown(&horizon, &start);
        let mut run_all = |h: Option<u64>| {
            horizon.store(h.unwrap_or(UNBOUNDED), Ordering::Release);
            start.wait();
            done.wait();
        };
        drive_windows(
            &workers,
            &shard_of,
            lookahead,
            &mut ingest,
            &mut out,
            &mut run_all,
        )
    });
    let unwrap = |m: Mutex<_>| m.into_inner().expect("a shard worker panicked");
    let mut ran: Vec<ShardWorker<'_, F>> = workers.into_iter().map(|m| unwrap(m).0).collect();

    let mut run = ShardRunStats {
        stats: out.stats,
        shards: s,
        windows,
        shard_stalls,
    }
    .merged(ran.iter().map(ShardWorker::diagnostics));
    // Fused final network: each switch's queue state from the shard that
    // owned (and therefore exclusively mutated) it.
    let mut fused = std::mem::take(&mut ran[0].network);
    for (node, &sh) in shard_of.iter().enumerate() {
        if sh != 0 {
            fused.nodes[node] = ran[sh].network.nodes[node].clone();
        }
    }
    run.stats.network = fused;
    run
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

    fn sharded_digest(shards: usize, injections: &[(NodeId, Packet)]) -> (u64, ShardRunStats) {
        planned_digest(&ShardPlan::new(vec![0, 1]), shards, injections)
    }

    /// The hop + watermark stream, then the deliveries, as one digest.
    fn planned_digest(
        plan: &ShardPlan,
        shards: usize,
        injections: &[(NodeId, Packet)],
    ) -> (u64, ShardRunStats) {
        let mut digest = StreamDigest::default();
        let mut deliveries = Vec::new();
        let out = run_network_sharded_source(
            tandem(),
            &Chain,
            SortedVecSource::new(injections.iter().copied()),
            &mut digest,
            RunOptions::default(),
            plan,
            shards,
            |d| deliveries.push((d.packet.id.0, d.delivered_at.as_nanos())),
        );
        for (id, at) in deliveries {
            digest.fold(id);
            digest.fold(at);
        }
        (digest.value(), out)
    }

    #[test]
    fn streamed_source_entry_is_byte_identical_for_any_shard_count() {
        // The one-shard entry is the sharded entry without its window
        // count: same digest as either shard count.
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
        for (id, at) in deliveries {
            digest.fold(id);
            digest.fold(at);
        }
        assert_eq!(stats.injected, injections.len() as u64);
        for shards in [1, 2] {
            let (expect, out) = sharded_digest(shards, &injections);
            assert_eq!(
                digest.value(),
                expect,
                "sharded entry diverged at {shards} shard(s)"
            );
            assert_eq!(out.stats.events, stats.events);
        }
    }

    #[test]
    fn merged_takes_max_of_peaks_and_sums_allocations() {
        let stats = NetworkRunStats {
            peak_live_slots: 3,
            hop_allocations: 5,
            ..NetworkRunStats::default()
        };
        let queue = |pushes, longest_bucket| SchedStats {
            pushes,
            longest_bucket,
            ..SchedStats::default()
        };
        let fused = ShardRunStats {
            stats,
            shards: 3,
            windows: 0,
            shard_stalls: 0,
        }
        .merged([
            (7, 10, queue(30, 4)),
            (2, 1, queue(20, 9)),
            (4, 100, queue(10, 2)),
        ]);
        // Max of per-shard peaks (independent pools), sum of allocations;
        // the queues' counters add, their longest bucket is a max.
        assert_eq!(fused.stats.peak_live_slots, 7);
        assert_eq!(fused.stats.hop_allocations, 5 + 10 + 1 + 100);
        assert_eq!(fused.stats.sched, queue(60, 9));
    }

    #[test]
    fn two_shards_match_one_shard_exactly() {
        let injections: Vec<(NodeId, Packet)> = (0..40)
            .map(|i| (0usize, pkt(i, (i * 313) % 7_000)))
            .collect();
        let (d1, s1) = sharded_digest(1, &injections);
        let (d2, s2) = sharded_digest(2, &injections);
        assert_eq!(d1, d2, "hop/watermark/delivery streams diverged");
        assert_eq!(s1.stats.delivered, s2.stats.delivered);
        assert_eq!(s1.stats.events, s2.stats.events);
        assert_eq!(s1.stats.queue_drops, s2.stats.queue_drops);
        assert_eq!(
            s1.windows, s2.windows,
            "window sequence must not depend on N"
        );
        assert_eq!(s2.shards, 2);
        assert!(s1.stats.delivered > 0);
    }

    #[test]
    fn shard_count_caps_at_inhabited_groups() {
        // Group ids are labels: `[0, 5]` is two groups, not six.
        let injections: Vec<(NodeId, Packet)> = (0..40)
            .map(|i| (0usize, pkt(i, (i * 313) % 7_000)))
            .collect();
        let (dense_digest, dense) = sharded_digest(6, &injections);
        let (digest, sparse) = planned_digest(&ShardPlan::new(vec![0, 5]), 6, &injections);
        assert_eq!(sparse.shards, 2, "four of six requested shards own no node");
        assert_eq!(digest, dense_digest);
        assert_eq!(sparse.windows, dense.windows);
        assert_eq!(sparse.shard_stalls, dense.shard_stalls);
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
        // two largest values are the worker mailbox's own.
        assert_eq!(window_horizon(u64::MAX - 5, Some(1_000)), None);
        assert_eq!(window_horizon(u64::MAX - 1_000, Some(1_000)), None);
        assert_eq!(
            window_horizon(u64::MAX - 1_002, Some(1_000)),
            Some(u64::MAX - 2)
        );
        // So a run whose units sit there finishes, at any shard count,
        // instead of opening windows without progress. (Handoffs made in
        // that last window get one more: the window *count* is only
        // shard-count invariant below the end of time.)
        let injections = vec![
            (0usize, pkt(0, 10)),
            (0, pkt(1, u64::MAX - 5)),
            (0, pkt(2, u64::MAX)),
        ];
        let (_, one) = sharded_digest(1, &injections);
        let (_, two) = sharded_digest(2, &injections);
        for run in [&one, &two] {
            assert_eq!(run.stats.injected, 3);
            assert_eq!(run.stats.delivered, 3);
        }
    }

    #[test]
    fn shard_count_caps_at_group_count() {
        let injections = vec![(0usize, pkt(0, 0))];
        let (_, out) = sharded_digest(16, &injections);
        assert_eq!(out.shards, 2, "2 groups admit at most 2 shards");
    }
}
