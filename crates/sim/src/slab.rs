//! Free-list slab for the engine's in-flight packet state.
//!
//! The event engine keeps one [`FlightState`] per packet currently inside
//! the network — the packet itself, its injection provenance, and the
//! hop-by-hop ground-truth record. The slab pins that state in place, so
//! the queue moves an 8-byte `Copy` handle (`shard::ShardEvent`) instead of
//! the packet and a heap-allocated `Vec<Hop>`, and an injected packet does
//! not pay for a fresh hop vector.
//!
//! Slots are recycled through a free list the moment a packet leaves the
//! network (deliver or drop), so:
//!
//! * slab capacity is bounded by the **peak number of in-flight packets**,
//!   not the number of packets injected over the whole run;
//! * a recycled slot keeps its hop vector's capacity (`Vec::clear`, not
//!   drop), so hop-storage allocation is amortized O(max in-flight) — a
//!   long run allocates no more than a short one at the same concurrency.
//!
//! The slab counts its own behaviour ([`PacketSlab::peak_live`],
//! [`PacketSlab::hop_allocations`]); every run's stats report both.
//! Liveness is tracked per slot: freeing a dead slot panics, and the
//! free-list property test (`tests/properties.rs`) drives
//! interleaved insert/free/push-hop sequences against a mirror to prove
//! recycling never aliases two live packets.

use crate::network::{Hop, NodeId};
use rlir_net::packet::Packet;
use rlir_net::time::SimTime;

/// Index of a slot in a [`PacketSlab`]. `u32` by design: the scheduler's
/// event payload carries one of these plus a node id in 8 bytes.
pub type SlotId = u32;

/// Everything the engine tracks about one in-flight packet.
#[derive(Debug, Clone)]
pub struct FlightState {
    /// The packet, marks applied so far.
    pub packet: Packet,
    /// Where it entered the network.
    pub injected_node: NodeId,
    /// When it entered the network.
    pub injected_at: SimTime,
    /// Hops completed so far. Private so every growth path is counted.
    hops: Vec<Hop>,
    /// Whether the slot currently holds a live packet.
    live: bool,
}

// One injection (what every bulk source holds per packet) and one slab
// slot: a byte here is a byte per record or per peak in-flight packet.
const _: () = assert!(std::mem::size_of::<(NodeId, Packet)>() == 64);
const _: () = assert!(std::mem::size_of::<FlightState>() == 104);

impl FlightState {
    /// The hop record accumulated so far.
    #[inline]
    pub fn hops(&self) -> &[Hop] {
        &self.hops
    }
}

/// Slot-recycling arena of [`FlightState`]s.
#[derive(Debug, Clone, Default)]
pub struct PacketSlab {
    slots: Vec<FlightState>,
    free: Vec<SlotId>,
    live: usize,
    peak_live: usize,
    hop_allocations: u64,
}

impl PacketSlab {
    /// An empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a newly injected packet, reusing a freed slot when one exists.
    /// The returned slot is guaranteed not to alias any live packet.
    pub fn insert(
        &mut self,
        packet: Packet,
        injected_node: NodeId,
        injected_at: SimTime,
    ) -> SlotId {
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        match self.free.pop() {
            Some(slot) => {
                let st = &mut self.slots[slot as usize];
                debug_assert!(!st.live, "free list handed out a live slot");
                st.packet = packet;
                st.injected_node = injected_node;
                st.injected_at = injected_at;
                st.hops.clear(); // keep the capacity: recycled, not dropped
                st.live = true;
                slot
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "slab full");
                self.slots.push(FlightState {
                    packet,
                    injected_node,
                    injected_at,
                    hops: Vec::new(),
                    live: true,
                });
                (self.slots.len() - 1) as SlotId
            }
        }
    }

    /// The state of a live slot.
    #[inline]
    pub fn get(&self, slot: SlotId) -> &FlightState {
        let st = &self.slots[slot as usize];
        debug_assert!(st.live, "slab read of a freed slot");
        st
    }

    /// Mutable access to a live slot's packet (the marking hook's target).
    #[inline]
    pub fn packet_mut(&mut self, slot: SlotId) -> &mut Packet {
        let st = &mut self.slots[slot as usize];
        debug_assert!(st.live, "slab write to a freed slot");
        &mut st.packet
    }

    /// Append a hop to a live slot's ground-truth record.
    #[inline]
    pub fn push_hop(&mut self, slot: SlotId, hop: Hop) {
        let st = &mut self.slots[slot as usize];
        debug_assert!(st.live, "slab write to a freed slot");
        if st.hops.len() == st.hops.capacity() {
            // The push below will (re)allocate — the quantity the recycling
            // amortizes to O(max in-flight).
            self.hop_allocations += 1;
        }
        st.hops.push(hop);
    }

    /// Recycle a slot (the packet delivered or dropped). Panics on double
    /// free — an aliasing bug, never a recoverable condition.
    pub fn release(&mut self, slot: SlotId) {
        let st = &mut self.slots[slot as usize];
        assert!(st.live, "slab double free of slot {slot}");
        st.live = false;
        self.live -= 1;
        self.free.push(slot);
    }

    /// Whether `slot` currently holds a live packet.
    pub fn is_live(&self, slot: SlotId) -> bool {
        self.slots.get(slot as usize).is_some_and(|st| st.live)
    }

    /// Packets currently in flight.
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of concurrently live slots — the engine's memory
    /// bound, independent of how many packets the run injects in total.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Hop-storage (re)allocations performed so far. Amortized O(max
    /// in-flight): recycled slots keep their vectors' capacity.
    pub fn hop_allocations(&self) -> u64 {
        self.hop_allocations
    }

    /// Slots ever created (live + recycled). Equals [`Self::peak_live`]
    /// unless the slab was grown externally.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether no packet is in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_net::FlowKey;
    use std::net::Ipv4Addr;

    fn pkt(id: u64) -> Packet {
        Packet::regular(
            id,
            FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 1, 0, 1), 2),
            1000,
            SimTime::from_nanos(id),
        )
    }

    fn hop(n: NodeId) -> Hop {
        Hop {
            node: n,
            port: 0,
            arrived: SimTime::ZERO,
            departed: SimTime::from_nanos(1),
        }
    }

    #[test]
    fn recycles_slots_and_keeps_hop_capacity() {
        let mut slab = PacketSlab::new();
        let a = slab.insert(pkt(1), 0, SimTime::ZERO);
        for i in 0..8 {
            slab.push_hop(a, hop(i));
        }
        let allocs_before = slab.hop_allocations();
        assert!(allocs_before >= 1);
        slab.release(a);
        // The freed slot is reused, hops cleared, capacity retained: the
        // next 8 pushes allocate nothing.
        let b = slab.insert(pkt(2), 1, SimTime::from_nanos(5));
        assert_eq!(a, b);
        assert!(slab.get(b).hops().is_empty());
        assert_eq!(slab.get(b).packet.id.0, 2);
        for i in 0..8 {
            slab.push_hop(b, hop(i));
        }
        assert_eq!(slab.hop_allocations(), allocs_before);
        assert_eq!(slab.capacity(), 1);
        assert_eq!(slab.peak_live(), 1);
    }

    #[test]
    fn peak_tracks_concurrency_not_total() {
        let mut slab = PacketSlab::new();
        for i in 0..100 {
            let s = slab.insert(pkt(i), 0, SimTime::ZERO);
            slab.release(s);
        }
        assert_eq!(slab.peak_live(), 1);
        assert_eq!(slab.capacity(), 1);
        assert!(slab.is_empty());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut slab = PacketSlab::new();
        let s = slab.insert(pkt(1), 0, SimTime::ZERO);
        slab.release(s);
        slab.release(s);
    }

    #[test]
    fn liveness_is_observable() {
        let mut slab = PacketSlab::new();
        assert!(!slab.is_live(0));
        let s = slab.insert(pkt(1), 0, SimTime::ZERO);
        assert!(slab.is_live(s));
        slab.release(s);
        assert!(!slab.is_live(s));
    }
}
