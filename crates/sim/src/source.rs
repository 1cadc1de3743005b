//! Pull-based injection sources for the engine.
//!
//! Before this module the engine's only ingest path collected **every**
//! injection into a time-sorted `Vec<(NodeId, Packet)>` — O(run) memory
//! that undoes the slab's O(max in-flight) bound the moment a workload is
//! replayed from a multi-million-packet capture. An [`InjectionSource`] is
//! the streaming replacement: the engine *pulls* injections one at a time,
//! in non-decreasing `created_at` order, and merges them lazily against
//! the scheduler head exactly as it merged the sorted Vec. Pending
//! injections live wherever the source keeps them — for
//! [`SortedVecSource`] that is still a sorted Vec (byte-identical to the
//! old path, kept as its differential oracle); for a streaming source
//! (e.g. `rlir_trace`'s pcap replay) it is a fixed reorder buffer, so
//! engine-side ingest memory is O(buffer), not O(run).
//!
//! ## Contract
//!
//! * [`peek`](InjectionSource::peek) returns the injection time of the
//!   next packet without consuming it;
//!   [`next_injection`](InjectionSource::next_injection) consumes and
//!   returns it. After `peek` returns `Some(t)`, `next_injection` must
//!   return a packet with `created_at == t`.
//! * Emission order is **non-decreasing** in `created_at`; ties keep the
//!   source's own order (for `SortedVecSource`, the input list order),
//!   which is the engine's ordinal order. The engine asserts monotonicity
//!   per pull.
//! * [`span_hint`](InjectionSource::span_hint) /
//!   [`len_hint`](InjectionSource::len_hint) are vestigial: they fed the
//!   calendar's old injection-spacing geometry, which now comes from the
//!   fabric (`sched::fabric_geometry`), and the engine does not read them. They stay
//!   because the ledger's adapters implement and forward them: delete them
//!   with the next `[benchmark]` PR, the only kind that may edit `ledger/`.

use crate::network::NodeId;
use rlir_net::packet::Packet;
use rlir_net::time::SimTime;

/// A time-ordered stream of `(entry_node, packet)` injections the engine
/// pulls from (see the module docs for the ordering contract).
pub trait InjectionSource {
    /// Injection time of the next packet, without consuming it. `None`
    /// means the source is exhausted (a source must never "recover" after
    /// returning `None`).
    fn peek(&mut self) -> Option<SimTime>;

    /// Consume and return the next injection. Named `next_injection` (not
    /// `next`) so sources may also implement [`Iterator`] without a
    /// method-resolution clash.
    fn next_injection(&mut self) -> Option<(NodeId, Packet)>;

    /// Total number of injections, if known up front. Unused by the
    /// engine (see the module docs); never used for control flow.
    fn len_hint(&self) -> Option<usize> {
        None
    }

    /// `last.created_at - first.created_at` in nanoseconds, if known up
    /// front. Unused by the engine (see the module docs).
    fn span_hint(&self) -> Option<u64> {
        None
    }
}

/// The sort-on-the-fly fallback wrapping today's `IntoIterator` ingest:
/// collects the injections, stable-sorts them by `created_at` (same-time
/// injections keep their list order), and serves them back one at a time
/// with exact span/len hints from the sorted ends. Byte-identical to the
/// engine's pre-source collect-then-sort path — and kept as its
/// differential oracle (`tests/trace_replay.rs` pins streamed sources
/// against it).
#[derive(Debug, Clone)]
pub struct SortedVecSource {
    items: Vec<(NodeId, Packet)>,
    next: usize,
}

impl SortedVecSource {
    /// Collect and stable-sort `injections` by injection time.
    pub fn new(injections: impl IntoIterator<Item = (NodeId, Packet)>) -> Self {
        let mut items: Vec<(NodeId, Packet)> = injections.into_iter().collect();
        items.sort_by_key(|(_, p)| p.created_at);
        SortedVecSource { items, next: 0 }
    }
}

impl InjectionSource for SortedVecSource {
    fn peek(&mut self) -> Option<SimTime> {
        self.items.get(self.next).map(|(_, p)| p.created_at)
    }

    fn next_injection(&mut self) -> Option<(NodeId, Packet)> {
        let item = self.items.get(self.next).copied();
        if item.is_some() {
            self.next += 1;
        }
        item
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.items.len())
    }

    fn span_hint(&self) -> Option<u64> {
        match (self.items.first(), self.items.last()) {
            (Some((_, first)), Some((_, last))) => {
                Some(last.created_at.as_nanos() - first.created_at.as_nanos())
            }
            _ => Some(0),
        }
    }
}

/// Mutable references to sources are sources — lets callers keep the
/// source (and its counters) after the run consumes it.
impl<T: InjectionSource + ?Sized> InjectionSource for &mut T {
    fn peek(&mut self) -> Option<SimTime> {
        (**self).peek()
    }

    fn next_injection(&mut self) -> Option<(NodeId, Packet)> {
        (**self).next_injection()
    }

    fn len_hint(&self) -> Option<usize> {
        (**self).len_hint()
    }

    fn span_hint(&self) -> Option<u64> {
        (**self).span_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_net::FlowKey;
    use std::net::Ipv4Addr;

    fn pkt(id: u64, at_ns: u64) -> Packet {
        Packet::regular(
            id,
            FlowKey::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                1000,
                Ipv4Addr::new(10, 1, 0, 1),
                80,
            ),
            1000,
            SimTime::from_nanos(at_ns),
        )
    }

    #[test]
    fn sorted_vec_source_sorts_stably_and_hints_exactly() {
        // Unsorted input with a tie at t=5: sorted output, tie in list order.
        let mut src = SortedVecSource::new(vec![
            (0usize, pkt(1, 9)),
            (1usize, pkt(2, 5)),
            (2usize, pkt(3, 5)),
            (0usize, pkt(4, 2)),
        ]);
        assert_eq!(src.len_hint(), Some(4));
        assert_eq!(src.span_hint(), Some(7)); // 9 - 2
        let mut order = Vec::new();
        while let Some(t) = src.peek() {
            let (node, p) = src.next_injection().unwrap();
            assert_eq!(p.created_at, t);
            order.push((node, p.id.0, t.as_nanos()));
        }
        assert_eq!(
            order,
            vec![(0, 4, 2), (1, 2, 5), (2, 3, 5), (0, 1, 9)],
            "stable sort must keep the t=5 tie in input order"
        );
        assert!(src.next_injection().is_none());
    }

    #[test]
    fn empty_source_hints_match_legacy_empty_vec() {
        let mut src = SortedVecSource::new(Vec::new());
        assert_eq!(src.len_hint(), Some(0));
        assert_eq!(src.span_hint(), Some(0));
        assert_eq!(src.peek(), None);
        assert!(src.next_injection().is_none());
    }
}
