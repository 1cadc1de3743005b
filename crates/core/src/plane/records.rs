//! Event records: what every tap buffering one hop event shares, stored
//! once in a plane-wide FIFO.
//!
//! Records are reclaimed from the front. About every [`RECLAIM_GRAIN`]
//! records and at every flush, the plane notes `(latest observation time of
//! any entry so far, where the FIFO ends)`; once every unordered tap has
//! been flushed beyond that time, no entry names a record before that end,
//! and the front is freed up to it. So records live about as long as
//! entries do — one to one and a half windows — and a live egress tap,
//! whose `Dequeue` events run ahead of the watermark, merely holds the
//! front back until it catches up. A crashed tap's records go with the
//! next flush past them; a window wider than the run keeps them all.

use super::window::{WindowEntry, ENTRY_HAS_TRUTH};
use rlir_net::packet::{ReferenceInfo, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::{FlowKey, Protocol};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// What a run entry decodes to at flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Payload {
    Reference(ReferenceInfo),
    Regular {
        flow: FlowKey,
        truth: Option<SimDuration>,
    },
}

/// Tag-word bit: the record is a reference (clear: a regular).
const TAG_REFERENCE: u64 = 1 << 63;
/// Tag-word bits 40–41: which [`Protocol`] variant a regular's protocol
/// number (bits 32–39) came from — `Other(6)` is not `Tcp`.
const TAG_PROTO_UDP: u64 = 1 << 40;
const TAG_PROTO_OTHER: u64 = 2 << 40;

/// What every tap buffering one hop event shares: the `(tie, packet id)`
/// that breaks an observation-time tie, the packed 5-tuple or
/// [`ReferenceInfo`], and the instant a scored regular's truth runs from.
/// Five plain words, written once per event and read at flush; when each
/// tap observed it lives in the tap's [`WindowEntry`].
#[derive(Clone, Copy)]
pub(super) struct EventRecord {
    pub(super) tie: u64,
    pub(super) id: u64,
    /// Regular: `src << 32 | dst`. Reference: the transmit timestamp, ns.
    body: u64,
    /// Kind bit, then — regular: protocol variant, protocol number, source
    /// port, destination port; reference: `sender << 32 | seq`.
    tag: u64,
    /// Regular: where truth starts, ns — the event's injection time in its
    /// shared record. Reference: zero.
    since: u64,
}

const _: () = assert!(std::mem::size_of::<EventRecord>() == 40);

impl EventRecord {
    #[inline]
    pub(super) fn regular(tie: u64, id: u64, flow: &FlowKey, since: SimTime) -> Self {
        let proto = match flow.proto {
            Protocol::Tcp => 0,
            Protocol::Udp => TAG_PROTO_UDP,
            Protocol::Other(n) => TAG_PROTO_OTHER | (n as u64) << 32,
        };
        EventRecord {
            tie,
            id,
            body: (u32::from(flow.src) as u64) << 32 | u32::from(flow.dst) as u64,
            tag: proto | (flow.sport as u64) << 16 | flow.dport as u64,
            since: since.as_nanos(),
        }
    }

    #[inline]
    pub(super) fn reference(tie: u64, id: u64, info: &ReferenceInfo) -> Self {
        EventRecord {
            tie,
            id,
            body: info.tx_timestamp.as_nanos(),
            tag: TAG_REFERENCE | (info.sender.0 as u64) << 32 | info.seq as u64,
            since: 0,
        }
    }

    /// What `entry`, naming this record, feeds its tap's receiver. A scored
    /// regular's truth is `entry.at − since`, saturating — the span the tap
    /// would have computed when it observed the event.
    #[inline]
    pub(super) fn payload(&self, entry: &WindowEntry) -> Payload {
        if self.tag & TAG_REFERENCE != 0 {
            return Payload::Reference(ReferenceInfo {
                sender: SenderId((self.tag >> 32) as u16),
                seq: self.tag as u32,
                tx_timestamp: SimTime::from_nanos(self.body),
            });
        }
        let proto = match self.tag & (TAG_PROTO_UDP | TAG_PROTO_OTHER) {
            0 => Protocol::Tcp,
            TAG_PROTO_UDP => Protocol::Udp,
            _ => Protocol::Other((self.tag >> 32) as u8),
        };
        Payload::Regular {
            flow: FlowKey {
                src: Ipv4Addr::from((self.body >> 32) as u32),
                dst: Ipv4Addr::from(self.body as u32),
                proto,
                sport: (self.tag >> 16) as u16,
                dport: self.tag as u16,
            },
            truth: (entry.rec & ENTRY_HAS_TRUTH != 0)
                .then(|| SimDuration::from_nanos(entry.at.saturating_sub(self.since))),
        }
    }
}

/// The plane-wide FIFO of [`EventRecord`]s, oldest first. A record is
/// named by its position in the whole stream of records ever made, so
/// reclaiming the front never renumbers what the entries hold.
#[derive(Default)]
pub(super) struct Records {
    /// Grown by [`rlir_rli::growth`].
    pub(super) fifo: VecDeque<EventRecord>,
    /// Records reclaimed so far: the stream position of `fifo`'s front.
    pub(super) base: u64,
    /// High-water mark of `fifo.len()`.
    pub(super) peak: usize,
    /// Latest observation time of any entry made so far, ns.
    pub(super) max_at: u64,
    /// `(max_at then, stream position)` pairs, both ascending: every entry
    /// naming a record before the position was observed no later than the
    /// time, so once every tap is flushed past the time the records before
    /// the position have no entry left. About one pair per
    /// [`RECLAIM_GRAIN`] records, and one per flush for the records since
    /// the last pair.
    pub(super) checkpoints: VecDeque<(u64, u64)>,
}

/// Records per reclamation checkpoint. A coarser grain frees records
/// later: the last-hop departures a delivery reports run ahead of the
/// watermark by that queue's residence, and a whole flush interval vouched
/// for by its latest entry would wait half a window more than most of its
/// records need. 16 bytes per 256 records is what the finer grain costs.
pub(super) const RECLAIM_GRAIN: u64 = 256;

impl Records {
    /// Records ever made (the stream position the next one gets).
    #[inline]
    pub(super) fn made(&self) -> u64 {
        self.base + self.fifo.len() as u64
    }

    /// Append a record only the calling tap will name (a mapped reference,
    /// a truth span of its own). Never a checkpoint: the event's shared
    /// record may lie before it with sharers still to come.
    #[inline]
    pub(super) fn push_own(&mut self, rec: EventRecord) -> u64 {
        let pos = self.made();
        if self.fifo.len() == self.fifo.capacity() {
            self.fifo
                .reserve_exact(rlir_rli::growth(self.fifo.len(), 1));
        }
        self.fifo.push_back(rec);
        self.peak = self.peak.max(self.fifo.len());
        pos
    }

    /// Append the record every tap buffering the current event shares.
    #[inline]
    pub(super) fn push_shared(&mut self, rec: EventRecord) -> u64 {
        let pos = self.made();
        let last = self.checkpoints.back().map_or(self.base, |&(_, p)| p);
        if pos - last >= RECLAIM_GRAIN {
            // Every earlier record is an earlier event's, or a tap's own
            // for this one: all their entries are made — and in `max_at` —
            // by now.
            self.checkpoints.push_back((self.max_at, pos));
        }
        self.push_own(rec)
    }

    /// An entry observing record `rec` at `at`, scored or not. Every entry
    /// is made here, which is what lets `max_at` vouch for all of them.
    #[inline]
    pub(super) fn entry(&mut self, at: SimTime, scored: bool, rec: u64) -> WindowEntry {
        self.max_at = self.max_at.max(at.as_nanos());
        WindowEntry {
            at: at.as_nanos(),
            rec: if scored { rec | ENTRY_HAS_TRUTH } else { rec },
        }
    }

    /// The record `entry` names. An entry outliving its record is a bug in
    /// the reclamation rule, and panics here rather than read a neighbour.
    #[inline]
    pub(super) fn get(&self, entry: &WindowEntry) -> &EventRecord {
        let i = (entry.rec & !ENTRY_HAS_TRUTH)
            .checked_sub(self.base)
            .expect("window entry names a reclaimed record");
        &self.fifo[i as usize]
    }

    /// Called with every unordered tap flushed to `bound`, between events:
    /// free the front up to the last checkpoint whose entries all lay
    /// below `bound` — they were just fed, or freed earlier.
    pub(super) fn reclaim(&mut self, bound: SimTime) {
        let made = self.made();
        if self.checkpoints.back().is_none_or(|&(_, pos)| pos < made) {
            self.checkpoints.push_back((self.max_at, made));
        }
        let mut free_to = self.base;
        while let Some(&(max_at, pos)) = self.checkpoints.front() {
            if max_at >= bound.as_nanos() {
                break;
            }
            free_to = pos;
            self.checkpoints.pop_front();
        }
        self.fifo.drain(..(free_to - self.base) as usize);
        self.base = free_to;
    }
}

/// One hop event on its way through the taps at its point: the tie every
/// observation of it carries, and the record they share — made by the
/// first tap that buffers it, so an event nobody buffers costs nothing.
pub(super) struct EventSlot {
    pub(super) tie: u64,
    rec: Option<u64>,
}

impl EventSlot {
    pub(super) fn new(tie: u64) -> Self {
        EventSlot { tie, rec: None }
    }

    /// The event's shared record, made from the tie on first use.
    #[inline]
    pub(super) fn shared(
        &mut self,
        records: &mut Records,
        make: impl FnOnce(u64) -> EventRecord,
    ) -> u64 {
        let tie = self.tie;
        *self
            .rec
            .get_or_insert_with(|| records.push_shared(make(tie)))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{crossed, deliver_ev, fk, gated_tap};
    use super::super::{MeasurementPlane, TruthRef};
    use rlir_net::packet::{Packet, SenderId};
    use rlir_net::time::SimTime;
    use rlir_sim::HopSink;

    #[test]
    fn each_truth_span_starts_where_its_tap_says_on_one_shared_event() {
        // One regular, injected at 100, crosses nodes 1, 2 and 3 at 300, 700
        // and 1 000 and is buffered by a tap at each: truth since injection,
        // truth since the arrival at node 1, no truth.
        let mut plane = MeasurementPlane::new();
        for (node, truth) in [
            (1, TruthRef::SinceInjection),
            (2, TruthRef::SinceArrivalAt(vec![1])),
            (3, TruthRef::NoTruth),
        ] {
            let mut spec = gated_tap("tap", node);
            spec.truth = truth;
            plane.attach(spec);
        }
        let path = |at: [u64; 3]| [crossed(1, at[0]), crossed(2, at[1]), crossed(3, at[2])];
        let r0 = Packet::reference(1, fk(9), SenderId(1), 0, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&r0, &path([200, 250, 280]), 9, 1_100));
        let p = Packet::regular(2, fk(1), 700, SimTime::from_nanos(100));
        plane.on_hop(&deliver_ev(&p, &path([300, 700, 1_000]), 9, 1_200));
        let r1 = Packet::reference(3, fk(9), SenderId(1), 1, SimTime::from_nanos(1_000));
        plane.on_hop(&deliver_ev(&r1, &path([1_100, 1_200, 1_300]), 9, 1_400));
        let rep = plane.finish();
        let truths: Vec<Option<f64>> = rep
            .taps
            .iter()
            .map(|t| t.report.flows.get(&fk(1)).expect("estimated").truth.mean())
            .collect();
        // 300 − 100, 700 − 300: sharing the event's record, the second tap
        // would read 700 − 100.
        assert_eq!(truths, [Some(200.0), Some(400.0), None]);
        // Two references', the regular's shared one and the second tap's own.
        assert_eq!(rep.records_made, 4);
    }
}
