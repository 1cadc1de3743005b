//! Streaming pcap trace replay: captures off disk as engine injections.
//!
//! [`PcapReplaySource`] implements `rlir_sim`'s pull-based
//! [`InjectionSource`]: it decodes nanosecond-pcap records incrementally
//! through [`PcapRecords`]' reused scratch buffer, maps each record to a
//! `(NodeId, Packet)` injection via a configurable [`EntryMap`] demux, and
//! re-orders records through a **bounded** min-heap window — total ingest
//! memory is O(reorder buffer), never O(capture). This is what lets a
//! multi-million-packet replay run with flat ingest-side memory
//! (`scripts/trace_bench.sh` gates on it) where the old collect-then-sort
//! ingest materialized the whole capture.
//!
//! ## Ordering and the reorder window
//!
//! The engine requires non-decreasing injection times. Real captures are
//! *almost* sorted (interleaved capture points, timestamping jitter), so
//! the source buffers records in a min-heap and only releases the minimum
//! once every record that could still precede it has been read — i.e.
//! once `min.at + reorder_ns <= newest_read.at` — or the file is
//! exhausted. Records more disordered than `reorder_ns` are counted in
//! [`late_dropped`](PcapReplaySource::late_dropped) and discarded, the
//! same contract the measurement plane applies to its own reorder window.
//! A window of 0 still yields correct output for sorted captures (ties
//! preserve file order via a monotone sequence number).
//!
//! ## Identity
//!
//! Replayed packets get fresh unique ids `(seq << 16) | ident`, so the
//! low 16 bits — the simulated wire identity [`crate::pcap::write_pcap`]
//! would emit, and what capture-point taps match on — reproduce the
//! original capture's IPv4 ident field exactly.

use crate::pcap::{open_pcap, PcapError, PcapRecord, PcapRecords};
use rlir_net::packet::Packet;
use rlir_net::time::SimTime;
use rlir_net::FlowKey;
use rlir_sim::{InjectionSource, NodeId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io::{BufReader, Read};
use std::path::Path;

/// Per-window cap on records sharing one wire identity in lenient mode: a
/// hostile capture repeating one `(flow, ident)` can otherwise make every
/// tap's duplicate-matching degenerate. Duplicates beyond the cap are
/// counted in [`PcapReplaySource::dup_capped`] and dropped.
const MAX_DUP_IDENT: u32 = 8;

/// Maps a decoded capture record to the switch it enters the simulated
/// fabric at — the replay equivalent of "which router port was this
/// capture taken from".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryMap {
    /// Every record enters at one node.
    Fixed(NodeId),
    /// Records enter at `nodes[hash(src_ip) % nodes.len()]` — a
    /// deterministic per-source spread, the replay stand-in for multiple
    /// ToR-facing capture points.
    SrcHash(Vec<NodeId>),
}

impl EntryMap {
    /// Parse a CLI spec: `fixed:<node>` or `hash:<n0,n1,...>`.
    pub fn parse(spec: &str) -> Result<EntryMap, String> {
        if let Some(node) = spec.strip_prefix("fixed:") {
            let node: NodeId = node
                .parse()
                .map_err(|_| format!("bad entry-map node: {node:?}"))?;
            return Ok(EntryMap::Fixed(node));
        }
        if let Some(list) = spec.strip_prefix("hash:") {
            let nodes: Result<Vec<NodeId>, _> = list.split(',').map(str::parse).collect();
            let nodes = nodes.map_err(|_| format!("bad entry-map node list: {list:?}"))?;
            if nodes.is_empty() {
                return Err("entry-map node list is empty".to_string());
            }
            return Ok(EntryMap::SrcHash(nodes));
        }
        Err(format!(
            "bad entry-map spec {spec:?} (expected fixed:<node> or hash:<n0,n1,...>)"
        ))
    }

    /// The entry node for one record.
    pub fn node_for(&self, rec: &PcapRecord) -> NodeId {
        match self {
            EntryMap::Fixed(node) => *node,
            EntryMap::SrcHash(nodes) => {
                let v = u32::from_be_bytes(rec.flow.src.octets());
                let h = v.wrapping_mul(0x9E37_79B1) >> 16;
                nodes[h as usize % nodes.len()]
            }
        }
    }
}

/// One buffered injection; heap order is `(at, seq)` so same-timestamp
/// records keep file order.
#[derive(Debug, Clone, Copy)]
struct Buffered {
    at_ns: u64,
    seq: u64,
    node: NodeId,
    packet: Packet,
}

impl PartialEq for Buffered {
    fn eq(&self, other: &Self) -> bool {
        (self.at_ns, self.seq) == (other.at_ns, other.seq)
    }
}
impl Eq for Buffered {}
impl PartialOrd for Buffered {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Buffered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_ns, self.seq).cmp(&(other.at_ns, other.seq))
    }
}

/// A streaming [`InjectionSource`] over a nanosecond pcap (see the module
/// docs): O(reorder buffer) ingest memory, counters for everything it
/// sheds, and an [`error`](Self::error) accessor for mid-file decode
/// failures (the source ends early; the engine has no error channel).
#[derive(Debug)]
pub struct PcapReplaySource<R: Read> {
    records: PcapRecords<R>,
    entry: EntryMap,
    reorder_ns: u64,
    heap: BinaryHeap<Reverse<Buffered>>,
    /// Timestamp of the newest record read off disk (release horizon).
    newest_read: u64,
    /// Timestamp of the last emitted injection (late-record cutoff).
    last_emitted: u64,
    seq: u64,
    emitted: u64,
    late_dropped: u64,
    peak_buffered: usize,
    exhausted: bool,
    error: Option<PcapError>,
    len_hint: Option<usize>,
    span_hint: Option<u64>,
    /// Lenient replay: clamp time regressions instead of dropping them,
    /// cap duplicate wire identities (the record iterator is switched to
    /// lenient decode separately, by the constructor path).
    lenient: bool,
    clamped_regressions: u64,
    dup_capped: u64,
    /// Duplicate-identity occurrence counts for the current dup window.
    dup_counts: BTreeMap<(FlowKey, u16), u32>,
    dup_window_start: u64,
}

impl PcapReplaySource<BufReader<std::fs::File>> {
    /// Open a capture file on disk (buffered reads).
    pub fn from_path(path: &Path, entry: EntryMap, reorder_ns: u64) -> Result<Self, PcapError> {
        Ok(Self::new(open_pcap(path)?, entry, reorder_ns))
    }
}

impl<R: Read> PcapReplaySource<R> {
    /// Wrap an already-validated record iterator.
    pub fn new(records: PcapRecords<R>, entry: EntryMap, reorder_ns: u64) -> Self {
        PcapReplaySource {
            records,
            entry,
            reorder_ns,
            heap: BinaryHeap::new(),
            newest_read: 0,
            last_emitted: 0,
            seq: 0,
            emitted: 0,
            late_dropped: 0,
            peak_buffered: 0,
            exhausted: false,
            error: None,
            len_hint: None,
            span_hint: None,
            lenient: false,
            clamped_regressions: 0,
            dup_capped: 0,
            dup_counts: BTreeMap::new(),
            dup_window_start: 0,
        }
    }

    /// Hostile-ingest mode (builder style): switches the record decoder to
    /// [`crate::pcap::IngestMode::Lenient`], clamps time regressions
    /// beyond the reorder window to the last emitted timestamp instead of
    /// dropping them (counted in [`clamped_regressions`]
    /// (Self::clamped_regressions)), and caps duplicate wire identities
    /// per reorder window (counted in [`dup_capped`](Self::dup_capped)).
    /// On a clean capture, output is byte-identical to strict mode.
    pub fn lenient(mut self) -> Self {
        self.lenient = true;
        self.records = self.records.lenient();
        self
    }

    /// Record count / capture span in nanoseconds known out-of-band, e.g.
    /// recorded next to the capture. Never affects results — and, since the
    /// calendar's geometry comes from the fabric, nothing reads them: kept
    /// for the ledger, which calls this (see `rlir_sim::source`).
    pub fn with_hints(mut self, len: usize, span_ns: u64) -> Self {
        self.len_hint = Some(len);
        self.span_hint = Some(span_ns);
        self
    }

    /// Map one record to its injection. Fresh unique id, original wire
    /// identity in the low 16 bits, ToS restored as the mark.
    fn admit(&mut self, rec: &PcapRecord) -> Buffered {
        let seq = self.seq;
        self.seq += 1;
        let mut p = Packet::regular(
            (seq << 16) | u64::from(rec.ident),
            rec.flow,
            rec.orig_len,
            rec.at,
        );
        p.mark = rec.tos;
        Buffered {
            at_ns: rec.at.as_nanos(),
            seq,
            node: self.entry.node_for(rec),
            packet: p,
        }
    }

    /// Whether a buffered record at `at_ns` can be released: nothing still
    /// unread can precede it, or nothing is left to read. Saturating — a
    /// `u64::MAX` window asks for a full sort, and nothing is then
    /// releasable before the capture ends.
    fn releasable(&self, at_ns: u64) -> bool {
        self.exhausted || at_ns.saturating_add(self.reorder_ns) <= self.newest_read
    }

    /// Read records until the heap minimum is safe to release (every
    /// record that could still precede it has been read) or the file ends.
    fn refill(&mut self) {
        while !self.exhausted {
            if self
                .heap
                .peek()
                .is_some_and(|Reverse(min)| self.releasable(min.at_ns))
            {
                break;
            }
            match self.records.next() {
                Some(Ok(rec)) => {
                    if self.lenient && self.dup_capped_out(&rec) {
                        continue;
                    }
                    let buf = self.admit(&rec);
                    self.newest_read = self.newest_read.max(buf.at_ns);
                    self.heap.push(Reverse(buf));
                    self.peak_buffered = self.peak_buffered.max(self.heap.len());
                }
                Some(Err(e)) => {
                    self.error = Some(e);
                    self.exhausted = true;
                }
                None => self.exhausted = true,
            }
        }
    }

    /// Lenient duplicate-identity cap: true (and counted) when this
    /// record's `(flow, ident)` has already appeared [`MAX_DUP_IDENT`]
    /// times within the current reorder window. The count map resets once
    /// the read horizon moves a full window past its start, so memory is
    /// bounded by distinct identities per window, not per capture.
    fn dup_capped_out(&mut self, rec: &PcapRecord) -> bool {
        let at_ns = rec.at.as_nanos();
        if at_ns.saturating_sub(self.dup_window_start) > self.reorder_ns {
            self.dup_counts.clear();
            self.dup_window_start = at_ns;
        }
        let n = self.dup_counts.entry((rec.flow, rec.ident)).or_insert(0);
        if *n >= MAX_DUP_IDENT {
            self.dup_capped += 1;
            return true;
        }
        *n += 1;
        false
    }

    /// Discard buffered records that would violate injection-time
    /// monotonicity (disorder beyond the window), leaving the heap
    /// minimum emittable or the heap empty. Lenient mode clamps such
    /// records to the last emitted timestamp instead — the record
    /// survives (its latency sample is already ruined by the capture
    /// damage, but its flow's packet count is not) and monotonicity
    /// holds.
    fn shed_late(&mut self) {
        while let Some(Reverse(min)) = self.heap.peek() {
            if min.at_ns >= self.last_emitted {
                break;
            }
            if self.lenient {
                let Reverse(mut b) = self.heap.pop().expect("peeked");
                b.at_ns = self.last_emitted;
                b.packet.created_at = SimTime::from_nanos(self.last_emitted);
                self.heap.push(Reverse(b));
                self.clamped_regressions += 1;
                continue;
            }
            self.heap.pop();
            self.late_dropped += 1;
        }
    }

    /// Decode records read off disk so far (including shed ones).
    pub fn records_read(&self) -> u64 {
        self.seq
    }

    /// Injections handed to the engine so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Records discarded because they were more disordered than the
    /// reorder window.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// High-water mark of the reorder buffer — the source's whole ingest
    /// memory bound, independent of capture length.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Approximate bytes of the ingest buffer at its peak.
    pub fn peak_buffered_bytes(&self) -> usize {
        self.peak_buffered * std::mem::size_of::<Reverse<Buffered>>()
    }

    /// The decode error that ended the stream early, if any. A source
    /// that hit one still emits everything buffered before the failure.
    pub fn error(&self) -> Option<&PcapError> {
        self.error.as_ref()
    }

    /// Lenient-mode time regressions clamped to the last emitted
    /// timestamp (always 0 in strict mode, where such records are late-
    /// dropped instead).
    pub fn clamped_regressions(&self) -> u64 {
        self.clamped_regressions
    }

    /// Lenient-mode records dropped by the per-window duplicate wire
    /// identity cap.
    pub fn dup_capped(&self) -> u64 {
        self.dup_capped
    }

    /// The wrapped record decoder, for its lenient-ingest counters
    /// (skipped records/bytes, resyncs).
    pub fn decoder(&self) -> &PcapRecords<R> {
        &self.records
    }
}

impl<R: Read> InjectionSource for PcapReplaySource<R> {
    fn peek(&mut self) -> Option<SimTime> {
        loop {
            self.refill();
            self.shed_late();
            match self.heap.peek() {
                Some(Reverse(b)) if self.releasable(b.at_ns) => {
                    return Some(SimTime::from_nanos(b.at_ns));
                }
                // Shedding exposed a not-yet-releasable minimum, or the
                // whole buffer was late: read further.
                Some(_) => continue,
                None if self.exhausted => return None,
                None => continue,
            }
        }
    }

    fn next_injection(&mut self) -> Option<(NodeId, Packet)> {
        self.peek()?;
        let Reverse(min) = self.heap.pop()?;
        self.last_emitted = min.at_ns;
        self.emitted += 1;
        Some((min.node, min.packet))
    }

    fn len_hint(&self) -> Option<usize> {
        self.len_hint
    }

    fn span_hint(&self) -> Option<u64> {
        self.span_hint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::PcapWriter;
    use rlir_net::FlowKey;
    use std::net::Ipv4Addr;

    fn pkt(id: u64, at_ns: u64, src_last: u8) -> Packet {
        Packet::regular(
            id,
            FlowKey::tcp(
                Ipv4Addr::new(10, 0, 0, src_last),
                1000 + src_last as u16,
                Ipv4Addr::new(10, 1, 0, 1),
                80,
            ),
            1000,
            SimTime::from_nanos(at_ns),
        )
    }

    fn capture(packets: &[Packet]) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for p in packets {
            w.write(p).unwrap();
        }
        w.finish().unwrap()
    }

    fn drain(src: &mut impl InjectionSource) -> Vec<(NodeId, u64, u64)> {
        let mut out = Vec::new();
        while let Some(t) = src.peek() {
            let (node, p) = src.next_injection().unwrap();
            assert_eq!(p.created_at, t);
            out.push((node, p.id.0 & 0xFFFF, p.created_at.as_nanos()));
        }
        out
    }

    #[test]
    fn sorted_capture_streams_in_order_with_tiny_buffer() {
        let packets: Vec<Packet> = (0..100).map(|i| pkt(i, i * 50, 1)).collect();
        let bytes = capture(&packets);
        let mut src = PcapReplaySource::new(
            PcapRecords::new(bytes.as_slice()).unwrap(),
            EntryMap::Fixed(0),
            0,
        );
        let out = drain(&mut src);
        assert_eq!(out.len(), 100);
        for (i, (node, ident, at)) in out.iter().enumerate() {
            assert_eq!(*node, 0);
            assert_eq!(*ident, i as u64);
            assert_eq!(*at, i as u64 * 50);
        }
        assert_eq!(src.late_dropped(), 0);
        assert!(src.error().is_none());
        // Window 0 on a sorted capture: at most a couple of records live
        // in the buffer at once — this is the O(buffer) claim.
        assert!(
            src.peak_buffered() <= 2,
            "peak {} for a sorted capture",
            src.peak_buffered()
        );
    }

    #[test]
    fn jittered_capture_reorders_within_window() {
        // Timestamps 0, 300, 150, 600, 450, ... (each pair swapped by 150
        // ns): a 300 ns window restores full order.
        let mut packets = Vec::new();
        for i in 0..50u64 {
            let base = i * 300;
            packets.push(pkt(2 * i, base + 300, 1));
            packets.push(pkt(2 * i + 1, base + 150, 1));
        }
        let bytes = capture(&packets);
        let mut src = PcapReplaySource::new(
            PcapRecords::new(bytes.as_slice()).unwrap(),
            EntryMap::Fixed(0),
            300,
        );
        let out = drain(&mut src);
        assert_eq!(out.len(), 100);
        for w in out.windows(2) {
            assert!(w[0].2 <= w[1].2, "order not restored: {w:?}");
        }
        assert_eq!(src.late_dropped(), 0);
        assert!(src.peak_buffered() >= 2, "window must actually buffer");
    }

    #[test]
    fn disorder_beyond_window_is_shed_and_counted() {
        // One record 10 µs behind its neighbours, window far smaller.
        let packets = vec![
            pkt(0, 10_000, 1),
            pkt(1, 10_100, 1),
            pkt(2, 100, 1), // hopelessly late
            pkt(3, 10_200, 1),
        ];
        let bytes = capture(&packets);
        let mut src = PcapReplaySource::new(
            PcapRecords::new(bytes.as_slice()).unwrap(),
            EntryMap::Fixed(0),
            50,
        );
        let out = drain(&mut src);
        let times: Vec<u64> = out.iter().map(|&(_, _, t)| t).collect();
        assert_eq!(times, vec![10_000, 10_100, 10_200]);
        assert_eq!(src.late_dropped(), 1);
        assert_eq!(src.emitted(), 3);
        assert_eq!(src.records_read(), 4);
    }

    #[test]
    fn an_unbounded_window_is_a_full_sort_not_an_overflow() {
        let packets = vec![pkt(0, 500, 1), pkt(1, 100, 1), pkt(2, 300, 1)];
        let bytes = capture(&packets);
        let mut src = PcapReplaySource::new(
            PcapRecords::new(bytes.as_slice()).unwrap(),
            EntryMap::Fixed(0),
            u64::MAX,
        );
        let times: Vec<u64> = drain(&mut src).iter().map(|&(_, _, t)| t).collect();
        assert_eq!(times, vec![100, 300, 500]);
        assert_eq!(src.late_dropped(), 0);
    }

    #[test]
    fn src_hash_demux_spreads_and_is_deterministic() {
        let packets: Vec<Packet> = (0..64).map(|i| pkt(i, i * 10, (i % 7) as u8)).collect();
        let bytes = capture(&packets);
        let run = |bytes: &[u8]| {
            let mut src = PcapReplaySource::new(
                PcapRecords::new(bytes).unwrap(),
                EntryMap::SrcHash(vec![0, 1, 2]),
                0,
            );
            drain(&mut src)
        };
        let a = run(&bytes);
        let b = run(&bytes);
        assert_eq!(a, b, "demux must be deterministic");
        let nodes: std::collections::BTreeSet<NodeId> =
            a.iter().map(|&(node, _, _)| node).collect();
        assert!(nodes.len() > 1, "hash demux never spread: {nodes:?}");
        assert!(nodes.iter().all(|&n| n < 3));
    }

    #[test]
    fn entry_map_parses_and_rejects() {
        assert_eq!(EntryMap::parse("fixed:3"), Ok(EntryMap::Fixed(3)));
        assert_eq!(
            EntryMap::parse("hash:0,1,2"),
            Ok(EntryMap::SrcHash(vec![0, 1, 2]))
        );
        assert!(EntryMap::parse("fixed:x").is_err());
        assert!(EntryMap::parse("hash:").is_err());
        assert!(EntryMap::parse("nonsense").is_err());
        assert!(EntryMap::parse("hash:1,,2").is_err());
    }

    #[test]
    fn lenient_replay_identical_to_strict_on_clean_capture() {
        let mut packets = Vec::new();
        for i in 0..50u64 {
            let base = i * 300;
            packets.push(pkt(2 * i, base + 300, 1));
            packets.push(pkt(2 * i + 1, base + 150, 1));
        }
        let bytes = capture(&packets);
        let strict = {
            let mut src = PcapReplaySource::new(
                PcapRecords::new(bytes.as_slice()).unwrap(),
                EntryMap::Fixed(0),
                300,
            );
            drain(&mut src)
        };
        let mut src = PcapReplaySource::new(
            PcapRecords::new(bytes.as_slice()).unwrap(),
            EntryMap::Fixed(0),
            300,
        )
        .lenient();
        let lenient = drain(&mut src);
        assert_eq!(strict, lenient);
        assert_eq!(src.clamped_regressions(), 0);
        assert_eq!(src.dup_capped(), 0);
        assert_eq!(src.decoder().skipped_records(), 0);
    }

    #[test]
    fn lenient_clamps_time_regressions_instead_of_dropping() {
        let packets = vec![
            pkt(0, 10_000, 1),
            pkt(1, 10_100, 1),
            pkt(2, 100, 1), // hopelessly late
            pkt(3, 10_200, 1),
        ];
        let bytes = capture(&packets);
        let mut src = PcapReplaySource::new(
            PcapRecords::new(bytes.as_slice()).unwrap(),
            EntryMap::Fixed(0),
            50,
        )
        .lenient();
        let mut out = Vec::new();
        while let Some(t) = src.peek() {
            let (_, p) = src.next_injection().unwrap();
            assert_eq!(p.created_at, t, "clamped time must be consistent");
            out.push((p.id.0 & 0xFFFF, p.created_at.as_nanos()));
        }
        // Monotone, nothing lost: the late record rides at the clamp time.
        assert_eq!(
            out,
            vec![(0, 10_000), (2, 10_000), (1, 10_100), (3, 10_200)]
        );
        assert_eq!(src.clamped_regressions(), 1);
        assert_eq!(src.late_dropped(), 0);
        assert_eq!(src.emitted(), 4);
    }

    #[test]
    fn lenient_caps_duplicate_wire_identities_per_window() {
        // Twelve records sharing one (flow, ident) inside one reorder
        // window: the cap admits MAX_DUP_IDENT and counts the rest.
        let packets: Vec<Packet> = (0..12).map(|i| pkt(7, i * 10, 1)).collect();
        let bytes = capture(&packets);
        let mut src = PcapReplaySource::new(
            PcapRecords::new(bytes.as_slice()).unwrap(),
            EntryMap::Fixed(0),
            1_000,
        )
        .lenient();
        let out = drain(&mut src);
        assert_eq!(out.len(), MAX_DUP_IDENT as usize);
        assert_eq!(src.dup_capped(), 12 - u64::from(MAX_DUP_IDENT));
        // A strict replay admits all twelve — the cap is lenient-only.
        let mut strict = PcapReplaySource::new(
            PcapRecords::new(bytes.as_slice()).unwrap(),
            EntryMap::Fixed(0),
            1_000,
        );
        assert_eq!(drain(&mut strict).len(), 12);
    }

    #[test]
    fn truncated_capture_surfaces_error_after_draining_buffer() {
        let packets: Vec<Packet> = (0..10).map(|i| pkt(i, i * 100, 1)).collect();
        let mut bytes = capture(&packets);
        bytes.truncate(bytes.len() - 7); // mid-body
        let mut src = PcapReplaySource::new(
            PcapRecords::new(bytes.as_slice()).unwrap(),
            EntryMap::Fixed(0),
            0,
        );
        let out = drain(&mut src);
        assert_eq!(out.len(), 9, "everything before the torn record plays");
        assert!(matches!(src.error(), Some(PcapError::BadRecord(_))));
    }
}
