//! What the pcap replay's ingest costs the allocator once it is warm.
//!
//! `PcapReplaySource` decodes every record into one reused scratch buffer
//! and holds one 64-byte `(node, packet)` entry per buffered record in its
//! reorder heap. Once the heap has grown to the window's depth, a replay
//! asks the allocator for nothing more: what it may still ask for is the
//! heap's own capacity doublings, should the disorder deepen later in the
//! capture. Runs under the counting `#[global_allocator]` of
//! `tests/support/counting_alloc.rs`.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use rlir_net::packet::Packet;
use rlir_net::time::SimTime;
use rlir_net::FlowKey;
use rlir_sim::InjectionSource;
use rlir_trace::{EntryMap, PcapRecords, PcapReplaySource, PcapWriter};
use std::net::Ipv4Addr;

const RECORDS: u64 = 100_000;
/// Records pulled before the allocator is watched.
const WARM: u64 = 10_000;
const WINDOW_NS: u64 = 100_000;
const SPACING_NS: u64 = 100;
/// Capture-time disorder: every record lands up to this far past its slot.
const JITTER_NS: u64 = WINDOW_NS / 2;
/// Bytes of one heap entry, pinned at compile time in `rlir_trace::replay`.
const ENTRY: usize = 64;

/// The capacity a `Vec` of 64-byte entries holds after growing by pushes
/// to `len` entries.
fn capacity(len: usize) -> usize {
    len.next_power_of_two().max(4)
}

fn capture() -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).expect("header");
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..RECORDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let flow = FlowKey::tcp(
            Ipv4Addr::new(10, 0, (i % 16) as u8, 1),
            4000,
            Ipv4Addr::new(10, 9, 0, 1),
            80,
        );
        let at = SimTime::from_nanos(i * SPACING_NS + x % JITTER_NS);
        w.write(&Packet::regular(i, flow, 700, at)).expect("record");
    }
    w.finish().expect("flush")
}

#[test]
fn a_warm_replay_allocates_only_heap_doublings() {
    let bytes = capture();
    let mut src = PcapReplaySource::new(
        PcapRecords::new(bytes.as_slice()).expect("header"),
        EntryMap::Fixed(0),
        WINDOW_NS,
    );
    // Pull the way the engine does: `peek`, then `next_injection`.
    let pull = |src: &mut PcapReplaySource<&[u8]>| {
        let t = src.peek()?;
        let (_, p) = src.next_injection().expect("peeked");
        assert_eq!(p.created_at, t);
        Some(t)
    };
    for _ in 0..WARM {
        pull(&mut src).expect("warm-up record");
    }
    let warm_peak = src.peak_buffered();
    let before = counting_alloc::requested();
    let mut last = SimTime::ZERO;
    while let Some(t) = pull(&mut src) {
        assert!(t >= last, "replay out of order at {t:?}");
        last = t;
    }
    let asked = counting_alloc::requested() - before;

    assert_eq!(src.emitted(), RECORDS);
    assert_eq!(src.late_dropped(), 0);
    // The heap holds about a window's worth of records, and the warm-up
    // already reached that depth.
    let depth = (WINDOW_NS / SPACING_NS) as usize;
    assert!(
        warm_peak >= depth / 2 && src.peak_buffered() <= 2 * depth,
        "peak {warm_peak} after warm-up, {} at the end, depth {depth}",
        src.peak_buffered()
    );
    // Every doubling from the warm capacity to the final one, each counted
    // at its new size.
    let (warm_cap, end_cap) = (capacity(warm_peak), capacity(src.peak_buffered()));
    let doublings: usize = std::iter::successors(Some(warm_cap * 2), |c| Some(c * 2))
        .take_while(|&c| c <= end_cap)
        .map(|c| c * ENTRY)
        .sum();
    assert!(
        asked <= doublings,
        "{asked} B asked for after {WARM} records; heap doublings allow {doublings} B \
         (peak {warm_peak} → {})",
        src.peak_buffered()
    );
}
