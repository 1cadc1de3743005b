//! What the reorder runs cost the allocator when the taps take turns.
//!
//! Every unordered tap of a `MeasurementPlane` buffers its pending
//! observations in a run. With a `Vec` per tap, each run kept the capacity
//! of its own all-time peak, rounded up to a power of two, long after its
//! burst had passed: a plane paid the *sum* of its taps' peaks. With one
//! block pool shared by every run, a burst takes the blocks the previous
//! burst's flush freed, so the plane pays the peak of the *sum* — what
//! `PlaneReport::peak_pending_total` counts — plus at most a block a tap.
//!
//! The bound runs under the counting `#[global_allocator]` of
//! `tests/support/counting_alloc.rs`, tracking the high-water mark of the
//! bytes this thread holds. Each of its terms is what one structure holds
//! at the peak, which is the last flush's sort: the pool, the flush's
//! scratch and its sort buffer, the record FIFO and its checkpoints, the
//! receivers' flow tables and the event's candidate buffer.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use rlir::plane::{MeasurementPlane, PlaneConfig, TapPoint, TapSpec, TruthRef};
use rlir_net::packet::{Packet, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
use rlir_sim::{Hop, HopEvent, HopKind, HopSink};
use std::net::Ipv4Addr;

const TAPS: usize = 64;
/// Observations in one tap's burst.
const BURST: u64 = 4_096;
/// Entries a pool block holds (the plane's `window_pool().block_entries`).
const BLOCK: usize = 128;
const WINDOW_NS: u64 = 1_000_000;
/// Bytes of a pool entry, of its decoded copy in the flush's sort scratch
/// and of an event record, pinned at compile time in the plane.
const ENTRY: usize = 8;
const SCRATCH: usize = 16;
const RECORD: usize = 40;
/// Bytes a pool block keeps besides its entries: the next block in its
/// chain (`u32`), its base (`u64`), its fill (`u8`) and its place on the
/// free list (`u32`).
const BLOCK_BOOKS: usize = 4 + 8 + 1 + 4;
/// Records per reclamation checkpoint, and a checkpoint's bytes: a
/// `(time, stream position)` pair.
const RECLAIM_GRAIN: usize = 256;
const CHECKPOINT: usize = 16;
/// The per-event candidate buffer: a `Vec` of `(tap, crossing)` pairs at
/// its first capacity, four, since an event here matches one tap.
const CANDIDATES: usize = 4 * 8;

/// Capacity of a `Vec` grown by `rlir_rli::growth` (an eighth of its
/// length, at least eight) until it holds `len`.
fn grown_by_eighths(len: usize) -> usize {
    let mut cap = 0;
    while cap < len {
        cap += rlir_rli::growth(cap, 1);
    }
    cap
}

fn flow(tap: usize) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, tap as u8),
        4000,
        Ipv4Addr::new(10, 9, 0, 1),
        80,
    )
}

#[test]
fn taps_that_burst_in_turn_cost_the_peak_of_the_sum_not_the_sum_of_the_peaks() {
    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        reorder_window: SimDuration::from_nanos(WINDOW_NS),
        ..PlaneConfig::default()
    });
    for tap in 0..TAPS {
        let mut spec = TapSpec::new(format!("t{tap}"), TapPoint::NodeArrival(tap), SenderId(1));
        spec.delivered_only = true;
        spec.truth = TruthRef::NoTruth;
        plane.attach(spec);
    }

    // Public API only, none of it new: the same test runs against a plane
    // with a `Vec` per tap.
    let before = counting_alloc::reset_peak();
    let mut id = 0;
    for tap in 0..TAPS {
        // Tap `tap`'s slot: the watermark flushes the previous burst, then a
        // window's worth of deliveries that crossed this tap alone, in
        // reverse crossing order — every eighth a reference.
        let now = 2 * WINDOW_NS * (tap as u64 + 1);
        plane.on_watermark(SimTime::from_nanos(now));
        for k in 0..BURST {
            id += 1;
            let at = SimTime::from_nanos(now - 1 - k * (WINDOW_NS / 2) / BURST);
            let sent = SimTime::from_nanos(at.as_nanos() - 500);
            let packet = if k % 8 == 0 {
                Packet::reference(id, flow(99), SenderId(1), id as u32, sent)
            } else {
                Packet::regular(id, flow(tap), 700, sent)
            };
            let hops = [Hop {
                node: tap,
                port: 0,
                arrived: at,
                departed: at,
            }];
            plane.on_hop(&HopEvent {
                kind: HopKind::Deliver,
                node: 1_000,
                at: SimTime::from_nanos(now),
                packet: &packet,
                injected_node: 1_000,
                injected_at: sent,
                hops: &hops,
            });
        }
    }
    let high_water = counting_alloc::peak() - before;
    let blocks = plane.window_pool().blocks;

    let rep = plane.finish();
    let estimated: u64 = rep.taps.iter().map(|t| t.report.counters.estimated).sum();
    assert!(estimated > 0 && rep.taps.iter().all(|t| t.late == 0));
    let pending = rep.peak_pending_total;
    assert_eq!(pending, BURST as usize, "one burst at a time");
    // The taps burst in turn and each flush empties the previous run, so
    // the pool holds one burst's blocks. Its per-block arrays double, so
    // their capacity is that many blocks rounded up to a power of two.
    assert_eq!(blocks, pending.div_ceil(BLOCK), "one burst's blocks");
    let pool = blocks.next_power_of_two() * (BLOCK * ENTRY + BLOCK_BOOKS);
    // A flush gathers a run into a scratch that doubles a block at a time,
    // and its stable sort borrows a buffer as long as the run.
    let (scratch, sort) = (pending.next_power_of_two() * SCRATCH, pending * SCRATCH);
    // One record an observation, in a FIFO grown an eighth at a time, and
    // a checkpoint every `RECLAIM_GRAIN` records plus one a flush, in a
    // deque that doubles.
    let fifo = grown_by_eighths(pending) * RECORD;
    let checkpoints = (pending / RECLAIM_GRAIN + 1).next_power_of_two() * CHECKPOINT;
    // A receiver gives its interpolation buffer back after every flush, so
    // what it keeps is its flow table.
    let flows: usize = rep.taps.iter().map(|t| t.report.flows.approx_bytes()).sum();
    // Printed against the plane's structures: 33 312 + 65 536 + 65 536 +
    // 171 280 + 256 (of the 512 allowed) + 53 248 + 32 B, a 389 456 B
    // bound; the peak is the last flush's sort, 387 536 B. The first burst's growth, where the
    // FIFO briefly holds its old and new buffers, peaks lower (356 968 B),
    // so no term pays for a `Vec` twice. A `Vec` per tap holds TAPS × BURST
    // entries; an entry padded to 16 bytes takes the plane to 420 304 B.
    let bound = pool + scratch + sort + fifo + checkpoints + flows + CANDIDATES;
    assert!(
        high_water <= bound,
        "the plane's live bytes peaked at {high_water} B over {bound} B \
         ({pending} observations pending at most)"
    );
}
