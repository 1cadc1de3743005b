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
//! The bound runs under a counting `#[global_allocator]` local to this test
//! binary (the pattern of `tests/flow_report_streaming.rs`), tracking the
//! high-water mark of the bytes this thread holds.

use rlir::plane::{DrainMode, MeasurementPlane, PlaneConfig, TapPoint, TapSpec, TruthRef};
use rlir_net::packet::{Packet, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
use rlir_sim::{Hop, HopEvent, HopKind, HopSink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

thread_local! {
    /// Bytes this thread holds: asked for and not yet given back (a
    /// `realloc` asks for its whole new size before giving back the old).
    /// Per thread: the harness runs tests in parallel.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// High-water mark of `LIVE` since the last [`reset_peak`].
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // A thread being torn down has no counter left; nothing measured runs there.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn count_freed(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

/// Start a new high-water mark at what the thread holds now; returns that.
fn reset_peak() -> usize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialised `Cell`s without a destructor, so touching them
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_freed(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        count_freed(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TAPS: usize = 64;
/// Observations in one tap's burst.
const BURST: u64 = 4_096;
/// Entries a pool block holds (the plane's `window_pool().block_entries`,
/// not read here so the test also runs against the plane before the pool).
const BLOCK: usize = 128;
const WINDOW_NS: u64 = 1_000_000;
/// Bytes of a window entry, pinned in the plane's unit tests.
const ENTRY: usize = 24;

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
        drain: DrainMode::Streaming {
            reorder_window: SimDuration::from_nanos(WINDOW_NS),
        },
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
    let before = reset_peak();
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
    let high_water = PEAK.with(Cell::get) - before;

    let rep = plane.finish();
    let estimated: u64 = rep.taps.iter().map(|t| t.report.counters.estimated).sum();
    assert!(estimated > 0 && rep.taps.iter().all(|t| t.late == 0));
    let pending_total = rep.peak_pending_total;
    assert_eq!(pending_total, BURST as usize, "one burst at a time");
    // Entry, record and sort scratch of every pending observation, each at
    // up to twice its length, plus a tail block a tap and what the receivers
    // and flow tables hold. A `Vec` per tap holds TAPS × BURST entries.
    let bound = 4 * pending_total * ENTRY + TAPS * BLOCK * ENTRY + 256 * 1024;
    assert!(
        high_water <= bound,
        "the plane's live bytes peaked at {high_water} B over {bound} B \
         ({pending_total} observations pending at most)"
    );
}
