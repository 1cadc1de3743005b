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
//! bytes this thread holds.

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
/// Entries a pool block holds (the plane's `window_pool().block_entries`,
/// not read here so the test also runs against the plane before the pool).
const BLOCK: usize = 128;
const WINDOW_NS: u64 = 1_000_000;
/// Bytes of a window entry and of an event record, pinned at compile time
/// in the plane.
const ENTRY: usize = 16;
const RECORD: usize = 40;

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

    let rep = plane.finish();
    let estimated: u64 = rep.taps.iter().map(|t| t.report.counters.estimated).sum();
    assert!(estimated > 0 && rep.taps.iter().all(|t| t.late == 0));
    let pending_total = rep.peak_pending_total;
    assert_eq!(pending_total, BURST as usize, "one burst at a time");
    // Every pending observation's entry in the pool and its copy in the
    // sort scratch, each up to twice its length while its `Vec` grows, and
    // its event record; plus what the receivers and flow tables hold. The
    // taps burst in turn, so only one run's tail block is partly empty at a
    // time. A `Vec` per tap holds TAPS × BURST entries; a 24-byte entry
    // takes the plane over the bound.
    let bound = pending_total * (4 * ENTRY + RECORD) + BLOCK * ENTRY + TAPS * 256;
    assert!(
        high_water <= bound,
        "the plane's live bytes peaked at {high_water} B over {bound} B \
         ({pending_total} observations pending at most)"
    );
}
