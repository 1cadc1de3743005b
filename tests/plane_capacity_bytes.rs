//! What a measurement plane's per-tap buffers hold beyond their length at
//! the end of a run.
//!
//! Each tap's receiver keeps two growing buffers: its per-epoch series and
//! its interpolation buffer (the regulars waiting for their closing
//! reference). Grown by doubling and never given back, each kept up to
//! twice its length — the interpolation buffer its all-time peak, long
//! after the burst that set it. The series grows its 40-byte epoch rows and
//! its 80-byte moments (one per epoch with an estimate) by at most an
//! eighth of their length (or 8) at a time, and after every flush batch
//! each receiver gives back its interpolation buffer's spare capacity, so
//! all three hold at most 9/8 of their length plus a constant.
//!
//! Measured under the counting `#[global_allocator]` of
//! `tests/support/counting_alloc.rs`, through the public API only: a tap's
//! interpolation buffer is what a crash frees beyond the flow table
//! `approx_state_bytes` accounts for, its length what the crash reports as
//! lost; a series is what dropping its report frees.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use rlir::plane::{MeasurementPlane, PlaneConfig, TapPoint, TapSpec, TruthRef};
use rlir_net::packet::{Packet, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
use rlir_sim::{Hop, HopEvent, HopKind, HopSink};
use std::net::Ipv4Addr;

const TAPS: usize = 16;
/// Epochs of traffic; the closing references land in one more.
const EPOCHS: u64 = 33;
const EPOCH_NS: u64 = 100_000;
/// Regulars in one reference interval of a tap's burst epoch (tap `t`
/// bursts in epochs `t`, `t + TAPS`, …), and in any other.
const BURST: u64 = 1_000;
const CALM: u64 = 8;
/// Regulars every tap is left holding after its last reference.
const TRAILING: u64 = 3;
/// An upper bound on a pending regular in the receiver: observation time,
/// 5-tuple, epoch flag and truth.
const PENDING_MAX: usize = 48;
/// An epoch's row of counters, and the estimate/truth moments of an epoch
/// with an estimate.
const EPOCH_ROW: usize = 40;
const EPOCH_MOMENTS: usize = 80;

fn flow(tap: usize) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, tap as u8),
        4000,
        Ipv4Addr::new(10, 9, 0, 1),
        80,
    )
}

/// Deliver a packet that crossed `tap`'s node at `at`, the watermark on
/// its heels.
fn feed(plane: &mut MeasurementPlane<'_>, tap: usize, at: u64, packet: &Packet) {
    let at = SimTime::from_nanos(at);
    plane.on_watermark(at);
    plane.on_hop(&HopEvent {
        kind: HopKind::Deliver,
        node: 1_000,
        at,
        packet,
        injected_node: 1_000,
        injected_at: packet.created_at,
        hops: &[Hop {
            node: tap,
            port: 0,
            arrived: at,
            departed: at,
        }],
    });
}

/// Σ length × size × 9/8 plus 8 elements a tap: what the growth rule
/// allows.
fn allowed(len: usize, size: usize) -> usize {
    len * size * 9 / 8 + TAPS * 8 * size
}

#[test]
fn epoch_series_and_interpolation_buffers_hold_what_they_use() {
    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        reorder_window: SimDuration::from_micros(10),
        epoch: Some(SimDuration::from_nanos(EPOCH_NS)),
        ..PlaneConfig::default()
    });
    for tap in 0..TAPS {
        let mut spec = TapSpec::new(format!("t{tap}"), TapPoint::NodeArrival(tap), SenderId(1));
        spec.delivered_only = true;
        spec.truth = TruthRef::SinceInjection;
        plane.attach(spec);
    }
    let mut id = 0u64;
    let mut next = |plane: &mut MeasurementPlane<'_>, tap: usize, at: u64, reference: bool| {
        id += 1;
        let sent = SimTime::from_nanos(at - 500);
        let packet = if reference {
            Packet::reference(id, flow(99), SenderId(1), id as u32, sent)
        } else {
            Packet::regular(id, flow(tap), 700, sent)
        };
        feed(plane, tap, at, &packet);
    };
    // Every epoch, every tap a reference and then its regulars, 50 ns apart;
    // the next epoch's reference closes the interval.
    for epoch in 0..=EPOCHS {
        let mut at = epoch * EPOCH_NS + 1_000;
        for tap in 0..TAPS {
            next(&mut plane, tap, at, true);
            let regulars = match epoch {
                EPOCHS => TRAILING,
                e if e % TAPS as u64 == tap as u64 => BURST,
                _ => CALM,
            };
            for _ in 0..regulars {
                at += 50;
                next(&mut plane, tap, at, false);
            }
            at += 50;
        }
    }
    // Flush everything: what is left in the receivers is the trailing
    // regulars.
    plane.on_watermark(SimTime::from_nanos((EPOCHS + 2) * EPOCH_NS));

    let mut buffers = 0;
    for tap in 0..TAPS {
        assert_eq!(plane.pending(tap), 0);
        let (live, state) = (counting_alloc::live(), plane.approx_state_bytes());
        plane.tap_down(SimTime::ZERO, tap);
        let flows = state - plane.approx_state_bytes();
        buffers += live - counting_alloc::live() - flows;
    }
    let mut rep = plane.finish();
    let buffered: u64 = rep.taps.iter().map(|t| t.lost_window_obs).sum();
    assert_eq!(buffered, TAPS as u64 * TRAILING);
    let allowed_buffers = allowed(buffered as usize, PENDING_MAX);
    assert!(
        buffers <= allowed_buffers,
        "interpolation buffers hold {buffers} B for {buffered} pending regulars, \
         over {allowed_buffers} B"
    );

    let snapshots: usize = rep.taps.iter().map(|t| t.report.epochs.len()).sum();
    assert_eq!(snapshots, TAPS * (EPOCHS as usize + 1));
    let estimated: usize = rep
        .taps
        .iter()
        .map(|t| t.report.epochs.iter().filter(|e| e.estimated > 0).count())
        .sum();
    assert_eq!(
        estimated,
        TAPS * EPOCHS as usize,
        "the trailing epoch has none"
    );
    let before = counting_alloc::live();
    for tap in &mut rep.taps {
        drop(std::mem::take(&mut tap.report.epochs));
    }
    let series = before - counting_alloc::live();
    let allowed_series = allowed(snapshots, EPOCH_ROW) + allowed(estimated, EPOCH_MOMENTS);
    assert!(
        series <= allowed_series,
        "epoch series hold {series} B for {snapshots} epochs ({estimated} estimated), \
         over {allowed_series} B"
    );
}
