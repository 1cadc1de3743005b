//! What the capture pair costs the allocator, under the counting
//! `#[global_allocator]` of `tests/support/counting_alloc.rs`.
//!
//! A flow is one 48-byte row — its key and its `FlowCapture` — in a vector
//! grown by `rlir_rli::growth` (at most an eighth spare), found through an
//! 8-byte `SlotIndex` cell at a load of 3/8 to 3/4: at most
//! 54 + 21⅓ bytes, whatever the flow count. A packet is one pending stamp
//! from its point-A sighting to its point-B sighting; a stamp that never
//! reaches B is removed by the sweep at most two timeouts after it was
//! taken. So the pending table holds the packets in flight plus the drops
//! of two timeouts — not a FIFO entry for every packet of a timeout, which
//! at a packet a microsecond and the 50 ms default is 50 000 entries
//! (2.4 MB at its peak where this bound allows 0.18 MB).

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use rlir::capture::DEFAULT_CAPTURE_TIMEOUT;
use rlir::{CapturePair, TapPoint};
use rlir_net::packet::Packet;
use rlir_net::time::SimTime;
use rlir_net::FlowKey;
use rlir_sim::{HopEvent, HopKind, HopSink};
use std::net::Ipv4Addr;

/// Bound on one flow's bytes: a 48-byte row and an eighth of one spare,
/// and an 8-byte cell at 3/8 load.
const FLOW_BYTES: usize = 48 + 6 + 22;
/// Bound on one pending stamp's bytes. A bucket is a 24-byte
/// `(key, stamp)` and a control byte. Removals leave tombstones, so the
/// table can fill with live stamps at 7/16 of its buckets and double: up to
/// 32/7 buckets a stamp (114 B), plus the half-size table it leaves while
/// it doubles (171 B).
const STAMP_BYTES: usize = 176;
/// What neither bound covers: the smallest allocations and rounding.
const SLACK: usize = 1024;

const T: u64 = DEFAULT_CAPTURE_TIMEOUT.as_nanos();

fn flow(i: u32) -> FlowKey {
    let [a, b, c, d] = i.to_be_bytes();
    FlowKey::tcp(
        Ipv4Addr::new(10, a, b, c),
        1000 + u16::from(d),
        Ipv4Addr::new(10, 255, 0, 1),
        80,
    )
}

fn pair() -> CapturePair {
    CapturePair::new(TapPoint::NodeArrival(0), TapPoint::Delivery(1))
}

fn hop(pair: &mut CapturePair, kind: HopKind, node: usize, at: u64, packet: &Packet) {
    pair.on_hop(&HopEvent {
        kind,
        node,
        at: SimTime::from_nanos(at),
        packet,
        injected_node: 0,
        injected_at: SimTime::ZERO,
        hops: &[],
    });
}

#[test]
fn a_flow_costs_at_most_a_row_and_a_cell() {
    // 6 145 flows is one past a full index of 8 192 cells: the index has
    // just doubled and is at its emptiest; 12 288 fills that index to 3/4.
    for flows in [1_000u32, 6_145, 12_288, 40_000] {
        let before = counting_alloc::live();
        let mut pair = pair();
        for i in 0..flows {
            let at = 1 + u64::from(i) * 1_000;
            pair.on_watermark(SimTime::from_nanos(at));
            let packet = Packet::regular(u64::from(i), flow(i), 1000, SimTime::ZERO);
            hop(&mut pair, HopKind::Arrive, 0, at, &packet);
            hop(&mut pair, HopKind::Deliver, 1, at + 500, &packet);
        }
        let held = counting_alloc::live() - before;
        let bound = flows as usize * FLOW_BYTES + SLACK;
        assert!(
            held <= bound,
            "{flows} flows hold {held} B ({:.1} B a flow), bound {bound} B",
            held as f64 / f64::from(flows)
        );
        let report = pair.finish();
        assert_eq!(
            (report.matched, report.flows.len()),
            (flows.into(), flows as usize)
        );
    }
}

#[test]
fn pending_holds_flights_and_drops_not_timeout_times_rate() {
    const GAP_NS: u64 = 1_000;
    /// Packets between the points at once.
    const IN_FLIGHT: u64 = 10;
    /// One packet in `DROP_EVERY` never reaches point B.
    const DROP_EVERY: u64 = 100;
    /// Prime, so no identity comes round again within the run: a dropped
    /// stamp leaves only by the sweep, never by a re-stamp.
    const FLOWS: u32 = 61;
    let packets = 4 * T / GAP_NS;
    let packet = |i: u64| {
        let f = (i % u64::from(FLOWS)) as u32;
        Packet::regular(i, flow(f), 1000, SimTime::ZERO)
    };
    let before = counting_alloc::reset_peak();
    let mut pair = pair();
    for i in 0..packets {
        // Packet `i` reaches A as packet `i - IN_FLIGHT` reaches B.
        let at = 1 + i * GAP_NS;
        pair.on_watermark(SimTime::from_nanos(at));
        hop(&mut pair, HopKind::Arrive, 0, at, &packet(i));
        if let Some(j) = i.checked_sub(IN_FLIGHT).filter(|j| j % DROP_EVERY != 0) {
            hop(&mut pair, HopKind::Deliver, 1, at, &packet(j));
        }
    }
    let peak = counting_alloc::peak() - before;
    let report = pair.finish();
    let delivered = (0..packets - IN_FLIGHT).filter(|j| j % DROP_EVERY != 0);
    assert_eq!(report.matched, delivered.count() as u64);
    // Held at once: the flights and the drops of two timeouts.
    let stamps = IN_FLIGHT + 2 * T / GAP_NS / DROP_EVERY + 1;
    assert!(
        report.peak_pending as u64 <= stamps,
        "peak pending {} > {stamps}",
        report.peak_pending
    );
    let bound = FLOWS as usize * FLOW_BYTES + stamps as usize * STAMP_BYTES + SLACK;
    assert!(
        peak <= bound,
        "{packets} packets at one a microsecond peaked at {peak} B, bound {bound} B"
    );
}
