//! `rlir::CapturePair` against the matcher it replaced
//! (`tests/support/capture_oracle.rs`: identity map, eviction FIFO and a
//! key → row hash map).
//!
//! The pair keeps one stamp per pending identity and books a stamp
//! `expired` where the FIFO would have evicted it: when a B sighting or a
//! re-stamp finds it past `watermark − timeout`, or when a sweep removes
//! it. Both are fed the same random hop streams — identities reused inside
//! and across flights (16-bit ident wrap), packets dropped between the
//! points, watermark jumps past the timeout, events neither point sees —
//! and must report the same counters and rows.
//!
//! With point A a port departure whose stamps come out of time order, the
//! FIFO can hold an old stamp behind a newer front and evict it late; the
//! pair does not wait. The oracle tallies those stamps by what became of
//! them, and the test checks that they are the whole difference: each late
//! match is an expiry and an unmatched B sighting in the pair, each late
//! re-stamp an expiry instead of an ambiguity, each late residual an
//! expiry.

#[path = "support/capture_oracle.rs"]
mod capture_oracle;

use capture_oracle::{FifoCapturePair, OracleReport};
use proptest::prelude::*;
use rlir::capture::{CaptureReport, DEFAULT_CAPTURE_TIMEOUT};
use rlir::{CapturePair, TapPoint};
use rlir_net::packet::Packet;
use rlir_net::time::SimTime;
use rlir_net::FlowKey;
use rlir_sim::{HopEvent, HopKind, HopSink};
use std::net::Ipv4Addr;

const T: u64 = DEFAULT_CAPTURE_TIMEOUT.as_nanos();

fn flow(i: u8) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, i),
        1000,
        Ipv4Addr::new(10, 1, 0, 1),
        80,
    )
}

/// Both matchers, fed every event and watermark alike.
struct Both {
    pair: CapturePair,
    oracle: FifoCapturePair,
    watermark: u64,
}

impl Both {
    fn new(a: TapPoint) -> Self {
        let b = TapPoint::Delivery(1);
        Both {
            pair: CapturePair::new(a, b),
            oracle: FifoCapturePair::new(a, b, DEFAULT_CAPTURE_TIMEOUT),
            watermark: 0,
        }
    }

    /// Move the watermark `by` (at least 1) nanoseconds forward.
    fn advance(&mut self, by: u64) {
        self.watermark += by.max(1);
        let w = SimTime::from_nanos(self.watermark);
        self.pair.on_watermark(w);
        self.oracle.on_watermark(w);
    }

    /// One hop event `at` ≥ the watermark, as the engine's contract asks.
    fn hop(&mut self, kind: HopKind, node: usize, at: u64, packet: &Packet) {
        assert!(at >= self.watermark);
        let ev = HopEvent {
            kind,
            node,
            at: SimTime::from_nanos(at),
            packet,
            injected_node: 0,
            injected_at: SimTime::ZERO,
            hops: &[],
        };
        self.pair.on_hop(&ev);
        self.oracle.on_hop(&ev);
    }

    fn finish(self) -> (CaptureReport, OracleReport) {
        (self.pair.finish(), self.oracle.finish())
    }
}

/// The pair's report is the oracle's with its late stamps booked on time.
fn named_difference(new: &CaptureReport, old: &OracleReport) -> Result<(), TestCaseError> {
    prop_assert_eq!(new.matched, old.matched - old.late_matched);
    prop_assert_eq!(new.unmatched_b, old.unmatched_b + old.late_matched);
    prop_assert_eq!(new.ambiguous, old.ambiguous - old.late_restamped);
    let late = old.late_matched + old.late_restamped + old.late_residual;
    prop_assert_eq!(new.expired, old.expired + late);
    prop_assert_eq!(new.residual, old.residual - old.late_residual);
    // Rows: a flow loses exactly its late matches, and keeps its extremes
    // when it had none.
    let mut rows = new.flows.iter();
    for &(key, [count, sum, min, max]) in &old.flows {
        let (late_n, late_sum) = old
            .late_flows
            .iter()
            .find(|(k, _)| *k == key)
            .map_or((0, 0), |&(_, late)| late);
        if count == late_n {
            continue;
        }
        let &(got, f) = rows.next().expect("a row the oracle has");
        prop_assert_eq!(got, key);
        prop_assert_eq!((f.count, f.sum_ns), (count - late_n, sum - late_sum));
        if late_n == 0 {
            prop_assert_eq!((f.min_ns, f.max_ns), (min, max));
        }
    }
    prop_assert!(rows.next().is_none(), "a row the oracle lacks");
    Ok(())
}

/// One step of a stream: `(op, flow, ident, small, big)`.
type Step = (u8, u8, u16, u64, u64);

/// Feed `steps` to both matchers. Point A is the arrival at switch 0
/// (stamps in time order) or, with `disorder`, its port 0's departure,
/// stamped up to one timeout ahead of the watermark in any order.
fn run(steps: &[Step], disorder: bool) -> (CaptureReport, OracleReport) {
    let a = if disorder {
        TapPoint::PortDeparture(0, 0)
    } else {
        TapPoint::NodeArrival(0)
    };
    let a_kind = if disorder {
        HopKind::Dequeue {
            port: 0,
            arrived: SimTime::ZERO,
        }
    } else {
        HopKind::Arrive
    };
    let mut both = Both::new(a);
    both.advance(1);
    let mut last_a = 0;
    for &(op, f, ident, small, big) in steps {
        // Three ids per ident: the wire identity wraps at 2^16.
        let id = u64::from(ident) + ((small % 3) << 16);
        let packet = Packet::regular(id, flow(f), 1000, SimTime::ZERO);
        let now = both.watermark;
        match op {
            0..=3 => {
                last_a = if disorder { now + big / 2 } else { now };
                both.hop(a_kind, 0, last_a, &packet);
            }
            4..=6 => both.hop(HopKind::Deliver, 1, now + small, &packet),
            7 => both.advance(small),
            8 => both.advance(big),
            // The horizon to one before, onto or one past the last A stamp.
            9 => both.advance((last_a + T + small % 3).saturating_sub(now + 1)),
            // Seen by neither point.
            _ => both.hop(HopKind::Enqueue { port: 1 }, 0, now + small, &packet),
        }
    }
    both.finish()
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..11, 0u8..4, 0u16..6, 0u64..2_000, 0..2 * T), 0..400)
}

proptest! {
    #[test]
    fn in_order_stamps_match_the_fifo_exactly(steps in steps()) {
        let (new, old) = run(&steps, false);
        prop_assert_eq!(
            (old.late_matched, old.late_restamped, old.late_residual),
            (0, 0, 0),
            "a FIFO of in-order stamps is never late"
        );
        named_difference(&new, &old)?;
    }

    #[test]
    fn out_of_order_stamps_differ_by_the_fifos_late_evictions(steps in steps()) {
        let (new, old) = run(&steps, true);
        named_difference(&new, &old)?;
    }
}

#[test]
fn a_stamp_behind_a_newer_front_is_late_in_the_fifo_only() {
    let packet = |id| Packet::regular(id, flow(1), 1000, SimTime::ZERO);
    let departure = HopKind::Dequeue {
        port: 0,
        arrived: SimTime::ZERO,
    };
    let mut both = Both::new(TapPoint::PortDeparture(0, 0));
    both.advance(1);
    // The FIFO holds packet 1's stamp (1 000) behind packet 0's (1 000 000).
    both.hop(departure, 0, 1_000_000, &packet(0));
    both.hop(departure, 0, 1_000, &packet(1));
    both.hop(departure, 0, 2_000, &packet(2));
    both.hop(departure, 0, 3_000, &packet(3));
    // The horizon passes 1 000, 2 000 and 3 000, not the front.
    both.advance(T + 5_000);
    let now = both.watermark;
    both.hop(HopKind::Deliver, 1, now, &packet(1));
    both.hop(departure, 0, now, &packet(2));
    let (new, old) = both.finish();
    assert_eq!(
        (old.late_matched, old.late_restamped, old.late_residual),
        (1, 1, 1)
    );
    assert_eq!((old.matched, old.ambiguous, old.expired), (1, 1, 0));
    assert_eq!((new.matched, new.ambiguous, new.expired), (0, 0, 3));
    assert_eq!((old.residual, new.residual), (3, 2));
    named_difference(&new, &old).unwrap();
}
