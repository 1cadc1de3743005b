//! Flat memory under continuous operation: the engine and the measurement
//! plane hold O(in-flight) state whatever the run length.
//!
//! The k = 4 fat-tree RLIR experiment (measured + background load, full tap
//! plane, no epochs, so nothing accumulates per epoch) runs at 30 ms and at
//! five times that. The slab's `peak_live_slots` is bounded by concurrent
//! packets and the plane's `peak_pending_total` by the reorder window and
//! the global pending budget, so the longer run's peaks must stay within
//! 1.5× the shorter run's plus a small absolute allowance; linear growth
//! blows through that. The pending peak of an *unbounded* buffer creeps
//! with run length (a longer run samples rarer bursts), which is why the
//! budget is on: overflow regulars are shed at the offering tap.
//!
//! Both runs also crash the destination-ToR tap (the busiest: every
//! measured flow terminates there) at 40 % of their duration and recover it
//! cold at 60 %, so the gate also proves an outage leaves no memory behind.

use rlir::experiment::{run_fattree_faulted, FatTreeExpConfig};
use rlir_net::time::{SimDuration, SimTime};
use rlir_sim::{FaultEvent, FaultKind, FaultScript};
use rlir_topo::FatTree;

/// `(peak_live_slots, peak_pending_total, tap_outages)` of one run of `ms`.
fn soak(ms: u64) -> (usize, usize, u64) {
    let mut cfg = FatTreeExpConfig::paper(0x50AC, SimDuration::from_millis(ms));
    cfg.plane.epoch = None;
    cfg.plane.pending_budget = Some(8_192);
    let tree = FatTree::new(cfg.k, cfg.hash);
    let node = cfg.dst_tor(&tree);
    let ns = SimDuration::from_millis(ms).as_nanos();
    let script = FaultScript::new(vec![
        FaultEvent {
            at: SimTime::from_nanos(ns * 2 / 5),
            kind: FaultKind::TapDown { node },
        },
        FaultEvent {
            at: SimTime::from_nanos(ns * 3 / 5),
            kind: FaultKind::TapUp { node },
        },
    ]);
    let run = run_fattree_faulted(&cfg, Some(&script), None);
    (
        run.peak_live_slots,
        run.outcome.peak_pending_total,
        run.outcome.tap_outages,
    )
}

#[test]
fn peaks_do_not_grow_with_run_length_across_a_tap_outage() {
    let (short, long) = (soak(30), soak(150));
    let bound = |b: usize| (b as f64 * 1.5) as usize + 16;
    assert!(
        short.2 > 0 && long.2 > 0,
        "an outage did not fire: {short:?} {long:?}"
    );
    assert!(
        long.0 <= bound(short.0),
        "peak_live_slots grew {} -> {}",
        short.0,
        long.0
    );
    assert!(
        long.1 <= bound(short.1),
        "peak_pending_total grew {} -> {}",
        short.1,
        long.1
    );
}
