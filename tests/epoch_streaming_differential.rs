//! The default reorder window vs a window wider than the run.
//!
//! The measurement plane feeds each buffered tap's receiver through a
//! bounded reorder window driven by the engine's event-time watermark:
//! online, in observation-time order, with O(window) peak memory. Set the
//! window to `SimDuration::MAX` and nothing is fed before `finish()`,
//! which sorts each tap's whole run once — the same admission, the same
//! books, the order a whole-run sort gives by construction.
//!
//! These tests pin the two widths **byte-identical** (every float compared
//! via `to_bits` inside the digests) on the fat-tree harness, in a calm
//! and a tie- and drop-heavy (synchronized bursts, saturated bottleneck)
//! regime, and assert the memory claim that justifies the window: peak
//! buffered observations scale with the window, not with the run length.
//! The two-hop tandem's tap is ordered — switch 2's one FIFO port delivers
//! in time order — and is held to never seeing an observation late.

use rlir::experiment::{run_fattree, run_two_hop, FatTreeExpConfig, FatTreeOutcome, TwoHopConfig};
use rlir_net::time::SimDuration;
use rlir_rli::{EpochSeries, FlowTable, PolicyKind};
use rlir_trace::BurstShape;

fn fold(h: u64, bits: u64) -> u64 {
    h.rotate_left(7) ^ bits.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Digest a per-flow table: every row's flow, counts and moments, bit for
/// bit.
fn digest_flows(mut h: u64, flows: &FlowTable) -> u64 {
    h = fold(h, flows.flow_count() as u64);
    h = fold(h, flows.estimate_count());
    for row in flows.report(1) {
        h = fold(h, row.packets);
        h = fold(h, row.est_mean.to_bits());
        h = fold(h, row.true_mean.unwrap_or(f64::NAN).to_bits());
        h = fold(h, row.est_std.unwrap_or(f64::NAN).to_bits());
        h = fold(h, row.true_std.unwrap_or(f64::NAN).to_bits());
    }
    h
}

/// Digest an epoch series: counters and moments per epoch.
fn digest_epochs(mut h: u64, epochs: &EpochSeries) -> u64 {
    h = fold(h, epochs.len() as u64);
    for e in epochs {
        h = fold(h, e.epoch);
        h = fold(h, e.regulars_seen);
        h = fold(h, e.estimated);
        h = fold(h, e.unestimated);
        h = fold(h, e.refs_accepted);
        h = fold(h, e.dropped_after_metering);
        h = fold(h, e.est_mean().unwrap_or(f64::NAN).to_bits());
        h = fold(h, e.true_mean().unwrap_or(f64::NAN).to_bits());
    }
    h
}

fn digest_fattree(out: &FatTreeOutcome) -> u64 {
    let mut h = 0u64;
    h = digest_flows(h, &out.seg1_flows);
    h = digest_flows(h, &out.seg2_flows);
    for errs in [&out.seg1_errors, &out.seg2_errors] {
        h = fold(h, errs.len() as u64);
        h = errs.iter().fold(h, |h, e| fold(h, e.to_bits()));
    }
    for s in &out.segments {
        h = s.name.bytes().fold(h, |h, b| fold(h, b as u64));
        h = fold(h, s.est_mean_ns.to_bits());
        h = fold(h, s.true_mean_ns.to_bits());
        h = fold(h, s.packets);
    }
    for (name, series) in &out.segment_epochs {
        h = name.bytes().fold(h, |h, b| fold(h, b as u64));
        h = digest_epochs(h, series);
    }
    h = digest_epochs(h, &out.seg1_epochs);
    h = digest_epochs(h, &out.seg2_epochs);
    h
}

/// A drop- and tie-heavy fat-tree regime: synchronized bursts overload the
/// destination downlink (equal-timestamp packet clusters, queue drops).
fn stressed_fattree(seed: u64) -> FatTreeExpConfig {
    let mut cfg = FatTreeExpConfig::paper(seed, SimDuration::from_millis(20));
    cfg.policy = PolicyKind::Static { n: 30 };
    cfg.n_src_tors = 4;
    cfg.measured_load = 0.30;
    cfg.burst = Some(BurstShape {
        period: SimDuration::from_millis(5),
        duty: 0.2,
    });
    cfg
}

/// `cfg` with a reorder window wider than any run.
fn whole_run(cfg: &FatTreeExpConfig) -> FatTreeExpConfig {
    let mut wide = cfg.clone();
    wide.plane.reorder_window = SimDuration::MAX;
    wide
}

#[test]
fn fattree_streaming_matches_a_window_wider_than_the_run() {
    let mut calm = FatTreeExpConfig::paper(11, SimDuration::from_millis(20));
    calm.policy = PolicyKind::Static { n: 30 };
    for (label, base) in [("calm", calm), ("burst+drops", stressed_fattree(17))] {
        let streaming = run_fattree(&base);
        let oracle = run_fattree(&whole_run(&base));
        assert_eq!(streaming.late, 0, "{label}: window must cover the lag");
        assert_eq!(
            digest_fattree(&streaming),
            digest_fattree(&oracle),
            "{label}: the default window drifted from the whole-run sort"
        );
        assert!(
            streaming.peak_pending < oracle.peak_pending,
            "{label}: streaming peak {} not below the whole run's {}",
            streaming.peak_pending,
            oracle.peak_pending
        );
    }
}

#[test]
fn two_hop_ordered_tap_is_never_late() {
    // High utilization (tie-prone dense traffic) and an overloaded regime
    // (reference and regular drops at the bottleneck).
    for (label, target) in [("93%", 0.93), ("overload", 1.02)] {
        let mut cfg = TwoHopConfig::paper(7, SimDuration::from_millis(60));
        cfg.policy = PolicyKind::Static { n: 50 };
        cfg.cross = rlir::experiment::CrossSpec::Uniform {
            target_utilization: target,
        };
        let out = run_two_hop(&cfg);
        assert!(out.receiver.estimated > 0, "{label}: nothing estimated");
        assert_eq!(out.late, 0, "{label}: switch 2 delivered out of order");
    }
}

#[test]
fn streaming_peak_memory_tracks_the_window_not_the_run() {
    // Triple the run length: the whole-run window's peak more than doubles
    // (O(run)); the default window's peak stays put (O(window)).
    let peak = |ms: u64, wide: bool| {
        let mut cfg = stressed_fattree(23);
        cfg.duration = SimDuration::from_millis(ms);
        if wide {
            cfg = whole_run(&cfg);
        }
        let out = run_fattree(&cfg);
        assert_eq!(out.late, 0);
        out.peak_pending
    };
    let (stream_short, stream_long) = (peak(15, false), peak(45, false));
    let (oracle_short, oracle_long) = (peak(15, true), peak(45, true));
    assert!(
        oracle_long as f64 > oracle_short as f64 * 2.0,
        "whole-run peak must scale with run length: {oracle_short} → {oracle_long}"
    );
    assert!(
        (stream_long as f64) < stream_short as f64 * 1.5,
        "streaming peak must not scale with run length: {stream_short} → {stream_long}"
    );
    assert!(
        stream_long * 3 < oracle_long,
        "streaming peak {stream_long} must sit far below the whole run's {oracle_long}"
    );
}
