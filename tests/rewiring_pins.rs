//! Output pins captured **before** each engine/plane rewiring.
//!
//! PR 3: the fat-tree, asymmetric and incast harnesses were rewired from
//! bespoke per-segment event queues onto the shared `MeasurementPlane` +
//! `HopSink` architecture; these digests assert the rewiring is
//! output-preserving bit for bit (f64s compared via `to_bits` inside the
//! digest). Captured at commit 4cd9b46 with `examples/pin_digest.rs`-style
//! folding.
//!
//! PR 5: the scenarios were rewired onto the arena-backed slab engine —
//! `fattree` (and transitively `incast`/`localize`) plus `drop_aware` onto
//! streamed deliveries, `asymmetric` unchanged on the tandem — and the
//! PR 3 digests above double as the slab-engine pins. The `localize` and
//! `drop_aware` digests below were captured at commit 7b636b0 (the PR 4
//! buffered engine) immediately before the swap.
//!
//! PR 26 (one engine, this commit's): the keyed core became the only
//! per-hop step, so the fat-tree scenarios run its same-instant order — a
//! queued arrival before an injection, queued arrivals by (injection
//! ordinal, hop) — instead of the sequential engine's (injection first,
//! then push sequence). That order is the only cause of the re-pin:
//! `fattree` 0xd787dd9172def65c / 0x913711e18efc6cb3 → 0xa1b6431af78ff6e5 /
//! 0x8297d70c7a20ee46, `incast` 0x93cab3421c902f82 → 0x423607e23afa1da2,
//! `localize` 0x590db8fa9b2c21a4 → 0xa5a1a6e3d2f87e49; `asymmetric` and
//! `drop_aware` do not move. Checked on scratch copies of the parent and
//! this commit: (1) this commit with the sequential tie rule swapped back
//! in reproduces all five old digests bit for bit; (2) with every
//! injection's timestamp jittered by 1–977 ns (hashed from its id, both
//! copies alike), which takes the structural same-switch ties — core
//! references injected at the exact instant of the arrival they follow —
//! from 1 081 to 66 per `fattree` run, parent and change agree on
//! `fattree` and `localize`, and at a 1 ms duration on all three; at
//! 300 µs `fattree` has no two units at one switch at one instant. (The
//! jittered 20 ms `incast` keeps ≈ 400 nanosecond-level coincidences at a
//! switch, and those are enough to move it.)
//!
//! The two-switch tandem then moved onto the same engine as a two-node
//! network, so a packet in flight from switch 1 that reaches switch 2 at
//! the nanosecond of a cross injection there is served first, where the
//! tandem's own merge compared packet ids (a reference's id sorts above
//! every cross id). That order is the only cause of the re-pin:
//! `asymmetric` 0xa8f1446e86042460 → 0x1a02788ff8ff564b — the old tandem
//! with its merge changed to serve in-flight packets first on equal times
//! gives the new digest bit for bit.

use rlir::experiment::{
    run_asymmetric, run_drop_aware, run_fattree, run_incast, run_localize, AsymmetricConfig,
    DropAwareConfig, FatTreeExpConfig, IncastConfig, LocalizeConfig,
};
use rlir::CoreDemux;
use rlir_exec::SweepRunner;
use rlir_net::time::SimDuration;
use rlir_rli::{EpochSeries, PolicyKind};

fn fold(h: u64, bits: u64) -> u64 {
    h.rotate_left(7) ^ bits.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn digest_f64s(h: u64, vals: &[f64]) -> u64 {
    vals.iter().fold(h, |h, v| fold(h, v.to_bits()))
}

fn fattree_digest(demux: CoreDemux) -> u64 {
    let mut cfg = FatTreeExpConfig::paper(11, SimDuration::from_millis(20));
    cfg.policy = PolicyKind::Static { n: 30 };
    cfg.demux = demux;
    let out = run_fattree(&cfg);
    let mut h = 0u64;
    h = fold(h, out.demux_total);
    h = fold(h, out.demux_correct);
    h = fold(h, out.demux_unassociated);
    h = fold(h, out.measured_delivered);
    h = fold(h, out.refs_emitted.0);
    h = fold(h, out.refs_emitted.1);
    h = fold(h, out.seg1_errors.len() as u64);
    h = digest_f64s(h, &out.seg1_errors);
    h = fold(h, out.seg2_errors.len() as u64);
    h = digest_f64s(h, &out.seg2_errors);
    h = fold(h, out.seg1_flows.flow_count() as u64);
    h = fold(h, out.seg1_flows.estimate_count());
    h = fold(h, out.seg2_flows.flow_count() as u64);
    h = fold(h, out.seg2_flows.estimate_count());
    h = fold(h, out.segments.len() as u64);
    for s in &out.segments {
        h = s.name.bytes().fold(h, |h, b| fold(h, b as u64));
        h = fold(h, s.est_mean_ns.to_bits());
        h = fold(h, s.true_mean_ns.to_bits());
        h = fold(h, s.packets);
    }
    h
}

#[test]
fn fattree_outputs_match_pre_rewiring_pins() {
    assert_eq!(
        fattree_digest(CoreDemux::ReverseEcmp),
        0xa1b6431af78ff6e5,
        "reverse-ECMP fat-tree output drifted from the pre-rewiring pin"
    );
    // Marking demuxes perfectly too, so it feeds the receivers identically.
    assert_eq!(fattree_digest(CoreDemux::Marking), 0xa1b6431af78ff6e5);
    assert_eq!(
        fattree_digest(CoreDemux::Naive),
        0x8297d70c7a20ee46,
        "naive-demux fat-tree output drifted from the pre-rewiring pin"
    );
}

#[test]
fn asymmetric_outputs_match_pre_rewiring_pin() {
    let mut cfg = AsymmetricConfig::paper(11, SimDuration::from_millis(30));
    cfg.policy = PolicyKind::Static { n: 50 };
    cfg.reverse_utilizations = vec![0.50, 0.93];
    let pts = run_asymmetric(&cfg, &SweepRunner::single());
    let mut h = 0u64;
    for p in &pts {
        h = digest_f64s(
            h,
            &[
                p.target_reverse_utilization,
                p.forward_utilization,
                p.reverse_utilization,
                p.forward_median_error,
                p.reverse_median_error,
                p.rtt_median_error,
                p.attribution_accuracy,
            ],
        );
        h = fold(h, p.paired_flows as u64);
    }
    assert_eq!(h, 0x1a02788ff8ff564b, "asymmetric output drifted");
}

fn digest_epochs(h: u64, epochs: &EpochSeries) -> u64 {
    epochs.iter().fold(h, |h, e| {
        let h = fold(h, e.epoch);
        let h = fold(h, e.estimated);
        let h = fold(h, e.unestimated);
        let h = fold(h, e.dropped_after_metering);
        digest_f64s(h, &[e.est_mean().unwrap_or(f64::NAN)])
    })
}

#[test]
fn drop_aware_outputs_match_pre_slab_engine_pin() {
    let mut cfg = DropAwareConfig::paper(31, SimDuration::from_millis(40));
    cfg.policy = PolicyKind::Static { n: 50 };
    cfg.offered_loads = vec![0.5, 1.1];
    let pts = run_drop_aware(&cfg, &SweepRunner::single());
    let mut h = 0u64;
    for p in &pts {
        h = fold(h, p.offered);
        h = fold(h, p.live_metered);
        h = fold(h, p.dropped_after_metering);
        h = fold(h, p.peak_pending as u64);
        h = digest_f64s(
            h,
            &[
                p.downstream_loss,
                p.upstream_loss,
                p.live_est_mean_ns,
                p.live_true_mean_ns,
                p.delivered_est_mean_ns,
                p.delivered_true_mean_ns,
                p.survivor_bias,
                p.live_rel_err,
            ],
        );
        h = digest_epochs(h, &p.epochs);
    }
    assert_eq!(
        h, 0x33c74fa91f53967e,
        "drop_aware output drifted across the slab-engine/streamed-delivery rewiring"
    );
}

#[test]
fn localize_outputs_match_pre_slab_engine_pin() {
    let mut cfg = LocalizeConfig::paper(23, SimDuration::from_millis(20));
    cfg.base.policy = PolicyKind::Static { n: 30 };
    cfg.utilizations = vec![0.05, 0.30];
    cfg.trials = 2;
    let rep = run_localize(&cfg, &SweepRunner::single());
    let mut h = 0u64;
    for p in &rep.points {
        h = fold(h, p.trials as u64);
        h = fold(h, p.correct as u64);
        h = fold(h, p.flagged as u64);
        h = fold(h, p.onsets as u64);
        h = digest_f64s(
            h,
            &[p.utilization, p.accuracy, p.mean_severity, p.mean_onset_ns],
        );
    }
    for t in &rep.trials {
        h = t.victim.bytes().fold(h, |h, b| fold(h, b as u64));
        h = t
            .flagged
            .as_deref()
            .unwrap_or("-")
            .bytes()
            .fold(h, |h, b| fold(h, b as u64));
        h = fold(h, t.correct as u64);
        h = fold(h, t.segments as u64);
        h = fold(h, t.onset_ns.map(|o| o + 1).unwrap_or(0));
        h = digest_f64s(h, &[t.severity]);
        h = digest_epochs(h, &t.victim_epochs);
    }
    assert_eq!(
        h, 0xa5a1a6e3d2f87e49,
        "localize output drifted across the slab-engine rewiring"
    );
}

#[test]
fn incast_outputs_match_pre_rewiring_pin() {
    let mut cfg = IncastConfig::paper(17, SimDuration::from_millis(20));
    cfg.base.policy = PolicyKind::Static { n: 30 };
    cfg.fan_in = vec![1, 4];
    let pts = run_incast(&cfg, &SweepRunner::single());
    let mut h = 0u64;
    for p in &pts {
        h = fold(h, p.fan_in as u64);
        h = digest_f64s(
            h,
            &[
                p.seg1_median_error,
                p.seg2_median_error,
                p.seg2_true_delay_us,
                p.demux_accuracy,
            ],
        );
        h = fold(h, p.measured_delivered);
        h = fold(h, p.refs_emitted);
    }
    assert_eq!(h, 0x423607e23afa1da2, "incast output drifted");
}
