//! Tap crash/recovery: scripted `TapDown`/`TapUp` faults against the
//! fat-tree measurement plane.
//!
//! A downed tap discards its reorder run and cold-resets its receiver
//! (flow table included); everything destroyed (plus every
//! crossing while down) is accounted in `lost_window_obs`, and after
//! `TapUp` estimation resumes at the next epoch boundary so the restarted
//! instance produces clean whole-epoch snapshots. These tests pin the
//! accounting, the cross-window agreement (the default reorder window and
//! a window wider than the run absorb the same outages and recover the
//! same epochs; the wide window's O(run) backlog loses more), the
//! sharded-engine digest match under tap faults, and that an outage leaves
//! no state behind (peaks no worse than the fault-free run).

use rlir::experiment::{run_fattree_faulted, FatTreeExpConfig, FatTreeOutcome};
use rlir_net::time::{SimDuration, SimTime};
use rlir_rli::{EpochSeries, PolicyKind};
use rlir_sim::{FaultEvent, FaultKind, FaultScript};
use rlir_topo::FatTree;

fn cfg(seed: u64) -> FatTreeExpConfig {
    let mut cfg = FatTreeExpConfig::paper(seed, SimDuration::from_millis(30));
    cfg.policy = PolicyKind::Static { n: 30 };
    cfg.plane.epoch = Some(SimDuration::from_millis(1));
    cfg
}

/// Crash the destination-ToR taps at 12 ms, recover at 20 ms.
fn outage_script(cfg: &FatTreeExpConfig) -> (FaultScript, usize) {
    let tree = FatTree::new(cfg.k, cfg.hash);
    let node = cfg.dst_tor(&tree);
    let script = FaultScript::new(vec![
        FaultEvent {
            at: SimTime::from_nanos(12_000_000),
            kind: FaultKind::TapDown { node },
        },
        FaultEvent {
            at: SimTime::from_nanos(20_000_000),
            kind: FaultKind::TapUp { node },
        },
    ]);
    (script, node)
}

fn fold(h: u64, bits: u64) -> u64 {
    h.rotate_left(7) ^ bits.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn digest(out: &FatTreeOutcome) -> u64 {
    let mut h = 0u64;
    h = fold(h, out.measured_delivered);
    h = fold(h, out.lost_window_obs);
    h = fold(h, out.recovered_epochs);
    h = fold(h, out.tap_outages);
    h = fold(h, out.seg1_errors.len() as u64);
    h = out
        .seg1_errors
        .iter()
        .chain(&out.seg2_errors)
        .fold(h, |h, v| fold(h, v.to_bits()));
    h
}

#[test]
fn outage_is_absorbed_and_accounted() {
    let c = cfg(29);
    let (script, _) = outage_script(&c);
    let clean = run_fattree_faulted(&c, None, None);
    let run = run_fattree_faulted(&c, Some(&script), None);

    assert_eq!(clean.outcome.tap_outages, 0);
    assert_eq!(clean.outcome.lost_window_obs, 0);
    assert!(run.outcome.tap_outages > 0, "no tap went down");
    assert!(
        run.outcome.lost_window_obs > 0,
        "an 8 ms outage at the busiest node lost nothing"
    );
    assert!(
        run.outcome.recovered_epochs > 0,
        "no epochs were produced after recovery"
    );
    // The crash frees state, it never leaks: the faulted run's plane
    // peaks can't exceed the fault-free run's (engine slots likewise).
    assert!(
        run.outcome.peak_pending_total <= clean.outcome.peak_pending_total,
        "outage grew the pending peak: {} > {}",
        run.outcome.peak_pending_total,
        clean.outcome.peak_pending_total
    );
    assert!(run.peak_live_slots <= clean.peak_live_slots);
    // Recovery is epoch-aligned: post-recovery epochs resume at-or-after
    // the TapUp boundary (20 ms / 1 ms epochs = epoch 20), so each downed
    // tap can recover at most the 10 whole epochs remaining in the run
    // plus the final partial epoch flushed at shutdown.
    assert!(
        run.outcome.recovered_epochs <= 11 * run.outcome.tap_outages,
        "more recovered epochs than the post-recovery span holds"
    );
}

#[test]
fn drains_agree_on_what_an_outage_destroys() {
    let base = cfg(31);
    let (script, _) = outage_script(&base);
    let streaming = run_fattree_faulted(&base, Some(&script), None).outcome;
    let mut oracle_cfg = base.clone();
    oracle_cfg.plane.reorder_window = SimDuration::MAX;
    let oracle = run_fattree_faulted(&oracle_cfg, Some(&script), None).outcome;

    // One reorder run, drained at two widths: both see the same outages
    // and the same recoveries.
    assert_eq!(streaming.late, 0, "window must cover the lag");
    assert_eq!(streaming.tap_outages, oracle.tap_outages);
    assert_eq!(streaming.recovered_epochs, oracle.recovered_epochs);
    // Both lose every crossing while down and before the resume
    // boundary; at the crash itself the wide window's run holds
    // everything since t = 0 where the default window holds only its tail.
    assert!(
        oracle.lost_window_obs > streaming.lost_window_obs,
        "oracle lost {} <= streaming {}",
        oracle.lost_window_obs,
        streaming.lost_window_obs
    );
    // From the recovery boundary on (TapUp at 20 ms = epoch 20) the two
    // cold-restarted instances are fed the identical sequence: every
    // tap's epoch series agrees bit for bit, crashed or not.
    let tail = |series: &EpochSeries| {
        series
            .iter()
            .filter(|e| e.epoch >= 20)
            .fold(0u64, |mut h, e| {
                for bits in [
                    e.epoch,
                    e.refs_accepted,
                    e.regulars_seen,
                    e.estimated,
                    e.unestimated,
                    e.est_mean().unwrap_or(f64::NAN).to_bits(),
                    e.true_mean().unwrap_or(f64::NAN).to_bits(),
                ] {
                    h = fold(h, bits);
                }
                h
            })
    };
    assert_eq!(streaming.segment_epochs.len(), oracle.segment_epochs.len());
    for ((name, s), (_, o)) in streaming.segment_epochs.iter().zip(&oracle.segment_epochs) {
        assert_eq!(tail(s), tail(o), "{name}: post-recovery epochs diverged");
    }
}

#[test]
fn shard_count_is_inert_under_tap_faults() {
    // The sharded engine's contract is that shard count is a pure
    // performance knob (see `crates/sim/src/shard.rs`). Tap faults mutate
    // plane state in-stream, so they must not break that identity.
    let base = cfg(37);
    let (script, _) = outage_script(&base);
    let s1 = run_fattree_faulted(&base, Some(&script), None);
    for shards in [2usize, 4] {
        let mut many = base.clone();
        many.shards = shards;
        let sn = run_fattree_faulted(&many, Some(&script), None);
        assert_eq!(
            digest(&s1.outcome),
            digest(&sn.outcome),
            "tap faults broke shard determinism at {shards} shards"
        );
        assert_eq!(s1.outcome.lost_window_obs, sn.outcome.lost_window_obs);
    }
}

#[test]
fn back_to_back_outages_accumulate() {
    let c = cfg(41);
    let tree = FatTree::new(c.k, c.hash);
    let node = c.dst_tor(&tree);
    let mk = |ms_down: u64, ms_up: u64| {
        [
            FaultEvent {
                at: SimTime::from_nanos(ms_down * 1_000_000),
                kind: FaultKind::TapDown { node },
            },
            FaultEvent {
                at: SimTime::from_nanos(ms_up * 1_000_000),
                kind: FaultKind::TapUp { node },
            },
        ]
    };
    let one = FaultScript::new(mk(8, 12).to_vec());
    let two = FaultScript::new(mk(8, 12).iter().chain(&mk(18, 22)).cloned().collect());
    let r1 = run_fattree_faulted(&c, Some(&one), None);
    let r2 = run_fattree_faulted(&c, Some(&two), None);
    assert_eq!(r2.outcome.tap_outages, 2 * r1.outcome.tap_outages);
    assert!(
        r2.outcome.lost_window_obs > r1.outcome.lost_window_obs,
        "a second outage lost nothing more"
    );
}
