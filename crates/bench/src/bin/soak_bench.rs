//! Flat-memory soak harness for continuous operation.
//!
//! The deployment story is RLI running indefinitely on live routers, so
//! the engine and the measurement plane must hold **O(in-flight) memory
//! regardless of run length**: the PR 5 slab keeps `peak_live_slots`
//! bounded by concurrent packets, and the PR 4/6 plane keeps pending
//! observations bounded by the reorder window (plus the global
//! `pending_budget` backstop). This binary proves it the blunt way: it
//! runs the k = 4 fat-tree RLIR experiment (measured + background load,
//! full tap plane, no epochs so nothing accumulates per-epoch) at a
//! geometric ladder of simulated durations — by default 1×, 10× and 100×
//! the 120 ms the scenarios use today — and **fails** (non-zero exit) if
//! any peak-memory counter at a longer duration exceeds the shortest
//! run's high-water mark by more than a slack factor. Wall-clock, event
//! and delivery counts are reported alongside, as JSON on stdout;
//! `scripts/soak_bench.sh` captures it into `BENCH_soak.json`.
//!
//! Every rung also carries a **mid-run tap outage**: the destination-ToR
//! tap crashes at 40% of the rung's duration and cold-recovers at 60%
//! (scaled per rung, so every run loses and rebuilds its state mid-soak).
//! The flatness gate therefore also proves that crash/recovery leaves no
//! memory behind — the cleared reorder run and flow table must not leak
//! into the peaks of the longer rungs.
//!
//! Knobs: `RLIR_SOAK_BASE_MS` (base simulated duration, default 120),
//! `RLIR_SOAK_MULTIPLIERS` (comma list, default `1,10,100`),
//! `RLIR_SOAK_SLACK` (allowed growth factor, default 1.5),
//! `RLIR_SOAK_SETTLE_MS` (baseline-rung settle floor, default 25),
//! `RLIR_SOAK_BUDGET` (global plane pending budget, default 8192),
//! `RLIR_SOAK_OUTAGE` (0 disables the tap-outage phase, default 1).

use rlir::experiment::{run_fattree_faulted, FatTreeExpConfig};
use rlir_net::time::{SimDuration, SimTime};
use rlir_sim::{FaultEvent, FaultKind, FaultScript};
use rlir_topo::FatTree;
use std::time::Instant;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn multipliers() -> Vec<u64> {
    std::env::var("RLIR_SOAK_MULTIPLIERS")
        .ok()
        .map(|v| v.split(',').filter_map(|m| m.trim().parse().ok()).collect())
        .filter(|v: &Vec<u64>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 10, 100])
}

struct SoakRow {
    multiplier: u64,
    sim_ms: u64,
    wall_ms: f64,
    events: u64,
    delivered: u64,
    peak_live_slots: usize,
    peak_pending_total: usize,
    peak_pending_tap: usize,
    shed: u64,
    late: u64,
    tap_outages: u64,
    lost_window_obs: u64,
}

fn main() {
    let base_ms = env_u64("RLIR_SOAK_BASE_MS", 120);
    let slack = env_f64("RLIR_SOAK_SLACK", 1.5);
    let budget = env_u64("RLIR_SOAK_BUDGET", 8_192) as usize;
    let outage = env_u64("RLIR_SOAK_OUTAGE", 1) != 0;
    let mults = multipliers();

    let mut rows: Vec<SoakRow> = Vec::new();
    for &m in &mults {
        let sim_ms = base_ms * m;
        let mut cfg = FatTreeExpConfig::paper(0x50AC, SimDuration::from_millis(sim_ms));
        // No epoch aggregation: per-epoch series are output data and grow
        // with run length by design; the soak measures what must NOT grow.
        cfg.epoch = None;
        // Graceful degradation under test: the peak of an *unbounded*
        // pending buffer creeps logarithmically with run length (a longer
        // stationary run samples rarer burst extremes), so indefinite
        // operation needs the global budget — overflow regulars are shed
        // at the offering tap and counted, references always admitted.
        cfg.plane_budget = Some(budget);
        // The mid-run outage phase: the destination-ToR tap (the busiest
        // one — every measured flow terminates there) crashes at 40% and
        // cold-recovers at 60% of this rung's duration.
        let script = outage.then(|| {
            let tree = FatTree::new(cfg.k, cfg.hash);
            let tap_node = cfg.dst_tor(&tree);
            let ns = SimDuration::from_millis(sim_ms).as_nanos();
            FaultScript::new(vec![
                FaultEvent {
                    at: SimTime::from_nanos(ns * 2 / 5),
                    kind: FaultKind::TapDown { node: tap_node },
                },
                FaultEvent {
                    at: SimTime::from_nanos(ns * 3 / 5),
                    kind: FaultKind::TapUp { node: tap_node },
                },
            ])
        });
        let start = Instant::now();
        let run = run_fattree_faulted(&cfg, script.as_ref(), None);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        rows.push(SoakRow {
            multiplier: m,
            sim_ms,
            wall_ms,
            events: run.events,
            delivered: run.delivered,
            peak_live_slots: run.peak_live_slots,
            peak_pending_total: run.outcome.peak_pending_total,
            peak_pending_tap: run.outcome.peak_pending,
            shed: run.outcome.shed,
            late: run.outcome.late,
            tap_outages: run.outcome.tap_outages,
            lost_window_obs: run.outcome.lost_window_obs,
        });
    }

    // Flatness gate: every longer run's peaks must stay within `slack` of
    // the baseline rung's (plus a small absolute allowance so tiny smoke
    // bases aren't judged on single-digit noise). The baseline is the
    // first rung past the settle floor: pending peaks only plateau once
    // the run comfortably exceeds the 4 ms reorder window and the flow
    // ramp, so shorter rungs understate steady state and would flag
    // transient fill-up as growth. Clamped so at least one comparison
    // always happens; linear (unbounded) growth still blows through the
    // slack on whatever pair remains.
    let settle_ms = env_u64("RLIR_SOAK_SETTLE_MS", 25);
    let base_idx = rows
        .iter()
        .position(|r| r.sim_ms >= settle_ms)
        .unwrap_or(rows.len() - 1)
        .min(rows.len() - 2);
    let base = &rows[base_idx];
    let bound = |b: usize| (b as f64 * slack) as usize + 16;
    let mut flat = true;
    for r in &rows[base_idx + 1..] {
        if r.peak_live_slots > bound(base.peak_live_slots) {
            eprintln!(
                "FAIL: peak_live_slots grew {} -> {} at {}x",
                base.peak_live_slots, r.peak_live_slots, r.multiplier
            );
            flat = false;
        }
        if r.peak_pending_total > bound(base.peak_pending_total) {
            eprintln!(
                "FAIL: peak_pending_total grew {} -> {} at {}x",
                base.peak_pending_total, r.peak_pending_total, r.multiplier
            );
            flat = false;
        }
    }
    // The outage phase must actually fire on every rung (a gate that
    // silently skipped recovery would prove nothing about it).
    if outage {
        for r in &rows {
            if r.tap_outages == 0 {
                eprintln!("FAIL: tap-outage phase did not fire at {}x", r.multiplier);
                flat = false;
            }
        }
    }

    println!("{{");
    println!(
        "  \"bench\": \"flat-memory soak (k=4 fat-tree RLIR plane, base {base_ms} ms, multipliers {mults:?}, pending budget {budget}, slack {slack}, mid-run tap outage {})\",",
        if outage { "on" } else { "off" }
    );
    println!("  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        println!(
            "    {{\"multiplier\": {}, \"sim_ms\": {}, \"wall_ms\": {:.1}, \"events\": {}, \"delivered\": {}, \"peak_live_slots\": {}, \"peak_pending_total\": {}, \"peak_pending_tap\": {}, \"shed\": {}, \"late\": {}, \"tap_outages\": {}, \"lost_window_obs\": {}}}{}",
            r.multiplier,
            r.sim_ms,
            r.wall_ms,
            r.events,
            r.delivered,
            r.peak_live_slots,
            r.peak_pending_total,
            r.peak_pending_tap,
            r.shed,
            r.late,
            r.tap_outages,
            r.lost_window_obs,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    println!("  ],");
    println!("  \"baseline_multiplier\": {},", rows[base_idx].multiplier);
    println!("  \"flat\": {flat}");
    println!("}}");

    if !flat {
        std::process::exit(1);
    }
}
