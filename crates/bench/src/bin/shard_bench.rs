//! Pod-sharded engine wall-clock vs shard count on the k=8 fat-tree.
//!
//! Runs the `fattree` experiment workload (measured + background traffic
//! from the experiment's own generators, boosted by duration so the event
//! count is ~10× the scenario's quick scale) through
//! [`run_network_sharded_source`] at shards ∈ {1, 2, 4} and reports
//! best-of-N wall-clock, events/sec, safe-horizon window count and stall
//! count per shard point as JSON on stdout; `scripts/shard_bench.sh`
//! captures it into `BENCH_shard.json`. An order-*sensitive* digest of the
//! merged hop/watermark/delivery stream asserts in-run that every shard count
//! reproduced the 1-shard stream byte for byte — the property
//! `tests/shard_determinism.rs` proves under proptest, re-checked here on
//! the exact workload being timed.
//!
//! On a one- or two-vCPU host the expected multi-shard result is honest
//! overhead, not speedup: the window logs, the merge and the barriers cost
//! something and only pay off with real cores (the JSON carries the host's
//! `cpus`). The stall count says how often a shard sat a window out at the
//! safe horizon — the quantity that bounds multi-core scaling.
//!
//! Knobs: `RLIR_SHARDBENCH_MS` (trace duration, default 40),
//! `RLIR_SHARDBENCH_REPS` (best-of, default 3), `RLIR_SHARDBENCH_K`
//! (fat-tree arity, default 8).

use rlir::experiment::{background_injections, measured_traces, FatTreeExpConfig};
use rlir::fabric::{build_network, FatTreeFabric};
use rlir_net::packet::Packet;
use rlir_net::time::{SimDuration, SimTime};
use rlir_sim::{
    run_network_sharded_source, HopEvent, HopSink, RunOptions, ShardPlan, ShardRunStats,
    SortedVecSource, StreamedDelivery,
};
use rlir_topo::{FatTree, TopoId};
use std::time::Instant;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 27)
}

/// Order-sensitive stream digest: position matters, so any reordering —
/// not just a changed multiset — breaks equality.
#[derive(Default)]
struct Digest {
    h: u64,
    hops: u64,
}

impl HopSink for Digest {
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        self.hops += 1;
        self.h = mix(self.h, ev.at.as_nanos() ^ (ev.node as u64).rotate_left(48));
        self.h = mix(
            self.h,
            ev.packet.id.0 ^ (ev.hops.len() as u64).rotate_left(32),
        );
    }
    fn on_watermark(&mut self, watermark: SimTime) {
        self.h = mix(self.h, 0xABCD ^ watermark.as_nanos());
    }
}

struct Point {
    shards: usize,
    effective_shards: usize,
    best_ns: u128,
    events_per_sec: f64,
    windows: u64,
    shard_stalls: u64,
    digest: u64,
    stats: ShardRunStats,
}

fn main() {
    let duration = SimDuration::from_millis(env_u64("RLIR_SHARDBENCH_MS", 40));
    let reps = env_u64("RLIR_SHARDBENCH_REPS", 3).max(1);
    let k = env_u64("RLIR_SHARDBENCH_K", 8) as usize;

    // The `fattree` scenario's workload at k=8: ~4× the switches and the
    // boosted duration gives roughly 10× the quick-scale injected count.
    let mut cfg = FatTreeExpConfig::paper(0x5AD_BE5C, duration);
    cfg.k = k;
    let tree = FatTree::new(cfg.k, cfg.hash);
    let fabric = FatTreeFabric::new(&tree, false);
    let mut injections: Vec<(TopoId, Packet)> = Vec::new();
    for (src, trace) in measured_traces(&cfg, &tree) {
        injections.extend(trace.packets.iter().map(|p| (src, *p)));
    }
    injections.extend(background_injections(&cfg, &tree));
    let plan = ShardPlan::new(tree.pod_partition());

    let mut points: Vec<Point> = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut best_ns = u128::MAX;
        let mut kept: Option<(u64, ShardRunStats)> = None;
        for _ in 0..reps {
            let net = build_network(&tree, cfg.queue, cfg.link_delay, &[]);
            let inj = injections.clone();
            let mut sink = Digest::default();
            let start = Instant::now();
            let out = run_network_sharded_source(
                net,
                &fabric,
                SortedVecSource::new(inj),
                &mut sink,
                RunOptions::default(),
                &plan,
                shards,
                |_d: &StreamedDelivery<'_>| {},
            );
            best_ns = best_ns.min(start.elapsed().as_nanos());
            assert!(sink.hops > 0, "workload produced no events");
            kept = Some((sink.h, out));
        }
        let (digest, stats) = kept.expect("reps >= 1");
        points.push(Point {
            shards,
            effective_shards: stats.shards,
            best_ns,
            events_per_sec: stats.stats.events as f64 / (best_ns as f64 / 1e9),
            windows: stats.windows,
            shard_stalls: stats.shard_stalls,
            digest,
            stats,
        });
    }

    // In-run byte-identity: every shard count against the 1-shard stream.
    let base = &points[0];
    for p in &points[1..] {
        assert_eq!(
            p.digest, base.digest,
            "{}-shard stream diverged from 1-shard — tests/shard_determinism.rs \
             should have caught this",
            p.shards
        );
        assert_eq!(p.stats.stats.events, base.stats.stats.events);
        assert_eq!(p.stats.stats.delivered, base.stats.stats.delivered);
        assert_eq!(
            p.windows, base.windows,
            "window schedule must be N-invariant"
        );
    }

    println!("{{");
    println!(
        "  \"bench\": \"pod-sharded engine: shards 1/2/4 on the k={k} fat-tree ({}ms, best of {reps})\",",
        duration.as_nanos() / 1_000_000
    );
    println!("  \"injected_packets\": {},", injections.len());
    println!("  \"events\": {},", base.stats.stats.events);
    println!("  \"deliveries\": {},", base.stats.stats.delivered);
    println!("  \"windows\": {},", base.windows);
    println!("  \"byte_identical\": true,");
    println!(
        "  \"cpus\": {},",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        println!(
            "    {{ \"shards\": {}, \"effective_shards\": {}, \"wall_ms\": {:.3}, \
             \"events_per_sec\": {:.0}, \"shard_stalls\": {} }}{comma}",
            p.shards,
            p.effective_shards,
            p.best_ns as f64 / 1e6,
            p.events_per_sec,
            p.shard_stalls
        );
    }
    println!("  ]");
    println!("}}");
}
