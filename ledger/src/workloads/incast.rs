//! `incast_engine` and `incast_keyed`: the k = 4 incast from memory.
//!
//! Four source ToRs squeeze 25 % of an edge link each into synchronized
//! 20 %-duty bursts towards one destination ToR (queue drops at its
//! downlink), over background from every other ToR. No sink observes the
//! hop stream — a `StreamDigest` folds the deliveries from the run's
//! delivery callback — so engine + routing do nearly all the work.
//!
//! `incast_engine` runs the sequential engine; `incast_keyed` runs the
//! identical injections through the sharded engine's keyed core at one
//! shard — the same layer used differently (keyed tie order, safe-horizon
//! windows, materialized ingest).

use super::{
    close_books, engine_facts, fabric_packets, put, put_count, slab_bytes, write_capture, Capture,
    Facts, Spec, Workload,
};
use crate::adapters::{TimedForwarder, VecSource};
use crate::span::{Off, Probe};
use rlir::experiment::{FatTreeExpConfig, IncastConfig};
use rlir::{build_network, FatTreeFabric};
use rlir_net::packet::Packet;
use rlir_sim::{
    run_network_sharded_source, run_network_streamed_source, InjectionSource, Network,
    NetworkRunStats, NodeId, NullSink, RunOptions, ShardPlan, StreamDigest, StreamedDelivery,
};
use rlir_topo::FatTree;
use std::path::Path;
use std::time::Instant;

/// Simulated milliseconds at scale 1.
const FULL_MS: f64 = 480.0;

fn config(spec: &Spec) -> FatTreeExpConfig {
    let incast = IncastConfig::paper(spec.seed, spec.duration(FULL_MS, 2.0));
    let mut cfg = incast.base;
    cfg.n_src_tors = 4;
    cfg.burst = Some(incast.burst);
    cfg
}

pub fn generate(spec: &Spec, dir: &Path) -> Result<Facts, String> {
    let cfg = config(spec);
    let tree = FatTree::new(cfg.k, cfg.hash);
    write_capture(dir, &fabric_packets(&cfg, &tree))
}

/// The injection list, in memory: every record of the generated file,
/// entered at the ToR that owns its source address.
fn load(dir: &Path, tree: &FatTree) -> Result<Vec<(NodeId, Packet)>, String> {
    let mut pcap = Capture::load(dir)?.replay(0)?;
    let mut items = Vec::new();
    while let Some((_, p)) = pcap.next_injection() {
        let tor = tree
            .tor_of_addr(p.flow.src)
            .ok_or("injection file holds a non-fabric address")?;
        items.push((tor, p));
    }
    match pcap.error() {
        Some(e) => Err(format!("injection file does not decode: {e}")),
        None => Ok(items),
    }
}

/// Fold one delivery into the run's digest: which packet left where, and
/// when. Any change to the engine's behaviour moves a delivery time.
fn fold_delivery(digest: &mut StreamDigest, d: &StreamedDelivery<'_>) {
    digest.fold(d.packet.id.0);
    digest.fold(d.delivered_node as u64);
    digest.fold(d.delivered_at.as_nanos());
}

/// The fabric a run is driven through, built before the timed span.
struct Fabric<'t> {
    tree: &'t FatTree,
    forwarder: FatTreeFabric<'t>,
    network: Network,
}

impl<'t> Fabric<'t> {
    fn build(cfg: &FatTreeExpConfig, tree: &'t FatTree) -> Self {
        Fabric {
            tree,
            forwarder: FatTreeFabric::new(tree, false),
            network: build_network(tree, cfg.queue, cfg.link_delay, &[]),
        }
    }

    /// Drive `source` through the workload's engine core at `shards`
    /// shards (the sequential engine has no shard count and ignores it).
    fn drive<P: Probe + Sync>(
        self,
        workload: Workload,
        probe: &P,
        source: &mut VecSource,
        shards: usize,
        mut on_delivery: impl FnMut(&StreamedDelivery<'_>),
        facts: &mut Facts,
    ) -> NetworkRunStats {
        let forwarder = TimedForwarder {
            inner: &self.forwarder,
            probe,
        };
        let opts = RunOptions::default();
        if workload == Workload::IncastEngine {
            return run_network_streamed_source(
                self.network,
                &forwarder,
                source,
                &mut NullSink,
                opts,
                &mut on_delivery,
            );
        }
        let plan = ShardPlan::new(self.tree.pod_partition());
        let run = run_network_sharded_source(
            self.network,
            &forwarder,
            source,
            &mut NullSink,
            opts,
            &plan,
            shards,
            &mut on_delivery,
        );
        put_count(facts, "sim.shard.shards", run.shards as u64);
        put_count(facts, "sim.shard.windows", run.windows);
        put_count(facts, "sim.shard.stalls", run.shard_stalls);
        run.stats
    }
}

/// One run. Nothing observes the hop stream; the run's digest is folded
/// from the delivery callback (`digest: false` is the ladder's bare-engine
/// step, without even that).
pub fn run<P: Probe + Sync>(
    spec: &Spec,
    dir: &Path,
    probe: &P,
    digest: bool,
) -> Result<Facts, String> {
    let cfg = config(spec);
    let tree = FatTree::new(cfg.k, cfg.hash);
    let t_load = Instant::now();
    let mut source = VecSource::new(load(dir, &tree)?);
    let load_s = t_load.elapsed().as_secs_f64();
    let t_build = Instant::now();
    let fabric = Fabric::build(&cfg, &tree);
    let build_s = t_build.elapsed().as_secs_f64();

    let mut facts = Facts::new();
    let mut stream = StreamDigest::default();
    let w = spec.workload;
    let t_run = Instant::now();
    let stats = if digest {
        let fold = |d: &StreamedDelivery<'_>| fold_delivery(&mut stream, d);
        fabric.drive(w, probe, &mut source, 1, fold, &mut facts)
    } else {
        fabric.drive(w, probe, &mut source, 1, |_| {}, &mut facts)
    };
    let run_s = t_run.elapsed().as_secs_f64();

    put(&mut facts, "t.load_s", load_s);
    put(&mut facts, "t.build_s", build_s);
    put(&mut facts, "t.run_s", run_s);
    put(&mut facts, "t.sim_s", run_s);
    put_count(&mut facts, "records", source.len() as u64);
    engine_facts(&mut facts, &stats);
    put_count(
        &mut facts,
        "peak_state_bytes",
        source.bytes() as u64 + slab_bytes(&stats),
    );
    for word in [stats.events, stats.delivered] {
        stream.fold(word);
    }
    close_books(&mut facts, &stream);
    Ok(facts)
}

/// `incast_keyed`'s two-shard side run: **counts only**. On a small shared
/// host two barrier-coupled threads measure the scheduler, not the program
/// (the wall swings several-fold between runs), so this runs on the first
/// tenth of the injections, reports the windows and stalls of that prefix,
/// and checks the one thing that must hold at any speed: two shards
/// deliver exactly what one shard delivers.
pub fn shards2(spec: &Spec, dir: &Path) -> Result<Facts, String> {
    let cfg = config(spec);
    let tree = FatTree::new(cfg.k, cfg.hash);
    let mut items = load(dir, &tree)?;
    items.truncate(items.len() / 10);
    let mut facts = Facts::new();
    let mut walls = Vec::new();
    let mut digests = Vec::new();
    for shards in [1, 2] {
        let mut source = VecSource::new(items.clone());
        let mut stream = StreamDigest::default();
        let fabric = Fabric::build(&cfg, &tree);
        let start = Instant::now();
        let stats = fabric.drive(
            Workload::IncastKeyed,
            &Off,
            &mut source,
            shards,
            |d| fold_delivery(&mut stream, d),
            &mut facts,
        );
        walls.push(start.elapsed().as_secs_f64());
        digests.push((stream.value(), stats.events, stats.delivered));
        engine_facts(&mut facts, &stats);
    }
    put(&mut facts, "t.s2_wall_ratio", walls[1] / walls[0]);
    put_count(
        &mut facts,
        "sim.shard.s2_differs",
        u64::from(digests[0] != digests[1]),
    );
    Ok(facts)
}

/// The subtractive ladder: only the engine step exists here; the step up
/// to the full run is the delivery digest.
pub fn ladder(spec: &Spec, dir: &Path) -> Result<Facts, String> {
    let mut facts = Facts::new();
    for (name, digest) in [("engine", false), ("full", true)] {
        let step = super::median_run_s(|| run(spec, dir, &Off, digest))?;
        put(&mut facts, &format!("t.ladder.{name}_s"), step);
    }
    Ok(facts)
}
