//! `tandem_replay`: a long capture at 93 % of the bottleneck, replayed
//! through a reorder window into the two-switch tandem.
//!
//! The capture is written the way interleaved capture points produce it:
//! timestamps exact, file order shuffled by up to 50 µs of capture time.
//! `PcapReplaySource` puts it back in order through a 100 µs window, a
//! 1-and-100 RLI sender at `S0` interleaves references, and the stream
//! crosses `S0 → S1 → host` under two **ordered** taps (`S0` egress and
//! delivery, p99 tracked — the plane's no-wheel path) and a `CapturePair`
//! matching every packet by wire identity. This is the long-capture,
//! flat-memory case, the only workload where `capture` runs and the one
//! where ingest has its largest share; its accuracy trio is the
//! paper-anchored one (Fig. 4's regime).

use super::{
    accuracy_facts, close_books, engine_facts, ingest_facts, plane_facts, put, put_count,
    slab_bytes, write_capture, Capture, Facts, Spec,
};
use crate::adapters::{Placement, PlaneWatch, RefIngest, TimedSink, VecSource};
use crate::span::{Off, Probe, SpanId};
use rlir::{CapturePair, MeasurementPlane, PlaneConfig, TapPoint, TapSpec, TruthRef};
use rlir_net::clock::ClockModel;
use rlir_net::packet::{Packet, SenderId};
use rlir_net::time::SimDuration;
use rlir_net::FlowKey;
use rlir_rli::{PolicyKind, RliSender};
use rlir_sim::{
    run_network_streamed_source, Forwarder, Network, NodeId, NullSink, Port, QueueConfig,
    RouteDecision, RunOptions, StreamDigest, StreamedDelivery, TeeSink,
};
use rlir_trace::{generate as generate_trace, TraceConfig};
use std::path::Path;
use std::time::Instant;

/// Simulated milliseconds at scale 1.
const FULL_MS: f64 = 1600.0;
const BOTTLENECK_BPS: u64 = 5_000_000_000;
const UTILIZATION: f64 = 0.93;
const DISORDER_NS: u64 = 50_000;
const REORDER_NS: u64 = 100_000;
const S0: NodeId = 0;
const S1: NodeId = 1;

/// How much of the observer stack a run carries (see `fleet::Stack`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    Engine,
    Ingest,
    Full,
}

/// splitmix64: the per-record jitter stream of the disorder shuffle.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Bounded record disorder, as interleaved capture points produce it:
/// timestamps stay exact, but each record's place in the file is decided
/// by its capture time plus a jitter below `DISORDER_NS`.
pub fn disorder(packets: Vec<Packet>, seed: u64) -> Vec<Packet> {
    let mut keyed: Vec<(u64, Packet)> = packets
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let jitter = mix(seed ^ i as u64) % DISORDER_NS;
            (p.created_at.as_nanos() + jitter, p)
        })
        .collect();
    keyed.sort_by_key(|(key, _)| *key);
    keyed.into_iter().map(|(_, p)| p).collect()
}

pub fn generate(spec: &Spec, dir: &Path) -> Result<Facts, String> {
    let mut tc = TraceConfig::paper_regular(spec.seed, spec.duration(FULL_MS, 1.0));
    tc.link_rate_bps = BOTTLENECK_BPS;
    tc.target_utilization = UTILIZATION;
    let packets = disorder(generate_trace(&tc).packets, spec.seed);
    let mut facts = write_capture(dir, &packets)?;
    let displaced = packets
        .windows(2)
        .filter(|w| w[1].created_at < w[0].created_at)
        .count();
    put_count(&mut facts, "disordered_records", displaced as u64);
    Ok(facts)
}

/// `S0 → S1 → host`: out port 0 everywhere.
struct Line;

impl Forwarder for Line {
    fn route(&self, _node: NodeId, _packet: &Packet) -> RouteDecision {
        RouteDecision::Forward(0)
    }
}

fn network() -> Network {
    let queue = |rate_bps, capacity_bytes| QueueConfig {
        rate_bps,
        capacity_bytes,
        processing_delay: SimDuration::from_micros(1),
    };
    let link = SimDuration::from_micros(1);
    let mut net = Network::default();
    net.add_node("S0");
    net.add_node("S1");
    net.add_port(
        S0,
        Port::to_switch(queue(2 * BOTTLENECK_BPS, 512 * 1024), S1, link),
    );
    net.add_port(S1, Port::to_host(queue(BOTTLENECK_BPS, 256 * 1024), link));
    net
}

fn ref_key() -> FlowKey {
    FlowKey::udp(
        "10.3.255.254".parse().expect("static address"),
        40_000,
        "10.200.255.254".parse().expect("static address"),
        rlir_net::wire::RLI_UDP_PORT,
    )
}

/// Everything enters at `S0`, where the one sender sits.
struct AtIngress(RliSender);

impl Placement for AtIngress {
    fn place(&mut self, _p: &Packet) -> (NodeId, Option<&mut RliSender>) {
        (S0, Some(&mut self.0))
    }

    fn refs_emitted(&self) -> u64 {
        self.0.refs_emitted()
    }
}

fn sender() -> AtIngress {
    AtIngress(RliSender::new(
        SenderId(1),
        ClockModel::perfect(),
        PolicyKind::Static { n: 100 }.build(),
        vec![ref_key()],
    ))
}

pub fn run<P: Probe>(spec: &Spec, dir: &Path, probe: &P, stack: Stack) -> Result<Facts, String> {
    let _ = spec;
    let t_load = Instant::now();
    let capture = Capture::load(dir)?;
    let load_s = t_load.elapsed().as_secs_f64();

    let t_build = Instant::now();
    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        epoch: Some(SimDuration::from_millis(5)),
        ..PlaneConfig::default()
    });
    for (name, point) in [
        ("s0-egress", TapPoint::PortDeparture(S0, 0)),
        ("delivery", TapPoint::Delivery(S1)),
    ] {
        let mut tap = TapSpec::new(name, point, SenderId(1));
        // One FIFO port feeds each point, so both feeds are time-ordered
        // and stream into their receivers with no reorder window.
        tap.ordered = true;
        tap.truth = TruthRef::SinceInjection;
        tap.track_quantile = Some(0.99);
        plane.attach(tap);
    }
    let mut pair = CapturePair::new(TapPoint::NodeArrival(S0), TapPoint::Delivery(S1));
    let mut materialized = (stack == Stack::Engine)
        .then(|| {
            capture
                .replay(REORDER_NS)
                .map(|pcap| VecSource::drain(RefIngest::new(pcap, sender(), probe)))
        })
        .transpose()?;
    let build_s = t_build.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let mut ingest = RefIngest::new(capture.replay(REORDER_NS)?, sender(), probe);
    let opts = RunOptions::default();
    let (mut truth_sum, mut truth_n) = (0u64, 0u64);
    let mut on_delivery = |d: &StreamedDelivery<'_>| {
        if d.packet.is_regular() {
            truth_sum += d.true_delay().as_nanos();
            truth_n += 1;
        }
    };
    let mut facts = Facts::new();
    let t_sim = Instant::now();
    let stats = match (&mut materialized, stack) {
        (Some(source), _) => {
            run_network_streamed_source(network(), &Line, source, &mut NullSink, opts, on_delivery)
        }
        (None, Stack::Full) => {
            let mut watch = PlaneWatch::new(
                &mut plane,
                probe,
                (SpanId::PlaneHop, SpanId::PlaneWatermark),
                false,
            );
            let mut pair_sink = TimedSink {
                inner: &mut pair,
                probe,
                hop: SpanId::CaptureHop,
                watermark: SpanId::CaptureWatermark,
            };
            let stats = run_network_streamed_source(
                network(),
                &Line,
                &mut ingest,
                &mut TeeSink::new(&mut watch, &mut pair_sink),
                opts,
                &mut on_delivery,
            );
            let peak = watch.state_bytes.iter().max().copied().unwrap_or(0);
            put_count(&mut facts, "plane.peak_state_bytes", peak as u64);
            stats
        }
        (None, _) => run_network_streamed_source(
            network(),
            &Line,
            &mut ingest,
            &mut NullSink,
            opts,
            on_delivery,
        ),
    };
    let sim_s = t_sim.elapsed().as_secs_f64();
    let t_finish = Instant::now();
    let report = plane.finish();
    let matched = pair.finish();
    let finish_s = t_finish.elapsed().as_secs_f64();
    let run_s = t_run.elapsed().as_secs_f64();

    put(&mut facts, "t.load_s", load_s);
    put(&mut facts, "t.build_s", build_s);
    put(&mut facts, "t.run_s", run_s);
    put(&mut facts, "t.sim_s", sim_s);
    put(&mut facts, "t.finish_s", finish_s);
    put_count(&mut facts, "records", capture.records);
    engine_facts(&mut facts, &stats);
    let pcap = &ingest.inner;
    if materialized.is_none() {
        ingest_facts(&mut facts, pcap, ingest.placement.refs_emitted())?;
    }
    let mut digest = StreamDigest::default();
    for word in [stats.delivered, stats.events, truth_sum, matched.matched] {
        digest.fold(word);
    }
    if stack == Stack::Full {
        plane_facts(&mut facts, "plane", &report, &mut digest);
        accuracy_facts(
            &mut facts,
            report.taps.iter().filter(|t| t.name == "delivery"),
        );
        // The pair also matches the reference flow; the workload under
        // measurement is the regular traffic.
        let (count, sum) = matched
            .flows
            .iter()
            .filter(|(key, _)| *key != ref_key())
            .fold((0u64, 0u64), |(c, s), (_, f)| (c + f.count, s + f.sum_ns));
        let truth_mean = truth_sum as f64 / truth_n as f64;
        put_count(&mut facts, "capture.matched", matched.matched);
        put_count(&mut facts, "capture.evicted", matched.expired);
        put_count(
            &mut facts,
            "capture.peak_pending",
            matched.peak_pending as u64,
        );
        put(
            &mut facts,
            "capture.vs_truth_relerr",
            (sum as f64 / count as f64 - truth_mean).abs() / truth_mean,
        );
    }
    let ingest_bytes = match &materialized {
        Some(source) => source.bytes(),
        None => pcap.peak_buffered_bytes(),
    };
    let plane_bytes = facts.get("plane.peak_state_bytes").copied().unwrap_or(0.0);
    put(
        &mut facts,
        "peak_state_bytes",
        plane_bytes + (ingest_bytes as u64 + slab_bytes(&stats)) as f64,
    );
    close_books(&mut facts, &digest);
    Ok(facts)
}

/// The subtractive ladder: engine, + ingest, + taps and capture pair (the
/// full run; this workload has no detector).
pub fn ladder(spec: &Spec, dir: &Path) -> Result<Facts, String> {
    let mut facts = Facts::new();
    for (name, stack) in [
        ("engine", Stack::Engine),
        ("ingest", Stack::Ingest),
        ("full", Stack::Full),
    ] {
        let step = super::median_run_s(|| run(spec, dir, &Off, stack))?;
        put(&mut facts, &format!("t.ladder.{name}_s"), step);
    }
    Ok(facts)
}
