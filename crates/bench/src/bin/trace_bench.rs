//! Packets/s-off-disk headline bench for the streaming trace-replay
//! ingest.
//!
//! The question this answers: how fast does a multi-million-packet
//! capture stream **off disk** through the full measurement stack — pcap
//! decode, bounded reorder window, RLI reference interleave, the
//! all-taps plane on the tandem, the two-point capture pair — and how
//! much ingest-side memory does it take, compared to the legacy
//! collect-then-sort Vec ingest over the identical capture?
//!
//! Procedure:
//!
//! 1. Stream-generate a capture to disk chunk by chunk (O(chunk) memory;
//!    each chunk is an independently-seeded synthetic trace shifted in
//!    time), until it holds at least `RLIR_TRACE_TARGET_PACKETS` records
//!    — by default 3 M, ≥ 10× the 120 ms incast workload. A 1-chunk
//!    capture is written alongside as the flatness baseline. Or replay
//!    your own file via `RLIR_TRACE_FILE` (skips generation and the
//!    flatness gate: one external capture has no size ladder).
//! 2. Replay it twice through identical observer stacks: `streamed`
//!    (pull-based [`PcapReplaySource`], the PR 9 path) and `vec` (drain
//!    the same decode into a `Vec`, hand it to the legacy ingest). Both
//!    runs digest the complete event + watermark + delivery stream.
//! 3. **Fail** (exit 1) if the digests differ — every bench run re-proves
//!    byte-identity on the workload it just timed — or if the streamed
//!    ingest buffer grew with capture size (`RLIR_TRACE_SLACK`, default
//!    1.5, plus a 16-record allowance).
//!
//! Output: JSON on stdout; `scripts/trace_bench.sh` captures it into
//! `BENCH_trace.json`.
//!
//! Knobs: `RLIR_TRACE_TARGET_PACKETS` (default 3000000),
//! `RLIR_TRACE_CHUNK_MS` (default 120), `RLIR_TRACE_UTIL` (default 0.85),
//! `RLIR_TRACE_SLACK` (default 1.5), `RLIR_TRACE_FILE` (external
//! capture), `RLIR_TRACE_KEEP` (keep the generated captures).

use rlir::experiment::{RefInterleave, ReplayConfig};
use rlir::{CapturePair, TapPoint};
use rlir::{MeasurementPlane, PlaneConfig, TapSpec, TruthRef};
use rlir_net::clock::ClockModel;
use rlir_net::packet::{Packet, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
use rlir_rli::{PolicyKind, RliSender};
use rlir_sim::{
    run_network_streamed_source, Forwarder, InjectionSource, Network, NodeId, Port, RouteDecision,
    RunOptions, SortedVecSource, StreamDigest, TeeSink,
};
use rlir_trace::{generate, EntryMap, PcapReplaySource, PcapWriter, TraceConfig};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
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

const S0: NodeId = 0;
const S1: NodeId = 1;

struct Line;
impl Forwarder for Line {
    fn route(&self, _node: NodeId, _p: &Packet) -> RouteDecision {
        RouteDecision::Forward(0)
    }
}

fn ref_key() -> FlowKey {
    FlowKey::udp(
        "10.3.255.254".parse().expect("static"),
        40_000,
        "10.200.255.254".parse().expect("static"),
        rlir_net::wire::RLI_UDP_PORT,
    )
}

fn mk_sender() -> RliSender {
    RliSender::new(
        SenderId(1),
        ClockModel::perfect(),
        PolicyKind::Static { n: 100 }.build(),
        vec![ref_key()],
    )
}

fn build_net(cfg: &ReplayConfig) -> Network {
    let mut net = Network::default();
    net.add_node("S0");
    net.add_node("S1");
    net.add_port(S0, Port::to_switch(cfg.ingress_queue, S1, cfg.link_delay));
    net.add_port(S1, Port::to_host(cfg.bottleneck_queue, cfg.link_delay));
    net
}

/// Stream-generate a capture of at least `target` records to `path`,
/// chunk by chunk. Returns (records, chunks, generation seconds).
fn generate_capture(path: &Path, target: u64, chunk_ms: u64, util: f64) -> (u64, u64, f64) {
    let start = Instant::now();
    let file = std::fs::File::create(path).expect("create capture");
    let mut w = PcapWriter::new(BufWriter::new(file)).expect("pcap header");
    let chunk_ns = chunk_ms * 1_000_000;
    let mut chunks = 0u64;
    while w.records() < target {
        let mut tc =
            TraceConfig::paper_regular(0xCAFE + chunks, SimDuration::from_millis(chunk_ms));
        tc.link_rate_bps = 5_000_000_000;
        tc.target_utilization = util;
        let trace = generate(&tc);
        let offset = chunks * chunk_ns;
        for p in &trace.packets {
            let mut p = *p;
            p.created_at = SimTime::from_nanos(p.created_at.as_nanos() + offset);
            w.write(&p).expect("write record");
        }
        chunks += 1;
    }
    let records = w.records();
    w.finish()
        .expect("flush capture")
        .flush()
        .expect("flush capture");
    (records, chunks, start.elapsed().as_secs_f64())
}

/// The identical observer stack both modes run under: all taps of the
/// tandem (S0 egress + delivery), the two-point capture pair, and a
/// digest of the complete observable stream.
struct Stack<'a> {
    plane: MeasurementPlane<'a>,
    pair: CapturePair,
    digest: StreamDigest,
}

impl Stack<'_> {
    fn new(cfg: &ReplayConfig) -> Self {
        let mut plane = MeasurementPlane::with_config(PlaneConfig {
            epoch: cfg.epoch,
            ..PlaneConfig::default()
        });
        let mut seg = TapSpec::new("s0-egress", TapPoint::PortDeparture(S0, 0), SenderId(1));
        seg.ordered = true;
        seg.truth = TruthRef::SinceInjection;
        plane.attach(seg);
        let mut e2e = TapSpec::new("delivery", TapPoint::Delivery(S1), SenderId(1));
        e2e.ordered = true;
        e2e.truth = TruthRef::SinceInjection;
        plane.attach(e2e);
        Stack {
            plane,
            pair: CapturePair::new(TapPoint::NodeArrival(S0), TapPoint::Delivery(S1)),
            digest: StreamDigest::default(),
        }
    }
}

struct RunRow {
    mode: &'static str,
    wall_s: f64,
    records: u64,
    packets_per_sec: f64,
    delivered: u64,
    events: u64,
    digest: u64,
    /// Peak records resident in the ingest path (reorder buffer for
    /// streamed; the whole materialized Vec for vec).
    ingest_peak_records: u64,
    ingest_peak_bytes: u64,
}

fn streamed_run(cfg: &ReplayConfig, path: &Path) -> RunRow {
    let start = Instant::now();
    let pcap =
        PcapReplaySource::from_path(path, EntryMap::Fixed(S0), cfg.reorder_ns).expect("open");
    let mut source = RefInterleave::new(pcap, mk_sender(), S0);
    let mut stack = Stack::new(cfg);
    let mut delivery_digest = StreamDigest::default();
    let stats = {
        let mut observers = TeeSink::new(&mut stack.plane, &mut stack.pair);
        let mut sink = TeeSink::new(&mut stack.digest, &mut observers);
        run_network_streamed_source(
            build_net(cfg),
            &Line,
            &mut source,
            &mut sink,
            RunOptions::default(),
            |d| {
                delivery_digest.fold(d.packet.id.0);
                delivery_digest.fold(d.delivered_at.as_nanos());
            },
        )
    };
    stack.digest.fold(delivery_digest.value());
    let wall_s = start.elapsed().as_secs_f64();
    assert!(source.inner().error().is_none(), "capture decode failed");
    let records = source.inner().records_read();
    RunRow {
        mode: "streamed",
        wall_s,
        records,
        packets_per_sec: records as f64 / wall_s,
        delivered: stats.delivered,
        events: stats.events,
        digest: stack.digest.value(),
        ingest_peak_records: source.inner().peak_buffered() as u64,
        ingest_peak_bytes: source.inner().peak_buffered_bytes() as u64,
    }
}

fn vec_run(cfg: &ReplayConfig, path: &Path) -> RunRow {
    let start = Instant::now();
    // The legacy ingest: decode and interleave exactly the same stream,
    // but materialize it whole before the engine starts.
    let pcap =
        PcapReplaySource::from_path(path, EntryMap::Fixed(S0), cfg.reorder_ns).expect("open");
    let mut source = RefInterleave::new(pcap, mk_sender(), S0);
    let mut injections: Vec<(NodeId, Packet)> = Vec::new();
    while source.peek().is_some() {
        injections.push(source.next_injection().expect("peeked non-empty"));
    }
    assert!(source.inner().error().is_none(), "capture decode failed");
    let records = source.inner().records_read();
    let materialized = injections.len() as u64;
    let entry_bytes = std::mem::size_of::<(NodeId, Packet)>() as u64;
    let mut stack = Stack::new(cfg);
    let mut delivery_digest = StreamDigest::default();
    let stats = {
        let mut observers = TeeSink::new(&mut stack.plane, &mut stack.pair);
        let mut sink = TeeSink::new(&mut stack.digest, &mut observers);
        run_network_streamed_source(
            build_net(cfg),
            &Line,
            SortedVecSource::new(injections),
            &mut sink,
            RunOptions::default(),
            |d| {
                delivery_digest.fold(d.packet.id.0);
                delivery_digest.fold(d.delivered_at.as_nanos());
            },
        )
    };
    stack.digest.fold(delivery_digest.value());
    let wall_s = start.elapsed().as_secs_f64();
    RunRow {
        mode: "vec",
        wall_s,
        records,
        packets_per_sec: records as f64 / wall_s,
        delivered: stats.delivered,
        events: stats.events,
        digest: stack.digest.value(),
        ingest_peak_records: materialized,
        ingest_peak_bytes: materialized * entry_bytes,
    }
}

fn emit_row(r: &RunRow, last: bool) {
    println!(
        "    {{\"mode\": \"{}\", \"wall_s\": {:.3}, \"records\": {}, \"packets_per_sec\": {:.0}, \"delivered\": {}, \"events\": {}, \"ingest_peak_records\": {}, \"ingest_peak_bytes\": {}}}{}",
        r.mode,
        r.wall_s,
        r.records,
        r.packets_per_sec,
        r.delivered,
        r.events,
        r.ingest_peak_records,
        r.ingest_peak_bytes,
        if last { "" } else { "," }
    );
}

fn main() {
    let target = env_u64("RLIR_TRACE_TARGET_PACKETS", 3_000_000);
    let chunk_ms = env_u64("RLIR_TRACE_CHUNK_MS", 120);
    let util = env_f64("RLIR_TRACE_UTIL", 0.85);
    let slack = env_f64("RLIR_TRACE_SLACK", 1.5);
    let keep = std::env::var("RLIR_TRACE_KEEP").is_ok();
    let external: Option<PathBuf> = std::env::var("RLIR_TRACE_FILE").ok().map(PathBuf::from);

    let cfg = ReplayConfig::paper(0x7124CE, SimDuration::from_millis(chunk_ms));
    let dir = std::env::temp_dir();
    let (path, small_path, records, chunks, gen_s) = match &external {
        Some(p) => (p.clone(), None, 0, 0, 0.0),
        None => {
            let path = dir.join(format!("rlir-trace-bench-{}.pcap", std::process::id()));
            let small = dir.join(format!(
                "rlir-trace-bench-small-{}.pcap",
                std::process::id()
            ));
            let (records, chunks, gen_s) = generate_capture(&path, target, chunk_ms, util);
            let _ = generate_capture(&small, 1, chunk_ms, util);
            (path, Some(small), records, chunks, gen_s)
        }
    };
    let capture_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    // The flatness baseline: the identical pipeline over a 1-chunk
    // capture. Streamed ingest memory must not grow with capture size.
    let baseline = small_path.as_ref().map(|p| streamed_run(&cfg, p));
    let streamed = streamed_run(&cfg, &path);
    let vec = vec_run(&cfg, &path);

    let identical = streamed.digest == vec.digest;
    let flat = match &baseline {
        Some(b) => {
            streamed.ingest_peak_records <= (b.ingest_peak_records as f64 * slack) as u64 + 16
        }
        None => true, // external capture: no size ladder to compare against
    };

    println!("{{");
    println!(
        "  \"bench\": \"trace replay off disk (tandem, all taps + capture pair, target {target} records, chunk {chunk_ms} ms, util {util})\","
    );
    match &external {
        Some(p) => println!("  \"capture\": \"{}\",", p.display()),
        None => println!(
            "  \"capture\": {{\"records\": {records}, \"chunks\": {chunks}, \"bytes\": {capture_bytes}, \"generation_s\": {gen_s:.2}}},"
        ),
    }
    println!("  \"rows\": [");
    if let Some(b) = &baseline {
        println!(
            "    {{\"mode\": \"streamed-baseline-1chunk\", \"wall_s\": {:.3}, \"records\": {}, \"packets_per_sec\": {:.0}, \"delivered\": {}, \"events\": {}, \"ingest_peak_records\": {}, \"ingest_peak_bytes\": {}}},",
            b.wall_s,
            b.records,
            b.packets_per_sec,
            b.delivered,
            b.events,
            b.ingest_peak_records,
            b.ingest_peak_bytes
        );
    }
    emit_row(&streamed, false);
    emit_row(&vec, true);
    println!("  ],");
    println!(
        "  \"headline_packets_per_sec\": {:.0},",
        streamed.packets_per_sec
    );
    println!(
        "  \"ingest_memory_ratio_vec_over_streamed\": {:.1},",
        vec.ingest_peak_bytes as f64 / (streamed.ingest_peak_bytes.max(1)) as f64
    );
    println!("  \"identical\": {identical},");
    println!("  \"flat\": {flat}");
    println!("}}");

    if !keep && external.is_none() {
        std::fs::remove_file(&path).ok();
        if let Some(p) = &small_path {
            std::fs::remove_file(p).ok();
        }
    }
    if !identical {
        eprintln!("FAIL: streamed ingest diverged from the Vec-ingest oracle");
        std::process::exit(1);
    }
    if !flat {
        eprintln!(
            "FAIL: streamed ingest buffer grew with capture size ({} -> {} records)",
            baseline.map(|b| b.ingest_peak_records).unwrap_or(0),
            streamed.ingest_peak_records
        );
        std::process::exit(1);
    }
}
