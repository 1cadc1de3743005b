//! The five named workloads and what they share.
//!
//! A workload has two halves, run in separate processes so generation
//! buffers never count against a repetition's peak RSS: `generate` turns
//! the seed into input files, and `rep` loads them, builds the fabric and
//! the planes, and runs the timed span once. Both return [`Facts`]: a flat
//! `name → number` map. Names starting with `t.` are wall-clock readings;
//! every other fact is deterministic in the seed and must repeat exactly
//! across repetitions (the orchestrator gates on that).

pub mod fleet;
pub mod incast;
pub mod tandem;

use crate::json::{self, Json};
use crate::span::{calibrate_span_cost_ns, Off, Pass, Probe, Sampler, SpanId, DEFAULT_STRIDE};
use rlir::experiment::{background_injections, measured_traces, FatTreeExpConfig};
use rlir::{PlaneReport, TapReport};
use rlir_net::packet::Packet;
use rlir_net::time::SimDuration;
use rlir_sim::{NetworkRunStats, StreamDigest};
use rlir_topo::FatTree;
use rlir_trace::{EntryMap, PcapRecords, PcapReplaySource, PcapWriter};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Flat result of one child process (see the module docs).
pub type Facts = BTreeMap<String, f64>;

/// Set fact `name`.
pub fn put(facts: &mut Facts, name: &str, value: impl Into<f64>) {
    facts.insert(name.to_string(), value.into());
}

/// Counts are facts too; every count here is far below 2^53.
pub fn put_count(facts: &mut Facts, name: &str, value: u64) {
    facts.insert(name.to_string(), value as f64);
}

/// Facts as one JSON object: how they travel between the ledger's
/// processes, to the repetitions' `meta.json`, and into the envelope.
pub fn facts_to_json(facts: &Facts) -> Json {
    Json::obj(facts.iter().map(|(k, v)| (k.as_str(), Json::Num(*v))))
}

pub fn facts_from_json(doc: &Json) -> Result<Facts, String> {
    doc.as_obj()
        .ok_or("facts are not an object")?
        .iter()
        .map(|(k, v)| {
            // A non-finite fact travels as null.
            let v = match v {
                Json::Null => f64::NAN,
                other => other.as_f64().ok_or("a fact is not a number")?,
            };
            Ok((k.clone(), v))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetE2e,
    FleetOverload,
    IncastEngine,
    IncastKeyed,
    TandemReplay,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::FleetE2e,
        Workload::FleetOverload,
        Workload::IncastEngine,
        Workload::IncastKeyed,
        Workload::TandemReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetE2e => "fleet_e2e",
            Workload::FleetOverload => "fleet_overload",
            Workload::IncastEngine => "incast_engine",
            Workload::IncastKeyed => "incast_keyed",
            Workload::TandemReplay => "tandem_replay",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What to run: which workload, from which seed, at what share of its
/// full size (`1.0` is the size every published number uses; smaller
/// scales exist for the unit tests and for trying the harness out).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    pub scale: f64,
}

impl Spec {
    /// `full_ms` of simulated time scaled down, never below `floor_ms`.
    fn duration(&self, full_ms: f64, floor_ms: f64) -> SimDuration {
        SimDuration::from_nanos(((full_ms * self.scale).max(floor_ms) * 1e6) as u64)
    }
}

/// Which variant of the repetition a child runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The timed span with tracing compiled out — the only source of
    /// end-to-end numbers.
    Untraced,
    /// The same span through the stride sampler — the only source of
    /// per-layer numbers.
    Traced,
    /// The subtractive ladder: engine, + ingest, + planes, + detector.
    Ladder,
    /// `fleet_e2e` without its fault script: any alarm is a false alarm.
    Twin,
    /// `incast_keyed`'s two-shard side run: counts only.
    Shards2,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Untraced => "untraced",
            Mode::Traced => "traced",
            Mode::Ladder => "ladder",
            Mode::Twin => "twin",
            Mode::Shards2 => "shards2",
        }
    }

    pub fn from_name(name: &str) -> Option<Mode> {
        const ALL: [Mode; 5] = [
            Mode::Untraced,
            Mode::Traced,
            Mode::Ladder,
            Mode::Twin,
            Mode::Shards2,
        ];
        ALL.into_iter().find(|m| m.name() == name)
    }
}

/// Turn the seed into input files under `dir` (the generation child).
pub fn generate(spec: &Spec, dir: &Path) -> Result<Facts, String> {
    match spec.workload {
        Workload::FleetE2e | Workload::FleetOverload => fleet::generate(spec, dir),
        Workload::IncastEngine | Workload::IncastKeyed => incast::generate(spec, dir),
        Workload::TandemReplay => tandem::generate(spec, dir),
    }
}

/// One repetition over the files `generate` left in `dir` (the rep child).
pub fn rep(spec: &Spec, dir: &Path, mode: Mode) -> Result<Facts, String> {
    let mut facts = match mode {
        Mode::Traced => {
            // Two passes (see `span`): the first samples the uniform spans
            // and supplies every one-shot total; the second times every
            // call of the heavy-tailed spans and supplies only those.
            let span_cost_ns = calibrate_span_cost_ns();
            let uniform = Sampler::new(Pass::Uniform {
                stride: DEFAULT_STRIDE,
            });
            let mut facts = run_once(spec, dir, mode, &uniform)?;
            let heavy = Sampler::new(Pass::HeavyTailed);
            if SpanId::ALL
                .iter()
                .any(|id| id.heavy_tailed() && uniform.stat(*id).calls > 0)
            {
                let second = run_once(spec, dir, mode, &heavy)?;
                let books = |f: &Facts| -> Vec<(String, u64)> {
                    f.iter()
                        .filter(|(k, _)| !k.starts_with("t."))
                        .map(|(k, v)| (k.clone(), v.to_bits()))
                        .collect()
                };
                if books(&facts) != books(&second) {
                    return Err("the two traced passes disagree on a deterministic fact".into());
                }
            }
            put(&mut facts, "t.ledger.span_cost_ns", span_cost_ns);
            for id in SpanId::ALL {
                let st = if id.heavy_tailed() {
                    heavy.stat(id)
                } else {
                    uniform.stat(id)
                };
                put_count(&mut facts, &format!("span.{}.calls", id.name()), st.calls);
                put_count(
                    &mut facts,
                    &format!("span.{}.sampled", id.name()),
                    st.sampled,
                );
                put(
                    &mut facts,
                    &format!("t.span.{}.busy_s", id.name()),
                    st.busy_s(span_cost_ns),
                );
            }
            facts
        }
        Mode::Ladder => match spec.workload {
            Workload::FleetE2e | Workload::FleetOverload => fleet::ladder(spec, dir)?,
            Workload::IncastEngine | Workload::IncastKeyed => incast::ladder(spec, dir)?,
            Workload::TandemReplay => tandem::ladder(spec, dir)?,
        },
        Mode::Shards2 => incast::shards2(spec, dir)?,
        Mode::Untraced | Mode::Twin => run_once(spec, dir, mode, &Off)?,
    };
    put_count(&mut facts, "t.vm_hwm_bytes", vm_hwm_bytes());
    Ok(facts)
}

fn run_once<P: Probe + Sync>(
    spec: &Spec,
    dir: &Path,
    mode: Mode,
    probe: &P,
) -> Result<Facts, String> {
    match spec.workload {
        Workload::FleetE2e | Workload::FleetOverload => {
            fleet::run(spec, dir, probe, fleet::Stack::Full, mode != Mode::Twin)
        }
        Workload::IncastEngine | Workload::IncastKeyed => incast::run(spec, dir, probe, true),
        Workload::TandemReplay => tandem::run(spec, dir, probe, tandem::Stack::Full),
    }
}

/// Median `t.run_s` of three runs of one ladder step: the same estimator
/// the untraced repetitions the ladder is held against use.
fn median_run_s(mut step: impl FnMut() -> Result<Facts, String>) -> Result<f64, String> {
    let mut runs = Vec::new();
    for _ in 0..3 {
        runs.push(step()?["t.run_s"]);
    }
    Ok(crate::stats::median(&runs))
}

/// `VmHWM` of this process in bytes (0 where `/proc` has no such line).
pub fn vm_hwm_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// The measured + background traffic of a fat-tree configuration, as one
/// time-ordered packet list (what a capture of the whole fabric's ingress
/// would hold).
fn fabric_packets(cfg: &FatTreeExpConfig, tree: &FatTree) -> Vec<Packet> {
    let mut packets: Vec<Packet> = Vec::new();
    for (_, trace) in measured_traces(cfg, tree) {
        packets.extend(trace.packets);
    }
    packets.extend(background_injections(cfg, tree).into_iter().map(|(_, p)| p));
    packets.sort_by_key(|p| p.created_at);
    packets
}

/// Write `packets` (time-ordered, or deliberately not) to `dir` as a
/// nanosecond pcap, make it durable, then read it back once: the read
/// checks that every record decodes strictly and leaves the file in the
/// page cache, so no repetition pays a cold first read. The facts the
/// repetitions need out of band (`records`, `span_ns`) go next to it.
fn write_capture(dir: &Path, packets: &[Packet]) -> Result<Facts, String> {
    let path = dir.join("capture.pcap");
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let pcap = |e: rlir_trace::PcapError| format!("{}: {e}", path.display());
    let file = File::create(&path).map_err(io)?;
    let mut w = PcapWriter::new(BufWriter::new(file)).map_err(pcap)?;
    for p in packets {
        w.write(p).map_err(pcap)?;
    }
    let mut buffered = w.finish().map_err(pcap)?;
    buffered.flush().map_err(io)?;
    let file = buffered.into_inner().map_err(|e| io(e.into_error()))?;
    file.sync_all().map_err(io)?;

    let mut decoded = 0u64;
    for rec in PcapRecords::new(BufReader::new(File::open(&path).map_err(io)?)).map_err(pcap)? {
        rec.map_err(|e| format!("generated capture does not decode: {e}"))?;
        decoded += 1;
    }
    if decoded != packets.len() as u64 {
        return Err(format!(
            "generated capture holds {decoded} records, wrote {}",
            packets.len()
        ));
    }
    let (first, last) = packets.iter().fold((u64::MAX, 0), |(lo, hi), p| {
        let t = p.created_at.as_nanos();
        (lo.min(t), hi.max(t))
    });
    let mut facts = Facts::new();
    put_count(&mut facts, "records", decoded);
    put_count(&mut facts, "span_ns", last.saturating_sub(first));
    put_count(
        &mut facts,
        "bytes",
        std::fs::metadata(&path).map_err(io)?.len(),
    );
    std::fs::write(dir.join("meta.json"), facts_to_json(&facts).to_string())
        .map_err(|e| format!("meta.json: {e}"))?;
    Ok(facts)
}

/// A generated capture as a repetition sees it.
struct Capture {
    path: PathBuf,
    records: u64,
    span_ns: u64,
}

impl Capture {
    fn load(dir: &Path) -> Result<Capture, String> {
        let text = std::fs::read_to_string(dir.join("meta.json"))
            .map_err(|e| format!("meta.json: {e}"))?;
        let meta = facts_from_json(&json::parse(&text)?)?;
        let count = |name: &str| {
            meta.get(name)
                .map(|v| *v as u64)
                .ok_or_else(|| format!("meta.json: no {name}"))
        };
        Ok(Capture {
            path: dir.join("capture.pcap"),
            records: count("records")?,
            span_ns: count("span_ns")?,
        })
    }

    /// Open the capture for replay through a `reorder_ns` window, with the
    /// scheduler-geometry hints recorded next to it. Entry nodes are the
    /// placement's business, so every record nominally enters at node 0.
    fn replay(&self, reorder_ns: u64) -> Result<PcapReplaySource<BufReader<File>>, String> {
        PcapReplaySource::from_path(&self.path, EntryMap::Fixed(0), reorder_ns)
            .map(|s| s.with_hints(self.records as usize, self.span_ns))
            .map_err(|e| format!("{}: {e}", self.path.display()))
    }
}

/// What the capture replay and the senders report after a run; a decode
/// error that ended the stream early is fatal.
fn ingest_facts<R: Read>(
    facts: &mut Facts,
    pcap: &PcapReplaySource<R>,
    refs_emitted: u64,
) -> Result<(), String> {
    if let Some(e) = pcap.error() {
        return Err(format!("capture decode failed mid-run: {e}"));
    }
    put_count(facts, "trace.records", pcap.records_read());
    put_count(facts, "trace.late_dropped", pcap.late_dropped());
    put_count(facts, "trace.skipped", pcap.decoder().skipped_records());
    put_count(facts, "trace.peak_buffered", pcap.peak_buffered() as u64);
    put_count(facts, "rli.sender.refs_emitted", refs_emitted);
    Ok(())
}

/// Engine counters every workload reports, and the conservation residue.
fn engine_facts(facts: &mut Facts, stats: &NetworkRunStats) {
    let queue: u64 = stats.queue_drops.iter().sum();
    let route: u64 = stats.route_drops.iter().sum();
    put_count(facts, "sim.injected", stats.injected);
    put_count(facts, "sim.delivered", stats.delivered);
    put_count(facts, "sim.events", stats.events);
    put_count(facts, "sim.queue_drops", queue);
    put_count(facts, "sim.route_drops", route);
    put_count(facts, "sim.fault_drops", stats.fault_drops);
    put_count(facts, "sim.peak_live_slots", stats.peak_live_slots as u64);
    put_count(facts, "sim.hop_allocations", stats.hop_allocations);
    put_count(
        facts,
        "sim.unaccounted",
        stats.injected.abs_diff(stats.delivered + queue + route),
    );
}

/// Bytes the engine's slab held at its in-flight peak.
fn slab_bytes(stats: &NetworkRunStats) -> u64 {
    (stats.peak_live_slots * std::mem::size_of::<rlir_sim::FlightState>()) as u64
}

/// One plane's books under `prefix` (`plane` or `sentinel`), plus an
/// order-sensitive digest of everything it reported.
fn plane_facts(facts: &mut Facts, prefix: &str, report: &PlaneReport, digest: &mut StreamDigest) {
    let (mut metered, mut estimated, mut refs, mut shed, mut late, mut lost) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut flows, mut epochs, mut outages, mut recovered) = (0u64, 0u64, 0u64, 0u64);
    for tap in &report.taps {
        let c = &tap.report.counters;
        metered += c.regulars_seen;
        estimated += c.estimated;
        refs += c.refs_accepted;
        shed += tap.shed;
        late += tap.late;
        lost += tap.lost_window_obs;
        flows += tap.report.flows.flow_count() as u64;
        epochs += tap.report.epochs.len() as u64;
        outages += u64::from(tap.outages);
        recovered += tap.recovered_epochs;
        digest.fold(tap.report.flows.estimate_count());
        for row in tap.report.flows.report(1) {
            digest.fold(row.packets);
            digest.fold(row.est_mean.to_bits());
            digest.fold(row.true_mean.unwrap_or(f64::NAN).to_bits());
            digest.fold(row.est_std.unwrap_or(f64::NAN).to_bits());
            digest.fold(row.est_quantile.unwrap_or(f64::NAN).to_bits());
        }
        for e in &tap.report.epochs {
            digest.fold(e.epoch);
            digest.fold(e.regulars_seen);
            digest.fold(e.estimated);
            digest.fold(e.est_mean().unwrap_or(f64::NAN).to_bits());
        }
    }
    let (mut offered, mut admitted, mut tenant_shed, mut unbalanced) = (0u64, 0u64, 0u64, 0u64);
    for (i, t) in report.tenants.iter().enumerate() {
        offered += t.offered;
        admitted += t.admitted;
        tenant_shed += t.shed;
        unbalanced += t.offered.abs_diff(t.admitted + t.shed);
        let share = if t.offered == 0 {
            0.0
        } else {
            t.shed as f64 / t.offered as f64
        };
        put(facts, &format!("{prefix}.tenant{i}_shed_share"), share);
    }
    let p = |name: &str| format!("{prefix}.{name}");
    put_count(facts, &p("metered"), metered);
    put_count(facts, &p("offered"), offered);
    put_count(facts, &p("admitted"), admitted);
    put_count(facts, &p("tenant_unbalanced"), unbalanced);
    put_count(facts, &p("estimated"), estimated);
    put_count(facts, &p("refs_accepted"), refs);
    put_count(facts, &p("shed"), shed);
    put_count(facts, &p("tenant_shed"), tenant_shed);
    put_count(facts, &p("late"), late);
    put_count(facts, &p("lost_window_obs"), lost);
    put_count(
        facts,
        &p("peak_pending_total"),
        report.peak_pending_total as u64,
    );
    put_count(facts, &p("taps"), report.taps.len() as u64);
    put_count(facts, &p("flows"), flows);
    put_count(facts, &p("epochs"), epochs);
    put_count(facts, &p("outages"), outages);
    put_count(facts, &p("recovered_epochs"), recovered);
}

/// The accuracy trio over the scored taps: the median, across flows with
/// at least ten estimates, of the per-flow relative error of the mean,
/// the standard deviation and the tracked p99.
fn accuracy_facts<'r>(facts: &mut Facts, taps: impl Iterator<Item = &'r TapReport>) {
    const MIN_ESTIMATES: u64 = 10;
    let (mut mean, mut std, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for row in taps.flat_map(|tap| tap.report.flows.report(MIN_ESTIMATES)) {
        mean.extend(row.mean_rel_err);
        std.extend(row.std_rel_err);
        p99.extend(row.quantile_rel_err);
    }
    put_count(facts, "quality.scored_flows", mean.len() as u64);
    if !mean.is_empty() {
        put(facts, "flow_mean_relerr_p50", crate::stats::median(&mean));
        put(facts, "flow_std_relerr_p50", crate::stats::median(&std));
        put(facts, "flow_p99_relerr_p50", crate::stats::median(&p99));
    }
}

/// Close the books: the failure share over everything the run was offered.
///
/// `failed` = plane `shed + late + lost_window_obs` + ingest `late_dropped`
/// + decoder `skipped` + injections the engine cannot account for.
///
/// `ops` = source records read + every observation a tap was offered
/// (`metered + late + lost_window_obs`, shed ones included in `metered`).
fn close_books(facts: &mut Facts, digest: &StreamDigest) {
    let get = |name: &str| facts.get(name).copied().unwrap_or(0.0);
    let plane_sum = |name: &str| get(&format!("plane.{name}")) + get(&format!("sentinel.{name}"));
    let failed = plane_sum("shed")
        + plane_sum("late")
        + plane_sum("lost_window_obs")
        + get("trace.late_dropped")
        + get("trace.skipped")
        + get("sim.unaccounted");
    let ops =
        get("records") + plane_sum("metered") + plane_sum("late") + plane_sum("lost_window_obs");
    put(facts, "ledger.ops", ops);
    put(facts, "ledger.failed_ops", failed);
    put(facts, "failed_share", failed / ops);
    // 52 bits of the digest survive the trip through an f64 exactly.
    put_count(facts, "ledger.stream_digest", digest.value() >> 12);
}
