//! Trace replay through the streaming ingest path, scored against an
//! **external** ground truth.
//!
//! The paper's evaluation replays real router captures (CAIDA OC-192)
//! through the simulated tandem. This harness is that front end on the
//! O(buffer)-ingest path: a nanosecond pcap — a file given on the command
//! line, or a synthetic capture generated and round-tripped through the
//! pcap encoder when none is — streams off disk as a pull-based
//! [`PcapReplaySource`], gets the RLI reference stream interleaved on the
//! fly ([`RefInterleave`], byte-identical to the old
//! materialize-then-sort interleave), and drives the tandem
//! `S0 → S1 → host` with three observers teed onto one hop-event stream:
//!
//! * an RLI tap at the delivery point (the estimate under test);
//! * a [`CapturePair`] stamping every packet at `S0`'s ingress and
//!   matching it again at delivery — per-flow latency by wire identity
//!   (RFC 1242), the measurement a pair of real capture points would
//!   make, independent of simulator-internal truth state;
//! * a [`StreamDigest`] over the full event + watermark + delivery
//!   stream.
//!
//! When [`ReplayConfig::verify_vs_vec`] is set (the default) the same
//! capture is replayed a second time through the legacy Vec ingest and
//! the two digests are compared in-run — every replay re-proves the
//! streaming path is byte-identical to its oracle on the exact workload
//! it just measured, not just on the test-suite workloads.

use crate::capture::{CapturePair, CaptureReport};
use crate::plane::{MeasurementPlane, PlaneConfig, TapPoint, TapSpec, TruthRef};
use rlir_net::clock::ClockModel;
use rlir_net::packet::{Packet, SenderId};
use rlir_net::time::SimDuration;
use rlir_net::FlowKey;
use rlir_rli::{EpochSeries, PolicyKind, RliSender};
use rlir_sim::{
    run_network_streamed_source, Forwarder, InjectionSource, Network, NetworkRunStats, NodeId,
    Port, QueueConfig, RouteDecision, RunOptions, SortedVecSource, StreamDigest, TeeSink,
};
use rlir_trace::{generate, EntryMap, PcapRecords, PcapReplaySource, PcapWriter, TraceConfig};
use std::collections::VecDeque;
use std::io::Read;
use std::path::PathBuf;

/// Configuration of a trace replay.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Seed for the fallback synthetic capture (unused when a trace file
    /// is given).
    pub seed: u64,
    /// Duration of the fallback synthetic capture.
    pub duration: SimDuration,
    /// Capture to replay; `None` generates one (see module docs).
    pub trace_path: Option<PathBuf>,
    /// Entry-node demux spec, [`EntryMap::parse`] syntax. The tandem has
    /// nodes `0` (ingress) and `1` (bottleneck); mapped nodes must be one
    /// of those ([`ReplayConfig::NODES`]).
    pub entry_spec: String,
    /// Replay reorder window in nanoseconds (0 suffices for captures this
    /// workspace wrote; raise it for captures with timestamping jitter).
    pub reorder_ns: u64,
    /// Offered load of the fallback capture, as a fraction of the
    /// bottleneck rate.
    pub target_utilization: f64,
    /// Reference-injection policy of the RLI sender at S0.
    pub policy: PolicyKind,
    /// Ingress switch (S0) queue.
    pub ingress_queue: QueueConfig,
    /// Bottleneck switch (S1) queue — delivery happens after it.
    pub bottleneck_queue: QueueConfig,
    /// Link delay S0 → S1 and S1 → host.
    pub link_delay: SimDuration,
    /// Epoch width of the measurement plane.
    pub epoch: Option<SimDuration>,
    /// Replay the capture a second time through the legacy Vec ingest and
    /// compare full-stream digests (sets
    /// [`ReplayOutcome::ingest_identical`]).
    pub verify_vs_vec: bool,
    /// Run the pcap path in lenient (skip-and-count) mode: damaged
    /// records are skipped with resync, time regressions clamped,
    /// duplicate wire identities capped. Strict mode (the default) fails
    /// fast on the first bad record.
    pub lenient: bool,
}

impl ReplayConfig {
    /// Defaults: the drop-aware tandem run calm (70% of the bottleneck),
    /// so the capture pair matches nearly every packet.
    pub fn paper(seed: u64, duration: SimDuration) -> Self {
        ReplayConfig {
            seed,
            duration,
            trace_path: None,
            entry_spec: "fixed:0".to_string(),
            reorder_ns: 0,
            target_utilization: 0.7,
            policy: PolicyKind::Static { n: 100 },
            ingress_queue: QueueConfig {
                rate_bps: 10_000_000_000,
                capacity_bytes: 512 * 1024,
                processing_delay: SimDuration::from_micros(1),
            },
            bottleneck_queue: QueueConfig {
                rate_bps: 5_000_000_000,
                capacity_bytes: 256 * 1024,
                processing_delay: SimDuration::from_micros(1),
            },
            link_delay: SimDuration::from_micros(1),
            epoch: Some(SimDuration::from_millis(5)),
            verify_vs_vec: true,
            lenient: false,
        }
    }
}

/// What one replay produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// True when no trace file was given and a synthetic capture was
    /// generated and round-tripped through the pcap encoder.
    pub generated_fallback: bool,
    /// Pcap records decoded off disk.
    pub records_read: u64,
    /// Records injected into the engine (read minus shed).
    pub replayed: u64,
    /// Records shed for being more disordered than the reorder window.
    pub late_dropped: u64,
    /// High-water mark of the replay reorder buffer — the whole
    /// ingest-side memory bound.
    pub source_peak_buffered: usize,
    /// RLI reference packets interleaved into the stream.
    pub refs_emitted: u64,
    /// Packets delivered (regulars + references).
    pub delivered: u64,
    /// Scheduler events processed.
    pub events: u64,
    /// Engine in-flight high-water mark.
    pub peak_live_slots: usize,
    /// Capture pair: packets matched at both points.
    pub capture_matched: u64,
    /// Capture pair: stamps expired (packets lost between the points).
    pub capture_expired: u64,
    /// Capture pair: pending-table high-water mark.
    pub capture_peak_pending: usize,
    /// Capture pair: mean latency over regular-traffic flows, ns — the
    /// external ground truth. NaN when the pair matched no regular packet
    /// (the entry map bypasses `S0`), and so are the two errors against it.
    pub capture_mean_ns: f64,
    /// Engine-internal mean true delay of delivered regulars, ns.
    pub truth_mean_ns: f64,
    /// `capture_mean_ns` vs `truth_mean_ns` — how faithful the external
    /// measurement itself is (≈ 0 on the tandem).
    pub capture_vs_truth_rel_err: f64,
    /// RLI tap: estimated mean at the delivery point, ns.
    pub rli_est_mean_ns: f64,
    /// RLI estimate scored against the **capture pair's** truth — the
    /// paper's accuracy claim, judged by an external instrument.
    pub rli_vs_capture_rel_err: f64,
    /// `Some(true)` when the Vec-ingest oracle replay produced a
    /// bit-identical event/watermark/delivery stream; `None` when the
    /// verification pass was disabled.
    pub ingest_identical: Option<bool>,
    /// The decode error that ended a strict replay early, if any: the
    /// stream stopped after [`records_read`](Self::records_read) records,
    /// and everything above describes only that prefix. Lenient ingest
    /// ends a damaged capture cleanly instead.
    pub ingest_error: Option<String>,
    /// RLI tap per-epoch series.
    pub epochs: EpochSeries,
}

/// `S0 → S1 → host`: forward out port 0 everywhere; S1's only port is
/// host-facing, so delivery happens after its queue.
struct Line;
impl Forwarder for Line {
    fn route(&self, _node: NodeId, _p: &Packet) -> RouteDecision {
        RouteDecision::Forward(0)
    }
}

const S0: NodeId = 0;
const S1: NodeId = 1;

impl ReplayConfig {
    /// Nodes of the replay tandem, `S0` and `S1`: the bound
    /// [`EntryMap::check`] holds an entry spec to.
    pub const NODES: usize = 2;
}

fn ref_key() -> FlowKey {
    FlowKey::udp(
        "10.3.255.254".parse().expect("static"),
        40_000,
        "10.200.255.254".parse().expect("static"),
        rlir_net::wire::RLI_UDP_PORT,
    )
}

/// Interleave an [`RliSender`]'s reference stream into any
/// [`InjectionSource`], references first at each injection instant —
/// exactly the order the materialized idiom produces (`for r in
/// sender.observe(p) { push(r) } push(p)` followed by a stable sort by
/// injection time). References enter at the sender's attach node; the
/// triggering packet keeps its own entry node. Emission stays monotone
/// because references carry the triggering packet's injection time.
pub struct RefInterleave<S: InjectionSource> {
    inner: S,
    sender: RliSender,
    ref_node: NodeId,
    queue: VecDeque<(NodeId, Packet)>,
}

impl<S: InjectionSource> RefInterleave<S> {
    /// Wrap `inner`, injecting `sender`'s references at `ref_node`.
    pub fn new(inner: S, sender: RliSender, ref_node: NodeId) -> Self {
        RefInterleave {
            inner,
            sender,
            ref_node,
            queue: VecDeque::new(),
        }
    }

    /// The wrapped source (for its counters after the run).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The sender (for [`RliSender::refs_emitted`] after the run).
    pub fn sender(&self) -> &RliSender {
        &self.sender
    }

    fn fill(&mut self) {
        if !self.queue.is_empty() {
            return;
        }
        if let Some((node, p)) = self.inner.next_injection() {
            for r in self.sender.observe(&p) {
                self.queue.push_back((self.ref_node, *r));
            }
            self.queue.push_back((node, p));
        }
    }
}

impl<S: InjectionSource> InjectionSource for RefInterleave<S> {
    fn peek(&mut self) -> Option<rlir_net::time::SimTime> {
        self.fill();
        self.queue.front().map(|(_, p)| p.created_at)
    }

    fn next_injection(&mut self) -> Option<(NodeId, Packet)> {
        self.fill();
        self.queue.pop_front()
    }

    // Hints are scheduler geometry only (drain order is
    // geometry-independent); the inner counts undercount by the
    // references, which is fine for a hint.
    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn span_hint(&self) -> Option<u64> {
        self.inner.span_hint()
    }
}

fn build_net(cfg: &ReplayConfig) -> Network {
    let mut net = Network::default();
    net.add_node("S0");
    net.add_node("S1");
    net.add_port(S0, Port::to_switch(cfg.ingress_queue, S1, cfg.link_delay));
    net.add_port(S1, Port::to_host(cfg.bottleneck_queue, cfg.link_delay));
    net
}

fn mk_sender(cfg: &ReplayConfig) -> RliSender {
    RliSender::new(
        SenderId(1),
        ClockModel::perfect(),
        cfg.policy.build(),
        vec![ref_key()],
    )
}

/// Generate the fallback capture: the synthetic regular trace encoded as
/// an in-memory nanosecond pcap, so the replay still exercises the full
/// decode path (record framing, ident round-trip, ToS restoration).
pub fn synth_capture(cfg: &ReplayConfig) -> Vec<u8> {
    let mut tc = TraceConfig::paper_regular(cfg.seed, cfg.duration);
    tc.link_rate_bps = cfg.bottleneck_queue.rate_bps;
    tc.target_utilization = cfg.target_utilization;
    let trace = generate(&tc);
    let mut w = PcapWriter::new(Vec::new()).expect("in-memory capture");
    for p in &trace.packets {
        w.write(p).expect("in-memory capture");
    }
    w.finish().expect("in-memory capture")
}

struct StreamedRun {
    stats: NetworkRunStats,
    digest: u64,
    truth_sum: u64,
    truth_n: u64,
    capture: CaptureReport,
    est_mean_ns: f64,
    epochs: EpochSeries,
    records_read: u64,
    replayed: u64,
    late_dropped: u64,
    peak_buffered: usize,
    refs_emitted: u64,
    ingest_error: Option<String>,
}

/// One streamed replay with the full observer stack.
fn replay_streamed<R: Read>(
    cfg: &ReplayConfig,
    records: PcapRecords<R>,
    entry: EntryMap,
) -> StreamedRun {
    let pcap = PcapReplaySource::new(records, entry, cfg.reorder_ns);
    let pcap = if cfg.lenient { pcap.lenient() } else { pcap };
    let mut source = RefInterleave::new(pcap, mk_sender(cfg), S0);

    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        epoch: cfg.epoch,
        ..PlaneConfig::default()
    });
    let mut tap = TapSpec::new("replay", TapPoint::Delivery(S1), SenderId(1));
    // Delivery at S1 leaves one FIFO host port plus a constant link
    // delay, so the feed is ordered and streams unbuffered.
    tap.ordered = true;
    tap.truth = TruthRef::SinceInjection;
    plane.attach(tap);
    let mut pair = CapturePair::new(TapPoint::NodeArrival(S0), TapPoint::Delivery(S1));
    let mut digest = StreamDigest::default();

    let mut delivery_digest = StreamDigest::default();
    let mut truth_sum = 0u64;
    let mut truth_n = 0u64;
    let stats = {
        let mut observers = TeeSink::new(&mut plane, &mut pair);
        let mut sink = TeeSink::new(&mut digest, &mut observers);
        run_network_streamed_source(
            build_net(cfg),
            &Line,
            &mut source,
            &mut sink,
            RunOptions::default(),
            |d| {
                delivery_digest.fold(d.packet.id.0);
                delivery_digest.fold(d.delivered_at.as_nanos());
                if d.packet.is_regular() {
                    truth_sum += d.true_delay().as_nanos();
                    truth_n += 1;
                }
            },
        )
    };
    digest.fold(delivery_digest.value());

    let mut report = plane.finish();
    let tap = report.taps.pop().expect("replay tap");
    let est_mean_ns = tap.report.flows.aggregate_est_mean().unwrap_or(f64::NAN);

    StreamedRun {
        stats,
        digest: digest.value(),
        truth_sum,
        truth_n,
        capture: pair.finish(),
        est_mean_ns,
        epochs: tap.report.epochs,
        records_read: source.inner().records_read(),
        replayed: source.inner().emitted(),
        late_dropped: source.inner().late_dropped(),
        peak_buffered: source.inner().peak_buffered(),
        refs_emitted: source.sender().refs_emitted(),
        ingest_error: source.inner().error().map(|e| e.to_string()),
    }
}

/// The oracle replay: drain the same source through the same interleave
/// into a `Vec`, hand it to the legacy collect-then-sort ingest, digest
/// the identical observable stream.
fn replay_vec<R: Read>(cfg: &ReplayConfig, records: PcapRecords<R>, entry: EntryMap) -> u64 {
    let pcap = PcapReplaySource::new(records, entry, cfg.reorder_ns);
    let pcap = if cfg.lenient { pcap.lenient() } else { pcap };
    let mut source = RefInterleave::new(pcap, mk_sender(cfg), S0);
    let mut injections: Vec<(NodeId, Packet)> = Vec::new();
    while source.peek().is_some() {
        injections.push(source.next_injection().expect("peeked non-empty"));
    }
    let mut digest = StreamDigest::default();
    let mut delivery_digest = StreamDigest::default();
    run_network_streamed_source(
        build_net(cfg),
        &Line,
        SortedVecSource::new(injections),
        &mut digest,
        RunOptions::default(),
        |d| {
            delivery_digest.fold(d.packet.id.0);
            delivery_digest.fold(d.delivered_at.as_nanos());
        },
    );
    digest.fold(delivery_digest.value());
    digest.value()
}

/// Mean capture latency over regular-traffic flows (the reference flow is
/// also matched by the pair; it is not part of the workload under
/// measurement).
fn capture_mean_regular_ns(report: &CaptureReport) -> f64 {
    let rk = ref_key();
    let (count, sum) = report
        .flows
        .iter()
        .filter(|(k, _)| *k != rk)
        .fold((0u64, 0u64), |(c, s), (_, f)| (c + f.count, s + f.sum_ns));
    if count == 0 {
        f64::NAN
    } else {
        sum as f64 / count as f64
    }
}

/// Run a replay: one capture through the tandem and its observers.
///
/// # Panics
///
/// If the entry spec does not parse or names a node past
/// [`ReplayConfig::NODES`], or the trace file cannot be opened.
pub fn run_replay(cfg: &ReplayConfig) -> ReplayOutcome {
    let entry = EntryMap::parse(&cfg.entry_spec)
        .and_then(|entry| entry.check(ReplayConfig::NODES).map(|()| entry))
        .unwrap_or_else(|e| panic!("invalid entry-map spec: {e}"));

    let open_file = |path: &PathBuf| {
        rlir_trace::open_pcap(path)
            .unwrap_or_else(|e| panic!("cannot open trace {}: {e:?}", path.display()))
    };

    let (run, vec_digest) = match &cfg.trace_path {
        Some(path) => {
            let run = replay_streamed(cfg, open_file(path), entry.clone());
            let vec_digest = cfg
                .verify_vs_vec
                .then(|| replay_vec(cfg, open_file(path), entry));
            (run, vec_digest)
        }
        None => {
            let bytes = synth_capture(cfg);
            let run = replay_streamed(
                cfg,
                PcapRecords::new(bytes.as_slice()).expect("fresh capture"),
                entry.clone(),
            );
            let vec_digest = cfg.verify_vs_vec.then(|| {
                replay_vec(
                    cfg,
                    PcapRecords::new(bytes.as_slice()).expect("fresh capture"),
                    entry,
                )
            });
            (run, vec_digest)
        }
    };

    let truth_mean_ns = if run.truth_n == 0 {
        f64::NAN
    } else {
        run.truth_sum as f64 / run.truth_n as f64
    };
    let capture_mean_ns = capture_mean_regular_ns(&run.capture);
    // An entry past S0 bypasses the pair's first point: nothing regular
    // is matched, and there is no truth to score against.
    let rel_err = |est: f64, truth: f64| {
        if est.is_nan() || truth.is_nan() {
            f64::NAN
        } else {
            rlir_stats::relative_error(est, truth)
        }
    };
    ReplayOutcome {
        generated_fallback: cfg.trace_path.is_none(),
        records_read: run.records_read,
        replayed: run.replayed,
        late_dropped: run.late_dropped,
        source_peak_buffered: run.peak_buffered,
        refs_emitted: run.refs_emitted,
        delivered: run.stats.delivered,
        events: run.stats.events,
        peak_live_slots: run.stats.peak_live_slots,
        capture_matched: run.capture.matched,
        capture_expired: run.capture.expired,
        capture_peak_pending: run.capture.peak_pending,
        capture_mean_ns,
        truth_mean_ns,
        capture_vs_truth_rel_err: rel_err(capture_mean_ns, truth_mean_ns),
        rli_est_mean_ns: run.est_mean_ns,
        rli_vs_capture_rel_err: rel_err(run.est_mean_ns, capture_mean_ns),
        ingest_identical: vec_digest.map(|d| d == run.digest),
        ingest_error: run.ingest_error,
        epochs: run.epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ReplayConfig {
        ReplayConfig::paper(47, SimDuration::from_millis(20))
    }

    #[test]
    fn fallback_replay_streams_and_matches_the_vec_oracle() {
        let out = run_replay(&quick_cfg());
        assert!(out.generated_fallback);
        assert!(out.records_read > 1_000, "records {}", out.records_read);
        assert_eq!(out.replayed, out.records_read, "sorted capture sheds none");
        assert_eq!(out.late_dropped, 0);
        assert!(out.refs_emitted > 0);
        assert_eq!(
            out.ingest_identical,
            Some(true),
            "streamed ingest must be byte-identical to the Vec oracle"
        );
        // The whole capture streamed through a buffer of a couple of
        // records — O(buffer), not O(run).
        assert!(
            out.source_peak_buffered <= 2,
            "ingest buffered {} records",
            out.source_peak_buffered
        );
    }

    #[test]
    fn capture_pair_is_faithful_and_rli_tracks_it() {
        let out = run_replay(&quick_cfg());
        // The external instrument agrees with the engine's internal truth
        // on the tandem (same packets, same endpoints).
        assert!(
            out.capture_vs_truth_rel_err < 1e-9,
            "capture vs truth {}",
            out.capture_vs_truth_rel_err
        );
        assert!(out.capture_matched > 1_000);
        // And the RLI estimate is accurate when judged by that external
        // truth, not only by simulator-internal state.
        assert!(
            out.rli_vs_capture_rel_err < 0.25,
            "rli vs capture {}",
            out.rli_vs_capture_rel_err
        );
        assert!(!out.epochs.is_empty());
    }

    #[test]
    fn explicit_trace_path_is_replayed() {
        let cfg = quick_cfg();
        let bytes = synth_capture(&cfg);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rlir-replay-test-{}.pcap", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mut cfg2 = cfg.clone();
        cfg2.trace_path = Some(path.clone());
        let from_file = run_replay(&cfg2);
        let fallback = run_replay(&cfg);
        std::fs::remove_file(&path).ok();
        assert!(!from_file.generated_fallback);
        // Same capture bytes, same scenario: identical replay.
        assert_eq!(from_file.records_read, fallback.records_read);
        assert_eq!(from_file.delivered, fallback.delivered);
        assert_eq!(
            from_file.capture_mean_ns.to_bits(),
            fallback.capture_mean_ns.to_bits()
        );
        assert_eq!(from_file.ingest_identical, Some(true));
    }

    #[test]
    fn truncated_capture_surfaces_the_ingest_error() {
        let cfg = quick_cfg();
        let bytes = synth_capture(&cfg);
        let full = run_replay(&cfg);
        assert_eq!(full.ingest_error, None);
        let path =
            std::env::temp_dir().join(format!("rlir-replay-truncated-{}.pcap", std::process::id()));
        // Half the capture: the cut lands inside a record.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let mut strict = cfg.clone();
        strict.trace_path = Some(path.clone());
        let cut = run_replay(&strict);
        let mut lenient = strict.clone();
        lenient.lenient = true;
        let tolerated = run_replay(&lenient);
        std::fs::remove_file(&path).ok();

        let err = cut.ingest_error.expect("a strict replay reports the cut");
        assert!(err.contains("truncated record"), "{err}");
        assert!(
            cut.records_read > 0 && cut.records_read < full.records_read,
            "stopped at {} of {}",
            cut.records_read,
            full.records_read
        );
        // Lenient ingest ends the damaged capture cleanly, as before.
        assert_eq!(tolerated.ingest_error, None);
        assert_eq!(tolerated.records_read, cut.records_read);
    }

    #[test]
    fn ref_interleave_matches_materialized_idiom() {
        // Drain the wrapper and rebuild the same stream the Vec idiom
        // produces; they must agree element for element.
        let cfg = quick_cfg();
        let bytes = synth_capture(&cfg);
        let entry = EntryMap::Fixed(S0);
        let pcap = PcapReplaySource::new(PcapRecords::new(bytes.as_slice()).unwrap(), entry, 0);
        let mut wrapped = RefInterleave::new(pcap, mk_sender(&cfg), S0);
        let mut streamed = Vec::new();
        while wrapped.peek().is_some() {
            streamed.push(wrapped.next_injection().unwrap());
        }

        let mut materialized = Vec::new();
        let mut sender = mk_sender(&cfg);
        let mut pcap2 = PcapReplaySource::new(
            PcapRecords::new(bytes.as_slice()).unwrap(),
            EntryMap::Fixed(S0),
            0,
        );
        while let Some((node, p)) = pcap2.next_injection() {
            for r in sender.observe(&p) {
                materialized.push((S0, *r));
            }
            materialized.push((node, p));
        }
        assert_eq!(streamed.len(), materialized.len());
        for (a, b) in streamed.iter().zip(&materialized) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.id, b.1.id);
            assert_eq!(a.1.created_at, b.1.created_at);
            assert_eq!(a.1.kind, b.1.kind);
        }
    }
}
