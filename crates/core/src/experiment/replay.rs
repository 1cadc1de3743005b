//! Trace replay through the streaming ingest path, scored against an
//! **external** ground truth.
//!
//! The paper's evaluation replays real router captures (CAIDA OC-192)
//! through the simulated tandem. This harness is that front end on the
//! O(buffer)-ingest path: a nanosecond pcap — a file given on the command
//! line, or a synthetic capture generated and round-tripped through the
//! pcap encoder when none is — streams off disk as a pull-based
//! [`PcapReplaySource`], read ahead on one helper thread as the ledger's
//! replay is, and drives the tandem `S0 → S1 → host`, whose RLI
//! sender at `S0` puts its references in-band behind their triggers, with
//! three observers teed onto one hop-event stream:
//!
//! * an RLI tap at the delivery point (the estimate under test);
//! * a [`CapturePair`] stamping every packet at `S0`'s ingress and
//!   matching it again at delivery — per-flow latency by wire identity
//!   (RFC 1242), the measurement a pair of real capture points would
//!   make, independent of simulator-internal truth state; its matcher
//!   runs behind the engine on a helper thread of its own;
//! * a [`StreamDigest`] over the full event + watermark + delivery
//!   stream ([`ReplayOutcome::digest`]).
//!
//! ## The reorder window is measured, not configured
//!
//! Real captures are almost sorted: interleaved capture points and
//! timestamping jitter put a record somewhat behind records captured
//! after it. Before the replay, [`run_replay`] makes one decode pass over
//! the capture, in the replay's own strict or lenient mode, and takes the
//! window from it: the largest lag of a record's timestamp behind the
//! newest timestamp read before it ([`ReplayOutcome::reorder_ns`]). A
//! record is shed as late only when it is older than the last injection
//! emitted, and at that window nothing emitted can be newer than a record
//! still unread, so the replay drops nothing. A sorted capture — the
//! generated fallback among them — measures 0.

use super::drop_aware::{ref_key, Line, BOTTLENECK_BPS, EPOCH, S0, S1};
use crate::capture::{CapturePair, CaptureReport};
use crate::deployment::SenderSet;
use crate::plane::{MeasurementPlane, PlaneConfig, TapPoint, TapSpec, TruthRef};
use rlir_net::packet::SenderId;
use rlir_net::time::SimDuration;
use rlir_rli::{EpochSeries, PolicyKind};
use rlir_sim::{run_network_streamed_source, NetworkRunStats, RunOptions, StreamDigest, TeeSink};
use rlir_trace::{generate, EntryMap, PcapRecords, PcapReplaySource, PcapWriter, TraceConfig};
use std::io::{Cursor, Read};
use std::path::PathBuf;

/// Configuration of a trace replay: what to replay and how to read it.
/// The tandem is the drop-aware line run calm, so the capture pair
/// matches nearly every packet; the reorder window is measured from the
/// capture (see the module docs).
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
    /// Run the pcap path in lenient (skip-and-count) mode: damaged
    /// records are skipped with resync, time regressions clamped,
    /// duplicate wire identities capped. Strict mode (the default) fails
    /// fast on the first bad record.
    pub lenient: bool,
}

impl ReplayConfig {
    /// Defaults: the generated fallback capture, every record entering at
    /// `S0`, strict ingest.
    pub fn paper(seed: u64, duration: SimDuration) -> Self {
        ReplayConfig {
            seed,
            duration,
            trace_path: None,
            entry_spec: "fixed:0".to_string(),
            lenient: false,
        }
    }
}

/// Offered load of the fallback capture, as a fraction of the bottleneck
/// rate.
const TARGET_UTILIZATION: f64 = 0.7;

/// Reference-injection policy of the RLI sender at S0.
const POLICY: PolicyKind = PolicyKind::Static { n: 100 };

/// Bottleneck switch (S1) buffer — delivery happens after it.
const BOTTLENECK_BYTES: u64 = 256 * 1024;

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
    /// Reorder window the replay ran at, ns: the capture's disorder bound
    /// (see the module docs).
    pub reorder_ns: u64,
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
    /// Digest of the full event + watermark + delivery stream.
    pub digest: u64,
    /// The decode error that ended a strict replay early, if any: the
    /// stream stopped after [`records_read`](Self::records_read) records,
    /// and everything above describes only that prefix. Lenient ingest
    /// ends a damaged capture cleanly instead.
    pub ingest_error: Option<String>,
    /// RLI tap per-epoch series.
    pub epochs: EpochSeries,
}

impl ReplayConfig {
    /// Nodes of the replay tandem, `S0` and `S1`: the bound
    /// [`EntryMap::check`] holds an entry spec to.
    pub const NODES: usize = 2;
}

/// Generate the fallback capture: the synthetic regular trace encoded as
/// an in-memory nanosecond pcap, so the replay still exercises the full
/// decode path (record framing, ident round-trip, ToS restoration).
pub fn synth_capture(cfg: &ReplayConfig) -> Vec<u8> {
    let mut tc = TraceConfig::paper_regular(cfg.seed, cfg.duration);
    tc.link_rate_bps = BOTTLENECK_BPS;
    tc.target_utilization = TARGET_UTILIZATION;
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

/// The capture's disorder bound, ns: the largest lag of a record's
/// timestamp behind the newest one read before it, over the records a
/// replay in the same mode decodes (a strict decode error ends both).
fn disorder_ns<R: Read>(records: PcapRecords<R>, lenient: bool) -> u64 {
    let records = if lenient { records.lenient() } else { records };
    let mut newest = 0;
    records.map_while(Result::ok).fold(0, |bound, rec| {
        let at = rec.at.as_nanos();
        newest = newest.max(at);
        bound.max(newest - at)
    })
}

/// One streamed replay at `reorder_ns` with the full observer stack.
fn replay_streamed<R: Read + Send + 'static>(
    cfg: &ReplayConfig,
    records: PcapRecords<R>,
    entry: EntryMap,
    reorder_ns: u64,
) -> StreamedRun {
    let source = PcapReplaySource::new(records, entry, reorder_ns).read_ahead();
    let mut source = if cfg.lenient {
        source.lenient()
    } else {
        source
    };
    let mut senders = SenderSet::one(S0, Line::sender(&POLICY));

    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        epoch: Some(EPOCH),
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
            Line::network(BOTTLENECK_BYTES),
            &Line,
            &mut source,
            &mut sink,
            RunOptions {
                senders: Some(&mut senders),
                ..RunOptions::default()
            },
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
        records_read: source.records_read(),
        replayed: source.emitted(),
        late_dropped: source.late_dropped(),
        peak_buffered: source.peak_buffered(),
        refs_emitted: senders.refs_emitted(),
        ingest_error: source.error().map(|e| e.to_string()),
    }
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

    // Two passes over the capture: one measures the window, one replays.
    let (reorder_ns, run) = match &cfg.trace_path {
        Some(path) => {
            let open = || {
                rlir_trace::open_pcap(path)
                    .unwrap_or_else(|e| panic!("cannot open trace {}: {e:?}", path.display()))
            };
            let reorder_ns = disorder_ns(open(), cfg.lenient);
            (reorder_ns, replay_streamed(cfg, open(), entry, reorder_ns))
        }
        None => {
            let bytes = synth_capture(cfg);
            let reorder_ns = disorder_ns(
                PcapRecords::new(&bytes[..]).expect("fresh capture"),
                cfg.lenient,
            );
            let records = PcapRecords::new(Cursor::new(bytes)).expect("fresh capture");
            (reorder_ns, replay_streamed(cfg, records, entry, reorder_ns))
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
        reorder_ns,
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
        digest: run.digest,
        ingest_error: run.ingest_error,
        epochs: run.epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_sim::{InjectionSource, SortedVecSource};

    fn quick_cfg() -> ReplayConfig {
        ReplayConfig::paper(47, SimDuration::from_millis(20))
    }

    /// The oracle replay of `capture` at `S0`: drain the same source into a
    /// `Vec`, each packet followed by the references the sender emits on
    /// observing it, hand it to the collect-then-sort ingest with no
    /// in-band sender, digest the identical observable stream.
    fn replay_vec(capture: &[u8]) -> u64 {
        let records = PcapRecords::new(capture).unwrap();
        // Captures this module writes are sorted: window 0.
        let mut pcap = PcapReplaySource::new(records, EntryMap::Fixed(S0), 0);
        let (mut sender, mut injections) = (Line::sender(&POLICY), Vec::new());
        while let Some((node, p)) = pcap.next_injection() {
            injections.push((node, p));
            injections.extend(sender.observe(&p).iter().map(|r| (S0, *r)));
        }
        let mut digest = StreamDigest::default();
        let mut delivery_digest = StreamDigest::default();
        run_network_streamed_source(
            Line::network(BOTTLENECK_BYTES),
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

    #[test]
    fn fallback_replay_streams_and_matches_the_vec_oracle() {
        let out = run_replay(&quick_cfg());
        assert!(out.generated_fallback);
        assert!(out.records_read > 1_000, "records {}", out.records_read);
        assert_eq!(out.replayed, out.records_read, "sorted capture sheds none");
        assert_eq!(out.late_dropped, 0);
        assert_eq!(out.reorder_ns, 0, "a sorted capture measures no disorder");
        assert!(out.refs_emitted > 0);
        assert_eq!(
            out.digest,
            replay_vec(&synth_capture(&quick_cfg())),
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

    /// Bounded record disorder, as interleaved capture points produce it:
    /// exact timestamps, each record filed at its capture time plus a
    /// jitter below 50 µs.
    fn jittered_capture(cfg: &ReplayConfig) -> Vec<u8> {
        const JITTER_NS: u64 = 50_000;
        let mut tc = TraceConfig::paper_regular(cfg.seed, cfg.duration);
        tc.link_rate_bps = BOTTLENECK_BPS;
        tc.target_utilization = TARGET_UTILIZATION;
        let mut state = cfg.seed;
        let mut keyed: Vec<_> = generate(&tc)
            .packets
            .into_iter()
            .map(|p| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                ((p.created_at.as_nanos() + (state >> 33) % JITTER_NS), p)
            })
            .collect();
        keyed.sort_by_key(|(filed, _)| *filed);
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for (_, p) in &keyed {
            w.write(p).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn a_disordered_capture_replays_whole_at_its_measured_window() {
        let mut cfg = quick_cfg();
        let bytes = jittered_capture(&cfg);
        let path =
            std::env::temp_dir().join(format!("rlir-replay-jitter-{}.pcap", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        cfg.trace_path = Some(path.clone());
        let strict = run_replay(&cfg);
        cfg.lenient = true;
        let lenient = run_replay(&cfg);
        std::fs::remove_file(&path).ok();

        for out in [&strict, &lenient] {
            assert!(out.records_read > 1_000, "records {}", out.records_read);
            assert_eq!(out.late_dropped, 0, "window {} ns", out.reorder_ns);
            assert_eq!(out.replayed, out.records_read);
            assert!(
                (1..=50_000).contains(&out.reorder_ns),
                "measured window {} ns",
                out.reorder_ns
            );
            assert!(out.rli_vs_capture_rel_err < 0.25);
        }
        // Nothing arrives out of the measured window, so lenient mode has
        // nothing to clamp and replays the strict stream.
        assert_eq!(lenient.digest, strict.digest);
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
        assert_eq!(from_file.digest, fallback.digest);
        assert_eq!(from_file.digest, replay_vec(&bytes));
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
}
