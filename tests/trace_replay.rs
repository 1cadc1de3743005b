//! Differential and pinning tests for the streaming trace-replay ingest:
//!
//! * **Streamed vs Vec ingest** — replaying a pcap through the pull-based
//!   [`rlir_trace::PcapReplaySource`] must be byte-identical to draining
//!   the same capture into a `Vec` and handing it to the old
//!   collect-then-sort entry: identical `HopEvent`/watermark sequences
//!   (via [`rlir_sim::StreamDigest`]) *and* identical delivery streams,
//!   across calm, tie-heavy and drop-heavy regimes.
//! * **Pcap edge cases** — same-timestamp records keep write order
//!   through a replay round trip, nanosecond precision survives the
//!   seconds-field rollover, and truncated files are an error, not a
//!   silent end.
//! * **Capture-pair ground truth** — the two-point identity-matching
//!   capture pair (RFC 1242: same packet at both points, keyed on
//!   5-tuple + IP ident) reproduces the simulator's own truth span
//!   *exactly* on a tandem, end to end from pcap bytes.

use proptest::prelude::*;
use rlir::{CapturePair, TapPoint};
use rlir_net::packet::Packet;
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
use rlir_sim::{
    run_network_streamed_source, Forwarder, InjectionSource, Network, NodeId, Port, QueueConfig,
    RouteDecision, RunOptions, SortedVecSource, StreamDigest,
};
use rlir_trace::{read_pcap, EntryMap, PcapError, PcapRecords, PcapReplaySource, PcapWriter};
use std::net::Ipv4Addr;

fn flow(i: u8) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, i % 8, 1),
        1000 + i as u16,
        Ipv4Addr::new(10, 9, 0, 1),
        80,
    )
}

/// Serialize packets as a nanosecond pcap held in memory.
fn capture(packets: &[Packet]) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).expect("header");
    for p in packets {
        w.write(p).expect("record");
    }
    w.finish().expect("flush")
}

/// Build a time-sorted packet list from raw proptest tuples. Stable sort:
/// same-timestamp packets keep tuple order, which the pcap write order —
/// and therefore the replay source's seq tie-break — then preserves.
fn build_packets(raw: &[(u64, u32, u8)]) -> Vec<Packet> {
    let mut v: Vec<Packet> = raw
        .iter()
        .enumerate()
        .map(|(i, (at, size, f))| {
            Packet::regular(
                i as u64,
                flow(f % 8),
                40 + size % 1460,
                SimTime::from_nanos(*at),
            )
        })
        .collect();
    v.sort_by_key(|p| p.created_at);
    v
}

/// S0 --(rate/capacity queue, 1 µs link)--> S1, deliver at S1.
fn tandem(capacity_bytes: u64) -> Network {
    let mut net = Network::default();
    let a = net.add_node("S0");
    let b = net.add_node("S1");
    net.add_port(
        a,
        Port::to_switch(
            QueueConfig {
                rate_bps: 5_000_000_000,
                capacity_bytes,
                processing_delay: SimDuration::from_nanos(500),
            },
            b,
            SimDuration::from_micros(1),
        ),
    );
    net
}

struct Line;
impl Forwarder for Line {
    fn route(&self, node: NodeId, _p: &Packet) -> RouteDecision {
        if node == 1 {
            RouteDecision::Deliver
        } else {
            RouteDecision::Forward(0)
        }
    }
}

/// Digest of one full replay run: the entire hop-event + watermark stream
/// and the delivery stream, order-sensitive.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct RunFingerprint {
    events: u64,
    deliveries: u64,
    injected: u64,
    delivered: u64,
    dropped: u64,
}

fn fingerprint(source: impl InjectionSource, capacity_bytes: u64) -> RunFingerprint {
    let mut hops = StreamDigest::default();
    let mut deliveries = StreamDigest::default();
    let stats = run_network_streamed_source(
        tandem(capacity_bytes),
        &Line,
        source,
        &mut hops,
        RunOptions::default(),
        |d| {
            deliveries.fold(d.packet.id.0);
            deliveries.fold(d.delivered_at.as_nanos());
            deliveries.fold(d.injected_at.as_nanos());
            deliveries.fold(d.hops.len() as u64);
        },
    );
    RunFingerprint {
        events: hops.value(),
        deliveries: deliveries.value(),
        injected: stats.injected,
        delivered: stats.delivered,
        dropped: stats.queue_drops.iter().sum::<u64>() + stats.route_drops.iter().sum::<u64>(),
    }
}

/// The property under test: replaying `bytes` streamed off the reader is
/// byte-identical to materializing the same capture first.
fn assert_streamed_equals_vec(bytes: &[u8], capacity_bytes: u64) -> Result<(), TestCaseError> {
    let mk = || {
        PcapReplaySource::new(
            PcapRecords::new(bytes).expect("pcap header"),
            EntryMap::Fixed(0),
            0,
        )
    };

    let mut streamed_src = mk();
    let streamed = fingerprint(&mut streamed_src, capacity_bytes);
    prop_assert!(streamed_src.error().is_none());

    let mut vec_src = mk();
    let mut materialized = Vec::new();
    while vec_src.peek().is_some() {
        materialized.push(vec_src.next_injection().expect("peeked non-empty"));
    }
    let materialized_len = materialized.len();
    let vec = fingerprint(SortedVecSource::new(materialized), capacity_bytes);

    prop_assert_eq!(streamed, vec, "streamed ingest diverged from Vec ingest");
    prop_assert_eq!(streamed.injected, materialized_len as u64);
    // The streamed source never held more than a sliver of the capture:
    // this is the O(buffer) ingest claim, at property-test scale.
    prop_assert!(
        streamed_src.peak_buffered() <= 2,
        "sorted capture buffered {} records",
        streamed_src.peak_buffered()
    );
    Ok(())
}

proptest! {
    /// Calm regime: spread timestamps, roomy queue — everything delivers.
    #[test]
    fn streamed_equals_vec_calm(
        raw in proptest::collection::vec((0u64..2_000_000, 0u32..1460, any::<u8>()), 1..250)
    ) {
        let bytes = capture(&build_packets(&raw));
        assert_streamed_equals_vec(&bytes, 512 * 1024)?;
    }

    /// Tie-heavy regime: timestamps quantized onto a handful of values, so
    /// the seq/stable-sort tie-breaks do all the ordering work on both
    /// ingest paths.
    #[test]
    fn streamed_equals_vec_tie_heavy(
        slots in proptest::collection::vec(0u64..6, 1..250),
        sizes in proptest::collection::vec(0u32..1460, 1..250)
    ) {
        let raw: Vec<(u64, u32, u8)> = slots
            .iter()
            .zip(sizes.iter().cycle())
            .enumerate()
            .map(|(i, (s, sz))| (s * 10_000, *sz, (i % 5) as u8))
            .collect();
        let bytes = capture(&build_packets(&raw));
        assert_streamed_equals_vec(&bytes, 256 * 1024)?;
    }

    /// Drop-heavy regime: a tiny bottleneck queue forces enqueue drops, so
    /// the digests cover the drop events and counters too.
    #[test]
    fn streamed_equals_vec_drop_heavy(
        raw in proptest::collection::vec((0u64..60_000, 800u32..1460, any::<u8>()), 20..250)
    ) {
        let bytes = capture(&build_packets(&raw));
        assert_streamed_equals_vec(&bytes, 3_000)?;
    }

    /// End-to-end ground truth: replay a capture through the tandem with
    /// the two-point capture pair attached (A = injection arrival, B =
    /// delivery) and the identity-matched spans must equal the engine's
    /// own per-packet truth **exactly** — same count, same nanosecond sum.
    #[test]
    fn capture_pair_equals_simulator_truth_on_tandem(
        raw in proptest::collection::vec((0u64..500_000, 0u32..1460, any::<u8>()), 1..250),
        capacity in 3_000u64..200_000
    ) {
        let bytes = capture(&build_packets(&raw));
        let mut src = PcapReplaySource::new(
            PcapRecords::new(bytes.as_slice()).expect("pcap header"),
            EntryMap::Fixed(0),
            0,
        );
        let mut pair = CapturePair::new(TapPoint::NodeArrival(0), TapPoint::Delivery(1));
        let mut truth_sum = 0u64;
        let mut truth_n = 0u64;
        let stats = run_network_streamed_source(
            tandem(capacity),
            &Line,
            &mut src,
            &mut pair,
            RunOptions::default(),
            |d| {
                truth_sum += d.true_delay().as_nanos();
                truth_n += 1;
            },
        );
        let report = pair.finish();
        prop_assert_eq!(report.matched, stats.delivered);
        prop_assert_eq!(report.matched, truth_n);
        prop_assert_eq!(report.unmatched_b, 0);
        let (cap_n, cap_sum) = report
            .flows
            .iter()
            .fold((0u64, 0u64), |(n, s), (_, f)| (n + f.count, s + f.sum_ns));
        prop_assert_eq!(cap_n, truth_n);
        prop_assert_eq!(
            cap_sum, truth_sum,
            "wire-identity capture spans must equal engine truth to the nanosecond"
        );
    }
}

#[test]
fn same_timestamp_records_preserve_write_order() {
    // 40 records, all at t = 5 µs, distinguishable only by IP ident.
    let packets: Vec<Packet> = (0..40)
        .map(|i| Packet::regular(i, flow((i % 3) as u8), 900, SimTime::from_nanos(5_000)))
        .collect();
    let bytes = capture(&packets);

    // Decoded records come back in write order...
    let recs = read_pcap(&mut bytes.as_slice()).expect("decode");
    let idents: Vec<u16> = recs.iter().map(|r| r.ident).collect();
    assert_eq!(idents, (0u16..40).collect::<Vec<_>>());

    // ...and the replay source's (at, seq) tie-break keeps that order on
    // the way into the engine, with or without a reorder window.
    for reorder_ns in [0u64, 10_000] {
        let mut src = PcapReplaySource::new(
            PcapRecords::new(bytes.as_slice()).expect("header"),
            EntryMap::Fixed(0),
            reorder_ns,
        );
        let mut seen = Vec::new();
        while src.peek().is_some() {
            let (_, p) = src.next_injection().expect("peeked");
            seen.push((p.id.0 & 0xFFFF) as u16);
        }
        assert_eq!(seen, idents, "order broke with reorder_ns={reorder_ns}");
        assert_eq!(src.late_dropped(), 0);
    }
}

#[test]
fn an_unbounded_reorder_window_sorts_the_whole_capture() {
    // `u64::MAX` is the natural "full sort" window. Unchecked, `at + window`
    // panics in debug and wraps in release, where the wrapped sum releases
    // 500 first and late-drops the two records behind it.
    let packets: Vec<Packet> = [500u64, 100, 300]
        .iter()
        .enumerate()
        .map(|(i, t)| Packet::regular(i as u64, flow(1), 700, SimTime::from_nanos(*t)))
        .collect();
    let bytes = capture(&packets);
    let mut src = PcapReplaySource::new(
        PcapRecords::new(bytes.as_slice()).expect("header"),
        EntryMap::Fixed(0),
        u64::MAX,
    );
    let mut times = Vec::new();
    while src.peek().is_some() {
        let (_, p) = src.next_injection().expect("peeked");
        times.push(p.created_at.as_nanos());
    }
    assert_eq!(times, vec![100, 300, 500]);
    assert_eq!(src.late_dropped(), 0);
}

#[test]
fn nanosecond_precision_survives_second_rollover() {
    // Timestamps straddling the pcap sec/nsec field split: the sub-second
    // part rolls over at 1e9 and must reassemble to the exact nanosecond.
    let times = [
        0u64,
        999_999_998,
        999_999_999,
        1_000_000_000,
        1_000_000_001,
        2_999_999_999,
        3_000_000_000,
        u32::MAX as u64, // deep into the 4th second, odd nanos
    ];
    let packets: Vec<Packet> = times
        .iter()
        .enumerate()
        .map(|(i, t)| Packet::regular(i as u64, flow(1), 700, SimTime::from_nanos(*t)))
        .collect();
    let bytes = capture(&packets);
    let recs = read_pcap(&mut bytes.as_slice()).expect("decode");
    let back: Vec<u64> = recs.iter().map(|r| r.at.as_nanos()).collect();
    assert_eq!(back, times, "sec/nsec split lost nanosecond precision");

    // The consecutive-nanosecond neighbours around the rollover stay
    // strictly ordered through the replay source, too.
    let mut src = PcapReplaySource::new(
        PcapRecords::new(bytes.as_slice()).expect("header"),
        EntryMap::Fixed(0),
        0,
    );
    let mut prev = None;
    while src.peek().is_some() {
        let (_, p) = src.next_injection().expect("peeked");
        if let Some(prev) = prev {
            assert!(prev < p.created_at, "rollover broke ordering");
        }
        prev = Some(p.created_at);
    }
    assert_eq!(src.emitted(), times.len() as u64);
}

#[test]
fn truncated_capture_is_an_error_not_an_end() {
    let packets: Vec<Packet> = (0..8)
        .map(|i| Packet::regular(i, flow(2), 1000, SimTime::from_nanos(i * 100)))
        .collect();
    let full = capture(&packets);

    // Mid global header: the reader refuses to construct at all.
    assert!(PcapRecords::new(&full[..10]).is_err());

    // Mid record header and mid record body: iteration must surface
    // BadRecord, never silently stop at the tear.
    for cut in [full.len() - 3, full.len() - 20] {
        let torn = &full[..cut];
        let mut recs = PcapRecords::new(torn).expect("global header intact");
        let mut ok = 0usize;
        let err = loop {
            match recs.next() {
                Some(Ok(_)) => ok += 1,
                Some(Err(e)) => break e,
                None => panic!("truncated capture ended cleanly after {ok} records"),
            }
        };
        assert!(matches!(err, PcapError::BadRecord(_)), "got {err:?}");
        assert_eq!(ok, 7, "records before the tear must still decode");

        // The batch decoder agrees...
        assert!(read_pcap(&mut &torn[..]).is_err());

        // ...and the replay source plays everything before the tear, then
        // parks the error where the caller can see it.
        let mut src = PcapReplaySource::new(
            PcapRecords::new(torn).expect("header"),
            EntryMap::Fixed(0),
            0,
        );
        let mut n = 0;
        while src.peek().is_some() {
            src.next_injection().expect("peeked");
            n += 1;
        }
        assert_eq!(n, 7);
        assert!(matches!(src.error(), Some(PcapError::BadRecord(_))));
    }
}

/// Every injection a source emits, pulled the way the engine pulls (a
/// peek, then the take), and every counter it books once drained.
fn drain_books<R: std::io::Read>(src: &mut PcapReplaySource<R>) -> (Vec<(NodeId, Packet)>, String) {
    let mut out = Vec::new();
    while let Some(t) = src.peek() {
        let item = src.next_injection().expect("peeked");
        assert_eq!(item.1.created_at, t);
        out.push(item);
    }
    assert_eq!(src.peek(), None, "a drained source stays drained");
    let books = format!(
        "read {} emitted {} late {} peak {} clamped {} capped {} skipped {} error {:?}",
        src.records_read(),
        src.emitted(),
        src.late_dropped(),
        src.peak_buffered(),
        src.clamped_regressions(),
        src.dup_capped(),
        src.decoder().skipped_records(),
        src.error(),
    );
    (out, books)
}

/// `bytes` written to a file and read ahead through `from_path` replays
/// exactly what an inline source over the same bytes replays, and books
/// the same counters; returns those counters.
fn read_ahead_equals_inline(name: &str, bytes: &[u8], window: u64, lenient: bool) -> String {
    let path = std::env::temp_dir().join(format!("rlir_{}_{name}.pcap", std::process::id()));
    std::fs::write(&path, bytes).expect("temp capture");
    let ahead = PcapReplaySource::from_path(&path, EntryMap::SrcHash(vec![0, 1]), window);
    let mut ahead = ahead.expect("capture header");
    let inline = PcapReplaySource::new(
        PcapRecords::new(bytes).expect("capture header"),
        EntryMap::SrcHash(vec![0, 1]),
        window,
    );
    let mut inline = inline;
    if lenient {
        (ahead, inline) = (ahead.lenient(), inline.lenient());
    }
    let (ahead_out, ahead_books) = drain_books(&mut ahead);
    let (inline_out, inline_books) = drain_books(&mut inline);
    std::fs::remove_file(&path).expect("temp capture");
    assert_eq!(ahead_out.len(), inline_out.len(), "{name}");
    assert!(ahead_out == inline_out, "{name}: the streams differ");
    assert_eq!(ahead_books, inline_books, "{name}");
    // The read-ahead batches are ingest state: 3 × 256 injections of 64 B.
    assert_eq!(
        ahead.peak_buffered_bytes(),
        inline.peak_buffered_bytes() + 3 * 256 * 64,
        "{name}"
    );
    inline_books
}

/// `n` records 1 µs apart, each moved by `shift(i)` nanoseconds.
fn shifted_capture(n: u64, shift: impl Fn(u64) -> i64) -> Vec<u8> {
    let packets: Vec<Packet> = (0..n)
        .map(|i| {
            let at = (1_000_000 + i as i64 * 1_000 + shift(i)) as u64;
            Packet::regular(
                i,
                flow((i % 13) as u8),
                64 + (i % 1400) as u32,
                SimTime::from_nanos(at),
            )
        })
        .collect();
    capture(&packets)
}

#[test]
fn read_ahead_replays_what_the_inline_stage_replays() {
    // Sorted at window 0: several batches and a partial last one.
    let sorted = read_ahead_equals_inline("sorted", &shifted_capture(3_000, |_| 0), 0, false);
    assert!(
        sorted.starts_with("read 3000 emitted 3000 late 0"),
        "{sorted}"
    );
    // 50 µs of disorder inside a 100 µs window sheds nothing.
    let jitter = |i: u64| ((i * 7_919) % 50_000) as i64;
    let jittered =
        read_ahead_equals_inline("jitter", &shifted_capture(3_000, jitter), 100_000, false);
    assert!(jittered.contains("emitted 3000 late 0"), "{jittered}");
    // A record in 97 half a millisecond behind: past the window, shed.
    let late = |i: u64| if i.is_multiple_of(97) { -500_000 } else { 0 };
    let shed = read_ahead_equals_inline("late", &shifted_capture(3_000, late), 100_000, false);
    assert!(!shed.contains("late 0 "), "{shed}");
}

#[test]
fn read_ahead_replays_lenient_and_torn_captures_like_the_inline_stage() {
    // Late records to clamp, and runs of one wire identity to cap.
    let packets: Vec<Packet> = (0..2_000u64)
        .map(|i| {
            let at = 1_000_000 + i * 1_000 - if i.is_multiple_of(89) { 600_000 } else { 0 };
            let id = if (500..530).contains(&i) { 7 } else { i };
            Packet::regular(id, flow(1), 600, SimTime::from_nanos(at))
        })
        .collect();
    let bytes = capture(&packets);
    let lenient = read_ahead_equals_inline("lenient", &bytes, 50_000, true);
    assert!(!lenient.contains("clamped 0 "), "{lenient}");
    assert!(!lenient.contains("capped 0 "), "{lenient}");
    // Torn mid-record: everything before the tear plays, then the error.
    let torn = read_ahead_equals_inline("torn", &bytes[..bytes.len() - 7], 50_000, false);
    assert!(torn.contains("error Some(BadRecord"), "{torn}");
}

#[test]
fn a_read_ahead_source_dropped_mid_capture_returns() {
    let path = std::env::temp_dir().join(format!("rlir_{}_dropped.pcap", std::process::id()));
    std::fs::write(&path, shifted_capture(5_000, |_| 0)).expect("temp capture");
    let mut src = PcapReplaySource::from_path(&path, EntryMap::Fixed(0), 0).expect("header");
    for _ in 0..1_000 {
        src.next_injection().expect("5 000 records");
    }
    // Dropping hangs up on the worker and waits for it to return.
    drop(src);
    std::fs::remove_file(&path).expect("temp capture");
}
