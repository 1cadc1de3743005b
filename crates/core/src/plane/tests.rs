use super::records::RECLAIM_GRAIN;
use super::window::{block_index, run_len, BLOCK};
use super::*;
use crate::localization::{localize, LocalizerConfig, SegmentObservation};
use proptest::prelude::*;
use rlir_net::packet::Packet;
use rlir_net::{FlowKey, Protocol};
use rlir_rli::EpochSeries;
use rlir_sim::Hop;
use std::net::Ipv4Addr;

pub(super) fn fk(i: u8) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, i),
        1,
        Ipv4Addr::new(10, 1, 0, 1),
        80,
    )
}

pub(super) fn deliver_ev<'e>(
    packet: &'e Packet,
    hops: &'e [Hop],
    node: NodeId,
    at_ns: u64,
) -> HopEvent<'e> {
    HopEvent {
        kind: HopKind::Deliver,
        node,
        at: SimTime::from_nanos(at_ns),
        packet,
        injected_node: 0,
        injected_at: packet.created_at,
        hops,
    }
}

#[test]
fn delivery_tap_estimates_and_scores_against_injection_truth() {
    let mut plane = MeasurementPlane::new();
    plane.attach(TapSpec::new("end", TapPoint::Delivery(2), SenderId(1)));
    let hops = [];
    let r0 = Packet::reference(10, fk(9), SenderId(1), 0, SimTime::ZERO);
    plane.on_hop(&deliver_ev(&r0, &hops, 2, 100)); // delay 100
    let p = Packet::regular(11, fk(1), 700, SimTime::from_nanos(40));
    plane.on_hop(&deliver_ev(&p, &hops, 2, 150)); // truth 110
    let r1 = Packet::reference(12, fk(9), SenderId(1), 1, SimTime::from_nanos(60));
    plane.on_hop(&deliver_ev(&r1, &hops, 2, 200)); // delay 140
    let rep = plane.finish();
    assert_eq!(rep.taps.len(), 1);
    let flows = &rep.taps[0].report.flows;
    let acc = flows.get(&fk(1)).expect("metered");
    // left 100@100, right 140@200 → estimate at 150 = 120; truth 110.
    assert_eq!(acc.est.mean(), Some(120.0));
    assert_eq!(acc.truth.mean(), Some(110.0));
    let seg = rep.taps[0].segment().expect("scored");
    assert_eq!(seg.packets, 1);
}

#[test]
fn delivered_only_node_tap_reconstructs_hop_crossings() {
    let mut plane = MeasurementPlane::new();
    let mut spec = TapSpec::new("mid", TapPoint::NodeArrival(1), SenderId(1));
    spec.truth = TruthRef::SinceInjection;
    spec.delivered_only = true;
    plane.attach(spec);
    // Packet injected at t=0, arrives node 1 at t=500, delivered 900.
    let hops = [crossed(0, 0), crossed(1, 500)];
    let r0 = Packet::reference(1, fk(9), SenderId(1), 0, SimTime::ZERO);
    plane.on_hop(&deliver_ev(&r0, &[crossed(1, 100)], 2, 400)); // seen at node1 @100, delay 100
    let p = Packet::regular(2, fk(1), 700, SimTime::ZERO);
    plane.on_hop(&deliver_ev(&p, &hops, 2, 900)); // seen at node1 @500, truth 500
    let r1 = Packet::reference(3, fk(9), SenderId(1), 1, SimTime::from_nanos(500));
    plane.on_hop(&deliver_ev(&r1, &[crossed(1, 700)], 2, 1000)); // seen @700, delay 200
    let rep = plane.finish();
    let acc = rep.taps[0].report.flows.get(&fk(1)).expect("metered");
    // left 100@100, right 200@700 → at 500: 100 + 100·(400/600) ≈ 166.67
    let est = acc.est.mean().unwrap();
    assert!((est - 166.666).abs() < 0.01, "est {est}");
    assert_eq!(acc.truth.mean(), Some(500.0));
    assert_eq!(rep.taps[0].dropped_metered, 0, "delivered-gated taps");
}

#[test]
fn meter_and_ref_map_gate_the_tap() {
    let mut plane = MeasurementPlane::new();
    let mut spec = TapSpec::new("gated", TapPoint::Delivery(2), SenderId(7));
    // Only meter flow fk(1); rewrite every reference to sender 7.
    spec.meter = Some(Box::new(|ev| ev.packet.flow == fk(1)));
    spec.ref_map = Some(Box::new(|info| {
        Some(ReferenceInfo {
            sender: SenderId(7),
            ..*info
        })
    }));
    plane.attach(spec);
    let hops = [];
    let r0 = Packet::reference(1, fk(9), SenderId(3), 0, SimTime::ZERO);
    plane.on_hop(&deliver_ev(&r0, &hops, 2, 100));
    let keep = Packet::regular(2, fk(1), 700, SimTime::ZERO);
    let drop = Packet::regular(3, fk(2), 700, SimTime::ZERO);
    plane.on_hop(&deliver_ev(&keep, &hops, 2, 150));
    plane.on_hop(&deliver_ev(&drop, &hops, 2, 160));
    let r1 = Packet::reference(4, fk(9), SenderId(3), 1, SimTime::from_nanos(100));
    plane.on_hop(&deliver_ev(&r1, &hops, 2, 200));
    let rep = plane.finish();
    let report = &rep.taps[0].report;
    assert_eq!(report.counters.refs_accepted, 2, "rewritten refs accepted");
    assert_eq!(report.counters.estimated, 1, "only fk(1) metered");
    assert!(report.flows.get(&fk(2)).is_none());
}

#[test]
fn buffered_taps_sort_by_time_then_delivery_order() {
    // Observations arrive out of delivery order (as Deliver events do);
    // the drain must reorder by (at, delivered, id).
    let mut plane = MeasurementPlane::new();
    let mut spec = TapSpec::new("mid", TapPoint::NodeArrival(1), SenderId(1));
    spec.truth = TruthRef::NoTruth;
    spec.delivered_only = true;
    plane.attach(spec);
    // Regular seen at node1 @150 but delivered late (at 900).
    let p = Packet::regular(5, fk(1), 700, SimTime::ZERO);
    // References bracket it, delivered earlier.
    let r0 = Packet::reference(1, fk(9), SenderId(1), 0, SimTime::ZERO);
    let r1 = Packet::reference(2, fk(9), SenderId(1), 1, SimTime::from_nanos(60));
    // Feed in "wrong" order: closing ref first.
    plane.on_hop(&deliver_ev(&r1, &[crossed(1, 200)], 2, 300));
    plane.on_hop(&deliver_ev(&p, &[crossed(1, 150)], 2, 900));
    plane.on_hop(&deliver_ev(&r0, &[crossed(1, 100)], 2, 250));
    let rep = plane.finish();
    let report = &rep.taps[0].report;
    assert_eq!(report.counters.estimated, 1, "packet bracketed after sort");
    // left delay 100@100, right delay 140@200 → at 150: 120.
    let acc = report.flows.get(&fk(1)).expect("metered");
    assert_eq!(acc.est.mean(), Some(120.0));
    assert_eq!(rep.taps[0].late, 0);
}

#[test]
fn two_live_taps_see_different_hops_of_one_event_stream() {
    let mut plane = MeasurementPlane::new();
    for node in [0usize, 1] {
        let mut spec = TapSpec::new(format!("n{node}"), TapPoint::NodeArrival(node), SenderId(1));
        spec.ordered = true;
        spec.truth = TruthRef::SinceInjection;
        plane.attach(spec);
    }
    let r0 = Packet::reference(1, fk(9), SenderId(1), 0, SimTime::ZERO);
    let p = Packet::regular(2, fk(1), 700, SimTime::ZERO);
    let r1 = Packet::reference(3, fk(9), SenderId(1), 1, SimTime::from_nanos(100));
    // Node 0 sees everything early, node 1 sees it all 500 ns later.
    for (node, shift) in [(0usize, 0u64), (1, 500)] {
        plane.on_hop(&arrive_ev(&r0, node, 10 + shift));
        plane.on_hop(&arrive_ev(&p, node, 20 + shift));
        plane.on_hop(&arrive_ev(&r1, node, 110 + shift));
    }
    let rep = plane.finish();
    assert_eq!(rep.taps.len(), 2);
    let m0 = rep.taps[0].report.flows.get(&fk(1)).unwrap().est.mean();
    let m1 = rep.taps[1].report.flows.get(&fk(1)).unwrap().est.mean();
    assert!(m1.unwrap() > m0.unwrap() + 400.0, "{m0:?} vs {m1:?}");
}

#[test]
fn an_ordered_tap_refuses_what_comes_before_its_last_observation() {
    // The feed runs backwards once: a regular at 200 after the one at 300
    // was fed is late, like an observation behind a flush bound.
    let mut plane = MeasurementPlane::new();
    let mut spec = TapSpec::new("in-order", TapPoint::NodeArrival(0), SenderId(1));
    spec.ordered = true;
    plane.attach(spec);
    let r0 = Packet::reference(1, fk(9), SenderId(1), 0, SimTime::ZERO);
    let p = Packet::regular(2, fk(1), 700, SimTime::ZERO);
    let behind = Packet::regular(3, fk(1), 700, SimTime::ZERO);
    let r1 = Packet::reference(4, fk(9), SenderId(1), 1, SimTime::from_nanos(300));
    for (packet, at) in [(&r0, 100), (&p, 300), (&behind, 200), (&r1, 400)] {
        plane.on_hop(&arrive_ev(packet, 0, at));
    }
    let rep = plane.finish();
    let c = rep.taps[0].report.counters;
    // Never fed: the late regular is not even seen.
    assert_eq!((rep.taps[0].late, c.estimated, c.regulars_seen), (1, 1, 1));
}

/// Build an Arrive event at `node`.
pub(super) fn arrive_ev<'e>(packet: &'e Packet, node: NodeId, at_ns: u64) -> HopEvent<'e> {
    HopEvent {
        kind: HopKind::Arrive,
        node,
        at: SimTime::from_nanos(at_ns),
        packet,
        injected_node: 0,
        injected_at: packet.created_at,
        hops: &[],
    }
}

#[test]
fn watermark_streams_estimates_before_finish() {
    // The tentpole behaviour: with the watermark advancing, a live tap
    // produces per-epoch results *during* the run, bounded memory.
    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        reorder_window: SimDuration::from_nanos(500),
        epoch: Some(SimDuration::from_nanos(1_000)),
        ..PlaneConfig::default()
    });
    let idx = plane.attach(TapSpec::new("live", TapPoint::NodeArrival(0), SenderId(1)));
    let r0 = Packet::reference(1, fk(9), SenderId(1), 0, SimTime::ZERO);
    let p = Packet::regular(2, fk(1), 700, SimTime::ZERO);
    let r1 = Packet::reference(3, fk(9), SenderId(1), 1, SimTime::from_nanos(100));
    plane.on_watermark(SimTime::from_nanos(100));
    plane.on_hop(&arrive_ev(&r0, 0, 100));
    plane.on_hop(&arrive_ev(&p, 0, 150));
    plane.on_hop(&arrive_ev(&r1, 0, 240));
    // Watermark far past the window: everything flushes, the estimate
    // exists mid-run.
    plane.on_watermark(SimTime::from_nanos(5_000));
    let estimated: u64 = plane.epoch_series(idx).iter().map(|e| e.estimated).sum();
    assert_eq!(estimated, 1, "estimate must be produced before finish");
    let rep = plane.finish();
    assert_eq!(rep.taps[0].report.counters.estimated, 1);
    assert_eq!(rep.taps[0].late, 0);
    assert!(rep.taps[0].peak_pending <= 3);
}

#[test]
fn late_observations_are_counted_not_fed() {
    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        reorder_window: SimDuration::from_nanos(10),
        epoch: None,
        ..PlaneConfig::default()
    });
    let mut spec = TapSpec::new("mid", TapPoint::NodeArrival(1), SenderId(1));
    spec.delivered_only = true;
    plane.attach(spec);
    // Watermark sprints ahead: window for t=100 closes at 110.
    plane.on_watermark(SimTime::from_nanos(10_000));
    let p = Packet::regular(5, fk(1), 700, SimTime::ZERO);
    plane.on_hop(&deliver_ev(&p, &[crossed(1, 100)], 2, 10_000)); // seen @100: late
    let rep = plane.finish();
    assert_eq!(rep.taps[0].late, 1);
    assert_eq!(rep.taps[0].report.counters.regulars_seen, 0);
}

#[test]
fn window_cap_sheds_regulars_but_admits_references() {
    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        epoch: Some(SimDuration::from_nanos(100)),
        ..PlaneConfig::default()
    });
    let mut spec = TapSpec::new("capped", TapPoint::NodeArrival(0), SenderId(1));
    spec.max_buffer = 2;
    plane.attach(spec);
    let r0 = Packet::reference(1, fk(9), SenderId(1), 0, SimTime::ZERO);
    plane.on_hop(&arrive_ev(&r0, 0, 100));
    let regs: Vec<Packet> = (0..4)
        .map(|i| Packet::regular(10 + i, fk(1), 700, SimTime::ZERO))
        .collect();
    for (i, p) in regs.iter().enumerate() {
        plane.on_hop(&arrive_ev(p, 0, 110 + i as u64));
    }
    // The closing reference exceeds the cap but must be admitted.
    let r1 = Packet::reference(9, fk(9), SenderId(1), 1, SimTime::from_nanos(100));
    plane.on_hop(&arrive_ev(&r1, 0, 200));
    let rep = plane.finish();
    let tap = &rep.taps[0];
    assert_eq!(tap.shed, 3, "cap 2: ref + 1 regular fit, 3 shed");
    assert_eq!(tap.report.counters.refs_accepted, 2);
    assert_eq!(tap.report.counters.estimated, 1);
    // Shed observations are honest per-epoch unestimated counts.
    assert_eq!(tap.report.counters.regulars_seen, 4);
    assert_eq!(tap.report.counters.unestimated, 3);
    let epoch1 = tap.report.epochs.iter().next().expect("epoch 1 exists");
    assert_eq!(epoch1.epoch, 1);
    assert_eq!(epoch1.unestimated, 3);
}

#[test]
fn live_tap_counts_downstream_deaths_per_epoch() {
    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        epoch: Some(SimDuration::from_nanos(1_000)),
        ..PlaneConfig::default()
    });
    plane.attach(TapSpec::new("live", TapPoint::NodeArrival(0), SenderId(1)));
    let r0 = Packet::reference(1, fk(9), SenderId(1), 0, SimTime::ZERO);
    let p1 = Packet::regular(2, fk(1), 700, SimTime::ZERO);
    let p2 = Packet::regular(3, fk(1), 700, SimTime::ZERO);
    let r1 = Packet::reference(4, fk(9), SenderId(1), 1, SimTime::from_nanos(200));
    plane.on_hop(&arrive_ev(&r0, 0, 100));
    plane.on_hop(&arrive_ev(&p1, 0, 150));
    plane.on_hop(&arrive_ev(&p2, 0, 160));
    plane.on_hop(&arrive_ev(&r1, 0, 300));
    // p2 dies downstream at node 1, having crossed node 0 at t=160.
    plane.on_hop(&HopEvent {
        kind: HopKind::QueueDrop { port: 0 },
        node: 1,
        at: SimTime::from_nanos(260),
        packet: &p2,
        injected_node: 0,
        injected_at: SimTime::ZERO,
        hops: &[crossed(0, 160)],
    });
    let rep = plane.finish();
    let tap = &rep.taps[0];
    // Both regulars were estimated — the tap is live.
    assert_eq!(tap.report.counters.estimated, 2);
    assert_eq!(tap.dropped_metered, 1);
    let epoch0 = tap
        .report
        .epochs
        .iter()
        .find(|e| e.epoch == 0)
        .expect("epoch 0 exists");
    assert_eq!(epoch0.dropped_after_metering, 1);
    assert_eq!(epoch0.estimated, 2);
}

#[test]
fn epoch_localization_ranks_segments_per_epoch() {
    // Three delivery taps; tap "bad" spikes only in epoch 1 (so the
    // per-epoch median stays anchored by the two healthy segments).
    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        epoch: Some(SimDuration::from_nanos(10_000)),
        ..PlaneConfig::default()
    });
    for (name, node) in [("good-a", 2usize), ("good-b", 3), ("bad", 4)] {
        let mut spec = TapSpec::new(name, TapPoint::Delivery(node), SenderId(1));
        spec.truth = TruthRef::NoTruth;
        plane.attach(spec);
    }
    // One epoch of one tap: a reference bracket with the given path
    // delay, all deliveries inside [epoch_base, epoch_base + 10 µs).
    let mut id = 100u64;
    let mut feed_epoch = |node: NodeId, epoch_base: u64, delay: u64| {
        let tx0 = epoch_base + 100 - delay.min(epoch_base + 100);
        let r0 = Packet::reference(id, fk(9), SenderId(1), 0, SimTime::from_nanos(tx0));
        id += 1;
        plane.on_hop(&deliver_ev(&r0, &[], node, epoch_base + 100));
        for k in 0..12u64 {
            let p = Packet::regular(id, fk(1), 700, SimTime::from_nanos(epoch_base));
            id += 1;
            plane.on_hop(&deliver_ev(&p, &[], node, epoch_base + 200 + k * 20));
        }
        let tx1 = epoch_base + 500 - delay;
        let r1 = Packet::reference(id, fk(9), SenderId(1), 1, SimTime::from_nanos(tx1));
        id += 1;
        plane.on_hop(&deliver_ev(&r1, &[], node, epoch_base + 500));
    };
    for node in [2usize, 3, 4] {
        feed_epoch(node, 0, 100); // epoch 0: everyone healthy
    }
    feed_epoch(2, 10_000, 100);
    feed_epoch(3, 10_000, 100);
    feed_epoch(4, 10_000, 4_000); // the epoch-1 anomaly
    let rep = plane.finish();
    let cfg = LocalizerConfig {
        factor: 3.0,
        min_packets: 5,
    };
    let epochs = rep.localize_epochs(&cfg);
    let flagged: Vec<(u64, &str)> = epochs
        .iter()
        .flat_map(|e| e.findings.iter().map(move |f| (e.epoch, f.name.as_str())))
        .collect();
    assert_eq!(
        flagged,
        vec![(1, "bad")],
        "exactly the epoch-1 anomaly must be flagged"
    );
    assert_eq!(epochs[1].start.as_nanos(), 10_000);
}

#[test]
fn epoch_localization_on_offset_and_gapped_series_matches_a_linear_scan() {
    // Series that start at different epochs and skip some: the lookup
    // must find exactly the snapshots a per-epoch linear scan finds.
    let series_of = |epochs: &[(u64, f64)]| {
        let mut s = EpochSeries::new(1_000);
        for &(epoch, est) in epochs {
            for _ in 0..10 {
                s.estimate(SimTime::from_nanos(epoch * 1_000), est, None);
            }
        }
        s
    };
    let a = series_of(&[(3, 100.0), (4, 100.0), (7, 100.0)]);
    let b = series_of(&[(4, 110.0), (5, 90.0), (7, 105.0)]);
    let c = series_of(&[(5, 95.0), (6, 100.0), (7, 2_000.0)]);
    let none = EpochSeries::default();
    let series: Vec<(&str, &EpochSeries)> = vec![("a", &a), ("b", &b), ("c", &c), ("d", &none)];
    let cfg = LocalizerConfig {
        factor: 3.0,
        min_packets: 5,
    };
    let got = localize_epoch_series(&series, 1_000, &cfg);
    let render = |e: &EpochFindings| {
        let names: Vec<&str> = e.findings.iter().map(|f| f.name.as_str()).collect();
        (e.epoch, e.start.as_nanos(), names.join(","))
    };
    let want: Vec<(u64, u64, String)> = (3..=7u64)
        .map(|epoch| {
            let segs: Vec<SegmentObservation> = series
                .iter()
                .filter_map(|(name, s)| {
                    let snap = s.iter().find(|e| e.epoch == epoch)?;
                    Some(SegmentObservation {
                        name: (*name).to_string(),
                        est_mean_ns: snap.est_mean()?,
                        true_mean_ns: f64::NAN,
                        packets: snap.estimated,
                    })
                })
                .collect();
            let names: Vec<String> = localize(&segs, &cfg).into_iter().map(|f| f.name).collect();
            (epoch, epoch * 1_000, names.join(","))
        })
        .collect();
    assert_eq!(got.iter().map(render).collect::<Vec<_>>(), want);
    assert_eq!(want[4].2, "c", "the epoch-7 outlier must be the finding");
}

/// A delivered-gated `NodeArrival(node)` tap scoring nothing.
pub(super) fn gated_tap(name: &str, node: NodeId) -> TapSpec<'static> {
    let mut spec = TapSpec::new(name, TapPoint::NodeArrival(node), SenderId(1));
    spec.truth = TruthRef::NoTruth;
    spec.delivered_only = true;
    spec
}

pub(super) fn crossed(node: NodeId, at_ns: u64) -> Hop {
    Hop {
        node,
        port: 0,
        arrived: SimTime::from_nanos(at_ns),
        departed: SimTime::from_nanos(at_ns),
    }
}

pub(super) fn streaming(window_ns: u64) -> PlaneConfig {
    PlaneConfig {
        reorder_window: SimDuration::from_nanos(window_ns),
        ..PlaneConfig::default()
    }
}

#[test]
fn equal_time_equal_delivery_ties_feed_in_packet_id_order() {
    // Two references cross the tap at the same instant and are
    // delivered at the same instant: only the packet id orders them.
    // The receiver interpolates from the one fed last, so the estimate
    // tells which that was — and must not depend on which delivery the
    // engine happened to report first (the order their records land in).
    for first_reported in [3u64, 9] {
        let mut plane = MeasurementPlane::new();
        plane.attach(gated_tap("mid", 1));
        // id 3 took 200 ns to the tap, id 9 took 100 ns.
        let tx = |id: u64| SimTime::from_nanos(if id == 3 { 0 } else { 100 });
        let both_at = [crossed(1, 200)];
        for id in [first_reported, 12 - first_reported] {
            let r = Packet::reference(id, fk(9), SenderId(1), id as u32, tx(id));
            plane.on_hop(&deliver_ev(&r, &both_at, 2, 500));
        }
        let p = Packet::regular(20, fk(1), 700, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&p, &[crossed(1, 250)], 2, 600));
        let close = Packet::reference(21, fk(9), SenderId(1), 30, SimTime::from_nanos(200));
        plane.on_hop(&deliver_ev(&close, &[crossed(1, 300)], 2, 700));
        let rep = plane.finish();
        let acc = rep.taps[0].report.flows.get(&fk(1)).expect("metered");
        // Fed 3 then 9: left is 9's 100 ns @200, right 100 ns @300.
        assert_eq!(
            acc.est.mean(),
            Some(100.0),
            "id {first_reported} reported first"
        );
        assert_eq!(rep.records_made, 4);
    }
}

#[test]
fn several_taps_share_one_record_and_a_mapped_reference_gets_its_own() {
    let mut plane = MeasurementPlane::new();
    for node in [1, 2, 3] {
        plane.attach(gated_tap("shared", node));
    }
    let mut mapped = gated_tap("mapped", 3);
    mapped.ref_map = Some(Box::new(|info| Some(*info)));
    plane.attach(mapped);
    let path = [crossed(1, 100), crossed(2, 200), crossed(3, 300)];
    let entry = std::mem::size_of::<WindowEntry>();
    let record = std::mem::size_of::<EventRecord>();
    let empty = plane.approx_state_bytes();

    let p = Packet::regular(1, fk(1), 700, SimTime::ZERO);
    plane.on_hop(&deliver_ev(&p, &path, 9, 400));
    assert_eq!(
        plane.records.made(),
        1,
        "four taps, one regular: one record"
    );
    assert_eq!(plane.approx_state_bytes(), empty + 4 * entry + record);

    let r = Packet::reference(2, fk(9), SenderId(1), 0, SimTime::ZERO);
    plane.on_hop(&deliver_ev(&r, &path, 9, 500));
    assert_eq!(plane.records.made(), 3, "the mapping tap keeps its own");
    assert_eq!(plane.approx_state_bytes(), empty + 8 * entry + 3 * record);

    let rep = plane.finish();
    assert_eq!((rep.records_made, rep.peak_records), (3, 3));
    for tap in &rep.taps {
        assert_eq!(tap.report.counters.refs_accepted, 1);
        assert_eq!(tap.report.counters.regulars_seen, 1);
    }
}

#[test]
fn filtered_and_refused_observations_make_no_record() {
    let mut plane = MeasurementPlane::with_config(streaming(100));
    let mut metered = gated_tap("metered", 1);
    metered.meter = Some(Box::new(|ev| ev.packet.flow != fk(2)));
    metered.ref_map = Some(Box::new(|_| None));
    plane.attach(metered);
    let mut full = gated_tap("full", 2);
    full.max_buffer = 0;
    plane.attach(full);
    plane.attach(gated_tap("crashed", 3));
    plane.tap_down(SimTime::ZERO, 3);
    plane.on_watermark(SimTime::from_nanos(10_000));
    let before = plane.approx_state_bytes();

    let unmetered = Packet::regular(1, fk(2), 700, SimTime::ZERO);
    plane.on_hop(&deliver_ev(&unmetered, &[crossed(1, 9_990)], 9, 10_000));
    let unmapped = Packet::reference(2, fk(9), SenderId(1), 0, SimTime::ZERO);
    plane.on_hop(&deliver_ev(&unmapped, &[crossed(1, 9_990)], 9, 10_000));
    let late = Packet::regular(3, fk(1), 700, SimTime::ZERO);
    plane.on_hop(&deliver_ev(&late, &[crossed(1, 50)], 9, 10_000));
    let shed = Packet::regular(4, fk(1), 700, SimTime::ZERO);
    plane.on_hop(&deliver_ev(&shed, &[crossed(2, 9_990)], 9, 10_000));
    let lost = Packet::regular(5, fk(1), 700, SimTime::ZERO);
    plane.on_hop(&deliver_ev(&lost, &[crossed(3, 9_990)], 9, 10_000));

    assert_eq!(plane.approx_state_bytes(), before);
    let rep = plane.finish();
    assert_eq!((rep.records_made, rep.peak_records), (0, 0));
    assert_eq!(
        (
            rep.taps[0].late,
            rep.taps[1].shed,
            rep.taps[2].lost_window_obs
        ),
        (1, 1, 1)
    );
}

#[test]
fn peak_records_track_the_window_not_the_run() {
    // One delivery every 100 ns that crossed two taps 250 and 150 ns
    // earlier, the watermark on its heels.
    let run = |deliveries: u64| {
        let mut plane = MeasurementPlane::with_config(streaming(1_000));
        plane.attach(gated_tap("a", 1));
        plane.attach(gated_tap("b", 2));
        for i in 0..deliveries {
            let now = 1_000 + i * 100;
            plane.on_watermark(SimTime::from_nanos(now));
            let p = Packet::regular(i, fk(1), 700, SimTime::ZERO);
            let path = [crossed(1, now - 250), crossed(2, now - 150)];
            plane.on_hop(&deliver_ev(&p, &path, 9, now));
        }
        let rep = plane.finish();
        assert_eq!(rep.taps[0].late + rep.taps[1].late, 0);
        (rep.records_made, rep.peak_records, rep.peak_pending_total)
    };
    let (made, peak, pending) = run(400);
    let (made_10x, peak_10x, pending_10x) = run(4_000);
    assert_eq!((made, made_10x), (400, 4_000));
    assert_eq!(peak, peak_10x);
    assert_eq!(pending, pending_10x);
    // 1.5 windows of deliveries plus the half-window flush grain.
    assert!((10..=21).contains(&peak), "peak records {peak}");
}

#[test]
fn entries_just_ahead_of_the_watermark_do_not_cost_half_a_window_of_records() {
    // A delivery is reported when the packet joins its last queue, so
    // the last hop's departure runs a little ahead of the watermark. A
    // checkpoint per flush alone would be vouched for by a time just
    // past that flush's watermark, and wait for the next flush but one.
    let (window, spacing, ahead) = (100_000u64, 10u64, 50u64);
    let mut plane = MeasurementPlane::with_config(streaming(window));
    let mut egress = gated_tap("last-hop", 1);
    egress.point = TapPoint::PortDeparture(1, 0);
    plane.attach(egress);
    for i in 0..60_000u64 {
        let now = window + i * spacing;
        plane.on_watermark(SimTime::from_nanos(now));
        let p = Packet::regular(i, fk(1), 700, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&p, &[crossed(1, now + ahead)], 9, now + ahead));
    }
    let rep = plane.finish();
    assert_eq!(rep.taps[0].late, 0);
    // One and a half windows of deliveries, plus the grain.
    let bound = (window + window / 2 + ahead) / spacing + 2 * RECLAIM_GRAIN;
    assert!(
        (rep.peak_records as u64) < bound,
        "peak records {} over {bound}",
        rep.peak_records
    );
    // One tap: a record per entry, freed at most a grain later.
    assert!(rep.peak_records as u64 <= rep.peak_pending_total as u64 + RECLAIM_GRAIN);
}

#[test]
fn departures_ahead_of_the_watermark_hold_their_records() {
    // A live egress tap hears of a departure when the packet is
    // dequeued, stamped with the time its last bit will have left: up
    // to 3 windows past the watermark here, so flushes come and go
    // while the entry waits. Its record must wait with it — and the
    // records of the gated tap's deliveries queued behind it.
    let outcome = |reorder_window: SimDuration| {
        let mut plane = MeasurementPlane::with_config(PlaneConfig {
            reorder_window,
            ..PlaneConfig::default()
        });
        let mut live = TapSpec::new("egress", TapPoint::PortDeparture(1, 0), SenderId(1));
        live.truth = TruthRef::SinceInjection;
        plane.attach(live);
        plane.attach(gated_tap("mid", 2));
        for i in 0..600u64 {
            let now = 1_000 + i * 50;
            plane.on_watermark(SimTime::from_nanos(now));
            let ahead = (i * 7 % 13) * 100;
            let packet = if i % 10 == 0 {
                Packet::reference(i, fk(9), SenderId(1), i as u32, SimTime::from_nanos(now))
            } else {
                Packet::regular(i, fk((i % 3) as u8), 700, SimTime::from_nanos(now))
            };
            plane.on_hop(&HopEvent {
                kind: HopKind::Dequeue {
                    port: 0,
                    arrived: SimTime::from_nanos(now),
                },
                node: 1,
                at: SimTime::from_nanos(now + ahead),
                packet: &packet,
                injected_node: 0,
                injected_at: packet.created_at,
                hops: &[],
            });
            plane.on_hop(&deliver_ev(&packet, &[crossed(2, now - 30)], 9, now));
        }
        let rep = plane.finish();
        let taps: Vec<_> = rep
            .taps
            .iter()
            .map(|t| {
                let c = t.report.counters;
                let est = t.report.flows.aggregate_est_mean().map(f64::to_bits);
                (c.refs_accepted, c.estimated, est, t.late)
            })
            .collect();
        (taps, rep.records_made, rep.peak_records)
    };
    let (streamed, made, peak) = outcome(SimDuration::from_nanos(400));
    // A window wider than the run: one sort at `finish()`.
    let (oracle, oracle_made, oracle_peak) = outcome(SimDuration::MAX);
    assert_eq!(streamed, oracle);
    assert_eq!(streamed[0].3 + streamed[1].3, 0, "nothing may be late");
    assert_eq!((made, oracle_made, oracle_peak), (1_200, 1_200, 1_200));
    assert!(peak < 200, "records must still be reclaimed: peak {peak}");
}

#[test]
fn a_crashed_taps_records_go_with_the_next_flush_past_them() {
    let mut plane = MeasurementPlane::with_config(streaming(100));
    plane.attach(gated_tap("crashes", 1));
    plane.attach(gated_tap("survives", 2));
    let empty = plane.approx_state_bytes();
    let entry = std::mem::size_of::<WindowEntry>();
    let record = std::mem::size_of::<EventRecord>();
    plane.on_watermark(SimTime::from_nanos(1_000));
    for i in 0..5u64 {
        let r = Packet::reference(i, fk(9), SenderId(1), i as u32, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&r, &[crossed(1, 990 + i)], 9, 1_000));
    }
    let kept = Packet::reference(7, fk(9), SenderId(1), 7, SimTime::ZERO);
    plane.on_hop(&deliver_ev(&kept, &[crossed(2, 2_000)], 9, 2_000));
    assert_eq!(plane.approx_state_bytes(), empty + 6 * (entry + record));
    plane.tap_down(SimTime::from_nanos(1_000), 1);
    // The entries are freed at once; the records wait for the sweep.
    assert_eq!(plane.approx_state_bytes(), empty + entry + 6 * record);
    // Flushed to 1 000: past the crashed tap's five, short of the sixth.
    plane.on_watermark(SimTime::from_nanos(1_100));
    assert_eq!(plane.records.fifo.len(), 6, "one checkpoint covers all six");
    let newer = Packet::reference(8, fk(9), SenderId(1), 8, SimTime::ZERO);
    plane.on_hop(&deliver_ev(&newer, &[crossed(2, 2_000)], 9, 2_000));
    plane.on_watermark(SimTime::from_nanos(2_050));
    assert_eq!(plane.records.fifo.len(), 7);
    plane.on_watermark(SimTime::from_nanos(2_200));
    assert_eq!(plane.records.fifo.len(), 0);
    assert_eq!(plane.approx_state_bytes(), empty);
    let rep = plane.finish();
    assert_eq!(rep.taps[0].lost_window_obs, 5);
    assert_eq!(rep.taps[1].report.counters.refs_accepted, 2);
}

#[test]
fn a_mapped_reference_between_two_sharers_does_not_free_their_record() {
    // One reference crosses a plain tap, a mapping tap and a second
    // plain tap. The mapping tap's own record lands between the first
    // sharer's entry and the second's — a checkpoint taken there would
    // vouch for the shared record with a time the second entry exceeds.
    let mut plane = MeasurementPlane::with_config(streaming(100));
    plane.attach(gated_tap("first", 1));
    let mut mapped = gated_tap("mapped", 2);
    mapped.ref_map = Some(Box::new(|info| Some(*info)));
    plane.attach(mapped);
    plane.attach(gated_tap("last", 3));
    plane.on_watermark(SimTime::from_nanos(1_000));
    // Fill the FIFO so the mapping tap's record is the one a grain ends on.
    for i in 0..RECLAIM_GRAIN - 1 {
        let p = Packet::regular(i, fk(1), 700, SimTime::ZERO);
        plane.on_hop(&deliver_ev(&p, &[crossed(1, 1_000)], 9, 1_000));
    }
    let r = Packet::reference(9_000, fk(9), SenderId(1), 0, SimTime::ZERO);
    let path = [crossed(1, 1_000), crossed(2, 1_000), crossed(3, 1_400)];
    plane.on_hop(&deliver_ev(&r, &path, 9, 1_400));
    assert_eq!(plane.records.made(), RECLAIM_GRAIN + 1);
    // Flushed to 1 200: past everything but the last tap's entry.
    plane.on_watermark(SimTime::from_nanos(1_300));
    assert_eq!(plane.pending(2), 1);
    plane.on_watermark(SimTime::from_nanos(2_000));
    let rep = plane.finish();
    for tap in &rep.taps {
        assert_eq!(tap.report.counters.refs_accepted, 1, "{}", tap.name);
    }
}

#[test]
fn hot_tap_record_fits_two_cache_lines() {
    // Exact, not a ceiling: the run is a 12-byte pool handle where a
    // per-tap `Vec` took 24 (96 → 80 bytes).
    assert_eq!(std::mem::size_of::<Run>(), 12);
    assert_eq!(std::mem::size_of::<HotTap>(), 80);
}

#[test]
fn handles_convert_checked_up_to_u32_max() {
    let max = u32::MAX as usize;
    assert_eq!(
        (tap_index(max), block_index(max), run_len(max)),
        (u32::MAX, u32::MAX, u32::MAX)
    );
}

#[test]
#[should_panic(expected = "a plane routes at most 2^32 taps")]
fn a_tap_index_past_u32_does_not_alias_tap_0() {
    tap_index(1 << 32);
}

#[test]
#[should_panic(expected = "a window pool holds at most 2^32 blocks")]
fn a_block_index_past_u32_does_not_wrap() {
    block_index(1 << 32);
}

#[test]
#[should_panic(expected = "a reorder run holds at most 2^32 - 1 entries")]
fn a_run_cannot_outgrow_its_length() {
    let mut run = Run {
        len: u32::MAX,
        ..Run::default()
    };
    Runs::default().push(&mut run, WindowEntry::default());
}

#[test]
fn a_burst_takes_the_blocks_another_taps_flush_freed() {
    // Two taps burst in turn, each a window's worth of deliveries at a
    // time: the second burst reuses the first's blocks, so the pool is
    // one burst big, not two.
    let mut plane = MeasurementPlane::with_config(streaming(1_000));
    plane.attach(gated_tap("a", 1));
    plane.attach(gated_tap("b", 2));
    let burst = 3 * BLOCK as u64 + 5;
    let mut id = 0;
    for round in 0..4u64 {
        let now = 10_000 * (round + 1);
        let tap = round as usize % 2;
        plane.on_watermark(SimTime::from_nanos(now));
        for k in 0..burst {
            // Arrivals in reverse: the flush must sort them.
            let p = Packet::regular(id, fk(1), 700, SimTime::ZERO);
            id += 1;
            let hop = [crossed(1 + tap, now - 1 - k % 500)];
            plane.on_hop(&deliver_ev(&p, &hop, 9, now));
        }
        let pool = plane.window_pool();
        assert_eq!(plane.pending(tap), burst as usize);
        // Both in use and made: the other tap's blocks were reused.
        assert_eq!((pool.blocks, pool.free), (4, 0), "round {round}");
    }
    let rep = plane.finish();
    assert_eq!(rep.taps[0].late + rep.taps[1].late, 0);
    assert_eq!(rep.peak_pending_total, burst as usize);
}

/// Store `rec` behind `reclaimed` earlier records and one entry for
/// it, scored or not, and read back what a flush would feed:
/// `(at, tie, id)` and the payload.
fn round_trip(
    reclaimed: u64,
    rec: EventRecord,
    at: u64,
    scored: bool,
) -> ((u64, u64, u64), Payload) {
    let mut records = Records {
        base: reclaimed,
        ..Records::default()
    };
    let pos = records.push_shared(rec);
    let entry = records.entry(SimTime::from_nanos(at), scored, pos);
    let stored = records.get(&entry);
    ((entry.at, stored.tie, stored.id), stored.payload(&entry))
}

proptest! {
    #[test]
    fn regular_entries_round_trip_every_flow_key_and_truth(
        addrs in (any::<u32>(), any::<u32>()),
        ports in (any::<u16>(), any::<u16>()),
        // 0 / 1: the named variants; otherwise `Other(n)` for every n,
        // the non-canonical `Other(6)` and `Other(17)` included.
        proto in (0u8..6, any::<u8>()),
        truth in 0u8..4,
        key in (any::<u64>(), any::<u64>(), any::<u64>()),
        // Every stream position an entry can name: 63 bits.
        reclaimed in 0u64..(1 << 63) - 1,
    ) {
        let proto = match proto {
            (0, _) => Protocol::Tcp,
            (1, _) => Protocol::Udp,
            (2, _) => Protocol::Other(6),
            (3, _) => Protocol::Other(17),
            (_, n) => Protocol::Other(n),
        };
        let flow = FlowKey {
            src: Ipv4Addr::from(addrs.0),
            dst: Ipv4Addr::from(addrs.1),
            proto,
            sport: ports.0,
            dport: ports.1,
        };
        // Truth is `at − since`, saturating: zero, `at` itself (up to
        // `u64::MAX`), anything between — or absent, whatever `since` says.
        let (at, tie, id) = key;
        let since = match truth {
            1 => at,
            2 => 0,
            _ => key.2 ^ key.0,
        };
        let scored = truth != 0;
        let truth = scored.then(|| SimDuration::from_nanos(at.saturating_sub(since)));
        let rec = |flow: &FlowKey| EventRecord::regular(tie, id, flow, SimTime::from_nanos(since));
        let got = round_trip(reclaimed, rec(&flow), at, scored);
        prop_assert_eq!(got, (key, Payload::Regular { flow, truth }));
        // The derived equality tells `Other(6)` from `Tcp`; so must the
        // record.
        for named in [Protocol::Tcp, Protocol::Udp] {
            if proto != named {
                let other = FlowKey { proto: named, ..flow };
                let named = round_trip(reclaimed, rec(&other), at, scored);
                prop_assert_ne!(got.1, named.1);
            }
        }
    }

    #[test]
    fn reference_entries_round_trip_every_reference_info(
        sender in any::<u16>(),
        seq in any::<u32>(),
        tx in any::<u64>(),
        key in (any::<u64>(), any::<u64>(), any::<u64>()),
        reclaimed in 0u64..(1 << 63) - 1,
    ) {
        let info = ReferenceInfo {
            sender: SenderId(sender),
            seq,
            tx_timestamp: SimTime::from_nanos(tx),
        };
        let (at, tie, id) = key;
        let got = round_trip(reclaimed, EventRecord::reference(tie, id, &info), at, false);
        prop_assert_eq!(got, (key, Payload::Reference(info)));
    }

    #[test]
    fn the_pending_books_are_the_run_lengths_after_every_step(
        raw in proptest::collection::vec((0u8..100, 0u64..10_000, any::<u64>()), 50..600),
        budget in 0usize..80,
        max_buffer in 1usize..48,
    ) {
        // Four delivered-gated taps in two tenants, capped on both axes
        // (a fifth of the cases without a budget); deliveries crossing
        // random subsets of them, some behind the flush bound; watermarks;
        // crashes and recoveries.
        let window = 1_000u64;
        let mut plane = MeasurementPlane::with_config(PlaneConfig {
            pending_budget: (budget >= 16).then(|| budget - 15),
            ..streaming(window)
        });
        plane.set_tenant_weight(1, 2);
        for node in 1..=4 {
            let mut spec = gated_tap("t", node);
            (spec.tenant, spec.max_buffer) = ((node % 2) as u32, max_buffer);
            plane.attach(spec);
        }
        let mut clock = 2 * window;
        for (i, &(op, x, y)) in raw.iter().enumerate() {
            let (at, node) = (SimTime::from_nanos(clock), 1 + (y % 4) as usize);
            match op {
                0..=79 => {
                    let hops: Vec<Hop> = (1..=4)
                        .filter(|n| y >> n & 1 == 1)
                        .map(|n| crossed(n, clock - (x ^ y >> (8 * n)) % (window + window / 4)))
                        .collect();
                    let p = if y % 5 == 0 {
                        Packet::reference(i as u64, fk(9), SenderId(1), i as u32, SimTime::ZERO)
                    } else {
                        Packet::regular(i as u64, fk((y % 3) as u8), 700, SimTime::ZERO)
                    };
                    plane.on_hop(&deliver_ev(&p, &hops, 9, clock));
                }
                80..=91 => {
                    clock += x % window;
                    plane.on_watermark(SimTime::from_nanos(clock));
                }
                92..=95 => plane.tap_down(at, node),
                _ => plane.tap_up(at, node),
            }
            let mut own = vec![0; plane.tenants.len()];
            for t in &plane.taps {
                own[t.tenant_slot as usize] += t.run.len();
            }
            let books: Vec<usize> = plane.tenants.iter().map(|t| t.pending).collect();
            let want = (own.iter().sum::<usize>(), own);
            prop_assert_eq!((plane.totals.pending, books), want, "after step {}", i);
        }
        plane.finish();
    }
}
