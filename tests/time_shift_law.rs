//! Metamorphic law: a time shift changes no estimate. Every injection of a
//! seeded k=4 fat-tree mix moves `k` whole epochs later; every tap's flow
//! report must come out bit for bit the same, and its epoch series the
//! same up to an epoch index offset of `k`.

use proptest::prelude::*;
use rlir::plane::{MeasurementPlane, PlaneConfig, PlaneReport, TapPoint, TapSpec, TruthRef};
use rlir::{build_network, FatTreeFabric};
use rlir_net::clock::ClockModel;
use rlir_net::hash::HashAlgo;
use rlir_net::packet::{Packet, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::{wire::RLI_UDP_PORT, FlowKey};
use rlir_rli::{EpochSnapshot, ReceiverReport, RliSender, StaticPolicy};
use rlir_sim::{run_network_streamed_source, QueueConfig, RunOptions, SortedVecSource};
use rlir_topo::FatTree;

const EPOCH_NS: u64 = 100_000;

/// The mix, `shift` epochs late: one reference stream from the first ToR
/// to the last, 3 000 regulars between random ToR pairs (half of them from
/// the first), delivered-gated taps at the last ToR and at every core.
fn run(seed: u64, shift: u64) -> PlaneReport {
    let tree = FatTree::new(4, HashAlgo::default());
    let tors: Vec<usize> = tree.tors().collect();
    let (src, dst) = (tors[0], tors[7]);
    let host = |tor, h: u64| tree.host_addr(tor, h as usize % 4);
    let refs = FlowKey::udp(host(src, 0), 40_000, host(dst, 0), RLI_UDP_PORT);
    let policy = StaticPolicy::one_in(8);
    let mut sender = RliSender::new(SenderId(1), ClockModel::perfect(), policy, vec![refs]);
    let mut injections = Vec::new();
    for i in 0..3_000u64 {
        let r = (seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let from = [src, tors[(r >> 4) as usize % 8]][(r >> 1) as usize % 2];
        let to = [dst, tors[(r >> 12) as usize % 8]][(r >> 2) as usize % 2];
        let flow = FlowKey::tcp(
            host(from, r >> 24),
            1000 + (r >> 28) as u16 % 64,
            host(to, 0),
            80,
        );
        let at = SimTime::from_nanos(shift * EPOCH_NS + i * 300 + (r >> 20) % 200);
        let p = Packet::regular(i, flow, 100 + (r >> 40) as u32 % 1400, at);
        if from == src {
            injections.extend(sender.observe(&p).iter().map(|r| (src, *r)));
        }
        injections.push((from, p));
    }
    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        reorder_window: SimDuration::from_micros(50),
        epoch: Some(SimDuration::from_nanos(EPOCH_NS)),
        ..PlaneConfig::default()
    });
    let taps = [
        (dst, TruthRef::SinceInjection),
        (dst, TruthRef::SinceArrivalAt(vec![src])),
    ];
    let cores = tree.cores().map(|c| (c, TruthRef::SinceInjection));
    for (i, (node, truth)) in taps.into_iter().chain(cores).enumerate() {
        let mut tap = TapSpec::new(format!("tap{i}"), TapPoint::NodeArrival(node), SenderId(1));
        (tap.delivered_only, tap.truth, tap.track_quantile) = (true, truth, Some(0.99));
        plane.attach(tap);
    }
    let net = build_network(
        &tree,
        QueueConfig::oc192(),
        SimDuration::from_nanos(500),
        &[],
    );
    run_network_streamed_source(
        net,
        &FatTreeFabric::new(&tree, true),
        SortedVecSource::new(injections),
        &mut plane,
        RunOptions::default(),
        |_| {},
    );
    plane.finish()
}

/// Every field of every flow report and of every epoch moved back `shift`
/// epochs, as text: `Debug` prints each float to the digits that round-trip
/// it, so equal text is equal bits for every float but NaN (moments
/// included).
fn fields(r: &ReceiverReport, shift: u64) -> (Vec<String>, Vec<String>) {
    let flows = r.flows.report(1).map(|f| format!("{f:?}")).collect();
    let epochs = r.epochs.iter().map(|e| EpochSnapshot {
        epoch: e.epoch - shift,
        start: SimTime::from_nanos(e.start.as_nanos() - shift * EPOCH_NS),
        ..e
    });
    (flows, epochs.map(|e| format!("{e:?}")).collect())
}

proptest! {
    #[test]
    fn a_shift_by_whole_epochs_changes_no_estimate(seed in any::<u64>(), k in 1u64..=1_000) {
        let (base, moved) = (run(seed, 0), run(seed, k));
        let estimated: u64 = base.taps.iter().map(|t| t.report.counters.estimated).sum();
        prop_assert!(estimated > 0, "the mix estimates nothing");
        prop_assert_eq!(base.taps.len(), moved.taps.len());
        for (b, m) in base.taps.iter().zip(&moved.taps) {
            prop_assert_eq!((b.late, m.late), (0, 0), "{}: the window is too narrow", b.name);
            let (b_flows, b_epochs) = fields(&b.report, 0);
            let (m_flows, m_epochs) = fields(&m.report, k);
            prop_assert_eq!(b_flows, m_flows, "{}: a flow report moved", b.name);
            prop_assert_eq!(b_epochs, m_epochs, "{}: the series moved", b.name);
        }
    }
}
