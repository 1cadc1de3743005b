//! Acceptance: two RLI taps attached to *different hops* of one simulation,
//! each validated against its own per-hop ground truth — the paper's
//! router-level deployment (§3) exercised through the measurement plane.
//!
//! Topology: a 3-switch line `S0 → S1 → S2 → host`. Sender 1 sits at the
//! injection point (S0) and interleaves references into the measured
//! stream; sender 2 is the mid-path instance at S1, emitting its own
//! reference stream from there (tx-stamped at S1, like the fat-tree's
//! core senders). Tap A listens to sender 1 at S1's ingress and must
//! recover the S0→S1 segment delay; tap B listens to sender 2 at the
//! delivery point and must recover the S1→host segment delay.

use rlir::plane::{MeasurementPlane, TapPoint, TapSpec, TruthRef};
use rlir_net::clock::ClockModel;
use rlir_net::packet::{Packet, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
use rlir_rli::{RliSender, StaticPolicy};
use rlir_sim::{
    run_network_streamed_source, Forwarder, Network, NodeId, Port, QueueConfig, RouteDecision,
    RunOptions, SortedVecSource,
};
use std::net::Ipv4Addr;

struct Chain;
impl Forwarder for Chain {
    fn route(&self, _node: NodeId, _p: &Packet) -> RouteDecision {
        RouteDecision::Forward(0)
    }
}

/// Processing-dominated queues: 10 µs per hop, negligible serialisation, so
/// per-hop delay is size-independent and the interpolation is near-exact.
fn qcfg() -> QueueConfig {
    QueueConfig {
        rate_bps: 8_000_000_000_000, // 1000 B/ns: tx ≈ 0
        capacity_bytes: 1 << 24,
        processing_delay: SimDuration::from_micros(10),
    }
}

fn flow(i: u8) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, i),
        5000 + i as u16,
        Ipv4Addr::new(10, 9, 0, 1),
        80,
    )
}

fn ref_key(port: u16) -> FlowKey {
    FlowKey::udp(
        Ipv4Addr::new(10, 0, 0, 250),
        port,
        Ipv4Addr::new(10, 9, 0, 250),
        rlir_net::wire::RLI_UDP_PORT,
    )
}

#[test]
fn two_taps_on_different_hops_recover_per_hop_truth() {
    let mut net = Network::default();
    let s0 = net.add_node("S0");
    let s1 = net.add_node("S1");
    let s2 = net.add_node("S2");
    let link = SimDuration::from_nanos(100);
    net.add_port(s0, Port::to_switch(qcfg(), s1, link));
    net.add_port(s1, Port::to_switch(qcfg(), s2, link));
    net.add_port(s2, Port::to_host(qcfg(), link));

    // Workload: three flows, 1200 packets, instrumented at S0 by sender 1.
    let mut injections: Vec<(NodeId, Packet)> = Vec::new();
    let mut sender1 = RliSender::new(
        SenderId(1),
        ClockModel::perfect(),
        StaticPolicy::one_in(10),
        vec![ref_key(40_000)],
    );
    for i in 0..1200u64 {
        let p = Packet::regular(i, flow((i % 3) as u8), 700, SimTime::from_nanos(i * 2_000));
        for r in sender1.observe(&p) {
            injections.push((s0, *r));
        }
        injections.push((s0, p));
    }
    // Sender 2: the mid-path instance at S1, its references tx-stamped
    // there (covers the S1 → host segment, like the fat-tree core senders).
    let mut sender2 = RliSender::new(
        SenderId(2),
        ClockModel::perfect(),
        StaticPolicy::one_in(1),
        vec![ref_key(41_000)],
    );
    for i in 0..240u64 {
        let at = SimTime::from_nanos(i * 10_000);
        let proxy = Packet::regular(0, ref_key(41_000), 700, at);
        for r in sender2.observe(&proxy) {
            injections.push((s1, *r));
        }
    }

    // Tap A: sender 1's receiver at S1 ingress — the S0→S1 hop.
    let mut plane = MeasurementPlane::new();
    let mut tap_a = TapSpec::new("S0→S1", TapPoint::NodeArrival(s1), SenderId(1));
    tap_a.truth = TruthRef::SinceInjection;
    plane.attach(tap_a);
    // Tap B: sender 2's receiver at the delivery point — the S1→host hop.
    let mut tap_b = TapSpec::new("S1→host", TapPoint::Delivery(s2), SenderId(2));
    tap_b.truth = TruthRef::SinceArrivalAt(vec![s1]);
    plane.attach(tap_b);

    let source = SortedVecSource::new(injections);
    let stats = run_network_streamed_source(
        net,
        &Chain,
        source,
        &mut plane,
        RunOptions::default(),
        |_| {},
    );
    assert!(stats.delivered > 1300, "{}", stats.delivered);
    let report = plane.finish();

    // Per-hop ground truth (no queueing at this load): one hop costs
    // 10 µs processing + ~0 tx + 100 ns link.
    let hop_ns = 10_100.0;
    let tap_a = &report.taps[0];
    let tap_b = &report.taps[1];
    assert!(tap_a.report.counters.estimated > 1000);
    assert!(tap_b.report.counters.estimated > 1000);

    // Tap A: estimates and truth must both equal one hop.
    for row in tap_a.report.flows.report(50) {
        let err = row.mean_rel_err.expect("truth recorded");
        assert!(err < 0.01, "tap A flow {} err {err}", row.flow);
        let truth = row.true_mean.expect("truth recorded");
        assert!(
            (truth - hop_ns).abs() < 50.0,
            "tap A truth {truth} ≠ one hop"
        );
    }
    // Tap B: estimates and truth must both equal the remaining two queues
    // (S1 and S2) — per-hop truth, not end-to-end.
    for row in tap_b.report.flows.report(50) {
        let err = row.mean_rel_err.expect("truth recorded");
        assert!(err < 0.01, "tap B flow {} err {err}", row.flow);
        let truth = row.true_mean.expect("truth recorded");
        assert!(
            (truth - 2.0 * hop_ns).abs() < 100.0,
            "tap B truth {truth} ≠ two hops"
        );
    }
    // And the segment view separates the hops.
    let segs = report.segments();
    assert_eq!(segs.len(), 2);
    assert!(segs[0].name == "S0→S1" && segs[1].name == "S1→host");
    assert!(
        segs[1].est_mean_ns > segs[0].est_mean_ns * 1.5,
        "downstream segment must cost ~2 hops vs 1: {} vs {}",
        segs[1].est_mean_ns,
        segs[0].est_mean_ns
    );
}
