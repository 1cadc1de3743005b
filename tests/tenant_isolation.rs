//! Tenant isolation: a flooding tenant cannot perturb a victim tenant's
//! estimates by a single bit.
//!
//! The plane's `pending_budget` is a hierarchy (PR 10): each tenant owns
//! a weighted share of the cap, a tenant under its share is always
//! admitted, and one at-or-over its share may only borrow headroom that
//! no other tenant has reserved. These tests drive two disjoint chains
//! through one shared plane — the victim tap in tenant 0, the flood tap
//! in tenant 1 — over processing-dominated queues, so the victim's packet
//! timing is identical in every run and any estimate difference can only
//! come from plane-side cross-talk.
//!
//! The single-tenant reduction (hierarchy == flat check bit-for-bit when
//! every tap is tenant 0) is pinned globally by `tests/rewiring_pins.rs`;
//! here it gets two direct checks: a sole tenant's weight is inert, and
//! with no budget at all the tenant dimension is pure accounting.

use rlir::experiment::{run_fattree, FatTreeExpConfig};
use rlir::plane::{
    DrainMode, MeasurementPlane, PlaneConfig, PlaneReport, TapPoint, TapSpec, TruthRef,
};
use rlir_net::clock::ClockModel;
use rlir_net::packet::{Packet, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
use rlir_rli::{PolicyKind, RliSender, StaticPolicy};
use rlir_sim::{run_network_with, Forwarder, Network, NodeId, Port, QueueConfig, RouteDecision};
use std::net::Ipv4Addr;

struct Chain;
impl Forwarder for Chain {
    fn route(&self, _node: NodeId, _p: &Packet) -> RouteDecision {
        RouteDecision::Forward(0)
    }
}

/// Processing-dominated queues: per-hop delay is occupancy-independent.
fn qcfg() -> QueueConfig {
    QueueConfig {
        rate_bps: 8_000_000_000_000,
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

/// Two disjoint chains (`a0→a1→host`, `b0→b1→host`) through one plane:
/// the victim tap (tenant 0, weight `w0`) at `a1`, the flood tap
/// (tenant 1, weight `w1`) at `b1`. `flood` regular packets are squeezed
/// into the victim's span at 10× its rate.
fn run(with_flood: bool, budget: Option<usize>, w0: u64, w1: u64) -> PlaneReport {
    let mut net = Network::default();
    let a0 = net.add_node("A0");
    let a1 = net.add_node("A1");
    let b0 = net.add_node("B0");
    let b1 = net.add_node("B1");
    let link = SimDuration::from_nanos(100);
    net.add_port(a0, Port::to_switch(qcfg(), a1, link));
    net.add_port(a1, Port::to_host(qcfg(), link));
    net.add_port(b0, Port::to_switch(qcfg(), b1, link));
    net.add_port(b1, Port::to_host(qcfg(), link));

    let mut injections: Vec<(NodeId, Packet)> = Vec::new();
    let mut sender = RliSender::new(
        SenderId(1),
        ClockModel::perfect(),
        StaticPolicy::one_in(10),
        vec![ref_key(40_000)],
    );
    // Victim workload: 2 µs spacing against a 10 µs reorder window keeps
    // its pending depth far under any share exercised here.
    for i in 0..2_000u64 {
        let p = Packet::regular(i, flow((i % 3) as u8), 700, SimTime::from_nanos(i * 2_000));
        for r in sender.observe(&p) {
            injections.push((a0, *r));
        }
        injections.push((a0, p));
    }
    if with_flood {
        for i in 0..20_000u64 {
            let p = Packet::regular(
                (1 << 32) | i,
                flow(200 + (i % 3) as u8),
                700,
                SimTime::from_nanos(i * 200),
            );
            injections.push((b0, p));
        }
    }

    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        drain: DrainMode::Streaming {
            reorder_window: SimDuration::from_micros(10),
        },
        epoch: Some(SimDuration::from_micros(500)),
        pending_budget: budget,
    });
    // Both tenants are declared in every run, so the share split never
    // changes; only the flood's traffic does.
    plane.set_tenant_weight(0, w0);
    plane.set_tenant_weight(1, w1);
    let mut victim = TapSpec::new("victim", TapPoint::NodeArrival(a1), SenderId(1));
    victim.truth = TruthRef::SinceInjection;
    victim.tenant = 0;
    plane.attach(victim);
    let mut flood = TapSpec::new("flood", TapPoint::NodeArrival(b1), SenderId(2));
    flood.tenant = 1;
    plane.attach(flood);

    run_network_with(net, &Chain, injections, &mut plane);
    plane.finish()
}

fn fold(h: u64, bits: u64) -> u64 {
    h.rotate_left(7) ^ bits.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Bit-exact digest of one tap's per-epoch series.
fn digest_tap_epochs(report: &PlaneReport, tap: usize) -> u64 {
    report.taps[tap].report.epochs.iter().fold(0u64, |h, e| {
        let h = fold(h, e.epoch);
        let h = fold(h, e.estimated);
        let h = fold(h, e.unestimated);
        fold(h, e.est_mean().unwrap_or(f64::NAN).to_bits())
    })
}

#[test]
fn flooding_tenant_cannot_move_a_victims_estimates() {
    let alone = run(false, Some(128), 1, 1);
    let flooded = run(true, Some(128), 1, 1);
    // The flood really overwhelmed its own share...
    let ft = &flooded.tenants[1];
    assert!(ft.shed > 0, "flood was never shed — not a storm");
    assert!(
        ft.peak_pending * 2 >= ft.share,
        "flood never reached its share"
    );
    // ...while the victim's series stayed byte-identical.
    assert!(
        !alone.taps[0].report.epochs.is_empty(),
        "victim produced no epochs"
    );
    assert_eq!(
        digest_tap_epochs(&alone, 0),
        digest_tap_epochs(&flooded, 0),
        "victim epochs moved under a neighbouring tenant's flood"
    );
    // And the victim tenant was never shed.
    assert_eq!(flooded.tenants[0].shed, 0, "victim shed under flood");
}

#[test]
fn per_tenant_books_balance_under_flood() {
    let report = run(true, Some(128), 3, 1);
    for t in &report.tenants {
        assert_eq!(
            t.offered,
            t.admitted + t.shed,
            "tenant {} books don't balance",
            t.id
        );
    }
    // Weighted shares: tenant 0 reserved 3/4 of the cap.
    assert_eq!(report.tenants[0].share, 96);
    assert_eq!(report.tenants[1].share, 32);
}

#[test]
fn sole_tenants_weight_is_inert() {
    // With every tap in one tenant its share is the whole cap no matter
    // the weight — the hierarchy must reduce to the flat check.
    let digest = |w: u64| {
        let mut plane = MeasurementPlane::with_config(PlaneConfig {
            drain: DrainMode::Streaming {
                reorder_window: SimDuration::from_micros(10),
            },
            epoch: Some(SimDuration::from_micros(500)),
            pending_budget: Some(64),
        });
        plane.set_tenant_weight(0, w);
        let mut net = Network::default();
        let a0 = net.add_node("A0");
        let a1 = net.add_node("A1");
        let link = SimDuration::from_nanos(100);
        net.add_port(a0, Port::to_switch(qcfg(), a1, link));
        net.add_port(a1, Port::to_host(qcfg(), link));
        let mut injections: Vec<(NodeId, Packet)> = Vec::new();
        // Burst fast enough to overflow the 64-deep budget (100 ns
        // spacing against the 10 µs window ⇒ ~100 concurrent pending),
        // so the check itself is exercised, not just bypassed.
        for i in 0..4_000u64 {
            injections.push((
                a0,
                Packet::regular(i, flow((i % 3) as u8), 700, SimTime::from_nanos(i * 100)),
            ));
        }
        let mut tap = TapSpec::new("sole", TapPoint::NodeArrival(a1), SenderId(1));
        tap.truth = TruthRef::SinceInjection;
        plane.attach(tap);
        run_network_with(net, &Chain, injections, &mut plane);
        let report = plane.finish();
        assert!(report.taps[0].shed > 0, "budget never engaged");
        (digest_tap_epochs(&report, 0), report.taps[0].shed)
    };
    assert_eq!(
        digest(1),
        digest(7),
        "a sole tenant's weight changed output"
    );
}

#[test]
fn tenant_split_is_pure_accounting_without_a_budget() {
    // No `plane_budget` ⇒ no admission checks anywhere, so splitting the
    // fat-tree taps across two tenants must not move a single output bit.
    let digest = |split: Option<(u64, u64)>| {
        let mut cfg = FatTreeExpConfig::paper(11, SimDuration::from_millis(20));
        cfg.policy = PolicyKind::Static { n: 30 };
        cfg.tenant_split = split;
        let out = run_fattree(&cfg);
        let mut h = 0u64;
        h = fold(h, out.demux_total);
        h = fold(h, out.measured_delivered);
        h = fold(h, out.seg1_errors.len() as u64);
        h = out
            .seg1_errors
            .iter()
            .chain(&out.seg2_errors)
            .fold(h, |h, v| fold(h, v.to_bits()));
        h = fold(h, out.shed);
        h
    };
    assert_eq!(
        digest(None),
        digest(Some((3, 1))),
        "tenant split perturbed an unbudgeted plane"
    );
}
