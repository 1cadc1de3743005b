//! Property tests for the hierarchical (per-tenant) pending budget.
//!
//! Randomized two-tenant storms through one shared plane, checking the
//! invariants the PR 10 isolation design rests on:
//!
//! * **Conservation** — per tenant, every offered regular observation is
//!   either admitted or shed: `offered == admitted + shed`.
//! * **Cap bound** — with regulars-only traffic (references are always
//!   admitted and exempt by contract), the plane-wide pending high-water
//!   mark never exceeds the configured cap.
//! * **Guaranteed share** — a tenant whose pending depth never reached
//!   its share is never shed, no matter what its neighbour offered.

use proptest::prelude::*;
use rlir::plane::{MeasurementPlane, PlaneConfig, PlaneReport, TapPoint, TapSpec, TruthRef};
use rlir_net::packet::{Packet, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
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

fn qcfg() -> QueueConfig {
    QueueConfig {
        rate_bps: 8_000_000_000_000,
        capacity_bytes: 1 << 24,
        processing_delay: SimDuration::from_micros(10),
    }
}

fn flow(tenant: u8, i: u8) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, tenant, 0, i),
        5000 + i as u16,
        Ipv4Addr::new(10, 9, 0, 1),
        80,
    )
}

/// Two regulars-only workloads (counts + spacings drawn by proptest)
/// through two disjoint chains into one budgeted two-tenant plane.
fn storm(
    budget: usize,
    w: (u64, u64),
    n: (u64, u64),
    spacing_ns: (u64, u64),
    window_us: u64,
) -> PlaneReport {
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
    for i in 0..n.0 {
        injections.push((
            a0,
            Packet::regular(
                i,
                flow(0, (i % 3) as u8),
                700,
                SimTime::from_nanos(i * spacing_ns.0),
            ),
        ));
    }
    for i in 0..n.1 {
        injections.push((
            b0,
            Packet::regular(
                (1 << 32) | i,
                flow(1, (i % 3) as u8),
                700,
                SimTime::from_nanos(i * spacing_ns.1),
            ),
        ));
    }

    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        reorder_window: SimDuration::from_micros(window_us),
        epoch: Some(SimDuration::from_micros(500)),
        pending_budget: Some(budget),
    });
    plane.set_tenant_weight(0, w.0);
    plane.set_tenant_weight(1, w.1);
    let mut t0 = TapSpec::new("t0", TapPoint::NodeArrival(a1), SenderId(1));
    t0.truth = TruthRef::SinceInjection;
    t0.tenant = 0;
    plane.attach(t0);
    let mut t1 = TapSpec::new("t1", TapPoint::NodeArrival(b1), SenderId(2));
    t1.truth = TruthRef::SinceInjection;
    t1.tenant = 1;
    plane.attach(t1);

    let source = SortedVecSource::new(injections);
    run_network_streamed_source(
        net,
        &Chain,
        source,
        &mut plane,
        RunOptions::default(),
        |_| {},
    );
    plane.finish()
}

proptest! {
    #[test]
    fn tenant_books_always_balance(
        budget in 16usize..256,
        w in (1u64..8, 1u64..8),
        n in (100u64..2_000, 100u64..2_000),
        s in (150u64..4_000, 150u64..4_000),
        window_us in 1u64..40,
    ) {
        let (n0, n1) = n;
        let report = storm(budget, w, n, s, window_us);
        let mut offered_total = 0u64;
        for t in &report.tenants {
            prop_assert_eq!(
                t.offered, t.admitted + t.shed,
                "tenant {} books: offered {} admitted {} shed {}",
                t.id, t.offered, t.admitted, t.shed
            );
            offered_total += t.offered;
        }
        // Every regular that reached a tap was offered to its tenant.
        prop_assert_eq!(offered_total, n0 + n1);
    }

    #[test]
    fn cap_bounds_regulars_only_storms(
        budget in 16usize..192,
        w in (1u64..8, 1u64..8),
        n in 500u64..4_000,
        window_us in 25u64..50,
    ) {
        // Both tenants firing at 200 ns spacing against a wide window:
        // steady-state depth is ~5 obs/µs/tenant × window ≥ 250 total,
        // past any cap in range, so the budget always engages.
        let report = storm(budget, w, (n, n), (200, 200), window_us);
        prop_assert!(
            report.peak_pending_total <= budget,
            "peak pending {} exceeded the cap {}",
            report.peak_pending_total, budget
        );
        prop_assert!(
            report.tenants.iter().map(|t| t.shed).sum::<u64>() > 0,
            "storm never engaged the budget — not a storm"
        );
    }

    #[test]
    fn a_tenant_under_its_share_is_never_shed(
        budget in 64usize..256,
        w in (1u64..8, 1u64..8),
        flood in 2_000u64..10_000,
    ) {
        // Tenant 0 paced (2 µs spacing, 10 µs window ⇒ ~5 deep), tenant 1
        // flooding at 100 ns spacing.
        let report = storm(budget, w, (600, flood), (2_000, 100), 10);
        for t in &report.tenants {
            // Sheds happen only when a tenant's pending sits at-or-over
            // its share, so a strictly-under-share peak proves clean
            // admission throughout.
            if t.peak_pending < t.share {
                prop_assert_eq!(
                    t.shed, 0,
                    "tenant {} shed {} while never exceeding its share ({} <= {})",
                    t.id, t.shed, t.peak_pending, t.share
                );
            }
        }
    }
}
