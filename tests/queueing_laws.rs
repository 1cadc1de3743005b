//! The engine against queueing theory: a 10 Gb/s FIFO fed Poisson arrivals of
//! backbone-mix sizes is M/G/1, its mean wait Pollaczek–Khinchine's λ·E[S²] /
//! (2(1 − ρ)) ± a batch-means 99 % interval; on every port of the k = 4 fat-tree
//! mix, ∫ occupancy dt from `Enqueue` / `Dequeue` is Σ sojourn in integer ns.

use rand::{rngs::StdRng, SeedableRng};
use rlir::experiment::{background_injections, measured_traces, FatTreeExpConfig};
use rlir::{build_network, FatTreeFabric};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::{packet::Packet, FlowKey};
use rlir_sim::{run_network_streamed_source as run, Forwarder, HopEvent, HopKind, HopSink};
use rlir_sim::{Network, Port, QueueConfig, RouteDecision, RunOptions, SortedVecSource};
use rlir_trace::distributions::{Exponential, PacketSizeMix};
use std::collections::HashMap;
use std::net::Ipv4Addr;

const TEN_G: QueueConfig = QueueConfig {
    rate_bps: 10_000_000_000,
    capacity_bytes: u64::MAX,
    processing_delay: SimDuration::ZERO,
};
/// Batches after the warm-up batch; Student's t, 99 % two-sided, 29 d.o.f.
const BATCHES: usize = 30;
const T_99: f64 = 2.756;

/// The one-switch FIFO: it forwards every packet out of port 0 and, as a
/// sink, keeps each one's wait before its service in departure order.
struct Fifo(Vec<u64>);
impl Forwarder for Fifo {
    fn route(&self, _: usize, _: &Packet) -> RouteDecision {
        RouteDecision::Forward(0)
    }
}
impl HopSink for Fifo {
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        if let HopKind::Dequeue { arrived, .. } = ev.kind {
            let service = TEN_G.transmission(ev.packet.size);
            self.0
                .push((ev.at - arrived).as_nanos() - service.as_nanos());
        }
    }
}

#[test]
fn mean_wait_is_pollaczek_khinchine_at_the_papers_utilisations() {
    // E[S^k] in ns^k: 35 % 40 B, 15 % 576 B, 40 % 1 500 B, 10 % 64..=1 500 B.
    let bytes = 0.35 * 40.0 + 0.15 * 576.0 + 0.40 * 1_500.0 + 0.10 * 782.0;
    assert!((bytes - PacketSizeMix::backbone().mean()).abs() < 1e-9);
    let s = |b: u32| TEN_G.transmission(b).as_nanos() as f64;
    let m = |k| {
        let spread = (64..=1_500).map(|b| s(b).powi(k)).sum::<f64>() / 1_437.0;
        0.35 * s(40).powi(k) + 0.15 * s(576).powi(k) + 0.40 * s(1_500).powi(k) + 0.10 * spread
    };
    let flow = FlowKey::udp(Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 0, 1, 1), 2);
    for (rho, packets) in [(0.34, 124_000), (0.67, 248_000), (0.93, 620_000)] {
        let lambda = rho / m(1);
        let (gaps, sizes) = (Exponential::new(lambda), PacketSizeMix::backbone());
        let (mut rng, mut t) = (StdRng::seed_from_u64((rho * 100.0) as u64), 0.0);
        let packet = |id| {
            t += gaps.sample(&mut rng);
            let at = SimTime::from_nanos(t as u64);
            (0, Packet::regular(id, flow, sizes.sample(&mut rng), at))
        };
        let source = SortedVecSource::new((0..packets as u64).map(packet).collect::<Vec<_>>());
        let mut net = Network::default();
        net.add_node("Q");
        net.add_port(0, Port::to_host(TEN_G, SimDuration::ZERO));
        let (mut waits, opts) = (Fifo(Vec::new()), RunOptions::default());
        run(net, &Fifo(Vec::new()), source, &mut waits, opts, |_| {});
        let per = packets / (BATCHES + 1);
        let mean_of = |b: &[u64]| b.iter().sum::<u64>() as f64 / per as f64;
        let batches = waits.0[per..].chunks_exact(per);
        let means: Vec<f64> = batches.take(BATCHES).map(mean_of).collect();
        let mean = means.iter().sum::<f64>() / BATCHES as f64;
        let var = means.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (BATCHES - 1) as f64;
        let half = T_99 * (var / BATCHES as f64).sqrt();
        let pk = lambda * m(2) / (2.0 * (1.0 - rho));
        let msg = format!("ρ = {rho}: engine {mean:.1} ns, P-K {pk:.1} ± {half:.1} ns");
        assert!((mean - pk).abs() <= half, "{msg}");
    }
}

/// Per `(node, port)`: the occupancy's steps `[at, ±1, sojourn ended]`, ns.
#[derive(Default)]
struct Occupancy(HashMap<(usize, usize), Vec<[i64; 3]>>);
impl HopSink for Occupancy {
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        let (port, step, arrived) = match ev.kind {
            HopKind::Enqueue { port } => (port, 1, ev.at),
            HopKind::Dequeue { port, arrived } => (port, -1, arrived),
            _ => return,
        };
        let steps = self.0.entry((ev.node, port)).or_default();
        let ns = |t: SimTime| t.as_nanos() as i64;
        steps.push([ns(ev.at), step, ns(ev.at) - ns(arrived)]);
    }
}

#[test]
fn littles_law_holds_exactly_on_every_port_of_the_fat_tree_mix() {
    let cfg = FatTreeExpConfig::paper(7, SimDuration::from_millis(3));
    let tree = rlir_topo::FatTree::new(cfg.k, cfg.hash);
    let measured = measured_traces(&cfg, &tree);
    let measured = (measured.iter()).flat_map(|(tor, t)| t.packets.iter().map(|p| (*tor, *p)));
    let source = SortedVecSource::new(measured.chain(background_injections(&cfg, &tree)));
    let net = build_network(&tree, cfg.queue, cfg.link_delay, &[]);
    let (fabric, mut occ) = (FatTreeFabric::new(&tree, false), Occupancy::default());
    run(net, &fabric, source, &mut occ, Default::default(), |_| {});
    for (port, mut steps) in occ.0 {
        let sojourns: i64 = steps.iter().map(|s| s[2]).sum();
        steps.sort_unstable();
        let (mut area, mut queued, mut last) = (0, 0, 0);
        for [t, step, _] in steps {
            area += queued * (t - last);
            (queued, last) = (queued + step, t);
        }
        assert_eq!(queued, 0, "{port:?}: a packet never left");
        assert_eq!(area, sojourns, "{port:?}: ∫ occupancy dt vs Σ sojourn");
    }
}
