//! Micro-benchmarks for the per-packet hot paths: ECMP hashing, LPM lookup,
//! queue offers, interpolation, LDA updates, wire encode/decode, workload
//! generation — and the headline `pipeline/*` group, which runs the Fig. 4
//! two-hop utilization-sweep pipeline end to end in both its streaming
//! (current) and batched (seed) forms. `scripts/bench.sh` turns the
//! `pipeline/*` results into `BENCH_pipeline.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rlir::experiment::{run_two_hop_on, CrossSpec, TwoHopConfig};
use rlir_baselines::{Lda, LdaConfig};
use rlir_net::clock::ClockModel;
use rlir_net::packet::{Packet, ReferenceInfo, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::wire::{decode_reference_packet, encode_reference_packet};
use rlir_net::{FlowKey, HashAlgo, Ipv4Prefix, PrefixTrie};
use rlir_rli::{DelaySample, FlowAccumulator, Interpolator, RliSender, StaticPolicy};
use rlir_sim::queue::baseline::SeedFifoQueue;
use rlir_sim::{
    calibrate_keep_prob, CrossInjector, CrossModel, Delivery, FifoQueue, QueueConfig, Verdict,
};
use rlir_stats::StreamingStats;
use rlir_trace::{generate, Trace, TraceConfig};
use std::collections::HashMap;
use std::net::Ipv4Addr;

fn keys(n: u32) -> Vec<FlowKey> {
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            FlowKey::tcp(
                Ipv4Addr::from(0x0A00_0000 | (h as u32 & 0xFFFF)),
                (h >> 16) as u16,
                Ipv4Addr::new(10, 3, 0, 2),
                80,
            )
        })
        .collect()
}

fn bench_hash(c: &mut Criterion) {
    let ks = keys(1024);
    let mut group = c.benchmark_group("ecmp_hash");
    group.throughput(Throughput::Elements(ks.len() as u64));
    for algo in [
        HashAlgo::Crc32 { seed: 7 },
        HashAlgo::Fnv { seed: 7 },
        HashAlgo::XorFold { seed: 7 },
    ] {
        group.bench_function(format!("{algo:?}"), |b| {
            b.iter(|| ks.iter().map(|k| algo.select(k, 4)).sum::<usize>())
        });
    }
    group.finish();
}

fn bench_trie(c: &mut Criterion) {
    let mut trie = PrefixTrie::new();
    for pod in 0..64u8 {
        for tor in 0..32u8 {
            let p = Ipv4Prefix::new(Ipv4Addr::new(10, pod, tor, 0), 24).unwrap();
            trie.insert(p, (pod, tor));
        }
    }
    let addrs: Vec<Ipv4Addr> = (0..1024u32)
        .map(|i| Ipv4Addr::new(10, (i % 64) as u8, (i % 32) as u8, (i % 250) as u8))
        .collect();
    let mut group = c.benchmark_group("lpm_trie");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    group.bench_function("lookup_2048_prefixes", |b| {
        b.iter(|| addrs.iter().filter(|a| trie.lookup(**a).is_some()).count())
    });
    group.finish();
}

fn bench_queue(c: &mut Criterion) {
    let ks = keys(1);
    let mut group = c.benchmark_group("fifo_queue");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("offer_10k", |b| {
        b.iter(|| {
            let mut q = FifoQueue::new(QueueConfig::oc192());
            let mut accepted = 0u64;
            for i in 0..10_000u64 {
                let p = Packet::regular(i, ks[0], 700, SimTime::from_nanos(i * 700));
                if matches!(q.offer(p.created_at, &p), rlir_sim::Verdict::Departs(_)) {
                    accepted += 1;
                }
            }
            accepted
        })
    });
    group.bench_function("seed_offer_10k", |b| {
        // The frozen pre-optimization queue (u128 division per offer).
        b.iter(|| {
            let mut q = SeedFifoQueue::new(QueueConfig::oc192());
            let mut accepted = 0u64;
            for i in 0..10_000u64 {
                let p = Packet::regular(i, ks[0], 700, SimTime::from_nanos(i * 700));
                if matches!(q.offer(p.created_at, &p), rlir_sim::Verdict::Departs(_)) {
                    accepted += 1;
                }
            }
            accepted
        })
    });
    group.finish();
}

fn bench_interpolation(c: &mut Criterion) {
    let left = DelaySample::new(SimTime::from_nanos(0), 3000.0);
    let right = DelaySample::new(SimTime::from_nanos(100_000), 5000.0);
    let mut group = c.benchmark_group("interpolation");
    group.throughput(Throughput::Elements(1000));
    group.bench_function("linear_1k", |b| {
        b.iter(|| {
            (0..1000u64)
                .map(|i| Interpolator::Linear.estimate(left, right, SimTime::from_nanos(i * 100)))
                .sum::<f64>()
        })
    });
    group.finish();
}

fn bench_lda(c: &mut Criterion) {
    let mut group = c.benchmark_group("lda");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("record_10k", |b| {
        b.iter(|| {
            let mut lda = Lda::new(LdaConfig::default());
            for i in 0..10_000u64 {
                lda.record(i, SimTime::from_nanos(i * 700));
            }
            lda.recorded()
        })
    });
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let flow = keys(1)[0];
    let info = ReferenceInfo {
        sender: SenderId(3),
        seq: 12345,
        tx_timestamp: SimTime::from_nanos(987_654_321),
    };
    let encoded = encode_reference_packet(&flow, &info, 0);
    let mut group = c.benchmark_group("wire");
    group.bench_function("encode_reference", |b| {
        b.iter(|| encode_reference_packet(&flow, &info, 0))
    });
    group.bench_function("decode_reference", |b| {
        b.iter(|| decode_reference_packet(&encoded).unwrap())
    });
    group.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("stats");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("welford_push_10k", |b| {
        b.iter(|| {
            let mut s = StreamingStats::new();
            for i in 0..10_000 {
                s.push(i as f64 * 0.37);
            }
            s.variance()
        })
    });
    group.finish();
}

fn bench_trace_gen(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_gen");
    group.sample_size(10);
    group.bench_function("paper_regular_10ms", |b| {
        b.iter(|| {
            generate(&TraceConfig::paper_regular(
                42,
                SimDuration::from_millis(10),
            ))
        })
    });
    group.finish();
}

/// The sweep's reference-stream flow key (mirrors the two-hop harness).
fn pipeline_ref_key() -> FlowKey {
    FlowKey::udp(
        Ipv4Addr::new(10, 1, 255, 254),
        40_000,
        Ipv4Addr::new(10, 200, 255, 254),
        rlir_net::wire::RLI_UDP_PORT,
    )
}

/// The seed's batched Fig. 4 pipeline, reproduced component for component:
/// per-packet `Vec` from `observe_alloc`, whole-trace upstream/cross/
/// delivery buffers, the seed's two-pass tandem over [`SeedFifoQueue`]
/// (per-packet u128 division arithmetic), and a SipHash per-flow table.
/// This is the pre-optimization baseline `BENCH_pipeline.json` compares
/// against without checking out an old commit.
fn run_two_hop_batched(cfg: &TwoHopConfig, regular: &Trace, cross: &Trace) -> (usize, f64) {
    let CrossSpec::Uniform { target_utilization } = cfg.cross else {
        panic!("baseline models the uniform sweep only");
    };
    let keep_prob = calibrate_keep_prob(
        target_utilization,
        regular.offered_utilization(),
        cross.offered_utilization(),
        1.0,
    );
    let mut injector =
        CrossInjector::new(CrossModel::Uniform { keep_prob }, cfg.seed ^ 0xC505_11EC);
    let cross_packets: Vec<Packet> = cross
        .packets
        .iter()
        .copied()
        .filter(|p| injector.select(p))
        .collect();

    let mut sender = RliSender::new(
        SenderId(1),
        cfg.clocks.sender,
        cfg.policy.build(),
        vec![pipeline_ref_key()],
    );
    let mut upstream: Vec<Packet> = Vec::with_capacity(regular.packets.len() + 64);
    for p in &regular.packets {
        upstream.push(*p);
        // Seed behavior: a fresh Vec<Packet> per observed packet.
        upstream.extend(sender.observe_alloc(p));
    }

    // Seed tandem, pass 1: buffer every switch-1 survivor.
    let mut sw1 = SeedFifoQueue::new(cfg.tandem.switch1);
    let mut sw2 = SeedFifoQueue::new(cfg.tandem.switch2);
    let mut from_sw1: Vec<(Packet, SimTime, SimTime)> = Vec::new();
    for p in upstream {
        if let Verdict::Departs(egress) = sw1.offer(p.created_at, &p) {
            from_sw1.push((p, egress, egress + cfg.tandem.link_delay));
        }
    }

    // Seed tandem, pass 2: sorted merge into switch 2, buffering deliveries.
    let mut deliveries: Vec<Delivery> = Vec::with_capacity(from_sw1.len());
    let mut cross_in = cross_packets.into_iter().peekable();
    let mut sw1_out = from_sw1.into_iter().peekable();
    loop {
        let take_cross = match (sw1_out.peek(), cross_in.peek()) {
            (None, None) => break,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some((u, _, ua)), Some(c)) => (c.created_at, c.id) < (*ua, u.id),
        };
        if take_cross {
            let p = cross_in.next().expect("peeked");
            let _ = sw2.offer(p.created_at, &p);
        } else {
            let (p, egress1, at2) = sw1_out.next().expect("peeked");
            if let Verdict::Departs(out) = sw2.offer(at2, &p) {
                deliveries.push(Delivery {
                    packet: p,
                    sent_at: p.created_at,
                    sw1_egress: Some(egress1),
                    delivered_at: out,
                });
            }
        }
    }

    // Seed receiver: per-packet `Interpolator::estimate` (slope division
    // per packet) feeding the seed's sparse per-flow table — a SipHash
    // `HashMap` whose buckets hold the full ~300-byte accumulator, exactly
    // the layout this PR replaced with a dense FxHash index map.
    #[derive(Default)]
    struct SeedAccumulator {
        est: StreamingStats,
        truth: StreamingStats,
    }
    let rx_clock = cfg.clocks.receiver;
    let mut flows: HashMap<FlowKey, SeedAccumulator> = HashMap::new();
    let mut left: Option<DelaySample> = None;
    let mut pending: Vec<(SimTime, FlowKey, f64)> = Vec::new();
    for d in &deliveries {
        match d.packet.reference_info() {
            Some(info) => {
                let rx_local = rx_clock.observe(d.delivered_at);
                let delay_ns = rx_local.signed_delta_nanos(info.tx_timestamp) as f64;
                let right = DelaySample::new(d.delivered_at, delay_ns);
                if let Some(l) = left {
                    for (at, flow, truth) in pending.drain(..) {
                        let est = cfg.interpolator.estimate(l, right, at);
                        let acc = flows.entry(flow).or_default();
                        acc.est.push(est);
                        acc.truth.push(truth);
                    }
                }
                left = Some(right);
            }
            None if d.packet.is_regular() && left.is_some() => {
                pending.push((
                    d.delivered_at,
                    d.packet.flow,
                    d.true_delay().as_nanos() as f64,
                ));
            }
            None => {}
        }
    }
    (flows.len(), sw2.utilization(cfg.tandem.horizon))
}

/// `pipeline/*`: the tandem utilization sweep, streaming vs batched, in
/// packets/sec of offered trace traffic (regular + cross, pre-filtering).
fn bench_pipeline(c: &mut Criterion) {
    // Trace generation is seconds of work; skip it when the CLI filter
    // excludes this group (the vendored criterion filters inside
    // bench_function, after setup would already have run).
    if !c.filter_matches("pipeline") {
        return;
    }
    let duration = SimDuration::from_millis(150);
    let base = TwoHopConfig::paper(42, duration);
    let regular = generate(&base.regular_trace());
    let cross = generate(&base.cross_trace());
    let offered = (regular.packets.len() + cross.packets.len()) as u64;
    let targets = [0.34f64, 0.67, 0.93];

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(offered * targets.len() as u64));
    group.bench_function("streaming", |b| {
        b.iter(|| {
            let mut flows = 0usize;
            for target in targets {
                let mut cfg = base.clone();
                cfg.cross = CrossSpec::Uniform {
                    target_utilization: target,
                };
                flows += run_two_hop_on(&cfg, &regular, &cross).flows.flow_count();
            }
            flows
        })
    });
    group.bench_function("batched_seed", |b| {
        b.iter(|| {
            let mut flows = 0usize;
            for target in targets {
                let mut cfg = base.clone();
                cfg.cross = CrossSpec::Uniform {
                    target_utilization: target,
                };
                flows += run_two_hop_batched(&cfg, &regular, &cross).0;
            }
            flows
        })
    });
    group.finish();
}

/// `sender_observe/*`: the per-packet sender hot path in isolation —
/// scratch-slice (current) vs allocating (seed) observe.
fn bench_sender_observe(c: &mut Criterion) {
    if !c.filter_matches("sender_observe") {
        return;
    }
    let n_packets = 100_000u64;
    let mk = || {
        RliSender::new(
            SenderId(1),
            ClockModel::perfect(),
            StaticPolicy::one_in(100),
            vec![pipeline_ref_key()],
        )
    };
    let packets: Vec<Packet> = (0..n_packets)
        .map(|i| {
            Packet::regular(
                i,
                FlowKey::tcp(
                    Ipv4Addr::from(0x0A00_0000 | (i as u32 & 0xFF)),
                    (i % 61) as u16,
                    Ipv4Addr::new(10, 3, 0, 2),
                    80,
                ),
                700,
                SimTime::from_nanos(i * 700),
            )
        })
        .collect();
    let mut group = c.benchmark_group("sender_observe");
    group.throughput(Throughput::Elements(n_packets));
    group.bench_function("scratch_slice", |b| {
        b.iter(|| {
            let mut s = mk();
            let mut refs = 0usize;
            for p in &packets {
                refs += s.observe(p).len();
            }
            refs
        })
    });
    group.bench_function("alloc_per_packet", |b| {
        b.iter(|| {
            let mut s = mk();
            let mut refs = 0usize;
            for p in &packets {
                refs += s.observe_alloc(p).len();
            }
            refs
        })
    });
    group.finish();
}

/// `flow_table/*`: FxHash vs SipHash per-flow aggregation.
fn bench_flow_table(c: &mut Criterion) {
    let n = 100_000u64;
    let ks = keys(512);
    let mut group = c.benchmark_group("flow_table");
    group.throughput(Throughput::Elements(n));
    group.bench_function("fxhash_record_100k", |b| {
        b.iter(|| {
            let mut t = rlir_rli::FlowTable::<rlir_net::FxBuildHasher>::new();
            for i in 0..n {
                t.record(ks[(i % 512) as usize], i as f64, Some(i as f64 + 5.0));
            }
            t.flow_count()
        })
    });
    group.bench_function("siphash_sparse_seed_record_100k", |b| {
        // The seed's layout: SipHash table whose buckets hold the whole
        // accumulator inline.
        b.iter(|| {
            let mut t: HashMap<FlowKey, FlowAccumulator> = HashMap::new();
            for i in 0..n {
                let acc = t.entry(ks[(i % 512) as usize]).or_default();
                acc.est.push(i as f64);
                acc.truth.push(i as f64 + 5.0);
            }
            t.len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pipeline,
    bench_sender_observe,
    bench_flow_table,
    bench_hash,
    bench_trie,
    bench_queue,
    bench_interpolation,
    bench_lda,
    bench_wire,
    bench_stats,
    bench_trace_gen
);
criterion_main!(benches);
