//! Order-sensitive digests of the synthetic trace generator.
//!
//! Every experiment and every ledger capture starts from
//! `rlir_trace::generate`; a change to its draw order, its sort or its
//! packet construction moves every downstream output. These digests fold
//! each packet's id, time, flow key, size and class in trace order, so a
//! change that reorders two packets with equal times shows here first;
//! every pinned trace holds such ties.

use rlir_net::packet::Packet;
use rlir_net::time::SimDuration;
use rlir_sim::StreamDigest;
use rlir_trace::{compress_into_bursts, generate, BurstShape, Trace, TraceConfig};

/// `(packets, packets sharing the previous one's time, digest)`.
fn digest(trace: &Trace) -> (usize, usize, u64) {
    let mut d = StreamDigest::default();
    for p in &trace.packets {
        let Packet { id, flow, size, .. } = *p;
        d.fold(id.0);
        d.fold(p.created_at.as_nanos());
        d.fold((u32::from(flow.src) as u64) << 32 | u32::from(flow.dst) as u64);
        d.fold((flow.sport as u64) << 24 | (flow.dport as u64) << 8 | flow.proto.number() as u64);
        d.fold((size as u64) << 1 | p.is_regular() as u64);
    }
    let ties = trace
        .packets
        .windows(2)
        .filter(|w| w[0].created_at == w[1].created_at);
    (trace.packets.len(), ties.count(), d.value())
}

#[test]
fn generated_traces_hold_their_pinned_order() {
    let ms = SimDuration::from_millis;
    let cases = [
        (
            TraceConfig::paper_regular(1, ms(40)),
            (14_012, 3, 4_835_825_899_272_033_425),
        ),
        (
            TraceConfig::paper_regular(2, ms(40)),
            (15_013, 3, 12_393_675_065_583_115_570),
        ),
        (
            TraceConfig::paper_cross(1, ms(20)),
            (22_512, 13, 16_826_091_908_571_479_231),
        ),
        (
            TraceConfig::paper_cross(2, ms(20)),
            (22_369, 18, 11_827_913_283_774_840_871),
        ),
    ];
    for (cfg, pinned) in cases {
        assert_eq!(
            digest(&generate(&cfg)),
            pinned,
            "{:?} seed {}",
            cfg.class,
            cfg.seed
        );
    }
}

#[test]
fn a_burst_compressed_trace_holds_its_pinned_order() {
    let trace = generate(&TraceConfig::paper_regular(7, SimDuration::from_millis(40)));
    let shape = BurstShape {
        period: SimDuration::from_micros(500),
        duty: 0.2,
    };
    assert_eq!(
        digest(&compress_into_bursts(trace, shape)),
        (14_507, 23, 11_917_009_807_200_393_438)
    );
}
