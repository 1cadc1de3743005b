//! Isolated kernels: public functions timed alone on seed-generated
//! inputs, outside any workload — the current-host successors of the
//! per-component rows older bench files stamped long ago. Each kernel runs
//! three times and reports its fastest pass (the least disturbed one).

use crate::workloads::tandem::disorder;
use crate::workloads::{put, Facts};
use rlir::FatTreeFabric;
use rlir_net::packet::{Packet, ReferenceInfo, SenderId};
use rlir_net::time::SimDuration;
use rlir_net::HashAlgo;
use rlir_rli::{FlowTable, ReceiverConfig, RliReceiver};
use rlir_sim::{Forwarder, InjectionSource, NodeId};
use rlir_topo::FatTree;
use rlir_trace::{generate, EntryMap, PcapRecords, PcapReplaySource, PcapWriter, TraceConfig};
use std::hint::black_box;
use std::time::Instant;

/// Fastest of three passes of `pass`, in nanoseconds per item.
fn fastest_ns_per(items: usize, mut pass: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_nanos() as f64 / items as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn encode(packets: &[Packet]) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).expect("in-memory capture");
    for p in packets {
        w.write(p).expect("in-memory capture");
    }
    w.finish().expect("in-memory capture")
}

/// Break the IPv4 version nibble of one record in a thousand: framing
/// stays plausible, the body no longer decodes.
fn damage(capture: &mut [u8]) -> usize {
    let (mut offset, mut index, mut damaged) = (24usize, 0usize, 0usize);
    while offset + 16 <= capture.len() {
        let incl = u32::from_le_bytes(capture[offset + 8..offset + 12].try_into().expect("4"));
        if index % 1000 == 500 {
            capture[offset + 16] = 0;
            damaged += 1;
        }
        offset += 16 + incl as usize;
        index += 1;
    }
    damaged
}

pub fn run(seed: u64, scale: f64) -> Facts {
    let mut facts = Facts::new();
    let ms = (60.0 * scale).max(1.0);
    let duration = SimDuration::from_nanos((ms * 1e6) as u64);
    let mut tc = TraceConfig::paper_regular(seed, duration);
    tc.target_utilization = 0.9;
    let packets = generate(&tc).packets;
    let n = packets.len();

    // ---- trace: strict decode, lenient decode, windowed replay -----------
    let clean = encode(&packets);
    put(
        &mut facts,
        "trace.decode_ns_per_rec",
        fastest_ns_per(n, || {
            let records = PcapRecords::new(clean.as_slice()).expect("header");
            assert_eq!(records.filter(|r| r.is_ok()).count(), n);
        }),
    );
    let mut rotten = clean.clone();
    let damaged = damage(&mut rotten);
    put(
        &mut facts,
        "trace.decode_lenient_ns_per_rec",
        fastest_ns_per(n, || {
            let mut records = PcapRecords::new(rotten.as_slice())
                .expect("header")
                .lenient();
            assert_eq!(records.by_ref().filter(|r| r.is_ok()).count(), n - damaged);
            assert_eq!(records.skipped_records(), damaged as u64);
        }),
    );
    let shuffled = encode(&disorder(packets.clone(), seed));
    put(
        &mut facts,
        "trace.replay_window_ns_per_rec",
        fastest_ns_per(n, || {
            let records = PcapRecords::new(shuffled.as_slice()).expect("header");
            let mut source = PcapReplaySource::new(records, EntryMap::Fixed(0), 100_000);
            let mut emitted = 0usize;
            while let Some(item) = source.next_injection() {
                black_box(item);
                emitted += 1;
            }
            assert_eq!((emitted, source.late_dropped()), (n, 0));
        }),
    );

    // ---- rli: receiver interpolation, per-flow accumulation --------------
    let delay = SimDuration::from_micros(30);
    put(
        &mut facts,
        "rli.receiver.ns_per_obs",
        fastest_ns_per(n, || {
            let mut rx: RliReceiver = RliReceiver::new(ReceiverConfig::for_sender(SenderId(1)));
            for (i, p) in packets.iter().enumerate() {
                let at = p.created_at + delay;
                if i % 100 == 0 {
                    let info = ReferenceInfo {
                        sender: SenderId(1),
                        seq: (i / 100) as u32,
                        tx_timestamp: p.created_at,
                    };
                    rx.on_reference(at, &info);
                } else {
                    rx.on_regular(at, p.flow, Some(delay));
                }
            }
            black_box(rx.finish().counters.estimated);
        }),
    );
    for (name, quantile) in [
        ("rli.flowstats.ns_per_record", None),
        ("rli.flowstats.ns_per_record_q99", Some(0.99)),
    ] {
        put(
            &mut facts,
            name,
            fastest_ns_per(n, || {
                let mut table: FlowTable = match quantile {
                    Some(p) => FlowTable::with_quantile(p),
                    None => FlowTable::new(),
                };
                for (i, p) in packets.iter().enumerate() {
                    let est = 30_000.0 + (i % 97) as f64;
                    table.record(p.flow, est, Some(30_000.0));
                }
                black_box(table.estimate_count());
            }),
        );
    }

    // ---- topo: one route decision at every switch of real paths ----------
    let tree = FatTree::new(8, HashAlgo::default());
    let fabric = FatTreeFabric::new(&tree, false);
    let (src, dst) = (tree.tor(0, 0), tree.tor(7, 0));
    let mut tc = TraceConfig::paper_regular(seed ^ 0x7090, duration);
    tc.src_prefix = tree.host_prefix(src);
    tc.dst_prefix = tree.host_prefix(dst);
    let crossings: Vec<(NodeId, Packet)> = generate(&tc)
        .packets
        .into_iter()
        .flat_map(|p| {
            tree.path(&p.flow)
                .expect("fabric addresses route")
                .into_iter()
                .map(move |node| (node, p))
        })
        .collect();
    put(
        &mut facts,
        "topo.ns_per_route_alone",
        fastest_ns_per(crossings.len(), || {
            for (node, p) in &crossings {
                black_box(fabric.route(*node, p));
            }
        }),
    );
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn every_kernel_reports_a_registered_positive_cost() {
        let facts = run(3, 0.05);
        assert_eq!(facts.len(), 7);
        for (name, value) in &facts {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
    }
}
