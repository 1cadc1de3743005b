//! Synthetic OC-192-style trace generation.
//!
//! Stands in for the paper's two 1-minute CAIDA OC-192 traces (§4.1: regular
//! traffic ≈22.4 M packets / 1.45 M flows at ~22% of link rate; cross traffic
//! ≈70.4 M packets at a rate capable of driving the bottleneck above 93%).
//! The generator reproduces the *shape* that matters to the evaluation:
//!
//! * heavy-tailed flow sizes (mice/elephant mixture with a bounded-Pareto
//!   tail, calibrated to the paper's ≈15 packets-per-flow average),
//! * multi-modal packet sizes averaging ≈730 B,
//! * Poisson flow arrivals with per-flow packet trains whose rates span
//!   orders of magnitude (burstiness at the queue),
//! * a configurable aggregate target utilization.
//!
//! Everything is driven by a single seed, so traces are exactly reproducible.

use crate::distributions::{BoundedPareto, Exponential, Geometric, LogUniform, PacketSizeMix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlir_net::packet::Packet;
use rlir_net::prefix::Ipv4Prefix;
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;

/// Which traffic class the generated packets belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClass {
    /// Regular (measured) traffic.
    Regular,
    /// Cross traffic (load only).
    Cross,
}

/// Configuration for [`generate`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// RNG seed; equal seeds yield byte-identical traces.
    pub seed: u64,
    /// Trace duration.
    pub duration: SimDuration,
    /// Link rate the utilization target refers to (default OC-192 payload
    /// rate, 9.953 Gb/s).
    pub link_rate_bps: u64,
    /// Fraction of `link_rate_bps` the trace should offer on average.
    pub target_utilization: f64,
    /// Source addresses are drawn from this block.
    pub src_prefix: Ipv4Prefix,
    /// Destination addresses are drawn from this block.
    pub dst_prefix: Ipv4Prefix,
    /// Fraction of flows that are "mice".
    pub mice_fraction: f64,
    /// Mean packets per mouse flow (geometric).
    pub mice_mean_pkts: f64,
    /// Bounded-Pareto shape for elephant flows.
    pub elephant_alpha: f64,
    /// Bounded-Pareto lower bound (packets).
    pub elephant_min_pkts: f64,
    /// Bounded-Pareto upper bound (packets).
    pub elephant_max_pkts: f64,
    /// Per-flow packet rate: log-uniform lower bound (packets/s).
    pub flow_rate_low_pps: f64,
    /// Per-flow packet rate: log-uniform upper bound (packets/s).
    pub flow_rate_high_pps: f64,
    /// Packet-size distribution.
    pub size_mix: PacketSizeMix,
    /// Packet ids are assigned sequentially starting here (lets regular and
    /// cross traces share one id namespace).
    pub first_packet_id: u64,
    /// Traffic class stamped on every generated packet.
    pub class: TraceClass,
}

impl TraceConfig {
    /// The paper's *regular* traffic, scaled to `duration`: ~22% of OC-192.
    pub fn paper_regular(seed: u64, duration: SimDuration) -> Self {
        TraceConfig {
            seed,
            duration,
            link_rate_bps: 9_953_000_000,
            target_utilization: 0.22,
            src_prefix: "10.1.0.0/16".parse().expect("static prefix"),
            dst_prefix: "10.200.0.0/16".parse().expect("static prefix"),
            mice_fraction: 0.85,
            mice_mean_pkts: 4.0,
            elephant_alpha: 1.2,
            elephant_min_pkts: 20.0,
            elephant_max_pkts: 50_000.0,
            flow_rate_low_pps: 5_000.0,
            flow_rate_high_pps: 500_000.0,
            size_mix: PacketSizeMix::backbone(),
            first_packet_id: 0,
            class: TraceClass::Regular,
        }
    }

    /// The paper's *cross* traffic: same link, different prefix, offered at
    /// ~71% of OC-192 so that full injection on top of regular traffic
    /// reaches ≈93% bottleneck utilization (§4.1 modifies cross-traffic IP
    /// addresses to distinguish the classes).
    pub fn paper_cross(seed: u64, duration: SimDuration) -> Self {
        TraceConfig {
            target_utilization: 0.71,
            src_prefix: "172.16.0.0/14".parse().expect("static prefix"),
            dst_prefix: "172.20.0.0/14".parse().expect("static prefix"),
            class: TraceClass::Cross,
            first_packet_id: 1 << 40, // disjoint id namespace
            ..Self::paper_regular(seed ^ 0xC505_5EED, duration)
        }
    }

    /// Analytic mean packets per flow of this configuration.
    pub fn mean_flow_pkts(&self) -> f64 {
        let mice = self.mice_mean_pkts;
        let elephant = BoundedPareto::new(
            self.elephant_min_pkts,
            self.elephant_max_pkts,
            self.elephant_alpha,
        )
        .mean();
        self.mice_fraction * mice + (1.0 - self.mice_fraction) * elephant
    }

    /// Expected number of flows needed to hit the utilization target.
    pub fn expected_flows(&self) -> f64 {
        let total_bytes =
            self.target_utilization * self.link_rate_bps as f64 / 8.0 * self.duration.as_secs_f64();
        let bytes_per_flow = self.mean_flow_pkts() * self.size_mix.mean();
        if bytes_per_flow <= 0.0 {
            0.0
        } else {
            total_bytes / bytes_per_flow
        }
    }
}

/// A generated trace: packets sorted by creation time.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Packets ordered by `created_at` (ties broken by id).
    pub packets: Vec<Packet>,
    /// Link rate the utilization target referred to.
    pub link_rate_bps: u64,
    /// Configured duration.
    pub duration: SimDuration,
}

impl Trace {
    /// Total bytes across all packets.
    pub fn total_bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.size as u64).sum()
    }

    /// Offered load as a fraction of `link_rate_bps` over the configured
    /// duration.
    pub fn offered_utilization(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.total_bytes() as f64 * 8.0) / (self.link_rate_bps as f64 * secs)
    }

    /// Number of distinct flow keys.
    pub fn flow_count(&self) -> usize {
        let mut keys: Vec<FlowKey> = self.packets.iter().map(|p| p.flow).collect();
        keys.sort();
        keys.dedup();
        keys.len()
    }

    /// An empty trace.
    pub fn empty(link_rate_bps: u64, duration: SimDuration) -> Self {
        Trace {
            packets: Vec::new(),
            link_rate_bps,
            duration,
        }
    }
}

/// A drawn packet before ordering: time in ns, index into the trace's flow
/// table, size — 16 bytes where a `(SimTime, FlowKey, u32)` row takes 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    at: u64,
    flow: u32,
    size: u32,
}

/// Order `rows` stably by `(time, flows[row.flow])`: a stable LSD radix sort
/// on time, 11 bits a pass (skipping passes whose digit all rows share),
/// then a stable sort by flow inside each run of equal times.
fn order_rows(rows: &mut Vec<Row>, flows: &[FlowKey]) {
    const BITS: usize = 11;
    const MASK: u64 = (1 << BITS) - 1;
    let mut counts = [[0usize; 1 << BITS]; u64::BITS.div_ceil(BITS as u32) as usize];
    for r in rows.iter() {
        for (pass, c) in counts.iter_mut().enumerate() {
            c[(r.at >> (pass * BITS) & MASK) as usize] += 1;
        }
    }
    let mut spare = rows.clone();
    for (pass, c) in counts.iter_mut().enumerate() {
        if c.contains(&rows.len()) {
            continue;
        }
        let mut start = 0;
        for slot in c.iter_mut() {
            (*slot, start) = (start, start + *slot);
        }
        for r in rows.iter() {
            let slot = &mut c[(r.at >> (pass * BITS) & MASK) as usize];
            spare[*slot] = *r;
            *slot += 1;
        }
        std::mem::swap(rows, &mut spare);
    }
    for run in rows.chunk_by_mut(|a, b| a.at == b.at) {
        run.sort_by_key(|r| flows[r.flow as usize]);
    }
}

/// Generate a trace from `cfg`. Deterministic in `cfg.seed`.
pub fn generate(cfg: &TraceConfig) -> Trace {
    assert!(
        (0.0..=1.5).contains(&cfg.target_utilization),
        "target utilization {} out of range",
        cfg.target_utilization
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let duration_s = cfg.duration.as_secs_f64();
    let n_flows = cfg.expected_flows();
    if n_flows < 0.5 || duration_s <= 0.0 {
        return Trace::empty(cfg.link_rate_bps, cfg.duration);
    }

    let mice = Geometric::with_mean(cfg.mice_mean_pkts.max(1.0));
    let elephants = BoundedPareto::new(
        cfg.elephant_min_pkts,
        cfg.elephant_max_pkts,
        cfg.elephant_alpha,
    );
    let rate_dist = LogUniform::new(cfg.flow_rate_low_pps, cfg.flow_rate_high_pps);
    let src_pool = cfg.src_prefix.size();
    let dst_pool = cfg.dst_prefix.size();
    let target_bytes = cfg.target_utilization * cfg.link_rate_bps as f64 / 8.0 * duration_s;
    let bytes_per_flow = cfg.mean_flow_pkts() * cfg.size_mix.mean();

    // (time, flow index, size) rows; ids are assigned after ordering so they
    // are monotone in time, which makes ground-truth joins cache-friendly.
    //
    // Flows whose trains outlive the trace are truncated (like any fixed
    // -length capture), which systematically under-delivers bytes for short
    // traces with heavy-tailed sizes. Top-up rounds superpose additional
    // Poisson flow arrivals until the byte target is met — a superposition
    // of Poisson processes is still Poisson, so the arrival model is
    // preserved while the load calibration becomes exact.
    let mut flows: Vec<FlowKey> = Vec::new();
    let mut rows = Vec::with_capacity((target_bytes / cfg.size_mix.mean() * 1.125) as usize);
    let mut produced_bytes = 0.0f64;
    for _round in 0..12 {
        let deficit = target_bytes - produced_bytes;
        let flows_needed = deficit / bytes_per_flow;
        if flows_needed < 0.5 || produced_bytes >= 0.995 * target_bytes {
            break;
        }
        let flow_arrival = Exponential::new(flows_needed / duration_s);
        let mut t = 0.0f64;
        loop {
            t += flow_arrival.sample(&mut rng);
            if t >= duration_s {
                break;
            }
            let flow = flows.len() as u32;
            flows.push(FlowKey::tcp(
                cfg.src_prefix.nth(rng.random_range(0..src_pool)),
                rng.random_range(1024..=u16::MAX),
                cfg.dst_prefix.nth(rng.random_range(0..dst_pool)),
                *[80u16, 443, 8080, 25, 53]
                    .get(rng.random_range(0..5usize))
                    .expect("in range"),
            ));
            let pkts = if rng.random::<f64>() < cfg.mice_fraction {
                mice.sample(&mut rng)
            } else {
                elephants.sample(&mut rng).round() as u64
            }
            .max(1);
            let gap = Exponential::new(rate_dist.sample(&mut rng));
            let mut pt = t;
            for _ in 0..pkts {
                if pt >= duration_s {
                    break; // trace snapshot truncates long flows
                }
                let size = cfg.size_mix.sample(&mut rng);
                produced_bytes += size as f64;
                let at = SimTime::from_secs_f64(pt).as_nanos();
                rows.push(Row { at, flow, size });
                pt += gap.sample(&mut rng);
            }
        }
    }

    order_rows(&mut rows, &flows);
    let packets = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let id = cfg.first_packet_id + i as u64;
            let (flow, at) = (flows[r.flow as usize], SimTime::from_nanos(r.at));
            match cfg.class {
                TraceClass::Regular => Packet::regular(id, flow, r.size, at),
                TraceClass::Cross => Packet::cross(id, flow, r.size, at),
            }
        })
        .collect();
    Trace {
        packets,
        link_rate_bps: cfg.link_rate_bps,
        duration: cfg.duration,
    }
}

/// An on/off burst envelope: every `period`, transmission is squeezed into
/// the leading `duty` fraction.
#[derive(Debug, Clone, Copy)]
pub struct BurstShape {
    /// Burst repetition period.
    pub period: SimDuration,
    /// Fraction of the period spent transmitting, in `(0, 1]`.
    pub duty: f64,
}

/// Compress a trace into synchronized bursts, in place: each packet keeps
/// its period but its offset within the period is scaled by `duty`, so all
/// sources sharing the same shape transmit in the same windows (the incast
/// regime — the long-run average load is unchanged while the instantaneous
/// rate is multiplied by `1/duty`).
pub fn compress_into_bursts(mut trace: Trace, shape: BurstShape) -> Trace {
    assert!(
        shape.duty > 0.0 && shape.duty <= 1.0,
        "burst duty {} out of (0, 1]",
        shape.duty
    );
    let period = shape.period.as_nanos().max(1);
    for p in &mut trace.packets {
        let t = p.created_at.as_nanos();
        let offset = (t % period) as f64 * shape.duty;
        p.created_at = SimTime::from_nanos(t - t % period + offset as u64);
    }
    // Compression preserves order within a period up to rounding; restore
    // the (time, id) invariant every consumer relies on.
    trace.packets.sort_by_key(|p| (p.created_at, p.id));
    trace
}

/// Mirror a trace into the reverse direction: every flow key is reversed
/// (src/dst and ports swapped) while timing and sizes are kept, modelling a
/// response stream of equal shape; packet ids are rebased at
/// `first_packet_id` to stay disjoint from the forward trace.
pub fn reverse(trace: &Trace, first_packet_id: u64) -> Trace {
    let packets = trace
        .packets
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut q = *p;
            q.flow = reverse_flow(&p.flow);
            q.id = rlir_net::packet::PacketId(first_packet_id + i as u64);
            q
        })
        .collect();
    Trace {
        packets,
        link_rate_bps: trace.link_rate_bps,
        duration: trace.duration,
    }
}

/// The reverse-direction key of a flow (src/dst and ports swapped).
pub fn reverse_flow(flow: &FlowKey) -> FlowKey {
    FlowKey {
        src: flow.dst,
        dst: flow.src,
        proto: flow.proto,
        sport: flow.dport,
        dport: flow.sport,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> TraceConfig {
        TraceConfig::paper_regular(42, SimDuration::from_millis(200))
    }

    #[test]
    fn deterministic_generation() {
        let a = generate(&small_cfg());
        let b = generate(&small_cfg());
        assert_eq!(a.packets.len(), b.packets.len());
        assert_eq!(a.packets, b.packets);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small_cfg());
        let mut cfg = small_cfg();
        cfg.seed = 43;
        let b = generate(&cfg);
        assert_ne!(a.packets, b.packets);
    }

    #[test]
    fn packets_sorted_with_monotone_ids() {
        let t = generate(&small_cfg());
        assert!(!t.packets.is_empty());
        for w in t.packets.windows(2) {
            assert!(w[0].created_at <= w[1].created_at, "unsorted");
            assert!(w[0].id < w[1].id, "ids not monotone");
        }
    }

    #[test]
    fn utilization_near_target() {
        let mut cfg = TraceConfig::paper_regular(7, SimDuration::from_millis(500));
        cfg.target_utilization = 0.22;
        let t = generate(&cfg);
        let u = t.offered_utilization();
        // Heavy-tailed flow sizes make realised load noisy; ±40% is enough to
        // confirm the calibration is wired correctly (experiments measure the
        // realised utilization empirically anyway).
        assert!((0.19..=0.27).contains(&u), "utilization {u}");
    }

    #[test]
    fn timestamps_within_duration() {
        let t = generate(&small_cfg());
        let end = SimTime::ZERO + small_cfg().duration;
        assert!(t.packets.iter().all(|p| p.created_at < end));
    }

    #[test]
    fn addresses_come_from_configured_pools() {
        let cfg = small_cfg();
        let t = generate(&cfg);
        for p in &t.packets {
            assert!(cfg.src_prefix.contains(p.flow.src), "src {}", p.flow.src);
            assert!(cfg.dst_prefix.contains(p.flow.dst), "dst {}", p.flow.dst);
        }
    }

    #[test]
    fn classes_and_id_namespaces_disjoint() {
        let reg = generate(&TraceConfig::paper_regular(1, SimDuration::from_millis(50)));
        let cross = generate(&TraceConfig::paper_cross(1, SimDuration::from_millis(50)));
        assert!(reg.packets.iter().all(|p| p.is_regular()));
        assert!(cross.packets.iter().all(|p| p.is_cross()));
        let max_reg = reg.packets.iter().map(|p| p.id.0).max().unwrap();
        let min_cross = cross.packets.iter().map(|p| p.id.0).min().unwrap();
        assert!(max_reg < min_cross);
    }

    #[test]
    fn mean_flow_pkts_in_paper_ballpark() {
        // The paper's regular trace has 22.4M packets / 1.45M flows ≈ 15.4.
        let m = small_cfg().mean_flow_pkts();
        assert!((10.0..25.0).contains(&m), "mean flow pkts {m}");
    }

    #[test]
    fn flow_count_tracks_expected() {
        let cfg = TraceConfig::paper_regular(3, SimDuration::from_millis(500));
        let t = generate(&cfg);
        let expected = cfg.expected_flows();
        let got = t.flow_count() as f64;
        assert!(
            got > expected * 0.5 && got < expected * 2.0,
            "flows {got} vs expected {expected}"
        );
    }

    #[test]
    fn zero_utilization_yields_empty() {
        let mut cfg = small_cfg();
        cfg.target_utilization = 0.0;
        assert!(generate(&cfg).packets.is_empty());
    }

    #[test]
    fn radix_order_is_the_stable_sort_by_time_then_flow() {
        let ip = |i| std::net::Ipv4Addr::new(10, 0, 0, i);
        // Flows 0 and 3 share a key: equal flows under different indices.
        let flows = [0, 1, 2, 0].map(|i| FlowKey::tcp(ip(i), 9, ip(9), 80));
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rows = Vec::new();
        for size in 0..5_000 {
            x = (x ^ x >> 31).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            // Equal-time runs, one-record runs, all 64 bits; distinct sizes show instability.
            let at = [x % 8, x, u64::MAX - x % 3, x >> (x % 64)][size as usize % 4];
            let flow = (x >> 7) as u32 % 4;
            rows.push(Row { at, flow, size });
        }
        let mut expected = rows.clone();
        expected.sort_by_key(|r| (r.at, flows[r.flow as usize]));
        order_rows(&mut rows, &flows);
        assert_eq!(rows, expected);
        order_rows(&mut Vec::new(), &flows);
    }

    #[test]
    fn burst_compression_preserves_bytes_and_order() {
        let t = generate(&small_cfg());
        let shape = BurstShape {
            period: SimDuration::from_millis(5),
            duty: 0.2,
        };
        let b = compress_into_bursts(t.clone(), shape);
        assert_eq!(b.packets.len(), t.packets.len());
        assert_eq!(b.total_bytes(), t.total_bytes());
        for w in b.packets.windows(2) {
            assert!(w[0].created_at <= w[1].created_at);
        }
        // Every packet lands inside its period's on-window.
        let period = shape.period.as_nanos();
        let on = (period as f64 * shape.duty) as u64;
        for p in &b.packets {
            assert!(p.created_at.as_nanos() % period <= on, "{:?}", p.created_at);
        }
    }

    #[test]
    fn burst_compression_raises_peak_rate() {
        let t = generate(&small_cfg());
        let shape = BurstShape {
            period: SimDuration::from_millis(10),
            duty: 0.25,
        };
        let b = compress_into_bursts(t, shape);
        // Count packets in the first on-window vs the rest of the period.
        let period = shape.period.as_nanos();
        let on = (period as f64 * shape.duty) as u64;
        let in_window = b
            .packets
            .iter()
            .filter(|p| p.created_at.as_nanos() % period <= on)
            .count();
        assert_eq!(in_window, b.packets.len(), "all packets inside bursts");
    }

    #[test]
    fn reverse_swaps_flows_and_rebases_ids() {
        let t = generate(&small_cfg());
        let r = reverse(&t, 1 << 39);
        assert_eq!(r.packets.len(), t.packets.len());
        for (f, b) in t.packets.iter().zip(&r.packets) {
            assert_eq!(b.flow, reverse_flow(&f.flow));
            assert_eq!(reverse_flow(&b.flow), f.flow, "reversal is an involution");
            assert_eq!(b.created_at, f.created_at);
            assert_eq!(b.size, f.size);
            assert!(b.id.0 >= 1 << 39);
        }
    }

    #[test]
    fn cross_trace_rate_supports_93pct_total() {
        // regular ~0.22 + cross ~0.71 ≈ 0.93 of the bottleneck (§4.1).
        let cross = TraceConfig::paper_cross(5, SimDuration::from_millis(500));
        let t = generate(&cross);
        let u = t.offered_utilization();
        assert!((0.62..=0.82).contains(&u), "cross utilization {u}");
    }
}
