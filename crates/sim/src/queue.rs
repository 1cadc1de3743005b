//! Output-queue model.
//!
//! The paper's simulator "lets packets from the trace experience processing
//! and queueing delays across multiple queues (equivalently, multiple
//! routers/switches) … governed by queue size and packet processing time"
//! (§4.1). [`FifoQueue`] is that queue: a fixed processing delay followed by
//! a drop-tail FIFO drained at the link rate.
//!
//! Because service is FIFO at a constant bit rate, the queue can be
//! simulated *analytically*: it only needs the time the server becomes free
//! (`next_free`). Backlog at any instant is `(next_free − now) · rate`, which
//! gives exact drop-tail semantics in O(1) per packet with no event heap —
//! the property that makes the paper's utilization sweeps cheap to re-run.
//!
//! Arrivals must be offered in non-decreasing time order (FIFO links deliver
//! in order; the multi-stream merge is the caller's job).
//!
//! A [`FifoQueue`] is one flat 128-byte record — configuration, three
//! clocks, the backlog peak and the per-class counters — and `offer` reads
//! nothing else: the transmission time is computed, not looked up. (An
//! earlier revision memoized it per packet size in a 16 KiB table behind
//! each port; on a k = 8 fabric that was 8.9 MB of tables whose one load per
//! packet missed cache more than the division it saved.)

use rlir_net::packet::{Packet, PacketKind};
use rlir_net::time::{SimDuration, SimTime};

/// Static configuration of one queue/port.
#[derive(Debug, Clone, Copy)]
pub struct QueueConfig {
    /// Drain (link) rate in bits per second.
    pub rate_bps: u64,
    /// Drop-tail capacity in bytes of queued (not-yet-serialised) data.
    pub capacity_bytes: u64,
    /// Fixed per-packet processing (pipeline) delay before enqueue.
    pub processing_delay: SimDuration,
}

impl QueueConfig {
    /// OC-192-style defaults used throughout the evaluation: 9.953 Gb/s,
    /// 1 µs processing latency, 512 KiB of buffer (≈ 420 µs of drain time).
    pub fn oc192() -> Self {
        QueueConfig {
            rate_bps: 9_953_000_000,
            capacity_bytes: 512 * 1024,
            processing_delay: SimDuration::from_micros(1),
        }
    }

    /// Time to serialise `bytes` at this queue's rate.
    pub fn transmission(&self, bytes: u32) -> SimDuration {
        SimDuration::transmission(bytes, self.rate_bps)
    }
}

/// Per-traffic-class counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassCounters {
    /// Packets offered.
    pub arrivals: u64,
    /// Packets dropped by drop-tail.
    pub drops: u64,
    /// Bytes accepted (excluding drops).
    pub bytes: u64,
}

/// Index of a [`PacketKind`] into the per-class counter array.
fn class_index(kind: &PacketKind) -> usize {
    match kind {
        PacketKind::Regular => 0,
        PacketKind::Cross => 1,
        PacketKind::Reference { .. } => 2,
    }
}

/// Verdict for an offered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Accepted; the packet fully departs (last bit on the wire) at this time.
    Departs(SimTime),
    /// Dropped by drop-tail.
    Dropped,
}

/// Sizes below this have `size · 8·10⁹` inside a `u64` (2³⁰ · 8·10⁹ ≈
/// 0.47 · 2⁶⁴), so their transmission time is one 64-bit `div_ceil`.
const TX_U64_SIZES: u32 = 1 << 30;

/// Analytic drop-tail FIFO with fixed processing delay.
///
/// The whole queue is 128 bytes of plain words — no table behind a
/// pointer — so an `offer` touches two cache lines however many ports the
/// fabric has. Transmission times are one 64-bit `div_ceil` (the seed
/// computed a `u128` one per packet) and backlog conversion runs in 64-bit
/// arithmetic whenever it cannot overflow (always, for sub-second
/// backlogs). Every returned value is bit-identical to the seed
/// implementation, which `tests/support/seed_fifo_oracle.rs` keeps as the
/// differential tests' oracle.
#[derive(Debug, Clone)]
pub struct FifoQueue {
    cfg: QueueConfig,
    next_free: SimTime,
    last_arrival: SimTime,
    busy: SimDuration,
    peak_backlog_bytes: u64,
    classes: [ClassCounters; 3],
}

impl FifoQueue {
    /// Build from configuration.
    pub fn new(cfg: QueueConfig) -> Self {
        assert!(cfg.rate_bps > 0, "queue rate must be positive");
        FifoQueue {
            cfg,
            next_free: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            busy: SimDuration::ZERO,
            peak_backlog_bytes: 0,
            classes: [ClassCounters::default(); 3],
        }
    }

    /// The queue's configuration.
    pub fn config(&self) -> &QueueConfig {
        &self.cfg
    }

    /// Change the per-packet processing delay mid-run — the fault plane's
    /// switch-degradation knob. Safe at any point between offers: the
    /// processing delay is read fresh on every [`Self::offer`].
    pub fn set_processing_delay(&mut self, delay: SimDuration) {
        self.cfg.processing_delay = delay;
    }

    /// Exact transmission time of `size` bytes: what
    /// [`QueueConfig::transmission`] returns, in 64-bit arithmetic where
    /// the product fits.
    #[inline]
    fn tx_ns(&self, size: u32) -> SimDuration {
        if size < TX_U64_SIZES {
            SimDuration::from_nanos((size as u64 * 8_000_000_000).div_ceil(self.cfg.rate_bps))
        } else {
            self.cfg.transmission(size)
        }
    }

    /// Bytes of backlog (queued, not yet serialised) at time `at`.
    #[inline]
    pub fn backlog_bytes(&self, at: SimTime) -> u64 {
        let remaining = self.next_free.saturating_since(at).as_nanos();
        // bytes = ns · rate / 8e9. The u64 product cannot overflow while
        // `remaining · rate < 2^64` — true for any sub-second backlog at up
        // to ~1.8 Tb/s — and the constant divisor compiles to a multiply.
        if let Some(product) = remaining.checked_mul(self.cfg.rate_bps) {
            product / 8_000_000_000
        } else {
            (remaining as u128 * self.cfg.rate_bps as u128 / 8_000_000_000) as u64
        }
    }

    /// Offer a packet. Returns its departure time or `Dropped`.
    ///
    /// Panics in debug builds if arrivals go backwards in time.
    pub fn offer(&mut self, at: SimTime, packet: &Packet) -> Verdict {
        debug_assert!(
            at >= self.last_arrival,
            "FIFO arrivals must be time-ordered: {at} < {}",
            self.last_arrival
        );
        self.last_arrival = at;
        let class = class_index(&packet.kind);
        self.classes[class].arrivals += 1;

        // Processing pipeline is cut-through: it delays the packet but does
        // not occupy the output buffer.
        let enq_at = at + self.cfg.processing_delay;
        let backlog = self.backlog_bytes(enq_at);
        if backlog + packet.size as u64 > self.cfg.capacity_bytes {
            self.classes[class].drops += 1;
            return Verdict::Dropped;
        }
        self.peak_backlog_bytes = self.peak_backlog_bytes.max(backlog + packet.size as u64);
        let tx = self.tx_ns(packet.size);
        let start = self.next_free.max(enq_at);
        let depart = start + tx;
        self.next_free = depart;
        self.busy += tx;
        self.classes[class].bytes += packet.size as u64;
        Verdict::Departs(depart)
    }

    /// Counters for a traffic class.
    pub fn class(&self, kind: &PacketKind) -> &ClassCounters {
        &self.classes[class_index(kind)]
    }

    /// Counters for regular traffic.
    pub fn regular(&self) -> &ClassCounters {
        &self.classes[0]
    }

    /// Counters for cross traffic.
    pub fn cross(&self) -> &ClassCounters {
        &self.classes[1]
    }

    /// Counters for reference packets.
    pub fn reference(&self) -> &ClassCounters {
        &self.classes[2]
    }

    /// Total packets offered across classes.
    pub fn total_arrivals(&self) -> u64 {
        self.classes.iter().map(|c| c.arrivals).sum()
    }

    /// Total packets dropped across classes.
    pub fn total_drops(&self) -> u64 {
        self.classes.iter().map(|c| c.drops).sum()
    }

    /// Total bytes accepted across classes.
    pub fn total_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.bytes).sum()
    }

    /// Link utilization over `[0, horizon]`: fraction of time the server was
    /// transmitting.
    pub fn utilization(&self, horizon: SimDuration) -> f64 {
        if horizon == SimDuration::ZERO {
            return 0.0;
        }
        (self.busy.as_nanos() as f64 / horizon.as_nanos() as f64).min(1.0)
    }

    /// Total time the server has spent transmitting.
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Largest instantaneous backlog observed at any accept, in bytes.
    pub fn peak_backlog(&self) -> u64 {
        self.peak_backlog_bytes
    }

    /// Time at which the server finishes its current backlog.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_net::FlowKey;
    use std::net::Ipv4Addr;

    fn cfg() -> QueueConfig {
        QueueConfig {
            rate_bps: 8_000_000_000, // 1 byte/ns: convenient arithmetic
            capacity_bytes: 10_000,
            processing_delay: SimDuration::ZERO,
        }
    }

    fn pkt(id: u64, size: u32) -> Packet {
        Packet::regular(
            id,
            FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2),
            size,
            SimTime::ZERO,
        )
    }

    #[test]
    fn empty_queue_serves_immediately() {
        let mut q = FifoQueue::new(cfg());
        // 1000 B at 1 B/ns = 1000 ns service.
        match q.offer(SimTime::from_nanos(100), &pkt(1, 1000)) {
            Verdict::Departs(t) => assert_eq!(t.as_nanos(), 1100),
            Verdict::Dropped => panic!("dropped"),
        }
    }

    #[test]
    fn back_to_back_packets_queue_up() {
        let mut q = FifoQueue::new(cfg());
        let d1 = q.offer(SimTime::ZERO, &pkt(1, 1000));
        let d2 = q.offer(SimTime::ZERO, &pkt(2, 1000));
        assert_eq!(d1, Verdict::Departs(SimTime::from_nanos(1000)));
        assert_eq!(d2, Verdict::Departs(SimTime::from_nanos(2000)));
        // Server keeps FIFO order even when the second arrives mid-service.
        let d3 = q.offer(SimTime::from_nanos(500), &pkt(3, 500));
        assert_eq!(d3, Verdict::Departs(SimTime::from_nanos(2500)));
    }

    #[test]
    fn processing_delay_shifts_service() {
        let mut q = FifoQueue::new(QueueConfig {
            processing_delay: SimDuration::from_nanos(250),
            ..cfg()
        });
        match q.offer(SimTime::ZERO, &pkt(1, 1000)) {
            Verdict::Departs(t) => assert_eq!(t.as_nanos(), 1250),
            Verdict::Dropped => panic!("dropped"),
        }
    }

    #[test]
    fn backlog_accounting_is_exact() {
        let mut q = FifoQueue::new(cfg());
        q.offer(SimTime::ZERO, &pkt(1, 4000));
        q.offer(SimTime::ZERO, &pkt(2, 4000));
        // At t=0 the server has 8000 B left to serialise.
        assert_eq!(q.backlog_bytes(SimTime::ZERO), 8000);
        // 3000 ns later, 3000 B have drained.
        assert_eq!(q.backlog_bytes(SimTime::from_nanos(3000)), 5000);
        assert_eq!(q.backlog_bytes(SimTime::from_nanos(8000)), 0);
        assert_eq!(q.peak_backlog(), 8000);
    }

    #[test]
    fn drop_tail_at_capacity() {
        let mut q = FifoQueue::new(cfg()); // capacity 10_000 B
        q.offer(SimTime::ZERO, &pkt(1, 6000));
        q.offer(SimTime::ZERO, &pkt(2, 4000)); // exactly at capacity: accepted
        let v = q.offer(SimTime::ZERO, &pkt(3, 1));
        assert_eq!(v, Verdict::Dropped);
        assert_eq!(q.total_drops(), 1);
        assert_eq!(q.regular().drops, 1);
        // After draining, new packets are accepted again.
        let v = q.offer(SimTime::from_nanos(10_000), &pkt(4, 1000));
        assert!(matches!(v, Verdict::Departs(_)));
    }

    #[test]
    fn per_class_counters_separate() {
        let mut q = FifoQueue::new(cfg());
        let flow = FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2);
        q.offer(SimTime::ZERO, &Packet::regular(1, flow, 100, SimTime::ZERO));
        q.offer(SimTime::ZERO, &Packet::cross(2, flow, 200, SimTime::ZERO));
        q.offer(
            SimTime::ZERO,
            &Packet::reference(3, flow, rlir_net::SenderId(0), 0, SimTime::ZERO),
        );
        assert_eq!(q.regular().arrivals, 1);
        assert_eq!(q.regular().bytes, 100);
        assert_eq!(q.cross().arrivals, 1);
        assert_eq!(q.cross().bytes, 200);
        assert_eq!(q.reference().arrivals, 1);
        assert_eq!(q.total_bytes(), 100 + 200 + 64); // reference packets are 64 B
        assert_eq!(q.total_arrivals(), 3);
    }

    #[test]
    fn utilization_over_horizon() {
        let mut q = FifoQueue::new(cfg());
        q.offer(SimTime::ZERO, &pkt(1, 5000)); // 5000 ns busy
        let u = q.utilization(SimDuration::from_nanos(10_000));
        assert!((u - 0.5).abs() < 1e-9);
        assert_eq!(q.utilization(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn would_wait_matches_offer() {
        let mut q = FifoQueue::new(cfg());
        q.offer(SimTime::ZERO, &pkt(1, 2000));
        let at = SimTime::from_nanos(500);
        // Queueing behind the backlog, then transmission.
        let predicted = q.next_free.saturating_since(at) + q.cfg.transmission(1000);
        match q.offer(at, &pkt(2, 1000)) {
            Verdict::Departs(t) => assert_eq!(t, at + predicted),
            Verdict::Dropped => panic!("dropped"),
        }
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    #[cfg(debug_assertions)]
    fn rejects_time_travel() {
        let mut q = FifoQueue::new(cfg());
        q.offer(SimTime::from_nanos(100), &pkt(1, 10));
        q.offer(SimTime::from_nanos(50), &pkt(2, 10));
    }

    #[test]
    fn queue_is_two_cache_lines() {
        // One per port of a fabric, touched on every hop.
        assert_eq!(std::mem::size_of::<FifoQueue>(), 128);
    }

    #[test]
    fn oc192_preset_sane() {
        let c = QueueConfig::oc192();
        // 1250 B at ~10 Gb/s ≈ 1 µs.
        let tx = c.transmission(1250);
        assert!((990..=1010).contains(&tx.as_nanos()), "{tx}");
    }
}
