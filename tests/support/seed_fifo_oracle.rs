//! The seed's analytic drop-tail FIFO, kept as `FifoQueue`'s differential
//! oracle. It recomputes a `u128` `div_ceil` transmission time and a `u128`
//! backlog conversion on every offer — the per-packet arithmetic
//! `FifoQueue` does in 64 bits — and must agree with it bit for bit.

use rlir_net::packet::{Packet, PacketKind};
use rlir_net::time::{SimDuration, SimTime};
use rlir_sim::{ClassCounters, QueueConfig, Verdict};

/// Frozen copy of the seed's analytic drop-tail FIFO.
#[derive(Debug, Clone)]
pub struct SeedFifoQueue {
    cfg: QueueConfig,
    next_free: SimTime,
    last_arrival: SimTime,
    busy: SimDuration,
    classes: [ClassCounters; 3],
}

impl SeedFifoQueue {
    /// Build from configuration.
    pub fn new(cfg: QueueConfig) -> Self {
        assert!(cfg.rate_bps > 0, "queue rate must be positive");
        SeedFifoQueue {
            cfg,
            next_free: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            busy: SimDuration::ZERO,
            classes: [ClassCounters::default(); 3],
        }
    }

    /// Bytes of backlog at time `at` (seed arithmetic: u128 throughout).
    pub fn backlog_bytes(&self, at: SimTime) -> u64 {
        let remaining = self.next_free.saturating_since(at);
        (remaining.as_nanos() as u128 * self.cfg.rate_bps as u128 / 8 / 1_000_000_000) as u64
    }

    /// Offer a packet (seed arithmetic: per-packet u128 div_ceil).
    pub fn offer(&mut self, at: SimTime, packet: &Packet) -> Verdict {
        debug_assert!(
            at >= self.last_arrival,
            "FIFO arrivals must be time-ordered"
        );
        self.last_arrival = at;
        let class = match packet.kind {
            PacketKind::Regular => 0,
            PacketKind::Cross => 1,
            PacketKind::Reference { .. } => 2,
        };
        self.classes[class].arrivals += 1;
        let enq_at = at + self.cfg.processing_delay;
        let backlog = self.backlog_bytes(enq_at);
        if backlog + packet.size as u64 > self.cfg.capacity_bytes {
            self.classes[class].drops += 1;
            return Verdict::Dropped;
        }
        let tx = self.cfg.transmission(packet.size);
        let start = self.next_free.max(enq_at);
        let depart = start + tx;
        self.next_free = depart;
        self.busy += tx;
        self.classes[class].bytes += packet.size as u64;
        Verdict::Departs(depart)
    }

    /// Counters for regular traffic.
    pub fn regular(&self) -> &ClassCounters {
        &self.classes[0]
    }

    /// Link utilization over `[0, horizon]`.
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
}
