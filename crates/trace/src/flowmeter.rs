//! YAF-style flow metering.
//!
//! The paper's simulator is "based on an open-source NetFlow software — YAF"
//! (§4.1). This module reproduces the metering core of such a tool: packets
//! are aggregated into flow records keyed by 5-tuple, with first/last
//! timestamps, packet and byte counters, and active/idle timeout expiry.
//!
//! Beyond fidelity to the paper's toolchain, the records feed the *Multiflow*
//! baseline estimator (`rlir-baselines`), which exploits exactly "the two
//! timestamps already stored on a per-flow basis within NetFlow" (§5).

use rlir_net::fxhash::FxHashMap;
use rlir_net::packet::Packet;
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;

/// One NetFlow-style record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRecord {
    /// The 5-tuple.
    pub key: FlowKey,
    /// Timestamp of the first packet in the record.
    pub first: SimTime,
    /// Timestamp of the last packet in the record.
    pub last: SimTime,
    /// Packets accumulated.
    pub packets: u64,
    /// Bytes accumulated.
    pub bytes: u64,
}

impl FlowRecord {
    fn open(key: FlowKey, at: SimTime, bytes: u32) -> Self {
        FlowRecord {
            key,
            first: at,
            last: at,
            packets: 1,
            bytes: bytes as u64,
        }
    }

    fn update(&mut self, at: SimTime, bytes: u32) {
        self.last = self.last.max(at);
        self.packets += 1;
        self.bytes += bytes as u64;
    }

    /// Flow duration (last − first).
    pub fn duration(&self) -> SimDuration {
        self.last.saturating_since(self.first)
    }
}

/// Flow meter configuration.
#[derive(Debug, Clone, Copy)]
pub struct FlowMeterConfig {
    /// A flow idle for longer than this is expired (NetFlow default 15 s;
    /// YAF default 300 s — short traces rarely trigger it).
    pub idle_timeout: SimDuration,
    /// A flow active for longer than this is expired and restarted
    /// (NetFlow default 30 min).
    pub active_timeout: SimDuration,
}

impl Default for FlowMeterConfig {
    fn default() -> Self {
        FlowMeterConfig {
            idle_timeout: SimDuration::from_secs(15),
            active_timeout: SimDuration::from_secs(1800),
        }
    }
}

/// Aggregates packets into flow records with timeout-based expiry.
#[derive(Debug, Clone)]
pub struct FlowMeter {
    cfg: FlowMeterConfig,
    active: FxHashMap<FlowKey, FlowRecord>,
    exported: Vec<FlowRecord>,
}

impl FlowMeter {
    /// Build with the given timeouts.
    pub fn new(cfg: FlowMeterConfig) -> Self {
        FlowMeter {
            cfg,
            active: FxHashMap::default(),
            exported: Vec::new(),
        }
    }

    /// Observe one packet at its `created_at` time. Reference packets are
    /// not metered (YAF in the paper's pipeline only sees trace traffic).
    pub fn observe(&mut self, p: &Packet) {
        if p.is_reference() {
            return;
        }
        self.observe_at(p.flow, p.created_at, p.size);
    }

    /// Observe a (key, time, bytes) triple directly.
    pub fn observe_at(&mut self, key: FlowKey, at: SimTime, bytes: u32) {
        match self.active.get_mut(&key) {
            Some(rec) => {
                let idle = at.saturating_since(rec.last);
                let active = at.saturating_since(rec.first);
                if idle > self.cfg.idle_timeout || active > self.cfg.active_timeout {
                    // Export and restart the record.
                    self.exported.push(*rec);
                    *rec = FlowRecord::open(key, at, bytes);
                } else {
                    rec.update(at, bytes);
                }
            }
            None => {
                self.active.insert(key, FlowRecord::open(key, at, bytes));
            }
        }
    }

    /// Flush all remaining active flows and return the complete record set,
    /// sorted by (first, key) for determinism.
    pub fn finish(mut self) -> Vec<FlowRecord> {
        self.exported.extend(self.active.drain().map(|(_, r)| r));
        self.exported.sort_by_key(|r| (r.first, r.key));
        self.exported
    }
}

impl Default for FlowMeter {
    fn default() -> Self {
        Self::new(FlowMeterConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(i: u8) -> FlowKey {
        FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, i),
            1000,
            Ipv4Addr::new(10, 1, 0, 1),
            53,
        )
    }

    #[test]
    fn aggregates_packets_into_one_record() {
        let mut m = FlowMeter::default();
        m.observe_at(key(1), SimTime::from_micros(10), 100);
        m.observe_at(key(1), SimTime::from_micros(30), 200);
        m.observe_at(key(1), SimTime::from_micros(20), 50); // out of order
        let recs = m.finish();
        assert_eq!(recs.len(), 1);
        let r = recs[0];
        assert_eq!(r.packets, 3);
        assert_eq!(r.bytes, 350);
        assert_eq!(r.first, SimTime::from_micros(10));
        assert_eq!(r.last, SimTime::from_micros(30));
        assert_eq!(r.duration(), SimDuration::from_micros(20));
    }

    #[test]
    fn distinct_keys_distinct_records() {
        let mut m = FlowMeter::default();
        m.observe_at(key(1), SimTime::ZERO, 10);
        m.observe_at(key(2), SimTime::ZERO, 10);
        assert_eq!(m.active.len(), 2);
        assert_eq!(m.finish().len(), 2);
    }

    #[test]
    fn idle_timeout_splits_records() {
        let cfg = FlowMeterConfig {
            idle_timeout: SimDuration::from_millis(1),
            active_timeout: SimDuration::from_secs(3600),
        };
        let mut m = FlowMeter::new(cfg);
        m.observe_at(key(1), SimTime::ZERO, 10);
        m.observe_at(key(1), SimTime::from_millis(5), 10); // > idle timeout
        assert_eq!(m.exported.len(), 1);
        let recs = m.finish();
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.packets == 1));
    }

    #[test]
    fn active_timeout_splits_records() {
        let cfg = FlowMeterConfig {
            idle_timeout: SimDuration::from_secs(3600),
            active_timeout: SimDuration::from_millis(10),
        };
        let mut m = FlowMeter::new(cfg);
        // Packets every 4 ms keep the flow never-idle, but the active
        // timeout fires after 10 ms.
        for i in 0..5u64 {
            m.observe_at(key(1), SimTime::from_millis(i * 4), 10);
        }
        let recs = m.finish();
        assert!(recs.len() >= 2, "active timeout should split, got {recs:?}");
        assert_eq!(recs.iter().map(|r| r.packets).sum::<u64>(), 5);
    }

    #[test]
    fn reference_packets_ignored() {
        let mut m = FlowMeter::default();
        let p = Packet::reference(1, key(1), rlir_net::SenderId(0), 0, SimTime::ZERO);
        m.observe(&p);
        assert!(m.finish().is_empty());
    }

    #[test]
    fn finish_is_sorted_and_deterministic() {
        let mut m = FlowMeter::default();
        for i in (1..20u8).rev() {
            m.observe_at(key(i), SimTime::from_micros(i as u64), 1);
        }
        let recs = m.finish();
        for w in recs.windows(2) {
            assert!(w[0].first <= w[1].first);
        }
    }

    #[test]
    fn meters_trace_packets() {
        let mut m = FlowMeter::default();
        let p = Packet::regular(1, key(3), 120, SimTime::from_micros(5));
        m.observe(&p);
        let recs = m.finish();
        assert_eq!((recs[0].packets, recs[0].bytes), (1, 120));
    }
}
