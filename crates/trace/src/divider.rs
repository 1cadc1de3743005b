//! Traffic divider.
//!
//! The first block in the paper's simulator (Fig. 3): "reads a packet trace
//! and classifies packets as either regular traffic ones or cross traffic
//! ones based on IP addresses". The divider matches each packet's source
//! address against configured prefix sets using the LPM trie and rewrites its
//! traffic class; packets matching no configured class can be dropped or
//! passed through unchanged.

use rlir_net::packet::{Packet, PacketKind};
use rlir_net::prefix::Ipv4Prefix;
use rlir_net::trie::PrefixTrie;

/// Classification verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// Regular (measured) traffic.
    Regular,
    /// Cross traffic.
    Cross,
}

/// Policy for packets whose source matches no configured prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnmatchedPolicy {
    /// Drop the packet from the divided output.
    Drop,
    /// Keep the packet with its existing class.
    Passthrough,
}

/// Classifies packets into regular vs cross traffic by source prefix.
#[derive(Debug, Clone)]
pub struct TrafficDivider {
    trie: PrefixTrie<TrafficClass>,
    unmatched: UnmatchedPolicy,
    dropped: u64,
}

impl TrafficDivider {
    /// Build from `(prefix, class)` pairs and an unmatched-packet policy.
    pub fn new(rules: &[(Ipv4Prefix, TrafficClass)], unmatched: UnmatchedPolicy) -> Self {
        let trie = rules.iter().copied().collect();
        TrafficDivider {
            trie,
            unmatched,
            dropped: 0,
        }
    }

    /// Classify a packet by source address.
    pub fn classify(&self, p: &Packet) -> Option<TrafficClass> {
        self.trie.lookup(p.flow.src).copied()
    }

    /// Number of packets dropped by the [`UnmatchedPolicy::Drop`] policy so
    /// far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Process one packet: rewrite its class per the matching rule. Returns
    /// `None` if the packet is dropped by policy. Reference packets are never
    /// reclassified (their class is structural).
    pub fn divide(&mut self, mut p: Packet) -> Option<Packet> {
        if p.is_reference() {
            return Some(p);
        }
        match self.classify(&p) {
            Some(TrafficClass::Regular) => {
                p.kind = PacketKind::Regular;
                Some(p)
            }
            Some(TrafficClass::Cross) => {
                p.kind = PacketKind::Cross;
                Some(p)
            }
            None => match self.unmatched {
                UnmatchedPolicy::Passthrough => Some(p),
                UnmatchedPolicy::Drop => {
                    self.dropped += 1;
                    None
                }
            },
        }
    }

    /// Divide a whole packet sequence, dropping per policy.
    pub fn divide_all(&mut self, packets: impl IntoIterator<Item = Packet>) -> Vec<Packet> {
        packets.into_iter().filter_map(|p| self.divide(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_net::time::SimTime;
    use rlir_net::FlowKey;
    use std::net::Ipv4Addr;

    fn divider(unmatched: UnmatchedPolicy) -> TrafficDivider {
        TrafficDivider::new(
            &[
                ("10.1.0.0/16".parse().unwrap(), TrafficClass::Regular),
                ("172.16.0.0/14".parse().unwrap(), TrafficClass::Cross),
            ],
            unmatched,
        )
    }

    fn pkt(src: Ipv4Addr) -> Packet {
        Packet::cross(
            1,
            FlowKey::tcp(src, 1000, Ipv4Addr::new(10, 200, 0, 1), 80),
            100,
            SimTime::ZERO,
        )
    }

    #[test]
    fn classifies_by_source_prefix() {
        let mut d = divider(UnmatchedPolicy::Drop);
        let reg = d.divide(pkt(Ipv4Addr::new(10, 1, 2, 3))).unwrap();
        assert!(reg.is_regular(), "should be rewritten to regular");
        let cross = d.divide(pkt(Ipv4Addr::new(172, 17, 0, 1))).unwrap();
        assert!(cross.is_cross());
    }

    #[test]
    fn unmatched_drop_counts() {
        let mut d = divider(UnmatchedPolicy::Drop);
        assert!(d.divide(pkt(Ipv4Addr::new(192, 168, 0, 1))).is_none());
        assert_eq!(d.dropped(), 1);
    }

    #[test]
    fn unmatched_passthrough_keeps_class() {
        let mut d = divider(UnmatchedPolicy::Passthrough);
        let p = d.divide(pkt(Ipv4Addr::new(192, 168, 0, 1))).unwrap();
        assert!(p.is_cross(), "class untouched");
        assert_eq!(d.dropped(), 0);
    }

    #[test]
    fn reference_packets_never_reclassified() {
        let mut d = divider(UnmatchedPolicy::Drop);
        let r = Packet::reference(
            9,
            FlowKey::udp(
                Ipv4Addr::new(192, 168, 9, 9), // would be dropped if classified
                1,
                Ipv4Addr::new(10, 200, 0, 1),
                2,
            ),
            rlir_net::SenderId(1),
            0,
            SimTime::ZERO,
        );
        let out = d.divide(r).unwrap();
        assert!(out.is_reference());
    }

    #[test]
    fn divide_all_filters() {
        let mut d = divider(UnmatchedPolicy::Drop);
        let out = d.divide_all(vec![
            pkt(Ipv4Addr::new(10, 1, 0, 1)),
            pkt(Ipv4Addr::new(8, 8, 8, 8)),
            pkt(Ipv4Addr::new(172, 16, 0, 1)),
        ]);
        assert_eq!(out.len(), 2);
        assert_eq!(d.dropped(), 1);
    }

    #[test]
    fn longest_prefix_wins() {
        // A /24 carve-out inside the cross block is regular.
        let mut d = TrafficDivider::new(
            &[
                ("172.16.0.0/14".parse().unwrap(), TrafficClass::Cross),
                ("172.16.5.0/24".parse().unwrap(), TrafficClass::Regular),
            ],
            UnmatchedPolicy::Drop,
        );
        assert!(d
            .divide(pkt(Ipv4Addr::new(172, 16, 5, 9)))
            .unwrap()
            .is_regular());
        assert!(d
            .divide(pkt(Ipv4Addr::new(172, 16, 6, 9)))
            .unwrap()
            .is_cross());
    }
}
