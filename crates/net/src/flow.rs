//! Flow identification.
//!
//! RLI aggregates per-packet latency estimates by *flow key* — the classic
//! 5-tuple (source address, destination address, protocol, source port,
//! destination port). The paper's traces carry ~1.45 M flows over 22.4 M
//! packets, so the key is designed to be a compact, hashable value type.

use core::fmt;
use std::net::Ipv4Addr;

/// Transport protocol carried in the IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Protocol {
    /// Transmission Control Protocol (IP protocol 6).
    Tcp = 6,
    /// User Datagram Protocol (IP protocol 17).
    Udp = 17,
    /// Anything else, carrying the raw IP protocol number.
    Other(u8),
}

impl Protocol {
    /// The IANA protocol number.
    #[inline]
    pub fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(n) => n,
        }
    }

    /// Build from an IANA protocol number, canonicalising TCP/UDP.
    #[inline]
    pub fn from_number(n: u8) -> Self {
        match n {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Udp => write!(f, "udp"),
            Protocol::Other(n) => write!(f, "proto{n}"),
        }
    }
}

/// The 5-tuple flow key used for per-flow latency aggregation and for ECMP
/// hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst: Ipv4Addr,
    /// Transport protocol.
    pub proto: Protocol,
    /// Transport source port (0 for protocols without ports).
    pub sport: u16,
    /// Transport destination port (0 for protocols without ports).
    pub dport: u16,
}

// Hand-rolled: the derived impl feeds the hasher one field at a time (five
// hasher rounds); packing the 13 canonical bytes into two words halves the
// per-lookup cost in the hot per-flow tables. Semantically identical to any
// correct `Hash` impl (equal keys → equal packed words).
impl core::hash::Hash for FlowKey {
    #[inline]
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        let w1 = (u32::from(self.src) as u64) << 32 | u32::from(self.dst) as u64;
        let w2 = (self.proto.number() as u64) << 32 | (self.sport as u64) << 16 | self.dport as u64;
        state.write_u64(w1);
        state.write_u64(w2);
    }
}

impl FlowKey {
    /// Construct a TCP flow key.
    pub fn tcp(src: Ipv4Addr, sport: u16, dst: Ipv4Addr, dport: u16) -> Self {
        FlowKey {
            src,
            dst,
            proto: Protocol::Tcp,
            sport,
            dport,
        }
    }

    /// Construct a UDP flow key.
    pub fn udp(src: Ipv4Addr, sport: u16, dst: Ipv4Addr, dport: u16) -> Self {
        FlowKey {
            src,
            dst,
            proto: Protocol::Udp,
            sport,
            dport,
        }
    }

    /// Serialise the key into the 13-byte canonical layout used by the ECMP
    /// hash functions and the wire format:
    /// `src(4) | dst(4) | proto(1) | sport(2) | dport(2)`.
    pub fn to_bytes(self) -> [u8; 13] {
        let mut b = [0u8; 13];
        b[0..4].copy_from_slice(&self.src.octets());
        b[4..8].copy_from_slice(&self.dst.octets());
        b[8] = self.proto.number();
        b[9..11].copy_from_slice(&self.sport.to_be_bytes());
        b[11..13].copy_from_slice(&self.dport.to_be_bytes());
        b
    }

    /// Inverse of [`FlowKey::to_bytes`].
    pub fn from_bytes(b: &[u8; 13]) -> Self {
        FlowKey {
            src: Ipv4Addr::new(b[0], b[1], b[2], b[3]),
            dst: Ipv4Addr::new(b[4], b[5], b[6], b[7]),
            proto: Protocol::from_number(b[8]),
            sport: u16::from_be_bytes([b[9], b[10]]),
            dport: u16::from_be_bytes([b[11], b[12]]),
        }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} ({})",
            self.src, self.sport, self.dst, self.dport, self.proto
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 1, 2),
            43120,
            Ipv4Addr::new(10, 3, 0, 2),
            80,
        )
    }

    #[test]
    fn protocol_numbers_round_trip() {
        assert_eq!(Protocol::from_number(6), Protocol::Tcp);
        assert_eq!(Protocol::from_number(17), Protocol::Udp);
        assert_eq!(Protocol::from_number(47), Protocol::Other(47));
        for n in 0..=255u8 {
            assert_eq!(Protocol::from_number(n).number(), n);
        }
    }

    #[test]
    fn byte_layout_round_trips() {
        let k = key();
        let b = k.to_bytes();
        assert_eq!(FlowKey::from_bytes(&b), k);
        // Spot-check the layout: sport big-endian at offset 9.
        assert_eq!(u16::from_be_bytes([b[9], b[10]]), 43120);
        assert_eq!(b[8], 6);
    }

    #[test]
    fn display_is_readable() {
        let k = key();
        assert_eq!(k.to_string(), "10.0.1.2:43120 -> 10.3.0.2:80 (tcp)");
    }

    #[test]
    fn udp_constructor() {
        let k = FlowKey::udp(
            Ipv4Addr::new(1, 2, 3, 4),
            53,
            Ipv4Addr::new(5, 6, 7, 8),
            5353,
        );
        assert_eq!(k.proto, Protocol::Udp);
        assert_eq!(k.to_bytes()[8], 17);
    }
}
