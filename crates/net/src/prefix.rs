//! IPv4 prefixes.
//!
//! RLIR's upstream demultiplexer identifies the origin ToR switch of a regular
//! packet by matching its *source address* against the address block assigned
//! to each ToR ("the origin of regular packets can be easily identified by IP
//! address block assigned for hosts in each ToR switch" — §3.1). This module
//! provides the prefix value type; [`crate::trie`] provides longest-prefix
//! matching over sets of them.

use core::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 CIDR prefix, stored in canonical form (host bits zeroed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Prefix {
    addr: u32,
    len: u8,
}

/// Errors produced when parsing or constructing a prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// The prefix length was greater than 32.
    LengthOutOfRange(u8),
    /// The textual form was not `a.b.c.d/len`.
    Malformed(String),
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::LengthOutOfRange(l) => {
                write!(f, "prefix length {l} out of range (0..=32)")
            }
            PrefixError::Malformed(s) => write!(f, "malformed prefix: {s:?}"),
        }
    }
}

impl std::error::Error for PrefixError {}

impl Ipv4Prefix {
    /// The default route `0.0.0.0/0`, matching every address.
    pub const DEFAULT: Ipv4Prefix = Ipv4Prefix { addr: 0, len: 0 };

    /// Build a prefix, canonicalising by masking off host bits.
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Self, PrefixError> {
        if len > 32 {
            return Err(PrefixError::LengthOutOfRange(len));
        }
        let raw = u32::from(addr);
        Ok(Ipv4Prefix {
            addr: raw & mask(len),
            len,
        })
    }

    /// Build a host route (`/32`) for a single address.
    pub fn host(addr: Ipv4Addr) -> Self {
        Ipv4Prefix {
            addr: u32::from(addr),
            len: 32,
        }
    }

    /// The network address (host bits zero).
    #[inline]
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }

    /// The prefix length in bits.
    // `is_empty` would be meaningless for a bit-length, not a container.
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Does `addr` fall inside this prefix?
    #[inline]
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        (u32::from(addr) & mask(self.len)) == self.addr
    }

    /// Is `other` entirely contained in `self` (i.e. `self` is a supernet of
    /// or equal to `other`)?
    pub fn covers(&self, other: &Ipv4Prefix) -> bool {
        self.len <= other.len && (other.addr & mask(self.len)) == self.addr
    }

    /// The first `self.len` bits as an iterator of booleans, most significant
    /// first. Drives trie insertion/lookup.
    pub fn bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| (self.addr >> (31 - i)) & 1 == 1)
    }

    /// The number of addresses covered by this prefix.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// `i`-th address within the prefix (0-based), wrapping inside the block.
    /// Convenient for assigning synthetic host addresses from a ToR block.
    pub fn nth(&self, i: u64) -> Ipv4Addr {
        let off = (i % self.size()) as u32;
        Ipv4Addr::from(self.addr | off)
    }
}

#[inline]
fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| PrefixError::Malformed(s.to_string()))?;
        let addr: Ipv4Addr = addr
            .parse()
            .map_err(|_| PrefixError::Malformed(s.to_string()))?;
        let len: u8 = len
            .parse()
            .map_err(|_| PrefixError::Malformed(s.to_string()))?;
        Ipv4Prefix::new(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalises_host_bits() {
        let pfx = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 16).unwrap();
        assert_eq!(pfx.network(), Ipv4Addr::new(10, 1, 0, 0));
        assert_eq!(pfx.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "10.2.1.0/24", "192.168.1.17/32"] {
            assert_eq!(p(s).to_string(), s);
        }
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("banana/8".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn containment() {
        let pfx = p("10.2.0.0/16");
        assert!(pfx.contains(Ipv4Addr::new(10, 2, 255, 1)));
        assert!(!pfx.contains(Ipv4Addr::new(10, 3, 0, 1)));
        assert!(Ipv4Prefix::DEFAULT.contains(Ipv4Addr::new(8, 8, 8, 8)));
    }

    #[test]
    fn covers_partial_order() {
        let a = p("10.0.0.0/8");
        let b = p("10.2.0.0/16");
        let c = p("10.2.3.0/24");
        assert!(a.covers(&b) && b.covers(&c) && a.covers(&c));
        assert!(!b.covers(&a));
        assert!(a.covers(&a));
        assert!(!b.covers(&p("11.0.0.0/16")));
    }

    #[test]
    fn bits_iterate_msb_first() {
        let pfx = p("192.0.0.0/3");
        let bits: Vec<bool> = pfx.bits().collect();
        assert_eq!(bits, vec![true, true, false]); // 192 = 0b1100_0000
        assert_eq!(Ipv4Prefix::DEFAULT.bits().count(), 0);
        assert_eq!(p("255.255.255.255/32").bits().filter(|b| *b).count(), 32);
    }

    #[test]
    fn size_and_nth() {
        let pfx = p("10.0.1.0/24");
        assert_eq!(pfx.size(), 256);
        assert_eq!(pfx.nth(0), Ipv4Addr::new(10, 0, 1, 0));
        assert_eq!(pfx.nth(17), Ipv4Addr::new(10, 0, 1, 17));
        assert_eq!(pfx.nth(256), Ipv4Addr::new(10, 0, 1, 0)); // wraps
        assert_eq!(Ipv4Prefix::host(Ipv4Addr::new(1, 1, 1, 1)).size(), 1);
    }

    #[test]
    fn host_route() {
        let h = Ipv4Prefix::host(Ipv4Addr::new(10, 1, 1, 9));
        assert_eq!(h.len(), 32);
        assert!(h.contains(Ipv4Addr::new(10, 1, 1, 9)));
        assert!(!h.contains(Ipv4Addr::new(10, 1, 1, 8)));
    }
}
