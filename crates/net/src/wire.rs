//! Wire formats: the IPv4 header a capture record carries, with its
//! internet checksum, and the UDP port reference packets are addressed to.
//! The pcap writer and decoder (`rlir_trace::pcap`) build on these.

use crate::flow::Protocol;
use core::fmt;
use std::net::Ipv4Addr;

/// UDP destination port reserved for RLI reference packets.
pub const RLI_UDP_PORT: u16 = 54912;
/// IPv4 header length without options.
pub const IPV4_HEADER_LEN: usize = 20;

/// Errors from decoding wire formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input shorter than the fixed header.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        got: usize,
    },
    /// IPv4 header checksum mismatch.
    BadIpChecksum {
        /// Checksum computed over the received header.
        expected: u16,
        /// Checksum carried in the header.
        got: u16,
    },
    /// Unsupported IP version or header length.
    BadIpHeader(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, got } => {
                write!(f, "truncated: need {need} bytes, got {got}")
            }
            WireError::BadIpChecksum { expected, got } => {
                write!(
                    f,
                    "IPv4 checksum mismatch: expected {expected:#06x}, got {got:#06x}"
                )
            }
            WireError::BadIpHeader(b) => write!(f, "unsupported IPv4 version/IHL byte {b:#04x}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The RFC 1071 internet checksum over a byte slice (odd trailing byte padded
/// with zero).
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += u16::from_be_bytes([*last, 0]) as u32;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// A minimal IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Type-of-service / DSCP byte; RLIR's packet-marking demux writes here.
    pub tos: u8,
    /// Total datagram length (header + payload).
    pub total_len: u16,
    /// Identification field.
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// Transport protocol.
    pub proto: Protocol,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Encode into a fixed 20-byte slot, computing the header checksum.
    pub fn encode_into(&self, hdr: &mut [u8; IPV4_HEADER_LEN]) {
        *hdr = [0; IPV4_HEADER_LEN];
        hdr[0] = 0x45; // version 4, IHL 5
        hdr[1] = self.tos;
        hdr[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        hdr[4..6].copy_from_slice(&self.ident.to_be_bytes());
        // flags/fragment offset zero
        hdr[8] = self.ttl;
        hdr[9] = self.proto.number();
        // checksum at [10..12] computed over header with zero placeholder
        hdr[12..16].copy_from_slice(&self.src.octets());
        hdr[16..20].copy_from_slice(&self.dst.octets());
        let csum = internet_checksum(hdr);
        hdr[10..12].copy_from_slice(&csum.to_be_bytes());
    }

    /// Decode and verify the checksum.
    pub fn decode(data: &[u8]) -> Result<(Ipv4Header, usize), WireError> {
        if data.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated {
                need: IPV4_HEADER_LEN,
                got: data.len(),
            });
        }
        if data[0] != 0x45 {
            return Err(WireError::BadIpHeader(data[0]));
        }
        // Verify checksum: sum over header including checksum field is 0.
        let mut hdr = [0u8; IPV4_HEADER_LEN];
        hdr.copy_from_slice(&data[..IPV4_HEADER_LEN]);
        let got = u16::from_be_bytes([hdr[10], hdr[11]]);
        hdr[10] = 0;
        hdr[11] = 0;
        let expected = internet_checksum(&hdr);
        if expected != got {
            return Err(WireError::BadIpChecksum { expected, got });
        }
        Ok((
            Ipv4Header {
                tos: hdr[1],
                total_len: u16::from_be_bytes([hdr[2], hdr[3]]),
                ident: u16::from_be_bytes([hdr[4], hdr[5]]),
                ttl: hdr[8],
                proto: Protocol::from_number(hdr[9]),
                src: Ipv4Addr::new(hdr[12], hdr[13], hdr[14], hdr[15]),
                dst: Ipv4Addr::new(hdr[16], hdr[17], hdr[18], hdr[19]),
            },
            IPV4_HEADER_LEN,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_rfc1071_vector() {
        // Classic example from RFC 1071 documentation.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn checksum_odd_length() {
        assert_eq!(internet_checksum(&[0xFF]), !0xFF00u16);
    }

    #[test]
    fn ipv4_header_round_trip_and_checksum() {
        let hdr = Ipv4Header {
            tos: 0x04,
            total_len: 48,
            ident: 99,
            ttl: 64,
            proto: Protocol::Udp,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 1, 0, 1),
        };
        let mut buf = [0u8; IPV4_HEADER_LEN];
        hdr.encode_into(&mut buf);
        let (dec, len) = Ipv4Header::decode(&buf).unwrap();
        assert_eq!(len, IPV4_HEADER_LEN);
        assert_eq!(dec, hdr);

        // Flip a bit: checksum must catch it.
        let mut bad = buf;
        bad[15] ^= 1;
        assert!(matches!(
            Ipv4Header::decode(&bad),
            Err(WireError::BadIpChecksum { .. })
        ));
    }
}
