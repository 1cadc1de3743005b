//! Wire formats.
//!
//! RLI reference packets are real packets on the wire: an IPv4 + UDP
//! datagram whose payload carries the RLI header (sender id, sequence
//! number, egress timestamp). This module implements the full encode/decode
//! path — IPv4 header with internet checksum, UDP header, and the RLI
//! payload with its own CRC — so a deployment could interoperate with a
//! software implementation of the receiver, and so tests can exercise
//! corruption detection.
//!
//! Layout of the RLI payload (20 bytes, network byte order):
//!
//! ```text
//!  0      2      3       5          9                 17      20
//!  | magic | ver  | sender | seq      | tx_timestamp_ns | crc16 |
//!  |  u16  |  u8  |  u16   | u32      |       u64       |  u16  | (+1 pad)
//! ```

use crate::flow::{FlowKey, Protocol};
use crate::packet::{ReferenceInfo, SenderId};
use crate::time::SimTime;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use core::fmt;
use std::net::Ipv4Addr;

/// Magic identifying an RLI payload ("RL").
pub const RLI_MAGIC: u16 = 0x524C;
/// Current RLI payload version.
pub const RLI_VERSION: u8 = 1;
/// UDP destination port reserved for RLI reference packets.
pub const RLI_UDP_PORT: u16 = 54912;
/// Size in bytes of the RLI payload.
pub const RLI_PAYLOAD_LEN: usize = 20;
/// IPv4 header length without options.
pub const IPV4_HEADER_LEN: usize = 20;
/// UDP header length.
pub const UDP_HEADER_LEN: usize = 8;

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
    /// Bad magic value in the RLI payload.
    BadMagic(u16),
    /// Unsupported RLI version.
    BadVersion(u8),
    /// RLI payload CRC mismatch.
    BadPayloadCrc {
        /// CRC computed over the received bytes.
        expected: u16,
        /// CRC carried in the packet.
        got: u16,
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
    /// The datagram is not an RLI reference packet (wrong proto/port).
    NotReference,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, got } => {
                write!(f, "truncated: need {need} bytes, got {got}")
            }
            WireError::BadMagic(m) => write!(f, "bad RLI magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported RLI version {v}"),
            WireError::BadPayloadCrc { expected, got } => {
                write!(
                    f,
                    "RLI payload CRC mismatch: expected {expected:#06x}, got {got:#06x}"
                )
            }
            WireError::BadIpChecksum { expected, got } => {
                write!(
                    f,
                    "IPv4 checksum mismatch: expected {expected:#06x}, got {got:#06x}"
                )
            }
            WireError::BadIpHeader(b) => write!(f, "unsupported IPv4 version/IHL byte {b:#04x}"),
            WireError::NotReference => write!(f, "not an RLI reference packet"),
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

/// CRC-16/CCITT (poly 0x1021, init 0xFFFF) protecting the RLI payload.
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let mut crc = 0xFFFFu16;
    for &b in data {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
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
    /// Encode into `buf`, computing the header checksum.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        let mut hdr = [0u8; IPV4_HEADER_LEN];
        self.encode_into(&mut hdr);
        buf.put_slice(&hdr);
    }

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

/// Encode the 20-byte RLI payload.
pub fn encode_rli_payload(info: &ReferenceInfo) -> [u8; RLI_PAYLOAD_LEN] {
    let mut p = [0u8; RLI_PAYLOAD_LEN];
    p[0..2].copy_from_slice(&RLI_MAGIC.to_be_bytes());
    p[2] = RLI_VERSION;
    p[3..5].copy_from_slice(&info.sender.0.to_be_bytes());
    p[5..9].copy_from_slice(&info.seq.to_be_bytes());
    p[9..17].copy_from_slice(&info.tx_timestamp.as_nanos().to_be_bytes());
    let crc = crc16_ccitt(&p[..17]);
    p[17..19].copy_from_slice(&crc.to_be_bytes());
    // p[19] is padding, kept zero.
    p
}

/// Decode and validate the 20-byte RLI payload.
pub fn decode_rli_payload(data: &[u8]) -> Result<ReferenceInfo, WireError> {
    if data.len() < RLI_PAYLOAD_LEN {
        return Err(WireError::Truncated {
            need: RLI_PAYLOAD_LEN,
            got: data.len(),
        });
    }
    let magic = u16::from_be_bytes([data[0], data[1]]);
    if magic != RLI_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if data[2] != RLI_VERSION {
        return Err(WireError::BadVersion(data[2]));
    }
    let expected = crc16_ccitt(&data[..17]);
    let got = u16::from_be_bytes([data[17], data[18]]);
    if expected != got {
        return Err(WireError::BadPayloadCrc { expected, got });
    }
    Ok(ReferenceInfo {
        sender: SenderId(u16::from_be_bytes([data[3], data[4]])),
        seq: u32::from_be_bytes([data[5], data[6], data[7], data[8]]),
        tx_timestamp: SimTime::from_nanos(u64::from_be_bytes(
            data[9..17].try_into().expect("8 bytes"),
        )),
    })
}

/// Encode a complete reference packet: IPv4 + UDP + RLI payload.
///
/// The flow key's addresses/ports are used for the IP/UDP headers so the
/// packet hashes onto the intended ECMP path; `tos` carries an optional mark.
pub fn encode_reference_packet(flow: &FlowKey, info: &ReferenceInfo, tos: u8) -> Bytes {
    let total = IPV4_HEADER_LEN + UDP_HEADER_LEN + RLI_PAYLOAD_LEN;
    let mut buf = BytesMut::with_capacity(total);
    Ipv4Header {
        tos,
        total_len: total as u16,
        ident: info.seq as u16,
        ttl: 64,
        proto: Protocol::Udp,
        src: flow.src,
        dst: flow.dst,
    }
    .encode(&mut buf);
    // UDP header: sport from the flow key, dport = RLI port.
    buf.put_u16(flow.sport);
    buf.put_u16(RLI_UDP_PORT);
    buf.put_u16((UDP_HEADER_LEN + RLI_PAYLOAD_LEN) as u16);
    buf.put_u16(0); // UDP checksum optional over IPv4; zero = unused
    buf.put_slice(&encode_rli_payload(info));
    buf.freeze()
}

/// Decoded view of a reference packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedReference {
    /// The outer IPv4 header.
    pub ip: Ipv4Header,
    /// UDP source port (the sender's flow-key port).
    pub sport: u16,
    /// The validated RLI header.
    pub info: ReferenceInfo,
}

/// Decode a complete reference packet produced by [`encode_reference_packet`].
pub fn decode_reference_packet(data: &[u8]) -> Result<DecodedReference, WireError> {
    let (ip, ip_len) = Ipv4Header::decode(data)?;
    if ip.proto != Protocol::Udp {
        return Err(WireError::NotReference);
    }
    let mut rest = &data[ip_len..];
    if rest.len() < UDP_HEADER_LEN {
        return Err(WireError::Truncated {
            need: UDP_HEADER_LEN,
            got: rest.len(),
        });
    }
    let sport = rest.get_u16();
    let dport = rest.get_u16();
    let _len = rest.get_u16();
    let _csum = rest.get_u16();
    if dport != RLI_UDP_PORT {
        return Err(WireError::NotReference);
    }
    let info = decode_rli_payload(rest)?;
    Ok(DecodedReference { ip, sport, info })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info() -> ReferenceInfo {
        ReferenceInfo {
            sender: SenderId(7),
            seq: 123_456,
            tx_timestamp: SimTime::from_nanos(987_654_321_012),
        }
    }

    fn flow() -> FlowKey {
        FlowKey::udp(
            Ipv4Addr::new(10, 0, 1, 254),
            40001,
            Ipv4Addr::new(10, 3, 1, 254),
            RLI_UDP_PORT,
        )
    }

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
    fn crc16_vector() {
        // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16_ccitt(b"123456789"), 0x29B1);
    }

    #[test]
    fn payload_round_trip() {
        let i = info();
        let enc = encode_rli_payload(&i);
        assert_eq!(decode_rli_payload(&enc).unwrap(), i);
    }

    #[test]
    fn payload_detects_corruption() {
        let mut enc = encode_rli_payload(&info());
        for byte in 3..17 {
            enc[byte] ^= 0x40;
            assert!(
                matches!(
                    decode_rli_payload(&enc),
                    Err(WireError::BadPayloadCrc { .. })
                ),
                "corruption at byte {byte} undetected"
            );
            enc[byte] ^= 0x40;
        }
    }

    #[test]
    fn payload_rejects_bad_magic_and_version() {
        let mut enc = encode_rli_payload(&info());
        enc[0] = 0;
        assert!(matches!(
            decode_rli_payload(&enc),
            Err(WireError::BadMagic(_))
        ));
        let mut enc = encode_rli_payload(&info());
        enc[2] = 9;
        assert!(matches!(
            decode_rli_payload(&enc),
            Err(WireError::BadVersion(9))
        ));
        assert!(matches!(
            decode_rli_payload(&[0u8; 4]),
            Err(WireError::Truncated { .. })
        ));
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
        let mut buf = BytesMut::new();
        hdr.encode(&mut buf);
        assert_eq!(buf.len(), IPV4_HEADER_LEN);
        let (dec, len) = Ipv4Header::decode(&buf).unwrap();
        assert_eq!(len, IPV4_HEADER_LEN);
        assert_eq!(dec, hdr);

        // Flip a bit: checksum must catch it.
        let mut bad = buf.to_vec();
        bad[15] ^= 1;
        assert!(matches!(
            Ipv4Header::decode(&bad),
            Err(WireError::BadIpChecksum { .. })
        ));
    }

    #[test]
    fn full_reference_packet_round_trip() {
        let enc = encode_reference_packet(&flow(), &info(), 0x2C);
        assert_eq!(
            enc.len(),
            IPV4_HEADER_LEN + UDP_HEADER_LEN + RLI_PAYLOAD_LEN
        );
        let dec = decode_reference_packet(&enc).unwrap();
        assert_eq!(dec.info, info());
        assert_eq!(dec.ip.tos, 0x2C);
        assert_eq!(dec.ip.src, flow().src);
        assert_eq!(dec.sport, 40001);
    }

    #[test]
    fn non_rli_udp_rejected() {
        let mut flow = flow();
        flow.dport = 53;
        // Encode with the RLI encoder but then clobber the dport bytes.
        let enc = encode_reference_packet(&flow, &info(), 0);
        let mut raw = enc.to_vec();
        raw[IPV4_HEADER_LEN + 2..IPV4_HEADER_LEN + 4].copy_from_slice(&53u16.to_be_bytes());
        assert_eq!(decode_reference_packet(&raw), Err(WireError::NotReference));
    }

    #[test]
    fn wire_size_fits_reference_packet_constant() {
        // The simulated reference-packet size must be able to carry the real
        // encoding (plus 14B Ethernet + 4B FCS = 66 > 64 is fine since 64 is
        // the minimum frame and our payload fits in a minimum frame's 46B
        // payload: 20 + 8 + 20 = 48B > 46B — we account headers at L3).
        let l3 = IPV4_HEADER_LEN + UDP_HEADER_LEN + RLI_PAYLOAD_LEN;
        assert!(l3 as u32 <= crate::packet::REFERENCE_PACKET_BYTES);
    }
}
