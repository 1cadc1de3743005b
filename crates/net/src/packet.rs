//! Simulated packet records.
//!
//! A [`Packet`] is the unit that flows through the `rlir-sim` queues and that
//! the RLI/RLIR measurement instances observe. It carries the flow key, the
//! wire size, its traffic class ([`PacketKind`]), an optional ToS-style
//! *mark* (stamped by core switches when the packet-marking demultiplexing
//! strategy is enabled, §3.1), and, for reference packets, the embedded RLI
//! header.

use crate::flow::FlowKey;
use crate::time::SimTime;
use core::fmt;

/// Globally unique packet identifier, assigned at trace-generation or
/// injection time. Used to join simulator ground truth with estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt#{}", self.0)
    }
}

/// Identifier of an RLI sender instance (an interface hosting a sender).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SenderId(pub u16);

impl fmt::Display for SenderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// The RLI header embedded in a reference packet: which sender emitted it,
/// its sequence number in that sender's stream, and the hardware timestamp
/// taken at the sender's egress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReferenceInfo {
    /// Emitting sender instance.
    pub sender: SenderId,
    /// Sequence number within the sender's reference stream.
    pub seq: u32,
    /// Egress (transmit) timestamp stamped by the sender, on the sender's
    /// clock.
    pub tx_timestamp: SimTime,
}

/// Traffic class of a packet.
///
/// The reference variant spells out [`ReferenceInfo`]'s three fields rather
/// than wrapping the struct: the tag then sits in the header's padding and
/// the kind is 16 bytes, not 24, which takes 8 bytes off every [`Packet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Regular (measured) traffic: traverses the full sender→receiver path.
    Regular,
    /// Cross traffic: shares only part of the path (§3.2); never measured
    /// per-flow, only contributes load.
    Cross,
    /// An RLI reference packet carrying the header [`ReferenceInfo`]
    /// describes, field for field.
    Reference {
        /// Emitting sender instance.
        sender: SenderId,
        /// Sequence number within the sender's reference stream.
        seq: u32,
        /// Egress timestamp stamped by the sender, on the sender's clock.
        tx_timestamp: SimTime,
    },
}

const _: () = assert!(core::mem::size_of::<PacketKind>() == 16);

impl PacketKind {
    /// Is this a reference packet?
    #[inline]
    pub fn is_reference(&self) -> bool {
        matches!(self, PacketKind::Reference { .. })
    }
}

/// Size on the wire of a reference packet: minimum Ethernet-ish frame able to
/// carry IPv4 + UDP + the 20-byte RLI payload (see [`crate::wire`]).
pub const REFERENCE_PACKET_BYTES: u32 = 64;

/// A packet moving through the simulated network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Unique id for ground-truth bookkeeping.
    pub id: PacketId,
    /// 5-tuple flow key (for reference packets: the synthetic key the sender
    /// uses so the packet follows the measured path under ECMP).
    pub flow: FlowKey,
    /// Bytes on the wire (headers included).
    pub size: u32,
    /// Traffic class.
    pub kind: PacketKind,
    /// Timestamp at which the packet entered the simulation (trace time).
    pub created_at: SimTime,
    /// ToS/DSCP-style mark; `0` means unmarked. Core switches stamp a
    /// non-zero identifier here when packet marking is enabled.
    pub mark: u8,
}

const _: () = assert!(core::mem::size_of::<Packet>() == 56);

impl Packet {
    /// A regular (measured) packet.
    pub fn regular(id: u64, flow: FlowKey, size: u32, created_at: SimTime) -> Self {
        Packet {
            id: PacketId(id),
            flow,
            size,
            kind: PacketKind::Regular,
            created_at,
            mark: 0,
        }
    }

    /// A cross-traffic packet.
    pub fn cross(id: u64, flow: FlowKey, size: u32, created_at: SimTime) -> Self {
        Packet {
            id: PacketId(id),
            flow,
            size,
            kind: PacketKind::Cross,
            created_at,
            mark: 0,
        }
    }

    /// A reference packet emitted by `sender` with sequence `seq`, stamped
    /// with `tx_timestamp`, following `flow` through the network.
    pub fn reference(
        id: u64,
        flow: FlowKey,
        sender: SenderId,
        seq: u32,
        tx_timestamp: SimTime,
    ) -> Self {
        Packet {
            id: PacketId(id),
            flow,
            size: REFERENCE_PACKET_BYTES,
            kind: PacketKind::Reference {
                sender,
                seq,
                tx_timestamp,
            },
            created_at: tx_timestamp,
            mark: 0,
        }
    }

    /// Is this a reference packet?
    #[inline]
    pub fn is_reference(&self) -> bool {
        self.kind.is_reference()
    }

    /// Is this a regular (measured) packet?
    #[inline]
    pub fn is_regular(&self) -> bool {
        matches!(self.kind, PacketKind::Regular)
    }

    /// Is this cross traffic?
    #[inline]
    pub fn is_cross(&self) -> bool {
        matches!(self.kind, PacketKind::Cross)
    }

    /// The embedded RLI header, if this is a reference packet.
    #[inline]
    pub fn reference_info(&self) -> Option<ReferenceInfo> {
        match self.kind {
            PacketKind::Reference {
                sender,
                seq,
                tx_timestamp,
            } => Some(ReferenceInfo {
                sender,
                seq,
                tx_timestamp,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn fk() -> FlowKey {
        FlowKey::udp(Ipv4Addr::new(10, 0, 0, 1), 9, Ipv4Addr::new(10, 1, 0, 1), 9)
    }

    #[test]
    fn constructors_set_kind() {
        let r = Packet::regular(1, fk(), 1500, SimTime::from_nanos(10));
        assert!(r.is_regular() && !r.is_cross() && !r.is_reference());
        let c = Packet::cross(2, fk(), 40, SimTime::ZERO);
        assert!(c.is_cross());
        let p = Packet::reference(3, fk(), SenderId(4), 17, SimTime::from_micros(2));
        assert!(p.is_reference());
        assert_eq!(p.size, REFERENCE_PACKET_BYTES);
        assert_eq!(p.created_at, SimTime::from_micros(2));
    }

    #[test]
    fn reference_info_accessor() {
        let p = Packet::reference(3, fk(), SenderId(4), 17, SimTime::from_micros(2));
        let info = p.reference_info().unwrap();
        assert_eq!(info.sender, SenderId(4));
        assert_eq!(info.seq, 17);
        assert_eq!(info.tx_timestamp, SimTime::from_micros(2));
        assert!(Packet::regular(1, fk(), 100, SimTime::ZERO)
            .reference_info()
            .is_none());
    }

    #[test]
    fn marks_default_to_zero() {
        let mut p = Packet::regular(1, fk(), 100, SimTime::ZERO);
        assert_eq!(p.mark, 0);
        p.mark = 3;
        assert_eq!(p.mark, 3);
    }

    #[test]
    fn ids_display() {
        assert_eq!(PacketId(9).to_string(), "pkt#9");
        assert_eq!(SenderId(2).to_string(), "S2");
    }
}
