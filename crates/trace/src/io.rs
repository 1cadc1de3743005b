//! Binary trace files.
//!
//! The paper feeds pre-recorded traces into its simulator; this module
//! provides the equivalent persistent format so generated workloads can be
//! written once and replayed across experiments (and inspected with external
//! tools). The format is a little-endian fixed-record layout:
//!
//! ```text
//! header:  magic "RLTR" | version u8 | link_rate_bps u64 | duration_ns u64 | count u64
//! record:  id u64 | ts_ns u64 | src u32 | dst u32 | sport u16 | dport u16
//!          | proto u8 | kind u8 | mark u8 | size u32          (= 37 bytes)
//! ```
//!
//! Only regular and cross packets are serialisable: reference packets are
//! generated live by RLI senders, never replayed from disk.

use crate::synthetic::Trace;
use rlir_net::packet::{Packet, PacketKind};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::{FlowKey, Protocol};
use std::io::{self, Read, Write};
use std::net::Ipv4Addr;

/// File magic.
pub const TRACE_MAGIC: [u8; 4] = *b"RLTR";
/// Current format version.
pub const TRACE_VERSION: u8 = 1;
const HEADER_LEN: usize = 4 + 1 + 8 + 8 + 8;
const RECORD_LEN: usize = 37;

/// Errors reading or writing trace files.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Bad magic bytes.
    BadMagic([u8; 4]),
    /// Unsupported version.
    BadVersion(u8),
    /// Record count in the header does not match the body.
    Truncated {
        /// Records promised by the header.
        expected: u64,
        /// Records actually read.
        got: u64,
    },
    /// Attempted to serialise a reference packet.
    ReferenceNotSerialisable,
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl core::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::BadMagic(m) => write!(f, "bad trace magic {m:?}"),
            TraceIoError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::Truncated { expected, got } => {
                write!(
                    f,
                    "trace truncated: header said {expected} records, read {got}"
                )
            }
            TraceIoError::ReferenceNotSerialisable => {
                write!(f, "reference packets cannot be serialised into traces")
            }
        }
    }
}

impl std::error::Error for TraceIoError {}

fn encode_record(p: &Packet, out: &mut [u8; RECORD_LEN]) -> Result<(), TraceIoError> {
    let kind = match p.kind {
        PacketKind::Regular => 0u8,
        PacketKind::Cross => 1u8,
        PacketKind::Reference { .. } => return Err(TraceIoError::ReferenceNotSerialisable),
    };
    out[0..8].copy_from_slice(&p.id.0.to_le_bytes());
    out[8..16].copy_from_slice(&p.created_at.as_nanos().to_le_bytes());
    out[16..20].copy_from_slice(&u32::from(p.flow.src).to_le_bytes());
    out[20..24].copy_from_slice(&u32::from(p.flow.dst).to_le_bytes());
    out[24..26].copy_from_slice(&p.flow.sport.to_le_bytes());
    out[26..28].copy_from_slice(&p.flow.dport.to_le_bytes());
    out[28] = p.flow.proto.number();
    out[29] = kind;
    out[30] = p.mark;
    out[31..35].copy_from_slice(&p.size.to_le_bytes());
    // bytes 35..37 reserved (zero)
    out[35] = 0;
    out[36] = 0;
    Ok(())
}

fn decode_record(buf: &[u8; RECORD_LEN]) -> Packet {
    let id = u64::from_le_bytes(buf[0..8].try_into().expect("8"));
    let ts = u64::from_le_bytes(buf[8..16].try_into().expect("8"));
    let src = Ipv4Addr::from(u32::from_le_bytes(buf[16..20].try_into().expect("4")));
    let dst = Ipv4Addr::from(u32::from_le_bytes(buf[20..24].try_into().expect("4")));
    let sport = u16::from_le_bytes(buf[24..26].try_into().expect("2"));
    let dport = u16::from_le_bytes(buf[26..28].try_into().expect("2"));
    let proto = Protocol::from_number(buf[28]);
    let flow = FlowKey {
        src,
        dst,
        proto,
        sport,
        dport,
    };
    let size = u32::from_le_bytes(buf[31..35].try_into().expect("4"));
    let at = SimTime::from_nanos(ts);
    let mut p = if buf[29] == 1 {
        Packet::cross(id, flow, size, at)
    } else {
        Packet::regular(id, flow, size, at)
    };
    p.mark = buf[30];
    p
}

/// Write a trace to `w`.
pub fn write_trace<W: Write>(trace: &Trace, w: &mut W) -> Result<(), TraceIoError> {
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&TRACE_MAGIC);
    header[4] = TRACE_VERSION;
    header[5..13].copy_from_slice(&trace.link_rate_bps.to_le_bytes());
    header[13..21].copy_from_slice(&trace.duration.as_nanos().to_le_bytes());
    header[21..29].copy_from_slice(&(trace.packets.len() as u64).to_le_bytes());
    w.write_all(&header)?;
    let mut rec = [0u8; RECORD_LEN];
    for p in &trace.packets {
        encode_record(p, &mut rec)?;
        w.write_all(&rec)?;
    }
    Ok(())
}

/// Read a trace from `r`.
pub fn read_trace<R: Read>(r: &mut R) -> Result<Trace, TraceIoError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let magic: [u8; 4] = header[0..4].try_into().expect("4");
    if magic != TRACE_MAGIC {
        return Err(TraceIoError::BadMagic(magic));
    }
    if header[4] != TRACE_VERSION {
        return Err(TraceIoError::BadVersion(header[4]));
    }
    let link_rate_bps = u64::from_le_bytes(header[5..13].try_into().expect("8"));
    let duration =
        SimDuration::from_nanos(u64::from_le_bytes(header[13..21].try_into().expect("8")));
    let count = u64::from_le_bytes(header[21..29].try_into().expect("8"));
    let mut packets = Vec::with_capacity(count.min(1 << 26) as usize);
    let mut rec = [0u8; RECORD_LEN];
    for i in 0..count {
        if let Err(e) = r.read_exact(&mut rec) {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                return Err(TraceIoError::Truncated {
                    expected: count,
                    got: i,
                });
            }
            return Err(e.into());
        }
        packets.push(decode_record(&rec));
    }
    Ok(Trace {
        packets,
        link_rate_bps,
        duration,
    })
}

/// Convenience: write a trace to a filesystem path.
pub fn save_trace(trace: &Trace, path: &std::path::Path) -> Result<(), TraceIoError> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_trace(trace, &mut f)?;
    f.flush()?;
    Ok(())
}

/// Convenience: read a trace from a filesystem path.
pub fn load_trace(path: &std::path::Path) -> Result<Trace, TraceIoError> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    read_trace(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, TraceConfig};
    use rlir_net::SenderId;

    fn sample_trace() -> Trace {
        generate(&TraceConfig::paper_regular(
            11,
            SimDuration::from_millis(20),
        ))
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample_trace();
        assert!(!t.packets.is_empty());
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + t.packets.len() * RECORD_LEN);
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back.packets, t.packets);
        assert_eq!(back.link_rate_bps, t.link_rate_bps);
        assert_eq!(back.duration, t.duration);
    }

    #[test]
    fn mark_and_cross_survive() {
        let mut t = Trace::empty(1_000_000, SimDuration::from_micros(10));
        let mut p = Packet::cross(
            5,
            FlowKey::udp(Ipv4Addr::new(1, 2, 3, 4), 5, Ipv4Addr::new(6, 7, 8, 9), 10),
            4242,
            SimTime::from_nanos(77),
        );
        p.mark = 3;
        t.packets.push(p);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back.packets[0], p);
    }

    #[test]
    fn rejects_reference_packets() {
        let mut t = Trace::empty(1, SimDuration::ZERO);
        t.packets.push(Packet::reference(
            1,
            FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2),
            SenderId(0),
            0,
            SimTime::ZERO,
        ));
        let mut buf = Vec::new();
        assert!(matches!(
            write_trace(&t, &mut buf),
            Err(TraceIoError::ReferenceNotSerialisable)
        ));
    }

    #[test]
    fn detects_bad_magic_and_version() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_trace(&mut bad.as_slice()),
            Err(TraceIoError::BadMagic(_))
        ));
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(
            read_trace(&mut bad.as_slice()),
            Err(TraceIoError::BadVersion(99))
        ));
    }

    #[test]
    fn detects_truncation() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 10);
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceIoError::Truncated { .. })
        ));
    }

    #[test]
    fn file_round_trip() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join("rlir-trace-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.rltr");
        save_trace(&t, &path).unwrap();
        let back = load_trace(&path).unwrap();
        assert_eq!(back.packets.len(), t.packets.len());
        std::fs::remove_file(&path).ok();
    }
}
