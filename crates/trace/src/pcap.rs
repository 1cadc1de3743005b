//! pcap export/import.
//!
//! Writes traces as standard libpcap files (nanosecond-precision variant,
//! `LINKTYPE_RAW` = raw IPv4, header-only snapshots) so synthetic workloads
//! can be inspected with tcpdump/Wireshark and exchanged with other tools —
//! the same interoperability an open-source release of the paper's
//! simulator would need. A matching reader recovers flow keys, sizes and
//! timestamps for round-trip testing and for importing externally captured
//! headers.

use crate::synthetic::Trace;
use rlir_net::packet::Packet;
use rlir_net::time::SimTime;
use rlir_net::wire::{internet_checksum, Ipv4Header, IPV4_HEADER_LEN};
use rlir_net::{FlowKey, Protocol};
use std::io::{self, Read, Write};

/// Nanosecond-resolution pcap magic.
pub const PCAP_MAGIC_NS: u32 = 0xA1B2_3C4D;
/// LINKTYPE_RAW: packets begin with the IPv4 header.
pub const LINKTYPE_RAW: u32 = 101;
const TCP_HEADER_LEN: usize = 20;
const UDP_HEADER_LEN: usize = 8;
/// Snapshot length: enough for IPv4 + TCP headers.
pub const SNAPLEN: u32 = 64;

/// Why a record was malformed — with absolute byte offsets into the
/// capture, so strict-mode errors point at the damage and lenient-mode
/// skip counts are auditable against the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BadRecord {
    /// EOF inside the 16-byte record header that starts at `offset`.
    TruncatedHeader {
        /// Absolute offset of the truncated record header.
        offset: u64,
    },
    /// EOF inside a record body: the header at `offset` declared
    /// `expected` captured bytes but only `got` were present.
    TruncatedBody {
        /// Absolute offset of the record's header.
        offset: u64,
        /// Captured length the header declared.
        expected: u32,
        /// Bytes actually present before EOF.
        got: u32,
    },
    /// The record body at `offset` does not decode as an IPv4 header.
    BadIpv4 {
        /// Absolute offset of the record's header.
        offset: u64,
    },
}

impl core::fmt::Display for BadRecord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BadRecord::TruncatedHeader { offset } => {
                write!(f, "truncated record header at offset {offset}")
            }
            BadRecord::TruncatedBody {
                offset,
                expected,
                got,
            } => write!(
                f,
                "truncated record body (header at offset {offset}: {expected} bytes declared, {got} present)"
            ),
            BadRecord::BadIpv4 { offset } => {
                write!(f, "undecodable ipv4 header in record at offset {offset}")
            }
        }
    }
}

/// Errors from pcap I/O.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a (nanosecond) pcap file.
    BadMagic(u32),
    /// Unsupported link type.
    BadLinkType(u32),
    /// A record was malformed (see [`BadRecord`] for where and why).
    BadRecord(BadRecord),
}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

impl core::fmt::Display for PcapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "i/o error: {e}"),
            PcapError::BadMagic(m) => write!(f, "bad pcap magic {m:#010x}"),
            PcapError::BadLinkType(l) => write!(f, "unsupported pcap linktype {l}"),
            PcapError::BadRecord(what) => write!(f, "malformed pcap record: {what}"),
        }
    }
}

impl std::error::Error for PcapError {}

/// Incremental nanosecond-pcap writer: the global header goes out at
/// construction, each [`write`](Self::write) fills one fixed-size record on
/// the stack and makes one `write_all`. The streaming counterpart of
/// [`write_pcap`] (a thin loop over it): a capture of any length is made
/// in O(1) memory, without ever materializing a whole [`Trace`].
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    w: W,
}

impl<W: Write> PcapWriter<W> {
    /// Write the pcap global header and return the writer.
    pub fn new(mut w: W) -> Result<Self, PcapError> {
        w.write_all(&PCAP_MAGIC_NS.to_le_bytes())?;
        w.write_all(&2u16.to_le_bytes())?; // major
        w.write_all(&4u16.to_le_bytes())?; // minor
        w.write_all(&0i32.to_le_bytes())?; // thiszone
        w.write_all(&0u32.to_le_bytes())?; // sigfigs
        w.write_all(&SNAPLEN.to_le_bytes())?;
        w.write_all(&LINKTYPE_RAW.to_le_bytes())?;
        Ok(PcapWriter { w })
    }

    /// Append one packet as a header-only record (timestamp from
    /// `packet.created_at`, identity as the 16-bit IP ident, mark as ToS;
    /// a TCP header for anything that isn't UDP — "TCP-like for
    /// inspection").
    pub fn write(&mut self, p: &Packet) -> Result<(), PcapError> {
        let mut rec = [0u8; 16 + IPV4_HEADER_LEN + TCP_HEADER_LEN];
        let transport = match p.flow.proto {
            Protocol::Udp => UDP_HEADER_LEN,
            _ => TCP_HEADER_LEN,
        };
        let captured = IPV4_HEADER_LEN + transport;
        let orig = (p.size as usize).max(captured);
        let ns = p.created_at.as_nanos();
        rec[0..4].copy_from_slice(&((ns / 1_000_000_000) as u32).to_le_bytes());
        rec[4..8].copy_from_slice(&((ns % 1_000_000_000) as u32).to_le_bytes());
        rec[8..12].copy_from_slice(&(captured as u32).to_le_bytes());
        rec[12..16].copy_from_slice(&(orig as u32).to_le_bytes());
        let (ip, l4) = rec[16..].split_at_mut(IPV4_HEADER_LEN);
        Ipv4Header {
            tos: p.mark,
            total_len: orig.min(u16::MAX as usize) as u16,
            ident: (p.id.0 & 0xFFFF) as u16,
            ttl: 64,
            proto: p.flow.proto,
            src: p.flow.src,
            dst: p.flow.dst,
        }
        .encode_into(ip.try_into().expect("20 bytes"));
        l4[0..2].copy_from_slice(&p.flow.sport.to_be_bytes());
        l4[2..4].copy_from_slice(&p.flow.dport.to_be_bytes());
        if transport == UDP_HEADER_LEN {
            // Length of a payload-free datagram; the checksum is optional.
            l4[4..6].copy_from_slice(&(UDP_HEADER_LEN as u16).to_be_bytes());
        } else {
            l4[12] = 5 << 4; // data offset: 5 words
            l4[13] = 0x10; // ACK
            l4[14..16].copy_from_slice(&65_535u16.to_be_bytes());
            let csum = internet_checksum(l4);
            l4[16..18].copy_from_slice(&csum.to_be_bytes());
        }
        Ok(self.w.write_all(&rec[..16 + captured])?)
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> Result<W, PcapError> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Write a trace as a nanosecond pcap (header-only snapshots).
pub fn write_pcap<W: Write>(trace: &Trace, w: &mut W) -> Result<(), PcapError> {
    let mut pw = PcapWriter::new(w)?;
    for p in &trace.packets {
        pw.write(p)?;
    }
    Ok(())
}

/// A packet header recovered from a pcap file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcapRecord {
    /// Capture timestamp.
    pub at: SimTime,
    /// Original (on-the-wire) length.
    pub orig_len: u32,
    /// Recovered flow key (ports zero for non-TCP/UDP).
    pub flow: FlowKey,
    /// The IPv4 ToS byte (RLIR's mark field).
    pub tos: u8,
    /// The 16-bit IPv4 identification field — the wire-visible packet
    /// identity ([`write_pcap`] stores the low 16 bits of the packet id
    /// here; capture-point matching keys on 5-tuple + ident).
    pub ident: u16,
}

/// How [`PcapRecords`] treats damaged input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IngestMode {
    /// Damage is fatal: the first malformed record yields
    /// `Err(PcapError::BadRecord(..))` and iteration ends. The hostile-
    /// ingest oracle — on clean input, lenient mode is byte-identical to
    /// this.
    #[default]
    Strict,
    /// Skip-and-count: truncation becomes a counted clean end, a record
    /// whose body fails IPv4 decode is skipped, and an implausible record
    /// header triggers a byte-at-a-time **resync scan** for the next
    /// plausible record whose body decodes as IPv4. Every decision is
    /// counted ([`PcapRecords::skipped_records`],
    /// [`PcapRecords::skipped_bytes`], [`PcapRecords::resyncs`]) — damage
    /// is survived, never hidden.
    Lenient,
}

/// Bytes [`PcapRecords`] reads ahead of its cursor: `BufReader`'s size.
const READ_AHEAD: usize = 8 * 1024;
/// Body bytes a record's decode reads: the IPv4 header and both ports.
const DECODE_LEN: usize = IPV4_HEADER_LEN + 4;

/// Streaming record iterator over a nanosecond raw-IP pcap: validates the
/// global header up front, then parses one record per [`Iterator::next`]
/// in place in a fixed read-ahead buffer — O(1) memory for a capture of
/// any length, whatever lengths its record headers declare, and the
/// decode path [`read_pcap`] itself runs on. Body bytes past the IPv4
/// header and ports are consumed, never buffered.
///
/// In the default [`IngestMode::Strict`], truncation is an error, not an
/// end: a file that stops mid-record header or mid-body yields
/// `Err(PcapError::BadRecord(..))` — with the damage's byte offset —
/// rather than being silently accepted as complete. Clean EOF at a record
/// boundary ends the iteration. [`PcapRecords::lenient`] opts into
/// skip-and-count survival of damaged captures.
#[derive(Debug)]
pub struct PcapRecords<R: Read> {
    r: R,
    /// Read-ahead; `buf[pos..end]` are the bytes not yet consumed. It holds
    /// [`READ_AHEAD`] bytes and grows, to at most a record header plus
    /// 64 KiB, only to hold a lenient resync candidate whole.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    /// The reader has reported end of input.
    eof: bool,
    done: bool,
    mode: IngestMode,
    /// Absolute offset of `buf[pos]`, the next unconsumed byte (starts at
    /// 24, past the global header).
    offset: u64,
    skipped_records: u64,
    skipped_bytes: u64,
    resyncs: u64,
}

impl<R: Read> PcapRecords<R> {
    /// Read and validate the pcap global header, returning the iterator.
    pub fn new(mut r: R) -> Result<Self, PcapError> {
        let mut gh = [0u8; 24];
        r.read_exact(&mut gh)?;
        let magic = u32::from_le_bytes(gh[0..4].try_into().expect("4"));
        if magic != PCAP_MAGIC_NS {
            return Err(PcapError::BadMagic(magic));
        }
        let linktype = u32::from_le_bytes(gh[20..24].try_into().expect("4"));
        if linktype != LINKTYPE_RAW {
            return Err(PcapError::BadLinkType(linktype));
        }
        Ok(PcapRecords {
            r,
            buf: vec![0; READ_AHEAD],
            pos: 0,
            end: 0,
            eof: false,
            done: false,
            mode: IngestMode::default(),
            offset: 24,
            skipped_records: 0,
            skipped_bytes: 0,
            resyncs: 0,
        })
    }

    /// Switch to [`IngestMode::Lenient`] (builder style).
    pub fn lenient(mut self) -> Self {
        self.mode = IngestMode::Lenient;
        self
    }

    /// Records skipped by lenient mode (always 0 in strict mode).
    pub fn skipped_records(&self) -> u64 {
        self.skipped_records
    }

    /// Bytes discarded by lenient mode: partial trailing records plus
    /// garbage scanned over during resyncs.
    pub fn skipped_bytes(&self) -> u64 {
        self.skipped_bytes
    }

    /// Resync scans performed by lenient mode.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Make `need` bytes readable at the cursor unless the input ends
    /// first, and return how many are: fewer than `need` means EOF.
    fn fill(&mut self, need: usize) -> Result<usize, PcapError> {
        if self.end - self.pos < need && !self.eof {
            self.buf.copy_within(self.pos..self.end, 0);
            (self.pos, self.end) = (0, self.end - self.pos);
            self.buf.resize(self.buf.len().max(need), 0);
            while self.end < need && !self.eof {
                match self.r.read(&mut self.buf[self.end..]) {
                    Ok(n) => (self.end, self.eof) = (self.end + n, n == 0),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        Ok(self.end - self.pos)
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        self.offset += n as u64;
    }

    /// Consume up to `n` bytes without keeping them; returns how many the
    /// input held.
    fn skip(&mut self, n: usize) -> Result<usize, PcapError> {
        let mut done = 0;
        while done < n && self.fill(1)? > 0 {
            let step = (self.end - self.pos).min(n - done);
            self.consume(step);
            done += step;
        }
        Ok(done)
    }

    /// Could these 16 bytes be a record header of this capture? The
    /// resync filter: captured length must fit an IPv4 header and the
    /// 16-bit length space, and the original length can't be shorter than
    /// the capture.
    fn plausible_header(incl: usize, orig: u32) -> bool {
        (IPV4_HEADER_LEN..=65_535).contains(&incl) && orig as usize >= incl
    }

    /// Decode a record body (or its head) under an already-parsed header.
    fn decode_body(body: &[u8], sec: u64, nsec: u64, orig: u32) -> Option<PcapRecord> {
        let (ip, ip_len) = Ipv4Header::decode(body).ok()?;
        let (sport, dport) = match ip.proto {
            Protocol::Tcp | Protocol::Udp if body.len() >= ip_len + 4 => (
                u16::from_be_bytes([body[ip_len], body[ip_len + 1]]),
                u16::from_be_bytes([body[ip_len + 2], body[ip_len + 3]]),
            ),
            _ => (0, 0),
        };
        Some(PcapRecord {
            at: SimTime::from_nanos(sec * 1_000_000_000 + nsec),
            orig_len: orig,
            flow: FlowKey {
                src: ip.src,
                dst: ip.dst,
                proto: ip.proto,
                sport,
                dport,
            },
            tos: ip.tos,
            ident: ip.ident,
        })
    }

    /// The record header at the cursor: `(sec, nsec, incl, orig)`.
    fn header(&self) -> (u64, u64, usize, u32) {
        let h = &self.buf[self.pos..self.pos + 16];
        let word = |at: usize| u32::from_le_bytes(h[at..at + 4].try_into().expect("4"));
        (word(0) as u64, word(4) as u64, word(8) as usize, word(12))
    }

    fn next_record(&mut self) -> Result<Option<PcapRecord>, PcapError> {
        let lenient = self.mode == IngestMode::Lenient;
        loop {
            let header_off = self.offset;
            let got = self.fill(16)?;
            if got == 0 {
                return Ok(None);
            }
            if got < 16 {
                if lenient {
                    // Partial trailing header: a torn capture ends here.
                    self.skipped_bytes += got as u64;
                    return Ok(None);
                }
                return Err(PcapError::BadRecord(BadRecord::TruncatedHeader {
                    offset: header_off,
                }));
            }
            let (sec, nsec, incl, orig) = self.header();
            if lenient && !Self::plausible_header(incl, orig) {
                // Corrupt framing: scan forward for the next record.
                return self.resync();
            }
            // Decode the head of the body in place, then consume the rest.
            let head = incl.min(DECODE_LEN);
            let (rec, got_b) = if self.fill(16 + head)? < 16 + head {
                (None, self.end - self.pos - 16)
            } else {
                let at = self.pos + 16;
                let rec = Self::decode_body(&self.buf[at..at + head], sec, nsec, orig);
                self.consume(16 + head);
                (rec, head + self.skip(incl - head)?)
            };
            if got_b < incl {
                if lenient {
                    // Torn final record.
                    self.skipped_records += 1;
                    self.skipped_bytes += 16 + got_b as u64;
                    return Ok(None);
                }
                return Err(PcapError::BadRecord(BadRecord::TruncatedBody {
                    offset: header_off,
                    expected: incl as u32,
                    got: got_b as u32,
                }));
            }
            match rec {
                Some(rec) => return Ok(Some(rec)),
                None if lenient => {
                    // Plausible framing, rotten body: skip this record
                    // (its bytes are consumed) and keep going.
                    self.skipped_records += 1;
                    self.skipped_bytes += 16 + incl as u64;
                }
                None => {
                    return Err(PcapError::BadRecord(BadRecord::BadIpv4 {
                        offset: header_off,
                    }));
                }
            }
        }
    }

    /// Lenient resync: slide a 16-byte window one byte at a time until it
    /// parses as a plausible record header whose body decodes as IPv4 —
    /// the "magic" this raw-IP format has (version/IHL nibble, length
    /// consistency) — counting every discarded byte. The implausible
    /// header that triggered the scan is at the cursor on entry. A
    /// candidate that fails (its body short of the claimed length, or not
    /// IPv4) is given back, not consumed: the window slides on over its
    /// bytes, so a fake length field cannot swallow the genuine records
    /// behind it.
    fn resync(&mut self) -> Result<Option<PcapRecord>, PcapError> {
        self.resyncs += 1;
        self.skipped_records += 1;
        loop {
            self.consume(1);
            self.skipped_bytes += 1;
            let got = self.fill(16)?;
            if got < 16 {
                // EOF mid-scan: whatever is left can't be a record.
                self.skipped_bytes += got as u64;
                return Ok(None);
            }
            let (sec, nsec, incl, orig) = self.header();
            if !Self::plausible_header(incl, orig) || self.fill(16 + incl)? < 16 + incl {
                continue;
            }
            let at = self.pos + 16;
            if let Some(rec) = Self::decode_body(&self.buf[at..at + incl], sec, nsec, orig) {
                self.consume(16 + incl);
                return Ok(Some(rec));
            }
        }
    }
}

impl<R: Read> Iterator for PcapRecords<R> {
    type Item = Result<PcapRecord, PcapError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_record() {
            Ok(Some(rec)) => Some(Ok(rec)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Read a nanosecond raw-IP pcap written by [`write_pcap`] (or any capture
/// with the same framing) all at once. Runs on [`PcapRecords`], so decode
/// parses in place; only the output `Vec` grows with the file.
pub fn read_pcap<R: Read>(r: &mut R) -> Result<Vec<PcapRecord>, PcapError> {
    PcapRecords::new(r)?.collect()
}

/// Open a pcap file on disk as a buffered streaming record iterator.
pub fn open_pcap(
    path: &std::path::Path,
) -> Result<PcapRecords<io::BufReader<std::fs::File>>, PcapError> {
    PcapRecords::new(io::BufReader::new(std::fs::File::open(path)?))
}

/// Convenience: export a trace to a pcap file on disk.
pub fn save_pcap(trace: &Trace, path: &std::path::Path) -> Result<(), PcapError> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_pcap(trace, &mut f)?;
    f.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, TraceConfig};
    use rlir_net::time::SimDuration;

    fn sample() -> Trace {
        generate(&TraceConfig::paper_regular(19, SimDuration::from_millis(5)))
    }

    #[test]
    fn round_trip_preserves_headers() {
        let t = sample();
        let mut buf = Vec::new();
        write_pcap(&t, &mut buf).unwrap();
        let records = read_pcap(&mut buf.as_slice()).unwrap();
        assert_eq!(records.len(), t.packets.len());
        for (rec, p) in records.iter().zip(&t.packets) {
            assert_eq!(rec.flow, p.flow, "flow key mismatch");
            assert_eq!(rec.at, p.created_at, "timestamp mismatch");
            assert_eq!(rec.orig_len, p.size.max(40), "length mismatch");
        }
    }

    #[test]
    fn global_header_is_valid_pcap() {
        let t = sample();
        let mut buf = Vec::new();
        write_pcap(&t, &mut buf).unwrap();
        assert_eq!(
            u32::from_le_bytes(buf[0..4].try_into().unwrap()),
            PCAP_MAGIC_NS
        );
        assert_eq!(u16::from_le_bytes(buf[4..6].try_into().unwrap()), 2);
        assert_eq!(u16::from_le_bytes(buf[6..8].try_into().unwrap()), 4);
        assert_eq!(
            u32::from_le_bytes(buf[20..24].try_into().unwrap()),
            LINKTYPE_RAW
        );
    }

    #[test]
    fn udp_and_tcp_transport_headers() {
        use rlir_net::packet::Packet;
        use std::net::Ipv4Addr;
        let mut t = Trace::empty(1_000_000, SimDuration::from_micros(10));
        t.packets.push(Packet::regular(
            1,
            FlowKey::udp(
                Ipv4Addr::new(1, 2, 3, 4),
                5353,
                Ipv4Addr::new(5, 6, 7, 8),
                53,
            ),
            200,
            SimTime::from_nanos(42),
        ));
        t.packets.push(Packet::regular(
            2,
            FlowKey::tcp(
                Ipv4Addr::new(9, 9, 9, 9),
                8080,
                Ipv4Addr::new(8, 8, 8, 8),
                443,
            ),
            1500,
            SimTime::from_nanos(43),
        ));
        let mut buf = Vec::new();
        write_pcap(&t, &mut buf).unwrap();
        let recs = read_pcap(&mut buf.as_slice()).unwrap();
        assert_eq!(recs[0].flow.sport, 5353);
        assert_eq!(recs[0].flow.dport, 53);
        assert_eq!(recs[1].flow.sport, 8080);
        assert_eq!(recs[1].flow.proto, Protocol::Tcp);
    }

    #[test]
    fn marks_exported_as_tos() {
        use rlir_net::packet::Packet;
        use std::net::Ipv4Addr;
        let mut t = Trace::empty(1_000_000, SimDuration::from_micros(1));
        let mut p = Packet::regular(
            1,
            FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2),
            100,
            SimTime::ZERO,
        );
        p.mark = 3;
        t.packets.push(p);
        let mut buf = Vec::new();
        write_pcap(&t, &mut buf).unwrap();
        let recs = read_pcap(&mut buf.as_slice()).unwrap();
        assert_eq!(recs[0].tos, 3);
    }

    #[test]
    fn rejects_foreign_files() {
        let junk = vec![0u8; 24];
        assert!(matches!(
            read_pcap(&mut junk.as_slice()),
            Err(PcapError::BadMagic(0))
        ));
    }

    /// n TCP records: 24-byte global header then 56 bytes per record
    /// (16 header + 20 IPv4 + 20 TCP).
    fn tcp_capture(n: u64) -> Vec<u8> {
        use rlir_net::packet::Packet;
        use std::net::Ipv4Addr;
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..n {
            w.write(&Packet::regular(
                i,
                FlowKey::tcp(
                    Ipv4Addr::new(10, 0, 0, 1),
                    1000 + i as u16,
                    Ipv4Addr::new(10, 1, 0, 1),
                    80,
                ),
                1000,
                SimTime::from_nanos(i * 100),
            ))
            .unwrap();
        }
        w.finish().unwrap()
    }

    const REC: usize = 16 + IPV4_HEADER_LEN + TCP_HEADER_LEN;

    fn drain_lenient(bytes: &[u8]) -> (Vec<PcapRecord>, u64, u64, u64) {
        let mut it = PcapRecords::new(bytes).unwrap().lenient();
        let recs: Vec<PcapRecord> = (&mut it)
            .map(|r| r.expect("lenient never errors"))
            .collect();
        (recs, it.skipped_records(), it.skipped_bytes(), it.resyncs())
    }

    #[test]
    fn lenient_is_identical_to_strict_on_clean_capture() {
        let t = sample();
        let mut buf = Vec::new();
        write_pcap(&t, &mut buf).unwrap();
        let strict: Vec<PcapRecord> = PcapRecords::new(buf.as_slice())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let (lenient, skipped, bytes, resyncs) = drain_lenient(&buf);
        assert_eq!(strict, lenient);
        assert_eq!((skipped, bytes, resyncs), (0, 0, 0));
    }

    #[test]
    fn lenient_skips_checksum_corrupt_record_strict_errors() {
        let mut buf = tcp_capture(10);
        // Flip the TTL byte of record 4's IPv4 header: framing stays
        // plausible, the checksum no longer verifies.
        let off = 24 + 4 * REC + 16 + 8;
        buf[off] ^= 0xFF;
        let strict_err = PcapRecords::new(buf.as_slice())
            .unwrap()
            .find_map(Result::err)
            .expect("strict must fail");
        assert_eq!(
            strict_err.to_string(),
            PcapError::BadRecord(BadRecord::BadIpv4 {
                offset: (24 + 4 * REC) as u64
            })
            .to_string()
        );
        let (recs, skipped, bytes, resyncs) = drain_lenient(&buf);
        assert_eq!(recs.len(), 9, "one rotten record skipped");
        assert_eq!(skipped, 1);
        assert_eq!(bytes, REC as u64);
        assert_eq!(resyncs, 0, "framing was intact, no scan needed");
        // Every surviving record is genuine.
        assert!(recs.iter().all(|r| r.ident != 4));
    }

    #[test]
    fn lenient_resyncs_over_injected_garbage() {
        let clean = tcp_capture(10);
        // Splice 13 garbage bytes between records 2 and 3: the next
        // "header" parse sees junk and an absurd captured length.
        let cut = 24 + 3 * REC;
        let mut buf = Vec::new();
        buf.extend_from_slice(&clean[..cut]);
        buf.extend_from_slice(&[0xFF; 13]);
        buf.extend_from_slice(&clean[cut..]);
        let (recs, skipped, bytes, resyncs) = drain_lenient(&buf);
        assert_eq!(recs.len(), 10, "every real record survives the splice");
        let idents: Vec<u16> = recs.iter().map(|r| r.ident).collect();
        assert_eq!(idents, (0..10).collect::<Vec<u16>>());
        assert_eq!(resyncs, 1);
        assert_eq!(skipped, 1, "the phantom record the garbage faked");
        assert_eq!(bytes, 13, "exactly the garbage, nothing genuine");
    }

    #[test]
    fn truncated_body_strict_offset_lenient_clean_end() {
        let mut buf = tcp_capture(10);
        buf.truncate(buf.len() - 7);
        let strict_err = PcapRecords::new(buf.as_slice())
            .unwrap()
            .find_map(Result::err)
            .expect("strict must fail");
        match strict_err {
            PcapError::BadRecord(BadRecord::TruncatedBody {
                offset,
                expected,
                got,
            }) => {
                assert_eq!(offset, (24 + 9 * REC) as u64);
                assert_eq!(expected, (IPV4_HEADER_LEN + TCP_HEADER_LEN) as u32);
                assert_eq!(got, (IPV4_HEADER_LEN + TCP_HEADER_LEN - 7) as u32);
            }
            other => panic!("wrong error: {other:?}"),
        }
        let (recs, skipped, bytes, _) = drain_lenient(&buf);
        assert_eq!(recs.len(), 9);
        assert_eq!(skipped, 1);
        assert_eq!(bytes, (REC - 7) as u64);
    }

    #[test]
    fn truncated_header_strict_offset_lenient_clean_end() {
        let mut buf = tcp_capture(3);
        buf.truncate(24 + 2 * REC + 10);
        let strict_err = PcapRecords::new(buf.as_slice())
            .unwrap()
            .find_map(Result::err)
            .expect("strict must fail");
        assert!(matches!(
            strict_err,
            PcapError::BadRecord(BadRecord::TruncatedHeader { offset })
                if offset == (24 + 2 * REC) as u64
        ));
        let (recs, skipped, bytes, _) = drain_lenient(&buf);
        assert_eq!(recs.len(), 2);
        assert_eq!(skipped, 0, "a torn header is not a record");
        assert_eq!(bytes, 10);
    }

    #[test]
    fn file_round_trip() {
        let t = sample();
        let dir = std::env::temp_dir().join("rlir-pcap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.pcap");
        save_pcap(&t, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let recs = read_pcap(&mut bytes.as_slice()).unwrap();
        assert_eq!(recs.len(), t.packets.len());
        std::fs::remove_file(&path).ok();
    }
}
