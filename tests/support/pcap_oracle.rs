//! The pcap record decoder as it stood before it parsed in place: a
//! scratch `Vec` that holds each record's whole body, and a `VecDeque` of
//! bytes a lenient resync reads ahead and gives back one at a time. Kept
//! only as the oracle `tests/pcap_fuzz.rs` checks `PcapRecords` against:
//! the same records, the same first error at the same offsets, and the
//! same skip and resync counts, strict and lenient.
//!
//! One change from the original: `read_fully` grows its scratch as bytes
//! arrive. The original zero-filled it to the declared length first, so a
//! damaged header declaring up to 4 GiB cost that much memory before the
//! read found the input short; the bytes read and the outcome are the same.

use rlir_net::time::SimTime;
use rlir_net::wire::{Ipv4Header, IPV4_HEADER_LEN};
use rlir_net::{FlowKey, Protocol};
use rlir_trace::pcap::{LINKTYPE_RAW, PCAP_MAGIC_NS, SNAPLEN};
use rlir_trace::{BadRecord, IngestMode, PcapError, PcapRecord};
use std::io::{self, Read};

#[derive(Debug)]
pub struct OracleRecords<R: Read> {
    r: R,
    scratch: Vec<u8>,
    done: bool,
    mode: IngestMode,
    /// Absolute offset of the next unconsumed byte (starts at 24, past
    /// the global header).
    offset: u64,
    /// Bytes read ahead and given back during a lenient resync scan;
    /// always empty in strict mode.
    lookahead: std::collections::VecDeque<u8>,
    skipped_records: u64,
    skipped_bytes: u64,
    resyncs: u64,
}

impl<R: Read> OracleRecords<R> {
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
        Ok(OracleRecords {
            r,
            scratch: Vec::with_capacity(SNAPLEN as usize),
            done: false,
            mode: IngestMode::default(),
            offset: 24,
            lookahead: std::collections::VecDeque::new(),
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

    /// Fill the scratch buffer with up to `len` bytes (lookahead bytes
    /// first, then the reader) and return how many arrived; fewer than
    /// `len` means EOF. Advances the byte offset.
    fn read_fully(&mut self, len: usize) -> Result<usize, PcapError> {
        self.scratch.clear();
        let mut chunk = [0u8; 4096];
        while self.scratch.len() < len {
            if let Some(b) = self.lookahead.pop_front() {
                self.scratch.push(b);
                continue;
            }
            let want = (len - self.scratch.len()).min(chunk.len());
            match self.r.read(&mut chunk[..want]) {
                Ok(0) => break,
                Ok(n) => self.scratch.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.offset += self.scratch.len() as u64;
        Ok(self.scratch.len())
    }

    /// Could these 16 bytes be a record header of this capture? The
    /// resync filter: captured length must fit an IPv4 header and the
    /// 16-bit length space, and the original length can't be shorter than
    /// the capture.
    fn plausible_header(incl: usize, orig: u32) -> bool {
        (IPV4_HEADER_LEN..=65_535).contains(&incl) && orig as usize >= incl
    }

    /// Decode a record body (scratch) under an already-parsed header.
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

    fn parse_header(h: &[u8]) -> (u64, u64, usize, u32) {
        (
            u32::from_le_bytes(h[0..4].try_into().expect("4")) as u64,
            u32::from_le_bytes(h[4..8].try_into().expect("4")) as u64,
            u32::from_le_bytes(h[8..12].try_into().expect("4")) as usize,
            u32::from_le_bytes(h[12..16].try_into().expect("4")),
        )
    }

    fn next_record(&mut self) -> Result<Option<PcapRecord>, PcapError> {
        loop {
            let header_off = self.offset;
            let got = self.read_fully(16)?;
            if got == 0 {
                return Ok(None);
            }
            if got < 16 {
                if self.mode == IngestMode::Lenient {
                    // Partial trailing header: a torn capture ends here.
                    self.skipped_bytes += got as u64;
                    return Ok(None);
                }
                return Err(PcapError::BadRecord(BadRecord::TruncatedHeader {
                    offset: header_off,
                }));
            }
            let (sec, nsec, incl, orig) = Self::parse_header(&self.scratch);
            if self.mode == IngestMode::Lenient && !Self::plausible_header(incl, orig) {
                // Corrupt framing: scan forward for the next record.
                return self.resync();
            }
            let got_b = self.read_fully(incl)?;
            if got_b < incl {
                if self.mode == IngestMode::Lenient {
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
            match Self::decode_body(&self.scratch, sec, nsec, orig) {
                Some(rec) => return Ok(Some(rec)),
                None if self.mode == IngestMode::Lenient => {
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
    /// header that triggered the scan is in scratch on entry.
    fn resync(&mut self) -> Result<Option<PcapRecord>, PcapError> {
        self.resyncs += 1;
        self.skipped_records += 1;
        let mut win: std::collections::VecDeque<u8> = self.scratch.drain(..).collect();
        loop {
            win.pop_front();
            self.skipped_bytes += 1;
            while win.len() < 16 {
                if self.read_fully(1)? == 0 {
                    // EOF mid-scan: whatever is left can't be a record.
                    self.skipped_bytes += win.len() as u64;
                    return Ok(None);
                }
                win.push_back(self.scratch[0]);
            }
            let h: Vec<u8> = win.iter().copied().collect();
            let (sec, nsec, incl, orig) = Self::parse_header(&h);
            if !Self::plausible_header(incl, orig) {
                continue;
            }
            let got = self.read_fully(incl)?;
            if got == incl {
                if let Some(rec) = Self::decode_body(&self.scratch, sec, nsec, orig) {
                    return Ok(Some(rec));
                }
            }
            // Not a record after all (body short of the claimed length,
            // or not IPv4): give the body bytes back and keep sliding —
            // a fake length field must not swallow the genuine records
            // behind it.
            self.offset -= got as u64;
            for b in self.scratch.drain(..).rev() {
                self.lookahead.push_front(b);
            }
        }
    }
}

impl<R: Read> Iterator for OracleRecords<R> {
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
