//! Hostile-ingest fuzzing: proptest-mutated pcap byte streams against the
//! lenient decoder and replay source.
//!
//! The contract under test (PR 10's hardening):
//!
//! * **Strict is the oracle.** On a clean capture, lenient mode must be
//!   byte-identical to strict — same records, zero skip/resync counters.
//! * **Lenient survives anything.** Under arbitrary byte flips, splices,
//!   deletions and truncations of the record stream, the lenient decoder
//!   must never error and never panic; damage is skipped and *counted*,
//!   never silently absorbed.
//! * **Replay stays monotone.** A lenient [`PcapReplaySource`] must emit
//!   non-decreasing injection times no matter how the capture is mangled
//!   (time regressions are clamped, not emitted out of order).
//! * **The in-place decoder is its predecessor.** Clean or damaged, strict
//!   or lenient, read whole or a few bytes a call, [`PcapRecords`] gives
//!   the records, the first error (offsets included) and the skip and
//!   resync counts of the copying decoder in `tests/support/pcap_oracle.rs`.

#[path = "support/pcap_oracle.rs"]
mod pcap_oracle;

use pcap_oracle::OracleRecords;
use proptest::prelude::*;
use rlir_net::packet::Packet;
use rlir_net::time::SimTime;
use rlir_net::FlowKey;
use rlir_sim::InjectionSource;
use rlir_trace::{EntryMap, PcapError, PcapRecord, PcapRecords, PcapReplaySource, PcapWriter};
use std::io::Read;
use std::net::Ipv4Addr;

/// A clean capture of `n` TCP header-only records (56 bytes each after
/// the 24-byte global header).
fn clean_capture(n: u64) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for i in 0..n {
        w.write(&Packet::regular(
            i,
            FlowKey::tcp(
                Ipv4Addr::new(10, 0, (i % 3) as u8, 1),
                1000 + (i % 17) as u16,
                Ipv4Addr::new(10, 1, 0, 1),
                80,
            ),
            400 + (i % 5) as u32 * 300,
            SimTime::from_nanos(i * 150),
        ))
        .unwrap();
    }
    w.finish().unwrap()
}

/// One mutation op: (kind, position seed, value seed, length seed). The
/// position is mapped into the record area (past the global header) so
/// the iterator constructor always succeeds and the fuzz exercises the
/// record path, not magic validation.
fn arb_mutation() -> impl Strategy<Value = (u8, u16, u8, u8)> {
    (0u8..4, any::<u16>(), any::<u8>(), 1u8..48)
}

fn mutate(mut bytes: Vec<u8>, ops: &[(u8, u16, u8, u8)]) -> Vec<u8> {
    for &(kind, pos, val, len) in ops {
        if bytes.len() <= 25 {
            break;
        }
        let body = bytes.len() - 24;
        let at = 24 + pos as usize % body;
        match kind {
            // Bit damage in place.
            0 => bytes[at] ^= val | 1,
            // Splice foreign bytes in.
            1 => {
                let junk = vec![val; len as usize];
                bytes.splice(at..at, junk);
            }
            // Tear a range out of the middle.
            2 => {
                let end = (at + len as usize).min(bytes.len());
                bytes.drain(at..end);
            }
            // Truncate the tail.
            _ => bytes.truncate(at),
        }
    }
    bytes
}

fn drain_lenient(bytes: &[u8]) -> (usize, u64, u64, u64) {
    let mut it = PcapRecords::new(bytes)
        .expect("global header untouched")
        .lenient();
    let mut n = 0usize;
    for r in &mut it {
        r.expect("lenient decode must never error on byte damage");
        n += 1;
    }
    (n, it.skipped_records(), it.skipped_bytes(), it.resyncs())
}

/// A reader that hands out at most `chunk` bytes a call, so record
/// headers and bodies straddle the decoder's reads.
struct Trickle<'a> {
    bytes: &'a [u8],
    chunk: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// What a decoder made of a capture: the records before its first error,
/// that error, and its skipped records, skipped bytes and resyncs.
type Outcome = (Vec<PcapRecord>, Option<String>, [u64; 3]);

fn split(
    it: impl Iterator<Item = Result<PcapRecord, PcapError>>,
) -> (Vec<PcapRecord>, Option<String>) {
    let mut records = Vec::new();
    for r in it {
        match r {
            Ok(rec) => records.push(rec),
            Err(e) => return (records, Some(format!("{e:?}"))),
        }
    }
    (records, None)
}

/// `bytes` through the in-place decoder (read `chunk` bytes at a time)
/// and through the oracle.
fn both(bytes: &[u8], chunk: usize, lenient: bool) -> (Outcome, Outcome) {
    let mut new = PcapRecords::new(Trickle { bytes, chunk }).expect("global header untouched");
    let mut old = OracleRecords::new(bytes).expect("global header untouched");
    if lenient {
        (new, old) = (new.lenient(), old.lenient());
    }
    let (records, error) = split(&mut new);
    let counts = [new.skipped_records(), new.skipped_bytes(), new.resyncs()];
    let new = (records, error, counts);
    let (records, error) = split(&mut old);
    let counts = [old.skipped_records(), old.skipped_bytes(), old.resyncs()];
    (new, (records, error, counts))
}

proptest! {
    #[test]
    fn decoder_matches_its_predecessor_on_clean_and_damaged_captures(
        records in 0u64..160,
        ops in proptest::collection::vec(arb_mutation(), 0..10),
        chunk in prop_oneof![Just(1usize), Just(3), Just(16), Just(57), Just(1000), Just(usize::MAX)],
        lenient in any::<bool>(),
    ) {
        let bytes = mutate(clean_capture(records), &ops);
        let (new, old) = both(&bytes, chunk, lenient);
        prop_assert_eq!(new, old);
    }

    #[test]
    fn lenient_decoder_survives_arbitrary_damage(
        records in 1u64..24,
        ops in proptest::collection::vec(arb_mutation(), 0..10),
    ) {
        let clean = clean_capture(records);
        let mutated = mutate(clean.clone(), &ops);
        let (n, skipped, skipped_bytes, _resyncs) = drain_lenient(&mutated);
        // Damage is bounded and accounted: you can't skip more bytes than
        // the file holds, and every surviving record really was decoded.
        prop_assert!(skipped_bytes <= mutated.len() as u64);
        // A record needs at least 16 header + 20 IPv4 bytes of stream, so
        // the yield is structurally bounded by the damaged file's size.
        prop_assert!(n <= mutated.len() / 36 + 1,
            "more records ({n}) than {} bytes can frame", mutated.len());
        let _ = skipped;

        if ops.is_empty() {
            // Oracle: untouched capture ⇒ lenient is exactly strict.
            let strict: Vec<_> = PcapRecords::new(clean.as_slice())
                .unwrap()
                .map(|r| r.unwrap())
                .collect();
            prop_assert_eq!(strict.len() as u64, records);
            prop_assert_eq!(n as u64, records);
            prop_assert_eq!((skipped, skipped_bytes), (0, 0));
        }
    }

    #[test]
    fn strict_and_lenient_agree_record_for_record_on_clean_captures(
        records in 1u64..40,
    ) {
        let bytes = clean_capture(records);
        let strict: Vec<_> = PcapRecords::new(bytes.as_slice())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let mut it = PcapRecords::new(bytes.as_slice()).unwrap().lenient();
        let lenient: Vec<_> = (&mut it).map(|r| r.unwrap()).collect();
        prop_assert_eq!(strict, lenient);
        prop_assert_eq!(it.resyncs(), 0);
    }

    #[test]
    fn lenient_replay_emits_monotone_times_under_damage(
        records in 1u64..24,
        ops in proptest::collection::vec(arb_mutation(), 0..10),
        window in prop_oneof![Just(0u64), Just(300), Just(5_000)],
    ) {
        let mutated = mutate(clean_capture(records), &ops);
        let mut src = PcapReplaySource::new(
            PcapRecords::new(mutated.as_slice()).expect("header untouched"),
            EntryMap::Fixed(0),
            window,
        )
        .lenient();
        let mut last = 0u64;
        let mut emitted = 0u64;
        while let Some(t) = src.peek() {
            let (_, p) = src.next_injection().expect("peek promised a record");
            prop_assert_eq!(p.created_at, t);
            prop_assert!(t.as_nanos() >= last,
                "time regression emitted: {} after {last}", t.as_nanos());
            last = t.as_nanos();
            emitted += 1;
        }
        prop_assert_eq!(emitted, src.emitted());
        prop_assert!(src.error().is_none(),
            "lenient replay must not surface decode errors: {:?}", src.error());
        prop_assert!(src.late_dropped() == 0,
            "lenient replay clamps, it never late-drops");
    }
}
