//! ECMP hash functions.
//!
//! Routers spread flows over equal-cost next hops by hashing the 5-tuple.
//! RLIR's *reverse ECMP computation* (§3.1) re-runs the upstream switches'
//! hash functions at the receiver to infer which core router a packet crossed
//! — so the exact same deterministic function must be usable both in the
//! forwarding plane (`rlir-topo`) and in the measurement plane (`rlir`).
//!
//! Switch vendors do not publish their hash functions; the paper assumes they
//! can be obtained. We therefore provide several concrete functions behind
//! the [`EcmpHasher`] trait plus a serialisable [`HashAlgo`] descriptor, and
//! a per-switch `seed` so that different switches can hash differently
//! (real deployments salt per-switch to avoid traffic polarisation).

use crate::flow::FlowKey;
use serde::{Deserialize, Serialize};

/// A deterministic flow-key hash used for ECMP next-hop selection.
pub trait EcmpHasher {
    /// Hash the flow key to a 64-bit value. Must be a pure function of the
    /// key (and the hasher's own configuration).
    fn hash_flow(&self, key: &FlowKey) -> u64;

    /// Select one of `n` equal-cost next hops for this key.
    ///
    /// Panics in debug builds if `n == 0`.
    fn select(&self, key: &FlowKey, n: usize) -> usize {
        debug_assert!(n > 0, "ECMP selection over an empty next-hop set");
        (self.hash_flow(key) % n as u64) as usize
    }
}

/// CRC-32 (IEEE 802.3 polynomial) with a seed-keyed non-linear finaliser.
///
/// A raw CRC is GF(2)-linear, so two CRC hashers that differ only in an
/// input salt compute the *same* linear map plus a constant — conditioned on
/// the first-level ECMP choice, a second CRC level becomes deterministic
/// (the classic multi-stage *traffic polarisation* pathology). Merchant
/// silicon avoids this with vendor-specific post-processing of the CRC;
/// we model that with a SplitMix64 finalisation keyed by the seed, keeping
/// the per-switch functions genuinely distinct. Use [`crc32`] directly for
/// the raw checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32Hasher {
    seed: u32,
}

/// FNV-1a folded over the canonical key bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnvHasher {
    seed: u64,
}

/// A deliberately weak xor-fold hash; useful in tests for *provoking*
/// polarisation and collision pathologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorFoldHasher {
    seed: u64,
}

const CRC32_POLY: u32 = 0xEDB8_8320; // reflected IEEE polynomial

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time table,
/// `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC32_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Raw CRC-32 over a byte slice (IEEE, reflected, init/xorout `0xFFFF_FFFF`).
///
/// Eight bytes per step (slice-by-8): the eight table loads of a step are
/// independent of each other, where the byte-at-a-time loop chains every
/// load on the one before it.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

impl Crc32Hasher {
    /// Build with a per-switch seed that is mixed into the CRC input.
    pub fn new(seed: u32) -> Self {
        Crc32Hasher { seed }
    }
}

impl EcmpHasher for Crc32Hasher {
    fn hash_flow(&self, key: &FlowKey) -> u64 {
        let kb = key.to_bytes();
        let mut input = [0u8; 17];
        input[..4].copy_from_slice(&self.seed.to_be_bytes());
        input[4..].copy_from_slice(&kb);
        let crc = crc32(&input) as u64;
        // Seed-keyed non-linear finalisation (see type docs: polarisation).
        splitmix64(crc ^ ((self.seed as u64) << 32))
    }
}

#[inline]
fn splitmix64(s: u64) -> u64 {
    let mut z = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FnvHasher {
    /// Build with a per-switch seed folded into the FNV offset basis.
    pub fn new(seed: u64) -> Self {
        FnvHasher { seed }
    }
}

impl EcmpHasher for FnvHasher {
    fn hash_flow(&self, key: &FlowKey) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x1000_0000_01b3;
        let mut h = FNV_OFFSET ^ self.seed;
        for b in key.to_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

impl XorFoldHasher {
    /// Build with a per-switch seed xored into the fold.
    pub fn new(seed: u64) -> Self {
        XorFoldHasher { seed }
    }
}

impl EcmpHasher for XorFoldHasher {
    fn hash_flow(&self, key: &FlowKey) -> u64 {
        let kb = key.to_bytes();
        let mut h = self.seed;
        for chunk in kb.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h ^= u64::from_be_bytes(word);
            h = h.rotate_left(13);
        }
        h
    }
}

/// Serialisable descriptor of a hash algorithm + seed, from which a concrete
/// hasher is built. This is what topology configurations store per switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HashAlgo {
    /// CRC-32 with a 32-bit seed.
    Crc32 {
        /// Per-switch salt mixed into the CRC input.
        seed: u32,
    },
    /// FNV-1a with a 64-bit seed.
    Fnv {
        /// Per-switch salt folded into the FNV offset basis.
        seed: u64,
    },
    /// Weak xor-fold with a 64-bit seed.
    XorFold {
        /// Per-switch salt xored into the fold.
        seed: u64,
    },
}

impl Default for HashAlgo {
    fn default() -> Self {
        HashAlgo::Crc32 { seed: 0 }
    }
}

impl HashAlgo {
    /// Instantiate the described hasher as a boxed trait object.
    pub fn build(&self) -> Box<dyn EcmpHasher + Send + Sync> {
        match *self {
            HashAlgo::Crc32 { seed } => Box::new(Crc32Hasher::new(seed)),
            HashAlgo::Fnv { seed } => Box::new(FnvHasher::new(seed)),
            HashAlgo::XorFold { seed } => Box::new(XorFoldHasher::new(seed)),
        }
    }

    /// Hash a key directly without boxing (dispatches internally).
    pub fn hash_flow(&self, key: &FlowKey) -> u64 {
        match *self {
            HashAlgo::Crc32 { seed } => Crc32Hasher::new(seed).hash_flow(key),
            HashAlgo::Fnv { seed } => FnvHasher::new(seed).hash_flow(key),
            HashAlgo::XorFold { seed } => XorFoldHasher::new(seed).hash_flow(key),
        }
    }

    /// Select one of `n` next hops for `key` (see [`EcmpHasher::select`]).
    pub fn select(&self, key: &FlowKey, n: usize) -> usize {
        debug_assert!(n > 0, "ECMP selection over an empty next-hop set");
        (self.hash_flow(key) % n as u64) as usize
    }

    /// A variant of the same algorithm re-seeded for a particular switch.
    /// Deterministic: the same `(base, switch_index)` always yields the same
    /// algorithm, which is what makes reverse ECMP computation possible.
    pub fn reseeded(&self, switch_index: u64) -> HashAlgo {
        // SplitMix64 step decorrelates per-switch seeds derived from a base.
        let mix = splitmix64;
        match *self {
            HashAlgo::Crc32 { seed } => HashAlgo::Crc32 {
                seed: mix(seed as u64 ^ switch_index) as u32,
            },
            HashAlgo::Fnv { seed } => HashAlgo::Fnv {
                seed: mix(seed ^ switch_index),
            },
            HashAlgo::XorFold { seed } => HashAlgo::XorFold {
                seed: mix(seed ^ switch_index),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(i: u32) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from(0x0A00_0000 | i),
            (1000 + i) as u16,
            Ipv4Addr::new(10, 3, 0, 2),
            80,
        )
    }

    /// The byte-at-a-time loop `crc32` used to be: the differential oracle
    /// for the slice-by-8 kernel.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"a"), 0xE8B7_BE43);
            assert_eq!(
                crc(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    #[test]
    fn slice_by_8_matches_the_byte_loop() {
        // Every length from empty through several 8-byte steps plus a tail.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut buf = [0u8; 64];
        for case in 0..10_000usize {
            for b in &mut buf {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *b = (x >> 32) as u8;
            }
            let input = &buf[..case % 65];
            assert_eq!(crc32(input), crc32_bytewise(input), "{input:02x?}");
        }
    }

    #[test]
    fn hashing_is_deterministic() {
        let k = key(7);
        for algo in [
            HashAlgo::Crc32 { seed: 5 },
            HashAlgo::Fnv { seed: 5 },
            HashAlgo::XorFold { seed: 5 },
        ] {
            assert_eq!(algo.hash_flow(&k), algo.hash_flow(&k), "{algo:?}");
            let h = algo.build();
            assert_eq!(h.hash_flow(&k), algo.hash_flow(&k), "{algo:?}");
        }
    }

    #[test]
    fn different_seeds_give_different_selections() {
        // Over many keys, two differently-seeded CRC hashers must disagree on
        // at least some 2-way selections (they are different functions).
        let a = HashAlgo::Crc32 { seed: 1 };
        let b = HashAlgo::Crc32 { seed: 2 };
        let disagreements = (0..512)
            .filter(|&i| a.select(&key(i), 2) != b.select(&key(i), 2))
            .count();
        assert!(disagreements > 100, "only {disagreements} disagreements");
    }

    #[test]
    fn selection_in_range_and_reasonably_balanced() {
        // Decorrelate the synthetic keys: real traffic does not advance the
        // source address and port in lockstep, and CRC-32 is linear enough
        // that lockstep inputs bias its low bits.
        let diverse_key = |i: u32| {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            FlowKey::tcp(
                Ipv4Addr::from(0x0A00_0000 | (h as u32 & 0xFFFF)),
                (h >> 16) as u16,
                Ipv4Addr::new(10, 3, 0, 2),
                80,
            )
        };
        for algo in [HashAlgo::Crc32 { seed: 9 }, HashAlgo::Fnv { seed: 9 }] {
            let n = 4;
            let mut counts = vec![0usize; n];
            for i in 0..4000 {
                let s = algo.select(&diverse_key(i), n);
                assert!(s < n);
                counts[s] += 1;
            }
            for (hop, &c) in counts.iter().enumerate() {
                // Expect ~1000 per bucket; allow a wide tolerance.
                assert!(
                    (600..=1400).contains(&c),
                    "{algo:?} bucket {hop} got {c}/4000"
                );
            }
        }
    }

    #[test]
    fn reseeded_is_deterministic_and_distinct() {
        let base = HashAlgo::Crc32 { seed: 0xDEAD };
        let a1 = base.reseeded(3);
        let a2 = base.reseeded(3);
        let b = base.reseeded(4);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        let k = key(11);
        assert_eq!(a1.hash_flow(&k), a2.hash_flow(&k));
    }

    #[test]
    fn hash_depends_on_all_tuple_fields() {
        let algo = HashAlgo::Crc32 { seed: 0 };
        let base = key(1);
        let h0 = algo.hash_flow(&base);
        let mut v = base;
        v.sport = base.sport.wrapping_add(1);
        assert_ne!(algo.hash_flow(&v), h0, "sport ignored");
        let mut v = base;
        v.dport = base.dport.wrapping_add(1);
        assert_ne!(algo.hash_flow(&v), h0, "dport ignored");
        let mut v = base;
        v.dst = Ipv4Addr::new(10, 3, 0, 3);
        assert_ne!(algo.hash_flow(&v), h0, "dst ignored");
        let mut v = base;
        v.proto = crate::flow::Protocol::Udp;
        assert_ne!(algo.hash_flow(&v), h0, "proto ignored");
    }

    #[test]
    #[should_panic(expected = "empty next-hop set")]
    #[cfg(debug_assertions)]
    fn select_zero_panics_in_debug() {
        HashAlgo::default().select(&key(0), 0);
    }

    #[test]
    fn no_cross_stage_polarisation() {
        // Regression for the raw-CRC pathology: conditioned on the first
        // stage's 2-way choice, the second (differently-seeded) stage must
        // still split traffic. With a purely linear CRC both stages differ
        // only by a constant and the conditional split collapses.
        let stage1 = HashAlgo::Crc32 { seed: 11 }.reseeded(1);
        let stage2 = HashAlgo::Crc32 { seed: 11 }.reseeded(2);
        let mut split = [[0usize; 2]; 2];
        for i in 0..2000u32 {
            let k = key(i);
            split[stage1.select(&k, 2)][stage2.select(&k, 2)] += 1;
        }
        for (s1, row) in split.iter().enumerate() {
            for (s2, &count) in row.iter().enumerate() {
                assert!(
                    count > 200,
                    "stage1={s1} stage2={s2} starved ({count}/2000): polarised"
                );
            }
        }
    }
}
