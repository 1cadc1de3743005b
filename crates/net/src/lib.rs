//! # rlir-net — packet and addressing substrate
//!
//! Foundation types shared by every crate in the RLIR reproduction:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]).
//! * [`flow`] — 5-tuple [`FlowKey`]s.
//! * [`prefix`] / [`trie`] — IPv4 CIDR prefixes and a longest-prefix-match
//!   trie (the receiver-side "simple IP prefix matching" of RLIR §3.1 and the
//!   fat-tree routing tables).
//! * [`hash`] — the deterministic ECMP hash, a seeded CRC-32 ([`HashAlgo`]),
//!   shared between the forwarding plane and RLIR's reverse-ECMP
//!   demultiplexer.
//! * [`fxhash`] — the FxHash function behind [`FxHashMap`], used by every
//!   per-flow table on the packet hot path (SipHash is overkill for
//!   simulated keys).
//! * [`packet`] — the simulated [`Packet`] record with traffic classes and
//!   embedded RLI reference headers.
//! * [`wire`] — the IPv4 header codec with its internet checksum, which
//!   the pcap front end writes and reads, and the RLI UDP port.
//! * [`clock`] — imperfect-clock models for studying synchronisation error.
//!
//! The crate is dependency-light (only `bytes` and `serde`) and contains no
//! I/O or simulation logic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod flow;
pub mod fxhash;
pub mod hash;
pub mod packet;
pub mod prefix;
pub mod time;
pub mod trie;
pub mod wire;

pub use clock::{ClockModel, ClockPair};
pub use flow::{FlowKey, Protocol};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use hash::HashAlgo;
pub use packet::{Packet, PacketId, PacketKind, ReferenceInfo, SenderId};
pub use prefix::Ipv4Prefix;
pub use time::{SimDuration, SimTime};
pub use trie::PrefixTrie;
