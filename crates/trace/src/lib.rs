//! # rlir-trace — workload substrate
//!
//! Replaces the CAIDA OC-192 traces and YAF toolchain of the paper's
//! evaluation (§4.1) with fully synthetic, reproducible equivalents:
//!
//! * [`distributions`] — hand-rolled samplers (exponential, bounded Pareto,
//!   geometric, log-uniform, empirical packet-size mix).
//! * [`synthetic`] — the trace generator, with presets
//!   [`synthetic::TraceConfig::paper_regular`] (~22% of OC-192, heavy-tailed
//!   flows) and [`synthetic::TraceConfig::paper_cross`] (~71%, disjoint
//!   prefixes) matching the paper's two traces.
//! * [`divider`] — the Fig. 3 "traffic divider" classifying regular vs cross
//!   traffic by source prefix.
//! * [`flowmeter`] — YAF/NetFlow-style flow metering (feeds the Multiflow
//!   baseline).
//! * [`pcap`] — libpcap export/import (inspect workloads in Wireshark),
//!   including the streaming [`pcap::PcapRecords`] reader and
//!   [`pcap::PcapWriter`] (O(1)-memory either direction).
//! * [`replay`] — the streaming trace-replay front end: a pcap capture
//!   off disk as a pull-based engine [`rlir_sim::InjectionSource`], with
//!   a bounded reorder window and configurable entry-node demux.
//! * [`stats`] — the summary numbers the paper quotes per trace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod distributions;
pub mod divider;
pub mod flowmeter;
pub mod pcap;
pub mod replay;
pub mod stats;
pub mod synthetic;

pub use divider::{TrafficClass, TrafficDivider, UnmatchedPolicy};
pub use flowmeter::{FlowMeter, FlowMeterConfig, FlowRecord};
pub use pcap::{
    open_pcap, read_pcap, write_pcap, BadRecord, IngestMode, PcapError, PcapRecord, PcapRecords,
    PcapWriter,
};
pub use replay::{EntryMap, PcapReplaySource};
pub use stats::TraceStats;
pub use synthetic::{
    compress_into_bursts, generate, merge, reverse, reverse_flow, BurstShape, Trace, TraceClass,
    TraceConfig,
};
