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
//! * [`flowmeter`] — YAF/NetFlow-style flow metering (feeds the Multiflow
//!   baseline).
//! * [`pcap`] — libpcap export/import (inspect workloads in Wireshark),
//!   including the streaming [`pcap::PcapRecords`] reader and
//!   [`pcap::PcapWriter`] (O(1)-memory either direction).
//! * [`replay`] — the streaming trace-replay front end: a pcap capture
//!   off disk as a pull-based engine [`rlir_sim::InjectionSource`], with
//!   a bounded reorder window and configurable entry-node demux.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod distributions;
pub mod flowmeter;
pub mod pcap;
pub mod replay;
pub mod synthetic;

pub use flowmeter::{FlowMeter, FlowMeterConfig, FlowRecord};
pub use pcap::{
    open_pcap, read_pcap, write_pcap, BadRecord, IngestMode, PcapError, PcapRecord, PcapRecords,
    PcapWriter,
};
pub use replay::{EntryMap, PcapReplaySource};
pub use synthetic::{
    compress_into_bursts, generate, reverse, reverse_flow, BurstShape, Trace, TraceClass,
    TraceConfig,
};
