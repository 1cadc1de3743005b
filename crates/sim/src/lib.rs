//! # rlir-sim — discrete-event network simulator
//!
//! The simulation substrate behind the paper's evaluation (§4.1, Fig. 3):
//!
//! * [`queue`] — analytic drop-tail FIFO output queues (rate, byte capacity,
//!   processing delay) with per-traffic-class loss/byte counters.
//! * [`crosstraffic`] — the cross-traffic injector with the paper's two
//!   selection models (uniform/"random" and bursty) plus the keep-probability
//!   calibrator for utilization targets.
//! * [`pipeline`] — the two-switch tandem of Fig. 3: a [`TandemConfig`]
//!   builds it as a two-node [`Network`] for the engine and routes it.
//! * [`network`] — arbitrary switch topologies with pluggable forwarding
//!   and ToS-marking hooks, hop-by-hop ground truth, and the typed per-hop
//!   observation stream ([`HopEvent`]/[`HopSink`]) the measurement plane
//!   taps into.
//! * [`shard`] — the engine: one keyed per-hop step, one `(time, ordinal,
//!   progress)` order, one loop on one thread, entered only through
//!   [`run_network_streamed_source`], which streams every delivery to a
//!   callback and keeps none; [`run_network_sharded_source`] is the same
//!   run plus a count of the lookahead windows a node partition admits.
//! * [`sched`] — the engine's one event queue, a calendar queue at the
//!   fabric's grain.
//! * [`slab`] — the free-list arena holding in-flight packet state, so the
//!   queue moves 8-byte `Copy` handles instead of full packets and engine
//!   memory is O(max in-flight).
//! * [`chaos`] — seeded chaos-campaign generation: composes random
//!   fault scripts (correlated link flaps, gray-loss ramps, tap outages)
//!   from a single `u64` seed via a self-contained splitmix64 stream.
//! * [`fault`] — deterministic mid-run fault injection (link
//!   failure/recovery, switch service-time degradation, loss bursts) plus
//!   the cooperative [`StopFlag`] termination hook closed-loop detectors
//!   raise; an empty [`FaultScript`] is byte-identical to a fault-free
//!   run.
//! * [`source`] — pull-based [`InjectionSource`]s: the engine's one
//!   ingest path (O(source buffer), not O(run)); [`SortedVecSource`]
//!   wraps a list. `rlir_trace`'s pcap replay source streams captures off
//!   disk through this trait.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod crosstraffic;
pub mod fault;
pub mod network;
pub mod pipeline;
pub mod queue;
pub mod sched;
pub mod shard;
pub mod slab;
pub mod source;

pub use chaos::ChaosConfig;
pub use crosstraffic::{calibrate_keep_prob, CrossInjector, CrossModel};
pub use fault::{DeadPorts, FaultEvent, FaultKind, FaultScript, StopFlag};
pub use network::{
    Forwarder, Hop, HopEvent, HopKind, HopSink, Network, NetworkRunStats, NodeId, NullSink, Port,
    PortId, RouteDecision, RunOptions, StreamDigest, StreamedDelivery, SwitchNode, TeeSink,
};
pub use pipeline::TandemConfig;
pub use queue::{ClassCounters, FifoQueue, QueueConfig, Verdict};
pub use sched::{CalendarQueue, EventSchedule};
pub use shard::{
    run_network_sharded_source, run_network_streamed_source, ShardPlan, ShardRunStats,
};
pub use slab::{FlightState, PacketSlab, SlotId};
pub use source::{InjectionSource, SortedVecSource};
