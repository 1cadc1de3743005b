//! # rlir-sim — discrete-event network simulator
//!
//! The simulation substrate behind the paper's evaluation (§4.1, Fig. 3):
//!
//! * [`queue`] — analytic drop-tail FIFO output queues (rate, byte capacity,
//!   processing delay) with per-traffic-class loss/byte counters.
//! * [`crosstraffic`] — the cross-traffic injector with the paper's two
//!   selection models (uniform/"random" and bursty) plus the keep-probability
//!   calibrator for utilization targets.
//! * [`pipeline`] — the two-switch tandem of Fig. 3, run as one streaming
//!   sorted merge (no event heap, no intermediate buffering) with full
//!   per-packet ground truth; the seed's two-pass variant is kept as a
//!   differential-testing oracle and benchmark baseline.
//! * [`network`] — a general event-driven engine for arbitrary topologies
//!   (used for the fat-tree RLIR experiments), with pluggable forwarding,
//!   ToS-marking hooks, hop-by-hop ground truth and a typed per-hop
//!   observation stream ([`HopEvent`]/[`HopSink`]) the measurement plane
//!   taps into.
//! * [`sched`] — the engine's event schedulers: the default bucketed
//!   calendar queue and the original binary heap kept as differential
//!   oracle.
//! * [`slab`] — the free-list arena holding in-flight packet state, so the
//!   schedulers move 8-byte `Copy` handles instead of full packets and
//!   engine memory is O(max in-flight) (the pre-slab engine is retained as
//!   [`EngineKind::MovingOracle`]).
//! * [`chaos`] — seeded chaos-campaign generation: composes random
//!   fault scripts (correlated link flaps, gray-loss ramps, tap outages)
//!   from a single `u64` seed via a self-contained splitmix64 stream.
//! * [`fault`] — deterministic mid-run fault injection (link
//!   failure/recovery, switch service-time degradation, loss bursts) plus
//!   the cooperative [`StopFlag`] termination hook closed-loop detectors
//!   raise; an empty [`FaultScript`] is byte-identical to a fault-free
//!   run.
//! * [`shard`] — the pod-sharded engine: conservative-lookahead windows
//!   over a topology-supplied node partition, each shard owning its own
//!   scheduler/slab/fault cursor, with cross-shard packets handed off at
//!   window barriers and the merged stream byte-identical for any shard
//!   count. One per-hop cascade: a single shard emits in place, several
//!   log their windows for the coordinator to merge; ingest is pulled
//!   from an [`InjectionSource`] a window at a time.
//! * [`source`] — pull-based [`InjectionSource`]s: the engine's streaming
//!   ingest path (O(source buffer), not O(run)), with the sorted-Vec
//!   adapter kept byte-identical to the old collect-then-sort ingest as
//!   its differential oracle. `rlir_trace`'s pcap replay source streams
//!   captures off disk through this trait.

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
    run_network, run_network_engine, run_network_sched, run_network_streamed,
    run_network_streamed_opts, run_network_streamed_sched, run_network_streamed_source,
    run_network_with, EngineKind, Forwarder, Hop, HopEvent, HopKind, HopSink, NetDelivery, Network,
    NetworkRun, NetworkRunStats, NodeId, NullSink, Port, PortId, RouteDecision, RunOptions,
    SchedulerKind, StreamDigest, StreamedDelivery, SwitchNode, TeeSink,
};
pub use pipeline::{
    run_tandem, run_tandem_two_pass, run_tandem_with, Delivery, TandemConfig, TandemResult,
    TandemStats,
};
pub use queue::{ClassCounters, FifoQueue, QueueConfig, Verdict};
pub use sched::{CalendarQueue, EventSchedule, HeapSchedule};
pub use shard::{run_network_sharded, run_network_sharded_source, ShardPlan, ShardRunStats};
pub use slab::{FlightState, PacketSlab, SlotId};
pub use source::{InjectionSource, SortedVecSource};
