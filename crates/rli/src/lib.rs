//! # rlir-rli — Reference Latency Interpolation
//!
//! The RLI mechanism (Lee et al., SIGCOMM 2010) that RLIR deploys across
//! routers — the substrate described in §2 of the paper:
//!
//! * [`policy`] — reference-packet injection: the static *1-and-n* scheme
//!   and the adaptive scheme (1-and-10 … 1-and-300, driven by a windowed
//!   utilization estimate of the sender's own link).
//! * [`sender`] — the sender instance: watches regular traffic, stamps and
//!   emits reference packets (one stream per downstream receiver/path), and
//!   an iterator adapter that instruments a trace in-line.
//! * [`interpolate`] — the linear-interpolation delay estimator plus
//!   ablation variants.
//! * [`receiver`] — the receiver instance: reference-delay measurement,
//!   interpolation buffer, per-packet estimation.
//! * [`flowstats`] — per-flow aggregation of estimated vs true delay (mean
//!   and standard deviation, the paper's two evaluated statistics).
//! * [`epoch`] — epoch-windowed snapshots: the bounded-size per-epoch
//!   export a deployed receiver streams off the router, mergeable across
//!   instances into segment-level latency time-series.
//! * [`slots`] — the keyless index from a flow's hash to its row, shared by
//!   every per-flow table.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod epoch;
pub mod flowstats;
pub mod interpolate;
pub mod policy;
pub mod receiver;
pub mod sender;
pub mod slots;

pub use epoch::{growth, push_grown, EpochCounter, EpochSeries, EpochSnapshot};
pub use flowstats::{FlowReport, FlowTable};
pub use interpolate::{DelaySample, Interpolator};
pub use policy::{AdaptiveConfig, PolicyKind, StaticPolicy};
pub use receiver::{ReceiverConfig, ReceiverCounters, ReceiverReport, RliReceiver};
pub use sender::{RliSender, REF_ID_BASE};
pub use slots::SlotIndex;
