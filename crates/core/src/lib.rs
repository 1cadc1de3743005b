//! # rlir — Reference Latency Interpolation across Routers
//!
//! The paper's primary contribution (Singh, Lee, Kumar, Kompella,
//! Hot-ICE 2011): flow-level latency measurement in data centers with RLI
//! instances deployed at only *some* routers (ToR uplinks + cores of a
//! fat-tree), trading localization granularity for deployment cost.
//!
//! * [`capture`] — two-point capture taps: per-flow latency as the
//!   timestamp delta of the *same packet* at two fabric points (RFC 1242,
//!   matched on 5-tuple + IP ident) — the external ground truth trace
//!   replay scores RLI against.
//! * [`demux`] — the receiver-side demultiplexer of §3.1: origin-ToR
//!   identification by IP prefix matching (upstream) and traversed-core
//!   identification by ToS packet marking or reverse-ECMP computation
//!   (downstream), plus the naive no-association ablation.
//! * [`detect`] — the closed-loop online detector: CUSUM/EWMA change
//!   detection over the plane's settled epochs, with an engine-termination
//!   hook so time-to-localize is measured mid-run.
//! * [`deployment`] — instance placement and reference-stream engineering
//!   ("each sender sends reference packets to all intermediate receivers").
//! * [`fabric`] — materialises the fat-tree on the event-driven simulator,
//!   with core marking support.
//! * [`localization`] — segment-level latency-anomaly localization, the
//!   operator-facing purpose of the architecture.
//! * [`plane`] — the per-hop measurement plane: attachable RLI taps over
//!   the simulator's hop-event stream, one estimator instance per
//!   `(node, port)` observation point, with fabric-wide localization.
//! * [`windowed`] — time-windowed anomaly detection over per-packet
//!   estimate logs (transient microbursts, not just run-level means).
//! * [`experiment`] — the evaluation harnesses (two-hop pipeline for
//!   Figs. 4–5, full fat-tree for the demux/localization studies).
//!
//! ## Quickstart
//!
//! ```
//! use rlir::experiment::{run_two_hop, TwoHopConfig, CrossSpec};
//! use rlir_net::time::SimDuration;
//!
//! let mut cfg = TwoHopConfig::paper(42, SimDuration::from_millis(30));
//! cfg.cross = CrossSpec::Uniform { target_utilization: 0.8 };
//! let out = run_two_hop(&cfg);
//! assert!(out.flows.flow_count() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capture;
pub mod demux;
pub mod deployment;
pub mod detect;
pub mod experiment;
pub mod fabric;
pub mod localization;
pub mod plane;
pub mod windowed;

pub use capture::{CapturePair, CaptureReport, FlowCapture, DEFAULT_CAPTURE_TIMEOUT};
pub use demux::{core_from_mark, core_mark, CoreDemux, RlirDemux};
pub use deployment::{engineer_ref_key, CoreSenderSpec, Deployment, TorSenderSpec};
pub use detect::{ClosedLoopSink, Detection, DetectorConfig, EpochDetector};
pub use fabric::{build_network, FatTreeFabric};
pub use localization::{localize, AnomalyFinding, LocalizerConfig, SegmentObservation};
pub use plane::{
    localize_epoch_series, DrainMode, EpochFindings, MeasurementPlane, PlaneConfig, PlaneReport,
    TapPoint, TapReport, TapSpec, TruthRef, DEFAULT_REORDER_WINDOW, TANDEM_SW1, TANDEM_SW2,
};
pub use windowed::{localize_windows, SegmentWindows, WindowFinding, WindowedConfig};
