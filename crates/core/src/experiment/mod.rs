//! Ready-made experiment harnesses reproducing the paper's evaluation.
//!
//! Every sweep maps its points through the shared
//! [`rlir_exec::SweepRunner::map`] — one worker pool, deterministic point
//! order, derived per-point seeds, thread-count-invariant results.
//!
//! * [`two_hop`] — the Fig. 3 controlled environment behind Figs. 4(a)–(c)
//!   (per-flow accuracy under cross traffic) and Fig. 5 (reference-packet
//!   interference).
//! * [`loss_sweep`] — the paired with/without-references utilization sweep
//!   of Fig. 5.
//! * [`fattree`] — the §3 RLIR architecture on a k-ary fat-tree: partial
//!   deployment, reference-stream engineering, demultiplexing ablations and
//!   anomaly localization.
//! * [`asymmetric`] — round-trip measurement when forward and reverse
//!   traverse different queues: per-direction RLI attribution under
//!   progressively asymmetric load.
//! * [`incast`] — synchronized burst fan-in on the fat-tree: per-flow
//!   estimate accuracy as partition–aggregate bursts steepen.
//! * [`localize`] — fabric-wide anomaly localization: a random core/edge
//!   victim per point, detection accuracy swept over background load —
//!   per epoch, so findings carry onset times.
//! * [`drop_aware`] — live (non-delivered-gated) taps on a loss-heavy
//!   path: estimator behaviour when the packets it metered die downstream.
//! * [`replay`] — streaming pcap trace replay through the O(buffer)
//!   ingest path, scored against a two-capture-point external ground
//!   truth and re-verified in-run against the Vec-ingest oracle.
//! * [`plane_scale`] — the fleet-scale plane harness: every `(switch,
//!   port)` of the fabric tapped at once under one plane-wide budget,
//!   reporting plane overhead and state bytes versus tap count.
//! * [`faults`] — the closed-loop robustness sweep: mid-run switch
//!   degradation at scripted onsets, detected online with engine
//!   termination; reports time-to-localize and false positives over
//!   onset × background load.
//! * [`chaos`] — seeded chaos campaigns: correlated flaps, gray loss,
//!   tap crash/recovery and a hidden degradation per campaign, plus the
//!   tenant cross-talk byte-identity probe and a hostile-ingest leg.

pub mod asymmetric;
pub mod chaos;
pub mod drop_aware;
pub mod fattree;
pub mod faults;
pub mod incast;
pub mod localize;
pub mod loss_sweep;
pub mod plane_scale;
pub mod replay;
pub mod two_hop;

pub use asymmetric::{run_asymmetric, AsymmetricConfig, AsymmetricPoint};
pub use chaos::{run_chaos, ChaosCampaign, ChaosCampaignConfig, ChaosReport, IngestLeg};
pub use drop_aware::{run_drop_aware, DropAwareConfig, DropAwarePoint};
pub use fattree::{
    background_injections, measured_traces, run_fattree, run_fattree_faulted, ClosedLoopOutcome,
    FatTreeExpConfig, FatTreeOutcome, SwitchAnomaly,
};
pub use faults::{run_faults, FaultsConfig, FaultsPoint, FaultsTrial};
pub use incast::{run_incast, IncastConfig, IncastPoint};
pub use localize::{run_localize, LocalizeConfig, LocalizePoint, LocalizeReport, LocalizeTrial};
pub use loss_sweep::{run_loss_sweep_on, LossPoint, LossSweepConfig};
pub use plane_scale::{run_plane_scale, PlaneScaleConfig, PlaneScaleOutcome, StateSample};
pub use replay::{run_replay, synth_capture, ReplayConfig, ReplayOutcome};
pub use two_hop::{
    cross_stream, run_two_hop, run_two_hop_on, tandem_loss_rate, CrossSpec, TwoHopConfig,
    TwoHopOutcome,
};
