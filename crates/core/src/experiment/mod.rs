//! Ready-made experiment harnesses reproducing the paper's evaluation.
//!
//! Every harness is a [`rlir_exec::Scenario`] executed by the shared
//! [`rlir_exec::SweepRunner`] — one worker pool, deterministic point order,
//! derived per-point seeds, thread-count-invariant results.
//!
//! * [`two_hop`] — the Fig. 3 controlled environment behind Figs. 4(a)–(c)
//!   (per-flow accuracy under cross traffic) and Fig. 5 (reference-packet
//!   interference); [`two_hop::TwoHopSweep`] runs labeled config grids.
//! * [`loss_sweep`] — the paired with/without-references utilization sweep
//!   of Fig. 5.
//! * [`fattree`] — the §3 RLIR architecture on a k-ary fat-tree: partial
//!   deployment, reference-stream engineering, demultiplexing ablations and
//!   anomaly localization; [`fattree::FatTreeSweep`] runs labeled batches.
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

pub use asymmetric::{
    asymmetric_traces, run_asymmetric, AsymmetricConfig, AsymmetricPoint, AsymmetricSweep,
};
pub use chaos::{run_chaos, ChaosCampaign, ChaosCampaignConfig, ChaosReport, IngestLeg};
pub use drop_aware::{run_drop_aware, DropAwareConfig, DropAwarePoint, DropAwareSweep};
pub use fattree::{
    background_injections, measured_traces, run_fattree, run_fattree_faulted, run_fattree_sweep,
    ClosedLoopOutcome, CoreAnomaly, FatTreeExpConfig, FatTreeOutcome, FatTreeSweep, SwitchAnomaly,
};
pub use faults::{run_faults, FaultsConfig, FaultsPoint, FaultsSweep, FaultsTrial};
pub use incast::{run_incast, IncastConfig, IncastPoint, IncastSweep};
pub use localize::{
    run_localize, run_localize_full, victim_pool, LocalizeConfig, LocalizePoint, LocalizeReport,
    LocalizeSweep, LocalizeTrial,
};
pub use loss_sweep::{run_loss_sweep, run_loss_sweep_on, LossPoint, LossSweep, LossSweepConfig};
pub use plane_scale::{run_plane_scale, PlaneScaleConfig, PlaneScaleOutcome, StateSample};
pub use replay::{run_replay, synth_capture, RefInterleave, ReplayConfig, ReplayOutcome};
pub use two_hop::{
    cross_stream, run_two_hop, run_two_hop_on, run_two_hop_sweep, tandem_loss_rate, CrossSpec,
    TwoHopConfig, TwoHopOutcome, TwoHopPoint, TwoHopSweep,
};
