//! The paper's controlled two-hop experiment (Fig. 3 environment).
//!
//! One run wires together: synthetic regular + cross traces (`rlir-trace`),
//! the RLI sender instrumenting the regular stream at switch 1
//! (`rlir-rli`), the calibrated cross-traffic injector and the two-switch
//! tandem, run by the engine as a two-node network (`rlir-sim`), and the
//! RLI receiver at switch 2's egress — then reports per-flow estimation
//! errors, realised bottleneck utilization, loss rates and average true
//! latency. Figures 4(a)–(c) and 5 are sweeps over these runs.

use crate::plane::{MeasurementPlane, PlaneConfig, TapPoint, TapSpec, TruthRef};
use rlir_net::clock::ClockPair;
use rlir_net::packet::Packet;
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::{FlowKey, SenderId};
use rlir_rli::EpochSeries;
use rlir_rli::{FlowTable, Interpolator, PolicyKind, ReceiverCounters, RliSender};
use rlir_sim::{
    calibrate_keep_prob, run_network_streamed_source, ClassCounters, CrossInjector, CrossModel,
    FifoQueue, InjectionSource, Network, NodeId, RunOptions, TandemConfig,
};
use rlir_trace::{generate, Trace, TraceConfig};
use std::iter::Peekable;

/// Cross-traffic specification in terms of the *target bottleneck
/// utilization*; the keep-probability is calibrated from the base traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrossSpec {
    /// No cross traffic at all.
    None,
    /// The paper's "random" model.
    Uniform {
        /// Desired bottleneck utilization (regular + cross), e.g. 0.93.
        target_utilization: f64,
    },
    /// The paper's bursty model (on/off injection windows).
    Bursty {
        /// Desired *average* bottleneck utilization.
        target_utilization: f64,
        /// Injection (burst) duration.
        on: SimDuration,
        /// Gap between bursts.
        off: SimDuration,
    },
}

impl CrossSpec {
    /// The target utilization this spec aims for (regular-only for `None`).
    pub fn target(&self) -> Option<f64> {
        match self {
            CrossSpec::None => None,
            CrossSpec::Uniform { target_utilization }
            | CrossSpec::Bursty {
                target_utilization, ..
            } => Some(*target_utilization),
        }
    }

    /// Figure-legend label.
    pub fn label(&self) -> &'static str {
        match self {
            CrossSpec::None => "none",
            CrossSpec::Uniform { .. } => "random",
            CrossSpec::Bursty { .. } => "bursty",
        }
    }
}

/// Full configuration of one two-hop run.
#[derive(Debug, Clone)]
pub struct TwoHopConfig {
    /// Master seed (traces, injector).
    pub seed: u64,
    /// Trace duration (the paper used 60 s traces; scaled runs use less).
    pub duration: SimDuration,
    /// Injection policy (paper: static 1-and-100 vs adaptive 10…300).
    pub policy: PolicyKind,
    /// Cross-traffic model and utilization target.
    pub cross: CrossSpec,
    /// Delay estimator.
    pub interpolator: Interpolator,
    /// Sender/receiver clock models (perfect by default).
    pub clocks: ClockPair,
    /// Inject reference packets at all? (`false` gives the Fig. 5 baseline
    /// runs that isolate reference-packet interference.)
    pub inject_references: bool,
    /// Flows with fewer estimated packets than this are excluded from the
    /// error CDFs.
    pub min_flow_packets: u64,
    /// Additionally report this per-flow delay quantile from each flow's
    /// four largest delays (e.g. `Some(0.9)` for per-flow p90 tail latency).
    pub track_quantile: Option<f64>,
    /// Epoch width of the measurement plane: the receiver streams one
    /// bounded snapshot per epoch ([`TwoHopOutcome::epochs`]).
    /// `None` keeps whole-run aggregates only. Never perturbs the per-flow
    /// statistics.
    pub epoch: Option<SimDuration>,
    /// Queue/link parameters of the tandem.
    pub tandem: TandemConfig,
}

impl TwoHopConfig {
    /// Paper-flavoured defaults: static 1-and-100, random cross traffic at
    /// 93% target utilization, perfect clocks, linear interpolation.
    pub fn paper(seed: u64, duration: SimDuration) -> Self {
        TwoHopConfig {
            seed,
            duration,
            policy: PolicyKind::Static { n: 100 },
            cross: CrossSpec::Uniform {
                target_utilization: 0.93,
            },
            interpolator: Interpolator::Linear,
            clocks: ClockPair::perfect(),
            inject_references: true,
            min_flow_packets: 1,
            track_quantile: None,
            epoch: Some(SimDuration::from_millis(5)),
            tandem: TandemConfig::paper(),
        }
    }

    /// The regular-trace configuration for this run.
    pub fn regular_trace(&self) -> TraceConfig {
        TraceConfig::paper_regular(self.seed, self.duration)
    }

    /// The cross-trace configuration for this run.
    pub fn cross_trace(&self) -> TraceConfig {
        TraceConfig::paper_cross(self.seed, self.duration)
    }
}

/// Everything one run produces.
#[derive(Debug, Clone)]
pub struct TwoHopOutcome {
    /// Per-flow estimated vs true statistics.
    pub flows: FlowTable,
    /// Receiver counters.
    pub receiver: ReceiverCounters,
    /// Realised bottleneck (switch 2) utilization.
    pub utilization: f64,
    /// End-to-end regular-packet loss rate.
    pub regular_loss: f64,
    /// End-to-end reference-packet loss rate.
    pub reference_loss: f64,
    /// Reference packets emitted by the sender.
    pub refs_emitted: u64,
    /// Regular packets offered by the trace.
    pub regulars_offered: u64,
    /// Mean of per-flow true mean delays, ns (paper quotes 3.0 µs @67% and
    /// 83 µs @93%).
    pub avg_true_delay_ns: f64,
    /// Per-flow relative errors of mean estimates (Fig. 4a/4c samples).
    pub mean_errors: Vec<f64>,
    /// Per-flow relative errors of std-dev estimates (Fig. 4b samples).
    pub std_errors: Vec<f64>,
    /// Per-flow relative errors of tail-quantile estimates (present when
    /// `track_quantile` was set).
    pub quantile_errors: Vec<f64>,
    /// Per-epoch latency time-series (present when [`TwoHopConfig::epoch`]
    /// was set): estimate/truth moments and counter deltas per epoch.
    pub epochs: EpochSeries,
    /// Observations the ordered tap refused as late — zero, as switch 2's
    /// one FIFO port delivers in time order.
    pub late: u64,
}

/// The synthetic reference-stream flow key for the tandem (single path, so
/// any key works; kept outside both traffic prefixes).
fn tandem_ref_key() -> FlowKey {
    FlowKey::udp(
        "10.1.255.254".parse().expect("static"),
        40_000,
        "10.200.255.254".parse().expect("static"),
        rlir_net::wire::RLI_UDP_PORT,
    )
}

/// Run a two-hop experiment, generating traces from the config.
pub fn run_two_hop(cfg: &TwoHopConfig) -> TwoHopOutcome {
    let regular = generate(&cfg.regular_trace());
    let cross = generate(&cfg.cross_trace());
    run_two_hop_on(cfg, &regular, &cross)
}

/// The cross stream a run injects at switch 2: `cross` thinned by an
/// injector calibrated so that it and `regular` load the bottleneck to the
/// config's target utilization — empty for [`CrossSpec::None`].
pub fn cross_stream<'a>(
    cfg: &TwoHopConfig,
    regular: &Trace,
    cross: &'a Trace,
) -> impl Iterator<Item = Packet> + 'a {
    let regular_util = regular.offered_utilization();
    let cross_util = cross.offered_utilization();
    let model = match cfg.cross {
        CrossSpec::None => None,
        CrossSpec::Uniform { target_utilization } => Some(CrossModel::Uniform {
            keep_prob: calibrate_keep_prob(target_utilization, regular_util, cross_util, 1.0),
        }),
        CrossSpec::Bursty {
            target_utilization,
            on,
            off,
        } => {
            let duty = on.as_nanos() as f64 / (on.as_nanos() + off.as_nanos()).max(1) as f64;
            Some(CrossModel::Bursty {
                keep_prob: calibrate_keep_prob(target_utilization, regular_util, cross_util, duty),
                on,
                off,
            })
        }
    };
    let seed = cfg.seed ^ 0xC505_11EC;
    model.into_iter().flat_map(move |m| {
        let mut injector = CrossInjector::new(m, seed);
        cross
            .packets
            .iter()
            .copied()
            .filter(move |p| injector.select(p))
    })
}

/// A two-hop run's injections as one engine source: the upstream stream
/// into switch 1 merged with the cross stream into switch 2, upstream
/// first on equal times. Holds one packet of each.
struct TwoHopSource<U: Iterator<Item = Packet>, C: Iterator<Item = Packet>> {
    upstream: Peekable<U>,
    cross: Peekable<C>,
}

impl<U: Iterator<Item = Packet>, C: Iterator<Item = Packet>> InjectionSource
    for TwoHopSource<U, C>
{
    fn peek(&mut self) -> Option<SimTime> {
        let up = self.upstream.peek().map(|p| p.created_at);
        let cross = self.cross.peek().map(|p| p.created_at);
        up.into_iter().chain(cross).min()
    }

    fn next_injection(&mut self) -> Option<(NodeId, Packet)> {
        let upstream_first = match (self.upstream.peek(), self.cross.peek()) {
            (Some(u), Some(c)) => u.created_at <= c.created_at,
            (u, _) => u.is_some(),
        };
        if upstream_first {
            self.upstream.next().map(|p| (TandemConfig::SW1, p))
        } else {
            self.cross.next().map(|p| (TandemConfig::SW2, p))
        }
    }
}

/// End-to-end loss rate of one traffic class across a finished tandem
/// ([`TandemConfig::network`]): the share of the class's packets offered
/// to switch 1 that never left switch 2.
pub fn tandem_loss_rate(network: &Network, class: fn(&FifoQueue) -> &ClassCounters) -> f64 {
    let [sw1, sw2] =
        [TandemConfig::SW1, TandemConfig::SW2].map(|n| class(&network.nodes[n].ports[0].queue));
    if sw1.arrivals == 0 {
        return 0.0;
    }
    let delivered = sw1.arrivals - sw1.drops - sw2.drops;
    1.0 - delivered as f64 / sw1.arrivals as f64
}

/// Run a two-hop experiment on pre-generated traces (sweeps share the same
/// base traces across points, like the paper reusing its two CAIDA traces).
///
/// The whole pipeline is streaming: the regular trace is instrumented by
/// the RLI sender, merged with the filtered cross stream into the engine
/// running [`TandemConfig::network`], and the measurement plane taps the
/// engine's hop stream — no per-run packet buffers; engine memory is
/// O(in-flight).
pub fn run_two_hop_on(cfg: &TwoHopConfig, regular: &Trace, cross: &Trace) -> TwoHopOutcome {
    // Upstream: the regular trace instrumented in-line by the RLI sender
    // (or passed through untouched for the interference baseline). The
    // sender stays owned here so its counters survive the run.
    let regular_iter = regular.packets.iter().copied();
    let mut sender = cfg.inject_references.then(|| {
        RliSender::new(
            SenderId(1),
            cfg.clocks.sender,
            cfg.policy.build(),
            vec![tandem_ref_key()],
        )
    });
    let upstream: Box<dyn Iterator<Item = Packet>> = match sender.as_mut() {
        Some(s) => Box::new(s.instrument_by_ref(regular_iter)),
        None => Box::new(regular_iter),
    };
    let source = TwoHopSource {
        upstream: upstream.peekable(),
        cross: cross_stream(cfg, regular, cross).peekable(),
    };

    // The measurement plane with one tap at switch 2's host-facing egress.
    // Switch 2's one FIFO port delivers in time order, so the tap streams
    // with no buffering.
    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        epoch: cfg.epoch,
        ..PlaneConfig::default()
    });
    let point = TapPoint::Delivery(TandemConfig::SW2);
    let mut tap = TapSpec::new("sw2-egress", point, SenderId(1));
    tap.truth = TruthRef::SinceInjection;
    tap.ordered = true;
    tap.clock = cfg.clocks.receiver;
    tap.interpolator = cfg.interpolator;
    tap.track_quantile = cfg.track_quantile;
    plane.attach(tap);
    let stats = run_network_streamed_source(
        cfg.tandem.network(),
        &cfg.tandem,
        source,
        &mut plane,
        RunOptions::default(),
        |_| {},
    );
    let refs_emitted = sender.map(|s| s.refs_emitted()).unwrap_or(0);
    let tap_report = plane.finish().taps.pop().expect("one tap");
    let late = tap_report.late;
    let report = tap_report.report;

    let net = &stats.network;
    let mean_errors = report.flows.mean_relative_errors(cfg.min_flow_packets);
    let std_errors = report.flows.std_relative_errors(cfg.min_flow_packets);
    let quantile_errors = report.flows.quantile_relative_errors(cfg.min_flow_packets);
    TwoHopOutcome {
        utilization: net.nodes[TandemConfig::SW2].ports[0]
            .queue
            .utilization(cfg.duration),
        regular_loss: tandem_loss_rate(net, FifoQueue::regular),
        reference_loss: tandem_loss_rate(net, FifoQueue::reference),
        refs_emitted,
        regulars_offered: regular.packets.len() as u64,
        avg_true_delay_ns: report.flows.average_true_delay_ns().unwrap_or(0.0),
        receiver: report.counters,
        mean_errors,
        std_errors,
        quantile_errors,
        epochs: report.epochs,
        late,
        flows: report.flows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(target: f64) -> TwoHopConfig {
        let mut cfg = TwoHopConfig::paper(7, SimDuration::from_millis(60));
        cfg.cross = CrossSpec::Uniform {
            target_utilization: target,
        };
        cfg.policy = PolicyKind::Static { n: 50 };
        cfg
    }

    #[test]
    fn utilization_calibration_hits_target() {
        for target in [0.5f64, 0.8] {
            let out = run_two_hop(&quick_cfg(target));
            assert!(
                (out.utilization - target).abs() < 0.08,
                "target {target}, realised {}",
                out.utilization
            );
        }
    }

    #[test]
    fn produces_flow_estimates_with_sane_errors() {
        let out = run_two_hop(&quick_cfg(0.8));
        assert!(
            out.flows.flow_count() > 100,
            "{} flows",
            out.flows.flow_count()
        );
        assert!(!out.mean_errors.is_empty());
        assert!(out.refs_emitted > 0);
        assert!(out.receiver.estimated > 0);
        // Median relative error should be well under 100% at high load.
        let med = rlir_stats::Ecdf::new(out.mean_errors.clone())
            .median()
            .unwrap();
        assert!(med < 1.0, "median error {med}");
    }

    #[test]
    fn no_references_means_no_estimates() {
        let mut cfg = quick_cfg(0.6);
        cfg.inject_references = false;
        let out = run_two_hop(&cfg);
        assert_eq!(out.refs_emitted, 0);
        assert_eq!(out.receiver.estimated, 0);
        assert_eq!(out.flows.flow_count(), 0);
    }

    #[test]
    fn higher_utilization_means_higher_delay() {
        let lo = run_two_hop(&quick_cfg(0.55));
        let hi = run_two_hop(&quick_cfg(0.93));
        assert!(
            hi.avg_true_delay_ns > lo.avg_true_delay_ns * 1.5,
            "delay did not grow: {} vs {}",
            lo.avg_true_delay_ns,
            hi.avg_true_delay_ns
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_two_hop(&quick_cfg(0.7));
        let b = run_two_hop(&quick_cfg(0.7));
        assert_eq!(a.utilization, b.utilization);
        assert_eq!(a.mean_errors, b.mean_errors);
        assert_eq!(a.refs_emitted, b.refs_emitted);
    }

    #[test]
    fn sweep_runs_labeled_grid_in_point_order() {
        let regular = generate(&quick_cfg(0.7).regular_trace());
        let cross = generate(&quick_cfg(0.7).cross_trace());
        let grid = [("lo", quick_cfg(0.55)), ("hi", quick_cfg(0.93))];
        let sweep = |runner: rlir_exec::SweepRunner| {
            runner.map(7, &grid, |ctx, (label, cfg)| {
                assert_eq!(ctx.seed, rlir_exec::derive_seed(7, ctx.index as u64));
                (*label, run_two_hop_on(cfg, &regular, &cross))
            })
        };
        let rows = sweep(rlir_exec::SweepRunner::new(2));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "lo");
        assert_eq!(rows[1].0, "hi");
        assert!(rows[0].1.utilization < rows[1].1.utilization);
        // Same grid, one thread: identical outcomes.
        let seq = sweep(rlir_exec::SweepRunner::single());
        assert_eq!(seq[1].1.mean_errors, rows[1].1.mean_errors);
    }

    #[test]
    fn epoch_series_tallies_with_counters() {
        let out = run_two_hop(&quick_cfg(0.8));
        assert!(out.epochs.len() > 5, "{} epochs", out.epochs.len());
        let est: u64 = out.epochs.iter().map(|e| e.estimated).sum();
        assert_eq!(est, out.receiver.estimated, "epochs must tally");
        let seen: u64 = out.epochs.iter().map(|e| e.regulars_seen).sum();
        assert_eq!(seen, out.receiver.regulars_seen);
        assert_eq!(out.late, 0, "switch 2 delivers in time order");
        // Delay rises under load mid-run: the series is a real time-series,
        // not a constant replicated per epoch.
        let means: Vec<f64> = out.epochs.iter().filter_map(|e| e.est_mean()).collect();
        assert!(means.len() > 2);
        let (lo, hi) = means
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &m| (l.min(m), h.max(m)));
        assert!(hi > lo, "per-epoch means must vary: {means:?}");
    }

    #[test]
    fn cross_spec_labels() {
        assert_eq!(CrossSpec::None.label(), "none");
        assert_eq!(
            CrossSpec::Uniform {
                target_utilization: 0.5
            }
            .label(),
            "random"
        );
        assert_eq!(CrossSpec::None.target(), None);
    }
}
