//! The concrete scenario registrations behind `experiments list` /
//! `experiments run <name> [--threads N]`.
//!
//! Each entry wraps one harness in a closure that runs it at the ambient
//! [`Scale`] on the caller's [`SweepRunner`](rlir_exec::SweepRunner),
//! prints the terminal summary and persists the CSV series — so adding a
//! workload to the binary is one `register` call, not a new subcommand.

use crate::emit::{
    emit_demux, emit_fig5, emit_interp, emit_quantiles, emit_sync, print_shape_checks,
    write_epoch_companion,
};
use crate::figures::{
    demux_ablation, fig4a, fig4a_shape_checks, fig5, fig5_shape_checks, interference_base,
    interp_ablation, quantile_accuracy, sync_ablation,
};
use crate::output::{write_csv, OutputDir};
use crate::scale::Scale;
use rlir::experiment::{
    run_asymmetric, run_chaos, run_drop_aware, run_faults, run_incast, run_localize_full,
    run_plane_scale, run_replay, AsymmetricConfig, ChaosCampaignConfig, DropAwareConfig,
    FaultsConfig, IncastConfig, LocalizeConfig, LossSweepConfig, PlaneScaleConfig, ReplayConfig,
};
use rlir_exec::ScenarioRegistry;
use rlir_rli::PolicyKind;

/// Everything a registered scenario needs besides the runner.
pub struct RunContext {
    /// Scale knobs (durations, seeds).
    pub scale: Scale,
    /// Where CSV series land.
    pub out: OutputDir,
    /// Capture file for the `replay` scenario (`--trace`); `None` replays
    /// a generated capture.
    pub trace: Option<std::path::PathBuf>,
    /// Entry-node demux spec for `replay` (`--entry-map`), already
    /// validated by the CLI.
    pub entry_map: Option<String>,
    /// Tenant weight split for the fat-tree plane (`--tenants w1,w2`),
    /// already validated by the CLI: segment-1 taps become tenant 0 with
    /// weight `w1`, segment-2 taps tenant 1 with weight `w2`.
    pub tenants: Option<(u64, u64)>,
    /// Master seed override for the `chaos` scenario (`--chaos-seed`).
    pub chaos_seed: Option<u64>,
    /// Run pcap ingest in lenient skip-and-count mode (`--lenient`).
    pub lenient: bool,
}

/// Build the registry of runnable scenarios.
pub fn build_registry() -> ScenarioRegistry<RunContext> {
    let mut reg: ScenarioRegistry<RunContext> = ScenarioRegistry::new();

    reg.register(
        "two_hop",
        "Fig. 4(a) accuracy grid: {Adaptive, Static} x {67%, 93%} on the two-hop tandem",
        |ctx, runner| {
            let curves = fig4a(&ctx.scale, runner);
            println!("== two_hop: per-flow mean-error CDFs (random cross traffic) ==");
            for c in &curves {
                println!("  {}", c.summary());
            }
            print_shape_checks(&fig4a_shape_checks(&curves));
            let csv = write_csv(
                "label,target_utilization,utilization,median_error,frac_below_10pct,flows",
                curves.iter().map(|c| {
                    format!(
                        "{},{},{},{},{},{}",
                        c.label,
                        c.target_utilization,
                        c.utilization,
                        c.median_error,
                        c.frac_below_10pct,
                        c.flows
                    )
                }),
            );
            ctx.out.write("scenario_two_hop.csv", &csv)?;
            let labeled: Vec<(String, &[rlir_rli::EpochSnapshot])> = curves
                .iter()
                .map(|c| (c.label.clone(), c.epochs.as_slice()))
                .collect();
            write_epoch_companion(&ctx.out, "scenario_two_hop.csv", &labeled)?;
            Ok(())
        },
    );

    reg.register(
        "loss_sweep",
        "Fig. 5 interference sweep: loss-rate difference caused by reference packets",
        |ctx, runner| {
            let (base, regular, cross) = interference_base(
                PolicyKind::Static { n: 100 },
                ctx.scale.base_seed,
                ctx.scale.interference_duration,
            );
            let cfg = LossSweepConfig {
                base,
                targets: LossSweepConfig::paper_targets(),
            };
            let points = rlir::experiment::run_loss_sweep_on(&cfg, &regular, &cross, runner);
            println!("== loss_sweep: reference-packet interference (static 1-and-100) ==");
            println!(
                "  {:>8} {:>10} {:>16} {:>12}",
                "target", "realised", "loss diff", "refs"
            );
            for p in &points {
                println!(
                    "  {:>7.0}% {:>9.1}% {:>15.6}% {:>12}",
                    p.target_utilization * 100.0,
                    p.utilization * 100.0,
                    p.loss_difference() * 100.0,
                    p.refs_emitted
                );
            }
            let csv = write_csv(
                "target_utilization,utilization,loss_with_refs,loss_without_refs,refs_emitted",
                points.iter().map(|p| {
                    format!(
                        "{},{},{},{},{}",
                        p.target_utilization,
                        p.utilization,
                        p.loss_with_refs,
                        p.loss_without_refs,
                        p.refs_emitted
                    )
                }),
            );
            ctx.out.write("scenario_loss_sweep.csv", &csv)?;
            Ok(())
        },
    );

    reg.register(
        "fattree",
        "S3 RLIR fat-tree demux ablation: naive vs marking vs reverse-ECMP",
        |ctx, runner| {
            emit_demux(
                "fattree: demultiplexing ablation (k = 4)",
                &demux_ablation(&ctx.scale, runner),
                "scenario_fattree.csv",
                &ctx.out,
            )
        },
    );

    reg.register(
        "asymmetric",
        "NEW: round-trip measurement under asymmetric routing (per-direction RLI attribution)",
        |ctx, runner| {
            let cfg = AsymmetricConfig::paper(ctx.scale.base_seed, ctx.scale.accuracy_duration);
            let points = run_asymmetric(&cfg, runner);
            println!("== asymmetric: forward fixed at 50%, reverse path swept ==");
            println!(
                "  {:>8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>11} {:>7}",
                "rev tgt", "fwd", "rev", "fwd err", "rev err", "rtt err", "attribution", "flows"
            );
            for p in &points {
                println!(
                    "  {:>7.0}% {:>7.1}% {:>7.1}% {:>8.2}% {:>8.2}% {:>8.2}% {:>10.1}% {:>7}",
                    p.target_reverse_utilization * 100.0,
                    p.forward_utilization * 100.0,
                    p.reverse_utilization * 100.0,
                    p.forward_median_error * 100.0,
                    p.reverse_median_error * 100.0,
                    p.rtt_median_error * 100.0,
                    p.attribution_accuracy * 100.0,
                    p.paired_flows
                );
            }
            let csv = write_csv(
                "target_reverse_utilization,forward_utilization,reverse_utilization,forward_median_error,reverse_median_error,rtt_median_error,attribution_accuracy,paired_flows",
                points.iter().map(|p| {
                    format!(
                        "{},{},{},{},{},{},{},{}",
                        p.target_reverse_utilization,
                        p.forward_utilization,
                        p.reverse_utilization,
                        p.forward_median_error,
                        p.reverse_median_error,
                        p.rtt_median_error,
                        p.attribution_accuracy,
                        p.paired_flows
                    )
                }),
            );
            ctx.out.write("scenario_asymmetric.csv", &csv)?;
            let labeled: Vec<(String, &[rlir_rli::EpochSnapshot])> = points
                .iter()
                .flat_map(|p| {
                    let tag = (p.target_reverse_utilization * 100.0).round() as u64;
                    [
                        (format!("fwd@{tag}"), p.forward_epochs.as_slice()),
                        (format!("rev@{tag}"), p.reverse_epochs.as_slice()),
                    ]
                })
                .collect();
            write_epoch_companion(&ctx.out, "scenario_asymmetric.csv", &labeled)?;
            Ok(())
        },
    );

    reg.register(
        "incast",
        "NEW: synchronized burst fan-in on the fat-tree (per-flow accuracy vs fan-in)",
        |ctx, runner| {
            let mut cfg = IncastConfig::paper(ctx.scale.base_seed, ctx.scale.fattree_duration);
            cfg.base.shards = ctx.scale.shards;
            let points = run_incast(&cfg, runner);
            println!("== incast: synchronized 20%-duty bursts into one destination ToR ==");
            println!(
                "  {:>7} {:>13} {:>13} {:>14} {:>10} {:>10}",
                "fan-in", "seg1 med err", "seg2 med err", "seg2 delay µs", "demux", "delivered"
            );
            for p in &points {
                println!(
                    "  {:>7} {:>12.2}% {:>12.2}% {:>14.1} {:>9.1}% {:>10}",
                    p.fan_in,
                    p.seg1_median_error * 100.0,
                    p.seg2_median_error * 100.0,
                    p.seg2_true_delay_us,
                    p.demux_accuracy * 100.0,
                    p.measured_delivered
                );
            }
            let csv = write_csv(
                "fan_in,seg1_median_error,seg2_median_error,seg2_true_delay_us,demux_accuracy,measured_delivered,refs_emitted",
                points.iter().map(|p| {
                    format!(
                        "{},{},{},{},{},{},{}",
                        p.fan_in,
                        p.seg1_median_error,
                        p.seg2_median_error,
                        p.seg2_true_delay_us,
                        p.demux_accuracy,
                        p.measured_delivered,
                        p.refs_emitted
                    )
                }),
            );
            ctx.out.write("scenario_incast.csv", &csv)?;
            let labeled: Vec<(String, &[rlir_rli::EpochSnapshot])> = points
                .iter()
                .map(|p| (format!("fanin{}", p.fan_in), p.seg2_epochs.as_slice()))
                .collect();
            write_epoch_companion(&ctx.out, "scenario_incast.csv", &labeled)?;
            Ok(())
        },
    );

    reg.register(
        "localize",
        "NEW: fabric-wide anomaly localization (random core/edge victim per point, accuracy + onset vs background load)",
        |ctx, runner| {
            let mut cfg = LocalizeConfig::paper(ctx.scale.base_seed, ctx.scale.fattree_duration);
            cfg.base.shards = ctx.scale.shards;
            let report = run_localize_full(&cfg, runner);
            println!(
                "== localize: {} fault at one random core/edge switch per trial ==",
                cfg.extra_processing
            );
            println!(
                "  {:>11} {:>7} {:>8} {:>8} {:>9} {:>13} {:>7} {:>13}",
                "background",
                "trials",
                "flagged",
                "correct",
                "accuracy",
                "mean severity",
                "onsets",
                "mean onset ms"
            );
            for p in &report.points {
                println!(
                    "  {:>10.0}% {:>7} {:>8} {:>8} {:>8.1}% {:>13.1} {:>7} {:>13.2}",
                    p.utilization * 100.0,
                    p.trials,
                    p.flagged,
                    p.correct,
                    p.accuracy * 100.0,
                    p.mean_severity,
                    p.onsets,
                    p.mean_onset_ns / 1e6
                );
            }
            let csv = write_csv(
                "utilization,trials,flagged,correct,accuracy,mean_severity,onsets,mean_onset_ns",
                report.points.iter().map(|p| {
                    format!(
                        "{},{},{},{},{},{},{},{}",
                        p.utilization,
                        p.trials,
                        p.flagged,
                        p.correct,
                        p.accuracy,
                        p.mean_severity,
                        p.onsets,
                        p.mean_onset_ns
                    )
                }),
            );
            ctx.out.write("scenario_localize.csv", &csv)?;
            // The per-epoch victim time-series of every trial — the
            // "when did it start" view behind the onset column.
            let labeled: Vec<(String, &[rlir_rli::EpochSnapshot])> = report
                .trials
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let tag = (t.utilization * 100.0).round() as u64;
                    (
                        format!("u{tag}/t{i}/{}", t.victim),
                        t.victim_epochs.as_slice(),
                    )
                })
                .collect();
            write_epoch_companion(&ctx.out, "scenario_localize.csv", &labeled)?;
            Ok(())
        },
    );

    reg.register(
        "drop_aware",
        "NEW: live taps on a loss-heavy path — estimator bias when metered packets die downstream",
        |ctx, runner| {
            let cfg = DropAwareConfig::paper(ctx.scale.base_seed, ctx.scale.accuracy_duration);
            let points = run_drop_aware(&cfg, runner);
            println!("== drop_aware: live vs delivered-gated taps at the bottleneck's feeder ==");
            println!(
                "  {:>7} {:>9} {:>9} {:>9} {:>8} {:>12} {:>12} {:>13} {:>9}",
                "load",
                "offered",
                "ds loss",
                "us loss",
                "metered",
                "died after",
                "live err",
                "survivor bias",
                "pending"
            );
            for p in &points {
                println!(
                    "  {:>6.0}% {:>9} {:>8.2}% {:>8.2}% {:>8} {:>12} {:>11.2}% {:>12.2}% {:>9}",
                    p.offered_load * 100.0,
                    p.offered,
                    p.downstream_loss * 100.0,
                    p.upstream_loss * 100.0,
                    p.live_metered,
                    p.dropped_after_metering,
                    p.live_rel_err * 100.0,
                    p.survivor_bias * 100.0,
                    p.peak_pending
                );
            }
            let csv = write_csv(
                "offered_load,offered,downstream_loss,upstream_loss,live_metered,dropped_after_metering,live_est_mean_ns,live_true_mean_ns,delivered_est_mean_ns,delivered_true_mean_ns,survivor_bias,live_rel_err,peak_pending",
                points.iter().map(|p| {
                    format!(
                        "{},{},{},{},{},{},{},{},{},{},{},{},{}",
                        p.offered_load,
                        p.offered,
                        p.downstream_loss,
                        p.upstream_loss,
                        p.live_metered,
                        p.dropped_after_metering,
                        p.live_est_mean_ns,
                        p.live_true_mean_ns,
                        p.delivered_est_mean_ns,
                        p.delivered_true_mean_ns,
                        p.survivor_bias,
                        p.live_rel_err,
                        p.peak_pending
                    )
                }),
            );
            ctx.out.write("scenario_drop_aware.csv", &csv)?;
            let labeled: Vec<(String, &[rlir_rli::EpochSnapshot])> = points
                .iter()
                .map(|p| {
                    let tag = (p.offered_load * 100.0).round() as u64;
                    (format!("load{tag}"), p.epochs.as_slice())
                })
                .collect();
            write_epoch_companion(&ctx.out, "scenario_drop_aware.csv", &labeled)?;
            Ok(())
        },
    );

    reg.register(
        "replay",
        "NEW: streaming pcap trace replay (--trace <file>, else generated) vs two-capture-point external ground truth",
        |ctx, runner| {
            let mut cfg = ReplayConfig::paper(ctx.scale.base_seed, ctx.scale.accuracy_duration);
            cfg.trace_path = ctx.trace.clone();
            cfg.lenient = ctx.lenient;
            if let Some(spec) = &ctx.entry_map {
                cfg.entry_spec = spec.clone();
            }
            let o = run_replay(&cfg, runner);
            println!(
                "== replay: {} streamed through the tandem ({} ingest) ==",
                match &cfg.trace_path {
                    Some(p) => p.display().to_string(),
                    None => "generated capture".to_string(),
                },
                cfg.entry_spec
            );
            println!(
                "  records {} replayed {} (late {}) refs {} delivered {} peak ingest buffer {}",
                o.records_read,
                o.replayed,
                o.late_dropped,
                o.refs_emitted,
                o.delivered,
                o.source_peak_buffered
            );
            if o.capture_mean_ns.is_nan() {
                println!(
                    "  capture pair: matched {} expired {}, no regular packet among them (an entry past S0 bypasses the pair's first point)\n  RLI estimate {:.1} µs — no capture-pair truth to score it against",
                    o.capture_matched, o.capture_expired, o.rli_est_mean_ns / 1e3
                );
            } else {
                println!(
                    "  capture pair: matched {} expired {} mean {:.1} µs (vs engine truth err {:.3}%)",
                    o.capture_matched,
                    o.capture_expired,
                    o.capture_mean_ns / 1e3,
                    o.capture_vs_truth_rel_err * 100.0
                );
                println!(
                    "  RLI estimate {:.1} µs — {:.2}% off the capture-pair truth",
                    o.rli_est_mean_ns / 1e3,
                    o.rli_vs_capture_rel_err * 100.0
                );
            }
            match o.ingest_identical {
                Some(true) => println!("  streamed ingest byte-identical to Vec ingest: OK"),
                Some(false) => println!("  streamed ingest DIVERGED from Vec ingest"),
                None => {}
            }
            let csv = write_csv(
                "records_read,replayed,late_dropped,source_peak_buffered,refs_emitted,delivered,capture_matched,capture_expired,capture_mean_ns,truth_mean_ns,capture_vs_truth_rel_err,rli_est_mean_ns,rli_vs_capture_rel_err,ingest_identical",
                std::iter::once(format!(
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                    o.records_read,
                    o.replayed,
                    o.late_dropped,
                    o.source_peak_buffered,
                    o.refs_emitted,
                    o.delivered,
                    o.capture_matched,
                    o.capture_expired,
                    o.capture_mean_ns,
                    o.truth_mean_ns,
                    o.capture_vs_truth_rel_err,
                    o.rli_est_mean_ns,
                    o.rli_vs_capture_rel_err,
                    o.ingest_identical.map_or(-1i64, i64::from)
                )),
            );
            ctx.out.write("scenario_replay.csv", &csv)?;
            let labeled: Vec<(String, &[rlir_rli::EpochSnapshot])> =
                vec![("replay".to_string(), o.epochs.as_slice())];
            write_epoch_companion(&ctx.out, "scenario_replay.csv", &labeled)?;
            if o.ingest_identical == Some(false) {
                return Err(std::io::Error::other(
                    "streamed ingest diverged from the Vec-ingest oracle",
                ));
            }
            Ok(())
        },
    );

    reg.register(
        "faults",
        "NEW: closed-loop robustness sweep — mid-run switch degradation, online detection, time-to-localize + false positives",
        |ctx, runner| {
            let mut cfg = FaultsConfig::paper(ctx.scale.base_seed, ctx.scale.fattree_duration);
            cfg.base.shards = ctx.scale.shards;
            let points = run_faults(&cfg, runner);
            println!(
                "== faults: {} degradation switching on mid-run, detected online ==",
                cfg.extra_processing
            );
            println!(
                "  {:>11} {:>9} {:>7} {:>9} {:>8} {:>7} {:>12}",
                "background", "onset ms", "trials", "detected", "correct", "false+", "mean TTL ms"
            );
            for p in &points {
                println!(
                    "  {:>10.0}% {:>9.1} {:>7} {:>9} {:>8} {:>7} {:>12.2}",
                    p.utilization * 100.0,
                    p.onset_ns as f64 / 1e6,
                    p.trials,
                    p.detected,
                    p.correct,
                    p.false_positives,
                    p.mean_ttl_ns / 1e6
                );
            }
            let csv = write_csv(
                "utilization,onset_ns,trials,detected,correct,false_positives,mean_ttl_ns",
                points.iter().map(|p| {
                    format!(
                        "{},{},{},{},{},{},{}",
                        p.utilization,
                        p.onset_ns,
                        p.trials,
                        p.detected,
                        p.correct,
                        p.false_positives,
                        p.mean_ttl_ns
                    )
                }),
            );
            ctx.out.write("scenario_faults.csv", &csv)?;
            Ok(())
        },
    );

    reg.register(
        "chaos",
        "NEW: seeded chaos campaigns — flaps, gray loss, tap crash/recovery, tenant cross-talk probe, hostile-ingest leg",
        |ctx, _runner| {
            let seed = ctx.chaos_seed.unwrap_or(ctx.scale.base_seed);
            let mut cfg = ChaosCampaignConfig::paper(seed, ctx.scale.fattree_duration);
            cfg.base.tenant_split = ctx.tenants;
            let rep = run_chaos(&cfg);
            println!(
                "== chaos: {} campaign(s) from seed {seed} on the k={} fabric ==",
                rep.campaigns.len(),
                cfg.base.k
            );
            println!(
                "  {:>4} {:>20} {:>7} {:>9} {:>7} {:>12} {:>8} {:>9} {:>10}",
                "#", "seed", "events", "outages", "recov", "lost obs", "drops", "detected", "TTL ms"
            );
            for c in &rep.campaigns {
                println!(
                    "  {:>4} {:>20} {:>7} {:>9} {:>7} {:>12} {:>8} {:>9} {:>10}",
                    c.campaign,
                    c.seed,
                    c.events,
                    c.tap_outages,
                    c.recovered_epochs,
                    c.lost_window_obs,
                    c.fault_drops,
                    if c.false_positive {
                        "FALSE+"
                    } else if c.detected {
                        "yes"
                    } else {
                        "no"
                    },
                    c.ttl_ns
                        .map_or("-".to_string(), |t| format!("{:.2}", t as f64 / 1e6)),
                );
            }
            println!(
                "  baseline false positive: {}   tenant cross-talk: {} ns   ingest: {}/{} records ({} skipped, {} resyncs, {} clamped)",
                rep.baseline_false_positive,
                rep.cross_talk_max_abs_ns,
                rep.ingest.emitted,
                rep.ingest.records,
                rep.ingest.skipped_records,
                rep.ingest.resyncs,
                rep.ingest.clamped_regressions,
            );
            let csv = write_csv(
                "campaign,seed,events,first_onset_ns,tap_outages,recovered_epochs,lost_window_obs,fault_drops,shed,peak_pending_total,detected,false_positive,ttl_ns",
                rep.campaigns.iter().map(|c| {
                    format!(
                        "{},{},{},{},{},{},{},{},{},{},{},{},{}",
                        c.campaign,
                        c.seed,
                        c.events,
                        c.first_onset_ns,
                        c.tap_outages,
                        c.recovered_epochs,
                        c.lost_window_obs,
                        c.fault_drops,
                        c.shed,
                        c.peak_pending_total,
                        c.detected,
                        c.false_positive,
                        c.ttl_ns.map_or(-1i64, |t| t as i64)
                    )
                }),
            );
            ctx.out.write("scenario_chaos.csv", &csv)?;
            if rep.baseline_false_positive {
                return Err(std::io::Error::other(
                    "detector raised a false positive on the fault-free baseline",
                ));
            }
            if rep.cross_talk_max_abs_ns != 0.0 {
                return Err(std::io::Error::other(format!(
                    "tenant isolation violated: cross-talk {} ns",
                    rep.cross_talk_max_abs_ns
                )));
            }
            if !rep.ingest.strict_matches_lenient_on_clean {
                return Err(std::io::Error::other(
                    "lenient ingest diverged from strict on a clean capture",
                ));
            }
            Ok(())
        },
    );

    reg.register(
        "plane_scale",
        "NEW: fleet-scale plane — every (switch, port) of the k=8 fat-tree tapped under one plane-wide budget",
        |ctx, _runner| {
            let base = PlaneScaleConfig::fleet(ctx.scale.base_seed, ctx.scale.fattree_duration);
            let all = base.all_ports();
            println!(
                "== plane_scale: one budget, 1 -> {all} taps on the k={} fat-tree ==",
                base.base.k
            );
            println!(
                "  {:>6} {:>9} {:>10} {:>8} {:>8} {:>13} {:>12}",
                "taps", "metered", "estimated", "shed", "late", "peak pending", "state bytes"
            );
            // Deterministic series (no wall-clock — the ledger's fleet_e2e
            // times the all-ports run): tap counts from one port to all
            // of them, stride-spread over the fabric.
            let counts = [1, all / 32, all / 8, all / 2, all];
            let mut rows = Vec::new();
            for &taps in &counts {
                let mut cfg = base.clone();
                cfg.taps = Some(taps);
                let out = run_plane_scale(&cfg);
                println!(
                    "  {:>6} {:>9} {:>10} {:>8} {:>8} {:>13} {:>12}",
                    out.taps,
                    out.metered,
                    out.estimated,
                    out.shed,
                    out.late,
                    out.peak_pending_total,
                    out.peak_state_bytes
                );
                rows.push(out);
            }
            let csv = write_csv(
                "taps,metered,estimated,refs_accepted,shed,late,peak_pending,peak_pending_total,peak_state_bytes,report_digest",
                rows.iter().map(|o| {
                    format!(
                        "{},{},{},{},{},{},{},{},{},{}",
                        o.taps,
                        o.metered,
                        o.estimated,
                        o.refs_accepted,
                        o.shed,
                        o.late,
                        o.peak_pending,
                        o.peak_pending_total,
                        o.peak_state_bytes,
                        o.report_digest
                    )
                }),
            );
            ctx.out.write("scenario_plane_scale.csv", &csv)?;
            Ok(())
        },
    );

    reg.register(
        "interference",
        "Fig. 5 with seed averaging and both policies (the full figure)",
        |ctx, runner| {
            let points = fig5(&ctx.scale, runner);
            emit_fig5(
                &format!(
                    "interference: Fig. 5, both policies, {} seed(s)",
                    ctx.scale.seeds
                ),
                &points,
                &fig5_shape_checks(&points),
                "scenario_interference.csv",
                &ctx.out,
            )
        },
    );

    reg.register(
        "interp",
        "A2: interpolation-estimator ablation at 93% utilization",
        |ctx, runner| {
            emit_interp(
                "interp: estimator ablation",
                &interp_ablation(&ctx.scale, runner),
                "scenario_interp.csv",
                &ctx.out,
            )
        },
    );

    reg.register(
        "sync",
        "A4: clock-synchronisation-error sensitivity at 93% utilization",
        |ctx, runner| {
            emit_sync(
                "sync: clock sensitivity",
                &sync_ablation(&ctx.scale, runner),
                "scenario_sync.csv",
                &ctx.out,
            )
        },
    );

    reg.register(
        "quantiles",
        "A7: per-flow p90 tail-latency accuracy at 93% utilization",
        |ctx, runner| {
            emit_quantiles(
                "quantiles: per-flow p90 accuracy",
                &quantile_accuracy(&ctx.scale, runner),
                "scenario_quantiles.csv",
                &ctx.out,
            )
        },
    );

    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_exec::SweepRunner;

    #[test]
    fn registry_resolves_the_required_scenarios() {
        let reg = build_registry();
        let names = reg.names();
        assert!(reg.len() >= 5, "only {} scenarios registered", reg.len());
        for required in [
            "two_hop",
            "loss_sweep",
            "fattree",
            "asymmetric",
            "incast",
            "localize",
            "drop_aware",
            "faults",
            "replay",
            "chaos",
        ] {
            assert!(names.contains(&required), "missing scenario {required}");
        }
    }

    #[test]
    fn every_entry_carries_a_description_for_list() {
        // `experiments list` prints each scenario's one-liner next to its
        // name; an empty summary would render as a bare key.
        for e in build_registry().entries() {
            assert!(
                e.summary().len() > 20,
                "scenario {} has no useful description",
                e.name()
            );
        }
    }

    #[test]
    fn loss_sweep_scenario_runs_end_to_end() {
        let dir = std::env::temp_dir().join("rlir-registry-smoke");
        let ctx = RunContext {
            scale: Scale {
                accuracy_duration: rlir_net::time::SimDuration::from_millis(10),
                interference_duration: rlir_net::time::SimDuration::from_millis(10),
                fattree_duration: rlir_net::time::SimDuration::from_millis(10),
                seeds: 1,
                base_seed: 42,
                shards: 1,
            },
            out: OutputDir::at(&dir).unwrap(),
            trace: None,
            entry_map: None,
            tenants: None,
            chaos_seed: None,
            lenient: false,
        };
        build_registry()
            .run("loss_sweep", &ctx, &SweepRunner::new(2))
            .unwrap();
        assert!(dir.join("scenario_loss_sweep.csv").exists());
    }
}
