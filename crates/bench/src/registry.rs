//! The scenarios behind `experiments list` / `experiments run <name>` /
//! `experiments all`: one static list, in `list` order.
//!
//! Each entry runs one harness at the ambient [`Scale`] on the caller's
//! [`SweepRunner`] and hands its result [`Table`] to [`Table::write`],
//! which prints it and persists it as `scenario_<name>*.csv` — so adding a
//! workload to the binary is one more entry, not a new subcommand.

use crate::figures::{
    baselines_comparison, curve_table, demux_ablation, fig4a_shape_checks, fig4ab, fig4c,
    fig4c_shape_checks, fig5, fig5_shape_checks, interference_base, interp_ablation,
    placement_table, print_shape_checks, quantile_accuracy, sync_ablation, AccuracyCurve,
};
use crate::output::OutputDir;
use crate::scale::Scale;
use crate::table::{row, Table};
use rlir::experiment::{
    run_asymmetric, run_chaos, run_drop_aware, run_faults, run_incast, run_localize,
    run_loss_sweep_on, run_plane_scale, run_replay, AsymmetricConfig, ChaosCampaignConfig,
    DropAwareConfig, FaultsConfig, IncastConfig, LocalizeConfig, LossSweepConfig, PlaneScaleConfig,
    ReplayConfig,
};
use rlir_exec::SweepRunner;
use rlir_rli::PolicyKind;
use std::io;

/// Everything a scenario needs besides the runner.
pub struct RunContext {
    /// Scale knobs (durations, seeds, threads, shards).
    pub scale: Scale,
    /// Where CSV series land.
    pub out: OutputDir,
    /// Capture file for the `replay` scenario (`--trace`); `None` replays
    /// a generated capture.
    pub trace: Option<std::path::PathBuf>,
    /// Entry-node demux spec for `replay` (`--entry-map`), already
    /// validated by the CLI.
    pub entry_map: Option<String>,
    /// Tenant weight split for the `chaos` fabric's plane (`--tenants
    /// w1,w2`), already validated by the CLI: segment-1 taps become tenant
    /// 0 with weight `w1`, segment-2 taps tenant 1 with weight `w2`.
    pub tenants: Option<(u64, u64)>,
    /// Run `replay`'s pcap ingest in lenient skip-and-count mode
    /// (`--lenient`).
    pub lenient: bool,
}

/// A runnable scenario.
pub struct Scenario {
    /// The key `run <name>` resolves.
    pub name: &'static str,
    /// One-line description shown by `list`.
    pub summary: &'static str,
    /// Run it, print its table and write its CSV files.
    pub run: fn(&RunContext, &SweepRunner) -> io::Result<()>,
}

/// The scenario `name`, or an error naming every known one.
pub fn scenario(name: &str) -> Result<&'static Scenario, String> {
    SCENARIOS.iter().find(|s| s.name == name).ok_or_else(|| {
        let known: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        format!("unknown scenario {name:?}; known: {}", known.join(", "))
    })
}

/// What `experiments list` prints: every scenario with its summary, in
/// [`SCENARIOS`] order.
pub fn list() -> String {
    let mut text = format!("registered scenarios ({}):\n", SCENARIOS.len());
    for s in SCENARIOS {
        text += &format!("  {:<14} {}\n", s.name, s.summary);
    }
    text + "\nrun one with: experiments run <name> [--threads N]; all of them: experiments all"
}

/// One `scenario_<stem>_<label>.csv` per accuracy curve: its downsampled
/// relative-error CDF.
fn write_cdfs(out: &OutputDir, stem: &str, curves: &[AccuracyCurve]) -> io::Result<()> {
    for c in curves {
        let label = c.label.to_lowercase().replace([',', ' ', '%'], "");
        let csv = format!("relative_error,cdf\n{}", c.cdf_csv());
        out.write(&format!("scenario_{stem}_{label}.csv"), &csv)?;
    }
    Ok(())
}

/// Every scenario, in `list` (and `all`) order.
pub static SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "two_hop",
        summary: "Fig. 4(a)/(b) accuracy grid: {Adaptive, Static} x {67%, 93%} on the two-hop tandem, mean- and std-error CDFs",
        run: |ctx, runner| {
            let (mean, std) = fig4ab(&ctx.scale, runner);
            write_cdfs(&ctx.out, "two_hop_mean", &mean)?;
            write_cdfs(&ctx.out, "two_hop_std", &std)?;
            let epochs = mean.iter().map(|c| (c.label.clone(), &c.epochs));
            curve_table(&mean)
                .with_epochs(epochs)
                .write(&ctx.out, "two_hop")?;
            print_shape_checks(&fig4a_shape_checks(&mean));
            println!("  per-flow std-dev error, same runs:");
            curve_table(&std).print();
            Ok(())
        },
    },
    Scenario {
        name: "bursty",
        summary: "Fig. 4(c): mean-error CDFs, bursty vs random cross traffic at 34% and 67%",
        run: |ctx, runner| {
            let curves = fig4c(&ctx.scale, runner);
            curve_table(&curves).print();
            print_shape_checks(&fig4c_shape_checks(&curves));
            write_cdfs(&ctx.out, "bursty", &curves)
        },
    },
    Scenario {
        name: "loss_sweep",
        summary: "Fig. 5 interference sweep: loss-rate difference caused by reference packets",
        run: |ctx, runner| {
            let (base, regular, cross) = interference_base(
                PolicyKind::Static { n: 100 },
                ctx.scale.base_seed,
                ctx.scale.interference_duration,
            );
            let cfg = LossSweepConfig {
                base,
                targets: LossSweepConfig::paper_targets(),
            };
            let points = run_loss_sweep_on(&cfg, &regular, &cross, runner);
            Table::new(
                "target_utilization,utilization,loss_with_refs,loss_without_refs,refs_emitted",
                points.iter().map(|p| row![
                    p.target_utilization,
                    p.utilization,
                    p.loss_with_refs,
                    p.loss_without_refs,
                    p.refs_emitted,
                ]),
            )
            .write(&ctx.out, "loss_sweep")
        },
    },
    Scenario {
        name: "fattree",
        summary: "S3 RLIR fat-tree demux ablation: naive vs marking vs reverse-ECMP",
        run: |ctx, runner| demux_ablation(&ctx.scale, runner).write(&ctx.out, "fattree"),
    },
    Scenario {
        name: "asymmetric",
        summary: "NEW: round-trip measurement under asymmetric routing (per-direction RLI attribution)",
        run: |ctx, runner| {
            let cfg = AsymmetricConfig::paper(ctx.scale.base_seed, ctx.scale.accuracy_duration);
            let points = run_asymmetric(&cfg, runner);
            let epochs = points.iter().flat_map(|p| {
                let tag = (p.target_reverse_utilization * 100.0).round() as u64;
                [
                    (format!("fwd@{tag}"), &p.forward_epochs),
                    (format!("rev@{tag}"), &p.reverse_epochs),
                ]
            });
            Table::new(
                "target_reverse_utilization,forward_utilization,reverse_utilization,forward_median_error,reverse_median_error,rtt_median_error,attribution_accuracy,paired_flows",
                points.iter().map(|p| row![
                    p.target_reverse_utilization,
                    p.forward_utilization,
                    p.reverse_utilization,
                    p.forward_median_error,
                    p.reverse_median_error,
                    p.rtt_median_error,
                    p.attribution_accuracy,
                    p.paired_flows,
                ]),
            )
            .with_epochs(epochs)
            .write(&ctx.out, "asymmetric")
        },
    },
    Scenario {
        name: "incast",
        summary: "NEW: synchronized burst fan-in on the fat-tree (per-flow accuracy vs fan-in)",
        run: |ctx, runner| {
            let mut cfg = IncastConfig::paper(ctx.scale.base_seed, ctx.scale.fattree_duration);
            cfg.base.shards = ctx.scale.shards;
            let points = run_incast(&cfg, runner);
            let epochs = points
                .iter()
                .map(|p| (format!("fanin{}", p.fan_in), &p.seg2_epochs));
            Table::new(
                "fan_in,seg1_median_error,seg2_median_error,seg2_true_delay_us,demux_accuracy,measured_delivered,refs_emitted",
                points.iter().map(|p| row![
                    p.fan_in,
                    p.seg1_median_error,
                    p.seg2_median_error,
                    p.seg2_true_delay_us,
                    p.demux_accuracy,
                    p.measured_delivered,
                    p.refs_emitted,
                ]),
            )
            .with_epochs(epochs)
            .write(&ctx.out, "incast")
        },
    },
    Scenario {
        name: "localize",
        summary: "NEW: fabric-wide anomaly localization (random core/edge victim per point, accuracy + onset vs background load)",
        run: |ctx, runner| {
            let mut cfg = LocalizeConfig::paper(ctx.scale.base_seed, ctx.scale.fattree_duration);
            cfg.base.shards = ctx.scale.shards;
            let report = run_localize(&cfg, runner);
            // The per-epoch victim time-series of every trial — the "when
            // did it start" view behind the onset column.
            let epochs = report.trials.iter().enumerate().map(|(i, t)| {
                let tag = (t.utilization * 100.0).round() as u64;
                let label = format!("u{tag}/t{i}/{}", t.victim);
                (label, &t.victim_epochs)
            });
            Table::new(
                "utilization,trials,flagged,correct,accuracy,mean_severity,onsets,mean_onset_ns",
                report.points.iter().map(|p| row![
                    p.utilization,
                    p.trials,
                    p.flagged,
                    p.correct,
                    p.accuracy,
                    p.mean_severity,
                    p.onsets,
                    p.mean_onset_ns,
                ]),
            )
            .with_epochs(epochs)
            .write(&ctx.out, "localize")
        },
    },
    Scenario {
        name: "drop_aware",
        summary: "NEW: live taps on a loss-heavy path — estimator bias when metered packets die downstream",
        run: |ctx, runner| {
            let cfg = DropAwareConfig::paper(ctx.scale.base_seed, ctx.scale.accuracy_duration);
            let points = run_drop_aware(&cfg, runner);
            let epochs = points.iter().map(|p| {
                let tag = (p.offered_load * 100.0).round() as u64;
                (format!("load{tag}"), &p.epochs)
            });
            Table::new(
                "offered_load,offered,downstream_loss,upstream_loss,live_metered,dropped_after_metering,live_est_mean_ns,live_true_mean_ns,delivered_est_mean_ns,delivered_true_mean_ns,survivor_bias,live_rel_err,peak_pending",
                points.iter().map(|p| row![
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
                    p.peak_pending,
                ]),
            )
            .with_epochs(epochs)
            .write(&ctx.out, "drop_aware")
        },
    },
    Scenario {
        name: "replay",
        summary: "NEW: streaming pcap trace replay (--trace <file>, else generated) vs two-capture-point external ground truth",
        run: |ctx, _| {
            let mut cfg = ReplayConfig::paper(ctx.scale.base_seed, ctx.scale.accuracy_duration);
            cfg.trace_path = ctx.trace.clone();
            cfg.lenient = ctx.lenient;
            if let Some(spec) = &ctx.entry_map {
                cfg.entry_spec = spec.clone();
            }
            let o = run_replay(&cfg);
            // `capture_mean_ns` is NaN when no regular packet crossed the
            // capture pair (an entry past S0 bypasses its first point);
            // `ingest_identical` is -1 when no Vec-ingest oracle ran.
            Table::new(
                "records_read,replayed,late_dropped,source_peak_buffered,refs_emitted,delivered,capture_matched,capture_expired,capture_mean_ns,truth_mean_ns,capture_vs_truth_rel_err,rli_est_mean_ns,rli_vs_capture_rel_err,ingest_identical",
                [row![
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
                    o.ingest_identical.map_or(-1i64, i64::from),
                ]],
            )
            .with_epochs([("replay".to_string(), &o.epochs)])
            .write(&ctx.out, "replay")?;
            if o.ingest_identical == Some(false) {
                return Err(io::Error::other(
                    "streamed ingest diverged from the Vec-ingest oracle",
                ));
            }
            match o.ingest_error {
                Some(e) => Err(io::Error::other(format!(
                    "capture ingest stopped after {} records: {e}",
                    o.records_read
                ))),
                None => Ok(()),
            }
        },
    },
    Scenario {
        name: "faults",
        summary: "NEW: closed-loop robustness sweep — mid-run switch degradation, online detection, time-to-localize + false positives",
        run: |ctx, runner| {
            let mut cfg = FaultsConfig::paper(ctx.scale.base_seed, ctx.scale.fattree_duration);
            cfg.base.shards = ctx.scale.shards;
            let points = run_faults(&cfg, runner);
            Table::new(
                "utilization,onset_ns,trials,detected,correct,false_positives,mean_ttl_ns",
                points.iter().map(|p| row![
                    p.utilization,
                    p.onset_ns,
                    p.trials,
                    p.detected,
                    p.correct,
                    p.false_positives,
                    p.mean_ttl_ns,
                ]),
            )
            .write(&ctx.out, "faults")
        },
    },
    Scenario {
        name: "chaos",
        summary: "NEW: seeded chaos campaigns — flaps, gray loss, tap crash/recovery, tenant cross-talk probe, hostile-ingest leg",
        run: |ctx, _| {
            let mut cfg = ChaosCampaignConfig::paper(ctx.scale.base_seed, ctx.scale.fattree_duration);
            cfg.base.tenant_split = ctx.tenants;
            let rep = run_chaos(&cfg);
            // `ttl_ns` is -1 for a campaign with no detection.
            Table::new(
                "campaign,seed,events,first_onset_ns,tap_outages,recovered_epochs,lost_window_obs,fault_drops,shed,peak_pending_total,detected,false_positive,ttl_ns",
                rep.campaigns.iter().map(|c| row![
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
                    c.ttl_ns.map_or(-1i64, |t| t as i64),
                ]),
            )
            .write(&ctx.out, "chaos")?;
            let i = &rep.ingest;
            Table::new(
                "baseline_false_positive,cross_talk_max_abs_ns,ingest_emitted,ingest_records,skipped_records,resyncs,clamped_regressions",
                [row![
                    rep.baseline_false_positive,
                    rep.cross_talk_max_abs_ns,
                    i.emitted,
                    i.records,
                    i.skipped_records,
                    i.resyncs,
                    i.clamped_regressions,
                ]],
            )
            .print();
            if rep.baseline_false_positive {
                return Err(io::Error::other(
                    "detector raised a false positive on the fault-free baseline",
                ));
            }
            if rep.cross_talk_max_abs_ns != 0.0 {
                return Err(io::Error::other(format!(
                    "tenant isolation violated: cross-talk {} ns",
                    rep.cross_talk_max_abs_ns
                )));
            }
            if !i.strict_matches_lenient_on_clean {
                return Err(io::Error::other(
                    "lenient ingest diverged from strict on a clean capture",
                ));
            }
            Ok(())
        },
    },
    Scenario {
        name: "plane_scale",
        summary: "NEW: fleet-scale plane — every (switch, port) of the k=8 fat-tree tapped under one plane-wide budget",
        run: |ctx, _| {
            let base = PlaneScaleConfig::fleet(ctx.scale.base_seed, ctx.scale.fattree_duration);
            let all = base.all_ports();
            // Deterministic series (no wall-clock — the ledger's fleet_e2e
            // times the all-ports run): tap counts from one port to all of
            // them, stride-spread over the fabric.
            let rows = [1, all / 32, all / 8, all / 2, all].map(|taps| {
                let mut cfg = base.clone();
                cfg.taps = Some(taps);
                let o = run_plane_scale(&cfg);
                row![
                    o.taps,
                    o.metered,
                    o.estimated,
                    o.refs_accepted,
                    o.shed,
                    o.late,
                    o.peak_pending,
                    o.peak_pending_total,
                    o.peak_state_bytes,
                    o.report_digest,
                ]
            });
            Table::new(
                "taps,metered,estimated,refs_accepted,shed,late,peak_pending,peak_pending_total,peak_state_bytes,report_digest",
                rows,
            )
            .write(&ctx.out, "plane_scale")
        },
    },
    Scenario {
        name: "interference",
        summary: "Fig. 5 with seed averaging and both policies (the full figure)",
        run: |ctx, runner| {
            let points = fig5(&ctx.scale, runner);
            Table::new(
                "policy,target_utilization,utilization,loss_difference,base_loss",
                points.iter().map(|p| row![
                    p.policy.as_str(),
                    p.target,
                    p.utilization,
                    p.loss_difference,
                    p.base_loss,
                ]),
            )
            .write(&ctx.out, "interference")?;
            print_shape_checks(&fig5_shape_checks(&points));
            Ok(())
        },
    },
    Scenario {
        name: "interp",
        summary: "A2: interpolation-estimator ablation at 93% utilization",
        run: |ctx, runner| interp_ablation(&ctx.scale, runner).write(&ctx.out, "interp"),
    },
    Scenario {
        name: "sync",
        summary: "A4: clock-synchronisation-error sensitivity at 93% utilization",
        run: |ctx, runner| sync_ablation(&ctx.scale, runner).write(&ctx.out, "sync"),
    },
    Scenario {
        name: "quantiles",
        summary: "A7: per-flow p90 tail-latency accuracy at 93% utilization",
        run: |ctx, runner| quantile_accuracy(&ctx.scale, runner).write(&ctx.out, "quantiles"),
    },
    Scenario {
        name: "baselines",
        summary: "A6: RLI vs LDA vs Multiflow vs trajectory sampling on an identical 93% run",
        run: |ctx, _| baselines_comparison(&ctx.scale).write(&ctx.out, "baselines"),
    },
    Scenario {
        name: "placement",
        summary: "S3.1 partial-placement complexity table on k-ary fat-trees (closed form, no simulation)",
        run: |ctx, _| placement_table().write(&ctx.out, "placement"),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn context(dir: &std::path::Path, scale: Scale) -> RunContext {
        let out = OutputDir::at(dir).unwrap();
        RunContext {
            scale,
            out,
            trace: None,
            entry_map: None,
            tenants: None,
            lenient: false,
        }
    }

    #[test]
    fn registry_resolves_the_required_scenarios() {
        assert!(SCENARIOS.len() >= 5, "only {} scenarios", SCENARIOS.len());
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
            assert!(scenario(required).is_ok(), "missing scenario {required}");
        }
    }

    #[test]
    fn every_entry_carries_a_description_for_list() {
        // `experiments list` prints each scenario's one-liner next to its
        // name; an empty summary would render as a bare key.
        for s in SCENARIOS {
            assert!(
                s.summary.len() > 20,
                "scenario {} has no useful description",
                s.name
            );
        }
    }

    fn assert_unique_names<'a>(names: impl IntoIterator<Item = &'a str>) {
        let mut seen = std::collections::HashSet::new();
        for name in names {
            assert!(seen.insert(name), "duplicate scenario name {name:?}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate scenario name \"alpha\"")]
    fn duplicate_names_panic() {
        assert_unique_names(["alpha", "beta", "alpha"]);
    }

    /// Names are unique, `list` prints them in slice order, and `run`
    /// resolves each to its own entry.
    #[test]
    fn registers_lists_and_runs() {
        let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        assert_unique_names(names.iter().copied());
        let text = list();
        let listed: Vec<&str> = (text.lines().skip(1))
            .map_while(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(listed, names);
        for s in SCENARIOS {
            assert!(std::ptr::eq(scenario(s.name).unwrap(), s), "{}", s.name);
        }
        let dir = std::env::temp_dir().join(format!("rlir-registry-list-{}", std::process::id()));
        let ctx = context(&dir, Scale::quick());
        (scenario("placement").unwrap().run)(&ctx, &SweepRunner::single()).unwrap();
        let csv = std::fs::read_to_string(dir.join("scenario_placement.csv")).unwrap();
        assert!(csv.starts_with("k,interface_pair,"), "{csv}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_name_lists_known() {
        let err = scenario("nope").err().expect("no scenario is called nope");
        assert!(err.contains("nope") && err.contains("two_hop"), "{err}");
        assert!(err.contains("placement"), "{err}");
    }

    #[test]
    fn loss_sweep_scenario_runs_end_to_end() {
        let dir = std::env::temp_dir().join(format!("rlir-registry-smoke-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ms = rlir_net::time::SimDuration::from_millis(10);
        let scale = Scale {
            accuracy_duration: ms,
            interference_duration: ms,
            fattree_duration: ms,
            ..Scale::quick()
        };
        let ctx = context(&dir, scale);
        let cdfs = |stem: &str, labels: [&str; 4]| -> Vec<String> {
            labels
                .iter()
                .map(|l| format!("scenario_{stem}_{l}.csv"))
                .collect()
        };
        let grid = ["adaptive67", "adaptive93", "static67", "static93"];
        let mut two_hop = cdfs("two_hop_mean", grid);
        two_hop.extend(cdfs("two_hop_std", grid));
        two_hop.push("scenario_two_hop.csv".into());
        let table: [(&str, Vec<String>); 5] = [
            ("loss_sweep", vec!["scenario_loss_sweep.csv".into()]),
            (
                "bursty",
                cdfs("bursty", ["bursty34", "bursty67", "random34", "random67"]),
            ),
            ("placement", vec!["scenario_placement.csv".into()]),
            ("baselines", vec!["scenario_baselines.csv".into()]),
            ("two_hop", two_hop),
        ];
        for (name, files) in table {
            (scenario(name).unwrap().run)(&ctx, &SweepRunner::new(2)).unwrap();
            for f in files {
                let body = std::fs::read_to_string(dir.join(&f))
                    .unwrap_or_else(|e| panic!("{name} did not write {f}: {e}"));
                assert!(body.lines().count() > 1, "{name}: {f} has no rows");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
