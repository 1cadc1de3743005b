//! Regenerate every table and figure of the paper's evaluation, and run
//! registered scenarios by name.
//!
//! ```text
//! experiments <command> [--threads N] [--shards N]
//!
//!   list        list the registered scenarios (for `run`)
//!   run <name>  run one registered scenario through the shared SweepRunner
//!   fig4a       Fig. 4(a): per-flow mean-error CDFs (adaptive/static × 67/93%)
//!   fig4b       Fig. 4(b): per-flow std-dev-error CDFs (same runs)
//!   fig4c       Fig. 4(c): bursty vs random cross traffic (34%, 67%)
//!   fig5        Fig. 5: reference-packet interference (loss-rate difference)
//!   placement   §3.1 partial-placement complexity table
//!   demux       A1/A3: naive vs marking vs reverse-ECMP demultiplexing
//!   interp      A2: interpolation-estimator ablation
//!   sync        A4: clock-synchronisation-error sensitivity
//!   baselines   A6: RLI vs LDA vs Multiflow on an identical run
//!   localize    A5: latency-anomaly localization demo
//!   all         every figure command above
//! ```
//!
//! `--threads N` sizes the sweep worker pool (default: `RLIR_THREADS`, else
//! available parallelism); `--shards N` runs the fat-tree scenarios
//! (`fattree`, `faults`, `incast`, `localize`, `demux`) on N pod shards
//! (default: `RLIR_SHARDS`, else 1; a value that is not a positive integer
//! exits 2 either way). Results are byte-identical for any thread or
//! shard count. Scale via
//! `RLIR_SCALE={quick,default,full}`, `RLIR_DURATION_MS`, `RLIR_SEEDS`,
//! `RLIR_SEED` (a value that does not parse, or a zero duration or seed
//! count, exits 2); output directory via `RLIR_RESULTS_DIR` (default
//! `results/`). CSV series are written per curve.

use rlir_bench::{
    baselines_comparison, build_registry, demux_ablation, emit_demux, emit_fig5, emit_interp,
    emit_quantiles, emit_sync, fig4a, fig4a_shape_checks, fig4b, fig4c, fig4c_shape_checks, fig5,
    fig5_shape_checks, interp_ablation, localization_demo, placement_rows, print_shape_checks,
    quantile_accuracy, sync_ablation, write_csv, AccuracyCurve, OutputDir, RunContext, Scale,
};
use rlir_exec::SweepRunner;

const HELP: &str = "experiments <list|run <name>|fig4a|fig4b|fig4c|fig5|placement|demux|interp|sync|baselines|quantiles|localize|all> [--threads N] [--shards N] [--trace <file>] [--entry-map <spec>] [--tenants w1,w2] [--chaos-seed N] [--lenient]
Scale: RLIR_SCALE={quick,default,full} RLIR_DURATION_MS=<ms> RLIR_SEEDS=<n> RLIR_SEED=<n>
Threads: --threads N (default RLIR_THREADS, else available parallelism)
Shards: --shards N pod-sharded fat-tree engine (default RLIR_SHARDS, else 1; byte-identical for any N)
Replay: --trace <pcap> capture to stream through `run replay` (default: generated);
        --entry-map fixed:<node>|hash:<n0,n1,...> entry-node demux (tandem nodes are 0 and 1);
        --lenient skip-and-count pcap ingest (damaged records resynced, regressions clamped)
Chaos:  --chaos-seed <u64> master campaign seed for `run chaos` (default RLIR_SEED);
        --tenants w1,w2 positive tenant weights — segment-1 taps tenant 0, segment-2 tenant 1
Output: RLIR_RESULTS_DIR=<dir> (default results/)";

/// Parse a `--tenants` spec: exactly two positive integer weights,
/// comma-separated.
fn parse_tenants(spec: &str) -> Result<(u64, u64), String> {
    let parts: Vec<&str> = spec.split(',').collect();
    if parts.len() != 2 {
        return Err(format!(
            "expected exactly two comma-separated weights, got {:?}",
            spec
        ));
    }
    let w: Vec<u64> = parts
        .iter()
        .map(|p| p.trim().parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad weight in {spec:?}: {e}"))?;
    if w[0] == 0 || w[1] == 0 {
        return Err(format!("tenant weights must be positive, got {spec:?}"));
    }
    Ok((w[0], w[1]))
}

fn emit_accuracy_figure(
    name: &str,
    title: &str,
    curves: &[AccuracyCurve],
    out: &OutputDir,
) -> std::io::Result<()> {
    println!("== {title} ==");
    for c in curves {
        println!("  {}", c.summary());
        let file = format!(
            "{name}_{}.csv",
            c.label.to_lowercase().replace([',', ' ', '%'], "")
        );
        out.write(&file, &format!("relative_error,cdf\n{}", c.cdf_csv()))?;
    }
    println!("  → CSVs in {}", out.root().display());
    Ok(())
}

fn run(cmd: &str, scale: &Scale, out: &OutputDir, runner: &SweepRunner) -> std::io::Result<()> {
    match cmd {
        "fig4a" => {
            let curves = fig4a(scale, runner);
            emit_accuracy_figure(
                "fig4a",
                "Figure 4(a): per-flow MEAN latency — relative-error CDFs (random cross traffic)",
                &curves,
                out,
            )?;
            print_shape_checks(&fig4a_shape_checks(&curves));
        }
        "fig4b" => {
            let curves = fig4b(scale, runner);
            emit_accuracy_figure(
                "fig4b",
                "Figure 4(b): per-flow STD-DEV latency — relative-error CDFs (random cross traffic)",
                &curves,
                out,
            )?;
        }
        "fig4c" => {
            let curves = fig4c(scale, runner);
            emit_accuracy_figure(
                "fig4c",
                "Figure 4(c): mean-error CDFs — bursty vs random cross traffic",
                &curves,
                out,
            )?;
            print_shape_checks(&fig4c_shape_checks(&curves));
        }
        "fig5" => {
            let points = fig5(scale, runner);
            emit_fig5(
                "Figure 5: loss-rate difference caused by reference packets",
                &points,
                &fig5_shape_checks(&points),
                "fig5_interference.csv",
                out,
            )?;
        }
        "placement" => {
            println!("== §3.1: partial-placement complexity on k-ary fat-trees ==");
            println!(
                "  {:>4} {:>10} {:>10} {:>14} {:>14} {:>16} {:>10}",
                "k",
                "iface-pair",
                "tor-pair",
                "all-pairs",
                "(enumerated)",
                "full deploy",
                "reduction"
            );
            let rows = placement_rows();
            for r in &rows {
                println!(
                    "  {:>4} {:>10} {:>10} {:>14} {:>14} {:>16} {:>9.1}x",
                    r.k,
                    r.interface_pair,
                    r.tor_pair,
                    r.all_tor_pairs_paper,
                    r.all_tor_pairs_enumerated,
                    r.full_deployment,
                    r.reduction()
                );
            }
            let csv = write_csv(
                "k,interface_pair,tor_pair,all_tor_pairs_paper,all_tor_pairs_enumerated,full_deployment",
                rows.iter().map(|r| {
                    format!(
                        "{},{},{},{},{},{}",
                        r.k,
                        r.interface_pair,
                        r.tor_pair,
                        r.all_tor_pairs_paper,
                        r.all_tor_pairs_enumerated,
                        r.full_deployment
                    )
                }),
            );
            out.write("placement_table.csv", &csv)?;
        }
        "demux" => {
            emit_demux(
                "A1/A3: demultiplexing ablation on the k=4 fat-tree",
                &demux_ablation(scale, runner),
                "demux_ablation.csv",
                out,
            )?;
        }
        "interp" => {
            emit_interp(
                "A2: interpolation-estimator ablation (93% utilization, static 1-and-100)",
                &interp_ablation(scale, runner),
                "interp_ablation.csv",
                out,
            )?;
        }
        "sync" => {
            emit_sync(
                "A4: clock-synchronisation sensitivity (93% utilization)",
                &sync_ablation(scale, runner),
                "sync_ablation.csv",
                out,
            )?;
        }
        "baselines" => {
            println!("== A6: RLI vs LDA vs Multiflow (identical 93% run) ==");
            let rows = baselines_comparison(scale);
            for r in &rows {
                let per_flow = if r.per_flow_median_error.is_nan() {
                    "      n/a".to_string()
                } else {
                    format!("{:>8.2}%", r.per_flow_median_error * 100.0)
                };
                println!(
                    "  {:<32} per-flow median {per_flow}   aggregate err {:>7.2}%   flows {:>7}",
                    r.estimator,
                    r.aggregate_error * 100.0,
                    r.flows_covered
                );
            }
            let csv = write_csv(
                "estimator,per_flow_median_error,aggregate_error,flows_covered",
                rows.iter().map(|r| {
                    format!(
                        "{},{},{},{}",
                        r.estimator, r.per_flow_median_error, r.aggregate_error, r.flows_covered
                    )
                }),
            );
            out.write("baselines_comparison.csv", &csv)?;
        }
        "quantiles" => {
            emit_quantiles(
                "A7: per-flow p90 tail-latency accuracy (93% utilization)",
                &quantile_accuracy(scale, runner),
                "quantile_accuracy.csv",
                out,
            )?;
        }
        "localize" => {
            println!("== A5: anomaly localization on the fat-tree ==");
            let o = localization_demo(scale);
            println!("  injected fault at core {}", o.injected);
            for (name, est, truth) in &o.segments {
                println!(
                    "    segment {:<16} est {:>9.1} µs   true {:>9.1} µs",
                    name, est, truth
                );
            }
            println!("  flagged: {:?}", o.flagged);
            println!(
                "  verdict: {}",
                if o.correct {
                    "LOCALIZED CORRECTLY"
                } else {
                    "MISSED"
                }
            );
            let csv = write_csv(
                "segment,est_mean_us,true_mean_us",
                o.segments.iter().map(|(n, e, t)| format!("{n},{e},{t}")),
            );
            out.write("localization_segments.csv", &csv)?;
        }
        "all" => {
            for c in [
                "placement",
                "fig4a",
                "fig4b",
                "fig4c",
                "fig5",
                "demux",
                "interp",
                "sync",
                "baselines",
                "quantiles",
                "localize",
            ] {
                run(c, scale, out, runner)?;
                println!();
            }
        }
        other => {
            eprintln!("unknown command {other:?}\n{HELP}");
            std::process::exit(2);
        }
    }
    Ok(())
}

fn main() -> std::io::Result<()> {
    // Split `--threads N` out of the positional arguments.
    let mut positional: Vec<String> = Vec::new();
    let mut threads: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut trace: Option<std::path::PathBuf> = None;
    let mut entry_map: Option<String> = None;
    let mut tenants: Option<(u64, u64)> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut lenient = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tenants" => {
                let spec = args.next().unwrap_or_else(|| {
                    eprintln!("--tenants needs a spec like 3,1\n{HELP}");
                    std::process::exit(2);
                });
                tenants = Some(parse_tenants(&spec).unwrap_or_else(|e| {
                    eprintln!("--tenants: {e}\n{HELP}");
                    std::process::exit(2);
                }));
            }
            "--chaos-seed" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--chaos-seed needs an unsigned 64-bit integer\n{HELP}");
                        std::process::exit(2);
                    });
                chaos_seed = Some(n);
            }
            "--lenient" => lenient = true,
            "--trace" => {
                let p = args
                    .next()
                    .map(std::path::PathBuf::from)
                    .unwrap_or_else(|| {
                        eprintln!("--trace needs a capture file path\n{HELP}");
                        std::process::exit(2);
                    });
                if !p.is_file() {
                    eprintln!("--trace: {} is not a readable file\n{HELP}", p.display());
                    std::process::exit(2);
                }
                trace = Some(p);
            }
            "--entry-map" => {
                let spec = args.next().unwrap_or_else(|| {
                    eprintln!(
                        "--entry-map needs a spec (fixed:<node> or hash:<n0,n1,...>)\n{HELP}"
                    );
                    std::process::exit(2);
                });
                let checked = rlir_trace::EntryMap::parse(&spec)
                    .and_then(|entry| entry.check(rlir::experiment::ReplayConfig::NODES));
                if let Err(e) = checked {
                    eprintln!("--entry-map: {e}\n{HELP}");
                    std::process::exit(2);
                }
                entry_map = Some(spec);
            }
            "--threads" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs a positive integer\n{HELP}");
                        std::process::exit(2);
                    });
                threads = Some(n);
            }
            "--shards" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--shards needs a positive integer\n{HELP}");
                        std::process::exit(2);
                    });
                shards = Some(n);
            }
            "--help" | "-h" => {
                println!("{HELP}");
                return Ok(());
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag:?}\n{HELP}");
                std::process::exit(2);
            }
            _ => positional.push(a),
        }
    }
    let cmd = positional.first().map(String::as_str).unwrap_or("all");
    // `run` takes exactly one scenario name; every other command takes no
    // operands. Anything extra is a mistake (e.g. `run loss_sweep 8` hoping
    // to set the thread count) — fail loudly rather than silently run with
    // defaults.
    let expected = if cmd == "run" { 2 } else { 1 };
    if positional.len() > expected {
        eprintln!("unexpected argument {:?}\n{HELP}", positional[expected]);
        std::process::exit(2);
    }
    let runner = threads.map(SweepRunner::new).unwrap_or_default();

    if cmd == "list" {
        let reg = build_registry();
        println!("registered scenarios ({}):", reg.len());
        for e in reg.entries() {
            println!("  {:<14} {}", e.name(), e.summary());
        }
        println!("\nrun one with: experiments run <name> [--threads N]");
        return Ok(());
    }

    let mut scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("{e}\n{HELP}");
        std::process::exit(2);
    });
    scale.shards = match shards {
        Some(n) => n,
        None => rlir_exec::shards_from_env()
            .unwrap_or_else(|e| {
                eprintln!("{e}: --shards needs a positive integer\n{HELP}");
                std::process::exit(2);
            })
            .unwrap_or(1),
    };
    let out = OutputDir::from_env()?;
    eprintln!(
        "scale: accuracy {} | interference {} | fat-tree {} | seeds {} | base seed {} | threads {} | shards {}",
        scale.accuracy_duration,
        scale.interference_duration,
        scale.fattree_duration,
        scale.seeds,
        scale.base_seed,
        runner.threads(),
        scale.shards,
    );

    if cmd == "run" {
        let Some(name) = positional.get(1) else {
            eprintln!("run needs a scenario name; try `experiments list`\n{HELP}");
            std::process::exit(2);
        };
        let ctx = RunContext {
            scale,
            out,
            trace,
            entry_map,
            tenants,
            chaos_seed,
            lenient,
        };
        return match build_registry().run(name, &ctx, &runner) {
            Ok(()) => Ok(()),
            Err(rlir_exec::RegistryError::Io(e)) => Err(e),
            Err(e @ rlir_exec::RegistryError::Unknown { .. }) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
    }

    run(cmd, &scale, &out, &runner)
}

#[cfg(test)]
mod tests {
    use super::parse_tenants;

    #[test]
    fn tenants_spec_accepts_two_positive_weights() {
        assert_eq!(parse_tenants("3,1"), Ok((3, 1)));
        assert_eq!(parse_tenants(" 10 , 2 "), Ok((10, 2)));
    }

    #[test]
    fn tenants_spec_rejects_malformed_input() {
        assert!(parse_tenants("3").is_err(), "one weight");
        assert!(parse_tenants("3,1,2").is_err(), "three weights");
        assert!(parse_tenants("0,1").is_err(), "zero weight");
        assert!(parse_tenants("3,-1").is_err(), "negative weight");
        assert!(parse_tenants("a,b").is_err(), "non-numeric");
        assert!(parse_tenants("").is_err(), "empty");
    }
}
