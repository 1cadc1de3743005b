//! Regenerate the tables and figures of the paper's evaluation and the
//! repo's ablations: every experiment is a registered scenario.
//!
//! ```text
//! experiments <command> [--threads N] [--shards N]
//!
//!   list        list the registered scenarios
//!   run <name>  run one registered scenario through the shared SweepRunner
//!   all         every registered scenario, in `list` order (the default)
//! ```
//!
//! `--threads N` sizes the sweep worker pool (default: `RLIR_THREADS`, else
//! available parallelism); `--shards N` runs the fat-tree scenarios
//! (`fattree`, `faults`, `incast`, `localize`) on N pod shards (default:
//! `RLIR_SHARDS`, else 1). A count that is not a positive integer exits 2,
//! from the flag or the variable alike. Results are byte-identical for any
//! thread or shard count. Scale via
//! `RLIR_SCALE={quick,default,full}`, `RLIR_DURATION_MS`, `RLIR_SEEDS`,
//! `RLIR_SEED` (a value that does not parse, or a zero duration or seed
//! count, exits 2); output directory via `RLIR_RESULTS_DIR` (default
//! `results/`). Each scenario writes `scenario_<name>*.csv`.

use rlir_bench::{build_registry, OutputDir, RunContext, Scale};
use rlir_exec::{RegistryError, SweepRunner};

const HELP: &str = "experiments <list|run <name>|all> [--threads N] [--shards N] [--trace <file>] [--entry-map <spec>] [--tenants w1,w2] [--chaos-seed N] [--lenient]
Scale: RLIR_SCALE={quick,default,full} RLIR_DURATION_MS=<ms> RLIR_SEEDS=<n> RLIR_SEED=<n>
Threads: --threads N (default RLIR_THREADS, else available parallelism)
Shards: --shards N pod-sharded fat-tree engine (default RLIR_SHARDS, else 1; byte-identical for any N)
Replay: --trace <pcap> capture to stream through `run replay` (default: generated);
        --entry-map fixed:<node>|hash:<n0,n1,...> entry-node demux (tandem nodes are 0 and 1);
        --lenient skip-and-count pcap ingest (damaged records resynced, regressions clamped)
Chaos:  --chaos-seed <u64> master campaign seed for `run chaos` (default RLIR_SEED);
        --tenants w1,w2 positive tenant weights — segment-1 taps tenant 0, segment-2 tenant 1
Output: RLIR_RESULTS_DIR=<dir> (default results/)";

/// Exit 2 with `msg` and the usage.
fn refuse(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}\n{HELP}");
    std::process::exit(2);
}

/// The value of a count flag (`--threads`, `--shards`): a positive integer.
fn positive(value: Option<String>, flag: &str) -> usize {
    value
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| refuse(format!("{flag} needs a positive integer")))
}

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

fn main() -> std::io::Result<()> {
    // Split the flags out of the positional arguments.
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
                let spec = args
                    .next()
                    .unwrap_or_else(|| refuse("--tenants needs a spec like 3,1"));
                tenants = Some(
                    parse_tenants(&spec).unwrap_or_else(|e| refuse(format!("--tenants: {e}"))),
                );
            }
            "--chaos-seed" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or_else(|| refuse("--chaos-seed needs an unsigned 64-bit integer"));
                chaos_seed = Some(n);
            }
            "--lenient" => lenient = true,
            "--trace" => {
                let p = args
                    .next()
                    .map(std::path::PathBuf::from)
                    .unwrap_or_else(|| refuse("--trace needs a capture file path"));
                // Open the header now, the way `--entry-map` is checked up
                // front: a file that is not a nanosecond pcap is a usage
                // error, not a failed run.
                if let Err(e) = rlir_trace::open_pcap(&p) {
                    refuse(format!("--trace: {}: {e}", p.display()));
                }
                trace = Some(p);
            }
            "--entry-map" => {
                let spec = args.next().unwrap_or_else(|| {
                    refuse("--entry-map needs a spec (fixed:<node> or hash:<n0,n1,...>)")
                });
                let checked = rlir_trace::EntryMap::parse(&spec)
                    .and_then(|entry| entry.check(rlir::experiment::ReplayConfig::NODES));
                if let Err(e) = checked {
                    refuse(format!("--entry-map: {e}"));
                }
                entry_map = Some(spec);
            }
            "--threads" => threads = Some(positive(args.next(), "--threads")),
            "--shards" => shards = Some(positive(args.next(), "--shards")),
            "--help" | "-h" => {
                println!("{HELP}");
                return Ok(());
            }
            flag if flag.starts_with('-') => refuse(format!("unknown flag {flag:?}")),
            _ => positional.push(a),
        }
    }
    let cmd = positional.first().map(String::as_str).unwrap_or("all");
    // `run` takes exactly one scenario name; `list` and `all` take no
    // operands. Anything extra is a mistake (e.g. `run loss_sweep 8` hoping
    // to set the thread count) — fail loudly rather than silently run with
    // defaults.
    let expected = match cmd {
        "run" => 2,
        "list" | "all" => 1,
        other => refuse(format!("unknown command {other:?}")),
    };
    if positional.len() > expected {
        refuse(format!("unexpected argument {:?}", positional[expected]));
    }
    let reg = build_registry();

    if cmd == "list" {
        println!("registered scenarios ({}):", reg.len());
        for e in reg.entries() {
            println!("  {:<14} {}", e.name(), e.summary());
        }
        println!(
            "\nrun one with: experiments run <name> [--threads N]; all of them: experiments all"
        );
        return Ok(());
    }
    let names = match positional.get(1) {
        Some(name) => vec![name.as_str()],
        None if cmd == "run" => refuse("run needs a scenario name; try `experiments list`"),
        None => reg.names(),
    };

    let runner = match threads {
        Some(n) => SweepRunner::new(n),
        None => SweepRunner::from_env()
            .unwrap_or_else(|e| refuse(format!("{e}: --threads needs a positive integer"))),
    };
    let mut scale = Scale::from_env().unwrap_or_else(|e| refuse(e));
    scale.shards = match shards {
        Some(n) => n,
        None => rlir_exec::shards_from_env()
            .unwrap_or_else(|e| refuse(format!("{e}: --shards needs a positive integer")))
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

    let ctx = RunContext {
        scale,
        out,
        trace,
        entry_map,
        tenants,
        chaos_seed,
        lenient,
    };
    for (i, name) in names.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        match reg.run(name, &ctx, &runner) {
            Ok(()) => {}
            Err(RegistryError::Io(e)) => return Err(e),
            Err(e @ RegistryError::Unknown { .. }) => refuse(e),
        }
    }
    Ok(())
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
