//! Regenerate the tables and figures of the paper's evaluation and the
//! repo's ablations: `experiments <list|run <name>|all> [flags]`. Every
//! experiment is an entry of the static scenario list, and every result is
//! one table, printed column-aligned (floats rounded) and written to
//! `scenario_<name>*.csv` with the same cells. `HELP` (`--help`) is the usage: the
//! flags, which scenarios read each (a scenario flag is refused with exit 2
//! unless the command is `all` or a scenario that reads it), and the
//! `RLIR_*` variables (`RLIR_SEED` is every scenario's master seed, `chaos`'s
//! campaigns included). A count, scale variable or spec that does not parse
//! exits 2; results are byte-identical for any thread count.

use rlir_bench::{list, scenario, OutputDir, RunContext, Scale, SCENARIOS};
use rlir_exec::{parse_count, SweepRunner};

const HELP: &str = "experiments <list|run <name>|all> [--threads N] [--trace <file>] [--entry-map <spec>] [--tenants w1,w2] [--lenient]
Scale: RLIR_SCALE={quick,default,full} RLIR_DURATION_MS=<ms> RLIR_SEEDS=<n> RLIR_SEED=<n> (every scenario's master seed)
Threads: --threads N (default RLIR_THREADS, else available parallelism)
Replay: --trace <pcap> capture to stream through `run replay` (default: generated);
        --entry-map fixed:<node>|hash:<n0,n1,...> entry-node demux (tandem nodes are 0 and 1);
        --lenient skip-and-count pcap ingest (damaged records resynced, regressions clamped)
Chaos:  --tenants w1,w2 positive tenant weights for `run chaos` — segment-1 taps tenant 0, segment-2 tenant 1
A scenario flag is refused unless the command is `all` or a scenario that reads it.
Output: RLIR_RESULTS_DIR=<dir> (default results/)";

/// `arg` if it is a scenario flag: one that some scenario declares it reads
/// ([`rlir_bench::Scenario::flags`]).
fn scenario_flag(arg: &str) -> Option<&'static str> {
    SCENARIOS
        .iter()
        .flat_map(|s| s.flags)
        .copied()
        .find(|f| *f == arg)
}

/// Why `flags` do not fit the command: `None` for `all` or a scenario that
/// reads every one of them, else the first flag it would silently ignore.
fn unread_flag(cmd: &str, name: Option<&str>, flags: &[&str]) -> Option<String> {
    if cmd == "all" {
        return None;
    }
    flags.iter().find_map(|&flag| {
        let readers: Vec<&str> = (SCENARIOS.iter())
            .filter(|s| s.flags.contains(&flag))
            .map(|s| s.name)
            .collect();
        let reads = readers.is_empty() || name.is_some_and(|n| readers.contains(&n));
        let target = name.map_or(format!("`{cmd}`"), |n| format!("scenario {n:?}"));
        (!reads).then(|| {
            format!(
                "{flag} is read only by {}, not by {target}",
                readers.join(", ")
            )
        })
    })
}

/// Exit 2 with `msg` and the usage.
fn refuse(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}\n{HELP}");
    std::process::exit(2);
}

/// The value of a count flag (`--threads`): a positive integer.
fn positive(value: Option<String>, flag: &str) -> usize {
    (parse_count(value).ok().flatten())
        .unwrap_or_else(|| refuse(format!("{flag} needs a positive integer")))
}

/// Parse a `--tenants` spec: exactly two positive integer weights,
/// comma-separated.
fn parse_tenants(spec: &str) -> Result<(u64, u64), String> {
    let weights: Vec<u64> = (spec.split(',').map(|w| w.trim().parse::<u64>()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad weight in {spec:?}: {e}"))?;
    match weights[..] {
        [a, b] if a > 0 && b > 0 => Ok((a, b)),
        [_, _] => Err(format!("tenant weights must be positive, got {spec:?}")),
        _ => Err(format!(
            "expected exactly two comma-separated weights, got {spec:?}"
        )),
    }
}

fn main() -> std::io::Result<()> {
    // Split the flags out of the positional arguments.
    let mut positional: Vec<String> = Vec::new();
    let mut threads: Option<usize> = None;
    let mut trace: Option<std::path::PathBuf> = None;
    let mut entry_map: Option<String> = None;
    let mut tenants: Option<(u64, u64)> = None;
    let mut lenient = false;
    let mut given: Vec<&str> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if let Some(flag) = scenario_flag(&a) {
            given.push(flag);
        }
        match a.as_str() {
            "--tenants" => {
                let spec = args
                    .next()
                    .unwrap_or_else(|| refuse("--tenants needs a spec like 3,1"));
                tenants = Some(
                    parse_tenants(&spec).unwrap_or_else(|e| refuse(format!("--tenants: {e}"))),
                );
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
    let scenarios = match positional.get(1) {
        Some(name) => vec![scenario(name).unwrap_or_else(|e| refuse(e))],
        None if cmd == "run" => refuse("run needs a scenario name; try `experiments list`"),
        None => SCENARIOS.iter().collect(),
    };
    if let Some(e) = unread_flag(cmd, positional.get(1).map(String::as_str), &given) {
        refuse(e);
    }
    if cmd == "list" {
        println!("{}", list());
        return Ok(());
    }

    let mut scale = Scale::from_env().unwrap_or_else(|e| refuse(e));
    scale.threads = threads.unwrap_or(scale.threads);
    let runner = SweepRunner::new(scale.threads);
    let out = OutputDir::from_env()?;
    eprintln!(
        "scale: accuracy {} | interference {} | fat-tree {} | seeds {} | base seed {} | threads {}",
        scale.accuracy_duration,
        scale.interference_duration,
        scale.fattree_duration,
        scale.seeds,
        scale.base_seed,
        runner.threads(),
    );

    let ctx = RunContext {
        scale,
        out,
        trace,
        entry_map,
        tenants,
        lenient,
    };
    for (i, s) in scenarios.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("== {}: {} ==", s.name, s.summary);
        (s.run)(&ctx, &runner)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{parse_tenants, unread_flag};

    #[test]
    fn a_scenario_flag_fits_all_and_its_readers_only() {
        assert_eq!(unread_flag("all", None, &["--lenient", "--tenants"]), None);
        assert_eq!(
            unread_flag("run", Some("replay"), &["--trace", "--lenient"]),
            None
        );
        assert_eq!(unread_flag("run", Some("chaos"), &["--tenants"]), None);
        assert_eq!(unread_flag("run", Some("two_hop"), &[]), None);
        for (name, flag) in [
            (Some("two_hop"), "--lenient"),
            (Some("fattree"), "--trace"),
            (Some("loss_sweep"), "--tenants"),
            (Some("replay"), "--tenants"),
            (None, "--entry-map"),
        ] {
            let cmd = if name.is_some() { "run" } else { "list" };
            let e = unread_flag(cmd, name, &[flag]).expect(flag);
            assert!(e.starts_with(flag), "{e}");
        }
    }

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
