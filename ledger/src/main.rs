//! `ledger` — the repo's one benchmark: an end-to-end headline, per-layer
//! spans and five named workloads. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, result on the last line
//! ledger run [--seed N] [--reps R] [--sets S] [--scale X] [--out FILE]   all five, round-robin
//! ledger ladder [--seed N] [--scale X]       the subtractive cross-check alone
//! ledger kernels [--seed N] [--scale X]      the isolated kernels alone
//! ledger compare <a.json> <b.json>           before/after verdicts
//! ```

mod adapters;
mod compare;
mod derive;
mod json;
mod kernels;
mod metrics;
mod session;
mod span;
mod stats;
mod workloads;

use derive::{derive, Results};
use json::Json;
use metrics::PER_LAYER;
use session::{Children, Session};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Mode, Spec, Workload};

/// Generation runs this many times per measurement so `setup_s` is a
/// median, not one reading.
const SETUPS: usize = 3;
/// Fewest untraced repetitions any median is taken over.
const MIN_REPS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs after the subcommand; anything else is an error.
fn flags(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .filter(|n| allowed.contains(n))
            .ok_or_else(|| {
                format!(
                    "unexpected argument {key:?} (expected --{})",
                    allowed.join(", --")
                )
            })?;
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad --{name} value {v:?}")),
    }
}

fn workload_flag(flags: &HashMap<String, String>) -> Result<Workload, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    Workload::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })
}

/// Returns whether everything checked out (`false` exits 1).
fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("gen" | "rep") => {
            let f = flags(&args[1..], &["workload", "seed", "scale", "mode", "dir"])?;
            let spec = Spec {
                workload: workload_flag(&f)?,
                seed: flag(&f, "seed", 1)?,
                scale: flag(&f, "scale", 1.0)?,
            };
            let mode = f
                .get("mode")
                .and_then(|m| Mode::from_name(m))
                .ok_or("bad --mode")?;
            let dir = f.get("dir").ok_or("--dir is required")?;
            session::child_main(&args[0], &spec, dir.as_ref(), mode)?;
            Ok(true)
        }
        Some("run") => {
            let f = flags(&args[1..], &["seed", "reps", "sets", "scale", "out"])?;
            run_all(
                flag(&f, "seed", 1)?,
                flag(&f, "scale", 1.0)?,
                flag(&f, "reps", 7)?,
                flag(&f, "sets", 1)?,
                f.get("out").map(String::as_str),
            )
        }
        Some("ladder") => {
            let f = flags(&args[1..], &["seed", "scale"])?;
            ladder_only(flag(&f, "seed", 1)?, flag(&f, "scale", 1.0)?)
        }
        Some("kernels") => {
            let f = flags(&args[1..], &["seed", "scale"])?;
            let facts = kernels::run(flag(&f, "seed", 1)?, flag(&f, "scale", 1.0)?);
            for m in PER_LAYER {
                if let Some(v) = facts.get(m.name) {
                    println!("{:<34} {:>14.3} {}", m.name, v, m.unit);
                }
            }
            Ok(true)
        }
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("usage: ledger compare <a.json> <b.json>".to_string());
            };
            let load = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("{path}: {e}"))
                    .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
            };
            let rows = compare::compare(&load(a)?, &load(b)?)?;
            compare::print(&rows);
            Ok(rows.iter().all(|r| r.verdict == compare::Verdict::Ok))
        }
        Some(first) if first.starts_with("--") => {
            let f = flags(args, &["workload", "seed", "seconds", "trace", "scale"])?;
            let spec = Spec {
                workload: workload_flag(&f)?,
                seed: flag(&f, "seed", 1)?,
                scale: flag(&f, "scale", 1.0)?,
            };
            let seconds = Duration::from_secs_f64(flag(&f, "seconds", 10.0)?);
            let traced = match flag(&f, "trace", 0u8)? {
                0 => false,
                1 => true,
                other => return Err(format!("bad --trace value {other} (0 or 1)")),
            };
            run_one(spec, seconds, traced)
        }
        _ => Err(
            "usage: ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                  | run | ladder | kernels | compare <a.json> <b.json>"
                .to_string(),
        ),
    }
}

/// Everything a session needs beyond its untraced repetitions: the
/// fault-free twin where the workload has a detector to judge, and — for a
/// traced measurement — the traced repetition, the ladder and the
/// two-shard side run.
fn complete(session: &mut Session, traced: bool) -> Result<(), String> {
    let workload = session.spec.workload;
    if traced {
        session.rep(Mode::Traced)?;
        session.rep(Mode::Ladder)?;
        if workload == Workload::IncastKeyed {
            session.rep(Mode::Shards2)?;
        }
    }
    if workload == Workload::FleetE2e {
        session.rep(Mode::Twin)?;
    }
    Ok(())
}

/// The driver's mode: one workload, one seed, `seconds` of untraced
/// repetitions, result as the last stdout line.
fn run_one(spec: Spec, seconds: Duration, traced: bool) -> Result<bool, String> {
    let mut session = Session::new(spec, Children::spawn_self()?)?;
    session.setup(if traced { 1 } else { SETUPS })?;
    complete(&mut session, traced)?;
    let kernel_facts = traced.then(|| kernels::run(spec.seed, spec.scale));
    // A traced measurement spends half its window on the untraced baseline
    // its overhead and ladder gaps are taken against.
    let window = if traced { seconds / 2 } else { seconds };
    let start = Instant::now();
    while session.reps.len() < MIN_REPS || start.elapsed() < window {
        session.rep(Mode::Untraced)?;
    }
    let results = derive(&session, kernel_facts.as_ref());
    print_results(&results, traced);
    println!(
        "{}",
        envelope(spec.seed, spec.scale, &[(&session, &results)])
    );

    let metrics: Vec<(&str, Json)> = if traced {
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    metric_json(results.per_layer[m.name].unwrap_or(0.0), m.unit),
                )
            })
            .collect()
    } else {
        results
            .end_to_end
            .iter()
            .map(|m| {
                let unit = metrics::end_to_end(m.name).expect("registered").unit;
                (m.name, metric_json(m.value, unit))
            })
            .collect()
    };
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(results.correct())),
            ("attempted", Json::Num(results.attempted.max(1) as f64)),
            ("failed", Json::Num(results.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    );
    Ok(results.correct())
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.to_string())),
    ])
}

/// One full set: all five workloads, untraced repetitions interleaved
/// round-robin so a noisy minute cannot land on one workload.
fn measure_set(
    seed: u64,
    scale: f64,
    reps: usize,
    children: &Children,
) -> Result<Vec<(Session, Results)>, String> {
    let mut sessions = Vec::new();
    for workload in Workload::ALL {
        let spec = Spec {
            workload,
            seed,
            scale,
        };
        let mut session = Session::new(spec, children.clone())?;
        session.setup(SETUPS)?;
        sessions.push(session);
    }
    for _ in 0..reps.max(MIN_REPS) {
        for session in &mut sessions {
            session.rep(Mode::Untraced)?;
        }
    }
    let kernel_facts = kernels::run(seed, scale);
    let mut out = Vec::new();
    for mut session in sessions {
        complete(&mut session, true)?;
        let results = derive(&session, Some(&kernel_facts));
        out.push((session, results));
    }
    Ok(out)
}

fn run_all(
    seed: u64,
    scale: f64,
    reps: usize,
    sets: usize,
    out: Option<&str>,
) -> Result<bool, String> {
    let children = Children::spawn_self()?;
    let mut ok = true;
    let mut docs = Vec::new();
    for set in 0..sets.max(1) {
        let measured = measure_set(seed, scale, reps, &children)?;
        println!("#### set {} of {}", set + 1, sets.max(1));
        for (_, results) in &measured {
            print_results(results, true);
            ok &= results.correct();
        }
        cross_workload_band(&measured, scale);
        let pairs: Vec<(&Session, &Results)> = measured.iter().map(|(s, r)| (s, r)).collect();
        docs.push(envelope(seed, scale, &pairs));
    }
    if let Some(path) = out {
        let doc = docs.last().expect("at least one set");
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    // With two or more sets the ledger judges itself: the same commit
    // measured twice must agree within its own bounds.
    for pair in docs.windows(2) {
        let rows = compare::compare(&pair[0], &pair[1])?;
        println!("#### set against set");
        compare::print(&rows);
        ok &= rows.iter().all(|r| r.verdict == compare::Verdict::Ok);
    }
    Ok(ok)
}

/// The one design band that spans workloads: ingest's share on
/// `tandem_replay` is at least twice its share on `fleet_e2e`.
fn cross_workload_band(measured: &[(Session, Results)], scale: f64) {
    let share = |w: Workload| {
        measured
            .iter()
            .find(|(_, r)| r.workload == w)
            .and_then(|(_, r)| r.per_layer["trace.share"])
    };
    if let (Some(tandem), Some(fleet), true) = (
        share(Workload::TandemReplay),
        share(Workload::FleetE2e),
        scale >= 1.0,
    ) {
        let ok = tandem >= 2.0 * fleet;
        println!(
            "band [{}] trace.share on tandem_replay >= 2x fleet_e2e  (seen {tandem:.3} vs {fleet:.3})",
            if ok { "ok" } else { "MISS" }
        );
    }
}

fn ladder_only(seed: u64, scale: f64) -> Result<bool, String> {
    let children = Children::spawn_self()?;
    for workload in Workload::ALL {
        let spec = Spec {
            workload,
            seed,
            scale,
        };
        let mut session = Session::new(spec, children.clone())?;
        session.setup(1)?;
        for _ in 0..MIN_REPS {
            session.rep(Mode::Untraced)?;
        }
        session.rep(Mode::Traced)?;
        session.rep(Mode::Ladder)?;
        let results = derive(&session, None);
        println!("== {} ==", workload.name());
        print_layer_rows(&results, |name| name.starts_with("ladder."));
    }
    Ok(true)
}

fn print_layer_rows(results: &Results, keep: impl Fn(&str) -> bool) {
    for m in PER_LAYER.iter().filter(|m| keep(m.name)) {
        let value = results.per_layer[m.name];
        if let Some((_, gap)) = results.unresolved.iter().find(|(step, _)| *step == m.name) {
            println!(
                "  {:<34} {:>16} (ladder and spans disagree by {:.1} % of run)",
                m.name,
                "unresolved",
                gap * 100.0
            );
            continue;
        }
        match value {
            Some(v) => println!("  {:<34} {:>16.6} {:<6} -> {}", m.name, v, m.unit, m.moves),
            None => println!("  {:<34} {:>16}", m.name, "n/a"),
        }
    }
}

fn print_results(r: &Results, layers: bool) {
    println!(
        "== {} (seed {}, scale {}) ==",
        r.workload.name(),
        r.seed,
        r.scale
    );
    println!(
        "end to end ({} untraced repetitions; wall-clock: fastest, others: median)",
        r.end_to_end[0].samples.len()
    );
    for m in &r.end_to_end {
        let def = metrics::end_to_end(m.name).expect("registered");
        let (q1, q3) = m
            .quartiles()
            .map_or((f64::NAN, f64::NAN), |(a, _, b)| (a, b));
        println!(
            "  {:<18} {:>18.6} {:<10} q1 {:.6} q3 {:.6} spread {:.2}% bound {:.0}% ({} is better)",
            m.name,
            m.value,
            def.unit,
            q1,
            q3,
            stats::spread(&m.samples) * 100.0,
            def.bound * 100.0,
            def.better.name()
        );
    }
    if layers {
        println!("per layer (one traced repetition, the books, the ladder, the kernels)");
        print_layer_rows(r, |_| true);
        println!("spans (total / self, seconds)");
        for (name, depth, total, own) in &r.span_rows {
            println!(
                "  {:indent$}{:<w$} {:>10.4} {:>10.4}",
                "",
                name,
                total,
                own,
                indent = depth * 2,
                w = 30 - depth * 2
            );
        }
    }
    for (kind, checks, miss) in [("law", &r.laws, "VIOLATED"), ("band", &r.bands, "MISS")] {
        for c in checks {
            println!(
                "{kind} [{}] {}  (seen {})",
                if c.ok { "ok" } else { miss },
                c.law,
                c.seen
            );
        }
    }
}

/// Best effort: the checkout the driver runs in is not a git repository.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => std::fs::read_to_string(format!(".git/{name}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|refs| {
                        refs.lines()
                            .find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_string()))
                    })
            })
            .unwrap_or_default(),
    };
    match hash.trim() {
        "" => "unknown".to_string(),
        h => h.to_string(),
    }
}

fn rustc() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn checks_json(checks: &[derive::Check]) -> Json {
    Json::Arr(
        checks
            .iter()
            .map(|c| {
                Json::obj([
                    ("law", Json::Str(c.law.clone())),
                    ("ok", Json::Bool(c.ok)),
                    ("seen", Json::Str(c.seen.clone())),
                ])
            })
            .collect(),
    )
}

/// Every result with what it takes to read it later: commit, host,
/// toolchain, seed, sizes, repetition counts and raw samples.
fn envelope(seed: u64, scale: f64, measured: &[(&Session, &Results)]) -> Json {
    let workloads = measured.iter().map(|(session, r)| {
        let end_to_end = r.end_to_end.iter().map(|m| {
            let def = metrics::end_to_end(m.name).expect("registered");
            let (q1, q3) = m
                .quartiles()
                .map_or((f64::NAN, f64::NAN), |(a, _, b)| (a, b));
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(def.unit.to_string())),
                    ("better", Json::Str(def.better.name().to_string())),
                    ("bound", Json::Num(def.bound)),
                    ("n", Json::Num(m.samples.len() as f64)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("samples", Json::nums(&m.samples)),
                ]),
            )
        });
        let per_layer = PER_LAYER
            .iter()
            .map(|m| (m.name, r.per_layer[m.name].map_or(Json::Null, Json::Num)));
        let spans = r.span_rows.iter().map(|(name, depth, total, own)| {
            Json::obj([
                ("name", Json::Str(name.clone())),
                ("depth", Json::Num(*depth as f64)),
                ("total_s", Json::Num(*total)),
                ("self_s", Json::Num(*own)),
            ])
        });
        (
            r.workload.name(),
            Json::obj([
                ("sizes", workloads::facts_to_json(&session.gen_facts)),
                ("reps", Json::Num(session.reps.len() as f64)),
                ("setups", Json::Num(session.gen_walls.len() as f64)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
                (
                    "unresolved",
                    Json::Arr(
                        r.unresolved
                            .iter()
                            .map(|(step, _)| Json::Str(step.to_string()))
                            .collect(),
                    ),
                ),
                ("spans", Json::Arr(spans.collect())),
                ("laws", checks_json(&r.laws)),
                ("bands", checks_json(&r.bands)),
                ("correct", Json::Bool(r.correct())),
                ("attempted", Json::Num(r.attempted as f64)),
                ("failed", Json::Num(r.failed as f64)),
            ]),
        )
    });
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("benchmark", Json::Str("ledger".to_string())),
        ("claim", Json::Null),
        ("commit", Json::Str(commit())),
        ("host", Json::obj([("cpus", Json::Num(cpus as f64))])),
        ("rustc", Json::Str(rustc())),
        ("seed", Json::Num(seed as f64)),
        ("scale", Json::Num(scale)),
        ("workloads", Json::obj(workloads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::END_TO_END;

    /// One workload at a hundredth of its size, in-process, laws on:
    /// generation, two untraced repetitions, the traced one, the ladder
    /// and (where they exist) the twin and the two-shard side run.
    fn tiny(workload: Workload) -> (Session, Results) {
        let spec = Spec {
            workload,
            seed: 7,
            scale: 0.01,
        };
        let mut session = Session::new(spec, Children::in_process()).expect("work dir");
        session.setup(1).expect("generate");
        session.rep(Mode::Untraced).expect("rep");
        session.rep(Mode::Untraced).expect("rep");
        complete(&mut session, true).expect("traced + ladder + twin");
        let results = derive(&session, Some(&kernels::run(7, 0.01)));
        for c in &results.laws {
            assert!(c.ok, "{}: {} (seen {})", workload.name(), c.law, c.seen);
        }
        assert_eq!(results.failed, 0);
        assert!(results.attempted > 0);
        for m in &results.end_to_end {
            assert!(m.value.is_finite() && m.value > 0.0, "{}", m.name);
            assert_eq!(m.samples.len(), if m.name == "setup_s" { 1 } else { 2 });
        }
        let layer = |name: &str| results.per_layer[name];
        assert!(layer("sim.events").is_some_and(|v| v > 0.0));
        assert!(layer("ladder.engine_s").is_some_and(|v| v > 0.0));
        assert!(layer("topo.ns_per_route_alone").is_some());
        assert!(!results.span_rows.is_empty());
        (session, results)
    }

    #[test]
    fn tiny_fleet_e2e_holds_every_law() {
        let (_, r) = tiny(Workload::FleetE2e);
        assert!(r.per_layer["sentinel.estimated"].is_some_and(|v| v > 0.0));
        assert!(r.per_layer["flow_mean_relerr_p50"].is_some());
        assert!(r.per_layer["detect.polls"].is_some_and(|v| v > 0.0));
        assert!(r.per_layer["capture.matched"].is_none());
        // Too short for the detector to warm up: no verdict either way.
        assert_eq!(r.per_layer["ttl_ms"], None);
    }

    #[test]
    fn tiny_fleet_overload_holds_every_law() {
        let (_, r) = tiny(Workload::FleetOverload);
        assert!(r.per_layer["plane.tenant1_shed_share"].is_some());
        assert!(r.per_layer["plane.lost_window_obs"].is_some_and(|v| v > 0.0));
        assert!(r.per_layer["sim.fault_drops"].is_some_and(|v| v > 0.0));
        assert!(r.per_layer["sentinel.metered"].is_none());
    }

    #[test]
    fn tiny_tandem_replay_holds_every_law() {
        let (_, r) = tiny(Workload::TandemReplay);
        assert!(r.per_layer["capture.matched"].is_some_and(|v| v > 0.0));
        assert!(r.per_layer["trace.peak_buffered"].is_some_and(|v| v > 1.0));
        assert!(r.per_layer["flow_p99_relerr_p50"].is_some());
        assert!(r.per_layer["topo.route_calls"].is_none());
    }

    #[test]
    fn tiny_incast_pair_agrees_and_survives_its_own_file_format() {
        let measured = [tiny(Workload::IncastEngine), tiny(Workload::IncastKeyed)];
        let (engine, keyed) = (&measured[0].1, &measured[1].1);
        assert!(engine.per_layer["plane.hop_calls"].is_none());
        assert!(engine.per_layer["sim.queue_drops"].is_some_and(|v| v > 0.0));
        assert!(keyed.per_layer["sim.shard.s2_windows"].is_some_and(|v| v > 0.0));
        // Same injections, two engine cores: the books must agree.
        for name in ["sim.events", "sim.queue_drops", "sim.peak_live_slots"] {
            assert_eq!(engine.per_layer[name], keyed.per_layer[name], "{name}");
        }
        let pairs: Vec<(&Session, &Results)> = measured.iter().map(|(s, r)| (s, r)).collect();
        let doc = envelope(7, 0.01, &pairs);
        let back = json::parse(&doc.to_string()).expect("envelope parses");
        assert!(back.get("claim").is_some_and(|c| *c == Json::Null));
        let rows = compare::compare(&back, &back).expect("comparable");
        assert_eq!(rows.len(), 2 * END_TO_END.len());
        assert!(rows.iter().all(|r| r.worse_by == 0.0));
    }

    #[test]
    fn flags_reject_what_they_do_not_know() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(flags(&args("--seed 3 --scale 0.5"), &["seed", "scale"]).is_ok());
        assert!(flags(&args("--sed 3"), &["seed"]).is_err());
        assert!(flags(&args("--seed"), &["seed"]).is_err());
        assert!(dispatch(&args("--workload nope --seed 1")).is_err());
        assert!(dispatch(&args("frobnicate")).is_err());
    }
}
