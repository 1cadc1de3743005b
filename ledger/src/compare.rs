//! `ledger compare <a.json> <b.json>`: the before/after row a later
//! change quotes. Per workload and end-to-end metric, the change of the
//! reported value against the metric's bound, with the verdict
//!
//! * `ok` — no worse than the bound allows;
//! * `regressed` — worse by more than the bound;
//! * `unresolved` — either side's quartile spread is wider than the bound,
//!   so the runs cannot tell, unless every run of `b` reads better than
//!   every run of `a`.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::stats::spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Share of `a` by which `b` is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge one metric from both sides' reported values and raw samples.
pub fn judge(better: Better, bound: f64, a: (f64, &[f64]), b: (f64, &[f64])) -> (f64, Verdict) {
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (b.0 - a.0) / a.0.abs();
    // NaN spreads (a single sample) resolve nothing and block nothing.
    let noisy = spread(a.1) > bound || spread(b.1) > bound;
    let all_better = a.1.iter().all(|x| b.1.iter().all(|y| sign * (y - x) < 0.0));
    let verdict = if noisy && !(all_better && !a.1.is_empty() && !b.1.is_empty()) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn side(doc: &Json, workload: &str, metric: &str) -> Option<(f64, Vec<f64>)> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let samples = m
        .get("samples")
        .and_then(Json::as_arr)
        .map(|s| s.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some((m.get("value")?.as_f64()?, samples))
}

/// Every `workload × end-to-end metric` present on both sides.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first file has no workloads")?;
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        for def in END_TO_END {
            let (Some(sa), Some(sb)) = (side(a, workload, def.name), side(b, workload, def.name))
            else {
                continue;
            };
            let (worse_by, verdict) = judge(def.better, def.bound, (sa.0, &sa.1), (sb.0, &sb.1));
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                a: sa.0,
                b: sb.0,
                worse_by,
                bound: def.bound,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload × metric".to_string());
    }
    Ok(rows)
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<16} {:<18} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for r in rows {
        println!(
            "{:<16} {:<18} {:>16.6} {:>16.6} {:>8.2}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let tight_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let within = [104.0, 105.0, 103.0, 104.5, 103.5];
        let beyond = [120.0, 121.0, 119.0, 120.5, 119.5];
        let j = |b: &[f64], better| {
            judge(
                better,
                0.10,
                (crate::stats::median(&tight_a), &tight_a),
                (crate::stats::median(b), b),
            )
        };
        assert_eq!(j(&within, Better::Lower).1, Verdict::Ok);
        assert_eq!(j(&beyond, Better::Lower).1, Verdict::Regressed);
        // The same numbers are an improvement when higher is better.
        let (worse_by, verdict) = j(&beyond, Better::Higher);
        assert_eq!(verdict, Verdict::Ok);
        assert!((worse_by + 0.20).abs() < 1e-9);
        // A side noisier than the bound cannot tell …
        let noisy = [80.0, 100.0, 125.0, 90.0, 140.0];
        assert_eq!(j(&noisy, Better::Lower).1, Verdict::Unresolved);
        // … unless every run of b beats every run of a.
        let noisy_but_better = [40.0, 60.0, 50.0, 70.0, 45.0];
        assert_eq!(j(&noisy_but_better, Better::Lower).1, Verdict::Ok);
    }

    #[test]
    fn compares_two_result_files() {
        let doc = |rate: f64| {
            parse(&format!(
                "{{\"workloads\": {{\"fleet_e2e\": {{\"end_to_end\": {{\"pkts_per_s\": \
                 {{\"value\": {rate}, \"samples\": [{rate}, {rate}, {rate}]}}}}}}}}}}"
            ))
            .unwrap()
        };
        let rows = compare(&doc(1000.0), &doc(700.0)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].metric, rows[0].verdict),
            ("pkts_per_s", Verdict::Regressed)
        );
        assert!((rows[0].worse_by - 0.30).abs() < 1e-12);
        let rows = compare(&doc(1000.0), &doc(1000.0)).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert!(compare(&parse("{}").unwrap(), &doc(1.0)).is_err());
    }
}
