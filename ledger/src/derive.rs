//! From a session's raw facts to named metrics, fatal laws and design
//! bands.
//!
//! End-to-end wall-clock metrics are the fastest of the untraced
//! repetitions, with every raw sample kept. Per-layer metrics come from the
//! one traced repetition (spans), the deterministic books (counts), the
//! ladder child and the kernels; they are never mixed into the end-to-end
//! medians. A metric that does not apply to a workload is `None` here —
//! printed as `n/a`, and as 0 only where the driver's result line needs a
//! number for every name.

use crate::metrics::PER_LAYER;
use crate::session::Session;
use crate::span::{SpanId, SpanTree};
use crate::stats::{median, quartiles};
use crate::workloads::{Facts, Workload};
use std::collections::{BTreeMap, BTreeSet};

/// Share of the untraced run by which a ladder step and its span
/// counterpart may disagree before the layer is reported as unresolved.
pub const LADDER_GAP_LIMIT: f64 = 0.10;

/// One end-to-end metric of one workload.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    /// Raw per-repetition samples behind `value`.
    pub samples: Vec<f64>,
}

impl Measured {
    pub fn quartiles(&self) -> Option<(f64, f64, f64)> {
        quartiles(&self.samples)
    }
}

/// A checked statement: a fatal law or a non-fatal design band.
#[derive(Debug, Clone)]
pub struct Check {
    pub law: String,
    pub ok: bool,
    pub seen: String,
}

#[derive(Debug)]
pub struct Results {
    pub workload: Workload,
    pub seed: u64,
    pub scale: f64,
    pub end_to_end: Vec<Measured>,
    /// Every per-layer metric, `None` where not applicable (or where no
    /// traced repetition / ladder / kernels ran).
    pub per_layer: BTreeMap<&'static str, Option<f64>>,
    /// Ladder steps whose two derivations disagree beyond the limit, with
    /// the gap as a share of the run.
    pub unresolved: Vec<(&'static str, f64)>,
    /// `(name, depth, total_s, self_s)` of the traced repetition's spans.
    pub span_rows: Vec<(String, usize, f64, f64)>,
    /// Fatal: any miss makes the run incorrect.
    pub laws: Vec<Check>,
    /// Reported, never fatal: wall-clock design expectations.
    pub bands: Vec<Check>,
    /// Source records consumed over all untraced repetitions.
    pub attempted: u64,
    /// Records and observations lost outside the workload's design.
    pub failed: u64,
}

impl Results {
    pub fn correct(&self) -> bool {
        self.laws.iter().all(|c| c.ok)
    }
}

fn get(facts: &Facts, name: &str) -> Option<f64> {
    facts.get(name).copied()
}

fn samples(reps: &[Facts], f: impl Fn(&Facts) -> Option<f64>) -> Vec<f64> {
    reps.iter().filter_map(f).collect()
}

fn law(laws: &mut Vec<Check>, law: &str, ok: bool, seen: String) {
    laws.push(Check {
        law: law.to_string(),
        ok,
        seen,
    });
}

/// Derive everything from `session`. `kernels` are the isolated-kernel
/// facts when they ran. `sized` gates apply at full scale only: they pin
/// properties of the workloads' design sizes (an alarm needs a run long
/// enough to warm the detector up).
pub fn derive(session: &Session, kernels: Option<&Facts>) -> Results {
    let spec = session.spec;
    let w = spec.workload;
    let reps = &session.reps;
    let first = reps.first().cloned().unwrap_or_default();
    let sized = spec.scale >= 1.0;
    let run_med = median(&samples(reps, |f| get(f, "t.run_s")));

    // ---- end to end ------------------------------------------------------
    // Interference on a shared host only ever slows a repetition down, so
    // the wall-clock metrics report the fastest reading — the closest one
    // to the program itself — and keep every sample beside it. Memory and
    // the exact metrics have no such one-sided noise: median.
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let rep_setups = samples(reps, |f| Some(get(f, "t.load_s")? + get(f, "t.build_s")?));
    let setups: Vec<f64> = session
        .gen_walls
        .iter()
        .map(|g| g + fastest(&rep_setups))
        .collect();
    let rates = samples(reps, |f| Some(get(f, "records")? / get(f, "t.run_s")?));
    let rss = samples(reps, |f| get(f, "t.vm_hwm_bytes"));
    let state = samples(reps, |f| get(f, "peak_state_bytes"));
    let ok_share = samples(reps, |f| Some(1.0 - get(f, "failed_share")?));
    let end_to_end = [
        (
            "pkts_per_s",
            rates.iter().copied().fold(f64::NAN, f64::max),
            rates,
        ),
        ("peak_rss_bytes", median(&rss), rss),
        ("peak_state_bytes", median(&state), state),
        ("ok_share", median(&ok_share), ok_share),
        ("setup_s", fastest(&setups), setups),
    ]
    .into_iter()
    .map(|(name, value, samples)| Measured {
        name,
        value,
        samples,
    })
    .collect();

    // ---- fatal laws ------------------------------------------------------
    let mut laws = Vec::new();
    let every = |name: &str, pred: &dyn Fn(f64) -> bool| {
        reps.iter()
            .chain(session.traced.iter())
            .chain(session.twin.iter())
            .chain(session.shards2.iter())
            .all(|f| get(f, name).is_none_or(pred))
    };
    law(
        &mut laws,
        "delivered + queue_drops + route_drops == injected, every run",
        every("sim.unaccounted", &|v| v == 0.0),
        format!("unaccounted {:?}", get(&first, "sim.unaccounted")),
    );
    law(
        &mut laws,
        "per tenant, offered == admitted + shed",
        every("plane.tenant_unbalanced", &|v| v == 0.0)
            && every("sentinel.tenant_unbalanced", &|v| v == 0.0),
        format!("imbalance {:?}", get(&first, "plane.tenant_unbalanced")),
    );
    law(
        &mut laws,
        "no generated capture loses a record to decode damage or the reorder window",
        every("trace.skipped", &|v| v == 0.0) && every("trace.late_dropped", &|v| v == 0.0),
        format!(
            "skipped {:?}, late_dropped {:?}",
            get(&first, "trace.skipped"),
            get(&first, "trace.late_dropped")
        ),
    );
    let deterministic = |f: &Facts| -> BTreeMap<String, u64> {
        f.iter()
            .filter(|(k, _)| !k.starts_with("t.") && !k.starts_with("span."))
            .map(|(k, v)| (k.clone(), v.to_bits()))
            .collect()
    };
    let reference = deterministic(&first);
    let drift: BTreeSet<String> = reps
        .iter()
        .chain(session.traced.iter())
        .flat_map(|f| {
            let other = deterministic(f);
            let names: Vec<String> = reference
                .keys()
                .chain(other.keys())
                .filter(|k| reference.get(*k) != other.get(*k))
                .cloned()
                .collect();
            names
        })
        .collect();
    law(
        &mut laws,
        "stream digest and every deterministic metric identical across repetitions, traced or not",
        drift.is_empty(),
        format!("{} repetitions, drifting: {drift:?}", reps.len()),
    );
    if w == Workload::FleetE2e {
        law(
            &mut laws,
            "late == 0 on fleet_e2e (the reorder window covers the fabric)",
            every("plane.late", &|v| v == 0.0) && every("sentinel.late", &|v| v == 0.0),
            format!(
                "plane {:?}, sentinel {:?}",
                get(&first, "plane.late"),
                get(&first, "sentinel.late")
            ),
        );
        law(
            &mut laws,
            "no alarm before the onset or on a segment that does not cross the victim",
            get(&first, "detect.false_alarms") == Some(0.0),
            format!("false alarms {:?}", get(&first, "detect.false_alarms")),
        );
        if let Some(twin) = &session.twin {
            law(
                &mut laws,
                "no alarm at all in the fault-free twin",
                get(twin, "detect.alarms") == Some(0.0),
                format!("twin alarms {:?}", get(twin, "detect.alarms")),
            );
        }
        if sized {
            let ttl = get(&first, "ttl_ms");
            law(
                &mut laws,
                "the scripted degradation is localized: ttl_ms is finite",
                ttl.is_some_and(f64::is_finite),
                format!("ttl_ms {ttl:?}"),
            );
            law(
                &mut laws,
                "failed_share <= 0.01 on fleet_e2e",
                get(&first, "failed_share").is_some_and(|v| v <= 0.01),
                format!("failed_share {:?}", get(&first, "failed_share")),
            );
        }
    }
    if w == Workload::FleetOverload && sized {
        law(
            &mut laws,
            "failed_share >= 0.5 on fleet_overload (the budget binds)",
            get(&first, "failed_share").is_some_and(|v| v >= 0.5),
            format!("failed_share {:?}", get(&first, "failed_share")),
        );
    }
    if w == Workload::TandemReplay {
        law(
            &mut laws,
            "capture.vs_truth_relerr <= 1e-3 (wire-identity matching agrees with engine truth)",
            get(&first, "capture.vs_truth_relerr").is_some_and(|v| v <= 1e-3),
            format!("{:?}", get(&first, "capture.vs_truth_relerr")),
        );
    }

    // The driver's `failed` counts what the workload's design does not
    // explain; a workload that exists to produce losses says how many.
    let lost = |f: &Facts| {
        get(f, "ledger.failed_ops").unwrap_or(0.0) - get(f, "ledger.designed_losses").unwrap_or(0.0)
    };
    let attempted = reps.iter().filter_map(|f| get(f, "records")).sum::<f64>() as u64;
    let failed = reps.iter().map(lost).sum::<f64>() as u64;

    // ---- per layer -------------------------------------------------------
    let mut per_layer: BTreeMap<&'static str, Option<f64>> =
        PER_LAYER.iter().map(|m| (m.name, None)).collect();
    let mut set = |name: &str, value: Option<f64>| {
        let slot = per_layer
            .iter_mut()
            .find(|(k, _)| **k == name)
            .unwrap_or_else(|| panic!("{name} is not a registered per-layer metric"));
        *slot.1 = value.filter(|v| v.is_finite());
    };
    // A repetition's exact facts carry their metric's name.
    for m in PER_LAYER {
        if let Some(value) = get(&first, m.name) {
            set(m.name, Some(value));
        }
    }
    let ratio = |a: Option<f64>, b: Option<f64>| Some(a? / b?).filter(|v| v.is_finite());
    set(
        "plane.est_share",
        ratio(get(&first, "plane.estimated"), get(&first, "plane.metered")),
    );
    set(
        "sentinel.est_share",
        ratio(
            get(&first, "sentinel.estimated"),
            get(&first, "sentinel.metered"),
        ),
    );
    set(
        "plane.bytes_per_pending",
        ratio(
            get(&first, "plane.peak_state_bytes"),
            get(&first, "plane.peak_pending_total"),
        ),
    );
    let sum = |a: &str, b: &str| {
        let (a, b) = (get(&first, a), get(&first, b));
        (a.is_some() || b.is_some()).then(|| a.unwrap_or(0.0) + b.unwrap_or(0.0))
    };
    set("report.taps", sum("plane.taps", "sentinel.taps"));
    set("report.flows", sum("plane.flows", "sentinel.flows"));
    set("report.epochs", sum("plane.epochs", "sentinel.epochs"));
    set(
        "sim.events_per_s",
        ratio(
            get(&first, "sim.events"),
            Some(median(&samples(reps, |f| get(f, "t.sim_s")))),
        ),
    );
    if let Some(s2) = &session.shards2 {
        set("sim.shard.s2_windows", get(s2, "sim.shard.windows"));
        set("sim.shard.s2_stalls", get(s2, "sim.shard.stalls"));
        set("sim.shard.s2_wall_ratio", get(s2, "t.s2_wall_ratio"));
        law(
            &mut laws,
            "two shards deliver exactly what one shard delivers",
            get(s2, "sim.shard.s2_differs") == Some(0.0),
            format!("differs {:?}", get(s2, "sim.shard.s2_differs")),
        );
    }

    let mut bands = Vec::new();
    let mut unresolved = Vec::new();
    let mut span_rows = Vec::new();
    if let Some(t) = &session.traced {
        let busy = |id: SpanId| get(t, &format!("t.span.{}.busy_s", id.name())).unwrap_or(0.0);
        let calls = |id: SpanId| get(t, &format!("span.{}.calls", id.name())).unwrap_or(0.0);
        // A span that was never entered does not apply to this workload.
        let ran = |id: SpanId, v: f64| (calls(id) > 0.0).then_some(v);
        let per_call = |id: SpanId| ran(id, busy(id) / calls(id) * 1e9);
        // One-shot spans cost nothing to record, so their totals are the
        // untraced medians; only the per-call leaves need the traced
        // repetition. The parent is then free of tracing overhead, which by
        // construction falls outside the (calibrated) leaves.
        let one_shot = |name: &str| {
            let v = samples(reps, |f| get(f, name));
            (!v.is_empty()).then(|| median(&v))
        };
        let run_s = run_med;
        let sim_s = one_shot("t.sim_s").unwrap_or(f64::NAN);
        let finish_s = one_shot("t.finish_s");
        let localize_s = one_shot("t.localize_s");
        let query_s = get(t, "t.plane.query_s").unwrap_or(0.0);

        // The span tree: one-shot spans are exact, leaves are sampled.
        let mut tree = SpanTree::default();
        let run = tree.add("run", None, run_s);
        let sim = tree.add("sim.run", Some(run), sim_s);
        for id in SpanId::ALL {
            if calls(id) > 0.0 {
                tree.add(id.name(), Some(sim), busy(id));
            }
        }
        if query_s > 0.0 {
            tree.add("plane.query", Some(sim), query_s);
        }
        for (name, total) in [("report.finish", finish_s), ("report.localize", localize_s)] {
            if let Some(total) = total {
                tree.add(name, Some(run), total);
            }
        }
        let sim_self = tree.self_s(sim);
        span_rows = tree
            .rows()
            .into_iter()
            .map(|(name, depth, total, own)| (name.to_string(), depth, total, own))
            .collect();

        let plane_busy = busy(SpanId::PlaneHop)
            + busy(SpanId::PlaneWatermark)
            + busy(SpanId::SentinelHop)
            + busy(SpanId::SentinelWatermark)
            + query_s;
        let capture_busy = busy(SpanId::CaptureHop) + busy(SpanId::CaptureWatermark);
        let plane_hops = busy(SpanId::PlaneHop) + busy(SpanId::PlaneWatermark);
        for (name, id, value) in [
            ("trace.busy_s", SpanId::TraceNext, busy(SpanId::TraceNext)),
            (
                "trace.share",
                SpanId::TraceNext,
                busy(SpanId::TraceNext) / run_s,
            ),
            (
                "rli.sender.busy_s",
                SpanId::SenderObserve,
                busy(SpanId::SenderObserve),
            ),
            (
                "topo.route_calls",
                SpanId::TopoRoute,
                calls(SpanId::TopoRoute),
            ),
            ("topo.busy_s", SpanId::TopoRoute, busy(SpanId::TopoRoute)),
            ("plane.hop_calls", SpanId::PlaneHop, calls(SpanId::PlaneHop)),
            ("plane.hop_busy_s", SpanId::PlaneHop, busy(SpanId::PlaneHop)),
            (
                "plane.watermark_calls",
                SpanId::PlaneWatermark,
                calls(SpanId::PlaneWatermark),
            ),
            (
                "plane.watermark_busy_s",
                SpanId::PlaneWatermark,
                busy(SpanId::PlaneWatermark),
            ),
            ("plane.share", SpanId::PlaneHop, plane_busy / run_s),
            (
                "sentinel.hop_busy_s",
                SpanId::SentinelHop,
                busy(SpanId::SentinelHop),
            ),
            (
                "sentinel.watermark_busy_s",
                SpanId::SentinelWatermark,
                busy(SpanId::SentinelWatermark),
            ),
            (
                "detect.busy_s",
                SpanId::DetectPoll,
                busy(SpanId::DetectPoll),
            ),
            ("capture.busy_s", SpanId::CaptureHop, capture_busy),
        ] {
            set(name, ran(id, value));
        }
        set(
            "trace.ns_per_rec",
            ratio(
                ran(SpanId::TraceNext, busy(SpanId::TraceNext) * 1e9),
                get(t, "trace.records"),
            ),
        );
        set("rli.sender.ns_per_observe", per_call(SpanId::SenderObserve));
        set("topo.ns_per_route", per_call(SpanId::TopoRoute));
        set(
            "plane.ns_per_obs",
            ratio(
                ran(SpanId::PlaneHop, plane_hops * 1e9),
                get(t, "plane.metered"),
            ),
        );
        set("plane.query_us", get(t, "t.plane.query_us"));
        set("sim.self_s", Some(sim_self));
        set("sim.self_share", Some(sim_self / run_s));
        set(
            "sim.ns_per_event",
            ratio(Some(sim_self * 1e9), get(t, "sim.events")),
        );
        set("report.finish_s", finish_s);
        set("report.localize_s", localize_s);
        set("ledger.span_cost_ns", get(t, "t.ledger.span_cost_ns"));
        let overhead = get(t, "t.run_s").unwrap_or(f64::NAN) / run_med;
        set("ledger.trace_overhead", Some(overhead));

        let mut band = |text: &str, ok: bool, seen: f64| {
            bands.push(Check {
                law: text.to_string(),
                ok,
                seen: format!("{seen:.3}"),
            });
        };
        band(
            "sim.self_s >= 0 (sampled children never exceed their parent)",
            sim_self >= 0.0,
            sim_self,
        );
        band("ledger.trace_overhead <= 1.25", overhead <= 1.25, overhead);
        if sized {
            match w {
                Workload::FleetE2e => {
                    band(
                        "plane.share >= 0.5 on fleet_e2e",
                        plane_busy / run_s >= 0.5,
                        plane_busy / run_s,
                    );
                    band(
                        "sim.self_share <= 0.3 on fleet_e2e",
                        sim_self / run_s <= 0.3,
                        sim_self / run_s,
                    );
                }
                Workload::IncastEngine => {
                    band(
                        "plane.share <= 0.05 on incast_engine",
                        plane_busy / run_s <= 0.05,
                        plane_busy / run_s,
                    );
                    band(
                        "sim.self_share >= 0.6 on incast_engine",
                        sim_self / run_s >= 0.6,
                        sim_self / run_s,
                    );
                }
                _ => {}
            }
        }

        // ---- the subtractive ladder against the span self times ----------
        if let Some(l) = &session.ladder {
            let step = |name: &str| get(l, &format!("t.ladder.{name}_s"));
            let full = step("full").unwrap_or(f64::NAN);
            let engine = step("engine").unwrap_or(f64::NAN);
            let ingest_total = step("ingest").unwrap_or(engine);
            let planes_total = step("planes").unwrap_or(full);
            let report_s = finish_s.unwrap_or(0.0) + localize_s.unwrap_or(0.0);
            for (step_name, gap_name, ladder_s, span_s) in [
                (
                    "ladder.engine_s",
                    "ladder.gap.engine",
                    engine,
                    sim_self + busy(SpanId::TopoRoute),
                ),
                (
                    "ladder.ingest_s",
                    "ladder.gap.ingest",
                    ingest_total - engine,
                    busy(SpanId::TraceNext) + busy(SpanId::SenderObserve),
                ),
                (
                    "ladder.plane_s",
                    "ladder.gap.plane",
                    planes_total - ingest_total,
                    plane_busy + capture_busy + report_s,
                ),
                (
                    "ladder.detect_s",
                    "ladder.gap.detect",
                    full - planes_total,
                    busy(SpanId::DetectPoll),
                ),
            ] {
                let gap = (ladder_s - span_s).abs() / run_med;
                set(step_name, Some(ladder_s));
                set(gap_name, Some(gap));
                if gap > LADDER_GAP_LIMIT {
                    unresolved.push((step_name, gap));
                }
            }
        }
    }
    if let Some(k) = kernels {
        for (name, value) in k {
            set(name, Some(*value));
        }
    }

    Results {
        workload: w,
        seed: spec.seed,
        scale: spec.scale,
        end_to_end,
        per_layer,
        unresolved,
        span_rows,
        laws,
        bands,
        attempted,
        failed,
    }
}
