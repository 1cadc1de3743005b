//! Integration: the RLIR architecture on the fat-tree — the deployment's
//! layout (§3.1), demultiplexing correctness (A1/A3) and anomaly
//! localization (A5).

use rlir::experiment::{run_fattree, run_fattree_faulted, FatTreeExpConfig, SwitchAnomaly};
use rlir::localization::{localize, LocalizerConfig};
use rlir::{CoreDemux, Deployment};
use rlir_net::time::SimDuration;
use rlir_stats::Ecdf;
use rlir_topo::placement::{formula_interface_pair, formula_tor_pair};
use rlir_topo::{FatTree, Role, TopoId};
use std::collections::BTreeSet;

fn cfg(demux: CoreDemux) -> FatTreeExpConfig {
    let mut c = FatTreeExpConfig::paper(31, SimDuration::from_millis(20));
    c.demux = demux;
    c
}

fn median(xs: &[f64]) -> f64 {
    Ecdf::new(xs.iter().copied().filter(|x| x.is_finite()).collect())
        .median()
        .unwrap_or(f64::NAN)
}

#[test]
fn reverse_ecmp_and_marking_agree_packet_for_packet() {
    // A3: the two downstream strategies must produce identical associations
    // — identical workloads, identical counts.
    let rev = run_fattree(&cfg(CoreDemux::ReverseEcmp));
    let mark = run_fattree(&cfg(CoreDemux::Marking));
    assert_eq!(rev.demux_total, mark.demux_total);
    assert_eq!(rev.demux_correct, mark.demux_correct);
    assert_eq!(rev.demux_correct, rev.demux_total, "reverse ECMP exact");
    assert_eq!(mark.demux_correct, mark.demux_total, "marking exact");
    // And the resulting per-flow tables match in size.
    assert_eq!(
        rev.seg2_flows.flow_count(),
        mark.seg2_flows.flow_count(),
        "same flows estimated under both strategies"
    );
}

#[test]
fn naive_demux_collapses_under_heterogeneous_paths() {
    // A1: slow one core so equal-cost paths diverge; the naive receiver
    // (plain RLI across routers) must then be far worse than RLIR demux.
    let tree = FatTree::new(4, cfg(CoreDemux::Naive).hash);
    let slow_core = Some(SwitchAnomaly {
        node: tree.cores().next().unwrap(),
        extra_processing: SimDuration::from_micros(150),
    });
    let mut naive_cfg = cfg(CoreDemux::Naive);
    naive_cfg.anomaly = slow_core;
    let mut demux_cfg = cfg(CoreDemux::ReverseEcmp);
    demux_cfg.anomaly = slow_core;

    let naive = run_fattree(&naive_cfg);
    let demuxed = run_fattree(&demux_cfg);
    let (n, d) = (median(&naive.seg2_errors), median(&demuxed.seg2_errors));
    assert!(
        n > 2.0 * d,
        "naive median {n} should be far worse than demuxed {d}"
    );
    assert_eq!(naive.demux_unassociated, naive.demux_total);
}

#[test]
fn segment_truth_decomposes_end_to_end_delay() {
    let out = run_fattree(&cfg(CoreDemux::ReverseEcmp));
    // Every segment observation must have a sane positive true mean, and
    // segment-2 must include the destination ToR's queueing (larger than
    // bare link/processing latency).
    assert!(!out.segments.is_empty());
    for s in &out.segments {
        assert!(s.true_mean_ns > 0.0, "{}: non-positive true mean", s.name);
        assert!(
            s.true_mean_ns < 50_000_000.0,
            "{}: implausible true mean {}",
            s.name,
            s.true_mean_ns
        );
    }
}

#[test]
fn localizer_finds_injected_core_fault() {
    let mut c = cfg(CoreDemux::ReverseEcmp);
    let tree = FatTree::new(c.k, c.hash);
    let core = tree.cores().nth(3).unwrap();
    c.anomaly = Some(SwitchAnomaly {
        node: core,
        extra_processing: SimDuration::from_micros(400),
    });
    let out = run_fattree(&c);
    let faulty = tree.node(core).name.clone();
    let findings = localize(&out.segments, &LocalizerConfig::default());
    assert!(!findings.is_empty(), "fault not detected");
    assert!(
        findings[0].name.starts_with(&faulty),
        "blamed {} instead of {}",
        findings[0].name,
        faulty
    );
}

#[test]
fn healthy_fabric_raises_no_alarms() {
    let out = run_fattree(&cfg(CoreDemux::ReverseEcmp));
    let findings = localize(&out.segments, &LocalizerConfig::default());
    assert!(
        findings.is_empty(),
        "false positives on a healthy fabric: {findings:?}"
    );
}

#[test]
fn fattree_run_is_deterministic() {
    let a = run_fattree(&cfg(CoreDemux::ReverseEcmp));
    let b = run_fattree(&cfg(CoreDemux::ReverseEcmp));
    assert_eq!(a.measured_delivered, b.measured_delivered);
    assert_eq!(a.demux_total, b.demux_total);
    assert_eq!(a.refs_emitted, b.refs_emitted);
    assert_eq!(a.seg1_errors, b.seg1_errors);
    assert_eq!(a.seg2_errors, b.seg2_errors);
}

/// A fat-tree run is one simulation: its senders run in-band, so the
/// engine processes each injection, reference and hop once. 193 473 units
/// at seed 42 was the second of two simulations (385 803 in all) when the
/// core senders replayed a first run's crossings. The ToR senders meter
/// exactly the measured traces, since no background traffic originates at
/// a measured ToR.
#[test]
fn a_fattree_run_is_one_simulation() {
    for (seed, events, refs) in [(42, 193_473, (152, 381)), (7, 193_543, (156, 381))] {
        let cfg = FatTreeExpConfig::paper(seed, SimDuration::from_millis(25));
        let run = run_fattree_faulted(&cfg, None, None);
        assert_eq!(run.events, events, "seed {seed}");
        assert_eq!(run.outcome.refs_emitted, refs, "seed {seed}");
    }
}

/// §3.1's instance count, read off the deployment's own rows for one
/// source ToR. An instance sits on an interface: a sender on each source
/// uplink (the core's group fixes it) and at each core, a receiver at each
/// core on the port the source pod's streams arrive by (core port `p`
/// leads to pod `p`), and one on each destination-ToR uplink, the one its
/// core's stream arrives by (the core's group). Cores count twice, as
/// sender and receiver.
#[test]
fn deployment_rows_count_the_paper_instances() {
    for k in [4, 8, 16] {
        let tree = FatTree::new(k, rlir_net::HashAlgo::default());
        let src = tree.tor(0, 0);
        let d = Deployment::for_destination(&tree, &[src], tree.tor(k - 1, 0));
        let role = |n: TopoId| match tree.node(n).role {
            Role::Core { group, .. } => group,
            Role::Tor { pod, .. } | Role::Agg { pod, .. } => pod,
        };
        // `(switch, interface, is a sender)` of every instance the rows of
        // segment-1 receivers in `groups`, and of their cores, use.
        let instances = |groups: &[usize]| {
            let mut set = BTreeSet::new();
            for r in d.receivers() {
                let core = r.tap.node();
                if r.segment == 1 && groups.contains(&role(core)) {
                    set.insert((r.from, role(core), true));
                    set.insert((core, role(r.from), false));
                }
            }
            for r in d.receivers() {
                if r.segment == 2 && set.contains(&(r.from, role(src), false)) {
                    set.insert((r.from, k - 1, true));
                    set.insert((r.tap.node(), role(r.from), false));
                }
            }
            set.len() as u64
        };
        let all: Vec<usize> = (0..k / 2).collect();
        assert_eq!(instances(&all), formula_tor_pair(k), "k = {k}");
        for u in all {
            assert_eq!(instances(&[u]), formula_interface_pair(k), "k = {k}");
        }
    }
}

fn quick_deployment() -> (FatTree, Deployment) {
    let cfg = cfg(CoreDemux::ReverseEcmp);
    let tree = FatTree::new(cfg.k, cfg.hash);
    let d = cfg.deployment(&tree);
    (tree, d)
}

#[test]
fn victim_pool_covers_cores_and_measured_edges() {
    let (tree, d) = quick_deployment();
    let pool = d.victim_pool(&tree);
    // k=4, 2 src ToRs (pods 0 and 1) + dst pod 3: 4 cores + 3 pods × 2 aggs.
    assert_eq!(pool.len(), 4 + 6);
    assert!(pool
        .iter()
        .all(|&v| !matches!(tree.node(v).role, Role::Tor { .. })));
    // Background-only pod 2 is excluded.
    assert!(!pool.contains(&tree.agg(2, 0)));
    // Cores first, then aggregation switches, each in tree order.
    let order: Vec<TopoId> = tree
        .cores()
        .chain(tree.aggs())
        .filter(|n| pool.contains(n))
        .collect();
    assert_eq!(pool, order);
    // Every pool switch lies on at least one segment.
    for &v in &pool {
        assert!(!d.segments_through(v).is_empty(), "{}", tree.node(v).name);
    }
}

#[test]
fn segments_through_follow_paths() {
    let (tree, d) = quick_deployment();
    // Core victim → exactly its C→T row.
    assert_eq!(d.segments_through(tree.core(1, 0)), ["C[1.0]→T[3.0]"]);
    // Destination-pod edge → both cores of its group.
    assert_eq!(
        d.segments_through(tree.agg(3, 0)),
        ["C[0.0]→T[3.0]", "C[0.1]→T[3.0]"]
    );
    // Source-pod edge → its pod's measured ToR times its core group.
    assert_eq!(
        d.segments_through(tree.agg(0, 1)),
        ["T[0.0]→C[1.0]", "T[0.0]→C[1.1]"]
    );
}
