//! RLIR on a k=4 fat-tree: the paper's §3 architecture end-to-end.
//!
//! Deploys measurement instances at ToR uplinks and core routers only
//! ("every other switch"), engineers reference streams onto every ECMP
//! path, and demultiplexes regular packets at the receivers with
//! reverse-ECMP computation. Prints segment-level latency estimates and the
//! association accuracy, and contrasts them with the naive (no-demux)
//! configuration the paper warns about.
//!
//! ```sh
//! cargo run --release --example datacenter_fattree
//! ```

use rlir::experiment::{run_fattree, FatTreeExpConfig};
use rlir::CoreDemux;
use rlir_net::time::SimDuration;
use rlir_stats::Ecdf;

fn median(xs: &[f64]) -> f64 {
    Ecdf::new(xs.iter().copied().filter(|x| x.is_finite()).collect())
        .median()
        .unwrap_or(f64::NAN)
}

fn main() {
    let mut cfg = FatTreeExpConfig::paper(7, SimDuration::from_millis(30));
    cfg.demux = CoreDemux::ReverseEcmp;

    println!(
        "k={} fat-tree | {} measured source ToRs → 1 destination ToR | demux: reverse ECMP",
        cfg.k, cfg.n_src_tors
    );
    let out = run_fattree(&cfg);

    println!(
        "\nmeasured packets delivered: {}   references: {} (ToR) + {} (core)",
        out.measured_delivered, out.refs_emitted.0, out.refs_emitted.1
    );
    println!(
        "downstream association: {}/{} correct ({:.1}%)",
        out.demux_correct,
        out.demux_total,
        out.demux_accuracy() * 100.0
    );

    println!("\nper-segment latency (estimated vs true):");
    for s in &out.segments {
        println!(
            "  {:<18} est {:>8.1} µs   true {:>8.1} µs   ({} packets)",
            s.name,
            s.est_mean_ns / 1e3,
            s.true_mean_ns / 1e3,
            s.packets
        );
    }

    println!(
        "\nper-flow median relative error: segment-1 {:.2}%  segment-2 {:.2}%",
        median(&out.seg1_errors) * 100.0,
        median(&out.seg2_errors) * 100.0
    );

    // Contrast with the naive configuration (plain RLI across routers).
    let mut naive_cfg = cfg.clone();
    naive_cfg.demux = CoreDemux::Naive;
    // Heterogeneous path delays are what makes association matter; slow one
    // core slightly so the equal-cost paths genuinely differ.
    let tree = rlir_topo::FatTree::new(cfg.k, cfg.hash);
    naive_cfg.anomaly = Some(rlir::experiment::SwitchAnomaly {
        node: tree.cores().next().expect("a fat-tree has cores"),
        extra_processing: SimDuration::from_micros(150),
    });
    let mut demux_cfg = naive_cfg.clone();
    demux_cfg.demux = CoreDemux::ReverseEcmp;
    let naive = run_fattree(&naive_cfg);
    let demuxed = run_fattree(&demux_cfg);
    println!(
        "\nwith one slowed core (why demultiplexing matters, §3.1):\n  naive RLI-across-routers seg-2 median error: {:.1}%\n  RLIR reverse-ECMP demux  seg-2 median error: {:.1}%",
        median(&naive.seg2_errors) * 100.0,
        median(&demuxed.seg2_errors) * 100.0
    );
}
