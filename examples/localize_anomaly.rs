//! Latency-anomaly localization: the operator workflow RLIR exists for.
//!
//! Injects a processing-delay fault at one core router of a k=4 fat-tree,
//! runs the RLIR measurement plane, and lets the segment-level localizer
//! point at the faulty hop — at the localization granularity the partial
//! deployment affords (upgraded-router to upgraded-router segments).
//!
//! ```sh
//! cargo run --release --example localize_anomaly
//! ```

use rlir::experiment::{run_fattree, FatTreeExpConfig, SwitchAnomaly};
use rlir::localization::{localize, LocalizerConfig};
use rlir_net::time::SimDuration;
use rlir_topo::FatTree;

fn main() {
    let mut cfg = FatTreeExpConfig::paper(21, SimDuration::from_millis(30));
    let tree = FatTree::new(cfg.k, cfg.hash);
    let faulty_core = tree.cores().nth(2).expect("core exists");
    cfg.anomaly = Some(SwitchAnomaly {
        node: faulty_core,
        extra_processing: SimDuration::from_micros(350),
    });
    let faulty = tree.node(faulty_core).name.clone();
    println!(
        "injected fault: +350 µs processing delay at core {faulty} (operator does not know this)\n"
    );

    let out = run_fattree(&cfg);

    println!("segment observations from the RLIR measurement plane:");
    for s in &out.segments {
        println!(
            "  {:<18} est {:>8.1} µs   ({} packets)",
            s.name,
            s.est_mean_ns / 1e3,
            s.packets
        );
    }

    let findings = localize(&out.segments, &LocalizerConfig::default());
    println!();
    if findings.is_empty() {
        println!("no anomaly detected — increase the trace duration or fault size");
        std::process::exit(1);
    }
    for f in &findings {
        println!(
            "ANOMALY: segment {} is {:.1}x slower than the fleet median",
            f.name, f.severity
        );
    }
    let top = &findings[0];
    let correct = top.name.starts_with(&faulty);
    println!(
        "\nlocalization verdict: {} (top finding {} vs injected {})",
        if correct { "CORRECT" } else { "WRONG" },
        top.name,
        faulty
    );
    std::process::exit(if correct { 0 } else { 1 });
}
