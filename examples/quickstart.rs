//! Quickstart: measure per-flow latency across two switches with RLI.
//!
//! Builds the paper's Fig. 3 environment — regular traffic through two
//! switches, cross traffic at the bottleneck, an RLI sender/receiver pair —
//! runs it, and prints per-flow latency estimates against ground truth.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rlir::experiment::{run_two_hop, CrossSpec, TwoHopConfig};
use rlir_net::time::SimDuration;
use rlir_rli::PolicyKind;
use rlir_stats::ErrorSummary;

fn main() {
    // 50 ms of synthetic OC-192 traffic; static 1-and-100 injection (the
    // paper's worst-case-safe RLIR setting); random cross traffic pushing
    // the bottleneck to 93% utilization.
    let mut cfg = TwoHopConfig::paper(42, SimDuration::from_millis(50));
    cfg.policy = PolicyKind::Static { n: 100 };
    cfg.cross = CrossSpec::Uniform {
        target_utilization: 0.93,
    };

    println!("running the two-hop RLI pipeline …");
    let out = run_two_hop(&cfg);

    println!(
        "bottleneck utilization: {:.1}%   regular loss: {:.4}%   references sent: {}",
        out.utilization * 100.0,
        out.regular_loss * 100.0,
        out.refs_emitted
    );
    println!(
        "receiver: {} packets estimated across {} flows ({} unestimable)",
        out.receiver.estimated,
        out.flows.flow_count(),
        out.receiver.unestimated
    );

    // Show the ten busiest flows: estimated vs true mean latency.
    let mut rows: Vec<_> = out.flows.report(1).collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.packets));
    println!(
        "\n  {:<46} {:>6} {:>12} {:>12} {:>8}",
        "flow", "pkts", "est mean", "true mean", "err"
    );
    for r in rows.iter().take(10) {
        println!(
            "  {:<46} {:>6} {:>9.1} µs {:>9.1} µs {:>7.2}%",
            r.flow.to_string(),
            r.packets,
            r.est_mean / 1e3,
            r.true_mean.unwrap_or(f64::NAN) / 1e3,
            r.mean_rel_err.unwrap_or(f64::NAN) * 100.0
        );
    }

    if let Some(summary) = ErrorSummary::from_samples(&out.mean_errors) {
        println!("\nper-flow mean-latency error: {summary}");
        println!("(the paper reports ≈4.5% median relative error at 93% utilization)");
    }
}
