//! Workload tooling: generate, persist, reload, divide and meter traces.
//!
//! Demonstrates the substrate that replaces the paper's CAIDA traces and
//! YAF toolchain: the synthetic generator with the paper's two trace
//! presets, the pcap export, the traffic divider from Fig. 3, the
//! NetFlow-style flow meter, and the Multiflow baseline estimator built on
//! its records.
//!
//! ```sh
//! cargo run --release --example trace_tools
//! ```

use rlir_baselines::estimate_all;
use rlir_net::time::{SimDuration, SimTime};
use rlir_trace::pcap::save_pcap;
use rlir_trace::{
    generate, open_pcap, FlowMeter, FlowMeterConfig, TraceConfig, TraceStats, TrafficClass,
    TrafficDivider, UnmatchedPolicy,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let duration = SimDuration::from_millis(40);

    // 1. Generate the paper's two traces (regular ≈22% and cross ≈71% of an
    //    OC-192 link), scaled to 40 ms.
    let regular = generate(&TraceConfig::paper_regular(1, duration));
    let cross = generate(&TraceConfig::paper_cross(1, duration));
    println!("regular trace: {}", TraceStats::compute(&regular));
    println!("cross   trace: {}", TraceStats::compute(&cross));

    // 2. Persist as a nanosecond pcap and stream it back: every record
    //    keeps its packet's timestamp and flow key.
    let dir = std::env::temp_dir().join("rlir-example-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("regular.pcap");
    save_pcap(&regular, &path)?;
    let reloaded = open_pcap(&path)?.collect::<Result<Vec<_>, _>>()?;
    println!(
        "\nsaved + reloaded {} packets via {} ({} bytes on disk)",
        reloaded.len(),
        path.display(),
        std::fs::metadata(&path)?.len()
    );
    assert_eq!(reloaded.len(), regular.packets.len());
    for (r, p) in reloaded.iter().zip(&regular.packets) {
        assert_eq!((r.at, r.flow), (p.created_at, p.flow));
    }

    // 3. Divide a merged stream back into classes by source prefix (Fig. 3's
    //    traffic divider).
    let merged = rlir_trace::merge(&regular, &cross);
    let mut divider = TrafficDivider::new(
        &[
            ("10.1.0.0/16".parse()?, TrafficClass::Regular),
            ("172.16.0.0/14".parse()?, TrafficClass::Cross),
        ],
        UnmatchedPolicy::Drop,
    );
    let divided = divider.divide_all(merged.packets.iter().copied());
    let regulars = divided.iter().filter(|p| p.is_regular()).count();
    let crosses = divided.iter().filter(|p| p.is_cross()).count();
    println!(
        "\ntraffic divider: {} packets in → {} regular + {} cross ({} unmatched dropped)",
        merged.packets.len(),
        regulars,
        crosses,
        divider.dropped()
    );

    // 4. Meter the regular trace YAF-style and run the Multiflow baseline
    //    against a copy of the stream shifted by a constant 12 µs "path".
    let mut upstream = FlowMeter::new(FlowMeterConfig::default());
    let mut downstream = FlowMeter::new(FlowMeterConfig::default());
    let path_delay = SimDuration::from_micros(12);
    for p in &regular.packets {
        upstream.observe(p);
        downstream.observe_at(p.flow, p.created_at + path_delay, p.size);
    }
    let up_records = upstream.finish();
    let down_records = downstream.finish();
    println!(
        "\nflow meter: {} NetFlow records from {} packets",
        up_records.len(),
        regular.packets.len()
    );
    let estimates = estimate_all(&up_records, &down_records);
    let exact = estimates
        .iter()
        .filter(|e| (e.mean_delay_ns - path_delay.as_nanos() as f64).abs() < 1.0)
        .count();
    println!(
        "multiflow baseline: {} per-flow estimates, {} exactly recover the 12 µs constant path delay",
        estimates.len(),
        exact
    );

    // 5. Show a couple of records.
    println!("\nfirst three flow records:");
    for r in up_records.iter().take(3) {
        println!(
            "  {} : {} pkts, {} B, {} → {}",
            r.key,
            r.packets,
            r.bytes,
            r.first,
            SimTime::from_nanos(r.last.as_nanos())
        );
    }
    Ok(())
}
