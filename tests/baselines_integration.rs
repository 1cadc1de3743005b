//! Integration: LDA and Multiflow running on real simulator output, and
//! their qualitative relationship to RLI (experiment A6's invariants).

use rlir_baselines::{estimate_all, Lda, LdaConfig};
use rlir_net::packet::Packet;
use rlir_net::time::SimDuration;
use rlir_sim::{run_network_with, NetDelivery, NullSink, TandemConfig};
use rlir_stats::{relative_error, StreamingStats};
use rlir_trace::{generate, FlowMeter, FlowMeterConfig, TraceConfig};

/// Regular deliveries of `regular` through the paper tandem, `cross`
/// entering the bottleneck.
fn regular_deliveries(regular: &[Packet], cross: &[Packet]) -> Vec<NetDelivery> {
    let tandem = TandemConfig::paper();
    let injections = (regular.iter().map(|p| (TandemConfig::SW1, *p)))
        .chain(cross.iter().map(|p| (TandemConfig::SW2, *p)));
    let mut run = run_network_with(tandem.network(), &tandem, injections, &mut NullSink);
    run.deliveries.retain(|d| d.packet.is_regular());
    run.deliveries
}

#[test]
fn lda_measures_tandem_aggregate_latency() {
    let duration = SimDuration::from_millis(30);
    let trace = generate(&TraceConfig::paper_regular(11, duration));
    let deliveries = regular_deliveries(&trace.packets, &[]);

    let cfg = LdaConfig::default();
    let (mut tx, mut rx) = (Lda::new(cfg), Lda::new(cfg));
    let mut truth = StreamingStats::new();
    for p in &trace.packets {
        tx.record(p.id.0, p.created_at);
    }
    for d in &deliveries {
        rx.record(d.packet.id.0, d.delivered_at);
        truth.push(d.true_delay().as_nanos() as f64);
    }
    let est = Lda::estimate(&tx, &rx).expect("no loss at 22% load");
    let err = relative_error(est.mean_delay_ns, truth.mean().unwrap());
    // No loss → every bucket usable → exact aggregate.
    assert!(err < 1e-9, "LDA aggregate error {err}");
    assert_eq!(est.usable_packets, deliveries.len() as u64);
}

#[test]
fn lda_survives_real_drop_tail_loss() {
    let duration = SimDuration::from_millis(30);
    let trace = generate(&TraceConfig::paper_regular(12, duration));
    let cross = generate(&TraceConfig::paper_cross(12, duration));
    // Full cross: ~93% load, some loss.
    let deliveries = regular_deliveries(&trace.packets, &cross.packets);
    let cfg = LdaConfig::default();
    let (mut tx, mut rx) = (Lda::new(cfg), Lda::new(cfg));
    let mut truth = StreamingStats::new();
    for p in &trace.packets {
        tx.record(p.id.0, p.created_at);
    }
    for d in &deliveries {
        rx.record(d.packet.id.0, d.delivered_at);
        truth.push(d.true_delay().as_nanos() as f64);
    }
    let est = Lda::estimate(&tx, &rx).expect("banks must survive real loss");
    let err = relative_error(est.mean_delay_ns, truth.mean().unwrap());
    assert!(err < 0.10, "LDA aggregate error under loss: {err}");
    assert!(
        est.usable_buckets < est.total_buckets,
        "some buckets should have been corrupted by loss"
    );
}

#[test]
fn multiflow_is_per_flow_but_blind_to_midflow_congestion() {
    let duration = SimDuration::from_millis(30);
    let trace = generate(&TraceConfig::paper_regular(13, duration));
    let cross = generate(&TraceConfig::paper_cross(13, duration));
    let deliveries = regular_deliveries(&trace.packets, &cross.packets);

    let mut up = FlowMeter::new(FlowMeterConfig::default());
    let mut down = FlowMeter::new(FlowMeterConfig::default());
    let mut truth: std::collections::HashMap<_, StreamingStats> = Default::default();
    for p in &trace.packets {
        up.observe(p);
    }
    for d in &deliveries {
        down.observe_at(d.packet.flow, d.delivered_at, d.packet.size);
        truth
            .entry(d.packet.flow)
            .or_default()
            .push(d.true_delay().as_nanos() as f64);
    }
    let ests = estimate_all(&up.finish(), &down.finish());
    assert!(ests.len() > 200, "expected many per-flow estimates");

    // Per-flow coverage exists (unlike LDA), and errors are finite for
    // matched flows; but for long flows the two-sample estimate is cruder
    // than for mice.
    let mut short_errs = Vec::new();
    let mut long_errs = Vec::new();
    for e in &ests {
        let Some(t) = truth.get(&e.flow).and_then(|s| s.mean()) else {
            continue;
        };
        let err = relative_error(e.mean_delay_ns, t);
        if !err.is_finite() {
            continue;
        }
        if e.packets <= 3 {
            short_errs.push(err);
        } else if e.packets >= 20 {
            long_errs.push(err);
        }
    }
    assert!(!short_errs.is_empty() && !long_errs.is_empty());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&long_errs) > mean(&short_errs),
        "two-sample estimates should degrade for long flows: short {} vs long {}",
        mean(&short_errs),
        mean(&long_errs)
    );
}
