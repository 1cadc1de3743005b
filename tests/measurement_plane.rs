//! Integration: the RLI measurement plane assembled from its parts —
//! sender instrumentation through wire encoding to receiver estimation —
//! including clock-skew behaviour and reference-loss resilience.

use rlir::plane::{MeasurementPlane, TapPoint, TapSpec, TruthRef};
use rlir_net::clock::{ClockModel, ClockPair};
use rlir_net::packet::{Packet, ReferenceInfo, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
use rlir_rli::{FlowReport, Interpolator, ReceiverConfig, RliReceiver, RliSender, StaticPolicy};
use rlir_sim::{
    run_network_streamed_source, QueueConfig, RunOptions, SortedVecSource, TandemConfig,
};
use std::net::Ipv4Addr;

fn flow(i: u8) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, i),
        4000 + i as u16,
        Ipv4Addr::new(10, 9, 0, 1),
        80,
    )
}

fn ref_target() -> FlowKey {
    FlowKey::udp(
        Ipv4Addr::new(10, 0, 0, 250),
        40_000,
        Ipv4Addr::new(10, 9, 0, 250),
        rlir_net::wire::RLI_UDP_PORT,
    )
}

/// Deliver a packet stream across a synthetic constant+ramp delay path and
/// check the receiver recovers per-flow means.
#[test]
fn sender_to_receiver_closed_loop() {
    let mut sender = RliSender::new(
        SenderId(1),
        ClockModel::perfect(),
        StaticPolicy::one_in(5),
        vec![ref_target()],
    );
    let mut receiver: RliReceiver = RliReceiver::new(ReceiverConfig::for_sender(SenderId(1)));

    // Path delay ramps linearly 10 µs → 20 µs over the run; linear
    // interpolation should track it almost perfectly.
    let n = 500u64;
    let delay_at = |t_ns: u64| 10_000.0 + 10_000.0 * (t_ns as f64 / 5_000_000.0);
    let mut events: Vec<(SimTime, Packet, Option<SimDuration>)> = Vec::new();
    for i in 0..n {
        let at = SimTime::from_nanos(i * 10_000); // 10 µs spacing
        let p = Packet::regular(i, flow((i % 3) as u8), 700, at);
        let d = SimDuration::from_nanos(delay_at(at.as_nanos()) as u64);
        events.push((at + d, p, Some(d)));
        for r in sender.observe(&p) {
            let d = SimDuration::from_nanos(delay_at(at.as_nanos()) as u64);
            events.push((at + d, *r, None));
        }
    }
    events.sort_by_key(|(at, p, _)| (*at, p.id));
    for (at, p, truth) in &events {
        receiver.on_packet(*at, p, *truth);
    }
    let report = receiver.finish();
    assert_eq!(report.counters.refs_accepted, sender.refs_emitted());
    assert!(report.counters.estimated > 400);
    for row in report.flows.report(10) {
        let err = row.mean_rel_err.expect("truth present");
        assert!(err < 0.01, "flow {} err {err}", row.flow);
    }
}

/// Losing reference packets must degrade gracefully: wider brackets, not
/// wrong estimates.
#[test]
fn reference_loss_degrades_gracefully() {
    let run = |drop_every: Option<u64>| {
        let mut sender = RliSender::new(
            SenderId(1),
            ClockModel::perfect(),
            StaticPolicy::one_in(5),
            vec![ref_target()],
        );
        let mut receiver: RliReceiver = RliReceiver::new(ReceiverConfig::for_sender(SenderId(1)));
        let mut refs_seen = 0u64;
        for i in 0..2000u64 {
            let at = SimTime::from_nanos(i * 5_000);
            let p = Packet::regular(i, flow(1), 700, at);
            // Sinusoidal path delay.
            let d = 15_000.0 + 5_000.0 * ((i as f64) / 50.0).sin();
            let d = SimDuration::from_nanos(d as u64);
            receiver.on_packet(at + d, &p, Some(d));
            for r in sender.observe(&p) {
                refs_seen += 1;
                if let Some(k) = drop_every {
                    if refs_seen.is_multiple_of(k) {
                        continue; // reference lost in transit
                    }
                }
                receiver.on_packet(at + d, r, None);
            }
        }
        let rep = receiver.finish();
        let row = rep.flows.report(1).next().unwrap();
        row.mean_rel_err.unwrap()
    };
    let clean = run(None);
    let lossy = run(Some(3)); // every 3rd reference lost
    assert!(clean < 0.05, "clean error {clean}");
    assert!(lossy < 0.10, "lossy error {lossy} should still be small");
    assert!(
        lossy >= clean * 0.5,
        "sanity: loss should not *improve* much"
    );
}

/// Clock offset between sender and receiver biases estimates by exactly the
/// offset — visible in absolute error, invisible in interpolation shape.
#[test]
fn clock_skew_shifts_estimates_by_offset() {
    let offset_ns = 2_500i64;
    let clocks = ClockPair {
        sender: ClockModel::perfect(),
        receiver: ClockModel::with_offset(offset_ns),
    };
    let mut sender = RliSender::new(
        SenderId(1),
        clocks.sender,
        StaticPolicy::one_in(4),
        vec![ref_target()],
    );
    let mut receiver: RliReceiver = RliReceiver::new(ReceiverConfig {
        sender: SenderId(1),
        clock: clocks.receiver,
        interpolator: Interpolator::Linear,
        max_buffer: 1 << 16,
        epoch_ns: None,
    });
    let true_delay = SimDuration::from_micros(30);
    for i in 0..400u64 {
        let at = SimTime::from_nanos(1_000_000 + i * 8_000);
        let p = Packet::regular(i, flow(2), 700, at);
        receiver.on_packet(at + true_delay, &p, Some(true_delay));
        for r in sender.observe(&p) {
            receiver.on_packet(at + true_delay, r, None);
        }
    }
    let rep = receiver.finish();
    let row = rep.flows.report(1).next().unwrap();
    let bias = row.est_mean - row.true_mean.unwrap();
    assert!(
        (bias - offset_ns as f64).abs() < 1.0,
        "bias {bias} should equal the clock offset {offset_ns}"
    );
}

/// A reference as the engine delivered it: its header, when it was
/// injected, and the `created_at` it still carries.
type DeliveredRef = (ReferenceInfo, SimTime, SimTime);

/// Regulars every 10 µs through the two-switch tandem, a reference after
/// every fourth stamped by a sender whose clock runs `offset_ns` ahead,
/// and one plane tap at switch 2's delivery. Returns the injected
/// references, the references as delivered, and the tap's row for the flow.
fn skewed_tandem(offset_ns: i64) -> (Vec<Packet>, Vec<DeliveredRef>, FlowReport) {
    let mut sender = RliSender::new(
        SenderId(1),
        ClockModel::with_offset(offset_ns),
        StaticPolicy::one_in(4),
        vec![ref_target()],
    );
    let mut injections = Vec::new();
    for i in 0..200u64 {
        let p = Packet::regular(i, flow(1), 700, SimTime::from_nanos(10_000 * (i + 1)));
        injections.push((TandemConfig::SW1, p));
        injections.extend(sender.observe(&p).iter().map(|r| (TandemConfig::SW1, *r)));
    }
    let refs: Vec<Packet> = injections
        .iter()
        .map(|&(_, p)| p)
        .filter(Packet::is_reference)
        .collect();

    let queue = QueueConfig {
        rate_bps: 8_000_000_000,
        capacity_bytes: 1_000_000,
        processing_delay: SimDuration::ZERO,
    };
    let tandem = TandemConfig {
        switch1: queue,
        switch2: queue,
        link_delay: SimDuration::from_nanos(100),
    };
    let mut plane = MeasurementPlane::new();
    let mut tap = TapSpec::new("sw2", TapPoint::Delivery(TandemConfig::SW2), SenderId(1));
    tap.truth = TruthRef::SinceInjection;
    tap.ordered = true;
    plane.attach(tap);
    let mut delivered = Vec::new();
    run_network_streamed_source(
        tandem.network(),
        &tandem,
        SortedVecSource::new(injections),
        &mut plane,
        RunOptions::default(),
        |d| {
            if let Some(info) = d.packet.reference_info() {
                delivered.push((info, d.injected_at, d.packet.created_at));
            }
        },
    );
    let report = plane.finish().taps.pop().expect("one tap").report;
    let row = report
        .flows
        .report(1)
        .next()
        .expect("the flow is estimated");
    (refs, delivered, row)
}

/// A skewed sender's reference carries two times: `created_at`, when it
/// entered the network, and `tx_timestamp`, its clock's reading. The
/// engine must deliver the header untouched and inject at `created_at`,
/// and the tap must measure from `tx_timestamp`.
#[test]
fn a_skewed_reference_keeps_its_stamp_through_the_tandem() {
    const OFFSET_NS: i64 = 700;
    let (refs, delivered, skewed) = skewed_tandem(OFFSET_NS);
    assert_eq!(refs.len(), 50);
    assert_eq!(delivered.len(), refs.len(), "no reference is lost");
    for (r, &(info, injected_at, created_at)) in refs.iter().zip(&delivered) {
        let sent = r.reference_info().expect("a reference");
        assert_eq!(info, sent, "the header arrives field for field");
        assert_eq!(injected_at, r.created_at);
        assert_eq!(created_at, r.created_at);
        assert_eq!(
            sent.tx_timestamp,
            r.created_at + SimDuration::from_nanos(OFFSET_NS as u64)
        );
    }

    // The same run on a true clock: the truth is unchanged and every
    // estimate sits exactly the offset higher.
    let (_, _, exact) = skewed_tandem(0);
    assert_eq!(skewed.packets, exact.packets);
    assert_eq!(skewed.true_mean, exact.true_mean);
    assert!(
        (exact.est_mean - skewed.est_mean - OFFSET_NS as f64).abs() < 1e-6,
        "estimate {} on the skewed clock, {} on the true one",
        skewed.est_mean,
        exact.est_mean
    );
}
