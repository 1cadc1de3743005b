//! Differential tests: the streaming, allocation-free hot path must be
//! observationally identical to the seed's batched implementations.
//!
//! * [`rlir_sim::run_tandem_with`] (streaming merge, callback deliveries)
//!   vs the seed's buffer-then-merge (`tests/support/two_pass_tandem.rs`):
//!   byte-identical `Delivery` sequences and queue counters on random
//!   traces, including drop-heavy and tie-heavy regimes.
//! * [`rlir_rli::RliSender::instrument`] (owning) vs `instrument_by_ref`
//!   (borrowing): the same interleaved stream.

use proptest::prelude::*;
use rlir_net::clock::ClockModel;
use rlir_net::packet::{Packet, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
use rlir_rli::{RliSender, StaticPolicy};
use rlir_sim::{
    run_tandem, run_tandem_with, Delivery, FifoQueue, QueueConfig, TandemConfig, TandemResult,
    TandemStats, Verdict,
};
use std::net::Ipv4Addr;

#[path = "support/two_pass_tandem.rs"]
mod two_pass_tandem;

use two_pass_tandem::run_tandem_two_pass;

fn flow(i: u8) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, i, 1),
        1000 + i as u16,
        Ipv4Addr::new(10, 9, 0, 1),
        80,
    )
}

/// Build a sorted regular/cross packet stream from raw proptest tuples.
fn build_stream(raw: &[(u64, u32, u8)], cross: bool, id_base: u64) -> Vec<Packet> {
    let mut v: Vec<Packet> = raw
        .iter()
        .enumerate()
        .map(|(i, (at, size, f))| {
            let at = SimTime::from_nanos(*at);
            let size = 40 + size % 1460;
            if cross {
                Packet::cross(id_base + i as u64, flow(f % 8), size, at)
            } else {
                Packet::regular(id_base + i as u64, flow(f % 8), size, at)
            }
        })
        .collect();
    v.sort_by_key(|p| (p.created_at, p.id));
    v
}

fn tight_cfg(record_cross: bool, cap2: u64) -> TandemConfig {
    TandemConfig {
        switch1: QueueConfig {
            rate_bps: 8_000_000_000,
            capacity_bytes: 16 * 1024,
            processing_delay: SimDuration::from_nanos(500),
        },
        switch2: QueueConfig {
            rate_bps: 8_000_000_000,
            capacity_bytes: cap2,
            processing_delay: SimDuration::from_nanos(500),
        },
        link_delay: SimDuration::from_nanos(100),
        horizon: SimDuration::from_millis(1),
        record_cross,
    }
}

proptest! {
    /// The tentpole equivalence property: on arbitrary sorted traces, the
    /// streaming pipeline yields byte-identical deliveries and counters to
    /// the seed's two-pass merge.
    #[test]
    fn tandem_streaming_equals_two_pass(
        upstream in proptest::collection::vec((0u64..800_000, 0u32..2000, any::<u8>()), 0..300),
        cross in proptest::collection::vec((0u64..800_000, 0u32..2000, any::<u8>()), 0..300),
        record_cross in any::<bool>(),
        cap2 in 2_000u64..40_000
    ) {
        let up = build_stream(&upstream, false, 0);
        let cr = build_stream(&cross, true, 1 << 32);
        let cfg = tight_cfg(record_cross, cap2);

        let streaming = run_tandem(&cfg, up.iter().copied(), cr.iter().copied());
        let two_pass = run_tandem_two_pass(&cfg, up.iter().copied(), cr.iter().copied());

        prop_assert_eq!(&streaming.deliveries, &two_pass.deliveries);
        prop_assert_eq!(
            streaming.sw1().total_arrivals(), two_pass.sw1().total_arrivals());
        prop_assert_eq!(streaming.sw1().total_drops(), two_pass.sw1().total_drops());
        prop_assert_eq!(streaming.sw2().total_drops(), two_pass.sw2().total_drops());
        prop_assert_eq!(streaming.sw2().total_bytes(), two_pass.sw2().total_bytes());
        prop_assert!(
            (streaming.bottleneck_utilization() - two_pass.bottleneck_utilization()).abs()
                == 0.0,
            "utilization drifted"
        );

        // The callback form delivers the same sequence in the same order.
        let mut streamed = Vec::new();
        let stats = run_tandem_with(&cfg, up.iter().copied(), cr.iter().copied(), |d| {
            streamed.push(*d);
        });
        prop_assert_eq!(&streamed, &two_pass.deliveries);
        prop_assert_eq!(stats.sw2.total_arrivals(), two_pass.sw2().total_arrivals());
    }

    /// Shared-timestamp stress: many packets on identical timestamps make
    /// the (time, id) tie-break do all the ordering work.
    #[test]
    fn tandem_equivalence_under_heavy_ties(
        times in proptest::collection::vec(0u64..64, 1..200),
        cap2 in 1_500u64..8_000
    ) {
        let raw: Vec<(u64, u32, u8)> = times
            .iter()
            .enumerate()
            .map(|(i, t)| (t * 1000, 600 + (i as u32 % 5) * 100, (i % 4) as u8))
            .collect();
        let up = build_stream(&raw, false, 0);
        let cr = build_stream(&raw, true, 1 << 32);
        let cfg = tight_cfg(true, cap2);
        let streaming = run_tandem(&cfg, up.iter().copied(), cr.iter().copied());
        let two_pass = run_tandem_two_pass(&cfg, up.into_iter(), cr.into_iter());
        prop_assert_eq!(streaming.deliveries, two_pass.deliveries);
    }
}

/// The owning and borrowing instrument adapters produce the same
/// interleaved stream (deterministic, so a plain test suffices).
#[test]
fn instrument_owning_equals_by_ref() {
    let stream: Vec<Packet> = (0..500)
        .map(|i| Packet::regular(i, flow((i % 5) as u8), 700, SimTime::from_nanos(i * 900)))
        .collect();
    let mk = || {
        RliSender::new(
            SenderId(3),
            ClockModel::perfect(),
            StaticPolicy::one_in(7),
            vec![flow(200)],
        )
    };
    let owned: Vec<Packet> = mk().instrument(stream.iter().copied()).collect();
    let mut sender = mk();
    let by_ref: Vec<Packet> = sender.instrument_by_ref(stream.iter().copied()).collect();
    assert_eq!(owned, by_ref);
    assert_eq!(sender.refs_emitted(), 500 / 7);
}
