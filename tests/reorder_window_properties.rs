//! Property tests for the plane's one reorder structure: the per-tap
//! sorted run.
//!
//! Random per-tap disorder (equal-`at` ties, observations landing one
//! nanosecond either side of a flush bound) against random watermark
//! schedules (small steps, and sprints that close windows early) under
//! random budget / `max_buffer` caps and tenant weights, with tap 0
//! crashing and recovering mid-run. The plane is driven event by event, so
//! the test learns what was admitted the only way an outside observer can:
//! [`MeasurementPlane::approx_state_bytes`] grows by one buffered
//! observation exactly when a reorder run does.
//!
//! The oracle is the same plane with every tap [`TapSpec::ordered`], fed
//! only the survivors, which the test sorts by `(at, tie, id)` itself: they
//! go straight into receivers with the same caps, past no run and no sort,
//! so the window's sort is held to the test's. (A plane no watermark
//! reaches would share the run's sort, and its run would have to go
//! uncapped — which uncaps its receivers' interpolation buffers too.)
//!
//! * a tap that never crashed must report bit-for-bit what the oracle
//!   reports for its admitted observations (flow rows incl. the tail,
//!   per-epoch moments — order-sensitive Welford sums), so nothing late or
//!   shed was ever fed and what was fed arrived in `(at, tie, id)` order;
//! * a crashed tap restarts cold, so its flow table and its epochs from
//!   the resume boundary on equal the oracle's over the survivors admitted
//!   since its last crash;
//! * every observation is admitted, late, shed or lost — the books close;
//! * per tenant `offered == admitted + shed`;
//! * a `tap_down` frees the tap's run before it returns.
//!
//! Half the cases give tap 2 everything that lives in the cold half of a
//! tap record — a meter, a reference map and a `SinceArrivalAt` node list —
//! so the reads an observation makes there are held to the same oracle, and
//! to what the test itself knows was filtered and how long each packet took.
//!
//! A second property puts a live egress tap and two delivered-gated taps on
//! one plane: departures stamped ahead of the watermark and deliveries that
//! both gated taps buffer share the plane's event records, and each tap
//! must still report what a plane of its own, never sent a watermark,
//! reports when fed that tap's observations already in `(at, tie, id)`
//! order.
//!
//! A third property holds the block pool every run lives in to its
//! bookkeeping: eight taps, deliveries crossing random subsets of them
//! often enough between flushes that runs outgrow a block, random
//! watermarks and crashes of random taps. After every event, under the
//! drawn window and under one wider than the run (`SimDuration::MAX`),
//! the blocks in use are exactly Σ ⌈run length / block⌉ and the pool grew
//! only by what its free list could not supply; at the end every tap
//! reports bit for bit what the same events report under the wide window.

use proptest::prelude::*;
use rlir::plane::{
    MeasurementPlane, PlaneConfig, PlaneReport, TapPoint, TapSpec, TruthRef, WindowPool,
};
use rlir_net::packet::{Packet, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
use rlir_rli::{EpochSeries, FlowTable};
use rlir_sim::{Hop, HopEvent, HopKind, HopSink, NodeId};
use std::net::Ipv4Addr;

const TAPS: usize = 3;
/// The host-facing node every synthetic delivery happens at.
const HOST: NodeId = 99;
/// The untapped node every packet enters at, 40–89 ns before its tap.
const ENTRY: NodeId = 5;
/// The flow tap 2's meter refuses when [`Knobs::cold_fields`] is on.
const UNMETERED_FLOW: u8 = 3;

fn tap_node(tap: usize) -> NodeId {
    10 + tap
}

fn flow(i: u8) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, i),
        4000 + i as u16,
        Ipv4Addr::new(10, 9, 0, 1),
        80,
    )
}

/// One crossing of a tap's node, reported by a later delivery.
#[derive(Debug, Clone, Copy)]
struct Obs {
    tap: usize,
    at: u64,
    delivered: u64,
    id: u64,
    reference: bool,
    flow: u8,
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Obs(Obs),
    Watermark(u64),
    Down(u64),
    Up(u64),
}

#[derive(Debug, Clone, Copy)]
struct Knobs {
    window: u64,
    epoch: u64,
    budget: Option<usize>,
    max_buffer: usize,
    weights: (u64, u64),
    /// Tap 2 meters (all but [`UNMETERED_FLOW`]), maps references (drops
    /// every fourth sequence number) and scores since [`ENTRY`].
    cold_fields: bool,
}

/// Whether tap 2's meter or reference map turns the observation away
/// before admission is ever considered.
fn filtered(o: &Obs, k: &Knobs) -> bool {
    k.cold_fields
        && o.tap == 2
        && if o.reference {
            o.id.is_multiple_of(4)
        } else {
            o.flow == UNMETERED_FLOW
        }
}

/// Turn raw draws into a schedule. Watermarks only move forward and no
/// observation time exceeds the watermark it is reported under (the
/// engine's contract); everything else is fair game.
fn schedule(raw: &[(u8, u64, u64, u8)], window: u64) -> Vec<Step> {
    let mut clock = 2 * window;
    let mut down = false;
    let mut steps = Vec::with_capacity(raw.len());
    for (i, &(op, x, y, tap)) in raw.iter().enumerate() {
        let tap = tap as usize % TAPS;
        let obs = |at: u64| {
            Step::Obs(Obs {
                tap,
                at,
                delivered: clock,
                // Later arrivals carry smaller ids, so the id component of
                // the key runs against arrival order too.
                id: (raw.len() - i) as u64,
                reference: y % 5 == 0,
                flow: (y % 4) as u8,
            })
        };
        steps.push(match op {
            // Mostly inside the window, some behind it; quantized so
            // equal observation times are common.
            0..=81 => obs(clock.saturating_sub(x % (window + window / 4)) & !7),
            82..=92 => {
                clock += x % (window / 4) + 1;
                Step::Watermark(clock)
            }
            93..=94 => {
                clock += 2 * window + x % window;
                Step::Watermark(clock)
            }
            // On, one below and one above where a flush bound falls.
            95..=97 => obs((clock - window + y % 3).saturating_sub(1)),
            _ => {
                // Tap 0 only, so taps 1 and 2 stay whole-run comparable.
                // The clock moves first: nothing observed before a crash
                // can share a timestamp with the recovery.
                clock += 1;
                down = !down;
                if down {
                    Step::Down(clock)
                } else {
                    Step::Up(clock)
                }
            }
        });
    }
    steps
}

/// The plane under test, or with `ordered` taps the oracle: the same
/// caps, but nothing buffered, so neither the run's cap nor the budget
/// ever applies.
fn plane<'a>(k: &Knobs, ordered: bool) -> MeasurementPlane<'a> {
    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        reorder_window: SimDuration::from_nanos(k.window),
        epoch: Some(SimDuration::from_nanos(k.epoch)),
        pending_budget: k.budget,
    });
    plane.set_tenant_weight(0, k.weights.0);
    plane.set_tenant_weight(1, k.weights.1);
    for tap in 0..TAPS {
        let mut spec = TapSpec::new(
            format!("t{tap}"),
            TapPoint::NodeArrival(tap_node(tap)),
            SenderId(1),
        );
        spec.delivered_only = true;
        spec.tenant = (tap % 2) as u32;
        spec.max_buffer = k.max_buffer;
        spec.ordered = ordered;
        // A tap that reports a tail, beside three that do not.
        spec.track_quantile = (tap == 1).then_some(0.9);
        if k.cold_fields && tap == 2 {
            spec.truth = TruthRef::SinceArrivalAt(vec![ENTRY]);
            spec.meter = Some(Box::new(|ev| ev.packet.flow != flow(UNMETERED_FLOW)));
            spec.ref_map = Some(Box::new(|info| (info.seq % 4 != 0).then_some(*info)));
        }
        plane.attach(spec);
    }
    plane
}

fn offer(plane: &mut MeasurementPlane<'_>, o: &Obs) {
    let at = SimTime::from_nanos(o.at);
    let sent = SimTime::from_nanos(o.at.saturating_sub(40 + o.id % 50));
    let packet = if o.reference {
        Packet::reference(o.id, flow(9), SenderId(1), o.id as u32, sent)
    } else {
        Packet::regular(o.id, flow(o.flow), 700, sent)
    };
    let hops = [
        Hop {
            node: ENTRY,
            port: 0,
            arrived: sent,
            departed: sent,
        },
        Hop {
            node: tap_node(o.tap),
            port: 0,
            arrived: at,
            departed: at + SimDuration::from_nanos(1),
        },
    ];
    plane.on_hop(&HopEvent {
        kind: HopKind::Deliver,
        node: HOST,
        at: SimTime::from_nanos(o.delivered),
        packet: &packet,
        injected_node: tap_node(o.tap),
        injected_at: sent,
        hops: &hops,
    });
}

fn flow_bits(flows: &FlowTable) -> Vec<u64> {
    let mut bits = vec![flows.flow_count() as u64, flows.estimate_count()];
    for row in flows.report(1) {
        bits.extend([
            row.packets,
            row.est_mean.to_bits(),
            row.est_std.unwrap_or(f64::NAN).to_bits(),
            row.true_mean.unwrap_or(f64::NAN).to_bits(),
            row.true_std.unwrap_or(f64::NAN).to_bits(),
            row.est_quantile.unwrap_or(f64::NAN).to_bits(),
            row.true_quantile.unwrap_or(f64::NAN).to_bits(),
        ]);
    }
    bits
}

/// What feeding decides, per epoch from `from` on (shed observations only
/// ever add to `regulars_seen` / `unestimated`, which the oracle never saw).
fn epoch_bits(epochs: &EpochSeries, from: u64) -> Vec<u64> {
    epochs
        .iter()
        .filter(|e| e.epoch >= from && (e.estimated > 0 || e.refs_accepted > 0))
        .flat_map(|e| {
            [
                e.epoch,
                e.refs_accepted,
                e.estimated,
                e.est_mean().unwrap_or(f64::NAN).to_bits(),
                e.true_mean().unwrap_or(f64::NAN).to_bits(),
            ]
        })
        .collect()
}

fn check(steps: &[Step], k: &Knobs) -> Result<(), TestCaseError> {
    let mut streaming = plane(k, false);
    // Admitted observations, stamped with how often their tap had crashed.
    let mut admitted: Vec<(Obs, u32)> = Vec::new();
    let mut offered = [0u64; TAPS];
    let mut regulars_admitted = [0u64; 2];
    let mut crashes = 0u32;
    let mut last_up = None;
    // Tap 0's admissions since the last watermark: certainly still buffered.
    let mut fresh = 0usize;
    let mut watermark = 0u64;
    let uncapped = k.budget.is_none() && k.max_buffer >= 1 << 22;
    for step in steps {
        match *step {
            Step::Obs(o) => {
                let before = streaming.approx_state_bytes();
                offer(&mut streaming, &o);
                let after = streaming.approx_state_bytes();
                prop_assert!(after >= before, "an observation shrank the state");
                if filtered(&o, k) {
                    prop_assert_eq!(after, before, "a filtered observation was stored");
                    continue;
                }
                offered[o.tap] += 1;
                // No flush bound ever exceeds `watermark - window`, so
                // with nothing to shed it an observation at or above that
                // is admitted — including one exactly on the bound.
                prop_assert!(
                    after > before || !uncapped || o.tap == 0 || o.at + k.window < watermark,
                    "in-window observation refused: at {} under watermark {watermark}",
                    o.at
                );
                if after > before {
                    admitted.push((o, if o.tap == 0 { crashes } else { 0 }));
                    regulars_admitted[o.tap % 2] += u64::from(!o.reference);
                    fresh += usize::from(o.tap == 0);
                }
            }
            Step::Watermark(t) => {
                streaming.on_watermark(SimTime::from_nanos(t));
                watermark = t;
                fresh = 0;
            }
            Step::Down(t) => {
                let before = streaming.approx_state_bytes();
                streaming.tap_down(SimTime::from_nanos(t), tap_node(0));
                let after = streaming.approx_state_bytes();
                prop_assert!(
                    after <= before && (fresh == 0 || after < before),
                    "tap_down left the crashed run behind: {before} -> {after} B, {fresh} buffered"
                );
                crashes += 1;
                fresh = 0;
            }
            Step::Up(t) => {
                streaming.tap_up(SimTime::from_nanos(t), tap_node(0));
                last_up = Some(t);
            }
        }
    }
    let got: PlaneReport = streaming.finish();

    // The oracle sees only survivors: what was admitted, and on the
    // crashed tap only since its last crash.
    let mut oracle = plane(k, true);
    admitted.sort_by_key(|(o, _)| (o.at, o.delivered, o.id));
    for (o, stamp) in &admitted {
        if o.tap != 0 || *stamp == crashes {
            offer(&mut oracle, o);
        }
    }
    let want = oracle.finish();

    for (tap, (g, w)) in got.taps.iter().zip(&want.taps).enumerate() {
        prop_assert_eq!(w.late, 0, "tap {}: the test's sort left disorder", tap);
        prop_assert_eq!(
            flow_bits(&g.report.flows),
            flow_bits(&w.report.flows),
            "tap {}: flow rows drifted from the sorted survivors",
            tap
        );
        let n_admitted = admitted.iter().filter(|(o, _)| o.tap == tap).count() as u64;
        let refused = offered[tap] - n_admitted;
        if tap == 0 && crashes > 0 {
            prop_assert_eq!(g.outages, crashes);
            // A tap still down at the end recovered nothing to compare.
            let still_down = steps
                .iter()
                .rev()
                .find_map(|s| match s {
                    Step::Down(_) => Some(true),
                    Step::Up(_) => Some(false),
                    _ => None,
                })
                .unwrap_or(false);
            if let (false, Some(up)) = (still_down, last_up) {
                let resume = up.div_ceil(k.epoch);
                prop_assert_eq!(
                    epoch_bits(g.epochs(), resume),
                    epoch_bits(w.epochs(), resume),
                    "tap 0: post-recovery epochs drifted from the oracle"
                );
            }
            // Lost = crossings while down or before the resume boundary
            // (refused) + what the crashes destroyed (admitted earlier).
            let destroyed_at_most = admitted
                .iter()
                .filter(|(o, stamp)| o.tap == 0 && *stamp < crashes)
                .count() as u64;
            let books = g.late + g.shed + g.lost_window_obs;
            prop_assert!(
                refused <= books && books <= refused + destroyed_at_most,
                "tap 0 books: refused {refused}, late+shed+lost {books}, destroyable {destroyed_at_most}"
            );
        } else {
            prop_assert_eq!(
                epoch_bits(g.epochs(), 0),
                epoch_bits(w.epochs(), 0),
                "tap {}: epoch moments drifted from the oracle",
                tap
            );
            let (gc, wc) = (g.report.counters, w.report.counters);
            prop_assert_eq!(gc.estimated, wc.estimated);
            prop_assert_eq!(gc.refs_accepted, wc.refs_accepted);
            // Shed observations are seen-but-unestimated; late ones are
            // counted by the plane and never reach the receiver at all.
            prop_assert_eq!(gc.regulars_seen, wc.regulars_seen + g.shed);
            prop_assert_eq!(gc.unestimated, wc.unestimated + g.shed);
            prop_assert_eq!(g.lost_window_obs, 0);
            prop_assert_eq!(
                refused,
                g.late + g.shed,
                "tap {}: refused observations must be late or shed",
                tap
            );
        }
    }
    if k.cold_fields {
        // Equal to the oracle is not enough where both sides read the same
        // cold fields: hold tap 2 to what the test knows.
        let flows = &got.taps[2].report.flows;
        prop_assert!(flows.get(&flow(UNMETERED_FLOW)).is_none());
        for row in flows.report(1) {
            // Every estimate is scored, with the entry-to-tap time.
            let truth = row
                .true_mean
                .expect("SinceArrivalAt([ENTRY]) scores every packet");
            prop_assert!((40.0..90.0).contains(&truth), "truth {}", truth);
        }
        let refs = admitted.iter().filter(|(o, _)| o.tap == 2 && o.reference);
        prop_assert_eq!(
            got.taps[2].report.counters.refs_accepted,
            refs.count() as u64
        );
    }
    for t in &got.tenants {
        prop_assert_eq!(
            t.offered,
            t.admitted + t.shed,
            "tenant {} books do not balance",
            t.id
        );
        prop_assert_eq!(t.admitted, regulars_admitted[t.id as usize]);
    }
    Ok(())
}

/// The node whose port 0 the mixed case's live tap sits on.
const EGRESS: NodeId = 20;

/// One engine event of the mixed live / delivered-gated case.
#[derive(Debug, Clone, Copy)]
enum Mixed {
    /// The packet's last bit leaves [`EGRESS`] at `at` — the engine says so
    /// at dequeue, ahead of the watermark.
    Departure {
        at: u64,
        id: u64,
        flow: u8,
    },
    /// A delivery that crossed gated taps 1 and 2 at `crossed`.
    Delivery {
        crossed: [u64; 2],
        delivered: u64,
        id: u64,
        flow: u8,
    },
    Watermark(u64),
}

/// Every fifth packet is a reference.
fn mixed_packet(id: u64, flow_id: u8, sent: u64) -> Packet {
    let sent = SimTime::from_nanos(sent);
    if id.is_multiple_of(5) {
        Packet::reference(id, flow(9), SenderId(1), id as u32, sent)
    } else {
        Packet::regular(id, flow(flow_id), 700, sent)
    }
}

fn offer_mixed(plane: &mut MeasurementPlane<'_>, ev: &Mixed) {
    match *ev {
        Mixed::Departure { at, id, flow } => {
            let packet = mixed_packet(id, flow, at.saturating_sub(60 + id % 50));
            plane.on_hop(&HopEvent {
                kind: HopKind::Dequeue {
                    port: 0,
                    arrived: packet.created_at,
                },
                node: EGRESS,
                at: SimTime::from_nanos(at),
                packet: &packet,
                injected_node: EGRESS,
                injected_at: packet.created_at,
                hops: &[],
            });
        }
        Mixed::Delivery {
            crossed,
            delivered,
            id,
            flow,
        } => {
            let first = crossed[0].min(crossed[1]);
            let packet = mixed_packet(id, flow, first.saturating_sub(40 + id % 50));
            let hops = [1, 2].map(|tap| Hop {
                node: tap_node(tap),
                port: 0,
                arrived: SimTime::from_nanos(crossed[tap - 1]),
                departed: SimTime::from_nanos(crossed[tap - 1] + 1),
            });
            plane.on_hop(&HopEvent {
                kind: HopKind::Deliver,
                node: HOST,
                at: SimTime::from_nanos(delivered),
                packet: &packet,
                injected_node: ENTRY,
                injected_at: packet.created_at,
                hops: &hops,
            });
        }
        Mixed::Watermark(t) => plane.on_watermark(SimTime::from_nanos(t)),
    }
}

/// A plane holding the mixed case's taps `which` (0: the live egress tap).
fn mixed_plane<'a>(
    reorder_window: SimDuration,
    epoch: u64,
    which: &[usize],
) -> MeasurementPlane<'a> {
    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        reorder_window,
        epoch: Some(SimDuration::from_nanos(epoch)),
        pending_budget: None,
    });
    for &tap in which {
        let point = match tap {
            0 => TapPoint::PortDeparture(EGRESS, 0),
            _ => TapPoint::NodeArrival(tap_node(tap)),
        };
        let mut spec = TapSpec::new(format!("t{tap}"), point, SenderId(1));
        spec.delivered_only = tap != 0;
        spec.track_quantile = Some(0.9);
        plane.attach(spec);
    }
    plane
}

fn check_mixed(raw: &[(u8, u64, u64)], window: u64, epoch: u64) -> Result<(), TestCaseError> {
    let mut clock = 2 * window;
    let mut events = Vec::with_capacity(raw.len());
    for (i, &(op, x, y)) in raw.iter().enumerate() {
        // Smaller ids later, so the id runs against the order records are made in.
        let id = (raw.len() - i) as u64;
        let flow = (y % 4) as u8;
        // Quantized, so equal times are common; still inside the window
        // after rounding down.
        let back = |v: u64| (clock - v % (window - 8)) & !7;
        events.push(match op {
            0..=29 => Mixed::Departure {
                at: (clock + x % (2 * window)) & !7,
                id,
                flow,
            },
            30..=84 => Mixed::Delivery {
                crossed: [back(x), back(y)],
                delivered: clock,
                id,
                flow,
            },
            85..=96 => {
                clock += x % (window / 4) + 1;
                Mixed::Watermark(clock)
            }
            _ => {
                clock += 2 * window + x % window;
                Mixed::Watermark(clock)
            }
        });
    }

    let mut streaming = mixed_plane(SimDuration::from_nanos(window), epoch, &[0, 1, 2]);
    let mut made = 0u64;
    for ev in &events {
        let before = streaming.approx_state_bytes();
        offer_mixed(&mut streaming, ev);
        if !matches!(ev, Mixed::Watermark(_)) {
            made += 1;
            prop_assert!(
                streaming.approx_state_bytes() > before,
                "an in-window observation was refused: {:?}",
                ev
            );
        }
    }
    let got = streaming.finish();
    prop_assert_eq!(got.records_made, made, "one record per buffered event");
    prop_assert!(got.peak_records as u64 <= made);

    for (tap, g) in got.taps.iter().enumerate() {
        // The tap's own observations, in the order it must be fed them.
        let mut own: Vec<(u64, u64, u64, &Mixed)> = events
            .iter()
            .enumerate()
            .filter_map(|(i, ev)| match *ev {
                // A live tap's tie is the order the engine reported in.
                Mixed::Departure { at, id, .. } if tap == 0 => Some((at, i as u64, id, ev)),
                Mixed::Delivery {
                    crossed,
                    delivered,
                    id,
                    ..
                } if tap != 0 => Some((crossed[tap - 1], delivered, id, ev)),
                _ => None,
            })
            .collect();
        own.sort_by_key(|&(at, tie, id, _)| (at, tie, id));
        // Never sent a watermark: the whole run, sorted at `finish()`.
        let mut oracle = mixed_plane(SimDuration::from_nanos(window), epoch, &[tap]);
        for (_, _, _, ev) in &own {
            offer_mixed(&mut oracle, ev);
        }
        let want = oracle.finish();
        let w = &want.taps[0];
        prop_assert_eq!(g.late + g.shed + g.lost_window_obs, 0);
        prop_assert_eq!(
            flow_bits(&g.report.flows),
            flow_bits(&w.report.flows),
            "tap {}: flow rows drifted from its own pre-sorted oracle",
            tap
        );
        prop_assert_eq!(
            epoch_bits(g.epochs(), 0),
            epoch_bits(w.epochs(), 0),
            "tap {}: epoch moments drifted",
            tap
        );
        let (gc, wc) = (g.report.counters, w.report.counters);
        prop_assert_eq!(
            (gc.regulars_seen, gc.refs_accepted, gc.estimated),
            (wc.regulars_seen, wc.refs_accepted, wc.estimated)
        );
        prop_assert_eq!(gc.regulars_seen + gc.refs_accepted, own.len() as u64);
    }
    Ok(())
}

/// Taps of the pool case, tap `i` at [`tap_node`]`(i)`.
const POOL_TAPS: usize = 8;

/// One event of the pool case.
#[derive(Debug, Clone, Copy)]
enum PoolStep {
    /// A delivery that crossed tap `i` at `crossed[i]` for every bit `i`
    /// of `mask`.
    Delivery {
        mask: u8,
        crossed: [u64; POOL_TAPS],
        delivered: u64,
        id: u64,
        flow: u8,
    },
    Watermark(u64),
    Down(u64, usize),
    Up(u64, usize),
}

/// Mostly deliveries, so runs outgrow a block between flushes; every
/// crossing inside the window, so the streaming plane refuses nothing the
/// oracle admits.
fn pool_schedule(raw: &[(u8, u64, u64)], window: u64) -> Vec<PoolStep> {
    let mut clock = 2 * window;
    let mut down = [false; POOL_TAPS];
    let mut steps = Vec::with_capacity(raw.len());
    for (i, &(op, x, y)) in raw.iter().enumerate() {
        steps.push(match op {
            0..=93 => PoolStep::Delivery {
                mask: y as u8 | 1 << (x % 8),
                // Quantized, so equal times are common; still inside the
                // window after rounding down.
                crossed: std::array::from_fn(|tap| {
                    let back = (x ^ y.rotate_left(9 * tap as u32)) % (window - 8);
                    (clock - back) & !7
                }),
                delivered: clock,
                // Smaller ids later, against the order records are made in.
                id: (raw.len() - i) as u64,
                flow: (y % 4) as u8,
            },
            94..=97 => {
                clock += x % (window / 16) + 1;
                PoolStep::Watermark(clock)
            }
            98 => {
                clock += 2 * window + x % window;
                PoolStep::Watermark(clock)
            }
            _ => {
                clock += 1;
                let tap = (y % POOL_TAPS as u64) as usize;
                down[tap] = !down[tap];
                if down[tap] {
                    PoolStep::Down(clock, tap)
                } else {
                    PoolStep::Up(clock, tap)
                }
            }
        });
    }
    steps
}

fn pool_plane<'a>(reorder_window: SimDuration, epoch: u64) -> MeasurementPlane<'a> {
    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        reorder_window,
        epoch: Some(SimDuration::from_nanos(epoch)),
        pending_budget: None,
    });
    for tap in 0..POOL_TAPS {
        let point = TapPoint::NodeArrival(tap_node(tap));
        let mut spec = TapSpec::new(format!("t{tap}"), point, SenderId(1));
        spec.delivered_only = true;
        spec.track_quantile = (tap % 2 == 1).then_some(0.9);
        plane.attach(spec);
    }
    plane
}

fn offer_pool(plane: &mut MeasurementPlane<'_>, step: &PoolStep) {
    match *step {
        PoolStep::Delivery {
            mask,
            crossed,
            delivered,
            id,
            flow: flow_id,
        } => {
            let hops: Vec<Hop> = (0..POOL_TAPS)
                .filter(|tap| mask >> tap & 1 == 1)
                .map(|tap| Hop {
                    node: tap_node(tap),
                    port: 0,
                    arrived: SimTime::from_nanos(crossed[tap]),
                    departed: SimTime::from_nanos(crossed[tap] + 1),
                })
                .collect();
            let first = hops
                .iter()
                .map(|h| h.arrived)
                .min()
                .expect("a tap bit is set");
            let sent = SimTime::from_nanos(first.as_nanos().saturating_sub(40 + id % 50));
            let packet = if id.is_multiple_of(5) {
                Packet::reference(id, flow(9), SenderId(1), id as u32, sent)
            } else {
                Packet::regular(id, flow(flow_id), 700, sent)
            };
            plane.on_hop(&HopEvent {
                kind: HopKind::Deliver,
                node: HOST,
                at: SimTime::from_nanos(delivered),
                packet: &packet,
                injected_node: ENTRY,
                injected_at: sent,
                hops: &hops,
            });
        }
        PoolStep::Watermark(t) => plane.on_watermark(SimTime::from_nanos(t)),
        PoolStep::Down(t, tap) => plane.tap_down(SimTime::from_nanos(t), tap_node(tap)),
        PoolStep::Up(t, tap) => plane.tap_up(SimTime::from_nanos(t), tap_node(tap)),
    }
}

/// The pool's books after `step`, given how it stood before: every block
/// in use belongs to a run that needs it, and only a delivery — whose
/// entries only ever take blocks — may grow the pool, by what the free
/// list could not supply.
fn pool_books(
    plane: &MeasurementPlane<'_>,
    before: WindowPool,
    step: &PoolStep,
) -> Result<WindowPool, TestCaseError> {
    let pool = plane.window_pool();
    let needed: usize = (0..POOL_TAPS)
        .map(|tap| plane.pending(tap).div_ceil(pool.block_entries))
        .sum();
    prop_assert_eq!(
        pool.blocks - pool.free,
        needed,
        "blocks in use vs Σ ⌈len / block⌉ after {:?}",
        step
    );
    prop_assert!(pool.blocks >= before.blocks, "the pool shrank");
    let grew = pool.blocks - before.blocks;
    let taken = needed.saturating_sub(before.blocks - before.free);
    let may_grow = match step {
        PoolStep::Delivery { .. } => taken.saturating_sub(before.free),
        _ => 0,
    };
    prop_assert_eq!(
        grew,
        may_grow,
        "the pool grew with {} blocks free: {:?}",
        before.free,
        step
    );
    Ok(pool)
}

fn check_pool(raw: &[(u8, u64, u64)], window: u64, epoch: u64) -> Result<(), TestCaseError> {
    let steps = pool_schedule(raw, window);
    let mut planes = [
        pool_plane(SimDuration::from_nanos(window), epoch),
        pool_plane(SimDuration::MAX, epoch),
    ];
    let mut pools = planes.each_ref().map(|p| p.window_pool());
    for step in &steps {
        for (plane, pool) in planes.iter_mut().zip(&mut pools) {
            offer_pool(plane, step);
            *pool = pool_books(plane, *pool, step)?;
        }
    }
    let [got, want] = planes.map(MeasurementPlane::finish);

    for (tap, (g, w)) in got.taps.iter().zip(&want.taps).enumerate() {
        prop_assert_eq!(g.late + g.shed, 0, "tap {}: refused in-window input", tap);
        prop_assert_eq!(
            flow_bits(&g.report.flows),
            flow_bits(&w.report.flows),
            "tap {}: flow rows drifted from the whole-run window",
            tap
        );
        prop_assert_eq!(g.outages, w.outages);
        // A crashed tap restarts cold at both widths: compare from its last
        // resume boundary on, unless it ended down.
        let last = steps.iter().rev().find_map(|s| match *s {
            PoolStep::Down(_, t) if t == tap => Some(None),
            PoolStep::Up(at, t) if t == tap => Some(Some(at.div_ceil(epoch))),
            _ => None,
        });
        match last {
            None => {
                prop_assert_eq!(epoch_bits(g.epochs(), 0), epoch_bits(w.epochs(), 0));
                let (gc, wc) = (g.report.counters, w.report.counters);
                prop_assert_eq!(
                    (
                        gc.regulars_seen,
                        gc.refs_accepted,
                        gc.estimated,
                        gc.unestimated
                    ),
                    (
                        wc.regulars_seen,
                        wc.refs_accepted,
                        wc.estimated,
                        wc.unestimated
                    )
                );
            }
            Some(Some(resume)) => prop_assert_eq!(
                epoch_bits(g.epochs(), resume),
                epoch_bits(w.epochs(), resume),
                "tap {}: post-recovery epochs drifted",
                tap
            ),
            Some(None) => {}
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn every_run_holds_the_blocks_it_needs_and_feeds_what_the_oracle_feeds(
        raw in proptest::collection::vec((0u8..100, 0u64..100_000, any::<u64>()), 200..2_500),
        window in 256u64..4_000,
        epoch in 500u64..5_000,
    ) {
        check_pool(&raw, window, epoch)?;
    }

    #[test]
    fn live_and_gated_taps_share_one_planes_records(
        raw in proptest::collection::vec((0u8..100, 0u64..100_000, 0u64..100_000), 60..500),
        window in 64u64..600,
        epoch in 100u64..1_500,
    ) {
        check_mixed(&raw, window, epoch)?;
    }

    #[test]
    fn streaming_window_equals_buffered_sort_on_survivors(
        raw in proptest::collection::vec((0u8..100, 0u64..100_000, 0u64..1_000, 0u8..3), 60..500),
        window in 64u64..600,
        epoch in 100u64..1_500,
        budget in 0usize..64,
        max_buffer in 0usize..32,
        // One argument: the vendored proptest takes at most six.
        weights_and_cold_fields in ((1u64..5, 1u64..5), any::<bool>()),
    ) {
        let (weights, cold_fields) = weights_and_cold_fields;
        // A third of the cases run uncapped on either axis.
        let budget = (budget >= 20).then(|| budget - 16);
        let max_buffer = if max_buffer < 10 { 1 << 22 } else { max_buffer - 8 };
        let k = Knobs { window, epoch, budget, max_buffer, weights, cold_fields };
        check(&schedule(&raw, window), &k)?;
    }
}
