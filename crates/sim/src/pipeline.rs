//! The two-switch tandem pipeline of the paper's Fig. 3.
//!
//! ```text
//!  regular (+ reference) ──▶ [Switch 1] ──link──▶ [Switch 2] ──▶ deliveries
//!  cross traffic ────────────────────────────────▶    ↑
//! ```
//!
//! Regular traffic (already interleaved with the RLI sender's reference
//! packets) traverses both switches; cross traffic is released by the
//! injector directly onto the bottleneck (switch 2). Because each switch is
//! an analytic FIFO ([`crate::queue::FifoQueue`]), the whole tandem runs as
//! a single streaming merge — no event heap and, in the
//! [`run_tandem_with`] form, no intermediate buffering at all: each
//! upstream packet is pushed through switch 1 the moment the sorted merge
//! needs it, and deliveries are handed to a callback instead of being
//! collected. That keeps the paper's utilization sweeps (Figs. 4–5) cheap
//! *and* allocation-free per packet.
//!
//! The seed's two-pass implementation (buffer all switch-1 survivors, then
//! merge) is the oracle the streaming path is differentially tested
//! against; it lives with the tests, in `tests/support/two_pass_tandem.rs`.
//!
//! Per-packet ground truth (ingress, switch-1 egress, delivery) is recorded
//! so the measurement plane can be evaluated against true delays.

use crate::queue::{FifoQueue, QueueConfig, Verdict};
use rlir_net::packet::Packet;
use rlir_net::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Tandem configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TandemConfig {
    /// First (sender-side) switch.
    pub switch1: QueueConfig,
    /// Second (bottleneck, receiver-side) switch.
    pub switch2: QueueConfig,
    /// Propagation delay of the link between them.
    pub link_delay: SimDuration,
    /// Measurement horizon (normally the trace duration); used for
    /// utilization accounting.
    pub horizon: SimDuration,
    /// Also report deliveries for *cross-traffic* packets (switch-2
    /// ingress → egress records with `sw1_egress = None`).
    ///
    /// This flag changes **only** what the delivery callback/`Vec` sees —
    /// cross packets always traverse switch 2, load it identically and are
    /// always counted in the per-class queue counters
    /// ([`FifoQueue::cross`]) whether or not their deliveries are
    /// reported. Loss accounting therefore never depends on this flag:
    /// [`TandemStats::regular_loss_rate`] / `reference_loss_rate` read the
    /// counters, and cross drops are visible via the queue's cross class
    /// either way. Keep it `false` on hot paths (cross deliveries are most
    /// of the volume at high utilization and usually unconsumed).
    pub record_cross: bool,
}

impl TandemConfig {
    /// Paper-style defaults: two OC-192 switches, 5 µs of fibre between them.
    pub fn paper(horizon: SimDuration) -> Self {
        TandemConfig {
            switch1: QueueConfig::oc192(),
            switch2: QueueConfig::oc192(),
            link_delay: SimDuration::from_micros(5),
            horizon,
            record_cross: false,
        }
    }
}

/// Ground-truth record of one delivered packet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Delivery {
    /// The packet as it left the network.
    pub packet: Packet,
    /// When it entered the measured segment (switch-1 ingress for regular and
    /// reference packets; switch-2 ingress for cross traffic).
    pub sent_at: SimTime,
    /// Departure from switch 1 (`None` for cross traffic, which bypasses it).
    pub sw1_egress: Option<SimTime>,
    /// Departure from switch 2 — the delivery time at the RLI receiver.
    pub delivered_at: SimTime,
}

impl Delivery {
    /// True one-way delay across the measured segment.
    pub fn true_delay(&self) -> SimDuration {
        self.delivered_at.saturating_since(self.sent_at)
    }
}

/// Final queue state of a tandem run — everything except the per-packet
/// deliveries, which the streaming API hands to a callback instead.
#[derive(Debug, Clone)]
pub struct TandemStats {
    /// Final switch-1 state (counters, utilization).
    pub sw1: FifoQueue,
    /// Final switch-2 state (counters, utilization).
    pub sw2: FifoQueue,
    /// The measurement horizon.
    pub horizon: SimDuration,
}

impl TandemStats {
    /// Bottleneck (switch 2) utilization over the horizon.
    pub fn bottleneck_utilization(&self) -> f64 {
        self.sw2.utilization(self.horizon)
    }

    /// End-to-end loss rate of *regular* packets: fraction of regular packets
    /// offered to switch 1 that never left switch 2.
    pub fn regular_loss_rate(&self) -> f64 {
        let offered = self.sw1.regular().arrivals;
        if offered == 0 {
            return 0.0;
        }
        let delivered = offered - self.sw1.regular().drops - self.sw2.regular().drops;
        1.0 - delivered as f64 / offered as f64
    }

    /// End-to-end loss rate of reference packets.
    pub fn reference_loss_rate(&self) -> f64 {
        let offered = self.sw1.reference().arrivals;
        if offered == 0 {
            return 0.0;
        }
        let delivered = offered - self.sw1.reference().drops - self.sw2.reference().drops;
        1.0 - delivered as f64 / offered as f64
    }
}

/// Output of a buffering tandem run ([`run_tandem`]).
#[derive(Debug, Clone)]
pub struct TandemResult {
    /// Deliveries in delivery-time order.
    pub deliveries: Vec<Delivery>,
    /// Final queue state.
    pub stats: TandemStats,
}

impl TandemResult {
    /// Final switch-1 state (counters, utilization).
    pub fn sw1(&self) -> &FifoQueue {
        &self.stats.sw1
    }

    /// Final switch-2 state (counters, utilization).
    pub fn sw2(&self) -> &FifoQueue {
        &self.stats.sw2
    }

    /// Bottleneck (switch 2) utilization over the horizon.
    pub fn bottleneck_utilization(&self) -> f64 {
        self.stats.bottleneck_utilization()
    }

    /// End-to-end loss rate of regular packets.
    pub fn regular_loss_rate(&self) -> f64 {
        self.stats.regular_loss_rate()
    }

    /// End-to-end loss rate of reference packets.
    pub fn reference_loss_rate(&self) -> f64 {
        self.stats.reference_loss_rate()
    }
}

/// Upstream packets staged through switch 1 per merge round. Large enough
/// to amortise phase switches and keep each pass prefetcher-friendly,
/// small enough that the reused buffers stay cache-resident
/// (~190 KiB total) regardless of trace length.
const STAGE_CHUNK: usize = 1024;

/// Run the tandem, streaming each [`Delivery`] to `on_delivery` in
/// delivery-time order.
///
/// `upstream` is the time-ordered regular (+ reference) stream entering
/// switch 1; `cross` is the time-ordered cross stream entering switch 2
/// directly. Both iterators must be sorted by `created_at`.
///
/// This is the hot path. It runs in bounded *rounds* over three pre-sized
/// buffers that are reused for the whole run (no per-packet allocation, no
/// trace-length buffers): a chunk of upstream packets is pushed through
/// switch 1 in one tight pass, merged with the cross stream into switch 2
/// in a second pass, and the resulting deliveries are handed to the
/// callback in a third. The phases keep each pass's working set small (the
/// property that made the seed's two-pass layout fast) while memory stays
/// O(chunk) instead of O(trace). Deliveries for cross packets are reported
/// only when [`TandemConfig::record_cross`] is set, matching the buffering
/// API.
pub fn run_tandem_with(
    cfg: &TandemConfig,
    upstream: impl Iterator<Item = Packet>,
    cross: impl Iterator<Item = Packet>,
    mut on_delivery: impl FnMut(&Delivery),
) -> TandemStats {
    let mut sw1 = FifoQueue::new(cfg.switch1);
    let mut sw2 = FifoQueue::new(cfg.switch2);
    let mut upstream = upstream.fuse();
    let mut cross = cross.peekable();

    // Reused round buffers (allocated once, pre-sized).
    let mut stage: Vec<(Packet, SimTime, SimTime)> = Vec::with_capacity(STAGE_CHUNK);
    let mut out: Vec<Delivery> = Vec::with_capacity(STAGE_CHUNK);

    loop {
        // Phase 1: stage the next chunk of switch-1 survivors. Switch-1
        // arrival order depends only on the upstream sequence, so this
        // pass is exact regardless of chunking.
        stage.clear();
        while stage.len() < STAGE_CHUNK {
            let Some(p) = upstream.next() else { break };
            match sw1.offer(p.created_at, &p) {
                Verdict::Departs(egress) => {
                    stage.push((p, egress, egress + cfg.link_delay));
                }
                Verdict::Dropped => {}
            }
        }
        let upstream_done = stage.len() < STAGE_CHUNK;

        // Phase 2: merge the staged run with the cross stream into switch
        // 2. Cross packets beyond the last staged arrival stay queued for
        // the next round — every future switch-1 arrival is no earlier
        // than the current chunk's last, so holding them is exact.
        out.clear();
        for &(p, egress1, at2) in &stage {
            while let Some(c) = cross.peek() {
                // Deterministic tie-break on (time, id).
                if (c.created_at, c.id) < (at2, p.id) {
                    let c = cross.next().expect("peeked");
                    let at = c.created_at;
                    if let Verdict::Departs(dep) = sw2.offer(at, &c) {
                        if cfg.record_cross {
                            out.push(Delivery {
                                packet: c,
                                sent_at: at,
                                sw1_egress: None,
                                delivered_at: dep,
                            });
                        }
                    }
                } else {
                    break;
                }
            }
            if let Verdict::Departs(dep) = sw2.offer(at2, &p) {
                out.push(Delivery {
                    packet: p,
                    sent_at: p.created_at,
                    sw1_egress: Some(egress1),
                    delivered_at: dep,
                });
            }
        }
        if upstream_done {
            // Final round: drain the remaining cross stream.
            for c in cross.by_ref() {
                let at = c.created_at;
                if let Verdict::Departs(dep) = sw2.offer(at, &c) {
                    if cfg.record_cross {
                        out.push(Delivery {
                            packet: c,
                            sent_at: at,
                            sw1_egress: None,
                            delivered_at: dep,
                        });
                    }
                }
            }
        }

        // Phase 3: hand the round's deliveries downstream, in order.
        for d in &out {
            on_delivery(d);
        }
        if upstream_done {
            break;
        }
    }

    TandemStats {
        sw1,
        sw2,
        horizon: cfg.horizon,
    }
}

/// Run the tandem, collecting deliveries into a `Vec` (convenience wrapper
/// over [`run_tandem_with`] for tests and analyses that want the full
/// ground-truth log in memory).
pub fn run_tandem(
    cfg: &TandemConfig,
    upstream: impl Iterator<Item = Packet>,
    cross: impl Iterator<Item = Packet>,
) -> TandemResult {
    let (lo, hi) = upstream.size_hint();
    let mut deliveries = Vec::with_capacity(hi.unwrap_or(lo));
    let stats = run_tandem_with(cfg, upstream, cross, |d| deliveries.push(*d));
    // Deliveries were pushed in switch-2 *arrival* order, which equals
    // departure order for a FIFO — already sorted by delivered_at.
    debug_assert!(deliveries
        .windows(2)
        .all(|w| w[0].delivered_at <= w[1].delivered_at));
    TandemResult { deliveries, stats }
}

#[cfg(test)]
#[path = "../../../tests/support/two_pass_tandem.rs"]
mod two_pass_tandem;

#[cfg(test)]
mod tests {
    use super::two_pass_tandem::run_tandem_two_pass;
    use super::*;
    use rlir_net::FlowKey;
    use std::net::Ipv4Addr;

    fn cfg() -> TandemConfig {
        TandemConfig {
            switch1: QueueConfig {
                rate_bps: 8_000_000_000, // 1 B/ns
                capacity_bytes: 1_000_000,
                processing_delay: SimDuration::ZERO,
            },
            switch2: QueueConfig {
                rate_bps: 8_000_000_000,
                capacity_bytes: 1_000_000,
                processing_delay: SimDuration::ZERO,
            },
            link_delay: SimDuration::from_nanos(100),
            horizon: SimDuration::from_millis(1),
            record_cross: false,
        }
    }

    fn reg(id: u64, at_ns: u64, size: u32) -> Packet {
        Packet::regular(
            id,
            FlowKey::tcp(Ipv4Addr::new(10, 1, 0, 1), 1, Ipv4Addr::new(10, 2, 0, 1), 2),
            size,
            SimTime::from_nanos(at_ns),
        )
    }

    fn crs(id: u64, at_ns: u64, size: u32) -> Packet {
        Packet::cross(
            id,
            FlowKey::udp(
                Ipv4Addr::new(172, 16, 0, 1),
                3,
                Ipv4Addr::new(172, 20, 0, 1),
                4,
            ),
            size,
            SimTime::from_nanos(at_ns),
        )
    }

    #[test]
    fn single_packet_end_to_end_delay() {
        let r = run_tandem(
            &cfg(),
            vec![reg(1, 0, 1000)].into_iter(),
            std::iter::empty(),
        );
        assert_eq!(r.deliveries.len(), 1);
        let d = r.deliveries[0];
        // sw1: 1000 ns tx; link: 100 ns; sw2: 1000 ns tx → 2100 ns.
        assert_eq!(d.delivered_at.as_nanos(), 2100);
        assert_eq!(d.true_delay().as_nanos(), 2100);
        assert_eq!(d.sw1_egress, Some(SimTime::from_nanos(1000)));
    }

    #[test]
    fn cross_traffic_delays_regular() {
        // A big cross packet hogs switch 2 just before the regular packet
        // arrives there.
        let r = run_tandem(
            &cfg(),
            vec![reg(1, 0, 1000)].into_iter(),
            vec![crs(2, 1000, 9000)].into_iter(),
        );
        let d = r.deliveries[0];
        // Regular reaches sw2 at 1100; cross started service at 1000 and
        // holds the server until 10_000; regular then serialises by 11_000.
        assert_eq!(d.delivered_at.as_nanos(), 11_000);
    }

    #[test]
    fn cross_bypasses_switch1() {
        let mut c = cfg();
        c.record_cross = true;
        let r = run_tandem(&c, std::iter::empty(), vec![crs(1, 50, 500)].into_iter());
        assert_eq!(r.deliveries.len(), 1);
        let d = r.deliveries[0];
        assert_eq!(d.sw1_egress, None);
        assert_eq!(d.delivered_at.as_nanos(), 550);
        assert_eq!(r.sw1().total_arrivals(), 0);
    }

    #[test]
    fn deliveries_sorted_by_delivery_time() {
        let upstream: Vec<Packet> = (0..200).map(|i| reg(i, i * 50, 400)).collect();
        let cross: Vec<Packet> = (0..200).map(|i| crs(1000 + i, i * 73, 600)).collect();
        let mut c = cfg();
        c.record_cross = true;
        let r = run_tandem(&c, upstream.into_iter(), cross.into_iter());
        assert_eq!(r.deliveries.len(), 400);
        for w in r.deliveries.windows(2) {
            assert!(w[0].delivered_at <= w[1].delivered_at);
        }
    }

    #[test]
    fn loss_accounting_end_to_end() {
        // Tiny switch-2 buffer forces drops there.
        let mut c = cfg();
        c.switch2.capacity_bytes = 1500;
        // Regular 1 leaves sw1 at 1500 ns and reaches sw2 at 1600 ns;
        // regular 2 follows a full service time later (reaches sw2 at 3100).
        let upstream = vec![reg(1, 0, 1500), reg(2, 10, 1500)];
        // The cross packet starts sw2 service at 1550 ns and holds 1450 B of
        // backlog when regular 1 arrives → regular 1 is tail-dropped; by the
        // time regular 2 arrives the buffer has drained.
        let cross = vec![crs(3, 1550, 1500)];
        let r = run_tandem(&c, upstream.into_iter(), cross.into_iter());
        assert!(r.regular_loss_rate() > 0.0, "expected regular loss");
        let lost = r.sw2().regular().drops;
        assert_eq!(lost, 1, "exactly one regular drop at sw2");
        assert_eq!(r.deliveries.len(), 1); // one regular made it (cross unrecorded)
    }

    #[test]
    fn utilization_reflects_cross_injection() {
        // 1 ms horizon; cross only: 500 packets × 1000 B × 1 ns/B = 0.5 ms busy.
        let cross: Vec<Packet> = (0..500).map(|i| crs(i, i * 2000, 1000)).collect();
        let r = run_tandem(&cfg(), std::iter::empty(), cross.into_iter());
        let u = r.bottleneck_utilization();
        assert!((u - 0.5).abs() < 0.01, "utilization {u}");
    }

    #[test]
    fn reference_loss_rate_separate() {
        let mut c = cfg();
        c.switch1.capacity_bytes = 1000; // drop refs at sw1 when full
        let flow = FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2);
        let upstream = vec![
            reg(1, 0, 1000),
            Packet::reference(2, flow, rlir_net::SenderId(0), 0, SimTime::from_nanos(1)),
        ];
        let r = run_tandem(&c, upstream.into_iter(), std::iter::empty());
        assert_eq!(r.reference_loss_rate(), 1.0);
        assert_eq!(r.regular_loss_rate(), 0.0);
    }

    /// `record_cross` gates only delivery *reporting* — queue counters and
    /// loss accounting are identical either way (the documented contract).
    #[test]
    fn record_cross_gates_reporting_not_accounting() {
        let mut with = cfg();
        with.record_cross = true;
        with.switch2.capacity_bytes = 2_000; // forces cross + regular drops
        let mut without = with;
        without.record_cross = false;

        let upstream: Vec<Packet> = (0..80).map(|i| reg(1000 + i, i * 300, 800)).collect();
        let cross: Vec<Packet> = (0..80).map(|i| crs(i, i * 290, 900)).collect();

        let a = run_tandem(&with, upstream.iter().copied(), cross.iter().copied());
        let b = run_tandem(&without, upstream.iter().copied(), cross.iter().copied());

        // Reporting differs: only the recording run emits cross deliveries…
        let a_cross = a.deliveries.iter().filter(|d| d.packet.is_cross()).count();
        let b_cross = b.deliveries.iter().filter(|d| d.packet.is_cross()).count();
        assert!(a_cross > 0, "expected some cross deliveries");
        assert_eq!(b_cross, 0, "record_cross=false must not report cross");
        for d in a.deliveries.iter().filter(|d| d.packet.is_cross()) {
            assert_eq!(d.sw1_egress, None, "cross bypasses switch 1");
        }
        // …and the regular/reference delivery sequence is unchanged.
        let a_reg: Vec<_> = a
            .deliveries
            .iter()
            .filter(|d| !d.packet.is_cross())
            .copied()
            .collect();
        let b_reg: Vec<_> = b
            .deliveries
            .iter()
            .filter(|d| !d.packet.is_cross())
            .copied()
            .collect();
        assert_eq!(a_reg, b_reg);
        assert!(!a_reg.is_empty());

        // Accounting is identical: per-class arrivals/drops/bytes and the
        // derived loss rates do not depend on the flag.
        let (ca, cb) = (a.sw2().cross(), b.sw2().cross());
        assert!(ca.drops > 0, "cross drops expected at this capacity");
        assert_eq!(
            (ca.arrivals, ca.drops, ca.bytes),
            (cb.arrivals, cb.drops, cb.bytes)
        );
        assert_eq!(a.regular_loss_rate(), b.regular_loss_rate());
        assert_eq!(a.bottleneck_utilization(), b.bottleneck_utilization());
    }

    #[test]
    fn empty_inputs() {
        let r = run_tandem(&cfg(), std::iter::empty(), std::iter::empty());
        assert!(r.deliveries.is_empty());
        assert_eq!(r.regular_loss_rate(), 0.0);
        assert_eq!(r.bottleneck_utilization(), 0.0);
    }

    /// Dense random-ish mixes must produce byte-identical results from the
    /// streaming and two-pass implementations (the exhaustive randomized
    /// check lives in the workspace-level property suite).
    #[test]
    fn streaming_matches_two_pass_on_contended_mix() {
        let mut c = cfg();
        c.record_cross = true;
        c.switch2.capacity_bytes = 4000; // force drops in the merge
        let upstream: Vec<Packet> = (0..500)
            .map(|i| reg(i, i * 37 % 9000, 200 + (i as u32 * 131) % 1200))
            .collect();
        let mut upstream = upstream;
        upstream.sort_by_key(|p| (p.created_at, p.id));
        let cross: Vec<Packet> = (0..500)
            .map(|i| crs(10_000 + i, i * 53 % 9000, 300 + (i as u32 * 173) % 900))
            .collect();
        let mut cross = cross;
        cross.sort_by_key(|p| (p.created_at, p.id));

        let streaming = run_tandem(&c, upstream.iter().copied(), cross.iter().copied());
        let two_pass = run_tandem_two_pass(&c, upstream.into_iter(), cross.into_iter());
        assert_eq!(streaming.deliveries, two_pass.deliveries);
        assert_eq!(
            streaming.stats.sw1.total_arrivals(),
            two_pass.stats.sw1.total_arrivals()
        );
        assert_eq!(
            streaming.stats.sw2.total_drops(),
            two_pass.stats.sw2.total_drops()
        );
        assert_eq!(
            streaming.bottleneck_utilization(),
            two_pass.bottleneck_utilization()
        );
    }
}
