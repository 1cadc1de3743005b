//! The RLI sender.
//!
//! "An RLI sender regularly injects special packets called reference packets
//! that carry a (hardware) timestamp to an RLI receiver" (§2). The sender
//! watches the regular packet stream crossing its interface, consults its
//! injection policy after every regular packet, and emits reference packets
//! stamped with its local clock.
//!
//! For RLIR, "each sender sends reference packets to all intermediate
//! receivers through which its packets may cross" (§3.1) — so a sender holds
//! a list of *target flow keys*, one per downstream receiver/path, chosen so
//! the fabric's ECMP hashes place each reference stream on the intended
//! path. One injection event emits one reference per target.

use crate::policy::{InjectionPolicy, Policy};
use rlir_net::clock::ClockModel;
use rlir_net::packet::{Packet, SenderId};
use rlir_net::FlowKey;
use std::borrow::BorrowMut;
use std::collections::VecDeque;

/// Base of the packet-id namespace reserved for reference packets, far above
/// any trace packet id.
pub const REF_ID_BASE: u64 = 1 << 56;

/// An RLI sender instance.
pub struct RliSender {
    id: SenderId,
    clock: ClockModel,
    /// Enum-dispatched on the per-packet hot path; out-of-tree policies
    /// ride along as [`Policy::Custom`].
    policy: Policy,
    targets: Vec<FlowKey>,
    seq: u32,
    next_ref_id: u64,
    regulars_seen: u64,
    refs_emitted: u64,
    /// Reused per-observation output buffer: `observe` fills it and returns
    /// a borrow, so the steady-state hot path performs zero allocations
    /// (the buffer reaches `targets.len()` capacity on the first injection
    /// and never grows past it).
    scratch: Vec<Packet>,
}

impl std::fmt::Debug for RliSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RliSender")
            .field("id", &self.id)
            .field("targets", &self.targets.len())
            .field("seq", &self.seq)
            .field("refs_emitted", &self.refs_emitted)
            .finish()
    }
}

impl RliSender {
    /// Build a sender.
    ///
    /// * `id` — this instance's identity, embedded in every reference packet.
    /// * `clock` — the local (possibly imperfect) timestamping clock.
    /// * `policy` — static or adaptive injection: a [`Policy`], a concrete
    ///   [`crate::StaticPolicy`]/[`crate::AdaptivePolicy`], or a boxed
    ///   custom [`InjectionPolicy`] (anything `Into<Policy>`).
    /// * `targets` — one flow key per reference stream (per downstream
    ///   receiver/path). Must be non-empty.
    pub fn new(
        id: SenderId,
        clock: ClockModel,
        policy: impl Into<Policy>,
        targets: Vec<FlowKey>,
    ) -> Self {
        assert!(!targets.is_empty(), "sender needs at least one target");
        RliSender {
            id,
            clock,
            policy: policy.into(),
            targets,
            seq: 0,
            next_ref_id: REF_ID_BASE ^ ((id.0 as u64) << 40),
            regulars_seen: 0,
            refs_emitted: 0,
            scratch: Vec::new(),
        }
    }

    /// This sender's id.
    pub fn id(&self) -> SenderId {
        self.id
    }

    /// Regular packets observed so far.
    pub fn regulars_seen(&self) -> u64 {
        self.regulars_seen
    }

    /// Reference packets emitted so far.
    pub fn refs_emitted(&self) -> u64 {
        self.refs_emitted
    }

    /// The policy's current 1-and-n spacing.
    pub fn current_n(&self) -> u32 {
        self.policy.current_n()
    }

    /// Observe one packet crossing the sender's interface. Returns the
    /// reference packets (one per target) to inject immediately after it —
    /// empty unless the policy fires. Reference and cross packets never
    /// trigger injection (the sender meters *regular* traffic).
    ///
    /// The returned slice borrows an internal scratch buffer that is
    /// overwritten by the next call: copy the packets out (they are `Copy`)
    /// before observing again. This keeps the per-packet hot path
    /// allocation-free; the seed implementation allocated a fresh
    /// `Vec<Packet>` per observed packet.
    pub fn observe(&mut self, pkt: &Packet) -> &[Packet] {
        self.scratch.clear();
        if !pkt.is_regular() {
            return &self.scratch;
        }
        self.regulars_seen += 1;
        if !self.policy.on_regular(pkt.created_at.as_nanos(), pkt.size) {
            return &self.scratch;
        }
        let stamp = self.clock.observe(pkt.created_at);
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        for flow in &self.targets {
            let id = self.next_ref_id;
            self.next_ref_id += 1;
            let mut r = Packet::reference(id, *flow, self.id, seq, stamp);
            // The reference enters the network at the same instant as the
            // regular packet it follows; `created_at` drives simulation
            // arrival order while `tx_timestamp` is the (possibly skewed)
            // clock reading.
            r.created_at = pkt.created_at;
            self.scratch.push(r);
        }
        self.refs_emitted += self.scratch.len() as u64;
        &self.scratch
    }

    /// Wrap a time-ordered packet stream, interleaving generated reference
    /// packets immediately after the regular packets that trigger them.
    pub fn instrument<I>(self, stream: I) -> InstrumentedStream<Self, I>
    where
        I: Iterator<Item = Packet>,
    {
        InstrumentedStream {
            sender: self,
            inner: stream,
            pending: VecDeque::new(),
        }
    }

    /// Borrowing variant of [`RliSender::instrument`]: the sender stays
    /// owned by the caller, so its counters remain readable after the
    /// stream is exhausted — the shape streaming pipelines need.
    pub fn instrument_by_ref<I>(&mut self, stream: I) -> InstrumentedStream<&mut Self, I>
    where
        I: Iterator<Item = Packet>,
    {
        InstrumentedStream {
            sender: self,
            inner: stream,
            pending: VecDeque::new(),
        }
    }
}

/// Iterator adapter produced by [`RliSender::instrument`] /
/// [`RliSender::instrument_by_ref`]. The pending queue is reused across
/// packets, so steady-state iteration allocates nothing.
pub struct InstrumentedStream<S: BorrowMut<RliSender>, I: Iterator<Item = Packet>> {
    sender: S,
    inner: I,
    pending: VecDeque<Packet>,
}

impl<S: BorrowMut<RliSender>, I: Iterator<Item = Packet>> InstrumentedStream<S, I> {
    /// Access the wrapped sender (e.g. for its counters after the run).
    pub fn sender(&self) -> &RliSender {
        self.sender.borrow()
    }
}

impl<S: BorrowMut<RliSender>, I: Iterator<Item = Packet>> Iterator for InstrumentedStream<S, I> {
    type Item = Packet;

    fn next(&mut self) -> Option<Packet> {
        if let Some(p) = self.pending.pop_front() {
            return Some(p);
        }
        let pkt = self.inner.next()?;
        self.pending
            .extend(self.sender.borrow_mut().observe(&pkt).iter().copied());
        Some(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AdaptivePolicy, StaticPolicy};
    use rlir_net::time::SimTime;
    use std::net::Ipv4Addr;

    fn target() -> FlowKey {
        FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, 250),
            40_000,
            Ipv4Addr::new(10, 3, 0, 250),
            rlir_net::wire::RLI_UDP_PORT,
        )
    }

    fn regular(id: u64, at_ns: u64) -> Packet {
        Packet::regular(
            id,
            FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 3, 0, 1), 2),
            500,
            SimTime::from_nanos(at_ns),
        )
    }

    fn sender(n: u32) -> RliSender {
        RliSender::new(
            SenderId(1),
            ClockModel::perfect(),
            StaticPolicy::one_in(n),
            vec![target()],
        )
    }

    #[test]
    fn injects_after_every_nth_regular() {
        let mut s = sender(3);
        let mut refs = 0;
        for i in 0..9 {
            refs += s.observe(&regular(i, i * 100)).len();
        }
        assert_eq!(refs, 3);
        assert_eq!(s.regulars_seen(), 9);
        assert_eq!(s.refs_emitted(), 3);
    }

    #[test]
    fn reference_packets_carry_stamp_and_sequence() {
        let mut s = sender(1);
        let r1 = s.observe(&regular(1, 1000)).last().copied().unwrap();
        let r2 = s.observe(&regular(2, 2000)).last().copied().unwrap();
        let i1 = r1.reference_info().unwrap();
        let i2 = r2.reference_info().unwrap();
        assert_eq!(i1.sender, SenderId(1));
        assert_eq!((i1.seq, i2.seq), (0, 1));
        assert_eq!(i1.tx_timestamp, SimTime::from_nanos(1000));
        assert_eq!(r1.created_at, SimTime::from_nanos(1000));
        assert_eq!(r1.flow, target());
        assert_ne!(r1.id, r2.id);
    }

    #[test]
    fn skewed_clock_skews_stamp_not_arrival() {
        let mut s = RliSender::new(
            SenderId(2),
            ClockModel::with_offset(500),
            StaticPolicy::one_in(1),
            vec![target()],
        );
        let r = s.observe(&regular(1, 1000)).last().copied().unwrap();
        assert_eq!(r.created_at, SimTime::from_nanos(1000));
        assert_eq!(
            r.reference_info().unwrap().tx_timestamp,
            SimTime::from_nanos(1500)
        );
    }

    #[test]
    fn cross_and_reference_packets_do_not_trigger() {
        let mut s = sender(1);
        let cross = Packet::cross(9, target(), 100, SimTime::ZERO);
        assert!(s.observe(&cross).is_empty());
        let rf = Packet::reference(10, target(), SenderId(9), 0, SimTime::ZERO);
        assert!(s.observe(&rf).is_empty());
        assert_eq!(s.regulars_seen(), 0);
    }

    #[test]
    fn multiple_targets_share_sequence() {
        let t2 = FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, 250),
            40_001,
            Ipv4Addr::new(10, 5, 0, 250),
            rlir_net::wire::RLI_UDP_PORT,
        );
        let mut s = RliSender::new(
            SenderId(3),
            ClockModel::perfect(),
            StaticPolicy::one_in(1),
            vec![target(), t2],
        );
        let refs: Vec<Packet> = s.observe(&regular(1, 100)).to_vec();
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0].reference_info().unwrap().seq, 0);
        assert_eq!(refs[1].reference_info().unwrap().seq, 0);
        assert_ne!(refs[0].flow, refs[1].flow);
        assert_ne!(refs[0].id, refs[1].id);
    }

    #[test]
    fn instrument_interleaves_in_order() {
        let stream: Vec<Packet> = (0..10).map(|i| regular(i, i * 100)).collect();
        let out: Vec<Packet> = sender(2).instrument(stream.into_iter()).collect();
        // 10 regulars + 5 refs.
        assert_eq!(out.len(), 15);
        // Each ref appears immediately after its triggering regular and
        // shares its created_at; the overall stream stays time-ordered.
        for w in out.windows(2) {
            assert!(w[0].created_at <= w[1].created_at);
        }
        let kinds: Vec<bool> = out.iter().map(|p| p.is_reference()).collect();
        assert_eq!(kinds.iter().filter(|r| **r).count(), 5);
        assert!(!kinds[0], "first packet is regular");
        assert!(kinds[2], "ref follows the 2nd regular");
    }

    #[test]
    fn adaptive_policy_integrates() {
        let mut s = RliSender::new(
            SenderId(4),
            ClockModel::perfect(),
            AdaptivePolicy::paper_default(),
            vec![target()],
        );
        // Default spacing before utilization builds is the densest (10).
        assert_eq!(s.current_n(), 10);
        for i in 0..100 {
            s.observe(&regular(i, i * 1000));
        }
        assert_eq!(s.refs_emitted(), 10);
    }

    #[test]
    fn ref_ids_disjoint_from_trace_ids() {
        let mut s = sender(1);
        let r = s
            .observe(&regular(u32::MAX as u64, 0))
            .last()
            .copied()
            .unwrap();
        assert!(r.id.0 >= REF_ID_BASE / 2, "ref id {} collides", r.id);
    }
}
