//! RLIR instance placement ("we deploy RLI instances in every other
//! switch", §1/§3). This module owns the layout of a measured deployment —
//! its senders, its receivers and the segments between them — and the
//! fat-tree experiments read everything off it.
//!
//! For a measured destination ToR, the deployment instantiates:
//!
//! * a **sender per source-ToR uplink interface** (the paper's S1, S2 — an
//!   instance sits on an interface, so a ToR with `k/2` uplinks hosts `k/2`
//!   senders), each emitting one reference stream to *every* core its
//!   packets may cross ("each sender sends reference packets to all
//!   intermediate receivers", §3.1);
//! * a **sender per core router** (S3, S4) whose references cover the
//!   downstream segment core → destination ToR (deterministic, so a single
//!   stream suffices);
//! * a **receiver** ([`Receiver`]) per stream: at each core, one per
//!   ToR-uplink sender whose references reach it (segment 1), and at the
//!   destination ToR one per core sender (segment 2). Each row records the
//!   switches whose queues its segment spans, so the segments a faulty
//!   switch shows up in ([`Deployment::segments_through`]) and the switches
//!   a localization sweep may afflict ([`Deployment::victim_pool`]) are
//!   read off the rows.
//!
//! [`Deployment::senders`] builds the senders as one [`SenderSet`], which
//! the engine runs in-band: each sees the regular packets leave its
//! interface and puts its references right behind the trigger.
//! [`Deployment::attach`] puts the receivers on a measurement plane.
//!
//! Reference streams must actually *traverse* the intended path, so their
//! flow keys are engineered against the fabric's ECMP hashes
//! ([`engineer_ref_key`]) — the same same-hash-knowledge assumption that
//! reverse-ECMP demultiplexing makes.

use crate::demux::{CoreDemux, RlirDemux};
use crate::plane::{MeasurementPlane, TapPoint, TapSpec, TruthRef};
use rlir_net::clock::ClockModel;
use rlir_net::time::SimTime;
use rlir_net::{FlowKey, Packet, ReferenceInfo, SenderId};
use rlir_rli::{PolicyKind, RliSender};
use rlir_sim::{Hop, HopEvent, NodeId, PortId, RefSenders};
use rlir_topo::{FatTree, Role, TopoId};
use std::net::Ipv4Addr;

/// Reserved host index for measurement instances inside a ToR's `/24`
/// (address `.250`).
pub const INSTANCE_HOST: u64 = 248; // .250 = .2 + 248

/// A sender on one ToR uplink interface.
#[derive(Debug, Clone)]
pub struct TorSenderSpec {
    /// The ToR hosting the instance.
    pub tor: TopoId,
    /// The uplink interface index (0..k/2).
    pub uplink: usize,
    /// Assigned sender id.
    pub id: SenderId,
    /// One engineered reference stream per reachable core:
    /// `(core, flow key that ECMP-routes via that core)`.
    pub targets: Vec<(TopoId, FlowKey)>,
}

/// A sender at a core router: one stream towards the destination ToR (the
/// downward path is deterministic).
#[derive(Debug, Clone)]
struct CoreSenderSpec {
    core: TopoId,
    id: SenderId,
    target: FlowKey,
}

/// Sender-id arithmetic: ToR senders occupy the low id space, core senders
/// start here.
const CORE_SENDER_BASE: u16 = 10_000;

/// The sender id a "mixed" receiver reads every stream of its segment as.
const MIXED: SenderId = SenderId(u16::MAX);

/// One receiver of the deployment: the far end of one sender's segment.
#[derive(Debug, Clone)]
pub struct Receiver {
    /// 1: source ToR → core; 2: core → destination ToR.
    pub segment: u8,
    /// Where it observes: the core's arrival (segment 1) or the
    /// destination ToR's delivery point (segment 2).
    pub tap: TapPoint,
    /// The sender whose references it reads.
    pub sender: SenderId,
    /// The sender's switch: the source ToR or the core.
    pub from: TopoId,
    /// `"T[0.0]→C[1.0]"` / `"C[1.0]→T[3.0]"`.
    pub name: String,
    /// The switches whose queues the segment spans. Segment 1 crosses the
    /// source ToR and the aggregation switch behind its uplink, not the
    /// core (the tap sits at the core's arrival); segment 2 crosses the
    /// core, the destination pod's aggregation switch of the core's group
    /// and the destination ToR.
    pub crosses: Vec<TopoId>,
}

/// A complete RLIR deployment for one measured destination ToR: its
/// senders ([`Deployment::senders`]) and receivers ([`Deployment::attach`]).
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The destination ToR (hosting the paper's R3 receiver).
    pub dst_tor: TopoId,
    /// Measured source ToRs (each hosting k/2 uplink senders).
    pub src_tors: Vec<TopoId>,
    /// All ToR-uplink senders.
    pub tor_senders: Vec<TorSenderSpec>,
    core_senders: Vec<CoreSenderSpec>,
    /// Segment 1 core by core, senders in id order at each; then segment
    /// 2 in core order.
    receivers: Vec<Receiver>,
}

impl Deployment {
    /// Build the deployment for flows `src_tors → dst_tor`.
    ///
    /// Panics if a source ToR shares the destination's pod (the paper's
    /// RLIR segments T→C and C→T are inter-pod; intra-pod measurement needs
    /// instances at aggregation switches instead).
    pub fn for_destination(tree: &FatTree, src_tors: &[TopoId], dst_tor: TopoId) -> Deployment {
        let dst_pod = pod_of(tree, dst_tor);
        let half = tree.half();
        let dst_addr = tree.host_addr(dst_tor, INSTANCE_HOST as usize);
        let name =
            |from: TopoId, to: TopoId| format!("{}→{}", tree.node(from).name, tree.node(to).name);

        let mut tor_senders = Vec::new();
        let mut receivers = Vec::new();
        for (ti, &tor) in src_tors.iter().enumerate() {
            assert_ne!(
                pod_of(tree, tor),
                dst_pod,
                "source ToR {} shares the destination pod",
                tree.node(tor).name
            );
            for uplink in 0..half {
                let id = SenderId((ti * half + uplink) as u16);
                let agg = tree.agg(pod_of(tree, tor), uplink);
                let targets = (0..half)
                    .map(|member| {
                        let core = tree.core(uplink, member);
                        let key = engineer_ref_key(tree, tor, dst_addr, uplink, member)
                            .unwrap_or_else(|| {
                                panic!(
                                    "no ref key found for {} uplink {uplink} core member {member}",
                                    tree.node(tor).name
                                )
                            });
                        receivers.push(Receiver {
                            segment: 1,
                            tap: TapPoint::NodeArrival(core),
                            sender: id,
                            from: tor,
                            name: name(tor, core),
                            crosses: vec![tor, agg],
                        });
                        (core, key)
                    })
                    .collect();
                tor_senders.push(TorSenderSpec {
                    tor,
                    uplink,
                    id,
                    targets,
                });
            }
        }
        receivers.sort_by_key(|r| (r.tap.node(), r.sender));

        let mut core_senders = Vec::new();
        for (ordinal, core) in tree.cores().enumerate() {
            let Role::Core { group, member } = tree.node(core).role else {
                unreachable!("cores() yields cores")
            };
            // Synthetic non-fabric source distinguishes instance traffic;
            // the downward route keys on the destination only.
            let src = Ipv4Addr::new(10, 255, group as u8, member as u8);
            let id = SenderId(CORE_SENDER_BASE + ordinal as u16);
            let port = 41_000 + ordinal as u16;
            let target = FlowKey::udp(src, port, dst_addr, rlir_net::wire::RLI_UDP_PORT);
            core_senders.push(CoreSenderSpec { core, id, target });
            receivers.push(Receiver {
                segment: 2,
                tap: TapPoint::Delivery(dst_tor),
                sender: id,
                from: core,
                name: name(core, dst_tor),
                crosses: vec![core, tree.agg(dst_pod, group), dst_tor],
            });
        }

        Deployment {
            dst_tor,
            src_tors: src_tors.to_vec(),
            tor_senders,
            core_senders,
            receivers,
        }
    }

    /// The sender on `(tor, uplink)`, if deployed.
    pub fn tor_sender(&self, tor: TopoId, uplink: usize) -> Option<&TorSenderSpec> {
        self.tor_senders
            .iter()
            .find(|s| s.tor == tor && s.uplink == uplink)
    }

    /// The receivers, segment 1 first.
    pub fn receivers(&self) -> &[Receiver] {
        &self.receivers
    }

    /// The ToR-uplink senders alone, under `policy`: each meters what
    /// leaves by its uplink (ToR uplink `u` is port `u`).
    pub fn uplink_senders(&self, policy: &PolicyKind) -> SenderSet {
        let mut set = SenderSet::default();
        for s in &self.tor_senders {
            let targets = s.targets.iter().map(|(_, k)| *k).collect();
            let sender = RliSender::new(s.id, ClockModel::perfect(), policy.build(), targets);
            set.add(s.tor, Some(s.uplink), sender);
        }
        set
    }

    /// The deployment's in-band senders, all under `policy`: the
    /// [uplink senders](Deployment::uplink_senders), then one at each core,
    /// which meters every regular packet the core forwards.
    pub fn senders(&self, policy: &PolicyKind) -> SenderSet {
        let mut set = self.uplink_senders(policy);
        for s in &self.core_senders {
            let sender =
                RliSender::new(s.id, ClockModel::perfect(), policy.build(), vec![s.target]);
            set.add(s.core, None, sender);
        }
        set
    }

    /// References emitted by `set`'s ToR-uplink senders and by its core
    /// senders.
    pub fn refs_emitted(&self, set: &SenderSet) -> (u64, u64) {
        let tor: u64 = (set.senders())
            .filter(|s| s.id().0 < CORE_SENDER_BASE)
            .map(RliSender::refs_emitted)
            .sum();
        (tor, set.refs_emitted() - tor)
    }

    /// Whether `packet` belongs to a measured flow: its source lies in a
    /// measured source ToR's block (upstream demultiplexing by IP-prefix
    /// matching, §3.1).
    pub fn measures(&self, demux: &RlirDemux<'_>, packet: &Packet) -> bool {
        demux
            .origin_tor(packet)
            .is_some_and(|t| self.src_tors.contains(&t))
    }

    /// Names of the segments whose span crosses `victim`'s queues, in row
    /// order: where a fault at `victim` can show up.
    pub fn segments_through(&self, victim: TopoId) -> Vec<&str> {
        (self.receivers.iter())
            .filter(|r| r.crosses.contains(&victim))
            .map(|r| r.name.as_str())
            .collect()
    }

    /// The switches a localization sweep may afflict: every switch some
    /// segment crosses except the ToRs, cores first, then aggregation
    /// switches, each in tree order. Switches off every measured path
    /// would be invisible to the deployment (the partial-deployment
    /// trade-off, not a detector failure), so they are not in it.
    pub fn victim_pool(&self, tree: &FatTree) -> Vec<TopoId> {
        (tree.cores().chain(tree.aggs()))
            .filter(|n| self.receivers.iter().any(|r| r.crosses.contains(n)))
            .collect()
    }

    /// Put the receivers on `plane` as taps, in row order, and return
    /// segment 1's tap count. Every tap scores only measured packets
    /// delivered at the destination ToR (the paper's evaluation
    /// methodology) against the truth of its segment: since injection for
    /// segment 1, since the core for segment 2. A segment-1 receiver meters
    /// its sender's ToR's packets, since the core's group fixes the
    /// uplink; a segment-2 receiver those the downstream demux (marking /
    /// reverse ECMP) places on its core. Under [`CoreDemux::Naive`] each
    /// observation point is one `"mixed→…"` receiver that reads every
    /// stream of its segment. With `tenant_split = Some((w1, w2))` segment
    /// `s` draws on tenant `s − 1` at weight `w_s`.
    pub fn attach<'a>(
        &'a self,
        plane: &mut MeasurementPlane<'a>,
        tree: &'a FatTree,
        demux: &'a RlirDemux<'a>,
        tenant_split: Option<(u64, u64)>,
    ) -> usize {
        let naive = matches!(demux.mode(), CoreDemux::Naive);
        if let Some((w1, w2)) = tenant_split {
            plane.set_tenant_weight(0, w1);
            plane.set_tenant_weight(1, w2);
        }
        let mut rows: Vec<&Receiver> = self.receivers.iter().collect();
        if naive {
            rows.dedup_by_key(|r| r.tap);
        }
        let dst_tor = self.dst_tor;
        for r in &rows {
            let (seg1, from) = (r.segment == 1, r.from);
            let mut tap = if naive {
                let name = format!("mixed→{}", tree.node(r.tap.node()).name);
                TapSpec::new(name, r.tap, MIXED)
            } else {
                TapSpec::new(r.name.clone(), r.tap, r.sender)
            };
            tap.delivered_only = true;
            if !seg1 {
                tap.truth = TruthRef::SinceArrivalAt(tree.cores().collect());
            }
            if tenant_split.is_some() {
                tap.tenant = u32::from(r.segment) - 1;
            }
            let sender = tap.sender;
            tap.ref_map = Some(if naive {
                Box::new(move |info: &ReferenceInfo| {
                    ((info.sender.0 < CORE_SENDER_BASE) == seg1)
                        .then_some(ReferenceInfo { sender, ..*info })
                })
            } else {
                Box::new(move |info: &ReferenceInfo| (info.sender == sender).then_some(*info))
            });
            tap.meter = Some(if seg1 {
                Box::new(move |ev: &HopEvent<'_>| {
                    ev.node == dst_tor
                        && if naive {
                            self.measures(demux, ev.packet)
                        } else {
                            demux.origin_tor(ev.packet) == Some(from)
                        }
                })
            } else {
                Box::new(move |ev: &HopEvent<'_>| {
                    let core = |h: &Hop| matches!(tree.node(h.node).role, Role::Core { .. });
                    ev.hops.iter().any(core) // not intra-pod
                        && self.measures(demux, ev.packet)
                        && (naive || demux.traversed_core(ev.packet) == Some(from))
                })
            });
            plane.attach(tap);
        }
        rows.iter().filter(|r| r.segment == 1).count()
    }
}

/// A run's in-band RLI senders: each sits on a node and meters the regular
/// packets that leave it by the ports its filter admits (`None`: any port).
/// The engine runs them through [`RefSenders`]; one node's filters must not
/// overlap, so a packet meets at most one sender.
#[derive(Debug, Default)]
pub struct SenderSet {
    senders: Vec<(NodeId, Option<PortId>, RliSender)>,
}

impl SenderSet {
    /// A set of one sender at `node`, on any port.
    pub fn one(node: NodeId, sender: RliSender) -> Self {
        let mut set = SenderSet::default();
        set.add(node, None, sender);
        set
    }

    /// Put `sender` on `node`, on egress `port` or (`None`) on any port.
    pub fn add(&mut self, node: NodeId, port: Option<PortId>, sender: RliSender) {
        let overlaps = |f: Option<PortId>| f.is_none() || port.is_none() || f == port;
        assert!(
            !self
                .senders
                .iter()
                .any(|(n, f, _)| *n == node && overlaps(*f)),
            "two senders on node {node} meter one port"
        );
        self.senders.push((node, port, sender));
    }

    /// The senders, in the order they were added.
    pub fn senders(&self) -> impl Iterator<Item = &RliSender> {
        self.senders.iter().map(|(.., s)| s)
    }

    /// References emitted by every sender.
    pub fn refs_emitted(&self) -> u64 {
        self.senders().map(RliSender::refs_emitted).sum()
    }
}

impl RefSenders for SenderSet {
    fn hosts(&self, node: NodeId) -> bool {
        self.senders.iter().any(|(n, ..)| *n == node)
    }

    fn observe(&mut self, node: NodeId, port: PortId, at: SimTime, packet: &Packet) -> &[Packet] {
        let admits = |(n, f, _): &&mut (NodeId, Option<PortId>, RliSender)| {
            *n == node && f.is_none_or(|f| f == port)
        };
        match self.senders.iter_mut().find(admits) {
            Some((.., sender)) => sender.observe_at(at, packet),
            None => &[],
        }
    }
}

fn pod_of(tree: &FatTree, tor: TopoId) -> usize {
    match tree.node(tor).role {
        Role::Tor { pod, .. } => pod,
        _ => panic!("{} is not a ToR", tree.node(tor).name),
    }
}

/// Find a flow key from `src_tor`'s instance address to `dst_addr` that the
/// fabric's ECMP places on `uplink` at the ToR and on core `member` at the
/// aggregation switch. Searches source ports; with 2-way…8-way hashing a hit
/// is expected within a few dozen candidates.
pub fn engineer_ref_key(
    tree: &FatTree,
    src_tor: TopoId,
    dst_addr: Ipv4Addr,
    uplink: usize,
    member: usize,
) -> Option<FlowKey> {
    let half = tree.half();
    let src = tree.host_addr(src_tor, INSTANCE_HOST as usize);
    let pod = pod_of(tree, src_tor);
    let agg = tree.agg(pod, uplink);
    for sport in 20_000..60_000u16 {
        let key = FlowKey::udp(src, sport, dst_addr, rlir_net::wire::RLI_UDP_PORT);
        if tree.node(src_tor).hash.select(&key, half) == uplink
            && tree.node(agg).hash.select(&key, half) == member
        {
            return Some(key);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_net::HashAlgo;

    fn tree() -> FatTree {
        FatTree::new(4, HashAlgo::default())
    }

    fn deployment(t: &FatTree) -> Deployment {
        Deployment::for_destination(t, &[t.tor(0, 0), t.tor(1, 1)], t.tor(3, 0))
    }

    #[test]
    fn engineered_keys_route_via_intended_core() {
        let t = tree();
        let d = deployment(&t);
        for s in &d.tor_senders {
            for (core, key) in &s.targets {
                let path = t.path(key).expect("engineered key is routable");
                assert!(
                    path.contains(core),
                    "{} uplink {}: key {key} avoids core {}",
                    t.node(s.tor).name,
                    s.uplink,
                    t.node(*core).name
                );
                // And it must actually use the sender's uplink (its agg).
                let pod = super::pod_of(&t, s.tor);
                assert_eq!(path[1], t.agg(pod, s.uplink), "wrong uplink taken");
                assert!(path.ends_with(&[d.dst_tor]));
            }
        }
    }

    #[test]
    fn every_uplink_covers_every_reachable_core() {
        let t = tree();
        let d = deployment(&t);
        // 2 src ToRs × 2 uplinks, each with k/2 = 2 core targets.
        assert_eq!(d.tor_senders.len(), 4);
        for s in &d.tor_senders {
            assert_eq!(s.targets.len(), 2);
            let groups: Vec<_> = s
                .targets
                .iter()
                .map(|(c, _)| match t.node(*c).role {
                    Role::Core { group, .. } => group,
                    _ => unreachable!(),
                })
                .collect();
            assert!(
                groups.iter().all(|g| *g == s.uplink),
                "cores in wrong group"
            );
        }
    }

    #[test]
    fn sender_ids_unique_across_deployment() {
        let t = tree();
        let d = deployment(&t);
        let mut ids: Vec<u16> = d
            .tor_senders
            .iter()
            .map(|s| s.id.0)
            .chain(d.core_senders.iter().map(|s| s.id.0))
            .collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate sender ids");
    }

    #[test]
    fn core_senders_cover_all_cores_and_route_down() {
        let t = tree();
        let d = deployment(&t);
        assert_eq!(d.core_senders.len(), 4);
        for s in &d.core_senders {
            // From the core, the target must route to the destination ToR.
            match t.next_hop(s.core, &s.target) {
                rlir_topo::NextHop::Port(p) => {
                    // Core port p leads to pod p — must be the dst pod (3).
                    assert_eq!(p, 3);
                }
                other => panic!("core routing gave {other:?}"),
            }
        }
    }

    #[test]
    fn demux_lookup_maps_origin_and_core_to_sender() {
        let t = tree();
        let d = deployment(&t);
        // A core's segment-1 receiver for an origin reads the sender on the
        // origin's uplink of the core's group (group 1 → uplink 1).
        let core = t.core(1, 0);
        let at_core = |origin| {
            (d.receivers().iter())
                .filter(|r| r.segment == 1 && r.tap.node() == core && r.from == origin)
                .map(|r| r.sender)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            at_core(t.tor(0, 0)),
            [d.tor_sender(t.tor(0, 0), 1).unwrap().id]
        );
        // Unmeasured ToR → none.
        assert!(at_core(t.tor(2, 0)).is_empty());
        // No receiver at an aggregation switch.
        assert!(d.receivers().iter().all(|r| r.tap.node() != t.agg(0, 0)));
    }

    #[test]
    #[should_panic(expected = "shares the destination pod")]
    fn same_pod_source_rejected() {
        let t = tree();
        Deployment::for_destination(&t, &[t.tor(3, 1)], t.tor(3, 0));
    }

    #[test]
    fn instance_count_sane() {
        let t = tree();
        let d = deployment(&t);
        // 4 tor senders + 4 core senders (each doubling as a receiver, per
        // §3.1's dual-role assumption) + 1 dst receiver.
        assert_eq!(d.tor_senders.len() + d.core_senders.len() + 1, 9);
    }
}
