//! RLIR instance placement ("we deploy RLI instances in every other
//! switch", §1/§3).
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
//! * receiver roles at the cores (segment 1) and the destination ToR
//!   (segment 2) — receivers are instantiated by the experiment, keyed by
//!   the sender ids assigned here.
//!
//! Reference streams must actually *traverse* the intended path, so their
//! flow keys are engineered against the fabric's ECMP hashes
//! ([`engineer_ref_key`]) — the same same-hash-knowledge assumption that
//! reverse-ECMP demultiplexing makes.

use rlir_net::{FlowKey, SenderId};
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

/// A sender at a core router (downstream segment).
#[derive(Debug, Clone)]
pub struct CoreSenderSpec {
    /// The core hosting the instance.
    pub core: TopoId,
    /// Assigned sender id.
    pub id: SenderId,
    /// Reference stream towards the destination ToR (downward path is
    /// deterministic, one stream suffices).
    pub target: FlowKey,
}

/// Sender-id arithmetic: ToR senders occupy the low id space, core senders
/// start here.
pub const CORE_SENDER_BASE: u16 = 10_000;

/// A complete RLIR deployment for one measured destination ToR.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The destination ToR (hosting the paper's R3 receiver).
    pub dst_tor: TopoId,
    /// Measured source ToRs (each hosting k/2 uplink senders).
    pub src_tors: Vec<TopoId>,
    /// All ToR-uplink senders.
    pub tor_senders: Vec<TorSenderSpec>,
    /// All core senders.
    pub core_senders: Vec<CoreSenderSpec>,
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

        let mut tor_senders = Vec::new();
        for (ti, &tor) in src_tors.iter().enumerate() {
            assert_ne!(
                pod_of(tree, tor),
                dst_pod,
                "source ToR {} shares the destination pod",
                tree.node(tor).name
            );
            for uplink in 0..half {
                let id = SenderId((ti * half + uplink) as u16);
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

        let core_senders = tree
            .cores()
            .map(|core| {
                let Role::Core { group, member } = tree.node(core).role else {
                    unreachable!("cores() yields cores")
                };
                // Synthetic non-fabric source distinguishes instance traffic;
                // the downward route keys on the destination only.
                let src = Ipv4Addr::new(10, 255, group as u8, member as u8);
                let ordinal = core - tree.cores().next().expect("has cores");
                CoreSenderSpec {
                    core,
                    id: SenderId(CORE_SENDER_BASE + ordinal as u16),
                    target: FlowKey::udp(
                        src,
                        41_000 + ordinal as u16,
                        dst_addr,
                        rlir_net::wire::RLI_UDP_PORT,
                    ),
                }
            })
            .collect();

        Deployment {
            dst_tor,
            src_tors: src_tors.to_vec(),
            tor_senders,
            core_senders,
        }
    }

    /// The sender on `(tor, uplink)`, if deployed.
    pub fn tor_sender(&self, tor: TopoId, uplink: usize) -> Option<&TorSenderSpec> {
        self.tor_senders
            .iter()
            .find(|s| s.tor == tor && s.uplink == uplink)
    }

    /// The sender id whose segment-1 reference stream covers packets from
    /// `origin_tor` through `core`: the uplink is determined by the core's
    /// group, completing the upstream demultiplexing of §3.1.
    pub fn tor_sender_for(
        &self,
        tree: &FatTree,
        origin_tor: TopoId,
        core: TopoId,
    ) -> Option<SenderId> {
        let Role::Core { group, .. } = tree.node(core).role else {
            return None;
        };
        self.tor_sender(origin_tor, group).map(|s| s.id)
    }

    /// The sender at `core`, if deployed.
    pub fn core_sender(&self, core: TopoId) -> Option<&CoreSenderSpec> {
        self.core_senders.iter().find(|s| s.core == core)
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
        let core = t.core(1, 0); // group 1 → uplink 1
        let id = d.tor_sender_for(&t, t.tor(0, 0), core).unwrap();
        assert_eq!(id, d.tor_sender(t.tor(0, 0), 1).unwrap().id);
        // Unmeasured ToR → none.
        assert!(d.tor_sender_for(&t, t.tor(2, 0), core).is_none());
        // Non-core argument → none.
        assert!(d.tor_sender_for(&t, t.tor(0, 0), t.agg(0, 0)).is_none());
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
