//! Forwarding and path computation on the fat-tree.
//!
//! Standard two-level ECMP routing:
//!
//! * **ToR**: deliver locally if the destination is in the ToR's host block,
//!   otherwise hash the 5-tuple over the `k/2` uplinks.
//! * **Aggregation**: route down to the destination ToR if the destination is
//!   in this pod, otherwise hash over the `k/2` core uplinks.
//! * **Core**: route down to the destination's pod (deterministic).
//!
//! The downward half of any path is fully determined by the destination
//! address; all path diversity comes from the two upward hash decisions —
//! exactly the structure RLIR's reverse-ECMP demultiplexer (§3.1) exploits.

use crate::fattree::{FatTree, Role, TopoId};
use rlir_net::FlowKey;

/// A forwarding decision at one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextHop {
    /// Forward out this port index (per the fat-tree port conventions).
    Port(usize),
    /// The destination host hangs off this ToR: deliver on the host port.
    HostPort(usize),
    /// The destination is not routable from here.
    Unroutable,
}

impl FatTree {
    /// The forwarding decision `node` makes for `flow`.
    pub fn next_hop(&self, node: TopoId, flow: &FlowKey) -> NextHop {
        let half = self.half();
        let Some(dst_tor) = self.tor_of_addr(flow.dst) else {
            return NextHop::Unroutable;
        };
        let dst_pod = self.pod_of_addr(flow.dst).expect("dst_tor implies dst_pod");
        let n = self.node(node);
        match n.role {
            Role::Tor { .. } => {
                if node == dst_tor {
                    NextHop::HostPort(half) // port k/2 is the host block
                } else {
                    NextHop::Port(n.hash.select(flow, half))
                }
            }
            Role::Agg { pod, .. } => {
                if pod == dst_pod {
                    // Downlink d connects to ToR (pod, d).
                    let Role::Tor { idx, .. } = self.node(dst_tor).role else {
                        unreachable!("tor_of_addr returns ToRs")
                    };
                    NextHop::Port(idx)
                } else {
                    NextHop::Port(half + n.hash.select(flow, half))
                }
            }
            Role::Core { .. } => NextHop::Port(dst_pod),
        }
    }

    /// The full switch path a packet with `flow` takes from its source ToR
    /// (derived from `flow.src`) to delivery, inclusive of both ToRs.
    /// Returns `None` if either endpoint is not a fat-tree address.
    pub fn path(&self, flow: &FlowKey) -> Option<Vec<TopoId>> {
        let src_tor = self.tor_of_addr(flow.src)?;
        self.tor_of_addr(flow.dst)?;
        let mut path = vec![src_tor];
        let mut here = src_tor;
        // A fat-tree path has at most 5 switches (ToR-Agg-Core-Agg-ToR);
        // budget a few extra iterations as a loop guard.
        for _ in 0..8 {
            match self.next_hop(here, flow) {
                NextHop::HostPort(_) => return Some(path),
                NextHop::Unroutable => return None,
                NextHop::Port(p) => {
                    let crate::fattree::PortTarget::Switch(next) = self.node(here).ports[p] else {
                        return Some(path); // host port reached
                    };
                    path.push(next);
                    here = next;
                }
            }
        }
        unreachable!("fat-tree routing loop for flow {flow}")
    }

    /// The core router (if any) on the path of `flow`. Intra-pod and
    /// intra-ToR flows use no core.
    pub fn core_of_path(&self, flow: &FlowKey) -> Option<TopoId> {
        self.path(flow)?
            .into_iter()
            .find(|&id| matches!(self.node(id).role, Role::Core { .. }))
    }

    /// Reverse-ECMP computation (§3.1): *without* tracing the packet, infer
    /// the upstream path — source ToR, chosen aggregation switch and chosen
    /// core — by re-evaluating the upstream switches' hash functions on the
    /// flow key, exactly as an RLIR receiver with access to the vendors' hash
    /// functions would. Returns `None` for non-fat-tree sources/destinations;
    /// the core entry is `None` for intra-pod flows.
    pub fn reverse_ecmp(&self, flow: &FlowKey) -> Option<ReversedPath> {
        let src_tor = self.tor_of_addr(flow.src)?;
        let dst_tor = self.tor_of_addr(flow.dst)?;
        if src_tor == dst_tor {
            return Some(ReversedPath {
                src_tor,
                agg: None,
                core: None,
            });
        }
        let (src_pod, _) = match self.node(src_tor).role {
            Role::Tor { pod, idx } => (pod, idx),
            _ => unreachable!("tor_of_addr returns ToRs"),
        };
        let dst_pod = self.pod_of_addr(flow.dst)?;
        // First upward choice: the source ToR's hash picks the agg.
        let up1 = self.node(src_tor).hash.select(flow, self.half());
        let agg = self.agg(src_pod, up1);
        if src_pod == dst_pod {
            return Some(ReversedPath {
                src_tor,
                agg: Some(agg),
                core: None,
            });
        }
        // Second upward choice: that agg's hash picks the core member.
        let up2 = self.node(agg).hash.select(flow, self.half());
        let core = self.core(up1, up2);
        Some(ReversedPath {
            src_tor,
            agg: Some(agg),
            core: Some(core),
        })
    }
}

/// Result of [`FatTree::reverse_ecmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReversedPath {
    /// The origin ToR (from the source prefix).
    pub src_tor: TopoId,
    /// The aggregation switch chosen by the ToR's hash (`None` if the flow
    /// never leaves its ToR).
    pub agg: Option<TopoId>,
    /// The core chosen by the aggregation switch's hash (`None` for
    /// intra-pod flows).
    pub core: Option<TopoId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_net::hash::HashAlgo;
    use std::net::Ipv4Addr;

    fn tree() -> FatTree {
        FatTree::new(4, HashAlgo::default())
    }

    fn flow(
        t: &FatTree,
        sp: (usize, usize, usize),
        dp: (usize, usize, usize),
        port: u16,
    ) -> FlowKey {
        FlowKey::tcp(
            t.host_addr(t.tor(sp.0, sp.1), sp.2),
            10_000 + port,
            t.host_addr(t.tor(dp.0, dp.1), dp.2),
            80,
        )
    }

    #[test]
    fn interpod_path_shape() {
        let t = tree();
        let f = flow(&t, (0, 0, 0), (3, 1, 0), 1);
        let path = t.path(&f).unwrap();
        assert_eq!(path.len(), 5, "ToR-Agg-Core-Agg-ToR, got {path:?}");
        assert!(matches!(t.node(path[0]).role, Role::Tor { pod: 0, .. }));
        assert!(matches!(t.node(path[1]).role, Role::Agg { pod: 0, .. }));
        assert!(matches!(t.node(path[2]).role, Role::Core { .. }));
        assert!(matches!(t.node(path[3]).role, Role::Agg { pod: 3, .. }));
        assert_eq!(path[4], t.tor(3, 1));
    }

    #[test]
    fn intrapod_path_shape() {
        let t = tree();
        let f = flow(&t, (1, 0, 0), (1, 1, 0), 2);
        let path = t.path(&f).unwrap();
        assert_eq!(path.len(), 3, "ToR-Agg-ToR, got {path:?}");
        assert!(matches!(t.node(path[1]).role, Role::Agg { pod: 1, .. }));
        assert!(t.core_of_path(&f).is_none());
    }

    #[test]
    fn same_tor_path_is_single_switch() {
        let t = tree();
        let f = flow(&t, (2, 1, 0), (2, 1, 1), 3);
        assert_eq!(t.path(&f).unwrap(), vec![t.tor(2, 1)]);
    }

    #[test]
    fn unroutable_addresses() {
        let t = tree();
        // Non-fat-tree source: forwarding still works (it keys on the
        // destination), but path computation cannot find the entry ToR.
        let f = FlowKey::tcp(
            Ipv4Addr::new(192, 168, 0, 1),
            1,
            t.host_addr(t.tor(0, 0), 0),
            80,
        );
        assert!(t.path(&f).is_none());
        assert!(t.reverse_ecmp(&f).is_none());
        // Non-fat-tree destination: no route at any switch.
        let f = FlowKey::tcp(
            t.host_addr(t.tor(0, 0), 0),
            1,
            Ipv4Addr::new(192, 168, 0, 1),
            80,
        );
        assert_eq!(t.next_hop(t.tor(0, 0), &f), NextHop::Unroutable);
        assert!(t.path(&f).is_none());
    }

    #[test]
    fn ecmp_spreads_flows_over_cores() {
        let t = tree();
        let mut seen = std::collections::HashSet::new();
        for i in 0..200u16 {
            let f = flow(&t, (0, 0, 0), (3, 1, 0), i);
            if let Some(core) = t.core_of_path(&f) {
                seen.insert(core);
            }
        }
        // k=4 has 4 cores; varied ports should reach all of them.
        assert_eq!(seen.len(), 4, "cores used: {seen:?}");
    }

    #[test]
    fn routing_is_flow_deterministic() {
        let t = tree();
        let f = flow(&t, (0, 1, 0), (2, 0, 1), 9);
        assert_eq!(t.path(&f), t.path(&f));
    }

    #[test]
    fn reverse_ecmp_matches_forward_path() {
        let t = FatTree::new(6, HashAlgo::Crc32 { seed: 77 });
        let mut inter = 0;
        for sp in 0..6usize {
            for dp in 0..6usize {
                for port in 0..20u16 {
                    let f = flow(&t, (sp, sp % 3, 0), (dp, (dp + 1) % 3, 1), port);
                    let fwd = t.path(&f).unwrap();
                    let rev = t.reverse_ecmp(&f).unwrap();
                    assert_eq!(rev.src_tor, fwd[0]);
                    let fwd_agg = fwd
                        .iter()
                        .copied()
                        .find(|&n| matches!(t.node(n).role, Role::Agg { .. }));
                    let fwd_core = fwd
                        .iter()
                        .copied()
                        .find(|&n| matches!(t.node(n).role, Role::Core { .. }));
                    // The *first* agg on the path is the upward choice.
                    if fwd.len() >= 3 {
                        assert_eq!(rev.agg, Some(fwd[1]), "flow {f}");
                    } else {
                        assert_eq!(rev.agg.is_some(), fwd_agg.is_some());
                    }
                    assert_eq!(rev.core, fwd_core, "flow {f}");
                    if fwd_core.is_some() {
                        inter += 1;
                    }
                }
            }
        }
        assert!(inter > 100, "expected many inter-pod flows, got {inter}");
    }

    #[test]
    fn core_choice_depends_on_both_hashes() {
        // With distinct per-switch hashes, two flows that agree on the ToR
        // choice can still diverge at the agg. Just assert both decisions
        // are exercised across a key sweep.
        let t = tree();
        let mut aggs = std::collections::HashSet::new();
        for i in 0..100u16 {
            let f = flow(&t, (0, 0, 0), (2, 0, 0), i);
            let rev = t.reverse_ecmp(&f).unwrap();
            aggs.insert(rev.agg.unwrap());
        }
        assert_eq!(aggs.len(), 2, "both pod-0 aggs should be used");
    }

    #[test]
    fn next_hop_downward_is_deterministic() {
        let t = tree();
        let f = flow(&t, (0, 0, 0), (3, 1, 0), 4);
        // Core must always route to pod 3.
        for g in 0..2 {
            for m in 0..2 {
                match t.next_hop(t.core(g, m), &f) {
                    NextHop::Port(p) => assert_eq!(p, 3),
                    other => panic!("core gave {other:?}"),
                }
            }
        }
        // Pod-3 aggs must route down to ToR index 1 (port 1).
        for i in 0..2 {
            match t.next_hop(t.agg(3, i), &f) {
                NextHop::Port(p) => assert_eq!(p, 1),
                other => panic!("agg gave {other:?}"),
            }
        }
        // Destination ToR delivers on the host port (index k/2 = 2).
        assert_eq!(t.next_hop(t.tor(3, 1), &f), NextHop::HostPort(2));
    }
}
