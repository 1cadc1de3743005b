//! k-ary fat-tree construction.
//!
//! The paper's Fig. 1 shows the classic three-tier fat-tree data center: ToR
//! switches (T1…T8), aggregation/"edge" switches (E1…E8) and core routers
//! (C1…C4) — a k=4 instance of the k-ary fat-tree. This module builds the
//! graph for any even `k ≥ 2`:
//!
//! * `k` pods, each with `k/2` ToR and `k/2` aggregation switches;
//! * `(k/2)²` cores, where core `(g, j)` (group `g`, member `j`) connects to
//!   aggregation switch `g` of every pod;
//! * each ToR owns a `/24` host block, addressed Al-Fares style:
//!   `10.pod.tor.0/24` with hosts at `.2+`.
//!
//! Every switch carries its own (deterministically reseeded) ECMP hash — the
//! ingredient RLIR's reverse-ECMP demultiplexer relies on.

use rlir_net::hash::HashAlgo;
use rlir_net::prefix::Ipv4Prefix;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Index of a switch within a [`FatTree`].
pub type TopoId = usize;

/// What a switch port connects to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PortTarget {
    /// Another switch.
    Switch(TopoId),
    /// The switch's attached host block (ToR downlink).
    Hosts,
}

/// Role of a switch in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// Top-of-rack switch `i` in pod `p`.
    Tor {
        /// Pod index (0-based).
        pod: usize,
        /// ToR index within the pod.
        idx: usize,
    },
    /// Aggregation ("edge" in the paper's Fig. 1) switch `i` in pod `p`.
    Agg {
        /// Pod index.
        pod: usize,
        /// Aggregation index within the pod.
        idx: usize,
    },
    /// Core router in group `group` (connecting to aggregation switch
    /// `group` of each pod), member `member` of that group.
    Core {
        /// Which aggregation index this core's group serves.
        group: usize,
        /// Member within the group.
        member: usize,
    },
}

/// One switch of the fat-tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopoNode {
    /// Printable name (`T[p.i]`, `E[p.i]`, `C[g.j]`).
    pub name: String,
    /// Structural role.
    pub role: Role,
    /// This switch's ECMP hash function.
    pub hash: HashAlgo,
    /// Ports in the fixed conventional order (see crate docs).
    pub ports: Vec<PortTarget>,
}

/// A complete k-ary fat-tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FatTree {
    k: usize,
    nodes: Vec<TopoNode>,
}

impl FatTree {
    /// Build a k-ary fat-tree. `k` must be even and at least 2. Per-switch
    /// hashes are derived deterministically from `base_hash`.
    pub fn new(k: usize, base_hash: HashAlgo) -> Self {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree arity must be even, got {k}"
        );
        assert!(k <= 254, "addressing scheme supports k <= 254");
        let half = k / 2;
        let n_tors = k * half;
        let n_aggs = k * half;
        let n_cores = half * half;
        let mut nodes = Vec::with_capacity(n_tors + n_aggs + n_cores);

        // ToRs: ports 0..k/2 are uplinks to aggs, port k/2 is the host block.
        for p in 0..k {
            for i in 0..half {
                let mut ports: Vec<PortTarget> = (0..half)
                    .map(|u| PortTarget::Switch(n_tors + p * half + u))
                    .collect();
                ports.push(PortTarget::Hosts);
                nodes.push(TopoNode {
                    name: format!("T[{p}.{i}]"),
                    role: Role::Tor { pod: p, idx: i },
                    hash: base_hash.reseeded(nodes.len() as u64),
                    ports,
                });
            }
        }
        // Aggs: ports 0..k/2 are downlinks to ToRs, ports k/2..k to cores.
        for p in 0..k {
            for i in 0..half {
                let mut ports: Vec<PortTarget> = (0..half)
                    .map(|d| PortTarget::Switch(p * half + d))
                    .collect();
                ports.extend((0..half).map(|j| PortTarget::Switch(n_tors + n_aggs + i * half + j)));
                nodes.push(TopoNode {
                    name: format!("E[{p}.{i}]"),
                    role: Role::Agg { pod: p, idx: i },
                    hash: base_hash.reseeded(nodes.len() as u64),
                    ports,
                });
            }
        }
        // Cores: port p leads to pod p's aggregation switch `group`.
        for g in 0..half {
            for j in 0..half {
                let ports: Vec<PortTarget> = (0..k)
                    .map(|p| PortTarget::Switch(n_tors + p * half + g))
                    .collect();
                nodes.push(TopoNode {
                    name: format!("C[{g}.{j}]"),
                    role: Role::Core {
                        group: g,
                        member: j,
                    },
                    hash: base_hash.reseeded(nodes.len() as u64),
                    ports,
                });
            }
        }
        FatTree { k, nodes }
    }

    /// The arity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `k/2` — uplinks per ToR, pods per core group, etc.
    pub fn half(&self) -> usize {
        self.k / 2
    }

    /// Number of switches.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false (a fat-tree has at least 2 switches).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All switches.
    pub fn nodes(&self) -> &[TopoNode] {
        &self.nodes
    }

    /// One switch.
    pub fn node(&self, id: TopoId) -> &TopoNode {
        &self.nodes[id]
    }

    /// Id of ToR `idx` in `pod`.
    pub fn tor(&self, pod: usize, idx: usize) -> TopoId {
        debug_assert!(pod < self.k && idx < self.half());
        pod * self.half() + idx
    }

    /// Id of aggregation switch `idx` in `pod`.
    pub fn agg(&self, pod: usize, idx: usize) -> TopoId {
        debug_assert!(pod < self.k && idx < self.half());
        self.k * self.half() + pod * self.half() + idx
    }

    /// Id of core `member` in `group`.
    pub fn core(&self, group: usize, member: usize) -> TopoId {
        debug_assert!(group < self.half() && member < self.half());
        2 * self.k * self.half() + group * self.half() + member
    }

    /// All ToR ids.
    pub fn tors(&self) -> impl Iterator<Item = TopoId> + '_ {
        0..self.k * self.half()
    }

    /// All aggregation ids.
    pub fn aggs(&self) -> impl Iterator<Item = TopoId> + '_ {
        self.k * self.half()..2 * self.k * self.half()
    }

    /// All core ids.
    pub fn cores(&self) -> impl Iterator<Item = TopoId> + '_ {
        2 * self.k * self.half()..self.nodes.len()
    }

    /// Pod-partition group of every switch, indexed by topology id: ToRs
    /// and aggregations of pod `p` map to group `p`, every core switch to
    /// group `k` (one shared core group). Every ToR–Agg link stays inside a
    /// group, so the only inter-group edges are Agg–Core links, whose fixed
    /// latency is the lookahead `rlir_sim::run_network_sharded_source`
    /// counts windows by.
    pub fn pod_partition(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .map(|n| match n.role {
                Role::Tor { pod, .. } | Role::Agg { pod, .. } => pod,
                Role::Core { .. } => self.k,
            })
            .collect()
    }

    /// The `/24` host block owned by a ToR.
    pub fn host_prefix(&self, tor: TopoId) -> Ipv4Prefix {
        match self.nodes[tor].role {
            Role::Tor { pod, idx } => {
                Ipv4Prefix::new(Ipv4Addr::new(10, pod as u8, idx as u8, 0), 24).expect("valid /24")
            }
            _ => panic!("host_prefix of non-ToR {}", self.nodes[tor].name),
        }
    }

    /// Address of host `h` under a ToR (hosts start at `.2`).
    pub fn host_addr(&self, tor: TopoId, h: usize) -> Ipv4Addr {
        let pfx = self.host_prefix(tor);
        pfx.nth(2 + h as u64)
    }

    /// The ToR owning `addr`, if it is a fat-tree host address.
    pub fn tor_of_addr(&self, addr: Ipv4Addr) -> Option<TopoId> {
        let o = addr.octets();
        if o[0] != 10 {
            return None;
        }
        let (pod, idx) = (o[1] as usize, o[2] as usize);
        if pod < self.k && idx < self.half() {
            Some(self.tor(pod, idx))
        } else {
            None
        }
    }

    /// Pod of a host address (`None` if not a fat-tree address).
    pub fn pod_of_addr(&self, addr: Ipv4Addr) -> Option<usize> {
        self.tor_of_addr(addr).map(|t| match self.nodes[t].role {
            Role::Tor { pod, .. } => pod,
            _ => unreachable!("tor_of_addr returns ToRs"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> FatTree {
        FatTree::new(4, HashAlgo::default())
    }

    #[test]
    fn node_counts_match_k_ary_structure() {
        for k in [2usize, 4, 6, 8] {
            let t = FatTree::new(k, HashAlgo::default());
            let half = k / 2;
            assert_eq!(t.tors().count(), k * half, "tors for k={k}");
            assert_eq!(t.aggs().count(), k * half, "aggs for k={k}");
            assert_eq!(t.cores().count(), half * half, "cores for k={k}");
            assert_eq!(t.len(), 2 * k * half + half * half);
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_k_rejected() {
        FatTree::new(5, HashAlgo::default());
    }

    #[test]
    fn port_conventions() {
        let t = tree();
        let half = t.half();
        // ToR uplink u goes to agg (pod, u); last port is hosts.
        for pod in 0..t.k() {
            for i in 0..half {
                let tor = t.tor(pod, i);
                let node = t.node(tor);
                assert_eq!(node.ports.len(), half + 1);
                for u in 0..half {
                    assert_eq!(node.ports[u], PortTarget::Switch(t.agg(pod, u)));
                }
                assert_eq!(node.ports[half], PortTarget::Hosts);
            }
        }
        // Agg downlink d → tor (pod, d); uplink j → core (idx, j).
        for pod in 0..t.k() {
            for i in 0..half {
                let agg = t.agg(pod, i);
                let node = t.node(agg);
                assert_eq!(node.ports.len(), 2 * half);
                for d in 0..half {
                    assert_eq!(node.ports[d], PortTarget::Switch(t.tor(pod, d)));
                }
                for j in 0..half {
                    assert_eq!(node.ports[half + j], PortTarget::Switch(t.core(i, j)));
                }
            }
        }
        // Core (g, j) port p → agg (p, g).
        for g in 0..half {
            for j in 0..half {
                let c = t.core(g, j);
                let node = t.node(c);
                assert_eq!(node.ports.len(), t.k());
                for p in 0..t.k() {
                    assert_eq!(node.ports[p], PortTarget::Switch(t.agg(p, g)));
                }
            }
        }
    }

    #[test]
    fn links_are_bidirectionally_consistent() {
        // If X has a port to Y, Y must have a port back to X.
        let t = FatTree::new(6, HashAlgo::default());
        for (id, node) in t.nodes().iter().enumerate() {
            for port in &node.ports {
                if let PortTarget::Switch(other) = port {
                    let back = t.node(*other).ports.contains(&PortTarget::Switch(id));
                    assert!(
                        back,
                        "{} -> {} has no reverse link",
                        node.name,
                        t.node(*other).name
                    );
                }
            }
        }
    }

    #[test]
    fn addressing_round_trips() {
        let t = tree();
        for pod in 0..4 {
            for i in 0..2 {
                let tor = t.tor(pod, i);
                let pfx = t.host_prefix(tor);
                assert_eq!(pfx.to_string(), format!("10.{pod}.{i}.0/24"));
                for h in 0..2 {
                    let addr = t.host_addr(tor, h);
                    assert!(pfx.contains(addr));
                    assert_eq!(t.tor_of_addr(addr), Some(tor));
                    assert_eq!(t.pod_of_addr(addr), Some(pod));
                }
            }
        }
        assert_eq!(t.tor_of_addr(Ipv4Addr::new(192, 168, 0, 1)), None);
        assert_eq!(t.tor_of_addr(Ipv4Addr::new(10, 200, 0, 1)), None);
    }

    #[test]
    fn host_addresses_start_at_dot_two() {
        let t = tree();
        assert_eq!(t.host_addr(t.tor(1, 1), 0), Ipv4Addr::new(10, 1, 1, 2));
        assert_eq!(t.host_addr(t.tor(1, 1), 3), Ipv4Addr::new(10, 1, 1, 5));
    }

    #[test]
    fn per_switch_hashes_differ() {
        let t = tree();
        let h0 = t.node(t.tor(0, 0)).hash;
        let h1 = t.node(t.tor(0, 1)).hash;
        assert_ne!(h0, h1, "switch hashes must be decorrelated");
        // And rebuilt trees agree (determinism).
        let t2 = tree();
        assert_eq!(t.node(5).hash, t2.node(5).hash);
    }

    #[test]
    fn names_match_paper_style() {
        let t = tree();
        assert_eq!(t.node(t.tor(0, 0)).name, "T[0.0]");
        assert_eq!(t.node(t.agg(2, 1)).name, "E[2.1]");
        assert_eq!(t.node(t.core(1, 0)).name, "C[1.0]");
    }
}
