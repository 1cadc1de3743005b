//! Partial-placement complexity (§3.1, "Partial Placement Complexity").
//!
//! The paper derives how many measurement instances RLIR needs on a k-ary
//! fat-tree at three deployment granularities, versus full RLI deployment:
//!
//! | granularity | instances |
//! |---|---|
//! | one ToR *interface* pair (e.g. S1→R3) | `k + 2` |
//! | one ToR *switch* pair (all uplink interfaces) | `k(k+2)/2` |
//! | every ToR pair (paper's expression) | `(k/2)²(k+1)` |
//! | full deployment | `O(k⁴)` |
//!
//! This module provides the closed-form expressions *and* brute-force
//! enumeration over a constructed [`FatTree`], so the formulas are verified
//! structurally rather than taken on faith. (For the "every ToR pair" row the
//! paper's prose — "k/2 ToR switches need to install k/2 measurement
//! instances" — undercounts ToR uplink interfaces relative to its own
//! single-pair accounting; we reproduce the paper's expression verbatim and
//! additionally report the structurally-derived count
//! [`enumerate_all_tor_pairs`].)

use crate::fattree::{FatTree, Role, TopoId};
use rlir_net::FlowKey;
use std::collections::BTreeSet;

/// `k + 2`: instances to measure one specific ToR-uplink-interface pair.
///
/// Two instances (sender + receiver role) at each of the `k/2` cores
/// reachable from the fixed source uplink, plus one instance at each ToR
/// interface.
pub fn formula_interface_pair(k: usize) -> u64 {
    (k + 2) as u64
}

/// `k(k+2)/2`: instances to measure all interface pairs between two ToR
/// switches — two per core over all `(k/2)²` reachable cores plus `k/2`
/// uplink instances at each of the two ToRs.
pub fn formula_tor_pair(k: usize) -> u64 {
    (k * (k + 2) / 2) as u64
}

/// `(k/2)²(k+1)`: the paper's expression for measuring every pair of ToR
/// switches — `(k/2)²·k` instances across all core interfaces plus `(k/2)²`
/// at ToRs (as printed in §3.1).
pub fn formula_all_tor_pairs_paper(k: usize) -> u64 {
    let h = (k / 2) as u64;
    h * h * (k as u64 + 1)
}

/// Full-deployment instance count in the original RLI model: two instances
/// (one sender, one receiver) for each *ordered* pair of distinct interfaces
/// of every switch, which is the paper's `O(k⁴)` quantity.
pub fn formula_full_deployment(k: usize) -> u64 {
    let h = k / 2;
    let pair2 = |ports: usize| (ports * (ports - 1)) as u64; // 2·C(ports,2)
    let tor_ports = h + 1; // k/2 uplinks + host block
    let agg_ports = k;
    let core_ports = k;
    (k * h) as u64 * pair2(tor_ports)
        + (k * h) as u64 * pair2(agg_ports)
        + (h * h) as u64 * pair2(core_ports)
}

/// One RLIR deployment row for a given `k`.
#[derive(Debug, Clone, Copy)]
pub struct PlacementRow {
    /// Fat-tree arity.
    pub k: usize,
    /// `k+2` (single interface pair).
    pub interface_pair: u64,
    /// `k(k+2)/2` (single ToR pair).
    pub tor_pair: u64,
    /// `(k/2)²(k+1)` (paper's all-ToR-pairs expression).
    pub all_tor_pairs_paper: u64,
    /// Structurally enumerated all-ToR-pairs count (cores fully instrumented
    /// + every ToR uplink interface).
    pub all_tor_pairs_enumerated: u64,
    /// Full RLI deployment (`O(k⁴)`).
    pub full_deployment: u64,
}

impl PlacementRow {
    /// Compute the row for arity `k`.
    pub fn for_k(k: usize) -> PlacementRow {
        let tree = FatTree::new(k, rlir_net::HashAlgo::default());
        PlacementRow {
            k,
            interface_pair: formula_interface_pair(k),
            tor_pair: formula_tor_pair(k),
            all_tor_pairs_paper: formula_all_tor_pairs_paper(k),
            all_tor_pairs_enumerated: enumerate_all_tor_pairs(&tree),
            full_deployment: formula_full_deployment(k),
        }
    }

    /// Reduction factor of RLIR (paper expression) vs full deployment.
    pub fn reduction(&self) -> f64 {
        self.full_deployment as f64 / self.all_tor_pairs_paper as f64
    }
}

/// The set of cores reachable from one specific uplink interface of
/// `src_tor` towards any other pod, found by sweeping flow keys. With the
/// source uplink fixed (i.e. the agg fixed) this is exactly the agg's `k/2`
/// core neighbours.
pub fn enumerate_cores_from_uplink(
    tree: &FatTree,
    src_tor: TopoId,
    uplink: usize,
) -> BTreeSet<TopoId> {
    let Role::Tor { pod, .. } = tree.node(src_tor).role else {
        panic!("not a ToR")
    };
    let agg = tree.agg(pod, uplink);
    tree.node(agg)
        .ports
        .iter()
        .filter_map(|p| match p {
            crate::fattree::PortTarget::Switch(s)
                if matches!(tree.node(*s).role, Role::Core { .. }) =>
            {
                Some(*s)
            }
            _ => None,
        })
        .collect()
}

/// Enumerate the instance count for a single interface pair, mirroring the
/// paper's accounting: 2 per reachable core + 1 per ToR interface.
pub fn enumerate_interface_pair(tree: &FatTree, src_tor: TopoId, uplink: usize) -> u64 {
    let cores = enumerate_cores_from_uplink(tree, src_tor, uplink);
    2 * cores.len() as u64 + 2
}

/// Enumerate the cores on actual ECMP paths between two ToRs in different
/// pods by sweeping many flow keys (uses the real routing, not structure).
pub fn enumerate_cores_between(
    tree: &FatTree,
    src_tor: TopoId,
    dst_tor: TopoId,
) -> BTreeSet<TopoId> {
    let mut cores = BTreeSet::new();
    let dst = tree.host_addr(dst_tor, 0);
    // Sweep source ports; the sweep is heuristic but with per-switch hashes
    // and enough keys it covers every equal-cost path.
    for h in 0..4u64 {
        let src = tree.host_addr(src_tor, h as usize);
        for sport in 0..512u16 {
            let f = FlowKey::tcp(src, 1024 + sport, dst, 80);
            if let Some(c) = tree.core_of_path(&f) {
                cores.insert(c);
            }
        }
    }
    cores
}

/// Enumerate the instance count for one ToR pair: 2 per core on any path +
/// one per uplink interface at each ToR.
pub fn enumerate_tor_pair(tree: &FatTree, src_tor: TopoId, dst_tor: TopoId) -> u64 {
    let cores = enumerate_cores_between(tree, src_tor, dst_tor);
    2 * cores.len() as u64 + 2 * tree.half() as u64
}

/// Structurally enumerate the "every ToR pair" deployment: every core
/// interface hosts an instance, and every ToR uplink interface hosts one.
pub fn enumerate_all_tor_pairs(tree: &FatTree) -> u64 {
    let core_ifaces: u64 = tree.cores().map(|c| tree.node(c).ports.len() as u64).sum();
    let tor_uplinks: u64 = tree.tors().map(|_| tree.half() as u64).sum();
    core_ifaces + tor_uplinks
}

/// The full §3.1 table for a range of arities.
pub fn placement_table(ks: &[usize]) -> Vec<PlacementRow> {
    ks.iter().map(|&k| PlacementRow::for_k(k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_net::HashAlgo;

    #[test]
    fn formulas_match_paper_examples() {
        // §3.1 quotes k+2 for one interface pair and k(k+2)/2 for a ToR pair.
        assert_eq!(formula_interface_pair(4), 6);
        assert_eq!(formula_tor_pair(4), 12);
        assert_eq!(formula_all_tor_pairs_paper(4), 4 * 5);
        assert_eq!(formula_interface_pair(8), 10);
        assert_eq!(formula_tor_pair(8), 40);
        assert_eq!(formula_all_tor_pairs_paper(8), 16 * 9);
    }

    #[test]
    fn interface_pair_formula_verified_by_enumeration() {
        for k in [4usize, 6, 8] {
            let tree = FatTree::new(k, HashAlgo::default());
            let count = enumerate_interface_pair(&tree, tree.tor(0, 0), 0);
            assert_eq!(count, formula_interface_pair(k), "k={k}");
        }
    }

    #[test]
    fn cores_from_uplink_is_half_k() {
        for k in [4usize, 6, 8] {
            let tree = FatTree::new(k, HashAlgo::default());
            let cores = enumerate_cores_from_uplink(&tree, tree.tor(1, 0), 1);
            assert_eq!(cores.len(), k / 2, "k={k}");
            // All in the same group (group = uplink index).
            for c in cores {
                assert!(matches!(tree.node(c).role, Role::Core { group: 1, .. }));
            }
        }
    }

    #[test]
    fn tor_pair_formula_verified_by_enumeration() {
        for k in [4usize, 6] {
            let tree = FatTree::new(k, HashAlgo::Crc32 { seed: 3 });
            let (a, b) = (tree.tor(0, 0), tree.tor(k - 1, 0));
            let cores = enumerate_cores_between(&tree, a, b);
            assert_eq!(cores.len(), (k / 2) * (k / 2), "k={k}: {cores:?}");
            assert_eq!(enumerate_tor_pair(&tree, a, b), formula_tor_pair(k));
        }
    }

    #[test]
    fn all_tor_pairs_core_term_matches_paper() {
        // The paper's core term (k/2)²·k equals the enumerated core
        // interface count; the divergence is only in the ToR term.
        for k in [4usize, 6, 8] {
            let tree = FatTree::new(k, HashAlgo::default());
            let core_ifaces: u64 = tree.cores().map(|c| tree.node(c).ports.len() as u64).sum();
            let h = (k / 2) as u64;
            assert_eq!(core_ifaces, h * h * k as u64, "k={k}");
            // Enumerated total = paper core term + all ToR uplinks
            // (k·(k/2) ToR switches × k/2 uplinks each).
            assert_eq!(
                enumerate_all_tor_pairs(&tree),
                h * h * k as u64 + k as u64 * h * h,
            );
        }
    }

    #[test]
    fn full_deployment_dominates_and_scales_k4() {
        for k in [4usize, 8, 16] {
            let row = PlacementRow::for_k(k);
            assert!(row.full_deployment > row.all_tor_pairs_paper, "k={k}");
            assert!(row.reduction() > 1.0);
        }
        // Doubling k multiplies the full deployment by ~2⁴ asymptotically.
        let r16 = formula_full_deployment(16) as f64;
        let r32 = formula_full_deployment(32) as f64;
        assert!((r32 / r16) > 10.0 && (r32 / r16) < 20.0, "{}", r32 / r16);
    }

    #[test]
    fn table_has_monotone_counts() {
        let table = placement_table(&[4, 6, 8, 12, 16]);
        for w in table.windows(2) {
            assert!(w[0].interface_pair < w[1].interface_pair);
            assert!(w[0].tor_pair < w[1].tor_pair);
            assert!(w[0].full_deployment < w[1].full_deployment);
        }
    }
}
