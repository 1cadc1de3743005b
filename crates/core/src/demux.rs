//! Receiver-side traffic demultiplexing (§3.1, the heart of RLIR).
//!
//! "Correct operation of RLI requires applying linear interpolation for
//! packets that traversed exactly the same path as reference packets." When
//! RLI instances sit on different routers, the receiver must therefore
//! associate every regular packet with the reference stream that shared its
//! path:
//!
//! * **Upstream**: identify the packet's origin ToR by *IP prefix matching*
//!   on its source address (each ToR owns an address block); reference
//!   packets carry an explicit sender id.
//! * **Downstream**: identify the *core* the packet crossed, by either
//!   **packet marking** (the core stamps the ToS byte; needs core firmware
//!   support) or **reverse ECMP computation** (re-evaluate the upstream
//!   switches' hash functions; needs the vendors' hash functions).
//!
//! [`CoreDemux::Naive`] disables association entirely — the configuration
//! the paper warns "can be totally wrong" — and is used by the demux
//! ablation experiment.

use rlir_net::fxhash::FxHashMap;
use rlir_net::packet::Packet;
use rlir_net::trie::PrefixTrie;
use rlir_net::FlowKey;
use rlir_topo::{FatTree, Role, TopoId};
use std::cell::RefCell;

/// Strategy for the downstream (which-core) association.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreDemux {
    /// No association at all (ablation baseline; plain RLI across routers).
    Naive,
    /// Read the mark the core stamped into the ToS byte.
    Marking,
    /// Re-run the upstream ECMP hash functions on the flow key.
    ReverseEcmp,
}

impl CoreDemux {
    /// Figure-legend label.
    pub fn label(&self) -> &'static str {
        match self {
            CoreDemux::Naive => "naive",
            CoreDemux::Marking => "marking",
            CoreDemux::ReverseEcmp => "reverse-ecmp",
        }
    }
}

/// The ToS mark a core stamps on forwarded packets: its ordinal within the
/// core layer plus one (zero means "unmarked").
pub fn core_mark(tree: &FatTree, core: TopoId) -> u8 {
    let first = tree.cores().next().expect("fat-tree has cores");
    debug_assert!(matches!(tree.node(core).role, Role::Core { .. }));
    (core - first + 1) as u8
}

/// Inverse of [`core_mark`].
pub fn core_from_mark(tree: &FatTree, mark: u8) -> Option<TopoId> {
    if mark == 0 {
        return None;
    }
    let first = tree.cores().next().expect("fat-tree has cores");
    let core = first + mark as usize - 1;
    (core < tree.len()).then_some(core)
}

/// The RLIR receiver-side demultiplexer.
#[derive(Debug, Clone)]
pub struct RlirDemux<'t> {
    tree: &'t FatTree,
    origin: PrefixTrie<TopoId>,
    mode: CoreDemux,
    /// Per-flow memo for reverse-ECMP association: the traversed core is a
    /// pure function of the flow key, and flows repeat for every packet, so
    /// the hash recomputation is paid once per flow instead of once per
    /// packet. FxHash-keyed on the 13-byte flow key (hot path).
    ecmp_cache: RefCell<FxHashMap<FlowKey, Option<TopoId>>>,
}

impl<'t> RlirDemux<'t> {
    /// Build for a topology; the origin table maps every ToR's host block to
    /// its ToR id.
    pub fn new(tree: &'t FatTree, mode: CoreDemux) -> Self {
        let origin = tree
            .tors()
            .map(|tor| (tree.host_prefix(tor), tor))
            .collect();
        RlirDemux {
            tree,
            origin,
            mode,
            ecmp_cache: RefCell::new(FxHashMap::default()),
        }
    }

    /// The configured downstream strategy.
    pub fn mode(&self) -> CoreDemux {
        self.mode
    }

    /// Upstream association: the origin ToR of a regular packet, by
    /// longest-prefix match on its source address.
    pub fn origin_tor(&self, pkt: &Packet) -> Option<TopoId> {
        self.origin.lookup(pkt.flow.src).copied()
    }

    /// Downstream association: the core this packet traversed, per the
    /// configured strategy. `None` under [`CoreDemux::Naive`], for unmarked
    /// packets under marking, or for intra-pod flows under reverse ECMP.
    pub fn traversed_core(&self, pkt: &Packet) -> Option<TopoId> {
        match self.mode {
            CoreDemux::Naive => None,
            CoreDemux::Marking => core_from_mark(self.tree, pkt.mark),
            CoreDemux::ReverseEcmp => *self
                .ecmp_cache
                .borrow_mut()
                .entry(pkt.flow)
                .or_insert_with(|| self.tree.reverse_ecmp(&pkt.flow).and_then(|r| r.core)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_net::time::SimTime;
    use rlir_net::{FlowKey, HashAlgo};

    fn tree() -> FatTree {
        FatTree::new(4, HashAlgo::default())
    }

    fn pkt(tree: &FatTree, src_tor: TopoId, dst_tor: TopoId, sport: u16) -> Packet {
        Packet::regular(
            1,
            FlowKey::tcp(
                tree.host_addr(src_tor, 0),
                sport,
                tree.host_addr(dst_tor, 0),
                80,
            ),
            100,
            SimTime::ZERO,
        )
    }

    #[test]
    fn marks_round_trip_for_every_core() {
        let t = tree();
        for core in t.cores() {
            let m = core_mark(&t, core);
            assert!(m > 0);
            assert_eq!(core_from_mark(&t, m), Some(core));
        }
        assert_eq!(core_from_mark(&t, 0), None);
        assert_eq!(core_from_mark(&t, 200), None);
    }

    #[test]
    fn origin_tor_by_prefix() {
        let t = tree();
        let d = RlirDemux::new(&t, CoreDemux::ReverseEcmp);
        let p = pkt(&t, t.tor(2, 1), t.tor(0, 0), 99);
        assert_eq!(d.origin_tor(&p), Some(t.tor(2, 1)));
        // Foreign source → no origin.
        let mut foreign = p;
        foreign.flow.src = "192.168.1.1".parse().unwrap();
        assert_eq!(d.origin_tor(&foreign), None);
    }

    #[test]
    fn reverse_ecmp_mode_matches_routing() {
        let t = tree();
        let d = RlirDemux::new(&t, CoreDemux::ReverseEcmp);
        for sport in 0..100u16 {
            let p = pkt(&t, t.tor(0, 0), t.tor(3, 1), sport);
            assert_eq!(
                d.traversed_core(&p),
                t.core_of_path(&p.flow),
                "sport {sport}"
            );
        }
    }

    #[test]
    fn marking_mode_reads_tos() {
        let t = tree();
        let d = RlirDemux::new(&t, CoreDemux::Marking);
        let mut p = pkt(&t, t.tor(0, 0), t.tor(3, 1), 7);
        assert_eq!(d.traversed_core(&p), None, "unmarked");
        let core = t.cores().nth(2).unwrap();
        p.mark = core_mark(&t, core);
        assert_eq!(d.traversed_core(&p), Some(core));
    }

    #[test]
    fn naive_mode_associates_nothing() {
        let t = tree();
        let d = RlirDemux::new(&t, CoreDemux::Naive);
        let mut p = pkt(&t, t.tor(0, 0), t.tor(3, 1), 7);
        p.mark = 1;
        assert_eq!(d.traversed_core(&p), None);
        assert_eq!(CoreDemux::Naive.label(), "naive");
    }

    #[test]
    fn reverse_ecmp_cache_is_transparent() {
        let t = tree();
        let d = RlirDemux::new(&t, CoreDemux::ReverseEcmp);
        assert_eq!(d.ecmp_cache.borrow().len(), 0);
        let p = pkt(&t, t.tor(0, 0), t.tor(3, 1), 9);
        let first = d.traversed_core(&p);
        assert_eq!(d.ecmp_cache.borrow().len(), 1);
        // Repeated packets of the same flow hit the memo and agree.
        for _ in 0..10 {
            assert_eq!(d.traversed_core(&p), first);
        }
        assert_eq!(d.ecmp_cache.borrow().len(), 1);
        // A different flow adds an entry and still matches the routing.
        let q = pkt(&t, t.tor(0, 0), t.tor(3, 1), 10);
        assert_eq!(d.traversed_core(&q), t.core_of_path(&q.flow));
        assert_eq!(d.ecmp_cache.borrow().len(), 2);
    }

    #[test]
    fn intra_pod_flows_have_no_core() {
        let t = tree();
        let d = RlirDemux::new(&t, CoreDemux::ReverseEcmp);
        let p = pkt(&t, t.tor(1, 0), t.tor(1, 1), 7);
        assert_eq!(d.traversed_core(&p), None);
    }
}
