//! Longest-prefix-match (LPM) trie.
//!
//! The RLIR receiver performs "simple IP prefix matching" (§3.1) on every
//! regular packet to identify its origin ToR — this runs on the per-packet
//! hot path, so it is implemented as a flat binary trie over arena-indexed
//! nodes rather than a pointer-chasing tree. The same structure backs the
//! fat-tree routing tables in `rlir-topo`.

use crate::prefix::Ipv4Prefix;
use std::net::Ipv4Addr;

const NO_NODE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<T> {
    children: [u32; 2],
    value: Option<T>,
}

impl<T> Node<T> {
    fn new() -> Self {
        Node {
            children: [NO_NODE, NO_NODE],
            value: None,
        }
    }
}

/// A binary trie mapping IPv4 prefixes to values, supporting exact and
/// longest-prefix lookups.
///
/// ```
/// use rlir_net::trie::PrefixTrie;
/// use rlir_net::prefix::Ipv4Prefix;
/// use std::net::Ipv4Addr;
///
/// let mut t = PrefixTrie::new();
/// t.insert("10.0.0.0/8".parse().unwrap(), "pod");
/// t.insert("10.1.0.0/16".parse().unwrap(), "tor-1");
/// assert_eq!(t.lookup(Ipv4Addr::new(10, 1, 2, 3)), Some(&"tor-1"));
/// assert_eq!(t.lookup(Ipv4Addr::new(10, 9, 2, 3)), Some(&"pod"));
/// assert_eq!(t.lookup(Ipv4Addr::new(11, 0, 0, 1)), None);
/// ```
#[derive(Debug, Clone)]
pub struct PrefixTrie<T> {
    nodes: Vec<Node<T>>,
    len: usize,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    /// An empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![Node::new()],
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `prefix -> value`, returning the previous value if the prefix
    /// was already present.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        let mut idx = 0usize;
        for bit in prefix.bits() {
            let b = bit as usize;
            let child = self.nodes[idx].children[b];
            idx = if child == NO_NODE {
                self.nodes.push(Node::new());
                let new = (self.nodes.len() - 1) as u32;
                self.nodes[idx].children[b] = new;
                new as usize
            } else {
                child as usize
            };
        }
        let old = self.nodes[idx].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Exact-match lookup of a prefix.
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&T> {
        let mut idx = 0usize;
        for bit in prefix.bits() {
            let child = self.nodes[idx].children[bit as usize];
            if child == NO_NODE {
                return None;
            }
            idx = child as usize;
        }
        self.nodes[idx].value.as_ref()
    }

    /// Remove a prefix, returning its value. (Nodes are not compacted; the
    /// routing tables in this project are built once and queried many times.)
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<T> {
        let mut idx = 0usize;
        for bit in prefix.bits() {
            let child = self.nodes[idx].children[bit as usize];
            if child == NO_NODE {
                return None;
            }
            idx = child as usize;
        }
        let old = self.nodes[idx].value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Longest-prefix match: the value of the most specific stored prefix
    /// containing `addr`.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<&T> {
        let raw = u32::from(addr);
        let mut idx = 0usize;
        let mut best = self.nodes[0].value.as_ref();
        for depth in 0..32u8 {
            let bit = ((raw >> (31 - depth)) & 1) as usize;
            let child = self.nodes[idx].children[bit];
            if child == NO_NODE {
                break;
            }
            idx = child as usize;
            best = self.nodes[idx].value.as_ref().or(best);
        }
        best
    }

    /// Visit every stored `(prefix, value)` pair in unspecified order.
    pub fn for_each<F: FnMut(Ipv4Prefix, &T)>(&self, mut f: F) {
        // Depth-first walk reconstructing the prefix from the path.
        let mut stack: Vec<(usize, u32, u8)> = vec![(0, 0, 0)];
        while let Some((idx, addr, len)) = stack.pop() {
            if let Some(v) = self.nodes[idx].value.as_ref() {
                f(
                    Ipv4Prefix::new(Ipv4Addr::from(addr), len).expect("len <= 32"),
                    v,
                );
            }
            for b in 0..2u32 {
                let child = self.nodes[idx].children[b as usize];
                if child != NO_NODE {
                    debug_assert!(len < 32, "trie deeper than 32 bits");
                    let child_addr = addr | (b << (31 - len));
                    stack.push((child as usize, child_addr, len + 1));
                }
            }
        }
    }

    /// Collect all `(prefix, value)` pairs (cloning values), sorted by prefix.
    pub fn entries(&self) -> Vec<(Ipv4Prefix, T)>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.len);
        self.for_each(|p, v| out.push((p, v.clone())));
        out.sort_by_key(|(p, _)| (*p, p.len()));
        out
    }
}

impl<T> FromIterator<(Ipv4Prefix, T)> for PrefixTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Ipv4Prefix, T)>>(iter: I) -> Self {
        let mut t = PrefixTrie::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.get(&p("10.0.0.0/9")), None);
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(2));
        assert_eq!(t.remove(&p("10.0.0.0/8")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn longest_match_prefers_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), "default");
        t.insert(p("10.0.0.0/8"), "net");
        t.insert(p("10.1.0.0/16"), "pod");
        t.insert(p("10.1.2.0/24"), "tor");
        t.insert(p("10.1.2.3/32"), "host");

        let cases = [
            (Ipv4Addr::new(10, 1, 2, 3), "host"),
            (Ipv4Addr::new(10, 1, 2, 4), "tor"),
            (Ipv4Addr::new(10, 1, 9, 9), "pod"),
            (Ipv4Addr::new(10, 200, 0, 1), "net"),
            (Ipv4Addr::new(172, 16, 0, 1), "default"),
        ];
        for (addr, want) in cases {
            assert_eq!(t.lookup(addr), Some(&want), "addr {addr}");
        }
    }

    #[test]
    fn no_default_means_misses() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        assert!(t.lookup(Ipv4Addr::new(11, 0, 0, 1)).is_none());
        assert!(t.lookup(Ipv4Addr::new(9, 255, 255, 255)).is_none());
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixTrie::new();
        t.insert(Ipv4Prefix::DEFAULT, 42);
        assert_eq!(t.lookup(Ipv4Addr::new(1, 2, 3, 4)), Some(&42));
        assert_eq!(t.lookup(Ipv4Addr::new(255, 255, 255, 255)), Some(&42));
    }

    #[test]
    fn for_each_visits_all() {
        let prefixes = ["10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/24", "0.0.0.0/0"];
        let t: PrefixTrie<usize> = prefixes
            .iter()
            .enumerate()
            .map(|(i, s)| (p(s), i))
            .collect();
        let entries = t.entries();
        assert_eq!(entries.len(), prefixes.len());
        for (i, s) in prefixes.iter().enumerate() {
            assert!(entries.contains(&(p(s), i)), "missing {s}");
        }
    }

    #[test]
    fn sibling_prefixes_do_not_interfere() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/9"), "low");
        t.insert(p("10.128.0.0/9"), "high");
        assert_eq!(t.lookup(Ipv4Addr::new(10, 0, 0, 1)), Some(&"low"));
        assert_eq!(t.lookup(Ipv4Addr::new(10, 200, 0, 1)), Some(&"high"));
    }
}
