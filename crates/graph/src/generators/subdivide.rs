//! Edge subdivision: the lower-bound construction of Theorem 2.3.
//!
//! Given a host graph `G` (an expander in the paper) and chain length
//! `k`, every edge `{u, v}` is replaced by a path
//! `u — c₀ — c₁ — … — c_{k−1} — v` of `k` fresh interior nodes. The
//! result `H` has `n + k·m` nodes and expansion `Θ(1/k)` (Claim 2.4);
//! removing the *central* chain nodes (one per original edge, Theorem
//! 2.3) shatters `H` into components of size `O(δ·k)`.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::node::{Edge, NodeId};

/// A subdivided graph together with the bookkeeping the chain-center
/// adversary (Theorem 2.3) and experiments need.
#[derive(Debug, Clone)]
pub struct SubdividedGraph {
    /// The subdivided graph `H`.
    pub graph: CsrGraph,
    /// Chain length `k` (interior nodes per original edge).
    pub k: usize,
    /// Number of nodes of the original graph (ids `0..original_n` in
    /// `H` are the original nodes).
    pub original_n: usize,
    /// Original edges, parallel to the chain layout: chain `i` serves
    /// `original_edges[i]`.
    pub original_edges: Vec<Edge>,
}

impl SubdividedGraph {
    /// Interior chain nodes of chain `i` in path order
    /// (`u`-adjacent first).
    pub fn chain(&self, i: usize) -> impl Iterator<Item = NodeId> + '_ {
        let base = self.original_n + i * self.k;
        (base..base + self.k).map(|x| x as NodeId)
    }

    /// The *central node* of chain `i`: interior index `⌊k/2⌋`
    /// (the node the Theorem 2.3 adversary removes; the paper takes
    /// `k` even).
    pub fn chain_center(&self, i: usize) -> NodeId {
        (self.original_n + i * self.k + self.k / 2) as NodeId
    }

    /// All chain centers (one per original edge).
    pub fn centers(&self) -> Vec<NodeId> {
        (0..self.original_edges.len())
            .map(|i| self.chain_center(i))
            .collect()
    }
}

/// Subdivides every edge of `g` with `k` interior nodes. `k = 0`
/// returns a copy of `g` (with empty chain bookkeeping).
pub fn subdivide(g: &CsrGraph, k: usize) -> SubdividedGraph {
    let original_n = g.num_nodes();
    let original_edges: Vec<Edge> = g.edges().collect();
    let m = original_edges.len();
    let n_new = original_n + k * m;
    let mut b = GraphBuilder::with_capacity(n_new, m * (k + 1));
    if k == 0 {
        for e in &original_edges {
            b.add_edge(e.u, e.v);
        }
    } else {
        for (i, e) in original_edges.iter().enumerate() {
            let base = (original_n + i * k) as NodeId;
            b.add_edge(e.u, base);
            for j in 1..k {
                b.add_edge(base + j as NodeId - 1, base + j as NodeId);
            }
            b.add_edge(base + k as NodeId - 1, e.v);
        }
    }
    SubdividedGraph {
        graph: b.build(),
        k,
        original_n,
        original_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::NodeSet;
    use crate::components::{components, is_connected};
    use crate::generators;

    #[test]
    fn node_and_edge_counts() {
        let g = generators::cycle(5);
        let s = subdivide(&g, 3);
        assert_eq!(s.graph.num_nodes(), 5 + 3 * 5);
        assert_eq!(s.graph.num_edges(), 5 * 4);
        assert!(is_connected(&s.graph, &NodeSet::full(20)));
    }

    #[test]
    fn k_zero_copies() {
        let g = generators::complete(4);
        let s = subdivide(&g, 0);
        assert_eq!(s.graph.num_nodes(), 4);
        assert_eq!(s.graph.num_edges(), 6);
    }

    #[test]
    fn chains_are_paths_between_endpoints() {
        let g = generators::path(2); // single edge 0-1
        let s = subdivide(&g, 4);
        assert_eq!(s.graph.num_nodes(), 6);
        let chain: Vec<_> = s.chain(0).collect();
        assert_eq!(chain, vec![2, 3, 4, 5]);
        assert!(s.graph.has_edge(0, 2));
        assert!(s.graph.has_edge(2, 3));
        assert!(s.graph.has_edge(5, 1));
        assert!(!s.graph.has_edge(0, 1));
        // distance through the chain = k+1
        let d = crate::distance::bfs_distances(&s.graph, &NodeSet::full(6), 0);
        assert_eq!(d[1], 5);
    }

    #[test]
    fn center_removal_shatters() {
        // Theorem 2.3 mechanics on a small expander stand-in (K_5):
        // removing every chain center must break all original
        // connectivity: each remaining component contains at most one
        // original node.
        let g = generators::complete(5);
        let s = subdivide(&g, 4);
        let mut alive = NodeSet::full(s.graph.num_nodes());
        for c in s.centers() {
            alive.remove(c);
        }
        let comps = components(&s.graph, &alive);
        // every component has ≤ 1 original node and ≤ 1 + δ·k/2 nodes
        let delta = 4;
        for c in 0..comps.count() {
            let members = comps.members(c);
            let originals = members
                .iter()
                .filter(|&v| (v as usize) < s.original_n)
                .count();
            assert!(originals <= 1);
            assert!(members.len() <= 1 + delta * s.k / 2 + delta);
        }
    }

    #[test]
    fn chain_bookkeeping() {
        let g = generators::cycle(4);
        let s = subdivide(&g, 2);
        assert_eq!(s.centers().len(), 4);
        assert!(3 < s.original_n, "node 3 is original");
        assert!(4 >= s.original_n, "node 4 is a chain node");
        assert_eq!(s.chain_center(0), 4 + 1);
    }
}
