//! `GraphBuilder`: mutable edge accumulator that produces a validated
//! [`CsrGraph`].
//!
//! The builder tolerates duplicate edges and both endpoint orders
//! (they are canonicalized and deduplicated at `build()`), but rejects
//! self-loops and out-of-range endpoints eagerly so errors point at the
//! offending insertion site.

use crate::csr::CsrGraph;
use crate::node::{Edge, NodeId};

/// Accumulates edges for a graph on a fixed node universe.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` nodes and no edges yet.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "graph too large for u32 node ids");
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Pre-reserves capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Number of nodes in the universe.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    /// Panics on self-loops or endpoints `>= n`.
    #[inline]
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        self.edges.push(Edge::new(u, v));
        self
    }

    /// Adds `{u, v}` unless it is a self-loop (silently skipped).
    /// Convenient for generators whose arithmetic may collapse
    /// endpoints (e.g. de Bruijn shifts, tori of side 1).
    #[inline]
    pub fn add_edge_skip_loop(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        if u != v {
            self.add_edge(u, v);
        }
        self
    }

    /// Finalizes into an immutable CSR graph, deduplicating parallel
    /// edges.
    pub fn build(mut self) -> CsrGraph {
        self.edges.sort_unstable();
        self.edges.dedup();
        CsrGraph::from_canonical_edges(self.n, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_and_canonicalizes() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1)
            .add_edge(1, 0)
            .add_edge(1, 2)
            .add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn skip_loop_helper() {
        let mut b = GraphBuilder::new(2);
        b.add_edge_skip_loop(0, 0).add_edge_skip_loop(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        GraphBuilder::new(2).add_edge(0, 5);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        GraphBuilder::new(2).add_edge(1, 1);
    }

    #[test]
    fn empty_build() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 0);
    }
}
