//! Node and edge identifier types.
//!
//! Nodes are dense `u32` indices in `0..n`. Using `u32` rather than
//! `usize` halves the memory footprint of adjacency arrays and node
//! queues, which matters for multi-million-node percolation sweeps
//! (see the Rust perf-book guidance on smaller integer types).

/// Dense node identifier. Valid ids are `0..graph.num_nodes()`.
pub type NodeId = u32;

/// An undirected edge, stored with `u <= v` in canonical form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
}

impl Edge {
    /// Creates a canonical (sorted-endpoint) edge.
    ///
    /// # Panics
    /// Panics if `u == v` (self-loops are not representable; the
    /// builder rejects them before reaching this type).
    #[inline]
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert_ne!(u, v, "self-loop edge ({u},{v})");
        if u < v {
            Edge { u, v }
        } else {
            Edge { u: v, v: u }
        }
    }

    /// The endpoint different from `x`.
    ///
    /// # Panics
    /// Panics if `x` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else {
            debug_assert_eq!(x, self.v, "node {x} not an endpoint of {self:?}");
            self.u
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_canonicalizes_endpoints() {
        assert_eq!(Edge::new(5, 2), Edge::new(2, 5));
        assert_eq!(Edge::new(5, 2).u, 2);
        assert_eq!(Edge::new(5, 2).v, 5);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(3, 7);
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(4, 4);
    }
}
