//! Elementary families: paths, cycles, cliques, stars, complete
//! bipartite graphs.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::node::NodeId;

/// Path graph `P_n`: `0-1-...-(n-1)`.
pub fn path(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge((i - 1) as NodeId, i as NodeId);
    }
    b.build()
}

/// Cycle graph `C_n` (requires `n >= 3`; smaller n degrade to a path).
pub fn cycle(n: usize) -> CsrGraph {
    if n < 3 {
        return path(n);
    }
    let mut b = GraphBuilder::with_capacity(n, n);
    for i in 0..n {
        b.add_edge(i as NodeId, ((i + 1) % n) as NodeId);
    }
    b.build()
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(i as NodeId, j as NodeId);
        }
    }
    b.build()
}

/// Star `K_{1,n-1}`: node 0 is the hub.
pub fn star(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge(0, i as NodeId);
    }
    b.build()
}

/// Complete bipartite `K_{a,b}`: parts `0..a` and `a..a+b`.
pub fn complete_bipartite(a: usize, b_size: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(a + b_size, a * b_size);
    for i in 0..a {
        for j in 0..b_size {
            b.add_edge(i as NodeId, (a + j) as NodeId);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_counts() {
        let g = path(6);
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 1);
    }

    #[test]
    fn cycle_counts() {
        let g = cycle(6);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.min_degree(), 2);
        assert_eq!(g.max_degree(), 2);
        // degenerate sizes fall back to paths
        assert_eq!(cycle(2).num_edges(), 1);
        assert_eq!(cycle(1).num_edges(), 0);
    }

    #[test]
    fn complete_counts() {
        let g = complete(7);
        assert_eq!(g.num_edges(), 21);
        assert_eq!(g.min_degree(), 6);
    }

    #[test]
    fn star_counts() {
        let g = star(9);
        assert_eq!(g.degree(0), 8);
        assert_eq!(g.max_degree(), 8);
        assert_eq!(g.min_degree(), 1);
    }

    #[test]
    fn bipartite_counts() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.num_edges(), 12);
        assert!(!g.has_edge(0, 1)); // same side
        assert!(g.has_edge(0, 3));
    }
}
