//! Composite / pathological families used by tests, lower bounds, and
//! the attack experiments: barbells and lollipops.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::node::NodeId;

/// Barbell: two `K_m` cliques joined by a path of `bridge` edges
/// (`bridge = 1` means the cliques share one edge between them).
/// The canonical "one thin cut" fixture.
pub fn barbell(m: usize, bridge: usize) -> CsrGraph {
    assert!(m >= 1 && bridge >= 1);
    let path_nodes = bridge - 1;
    let n = 2 * m + path_nodes;
    let mut b = GraphBuilder::with_capacity(n, m * m + bridge);
    let clique = |b: &mut GraphBuilder, base: usize| {
        for i in 0..m {
            for j in (i + 1)..m {
                b.add_edge((base + i) as NodeId, (base + j) as NodeId);
            }
        }
    };
    clique(&mut b, 0);
    clique(&mut b, m + path_nodes);
    // path from clique A's node 0 to clique B's node 0
    let mut prev = 0 as NodeId;
    for i in 0..path_nodes {
        let v = (m + i) as NodeId;
        b.add_edge(prev, v);
        prev = v;
    }
    b.add_edge(prev, (m + path_nodes) as NodeId);
    b.build()
}

/// Lollipop: `K_m` with a pendant path of `tail` nodes.
pub fn lollipop(m: usize, tail: usize) -> CsrGraph {
    assert!(m >= 1);
    let n = m + tail;
    let mut b = GraphBuilder::with_capacity(n, m * m / 2 + tail);
    for i in 0..m {
        for j in (i + 1)..m {
            b.add_edge(i as NodeId, j as NodeId);
        }
    }
    let mut prev = 0 as NodeId;
    for i in 0..tail {
        let v = (m + i) as NodeId;
        b.add_edge(prev, v);
        prev = v;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::NodeSet;
    use crate::components::is_connected;

    #[test]
    fn barbell_structure() {
        let g = barbell(5, 1);
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 2 * 10 + 1);
        assert!(is_connected(&g, &NodeSet::full(10)));
        // with a longer bridge
        let g2 = barbell(4, 3);
        assert_eq!(g2.num_nodes(), 10);
        assert!(is_connected(&g2, &NodeSet::full(10)));
        assert_eq!(g2.degree(8), 3); // second clique entry port has bridge + clique edges
    }

    #[test]
    fn lollipop_structure() {
        let g = lollipop(6, 4);
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 15 + 4);
        assert_eq!(g.degree(9), 1);
        assert!(is_connected(&g, &NodeSet::full(10)));
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(barbell(1, 1).num_edges(), 1);
        assert_eq!(lollipop(1, 0).num_edges(), 0);
    }
}
