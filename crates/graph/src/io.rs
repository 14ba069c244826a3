//! Graph (de)serialization: the JSON-friendly edge-list form behind
//! [`CsrGraph`]'s JSON impls.

use crate::csr::CsrGraph;
use crate::node::{Edge, NodeId};

/// Portable edge-list representation of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphData {
    /// Node count.
    pub n: usize,
    /// Canonical edges (`u < v`).
    pub edges: Vec<(NodeId, NodeId)>,
}

fx_json::impl_json_object!(GraphData { n, edges });

impl From<&CsrGraph> for GraphData {
    fn from(g: &CsrGraph) -> Self {
        GraphData {
            n: g.num_nodes(),
            edges: g.edges().map(|e| (e.u, e.v)).collect(),
        }
    }
}

impl From<&GraphData> for CsrGraph {
    fn from(d: &GraphData) -> Self {
        let edges: Vec<Edge> = d.edges.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        CsrGraph::from_canonical_edges(d.n, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn graph_data_roundtrip() {
        let g = generators::mesh(&[3, 4]);
        let data = GraphData::from(&g);
        let g2 = CsrGraph::from(&data);
        assert_eq!(g.num_nodes(), g2.num_nodes());
        assert_eq!(g.num_edges(), g2.num_edges());
        assert_eq!(GraphData::from(&g2), data);
    }
}
