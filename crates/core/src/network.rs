//! The [`Network`] wrapper: a named graph plus cached structural
//! facts, the object the high-level analyses consume.

use fx_graph::{CsrGraph, NodeSet};

/// A named network under study.
#[derive(Debug, Clone)]
pub struct Network {
    /// Display name (family + parameters).
    pub name: String,
    /// The topology.
    pub graph: CsrGraph,
}

impl Network {
    /// Wraps a graph with a display name.
    pub fn new(name: impl Into<String>, graph: CsrGraph) -> Self {
        Network {
            name: name.into(),
            graph,
        }
    }

    /// Node count.
    pub fn n(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Maximum degree `δ`.
    pub fn max_degree(&self) -> usize {
        self.graph.max_degree()
    }

    /// Full alive mask.
    pub fn full_mask(&self) -> NodeSet {
        NodeSet::full(self.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::generators;

    #[test]
    fn wraps_and_summarizes() {
        let net = Network::new("Q4", generators::hypercube(4));
        assert_eq!(net.n(), 16);
        assert_eq!(net.max_degree(), 4);
        assert_eq!(net.graph.num_edges(), 32);
        assert_eq!(net.name, "Q4");
        assert_eq!(net.full_mask().len(), 16);
    }
}
