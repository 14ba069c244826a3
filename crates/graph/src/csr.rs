//! `CsrGraph`: immutable compressed-sparse-row undirected graph.
//!
//! All algorithms in the workspace operate on a `CsrGraph` plus an
//! optional [`NodeSet`] "alive" mask. The CSR layout
//! stores each undirected edge twice (once per direction) in a single
//! flat `targets` array indexed by per-node `offsets`, giving
//! cache-friendly sequential neighbor scans and zero per-node
//! allocation — the layout the perf-book recommends for hot,
//! read-dominated structures.

use crate::bitset::NodeSet;
use crate::node::{Edge, NodeId};

/// Immutable undirected graph in CSR form.
///
/// Construct via [`GraphBuilder`](crate::GraphBuilder) or the generator
/// functions in [`generators`](crate::generators).
#[derive(Clone)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for node `v`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists.
    targets: Vec<NodeId>,
    /// Number of undirected edges (`targets.len() / 2`).
    num_edges: usize,
}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrGraph")
            .field("nodes", &self.num_nodes())
            .field("edges", &self.num_edges)
            .finish()
    }
}

impl CsrGraph {
    /// Builds a CSR graph from a canonical edge list.
    ///
    /// `edges` must contain each undirected edge exactly once with
    /// endpoints `< n`, no self-loops, no duplicates. Use
    /// [`GraphBuilder`](crate::GraphBuilder) for unvalidated input.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or a self-loop/duplicate
    /// slips through (checked in debug builds).
    pub fn from_canonical_edges(n: usize, edges: &[Edge]) -> Self {
        assert!(n <= u32::MAX as usize, "graph too large for u32 node ids");
        let mut degree = vec![0u32; n];
        for e in edges {
            assert!(
                (e.u as usize) < n && (e.v as usize) < n,
                "edge {e:?} out of range (n={n})"
            );
            degree[e.u as usize] += 1;
            degree[e.v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0 as NodeId; edges.len() * 2];
        for e in edges {
            targets[cursor[e.u as usize] as usize] = e.v;
            cursor[e.u as usize] += 1;
            targets[cursor[e.v as usize] as usize] = e.u;
            cursor[e.v as usize] += 1;
        }
        for v in 0..n {
            targets[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        let g = CsrGraph {
            offsets,
            targets,
            num_edges: edges.len(),
        };
        debug_assert!(g.validate().is_ok(), "{:?}", g.validate());
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of `v` in the full (unmasked) graph.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Sorted neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.degree(v as NodeId))
            .max()
            .unwrap_or(0)
    }

    /// Minimum degree over all nodes (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.degree(v as NodeId))
            .min()
            .unwrap_or(0)
    }

    /// True if `{u,v}` is an edge (binary search, O(log deg)).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over canonical edges (`u < v`), in increasing order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| Edge { u, v })
        })
    }

    /// Degree of `v` counting only neighbors in `alive`.
    pub fn degree_in(&self, v: NodeId, alive: &NodeSet) -> usize {
        self.neighbors(v)
            .iter()
            .filter(|&&w| alive.contains(w))
            .count()
    }

    /// Structural sanity check: sorted unique neighbor lists, symmetric
    /// adjacency, no self-loops, consistent edge count.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        if self.targets.len() != 2 * self.num_edges {
            return Err(format!(
                "targets len {} != 2 * edges {}",
                self.targets.len(),
                self.num_edges
            ));
        }
        for v in 0..n as NodeId {
            let nb = self.neighbors(v);
            for w in nb.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("neighbors of {v} not sorted-unique"));
                }
            }
            for &w in nb {
                if w == v {
                    return Err(format!("self-loop at {v}"));
                }
                if (w as usize) >= n {
                    return Err(format!("neighbor {w} of {v} out of range"));
                }
                if self.neighbors(w).binary_search(&v).is_err() {
                    return Err(format!("asymmetric edge ({v},{w})"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> CsrGraph {
        // 0-1, 1-2, 0-2 triangle; 3 pendant on 2.
        let edges = [
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(0, 2),
            Edge::new(2, 3),
        ];
        CsrGraph::from_canonical_edges(4, &edges)
    }

    #[test]
    fn basic_structure() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn has_edge_and_edges_iter() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 1));
        let es: Vec<Edge> = g.edges().collect();
        assert_eq!(es.len(), 4);
        assert!(es.contains(&Edge::new(2, 3)));
        // canonical: u < v always
        assert!(es.iter().all(|e| e.u < e.v));
    }

    #[test]
    fn degree_in_mask() {
        let g = triangle_plus_pendant();
        let alive = NodeSet::from_iter(4, [0, 2, 3]);
        assert_eq!(g.degree_in(2, &alive), 2); // 0 and 3 alive, 1 dead
        assert_eq!(g.degree_in(0, &alive), 1);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_canonical_edges(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn isolated_nodes_allowed() {
        let g = CsrGraph::from_canonical_edges(5, &[Edge::new(0, 1)]);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.degree(4), 0);
        assert!(g.validate().is_ok());
    }
}
