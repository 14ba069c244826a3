//! Boundaries and cuts: `Γ(U)` and `(U, V\U)` from the paper's §1.3.
//!
//! These are the primitives every expansion ratio is built from:
//!
//! * node boundary `Γ(U)` — alive nodes outside `U` adjacent to `U`;
//! * edge cut `(U, alive\U)` — alive-alive edges leaving `U`.

use crate::bitset::NodeSet;
use crate::csr::CsrGraph;
use crate::scratch::Scratch;

/// `Γ(U)` restricted to `alive`: nodes in `alive \ U` with a neighbor
/// in `U`. (`U` is implicitly intersected with `alive`: dead members of
/// `U` contribute nothing.)
pub fn node_boundary(g: &CsrGraph, alive: &NodeSet, u: &NodeSet) -> NodeSet {
    let mut boundary = NodeSet::empty(g.num_nodes());
    for v in u.iter() {
        if !alive.contains(v) {
            continue;
        }
        for &w in g.neighbors(v) {
            if alive.contains(w) && !u.contains(w) {
                boundary.insert(w);
            }
        }
    }
    boundary
}

/// `|Γ(U)|` without materializing the boundary set when the caller
/// only needs the count. Still O(vol(U)) but avoids a second pass.
pub fn node_boundary_size(g: &CsrGraph, alive: &NodeSet, u: &NodeSet) -> usize {
    node_boundary_size_with(g, alive, u, &mut Scratch::new())
}

/// [`node_boundary_size`] through reusable scratch: the boundary
/// membership mask lives in the scratch's visited set, so repeated
/// cut evaluations (greedy cut-finders, expansion certificates)
/// allocate nothing.
pub fn node_boundary_size_with(
    g: &CsrGraph,
    alive: &NodeSet,
    u: &NodeSet,
    scratch: &mut Scratch,
) -> usize {
    scratch.reset(g.num_nodes());
    let mut size = 0usize;
    for v in u.iter() {
        if !alive.contains(v) {
            continue;
        }
        for &w in g.neighbors(v) {
            if alive.contains(w) && !u.contains(w) && scratch.visited.insert(w) {
                size += 1;
            }
        }
    }
    size
}

/// Number of alive-alive edges with exactly one endpoint in `U`.
pub fn edge_cut_size(g: &CsrGraph, alive: &NodeSet, u: &NodeSet) -> usize {
    let mut cut = 0usize;
    for v in u.iter() {
        if !alive.contains(v) {
            continue;
        }
        for &w in g.neighbors(v) {
            if alive.contains(w) && !u.contains(w) {
                cut += 1;
            }
        }
    }
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;

    #[test]
    fn boundary_on_path() {
        // path 0-1-2-3-4, U = {1,2}
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_edge(i, i + 1);
        }
        let g = b.build();
        let alive = NodeSet::full(5);
        let u = NodeSet::from_iter(5, [1, 2]);
        assert_eq!(node_boundary(&g, &alive, &u).to_vec(), vec![0, 3]);
        assert_eq!(edge_cut_size(&g, &alive, &u), 2);
    }

    #[test]
    fn boundary_respects_mask() {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_edge(i, i + 1);
        }
        let g = b.build();
        let mut alive = NodeSet::full(5);
        alive.remove(3);
        let u = NodeSet::from_iter(5, [1, 2]);
        // 3 is dead: boundary is just {0}
        assert_eq!(node_boundary(&g, &alive, &u).to_vec(), vec![0]);
        assert_eq!(edge_cut_size(&g, &alive, &u), 1);
    }

    #[test]
    fn dead_members_of_u_ignored() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 3);
        let g = b.build();
        let mut alive = NodeSet::full(4);
        alive.remove(1);
        let u = NodeSet::from_iter(4, [0, 1]); // 1 is dead
        assert!(node_boundary(&g, &alive, &u).is_empty());
    }

    #[test]
    fn cycle_halves() {
        let g = generators::cycle(8);
        let alive = NodeSet::full(8);
        let half = NodeSet::from_iter(8, [0, 1, 2, 3]);
        assert_eq!(edge_cut_size(&g, &alive, &half), 2);
        assert_eq!(node_boundary_size(&g, &alive, &half), 2);
    }

    #[test]
    fn boundary_size_with_hot_scratch_matches() {
        let g = generators::torus(&[4, 4]);
        let alive = NodeSet::full(16);
        let mut scratch = Scratch::new();
        for seed in [0u32, 5, 9] {
            let u = crate::traversal::bfs_ball(&g, &alive, seed, 5);
            for _ in 0..2 {
                assert_eq!(
                    node_boundary_size_with(&g, &alive, &u, &mut scratch),
                    node_boundary(&g, &alive, &u).len()
                );
            }
        }
    }
}
