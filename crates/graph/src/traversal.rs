//! Breadth-first traversal over masked graphs.
//!
//! All traversals respect an alive mask. Every kernel has a `_with`
//! variant taking a [`Scratch`] so hot loops (the pruning loop calls
//! BFS thousands of times; the Monte-Carlo harnesses call it per
//! trial) reuse the visited set and queue instead of allocating; the
//! plain variants are convenience wrappers over a fresh scratch.

use crate::bitset::NodeSet;
use crate::csr::CsrGraph;
use crate::node::NodeId;
use crate::scratch::Scratch;

/// Nodes reachable from `src` within `alive`, in BFS order.
///
/// Returns an empty vector if `src` is not alive.
pub fn bfs_order(g: &CsrGraph, alive: &NodeSet, src: NodeId) -> Vec<NodeId> {
    let mut scratch = Scratch::new();
    bfs_order_with(g, alive, src, &mut scratch).to_vec()
}

/// [`bfs_order`] into reusable scratch; the returned slice borrows
/// the scratch's queue (BFS order *is* enqueue order).
pub fn bfs_order_with<'s>(
    g: &CsrGraph,
    alive: &NodeSet,
    src: NodeId,
    scratch: &'s mut Scratch,
) -> &'s [NodeId] {
    scratch.reset(g.num_nodes());
    if !alive.contains(src) {
        return &scratch.queue;
    }
    scratch.visited.insert(src);
    scratch.queue.push(src);
    let mut head = 0;
    while head < scratch.queue.len() {
        let v = scratch.queue[head];
        head += 1;
        for &w in g.neighbors(v) {
            if alive.contains(w) && scratch.visited.insert(w) {
                scratch.queue.push(w);
            }
        }
    }
    &scratch.queue
}

/// The set of nodes reachable from `src` within `alive`.
pub fn reachable_set(g: &CsrGraph, alive: &NodeSet, src: NodeId) -> NodeSet {
    let mut scratch = Scratch::new();
    reachable_set_with(g, alive, src, &mut scratch).clone()
}

/// [`reachable_set`] into reusable scratch; the returned set borrows
/// the scratch's visited buffer.
pub fn reachable_set_with<'s>(
    g: &CsrGraph,
    alive: &NodeSet,
    src: NodeId,
    scratch: &'s mut Scratch,
) -> &'s NodeSet {
    bfs_order_with(g, alive, src, scratch);
    &scratch.visited
}

/// Grows a connected node set from `seed` by BFS until it contains
/// `target_size` nodes (or the whole reachable region, whichever is
/// smaller). Used by greedy cut-finders and compact-set samplers.
pub fn bfs_ball(g: &CsrGraph, alive: &NodeSet, seed: NodeId, target_size: usize) -> NodeSet {
    let mut scratch = Scratch::new();
    bfs_ball_with(g, alive, seed, target_size, &mut scratch).clone()
}

/// [`bfs_ball`] into reusable scratch; the returned set borrows the
/// scratch's visited buffer.
pub fn bfs_ball_with<'s>(
    g: &CsrGraph,
    alive: &NodeSet,
    seed: NodeId,
    target_size: usize,
    scratch: &'s mut Scratch,
) -> &'s NodeSet {
    scratch.reset(g.num_nodes());
    if !alive.contains(seed) || target_size == 0 {
        return &scratch.visited;
    }
    let ball = &mut scratch.visited;
    ball.insert(seed);
    scratch.queue.push(seed);
    let mut head = 0;
    while head < scratch.queue.len() {
        let v = scratch.queue[head];
        head += 1;
        if ball.len() >= target_size {
            break;
        }
        for &w in g.neighbors(v) {
            if ball.len() >= target_size {
                break;
            }
            if alive.contains(w) && ball.insert(w) {
                scratch.queue.push(w);
            }
        }
    }
    &scratch.visited
}

/// True if the set `s` induces a connected subgraph of `g`.
/// The empty set is considered connected (vacuously), matching the
/// convention used by the compact-set machinery.
pub fn is_connected_subset(g: &CsrGraph, s: &NodeSet) -> bool {
    match s.first() {
        None => true,
        Some(src) => reachable_set(g, s, src).len() == s.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn two_triangles_bridge() -> CsrGraph {
        // 0-1-2 triangle, 3-4-5 triangle, bridge 2-3.
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
        b.add_edge(3, 4).add_edge(4, 5).add_edge(3, 5);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn bfs_covers_component() {
        let g = two_triangles_bridge();
        let alive = NodeSet::full(6);
        let order = bfs_order(&g, &alive, 0);
        assert_eq!(order.len(), 6);
        assert_eq!(order[0], 0);
    }

    #[test]
    fn bfs_respects_mask() {
        let g = two_triangles_bridge();
        let mut alive = NodeSet::full(6);
        alive.remove(2); // cut the bridgehead
        let order = bfs_order(&g, &alive, 0);
        assert_eq!(order, vec![0, 1]);
        assert!(bfs_order(&g, &alive, 2).is_empty());
    }

    #[test]
    fn scratch_reuse_is_invisible() {
        let g = two_triangles_bridge();
        let alive = NodeSet::full(6);
        let mut scratch = Scratch::new();
        // a hot, dirty scratch must give the same answers as a fresh one
        for _ in 0..3 {
            assert_eq!(
                bfs_order_with(&g, &alive, 0, &mut scratch),
                bfs_order(&g, &alive, 0)
            );
            assert_eq!(
                reachable_set_with(&g, &alive, 3, &mut scratch),
                &reachable_set(&g, &alive, 3)
            );
            assert_eq!(
                bfs_ball_with(&g, &alive, 0, 3, &mut scratch),
                &bfs_ball(&g, &alive, 0, 3)
            );
        }
    }

    #[test]
    fn ball_growth_stops_at_target() {
        let g = two_triangles_bridge();
        let alive = NodeSet::full(6);
        let ball = bfs_ball(&g, &alive, 0, 3);
        assert_eq!(ball.len(), 3);
        assert!(is_connected_subset(&g, &ball));
        let all = bfs_ball(&g, &alive, 0, 100);
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn connected_subset_check() {
        let g = two_triangles_bridge();
        assert!(is_connected_subset(&g, &NodeSet::from_iter(6, [0, 1, 2])));
        assert!(!is_connected_subset(&g, &NodeSet::from_iter(6, [0, 4])));
        assert!(is_connected_subset(&g, &NodeSet::empty(6)));
        assert!(is_connected_subset(&g, &NodeSet::from_iter(6, [5])));
    }
}
