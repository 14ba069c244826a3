//! Unweighted shortest-path machinery: single/multi-source BFS and
//! diameter (exact and two-sweep lower bound).
//!
//! The paper's §4 remark bounds the pruned component's diameter by
//! `O(α⁻¹ log n)`; experiment E10 measures it with these routines.
//! Multi-source BFS with source attribution is also the first phase of
//! Mehlhorn's Steiner approximation in [`crate::tree`].

use crate::bitset::NodeSet;
use crate::csr::CsrGraph;
use crate::node::NodeId;
use crate::scratch::Scratch;
use std::collections::VecDeque;

/// Marker for unreachable nodes in distance arrays.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `src` within `alive`. Dead/unreachable nodes get
/// [`UNREACHABLE`].
pub fn bfs_distances(g: &CsrGraph, alive: &NodeSet, src: NodeId) -> Vec<u32> {
    bfs_distances_with(g, alive, src, &mut Scratch::new()).to_vec()
}

/// [`bfs_distances`] through reusable scratch; the returned slice
/// borrows the scratch's distance buffer. Eccentricity sweeps call
/// this once per source with a single scratch instead of allocating a
/// distance array per source.
pub fn bfs_distances_with<'s>(
    g: &CsrGraph,
    alive: &NodeSet,
    src: NodeId,
    scratch: &'s mut Scratch,
) -> &'s [u32] {
    let n = g.num_nodes();
    scratch.reset(n);
    scratch.dist_filled(n, UNREACHABLE);
    if !alive.contains(src) {
        return &scratch.dist;
    }
    scratch.dist[src as usize] = 0;
    scratch.queue.push(src);
    let mut head = 0;
    while head < scratch.queue.len() {
        let v = scratch.queue[head];
        head += 1;
        let dv = scratch.dist[v as usize];
        for &w in g.neighbors(v) {
            if alive.contains(w) && scratch.dist[w as usize] == UNREACHABLE {
                scratch.dist[w as usize] = dv + 1;
                scratch.queue.push(w);
            }
        }
    }
    &scratch.dist
}

/// Result of a multi-source BFS: per-node distance to, and identity of,
/// the nearest source (Voronoi assignment).
#[derive(Debug, Clone)]
pub struct VoronoiBfs {
    /// Distance to the nearest source ([`UNREACHABLE`] if none).
    pub dist: Vec<u32>,
    /// Nearest source id (`u32::MAX` if unreachable). Ties broken by
    /// BFS discovery order, i.e. by source list order at equal depth.
    pub nearest: Vec<NodeId>,
}

/// Multi-source BFS from `sources` within `alive`.
pub fn multi_source_bfs(g: &CsrGraph, alive: &NodeSet, sources: &[NodeId]) -> VoronoiBfs {
    let n = g.num_nodes();
    let mut dist = vec![UNREACHABLE; n];
    let mut nearest = vec![u32::MAX as NodeId; n];
    let mut queue = VecDeque::new();
    for &s in sources {
        if alive.contains(s) && dist[s as usize] == UNREACHABLE {
            dist[s as usize] = 0;
            nearest[s as usize] = s;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        let sv = nearest[v as usize];
        for &w in g.neighbors(v) {
            if alive.contains(w) && dist[w as usize] == UNREACHABLE {
                dist[w as usize] = dv + 1;
                nearest[w as usize] = sv;
                queue.push_back(w);
            }
        }
    }
    VoronoiBfs { dist, nearest }
}

/// Eccentricity of `src` within its alive component (max finite BFS
/// distance), through reusable scratch. Returns `None` if `src` is
/// dead.
pub fn eccentricity_with(
    g: &CsrGraph,
    alive: &NodeSet,
    src: NodeId,
    scratch: &mut Scratch,
) -> Option<u32> {
    if !alive.contains(src) {
        return None;
    }
    let dist = bfs_distances_with(g, alive, src, scratch);
    dist.iter().filter(|&&d| d != UNREACHABLE).max().copied()
}

/// Exact diameter of the largest alive component via all-pairs BFS
/// (O(n·m); intended for n up to a few thousand — experiments use the
/// two-sweep estimate beyond that). One scratch serves every source.
pub fn diameter_exact(g: &CsrGraph, alive: &NodeSet) -> Option<u32> {
    let comp = crate::components::largest_component(g, alive);
    let mut scratch = Scratch::new();
    let mut best = None;
    for v in comp.iter() {
        let e = eccentricity_with(g, &comp, v, &mut scratch)?;
        best = Some(best.map_or(e, |b: u32| b.max(e)));
    }
    best
}

/// Two-sweep diameter lower bound on the largest alive component:
/// BFS from an arbitrary node, then BFS from the farthest node found.
/// Exact on trees; a (frequently tight) lower bound in general.
pub fn diameter_two_sweep(g: &CsrGraph, alive: &NodeSet) -> Option<u32> {
    let comp = crate::components::largest_component(g, alive);
    let start = comp.first()?;
    let mut scratch = Scratch::new();
    let d1 = bfs_distances_with(g, &comp, start, &mut scratch);
    let far = d1
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != UNREACHABLE)
        .max_by_key(|(_, &d)| d)
        .map(|(v, _)| v as NodeId)?;
    eccentricity_with(g, &comp, far, &mut scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;

    #[test]
    fn path_distances() {
        let g = generators::path(5);
        let alive = NodeSet::full(5);
        let d = bfs_distances(&g, &alive, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn masked_distances_unreachable() {
        let g = generators::path(5);
        let mut alive = NodeSet::full(5);
        alive.remove(2);
        let d = bfs_distances(&g, &alive, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[4], UNREACHABLE);
    }

    #[test]
    fn voronoi_assignment() {
        let g = generators::path(7);
        let alive = NodeSet::full(7);
        let v = multi_source_bfs(&g, &alive, &[0, 6]);
        assert_eq!(v.dist[3], 3);
        assert_eq!(v.nearest[1], 0);
        assert_eq!(v.nearest[5], 6);
        assert_eq!(v.dist[0], 0);
        assert_eq!(v.nearest[0], 0);
    }

    #[test]
    fn diameter_of_cycle_and_path() {
        let alive10 = NodeSet::full(10);
        assert_eq!(diameter_exact(&generators::cycle(10), &alive10), Some(5));
        assert_eq!(diameter_exact(&generators::path(10), &alive10), Some(9));
        // two-sweep is exact on paths (trees)
        assert_eq!(diameter_two_sweep(&generators::path(10), &alive10), Some(9));
        // and a valid lower bound on cycles
        let ts = diameter_two_sweep(&generators::cycle(10), &alive10).unwrap();
        assert!((4..=5).contains(&ts));
    }

    #[test]
    fn diameter_uses_largest_component() {
        // two components: path of 4 and edge
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(4, 5);
        let g = b.build();
        assert_eq!(diameter_exact(&g, &NodeSet::full(6)), Some(3));
    }

    #[test]
    fn empty_mask_no_diameter() {
        let g = generators::path(4);
        assert_eq!(diameter_exact(&g, &NodeSet::empty(4)), None);
        assert_eq!(diameter_two_sweep(&g, &NodeSet::empty(4)), None);
    }
}
