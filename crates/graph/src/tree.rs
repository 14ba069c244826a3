//! Steiner trees.
//!
//! The span `σ = max_U |P(U)|/|Γ(U)|` (paper §1.4, eq. 1) needs the
//! *smallest tree spanning a terminal set* — a minimum Steiner tree.
//! Minimum Steiner trees are NP-hard, so we provide the classic duo:
//!
//! * [`mehlhorn_steiner`] — Mehlhorn's 2-approximation (near-linear):
//!   Voronoi partition around terminals, MST of the induced terminal
//!   distance network, expansion to real paths, leaf pruning. Gives an
//!   *upper-bound witness tree*.
//! * [`dreyfus_wagner_cost`] — exact DP over terminal subsets, usable
//!   for ≤ 14 terminals. Gives the *exact optimum* (edge count) so
//!   small-case spans are exact and the approximation is testable.

use crate::bitset::NodeSet;
use crate::csr::CsrGraph;
use crate::distance::{multi_source_bfs, UNREACHABLE};
use crate::node::{Edge, NodeId};
use crate::unionfind::UnionFind;

/// A tree (or forest) embedded in a host graph: every edge is a host
/// edge.
#[derive(Debug, Clone)]
pub struct Tree {
    /// Nodes touched by the tree.
    pub nodes: NodeSet,
    /// Tree edges (canonical endpoints).
    pub edges: Vec<Edge>,
}

impl Tree {
    /// Number of nodes in the tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges in the tree.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Validates tree-ness inside `g`: every edge exists in `g`, the
    /// edge count is `nodes-1` (or 0 for empty), and the edges connect
    /// exactly `nodes`.
    pub fn validate(&self, g: &CsrGraph) -> Result<(), String> {
        if self.nodes.is_empty() {
            return if self.edges.is_empty() {
                Ok(())
            } else {
                Err("edges without nodes".into())
            };
        }
        if self.edges.len() + 1 != self.nodes.len() {
            return Err(format!(
                "edge count {} != node count {} - 1",
                self.edges.len(),
                self.nodes.len()
            ));
        }
        let mut uf = UnionFind::new(g.num_nodes());
        for e in &self.edges {
            if !g.has_edge(e.u, e.v) {
                return Err(format!("tree edge {e:?} not in host graph"));
            }
            if !self.nodes.contains(e.u) || !self.nodes.contains(e.v) {
                return Err(format!("tree edge {e:?} endpoint outside node set"));
            }
            if !uf.union(e.u, e.v) {
                return Err(format!("cycle introduced by {e:?}"));
            }
        }
        let root = self.nodes.first().expect("nonempty");
        for v in self.nodes.iter() {
            if !uf.connected(root, v) {
                return Err(format!("node {v} disconnected from tree"));
            }
        }
        Ok(())
    }

    /// True if every terminal is a tree node.
    pub fn spans(&self, terminals: &[NodeId]) -> bool {
        terminals.iter().all(|&t| self.nodes.contains(t))
    }
}

/// Mehlhorn's 2-approximate Steiner tree for `terminals` within
/// `alive`.
///
/// Returns `None` if the terminals are not all alive and mutually
/// connected. For a single terminal the tree is that node alone.
///
/// Guarantee: `result.num_edges() <= 2 * OPT_edges` (classic Mehlhorn
/// bound, tested against [`dreyfus_wagner_cost`] in the property
/// suite). Every buffer is a flat `Vec` indexed by node or terminal,
/// and ties are broken by terminal and node ids, so one input always
/// gives one tree.
pub fn mehlhorn_steiner(g: &CsrGraph, alive: &NodeSet, terminals: &[NodeId]) -> Option<Tree> {
    let mut terms: Vec<NodeId> = terminals.to_vec();
    terms.sort_unstable();
    terms.dedup();
    if terms.is_empty() {
        return Some(Tree {
            nodes: NodeSet::empty(g.num_nodes()),
            edges: Vec::new(),
        });
    }
    if terms.iter().any(|&t| !alive.contains(t)) {
        return None;
    }
    if terms.len() == 1 {
        return Some(Tree {
            nodes: NodeSet::from_iter(g.num_nodes(), [terms[0]]),
            edges: Vec::new(),
        });
    }

    // Phase 1: Voronoi regions around terminals, labelled by dense
    // terminal index (`NO_REGION` for nodes no terminal reaches).
    const NO_REGION: u32 = u32::MAX;
    let vor = multi_source_bfs(g, alive, &terms);
    let mut region = vec![NO_REGION; g.num_nodes()];
    for (i, &t) in terms.iter().enumerate() {
        region[t as usize] = i as u32;
    }
    // a terminal is its own nearest source, so its slot keeps its index
    for v in 0..g.num_nodes() {
        if vor.dist[v] != UNREACHABLE {
            region[v] = region[vor.nearest[v] as usize];
        }
    }

    // Phase 2: candidate inter-terminal edges from boundary graph
    // edges, weight = dist(u) + 1 + dist(v). Sorted on
    // (w, a, b, u, v), the first candidate of a terminal pair is its
    // lightest bridge (the smallest edge among equals), and Kruskal
    // passes over the pair's later candidates: it is joined by then.
    let mut cand: Vec<(u32, u32, u32, NodeId, NodeId)> = Vec::new();
    for u in alive.iter() {
        let ru = region[u as usize];
        if ru == NO_REGION {
            continue;
        }
        for &v in g.neighbors(u) {
            let rv = region[v as usize];
            if u >= v || rv == NO_REGION || rv == ru {
                continue;
            }
            let w = vor.dist[u as usize] + 1 + vor.dist[v as usize];
            cand.push((w, ru.min(rv), ru.max(rv), u, v));
        }
    }

    // Phase 3: Kruskal MST over the terminal distance network.
    cand.sort_unstable();
    let mut uf = UnionFind::new(terms.len());
    let mut bridges = Vec::with_capacity(terms.len() - 1);
    for &(_, a, b, u, v) in &cand {
        if uf.union(a, b) {
            bridges.push((u, v));
        }
    }
    if uf.num_components() != 1 {
        return None; // terminals not mutually connected
    }

    // Phase 4: expand each MST edge into a real path
    // u -> nearest[u], bridge edge, v -> nearest[v].
    let mut edge_set: Vec<Edge> = Vec::new();
    let walk_to_source = |mut x: NodeId, edges: &mut Vec<Edge>| {
        while vor.dist[x as usize] > 0 {
            let target_d = vor.dist[x as usize] - 1;
            let lab = vor.nearest[x as usize];
            let next = g
                .neighbors(x)
                .iter()
                .copied()
                .find(|&w| {
                    alive.contains(w)
                        && vor.dist[w as usize] == target_d
                        && vor.nearest[w as usize] == lab
                })
                .expect("BFS parent with same Voronoi label must exist");
            edges.push(Edge::new(x, next));
            x = next;
        }
    };
    for (u, v) in bridges {
        walk_to_source(u, &mut edge_set);
        walk_to_source(v, &mut edge_set);
        edge_set.push(Edge::new(u, v));
    }
    edge_set.sort_unstable();
    edge_set.dedup();

    // Phase 5: the union of paths may contain cycles — take a BFS
    // spanning tree of the collected subgraph, then prune non-terminal
    // leaves.
    Some(pruned_bfs_tree(g.num_nodes(), &edge_set, &terms))
}

/// The BFS spanning tree of the subgraph `edges` from `terminals[0]`,
/// cut down to the union of its terminal-to-root paths. Because the
/// root is a terminal, that union is exactly what repeatedly removing
/// non-terminal leaves leaves behind. Edges keep BFS discovery order.
fn pruned_bfs_tree(n: usize, edges: &[Edge], terminals: &[NodeId]) -> Tree {
    // adjacency of `edges` in CSR form, each list in edge order
    let mut start = vec![0u32; n + 1];
    for e in edges {
        start[e.u as usize + 1] += 1;
        start[e.v as usize + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut fill = start.clone();
    let mut adj = vec![0 as NodeId; 2 * edges.len()];
    for e in edges {
        for (a, b) in [(e.u, e.v), (e.v, e.u)] {
            adj[fill[a as usize] as usize] = b;
            fill[a as usize] += 1;
        }
    }

    // BFS from the root; `discovered` lists (parent, child) pairs, so
    // read backwards it visits every child before its parent
    let root = terminals[0];
    let mut seen = NodeSet::from_iter(n, [root]);
    let mut queue = vec![root];
    let mut discovered: Vec<(NodeId, NodeId)> = Vec::new();
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        for &w in &adj[start[v as usize] as usize..start[v as usize + 1] as usize] {
            if seen.insert(w) {
                discovered.push((v, w));
                queue.push(w);
            }
        }
    }

    let mut nodes = NodeSet::from_iter(n, terminals.iter().copied());
    for &(parent, child) in discovered.iter().rev() {
        if nodes.contains(child) {
            nodes.insert(parent);
        }
    }
    let edges = discovered
        .into_iter()
        .filter(|&(_, child)| nodes.contains(child))
        .map(|(parent, child)| Edge::new(parent, child))
        .collect();
    Tree { nodes, edges }
}

/// Maximum number of terminals accepted by [`dreyfus_wagner_cost`].
pub const DREYFUS_WAGNER_MAX_TERMINALS: usize = 14;

/// True when [`dreyfus_wagner_cost`] takes on `terminals` (≥ 2)
/// distinct terminals of a graph with `num_nodes` nodes: at most
/// [`DREYFUS_WAGNER_MAX_TERMINALS`] of them, and a `2^k × n` table of
/// at most 16 M entries. Alive, connected terminals that fit always
/// get their optimum.
pub fn dreyfus_wagner_fits(num_nodes: usize, terminals: usize) -> bool {
    terminals <= DREYFUS_WAGNER_MAX_TERMINALS
        && (1usize << terminals).saturating_mul(num_nodes) <= 16_000_000
}

/// "Unreached" in the Dreyfus–Wagner slab: small enough that the sum
/// of two entries never wraps.
const INF: u32 = u32::MAX / 4;

/// Exact minimum Steiner tree *cost* (number of edges) for `terminals`
/// within `alive`, by the Dreyfus–Wagner subset DP.
///
/// Returns `None` if terminals are not mutually connected, any terminal
/// is dead, or the instance does not [fit](dreyfus_wagner_fits) (more
/// than [`DREYFUS_WAGNER_MAX_TERMINALS`] terminals, or too large a
/// table). Cost in *edges*; the tree's node count is `cost + 1`.
pub fn dreyfus_wagner_cost(g: &CsrGraph, alive: &NodeSet, terminals: &[NodeId]) -> Option<u32> {
    let mut terms: Vec<NodeId> = terminals.to_vec();
    terms.sort_unstable();
    terms.dedup();
    let k = terms.len();
    if k == 0 {
        return Some(0);
    }
    if k > DREYFUS_WAGNER_MAX_TERMINALS {
        return None;
    }
    if terms.iter().any(|&t| !alive.contains(t)) {
        return None;
    }
    if k == 1 {
        return Some(0);
    }
    let n = g.num_nodes();
    // refuse instances that would thrash memory (the span pipeline
    // falls back to Mehlhorn bounds there)
    if !dreyfus_wagner_fits(n, k) {
        return None;
    }

    // One flat slab: row `mask` holds, for every node v, the fewest
    // edges of a tree spanning terms(mask) ∪ {v}, and the optimum is
    // the full row's entry at a terminal.
    let rows = 1usize << k;
    let mut dp = vec![INF; rows * n];
    let mut relax = UnitRelax::default();
    for (i, &t) in terms.iter().enumerate() {
        let row = &mut dp[(1 << i) * n..][..n];
        row[t as usize] = 0;
        relax.run(g, alive, row);
    }
    for mask in 3..rows {
        if mask & (mask - 1) == 0 {
            continue; // a single terminal: its BFS row is above
        }
        let (done, todo) = dp.split_at_mut(mask * n);
        let row = &mut todo[..n];
        // every split {A, B} of mask once, its lowest terminal in A;
        // min-plus merge without branches (INF + INF cannot wrap)
        let low = mask & mask.wrapping_neg();
        let high = mask ^ low;
        let mut sub = high;
        while sub != 0 {
            sub = (sub - 1) & high;
            let a = &done[(sub | low) * n..][..n];
            let b = &done[(high ^ sub) * n..][..n];
            for ((c, &x), &y) in row.iter_mut().zip(a).zip(b) {
                *c = (*c).min(x.wrapping_add(y));
            }
        }
        relax.run(g, alive, row);
    }
    let best = dp[(rows - 1) * n + terms[0] as usize];
    (best < INF).then_some(best)
}

/// Unit-weight relaxation of one Dreyfus–Wagner row, its buffers
/// reused across rows: a counting sort of the row's finite costs is
/// the bucket queue, and costs settle level by level (level c + 1 is
/// bucket c + 1 plus what level c reaches). Entries at or above `INF`
/// are clamped to `INF`.
#[derive(Default)]
struct UnitRelax {
    /// `start[c]..start[c + 1]` spans the nodes of initial cost `c` in
    /// `by_cost`.
    start: Vec<u32>,
    /// Next free slot of each bucket while `by_cost` is filled.
    fill: Vec<u32>,
    by_cost: Vec<NodeId>,
    level: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl UnitRelax {
    fn run(&mut self, g: &CsrGraph, alive: &NodeSet, dist: &mut [u32]) {
        let UnitRelax {
            start,
            fill,
            by_cost,
            level,
            next,
        } = self;
        let mut top = 0u32;
        for d in dist.iter_mut() {
            *d = (*d).min(INF);
            if *d < INF {
                top = top.max(*d);
            }
        }
        let top = top as usize;
        start.clear();
        start.resize(top + 2, 0);
        for &d in dist.iter().filter(|&&d| d < INF) {
            start[d as usize + 1] += 1;
        }
        for c in 0..=top {
            start[c + 1] += start[c];
        }
        fill.clear();
        fill.extend_from_slice(start);
        by_cost.resize(start[top + 1] as usize, 0);
        for (v, &d) in dist.iter().enumerate().filter(|&(_, &d)| d < INF) {
            by_cost[fill[d as usize] as usize] = v as NodeId;
            fill[d as usize] += 1;
        }

        level.clear();
        let mut c = 0usize;
        loop {
            if let Some(&end) = start.get(c + 1) {
                // bucket entries lowered since the sort settled earlier
                let bucket = &by_cost[start[c] as usize..end as usize];
                level.extend(bucket.iter().filter(|&&v| dist[v as usize] as usize == c));
            }
            next.clear();
            for &v in level.iter() {
                for &w in g.neighbors(v) {
                    if alive.contains(w) && dist[w as usize] as usize > c + 1 {
                        dist[w as usize] = c as u32 + 1;
                        next.push(w);
                    }
                }
            }
            if c >= top && next.is_empty() {
                return;
            }
            std::mem::swap(level, next);
            c += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;

    #[test]
    fn mehlhorn_two_terminals_is_shortest_path() {
        let g = generators::path(10);
        let alive = NodeSet::full(10);
        let t = mehlhorn_steiner(&g, &alive, &[2, 7]).unwrap();
        assert_eq!(t.num_edges(), 5);
        assert!(t.spans(&[2, 7]));
        assert!(t.validate(&g).is_ok());
    }

    #[test]
    fn mehlhorn_star_terminals() {
        // star: center 0, leaves 1..=5; terminals = three leaves
        let g = generators::star(6);
        let alive = NodeSet::full(6);
        let t = mehlhorn_steiner(&g, &alive, &[1, 3, 5]).unwrap();
        assert!(t.spans(&[1, 3, 5]));
        assert_eq!(t.num_edges(), 3); // must pass through the center
        assert!(t.validate(&g).is_ok());
    }

    #[test]
    fn mehlhorn_is_the_same_tree_on_every_call() {
        // 25 terminals on a lattice of spacing 2: many equal-weight
        // bridges for Kruskal to order
        let g = generators::mesh(&[12, 12]);
        let alive = NodeSet::full(144);
        let terms: Vec<NodeId> = (0..25)
            .map(|i| (2 * (i / 5) + 1) * 12 + 2 * (i % 5) + 1)
            .collect();
        let first = mehlhorn_steiner(&g, &alive, &terms).unwrap();
        for _ in 0..16 {
            assert_eq!(
                mehlhorn_steiner(&g, &alive, &terms).unwrap().edges,
                first.edges
            );
        }
    }

    #[test]
    fn mehlhorn_disconnected_terminals_none() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).add_edge(2, 3);
        let g = b.build();
        let alive = NodeSet::full(4);
        assert!(mehlhorn_steiner(&g, &alive, &[0, 3]).is_none());
        assert!(dreyfus_wagner_cost(&g, &alive, &[0, 3]).is_none());
    }

    #[test]
    fn mehlhorn_single_and_empty() {
        let g = generators::cycle(5);
        let alive = NodeSet::full(5);
        let t1 = mehlhorn_steiner(&g, &alive, &[3]).unwrap();
        assert_eq!(t1.num_nodes(), 1);
        assert_eq!(t1.num_edges(), 0);
        let t0 = mehlhorn_steiner(&g, &alive, &[]).unwrap();
        assert_eq!(t0.num_nodes(), 0);
    }

    #[test]
    fn dreyfus_wagner_exact_on_grid() {
        // 3x3 grid, terminals = the four corners. Optimal Steiner tree
        // uses the middle cross: 6 edges? Corners (0,2,6,8 in row-major),
        // e.g. edges 0-1,1-2,1-4,4-7? Let's trust: opt = 6 edges.
        let g = generators::mesh(&[3, 3]);
        let alive = NodeSet::full(9);
        let corners = [0u32, 2, 6, 8];
        let cost = dreyfus_wagner_cost(&g, &alive, &corners).unwrap();
        assert_eq!(cost, 6);
        // Mehlhorn must be within factor 2
        let t = mehlhorn_steiner(&g, &alive, &corners).unwrap();
        assert!(t.num_edges() as u32 >= cost);
        assert!(t.num_edges() as u32 <= 2 * cost);
        assert!(t.spans(&corners));
    }

    #[test]
    fn dreyfus_wagner_path_pair() {
        let g = generators::path(12);
        let alive = NodeSet::full(12);
        assert_eq!(dreyfus_wagner_cost(&g, &alive, &[0, 11]), Some(11));
        assert_eq!(dreyfus_wagner_cost(&g, &alive, &[0, 5, 11]), Some(11));
        assert_eq!(dreyfus_wagner_cost(&g, &alive, &[4]), Some(0));
        assert_eq!(dreyfus_wagner_cost(&g, &alive, &[]), Some(0));
    }

    #[test]
    fn dreyfus_wagner_respects_mask() {
        let g = generators::cycle(8);
        let mut alive = NodeSet::full(8);
        alive.remove(2); // forces the long way around
        assert_eq!(dreyfus_wagner_cost(&g, &alive, &[0, 4]), Some(4));
    }

    #[test]
    fn mehlhorn_matches_exact_on_cycle() {
        let g = generators::cycle(10);
        let alive = NodeSet::full(10);
        let terms = [0u32, 3, 6];
        let exact = dreyfus_wagner_cost(&g, &alive, &terms).unwrap();
        let approx = mehlhorn_steiner(&g, &alive, &terms).unwrap();
        assert!(approx.num_edges() as u32 <= 2 * exact);
        assert!(approx.validate(&g).is_ok());
    }
}
