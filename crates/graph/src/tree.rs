//! Spanning and Steiner trees.
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
//!   for ≤ ~12 terminals. Gives the *exact optimum* (edge count) so
//!   small-case spans are exact and the approximation is testable.

use crate::bitset::NodeSet;
use crate::csr::CsrGraph;
use crate::distance::{multi_source_bfs, UNREACHABLE};
use crate::node::{Edge, NodeId};
use crate::unionfind::UnionFind;
use std::collections::VecDeque;

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

/// BFS spanning tree of the region reachable from `root` within
/// `alive`. Empty tree if `root` is dead.
pub fn bfs_spanning_tree(g: &CsrGraph, alive: &NodeSet, root: NodeId) -> Tree {
    let mut nodes = NodeSet::empty(g.num_nodes());
    let mut edges = Vec::new();
    if !alive.contains(root) {
        return Tree { nodes, edges };
    }
    let mut queue = VecDeque::new();
    nodes.insert(root);
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        for &w in g.neighbors(v) {
            if alive.contains(w) && nodes.insert(w) {
                edges.push(Edge::new(v, w));
                queue.push_back(w);
            }
        }
    }
    Tree { nodes, edges }
}

/// Mehlhorn's 2-approximate Steiner tree for `terminals` within
/// `alive`.
///
/// Returns `None` if the terminals are not all alive and mutually
/// connected. For a single terminal the tree is that node alone.
///
/// Guarantee: `result.num_edges() <= 2 * OPT_edges` (classic Mehlhorn
/// bound, tested against [`dreyfus_wagner_cost`] in the property
/// suite).
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

    // Phase 1: Voronoi regions around terminals.
    let vor = multi_source_bfs(g, alive, &terms);
    if terms.iter().any(|&t| vor.dist[t as usize] == UNREACHABLE) {
        return None;
    }

    // terminal id -> dense index
    let tindex = |t: NodeId| terms.binary_search(&t).expect("terminal");

    // Phase 2: candidate inter-terminal edges from boundary graph
    // edges. weight = dist(u) + 1 + dist(v); keep the lightest bridge
    // per terminal pair.
    use std::collections::HashMap;
    let mut best: HashMap<(u32, u32), (u32, NodeId, NodeId)> = HashMap::new();
    for u in alive.iter() {
        if vor.dist[u as usize] == UNREACHABLE {
            continue;
        }
        for &v in g.neighbors(u) {
            if u >= v || !alive.contains(v) || vor.dist[v as usize] == UNREACHABLE {
                continue;
            }
            let (su, sv) = (vor.nearest[u as usize], vor.nearest[v as usize]);
            if su == sv {
                continue;
            }
            let (a, b) = {
                let (ia, ib) = (tindex(su) as u32, tindex(sv) as u32);
                if ia < ib {
                    (ia, ib)
                } else {
                    (ib, ia)
                }
            };
            let w = vor.dist[u as usize] + 1 + vor.dist[v as usize];
            let entry = best.entry((a, b)).or_insert((w, u, v));
            if w < entry.0 {
                *entry = (w, u, v);
            }
        }
    }

    // Phase 3: Kruskal MST over the terminal distance network.
    #[allow(clippy::type_complexity)] // ((term a, term b), (dist, bridge u, bridge v))
    let mut cand: Vec<((u32, u32), (u32, NodeId, NodeId))> = best.into_iter().collect();
    // (a, b) is unique per candidate, so this order is total: equal
    // weights never fall back to the HashMap's per-call order
    cand.sort_unstable_by_key(|&((a, b), (w, _, _))| (w, a, b));
    let mut uf = UnionFind::new(terms.len());
    let mut bridges = Vec::new();
    for ((a, b), (_, u, v)) in cand {
        if uf.union(a, b) {
            bridges.push((u, v));
        }
    }
    if uf.num_components() != 1 {
        return None; // terminals not mutually connected
    }

    // Phase 4: expand each MST edge into a real path
    // u -> nearest[u], bridge edge, v -> nearest[v].
    let mut node_set = NodeSet::empty(g.num_nodes());
    let mut edge_set: Vec<Edge> = Vec::new();
    let walk_to_source = |mut x: NodeId, nodes: &mut NodeSet, edges: &mut Vec<Edge>| {
        nodes.insert(x);
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
            nodes.insert(next);
            x = next;
        }
    };
    for (u, v) in bridges {
        walk_to_source(u, &mut node_set, &mut edge_set);
        walk_to_source(v, &mut node_set, &mut edge_set);
        edge_set.push(Edge::new(u, v));
    }
    for &t in &terms {
        node_set.insert(t);
    }
    edge_set.sort_unstable();
    edge_set.dedup();

    // Phase 5: the union of paths may contain cycles — take a BFS
    // spanning tree of the collected subgraph, then prune non-terminal
    // leaves.
    let sub = subgraph_tree(g, &node_set, &edge_set, terms[0]);
    Some(prune_steiner_leaves(g, sub, &terms))
}

/// BFS spanning tree of the subgraph `(nodes, edges)` from `root`,
/// using only the listed edges.
fn subgraph_tree(g: &CsrGraph, nodes: &NodeSet, edges: &[Edge], root: NodeId) -> Tree {
    // adjacency restricted to `edges`
    let mut adj: std::collections::HashMap<NodeId, Vec<NodeId>> = std::collections::HashMap::new();
    for e in edges {
        adj.entry(e.u).or_default().push(e.v);
        adj.entry(e.v).or_default().push(e.u);
    }
    let mut tnodes = NodeSet::empty(g.num_nodes());
    let mut tedges = Vec::new();
    let mut queue = VecDeque::new();
    tnodes.insert(root);
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        if let Some(nb) = adj.get(&v) {
            for &w in nb {
                if nodes.contains(w) && tnodes.insert(w) {
                    tedges.push(Edge::new(v, w));
                    queue.push_back(w);
                }
            }
        }
    }
    Tree {
        nodes: tnodes,
        edges: tedges,
    }
}

/// Iteratively removes non-terminal leaves (they never help a Steiner
/// tree).
fn prune_steiner_leaves(g: &CsrGraph, mut tree: Tree, terminals: &[NodeId]) -> Tree {
    let term_set = NodeSet::from_iter(g.num_nodes(), terminals.iter().copied());
    loop {
        // degree within the tree
        let mut deg: std::collections::HashMap<NodeId, u32> = std::collections::HashMap::new();
        for e in &tree.edges {
            *deg.entry(e.u).or_insert(0) += 1;
            *deg.entry(e.v).or_insert(0) += 1;
        }
        let leaves: Vec<NodeId> = tree
            .nodes
            .iter()
            .filter(|&v| !term_set.contains(v) && deg.get(&v).copied().unwrap_or(0) <= 1)
            .collect();
        if leaves.is_empty() {
            return tree;
        }
        let leaf_set = NodeSet::from_iter(g.num_nodes(), leaves.iter().copied());
        for v in leaves {
            tree.nodes.remove(v);
        }
        tree.edges
            .retain(|e| !leaf_set.contains(e.u) && !leaf_set.contains(e.v));
    }
}

/// Maximum number of terminals accepted by [`dreyfus_wagner_cost`].
pub const DREYFUS_WAGNER_MAX_TERMINALS: usize = 14;

/// Exact minimum Steiner tree *cost* (number of edges) for `terminals`
/// within `alive`, by the Dreyfus–Wagner subset DP.
///
/// Returns `None` if terminals are not mutually connected, any terminal
/// is dead, or there are more than [`DREYFUS_WAGNER_MAX_TERMINALS`]
/// terminals. Cost in *edges*; the tree's node count is `cost + 1`.
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
    // DP table is 2^k × n u32s; refuse instances that would thrash
    // memory (the span pipeline falls back to Mehlhorn bounds there).
    if (1usize << k).saturating_mul(n) > 16_000_000 {
        return None;
    }
    const INF: u32 = u32::MAX / 4;

    // dp[mask][v]: min edges of a tree spanning terms(mask) ∪ {v}.
    let full: usize = (1 << k) - 1;
    let mut dp = vec![vec![INF; n]; full + 1];
    for (i, &t) in terms.iter().enumerate() {
        let d = crate::distance::bfs_distances(g, alive, t);
        for v in alive.iter() {
            if d[v as usize] != UNREACHABLE {
                dp[1 << i][v as usize] = d[v as usize];
            }
        }
    }

    // Dial bucket relaxation: costs are bounded by n, so a bucket
    // queue gives O(n + m + maxcost) per mask.
    let relax = |dist: &mut Vec<u32>, g: &CsrGraph, alive: &NodeSet| {
        let maxc = dist
            .iter()
            .filter(|&&c| c < INF)
            .max()
            .copied()
            .unwrap_or(0) as usize;
        let cap = maxc + n + 1;
        let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); cap + 1];
        for v in alive.iter() {
            let c = dist[v as usize];
            if c < INF {
                buckets[c as usize].push(v);
            }
        }
        for c in 0..=cap {
            let mut idx = 0;
            while idx < buckets[c].len() {
                let v = buckets[c][idx];
                idx += 1;
                if dist[v as usize] != c as u32 {
                    continue; // stale
                }
                for &w in g.neighbors(v) {
                    if alive.contains(w) && dist[w as usize] > c as u32 + 1 {
                        dist[w as usize] = c as u32 + 1;
                        if (c + 1) <= cap {
                            buckets[c + 1].push(w);
                        }
                    }
                }
            }
        }
    };

    for mask in 1..=full {
        if mask.count_ones() <= 1 {
            continue;
        }
        // merge partitions: iterate proper submasks containing the
        // lowest set bit (avoids double counting).
        let low = mask & mask.wrapping_neg();
        let rest = mask ^ low;
        let mut sub = rest;
        // Partitions (A, B): A ∪ B = mask, disjoint, both nonempty,
        // low ∈ A to break symmetry. A = sub|low, B = rest^sub.
        let mut cur = vec![INF; n];
        loop {
            let t1 = sub | low;
            let t2 = rest ^ sub;
            if t2 != 0 {
                for v in 0..n {
                    let a = dp[t1][v];
                    let b = dp[t2][v];
                    if a < INF && b < INF {
                        let s = a + b;
                        if s < cur[v] {
                            cur[v] = s;
                        }
                    }
                }
            }
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & rest;
        }
        relax(&mut cur, g, alive);
        dp[mask] = cur;
    }

    let t0 = terms[0] as usize;
    let best = dp[full][t0];
    if best >= INF {
        None
    } else {
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;

    #[test]
    fn bfs_tree_spans_component() {
        let g = generators::cycle(8);
        let alive = NodeSet::full(8);
        let t = bfs_spanning_tree(&g, &alive, 0);
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.num_edges(), 7);
        assert!(t.validate(&g).is_ok());
    }

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
