//! Targeted-removal fault models: kill a *fraction* of the network,
//! choosing victims by structural importance.
//!
//! The paper's adversary (§2) is budgeted in absolute faults; the
//! complex-networks literature (Demichev et al.'s small-world
//! fault-tolerance line in PAPERS.md) instead studies *fractional*
//! targeted removal — "what fraction of the hubs must fail before the
//! giant component dissolves". [`TargetedFaults`] is that model, with
//! two orderings: highest degree first (the classic hub attack) and
//! k-core/degeneracy order (innermost core first — strictly stronger
//! on graphs whose hubs hide in a dense core).
//!
//! [`targeted_order`] exposes the full removal order so the
//! percolation layer can turn ONE ordering into a whole targeted
//! dilution curve (`fx_percolation::gamma_removal_curve`) instead of
//! resampling per severity.

use crate::model::FaultModel;
use fx_graph::dyncon::{self, IntervalTrace};
use fx_graph::{CsrGraph, NodeId, NodeSet};
use rand::RngCore;

/// Which structural ordering a targeted attack removes nodes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetBy {
    /// Highest intact-graph degree first (static degrees; ties by
    /// id).
    Degree,
    /// Degeneracy (k-core) order: the nodes peeled *last* by the
    /// minimum-degree elimination — the innermost core — die first.
    Core,
    /// Adaptive hub attack: highest *residual* degree first,
    /// re-ranking after every removal — strictly stronger than the
    /// static order on heterogeneous graphs (killing a hub demotes
    /// its entourage before they are targeted).
    DegreeAdaptive,
}

impl std::fmt::Display for TargetBy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TargetBy::Degree => "degree",
            TargetBy::Core => "core",
            TargetBy::DegreeAdaptive => "degree-adaptive",
        })
    }
}

/// The full targeted removal order of `g` (most important node
/// first). Deterministic: ties break toward smaller node ids, so the
/// order — and every fault set derived from it — is a pure function
/// of the graph.
pub fn targeted_order(g: &CsrGraph, by: TargetBy) -> Vec<NodeId> {
    match by {
        TargetBy::Degree => {
            let mut order: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
            // stable sort: equal degrees keep ascending-id order
            order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
            order
        }
        TargetBy::Core => {
            let mut peel = degeneracy_order(g);
            peel.reverse(); // innermost (last-peeled) first
            peel
        }
        TargetBy::DegreeAdaptive => adaptive_degree_order(g),
    }
}

/// The targeted attack as an offline-connectivity event log: node
/// `order[k]` (from [`targeted_order`]) dies at time `k + 1`, so
/// timestep `t` of the trace is the graph with the top `t` targets
/// removed. Solving it with [`fx_graph::dyncon::solve_curve`] yields
/// the WHOLE targeted dilution curve — γ, component count, isolated
/// nodes at every severity — in one O((E + T)·log T·α) pass instead
/// of T per-prefix BFS re-sweeps.
pub fn removal_trace(g: &CsrGraph, by: TargetBy) -> IntervalTrace {
    dyncon::from_node_removals(g, &targeted_order(g, by))
}

/// Maximum-residual-degree elimination: repeatedly remove the node of
/// highest degree *in the remaining graph*, ties toward smaller ids.
/// Lazy max-heap with stale-entry skipping: O((n + m) log n), and a
/// pure function of the graph like the static orders.
fn adaptive_degree_order(g: &CsrGraph) -> Vec<NodeId> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = g.num_nodes();
    let mut deg: Vec<usize> = (0..n as NodeId).map(|v| g.degree(v)).collect();
    // (degree, Reverse(id)): the heap max is the highest-degree node,
    // smallest id on ties
    let mut heap: BinaryHeap<(usize, Reverse<NodeId>)> = (0..n as NodeId)
        .map(|v| (deg[v as usize], Reverse(v)))
        .collect();
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while let Some((d, Reverse(v))) = heap.pop() {
        if removed[v as usize] || deg[v as usize] != d {
            continue; // stale entry (v already out, or demoted since push)
        }
        removed[v as usize] = true;
        order.push(v);
        for &w in g.neighbors(v) {
            if !removed[w as usize] {
                deg[w as usize] -= 1;
                heap.push((deg[w as usize], Reverse(w)));
            }
        }
    }
    order
}

/// Minimum-degree elimination (degeneracy) order via a lazy bucket
/// queue: O(n + m), smallest-id tie-breaking within a bucket level.
fn degeneracy_order(g: &CsrGraph) -> Vec<NodeId> {
    let n = g.num_nodes();
    let mut deg: Vec<usize> = (0..n as NodeId).map(|v| g.degree(v)).collect();
    let max_deg = deg.iter().copied().max().unwrap_or(0);
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); max_deg + 1];
    for v in (0..n as NodeId).rev() {
        // reverse push → pop order within a bucket is ascending id
        buckets[deg[v as usize]].push(v);
    }
    let mut removed = vec![false; n];
    let mut peel = Vec::with_capacity(n);
    let mut d = 0usize;
    while peel.len() < n {
        // a removal can lower a neighbor's degree by one, so the
        // frontier never drops by more than one level
        while d > 0 && !buckets[d - 1].is_empty() {
            d -= 1;
        }
        let Some(v) = buckets[d].pop() else {
            d += 1;
            continue;
        };
        if removed[v as usize] || deg[v as usize] != d {
            continue; // stale entry (degree changed since push)
        }
        removed[v as usize] = true;
        peel.push(v);
        for &w in g.neighbors(v) {
            if !removed[w as usize] {
                deg[w as usize] -= 1;
                buckets[deg[w as usize]].push(w);
            }
        }
    }
    peel
}

/// Remove the top `round(frac·n)` nodes of the targeted order.
#[derive(Debug, Clone, Copy)]
pub struct TargetedFaults {
    /// Fraction of the network to remove (in `[0, 1]`).
    pub frac: f64,
    /// Removal ordering.
    pub by: TargetBy,
}

impl TargetedFaults {
    /// The fault count this model removes from an `n`-node graph.
    pub fn budget(&self, n: usize) -> usize {
        ((self.frac * n as f64).round() as usize).min(n)
    }
}

impl FaultModel for TargetedFaults {
    fn sample(&self, g: &CsrGraph, rng: &mut dyn RngCore) -> NodeSet {
        let mut failed = NodeSet::empty(g.num_nodes());
        self.sample_into(g, rng, &mut failed);
        failed
    }

    fn sample_into(&self, g: &CsrGraph, _rng: &mut dyn RngCore, out: &mut NodeSet) {
        assert!(
            (0.0..=1.0).contains(&self.frac),
            "targeted fraction {} out of [0, 1]",
            self.frac
        );
        let n = g.num_nodes();
        if out.capacity() != n {
            *out = NodeSet::empty(n);
        } else {
            out.clear();
        }
        let order = targeted_order(g, self.by);
        for &v in &order[..self.budget(n)] {
            out.insert(v);
        }
    }

    fn name(&self) -> String {
        format!("targeted(frac={}, by={})", self.frac, self.by)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::components::gamma;
    use fx_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn degree_order_kills_hubs_first() {
        let g = generators::star(10);
        let order = targeted_order(&g, TargetBy::Degree);
        assert_eq!(order[0], 0, "the hub leads the order");
        let mut rng = SmallRng::seed_from_u64(1);
        let failed = TargetedFaults {
            frac: 0.1,
            by: TargetBy::Degree,
        }
        .sample(&g, &mut rng);
        assert_eq!(failed.len(), 1);
        assert!(failed.contains(0));
        assert!(gamma(&g, &failed.complement()) < 0.2, "star shatters");
    }

    #[test]
    fn core_order_peels_dense_core_first() {
        // K_6 with a pendant path of 6: the clique is the 5-core, the
        // path is the 1-core — core order must open with clique nodes
        let mut b = fx_graph::GraphBuilder::new(12);
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                b.add_edge(i, j);
            }
        }
        b.add_edge(5, 6);
        for i in 6..11u32 {
            b.add_edge(i, i + 1);
        }
        let g = b.build();
        let order = targeted_order(&g, TargetBy::Core);
        assert_eq!(order.len(), 12);
        assert!(
            order[..6].iter().all(|&v| v < 6),
            "first 6 removals are the clique: {order:?}"
        );
    }

    #[test]
    fn orders_are_full_permutations_and_deterministic() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = generators::random_regular(40, 4, &mut rng);
        for by in [TargetBy::Degree, TargetBy::Core, TargetBy::DegreeAdaptive] {
            let a = targeted_order(&g, by);
            assert_eq!(a, targeted_order(&g, by), "{by}");
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..40).collect::<Vec<_>>(), "{by} permutes");
        }
    }

    /// The adaptive order re-ranks after every removal: killing the
    /// top hub demotes its entourage, so a rival hub overtakes it —
    /// the static order cannot see that.
    #[test]
    fn adaptive_order_reranks_after_each_removal() {
        // A (0): hub of degree 5 (B + 4 leaves); B (1): degree 4
        // (A + 3 leaves); C (2): degree 4 (4 leaves, independent of A)
        let mut b = fx_graph::GraphBuilder::new(14);
        b.add_edge(0, 1);
        for leaf in 3..7u32 {
            b.add_edge(0, leaf);
        }
        for leaf in 7..10u32 {
            b.add_edge(1, leaf);
        }
        for leaf in 10..14u32 {
            b.add_edge(2, leaf);
        }
        let g = b.build();
        let static_order = targeted_order(&g, TargetBy::Degree);
        let adaptive = targeted_order(&g, TargetBy::DegreeAdaptive);
        // static: A, then the B-vs-C degree tie breaks toward B's id
        assert_eq!(&static_order[..3], &[0, 1, 2]);
        // adaptive: removing A drops B to residual degree 3, so C's
        // intact 4 overtakes it
        assert_eq!(&adaptive[..3], &[0, 2, 1]);
    }

    /// The ordered-removal trace solved offline must agree, at every
    /// prefix length, with killing that prefix and re-running the
    /// component sweep from scratch.
    #[test]
    fn removal_trace_matches_prefix_recompute() {
        use fx_graph::components::component_stats_with;
        use fx_graph::dyncon::solve_curve;
        use fx_graph::Scratch;
        let mut rng = SmallRng::seed_from_u64(7);
        let g = generators::gnp(30, 0.125, &mut rng);
        let mut scratch = Scratch::new();
        for by in [TargetBy::Degree, TargetBy::Core, TargetBy::DegreeAdaptive] {
            let order = targeted_order(&g, by);
            let curve = solve_curve(&removal_trace(&g, by));
            assert_eq!(curve.len(), g.num_nodes() + 1, "{by}");
            for t in 0..curve.len() {
                let mut alive = NodeSet::full(g.num_nodes());
                for &v in &order[..t] {
                    alive.remove(v);
                }
                let stats = component_stats_with(&g, &alive, &mut scratch);
                assert_eq!(curve.alive[t] as usize, alive.len(), "{by} t={t}");
                assert_eq!(curve.largest[t] as usize, stats.largest, "{by} t={t}");
                assert_eq!(curve.components[t] as usize, stats.count, "{by} t={t}");
                let iso = alive
                    .iter()
                    .filter(|&v| !g.neighbors(v).iter().any(|&w| alive.contains(w)))
                    .count();
                assert_eq!(curve.isolated[t] as usize, iso, "{by} t={t}");
            }
        }
    }

    #[test]
    fn fraction_extremes() {
        let g = generators::cycle(30);
        let mut rng = SmallRng::seed_from_u64(3);
        for by in [TargetBy::Degree, TargetBy::Core, TargetBy::DegreeAdaptive] {
            assert_eq!(
                TargetedFaults { frac: 0.0, by }.sample(&g, &mut rng).len(),
                0
            );
            assert_eq!(
                TargetedFaults { frac: 1.0, by }.sample(&g, &mut rng).len(),
                30
            );
            assert_eq!(
                TargetedFaults { frac: 0.5, by }.sample(&g, &mut rng).len(),
                15
            );
        }
    }
}
