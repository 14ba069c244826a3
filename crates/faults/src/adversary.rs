//! Adversarial fault strategies (§2 of the paper).
//!
//! The adversary's leverage is always the same: spend faults on a
//! small *separator* to disconnect a large region. The strategies here
//! range from topology-blind (degree attack) through spectral (sweep
//! separator) to construction-aware (chain centers, Theorem 2.3).

use crate::model::FaultModel;
use fx_expansion::spectral_sweep;
use fx_graph::boundary::node_boundary;
use fx_graph::generators::SubdividedGraph;
use fx_graph::{CsrGraph, NodeId, NodeSet};
use rand::RngCore;

/// Spectral separator attack: repeatedly find a sweep cut of the
/// current largest component and kill its node boundary `Γ(S)` —
/// disconnecting `|S|` nodes for `|Γ(S)|` faults, the exact trade-off
/// Theorem 2.1's bound is tight against.
#[derive(Debug, Clone, Copy)]
pub struct SparseCutAdversary {
    /// Total fault budget.
    pub budget: usize,
}

impl FaultModel for SparseCutAdversary {
    fn sample(&self, g: &CsrGraph, rng: &mut dyn RngCore) -> NodeSet {
        let n = g.num_nodes();
        let mut failed = NodeSet::empty(n);
        let mut alive = NodeSet::full(n);
        while failed.len() < self.budget {
            let out = spectral_sweep(g, &alive, rng);
            let Some(cut) = out.best_node else { break };
            let sep = node_boundary(g, &alive, &cut.side);
            if sep.is_empty() {
                break; // already disconnected at the top level
            }
            let room = self.budget - failed.len();
            if sep.len() <= room {
                for v in sep.iter() {
                    failed.insert(v);
                    alive.remove(v);
                }
            } else {
                // spend the remainder on the separator anyway (partial
                // separators still weaken expansion)
                for v in sep.iter().take(room) {
                    failed.insert(v);
                    alive.remove(v);
                }
                break;
            }
            // keep attacking the remaining largest component
        }
        failed
    }

    fn name(&self) -> String {
        format!("sparse-cut(f={})", self.budget)
    }
}

/// Theorem 2.3 adversary for subdivided expanders: kill chain centers.
/// Each fault disconnects one chain, so `m` faults shatter the graph
/// into components of size `O(δ·k)`.
#[derive(Debug, Clone)]
pub struct ChainCenterAdversary<'a> {
    /// The subdivided construction the adversary understands.
    pub sub: &'a SubdividedGraph,
    /// Fault budget (centers are killed in edge order).
    pub budget: usize,
}

impl FaultModel for ChainCenterAdversary<'_> {
    fn sample(&self, g: &CsrGraph, _rng: &mut dyn RngCore) -> NodeSet {
        assert_eq!(
            g.num_nodes(),
            self.sub.graph.num_nodes(),
            "adversary built for a different graph"
        );
        let centers = self.sub.centers();
        NodeSet::from_iter(g.num_nodes(), centers.into_iter().take(self.budget))
    }

    fn name(&self) -> String {
        format!("chain-center(f={})", self.budget)
    }
}

/// Degree-targeted attack: kill the highest-degree nodes first
/// (the classic "attack the hubs" heuristic; a weak baseline on
/// regular graphs, strong on heterogeneous ones).
#[derive(Debug, Clone, Copy)]
pub struct DegreeAdversary {
    /// Fault budget.
    pub budget: usize,
}

impl FaultModel for DegreeAdversary {
    fn sample(&self, g: &CsrGraph, _rng: &mut dyn RngCore) -> NodeSet {
        let mut order: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
        NodeSet::from_iter(g.num_nodes(), order.into_iter().take(self.budget))
    }

    fn name(&self) -> String {
        format!("degree(f={})", self.budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::components::{components, gamma};
    use fx_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn sparse_cut_disconnects_barbell() {
        // two K_8 joined by a 1-node bridge path: killing the single
        // articulation separator halves the graph.
        let mut b = fx_graph::GraphBuilder::new(17);
        for i in 0..8u32 {
            for j in (i + 1)..8 {
                b.add_edge(i, j);
                b.add_edge(i + 9, j + 9);
            }
        }
        b.add_edge(0, 8).add_edge(8, 9);
        let g = b.build();
        let mut rng = SmallRng::seed_from_u64(5);
        let failed = SparseCutAdversary { budget: 1 }.sample(&g, &mut rng);
        assert_eq!(failed.len(), 1);
        assert!(failed.contains(8), "should kill the articulation node");
        let alive = failed.complement();
        assert!(gamma(&g, &alive) < 0.55);
    }

    #[test]
    fn sparse_cut_respects_budget() {
        let g = generators::torus(&[8, 8]);
        let mut rng = SmallRng::seed_from_u64(6);
        for budget in [0usize, 3, 10] {
            let failed = SparseCutAdversary { budget }.sample(&g, &mut rng);
            assert!(failed.len() <= budget);
        }
    }

    #[test]
    fn chain_centers_shatter() {
        let base = generators::random_regular(20, 4, &mut SmallRng::seed_from_u64(7));
        let sub = generators::subdivide(&base, 4);
        let m = sub.original_edges.len();
        let mut rng = SmallRng::seed_from_u64(8);
        let failed = ChainCenterAdversary {
            sub: &sub,
            budget: m,
        }
        .sample(&sub.graph, &mut rng);
        assert_eq!(failed.len(), m);
        let alive = failed.complement();
        // all components sublinear: ≤ 1 + δ(k/2 + 1)
        let comps = components(&sub.graph, &alive);
        let biggest = comps.largest().unwrap().1;
        assert!(biggest <= 1 + 4 * (sub.k / 2 + 1), "biggest {biggest}");
    }

    #[test]
    fn degree_adversary_kills_hub() {
        let g = generators::star(10);
        let mut rng = SmallRng::seed_from_u64(10);
        let failed = DegreeAdversary { budget: 1 }.sample(&g, &mut rng);
        assert!(failed.contains(0));
        let alive = failed.complement();
        assert!((gamma(&g, &alive) - 0.1).abs() < 1e-12);
    }
}
