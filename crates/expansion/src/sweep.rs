//! Cheeger sweep cuts: thresholding the Fiedler ordering.
//!
//! Given per-node scores on a connected component, the sweep scans all
//! prefixes of the score order, maintaining the edge cut and *both*
//! node boundaries (prefix side and complement side) incrementally in
//! O(m) total, and returns the best witnessed cut for each objective.
//! This is the workhorse cut oracle behind `Prune`/`Prune2` on graphs
//! too large for exact enumeration.

use crate::cut::Cut;
use crate::fiedler::{fiedler, Fiedler};
use crate::matvec::CompactComponent;
use fx_graph::{CsrGraph, NodeId, NodeSet};
use rand::Rng;

/// Best cuts found by a sweep, one per objective.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Minimizer of the node-expansion ratio (side ≤ half).
    pub best_node: Option<Cut>,
    /// Minimizer of the edge-expansion ratio.
    pub best_edge: Option<Cut>,
    /// `λ₂` of the component, when spectral scores were used.
    pub lambda2: Option<f64>,
}

/// Sweeps the prefixes of `scores` (ascending) over the component and
/// returns the best node- and edge-expansion cuts.
///
/// Cut *selection* uses in-component ratios (the component is where
/// the spectral scores live); the returned cuts are *measured* against
/// the caller's full `alive` set, so their `verify` holds even when
/// other components exist (those are zero-boundary cuts the pruning
/// oracle short-circuits on anyway).
pub fn sweep_by_scores(
    g: &CsrGraph,
    alive: &NodeSet,
    comp: &CompactComponent,
    scores: &[f64],
) -> (Option<Cut>, Option<Cut>) {
    let n = comp.len();
    if n < 2 {
        return (None, None);
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        scores[a as usize]
            .partial_cmp(&scores[b as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    // incremental state
    let mut inside = vec![false; n];
    // for outside nodes: number of inside neighbors
    let mut in_nbrs = vec![0u32; n];
    // for inside nodes: number of outside neighbors
    let mut out_nbrs = vec![0u32; n];
    let mut boundary_prefix = 0usize; // |Γ(prefix)|
    let mut boundary_complement = 0usize; // |Γ(complement)|
    let mut edge_cut = 0usize;

    // best (ratio, k, use_prefix_side) per objective
    let mut best_node: Option<(f64, usize, bool)> = None;
    let mut best_edge: Option<(f64, usize)> = None;

    for (k_minus_1, &v) in order.iter().enumerate().take(n - 1) {
        let v = v as usize;
        // move v inside
        inside[v] = true;
        if in_nbrs[v] > 0 {
            boundary_prefix -= 1;
        }
        let deg = comp.graph.degree(v as NodeId) as u32;
        let outside_nb = deg - in_nbrs[v];
        out_nbrs[v] = outside_nb;
        if outside_nb > 0 {
            boundary_complement += 1;
        }
        edge_cut = edge_cut + outside_nb as usize - in_nbrs[v] as usize;
        for &w in comp.graph.neighbors(v as NodeId) {
            let w = w as usize;
            if inside[w] {
                out_nbrs[w] -= 1;
                if out_nbrs[w] == 0 {
                    boundary_complement -= 1;
                }
            } else {
                in_nbrs[w] += 1;
                if in_nbrs[w] == 1 {
                    boundary_prefix += 1;
                }
            }
        }

        let k = k_minus_1 + 1; // prefix size
        let rest = n - k;
        // edge objective: cut / min(k, rest)
        let er = edge_cut as f64 / k.min(rest) as f64;
        if best_edge.is_none_or(|(b, _)| er < b) {
            best_edge = Some((er, k));
        }
        // node objective, prefix side (requires k ≤ n/2)
        if 2 * k <= n {
            let nr = boundary_prefix as f64 / k as f64;
            if best_node.is_none_or(|(b, _, _)| nr < b) {
                best_node = Some((nr, k, true));
            }
        }
        // node objective, complement side (requires rest ≤ n/2)
        if 2 * rest <= n && rest > 0 {
            let nr = boundary_complement as f64 / rest as f64;
            if best_node.is_none_or(|(b, _, _)| nr < b) {
                best_node = Some((nr, k, false));
            }
        }
    }

    let universe = g.num_nodes();
    let materialize = |k: usize, prefix_side: bool| -> NodeSet {
        if prefix_side {
            comp.to_original_in(universe, order[..k].iter().copied())
        } else {
            comp.to_original_in(universe, order[k..].iter().copied())
        }
    };
    // No alive edges leave the component, so boundary/cut sizes match
    // the in-component sweep values; only `outside` reflects the full
    // alive set.
    let node_cut = best_node.map(|(_, k, pref)| Cut::measure(g, alive, materialize(k, pref)));
    let edge_cut_res = best_edge.map(|(_, k)| {
        let rest = n - k;
        // return the smaller side for determinism
        Cut::measure(g, alive, materialize(k, k <= rest))
    });
    (node_cut, edge_cut_res)
}

/// Full spectral sweep of the largest alive component: Lanczos
/// Fiedler scores then [`sweep_by_scores`].
pub fn spectral_sweep<R: Rng + ?Sized>(g: &CsrGraph, alive: &NodeSet, rng: &mut R) -> SweepOutcome {
    let Some(comp) = CompactComponent::largest(g, alive) else {
        return SweepOutcome {
            best_node: None,
            best_edge: None,
            lambda2: None,
        };
    };
    let Some(Fiedler {
        lambda2, scores, ..
    }) = fiedler(&comp, 160, 1e-9, rng)
    else {
        return SweepOutcome {
            best_node: None,
            best_edge: None,
            lambda2: None,
        };
    };
    let (best_node, best_edge) = sweep_by_scores(g, alive, &comp, &scores);
    SweepOutcome {
        best_node,
        best_edge,
        lambda2: Some(lambda2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn sweep_finds_barbell_bridge() {
        // two K_6 joined by an edge: optimal cut = the bridge.
        let mut b = fx_graph::GraphBuilder::new(12);
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                b.add_edge(i, j);
                b.add_edge(i + 6, j + 6);
            }
        }
        b.add_edge(0, 6);
        let g = b.build();
        let alive = NodeSet::full(12);
        let mut rng = SmallRng::seed_from_u64(3);
        let out = spectral_sweep(&g, &alive, &mut rng);
        let edge = out.best_edge.unwrap();
        assert_eq!(edge.edge_cut, 1, "should cut the bridge");
        assert_eq!(edge.size(), 6);
        let node = out.best_node.unwrap();
        assert_eq!(node.node_boundary, 1);
        assert_eq!(node.size(), 6);
        assert!(node.verify(&g, &alive));
    }

    #[test]
    fn sweep_on_cycle_matches_optimum() {
        // C_n: optimal edge expansion = 2/(n/2) = 4/n
        let g = generators::cycle(16);
        let alive = NodeSet::full(16);
        let mut rng = SmallRng::seed_from_u64(17);
        let out = spectral_sweep(&g, &alive, &mut rng);
        let e = out.best_edge.unwrap();
        assert!((e.edge_ratio() - 0.25).abs() < 1e-9, "{}", e.edge_ratio());
    }

    #[test]
    fn sweep_respects_mask() {
        // kill half a torus; sweep still returns a valid witnessed cut
        let g = generators::torus(&[6, 6]);
        let mut alive = NodeSet::full(36);
        for v in 0..6u32 {
            alive.remove(v);
        }
        let mut rng = SmallRng::seed_from_u64(23);
        let out = spectral_sweep(&g, &alive, &mut rng);
        let c = out.best_node.unwrap();
        assert!(c.verify(&g, &alive));
        assert!(c.size() <= 15);
        assert!(c.side.is_subset(&alive));
    }

    #[test]
    fn degenerate_inputs() {
        let g = generators::path(1);
        let alive = NodeSet::full(1);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = spectral_sweep(&g, &alive, &mut rng);
        assert!(out.best_node.is_none());
        let out2 = spectral_sweep(&g, &NodeSet::empty(1), &mut rng);
        assert!(out2.best_edge.is_none());
    }
}
