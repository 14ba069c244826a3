//! The cut oracle behind `Prune`/`Prune2`.
//!
//! The paper's algorithms are existential ("while ∃ S_i with …").
//! Finding a minimum-expansion set is NP-hard, so we realize the
//! oracle with two strategies, and `Auto` picks between them by size:
//!
//! * **Exact** — exhaustive enumeration, a *complete* oracle for small
//!   alive sets: if it finds nothing, no qualifying cut exists and the
//!   pruned graph's expansion is certified.
//! * **SpectralRefined** — Fiedler sweep plus local refinement, a
//!   *sound but incomplete* oracle: anything it returns is a genuine
//!   thin cut (witnessed), but a "none" answer is not a proof.
//!
//! Disconnected alive sets short-circuit: any small component is a
//! zero-boundary cut.

use fx_expansion::cut::Cut;
use fx_expansion::exact::{exact_edge_expansion, exact_node_expansion, EXACT_MAX_NODES};
use fx_expansion::local::{improve_cut, Objective};
use fx_expansion::sweep::spectral_sweep;
use fx_graph::components::components;
use fx_graph::{CsrGraph, NodeSet};
use rand::Rng;

/// Which expansion ratio a cut must violate to qualify for culling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutObjective {
    /// `|Γ(S)|/|S|` — used by `Prune` (Fig. 1).
    Node,
    /// `|(S, G\S)|/|S|` with `S` connected — used by `Prune2` (Fig. 2).
    Edge,
}

/// Oracle strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutStrategy {
    /// Exact when the alive set fits [`EXACT_MAX_NODES`], else
    /// spectral + refinement.
    Auto,
    /// Exhaustive enumeration only (refuses large graphs).
    Exact,
    /// Fiedler sweep + FM refinement.
    SpectralRefined,
}

/// A cut the oracle proposes for culling, plus whether the oracle was
/// complete (exact) when it answered.
#[derive(Debug, Clone)]
pub struct OracleAnswer {
    /// The qualifying cut, if one was found.
    pub cut: Option<Cut>,
    /// True if "no cut" is a *proof* that none exists.
    pub complete: bool,
}

/// Finds `S` with ratio ≤ `threshold` and `|S| ≤ |alive|/2`
/// (for [`CutObjective::Edge`], `S` is additionally connected, as
/// Fig. 2 requires).
pub fn find_thin_cut<R: Rng + ?Sized>(
    g: &CsrGraph,
    alive: &NodeSet,
    objective: CutObjective,
    threshold: f64,
    strategy: CutStrategy,
    rng: &mut R,
) -> OracleAnswer {
    let n_alive = alive.len();
    if n_alive < 2 {
        return OracleAnswer {
            cut: None,
            complete: true,
        };
    }

    // Disconnected alive set ⇒ smallest component is a free cut
    // (Γ = ∅, edge cut = 0 ≤ any threshold).
    let comps = components(g, alive);
    if comps.count() > 1 {
        let (idx, size) = comps
            .sizes
            .iter()
            .enumerate()
            .min_by_key(|(_, &s)| s)
            .map(|(i, &s)| (i, s as usize))
            .expect("≥2 components");
        // smallest component always has ≤ n/2 nodes
        debug_assert!(2 * size <= n_alive);
        let cut = Cut::measure(g, alive, comps.members(idx));
        debug_assert_eq!(cut.node_boundary, 0);
        return OracleAnswer {
            cut: Some(cut),
            complete: true,
        };
    }

    let qualifies = |c: &Cut| -> bool {
        if c.size() == 0 || 2 * c.size() > n_alive {
            return false;
        }
        match objective {
            CutObjective::Node => c.node_ratio() <= threshold,
            // Fig. 2 uses |(S, G\S)| ≤ αe·ε·|S| with |S| the small side
            CutObjective::Edge => (c.edge_cut as f64) <= threshold * c.size() as f64,
        }
    };

    let strategy = match strategy {
        CutStrategy::Auto => {
            if n_alive <= EXACT_MAX_NODES {
                CutStrategy::Exact
            } else {
                CutStrategy::SpectralRefined
            }
        }
        s => s,
    };

    match strategy {
        CutStrategy::Auto => unreachable!("resolved above"),
        CutStrategy::Exact => {
            let found = match objective {
                CutObjective::Node => exact_node_expansion(g, alive).map(|(_, c)| c),
                CutObjective::Edge => exact_edge_expansion(g, alive).map(|(_, c)| c),
            };
            match found {
                Some(c) => {
                    let c = match objective {
                        // the exact edge witness may be disconnected;
                        // Fig. 2 wants a connected S — restrict to its
                        // best connected component (never worse, see
                        // `best_connected_part`).
                        CutObjective::Edge => best_connected_part(g, alive, c),
                        CutObjective::Node => c,
                    };
                    let cut = if qualifies(&c) { Some(c) } else { None };
                    OracleAnswer {
                        cut,
                        complete: true,
                    }
                }
                None => OracleAnswer {
                    cut: None,
                    complete: false, // exact refused (too large)
                },
            }
        }
        CutStrategy::SpectralRefined => {
            let out = spectral_sweep(g, alive, rng);
            let (raw, obj) = match objective {
                CutObjective::Node => (out.best_node, Objective::NodeRatio),
                CutObjective::Edge => (out.best_edge, Objective::EdgeRatio),
            };
            let cut = raw
                .map(|c| improve_cut(g, alive, c, obj, 4))
                .map(|c| match objective {
                    CutObjective::Edge => best_connected_part(g, alive, c),
                    CutObjective::Node => c,
                })
                .filter(qualifies);
            OracleAnswer {
                cut,
                complete: false,
            }
        }
    }
}

/// Restricts a (possibly disconnected) cut side to its connected
/// component with the smallest edge-cut-to-size ratio. Since
/// components of `S` partition both `|S|` and `cut(S)`
/// (no alive edges run between them through `S` itself), the best
/// component's ratio is ≤ the whole side's ratio.
fn best_connected_part(g: &CsrGraph, alive: &NodeSet, cut: Cut) -> Cut {
    let comps = components(g, &cut.side);
    if comps.count() <= 1 {
        return cut;
    }
    let mut best: Option<(f64, usize)> = None;
    for i in 0..comps.count() {
        let members = comps.members(i);
        let c = Cut::measure(g, alive, members);
        let r = c.edge_cut as f64 / c.size().max(1) as f64;
        if best.is_none_or(|(b, _)| r < b) {
            best = Some((r, i));
        }
    }
    let (_, idx) = best.expect("≥1 component");
    Cut::measure(g, alive, comps.members(idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn exact_oracle_finds_and_refuses() {
        let g = generators::cycle(12);
        let alive = NodeSet::full(12);
        let mut rng = SmallRng::seed_from_u64(1);
        // C_12 has α = 1/3; threshold 0.4 must find a cut…
        let a = find_thin_cut(
            &g,
            &alive,
            CutObjective::Node,
            0.4,
            CutStrategy::Exact,
            &mut rng,
        );
        assert!(a.complete);
        let c = a.cut.expect("cut exists");
        assert!(c.node_ratio() <= 0.4);
        // …threshold 0.2 must certify none exists.
        let b = find_thin_cut(
            &g,
            &alive,
            CutObjective::Node,
            0.2,
            CutStrategy::Exact,
            &mut rng,
        );
        assert!(b.complete);
        assert!(b.cut.is_none());
    }

    #[test]
    fn disconnected_returns_free_component() {
        let mut b = fx_graph::GraphBuilder::new(10);
        for i in 0..4u32 {
            b.add_edge(i, (i + 1) % 5);
        }
        b.add_edge(5, 6); // small far component
        let g = b.build();
        let alive = NodeSet::from_iter(10, [0, 1, 2, 3, 4, 5, 6]);
        let mut rng = SmallRng::seed_from_u64(2);
        let a = find_thin_cut(
            &g,
            &alive,
            CutObjective::Node,
            0.01,
            CutStrategy::Auto,
            &mut rng,
        );
        let cut = a.cut.unwrap();
        assert_eq!(cut.node_boundary, 0);
        assert_eq!(cut.size(), 2);
        assert!(a.complete);
    }

    #[test]
    fn spectral_oracle_on_barbell() {
        let mut b = fx_graph::GraphBuilder::new(40);
        for i in 0..20u32 {
            for j in (i + 1)..20 {
                b.add_edge(i, j);
                b.add_edge(i + 20, j + 20);
            }
        }
        b.add_edge(0, 20);
        let g = b.build();
        let alive = NodeSet::full(40);
        let mut rng = SmallRng::seed_from_u64(3);
        let a = find_thin_cut(
            &g,
            &alive,
            CutObjective::Edge,
            0.1,
            CutStrategy::SpectralRefined,
            &mut rng,
        );
        let c = a.cut.expect("bridge cut");
        assert_eq!(c.edge_cut, 1);
        assert_eq!(c.size(), 20);
    }

    #[test]
    fn edge_objective_returns_connected_side() {
        let g = generators::torus(&[8, 8]);
        let alive = NodeSet::full(64);
        let mut rng = SmallRng::seed_from_u64(5);
        let a = find_thin_cut(
            &g,
            &alive,
            CutObjective::Edge,
            2.0,
            CutStrategy::SpectralRefined,
            &mut rng,
        );
        if let Some(c) = a.cut {
            assert!(fx_graph::traversal::is_connected_subset(&g, &c.side));
        }
    }
}
