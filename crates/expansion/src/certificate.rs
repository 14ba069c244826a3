//! Two-sided expansion certificates.
//!
//! Expansion is NP-hard to compute and (as the paper notes in §1.1)
//! has no known constant-factor approximation for unknown topology.
//! The honest object to report is therefore an *interval*:
//!
//! * **lower bound** — exact enumeration (small n) or the Cheeger
//!   inequality `αe ≥ (λ₂/2)·d_min` (and `α ≥ αe/δ`) from our Lanczos
//!   `λ₂`;
//! * **upper bound** — a concrete witnessed [`Cut`], from exact search
//!   or spectral sweep plus local refinement.
//!
//! Every experiment that reports "the expansion" reports this interval.

use crate::cut::Cut;
use crate::exact::{exact_edge_expansion, exact_node_expansion, EXACT_MAX_NODES};
use crate::local::{improve_cut, Objective};
use crate::sweep::spectral_sweep;
use fx_graph::components::components;
use fx_graph::{CsrGraph, NodeSet};
use rand::Rng;

/// How hard to work for a certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Exact if `alive ≤ EXACT_MAX_NODES`, otherwise spectral sweep.
    Auto,
    /// Spectral sweep + local refinement passes.
    SpectralRefined,
}

/// A two-sided bound on an expansion quantity, with the witness that
/// realizes the upper bound.
#[derive(Debug, Clone)]
pub struct ExpansionBounds {
    /// Certified lower bound (0 when nothing better is known).
    pub lower: f64,
    /// Upper bound realized by `witness` (`f64::INFINITY` when no
    /// valid cut exists, e.g. single-node graphs).
    pub upper: f64,
    /// The cut achieving `upper`.
    pub witness: Option<Cut>,
    /// True when `lower == upper` came from exhaustive search.
    pub exact: bool,
}

impl ExpansionBounds {
    fn empty() -> Self {
        ExpansionBounds {
            lower: 0.0,
            upper: f64::INFINITY,
            witness: None,
            exact: false,
        }
    }
}

/// Certificate for the **node expansion** `α` of `(g, alive)`.
pub fn node_expansion_bounds<R: Rng + ?Sized>(
    g: &CsrGraph,
    alive: &NodeSet,
    effort: Effort,
    rng: &mut R,
) -> ExpansionBounds {
    bounds_impl(g, alive, effort, rng, true)
}

/// Certificate for the **edge expansion** `αe` of `(g, alive)`.
pub fn edge_expansion_bounds<R: Rng + ?Sized>(
    g: &CsrGraph,
    alive: &NodeSet,
    effort: Effort,
    rng: &mut R,
) -> ExpansionBounds {
    bounds_impl(g, alive, effort, rng, false)
}

fn bounds_impl<R: Rng + ?Sized>(
    g: &CsrGraph,
    alive: &NodeSet,
    effort: Effort,
    rng: &mut R,
    node_objective: bool,
) -> ExpansionBounds {
    let n_alive = alive.len();
    if n_alive < 2 {
        return ExpansionBounds::empty();
    }

    // Disconnected alive set: expansion is exactly 0, witnessed by the
    // smallest component.
    let comps = components(g, alive);
    if comps.count() > 1 {
        let (smallest, _) = comps
            .sizes
            .iter()
            .enumerate()
            .min_by_key(|(_, &s)| s)
            .expect("at least two components");
        let side = comps.members(smallest);
        let witness = Cut::measure(g, alive, side);
        return ExpansionBounds {
            lower: 0.0,
            upper: 0.0,
            witness: Some(witness),
            exact: true,
        };
    }

    // Exact when affordable.
    if effort == Effort::Auto && n_alive <= EXACT_MAX_NODES {
        let res = if node_objective {
            exact_node_expansion(g, alive)
        } else {
            exact_edge_expansion(g, alive)
        };
        if let Some((val, wit)) = res {
            return ExpansionBounds {
                lower: val,
                upper: val,
                witness: Some(wit),
                exact: true,
            };
        }
    }

    // Spectral route.
    let sweep = spectral_sweep(g, alive, rng);
    let lambda2 = sweep.lambda2.unwrap_or(0.0).max(0.0);
    // Cheeger: conductance φ ≥ λ₂/2; αe ≥ φ·d_min; α ≥ αe/δ.
    let d_min = alive
        .iter()
        .map(|v| g.degree_in(v, alive))
        .min()
        .unwrap_or(0) as f64;
    let delta = alive
        .iter()
        .map(|v| g.degree_in(v, alive))
        .max()
        .unwrap_or(1) as f64;
    let edge_lower = 0.5 * lambda2 * d_min;
    let lower = if node_objective {
        edge_lower / delta.max(1.0)
    } else {
        edge_lower
    };

    let raw = if node_objective {
        sweep.best_node
    } else {
        sweep.best_edge
    };
    let witness = match (raw, effort) {
        (Some(c), Effort::SpectralRefined) => Some(improve_cut(
            g,
            alive,
            c,
            if node_objective {
                Objective::NodeRatio
            } else {
                Objective::EdgeRatio
            },
            8,
        )),
        (c, _) => c,
    };
    let upper = witness
        .as_ref()
        .map(|c| {
            if node_objective {
                c.node_ratio()
            } else {
                c.edge_ratio()
            }
        })
        .unwrap_or(f64::INFINITY);
    ExpansionBounds {
        lower: lower.min(upper),
        upper,
        witness,
        exact: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn exact_small_cycle() {
        let g = generators::cycle(12);
        let alive = NodeSet::full(12);
        let mut rng = SmallRng::seed_from_u64(2);
        let b = node_expansion_bounds(&g, &alive, Effort::Auto, &mut rng);
        assert!(b.exact);
        assert!((b.lower - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(b.lower, b.upper);
        assert!(b.witness.unwrap().verify(&g, &alive));
    }

    #[test]
    fn spectral_bounds_bracket_truth_on_torus() {
        let g = generators::torus(&[8, 8]);
        let alive = NodeSet::full(64);
        let mut rng = SmallRng::seed_from_u64(4);
        let b = edge_expansion_bounds(&g, &alive, Effort::SpectralRefined, &mut rng);
        assert!(
            b.lower <= b.upper + 1e-12,
            "lower {} > upper {}",
            b.lower,
            b.upper
        );
        assert!(
            b.lower > 0.0,
            "connected graph must get positive lower bound"
        );
        // true αe of the 8x8 torus is 2*8/32 = 0.5 (cut a band)
        assert!(b.upper >= 0.5 - 1e-9);
        assert!(
            b.upper <= 1.5,
            "sweep should find a decent band cut: {}",
            b.upper
        );
    }

    #[test]
    fn disconnected_is_exactly_zero() {
        let mut b = fx_graph::GraphBuilder::new(8);
        b.add_edge(0, 1).add_edge(2, 3);
        let g = b.build();
        let alive = NodeSet::from_iter(8, [0, 1, 2, 3]);
        let mut rng = SmallRng::seed_from_u64(8);
        let bounds = node_expansion_bounds(&g, &alive, Effort::Auto, &mut rng);
        assert!(bounds.exact);
        assert_eq!(bounds.upper, 0.0);
        assert_eq!(bounds.witness.unwrap().node_boundary, 0);
    }

    #[test]
    fn degenerate_sizes() {
        let g = generators::path(1);
        let mut rng = SmallRng::seed_from_u64(1);
        let b = node_expansion_bounds(&g, &NodeSet::full(1), Effort::Auto, &mut rng);
        assert!(b.witness.is_none());
        assert!(b.upper.is_infinite());
    }

    #[test]
    fn expander_lower_bound_is_constant() {
        // Margulis expander: λ₂ bounded away from 0 → positive lower
        // bound independent of n (up to the d_min/δ factors).
        let mut rng = SmallRng::seed_from_u64(6);
        // (64 nodes is past EXACT_MAX_NODES, so Auto takes the
        // spectral route)
        let g = generators::margulis(8);
        let alive = NodeSet::full(64);
        let b = edge_expansion_bounds(&g, &alive, Effort::Auto, &mut rng);
        assert!(b.lower > 0.05, "expander edge lower bound {}", b.lower);
    }
}
