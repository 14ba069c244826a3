//! Percolation sampling primitives: site (node) dilution, and the
//! `γ` largest-component measure (site and bond) from the paper's
//! §1.1.

use fx_graph::components::largest_component;
use fx_graph::{CsrGraph, NodeSet, Scratch};
use rand::Rng;

/// Site percolation sample: each node *survives* independently with
/// probability `keep`. Returns the alive mask.
pub fn sample_alive_nodes<R: Rng + ?Sized>(n: usize, keep: f64, rng: &mut R) -> NodeSet {
    let mut alive = NodeSet::empty(n);
    sample_alive_nodes_into(n, keep, rng, &mut alive);
    alive
}

/// [`sample_alive_nodes`] into a reusable mask: the Monte-Carlo
/// harness keeps one mask per worker instead of allocating one per
/// trial. Sampling is word-parallel
/// ([`NodeSet::fill_random`]): ~8 RNG draws decide 64 nodes.
pub fn sample_alive_nodes_into<R: Rng + ?Sized>(
    n: usize,
    keep: f64,
    rng: &mut R,
    out: &mut NodeSet,
) {
    if out.capacity() != n {
        *out = NodeSet::empty(n);
    }
    out.fill_random(keep, rng);
}

/// `γ` for a site-percolated graph: largest-component fraction of the
/// ORIGINAL node count (the paper's disintegration measure).
pub fn gamma_site(g: &CsrGraph, alive: &NodeSet) -> f64 {
    fx_graph::components::gamma(g, alive)
}

/// [`gamma_site`] through reusable traversal scratch — the
/// allocation-free per-trial kernel.
pub fn gamma_site_with(g: &CsrGraph, alive: &NodeSet, scratch: &mut Scratch) -> f64 {
    fx_graph::components::gamma_with(g, alive, scratch)
}

/// `γ` for a bond-percolated graph.
pub fn gamma_bond(g: &CsrGraph) -> f64 {
    if g.num_nodes() == 0 {
        return 0.0;
    }
    largest_component(g, &NodeSet::full(g.num_nodes())).len() as f64 / g.num_nodes() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn site_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(sample_alive_nodes(100, 1.0, &mut rng).len(), 100);
        assert_eq!(sample_alive_nodes(100, 0.0, &mut rng).len(), 0);
    }

    #[test]
    fn site_concentration() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut total = 0usize;
        for _ in 0..20 {
            total += sample_alive_nodes(1000, 0.7, &mut rng).len();
        }
        let mean = total as f64 / 20.0;
        assert!((mean - 700.0).abs() < 30.0, "{mean}");
    }

    #[test]
    fn bond_extremes_and_gamma() {
        let full = generators::cycle(10);
        assert!((gamma_bond(&full) - 1.0).abs() < 1e-12);
        let none = fx_graph::GraphBuilder::new(10).build();
        assert!((gamma_bond(&none) - 0.1).abs() < 1e-12); // singletons
    }

    #[test]
    fn gamma_site_counts_against_original_n() {
        let g = generators::path(10);
        let alive = NodeSet::from_iter(10, [0, 1, 2]); // component of 3
        assert!((gamma_site(&g, &alive) - 0.3).abs() < 1e-12);
    }
}
