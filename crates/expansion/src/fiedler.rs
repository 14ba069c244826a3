//! Fiedler vectors: the spectral ordering behind sweep cuts.

use crate::lanczos::{lanczos_lambda2, LanczosResult};
use crate::matvec::CompactComponent;
use rand::Rng;

/// Spectral data for a component: `λ₂` and per-node sweep scores.
#[derive(Debug, Clone)]
pub struct Fiedler {
    /// `λ₂` of the normalized Laplacian.
    pub lambda2: f64,
    /// Sweep scores in *vertex space* (`D^{-1/2}` × the normalized
    /// eigenvector), indexed by compact component ids.
    pub scores: Vec<f64>,
    /// Solver iterations used.
    pub iterations: usize,
    /// Final eigen-residual.
    pub residual: f64,
}

/// Computes the Fiedler data of `comp` with Lanczos (full
/// reorthogonalization). Returns `None` for components with fewer
/// than 2 nodes.
pub fn fiedler<R: Rng + ?Sized>(
    comp: &CompactComponent,
    max_iter: usize,
    tol: f64,
    rng: &mut R,
) -> Option<Fiedler> {
    let LanczosResult {
        lambda2,
        ritz_vector,
        iterations,
        residual,
    } = lanczos_lambda2(comp, max_iter, tol, rng)?;
    // Vertex-space scores: y = D^{-1/2} x. Sweep thresholds on y give
    // the Cheeger guarantee for conductance.
    let scores: Vec<f64> = ritz_vector
        .iter()
        .zip(&comp.inv_sqrt_deg)
        .map(|(x, i)| x * i)
        .collect();
    Some(Fiedler {
        lambda2,
        scores,
        iterations,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::{generators, NodeSet};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn fiedler_separates_barbell() {
        // two K_5 joined by one edge: the Fiedler scores must separate
        // the cliques by sign.
        let mut b = fx_graph::GraphBuilder::new(10);
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                b.add_edge(i, j);
                b.add_edge(i + 5, j + 5);
            }
        }
        b.add_edge(0, 5);
        let g = b.build();
        let alive = NodeSet::full(10);
        let comp = CompactComponent::largest(&g, &alive).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let f = fiedler(&comp, 100, 1e-10, &mut rng).unwrap();
        // clique A: back ids 0..5, clique B: 5..10 (compact == original)
        let sign_a = f.scores[1].signum();
        for i in 1..5 {
            assert_eq!(f.scores[i].signum(), sign_a, "clique A node {i}");
        }
        for i in 6..10 {
            assert_eq!(f.scores[i].signum(), -sign_a, "clique B node {i}");
        }
        assert!(
            f.lambda2 < 0.2,
            "barbell gap should be small: {}",
            f.lambda2
        );
    }

    #[test]
    fn methods_agree_on_lambda2() {
        let g = generators::hypercube(4);
        let alive = NodeSet::full(16);
        let comp = CompactComponent::largest(&g, &alive).unwrap();
        let mut rng = SmallRng::seed_from_u64(21);
        let a = fiedler(&comp, 150, 1e-12, &mut rng).unwrap();
        let b = crate::lanczos::power_lambda2(&comp, 100_000, 1e-13, &mut rng).unwrap();
        assert!(
            (a.lambda2 - b.lambda2).abs() < 1e-5,
            "{} vs {}",
            a.lambda2,
            b.lambda2
        );
    }
}
