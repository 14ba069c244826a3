//! Critical-probability estimation (the §1.1 survey constants).
//!
//! `p*` is defined through the emergence of a linear-size component:
//! we estimate the survival probability at which the mean `γ` crosses
//! a threshold `c` (default 0.1), by inverting Newman–Ziff curves.
//! For the families in the paper's survey the known values are
//! `1/(n−1)` (complete, bond), `1/d` (random `d·n/2`-edge graphs),
//! `1/2` (2-D mesh, bond, Kesten), `Θ(1/n)` (hypercube of dimension
//! n, bond), and `0.337 < p* < 0.436` (butterfly, site).

use crate::montecarlo::{MonteCarlo, Stat};
use fx_graph::par::CancelToken;
use fx_graph::CsrGraph;

/// Which elements fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nodes fail (site percolation).
    Site,
    /// Edges fail (bond percolation).
    Bond,
}

/// A critical-probability estimate.
#[derive(Debug, Clone)]
pub struct CriticalEstimate {
    /// Estimated critical *survival* probability.
    pub p_star: f64,
    /// The γ-threshold defining "linear-size component".
    pub gamma_threshold: f64,
    /// γ measured just below / at the estimate (diagnostics).
    pub gamma_at_estimate: Stat,
    /// Curve resolution used.
    pub grid: usize,
}

/// Estimates the critical survival probability of `g` by scanning a
/// uniform grid of `grid` keep-probabilities with Newman–Ziff curves
/// and linearly interpolating the first crossing of
/// `gamma_threshold`.
pub fn estimate_critical(
    g: &CsrGraph,
    mode: Mode,
    mc: &MonteCarlo,
    gamma_threshold: f64,
    grid: usize,
) -> CriticalEstimate {
    estimate_critical_cancelable(g, mode, mc, gamma_threshold, grid, &CancelToken::new())
}

/// [`estimate_critical`] with cooperative cancellation: every trial
/// sweep polls `token` before starting, so a campaign cell's
/// `timeout_ms` is honored mid-curve on very large graphs — the
/// remaining trials are skipped and the estimate covers the completed
/// ones. A token that never fires yields exactly the uncancelled
/// estimate. The crossing scan itself is O(grid) float compares and
/// deliberately does NOT poll: by the time it runs the curve is paid
/// for, and observing the token there would mark fully completed
/// work as truncated.
pub fn estimate_critical_cancelable(
    g: &CsrGraph,
    mode: Mode,
    mc: &MonteCarlo,
    gamma_threshold: f64,
    grid: usize,
    token: &CancelToken,
) -> CriticalEstimate {
    assert!(grid >= 2);
    assert!((0.0..1.0).contains(&gamma_threshold) && gamma_threshold > 0.0);
    let keeps: Vec<f64> = (0..=grid).map(|i| i as f64 / grid as f64).collect();
    let curve = match mode {
        Mode::Site => mc.gamma_site_curve_cancelable(g, &keeps, token),
        Mode::Bond => mc.gamma_bond_curve_cancelable(g, &keeps, token),
    };
    // first index where mean γ ≥ threshold
    let mut p_star = 1.0;
    let mut at = curve[grid];
    for i in 0..=grid {
        if curve[i].mean >= gamma_threshold {
            if i == 0 {
                p_star = 0.0;
                at = curve[0];
            } else {
                // linear interpolation between grid points
                let (y0, y1) = (curve[i - 1].mean, curve[i].mean);
                let (x0, x1) = (keeps[i - 1], keeps[i]);
                let t = if (y1 - y0).abs() < 1e-15 {
                    0.0
                } else {
                    (gamma_threshold - y0) / (y1 - y0)
                };
                p_star = x0 + t * (x1 - x0);
                at = curve[i];
            }
            break;
        }
    }
    CriticalEstimate {
        p_star,
        gamma_threshold,
        gamma_at_estimate: at,
        grid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mc() -> MonteCarlo {
        MonteCarlo {
            trials: 16,
            base_seed: 99,
        }
    }

    #[test]
    fn torus_bond_threshold_near_half() {
        // Kesten: 2-D bond percolation p* = 1/2 (the torus
        // approximates the infinite lattice).
        let g = generators::torus(&[32, 32]);
        let est = estimate_critical(&g, Mode::Bond, &mc(), 0.1, 40);
        assert!(
            (est.p_star - 0.5).abs() < 0.12,
            "torus bond p* estimate {}",
            est.p_star
        );
    }

    #[test]
    fn complete_graph_threshold_near_inverse_n() {
        // Erdős–Rényi: K_n bond percolation p* = 1/(n-1).
        let g = generators::complete(120);
        let est = estimate_critical(&g, Mode::Bond, &mc(), 0.1, 200);
        let expect = 1.0 / 119.0;
        assert!(
            est.p_star < 5.0 * expect + 0.01,
            "K_n p* {} vs {}",
            est.p_star,
            expect
        );
    }

    #[test]
    fn site_threshold_on_torus_reasonable() {
        // 2-D site percolation p* ≈ 0.5927 on the square lattice.
        let g = generators::torus(&[32, 32]);
        let est = estimate_critical(&g, Mode::Site, &mc(), 0.1, 40);
        assert!(
            est.p_star > 0.4 && est.p_star < 0.75,
            "torus site p* {}",
            est.p_star
        );
    }

    #[test]
    fn subdivided_expander_threshold_scales_with_k() {
        // Theorem 3.1's shape: the subdivided expander's critical
        // survival probability rises toward 1 as k grows (fault
        // tolerance p_fault = 1 - p* shrinks like Θ(1/k)).
        let mut rng = SmallRng::seed_from_u64(77);
        let base = generators::random_regular(60, 4, &mut rng);
        let sub_small = generators::subdivide(&base, 2);
        let sub_large = generators::subdivide(&base, 10);
        let e_small = estimate_critical(&sub_small.graph, Mode::Site, &mc(), 0.1, 30);
        let e_large = estimate_critical(&sub_large.graph, Mode::Site, &mc(), 0.1, 30);
        assert!(
            e_large.p_star > e_small.p_star,
            "longer chains must be more fragile: k=2 → {}, k=10 → {}",
            e_small.p_star,
            e_large.p_star
        );
    }

    #[test]
    fn cancelable_estimate_matches_then_truncates() {
        let g = generators::torus(&[16, 16]);
        // an unfired token changes nothing
        let free = CancelToken::new();
        let a = estimate_critical(&g, Mode::Site, &mc(), 0.1, 20);
        let b = estimate_critical_cancelable(&g, Mode::Site, &mc(), 0.1, 20, &free);
        assert_eq!(a.p_star, b.p_star);
        assert!(!free.was_observed());
        // a pre-fired token truncates promptly and is observed
        let fired = CancelToken::new();
        fired.cancel();
        let c = estimate_critical_cancelable(&g, Mode::Site, &mc(), 0.1, 20, &fired);
        assert!(fired.was_observed(), "cancellation points must react");
        assert!((0.0..=1.0).contains(&c.p_star));
    }

    #[test]
    fn threshold_zero_when_always_giant() {
        // a graph that keeps γ ≥ threshold even at keep=0? impossible
        // for site; but keep=0 gives γ=0, so p* > 0 always:
        let g = generators::complete(30);
        let est = estimate_critical(&g, Mode::Site, &mc(), 0.1, 20);
        assert!(est.p_star > 0.0 && est.p_star < 0.35);
    }
}
