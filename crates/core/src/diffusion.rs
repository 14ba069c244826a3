//! Discrete diffusion load balancing on (faulty, pruned) networks.
//!
//! §1.3 of the paper: *"if the expansion basically stays the same, the
//! ability of a network to balance single-commodity or multi-commodity
//! load basically stays the same, and this ability can be exploited
//! through simple local algorithms"* (citing Ghosh et al.). This
//! module implements the first-order diffusion scheme
//!
//! ```text
//! x_{t+1}(v) = x_t(v) + Σ_{w ~ v} (x_t(w) − x_t(v)) / (2·δ)
//! ```
//!
//! whose convergence rate is governed by the spectral gap — so a
//! pruned component with preserved expansion balances load almost as
//! fast as the fault-free network (experiment E13).

use fx_graph::{CsrGraph, NodeSet};

/// Result of a diffusion run.
#[derive(Debug, Clone)]
pub struct DiffusionOutcome {
    /// Rounds executed.
    pub rounds: usize,
    /// Maximum |load − mean| at the end.
    pub final_imbalance: f64,
    /// Initial maximum |load − mean|.
    pub initial_imbalance: f64,
    /// Per-round contraction factor estimated from the first/last
    /// imbalance (`(final/initial)^(1/rounds)`, 1.0 when degenerate).
    pub contraction: f64,
}

/// Runs diffusion on the alive subgraph from `load` (length = full
/// node universe; dead entries ignored) until the maximum deviation
/// from the mean drops below `tol` or `max_rounds` elapse.
///
/// Total load over alive nodes is conserved exactly in exact
/// arithmetic and to floating-point accuracy here (checked by tests).
pub fn diffuse(
    g: &CsrGraph,
    alive: &NodeSet,
    load: &[f64],
    tol: f64,
    max_rounds: usize,
) -> DiffusionOutcome {
    assert_eq!(load.len(), g.num_nodes());
    let n_alive = alive.len();
    if n_alive == 0 {
        return DiffusionOutcome {
            rounds: 0,
            final_imbalance: 0.0,
            initial_imbalance: 0.0,
            contraction: 1.0,
        };
    }
    let delta = alive
        .iter()
        .map(|v| g.degree_in(v, alive))
        .max()
        .unwrap_or(1)
        .max(1);
    let step = 1.0 / (2.0 * delta as f64);
    let mean = alive.iter().map(|v| load[v as usize]).sum::<f64>() / n_alive as f64;
    let imbalance = |x: &[f64]| -> f64 {
        alive
            .iter()
            .map(|v| (x[v as usize] - mean).abs())
            .fold(0.0, f64::max)
    };

    let mut x = load.to_vec();
    let initial = imbalance(&x);
    let mut rounds = 0usize;
    let mut next = x.clone();
    while rounds < max_rounds && imbalance(&x) > tol {
        for v in alive.iter() {
            let xv = x[v as usize];
            let mut acc = 0.0;
            for &w in g.neighbors(v) {
                if alive.contains(w) {
                    acc += x[w as usize] - xv;
                }
            }
            next[v as usize] = xv + step * acc;
        }
        std::mem::swap(&mut x, &mut next);
        rounds += 1;
    }
    let final_imbalance = imbalance(&x);
    let contraction = if rounds > 0 && initial > 0.0 && final_imbalance > 0.0 {
        (final_imbalance / initial).powf(1.0 / rounds as f64)
    } else {
        1.0
    };
    DiffusionOutcome {
        rounds,
        final_imbalance,
        initial_imbalance: initial,
        contraction,
    }
}

/// A worst-case-ish initial load: all tokens at one alive node.
pub fn point_load(g: &CsrGraph, alive: &NodeSet, source: u32, total: f64) -> Vec<f64> {
    assert!(alive.contains(source), "source must be alive");
    let mut load = vec![0.0; g.num_nodes()];
    load[source as usize] = total;
    load
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn conserves_total_and_converges_on_clique() {
        let g = generators::complete(16);
        let alive = NodeSet::full(16);
        let load = point_load(&g, &alive, 0, 160.0);
        let out = diffuse(&g, &alive, &load, 1e-6, 10_000);
        assert!(out.final_imbalance < 1e-6);
        assert!(
            out.rounds < 200,
            "clique should balance fast: {}",
            out.rounds
        );
    }

    #[test]
    fn expander_beats_cycle() {
        // same n, same initial load: the expander balances much
        // faster (spectral gap Θ(1) vs Θ(1/n²)).
        let n = 64;
        let mut rng = SmallRng::seed_from_u64(1);
        let exp = generators::random_regular(n, 4, &mut rng);
        let cyc = generators::cycle(n);
        let alive = NodeSet::full(n);
        let le = point_load(&exp, &alive, 0, n as f64);
        let lc = point_load(&cyc, &alive, 0, n as f64);
        let re = diffuse(&exp, &alive, &le, 0.5, 100_000);
        let rc = diffuse(&cyc, &alive, &lc, 0.5, 100_000);
        assert!(
            re.rounds * 5 < rc.rounds,
            "expander {} rounds vs cycle {}",
            re.rounds,
            rc.rounds
        );
    }

    #[test]
    fn respects_alive_mask() {
        let g = generators::torus(&[6, 6]);
        let mut alive = NodeSet::full(36);
        for v in 0..6u32 {
            alive.remove(v);
        }
        let load = point_load(&g, &alive, 20, 30.0);
        let out = diffuse(&g, &alive, &load, 1e-3, 50_000);
        assert!(out.final_imbalance < 1e-3);
    }

    #[test]
    fn disconnected_alive_never_balances_globally() {
        let mut b = fx_graph::GraphBuilder::new(4);
        b.add_edge(0, 1).add_edge(2, 3);
        let g = b.build();
        let alive = NodeSet::full(4);
        let load = point_load(&g, &alive, 0, 4.0);
        let out = diffuse(&g, &alive, &load, 1e-9, 2_000);
        // mean is 1.0 but component {2,3} stays at 0 → imbalance 1
        assert!(out.final_imbalance > 0.9);
        assert_eq!(out.rounds, 2_000);
    }

    #[test]
    fn empty_and_trivial() {
        let g = generators::path(3);
        let out = diffuse(&g, &NodeSet::empty(3), &[0.0; 3], 1e-9, 10);
        assert_eq!(out.rounds, 0);
        let single = NodeSet::from_iter(3, [1]);
        let out2 = diffuse(&g, &single, &[0.0, 5.0, 0.0], 1e-9, 10);
        assert_eq!(out2.rounds, 0, "single node is already balanced");
    }

    #[test]
    fn total_load_conserved_numerically() {
        let g = generators::torus(&[5, 5]);
        let alive = NodeSet::full(25);
        let mut rng = SmallRng::seed_from_u64(2);
        let load: Vec<f64> = (0..25).map(|_| rng.gen_range(0.0..10.0)).collect();
        let before: f64 = load.iter().sum();
        // run a fixed number of rounds by setting tol = 0
        let mut x = load.clone();
        let delta = 4.0;
        for _ in 0..50 {
            let mut next = x.clone();
            for v in alive.iter() {
                let mut acc = 0.0;
                for &w in g.neighbors(v) {
                    acc += x[w as usize] - x[v as usize];
                }
                next[v as usize] = x[v as usize] + acc / (2.0 * delta);
            }
            x = next;
        }
        let after: f64 = x.iter().sum();
        assert!((before - after).abs() < 1e-9 * before.max(1.0));
    }
}
