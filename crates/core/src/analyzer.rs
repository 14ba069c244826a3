//! End-to-end resilience analyses: the pipelines a downstream user
//! actually runs.
//!
//! * [`analyze_adversarial`] — inject adversarial faults, run
//!   `Prune(1−1/k)`, certify the surviving expansion, compare with
//!   Theorem 2.1's guarantee.
//! * [`analyze_random`] — Monte-Carlo over i.i.d. node faults, run
//!   `Prune2(ε)` per trial, report success rates against Theorem 3.4.

use crate::network::Network;
use crate::report::{AdversarialReport, BoundsSummary, RandomFaultReport};
use fx_expansion::certificate::{edge_expansion_bounds, node_expansion_bounds, Effort};
use fx_faults::{apply_faults, FaultModel, RandomNodeFaults};
use fx_graph::components::{gamma, gamma_with};
use fx_graph::{NodeSet, Scratch};
use fx_prune::{prune, prune2, theorem21, theorem34_applicable, theorem34_max_p, CutStrategy};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs the full adversarial pipeline of §2:
/// measure `α`, inject `model`'s faults, run `Prune(1−1/k)`, measure
/// `α(H)`, and evaluate the Theorem 2.1 guarantee. The analysis is a
/// pure function of its inputs and `seed`.
pub fn analyze_adversarial(
    net: &Network,
    model: &dyn FaultModel,
    k: f64,
    seed: u64,
) -> AdversarialReport {
    assert!(k >= 2.0, "Theorem 2.1 needs k ≥ 2");
    let mut rng = SmallRng::seed_from_u64(seed);
    let full = net.full_mask();
    let alpha_before = node_expansion_bounds(&net.graph, &full, Effort::Auto, &mut rng);
    // Use the witnessed upper bound as the operational α (it is the
    // value a real operator can actually certify).
    let alpha = alpha_before.upper.min(1e6);

    let failed = model.sample(&net.graph, &mut rng);
    let alive = apply_faults(&net.graph, &failed);
    let gamma_after = gamma(&net.graph, &alive);

    let epsilon = 1.0 - 1.0 / k;
    let out = prune(
        &net.graph,
        &alive,
        alpha,
        epsilon,
        CutStrategy::Auto,
        &mut rng,
    );
    let alpha_after = node_expansion_bounds(&net.graph, &out.kept, Effort::Auto, &mut rng);

    let guarantee = theorem21(net.n(), alpha, failed.len(), k);
    AdversarialReport {
        network: net.name.clone(),
        adversary: model.name(),
        n: net.n(),
        faults: failed.len(),
        alpha_before: BoundsSummary::from(&alpha_before),
        gamma_after_faults: gamma_after,
        epsilon,
        kept: out.kept.len(),
        culled: out.culled_nodes(),
        alpha_after: BoundsSummary::from(&alpha_after),
        guaranteed_min_kept: guarantee.map(|t| t.min_kept),
        guaranteed_min_expansion: guarantee.map(|t| t.min_expansion),
        certified: out.certified,
    }
}

/// Runs the random-fault pipeline of §3 over `trials` Monte-Carlo
/// trials at fault probability `p`: inject i.i.d. faults, run
/// `Prune2(ε)`, and aggregate the Theorem 3.4 success statistics.
/// Trial `i` draws from its own stream derived from `seed`, and the
/// trials run in order through one reused set of masks.
///
/// `sigma` is the (known or assumed) span of the network, used only
/// to evaluate the theorem's `p ≤ 1/(2e·δ^{4σ})` precondition.
pub fn analyze_random(
    net: &Network,
    p: f64,
    epsilon: f64,
    sigma: f64,
    trials: usize,
    seed: u64,
) -> RandomFaultReport {
    assert!((0.0..=1.0).contains(&p));
    let mut rng = SmallRng::seed_from_u64(seed);
    let full = net.full_mask();
    let ae_before = edge_expansion_bounds(&net.graph, &full, Effort::Auto, &mut rng);
    let alpha_e = ae_before.upper.min(1e6);
    let delta = net.max_degree();

    struct Trial {
        gamma: f64,
        kept_fraction: f64,
        success: bool,
        alpha_e_after: f64,
    }
    let n = net.n();
    let graph = &net.graph;
    // one trial arena (fault mask, alive mask, traversal scratch),
    // reused by every trial
    let mut failed = NodeSet::empty(n);
    let mut alive = NodeSet::empty(n);
    let mut scratch = Scratch::new();
    let results: Vec<Trial> = (0..trials)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(seed ^ (0xC0FFEE + i as u64));
            RandomNodeFaults { p }.sample_into(graph, &mut rng, &mut failed);
            failed.complement_into(&mut alive);
            let g_frac = gamma_with(graph, &alive, &mut scratch);
            let out = prune2(graph, &alive, alpha_e, epsilon, CutStrategy::Auto, &mut rng);
            let kept_fraction = out.kept.len() as f64 / n.max(1) as f64;
            let after = edge_expansion_bounds(graph, &out.kept, Effort::Auto, &mut rng);
            Trial {
                gamma: g_frac,
                kept_fraction,
                success: 2 * out.kept.len() >= n,
                alpha_e_after: if after.upper.is_finite() {
                    after.upper
                } else {
                    0.0
                },
            }
        })
        .collect();

    let mean =
        |f: &dyn Fn(&Trial) -> f64| results.iter().map(f).sum::<f64>() / trials.max(1) as f64;
    RandomFaultReport {
        network: net.name.clone(),
        p,
        trials,
        n,
        alpha_e_before: BoundsSummary::from(&ae_before),
        epsilon,
        mean_gamma: mean(&|t| t.gamma),
        mean_kept_fraction: mean(&|t| t.kept_fraction),
        success_rate: mean(&|t| if t.success { 1.0 } else { 0.0 }),
        mean_alpha_e_after: mean(&|t| t.alpha_e_after),
        theorem34_max_p: theorem34_max_p(delta, sigma),
        theorem34_applicable: theorem34_applicable(n, delta, sigma, alpha_e, p, epsilon),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::Family;
    use fx_faults::{ExactRandomFaults, SparseCutAdversary};

    const SEED: u64 = 0xFA017;

    #[test]
    fn adversarial_pipeline_on_hypercube() {
        let net = Family::Hypercube { d: 4 }.build(0);
        let r = analyze_adversarial(&net, &SparseCutAdversary { budget: 2 }, 2.0, SEED);
        assert_eq!(r.n, 16);
        assert!(r.faults <= 2);
        assert!(r.kept <= 16 - r.faults);
        assert!(r.kept + r.culled + r.faults == 16);
        assert!(r.alpha_before.point() > 0.0);
        // small graph → exact oracle → certified
        assert!(r.certified);
        if let (Some(min_kept), Some(min_exp)) = (r.guaranteed_min_kept, r.guaranteed_min_expansion)
        {
            assert!(r.kept as f64 >= min_kept - 1e-9);
            assert!(r.alpha_after.point() >= min_exp - 1e-9);
        }
    }

    #[test]
    fn adversarial_report_consistency_random_model() {
        let net = Family::Torus { dims: vec![5, 5] }.build(0);
        let r = analyze_adversarial(&net, &ExactRandomFaults { f: 3 }, 3.0, SEED);
        assert_eq!(r.faults, 3);
        assert!((0.0..=1.0).contains(&r.gamma_after_faults));
        assert!(r.epsilon > 0.6 && r.epsilon < 0.7);
    }

    #[test]
    fn random_pipeline_zero_p_keeps_everything() {
        let net = Family::Torus { dims: vec![4, 4] }.build(0);
        let r = analyze_random(&net, 0.0, 0.125, 2.0, 4, SEED);
        assert!((r.mean_gamma - 1.0).abs() < 1e-12);
        assert!((r.mean_kept_fraction - 1.0).abs() < 1e-12);
        assert!((r.success_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_pipeline_heavy_p_fails() {
        let net = Family::Torus { dims: vec![4, 4] }.build(0);
        let r = analyze_random(&net, 0.9, 0.125, 2.0, 4, SEED);
        assert!(r.mean_gamma < 0.3);
        assert!(r.success_rate < 0.5);
        assert!(!r.theorem34_applicable); // p far beyond the bound
    }

    #[test]
    fn random_pipeline_deterministic() {
        let net = Family::Hypercube { d: 5 }.build(0);
        let a = analyze_random(&net, 0.1, 0.1, 2.0, 6, SEED);
        let b = analyze_random(&net, 0.1, 0.1, 2.0, 6, SEED);
        assert_eq!(a.mean_gamma, b.mean_gamma);
        assert_eq!(a.mean_kept_fraction, b.mean_kept_fraction);
    }
}
