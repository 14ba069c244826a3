//! Cross-crate integration: the §2 adversarial pipeline end to end
//! (generators → faults → prune → expansion certificates → theorem
//! guarantees).

use fault_expansion::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Theorem 2.1 end-to-end on an exactly-certifiable graph: for every
/// adversary within budget, Prune(1/2·α regime) keeps ≥ n − k·f/α
/// nodes with certified expansion ≥ (1−1/k)·α.
#[test]
fn theorem21_pipeline_small_certified() {
    let net = Family::Torus { dims: vec![4, 4] }.build(0);
    let n = net.n();
    let full = net.full_mask();
    let mut rng = SmallRng::seed_from_u64(1);
    let bounds = node_expansion_bounds(&net.graph, &full, Effort::Auto, &mut rng);
    assert!(bounds.exact, "16-node torus must be exactly certifiable");
    let alpha = bounds.upper;

    // α(4x4 torus) = 3/4, so k·f/α ≤ n/4 = 4 holds exactly for f ≤ 1
    for f in 0..=1usize {
        let k = 2.0;
        let Some(t) = theorem21(n, alpha, f, k) else {
            panic!("preconditions must hold for f ≤ 1 on the 4x4 torus");
        };
        let model = ExactRandomFaults { f };
        let mut rng = SmallRng::seed_from_u64(100 + f as u64);
        let failed = model.sample(&net.graph, &mut rng);
        let alive = apply_faults(&net.graph, &failed);
        let out = prune(
            &net.graph,
            &alive,
            alpha,
            t.epsilon,
            CutStrategy::Exact,
            &mut rng,
        );
        assert!(out.certified);
        assert!(
            out.kept.len() as f64 >= t.min_kept - 1e-9,
            "f={f}: kept {} < {}",
            out.kept.len(),
            t.min_kept
        );
        if out.kept.len() >= 2 {
            let after = node_expansion_bounds(&net.graph, &out.kept, Effort::Auto, &mut rng);
            assert!(after.exact);
            assert!(
                after.lower >= t.min_expansion - 1e-9,
                "f={f}: α(H) = {} < {}",
                after.lower,
                t.min_expansion
            );
        }
    }
}

/// Theorem 2.3 end-to-end: the chain-center adversary shatters a
/// subdivided expander into sublinear components with Θ(α·n) faults.
#[test]
fn theorem23_chain_centers_shatter_subdivided_expander() {
    let (net, sub) = subdivided_expander(60, 4, 8, 3);
    let m = sub.original_edges.len();
    let n_h = net.n();
    // fault budget = one per chain = m = δ·n/2 faults
    let adv = ChainCenterAdversary {
        sub: &sub,
        budget: m,
    };
    let mut rng = SmallRng::seed_from_u64(9);
    let failed = adv.sample(&net.graph, &mut rng);
    assert_eq!(failed.len(), m);
    let alive = apply_faults(&net.graph, &failed);
    let comps = fault_expansion::graph::components::components(&net.graph, &alive);
    let biggest = comps.largest().map_or(0, |(_, s)| s);
    let bound = fault_expansion::prune::bounds::theorem23_component_bound(4, sub.k);
    assert!(
        biggest <= bound,
        "largest surviving component {biggest} exceeds O(δk) bound {bound}"
    );
    // and the faults were a vanishing fraction of H for large k:
    assert!(failed.len() * sub.k <= n_h, "budget sanity");
}

/// The sparse-cut adversary is at least as damaging (to the pruned
/// core) as random faults of the same budget, on an expander.
#[test]
fn sparse_cut_beats_random_on_expander() {
    let net = Family::RandomRegular { n: 300, d: 4 }.build(11);
    let adv = analyze_adversarial(&net, &SparseCutAdversary { budget: 30 }, 2.0, 5);
    let rnd = analyze_adversarial(&net, &ExactRandomFaults { f: 30 }, 2.0, 5);
    // pruned cores: adversarial faults should cost at least as many
    // total nodes (faults + culled) as random ones
    let adv_loss = net.n() - adv.kept;
    let rnd_loss = net.n() - rnd.kept;
    assert!(
        adv_loss + 10 >= rnd_loss,
        "adversary ({adv_loss}) should not be far weaker than random ({rnd_loss})"
    );
    // reports are well-formed
    assert_eq!(adv.n, 300);
    assert!(adv.kept + adv.culled + adv.faults == 300);
    assert!(rnd.kept + rnd.culled + rnd.faults == 300);
}

/// The Theorem 2.5 dissection shatters a uniform-expansion graph (the
/// 2-D mesh) with o(n) removals, and the removal count tracks the
/// O(log(1/ε)/ε · α(n) · n) bound's shape across sizes.
#[test]
fn theorem25_dissection_scaling_on_meshes() {
    let mut rng = SmallRng::seed_from_u64(2);
    let mut removed_fracs = Vec::new();
    for side in [12usize, 24] {
        let g = fault_expansion::graph::generators::mesh(&[side, side]);
        let alive = NodeSet::full(side * side);
        let eps = 0.25;
        let target = ((side * side) as f64 * eps) as usize;
        let d = dissect(&g, &alive, target, CutStrategy::SpectralRefined, &mut rng);
        assert!(d.largest_piece() < target);
        let frac = d.num_removed() as f64 / (side * side) as f64;
        removed_fracs.push(frac);
    }
    // α(n) ~ 1/side: the removed FRACTION should shrink as the mesh
    // grows (ω(α·n) faults, but α·n = o(n))
    assert!(
        removed_fracs[1] < removed_fracs[0],
        "removed fraction should decrease with n: {removed_fracs:?}"
    );
}
