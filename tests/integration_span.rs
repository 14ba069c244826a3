//! Cross-crate integration: the span machinery (§3.3) against the
//! mesh theorems and the §4 conjectures.

use fault_expansion::prelude::*;
use fault_expansion::span::mesh::boundary_virtually_connected;
use fault_expansion::span::span::set_span;
use fx_graph::generators::MeshShape;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Theorem 3.6 on small 2-D meshes: every compact set's constructive
/// ratio < 2 AND the true (Dreyfus–Wagner) Steiner ratio ≤ the
/// constructive one. Shared driver for the dev-profile-sized and
/// exhaustive variants below.
fn check_mesh_span_constructive_vs_exact(dims: [usize; 2], min_checked: usize) {
    let shape = MeshShape::new(&dims);
    let g = fault_expansion::graph::generators::mesh(&dims);
    let mut checked = 0usize;
    fault_expansion::span::compact_sets::for_each_compact_set(&g, 10_000_000, |u| {
        let constructive = mesh_span_ratio(&shape, &g, u).expect("nonempty boundary");
        assert!(constructive < 2.0, "constructive ratio {constructive} ≥ 2");
        let exact = set_span(&g, u).expect("measurable");
        assert!(exact.exact, "small boundaries must use Dreyfus–Wagner");
        assert!(
            exact.ratio() <= constructive + 1e-9,
            "exact {} > constructive {}",
            exact.ratio(),
            constructive
        );
        checked += 1;
        true
    });
    assert!(checked > min_checked, "only {checked} compact sets checked");
}

/// Dev-profile-sized Theorem 3.6 check: the 2×5 mesh's compact sets
/// are few enough that the exact Dreyfus–Wagner sweep stays in the
/// seconds range without optimization.
#[test]
fn mesh_span_constructive_vs_exact_small() {
    check_mesh_span_constructive_vs_exact([2, 5], 50);
}

/// The full 3×4 exhaustive sweep: exact Steiner costs dominate and
/// take minutes unoptimized, so this runs in release builds only
/// (`cargo test --release`); the dev-profile suite relies on the
/// smaller variant above.
#[cfg_attr(
    debug_assertions,
    ignore = "exact Dreyfus–Wagner sweep takes minutes in the dev profile; run with --release"
)]
#[test]
fn mesh_span_constructive_vs_exact_exhaustive() {
    check_mesh_span_constructive_vs_exact([3, 4], 100);
}

/// Lemma 3.7 on random compact sets in 2-D to 5-D meshes.
#[test]
fn lemma37_boundary_connectivity_up_to_4d() {
    let cases: Vec<Vec<usize>> = vec![
        vec![8, 8],
        vec![4, 4, 4],
        vec![3, 3, 3, 3],
        vec![3, 3, 3, 3, 3],
    ];
    let mut rng = SmallRng::seed_from_u64(21);
    for dims in cases {
        let shape = MeshShape::new(&dims);
        let g = fault_expansion::graph::generators::mesh(&dims);
        for _ in 0..20 {
            let Some(u) =
                fault_expansion::span::random_compact_set(&g, g.num_nodes() / 3, 300, &mut rng)
            else {
                continue;
            };
            assert!(
                boundary_virtually_connected(&shape, &g, &u),
                "Lemma 3.7 violated in {dims:?}"
            );
            let ratio = mesh_span_ratio(&shape, &g, &u).expect("ratio");
            assert!(ratio < 2.0, "{dims:?}: ratio {ratio}");
        }
    }
}

/// §4 conjecture probe: sampled span values of butterfly, de Bruijn
/// and shuffle-exchange stay small (consistent with O(1)) and — the
/// E9 check — do not grow with n in this range: per family, the
/// largest size's value stays under 3× the smallest's. The exact
/// Steiner costs inside `sampled_span` dominate, so the dev-profile
/// test below runs the small sizes and the full sweep is release-only.
fn check_conjecture_families_span_stays_small(dims: &[usize], samples: usize) {
    let mut rng = SmallRng::seed_from_u64(33);
    let mut series: Vec<(&str, Vec<f64>)> = Vec::new();
    for &d in dims {
        for (name, g) in [
            (
                "butterfly",
                fault_expansion::graph::generators::butterfly(d),
            ),
            (
                "de-bruijn",
                fault_expansion::graph::generators::de_bruijn(d + 3),
            ),
            (
                "shuffle-exchange",
                fault_expansion::graph::generators::shuffle_exchange(d + 3),
            ),
        ] {
            let est = sampled_span(&g, samples, g.num_nodes() / 4, &mut rng);
            assert!(
                est.max_ratio < 8.0,
                "{name}(d={d}) sampled span ratio {} suspiciously large",
                est.max_ratio
            );
            match series.iter_mut().find(|(n, _)| *n == name) {
                Some((_, values)) => values.push(est.max_ratio),
                None => series.push((name, vec![est.max_ratio])),
            }
        }
    }
    for (name, values) in &series {
        let (first, last) = (values[0], values[values.len() - 1]);
        assert!(
            last < 3.0 * first.max(1.0),
            "{name}: sampled span grows steeply with n: {values:?}"
        );
    }
}

#[test]
fn conjecture_families_span_stays_small() {
    check_conjecture_families_span_stays_small(&[4], 30);
}

#[cfg_attr(
    debug_assertions,
    ignore = "full-size sampled-span sweep takes minutes in the dev profile; run with --release"
)]
#[test]
fn conjecture_families_span_stays_small_full() {
    check_conjecture_families_span_stays_small(&[4, 6], 60);
}

/// A set with more than 14 boundary terminals is decided by
/// Mehlhorn's tree alone, and such trees set most sampled cells'
/// `span`. This pins the trees `mehlhorn_steiner` builds over a fixed
/// list of sampled `butterfly:5` and `debruijn:7` boundaries: an FNV-1a
/// digest of every tree's node list and edge list, in order.
#[test]
fn mehlhorn_trees_on_wide_boundaries_are_pinned() {
    use fault_expansion::graph::boundary::node_boundary;
    use fault_expansion::graph::generators::{butterfly, de_bruijn};
    use fault_expansion::graph::tree::{mehlhorn_steiner, DREYFUS_WAGNER_MAX_TERMINALS};
    use fault_expansion::span::compact_sets::random_compact_path;

    let mut bytes = Vec::new();
    let mut trees = 0usize;
    for (g, seed) in [(butterfly(5), 5u64), (de_bruijn(7), 7)] {
        let n = g.num_nodes();
        let alive = NodeSet::full(n);
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in 0..40 {
            let drawn = if i % 2 == 0 {
                fault_expansion::span::random_compact_set(&g, n / 4, 50, &mut rng)
            } else {
                random_compact_path(&g, n / 4, 50, &mut rng)
            };
            let Some(u) = drawn else { continue };
            let terminals = node_boundary(&g, &alive, &u).to_vec();
            if terminals.len() <= DREYFUS_WAGNER_MAX_TERMINALS {
                continue;
            }
            let tree = mehlhorn_steiner(&g, &alive, &terminals).expect("connected graph");
            assert!(tree.validate(&g).is_ok() && tree.spans(&terminals));
            bytes.extend((tree.num_nodes() as u32).to_le_bytes());
            for v in tree.nodes.iter() {
                bytes.extend(v.to_le_bytes());
            }
            for e in &tree.edges {
                bytes.extend(e.u.to_le_bytes());
                bytes.extend(e.v.to_le_bytes());
            }
            trees += 1;
        }
    }
    assert_eq!(
        (trees, fx_store::fnv1a(&bytes)),
        (47, 0x611d_cd1f_8412_aa5c),
        "Mehlhorn's trees changed"
    );
}

/// Exact span of tiny meshes is monotone-ish in elongation and always
/// within (1, 2]: a regression anchor for the span pipeline. E16: the
/// 4×4 torus, which Theorem 3.6's proof does not cover, stays ≤ 2.5.
#[test]
fn exact_span_small_meshes_in_range() {
    let torus = exact_span(&generators::torus(&[4, 4]), 10_000_000);
    assert!(
        torus.exhaustive && torus.max_ratio <= 2.5,
        "torus:4,4 span {}",
        torus.max_ratio
    );
    for dims in [[2usize, 4], [3, 3], [2, 6], [4, 4]] {
        let g = fault_expansion::graph::generators::mesh(&dims);
        let est = exact_span(&g, 10_000_000);
        assert!(est.exhaustive, "{dims:?}");
        assert!(
            est.max_ratio > 1.0 && est.max_ratio <= 2.0,
            "mesh{dims:?} span {}",
            est.max_ratio
        );
    }
}

/// E8 — Claim 3.2 on `specs/counting.toml`: every cell counts its
/// connected subgraphs of size r ≤ 6 exhaustively, and every count is
/// within n·δ^{2r}.
#[test]
fn counting_spec_counts_stay_within_claim32_bound() {
    use fault_expansion::campaign::{expand, run_cell};
    let spec = CampaignSpec::load(std::path::Path::new("specs/counting.toml")).unwrap();
    for cell in expand(&spec).unwrap() {
        let r = run_cell(&spec, &cell);
        assert_eq!(r.metric("exhaustive"), Some(1.0), "{}", cell.key());
        assert!(r.metric("count_r6").unwrap() > 0.0, "{}", cell.key());
        assert_eq!(r.metric("within_bound"), Some(1.0), "{}", cell.key());
    }
}

/// The span-based Theorem 3.4 p-bound orders topologies the same way
/// their measured critical probabilities do (rank correlation on two
/// contrasting families).
#[test]
fn span_bound_ranks_match_measured_thresholds() {
    let mc = MonteCarlo {
        trials: 8,
        base_seed: 3,
    };
    // torus (σ = 2) vs subdivided expander with long chains (σ grows
    // with k: boundary 2 nodes, P(U) spans a whole chain); sizes kept
    // dev-profile-friendly — the ranking is robust at this scale
    let torus = Family::Torus { dims: vec![14, 14] }.build(0);
    let (sub, _) = subdivided_expander(40, 4, 10, 9);
    let mut rng = SmallRng::seed_from_u64(41);
    let sigma_torus = sampled_span(&torus.graph, 30, 60, &mut rng).max_ratio;
    let sigma_sub = sampled_span(&sub.graph, 30, 60, &mut rng).max_ratio;
    assert!(
        sigma_sub > sigma_torus,
        "subdivided span lower bound {sigma_sub} should exceed torus' {sigma_torus}"
    );
    let t_torus = estimate_critical(&torus.graph, Mode::Site, &mc, 0.1, 20);
    let t_sub = estimate_critical(&sub.graph, Mode::Site, &mc, 0.1, 20);
    assert!(
        t_sub.p_star > t_torus.p_star,
        "higher span ⇒ higher critical probability: {} vs {}",
        t_sub.p_star,
        t_torus.p_star
    );
}
