//! Cross-crate integration: the §3 random-fault pipeline (percolation
//! + Prune2 + span predictions).

use fault_expansion::campaign::{expand, run_cell, Algo, Cell, CellResult, FaultSpec};
use fault_expansion::prelude::*;
use fault_expansion::prune::theorem34_max_p;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs the cells of a bundled spec whose scenario `keep` accepts.
fn run_spec_cells(path: &str, keep: impl Fn(&Cell) -> bool) -> Vec<(Cell, CellResult)> {
    let spec = CampaignSpec::load(std::path::Path::new(path)).unwrap();
    let cells: Vec<(Cell, CellResult)> = expand(&spec)
        .unwrap()
        .into_iter()
        .filter(|cell| keep(cell))
        .map(|cell| {
            let result = run_cell(&spec, &cell);
            (cell, result)
        })
        .collect();
    assert!(!cells.is_empty(), "{path}: no cell selected");
    cells
}

fn metric(cells: &[(Cell, CellResult)], graph: &str, replicate: usize, name: &str) -> f64 {
    cells
        .iter()
        .find(|(c, _)| c.graph == graph && c.replicate == replicate)
        .and_then(|(_, r)| r.metric(name))
        .unwrap_or_else(|| panic!("{graph} r{replicate}: no {name}"))
}

/// The central §3 contrast (Theorem 3.1 vs Theorem 3.4/3.6): a torus
/// and a subdivided expander with comparable expansion behave
/// completely differently under the same random fault rate.
#[test]
fn expansion_does_not_predict_random_fault_resilience() {
    let mc = MonteCarlo {
        trials: 10,
        base_seed: 31,
    };
    // torus: ~1.6k nodes, α ~ 1/40; subdivided: k=16 chains on a
    // 4-regular expander → α ~ 1/16 (comparable order).
    let torus = Family::Torus { dims: vec![40, 40] }.build(0);
    let (sub_net, _) = subdivided_expander(100, 4, 16, 7);

    let keep = 0.85; // fault probability 0.15
    let torus_gamma = mc.gamma_site_curve(&torus.graph, &[keep])[0].mean;
    let sub_gamma = mc.gamma_site_curve(&sub_net.graph, &[keep])[0].mean;
    assert!(
        torus_gamma > 0.7,
        "torus should keep a giant component at p=0.15: γ = {torus_gamma}"
    );
    assert!(
        sub_gamma < torus_gamma - 0.2,
        "subdivided expander should disintegrate much earlier: γ_sub = {sub_gamma}, γ_torus = {torus_gamma}"
    );
}

/// Theorem 3.1 quantitatively: the disintegration point of the
/// subdivided family scales like Θ(1/k).
#[test]
fn subdivided_tolerance_scales_inversely_with_k() {
    let mc = MonteCarlo {
        trials: 12,
        base_seed: 17,
    };
    let mut tolerance = Vec::new();
    for k in [2usize, 8] {
        let (net, _) = subdivided_expander(80, 4, k, 3);
        let est = estimate_critical(&net.graph, Mode::Site, &mc, 0.1, 30);
        tolerance.push(1.0 - est.p_star); // fault tolerance
    }
    assert!(
        tolerance[0] > 1.8 * tolerance[1],
        "k=2 tolerance {} should far exceed k=8 tolerance {}",
        tolerance[0],
        tolerance[1]
    );
}

/// Prune2 under light random faults on a torus: keeps ≥ n/2 with
/// positive expansion in (almost) every trial — the Theorem 3.4
/// success event at fault rates far above the worst-case bound.
#[test]
fn prune2_succeeds_on_torus_at_light_p() {
    let net = Family::Torus { dims: vec![12, 12] }.build(0);
    let r = analyze_random(&net, 0.02, 0.125, MESH_SPAN, 10, 23);
    assert!(r.success_rate >= 0.9, "success rate {}", r.success_rate);
    assert!(r.mean_kept_fraction > 0.8);
    assert!(r.mean_alpha_e_after > 0.0);
    // the worst-case theorem bound is far smaller than 0.02 — report
    // must mark it inapplicable rather than silently extrapolate
    assert!(!r.theorem34_applicable);
    assert!(r.theorem34_max_p < 0.02);
}

/// §1.1 survey sanity: K_n's bond-percolation threshold is near
/// 1/(n−1) while the 2-D torus' is near 1/2 — two points from the
/// paper's table reproduced in one test.
#[test]
fn survey_thresholds_two_points() {
    let mc = MonteCarlo {
        trials: 12,
        base_seed: 19,
    };
    let kn = Family::Complete { n: 100 }.build(0);
    let kn_est = estimate_critical(&kn.graph, Mode::Bond, &mc, 0.1, 100);
    assert!(
        kn_est.p_star < 0.06,
        "K_100 threshold ≈ 1/99, got {}",
        kn_est.p_star
    );

    let torus = Family::Torus { dims: vec![24, 24] }.build(0);
    let torus_est = estimate_critical(&torus.graph, Mode::Bond, &mc, 0.1, 20);
    assert!(
        (torus_est.p_star - 0.5).abs() < 0.15,
        "2-D bond threshold ≈ 1/2 (Kesten), got {}",
        torus_est.p_star
    );
}

/// Edge faults: the hypercube keeps a giant component at constant
/// edge-survival rates (Hastad–Leighton–Newman regime).
#[test]
fn hypercube_edge_faults_giant_component() {
    let g = fault_expansion::graph::generators::hypercube(9);
    let mut rng = SmallRng::seed_from_u64(4);
    let kept = fault_expansion::faults::random_edge_faults(&g, 0.7, &mut rng);
    let gamma = fault_expansion::percolation::gamma_bond(&kept);
    assert!(gamma > 0.8, "Q_9 at keep 0.7: γ = {gamma}");
}

/// E4 — Theorem 3.1 on `specs/critical_site.toml`: in every replicate
/// the subdivided expander's fault tolerance 1 − p* times k stays
/// within a factor 3 over k = 4, 8, 16 (tolerance Θ(1/k)), while the
/// torus, whose expansion is worse, tolerates a constant rate.
#[test]
fn critical_site_spec_tolerance_scales_as_one_over_k() {
    let cells = run_spec_cells("specs/critical_site.toml", |c| {
        c.graph.starts_with("subdivided:") || c.graph.starts_with("torus:")
    });
    let replicates = cells.iter().map(|(c, _)| c.replicate + 1).max().unwrap();
    for replicate in 0..replicates {
        let scaled: Vec<f64> = [4usize, 8, 16]
            .iter()
            .map(|&k| {
                let graph = format!("subdivided:150,4,{k}");
                k as f64 * metric(&cells, &graph, replicate, "tolerance")
            })
            .collect();
        let lo = scaled.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = scaled.iter().copied().fold(0.0, f64::max);
        assert!(
            hi / lo.max(1e-9) < 3.0,
            "r{replicate}: k·tolerance not ~constant: {scaled:?}"
        );
        let torus = metric(&cells, "torus:48,48", replicate, "tolerance");
        assert!(torus > 0.25, "r{replicate}: torus tolerance {torus}");
    }
}

/// E5 — Theorem 3.4 on `specs/random_faults.toml`: at every fault
/// rate within the theorem's bound, `Prune2` succeeds (|H| ≥ n/2 with
/// positive expansion) in at least 99% of the replicates.
#[test]
fn random_faults_spec_prune2_succeeds_within_theorem34_bound() {
    let spec = CampaignSpec::load(std::path::Path::new("specs/random_faults.toml")).unwrap();
    let within_bound = |cell: &Cell| {
        let (Algo::Prune2, FaultSpec::Random { p }) = (cell.algo, &cell.fault) else {
            return false;
        };
        let delta = Scenario::from_spec(&cell.graph)
            .unwrap()
            .build(0)
            .net
            .max_degree();
        *p <= theorem34_max_p(delta, spec.params.sigma)
    };
    let cells = run_spec_cells("specs/random_faults.toml", within_bound);
    let mut graphs: Vec<&str> = cells.iter().map(|(c, _)| c.graph.as_str()).collect();
    graphs.dedup();
    for graph in graphs {
        let runs: Vec<f64> = cells
            .iter()
            .filter(|(c, _)| c.graph == graph)
            .map(|(_, r)| r.metric("success").unwrap())
            .collect();
        let rate = runs.iter().sum::<f64>() / runs.len() as f64;
        assert!(
            rate >= 0.99,
            "{graph}: success rate {rate} at p ≤ Thm 3.4 bound"
        );
    }
}

/// E7 — the §1.1 survey on `specs/critical_bond.toml` and
/// `specs/critical_site.toml`: every replicate's p* is within a factor
/// 2.5 or ±0.15 of the published critical probability.
#[test]
fn critical_specs_match_published_thresholds() {
    for (path, graph, published) in [
        ("specs/critical_bond.toml", "complete:200", 1.0 / 199.0),
        ("specs/critical_bond.toml", "random-regular:1000,4", 0.25),
        ("specs/critical_bond.toml", "torus:48,48", 0.5),
        ("specs/critical_bond.toml", "hypercube:10", 0.1),
        // Karlin–Nelson–Tamaki: in (0.337, 0.436); the midpoint
        ("specs/critical_site.toml", "butterfly:8", 0.3865),
    ] {
        for (cell, result) in run_spec_cells(path, |c| c.graph == graph) {
            let p_star = result.metric("p_star").unwrap();
            let ratio_ok = p_star / published < 2.5 && published / p_star.max(1e-9) < 2.5;
            assert!(
                (p_star - published).abs() < 0.15 || ratio_ok,
                "{path} {}: p* {p_star} too far from published {published}",
                cell.key()
            );
        }
    }
}
