//! Cross-crate integration: the application layer the paper's §1.3/§4
//! motivate — routing, load balancing, and CAN overlays — on top of
//! the fault/prune machinery.

use fault_expansion::core::diffusion::{diffuse, point_load};
use fault_expansion::prelude::*;
use fx_graph::routing::{permutation_demands, route_demands};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Routing succeeds on the pruned core even when the faulty graph has
/// stranded fragments that fail demands.
#[test]
fn pruned_core_routes_everything() {
    // lollipop: fault the neck so the tail is stranded
    let g = fx_graph::generators::lollipop(30, 10);
    let n = g.num_nodes();
    let mut alive = NodeSet::full(n);
    alive.remove(30); // first tail node = neck
    let mut rng = SmallRng::seed_from_u64(1);

    // routing on the faulty graph has failures (tail unreachable)
    let demands: Vec<(u32, u32)> = vec![(0, 39), (5, 35), (1, 2)];
    let faulty = route_demands(&g, &alive, &demands, &mut rng);
    assert_eq!(faulty.failed, 2);
    assert_eq!(faulty.routed, 1);

    // prune against the clique-like expansion: the tail is culled,
    // and a permutation on the core routes fully
    let out = prune(&g, &alive, 0.8, 0.5, CutStrategy::SpectralRefined, &mut rng);
    assert!(out.kept.len() >= 28, "core should keep the clique");
    let core_demands = permutation_demands(&out.kept, &mut rng);
    let core = route_demands(&g, &out.kept, &core_demands, &mut rng);
    assert_eq!(core.failed, 0);
    assert_eq!(core.routed, out.kept.len());
}

/// Diffusion on the pruned core converges; on the faulty (stranded)
/// graph it cannot balance globally.
#[test]
fn diffusion_balances_on_pruned_core_only() {
    let g = fx_graph::generators::lollipop(24, 8);
    let n = g.num_nodes();
    let mut alive = NodeSet::full(n);
    alive.remove(24); // strand the tail
    let mut rng = SmallRng::seed_from_u64(2);

    let load = point_load(&g, &alive, 0, alive.len() as f64);
    let stuck = diffuse(&g, &alive, &load, 0.1, 20_000);
    assert!(
        stuck.final_imbalance > 0.5,
        "disconnected graph cannot balance: {}",
        stuck.final_imbalance
    );

    let out = prune(&g, &alive, 0.8, 0.5, CutStrategy::SpectralRefined, &mut rng);
    let core_load = point_load(
        &g,
        &out.kept,
        out.kept.first().unwrap(),
        out.kept.len() as f64,
    );
    let ok = diffuse(&g, &out.kept, &core_load, 0.1, 20_000);
    assert!(
        ok.final_imbalance <= 0.1,
        "core must balance: {}",
        ok.final_imbalance
    );
    // clique-like core: contraction per round well below 1
    assert!(ok.contraction < 0.95, "contraction {}", ok.contraction);
}

/// CAN overlay pipeline: grow, churn, snapshot, analyze — the overlay
/// behaves like the mesh family the paper models it as.
#[test]
fn overlay_pipeline_end_to_end() {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut ov = Overlay::with_peers(2, 128, &mut rng);
    ov.churn(150, 0.5, &mut rng);
    let (g, owners) = ov.graph();
    let n = g.num_nodes();
    assert_eq!(owners.len(), n);
    assert!(fault_expansion::graph::components::is_connected(
        &g,
        &NodeSet::full(n)
    ));

    // expansion interval is positive and sane
    let bounds = node_expansion_bounds(&g, &NodeSet::full(n), Effort::SpectralRefined, &mut rng);
    assert!(bounds.lower > 0.0);
    assert!(bounds.upper < 5.0);

    // prune after a churn burst of failures
    let failed = RandomNodeFaults { p: 0.1 }.sample(&g, &mut rng);
    let alive = apply_faults(&g, &failed);
    let out = prune(
        &g,
        &alive,
        bounds.upper,
        0.5,
        CutStrategy::SpectralRefined,
        &mut rng,
    );
    assert!(
        out.kept.len() * 2 >= n,
        "overlay core should retain most peers: {}",
        out.kept.len()
    );
}

/// The 1-D overlay is exactly a ring, so its analysis matches the
/// cycle family's: a sanity bridge between fx-overlay and fx-graph
/// generators.
#[test]
fn one_dimensional_overlay_matches_cycle_analysis() {
    let mut rng = SmallRng::seed_from_u64(4);
    let ov = Overlay::with_peers(1, 32, &mut rng);
    let (g, _) = ov.graph();
    assert_eq!(g.num_edges(), 32);
    assert_eq!(g.max_degree(), 2);
    let ring_bounds =
        node_expansion_bounds(&g, &NodeSet::full(32), Effort::SpectralRefined, &mut rng);
    let cyc = fx_graph::generators::cycle(32);
    let cyc_bounds =
        node_expansion_bounds(&cyc, &NodeSet::full(32), Effort::SpectralRefined, &mut rng);
    assert!((ring_bounds.upper - cyc_bounds.upper).abs() < 1e-9);
}

/// Routing congestion concentrates where expansion is small: the
/// barbell's bridge carries every cross demand, and the sweep cut
/// finds exactly that bottleneck — tying the routing view to the
/// expansion view of §1.3.
#[test]
fn congestion_and_sparse_cut_agree_on_bottleneck() {
    let g = fx_graph::generators::barbell(16, 1);
    let n = g.num_nodes();
    let alive = NodeSet::full(n);
    let mut rng = SmallRng::seed_from_u64(5);

    let sweep = spectral_sweep(&g, &alive, &mut rng);
    let cut = sweep.best_edge.expect("barbell has a thin cut");
    assert_eq!(cut.edge_cut, 1, "sweep must find the bridge");

    // demands across the two cliques
    let demands: Vec<(u32, u32)> = (0..8u32).map(|i| (i, i + 16)).collect();
    let stats = route_demands(&g, &alive, &demands, &mut rng);
    assert_eq!(
        stats.max_edge_congestion, 8,
        "all cross demands must share the bridge"
    );
}
