//! Quickstart: measure how much expansion a network keeps after
//! faults, the paper's central question.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fault_expansion::prelude::*;

fn main() {
    // 1. Build a network: a 16×16 torus (a 2-D CAN-style overlay).
    let net = Family::Torus { dims: vec![16, 16] }.build(0);
    println!(
        "network: {} ({} nodes, {} edges, δ = {})",
        net.name,
        net.n(),
        net.graph.num_edges(),
        net.max_degree()
    );

    // 2. Certify its fault-free expansion (two-sided interval).
    let mut rng: rand::rngs::SmallRng = rand::SeedableRng::seed_from_u64(1);
    let full = net.full_mask();
    let bounds = node_expansion_bounds(&net.graph, &full, Effort::SpectralRefined, &mut rng);
    println!(
        "fault-free node expansion α ∈ [{:.4}, {:.4}] (witness cut: {} nodes, boundary {})",
        bounds.lower,
        bounds.upper,
        bounds.witness.as_ref().map_or(0, |c| c.size()),
        bounds.witness.as_ref().map_or(0, |c| c.node_boundary),
    );

    // 3. Let an adversary kill 6 nodes, then ask Prune(1 − 1/k) for
    //    the surviving well-expanding core (Theorem 2.1 pipeline).
    //    (Budget chosen so k·f/α ≤ n/4 — the Theorem 2.1 regime.)
    let seed = 0xFA017;
    let report = analyze_adversarial(
        &net,
        &SparseCutAdversary { budget: 6 },
        2.0, // k
        seed,
    );
    println!("\nadversary: {}", report.adversary);
    println!("faults injected: {}", report.faults);
    println!(
        "largest component after faults: {:.1}%",
        100.0 * report.gamma_after_faults
    );
    println!(
        "Prune(ε = {:.2}) kept {} / {} nodes (culled {})",
        report.epsilon, report.kept, report.n, report.culled
    );
    println!(
        "expansion after pruning: [{:.4}, {}]",
        report.alpha_after.lower,
        report
            .alpha_after
            .upper
            .map_or("∞".into(), |u| format!("{u:.4}")),
    );
    match (report.guaranteed_min_kept, report.guaranteed_min_expansion) {
        (Some(size), Some(exp)) => println!(
            "Theorem 2.1 guarantee: ≥ {size:.0} nodes with expansion ≥ {exp:.4} — {}",
            if report.kept as f64 >= size {
                "HOLDS"
            } else {
                "VIOLATED (!)"
            }
        ),
        _ => println!("Theorem 2.1 preconditions not met for this fault budget"),
    }

    // 4. Random faults: how does the same network fare at p = 5%?
    let rnd = analyze_random(&net, 0.05, 0.125, MESH_SPAN, 16, seed);
    println!(
        "\nrandom faults p = {:.2}: mean γ = {:.3}, Prune2 success rate = {:.0}%, mean kept = {:.1}%",
        rnd.p,
        rnd.mean_gamma,
        100.0 * rnd.success_rate,
        100.0 * rnd.mean_kept_fraction
    );
    println!(
        "Theorem 3.4 tolerates p ≤ {:.2e} for δ = {}, σ = 2 (meshes: Theorem 3.6)",
        rnd.theorem34_max_p,
        net.max_degree()
    );
}
