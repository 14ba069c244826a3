//! Peer-to-peer overlay under churn: the paper's motivating
//! application (§1, §4 — CAN behaves like a d-dimensional torus).
//!
//! Simulates a CAN-style overlay at several dimensions, applies
//! peer-departure churn (i.i.d. node faults), and reports how much
//! routing capacity (expansion) the surviving overlay retains —
//! including the span-based prediction of Theorem 3.4 that tolerance
//! is inversely polynomial in the dimension.
//!
//! ```sh
//! cargo run --release --example p2p_overlay
//! ```

use fault_expansion::prelude::*;
use rand::SeedableRng;

fn main() {
    // Part 1: idealized CAN steady states (perfect tori) of ~4k peers
    // at dimensions 2..4 — the model §4 of the paper analyzes.
    let overlays = [
        Family::Torus { dims: vec![64, 64] },
        Family::Torus {
            dims: vec![16, 16, 16],
        },
        Family::Torus {
            dims: vec![8, 8, 8, 8],
        },
    ];
    let churn_levels = [0.01, 0.05, 0.10, 0.20];

    println!("CAN-style overlays under churn (Prune2, ε = 1/(2δ), σ = 2 by Thm 3.6)\n");
    println!(
        "{:<22} {:>6} {:>8} {:>10} {:>12} {:>14} {:>12}",
        "overlay", "δ", "churn", "mean γ", "kept ≥ n/2", "αe(H) (mean)", "thm3.4 p*"
    );
    for fam in &overlays {
        let net = fam.build(7);
        let delta = net.max_degree();
        let epsilon = 1.0 / (2.0 * delta as f64);
        for &p in &churn_levels {
            let r = analyze_random(&net, p, epsilon, MESH_SPAN, 12, 0xFA017);
            println!(
                "{:<22} {:>6} {:>7.0}% {:>10.3} {:>11.0}% {:>14.4} {:>12.2e}",
                net.name,
                delta,
                100.0 * p,
                r.mean_gamma,
                100.0 * r.success_rate,
                r.mean_alpha_e_after,
                r.theorem34_max_p,
            );
        }
        println!();
    }

    println!(
        "Reading: higher-dimensional overlays (larger δ) keep γ ≈ 1 at\n\
         every churn level here, and Prune2 keeps ≥ n/2 nodes with\n\
         nonvanishing edge expansion — while the *worst-case* bound of\n\
         Theorem 3.4 shrinks like 1/δ^(4σ): the theory is conservative,\n\
         the measured tolerance generous, but both rank dimensions the\n\
         same way.\n"
    );

    // Part 2: the *actual* CAN protocol — irregular zones produced by
    // join/leave churn (fx-overlay) — instead of perfect tori.
    println!("realistic CAN overlays (zone splits/merges, 400 churn ops, join bias 0.5)\n");
    println!(
        "{:<10} {:>7} {:>10} {:>12} {:>12} {:>14}",
        "dimension", "peers", "mean deg", "α lower", "α upper", "γ at p=0.10"
    );
    for d in [2usize, 3, 4] {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(40 + d as u64);
        let mut ov = Overlay::with_peers(d, 512, &mut rng);
        ov.churn(400, 0.5, &mut rng);
        let (g, _) = ov.graph();
        let n = g.num_nodes();
        let full = NodeSet::full(n);
        let bounds = node_expansion_bounds(&g, &full, Effort::SpectralRefined, &mut rng);
        // mean γ under 10% random faults
        let mut acc = 0.0;
        let trials = 8;
        for i in 0..trials {
            let mut trng = rand::rngs::SmallRng::seed_from_u64(1000 + i);
            let failed = RandomNodeFaults { p: 0.10 }.sample(&g, &mut trng);
            let alive = apply_faults(&g, &failed);
            acc += fault_expansion::graph::components::gamma(&g, &alive);
        }
        println!(
            "{:<10} {:>7} {:>10.2} {:>12.4} {:>12.4} {:>14.3}",
            d,
            n,
            2.0 * g.num_edges() as f64 / n as f64,
            bounds.lower,
            bounds.upper,
            acc / trials as f64
        );
    }
    println!(
        "\nThe irregular overlays behave like their ideal-torus models:\n\
         expansion grows with dimension and a 10% churn burst leaves a\n\
         giant well-connected component at every dimension."
    );
}
