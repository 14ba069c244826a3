//! Mesh reliability curves: γ(p) and the pruned core across the whole
//! fault-probability axis, for meshes of increasing dimension — the
//! experiment behind the paper's claim that the span (not the
//! expansion) governs random-fault resilience.
//!
//! A 2-D mesh and a subdivided expander can have the *same* expansion
//! scaling, yet the mesh survives constant fault rates (σ = 2,
//! Theorem 3.6) while the subdivided expander disintegrates at
//! p = Θ(α) (Theorem 3.1). This example puts both on one table.
//!
//! ```sh
//! cargo run --release --example mesh_reliability
//! ```

use fault_expansion::prelude::*;

fn main() {
    let mc = MonteCarlo {
        trials: 24,
        base_seed: 2026,
    };
    let keeps: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();

    // 1. γ(keep) for meshes of dimension 2..4 (site percolation).
    println!("γ(survival probability) per topology — site percolation\n");
    print!("{:<28}", "topology \\ keep");
    for q in &keeps {
        print!("{:>7.1}", q);
    }
    println!();
    let meshes = [
        Family::Torus { dims: vec![48, 48] },
        Family::Torus {
            dims: vec![13, 13, 13],
        },
        Family::Torus {
            dims: vec![7, 7, 7, 7],
        },
    ];
    for fam in &meshes {
        let net = fam.build(1);
        let curve = mc.gamma_site_curve(&net.graph, &keeps);
        print!("{:<28}", net.name);
        for s in &curve {
            print!("{:>7.2}", s.mean);
        }
        println!();
    }

    // 2. the Theorem 3.1 contrast: subdivided expanders with matching
    //    expansion disintegrate at far higher keep probabilities.
    for k in [4usize, 8, 16] {
        let (net, _sub) = subdivided_expander(160, 4, k, 5);
        let curve = mc.gamma_site_curve(&net.graph, &keeps);
        print!("{:<28}", net.name);
        for s in &curve {
            print!("{:>7.2}", s.mean);
        }
        println!();
    }

    // 3. critical survival probabilities (estimated).
    println!("\nestimated critical survival probability (γ ≥ 0.1):");
    for fam in &meshes {
        let net = fam.build(1);
        let est = estimate_critical(&net.graph, Mode::Site, &mc, 0.1, 25);
        println!("  {:<28} p* ≈ {:.3}", net.name, est.p_star);
    }
    for k in [4usize, 8, 16] {
        let (net, _sub) = subdivided_expander(160, 4, k, 5);
        let est = estimate_critical(&net.graph, Mode::Site, &mc, 0.1, 25);
        println!(
            "  {:<28} p* ≈ {:.3} (fault tolerance 1 − p* ≈ {:.3} ~ Θ(1/k))",
            net.name,
            est.p_star,
            1.0 - est.p_star
        );
    }

    println!(
        "\nReading: every torus keeps a giant component down to moderate\n\
         keep-probabilities (constant tolerance, as span σ = 2 predicts),\n\
         while the subdivided expanders' tolerance shrinks like 1/k —\n\
         expansion alone cannot tell these behaviours apart (Thm 3.1)."
    );
}
