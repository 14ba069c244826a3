//! Adversarial attack study: which attack hurts an expander most, and
//! how much does pruning recover?
//!
//! Reproduces the §2 story: connectivity (γ) barely notices the
//! attacks, while the size of the well-expanding core shrinks
//! linearly in the fault budget — the Theorem 2.1 trade-off
//! `n − k·f/α`.
//!
//! ```sh
//! cargo run --release --example adversarial_attack
//! ```

use fault_expansion::prelude::*;

fn main() {
    let net = Family::RandomRegular { n: 400, d: 4 }.build(42);
    println!(
        "target: {} — {} nodes, {} edges\n",
        net.name,
        net.n(),
        net.graph.num_edges()
    );

    let budgets = [5usize, 10, 20, 40, 80];
    println!(
        "{:<8} {:<22} {:>8} {:>10} {:>12} {:>11}",
        "faults", "adversary", "γ", "kept", "α(H) upper", "certified"
    );
    for &budget in &budgets {
        for name in ["sparse-cut", "degree", "random"] {
            let model: Box<dyn FaultModel> = match name {
                "sparse-cut" => Box::new(SparseCutAdversary { budget }),
                "degree" => Box::new(DegreeAdversary { budget }),
                _ => Box::new(ExactRandomFaults { f: budget }),
            };
            let r = analyze_adversarial(&net, model.as_ref(), 2.0, 0xFA017);
            println!(
                "{:<8} {:<22} {:>8.3} {:>10} {:>12} {:>11}",
                r.faults,
                r.adversary,
                r.gamma_after_faults,
                format!("{}/{}", r.kept, r.n),
                r.alpha_after
                    .upper
                    .map_or("-".into(), |u| format!("{u:.3}")),
                if r.certified { "yes" } else { "heuristic" }
            );
        }
    }

    println!(
        "\nReading: γ stays ≈ 1 under every attack (connectivity is a weak\n\
         measure), while the pruned core keeps Θ(α) expansion at the cost\n\
         of O(k·f/α) culled nodes."
    );
}
