//! The per-layer replay must reproduce the untraced cell: otherwise the
//! layer times would measure a different program.
//!
//! * prune2 cells: every metric, bit for bit;
//! * span cells: `n`, `sets_examined` and `exhaustive`, the exact span
//!   of exhaustive cells, and the Dreyfus–Wagner-decided ratios (their
//!   maximum bounds the cell's span from below, and equals it when no
//!   ratio came from Mehlhorn's tree);
//! * overlay cells: the dyncon survival-curve metrics.

use fx_campaign::{expand, run_cell, Algo, CampaignSpec};
use fx_catbench::catalog::{check_metrics, check_span_replay};
use fx_catbench::replay::{is_overlay, replay_overlay, replay_prune2, replay_span};

const SPEC: &str = r#"
name = "replay-fidelity"
seed = 3
replicates = 2

[grid-span]
graphs = ["mesh:3,4", "torus:3,4", "mesh:8,8", "debruijn:6"]
algorithms = ["span"]
samples = 8

[grid-prune2]
graphs = ["torus:8,8", "hypercube:6"]
faults = ["random:0.05", "random:0.2"]
algorithms = ["prune2"]

[grid-overlay]
graphs = ["overlay:2,64,churn=60"]
faults = ["random:0.1"]
algorithms = ["expansion-cert"]

[params]
trials = 2
"#;

#[test]
fn replays_reproduce_their_cells() {
    let spec = CampaignSpec::parse(SPEC).expect("spec parses");
    let cells = expand(&spec).expect("spec expands");
    let (mut span_cells, mut prune2_cells, mut overlay_cells) = (0, 0, 0);
    for cell in &cells {
        let result = run_cell(&spec, cell);
        let errors = match cell.algo {
            Algo::Span => {
                span_cells += 1;
                let stats = replay_span(&spec, cell);
                if result.metric("exhaustive") == Some(1.0) {
                    assert_eq!(
                        Some(stats.max_ratio),
                        result.metric("span"),
                        "{}",
                        cell.key()
                    );
                    assert!(stats.exhaustive(), "{}", cell.key());
                }
                assert!(stats.dw_calls > 0, "{}: no DW call replayed", cell.key());
                check_span_replay(&stats, &result)
            }
            Algo::Prune2 => {
                prune2_cells += 1;
                let replay = replay_prune2(&spec, cell);
                assert_eq!(replay.metrics.len(), 9);
                check_metrics(&replay.metrics, &result)
            }
            _ => {
                assert!(is_overlay(cell));
                overlay_cells += 1;
                let curve = replay_overlay(&spec, cell);
                assert_eq!(curve.len(), 5, "{}: no survival curve replayed", cell.key());
                check_metrics(&curve, &result)
            }
        };
        assert!(errors.is_empty(), "{errors:?}");
    }
    assert_eq!((span_cells, prune2_cells, overlay_cells), (8, 8, 2));
}

#[test]
fn a_perturbed_cell_is_caught() {
    let spec = CampaignSpec::parse(SPEC).expect("spec parses");
    let cells = expand(&spec).expect("spec expands");
    let prune2 = cells
        .iter()
        .find(|c| c.algo == Algo::Prune2)
        .expect("a prune2 cell");
    let mut result = run_cell(&spec, prune2);
    for (name, value) in &mut result.metrics {
        if name == "mean_gamma" {
            *value = f64::from_bits(value.to_bits() ^ 1);
        }
    }
    let replay = replay_prune2(&spec, prune2);
    assert_eq!(check_metrics(&replay.metrics, &result).len(), 1);

    let span = cells
        .iter()
        .find(|c| c.algo == Algo::Span)
        .expect("a span cell");
    let mut result = run_cell(&spec, span);
    for (name, value) in &mut result.metrics {
        if name == "sets_examined" {
            *value += 1.0;
        }
    }
    assert!(!check_span_replay(&replay_span(&spec, span), &result).is_empty());
}
