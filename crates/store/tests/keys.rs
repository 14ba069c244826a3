//! Key canonicalization and collision tests for the content address
//! ([`fx_campaign::store_identity`] / [`store_key`]).
//!
//! Two directions, both load-bearing:
//!
//! * **No false sharing** — cells that can produce different bits
//!   (different epsilon, any effective parameter, a grid override, a
//!   different fault-sweep expansion point, another replicate) must
//!   have distinct keys.
//! * **No false splitting** — the *same* cell declared through two
//!   different spec files (different campaign name, different grid
//!   structure, different operational knobs like `retries` /
//!   `timeout_ms`, extra unrelated cells) must map to one key, or the
//!   store never dedups anything.
//!
//! The matrix sweep at the bottom runs the no-false-splitting check
//! exhaustively over every algorithm × a representative compatible
//! fault for each row of `Algo::accepts`, and checks that each cell's
//! key folds exactly the `[params]` keys its algorithm reads.

use fx_campaign::{expand, run_cell, store_identity, store_key, CampaignSpec, Cell, RESULTS_EPOCH};
use std::collections::HashMap;

fn spec(text: &str) -> CampaignSpec {
    CampaignSpec::parse(text).unwrap_or_else(|e| panic!("spec parse: {e}\n{text}"))
}

/// The unique cell of a single-cell spec.
fn only_cell(s: &CampaignSpec) -> Cell {
    let cells = expand(s).unwrap();
    assert_eq!(cells.len(), 1, "expected a single-cell spec");
    cells.into_iter().next().unwrap()
}

fn single(graph: &str, fault: &str, algo: &str, extra: &str) -> (CampaignSpec, Cell) {
    let s = spec(&format!(
        "name = \"keys\"\nreplicates = 1\nseed = 1\n\
         graphs = [\"{graph}\"]\nfaults = [\"{fault}\"]\nalgorithms = [\"{algo}\"]\n{extra}"
    ));
    let cell = only_cell(&s);
    (s, cell)
}

// ---------------------------------------------------------------------------
// No false sharing: result-affecting differences split keys
// ---------------------------------------------------------------------------

#[test]
fn epsilon_difference_splits_keys() {
    let (a_spec, a) = single("cycle:16", "random:0.1", "prune2", "");
    let (b_spec, b) = single(
        "cycle:16",
        "random:0.1",
        "prune2",
        "[params]\nepsilon = 0.2\n",
    );
    // Same identity axis, different effective epsilon.
    assert_eq!(a.key(), b.key());
    assert_ne!(store_key(&a_spec, &a), store_key(&b_spec, &b));
    // ... and the default spells as `auto`, not as some number.
    assert!(store_identity(&a_spec, &a).contains("|epsilon=auto|"));
    assert!(store_identity(&b_spec, &b).contains("|epsilon=0.2|"));
}

#[test]
fn each_result_affecting_param_splits_keys() {
    // each param on a cell whose algorithm reads it
    for (graph, fault, algo, params) in [
        ("torus:5,5", "none", "prune", "[params]\nk = 3.0\n"),
        (
            "torus:5,5",
            "random:0.1",
            "prune2",
            "[params]\nsigma = 2.5\n",
        ),
        ("torus:5,5", "none", "percolation", "[params]\ntrials = 7\n"),
        ("cycle:12", "none", "span", "[params]\nsamples = 99\n"),
        (
            "torus:5,5",
            "none",
            "percolation",
            "[params]\ngamma = 0.25\n",
        ),
        ("torus:5,5", "none", "percolation", "[params]\ngrid = 77\n"),
        (
            "torus:5,5",
            "none",
            "percolation",
            "[params]\nmode = \"bond\"\n",
        ),
    ] {
        let base = single(graph, fault, algo, "");
        let varied = single(graph, fault, algo, params);
        assert_ne!(
            store_key(&base.0, &base.1),
            store_key(&varied.0, &varied.1),
            "param block {params:?} must change the {algo} key"
        );
    }
    // churn_curves is part of the identity of overlay churn cells.
    let dyncon = single("overlay:2,64,churn=50", "none", "expansion-cert", "");
    let oracle = single(
        "overlay:2,64,churn=50",
        "none",
        "expansion-cert",
        "[params]\nchurn_curves = \"oracle\"\n",
    );
    assert_ne!(
        store_key(&dyncon.0, &dyncon.1),
        store_key(&oracle.0, &oracle.1)
    );
}

#[test]
fn grid_override_splits_keys_only_when_effective_params_change() {
    // The same spelled cell in a grid whose override changes samples:
    // different effective params → different key.
    let root = single("cycle:16", "none", "span", "");
    let overridden = spec(
        "name = \"keys-grid\"\nreplicates = 1\nseed = 1\n\
         [grid-a]\ngraphs = [\"cycle:16\"]\nfaults = [\"none\"]\n\
         algorithms = [\"span\"]\nsamples = 50\n",
    );
    let o_cell = only_cell(&overridden);
    assert_ne!(store_key(&root.0, &root.1), store_key(&overridden, &o_cell));

    // A grid table with NO overrides is pure structure: same key as
    // the root-axes declaration (the dedup direction).
    let plain_grid = spec(
        "name = \"keys-grid-plain\"\nreplicates = 1\nseed = 1\n\
         [grid-a]\ngraphs = [\"cycle:16\"]\nfaults = [\"none\"]\n\
         algorithms = [\"span\"]\n",
    );
    let p_cell = only_cell(&plain_grid);
    assert_eq!(store_key(&root.0, &root.1), store_key(&plain_grid, &p_cell));
}

#[test]
fn fault_sweep_expansion_points_have_distinct_keys() {
    let s = spec(
        "name = \"keys-sweep\"\nreplicates = 1\nseed = 1\n\
         graphs = [\"torus:5,5\"]\nalgorithms = [\"percolation\"]\n\
         fault-sweep = [\"targeted:0.05..0.25/5\"]\n",
    );
    let cells = expand(&s).unwrap();
    assert_eq!(cells.len(), 5, "5 sweep points");
    let mut seen = HashMap::new();
    for cell in &cells {
        let key = store_key(&s, cell);
        if let Some(previous) = seen.insert(key, cell.key()) {
            panic!(
                "sweep points collide: {} and {} share key {key:016x}",
                previous,
                cell.key()
            );
        }
    }
}

#[test]
fn replicates_and_campaign_seeds_split_keys() {
    let s = spec(
        "name = \"keys-reps\"\nreplicates = 3\nseed = 1\n\
         graphs = [\"cycle:16\"]\nfaults = [\"none\"]\nalgorithms = [\"expansion-cert\"]\n",
    );
    let cells = expand(&s).unwrap();
    let keys: Vec<u64> = cells.iter().map(|c| store_key(&s, c)).collect();
    assert_eq!(keys.len(), 3);
    assert!(keys.windows(2).all(|w| w[0] != w[1]));

    // A different master seed re-seeds every cell → disjoint keys.
    let reseeded = spec(
        "name = \"keys-reps\"\nreplicates = 3\nseed = 2\n\
         graphs = [\"cycle:16\"]\nfaults = [\"none\"]\nalgorithms = [\"expansion-cert\"]\n",
    );
    for (cell, key) in expand(&reseeded).unwrap().iter().zip(&keys) {
        assert_ne!(store_key(&reseeded, cell), *key);
    }
}

// ---------------------------------------------------------------------------
// No false splitting: the same cell through two spec files → one key,
// exhaustively over the accepts matrix
// ---------------------------------------------------------------------------

/// One representative compatible fault per `Algo::accepts` row (and a
/// scenario the row is valid on).
const ACCEPTS_MATRIX: &[(&str, &str, &str)] = &[
    ("prune", "none", "torus:5,5"),
    ("prune", "adversarial:2", "torus:5,5"),
    ("prune", "chain-centers", "subdivided:12,3,3"),
    ("prune2", "random:0.1", "torus:5,5"),
    ("percolation", "none", "torus:5,5"),
    ("percolation", "random:0.1", "torus:5,5"),
    ("percolation", "targeted:0.2", "torus:5,5"),
    ("span", "none", "cycle:12"),
    ("expansion-cert", "none", "torus:5,5"),
    ("expansion-cert", "random-exact:2", "torus:5,5"),
    ("shatter", "adversarial:2", "torus:5,5"),
    ("dissect", "none", "torus:5,5"),
    ("diameter", "none", "torus:5,5"),
    ("diameter", "random:0.1", "torus:5,5"),
    ("compact-audit", "none", "torus:5,5"),
    ("routing", "none", "torus:5,5"),
    ("routing", "adversarial:2", "torus:5,5"),
    ("load-balance", "random:0.1", "torus:5,5"),
    ("embed", "random:0.1", "torus:5,5"),
    ("subgraph-count", "none", "cycle:12"),
];

#[test]
fn same_cell_through_two_spec_files_is_one_key_across_the_accepts_matrix() {
    for &(algo, fault, graph) in ACCEPTS_MATRIX {
        // Spec file A: bare root axes.
        let a = spec(&format!(
            "name = \"matrix-a\"\nreplicates = 1\nseed = 9\n\
             graphs = [\"{graph}\"]\nfaults = [\"{fault}\"]\nalgorithms = [\"{algo}\"]\n"
        ));
        // Spec file B: different campaign name, the cell declared
        // through a grid table, different *operational* knobs
        // (retries / timeout_ms / store), and an extra
        // unrelated grid — none of which may move the key.
        let b = spec(&format!(
            "name = \"matrix-b-{algo}\"\nreplicates = 1\nseed = 9\n\
             [params]\nretries = 5\ntimeout_ms = 60000\n\
             store = \"/tmp/fx-keys-unused\"\n\
             [grid-main]\ngraphs = [\"{graph}\"]\nfaults = [\"{fault}\"]\n\
             algorithms = [\"{algo}\"]\n\
             [grid-extra]\ngraphs = [\"complete:8\"]\nfaults = [\"none\"]\n\
             algorithms = [\"dissect\"]\n"
        ));
        let a_cell = only_cell(&a);
        let b_cell = expand(&b)
            .unwrap()
            .into_iter()
            .find(|c| c.key() == a_cell.key())
            .unwrap_or_else(|| panic!("{algo}/{fault}: cell missing from spec B"));
        assert_eq!(
            store_key(&a, &a_cell),
            store_key(&b, &b_cell),
            "{algo} + {fault} on {graph}: one cell, two spec files, two keys\n A: {}\n B: {}",
            store_identity(&a, &a_cell),
            store_identity(&b, &b_cell)
        );
    }
}

#[test]
fn distinct_matrix_rows_never_collide_with_each_other() {
    let mut seen: HashMap<u64, String> = HashMap::new();
    for &(algo, fault, graph) in ACCEPTS_MATRIX {
        let s = spec(&format!(
            "name = \"matrix\"\nreplicates = 1\nseed = 9\n\
             graphs = [\"{graph}\"]\nfaults = [\"{fault}\"]\nalgorithms = [\"{algo}\"]\n"
        ));
        let cell = only_cell(&s);
        let key = store_key(&s, &cell);
        if let Some(previous) = seen.insert(key, cell.key()) {
            panic!("{} and {} collide on {key:016x}", previous, cell.key());
        }
    }
}

/// A declared re-baseline moves a line of `specs/golden.sha256` and
/// must bump [`RESULTS_EPOCH`] with it, so journals and stores made by
/// the older code stop matching. This pins the pair: when it fails,
/// bump the epoch and re-pin both values.
#[test]
fn results_epoch_is_pinned_to_the_golden_digests() {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/golden.sha256");
    let digests = std::fs::read(&golden).unwrap();
    assert_eq!(
        (RESULTS_EPOCH, fx_store::fnv1a(&digests)),
        (1, 0xd25e_aa8b_0dfe_0c91),
        "specs/golden.sha256 changed: a re-baseline bumps fx_campaign::RESULTS_EPOCH; \
         bump it and re-pin this pair"
    );
}

#[test]
fn identity_is_versioned_and_readable() {
    let (s, cell) = single("torus:5,5", "none", "expansion-cert", "");
    assert_eq!(
        store_identity(&s, &cell),
        format!(
            "fx-store/{RESULTS_EPOCH}|torus:5,5|none|expansion-cert|r0|seed={:016x}",
            cell.seed
        ),
        "an algorithm that reads no param keys on the cell alone"
    );
    let (s, cell) = single("torus:5,5", "none", "percolation", "");
    assert!(
        store_identity(&s, &cell).ends_with("|trials=1|gamma=0.1|grid=50|mode=site"),
        "{}",
        store_identity(&s, &cell)
    );
}

/// The `[params]` keys each algorithm reads.
fn declared_reads(algo: &str) -> &'static [&'static str] {
    match algo {
        "prune" | "diameter" | "routing" | "load-balance" | "embed" => &["k"],
        "prune2" => &["epsilon", "sigma", "trials"],
        "percolation" => &["trials", "gamma", "grid", "mode"],
        "span" | "compact-audit" => &["samples"],
        "dissect" => &["epsilon"],
        "expansion-cert" | "shatter" | "subgraph-count" => &[],
        other => panic!("no declared reads for {other}"),
    }
}

/// Each result-affecting param, set to a value other than its default.
const CHANGED: &[(&str, &str)] = &[
    ("k", "3.0"),
    ("epsilon", "0.2"),
    ("sigma", "2.5"),
    ("trials", "7"),
    ("samples", "9"),
    ("gamma", "0.25"),
    ("grid", "7"),
    ("mode", "\"bond\""),
    ("churn_curves", "\"oracle\""),
];

/// A cell's store key folds exactly the params its algorithm reads
/// (plus `churn_curves` on a churned overlay): changing one of them
/// re-keys the cell, and changing the others leaves the key and every
/// metric bit of `run_cell` unchanged, so the store may serve it.
#[test]
fn store_keys_fold_exactly_the_params_each_algorithm_reads() {
    let bits = |(s, c): &(CampaignSpec, Cell)| -> Vec<(String, u64)> {
        let metrics = run_cell(s, c).metrics;
        metrics.into_iter().map(|(m, x)| (m, x.to_bits())).collect()
    };
    let churned = ("expansion-cert", "none", "overlay:2,24,churn=20");
    for &(algo, fault, graph) in ACCEPTS_MATRIX.iter().chain([&churned]) {
        let mut reads = declared_reads(algo).to_vec();
        if graph.contains("churn=") {
            reads.push("churn_curves");
        }
        let base = single(graph, fault, algo, "");
        let base_key = store_key(&base.0, &base.1);
        let mut ignored = String::from("[params]\n");
        for &(param, value) in CHANGED {
            let (s, cell) = single(
                graph,
                fault,
                algo,
                &format!("[params]\n{param} = {value}\n"),
            );
            if reads.contains(&param) {
                assert_ne!(
                    store_key(&s, &cell),
                    base_key,
                    "{algo} × {fault} on {graph} reads {param}"
                );
            } else {
                assert_eq!(
                    store_key(&s, &cell),
                    base_key,
                    "{algo} × {fault} on {graph} ignores {param}"
                );
                ignored.push_str(&format!("{param} = {value}\n"));
            }
        }
        // one run with every ignored param changed at once (a cell runs
        // for up to a second in a debug build)
        let changed = single(graph, fault, algo, &ignored);
        assert_eq!(store_key(&changed.0, &changed.1), base_key);
        assert_eq!(
            bits(&changed),
            bits(&base),
            "{algo} × {fault} on {graph}: an ignored param moved a metric ({ignored:?})"
        );
    }
}
