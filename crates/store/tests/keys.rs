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
//! fault for each row of `Algo::accepts`.

use fx_campaign::{expand, store_identity, store_key, CampaignSpec, Cell, RESULTS_EPOCH};
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
    assert!(store_identity(&a_spec, &a).contains("|eps=auto|"));
    assert!(store_identity(&b_spec, &b).contains("|eps=0.2|"));
}

#[test]
fn each_result_affecting_param_splits_keys() {
    let base = single("torus:5,5", "none", "percolation", "");
    for params in [
        "[params]\nk = 3.0\n",
        "[params]\nsigma = 2.5\n",
        "[params]\ntrials = 7\n",
        "[params]\nsamples = 99\n",
        "[params]\ngamma = 0.25\n",
        "[params]\ngrid = 77\n",
        "[params]\nmode = \"bond\"\n",
    ] {
        let varied = single("torus:5,5", "none", "percolation", params);
        assert_ne!(
            store_key(&base.0, &base.1),
            store_key(&varied.0, &varied.1),
            "param block {params:?} must change the key"
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
    let root = single("cycle:16", "none", "expansion-cert", "");
    let overridden = spec(
        "name = \"keys-grid\"\nreplicates = 1\nseed = 1\n\
         [grid-a]\ngraphs = [\"cycle:16\"]\nfaults = [\"none\"]\n\
         algorithms = [\"expansion-cert\"]\nsamples = 50\n",
    );
    let o_cell = only_cell(&overridden);
    assert_ne!(store_key(&root.0, &root.1), store_key(&overridden, &o_cell));

    // A grid table with NO overrides is pure structure: same key as
    // the root-axes declaration (the dedup direction).
    let plain_grid = spec(
        "name = \"keys-grid-plain\"\nreplicates = 1\nseed = 1\n\
         [grid-a]\ngraphs = [\"cycle:16\"]\nfaults = [\"none\"]\n\
         algorithms = [\"expansion-cert\"]\n",
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
    let identity = store_identity(&s, &cell);
    assert!(
        identity.starts_with(&format!("fx-store/{RESULTS_EPOCH}|")),
        "keying scheme must be versioned: {identity}"
    );
    for field in ["|seed=", "|k=", "|eps=", "|trials=", "|mode=", "|curves="] {
        assert!(identity.contains(field), "{field} missing from {identity}");
    }
}
