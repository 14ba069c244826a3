//! Campaign engine integration: determinism, kill-and-resume, and
//! artifact stability.
//!
//! The contract under test: running a campaign, killing it mid-way
//! (simulated by `limit`), and resuming from the JSONL journal must
//! produce **byte-identical** aggregate artifacts to an uninterrupted
//! run — no cell recomputed, no statistic drifting.

use fault_expansion::campaign::{expand, report, run, CampaignSpec, RunOptions};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fx-campaign-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec_with_output(text: &str, output: &Path) -> CampaignSpec {
    let mut spec = CampaignSpec::parse(text).unwrap();
    spec.output = output.to_path_buf();
    spec
}

const GRID: &str = r#"
name = "resume-it"
seed = 77
replicates = 3
graphs = ["torus:6,6", "hypercube:4"]
faults = ["none", "random:0.1", "adversarial:2"]
algorithms = ["prune", "expansion-cert"]
"#;

fn quiet() -> RunOptions {
    RunOptions {
        quiet: true,
        threads: 2,
        ..Default::default()
    }
}

#[test]
fn killed_and_resumed_campaign_matches_uninterrupted_bit_for_bit() {
    // Reference: one uninterrupted run.
    let dir_a = temp_dir("uninterrupted");
    let spec_a = spec_with_output(GRID, &dir_a);
    let full = run(&spec_a, &quiet()).unwrap();
    assert!(full.complete);
    assert_eq!(full.executed, 36, "2 graphs × 3 faults × 2 algos × 3 reps");

    // Interrupted: drop the engine after 7 cells, then resume twice
    // (a second resume must be a no-op).
    let dir_b = temp_dir("resumed");
    let spec_b = spec_with_output(GRID, &dir_b);
    let killed = run(
        &spec_b,
        &RunOptions {
            limit: Some(7),
            ..quiet()
        },
    )
    .unwrap();
    assert_eq!(killed.executed, 7);
    assert!(!killed.complete);

    let resumed = run(&spec_b, &quiet()).unwrap();
    assert_eq!(resumed.skipped, 7, "journaled cells must not recompute");
    assert_eq!(resumed.executed, 36 - 7);
    assert!(resumed.complete);

    let noop = run(&spec_b, &quiet()).unwrap();
    assert_eq!(noop.executed, 0);
    assert_eq!(noop.skipped, 36);

    // Aggregates — and the serialized artifacts — must be
    // bit-identical between the two histories.
    assert_eq!(full.aggregates, resumed.aggregates);
    for name in ["aggregates.csv", "aggregates.json"] {
        let a = std::fs::read(dir_a.join(name)).unwrap();
        let b = std::fs::read(dir_b.join(name)).unwrap();
        assert_eq!(a, b, "{name} differs between histories");
    }

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn thread_count_does_not_change_aggregates() {
    let dir_a = temp_dir("threads1");
    let dir_b = temp_dir("threads4");
    let text = r#"
name = "threads-it"
seed = 3
replicates = 4
graphs = ["torus:8,8"]
faults = ["random:0.08"]
algorithms = ["prune2", "percolation"]
"#;
    let spec_a = spec_with_output(text, &dir_a);
    let spec_b = spec_with_output(text, &dir_b);
    let a = run(
        &spec_a,
        &RunOptions {
            threads: 1,
            quiet: true,
            ..Default::default()
        },
    )
    .unwrap();
    let b = run(
        &spec_b,
        &RunOptions {
            threads: 4,
            quiet: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(
        a.aggregates, b.aggregates,
        "schedule must not leak into stats"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn report_reads_the_journal_without_executing() {
    let dir = temp_dir("report");
    let spec = spec_with_output(
        "name = \"report-it\"\ngraphs = [\"mesh:3,4\"]\nalgorithms = [\"span\"]\nreplicates = 2",
        &dir,
    );
    let ran = run(&spec, &quiet()).unwrap();
    assert!(ran.complete);
    let reported = report(&spec, &quiet()).unwrap();
    assert_eq!(reported.executed, 0);
    assert_eq!(reported.skipped, ran.total_cells);
    assert_eq!(reported.aggregates, ran.aggregates);
    // the span of a mesh is ≤ 2 (Theorem 3.6) — and exact here, so
    // the replicate spread must be zero
    let span = reported
        .aggregates
        .iter()
        .find(|a| a.metric == "span")
        .unwrap();
    assert!(span.stats.mean() <= 2.0 + 1e-9);
    assert_eq!(span.stats.std(), 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance contract for derived graph sources: a campaign over
/// subdivided-expander and overlay-churn scenarios, killed mid-way and
/// resumed, must reproduce the uninterrupted run bit-for-bit.
#[test]
fn derived_scenario_campaign_kill_and_resume_is_deterministic() {
    const DERIVED: &str = r#"
name = "derived-it"
seed = 23
replicates = 2

[grid-subdivided]
graphs = ["subdivided:12,4,2"]
faults = ["chain-centers", "chain-centers:6"]
algorithms = ["shatter", "expansion-cert"]

[grid-overlay]
graphs = ["overlay:2,32,churn=40"]
faults = ["random:0.1"]
algorithms = ["expansion-cert", "percolation"]
"#;
    let dir_a = temp_dir("derived-uninterrupted");
    let spec_a = spec_with_output(DERIVED, &dir_a);
    let full = run(&spec_a, &quiet()).unwrap();
    assert!(full.complete);
    assert_eq!(full.executed, (2 * 2 + 2) * 2, "two grids × 2 replicates");

    let dir_b = temp_dir("derived-resumed");
    let spec_b = spec_with_output(DERIVED, &dir_b);
    let killed = run(
        &spec_b,
        &RunOptions {
            limit: Some(5),
            ..quiet()
        },
    )
    .unwrap();
    assert_eq!(killed.executed, 5);
    assert!(!killed.complete);
    let resumed = run(&spec_b, &quiet()).unwrap();
    assert_eq!(
        resumed.skipped, 5,
        "journaled derived cells must not recompute"
    );
    assert!(resumed.complete);

    assert_eq!(full.aggregates, resumed.aggregates);
    for name in ["aggregates.csv", "aggregates.json"] {
        let a = std::fs::read(dir_a.join(name)).unwrap();
        let b = std::fs::read(dir_b.join(name)).unwrap();
        assert_eq!(a, b, "{name} differs between histories");
    }

    // the derived constructions actually did their jobs
    // the O(δk) bound is the *all-centers* construction (Theorem
    // 2.3); the partial-budget group need not shatter
    let shatter_bound = full
        .aggregates
        .iter()
        .find(|a| a.group.contains("|chain-centers|shatter") && a.metric == "thm23_within_bound")
        .expect("subdivided shatter cells aggregate");
    assert_eq!(shatter_bound.stats.mean(), 1.0, "Theorem 2.3 O(δk) bound");
    let overlay_gamma = full
        .aggregates
        .iter()
        .find(|a| a.group.starts_with("overlay:") && a.metric == "gamma")
        .expect("overlay cells aggregate");
    assert!(
        overlay_gamma.stats.mean() > 0.6,
        "churn-survival γ at p=0.1: {}",
        overlay_gamma.stats.mean()
    );

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn fault_layer_campaign_is_deterministic_across_thread_counts() {
    // The PR-4 fault layer end to end: registry models (targeted /
    // clustered / heavy-tailed), a fault-sweep axis, heavy-tailed
    // overlay churn, and a per-grid override — running at different
    // thread counts must journal per-model metrics bit-identically.
    const FAULT_GRID: &str = r#"
name = "fault-layer-it"
seed = 99
replicates = 2
[grid-models]
graphs = ["random-regular:48,4"]
faults = ["targeted:0.15,by=core", "clustered:3,1", "heavy-tailed:0.15,1.5"]
algorithms = ["shatter", "percolation"]
[grid-sweep]
graphs = ["torus:8,8"]
fault-sweep = ["targeted:0.1..0.3/3"]
algorithms = ["shatter"]
timeout_ms = 60000
[grid-overlay]
graphs = ["overlay:2,32,churn=40,sessions=pareto:1.5,depart=degree"]
faults = ["heavy-tailed:0.1,2.0"]
algorithms = ["expansion-cert"]
[params]
grid = 16
"#;
    let dir_a = temp_dir("fault-layer-1");
    let dir_b = temp_dir("fault-layer-4");
    let a = run(
        &spec_with_output(FAULT_GRID, &dir_a),
        &RunOptions {
            threads: 1,
            quiet: true,
            ..Default::default()
        },
    )
    .unwrap();
    let b = run(
        &spec_with_output(FAULT_GRID, &dir_b),
        &RunOptions {
            threads: 4,
            quiet: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(a.complete && b.complete);
    assert_eq!(a.aggregates, b.aggregates, "thread count must not matter");
    // per-model metrics reached the aggregates
    let has = |group_frag: &str, metric: &str| {
        a.aggregates
            .iter()
            .any(|g| g.group.contains(group_frag) && g.metric == metric)
    };
    assert!(has("targeted:0.15,by=core|percolation", "f_star_targeted"));
    assert!(has("targeted:0.15,by=core|percolation", "dilution_auc"));
    assert!(has("clustered:3,1|percolation", "gamma"));
    assert!(has("heavy-tailed:0.15,1.5|shatter", "shatter_fraction"));
    assert!(has("targeted:0.2|shatter", "gamma"), "sweep midpoint cell");
    assert!(has("sessions=pareto:1.5", "mean_session"));
    for d in [dir_a, dir_b] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// Every `specs/*.toml` parses and expands, read from the directory:
/// a spec that still sets a key the grammar no longer has fails here.
#[test]
fn bundled_specs_parse_and_expand() {
    // grids per bundled spec, by file stem; the directory must list
    // exactly these, so a new spec cannot skip the grid count
    const EXPECTED_GRIDS: &[(&str, usize)] = &[
        ("adversarial", 3),
        ("chaos_demo", 1),
        ("churn_curves", 2),
        ("counting", 1),
        ("critical_bond", 1),
        ("critical_site", 1),
        ("emulation", 3),
        ("overlay_churn", 2),
        ("overlay_scale", 3),
        ("quick", 1),
        ("quick_derived", 2),
        ("random_faults", 1),
        ("span", 1),
        ("structure", 2),
        ("targeted_faults", 4),
        ("timeout_demo", 2),
    ];
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir("specs")
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    let stems: Vec<String> = paths
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    let listed: Vec<&str> = EXPECTED_GRIDS.iter().map(|&(s, _)| s).collect();
    assert_eq!(stems, listed, "specs/*.toml vs the expected grid counts");
    for (path, &(_, expected_grids)) in paths.iter().zip(EXPECTED_GRIDS) {
        let spec = CampaignSpec::load(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let path = path.display();
        assert_eq!(spec.grids.len(), expected_grids, "{path}");
        let cells = expand(&spec).unwrap();
        assert!(!cells.is_empty(), "{path}");
        // identity-derived seeds: stable across expansions
        let again = expand(&spec).unwrap();
        assert_eq!(cells, again);
    }
}

/// E1–E16 coverage audit: the bundled specs collectively cover every
/// experiment of the paper reproduction — E1–E3 and E10–E15 as ported
/// from the former ad-hoc binaries, E5/E6/E9/E16 in `random_faults` and
/// `span`, and E4/E7/E8 in the `critical_*` and `counting` specs.
#[test]
fn bundled_specs_cover_all_ported_experiments() {
    use fault_expansion::campaign::{Algo, FaultSpec};
    // (scenario, fault, algorithm, site mode) per cell
    let mut covered: Vec<(String, FaultSpec, Algo, bool)> = Vec::new();
    for path in [
        "specs/adversarial.toml",
        "specs/structure.toml",
        "specs/emulation.toml",
        "specs/overlay_churn.toml",
        "specs/random_faults.toml",
        "specs/span.toml",
        "specs/critical_site.toml",
        "specs/critical_bond.toml",
        "specs/counting.toml",
    ] {
        let spec = CampaignSpec::load(std::path::Path::new(path)).unwrap();
        for cell in expand(&spec).unwrap() {
            covered.push((cell.graph, cell.fault, cell.algo, spec.params.site_mode));
        }
    }
    let has_algo = |a: Algo| covered.iter().any(|(_, _, algo, _)| *algo == a);
    // E1 prune · E2 shatter-on-subdivided · E3 dissect · E5 prune2 ·
    // E6/E9/E16 span · E8 subgraph-count · E10 diameter ·
    // E11 compact-audit · E12 routing · E13 load-balance ·
    // E14 overlay expansion/percolation · E15 embed
    for algo in [
        Algo::Prune,
        Algo::Prune2,
        Algo::Span,
        Algo::SubgraphCount,
        Algo::Shatter,
        Algo::Dissect,
        Algo::Diameter,
        Algo::CompactAudit,
        Algo::Routing,
        Algo::LoadBalance,
        Algo::Embed,
        Algo::ExpansionCert,
        Algo::Percolation,
    ] {
        assert!(has_algo(algo), "no bundled spec runs {algo}");
    }
    assert!(
        covered
            .iter()
            .any(|(g, f, a, _)| g.starts_with("subdivided:")
                && *f == FaultSpec::None
                && *a == Algo::Percolation),
        "E4 needs fault-free percolation (p*) on subdivided scenarios"
    );
    assert!(
        covered
            .iter()
            .any(|(_, f, a, site)| *f == FaultSpec::None && *a == Algo::Percolation && !site),
        "E7 needs a mode = \"bond\" spec estimating p*"
    );
    assert!(
        covered
            .iter()
            .any(|(g, _, a, _)| g.starts_with("subdivided:") && *a == Algo::Shatter),
        "E2 needs shatter on a subdivided scenario"
    );
    assert!(
        covered.iter().any(|(g, _, _, _)| g.starts_with("overlay:")),
        "E14 needs overlay scenarios"
    );
}
