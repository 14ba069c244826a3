//! The campaign workloads: `span_sampled` and `catalog_fast`.
//!
//! Both run committed specs from `specs/` with their `seed` replaced by
//! the workload seed, through `fx_campaign::run` at two threads with
//! the store off. One repetition is one pass over the workload's specs;
//! each repetition starts from an empty output directory, so every cell
//! executes.

use crate::replay::{self, SpanStats};
use crate::stats::{median, quantile};
use crate::trace::{self, timed};
use crate::Metrics;
use fx_campaign::{expand, journal_for, Algo, CampaignSpec, Cell, CellResult, RunOptions};
use fx_json::Json;
use fx_store::fnv1a;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Campaign worker threads (the benchmark host has two cores).
pub const THREADS: usize = 2;

/// `catalog_fast`: every paper spec except `span.toml`, in run order.
pub const CATALOG_FAST: [&str; 8] = [
    "random_faults",
    "adversarial",
    "emulation",
    "structure",
    "overlay_churn",
    "overlay_scale",
    "targeted_faults",
    "churn_curves",
];

/// `span_sampled`'s graphs, a subset of `span.toml`'s: one exhaustive
/// cell and four sampled families.
pub const SPAN_GRAPHS: [&str; 5] = [
    "torus:4,4",
    "mesh:12,12",
    "butterfly:5",
    "shuffle-exchange:7",
    "debruijn:7",
];

/// `span_sampled` replicates. Each replicate repeats the exhaustive
/// `torus:4,4` enumeration — identical, seed-independent work — and
/// draws fresh sampled sets for the other graphs.
pub const SPAN_REPLICATES: usize = 1;

/// Sampled compact sets per sampled `span_sampled` cell.
pub const SPAN_SAMPLES: usize = 8;

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The generated span spec.
    SpanSampled,
    /// The eight fast paper specs.
    CatalogFast,
}

impl Kind {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SpanSampled => "span_sampled",
            Kind::CatalogFast => "catalog_fast",
        }
    }
}

/// Reads `specs/<name>.toml` under `root` and replaces its seed.
pub fn load_spec(root: &Path, name: &str, seed: u64) -> Result<CampaignSpec, String> {
    let mut spec = CampaignSpec::load(&root.join("specs").join(format!("{name}.toml")))?;
    spec.seed = seed;
    Ok(spec)
}

/// The `span_sampled` spec: `span.toml` cut down to [`SPAN_GRAPHS`],
/// [`SPAN_REPLICATES`] and [`SPAN_SAMPLES`], seed replaced.
pub fn span_spec(root: &Path, seed: u64) -> Result<CampaignSpec, String> {
    let mut spec = load_spec(root, "span", seed)?;
    spec.name = "span-sampled".to_string();
    spec.replicates = SPAN_REPLICATES;
    spec.params.samples = SPAN_SAMPLES;
    for grid in &mut spec.grids {
        grid.graphs.retain(|g| SPAN_GRAPHS.contains(&g.as_str()));
    }
    spec.grids.retain(|grid| !grid.graphs.is_empty());
    let kept: usize = spec.grids.iter().map(|grid| grid.graphs.len()).sum();
    if kept != SPAN_GRAPHS.len() {
        return Err(format!(
            "specs/span.toml no longer lists every span_sampled graph ({SPAN_GRAPHS:?})"
        ));
    }
    Ok(spec)
}

/// The workload's specs, each with its expanded cells: the set-up step
/// `setup_s` times.
pub fn setup(root: &Path, kind: Kind, seed: u64) -> Result<Vec<(CampaignSpec, Vec<Cell>)>, String> {
    let specs = match kind {
        Kind::SpanSampled => vec![span_spec(root, seed)?],
        Kind::CatalogFast => CATALOG_FAST
            .iter()
            .map(|name| load_spec(root, name, seed))
            .collect::<Result<_, _>>()?,
    };
    specs
        .into_iter()
        .map(|spec| {
            let cells = timed("campaign.expand", || expand(&spec))?;
            Ok((spec, cells))
        })
        .collect()
}

/// One spec's campaign run.
#[derive(Debug, Clone)]
pub struct SpecRun {
    /// Spec file stem (`random_faults`, or `span` for `span_sampled`).
    pub file: String,
    /// Wall time of `fx_campaign::run`, seconds.
    pub wall_s: f64,
    /// The journaled results.
    pub results: Vec<CellResult>,
    /// Every grid cell has a successful record.
    pub complete: bool,
    /// The output digest compared against references: FNV-1a of
    /// `aggregates.json` (catalog), or of the deterministic span fields.
    pub digest: u64,
    /// Journal size in bytes.
    pub journal_bytes: u64,
}

/// One repetition: every spec of the workload, in order.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Per-spec runs.
    pub specs: Vec<SpecRun>,
}

impl Rep {
    /// Workload wall time: the specs run back to back.
    pub fn wall_s(&self) -> f64 {
        self.specs.iter().map(|s| s.wall_s).sum()
    }

    /// Cells executed.
    pub fn cells(&self) -> usize {
        self.specs.iter().map(|s| s.results.len()).sum()
    }
}

/// Runs one repetition under `out`.
pub fn run_rep(kind: Kind, specs: &[(CampaignSpec, Vec<Cell>)], out: &Path) -> Result<Rep, String> {
    let files: Vec<&str> = match kind {
        Kind::SpanSampled => vec!["span"],
        Kind::CatalogFast => CATALOG_FAST.to_vec(),
    };
    let mut runs = Vec::new();
    for ((spec, _), file) in specs.iter().zip(files) {
        let dir = out.join(file);
        crate::clear_dir(&dir)?;
        let opts = RunOptions {
            threads: THREADS,
            quiet: true,
            output: Some(dir.clone()),
            ..RunOptions::default()
        };
        let started = Instant::now();
        let summary = timed("campaign.run", || fx_campaign::run(spec, &opts))?;
        let wall_s = started.elapsed().as_secs_f64();
        let results = journal_for(spec, &opts).load_report()?.results;
        let digest = match kind {
            Kind::CatalogFast => {
                let path = dir.join("aggregates.json");
                let bytes = std::fs::read(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                fnv1a(&bytes)
            }
            Kind::SpanSampled => span_digest(&results),
        };
        let journal_bytes = std::fs::metadata(dir.join("journal.jsonl")).map_or(0, |m| m.len());
        runs.push(SpecRun {
            file: file.to_string(),
            wall_s,
            complete: summary.complete,
            digest,
            journal_bytes,
            results,
        });
    }
    Ok(Rep { specs: runs })
}

/// Digest of the reproducible span outputs: `n`, `sets_examined` and
/// `exhaustive` of every cell, plus `span` of exhaustive cells. A
/// sampled cell's `span` is left out because Mehlhorn's tree (and so a
/// Mehlhorn-decided ratio) depends on hash-map iteration order.
pub fn span_digest(results: &[CellResult]) -> u64 {
    let mut sorted: Vec<&CellResult> = results.iter().collect();
    sorted.sort_by(|a, b| a.key.cmp(&b.key));
    let mut text = String::new();
    for r in sorted {
        let m = |name: &str| r.metric(name).unwrap_or(f64::NAN);
        text.push_str(&format!(
            "{}|n={}|sets={}|exhaustive={}",
            r.key,
            m("n"),
            m("sets_examined"),
            m("exhaustive")
        ));
        if m("exhaustive") == 1.0 {
            text.push_str(&format!("|span={}", m("span")));
        }
        text.push('\n');
    }
    fnv1a(text.as_bytes())
}

/// Output checks on one repetition; returns one line per failure.
///
/// * Every cell succeeded and none timed out (one line per cell), and
///   the campaign is complete.
/// * Digests equal `reference` (the committed golden digests for this
///   seed, or the run's first repetition).
/// * `span_sampled`: span ≤ 2 on every mesh and torus cell (Thm 3.6).
pub fn check_rep(rep: &Rep, reference: Option<&[(String, u64)]>) -> Vec<String> {
    let mut errors = Vec::new();
    for s in &rep.specs {
        for r in &s.results {
            let mesh_like = r.graph.starts_with("mesh:") || r.graph.starts_with("torus:");
            let span = r.metric("span").filter(|_| r.algo == "span" && mesh_like);
            if r.failed != 0 {
                errors.push(format!("{}: quarantined: {}", r.key, r.error));
            } else if r.metric("timed_out").is_some() {
                errors.push(format!("{}: timed out", r.key));
            } else if let Some(span) = span.filter(|&v| v > 2.0 + 1e-9) {
                errors.push(format!(
                    "{}: span {span} exceeds Theorem 3.6's bound 2",
                    r.key
                ));
            }
        }
        if !s.complete {
            errors.push(format!("{}: campaign incomplete", s.file));
        }
        if let Some(expected) = reference.and_then(|r| r.iter().find(|(f, _)| *f == s.file)) {
            if expected.1 != s.digest {
                errors.push(format!(
                    "{}: output digest {:016x}, expected {:016x}",
                    s.file, s.digest, expected.1
                ));
            }
        }
    }
    errors
}

/// The digests a repetition produced, by spec file.
pub fn digests(rep: &Rep) -> Vec<(String, u64)> {
    rep.specs
        .iter()
        .map(|s| (s.file.clone(), s.digest))
        .collect()
}

/// Reference digests recorded with `catbench record` at the commit
/// that added the benchmark: workload → seed → spec file → digest.
const GOLDEN: &str = include_str!("../golden.json");

/// The recorded reference digests of `kind` at `seed`, if any.
pub fn golden(kind: Kind, seed: u64) -> Option<Vec<(String, u64)>> {
    let doc = Json::parse(GOLDEN).ok()?;
    let Some(Json::Obj(fields)) = doc.get(kind.name())?.get(&seed.to_string()) else {
        return None;
    };
    fields
        .iter()
        .map(|(file, hex)| Some((file.clone(), u64::from_str_radix(hex.as_str()?, 16).ok()?)))
        .collect()
}

/// Adds (or replaces) `kind`'s reference digests for `seed` in the
/// golden file at `path`.
pub fn record_golden(
    path: &Path,
    kind: Kind,
    seed: u64,
    digests: &[(String, u64)],
) -> Result<(), String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|_| "{}".to_string());
    let mut doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Json::Obj(workloads) = &mut doc else {
        return Err(format!("{}: not a JSON object", path.display()));
    };
    let entry = Json::Obj(
        digests
            .iter()
            .map(|(file, d)| (file.clone(), Json::Str(format!("{d:016x}"))))
            .collect(),
    );
    let seeds = match workloads.iter_mut().find(|(k, _)| k == kind.name()) {
        Some((_, seeds)) => seeds,
        None => {
            workloads.push((kind.name().to_string(), Json::Obj(Vec::new())));
            &mut workloads.last_mut().expect("just pushed").1
        }
    };
    let Json::Obj(seeds) = seeds else {
        return Err(format!(
            "{}: {} is not an object",
            path.display(),
            kind.name()
        ));
    };
    seeds.retain(|(s, _)| *s != seed.to_string());
    seeds.push((seed.to_string(), entry));
    seeds.sort_by_key(|(s, _)| s.parse::<u64>().unwrap_or(u64::MAX));
    std::fs::write(path, doc.to_string_pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Per-layer metrics of one traced repetition, read from its journals
/// and from `aggregate` calls timed here.
pub fn engine_metrics(rep: &Rep, m: &mut Metrics) {
    let mut cell_ms = Vec::new();
    let (mut build, mut fault, mut algo) = (0.0, 0.0, 0.0);
    for s in &rep.specs {
        timed("campaign.aggregate", || fx_campaign::aggregate(&s.results));
        for r in &s.results {
            cell_ms.push(r.wall_ms);
            for (phase, ms) in &r.phase_ms {
                match phase.as_str() {
                    "build" => build += ms,
                    "fault" => fault += ms,
                    "algo" => algo += ms,
                    _ => {}
                }
            }
        }
    }
    let wall_s = rep.wall_s();
    m.set("engine.cells", cell_ms.len() as f64, "count");
    m.set("engine.cell_p50_ms", median(&cell_ms), "ms");
    m.set("engine.cell_max_ms", quantile(&cell_ms, 1.0), "ms");
    m.set(
        "engine.journal_bytes",
        rep.specs.iter().map(|s| s.journal_bytes).sum::<u64>() as f64,
        "bytes",
    );
    m.set("phase.build_ms", build, "ms");
    m.set("phase.fault_ms", fault, "ms");
    m.set("phase.algo_ms", algo, "ms");
    m.set(
        "engine.pool_efficiency",
        cell_ms.iter().sum::<f64>() / (wall_s * 1e3 * THREADS as f64),
        "ratio",
    );
    for s in &rep.specs {
        if let Some(name) = CATALOG_FAST.iter().find(|n| **n == s.file) {
            m.set(catalog_metric(name), s.wall_s, "s");
        }
    }
}

/// `catalog.<spec>.wall_s`.
pub fn catalog_metric(spec: &str) -> &'static str {
    match spec {
        "random_faults" => "catalog.random_faults.wall_s",
        "adversarial" => "catalog.adversarial.wall_s",
        "emulation" => "catalog.emulation.wall_s",
        "structure" => "catalog.structure.wall_s",
        "overlay_churn" => "catalog.overlay_churn.wall_s",
        "overlay_scale" => "catalog.overlay_scale.wall_s",
        "targeted_faults" => "catalog.targeted_faults.wall_s",
        "churn_curves" => "catalog.churn_curves.wall_s",
        _ => unreachable!("not a catalog_fast spec: {spec}"),
    }
}

/// Replays a traced repetition's cells layer by layer, checks each
/// replay against its journaled cell, and returns the mismatches.
pub fn replay_rep(specs: &[(CampaignSpec, Vec<Cell>)], rep: &Rep, m: &mut Metrics) -> Vec<String> {
    #[derive(Clone, Copy)]
    enum Job<'a> {
        Span(&'a CampaignSpec, &'a Cell, &'a CellResult),
        Prune2(&'a CampaignSpec, &'a Cell, &'a CellResult),
        Overlay(&'a CampaignSpec, &'a Cell, &'a CellResult),
    }
    enum Outcome {
        Span(SpanStats, Vec<String>),
        Prune2(u64, Vec<String>),
        Overlay(Vec<String>),
    }
    let mut jobs = Vec::new();
    for ((spec, cells), run) in specs.iter().zip(&rep.specs) {
        for cell in cells {
            let key = cell.key();
            let Some(result) = run.results.iter().find(|r| r.key == key) else {
                continue;
            };
            if cell.algo == Algo::Span {
                jobs.push(Job::Span(spec, cell, result));
            } else if cell.algo == Algo::Prune2 {
                jobs.push(Job::Prune2(spec, cell, result));
            }
            if replay::is_overlay(cell) {
                jobs.push(Job::Overlay(spec, cell, result));
            }
        }
    }
    let _replay = trace::span("replay");
    // pool workers have no open span: parent each cell explicitly
    let parent = trace::current();
    let outcomes = fx_graph::par::par_map(jobs.len(), THREADS, |i| match jobs[i] {
        Job::Span(spec, cell, result) => {
            let _cell = trace::span_under("replay.span_cell", parent);
            let stats = replay::replay_span(spec, cell);
            let errors = check_span_replay(&stats, result);
            Outcome::Span(stats, errors)
        }
        Job::Prune2(spec, cell, result) => {
            let _cell = trace::span_under("replay.prune2_cell", parent);
            let r = replay::replay_prune2(spec, cell);
            Outcome::Prune2(r.iters, check_metrics(&r.metrics, result))
        }
        Job::Overlay(spec, cell, result) => {
            let _cell = trace::span_under("replay.overlay_cell", parent);
            Outcome::Overlay(check_metrics(&replay::replay_overlay(spec, cell), result))
        }
    });
    let mut span = SpanStats::default();
    let mut iters = 0;
    let mut errors = Vec::new();
    for outcome in outcomes {
        match outcome {
            Outcome::Span(stats, e) => {
                span.merge(&stats);
                errors.extend(e);
            }
            Outcome::Prune2(i, e) => {
                iters += i;
                errors.extend(e);
            }
            Outcome::Overlay(e) => errors.extend(e),
        }
    }
    m.set("span.sets", span.sets as f64, "count");
    m.set("span.dw_calls", span.dw_calls as f64, "count");
    m.set(
        "span.dw_terminals_max",
        span.dw_terminals_max as f64,
        "count",
    );
    m.set(
        "span.dw_bound_skippable",
        if span.dw_calls == 0 {
            0.0
        } else {
            span.dw_bound_skippable as f64 / span.dw_calls as f64
        },
        "ratio",
    );
    m.set(
        "span.mehlhorn_decided",
        span.mehlhorn_decided as f64,
        "count",
    );
    m.set("prune2.iters", iters as f64, "count");
    errors
}

/// A span replay must reproduce the cell's `n`, `sets_examined` and
/// `exhaustive`; its exact ratios bound the cell's `span` from below,
/// and equal it when no ratio came from Mehlhorn's (order-dependent)
/// tree.
pub fn check_span_replay(stats: &SpanStats, cell: &CellResult) -> Vec<String> {
    let mut errors = Vec::new();
    let metric = |name: &str| cell.metric(name).unwrap_or(f64::NAN);
    let span = metric("span");
    let exhaustive = cell.metric("exhaustive") == Some(1.0);
    if stats.n as f64 != metric("n")
        || stats.sets as f64 != metric("sets_examined")
        || (stats.n <= replay::EXACT_MAX_NODES && stats.exhaustive() != exhaustive)
    {
        errors.push(format!(
            "{}: replay n={} sets={} exhaustive={} vs cell n={} sets={} exhaustive={}",
            cell.key,
            stats.n,
            stats.sets,
            stats.exhaustive(),
            metric("n"),
            metric("sets_examined"),
            exhaustive
        ));
    }
    let exact_matches = if stats.mehlhorn_decided == 0 {
        stats.exact_max_ratio == span
    } else {
        stats.exact_max_ratio <= span
    };
    if !exact_matches {
        errors.push(format!(
            "{}: replayed exact ratio {} vs cell span {span} ({} Mehlhorn-decided sets)",
            cell.key, stats.exact_max_ratio, stats.mehlhorn_decided
        ));
    }
    errors
}

/// Every replayed metric must equal the journaled one bit for bit.
pub fn check_metrics(replayed: &[(String, f64)], cell: &CellResult) -> Vec<String> {
    replayed
        .iter()
        .filter(|(name, value)| cell.metric(name).map(f64::to_bits) != Some(value.to_bits()))
        .map(|(name, value)| {
            format!(
                "{}: replayed {name} = {value}, journaled {:?}",
                cell.key,
                cell.metric(name)
            )
        })
        .collect()
}

/// Output directory of a workload's campaigns under the run directory.
pub fn out_dir(run_dir: &Path) -> PathBuf {
    run_dir.join("campaigns")
}
