//! # fx-catbench — the repository's benchmark
//!
//! Three workloads, each run end to end with tracing off, plus a
//! separate traced run per workload for the per-layer numbers:
//!
//! * `span_sampled` — a spec generated from `specs/span.toml`: the
//!   exhaustive `torus:4,4` enumeration and sampled cells on
//!   `mesh:12,12`, `butterfly:5`, `shuffle-exchange:7` and
//!   `debruijn:7`. Dreyfus–Wagner dominates it.
//! * `catalog_fast` — the eight other paper specs in sequence. It never
//!   calls Dreyfus–Wagner; prune2 and the expansion certificates
//!   dominate it.
//! * `serve_mixed` — `fx_campaign::serve` in-process, cold then warm
//!   queries from two keep-alive connections.
//!
//! Layers are timed from outside, by spans around calls into each
//! crate's public functions ([`trace`]); campaign cells are re-executed
//! layer by layer for that ([`replay`]). `NOTES.md` beside this crate
//! lists every metric, the end-to-end metric each layer should move,
//! and observations for later work.

pub mod catalog;
pub mod replay;
pub mod serve;
pub mod stats;
pub mod trace;

use catalog::Kind;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s")];

/// Per-layer metrics (traced runs), with units. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("process.peak_rss_mb", "MB"),
    ("engine.expand_ms", "ms"),
    ("engine.cells", "count"),
    ("engine.cell_p50_ms", "ms"),
    ("engine.cell_max_ms", "ms"),
    ("engine.aggregate_ms", "ms"),
    ("engine.journal_bytes", "bytes"),
    ("engine.pool_efficiency", "ratio"),
    ("phase.build_ms", "ms"),
    ("phase.fault_ms", "ms"),
    ("phase.algo_ms", "ms"),
    ("catalog.random_faults.wall_s", "s"),
    ("catalog.adversarial.wall_s", "s"),
    ("catalog.emulation.wall_s", "s"),
    ("catalog.structure.wall_s", "s"),
    ("catalog.overlay_churn.wall_s", "s"),
    ("catalog.overlay_scale.wall_s", "s"),
    ("catalog.targeted_faults.wall_s", "s"),
    ("catalog.churn_curves.wall_s", "s"),
    ("scenario.build_ms", "ms"),
    ("span.sets", "count"),
    ("span.sample_ms", "ms"),
    ("span.boundary_ms", "ms"),
    ("span.mehlhorn_ms", "ms"),
    ("span.dw_calls", "count"),
    ("span.dw_ms", "ms"),
    ("span.dw_ms_per_call", "ms"),
    ("span.dw_terminals_max", "count"),
    ("span.dw_bound_skippable", "ratio"),
    ("span.mehlhorn_decided", "count"),
    ("span.dw_algo_share", "ratio"),
    ("prune2.cert_before_ms", "ms"),
    ("prune2.cut_ms", "ms"),
    ("prune2.iters", "count"),
    ("prune2.cert_after_ms", "ms"),
    ("faults.sample_ms", "ms"),
    ("components.gamma_ms", "ms"),
    ("overlay.build_ms", "ms"),
    ("dyncon.solve_ms", "ms"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("serve.compute_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.warm_p99_ms", "ms"),
    ("serve.warm_qps", "1/s"),
    ("serve.warm_samples", "count"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.cold_p90_ms", "ms"),
    ("serve.cold_samples", "count"),
    ("trace.overhead_s", "s"),
    ("error_rate", "ratio"),
];

/// Named metrics with units, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, String)>,
}

impl Metrics {
    /// Sets (or replaces) a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => entry.1 = value,
            None => self
                .entries
                .push((name.to_string(), value, unit.to_string())),
        }
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|e| e.1)
    }

    /// Every metric, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.entries
            .iter()
            .map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
    }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sampled and exhaustive span cells.
    SpanSampled,
    /// The eight fast paper specs.
    CatalogFast,
    /// Cold then warm `fxnet serve` queries.
    ServeMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::SpanSampled,
        Workload::CatalogFast,
        Workload::ServeMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpanSampled => "span_sampled",
            Workload::CatalogFast => "catalog_fast",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!("unknown workload `{name}` (span_sampled, catalog_fast, serve_mixed)")
            })
    }

    /// The campaign workload behind this one (`None` for
    /// `serve_mixed`).
    pub fn campaign_kind(self) -> Option<Kind> {
        match self {
            Workload::SpanSampled => Some(Kind::SpanSampled),
            Workload::CatalogFast => Some(Kind::CatalogFast),
            Workload::ServeMixed => None,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measuring time budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Repository checkout the run reads specs from and writes under.
    pub root: PathBuf,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: cells executed, or HTTP requests sent.
    pub attempted: u64,
    /// One line per failed operation or output-check mismatch.
    pub errors: Vec<String>,
    /// Every metric the run measured.
    pub metrics: Metrics,
    /// Where and on what it ran.
    pub provenance: stats::Provenance,
}

impl Outcome {
    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.errors.len() as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// end-to-end (untraced) or per-layer (traced) metrics, each with
    /// its unit. A metric the run did not reach reports 0.
    pub fn result_json(&self, trace: bool) -> fx_json::Json {
        use fx_json::Json;
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics = table
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).unwrap_or(0.0);
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Num(value)),
                        ("unit".to_string(), Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.errors.is_empty())),
            ("attempted".to_string(), Json::UInt(self.attempted.max(1))),
            ("failed".to_string(), Json::UInt(self.errors.len() as u64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }
}

/// Where a workload's artifacts go: `.catbench/<workload>` under the
/// checkout (git-ignored).
pub fn run_dir(root: &Path, workload: Workload) -> PathBuf {
    root.join(".catbench").join(workload.name())
}

/// Removes `dir` and everything under it, if it exists.
pub(crate) fn clear_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot clear {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// Runs one benchmark invocation.
pub fn run(args: &Args) -> Result<Outcome, String> {
    if !args.root.join("specs").is_dir() {
        return Err(format!(
            "{} has no specs/ directory: run from the repository root",
            args.root.display()
        ));
    }
    let dir = run_dir(&args.root, args.workload);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let provenance = stats::Provenance::collect(&args.root);
    let mut metrics = Metrics::default();
    let (attempted, mut errors) = match args.workload.campaign_kind() {
        Some(kind) => run_campaign(args, kind, &dir, &mut metrics)?,
        None => run_serve(args, &dir, &mut metrics)?,
    };
    metrics.set("process.peak_rss_mb", stats::peak_rss_mb(), "MB");
    if args.trace {
        let spans = trace::take();
        layer_metrics(&spans, &mut metrics);
        let path = dir.join(format!("spans-seed{}.jsonl", args.seed));
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(&path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?,
        );
        trace::write_jsonl(&spans, &mut file)
            .and_then(|()| std::io::Write::flush(&mut file))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        // the layer split each campaign workload is chosen for
        let dw_share = metrics.get("span.dw_algo_share").unwrap_or(0.0);
        let dw_calls = metrics.get("span.dw_calls").unwrap_or(0.0);
        match args.workload {
            Workload::SpanSampled if dw_share < 0.9 => errors.push(format!(
                "span.dw_ms is {dw_share:.3} of the summed cell algo time, below 0.9"
            )),
            Workload::CatalogFast if dw_calls != 0.0 => {
                errors.push(format!("catalog_fast made {dw_calls} Dreyfus–Wagner calls"))
            }
            _ => {}
        }
    }
    let mut outcome = Outcome {
        attempted,
        errors,
        metrics,
        provenance,
    };
    let rate = outcome.error_rate();
    outcome.metrics.set("error_rate", rate, "ratio");
    Ok(outcome)
}

/// Per-layer self times from the recorded spans.
fn layer_metrics(spans: &[trace::SpanRecord], m: &mut Metrics) {
    let table = trace::self_times(spans);
    let layer = |name: &str| table.get(name).copied().unwrap_or_default();
    for (metric, span) in [
        ("engine.expand_ms", "campaign.expand"),
        ("engine.aggregate_ms", "campaign.aggregate"),
        ("scenario.build_ms", "scenario.build"),
        ("span.sample_ms", "span.sample"),
        ("span.boundary_ms", "span.boundary"),
        ("span.mehlhorn_ms", "span.mehlhorn"),
        ("span.dw_ms", "span.dw"),
        ("prune2.cert_before_ms", "prune2.cert_before"),
        ("prune2.cut_ms", "prune2.cut"),
        ("prune2.cert_after_ms", "prune2.cert_after"),
        ("faults.sample_ms", "faults.sample"),
        ("components.gamma_ms", "components.gamma"),
        ("overlay.build_ms", "overlay.build"),
        ("dyncon.solve_ms", "dyncon.solve"),
    ] {
        m.set(metric, layer(span).self_ms(), "ms");
    }
    let dw = layer("span.dw");
    m.set(
        "span.dw_ms_per_call",
        dw.self_ms() / dw.count.max(1) as f64,
        "ms",
    );
    // DW's share of the replayed span cells, both timed in the same
    // execution: the journaled `phase.algo_ms` comes from another one,
    // and host noise between the two would blur the ratio
    let cells_ns = layer("replay.span_cell").total_ns;
    let share = if cells_ns > 0 {
        dw.self_ns as f64 / cells_ns as f64
    } else {
        0.0
    };
    m.set("span.dw_algo_share", share, "ratio");
    let compute = layer("serve.compute");
    m.set(
        "serve.compute_ms",
        compute.self_ms() / compute.count.max(1) as f64,
        "ms",
    );
}

/// Compares a repetition with the reference digests (the committed
/// golden ones for this seed, else the run's first repetition).
fn check_rep(
    rep: &catalog::Rep,
    golden: &Option<Vec<(String, u64)>>,
    first: &mut Option<Vec<(String, u64)>>,
    errors: &mut Vec<String>,
) {
    let reference = golden.as_ref().or(first.as_ref());
    errors.extend(catalog::check_rep(rep, reference.map(Vec::as_slice)));
    first.get_or_insert_with(|| catalog::digests(rep));
}

fn run_campaign(
    args: &Args,
    kind: Kind,
    dir: &Path,
    m: &mut Metrics,
) -> Result<(u64, Vec<String>), String> {
    let (root, seed) = (args.root.as_path(), args.seed);
    let out = catalog::out_dir(dir);
    let specs = catalog::setup(root, kind, seed)?;
    let golden = catalog::golden(kind, seed);
    if golden.is_none() {
        eprintln!(
            "catbench: no recorded digests for {} seed {seed}; checking repetitions against each other",
            kind.name()
        );
    }
    let mut first = None;
    let mut errors = Vec::new();
    let mut attempted = 0u64;
    if args.trace {
        let untraced = catalog::run_rep(kind, &specs, &out)?;
        attempted += untraced.cells() as u64;
        check_rep(&untraced, &golden, &mut first, &mut errors);
        trace::enable();
        let _workload = trace::span("workload");
        let specs = catalog::setup(root, kind, seed)?;
        let traced = catalog::run_rep(kind, &specs, &out)?;
        attempted += traced.cells() as u64;
        check_rep(&traced, &golden, &mut first, &mut errors);
        catalog::engine_metrics(&traced, m);
        errors.extend(catalog::replay_rep(&specs, &traced, m));
        m.set("trace.overhead_s", traced.wall_s() - untraced.wall_s(), "s");
    } else {
        let setup_s = stats::median_secs(5, 100_000, 0.5, || {
            let _ = catalog::setup(root, kind, seed);
        });
        m.set("setup_s", setup_s, "s");
        let started = Instant::now();
        let (mut walls, mut rates) = (Vec::new(), Vec::new());
        loop {
            let rep = catalog::run_rep(kind, &specs, &out)?;
            attempted += rep.cells() as u64;
            check_rep(&rep, &golden, &mut first, &mut errors);
            walls.push(rep.wall_s());
            rates.push(rep.cells() as f64 / rep.wall_s());
            eprintln!(
                "catbench: repetition {} took {:.3} s",
                walls.len(),
                rep.wall_s()
            );
            if started.elapsed().as_secs_f64() + stats::median(&walls) > args.seconds {
                break;
            }
        }
        m.set("wall_s", stats::warm_median(&walls), "s");
        m.set("ops_per_s", stats::warm_median(&rates), "1/s");
    }
    Ok((attempted, errors))
}

/// Daemon starts `setup_s` takes its median over (besides the
/// measured sessions' own starts).
const SERVE_SETUPS: usize = 31;

/// Warm phase of an untraced session. The run repeats sessions, so a
/// cold phase that gets much faster still yields several samples.
const MIN_WARM: Duration = Duration::from_secs(3);

/// Passes over every key when timing `Store::get`.
const STORE_GET_PASSES: usize = 50;

fn run_serve(args: &Args, dir: &Path, m: &mut Metrics) -> Result<(u64, Vec<String>), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let spec = serve::spec(&args.root, args.seed, &dir.join("store"))?;
    let keys = serve::key_list(&spec, args.seed)?;
    let mut setups = Vec::new();
    for _ in 0..SERVE_SETUPS {
        let (server, secs) = serve::start(&spec)?;
        server.shutdown();
        setups.push(secs);
    }
    let mut errors = Vec::new();
    let mut attempted = 0u64;
    // one daemon lifetime: start, cold + warm phases, shutdown, checks;
    // returns the session and the payloads the daemon published
    let mut session = |deadline: Instant, errors: &mut Vec<String>| {
        let (server, secs) = serve::start(&spec)?;
        setups.push(secs);
        let mut s = serve::run_session(&server, &keys, args.seed, deadline, MIN_WARM);
        server.shutdown();
        let payloads = serve::check_cold_bodies(&spec, &keys, &mut s);
        attempted += s.requests as u64;
        errors.append(&mut s.errors);
        Ok::<_, String>((s, payloads))
    };
    if args.trace {
        let (untraced, _) = session(Instant::now(), &mut errors)?;
        trace::enable();
        let _workload = trace::span("workload");
        let (traced, payloads) = session(deadline, &mut errors)?;
        serve::store_layer(
            &spec,
            &keys,
            &payloads,
            &dir.join("store-put"),
            STORE_GET_PASSES,
            m,
        )?;
        serve::session_metrics(&traced, m);
        let transport =
            m.get("serve.warm_p50_ms").unwrap_or(0.0) - m.get("store.get_us").unwrap_or(0.0) / 1e3;
        m.set("serve.transport_ms", transport, "ms");
        m.set(
            "trace.overhead_s",
            traced.cold_wall_s - untraced.cold_wall_s,
            "s",
        );
    } else {
        // sessions (each on a fresh store) while another fits
        let started = Instant::now();
        let (mut colds, mut rates, mut lengths) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            let session_started = Instant::now();
            let (s, _) = session(Instant::now(), &mut errors)?;
            colds.push(s.cold_wall_s);
            rates.push(s.warm_ms.len() as f64 / s.warm_wall_s.max(1e-9));
            lengths.push(session_started.elapsed().as_secs_f64());
            serve::session_metrics(&s, m);
            if started.elapsed().as_secs_f64() + stats::median(&lengths) > args.seconds {
                break;
            }
        }
        m.set("wall_s", stats::warm_median(&colds), "s");
        m.set("ops_per_s", stats::warm_median(&rates), "1/s");
    }
    m.set("setup_s", stats::median(&setups), "s");
    Ok((attempted, errors))
}
