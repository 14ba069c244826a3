//! The campaign engine: expand → (skip journaled) → execute cells in
//! parallel ([`par_map`]) → journal → aggregate → emit artifacts.
//!
//! `run` and `resume` are the same operation — a run that finds
//! journaled cells skips them, so resuming after a kill (or growing a
//! spec with new axis values) only pays for missing cells. A journal
//! record matches a cell by its store key
//! ([`store_key`]), so a record made with another seed or another
//! value of a param the cell reads never stands in for the cell, and
//! records of cells outside the grid are never aggregated (the run
//! drops them from the journal before it appends).

use crate::agg::{aggregate, GroupAggregate};
use crate::exec::{run_cell_resilient, CellResult};
use crate::grid::{expand, Cell};
use crate::journal::{Journal, LoadReport};
use crate::spec::CampaignSpec;
use crate::store_key::store_key;
use crate::table::{f as fmt_f, write_csv, Table};
use fx_graph::par::par_map;
use fx_trace::{Span, Target};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Execution options for one `run`/`resume` invocation.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads (`0` = [`fx_graph::par::default_threads`]).
    pub threads: usize,
    /// Stop after executing this many cells (testing / incremental
    /// runs); journaled cells do not count.
    pub limit: Option<usize>,
    /// Suppress the progress/table output.
    pub quiet: bool,
    /// Override the spec's artifact directory.
    pub output: Option<PathBuf>,
    /// Run only shard `i` of `m` (`Some((i, m))`): the cell list is
    /// partitioned by identity hash, so `m` machines each running one
    /// shard (into separate journals) cover the campaign exactly
    /// once; `campaign merge` recombines the journals. Totals and
    /// completeness are reported relative to the shard's slice.
    pub shard: Option<(usize, usize)>,
    /// Print the per-phase timing breakdown (journaled `phase_ms`)
    /// after the aggregates table.
    pub timing: bool,
    /// Print the health table (quarantined / retried / corrupt
    /// tallies) after the aggregates.
    pub health: bool,
}

/// What a `run`/`resume`/`report` invocation did.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Total cells in the grid.
    pub total_cells: usize,
    /// Cells found in the journal and skipped.
    pub skipped: usize,
    /// Cells executed by this invocation.
    pub executed: usize,
    /// True when every grid cell has a **successful** journal record
    /// after this invocation (quarantined cells keep a campaign
    /// incomplete: they re-run on resume).
    pub complete: bool,
    /// Quarantined grid cells in the journal (`failed = 1` records
    /// whose key has no successful record).
    pub failed: usize,
    /// Total extra execution attempts recorded in the journal (the
    /// sum of `attempts − 1`; 0 for a chaos-free history).
    pub retried: u64,
    /// Corrupt journal lines skipped on load (their cells re-run).
    pub corrupt: usize,
    /// Journal records served from the content-addressed cell store
    /// (`cache_hit = 1`) rather than recomputed. 0 unless
    /// `[params] store` is set.
    pub cache_hits: usize,
    /// Aggregates over the grid's journaled results.
    pub aggregates: Vec<GroupAggregate>,
    /// Files written (journal + artifacts).
    pub artifacts: Vec<PathBuf>,
}

/// Resolves the artifact directory for a spec + options.
fn output_dir(spec: &CampaignSpec, opts: &RunOptions) -> PathBuf {
    opts.output.clone().unwrap_or_else(|| spec.output.clone())
}

/// The grid's cells and their store keys.
fn grid_cells(spec: &CampaignSpec) -> Result<(Vec<Cell>, Vec<u64>), String> {
    let cells = expand(spec)?;
    let keys = cells.iter().map(|c| store_key(spec, c)).collect();
    Ok((cells, keys))
}

/// Applies the `--shard i/m` filter: keeps the cells (and their keys)
/// whose identity-hash shard is `i`.
fn shard_cells(
    (cells, keys): (Vec<Cell>, Vec<u64>),
    opts: &RunOptions,
) -> Result<(Vec<Cell>, Vec<u64>), String> {
    let Some((index, count)) = opts.shard else {
        return Ok((cells, keys));
    };
    if count == 0 || index >= count {
        return Err(format!(
            "invalid shard {index}/{count}: need 0 ≤ index < count"
        ));
    }
    Ok(cells
        .into_iter()
        .zip(keys)
        .filter(|(c, _)| crate::grid::shard_of(&c.key(), count) == index)
        .unzip())
}

/// The journal a spec checkpoints into.
pub fn journal_for(spec: &CampaignSpec, opts: &RunOptions) -> Journal {
    Journal::new(output_dir(spec, opts).join("journal.jsonl"))
}

/// The journal's record of each cell (`keys[i]` is cell `i`'s store
/// key), `None` where it holds none.
fn grid_records<'a>(loaded: &'a LoadReport, keys: &[u64]) -> Vec<Option<&'a CellResult>> {
    let by_key: HashMap<u64, &CellResult> =
        loaded.keys.iter().copied().zip(&loaded.results).collect();
    keys.iter().map(|k| by_key.get(k).copied()).collect()
}

/// Cells with a successful record.
fn count_ok(records: &[Option<&CellResult>]) -> usize {
    records.iter().flatten().filter(|r| r.failed == 0).count()
}

/// The `slow` chaos site: with `FXNET_CHAOS=slow:p[,ms]` the `i`-th
/// pending cell is delayed by the configured latency before it runs —
/// straggler injection that perturbs the schedule without touching any
/// result. Off path: one relaxed atomic load.
fn chaos_slow(i: usize) {
    if fx_chaos::enabled(fx_chaos::Site::Slow)
        && fx_chaos::should_fire(fx_chaos::Site::Slow, i as u64, 0)
    {
        std::thread::sleep(Duration::from_millis(fx_chaos::slow_ms()));
    }
}

/// Runs (or resumes) a campaign: executes every non-journaled cell,
/// then aggregates and writes artifacts.
pub fn run(spec: &CampaignSpec, opts: &RunOptions) -> Result<RunSummary, String> {
    let grid = grid_cells(spec)?;
    // the journal keeps every shard's records
    let grid_keys = grid.1.clone();
    let (cells, keys) = shard_cells(grid, opts)?;
    let journal = journal_for(spec, opts);
    // `[params] store`: open (or create) the shared content-addressed
    // result store. Opening recovers crash-safely — corrupt entries
    // are skipped and counted, and the affected cells simply
    // recompute below.
    let store = match &spec.params.store {
        Some(dir) => Some(
            fx_store::Store::open(dir)
                .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?,
        ),
        None => None,
    };
    let loaded = journal.load_report()?;
    keep_only_grid_records(spec, &journal, &loaded, &grid_keys)?;
    let records = grid_records(&loaded, &keys);
    // only successful records count as done: quarantined cells re-run
    // like unseen cells, with their cumulative attempt count carried
    // forward so the deterministic chaos decisions keep advancing
    let mut pending: Vec<(&Cell, u64, u64)> = cells
        .iter()
        .zip(&keys)
        .zip(&records)
        .filter(|(_, record)| record.is_none_or(|r| r.failed != 0))
        .map(|((cell, &key), record)| (cell, key, record.map_or(0, |r| r.attempts)))
        .collect();
    let skipped = count_ok(&records);
    if let Some(limit) = opts.limit {
        pending.truncate(limit);
    }

    if !opts.quiet {
        eprintln!(
            "campaign {}: {} cells ({} journaled, running {})",
            spec.name,
            cells.len(),
            skipped,
            pending.len()
        );
    }

    let executed = pending.len();
    if executed > 0 {
        let run_span = Span::enter(Target::Campaign, "run");
        // salt the writer's io_error chaos decisions with the current
        // journal population: a resume draws fresh decisions for the
        // cells a previous run failed to append
        let writer = journal.appender_with(spec.params.retries, loaded.results.len() as u64)?;
        let append_failures = AtomicUsize::new(0);
        let served = AtomicUsize::new(0);
        let heartbeat = Heartbeat::new(executed);
        // one resolved thread count for the whole run (0 = the
        // FXNET_THREADS / core-count default); each cell is journaled
        // as soon as it finishes, so a kill loses only cells in flight
        let threads = fx_graph::par::resolve_threads(opts.threads);
        par_map(executed, threads, |i| {
            let (cell, key, base) = pending[i];
            chaos_slow(i);
            let hit = store.as_ref().and_then(|s| store_lookup(s, cell, key));
            let result = match hit {
                Some(hit) => {
                    served.fetch_add(1, Ordering::Relaxed);
                    hit
                }
                None => {
                    let result = run_cell_resilient(spec, cell, base);
                    // memoize clean successes only: quarantined or
                    // timed-out cells must never be served to a
                    // campaign that might complete them. A failed
                    // publish (disk full, chaos) is non-fatal — the
                    // result just stays unmemoized.
                    if let Some(store) = &store {
                        if result.publishable() {
                            let _ = store.put(key, &fx_json::to_string(&result));
                        }
                    }
                    result
                }
            };
            let timed_out = result.metric("timed_out").is_some();
            let failed = result.failed != 0;
            if !opts.quiet {
                let mark = match (failed, timed_out) {
                    (true, _) => " FAILED",
                    (false, true) => " TIMEOUT",
                    (false, false) => "",
                };
                eprintln!("  done {:<48} [{:.0} ms]{mark}", result.key, result.wall_ms);
                if failed {
                    eprintln!("       quarantined: {}", result.error);
                }
            }
            if let Err(e) = writer.append(key, &result) {
                // non-fatal: the cell's record is lost, so it re-runs
                // on resume — degrading one cell must not kill the
                // whole campaign
                append_failures.fetch_add(1, Ordering::Relaxed);
                eprintln!("campaign: dropping result for {}: {e}", result.key);
            }
            heartbeat.cell_done(timed_out, failed, opts.quiet);
        });
        drop(run_span);
        let append_failures = append_failures.into_inner();
        if append_failures > 0 {
            eprintln!(
                "campaign {}: {append_failures} journal append(s) failed — those cells will \
                 re-run on resume",
                spec.name
            );
        }
        if store.is_some() {
            // one greppable line — the store-dedup CI job keys off it
            eprintln!(
                "campaign {} store: {}/{executed} cells served from cache",
                spec.name,
                served.into_inner()
            );
        }
    }

    // reload so aggregation sees exactly what is durable on disk,
    // including the cells this invocation just appended
    let reloaded = journal.load_report()?;
    let mut summary = finish(spec, opts, &journal, &reloaded, &keys, skipped, executed)?;
    summary
        .artifacts
        .extend(write_trace_artifacts(&output_dir(spec, opts), opts.quiet)?);
    Ok(summary)
}

/// Rewrites the journal to hold exactly the grid's records (`keys`,
/// every shard's cells included) when `loaded` found
/// any other line: a corrupt, keyless, duplicate or superseded line,
/// or a record of a cell outside the grid (another seed, other params,
/// a dropped axis value). Those hold no record this grid can use, so
/// dropping them before appending keeps the journal the size of its
/// grid, and `--strict` then reports only damage still on disk. The
/// cell store, not the journal, keeps results across grids.
fn keep_only_grid_records(
    spec: &CampaignSpec,
    journal: &Journal,
    loaded: &LoadReport,
    keys: &[u64],
) -> Result<(), String> {
    let records = grid_records(loaded, keys);
    let kept = records.iter().flatten().count();
    if loaded.corrupt == 0 && loaded.lines == kept {
        return Ok(());
    }
    journal.rewrite(
        keys.iter()
            .zip(&records)
            .filter_map(|(&k, r)| Some((k, (*r)?))),
    )?;
    if loaded.corrupt > 0 {
        eprintln!(
            "campaign {}: dropped {} corrupt journal line(s)",
            spec.name, loaded.corrupt
        );
    }
    Ok(())
}

/// Consults the content-addressed store for `cell` under its store
/// `key`. A hit is decoded, re-labeled with *this* campaign's cell
/// identity (the store key is canonical across spec files, so the
/// stored `graph` spelling may differ from ours while naming the same
/// scenario), and marked `cache_hit = 1`. Anything suspect —
/// undecodable payload, a failed or timed-out record that should never
/// have been published — is treated as a miss and recomputed, never
/// served.
pub(crate) fn store_lookup(store: &fx_store::Store, cell: &Cell, key: u64) -> Option<CellResult> {
    let payload = store.get(key)?;
    let stored: CellResult = fx_json::from_str(&payload).ok()?;
    if !stored.publishable() {
        return None;
    }
    Some(CellResult::for_cell(
        cell,
        CellResult {
            cache_hit: 1,
            ..stored
        },
    ))
}

/// Live stderr progress: a rate/ETA/timeout line every ~2 s while
/// cells complete (suppressed by `--quiet`, like the per-cell lines).
struct Heartbeat {
    total: usize,
    done: AtomicUsize,
    timeouts: AtomicUsize,
    failures: AtomicUsize,
    started: Instant,
    last_print: Mutex<Instant>,
}

impl Heartbeat {
    fn new(total: usize) -> Heartbeat {
        Heartbeat {
            total,
            done: AtomicUsize::new(0),
            timeouts: AtomicUsize::new(0),
            failures: AtomicUsize::new(0),
            started: Instant::now(),
            last_print: Mutex::new(Instant::now()),
        }
    }

    fn cell_done(&self, timed_out: bool, failed: bool, quiet: bool) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if timed_out {
            self.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        if failed {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        if quiet || done == self.total {
            return; // the final state is reported by the summary table
        }
        // an `Instant` is whole after any panic, so a poisoned lock is
        // used as is
        let mut last = self
            .last_print
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if last.elapsed().as_secs_f64() < 2.0 {
            return;
        }
        *last = Instant::now();
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = done as f64 / elapsed.max(1e-9);
        let eta = (self.total - done) as f64 / rate.max(1e-9);
        let timeouts = self.timeouts.load(Ordering::Relaxed);
        let failed = self.failures.load(Ordering::Relaxed);
        eprintln!(
            "  progress {done}/{} cells ({rate:.1} cells/s, ETA {eta:.0} s, {timeouts} timeouts, \
             {failed} failed)",
            self.total
        );
    }
}

/// When any trace target is enabled, drains the collected telemetry
/// into `trace.jsonl` and `trace.chrome.json` under `dir` and returns
/// their paths (empty when tracing is off — the sink files are only
/// artifacts of traced runs).
fn write_trace_artifacts(dir: &std::path::Path, quiet: bool) -> Result<Vec<PathBuf>, String> {
    if !Target::ALL.iter().copied().any(fx_trace::enabled) {
        return Ok(Vec::new());
    }
    let snapshot = fx_trace::take_snapshot();
    let jsonl_path = dir.join("trace.jsonl");
    let chrome_path = dir.join("trace.chrome.json");
    let mut jsonl = std::fs::File::create(&jsonl_path)
        .map_err(|e| format!("cannot create {}: {e}", jsonl_path.display()))?;
    fx_trace::write_jsonl(&snapshot, &mut jsonl)
        .map_err(|e| format!("writing trace.jsonl: {e}"))?;
    let mut chrome = std::fs::File::create(&chrome_path)
        .map_err(|e| format!("cannot create {}: {e}", chrome_path.display()))?;
    fx_trace::write_chrome(&snapshot, &mut chrome)
        .map_err(|e| format!("writing trace.chrome.json: {e}"))?;
    if !quiet {
        eprintln!(
            "trace: {} spans, {} counters, {} histograms -> {}, {}",
            snapshot.spans.len(),
            snapshot.counters.len(),
            snapshot.hists.len(),
            jsonl_path.display(),
            chrome_path.display()
        );
    }
    Ok(vec![jsonl_path, chrome_path])
}

/// Aggregates the journal and writes artifacts without executing
/// anything.
pub fn report(spec: &CampaignSpec, opts: &RunOptions) -> Result<RunSummary, String> {
    let (_, keys) = shard_cells(grid_cells(spec)?, opts)?;
    let journal = journal_for(spec, opts);
    let loaded = journal.load_report()?;
    let skipped = count_ok(&grid_records(&loaded, &keys));
    finish(spec, opts, &journal, &loaded, &keys, skipped, 0)
}

/// Shared tail of `run`/`report`: aggregate the grid's journaled
/// results deterministically and emit artifacts. `loaded` holds the
/// loaded journal contents — always the durable on-disk records (never
/// in-memory `CellResult`s that skipped the serialization round
/// trip), which is what makes interrupted and uninterrupted histories
/// aggregate bit-identically. Only the records of the grid's cells
/// (`keys`) count, in aggregates and tallies alike.
fn finish(
    spec: &CampaignSpec,
    opts: &RunOptions,
    journal: &Journal,
    loaded: &LoadReport,
    keys: &[u64],
    skipped: usize,
    executed: usize,
) -> Result<RunSummary, String> {
    let records = grid_records(loaded, keys);
    let results: Vec<CellResult> = records.iter().flatten().map(|&r| r.clone()).collect();
    let total_cells = keys.len();
    let aggregates = aggregate(&results);
    // health tallies come from the durable journal, so `run` and
    // `report --health` agree by construction
    let ok_cells = count_ok(&records);
    let complete = ok_cells == total_cells;
    let failed = results.iter().filter(|r| r.failed != 0).count();
    let retried: u64 = results.iter().map(|r| r.attempts.saturating_sub(1)).sum();
    let corrupt = loaded.corrupt;
    let cache_hits = results.iter().filter(|r| r.cache_hit != 0).count();

    let dir = output_dir(spec, opts);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;

    // Artifacts carry full precision; only the printed table rounds
    // (through fmt_f) for readability.
    let csv_path = dir.join("aggregates.csv");
    write_csv(&aggregates_table(spec, &aggregates, false), &csv_path)
        .map_err(|e| format!("writing CSV: {e}"))?;
    let json_path = dir.join("aggregates.json");
    std::fs::write(&json_path, aggregates_json(&aggregates).to_string_pretty())
        .map_err(|e| format!("writing JSON: {e}"))?;

    if opts.timing {
        timing_table(spec, &results).print();
    }
    if opts.health {
        health_table(spec, &results, corrupt).print();
    }
    if opts.health || (!opts.quiet && (failed > 0 || retried > 0 || corrupt > 0)) {
        // one greppable line — the chaos-soak CI job and operators
        // watching a fleet both key off it
        eprintln!(
            "campaign {} health: ok={ok_cells} failed={failed} retried={retried} \
             corrupt={corrupt}",
            spec.name
        );
    }
    if !opts.quiet {
        aggregates_table(spec, &aggregates, true).print();
        if !complete {
            eprintln!(
                "campaign {}: partial — {ok_cells}/{total_cells} cells journaled \
                 (resume to finish)",
                spec.name
            );
        }
    }

    Ok(RunSummary {
        total_cells,
        skipped,
        executed,
        complete,
        failed,
        retried,
        corrupt,
        cache_hits,
        aggregates,
        artifacts: vec![journal.path().to_path_buf(), csv_path, json_path],
    })
}

/// The `report --health` table: per-cell robustness accounting from
/// the durable journal — quarantined cells with their error messages,
/// retry totals, and the corrupt-line tally from the load.
fn health_table(spec: &CampaignSpec, results: &[CellResult], corrupt: usize) -> Table {
    let mut table = Table::new(
        &format!("{}-health", spec.name),
        "campaign health (quarantined / retried / corrupt)",
        &["kind", "cell", "attempts", "detail"],
    );
    let mut sorted: Vec<&CellResult> = results.iter().collect();
    sorted.sort_by(|a, b| a.key.cmp(&b.key));
    for r in &sorted {
        if r.failed != 0 {
            table.row(vec![
                "quarantined".to_string(),
                r.key.clone(),
                r.attempts.to_string(),
                r.error.clone(),
            ]);
        } else if r.attempts > 1 {
            table.row(vec![
                "retried".to_string(),
                r.key.clone(),
                r.attempts.to_string(),
                "succeeded after retry".to_string(),
            ]);
        }
    }
    if corrupt > 0 {
        table.row(vec![
            "corrupt".to_string(),
            "(journal lines)".to_string(),
            corrupt.to_string(),
            "skipped on load; cells re-run on resume".to_string(),
        ]);
    }
    table
}

/// Per-phase breakdown of the journaled `phase_ms` records: one row
/// per phase (in first-seen journal order) plus the phase sum and the
/// journaled wall total — the last two rows are what the acceptance
/// check compares (phases must cover ~all of wall).
fn timing_table(spec: &CampaignSpec, results: &[CellResult]) -> Table {
    // (name, cells, total_ms), ordered by first appearance so the
    // build → fault → algo pipeline order is preserved
    let mut phases: Vec<(String, usize, f64)> = Vec::new();
    for r in results {
        for (name, ms) in &r.phase_ms {
            match phases.iter_mut().find(|(n, _, _)| n == name) {
                Some(p) => {
                    p.1 += 1;
                    p.2 += ms;
                }
                None => phases.push((name.clone(), 1, *ms)),
            }
        }
    }
    let wall_total: f64 = results.iter().map(|r| r.wall_ms).sum();
    let mut table = Table::new(
        &format!("{}-timing", spec.name),
        "per-phase wall time from journaled phase_ms",
        &["phase", "cells", "total_s", "mean_ms", "wall_pct"],
    );
    let pct = |ms: f64| fmt_f(100.0 * ms / wall_total.max(1e-12));
    let mut covered = 0.0;
    for (name, cells, total_ms) in &phases {
        covered += total_ms;
        table.row(vec![
            name.clone(),
            cells.to_string(),
            fmt_f(total_ms / 1e3),
            fmt_f(total_ms / (*cells).max(1) as f64),
            pct(*total_ms),
        ]);
    }
    let n = results.len();
    table.row(vec![
        "(phases)".to_string(),
        n.to_string(),
        fmt_f(covered / 1e3),
        fmt_f(covered / n.max(1) as f64),
        pct(covered),
    ]);
    table.row(vec![
        "(wall)".to_string(),
        n.to_string(),
        fmt_f(wall_total / 1e3),
        fmt_f(wall_total / n.max(1) as f64),
        "100".to_string(),
    ]);
    table
}

/// Renders aggregates in long form: one row per `(group, metric)`.
/// `rounded` picks the compact display format (stdout) over the exact
/// shortest-round-trip format (CSV artifact).
fn aggregates_table(spec: &CampaignSpec, aggregates: &[GroupAggregate], rounded: bool) -> Table {
    let num = |x: f64| if rounded { fmt_f(x) } else { format!("{x}") };
    let mut table = Table::new(
        &spec.name,
        &format!("campaign aggregates ({} replicates)", spec.replicates),
        &["cell", "metric", "n", "mean", "std", "ci95"],
    );
    for a in aggregates {
        table.row(vec![
            a.group.clone(),
            a.metric.clone(),
            a.stats.count.to_string(),
            num(a.stats.mean()),
            num(a.stats.std()),
            num(a.stats.ci95_half_width()),
        ]);
    }
    table
}

/// Full-precision JSON artifact: one object per `(group, metric)`.
fn aggregates_json(aggregates: &[GroupAggregate]) -> fx_json::Json {
    use fx_json::Json;
    Json::Arr(
        aggregates
            .iter()
            .map(|a| {
                Json::Obj(vec![
                    ("cell".to_string(), Json::Str(a.group.clone())),
                    ("metric".to_string(), Json::Str(a.metric.clone())),
                    ("n".to_string(), Json::UInt(a.stats.count)),
                    ("mean".to_string(), Json::Num(a.stats.mean())),
                    ("std".to_string(), Json::Num(a.stats.std())),
                    ("ci95".to_string(), Json::Num(a.stats.ci95_half_width())),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const ENGINE_TEST: &str = r#"
name = "engine-test"
seed = 5
replicates = 2
graphs = ["torus:5,5", "cycle:16"]
faults = ["none", "random-exact:3"]
algorithms = ["expansion-cert"]
"#;

    /// The campaign `text`, writing into `dir`.
    fn parse_in(text: &str, dir: &Path) -> CampaignSpec {
        let mut spec = CampaignSpec::parse(text).unwrap();
        spec.output = dir.to_path_buf();
        spec
    }

    fn spec_in(dir: &Path) -> CampaignSpec {
        parse_in(ENGINE_TEST, dir)
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fx-campaign-engine-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn run_executes_grid_and_writes_artifacts() {
        let dir = temp_dir("full");
        let spec = spec_in(&dir);
        let opts = RunOptions {
            threads: 2,
            quiet: true,
            ..Default::default()
        };
        let summary = run(&spec, &opts).unwrap();
        assert_eq!(summary.total_cells, 8);
        assert_eq!(summary.executed, 8);
        assert_eq!(summary.skipped, 0);
        assert!(summary.complete);
        assert!(!summary.aggregates.is_empty());
        for artifact in &summary.artifacts {
            assert!(artifact.exists(), "{}", artifact.display());
        }
        // a second run is a no-op
        let again = run(&spec, &opts).unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.skipped, 8);
        assert_eq!(again.aggregates, summary.aggregates);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Churn-trace recording and the offline curve solve are part of
    /// the determinism contract: the same campaign run at 1 and 2
    /// threads aggregates bit-identically, curve metrics included.
    #[test]
    fn churn_trace_curves_are_thread_count_deterministic() {
        let spec_in = |dir: &std::path::Path| {
            let mut spec = CampaignSpec::parse(
                r#"
name = "trace-det"
seed = 9
replicates = 2
graphs = [
    "overlay:2,40,churn=60,sessions=pareto:1.5",
    "overlay:3,32,churn=40,depart=degree",
]
faults = ["random:0.1"]
algorithms = ["expansion-cert"]
"#,
            )
            .unwrap();
            spec.output = dir.to_path_buf();
            spec
        };
        let dirs = [temp_dir("trace-det-1"), temp_dir("trace-det-2")];
        let runs: Vec<_> = dirs
            .iter()
            .zip([1usize, 2])
            .map(|(dir, threads)| {
                run(
                    &spec_in(dir),
                    &RunOptions {
                        threads,
                        quiet: true,
                        ..Default::default()
                    },
                )
                .unwrap()
            })
            .collect();
        assert_eq!(
            runs[0].aggregates, runs[1].aggregates,
            "trace curves must not depend on the thread count"
        );
        for metric in [
            "gamma_half_life",
            "min_gamma_t",
            "gamma_auc_t",
            "trace_events",
        ] {
            assert!(
                runs[0].aggregates.iter().any(|a| a.metric == metric),
                "{metric} aggregated"
            );
        }
        for d in &dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn sharded_runs_partition_and_merge_to_the_full_campaign() {
        let dir_full = temp_dir("shard-full");
        let spec_full = spec_in(&dir_full);
        let full = run(
            &spec_full,
            &RunOptions {
                threads: 2,
                quiet: true,
                ..Default::default()
            },
        )
        .unwrap();

        let shards = 2usize;
        let mut shard_dirs = Vec::new();
        let mut shard_total = 0usize;
        for i in 0..shards {
            let dir = temp_dir(&format!("shard-{i}"));
            let spec = spec_in(&dir);
            let summary = run(
                &spec,
                &RunOptions {
                    threads: 2,
                    quiet: true,
                    shard: Some((i, shards)),
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(summary.complete, "each shard completes its slice");
            shard_total += summary.total_cells;
            shard_dirs.push(dir);
        }
        assert_eq!(shard_total, full.total_cells, "shards partition the grid");

        // merge the shard journals and report: identical aggregates
        let merged_dir = temp_dir("shard-merged");
        let inputs: Vec<PathBuf> = shard_dirs.iter().map(|d| d.join("journal.jsonl")).collect();
        let merged =
            crate::journal::merge_journals(&inputs, &merged_dir.join("journal.jsonl")).unwrap();
        assert_eq!(merged.unique, full.total_cells);
        let spec_merged = spec_in(&merged_dir);
        let reported = report(
            &spec_merged,
            &RunOptions {
                quiet: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(reported.complete);
        assert_eq!(
            reported.aggregates, full.aggregates,
            "sharded + merged must aggregate bit-identically"
        );

        // out-of-range shard is rejected
        assert!(run(
            &spec_full,
            &RunOptions {
                shard: Some((2, 2)),
                quiet: true,
                ..Default::default()
            }
        )
        .is_err());

        for d in shard_dirs.iter().chain([&dir_full, &merged_dir]) {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    /// A campaign with a pathological cell (exact span on torus:4,5,
    /// which enumerates for about a second) and a quick cell: with
    /// `timeout_ms` the pathological cell is journaled as timed out
    /// and the campaign still completes.
    #[test]
    fn timeout_cell_is_journaled_and_campaign_completes() {
        let dir = temp_dir("timeout");
        let mut spec = CampaignSpec::parse(
            r#"
name = "timeout-engine"
[grid-quick]
graphs = ["cycle:10"]
algorithms = ["span"]
[grid-pathological]
graphs = ["torus:4,5"]
algorithms = ["span"]
[params]
timeout_ms = 50
"#,
        )
        .unwrap();
        spec.output = dir.clone();
        let summary = run(
            &spec,
            &RunOptions {
                threads: 2,
                quiet: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(summary.complete, "timed-out cells must not block the run");
        assert_eq!(summary.executed, 2);
        let journal = journal_for(&spec, &RunOptions::default());
        let results = journal.load().unwrap();
        let torus = results.iter().find(|r| r.graph == "torus:4,5").unwrap();
        assert_eq!(torus.metric("timed_out"), Some(1.0));
        let cycle = results.iter().find(|r| r.graph == "cycle:10").unwrap();
        assert_eq!(cycle.metric("timed_out"), None, "fast cell unaffected");
        assert_eq!(cycle.metric("exhaustive"), Some(1.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn quiet(threads: usize) -> RunOptions {
        RunOptions {
            threads,
            quiet: true,
            ..Default::default()
        }
    }

    /// Runs the campaign `text`, then `changed` into the same
    /// directory, and checks that the second run re-executes every
    /// cell and aggregates exactly like a fresh run of `changed`.
    fn assert_change_reruns_every_cell(name: &str, text: &str, changed: &str) {
        let dir = temp_dir(name);
        let fresh_dir = temp_dir(&format!("{name}-fresh"));
        let first = run(&parse_in(text, &dir), &quiet(2)).unwrap();
        let rerun = run(&parse_in(changed, &dir), &quiet(2)).unwrap();
        assert_eq!((rerun.skipped, rerun.executed), (0, first.total_cells));
        let fresh = run(&parse_in(changed, &fresh_dir), &quiet(1)).unwrap();
        assert_ne!(
            first.aggregates, fresh.aggregates,
            "the change moves results"
        );
        assert_eq!(rerun.aggregates, fresh.aggregates);
        let reported = report(&parse_in(changed, &dir), &quiet(1)).unwrap();
        assert_eq!(reported.aggregates, fresh.aggregates);
        for d in [&dir, &fresh_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    /// A record journaled under another campaign seed is another
    /// cell's: it never stands in for a cell of this seed.
    #[test]
    fn seed_change_reruns_every_cell() {
        let reseeded = ENGINE_TEST.replace("seed = 5", "seed = 999");
        assert_change_reruns_every_cell("reseed", ENGINE_TEST, &reseeded);
    }

    /// Likewise for a record made with another result-affecting
    /// parameter (Theorem 2.1's `k` here).
    #[test]
    fn param_change_reruns_every_cell() {
        let text = ENGINE_TEST.replace("expansion-cert", "prune");
        let changed = format!("{text}[params]\nk = 3.0\n");
        assert_change_reruns_every_cell("param-k", &text, &changed);
    }

    /// A run leaves exactly its grid's records in the journal: a
    /// reseeded run into the same directory replaces the other seed's
    /// lines instead of appending beside them, and switching back
    /// re-runs the first seed's cells.
    #[test]
    fn reseeded_run_leaves_only_its_grids_records() {
        let dir = temp_dir("reseed-lines");
        let lines = || {
            let text = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
            text.lines().count()
        };
        let reseeded = ENGINE_TEST.replace("seed = 5", "seed = 999");
        run(&parse_in(ENGINE_TEST, &dir), &quiet(2)).unwrap();
        let rerun = run(&parse_in(&reseeded, &dir), &quiet(2)).unwrap();
        assert_eq!((rerun.executed, lines()), (8, 8));
        let back = run(&parse_in(ENGINE_TEST, &dir), &quiet(2)).unwrap();
        assert_eq!((back.skipped, back.executed, lines()), (0, 8, 8));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Shards run one after the other into one directory keep each
    /// other's records: the journal holds the whole grid's.
    #[test]
    fn shards_run_into_one_directory_keep_each_others_records() {
        let dir = temp_dir("shards-one-dir");
        let spec = spec_in(&dir);
        for i in 0..2 {
            let opts = RunOptions {
                shard: Some((i, 2)),
                ..quiet(1)
            };
            run(&spec, &opts).unwrap();
        }
        let reported = report(&spec, &quiet(1)).unwrap();
        assert!(reported.complete);
        assert_eq!(reported.skipped, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Records of cells the grid no longer holds are neither counted
    /// nor aggregated, by `report` or by `run`.
    #[test]
    fn shrunk_grid_aggregates_only_its_own_cells() {
        let dir = temp_dir("shrunk");
        run(&spec_in(&dir), &quiet(2)).unwrap();
        let shrink = |dir: &Path| {
            let mut spec = spec_in(dir);
            spec.grids[0].graphs.retain(|g| g != "cycle:16");
            spec
        };
        let fresh_dir = temp_dir("shrunk-fresh");
        let fresh = run(&shrink(&fresh_dir), &quiet(1)).unwrap();
        assert!(fresh.aggregates.iter().all(|a| !a.group.contains("cycle")));
        let reported = report(&shrink(&dir), &quiet(1)).unwrap();
        assert_eq!((reported.total_cells, reported.skipped), (4, 4));
        assert!(reported.complete);
        assert_eq!(reported.aggregates, fresh.aggregates);
        let rerun = run(&shrink(&dir), &quiet(2)).unwrap();
        assert_eq!((rerun.skipped, rerun.executed), (4, 0));
        assert_eq!(rerun.aggregates, fresh.aggregates);
        for d in [&dir, &fresh_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    /// A corrupt interior line is gone once a run has re-run its cell:
    /// the journal holds one line per cell, and neither the run nor a
    /// later report finds corruption left for `--strict` to fail on.
    #[test]
    fn run_drops_corrupt_lines_after_rerunning_their_cells() {
        let dir = temp_dir("repair");
        let spec = spec_in(&dir);
        let clean = run(&spec, &quiet(2)).unwrap();
        let path = dir.join("journal.jsonl");
        let mut lines: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        // flip one digit inside line 4's metrics
        let line = &mut lines[3];
        let metrics = line.find("\"metrics\"").unwrap();
        let at = metrics + line[metrics..].find(|c: char| c.is_ascii_digit()).unwrap();
        let flipped = if &line[at..=at] == "1" { "2" } else { "1" };
        line.replace_range(at..=at, flipped);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let resumed = run(&spec, &quiet(2)).unwrap();
        assert_eq!((resumed.skipped, resumed.executed), (7, 1));
        assert_eq!(resumed.corrupt, 0);
        assert!(resumed.complete);
        assert_eq!(resumed.aggregates, clean.aggregates);
        let reported = report(&spec, &quiet(1)).unwrap();
        assert_eq!((reported.corrupt, reported.skipped), (0, 8));
        let journal = std::fs::read_to_string(&path).unwrap();
        assert_eq!(journal.lines().count(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn limit_executes_prefix_and_report_never_executes() {
        let dir = temp_dir("limit");
        let spec = spec_in(&dir);
        let opts = RunOptions {
            threads: 1,
            limit: Some(3),
            quiet: true,
            ..Default::default()
        };
        let partial = run(&spec, &opts).unwrap();
        assert_eq!(partial.executed, 3);
        assert!(!partial.complete);
        let reported = report(
            &spec,
            &RunOptions {
                quiet: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(reported.executed, 0);
        assert_eq!(reported.skipped, 3);
        assert!(!reported.complete);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store hit is journaled under this campaign's identity for the
    /// cell, whatever spelling the storing campaign used, and keeps the
    /// stored outcome; a record that should never have been published
    /// is a miss.
    #[test]
    fn store_hits_take_the_cells_identity_and_keep_the_stored_outcome() {
        let dir = temp_dir("store-lookup");
        let store = fx_store::Store::open(&dir).unwrap();
        let cell = &expand(&spec_in(&dir)).unwrap()[3];
        let stored = CellResult {
            key: "elsewhere|none|expansion-cert|r9".into(),
            graph: "elsewhere".into(),
            metrics: vec![("x".into(), 1.5)],
            wall_ms: 4.0,
            phase_ms: vec![("algo".into(), 3.5)],
            attempts: 3,
            ..CellResult::default()
        };
        store.put(1, &fx_json::to_string(&stored)).unwrap();
        let quarantined = CellResult {
            failed: 1,
            ..stored.clone()
        };
        store.put(2, &fx_json::to_string(&quarantined)).unwrap();
        store.put(3, "not a record").unwrap();

        let hit = store_lookup(&store, cell, 1).unwrap();
        let want = CellResult {
            key: cell.key(),
            graph: cell.graph.clone(),
            fault: cell.fault.to_string(),
            algo: cell.algo.to_string(),
            replicate: cell.replicate,
            seed: cell.seed,
            cache_hit: 1,
            ..stored
        };
        assert_eq!(hit, want);
        for miss in [2, 3, 4] {
            assert_eq!(store_lookup(&store, cell, miss), None, "key {miss}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
