//! `fxnet` — the fault-expansion toolkit on the command line.
//!
//! The analyses run as campaign cells: `campaign` runs a spec's grid,
//! `serve` answers cell queries over HTTP, and `cell` runs one cell and
//! prints the body `GET /v1/cell` returns for it. `theory` prints the
//! paper's closed-form bounds for one network.
//!
//! ```sh
//! fxnet cell      --spec specs/quick.toml --scenario torus:8,8 --algo prune
//! fxnet cell      --spec specs/quick.toml --scenario mesh:4,4 --algo span
//! fxnet theory    --graph torus:16,16 --sigma 2
//! fxnet campaign  run --spec specs/random_faults.toml --threads 8
//! fxnet campaign  resume --spec specs/random_faults.toml
//! fxnet campaign  report --spec specs/random_faults.toml
//! fxnet campaign  run --spec specs/span.toml --shard 0/4 --out shard0
//! fxnet campaign  merge --out journal.jsonl shard0/journal.jsonl shard1/journal.jsonl
//! ```

mod args;

use args::{parse_graph_spec, parse_shard, Args};
use fx_campaign::{CampaignSpec, RunOptions};
use fx_core::{theory_table, Network};
use fx_expansion::certificate::{node_expansion_bounds, Effort};
use fx_graph::par::CancelToken;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::process::ExitCode;

/// `println!` that tolerates a closed stdout (e.g. piping into
/// `head`) instead of panicking on SIGPIPE.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

const USAGE: &str = "fxnet <command> [options]

commands:
  cell       --spec FILE --scenario S [--fault F] --algo A [--replicate N]
                                                run one cell under the spec's
                                                [params] and print the body
                                                GET /v1/cell returns for it
                                                (byte for byte; the store is
                                                not consulted)
  theory     --graph SPEC [--sigma S]           the paper's bounds for this network
  campaign   run|resume --spec FILE [--threads N] [--limit N] [--out DIR]
                        [--shard I/M] [--quiet] [--timing] [--strict] [--health]
             report     --spec FILE [--out DIR] [--timing] [--health]
             check      --spec FILE             parse + validate + expand + cost
                                                estimate, run nothing
             merge      --out FILE [--require-complete] JOURNAL...
                                                declarative scenario campaigns
                                                (journaled, resumable, parallel;
                                                 --shard partitions cells across
                                                 machines, merge recombines the
                                                 shard journals — missing shard
                                                 files warn unless
                                                 --require-complete; --timing
                                                 prints the per-phase breakdown
                                                 of the journaled phase_ms
                                                 records; --strict exits
                                                 non-zero if any cell stayed
                                                 quarantined or any journal
                                                 record was corrupt; --health
                                                 prints the failed/retried/
                                                 corrupt-cell table)
  serve      --spec FILE [--addr HOST:PORT] [--http-threads N]
             [--compute-threads N] [--queue-cap N] [--timeout-ms MS]
                                                memoizing HTTP cell-query daemon:
                                                GET /v1/cell?scenario=S&fault=F&
                                                algo=A[&replicate=N] (plus
                                                /v1/health, /v1/stats). Warm
                                                queries answer from the spec's
                                                [params] store; misses are
                                                single-flighted through a bounded
                                                priority queue and published back
                                                to the store. A full queue answers
                                                429 + Retry-After instead of
                                                accepting unbounded work.

global:     --threads N   worker threads (or FXNET_THREADS; default: cores, ≤ 16)
resilience: panicking cells retry up to [params] retries times (default 2),
            then are quarantined: journaled failed=1, excluded from aggregates,
            re-attempted on the next resume. Journal records are checksummed;
            corrupt records are skipped on resume, those cells re-run, and
            the run rewrites the journal without the corrupt records.
            FXNET_JOURNAL_SYNC=N  fsync the journal and every cell-store shard
            every N records (default 64; 0 disables periodic sync — faster, but
            a power loss can lose up to one OS write-back window of finished
            cells; they simply re-run)
store:      [params] store = DIR  content-addressed cell-result store: campaign
            runs and `serve` publish successful cells and later overlapping runs
            are served from it (journaled cache_hit=1, bit-identical aggregates)
chaos:      FXNET_CHAOS=site:p,...  deterministic fault injection for testing
            the resilience path (sites: cell_panic, io_error, slow[:p,ms],
            store_io; seed:N reseeds decisions). Example:
            FXNET_CHAOS=cell_panic:0.2,io_error:0.05,slow:0.1,5,seed:7
curves:     [params] churn_curves = dyncon|oracle  survival-curve engine for
            churn cells (dyncon: offline segment-tree + rollback-union-find
            solve of the recorded trace; oracle: per-snapshot re-sweeps, same
            bits, O(ops·(V+E)))
tracing:    FXNET_TRACE=target[=level],...  structured telemetry (targets: par,
            campaign, cell, overlay, percolation, faults, chaos, dyncon, serve,
            store, span; `all`;
            level 2 adds hot-path histograms). Traced campaign runs write
            trace.jsonl + trace.chrome.json next to the journal.

graph SPEC: torus:16,16 | mesh:8,8,8 | hypercube:10 | butterfly:8 |
            debruijn:10 | shuffle-exchange:10 | margulis:32 |
            random-regular:1024,4 | cycle:100 | complete:64 |
            smallworld:1024,6,0.1 (Watts–Strogatz)
   derived: subdivided:200,4,8 (Thm 2.3 H_k) |
            overlay:2,256,churn=400[,sessions=pareto:1.5][,depart=degree] (§4 CAN)
fault SPEC: none | random:p | random-exact:f | adversarial:f | degree:f |
            chain-centers[:f] | targeted:frac[,by=degree|core|degree-adaptive] |
            clustered:f,r[,centers=degree|core] | heavy-tailed:p,alpha
                                       (the fx-faults registry grammar)";

fn main() -> ExitCode {
    fx_trace::init_from_env();
    fx_chaos::init_from_env();
    let parsed = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // a --strict campaign failure is an operational outcome,
            // not a usage mistake — don't bury it under the help text
            if e.starts_with("--strict:") {
                eprintln!("error: {e}");
            } else {
                eprintln!("error: {e}\n\n{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

fn build_network(args: &Args) -> Result<(Network, u64), String> {
    let spec = args.get("graph").ok_or("missing --graph")?;
    let scenario = parse_graph_spec(spec)?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    Ok((scenario.build(seed).net, seed))
}

/// `fxnet cell`: resolves and runs one cell the way a `GET /v1/cell`
/// miss does, and prints the response body without a trailing newline.
fn run_one_cell(args: &Args) -> Result<(), String> {
    let spec_path = args.get("spec").ok_or("missing --spec FILE")?;
    let spec = CampaignSpec::load(std::path::Path::new(spec_path))?;
    let cell = fx_campaign::resolve_cell(
        &spec,
        &fx_campaign::index_cells(&spec)?,
        args.get("scenario").ok_or("missing --scenario S")?,
        args.get("fault").unwrap_or("none"),
        args.get("algo").ok_or("missing --algo A")?,
        args.get_parsed("replicate", 0)?,
    )?;
    let result = fx_campaign::compute_cell(&spec, &cell, &CancelToken::new())?;
    use std::io::Write as _;
    let _ = write!(
        std::io::stdout(),
        "{}",
        fx_campaign::cell_body(&cell, &result)
    );
    Ok(())
}

fn merge_campaign_journals(args: &Args) -> Result<(), String> {
    let mut inputs: Vec<std::path::PathBuf> = args
        .positionals
        .iter()
        .skip(1)
        .map(std::path::PathBuf::from)
        .collect();
    // `--require-complete JOURNAL…` greedily captures the first path
    // as the flag's "value" in the bare-bones parser; reclaim it.
    let require_complete =
        args.has_flag("require-complete") || args.get("require-complete").is_some();
    if let Some(captured) = args.get("require-complete") {
        inputs.insert(0, std::path::PathBuf::from(captured));
    }
    if inputs.is_empty() {
        return Err("campaign merge requires at least one journal path".into());
    }
    let out = std::path::PathBuf::from(args.get("out").ok_or("missing --out FILE")?);
    let summary = fx_campaign::merge_journals_checked(&inputs, &out, require_complete)?;
    outln!(
        "merged {} journal(s): {} result lines, {} unique cells → {}{}",
        inputs.len() - summary.missing.len(),
        summary.read,
        summary.unique,
        out.display(),
        if summary.missing.is_empty() {
            String::new()
        } else {
            format!(" ({} shard journal(s) missing)", summary.missing.len())
        }
    );
    Ok(())
}

fn run_campaign(args: &Args) -> Result<(), String> {
    let action = args
        .positionals
        .first()
        .map(String::as_str)
        .ok_or("campaign requires an action: run | resume | report | check | merge")?;
    if action == "merge" {
        return merge_campaign_journals(args);
    }
    if let Some(extra) = args.positionals.get(1) {
        return Err(format!("unexpected positional argument: {extra}"));
    }
    let spec_path = args.get("spec").ok_or("missing --spec FILE")?;
    let spec = CampaignSpec::load(std::path::Path::new(spec_path))?;
    if action == "check" {
        // parse + validate + expand (duplicate-cell detection), run
        // nothing: the CI `spec-check` step runs this over every
        // committed spec so a grammar change can never silently
        // orphan one
        let cells = fx_campaign::expand(&spec)?;
        outln!(
            "spec OK: campaign {} — {} grid(s), {} cells ({} replicates)",
            spec.name,
            spec.grids.len(),
            cells.len(),
            spec.replicates
        );
        // rough cost estimate: cells × effective per-cell samples
        // (the grid's override, else the campaign default), so users
        // can size --shard / --threads before paying for a run
        let mut total_work: u64 = 0;
        for (gi, grid) in spec.grids.iter().enumerate() {
            let eff = spec.params.with_overrides(&grid.overrides);
            let grid_cells = cells.iter().filter(|c| c.grid == gi).count();
            let work = grid_cells as u64 * eff.samples as u64;
            total_work += work;
            outln!(
                "  [{}] {} scenario(s) × {} fault(s) × {} algorithm(s) — {} cells × {} samples ≈ {} work units",
                grid.label,
                grid.graphs.len(),
                grid.faults.len(),
                grid.algorithms.len(),
                grid_cells,
                eff.samples,
                work
            );
            // churn cells additionally record a zone-adjacency event
            // trace and pay one offline survival-curve pass over it:
            // a join/depart touches the new/departing owner plus its
            // ≈ 2·dim zone neighbors twice (off + retarget), so
            // ≈ 4·dim + 2 events per op
            for graph in &grid.graphs {
                if let Ok(fx_core::Scenario::Overlay { dim, churn, .. }) =
                    fx_core::Scenario::from_spec(graph)
                {
                    if churn > 0 {
                        let per_op = 4 * dim as u64 + 2;
                        outln!(
                            "      churn trace: {graph} ≈ {} events per cell \
                             ({churn} ops × ≈{per_op} events/op) for the \
                             survival-curve engine (churn_curves = \"{}\")",
                            churn as u64 * per_op,
                            eff.churn_curves
                        );
                    }
                }
            }
        }
        outln!(
            "cost estimate: {} cells, ≈ {} work units (cells × samples; \
             split across shards with --shard I/M)",
            cells.len(),
            total_work
        );
        return Ok(());
    }
    let opts = RunOptions {
        threads: args.get_parsed("threads", 0usize)?,
        limit: match args.get("limit") {
            None => None,
            Some(_) => Some(args.get_parsed("limit", 0usize)?),
        },
        quiet: args.has_flag("quiet"),
        output: args.get("out").map(std::path::PathBuf::from),
        shard: args.get("shard").map(parse_shard).transpose()?,
        timing: args.has_flag("timing"),
        health: args.has_flag("health"),
    };
    let strict = args.has_flag("strict");
    let summary = match action {
        // `resume` IS `run` — a run that finds journaled cells skips
        // them; the alias exists so intent reads clearly in scripts.
        "run" | "resume" => fx_campaign::run(&spec, &opts)?,
        "report" => fx_campaign::report(&spec, &opts)?,
        other => return Err(format!("unknown campaign action: {other}")),
    };
    // `let _ =`: tolerate a closed stdout (e.g. piping into `head`)
    // like `outln!`, instead of panicking on SIGPIPE.
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(
        out,
        "campaign {}: {} cells — {} journaled, {} executed{}",
        spec.name,
        summary.total_cells,
        summary.skipped,
        summary.executed,
        if summary.complete {
            ", complete"
        } else {
            ", PARTIAL"
        }
    );
    for artifact in &summary.artifacts {
        let _ = writeln!(out, "  artifact: {}", artifact.display());
    }
    // --strict: a campaign that *completed* but left quarantined cells
    // or skipped corrupt journal records is a failure for CI purposes,
    // even though the engine degraded gracefully and produced
    // aggregates over everything that did succeed.
    if strict && (summary.failed > 0 || summary.corrupt > 0 || !summary.complete) {
        return Err(format!(
            "--strict: campaign {} left {} quarantined cell(s), {} corrupt \
             journal record(s){}",
            spec.name,
            summary.failed,
            summary.corrupt,
            if summary.complete {
                ""
            } else {
                "; grid is incomplete"
            }
        ));
    }
    Ok(())
}

fn run_serve(args: &Args) -> Result<(), String> {
    let spec_path = args.get("spec").ok_or("missing --spec FILE")?;
    let spec = CampaignSpec::load(std::path::Path::new(spec_path))?;
    let defaults = fx_campaign::ServeOptions::default();
    let opts = fx_campaign::ServeOptions {
        addr: args.get("addr").unwrap_or(&defaults.addr).to_string(),
        http_threads: args.get_parsed("http-threads", defaults.http_threads)?,
        compute_threads: args.get_parsed("compute-threads", defaults.compute_threads)?,
        queue_cap: args.get_parsed("queue-cap", defaults.queue_cap)?,
        request_timeout_ms: args.get_parsed("timeout-ms", defaults.request_timeout_ms)?,
    };
    let cells = fx_campaign::expand(&spec)?.len();
    let server = fx_campaign::serve(&spec, &opts)?;
    outln!(
        "fxnet serve: campaign {} on http://{} — {} grid cell(s), store {}",
        spec.name,
        server.addr(),
        cells,
        match &spec.params.store {
            Some(dir) => dir.display().to_string(),
            None => "off (every query recomputes)".to_string(),
        }
    );
    server.join();
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    // only `campaign` takes a trailing action word; a stray positional
    // anywhere else is a mistyped invocation, not something to ignore
    if args.command.as_deref() != Some("campaign") {
        if let Some(extra) = args.positionals.first() {
            return Err(format!("unexpected positional argument: {extra}"));
        }
    }
    match args.command.as_deref() {
        Some("serve") => run_serve(args),
        Some("cell") => run_one_cell(args),
        Some("theory") => {
            let (net, seed) = build_network(args)?;
            let sigma: f64 = args.get_parsed("sigma", 2.0)?;
            let mut rng = SmallRng::seed_from_u64(seed);
            let full = net.full_mask();
            let a = node_expansion_bounds(&net.graph, &full, Effort::Auto, &mut rng);
            let t = theory_table(net.n(), net.max_degree(), a.upper.min(1e6), sigma);
            outln!("{} (α upper bound {:.4}, σ = {sigma}):", net.name, a.upper);
            outln!(
                "  Thm 2.1 max adversarial faults (k=2): {:.1}",
                t.thm21_max_faults_k2
            );
            outln!(
                "  Thm 3.4 max fault probability:        {:.3e}",
                t.thm34_max_p
            );
            outln!(
                "  Thm 3.4 ε ceiling:                    {:.4}",
                t.thm34_max_epsilon
            );
            outln!(
                "  Thm 3.4 αe floor:                     {:.4}",
                t.thm34_min_alpha_e
            );
            outln!(
                "  §4 diameter bound α⁻¹·ln n:           {:.1}",
                t.diameter_bound
            );
            Ok(())
        }
        Some("campaign") => run_campaign(args),
        Some(other) => Err(format!("unknown command: {other}")),
        None => Err("missing command".into()),
    }
}
