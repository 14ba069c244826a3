//! `catbench` — runs one workload of the catalog benchmark.
//!
//! ```text
//! catbench --workload <span_sampled|catalog_fast|serve_mixed> --seed <n>
//!          --seconds <s> --trace <0|1>
//! catbench record --workload <span_sampled|catalog_fast> --seeds <a>-<b>
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! the result object (`correct`, `attempted`, `failed`, `metrics`);
//! standard error carries a readable summary, and
//! `.catbench/<workload>/` keeps the result with its provenance, the
//! campaign artifacts and, for traced runs, every span. `record`
//! writes the reference digests of the given seeds into
//! `catbench/golden.json`.

use fx_catbench::{catalog, run, Args, Outcome, Workload};
use fx_json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("record") {
        record(&argv[1..])
    } else {
        bench(&argv)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("catbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The value after `--name`.
fn flag<'a>(argv: &'a [String], name: &str) -> Result<&'a str, String> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn parsed<T: std::str::FromStr>(argv: &[String], name: &str) -> Result<T, String> {
    let raw = flag(argv, name)?;
    raw.parse()
        .map_err(|_| format!("{name}: cannot parse `{raw}`"))
}

fn bench(argv: &[String]) -> Result<(), String> {
    let trace: u8 = parsed(argv, "--trace")?;
    let seconds: f64 = parsed(argv, "--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 || trace > 1 {
        return Err("--seconds must be positive and --trace 0 or 1".to_string());
    }
    let args = Args {
        workload: Workload::parse(flag(argv, "--workload")?)?,
        seed: parsed(argv, "--seed")?,
        seconds,
        trace: trace == 1,
        root: PathBuf::from("."),
    };
    let outcome = run(&args)?;
    let result = outcome.result_json(args.trace);
    summarize(&args, &outcome);
    let path = fx_catbench::run_dir(&args.root, args.workload)
        .join(format!("result-seed{}-trace{}.json", args.seed, trace));
    std::fs::write(
        &path,
        record_json(&args, &outcome, &result).to_string_pretty() + "\n",
    )
    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{}", fx_json::to_string(&result));
    Ok(())
}

/// The result plus provenance, every metric measured and every error.
fn record_json(args: &Args, outcome: &Outcome, result: &Json) -> Json {
    let p = &outcome.provenance;
    let s = |v: &str| Json::Str(v.to_string());
    Json::Obj(vec![
        ("workload".to_string(), s(args.workload.name())),
        ("seed".to_string(), Json::UInt(args.seed)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("git_rev".to_string(), s(&p.git_rev)),
        ("source_digest".to_string(), s(&p.source_digest)),
        ("host_fingerprint".to_string(), s(&p.host_fingerprint)),
        ("nproc".to_string(), Json::UInt(p.nproc as u64)),
        ("threads".to_string(), Json::UInt(catalog::THREADS as u64)),
        ("result".to_string(), result.clone()),
        (
            "all_metrics".to_string(),
            Json::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (name.to_string(), Json::Arr(vec![Json::Num(value), s(unit)]))
                    })
                    .collect(),
            ),
        ),
        (
            "errors".to_string(),
            Json::Arr(outcome.errors.iter().map(|e| s(e)).collect()),
        ),
    ])
}

fn summarize(args: &Args, outcome: &Outcome) {
    let p = &outcome.provenance;
    eprintln!(
        "catbench {} seed={} trace={} rev={} src={} host={} nproc={} threads={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        p.git_rev,
        p.source_digest,
        p.host_fingerprint,
        p.nproc,
        catalog::THREADS
    );
    for (name, value, unit) in outcome.metrics.iter() {
        eprintln!("  {name:<32} {value:>14.6} {unit}");
    }
    eprintln!(
        "  attempted={} failed={} error_rate={}",
        outcome.attempted,
        outcome.errors.len(),
        outcome.error_rate()
    );
    for e in outcome.errors.iter().take(20) {
        eprintln!("  error: {e}");
    }
}

fn record(argv: &[String]) -> Result<(), String> {
    let workload = Workload::parse(flag(argv, "--workload")?)?;
    let kind = workload
        .campaign_kind()
        .ok_or("serve_mixed checks itself; nothing to record")?;
    let seeds = flag(argv, "--seeds")?;
    let (lo, hi) = seeds
        .split_once('-')
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
        .ok_or("--seeds takes <a>-<b>")?;
    let root = PathBuf::from(".");
    let out = catalog::out_dir(&fx_catbench::run_dir(&root, workload));
    let golden = root.join("catbench").join("golden.json");
    for seed in lo..=hi {
        let specs = catalog::setup(&root, kind, seed)?;
        let rep = catalog::run_rep(kind, &specs, &out)?;
        let errors = catalog::check_rep(&rep, None);
        if !errors.is_empty() {
            return Err(format!("seed {seed}: {}", errors.join("; ")));
        }
        catalog::record_golden(&golden, kind, seed, &catalog::digests(&rep))?;
        eprintln!(
            "recorded {} seed {seed} ({:.1} s)",
            kind.name(),
            rep.wall_s()
        );
    }
    Ok(())
}
