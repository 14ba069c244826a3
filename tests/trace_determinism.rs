//! Tracing must be an observer, not a participant: running the same
//! campaign with `FXNET_TRACE` fully on (every target at the finest
//! level) must produce **bit-identical** aggregate artifacts to a run
//! with tracing off, at any thread count. Telemetry that perturbs the
//! measurement it reports would be worse than none.

use fault_expansion::campaign::{run, CampaignSpec, RunOptions};
use std::path::PathBuf;

const GRID: &str = r#"
name = "trace-det"
seed = 1234
replicates = 2
graphs = ["torus:6,6", "hypercube:3"]
faults = ["none", "random:0.1"]
algorithms = ["prune", "expansion-cert"]
"#;

fn run_with(tag: &str, filter: &str, threads: usize) -> (PathBuf, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!("fx-trace-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = CampaignSpec::parse(GRID).unwrap();
    spec.output = dir.clone();
    fx_trace::set_filter(filter);
    let summary = run(
        &spec,
        &RunOptions {
            quiet: true,
            threads,
            ..Default::default()
        },
    )
    .unwrap();
    fx_trace::set_filter("off");
    assert!(summary.complete, "{tag}: campaign must complete");
    let aggregates = std::fs::read(dir.join("aggregates.json"))
        .unwrap_or_else(|e| panic!("{tag}: aggregates.json: {e}"));
    (dir, aggregates)
}

#[test]
fn aggregates_bit_identical_with_tracing_on_and_off() {
    let (off, baseline) = run_with("off", "off", 2);
    for threads in [1usize, 2] {
        let (dir, traced) = run_with(&format!("on-t{threads}"), "all=2", threads);
        assert_eq!(
            baseline, traced,
            "aggregates diverge with tracing on at threads={threads}"
        );
        // and the traced run actually traced: the sink artifacts
        // exist and are non-empty
        for sink in ["trace.jsonl", "trace.chrome.json"] {
            let meta = std::fs::metadata(dir.join(sink))
                .unwrap_or_else(|e| panic!("threads={threads}: {sink}: {e}"));
            assert!(meta.len() > 0, "threads={threads}: {sink} is empty");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(off);
}
