//! The engine must be invisible in campaign artifacts: the same
//! percolation campaign run at 1 and 2 worker threads must write
//! **byte-identical** `aggregates.json`. The thread count is a speed
//! knob; any fingerprint it left in the journaled statistics would
//! make performance work change science. (Lane width ≡ scalar loop is
//! proven per trial by the `lane_gammas_are_bit_identical_to_scalar`
//! proptest.)

use fault_expansion::campaign::{run, CampaignSpec, RunOptions};

const GRID: &str = r#"
name = "lane-det"
seed = 77
replicates = 2
graphs = ["torus:6,6", "hypercube:4"]
faults = ["random:0.35", "heavy-tailed:0.35,1.5"]
algorithms = ["percolation"]
[params]
trials = 70
"#;

fn run_with(tag: &str, threads: usize) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("fx-lane-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = CampaignSpec::parse(GRID).unwrap();
    spec.output = dir.clone();
    let summary = run(
        &spec,
        &RunOptions {
            quiet: true,
            threads,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(summary.complete, "{tag}: campaign must complete");
    let bytes = std::fs::read(dir.join("aggregates.json"))
        .unwrap_or_else(|e| panic!("{tag}: aggregates.json: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

#[test]
fn aggregates_byte_identical_across_threads() {
    let baseline = run_with("t1", 1);
    assert!(!baseline.is_empty());
    assert_eq!(
        baseline,
        run_with("t2", 2),
        "aggregates diverge at threads=2"
    );
}
