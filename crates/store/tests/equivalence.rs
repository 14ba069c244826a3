//! Store ↔ run equivalence (the memoization soundness property):
//! for random mini-campaigns, a store-backed re-run — 100% cache
//! hits — and a re-run against a randomly poisoned/truncated store —
//! partial hits, corrupt entries recomputed — must both produce
//! aggregates **bit-identical** to the cold run, at one and at two
//! worker threads.
//!
//! This is the proptest that makes `[params] store` safe to turn on:
//! whatever the damage model does to the shard files, the worst case
//! is losing cache hits, never serving a wrong (or torn) result.

use fx_campaign::{
    expand, run, run_cell, store_identity, CampaignSpec, Journal, RunOptions, RESULTS_EPOCH,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fx-store-equiv-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A random mini-campaign over quick cells, always store-backed.
fn mini_spec_text(
    graphs: &[&str],
    faults: &[&str],
    algo: &str,
    replicates: usize,
    seed: u64,
    store: &Path,
) -> String {
    let quote = |xs: &[&str]| {
        xs.iter()
            .map(|x| format!("\"{x}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "name = \"store-equiv\"\nreplicates = {replicates}\nseed = {seed}\n\
         graphs = [{}]\nfaults = [{}]\nalgorithms = [\"{algo}\"]\n\
         [params]\nstore = \"{}\"\n",
        quote(graphs),
        quote(faults),
        store.display()
    )
}

fn run_campaign(spec: &CampaignSpec, out: PathBuf, threads: usize) -> fx_campaign::RunSummary {
    let opts = RunOptions {
        threads,
        quiet: true,
        output: Some(out),
        ..RunOptions::default()
    };
    run(spec, &opts).expect("campaign run")
}

fn aggregates_bytes(out: &Path) -> Vec<u8> {
    std::fs::read(out.join("aggregates.json")).expect("aggregates.json written")
}

/// Damages the store in one of three ways, seeded by the case.
fn poison_store(dir: &Path, which: usize, offset_frac: f64) {
    let mut shards: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    shards.sort();
    assert!(!shards.is_empty(), "a populated store has shard files");
    let victim = &shards[which % shards.len()];
    let mut bytes = std::fs::read(victim).unwrap();
    if bytes.is_empty() {
        return;
    }
    let offset = ((bytes.len() as f64 - 1.0) * offset_frac) as usize;
    match which % 3 {
        // Torn tail: the crash-mid-append shape.
        0 => bytes.truncate(offset.max(1)),
        // Interior bit flip: bad disk / torn rewrite.
        1 => bytes[offset] ^= 0x10,
        // Swap two bytes: still mostly-parseable garbage.
        _ => {
            let other = bytes.len() - 1 - offset;
            bytes.swap(offset, other);
        }
    }
    std::fs::write(victim, bytes).unwrap();
}

/// Results made under an earlier [`RESULTS_EPOCH`] never stand in for
/// current ones: with every cell's journal record and store entry
/// keyed under `fx-store/<epoch − 1>|…`, a run into the same `--out`
/// and store re-executes every cell and serves none from the store.
#[test]
fn records_of_an_earlier_results_epoch_are_never_reused() {
    let store = temp_dir("epoch-store");
    let out = temp_dir("epoch-out");
    let spec = CampaignSpec::parse(&mini_spec_text(
        &["cycle:16", "torus:5,5"],
        &["none", "random-exact:3"],
        "expansion-cert",
        2,
        7,
        &store,
    ))
    .unwrap();
    let current = format!("fx-store/{RESULTS_EPOCH}|");
    let earlier = format!("fx-store/{}|", RESULTS_EPOCH - 1);
    let journal = Journal::new(out.join("journal.jsonl"));
    let cache = fx_store::Store::open(&store).unwrap();
    let cells = expand(&spec).unwrap();
    for cell in &cells {
        let identity = store_identity(&spec, cell);
        assert!(identity.starts_with(&current), "{identity}");
        let stale = fx_store::fnv1a(identity.replacen(&current, &earlier, 1).as_bytes());
        let result = run_cell(&spec, cell);
        journal.append(stale, &result).unwrap();
        cache.put(stale, &fx_json::to_string(&result)).unwrap();
    }
    drop((journal, cache));

    let summary = run_campaign(&spec, out, 2);
    assert_eq!((summary.skipped, summary.executed), (0, cells.len()));
    assert_eq!(summary.cache_hits, 0);
    assert!(summary.complete);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn store_backed_reruns_aggregate_bit_identically(
        graph_pick in 0usize..3,
        fault_pick in 0usize..3,
        algo_pick in 0usize..2,
        replicates in 1usize..3,
        seed in 0u64..1000,
        poison_which in 0usize..9,
        poison_frac in 0.0f64..1.0,
    ) {
        let graphs: &[&str] = match graph_pick {
            0 => &["cycle:12"],
            1 => &["torus:4,4"],
            _ => &["cycle:12", "torus:4,4"],
        };
        let faults: &[&str] = match fault_pick {
            0 => &["none"],
            1 => &["random-exact:2"],
            _ => &["none", "adversarial:2"],
        };
        let algo = ["expansion-cert", "prune"][algo_pick];

        let store = temp_dir("store");
        let spec = CampaignSpec::parse(&mini_spec_text(
            graphs, faults, algo, replicates, seed, &store,
        ))
        .unwrap();
        let total = expand(&spec).unwrap().len();

        // Cold: populates the store, zero hits.
        let cold_out = temp_dir("cold");
        let cold = run_campaign(&spec, cold_out.clone(), 1);
        prop_assert!(cold.complete);
        prop_assert_eq!(cold.cache_hits, 0);
        let cold_bytes = aggregates_bytes(&cold_out);

        // Warm, threads 1 and 2: every cell served, same bytes.
        for threads in [1usize, 2] {
            let warm_out = temp_dir(&format!("warm-t{threads}"));
            let warm = run_campaign(&spec, warm_out.clone(), threads);
            prop_assert!(warm.complete);
            prop_assert_eq!(
                warm.cache_hits, total,
                "a warm store must serve 100% of cells (threads {})", threads
            );
            prop_assert_eq!(warm.executed, total);
            prop_assert_eq!(
                &aggregates_bytes(&warm_out), &cold_bytes,
                "warm aggregates must be bit-identical (threads {})", threads
            );
        }

        // Poisoned: damage the shard files, then re-run at both
        // thread counts. Corrupt entries are skipped-and-counted by
        // Store::open and their cells recompute — aggregates still
        // bit-identical, and nothing corrupt is ever served.
        poison_store(&store, poison_which, poison_frac);
        for threads in [1usize, 2] {
            // Recount before every run: a recomputing run re-publishes
            // the damaged cells, so the second iteration legitimately
            // sees a healed store.
            let survivors = fx_store::Store::open(&store).unwrap().len();
            prop_assert!(survivors <= total);
            let out = temp_dir(&format!("poisoned-t{threads}"));
            let summary = run_campaign(&spec, out.clone(), threads);
            prop_assert!(summary.complete);
            prop_assert!(
                summary.cache_hits <= survivors,
                "a damaged entry must never be served ({} hits, {} survivors)",
                summary.cache_hits, survivors
            );
            prop_assert_eq!(
                &aggregates_bytes(&out), &cold_bytes,
                "poisoned-store aggregates must be bit-identical (threads {})", threads
            );
        }

        // The recomputing run above re-published every damaged cell:
        // the store is whole again and a final run is 100% hits.
        let healed_out = temp_dir("healed");
        let healed = run_campaign(&spec, healed_out.clone(), 1);
        prop_assert_eq!(healed.cache_hits, total, "recomputed cells re-publish");
        prop_assert_eq!(&aggregates_bytes(&healed_out), &cold_bytes);
    }
}
