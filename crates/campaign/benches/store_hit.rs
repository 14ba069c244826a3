//! Bench: `store_hit_e2e` — what a content-addressed cache hit buys.
//!
//! Two rows in the `BENCH_e2e.json` ledger, measured on the first
//! cell of `specs/quick.toml` (the cell every CI smoke run pays for):
//!
//! * `hit_lookup_quick_cell` — the full warm path: key derivation
//!   (canonicalize + effective params + FNV-1a), sharded index
//!   lookup, checksummed JSONL decode to a [`CellResult`].
//! * `recompute_quick_cell` — the same cell executed fresh through
//!   [`run_cell`], i.e. what the miss path (and every un-memoized
//!   campaign) pays.
//!
//! The ratio is the store's value proposition; the absolute hit cost
//! is the `fxnet serve` warm-query floor.

use criterion::{criterion_group, criterion_main, Criterion};
use fx_campaign::{expand, run_cell, store_key, CampaignSpec, Cell, CellResult};
use std::path::PathBuf;

fn quick_spec() -> CampaignSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs/quick.toml");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    CampaignSpec::parse(&text).unwrap()
}

fn hot_store(spec: &CampaignSpec, cell: &Cell) -> (fx_store::Store, u64) {
    let dir = std::env::temp_dir().join(format!("fx-bench-store-hit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = fx_store::Store::open(&dir).unwrap();
    let key = store_key(spec, cell);
    let result = run_cell(spec, cell);
    assert_eq!(result.failed, 0);
    store.put(key, &fx_json::to_string(&result)).unwrap();
    (store, key)
}

fn bench_store_hit(c: &mut Criterion) {
    let spec = quick_spec();
    let cells = expand(&spec).unwrap();
    let cell = &cells[0];
    let (store, _) = hot_store(&spec, cell);

    let mut group = c.benchmark_group("store_hit_e2e");
    group.sample_size(10);
    group.bench_function("hit_lookup_quick_cell", |b| {
        b.iter(|| {
            // The warm path end to end: derive the key from the cell
            // identity, look it up, decode the checksummed record.
            let key = store_key(&spec, cell);
            let payload = store.get(key).expect("hot cache");
            let decoded: CellResult = fx_json::from_str(&payload).unwrap();
            assert_eq!(decoded.failed, 0);
            decoded.metrics.len()
        })
    });
    group.bench_function("recompute_quick_cell", |b| {
        b.iter(|| run_cell(&spec, cell).metrics.len())
    });
    group.finish();
    let _ = std::fs::remove_dir_all(store.dir());
}

criterion_group!(benches, bench_store_hit);
criterion_main!(benches);
