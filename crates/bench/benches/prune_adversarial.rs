//! Bench: `Prune` (Fig. 1) under adversarial faults — the E1 pipeline
//! at several scales, and on a faulted torus.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fx_faults::{FaultModel, SparseCutAdversary};
use fx_graph::NodeSet;
use fx_prune::{prune, CutStrategy};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_prune(c: &mut Criterion) {
    let mut group = c.benchmark_group("prune_adversarial");
    group.sample_size(10);
    for d in [8usize, 10] {
        let g = fx_graph::generators::hypercube(d);
        let n = g.num_nodes();
        let mut rng = SmallRng::seed_from_u64(1);
        let failed = SparseCutAdversary { budget: n / 32 }.sample(&g, &mut rng);
        let alive = {
            let mut a = NodeSet::full(n);
            a.difference_with(&failed);
            a
        };
        group.bench_with_input(BenchmarkId::new("hypercube", n), &n, |b, _| {
            b.iter(|| {
                let mut rng = SmallRng::seed_from_u64(2);
                prune(&g, &alive, 0.5, 0.5, CutStrategy::SpectralRefined, &mut rng)
            })
        });
    }
    group.finish();
}

fn bench_prune_strategy(c: &mut Criterion) {
    let mut group = c.benchmark_group("prune_strategy");
    group.sample_size(10);
    let g = fx_graph::generators::torus(&[24, 24]);
    let n = g.num_nodes();
    let mut rng = SmallRng::seed_from_u64(3);
    let failed = SparseCutAdversary { budget: 20 }.sample(&g, &mut rng);
    let alive = {
        let mut a = NodeSet::full(n);
        a.difference_with(&failed);
        a
    };
    group.bench_function("spectral+fm", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(4);
            prune(
                &g,
                &alive,
                0.25,
                0.5,
                CutStrategy::SpectralRefined,
                &mut rng,
            )
        })
    });
    group.finish();
}

/// Shortened criterion cycle: the suite has many groups and several
/// seconds-long iterations; 1.5s windows keep the full run tractable
/// while still averaging enough samples for stable medians.
fn fast_config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_millis(1500))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = fast_config();
    targets = bench_prune, bench_prune_strategy
}
criterion_main!(benches);
