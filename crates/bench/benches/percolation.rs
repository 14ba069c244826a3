//! Bench: percolation machinery — Newman–Ziff vs naive resampling
//! (ablation A2) and raw sweep throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use fx_percolation::{site_sweep_with, MonteCarlo, SweepScratch};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A2: one Newman–Ziff sweep yields a whole curve; the naive
/// alternative resamples per probability point. 11-point curve on the
/// same torus.
fn bench_nz_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("curve_11pt_torus_4096");
    group.sample_size(10);
    let g = fx_graph::generators::torus(&[64, 64]);
    let keeps: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
    let mc = MonteCarlo {
        trials: 4,
        base_seed: 1,
    };
    group.bench_function("newman_ziff", |b| {
        b.iter(|| mc.gamma_site_curve(&g, &keeps))
    });
    group.bench_function("naive_resample", |b| {
        b.iter(|| {
            keeps
                .iter()
                .map(|&q| mc.gamma_site_at(&g, q))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

/// Raw sweep throughput across graph families, through the
/// scratch-reusing kernel the Monte-Carlo harness actually runs (one
/// arena reused across trials).
fn bench_sweep_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("site_sweep");
    let cases = vec![
        ("torus_4096", fx_graph::generators::torus(&[64, 64])),
        ("hypercube_4096", fx_graph::generators::hypercube(12)),
        ("debruijn_4096", fx_graph::generators::de_bruijn(12)),
    ];
    for (name, g) in cases {
        let mut scratch = SweepScratch::new();
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut rng = SmallRng::seed_from_u64(3);
                site_sweep_with(&g, &mut rng, &mut scratch).last().copied()
            })
        });
    }
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
    targets = bench_nz_vs_naive, bench_sweep_families
}
criterion_main!(benches);
