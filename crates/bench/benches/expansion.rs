//! Bench: expansion machinery — Lanczos vs power iteration, sweep
//! cuts, and exact enumeration limits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fx_expansion::exact::exact_node_expansion;
use fx_expansion::lanczos::{lanczos_lambda2, power_lambda2};
use fx_expansion::matvec::CompactComponent;
use fx_expansion::sweep::spectral_sweep;
use fx_graph::NodeSet;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_eigensolvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("lambda2_torus_1024");
    group.sample_size(10);
    let g = fx_graph::generators::torus(&[32, 32]);
    let alive = NodeSet::full(1024);
    let comp = CompactComponent::largest(&g, &alive).expect("component");
    group.bench_function("lanczos", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(1);
            lanczos_lambda2(&comp, 160, 1e-9, &mut rng)
        })
    });
    group.bench_function("power_iteration", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(1);
            power_lambda2(&comp, 20_000, 1e-10, &mut rng)
        })
    });
    group.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("spectral_sweep");
    group.sample_size(10);
    for d in [8usize, 10, 12] {
        let g = fx_graph::generators::hypercube(d);
        let alive = NodeSet::full(g.num_nodes());
        group.bench_with_input(BenchmarkId::new("hypercube", g.num_nodes()), &d, |b, _| {
            b.iter(|| {
                let mut rng = SmallRng::seed_from_u64(2);
                spectral_sweep(&g, &alive, &mut rng)
            })
        });
    }
    group.finish();
}

fn bench_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_node_expansion");
    group.sample_size(10);
    for n in [12usize, 16, 20] {
        let g = fx_graph::generators::cycle(n);
        let alive = NodeSet::full(n);
        group.bench_with_input(BenchmarkId::new("cycle", n), &n, |b, _| {
            b.iter(|| exact_node_expansion(&g, &alive))
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
    targets = bench_eigensolvers, bench_sweep, bench_exact
}
criterion_main!(benches);
