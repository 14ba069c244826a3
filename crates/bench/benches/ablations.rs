//! Bench: the cut oracle — the cost of one answer from each strategy
//! (spectral + FM refinement on a 576-node torus, exact enumeration on
//! small cycles), plus the end-to-end analyzer.

use criterion::{criterion_group, criterion_main, Criterion};
use fx_core::{analyze_adversarial, Family};
use fx_faults::SparseCutAdversary;
use fx_graph::NodeSet;
use fx_prune::{find_thin_cut, CutObjective, CutStrategy};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_cut_oracles(c: &mut Criterion) {
    let mut group = c.benchmark_group("cut_oracle_torus_576");
    group.sample_size(10);
    let g = fx_graph::generators::torus(&[24, 24]);
    let alive = NodeSet::full(576);
    group.bench_function("spectral+fm", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(1);
            find_thin_cut(
                &g,
                &alive,
                CutObjective::Node,
                0.2,
                CutStrategy::SpectralRefined,
                &mut rng,
            )
        })
    });
    group.finish();

    // exact oracle on its own (only feasible at ≤ 24 nodes)
    let mut small = c.benchmark_group("cut_oracle_exact");
    small.sample_size(10);
    for n in [16usize, 20] {
        let g = fx_graph::generators::cycle(n);
        let alive = NodeSet::full(n);
        small.bench_function(format!("cycle_{n}"), |b| {
            b.iter(|| {
                let mut rng = SmallRng::seed_from_u64(2);
                find_thin_cut(
                    &g,
                    &alive,
                    CutObjective::Node,
                    0.3,
                    CutStrategy::Exact,
                    &mut rng,
                )
            })
        });
    }
    small.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("analyzer_end_to_end");
    group.sample_size(10);
    let net = Family::Hypercube { d: 9 }.build(0);
    group.bench_function("adversarial_hypercube_512", |b| {
        b.iter(|| analyze_adversarial(&net, &SparseCutAdversary { budget: 8 }, 2.0, 0xFA017))
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
    targets = bench_cut_oracles, bench_end_to_end
}
criterion_main!(benches);
