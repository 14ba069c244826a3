//! Bench: end-to-end Monte-Carlo pipelines, run inline as campaign
//! cells run them — the workloads whose throughput is the science
//! budget (thousands of fault trials per campaign cell).
//!
//! These are the headline rows of the `BENCH_e2e.json` perf ledger:
//! `mc_percolation_e2e` is the percolation trial loop (direct
//! resampling and Newman–Ziff curve inversion), `mc_bitparallel_e2e`
//! is the same cell on the 64-trials-per-word lane engine vs the
//! scalar loop (with a `FX_BENCH_LANE_MIN_RATIO` speedup gate),
//! `mc_random_fault_e2e` is the Theorem 3.4 random-fault sweep
//! (`analyze_random`: sample → γ → Prune2 → certify, per trial), and
//! `dyncon_e2e` is the offline dynamic-connectivity solve of a
//! 10k-peer/2000-op churn trace vs the per-snapshot re-sweep oracle
//! (with a `FX_BENCH_DYNCON_MIN_RATIO` speedup gate).

use criterion::{criterion_group, criterion_main, Criterion};
use fx_core::{analyze_random, Family};
use fx_faults::{targeted_order, FaultModel, HeavyTailedFaults, TargetBy};
use fx_graph::dyncon::{resweep_curve, solve_curve, IntervalTrace};
use fx_graph::{CsrGraph, NodeSet, Scratch};
use fx_overlay::{ChurnPolicy, Overlay};
use fx_percolation::{
    critical_removal_fraction, estimate_critical, gamma_removal_curve, gamma_trials_with,
    sample_alive_nodes_into, trial_seed, LaneScratch, Mode, MonteCarlo, SweepScratch,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Percolation Monte-Carlo: γ at a point (direct resampling) and the
/// critical-probability search (Newman–Ziff curves).
fn bench_mc_percolation(c: &mut Criterion) {
    let mut group = c.benchmark_group("mc_percolation_e2e");
    group.sample_size(10);
    let g = fx_graph::generators::torus(&[48, 48]);
    let mc = MonteCarlo {
        trials: 16,
        base_seed: 0xE2E,
    };
    group.bench_function("gamma_at_torus_2304", |b| {
        b.iter(|| mc.gamma_site_at(&g, 0.65))
    });
    group.bench_function("critical_torus_2304", |b| {
        b.iter(|| estimate_critical(&g, Mode::Site, &mc, 0.1, 20))
    });
    group.finish();
}

/// The bit-parallel Monte-Carlo engine vs the scalar trial loop on
/// the same `mc_percolation_e2e`-class cell (torus 48×48, keep 0.65).
/// 256 trials = 4 full lane batches, enough to amortize the one-off
/// lane-CSR build the way campaign cells do.
fn bench_mc_bitparallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("mc_bitparallel_e2e");
    group.sample_size(10);
    let g = fx_graph::generators::torus(&[48, 48]);
    let mut ls = LaneScratch::new();
    group.bench_function("lane64_trials256_torus_2304", |b| {
        b.iter(|| bitparallel_cell(&g, &mut ls, 64))
    });
    group.bench_function("scalar_trials256_torus_2304", |b| {
        b.iter(|| bitparallel_cell(&g, &mut ls, 1))
    });
    group.finish();
    bitparallel_speedup_gate(&g);
}

/// One 256-trial γ cell at the given lane width — per-trial RNG
/// streams identical at every width, like the campaign executor.
fn bitparallel_cell(g: &CsrGraph, ls: &mut LaneScratch, width: usize) -> f64 {
    let n = g.num_nodes();
    let (gammas, _) = gamma_trials_with(g, 256, width, ls, |i, mask| {
        let mut rng = SmallRng::seed_from_u64(trial_seed(0xE2E, i));
        sample_alive_nodes_into(n, 0.65, &mut rng, mask);
    });
    gammas.iter().sum::<f64>() / gammas.len() as f64
}

/// `FX_BENCH_FAIL_RATIO`-style speedup gate: times the same cell on
/// both paths (best-of-3 — minima are the signal on shared runners)
/// and fails the bench run when the lane/scalar speedup drops below
/// `FX_BENCH_LANE_MIN_RATIO`. Unset = report only; CI pins a
/// noise-tolerant floor, the committed ledger records the clean run.
fn bitparallel_speedup_gate(g: &CsrGraph) {
    let mut ls = LaneScratch::new();
    let best = |width: usize, ls: &mut LaneScratch| {
        (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                std::hint::black_box(bitparallel_cell(g, ls, width));
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    let lane = best(64, &mut ls);
    let scalar = best(1, &mut ls);
    let ratio = scalar.as_secs_f64() / lane.as_secs_f64().max(1e-12);
    eprintln!("mc_bitparallel_e2e: lane {lane:?} vs scalar {scalar:?} — speedup {ratio:.2}x");
    let Ok(raw) = std::env::var("FX_BENCH_LANE_MIN_RATIO") else {
        return;
    };
    let Ok(min) = raw.trim().parse::<f64>() else {
        eprintln!("warning: FX_BENCH_LANE_MIN_RATIO {raw:?} is not a number; gate skipped");
        return;
    };
    if ratio < min {
        eprintln!("FAIL: bit-parallel speedup {ratio:.2}x below the {min}x floor");
        std::process::exit(1);
    }
}

/// The random-fault sweep pipeline (E5): per trial, sample i.i.d.
/// faults, measure γ, run Prune2, certify the survivor.
fn bench_mc_random_faults(c: &mut Criterion) {
    let mut group = c.benchmark_group("mc_random_fault_e2e");
    group.sample_size(10);
    let net = Family::Torus { dims: vec![24, 24] }.build(0);
    group.bench_function("prune2_sweep_torus_576", |b| {
        b.iter(|| analyze_random(&net, 0.03, 0.125, 2.0, 8, 7))
    });
    group.finish();
}

/// The targeted-fault sweep pipeline (E17/E19): the full ordered
/// Newman–Ziff dilution curve (order + sweep + critical removal
/// fraction) and the heavy-tailed per-trial sampler on a hot mask —
/// the two kernels behind the PR-4 fault-layer campaign cells.
fn bench_targeted_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("targeted_sweep_e2e");
    group.sample_size(10);
    let g = fx_graph::generators::torus(&[48, 48]); // 2304 nodes
    let fracs: Vec<f64> = (0..=40).map(|i| i as f64 / 40.0).collect();
    let mut sweep = SweepScratch::new();
    group.bench_function("dilution_curve_torus_2304", |b| {
        b.iter(|| {
            let order = targeted_order(&g, TargetBy::Core);
            let curve = gamma_removal_curve(&g, &order, &fracs, &mut sweep);
            let f_star = critical_removal_fraction(&g, &order, 0.1, 40, &mut sweep);
            (curve.len(), f_star)
        })
    });
    let model = HeavyTailedFaults { p: 0.2, alpha: 1.5 };
    let mut mask = NodeSet::empty(g.num_nodes());
    let mut rng = SmallRng::seed_from_u64(0xE2E);
    group.bench_function("heavy_tailed_sample_torus_2304", |b| {
        b.iter(|| {
            model.sample_into(&g, &mut rng, &mut mask);
            mask.len()
        })
    });
    group.finish();
}

/// The overlay churn pipeline at campaign scale: grow a 2-D CAN to
/// 2k peers, drive 500 degree-targeted churn ops through the
/// incremental adjacency engine, and snapshot the neighbor graph —
/// the per-cell construction cost of every `overlay:…,depart=degree`
/// scenario (`specs/overlay_scale.toml` runs the same pipeline at
/// 10k peers).
fn bench_overlay_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlay_churn_e2e");
    group.sample_size(10);
    let targeted = ChurnPolicy {
        join_bias: 0.5,
        session_alpha: None,
        degree_targeted: true,
    };
    group.bench_function("degree_churn_2k", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(0xE2E);
            let mut ov = Overlay::with_peers_policy(2, 2000, &targeted, &mut rng);
            ov.churn_with(500, &targeted, &mut rng);
            let (g, _) = ov.graph();
            (g.num_edges(), ov.peak_degree(), ov.adj_updates())
        })
    });
    let sessions = ChurnPolicy {
        join_bias: 0.5,
        session_alpha: Some(1.5),
        degree_targeted: true,
    };
    group.bench_function("pareto_degree_churn_2k", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(0xE2E);
            let mut ov = Overlay::with_peers_policy(2, 2000, &sessions, &mut rng);
            ov.churn_with(500, &sessions, &mut rng);
            let (g, _) = ov.graph();
            (g.num_edges(), ov.alive_session_mean())
        })
    });
    group.finish();
}

/// The offline dynamic-connectivity engine vs the per-snapshot
/// re-sweep oracle on the same recorded churn trace: a 2-D CAN grown
/// to 10k peers, then 2000 degree-targeted churn ops with trace
/// recording on. `dyncon_solve` answers exact connectivity at all
/// 2001 timesteps in one segment-tree + rollback-union-find pass;
/// `resweep_oracle` rebuilds the alive adjacency and re-runs the BFS
/// component sweep per timestep — O(T·(V+E)), what churn cells paid
/// before the offline engine.
fn bench_dyncon(c: &mut Criterion) {
    let mut group = c.benchmark_group("dyncon_e2e");
    group.sample_size(10);
    let trace = churn_trace_10k();
    let mut scratch = Scratch::new();
    group.bench_function("dyncon_solve_10k_2000ops", |b| {
        b.iter(|| solve_curve(&trace).survival_metrics())
    });
    group.bench_function("resweep_oracle_10k_2000ops", |b| {
        b.iter(|| resweep_curve(&trace, &mut scratch).survival_metrics())
    });
    group.finish();
    dyncon_speedup_gate(&trace);
}

/// The `dyncon_e2e` workload: 10k-peer CAN, 2000 recorded churn ops.
fn churn_trace_10k() -> IntervalTrace {
    let policy = ChurnPolicy {
        join_bias: 0.5,
        session_alpha: None,
        degree_targeted: true,
    };
    let mut rng = SmallRng::seed_from_u64(0xE2E);
    let mut ov = Overlay::with_peers_policy(2, 10_000, &policy, &mut rng);
    ov.start_trace();
    ov.churn_with(2000, &policy, &mut rng);
    ov.take_trace().expect("recording was on").finalize()
}

/// Speedup gate, same discipline as the bit-parallel one: best-of-3
/// minima per engine, fail the bench run when the offline/oracle
/// speedup drops below `FX_BENCH_DYNCON_MIN_RATIO` (unset = report
/// only; the acceptance floor is 10x, CI pins a noise-tolerant 4x).
/// Both engines must produce identical curves — the equality check
/// rides inside the gate so the timed comparison is also a
/// correctness cross-validation.
fn dyncon_speedup_gate(trace: &IntervalTrace) {
    let mut scratch = Scratch::new();
    let best = |run: &mut dyn FnMut() -> fx_graph::dyncon::ConnCurve| {
        let mut curve = None;
        let elapsed = (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                curve = Some(std::hint::black_box(run()));
                t0.elapsed()
            })
            .min()
            .unwrap();
        (elapsed, curve.unwrap())
    };
    let (dyncon, curve) = best(&mut || solve_curve(trace));
    let (oracle, oracle_curve) = best(&mut || resweep_curve(trace, &mut scratch));
    assert_eq!(
        curve, oracle_curve,
        "dyncon and the re-sweep oracle must produce identical curves"
    );
    let ratio = oracle.as_secs_f64() / dyncon.as_secs_f64().max(1e-12);
    eprintln!("dyncon_e2e: dyncon {dyncon:?} vs oracle {oracle:?} — speedup {ratio:.2}x");
    let Ok(raw) = std::env::var("FX_BENCH_DYNCON_MIN_RATIO") else {
        return;
    };
    let Ok(min) = raw.trim().parse::<f64>() else {
        eprintln!("warning: FX_BENCH_DYNCON_MIN_RATIO {raw:?} is not a number; gate skipped");
        return;
    };
    if ratio < min {
        eprintln!("FAIL: dyncon speedup {ratio:.2}x below the {min}x floor");
        std::process::exit(1);
    }
}

/// Shortened criterion cycle, matching the other suites.
fn fast_config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_millis(1500))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = fast_config();
    targets = bench_mc_percolation, bench_mc_bitparallel, bench_mc_random_faults,
        bench_targeted_sweep, bench_overlay_churn, bench_dyncon
}
criterion_main!(benches);
