//! Parallel Monte-Carlo percolation curves.
//!
//! Trials are independent and deterministically seeded
//! (`seed = base ⊕ trial-index` hashed), so results are reproducible
//! for any thread count: trials run through
//! [`par_map_init`](fx_graph::par::par_map_init), with one
//! [`TrialScratch`] arena per thread (alive mask, traversal scratch,
//! Newman–Ziff buffers), so a sweep of `t` trials over an `n`-node
//! graph performs O(threads) arena allocations instead of O(t·n)
//! (the A3 ablation bench measures the harness itself).

use crate::lanes::{gamma_batch_with, LaneCsr, LaneScratch, MAX_LANES, TRACE_SCALAR_TRIALS};
use crate::newman_ziff::{bond_sweep_with, site_sweep_with, SweepScratch};
use crate::sample::{gamma_site_with, sample_alive_nodes_into};
use fx_graph::par::{par_map_init, resolve_threads, CancelToken};
use fx_graph::stats::Welford;
use fx_graph::{CsrGraph, NodeSet, Scratch};
use fx_trace::{Histogram, Target};
use rand::rngs::SmallRng;
use rand::SeedableRng;

// Per-trial duration of the direct-resampling estimator
// (`FXNET_TRACE=percolation=2`; the sweep estimators are timed in
// `newman_ziff`). One relaxed load per trial when off.
static TRACE_TRIAL_NS: Histogram = Histogram::new(Target::Percolation, "mc_trial_ns");

/// Mean/σ pair for a measured quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0 for < 2 trials).
    pub std: f64,
}

impl Stat {
    /// Computes mean and sample σ (streaming, via the shared
    /// [`Welford`] accumulator).
    pub fn from_samples(xs: &[f64]) -> Stat {
        Stat::from(Welford::from_samples(xs.iter().copied()))
    }
}

impl From<Welford> for Stat {
    fn from(w: Welford) -> Stat {
        Stat {
            mean: w.mean(),
            std: w.std(),
        }
    }
}

/// Per-worker trial arena: every buffer a single trial needs.
#[derive(Debug)]
struct TrialScratch {
    alive: NodeSet,
    scratch: Scratch,
}

impl TrialScratch {
    fn new() -> Self {
        TrialScratch {
            alive: NodeSet::empty(0),
            scratch: Scratch::new(),
        }
    }
}

/// Monte-Carlo configuration.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo {
    /// Independent trials per measurement.
    pub trials: usize,
    /// Worker threads (`1` = inline, `0` = the resolved default:
    /// `FXNET_THREADS` / available cores).
    pub threads: usize,
    /// Base seed; trial `i` uses a seed derived from `(base, i)`.
    pub base_seed: u64,
}

impl Default for MonteCarlo {
    fn default() -> Self {
        MonteCarlo {
            trials: 32,
            threads: 0,
            base_seed: 0x5EED,
        }
    }
}

/// The RNG seed of trial `i` under base seed `base`: splitmix64 of
/// `base + i`, decorrelating adjacent trial seeds. Public because the
/// campaign executor's lane dispatch must derive *exactly* these
/// per-trial streams for the engine's bit-identical contract.
pub fn trial_seed(base: u64, i: usize) -> u64 {
    let mut z = base.wrapping_add(i as u64).wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl MonteCarlo {
    /// The resolved worker count for this configuration.
    fn threads(&self) -> usize {
        resolve_threads(self.threads)
    }

    /// `γ(keep)` for **site** percolation by direct resampling.
    ///
    /// Bernoulli masks are vectorizable, so this dispatches to the
    /// bit-parallel lane engine ([`crate::lanes`]) at the full
    /// [`MAX_LANES`] width — bit-identical to the scalar path by the
    /// engine's determinism contract.
    pub fn gamma_site_at(&self, g: &CsrGraph, keep: f64) -> Stat {
        Stat::from_samples(&self.gamma_site_samples(g, keep, MAX_LANES))
    }

    /// Per-trial γ samples of [`MonteCarlo::gamma_site_at`], in trial
    /// order, at an explicit lane width (`1` = scalar path, `2..=64`
    /// = lane engine; out-of-range widths clamp). Batches of `width`
    /// trials, not single trials, are the items of
    /// [`par_map_init`](fx_graph::par::par_map_init), with one
    /// [`LaneScratch`] arena per thread.
    pub fn gamma_site_samples(&self, g: &CsrGraph, keep: f64, lane_width: usize) -> Vec<f64> {
        let n = g.num_nodes();
        let base = self.base_seed;
        let width = lane_width.clamp(1, MAX_LANES);
        if width == 1 || self.trials < 2 {
            TRACE_SCALAR_TRIALS.add(self.trials as u64);
            return par_map_init(self.trials, self.threads(), TrialScratch::new, |ts, i| {
                let t0 = (fx_trace::level(Target::Percolation) >= 2).then(std::time::Instant::now);
                let mut rng = SmallRng::seed_from_u64(trial_seed(base, i));
                sample_alive_nodes_into(n, keep, &mut rng, &mut ts.alive);
                let gamma = gamma_site_with(g, &ts.alive, &mut ts.scratch);
                if let Some(t0) = t0 {
                    TRACE_TRIAL_NS.record_always(t0.elapsed().as_nanos() as u64);
                }
                gamma
            });
        }
        let trials = self.trials;
        let batches = trials.div_ceil(width);
        let csr = LaneCsr::for_graph(g);
        let per_batch = par_map_init(batches, self.threads(), LaneScratch::new, |ls, b| {
            let lo = b * width;
            let count = width.min(trials - lo);
            gamma_batch_with(g, &csr, ls, count, |t, alive| {
                let mut rng = SmallRng::seed_from_u64(trial_seed(base, lo + t));
                sample_alive_nodes_into(n, keep, &mut rng, alive);
            })
        });
        per_batch.into_iter().flatten().collect()
    }

    /// Whole `γ(keep)` **site** curve at the given keep-probabilities,
    /// from Newman–Ziff sweeps (one sweep per trial; canonical
    /// `k = round(keep·n)` mapping).
    pub fn gamma_site_curve(&self, g: &CsrGraph, keeps: &[f64]) -> Vec<Stat> {
        self.gamma_site_curve_cancelable(g, keeps, &CancelToken::new())
    }

    /// [`MonteCarlo::gamma_site_curve`] with cooperative cancellation:
    /// once `token` fires, remaining trial sweeps are skipped and the
    /// statistics cover the completed trials only. A token that never
    /// fires yields exactly the uncancelled curve (every trial
    /// completes, deterministically, for any thread count).
    pub fn gamma_site_curve_cancelable(
        &self,
        g: &CsrGraph,
        keeps: &[f64],
        token: &CancelToken,
    ) -> Vec<Stat> {
        let n = g.num_nodes();
        let base = self.base_seed;
        let curves = par_map_init(
            self.trials,
            self.threads(),
            SweepScratch::new,
            |sweep, i| {
                if token.is_cancelled() {
                    return Vec::new(); // skipped-trial sentinel
                }
                let mut rng = SmallRng::seed_from_u64(trial_seed(base, i));
                site_sweep_with(g, &mut rng, sweep).to_vec()
            },
        );
        curve_stats(&curves, keeps, n, n)
    }

    /// Whole `γ(keep)` **bond** curve (nodes always present), with
    /// cooperative cancellation (same contract as
    /// [`MonteCarlo::gamma_site_curve_cancelable`]).
    pub fn gamma_bond_curve_cancelable(
        &self,
        g: &CsrGraph,
        keeps: &[f64],
        token: &CancelToken,
    ) -> Vec<Stat> {
        let n = g.num_nodes();
        let m = g.num_edges();
        let base = self.base_seed;
        let curves = par_map_init(
            self.trials,
            self.threads(),
            SweepScratch::new,
            |sweep, i| {
                if token.is_cancelled() {
                    return Vec::new(); // skipped-trial sentinel
                }
                let mut rng = SmallRng::seed_from_u64(trial_seed(base, i));
                bond_sweep_with(g, &mut rng, sweep).to_vec()
            },
        );
        curve_stats(&curves, keeps, n, m)
    }
}

/// Maps per-trial largest-cluster curves (indexed by occupied count)
/// to per-keep statistics, streaming each keep's samples through one
/// Welford accumulator in trial order (deterministic for any
/// schedule). Empty curves are skipped-trial sentinels from a fired
/// cancellation token and contribute nothing.
fn curve_stats(curves: &[Vec<u32>], keeps: &[f64], n: usize, steps: usize) -> Vec<Stat> {
    keeps
        .iter()
        .map(|&q| {
            let k = ((q * steps as f64).round() as usize).min(steps);
            let mut w = Welford::default();
            for c in curves.iter().filter(|c| !c.is_empty()) {
                w.push(c[k] as f64 / n.max(1) as f64);
            }
            Stat::from(w)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::generators;

    #[test]
    fn stat_basics() {
        let s = Stat::from_samples(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - 1.0).abs() < 1e-12);
        assert_eq!(Stat::from_samples(&[]).mean, 0.0);
        assert_eq!(Stat::from_samples(&[5.0]).std, 0.0);
    }

    #[test]
    fn site_curve_monotone_in_p() {
        let g = generators::torus(&[16, 16]);
        let mc = MonteCarlo {
            trials: 8,
            threads: 2,
            base_seed: 42,
        };
        let keeps = [0.2, 0.5, 0.8, 1.0];
        let curve = mc.gamma_site_curve(&g, &keeps);
        for w in curve.windows(2) {
            assert!(w[0].mean <= w[1].mean + 1e-9);
        }
        assert!((curve[3].mean - 1.0).abs() < 1e-12);
    }

    /// The determinism contract: identical statistics across thread
    /// counts {1, 2, 8} *and* across repeated calls.
    #[test]
    fn deterministic_across_thread_counts_and_pool_reuse() {
        let g = generators::hypercube(7);
        let keeps = [0.3, 0.6, 0.9];
        let reference = MonteCarlo {
            trials: 6,
            threads: 1,
            base_seed: 7,
        }
        .gamma_site_curve(&g, &keeps);
        for threads in [1usize, 2, 8] {
            let mc = MonteCarlo {
                trials: 6,
                threads,
                base_seed: 7,
            };
            for round in 0..3 {
                let got = mc.gamma_site_curve(&g, &keeps);
                for (x, y) in reference.iter().zip(&got) {
                    assert_eq!(x.mean, y.mean, "threads {threads}, round {round}");
                    assert_eq!(x.std, y.std, "threads {threads}, round {round}");
                }
            }
        }
    }

    #[test]
    fn direct_and_nz_agree_roughly() {
        // supercritical 2-D torus: both estimators must see a giant
        // component at keep = 0.9
        let g = generators::torus(&[20, 20]);
        let mc = MonteCarlo {
            trials: 12,
            threads: 2,
            base_seed: 3,
        };
        let direct = mc.gamma_site_at(&g, 0.9);
        let nz = mc.gamma_site_curve(&g, &[0.9])[0];
        assert!(
            (direct.mean - nz.mean).abs() < 0.1,
            "{} vs {}",
            direct.mean,
            nz.mean
        );
        assert!(direct.mean > 0.7);
    }

    #[test]
    fn bond_curve_reaches_one_on_connected_graph() {
        let g = generators::cycle(50);
        let mc = MonteCarlo {
            trials: 4,
            threads: 1,
            base_seed: 5,
        };
        let c = mc.gamma_bond_curve_cancelable(&g, &[0.0, 1.0], &CancelToken::new());
        assert!((c[1].mean - 1.0).abs() < 1e-12);
        assert!(c[0].mean < 0.1);
    }

    /// The tentpole contract at the estimator level: per-trial
    /// samples — not just aggregates — are bit-identical between the
    /// scalar and lane paths, for full and ragged batches, at
    /// several thread counts.
    #[test]
    fn lane_and_scalar_samples_bit_identical() {
        let g = generators::torus(&[9, 9]); // 81 nodes: ragged words
        for trials in [3usize, 64, 70] {
            let reference = MonteCarlo {
                trials,
                threads: 1,
                base_seed: 0xAB,
            }
            .gamma_site_samples(&g, 0.55, 1);
            assert_eq!(reference.len(), trials);
            for threads in [1usize, 2, 4] {
                let mc = MonteCarlo {
                    trials,
                    threads,
                    base_seed: 0xAB,
                };
                for width in [2usize, 64] {
                    let lane = mc.gamma_site_samples(&g, 0.55, width);
                    assert_eq!(
                        reference, lane,
                        "trials {trials}, threads {threads}, width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_threads_resolves_to_default() {
        let g = generators::cycle(30);
        let a = MonteCarlo {
            trials: 4,
            threads: 0,
            base_seed: 9,
        }
        .gamma_site_at(&g, 0.8);
        let b = MonteCarlo {
            trials: 4,
            threads: 3,
            base_seed: 9,
        }
        .gamma_site_at(&g, 0.8);
        assert_eq!(a.mean, b.mean, "thread count never changes results");
    }
}
