//! Monte-Carlo percolation curves.
//!
//! Trials are independent and deterministically seeded
//! (`seed = base ⊕ trial-index` hashed), and run in trial order on
//! the calling thread through one set of buffers per call: the lane
//! engine's [`LaneScratch`] for direct resampling, one
//! [`SweepScratch`] for Newman–Ziff curves. Parallelism lives one
//! level up, across campaign cells.

use crate::lanes::{gamma_trials_with, LaneScratch, MAX_LANES};
use crate::newman_ziff::{bond_sweep_with, site_sweep_with, SweepScratch};
use crate::sample::sample_alive_nodes_into;
use fx_graph::par::CancelToken;
use fx_graph::stats::Welford;
use fx_graph::CsrGraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

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

/// Monte-Carlo configuration.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo {
    /// Independent trials per measurement.
    pub trials: usize,
    /// Base seed; trial `i` uses a seed derived from `(base, i)`.
    pub base_seed: u64,
}

impl Default for MonteCarlo {
    fn default() -> Self {
        MonteCarlo {
            trials: 32,
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
    /// `γ(keep)` for **site** percolation by direct resampling.
    ///
    /// Bernoulli masks are vectorizable, so this runs the
    /// bit-parallel lane engine ([`crate::lanes`]) at the full
    /// [`MAX_LANES`] width — bit-identical to the scalar path by the
    /// engine's determinism contract.
    pub fn gamma_site_at(&self, g: &CsrGraph, keep: f64) -> Stat {
        Stat::from_samples(&self.gamma_site_samples(g, keep, MAX_LANES))
    }

    /// Per-trial γ samples of [`MonteCarlo::gamma_site_at`], in trial
    /// order, at an explicit lane width (`1` = scalar path, `2..=64`
    /// = lane engine; out-of-range widths clamp).
    pub fn gamma_site_samples(&self, g: &CsrGraph, keep: f64, lane_width: usize) -> Vec<f64> {
        let n = g.num_nodes();
        let mut scratch = LaneScratch::new();
        let (gammas, _) =
            gamma_trials_with(g, self.trials, lane_width, &mut scratch, |i, alive| {
                let mut rng = SmallRng::seed_from_u64(trial_seed(self.base_seed, i));
                sample_alive_nodes_into(n, keep, &mut rng, alive);
            });
        gammas
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
    /// fires yields exactly the uncancelled curve.
    pub fn gamma_site_curve_cancelable(
        &self,
        g: &CsrGraph,
        keeps: &[f64],
        token: &CancelToken,
    ) -> Vec<Stat> {
        self.sweep_stats(g, keeps, g.num_nodes(), token, site_sweep_with)
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
        self.sweep_stats(g, keeps, g.num_edges(), token, bond_sweep_with)
    }

    /// Runs one `sweep` per trial, each returning the largest-cluster
    /// curve over `steps` occupation events, and maps the curves to
    /// per-keep statistics (`k = round(keep·steps)`). Each keep's
    /// samples stream through one [`Welford`] accumulator in trial
    /// order. The token is polled before every sweep; once it fires,
    /// the remaining trials are skipped.
    fn sweep_stats(
        &self,
        g: &CsrGraph,
        keeps: &[f64],
        steps: usize,
        token: &CancelToken,
        sweep: for<'s> fn(&CsrGraph, &mut SmallRng, &'s mut SweepScratch) -> &'s [u32],
    ) -> Vec<Stat> {
        let n = g.num_nodes().max(1) as f64;
        let ks: Vec<usize> = keeps
            .iter()
            .map(|&q| ((q * steps as f64).round() as usize).min(steps))
            .collect();
        let mut stats = vec![Welford::default(); keeps.len()];
        let mut scratch = SweepScratch::new();
        for i in 0..self.trials {
            if token.is_cancelled() {
                break;
            }
            let mut rng = SmallRng::seed_from_u64(trial_seed(self.base_seed, i));
            let curve = sweep(g, &mut rng, &mut scratch);
            for (w, &k) in stats.iter_mut().zip(&ks) {
                w.push(curve[k] as f64 / n);
            }
        }
        stats.into_iter().map(Stat::from).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::generators;
    use fx_graph::par::par_map;

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
            base_seed: 42,
        };
        let keeps = [0.2, 0.5, 0.8, 1.0];
        let curve = mc.gamma_site_curve(&g, &keeps);
        for w in curve.windows(2) {
            assert!(w[0].mean <= w[1].mean + 1e-9);
        }
        assert!((curve[3].mean - 1.0).abs() < 1e-12);
    }

    /// The determinism contract: identical statistics from repeated
    /// calls, whether they run on the calling thread or on the helper
    /// threads of a parallel cell loop at thread counts {1, 2, 8}.
    #[test]
    fn deterministic_across_thread_counts_and_pool_reuse() {
        let g = generators::hypercube(7);
        let keeps = [0.3, 0.6, 0.9];
        let mc = MonteCarlo {
            trials: 6,
            base_seed: 7,
        };
        let reference = mc.gamma_site_curve(&g, &keeps);
        for threads in [1usize, 2, 8] {
            let rounds = par_map(3, threads, |_| mc.gamma_site_curve(&g, &keeps));
            for (round, got) in rounds.iter().enumerate() {
                assert_eq!(&reference, got, "threads {threads}, round {round}");
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
            base_seed: 5,
        };
        let c = mc.gamma_bond_curve_cancelable(&g, &[0.0, 1.0], &CancelToken::new());
        assert!((c[1].mean - 1.0).abs() < 1e-12);
        assert!(c[0].mean < 0.1);
    }

    /// The tentpole contract at the estimator level: per-trial
    /// samples — not just aggregates — are bit-identical between the
    /// scalar and lane paths, for full and ragged batches.
    #[test]
    fn lane_and_scalar_samples_bit_identical() {
        let g = generators::torus(&[9, 9]); // 81 nodes: ragged words
        for trials in [3usize, 64, 70] {
            let mc = MonteCarlo {
                trials,
                base_seed: 0xAB,
            };
            let reference = mc.gamma_site_samples(&g, 0.55, 1);
            assert_eq!(reference.len(), trials);
            for width in [2usize, 64] {
                let lane = mc.gamma_site_samples(&g, 0.55, width);
                assert_eq!(reference, lane, "trials {trials}, width {width}");
            }
        }
    }
}
