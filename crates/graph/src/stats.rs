//! The shared [`Welford`] streaming accumulator every statistical
//! consumer (percolation Monte-Carlo, campaign aggregation, the bench
//! harness) builds on, and the Pareto draw behind heavy-tailed fault
//! weights and overlay session times.

/// Welford online mean/variance accumulator.
///
/// The single streaming-statistics implementation of the workspace:
/// `fx-percolation`'s per-measurement `Stat`, `fx-campaign`'s
/// `(group, metric)` aggregates, and ad-hoc experiment summaries all
/// push into this type instead of maintaining parallel formulas.
/// Numerically stable (no catastrophic cancellation) and
/// order-deterministic: pushing the same samples in the same order
/// always produces bit-identical state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    /// Samples seen.
    pub count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Accumulates every sample of `xs` (in order).
    pub fn from_samples<I: IntoIterator<Item = f64>>(xs: I) -> Welford {
        let mut w = Welford::default();
        for x in xs {
            w.push(x);
        }
        w
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for < 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Half-width of the normal-approximation 95% CI
    /// (`1.96·s/√n`; 0 for < 2 samples).
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * self.std() / (self.count as f64).sqrt()
        }
    }
}

/// One draw from a Pareto(α, x_m = 1) distribution by inverse
/// transform: heavy-tailed weights for fault models (per-node fault
/// heterogeneity) and overlay session times. `α` must be positive;
/// the mean is finite only for `α > 1` (callers wanting a unit-mean
/// normalization multiply by `(α−1)/α`).
pub fn pareto_sample<R: rand::RngCore + ?Sized>(alpha: f64, rng: &mut R) -> f64 {
    assert!(alpha > 0.0, "Pareto shape must be positive, got {alpha}");
    use rand::Rng;
    // u ∈ (0, 1]: complement of the half-open uniform draw, so the
    // power never divides by zero
    let u: f64 = 1.0 - rng.gen_range(0.0..1.0);
    u.powf(-1.0 / alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_two_pass() {
        let xs = [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4];
        let w = Welford::from_samples(xs.iter().copied());
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert!(w.ci95_half_width() > 0.0);
        assert_eq!(Welford::default().mean(), 0.0);
        assert_eq!(Welford::from_samples([5.0]).std(), 0.0);
    }

    #[test]
    fn pareto_draws_are_heavy_tailed_with_unit_floor() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(11);
        let alpha = 1.5;
        let mut mean = 0.0;
        let trials = 4000;
        for _ in 0..trials {
            let x = pareto_sample(alpha, &mut rng);
            assert!(x >= 1.0, "Pareto support is [1, ∞), got {x}");
            mean += x / trials as f64;
        }
        // E[X] = α/(α−1) = 3 for α = 1.5 (slow convergence: the tail
        // is heavy, so allow a generous window)
        assert!((1.8..8.0).contains(&mean), "mean {mean}");
    }
}
