//! Report types: what the analyses hand back (exec, the CLI and the
//! examples read their fields).

use fx_expansion::ExpansionBounds;

/// An expansion interval as the reports carry it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundsSummary {
    /// Certified lower bound.
    pub lower: f64,
    /// Witnessed upper bound (`None` encodes "no valid cut" / ∞).
    pub upper: Option<f64>,
    /// Whether lower == upper came from exhaustive search.
    pub exact: bool,
}

impl From<&ExpansionBounds> for BoundsSummary {
    fn from(b: &ExpansionBounds) -> Self {
        BoundsSummary {
            lower: b.lower,
            upper: if b.upper.is_finite() {
                Some(b.upper)
            } else {
                None
            },
            exact: b.exact,
        }
    }
}

impl BoundsSummary {
    /// Midpoint-ish point estimate (upper preferred: it is witnessed).
    pub fn point(&self) -> f64 {
        self.upper.unwrap_or(self.lower)
    }
}

/// Report of one adversarial-fault analysis (Theorem 2.1 pipeline).
#[derive(Debug, Clone)]
pub struct AdversarialReport {
    /// Network name.
    pub network: String,
    /// Fault model name.
    pub adversary: String,
    /// Node count of the healthy network.
    pub n: usize,
    /// Number of faults injected.
    pub faults: usize,
    /// Fault-free expansion interval.
    pub alpha_before: BoundsSummary,
    /// Largest-component fraction after faults (before pruning).
    pub gamma_after_faults: f64,
    /// `ε` used by `Prune`.
    pub epsilon: f64,
    /// Nodes surviving `Prune`.
    pub kept: usize,
    /// Culled node count.
    pub culled: usize,
    /// Expansion interval of the pruned component.
    pub alpha_after: BoundsSummary,
    /// Theorem 2.1 guaranteed minimum size (when preconditions hold).
    pub guaranteed_min_kept: Option<f64>,
    /// Theorem 2.1 guaranteed expansion.
    pub guaranteed_min_expansion: Option<f64>,
    /// Whether the prune postcondition is oracle-certified.
    pub certified: bool,
}

/// Report of one random-fault analysis (Theorem 3.4 pipeline),
/// aggregated over trials.
#[derive(Debug, Clone)]
pub struct RandomFaultReport {
    /// Network name.
    pub network: String,
    /// Per-node fault probability.
    pub p: f64,
    /// Trials aggregated.
    pub trials: usize,
    /// Node count of the healthy network.
    pub n: usize,
    /// Fault-free edge expansion interval.
    pub alpha_e_before: BoundsSummary,
    /// `ε` used by `Prune2`.
    pub epsilon: f64,
    /// Mean largest-component fraction after faults.
    pub mean_gamma: f64,
    /// Mean kept fraction after `Prune2`.
    pub mean_kept_fraction: f64,
    /// Fraction of trials where `|H| ≥ n/2` (Theorem 3.4's success
    /// event).
    pub success_rate: f64,
    /// Mean edge-expansion upper bound of `H` across trials.
    pub mean_alpha_e_after: f64,
    /// Theorem 3.4 maximum tolerated `p` for this network
    /// (δ from the graph, σ supplied by the caller).
    pub theorem34_max_p: f64,
    /// Whether the theorem's preconditions held.
    pub theorem34_applicable: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_summary_encodes_infinity() {
        let b = ExpansionBounds {
            lower: 0.1,
            upper: f64::INFINITY,
            witness: None,
            exact: false,
        };
        let s = BoundsSummary::from(&b);
        assert_eq!(s.upper, None);
        assert!((s.point() - 0.1).abs() < 1e-12);
    }
}
