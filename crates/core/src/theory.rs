//! One-stop theory table: every quantitative statement of the paper,
//! evaluated for a concrete network (`fxnet theory` prints it).

/// The paper's predictions instantiated for one network.
#[derive(Debug, Clone)]
pub struct TheoryTable {
    /// Node count.
    pub n: usize,
    /// Max degree `δ`.
    pub delta: usize,
    /// Span `σ` (known exactly for meshes: 2; estimated elsewhere).
    pub sigma: f64,
    /// Theorem 2.1: max adversarial faults with `k = 2` before the
    /// guarantee lapses (`f ≤ α·n/(4k)` ⇒ with k=2, `f ≤ α·n/8`).
    pub thm21_max_faults_k2: f64,
    /// Theorem 3.4: max random-fault probability `1/(2e·δ^{4σ})`.
    pub thm34_max_p: f64,
    /// Theorem 3.4: ε ceiling `1/(2δ)`.
    pub thm34_max_epsilon: f64,
    /// Theorem 3.4: αe floor `6δ²·log³_δ n / n`.
    pub thm34_min_alpha_e: f64,
    /// §4 remark: diameter bound factor `α⁻¹·ln n` for the pruned
    /// component (`O(·)`, constant 1).
    pub diameter_bound: f64,
}

/// Builds the table given measured/known `alpha` (node expansion) and
/// `sigma`.
pub fn theory_table(n: usize, delta: usize, alpha: f64, sigma: f64) -> TheoryTable {
    TheoryTable {
        n,
        delta,
        sigma,
        thm21_max_faults_k2: alpha * n as f64 / 8.0,
        thm34_max_p: fx_prune::theorem34_max_p(delta, sigma),
        thm34_max_epsilon: fx_prune::theorem34_max_epsilon(delta),
        thm34_min_alpha_e: fx_prune::theorem34_min_alpha_e(delta, n),
        diameter_bound: if alpha > 0.0 {
            (n as f64).ln() / alpha
        } else {
            f64::INFINITY
        },
    }
}

/// The mesh span constant proved by Theorem 3.6.
pub const MESH_SPAN: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_values() {
        let t = theory_table(1024, 4, 0.5, MESH_SPAN);
        assert!((t.thm21_max_faults_k2 - 64.0).abs() < 1e-9);
        assert!((t.thm34_max_epsilon - 0.125).abs() < 1e-12);
        assert!(t.thm34_max_p > 0.0 && t.thm34_max_p < 1e-4);
        assert!(t.diameter_bound > 0.0);
    }

    #[test]
    fn degenerate_alpha() {
        let t = theory_table(10, 3, 0.0, 1.0);
        assert!(t.diameter_bound.is_infinite());
        assert_eq!(t.thm21_max_faults_k2, 0.0);
    }
}
