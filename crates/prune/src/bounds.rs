//! Closed-form bound calculators for the paper's remaining
//! quantitative statements (Theorems 2.3, 2.5, 3.1; Claim 2.4). The
//! Claim 3.2 subgraph-count bound lives in `fx_span::count`.

/// Claim 2.4: the subdivided expander `H_k` has expansion `Θ(1/k)` —
/// this is the proof's *upper* bound `α(U') ≤ 2/k` realized by
/// fattened sets.
pub fn claim24_expansion_upper(k: usize) -> f64 {
    assert!(k >= 1);
    2.0 / k as f64
}

/// Theorem 2.3: number of faults the chain-center adversary spends on
/// the subdivided expander: one per original edge, i.e. `δ·n/2` =
/// `(1/k)`·(number of `H` nodes) up to constants.
pub fn theorem23_fault_budget(original_n: usize, degree: usize) -> usize {
    degree * original_n / 2
}

/// Theorem 2.3: the resulting component-size bound: each surviving
/// component has `O(δ·k)` nodes (an original node plus its half
/// chains, or chain fragments).
pub fn theorem23_component_bound(degree: usize, k: usize) -> usize {
    // one original node + δ half-chains of length k/2, generous +δ for
    // rounding of odd k
    1 + degree * (k / 2 + 1)
}

/// Theorem 2.5: the dissection bound
/// `O(log(1/ε)/ε · α(n) · n)` with explicit constant 1 (the
/// experiments report measured/bound ratios, so the constant only
/// shifts the ratio).
pub fn theorem25_removal_bound(n: usize, alpha_n: f64, epsilon: f64) -> f64 {
    assert!(epsilon > 0.0 && epsilon < 1.0);
    (1.0 / epsilon).ln() / epsilon * alpha_n * n as f64
}

/// Theorem 3.1: the disintegrating fault probability
/// `(3·log δ / β) · α` for the expansion-`α` subdivided family built
/// from a `β`-expander of degree `δ`; equivalently `4·ln δ / k` in the
/// proof's parametrization. Returns the proof's `p = 4 ln δ / k`.
pub fn theorem31_fault_probability(delta: usize, k: usize) -> f64 {
    assert!(delta >= 2 && k >= 1);
    4.0 * (delta as f64).ln() / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonicities() {
        assert!(claim24_expansion_upper(4) > claim24_expansion_upper(8));
        assert!(
            theorem25_removal_bound(1000, 0.1, 0.25) < theorem25_removal_bound(1000, 0.1, 0.125)
        );
        assert!(theorem31_fault_probability(4, 4) > theorem31_fault_probability(4, 8));
    }

    #[test]
    fn specific_values() {
        assert_eq!(theorem23_fault_budget(100, 4), 200);
        assert_eq!(theorem23_component_bound(4, 8), 1 + 4 * 5);
        assert!((claim24_expansion_upper(8) - 0.25).abs() < 1e-15);
        let p = theorem31_fault_probability(4, 8);
        assert!((p - 4.0 * 4f64.ln() / 8.0).abs() < 1e-12);
    }
}
