//! Claim 3.2: connected-subgraph counting.
//!
//! > The number of connected subgraphs with `r` vertices is at most
//! > `n·δ^{2r}` (Euler-tour encoding of a spanning tree).
//!
//! The campaign algorithm `subgraph-count` (experiment E8) compares
//! exact counts against this bound.

use crate::compact_sets::for_each_connected_subset;
use fx_graph::CsrGraph;

/// Exactly counts connected node subsets of each size `1..=max_size`.
/// Returns `None` if more than `cap` connected subsets (of any size)
/// were visited.
pub fn count_connected_subsets_by_size(
    g: &CsrGraph,
    max_size: usize,
    cap: usize,
) -> Option<Vec<u64>> {
    let mut counts = vec![0u64; max_size + 1];
    let res = for_each_connected_subset(g, cap, |s| {
        if s.len() <= max_size {
            counts[s.len()] += 1;
        }
        true
    });
    res.map(|_| counts)
}

/// The Claim 3.2 bound `n·δ^{2r}` (as `f64`; saturates to infinity).
pub fn claim32_bound(n: usize, delta: usize, r: usize) -> f64 {
    n as f64 * (delta as f64).powi((2 * r) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::generators;

    #[test]
    fn path_counts_by_size() {
        let g = generators::path(6);
        let c = count_connected_subsets_by_size(&g, 6, 1_000_000).unwrap();
        // intervals: 6 of size 1, 5 of size 2, …, 1 of size 6
        assert_eq!(&c[1..], &[6, 5, 4, 3, 2, 1]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // r is the semantic subgraph size
    fn bound_holds_on_small_expanderish_graph() {
        let g = generators::margulis(3); // 9 nodes
        let delta = g.max_degree();
        let c = count_connected_subsets_by_size(&g, 5, 10_000_000).unwrap();
        for r in 1..=5usize {
            let bound = claim32_bound(9, delta, r);
            assert!(
                (c[r] as f64) <= bound,
                "r={r}: count {} > bound {bound}",
                c[r]
            );
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // r is the semantic subgraph size
    fn bound_holds_on_cycle() {
        let g = generators::cycle(10);
        let c = count_connected_subsets_by_size(&g, 4, 1_000_000).unwrap();
        for r in 1..=4usize {
            assert!((c[r] as f64) <= claim32_bound(10, 2, r));
        }
    }

    #[test]
    fn claim32_bound_values() {
        assert!((claim32_bound(5, 2, 3) - 5.0 * 64.0).abs() < 1e-9);
        assert!(claim32_bound(10, 3, 2) > claim32_bound(10, 3, 1));
    }

    #[test]
    fn cap_returns_none() {
        let g = generators::complete(16);
        assert!(count_connected_subsets_by_size(&g, 8, 50).is_none());
    }
}
