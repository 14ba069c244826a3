//! Newman–Ziff incremental percolation sweeps.
//!
//! Instead of resampling the graph at every occupation probability,
//! one trial inserts nodes (or edges) in a random order, maintaining
//! the largest cluster with union–find. One O(n·α(n)) sweep yields the
//! whole `γ(k)` curve (`k` = number of occupied sites/bonds), which is
//! mapped to `γ(p)` through the canonical-ensemble approximation
//! `k ≈ p·n` (exact convolution is a binomial smear; the approximation
//! error vanishes as n grows — A2 ablates this against naive
//! resampling).

use fx_graph::unionfind::UnionFind;
use fx_graph::{CsrGraph, NodeId};
use fx_trace::{Histogram, Target};
use rand::seq::SliceRandom;
use rand::Rng;

// Sweep-duration distributions (`FXNET_TRACE=percolation`). One
// relaxed atomic load per sweep when tracing is off; one clock pair
// per sweep (amortized over an O(n α(n)) kernel) when on.
static TRACE_SITE_SWEEP_NS: Histogram = Histogram::new(Target::Percolation, "site_sweep_ns");
static TRACE_BOND_SWEEP_NS: Histogram = Histogram::new(Target::Percolation, "bond_sweep_ns");

/// Reusable buffers for Newman–Ziff sweeps: one per Monte-Carlo
/// loop, so a 10k-trial curve allocates one arena instead of a fresh
/// permutation + occupancy array + union-find per trial.
#[derive(Debug, Clone, Default)]
pub struct SweepScratch {
    order: Vec<NodeId>,
    edges: Vec<(NodeId, NodeId)>,
    occupied: Vec<bool>,
    uf: UnionFind,
    curve: Vec<u32>,
}

impl SweepScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        SweepScratch::default()
    }
}

/// One site-percolation sweep: `out[k]` = size of the largest cluster
/// when exactly `k` nodes are occupied (in a uniformly random order).
pub fn site_sweep<R: Rng + ?Sized>(g: &CsrGraph, rng: &mut R) -> Vec<u32> {
    site_sweep_with(g, rng, &mut SweepScratch::new()).to_vec()
}

/// [`site_sweep`] through reusable scratch (same random stream); the
/// returned curve borrows the scratch.
pub fn site_sweep_with<'s, R: Rng + ?Sized>(
    g: &CsrGraph,
    rng: &mut R,
    scratch: &'s mut SweepScratch,
) -> &'s [u32] {
    let n = g.num_nodes();
    scratch.order.clear();
    scratch.order.extend(0..n as NodeId);
    scratch.order.shuffle(rng);
    scratch.site_run(g)
}

/// A site sweep in the *caller's* insertion order instead of a random
/// permutation: `out[k]` = largest cluster with the first `k` nodes of
/// `order` occupied. One deterministic sweep yields a whole *targeted*
/// dilution curve — pass the reverse of a removal order (e.g.
/// `fx-faults`' degree/core attack order) and read the curve at
/// `n − removed`.
pub fn site_sweep_ordered_with<'s>(
    g: &CsrGraph,
    order: &[NodeId],
    scratch: &'s mut SweepScratch,
) -> &'s [u32] {
    assert_eq!(
        order.len(),
        g.num_nodes(),
        "insertion order must cover every node exactly once"
    );
    scratch.order.clear();
    scratch.order.extend_from_slice(order);
    scratch.site_run(g)
}

impl SweepScratch {
    /// The site-sweep kernel: inserts `self.order` one node at a
    /// time, maintaining the largest cluster with union–find.
    fn site_run(&mut self, g: &CsrGraph) -> &[u32] {
        let t0 = fx_trace::enabled(Target::Percolation).then(std::time::Instant::now);
        let n = g.num_nodes();
        self.occupied.clear();
        self.occupied.resize(n, false);
        self.uf.reset(n);
        let uf = &mut self.uf;
        let mut largest = 0u32;
        self.curve.clear();
        self.curve.reserve(n + 1);
        self.curve.push(0);
        for &v in &self.order {
            self.occupied[v as usize] = true;
            for &w in g.neighbors(v) {
                if self.occupied[w as usize] {
                    uf.union(v, w);
                }
            }
            let size = uf.component_size(v) as u32;
            largest = largest.max(size);
            self.curve.push(largest);
        }
        if let Some(t0) = t0 {
            TRACE_SITE_SWEEP_NS.record_always(t0.elapsed().as_nanos() as u64);
        }
        &self.curve
    }
}

/// One bond-percolation sweep: `out[k]` = largest cluster size with
/// exactly `k` edges occupied (all nodes present; singletons count 1).
pub fn bond_sweep<R: Rng + ?Sized>(g: &CsrGraph, rng: &mut R) -> Vec<u32> {
    bond_sweep_with(g, rng, &mut SweepScratch::new()).to_vec()
}

/// [`bond_sweep`] through reusable scratch (same random stream); the
/// returned curve borrows the scratch.
pub fn bond_sweep_with<'s, R: Rng + ?Sized>(
    g: &CsrGraph,
    rng: &mut R,
    scratch: &'s mut SweepScratch,
) -> &'s [u32] {
    let t0 = fx_trace::enabled(Target::Percolation).then(std::time::Instant::now);
    let n = g.num_nodes();
    scratch.edges.clear();
    scratch.edges.extend(g.edges().map(|e| (e.u, e.v)));
    scratch.edges.shuffle(rng);
    scratch.uf.reset(n);
    let uf = &mut scratch.uf;
    let mut largest = if n == 0 { 0 } else { 1u32 };
    scratch.curve.clear();
    scratch.curve.reserve(scratch.edges.len() + 1);
    scratch.curve.push(largest);
    for &(u, v) in &scratch.edges {
        uf.union(u, v);
        let size = uf.component_size(u) as u32;
        largest = largest.max(size);
        scratch.curve.push(largest);
    }
    if let Some(t0) = t0 {
        TRACE_BOND_SWEEP_NS.record_always(t0.elapsed().as_nanos() as u64);
    }
    &scratch.curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn site_sweep_monotone_and_complete() {
        let g = generators::torus(&[8, 8]);
        let mut rng = SmallRng::seed_from_u64(1);
        let curve = site_sweep(&g, &mut rng);
        assert_eq!(curve.len(), 65);
        assert_eq!(curve[0], 0);
        assert_eq!(curve[64], 64);
        for w in curve.windows(2) {
            assert!(w[0] <= w[1], "largest cluster must be monotone");
        }
    }

    #[test]
    fn bond_sweep_monotone_and_complete() {
        let g = generators::cycle(20);
        let mut rng = SmallRng::seed_from_u64(2);
        let curve = bond_sweep(&g, &mut rng);
        assert_eq!(curve.len(), 21);
        assert_eq!(curve[0], 1);
        assert_eq!(curve[20], 20);
        for w in curve.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn ordered_sweep_matches_manual_gamma() {
        // insert a path's nodes end-to-end: after k insertions the
        // largest cluster is exactly k
        let g = generators::path(10);
        let order: Vec<NodeId> = (0..10).collect();
        let mut scratch = SweepScratch::new();
        let curve = site_sweep_ordered_with(&g, &order, &mut scratch).to_vec();
        assert_eq!(curve, (0..=10u32).collect::<Vec<_>>());
        // reversed order gives the same curve by symmetry; scratch
        // reuse must not perturb it
        let rev: Vec<NodeId> = (0..10).rev().collect();
        let curve2 = site_sweep_ordered_with(&g, &rev, &mut scratch).to_vec();
        assert_eq!(curve, curve2);
    }

    #[test]
    fn site_sweep_on_disconnected_graph() {
        let mut b = fx_graph::GraphBuilder::new(6);
        b.add_edge(0, 1).add_edge(2, 3);
        let g = b.build();
        let mut rng = SmallRng::seed_from_u64(3);
        let curve = site_sweep(&g, &mut rng);
        assert_eq!(curve[6], 2); // largest component has 2 nodes
    }
}
