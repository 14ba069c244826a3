//! Random graph models: Erdős–Rényi and random regular graphs.
//!
//! Random `d`-regular graphs are expanders with high probability
//! (second eigenvalue `≈ 2√(d−1)`), and are the scalable "expander
//! family" the experiments sweep; the Margulis construction in
//! [`super::margulis`] provides a deterministic alternative.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::node::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

/// Erdős–Rényi `G(n, p)`: each possible edge present independently
/// with probability `p`.
pub fn gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> CsrGraph {
    assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
    let mut b = GraphBuilder::new(n);
    if p <= 0.0 {
        return b.build();
    }
    if p >= 1.0 {
        return super::complete(n);
    }
    // Geometric skipping: expected O(n^2 p) work instead of O(n^2).
    let log_q = (1.0 - p).ln();
    let total = n as u64 * (n as u64 - 1) / 2;
    let mut idx: u64 = 0;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (u.ln() / log_q).floor() as u64;
        idx = idx.saturating_add(skip);
        if idx >= total {
            break;
        }
        // decode linear index -> (i, j), i < j
        let (i, j) = decode_pair(idx, n as u64);
        b.add_edge(i as NodeId, j as NodeId);
        idx += 1;
    }
    b.build()
}

/// Decodes a linear index over the upper triangle of an `n × n` matrix
/// into `(row, col)` with `row < col`.
fn decode_pair(idx: u64, n: u64) -> (u64, u64) {
    // row r occupies n-1-r entries; find r by solving the triangular
    // prefix. Use the closed form with a float seed, then correct.
    let mut r = {
        let fidx = idx as f64;
        let fn_ = n as f64;
        let disc = (2.0 * fn_ - 1.0) * (2.0 * fn_ - 1.0) - 8.0 * fidx;
        (((2.0 * fn_ - 1.0) - disc.max(0.0).sqrt()) / 2.0).floor() as u64
    };
    let prefix = |r: u64| r * n - r * (r + 1) / 2; // entries before row r... rows 0..r
    while r > 0 && prefix(r) > idx {
        r -= 1;
    }
    while prefix(r + 1) <= idx {
        r += 1;
    }
    let c = r + 1 + (idx - prefix(r));
    (r, c)
}

/// Watts–Strogatz small world: a ring lattice on `n` nodes where each
/// node links to its `k` nearest neighbors (`k/2` per side — a
/// 1-dimensional torus with a fattened neighborhood), then every
/// lattice edge is rewired with probability `p` to a uniformly random
/// endpoint (rejecting self-loops and duplicates). `p = 0` is the
/// pure lattice, `p = 1` approaches `G(n, m)`; small intermediate `p`
/// gives the short-path/high-clustering regime whose fault tolerance
/// the Demichev et al. line of work measures. Requires `k` even with
/// `2 ≤ k < n`.
pub fn small_world<R: Rng>(n: usize, k: usize, p: f64, rng: &mut R) -> CsrGraph {
    assert!(k >= 2 && k < n, "need 2 ≤ k < n, got k={k} n={n}");
    assert!(k.is_multiple_of(2), "k must be even, got {k}");
    assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
    // edge → slot in `edges`, so a rewire is an O(1) swap
    let mut slot = std::collections::HashMap::with_capacity(n * k);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * k / 2);
    let key = |u: NodeId, v: NodeId| if u < v { (u, v) } else { (v, u) };
    // seed the lattice first so rewiring sees the full edge set
    for j in 1..=k / 2 {
        for u in 0..n {
            let e = key(u as NodeId, ((u + j) % n) as NodeId);
            if let std::collections::hash_map::Entry::Vacant(v) = slot.entry(e) {
                v.insert(edges.len());
                edges.push(e);
            }
        }
    }
    // Watts–Strogatz pass: revisit each lattice edge in order, keep
    // the near endpoint, re-draw the far one with probability p
    for j in 1..=k / 2 {
        for u in 0..n {
            let old = key(u as NodeId, ((u + j) % n) as NodeId);
            if !rng.gen_bool(p) || !slot.contains_key(&old) {
                continue;
            }
            // a node wired to everyone has nowhere to rewire to
            let mut rewired = None;
            for _ in 0..64 {
                let w = rng.gen_range(0..n as u64) as NodeId;
                let cand = key(u as NodeId, w);
                if w as usize != u && !slot.contains_key(&cand) {
                    rewired = Some(cand);
                    break;
                }
            }
            if let Some(cand) = rewired {
                let pos = slot.remove(&old).expect("edge present");
                slot.insert(cand, pos);
                edges[pos] = cand;
            }
        }
    }
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

/// Random `d`-regular graph by the Steger–Wormald incremental pairing
/// algorithm: repeatedly match two random *compatible* half-edges
/// (distinct endpoints, edge not yet present); restart the attempt only
/// if the remaining stubs admit no compatible pair. Requires `n*d`
/// even and `d < n`. Asymptotically uniform for `d = O(n^{1/3})` and
/// practically never restarts for the (n, d) ranges the experiments
/// use; we cap at 1000 attempts defensively.
pub fn random_regular<R: Rng>(n: usize, d: usize, rng: &mut R) -> CsrGraph {
    assert!(
        (n * d).is_multiple_of(2),
        "n*d must be even for a d-regular graph"
    );
    assert!(d < n, "degree {d} must be < n = {n}");
    if d == 0 {
        return GraphBuilder::new(n).build();
    }
    'attempt: for _ in 0..1000 {
        let mut stubs: Vec<NodeId> = (0..n as NodeId)
            .flat_map(|v| std::iter::repeat_n(v, d))
            .collect();
        stubs.shuffle(rng);
        let mut seen = std::collections::HashSet::with_capacity(n * d);
        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * d / 2);
        while !stubs.is_empty() {
            // Try random pairs; after repeated failures fall back to a
            // full scan to decide between "stuck" and "unlucky".
            let mut matched = false;
            for _ in 0..20 {
                let i = rng.gen_range(0..stubs.len());
                let j = rng.gen_range(0..stubs.len());
                if i == j {
                    continue;
                }
                let (u, v) = (stubs[i], stubs[j]);
                let key = if u < v { (u, v) } else { (v, u) };
                if u != v && !seen.contains(&key) {
                    seen.insert(key);
                    edges.push(key);
                    // remove the larger index first
                    let (hi, lo) = if i > j { (i, j) } else { (j, i) };
                    stubs.swap_remove(hi);
                    stubs.swap_remove(lo);
                    matched = true;
                    break;
                }
            }
            if matched {
                continue;
            }
            // Exhaustive scan for any compatible pair.
            let mut found = None;
            'scan: for i in 0..stubs.len() {
                for j in (i + 1)..stubs.len() {
                    let (u, v) = (stubs[i], stubs[j]);
                    let key = if u < v { (u, v) } else { (v, u) };
                    if u != v && !seen.contains(&key) {
                        found = Some((i, j, key));
                        break 'scan;
                    }
                }
            }
            match found {
                Some((i, j, key)) => {
                    seen.insert(key);
                    edges.push(key);
                    stubs.swap_remove(j);
                    stubs.swap_remove(i);
                }
                None => continue 'attempt, // stuck: restart
            }
        }
        let mut b = GraphBuilder::with_capacity(n, edges.len());
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        return b.build();
    }
    panic!("random_regular({n},{d}): no simple matching in 1000 attempts");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::NodeSet;
    use crate::components::is_connected;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn gnp_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(gnp(10, 0.0, &mut rng).num_edges(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).num_edges(), 45);
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 400;
        let p = 0.05;
        let g = gnp(n, p, &mut rng);
        let expected = (n * (n - 1) / 2) as f64 * p;
        let got = g.num_edges() as f64;
        // 5 sigma tolerance
        let sigma = (expected * (1.0 - p)).sqrt();
        assert!(
            (got - expected).abs() < 5.0 * sigma,
            "edges {got} vs expected {expected}"
        );
        assert!(g.validate().is_ok());
    }

    #[test]
    fn decode_pair_roundtrip() {
        let n = 7u64;
        let mut idx = 0u64;
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(decode_pair(idx, n), (i, j), "idx {idx}");
                idx += 1;
            }
        }
    }

    #[test]
    fn small_world_p0_is_the_ring_lattice() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = small_world(20, 4, 0.0, &mut rng);
        assert_eq!(g.num_nodes(), 20);
        assert_eq!(g.num_edges(), 40, "n·k/2 lattice edges");
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.max_degree(), 4);
        // ring structure: 0 touches ±1, ±2
        let mut nb: Vec<_> = g.neighbors(0).to_vec();
        nb.sort_unstable();
        assert_eq!(nb, vec![1, 2, 18, 19]);
    }

    #[test]
    fn small_world_rewiring_preserves_edge_count() {
        let mut rng = SmallRng::seed_from_u64(10);
        for p in [0.1, 0.5, 1.0] {
            let g = small_world(60, 6, p, &mut rng);
            assert_eq!(g.num_edges(), 180, "p={p}: rewiring never adds/drops");
            assert!(g.validate().is_ok());
            assert!(g.min_degree() >= 1, "p={p}: near endpoints keep degree");
        }
        // some rewiring must actually have happened at p=0.5
        let g = small_world(60, 4, 0.5, &mut rng);
        let lattice: Vec<bool> = (0..60u32)
            .map(|u| {
                let mut nb: Vec<_> = g.neighbors(u).to_vec();
                nb.sort_unstable();
                nb == vec![(u + 59) % 60, (u + 58) % 60, (u + 1) % 60, (u + 2) % 60]
                    .into_iter()
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect::<Vec<_>>()
            })
            .collect();
        assert!(lattice.iter().any(|&x| !x), "p=0.5 moved at least one edge");
    }

    #[test]
    fn small_world_stays_connected_at_moderate_p() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = small_world(200, 6, 0.1, &mut rng);
        assert!(is_connected(&g, &NodeSet::full(200)));
    }

    #[test]
    fn random_regular_is_regular() {
        let mut rng = SmallRng::seed_from_u64(3);
        for &(n, d) in &[(10, 3), (40, 4), (101, 6)] {
            let g = random_regular(n, d, &mut rng);
            assert_eq!(g.num_nodes(), n);
            assert_eq!(g.min_degree(), d, "n={n} d={d}");
            assert_eq!(g.max_degree(), d);
        }
    }

    #[test]
    fn random_regular_likely_connected() {
        // d >= 3 random regular graphs are connected w.h.p.; with a
        // fixed seed this is deterministic.
        let mut rng = SmallRng::seed_from_u64(11);
        let g = random_regular(200, 4, &mut rng);
        assert!(is_connected(&g, &NodeSet::full(200)));
    }

    #[test]
    fn random_regular_degree_zero() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = random_regular(6, 0, &mut rng);
        assert_eq!(g.num_edges(), 0);
    }
}
