//! Property-based invariants across the workspace (proptest).
//!
//! Each property pins a contract the theorems rely on: set algebra,
//! component/union-find agreement, exact and approximate Steiner
//! costs, the span paths against the reference `set_span`, Lemma 3.3
//! compactification, prune postconditions, and sweep monotonicity.

use fault_expansion::prelude::*;
use fx_expansion::cut::Cut;
use fx_graph::boundary::{edge_cut_size, node_boundary};
use fx_graph::components::components;
use fx_graph::traversal::{bfs_ball, is_connected_subset};
use fx_graph::tree::{dreyfus_wagner_cost, dreyfus_wagner_fits, mehlhorn_steiner};
use fx_graph::unionfind::UnionFind;
use fx_span::compact_sets::{for_each_compact_set, random_compact_path, random_compact_set};
use fx_span::span::set_span;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Strategy: a random small graph as (n, edge list).
fn small_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (3usize..16).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        (
            Just(n),
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_edges.min(40)),
        )
    })
}

fn build(n: usize, pairs: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for &(u, v) in pairs {
        b.add_edge_skip_loop(u, v);
    }
    b.build()
}

/// Strategy: a random graph on at most 10 nodes, small enough to
/// brute-force over node subsets.
fn tiny_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..11).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..24),
        )
    })
}

/// Strategy: a random connected graph, a random spanning tree plus up
/// to `extra` random edges.
fn connected_graph(nodes: std::ops::Range<usize>, extra: usize) -> impl Strategy<Value = CsrGraph> {
    nodes
        .prop_flat_map(move |n| {
            (
                Just(n),
                proptest::collection::vec(0..u32::MAX, n - 1..n),
                proptest::collection::vec((0..n as u32, 0..n as u32), 0..extra),
            )
        })
        .prop_map(|(n, parents, mut pairs)| {
            pairs.extend((1..n as u32).zip(parents).map(|(v, p)| (v, p % v)));
            build(n, &pairs)
        })
}

/// Fewest edges of a connected subgraph of the alive nodes that holds
/// every terminal, by brute force over node subsets (n ≤ 10).
fn steiner_cost_brute_force(g: &CsrGraph, alive: &NodeSet, terminals: &[u32]) -> Option<u32> {
    let need = terminals.iter().fold(0u32, |m, &t| m | 1 << t);
    let allowed = alive.iter().fold(0u32, |m, v| m | 1 << v);
    let connected = |set: u32| {
        let start = set.trailing_zeros();
        let (mut seen, mut stack) = (1u32 << start, vec![start]);
        while let Some(v) = stack.pop() {
            for &w in g.neighbors(v) {
                if set >> w & 1 == 1 && seen >> w & 1 == 0 {
                    seen |= 1 << w;
                    stack.push(w);
                }
            }
        }
        seen == set
    };
    (1u32..1 << g.num_nodes())
        .filter(|&set| set & need == need && set & !allowed == 0 && connected(set))
        .map(|set| set.count_ones() - 1)
        .min()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// NodeSet algebra agrees with a HashSet model.
    #[test]
    fn bitset_matches_model(
        n in 1usize..200,
        a in proptest::collection::vec(0usize..200, 0..64),
        b in proptest::collection::vec(0usize..200, 0..64),
    ) {
        use std::collections::BTreeSet;
        let am: BTreeSet<u32> = a.iter().filter(|&&x| x < n).map(|&x| x as u32).collect();
        let bm: BTreeSet<u32> = b.iter().filter(|&&x| x < n).map(|&x| x as u32).collect();
        let aset = NodeSet::from_iter(n, am.iter().copied());
        let bset = NodeSet::from_iter(n, bm.iter().copied());

        let mut u = aset.clone();
        u.union_with(&bset);
        prop_assert_eq!(u.to_vec(), am.union(&bm).copied().collect::<Vec<_>>());

        let mut i = aset.clone();
        i.intersect_with(&bset);
        prop_assert_eq!(i.to_vec(), am.intersection(&bm).copied().collect::<Vec<_>>());

        let mut d = aset.clone();
        d.difference_with(&bset);
        prop_assert_eq!(d.to_vec(), am.difference(&bm).copied().collect::<Vec<_>>());

        let c = aset.complement();
        prop_assert_eq!(c.len(), n - am.len());
        prop_assert_eq!(aset.len(), am.len());
    }

    /// Union-find over graph edges produces exactly the BFS components.
    #[test]
    fn unionfind_agrees_with_bfs_components((n, pairs) in small_graph()) {
        let g = build(n, &pairs);
        let mut uf = UnionFind::new(n);
        for e in g.edges() {
            uf.union(e.u, e.v);
        }
        let alive = NodeSet::full(n);
        let comps = components(&g, &alive);
        prop_assert_eq!(uf.num_components(), comps.count());
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                prop_assert_eq!(
                    uf.connected(u, v),
                    comps.label[u as usize] == comps.label[v as usize]
                );
            }
        }
    }

    /// Mehlhorn's tree is a valid tree spanning the terminals, within
    /// 2× of the Dreyfus–Wagner optimum.
    #[test]
    fn mehlhorn_within_twice_optimal(
        (n, pairs) in small_graph(),
        term_seed in proptest::collection::vec(0usize..16, 1..5),
    ) {
        let g = build(n, &pairs);
        let alive = NodeSet::full(n);
        let terms: Vec<u32> = {
            let mut t: Vec<u32> = term_seed.iter().map(|&x| (x % n) as u32).collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        let exact = dreyfus_wagner_cost(&g, &alive, &terms);
        let approx = mehlhorn_steiner(&g, &alive, &terms);
        match (exact, approx) {
            (Some(opt), Some(tree)) => {
                prop_assert!(tree.validate(&g).is_ok());
                prop_assert!(tree.spans(&terms));
                prop_assert!(tree.num_edges() as u32 >= opt);
                prop_assert!(tree.num_edges() as u32 <= 2 * opt.max(1));
            }
            (None, None) => {} // terminals disconnected: both refuse
            (Some(opt), None) => {
                // Mehlhorn only fails when terminals are disconnected,
                // in which case DW must have failed too.
                prop_assert!(false, "Mehlhorn failed where DW found cost {opt}");
            }
            (None, Some(_)) => prop_assert!(false, "DW failed where Mehlhorn succeeded"),
        }
    }

    /// Lemma 3.3: compactify returns a compact set with no worse edge
    /// expansion, on arbitrary connected graphs and BFS-ball seeds.
    #[test]
    fn compactify_no_worse_expansion(
        (n, pairs) in small_graph(),
        seed in 0usize..16,
        size in 1usize..8,
    ) {
        let g = build(n, &pairs);
        let alive = NodeSet::full(n);
        // only meaningful on connected graphs
        prop_assume!(fault_expansion::graph::components::is_connected(&g, &alive));
        let s = bfs_ball(&g, &alive, (seed % n) as u32, size);
        prop_assume!(!s.is_empty() && 2 * s.len() < n);
        let k = fault_expansion::prune::compactify(&g, &alive, &s);
        prop_assert!(fault_expansion::prune::is_compact(&g, &alive, &k));
        let ratio = |x: &NodeSet| {
            edge_cut_size(&g, &alive, x) as f64 / x.len() as f64
        };
        prop_assert!(ratio(&k) <= ratio(&s) + 1e-9);
    }

    /// Prune postcondition with the exact oracle: H admits no
    /// qualifying cut, and every culled cut was genuinely thin.
    #[test]
    fn prune_postcondition_exact(
        (n, pairs) in small_graph(),
        faults in proptest::collection::vec(0usize..16, 0..4),
        alpha_cents in 10u32..150,
    ) {
        let g = build(n, &pairs);
        let mut alive = NodeSet::full(n);
        for f in faults {
            alive.remove((f % n) as u32);
        }
        let alpha = alpha_cents as f64 / 100.0;
        let eps = 0.5;
        let mut rng = SmallRng::seed_from_u64(7);
        let out = prune(&g, &alive, alpha, eps, CutStrategy::Exact, &mut rng);
        prop_assert!(out.certified);
        // replay cull thinness
        let mut state = alive.clone();
        for cut in &out.culled {
            prop_assert!(cut.side.is_subset(&state));
            let b = node_boundary(&g, &state, &cut.side).len();
            prop_assert!(b as f64 <= alpha * eps * cut.side.len() as f64 + 1e-9);
            state.difference_with(&cut.side);
        }
        prop_assert_eq!(&state, &out.kept);
        // postcondition: exact oracle finds nothing ≤ threshold in H
        if out.kept.len() >= 2 {
            let ans = fault_expansion::prune::find_thin_cut(
                &g, &out.kept, CutObjective::Node, alpha * eps, CutStrategy::Exact, &mut rng,
            );
            prop_assert!(ans.complete);
            prop_assert!(ans.cut.is_none());
        }
    }

    /// Sweep-returned cuts verify against the graph and respect the
    /// half-size constraint (soundness of the witnessed upper bound).
    #[test]
    fn sweep_cuts_verify((n, pairs) in small_graph()) {
        let g = build(n, &pairs);
        let alive = NodeSet::full(n);
        let mut rng = SmallRng::seed_from_u64(13);
        let out = spectral_sweep(&g, &alive, &mut rng);
        if let Some(c) = out.best_node {
            prop_assert!(c.verify(&g, &alive));
        }
        if let Some(c) = out.best_edge {
            prop_assert!(c.verify(&g, &alive));
        }
    }

    /// Newman–Ziff curves are monotone and consistent with γ extremes.
    #[test]
    fn newman_ziff_monotone((n, pairs) in small_graph(), seed in 0u64..1000) {
        let g = build(n, &pairs);
        let mut rng = SmallRng::seed_from_u64(seed);
        let curve = fault_expansion::percolation::site_sweep(&g, &mut rng);
        prop_assert_eq!(curve.len(), n + 1);
        prop_assert_eq!(curve[0], 0);
        for w in curve.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let full_comp = components(&g, &NodeSet::full(n));
        let biggest = full_comp.largest().map_or(0, |(_, s)| s) as u32;
        prop_assert_eq!(curve[n], biggest);
    }

    /// BFS balls are connected subsets of the requested size (or the
    /// whole reachable region).
    #[test]
    fn bfs_balls_connected((n, pairs) in small_graph(), seed in 0usize..16, size in 1usize..16) {
        let g = build(n, &pairs);
        let alive = NodeSet::full(n);
        let ball = bfs_ball(&g, &alive, (seed % n) as u32, size);
        prop_assert!(!ball.is_empty());
        prop_assert!(ball.len() <= size.max(1));
        prop_assert!(is_connected_subset(&g, &ball));
    }

    /// Cut measurement is internally consistent: boundary and edge cut
    /// recomputed from scratch match, and ratios are nonnegative.
    #[test]
    fn cut_measurement_consistent((n, pairs) in small_graph(), picks in proptest::collection::vec(0usize..16, 1..8)) {
        let g = build(n, &pairs);
        let alive = NodeSet::full(n);
        let side = NodeSet::from_iter(n, picks.iter().map(|&x| (x % n) as u32));
        let cut = Cut::measure(&g, &alive, side);
        prop_assert!(cut.verify(&g, &alive));
        if cut.size() > 0 {
            prop_assert!(cut.node_ratio() >= 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dreyfus–Wagner is exact: its cost is what brute force over node
    /// subsets finds, and the two refuse the same inputs (a dead or
    /// unreachable terminal).
    #[test]
    fn dreyfus_wagner_matches_brute_force(
        (n, pairs) in tiny_graph(),
        dead in proptest::collection::vec(0usize..10, 0..3),
        picks in proptest::collection::vec(0usize..10, 1..8),
    ) {
        let g = build(n, &pairs);
        let mut alive = NodeSet::full(n);
        for &d in &dead {
            alive.remove((d % n) as u32);
        }
        let terms: Vec<u32> = picks.iter().map(|&x| (x % n) as u32).collect();
        prop_assert_eq!(
            dreyfus_wagner_cost(&g, &alive, &terms),
            steiner_cost_brute_force(&g, &alive, &terms)
        );
    }

    /// The bound-skipping exact path reports what the reference path
    /// does: `exact_span`'s maximum, set count and exhaustiveness equal
    /// a fold of `set_span` over the same (possibly capped)
    /// enumeration, and `set_span` solves every set Dreyfus–Wagner
    /// fits.
    #[test]
    fn exact_span_equals_a_fold_of_set_span(
        g in connected_graph(3..11, 12),
        cap in 20usize..3000,
    ) {
        let n = g.num_nodes();
        let est = exact_span(&g, cap);
        let (mut max, mut sets, mut all_exact, mut reference) = (0.0f64, 0usize, true, true);
        let (_, complete) = for_each_compact_set(&g, cap, |u| {
            if let Some(s) = set_span(&g, u) {
                sets += 1;
                all_exact &= s.exact;
                max = max.max(s.ratio());
                reference &= s.exact == (s.boundary == 1 || dreyfus_wagner_fits(n, s.boundary));
            }
            true
        });
        prop_assert!(reference, "set_span left a set Dreyfus–Wagner fits unsolved");
        prop_assert_eq!(est.max_ratio.to_bits(), max.to_bits());
        prop_assert_eq!(est.sets_examined, sets);
        prop_assert_eq!(est.exhaustive, complete && all_exact);
    }

    /// The sampled path draws every set first and evaluates them in
    /// bound order, skipping exact solves, yet reports the maximum and
    /// set count of a fold of `set_span` over the same draws, and
    /// leaves the RNG where a plain draw loop does.
    #[test]
    fn sampled_span_equals_a_fold_over_its_draws(
        g in connected_graph(12..48, 60),
        seed in 0u64..1_000_000,
        samples in 1usize..24,
    ) {
        let max_size = g.num_nodes() / 2;
        let mut rng = SmallRng::seed_from_u64(seed);
        let est = sampled_span(&g, samples, max_size, &mut rng);
        let mut replay = SmallRng::seed_from_u64(seed);
        let (mut max, mut sets) = (0.0f64, 0usize);
        for i in 0..samples {
            let drawn = if i % 2 == 0 {
                random_compact_set(&g, max_size, 50, &mut replay)
            } else {
                random_compact_path(&g, max_size, 50, &mut replay)
            };
            if let Some(s) = drawn.and_then(|u| set_span(&g, &u)) {
                sets += 1;
                max = max.max(s.ratio());
            }
        }
        prop_assert_eq!(est.max_ratio.to_bits(), max.to_bits());
        prop_assert_eq!(est.sets_examined, sets);
        prop_assert_eq!(rng.next_u64(), replay.next_u64());
    }
}
