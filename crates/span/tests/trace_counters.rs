//! The `span` trace target accounts for every set the span paths
//! decide. This is its own test binary: the filter and the counters
//! are process-wide, and no other test may add to them meanwhile.

use fx_graph::boundary::node_boundary;
use fx_graph::generators;
use fx_graph::tree::dreyfus_wagner_fits;
use fx_graph::{CsrGraph, NodeSet};
use fx_span::compact_sets::{for_each_compact_set, random_compact_path, random_compact_set};
use fx_span::span::{exact_span, sampled_span};
use fx_trace::Target;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// `(dw_calls + dw_skipped, mehlhorn_decided)` that `sets` should
/// produce: the sets of two or more terminals, split on whether
/// Dreyfus–Wagner fits them.
fn expected(g: &CsrGraph, sets: &[NodeSet]) -> (u64, u64) {
    let alive = NodeSet::full(g.num_nodes());
    let mut counts = (0, 0);
    for u in sets {
        match node_boundary(g, &alive, u).len() {
            0 | 1 => {}
            k if dreyfus_wagner_fits(g.num_nodes(), k) => counts.0 += 1,
            _ => counts.1 += 1,
        }
    }
    counts
}

/// Runs `f` with the `span` target on and returns the three counters.
fn traced(f: impl FnOnce()) -> (u64, u64, u64) {
    fx_trace::set_filter("span");
    let _ = fx_trace::take_snapshot();
    f();
    let snapshot = fx_trace::take_snapshot();
    fx_trace::set_filter("off");
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|c| c.target == Target::Span && c.name == name)
            .map_or(0, |c| c.value)
    };
    (
        counter("dw_calls"),
        counter("dw_skipped"),
        counter("mehlhorn_decided"),
    )
}

#[test]
fn span_counters_split_every_decided_set() {
    // exhaustive: every compact set of a 3×4 mesh has ≤ 14 terminals
    let mesh = generators::mesh(&[3, 4]);
    let mut sets = Vec::new();
    for_each_compact_set(&mesh, 1_000_000, |u| {
        sets.push(u.clone());
        true
    });
    let (calls, skipped, mehlhorn) = traced(|| {
        exact_span(&mesh, 1_000_000);
    });
    assert_eq!((calls + skipped, mehlhorn), expected(&mesh, &sets));
    assert!(
        calls > 0 && skipped > calls,
        "{calls} solves, {skipped} skips"
    );

    // sampled: butterfly:5 draws boundaries past 14 terminals too
    let butterfly = generators::butterfly(5);
    let max_size = butterfly.num_nodes() / 4;
    let mut replay = SmallRng::seed_from_u64(3);
    let sets: Vec<NodeSet> = (0..40)
        .filter_map(|i| {
            if i % 2 == 0 {
                random_compact_set(&butterfly, max_size, 50, &mut replay)
            } else {
                random_compact_path(&butterfly, max_size, 50, &mut replay)
            }
        })
        .collect();
    let (calls, skipped, mehlhorn) = traced(|| {
        sampled_span(&butterfly, 40, max_size, &mut SmallRng::seed_from_u64(3));
    });
    let (fits, refused) = expected(&butterfly, &sets);
    assert_eq!((calls + skipped, mehlhorn), (fits, refused));
    assert!(refused > 0, "no boundary past 14 terminals was drawn");
}
