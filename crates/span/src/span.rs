//! The span `σ` (paper §1.4, equation 1):
//!
//! ```text
//! σ = max_{U compact} |P(U)| / |Γ(U)|
//! ```
//!
//! where `P(U)` is the smallest tree in `G` connecting every node of
//! the boundary `Γ(U)` (a Steiner tree over terminal set `Γ(U)`,
//! measured in **nodes**, and free to use nodes from either side).
//!
//! `|P(U)|` is NP-hard. [`set_span`] measures one set the reference
//! way: exact by Dreyfus–Wagner when it fits (≤ 14 terminals),
//! otherwise Mehlhorn's tree, an upper bound. The graph-level paths
//! ([`exact_span`], [`sampled_span`]) reach the same maximum with far
//! fewer exact solves: they build Mehlhorn's tree for every set first
//! and run Dreyfus–Wagner only when Mehlhorn's ratio is strictly above
//! the running maximum, since the exact ratio never exceeds it.

use crate::compact_sets::{for_each_compact_set, random_compact_path, random_compact_set};
use fx_graph::boundary::node_boundary;
use fx_graph::par::CancelToken;
use fx_graph::tree::{
    dreyfus_wagner_cost, dreyfus_wagner_fits, mehlhorn_steiner, DREYFUS_WAGNER_MAX_TERMINALS,
};
use fx_graph::{CsrGraph, NodeId, NodeSet};
use fx_trace::{Counter, Target};
use rand::Rng;

// How the span paths decided their sets (`FXNET_TRACE=span`).
// `dw_calls + dw_skipped` counts the sets of 2–14 terminals whose
// Dreyfus–Wagner table fits; `mehlhorn_decided` counts the sets
// Dreyfus–Wagner refuses.
static DW_CALLS: Counter = Counter::new(Target::Span, "dw_calls");
static DW_SKIPPED: Counter = Counter::new(Target::Span, "dw_skipped");
static MEHLHORN_DECIDED: Counter = Counter::new(Target::Span, "mehlhorn_decided");

/// Span ratio of a single compact set.
#[derive(Debug, Clone)]
pub struct SetSpan {
    /// `|Γ(U)|`.
    pub boundary: usize,
    /// Nodes of the best tree found (`|P(U)|` upper bound: Mehlhorn,
    /// or exact when `exact` is true).
    pub tree_nodes: usize,
    /// True when `tree_nodes` is the exact optimum (Dreyfus–Wagner).
    pub exact: bool,
}

impl SetSpan {
    /// The (upper-bound) ratio `|P(U)|/|Γ(U)|`.
    pub fn ratio(&self) -> f64 {
        self.tree_nodes as f64 / self.boundary.max(1) as f64
    }
}

/// Measures `|P(U)|/|Γ(U)|` for one compact set `U` of a *connected*
/// graph. Returns `None` if the boundary is empty (U = V) or the
/// boundary terminals are not mutually connected (disconnected graph).
pub fn set_span(g: &CsrGraph, u: &NodeSet) -> Option<SetSpan> {
    let alive = NodeSet::full(g.num_nodes());
    let b = node_boundary(g, &alive, u);
    if b.is_empty() {
        return None;
    }
    let terminals: Vec<u32> = b.to_vec();
    if terminals.len() == 1 {
        return Some(SetSpan {
            boundary: 1,
            tree_nodes: 1,
            exact: true,
        });
    }
    if terminals.len() <= DREYFUS_WAGNER_MAX_TERMINALS {
        if let Some(cost) = dreyfus_wagner_cost(g, &alive, &terminals) {
            return Some(SetSpan {
                boundary: terminals.len(),
                tree_nodes: cost as usize + 1,
                exact: true,
            });
        }
    }
    let tree = mehlhorn_steiner(g, &alive, &terminals)?;
    Some(SetSpan {
        boundary: terminals.len(),
        tree_nodes: tree.num_nodes(),
        exact: false,
    })
}

/// A compact set's boundary and Mehlhorn's tree over it: enough to
/// tell whether its exact Steiner cost could matter.
struct Bounded {
    terminals: Vec<NodeId>,
    /// Mehlhorn's tree (exact for a single terminal).
    mehlhorn: SetSpan,
}

impl Bounded {
    /// Mehlhorn's ratio: at least the exact one.
    fn bound(&self) -> f64 {
        self.mehlhorn.ratio()
    }
}

/// The running estimate both span paths fold their sets into.
struct Fold<'g> {
    g: &'g CsrGraph,
    alive: NodeSet,
    /// `exhaustive` holds "every value so far was exact" until
    /// [`Fold::finish`].
    estimate: SpanEstimate,
    /// This call's share of the `span` trace counters.
    dw_calls: u64,
    dw_skipped: u64,
    mehlhorn_decided: u64,
}

impl<'g> Fold<'g> {
    fn new(g: &'g CsrGraph) -> Fold<'g> {
        Fold {
            g,
            alive: NodeSet::full(g.num_nodes()),
            estimate: SpanEstimate {
                max_ratio: 0.0,
                worst_set: None,
                worst_exact: false,
                sets_examined: 0,
                exhaustive: true,
            },
            dw_calls: 0,
            dw_skipped: 0,
            mehlhorn_decided: 0,
        }
    }

    /// The boundary of `u` and Mehlhorn's tree over it; `None` exactly
    /// when [`set_span`] is `None`.
    fn bound(&self, u: &NodeSet) -> Option<Bounded> {
        let terminals = node_boundary(self.g, &self.alive, u).to_vec();
        let tree_nodes = match terminals.len() {
            0 => return None,
            1 => 1,
            _ => mehlhorn_steiner(self.g, &self.alive, &terminals)?.num_nodes(),
        };
        Some(Bounded {
            mehlhorn: SetSpan {
                boundary: terminals.len(),
                tree_nodes,
                exact: terminals.len() == 1,
            },
            terminals,
        })
    }

    /// Folds in one bounded set: the per-set evaluator of both span
    /// paths. The set's value is exact when Dreyfus–Wagner fits it,
    /// else Mehlhorn's ratio. Dreyfus–Wagner runs only when Mehlhorn's
    /// ratio is strictly above the running maximum; otherwise the exact
    /// ratio, no larger, cannot raise it, and the set counts as exactly
    /// decided without a solve.
    fn add(&mut self, u: &NodeSet, set: Bounded) {
        let est = &mut self.estimate;
        est.sets_examined += 1;
        let k = set.terminals.len();
        let value = if set.mehlhorn.exact {
            set.mehlhorn
        } else if !dreyfus_wagner_fits(self.g.num_nodes(), k) {
            self.mehlhorn_decided += 1;
            set.mehlhorn
        } else if set.bound() <= est.max_ratio {
            self.dw_skipped += 1;
            return;
        } else {
            self.dw_calls += 1;
            match dreyfus_wagner_cost(self.g, &self.alive, &set.terminals) {
                Some(cost) => SetSpan {
                    boundary: k,
                    tree_nodes: cost as usize + 1,
                    exact: true,
                },
                None => set.mehlhorn,
            }
        };
        est.exhaustive &= value.exact;
        if value.ratio() > est.max_ratio {
            est.max_ratio = value.ratio();
            est.worst_set = Some(u.clone());
            est.worst_exact = value.exact;
        }
    }

    /// The estimate, exhaustive when `complete` (every compact set was
    /// folded in) and every value was exact.
    fn finish(mut self, complete: bool) -> SpanEstimate {
        if fx_trace::enabled(Target::Span) {
            DW_CALLS.add(self.dw_calls);
            DW_SKIPPED.add(self.dw_skipped);
            MEHLHORN_DECIDED.add(self.mehlhorn_decided);
        }
        self.estimate.exhaustive &= complete;
        self.estimate
    }
}

/// A span estimate for a whole graph.
#[derive(Debug, Clone)]
pub struct SpanEstimate {
    /// The largest per-set value over the examined sets. A set's value
    /// is its exact ratio when Dreyfus–Wagner fits it (≤ 14 boundary
    /// terminals), else Mehlhorn's ratio, an upper bound on its exact
    /// one (within 2×). Sets whose Mehlhorn ratio is ≤ the running
    /// maximum skip the exact solve; that never changes this value.
    pub max_ratio: f64,
    /// A compact set realizing it (the first evaluated, among ties).
    pub worst_set: Option<NodeSet>,
    /// Whether that worst ratio used an exact Steiner cost.
    pub worst_exact: bool,
    /// Number of compact sets examined, skipped ones included.
    pub sets_examined: usize,
    /// True when every compact set was examined and each value was
    /// exact or skipped — then `max_ratio` *is* the span σ. Otherwise
    /// `max_ratio` bounds σ on neither side: unexamined sets can lift
    /// σ above it, and a Mehlhorn-only value can sit above σ.
    pub exhaustive: bool,
}

/// Exact span by exhaustive compact-set enumeration (small graphs;
/// `cap` bounds the number of connected subsets visited).
pub fn exact_span(g: &CsrGraph, cap: usize) -> SpanEstimate {
    exact_span_cancelable(g, cap, &CancelToken::new())
}

/// [`exact_span`] polling a [`CancelToken`] before each compact set:
/// the campaign layer's per-cell `timeout_ms` rides on this, since
/// exact enumeration is the canonical pathological cell. A cancelled
/// run returns what was examined so far, marked non-exhaustive.
pub fn exact_span_cancelable(g: &CsrGraph, cap: usize, token: &CancelToken) -> SpanEstimate {
    let mut fold = Fold::new(g);
    let mut cancelled = false;
    let (_, complete) = for_each_compact_set(g, cap, |u| {
        if token.is_cancelled() {
            cancelled = true;
            return false;
        }
        if let Some(set) = fold.bound(u) {
            fold.add(u, set);
        }
        true
    });
    fold.finish(complete && !cancelled)
}

/// Sampled span: draws `samples` random compact sets (even draws
/// blobby, odd draws elongated) and returns the largest per-set value
/// (see [`SpanEstimate::max_ratio`]). Not exhaustive, so neither a
/// lower nor an upper bound on σ.
pub fn sampled_span<R: Rng + ?Sized>(
    g: &CsrGraph,
    samples: usize,
    max_size: usize,
    rng: &mut R,
) -> SpanEstimate {
    sampled_span_cancelable(g, samples, max_size, rng, &CancelToken::new())
}

/// [`sampled_span`] polling a [`CancelToken`] before each draw and
/// each set evaluation, so campaign cells with `timeout_ms` return
/// promptly on large graphs too. Every set is drawn (and bounded by
/// Mehlhorn's tree) before any is solved exactly, so the draws use the
/// RNG stream of an evaluation-free loop. Sets are then evaluated in
/// descending-bound order, ties in draw order, so the maximum rises on
/// the first exact solves. A cancelled run reports the sets evaluated
/// before the token fired.
pub fn sampled_span_cancelable<R: Rng + ?Sized>(
    g: &CsrGraph,
    samples: usize,
    max_size: usize,
    rng: &mut R,
    token: &CancelToken,
) -> SpanEstimate {
    let mut fold = Fold::new(g);
    let mut drawn: Vec<(NodeSet, Bounded)> = Vec::new();
    for i in 0..samples {
        if token.is_cancelled() {
            break;
        }
        let set = if i % 2 == 0 {
            random_compact_set(g, max_size, 50, rng)
        } else {
            random_compact_path(g, max_size, 50, rng)
        };
        let Some(u) = set else { continue };
        if let Some(bounded) = fold.bound(&u) {
            drawn.push((u, bounded));
        }
    }
    // a stable sort: equal bounds keep draw order
    drawn.sort_by(|(_, a), (_, b)| b.bound().total_cmp(&a.bound()));
    for (u, set) in drawn {
        if token.is_cancelled() {
            break;
        }
        fold.add(&u, set);
    }
    fold.finish(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn cycle_span_is_half_circumference_ish() {
        // C_n, U = arc: Γ(U) = 2 endpoints of the complement arc;
        // P(U) = shorter path between them through either arc. The
        // worst U is the half cycle: the two boundary nodes sit
        // antipodal, P = n/2 + 1 nodes… ratio = (n/2 - 1 + 2)/2? For
        // C_8: U = arc of 4 ⇒ boundary = 2, shortest connecting path
        // has 4 edges? No: boundary nodes are at distance... measure
        // empirically and sanity check range instead:
        let g = generators::cycle(8);
        let est = exact_span(&g, 1_000_000);
        assert!(est.exhaustive);
        // σ(C_8): boundary pairs at distance up to 4 → tree ≤ 5 nodes,
        // boundary 2 → ratio up to 2.5
        assert!(
            est.max_ratio >= 2.0 && est.max_ratio <= 2.5,
            "{}",
            est.max_ratio
        );
        assert!(est.sets_examined > 0);
    }

    #[test]
    fn complete_graph_span_is_one() {
        // K_n: any compact U has boundary = all other nodes; a star
        // through one node spans them: |P| = |Γ|(+1 when the hub is
        // extra)… for K_n the boundary is a clique: tree = |Γ| nodes.
        let g = generators::complete(6);
        let est = exact_span(&g, 1_000_000);
        assert!(est.exhaustive);
        assert!((est.max_ratio - 1.0).abs() < 1e-9, "{}", est.max_ratio);
    }

    #[test]
    fn set_span_singleton_boundary() {
        // path: U = prefix ⇒ boundary is 1 node ⇒ ratio 1
        let g = generators::path(6);
        let u = NodeSet::from_iter(6, [0, 1]);
        let s = set_span(&g, &u).unwrap();
        assert_eq!(s.boundary, 1);
        assert_eq!(s.tree_nodes, 1);
        assert!((s.ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn set_span_none_for_full_set() {
        let g = generators::cycle(5);
        let u = NodeSet::full(5);
        assert!(set_span(&g, &u).is_none());
    }

    #[test]
    fn sampled_is_lower_bound_of_exact() {
        let g = generators::mesh(&[3, 4]);
        let exact = exact_span(&g, 10_000_000);
        let mut rng = SmallRng::seed_from_u64(3);
        let sampled = sampled_span(&g, 100, 6, &mut rng);
        assert!(
            sampled.max_ratio <= exact.max_ratio + 1e-9,
            "sampled {} > exact {}",
            sampled.max_ratio,
            exact.max_ratio
        );
        assert!(sampled.sets_examined > 0);
    }

    #[test]
    fn cancelled_spans_truncate_but_stay_valid_lower_bounds() {
        let g = generators::mesh(&[3, 4]);
        let fired = CancelToken::new();
        fired.cancel();
        let exact = exact_span_cancelable(&g, 10_000_000, &fired);
        assert!(!exact.exhaustive);
        assert_eq!(exact.sets_examined, 0);
        let mut rng = SmallRng::seed_from_u64(4);
        let sampled = sampled_span_cancelable(&g, 100, 6, &mut rng, &fired);
        assert_eq!(sampled.sets_examined, 0, "polled before every sample");
        assert!(!sampled.exhaustive);
    }

    #[test]
    fn mesh_span_at_most_two_small_cases() {
        // Theorem 3.6: d-dim meshes have span ≤ 2. Exhaustively verify
        // on small 2-D meshes (exact Steiner costs).
        for dims in [&[3usize, 3][..], &[2, 5][..], &[4, 3][..]] {
            let g = generators::mesh(dims);
            let est = exact_span(&g, 10_000_000);
            assert!(est.exhaustive, "dims {dims:?}");
            assert!(
                est.max_ratio <= 2.0 + 1e-9,
                "mesh {dims:?} span ratio {} > 2",
                est.max_ratio
            );
        }
    }
}
