//! Per-layer replay of journaled campaign cells.
//!
//! A campaign cell runs its layers inside `fx_campaign::exec`, where
//! the benchmark cannot time them. The replay re-executes a cell from
//! outside by calling each layer's public functions in the order and
//! with the seeds `exec` uses, with a span around every call. Its
//! deterministic outputs must equal the journaled cell's (checked on
//! every traced run and in `tests/replay_fidelity.rs`); otherwise the
//! layer times would describe a different program.
//!
//! Three cell kinds are replayed:
//! * `span` cells — compact-set sampling or enumeration
//!   (`fx_span::compact_sets`), boundaries (`node_boundary`), Mehlhorn
//!   and Dreyfus–Wagner Steiner trees (`fx_graph::tree`). The replay
//!   computes Mehlhorn's bound on *every* set, which the cell does only
//!   above 14 terminals, to count how many exact calls the bound makes
//!   redundant;
//! * `prune2` cells — the steps of `fx_core::analyze_random`;
//! * overlay cells — `Scenario::build` and the dyncon survival-curve
//!   solve.

use crate::trace::timed;
use fx_campaign::{cell_params, Algo, CampaignSpec, Cell, ChurnCurves, FaultSpec};
use fx_core::{BuiltScenario, Scenario};
use fx_expansion::certificate::{edge_expansion_bounds, Effort};
use fx_faults::{FaultModel, RandomNodeFaults};
use fx_graph::boundary::node_boundary;
use fx_graph::components::gamma_with;
use fx_graph::dyncon::solve_curve;
use fx_graph::tree::{dreyfus_wagner_cost, mehlhorn_steiner, DREYFUS_WAGNER_MAX_TERMINALS};
use fx_graph::{CsrGraph, NodeSet, Scratch};
use fx_prune::{prune2, theorem34_applicable, theorem34_max_epsilon, theorem34_max_p, CutStrategy};
use fx_span::compact_sets::{for_each_compact_set, random_compact_path, random_compact_set};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// XOR salt of the scenario-build stream in `fx_campaign::exec`
/// (distinct from the algorithm stream, which is the cell seed).
pub const BUILD_SALT: u64 = 0x6A09_E667_F3BC_C908;

/// Graphs with at most this many nodes get exhaustive enumeration in
/// `exec`; larger ones are sampled.
pub const EXACT_MAX_NODES: usize = 20;

/// Connected-subset cap `exec` passes to the exhaustive enumeration.
pub const EXACT_CAP: usize = 50_000_000;

/// Random-set draw attempts per sample, as in `fx_span::span`.
const SAMPLE_ATTEMPTS: usize = 50;

/// Parses and builds a cell's scenario exactly as `exec` does.
fn build(cell: &Cell, span_name: &'static str) -> BuiltScenario {
    let scenario = Scenario::from_spec(&cell.graph).expect("scenario validated at parse time");
    timed(span_name, || scenario.build(cell.seed ^ BUILD_SALT))
}

/// True for cells whose scenario is a CAN overlay.
pub fn is_overlay(cell: &Cell) -> bool {
    Scenario::from_spec(&cell.graph).is_ok_and(|s| matches!(s, Scenario::Overlay { .. }))
}

/// What a replayed `span` cell did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStats {
    /// Graph order.
    pub n: usize,
    /// Compact sets with a non-empty boundary (the cell's
    /// `sets_examined`).
    pub sets: u64,
    /// Dreyfus–Wagner calls (sets with 2..=14 terminals).
    pub dw_calls: u64,
    /// DW calls whose Mehlhorn upper bound was already ≤ the running
    /// maximum ratio: they could not change the cell's result.
    pub dw_bound_skippable: u64,
    /// Largest terminal count handed to DW.
    pub dw_terminals_max: u64,
    /// Sets whose ratio came from Mehlhorn's bound (more than 14
    /// terminals).
    pub mehlhorn_decided: u64,
    /// Largest exactly evaluated ratio (single-terminal or DW sets).
    pub exact_max_ratio: f64,
    /// The cell's span as replayed (`max` over every examined set).
    pub max_ratio: f64,
    /// The enumeration finished under the cap (exact cells only).
    pub enumeration_complete: bool,
}

impl SpanStats {
    /// The cell's `exhaustive` metric: a complete enumeration in which
    /// every ratio was exact.
    pub fn exhaustive(&self) -> bool {
        self.enumeration_complete && self.mehlhorn_decided == 0
    }

    /// Adds another cell's counts (ratios take the maximum).
    pub fn merge(&mut self, other: &SpanStats) {
        self.sets += other.sets;
        self.dw_calls += other.dw_calls;
        self.dw_bound_skippable += other.dw_bound_skippable;
        self.dw_terminals_max = self.dw_terminals_max.max(other.dw_terminals_max);
        self.mehlhorn_decided += other.mehlhorn_decided;
        self.exact_max_ratio = self.exact_max_ratio.max(other.exact_max_ratio);
        self.max_ratio = self.max_ratio.max(other.max_ratio);
    }

    /// Measures one compact set the way `fx_span::span::set_span` does
    /// and folds it into the running statistics.
    fn evaluate(&mut self, g: &CsrGraph, alive: &NodeSet, u: &NodeSet) {
        let boundary = timed("span.boundary", || node_boundary(g, alive, u));
        if boundary.is_empty() {
            return;
        }
        let terminals = boundary.to_vec();
        let measured = if terminals.len() == 1 {
            Some((1.0, true))
        } else {
            self.steiner_ratio(g, alive, &terminals)
        };
        let Some((ratio, is_exact)) = measured else {
            return;
        };
        self.sets += 1;
        if is_exact {
            self.exact_max_ratio = self.exact_max_ratio.max(ratio);
        }
        if ratio > self.max_ratio {
            self.max_ratio = ratio;
        }
    }

    /// `|P(U)|/|Γ(U)|` for two or more terminals, and whether it is
    /// exact: DW up to 14 terminals, else (or when DW finds no tree)
    /// Mehlhorn's upper bound.
    fn steiner_ratio(
        &mut self,
        g: &CsrGraph,
        alive: &NodeSet,
        terminals: &[u32],
    ) -> Option<(f64, bool)> {
        let k = terminals.len() as f64;
        let upper = timed("span.mehlhorn", || mehlhorn_steiner(g, alive, terminals))
            .map(|tree| tree.num_nodes() as f64 / k);
        if terminals.len() <= DREYFUS_WAGNER_MAX_TERMINALS {
            self.dw_calls += 1;
            self.dw_terminals_max = self.dw_terminals_max.max(terminals.len() as u64);
            if upper.is_some_and(|r| r <= self.max_ratio) {
                self.dw_bound_skippable += 1;
            }
            if let Some(cost) = timed("span.dw", || dreyfus_wagner_cost(g, alive, terminals)) {
                return Some(((cost as usize + 1) as f64 / k, true));
            }
        }
        self.mehlhorn_decided += 1;
        upper.map(|r| (r, false))
    }
}

/// Replays a `span` cell layer by layer.
pub fn replay_span(spec: &CampaignSpec, cell: &Cell) -> SpanStats {
    assert_eq!(cell.algo, Algo::Span, "not a span cell");
    let built = build(cell, "scenario.build");
    let g = &built.net.graph;
    let n = g.num_nodes();
    let alive = NodeSet::full(n);
    let mut stats = SpanStats {
        n,
        ..SpanStats::default()
    };
    if n <= EXACT_MAX_NODES {
        let (_, complete) = timed("span.sample", || {
            for_each_compact_set(g, EXACT_CAP, |u| {
                stats.evaluate(g, &alive, u);
                true
            })
        });
        stats.enumeration_complete = complete;
    } else {
        let samples = cell_params(spec, cell).samples;
        let max_size = n / 4;
        let mut rng = SmallRng::seed_from_u64(cell.seed);
        for i in 0..samples {
            let set = timed("span.sample", || {
                if i % 2 == 0 {
                    random_compact_set(g, max_size, SAMPLE_ATTEMPTS, &mut rng)
                } else {
                    random_compact_path(g, max_size, SAMPLE_ATTEMPTS, &mut rng)
                }
            });
            if let Some(u) = set {
                stats.evaluate(g, &alive, &u);
            }
        }
    }
    stats
}

/// What a replayed `prune2` cell did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Prune2Replay {
    /// The cell's algorithm metrics, in `exec`'s order.
    pub metrics: Vec<(String, f64)>,
    /// Cull iterations summed over the cell's trials.
    pub iters: u64,
}

/// Replays a `prune2` cell through the steps of
/// `fx_core::analyze_random` (single-threaded, as cells run it).
pub fn replay_prune2(spec: &CampaignSpec, cell: &Cell) -> Prune2Replay {
    let FaultSpec::Random { p } = cell.fault else {
        panic!("prune2 cells take random faults");
    };
    let params = cell_params(spec, cell);
    let built = build(cell, "scenario.build");
    let net = &built.net;
    let graph = &net.graph;
    let n = net.n();
    let delta = net.max_degree();
    let epsilon = params
        .epsilon
        .unwrap_or_else(|| theorem34_max_epsilon(delta));
    let trials = params.trials;

    let mut rng = SmallRng::seed_from_u64(cell.seed);
    let full = net.full_mask();
    let before = timed("prune2.cert_before", || {
        edge_expansion_bounds(graph, &full, Effort::Auto, &mut rng)
    });
    let alpha_e = before.upper.min(1e6);

    let mut failed = NodeSet::empty(n);
    let mut alive = NodeSet::empty(n);
    let mut scratch = Scratch::new();
    let mut iters = 0u64;
    let (mut gammas, mut kept, mut success, mut after) = (vec![], vec![], vec![], vec![]);
    for i in 0..trials {
        let mut rng = SmallRng::seed_from_u64(cell.seed ^ (0xC0FFEE + i as u64));
        timed("faults.sample", || {
            RandomNodeFaults { p }.sample_into(graph, &mut rng, &mut failed)
        });
        failed.complement_into(&mut alive);
        gammas.push(timed("components.gamma", || {
            gamma_with(graph, &alive, &mut scratch)
        }));
        let out = timed("prune2.cut", || {
            prune2(graph, &alive, alpha_e, epsilon, CutStrategy::Auto, &mut rng)
        });
        iters += out.iterations as u64;
        kept.push(out.kept.len() as f64 / n.max(1) as f64);
        success.push(if 2 * out.kept.len() >= n { 1.0 } else { 0.0 });
        let bounds = timed("prune2.cert_after", || {
            edge_expansion_bounds(graph, &out.kept, Effort::Auto, &mut rng)
        });
        after.push(if bounds.upper.is_finite() {
            bounds.upper
        } else {
            0.0
        });
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / trials.max(1) as f64;
    let applicable = theorem34_applicable(n, delta, params.sigma, alpha_e, p, epsilon);
    let metrics = vec![
        ("n".to_string(), n as f64),
        ("p".to_string(), p),
        ("epsilon".to_string(), epsilon),
        ("mean_gamma".to_string(), mean(&gammas)),
        ("kept_fraction".to_string(), mean(&kept)),
        ("success".to_string(), mean(&success)),
        ("alpha_e_after".to_string(), mean(&after)),
        (
            "thm34_max_p".to_string(),
            theorem34_max_p(delta, params.sigma),
        ),
        ("thm34_applicable".to_string(), f64::from(applicable)),
    ];
    Prune2Replay { metrics, iters }
}

/// Replays an overlay cell's construction and, for churned overlays,
/// its survival-curve solve. Returns the curve metrics `exec` journals
/// (empty when the cell has no churn trace or curves are off).
pub fn replay_overlay(spec: &CampaignSpec, cell: &Cell) -> Vec<(String, f64)> {
    let built = build(cell, "overlay.build");
    let Some(trace) = &built.churn_trace else {
        return Vec::new();
    };
    if cell_params(spec, cell).churn_curves != ChurnCurves::Dyncon {
        return Vec::new();
    }
    let interval = timed("dyncon.finalize", || trace.clone().finalize());
    let curve = timed("dyncon.solve", || solve_curve(&interval));
    let m = curve.survival_metrics();
    vec![
        ("trace_events".to_string(), interval.events as f64),
        ("trace_horizon".to_string(), interval.horizon as f64),
        ("gamma_half_life".to_string(), m.gamma_half_life),
        ("min_gamma_t".to_string(), m.min_gamma_t),
        ("gamma_auc_t".to_string(), m.gamma_auc_t),
    ]
}
