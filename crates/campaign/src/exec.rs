//! Cell execution: one [`Cell`] in, one [`CellResult`] out.
//!
//! Every cell is computed from its own deterministic seed with
//! single-threaded inner analyses (the campaign engine parallelizes
//! *across* cells), so a cell's metrics are a pure function of
//! `(spec params, cell identity, campaign seed)` — the property the
//! resume machinery and the determinism integration test rely on.
//!
//! The graph axis is a [`Scenario`]: plain families build as before,
//! while derived sources (subdivided expanders, churned CAN overlays)
//! carry their construction handles into execution — the chain-center
//! adversary reads the [`SubdividedGraph`](fx_graph::generators::SubdividedGraph)
//! bookkeeping, and overlay cells report churn-survival statistics.

use crate::grid::Cell;
use crate::spec::{Algo, CampaignSpec, ChurnCurves, FaultSpec, Params};
use fx_core::{
    analyze_adversarial, analyze_random, diffuse, embed_nearest, point_load, BuiltScenario,
    Network, Scenario,
};
use fx_expansion::certificate::{edge_expansion_bounds, node_expansion_bounds, Effort};
use fx_expansion::Cut;
use fx_faults::{apply_faults, targeted_order, FaultModel};
use fx_graph::boundary::edge_cut_size;
use fx_graph::components::{component_stats_with, gamma, largest_component};
use fx_graph::distance::diameter_two_sweep;
use fx_graph::dyncon::{resweep_curve, solve_curve};
use fx_graph::par::CancelToken;
use fx_graph::routing::{permutation_demands, route_demands};
use fx_graph::traversal::bfs_ball;
use fx_graph::{NodeSet, Scratch};
use fx_json::{FromJson, Json, ToJson};
use fx_percolation::{
    crossing_fraction, estimate_critical_cancelable, gamma_removal_curve, gamma_trials_with,
    trial_seed, LaneScratch, Mode, MonteCarlo, SweepScratch, MAX_LANES,
};
use fx_prune::bounds::{theorem23_component_bound, theorem25_removal_bound};
use fx_prune::{
    compactify, dissect, is_compact, prune, theorem34_max_epsilon, CutStrategy, PruneOutcome,
};
use fx_span::count::{claim32_bound, count_connected_subsets_by_size};
use fx_span::span::{exact_span_cancelable, sampled_span_cancelable};
use fx_trace::{Span, Target};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::{Duration, Instant};

/// The journaled outcome of one executed cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellResult {
    /// Cell key (`graph|fault|algo|rN`).
    pub key: String,
    /// Scenario spec string.
    pub graph: String,
    /// Fault model (display form).
    pub fault: String,
    /// Algorithm name.
    pub algo: String,
    /// Replicate index.
    pub replicate: usize,
    /// The seed the cell ran with (audit trail).
    pub seed: u64,
    /// Named deterministic metrics.
    pub metrics: Vec<(String, f64)>,
    /// Wall-clock milliseconds (informational; never aggregated, so
    /// journals from different machines aggregate identically).
    pub wall_ms: f64,
    /// Per-phase wall milliseconds (`build` → `fault` → `algo`).
    /// Informational like `wall_ms`: journaled for `report --timing`,
    /// never aggregated, and recorded even with tracing disabled (the
    /// cost is three clock reads per cell).
    pub phase_ms: Vec<(String, f64)>,
    /// `1` when the cell exhausted its retry budget and was
    /// quarantined (no metrics; excluded from aggregates); `0` for a
    /// successful cell. A non-metric field on purpose: quarantine
    /// state must never add aggregate rows, or a chaos run would stop
    /// being bit-identical to a clean run.
    pub failed: u64,
    /// The panic/error message of the last failed attempt (empty for
    /// successful cells).
    pub error: String,
    /// Cumulative execution attempts for this cell across run +
    /// resumes (1 = clean first-try success). Resume reads the value
    /// off a quarantined record so retried attempts keep advancing —
    /// a re-run never replays the exact chaos decisions that
    /// quarantined it.
    pub attempts: u64,
    /// `1` when this record was served from the content-addressed
    /// cell store (`[params] store`) instead of being recomputed; `0`
    /// for a freshly executed cell. Informational like `wall_ms` —
    /// never a metric, never aggregated — so a fully-cached re-run
    /// stays bit-identical to the cold run that populated the store.
    pub cache_hit: u64,
}

// The record's line in the journal and the store. Fields are written
// in declaration order, integers as exact `UInt`s and floats as `Num`s,
// so a non-finite float is written as `null` and reads back as NaN.
// Two kinds of field may be absent, because records without them are
// already on disk and a keyless journal line of any age must read as
// a record to skip, not as corruption: `wall_ms` reads as NaN, like
// its `null`, and `phase_ms`, `failed`, `error`, `attempts` and
// `cache_hit`, added later, read as their defaults (a clean record
// with `attempts = 0`). Every other field is required, and every
// decoding error names its field (`CellResult.<field>: …`).
impl ToJson for CellResult {
    fn to_json(&self) -> Json {
        let text = |s: &str| Json::Str(s.to_string());
        let pairs = |v: &[(String, f64)]| {
            let pair = |(k, x): &(String, f64)| Json::Arr(vec![text(k), Json::Num(*x)]);
            Json::Arr(v.iter().map(pair).collect())
        };
        Json::Obj(vec![
            ("key".into(), text(&self.key)),
            ("graph".into(), text(&self.graph)),
            ("fault".into(), text(&self.fault)),
            ("algo".into(), text(&self.algo)),
            ("replicate".into(), Json::UInt(self.replicate as u64)),
            ("seed".into(), Json::UInt(self.seed)),
            ("metrics".into(), pairs(&self.metrics)),
            ("wall_ms".into(), Json::Num(self.wall_ms)),
            ("phase_ms".into(), pairs(&self.phase_ms)),
            ("failed".into(), Json::UInt(self.failed)),
            ("error".into(), text(&self.error)),
            ("attempts".into(), Json::UInt(self.attempts)),
            ("cache_hit".into(), Json::UInt(self.cache_hit)),
        ])
    }
}

impl FromJson for CellResult {
    fn from_json(doc: &Json) -> Result<Self, String> {
        /// Decodes field `name` of `doc`. An absent field reads as
        /// `absent`, or, when that is `None`, is decoded from `null`.
        fn field<T>(
            doc: &Json,
            name: &str,
            absent: Option<T>,
            decode: fn(&Json) -> Result<T, String>,
        ) -> Result<T, String> {
            match (doc.get(name), absent) {
                (Some(v), _) => decode(v),
                (None, Some(value)) => Ok(value),
                (None, None) => decode(&Json::Null),
            }
            .map_err(|e| format!("CellResult.{name}: {e}"))
        }
        fn text(v: &Json) -> Result<String, String> {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("expected string, got {v:?}"))
        }
        fn uint(v: &Json) -> Result<u64, String> {
            v.as_u64()
                .ok_or_else(|| format!("expected unsigned integer, got {v:?}"))
        }
        fn index(v: &Json) -> Result<usize, String> {
            let u = uint(v)?;
            usize::try_from(u).map_err(|_| format!("integer {u} out of range for usize"))
        }
        fn num(v: &Json) -> Result<f64, String> {
            match v {
                Json::Null => Ok(f64::NAN),
                _ => v
                    .as_f64()
                    .ok_or_else(|| format!("expected number, got {v:?}")),
            }
        }
        fn pairs(v: &Json) -> Result<Vec<(String, f64)>, String> {
            let items = v
                .as_array()
                .ok_or_else(|| format!("expected array, got {v:?}"))?;
            let pair = |p: &Json| match p.as_array() {
                Some([k, x]) => Ok((text(k)?, num(x)?)),
                _ => Err(format!("expected 2-element array, got {p:?}")),
            };
            items.iter().map(pair).collect()
        }
        Ok(CellResult {
            key: field(doc, "key", None, text)?,
            graph: field(doc, "graph", None, text)?,
            fault: field(doc, "fault", None, text)?,
            algo: field(doc, "algo", None, text)?,
            replicate: field(doc, "replicate", None, index)?,
            seed: field(doc, "seed", None, uint)?,
            metrics: field(doc, "metrics", None, pairs)?,
            wall_ms: field(doc, "wall_ms", None, num)?,
            phase_ms: field(doc, "phase_ms", Some(Vec::new()), pairs)?,
            failed: field(doc, "failed", Some(0), uint)?,
            error: field(doc, "error", Some(String::new()), text)?,
            attempts: field(doc, "attempts", Some(0), uint)?,
            cache_hit: field(doc, "cache_hit", Some(0), uint)?,
        })
    }
}

impl CellResult {
    /// The record `outcome` under `cell`'s identity: `key`, `graph`,
    /// `fault`, `algo`, `replicate` and `seed` come from the cell, every
    /// other field from `outcome`.
    pub(crate) fn for_cell(cell: &Cell, outcome: CellResult) -> CellResult {
        CellResult {
            key: cell.key(),
            graph: cell.graph.clone(),
            fault: cell.fault.to_string(),
            algo: cell.algo.to_string(),
            replicate: cell.replicate,
            seed: cell.seed,
            ..outcome
        }
    }

    /// Aggregation group (cell key minus the replicate axis).
    pub fn group(&self) -> String {
        format!("{}|{}|{}", self.graph, self.fault, self.algo)
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Whether the result may be published to, or served from, the
    /// cell store: a clean success, neither quarantined nor timed out.
    /// Anything else must never stand in for a cell that a later run
    /// could complete.
    pub fn publishable(&self) -> bool {
        self.failed == 0 && self.metric("timed_out").is_none()
    }
}

std::thread_local! {
    /// Nanoseconds spent inside fault-model sampling by the cell
    /// currently running on this thread (cells run wholly on one
    /// thread; reset at cell start, read at cell end). This is how
    /// the `fault` phase is attributed even though sampling happens
    /// inside the per-algorithm code paths.
    static FAULT_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Decorator accumulating sampling time into [`FAULT_NS`] (and a
/// `faults`-target span when tracing is enabled).
struct TimedModel<'a>(Box<dyn FaultModel + 'a>);

impl TimedModel<'_> {
    fn timed<T>(&self, f: impl FnOnce(&dyn FaultModel) -> T) -> T {
        let _span = Span::enter(Target::Faults, "sample");
        let t0 = Instant::now();
        let out = f(self.0.as_ref());
        FAULT_NS.with(|c| c.set(c.get() + t0.elapsed().as_nanos() as u64));
        out
    }
}

impl FaultModel for TimedModel<'_> {
    fn sample(&self, g: &fx_graph::CsrGraph, rng: &mut dyn RngCore) -> NodeSet {
        self.timed(|m| m.sample(g, rng))
    }
    fn sample_into(&self, g: &fx_graph::CsrGraph, rng: &mut dyn RngCore, out: &mut NodeSet) {
        self.timed(|m| m.sample_into(g, rng, out))
    }
    fn name(&self) -> String {
        self.0.name()
    }
    fn vectorizable(&self) -> bool {
        self.0.vectorizable()
    }
}

/// Builds the fault model for a cell through the `fx-faults`
/// registry. Borrows the built scenario: the chain-center adversary
/// needs the subdivision bookkeeping.
fn fault_model<'a>(fault: &FaultSpec, built: &'a BuiltScenario) -> Box<dyn FaultModel + 'a> {
    let model = fault
        .build(built.sub.as_ref())
        .expect("invalid fault × scenario point rejected at spec parse time");
    Box::new(TimedModel(model))
}

/// Samples the cell's faults from `rng` and applies them: the failed
/// nodes and the surviving alive mask.
fn sample_faults(built: &BuiltScenario, cell: &Cell, rng: &mut SmallRng) -> (NodeSet, NodeSet) {
    let graph = &built.net.graph;
    let failed = fault_model(&cell.fault, built).sample(graph, rng);
    let alive = apply_faults(graph, &failed);
    (failed, alive)
}

/// `Prune(1 − 1/k)` of the faulty graph `alive`, with α taken as the
/// intact graph's node-expansion upper bound.
fn prune_faulty(
    net: &Network,
    alive: &NodeSet,
    params: &Params,
    rng: &mut SmallRng,
) -> PruneOutcome {
    let full = net.full_mask();
    let alpha = node_expansion_bounds(&net.graph, &full, Effort::Auto, rng).upper;
    let epsilon = 1.0 - 1.0 / params.k;
    prune(
        &net.graph,
        alive,
        alpha,
        epsilon,
        CutStrategy::SpectralRefined,
        rng,
    )
}

/// The effective parameters of a cell: the campaign `[params]` with
/// the declaring grid's overrides applied.
pub fn cell_params(spec: &CampaignSpec, cell: &Cell) -> Params {
    spec.params.with_overrides(&spec.grids[cell.grid].overrides)
}

/// Executes one cell under its effective `timeout_ms` budget (the
/// spec `[params]` value, possibly overridden by the cell's grid;
/// unbounded when unset). Panics only on internal invariant
/// violations; spec-level errors were rejected at parse time.
pub fn run_cell(spec: &CampaignSpec, cell: &Cell) -> CellResult {
    let token = match cell_params(spec, cell).timeout_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    run_cell_cancelable(spec, cell, &token)
}

/// Executes one cell under an externally supplied [`CancelToken`].
///
/// Cancellation is cooperative: long kernels (span enumeration and
/// sampling) poll the token, and multi-stage algorithms check it
/// between stages. A cell whose work was actually truncated by the
/// fired token is returned with whatever metrics its completed
/// stages produced plus a `timed_out = 1` marker, so the journal
/// records the cell (and the campaign completes) instead of a worker
/// blocking forever. A cell that completes without any cancellation
/// point reacting — including non-polling algorithms that simply ran
/// past the deadline — is returned unmarked.
pub fn run_cell_cancelable(spec: &CampaignSpec, cell: &Cell, token: &CancelToken) -> CellResult {
    let started = std::time::Instant::now();
    let cell_span = Span::enter(Target::Cell, "cell");
    let build_span = Span::enter(Target::Cell, "phase.build");
    let scenario = Scenario::from_spec(&cell.graph).expect("scenario validated at parse time");
    // Distinct derived streams: one for (randomized) scenario builds,
    // one for the algorithm, so adding randomness to one never
    // perturbs the other.
    let built = scenario.build(cell.seed ^ 0x6A09_E667_F3BC_C908);
    drop(build_span);
    let build_ms = started.elapsed().as_secs_f64() * 1e3;
    let net = &built.net;
    let mut rng = SmallRng::seed_from_u64(cell.seed);
    let params = &cell_params(spec, cell);

    // Fault-model sampling happens inside the per-algorithm arms;
    // the TimedModel decorator accumulates it here so the `fault`
    // phase can be carved out of the algorithm time.
    FAULT_NS.with(|c| c.set(0));
    let algo_started = Instant::now();
    let algo_span = Span::enter(Target::Cell, "phase.algo");
    let mut metrics = vec![("n".to_string(), net.n() as f64)];
    metrics.extend(match cell.algo {
        Algo::Prune => {
            let model = fault_model(&cell.fault, &built);
            let r = analyze_adversarial(net, model.as_ref(), params.k, cell.seed);
            let n = r.n.max(1) as f64;
            let mut m = vec![
                ("faults".to_string(), r.faults as f64),
                ("gamma_after_faults".to_string(), r.gamma_after_faults),
                ("kept_fraction".to_string(), r.kept as f64 / n),
                ("culled".to_string(), r.culled as f64),
                ("alpha_after".to_string(), r.alpha_after.point()),
                ("certified".to_string(), f64::from(r.certified)),
            ];
            if let (Some(kept), Some(exp)) = (r.guaranteed_min_kept, r.guaranteed_min_expansion) {
                m.push(("thm21_min_kept".to_string(), kept));
                m.push(("thm21_min_expansion".to_string(), exp));
            }
            m
        }
        Algo::Prune2 => {
            let FaultSpec::Random { p } = cell.fault else {
                unreachable!("prune2 × non-random rejected at parse time")
            };
            let epsilon = params
                .epsilon
                .unwrap_or_else(|| theorem34_max_epsilon(net.max_degree()));
            let r = analyze_random(net, p, epsilon, params.sigma, params.trials, cell.seed);
            vec![
                ("p".to_string(), p),
                ("epsilon".to_string(), epsilon),
                ("mean_gamma".to_string(), r.mean_gamma),
                ("kept_fraction".to_string(), r.mean_kept_fraction),
                ("success".to_string(), r.success_rate),
                ("alpha_e_after".to_string(), r.mean_alpha_e_after),
                ("thm34_max_p".to_string(), r.theorem34_max_p),
                (
                    "thm34_applicable".to_string(),
                    f64::from(r.theorem34_applicable),
                ),
            ]
        }
        Algo::Percolation => match &cell.fault {
            // multi-trial γ under independent-per-node dilution: the
            // bit-parallel engine packs 64 trials per machine word.
            // Every lane width consumes the same per-trial RNG
            // streams, so the journaled aggregates equal the scalar
            // loop's bit for bit.
            FaultSpec::Random { .. } | FaultSpec::HeavyTailed { .. } if params.trials > 1 => {
                let model = fault_model(&cell.fault, &built);
                debug_assert!(model.vectorizable(), "lane path needs an i.i.d. model");
                let n = net.n();
                let mut ls = LaneScratch::new();
                let mut alive_sum = 0usize;
                // the batch count is deliberately NOT journaled: batch
                // telemetry lives in the fx-trace counters
                let (gammas, _lane_batches) =
                    gamma_trials_with(&net.graph, params.trials, MAX_LANES, &mut ls, |i, mask| {
                        let mut trng = SmallRng::seed_from_u64(trial_seed(cell.seed, i));
                        model.sample_into(&net.graph, &mut trng, mask);
                        mask.complement_in_place();
                        alive_sum += mask.len();
                    });
                let t = params.trials as f64;
                let mean = gammas.iter().sum::<f64>() / t;
                let var = gammas.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / t;
                let p = match &cell.fault {
                    FaultSpec::Random { p } | FaultSpec::HeavyTailed { p, .. } => *p,
                    _ => unreachable!(),
                };
                vec![
                    ("p".to_string(), p),
                    ("trials".to_string(), t),
                    ("gamma".to_string(), mean),
                    ("gamma_std".to_string(), var.sqrt()),
                    (
                        "alive_fraction".to_string(),
                        alive_sum as f64 / (t * n.max(1) as f64),
                    ),
                ]
            }
            FaultSpec::Random { p } => {
                let alive = fx_percolation::sample_alive_nodes(net.n(), 1.0 - p, &mut rng);
                let g_frac = fx_percolation::gamma_site(&net.graph, &alive);
                vec![
                    ("p".to_string(), *p),
                    (
                        "alive_fraction".to_string(),
                        alive.len() as f64 / net.n().max(1) as f64,
                    ),
                    ("gamma".to_string(), g_frac),
                ]
            }
            // heterogeneous / correlated random dilution: γ under one
            // draw of the model, like the i.i.d. arm above
            FaultSpec::HeavyTailed { .. } | FaultSpec::Clustered { .. } => {
                let (failed, alive) = sample_faults(&built, cell, &mut rng);
                vec![
                    ("faults".to_string(), failed.len() as f64),
                    (
                        "alive_fraction".to_string(),
                        alive.len() as f64 / net.n().max(1) as f64,
                    ),
                    (
                        "gamma".to_string(),
                        fx_percolation::gamma_site(&net.graph, &alive),
                    ),
                ]
            }
            // targeted dilution: ONE ordered Newman–Ziff sweep gives
            // the whole deterministic removal curve — γ at the
            // requested fraction, the critical removal fraction (the
            // worst-case analogue of 1 − p*), and the curve's mean
            // (an integral robustness index)
            FaultSpec::Targeted { frac, by } => {
                let order = targeted_order(&net.graph, *by);
                let mut sweep = SweepScratch::new();
                // the requested fraction rides along as one extra
                // read of the same curve
                let mut fracs: Vec<f64> = (0..=params.grid)
                    .map(|i| i as f64 / params.grid as f64)
                    .collect();
                fracs.push(*frac);
                let curve = gamma_removal_curve(&net.graph, &order, &fracs, &mut sweep);
                let g_at = curve[params.grid + 1];
                let grid_curve = &curve[..=params.grid];
                let auc = grid_curve.iter().sum::<f64>() / grid_curve.len() as f64;
                let f_star = crossing_fraction(&fracs[..=params.grid], grid_curve, params.gamma);
                vec![
                    ("frac".to_string(), *frac),
                    ("gamma".to_string(), g_at),
                    ("f_star_targeted".to_string(), f_star),
                    ("tolerance".to_string(), f_star),
                    ("dilution_auc".to_string(), auc),
                ]
            }
            _ => {
                let mc = MonteCarlo {
                    trials: params.trials.max(4),
                    base_seed: cell.seed,
                };
                let mode = if params.site_mode {
                    Mode::Site
                } else {
                    Mode::Bond
                };
                // cancelable: every trial sweep polls the cell
                // deadline, so timeout_ms is honored mid-curve on
                // very large graphs
                let est = estimate_critical_cancelable(
                    &net.graph,
                    mode,
                    &mc,
                    params.gamma,
                    params.grid,
                    token,
                );
                vec![
                    ("p_star".to_string(), est.p_star),
                    ("tolerance".to_string(), 1.0 - est.p_star),
                ]
            }
        },
        Algo::Span => {
            if net.n() <= 20 {
                let est = exact_span_cancelable(&net.graph, 50_000_000, token);
                vec![
                    ("span".to_string(), est.max_ratio),
                    ("sets_examined".to_string(), est.sets_examined as f64),
                    ("exhaustive".to_string(), f64::from(est.exhaustive)),
                ]
            } else {
                let est = sampled_span_cancelable(
                    &net.graph,
                    params.samples,
                    net.n() / 4,
                    &mut rng,
                    token,
                );
                vec![
                    ("span".to_string(), est.max_ratio),
                    ("sets_examined".to_string(), est.sets_examined as f64),
                    ("exhaustive".to_string(), 0.0),
                ]
            }
        }
        Algo::ExpansionCert => expansion_cert_metrics(&built, cell, &mut rng),
        Algo::Shatter => shatter_metrics(&built, cell, &mut rng),
        Algo::Dissect => dissect_metrics(&built, params, &mut rng),
        Algo::Diameter => diameter_metrics(&built, params, cell, &mut rng, token),
        Algo::CompactAudit => compact_audit_metrics(&built, params, &mut rng, token),
        Algo::Routing => routing_metrics(&built, params, cell, &mut rng, token),
        Algo::LoadBalance => load_balance_metrics(&built, params, cell, &mut rng, token),
        Algo::Embed => embed_metrics(&built, params, cell, &mut rng, token),
        Algo::SubgraphCount => subgraph_count_metrics(&built),
    });
    metrics.extend(scenario_metrics(&built, params));
    drop(algo_span);
    let fault_ms = FAULT_NS.with(std::cell::Cell::get) as f64 / 1e6;
    let algo_ms = algo_started.elapsed().as_secs_f64() * 1e3 - fault_ms;
    if token.was_observed() {
        // a cancellation point reacted to the fired budget, so work
        // was actually truncated: journal the cell as timed out (any
        // metrics its completed stages produced are kept). A cell
        // that merely finished after the deadline without any poll
        // noticing ran to completion and is NOT marked.
        metrics.push(("timed_out".to_string(), 1.0));
    }
    drop(cell_span);

    let outcome = CellResult {
        metrics,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        phase_ms: vec![
            ("build".to_string(), build_ms),
            ("fault".to_string(), fault_ms),
            ("algo".to_string(), algo_ms.max(0.0)),
        ],
        attempts: 1,
        ..CellResult::default()
    };
    CellResult::for_cell(cell, outcome)
}

std::thread_local! {
    /// True while this thread is inside [`isolated`]: the panic hook
    /// stays silent for these panics (they are expected, isolated, and
    /// reported through the quarantine record or the error answer
    /// instead of stderr backtraces).
    static SUPPRESS_PANIC_OUTPUT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs (once per process) a panic hook that suppresses output for
/// panics caught by cell isolation and delegates everything else to
/// the previous hook.
fn install_quiet_panic_hook() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(std::cell::Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Renders a `catch_unwind` payload as a message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` with panic isolation: a panic inside is caught, prints
/// nothing, and comes back as `Err` with its message. Every cell
/// attempt runs through this — the engine's retried attempts and the
/// `fxnet serve` compute pool's single ones.
pub(crate) fn isolated<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    install_quiet_panic_hook();
    SUPPRESS_PANIC_OUTPUT.with(|c| c.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|c| c.set(false));
    outcome.map_err(|payload| panic_message(payload.as_ref()))
}

/// Executes one cell with panic isolation, chaos injection, and the
/// `[params] retries` budget: each attempt runs under `catch_unwind`;
/// a panicking attempt is retried after a deterministic bounded
/// backoff (2^attempt ms, capped at 50 ms) up to `retries` extra
/// times, then the cell is **quarantined** — returned as a
/// metrics-free record with `failed = 1` and the panic message, which
/// the journal keeps and the aggregates exclude.
///
/// `base_attempt` is the cumulative attempt count consumed by earlier
/// invocations (read off a quarantined journal record on resume), so
/// the deterministic chaos decision function sees fresh attempt
/// indices on every resume and an injected-fault cell converges to
/// success instead of replaying the same failures forever.
///
/// The successful attempt's result is exactly [`run_cell`]'s — the
/// attempt number never leaks into metrics, which is what keeps
/// chaos-run + retries + resume bit-identical to a clean run.
pub fn run_cell_resilient(spec: &CampaignSpec, cell: &Cell, base_attempt: u64) -> CellResult {
    let retries = cell_params(spec, cell).retries;
    let identity = fx_store::fnv1a(cell.key().as_bytes());
    let started = Instant::now();
    let mut last_error = String::new();
    for attempt in 0..=(retries as u64) {
        let attempt_id = base_attempt + attempt;
        let outcome = isolated(|| {
            // The cell_panic chaos site: pre-algo (before any work) or
            // post-algo (all work done, result discarded), picked by a
            // second deterministic coin. Off path: one relaxed load.
            let fire = fx_chaos::should_fire(fx_chaos::Site::CellPanic, identity, attempt_id);
            if fire && fx_chaos::aux_bit(fx_chaos::Site::CellPanic, identity, attempt_id) {
                panic!("chaos: injected pre-algo panic (attempt {attempt_id})");
            }
            let result = run_cell(spec, cell);
            if fire {
                panic!("chaos: injected post-algo panic (attempt {attempt_id})");
            }
            result
        });
        match outcome {
            Ok(mut result) => {
                result.attempts = base_attempt + attempt + 1;
                return result;
            }
            Err(message) => {
                last_error = message;
                if attempt < retries as u64 {
                    // deterministic bounded backoff before the retry
                    std::thread::sleep(Duration::from_millis((1u64 << attempt.min(6)).min(50)));
                }
            }
        }
    }
    let quarantined = CellResult {
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        failed: 1,
        error: last_error,
        attempts: base_attempt + retries as u64 + 1,
        ..CellResult::default()
    };
    CellResult::for_cell(cell, quarantined)
}

/// Construction-level metrics every cell of a derived scenario
/// reports, independent of the algorithm: subdivided bookkeeping,
/// overlay churn/load statistics (§4's CAN steady state), and — for
/// churn cells — whole-trace survival-curve metrics from the
/// configured [`ChurnCurves`] engine.
fn scenario_metrics(built: &BuiltScenario, params: &Params) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    if let Some(sub) = &built.sub {
        m.push(("base_n".to_string(), sub.original_n as f64));
        m.push(("chains".to_string(), sub.original_edges.len() as f64));
        m.push(("chain_k".to_string(), sub.k as f64));
    }
    if let Some(ov) = &built.overlay {
        let n = built.net.n().max(1) as f64;
        m.push(("peers".to_string(), ov.peers as f64));
        m.push(("joins".to_string(), ov.joins as f64));
        m.push(("leaves".to_string(), ov.leaves as f64));
        m.push((
            "mean_degree".to_string(),
            2.0 * built.net.graph.num_edges() as f64 / n,
        ));
        m.push(("vol_ratio".to_string(), ov.vol_max / ov.vol_min.max(1e-300)));
        // incremental-adjacency engine telemetry: the hub watermark
        // the churn history produced and what maintaining the zone
        // adjacency cost (link updates, not O(zones²) rescans)
        m.push(("peak_zone_degree".to_string(), ov.peak_degree as f64));
        m.push(("adj_updates".to_string(), ov.adj_updates as f64));
        if ov.session_alpha.is_some() {
            // heavy-tailed churn: session survivorship of the alive
            // population (grows past 1 as short sessions wash out)
            m.push(("mean_session".to_string(), ov.mean_session));
        }
    }
    if let Some(trace) = &built.churn_trace {
        // whole-trace survival curve: one exact connectivity answer
        // per churn timestep, from the recorded zone adjacency event
        // log. `dyncon` (the offline segment-tree pass) and `oracle`
        // (per-snapshot BFS re-sweeps) journal bit-identical metrics —
        // the oracle arm exists so the fast engine can be
        // cross-validated on any spec.
        let span = Span::enter(Target::Dyncon, "cell.churn_curve");
        let interval = trace.clone().finalize();
        let curve = match params.churn_curves {
            ChurnCurves::Dyncon => solve_curve(&interval),
            ChurnCurves::Oracle => resweep_curve(&interval, &mut Scratch::new()),
        };
        let cm = curve.survival_metrics();
        drop(span);
        m.push(("trace_events".to_string(), interval.events as f64));
        m.push(("trace_horizon".to_string(), interval.horizon as f64));
        m.push(("gamma_half_life".to_string(), cm.gamma_half_life));
        m.push(("min_gamma_t".to_string(), cm.min_gamma_t));
        m.push(("gamma_auc_t".to_string(), cm.gamma_auc_t));
    }
    m
}

fn expansion_cert_metrics(
    built: &BuiltScenario,
    cell: &Cell,
    rng: &mut SmallRng,
) -> Vec<(String, f64)> {
    let net = &built.net;
    let (failed, alive) = sample_faults(built, cell, rng);
    if alive.is_empty() {
        return vec![
            ("faults".to_string(), failed.len() as f64),
            ("gamma".to_string(), 0.0),
        ];
    }
    let a = node_expansion_bounds(&net.graph, &alive, Effort::Auto, rng);
    let ae = edge_expansion_bounds(&net.graph, &alive, Effort::Auto, rng);
    vec![
        ("faults".to_string(), failed.len() as f64),
        ("gamma".to_string(), gamma(&net.graph, &alive)),
        ("alpha_lower".to_string(), a.lower),
        ("alpha_upper".to_string(), a.upper.min(1e6)),
        ("alpha_e_lower".to_string(), ae.lower),
        ("alpha_e_upper".to_string(), ae.upper.min(1e6)),
    ]
}

/// E2 (Theorem 2.3 / Claim 2.4): apply the faults and measure the
/// fragmentation — shatter fraction, component count, and on
/// subdivided scenarios the `O(δk)` component bound.
fn shatter_metrics(built: &BuiltScenario, cell: &Cell, rng: &mut SmallRng) -> Vec<(String, f64)> {
    let net = &built.net;
    let (failed, alive) = sample_faults(built, cell, rng);
    // one scratch serves both the component sweep and γ
    let mut scratch = Scratch::new();
    let comps = component_stats_with(&net.graph, &alive, &mut scratch);
    let biggest = comps.largest;
    let alive_n = alive.len();
    let mut m = vec![
        ("faults".to_string(), failed.len() as f64),
        ("gamma".to_string(), biggest as f64 / net.n().max(1) as f64),
        ("components".to_string(), comps.count as f64),
        ("biggest_component".to_string(), biggest as f64),
        (
            // the paper's disintegration signal: the fraction of the
            // surviving graph *outside* its largest component
            "shatter_fraction".to_string(),
            if alive_n == 0 {
                1.0
            } else {
                1.0 - biggest as f64 / alive_n as f64
            },
        ),
    ];
    if let Some(sub) = &built.sub {
        // base-expander degree δ: max endpoint multiplicity over the
        // original edges
        let mut deg = vec![0usize; sub.original_n];
        for e in &sub.original_edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        let delta = deg.iter().copied().max().unwrap_or(0);
        let bound = theorem23_component_bound(delta, sub.k);
        m.push(("thm23_bound".to_string(), bound as f64));
        m.push((
            "thm23_within_bound".to_string(),
            f64::from(biggest <= bound),
        ));
        m.push((
            "claim24_alpha_upper".to_string(),
            fx_prune::bounds::claim24_expansion_upper(sub.k),
        ));
    }
    m
}

/// E3 (Theorem 2.5): recursive dissection into `< εn` pieces; the
/// removed separator mass vs. the `O(log(1/ε)/ε · α(n)·n)` bound.
fn dissect_metrics(
    built: &BuiltScenario,
    params: &Params,
    rng: &mut SmallRng,
) -> Vec<(String, f64)> {
    let net = &built.net;
    let n = net.n();
    let eps = params.epsilon.unwrap_or(0.25);
    let alive = net.full_mask();
    let ab = node_expansion_bounds(&net.graph, &alive, Effort::Auto, rng);
    let target = ((n as f64) * eps).ceil().max(1.0) as usize;
    let d = dissect(
        &net.graph,
        &alive,
        target,
        CutStrategy::SpectralRefined,
        rng,
    );
    let bound = theorem25_removal_bound(n, ab.upper, eps);
    vec![
        ("eps".to_string(), eps),
        ("alpha_upper".to_string(), ab.upper),
        ("removed".to_string(), d.num_removed() as f64),
        (
            "removed_fraction".to_string(),
            d.num_removed() as f64 / n.max(1) as f64,
        ),
        ("thm25_bound".to_string(), bound),
        (
            "removed_over_bound".to_string(),
            d.num_removed() as f64 / bound.max(1e-12),
        ),
        (
            "pieces".to_string(),
            (d.pieces.len() + d.stuck.len()) as f64,
        ),
        ("largest_piece".to_string(), d.largest_piece() as f64),
        (
            "pieces_small_enough".to_string(),
            f64::from(d.largest_piece() < target),
        ),
    ]
}

/// E10 (§4 remark): prune the faulty graph, then measure the implied
/// diameter constant `diam(H)·α(H)/ln n`.
fn diameter_metrics(
    built: &BuiltScenario,
    params: &Params,
    cell: &Cell,
    rng: &mut SmallRng,
    token: &CancelToken,
) -> Vec<(String, f64)> {
    let net = &built.net;
    let (failed, alive) = sample_faults(built, cell, rng);
    let out = prune_faulty(net, &alive, params, rng);
    let mut m = vec![
        ("faults".to_string(), failed.len() as f64),
        ("kept".to_string(), out.kept.len() as f64),
        (
            "kept_fraction".to_string(),
            out.kept.len() as f64 / net.n().max(1) as f64,
        ),
    ];
    if out.kept.len() >= 4 {
        // poll only where work would actually be skipped: a kept < 4
        // cell never runs this stage, so it must not observe the token
        if token.is_cancelled() {
            return m;
        }
        let after = node_expansion_bounds(&net.graph, &out.kept, Effort::Auto, rng);
        let diam = diameter_two_sweep(&net.graph, &out.kept).unwrap_or(0);
        let ln_n = (net.n() as f64).ln();
        m.push(("alpha_upper_after".to_string(), after.upper));
        m.push(("diameter".to_string(), diam as f64));
        m.push((
            "diameter_constant".to_string(),
            diam as f64 * after.upper / ln_n.max(1e-12),
        ));
    }
    m
}

/// E11 (Lemma 3.3): randomized audit that `K_G(S)` is compact with no
/// worse edge-expansion ratio than `S`.
fn compact_audit_metrics(
    built: &BuiltScenario,
    params: &Params,
    rng: &mut SmallRng,
    token: &CancelToken,
) -> Vec<(String, f64)> {
    let net = &built.net;
    let n = net.n();
    let alive = net.full_mask();
    let mut compact_ok = 0usize;
    let mut ratio_ok = 0usize;
    let mut tried = 0usize;
    let mut worst = 0.0f64;
    for _ in 0..params.samples {
        if token.is_cancelled() {
            break;
        }
        let seed = rng.gen_range(0..n as u32);
        let size = rng.gen_range(1..(n / 2).max(2));
        let s = bfs_ball(&net.graph, &alive, seed, size);
        if s.is_empty() || 2 * s.len() >= n {
            continue;
        }
        tried += 1;
        let k = compactify(&net.graph, &alive, &s);
        let ratio =
            |x: &NodeSet| edge_cut_size(&net.graph, &alive, x) as f64 / x.len().max(1) as f64;
        let (rs, rk) = (ratio(&s), ratio(&k));
        if is_compact(&net.graph, &alive, &k) {
            compact_ok += 1;
        }
        if rk <= rs + 1e-9 {
            ratio_ok += 1;
        }
        if rs > 0.0 {
            worst = worst.max(rk / rs);
        }
        // keep the Cut-level verification honest, like E11 did
        let cut = Cut::measure(&net.graph, &alive, k);
        assert!(cut.verify(&net.graph, &alive));
    }
    let frac = |x: usize| x as f64 / tried.max(1) as f64;
    vec![
        ("samples".to_string(), tried as f64),
        ("compact_ok_fraction".to_string(), frac(compact_ok)),
        ("ratio_ok_fraction".to_string(), frac(ratio_ok)),
        ("worst_ratio_blowup".to_string(), worst),
    ]
}

/// E12 (§1.3): permutation-routing congestion, healthy → faulty →
/// pruned.
fn routing_metrics(
    built: &BuiltScenario,
    params: &Params,
    cell: &Cell,
    rng: &mut SmallRng,
    token: &CancelToken,
) -> Vec<(String, f64)> {
    let net = &built.net;
    let full = net.full_mask();

    let demands = permutation_demands(&full, rng);
    let healthy = route_demands(&net.graph, &full, &demands, rng);

    let (failed, alive) = sample_faults(built, cell, rng);
    let demands_f = permutation_demands(&alive, rng);
    let faulty = route_demands(&net.graph, &alive, &demands_f, rng);

    let out = prune_faulty(net, &alive, params, rng);
    let mut m = vec![
        ("faults".to_string(), failed.len() as f64),
        (
            "healthy_congestion".to_string(),
            healthy.max_edge_congestion as f64,
        ),
        ("healthy_mean_dilation".to_string(), healthy.mean_dilation),
        (
            "faulty_congestion".to_string(),
            faulty.max_edge_congestion as f64,
        ),
        ("faulty_failed".to_string(), faulty.failed as f64),
        ("faulty_mean_dilation".to_string(), faulty.mean_dilation),
        ("pruned_nodes".to_string(), out.kept.len() as f64),
    ];
    if !out.kept.is_empty() && !token.is_cancelled() {
        let demands_p = permutation_demands(&out.kept, rng);
        let pruned = route_demands(&net.graph, &out.kept, &demands_p, rng);
        m.push((
            "pruned_congestion".to_string(),
            pruned.max_edge_congestion as f64,
        ));
        m.push(("pruned_failed".to_string(), pruned.failed as f64));
        m.push(("pruned_mean_dilation".to_string(), pruned.mean_dilation));
    }
    m
}

/// E13 (§1.3): diffusion load-balancing rounds, healthy → faulty →
/// pruned.
fn load_balance_metrics(
    built: &BuiltScenario,
    params: &Params,
    cell: &Cell,
    rng: &mut SmallRng,
    token: &CancelToken,
) -> Vec<(String, f64)> {
    const TOL: f64 = 0.5;
    const MAX_ROUNDS: usize = 200_000;
    let net = &built.net;
    let full = net.full_mask();
    let run = |alive: &NodeSet| {
        let src = alive.first().expect("nonempty alive set");
        let load = point_load(&net.graph, alive, src, alive.len() as f64);
        diffuse(&net.graph, alive, &load, TOL, MAX_ROUNDS)
    };

    let healthy = run(&full);
    let (failed, alive) = sample_faults(built, cell, rng);
    let mut m = vec![
        ("faults".to_string(), failed.len() as f64),
        ("healthy_rounds".to_string(), healthy.rounds as f64),
        (
            "healthy_balanced".to_string(),
            f64::from(healthy.final_imbalance <= TOL),
        ),
    ];
    if !alive.is_empty() && !token.is_cancelled() {
        let faulty = run(&alive);
        m.push(("faulty_rounds".to_string(), faulty.rounds as f64));
        m.push((
            "faulty_balanced".to_string(),
            f64::from(faulty.final_imbalance <= TOL),
        ));
        if token.is_cancelled() {
            return m;
        }
        let out = prune_faulty(net, &alive, params, rng);
        m.push(("pruned_nodes".to_string(), out.kept.len() as f64));
        if !out.kept.is_empty() {
            let pruned = run(&out.kept);
            m.push(("pruned_rounds".to_string(), pruned.rounds as f64));
            m.push((
                "pruned_balanced".to_string(),
                f64::from(pruned.final_imbalance <= TOL),
            ));
            m.push(("pruned_contraction".to_string(), pruned.contraction));
        }
    }
    m
}

/// E15 (§1.2): the fault-free → faulty self-embedding and its LMR
/// slowdown proxy `ℓ + c + d`, for the raw largest component and the
/// pruned core.
fn embed_metrics(
    built: &BuiltScenario,
    params: &Params,
    cell: &Cell,
    rng: &mut SmallRng,
    token: &CancelToken,
) -> Vec<(String, f64)> {
    let net = &built.net;
    let (failed, alive) = sample_faults(built, cell, rng);
    let mut m = vec![("faults".to_string(), failed.len() as f64)];
    let pruned = prune_faulty(net, &alive, params, rng);
    // draws no random numbers, so it may follow the prune
    let raw_core = largest_component(&net.graph, &alive);
    for (stage, hosts) in [("raw", &raw_core), ("pruned", &pruned.kept)] {
        if hosts.is_empty() || token.is_cancelled() {
            continue;
        }
        let (q, _) = embed_nearest(&net.graph, &net.graph, hosts, rng);
        m.push((format!("{stage}_hosts"), hosts.len() as f64));
        m.push((format!("{stage}_load"), q.load as f64));
        m.push((format!("{stage}_congestion"), q.congestion as f64));
        m.push((format!("{stage}_dilation"), q.dilation as f64));
        m.push((format!("{stage}_mean_dilation"), q.mean_dilation));
        m.push((format!("{stage}_slowdown"), q.slowdown_proxy as f64));
        m.push((format!("{stage}_unrouted"), q.unrouted as f64));
    }
    m
}

/// Largest subgraph size `r` a `subgraph-count` cell counts.
const SUBGRAPH_COUNT_MAX_R: usize = 6;

/// E8 (Claim 3.2): exact counts of connected node subsets of each size
/// `r ≤ 6`, and whether every count is within the `n·δ^{2r}` bound.
/// A graph with more than 50 M connected subsets journals only
/// `exhaustive = 0`.
fn subgraph_count_metrics(built: &BuiltScenario) -> Vec<(String, f64)> {
    let net = &built.net;
    let (n, delta) = (net.n(), net.max_degree());
    let max_r = SUBGRAPH_COUNT_MAX_R.min(n);
    let mut m = vec![("delta".to_string(), delta as f64)];
    let Some(counts) = count_connected_subsets_by_size(&net.graph, max_r, 50_000_000) else {
        m.push(("exhaustive".to_string(), 0.0));
        return m;
    };
    let mut within = true;
    for (r, &count) in counts.iter().enumerate().skip(1) {
        within &= count as f64 <= claim32_bound(n, delta, r);
        m.push((format!("count_r{r}"), count as f64));
    }
    m.push(("exhaustive".to_string(), 1.0));
    m.push(("within_bound".to_string(), f64::from(within)));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::expand;

    fn small_spec() -> CampaignSpec {
        CampaignSpec::parse(
            r#"
name = "exec-test"
seed = 11
replicates = 2
graphs = ["torus:5,5", "hypercube:4"]
faults = ["none", "random:0.1", "adversarial:2"]
algorithms = ["prune", "expansion-cert"]
"#,
        )
        .unwrap()
    }

    #[test]
    fn cells_execute_and_are_deterministic() {
        let spec = small_spec();
        let cells = expand(&spec).unwrap();
        for cell in cells.iter().take(6) {
            let a = run_cell(&spec, cell);
            let b = run_cell(&spec, cell);
            assert_eq!(a.metrics, b.metrics, "{}", cell.key());
            assert_eq!(a.key, cell.key());
            assert!(a.metric("n").unwrap() > 0.0);
        }
    }

    #[test]
    fn resilient_wrapper_is_transparent_with_chaos_off() {
        // with no chaos configured, run_cell_resilient must produce the
        // exact metrics of run_cell, succeed first try, and record a
        // single attempt — the wrapper is invisible in clean runs
        let spec = small_spec();
        let cells = expand(&spec).unwrap();
        for cell in cells.iter().take(4) {
            let plain = run_cell(&spec, cell);
            let resilient = run_cell_resilient(&spec, cell, 0);
            assert_eq!(plain.metrics, resilient.metrics, "{}", cell.key());
            assert_eq!(resilient.failed, 0);
            assert!(resilient.error.is_empty());
            assert_eq!(resilient.attempts, 1);
        }
        // a prior resume's attempts are carried forward even on success
        let carried = run_cell_resilient(&spec, &cells[0], 3);
        assert_eq!(carried.attempts, 4);
        assert_eq!(carried.failed, 0);
    }

    #[test]
    fn prune2_and_percolation_and_span_cells() {
        let spec = CampaignSpec::parse(
            r#"
name = "axes"
graphs = ["torus:6,6"]
faults = ["random:0.05"]
algorithms = ["prune2", "percolation"]
"#,
        )
        .unwrap();
        for cell in expand(&spec).unwrap() {
            let r = run_cell(&spec, &cell);
            match cell.algo {
                Algo::Prune2 => {
                    assert!(r.metric("kept_fraction").unwrap() >= 0.0);
                    assert!(r.metric("thm34_max_p").unwrap() > 0.0);
                }
                Algo::Percolation => {
                    let g_frac = r.metric("gamma").unwrap();
                    assert!((0.0..=1.0).contains(&g_frac));
                }
                _ => unreachable!(),
            }
        }
        let span_spec =
            CampaignSpec::parse("name = \"s\"\ngraphs = [\"mesh:3,4\"]\nalgorithms = [\"span\"]")
                .unwrap();
        let r = run_cell(&span_spec, &expand(&span_spec).unwrap()[0]);
        assert_eq!(r.metric("exhaustive"), Some(1.0));
        assert!(r.metric("span").unwrap() <= 2.0 + 1e-9, "Theorem 3.6");
    }

    #[test]
    fn subgraph_count_cell_counts_cycle_arcs() {
        let spec = CampaignSpec::parse(
            "name = \"c\"\ngraphs = [\"cycle:12\"]\nalgorithms = [\"subgraph-count\"]",
        )
        .unwrap();
        let r = run_cell(&spec, &expand(&spec).unwrap()[0]);
        // a connected subset of 12-cycle nodes is an arc: 12 per size
        for size in 1..=SUBGRAPH_COUNT_MAX_R {
            assert_eq!(r.metric(&format!("count_r{size}")), Some(12.0));
        }
        assert_eq!(r.metric("count_r7"), None);
        assert_eq!(r.metric("exhaustive"), Some(1.0));
        assert_eq!(r.metric("within_bound"), Some(1.0));
    }

    #[test]
    fn subdivided_shatter_cell_reports_thm23_bound() {
        let spec = CampaignSpec::parse(
            r#"
name = "shatter"
graphs = ["subdivided:12,4,2"]
faults = ["chain-centers"]
algorithms = ["shatter"]
"#,
        )
        .unwrap();
        let cell = &expand(&spec).unwrap()[0];
        let r = run_cell(&spec, cell);
        // the Theorem 2.3 adversary kills every chain center
        assert_eq!(r.metric("faults"), Some(24.0), "m = n·d/2 = 24 chains");
        assert_eq!(r.metric("chains"), Some(24.0));
        assert_eq!(r.metric("base_n"), Some(12.0));
        assert!(r.metric("components").unwrap() > 1.0, "must fragment");
        assert!(r.metric("shatter_fraction").unwrap() > 0.0);
        assert_eq!(
            r.metric("thm23_within_bound"),
            Some(1.0),
            "components must obey the O(δk) bound: {:?}",
            r.metrics
        );
        // determinism across re-runs
        assert_eq!(r.metrics, run_cell(&spec, cell).metrics);
    }

    #[test]
    fn overlay_cells_report_churn_survival_and_volume_stats() {
        let spec = CampaignSpec::parse(
            r#"
name = "overlay"
graphs = ["overlay:2,40,churn=50"]
faults = ["random:0.1"]
algorithms = ["expansion-cert", "percolation"]
"#,
        )
        .unwrap();
        for cell in expand(&spec).unwrap() {
            let r = run_cell(&spec, &cell);
            let g_frac = r.metric("gamma").unwrap();
            assert!((0.0..=1.0).contains(&g_frac), "{}", cell.key());
            assert!(r.metric("peers").unwrap() > 0.0);
            assert!(r.metric("vol_ratio").unwrap() >= 1.0);
            assert!(r.metric("mean_degree").unwrap() > 0.0);
            assert!(
                r.metric("peak_zone_degree").unwrap() >= r.metric("mean_degree").unwrap(),
                "the lifetime hub watermark bounds the mean: {:?}",
                r.metrics
            );
            assert!(r.metric("adj_updates").unwrap() > 0.0);
            // the default engine (dyncon) journals whole-trace
            // survival-curve metrics for every churn cell
            assert!(r.metric("gamma_half_life").is_some(), "{}", cell.key());
            assert!(r.metric("min_gamma_t").unwrap() >= 0.0);
            assert!(r.metric("gamma_auc_t").unwrap() > 0.0);
            assert!(r.metric("trace_events").unwrap() > 0.0);
            assert_eq!(r.metric("trace_horizon"), Some(51.0), "ops + 1");
            assert_eq!(r.metrics, run_cell(&spec, &cell).metrics, "{}", cell.key());
        }
    }

    /// The offline dyncon engine and the per-snapshot re-sweep oracle
    /// must journal bit-identical metrics.
    #[test]
    fn churn_curve_engines_agree_bit_for_bit() {
        let spec_for = |engine: &str| {
            CampaignSpec::parse(&format!(
                "name = \"curves\"\nseed = 11\n\
                 graphs = [\"overlay:2,40,churn=60,sessions=pareto:1.5\"]\n\
                 algorithms = [\"expansion-cert\"]\n\
                 [params]\nchurn_curves = \"{engine}\""
            ))
            .unwrap()
        };
        let dyncon_spec = spec_for("dyncon");
        let cell = &expand(&dyncon_spec).unwrap()[0];
        let d = run_cell(&dyncon_spec, cell);
        let o = run_cell(&spec_for("oracle"), cell);
        for key in [
            "gamma_half_life",
            "min_gamma_t",
            "gamma_auc_t",
            "trace_events",
            "trace_horizon",
        ] {
            assert!(d.metric(key).is_some(), "{key} journaled");
            assert_eq!(d.metric(key), o.metric(key), "{key} dyncon ≡ oracle");
        }
        assert_eq!(d.metric("trace_horizon"), Some(61.0), "ops + 1 query times");
        assert!(d.metric("min_gamma_t").unwrap() <= 1.0);
        // the engine never touches any other metric either
        assert_eq!(d.metrics, o.metrics);
    }

    /// Small-world scenarios run end to end through the executor.
    #[test]
    fn smallworld_cells_execute_deterministically() {
        let spec = CampaignSpec::parse(
            r#"
name = "sw"
graphs = ["smallworld:200,6,0.1"]
faults = ["targeted:0.2,by=degree"]
algorithms = ["percolation", "shatter"]
"#,
        )
        .unwrap();
        for cell in expand(&spec).unwrap() {
            let r = run_cell(&spec, &cell);
            assert_eq!(r.metric("n"), Some(200.0), "{}", cell.key());
            let g_frac = r.metric("gamma").unwrap();
            assert!((0.0..=1.0).contains(&g_frac), "{}", cell.key());
            assert_eq!(r.metrics, run_cell(&spec, &cell).metrics, "{}", cell.key());
        }
    }

    #[test]
    fn structure_and_application_cells_execute() {
        let spec = CampaignSpec::parse(
            r#"
name = "apps"
seed = 3
[grid-faultfree]
graphs = ["torus:6,6"]
algorithms = ["dissect", "compact-audit"]
[grid-faulty]
graphs = ["torus:6,6"]
faults = ["random-exact:3"]
algorithms = ["diameter", "routing", "load-balance", "embed"]
[params]
samples = 20
"#,
        )
        .unwrap();
        for cell in expand(&spec).unwrap() {
            let r = run_cell(&spec, &cell);
            assert_eq!(r.metric("n"), Some(36.0), "{}", cell.key());
            match cell.algo {
                Algo::Dissect => {
                    assert_eq!(r.metric("pieces_small_enough"), Some(1.0));
                    assert!(r.metric("removed").unwrap() > 0.0);
                }
                Algo::CompactAudit => {
                    assert_eq!(r.metric("compact_ok_fraction"), Some(1.0), "Lemma 3.3");
                    assert_eq!(r.metric("ratio_ok_fraction"), Some(1.0), "Lemma 3.3");
                }
                Algo::Diameter => {
                    assert!(r.metric("diameter").unwrap() > 0.0);
                }
                Algo::Routing => {
                    assert_eq!(r.metric("pruned_failed"), Some(0.0), "pruned core routes");
                }
                Algo::LoadBalance => {
                    assert_eq!(r.metric("pruned_balanced"), Some(1.0));
                }
                Algo::Embed => {
                    assert_eq!(r.metric("pruned_unrouted"), Some(0.0));
                    assert!(r.metric("pruned_slowdown").unwrap() > 0.0);
                }
                _ => unreachable!(),
            }
            assert_eq!(r.metrics, run_cell(&spec, &cell).metrics, "{}", cell.key());
        }
    }

    /// The ROADMAP's named pathological cell: exact span on a graph
    /// whose compact-set enumeration takes far longer than the budget
    /// (`torus:4,5`: 201,352 compact sets, about a second in release).
    /// The deadline token must cancel it cooperatively (poll
    /// granularity: one compact set), journal-ready, with the timeout
    /// marker.
    #[test]
    fn pathological_exact_span_cell_times_out_cooperatively() {
        let spec = CampaignSpec::parse(
            "name = \"timeout\"\ngraphs = [\"torus:4,5\"]\nalgorithms = [\"span\"]\n\
             [params]\ntimeout_ms = 10",
        )
        .unwrap();
        let cell = &expand(&spec).unwrap()[0];
        let started = std::time::Instant::now();
        let r = run_cell(&spec, cell);
        assert_eq!(r.metric("timed_out"), Some(1.0), "{:?}", r.metrics);
        assert_eq!(r.metric("exhaustive"), Some(0.0), "truncated enumeration");
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "cancellation latency must be one compact-set evaluation, not \
             the full enumeration ({:?})",
            started.elapsed()
        );
        // an explicit token works the same way without a spec timeout
        let free_spec = CampaignSpec::parse(
            "name = \"timeout2\"\ngraphs = [\"torus:4,5\"]\nalgorithms = [\"span\"]",
        )
        .unwrap();
        let token = CancelToken::with_deadline(Duration::from_millis(10));
        let cell = &expand(&free_spec).unwrap()[0];
        let r = run_cell_cancelable(&free_spec, cell, &token);
        assert_eq!(r.metric("timed_out"), Some(1.0));
    }

    #[test]
    fn completed_cells_past_deadline_are_not_marked_timed_out() {
        // percolation × random:p cells have no cancellation points
        // (only the critical-probability arm polls): even with a
        // budget that certainly fires mid-cell, a cell that ran to
        // completion must not be journaled as timed out
        let spec = CampaignSpec::parse(
            "name = \"slow\"\ngraphs = [\"cycle:30\"]\nfaults = [\"random:0.1\"]\n\
             algorithms = [\"percolation\"]\n[params]\ntimeout_ms = 1",
        )
        .unwrap();
        let cell = &expand(&spec).unwrap()[0];
        let token = CancelToken::new();
        token.cancel(); // fired before the cell even starts
        let r = run_cell_cancelable(&spec, cell, &token);
        assert_eq!(r.metric("timed_out"), None, "{:?}", r.metrics);
        assert!(r.metric("gamma").is_some(), "full metrics present");
    }

    #[test]
    fn fast_cells_are_not_marked_timed_out() {
        let spec = CampaignSpec::parse(
            "name = \"fast\"\ngraphs = [\"cycle:10\"]\nalgorithms = [\"span\"]\n\
             [params]\ntimeout_ms = 60000",
        )
        .unwrap();
        let r = run_cell(&spec, &expand(&spec).unwrap()[0]);
        assert_eq!(r.metric("timed_out"), None);
        assert_eq!(r.metric("exhaustive"), Some(1.0));
    }

    /// The new registry models execute end to end — targeted /
    /// clustered / heavy-tailed cells journal their per-model metrics
    /// deterministically.
    #[test]
    fn registry_fault_models_execute_and_are_deterministic() {
        let spec = CampaignSpec::parse(
            r#"
name = "fault-layer"
seed = 17
graphs = ["random-regular:64,4"]
faults = ["targeted:0.15", "targeted:0.15,by=core", "clustered:4,1", "heavy-tailed:0.15,1.5"]
algorithms = ["shatter", "percolation"]
[params]
grid = 20
"#,
        )
        .unwrap();
        let cells = expand(&spec).unwrap();
        assert_eq!(cells.len(), 8);
        for cell in &cells {
            let r = run_cell(&spec, cell);
            let g_frac = r.metric("gamma").unwrap();
            assert!((0.0..=1.0).contains(&g_frac), "{}", cell.key());
            match (&cell.fault, cell.algo) {
                (FaultSpec::Targeted { .. }, Algo::Percolation) => {
                    let f_star = r.metric("f_star_targeted").unwrap();
                    assert!(
                        (0.0..=1.0).contains(&f_star) && f_star > 0.0,
                        "{}: f* {f_star}",
                        cell.key()
                    );
                    assert!(r.metric("dilution_auc").unwrap() > 0.0);
                    assert_eq!(r.metric("tolerance"), Some(f_star));
                }
                (_, Algo::Percolation) => {
                    assert!(r.metric("faults").unwrap() > 0.0, "{}", cell.key());
                    assert!(r.metric("alive_fraction").unwrap() < 1.0);
                }
                (_, Algo::Shatter) => {
                    assert!(r.metric("faults").unwrap() > 0.0, "{}", cell.key());
                    assert!(r.metric("components").unwrap() >= 1.0);
                }
                _ => unreachable!(),
            }
            assert_eq!(r.metrics, run_cell(&spec, cell).metrics, "{}", cell.key());
        }
        // the two targeted orders measure genuinely different attacks
        // on a supercritical graph: the shatter γ traces differ or
        // the percolation f* differ (degree ties make them *often*
        // equal on regular graphs — so just check the cells exist
        // under distinct keys)
        let keys: Vec<String> = cells.iter().map(Cell::key).collect();
        assert!(keys.iter().any(|k| k.contains("by=core")));
    }

    /// Percolation cells over vectorizable models with `trials > 1`
    /// run on the bit-parallel engine, 64 trials per batch. The
    /// engine's execution is confirmed through the fx-trace counters,
    /// never through the journal.
    #[test]
    fn multi_trial_percolation_cells_run_on_the_lane_engine() {
        let spec = CampaignSpec::parse(
            "name = \"lanes\"\ngraphs = [\"torus:8,8\"]\n\
             faults = [\"random:0.3\", \"heavy-tailed:0.3,1.5\"]\n\
             algorithms = [\"percolation\"]\n[params]\ntrials = 70",
        )
        .unwrap();
        fx_trace::set_filter("percolation=2");
        let _ = fx_trace::take_snapshot(); // drop counts from earlier tests
        for cell in expand(&spec).unwrap() {
            let r = run_cell(&spec, &cell);
            assert_eq!(r.metric("trials"), Some(70.0));
            assert!(r.metric("gamma_std").unwrap() >= 0.0);
            assert!(r.metric("alive_fraction").unwrap() < 1.0);
        }
        let snap = fx_trace::take_snapshot();
        fx_trace::set_filter("off");
        let count = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        // 2 cells × ⌈70/64⌉ lane batches, and no scalar trial loop
        assert_eq!(count("mc_lane_batches"), 4, "lane path must have run");
        assert_eq!(count("mc_scalar_trials"), 0);
    }

    /// A `fault-sweep` axis expands into per-severity cells that run.
    #[test]
    fn fault_sweep_cells_execute() {
        let spec = CampaignSpec::parse(
            r#"
name = "sweep-exec"
graphs = ["torus:8,8"]
fault-sweep = ["targeted:0.1..0.3/3"]
algorithms = ["shatter"]
"#,
        )
        .unwrap();
        let cells = expand(&spec).unwrap();
        assert_eq!(cells.len(), 3);
        let gammas: Vec<f64> = cells
            .iter()
            .map(|c| run_cell(&spec, c).metric("gamma").unwrap())
            .collect();
        assert!(
            gammas.windows(2).all(|w| w[1] <= w[0] + 1e-9),
            "γ decays with targeted severity: {gammas:?}"
        );
    }

    /// Per-grid `[params]` overrides steer execution: the overridden
    /// grid's cells run with their own samples/timeout budget while
    /// sibling grids keep the campaign defaults.
    #[test]
    fn per_grid_overrides_steer_execution() {
        let spec = CampaignSpec::parse(
            r#"
name = "override-exec"
[grid-audit-default]
graphs = ["torus:5,5"]
algorithms = ["compact-audit"]
[grid-audit-small]
graphs = ["torus:6,6"]
algorithms = ["compact-audit"]
samples = 5
[grid-pathological]
graphs = ["torus:4,5"]
algorithms = ["span"]
timeout_ms = 10
[params]
samples = 25
"#,
        )
        .unwrap();
        for cell in expand(&spec).unwrap() {
            let r = run_cell(&spec, &cell);
            match cell.graph.as_str() {
                "torus:5,5" => {
                    assert!(r.metric("samples").unwrap() > 5.0, "campaign default");
                    assert_eq!(r.metric("timed_out"), None);
                }
                "torus:6,6" => {
                    assert!(r.metric("samples").unwrap() <= 5.0, "per-grid override");
                    assert_eq!(r.metric("timed_out"), None);
                }
                "torus:4,5" => {
                    // only this grid has a budget; the exact-span cell
                    // would otherwise enumerate for about a second
                    assert_eq!(r.metric("timed_out"), Some(1.0), "{:?}", r.metrics);
                }
                other => unreachable!("{other}"),
            }
        }
    }

    #[test]
    fn overlay_session_cells_report_mean_session() {
        let spec = CampaignSpec::parse(
            r#"
name = "sessions"
graphs = ["overlay:2,40,churn=60,sessions=pareto:1.5,depart=degree"]
faults = ["heavy-tailed:0.1,1.5"]
algorithms = ["expansion-cert"]
"#,
        )
        .unwrap();
        let cell = &expand(&spec).unwrap()[0];
        let r = run_cell(&spec, cell);
        assert!(
            r.metric("mean_session").unwrap() > 1.0,
            "survivorship: {:?}",
            r.metrics
        );
        assert!(r.metric("vol_ratio").unwrap() >= 1.0);
        assert_eq!(r.metrics, run_cell(&spec, cell).metrics);
    }

    #[test]
    fn cell_result_json_roundtrip() {
        let spec = small_spec();
        let cell = &expand(&spec).unwrap()[0];
        let r = run_cell(&spec, cell);
        let text = fx_json::to_string(&r);
        let back: CellResult = fx_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }

    /// A record line as the journal and the store have always written
    /// it (the payload `fx_store::log`'s format test pins).
    const LINE: &str = r#"{"key":"torus:4,4|none|expansion-cert|r0","graph":"torus:4,4","fault":"none","algo":"expansion-cert","replicate":0,"seed":4564166207218524731,"metrics":[["n",16],["faults",0],["gamma",1],["alpha_lower",0.75],["alpha_upper",0.75],["alpha_e_lower",1],["alpha_e_upper",1]],"wall_ms":1.262465,"phase_ms":[["build",0.013989],["fault",0.002771],["algo",1.24358]],"failed":0,"error":"","attempts":1,"cache_hit":0}"#;
    const PHASES: &str = r#"[["build",0.013989],["fault",0.002771],["algo",1.24358]]"#;

    /// `LINE` with each `(from, to)` edit applied once.
    fn edited(edits: &[(&str, &str)]) -> String {
        edits.iter().fold(LINE.to_string(), |doc, (from, to)| {
            assert!(doc.contains(from), "{from}");
            doc.replacen(from, to, 1)
        })
    }

    fn decode(doc: &str) -> Result<CellResult, String> {
        fx_json::from_str(doc)
    }

    #[test]
    fn record_line_reencodes_the_pinned_payload_byte_for_byte() {
        let r = decode(LINE).unwrap();
        assert_eq!(r.key, "torus:4,4|none|expansion-cert|r0");
        assert_eq!(r.seed, 4564166207218524731);
        assert_eq!(r.phase_ms[2], ("algo".to_string(), 1.24358));
        assert_eq!((r.failed, r.attempts, r.cache_hit), (0, 1, 0));
        assert_eq!(fx_json::to_string(&r), LINE);
    }

    /// The documents the decoder has always accepted, each with the
    /// line its record re-encodes to.
    #[test]
    fn record_decoder_accepts_legacy_null_and_integral_float_fields() {
        let legacy_tail =
            format!(r#","phase_ms":{PHASES},"failed":0,"error":"","attempts":1,"cache_hit":0"#);
        let null_wall = (r#""wall_ms":1.262465"#, r#""wall_ms":null"#);
        let null_gamma = (r#"["gamma",1]"#, r#"["gamma",null]"#);
        let absent_wall = edited(&[(r#","wall_ms":1.262465"#, "")]);
        let cases = [
            // written before `phase_ms` and the quarantine fields
            (
                edited(&[(&legacy_tail, "")]),
                edited(&[(PHASES, "[]"), (r#""attempts":1"#, r#""attempts":0"#)]),
            ),
            // non-finite floats are written as null
            (
                edited(&[null_wall, null_gamma]),
                edited(&[null_wall, null_gamma]),
            ),
            (absent_wall.clone(), edited(&[null_wall])),
            (
                edited(&[
                    (r#""replicate":0"#, r#""replicate":2.0"#),
                    (r#""seed":4564166207218524731"#, r#""seed":1e3"#),
                    (r#""attempts":1"#, r#""attempts":3.0"#),
                ]),
                edited(&[
                    (r#""replicate":0"#, r#""replicate":2"#),
                    (r#""seed":4564166207218524731"#, r#""seed":1000"#),
                    (r#""attempts":1"#, r#""attempts":3"#),
                ]),
            ),
            // unknown keys are ignored and the first of a repeated key wins
            (
                edited(&[(
                    r#""cache_hit":0"#,
                    r#""cache_hit":0,"extra":{"x":1},"key":"second""#,
                )]),
                LINE.to_string(),
            ),
        ];
        for (doc, line) in &cases {
            assert_eq!(fx_json::to_string(&decode(doc).unwrap()), *line);
        }
        let nulls = decode(&cases[1].0).unwrap();
        assert!(nulls.wall_ms.is_nan() && nulls.metric("gamma").unwrap().is_nan());
        assert!(decode(&absent_wall).unwrap().wall_ms.is_nan());
    }

    /// The documents the decoder has always rejected, each with its
    /// error, word for word.
    #[test]
    fn record_decoder_rejects_bad_fields_naming_the_field() {
        let metrics = r#""metrics":[["n",16],["faults",0],["gamma",1],["alpha_lower",0.75],["alpha_upper",0.75],["alpha_e_lower",1],["alpha_e_upper",1]],"#;
        let phases = format!(r#""phase_ms":{PHASES}"#);
        let cases = [
            (
                edited(&[(metrics, "")]),
                "CellResult.metrics: expected array, got Null",
            ),
            (
                edited(&[(metrics, r#""metrics":{},"#)]),
                "CellResult.metrics: expected array, got Obj([])",
            ),
            (
                edited(&[(r#""key":"torus:4,4|none|expansion-cert|r0","#, "")]),
                "CellResult.key: expected string, got Null",
            ),
            (
                edited(&[(r#""failed":0"#, r#""failed":"0""#)]),
                r#"CellResult.failed: expected unsigned integer, got Str("0")"#,
            ),
            (
                edited(&[(&phases, r#""phase_ms":null"#)]),
                "CellResult.phase_ms: expected array, got Null",
            ),
            (
                edited(&[(r#""error":"""#, r#""error":null"#)]),
                "CellResult.error: expected string, got Null",
            ),
            (
                edited(&[(r#""attempts":1"#, r#""attempts":null"#)]),
                "CellResult.attempts: expected unsigned integer, got Null",
            ),
            (
                edited(&[(r#""cache_hit":0"#, r#""cache_hit":true"#)]),
                "CellResult.cache_hit: expected unsigned integer, got Bool(true)",
            ),
            (
                edited(&[(r#""replicate":0"#, r#""replicate":-1"#)]),
                "CellResult.replicate: expected unsigned integer, got Int(-1)",
            ),
            (
                edited(&[(r#""replicate":0"#, r#""replicate":1e20"#)]),
                "CellResult.replicate: expected unsigned integer, got Num(1e20)",
            ),
            (
                edited(&[(r#""seed":4564166207218524731"#, r#""seed":1.5"#)]),
                "CellResult.seed: expected unsigned integer, got Num(1.5)",
            ),
            (
                edited(&[(r#"["n",16]"#, r#"["n",16,1]"#)]),
                r#"CellResult.metrics: expected 2-element array, got Arr([Str("n"), UInt(16), UInt(1)])"#,
            ),
            (
                edited(&[(r#"["n",16]"#, r#"["n","16"]"#)]),
                r#"CellResult.metrics: expected number, got Str("16")"#,
            ),
            (
                "[1,2]".to_string(),
                "CellResult.key: expected string, got Null",
            ),
            (
                "{}".to_string(),
                "CellResult.key: expected string, got Null",
            ),
            (LINE[..40].to_string(), "unterminated string"),
        ];
        for (doc, error) in cases {
            assert_eq!(decode(&doc).unwrap_err(), error, "{doc}");
        }
    }

    #[test]
    fn record_encoder_writes_quarantined_records_byte_for_byte() {
        let quarantined = CellResult {
            key: "mesh:3,4|random:0.1|prune|r3".into(),
            graph: "mesh:3,4".into(),
            fault: "random:0.1".into(),
            algo: "prune".into(),
            replicate: 3,
            seed: u64::MAX,
            metrics: vec![
                ("inf".into(), f64::INFINITY),
                ("nan".into(), f64::NAN),
                ("neg".into(), -0.5),
                ("big".into(), 1e20),
                ("tiny".into(), 1e-7),
            ],
            wall_ms: f64::NEG_INFINITY,
            phase_ms: vec![("build".into(), 0.25)],
            failed: 1,
            error: "chaos: \"boom\" at \\x\n\ttab\u{1}é".into(),
            attempts: 7,
            cache_hit: 0,
        };
        assert_eq!(
            fx_json::to_string(&quarantined),
            r#"{"key":"mesh:3,4|random:0.1|prune|r3","graph":"mesh:3,4","fault":"random:0.1","algo":"prune","replicate":3,"seed":18446744073709551615,"metrics":[["inf",null],["nan",null],["neg",-0.5],["big",100000000000000000000],["tiny",0.0000001]],"wall_ms":null,"phase_ms":[["build",0.25]],"failed":1,"error":"chaos: \"boom\" at \\x\n\ttab\u0001é","attempts":7,"cache_hit":0}"#
        );
    }
}
