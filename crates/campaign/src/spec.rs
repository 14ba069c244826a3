//! Campaign specification: the declarative description of a scenario
//! grid, parsed from the TOML subset in [`crate::toml`].
//!
//! A campaign is one or more grids
//! `scenarios × faults × algorithms × replicates`; every axis value
//! and every grid point is validated eagerly so a bad spec fails
//! before any cell runs. The scenario axis accepts any
//! [`Scenario`] spec string — plain families plus the derived
//! sources (`subdivided:n,d,k`, `overlay:dim,n[,churn=ops]`) the
//! paper's lower-bound and §4 experiments need.
//!
//! A single root-level `graphs`/`faults`/`algorithms` triple is the
//! common case; experiments whose sub-grids are *not* a full cross
//! product (e.g. chain-center faults only make sense on subdivided
//! scenarios) declare several `[grid-…]` tables that are expanded
//! side by side into one campaign.

use crate::toml::{TomlDoc, TomlValue};
use fx_core::{Scenario, ScenarioKind};
use std::fmt;
use std::path::PathBuf;

// The fault axis is OWNED by fx-faults: grammar, registry,
// validation, sweep expansion, and construction all live there
// (`fx_faults::spec`); the campaign layer only composes the axis into
// grids and validates grid points. Re-exported so spec consumers keep
// one import path.
pub use fx_faults::{expand_sweep, CenterBias, FaultSpec, TargetBy};

/// An algorithm axis value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Theorem 2.1 pipeline: adversarial faults + `Prune`.
    Prune,
    /// Theorem 3.4 pipeline: random faults + `Prune2`.
    Prune2,
    /// Percolation: `γ` at a survival rate, or `p*` when fault-free.
    Percolation,
    /// Span estimation (exact for tiny graphs, sampled otherwise).
    Span,
    /// Two-sided expansion certificates of the (faulted) graph.
    ExpansionCert,
    /// Post-fault fragmentation: component structure, shatter
    /// fraction, and — on subdivided scenarios — the Theorem 2.3
    /// `O(δk)` component bound (E2).
    Shatter,
    /// Theorem 2.5 recursive dissection into `< εn` pieces (E3).
    Dissect,
    /// §4 diameter remark: prune, then measure `diam(H)·α(H)/ln n`
    /// (E10).
    Diameter,
    /// Lemma 3.3 randomized compactification audit (E11).
    CompactAudit,
    /// Permutation-routing congestion, healthy → faulty → pruned
    /// (E12).
    Routing,
    /// Diffusion load-balancing rounds, healthy → faulty → pruned
    /// (E13).
    LoadBalance,
    /// §1.2 self-embedding slowdown proxy `ℓ + c + d` of the faulty
    /// (and pruned) network (E15).
    Embed,
    /// Claim 3.2: exact connected-subgraph counts per size `r` against
    /// the `n·δ^{2r}` bound (E8).
    SubgraphCount,
}

/// The fault models an algorithm runs under. A rejecting rule carries
/// the reason its rejection message starts with.
enum FaultRule {
    /// Every model.
    Any,
    /// Only `none`: the algorithm measures the fault-free graph.
    FaultFree(&'static str),
    /// Every model but `none`: the message for `none`.
    Faulty(&'static str),
    /// Only i.i.d. random models (`random:p`).
    Iid(&'static str),
    /// Dilution: `none`, the randomized dilution models (γ under the
    /// draw) and fractional targeted removal (one ordered sweep gives
    /// the deterministic curve), never a budgeted adversary.
    Dilution(&'static str),
}

/// One row of [`ALGORITHMS`].
struct AlgoRow {
    algo: Algo,
    /// The spec name (`Algo::parse` ↔ `Display`).
    name: &'static str,
    /// The result-affecting `[params]` keys the algorithm's cells read:
    /// exactly what their store key folds in.
    reads: &'static [&'static str],
    faults: FaultRule,
}

impl AlgoRow {
    const fn new(algo: Algo, name: &'static str, reads: &'static [&'static str]) -> AlgoRow {
        AlgoRow {
            algo,
            name,
            reads,
            faults: FaultRule::Any,
        }
    }

    const fn faults(self, faults: FaultRule) -> AlgoRow {
        AlgoRow { faults, ..self }
    }
}

/// The algorithm registry: one row per [`Algo`], in declaration order.
static ALGORITHMS: [AlgoRow; 13] = {
    use {Algo::*, FaultRule::*};
    [
        AlgoRow::new(Prune, "prune", &["k"]),
        AlgoRow::new(Prune2, "prune2", &["epsilon", "sigma", "trials"])
            .faults(Iid("prune2 implements the random-fault theorem (3.4)")),
        AlgoRow::new(
            Percolation,
            "percolation",
            &["trials", "gamma", "grid", "mode"],
        )
        .faults(Dilution("percolation measures dilution")),
        AlgoRow::new(Span, "span", &["samples"])
            .faults(FaultFree("span is a property of the fault-free graph")),
        AlgoRow::new(ExpansionCert, "expansion-cert", &[]),
        AlgoRow::new(Shatter, "shatter", &[]).faults(Faulty(
            "shatter measures post-fault fragmentation; add a fault model \
             (e.g. chain-centers on a subdivided scenario)",
        )),
        AlgoRow::new(Dissect, "dissect", &["epsilon"]).faults(FaultFree(
            "dissect (Theorem 2.5) removes its own separator nodes",
        )),
        AlgoRow::new(Diameter, "diameter", &["k"]),
        AlgoRow::new(CompactAudit, "compact-audit", &["samples"]).faults(FaultFree(
            "compact-audit (Lemma 3.3) samples the fault-free graph",
        )),
        AlgoRow::new(Routing, "routing", &["k"]),
        AlgoRow::new(LoadBalance, "load-balance", &["k"]),
        AlgoRow::new(Embed, "embed", &["k"]).faults(Faulty(
            "embed measures the faulty self-embedding; the fault-free embedding is the \
             identity — add a fault model",
        )),
        AlgoRow::new(SubgraphCount, "subgraph-count", &[]).faults(FaultFree(
            "subgraph-count (Claim 3.2) counts subgraphs of the fault-free graph",
        )),
    ]
};

impl Algo {
    fn row(self) -> &'static AlgoRow {
        &ALGORITHMS[self as usize]
    }

    /// Parses an algorithm name.
    pub fn parse(name: &str) -> Result<Algo, String> {
        let row = ALGORITHMS.iter().find(|row| row.name == name);
        row.map(|row| row.algo).ok_or_else(|| {
            let names: Vec<&str> = ALGORITHMS.iter().map(|row| row.name).collect();
            format!("unknown algorithm {name:?} (try {})", names.join(" | "))
        })
    }

    /// The result-affecting `[params]` keys this algorithm's cells
    /// read (cells of an overlay with `churn > 0` read `churn_curves`
    /// too, whatever their algorithm).
    pub(crate) fn reads(self) -> &'static [&'static str] {
        self.row().reads
    }

    /// Whether this algorithm can run under the given fault model on
    /// the given scenario; an `Err` explains the incompatibility
    /// (reported at spec validation, before anything runs).
    pub fn accepts(&self, fault: &FaultSpec, scenario: &Scenario) -> Result<(), String> {
        // scenario × fault rule, independent of the algorithm: the
        // chain-center adversary only understands the Theorem 2.3
        // construction
        if fault.needs_subdivided() && scenario.kind() != ScenarioKind::Subdivided {
            return Err(format!(
                "chain-centers is the Theorem 2.3 adversary for subdivided expanders; \
                 scenario `{scenario}` has no chains — use subdivided:n,d,k"
            ));
        }
        let dilution = fault.is_random_dilution()
            || matches!(fault, FaultSpec::None | FaultSpec::Targeted { .. });
        match self.row().faults {
            FaultRule::FaultFree(why) if !fault.is_none() => {
                Err(format!("{why}; drop fault model `{fault}`"))
            }
            FaultRule::Faulty(why) if fault.is_none() => Err(why.to_string()),
            FaultRule::Iid(why) if !fault.is_iid() => Err(format!(
                "{why}; fault model `{fault}` is not i.i.d. random — use `random:p`"
            )),
            FaultRule::Dilution(why) if !dilution => Err(format!(
                "{why}; fault model `{fault}` is a budgeted adversary — use none, random:p, \
                 heavy-tailed:p,alpha, clustered:f,r, or targeted:frac"
            )),
            _ => Ok(()),
        }
    }
}

impl fmt::Display for Algo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.row().name)
    }
}

/// Which engine computes the whole-trace survival curve of overlay
/// churn cells (`params.churn_curves`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChurnCurves {
    /// Offline fully-dynamic connectivity (`fx_graph::dyncon`): one
    /// O((E+T)·log T·α) segment-tree pass over the recorded
    /// [`ChurnTrace`](fx_graph::dyncon::ChurnTrace).
    #[default]
    Dyncon,
    /// Per-snapshot re-sweep: rebuild the alive adjacency and re-run
    /// the BFS component sweep at every timestep — O(T·(V+E)), the
    /// ground truth the dyncon engine is validated against.
    Oracle,
}

impl fmt::Display for ChurnCurves {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ChurnCurves::Dyncon => "dyncon",
            ChurnCurves::Oracle => "oracle",
        })
    }
}

/// Tunable parameters shared by all cells (the `[params]` table).
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Theorem 2.1 `k` (prune threshold `ε = 1 − 1/k`).
    pub k: f64,
    /// `Prune2` ε; `None` uses the Theorem 3.4 ceiling `1/(2δ)` per
    /// network. Also the Theorem 2.5 dissection piece-size fraction
    /// (`dissect` cells; `None` = 0.25 there).
    pub epsilon: Option<f64>,
    /// Assumed span `σ` for Theorem 3.4 preconditions.
    pub sigma: f64,
    /// Monte-Carlo trials *inside* one cell (replicates are the outer
    /// loop; keep this at 1 unless a cell-level mean is wanted).
    pub trials: usize,
    /// Sampled-span sample count (also the `compact-audit` sample
    /// count).
    pub samples: usize,
    /// `γ` threshold for critical-probability estimation.
    pub gamma: f64,
    /// Grid resolution for critical-probability search.
    pub grid: usize,
    /// Percolation mode: `site` or `bond` (critical estimation only).
    pub site_mode: bool,
    /// Per-cell wall-clock budget in milliseconds. A cell that
    /// exceeds it is cooperatively cancelled (long kernels poll the
    /// deadline token), journaled with a `timed_out` metric, and the
    /// campaign moves on instead of blocking a worker forever.
    /// `None` = unbounded.
    pub timeout_ms: Option<u64>,
    /// Retry budget for failed cells: a cell whose execution panics
    /// (or is killed by injected chaos) is re-run up to this many
    /// extra times with deterministic bounded backoff before being
    /// quarantined (journaled as `failed = 1`, excluded from
    /// aggregates, re-executed on resume).
    pub retries: usize,
    /// Survival-curve engine for overlay churn cells (`dyncon` |
    /// `oracle`). Both engines journal bit-identical
    /// `gamma_half_life` / `min_gamma_t` / `gamma_auc_t` metrics —
    /// this is a speed (and cross-validation) knob, never a
    /// statistics knob.
    pub churn_curves: ChurnCurves,
    /// Content-addressed cell-result store directory (`fx-store`).
    /// When set, the engine consults the store before running a cell
    /// and publishes every success, so overlapping grids across
    /// campaigns/shards/machines dedup automatically. Served results
    /// are journaled with `cache_hit = 1` — an informational field
    /// like `wall_ms`, never an aggregated metric — and are
    /// bit-identical to a fresh run by the determinism contract.
    /// `None` (spec value `"off"`, the default) disables the store.
    pub store: Option<std::path::PathBuf>,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            k: 2.0,
            epsilon: None,
            sigma: 2.0,
            trials: 1,
            samples: 200,
            gamma: 0.1,
            grid: 50,
            site_mode: true,
            timeout_ms: None,
            retries: 2,
            churn_curves: ChurnCurves::Dyncon,
            store: None,
        }
    }
}

impl Params {
    /// The effective parameters of a grid: the campaign-global
    /// `[params]` with the grid's overrides applied.
    pub fn with_overrides(&self, o: &GridOverrides) -> Params {
        let mut p = self.clone();
        if o.epsilon.is_some() {
            p.epsilon = o.epsilon;
        }
        if let Some(s) = o.samples {
            p.samples = s;
        }
        if o.timeout_ms.is_some() {
            p.timeout_ms = o.timeout_ms;
        }
        p
    }
}

/// Per-grid overrides of the campaign-global `[params]`: a
/// `[grid-…]` table may set `epsilon`, `samples`, or `timeout_ms` for
/// its own cells (e.g. a generous timeout on one pathological
/// sub-grid, a higher sample count on the sampled-span grid) without
/// touching the rest of the campaign. An `epsilon` or `samples`
/// override must be read by one of the grid's algorithms (the
/// algorithm registry declares what each reads); `timeout_ms` may be
/// set on any grid.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GridOverrides {
    /// Overrides `params.epsilon` for this grid's cells.
    pub epsilon: Option<f64>,
    /// Overrides `params.samples`.
    pub samples: Option<usize>,
    /// Overrides `params.timeout_ms`.
    pub timeout_ms: Option<u64>,
}

/// One grid of the campaign: a full cross product
/// `graphs × faults × algorithms` whose every point is valid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Grid label (the `[grid-…]` table name; `grid` for the
    /// root-level axes). Only used in error messages — cell keys stay
    /// grid-independent.
    pub label: String,
    /// Scenario axis (compact [`Scenario::from_spec`] strings).
    pub graphs: Vec<String>,
    /// Fault-model axis (explicit `faults` entries plus expanded
    /// `fault-sweep` ranges).
    pub faults: Vec<FaultSpec>,
    /// Algorithm axis.
    pub algorithms: Vec<Algo>,
    /// This grid's `[params]` overrides (empty for the root grid).
    pub overrides: GridOverrides,
}

/// A declarative campaign: the grids plus execution defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (artifact prefix).
    pub name: String,
    /// Master seed; every cell derives its own deterministic seed.
    pub seed: u64,
    /// Replicates per grid point.
    pub replicates: usize,
    /// Artifact directory (journal, CSV/JSON outputs).
    pub output: PathBuf,
    /// The grids (≥ 1), expanded side by side into one cell list.
    pub grids: Vec<GridSpec>,
    /// Shared tunables.
    pub params: Params,
}

impl CampaignSpec {
    /// Parses and validates a spec document.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let doc = TomlDoc::parse(text)?;
        Self::from_doc(&doc)
    }

    /// Reads and parses a spec file.
    pub fn load(path: &std::path::Path) -> Result<CampaignSpec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn from_doc(doc: &TomlDoc) -> Result<CampaignSpec, String> {
        let name = doc
            .get("name")
            .and_then(TomlValue::as_str)
            .ok_or("missing `name = \"…\"`")?
            .to_string();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "campaign name {name:?} must be non-empty [a-zA-Z0-9_-]"
            ));
        }
        let seed = match doc.get("seed") {
            None => 42,
            Some(v) => v
                .as_usize()
                .map(|s| s as u64)
                .ok_or("`seed` must be a non-negative integer")?,
        };
        let replicates = match doc.get("replicates") {
            None => 1,
            Some(v) => {
                let r = v
                    .as_usize()
                    .ok_or("`replicates` must be a non-negative integer")?;
                if r == 0 {
                    return Err("`replicates` must be ≥ 1".into());
                }
                r
            }
        };
        let output = match doc.get("output") {
            None => PathBuf::from(format!("results/campaigns/{name}")),
            Some(v) => PathBuf::from(v.as_str().ok_or("`output` must be a string path")?),
        };

        // grids: the root-level axes (if any) first, then every
        // [grid-…] table in lexicographic table-name order, each
        // validated as a full cross product
        let mut grids = Vec::new();
        if doc.get("graphs").is_some()
            || doc.get("faults").is_some()
            || doc.get("fault-sweep").is_some()
            || doc.get("algorithms").is_some()
        {
            // the root grid: per-grid overrides live in [grid-…]
            // tables only (root cells read [params] directly)
            grids.push(parse_grid("grid", false, |key| doc.get(key))?);
        }
        for (table, entries) in &doc.tables {
            if !is_grid_table(table) {
                continue;
            }
            const KNOWN_GRID: &[&str] = &[
                "graphs",
                "faults",
                "fault-sweep",
                "algorithms",
                "epsilon",
                "samples",
                "timeout_ms",
            ];
            for key in entries.keys() {
                if !KNOWN_GRID.contains(&key.as_str()) {
                    return Err(format!("unknown key `{key}` in [{table}]"));
                }
            }
            grids.push(parse_grid(table, true, |key| doc.get_in(table, key))?);
        }
        if grids.is_empty() {
            return Err(
                "spec declares no grid: add root-level `graphs`/`algorithms` axes or at least \
                 one [grid-…] table"
                    .into(),
            );
        }

        let shared = parse_overrides(|key| doc.get_in("params", key), "params.")?;
        let mut params = Params::default().with_overrides(&shared);
        let pf = |key: &str| -> Result<Option<f64>, String> {
            match doc.get_in("params", key) {
                None => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or(format!("params.{key} must be a number")),
            }
        };
        let pu = |key: &str| -> Result<Option<usize>, String> {
            match doc.get_in("params", key) {
                None => Ok(None),
                Some(v) => v
                    .as_usize()
                    .map(Some)
                    .ok_or(format!("params.{key} must be a non-negative integer")),
            }
        };
        if let Some(k) = pf("k")? {
            if k < 2.0 {
                return Err("params.k must be ≥ 2 (Theorem 2.1)".into());
            }
            params.k = k;
        }
        if let Some(sigma) = pf("sigma")? {
            params.sigma = sigma;
        }
        if let Some(t) = pu("trials")? {
            if t == 0 {
                return Err("params.trials must be ≥ 1".into());
            }
            params.trials = t;
        }
        if let Some(g) = pf("gamma")? {
            if !(g > 0.0 && g < 1.0) {
                return Err("params.gamma must be in (0, 1)".into());
            }
            params.gamma = g;
        }
        if let Some(g) = pu("grid")? {
            if g < 2 {
                return Err("params.grid must be ≥ 2".into());
            }
            params.grid = g;
        }
        if let Some(r) = pu("retries")? {
            params.retries = r;
        }
        if let Some(mode) = doc.get_in("params", "mode") {
            match mode.as_str() {
                Some("site") => params.site_mode = true,
                Some("bond") => params.site_mode = false,
                _ => return Err("params.mode must be \"site\" or \"bond\"".into()),
            }
        }
        if let Some(engine) = doc.get_in("params", "churn_curves") {
            match engine.as_str() {
                Some("dyncon") => params.churn_curves = ChurnCurves::Dyncon,
                Some("oracle") => params.churn_curves = ChurnCurves::Oracle,
                _ => return Err("params.churn_curves must be \"dyncon\" or \"oracle\"".into()),
            }
        }
        if let Some(value) = doc.get_in("params", "store") {
            match value.as_str() {
                Some("off") => params.store = None,
                Some("") => {
                    return Err("params.store must be a directory path or \"off\"".into());
                }
                Some(path) => params.store = Some(std::path::PathBuf::from(path)),
                None => return Err("params.store must be a directory path or \"off\"".into()),
            }
        }
        if let Some(table) = doc.tables.get("params") {
            const KNOWN: &[&str] = &[
                "k",
                "epsilon",
                "sigma",
                "trials",
                "samples",
                "gamma",
                "grid",
                "mode",
                "timeout_ms",
                "retries",
                "churn_curves",
                "store",
            ];
            for key in table.keys() {
                if !KNOWN.contains(&key.as_str()) {
                    return Err(format!("unknown params key `{key}`"));
                }
            }
        }
        const KNOWN_ROOT: &[&str] = &[
            "name",
            "seed",
            "replicates",
            "output",
            "graphs",
            "faults",
            "fault-sweep",
            "algorithms",
        ];
        for key in doc.root.keys() {
            if !KNOWN_ROOT.contains(&key.as_str()) {
                return Err(format!("unknown key `{key}`"));
            }
        }
        for table in doc.tables.keys() {
            if table != "params" && !is_grid_table(table) {
                return Err(format!("unknown table `[{table}]`"));
            }
        }

        Ok(CampaignSpec {
            name,
            seed,
            replicates,
            output,
            grids,
            params,
        })
    }
}

/// True for `[grid]` and `[grid-…]` table names.
fn is_grid_table(name: &str) -> bool {
    name == "grid" || name.starts_with("grid-")
}

/// Parses and validates the `[params]` keys a `[grid-…]` table may
/// override (`epsilon`, `samples`, `timeout_ms`), read through `get`
/// from either table. `at` prefixes each key in error messages
/// (`params.`, `[grid-a] `).
fn parse_overrides<'a>(
    get: impl Fn(&str) -> Option<&'a TomlValue>,
    at: &str,
) -> Result<GridOverrides, String> {
    let integer = |key: &str| {
        get(key)
            .map(|v| {
                v.as_usize()
                    .ok_or(format!("{at}{key} must be a non-negative integer"))
            })
            .transpose()
    };
    let mut overrides = GridOverrides::default();
    if let Some(v) = get("epsilon") {
        let eps = v.as_f64().ok_or(format!("{at}epsilon must be a number"))?;
        if !(0.0..=1.0).contains(&eps) {
            return Err(format!("{at}epsilon must be in [0, 1]"));
        }
        overrides.epsilon = Some(eps);
    }
    if let Some(s) = integer("samples")? {
        if s == 0 {
            return Err(format!("{at}samples must be ≥ 1"));
        }
        overrides.samples = Some(s);
    }
    if let Some(t) = integer("timeout_ms")? {
        if t == 0 {
            return Err(format!(
                "{at}timeout_ms must be ≥ 1 (omit it for no timeout)"
            ));
        }
        overrides.timeout_ms = Some(t as u64);
    }
    Ok(overrides)
}

/// Parses and validates one grid's axes through `get` (root lookup or
/// a `[grid-…]` table lookup). `allow_overrides` is true for
/// `[grid-…]` tables, whose entries may override a subset of
/// `[params]` for their own cells.
fn parse_grid<'a>(
    label: &str,
    allow_overrides: bool,
    get: impl Fn(&str) -> Option<&'a TomlValue>,
) -> Result<GridSpec, String> {
    let string_list = |key: &str| -> Result<Vec<String>, String> {
        let Some(v) = get(key) else {
            return Ok(Vec::new());
        };
        let items = v
            .as_array()
            .ok_or(format!("[{label}] `{key}` must be an array"))?;
        items
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_string)
                    .ok_or(format!("[{label}] `{key}` entries must be strings"))
            })
            .collect()
    };

    let graphs = string_list("graphs")?;
    if graphs.is_empty() {
        return Err(format!(
            "[{label}] `graphs` must list at least one scenario spec"
        ));
    }
    let scenarios: Vec<Scenario> = graphs
        .iter()
        .map(|g| Scenario::from_spec(g).map_err(|e| format!("[{label}] graphs entry {g:?}: {e}")))
        .collect::<Result<_, _>>()?;

    let fault_strings = string_list("faults")?;
    let mut faults: Vec<FaultSpec> = fault_strings
        .iter()
        .map(|s| FaultSpec::parse(s).map_err(|e| format!("[{label}] faults entry: {e}")))
        .collect::<Result<_, _>>()?;
    // provenance of each fault axis entry: explicit entries stand on
    // their own; sweep-expanded points remember the sweep string, so a
    // grid-point rejection can point at the spec line the user wrote
    // (an expanded point like `random:0.2` appears nowhere in the
    // file — churn grids hit this with every swept severity)
    let mut origin: Vec<Option<String>> = vec![None; faults.len()];
    // the severity axis: each fault-sweep entry expands its
    // `lo..hi/steps` range into one fault model per step
    for sweep in string_list("fault-sweep")? {
        let expanded =
            expand_sweep(&sweep).map_err(|e| format!("[{label}] fault-sweep entry: {e}"))?;
        origin.extend(std::iter::repeat_n(Some(sweep.clone()), expanded.len()));
        faults.extend(expanded);
    }
    if faults.is_empty() {
        faults.push(FaultSpec::None);
        origin.push(None);
    }

    let overrides = if allow_overrides {
        parse_overrides(&get, &format!("[{label}] "))?
    } else {
        GridOverrides::default()
    };

    let algo_strings = string_list("algorithms")?;
    if algo_strings.is_empty() {
        return Err(format!(
            "[{label}] `algorithms` must list at least one algorithm"
        ));
    }
    let algorithms: Vec<Algo> = algo_strings
        .iter()
        .map(|s| Algo::parse(s))
        .collect::<Result<_, _>>()?;
    // an override no cell of the grid reads would change nothing
    for (set, key) in [
        (overrides.epsilon.is_some(), "epsilon"),
        (overrides.samples.is_some(), "samples"),
    ] {
        if set && !algorithms.iter().any(|a| a.reads().contains(&key)) {
            return Err(format!(
                "[{label}] {key} is read by none of this grid's algorithms"
            ));
        }
    }

    // the whole grid must be well-formed before anything runs
    for scenario in &scenarios {
        for algo in &algorithms {
            for (fault, from) in faults.iter().zip(&origin) {
                algo.accepts(fault, scenario).map_err(|e| {
                    let provenance = match from {
                        Some(sweep) => format!(" (expanded from fault-sweep {sweep:?})"),
                        None => String::new(),
                    };
                    format!(
                        "[{label}] invalid grid point ({scenario} × {fault} × \
                         {algo}){provenance}: {e}"
                    )
                })?;
            }
        }
    }

    Ok(GridSpec {
        label: label.to_string(),
        graphs,
        faults,
        algorithms,
        overrides,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::Family;

    const SPEC: &str = r#"
name = "demo"
seed = 7
replicates = 3
graphs = ["torus:8,8", "hypercube:4"]
faults = ["none", "random:0.05", "adversarial:4"]
algorithms = ["prune", "expansion-cert"]

[params]
k = 2.0
trials = 2
"#;

    #[test]
    fn parses_and_validates() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.replicates, 3);
        assert_eq!(spec.grids.len(), 1);
        assert_eq!(spec.grids[0].graphs.len(), 2);
        assert_eq!(spec.grids[0].faults.len(), 3);
        assert_eq!(
            spec.grids[0].algorithms,
            vec![Algo::Prune, Algo::ExpansionCert]
        );
        assert_eq!(spec.params.trials, 2);
        assert_eq!(spec.output, PathBuf::from("results/campaigns/demo"));
    }

    #[test]
    fn defaults_are_filled() {
        let spec =
            CampaignSpec::parse("name = \"d\"\ngraphs = [\"cycle:10\"]\nalgorithms = [\"span\"]")
                .unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.replicates, 1);
        assert_eq!(spec.grids[0].faults, vec![FaultSpec::None]);
        assert_eq!(spec.params, Params::default());
    }

    #[test]
    fn parses_derived_scenarios_in_graph_axis() {
        let spec = CampaignSpec::parse(
            r#"
name = "derived"
graphs = ["subdivided:20,4,2", "overlay:2,48,churn=60"]
faults = ["random:0.1"]
algorithms = ["expansion-cert"]
"#,
        )
        .unwrap();
        assert_eq!(spec.grids[0].graphs.len(), 2);
    }

    #[test]
    fn parses_multiple_grid_tables() {
        let spec = CampaignSpec::parse(
            r#"
name = "multi"
replicates = 2

[grid-subdivided]
graphs = ["subdivided:20,4,2"]
faults = ["chain-centers"]
algorithms = ["shatter"]

[grid-overlay]
graphs = ["overlay:2,32,churn=40"]
faults = ["random:0.1"]
algorithms = ["expansion-cert"]
"#,
        )
        .unwrap();
        assert_eq!(spec.grids.len(), 2);
        // grid tables expand in lexicographic table-name order
        assert_eq!(spec.grids[0].label, "grid-overlay");
        assert_eq!(spec.grids[0].algorithms, vec![Algo::ExpansionCert]);
        assert_eq!(
            spec.grids[1].faults,
            vec![FaultSpec::ChainCenters { budget: None }]
        );
    }

    #[test]
    fn grid_tables_and_root_axes_compose() {
        let spec = CampaignSpec::parse(
            r#"
name = "both"
graphs = ["torus:6,6"]
algorithms = ["span"]

[grid-extra]
graphs = ["mesh:3,4"]
algorithms = ["span"]
"#,
        )
        .unwrap();
        assert_eq!(spec.grids.len(), 2);
        assert_eq!(spec.grids[0].label, "grid");
        assert_eq!(spec.grids[1].label, "grid-extra");
    }

    #[test]
    fn rejects_invalid_grid_points() {
        let bad = "name = \"d\"\ngraphs = [\"cycle:10\"]\nfaults = [\"adversarial:2\"]\n\
                   algorithms = [\"prune2\"]";
        let err = CampaignSpec::parse(bad).unwrap_err();
        assert!(err.contains("prune2"), "{err}");

        let bad = "name = \"d\"\ngraphs = [\"cycle:10\"]\nfaults = [\"random:0.1\"]\n\
                   algorithms = [\"span\"]";
        assert!(CampaignSpec::parse(bad).is_err());

        // chain-centers on a non-subdivided scenario
        let bad = "name = \"d\"\ngraphs = [\"torus:6,6\"]\nfaults = [\"chain-centers\"]\n\
                   algorithms = [\"prune\"]";
        let err = CampaignSpec::parse(bad).unwrap_err();
        assert!(err.contains("subdivided"), "{err}");

        // fault-free shatter / embed are meaningless
        for algo in ["shatter", "embed"] {
            let bad = format!("name = \"d\"\ngraphs = [\"torus:6,6\"]\nalgorithms = [\"{algo}\"]");
            assert!(CampaignSpec::parse(&bad).is_err(), "{algo} × none");
        }
    }

    /// Every algorithm's accept/reject matrix over every registry
    /// fault kind and every scenario kind, exhaustively.
    #[test]
    fn accepts_matrix_is_exhaustive() {
        let faults = [
            FaultSpec::None,
            FaultSpec::Random { p: 0.1 },
            FaultSpec::RandomExact { f: 3 },
            FaultSpec::SparseCut { budget: 3 },
            FaultSpec::Degree { budget: 3 },
            FaultSpec::ChainCenters { budget: None },
            FaultSpec::Targeted {
                frac: 0.1,
                by: TargetBy::Degree,
            },
            FaultSpec::Targeted {
                frac: 0.1,
                by: TargetBy::Core,
            },
            FaultSpec::Clustered {
                f: 3,
                r: 2,
                centers: CenterBias::Uniform,
            },
            FaultSpec::HeavyTailed { p: 0.1, alpha: 1.5 },
            FaultSpec::Targeted {
                frac: 0.1,
                by: TargetBy::DegreeAdaptive,
            },
            FaultSpec::Clustered {
                f: 3,
                r: 2,
                centers: CenterBias::Degree,
            },
            FaultSpec::Clustered {
                f: 3,
                r: 2,
                centers: CenterBias::Core,
            },
        ];
        const CHAIN_CENTERS: usize = 5; // index into `faults`
        let plain = Scenario::Plain(Family::Torus { dims: vec![6, 6] });
        let subdivided = Scenario::Subdivided { n: 20, d: 4, k: 2 };
        let overlay = Scenario::Overlay {
            dim: 2,
            peers: 32,
            churn: 0,
            sessions: None,
            depart_degree: false,
        };
        let smallworld = Scenario::SmallWorld {
            n: 64,
            k: 4,
            p: 0.1,
        };
        let algos = [
            Algo::Prune,
            Algo::Prune2,
            Algo::Percolation,
            Algo::Span,
            Algo::ExpansionCert,
            Algo::Shatter,
            Algo::Dissect,
            Algo::Diameter,
            Algo::CompactAudit,
            Algo::Routing,
            Algo::LoadBalance,
            Algo::Embed,
            Algo::SubgraphCount,
        ];
        // fault-kind acceptance per algo on a *subdivided* scenario
        // (where every fault kind is scenario-admissible): indices
        // into `faults` above
        let ok_on_subdivided = |algo: Algo, fi: usize| -> bool {
            match algo {
                Algo::Prune | Algo::ExpansionCert => true,
                Algo::Diameter | Algo::Routing | Algo::LoadBalance => true,
                Algo::Prune2 => fi == 1,
                // none, random, targeted (all three orders),
                // clustered (both center models), heavy-tailed —
                // everything that reads as dilution
                Algo::Percolation => fi <= 1 || fi >= 6,
                Algo::Span | Algo::Dissect | Algo::CompactAudit | Algo::SubgraphCount => fi == 0,
                Algo::Shatter | Algo::Embed => fi != 0,
            }
        };
        for algo in algos {
            for (fi, fault) in faults.iter().enumerate() {
                // on plain, overlay, and smallworld scenarios,
                // chain-centers is always rejected; everything else
                // matches the table
                for scenario in [&plain, &overlay, &smallworld] {
                    let expect = ok_on_subdivided(algo, fi) && fi != CHAIN_CENTERS;
                    assert_eq!(
                        algo.accepts(fault, scenario).is_ok(),
                        expect,
                        "{algo} × {fault} × {scenario}"
                    );
                }
                assert_eq!(
                    algo.accepts(fault, &subdivided).is_ok(),
                    ok_on_subdivided(algo, fi),
                    "{algo} × {fault} × subdivided"
                );
            }
        }
    }

    #[test]
    fn rejects_bad_graphs_and_unknown_keys() {
        assert!(CampaignSpec::parse(
            "name = \"d\"\ngraphs = [\"klein:3\"]\nalgorithms = [\"span\"]"
        )
        .is_err());
        assert!(CampaignSpec::parse(
            "name = \"d\"\ngraphs = [\"cycle:10\"]\nalgorithms = [\"span\"]\nbogus = 1"
        )
        .is_err());
        assert!(CampaignSpec::parse(
            "name = \"d\"\ngraphs = [\"cycle:10\"]\nalgorithms = [\"span\"]\n[params]\nzz = 1"
        )
        .is_err());
        // out-of-range [params] values, and keys the grammar no longer
        // has, are parse errors that name the key
        for (bad, key) in [
            ("gamma = 1.5", "gamma"),
            ("gamma = 0", "gamma"),
            ("samples = 0", "samples"),
            ("trials = 0", "params.trials must be ≥ 1"),
            ("grid = 0", "params.grid must be ≥ 2"),
            ("grid = 1", "params.grid must be ≥ 2"),
            ("trial_batch = 8", "trial_batch"),
        ] {
            let err = CampaignSpec::parse(&format!(
                "name = \"d\"\ngraphs = [\"cycle:10\"]\nalgorithms = [\"span\"]\n[params]\n{bad}"
            ))
            .unwrap_err();
            assert!(err.contains(key), "{bad} → {err}");
        }
        // malformed derived-scenario strings are rejected at parse
        for bad in ["subdivided:20,4", "subdivided:20,4,0", "overlay:0,64"] {
            let text =
                format!("name = \"d\"\ngraphs = [\"{bad}\"]\nalgorithms = [\"expansion-cert\"]");
            assert!(CampaignSpec::parse(&text).is_err(), "{bad}");
        }
        // unknown key inside a grid table
        assert!(CampaignSpec::parse(
            "name = \"d\"\n[grid-a]\ngraphs = [\"cycle:10\"]\nalgorithms = [\"span\"]\nzz = 1"
        )
        .is_err());
        // a spec with no grid at all
        assert!(CampaignSpec::parse("name = \"d\"").is_err());
        // unknown table
        assert!(CampaignSpec::parse(
            "name = \"d\"\ngraphs = [\"cycle:10\"]\nalgorithms = [\"span\"]\n[zebra]\na = 1"
        )
        .is_err());
        // an override that no algorithm of its grid reads
        for (algo, key) in [
            ("expansion-cert", "samples = 7"),
            ("prune", "epsilon = 0.3"),
        ] {
            let err = CampaignSpec::parse(&format!(
                "name = \"d\"\n[grid-a]\ngraphs = [\"cycle:10\"]\nalgorithms = [\"{algo}\"]\n{key}"
            ))
            .unwrap_err();
            let key = &key[..key.find(' ').unwrap()];
            assert_eq!(
                err,
                format!("[grid-a] {key} is read by none of this grid's algorithms")
            );
        }
    }

    /// Names round-trip through the registry, and an unknown name
    /// lists every known one.
    #[test]
    fn algorithm_names_round_trip_and_unknown_names_list_them() {
        for (i, row) in ALGORITHMS.iter().enumerate() {
            assert_eq!(
                row.algo as usize, i,
                "{}: rows follow declaration order",
                row.name
            );
            assert_eq!(Algo::parse(row.name), Ok(row.algo));
            assert_eq!(row.algo.to_string(), row.name);
        }
        assert_eq!(
            Algo::parse("pruned").unwrap_err(),
            "unknown algorithm \"pruned\" (try prune | prune2 | percolation | span | \
             expansion-cert | shatter | dissect | diameter | compact-audit | routing | \
             load-balance | embed | subgraph-count)"
        );
    }

    /// Every fault-rule rejection, word for word.
    #[test]
    fn fault_rule_messages_are_pinned() {
        let torus = Scenario::Plain(Family::Torus { dims: vec![6, 6] });
        let reject = |algo: &str, fault: &str| {
            let fault = FaultSpec::parse(fault).unwrap();
            Algo::parse(algo)
                .unwrap()
                .accepts(&fault, &torus)
                .unwrap_err()
        };
        for (algo, fault, message) in [
            (
                "prune2",
                "random-exact:3",
                "prune2 implements the random-fault theorem (3.4); fault model `random-exact:3` \
                 is not i.i.d. random — use `random:p`",
            ),
            (
                "percolation",
                "adversarial:3",
                "percolation measures dilution; fault model `adversarial:3` is a budgeted \
                 adversary — use none, random:p, heavy-tailed:p,alpha, clustered:f,r, or \
                 targeted:frac",
            ),
            (
                "span",
                "random:0.1",
                "span is a property of the fault-free graph; drop fault model `random:0.1`",
            ),
            (
                "dissect",
                "random:0.1",
                "dissect (Theorem 2.5) removes its own separator nodes; drop fault model \
                 `random:0.1`",
            ),
            (
                "subgraph-count",
                "random:0.1",
                "subgraph-count (Claim 3.2) counts subgraphs of the fault-free graph; drop fault \
                 model `random:0.1`",
            ),
            (
                "compact-audit",
                "random:0.1",
                "compact-audit (Lemma 3.3) samples the fault-free graph; drop fault model \
                 `random:0.1`",
            ),
            (
                "shatter",
                "none",
                "shatter measures post-fault fragmentation; add a fault model (e.g. \
                 chain-centers on a subdivided scenario)",
            ),
            (
                "embed",
                "none",
                "embed measures the faulty self-embedding; the fault-free embedding is the \
                 identity — add a fault model",
            ),
            (
                "prune",
                "chain-centers",
                "chain-centers is the Theorem 2.3 adversary for subdivided expanders; scenario \
                 `torus:6,6` has no chains — use subdivided:n,d,k",
            ),
        ] {
            assert_eq!(reject(algo, fault), message, "{algo} × {fault}");
        }
    }

    #[test]
    fn churn_curves_parses_and_validates() {
        assert_eq!(
            Params::default().churn_curves,
            ChurnCurves::Dyncon,
            "offline engine by default"
        );
        for (value, expect) in [
            ("dyncon", ChurnCurves::Dyncon),
            ("oracle", ChurnCurves::Oracle),
        ] {
            let spec = CampaignSpec::parse(&format!(
                "name = \"c\"\ngraphs = [\"overlay:2,32,churn=40\"]\n\
                 algorithms = [\"expansion-cert\"]\n[params]\nchurn_curves = \"{value}\""
            ))
            .unwrap();
            assert_eq!(spec.params.churn_curves, expect, "{value}");
        }
        for bad in ["incremental", "off"] {
            let err = CampaignSpec::parse(&format!(
                "name = \"c\"\ngraphs = [\"cycle:10\"]\nalgorithms = [\"span\"]\n\
                 [params]\nchurn_curves = \"{bad}\""
            ))
            .unwrap_err();
            assert!(err.contains("churn_curves"), "{bad} → {err}");
        }
    }

    #[test]
    fn smallworld_scenarios_parse_in_the_graph_axis() {
        let spec = CampaignSpec::parse(
            "name = \"sw\"\ngraphs = [\"smallworld:256,6,0.1\"]\nfaults = [\"random:0.1\"]\n\
             algorithms = [\"expansion-cert\", \"percolation\"]",
        )
        .unwrap();
        assert_eq!(spec.grids[0].graphs, vec!["smallworld:256,6,0.1"]);
        // chain-centers has no chains to aim at on a rewired lattice
        let err = CampaignSpec::parse(
            "name = \"sw\"\ngraphs = [\"smallworld:256,6,0.1\"]\nfaults = [\"chain-centers\"]\n\
             algorithms = [\"shatter\"]",
        )
        .unwrap_err();
        assert!(err.contains("subdivided"), "{err}");
    }

    #[test]
    fn timeout_ms_parses_and_validates() {
        let spec = CampaignSpec::parse(
            "name = \"t\"\ngraphs = [\"cycle:10\"]\nalgorithms = [\"span\"]\n[params]\ntimeout_ms = 250",
        )
        .unwrap();
        assert_eq!(spec.params.timeout_ms, Some(250));
        assert_eq!(
            CampaignSpec::parse("name = \"t\"\ngraphs = [\"cycle:10\"]\nalgorithms = [\"span\"]")
                .unwrap()
                .params
                .timeout_ms,
            None
        );
        assert!(CampaignSpec::parse(
            "name = \"t\"\ngraphs = [\"cycle:10\"]\nalgorithms = [\"span\"]\n[params]\ntimeout_ms = 0",
        )
        .is_err());
    }

    /// The fault grammar itself is owned (and exhaustively tested) by
    /// `fx_faults::spec`; here we only check the delegation seam — a
    /// registry model unknown to the old campaign grammar parses
    /// through the spec layer end to end.
    #[test]
    fn fault_axis_delegates_to_the_registry() {
        let spec = CampaignSpec::parse(
            r#"
name = "registry"
graphs = ["torus:8,8"]
faults = ["targeted:0.2,by=core", "targeted:0.2,by=degree-adaptive", "clustered:3,1", "clustered:3,1,centers=degree", "heavy-tailed:0.1,1.5"]
algorithms = ["shatter"]
"#,
        )
        .unwrap();
        assert_eq!(
            spec.grids[0].faults,
            vec![
                FaultSpec::Targeted {
                    frac: 0.2,
                    by: TargetBy::Core
                },
                FaultSpec::Targeted {
                    frac: 0.2,
                    by: TargetBy::DegreeAdaptive
                },
                FaultSpec::Clustered {
                    f: 3,
                    r: 1,
                    centers: CenterBias::Uniform
                },
                FaultSpec::Clustered {
                    f: 3,
                    r: 1,
                    centers: CenterBias::Degree
                },
                FaultSpec::HeavyTailed { p: 0.1, alpha: 1.5 },
            ]
        );
        let err = CampaignSpec::parse(
            "name = \"d\"\ngraphs = [\"cycle:10\"]\nfaults = [\"gamma-ray\"]\n\
             algorithms = [\"prune\"]",
        )
        .unwrap_err();
        assert!(err.contains("unknown fault model"), "{err}");
        assert!(
            err.contains("heavy-tailed:p,alpha"),
            "registry grammar: {err}"
        );
    }

    #[test]
    fn fault_sweep_expands_into_the_axis() {
        let spec = CampaignSpec::parse(
            r#"
name = "sweep"
[grid-sweep]
graphs = ["torus:8,8"]
faults = ["none"]
fault-sweep = ["targeted:0.1..0.3/3", "random:0.05..0.1/2"]
algorithms = ["expansion-cert"]
"#,
        )
        .unwrap();
        let faults: Vec<String> = spec.grids[0].faults.iter().map(|f| f.to_string()).collect();
        assert_eq!(
            faults,
            vec![
                "none",
                "targeted:0.1",
                "targeted:0.2",
                "targeted:0.3",
                "random:0.05",
                "random:0.1"
            ]
        );
        // sweep points are grid points: invalid ones reject at parse,
        // naming BOTH the declaring grid table and the sweep string
        // the user actually wrote (the expanded point `random:0.1`
        // appears nowhere in the spec — churn grids hit this with
        // every swept severity)
        let err = CampaignSpec::parse(
            "name = \"d\"\n[grid-churn]\ngraphs = [\"overlay:2,32,churn=40\"]\n\
             fault-sweep = [\"random:0.1..0.3/3\"]\nalgorithms = [\"span\"]",
        )
        .unwrap_err();
        assert!(err.contains("[grid-churn]"), "grid table named: {err}");
        assert!(
            err.contains("expanded from fault-sweep \"random:0.1..0.3/3\""),
            "sweep provenance: {err}"
        );
        assert!(err.contains("span"), "{err}");
        // explicit (non-swept) fault entries carry no sweep provenance
        let err = CampaignSpec::parse(
            "name = \"d\"\ngraphs = [\"cycle:10\"]\nfaults = [\"random:0.1\"]\n\
             algorithms = [\"span\"]",
        )
        .unwrap_err();
        assert!(!err.contains("expanded from"), "{err}");
        // malformed sweeps reject with the grid label
        let err = CampaignSpec::parse(
            "name = \"d\"\n[grid-a]\ngraphs = [\"cycle:10\"]\nfault-sweep = [\"random:0.1\"]\n\
             algorithms = [\"prune\"]",
        )
        .unwrap_err();
        assert!(err.contains("[grid-a]") && err.contains("lo..hi"), "{err}");
    }

    #[test]
    fn per_grid_overrides_parse_and_apply() {
        let spec = CampaignSpec::parse(
            r#"
name = "overrides"
[grid-default]
graphs = ["torus:6,6"]
algorithms = ["span"]
[grid-tuned]
graphs = ["mesh:3,4"]
algorithms = ["span", "dissect"]
samples = 32
timeout_ms = 1500
epsilon = 0.25
[params]
samples = 200
"#,
        )
        .unwrap();
        let by_label = |l: &str| spec.grids.iter().find(|g| g.label == l).unwrap();
        assert_eq!(by_label("grid-default").overrides, GridOverrides::default());
        let tuned = by_label("grid-tuned");
        assert_eq!(tuned.overrides.samples, Some(32));
        assert_eq!(tuned.overrides.timeout_ms, Some(1500));
        assert_eq!(tuned.overrides.epsilon, Some(0.25));
        // effective params merge overrides over [params]
        let eff = spec.params.with_overrides(&tuned.overrides);
        assert_eq!(eff.samples, 32);
        assert_eq!(eff.timeout_ms, Some(1500));
        assert_eq!(eff.epsilon, Some(0.25));
        assert_eq!(eff.k, spec.params.k, "untouched params pass through");
        let eff_default = spec
            .params
            .with_overrides(&by_label("grid-default").overrides);
        assert_eq!(eff_default, spec.params);

        // bad override values are parse errors under one rule in both
        // tables, each naming its table and key
        let axes = "graphs = [\"cycle:10\"]\nalgorithms = [\"span\"]";
        for (bad, key, rule) in [
            ("epsilon = 1.5", "epsilon", "must be in [0, 1]"),
            ("epsilon = \"x\"", "epsilon", "must be a number"),
            ("samples = 0", "samples", "must be ≥ 1"),
            (
                "samples = \"many\"",
                "samples",
                "must be a non-negative integer",
            ),
            (
                "timeout_ms = 0",
                "timeout_ms",
                "must be ≥ 1 (omit it for no timeout)",
            ),
            (
                "timeout_ms = 2.5",
                "timeout_ms",
                "must be a non-negative integer",
            ),
        ] {
            let grid = CampaignSpec::parse(&format!("name = \"d\"\n[grid-a]\n{axes}\n{bad}"));
            assert_eq!(grid.unwrap_err(), format!("[grid-a] {key} {rule}"));
            let params = CampaignSpec::parse(&format!("name = \"d\"\n{axes}\n[params]\n{bad}"));
            assert_eq!(params.unwrap_err(), format!("params.{key} {rule}"));
        }
        // overrides are grid-table-only: at the root they are unknown
        assert!(CampaignSpec::parse(
            "name = \"d\"\ngraphs = [\"cycle:10\"]\nalgorithms = [\"span\"]\nsamples = 5"
        )
        .is_err());
    }
}
