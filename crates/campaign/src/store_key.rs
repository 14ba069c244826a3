//! Content addressing for cells: the canonical identity string a
//! cell's store key is hashed from.
//!
//! A cell's metrics are a pure function of `(effective params, cell
//! identity, campaign seed)`, so the store key must cover exactly the
//! inputs of that function — no more (or equivalent spellings stop
//! deduping) and no less (or distinct cells collide):
//!
//! * the **canonical scenario spelling** (`Scenario::from_spec(…)
//!   .to_string()`, the same normalization [`expand`](crate::expand)
//!   dedups grid points with), so `torus:8,8` written two ways in two
//!   spec files is one key;
//! * the fault model and algorithm `Display` forms and the replicate
//!   index — together the cell's seed-deriving identity;
//! * the **cell seed itself**: it already folds in the campaign seed
//!   (`cell_seed(campaign_seed, key)`), so two campaigns with
//!   different master seeds can never share entries;
//! * every *result-affecting* effective parameter (`k`, `epsilon`,
//!   `sigma`, `trials`, `samples`, `gamma`, `grid`, `mode`,
//!   `churn_curves`), with the declaring grid's overrides applied.
//!
//! Deliberately **excluded** are the knobs documented as never
//! changing a bit of output: `timeout_ms` and `retries` (operational —
//! a timed-out or quarantined cell is never published), and `store`
//! itself. Excluding them is what lets a re-run with, say, a different
//! retry budget still hit the cache.

use crate::exec::cell_params;
use crate::grid::Cell;
use crate::spec::CampaignSpec;

/// The results epoch every [`store_identity`] starts with
/// (`fx-store/<epoch>|…`). A declared re-baseline — a change that
/// moves journaled bits, so a line of `specs/golden.sha256` changes —
/// bumps it: every journal record and store entry made by older code
/// then stops matching, and a kept `--out`, a warm `[params] store` or
/// `fxnet serve` recomputes instead of reusing stale results.
pub const RESULTS_EPOCH: u32 = 1;

/// The canonical identity string `store_key` hashes. Versioned by
/// [`RESULTS_EPOCH`], so older results and a future keying change can
/// never silently alias current entries.
pub fn store_identity(spec: &CampaignSpec, cell: &Cell) -> String {
    let canonical = fx_core::Scenario::from_spec(&cell.graph)
        .map(|s| s.to_string())
        .unwrap_or_else(|_| cell.graph.clone());
    let p = cell_params(spec, cell);
    let epsilon = match p.epsilon {
        Some(e) => format!("{e}"),
        None => "auto".to_string(),
    };
    format!(
        "fx-store/{RESULTS_EPOCH}|{canonical}|{fault}|{algo}|r{rep}|seed={seed:016x}|k={k}\
         |eps={epsilon}|sigma={sigma}|trials={trials}|samples={samples}|gamma={gamma}\
         |grid={grid}|mode={mode}|curves={curves}",
        fault = cell.fault,
        algo = cell.algo,
        rep = cell.replicate,
        seed = cell.seed,
        k = p.k,
        sigma = p.sigma,
        trials = p.trials,
        samples = p.samples,
        gamma = p.gamma,
        grid = p.grid,
        mode = if p.site_mode { "site" } else { "bond" },
        curves = p.churn_curves,
    )
}

/// The cell's 64-bit content address: FNV-1a over
/// [`store_identity`].
pub fn store_key(spec: &CampaignSpec, cell: &Cell) -> u64 {
    fx_store::fnv1a(store_identity(spec, cell).as_bytes())
}
