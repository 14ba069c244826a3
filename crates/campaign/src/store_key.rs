//! Content addressing for cells: the canonical identity string a
//! cell's store key is hashed from.
//!
//! A cell's metrics are a pure function of `(effective params, cell
//! identity, campaign seed)`, so the store key must cover exactly the
//! inputs of that function — no more (or equivalent spellings stop
//! deduping) and no less (or distinct cells collide):
//!
//! * the **canonical cell key**: the canonical scenario spelling (the
//!   same normalization [`expand`](crate::expand) dedups grid points
//!   with), then the fault model, algorithm and replicate, so
//!   `torus:8,8` written two ways in two spec files is one key;
//! * the **cell seed itself**: it already folds in the campaign seed
//!   (`cell_seed(campaign_seed, key)`), so two campaigns with
//!   different master seeds can never share entries;
//! * the **declared params**: exactly the `[params]` keys the cell's
//!   algorithm reads (its row of the algorithm registry beside
//!   [`Algo`](crate::Algo)), plus `churn_curves` on an overlay with
//!   `churn > 0`, each with the declaring grid's overrides applied.
//!   A `samples` change therefore re-keys `span` and `compact-audit`
//!   cells and no others.
//!
//! Everything else is excluded: a param the algorithm does not read,
//! and the knobs documented as never changing a bit of output —
//! `timeout_ms` and `retries` (operational: a timed-out or quarantined
//! cell is never published) and `store` itself. Excluding them is what
//! lets a re-run with, say, a different retry budget still hit the
//! cache.

use crate::exec::cell_params;
use crate::grid::Cell;
use crate::spec::CampaignSpec;
use std::fmt::Write;

/// The results epoch every [`store_identity`] starts with
/// (`fx-store/<epoch>|…`). A declared re-baseline — a change that
/// moves journaled bits, so a line of `specs/golden.sha256` changes —
/// bumps it: every journal record and store entry made by older code
/// then stops matching, and a kept `--out`, a warm `[params] store` or
/// `fxnet serve` recomputes instead of reusing stale results.
pub const RESULTS_EPOCH: u32 = 1;

/// The canonical identity string `store_key` hashes:
/// `fx-store/<epoch>|<canonical key>|seed=<hex>` and one
/// `|<param>=<value>` per declared param. Versioned by
/// [`RESULTS_EPOCH`], so older results and a future keying change can
/// never silently alias current entries.
pub fn store_identity(spec: &CampaignSpec, cell: &Cell) -> String {
    let p = cell_params(spec, cell);
    let churned = matches!(
        fx_core::Scenario::from_spec(&cell.graph),
        Ok(fx_core::Scenario::Overlay { churn, .. }) if churn > 0
    );
    let curves = churned.then_some(&"churn_curves");
    let mut id = format!(
        "fx-store/{RESULTS_EPOCH}|{}|seed={:016x}",
        cell.canonical_key(),
        cell.seed
    );
    for &name in cell.algo.reads().iter().chain(curves) {
        let _ = match name {
            "k" => write!(id, "|{name}={}", p.k),
            "epsilon" => match p.epsilon {
                Some(e) => write!(id, "|{name}={e}"),
                None => write!(id, "|{name}=auto"),
            },
            "sigma" => write!(id, "|{name}={}", p.sigma),
            "trials" => write!(id, "|{name}={}", p.trials),
            "samples" => write!(id, "|{name}={}", p.samples),
            "gamma" => write!(id, "|{name}={}", p.gamma),
            "grid" => write!(id, "|{name}={}", p.grid),
            "mode" => write!(id, "|{name}={}", if p.site_mode { "site" } else { "bond" }),
            "churn_curves" => write!(id, "|{name}={}", p.churn_curves),
            _ => unreachable!("`{name}` is not a result-affecting param"),
        };
    }
    id
}

/// The cell's 64-bit content address: FNV-1a over
/// [`store_identity`].
pub fn store_key(spec: &CampaignSpec, cell: &Cell) -> u64 {
    fx_store::fnv1a(store_identity(spec, cell).as_bytes())
}
