//! # fx-campaign — declarative, parallel, resumable experiment
//! campaigns
//!
//! Every claim in *"The Effect of Faults on Network Expansion"*
//! (Bagchi et al., SPAA 2004) is a statement over a **grid** of
//! scenarios: graph family × size × fault model × fault rate ×
//! algorithm. This crate turns that grid into a first-class object:
//!
//! 1. **Declare** the grid(s) in a small TOML-subset spec
//!    ([`CampaignSpec`]) — scenario specs (plain families like
//!    `torus:16,16` / `hypercube:10`, plus the *derived* sources
//!    `subdivided:n,d,k` and
//!    `overlay:dim,n[,churn=ops][,sessions=pareto:alpha][,depart=degree]`
//!    the paper's lower-bound and §4 results live on) × fault models
//!    (any entry of the `fx_faults::spec` registry: `random:p`,
//!    `adversarial:k`, `chain-centers`, `targeted:frac[,by=core]`,
//!    `clustered:f,r`, `heavy-tailed:p,alpha`, … — plus `fault-sweep`
//!    ranges like `targeted:0.05..0.25/5` that expand into a severity
//!    axis) × algorithms (`prune`, `prune2`, `percolation`, `span`,
//!    `expansion-cert`, `shatter`, `dissect`, `diameter`,
//!    `compact-audit`, `routing`, `load-balance`, `embed`,
//!    `subgraph-count`) ×
//!    replicates. Experiments whose sub-grids are not one cross
//!    product declare several `[grid-…]` tables, each of which may
//!    override `epsilon`/`samples`/`timeout_ms` for its own cells.
//! 2. **Expand** it into [`Cell`]s with deterministic per-cell seeds
//!    derived from the cell *identity* (editing a spec never
//!    reshuffles seeds of untouched cells).
//! 3. **Execute** cells in parallel
//!    ([`par_map`](fx_graph::par::par_map)), journaling each completed
//!    cell to a JSONL checkpoint under its store key as it finishes —
//!    a killed run loses at most the in-flight cells, and `resume`
//!    skips every cell already paid for with the same seed and params.
//! 4. **Aggregate** with online Welford mean/variance + 95% CIs in a
//!    schedule-independent order, so interrupted-and-resumed runs
//!    produce bit-identical statistics.
//! 5. **Emit** artifacts (`aggregates.csv`, `aggregates.json`, the
//!    printed table).
//!
//! The `fxnet campaign run|resume|report` subcommands wrap this crate;
//! `specs/` in the repository root ships campaign ports of the former
//! stand-alone experiment binaries.
//!
//! ## Example
//!
//! ```ignore
//! use fx_campaign::{run, CampaignSpec, RunOptions};
//!
//! let spec = CampaignSpec::parse(r#"
//! name = "quick"
//! replicates = 4
//! graphs = ["torus:8,8", "hypercube:6"]
//! faults = ["random:0.05"]
//! algorithms = ["prune"]
//! "#)?;
//! let summary = run(&spec, &RunOptions::default())?;
//! assert!(summary.complete);
//! # Ok::<(), String>(())
//! ```
//!
//! ## Spec reference
//!
//! | key | meaning | default |
//! |---|---|---|
//! | `name` | campaign id (artifact prefix) | required |
//! | `graphs` | list of scenario specs | required¹ |
//! | `algorithms` | list of algorithms | required¹ |
//! | `faults` | list of fault models (fx-faults registry grammar) | `["none"]` |
//! | `fault-sweep` | templated fault specs, `lo..hi/steps` ranges expanded into the axis | — |
//! | `[grid-…]` | extra `graphs`/`faults`/`fault-sweep`/`algorithms` grids; may override `epsilon`/`samples`/`timeout_ms` per grid | — |
//! | `replicates` | replicates per grid point | 1 |
//! | `seed` | master seed | 42 |
//! | `output` | artifact directory | `results/campaigns/<name>` |
//! | `[params] k` | Theorem 2.1 `k` | 2.0 |
//! | `[params] epsilon` | `Prune2` ε | `1/(2δ)` per network |
//! | `[params] sigma` | assumed span σ | 2.0 |
//! | `[params] trials` | in-cell Monte-Carlo trials | 1 |
//! | `[params] samples` | sampled-span samples (≥ 1) | 200 |
//! | `[params] gamma` | `p*` γ threshold, in (0, 1) | 0.1 |
//! | `[params] grid` | `p*` search resolution | 50 |
//! | `[params] mode` | percolation `site`/`bond` | `site` |
//! | `[params] timeout_ms` | per-cell wall-clock budget (cells past it are cancelled cooperatively and journaled `timed_out`) | unbounded |
//! | `[params] retries` | per-cell retry budget: a panicking cell is re-attempted this many times before being quarantined | 2 |
//! | `[params] churn_curves` | survival-curve engine for churn traces: `dyncon` (offline segment-tree + rollback-union-find solve), `oracle` (per-snapshot re-sweeps, bit-identical metrics) | `dyncon` |
//! | `[params] store` | content-addressed cell-result store directory (`fx-store`): successful cells are published and later runs with overlapping grids are served from it (journaled `cache_hit = 1`, bit-identical aggregates); `off` disables | `off` |
//!
//! ¹ root-level axes may be omitted when at least one `[grid-…]`
//! table declares a grid.
//!
//! ## Fault tolerance
//!
//! Campaigns are **chaos-hardened**: a cell that panics is caught
//! ([`run_cell_resilient`]), retried up to `[params] retries` times
//! with deterministic bounded backoff, then *quarantined* — journaled
//! with `failed=1` and the panic message, excluded from aggregates by
//! the failed-cell rule ([`aggregate`]), and re-attempted on the next
//! `resume` with its retry clock advanced past every attempt already
//! paid for. The run itself always completes; `--strict` turns
//! residual failures into a non-zero exit.
//!
//! Journal records carry their cell's store key and an FNV-1a
//! checksum (`{"crc":"…","key":"…","cell":{…}}`, see
//! `fx_store::log`); on resume a torn final record is dropped, corrupt
//! records are skipped and counted, their cells re-execute like unseen
//! ones, and the run rewrites the journal without them. A record
//! without a key (written before journal lines were keyed) is skipped
//! without counting, and its cell re-runs. `fxnet campaign report
//! --health` surfaces the failed/retried/corrupt tallies. Fault *injection* for testing all
//! of this is driven by the `FXNET_CHAOS` environment variable (see
//! `fx_chaos`); with it unset the injection sites cost one relaxed
//! atomic load each.
//!
//! ## Distributed execution
//!
//! Cell keys are machine-independent, so a campaign shards by
//! identity: `fxnet campaign run --spec S --shard i/m --out DIR_i` on
//! `m` machines covers the grid exactly once, and
//! `fxnet campaign merge --out journal.jsonl DIR_0/journal.jsonl …`
//! ([`merge_journals`]) recombines the shard journals for a final
//! `report`.

#![warn(missing_docs)]

pub mod agg;
pub mod engine;
pub mod exec;
pub mod grid;
pub mod journal;
pub mod serve;
pub mod spec;
pub mod store_key;
mod table;
pub mod toml;

pub use agg::{aggregate, GroupAggregate, Welford};
pub use engine::{journal_for, report, run, RunOptions, RunSummary};
pub use exec::{cell_params, run_cell, run_cell_cancelable, run_cell_resilient, CellResult};
pub use grid::{cell_seed, expand, shard_of, Cell};
pub use journal::{merge_journals, merge_journals_checked, Journal, LoadReport, MergeSummary};
pub use serve::{cell_body, compute_cell, index_cells, resolve_cell, serve, ServeOptions, Server};
pub use spec::{
    Algo, CampaignSpec, ChurnCurves, FaultSpec, GridOverrides, GridSpec, Params, TargetBy,
};
pub use store_key::{store_identity, store_key};
