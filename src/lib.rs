//! # fault-expansion
//!
//! A Rust reproduction of **"The Effect of Faults on Network
//! Expansion"** (Bagchi, Bhargava, Chaudhary, Eppstein, Scheideler —
//! SPAA 2004): how many node faults can a network sustain and still
//! contain a linear-size subnetwork with (almost) its original
//! expansion?
//!
//! The workspace provides, all built from scratch:
//!
//! * **`graph`** — CSR graphs, bitset masks, and every topology the
//!   paper quantifies over (meshes/tori, hypercubes, butterflies,
//!   de Bruijn, shuffle-exchange, Margulis and random-regular
//!   expanders, chain subdivisions), plus Steiner-tree and parallel
//!   machinery;
//! * **`expansion`** — sparse-cut oracles: exact enumeration, a
//!   from-scratch Lanczos/Fiedler solver, Cheeger sweeps, local
//!   refinement, and two-sided expansion certificates;
//! * **`faults`** — random and adversarial fault models;
//! * **`prune`** — the paper's `Prune` (Thm 2.1) and `Prune2`
//!   (Thm 3.4) algorithms with Lemma 3.3 compactification, the
//!   Theorem 2.5 dissection process, and all closed-form bounds;
//! * **`span`** — the span parameter `σ`, exact and sampled, with the
//!   constructive Theorem 3.6 proof that d-dimensional meshes have
//!   span ≤ 2;
//! * **`percolation`** — Newman–Ziff Monte-Carlo and critical
//!   probability estimation (the §1.1 survey table);
//! * **`core`** — one-call resilience analyses with theorem-annotated
//!   reports;
//! * **`campaign`** — a declarative, parallel, resumable
//!   experiment-campaign engine over grids of scenarios;
//! * **`json`** — the dependency-free JSON layer behind every
//!   serialized artifact (the build environment is offline, so there
//!   is no serde; `vendor/` likewise ships API-compatible stand-ins
//!   for `rand`, `proptest`, and `criterion`).
//!
//! ## Quickstart
//!
//! ```
//! use fault_expansion::prelude::*;
//!
//! // Build a 16×16 torus, let an adversary kill 8 nodes, and ask for
//! // the guaranteed well-expanding core.
//! let net = Family::Torus { dims: vec![16, 16] }.build(0);
//! let seed = 0xFA017;
//! let report = analyze_adversarial(&net, &SparseCutAdversary { budget: 8 }, 2.0, seed);
//! assert!(report.kept > 0);
//! ```
//!
//! ### Scenario campaigns
//!
//! Paper-scale questions are grids — graph family × fault model ×
//! algorithm × replicates. Declare the grid once and let the campaign
//! engine parallelize, checkpoint, and aggregate it:
//!
//! ```
//! use fault_expansion::campaign::{run, CampaignSpec, RunOptions};
//!
//! let spec = CampaignSpec::parse(r#"
//! name = "doc-quickstart"
//! replicates = 2
//! output = "target/doc-quickstart-campaign"
//! graphs = ["torus:6,6", "hypercube:4"]
//! faults = ["none", "random:0.1"]
//! algorithms = ["expansion-cert"]
//! "#).unwrap();
//! let summary = run(&spec, &RunOptions { quiet: true, ..Default::default() }).unwrap();
//! assert!(summary.complete);
//! // re-running is free: every cell is journaled
//! let again = run(&spec, &RunOptions { quiet: true, ..Default::default() }).unwrap();
//! assert_eq!(again.executed, 0);
//! ```
//!
//! The same engine drives `fxnet campaign run|resume|report`; bundled
//! specs live in `specs/` (ports of the former stand-alone experiment
//! binaries). A killed run resumes from its JSONL journal without
//! recomputation, and interrupted-then-resumed campaigns aggregate
//! bit-identically to uninterrupted ones.
//!
//! ### Campaign spec reference
//!
//! The spec grammar — axes, `[grid-…]` tables, and every `[params]`
//! key with its default and valid range — is tabulated once, in
//! [fx-campaign's spec reference](campaign#spec-reference). Invalid
//! grid points and out-of-range values are rejected when the spec is
//! parsed, before any cell runs.
//!
//! Campaigns also shard across machines: cell keys are
//! machine-independent, so `fxnet campaign run --shard i/m` on `m`
//! machines covers the grid exactly once and
//! `fxnet campaign merge` recombines the journals.

#![warn(missing_docs)]

pub use fx_campaign as campaign;
pub use fx_core as core;
pub use fx_expansion as expansion;
pub use fx_faults as faults;
pub use fx_graph as graph;
pub use fx_json as json;
pub use fx_overlay as overlay;
pub use fx_percolation as percolation;
pub use fx_prune as prune;
pub use fx_span as span;

/// Everything a typical user needs, one `use` away.
pub mod prelude {
    pub use fx_campaign::{CampaignSpec, RunOptions};
    pub use fx_core::{
        analyze_adversarial, analyze_random, subdivided_expander, theory_table, BuiltScenario,
        Family, Network, Scenario, MESH_SPAN,
    };
    pub use fx_expansion::{
        edge_expansion_bounds, node_expansion_bounds, spectral_sweep, Cut, Effort,
    };
    pub use fx_faults::{
        apply_faults, ChainCenterAdversary, DegreeAdversary, ExactRandomFaults, FaultModel,
        RandomNodeFaults, SparseCutAdversary,
    };
    pub use fx_graph::{generators, CsrGraph, GraphBuilder, NodeId, NodeSet, SubView};
    pub use fx_overlay::Overlay;
    pub use fx_percolation::{estimate_critical, Mode, MonteCarlo};
    pub use fx_prune::{
        dissect, prune, prune2, theorem21, CutObjective, CutStrategy, PruneOutcome,
    };
    pub use fx_span::{exact_span, mesh_span_ratio, sampled_span, SpanEstimate};
}
