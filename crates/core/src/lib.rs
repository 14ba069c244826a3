//! # fx-core — high-level resilience analysis
//!
//! The user-facing layer of the fault-expansion workspace: wrap a
//! topology in a [`Network`], pick a fault model, and get a
//! theorem-annotated report.
//!
//! ```
//! use fx_core::{analyze_adversarial, Family};
//! use fx_faults::SparseCutAdversary;
//!
//! let net = Family::Hypercube { d: 4 }.build(0);
//! let seed = 0xFA017;
//! let report = analyze_adversarial(&net, &SparseCutAdversary { budget: 2 }, 2.0, seed);
//! assert!(report.kept >= report.guaranteed_min_kept.unwrap_or(0.0) as usize);
//! ```

#![warn(missing_docs)]

pub mod analyzer;
pub mod diffusion;
pub mod embedding;
pub mod families;
pub mod network;
pub mod report;
pub mod scenario;
pub mod theory;

pub use analyzer::{analyze_adversarial, analyze_random};
pub use diffusion::{diffuse, point_load, DiffusionOutcome};
pub use embedding::{embed_nearest, EmbeddingQuality};
pub use families::{subdivided_expander, Family};
pub use network::{Network, NetworkSummary};
pub use report::{AdversarialReport, BoundsSummary, RandomFaultReport};
pub use scenario::{BuiltScenario, OverlayInfo, Scenario, ScenarioKind};
pub use theory::{theory_table, TheoryTable, MESH_SPAN};
