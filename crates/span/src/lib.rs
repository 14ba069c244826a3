//! # fx-span — the span parameter `σ` (Bagchi et al., SPAA'04, §1.4)
//!
//! ```text
//! σ = max_{U compact} |P(U)| / |Γ(U)|
//! ```
//!
//! The paper's new predictor of random-fault resilience: a graph of
//! max degree `δ` and span `σ` tolerates fault probability
//! `~ 1/(δ^{4σ})` while keeping a large well-expanding component
//! (Theorem 3.4). This crate provides:
//!
//! * [`compact_sets`] — enumeration and random sampling of compact
//!   sets (connected with connected complement);
//! * [`span`] — exact span for small graphs (Dreyfus–Wagner Steiner
//!   costs), sampled estimates for large ones (a maximum of per-set
//!   ratios, each exact or a Mehlhorn upper bound);
//! * [`mesh`] — the constructive Theorem 3.6 / Lemma 3.7 machinery
//!   showing d-dimensional meshes have span ≤ 2 (virtual-edge
//!   boundary graphs and explicit ≤ 2(|Γ|−1)-edge witness trees);
//! * [`count`] — the Claim 3.2 connected-subgraph counting bound.
//!
//! ```
//! use fx_span::span::exact_span;
//! use fx_graph::generators;
//!
//! let est = exact_span(&generators::mesh(&[3, 3]), 1_000_000);
//! assert!(est.exhaustive);
//! assert!(est.max_ratio <= 2.0); // Theorem 3.6
//! ```

#![warn(missing_docs)]

pub mod compact_sets;
pub mod count;
pub mod mesh;
pub mod span;

pub use compact_sets::{is_compact_set, random_compact_set};
pub use mesh::{boundary_virtually_connected, mesh_boundary_tree, mesh_span_ratio};
pub use span::{
    exact_span, exact_span_cancelable, sampled_span, sampled_span_cancelable, set_span, SetSpan,
    SpanEstimate,
};
