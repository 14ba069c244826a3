//! # fx-expansion — sparse cuts and expansion certificates
//!
//! The cut machinery behind `Prune`/`Prune2` (Bagchi et al., SPAA'04):
//!
//! * [`cut::Cut`] — witnessed cuts carrying `|Γ(S)|` and `|(S, V\S)|`;
//! * [`exact`] — exhaustive minimum node/edge expansion for small
//!   alive sets (the ground truth the estimators are tested against);
//! * [`matvec`]/[`lanczos`]/[`fiedler`] — a from-scratch symmetric
//!   Lanczos eigensolver (full reorthogonalization, Sturm bisection,
//!   inverse iteration) for the normalized-Laplacian Fiedler pair;
//! * [`sweep`] — Cheeger sweep cuts with O(m) incremental boundary
//!   bookkeeping for both node- and edge-expansion objectives;
//! * [`local`] — FM-style single-node-move refinement;
//! * [`certificate`] — two-sided [`certificate::ExpansionBounds`]
//!   (Cheeger lower bound, witnessed upper bound) — the object every
//!   experiment reports when it says "the expansion".
//!
//! ```
//! use fx_expansion::certificate::{node_expansion_bounds, Effort};
//! use fx_graph::{generators, NodeSet};
//! use rand::SeedableRng;
//!
//! let g = generators::hypercube(4);
//! let alive = NodeSet::full(16);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let b = node_expansion_bounds(&g, &alive, Effort::Auto, &mut rng);
//! assert!(b.lower <= b.upper);
//! ```

#![warn(missing_docs)]

pub mod certificate;
pub mod cut;
pub mod exact;
pub mod fiedler;
pub mod lanczos;
pub mod local;
pub mod matvec;
pub mod sweep;

pub use certificate::{edge_expansion_bounds, node_expansion_bounds, Effort, ExpansionBounds};
pub use cut::Cut;
pub use sweep::{spectral_sweep, SweepOutcome};
