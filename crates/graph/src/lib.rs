//! # fx-graph — graph substrate for the fault-expansion workspace
//!
//! Everything the reproduction of *"The Effect of Faults on Network
//! Expansion"* (Bagchi, Bhargava, Chaudhary, Eppstein, Scheideler —
//! SPAA 2004) quantifies over, built from scratch:
//!
//! * [`CsrGraph`] — immutable compressed-sparse-row undirected graphs;
//! * [`NodeSet`] — bitset node subsets (fault masks, pruned sets,
//!   cut sides);
//! * [`SubView`] — a graph filtered through an alive mask, so fault
//!   injection never rebuilds adjacency;
//! * [`generators`] — meshes/tori, hypercubes, butterflies, de Bruijn,
//!   shuffle-exchange, Margulis expanders, random (regular) graphs,
//!   small worlds, and the Theorem 2.3 chain-subdivision operator;
//! * traversal / components / union-find / distance machinery;
//! * [`dyncon`] — offline fully-dynamic connectivity: segment tree
//!   over time + rollback union-find, one pass per churn trace
//!   instead of one sweep per snapshot;
//! * [`tree`] — Mehlhorn 2-approximate and Dreyfus–Wagner exact
//!   Steiner trees (the span's `P(U)`);
//! * [`boundary`] — `Γ(U)` and edge cuts, the atoms of expansion;
//! * [`par`] — a deterministic parallel map on scoped threads (with
//!   cooperative cancellation) for the campaign engine's cells;
//! * [`scratch`] — reusable traversal buffers, so a Monte-Carlo loop
//!   allocates once, not once per trial.
//!
//! ## Example
//! ```
//! use fx_graph::{generators, NodeSet, components};
//!
//! let g = generators::torus(&[16, 16]);
//! let mut alive = NodeSet::full(g.num_nodes());
//! alive.remove(0); // a fault
//! assert!(components::is_connected(&g, &alive));
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod boundary;
pub mod builder;
pub mod components;
pub mod csr;
pub mod distance;
pub mod dyncon;
pub mod generators;
pub mod io;
pub mod node;
pub mod par;
pub mod routing;
pub mod scratch;
pub mod stats;
pub mod traversal;
pub mod tree;
pub mod unionfind;
pub mod view;

pub use bitset::NodeSet;
pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use node::{Edge, NodeId};
pub use scratch::Scratch;
pub use stats::{pareto_sample, Welford};
pub use view::SubView;
