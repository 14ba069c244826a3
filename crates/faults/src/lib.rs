//! # fx-faults — fault models for expansion-resilience experiments
//!
//! Static node-fault models per §1.3 of Bagchi et al. (SPAA'04):
//! random faults ([`random`]) for §3, adversarial strategies
//! ([`adversary`]) for §2, and the measured-failure regimes between
//! them — fractional [`targeted`] attacks, correlated [`clustered`]
//! BFS-ball faults, and [`heavy_tailed`] Pareto-weighted dilution —
//! all producing failed-node [`NodeSet`](fx_graph::NodeSet)s that
//! downstream pruning consumes without rebuilding the graph.
//!
//! The [`spec`] module is the **fault-model registry**: the one
//! grammar ([`FaultSpec::parse`]), canonical display, severity-sweep
//! expansion ([`expand_sweep`]), and construction
//! ([`FaultSpec::build`]) every consumer (campaign specs, CLI, docs)
//! shares.
//!
//! ```
//! use fx_faults::{FaultModel, RandomNodeFaults, apply_faults};
//! use fx_graph::generators;
//! use rand::SeedableRng;
//!
//! let g = generators::hypercube(6);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let failed = RandomNodeFaults { p: 0.1 }.sample(&g, &mut rng);
//! let alive = apply_faults(&g, &failed);
//! assert_eq!(alive.len() + failed.len(), g.num_nodes());
//! ```

#![warn(missing_docs)]

pub mod adversary;
pub mod clustered;
pub mod heavy_tailed;
pub mod model;
pub mod random;
pub mod spec;
pub mod targeted;

pub use adversary::{ChainCenterAdversary, DegreeAdversary, SparseCutAdversary};
pub use clustered::{CenterBias, ClusteredFaults};
pub use heavy_tailed::HeavyTailedFaults;
pub use model::{apply_faults, FaultModel};
pub use random::{random_edge_faults, ExactRandomFaults, RandomNodeFaults};
pub use spec::{expand_sweep, FaultModelInfo, FaultSpec, REGISTRY};
pub use targeted::{removal_trace, targeted_order, TargetBy, TargetedFaults};
