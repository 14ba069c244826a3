//! # fx-percolation — Monte-Carlo percolation on arbitrary graphs
//!
//! The §1.1 survey of Bagchi et al. (SPAA'04) frames fault tolerance
//! through critical probabilities for linear-size components; the
//! random-fault experiments (Theorems 3.1/3.4) need `γ(p)` curves.
//! This crate provides:
//!
//! * [`sample`] — site dilution and the site/bond `γ` measure;
//! * [`newman_ziff`] — O(n·α(n)) whole-curve sweeps via union–find;
//! * [`lanes`] — the bit-parallel engine: 64 trials per machine word
//!   (lane-transposed masks + batched union-find), bit-identical to
//!   the scalar path by construction;
//! * [`montecarlo`] — deterministic, thread-parallel trial batches
//!   (same results for any thread count);
//! * [`critical`] — `p*` estimation by curve inversion, reproducing
//!   the survey's table of thresholds (experiment E7).
//!
//! ```
//! use fx_percolation::{MonteCarlo, estimate_critical, Mode};
//! use fx_graph::generators;
//!
//! let g = generators::torus(&[16, 16]);
//! let mc = MonteCarlo { trials: 8, threads: 1, base_seed: 1 };
//! let est = estimate_critical(&g, Mode::Bond, &mc, 0.1, 20);
//! assert!(est.p_star > 0.0 && est.p_star < 1.0);
//! ```

#![warn(missing_docs)]

pub mod critical;
pub mod dilution;
pub mod lanes;
pub mod montecarlo;
pub mod newman_ziff;
pub mod sample;

pub use critical::{estimate_critical, estimate_critical_cancelable, CriticalEstimate, Mode};
pub use dilution::{critical_removal_fraction, crossing_fraction, gamma_removal_curve};
pub use lanes::{
    gamma_batch_with, gamma_lanes_guarded, gamma_lanes_with, gamma_trials_with, LaneCsr,
    LaneScratch, LaneSet, MAX_LANES,
};
pub use montecarlo::{trial_seed, MonteCarlo, Stat};
pub use newman_ziff::{
    bond_sweep, bond_sweep_with, site_sweep, site_sweep_ordered_with, site_sweep_with, SweepScratch,
};
pub use sample::{
    gamma_bond, gamma_site, gamma_site_with, sample_alive_nodes, sample_alive_nodes_into,
};
