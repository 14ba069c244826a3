//! Graph family generators.
//!
//! Every family the paper quantifies over (and every family its §1.1
//! survey cites a percolation threshold for) is constructible here:
//! meshes/tori of any dimension, hypercubes, butterflies, de Bruijn and
//! shuffle-exchange graphs, explicit Margulis expanders, random regular
//! expanders, Erdős–Rényi graphs, and the chain-subdivision operator of
//! Theorem 2.3.

mod butterfly;
mod classic;
mod composite;
mod debruijn;
mod expander;
mod hypercube;
mod mesh;
mod random;
mod subdivide;

pub use butterfly::{butterfly, wrapped_butterfly};
pub use classic::{complete, complete_bipartite, cycle, path, star};
pub use composite::{barbell, lollipop};
pub use debruijn::{de_bruijn, shuffle_exchange};
pub use expander::margulis;
pub use hypercube::hypercube;
pub use mesh::{mesh, torus, MeshShape};
pub use random::{gnp, random_regular, small_world};
pub use subdivide::{subdivide, SubdividedGraph};
