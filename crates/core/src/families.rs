//! Parameterized graph families for sweeps: every family the paper
//! mentions, buildable by name at any size.

use crate::network::Network;
use fx_graph::generators::{self, SubdividedGraph};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A buildable graph family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Family {
    /// Hypercube `Q_d`.
    Hypercube {
        /// Dimension.
        d: usize,
    },
    /// d-dimensional mesh with the given sides.
    Mesh {
        /// Side lengths.
        dims: Vec<usize>,
    },
    /// d-dimensional torus with the given sides.
    Torus {
        /// Side lengths.
        dims: Vec<usize>,
    },
    /// Unwrapped butterfly `BF(d)`.
    Butterfly {
        /// Dimension.
        d: usize,
    },
    /// Wrapped butterfly `WBF(d)`.
    WrappedButterfly {
        /// Dimension.
        d: usize,
    },
    /// Binary de Bruijn graph.
    DeBruijn {
        /// Dimension.
        d: usize,
    },
    /// Shuffle-exchange graph.
    ShuffleExchange {
        /// Dimension.
        d: usize,
    },
    /// Margulis–Gabber–Galil expander on `m²` nodes.
    Margulis {
        /// Side of the `Z_m × Z_m` grid.
        m: usize,
    },
    /// Random `d`-regular graph (expander w.h.p.).
    RandomRegular {
        /// Node count.
        n: usize,
        /// Degree.
        d: usize,
    },
    /// Cycle `C_n`.
    Cycle {
        /// Node count.
        n: usize,
    },
    /// Complete graph `K_n`.
    Complete {
        /// Node count.
        n: usize,
    },
}

impl Family {
    /// Builds the graph (randomized families use `seed`).
    pub fn build(&self, seed: u64) -> Network {
        let name = self.name();
        let graph = match self {
            Family::Hypercube { d } => generators::hypercube(*d),
            Family::Mesh { dims } => generators::mesh(dims),
            Family::Torus { dims } => generators::torus(dims),
            Family::Butterfly { d } => generators::butterfly(*d),
            Family::WrappedButterfly { d } => generators::wrapped_butterfly(*d),
            Family::DeBruijn { d } => generators::de_bruijn(*d),
            Family::ShuffleExchange { d } => generators::shuffle_exchange(*d),
            Family::Margulis { m } => generators::margulis(*m),
            Family::RandomRegular { n, d } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                generators::random_regular(*n, *d, &mut rng)
            }
            Family::Cycle { n } => generators::cycle(*n),
            Family::Complete { n } => generators::complete(*n),
        };
        Network::new(name, graph)
    }

    /// Parses a compact graph spec `family:param,param,…` (the format
    /// used by the `fxnet` CLI and campaign specs), e.g. `torus:16,16`,
    /// `hypercube:10`, `random-regular:1024,4`.
    pub fn from_spec(spec: &str) -> Result<Family, String> {
        let (name, params) = spec.split_once(':').unwrap_or((spec, ""));
        let nums: Vec<usize> = if params.is_empty() {
            Vec::new()
        } else {
            params
                .split(',')
                .map(|p| p.trim().parse().map_err(|_| format!("bad parameter: {p}")))
                .collect::<Result<_, _>>()?
        };
        let need = |k: usize| -> Result<(), String> {
            if nums.len() == k {
                Ok(())
            } else {
                Err(format!(
                    "{name} expects {k} parameter(s), got {}",
                    nums.len()
                ))
            }
        };
        match name {
            "hypercube" => {
                need(1)?;
                Ok(Family::Hypercube { d: nums[0] })
            }
            "mesh" => {
                if nums.is_empty() {
                    return Err("mesh expects at least one side".into());
                }
                Ok(Family::Mesh { dims: nums })
            }
            "torus" => {
                if nums.is_empty() {
                    return Err("torus expects at least one side".into());
                }
                Ok(Family::Torus { dims: nums })
            }
            "butterfly" => {
                need(1)?;
                Ok(Family::Butterfly { d: nums[0] })
            }
            "wrapped-butterfly" => {
                need(1)?;
                Ok(Family::WrappedButterfly { d: nums[0] })
            }
            "debruijn" | "de-bruijn" => {
                need(1)?;
                Ok(Family::DeBruijn { d: nums[0] })
            }
            "shuffle-exchange" => {
                need(1)?;
                Ok(Family::ShuffleExchange { d: nums[0] })
            }
            "margulis" => {
                need(1)?;
                Ok(Family::Margulis { m: nums[0] })
            }
            "random-regular" | "rr" => {
                need(2)?;
                Ok(Family::RandomRegular {
                    n: nums[0],
                    d: nums[1],
                })
            }
            "cycle" => {
                need(1)?;
                Ok(Family::Cycle { n: nums[0] })
            }
            "complete" => {
                need(1)?;
                Ok(Family::Complete { n: nums[0] })
            }
            other => Err(format!(
                "unknown family: {other} (try torus:16,16 | hypercube:10 | random-regular:1024,4 …)"
            )),
        }
    }

    /// The canonical compact spec string (round-trips through
    /// [`Family::from_spec`]).
    pub fn spec_string(&self) -> String {
        let join = |dims: &[usize]| {
            dims.iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        match self {
            Family::Hypercube { d } => format!("hypercube:{d}"),
            Family::Mesh { dims } => format!("mesh:{}", join(dims)),
            Family::Torus { dims } => format!("torus:{}", join(dims)),
            Family::Butterfly { d } => format!("butterfly:{d}"),
            Family::WrappedButterfly { d } => format!("wrapped-butterfly:{d}"),
            Family::DeBruijn { d } => format!("debruijn:{d}"),
            Family::ShuffleExchange { d } => format!("shuffle-exchange:{d}"),
            Family::Margulis { m } => format!("margulis:{m}"),
            Family::RandomRegular { n, d } => format!("random-regular:{n},{d}"),
            Family::Cycle { n } => format!("cycle:{n}"),
            Family::Complete { n } => format!("complete:{n}"),
        }
    }

    /// Short display name.
    pub fn name(&self) -> String {
        match self {
            Family::Hypercube { d } => format!("hypercube(d={d})"),
            Family::Mesh { dims } => format!("mesh{dims:?}"),
            Family::Torus { dims } => format!("torus{dims:?}"),
            Family::Butterfly { d } => format!("butterfly(d={d})"),
            Family::WrappedButterfly { d } => format!("wrapped-butterfly(d={d})"),
            Family::DeBruijn { d } => format!("de-bruijn(d={d})"),
            Family::ShuffleExchange { d } => format!("shuffle-exchange(d={d})"),
            Family::Margulis { m } => format!("margulis(m={m})"),
            Family::RandomRegular { n, d } => format!("random-regular(n={n},d={d})"),
            Family::Cycle { n } => format!("cycle(n={n})"),
            Family::Complete { n } => format!("complete(n={n})"),
        }
    }
}

/// Builds the Theorem 2.3 lower-bound family: a random `d`-regular
/// expander with every edge subdivided by a `k`-node chain.
pub fn subdivided_expander(n: usize, d: usize, k: usize, seed: u64) -> (Network, SubdividedGraph) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let base = generators::random_regular(n, d, &mut rng);
    let sub = generators::subdivide(&base, k);
    let net = Network::new(format!("subdivided(n={n},d={d},k={k})"), sub.graph.clone());
    (net, sub)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_build_with_expected_sizes() {
        assert_eq!(Family::Hypercube { d: 5 }.build(0).n(), 32);
        assert_eq!(Family::Mesh { dims: vec![4, 4] }.build(0).n(), 16);
        assert_eq!(
            Family::Torus {
                dims: vec![3, 3, 3]
            }
            .build(0)
            .n(),
            27
        );
        assert_eq!(Family::Butterfly { d: 3 }.build(0).n(), 32);
        assert_eq!(Family::WrappedButterfly { d: 3 }.build(0).n(), 24);
        assert_eq!(Family::DeBruijn { d: 5 }.build(0).n(), 32);
        assert_eq!(Family::ShuffleExchange { d: 5 }.build(0).n(), 32);
        assert_eq!(Family::Margulis { m: 5 }.build(0).n(), 25);
        assert_eq!(Family::RandomRegular { n: 50, d: 4 }.build(1).n(), 50);
        assert_eq!(Family::Cycle { n: 9 }.build(0).n(), 9);
        assert_eq!(Family::Complete { n: 7 }.build(0).graph.num_edges(), 21);
    }

    #[test]
    fn random_families_are_seed_deterministic() {
        let a = Family::RandomRegular { n: 40, d: 4 }.build(7);
        let b = Family::RandomRegular { n: 40, d: 4 }.build(7);
        let ea: Vec<_> = a.graph.edges().collect();
        let eb: Vec<_> = b.graph.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn subdivided_family_bookkeeping() {
        let (net, sub) = subdivided_expander(20, 4, 6, 3);
        assert_eq!(net.n(), 20 + 6 * 40);
        assert_eq!(sub.centers().len(), 40);
        assert!(net.name.contains("k=6"));
    }

    #[test]
    fn from_spec_parses_all_families() {
        assert_eq!(
            Family::from_spec("torus:4,4").unwrap(),
            Family::Torus { dims: vec![4, 4] }
        );
        assert_eq!(
            Family::from_spec("hypercube:5").unwrap(),
            Family::Hypercube { d: 5 }
        );
        assert_eq!(
            Family::from_spec("rr:100,4").unwrap(),
            Family::RandomRegular { n: 100, d: 4 }
        );
        assert!(Family::from_spec("torus").is_err());
        assert!(Family::from_spec("hypercube:1,2").is_err());
        assert!(Family::from_spec("klein-bottle:3").is_err());
        assert!(Family::from_spec("mesh:3,x").is_err());
    }
}
