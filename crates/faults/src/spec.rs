//! The fault-model registry: one grammar, one parser, one builder.
//!
//! Every layer that names a fault model — campaign specs, the CLI,
//! docs — goes through [`FaultSpec`]: a compact string
//! (`random:0.05`, `targeted:0.2,by=core`, …) parses into a validated
//! spec, displays back in canonical form (round-trip stable, so
//! journal keys are unambiguous), and [`FaultSpec::build`]s the
//! executable [`FaultModel`]. The [`REGISTRY`] is the single catalog:
//! adding a model here adds it to spec parsing, error messages, and
//! the CLI at once — no string matching is left in `fx-campaign`.
//!
//! [`expand_sweep`] turns one templated spec with a `lo..hi/steps`
//! range (`targeted:0.05..0.25/5`) into a severity axis, so campaign
//! grids sweep fault intensity the way they sweep graph sizes.

use crate::adversary::{ChainCenterAdversary, DegreeAdversary, SparseCutAdversary};
use crate::clustered::{CenterBias, ClusteredFaults};
use crate::heavy_tailed::HeavyTailedFaults;
use crate::model::FaultModel;
use crate::random::{ExactRandomFaults, RandomNodeFaults};
use crate::targeted::{TargetBy, TargetedFaults};
use fx_graph::generators::SubdividedGraph;
use std::fmt;

/// A validated fault-model axis value (the parsed form of a registry
/// grammar string).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// No faults injected.
    None,
    /// I.i.d. node faults with probability `p` (`random:p`).
    Random {
        /// Per-node fault probability.
        p: f64,
    },
    /// Exactly `f` uniform random node faults (`random-exact:f`).
    RandomExact {
        /// Failed-node count.
        f: usize,
    },
    /// Sparse-cut adversary with a node budget
    /// (`adversarial:k` / `sparse-cut:k`).
    SparseCut {
        /// Adversary budget.
        budget: usize,
    },
    /// Highest-degree-first adversary with an absolute budget
    /// (`degree:k`).
    Degree {
        /// Adversary budget.
        budget: usize,
    },
    /// Theorem 2.3 chain-center adversary (`chain-centers[:f]`);
    /// only valid on subdivided scenarios. Without a budget, every
    /// chain center is killed (the theorem's construction).
    ChainCenters {
        /// Optional fault budget (`None` = all centers).
        budget: Option<usize>,
    },
    /// Fractional targeted removal
    /// (`targeted:frac[,by=degree|core]`).
    Targeted {
        /// Fraction of the network removed.
        frac: f64,
        /// Removal ordering.
        by: TargetBy,
    },
    /// Correlated local faults: `f` BFS balls of radius `r`
    /// (`clustered:f,r[,centers=uniform|degree|core]`).
    Clustered {
        /// Number of fault balls.
        f: usize,
        /// Ball radius in hops.
        r: usize,
        /// How ball centers are placed.
        centers: CenterBias,
    },
    /// Pareto-weighted heterogeneous faults
    /// (`heavy-tailed:p,alpha`).
    HeavyTailed {
        /// Target mean fault probability.
        p: f64,
        /// Pareto shape (`> 1`).
        alpha: f64,
    },
}

/// One registry row: the name, grammar, and parser of a fault-model
/// family.
pub struct FaultModelInfo {
    /// Canonical model name (the part before `:`).
    pub name: &'static str,
    /// Accepted aliases.
    pub aliases: &'static [&'static str],
    /// Human-readable grammar (shown in errors and catalogs).
    pub grammar: &'static str,
    /// One-line description for catalogs.
    pub summary: &'static str,
    /// Parses the parameter part (after `:`); `spec` is the full
    /// string for error messages.
    parse: fn(spec: &str, param: &str) -> Result<FaultSpec, String>,
}

fn usize_param(spec: &str, param: &str) -> Result<usize, String> {
    param
        .trim()
        .parse()
        .map_err(|_| format!("fault spec {spec:?}: bad integer parameter {param:?}"))
}

fn prob_param(spec: &str, param: &str) -> Result<f64, String> {
    let p: f64 = param
        .trim()
        .parse()
        .map_err(|_| format!("fault spec {spec:?}: bad probability {param:?}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("fault spec {spec:?}: probability out of [0,1]"));
    }
    Ok(p)
}

/// The fault-model catalog: every model the spec grammar knows.
pub const REGISTRY: &[FaultModelInfo] = &[
    FaultModelInfo {
        name: "none",
        aliases: &[],
        grammar: "none",
        summary: "no faults injected",
        parse: |spec, param| {
            if param.is_empty() {
                Ok(FaultSpec::None)
            } else {
                Err(format!("fault spec {spec:?}: `none` takes no parameter"))
            }
        },
    },
    FaultModelInfo {
        name: "random",
        aliases: &[],
        grammar: "random:p",
        summary: "i.i.d. node faults with probability p (§3)",
        parse: |spec, param| {
            Ok(FaultSpec::Random {
                p: prob_param(spec, param)?,
            })
        },
    },
    FaultModelInfo {
        name: "random-exact",
        aliases: &[],
        grammar: "random-exact:f",
        summary: "exactly f uniform random node faults",
        parse: |spec, param| {
            Ok(FaultSpec::RandomExact {
                f: usize_param(spec, param)?,
            })
        },
    },
    FaultModelInfo {
        name: "adversarial",
        aliases: &["sparse-cut"],
        grammar: "adversarial:f",
        summary: "spectral sparse-cut separator adversary, budget f (§2)",
        parse: |spec, param| {
            Ok(FaultSpec::SparseCut {
                budget: usize_param(spec, param)?,
            })
        },
    },
    FaultModelInfo {
        name: "degree",
        aliases: &[],
        grammar: "degree:f",
        summary: "kill the f highest-degree nodes",
        parse: |spec, param| {
            Ok(FaultSpec::Degree {
                budget: usize_param(spec, param)?,
            })
        },
    },
    FaultModelInfo {
        name: "chain-centers",
        aliases: &[],
        grammar: "chain-centers[:f]",
        summary: "Theorem 2.3 chain-center adversary (subdivided scenarios only)",
        parse: |spec, param| {
            Ok(FaultSpec::ChainCenters {
                budget: if param.is_empty() {
                    None
                } else {
                    Some(usize_param(spec, param)?)
                },
            })
        },
    },
    FaultModelInfo {
        name: "targeted",
        aliases: &[],
        grammar: "targeted:frac[,by=degree|core|degree-adaptive]",
        summary: "remove the top frac of nodes by degree, k-core, or adaptive-degree order",
        parse: |spec, param| {
            let mut pieces = param.split(',');
            let frac = prob_param(spec, pieces.next().unwrap_or(""))?;
            let by = match pieces.next().map(str::trim) {
                None | Some("by=degree") => TargetBy::Degree,
                Some("by=core") => TargetBy::Core,
                Some("by=degree-adaptive") => TargetBy::DegreeAdaptive,
                Some(other) => {
                    return Err(format!(
                        "fault spec {spec:?}: expected by=degree|core|degree-adaptive, \
                         got {other:?}"
                    ))
                }
            };
            if pieces.next().is_some() {
                return Err(format!(
                    "fault spec {spec:?}: expected targeted:frac[,by=degree|core|degree-adaptive]"
                ));
            }
            Ok(FaultSpec::Targeted { frac, by })
        },
    },
    FaultModelInfo {
        name: "clustered",
        aliases: &[],
        grammar: "clustered:f,r[,centers=uniform|degree|core]",
        summary:
            "f correlated fault balls of BFS radius r (degree-biased or degeneracy-ordered centers)",
        parse: |spec, param| {
            let parts: Vec<&str> = param.split(',').collect();
            if parts.len() < 2 || parts.len() > 3 {
                return Err(format!(
                    "fault spec {spec:?}: expected clustered:f,r[,centers=uniform|degree|core]"
                ));
            }
            let centers = match parts.get(2).map(|s| s.trim()) {
                None | Some("centers=uniform") => CenterBias::Uniform,
                Some("centers=degree") => CenterBias::Degree,
                Some("centers=core") => CenterBias::Core,
                Some(other) => {
                    return Err(format!(
                        "fault spec {spec:?}: expected centers=uniform|degree|core, got {other:?}"
                    ))
                }
            };
            Ok(FaultSpec::Clustered {
                f: usize_param(spec, parts[0])?,
                r: usize_param(spec, parts[1])?,
                centers,
            })
        },
    },
    FaultModelInfo {
        name: "heavy-tailed",
        aliases: &[],
        grammar: "heavy-tailed:p,alpha",
        summary: "Pareto(alpha)-weighted heterogeneous faults, mean ≈ p",
        parse: |spec, param| {
            let parts: Vec<&str> = param.split(',').collect();
            if parts.len() != 2 {
                return Err(format!(
                    "fault spec {spec:?}: expected heavy-tailed:p,alpha"
                ));
            }
            let p = prob_param(spec, parts[0])?;
            let alpha: f64 = parts[1]
                .trim()
                .parse()
                .map_err(|_| format!("fault spec {spec:?}: bad Pareto shape {:?}", parts[1]))?;
            let shape_ok = alpha.is_finite() && alpha > 1.0;
            if !shape_ok {
                return Err(format!(
                    "fault spec {spec:?}: Pareto shape must be a finite number > 1 \
                     (the weight mean must exist)"
                ));
            }
            Ok(FaultSpec::HeavyTailed { p, alpha })
        },
    },
];

/// The `a | b | c` grammar list for unknown-model errors.
fn grammar_list() -> String {
    REGISTRY
        .iter()
        .map(|e| e.grammar)
        .collect::<Vec<_>>()
        .join(" | ")
}

impl FaultSpec {
    /// Parses a compact fault spec string through the [`REGISTRY`].
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let (name, param) = spec.split_once(':').unwrap_or((spec, ""));
        let entry = REGISTRY
            .iter()
            .find(|e| e.name == name || e.aliases.contains(&name))
            .ok_or_else(|| format!("unknown fault model {name:?} (try {})", grammar_list()))?;
        (entry.parse)(spec, param)
    }

    /// Builds the executable model. `sub` is the subdivided-scenario
    /// bookkeeping the chain-center adversary needs; every other
    /// model ignores it. Errs only for `chain-centers` without a
    /// subdivided handle — campaign specs reject that grid point at
    /// parse time, so engine callers may `expect`.
    pub fn build<'a>(
        &self,
        sub: Option<&'a SubdividedGraph>,
    ) -> Result<Box<dyn FaultModel + 'a>, String> {
        Ok(match self {
            FaultSpec::None => Box::new(ExactRandomFaults { f: 0 }),
            FaultSpec::Random { p } => Box::new(RandomNodeFaults { p: *p }),
            FaultSpec::RandomExact { f } => Box::new(ExactRandomFaults { f: *f }),
            FaultSpec::SparseCut { budget } => Box::new(SparseCutAdversary { budget: *budget }),
            FaultSpec::Degree { budget } => Box::new(DegreeAdversary { budget: *budget }),
            FaultSpec::Targeted { frac, by } => Box::new(TargetedFaults {
                frac: *frac,
                by: *by,
            }),
            FaultSpec::Clustered { f, r, centers } => Box::new(ClusteredFaults {
                balls: *f,
                radius: *r,
                centers: *centers,
            }),
            FaultSpec::HeavyTailed { p, alpha } => Box::new(HeavyTailedFaults {
                p: *p,
                alpha: *alpha,
            }),
            FaultSpec::ChainCenters { budget } => {
                let sub = sub.ok_or(
                    "chain-centers needs a subdivided scenario (no chain bookkeeping available)",
                )?;
                Box::new(ChainCenterAdversary {
                    sub,
                    budget: budget.unwrap_or(sub.original_edges.len()),
                })
            }
        })
    }

    /// True for the no-fault model.
    pub fn is_none(&self) -> bool {
        matches!(self, FaultSpec::None)
    }

    /// True for the i.i.d.-per-node model — the exact hypothesis
    /// class of Theorem 3.4 (`prune2`).
    pub fn is_iid(&self) -> bool {
        matches!(self, FaultSpec::Random { .. })
    }

    /// True for randomized *dilution* models — faults drawn from a
    /// distribution over node subsets, the regime percolation-style
    /// γ measurements are meaningful for. Deterministic/adversarial
    /// models (and `none`) return false.
    pub fn is_random_dilution(&self) -> bool {
        matches!(
            self,
            FaultSpec::Random { .. } | FaultSpec::HeavyTailed { .. } | FaultSpec::Clustered { .. }
        )
    }

    /// True when the model only makes sense on a subdivided scenario
    /// (it reads the Theorem 2.3 chain bookkeeping).
    pub fn needs_subdivided(&self) -> bool {
        matches!(self, FaultSpec::ChainCenters { .. })
    }
}

impl fmt::Display for FaultSpec {
    /// Canonical spec string; round-trips through
    /// [`FaultSpec::parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpec::None => write!(f, "none"),
            FaultSpec::Random { p } => write!(f, "random:{p}"),
            FaultSpec::RandomExact { f: n } => write!(f, "random-exact:{n}"),
            FaultSpec::SparseCut { budget } => write!(f, "adversarial:{budget}"),
            FaultSpec::Degree { budget } => write!(f, "degree:{budget}"),
            FaultSpec::ChainCenters { budget: None } => write!(f, "chain-centers"),
            FaultSpec::ChainCenters { budget: Some(b) } => write!(f, "chain-centers:{b}"),
            FaultSpec::Targeted {
                frac,
                by: TargetBy::Degree,
            } => write!(f, "targeted:{frac}"),
            FaultSpec::Targeted {
                frac,
                by: TargetBy::Core,
            } => write!(f, "targeted:{frac},by=core"),
            FaultSpec::Targeted {
                frac,
                by: TargetBy::DegreeAdaptive,
            } => write!(f, "targeted:{frac},by=degree-adaptive"),
            FaultSpec::Clustered {
                f: n,
                r,
                centers: CenterBias::Uniform,
            } => write!(f, "clustered:{n},{r}"),
            FaultSpec::Clustered {
                f: n,
                r,
                centers: CenterBias::Degree,
            } => write!(f, "clustered:{n},{r},centers=degree"),
            FaultSpec::Clustered {
                f: n,
                r,
                centers: CenterBias::Core,
            } => write!(f, "clustered:{n},{r},centers=core"),
            FaultSpec::HeavyTailed { p, alpha } => write!(f, "heavy-tailed:{p},{alpha}"),
        }
    }
}

/// Expands a templated fault spec whose first range token
/// `lo..hi/steps` stands for `steps` linearly spaced values:
/// `random:0.02..0.2/10` → `random:0.02`, `random:0.04`, …,
/// `targeted:0.05..0.25/5,by=core` sweeps the fraction and keeps the
/// suffix. Values are rounded to 1e-9 so the expanded specs (and the
/// journal keys derived from them) display cleanly.
pub fn expand_sweep(spec: &str) -> Result<Vec<FaultSpec>, String> {
    let Some(dots) = spec.find("..") else {
        return Err(format!(
            "fault sweep {spec:?}: no `lo..hi/steps` range (e.g. targeted:0.05..0.25/5)"
        ));
    };
    let start = spec[..dots]
        .rfind([':', ','])
        .ok_or_else(|| format!("fault sweep {spec:?}: range must replace a parameter"))?
        + 1;
    let lo: f64 = spec[start..dots].trim().parse().map_err(|_| {
        format!(
            "fault sweep {spec:?}: bad range start {:?}",
            &spec[start..dots]
        )
    })?;
    let rest = &spec[dots + 2..];
    let slash = rest
        .find('/')
        .ok_or_else(|| format!("fault sweep {spec:?}: missing `/steps` after the range"))?;
    let hi: f64 = rest[..slash]
        .trim()
        .parse()
        .map_err(|_| format!("fault sweep {spec:?}: bad range end {:?}", &rest[..slash]))?;
    let after = &rest[slash + 1..];
    let (steps_str, suffix) = match after.find(',') {
        Some(i) => (&after[..i], &after[i..]),
        None => (after, ""),
    };
    let steps: usize = steps_str
        .trim()
        .parse()
        .map_err(|_| format!("fault sweep {spec:?}: bad step count {steps_str:?}"))?;
    if steps < 2 {
        return Err(format!(
            "fault sweep {spec:?}: need at least 2 steps (a 1-point sweep is just a value)"
        ));
    }
    if !lo.is_finite() || !hi.is_finite() {
        return Err(format!(
            "fault sweep {spec:?}: range bounds must be finite numbers"
        ));
    }
    if lo == hi {
        return Err(format!(
            "fault sweep {spec:?}: empty range ({lo}..{hi}) — every step would repeat the same \
             value and collide on one journal key; use a plain `faults` entry instead"
        ));
    }
    if lo > hi {
        return Err(format!(
            "fault sweep {spec:?}: reversed range ({lo} > {hi}) — write it as {hi}..{lo}"
        ));
    }
    let prefix = &spec[..start];
    (0..steps)
        .map(|i| {
            let v = lo + (hi - lo) * i as f64 / (steps - 1) as f64;
            let v = (v * 1e9).round() / 1e9;
            // re-anchor expanded-value errors (e.g. an out-of-range
            // fraction) on the sweep the user wrote, not the
            // generated point
            FaultSpec::parse(&format!("{prefix}{v}{suffix}"))
                .map_err(|e| format!("fault sweep {spec:?}: expanded point invalid: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Every registry entry round-trips through parse → Display →
    /// parse in canonical form.
    #[test]
    fn registry_round_trip() {
        for s in [
            "none",
            "random:0.05",
            "random-exact:8",
            "adversarial:4",
            "degree:2",
            "chain-centers",
            "chain-centers:12",
            "targeted:0.1",
            "targeted:0.1,by=core",
            "targeted:0.1,by=degree-adaptive",
            "clustered:4,2",
            "clustered:4,2,centers=degree",
            "clustered:4,2,centers=core",
            "heavy-tailed:0.05,1.5",
        ] {
            let f = FaultSpec::parse(s).unwrap();
            assert_eq!(f.to_string(), s, "canonical display");
            assert_eq!(FaultSpec::parse(&f.to_string()).unwrap(), f, "round trip");
        }
        // aliases and non-canonical spellings normalize
        assert_eq!(
            FaultSpec::parse("sparse-cut:4").unwrap(),
            FaultSpec::SparseCut { budget: 4 }
        );
        assert_eq!(
            FaultSpec::parse("targeted:0.1,by=degree")
                .unwrap()
                .to_string(),
            "targeted:0.1"
        );
        assert_eq!(
            FaultSpec::parse("clustered:4,2,centers=uniform")
                .unwrap()
                .to_string(),
            "clustered:4,2"
        );
    }

    /// Every registry entry rejects malformed parameters with an
    /// error naming the offending spec.
    #[test]
    fn registry_error_messages() {
        for bad in [
            "none:3",
            "random:1.5",
            "random:x",
            "random-exact:x",
            "adversarial:x",
            "degree:-1",
            "chain-centers:x",
            "targeted:1.5",
            "targeted:0.1,by=entropy",
            "targeted:0.1,by=core,extra",
            "targeted:0.1,by=adaptive",
            "clustered:4",
            "clustered:4,2,1",
            "clustered:4,2,centers=kcore",
            "clustered:4,2,centers=degree,extra",
            "clustered:x,2",
            "heavy-tailed:0.05",
            "heavy-tailed:0.05,1.0",
            "heavy-tailed:0.05,0.5",
            "heavy-tailed:2.0,1.5",
            "heavy-tailed:0.05,x",
        ] {
            let err = FaultSpec::parse(bad).unwrap_err();
            assert!(
                err.contains(bad.split(',').next().unwrap().split(':').next().unwrap()),
                "{bad} → {err}"
            );
        }
        // unknown models list the whole catalog
        let err = FaultSpec::parse("gamma-ray").unwrap_err();
        for entry in REGISTRY {
            assert!(err.contains(entry.name), "{err} misses {}", entry.name);
        }
    }

    #[test]
    fn build_constructs_every_model() {
        let g = generators::torus(&[6, 6]);
        let mut rng = SmallRng::seed_from_u64(1);
        for s in [
            "none",
            "random:0.1",
            "random-exact:3",
            "adversarial:2",
            "degree:2",
            "targeted:0.1",
            "targeted:0.1,by=core",
            "targeted:0.1,by=degree-adaptive",
            "clustered:2,1",
            "clustered:2,1,centers=degree",
            "clustered:2,1,centers=core",
            "heavy-tailed:0.1,1.5",
        ] {
            let model = FaultSpec::parse(s).unwrap().build(None).unwrap();
            let failed = model.sample(&g, &mut rng);
            assert!(failed.capacity() == 36, "{s}");
            assert!(!model.name().is_empty());
        }
        // chain-centers needs the subdivided handle
        assert!(FaultSpec::parse("chain-centers")
            .unwrap()
            .build(None)
            .is_err());
        let base = generators::random_regular(10, 4, &mut rng);
        let sub = generators::subdivide(&base, 2);
        let model = FaultSpec::parse("chain-centers")
            .unwrap()
            .build(Some(&sub))
            .unwrap();
        assert_eq!(
            model.sample(&sub.graph, &mut rng).len(),
            sub.original_edges.len()
        );
    }

    /// Exactly the product-of-Bernoulli models run on the
    /// bit-parallel Monte-Carlo engine.
    #[test]
    fn vectorizable_agrees_with_built_models() {
        for (s, expect) in [
            ("none", false),
            ("random:0.3", true),
            ("heavy-tailed:0.2,1.5", true),
            ("random-exact:5", false),
            ("targeted:0.1", false),
            ("clustered:2,1", false),
            ("clustered:2,1,centers=core", false),
            ("adversarial:2", false),
            ("degree:2", false),
        ] {
            let model = FaultSpec::parse(s).unwrap().build(None).unwrap();
            assert_eq!(model.vectorizable(), expect, "{s}");
        }
    }

    /// `sample_into` must be bit-identical to `sample`, including
    /// when the output mask is reused hot across models and graphs
    /// (the Monte-Carlo scratch-reuse pattern).
    #[test]
    fn sample_into_matches_sample_across_mask_reuse() {
        let graphs = [generators::torus(&[8, 8]), generators::cycle(100)];
        let specs = [
            "random:0.2",
            "random-exact:7",
            "targeted:0.15",
            "targeted:0.15,by=core",
            "targeted:0.15,by=degree-adaptive",
            "clustered:3,2",
            "clustered:3,2,centers=degree",
            "clustered:3,2,centers=core",
            "heavy-tailed:0.2,1.5",
            "degree:5",
            "adversarial:3",
        ];
        let mut hot = fx_graph::NodeSet::empty(0); // reused across everything
        for g in &graphs {
            for s in specs {
                let model = FaultSpec::parse(s).unwrap().build(None).unwrap();
                for round in 0..3 {
                    let fresh = model.sample(g, &mut SmallRng::seed_from_u64(42 + round));
                    model.sample_into(g, &mut SmallRng::seed_from_u64(42 + round), &mut hot);
                    assert_eq!(fresh, hot, "{s} round {round}");
                }
            }
        }
    }

    #[test]
    fn sweep_expansion() {
        let faults = expand_sweep("random:0.1..0.3/3").unwrap();
        assert_eq!(
            faults,
            vec![
                FaultSpec::Random { p: 0.1 },
                FaultSpec::Random { p: 0.2 },
                FaultSpec::Random { p: 0.3 },
            ]
        );
        // suffix parameters survive the expansion
        let faults = expand_sweep("targeted:0.05..0.25/5,by=core").unwrap();
        assert_eq!(faults.len(), 5);
        assert_eq!(faults[0].to_string(), "targeted:0.05,by=core");
        assert_eq!(faults[4].to_string(), "targeted:0.25,by=core");
        // display is clean (rounding kills 0.150000000000...2)
        assert_eq!(faults[2].to_string(), "targeted:0.15,by=core");
        // integer sweeps too
        let faults = expand_sweep("degree:2..10/5").unwrap();
        assert_eq!(faults[1], FaultSpec::Degree { budget: 4 });
        // malformed sweeps
        for bad in [
            "random:0.1",
            "random:0.1..0.3",
            "random:0.1..0.3/1",
            "random:0.1..0.3/x",
            "random:x..0.3/3",
            "targeted:0.1..2.0/3",
        ] {
            assert!(expand_sweep(bad).is_err(), "{bad}");
        }
    }

    /// Range edge cases must fail with a clear parse error naming the
    /// sweep — never panic, never expand into colliding or invalid
    /// grid points.
    #[test]
    fn sweep_range_edge_cases_error_clearly() {
        // lo == hi: every step would alias the same journal key
        let err = expand_sweep("targeted:0.2..0.2/3").unwrap_err();
        assert!(err.contains("empty range"), "{err}");
        assert!(err.contains("targeted:0.2..0.2/3"), "{err}");
        // steps = 1: a one-point sweep is just a value
        let err = expand_sweep("targeted:0.1..0.3/1").unwrap_err();
        assert!(err.contains("at least 2 steps"), "{err}");
        // reversed bounds: the error shows the fixed spelling
        let err = expand_sweep("random:0.3..0.1/3").unwrap_err();
        assert!(err.contains("reversed range"), "{err}");
        assert!(err.contains("0.1..0.3"), "{err}");
        // out-of-range fractions: the expanded point is invalid, and
        // the error is anchored on the sweep the user wrote
        let err = expand_sweep("targeted:0.5..1.5/3").unwrap_err();
        assert!(err.contains("fault sweep"), "{err}");
        assert!(err.contains("targeted:0.5..1.5/3"), "{err}");
        assert!(err.contains("out of [0,1]"), "{err}");
        // negative start is out of range the same way
        let err = expand_sweep("random:-0.2..0.2/3").unwrap_err();
        assert!(err.contains("out of [0,1]"), "{err}");
        // non-finite bounds are rejected before expansion
        let err = expand_sweep("random:0.1..inf/3").unwrap_err();
        assert!(err.contains("finite"), "{err}");
        // suffix parameters survive alongside the validation
        let err = expand_sweep("targeted:0.3..0.1/3,by=core").unwrap_err();
        assert!(err.contains("reversed range"), "{err}");
    }
}
