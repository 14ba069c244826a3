//! Grid expansion: a [`CampaignSpec`] becomes a flat list of
//! [`Cell`]s, each with a deterministic seed derived from the campaign
//! seed and the cell's *identity* (not its position), so editing one
//! axis of a spec never reshuffles the seeds of untouched cells and a
//! resumed run reproduces the interrupted one bit-for-bit.
//!
//! A spec may declare several grids (`[grid-…]` tables); they are
//! expanded side by side. Two grids (or a doubled axis entry) that
//! produce the same cell would silently share a journal key, so
//! [`expand`] detects duplicates and reports them as spec errors.

use crate::spec::{Algo, CampaignSpec, FaultSpec};
use fx_store::fnv1a;
use std::collections::HashMap;

/// One point of the campaign grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Scenario spec string (`torus:16,16`, `subdivided:200,4,8`,
    /// `overlay:2,256,churn=400`).
    pub graph: String,
    /// Fault model.
    pub fault: FaultSpec,
    /// Algorithm.
    pub algo: Algo,
    /// Replicate index (`0..replicates`).
    pub replicate: usize,
    /// Deterministic per-cell RNG seed.
    pub seed: u64,
    /// Index of the declaring grid in `spec.grids` — the cell's
    /// `[params]` overrides come from there. NOT part of the cell
    /// identity: keys, seeds, and shards depend only on the axes, so
    /// reorganizing a spec's grid tables never reshuffles seeds.
    pub grid: usize,
}

impl Cell {
    /// Unique journal key of this cell, `graph|fault|algo|rN`.
    pub fn key(&self) -> String {
        self.key_with(&self.graph)
    }

    /// [`key`](Cell::key) under the canonical scenario spelling
    /// ([`canonical_graph`]): one string for every spelling of the
    /// cell.
    pub(crate) fn canonical_key(&self) -> String {
        self.key_with(&canonical_graph(&self.graph))
    }

    fn key_with(&self, graph: &str) -> String {
        format!("{graph}|{}|{}|r{}", self.fault, self.algo, self.replicate)
    }

    /// Aggregation group: the cell key minus the replicate axis.
    pub fn group(&self) -> String {
        format!("{}|{}|{}", self.graph, self.fault, self.algo)
    }
}

/// The canonical spelling of scenario spec `graph` (its
/// [`Scenario`](fx_core::Scenario) `Display`), or `graph` itself when
/// it does not parse: aliases (`rr:…` vs `random-regular:…`,
/// `overlay:2,48` vs `overlay:2,48,churn=0`) spell one way.
pub(crate) fn canonical_graph(graph: &str) -> String {
    fx_core::Scenario::from_spec(graph)
        .map(|s| s.to_string())
        .unwrap_or_else(|_| graph.to_string())
}

/// splitmix64 finalizer — decorrelates related inputs.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed for the cell identified by `key` under `campaign_seed`.
pub fn cell_seed(campaign_seed: u64, key: &str) -> u64 {
    splitmix64(campaign_seed ^ fnv1a(key.as_bytes()))
}

/// The shard (`0..shards`) a cell key belongs to. Derived from the
/// key identity alone, so every machine of a partitioned campaign
/// computes the same assignment without coordination.
pub fn shard_of(key: &str, shards: usize) -> usize {
    assert!(shards >= 1, "shard count must be ≥ 1");
    // decorrelate from cell_seed (different finalizer input) so shard
    // membership never biases the seeds within one shard
    (splitmix64(fnv1a(key.as_bytes()) ^ 0x5851_F42D_4C95_7F2D) % shards as u64) as usize
}

/// Expands the spec into its full cell list, in deterministic
/// `grids × graphs × faults × algorithms × replicates` order.
///
/// Fails when two grid points collide on the same cell key (a doubled
/// axis entry or overlapping `[grid-…]` tables) — duplicate keys
/// would alias in the journal and silently drop work.
pub fn expand(spec: &CampaignSpec) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    // canonical `graph|fault|algo` → declaring grid label. The
    // replicates of a group collide together or not at all, so one
    // check per group covers every cell.
    let mut seen: HashMap<String, &str> = HashMap::new();
    for (grid_index, grid) in spec.grids.iter().enumerate() {
        for graph in &grid.graphs {
            // duplicates are detected on the *canonical* scenario
            // spelling, so aliases (`rr:…` vs `random-regular:…`,
            // `overlay:2,48` vs `overlay:2,48,churn=0`) cannot smuggle
            // the same scenario in twice under two keys
            let canonical = canonical_graph(graph);
            for fault in &grid.faults {
                for algo in &grid.algorithms {
                    let tail = format!("{fault}|{algo}");
                    let group = format!("{graph}|{tail}");
                    if spec.replicates > 0 {
                        if let Some(prior) = seen.insert(format!("{canonical}|{tail}"), &grid.label)
                        {
                            return Err(format!(
                                "duplicate grid cell `{group}|r0` (declared by [{prior}] and \
                                 [{}]); remove the doubled axis entry",
                                grid.label
                            ));
                        }
                    }
                    for replicate in 0..spec.replicates {
                        // the string `Cell::key` gives, formatted once
                        let key = format!("{group}|r{replicate}");
                        cells.push(Cell {
                            graph: graph.clone(),
                            fault: fault.clone(),
                            algo: *algo,
                            replicate,
                            seed: cell_seed(spec.seed, &key),
                            grid: grid_index,
                        });
                    }
                }
            }
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    fn spec() -> CampaignSpec {
        CampaignSpec::parse(
            r#"
name = "g"
seed = 9
replicates = 2
graphs = ["torus:8,8", "cycle:20"]
faults = ["none", "random:0.1"]
algorithms = ["prune", "expansion-cert"]
"#,
        )
        .unwrap()
    }

    #[test]
    fn full_grid_size_and_unique_keys() {
        let cells = expand(&spec()).unwrap();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        let mut keys: Vec<String> = cells.iter().map(Cell::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len(), "keys must be unique");
    }

    #[test]
    fn seeds_depend_on_identity_not_position() {
        let a = expand(&spec()).unwrap();
        // the same cell keeps its seed when the grid around it changes
        let mut wider = spec();
        wider.grids[0].graphs.insert(0, "hypercube:4".to_string());
        let b = expand(&wider).unwrap();
        for cell in &a {
            let twin = b.iter().find(|c| c.key() == cell.key()).unwrap();
            assert_eq!(twin.seed, cell.seed, "{}", cell.key());
        }
        // but a different campaign seed moves every cell seed
        let mut reseeded = spec();
        reseeded.seed = 10;
        let c = expand(&reseeded).unwrap();
        assert!(a.iter().zip(&c).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn replicates_get_distinct_seeds() {
        let cells = expand(&spec()).unwrap();
        let first_group: Vec<&Cell> = cells
            .iter()
            .filter(|c| c.group() == cells[0].group())
            .collect();
        assert_eq!(first_group.len(), 2);
        assert_ne!(first_group[0].seed, first_group[1].seed);
    }

    #[test]
    fn multiple_grids_expand_side_by_side() {
        let spec = CampaignSpec::parse(
            r#"
name = "multi"
replicates = 2

[grid-a]
graphs = ["subdivided:16,4,2"]
faults = ["chain-centers"]
algorithms = ["shatter"]

[grid-b]
graphs = ["overlay:2,32,churn=40"]
faults = ["random:0.1"]
algorithms = ["expansion-cert"]
"#,
        )
        .unwrap();
        let cells = expand(&spec).unwrap();
        assert_eq!(cells.len(), 4);
        assert!(cells[0]
            .key()
            .starts_with("subdivided:16,4,2|chain-centers|shatter"));
        assert!(cells[2]
            .key()
            .starts_with("overlay:2,32,churn=40|random:0.1|expansion-cert"));
    }

    #[test]
    fn duplicate_axis_entries_are_detected() {
        // a doubled graph entry within one grid
        let mut doubled = spec();
        doubled.grids[0].graphs.push("torus:8,8".to_string());
        let err = expand(&doubled).unwrap_err();
        assert!(err.contains("duplicate grid cell"), "{err}");
        assert!(err.contains("torus:8,8"), "{err}");

        // aliased spellings of the same scenario are caught too
        let mut aliased = spec();
        aliased.grids[0].graphs = vec!["random-regular:40,4".to_string(), "rr:40,4".to_string()];
        let err = expand(&aliased).unwrap_err();
        assert!(err.contains("duplicate grid cell"), "{err}");

        // two grids overlapping on the same (graph, fault, algo) point
        let overlapping = CampaignSpec::parse(
            r#"
name = "overlap"
[grid-a]
graphs = ["torus:6,6"]
algorithms = ["span"]
[grid-b]
graphs = ["torus:6,6"]
algorithms = ["span"]
"#,
        )
        .unwrap();
        let err = expand(&overlapping).unwrap_err();
        assert!(
            err.contains("[grid-a]") && err.contains("[grid-b]"),
            "{err}"
        );
    }

    #[test]
    fn shard_assignment_is_stable_and_partitions() {
        let cells = expand(&spec()).unwrap();
        for m in [1usize, 2, 3] {
            let mut counts = vec![0usize; m];
            for cell in &cells {
                let s = shard_of(&cell.key(), m);
                assert!(s < m);
                assert_eq!(s, shard_of(&cell.key(), m), "stable");
                counts[s] += 1;
            }
            assert_eq!(counts.iter().sum::<usize>(), cells.len());
            if m > 1 {
                assert!(
                    counts.iter().filter(|&&c| c > 0).count() > 1,
                    "{m} shards should split {} cells: {counts:?}",
                    cells.len()
                );
            }
        }
    }
}
