//! Shortest-path routing and congestion measurement.
//!
//! §1.3 of the paper motivates expansion through routing: *"the
//! ability of a network to route information is preserved because it
//! is closely related to its expansion"*. This module quantifies that
//! on concrete (possibly faulty, possibly pruned) networks: route a
//! permutation workload along BFS shortest paths and measure edge
//! congestion and path dilation. Experiment E12 compares pre-fault,
//! post-fault, and post-prune congestion.

use crate::bitset::NodeSet;
use crate::csr::CsrGraph;
use crate::distance::{bfs_distances, UNREACHABLE};
use crate::node::{Edge, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// Outcome of routing a workload.
#[derive(Debug, Clone)]
pub struct RoutingStats {
    /// Demands that found a path.
    pub routed: usize,
    /// Demands whose endpoints were disconnected (or dead).
    pub failed: usize,
    /// Maximum number of paths over any single edge.
    pub max_edge_congestion: usize,
    /// Mean per-edge load over edges that carried ≥ 1 path.
    pub mean_edge_congestion: f64,
    /// Longest routed path (hops).
    pub max_dilation: usize,
    /// Mean routed path length (hops).
    pub mean_dilation: f64,
}

/// Routes each `(source, target)` demand along one BFS shortest path
/// within `alive`, accumulating per-edge loads.
///
/// Ties between equal-length parent candidates are broken uniformly at
/// random (per demand), which spreads load like a randomized
/// shortest-path router.
pub fn route_demands<R: Rng + ?Sized>(
    g: &CsrGraph,
    alive: &NodeSet,
    demands: &[(NodeId, NodeId)],
    rng: &mut R,
) -> RoutingStats {
    let mut load: HashMap<Edge, usize> = HashMap::new();
    let mut routed = 0usize;
    let mut failed = 0usize;
    let mut total_len = 0usize;
    let mut max_len = 0usize;

    for &(s, t) in demands {
        if !alive.contains(s) || !alive.contains(t) {
            failed += 1;
            continue;
        }
        if s == t {
            routed += 1;
            continue;
        }
        let dist = bfs_distances(g, alive, s);
        if dist[t as usize] == UNREACHABLE {
            failed += 1;
            continue;
        }
        // walk back from t choosing a random parent each hop
        let mut v = t;
        let mut len = 0usize;
        while v != s {
            let dv = dist[v as usize];
            let parents: Vec<NodeId> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&w| alive.contains(w) && dist[w as usize] + 1 == dv)
                .collect();
            let &p = parents.choose(rng).expect("BFS parent exists");
            *load.entry(Edge::new(v, p)).or_insert(0) += 1;
            v = p;
            len += 1;
        }
        routed += 1;
        total_len += len;
        max_len = max_len.max(len);
    }

    let used_edges = load.len().max(1);
    let total_load: usize = load.values().sum();
    RoutingStats {
        routed,
        failed,
        max_edge_congestion: load.values().copied().max().unwrap_or(0),
        mean_edge_congestion: total_load as f64 / used_edges as f64,
        max_dilation: max_len,
        mean_dilation: if routed > 0 {
            total_len as f64 / routed as f64
        } else {
            0.0
        },
    }
}

/// A random permutation workload: every alive node sends to a random
/// distinct alive node (the classic routing benchmark).
pub fn permutation_demands<R: Rng + ?Sized>(alive: &NodeSet, rng: &mut R) -> Vec<(NodeId, NodeId)> {
    let sources: Vec<NodeId> = alive.to_vec();
    let mut targets = sources.clone();
    targets.shuffle(rng);
    sources.into_iter().zip(targets).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn path_graph_single_demand() {
        let g = generators::path(5);
        let alive = NodeSet::full(5);
        let mut rng = SmallRng::seed_from_u64(1);
        let stats = route_demands(&g, &alive, &[(0, 4)], &mut rng);
        assert_eq!(stats.routed, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.max_dilation, 4);
        assert_eq!(stats.max_edge_congestion, 1);
    }

    #[test]
    fn congestion_accumulates_on_bridge() {
        // two K_4 joined by a bridge: cross demands all use the bridge
        let mut b = crate::builder::GraphBuilder::new(8);
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.add_edge(i, j);
                b.add_edge(i + 4, j + 4);
            }
        }
        b.add_edge(0, 4);
        let g = b.build();
        let alive = NodeSet::full(8);
        let demands: Vec<(u32, u32)> = (0..4).map(|i| (i, i + 4)).collect();
        let mut rng = SmallRng::seed_from_u64(2);
        let stats = route_demands(&g, &alive, &demands, &mut rng);
        assert_eq!(stats.routed, 4);
        assert_eq!(stats.max_edge_congestion, 4, "all paths cross the bridge");
    }

    #[test]
    fn dead_and_disconnected_fail() {
        let g = generators::path(4);
        let mut alive = NodeSet::full(4);
        alive.remove(1); // splits {0} from {2,3}
        let mut rng = SmallRng::seed_from_u64(3);
        let stats = route_demands(&g, &alive, &[(0, 3), (0, 1), (2, 3)], &mut rng);
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.routed, 1);
    }

    #[test]
    fn self_demand_is_free() {
        let g = generators::cycle(5);
        let alive = NodeSet::full(5);
        let mut rng = SmallRng::seed_from_u64(4);
        let stats = route_demands(&g, &alive, &[(2, 2)], &mut rng);
        assert_eq!(stats.routed, 1);
        assert_eq!(stats.max_edge_congestion, 0);
    }

    #[test]
    fn permutation_demand_shape() {
        let alive = NodeSet::full(10);
        let mut rng = SmallRng::seed_from_u64(5);
        let d = permutation_demands(&alive, &mut rng);
        assert_eq!(d.len(), 10);
        let mut targets: Vec<u32> = d.iter().map(|&(_, t)| t).collect();
        targets.sort_unstable();
        assert_eq!(targets, (0..10u32).collect::<Vec<_>>());
    }

    #[test]
    fn torus_congestion_reasonable() {
        // on a torus, a permutation routes with congestion well below
        // the demand count
        let g = generators::torus(&[8, 8]);
        let alive = NodeSet::full(64);
        let mut rng = SmallRng::seed_from_u64(7);
        let demands = permutation_demands(&alive, &mut rng);
        let stats = route_demands(&g, &alive, &demands, &mut rng);
        assert_eq!(stats.routed, 64);
        assert!(
            stats.max_edge_congestion < 32,
            "{}",
            stats.max_edge_congestion
        );
        assert!(stats.mean_dilation <= 8.0);
    }
}
