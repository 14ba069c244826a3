//! Reusable traversal scratch: the visited set, BFS queue, and
//! distance/label buffers every masked-graph algorithm needs.
//!
//! The Monte-Carlo experiments call BFS-shaped kernels thousands of
//! times per sweep; allocating a fresh visited bitset + queue + output
//! buffer per call made every trial O(n) in *allocations*. A
//! [`Scratch`] owns those buffers once and is threaded through the
//! `_with` variants in [`traversal`](crate::traversal),
//! [`components`](crate::components), [`boundary`](crate::boundary),
//! and [`distance`](crate::distance), so a 10k-trial sweep allocates
//! its scratch once instead of once per trial.
//!
//! Reuse is invisible in results: every kernel fully resets the parts
//! of the scratch it reads, so a call with a fresh scratch and a call
//! with a hot one are bit-identical.

use crate::bitset::NodeSet;
use crate::node::NodeId;

/// Reusable buffers for masked-graph traversals.
///
/// Create once per loop and pass to the `_with` kernel variants.
/// Buffers grow to the largest universe seen and are reset — never
/// reallocated — on reuse at the same size.
#[derive(Debug, Clone)]
pub struct Scratch {
    /// Visited/membership bitset over the current universe.
    pub(crate) visited: NodeSet,
    /// BFS queue; doubles as the BFS-order output (dequeue order ==
    /// enqueue order), consumed with a head cursor instead of pops.
    pub(crate) queue: Vec<NodeId>,
    /// Distance array (`u32::MAX` = unreachable).
    pub(crate) dist: Vec<u32>,
    /// Component-size accumulator.
    pub(crate) sizes: Vec<u32>,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch::new()
    }
}

impl Scratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Scratch {
            visited: NodeSet::empty(0),
            queue: Vec::new(),
            dist: Vec::new(),
            sizes: Vec::new(),
        }
    }

    /// A scratch pre-sized for a universe of `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Scratch::new();
        s.reset(n);
        s
    }

    /// Resets the visited set and queue for a universe of `n` nodes
    /// (kernel-internal; every `_with` kernel calls this first).
    pub(crate) fn reset(&mut self, n: usize) {
        if self.visited.capacity() != n {
            self.visited = NodeSet::empty(n);
        } else {
            self.visited.clear();
        }
        self.queue.clear();
        self.sizes.clear();
    }

    /// Resets and returns the distance buffer, filled with `fill`
    /// (clear-then-resize, so the whole buffer is freshly filled).
    pub(crate) fn dist_filled(&mut self, n: usize, fill: u32) -> &mut Vec<u32> {
        self.dist.clear();
        self.dist.resize(n, fill);
        &mut self.dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_resizes_and_clears() {
        let mut s = Scratch::with_capacity(10);
        s.visited.insert(3);
        s.queue.push(3);
        s.reset(10);
        assert_eq!(s.visited.len(), 0);
        assert_eq!(s.visited.capacity(), 10);
        assert!(s.queue.is_empty());
        s.reset(64);
        assert_eq!(s.visited.capacity(), 64);
    }

    #[test]
    fn dist_buffer_fully_filled() {
        let mut s = Scratch::new();
        s.dist_filled(5, u32::MAX);
        s.dist[2] = 7;
        let d = s.dist_filled(3, u32::MAX);
        assert!(d.iter().all(|&x| x == u32::MAX));
    }
}
