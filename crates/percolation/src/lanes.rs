//! Bit-parallel Monte-Carlo engine: up to 64 fault trials per
//! machine word.
//!
//! A trial's alive mask is a `NodeSet` — node-major words, bit `v` =
//! node `v` survives. This module *transposes* a batch of up to 64
//! such masks into a [`LaneSet`]: trial-lane-major words, one `u64`
//! per node whose bit `t` = "alive in trial `t`". In that layout a
//! single `AND` of two node words answers "in which trials are both
//! endpoints alive?" for the whole batch, so γ extraction becomes one
//! CSR edge pass driving a [`LaneUnionFind`] (an edge performs a
//! union in every lane where both endpoints survive) instead of 64
//! per-trial component sweeps.
//!
//! Determinism contract: the engine changes *how* γ is extracted,
//! never *what* is sampled. Each trial's mask is sampled with exactly
//! the scalar path's per-trial RNG stream and then transposed, and
//! both extractors compute the same exact largest-component integer,
//! so per-trial γ — and therefore every aggregate — is bit-identical
//! at every lane width from 1 (the scalar path) to 64, at any thread
//! count.

use crate::sample::gamma_site_with;
use fx_graph::bitset::transpose64;
use fx_graph::unionfind::LaneUnionFind;
use fx_graph::{CsrGraph, NodeSet, Scratch};
use fx_trace::{Counter, Histogram, Target};

/// Trials per machine word: the lane width of a full batch.
pub const MAX_LANES: usize = 64;

// Dispatch observability (`FXNET_TRACE=percolation`): batches run
// through the lane engine, trials inside them, and trials that took
// the scalar path instead — so `--timing` runs show where dispatch
// declined to vectorize. One relaxed load per site when off.
static TRACE_LANE_BATCHES: Counter = Counter::new(Target::Percolation, "mc_lane_batches");
static TRACE_LANE_TRIALS: Counter = Counter::new(Target::Percolation, "mc_lane_trials");
static TRACE_SCALAR_TRIALS: Counter = Counter::new(Target::Percolation, "mc_scalar_trials");
// Mean alive lanes per node word, recorded once per batch: low
// occupancy means the batch is paying 64-lane transposes for mostly
// dead lanes (ragged tail or deeply subcritical p).
static TRACE_LANE_OCCUPANCY: Histogram = Histogram::new(Target::Percolation, "mc_lane_occupancy");

/// A batch of up to 64 alive masks in trial-lane-major layout: one
/// word per node, bit `t` = alive in trial lane `t`.
#[derive(Debug, Clone, Default)]
pub struct LaneSet {
    /// `words[v]` = lane word of node `v`.
    words: Vec<u64>,
    lanes: usize,
}

impl LaneSet {
    /// An empty lane set; sized by [`LaneSet::load_masks`].
    pub fn new() -> Self {
        LaneSet::default()
    }

    /// Number of live lanes (trials) loaded.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The per-node lane words (`len ==` node universe).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Transposes `masks` (one per trial, identical universes, at
    /// most 64) into lane-major words, reusing the allocation. Lanes
    /// `>= masks.len()` are zero (dead), so a ragged final batch is
    /// just a partially occupied word.
    ///
    /// # Panics
    /// Panics if `masks` is empty, longer than 64, or mixes universes.
    pub fn load_masks(&mut self, masks: &[NodeSet]) {
        assert!(
            !masks.is_empty() && masks.len() <= MAX_LANES,
            "lane batch must hold 1..=64 masks, got {}",
            masks.len()
        );
        let n = masks[0].capacity();
        for m in masks {
            assert_eq!(m.capacity(), n, "lane batch mixes mask universes");
        }
        self.lanes = masks.len();
        self.words.clear();
        self.words.resize(n, 0);
        let mut buf = [0u64; 64];
        for block in 0..n.div_ceil(64) {
            for (t, m) in masks.iter().enumerate() {
                buf[t] = m.as_words()[block];
            }
            for w in &mut buf[masks.len()..] {
                *w = 0;
            }
            transpose64(&mut buf);
            let lo = block * 64;
            let hi = (lo + 64).min(n);
            self.words[lo..hi].copy_from_slice(&buf[..hi - lo]);
        }
    }
}

/// Per-graph precomputation for the lane engine's edge pass: the
/// canonical edge list annotated with a *redundancy guard* per edge.
///
/// Guard rule: edge `(u,v)` with `v > u+1` needs no union in lane `t`
/// whenever the edges `(u-1,u)`, `(v-1,v)` and `(u-1,v-1)` all exist
/// in the graph and `u-1`, `v-1` are both alive in `t` — those three
/// edges already connect `u ~ u-1 ~ v-1 ~ v` in the final forest, so
/// the union can only merge already-connected sets. Consecutive edges
/// `(u, u+1)` are never skipped (their guarantor triple contains the
/// edge itself), which is what grounds the argument: order skipped
/// edges by endpoint sum, and each one's guarantors are either
/// consecutive (always processed when alive) or a skippable edge of
/// strictly smaller endpoint sum. On index-regular graphs (grid
/// columns, hypercube dimension-0 pairs) roughly half of all edges
/// arm, and the test is two word-loads and two ANDs per edge. Γ stays
/// exact: skips never merge anything, and every component's final
/// size is still produced by its last performed union.
#[derive(Debug, Clone)]
struct LaneCsr {
    n: usize,
    /// Packed edges: `v << 32 | armed << 31 | u` (node ids fit 31
    /// bits — asserted at build — so the guard flag rides in `u`'s
    /// sign bit and the whole edge streams as one word).
    edges: Vec<u64>,
}

impl LaneCsr {
    /// Builds the guarded edge list in two O(m) merge passes over the
    /// sorted CSR neighbor lists (no per-edge binary searches): one to
    /// mark which nodes have a consecutive-predecessor edge, one to
    /// arm each edge whose guarantor triple exists. Built once per
    /// [`gamma_trials_with`] call and shared by its batches (it is
    /// read-only during extraction).
    fn for_graph(g: &CsrGraph) -> Self {
        let n = g.num_nodes();
        assert!(n <= (1 << 31), "lane engine supports up to 2^31 nodes");
        // cons[v] ⇔ the edge (v-1, v) exists.
        let mut cons = vec![false; n];
        for u in 0..n as u32 {
            for &v in g.neighbors(u) {
                if v == u + 1 {
                    cons[v as usize] = true;
                }
            }
        }
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            // Merge cursor into `u-1`'s sorted neighbor list, probed
            // at `v-1` for each of `u`'s up-neighbors in order.
            let prev: &[u32] = if u > 0 { g.neighbors(u - 1) } else { &[] };
            let mut pi = 0usize;
            for &v in g.neighbors(u) {
                if v <= u {
                    continue;
                }
                // Consecutive edges (u, u+1) are never skippable:
                // their guarantor triple contains the edge itself, so
                // the induction would be circular.
                let mut armed = u > 0 && v > u + 1 && cons[u as usize] && cons[v as usize];
                if armed {
                    while pi < prev.len() && prev[pi] < v - 1 {
                        pi += 1;
                    }
                    armed = pi < prev.len() && prev[pi] == v - 1;
                }
                edges.push((v as u64) << 32 | (armed as u64) << 31 | u as u64);
            }
        }
        LaneCsr { n, edges }
    }
}

/// Reusable arena for the lane engine: 64 per-trial masks, the
/// transposed lane set, the batched union-find, and a scalar-path
/// traversal scratch (the `lane_width == 1` fallback reuses it).
#[derive(Debug)]
pub struct LaneScratch {
    masks: Vec<NodeSet>,
    lanes: LaneSet,
    uf: LaneUnionFind,
    scratch: Scratch,
}

impl Default for LaneScratch {
    fn default() -> Self {
        LaneScratch::new()
    }
}

impl LaneScratch {
    /// An empty arena; buffers size themselves on first batch.
    pub fn new() -> Self {
        LaneScratch {
            masks: (0..MAX_LANES).map(|_| NodeSet::empty(0)).collect(),
            lanes: LaneSet::new(),
            uf: LaneUnionFind::new(),
            scratch: Scratch::new(),
        }
    }
}

/// γ (largest-component fraction) for every lane of `lanes`, via one
/// CSR edge pass over a [`LaneUnionFind`]: each edge unions its
/// endpoints in every lane where both are alive. Per-lane largest
/// sizes come from the union-find's running
/// [`largest_sizes`](LaneUnionFind::largest_sizes) maximum (no
/// end-of-batch forest rescan); an OR over the alive words supplies
/// the size-1 floor for lanes whose largest component is a singleton.
/// Returns one γ per lane, in lane order — each bit-identical to the
/// scalar [`gamma_site_with`] on that lane's mask (both divide the
/// same exact integer by `n`).
pub fn gamma_lanes_with(g: &CsrGraph, lanes: &LaneSet, uf: &mut LaneUnionFind) -> Vec<f64> {
    let n = g.num_nodes();
    assert_eq!(lanes.words().len(), n, "lane set universe mismatch");
    uf.reset(n, lanes.lanes());
    let words = lanes.words();
    let mut any_alive = 0u64;
    for &w in words {
        any_alive |= w;
    }
    for e in g.edges() {
        let both = words[e.u as usize] & words[e.v as usize];
        if both != 0 {
            uf.union_lanes(e.u, e.v, both);
        }
    }
    finish_gammas(uf, any_alive, n)
}

/// γ per lane from the union-find's running largest sizes plus the
/// singleton floor (`any_alive` bit `t` ⇒ lane `t` has a component of
/// at least 1).
fn finish_gammas(uf: &LaneUnionFind, any_alive: u64, n: usize) -> Vec<f64> {
    let denom = n.max(1) as f64;
    uf.largest_sizes()
        .iter()
        .enumerate()
        .map(|(t, &merged)| {
            let floor = (any_alive >> t) & 1;
            (merged as u64).max(floor) as f64 / denom
        })
        .collect()
}

/// [`gamma_lanes_with`], but driven by a [`LaneCsr`] so redundantly
/// guarded edges skip their unions — the engine's production edge
/// pass. Bit-identical to the unguarded pass (skips are provable
/// no-ops), just faster on index-regular graphs.
fn gamma_lanes_guarded(csr: &LaneCsr, lanes: &LaneSet, uf: &mut LaneUnionFind) -> Vec<f64> {
    let n = csr.n;
    assert_eq!(lanes.words().len(), n, "lane set universe mismatch");
    uf.reset(n, lanes.lanes());
    let words = lanes.words();
    let mut any_alive = 0u64;
    for &w in words {
        any_alive |= w;
    }
    let edges = &csr.edges;
    let m = edges.len();
    // SAFETY: every packed edge stores `u < v < n` (LaneCsr::for_graph
    // builds from up-neighbors of a graph whose universe equals
    // `words.len()`, asserted above), so all four word loads are in
    // range (`v ≥ 1` makes `v-1` safe; `saturating_sub` covers `u=0`)
    // and the union precondition holds. This loop is the engine's hot
    // pass; the bounds branches are ~5% of it.
    unsafe {
        for i in 0..m {
            let e = *edges.get_unchecked(i);
            let u = e as u32 & !(1 << 31);
            let v = (e >> 32) as u32;
            // Overlap the next edge's L2 misses (two lane blocks in
            // the n×lanes flat array) with this edge's root chases —
            // the pass is latency-bound on that array, not
            // compute-bound. (Last edge re-prefetches itself.)
            let ne = *edges.get_unchecked(if i + 1 < m { i + 1 } else { i });
            uf.prefetch_lanes(ne as u32 & !(1 << 31), (ne >> 32) as u32);
            // All-ones when the guard is armed (arithmetic shift of
            // the flag bit), else zero — masks the guarantor test.
            let guard = ((e as i32) >> 31) as u64;
            let both = *words.get_unchecked(u as usize) & *words.get_unchecked(v as usize);
            let redundant = guard
                & *words.get_unchecked(u.saturating_sub(1) as usize)
                & *words.get_unchecked((v - 1) as usize);
            let need = both & !redundant;
            if need != 0 {
                uf.union_lanes_unchecked(u, v, need);
            }
        }
    }
    finish_gammas(uf, any_alive, n)
}

/// Runs `trials` trials at the given lane width, single-threaded,
/// returning per-trial γ in trial order plus the number of lane
/// batches executed (0 when the width-1 scalar path ran). `fill(i,
/// mask)` samples trial `i`'s alive mask; it is called exactly once
/// per trial, in trial order, on both paths — which is what makes the
/// two paths bit-identical for seeded fills. On the lane path each
/// batch of up to `lane_width` masks is transposed and its per-lane γ
/// comes from one guarded edge pass.
pub fn gamma_trials_with(
    g: &CsrGraph,
    trials: usize,
    lane_width: usize,
    scratch: &mut LaneScratch,
    mut fill: impl FnMut(usize, &mut NodeSet),
) -> (Vec<f64>, usize) {
    let width = lane_width.clamp(1, MAX_LANES);
    let n = g.num_nodes();
    let mut out = Vec::with_capacity(trials);
    if width == 1 {
        TRACE_SCALAR_TRIALS.add(trials as u64);
        let mask = &mut scratch.masks[0];
        for i in 0..trials {
            fill(i, mask);
            out.push(gamma_site_with(g, mask, &mut scratch.scratch));
        }
        return (out, 0);
    }
    let csr = LaneCsr::for_graph(g);
    let batches = trials.div_ceil(width);
    for lo in (0..trials).step_by(width) {
        let count = width.min(trials - lo);
        for (t, mask) in scratch.masks[..count].iter_mut().enumerate() {
            fill(lo + t, mask);
            assert_eq!(mask.capacity(), n, "trial mask universe != graph");
        }
        scratch.lanes.load_masks(&scratch.masks[..count]);
        TRACE_LANE_BATCHES.incr();
        TRACE_LANE_TRIALS.add(count as u64);
        if fx_trace::enabled(Target::Percolation) && n > 0 {
            let alive_bits: u64 = scratch
                .lanes
                .words()
                .iter()
                .map(|w| w.count_ones() as u64)
                .sum();
            TRACE_LANE_OCCUPANCY.record_always(alive_bits / n as u64);
        }
        out.extend(gamma_lanes_guarded(&csr, &scratch.lanes, &mut scratch.uf));
    }
    (out, batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn load_masks_transposes_membership() {
        // 70 nodes (ragged block), 3 trials with distinct masks
        let n = 70usize;
        let mut masks = Vec::new();
        for t in 0..3usize {
            let mut m = NodeSet::empty(n);
            for v in 0..n {
                if (v + t) % (t + 2) == 0 {
                    m.insert(v as u32);
                }
            }
            masks.push(m);
        }
        let mut ls = LaneSet::new();
        ls.load_masks(&masks);
        assert_eq!(ls.lanes(), 3);
        assert_eq!(ls.words().len(), n);
        for (t, m) in masks.iter().enumerate() {
            for v in 0..n {
                let bit = (ls.words()[v] >> t) & 1;
                assert_eq!(bit == 1, m.contains(v as u32), "trial {t}, node {v}");
            }
        }
        // dead lanes stay zero
        for v in 0..n {
            assert_eq!(ls.words()[v] >> 3, 0, "node {v} has ghost lanes");
        }
    }

    #[test]
    fn gamma_lanes_matches_scalar_gamma_per_lane() {
        let g = generators::torus(&[9, 9]); // 81 nodes: ragged batch
        let mut masks = Vec::new();
        let mut rng = SmallRng::seed_from_u64(0xBEEF);
        for _ in 0..MAX_LANES {
            let mut m = NodeSet::empty(g.num_nodes());
            m.fill_random(0.55, &mut rng);
            masks.push(m);
        }
        let mut ls = LaneSet::new();
        ls.load_masks(&masks);
        let mut uf = LaneUnionFind::new();
        let gammas = gamma_lanes_with(&g, &ls, &mut uf);
        let mut scratch = Scratch::new();
        for (t, m) in masks.iter().enumerate() {
            let scalar = gamma_site_with(&g, m, &mut scratch);
            assert_eq!(gammas[t], scalar, "lane {t} diverged (bitwise)");
        }
    }

    #[test]
    fn trials_driver_is_width_invariant_and_counts_batches() {
        let g = generators::hypercube(6);
        let n = g.num_nodes();
        let fill = |i: usize, mask: &mut NodeSet| {
            let mut rng = SmallRng::seed_from_u64(1000 + i as u64);
            crate::sample::sample_alive_nodes_into(n, 0.6, &mut rng, mask);
        };
        let mut scratch = LaneScratch::new();
        let (scalar, b1) = gamma_trials_with(&g, 70, 1, &mut scratch, fill);
        assert_eq!(b1, 0, "width 1 is the scalar path");
        let (lane, b64) = gamma_trials_with(&g, 70, 64, &mut scratch, fill);
        assert_eq!(b64, 2, "70 trials = one full + one ragged batch");
        assert_eq!(scalar, lane, "per-trial γ must be bit-identical");
        let (lane8, b8) = gamma_trials_with(&g, 70, 8, &mut scratch, fill);
        assert_eq!(b8, 9);
        assert_eq!(scalar, lane8);
    }

    #[test]
    fn empty_graph_and_all_dead_lanes_are_zero() {
        let g = generators::torus(&[4, 4]);
        let masks = vec![NodeSet::empty(g.num_nodes()); 2];
        let mut ls = LaneSet::new();
        ls.load_masks(&masks);
        let mut uf = LaneUnionFind::new();
        assert_eq!(gamma_lanes_with(&g, &ls, &mut uf), vec![0.0, 0.0]);
    }
}
