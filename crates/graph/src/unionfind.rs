//! Disjoint-set forest (union by size, path halving).
//!
//! Used by connected-component labeling, Kruskal MST inside the
//! Steiner machinery, and — most heavily — the Newman–Ziff percolation
//! sweeps, where a single trial performs `n` unions and `O(m)` finds.

/// Union-find over `0..len` with union-by-size and path halving.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    /// parent[i] == i for roots.
    parent: Vec<u32>,
    /// Only meaningful at roots.
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// `len` singleton sets.
    pub fn new(len: usize) -> Self {
        assert!(len <= u32::MAX as usize);
        UnionFind {
            parent: (0..len as u32).collect(),
            size: vec![1; len],
            components: len,
        }
    }

    /// Resets to `len` singleton sets, reusing the allocations (the
    /// Newman–Ziff sweep scratch calls this once per trial instead of
    /// building a fresh forest).
    pub fn reset(&mut self, len: usize) {
        assert!(len <= u32::MAX as usize);
        self.parent.clear();
        self.parent.extend(0..len as u32);
        self.size.clear();
        self.size.resize(len, 1);
        self.components = len;
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Representative of `x`'s set (path halving).
    #[inline]
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Merges the sets of `a` and `b`; returns true if they were
    /// distinct.
    #[inline]
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        self.components -= 1;
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of `x`'s set.
    pub fn component_size(&mut self, x: u32) -> usize {
        let r = self.find(x);
        self.size[r as usize] as usize
    }

    /// Size of the largest set.
    pub fn max_component_size(&mut self) -> usize {
        if self.is_empty() {
            return 0;
        }
        (0..self.len() as u32)
            .filter(|&i| self.parent[i as usize] == i)
            .map(|i| self.size[i as usize] as usize)
            .max()
            .unwrap_or(0)
    }
}

/// Up to 64 independent disjoint-set forests over one universe, for
/// the bit-parallel Monte-Carlo engine: one CSR edge pass performs a
/// union in every trial lane where both endpoints are alive,
/// replacing 64 per-trial component sweeps with one.
///
/// Layout is node-major interleaved — element `(v, lane)` lives at
/// flat index `v·lanes + lane`, and parents are stored as *flat*
/// indices. An edge's up-to-64 lane unions therefore start from two
/// contiguous index blocks (a handful of cache lines) instead of 64
/// regions `n` apart, which is what makes the edge loop
/// memory-friendly; since unions only ever connect elements of the
/// same lane, the structure is simply one big forest whose components
/// never cross lanes.
///
/// Each element is a single `i32`: non-negative values are flat
/// parent indices, negative values mark a root holding `-entry` as
/// its set size. That keeps the find chase on a 4-byte stride (half
/// the cache footprint of a packed parent+size word), yet the load
/// that *detects* a root already holds that root's size — so a union
/// touches no second array at all — and reset degenerates to a
/// `memset` of `-1` (every element a singleton root of size 1),
/// which is faster than writing an identity permutation.
#[derive(Debug, Clone, Default)]
pub struct LaneUnionFind {
    /// `n · lanes` entries: flat parent index if `≥ 0`, else the root's
    /// negated set size.
    node: Vec<i32>,
    /// Running per-lane maximum of merged-component sizes, maintained
    /// by every union so extraction never has to rescan the forest.
    /// Singletons are not represented (a lane with no unions reads 0).
    largest: Vec<u32>,
    n: usize,
    lanes: usize,
}

impl LaneUnionFind {
    /// An empty batch; sized by [`LaneUnionFind::reset`].
    pub fn new() -> Self {
        LaneUnionFind::default()
    }

    /// Resets to `lanes` forests of `n` singletons each, reusing the
    /// allocations across batches.
    pub fn reset(&mut self, n: usize, lanes: usize) {
        assert!((1..=64).contains(&lanes), "lanes must be in 1..=64");
        let total = n.checked_mul(lanes).expect("lane universe overflow");
        assert!(total <= i32::MAX as usize, "lane universe too large");
        self.n = n;
        self.lanes = lanes;
        self.node.clear();
        self.node.resize(total, -1);
        self.largest.clear();
        self.largest.resize(lanes, 0);
    }

    /// Universe size per lane.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Root of flat element `i` and that root's set size, with path
    /// halving.
    ///
    /// Each level issues both loads and branches once, on the sign of
    /// the second: the depth-0 and depth-1 exits share a single
    /// well-predicted branch (a select feeds the second load from
    /// either `i` or `p`), rather than a `parent == i` root test that
    /// flip-flops between depths.
    #[inline]
    fn find_flat(&mut self, mut i: u32) -> (u32, u32) {
        // SAFETY: non-negative entries are closed over `0..n·lanes` —
        // reset writes `-1` everywhere and unions only ever store
        // previously loaded roots — and the public entry points assert
        // their node/lane arguments, so `i` starts in range. Unchecked
        // indexing matters here: this loop runs ~2·p²·m·lanes times
        // per batch and a bounds branch per load costs ~30% of the
        // edge pass.
        unsafe {
            loop {
                let p = *self.node.get_unchecked(i as usize);
                // `j` is the root candidate: `i` itself when `i` is a
                // root (`p < 0`), else its parent.
                let j = if p < 0 { i } else { p as u32 };
                let g = *self.node.get_unchecked(j as usize);
                if g < 0 {
                    return (j, (-g) as u32);
                }
                // Both levels are real parents: halve and continue.
                *self.node.get_unchecked_mut(i as usize) = g;
                i = g as u32;
            }
        }
    }

    /// Merges flat elements `ia` and `ib` (must be lane-congruent).
    ///
    /// Branchless on the already-connected case: when the roots are
    /// equal the parent store is a self-assignment and the size
    /// increment is masked to zero, so there is no `ra == rb` branch to
    /// mispredict. That keeps the out-of-order window full of
    /// independent per-lane unions, which is where the bit-parallel
    /// engine's edge pass gets its throughput.
    #[inline]
    fn union_flat(&mut self, ia: u32, ib: u32, lane: usize) -> bool {
        let (ra, sa) = self.find_flat(ia);
        let (rb, sb) = self.find_flat(ib);
        self.link(ra, sa, rb, sb, lane)
    }

    /// Union tail once both roots and their sizes are in hand (the
    /// find's exit load already held each size): union-by-size link
    /// plus the running-largest update, branchless on the
    /// already-connected case.
    #[inline(always)]
    fn link(&mut self, ra: u32, sa: u32, rb: u32, sb: u32, lane: usize) -> bool {
        let a_big = sa >= sb;
        let big = if a_big { ra } else { rb };
        let small = if a_big { rb } else { ra };
        let distinct = ra != rb;
        // Masked to zero on the already-connected case, so the stores
        // below are no-ops there (`small == big`; store order matters:
        // the first momentarily turns the root into a self-loop, the
        // second rewrites it as a root of unchanged size).
        let merged = sa + if distinct { sb } else { 0 };
        // SAFETY: `ra`/`rb` are roots returned by `find_flat` (in
        // range by its invariant) and `lane < lanes` is asserted by
        // the public entry points sizing `largest`; `merged ≤ n·lanes
        // ≤ i32::MAX` so the negation cannot overflow.
        unsafe {
            *self.node.get_unchecked_mut(small as usize) = big as i32;
            *self.node.get_unchecked_mut(big as usize) = -(merged as i32);
            // `merged` is always the size of a real component in
            // `lane`, even on the no-op path, so an unconditional max
            // is exact.
            let l = self.largest.get_unchecked_mut(lane);
            *l = (*l).max(merged);
        }
        distinct
    }

    /// Finishes a find whose first two levels are already loaded: `p =
    /// node[i]` and `g = node[j]` where `j` selects `i` or `p` by
    /// `p`'s sign (as [`find_flat`](Self::find_flat) does). In the
    /// shallow forests union-by-size builds, `g` is almost always
    /// negative already, so this is usually pure register arithmetic —
    /// which is what lets [`union_flat2`](Self::union_flat2) issue
    /// four finds' worth of loads before resolving any of them.
    ///
    /// Stale inputs are safe: halving stores only ever write
    /// non-negative ancestor indices (they shortcut, never redirect
    /// and never re-root), so a `p`/`g` loaded before a *halving*
    /// store in the same lane still names a valid ancestor and the
    /// chase converges to the true root. (Link stores do re-root;
    /// callers must resolve before they link.)
    #[inline(always)]
    fn resolve(&mut self, i: u32, p: i32, g: i32) -> (u32, u32) {
        let j = if p < 0 { i } else { p as u32 };
        if g < 0 {
            return (j, (-g) as u32);
        }
        // SAFETY: `i` is in range by the caller's contract (same
        // boundary asserts as `find_flat`).
        unsafe {
            *self.node.get_unchecked_mut(i as usize) = g;
        }
        self.find_flat(g as u32)
    }

    /// Two unions in two *distinct* lanes, software-pipelined: all four
    /// first-level load pairs are issued before any resolve, so the
    /// four dependent-load chases overlap in the out-of-order window
    /// instead of running back to back. Distinct lanes mean the two
    /// unions touch disjoint flat indices (`index % lanes` is the
    /// lane), so neither link can invalidate the other's resolved root.
    #[inline]
    fn union_flat2(&mut self, ia1: u32, ib1: u32, l1: usize, ia2: u32, ib2: u32, l2: usize) {
        debug_assert_ne!(l1, l2);
        // SAFETY: flat indices are in range by the public entry
        // points' asserts; non-negative entries stay in range by the
        // `find_flat` invariant.
        let (pa1, pb1, pa2, pb2, ga1, gb1, ga2, gb2);
        unsafe {
            pa1 = *self.node.get_unchecked(ia1 as usize);
            pb1 = *self.node.get_unchecked(ib1 as usize);
            pa2 = *self.node.get_unchecked(ia2 as usize);
            pb2 = *self.node.get_unchecked(ib2 as usize);
            ga1 = *self
                .node
                .get_unchecked(if pa1 < 0 { ia1 } else { pa1 as u32 } as usize);
            gb1 = *self
                .node
                .get_unchecked(if pb1 < 0 { ib1 } else { pb1 as u32 } as usize);
            ga2 = *self
                .node
                .get_unchecked(if pa2 < 0 { ia2 } else { pa2 as u32 } as usize);
            gb2 = *self
                .node
                .get_unchecked(if pb2 < 0 { ib2 } else { pb2 as u32 } as usize);
        }
        // Resolves may halving-store (safe against the preloads, see
        // `resolve`); both links happen after every resolve.
        let (ra1, sa1) = self.resolve(ia1, pa1, ga1);
        let (rb1, sb1) = self.resolve(ib1, pb1, gb1);
        let (ra2, sa2) = self.resolve(ia2, pa2, ga2);
        let (rb2, sb2) = self.resolve(ib2, pb2, gb2);
        self.link(ra1, sa1, rb1, sb1, l1);
        self.link(ra2, sa2, rb2, sb2, l2);
    }

    /// Representative of `x`'s set in `lane`, as an element id
    /// (`0..n`) within that lane.
    #[inline]
    pub fn find(&mut self, lane: usize, x: u32) -> u32 {
        assert!(lane < self.lanes && (x as usize) < self.n);
        let (root, _) = self.find_flat((x as usize * self.lanes + lane) as u32);
        root / self.lanes as u32
    }

    /// Merges the sets of `a` and `b` in `lane`; returns true if they
    /// were distinct.
    #[inline]
    pub fn union(&mut self, lane: usize, a: u32, b: u32) -> bool {
        assert!(lane < self.lanes && (a as usize) < self.n && (b as usize) < self.n);
        self.union_flat(
            (a as usize * self.lanes + lane) as u32,
            (b as usize * self.lanes + lane) as u32,
            lane,
        )
    }

    /// The engine's hot edge step: for every set bit `t` of `word`,
    /// merges `a` and `b` in lane `t`. `word` is the AND of the two
    /// endpoints' lane-transposed alive words; bits at or above
    /// `lanes()` are ignored (the lane transpose already clears them).
    ///
    /// Set bits are peeled two at a time through `union_flat2`: a
    /// single union is a serial chain of two dependent loads, so
    /// pairing independent lanes roughly halves the chain latency the
    /// edge pass pays per union.
    #[inline]
    pub fn union_lanes(&mut self, a: u32, b: u32, word: u64) {
        assert!((a as usize) < self.n && (b as usize) < self.n);
        // SAFETY: both elements just bounds-checked.
        unsafe { self.union_lanes_unchecked(a, b, word) }
    }

    /// [`union_lanes`](Self::union_lanes) without the per-call bounds
    /// assert, for edge passes that establish `u, v < n` once for the
    /// whole edge list (the guarded lane pass calls this a few
    /// thousand times per batch).
    ///
    /// # Safety
    /// `a` and `b` must be `< universe()`.
    #[inline]
    pub unsafe fn union_lanes_unchecked(&mut self, a: u32, b: u32, mut word: u64) {
        word &= !0u64 >> (64 - self.lanes as u32);
        let ab = a as usize * self.lanes;
        let bb = b as usize * self.lanes;
        while word != 0 {
            let t1 = word.trailing_zeros() as usize;
            word &= word - 1;
            if word == 0 {
                self.union_flat((ab + t1) as u32, (bb + t1) as u32, t1);
                return;
            }
            let t2 = word.trailing_zeros() as usize;
            word &= word - 1;
            self.union_flat2(
                (ab + t1) as u32,
                (bb + t1) as u32,
                t1,
                (ab + t2) as u32,
                (bb + t2) as u32,
                t2,
            );
        }
    }

    /// Prefetches both elements' lane blocks into cache. The edge
    /// pass calls this one edge ahead of processing: the flat array
    /// is `n × lanes × 4` bytes (too big for L1 on real graphs), and
    /// each edge's unions touch up to `lanes × 4`-byte blocks at two
    /// node bases — 4 cache lines each at full width. Issuing the
    /// loads early overlaps the L2 misses with the current edge's
    /// root chases instead of serializing behind them.
    #[inline]
    pub fn prefetch_lanes(&self, a: u32, b: u32) {
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let lanes = self.lanes;
            for base in [a as usize * lanes, b as usize * lanes] {
                // the block spans ⌈lanes·4 / 64⌉ lines; step one line
                let ptr = self.node.as_ptr().add(base) as *const i8;
                let mut off = 0usize;
                while off < lanes * 4 {
                    _mm_prefetch(ptr.add(off), _MM_HINT_T0);
                    off += 64;
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (a, b);
        }
    }

    /// Running largest *merged* component size per lane — the maximum
    /// over every union performed since [`LaneUnionFind::reset`].
    /// Size-1 components are not represented (no union ever touches
    /// them), so callers wanting the true per-lane maximum take
    /// `max(largest_sizes()[t], 1)` for every lane with at least one
    /// alive element. This is what the bit-parallel γ extraction uses:
    /// it is maintained branchlessly inside the edge pass, so no
    /// end-of-batch rescan of the forest is needed.
    pub fn largest_sizes(&self) -> &[u32] {
        &self.largest
    }

    /// Largest set size per lane, counting only elements present in
    /// that lane: `membership[v]` bit `t` ⇔ element `v` participates
    /// in lane `t` (the lane-transposed alive mask). Absent elements
    /// are dead singletons and never counted, so an all-dead lane
    /// reports 0. Bits at or above `lanes()` must be zero.
    pub fn max_component_sizes(&self, membership: &[u64]) -> Vec<usize> {
        assert_eq!(membership.len(), self.n, "membership universe mismatch");
        let mut largest = vec![0usize; self.lanes];
        for (v, &word) in membership.iter().enumerate() {
            let base = v * self.lanes;
            let mut w = word;
            while w != 0 {
                let t = w.trailing_zeros() as usize;
                w &= w - 1;
                let i = base + t;
                let e = self.node[i];
                if e < 0 {
                    largest[t] = largest[t].max((-e) as usize);
                }
            }
        }
        largest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unions_merge_components() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_components(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.num_components(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        assert_eq!(uf.component_size(1), 3);
        assert_eq!(uf.max_component_size(), 3);
    }

    #[test]
    fn empty_and_singleton() {
        let mut uf = UnionFind::new(0);
        assert_eq!(uf.max_component_size(), 0);
        let mut uf1 = UnionFind::new(1);
        assert_eq!(uf1.component_size(0), 1);
    }

    #[test]
    fn reset_restores_singletons_at_any_size() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.reset(6);
        assert_eq!(uf.num_components(), 6);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.component_size(3), 1);
        uf.reset(9); // grow
        assert_eq!(uf.len(), 9);
        assert_eq!(uf.num_components(), 9);
        uf.reset(2); // shrink
        assert_eq!(uf.len(), 2);
        assert_eq!(uf.max_component_size(), 1);
    }

    #[test]
    fn long_chain_path_halving() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 0..n as u32 - 1 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.num_components(), 1);
        assert_eq!(uf.component_size(0), n);
        // find after heavy unions must still terminate fast & correctly
        assert_eq!(uf.find(0), uf.find(n as u32 - 1));
    }

    #[test]
    fn lane_forests_are_independent() {
        let mut uf = LaneUnionFind::new();
        uf.reset(4, 3);
        uf.union(0, 0, 1);
        uf.union(0, 1, 2);
        uf.union(2, 2, 3);
        assert_eq!(uf.find(0, 0), uf.find(0, 2));
        assert_ne!(uf.find(1, 0), uf.find(1, 2), "lane 1 untouched");
        assert_eq!(uf.find(2, 2), uf.find(2, 3));
        // lane 0: {0,1,2} alive in lane 0 → largest 3; lane 1: only
        // node 3 alive → 1; lane 2: nodes 2,3 alive → 2
        let membership = [
            0b001u64, // node 0: lane 0
            0b001,    // node 1: lane 0
            0b101,    // node 2: lanes 0,2
            0b110,    // node 3: lanes 1,2
        ];
        assert_eq!(uf.max_component_sizes(&membership), vec![3, 1, 2]);
    }

    #[test]
    fn lane_reset_reuses_and_matches_scalar() {
        // each lane run against a scalar UnionFind oracle on the same
        // union sequence, across a reuse boundary
        let edges = [(0u32, 1u32), (1, 2), (3, 4), (5, 6), (4, 5)];
        let mut lane_uf = LaneUnionFind::new();
        for round in 0..2 {
            lane_uf.reset(7, 2);
            let mut oracle = UnionFind::new(7);
            for &(a, b) in &edges {
                lane_uf.union(1, a, b);
                oracle.union(a, b);
            }
            let all = vec![0b10u64; 7]; // everyone alive in lane 1 only
            let sizes = lane_uf.max_component_sizes(&all);
            assert_eq!(sizes[1], oracle.max_component_size(), "round {round}");
            assert_eq!(sizes[0], 0, "no one alive in lane 0, round {round}");
        }
    }
}
