//! Binary space partition of the CAN key space `[0,1)^d`, with an
//! **incrementally maintained zone-adjacency engine**.
//!
//! Zones are the leaves of a binary split tree; joins split a leaf at
//! the midpoint of the next dimension (cyclic, as in CAN), leaves
//! merge sibling pairs. All split coordinates are dyadic rationals, so
//! `f64` comparisons below are exact.
//!
//! The adjacency engine is what makes 10k+-peer churn tractable: the
//! neighbor list of every live zone is kept current through splits and
//! merges by touching only the affected zone's neighborhood (a split
//! retargets the old zone's links onto whichever half still touches
//! each neighbor; a merge unions the two halves' lists), instead of
//! re-testing all O(zones²) box pairs per operation. On top of the
//! lists sit two exact indexes: degree buckets with a lazy max pointer
//! (`depart=degree` churn pops its victim in O(ties) instead of a
//! quadratic rescan) and a depth-bucketed sibling-pair stack (the CAN
//! takeover rule's "deepest leaf pair" in amortized O(1) instead of a
//! full-tree walk). [`naive_adjacency`] keeps the old
//! recompute-from-scratch path alive as the equivalence oracle the
//! property tests check every incremental state against.

use fx_graph::dyncon::ChurnTrace;
use fx_trace::{Histogram, Target};

// Per-operation link-update distributions (`FXNET_TRACE=overlay`):
// how many adjacency links one split / one merge rewrites. One
// relaxed atomic load per operation when tracing is off.
static TRACE_SPLIT_LINKS: Histogram = Histogram::new(Target::Overlay, "split_links");
static TRACE_MERGE_LINKS: Histogram = Histogram::new(Target::Overlay, "merge_links");

/// Arena index of a tree node.
pub type NodeIdx = usize;

/// Peer identifier (stable across its lifetime in the overlay).
pub type PeerId = u32;

/// Sentinel parent index of the root.
const NO_PARENT: NodeIdx = usize::MAX;

/// A node of the split tree.
#[derive(Debug, Clone)]
pub enum ZNode {
    /// A zone owned by one peer.
    Leaf {
        /// Owning peer.
        owner: PeerId,
    },
    /// An internal split along `dim` at the midpoint of its box.
    Internal {
        /// Split dimension.
        dim: usize,
        /// Children: `[low half, high half]`.
        children: [NodeIdx; 2],
    },
    /// Freed slot (after a merge).
    Dead,
}

/// An axis-aligned zone box.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneBox {
    /// Inclusive lower corner.
    pub lo: Vec<f64>,
    /// Exclusive upper corner.
    pub hi: Vec<f64>,
}

impl ZoneBox {
    /// The unit cube of dimension `d`.
    pub fn unit(d: usize) -> Self {
        ZoneBox {
            lo: vec![0.0; d],
            hi: vec![1.0; d],
        }
    }

    /// Volume of the box.
    pub fn volume(&self) -> f64 {
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).product()
    }

    /// True if the boxes share a (d−1)-dimensional face, with
    /// wraparound in every dimension (CAN's key space is a torus).
    pub fn touches(&self, other: &ZoneBox) -> bool {
        let d = self.lo.len();
        let mut abut_dim = None;
        for i in 0..d {
            let direct = self.hi[i] == other.lo[i] || other.hi[i] == self.lo[i];
            let wrap = (self.lo[i] == 0.0 && other.hi[i] == 1.0)
                || (other.lo[i] == 0.0 && self.hi[i] == 1.0);
            // full-span dimensions never abut (they already overlap)
            let full = (self.lo[i] == 0.0 && self.hi[i] == 1.0)
                || (other.lo[i] == 0.0 && other.hi[i] == 1.0);
            if (direct || wrap) && !full {
                let overlap_rest = (0..d)
                    .all(|j| j == i || overlaps(self.lo[j], self.hi[j], other.lo[j], other.hi[j]));
                if overlap_rest {
                    abut_dim = Some(i);
                    break;
                }
            }
        }
        abut_dim.is_some()
    }
}

/// Positive-measure interval overlap.
fn overlaps(al: f64, ah: f64, bl: f64, bh: f64) -> bool {
    al < bh && bl < ah
}

/// The split tree plus the incrementally maintained zone adjacency.
#[derive(Debug, Clone)]
pub struct Bsp {
    /// Key-space dimension.
    pub d: usize,
    nodes: Vec<ZNode>,
    root: NodeIdx,
    /// Parent arena index per node (`NO_PARENT` for the root). Fixed
    /// at creation: arena slots never move.
    parent: Vec<NodeIdx>,
    /// Depth per node (root = 0). Fixed at creation.
    depth: Vec<u32>,
    /// Geometry per node. Fixed at creation: a slot's box is fully
    /// determined by its tree position under midpoint splits.
    bounds: Vec<ZoneBox>,
    /// Live adjacency: for each live leaf, the arena indices of the
    /// zones sharing a (d−1)-face with it (empty for non-leaves).
    neighbors: Vec<Vec<NodeIdx>>,
    /// Live leaves, in registration order (the dense zone order of
    /// [`Bsp::zones`] and the snapshot graph).
    leaves: Vec<NodeIdx>,
    /// Arena index → position in `leaves` (undefined for non-leaves).
    leaf_pos: Vec<usize>,
    /// Exact degree buckets over the live leaves.
    deg_buckets: Vec<Vec<NodeIdx>>,
    /// Arena index → position within its degree bucket.
    deg_pos: Vec<usize>,
    /// Upper bound on the max live degree (lazily decayed on query).
    max_degree_bound: usize,
    /// Lazy stack of sibling-leaf pair parents, bucketed by depth
    /// (stale entries are skipped on pop).
    pair_stack: Vec<Vec<NodeIdx>>,
    /// Upper bound on the deepest pair depth (lazily decayed).
    max_pair_depth: usize,
    /// Lifetime count of incremental adjacency-link updates (links
    /// created or retargeted by splits and merges) — the maintenance
    /// cost the campaign layer journals.
    adj_updates: u64,
    /// Optional peer-level churn event recorder (see
    /// [`Bsp::start_recording`]). Boxed: recording is opt-in and the
    /// common no-trace path should stay one pointer wide.
    recorder: Option<Box<ChurnTrace>>,
}

/// A materialized zone: owner + box + leaf index.
#[derive(Debug, Clone)]
pub struct Zone {
    /// Arena index of the leaf.
    pub idx: NodeIdx,
    /// Owning peer.
    pub owner: PeerId,
    /// Geometry.
    pub bounds: ZoneBox,
    /// Depth of the leaf (root = 0).
    pub depth: usize,
}

/// From-scratch O(zones²) adjacency recomputation — the pre-engine
/// code path, kept as the **test oracle** the incremental structure is
/// checked against: entry `i` lists (sorted) the zone indices touching
/// `zones[i]` on a (d−1)-face.
pub fn naive_adjacency(zones: &[Zone]) -> Vec<Vec<usize>> {
    let n = zones.len();
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if zones[i].bounds.touches(&zones[j].bounds) {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for row in &mut adj {
        row.sort_unstable();
    }
    adj
}

impl Bsp {
    /// A single zone covering the whole space, owned by `owner`.
    pub fn new(d: usize, owner: PeerId) -> Self {
        assert!(d >= 1, "dimension must be ≥ 1");
        let mut bsp = Bsp {
            d,
            nodes: vec![ZNode::Leaf { owner }],
            root: 0,
            parent: vec![NO_PARENT],
            depth: vec![0],
            bounds: vec![ZoneBox::unit(d)],
            neighbors: vec![Vec::new()],
            leaves: Vec::new(),
            leaf_pos: vec![usize::MAX],
            deg_buckets: vec![Vec::new()],
            deg_pos: vec![usize::MAX],
            max_degree_bound: 0,
            pair_stack: vec![Vec::new()],
            max_pair_depth: 0,
            adj_updates: 0,
            recorder: None,
        };
        bsp.register_leaf(0, Vec::new());
        bsp
    }

    /// Number of live zones (= peers).
    pub fn num_zones(&self) -> usize {
        self.leaves.len()
    }

    /// Collects all zones with geometry and depth, in the maintained
    /// dense zone order (the node order of the snapshot graph).
    pub fn zones(&self) -> Vec<Zone> {
        self.leaves
            .iter()
            .map(|&idx| {
                let ZNode::Leaf { owner } = self.nodes[idx] else {
                    unreachable!("registered leaf is a leaf")
                };
                Zone {
                    idx,
                    owner,
                    bounds: self.bounds[idx].clone(),
                    depth: self.depth[idx] as usize,
                }
            })
            .collect()
    }

    /// The arena index of the zone at dense position `pos` (the
    /// [`Bsp::zones`] order).
    pub fn leaf_at(&self, pos: usize) -> NodeIdx {
        self.leaves[pos]
    }

    /// Dense position of a live leaf in the [`Bsp::zones`] order.
    pub fn position_of(&self, leaf: NodeIdx) -> usize {
        debug_assert!(matches!(self.nodes[leaf], ZNode::Leaf { .. }));
        self.leaf_pos[leaf]
    }

    /// Owner of a live leaf.
    pub fn leaf_owner(&self, leaf: NodeIdx) -> PeerId {
        let ZNode::Leaf { owner } = self.nodes[leaf] else {
            panic!("not a leaf")
        };
        owner
    }

    /// Iterates the live zones as `(arena idx, owner, degree)`, in
    /// dense zone order — the allocation-free view departure scoring
    /// runs over.
    pub fn leaf_entries(&self) -> impl Iterator<Item = (NodeIdx, PeerId, usize)> + '_ {
        self.leaves.iter().map(|&idx| {
            let ZNode::Leaf { owner } = self.nodes[idx] else {
                unreachable!()
            };
            (idx, owner, self.neighbors[idx].len())
        })
    }

    /// Live neighbor counts in dense zone order, read straight off the
    /// maintained lists (no box tests).
    pub fn degrees(&self) -> Vec<usize> {
        self.leaves
            .iter()
            .map(|&idx| self.neighbors[idx].len())
            .collect()
    }

    /// The maintained adjacency in dense zone order, each row sorted —
    /// directly comparable against the [`naive_adjacency`] oracle.
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        self.leaves
            .iter()
            .map(|&idx| {
                let mut row: Vec<usize> = self.neighbors[idx]
                    .iter()
                    .map(|&nb| self.leaf_pos[nb])
                    .collect();
                row.sort_unstable();
                row
            })
            .collect()
    }

    /// Neighbor arena indices of a live leaf.
    pub fn leaf_neighbors(&self, leaf: NodeIdx) -> &[NodeIdx] {
        &self.neighbors[leaf]
    }

    /// The current maximum zone degree (lazily decays the bucket
    /// pointer; O(1) amortized).
    pub fn max_zone_degree(&mut self) -> usize {
        while self.max_degree_bound > 0 && self.deg_buckets[self.max_degree_bound].is_empty() {
            self.max_degree_bound -= 1;
        }
        self.max_degree_bound
    }

    /// The max-degree zone from the maintained degree index; ties go
    /// to the smallest (longest-lived) owner id. `None` on an empty
    /// partition (never happens with ≥ 1 zone).
    pub fn max_degree_leaf(&mut self) -> Option<NodeIdx> {
        let d = self.max_zone_degree();
        self.deg_buckets[d]
            .iter()
            .copied()
            .min_by_key(|&idx| self.leaf_owner(idx))
    }

    /// Lifetime count of incremental adjacency-link updates performed
    /// by splits and merges — the engine's maintenance cost.
    pub fn adj_updates(&self) -> u64 {
        self.adj_updates
    }

    /// Starts recording peer-level churn events into a
    /// [`ChurnTrace`], seeding `t = 0` with the current partition as
    /// the baseline: every live owner and every adjacency pair is
    /// turned on. Subsequent splits/merges/handovers emit the exact
    /// peer-edge deltas; call [`Bsp::trace_tick`] once per churn
    /// operation and [`Bsp::take_trace`] to collect the log.
    pub fn start_recording(&mut self) {
        let mut tr = ChurnTrace::new();
        for &leaf in &self.leaves {
            let ZNode::Leaf { owner } = self.nodes[leaf] else {
                unreachable!("registered leaf is a leaf")
            };
            tr.node_on(owner);
        }
        for &leaf in &self.leaves {
            let ZNode::Leaf { owner } = self.nodes[leaf] else {
                unreachable!()
            };
            for &nb in &self.neighbors[leaf] {
                let ZNode::Leaf { owner: other } = self.nodes[nb] else {
                    unreachable!()
                };
                tr.edge_on(owner, other);
            }
        }
        self.recorder = Some(Box::new(tr));
    }

    /// Advances the recorder's clock (no-op when not recording).
    pub fn trace_tick(&mut self) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.tick();
        }
    }

    /// Detaches and returns the recorder (if any).
    pub fn take_trace(&mut self) -> Option<ChurnTrace> {
        self.recorder.take().map(|b| *b)
    }

    /// Finds the leaf containing `point`, returning `(leaf, depth)`.
    pub fn locate(&self, point: &[f64]) -> (NodeIdx, usize) {
        assert_eq!(point.len(), self.d);
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                ZNode::Leaf { .. } => return (idx, self.depth[idx] as usize),
                ZNode::Internal { dim, children } => {
                    let b = &self.bounds[idx];
                    let mid = 0.5 * (b.lo[*dim] + b.hi[*dim]);
                    idx = if point[*dim] < mid {
                        children[0]
                    } else {
                        children[1]
                    };
                }
                ZNode::Dead => unreachable!("dead node reachable from root"),
            }
        }
    }

    /// Splits the leaf containing `point`: the old owner keeps the low
    /// half, `new_owner` takes the high half (CAN splits round-robin
    /// by depth: `dim = depth mod d`). Adjacency is updated
    /// incrementally: each neighbor of the split zone is re-tested
    /// against the two halves only.
    pub fn split_at(&mut self, point: &[f64], new_owner: PeerId) {
        let (leaf, _) = self.locate(point);
        self.split_leaf(leaf, new_owner);
    }

    fn split_leaf(&mut self, leaf: NodeIdx, new_owner: PeerId) {
        let ZNode::Leaf { owner } = self.nodes[leaf] else {
            unreachable!("split target must be a leaf")
        };
        let depth = self.depth[leaf];
        let dim = depth as usize % self.d;
        let parent_box = self.bounds[leaf].clone();
        let mid = 0.5 * (parent_box.lo[dim] + parent_box.hi[dim]);
        let mut lo_box = parent_box.clone();
        lo_box.hi[dim] = mid;
        let mut hi_box = parent_box;
        hi_box.lo[dim] = mid;

        if let Some(rec) = self.recorder.as_deref_mut() {
            // the joiner appears, wired to the old owner across the
            // fresh split plane; per-neighbor deltas follow below
            rec.node_on(new_owner);
            rec.edge_on(owner, new_owner);
        }
        let old_nbrs = std::mem::take(&mut self.neighbors[leaf]);
        self.unregister_leaf(leaf, old_nbrs.len());
        let lo_child = self.push_node(ZNode::Leaf { owner }, leaf, depth + 1, lo_box);
        let hi_child = self.push_node(ZNode::Leaf { owner: new_owner }, leaf, depth + 1, hi_box);
        self.nodes[leaf] = ZNode::Internal {
            dim,
            children: [lo_child, hi_child],
        };

        // Retarget each old neighbor's link onto whichever half still
        // touches it. A neighbor of the whole zone must touch at least
        // one half (the shared face is covered by the two halves), so
        // the (false, false) arm is unreachable; it is kept as a
        // defensive removal.
        let mut lo_n = Vec::with_capacity(old_nbrs.len() + 1);
        let mut hi_n = Vec::with_capacity(old_nbrs.len() + 1);
        for &nbr in &old_nbrs {
            let t_lo = self.bounds[lo_child].touches(&self.bounds[nbr]);
            let t_hi = self.bounds[hi_child].touches(&self.bounds[nbr]);
            debug_assert!(t_lo || t_hi, "split neighbor lost by both halves");
            let old_deg = self.neighbors[nbr].len();
            let list = &mut self.neighbors[nbr];
            let pos = list
                .iter()
                .position(|&x| x == leaf)
                .expect("adjacency is symmetric");
            match (t_lo, t_hi) {
                (true, true) => {
                    list[pos] = lo_child;
                    list.push(hi_child);
                    lo_n.push(nbr);
                    hi_n.push(nbr);
                }
                (true, false) => {
                    list[pos] = lo_child;
                    lo_n.push(nbr);
                }
                (false, true) => {
                    list[pos] = hi_child;
                    hi_n.push(nbr);
                }
                (false, false) => {
                    list.swap_remove(pos);
                }
            }
            if let Some(rec) = self.recorder.as_deref_mut() {
                let ZNode::Leaf { owner: nbr_owner } = self.nodes[nbr] else {
                    unreachable!("neighbors of a leaf are leaves")
                };
                match (t_lo, t_hi) {
                    // (true, false): the old owner's edge survives on
                    // the low half — nothing changes at peer level
                    (true, true) => rec.edge_on(new_owner, nbr_owner),
                    (true, false) => {}
                    (false, true) => {
                        rec.edge_off(owner, nbr_owner);
                        rec.edge_on(new_owner, nbr_owner);
                    }
                    (false, false) => rec.edge_off(owner, nbr_owner),
                }
            }
            let new_deg = self.neighbors[nbr].len();
            if new_deg != old_deg {
                self.bucket_remove(nbr, old_deg);
                self.bucket_insert(nbr, new_deg);
            }
        }
        // the two halves always share the split plane
        debug_assert!(self.bounds[lo_child].touches(&self.bounds[hi_child]));
        lo_n.push(hi_child);
        hi_n.push(lo_child);
        self.adj_updates += (lo_n.len() + hi_n.len()) as u64;
        TRACE_SPLIT_LINKS.record((lo_n.len() + hi_n.len()) as u64);
        self.register_leaf(lo_child, lo_n);
        self.register_leaf(hi_child, hi_n);
        // `leaf` is now an internal node with two leaf children
        self.push_pair(leaf);
    }

    /// Removes the peer owning the leaf `leaf` (CAN departure).
    ///
    /// If the sibling is a leaf, the pair merges and the sibling owner
    /// absorbs the zone. Otherwise the deepest sibling-leaf pair
    /// elsewhere merges, freeing one peer to take over the departing
    /// zone — the classic rectangle-preserving handover. Both paths
    /// update only the merged pair's neighborhood.
    pub fn remove_leaf(&mut self, leaf: NodeIdx) {
        assert!(matches!(self.nodes[leaf], ZNode::Leaf { .. }), "not a leaf");
        if self.leaves.len() <= 1 {
            panic!("cannot remove the last zone");
        }
        let parent = self.parent[leaf];
        debug_assert_ne!(parent, NO_PARENT, "non-root leaf has a parent");
        let ZNode::Internal { children, .. } = self.nodes[parent] else {
            unreachable!()
        };
        let sibling = if children[0] == leaf {
            children[1]
        } else {
            children[0]
        };
        let ZNode::Leaf { owner: depart } = self.nodes[leaf] else {
            unreachable!("asserted leaf above")
        };
        if let ZNode::Leaf { owner: sib_owner } = self.nodes[sibling] {
            // direct merge (closes the departing owner's edges)
            self.merge_pair(parent, sib_owner);
            if let Some(rec) = self.recorder.as_deref_mut() {
                rec.node_off(depart);
            }
            return;
        }
        // handover: merge the deepest leaf pair, reassign the freed
        // owner to the departing zone (geometry unchanged, so its
        // adjacency carries over untouched)
        let pair = self.pop_deepest_pair();
        // the pair cannot be `parent` (its sibling child is internal),
        // so it never contains `leaf`
        debug_assert_ne!(pair, parent);
        let ZNode::Internal { children: pc, .. } = self.nodes[pair] else {
            unreachable!()
        };
        let ZNode::Leaf { owner: keep } = self.nodes[pc[0]] else {
            unreachable!()
        };
        let ZNode::Leaf { owner: freed } = self.nodes[pc[1]] else {
            unreachable!()
        };
        self.merge_pair(pair, keep);
        self.nodes[leaf] = ZNode::Leaf { owner: freed };
        if let Some(rec) = self.recorder.as_deref_mut() {
            // owner reassignment: the zone's adjacency is untouched,
            // but at peer level every link retargets from the
            // departing owner to the freed one
            for &x in &self.neighbors[leaf] {
                let ZNode::Leaf { owner: ox } = self.nodes[x] else {
                    unreachable!("neighbors of a leaf are leaves")
                };
                rec.edge_off(depart, ox);
                rec.edge_on(freed, ox);
            }
            rec.node_off(depart);
        }
    }

    /// Merges the two leaf children of `p` into `p` itself, owned by
    /// `keep_owner`. The merged zone's adjacency is the union of the
    /// children's lists; each affected neighbor is retargeted in
    /// place.
    fn merge_pair(&mut self, p: NodeIdx, keep_owner: PeerId) {
        let ZNode::Internal { children, .. } = self.nodes[p] else {
            unreachable!("merge target must be internal")
        };
        let [a, b] = children;
        let ZNode::Leaf { owner: owner_a } = self.nodes[a] else {
            unreachable!("merge children are leaves")
        };
        let ZNode::Leaf { owner: owner_b } = self.nodes[b] else {
            unreachable!("merge children are leaves")
        };
        let na = std::mem::take(&mut self.neighbors[a]);
        let nb = std::mem::take(&mut self.neighbors[b]);
        self.unregister_leaf(a, na.len());
        self.unregister_leaf(b, nb.len());
        self.nodes[a] = ZNode::Dead;
        self.nodes[b] = ZNode::Dead;
        self.nodes[p] = ZNode::Leaf { owner: keep_owner };

        // merged neighborhood = (adj(a) ∪ adj(b)) \ {a, b}; every
        // member touches the union box on the same shared face
        let mut merged: Vec<NodeIdx> = Vec::with_capacity(na.len() + nb.len());
        for &x in na.iter().filter(|&&x| x != b) {
            merged.push(x);
        }
        for &x in nb.iter().filter(|&&x| x != a) {
            if !merged.contains(&x) {
                merged.push(x);
            }
        }
        if let Some(rec) = self.recorder.as_deref_mut() {
            // Peer-level deltas: the sibling edge and every edge of
            // the losing owner close; the surviving owner inherits the
            // union (re-opens of already-open edges are no-ops).
            let lose = if owner_a == keep_owner {
                owner_b
            } else {
                owner_a
            };
            let lose_nbrs = if owner_a == keep_owner { &nb } else { &na };
            rec.edge_off(owner_a, owner_b);
            for &x in lose_nbrs.iter().filter(|&&x| x != a && x != b) {
                let ZNode::Leaf { owner: ox } = self.nodes[x] else {
                    unreachable!("neighbors of a leaf are leaves")
                };
                rec.edge_off(lose, ox);
            }
            for &x in &merged {
                let ZNode::Leaf { owner: ox } = self.nodes[x] else {
                    unreachable!("merged neighbors are leaves")
                };
                rec.edge_on(keep_owner, ox);
            }
        }
        for &x in &merged {
            let old_deg = self.neighbors[x].len();
            let list = &mut self.neighbors[x];
            list.retain(|&y| y != a && y != b);
            list.push(p);
            let new_deg = self.neighbors[x].len();
            if new_deg != old_deg {
                self.bucket_remove(x, old_deg);
                self.bucket_insert(x, new_deg);
            }
        }
        self.adj_updates += merged.len() as u64;
        TRACE_MERGE_LINKS.record(merged.len() as u64);
        self.register_leaf(p, merged);
        // p turning into a leaf may complete a sibling-leaf pair one
        // level up
        let pp = self.parent[p];
        if pp != NO_PARENT && self.is_pair(pp) {
            self.push_pair(pp);
        }
    }

    /// Allocates a fresh arena slot with its static metadata.
    fn push_node(&mut self, node: ZNode, parent: NodeIdx, depth: u32, bounds: ZoneBox) -> NodeIdx {
        let idx = self.nodes.len();
        self.nodes.push(node);
        self.parent.push(parent);
        self.depth.push(depth);
        self.bounds.push(bounds);
        self.neighbors.push(Vec::new());
        self.leaf_pos.push(usize::MAX);
        self.deg_pos.push(usize::MAX);
        idx
    }

    /// Registers `idx` as a live leaf with neighbor list `nbrs`
    /// (appends to the dense zone order and files it in the degree
    /// index).
    fn register_leaf(&mut self, idx: NodeIdx, nbrs: Vec<NodeIdx>) {
        self.leaf_pos[idx] = self.leaves.len();
        self.leaves.push(idx);
        let deg = nbrs.len();
        self.neighbors[idx] = nbrs;
        self.bucket_insert(idx, deg);
    }

    /// Unregisters a live leaf currently filed at degree `deg`.
    fn unregister_leaf(&mut self, idx: NodeIdx, deg: usize) {
        let pos = self.leaf_pos[idx];
        self.leaves.swap_remove(pos);
        if let Some(&moved) = self.leaves.get(pos) {
            self.leaf_pos[moved] = pos;
        }
        self.leaf_pos[idx] = usize::MAX;
        self.bucket_remove(idx, deg);
    }

    fn bucket_insert(&mut self, idx: NodeIdx, deg: usize) {
        if self.deg_buckets.len() <= deg {
            self.deg_buckets.resize_with(deg + 1, Vec::new);
        }
        self.deg_pos[idx] = self.deg_buckets[deg].len();
        self.deg_buckets[deg].push(idx);
        if deg > self.max_degree_bound {
            self.max_degree_bound = deg;
        }
    }

    fn bucket_remove(&mut self, idx: NodeIdx, deg: usize) {
        let pos = self.deg_pos[idx];
        self.deg_buckets[deg].swap_remove(pos);
        if let Some(&moved) = self.deg_buckets[deg].get(pos) {
            self.deg_pos[moved] = pos;
        }
        self.deg_pos[idx] = usize::MAX;
    }

    /// True when both children of `idx` are leaves (a mergeable pair).
    fn is_pair(&self, idx: NodeIdx) -> bool {
        match &self.nodes[idx] {
            ZNode::Internal { children, .. } => children
                .iter()
                .all(|&c| matches!(self.nodes[c], ZNode::Leaf { .. })),
            _ => false,
        }
    }

    fn push_pair(&mut self, idx: NodeIdx) {
        let d = self.depth[idx] as usize;
        if self.pair_stack.len() <= d {
            self.pair_stack.resize_with(d + 1, Vec::new);
        }
        self.pair_stack[d].push(idx);
        if d > self.max_pair_depth {
            self.max_pair_depth = d;
        }
    }

    /// Pops a deepest mergeable pair from the lazy stack (stale
    /// entries — nodes that stopped being pairs since their push — are
    /// discarded on the way). Always succeeds with ≥ 2 zones.
    fn pop_deepest_pair(&mut self) -> NodeIdx {
        loop {
            while let Some(idx) = self.pair_stack[self.max_pair_depth].pop() {
                if self.is_pair(idx) {
                    return idx;
                }
            }
            assert!(
                self.max_pair_depth > 0,
                "no mergeable pair in a tree with ≥ 2 zones"
            );
            self.max_pair_depth -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_tile_the_space() {
        let mut bsp = Bsp::new(2, 0);
        bsp.split_at(&[0.7, 0.7], 1);
        bsp.split_at(&[0.2, 0.2], 2);
        bsp.split_at(&[0.9, 0.9], 3);
        let zones = bsp.zones();
        assert_eq!(zones.len(), 4);
        let total: f64 = zones.iter().map(|z| z.bounds.volume()).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // owners distinct
        let mut owners: Vec<u32> = zones.iter().map(|z| z.owner).collect();
        owners.sort_unstable();
        owners.dedup();
        assert_eq!(owners.len(), 4);
    }

    #[test]
    fn locate_agrees_with_geometry() {
        let mut bsp = Bsp::new(2, 0);
        bsp.split_at(&[0.6, 0.5], 1); // split dim 0 at 0.5
        let (leaf_lo, _) = bsp.locate(&[0.1, 0.9]);
        let (leaf_hi, _) = bsp.locate(&[0.9, 0.1]);
        assert_ne!(leaf_lo, leaf_hi);
        let zones = bsp.zones();
        for z in zones {
            if z.idx == leaf_lo {
                assert!(z.bounds.hi[0] <= 0.5 + 1e-12);
            }
        }
    }

    #[test]
    fn direct_merge_on_sibling_leaf() {
        let mut bsp = Bsp::new(2, 0);
        bsp.split_at(&[0.9, 0.9], 1);
        let (leaf, _) = bsp.locate(&[0.9, 0.9]);
        bsp.remove_leaf(leaf);
        assert_eq!(bsp.num_zones(), 1);
        let z = &bsp.zones()[0];
        assert_eq!(z.owner, 0);
        assert!((z.bounds.volume() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn handover_preserves_tiling() {
        let mut bsp = Bsp::new(2, 0);
        // build an unbalanced tree so a handover is needed
        bsp.split_at(&[0.9, 0.9], 1);
        bsp.split_at(&[0.9, 0.9], 2);
        bsp.split_at(&[0.9, 0.9], 3);
        // remove owner 0's zone (its sibling is an internal subtree)
        let (leaf0, _) = bsp.locate(&[0.1, 0.1]);
        bsp.remove_leaf(leaf0);
        let zones = bsp.zones();
        assert_eq!(zones.len(), 3);
        let total: f64 = zones.iter().map(|z| z.bounds.volume()).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // owner 0 must be gone
        assert!(zones.iter().all(|z| z.owner != 0));
    }

    #[test]
    fn touches_with_wraparound() {
        let a = ZoneBox {
            lo: vec![0.0, 0.0],
            hi: vec![0.5, 0.5],
        };
        let b = ZoneBox {
            lo: vec![0.5, 0.0],
            hi: vec![1.0, 0.5],
        };
        let c = ZoneBox {
            lo: vec![0.5, 0.5],
            hi: vec![1.0, 1.0],
        };
        assert!(a.touches(&b)); // direct abutment in dim 0
        assert!(a.touches(&b) && b.touches(&a));
        assert!(!a.touches(&c)); // corner contact only
                                 // wraparound: a's lo[0]=0, b's hi[0]=1 ⇒ also adjacent around
                                 // the torus in dim 0 (same pair, two faces)
        let d = ZoneBox {
            lo: vec![0.0, 0.5],
            hi: vec![0.5, 1.0],
        };
        assert!(a.touches(&d)); // dim-1 abutment
        assert!(c.touches(&d));
    }

    #[test]
    #[should_panic(expected = "last zone")]
    fn cannot_remove_last() {
        let mut bsp = Bsp::new(2, 0);
        let (leaf, _) = bsp.locate(&[0.5, 0.5]);
        bsp.remove_leaf(leaf);
    }

    /// The incremental lists must equal the O(zones²) oracle after
    /// every operation of a scripted split/remove sequence.
    #[test]
    fn incremental_adjacency_matches_oracle_stepwise() {
        let mut bsp = Bsp::new(2, 0);
        let points = [
            [0.7, 0.7],
            [0.2, 0.2],
            [0.9, 0.9],
            [0.1, 0.8],
            [0.6, 0.3],
            [0.4, 0.9],
            [0.8, 0.1],
        ];
        for (i, p) in points.iter().enumerate() {
            bsp.split_at(p, i as PeerId + 1);
            assert_eq!(bsp.adjacency(), naive_adjacency(&bsp.zones()), "split {i}");
        }
        // remove zones one by one (both merge paths get exercised)
        while bsp.num_zones() > 1 {
            let victim = bsp.leaf_at(bsp.num_zones() / 2);
            bsp.remove_leaf(victim);
            assert_eq!(
                bsp.adjacency(),
                naive_adjacency(&bsp.zones()),
                "after removal at {} zones",
                bsp.num_zones()
            );
        }
    }

    #[test]
    fn degree_index_tracks_max_and_breaks_ties_by_owner() {
        let mut bsp = Bsp::new(2, 0);
        for (i, p) in [[0.7, 0.7], [0.2, 0.2], [0.9, 0.9], [0.1, 0.8]]
            .iter()
            .enumerate()
        {
            bsp.split_at(p, i as PeerId + 1);
        }
        let degs = bsp.degrees();
        let max = *degs.iter().max().unwrap();
        assert_eq!(bsp.max_zone_degree(), max);
        let leaf = bsp.max_degree_leaf().unwrap();
        assert_eq!(bsp.leaf_neighbors(leaf).len(), max);
        // the reported victim is the smallest-owner zone at max degree
        let best = bsp
            .leaf_entries()
            .filter(|&(_, _, d)| d == max)
            .map(|(_, owner, _)| owner)
            .min()
            .unwrap();
        assert_eq!(bsp.leaf_owner(leaf), best);
    }

    /// Peer-graph snapshot (each peer owns exactly one zone, so the
    /// peer graph equals the zone-adjacency graph): alive, largest
    /// component, component count, isolated count.
    fn snapshot(bsp: &Bsp) -> (u32, u32, u32, u32) {
        let adj = bsp.adjacency();
        let n = adj.len();
        let mut seen = vec![false; n];
        let (mut comps, mut largest) = (0u32, 0u32);
        for s in 0..n {
            if seen[s] {
                continue;
            }
            comps += 1;
            let mut stack = vec![s];
            seen[s] = true;
            let mut size = 0u32;
            while let Some(v) = stack.pop() {
                size += 1;
                for &w in &adj[v] {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            largest = largest.max(size);
        }
        let isolated = adj.iter().filter(|row| row.is_empty()).count() as u32;
        (n as u32, largest, comps, isolated)
    }

    /// The recorded churn trace, fed through the offline dyncon
    /// engine, must reproduce the stepwise peer-graph connectivity —
    /// through splits, direct merges, and handover reassignments.
    #[test]
    fn recorded_trace_replays_connectivity() {
        let mut bsp = Bsp::new(2, 0);
        // pre-grow (outside the trace), then record from this baseline
        for (i, p) in [[0.7, 0.7], [0.2, 0.2], [0.9, 0.9]].iter().enumerate() {
            bsp.split_at(p, i as PeerId + 1);
        }
        bsp.start_recording();
        let mut expect = vec![snapshot(&bsp)];

        let script: &[(&str, [f64; 2], PeerId)] = &[
            ("split", [0.1, 0.8], 4),
            ("split", [0.6, 0.3], 5),
            ("remove", [0.9, 0.9], 0), // deep zone: direct merge
            ("split", [0.8, 0.1], 6),
            ("remove", [0.2, 0.2], 0), // shallow zone: handover path
            ("remove", [0.1, 0.8], 0),
        ];
        for &(op, p, id) in script {
            bsp.trace_tick();
            match op {
                "split" => bsp.split_at(&p, id),
                _ => {
                    let (leaf, _) = bsp.locate(&p);
                    bsp.remove_leaf(leaf);
                }
            }
            expect.push(snapshot(&bsp));
        }

        let trace = bsp.take_trace().expect("recording was on").finalize();
        let curve = fx_graph::dyncon::solve_curve(&trace);
        assert_eq!(curve.len(), expect.len());
        for (t, &(alive, largest, comps, isolated)) in expect.iter().enumerate() {
            assert_eq!(curve.alive[t], alive, "alive at t={t}");
            assert_eq!(curve.largest[t], largest, "largest at t={t}");
            assert_eq!(curve.components[t], comps, "components at t={t}");
            assert_eq!(curve.isolated[t], isolated, "isolated at t={t}");
        }
    }

    #[test]
    fn adj_updates_counter_is_monotone() {
        let mut bsp = Bsp::new(3, 0);
        let mut last = bsp.adj_updates();
        for i in 0..6u32 {
            bsp.split_at(&[0.3, 0.6, 0.2], i + 1);
            assert!(bsp.adj_updates() > last, "split must record link work");
            last = bsp.adj_updates();
        }
        let victim = bsp.leaf_at(0);
        bsp.remove_leaf(victim);
        assert!(bsp.adj_updates() >= last, "merges record link work too");
    }
}
