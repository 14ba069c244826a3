//! `NodeSet`: a fixed-universe bitset over node ids.
//!
//! Fault injection, pruning, and percolation all manipulate *subsets of
//! a fixed node universe*. Representing those subsets as `u64`-word
//! bitsets keeps membership tests O(1), set algebra word-parallel, and
//! lets every graph algorithm run on a `(graph, alive-set)` pair
//! without ever rebuilding adjacency structure.
//!
//! The population count is maintained eagerly so `len()` is O(1); all
//! mutating operations keep it consistent.

use crate::node::NodeId;

const WORD_BITS: usize = 64;

/// A subset of the node universe `0..capacity`.
#[derive(Clone, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
    /// Universe size (number of valid node ids).
    capacity: usize,
    /// Cached population count.
    len: usize,
}

impl std::fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeSet")
            .field("capacity", &self.capacity)
            .field("len", &self.len)
            .finish()
    }
}

impl NodeSet {
    /// Empty subset of a universe with `capacity` nodes.
    pub fn empty(capacity: usize) -> Self {
        NodeSet {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
            len: 0,
        }
    }

    /// Full subset `{0, .., capacity-1}`.
    pub fn full(capacity: usize) -> Self {
        let mut words = vec![!0u64; capacity.div_ceil(WORD_BITS)];
        Self::clear_tail(&mut words, capacity);
        NodeSet {
            words,
            capacity,
            len: capacity,
        }
    }

    /// Builds a set from an iterator of node ids (duplicates allowed).
    pub fn from_iter<I: IntoIterator<Item = NodeId>>(capacity: usize, iter: I) -> Self {
        let mut s = Self::empty(capacity);
        for v in iter {
            s.insert(v);
        }
        s
    }

    fn clear_tail(words: &mut [u64], capacity: usize) {
        let rem = capacity % WORD_BITS;
        if rem != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Universe size.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The raw backing words, LSB-first within each word: bit
    /// `v % 64` of word `v / 64` is node `v`. Bits at or above
    /// `capacity` are always zero. The bit-parallel Monte-Carlo
    /// engine reads these to transpose per-trial masks into
    /// trial-lane-major words.
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Number of members (O(1); maintained eagerly).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    ///
    /// # Panics
    /// Panics (debug) if `v` is outside the universe.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        let v = v as usize;
        debug_assert!(
            v < self.capacity,
            "node {v} outside universe {}",
            self.capacity
        );
        (self.words[v / WORD_BITS] >> (v % WORD_BITS)) & 1 == 1
    }

    /// Inserts `v`; returns true if it was newly added.
    #[inline]
    pub fn insert(&mut self, v: NodeId) -> bool {
        let i = v as usize;
        assert!(
            i < self.capacity,
            "node {i} outside universe {}",
            self.capacity
        );
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if *w & mask == 0 {
            *w |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes `v`; returns true if it was present.
    #[inline]
    pub fn remove(&mut self, v: NodeId) -> bool {
        let i = v as usize;
        assert!(
            i < self.capacity,
            "node {i} outside universe {}",
            self.capacity
        );
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if *w & mask != 0 {
            *w &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Makes `self` a copy of `other`, reusing the allocation when the
    /// universes match (the hot path for per-trial "pending" masks).
    pub fn copy_from(&mut self, other: &NodeSet) {
        if self.capacity != other.capacity {
            *self = other.clone();
            return;
        }
        self.words.copy_from_slice(&other.words);
        self.len = other.len;
    }

    /// Removes and returns the smallest member, scanning from
    /// `*word_cursor` (which advances past exhausted words and is
    /// never rewound).
    ///
    /// This is the component-sweep primitive: callers guarantee no
    /// member exists below the cursor's word (true when members are
    /// only ever *removed* between calls), which makes a full sweep
    /// O(words + members) instead of O(words · components).
    pub fn pop_first_from(&mut self, word_cursor: &mut usize) -> Option<NodeId> {
        while *word_cursor < self.words.len() {
            let w = self.words[*word_cursor];
            if w == 0 {
                *word_cursor += 1;
                continue;
            }
            let bit = w.trailing_zeros() as usize;
            self.words[*word_cursor] = w & (w - 1);
            self.len -= 1;
            return Some((*word_cursor * WORD_BITS + bit) as NodeId);
        }
        None
    }

    /// Fills the set with independent Bernoulli(`keep`) members, one
    /// word at a time.
    ///
    /// Decides all 64 members of a word together by lazily comparing
    /// uniform bits against the binary expansion of `keep` (MSB
    /// first): a member is kept iff its uniform variate is below the
    /// threshold, and each random word resolves the comparison for
    /// roughly half the still-undecided members, so a word costs
    /// ~log₂(64)+2 RNG draws instead of 64. The marginal distribution
    /// is exactly Bernoulli(round(keep·2⁶⁴)/2⁶⁴), independent across
    /// members.
    pub fn fill_random<R: rand::RngCore + ?Sized>(&mut self, keep: f64, rng: &mut R) {
        assert!(
            (0.0..=1.0).contains(&keep),
            "keep probability {keep} out of range"
        );
        // threshold t with P(member) = t / 2^64 (computed in u128: 2^64
        // itself must survive the conversion for keep = 1.0)
        let t128 = (keep * 18_446_744_073_709_551_616.0) as u128;
        if t128 >= 1u128 << 64 {
            self.words.fill(!0u64);
            Self::clear_tail(&mut self.words, self.capacity);
            self.len = self.capacity;
            return;
        }
        let t = t128 as u64;
        for word in self.words.iter_mut() {
            let mut out = 0u64;
            let mut undecided = !0u64;
            for k in (0..u64::BITS).rev() {
                let u = rng.next_u64();
                if (t >> k) & 1 == 1 {
                    out |= undecided & !u;
                    undecided &= u;
                } else {
                    undecided &= !u;
                }
                if undecided == 0 {
                    break;
                }
            }
            // members still undecided matched every threshold bit:
            // their variate equals t, and "equal" is not "below"
            *word = out;
        }
        Self::clear_tail(&mut self.words, self.capacity);
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    /// Panics if universes differ.
    pub fn union_with(&mut self, other: &NodeSet) {
        self.assert_same_universe(other);
        let mut len = 0usize;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
            len += a.count_ones() as usize;
        }
        self.len = len;
    }

    /// In-place intersection with `other`.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        self.assert_same_universe(other);
        let mut len = 0usize;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
            len += a.count_ones() as usize;
        }
        self.len = len;
    }

    /// In-place difference `self \ other`.
    pub fn difference_with(&mut self, other: &NodeSet) {
        self.assert_same_universe(other);
        let mut len = 0usize;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
            len += a.count_ones() as usize;
        }
        self.len = len;
    }

    /// Complement within the universe, as a new set.
    pub fn complement(&self) -> NodeSet {
        let mut out = NodeSet::empty(self.capacity);
        self.complement_into(&mut out);
        out
    }

    /// Writes the complement into `out`, reusing its allocation
    /// (allocation-free when `out` already has this universe size).
    ///
    /// # Panics
    /// Panics if universes differ.
    pub fn complement_into(&self, out: &mut NodeSet) {
        self.assert_same_universe(out);
        for (o, w) in out.words.iter_mut().zip(&self.words) {
            *o = !w;
        }
        Self::clear_tail(&mut out.words, self.capacity);
        out.len = self.capacity - self.len;
    }

    /// Complement within the universe, in place (allocation-free).
    /// The fault-driven lane path samples a *failed* set and flips it
    /// into the alive mask without a second buffer.
    pub fn complement_in_place(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        Self::clear_tail(&mut self.words, self.capacity);
        self.len = self.capacity - self.len;
    }

    /// Size of the intersection without materializing it.
    pub fn intersection_len(&self, other: &NodeSet) -> usize {
        self.assert_same_universe(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// True if `self` and `other` share no members.
    pub fn is_disjoint(&self, other: &NodeSet) -> bool {
        self.assert_same_universe(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// True if every member of `self` is in `other`.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        self.assert_same_universe(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterator over members in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collects members into a vector (increasing order).
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }

    /// An arbitrary member, if non-empty.
    pub fn first(&self) -> Option<NodeId> {
        self.iter().next()
    }

    #[inline]
    fn assert_same_universe(&self, other: &NodeSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "NodeSet universe mismatch: {} vs {}",
            self.capacity, other.capacity
        );
    }
}

/// Member iterator for [`NodeSet`].
pub struct Iter<'a> {
    set: &'a NodeSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some((self.word_idx * WORD_BITS + bit) as NodeId)
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Transposes a 64×64 bit matrix in place: after the call, bit `j` of
/// `a[i]` is the old bit `i` of `a[j]` (LSB-first, matching
/// [`NodeSet::as_words`]).
///
/// This is the kernel behind the lane-transposed Monte-Carlo engine:
/// 64 per-trial masks (one `NodeSet` word each, node-major) become 64
/// per-node lane words (bit `t` = alive in trial `t`) in
/// 6·64 word operations instead of 64·64 bit probes.
pub fn transpose64(a: &mut [u64; 64]) {
    // Recursive block swap (Hacker's Delight 7-3, re-derived for
    // LSB-first columns): at level j, swap the high-j-bit halves of
    // rows without bit j against the low-j-bit halves of rows with
    // bit j.
    let mut j = 32usize;
    while j != 0 {
        // mask with the high j bits of each 2j-bit block set
        let m = (!0u64 / ((1u64 << j) | 1)) << j;
        let mut k = 0usize;
        while k < 64 {
            let t = (a[k] ^ (a[k | j] << j)) & m;
            a[k] ^= t;
            a[k | j] ^= t >> j;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = NodeSet::empty(100);
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        let f = NodeSet::full(100);
        assert_eq!(f.len(), 100);
        assert!(f.contains(0) && f.contains(99));
        assert_eq!(f.iter().count(), 100);
    }

    #[test]
    fn full_clears_tail_bits() {
        // capacity not a multiple of 64: complement/full must not leak
        // phantom members beyond the universe.
        let f = NodeSet::full(70);
        assert_eq!(f.len(), 70);
        assert_eq!(f.iter().max(), Some(69));
        let c = f.complement();
        assert!(c.is_empty());
    }

    #[test]
    fn insert_remove_len() {
        let mut s = NodeSet::empty(10);
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(9));
        assert_eq!(s.len(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert_eq!(s.len(), 1);
        assert_eq!(s.to_vec(), vec![9]);
    }

    #[test]
    fn set_algebra() {
        let a = NodeSet::from_iter(130, [1, 2, 3, 64, 65, 129]);
        let b = NodeSet::from_iter(130, [2, 3, 4, 65, 128]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 2, 3, 4, 64, 65, 128, 129]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![2, 3, 65]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), vec![1, 64, 129]);
        assert_eq!(a.intersection_len(&b), 3);
    }

    #[test]
    fn complement_roundtrip() {
        let a = NodeSet::from_iter(67, [0, 13, 66]);
        let c = a.complement();
        assert_eq!(c.len(), 64);
        assert!(!c.contains(13));
        assert!(c.contains(1));
        assert_eq!(c.complement(), a);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = NodeSet::from_iter(20, [1, 2]);
        let b = NodeSet::from_iter(20, [1, 2, 5]);
        let c = NodeSet::from_iter(20, [7, 8]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn copy_from_reuses_and_resizes() {
        let a = NodeSet::from_iter(130, [1, 64, 129]);
        let mut b = NodeSet::from_iter(130, [7]);
        b.copy_from(&a);
        assert_eq!(b, a);
        let mut c = NodeSet::empty(5); // universe mismatch: falls back to clone
        c.copy_from(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn pop_first_from_drains_in_order() {
        let mut s = NodeSet::from_iter(200, [3, 64, 65, 199]);
        let mut cursor = 0;
        let mut popped = Vec::new();
        while let Some(v) = s.pop_first_from(&mut cursor) {
            popped.push(v);
        }
        assert_eq!(popped, vec![3, 64, 65, 199]);
        assert!(s.is_empty());
        assert_eq!(s.pop_first_from(&mut cursor), None);
    }

    #[test]
    fn fill_random_extremes_and_density() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(11);
        let mut s = NodeSet::empty(1000);
        s.fill_random(1.0, &mut rng);
        assert_eq!(s.len(), 1000, "keep = 1 keeps everything");
        s.fill_random(0.0, &mut rng);
        assert!(s.is_empty(), "keep = 0 keeps nothing");
        // density concentrates around p, and no phantom tail members
        let mut total = 0usize;
        for _ in 0..40 {
            s.fill_random(0.7, &mut rng);
            assert!(s.iter().all(|v| (v as usize) < 1000));
            assert_eq!(s.len(), s.iter().count(), "cached len consistent");
            total += s.len();
        }
        let mean = total as f64 / 40.0;
        assert!((mean - 700.0).abs() < 25.0, "mean {mean}");
        // deterministic for a fixed seed
        let mut r1 = SmallRng::seed_from_u64(5);
        let mut r2 = SmallRng::seed_from_u64(5);
        let mut a = NodeSet::empty(333);
        let mut b = NodeSet::empty(333);
        a.fill_random(0.4, &mut r1);
        b.fill_random(0.4, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn fill_random_per_position_unbiased() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        // every bit position of the word trick must carry the same
        // probability — catch bit-order mistakes in the threshold walk
        let mut rng = SmallRng::seed_from_u64(99);
        let trials = 600;
        let mut counts = [0u32; 64];
        let mut s = NodeSet::empty(64);
        for _ in 0..trials {
            s.fill_random(0.5, &mut rng);
            for v in s.iter() {
                counts[v as usize] += 1;
            }
        }
        for (pos, &c) in counts.iter().enumerate() {
            let freq = c as f64 / trials as f64;
            assert!((freq - 0.5).abs() < 0.12, "position {pos}: freq {freq}");
        }
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics() {
        let mut a = NodeSet::empty(10);
        let b = NodeSet::empty(11);
        a.union_with(&b);
    }

    #[test]
    fn complement_in_place_matches_complement() {
        for cap in [0usize, 1, 63, 64, 65, 130] {
            let mut s = NodeSet::empty(cap);
            for v in (0..cap).step_by(3) {
                s.insert(v as NodeId);
            }
            let expect = s.complement();
            s.complement_in_place();
            assert_eq!(s, expect, "cap {cap}");
            assert_eq!(s.len(), expect.len(), "cap {cap}");
        }
    }

    #[test]
    fn transpose64_moves_single_bits() {
        let mut a = [0u64; 64];
        a[3] = 1 << 17; // (row 3, col 17)
        a[0] = 1; // (0, 0) stays on the diagonal
        transpose64(&mut a);
        let mut expect = [0u64; 64];
        expect[17] = 1 << 3;
        expect[0] = 1;
        assert_eq!(a, expect);
    }

    #[test]
    fn transpose64_is_an_involution_on_random_matrices() {
        use rand::rngs::SmallRng;
        use rand::{RngCore, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x7A75);
        let mut a = [0u64; 64];
        for w in &mut a {
            *w = rng.next_u64();
        }
        let orig = a;
        transpose64(&mut a);
        // spot-check the transposition law on every bit
        for (i, row) in orig.iter().enumerate() {
            for (j, col) in a.iter().enumerate() {
                assert_eq!((col >> i) & 1, (row >> j) & 1, "bit ({i},{j})");
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig, "transpose twice = identity");
    }
}
