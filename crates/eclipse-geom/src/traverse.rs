//! Reusable traversal state for the arena-based intersection indexes.
//!
//! Both [`crate::quadtree::HyperplaneQuadtree`] and
//! [`crate::cutting::CuttingTree`] walk their node arenas iteratively with an
//! explicit stack and deduplicate reported hyperplanes with a visited bitmap
//! (a hyperplane crossing many cells is stored in many leaves).  A
//! [`TraversalScratch`] owns both buffers so a steady-state probe performs no
//! heap allocations: the stack and bitmap are reused at their high-water
//! capacity, and the bitmap is left all-zero after every query by clearing
//! words during the result sweep.

/// Caller-provided scratch buffers for index queries.
///
/// One scratch serves any number of trees (of any size) sequentially; keep
/// one per worker thread when fanning probes out.
#[derive(Clone, Debug, Default)]
pub struct TraversalScratch {
    /// Explicit DFS stack of arena node indices.
    pub(crate) stack: Vec<u32>,
    /// Visited bitmap over hyperplane ids; all-zero between queries.
    visited: Vec<u64>,
    /// Gather buffer for a leaf's not-yet-marked entries, handed to the
    /// batched sign-test kernel
    /// ([`crate::hyperplane::HyperplaneSlab::filter_intersecting_into`]).
    pub(crate) pending: Vec<u32>,
    /// The kernel's output buffer (ids surviving the sign test).
    pub(crate) filtered: Vec<u32>,
}

/// How a node's cell relates to the query box.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CellRelation {
    /// No overlap: prune the subtree.
    Disjoint,
    /// Partial overlap: descend with exact per-entry tests at the leaves.
    Overlaps,
    /// Cell fully inside the query box: report the whole subtree without
    /// sign tests.
    Contained,
}

/// Classifies cell `idx` of a flat cell buffer (`2k` values per node: `k`
/// lower corner coordinates then `k` upper) against the query box.
#[inline]
pub(crate) fn classify_cell(cells: &[f64], idx: usize, qlo: &[f64], qhi: &[f64]) -> CellRelation {
    let k = qlo.len();
    let base = idx * 2 * k;
    let (lo, hi) = cells[base..base + 2 * k].split_at(k);
    let mut contained = true;
    for j in 0..k {
        if lo[j] > qhi[j] || qlo[j] > hi[j] {
            return CellRelation::Disjoint;
        }
        contained &= qlo[j] <= lo[j] && hi[j] <= qhi[j];
    }
    if contained {
        CellRelation::Contained
    } else {
        CellRelation::Overlaps
    }
}

impl TraversalScratch {
    /// A scratch with empty buffers (they grow to the tree size on first
    /// use).
    pub fn new() -> Self {
        TraversalScratch::default()
    }

    /// Prepares the scratch for a query over `len` hyperplanes: clears the
    /// stack and sizes the bitmap.  The bitmap is already all-zero — every
    /// query ends with [`TraversalScratch::drain_into`], which clears the
    /// words it sweeps.
    pub(crate) fn begin(&mut self, len: usize) {
        self.stack.clear();
        self.visited.resize(len.div_ceil(64), 0);
        // A previous query over a larger tree may have left excess (zeroed)
        // words; `resize` truncated them, so the invariant holds either way.
    }

    /// Whether hyperplane `i` was already reported during this query.
    #[inline]
    pub(crate) fn is_marked(&self, i: usize) -> bool {
        self.visited[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Marks hyperplane `i` as reported.
    #[inline]
    pub(crate) fn mark(&mut self, i: usize) {
        self.visited[i / 64] |= 1u64 << (i % 64);
    }

    /// Sweeps the bitmap into `out` in ascending id order, zeroing every word
    /// on the way — this is both the sorted-output pass (replacing the old
    /// sort + dedup) and the cleanup that re-establishes the all-zero
    /// invariant.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<usize>) {
        for (w, word) in self.visited.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(w * 64 + b);
                bits &= bits - 1;
            }
            *word = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_drain_leaves_bitmap_clear() {
        let mut s = TraversalScratch::new();
        s.begin(130);
        for i in [5usize, 64, 127, 129, 0] {
            assert!(!s.is_marked(i));
            s.mark(i);
            assert!(s.is_marked(i));
        }
        // Marking twice is idempotent.
        s.mark(64);
        let mut out = Vec::new();
        s.drain_into(&mut out);
        assert_eq!(out, vec![0, 5, 64, 127, 129]);
        // The bitmap is clear again, so a follow-up query starts fresh.
        s.begin(130);
        for i in 0..130 {
            assert!(!s.is_marked(i));
        }
        let mut out2 = Vec::new();
        s.drain_into(&mut out2);
        assert!(out2.is_empty());
    }

    #[test]
    fn begin_resizes_across_tree_sizes() {
        let mut s = TraversalScratch::new();
        s.begin(1000);
        s.mark(999);
        let mut out = Vec::new();
        s.drain_into(&mut out);
        assert_eq!(out, vec![999]);
        // One scratch serves trees of different sizes back to back: the
        // drain re-established the all-zero invariant, so shrinking and
        // regrowing exposes no stale marks.
        s.begin(10);
        s.mark(3);
        out.clear();
        s.drain_into(&mut out);
        assert_eq!(out, vec![3]);
        s.begin(1000);
        for i in 0..1000 {
            assert!(!s.is_marked(i));
        }
    }
}
