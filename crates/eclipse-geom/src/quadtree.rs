//! The line quadtree / hyperplane octree Intersection Index (§IV-B of the
//! paper).
//!
//! The index stores a set of hyperplanes (in the workspace: the *score
//! difference* hyperplanes of pairs of skyline points, living in the
//! `(d−1)`-dimensional weight-ratio space) inside a recursively subdivided
//! axis-aligned cell hierarchy.  Every internal node has `2^k` children (the
//! quadrants / octants of its cell); a cell is subdivided when more than
//! `max_capacity` hyperplanes cross it and the maximum depth has not been
//! reached.  Queries report exactly the stored hyperplanes intersecting an
//! axis-aligned query box (candidates are gathered from the leaves whose cells
//! intersect the box and then filtered with an exact hyperplane-box test, so
//! the result is never approximate).
//!
//! # Arena layout
//!
//! The tree is stored as a flat arena rather than boxed nodes: one `Vec` of
//! fixed-size node records (children referenced as a contiguous index range),
//! one shared entry slab holding every leaf's hyperplane ids, and one flat
//! buffer of cell corner coordinates.  The hyperplanes themselves live in a
//! [`HyperplaneSlab`] (structure-of-arrays coefficient rows), so the query
//! loop — an iterative descent with an explicit stack, visited-bitmap
//! deduplication and branchless box sign tests — touches only dense arrays.
//! Steady-state probes through [`HyperplaneQuadtree::query_into`] perform no
//! heap allocations.
//!
//! As the paper notes, the structure has very good average-case behaviour but
//! can degenerate to linear depth when all hyperplanes concentrate in the same
//! quadrant of every cell — exactly the worst case exercised by Figs. 13–14.
//! The [`crate::cutting`] module provides the counterpart with a bounded
//! worst case.

use eclipse_exec::ThreadPool;
use serde::{Deserialize, Serialize};

use crate::build::{build_levels, median_inplace, ArenaTree, Limits, PlanScratch};
use crate::hyperplane::{Hyperplane, HyperplaneSlab};
use crate::point::BoundingBox;
use crate::traverse::{classify_cell, CellRelation, TraversalScratch};

/// How an overfull cell is partitioned into children.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitRule {
    /// The classic quadtree rule: halve every non-degenerate axis at its
    /// midpoint, producing `2^k` congruent children.
    Midpoint,
    /// Data-adaptive rule: per node, the in-cell zero-crossings of the
    /// entries are measured along every axis.  When one axis carries nearly
    /// all of the crossing signal the cell is cut once, on that axis, at the
    /// median crossing (a cutting-tree-style split that tracks clustered,
    /// near-axis-perpendicular bundles instead of blindly halving space);
    /// otherwise every splittable axis is split at its median crossing
    /// (falling back to the midpoint on axes without crossings), so
    /// quadrant-style splits still land where the hyperplanes actually are.
    /// Deterministic — no randomness is consumed.
    Hybrid,
}

/// Construction parameters for [`HyperplaneQuadtree`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuadtreeConfig {
    /// Maximum number of hyperplanes a cell may hold before it is subdivided
    /// (the paper's example uses 3).
    pub max_capacity: usize,
    /// Hard limit on the subdivision depth, guarding against unbounded
    /// recursion when many hyperplanes pass through a common region.
    pub max_depth: usize,
    /// Global budget on the number of tree nodes.  Unlike a point quadtree,
    /// a *hyperplane* quadtree duplicates entries across every child their
    /// hyperplane crosses, so in high dimensions an unbounded tree can grow
    /// to `2^{k·depth}` nodes; once the budget is exhausted the remaining
    /// cells simply stay leaves (queries remain exact, only pruning quality
    /// degrades).
    pub max_nodes: usize,
    /// Global budget on the shared entry slab (the arena's dominant memory
    /// cost: every node stores the ids of the hyperplanes crossing its
    /// cell).  Subdivision stops once the slab reaches the budget; thanks to
    /// the breadth-first construction the cap degrades pruning uniformly
    /// (the slab may overshoot by the entries of cells already queued for
    /// subdivision, a small constant factor).
    pub max_entries: usize,
    /// How overfull cells are partitioned; see [`SplitRule`].
    pub split: SplitRule,
}

impl Default for QuadtreeConfig {
    fn default() -> Self {
        QuadtreeConfig {
            max_capacity: 8,
            max_depth: 16,
            max_nodes: 1 << 15,
            max_entries: 1 << 22,
            split: SplitRule::Hybrid,
        }
    }
}

/// Sentinel marking a leaf node (no children).
const NO_CHILDREN: u32 = u32::MAX;

/// One arena node: children as a contiguous index range, entries as a range
/// into the shared entry slab.
///
/// Every node — internal or leaf — records the ids of the hyperplanes
/// crossing its cell.  Leaves use the range for exact candidate filtering;
/// internal nodes use it to report their whole (deduplicated) subtree in one
/// pass when their cell is fully contained in the query box.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
struct Node {
    /// Arena index of the first child; [`NO_CHILDREN`] for leaves.
    first_child: u32,
    /// Number of children, laid out contiguously from `first_child`.
    child_count: u32,
    /// Start of this node's entry range in the shared slab.
    entries_start: u32,
    /// One past the end of the entry range.
    entries_end: u32,
}

/// A quadtree (2-D) / octree (k-D) over hyperplanes, stored as a flat arena.
///
/// The tree owns its hyperplanes in [`HyperplaneSlab`] form; construction
/// from a `&[Hyperplane]` slice copies the rows once.  [`query`] keeps the
/// historical slice-taking signature for compatibility (the slice is only
/// length-checked), while the hot path is [`query_into`], which reuses
/// caller-provided scratch.
///
/// [`query`]: HyperplaneQuadtree::query
/// [`query_into`]: HyperplaneQuadtree::query_into
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HyperplaneQuadtree {
    slab: HyperplaneSlab,
    nodes: Vec<Node>,
    /// Node cells, `2k` values per node: `k` lower corner coordinates, then
    /// `k` upper.
    cells: Vec<f64>,
    /// Shared entry slab: every leaf's hyperplane ids, concatenated.
    entries: Vec<u32>,
    root_cell: BoundingBox,
    config: QuadtreeConfig,
    max_depth_reached: usize,
}

impl HyperplaneQuadtree {
    /// Builds the index over `hyperplanes`, bounded by `cell` (hyperplanes
    /// not intersecting the root cell are simply never reported).
    pub fn build(hyperplanes: &[Hyperplane], cell: BoundingBox, config: QuadtreeConfig) -> Self {
        Self::build_from_slab(HyperplaneSlab::from_hyperplanes(hyperplanes), cell, config)
    }

    /// Builds the index over an already-constructed hyperplane slab, taking
    /// ownership of it (the cheap path for callers that assemble their rows
    /// directly, like the n-dimensional eclipse index).  Serial; see
    /// [`HyperplaneQuadtree::build_from_slab_with`] for the pool-aware entry
    /// point (both produce byte-identical arenas).
    pub fn build_from_slab(
        slab: HyperplaneSlab,
        cell: BoundingBox,
        config: QuadtreeConfig,
    ) -> Self {
        Self::build_from_slab_with(slab, cell, config, None)
    }

    /// Builds the index, optionally spreading per-node split planning over
    /// `pool`.
    ///
    /// Construction is the level-synchronous plan/stitch build of the
    /// private `build` module: nodes are allocated breadth-first and record
    /// their entries in the arena as they are allocated, so each level's
    /// frontier is a range of node ids.  Per-node child cells and entry
    /// partitions — the expensive sign tests — are *planned* into reusable
    /// flat scratch (in parallel when a pool is supplied), then *stitched*
    /// serially in frontier order (budget checks, contiguous child
    /// allocation, entry recording).  Planning is pure per node and the
    /// stitch replays the exact serial order, so the arena — its contents
    /// and its buffers' capacities — is identical for any thread count.
    ///
    /// Level order also matters for the node budget: when `max_nodes` runs
    /// out, a BFS fills every region of the root cell to the same depth, so
    /// the partially built tree prunes uniformly — a depth-first order would
    /// instead spend the whole budget on the first quadrant's subtree and
    /// leave the remaining quadrants as giant unpruned leaves.
    ///
    /// # Per-build midpoint fallback for [`SplitRule::Hybrid`]
    ///
    /// When most entries pass near one shared point (the clustered worst
    /// case), the census medians land on that point and every child of
    /// every cut inherits most of its parent's entries.  Each such split
    /// looks locally fine — it makes progress — but the duplication
    /// compounds level over level and exhausts `max_entries` well before
    /// the midpoint rule would, leaving a shallower, slower arena.  No
    /// per-node heuristic can see this (the damage is global), so the
    /// builder checks the *finished* tree instead: if a Hybrid build ran
    /// out of entry budget, the midpoint tree is built too and the arena
    /// with more nodes — the one whose budget went into pruning rather
    /// than duplication — wins (ties keep the census tree).  The fallback
    /// arena still advertises `SplitRule::Hybrid`, since this check is part
    /// of the rule: rebuilding from the carried config reproduces it
    /// byte-for-byte.  Builds that stay within budget never pay for it.
    pub fn build_from_slab_with(
        slab: HyperplaneSlab,
        cell: BoundingBox,
        config: QuadtreeConfig,
        pool: Option<&ThreadPool>,
    ) -> Self {
        let tree = Self::build_arena(slab, cell.clone(), config, pool);
        if tree.config.split == SplitRule::Hybrid && tree.entries.len() >= tree.config.max_entries {
            let mut midpoint_config = tree.config;
            midpoint_config.split = SplitRule::Midpoint;
            let mut midpoint = Self::build_arena(tree.slab.clone(), cell, midpoint_config, pool);
            if midpoint.nodes.len() > tree.nodes.len() {
                midpoint.config.split = SplitRule::Hybrid;
                return midpoint;
            }
        }
        tree
    }

    /// One budget-bounded level-synchronous arena build with the configured
    /// split rule, no fallback; see [`HyperplaneQuadtree::build_from_slab_with`].
    fn build_arena(
        slab: HyperplaneSlab,
        cell: BoundingBox,
        config: QuadtreeConfig,
        pool: Option<&ThreadPool>,
    ) -> Self {
        let mut all = Vec::new();
        slab.filter_all_intersecting_into(cell.lo(), cell.hi(), &mut all);
        let k = cell.dim();
        let mut tree = HyperplaneQuadtree {
            slab,
            nodes: Vec::new(),
            cells: Vec::new(),
            entries: Vec::new(),
            root_cell: cell.clone(),
            config,
            max_depth_reached: 0,
        };
        tree.alloc_node(cell.lo(), cell.hi());
        let limits = Limits {
            max_capacity: config.max_capacity,
            max_depth: config.max_depth,
            max_nodes: config.max_nodes,
            max_entries: config.max_entries,
            // A full quadrant split on every axis.
            max_children: 1usize << k.min(16),
        };
        build_levels(&mut tree, k, limits, &all, pool);
        tree
    }

    /// Appends a leaf placeholder for the cell `[lo, hi]` to the arena.
    fn alloc_node(&mut self, lo: &[f64], hi: &[f64]) {
        self.nodes.push(Node {
            first_child: NO_CHILDREN,
            child_count: 0,
            entries_start: 0,
            entries_end: 0,
        });
        self.cells.extend_from_slice(lo);
        self.cells.extend_from_slice(hi);
    }

    /// The configuration the tree was built with.
    pub fn config(&self) -> QuadtreeConfig {
        self.config
    }

    /// Number of hyperplanes the tree was built over.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// `true` when the tree indexes no hyperplanes.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Total number of tree nodes (diagnostic).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of entry-slab slots (diagnostic: the arena's dominant
    /// memory cost; every node stores the ids crossing its cell).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Deepest level created during construction (diagnostic; the worst-case
    /// experiments of Fig. 13 drive this towards `max_depth`).
    pub fn depth(&self) -> usize {
        self.max_depth_reached
    }

    /// Heap bytes owned by the arena: the hyperplane slab plus the node,
    /// cell-corner and entry buffers (counted at capacity) and the root
    /// cell's corners.  Exact up to allocator headers; used by the serving
    /// layer's memory accounting.
    pub fn heap_bytes(&self) -> usize {
        self.slab.heap_bytes()
            + self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.cells.capacity() * std::mem::size_of::<f64>()
            + self.entries.capacity() * std::mem::size_of::<u32>()
            + self.root_cell.heap_bytes()
    }

    /// The root cell.
    pub fn root_cell(&self) -> &BoundingBox {
        &self.root_cell
    }

    /// The hyperplane rows the tree indexes.
    pub fn slab(&self) -> &HyperplaneSlab {
        &self.slab
    }

    /// Returns the indices of all hyperplanes intersecting `query`, in
    /// ascending order and without duplicates.
    ///
    /// `hyperplanes` must be the same slice the tree was built from (the tree
    /// owns a slab copy of the rows; the slice is only length-checked).
    /// Allocates fresh scratch per call — repeated probing should use
    /// [`HyperplaneQuadtree::query_into`].
    ///
    /// # Panics
    /// Panics if `hyperplanes.len()` differs from the construction-time count.
    pub fn query(&self, hyperplanes: &[Hyperplane], query: &BoundingBox) -> Vec<usize> {
        assert_eq!(
            hyperplanes.len(),
            self.slab.len(),
            "query must use the hyperplane slice the index was built from"
        );
        let mut scratch = TraversalScratch::new();
        let mut out = Vec::new();
        self.query_into(query.lo(), query.hi(), &mut scratch, &mut out);
        out
    }

    /// The allocation-free query: appends the indices of all hyperplanes
    /// intersecting the box `[qlo, qhi]` to `out` (cleared first), in
    /// ascending order and without duplicates.  `scratch` is reused at its
    /// high-water capacity across probes.
    ///
    /// # Panics
    /// Panics if the corner slices do not match the root cell dimensionality.
    pub fn query_into(
        &self,
        qlo: &[f64],
        qhi: &[f64],
        scratch: &mut TraversalScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        self.mark_hits(qlo, qhi, scratch);
        scratch.drain_into(out);
    }

    /// The traversal behind [`HyperplaneQuadtree::query_into`]: marks every
    /// hyperplane intersecting the box in the scratch's visited bitmap.
    fn mark_hits(&self, qlo: &[f64], qhi: &[f64], scratch: &mut TraversalScratch) {
        assert_eq!(
            qlo.len(),
            self.root_cell.dim(),
            "query dimensionality mismatch"
        );
        assert_eq!(
            qhi.len(),
            self.root_cell.dim(),
            "query dimensionality mismatch"
        );
        scratch.begin(self.slab.len());
        scratch.stack.push(0);
        while let Some(idx) = scratch.stack.pop() {
            let idx = idx as usize;
            let node = self.nodes[idx];
            match classify_cell(&self.cells, idx, qlo, qhi) {
                CellRelation::Disjoint => {}
                CellRelation::Contained => {
                    // The cell lies inside the query box, so every hyperplane
                    // crossing the cell crosses the box: report this node's
                    // deduplicated entry list without descending or running a
                    // single sign test.
                    for &e in &self.entries[node.entries_start as usize..node.entries_end as usize]
                    {
                        scratch.mark(e as usize);
                    }
                }
                CellRelation::Overlaps if node.first_child == NO_CHILDREN => {
                    // Gather the not-yet-marked entries and sign-test them
                    // four at a time through the batched kernel; the buffers
                    // are taken out of the scratch for the duration (no
                    // allocation at steady state, same bit-exact decisions).
                    let mut pending = std::mem::take(&mut scratch.pending);
                    let mut filtered = std::mem::take(&mut scratch.filtered);
                    pending.clear();
                    pending.extend(
                        self.entries[node.entries_start as usize..node.entries_end as usize]
                            .iter()
                            .copied()
                            .filter(|&e| !scratch.is_marked(e as usize)),
                    );
                    filtered.clear();
                    self.slab
                        .filter_intersecting_into(&pending, qlo, qhi, &mut filtered);
                    for &e in &filtered {
                        scratch.mark(e as usize);
                    }
                    scratch.pending = pending;
                    scratch.filtered = filtered;
                }
                CellRelation::Overlaps => {
                    for c in node.first_child..node.first_child + node.child_count {
                        scratch.stack.push(c);
                    }
                }
            }
        }
    }
}

impl ArenaTree for HyperplaneQuadtree {
    type Split = ();

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn cells(&self) -> &[f64] {
        &self.cells
    }

    fn entries(&self) -> &[u32] {
        &self.entries
    }

    fn entry_range(&self, idx: u32) -> (usize, usize) {
        let node = &self.nodes[idx as usize];
        (node.entries_start as usize, node.entries_end as usize)
    }

    fn reach_depth(&mut self, depth: usize) {
        self.max_depth_reached = self.max_depth_reached.max(depth);
    }

    fn record_entries(&mut self, idx: u32, node_entries: &[u32]) {
        let start = self.entries.len() as u32;
        self.entries.extend_from_slice(node_entries);
        let node = &mut self.nodes[idx as usize];
        node.entries_start = start;
        node.entries_end = self.entries.len() as u32;
    }

    /// Plans the subdivision of one node: `None` when the cell cannot split
    /// (degenerate on every axis) or no partition makes progress (every
    /// child would inherit every entry).
    ///
    /// Under [`SplitRule::Hybrid`] a census partition that makes no progress
    /// — every median landing exactly on a point shared by all entries, so
    /// every child inherits every entry — is retried with the midpoint
    /// partition before the node is frozen into an oversized leaf.  Censuses
    /// that make *poor* progress (medians merely *near* a shared point, each
    /// child keeping most of the parent) are not second-guessed here: no
    /// per-node greedy rule can see that such cuts starve the whole build of
    /// entry budget, so that pathology is handled a level up by the
    /// per-build midpoint fallback in
    /// [`HyperplaneQuadtree::build_from_slab_with`].
    fn plan(
        &self,
        _idx: u32,
        lo: &[f64],
        hi: &[f64],
        entries: &[u32],
        scratch: &mut PlanScratch,
    ) -> Option<()> {
        if self.config.split == SplitRule::Hybrid
            && hybrid_cuts(&self.slab, lo, hi, entries, scratch)
            && scratch.partition(&self.slab, lo, hi, entries)
        {
            return Some(());
        }
        midpoint_cuts(lo, hi, &mut scratch.cuts);
        scratch.partition(&self.slab, lo, hi, entries).then_some(())
    }

    fn attach(&mut self, idx: u32, _split: (), child_cells: &[f64]) {
        let k = self.root_cell.dim();
        let first_child = self.nodes.len() as u32;
        let node = &mut self.nodes[idx as usize];
        node.first_child = first_child;
        node.child_count = (child_cells.len() / (2 * k)) as u32;
        for cell in child_cells.chunks_exact(2 * k) {
            self.alloc_node(&cell[..k], &cell[k..]);
        }
    }
}

/// Chooses the [`SplitRule::Hybrid`] cuts of the cell `[lo, hi]` into
/// `scratch.cuts`, or returns `false` when the census saw no crossing at all
/// (the midpoint rule then applies).
///
/// The census ([`PlanScratch::census`]) collects, per axis, the in-cell
/// zero-crossings of a strided entry sample, solved along the axis through
/// the cell centre — the same measurement the cutting tree's
/// [`crate::cutting`] cut selection uses.  When a single axis carries at
/// least 90% of all crossings *and* at least half the sampled entries cross
/// it, the bundle is effectively perpendicular to that axis and one median
/// cut separates it best (2 children); otherwise every splittable axis
/// splits at its own median crossing — midpoint when the axis saw no
/// crossings — which keeps the quadrant structure (needed to separate
/// diagonal bundles, which no single-axis cut can) while placing the split
/// planes where the data is.  When the measured cuts fail to separate
/// anything — a bundle through one shared point puts every median on that
/// point — the node is retried with the midpoint partition before giving
/// up.
fn hybrid_cuts(
    slab: &HyperplaneSlab,
    lo: &[f64],
    hi: &[f64],
    entries: &[u32],
    scratch: &mut PlanScratch,
) -> bool {
    let sampled = scratch.census(slab, lo, hi, entries);
    let crossings = &mut scratch.crossings;
    let total: usize = crossings.iter().map(Vec::len).sum();
    if total == 0 {
        return false;
    }
    let mut dominant = 0;
    for axis in 1..crossings.len() {
        if crossings[axis].len() > crossings[dominant].len() {
            dominant = axis;
        }
    }
    let dominant_count = crossings[dominant].len();
    scratch.cuts.clear();
    if dominant_count * 10 >= total * 9 && dominant_count * 2 >= sampled {
        // Crossings are strictly interior (EPS margin), so both halves keep
        // positive extent and the no-progress guard sees a genuine cut.
        scratch
            .cuts
            .push((dominant, median_inplace(&mut crossings[dominant])));
        return true;
    }
    for (axis, axis_crossings) in crossings.iter_mut().enumerate() {
        if hi[axis] - lo[axis] <= 0.0 {
            continue;
        }
        let at = if axis_crossings.is_empty() {
            0.5 * (lo[axis] + hi[axis])
        } else {
            median_inplace(axis_crossings)
        };
        scratch.cuts.push((axis, at));
    }
    true
}

/// The [`SplitRule::Midpoint`] cuts of the cell `[lo, hi]`: every axis of
/// positive extent halved at its midpoint (`2^k` congruent children).  Axes
/// with zero extent are not split; with every axis degenerate `cuts` stays
/// empty and the cell cannot be subdivided.
fn midpoint_cuts(lo: &[f64], hi: &[f64], cuts: &mut Vec<(usize, f64)>) {
    cuts.clear();
    for axis in 0..lo.len() {
        if hi[axis] - lo[axis] > 0.0 {
            cuts.push((axis, 0.5 * (lo[axis] + hi[axis])));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-D line `a·x + b·y + c = 0` as a hyperplane.
    fn line(a: f64, b: f64, c: f64) -> Hyperplane {
        Hyperplane::new(vec![a, b], c)
    }

    fn unit_box() -> BoundingBox {
        BoundingBox::new(vec![0.0, 0.0], vec![1.0, 1.0])
    }

    fn brute_force(hs: &[Hyperplane], q: &BoundingBox) -> Vec<usize> {
        (0..hs.len()).filter(|&i| hs[i].intersects_box(q)).collect()
    }

    #[test]
    fn midpoint_cuts_halve_every_non_degenerate_axis() {
        let mut cuts = Vec::new();
        midpoint_cuts(&[0.0, 0.0], &[1.0, 1.0], &mut cuts);
        assert_eq!(cuts, vec![(0, 0.5), (1, 0.5)]);
        // Degenerate cell cannot be subdivided.
        midpoint_cuts(&[0.5, 0.5], &[0.5, 0.5], &mut cuts);
        assert!(cuts.is_empty());
        // Cell flat on one axis splits only the other.
        midpoint_cuts(&[0.0, 0.5], &[1.0, 0.5], &mut cuts);
        assert_eq!(cuts, vec![(0, 0.5)]);
    }

    #[test]
    fn build_and_query_small() {
        // Diagonal and two horizontal-ish lines inside the unit box.
        let hs = vec![
            line(1.0, -1.0, 0.0),  // y = x
            line(0.0, 1.0, -0.25), // y = 0.25
            line(0.0, 1.0, -0.75), // y = 0.75
            line(1.0, 1.0, -10.0), // far away, never intersects the unit box
        ];
        let tree = HyperplaneQuadtree::build(&hs, unit_box(), QuadtreeConfig::default());
        assert_eq!(tree.len(), 4);
        assert!(!tree.is_empty());
        assert_eq!(tree.root_cell(), &unit_box());
        assert_eq!(tree.slab().len(), 4);
        let q = BoundingBox::new(vec![0.0, 0.0], vec![0.5, 0.5]);
        let got = tree.query(&hs, &q);
        assert_eq!(got, brute_force(&hs, &q));
        assert!(got.contains(&0));
        assert!(got.contains(&1));
        assert!(!got.contains(&3));
    }

    #[test]
    fn hybrid_census_falls_back_to_midpoint_on_shared_point_bundles() {
        // A pencil of lines through the single interior point (1.6, 1.6):
        // three vertical, three horizontal, two diagonal.  The crossing
        // census measures both per-axis medians at exactly 1.6, so the
        // hybrid quadrant corner lands on the shared point and every child
        // inherits every line — the clustered worst case.  The rule must
        // fall back to the midpoint partition (which sheds the axis-aligned
        // lines immediately) instead of freezing the root into one leaf.
        let hs = vec![
            line(1.0, 0.0, -1.6),
            line(1.0, 0.0, -1.6),
            line(1.0, 0.0, -1.6),
            line(0.0, 1.0, -1.6),
            line(0.0, 1.0, -1.6),
            line(0.0, 1.0, -1.6),
            line(1.0, -1.0, 0.0),
            line(1.0, 1.0, -3.2),
        ];
        let cell = BoundingBox::new(vec![0.0, 0.0], vec![4.0, 4.0]);
        let config = QuadtreeConfig {
            split: SplitRule::Hybrid,
            max_capacity: 2,
            ..QuadtreeConfig::default()
        };
        let tree = HyperplaneQuadtree::build(&hs, cell.clone(), config);
        assert!(
            tree.node_count() > 1,
            "inconclusive census must fall back to midpoint, not freeze the root"
        );
        // Probes stay exact, and a probe away from the pencil point no
        // longer scans the whole slab.
        for q in [
            BoundingBox::new(vec![0.1, 0.1], vec![0.4, 0.4]),
            BoundingBox::new(vec![3.0, 0.1], vec![3.4, 0.5]),
            BoundingBox::new(vec![1.5, 1.5], vec![1.7, 1.7]),
        ] {
            assert_eq!(tree.query(&hs, &q), brute_force(&hs, &q));
        }
    }

    #[test]
    fn query_whole_root_returns_everything_crossing_it() {
        let hs: Vec<Hyperplane> = (0..50)
            .map(|i| line(1.0, -1.0, -(i as f64) / 50.0))
            .collect();
        let tree = HyperplaneQuadtree::build(
            &hs,
            unit_box(),
            QuadtreeConfig {
                max_capacity: 4,
                max_depth: 12,
                ..QuadtreeConfig::default()
            },
        );
        let got = tree.query(&hs, &unit_box());
        assert_eq!(got, brute_force(&hs, &unit_box()));
        assert!(tree.node_count() > 1, "tree should have subdivided");
        assert!(tree.depth() >= 1);
    }

    #[test]
    fn query_into_reuses_scratch_across_probes() {
        let hs: Vec<Hyperplane> = (0..60)
            .map(|i| line(1.0, -1.0, -(i as f64) / 60.0))
            .collect();
        let tree = HyperplaneQuadtree::build(
            &hs,
            unit_box(),
            QuadtreeConfig {
                max_capacity: 4,
                ..QuadtreeConfig::default()
            },
        );
        let mut scratch = TraversalScratch::new();
        let mut out = Vec::new();
        for (x0, y0, side) in [(0.0, 0.0, 0.4), (0.5, 0.5, 0.3), (0.9, 0.1, 0.05)] {
            let q = BoundingBox::new(vec![x0, y0], vec![x0 + side, y0 + side]);
            tree.query_into(q.lo(), q.hi(), &mut scratch, &mut out);
            assert_eq!(out, brute_force(&hs, &q), "box {q:?}");
        }
    }

    #[test]
    fn query_agrees_with_brute_force_randomized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let hs: Vec<Hyperplane> = (0..200)
            .map(|_| {
                line(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect();
        let root = BoundingBox::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        let tree = HyperplaneQuadtree::build(
            &hs,
            root,
            QuadtreeConfig {
                max_capacity: 6,
                max_depth: 10,
                ..QuadtreeConfig::default()
            },
        );
        for _ in 0..25 {
            let x0 = rng.gen_range(-1.0..0.9);
            let y0 = rng.gen_range(-1.0..0.9);
            let q = BoundingBox::new(
                vec![x0, y0],
                vec![x0 + rng.gen_range(0.01..0.1), y0 + rng.gen_range(0.01..0.1)],
            );
            assert_eq!(tree.query(&hs, &q), brute_force(&hs, &q));
        }
    }

    #[test]
    fn three_dimensional_octree() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let hs: Vec<Hyperplane> = (0..100)
            .map(|_| {
                Hyperplane::new(
                    vec![
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    ],
                    rng.gen_range(-0.5..0.5),
                )
            })
            .collect();
        let root = BoundingBox::new(vec![-1.0, -1.0, -1.0], vec![1.0, 1.0, 1.0]);
        let tree = HyperplaneQuadtree::build(&hs, root, QuadtreeConfig::default());
        for _ in 0..10 {
            let lo: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..0.8)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.05..0.2)).collect();
            let q = BoundingBox::new(lo, hi);
            assert_eq!(tree.query(&hs, &q), brute_force(&hs, &q));
        }
    }

    #[test]
    fn empty_tree_queries_cleanly() {
        let hs: Vec<Hyperplane> = Vec::new();
        let tree = HyperplaneQuadtree::build(&hs, unit_box(), QuadtreeConfig::default());
        assert!(tree.is_empty());
        assert_eq!(tree.query(&hs, &unit_box()), Vec::<usize>::new());
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn clustered_lines_drive_depth_up() {
        // All lines pass very close to the same corner: under the classic
        // midpoint rule the quadtree keeps subdividing towards that corner
        // (the paper's worst case — pinned here to the rule it describes).
        let hs: Vec<Hyperplane> = (0..64).map(|i| line(1.0, -1.0, -1e-4 * i as f64)).collect();
        let cfg = QuadtreeConfig {
            max_capacity: 2,
            max_depth: 20,
            split: SplitRule::Midpoint,
            ..QuadtreeConfig::default()
        };
        let tree = HyperplaneQuadtree::build(&hs, unit_box(), cfg);
        assert!(
            tree.depth() >= 8,
            "clustered input should create a deep tree, got {}",
            tree.depth()
        );
        // Queries remain exact even in the degenerate case.
        let q = BoundingBox::new(vec![0.4, 0.4], vec![0.6, 0.6]);
        assert_eq!(tree.query(&hs, &q), brute_force(&hs, &q));
    }

    #[test]
    fn hybrid_split_tames_axis_aligned_clusters() {
        // A tight bundle of near-vertical lines at x ≈ 0.3: the midpoint
        // rule needs to bisect its way down to the 1e-4 spacing before
        // leaves thin out, while the hybrid rule sees all crossings on one
        // axis and cuts straight through the bundle's median every level.
        let hs: Vec<Hyperplane> = (0..64)
            .map(|i| line(1.0, 0.0, -0.3 - 1e-4 * i as f64))
            .collect();
        let build = |split| {
            HyperplaneQuadtree::build(
                &hs,
                unit_box(),
                QuadtreeConfig {
                    max_capacity: 2,
                    max_depth: 20,
                    split,
                    ..QuadtreeConfig::default()
                },
            )
        };
        let midpoint = build(SplitRule::Midpoint);
        let hybrid = build(SplitRule::Hybrid);
        assert!(
            hybrid.depth() < midpoint.depth(),
            "hybrid depth {} should undercut midpoint depth {}",
            hybrid.depth(),
            midpoint.depth()
        );
        for q in [
            BoundingBox::new(vec![0.29, 0.4], vec![0.31, 0.6]),
            BoundingBox::new(vec![0.0, 0.0], vec![0.01, 0.01]),
            unit_box(),
        ] {
            assert_eq!(hybrid.query(&hs, &q), brute_force(&hs, &q), "box {q:?}");
        }
        // The diagonal worst case stays exact under the hybrid rule too
        // (no axis-aligned rule can separate a diagonal bundle faster, but
        // correctness must not depend on the split geometry).
        let diag: Vec<Hyperplane> = (0..64).map(|i| line(1.0, -1.0, -1e-4 * i as f64)).collect();
        let tree = HyperplaneQuadtree::build(
            &diag,
            unit_box(),
            QuadtreeConfig {
                max_capacity: 2,
                max_depth: 20,
                split: SplitRule::Hybrid,
                ..QuadtreeConfig::default()
            },
        );
        let q = BoundingBox::new(vec![0.4, 0.4], vec![0.6, 0.6]);
        assert_eq!(tree.query(&diag, &q), brute_force(&diag, &q));
    }

    #[test]
    fn hybrid_split_agrees_with_brute_force_randomized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        // Mix of diagonal, near-vertical and degenerate rows.
        let mut hs: Vec<Hyperplane> = (0..200)
            .map(|_| {
                line(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect();
        hs.push(Hyperplane::new(vec![0.0, 0.0], 0.0));
        hs.push(Hyperplane::new(vec![0.0, 0.0], 1.0));
        for i in 0..40 {
            hs.push(line(1.0, 1e-6, -0.3 - 1e-5 * i as f64));
        }
        let root = BoundingBox::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        let tree = HyperplaneQuadtree::build(
            &hs,
            root,
            QuadtreeConfig {
                max_capacity: 4,
                max_depth: 12,
                split: SplitRule::Hybrid,
                ..QuadtreeConfig::default()
            },
        );
        for _ in 0..40 {
            // Query boxes stay inside the root cell: hyperplanes crossing a
            // box only outside the indexed region are by contract never
            // reported.
            let x0 = rng.gen_range(-1.0..0.7);
            let y0 = rng.gen_range(-1.0..0.7);
            let q = BoundingBox::new(
                vec![x0, y0],
                vec![x0 + rng.gen_range(0.01..0.3), y0 + rng.gen_range(0.01..0.3)],
            );
            assert_eq!(tree.query(&hs, &q), brute_force(&hs, &q), "box {q:?}");
        }
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        use eclipse_exec::ThreadPool;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31337);
        // Enough hyperplanes that the root frontier crosses the parallel
        // planning threshold.
        let hs: Vec<Hyperplane> = (0..5000)
            .map(|_| {
                line(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect();
        let root = BoundingBox::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        for split in [SplitRule::Midpoint, SplitRule::Hybrid] {
            let cfg = QuadtreeConfig {
                max_capacity: 16,
                max_depth: 10,
                split,
                ..QuadtreeConfig::default()
            };
            let serial = HyperplaneQuadtree::build(&hs, root.clone(), cfg);
            let pool = ThreadPool::with_threads(4);
            let parallel = HyperplaneQuadtree::build_from_slab_with(
                HyperplaneSlab::from_hyperplanes(&hs),
                root.clone(),
                cfg,
                Some(&pool),
            );
            assert_eq!(serial, parallel, "split rule {split:?}");
        }
    }

    #[test]
    fn node_budget_caps_the_arena() {
        let hs: Vec<Hyperplane> = (0..128)
            .map(|i| line(1.0, -1.0, -(i as f64) / 128.0))
            .collect();
        let cfg = QuadtreeConfig {
            max_capacity: 1,
            max_depth: 30,
            max_nodes: 64,
            ..QuadtreeConfig::default()
        };
        let tree = HyperplaneQuadtree::build(&hs, unit_box(), cfg);
        // The budget may be exceeded by at most one sibling group.
        assert!(tree.node_count() <= 64 + 4, "got {}", tree.node_count());
        // Queries are exact regardless of where construction stopped.
        let q = BoundingBox::new(vec![0.1, 0.1], vec![0.9, 0.9]);
        assert_eq!(tree.query(&hs, &q), brute_force(&hs, &q));
    }

    #[test]
    #[should_panic(expected = "hyperplane slice")]
    fn query_with_wrong_slice_panics() {
        let hs = vec![line(1.0, -1.0, 0.0)];
        let tree = HyperplaneQuadtree::build(&hs, unit_box(), QuadtreeConfig::default());
        let wrong: Vec<Hyperplane> = Vec::new();
        let _ = tree.query(&wrong, &unit_box());
    }
}
