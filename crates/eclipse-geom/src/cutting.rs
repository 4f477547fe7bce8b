//! The cutting-tree Intersection Index (§IV-B of the paper) — a
//! deterministic, data-adaptive implementation.
//!
//! Chazelle's deterministic (1/t)-cuttings give the textbook worst-case
//! guarantee but, as the paper itself notes, "are theoretical in nature and
//! involve large constant factors"; the paper therefore implements the index
//! with a probabilistic scheme (random sampling of intersection vertices and
//! a Voronoi partition of the sampled points).  We follow the same spirit
//! with a structure that is easier to make *exact*, because every cell is an
//! axis-aligned box and the hyperplane-box test is a sign test:
//!
//! * the space is partitioned by a binary tree of axis-aligned cuts;
//! * at every node the cut is measured from the hyperplanes crossing the
//!   cell: along every axis, through the cell centre, the zero-crossings of
//!   a deterministic strided sample of the cell's entries (every entry up to
//!   256, then every `len/256`-th) are collected, and the axis carrying the
//!   most crossings is cut at their median — so regions dense in hyperplanes
//!   are cut more finely, the property the paper's Voronoi sampling is
//!   after, and the tree is a pure function of its input;
//! * leaves store the hyperplanes crossing their cell, and queries gather
//!   candidates from the leaves intersecting the query box and filter them
//!   with an exact hyperplane-box test.
//!
//! Like [`crate::quadtree`], the tree is stored as a flat arena: fixed-size
//! node records in one `Vec` (the two children of a cut allocated as an
//! adjacent pair), leaf entries in one shared slab, cell corners in one flat
//! buffer, and the hyperplanes in a [`HyperplaneSlab`] so the
//! candidate-filter loop runs branchless over dense coefficient rows.
//! Steady-state probes through [`CuttingTree::query_into`] perform no heap
//! allocations.
//!
//! Unlike the quadtree, the depth of this tree is bounded by `max_depth`
//! *and* the median splits keep it balanced even when all hyperplanes crowd
//! into one corner of the root cell — which is exactly the worst-case
//! scenario of Figs. 13–14 where CUTTING must beat QUAD.

use eclipse_exec::ThreadPool;
use serde::{Deserialize, Serialize};

use crate::approx::EPS;
use crate::build::{build_levels, median_inplace, ArenaTree, Limits, PlanScratch};
use crate::hyperplane::{Hyperplane, HyperplaneSlab};
use crate::point::BoundingBox;
use crate::traverse::{classify_cell, CellRelation, TraversalScratch};

/// Construction parameters for [`CuttingTree`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CuttingTreeConfig {
    /// Maximum number of hyperplanes a leaf may hold before it is cut.
    pub max_capacity: usize,
    /// Hard depth limit.
    pub max_depth: usize,
    /// Global budget on the number of tree nodes; once exhausted the
    /// remaining cells stay leaves (queries remain exact).
    pub max_nodes: usize,
    /// Global budget on the shared entry slab (every node stores the ids of
    /// the hyperplanes crossing its cell); see
    /// [`crate::quadtree::QuadtreeConfig::max_entries`].
    pub max_entries: usize,
}

impl Default for CuttingTreeConfig {
    fn default() -> Self {
        CuttingTreeConfig {
            max_capacity: 8,
            max_depth: 24,
            max_nodes: 1 << 16,
            max_entries: 1 << 22,
        }
    }
}

/// Sentinel marking a leaf node (no children).
const NO_CHILD: u32 = u32::MAX;

/// One arena node: an axis-aligned cut with its two children allocated as an
/// adjacent pair (`low == high − 1`), or a leaf.
///
/// Every node — internal or leaf — records the ids of the hyperplanes
/// crossing its cell in the shared entry slab.  Leaves use the range for
/// exact candidate filtering; internal nodes use it to report their whole
/// (deduplicated) subtree in one pass when their cell is fully contained in
/// the query box.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
struct Node {
    /// Cut axis (meaningful for internal nodes only).
    axis: u32,
    /// Cut coordinate along `axis`.
    at: f64,
    /// Arena index of the low-side child; [`NO_CHILD`] for leaves.
    low: u32,
    /// Arena index of the high-side child.
    high: u32,
    /// This node's entry range in the shared slab.
    entries_start: u32,
    entries_end: u32,
}

/// A cutting tree over hyperplanes in k-dimensional space, stored
/// as a flat arena.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CuttingTree {
    slab: HyperplaneSlab,
    nodes: Vec<Node>,
    /// Node cells, `2k` values per node: `k` lower corner coordinates, then
    /// `k` upper.
    cells: Vec<f64>,
    /// Shared entry slab: every leaf's hyperplane ids, concatenated.
    entries: Vec<u32>,
    root_cell: BoundingBox,
    config: CuttingTreeConfig,
    max_depth_reached: usize,
}

impl CuttingTree {
    /// Builds the index over `hyperplanes`, bounded by `cell`.
    pub fn build(hyperplanes: &[Hyperplane], cell: BoundingBox, config: CuttingTreeConfig) -> Self {
        Self::build_from_slab(HyperplaneSlab::from_hyperplanes(hyperplanes), cell, config)
    }

    /// Builds the index over an already-constructed hyperplane slab, taking
    /// ownership of it.  Serial; see
    /// [`CuttingTree::build_from_slab_with`] for the pool-aware entry point
    /// (both produce byte-identical arenas).
    pub fn build_from_slab(
        slab: HyperplaneSlab,
        cell: BoundingBox,
        config: CuttingTreeConfig,
    ) -> Self {
        Self::build_from_slab_with(slab, cell, config, None)
    }

    /// Builds the index, optionally spreading per-node split planning over
    /// `pool`.
    ///
    /// Construction is the level-synchronous plan/stitch build of the
    /// private `build` module: nodes are allocated breadth-first and record
    /// their entries in the arena as they are allocated, so each level's
    /// frontier is a range of node ids.  Per node, the cut is chosen and
    /// the entries are partitioned between the two halves — the expensive
    /// sign tests — into reusable flat scratch (in parallel when a pool is
    /// supplied), then *stitched* serially in frontier order (budget checks,
    /// adjacent child-pair allocation, entry recording).  The arena, its
    /// contents and its buffers' capacities, is identical for any thread
    /// count.
    ///
    /// Levels are processed in budget-sized *chunks* (each cut allocates
    /// exactly two children, so a chunk never overruns `max_nodes` by more
    /// than one node's pair) and capped in entries so the planning scratch
    /// stays small; the level where a budget fills shrinks its chunks so at
    /// most one chunk of planning is thrown away.
    ///
    /// Level order also matters for the node budget: when `max_nodes` runs
    /// out, a BFS fills every region of the root cell to the same depth, so
    /// the partially built tree prunes uniformly instead of spending the
    /// whole budget on the first child's subtree.
    pub fn build_from_slab_with(
        slab: HyperplaneSlab,
        cell: BoundingBox,
        config: CuttingTreeConfig,
        pool: Option<&ThreadPool>,
    ) -> Self {
        let mut all = Vec::new();
        slab.filter_all_intersecting_into(cell.lo(), cell.hi(), &mut all);
        let k = cell.dim();
        let mut tree = CuttingTree {
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
            max_children: 2,
        };
        build_levels(&mut tree, k, limits, &all, pool);
        tree
    }

    /// Appends a leaf placeholder for the cell `[lo, hi]` to the arena.
    fn alloc_node(&mut self, lo: &[f64], hi: &[f64]) {
        self.nodes.push(Node {
            axis: 0,
            at: 0.0,
            low: NO_CHILD,
            high: NO_CHILD,
            entries_start: 0,
            entries_end: 0,
        });
        self.cells.extend_from_slice(lo);
        self.cells.extend_from_slice(hi);
    }

    /// The configuration the tree was built with.
    pub fn config(&self) -> CuttingTreeConfig {
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

    /// Deepest level created during construction (diagnostic).
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
    /// [`CuttingTree::query_into`].
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

    /// The traversal behind [`CuttingTree::query_into`]: marks every
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
                CellRelation::Overlaps if node.low == NO_CHILD => {
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
                    // Descend through the cut plane: a child strictly on the
                    // far side of the cut cannot intersect the query box (EPS
                    // slack keeps the test conservative; the per-node cell
                    // check prunes any survivors exactly).
                    let axis = node.axis as usize;
                    if qlo[axis] <= node.at + EPS {
                        scratch.stack.push(node.low);
                    }
                    if qhi[axis] >= node.at - EPS {
                        scratch.stack.push(node.high);
                    }
                }
            }
        }
    }
}

impl ArenaTree for CuttingTree {
    /// The cut: axis and coordinate.
    type Split = (usize, f64);

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

    /// Chooses the node's cut ([`choose_cut_median`]) and partitions its
    /// entries between the two halves; `None` when the cell cannot be cut,
    /// a half would be degenerate, or every entry crosses both halves (a
    /// cut that separates nothing would recurse forever).
    fn plan(
        &self,
        lo: &[f64],
        hi: &[f64],
        entries: &[u32],
        scratch: &mut PlanScratch,
    ) -> Option<(usize, f64)> {
        let (axis, at) = choose_cut_median(&self.slab, lo, hi, entries, scratch)?;
        // Guard against non-progress cuts (degenerate halves).
        let clamped = at.max(lo[axis]).min(hi[axis]);
        if clamped - lo[axis] <= EPS || hi[axis] - clamped <= EPS {
            return None;
        }
        scratch.cuts.clear();
        scratch.cuts.push((axis, at));
        scratch
            .partition(&self.slab, lo, hi, entries)
            .then_some((axis, at))
    }

    fn attach(&mut self, idx: u32, (axis, at): (usize, f64), child_cells: &[f64]) {
        let k = self.root_cell.dim();
        let low = self.nodes.len() as u32;
        for cell in child_cells.chunks_exact(2 * k) {
            self.alloc_node(&cell[..k], &cell[k..]);
        }
        let node = &mut self.nodes[idx as usize];
        node.axis = axis as u32;
        node.at = at;
        node.low = low;
        node.high = low + 1;
    }
}

/// The cut of the cell `[lo, hi]`: measures the in-cell zero-crossings of a
/// strided entry sample along every axis (through the cell centre — see
/// [`PlanScratch::census`]), cuts the axis carrying the most crossings —
/// ties broken towards the wider extent, then the earlier axis — at their
/// median.  With no interior crossings at all, falls back to the midpoint
/// of the widest axis (a fruitless midpoint cut is caught by the builder's
/// no-progress guard).  Returns `None` only when the cell is degenerate on
/// every axis.
fn choose_cut_median(
    slab: &HyperplaneSlab,
    lo: &[f64],
    hi: &[f64],
    entries: &[u32],
    scratch: &mut PlanScratch,
) -> Option<(usize, f64)> {
    let k = lo.len();
    let extent = |axis: usize| hi[axis] - lo[axis];
    scratch.census(slab, lo, hi, entries);
    let crossings = &mut scratch.crossings;
    let mut best: Option<usize> = None;
    for axis in 0..k {
        if crossings[axis].is_empty() {
            continue;
        }
        let better = match best {
            None => true,
            Some(b) => {
                crossings[axis].len() > crossings[b].len()
                    || (crossings[axis].len() == crossings[b].len() && extent(axis) > extent(b))
            }
        };
        if better {
            best = Some(axis);
        }
    }
    if let Some(axis) = best {
        return Some((axis, median_inplace(&mut crossings[axis])));
    }
    // No interior crossing anywhere: midpoint of the widest axis.
    let axis = (0..k).max_by(|&a, &b| extent(a).total_cmp(&extent(b)))?;
    if extent(axis) <= EPS {
        return None;
    }
    Some((axis, 0.5 * (lo[axis] + hi[axis])))
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn build_and_query_small() {
        let hs = vec![
            line(1.0, -1.0, 0.0),
            line(0.0, 1.0, -0.25),
            line(0.0, 1.0, -0.75),
            line(1.0, 1.0, -10.0),
        ];
        let tree = CuttingTree::build(&hs, unit_box(), CuttingTreeConfig::default());
        assert_eq!(tree.len(), 4);
        assert_eq!(tree.root_cell(), &unit_box());
        assert_eq!(tree.slab().len(), 4);
        let q = BoundingBox::new(vec![0.0, 0.0], vec![0.5, 0.5]);
        assert_eq!(tree.query(&hs, &q), brute_force(&hs, &q));
    }

    #[test]
    fn query_agrees_with_brute_force_randomized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let hs: Vec<Hyperplane> = (0..300)
            .map(|_| {
                line(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect();
        let root = BoundingBox::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        let tree = CuttingTree::build(
            &hs,
            root,
            CuttingTreeConfig {
                max_capacity: 6,
                ..CuttingTreeConfig::default()
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
    fn three_dimensional_cutting_tree() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let hs: Vec<Hyperplane> = (0..150)
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
        let tree = CuttingTree::build(&hs, root, CuttingTreeConfig::default());
        for _ in 0..10 {
            let lo: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..0.8)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.05..0.2)).collect();
            let q = BoundingBox::new(lo, hi);
            assert_eq!(tree.query(&hs, &q), brute_force(&hs, &q));
        }
    }

    #[test]
    fn clustered_lines_stay_balanced() {
        // The same clustered worst case that makes the quadtree degenerate:
        // the cutting tree's median cuts keep the depth far below the
        // hyperplane count.
        let hs: Vec<Hyperplane> = (0..256)
            .map(|i| line(1.0, -1.0, -1e-4 * i as f64))
            .collect();
        let cfg = CuttingTreeConfig {
            max_capacity: 4,
            max_depth: 40,
            ..CuttingTreeConfig::default()
        };
        let tree = CuttingTree::build(&hs, unit_box(), cfg);
        assert!(
            tree.depth() <= 20,
            "cutting tree should stay shallow on clustered input, got {}",
            tree.depth()
        );
        let q = BoundingBox::new(vec![0.4, 0.4], vec![0.6, 0.6]);
        assert_eq!(tree.query(&hs, &q), brute_force(&hs, &q));
    }

    #[test]
    fn two_builds_are_equal() {
        // The cut rule consumes no randomness: building twice over the same
        // rows yields the same arena.
        let hs: Vec<Hyperplane> = (0..50).map(|i| line(1.0, -0.5, -0.01 * i as f64)).collect();
        let a = CuttingTree::build(&hs, unit_box(), CuttingTreeConfig::default());
        let b = CuttingTree::build(&hs, unit_box(), CuttingTreeConfig::default());
        assert_eq!(a, b);
        let q = BoundingBox::new(vec![0.1, 0.1], vec![0.3, 0.3]);
        assert_eq!(a.query(&hs, &q), b.query(&hs, &q));
    }

    #[test]
    fn query_into_reuses_scratch_across_probes() {
        let hs: Vec<Hyperplane> = (0..80).map(|i| line(1.0, -0.7, -0.01 * i as f64)).collect();
        let tree = CuttingTree::build(&hs, unit_box(), CuttingTreeConfig::default());
        let mut scratch = TraversalScratch::new();
        let mut out = Vec::new();
        for (x0, y0, side) in [(0.0, 0.0, 0.4), (0.5, 0.5, 0.3), (0.9, 0.1, 0.05)] {
            let q = BoundingBox::new(vec![x0, y0], vec![x0 + side, y0 + side]);
            tree.query_into(q.lo(), q.hi(), &mut scratch, &mut out);
            assert_eq!(out, brute_force(&hs, &q), "box {q:?}");
        }
    }

    #[test]
    fn empty_tree_queries_cleanly() {
        let hs: Vec<Hyperplane> = Vec::new();
        let tree = CuttingTree::build(&hs, unit_box(), CuttingTreeConfig::default());
        assert!(tree.is_empty());
        assert_eq!(tree.query(&hs, &unit_box()), Vec::<usize>::new());
    }

    #[test]
    fn median_rule_agrees_with_brute_force_and_tracks_clusters() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(555);
        // Clustered diagonals plus random lines and degenerate rows.
        let mut hs: Vec<Hyperplane> = (0..128)
            .map(|i| line(1.0, -1.0, -1e-4 * i as f64))
            .collect();
        for _ in 0..64 {
            hs.push(line(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ));
        }
        hs.push(Hyperplane::new(vec![0.0, 0.0], 0.0));
        hs.push(Hyperplane::new(vec![0.0, 0.0], 1.0));
        let median = CuttingTree::build(
            &hs,
            unit_box(),
            CuttingTreeConfig {
                max_capacity: 4,
                max_depth: 40,
                ..CuttingTreeConfig::default()
            },
        );
        // The median cuts split the bundle through its mass, so the depth
        // stays far below the 128 clustered lines (16 at this input).
        assert!(
            median.depth() <= 20,
            "median cuts should keep clustered input shallow, got {}",
            median.depth()
        );
        for _ in 0..30 {
            let x0 = rng.gen_range(0.0..0.9);
            let y0 = rng.gen_range(0.0..0.9);
            let q = BoundingBox::new(
                vec![x0, y0],
                vec![x0 + rng.gen_range(0.01..0.1), y0 + rng.gen_range(0.01..0.1)],
            );
            assert_eq!(median.query(&hs, &q), brute_force(&hs, &q), "box {q:?}");
        }
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        use eclipse_exec::ThreadPool;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(424242);
        // Enough hyperplanes that the root frontier crosses the parallel
        // partitioning threshold.
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
        let cfg = CuttingTreeConfig {
            max_capacity: 16,
            max_depth: 14,
            ..CuttingTreeConfig::default()
        };
        let serial = CuttingTree::build(&hs, root.clone(), cfg);
        let pool = ThreadPool::with_threads(4);
        let parallel = CuttingTree::build_from_slab_with(
            HyperplaneSlab::from_hyperplanes(&hs),
            root,
            cfg,
            Some(&pool),
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn identical_hyperplanes_do_not_recurse_forever() {
        // Every hyperplane is the same: no cut can separate them; the builder
        // must terminate with a single (oversized) leaf rather than recursing.
        let hs: Vec<Hyperplane> = (0..32).map(|_| line(1.0, -1.0, 0.0)).collect();
        let cfg = CuttingTreeConfig {
            max_capacity: 2,
            max_depth: 64,
            ..CuttingTreeConfig::default()
        };
        let tree = CuttingTree::build(&hs, unit_box(), cfg);
        let q = BoundingBox::new(vec![0.2, 0.2], vec![0.8, 0.8]);
        assert_eq!(tree.query(&hs, &q).len(), 32);
    }
}
