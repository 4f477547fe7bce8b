//! The cutting-tree Intersection Index (§IV-B of the paper) — randomized,
//! sampling-based implementation.
//!
//! Chazelle's deterministic (1/t)-cuttings give the textbook worst-case
//! guarantee but, as the paper itself notes, "are theoretical in nature and
//! involve large constant factors"; the paper therefore implements the index
//! with a probabilistic scheme (random sampling of intersection vertices and
//! a Voronoi partition of the sampled points).  We follow the same spirit
//! with a structure that is easier to make *exact*:
//!
//! * the space is partitioned by a binary tree of axis-aligned cuts;
//! * at every node the cut coordinate is chosen from a **random sample of the
//!   hyperplanes crossing the cell** (the median of their zero-crossings along
//!   the widest axis, measured through the cell centre), so regions dense in
//!   hyperplanes are cut more finely — the property the paper's Voronoi
//!   sampling is after;
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
//! *and* the data-adaptive median splits keep it balanced even when all
//! hyperplanes crowd into one corner of the root cell — which is exactly the
//! worst-case scenario of Figs. 13–14 where CUTTING must beat QUAD.  See
//! DESIGN.md §4 for the substitution rationale.

use eclipse_exec::ThreadPool;
use eclipse_persist::{dec, enc, Cursor, PersistError, PersistResult};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::approx::EPS;
use crate::build::{build_levels, median_inplace, ArenaTree, Limits, PlanScratch};
use crate::hyperplane::{Hyperplane, HyperplaneSlab};
use crate::point::BoundingBox;
use crate::traverse::{classify_cell, CellRelation, TraversalScratch};

/// How the cut coordinate of an overfull cell is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CutRule {
    /// The historical randomized rule: widest axis, median zero-crossing of
    /// a `sample_size`-element random sample of the cell's entries, jittered
    /// midpoint fallback.
    SampledCrossings,
    /// Deterministic adaptive rule: per axis, the in-cell zero-crossings of
    /// a strided entry sample (every entry up to 256, then every
    /// `len/256`-th) are measured; the cut axis is the one carrying the most
    /// crossings (ties to the wider extent, then the earlier axis) and the
    /// cut lands on the median crossing, so dense clusters are split through
    /// their mass instead of through a 16-element random guess.  Falls back
    /// to the widest axis's midpoint (no jitter) when nothing crosses the
    /// cell interior.  Consumes no randomness.
    MedianExtents,
}

impl CutRule {
    /// Stable one-byte snapshot tag.
    pub fn tag(self) -> u8 {
        match self {
            CutRule::SampledCrossings => 0,
            CutRule::MedianExtents => 1,
        }
    }

    /// Inverse of [`CutRule::tag`]; rejects unknown tags.
    pub fn from_tag(tag: u8) -> PersistResult<Self> {
        match tag {
            0 => Ok(CutRule::SampledCrossings),
            1 => Ok(CutRule::MedianExtents),
            other => Err(PersistError::Malformed(format!(
                "unknown cutting-tree cut-rule tag {other}"
            ))),
        }
    }
}

/// Construction parameters for [`CuttingTree`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CuttingTreeConfig {
    /// Maximum number of hyperplanes a leaf may hold before it is cut.
    pub max_capacity: usize,
    /// Hard depth limit.
    pub max_depth: usize,
    /// Number of hyperplanes sampled per node to choose the cut (the paper's
    /// parameter `t`; higher values give better balanced cuts at higher
    /// construction cost).
    pub sample_size: usize,
    /// Global budget on the number of tree nodes; once exhausted the
    /// remaining cells stay leaves (queries remain exact).
    pub max_nodes: usize,
    /// Global budget on the shared entry slab (every node stores the ids of
    /// the hyperplanes crossing its cell); see
    /// [`crate::quadtree::QuadtreeConfig::max_entries`].
    pub max_entries: usize,
    /// Seed for the sampling RNG so index construction is reproducible
    /// (consumed only under [`CutRule::SampledCrossings`]).
    pub seed: u64,
    /// How cut coordinates are chosen; see [`CutRule`].
    pub cut: CutRule,
}

impl Default for CuttingTreeConfig {
    fn default() -> Self {
        CuttingTreeConfig {
            max_capacity: 8,
            max_depth: 24,
            sample_size: 16,
            max_nodes: 1 << 16,
            max_entries: 1 << 22,
            seed: 0x5eed_cafe,
            cut: CutRule::MedianExtents,
        }
    }
}

/// Sentinel marking a leaf node (no children).
const NO_CHILD: u32 = u32::MAX;

/// Bytes of one encoded [`Node`]: `axis`, `at` (`f64`), `low`, `high` and
/// the entry range, little-endian.
const NODE_RECORD_BYTES: usize = 28;

/// One arena node: an axis-aligned cut with its two children allocated as an
/// adjacent pair (`low == high − 1`), or a leaf.
///
/// Every node — internal or leaf — records the ids of the hyperplanes
/// crossing its cell in the shared entry slab.  Leaves use the range for
/// exact candidate filtering; internal nodes use it to report their whole
/// (deduplicated) subtree in one pass when their cell is fully contained in
/// the query box.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
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

/// A randomized cutting tree over hyperplanes in k-dimensional space, stored
/// as a flat arena.
#[derive(Clone, Debug, Serialize, Deserialize)]
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
    /// adjacent child-pair allocation, entry recording).  The arena, and
    /// therefore the snapshot encoding and the buffers' capacities, is
    /// identical for any thread count.
    ///
    /// Levels are processed in budget-sized *chunks* (each cut allocates
    /// exactly two children, so a chunk never overruns `max_nodes` by more
    /// than one node's pair) and capped in entries so the planning scratch
    /// stays small; the level where a budget fills shrinks its chunks so at
    /// most one chunk of planning is thrown away.
    ///
    /// The random draws of [`CutRule::SampledCrossings`] are a pure function
    /// of `(config.seed, node id)` (`node_rng`): every node streams from
    /// its own splitmix64-derived RNG, so chunk boundaries, budget
    /// truncation, and thread count cannot shift the draws of any other
    /// node.  (The historical single sequential stream made the final chunk
    /// of budget-truncated builds depend on how many earlier nodes had
    /// consumed draws — arenas differed across `max_nodes`/`max_entries`
    /// settings even for the nodes both builds shared, and planning-only
    /// draws for cuts later discarded by the stitch shifted everything
    /// after them.)
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

    /// Appends the tree's snapshot encoding: construction config (including
    /// the sampling seed, so the provenance of the cuts is preserved), root
    /// cell, reached depth, the hyperplane slab, then the three arena
    /// buffers.  Construction is deterministic for a seed (and for any
    /// thread count), so the same input data and config always produce the
    /// same bytes.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        enc::put_usize(out, self.config.max_capacity);
        enc::put_usize(out, self.config.max_depth);
        enc::put_usize(out, self.config.sample_size);
        enc::put_usize(out, self.config.max_nodes);
        enc::put_usize(out, self.config.max_entries);
        enc::put_u64(out, self.config.seed);
        enc::put_u8(out, self.config.cut.tag());
        self.root_cell.encode_into(out);
        enc::put_usize(out, self.max_depth_reached);
        self.slab.encode_into(out);
        enc::put_usize(out, self.nodes.len());
        for node in &self.nodes {
            enc::put_u32(out, node.axis);
            enc::put_f64(out, node.at);
            enc::put_u32(out, node.low);
            enc::put_u32(out, node.high);
            enc::put_u32(out, node.entries_start);
            enc::put_u32(out, node.entries_end);
        }
        // `cells` holds exactly 2k values per node, so no count is stored.
        for &c in &self.cells {
            enc::put_f64(out, c);
        }
        enc::put_usize(out, self.entries.len());
        for &e in &self.entries {
            enc::put_u32(out, e);
        }
    }

    /// Decodes a tree previously written by [`CuttingTree::encode_into`],
    /// consuming exactly its bytes from `cur` and re-validating every arena
    /// invariant the query loop relies on (counts bounded by the remaining
    /// bytes, children strictly forward so traversal terminates, cut axes
    /// inside the ambient dimensionality, entry ranges and ids in bounds).
    ///
    /// # Errors
    /// A typed [`PersistError`] for every defect; arbitrary input never
    /// panics.
    pub fn decode(cur: &mut Cursor<'_>) -> PersistResult<Self> {
        let config = CuttingTreeConfig {
            max_capacity: cur.usize64()?,
            max_depth: cur.usize64()?,
            sample_size: cur.usize64()?,
            max_nodes: cur.usize64()?,
            max_entries: cur.usize64()?,
            seed: cur.u64()?,
            cut: CutRule::from_tag(cur.u8()?)?,
        };
        let root_cell = BoundingBox::decode(cur)?;
        let max_depth_reached = cur.usize64()?;
        let slab = HyperplaneSlab::decode(cur)?;
        let k = root_cell.dim();
        if slab.dim() != k {
            return Err(PersistError::Malformed(format!(
                "slab dimensionality {} does not match the {k}-dimensional root cell",
                slab.dim()
            )));
        }
        let node_count = cur.count(NODE_RECORD_BYTES)?;
        if node_count == 0 {
            return Err(PersistError::Malformed(
                "a cutting-tree arena needs at least its root node".to_string(),
            ));
        }
        let nodes: Vec<Node> = cur
            .records(node_count, NODE_RECORD_BYTES)?
            .map(|r| Node {
                axis: dec::u32_at(r, 0),
                at: dec::f64_at(r, 4),
                low: dec::u32_at(r, 12),
                high: dec::u32_at(r, 16),
                entries_start: dec::u32_at(r, 20),
                entries_end: dec::u32_at(r, 24),
            })
            .collect();
        let cells = cur.f64_vec(node_count.checked_mul(2 * k).ok_or_else(|| {
            PersistError::Malformed(format!("{node_count} cells of dimension {k} overflow"))
        })?)?;
        let entry_count = cur.count(4)?;
        let entries = cur.u32_vec(entry_count)?;
        if let Some(&bad) = entries.iter().find(|&&e| e as usize >= slab.len()) {
            return Err(PersistError::Malformed(format!(
                "entry id {bad} out of range for {} hyperplanes",
                slab.len()
            )));
        }
        for (idx, node) in nodes.iter().enumerate() {
            if node.entries_start > node.entries_end || node.entries_end as usize > entries.len() {
                return Err(PersistError::Malformed(format!(
                    "node {idx} entry range {}..{} escapes the {}-slot entry slab",
                    node.entries_start,
                    node.entries_end,
                    entries.len()
                )));
            }
            if node.low == NO_CHILD {
                if node.high != NO_CHILD {
                    return Err(PersistError::Malformed(format!(
                        "node {idx} is half-leaf (low unset, high {})",
                        node.high
                    )));
                }
            } else if node.axis as usize >= k
                || node.low as usize <= idx
                || node.high as usize <= idx
                || node.low as usize >= node_count
                || node.high as usize >= node_count
            {
                // Children must point strictly forward (the builder allocates
                // them after their parent), which is also what guarantees the
                // iterative traversal terminates on decoded arenas; the cut
                // axis must index the ambient space or the descent would
                // read out of bounds.
                return Err(PersistError::Malformed(format!(
                    "node {idx} cut (axis {}, children {}/{}) is invalid for \
                     {node_count} nodes of dimension {k}",
                    node.axis, node.low, node.high
                )));
            }
        }
        Ok(CuttingTree {
            slab,
            nodes,
            cells,
            entries,
            root_cell,
            config,
            max_depth_reached,
        })
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

    /// Chooses the node's cut under the configured [`CutRule`] and
    /// partitions its entries between the two halves; `None` when the cell
    /// cannot be cut, a half would be degenerate, or every entry crosses
    /// both halves (a cut that separates nothing would recurse forever).
    fn plan(
        &self,
        idx: u32,
        lo: &[f64],
        hi: &[f64],
        entries: &[u32],
        scratch: &mut PlanScratch,
    ) -> Option<(usize, f64)> {
        let (axis, at) = match self.config.cut {
            CutRule::SampledCrossings => {
                let mut rng = node_rng(self.config.seed, idx);
                choose_cut(&self.slab, lo, hi, entries, &self.config, &mut rng, scratch)
            }
            CutRule::MedianExtents => choose_cut_median(&self.slab, lo, hi, entries, scratch),
        }?;
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

/// The deterministic [`CutRule::MedianExtents`] cut of the cell `[lo, hi]`:
/// measures the in-cell zero-crossings of a strided entry sample along every
/// axis (through the cell centre — see [`PlanScratch::census`]), cuts the
/// axis carrying the most crossings — ties broken towards the wider extent,
/// then the earlier axis — at their median.  With no interior crossings at
/// all, falls back to the midpoint of the widest axis (no jitter; a
/// fruitless midpoint cut is caught by the builder's no-progress guard, so
/// termination does not need it).  Returns `None` only when the cell is
/// degenerate on every axis.
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

/// The [`CutRule::SampledCrossings`] RNG of one node: seeded purely from
/// `(config seed, arena node id)` via splitmix64, so a node's draws are
/// reproducible no matter how the build was chunked, how much of a budget
/// was left, or how many other nodes drew before it.  Node ids are
/// allocated in deterministic BFS stitch order, so two builds that agree
/// on a node's id agree on its sample.
fn node_rng(seed: u64, node: u32) -> StdRng {
    StdRng::seed_from_u64(splitmix64(
        seed ^ u64::from(node).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    ))
}

/// SplitMix64: a tiny, well-distributed bijection — the standard way to
/// spread correlated seeds (`seed ^ f(node)`) across the u64 space before
/// feeding a stream RNG.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Chooses an axis and a cut coordinate for the cell `[lo, hi]` under
/// [`CutRule::SampledCrossings`].
///
/// The axis is the widest axis of the cell; the coordinate is the median of
/// the zero-crossings (along that axis, through the cell centre) of a random
/// sample of the hyperplanes crossing the cell.  Falls back to the cell
/// midpoint when no sampled hyperplane yields a usable crossing.
fn choose_cut(
    slab: &HyperplaneSlab,
    lo: &[f64],
    hi: &[f64],
    entries: &[u32],
    config: &CuttingTreeConfig,
    rng: &mut StdRng,
    scratch: &mut PlanScratch,
) -> Option<(usize, f64)> {
    let k = lo.len();
    let extent = |axis: usize| hi[axis] - lo[axis];
    // Pick the widest splittable axis.
    let axis = (0..k).max_by(|&a, &b| extent(a).total_cmp(&extent(b)))?;
    if extent(axis) <= EPS {
        return None;
    }

    let center = &mut scratch.center;
    center.clear();
    center.extend(lo.iter().zip(hi).map(|(l, h)| 0.5 * (l + h)));
    scratch.crossings.resize_with(1, Vec::new);
    let crossings = &mut scratch.crossings[0];
    crossings.clear();
    let mut measure = |i: u32| {
        let row = slab.coeffs_row(i as usize);
        let coeff = row[axis];
        if coeff.abs() <= EPS {
            return;
        }
        // Solve h(x) = 0 with all coordinates fixed at the cell centre except
        // `axis`.
        let mut rest = 0.0;
        for (j, c) in row.iter().enumerate() {
            if j != axis {
                rest += c * center[j];
            }
        }
        let x = -(rest + slab.offset(i as usize)) / coeff;
        if x > lo[axis] + EPS && x < hi[axis] - EPS {
            crossings.push(x);
        }
    };
    let sample_count = config.sample_size.min(entries.len()).max(1);
    if entries.len() <= sample_count {
        entries.iter().for_each(|&i| measure(i));
    } else {
        entries
            .choose_multiple(rng, sample_count)
            .for_each(|&i| measure(i));
    }

    let at = if crossings.is_empty() {
        // No informative crossing in the sample: fall back to the midpoint,
        // possibly jittered slightly so repeated fallbacks still make progress.
        let mid = 0.5 * (lo[axis] + hi[axis]);
        let jitter = extent(axis) * rng.gen_range(-0.05..0.05);
        (mid + jitter).clamp(lo[axis], hi[axis])
    } else {
        // Crossings equal under `total_cmp` are bit-identical, so an
        // unstable sort yields the same median as a stable one.
        crossings.sort_unstable_by(|a, b| a.total_cmp(b));
        crossings[crossings.len() / 2]
    };
    Some((axis, at))
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
        // the cutting tree's sampled-median cuts keep the depth far below the
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
    fn construction_is_deterministic_for_a_seed() {
        let hs: Vec<Hyperplane> = (0..50).map(|i| line(1.0, -0.5, -0.01 * i as f64)).collect();
        let a = CuttingTree::build(&hs, unit_box(), CuttingTreeConfig::default());
        let b = CuttingTree::build(&hs, unit_box(), CuttingTreeConfig::default());
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.depth(), b.depth());
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
    fn snapshot_round_trips_byte_exactly() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2027);
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
        let tree = CuttingTree::build(
            &hs,
            root,
            CuttingTreeConfig {
                max_capacity: 5,
                ..CuttingTreeConfig::default()
            },
        );
        let mut bytes = Vec::new();
        tree.encode_into(&mut bytes);
        let mut cur = Cursor::new(&bytes);
        let back = CuttingTree::decode(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(back.config(), tree.config());
        assert_eq!(back.root_cell(), tree.root_cell());
        assert_eq!(back.node_count(), tree.node_count());
        assert_eq!(back.entry_count(), tree.entry_count());
        assert_eq!(back.depth(), tree.depth());
        for _ in 0..20 {
            let x0 = rng.gen_range(-1.0..0.8);
            let y0 = rng.gen_range(-1.0..0.8);
            let q = BoundingBox::new(
                vec![x0, y0],
                vec![x0 + rng.gen_range(0.01..0.3), y0 + rng.gen_range(0.01..0.3)],
            );
            assert_eq!(back.query(&hs, &q), tree.query(&hs, &q), "box {q:?}");
        }
        let mut again = Vec::new();
        back.encode_into(&mut again);
        assert_eq!(again, bytes);
    }

    #[test]
    fn snapshot_decode_is_total_on_hostile_input() {
        // Kept deliberately tiny: the truncation sweep below decodes every
        // proper prefix, which is quadratic in the snapshot size.  Horizontal
        // lines separate cleanly under axis-aligned cuts, so the root
        // subdivides even at this size.
        let hs: Vec<Hyperplane> = (0..8).map(|i| line(0.0, 1.0, -0.1 * i as f64)).collect();
        let tree = CuttingTree::build(
            &hs,
            unit_box(),
            CuttingTreeConfig {
                max_capacity: 2,
                ..CuttingTreeConfig::default()
            },
        );
        let mut bytes = Vec::new();
        tree.encode_into(&mut bytes);
        for cut in 0..bytes.len() {
            assert!(
                CuttingTree::decode(&mut Cursor::new(&bytes[..cut])).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Backward-pointing children (a traversal cycle) are refused.
        let mut evil = Vec::new();
        let evil_tree = {
            let mut t = tree.clone();
            assert!(t.nodes[0].low != NO_CHILD, "root subdivided");
            t.nodes[0].low = 0;
            t
        };
        evil_tree.encode_into(&mut evil);
        assert!(matches!(
            CuttingTree::decode(&mut Cursor::new(&evil)),
            Err(PersistError::Malformed(m)) if m.contains("invalid")
        ));
        // A cut axis outside the ambient space is refused (the descent would
        // index the query corners out of bounds).
        let mut evil = Vec::new();
        let evil_tree = {
            let mut t = tree.clone();
            t.nodes[0].axis = 7;
            t
        };
        evil_tree.encode_into(&mut evil);
        assert!(matches!(
            CuttingTree::decode(&mut Cursor::new(&evil)),
            Err(PersistError::Malformed(_))
        ));
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
        let mk = |cut| {
            CuttingTree::build(
                &hs,
                unit_box(),
                CuttingTreeConfig {
                    max_capacity: 4,
                    max_depth: 40,
                    cut,
                    ..CuttingTreeConfig::default()
                },
            )
        };
        let median = mk(CutRule::MedianExtents);
        let sampled = mk(CutRule::SampledCrossings);
        // The 256-element strided median can only balance better than the
        // 16-element sampled guess.
        assert!(
            median.depth() <= sampled.depth(),
            "median depth {} vs sampled depth {}",
            median.depth(),
            sampled.depth()
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
        for cut in [CutRule::SampledCrossings, CutRule::MedianExtents] {
            let cfg = CuttingTreeConfig {
                max_capacity: 16,
                max_depth: 14,
                cut,
                ..CuttingTreeConfig::default()
            };
            let serial = CuttingTree::build(&hs, root.clone(), cfg);
            let pool = ThreadPool::with_threads(4);
            let parallel = CuttingTree::build_from_slab_with(
                HyperplaneSlab::from_hyperplanes(&hs),
                root.clone(),
                cfg,
                Some(&pool),
            );
            let (mut a, mut b) = (Vec::new(), Vec::new());
            serial.encode_into(&mut a);
            parallel.encode_into(&mut b);
            assert_eq!(a, b, "cut rule {cut:?}");
        }
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
