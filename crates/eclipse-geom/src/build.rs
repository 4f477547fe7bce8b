//! Level-synchronous arena construction shared by
//! [`crate::quadtree::HyperplaneQuadtree`] and [`crate::cutting::CuttingTree`].
//!
//! Both trees are built breadth-first, one level at a time.  Nodes are
//! allocated in breadth-first order and record their entry lists in the
//! shared entry slab as they are allocated, so a level — the *frontier* — is
//! just a range of node ids whose entry lists already sit, in order, in the
//! arena.  The level is processed in budget-sized chunks, each in two
//! phases:
//!
//! * **plan** — per frontier node, the tree chooses a split and partitions
//!   the node's entries among the prospective children (the expensive sign
//!   tests).  Planning reads cell corners and entries straight from the
//!   arena and writes child cells and child entry lists into a reusable
//!   flat [`PlanScratch`]: one for a serial build, one per pool worker when
//!   the chunk fans out (each worker plans a contiguous run of the chunk).
//!   Planning is a pure function of the node, so any thread may run it.
//! * **stitch** — serially and in frontier order: re-check depth and
//!   budgets, then allocate the children of each surviving plan and append
//!   their entry lists to the slab.  The budget checks see the slab as a
//!   node-at-a-time breadth-first build would (the entries of every node up
//!   to the one being stitched), and the stitch replays the exact serial
//!   order, so the arena — every node, cell and entry, and every buffer's
//!   growth sequence — is identical for any thread count and any chunking.
//!
//! Chunks are also capped in entries, so the scratch stays small and warm;
//! after the first chunks a build allocates only when the arena outgrows
//! its capacity.

use std::ops::Range;

use eclipse_exec::ThreadPool;

use crate::approx::EPS;
use crate::hyperplane::HyperplaneSlab;

/// Minimum number of entries across a frontier chunk before split planning
/// is farmed out to the pool — below this the sign-test work cannot amortize
/// the dispatch overhead.
const PARALLEL_BUILD_MIN_ENTRIES: usize = 4096;

/// Cap on the parent entries one planning lane takes per chunk: bounds the
/// scratch a chunk's child lists fill to a cache-sized buffer.  Chunking
/// never changes the arena (see the module docs).
const LANE_CHUNK_ENTRIES: usize = 1 << 16;

/// Cap on the entries whose crossings the cutting tree's cut rule measures
/// per node: a deterministic strided subset (every `len/256`-th entry),
/// plenty for a robust median while keeping cut selection O(1) per node
/// instead of O(n) — without it, construction on large dense nodes costs
/// more than the probe time it saves.
const CROSSING_SAMPLE_CAP: usize = 256;

/// Depth and budget limits of one build (see the trees' configs).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Limits {
    pub(crate) max_capacity: usize,
    pub(crate) max_depth: usize,
    pub(crate) max_nodes: usize,
    pub(crate) max_entries: usize,
    /// Upper bound on the children one split allocates; sizes the chunks.
    pub(crate) max_children: usize,
}

/// An arena tree the level builder can grow.
pub(crate) trait ArenaTree: Sync {
    /// What a plan hands the stitch besides the child cells (the cut of a
    /// cutting-tree node; nothing for a quadtree).
    type Split: Copy + Send;

    /// Number of arena nodes allocated so far.
    fn node_count(&self) -> usize;
    /// The flat cell-corner buffer (`2k` values per node).
    fn cells(&self) -> &[f64];
    /// The shared entry slab.
    fn entries(&self) -> &[u32];
    /// Node `node`'s range in the entry slab.
    fn entry_range(&self, node: u32) -> (usize, usize);
    /// Records the deepest level reached.
    fn reach_depth(&mut self, depth: usize);
    /// Appends `entries` to the entry slab as node `node`'s range.
    fn record_entries(&mut self, node: u32, entries: &[u32]);
    /// Plans the split of the node with cell `[lo, hi]` and `entries`
    /// crossing it: pushes the children into `scratch` and returns the
    /// split, or returns `None` with `scratch` unchanged when the node stays
    /// a leaf.
    fn plan(
        &self,
        lo: &[f64],
        hi: &[f64],
        entries: &[u32],
        scratch: &mut PlanScratch,
    ) -> Option<Self::Split>;
    /// Allocates the children whose cells are `child_cells` (`2k` values
    /// each, in order) and links them under `node` as split `split`.
    fn attach(&mut self, node: u32, split: Self::Split, child_cells: &[f64]);
}

/// A planned split: the tree's split and its run of children in the
/// worker's [`PlanScratch`].
#[derive(Clone, Copy, Debug)]
struct Plan<S> {
    split: S,
    first_child: usize,
    child_count: usize,
}

/// Reusable flat buffers the split rules plan into: the prospective
/// children's cells and entry lists, plus the rules' per-node working space.
/// Cleared, never freed, between planning runs.
#[derive(Debug, Default)]
pub(crate) struct PlanScratch {
    /// Child cell corners, `2k` values per child.
    cells: Vec<f64>,
    /// Per child: its range in `entries`.
    children: Vec<(usize, usize)>,
    /// Child entry lists, concatenated.
    entries: Vec<u32>,
    /// The `(axis, coordinate)` cuts of the next [`PlanScratch::partition`],
    /// in ascending axis order.
    pub(crate) cuts: Vec<(usize, f64)>,
    /// Per-axis in-cell crossing coordinates measured by
    /// [`PlanScratch::census`].
    pub(crate) crossings: Vec<Vec<f64>>,
    /// The centre of the cell the last census measured.
    center: Vec<f64>,
}

impl PlanScratch {
    /// Measures, per axis, where the entries of a strided sample
    /// ([`crossing_sample`]) cross the line through the centre of the cell
    /// `[lo, hi]` parallel to that axis, keeping the crossings strictly
    /// inside the cell (`EPS` margin) in [`PlanScratch::crossings`].
    pub(crate) fn census(
        &mut self,
        slab: &HyperplaneSlab,
        lo: &[f64],
        hi: &[f64],
        entries: &[u32],
    ) {
        let k = lo.len();
        self.center.clear();
        self.center
            .extend(lo.iter().zip(hi).map(|(l, h)| 0.5 * (l + h)));
        self.crossings.resize_with(k, Vec::new);
        for axis in &mut self.crossings {
            axis.clear();
        }
        for e in crossing_sample(entries) {
            let row = slab.coeffs_row(e as usize);
            let offset = slab.offset(e as usize);
            for axis in 0..k {
                let coeff = row[axis];
                if coeff.abs() <= EPS {
                    continue;
                }
                let mut rest = 0.0;
                for (j, c) in row.iter().enumerate() {
                    if j != axis {
                        rest += c * self.center[j];
                    }
                }
                let x = -(rest + offset) / coeff;
                if x > lo[axis] + EPS && x < hi[axis] - EPS {
                    self.crossings[axis].push(x);
                }
            }
        }
    }

    /// Partitions `entries` among the children of the cell `[lo, hi]` cut
    /// at every [`PlanScratch::cuts`] entry: `2^m` children for `m` cuts,
    /// ordered as if the cell were split on the first cut, then each half on
    /// the second, and so on (each cut coordinate clamped into the cell).
    /// Each child gets the entries crossing its cell.  Returns `false`, with
    /// nothing pushed, when there are no cuts or every child would inherit
    /// every entry (a split that makes no progress).
    pub(crate) fn partition(
        &mut self,
        slab: &HyperplaneSlab,
        lo: &[f64],
        hi: &[f64],
        entries: &[u32],
    ) -> bool {
        let m = self.cuts.len();
        if m == 0 {
            return false;
        }
        let k = lo.len();
        let (cells_mark, children_mark, entries_mark) =
            (self.cells.len(), self.children.len(), self.entries.len());
        let mut progress = false;
        for child in 0..1usize << m {
            let base = self.cells.len();
            self.cells.extend_from_slice(lo);
            self.cells.extend_from_slice(hi);
            for (t, &(axis, at)) in self.cuts.iter().enumerate() {
                let at = at.max(lo[axis]).min(hi[axis]);
                if (child >> (m - 1 - t)) & 1 == 0 {
                    self.cells[base + k + axis] = at;
                } else {
                    self.cells[base + axis] = at;
                }
            }
            let start = self.entries.len();
            let (clo, chi) = self.cells[base..base + 2 * k].split_at(k);
            slab.filter_intersecting_into(entries, clo, chi, &mut self.entries);
            progress |= self.entries.len() - start != entries.len();
            self.children.push((start, self.entries.len()));
        }
        if !progress {
            self.cells.truncate(cells_mark);
            self.children.truncate(children_mark);
            self.entries.truncate(entries_mark);
        }
        progress
    }
}

/// The deterministic crossing-statistics sample: every `stride`-th entry,
/// capped at [`CROSSING_SAMPLE_CAP`] elements.  Thread-count independent, so
/// parallel and serial builds measure identical samples.
fn crossing_sample(entries: &[u32]) -> impl Iterator<Item = u32> + '_ {
    let stride = entries.len().div_ceil(CROSSING_SAMPLE_CAP).max(1);
    entries.iter().step_by(stride).copied()
}

/// The (upper) median by `total_cmp`, found by in-place selection.
pub(crate) fn median_inplace(xs: &mut [f64]) -> f64 {
    let mid = xs.len() / 2;
    *xs.select_nth_unstable_by(mid, |a, b| a.total_cmp(b)).1
}

/// One planning lane: the plans of a contiguous run of frontier nodes and
/// the scratch their children live in.
#[derive(Debug)]
struct Worker<S> {
    plans: Vec<Option<Plan<S>>>,
    scratch: PlanScratch,
}

impl<S> Default for Worker<S> {
    fn default() -> Self {
        Worker {
            plans: Vec::new(),
            scratch: PlanScratch::default(),
        }
    }
}

impl<S: Copy> Worker<S> {
    /// Plans every node of `run` (nodes at or below `max_capacity` entries
    /// are never split and get no plan).
    fn plan_run<T: ArenaTree<Split = S>>(
        &mut self,
        tree: &T,
        dim: usize,
        max_capacity: usize,
        run: Range<u32>,
    ) {
        self.plans.clear();
        self.scratch.cells.clear();
        self.scratch.children.clear();
        self.scratch.entries.clear();
        for node in run {
            let (start, end) = tree.entry_range(node);
            let plan = if end - start <= max_capacity {
                None
            } else {
                let base = node as usize * 2 * dim;
                let (lo, hi) = tree.cells()[base..base + 2 * dim].split_at(dim);
                let entries = &tree.entries()[start..end];
                let first_child = self.scratch.children.len();
                tree.plan(lo, hi, entries, &mut self.scratch)
                    .map(|split| Plan {
                        split,
                        first_child,
                        child_count: self.scratch.children.len() - first_child,
                    })
            };
            self.plans.push(plan);
        }
    }
}

/// Grows `tree` — holding just its root node, whose cell crosses
/// `root_entries` — level by level until depth, budgets or the split rule
/// stop it; see the module docs.  `pool` fans planning out when a chunk
/// carries enough entries; the arena is identical either way.
///
/// Level order matters for the budgets: when one runs out, a BFS has filled
/// every region of the root cell to the same depth, so the partially built
/// tree prunes uniformly, where a depth-first order would spend the whole
/// budget on the first child's subtree.
pub(crate) fn build_levels<T: ArenaTree>(
    tree: &mut T,
    dim: usize,
    limits: Limits,
    root_entries: &[u32],
    pool: Option<&ThreadPool>,
) {
    tree.record_entries(0, root_entries);
    let lanes_max = pool.map_or(1, ThreadPool::threads);
    let mut workers: Vec<Worker<T::Split>> = vec![Worker::default()];
    let mut level = 0u32..1u32;
    let mut depth = 0usize;
    while !level.is_empty() {
        tree.reach_depth(depth);
        let mut i = level.start;
        while i < level.end {
            // Every entry of the nodes before `i` is recorded: the slab as
            // a node-at-a-time build would see it.
            let recorded = tree.entry_range(i).0;
            if depth >= limits.max_depth
                || tree.node_count() >= limits.max_nodes
                || recorded >= limits.max_entries
            {
                // No node from here on can split (depth and budget
                // exhaustion only ever grow); the rest of the level stays
                // leaves.
                break;
            }
            // Chunk sizing: stitching a chunk cannot overrun a budget by
            // more than one node's children, so on the level where a
            // budget fills at most one chunk of planning is thrown away.
            let node_room = (limits.max_nodes - tree.node_count()) / limits.max_children;
            let entry_room = limits.max_entries - recorded;
            let entry_cap = lanes_max * LANE_CHUNK_ENTRIES;
            let mut end = i;
            let mut chunk_entries = 0usize;
            while end < level.end
                && ((end - i) as usize) < node_room.max(1)
                && chunk_entries < entry_room
                && chunk_entries < entry_cap
            {
                let (start, stop) = tree.entry_range(end);
                chunk_entries += stop - start;
                end += 1;
            }
            let lanes = plan_chunk(
                &*tree,
                dim,
                limits.max_capacity,
                i..end,
                chunk_entries,
                pool,
                &mut workers,
            );

            // Stitch, serially and in frontier order: the lanes planned
            // consecutive runs of the chunk.
            let mut nodes = i..end;
            for worker in &workers[..lanes] {
                for (plan, node) in worker.plans.iter().zip(nodes.by_ref()) {
                    let (start, stop) = tree.entry_range(node);
                    if stop - start <= limits.max_capacity
                        || tree.node_count() >= limits.max_nodes
                        || stop >= limits.max_entries
                    {
                        continue;
                    }
                    let Some(plan) = plan else { continue };
                    let first = tree.node_count() as u32;
                    let children = plan.first_child..plan.first_child + plan.child_count;
                    tree.attach(
                        node,
                        plan.split,
                        &worker.scratch.cells[children.start * 2 * dim..children.end * 2 * dim],
                    );
                    for (child, &(start, stop)) in (first..).zip(&worker.scratch.children[children])
                    {
                        tree.record_entries(child, &worker.scratch.entries[start..stop]);
                    }
                }
            }
            i = end;
        }
        level = level.end..tree.node_count() as u32;
        depth += 1;
    }
}

/// Plans the nodes `chunk` (carrying `chunk_entries` entries) into the
/// first lanes of `workers` and returns how many lanes it used.  Serial
/// unless `pool` has several threads and the chunk carries at least
/// [`PARALLEL_BUILD_MIN_ENTRIES`] entries; then each pool thread plans one
/// contiguous run, the runs balanced by entry count.
fn plan_chunk<T: ArenaTree>(
    tree: &T,
    dim: usize,
    max_capacity: usize,
    chunk: Range<u32>,
    chunk_entries: usize,
    pool: Option<&ThreadPool>,
    workers: &mut Vec<Worker<T::Split>>,
) -> usize {
    let Some(pool) =
        pool.filter(|p| p.threads() > 1 && chunk_entries >= PARALLEL_BUILD_MIN_ENTRIES)
    else {
        workers[0].plan_run(tree, dim, max_capacity, chunk);
        return 1;
    };
    let lanes = pool.threads().min(chunk.len());
    if workers.len() < lanes {
        workers.resize_with(lanes, Worker::default);
    }
    pool.scope(|s| {
        let (mut start, mut seen) = (chunk.start, 0usize);
        for (lane, worker) in workers[..lanes].iter_mut().enumerate() {
            let target = chunk_entries * (lane + 1) / lanes;
            let mut end = start;
            while end < chunk.end && (seen < target || lane + 1 == lanes) {
                let (from, to) = tree.entry_range(end);
                seen += to - from;
                end += 1;
            }
            s.spawn(move || worker.plan_run(tree, dim, max_capacity, start..end));
            start = end;
        }
    });
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lines `a·x + b·y + c = 0` as slab rows.
    fn slab(lines: &[(f64, f64, f64)]) -> HyperplaneSlab {
        let mut slab = HyperplaneSlab::new(2);
        for &(a, b, c) in lines {
            slab.push(&[a, b], c);
        }
        slab
    }

    #[test]
    fn partition_orders_children_first_cut_major_and_clamps_cuts() {
        // x = 0.1 (left of the x cut), y = 0.9 (above the y cut).
        let slab = slab(&[(1.0, 0.0, -0.1), (0.0, 1.0, -0.9)]);
        let mut scratch = PlanScratch::default();
        // The y cut lies outside the cell and is clamped onto its top edge.
        scratch.cuts.extend([(0, 0.25), (1, 5.0)]);
        assert!(scratch.partition(&slab, &[0.0, 0.0], &[1.0, 1.0], &[0, 1]));
        let cells: Vec<&[f64]> = scratch.cells.chunks(4).collect();
        assert_eq!(
            cells,
            [
                &[0.0, 0.0, 0.25, 1.0][..],
                &[0.0, 1.0, 0.25, 1.0],
                &[0.25, 0.0, 1.0, 1.0],
                &[0.25, 1.0, 1.0, 1.0],
            ]
        );
        let lists: Vec<&[u32]> = scratch
            .children
            .iter()
            .map(|&(start, end)| &scratch.entries[start..end])
            .collect();
        assert_eq!(lists, [&[0, 1][..], &[0], &[1], &[]]);
    }

    #[test]
    fn partition_without_progress_leaves_the_scratch_unchanged() {
        // Both lines cross both halves of a vertical cut.
        let slab = slab(&[(0.0, 1.0, -0.5), (0.0, 1.0, -0.6)]);
        let mut scratch = PlanScratch::default();
        scratch.cuts.push((0, 0.5));
        assert!(!scratch.partition(&slab, &[0.0, 0.0], &[1.0, 1.0], &[0, 1]));
        assert!(scratch.cells.is_empty() && scratch.children.is_empty());
        assert!(scratch.entries.is_empty());
        scratch.cuts.clear();
        assert!(!scratch.partition(&slab, &[0.0, 0.0], &[1.0, 1.0], &[0, 1]));
    }
}
