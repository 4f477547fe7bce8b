//! The general (any `d ≥ 2`) index-based eclipse query engine.
//!
//! Build phase (Algorithm 6):
//! 1. compute the skyline of the dataset (only skyline points can be eclipse
//!    points);
//! 2. for every pair of skyline points build the *score-difference
//!    hyperplane* in `(d−1)`-dimensional weight-ratio space
//!    (`f(r) = Σ_j (a[j] − b[j])·r_j + (a[d] − b[d])`, see
//!    [`eclipse_geom::dual::score_difference_hyperplane`]) — assembled
//!    directly into a [`HyperplaneSlab`] of dense coefficient rows;
//! 3. index those hyperplanes with a line quadtree (QUAD) or a cutting tree
//!    (CUTTING) over a bounded region of ratio space.
//!
//! Query phase (Algorithms 5/7):
//! 1. score all skyline points at the lower corner of the query box and rank
//!    them (the initial Order Vector — the paper stores per-cell vectors; we
//!    follow its own high-dimensional practical choice of computing the
//!    vector at query time in O(u log u), which it notes "does not impact the
//!    entire time complexity");
//! 2. fetch from the Intersection Index the hyperplanes crossing the query
//!    box — exactly the pairs whose relative order changes inside the box;
//! 3. replay those pairs.  The paper's replay assumes general position; ours
//!    adjudicates every fetched pair exactly (does `a` dominate `b` over the
//!    whole box, or vice versa, or neither?), so ties, duplicate points and
//!    boundary contacts are handled without any assumption.
//! 4. points whose final dominator count is zero are the eclipse points.
//!
//! The query phase is engineered for steady-state serving: every buffer a
//! probe touches lives in a caller-provided [`ProbeScratch`], so
//! [`EclipseIndex::query_with_scratch`] performs **zero heap allocations**
//! once the buffers have grown to their high-water capacity — including the
//! tree traversal (explicit stack + visited bitmap), the candidate list, the
//! initial order vector (an incrementally reused sort buffer) and the result
//! itself.  [`EclipseIndex::query_batch`] fans locality-sorted probes out
//! over an [`ExecutionContext`] with one scratch per worker.

use std::sync::Arc;

use eclipse_persist::{enc, Cursor, PersistError, SnapshotReader, SnapshotWriter};
use serde::{Deserialize, Serialize};

use eclipse_geom::approx::EPS;
use eclipse_geom::cutting::{CutRule, CuttingTree, CuttingTreeConfig};
use eclipse_geom::hyperplane::HyperplaneSlab;
use eclipse_geom::point::{BoundingBox, Point};
use eclipse_geom::quadtree::{HyperplaneQuadtree, QuadtreeConfig, SplitRule};
use eclipse_geom::traverse::TraversalScratch;

use crate::error::{EclipseError, Result};
use crate::exec::ExecutionContext;
use crate::weights::WeightRatioBox;

/// Which Intersection Index backs the eclipse index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntersectionIndexKind {
    /// Line quadtree / hyperplane octree (the paper's QUAD).
    #[default]
    Quadtree,
    /// Randomized cutting tree (the paper's CUTTING).
    CuttingTree,
}

/// Construction parameters for [`EclipseIndex`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct IndexConfig {
    /// Which spatial structure indexes the intersection hyperplanes.
    pub kind: IntersectionIndexKind,
    /// Upper bound of the indexed region of ratio space: the root cell is
    /// `[0, max_ratio]^{d−1}`.  Queries that are not fully contained in the
    /// root cell still return exact results via a linear fallback scan of the
    /// pairs, so this is a performance knob, not a correctness one.
    pub max_ratio: f64,
    /// Quadtree parameters (used when `kind == Quadtree`).
    pub quadtree: QuadtreeConfig,
    /// Cutting-tree parameters (used when `kind == CuttingTree`).
    pub cutting: CuttingTreeConfig,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            kind: IntersectionIndexKind::Quadtree,
            max_ratio: 16.0,
            quadtree: QuadtreeConfig::default(),
            cutting: CuttingTreeConfig::default(),
        }
    }
}

impl IndexConfig {
    /// Convenience constructor selecting the backend kind with default
    /// parameters otherwise.
    pub fn with_kind(kind: IntersectionIndexKind) -> Self {
        IndexConfig {
            kind,
            ..IndexConfig::default()
        }
    }
}

#[derive(Clone, Debug)]
enum Backend {
    Quad(HyperplaneQuadtree),
    Cutting(CuttingTree),
}

// --- snapshot format --------------------------------------------------------
//
// An index snapshot is an `eclipse_persist` container (magic + format version
// + checksummed sections) with the sections below.  Engine-level snapshots
// prepend a dataset section; the index-level codec ignores sections it does
// not know, so both shapes decode with the same reader.

/// Snapshot section: index metadata (dimensionality, skyline size, pair
/// count) — decoded first so later sections can be cross-validated.
pub const SECTION_INDEX_META: u8 = 0x01;
/// Snapshot section: the full [`IndexConfig`] the index was built with.
pub const SECTION_INDEX_CONFIG: u8 = 0x02;
/// Snapshot section: skyline ids (into the original dataset) and the flat
/// skyline coordinate buffer.
pub const SECTION_SKYLINE: u8 = 0x03;
/// Snapshot section: the backend tree arena (kind tag + tree payload).
pub const SECTION_BACKEND: u8 = 0x04;
/// Snapshot section: dataset label, dimensionality and row-major coordinates
/// (written by [`crate::query::EclipseEngine`]-level snapshots only).
pub const SECTION_DATASET: u8 = 0x05;

/// Wire tag of the quadtree backend inside [`SECTION_BACKEND`].
const BACKEND_TAG_QUAD: u8 = 0;
/// Wire tag of the cutting-tree backend inside [`SECTION_BACKEND`].
const BACKEND_TAG_CUTTING: u8 = 1;

/// Shorthand for a structural snapshot defect found by cross-validation.
fn snapshot_err(reason: impl Into<String>) -> EclipseError {
    EclipseError::Snapshot(reason.into())
}

/// Reusable buffers for the query (probe) path.
///
/// One eclipse query scores all `u` skyline points, ranks them, gathers the
/// candidate pairs from the intersection index and replays them; with fresh
/// buffers that is half a dozen allocations per probe.  Callers answering
/// many queries (servers, the bench harness, [`EclipseIndex::query_batch`])
/// keep one `ProbeScratch` per thread and pass it to
/// [`EclipseIndex::query_with_scratch`]: every buffer — scores, the reused
/// sort buffer, the order vector, the query corners, the candidate list, the
/// tree-traversal stack and visited bitmap, and the result itself — is then
/// reused at its high-water capacity, so a steady-state probe allocates
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct ProbeScratch {
    /// Scores of the skyline points at the query's lower corner.
    scores: Vec<f64>,
    /// The same scores, sorted, for rank computation (incrementally reused).
    sorted: Vec<f64>,
    /// Dominator counts (the Order Vector).
    ov: Vec<i64>,
    /// Lower / upper query corner in ratio space.
    qlo: Vec<f64>,
    qhi: Vec<f64>,
    /// Candidate pair ids fetched from the intersection index.
    candidates: Vec<usize>,
    /// Tree-traversal state (explicit stack + visited bitmap).
    traversal: TraversalScratch,
    /// The most recent query result (dataset indices, ascending).
    out: Vec<usize>,
}

impl ProbeScratch {
    /// A scratch with empty buffers (they grow to the index size on first
    /// use).
    pub fn new() -> Self {
        ProbeScratch::default()
    }
}

/// Index-based eclipse query engine over a fixed dataset.
#[derive(Clone, Debug)]
pub struct EclipseIndex {
    dim: usize,
    /// Indices (into the original dataset) of the skyline points, ascending.
    skyline_ids: Vec<usize>,
    /// Skyline coordinates in one flat row-major buffer (`u` rows × `dim`) —
    /// the single owned copy of the skyline, shared by corner scoring and
    /// hyperplane construction (the dataset points are never cloned).
    skyline_coords: Box<[f64]>,
    /// Pairs of *local* skyline indices, aligned with the hyperplane slab
    /// owned by the backend tree.
    pairs: Vec<(u32, u32)>,
    /// The arena, shared by every id-remapped copy of the index (a
    /// non-skyline delete changes ids, never the arena).
    backend: Arc<Backend>,
    root_cell: BoundingBox,
    config: IndexConfig,
}

impl EclipseIndex {
    /// Builds the index over `points` with the given configuration, using
    /// the process-wide default execution context for the parallel phases.
    ///
    /// # Errors
    /// * [`EclipseError::EmptyDataset`] for an empty dataset.
    /// * [`EclipseError::DimensionMismatch`] for mixed dimensionalities.
    /// * [`EclipseError::Unsupported`] for 1-dimensional points.
    pub fn build(points: &[Point], config: IndexConfig) -> Result<Self> {
        Self::build_with(points, config, &ExecutionContext::default())
    }

    /// [`EclipseIndex::build`] with an explicit execution context: the
    /// skyline pass runs on the parallel divide-and-conquer executor and the
    /// `C(u, 2)` score-difference hyperplanes are constructed row-parallel.
    /// Both phases are deterministic, so the built index is identical to the
    /// serial one.
    ///
    /// # Errors
    /// Same as [`EclipseIndex::build`].
    pub fn build_with(
        points: &[Point],
        config: IndexConfig,
        ctx: &ExecutionContext,
    ) -> Result<Self> {
        Self::validate_dataset(points)?;
        // 1. Skyline points (forked divide step when the context has lanes).
        // Only the ids and one flat coordinate buffer are kept: no `Point`
        // clones.
        let skyline_ids = eclipse_skyline::dc::skyline_dc_parallel(points, ctx.pool());
        Self::build_from_skyline(points, skyline_ids, config, ctx)
    }

    /// The shared dataset validity requirements of every build entry point.
    fn validate_dataset(points: &[Point]) -> Result<usize> {
        let Some(first) = points.first() else {
            return Err(EclipseError::EmptyDataset);
        };
        let dim = first.dim();
        if dim < 2 {
            return Err(EclipseError::Unsupported(
                "the eclipse index requires d ≥ 2".to_string(),
            ));
        }
        for p in points {
            if p.dim() != dim {
                return Err(EclipseError::DimensionMismatch {
                    expected: dim,
                    found: p.dim(),
                });
            }
        }
        Ok(dim)
    }

    /// [`EclipseIndex::build_with`] with the skyline pass already done:
    /// `skyline_ids` must be exactly what
    /// [`eclipse_skyline::dc::skyline_dc_parallel`] would return for
    /// `points` (the strictly ascending, duplicate-deduplicated skyline).
    /// Incremental maintenance derives the post-mutation skyline from the
    /// pre-mutation one and hands it here, skipping the full-dataset skyline
    /// recomputation; everything downstream is the plain build path, so equal
    /// skyline id sets produce **byte-identical** arenas to a full build
    /// (asserted by the mutation suites and every `experiments -- mutate`
    /// pass).
    ///
    /// # Errors
    /// Same dataset validation as [`EclipseIndex::build`], plus
    /// [`EclipseError::Snapshot`]-free structural checks on the id list
    /// (ascending, in range) surfaced as [`EclipseError::Unsupported`].
    pub fn build_from_skyline(
        points: &[Point],
        skyline_ids: Vec<usize>,
        config: IndexConfig,
        ctx: &ExecutionContext,
    ) -> Result<Self> {
        let dim = Self::validate_dataset(points)?;
        if !skyline_ids.windows(2).all(|w| w[0] < w[1])
            || skyline_ids.last().is_some_and(|&id| id >= points.len())
        {
            return Err(EclipseError::Unsupported(
                "skyline ids must be strictly ascending indices into the dataset".to_string(),
            ));
        }
        let u = skyline_ids.len();
        let mut coords = Vec::with_capacity(u * dim);
        for &i in &skyline_ids {
            coords.extend_from_slice(points[i].coords());
        }
        let skyline_coords: Box<[f64]> = coords.into_boxed_slice();

        // 2. Intersection hyperplanes for every pair, assembled directly into
        // a structure-of-arrays slab; row-parallel over `a` (results are
        // concatenated in row order, so the layout is identical to the serial
        // double loop).
        let k = dim - 1;
        let num_pairs = u * u.saturating_sub(1) / 2;
        let mut pairs = Vec::with_capacity(num_pairs);
        let mut slab = HyperplaneSlab::with_capacity(k, num_pairs);
        let pair_row = |a: usize, row: &mut Vec<f64>, row_slab: &mut HyperplaneSlab| {
            let pa = &skyline_coords[a * dim..(a + 1) * dim];
            for b in a + 1..u {
                let pb = &skyline_coords[b * dim..(b + 1) * dim];
                row.clear();
                row.extend((0..k).map(|j| pa[j] - pb[j]));
                row_slab.push(row, pa[k] - pb[k]);
            }
        };
        if ctx.threads() > 1 && u >= 128 {
            let rows: Vec<usize> = (0..u).collect();
            let built = ctx.pool().par_map(&rows, |&a| {
                let mut row = Vec::with_capacity(k);
                let mut row_slab = HyperplaneSlab::with_capacity(k, u - a - 1);
                pair_row(a, &mut row, &mut row_slab);
                row_slab
            });
            for (a, row_slab) in built.iter().enumerate() {
                for b in a + 1..u {
                    pairs.push((a as u32, b as u32));
                }
                slab.extend_from(row_slab);
            }
        } else {
            let mut row = Vec::with_capacity(k);
            for a in 0..u {
                for b in a + 1..u {
                    pairs.push((a as u32, b as u32));
                }
                pair_row(a, &mut row, &mut slab);
            }
        }

        // 3. Spatial index over the hyperplanes (the tree takes ownership of
        // the slab; the replay phase reads it back through the backend).
        // The same pool handle that ran phases 1–2 drives the level-parallel
        // tree builders; their output is byte-identical to a serial build.
        let root_cell = BoundingBox::new(vec![0.0; k], vec![config.max_ratio; k]);
        let backend = match config.kind {
            IntersectionIndexKind::Quadtree => {
                Backend::Quad(HyperplaneQuadtree::build_from_slab_with(
                    slab,
                    root_cell.clone(),
                    config.quadtree,
                    Some(ctx.pool()),
                ))
            }
            IntersectionIndexKind::CuttingTree => {
                Backend::Cutting(CuttingTree::build_from_slab_with(
                    slab,
                    root_cell.clone(),
                    config.cutting,
                    Some(ctx.pool()),
                ))
            }
        };

        Ok(EclipseIndex {
            dim,
            skyline_ids,
            skyline_coords,
            pairs,
            backend: Arc::new(backend),
            root_cell,
            config,
        })
    }

    /// Dataset dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of skyline points the index covers.
    pub fn skyline_len(&self) -> usize {
        self.skyline_ids.len()
    }

    /// Indices (into the original dataset) of the skyline points.
    pub fn skyline_ids(&self) -> &[usize] {
        &self.skyline_ids
    }

    /// Number of indexed intersection hyperplanes (`C(u, 2)`).
    pub fn num_intersections(&self) -> usize {
        self.pairs.len()
    }

    /// A copy of the index re-targeted at the dataset with row `deleted`
    /// removed: ids above the deleted row shift down by one.  Only valid when
    /// the deleted row is **not** a skyline member — the skyline point-set
    /// (and with it every hyperplane and arena byte) is then unchanged, so
    /// the copy is byte-identical to a fresh build over the mutated dataset.
    /// The copy shares the arena and copies only the skyline-sized buffers;
    /// the remapped id list keeps the original's capacity, so the copy's
    /// [`EclipseIndex::heap_bytes`] equals the original's.
    pub(crate) fn with_deleted_id(&self, deleted: usize) -> Self {
        debug_assert!(
            !self.skyline_ids.contains(&deleted),
            "id remap is only sound for non-skyline deletes"
        );
        let mut skyline_ids = Vec::with_capacity(self.skyline_ids.capacity());
        skyline_ids.extend(
            self.skyline_ids
                .iter()
                .map(|&id| if id > deleted { id - 1 } else { id }),
        );
        EclipseIndex {
            dim: self.dim,
            skyline_ids,
            skyline_coords: self.skyline_coords.clone(),
            pairs: self.pairs.clone(),
            backend: Arc::clone(&self.backend),
            root_cell: self.root_cell.clone(),
            config: self.config,
        }
    }

    /// The configuration used to build the index.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Diagnostic: depth of the underlying spatial structure.
    pub fn backend_depth(&self) -> usize {
        match &*self.backend {
            Backend::Quad(t) => t.depth(),
            Backend::Cutting(t) => t.depth(),
        }
    }

    /// Heap bytes owned by the index: the skyline id/coordinate buffers, the
    /// pair list, the root cell's corners and the whole backend arena
    /// (hyperplane slab, nodes, cells, entries).  Buffers with spare
    /// capacity are counted at capacity; allocator headers and the inline
    /// struct itself are not included.
    pub fn heap_bytes(&self) -> usize {
        let backend = match &*self.backend {
            Backend::Quad(t) => t.heap_bytes(),
            Backend::Cutting(t) => t.heap_bytes(),
        };
        self.skyline_ids.capacity() * std::mem::size_of::<usize>()
            + self.skyline_coords.len() * std::mem::size_of::<f64>()
            + self.pairs.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.root_cell.heap_bytes()
            + backend
    }

    /// Diagnostic: node count of the underlying spatial structure.
    pub fn backend_nodes(&self) -> usize {
        match &*self.backend {
            Backend::Quad(t) => t.node_count(),
            Backend::Cutting(t) => t.node_count(),
        }
    }

    /// The intersection-hyperplane rows, owned by the backend tree.
    fn slab(&self) -> &HyperplaneSlab {
        match &*self.backend {
            Backend::Quad(t) => t.slab(),
            Backend::Cutting(t) => t.slab(),
        }
    }

    /// Answers an eclipse query, returning indices into the original dataset
    /// in ascending order.
    ///
    /// # Errors
    /// * [`EclipseError::DimensionMismatch`] when the box does not match the
    ///   dataset dimensionality.
    /// * [`EclipseError::Unsupported`] when a ratio range is unbounded (route
    ///   the skyline instantiation through [`crate::query::EclipseEngine`]).
    pub fn query(&self, ratio_box: &WeightRatioBox) -> Result<Vec<usize>> {
        let mut scratch = ProbeScratch::new();
        self.query_with_scratch(ratio_box, &mut scratch)?;
        Ok(std::mem::take(&mut scratch.out))
    }

    /// [`EclipseIndex::query`] with caller-provided scratch buffers: the
    /// steady-state serving flavour.  Returns a slice borrowed from the
    /// scratch (valid until the next probe); once the buffers have reached
    /// their high-water capacity a probe performs **no heap allocations** —
    /// on the indexed path and on the exact linear fallback alike.
    ///
    /// # Errors
    /// Same as [`EclipseIndex::query`].
    pub fn query_with_scratch<'s>(
        &self,
        ratio_box: &WeightRatioBox,
        scratch: &'s mut ProbeScratch,
    ) -> Result<&'s [usize]> {
        self.probe_into(ratio_box, scratch)?;
        let ProbeScratch { ov, out, .. } = scratch;
        out.clear();
        // `skyline_ids` is ascending, so the result needs no sort.
        out.extend(
            ov.iter()
                .enumerate()
                .filter(|&(_, &count)| count == 0)
                .map(|(k, _)| self.skyline_ids[k]),
        );
        Ok(out)
    }

    /// Answers a batch of eclipse queries, fanning the probes out over `ctx`
    /// with one [`ProbeScratch`] per worker chunk.  Probes are locality-sorted
    /// (lexicographically by lower corner) before chunking so neighbouring
    /// probes walk the same tree regions; results are returned in input
    /// order.
    ///
    /// # Errors
    /// Validates every box up front ([`EclipseError::DimensionMismatch`] /
    /// [`EclipseError::Unsupported`] for unbounded ranges); no partial
    /// results are returned.
    pub fn query_batch(
        &self,
        boxes: &[WeightRatioBox],
        ctx: &ExecutionContext,
    ) -> Result<Vec<Vec<usize>>> {
        self.validate_batch(boxes)?;
        // Degenerate batches never touch the pool: an empty slice returns
        // immediately and a single probe is answered inline, so tiny serving
        // requests pay no dispatch overhead.
        if boxes.is_empty() {
            return Ok(Vec::new());
        }
        if let [only] = boxes {
            let mut scratch = ProbeScratch::new();
            return Ok(vec![self.query_with_scratch(only, &mut scratch)?.to_vec()]);
        }
        let order = locality_order(boxes);
        let chunk_len = order.len().div_ceil(ctx.threads() * 4).max(1);
        let chunks = ctx.pool().par_chunks(&order, chunk_len, |_, chunk| {
            let mut scratch = ProbeScratch::new();
            chunk
                .iter()
                .map(|&bi| {
                    self.query_with_scratch(&boxes[bi], &mut scratch)
                        .map(<[usize]>::to_vec)
                        .expect("query_batch boxes are validated before dispatch")
                })
                .collect::<Vec<_>>()
        });
        let mut results: Vec<Vec<usize>> = vec![Vec::new(); boxes.len()];
        for (chunk_results, chunk_ids) in chunks.into_iter().zip(order.chunks(chunk_len)) {
            for (res, &bi) in chunk_results.into_iter().zip(chunk_ids) {
                results[bi] = res;
            }
        }
        Ok(results)
    }

    /// Answers an eclipse query with only the result **cardinality** — the
    /// number of eclipse points — computed without materializing a single
    /// result id (the ROADMAP's count-only probe: the order vector is
    /// replayed exactly as in [`EclipseIndex::query_with_scratch`], then the
    /// zero-dominator entries are counted instead of being gathered).
    ///
    /// # Errors
    /// Same as [`EclipseIndex::query`].
    pub fn count(&self, ratio_box: &WeightRatioBox) -> Result<usize> {
        self.count_with_scratch(ratio_box, &mut ProbeScratch::new())
    }

    /// [`EclipseIndex::count`] with caller-provided scratch: the steady-state
    /// serving flavour.  Once the buffers have reached their high-water
    /// capacity a count probe performs **no heap allocations**, and it never
    /// touches the scratch's result buffer.
    ///
    /// # Errors
    /// Same as [`EclipseIndex::query`].
    pub fn count_with_scratch(
        &self,
        ratio_box: &WeightRatioBox,
        scratch: &mut ProbeScratch,
    ) -> Result<usize> {
        self.probe_into(ratio_box, scratch)?;
        Ok(scratch.ov.iter().filter(|&&count| count == 0).count())
    }

    /// The shared core of a probe: validate the box, load its corners into
    /// the scratch, gather the candidate pairs and replay them into the
    /// order vector.  Callers then read the result (`query_with_scratch`)
    /// or just count the zeros (`count_with_scratch`).
    fn probe_into(&self, ratio_box: &WeightRatioBox, scratch: &mut ProbeScratch) -> Result<()> {
        self.validate_probe(ratio_box)?;
        scratch.qlo.clear();
        scratch.qhi.clear();
        for r in ratio_box.ranges() {
            scratch.qlo.push(r.lo());
            scratch.qhi.push(r.hi());
        }
        self.candidate_pairs(scratch);
        self.replay(scratch);
        Ok(())
    }

    /// Answers a batch of count-only eclipse queries, fanning the probes out
    /// over `ctx` exactly like [`EclipseIndex::query_batch`] (locality sort,
    /// one scratch per worker chunk) but returning only the cardinalities —
    /// no per-probe result vector is ever allocated.
    ///
    /// # Errors
    /// Validates every box up front; no partial results are returned.
    pub fn count_batch(
        &self,
        boxes: &[WeightRatioBox],
        ctx: &ExecutionContext,
    ) -> Result<Vec<usize>> {
        self.validate_batch(boxes)?;
        if boxes.is_empty() {
            return Ok(Vec::new());
        }
        if let [only] = boxes {
            return Ok(vec![
                self.count_with_scratch(only, &mut ProbeScratch::new())?
            ]);
        }
        let order = locality_order(boxes);
        let chunk_len = order.len().div_ceil(ctx.threads() * 4).max(1);
        let chunks = ctx.pool().par_chunks(&order, chunk_len, |_, chunk| {
            let mut scratch = ProbeScratch::new();
            chunk
                .iter()
                .map(|&bi| {
                    self.count_with_scratch(&boxes[bi], &mut scratch)
                        .expect("count_batch boxes are validated before dispatch")
                })
                .collect::<Vec<_>>()
        });
        let mut counts: Vec<usize> = vec![0; boxes.len()];
        for (chunk_counts, chunk_ids) in chunks.into_iter().zip(order.chunks(chunk_len)) {
            for (res, &bi) in chunk_counts.into_iter().zip(chunk_ids) {
                counts[bi] = res;
            }
        }
        Ok(counts)
    }

    /// Diagnostic: the number of indexed intersection hyperplanes crossing
    /// `ratio_box` — the candidate-set size a probe of that box replays.
    /// Uses the backend trees' count-only traversal (contained cells are
    /// popcounted straight from their subtree entry list) when the box lies
    /// inside the indexed region, and an exact linear scan otherwise.
    ///
    /// # Errors
    /// Same as [`EclipseIndex::query`].
    pub fn intersections_crossing(&self, ratio_box: &WeightRatioBox) -> Result<usize> {
        self.validate_probe(ratio_box)?;
        let qlo = ratio_box.lower_corner();
        let qhi = ratio_box.upper_corner();
        let contained = self
            .root_cell
            .lo()
            .iter()
            .zip(self.root_cell.hi())
            .zip(qlo.iter().zip(qhi.iter()))
            .all(|((rl, rh), (ql, qh))| rl <= ql && rh >= qh);
        if contained {
            let mut traversal = TraversalScratch::new();
            Ok(match &*self.backend {
                Backend::Quad(t) => t.count_in_box(&qlo, &qhi, &mut traversal),
                Backend::Cutting(t) => t.count_in_box(&qlo, &qhi, &mut traversal),
            })
        } else {
            let slab = self.slab();
            Ok((0..slab.len())
                .filter(|&i| slab.intersects_box(i, &qlo, &qhi))
                .count())
        }
    }

    /// Appends the index's snapshot sections (metadata, config, skyline,
    /// backend arena) to a container under construction — the engine-level
    /// snapshot composes this with a dataset section.
    pub fn encode_snapshot_into(&self, writer: &mut SnapshotWriter) {
        let mut meta = Vec::new();
        enc::put_u32(&mut meta, self.dim as u32);
        enc::put_usize(&mut meta, self.skyline_ids.len());
        enc::put_usize(&mut meta, self.pairs.len());
        writer.section(SECTION_INDEX_META, meta);

        let mut config = Vec::new();
        enc::put_u8(
            &mut config,
            match self.config.kind {
                IntersectionIndexKind::Quadtree => BACKEND_TAG_QUAD,
                IntersectionIndexKind::CuttingTree => BACKEND_TAG_CUTTING,
            },
        );
        enc::put_f64(&mut config, self.config.max_ratio);
        enc::put_usize(&mut config, self.config.quadtree.max_capacity);
        enc::put_usize(&mut config, self.config.quadtree.max_depth);
        enc::put_usize(&mut config, self.config.quadtree.max_nodes);
        enc::put_usize(&mut config, self.config.quadtree.max_entries);
        enc::put_usize(&mut config, self.config.cutting.max_capacity);
        enc::put_usize(&mut config, self.config.cutting.max_depth);
        enc::put_usize(&mut config, self.config.cutting.sample_size);
        enc::put_usize(&mut config, self.config.cutting.max_nodes);
        enc::put_usize(&mut config, self.config.cutting.max_entries);
        enc::put_u64(&mut config, self.config.cutting.seed);
        // One strategy tag per backend config.
        enc::put_u8(&mut config, self.config.quadtree.split.tag());
        enc::put_u8(&mut config, self.config.cutting.cut.tag());
        writer.section(SECTION_INDEX_CONFIG, config);

        let mut skyline = Vec::new();
        enc::put_usize(&mut skyline, self.skyline_ids.len());
        for &id in &self.skyline_ids {
            enc::put_usize(&mut skyline, id);
        }
        for &c in self.skyline_coords.iter() {
            enc::put_f64(&mut skyline, c);
        }
        writer.section(SECTION_SKYLINE, skyline);

        let mut backend = Vec::new();
        match &*self.backend {
            Backend::Quad(t) => {
                enc::put_u8(&mut backend, BACKEND_TAG_QUAD);
                t.encode_into(&mut backend);
            }
            Backend::Cutting(t) => {
                enc::put_u8(&mut backend, BACKEND_TAG_CUTTING);
                t.encode_into(&mut backend);
            }
        }
        writer.section(SECTION_BACKEND, backend);
    }

    /// Serializes the index into a standalone versioned snapshot (magic +
    /// format version + checksummed sections).  The encoding is byte-stable:
    /// the same dataset and config always produce the same bytes, which is
    /// what the committed golden fixtures pin across releases.
    pub fn encode_snapshot(&self) -> Vec<u8> {
        let mut writer = SnapshotWriter::new();
        self.encode_snapshot_into(&mut writer);
        writer.finish()
    }

    /// Decodes an index from the sections of a parsed snapshot container,
    /// re-validating everything the probe path relies on: section
    /// cross-consistency (pair count is `C(u, 2)` and matches the slab,
    /// config matches the backend tree, the tree's root cell is the indexed
    /// region), plus the arena invariants checked by the tree decoders.
    ///
    /// # Errors
    /// [`EclipseError::Snapshot`] for every structural defect; hostile input
    /// never panics and never over-allocates.
    pub(crate) fn from_snapshot_reader(reader: &SnapshotReader<'_>) -> Result<Self> {
        let mut meta = Cursor::new(reader.section(SECTION_INDEX_META)?);
        let dim = meta.u32()? as usize;
        let u = meta.usize64()?;
        let num_pairs = meta.usize64()?;
        meta.finish()?;
        if dim < 2 {
            return Err(snapshot_err(format!(
                "index dimensionality {dim} is below the d ≥ 2 minimum"
            )));
        }
        let expected_pairs = (u as u128 * u.saturating_sub(1) as u128) / 2;
        if num_pairs as u128 != expected_pairs {
            return Err(snapshot_err(format!(
                "pair count {num_pairs} is not C({u}, 2)"
            )));
        }

        let mut cfg = Cursor::new(reader.section(SECTION_INDEX_CONFIG)?);
        let kind = match cfg.u8()? {
            BACKEND_TAG_QUAD => IntersectionIndexKind::Quadtree,
            BACKEND_TAG_CUTTING => IntersectionIndexKind::CuttingTree,
            tag => {
                return Err(PersistError::UnknownTag {
                    context: "index kind",
                    tag,
                }
                .into())
            }
        };
        let max_ratio = cfg.f64()?;
        if !max_ratio.is_finite() || max_ratio < 0.0 {
            return Err(snapshot_err(format!(
                "indexed-region bound {max_ratio} must be finite and non-negative"
            )));
        }
        // Both trees' limits come first, then their split and cut rule tags.
        let (max_capacity, max_depth, max_nodes, max_entries) = (
            cfg.usize64()?,
            cfg.usize64()?,
            cfg.usize64()?,
            cfg.usize64()?,
        );
        let cutting_limits = (
            cfg.usize64()?,
            cfg.usize64()?,
            cfg.usize64()?,
            cfg.usize64()?,
            cfg.usize64()?,
            cfg.u64()?,
        );
        let quadtree = QuadtreeConfig {
            max_capacity,
            max_depth,
            max_nodes,
            max_entries,
            split: SplitRule::from_tag(cfg.u8()?)?,
        };
        let (max_capacity, max_depth, sample_size, max_nodes, max_entries, seed) = cutting_limits;
        let cutting = CuttingTreeConfig {
            max_capacity,
            max_depth,
            sample_size,
            max_nodes,
            max_entries,
            seed,
            cut: CutRule::from_tag(cfg.u8()?)?,
        };
        let config = IndexConfig {
            kind,
            max_ratio,
            quadtree,
            cutting,
        };
        cfg.finish()?;

        let mut sky = Cursor::new(reader.section(SECTION_SKYLINE)?);
        let id_count = sky.count(8)?;
        if id_count != u {
            return Err(snapshot_err(format!(
                "skyline section holds {id_count} ids but the metadata says {u}"
            )));
        }
        let mut skyline_ids = Vec::with_capacity(id_count);
        for _ in 0..id_count {
            skyline_ids.push(sky.usize64()?);
        }
        if !skyline_ids.windows(2).all(|w| w[0] < w[1]) {
            return Err(snapshot_err(
                "skyline ids must be strictly ascending".to_string(),
            ));
        }
        let coord_count = u
            .checked_mul(dim)
            .ok_or_else(|| snapshot_err(format!("{u} skyline rows of dimension {dim} overflow")))?;
        let skyline_coords: Box<[f64]> = sky.f64_vec(coord_count)?.into_boxed_slice();
        sky.finish()?;

        let mut be = Cursor::new(reader.section(SECTION_BACKEND)?);
        let backend_tag = be.u8()?;
        let backend = match backend_tag {
            BACKEND_TAG_QUAD => Backend::Quad(HyperplaneQuadtree::decode(&mut be)?),
            BACKEND_TAG_CUTTING => Backend::Cutting(CuttingTree::decode(&mut be)?),
            tag => {
                return Err(PersistError::UnknownTag {
                    context: "backend tree",
                    tag,
                }
                .into())
            }
        };
        be.finish()?;
        let tag_kind = match backend_tag {
            BACKEND_TAG_QUAD => IntersectionIndexKind::Quadtree,
            _ => IntersectionIndexKind::CuttingTree,
        };
        if tag_kind != config.kind {
            return Err(snapshot_err(format!(
                "backend tree kind {tag_kind:?} disagrees with the config kind {:?}",
                config.kind
            )));
        }

        let k = dim - 1;
        let (slab, tree_root) = match &backend {
            Backend::Quad(t) => (t.slab(), t.root_cell()),
            Backend::Cutting(t) => (t.slab(), t.root_cell()),
        };
        if slab.dim() != k {
            return Err(snapshot_err(format!(
                "backend slab dimensionality {} does not match the {k}-dimensional ratio space",
                slab.dim()
            )));
        }
        if slab.len() != num_pairs {
            return Err(snapshot_err(format!(
                "backend indexes {} hyperplanes but the metadata says {num_pairs}",
                slab.len()
            )));
        }
        let root_cell = BoundingBox::new(vec![0.0; k], vec![max_ratio; k]);
        if *tree_root != root_cell {
            return Err(snapshot_err(
                "backend root cell does not match the configured indexed region".to_string(),
            ));
        }
        match &backend {
            Backend::Quad(t) => {
                if t.config() != config.quadtree {
                    return Err(snapshot_err(
                        "backend tree config disagrees with the index config".to_string(),
                    ));
                }
            }
            Backend::Cutting(t) => {
                if t.config() != config.cutting {
                    return Err(snapshot_err(
                        "backend tree config disagrees with the index config".to_string(),
                    ));
                }
            }
        }

        // The pair table is fully determined by the skyline size: pairs are
        // laid out (a, b) for a < b in row order, exactly as construction
        // emits them, so it is reconstructed rather than stored.
        let mut pairs = Vec::with_capacity(num_pairs);
        for a in 0..u {
            for b in a + 1..u {
                pairs.push((a as u32, b as u32));
            }
        }

        Ok(EclipseIndex {
            dim,
            skyline_ids,
            skyline_coords,
            pairs,
            backend: Arc::new(backend),
            root_cell,
            config,
        })
    }

    /// Decodes a standalone index snapshot produced by
    /// [`EclipseIndex::encode_snapshot`] (engine-level snapshots decode too;
    /// their extra dataset section is simply not consulted).
    ///
    /// # Errors
    /// [`EclipseError::Snapshot`] on any container or structural defect —
    /// truncation, bit flips, hostile counts and version mismatches all
    /// surface as typed errors, never panics.
    pub fn decode_snapshot(bytes: &[u8]) -> Result<Self> {
        let reader = SnapshotReader::parse(bytes)?;
        Self::from_snapshot_reader(&reader)
    }

    /// Writes [`EclipseIndex::encode_snapshot`] to a file.
    ///
    /// # Errors
    /// [`EclipseError::Snapshot`] wrapping the I/O failure.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.encode_snapshot())
            .map_err(|e| snapshot_err(format!("write {}: {e}", path.display())))
    }

    /// Reads and decodes a snapshot file written by
    /// [`EclipseIndex::save_snapshot`].
    ///
    /// # Errors
    /// [`EclipseError::Snapshot`] for I/O and decode failures alike.
    pub fn load_snapshot(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| snapshot_err(format!("read {}: {e}", path.display())))?;
        Self::decode_snapshot(&bytes)
    }

    /// Validates the index against the dataset it claims to cover: every
    /// skyline id must address a dataset row whose coordinates are
    /// bit-identical to the stored skyline row.  This is what makes an
    /// engine-level restore safe — a snapshot paired with the wrong dataset
    /// is rejected instead of silently serving that dataset wrong results.
    pub(crate) fn validate_against_dataset(&self, dim: usize, coords: &[f64]) -> Result<()> {
        if self.dim != dim {
            return Err(EclipseError::DimensionMismatch {
                expected: dim,
                found: self.dim,
            });
        }
        let n = coords.len() / dim.max(1);
        for (row, &id) in self.skyline_ids.iter().enumerate() {
            if id >= n {
                return Err(EclipseError::SnapshotMismatch {
                    reason: format!("skyline id {id} out of range for {n} dataset points"),
                });
            }
            let stored = &self.skyline_coords[row * dim..(row + 1) * dim];
            let actual = &coords[id * dim..(id + 1) * dim];
            if stored
                .iter()
                .zip(actual.iter())
                .any(|(s, a)| s.to_bits() != a.to_bits())
            {
                return Err(EclipseError::SnapshotMismatch {
                    reason: format!(
                        "skyline row for dataset point {id} does not match the registered \
                         dataset (the snapshot was built over different data)"
                    ),
                });
            }
        }
        Ok(())
    }

    /// The validity requirements every probe shares: matching
    /// dimensionality and finite ratio ranges.
    fn validate_probe(&self, ratio_box: &WeightRatioBox) -> Result<()> {
        if ratio_box.dim() != self.dim {
            return Err(EclipseError::DimensionMismatch {
                expected: self.dim,
                found: ratio_box.dim(),
            });
        }
        if ratio_box.has_unbounded_range() {
            return Err(EclipseError::Unsupported(
                "a BoundingBox in ratio space requires finite ratio ranges".to_string(),
            ));
        }
        Ok(())
    }

    /// Shared up-front validation of the batch APIs.
    fn validate_batch(&self, boxes: &[WeightRatioBox]) -> Result<()> {
        boxes.iter().try_for_each(|b| self.validate_probe(b))
    }

    /// Fills `scratch.candidates` with the indices (into `self.pairs`) of the
    /// candidate intersection hyperplanes for the query box in
    /// `scratch.qlo/qhi`: exactly those intersecting the closed box.
    fn candidate_pairs(&self, scratch: &mut ProbeScratch) {
        let ProbeScratch {
            qlo,
            qhi,
            candidates,
            traversal,
            ..
        } = scratch;
        let contained = self
            .root_cell
            .lo()
            .iter()
            .zip(self.root_cell.hi())
            .zip(qlo.iter().zip(qhi.iter()))
            .all(|((rl, rh), (ql, qh))| rl <= ql && rh >= qh);
        if contained {
            match &*self.backend {
                Backend::Quad(t) => t.query_into(qlo, qhi, traversal, candidates),
                Backend::Cutting(t) => t.query_into(qlo, qhi, traversal, candidates),
            }
        } else {
            // Exact fallback for queries escaping the indexed region — a
            // linear scan over the slab rows, reusing the candidate buffer.
            candidates.clear();
            let slab = self.slab();
            candidates.extend((0..slab.len()).filter(|&i| slab.intersects_box(i, qlo, qhi)));
        }
    }

    /// Computes the final dominator count of every skyline point into
    /// `scratch.ov`: the initial order vector at the lower corner, adjusted
    /// exactly for every candidate pair.
    fn replay(&self, scratch: &mut ProbeScratch) {
        let ProbeScratch {
            scores,
            sorted,
            ov,
            qlo,
            qhi,
            candidates,
            ..
        } = scratch;
        let d = self.dim;
        let k = d - 1;
        let coords = &self.skyline_coords;
        // Initial order vector: how many points score strictly lower at the
        // lower corner.  All buffers are reused across probes.
        scores.clear();
        scores.extend((0..self.skyline_ids.len()).map(|i| {
            let row = &coords[i * d..(i + 1) * d];
            row[..k]
                .iter()
                .zip(qlo.iter())
                .map(|(p, r)| r * p)
                .sum::<f64>()
                + row[k]
        }));
        sorted.clear();
        sorted.extend_from_slice(scores);
        // Unstable sort: equal scores are interchangeable for ranking, and
        // the stable sort would allocate a merge buffer on every probe.
        sorted.sort_unstable_by(|a, b| a.total_cmp(b));
        ov.clear();
        ov.extend(
            scores
                .iter()
                .map(|&s| sorted.partition_point(|&v| v + EPS < s) as i64),
        );

        // Exact adjustment for every pair whose order may change in the box.
        let slab = self.slab();
        for &ci in candidates.iter() {
            let (a, b) = self.pairs[ci];
            let (a, b) = (a as usize, b as usize);
            // f(r) = S_a(r) − S_b(r), read from the slab row.
            let (min_f, max_f) = slab.min_max_over_box(ci, qlo, qhi);
            let a_dominates_b = max_f <= EPS && min_f < -EPS;
            let b_dominates_a = min_f >= -EPS && max_f > EPS;
            let fl = scores[a] - scores[b];
            let a_counted = fl + EPS < 0.0;
            let b_counted = fl > EPS;

            match (a_counted, a_dominates_b) {
                (true, false) => ov[b] -= 1,
                (false, true) => ov[b] += 1,
                _ => {}
            }
            match (b_counted, b_dominates_a) {
                (true, false) => ov[a] -= 1,
                (false, true) => ov[a] += 1,
                _ => {}
            }
        }
    }
}

/// Probe order for the batch APIs: indices sorted lexicographically by lower
/// corner, so neighbouring probes in a chunk walk the same tree regions.
fn locality_order(boxes: &[WeightRatioBox]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..boxes.len()).collect();
    order.sort_unstable_by(|&x, &y| {
        boxes[x]
            .ranges()
            .iter()
            .zip(boxes[y].ranges())
            .map(|(ra, rb)| ra.lo().total_cmp(&rb.lo()))
            .find(|c| *c != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::baseline::eclipse_baseline;
    use rand::{Rng, SeedableRng};

    fn p(c: &[f64]) -> Point {
        Point::from_slice(c)
    }

    fn paper_points() -> Vec<Point> {
        vec![
            p(&[1.0, 6.0]),
            p(&[4.0, 4.0]),
            p(&[6.0, 1.0]),
            p(&[8.0, 5.0]),
        ]
    }

    fn both_kinds() -> [IndexConfig; 2] {
        [
            IndexConfig::with_kind(IntersectionIndexKind::Quadtree),
            IndexConfig::with_kind(IntersectionIndexKind::CuttingTree),
        ]
    }

    #[test]
    fn paper_running_example_both_backends() {
        for cfg in both_kinds() {
            let idx = EclipseIndex::build(&paper_points(), cfg).unwrap();
            assert_eq!(idx.dim(), 2);
            assert_eq!(idx.skyline_len(), 3);
            assert_eq!(idx.num_intersections(), 3);
            let b = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
            assert_eq!(idx.query(&b).unwrap(), vec![0, 1, 2]);
            // Narrow 1NN-ish box.
            let nn = WeightRatioBox::uniform(2, 2.0, 2.0).unwrap();
            assert_eq!(idx.query(&nn).unwrap(), vec![0]);
        }
    }

    #[test]
    fn empty_and_invalid_inputs() {
        assert!(matches!(
            EclipseIndex::build(&[], IndexConfig::default()),
            Err(EclipseError::EmptyDataset)
        ));
        assert!(EclipseIndex::build(&[p(&[1.0])], IndexConfig::default()).is_err());
        let mixed = vec![p(&[1.0, 2.0]), p(&[1.0, 2.0, 3.0])];
        assert!(EclipseIndex::build(&mixed, IndexConfig::default()).is_err());

        let idx = EclipseIndex::build(&paper_points(), IndexConfig::default()).unwrap();
        let wrong = WeightRatioBox::uniform(3, 0.5, 1.0).unwrap();
        assert!(idx.query(&wrong).is_err());
        let sky = WeightRatioBox::skyline(2).unwrap();
        assert!(idx.query(&sky).is_err());
        // The batch API validates the same way, before any work is done.
        let ctx = ExecutionContext::serial();
        let ok = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        assert!(idx.query_batch(&[ok.clone(), wrong], &ctx).is_err());
        assert!(idx.query_batch(&[ok, sky], &ctx).is_err());
        assert!(idx.query_batch(&[], &ctx).unwrap().is_empty());
    }

    #[test]
    fn agrees_with_baseline_2d_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        for cfg in both_kinds() {
            for _ in 0..5 {
                let pts: Vec<Point> = (0..300)
                    .map(|_| Point::new(vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]))
                    .collect();
                let idx = EclipseIndex::build(&pts, cfg).unwrap();
                for _ in 0..5 {
                    let lo = rng.gen_range(0.05..1.5);
                    let hi = lo + rng.gen_range(0.05..3.0);
                    let b = WeightRatioBox::uniform(2, lo, hi).unwrap();
                    assert_eq!(
                        idx.query(&b).unwrap(),
                        eclipse_baseline(&pts, &b).unwrap(),
                        "kind {:?}, box {b}",
                        cfg.kind
                    );
                }
            }
        }
    }

    #[test]
    fn agrees_with_baseline_high_dim_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(72);
        for cfg in both_kinds() {
            for d in 3..=5usize {
                let pts: Vec<Point> = (0..200)
                    .map(|_| Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect()))
                    .collect();
                let idx = EclipseIndex::build(&pts, cfg).unwrap();
                for _ in 0..5 {
                    let lo = rng.gen_range(0.05..1.5);
                    let hi = lo + rng.gen_range(0.05..3.0);
                    let b = WeightRatioBox::uniform(d, lo, hi).unwrap();
                    assert_eq!(
                        idx.query(&b).unwrap(),
                        eclipse_baseline(&pts, &b).unwrap(),
                        "kind {:?}, d = {d}, box {b}",
                        cfg.kind
                    );
                }
            }
        }
    }

    #[test]
    fn asymmetric_ranges_agree_with_baseline() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(73);
        let pts: Vec<Point> = (0..250)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        for cfg in both_kinds() {
            let idx = EclipseIndex::build(&pts, cfg).unwrap();
            let b = WeightRatioBox::from_bounds(&[(0.2, 0.9), (1.1, 4.5)]).unwrap();
            assert_eq!(idx.query(&b).unwrap(), eclipse_baseline(&pts, &b).unwrap());
        }
    }

    #[test]
    fn query_outside_indexed_region_falls_back_exactly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(74);
        let pts: Vec<Point> = (0..200)
            .map(|_| Point::new(vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]))
            .collect();
        let cfg = IndexConfig {
            max_ratio: 2.0, // deliberately small root cell
            ..Default::default()
        };
        let idx = EclipseIndex::build(&pts, cfg).unwrap();
        let b = WeightRatioBox::uniform(2, 0.5, 8.0).unwrap(); // escapes the root cell
        assert_eq!(idx.query(&b).unwrap(), eclipse_baseline(&pts, &b).unwrap());
        // The fallback path shares the scratch too: alternate in/out probes.
        let mut scratch = ProbeScratch::new();
        let inside = WeightRatioBox::uniform(2, 0.5, 1.5).unwrap();
        for b in [
            WeightRatioBox::uniform(2, 0.5, 8.0).unwrap(),
            inside.clone(),
            WeightRatioBox::uniform(2, 0.25, 4.0).unwrap(),
            inside,
        ] {
            assert_eq!(
                idx.query_with_scratch(&b, &mut scratch).unwrap(),
                &eclipse_baseline(&pts, &b).unwrap()[..],
                "box {b}"
            );
        }
    }

    #[test]
    fn duplicates_and_grid_data_are_handled() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(75);
        for cfg in both_kinds() {
            let pts: Vec<Point> = (0..150)
                .map(|_| {
                    Point::new(vec![
                        rng.gen_range(0..6) as f64,
                        rng.gen_range(0..6) as f64,
                        rng.gen_range(0..6) as f64,
                    ])
                })
                .collect();
            let idx = EclipseIndex::build(&pts, cfg).unwrap();
            for bounds in [[0.5, 1.5], [0.25, 2.0], [1.0, 1.0]] {
                let b = WeightRatioBox::uniform(3, bounds[0], bounds[1]).unwrap();
                assert_eq!(
                    idx.query(&b).unwrap(),
                    eclipse_baseline(&pts, &b).unwrap(),
                    "kind {:?}, box {b}",
                    cfg.kind
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_and_parallel_build_match_plain_query() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let pts: Vec<Point> = (0..500)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let serial = EclipseIndex::build_with(
            &pts,
            IndexConfig::default(),
            &crate::exec::ExecutionContext::serial(),
        )
        .unwrap();
        let parallel = EclipseIndex::build_with(
            &pts,
            IndexConfig::default(),
            &crate::exec::ExecutionContext::with_threads(4),
        )
        .unwrap();
        assert_eq!(serial.skyline_ids(), parallel.skyline_ids());
        assert_eq!(serial.num_intersections(), parallel.num_intersections());
        let mut scratch = ProbeScratch::new();
        for (lo, hi) in [(0.2, 0.8), (0.36, 2.75), (0.9, 1.1)] {
            let b = WeightRatioBox::uniform(3, lo, hi).unwrap();
            let plain = serial.query(&b).unwrap();
            assert_eq!(
                serial.query_with_scratch(&b, &mut scratch).unwrap(),
                &plain[..]
            );
            assert_eq!(parallel.query(&b).unwrap(), plain);
            assert_eq!(plain, eclipse_baseline(&pts, &b).unwrap());
        }
    }

    #[test]
    fn query_batch_matches_sequential_probes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        let pts: Vec<Point> = (0..400)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let boxes: Vec<WeightRatioBox> = (0..25)
            .map(|_| {
                let lo = rng.gen_range(0.05..1.5);
                WeightRatioBox::uniform(3, lo, lo + rng.gen_range(0.05..2.0)).unwrap()
            })
            .collect();
        for cfg in both_kinds() {
            let idx = EclipseIndex::build(&pts, cfg).unwrap();
            let expected: Vec<Vec<usize>> = boxes.iter().map(|b| idx.query(b).unwrap()).collect();
            for threads in [1usize, 4] {
                let ctx = ExecutionContext::with_threads(threads);
                assert_eq!(
                    idx.query_batch(&boxes, &ctx).unwrap(),
                    expected,
                    "kind {:?}, threads {threads}",
                    cfg.kind
                );
            }
        }
    }

    #[test]
    fn count_queries_match_query_cardinalities() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(79);
        let pts: Vec<Point> = (0..350)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let boxes: Vec<WeightRatioBox> = (0..20)
            .map(|_| {
                let lo = rng.gen_range(0.05..1.5);
                // Mix of in-region and escaping boxes: the count path must be
                // exact on the fallback scan too.
                WeightRatioBox::uniform(3, lo, lo + rng.gen_range(0.05..20.0)).unwrap()
            })
            .collect();
        for cfg in both_kinds() {
            let idx = EclipseIndex::build(&pts, cfg).unwrap();
            let expected: Vec<usize> = boxes.iter().map(|b| idx.query(b).unwrap().len()).collect();
            let mut scratch = ProbeScratch::new();
            for (b, &want) in boxes.iter().zip(&expected) {
                assert_eq!(idx.count(b).unwrap(), want, "kind {:?}, box {b}", cfg.kind);
                assert_eq!(
                    idx.count_with_scratch(b, &mut scratch).unwrap(),
                    want,
                    "kind {:?}, box {b}",
                    cfg.kind
                );
            }
            for threads in [1usize, 4] {
                let ctx = ExecutionContext::with_threads(threads);
                assert_eq!(
                    idx.count_batch(&boxes, &ctx).unwrap(),
                    expected,
                    "kind {:?}, threads {threads}",
                    cfg.kind
                );
            }
            // Validation mirrors the id-returning APIs.
            let ctx = ExecutionContext::serial();
            assert!(idx
                .count(&WeightRatioBox::uniform(4, 0.5, 1.0).unwrap())
                .is_err());
            assert!(idx.count(&WeightRatioBox::skyline(3).unwrap()).is_err());
            assert!(idx
                .count_batch(&[WeightRatioBox::skyline(3).unwrap()], &ctx)
                .is_err());
        }
    }

    #[test]
    fn count_scratch_interleaves_with_query_scratch() {
        // One shared scratch alternating between id probes and count probes
        // must stay exact in both directions.
        let mut rng = rand::rngs::StdRng::seed_from_u64(80);
        let pts: Vec<Point> = (0..300)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let idx = EclipseIndex::build(&pts, IndexConfig::default()).unwrap();
        let mut scratch = ProbeScratch::new();
        for (lo, hi) in [(0.2, 0.8), (0.36, 2.75), (0.9, 1.1), (0.5, 20.0)] {
            let b = WeightRatioBox::uniform(3, lo, hi).unwrap();
            let ids = idx.query(&b).unwrap();
            assert_eq!(idx.count_with_scratch(&b, &mut scratch).unwrap(), ids.len());
            assert_eq!(idx.query_with_scratch(&b, &mut scratch).unwrap(), &ids[..]);
        }
    }

    #[test]
    fn empty_and_single_probe_batches_short_circuit() {
        // Regression (serving-layer PR): an empty batch returns `Ok(vec![])`
        // and a single probe is answered inline — neither touches the pool
        // (the allocation test in tests/zero_alloc_probe.rs pins the probe
        // path itself; here we pin the results at every thread count).
        let idx = EclipseIndex::build(&paper_points(), IndexConfig::default()).unwrap();
        let b = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        for threads in [1usize, 4] {
            let ctx = ExecutionContext::with_threads(threads);
            assert!(idx.query_batch(&[], &ctx).unwrap().is_empty());
            assert!(idx.count_batch(&[], &ctx).unwrap().is_empty());
            assert_eq!(
                idx.query_batch(std::slice::from_ref(&b), &ctx).unwrap(),
                vec![idx.query(&b).unwrap()]
            );
            assert_eq!(
                idx.count_batch(std::slice::from_ref(&b), &ctx).unwrap(),
                vec![idx.query(&b).unwrap().len()]
            );
        }
        // Validation still runs before the short circuits.
        let ctx = ExecutionContext::serial();
        let wrong = WeightRatioBox::uniform(3, 0.5, 1.0).unwrap();
        assert!(idx.query_batch(std::slice::from_ref(&wrong), &ctx).is_err());
        assert!(idx.count_batch(std::slice::from_ref(&wrong), &ctx).is_err());
    }

    #[test]
    fn intersections_crossing_counts_candidates_exactly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(81);
        let pts: Vec<Point> = (0..250)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        for cfg in both_kinds() {
            let idx = EclipseIndex::build(&pts, cfg).unwrap();
            let slab_count = |b: &WeightRatioBox| {
                let (qlo, qhi) = (b.lower_corner(), b.upper_corner());
                (0..idx.num_intersections())
                    .filter(|&i| idx.slab().intersects_box(i, &qlo, &qhi))
                    .count()
            };
            for (lo, hi) in [(0.36, 2.75), (0.9, 1.1), (0.5, 20.0), (0.0, 16.0)] {
                let b = WeightRatioBox::uniform(3, lo, hi).unwrap();
                assert_eq!(
                    idx.intersections_crossing(&b).unwrap(),
                    slab_count(&b),
                    "kind {:?}, box {b}",
                    cfg.kind
                );
            }
            assert!(idx
                .intersections_crossing(&WeightRatioBox::skyline(3).unwrap())
                .is_err());
            assert!(idx
                .intersections_crossing(&WeightRatioBox::uniform(4, 0.5, 1.0).unwrap())
                .is_err());
        }
    }

    #[test]
    fn snapshot_round_trips_and_is_byte_stable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(82);
        let pts: Vec<Point> = (0..200)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        for cfg in both_kinds() {
            let idx = EclipseIndex::build(&pts, cfg).unwrap();
            let bytes = idx.encode_snapshot();
            let back = EclipseIndex::decode_snapshot(&bytes).unwrap();
            assert_eq!(back.dim(), idx.dim());
            assert_eq!(back.skyline_ids(), idx.skyline_ids());
            assert_eq!(back.num_intersections(), idx.num_intersections());
            assert_eq!(back.config(), idx.config());
            assert_eq!(back.backend_nodes(), idx.backend_nodes());
            assert_eq!(back.backend_depth(), idx.backend_depth());
            // Probe equality, including a box escaping the indexed region.
            for (lo, hi) in [(0.2, 0.8), (0.36, 2.75), (0.9, 1.1), (0.5, 20.0)] {
                let b = WeightRatioBox::uniform(3, lo, hi).unwrap();
                assert_eq!(back.query(&b).unwrap(), idx.query(&b).unwrap(), "box {b}");
            }
            // Byte stability: encoding the decoded index reproduces the
            // snapshot exactly, and rebuilding from the same inputs does too.
            assert_eq!(back.encode_snapshot(), bytes);
            assert_eq!(
                EclipseIndex::build(&pts, cfg).unwrap().encode_snapshot(),
                bytes
            );
        }
    }

    #[test]
    fn snapshot_files_round_trip_through_disk() {
        let idx = EclipseIndex::build(&paper_points(), IndexConfig::default()).unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("eclipse_ndim_snap_{}.eclsnap", std::process::id()));
        idx.save_snapshot(&path).unwrap();
        let back = EclipseIndex::load_snapshot(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let b = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        assert_eq!(back.query(&b).unwrap(), idx.query(&b).unwrap());
        // Missing files surface as typed errors, not panics.
        assert!(matches!(
            EclipseIndex::load_snapshot(&path),
            Err(EclipseError::Snapshot(_))
        ));
    }

    #[test]
    fn snapshot_validation_against_datasets() {
        let pts = paper_points();
        let idx = EclipseIndex::build(&pts, IndexConfig::default()).unwrap();
        let flat: Vec<f64> = pts.iter().flat_map(|p| p.coords().to_vec()).collect();
        idx.validate_against_dataset(2, &flat).unwrap();
        // Wrong dimensionality.
        assert!(matches!(
            idx.validate_against_dataset(3, &flat),
            Err(EclipseError::DimensionMismatch { .. })
        ));
        // Different data under the same shape.
        let mut other = flat.clone();
        other[0] += 1.0;
        assert!(matches!(
            idx.validate_against_dataset(2, &other),
            Err(EclipseError::SnapshotMismatch { .. })
        ));
        // Truncated dataset: a skyline id falls out of range.
        assert!(matches!(
            idx.validate_against_dataset(2, &flat[..2]),
            Err(EclipseError::SnapshotMismatch { .. })
        ));
    }

    #[test]
    fn index_reuse_across_many_queries() {
        // The whole point of the index: one build, many queries; verify a
        // sweep of query ranges against the baseline.
        let mut rng = rand::rngs::StdRng::seed_from_u64(76);
        let pts: Vec<Point> = (0..400)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let idx = EclipseIndex::build(&pts, IndexConfig::default()).unwrap();
        for (lo, hi) in [(0.18, 5.67), (0.36, 2.75), (0.58, 1.73), (0.84, 1.19)] {
            let b = WeightRatioBox::uniform(3, lo, hi).unwrap();
            assert_eq!(idx.query(&b).unwrap(), eclipse_baseline(&pts, &b).unwrap());
        }
        assert!(idx.backend_nodes() >= 1);
    }

    #[test]
    fn id_remap_shares_the_arena_and_keeps_the_accounting() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let pts: Vec<Point> = (0..300)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        for cfg in both_kinds() {
            let idx = EclipseIndex::build(&pts, cfg).unwrap();
            let plain = (0..pts.len())
                .find(|i| !idx.skyline_ids().contains(i))
                .unwrap();
            let remapped = idx.with_deleted_id(plain);
            assert!(Arc::ptr_eq(&idx.backend, &remapped.backend));
            assert_eq!(remapped.heap_bytes(), idx.heap_bytes());
            let shifted: Vec<usize> = idx
                .skyline_ids()
                .iter()
                .map(|&i| if i > plain { i - 1 } else { i })
                .collect();
            assert_eq!(remapped.skyline_ids(), shifted.as_slice());
        }
    }
}
