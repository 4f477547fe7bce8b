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
//!    (CUTTING) over a bounded region of ratio space.  The tree is built,
//!    accounted and persisted with the index, but probes do not walk it:
//!    one sweep over the slab gathers the same hyperplanes faster at every
//!    measured size (see the README's "Sweep, not walk").
//!
//! Query phase (Algorithms 5/7):
//! 1. score all skyline points at the lower corner of the query box and rank
//!    them (the initial Order Vector — the paper stores per-cell vectors; we
//!    follow its own high-dimensional practical choice of computing the
//!    vector at query time in O(u log u), which it notes "does not impact the
//!    entire time complexity");
//! 2. gather the hyperplanes crossing the query box with one branch-free
//!    sweep over the slab — exactly the pairs whose relative order changes
//!    inside the box;
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
//! candidate list, the initial order vector (an incrementally reused sort
//! buffer) and the result itself.  [`EclipseIndex::query_batch`] fans the
//! probes out over an [`ExecutionContext`] with one scratch per worker.
//!
//! Maintenance: a mutation that changes the skyline does not rebuild the
//! arena.  The maintained index shares it as a base and records the live
//! skyline in an overlay (dead base rows, extra rows and their pairs),
//! which the probe folds into steps 1–3; the probe is decomposable over
//! any partition of the pair set, so answers are those of a rebuild.  Past
//! [`overlay_limit`], and whenever the index is encoded, the overlay is
//! compacted by an ordinary build over the live skyline.

use std::sync::Arc;

use eclipse_persist::{enc, Cursor, PersistError, SnapshotReader, SnapshotWriter};
use serde::{Deserialize, Serialize};

use eclipse_geom::approx::EPS;
use eclipse_geom::cutting::{CutRule, CuttingTree, CuttingTreeConfig};
use eclipse_geom::hyperplane::HyperplaneSlab;
use eclipse_geom::point::{BoundingBox, Point};
use eclipse_geom::quadtree::{HyperplaneQuadtree, QuadtreeConfig, SplitRule};

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
    /// `[0, max_ratio]^{d−1}`.  Probes sweep every pair whatever the box,
    /// so queries outside the root cell are answered exactly too.
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
/// sort buffer, the order vector, the query corners, the candidate list and
/// the result itself — is then
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
    /// Candidate pair ids gathered by the slab sweep.
    candidates: Vec<usize>,
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
///
/// An index maintained through mutations pairs the arena built for an
/// earlier skyline (the *base*) with a live-skyline overlay holding the
/// difference (see [`EclipseIndex::overlay_rows`]).
#[derive(Clone, Debug)]
pub struct EclipseIndex {
    dim: usize,
    /// Indices (into the original dataset) of the base skyline points,
    /// ascending; a base row whose point was deleted holds [`GONE`].
    skyline_ids: Vec<usize>,
    /// Base skyline coordinates in one flat row-major buffer (`u` rows ×
    /// `dim`) — the single owned copy of the skyline, shared by corner
    /// scoring and hyperplane construction (the dataset points are never
    /// cloned).
    skyline_coords: Box<[f64]>,
    /// Pairs of *local* skyline indices, aligned with the hyperplane slab
    /// owned by the backend tree.
    pairs: Vec<(u32, u32)>,
    /// The arena, shared by every maintained copy of the index (mutations
    /// change ids and the overlay, never the arena).
    backend: Arc<Backend>,
    root_cell: BoundingBox,
    config: IndexConfig,
    /// The live skyline's difference from the base; `None` when they agree.
    overlay: Option<Overlay>,
}

/// The base-row id of a row whose point was deleted: it never matches a
/// live id again, so the row stays dead until the next compaction.
const GONE: usize = usize::MAX;

/// The ov entry of a dead base row: non-zero, so it is never reported.
const DEAD_ROW: i64 = 1;

/// The difference between the live skyline and the base an index's arena
/// was built over, derived from the maintained skyline id list.
///
/// Rows are numbered base rows first (`0..u`), then extra rows (`u..`).  A
/// probe ranks the corner scores of live rows only, drops candidates
/// with a dead endpoint and replays the extra pairs that cross the box —
/// the same pair set a rebuild over the live skyline would replay.
#[derive(Clone, Debug)]
struct Overlay {
    /// The live skyline ids, ascending.
    live_ids: Vec<usize>,
    /// The row of each live id.
    live_rows: Vec<u32>,
    /// Per base row: `true` once it left the skyline (or was deleted).
    dead: Vec<bool>,
    /// Coordinates of the extra rows (live members missing from the base),
    /// row-major in ascending id order.
    extra_coords: Vec<f64>,
    /// Row pairs of every extra row with every other live row, lower
    /// dataset id first (the orientation a rebuild gives them), aligned
    /// with `slab`.
    pairs: Vec<(u32, u32)>,
    /// The score-difference hyperplanes of `pairs`.
    slab: HyperplaneSlab,
}

impl Overlay {
    /// Heap bytes of the overlay's buffers, counted at capacity.
    fn heap_bytes(&self) -> usize {
        self.live_ids.capacity() * std::mem::size_of::<usize>()
            + self.live_rows.capacity() * std::mem::size_of::<u32>()
            + self.dead.capacity() * std::mem::size_of::<bool>()
            + self.extra_coords.capacity() * std::mem::size_of::<f64>()
            + self.pairs.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.slab.heap_bytes()
    }
}

/// The largest overlay (dead base rows plus extra rows) a maintained index
/// carries over a base of `base_rows` skyline rows: a quarter of the base,
/// and at least four rows.  A mutation that leaves more compacts the index
/// into a fresh arena.  The bound keeps the overlay's linear share of a
/// probe (every extra row is paired with every live row and sign-tested)
/// small next to the slab sweep, while a skyline entrant and its
/// delete, or a few such changes, never pay a rebuild.
pub const fn overlay_limit(base_rows: usize) -> usize {
    let quarter = base_rows / 4;
    if quarter > 4 {
        quarter
    } else {
        4
    }
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
    /// Everything downstream of the skyline pass is the plain build path, so
    /// equal skyline id sets produce **byte-identical** arenas to a full
    /// build.  Compaction of a maintained index's live-skyline overlay
    /// runs this same path over the
    /// maintained skyline, which is why a compacted index — and every
    /// snapshot — is byte-identical to a rebuild (asserted by the mutation
    /// suites and every `experiments -- mutate` pass).
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
        let mut coords = Vec::with_capacity(skyline_ids.len() * dim);
        for &i in &skyline_ids {
            coords.extend_from_slice(points[i].coords());
        }
        Ok(Self::build_from_rows(
            dim,
            skyline_ids,
            coords.into_boxed_slice(),
            config,
            ctx,
        ))
    }

    /// Phases 2–3 of a build over validated skyline rows: `skyline_ids`
    /// strictly ascending and `skyline_coords` their rows, in that order.
    fn build_from_rows(
        dim: usize,
        skyline_ids: Vec<usize>,
        skyline_coords: Box<[f64]>,
        config: IndexConfig,
        ctx: &ExecutionContext,
    ) -> Self {
        let u = skyline_ids.len();

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

        EclipseIndex {
            dim,
            skyline_ids,
            skyline_coords,
            pairs,
            backend: Arc::new(backend),
            root_cell,
            config,
            overlay: None,
        }
    }

    /// Dataset dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of skyline points the index covers (the live skyline of a
    /// maintained index).
    pub fn skyline_len(&self) -> usize {
        self.skyline_ids().len()
    }

    /// Indices (into the original dataset) of the skyline points,
    /// ascending (the live skyline of a maintained index).
    pub fn skyline_ids(&self) -> &[usize] {
        match &self.overlay {
            None => &self.skyline_ids,
            Some(o) => &o.live_ids,
        }
    }

    /// Number of intersection hyperplanes of the skyline (`C(u, 2)`): the
    /// pairs a rebuild over the live skyline would index.
    pub fn num_intersections(&self) -> usize {
        let u = self.skyline_len();
        u * u.saturating_sub(1) / 2
    }

    /// Diagnostic: rows of the live-skyline overlay — dead base rows plus
    /// extra rows.  Zero right after a build, a compaction or a decode.
    pub fn overlay_rows(&self) -> usize {
        self.overlay.as_ref().map_or(0, |o| {
            let extras = o.extra_coords.len() / self.dim;
            self.skyline_ids.len() - (o.live_ids.len() - extras) + extras
        })
    }

    /// Diagnostic: whether two indexes share one arena — true across
    /// mutations that did not compact.
    pub fn shares_arena(&self, other: &EclipseIndex) -> bool {
        Arc::ptr_eq(&self.backend, &other.backend)
    }

    /// The index maintained across one mutation: `live_ids` is the
    /// post-mutation skyline (strictly ascending), `deleted` the row the
    /// mutation removed (ids above it shift down by one) and `coords` the
    /// post-mutation coordinates of a dataset id.
    ///
    /// The copy shares the arena and carries the live skyline as an
    /// overlay derived from `live_ids`: base rows whose id left the
    /// skyline are dead, live ids missing from the base are extra rows
    /// (paired with every other live row), and a base row that re-enters
    /// the skyline is revived rather than added — so a skyline entrant
    /// followed by its delete leaves the overlay empty again.  An overlay
    /// past [`overlay_limit`] is compacted instead: the copy is then
    /// [`EclipseIndex::build_from_skyline`] over the live skyline, built on
    /// `ctx`.  Either way probes answer exactly as a rebuild over the
    /// mutated dataset does.  Without an overlay the copy keeps the base's
    /// buffer capacities, so its [`EclipseIndex::heap_bytes`] is the
    /// original's.
    pub(crate) fn with_live_skyline<'p>(
        &self,
        live_ids: &[usize],
        deleted: Option<usize>,
        coords: impl Fn(usize) -> &'p [f64],
        ctx: &ExecutionContext,
    ) -> Self {
        let d = self.dim;
        let mut skyline_ids = Vec::with_capacity(self.skyline_ids.capacity());
        skyline_ids.extend(self.skyline_ids.iter().map(|&id| match deleted {
            Some(gone) if id != GONE && id >= gone => {
                if id == gone {
                    GONE
                } else {
                    id - 1
                }
            }
            _ => id,
        }));
        // Match the live ids against the base rows: both ascending, and a
        // gone row never matches.
        let u = skyline_ids.len();
        let mut dead = vec![true; u];
        let mut live_rows = Vec::with_capacity(live_ids.len());
        let mut extra_ids = Vec::new();
        let mut extra_coords = Vec::new();
        let mut base = skyline_ids
            .iter()
            .enumerate()
            .filter(|&(_, &id)| id != GONE)
            .peekable();
        for &id in live_ids {
            while base.next_if(|&(_, &b)| b < id).is_some() {}
            if let Some((row, _)) = base.next_if(|&(_, &b)| b == id) {
                dead[row] = false;
                live_rows.push(row as u32);
            } else {
                live_rows.push((u + extra_ids.len()) as u32);
                extra_ids.push(id);
                extra_coords.extend_from_slice(coords(id));
            }
        }
        let extras = extra_ids.len();
        let dead_rows = u - (live_ids.len() - extras);
        let row = |r: usize| row_coords(&self.skyline_coords, &extra_coords, d, r);
        let overlay = if dead_rows + extras == 0 {
            None
        } else {
            let id_of = |r: usize| {
                if r < u {
                    skyline_ids[r]
                } else {
                    extra_ids[r - u]
                }
            };
            let k = d - 1;
            let num_pairs =
                extras * (live_ids.len() - extras) + extras * extras.saturating_sub(1) / 2;
            let mut pairs = Vec::with_capacity(num_pairs);
            let mut slab = HyperplaneSlab::with_capacity(k, num_pairs);
            let mut coeffs = Vec::with_capacity(k);
            for x in u..u + extras {
                // Every live base row and every earlier extra row.
                for &y in live_rows.iter().filter(|&&y| (y as usize) < x) {
                    let y = y as usize;
                    let (a, b) = if id_of(y) < id_of(x) { (y, x) } else { (x, y) };
                    let (pa, pb) = (row(a), row(b));
                    coeffs.clear();
                    coeffs.extend((0..k).map(|j| pa[j] - pb[j]));
                    slab.push(&coeffs, pa[k] - pb[k]);
                    pairs.push((a as u32, b as u32));
                }
            }
            Some(Overlay {
                live_ids: live_ids.to_vec(),
                live_rows,
                dead,
                extra_coords,
                pairs,
                slab,
            })
        };
        let maintained = EclipseIndex {
            dim: d,
            skyline_ids,
            skyline_coords: self.skyline_coords.clone(),
            pairs: self.pairs.clone(),
            backend: Arc::clone(&self.backend),
            root_cell: self.root_cell.clone(),
            config: self.config,
            overlay,
        };
        if dead_rows + extras > overlay_limit(u) {
            return maintained
                .compacted(ctx)
                .expect("an overlay past its limit is not empty");
        }
        maintained
    }

    /// The index with its overlay folded into a fresh arena over the live
    /// skyline — what [`EclipseIndex::build_from_skyline`] builds from the
    /// maintained skyline — or `None` when there is no overlay to fold.
    pub(crate) fn compacted(&self, ctx: &ExecutionContext) -> Option<Self> {
        let o = self.overlay.as_ref()?;
        let d = self.dim;
        let mut coords = Vec::with_capacity(o.live_rows.len() * d);
        for &r in &o.live_rows {
            coords.extend_from_slice(row_coords(
                &self.skyline_coords,
                &o.extra_coords,
                d,
                r as usize,
            ));
        }
        Some(Self::build_from_rows(
            d,
            o.live_ids.clone(),
            coords.into_boxed_slice(),
            self.config,
            ctx,
        ))
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
    /// pair list, the root cell's corners, the whole backend arena
    /// (hyperplane slab, nodes, cells, entries) and the live-skyline
    /// overlay, if any.  Buffers with spare
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
            + self.overlay.as_ref().map_or(0, Overlay::heap_bytes)
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
    /// their high-water capacity a probe performs **no heap allocations**.
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
        // Both id lists are ascending, so the result needs no sort.
        match &self.overlay {
            None => out.extend(
                ov.iter()
                    .enumerate()
                    .filter(|&(_, &count)| count == 0)
                    .map(|(k, _)| self.skyline_ids[k]),
            ),
            Some(o) => out.extend(
                o.live_rows
                    .iter()
                    .zip(&o.live_ids)
                    .filter(|&(&row, _)| ov[row as usize] == 0)
                    .map(|(_, &id)| id),
            ),
        }
        Ok(out)
    }

    /// Answers a batch of eclipse queries, fanning the probes out over `ctx`
    /// with one [`ProbeScratch`] per worker chunk; results are returned in
    /// input order.
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
        let chunk_len = boxes.len().div_ceil(ctx.threads() * 4).max(1);
        let chunks = ctx.pool().par_chunks(boxes, chunk_len, |_, chunk| {
            let mut scratch = ProbeScratch::new();
            chunk
                .iter()
                .map(|b| {
                    self.query_with_scratch(b, &mut scratch)
                        .map(<[usize]>::to_vec)
                        .expect("query_batch boxes are validated before dispatch")
                })
                .collect::<Vec<_>>()
        });
        Ok(chunks.into_iter().flatten().collect())
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
    /// over `ctx` exactly like [`EclipseIndex::query_batch`] (one scratch
    /// per worker chunk) but returning only the cardinalities —
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
        let chunk_len = boxes.len().div_ceil(ctx.threads() * 4).max(1);
        let chunks = ctx.pool().par_chunks(boxes, chunk_len, |_, chunk| {
            let mut scratch = ProbeScratch::new();
            chunk
                .iter()
                .map(|b| {
                    self.count_with_scratch(b, &mut scratch)
                        .expect("count_batch boxes are validated before dispatch")
                })
                .collect::<Vec<_>>()
        });
        Ok(chunks.into_iter().flatten().collect())
    }

    /// Diagnostic: the number of intersection hyperplanes of the skyline
    /// crossing `ratio_box` — the candidate-set size a probe of that box
    /// replays.  Gathers the candidates exactly as a probe does (the slab
    /// sweep) and, for a maintained index, counts the live ones: base pairs without a
    /// dead endpoint plus the crossing overlay pairs.
    ///
    /// # Errors
    /// Same as [`EclipseIndex::query`].
    pub fn intersections_crossing(&self, ratio_box: &WeightRatioBox) -> Result<usize> {
        self.validate_probe(ratio_box)?;
        let mut scratch = ProbeScratch {
            qlo: ratio_box.lower_corner(),
            qhi: ratio_box.upper_corner(),
            ..ProbeScratch::default()
        };
        self.candidate_pairs(&mut scratch);
        let ProbeScratch {
            qlo,
            qhi,
            candidates,
            ..
        } = &scratch;
        Ok(match &self.overlay {
            None => candidates.len(),
            Some(o) => {
                candidates
                    .iter()
                    .filter(|&&ci| {
                        let (a, b) = self.pairs[ci];
                        !o.dead[a as usize] && !o.dead[b as usize]
                    })
                    .count()
                    + (0..o.slab.len())
                        .filter(|&j| o.slab.intersects_box(j, qlo, qhi))
                        .count()
            }
        })
    }

    /// Appends the index's snapshot sections (metadata, config, skyline,
    /// backend arena) to a container under construction — the engine-level
    /// snapshot composes this with a dataset section.  An index carrying a
    /// live-skyline overlay is compacted first, on the process-wide
    /// execution context.
    pub fn encode_snapshot_into(&self, writer: &mut SnapshotWriter) {
        // A maintained index encodes as its compaction, so snapshot bytes
        // are exactly what a rebuild writes.
        if let Some(compacted) = self.compacted(&ExecutionContext::default()) {
            return compacted.encode_snapshot_into(writer);
        }
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
            overlay: None,
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
    /// `scratch.qlo/qhi`: exactly those intersecting the closed box, in
    /// ascending order, from one branch-free sweep over the slab rows.
    fn candidate_pairs(&self, scratch: &mut ProbeScratch) {
        scratch.candidates.clear();
        self.slab().filter_all_intersecting_into(
            &scratch.qlo,
            &scratch.qhi,
            &mut scratch.candidates,
        );
    }

    /// Computes the final dominator count of every skyline row into
    /// `scratch.ov`: the initial order vector at the lower corner, adjusted
    /// exactly for every candidate pair.  With an overlay, only live rows
    /// are ranked, candidates with a dead endpoint are dropped, the overlay
    /// pairs crossing the box are replayed too, and dead rows end at
    /// [`DEAD_ROW`].
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
        let qlo: &[f64] = qlo;
        // Initial order vector: how many live rows score strictly lower at
        // the lower corner.  All buffers are reused across probes.
        scores.clear();
        scores.extend(
            self.skyline_coords
                .chunks_exact(d)
                .map(|row| corner_score(row, qlo)),
        );
        sorted.clear();
        match &self.overlay {
            None => sorted.extend_from_slice(scores),
            Some(o) => {
                scores.extend(
                    o.extra_coords
                        .chunks_exact(d)
                        .map(|row| corner_score(row, qlo)),
                );
                sorted.extend(o.live_rows.iter().map(|&r| scores[r as usize]));
            }
        }
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
        let Some(o) = &self.overlay else {
            for &ci in candidates.iter() {
                let (a, b) = self.pairs[ci];
                adjust_pair(ov, scores, a, b, slab.min_max_over_box(ci, qlo, qhi));
            }
            return;
        };
        for (count, _) in ov.iter_mut().zip(&o.dead).filter(|(_, &dead)| dead) {
            *count = DEAD_ROW;
        }
        for &ci in candidates.iter() {
            let (a, b) = self.pairs[ci];
            if !o.dead[a as usize] && !o.dead[b as usize] {
                adjust_pair(ov, scores, a, b, slab.min_max_over_box(ci, qlo, qhi));
            }
        }
        // The same closed-box filter the slab sweep applies: replaying
        // a pair that does not cross the box can tip an EPS tie.
        for (j, &(a, b)) in o.pairs.iter().enumerate() {
            if o.slab.intersects_box(j, qlo, qhi) {
                adjust_pair(ov, scores, a, b, o.slab.min_max_over_box(j, qlo, qhi));
            }
        }
    }
}

/// The coordinates of row `r` in an overlay's numbering: base rows first,
/// then extra rows.
fn row_coords<'a>(base: &'a [f64], extra: &'a [f64], d: usize, r: usize) -> &'a [f64] {
    let u = base.len() / d;
    if r < u {
        &base[r * d..(r + 1) * d]
    } else {
        &extra[(r - u) * d..(r - u + 1) * d]
    }
}

/// The score of a skyline row at the weight-ratio vector `r`:
/// `Σ_j r_j·row[j] + row[d−1]`.
#[inline]
fn corner_score(row: &[f64], r: &[f64]) -> f64 {
    row.iter().zip(r).map(|(p, r)| r * p).sum::<f64>() + row[r.len()]
}

/// Adjusts the dominator counts of rows `a` and `b` for their pair, given
/// the min and max of `f(r) = S_a(r) − S_b(r)` over the box: a pair counted
/// at the lower corner that does not dominate over the whole box is taken
/// back, and a dominance the corner missed is added.
#[inline]
fn adjust_pair(ov: &mut [i64], scores: &[f64], a: u32, b: u32, (min_f, max_f): (f64, f64)) {
    let (a, b) = (a as usize, b as usize);
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
            let shifted: Vec<usize> = idx
                .skyline_ids()
                .iter()
                .map(|&i| if i > plain { i - 1 } else { i })
                .collect();
            let remapped = idx.with_live_skyline(
                &shifted,
                Some(plain),
                |id| pts[if id >= plain { id + 1 } else { id }].coords(),
                &ExecutionContext::serial(),
            );
            assert!(remapped.shares_arena(&idx));
            assert_eq!(remapped.overlay_rows(), 0);
            assert_eq!(remapped.heap_bytes(), idx.heap_bytes());
            assert_eq!(remapped.skyline_ids(), shifted.as_slice());
        }
    }

    /// Probe boxes for the overlay tests: in-region, escaping the indexed
    /// region, narrow and degenerate.
    fn overlay_boxes() -> Vec<WeightRatioBox> {
        [
            (0.2, 0.8),
            (0.36, 2.75),
            (0.9, 1.1),
            (0.5, 20.0),
            (1.0, 1.0),
        ]
        .into_iter()
        .map(|(lo, hi)| WeightRatioBox::uniform(3, lo, hi).unwrap())
        .collect()
    }

    /// Asserts `maintained` answers, counts and reports exactly like
    /// `rebuilt`, and encodes to its bytes.
    fn assert_same_index(maintained: &EclipseIndex, rebuilt: &EclipseIndex) {
        assert_eq!(maintained.skyline_ids(), rebuilt.skyline_ids());
        assert_eq!(maintained.skyline_len(), rebuilt.skyline_len());
        assert_eq!(maintained.num_intersections(), rebuilt.num_intersections());
        let mut scratch = ProbeScratch::new();
        for b in overlay_boxes() {
            let want = rebuilt.query(&b).unwrap();
            assert_eq!(maintained.query(&b).unwrap(), want, "box {b}");
            assert_eq!(
                maintained.query_with_scratch(&b, &mut scratch).unwrap(),
                &want[..]
            );
            assert_eq!(maintained.count(&b).unwrap(), want.len(), "box {b}");
            assert_eq!(
                maintained.intersections_crossing(&b).unwrap(),
                rebuilt.intersections_crossing(&b).unwrap(),
                "box {b}"
            );
        }
        assert_eq!(maintained.encode_snapshot(), rebuilt.encode_snapshot());
    }

    #[test]
    fn live_skyline_overlay_answers_like_a_rebuild_and_empties_on_revival() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(83);
        let pts: Vec<Point> = (0..300)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let ctx = ExecutionContext::serial();
        for cfg in both_kinds() {
            let idx = EclipseIndex::build_with(&pts, cfg, &ctx).unwrap();
            // An entrant nudged below a member, appended at id n: the
            // member dies and the entrant is an extra row.
            let member = idx.skyline_ids()[idx.skyline_len() / 2];
            let mut nudged = pts[member].coords().to_vec();
            nudged[0] -= 1e-3;
            let mut grown = pts.clone();
            grown.push(Point::new(nudged));
            let live = eclipse_skyline::dc::skyline_dc_parallel(&grown, ctx.pool());
            let maintained = idx.with_live_skyline(&live, None, |id| grown[id].coords(), &ctx);
            assert!(maintained.shares_arena(&idx));
            assert!(maintained.overlay_rows() >= 2);
            assert_same_index(
                &maintained,
                &EclipseIndex::build_with(&grown, cfg, &ctx).unwrap(),
            );

            // Deleting the entrant revives the member: the overlay empties
            // and the copy accounts exactly what the base does.
            let back = maintained.with_live_skyline(
                idx.skyline_ids(),
                Some(pts.len()),
                |id| pts[id].coords(),
                &ctx,
            );
            assert!(back.shares_arena(&idx));
            assert_eq!(back.overlay_rows(), 0);
            assert_eq!(back.heap_bytes(), idx.heap_bytes());
            assert_same_index(&back, &idx);

            // Deleting the dead member instead leaves it gone for good.
            let shrunk: Vec<Point> = grown
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != member)
                .map(|(_, p)| p.clone())
                .collect();
            let live = eclipse_skyline::dc::skyline_dc_parallel(&shrunk, ctx.pool());
            let gone =
                maintained.with_live_skyline(&live, Some(member), |id| shrunk[id].coords(), &ctx);
            assert!(gone.shares_arena(&idx));
            assert_same_index(
                &gone,
                &EclipseIndex::build_with(&shrunk, cfg, &ctx).unwrap(),
            );
        }
    }

    #[test]
    fn overlay_pairs_that_miss_the_box_are_not_replayed() {
        // `a` and `b` score exactly alike at the box's lower corner, while
        // their hyperplane stays just below -EPS across the box: the pair
        // does not cross the closed box, so a rebuild never replays it.
        // Replaying it anyway would count `a` against `b` and drop `b`.
        let a = p(&[0.9101850589387533, 10000000.00000022]);
        let b = p(&[0.9103749086678694, 9999999.999810372]);
        let dominated = p(&[2.0, 2e7]);
        let bx = WeightRatioBox::uniform(2, 1.0, 2.0).unwrap();
        let ctx = ExecutionContext::serial();
        for cfg in both_kinds() {
            let idx = EclipseIndex::build_with(&[a.clone(), dominated.clone()], cfg, &ctx).unwrap();
            let grown = vec![a.clone(), dominated.clone(), b.clone()];
            let maintained = idx.with_live_skyline(&[0, 2], None, |id| grown[id].coords(), &ctx);
            assert_eq!(maintained.overlay_rows(), 1);
            let rebuilt = EclipseIndex::build_with(&grown, cfg, &ctx).unwrap();
            assert_eq!(rebuilt.query(&bx).unwrap(), vec![0, 2]);
            assert_eq!(
                maintained.query(&bx).unwrap(),
                vec![0, 2],
                "kind {:?}",
                cfg.kind
            );
        }
    }

    #[test]
    fn an_overlay_past_the_limit_compacts_into_a_rebuild() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(84);
        let pts: Vec<Point> = (0..300)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let ctx = ExecutionContext::serial();
        for cfg in both_kinds() {
            let idx = EclipseIndex::build_with(&pts, cfg, &ctx).unwrap();
            assert!(idx.skyline_len() > overlay_limit(idx.skyline_len()));
            // A point at the origin dominates the whole skyline.
            let mut grown = pts.clone();
            grown.push(Point::new(vec![0.0; 3]));
            let maintained =
                idx.with_live_skyline(&[pts.len()], None, |id| grown[id].coords(), &ctx);
            assert!(!maintained.shares_arena(&idx));
            assert_eq!(maintained.overlay_rows(), 0);
            assert_same_index(
                &maintained,
                &EclipseIndex::build_with(&grown, cfg, &ctx).unwrap(),
            );
        }
    }
}
