//! The general (any `d ≥ 2`) index-based eclipse query engine.
//!
//! Build phase (Algorithm 6): compute the skyline of the dataset — only
//! skyline points can be eclipse points — and keep its rows.  That is the
//! whole index.  The paper goes on to build, for every pair of skyline
//! points, the *score-difference hyperplane* in `(d−1)`-dimensional
//! weight-ratio space (`f(r) = Σ_j (a[j] − b[j])·r_j + (a[d] − b[d])`, see
//! [`eclipse_geom::dual::score_difference_hyperplane`]) and indexes those
//! hyperplanes in a line quadtree (QUAD) or a cutting tree (CUTTING).  Each
//! hyperplane is the difference of two stored rows, so a probe derives the
//! ones it tests instead of storing `C(u, 2)` of them; the trees live on in
//! [`eclipse_geom::quadtree`] and [`eclipse_geom::cutting`] as the paper's
//! structures.
//!
//! Query phase: a skyline row `p` is an eclipse point iff no other skyline
//! row dominates it over the whole query box — the dominance test of the
//! paper's TRAN, run over the `u` skyline rows instead of all `n` points.
//! A probe
//! 1. scores every row at the lower corner of the box and orders the rows
//!    by ascending score, the presort of Sort-Filter-Skyline (Chomicki et
//!    al., ICDE 2003), so the likeliest dominators come first;
//! 2. for each row `p`, visits the rows in that order and stops at the
//!    first one that counts against `p`; `p` is reported when none does.
//!
//! Every pair is decided by one predicate over its difference row (see
//! `counts_against`), so ties, duplicate points and boundary contacts need
//! no general-position assumption, and no pair is counted by one test and
//! taken back by another.
//!
//! The query phase is engineered for steady-state serving: every buffer a
//! probe touches lives in a caller-provided [`ProbeScratch`], so
//! [`EclipseIndex::query_with_scratch`] performs **zero heap allocations**
//! once the buffers have grown to their high-water capacity — the score
//! order, the difference row and the result itself included.
//! [`EclipseIndex::query_batch`] fans the probes out over an
//! [`ExecutionContext`] with one scratch per worker.
//!
//! Maintenance: a mutation that changes the skyline copies the live rows
//! into a new index in `O(u·d)`, so a maintained index is a rebuild over
//! the mutated dataset by construction.

use eclipse_persist::{enc, Cursor, SnapshotReader, SnapshotWriter};
use serde::{Deserialize, Serialize};

use eclipse_geom::approx::EPS;
use eclipse_geom::cutting::CuttingTreeConfig;
use eclipse_geom::hyperplane::{min_max_of_row, row_intersects_box};
use eclipse_geom::point::{flatten, Point};
use eclipse_geom::quadtree::QuadtreeConfig;

use crate::error::{EclipseError, Result};
use crate::exec::ExecutionContext;
use crate::weights::WeightRatioBox;

/// The paper's two Intersection Index structures, as a label.
///
/// Every [`EclipseIndex`] is the same skyline-only index whichever kind is
/// named; the label is kept because the repository benchmark compiles
/// against it (and the wire protocol still carries it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntersectionIndexKind {
    /// Line quadtree / hyperplane octree (the paper's QUAD).
    #[default]
    Quadtree,
    /// Randomized cutting tree (the paper's CUTTING).
    CuttingTree,
}

/// Tree parameters of the paper's QUAD and CUTTING structures, as a label.
///
/// [`EclipseIndex`] builds no tree and reads none of these fields; the type
/// is kept because the repository benchmark compiles against it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct IndexConfig {
    /// Which tree the paper would index the hyperplanes with (a label).
    pub kind: IntersectionIndexKind,
    /// Upper bound `[0, max_ratio]^{d−1}` of a tree's root cell (unread).
    pub max_ratio: f64,
    /// Quadtree parameters (unread).
    pub quadtree: QuadtreeConfig,
    /// Cutting-tree parameters (unread).
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
    /// The default parameters under another kind label.
    pub fn with_kind(kind: IntersectionIndexKind) -> Self {
        IndexConfig {
            kind,
            ..IndexConfig::default()
        }
    }
}

// --- snapshot format --------------------------------------------------------
//
// An index snapshot is an `eclipse_persist` container (magic + format version
// + checksummed sections) with the sections below.  Engine-level snapshots
// prepend a dataset section; the index-level codec ignores sections it does
// not know, so both shapes decode with the same reader.

/// Snapshot section: index metadata (dimensionality, skyline size) —
/// decoded first so later sections can be cross-validated.
pub const SECTION_INDEX_META: u8 = 0x01;
/// Snapshot section: skyline ids (into the original dataset) and the flat
/// skyline coordinate buffer.
pub const SECTION_SKYLINE: u8 = 0x03;
/// Snapshot section: dataset label, dimensionality and row-major coordinates
/// (written by [`crate::query::EclipseEngine`]-level snapshots only).  Tags
/// 0x02, 0x04 and 0x06 held a tree config, a tree arena and a hyperplane
/// slab up to format 5 and are not reused.
pub const SECTION_DATASET: u8 = 0x05;

/// Shorthand for a structural snapshot defect found by cross-validation.
fn snapshot_err(reason: impl Into<String>) -> EclipseError {
    EclipseError::Snapshot(reason.into())
}

/// Reusable buffers for the query (probe) path.
///
/// One eclipse query scores all `u` skyline points, orders them and tests
/// pairs of them; with fresh buffers that is a handful of allocations per
/// probe.  Callers answering many queries (servers, the bench harness,
/// [`EclipseIndex::query_batch`]) keep one `ProbeScratch` per thread and
/// pass it to [`EclipseIndex::query_with_scratch`]: every buffer — the
/// query corners, the score order, the difference row and the result
/// itself — is then reused at its high-water capacity, so a steady-state
/// probe allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct ProbeScratch {
    search: Search,
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

/// The buffers of one dominator search.
#[derive(Clone, Debug, Default)]
struct Search {
    /// Lower / upper query corner in ratio space.
    qlo: Vec<f64>,
    qhi: Vec<f64>,
    /// Every skyline row with its score at the lower corner, in ascending
    /// score order.
    order: Vec<(f64, u32)>,
    /// The difference row of the pair under test.
    delta: Vec<f64>,
}

/// Index-based eclipse query engine over a fixed dataset: the skyline ids
/// and rows, nothing else.
#[derive(Clone, Debug)]
pub struct EclipseIndex {
    dim: usize,
    /// Indices (into the original dataset) of the skyline points, ascending.
    skyline_ids: Box<[usize]>,
    /// Skyline coordinates in one flat row-major buffer (`u` rows × `dim`)
    /// — the single owned copy of the skyline (the dataset points are never
    /// cloned).
    skyline_coords: Box<[f64]>,
}

impl EclipseIndex {
    /// Builds the index over `points`, using the process-wide default
    /// execution context for the skyline pass.  `config` is a label the
    /// index does not read (see [`IndexConfig`]).
    ///
    /// # Errors
    /// * [`EclipseError::EmptyDataset`] for an empty dataset.
    /// * [`EclipseError::DimensionMismatch`] for mixed dimensionalities.
    /// * [`EclipseError::Unsupported`] for 1-dimensional points.
    pub fn build(points: &[Point], config: IndexConfig) -> Result<Self> {
        Self::build_with(points, config, &ExecutionContext::default())
    }

    /// [`EclipseIndex::build`] with an explicit execution context: the
    /// skyline pass runs on the parallel divide-and-conquer executor.  It is
    /// deterministic, so the built index is identical to the serial one.
    ///
    /// # Errors
    /// Same as [`EclipseIndex::build`].
    pub fn build_with(
        points: &[Point],
        _config: IndexConfig,
        ctx: &ExecutionContext,
    ) -> Result<Self> {
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
        Ok(Self::from_rows(dim, &flatten(points), ctx))
    }

    /// Builds the index over a row-major dataset buffer (`dim` coordinates
    /// per point, `dim ≥ 2`): the skyline pass runs on the parallel
    /// divide-and-conquer executor directly over the rows.
    pub(crate) fn from_rows(dim: usize, rows: &[f64], ctx: &ExecutionContext) -> Self {
        let skyline_ids = eclipse_skyline::dc::skyline_dc_rows(rows, dim, ctx.pool());
        Self::from_skyline(dim, &skyline_ids, |id| &rows[id * dim..(id + 1) * dim])
    }

    /// The index over the skyline `skyline_ids` (strictly ascending), whose
    /// rows `coords` returns: the last step of a build, and how a mutation
    /// maintains an index — it copies the post-mutation skyline's rows, so
    /// the copy is exactly what a build over the mutated dataset holds.
    pub(crate) fn from_skyline<'p>(
        dim: usize,
        skyline_ids: &[usize],
        coords: impl Fn(usize) -> &'p [f64],
    ) -> Self {
        let mut rows = Vec::with_capacity(skyline_ids.len() * dim);
        for &id in skyline_ids {
            rows.extend_from_slice(coords(id));
        }
        EclipseIndex {
            dim,
            skyline_ids: skyline_ids.into(),
            skyline_coords: rows.into_boxed_slice(),
        }
    }

    /// Dataset dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of skyline points the index covers.
    pub fn skyline_len(&self) -> usize {
        self.skyline_ids.len()
    }

    /// Indices (into the original dataset) of the skyline points,
    /// ascending.
    pub fn skyline_ids(&self) -> &[usize] {
        &self.skyline_ids
    }

    /// Number of intersection hyperplanes of the skyline: one per pair,
    /// `C(u, 2)`.
    pub fn num_intersections(&self) -> usize {
        let u = self.skyline_len();
        u * u.saturating_sub(1) / 2
    }

    /// The skyline rows, in id order.
    fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.skyline_coords.chunks_exact(self.dim)
    }

    /// The coordinates of skyline row `r`.
    fn row(&self, r: usize) -> &[f64] {
        &self.skyline_coords[r * self.dim..(r + 1) * self.dim]
    }

    /// Heap bytes owned by the index: the skyline id and coordinate
    /// buffers (both sized exactly).  Allocator headers and the inline
    /// struct itself are not included.
    pub fn heap_bytes(&self) -> usize {
        self.skyline_ids.len() * std::mem::size_of::<usize>()
            + self.skyline_coords.len() * std::mem::size_of::<f64>()
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
        let ProbeScratch { search, out } = scratch;
        out.clear();
        // Rows are in ascending id order, so the result needs no sort.
        self.probe(ratio_box, search, |row| out.push(self.skyline_ids[row]))?;
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
    /// result id: the search runs exactly as in
    /// [`EclipseIndex::query_with_scratch`], and the undominated rows are
    /// counted instead of being gathered.
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
        let mut count = 0;
        self.probe(ratio_box, &mut scratch.search, |_| count += 1)?;
        Ok(count)
    }

    /// The shared core of a probe: validate the box, order the skyline rows
    /// by their score at its lower corner, and hand every row that no other
    /// row counts against to `eclipse_row`, in ascending row order.
    fn probe(
        &self,
        ratio_box: &WeightRatioBox,
        search: &mut Search,
        mut eclipse_row: impl FnMut(usize),
    ) -> Result<()> {
        self.validate_probe(ratio_box)?;
        let Search {
            qlo,
            qhi,
            order,
            delta,
        } = search;
        qlo.clear();
        qhi.clear();
        for r in ratio_box.ranges() {
            qlo.push(r.lo());
            qhi.push(r.hi());
        }
        order.clear();
        order.extend(
            self.rows()
                .enumerate()
                .map(|(a, row)| (corner_score(row, qlo), a as u32)),
        );
        // The order decides only how soon a dominator is found, never
        // whether one is; the stable sort would allocate a merge buffer on
        // every probe.
        order.sort_unstable_by(|x, y| x.0.total_cmp(&y.0));
        delta.resize(self.dim, 0.0);
        for (p, row_p) in self.rows().enumerate() {
            let dominated = order.iter().any(|&(_, a)| {
                let a = a as usize;
                a != p && {
                    difference_into(delta, self.row(a), row_p);
                    counts_against(delta, qlo, qhi)
                }
            });
            if !dominated {
                eclipse_row(p);
            }
        }
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
    /// crossing `ratio_box` — the pairs whose order changes inside the box
    /// (with `EPS` tolerance), each derived from its two rows and tested as
    /// a probe tests it.  Costs `O(u²·d)`.
    ///
    /// # Errors
    /// Same as [`EclipseIndex::query`].
    pub fn intersections_crossing(&self, ratio_box: &WeightRatioBox) -> Result<usize> {
        self.validate_probe(ratio_box)?;
        let (qlo, qhi) = (ratio_box.lower_corner(), ratio_box.upper_corner());
        let k = self.dim - 1;
        let mut delta = vec![0.0; self.dim];
        let mut crossing = 0;
        for (a, row_a) in self.rows().enumerate() {
            for row_b in self.rows().skip(a + 1) {
                difference_into(&mut delta, row_a, row_b);
                let (row, offset) = (&delta[..k], delta[k]);
                let (min, max) = min_max_of_row(row, offset, &qlo, &qhi);
                crossing += usize::from(row_intersects_box(row, offset, min, max));
            }
        }
        Ok(crossing)
    }

    /// Appends the index's snapshot sections (metadata, skyline) to a
    /// container under construction — the engine-level snapshot composes
    /// this with a dataset section.
    pub fn encode_snapshot_into(&self, writer: &mut SnapshotWriter) {
        let mut meta = Vec::new();
        enc::put_u32(&mut meta, self.dim as u32);
        enc::put_usize(&mut meta, self.skyline_ids.len());
        writer.section(SECTION_INDEX_META, meta);

        let mut skyline = Vec::new();
        enc::put_usize(&mut skyline, self.skyline_ids.len());
        for &id in self.skyline_ids.iter() {
            enc::put_usize(&mut skyline, id);
        }
        for &c in self.skyline_coords.iter() {
            enc::put_f64(&mut skyline, c);
        }
        writer.section(SECTION_SKYLINE, skyline);
    }

    /// Serializes the index into a standalone versioned snapshot (magic +
    /// format version + checksummed sections).  The encoding is byte-stable:
    /// the same dataset always produces the same bytes, which is what the
    /// committed golden fixtures pin across releases.
    pub fn encode_snapshot(&self) -> Vec<u8> {
        let mut writer = SnapshotWriter::new();
        self.encode_snapshot_into(&mut writer);
        writer.finish()
    }

    /// Decodes an index from the sections of a parsed snapshot container,
    /// re-validating everything the probe path relies on: the skyline size
    /// agrees with the metadata and the skyline ids ascend.  Every buffer a
    /// decode allocates is bounded by the bytes present.
    ///
    /// # Errors
    /// [`EclipseError::Snapshot`] for every structural defect; hostile input
    /// never panics and never over-allocates.
    pub(crate) fn from_snapshot_reader(reader: &SnapshotReader<'_>) -> Result<Self> {
        let mut meta = Cursor::new(reader.section(SECTION_INDEX_META)?);
        let dim = meta.u32()? as usize;
        let u = meta.usize64()?;
        meta.finish()?;
        if dim < 2 {
            return Err(snapshot_err(format!(
                "index dimensionality {dim} is below the d ≥ 2 minimum"
            )));
        }

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

        Ok(EclipseIndex {
            dim,
            skyline_ids: skyline_ids.into_boxed_slice(),
            skyline_coords,
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
}

/// The score of a skyline row at the weight-ratio vector `r`:
/// `Σ_j r_j·row[j] + row[d−1]`.
#[inline]
fn corner_score(row: &[f64], r: &[f64]) -> f64 {
    row.iter().zip(r).map(|(p, r)| r * p).sum::<f64>() + row[r.len()]
}

/// Writes the difference row `a − b` into `delta`.
#[inline]
fn difference_into(delta: &mut [f64], a: &[f64], b: &[f64]) {
    for ((d, x), y) in delta.iter_mut().zip(a).zip(b) {
        *d = x - y;
    }
}

/// Whether row `a` counts against row `p` for the box `[lo, hi]`, given
/// their difference row `delta = a − p`, whose functional
/// `f(r) = delta[..k]·r + delta[k]` is `S_a(r) − S_p(r)`:
/// * where the pair's hyperplane `f = 0` crosses the box, `a` must
///   dominate `p` over the whole box (`f ≤ EPS` everywhere and
///   `f < −EPS` somewhere);
/// * elsewhere `f` keeps its sign over the box, and `a` counts when it
///   scores below `p` at the lower corner.
///
/// The min, max and crossing test are the slab kernels of
/// `eclipse_geom::hyperplane`.  Subtraction, products and sums are exact
/// under negation, so `a − p` is bit for bit the negated `p − a` row and
/// the decision does not depend on which row of the pair comes first.
#[inline]
fn counts_against(delta: &[f64], lo: &[f64], hi: &[f64]) -> bool {
    let k = lo.len();
    let (row, offset) = (&delta[..k], delta[k]);
    let (min, max) = min_max_of_row(row, offset, lo, hi);
    if row_intersects_box(row, offset, min, max) {
        max <= EPS && min < -EPS
    } else {
        row.iter().zip(lo).fold(0.0, |f, (c, r)| f + c * r) + offset < -EPS
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
        use eclipse_geom::hyperplane::Hyperplane;
        use eclipse_geom::point::BoundingBox;
        let mut rng = rand::rngs::StdRng::seed_from_u64(81);
        let pts: Vec<Point> = (0..250)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        for cfg in both_kinds() {
            let idx = EclipseIndex::build(&pts, cfg).unwrap();
            // The per-object predicate over every pair's hyperplane.
            let crossing = |b: &WeightRatioBox| {
                let bbox = BoundingBox::new(b.lower_corner(), b.upper_corner());
                let rows: Vec<&[f64]> = idx.rows().collect();
                let mut count = 0;
                for (a, pa) in rows.iter().enumerate() {
                    for pb in &rows[a + 1..] {
                        let coeffs = (0..2).map(|j| pa[j] - pb[j]).collect();
                        let h = Hyperplane::new(coeffs, pa[2] - pb[2]);
                        count += usize::from(h.intersects_box(&bbox));
                    }
                }
                count
            };
            for (lo, hi) in [(0.36, 2.75), (0.9, 1.1), (0.5, 20.0), (0.0, 16.0)] {
                let b = WeightRatioBox::uniform(3, lo, hi).unwrap();
                assert_eq!(
                    idx.intersections_crossing(&b).unwrap(),
                    crossing(&b),
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
            assert_eq!(back.heap_bytes(), idx.heap_bytes());
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
            // The kind is a label: the other kind writes the same bytes.
            assert_eq!(
                EclipseIndex::build(&pts, IndexConfig::default())
                    .unwrap()
                    .encode_snapshot(),
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
        assert!(idx.num_intersections() >= 1);
    }

    #[test]
    fn a_pair_that_misses_the_box_is_decided_at_the_lower_corner() {
        // `a` and `b` score exactly alike at the box's lower corner when
        // the scores are summed, while their difference row puts `a` just
        // over `EPS` below `b` there and further below across the box: the
        // pair's hyperplane misses the box, and `a` dominates `b` as BASE
        // also finds.  Deciding the pair by the summed scores instead would
        // keep `b`.
        let a = p(&[0.9101850589387533, 10000000.00000022]);
        let b = p(&[0.9103749086678694, 9999999.999810372]);
        let dominated = p(&[2.0, 2e7]);
        let bx = WeightRatioBox::uniform(2, 1.0, 2.0).unwrap();
        let points = vec![a, dominated, b];
        let want = eclipse_baseline(&points, &bx).unwrap();
        assert_eq!(want, vec![0]);
        let idx = EclipseIndex::build(&points, IndexConfig::default()).unwrap();
        assert_eq!(idx.intersections_crossing(&bx).unwrap(), 0);
        assert_eq!(idx.query(&bx).unwrap(), want);
    }
}
