//! The high-level query facade.
//!
//! [`EclipseEngine`] owns a dataset and exposes every operator of the paper
//! behind one object: eclipse queries (with automatic algorithm selection or
//! an explicit choice), the classic 1NN / kNN and skyline operators, the
//! convex-hull query, preference-specification lowering, and lazily built,
//! thread-shareable index for repeated eclipse queries.
//!
//! # Mutability and epochs
//!
//! The dataset is mutable through [`EclipseEngine::insert`] and
//! [`EclipseEngine::delete`].  Every mutation bumps a monotonically
//! increasing **epoch**; the point vector and the built index are tagged
//! with the epoch they belong to, and probes read whatever consistent
//! `(points, index)` version is installed when they start — an in-flight
//! probe holding the old `Arc`s keeps answering from the pre-mutation
//! snapshot while the post-mutation version swaps in atomically behind it.
//!
//! Mutations maintain the skyline (and the built intersection index)
//! **incrementally** instead of rebuilding from scratch:
//!
//! * an insert dominated by a skyline member changes nothing — the index is
//!   re-tagged with the new epoch as-is;
//! * a skyline-entering insert evicts exactly the members it dominates (the
//!   full-dataset skyline pass is skipped);
//! * a delete of a non-skyline row leaves the skyline point-set untouched —
//!   only ids above the deleted row shift down;
//! * a delete of a skyline member promotes exactly the points it exclusively
//!   dominated (an `O(n·d)` candidate scan, not a full skyline recompute).
//!
//! A skyline change does not rebuild the built index either: it keeps its
//! hyperplane slab as a shared base and carries the changed skyline
//! in a small live-skyline overlay (dead base rows plus extra rows; see
//! [`EclipseIndex::overlay_rows`]).  Only an overlay that grows past
//! [`crate::index::overlay_limit`] is compacted — a build over the
//! maintained skyline — and so is every index a snapshot encodes.
//! Probes answer exactly as a fresh rebuild over the mutated dataset does
//! at every epoch, and every compaction and snapshot is **byte-identical**
//! to that rebuild (asserted by the mutation property suites and on every
//! `experiments -- mutate` pass).

use std::sync::{Arc, Mutex, RwLock};

use eclipse_geom::point::Point;
use eclipse_persist::{enc, Cursor, SnapshotReader, SnapshotWriter};
use eclipse_skyline::dominance::dominates;
use eclipse_skyline::knn::{knn_linear_scan, ratio_to_weights, Neighbor};

use crate::algo::baseline::eclipse_baseline;
use crate::algo::transform::{eclipse_transform_with, run_skyline, SkylineBackend};
use crate::dominance::eclipse_naive;
use crate::error::{EclipseError, Result};
use crate::exec::{ExecutionContext, QueryOptions};
use crate::explain::{dominators_of_with, winner_intervals_2d_with, WinnerInterval};
use crate::index::{EclipseIndex, IndexConfig, IntersectionIndexKind};
use crate::prefs::PreferenceSpec;
use crate::relations::RelationReport;
use crate::weights::WeightRatioBox;

/// Which eclipse algorithm answers a query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Algorithm {
    /// Pick automatically: indexes if already built, otherwise the
    /// transformation-based algorithm, with analytic fallbacks for unbounded
    /// ranges.
    #[default]
    Auto,
    /// BASE — the O(n²·2^{d−1}) pairwise algorithm.
    Baseline,
    /// TRAN — the transformation-based algorithm.
    Transform,
    /// QUAD — the paper's index-based algorithm with a line-quadtree
    /// Intersection Index; answered by the engine's one slab index.
    IndexQuadtree,
    /// CUTTING — the paper's index-based algorithm with a cutting-tree
    /// Intersection Index; answered by the engine's one slab index.
    IndexCuttingTree,
}

/// How a mutation changed the skyline (and with it the index maintenance
/// work it required).  Reported over the wire by the serving layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationOutcome {
    /// The inserted point is dominated by a skyline member: the skyline and
    /// the built index are unchanged (re-tagged with the new epoch).
    InsertedDominated,
    /// The inserted point entered the skyline, evicting the members it
    /// dominates; the built index carries the change in its live-skyline
    /// overlay.
    InsertedSkyline,
    /// The deleted row was not a skyline member: the skyline point-set is
    /// unchanged and the built index was copied with remapped ids.
    DeletedNonSkyline,
    /// The deleted row was a skyline member: its exclusively-dominated
    /// points were promoted, and the built index carries the change in its
    /// live-skyline overlay.
    DeletedSkyline,
}

/// What a successful [`EclipseEngine::insert`] / [`EclipseEngine::delete`]
/// did: the classification, the dataset epoch it produced, and the
/// post-mutation point count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutationSummary {
    /// How the mutation changed the skyline.
    pub outcome: MutationOutcome,
    /// The dataset epoch after the mutation (starts at 0, +1 per mutation).
    pub epoch: u64,
    /// The number of points after the mutation.
    pub len: usize,
}

/// One immutable version of the dataset: the points and the epoch they
/// belong to.  Probes clone the `Arc` under a brief read lock; mutations
/// install the successor version atomically.
#[derive(Clone)]
struct DatasetVersion {
    points: Arc<Vec<Point>>,
    epoch: u64,
}

/// A built index tagged with the dataset epoch it covers.  A slot whose
/// epoch is behind the dataset's is stale — it is never served, and the next
/// build (or mutation) replaces it.
#[derive(Clone)]
struct IndexSlot {
    epoch: u64,
    index: Arc<EclipseIndex>,
}

/// A dataset plus its cached index, answering all queries from the paper.
/// Cheap to share across threads (`&self` queries only).
pub struct EclipseEngine {
    dataset: RwLock<DatasetVersion>,
    dim: usize,
    index: RwLock<Option<IndexSlot>>,
    /// Epoch-tagged skyline ids of the current dataset version, maintained
    /// incrementally by mutations so consecutive mutations never recompute
    /// the skyline from scratch.
    skyline_cache: RwLock<Option<(u64, Arc<Vec<usize>>)>>,
    exec: ExecutionContext,
    /// Serializes mutations (and snapshot writes) so each computes against a
    /// stable pre-image.  Probes never take this lock.
    mutation: Mutex<()>,
}

impl EclipseEngine {
    /// Creates an engine over the dataset.
    ///
    /// # Errors
    /// * [`EclipseError::EmptyDataset`] for an empty dataset.
    /// * [`EclipseError::Unsupported`] for 1-dimensional data.
    /// * [`EclipseError::DimensionMismatch`] for mixed dimensionalities.
    pub fn new(points: Vec<Point>) -> Result<Self> {
        let Some(first) = points.first() else {
            return Err(EclipseError::EmptyDataset);
        };
        let dim = first.dim();
        if dim < 2 {
            return Err(EclipseError::Unsupported(
                "eclipse queries require d ≥ 2".to_string(),
            ));
        }
        for p in &points {
            if p.dim() != dim {
                return Err(EclipseError::DimensionMismatch {
                    expected: dim,
                    found: p.dim(),
                });
            }
        }
        Ok(EclipseEngine {
            dataset: RwLock::new(DatasetVersion {
                points: Arc::new(points),
                epoch: 0,
            }),
            dim,
            index: RwLock::new(None),
            skyline_cache: RwLock::new(None),
            exec: ExecutionContext::default(),
            mutation: Mutex::new(()),
        })
    }

    /// [`EclipseEngine::new`]; `index_config` is a label the index does not
    /// read, kept because the repository benchmark compiles against it (see
    /// [`IndexConfig`]).
    ///
    /// # Errors
    /// Same as [`EclipseEngine::new`].
    pub fn with_index_config(points: Vec<Point>, _index_config: IndexConfig) -> Result<Self> {
        Self::new(points)
    }

    /// A consistent `(points, epoch)` snapshot of the current dataset.
    fn version(&self) -> DatasetVersion {
        self.dataset.read().expect("dataset lock poisoned").clone()
    }

    /// Replaces the engine's execution context (builder style): the thread
    /// pool used by parallel skyline backends, index construction and
    /// explanations.  Contexts are `Arc`-backed, so many engines can share
    /// one pool.
    pub fn with_execution_context(mut self, exec: ExecutionContext) -> Self {
        self.exec = exec;
        self
    }

    /// The engine's execution context.
    pub fn execution_context(&self) -> &ExecutionContext {
        &self.exec
    }

    /// Number of points in the current dataset version.
    pub fn len(&self) -> usize {
        self.dataset
            .read()
            .expect("dataset lock poisoned")
            .points
            .len()
    }

    /// `true` when the dataset is empty (never true — construction rejects
    /// empty datasets and deletes refuse to remove the last point).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dataset dimensionality (fixed for the lifetime of the engine;
    /// mutations cannot change it).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The current dataset version's points — a cheap `Arc` clone, so the
    /// returned snapshot stays valid (and unchanged) across concurrent
    /// mutations.
    pub fn points(&self) -> Arc<Vec<Point>> {
        self.dataset
            .read()
            .expect("dataset lock poisoned")
            .points
            .clone()
    }

    /// The current dataset epoch: 0 at construction, +1 per mutation.
    /// Snapshots record it and stale-epoch restores are rejected.
    pub fn epoch(&self) -> u64 {
        self.dataset.read().expect("dataset lock poisoned").epoch
    }

    /// Heap bytes owned by the current dataset version: the point vector
    /// (at capacity) plus every point's boxed coordinate slice.  Points all
    /// share the engine's dimensionality, so the coordinate payload is
    /// `len · dim · 8` without walking the points.
    pub fn dataset_heap_bytes(&self) -> usize {
        let guard = self.dataset.read().expect("dataset lock poisoned");
        guard.points.capacity() * std::mem::size_of::<Point>()
            + guard.points.len() * self.dim * std::mem::size_of::<f64>()
    }

    /// Heap bytes owned by the engine: the dataset, the cached index (stale
    /// or current — a stale slot still occupies memory until the next build
    /// replaces it) and the cached skyline id list.
    /// This is the per-dataset figure the serving layer's memory budget
    /// accounts against; exact up to allocator headers and `Arc`/lock
    /// control blocks.
    pub fn heap_bytes(&self) -> usize {
        let mut total = self.dataset_heap_bytes();
        if let Some(slot) = self.index.read().expect("index lock poisoned").as_ref() {
            total += slot.index.heap_bytes();
        }
        if let Some((_, ids)) = self
            .skyline_cache
            .read()
            .expect("skyline cache poisoned")
            .as_ref()
        {
            total += ids.capacity() * std::mem::size_of::<usize>();
        }
        total
    }

    /// Eagerly builds (and caches) the index **for the current dataset
    /// epoch**, returning a shared handle.  Subsequent `Auto` queries will
    /// use it; a cached index left behind by an older epoch is ignored and
    /// rebuilt.  `kind` is a label: either kind names the one index (see
    /// [`IntersectionIndexKind`]).
    ///
    /// # Errors
    /// Propagates index-construction errors.
    pub fn build_index(&self, _kind: IntersectionIndexKind) -> Result<Arc<EclipseIndex>> {
        self.index()
    }

    /// [`EclipseEngine::build_index`] without the label.
    fn index(&self) -> Result<Arc<EclipseIndex>> {
        loop {
            let version = self.version();
            if let Some(s) = self.index.read().expect("index lock poisoned").as_ref() {
                if s.epoch == version.epoch {
                    return Ok(Arc::clone(&s.index));
                }
            }
            let built = Arc::new(EclipseIndex::build_with(
                &version.points,
                IndexConfig::default(),
                &self.exec,
            )?);
            // Install only if the dataset has not moved on while we built; a
            // racing mutation installs its own maintained index for the new
            // epoch, so a stale build is discarded and retried.
            let dataset = self.dataset.read().expect("dataset lock poisoned");
            if dataset.epoch == version.epoch {
                *self.index.write().expect("index lock poisoned") = Some(IndexSlot {
                    epoch: version.epoch,
                    index: Arc::clone(&built),
                });
                return Ok(built);
            }
        }
    }

    /// Answers an eclipse query with automatic algorithm selection.
    ///
    /// # Errors
    /// Propagates validation errors (dimension mismatch, malformed ranges).
    pub fn eclipse(&self, ratio_box: &WeightRatioBox) -> Result<Vec<usize>> {
        self.eclipse_with(ratio_box, Algorithm::Auto)
    }

    /// Answers an eclipse query with an explicit algorithm (and the default
    /// skyline backend).
    ///
    /// # Errors
    /// Propagates validation errors; explicitly chosen algorithms that cannot
    /// handle unbounded ranges surface [`EclipseError::Unsupported`].
    pub fn eclipse_with(
        &self,
        ratio_box: &WeightRatioBox,
        algorithm: Algorithm,
    ) -> Result<Vec<usize>> {
        self.eclipse_query(ratio_box, &QueryOptions::with_algorithm(algorithm))
    }

    /// Answers an eclipse query with full per-query control: algorithm and
    /// skyline-backend selection from `options`, parallelism from the
    /// engine's [`ExecutionContext`].
    ///
    /// # Errors
    /// Propagates validation errors; explicitly chosen algorithms that cannot
    /// handle unbounded ranges surface [`EclipseError::Unsupported`].
    pub fn eclipse_query(
        &self,
        ratio_box: &WeightRatioBox,
        options: &QueryOptions,
    ) -> Result<Vec<usize>> {
        if ratio_box.dim() != self.dim {
            return Err(EclipseError::DimensionMismatch {
                expected: self.dim,
                found: ratio_box.dim(),
            });
        }
        match options.algorithm {
            Algorithm::Baseline => eclipse_baseline(&self.points(), ratio_box),
            Algorithm::Transform => {
                eclipse_transform_with(&self.points(), ratio_box, options.backend, &self.exec)
            }
            Algorithm::IndexQuadtree | Algorithm::IndexCuttingTree => {
                self.index()?.query(ratio_box)
            }
            Algorithm::Auto => self.eclipse_auto(ratio_box, options.backend),
        }
    }

    /// Answers a batch of eclipse queries, fanning the probes out over the
    /// engine's execution context — the serving-layer entry point.
    ///
    /// Index algorithms (and `Auto` over bounded boxes) route through
    /// [`EclipseIndex::query_batch`]: probes are chunked over the shared
    /// `eclipse-exec` pool and answered with one reusable
    /// [`crate::index::ProbeScratch`] per worker, so the steady-state cost
    /// per probe is an allocation-free slab sweep plus replay.  `Auto`
    /// uses the built index, building it once for the whole batch if
    /// needed; batches containing
    /// unbounded boxes fall back to per-box [`Algorithm::Auto`] answering.
    /// `Baseline` / `Transform` have no batch-level structure to exploit and
    /// simply answer per box.  Results are returned in input order.
    ///
    /// # Errors
    /// Validates every box up front; no partial results are returned.
    pub fn eclipse_query_batch(
        &self,
        boxes: &[WeightRatioBox],
        options: &QueryOptions,
    ) -> Result<Vec<Vec<usize>>> {
        for b in boxes {
            if b.dim() != self.dim {
                return Err(EclipseError::DimensionMismatch {
                    expected: self.dim,
                    found: b.dim(),
                });
            }
        }
        if boxes.is_empty() {
            // Nothing to answer — in particular, do not build an index.
            return Ok(Vec::new());
        }
        match options.algorithm {
            Algorithm::IndexQuadtree | Algorithm::IndexCuttingTree => {
                self.index()?.query_batch(boxes, &self.exec)
            }
            Algorithm::Auto if boxes.iter().all(|b| !b.has_unbounded_range()) => {
                self.index()?.query_batch(boxes, &self.exec)
            }
            _ => boxes
                .iter()
                .map(|b| self.eclipse_query(b, options))
                .collect(),
        }
    }

    /// Answers a batch of **count-only** eclipse queries: the result
    /// cardinality of every box, without materializing per-probe result
    /// vectors.  Index algorithms (and `Auto` over bounded boxes) route
    /// through [`EclipseIndex::count_batch`] — the same scratch-per-worker
    /// fan-out as [`EclipseEngine::eclipse_query_batch`], with the order
    /// vector counted in place; other algorithms answer per box and take the
    /// length.  Results are returned in input order.
    ///
    /// # Errors
    /// Validates every box up front; no partial results are returned.
    pub fn eclipse_count_batch(
        &self,
        boxes: &[WeightRatioBox],
        options: &QueryOptions,
    ) -> Result<Vec<usize>> {
        for b in boxes {
            if b.dim() != self.dim {
                return Err(EclipseError::DimensionMismatch {
                    expected: self.dim,
                    found: b.dim(),
                });
            }
        }
        if boxes.is_empty() {
            // Nothing to answer — in particular, do not build an index.
            return Ok(Vec::new());
        }
        match options.algorithm {
            Algorithm::IndexQuadtree | Algorithm::IndexCuttingTree => {
                self.index()?.count_batch(boxes, &self.exec)
            }
            Algorithm::Auto if boxes.iter().all(|b| !b.has_unbounded_range()) => {
                self.index()?.count_batch(boxes, &self.exec)
            }
            _ => boxes
                .iter()
                .map(|b| self.eclipse_query(b, options).map(|ids| ids.len()))
                .collect(),
        }
    }

    /// The cached index, if one has been built (by
    /// [`EclipseEngine::build_index`] or lazily by a query) **and it covers
    /// the current dataset epoch** — a cheap accessor for serving-layer
    /// statistics that must not trigger an index build.
    pub fn cached_index(&self) -> Option<Arc<EclipseIndex>> {
        self.index_at(self.epoch())
    }

    /// The cached index if it covers `epoch`.
    fn index_at(&self, epoch: u64) -> Option<Arc<EclipseIndex>> {
        self.index
            .read()
            .expect("index lock poisoned")
            .as_ref()
            .filter(|s| s.epoch == epoch)
            .map(|s| Arc::clone(&s.index))
    }

    /// Serializes the dataset plus the built index into a versioned
    /// snapshot (building and caching the index first if needed, and
    /// compacting a maintained index's overlay into the cached index).
    /// `kind` is a label: either kind writes the same bytes.
    /// `label` is stored alongside the dataset — servers use it to re-derive
    /// the dataset name on a warm restart — and so is the dataset **epoch**,
    /// so a restore can tell a snapshot of the same bytes at an older epoch
    /// apart from a current one.
    ///
    /// # Errors
    /// Propagates index-construction errors.
    pub fn save_snapshot(&self, label: &str, _kind: IntersectionIndexKind) -> Result<Vec<u8>> {
        // Hold the mutation lock so the encoded (points, epoch, index)
        // triple is one consistent version.
        let _guard = self.mutation.lock().expect("mutation lock poisoned");
        let mut index = self.index()?;
        let version = self.version();
        // Compact a maintained index and keep the result: the held lock
        // pins the epoch, and the next save encodes it as is.
        if let Some(compacted) = index.compacted(&self.exec) {
            index = Arc::new(compacted);
            *self.index.write().expect("index lock poisoned") = Some(IndexSlot {
                epoch: version.epoch,
                index: Arc::clone(&index),
            });
        }
        let mut writer = SnapshotWriter::new();
        let mut dataset = Vec::new();
        enc::put_str(&mut dataset, label);
        enc::put_u32(&mut dataset, self.dim as u32);
        enc::put_usize(&mut dataset, version.points.len());
        for p in version.points.iter() {
            for &c in p.coords() {
                enc::put_f64(&mut dataset, c);
            }
        }
        // The dataset epoch rides at the end of the section.
        enc::put_u64(&mut dataset, version.epoch);
        writer.section(crate::index::SECTION_DATASET, dataset);
        index.encode_snapshot_into(&mut writer);
        Ok(writer.finish())
    }

    /// Decodes the dataset section of an engine-level snapshot: the label,
    /// dimensionality, row-major coordinate buffer and dataset epoch.
    fn decode_dataset_section(
        reader: &SnapshotReader<'_>,
    ) -> Result<(String, usize, Vec<f64>, u64)> {
        let mut cur = Cursor::new(reader.section(crate::index::SECTION_DATASET)?);
        let label = cur.str()?;
        let dim = cur.u32()? as usize;
        if dim < 2 {
            return Err(EclipseError::Snapshot(format!(
                "snapshot dataset dimensionality {dim} is below the d ≥ 2 minimum"
            )));
        }
        let n = cur.count(dim.saturating_mul(8))?;
        if n == 0 {
            return Err(EclipseError::Snapshot(
                "snapshot holds an empty dataset".to_string(),
            ));
        }
        let coords = cur.f64_vec(n.checked_mul(dim).ok_or_else(|| {
            EclipseError::Snapshot(format!("{n} points of dimension {dim} overflow"))
        })?)?;
        let epoch = cur.u64()?;
        cur.finish()?;
        Ok((label, dim, coords, epoch))
    }

    /// Reads just the dataset label out of an engine-level snapshot —
    /// container checksums are verified but nothing else is decoded, so
    /// this is the cheap way to route a snapshot file to its dataset
    /// before committing to a full restore.
    ///
    /// # Errors
    /// [`EclipseError::Snapshot`] when the container or dataset section is
    /// malformed.
    pub fn snapshot_label(bytes: &[u8]) -> Result<String> {
        let reader = SnapshotReader::parse(bytes)?;
        let mut cur = Cursor::new(reader.section(crate::index::SECTION_DATASET)?);
        Ok(cur.str()?)
    }

    /// Restores a built index from an engine-level snapshot into this
    /// engine's cache, **after validating the snapshot against the
    /// registered dataset**: the dimensionality, point count, epoch and
    /// every coordinate bit must match.  A snapshot of different data is
    /// rejected with a typed error instead of being installed and serving
    /// wrong results.
    ///
    /// # Errors
    /// * [`EclipseError::Snapshot`] — the bytes are not a valid snapshot;
    /// * [`EclipseError::DimensionMismatch`] — the snapshot's dataset
    ///   dimensionality differs from the engine's;
    /// * [`EclipseError::SnapshotMismatch`] — dataset contents or epoch
    ///   disagree.
    pub fn restore_index_snapshot(&self, bytes: &[u8]) -> Result<Arc<EclipseIndex>> {
        let reader = SnapshotReader::parse(bytes)?;
        let (_label, dim, coords, epoch) = Self::decode_dataset_section(&reader)?;
        if dim != self.dim {
            return Err(EclipseError::DimensionMismatch {
                expected: self.dim,
                found: dim,
            });
        }
        let version = self.version();
        if coords.len() != version.points.len() * self.dim
            || !version
                .points
                .iter()
                .flat_map(|p| p.coords().iter())
                .zip(coords.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits())
        {
            return Err(EclipseError::SnapshotMismatch {
                reason: format!(
                    "snapshot dataset ({} coordinates) differs from the registered dataset \
                     ({} points of dimension {})",
                    coords.len(),
                    version.points.len(),
                    self.dim
                ),
            });
        }
        if epoch != version.epoch {
            return Err(EclipseError::SnapshotMismatch {
                reason: format!(
                    "snapshot dataset epoch {epoch} differs from the engine's epoch {} \
                     (the snapshot predates or postdates a mutation)",
                    version.epoch
                ),
            });
        }
        let index = EclipseIndex::from_snapshot_reader(&reader)?;
        index.validate_against_dataset(self.dim, &coords)?;
        let index = Arc::new(index);
        *self.index.write().expect("index lock poisoned") = Some(IndexSlot {
            epoch: version.epoch,
            index: Arc::clone(&index),
        });
        Ok(index)
    }

    /// Reconstructs a whole engine — dataset and built index — from an
    /// engine-level snapshot: the cold-start warm-restore path, paying only
    /// decode cost instead of skyline + hyperplane construction.  Returns
    /// the stored label alongside the engine; the restored index is
    /// installed in the engine's cache.
    ///
    /// # Errors
    /// [`EclipseError::Snapshot`] / [`EclipseError::SnapshotMismatch`] on
    /// any structural defect, including a skyline that does not belong to
    /// the stored dataset.
    pub fn from_snapshot(bytes: &[u8]) -> Result<(String, EclipseEngine)> {
        let reader = SnapshotReader::parse(bytes)?;
        let (label, dim, coords, epoch) = Self::decode_dataset_section(&reader)?;
        let index = EclipseIndex::from_snapshot_reader(&reader)?;
        if index.dim() != dim {
            return Err(EclipseError::Snapshot(format!(
                "index dimensionality {} disagrees with the dataset dimensionality {dim}",
                index.dim()
            )));
        }
        index.validate_against_dataset(dim, &coords)?;
        let points: Vec<Point> = coords.chunks_exact(dim).map(Point::from_slice).collect();
        let engine = EclipseEngine::new(points)?;
        // Adopt the stored epoch so subsequent saves/restores line up with
        // the mutation history the snapshot captured.
        engine.dataset.write().expect("dataset lock poisoned").epoch = epoch;
        let index = Arc::new(index);
        *engine.index.write().expect("index lock poisoned") = Some(IndexSlot { epoch, index });
        Ok((label, engine))
    }

    fn eclipse_auto(
        &self,
        ratio_box: &WeightRatioBox,
        backend: SkylineBackend,
    ) -> Result<Vec<usize>> {
        // Pure skyline instantiation: use the skyline substrate directly.
        if ratio_box.is_skyline() {
            return Ok(self.skyline());
        }
        // Other unbounded ranges: the analytic pairwise predicate is the only
        // exact option (O(n²) but fully general).
        if ratio_box.has_unbounded_range() {
            return Ok(eclipse_naive(&self.points(), ratio_box));
        }
        // Finite boxes: prefer an already-built index, else TRAN.
        if let Some(idx) = self.cached_index() {
            return idx.query(ratio_box);
        }
        eclipse_transform_with(&self.points(), ratio_box, backend, &self.exec)
    }

    /// Eclipse query returning the points themselves instead of indices.
    ///
    /// # Errors
    /// Same as [`EclipseEngine::eclipse`].
    pub fn eclipse_points(&self, ratio_box: &WeightRatioBox) -> Result<Vec<Point>> {
        let points = self.points();
        Ok(self
            .eclipse(ratio_box)?
            .into_iter()
            .map(|i| points[i].clone())
            .collect())
    }

    /// Answers an eclipse query from a user preference specification.
    ///
    /// # Errors
    /// Propagates preference-lowering and query errors.
    pub fn eclipse_with_preference(&self, pref: &PreferenceSpec) -> Result<Vec<usize>> {
        let ratio_box = pref.to_ratio_box(self.dim)?;
        self.eclipse(&ratio_box)
    }

    /// Size-controlled eclipse query around an exact preference: the widest
    /// symmetric relaxation of `center_ratios` whose result fits in `k`
    /// points (see [`crate::algo::keclipse`]).
    ///
    /// # Errors
    /// Propagates validation errors from the underlying computation.
    pub fn eclipse_top_k(
        &self,
        center_ratios: &[f64],
        k: usize,
    ) -> Result<crate::algo::keclipse::KEclipseResult> {
        if center_ratios.len() + 1 != self.dim {
            return Err(EclipseError::DimensionMismatch {
                expected: self.dim,
                found: center_ratios.len() + 1,
            });
        }
        crate::algo::keclipse::eclipse_top_k(&self.points(), center_ratios, k)
    }

    /// Eclipse query with a result budget: returns the eclipse points of
    /// `ratio_box` if they fit in `k`, otherwise the result of the largest
    /// centred shrink of the box that does.
    ///
    /// # Errors
    /// Propagates validation errors from the underlying computation.
    pub fn eclipse_with_budget(
        &self,
        ratio_box: &WeightRatioBox,
        k: usize,
    ) -> Result<crate::algo::keclipse::KEclipseResult> {
        if ratio_box.dim() != self.dim {
            return Err(EclipseError::DimensionMismatch {
                expected: self.dim,
                found: ratio_box.dim(),
            });
        }
        crate::algo::keclipse::eclipse_with_budget(&self.points(), ratio_box, k)
    }

    /// The skyline of the dataset (indices, ascending), computed with the
    /// divide-and-conquer algorithm; the divide step forks on the engine's
    /// execution context when it has more than one lane (results are
    /// identical at every thread count).
    pub fn skyline(&self) -> Vec<usize> {
        let version = self.version();
        self.current_skyline(&version).to_vec()
    }

    /// The skyline of the dataset computed with an explicit backend, running
    /// on the engine's execution context.  [`SkylineBackend::Auto`] picks the
    /// 2-D sweep for planar data and sort-filter otherwise.
    pub fn skyline_with(&self, backend: SkylineBackend) -> Vec<usize> {
        run_skyline(&self.points(), backend, &self.exec)
    }

    /// The skyline of `version`, from (in preference order) the epoch-tagged
    /// cache, the skyline ids of an already-built index at the same epoch,
    /// or a fresh divide-and-conquer run.  The result is cached under
    /// `version.epoch` so consecutive mutations never recompute it.
    fn current_skyline(&self, version: &DatasetVersion) -> Arc<Vec<usize>> {
        if let Some((epoch, sky)) = self
            .skyline_cache
            .read()
            .expect("skyline cache poisoned")
            .as_ref()
        {
            if *epoch == version.epoch {
                return Arc::clone(sky);
            }
        }
        let from_slot = self
            .index_at(version.epoch)
            .map(|index| index.skyline_ids().to_vec());
        let sky = Arc::new(from_slot.unwrap_or_else(|| {
            eclipse_skyline::dc::skyline_dc_parallel(&version.points, self.exec.pool())
        }));
        *self.skyline_cache.write().expect("skyline cache poisoned") =
            Some((version.epoch, Arc::clone(&sky)));
        sky
    }

    /// Explains why `target` is (or is not) in the eclipse result: the
    /// indices of the points eclipse-dominating it (empty exactly when
    /// `target` is an eclipse point).  The dominance scan fans out over the
    /// engine's execution context on large datasets.
    ///
    /// # Errors
    /// [`EclipseError::DimensionMismatch`] for a mismatched box,
    /// [`EclipseError::Unsupported`] for an out-of-range `target`.
    pub fn explain(&self, target: usize, ratio_box: &WeightRatioBox) -> Result<Vec<usize>> {
        if ratio_box.dim() != self.dim {
            return Err(EclipseError::DimensionMismatch {
                expected: self.dim,
                found: ratio_box.dim(),
            });
        }
        let points = self.points();
        if target >= points.len() {
            return Err(EclipseError::Unsupported(format!(
                "explain target {target} out of range for {} points",
                points.len()
            )));
        }
        Ok(dominators_of_with(&points, target, ratio_box, &self.exec))
    }

    /// For 2-D data: the partition of the query ratio range into maximal
    /// sub-intervals with a constant 1NN winner (see
    /// [`crate::explain::winner_intervals_2d`]).
    ///
    /// # Errors
    /// Propagates the validation errors of the underlying computation.
    pub fn winner_intervals(&self, ratio_box: &WeightRatioBox) -> Result<Vec<WinnerInterval>> {
        winner_intervals_2d_with(&self.points(), ratio_box, &self.exec)
    }

    /// The convex-hull-query points of the dataset (origin's view).
    pub fn convex_hull(&self) -> Vec<usize> {
        eclipse_skyline::hull::hull_query_lp(&self.points())
    }

    /// Top-k points under the linear scoring function induced by a ratio
    /// vector (the paper's kNN).
    ///
    /// # Errors
    /// [`EclipseError::DimensionMismatch`] when `ratios.len() + 1 != d`.
    pub fn knn(&self, ratios: &[f64], k: usize) -> Result<Vec<Neighbor>> {
        if ratios.len() + 1 != self.dim {
            return Err(EclipseError::DimensionMismatch {
                expected: self.dim,
                found: ratios.len() + 1,
            });
        }
        Ok(knn_linear_scan(
            &self.points(),
            &ratio_to_weights(ratios),
            k,
        ))
    }

    /// The single nearest neighbour under a ratio vector (1NN).
    ///
    /// # Errors
    /// Same as [`EclipseEngine::knn`].
    pub fn nn(&self, ratios: &[f64]) -> Result<Option<Neighbor>> {
        Ok(self.knn(ratios, 1)?.into_iter().next())
    }

    /// Side-by-side relationship report (1NN / eclipse / hull / skyline).
    ///
    /// # Errors
    /// Propagates eclipse-query errors.
    pub fn relations(&self, ratio_box: &WeightRatioBox) -> Result<RelationReport> {
        RelationReport::compute(&self.points(), ratio_box)
    }

    /// Inserts a point, incrementally maintaining the skyline and any built
    /// index, and bumps the dataset epoch.  In-flight probes holding
    /// the previous dataset/index `Arc`s keep reading the old version; the
    /// new one swaps in atomically.
    ///
    /// Maintenance rules (exact, duplicate-inclusive skyline):
    /// * some skyline member dominates `p` → the skyline is unchanged
    ///   ([`MutationOutcome::InsertedDominated`]); a built index is re-tagged
    ///   at the new epoch without rebuilding.
    /// * otherwise `p` enters the skyline and evicts exactly the members it
    ///   dominates ([`MutationOutcome::InsertedSkyline`]); a built index
    ///   keeps its slab and records the new skyline in its live-skyline
    ///   overlay, compacting only past [`crate::index::overlay_limit`].
    ///   Answers equal a from-scratch build's either way.
    ///
    /// The point vector is updated in place unless a probe still holds the
    /// previous version.
    ///
    /// # Errors
    /// [`EclipseError::DimensionMismatch`] when the point's dimensionality
    /// differs from the engine's.
    pub fn insert(&self, point: Point) -> Result<MutationSummary> {
        if point.dim() != self.dim {
            return Err(EclipseError::DimensionMismatch {
                expected: self.dim,
                found: point.dim(),
            });
        }
        let _guard = self.mutation.lock().expect("mutation lock poisoned");
        let version = self.version();
        let sky = self.current_skyline(&version);
        let new_id = version.points.len();
        if sky.iter().any(|&id| dominates(&version.points[id], &point)) {
            // Dominated insert: skyline and index are unchanged — re-tag a
            // built index at the new epoch so probes keep hitting it.
            let built = self.index_at(version.epoch);
            // Release this call's handle on the points first, so the push
            // below appends in place unless a probe still holds them.
            drop(version);
            let mut dataset = self.dataset.write().expect("dataset lock poisoned");
            Arc::make_mut(&mut dataset.points).push(point);
            dataset.epoch += 1;
            let epoch = dataset.epoch;
            let len = dataset.points.len();
            self.install_index(epoch, built);
            *self.skyline_cache.write().expect("skyline cache poisoned") =
                Some((epoch, Arc::clone(&sky)));
            drop(dataset);
            return Ok(MutationSummary {
                outcome: MutationOutcome::InsertedDominated,
                epoch,
                len,
            });
        }
        // Skyline-entering insert: evict the members the new point dominates
        // and carry the change into the built index's overlay.
        let mut new_sky: Vec<usize> = sky
            .iter()
            .copied()
            .filter(|&id| !dominates(&point, &version.points[id]))
            .collect();
        new_sky.push(new_id);
        let maintained = self.maintain_built_index(version.epoch, &new_sky, None, |id| {
            if id == new_id {
                point.coords()
            } else {
                version.points[id].coords()
            }
        });
        // As for a dominated insert: without this call's handle on the
        // points, the push happens in place.
        drop(version);
        let mut dataset = self.dataset.write().expect("dataset lock poisoned");
        Arc::make_mut(&mut dataset.points).push(point);
        dataset.epoch += 1;
        let epoch = dataset.epoch;
        let len = dataset.points.len();
        self.install_index(epoch, maintained);
        *self.skyline_cache.write().expect("skyline cache poisoned") =
            Some((epoch, Arc::new(new_sky)));
        drop(dataset);
        Ok(MutationSummary {
            outcome: MutationOutcome::InsertedSkyline,
            epoch,
            len,
        })
    }

    /// Deletes the point with index `id`, incrementally maintaining the
    /// skyline and any built index, and bumps the dataset epoch.
    /// Point ids above `id` shift down by one, exactly as if the engine had
    /// been rebuilt from the mutated dataset.
    ///
    /// Maintenance rules (exact, duplicate-inclusive skyline):
    /// * `id` is not a skyline member → the skyline *point set* is unchanged
    ///   ([`MutationOutcome::DeletedNonSkyline`]); a built index is copied
    ///   with remapped ids.
    /// * `id` is a skyline member → exactly its exclusively-dominated points
    ///   are promoted ([`MutationOutcome::DeletedSkyline`]): candidates are
    ///   the points `id` dominates, survivors those no remaining skyline
    ///   member dominates, and the promoted set is the skyline of the
    ///   survivors.  A remaining bit-identical duplicate promotes nothing.
    ///
    /// Either way a built index keeps its slab and derives its
    /// live-skyline overlay from the new skyline; a promoted point that was
    /// a base skyline row is revived, so deleting a skyline entrant empties
    /// the overlay its insert created.  The point vector is updated in
    /// place unless a probe still holds the previous version.
    ///
    /// # Errors
    /// [`EclipseError::Unsupported`] for an out-of-range `id` or when the
    /// delete would empty the dataset.
    pub fn delete(&self, id: usize) -> Result<MutationSummary> {
        let _guard = self.mutation.lock().expect("mutation lock poisoned");
        let version = self.version();
        if id >= version.points.len() {
            return Err(EclipseError::Unsupported(format!(
                "delete id {id} out of range for {} points",
                version.points.len()
            )));
        }
        if version.points.len() == 1 {
            return Err(EclipseError::Unsupported(
                "deleting the last point would empty the dataset".to_string(),
            ));
        }
        let sky = self.current_skyline(&version);
        let (outcome, mut new_sky) = match sky.binary_search(&id) {
            // Non-skyline delete: everything `id` dominated is still
            // dominated by `id`'s own dominator, so the skyline point set is
            // unchanged — only ids above `id` shift.
            Err(_) => (MutationOutcome::DeletedNonSkyline, sky.to_vec()),
            Ok(pos) => {
                let removed = &version.points[id];
                // A remaining bit-identical duplicate still dominates every
                // candidate the removed member dominated: nothing promotes.
                let has_duplicate = sky.iter().any(|&s| {
                    s != id
                        && version.points[s]
                            .coords()
                            .iter()
                            .zip(removed.coords().iter())
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                });
                let promoted: Vec<usize> = if has_duplicate {
                    Vec::new()
                } else {
                    // Candidates: the points the removed member dominated
                    // (skyline members are never dominated, so they are
                    // excluded automatically).  Survivors: candidates no
                    // remaining skyline member dominates — a non-candidate
                    // non-skyline dominator is itself dominated by a skyline
                    // member, so checking the skyline suffices.
                    let survivors: Vec<usize> = (0..version.points.len())
                        .filter(|&q| q != id && dominates(removed, &version.points[q]))
                        .filter(|&q| {
                            !sky.iter().any(|&s| {
                                s != id && dominates(&version.points[s], &version.points[q])
                            })
                        })
                        .collect();
                    let survivor_points: Vec<Point> = survivors
                        .iter()
                        .map(|&q| version.points[q].clone())
                        .collect();
                    eclipse_skyline::dc::skyline_dc_parallel(&survivor_points, self.exec.pool())
                        .into_iter()
                        .map(|local| survivors[local])
                        .collect()
                };
                let mut new_sky: Vec<usize> = sky
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != pos)
                    .map(|(_, &s)| s)
                    .chain(promoted)
                    .collect();
                new_sky.sort_unstable();
                (MutationOutcome::DeletedSkyline, new_sky)
            }
        };
        for s in &mut new_sky {
            if *s > id {
                *s -= 1;
            }
        }
        let maintained = self.maintain_built_index(version.epoch, &new_sky, Some(id), |post| {
            version.points[if post >= id { post + 1 } else { post }].coords()
        });
        // As for a dominated insert: without this call's handle on the
        // points, the removal happens in place.
        drop(version);
        let mut dataset = self.dataset.write().expect("dataset lock poisoned");
        Arc::make_mut(&mut dataset.points).remove(id);
        dataset.epoch += 1;
        let epoch = dataset.epoch;
        let len = dataset.points.len();
        self.install_index(epoch, maintained);
        *self.skyline_cache.write().expect("skyline cache poisoned") =
            Some((epoch, Arc::new(new_sky)));
        drop(dataset);
        Ok(MutationSummary {
            outcome,
            epoch,
            len,
        })
    }

    /// Maintains the index built at `epoch`, if any, across one mutation
    /// (see [`EclipseIndex::with_live_skyline`]): `live_ids` is the
    /// post-mutation skyline, `deleted` the removed row and `coords` the
    /// post-mutation coordinates of a dataset id.  The result shares its
    /// slab with its predecessor unless its overlay passed the bound and it
    /// was compacted on the engine's execution context.
    fn maintain_built_index<'p>(
        &self,
        epoch: u64,
        live_ids: &[usize],
        deleted: Option<usize>,
        coords: impl Fn(usize) -> &'p [f64],
    ) -> Option<Arc<EclipseIndex>> {
        self.index_at(epoch)
            .map(|index| Arc::new(index.with_live_skyline(live_ids, deleted, &coords, &self.exec)))
    }

    /// Installs `index` at `epoch`, or clears the slot when there is none
    /// (a stale index must not be served).  Callers hold the dataset write
    /// lock, so probes observe the dataset and its index move together.
    fn install_index(&self, epoch: u64, index: Option<Arc<EclipseIndex>>) {
        *self.index.write().expect("index lock poisoned") =
            index.map(|index| IndexSlot { epoch, index });
    }
}

impl std::fmt::Debug for EclipseEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let version = self.version();
        f.debug_struct("EclipseEngine")
            .field("points", &version.points.len())
            .field("epoch", &version.epoch)
            .field("dim", &self.dim)
            .field(
                "index_built",
                &self.index.read().expect("index lock poisoned").is_some(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn paper_engine() -> EclipseEngine {
        EclipseEngine::new(paper_points()).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            EclipseEngine::new(vec![]),
            Err(EclipseError::EmptyDataset)
        ));
        assert!(EclipseEngine::new(vec![p(&[1.0])]).is_err());
        assert!(EclipseEngine::new(vec![p(&[1.0, 2.0]), p(&[1.0, 2.0, 3.0])]).is_err());
        let e = paper_engine();
        assert_eq!(e.len(), 4);
        assert_eq!(e.dim(), 2);
        assert!(!e.is_empty());
        assert_eq!(e.points().len(), 4);
        assert!(format!("{e:?}").contains("EclipseEngine"));
    }

    #[test]
    fn all_algorithms_agree_on_the_running_example() {
        let e = paper_engine();
        let b = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        for alg in [
            Algorithm::Auto,
            Algorithm::Baseline,
            Algorithm::Transform,
            Algorithm::IndexQuadtree,
            Algorithm::IndexCuttingTree,
        ] {
            assert_eq!(e.eclipse_with(&b, alg).unwrap(), vec![0, 1, 2], "{alg:?}");
        }
        let pts = e.eclipse_points(&b).unwrap();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], p(&[1.0, 6.0]));
    }

    #[test]
    fn auto_uses_skyline_for_skyline_instantiation() {
        let e = paper_engine();
        let sky = WeightRatioBox::skyline(2).unwrap();
        assert_eq!(e.eclipse(&sky).unwrap(), vec![0, 1, 2]);
        assert_eq!(e.skyline(), vec![0, 1, 2]);
        // Explicit algorithms that need finite ranges refuse it.
        assert!(e.eclipse_with(&sky, Algorithm::Transform).is_err());
        assert!(e.eclipse_with(&sky, Algorithm::Baseline).is_err());
    }

    #[test]
    fn auto_handles_partially_unbounded_boxes() {
        let e = paper_engine();
        let b = WeightRatioBox::from_bounds(&[(1.0, f64::INFINITY)]).unwrap();
        let got = e.eclipse(&b).unwrap();
        // Exact answer: dominance needs S(p) ≤ S(q) at r = 1 and p[0] ≤ q[0];
        // p1(1,6): no one has both smaller x and smaller r=1 score; p2(4,4)
        // undominated (p1 has bigger sum at r=1? 7 vs 8 — p1 smaller sum but
        // larger x? no, x=1 < 4 — p1 dominates p2? needs p1[0] ≤ p2[0] (1 ≤ 4)
        // and score at r=1: 7 ≤ 8 — yes, with strictness ⇒ p2 is dominated).
        assert!(got.contains(&0));
        assert!(!got.contains(&3));
        assert_eq!(got, crate::dominance::eclipse_naive(&e.points(), &b));
    }

    #[test]
    fn preference_specs_route_through_the_engine() {
        let e = paper_engine();
        let pref = PreferenceSpec::RelaxedWeights {
            ratios: vec![1.0],
            margin: 0.5,
        };
        let got = e.eclipse_with_preference(&pref).unwrap();
        let b = WeightRatioBox::uniform(2, 0.5, 1.5).unwrap();
        assert_eq!(got, e.eclipse(&b).unwrap());

        // Categorical preference with an unbounded top level still answers.
        let pref = PreferenceSpec::Categorical(vec![crate::prefs::ImportanceLevel::VeryImportant]);
        let got = e.eclipse_with_preference(&pref).unwrap();
        assert!(!got.is_empty());
    }

    #[test]
    fn knn_and_hull_accessors() {
        let e = paper_engine();
        let nn = e.nn(&[2.0]).unwrap().unwrap();
        assert_eq!(nn.index, 0);
        let top2 = e.knn(&[2.0], 2).unwrap();
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[1].index, 1);
        assert!(e.knn(&[2.0, 1.0], 1).is_err());
        assert_eq!(e.convex_hull(), vec![0, 2]);
        let rel = e
            .relations(&WeightRatioBox::uniform(2, 0.25, 2.0).unwrap())
            .unwrap();
        assert_eq!(rel.eclipse, vec![0, 1, 2]);
    }

    #[test]
    fn size_controlled_queries_through_the_engine() {
        let e = paper_engine();
        let top1 = e.eclipse_top_k(&[2.0], 1).unwrap();
        assert_eq!(top1.indices, vec![0]);
        let budget = e
            .eclipse_with_budget(&WeightRatioBox::uniform(2, 0.25, 2.0).unwrap(), 2)
            .unwrap();
        assert!(budget.indices.len() <= 2);
        assert!(!budget.indices.is_empty());
        // Dimension mismatches are caught up front.
        assert!(e.eclipse_top_k(&[2.0, 1.0], 1).is_err());
        assert!(e
            .eclipse_with_budget(&WeightRatioBox::uniform(3, 0.5, 1.0).unwrap(), 2)
            .is_err());
    }

    #[test]
    fn index_is_cached_and_reused() {
        let e = paper_engine();
        let a = e.build_index(IntersectionIndexKind::Quadtree).unwrap();
        let b = e.build_index(IntersectionIndexKind::Quadtree).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Auto now routes through the cached index.
        let bx = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        assert_eq!(e.eclipse(&bx).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn dimension_mismatch_is_rejected_up_front() {
        let e = paper_engine();
        let wrong = WeightRatioBox::uniform(3, 0.5, 1.0).unwrap();
        assert!(matches!(
            e.eclipse(&wrong),
            Err(EclipseError::DimensionMismatch {
                expected: 2,
                found: 3
            })
        ));
    }

    #[test]
    fn algorithms_agree_on_random_3d_data() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        let pts: Vec<Point> = (0..250)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let e = EclipseEngine::new(pts).unwrap();
        let b = WeightRatioBox::uniform(3, 0.36, 2.75).unwrap();
        let baseline = e.eclipse_with(&b, Algorithm::Baseline).unwrap();
        for alg in [
            Algorithm::Auto,
            Algorithm::Transform,
            Algorithm::IndexQuadtree,
            Algorithm::IndexCuttingTree,
        ] {
            assert_eq!(e.eclipse_with(&b, alg).unwrap(), baseline, "{alg:?}");
        }
    }

    #[test]
    fn eclipse_query_options_and_contexts_agree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(103);
        let pts: Vec<Point> = (0..2000)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let b = WeightRatioBox::uniform(3, 0.36, 2.75).unwrap();
        let serial = EclipseEngine::new(pts.clone())
            .unwrap()
            .with_execution_context(ExecutionContext::serial());
        let wide = EclipseEngine::new(pts)
            .unwrap()
            .with_execution_context(ExecutionContext::with_threads(4));
        assert_eq!(serial.execution_context().threads(), 1);
        assert_eq!(wide.execution_context().threads(), 4);
        let expected = serial.eclipse(&b).unwrap();
        for backend in [
            SkylineBackend::Auto,
            SkylineBackend::SortFilter,
            SkylineBackend::ParallelBlockNestedLoop,
            SkylineBackend::ParallelSortFilter,
            SkylineBackend::ParallelDivideConquer,
        ] {
            let opts = QueryOptions::transform(backend);
            assert_eq!(serial.eclipse_query(&b, &opts).unwrap(), expected);
            assert_eq!(wide.eclipse_query(&b, &opts).unwrap(), expected);
        }
        assert_eq!(
            wide.eclipse_query(&b, &QueryOptions::parallel()).unwrap(),
            expected
        );
        // The skyline itself is context-invariant too, for every backend.
        let sky = serial.skyline();
        assert_eq!(wide.skyline(), sky);
        for backend in [
            SkylineBackend::BlockNestedLoop,
            SkylineBackend::DivideConquer,
            SkylineBackend::ParallelDivideConquer,
            SkylineBackend::ParallelSortFilter,
        ] {
            assert_eq!(wide.skyline_with(backend), sky, "{backend:?}");
        }
    }

    #[test]
    fn batched_queries_agree_with_per_probe_answers() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(104);
        let pts: Vec<Point> = (0..300)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let boxes: Vec<WeightRatioBox> = (0..20)
            .map(|_| {
                let lo = rng.gen_range(0.05..1.5);
                WeightRatioBox::uniform(3, lo, lo + rng.gen_range(0.05..2.0)).unwrap()
            })
            .collect();
        let e = EclipseEngine::new(pts).unwrap();
        let expected: Vec<Vec<usize>> = boxes.iter().map(|b| e.eclipse(b).unwrap()).collect();
        for alg in [
            Algorithm::Auto,
            Algorithm::Baseline,
            Algorithm::Transform,
            Algorithm::IndexQuadtree,
            Algorithm::IndexCuttingTree,
        ] {
            let opts = QueryOptions::with_algorithm(alg);
            assert_eq!(
                e.eclipse_query_batch(&boxes, &opts).unwrap(),
                expected,
                "{alg:?}"
            );
        }
        // Empty batches and mixed dimensionalities are handled up front.
        assert!(e
            .eclipse_query_batch(&[], &QueryOptions::default())
            .unwrap()
            .is_empty());
        let wrong = WeightRatioBox::uniform(4, 0.5, 1.0).unwrap();
        assert!(e
            .eclipse_query_batch(&[wrong], &QueryOptions::default())
            .is_err());
    }

    #[test]
    fn count_batches_agree_with_query_batch_lengths() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(105);
        let pts: Vec<Point> = (0..300)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let boxes: Vec<WeightRatioBox> = (0..20)
            .map(|_| {
                let lo = rng.gen_range(0.05..1.5);
                WeightRatioBox::uniform(3, lo, lo + rng.gen_range(0.05..2.0)).unwrap()
            })
            .collect();
        let e = EclipseEngine::new(pts).unwrap();
        let expected: Vec<usize> = boxes.iter().map(|b| e.eclipse(b).unwrap().len()).collect();
        for alg in [
            Algorithm::Auto,
            Algorithm::Baseline,
            Algorithm::Transform,
            Algorithm::IndexQuadtree,
            Algorithm::IndexCuttingTree,
        ] {
            let opts = QueryOptions::with_algorithm(alg);
            assert_eq!(
                e.eclipse_count_batch(&boxes, &opts).unwrap(),
                expected,
                "{alg:?}"
            );
        }
        // Empty / single-probe / mixed-dimension handling mirrors the
        // id-returning batch API.
        assert!(e
            .eclipse_count_batch(&[], &QueryOptions::default())
            .unwrap()
            .is_empty());
        assert_eq!(
            e.eclipse_count_batch(&boxes[..1], &QueryOptions::default())
                .unwrap(),
            expected[..1]
        );
        let wrong = WeightRatioBox::uniform(4, 0.5, 1.0).unwrap();
        assert!(e
            .eclipse_count_batch(&[wrong], &QueryOptions::default())
            .is_err());
        // Unbounded boxes fall back to per-probe Auto answering.
        let sky = WeightRatioBox::skyline(3).unwrap();
        let got = e
            .eclipse_count_batch(std::slice::from_ref(&sky), &QueryOptions::default())
            .unwrap();
        assert_eq!(got, vec![e.eclipse(&sky).unwrap().len()]);
    }

    #[test]
    fn cached_index_accessor_never_builds() {
        let e = paper_engine();
        assert!(e.cached_index().is_none());
        let built = e.build_index(IntersectionIndexKind::Quadtree).unwrap();
        let cached = e.cached_index().unwrap();
        assert!(Arc::ptr_eq(&built, &cached));
        // Either kind label names the one index.
        let other = e.build_index(IntersectionIndexKind::CuttingTree).unwrap();
        assert!(Arc::ptr_eq(&built, &other));
    }

    #[test]
    fn auto_batches_with_unbounded_boxes_fall_back_per_probe() {
        let e = paper_engine();
        let sky = WeightRatioBox::skyline(2).unwrap();
        let bounded = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        let got = e
            .eclipse_query_batch(&[sky.clone(), bounded.clone()], &QueryOptions::default())
            .unwrap();
        assert_eq!(got[0], e.eclipse(&sky).unwrap());
        assert_eq!(got[1], e.eclipse(&bounded).unwrap());
        // Explicit index algorithms refuse unbounded boxes, batched too.
        assert!(e
            .eclipse_query_batch(
                &[sky],
                &QueryOptions::with_algorithm(Algorithm::IndexQuadtree)
            )
            .is_err());
    }

    #[test]
    fn explain_and_winner_intervals_through_the_engine() {
        let e = paper_engine();
        let b = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        assert_eq!(e.explain(0, &b).unwrap(), Vec::<usize>::new());
        assert_eq!(e.explain(3, &b).unwrap(), vec![0, 1, 2]);
        assert!(e.explain(7, &b).is_err());
        assert!(e
            .explain(0, &WeightRatioBox::uniform(3, 0.5, 1.0).unwrap())
            .is_err());
        let intervals = e.winner_intervals(&b).unwrap();
        assert_eq!(intervals.first().unwrap().winner, 2);
        assert_eq!(intervals.last().unwrap().winner, 0);
    }

    #[test]
    fn engine_snapshots_restore_and_cold_start() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(106);
        let pts: Vec<Point> = (0..250)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let e = EclipseEngine::new(pts.clone()).unwrap();
        let b = WeightRatioBox::uniform(3, 0.36, 2.75).unwrap();
        let expected = e.eclipse(&b).unwrap();
        for kind in [
            IntersectionIndexKind::Quadtree,
            IntersectionIndexKind::CuttingTree,
        ] {
            let bytes = e.save_snapshot("inde", kind).unwrap();
            assert_eq!(EclipseEngine::snapshot_label(&bytes).unwrap(), "inde");
            assert!(EclipseEngine::snapshot_label(&bytes[..8]).is_err());

            // Warm-restore into a fresh engine over the same dataset.
            let fresh = EclipseEngine::new(pts.clone()).unwrap();
            assert!(fresh.cached_index().is_none());
            let restored = fresh.restore_index_snapshot(&bytes).unwrap();
            let cached = fresh.cached_index().unwrap();
            assert!(
                Arc::ptr_eq(&restored, &cached),
                "restore installs the index"
            );
            assert_eq!(fresh.eclipse(&b).unwrap(), expected);

            // Cold-start: dataset and index both come from the snapshot.
            let (label, cold) = EclipseEngine::from_snapshot(&bytes).unwrap();
            assert_eq!(label, "inde");
            assert_eq!(cold.len(), pts.len());
            assert!(cold.cached_index().is_some());
            assert_eq!(cold.eclipse(&b).unwrap(), expected);
        }
    }

    #[test]
    fn snapshot_mismatches_are_typed_errors() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(107);
        let pts: Vec<Point> = (0..100)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let e = EclipseEngine::new(pts.clone()).unwrap();
        let bytes = e
            .save_snapshot("ds", IntersectionIndexKind::Quadtree)
            .unwrap();

        // A different dataset of the same shape is rejected.
        let mut other_pts = pts.clone();
        other_pts[0] = Point::new(vec![9.0, 9.0, 9.0]);
        let other = EclipseEngine::new(other_pts).unwrap();
        assert!(matches!(
            other.restore_index_snapshot(&bytes),
            Err(EclipseError::SnapshotMismatch { .. })
        ));

        // A different dimensionality is rejected up front.
        let flat: Vec<Point> = (0..100)
            .map(|_| Point::new(vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]))
            .collect();
        let e2d = EclipseEngine::new(flat).unwrap();
        assert!(matches!(
            e2d.restore_index_snapshot(&bytes),
            Err(EclipseError::DimensionMismatch {
                expected: 2,
                found: 3
            })
        ));

        // The index-config label plays no part: any config restores it.
        let relabelled = EclipseEngine::with_index_config(
            pts,
            IndexConfig {
                max_ratio: 4.0,
                ..IndexConfig::default()
            },
        )
        .unwrap();
        relabelled.restore_index_snapshot(&bytes).unwrap();

        // Garbage bytes surface as snapshot errors, not panics.
        assert!(matches!(
            e.restore_index_snapshot(b"not a snapshot"),
            Err(EclipseError::Snapshot(_))
        ));
        assert!(matches!(
            EclipseEngine::from_snapshot(&bytes[..bytes.len() / 2]),
            Err(EclipseError::Snapshot(_))
        ));
    }

    /// The snapshot bytes of the engine's cached index — the strictest
    /// observable identity between two indexes.
    fn cached_index_bytes(e: &EclipseEngine) -> Vec<u8> {
        e.cached_index()
            .expect("index must be cached")
            .encode_snapshot()
    }

    #[test]
    fn dominated_insert_is_absorbed_without_rebuilding() {
        let e = paper_engine();
        let before = e.build_index(IntersectionIndexKind::Quadtree).unwrap();
        let summary = e.insert(p(&[5.0, 5.0])).unwrap();
        assert_eq!(summary.outcome, MutationOutcome::InsertedDominated);
        assert_eq!(summary.epoch, 1);
        assert_eq!(summary.len, 5);
        assert_eq!(e.epoch(), 1);
        // The arena was re-tagged, not rebuilt: same allocation.
        let after = e
            .cached_index()
            .expect("index stays cached across an absorbed insert");
        assert!(Arc::ptr_eq(&before, &after));
        // Results agree with a from-scratch engine on the mutated dataset.
        let rebuilt = EclipseEngine::new(e.points().to_vec()).unwrap();
        let b = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        assert_eq!(
            e.eclipse_with(&b, Algorithm::IndexQuadtree).unwrap(),
            rebuilt.eclipse_with(&b, Algorithm::IndexQuadtree).unwrap()
        );
        assert_eq!(e.skyline(), rebuilt.skyline());
    }

    #[test]
    fn absorbed_mutations_update_the_points_in_place() {
        // Spare capacity, so an in-place push keeps the buffer where it is.
        let mut points = Vec::with_capacity(8);
        points.extend(paper_points());
        let e = EclipseEngine::new(points).unwrap();
        e.build_index(IntersectionIndexKind::Quadtree).unwrap();
        let buffer = e.points().as_ptr();
        // A dominated insert and a non-skyline delete leave the skyline
        // alone and must not copy the point set.
        let summary = e.insert(p(&[5.0, 5.0])).unwrap();
        assert_eq!(summary.outcome, MutationOutcome::InsertedDominated);
        assert_eq!(
            e.points().as_ptr(),
            buffer,
            "dominated insert copied the points"
        );
        let summary = e.delete(4).unwrap();
        assert_eq!(summary.outcome, MutationOutcome::DeletedNonSkyline);
        assert_eq!(
            e.points().as_ptr(),
            buffer,
            "non-skyline delete copied the points"
        );
        // Neither do the skyline-touching paths: (2.0, 3.0) enters the
        // skyline, and deleting it promotes (4.0, 4.0) back.
        let summary = e.insert(p(&[2.0, 3.0])).unwrap();
        assert_eq!(summary.outcome, MutationOutcome::InsertedSkyline);
        assert_eq!(
            e.points().as_ptr(),
            buffer,
            "skyline-entering insert copied the points"
        );
        let summary = e.delete(4).unwrap();
        assert_eq!(summary.outcome, MutationOutcome::DeletedSkyline);
        assert_eq!(
            e.points().as_ptr(),
            buffer,
            "skyline delete copied the points"
        );
        assert_eq!(e.points().to_vec(), paper_points());
        // A probe holding the points still forces a copy: it keeps reading
        // the version it took.
        let held = e.points();
        e.insert(p(&[5.0, 5.0])).unwrap();
        assert_eq!(held.len(), 4);
        assert_eq!(e.len(), 5);
        assert_ne!(e.points().as_ptr(), held.as_ptr());
    }

    #[test]
    fn skyline_entering_insert_matches_rebuild_bytes() {
        let e = paper_engine();
        e.build_index(IntersectionIndexKind::Quadtree).unwrap();
        e.build_index(IntersectionIndexKind::CuttingTree).unwrap();
        // (2.0, 3.0) dominates (4.0, 4.0) and enters the skyline.
        let summary = e.insert(p(&[2.0, 3.0])).unwrap();
        assert_eq!(summary.outcome, MutationOutcome::InsertedSkyline);
        assert_eq!(summary.epoch, 1);
        let rebuilt = EclipseEngine::new(e.points().to_vec()).unwrap();
        assert_eq!(e.skyline(), rebuilt.skyline());
        for kind in [
            IntersectionIndexKind::Quadtree,
            IntersectionIndexKind::CuttingTree,
        ] {
            rebuilt.build_index(kind).unwrap();
            assert_eq!(
                cached_index_bytes(&e),
                cached_index_bytes(&rebuilt),
                "maintained {kind:?} arena must be byte-identical to a rebuild"
            );
        }
    }

    #[test]
    fn entrant_and_delete_cycles_share_one_arena() {
        // The mutation cycle of a write-heavy serving load: a skyline
        // member nudged down enters the skyline, is deleted again, and
        // dominated inserts and non-skyline deletes run in between.  No
        // step compacts: the entrant's delete revives the member it
        // killed, so the overlay empties and the arena stays the base.
        let mut rng = rand::rngs::StdRng::seed_from_u64(108);
        let pts: Vec<Point> = (0..400)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let e = EclipseEngine::new(pts)
            .unwrap()
            .with_execution_context(ExecutionContext::serial());
        let kind = IntersectionIndexKind::Quadtree;
        let base = e.build_index(kind).unwrap();
        let b = WeightRatioBox::uniform(3, 0.36, 2.75).unwrap();
        for cycle in 0..12 {
            let sky = e.skyline();
            let mut entrant = e.points()[sky[cycle % sky.len()]].coords().to_vec();
            entrant[cycle % 3] -= 1e-3;
            let summary = e.insert(Point::new(entrant)).unwrap();
            assert_eq!(summary.outcome, MutationOutcome::InsertedSkyline);
            let during = e.cached_index().unwrap();
            assert!(
                during.shares_arena(&base),
                "cycle {cycle}: insert compacted"
            );
            assert!(during.overlay_rows() >= 2);
            let summary = e.delete(e.len() - 1).unwrap();
            assert_eq!(summary.outcome, MutationOutcome::DeletedSkyline);
            let after = e.cached_index().unwrap();
            assert!(after.shares_arena(&base), "cycle {cycle}: delete compacted");
            assert_eq!(after.overlay_rows(), 0);
            assert_eq!(after.heap_bytes(), base.heap_bytes());
            let dominated = e.points()[sky[0]]
                .coords()
                .iter()
                .map(|c| c + 0.5)
                .collect();
            e.insert(Point::new(dominated)).unwrap();
            let plain = (0..e.len()).find(|i| e.skyline().binary_search(i).is_err());
            e.delete(plain.unwrap()).unwrap();
            let rebuilt = EclipseEngine::new(e.points().to_vec()).unwrap();
            assert_eq!(
                e.eclipse_with(&b, Algorithm::IndexQuadtree).unwrap(),
                rebuilt.eclipse_with(&b, Algorithm::IndexQuadtree).unwrap()
            );
        }
        assert!(e.cached_index().unwrap().shares_arena(&base));
    }

    #[test]
    fn snapshots_compact_the_cached_index() {
        let e = paper_engine();
        let kind = IntersectionIndexKind::Quadtree;
        let base = e.build_index(kind).unwrap();
        e.insert(p(&[2.0, 3.0])).unwrap();
        let maintained = e.cached_index().unwrap();
        assert!(maintained.overlay_rows() > 0);
        let bytes = e.save_snapshot("compact", kind).unwrap();
        let compacted = e.cached_index().unwrap();
        assert_eq!(compacted.overlay_rows(), 0);
        assert!(!compacted.shares_arena(&base));
        let rebuilt = EclipseEngine::new(e.points().to_vec()).unwrap();
        rebuilt.build_index(kind).unwrap();
        assert_eq!(compacted.encode_snapshot(), cached_index_bytes(&rebuilt));
        let (_, cold) = EclipseEngine::from_snapshot(&bytes).unwrap();
        assert_eq!(cached_index_bytes(&cold), compacted.encode_snapshot());
    }

    #[test]
    fn deletes_match_rebuild_bytes() {
        // id 3 = (8.0, 5.0) is dominated (non-skyline delete); id 1 =
        // (4.0, 4.0) is a skyline member whose eviction promotes nothing
        // ((8.0, 5.0) is still dominated by (6.0, 1.0)... by (1.0, 6.0)? no —
        // by remaining member (6.0, 1.0)).
        for (id, outcome) in [
            (3, MutationOutcome::DeletedNonSkyline),
            (1, MutationOutcome::DeletedSkyline),
        ] {
            let e = paper_engine();
            e.build_index(IntersectionIndexKind::Quadtree).unwrap();
            e.build_index(IntersectionIndexKind::CuttingTree).unwrap();
            let summary = e.delete(id).unwrap();
            assert_eq!(summary.outcome, outcome);
            assert_eq!(summary.epoch, 1);
            assert_eq!(summary.len, 3);
            let rebuilt = EclipseEngine::new(e.points().to_vec()).unwrap();
            assert_eq!(e.skyline(), rebuilt.skyline());
            for kind in [
                IntersectionIndexKind::Quadtree,
                IntersectionIndexKind::CuttingTree,
            ] {
                rebuilt.build_index(kind).unwrap();
                assert_eq!(
                    cached_index_bytes(&e),
                    cached_index_bytes(&rebuilt),
                    "delete({id}) {kind:?} arena must be byte-identical to a rebuild"
                );
            }
        }
    }

    #[test]
    fn skyline_delete_promotes_exclusively_dominated_points() {
        // (3.0, 3.0) exclusively dominates (3.5, 3.5); deleting it must
        // promote exactly that point, while (9.0, 9.0) (also dominated by
        // the surviving member (1.0, 6.0)? no — dominated by (3.5, 3.5))
        // stays out because its dominator (3.5, 3.5) is promoted.
        let e = EclipseEngine::new(vec![
            p(&[3.0, 3.0]),
            p(&[3.5, 3.5]),
            p(&[9.0, 9.0]),
            p(&[1.0, 6.0]),
        ])
        .unwrap();
        assert_eq!(e.skyline(), vec![0, 3]);
        let summary = e.delete(0).unwrap();
        assert_eq!(summary.outcome, MutationOutcome::DeletedSkyline);
        // After the remap (ids shift down): (3.5, 3.5) is id 0, (1.0, 6.0)
        // is id 2.
        assert_eq!(e.skyline(), vec![0, 2]);
        assert_eq!(
            e.skyline(),
            EclipseEngine::new(e.points().to_vec()).unwrap().skyline()
        );
    }

    #[test]
    fn duplicate_points_mutate_exactly_like_a_rebuild() {
        let e = paper_engine();
        // A bit-identical duplicate of skyline member (4.0, 4.0) enters the
        // skyline (duplicates are mutually non-dominating).
        let summary = e.insert(p(&[4.0, 4.0])).unwrap();
        assert_eq!(summary.outcome, MutationOutcome::InsertedSkyline);
        assert_eq!(e.skyline(), vec![0, 1, 2, 4]);
        assert_eq!(
            e.skyline(),
            EclipseEngine::new(e.points().to_vec()).unwrap().skyline()
        );
        // Deleting one duplicate promotes nothing: its twin still covers
        // everything it dominated.
        let summary = e.delete(1).unwrap();
        assert_eq!(summary.outcome, MutationOutcome::DeletedSkyline);
        assert_eq!(e.skyline(), vec![0, 1, 3]);
        assert_eq!(
            e.skyline(),
            EclipseEngine::new(e.points().to_vec()).unwrap().skyline()
        );
    }

    #[test]
    fn mutation_validation_errors() {
        let e = paper_engine();
        assert!(matches!(
            e.insert(p(&[1.0, 2.0, 3.0])),
            Err(EclipseError::DimensionMismatch { .. })
        ));
        assert!(matches!(e.delete(4), Err(EclipseError::Unsupported(_))));
        let tiny = EclipseEngine::new(vec![p(&[1.0, 2.0]), p(&[2.0, 1.0])]).unwrap();
        tiny.delete(0).unwrap();
        assert!(matches!(tiny.delete(0), Err(EclipseError::Unsupported(_))));
    }

    #[test]
    fn snapshot_epochs_gate_restores() {
        let e = paper_engine();
        let stale = e
            .save_snapshot("epochs", IntersectionIndexKind::Quadtree)
            .unwrap();
        // Insert then delete the same trailing point: dataset bits return to
        // the original, but the epoch advances to 2 — the stale snapshot no
        // longer matches.
        e.insert(p(&[9.0, 9.0])).unwrap();
        e.delete(4).unwrap();
        assert_eq!(e.points().to_vec(), paper_points());
        assert_eq!(e.epoch(), 2);
        assert!(matches!(
            e.restore_index_snapshot(&stale),
            Err(EclipseError::SnapshotMismatch { reason }) if reason.contains("epoch")
        ));
        // A snapshot taken now restores, and a cold start adopts the epoch.
        let fresh = e
            .save_snapshot("epochs", IntersectionIndexKind::Quadtree)
            .unwrap();
        e.restore_index_snapshot(&fresh).unwrap();
        let (label, cold) = EclipseEngine::from_snapshot(&fresh).unwrap();
        assert_eq!(label, "epochs");
        assert_eq!(cold.epoch(), 2);
        // ...and the adopted epoch round-trips through the cold engine.
        cold.restore_index_snapshot(&fresh).unwrap();
    }

    #[test]
    fn engine_is_usable_from_multiple_threads() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(102);
        let pts: Vec<Point> = (0..300)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let e = Arc::new(EclipseEngine::new(pts).unwrap());
        let expected = e
            .eclipse(&WeightRatioBox::uniform(3, 0.36, 2.75).unwrap())
            .unwrap();
        let mut handles = Vec::new();
        for t in 0..4 {
            let e = Arc::clone(&e);
            let expected = expected.clone();
            handles.push(std::thread::spawn(move || {
                let b = WeightRatioBox::uniform(3, 0.36, 2.75).unwrap();
                let alg = if t % 2 == 0 {
                    Algorithm::IndexQuadtree
                } else {
                    Algorithm::IndexCuttingTree
                };
                assert_eq!(e.eclipse_with(&b, alg).unwrap(), expected);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
