//! The framed-TCP server: per-dataset [`EclipseEngine`] instances behind one
//! shared execution context, request dispatch, and connection plumbing.
//!
//! All sockets are owned by one readiness-driven event loop (see the
//! `event_loop` module) that parses frames, enforces admission control and
//! deadlines, and hands decoded requests to a pool of dispatcher workers.
//! Every engine shares one `eclipse-exec` pool (the [`ExecutionContext`] the
//! server was bound with), so a `QueryBatch` fans its probes out over the
//! same workers regardless of which connection it arrived on — the
//! steady-state request path is [`EclipseEngine::eclipse_query_batch`]
//! (one `ProbeScratch` per worker, zero allocations per probe) and [`EclipseEngine::eclipse_count_batch`] for cardinality-only
//! probes.
//!
//! Datasets are registered with [`Request::LoadDataset`] (or in-process with
//! [`Server::register_dataset`]) and warmed at registration: the requested
//! Intersection Index is built before the acknowledgement is sent, so the
//! first batch never pays construction latency.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use eclipse_core::exec::{ExecutionContext, QueryOptions};
use eclipse_core::index::EclipseIndex;
use eclipse_core::point::Point;
use eclipse_core::{EclipseEngine, EclipseError, WeightRatioBox};

use crate::event_loop::EventLoop;
use crate::protocol::{
    DatasetStats, DatasetSummary, IndexKind, IndexSummary, Request, Response, StatsReport, WireBox,
};

/// One registered dataset in the residency tier: its engine while resident,
/// or a summary of it while evicted to its snapshot file.
struct DatasetSlot {
    name: String,
    /// Logical LRU stamp: the value of [`ServerState::lru_clock`] at the
    /// last request that touched this dataset.
    last_used: AtomicU64,
    state: Mutex<Residency>,
}

/// Residency state of a [`DatasetSlot`].
enum Residency {
    Resident(ResidentDataset),
    /// Evicted under the memory budget; the summary describes the dataset
    /// as it was at eviction so `Stats` can report it without restoring.
    Evicted(EvictedStats),
}

/// The resident half of a slot: the live engine plus what the snapshot
/// directory already holds for it.
struct ResidentDataset {
    engine: Arc<EclipseEngine>,
    /// The dataset epoch the on-disk snapshot covers (`None`: no file
    /// written during this residency).  Eviction re-writes the snapshot
    /// unless this matches the current epoch — the snapshot-if-dirty check.
    saved: Option<u64>,
}

/// What `Stats` reports about an evicted dataset.
#[derive(Clone)]
struct EvictedStats {
    points: u64,
    dim: u32,
    skyline_len: u64,
    intersections: u64,
    built: bool,
    epoch: u64,
}

/// The acknowledgement of a build or restore of the index under the `kind`
/// label.  No tree exists, so `nodes` and `depth` are 0.
fn index_summary(kind: IndexKind, index: &EclipseIndex) -> IndexSummary {
    IndexSummary {
        kind,
        skyline_len: index.skyline_len() as u64,
        intersections: index.num_intersections() as u64,
        nodes: 0,
        depth: 0,
    }
}

/// `Stats` counts the intersection hyperplanes crossing `[0, 16]^{d−1}`,
/// the region of ratio space the paper's trees index by default.
const CROSSING_REGION_MAX_RATIO: f64 = 16.0;

/// Internal error type of the request handlers: either an engine error
/// (answered as [`Response::Error`]) or an already-typed response such as
/// [`Response::DatasetUnavailable`].
enum ServeError {
    Typed(Box<Response>),
    Engine(EclipseError),
}

impl From<EclipseError> for ServeError {
    fn from(e: EclipseError) -> Self {
        ServeError::Engine(e)
    }
}

/// Shared server state: the dataset registry, the execution context every
/// engine draws from, and the serving counters.
pub(crate) struct ServerState {
    exec: ExecutionContext,
    datasets: RwLock<HashMap<String, Arc<DatasetSlot>>>,
    /// Where `SaveIndex`/`RestoreIndex` persist snapshots; `None` disables
    /// the snapshot surface (requests answer with an error response) — and
    /// with it budget eviction, which needs somewhere to put cold datasets.
    snapshot_dir: RwLock<Option<PathBuf>>,
    /// Global budget on accounted dataset bytes ([`EclipseEngine::heap_bytes`]
    /// summed over resident datasets); `None` disables eviction.
    memory_budget: Option<u64>,
    /// Logical clock stamping [`DatasetSlot::last_used`] on every touch.
    lru_clock: AtomicU64,
    /// Datasets evicted to their snapshots since the server started.
    evictions: AtomicU64,
    /// Evicted datasets transparently restored since the server started.
    reloads: AtomicU64,
    /// Serializes budget-enforcement passes so concurrent admissions cannot
    /// race each other into evicting more than the overshoot.
    evict_guard: Mutex<()>,
    query_batches: AtomicU64,
    count_batches: AtomicU64,
    probes: AtomicU64,
    pub(crate) errors: AtomicU64,
    /// Requests admitted by the event loop but not yet answered.
    pub(crate) in_flight: AtomicU64,
    /// Requests answered with [`Response::Timeout`].
    pub(crate) timeouts: AtomicU64,
    /// Requests rejected with [`Response::Overloaded`].
    pub(crate) rejected: AtomicU64,
    /// Per-connection in-flight gauges, registered by the event loop so
    /// `Stats` (answered on a worker) can report live queue depths.
    conn_gauges: Mutex<HashMap<u64, Arc<AtomicU32>>>,
}

impl ServerState {
    fn new(exec: ExecutionContext) -> Self {
        ServerState {
            exec,
            datasets: RwLock::new(HashMap::new()),
            snapshot_dir: RwLock::new(None),
            memory_budget: None,
            lru_clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            evict_guard: Mutex::new(()),
            query_batches: AtomicU64::new(0),
            count_batches: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            conn_gauges: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn exec(&self) -> &ExecutionContext {
        &self.exec
    }

    pub(crate) fn register_conn(&self, id: u64) -> Arc<AtomicU32> {
        let gauge = Arc::new(AtomicU32::new(0));
        self.conn_gauges
            .lock()
            .expect("conn gauge registry poisoned")
            .insert(id, Arc::clone(&gauge));
        gauge
    }

    pub(crate) fn unregister_conn(&self, id: u64) {
        self.conn_gauges
            .lock()
            .expect("conn gauge registry poisoned")
            .remove(&id);
    }

    fn snapshot_dir(&self) -> Result<PathBuf, EclipseError> {
        self.snapshot_dir
            .read()
            .expect("snapshot dir lock poisoned")
            .clone()
            .ok_or_else(|| {
                EclipseError::Unsupported(
                    "this server was started without --snapshot-dir".to_string(),
                )
            })
    }

    fn slot(&self, name: &str) -> Result<Arc<DatasetSlot>, EclipseError> {
        self.datasets
            .read()
            .expect("dataset registry poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| EclipseError::Unsupported(format!("unknown dataset {name:?}")))
    }

    /// Stamps the slot as most-recently-used.
    fn touch(&self, slot: &DatasetSlot) {
        let stamp = self.lru_clock.fetch_add(1, Ordering::Relaxed) + 1;
        slot.last_used.store(stamp, Ordering::Relaxed);
    }

    /// The slot's engine, transparently restoring an evicted dataset from
    /// its snapshot file.  The caller must hold the slot's state lock —
    /// which is exactly what makes eviction safe against concurrent
    /// mutations (both sides take the same lock).
    fn make_resident(
        &self,
        slot: &DatasetSlot,
        st: &mut Residency,
    ) -> Result<Arc<EclipseEngine>, ServeError> {
        if let Residency::Resident(r) = st {
            return Ok(Arc::clone(&r.engine));
        }
        let restored = self.restore_evicted(&slot.name).map_err(|reason| {
            ServeError::Typed(Box::new(Response::DatasetUnavailable {
                name: slot.name.clone(),
                reason,
            }))
        })?;
        let engine = Arc::clone(&restored.engine);
        *st = Residency::Resident(restored);
        self.reloads.fetch_add(1, Ordering::Relaxed);
        Ok(engine)
    }

    /// Rebuilds a [`ResidentDataset`] for an evicted dataset from its
    /// snapshot file.  Failing this — no snapshot directory, no file, or
    /// undecodable bytes — is the one condition the residency tier cannot
    /// hide, reported as the `Err` reason of a
    /// [`Response::DatasetUnavailable`].
    fn restore_evicted(&self, name: &str) -> Result<ResidentDataset, String> {
        let Some(dir) = self
            .snapshot_dir
            .read()
            .expect("snapshot dir lock poisoned")
            .clone()
        else {
            return Err("evicted, and this server has no --snapshot-dir to restore from".into());
        };
        let path = Self::snapshot_path(&dir, name);
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        match EclipseEngine::from_snapshot(&bytes) {
            Ok((label, engine)) if label == name => {
                let engine = engine.with_execution_context(self.exec.clone());
                Ok(ResidentDataset {
                    saved: Some(engine.epoch()),
                    engine: Arc::new(engine),
                })
            }
            Ok((label, _)) => Err(format!(
                "{}: holds dataset {label:?}, not {name:?}",
                path.display()
            )),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Runs `f` against the named dataset's resident state, restoring it
    /// first when evicted; the slot's state lock is held across `f`, so use
    /// this for operations that must exclude eviction (mutations, snapshot
    /// writes) and [`ServerState::engine`] for read-only query traffic.
    fn with_resident<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Residency, Arc<EclipseEngine>) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let slot = self.slot(name)?;
        self.touch(&slot);
        let (result, reloaded) = {
            let mut st = slot.state.lock().expect("dataset slot poisoned");
            let reloaded = matches!(&*st, Residency::Evicted(_));
            let engine = self.make_resident(&slot, &mut st)?;
            (f(&mut st, engine), reloaded)
        };
        if reloaded {
            self.enforce_budget(Some(name));
        }
        result
    }

    /// The named dataset's engine for query traffic: touches the LRU stamp,
    /// restores the dataset if evicted, and holds the slot lock only long
    /// enough to clone the engine handle.
    fn engine(&self, name: &str) -> Result<Arc<EclipseEngine>, ServeError> {
        self.with_resident(name, |_, engine| Ok(engine))
    }

    /// Evicts resident datasets — coldest first, never `protect` — until the
    /// accounted total fits the budget or nothing evictable remains.  Dirty
    /// datasets (mutated or re-indexed since their last snapshot) are
    /// snapshotted before the engine is dropped, so eviction never loses an
    /// acknowledged mutation; a dataset that cannot be snapshotted (no
    /// snapshot directory, disk error) stops the pass rather than discarding
    /// state.
    ///
    /// Callers must not hold any slot's state lock (the pass takes them).
    fn enforce_budget(&self, protect: Option<&str>) {
        let Some(budget) = self.memory_budget else {
            return;
        };
        let _guard = self.evict_guard.lock().expect("evict guard poisoned");
        loop {
            let slots: Vec<Arc<DatasetSlot>> = self
                .datasets
                .read()
                .expect("dataset registry poisoned")
                .values()
                .cloned()
                .collect();
            let mut total: u64 = 0;
            let mut victim: Option<(u64, Arc<DatasetSlot>)> = None;
            for slot in &slots {
                let st = slot.state.lock().expect("dataset slot poisoned");
                if let Residency::Resident(r) = &*st {
                    total += r.engine.heap_bytes() as u64;
                    if protect != Some(slot.name.as_str()) {
                        let stamp = slot.last_used.load(Ordering::Relaxed);
                        if victim.as_ref().is_none_or(|(s, _)| stamp < *s) {
                            victim = Some((stamp, Arc::clone(slot)));
                        }
                    }
                }
            }
            if total <= budget {
                return;
            }
            let Some((_, victim)) = victim else {
                return;
            };
            if self.evict_slot(&victim).is_err() {
                return;
            }
        }
    }

    /// Snapshots (if dirty) and evicts one dataset.  Holding the slot's
    /// state lock across save-and-swap excludes concurrent mutations, so the
    /// file on disk is guaranteed to hold the dataset's final epoch.
    fn evict_slot(&self, slot: &DatasetSlot) -> Result<(), EclipseError> {
        let mut st = slot.state.lock().expect("dataset slot poisoned");
        let Residency::Resident(r) = &mut *st else {
            return Ok(());
        };
        let epoch = r.engine.epoch();
        // Snapshot unless the file already holds this epoch; with no index
        // warm for the current epoch (possible after mutations left only a
        // stale one), `save_snapshot` builds it.
        if r.saved != Some(epoch) {
            self.write_snapshot(&r.engine, &slot.name)?;
            r.saved = Some(epoch);
        }
        let index = r.engine.cached_index();
        let (skyline_len, intersections) = index
            .as_ref()
            .map(|i| (i.skyline_len() as u64, i.num_intersections() as u64))
            .unwrap_or((0, 0));
        let stats = EvictedStats {
            points: r.engine.len() as u64,
            dim: r.engine.dim() as u32,
            skyline_len,
            intersections,
            built: index.is_some(),
            epoch,
        };
        *st = Residency::Evicted(stats);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Builds an engine over `points`, warms the requested index, and
    /// registers it under `name` (replacing any previous dataset of that
    /// name once the new one is fully warm).
    fn register(
        &self,
        name: &str,
        points: Vec<Point>,
        warm: IndexKind,
    ) -> Result<DatasetSummary, EclipseError> {
        for p in &points {
            if p.coords().iter().any(|c| !c.is_finite()) {
                return Err(EclipseError::Unsupported(
                    "dataset coordinates must be finite".to_string(),
                ));
            }
        }
        let engine =
            Arc::new(EclipseEngine::new(points)?.with_execution_context(self.exec.clone()));
        let index = engine.build_index(warm.into())?;
        let summary = DatasetSummary {
            points: engine.len() as u64,
            dim: engine.dim() as u32,
            skyline_len: index.skyline_len() as u64,
            intersections: index.num_intersections() as u64,
        };
        let slot = Arc::new(DatasetSlot {
            name: name.to_string(),
            last_used: AtomicU64::new(0),
            state: Mutex::new(Residency::Resident(ResidentDataset {
                engine,
                saved: None,
            })),
        });
        self.touch(&slot);
        self.datasets
            .write()
            .expect("dataset registry poisoned")
            .insert(name.to_string(), slot);
        self.enforce_budget(Some(name));
        Ok(summary)
    }

    /// Answers one decoded request.  Infallible by construction: every
    /// failure becomes a [`Response::Error`], so the connection stays alive.
    pub(crate) fn respond(&self, request: Request) -> Response {
        let result = match request {
            Request::Hello { .. } => Err(ServeError::Engine(EclipseError::Unsupported(
                "Hello must be the first frame of a connection".to_string(),
            ))),
            Request::Ping => Ok(Response::Pong),
            Request::LoadDataset {
                name,
                dim,
                coords,
                warm,
            } => self.load_dataset(&name, dim, coords, warm),
            Request::BuildIndex { name, kind } => self.build_index(&name, kind),
            Request::QueryBatch { name, boxes } => self.query_batch(&name, &boxes),
            Request::CountBatch { name, boxes } => self.count_batch(&name, &boxes),
            Request::SaveIndex { name, .. } => self.save_index(&name),
            Request::RestoreIndex { name, kind } => self.restore_index(&name, kind),
            Request::LoadSnapshots => self
                .load_snapshots()
                .map(|scan| Response::SnapshotsLoaded {
                    restored: scan.restored,
                    skipped: scan
                        .skipped
                        .into_iter()
                        .map(|(path, e)| (path.display().to_string(), e.to_string()))
                        .collect(),
                })
                .map_err(ServeError::from),
            // A single-process server always answers with complete results;
            // the ack still matters so a router (which *can* degrade) and a
            // plain server present one contract to opted-in clients.
            Request::AllowPartial { enabled } => Ok(Response::PartialAck { enabled }),
            Request::Stats => Ok(Response::Stats(self.stats())),
            Request::Insert { name, coords } => self.insert(&name, coords),
            Request::Delete { name, id } => self.delete(&name, id),
        };
        result.unwrap_or_else(|e| {
            self.errors.fetch_add(1, Ordering::Relaxed);
            match e {
                ServeError::Typed(response) => *response,
                ServeError::Engine(e) => Response::Error(e.to_string()),
            }
        })
    }

    fn load_dataset(
        &self,
        name: &str,
        dim: u32,
        coords: Vec<f64>,
        warm: IndexKind,
    ) -> Result<Response, ServeError> {
        let dim = dim as usize;
        if dim == 0 || !coords.len().is_multiple_of(dim) {
            return Err(EclipseError::Unsupported(format!(
                "{} coordinates do not form points of dimension {dim}",
                coords.len()
            ))
            .into());
        }
        let points: Vec<Point> = coords.chunks_exact(dim).map(Point::from_slice).collect();
        Ok(Response::DatasetLoaded(self.register(name, points, warm)?))
    }

    fn build_index(&self, name: &str, kind: IndexKind) -> Result<Response, ServeError> {
        let engine = self.engine(name)?;
        let index = engine.build_index(kind.into())?;
        // A build after mutations left only a stale index grows the
        // footprint; re-check the budget (the fresh build is protected as
        // most-recently-used).
        self.enforce_budget(Some(name));
        Ok(Response::IndexBuilt(index_summary(kind, &index)))
    }

    fn insert(&self, name: &str, coords: Vec<f64>) -> Result<Response, ServeError> {
        if coords.iter().any(|c| !c.is_finite()) {
            return Err(EclipseError::Unsupported(
                "inserted coordinates must be finite".to_string(),
            )
            .into());
        }
        // Mutations run under the slot's state lock so eviction can never
        // snapshot-and-drop a dataset between a mutation's apply and its
        // acknowledgement.
        let summary = self.with_resident(name, |_, engine| {
            engine.insert(Point::new(coords)).map_err(ServeError::from)
        })?;
        // A mutation can grow the dataset past the budget.
        self.enforce_budget(Some(name));
        Ok(Response::Mutated {
            kind: summary.outcome.into(),
            epoch: summary.epoch,
            len: summary.len as u64,
        })
    }

    fn delete(&self, name: &str, id: u64) -> Result<Response, ServeError> {
        let id = usize::try_from(id)
            .map_err(|_| EclipseError::Unsupported(format!("delete id {id} overflows usize")))?;
        let summary = self.with_resident(name, |_, engine| {
            engine.delete(id).map_err(ServeError::from)
        })?;
        self.enforce_budget(Some(name));
        Ok(Response::Mutated {
            kind: summary.outcome.into(),
            epoch: summary.epoch,
            len: summary.len as u64,
        })
    }

    fn parse_boxes(wire: &[WireBox]) -> Result<Vec<WeightRatioBox>, EclipseError> {
        wire.iter()
            .map(|b| WeightRatioBox::from_bounds(b))
            .collect()
    }

    fn query_batch(&self, name: &str, wire: &[WireBox]) -> Result<Response, ServeError> {
        let engine = self.engine(name)?;
        let boxes = Self::parse_boxes(wire)?;
        let results = engine.eclipse_query_batch(&boxes, &QueryOptions::default())?;
        self.query_batches.fetch_add(1, Ordering::Relaxed);
        self.probes.fetch_add(boxes.len() as u64, Ordering::Relaxed);
        Ok(Response::QueryResults(
            results
                .into_iter()
                .map(|ids| ids.into_iter().map(|i| i as u64).collect())
                .collect(),
        ))
    }

    fn count_batch(&self, name: &str, wire: &[WireBox]) -> Result<Response, ServeError> {
        let engine = self.engine(name)?;
        let boxes = Self::parse_boxes(wire)?;
        let counts = engine.eclipse_count_batch(&boxes, &QueryOptions::default())?;
        self.count_batches.fetch_add(1, Ordering::Relaxed);
        self.probes.fetch_add(boxes.len() as u64, Ordering::Relaxed);
        Ok(Response::Counts(
            counts.into_iter().map(|c| c as u64).collect(),
        ))
    }

    /// The on-disk file a dataset snapshots to.  The dataset name
    /// is sanitized for the filesystem — and when sanitization had to change
    /// anything, a hash of the raw name is appended so distinct names (e.g.
    /// `a/b` vs `a_b`) can never collide onto one file.  The authoritative
    /// name lives inside the snapshot and is re-read on
    /// [`ServerState::load_snapshots`].
    fn snapshot_path(dir: &std::path::Path, name: &str) -> PathBuf {
        let safe: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let disambiguator = if safe == name {
            String::new()
        } else {
            format!("-{:08x}", eclipse_persist::fnv1a(name.as_bytes()) as u32)
        };
        dir.join(format!("{safe}{disambiguator}.eclsnap"))
    }

    /// Encodes and atomically writes one snapshot file, returning its size.
    fn write_snapshot(&self, engine: &EclipseEngine, name: &str) -> Result<u64, EclipseError> {
        let dir = self.snapshot_dir()?;
        let bytes = engine.save_snapshot(name, Default::default())?;
        std::fs::create_dir_all(&dir)
            .map_err(|e| EclipseError::Snapshot(format!("create {}: {e}", dir.display())))?;
        let path = Self::snapshot_path(&dir, name);
        // Write-then-rename so a crash mid-save can never leave a truncated
        // file at the canonical name (a torn snapshot would otherwise be
        // skipped — loudly — by every later warm restart).  The temp name is
        // unique per save so concurrent SaveIndex calls cannot interleave
        // into each other's half-written file.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &bytes)
            .map_err(|e| EclipseError::Snapshot(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| EclipseError::Snapshot(format!("rename to {}: {e}", path.display())))?;
        Ok(bytes.len() as u64)
    }

    fn save_index(&self, name: &str) -> Result<Response, ServeError> {
        // Under the state lock mutations are excluded, so the epoch recorded
        // against the written file is exactly the epoch inside it.
        self.with_resident(name, |st, engine| {
            let bytes = self.write_snapshot(&engine, name)?;
            if let Residency::Resident(r) = st {
                r.saved = Some(engine.epoch());
            }
            Ok(Response::SnapshotSaved { bytes })
        })
    }

    fn restore_index(&self, name: &str, kind: IndexKind) -> Result<Response, ServeError> {
        self.with_resident(name, |st, engine| {
            let dir = self.snapshot_dir()?;
            let path = Self::snapshot_path(&dir, name);
            let bytes = std::fs::read(&path)
                .map_err(|e| EclipseError::Snapshot(format!("read {}: {e}", path.display())))?;
            let index = engine.restore_index_snapshot(&bytes)?;
            // The file just proved it matches the current dataset bits and
            // epoch, so the on-disk copy is clean.
            if let Residency::Resident(r) = st {
                r.saved = Some(engine.epoch());
            }
            Ok(Response::IndexBuilt(index_summary(kind, &index)))
        })
    }

    /// Scans the snapshot directory and registers every `*.eclsnap` file —
    /// the warm-restart path: datasets and their built indexes come back
    /// without paying construction cost or needing `LoadDataset` traffic.
    /// A snapshot of an already-resident dataset is restored into the
    /// existing engine after the same dataset-identity validation the wire
    /// path uses; the label is peeked cheaply first so each file is fully
    /// decoded exactly once.
    ///
    /// Restoration is per-file fault-tolerant: a corrupt, stale or
    /// inconsistent snapshot is **skipped** (reported in
    /// [`SnapshotScan::skipped`]) instead of aborting the scan — one bad
    /// file must not keep every healthy dataset from coming back.
    fn load_snapshots(&self) -> Result<SnapshotScan, EclipseError> {
        let dir = self.snapshot_dir()?;
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| EclipseError::Snapshot(format!("read {}: {e}", dir.display())))?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "eclsnap"))
            .collect();
        paths.sort();
        let mut scan = SnapshotScan::default();
        for path in paths {
            match self.load_one_snapshot(&path) {
                Ok(entry) => scan.restored.push(entry),
                Err(e) => scan.skipped.push((path, e)),
            }
        }
        // The scan may have restored far more than the budget holds; evict
        // back down (everything just restored is clean, so no re-writes).
        self.enforce_budget(None);
        Ok(scan)
    }

    /// Restores one snapshot file into the registry (see
    /// [`ServerState::load_snapshots`]).
    fn load_one_snapshot(
        &self,
        path: &std::path::Path,
    ) -> Result<(String, DatasetSummary), EclipseError> {
        let bytes = std::fs::read(path)
            .map_err(|e| EclipseError::Snapshot(format!("read {}: {e}", path.display())))?;
        let label = EclipseEngine::snapshot_label(&bytes)?;
        let existing = self
            .datasets
            .read()
            .expect("dataset registry poisoned")
            .get(&label)
            .cloned();
        let decode_fresh = |bytes: &[u8]| -> Result<ResidentDataset, EclipseError> {
            let (_, decoded) = EclipseEngine::from_snapshot(bytes)?;
            // The file is, by construction, the on-disk state for its epoch.
            Ok(ResidentDataset {
                saved: Some(decoded.epoch()),
                engine: Arc::new(decoded.with_execution_context(self.exec.clone())),
            })
        };
        let engine = match existing {
            Some(slot) => {
                self.touch(&slot);
                let mut st = slot.state.lock().expect("dataset slot poisoned");
                match &mut *st {
                    Residency::Resident(r) => {
                        // A snapshot of a resident dataset restores into its
                        // engine instead of replacing it, after the same
                        // identity validation the wire path uses.
                        r.engine.restore_index_snapshot(&bytes)?;
                        r.saved = Some(r.engine.epoch());
                        Arc::clone(&r.engine)
                    }
                    Residency::Evicted(_) => {
                        let restored = decode_fresh(&bytes)?;
                        let engine = Arc::clone(&restored.engine);
                        *st = Residency::Resident(restored);
                        self.reloads.fetch_add(1, Ordering::Relaxed);
                        engine
                    }
                }
            }
            None => {
                let restored = decode_fresh(&bytes)?;
                let engine = Arc::clone(&restored.engine);
                let slot = Arc::new(DatasetSlot {
                    name: label.clone(),
                    last_used: AtomicU64::new(0),
                    state: Mutex::new(Residency::Resident(restored)),
                });
                self.touch(&slot);
                self.datasets
                    .write()
                    .expect("dataset registry poisoned")
                    .insert(label.clone(), slot);
                engine
            }
        };
        let index = engine
            .cached_index()
            .expect("a restored engine has a cached index");
        Ok((
            label,
            DatasetSummary {
                points: engine.len() as u64,
                dim: engine.dim() as u32,
                skyline_len: index.skyline_len() as u64,
                intersections: index.num_intersections() as u64,
            },
        ))
    }

    fn stats(&self) -> StatsReport {
        // Snapshot the registry first: the per-dataset numbers below sweep
        // whole index slabs, which must not happen under the read lock (it
        // would block concurrent dataset registrations for the duration).
        // Stats never restores an evicted dataset (it reports the summary
        // captured at eviction) and never touches the LRU stamps — a
        // monitoring poll must not perturb eviction order.
        let snapshot: Vec<Arc<DatasetSlot>> = self
            .datasets
            .read()
            .expect("dataset registry poisoned")
            .values()
            .cloned()
            .collect();
        let mut total_bytes: u64 = 0;
        let mut datasets: Vec<DatasetStats> = Vec::with_capacity(snapshot.len());
        for slot in &snapshot {
            // Clone what we need under the slot lock, then compute outside
            // it so a long slab sweep never blocks mutations or eviction.
            enum Row {
                Engine(Arc<EclipseEngine>),
                Summary(EvictedStats),
            }
            let row = {
                let st = slot.state.lock().expect("dataset slot poisoned");
                match &*st {
                    Residency::Resident(r) => Row::Engine(Arc::clone(&r.engine)),
                    Residency::Evicted(stats) => Row::Summary(stats.clone()),
                }
            };
            datasets.push(match row {
                Row::Engine(engine) => {
                    let index = engine.cached_index();
                    let (skyline_len, intersections, root_crossings) = match &index {
                        Some(idx) => {
                            // Counted over the live skyline.
                            let root = WeightRatioBox::uniform(
                                engine.dim(),
                                0.0,
                                CROSSING_REGION_MAX_RATIO,
                            )
                            .and_then(|b| idx.intersections_crossing(&b))
                            .unwrap_or(0);
                            (idx.skyline_len(), idx.num_intersections(), root)
                        }
                        None => (0, 0, 0),
                    };
                    let bytes = engine.heap_bytes() as u64;
                    total_bytes += bytes;
                    DatasetStats {
                        name: slot.name.clone(),
                        points: engine.len() as u64,
                        dim: engine.dim() as u32,
                        skyline_len: skyline_len as u64,
                        intersections: intersections as u64,
                        root_crossings: root_crossings as u64,
                        quad_built: index.is_some(),
                        cutting_built: index.is_some(),
                        epoch: engine.epoch(),
                        bytes,
                        resident: true,
                    }
                }
                Row::Summary(s) => DatasetStats {
                    name: slot.name.clone(),
                    points: s.points,
                    dim: s.dim,
                    skyline_len: s.skyline_len,
                    intersections: s.intersections,
                    // Computing crossings needs the slab; evicted rows
                    // report 0 rather than paying a restore.
                    root_crossings: 0,
                    quad_built: s.built,
                    cutting_built: s.built,
                    epoch: s.epoch,
                    bytes: 0,
                    resident: false,
                },
            });
        }
        datasets.sort_by(|a, b| a.name.cmp(&b.name));
        let mut conn_queue_depths: Vec<u32> = self
            .conn_gauges
            .lock()
            .expect("conn gauge registry poisoned")
            .values()
            .map(|gauge| gauge.load(Ordering::Relaxed))
            .collect();
        conn_queue_depths.sort_unstable_by(|a, b| b.cmp(a));
        StatsReport {
            query_batches: self.query_batches.load(Ordering::Relaxed),
            count_batches: self.count_batches.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            conn_queue_depths,
            total_bytes,
            memory_budget: self.memory_budget.unwrap_or(0),
            evictions: self.evictions.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            datasets,
        }
    }
}

/// Outcome of a snapshot-directory scan ([`Server::load_snapshots`]): what
/// came back, and which files were skipped with which error.
#[derive(Debug, Default)]
pub struct SnapshotScan {
    /// `(dataset name, summary)` per successfully restored snapshot, in
    /// deterministic (path-sorted) order.
    pub restored: Vec<(String, DatasetSummary)>,
    /// Snapshot files that could not be restored — corrupt, stale, or
    /// inconsistent with an already-restored dataset — each with its typed
    /// error.  Skipping them keeps one bad file from taking every healthy
    /// dataset down with it.
    pub skipped: Vec<(PathBuf, EclipseError)>,
}

/// Tuning knobs of the serving core ([`Server::bind_with_config`]).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Per-connection in-flight cap: the largest pipeline depth a `Hello`
    /// can negotiate.  Requests over the cap are answered with
    /// [`Response::Overloaded`].
    pub max_pipeline: u32,
    /// Global in-flight cap across all connections; requests over it are
    /// answered with [`Response::Overloaded`].
    pub max_in_flight: u32,
    /// Most connections held open at once; beyond it, accepting pauses.
    pub max_connections: usize,
    /// Dispatcher worker threads executing requests (0 = one per thread of
    /// the server's [`ExecutionContext`]).
    pub workers: usize,
    /// How long a graceful shutdown waits for admitted requests to finish
    /// and their responses to flush before giving up.
    pub drain_timeout: Duration,
    /// Answer cheap requests on the loop thread when the server is
    /// otherwise idle (skips two thread handoffs per round trip).  On by
    /// default; tests disable it to force every request through the
    /// dispatcher queue.
    pub inline_fast_path: bool,
    /// Half-open hygiene: a connection that completes the TCP accept but
    /// never delivers its *first* frame within this window is reaped, so a
    /// peer that connects and goes silent cannot hold an event-loop slot
    /// (of [`ServerConfig::max_connections`]) forever.  Connections that
    /// have sent at least one complete frame are never idle-reaped — a
    /// quiet but established client keeps its connection.  `None` disables
    /// reaping.
    pub idle_timeout: Option<Duration>,
    /// Global memory budget, in bytes, over the accounted heap bytes of all
    /// resident datasets.  When an admission (load, snapshot restore, index
    /// build, eviction reload) or a mutation pushes the total over the
    /// budget, the
    /// coldest datasets are snapshotted-if-dirty and evicted until it fits
    /// again; evicted datasets restore transparently on their next request.
    /// Eviction requires a snapshot directory: [`Server::spawn`] and
    /// [`Server::run`] refuse a budget without one
    /// ([`Server::set_snapshot_dir`]).  `None` (default) disables the
    /// budget.
    pub max_memory_bytes: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_pipeline: 128,
            max_in_flight: 1024,
            max_connections: 1024,
            workers: 0,
            drain_timeout: Duration::from_secs(5),
            inline_fast_path: true,
            idle_timeout: Some(Duration::from_secs(30)),
            max_memory_bytes: None,
        }
    }
}

/// A bound (but not yet serving) eclipse server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    config: ServerConfig,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) with the default
    /// [`ServerConfig`].  All engines registered on this server share
    /// `exec`'s thread pool.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn bind(addr: impl ToSocketAddrs, exec: ExecutionContext) -> io::Result<Server> {
        Server::bind_with_config(addr, exec, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit flow-control tuning.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn bind_with_config(
        addr: impl ToSocketAddrs,
        exec: ExecutionContext,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let mut state = ServerState::new(exec);
        state.memory_budget = config.max_memory_bytes;
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(state),
            config,
        })
    }

    /// The address the server is bound to.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Points the snapshot surface (`SaveIndex`/`RestoreIndex` and
    /// [`Server::load_snapshots`]) at a directory.  Without one, snapshot
    /// requests answer with an error response.
    pub fn set_snapshot_dir(&self, dir: impl Into<PathBuf>) {
        *self
            .state
            .snapshot_dir
            .write()
            .expect("snapshot dir lock poisoned") = Some(dir.into());
    }

    /// Scans the snapshot directory and registers every stored dataset with
    /// its built index — the warm-restart path, paying decode cost instead
    /// of index construction.  Unrestorable files (corrupt, stale,
    /// inconsistent) are skipped and reported in [`SnapshotScan::skipped`]
    /// rather than aborting the scan, so one bad file cannot keep the
    /// healthy datasets from coming back.
    ///
    /// # Errors
    /// [`EclipseError::Unsupported`] without a snapshot directory;
    /// [`EclipseError::Snapshot`] when the directory itself is unreadable.
    pub fn load_snapshots(&self) -> Result<SnapshotScan, EclipseError> {
        self.state.load_snapshots()
    }

    /// Registers a dataset in-process (the binary's `--preload` and the
    /// bench harness use this; remote clients use [`Request::LoadDataset`]).
    ///
    /// # Errors
    /// Propagates engine/index construction errors.
    pub fn register_dataset(
        &self,
        name: &str,
        points: Vec<Point>,
        warm: IndexKind,
    ) -> Result<DatasetSummary, EclipseError> {
        self.state.register(name, points, warm)
    }

    /// A memory budget is enforced by evicting datasets into snapshots, so
    /// it needs a snapshot directory; without one it would silently never
    /// evict.
    fn check_budget(&self) -> io::Result<()> {
        if self.config.max_memory_bytes.is_some() && self.state.snapshot_dir().is_err() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a memory budget (max_memory_bytes) requires a snapshot directory: \
                 eviction persists datasets as snapshots",
            ));
        }
        Ok(())
    }

    /// Serves connections forever on the calling thread (the binary's main
    /// loop).
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] for a memory budget without a
    /// snapshot directory; otherwise propagates socket setup errors.
    pub fn run(self) -> io::Result<()> {
        self.check_budget()?;
        self.listener.set_nonblocking(true)?;
        let event_loop = EventLoop::new(self.listener, self.state, self.config);
        event_loop.run(&AtomicBool::new(false), &AtomicBool::new(false));
        Ok(())
    }

    /// Serves connections on a background event-loop thread and returns a
    /// handle that drains and shuts the server down when dropped — the
    /// in-process flavour tests and benches use.
    ///
    /// # Errors
    /// As [`Server::run`].
    pub fn spawn(self) -> io::Result<ServerHandle> {
        self.check_budget()?;
        let addr = self.local_addr()?;
        self.listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let hard_stop = Arc::new(AtomicBool::new(false));
        let event_loop = EventLoop::new(self.listener, self.state, self.config);
        let (loop_stop, loop_hard) = (Arc::clone(&stop), Arc::clone(&hard_stop));
        let thread = std::thread::spawn(move || event_loop.run(&loop_stop, &loop_hard));
        let loop_thread = thread.thread().clone();
        Ok(ServerHandle {
            addr,
            stop,
            hard_stop,
            loop_thread,
            thread: Some(thread),
        })
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .finish()
    }
}

/// Handle to a server spawned with [`Server::spawn`].
///
/// [`ServerHandle::shutdown`] (and drop) stop the server **gracefully**: the
/// listener closes, admitted requests finish, their responses flush, and
/// only then does the event loop exit (bounded by
/// [`ServerConfig::drain_timeout`]).  [`ServerHandle::abort`] skips the
/// drain — sockets close immediately and queued work is dropped.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    hard_stop: Arc<AtomicBool>,
    loop_thread: std::thread::Thread,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gracefully stops the server: stop accepting, drain in-flight
    /// requests, flush responses, then join the event-loop thread.
    pub fn shutdown(mut self) {
        self.stop_and_join(false);
    }

    /// Hard-stops the server: close every socket immediately, dropping
    /// queued requests and un-flushed responses.  Clients observe the
    /// connection closing mid-conversation — the failure-injection path the
    /// disconnect tests use.
    pub fn abort(mut self) {
        self.stop_and_join(true);
    }

    fn stop_and_join(&mut self, hard: bool) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        if hard {
            self.hard_stop.store(true, Ordering::SeqCst);
        }
        self.stop.store(true, Ordering::SeqCst);
        // The loop may be parked in its idle backoff; wake it.
        self.loop_thread.unpark();
        let _ = thread.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_coords() -> Vec<f64> {
        vec![1.0, 6.0, 4.0, 4.0, 6.0, 1.0, 8.0, 5.0]
    }

    fn loaded_state() -> ServerState {
        let state = ServerState::new(ExecutionContext::serial());
        let resp = state.respond(Request::LoadDataset {
            name: "hotels".to_string(),
            dim: 2,
            coords: paper_coords(),
            warm: IndexKind::Quadtree,
        });
        assert!(matches!(resp, Response::DatasetLoaded(_)), "{resp:?}");
        state
    }

    #[test]
    fn load_warms_the_index_and_reports_sizes() {
        let state = loaded_state();
        let Response::Stats(report) = state.respond(Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(report.datasets.len(), 1);
        let d = &report.datasets[0];
        assert_eq!((d.points, d.dim), (4, 2));
        assert_eq!(d.skyline_len, 3);
        assert_eq!(d.intersections, 3);
        // Both flags report the one index.
        assert!(d.quad_built && d.cutting_built);
        assert!(d.root_crossings <= d.intersections);
    }

    #[test]
    fn query_and_count_batches_answer_the_paper_example() {
        let state = loaded_state();
        let boxes = vec![vec![(0.25, 2.0)], vec![(2.0, 2.0)]];
        let resp = state.respond(Request::QueryBatch {
            name: "hotels".to_string(),
            boxes: boxes.clone(),
        });
        assert_eq!(resp, Response::QueryResults(vec![vec![0, 1, 2], vec![0]]));
        let resp = state.respond(Request::CountBatch {
            name: "hotels".to_string(),
            boxes,
        });
        assert_eq!(resp, Response::Counts(vec![3, 1]));
        let Response::Stats(report) = state.respond(Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(report.query_batches, 1);
        assert_eq!(report.count_batches, 1);
        assert_eq!(report.probes, 4);
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn failures_become_error_responses_and_count() {
        let state = loaded_state();
        // Unknown dataset.
        let resp = state.respond(Request::QueryBatch {
            name: "nope".to_string(),
            boxes: vec![vec![(0.5, 1.0)]],
        });
        assert!(matches!(resp, Response::Error(m) if m.contains("unknown dataset")));
        // Invalid range (lo > hi).
        let resp = state.respond(Request::QueryBatch {
            name: "hotels".to_string(),
            boxes: vec![vec![(2.0, 0.5)]],
        });
        assert!(matches!(resp, Response::Error(_)));
        // Mismatched coordinate count.
        let resp = state.respond(Request::LoadDataset {
            name: "bad".to_string(),
            dim: 3,
            coords: vec![1.0, 2.0],
            warm: IndexKind::Quadtree,
        });
        assert!(matches!(resp, Response::Error(_)));
        // Non-finite coordinates are rejected at the boundary.
        let resp = state.respond(Request::LoadDataset {
            name: "bad".to_string(),
            dim: 2,
            coords: vec![1.0, f64::NAN],
            warm: IndexKind::Quadtree,
        });
        assert!(matches!(resp, Response::Error(m) if m.contains("finite")));
        let Response::Stats(report) = state.respond(Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(report.errors, 4);
        assert_eq!(report.datasets.len(), 1, "failed loads register nothing");
    }

    #[test]
    fn mutations_maintain_results_and_bump_the_stats_epoch() {
        let state = loaded_state();
        // A skyline-entering insert: (2.0, 3.0) dominates (4.0, 4.0).
        let resp = state.respond(Request::Insert {
            name: "hotels".to_string(),
            coords: vec![2.0, 3.0],
        });
        assert_eq!(
            resp,
            Response::Mutated {
                kind: crate::protocol::MutationKind::InsertedSkyline,
                epoch: 1,
                len: 5,
            }
        );
        // Delete the evicted point (id 1 = (4.0, 4.0), now non-skyline).
        let resp = state.respond(Request::Delete {
            name: "hotels".to_string(),
            id: 1,
        });
        assert_eq!(
            resp,
            Response::Mutated {
                kind: crate::protocol::MutationKind::DeletedNonSkyline,
                epoch: 2,
                len: 4,
            }
        );
        // Queries answer over the mutated dataset (ids shifted down): the
        // inserted (2.0, 3.0) eclipse-dominates (1.0, 6.0) over the whole
        // box, leaving (6.0, 1.0) (id 1) and itself (id 3).
        let resp = state.respond(Request::QueryBatch {
            name: "hotels".to_string(),
            boxes: vec![vec![(0.25, 2.0)]],
        });
        assert_eq!(resp, Response::QueryResults(vec![vec![1, 3]]));
        let Response::Stats(report) = state.respond(Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(report.datasets[0].epoch, 2);
        assert_eq!(report.datasets[0].points, 4);
        // Mutation failures are error responses: bad dim, bad id, NaN.
        for req in [
            Request::Insert {
                name: "hotels".to_string(),
                coords: vec![1.0, 2.0, 3.0],
            },
            Request::Insert {
                name: "hotels".to_string(),
                coords: vec![1.0, f64::NAN],
            },
            Request::Delete {
                name: "hotels".to_string(),
                id: 99,
            },
            Request::Delete {
                name: "nope".to_string(),
                id: 0,
            },
        ] {
            let resp = state.respond(req);
            assert!(matches!(resp, Response::Error(_)), "{resp:?}");
        }
    }

    #[test]
    fn stats_after_a_skyline_insert_match_a_rebuilt_dataset() {
        // A skyline-entering insert leaves the cached index carrying a
        // live-skyline overlay; Stats must report the live skyline exactly
        // as a dataset loaded from the mutated points does.
        let mut coords: Vec<f64> = (0..300u64)
            .map(|i| ((i * 7919 + 13) % 1000) as f64 / 1000.0)
            .collect();
        let state = ServerState::new(ExecutionContext::serial());
        let load = |name: &str, coords: &[f64]| {
            let resp = state.respond(Request::LoadDataset {
                name: name.to_string(),
                dim: 3,
                coords: coords.to_vec(),
                warm: IndexKind::Quadtree,
            });
            assert!(matches!(resp, Response::DatasetLoaded(_)), "{resp:?}");
        };
        load("live", &coords);
        let engine = state.engine("live").ok().unwrap();
        let member = engine.skyline()[0];
        let mut entrant = engine.points()[member].coords().to_vec();
        entrant[0] -= 1e-3;
        let resp = state.respond(Request::Insert {
            name: "live".to_string(),
            coords: entrant.clone(),
        });
        assert!(
            matches!(
                resp,
                Response::Mutated {
                    kind: crate::protocol::MutationKind::InsertedSkyline,
                    ..
                }
            ),
            "{resp:?}"
        );
        let index = engine.cached_index().unwrap();
        assert!(index.overlay_rows() > 0, "the insert must leave an overlay");
        coords.extend_from_slice(&entrant);
        load("rebuilt", &coords);
        let Response::Stats(report) = state.respond(Request::Stats) else {
            panic!("expected stats");
        };
        let row = |name: &str| {
            let d = report.datasets.iter().find(|d| d.name == name).unwrap();
            (
                d.points,
                d.dim,
                d.skyline_len,
                d.intersections,
                d.root_crossings,
                d.quad_built,
                d.cutting_built,
            )
        };
        assert_eq!(row("live"), row("rebuilt"));
    }

    #[test]
    fn build_index_adds_the_second_backend() {
        let state = loaded_state();
        let resp = state.respond(Request::BuildIndex {
            name: "hotels".to_string(),
            kind: IndexKind::CuttingTree,
        });
        let Response::IndexBuilt(summary) = resp else {
            panic!("expected index summary");
        };
        assert_eq!(summary.kind, IndexKind::CuttingTree);
        assert_eq!(summary.skyline_len, 3);
        // No tree exists: the v2 summary layout reports 0 nodes and depth.
        assert_eq!((summary.nodes, summary.depth), (0, 0));
        let Response::Stats(report) = state.respond(Request::Stats) else {
            panic!("expected stats");
        };
        assert!(report.datasets[0].cutting_built);
    }

    #[test]
    fn reloading_a_dataset_replaces_it() {
        let state = loaded_state();
        let resp = state.respond(Request::LoadDataset {
            name: "hotels".to_string(),
            dim: 2,
            coords: vec![1.0, 1.0, 2.0, 2.0],
            warm: IndexKind::CuttingTree,
        });
        let Response::DatasetLoaded(summary) = resp else {
            panic!("expected load ack");
        };
        assert_eq!(summary.points, 2);
        let resp = state.respond(Request::QueryBatch {
            name: "hotels".to_string(),
            boxes: vec![vec![(0.5, 2.0)]],
        });
        assert_eq!(resp, Response::QueryResults(vec![vec![0]]));
    }

    #[test]
    fn ping_pongs() {
        let state = ServerState::new(ExecutionContext::serial());
        assert_eq!(state.respond(Request::Ping), Response::Pong);
    }

    /// RAII temp directory for the snapshot tests.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let mut path = std::env::temp_dir();
            path.push(format!("eclipse_serve_{}_{name}", std::process::id()));
            std::fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn save_and_restore_round_trip_through_the_state() {
        let dir = TempDir::new("roundtrip");
        let state = loaded_state();
        // Without a snapshot dir, the surface answers errors.
        let resp = state.respond(Request::SaveIndex {
            name: "hotels".to_string(),
            kind: IndexKind::Quadtree,
        });
        assert!(matches!(resp, Response::Error(m) if m.contains("--snapshot-dir")),);
        *state.snapshot_dir.write().unwrap() = Some(dir.0.clone());

        let resp = state.respond(Request::SaveIndex {
            name: "hotels".to_string(),
            kind: IndexKind::Quadtree,
        });
        let Response::SnapshotSaved { bytes } = resp else {
            panic!("expected a snapshot ack, got {resp:?}");
        };
        assert!(bytes > 0);
        assert!(dir.0.join("hotels.eclsnap").exists());

        // Restore into a fresh state that re-registered the same dataset.
        let fresh = loaded_state();
        *fresh.snapshot_dir.write().unwrap() = Some(dir.0.clone());
        let resp = fresh.respond(Request::RestoreIndex {
            name: "hotels".to_string(),
            kind: IndexKind::Quadtree,
        });
        let Response::IndexBuilt(summary) = resp else {
            panic!("expected an index ack, got {resp:?}");
        };
        assert_eq!(summary.kind, IndexKind::Quadtree);
        assert_eq!(summary.skyline_len, 3);

        // Cold start: an empty state warm-loads the dataset from disk.
        let cold = ServerState::new(ExecutionContext::serial());
        *cold.snapshot_dir.write().unwrap() = Some(dir.0.clone());
        let scan = cold.load_snapshots().unwrap();
        assert!(scan.skipped.is_empty(), "{:?}", scan.skipped);
        assert_eq!(scan.restored.len(), 1);
        assert_eq!(scan.restored[0].0, "hotels");
        assert_eq!(scan.restored[0].1.points, 4);
        let resp = cold.respond(Request::QueryBatch {
            name: "hotels".to_string(),
            boxes: vec![vec![(0.25, 2.0)]],
        });
        assert_eq!(resp, Response::QueryResults(vec![vec![0, 1, 2]]));
    }

    #[test]
    fn restoring_into_a_different_dataset_is_a_typed_wire_error() {
        let dir = TempDir::new("mismatch");
        let state = loaded_state();
        *state.snapshot_dir.write().unwrap() = Some(dir.0.clone());
        let resp = state.respond(Request::SaveIndex {
            name: "hotels".to_string(),
            kind: IndexKind::Quadtree,
        });
        assert!(matches!(resp, Response::SnapshotSaved { .. }));

        // Replace the dataset under the same name with different points.
        let resp = state.respond(Request::LoadDataset {
            name: "hotels".to_string(),
            dim: 2,
            coords: vec![1.0, 1.0, 2.0, 2.0],
            warm: IndexKind::Quadtree,
        });
        assert!(matches!(resp, Response::DatasetLoaded(_)));
        let resp = state.respond(Request::RestoreIndex {
            name: "hotels".to_string(),
            kind: IndexKind::Quadtree,
        });
        assert!(
            matches!(&resp, Response::Error(m) if m.contains("mismatch")),
            "a stale snapshot must be rejected, got {resp:?}"
        );
        // The connection-level state still answers correctly afterwards.
        let resp = state.respond(Request::QueryBatch {
            name: "hotels".to_string(),
            boxes: vec![vec![(0.5, 2.0)]],
        });
        assert_eq!(resp, Response::QueryResults(vec![vec![0]]));
        // A missing snapshot file is an error response, not a panic.
        std::fs::remove_file(dir.0.join("hotels.eclsnap")).unwrap();
        let resp = state.respond(Request::RestoreIndex {
            name: "hotels".to_string(),
            kind: IndexKind::CuttingTree,
        });
        assert!(matches!(resp, Response::Error(_)));
    }

    #[test]
    fn load_snapshots_merges_both_kinds_of_one_dataset() {
        let dir = TempDir::new("merge");
        let state = loaded_state();
        *state.snapshot_dir.write().unwrap() = Some(dir.0.clone());
        for kind in [IndexKind::Quadtree, IndexKind::CuttingTree] {
            let resp = state.respond(Request::SaveIndex {
                name: "hotels".to_string(),
                kind,
            });
            assert!(matches!(resp, Response::SnapshotSaved { .. }), "{kind:?}");
        }
        let cold = ServerState::new(ExecutionContext::serial());
        *cold.snapshot_dir.write().unwrap() = Some(dir.0.clone());
        let scan = cold.load_snapshots().unwrap();
        assert!(scan.skipped.is_empty(), "{:?}", scan.skipped);
        assert_eq!(scan.restored.len(), 1, "both kinds save one file");
        let Response::Stats(report) = cold.respond(Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(report.datasets.len(), 1);
        assert!(report.datasets[0].quad_built && report.datasets[0].cutting_built);
    }

    #[test]
    fn a_corrupt_snapshot_is_skipped_without_taking_healthy_ones_down() {
        let dir = TempDir::new("skip");
        let state = loaded_state();
        *state.snapshot_dir.write().unwrap() = Some(dir.0.clone());
        let resp = state.respond(Request::SaveIndex {
            name: "hotels".to_string(),
            kind: IndexKind::Quadtree,
        });
        assert!(matches!(resp, Response::SnapshotSaved { .. }));
        // A torn/garbage file next to the healthy one.
        std::fs::write(dir.0.join("broken.eclsnap"), b"not a snapshot").unwrap();

        let cold = ServerState::new(ExecutionContext::serial());
        *cold.snapshot_dir.write().unwrap() = Some(dir.0.clone());
        let scan = cold.load_snapshots().unwrap();
        assert_eq!(scan.restored.len(), 1, "the healthy dataset comes back");
        assert_eq!(scan.restored[0].0, "hotels");
        assert_eq!(scan.skipped.len(), 1, "the bad file is reported");
        assert!(scan.skipped[0].0.ends_with("broken.eclsnap"));
        assert!(matches!(scan.skipped[0].1, EclipseError::Snapshot(_)));
    }

    #[test]
    fn sanitized_name_collisions_cannot_overwrite_each_other() {
        let dir = PathBuf::from("/snapshots");
        let a = ServerState::snapshot_path(&dir, "a/b");
        let b = ServerState::snapshot_path(&dir, "a_b");
        assert_ne!(a, b, "distinct raw names must map to distinct files");
        // Deterministic: the same raw name always maps to the same file.
        assert_eq!(a, ServerState::snapshot_path(&dir, "a/b"));
    }

    #[test]
    fn snapshot_paths_are_sanitized() {
        let dir = PathBuf::from("/snapshots");
        // A name needing sanitization gets a hash disambiguator appended.
        let raw = "data/../set name";
        let path = ServerState::snapshot_path(&dir, raw);
        let expected = format!(
            "data_.._set_name-{:08x}.eclsnap",
            eclipse_persist::fnv1a(raw.as_bytes()) as u32
        );
        assert_eq!(path, dir.join(expected));
        // Already-safe names stay readable, with no disambiguator.
        let path = ServerState::snapshot_path(&dir, "ok-1.2_x");
        assert_eq!(path, dir.join("ok-1.2_x.eclsnap"));
    }
}
