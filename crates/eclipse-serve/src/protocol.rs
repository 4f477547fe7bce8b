//! The wire protocol: length-prefixed binary frames with a hand-rolled
//! codec (no serde, no external dependencies).
//!
//! # Framing
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! frame      := len:u32le payload[len]
//! payload    := request_id:u64le deadline_ms:u32le body
//! body       := tag:u8 fields
//! ```
//!
//! `len` counts the payload bytes only and must not exceed
//! [`MAX_FRAME_LEN`].  Within a payload the primitives are fixed-width
//! little-endian: `u8`, `u32le`, `u64le`, and `f64` as its IEEE-754 bit
//! pattern in `u64le` (so infinities and signed zeros round-trip exactly).
//! A `string` is `u32le` length + UTF-8 bytes; every list is `u32le`
//! element count + elements.
//!
//! # The handshake
//!
//! The only exception to that payload layout is a connection's **first**
//! exchange: the client sends a bare-body [`Request::Hello`] and the server
//! answers a bare-body [`Response::HelloAck`] with the negotiated version
//! ([`PROTOCOL_V2`]) and pipeline depth ([`negotiate`] is the rule).  Every
//! later frame in both directions carries the 12-byte [`FrameHeader`]
//! before the body:
//!
//! * `request_id` — chosen by the client, echoed verbatim in the response,
//!   so responses may return **out of order** and the client correlates by
//!   id (ids must be unique among a connection's in-flight requests);
//! * `deadline_ms` — a relative per-request deadline in milliseconds
//!   (0 = none), measured from frame receipt and enforced server-side: a
//!   request still waiting when its deadline passes is answered with
//!   [`Response::Timeout`] instead of being executed.  Responses always
//!   carry 0.
//!
//! A first frame that is not a `Hello`, or a `Hello` whose `max_version` is
//! below [`PROTOCOL_V2`], is answered with one bare-body [`Response::Error`]
//! and the connection is closed.
//!
//! # Robustness
//!
//! Decoding is total: truncated frames, trailing bytes, unknown tags,
//! non-UTF-8 strings and absurd element counts all surface as
//! [`ProtocolError`] values — never a panic, and never an allocation larger
//! than the received frame (list counts are validated against the bytes
//! actually remaining before any buffer is reserved).  The property suite in
//! `tests/protocol_roundtrip.rs` fuzzes both directions.

use std::fmt;
use std::io::{self, Read, Write};

use eclipse_core::index::IntersectionIndexKind;

/// Hard upper bound on a frame payload (64 MiB): a corrupted or hostile
/// length prefix is rejected before any buffer is allocated.
pub const MAX_FRAME_LEN: u32 = 1 << 26;

/// The protocol version this build speaks, and the only one it accepts:
/// every frame after the handshake carries a [`FrameHeader`] (request id +
/// deadline) and responses may return out of order.
pub const PROTOCOL_V2: u32 = 2;

/// Byte length of the v2 per-frame header.
pub const V2_HEADER_LEN: usize = 12;

/// The per-frame header of a [`PROTOCOL_V2`] payload: the client-chosen
/// request id (echoed in the response) and the relative request deadline in
/// milliseconds (0 = no deadline; always 0 in responses).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameHeader {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub request_id: u64,
    /// Relative deadline in milliseconds from frame receipt; 0 disables.
    pub deadline_ms: u32,
}

impl FrameHeader {
    /// Appends the 12 header bytes to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.request_id.to_le_bytes());
        buf.extend_from_slice(&self.deadline_ms.to_le_bytes());
    }

    /// Splits a v2 payload into its header and the body bytes.
    ///
    /// # Errors
    /// [`ProtocolError::Truncated`] when the payload is shorter than the
    /// header.
    pub fn split(payload: &[u8]) -> ProtocolResult<(FrameHeader, &[u8])> {
        if payload.len() < V2_HEADER_LEN {
            return Err(ProtocolError::Truncated {
                needed: V2_HEADER_LEN,
                remaining: payload.len(),
            });
        }
        let request_id = u64::from_le_bytes(payload[..8].try_into().expect("8-byte slice"));
        let deadline_ms = u32::from_le_bytes(payload[8..12].try_into().expect("4-byte slice"));
        Ok((
            FrameHeader {
                request_id,
                deadline_ms,
            },
            &payload[V2_HEADER_LEN..],
        ))
    }

    /// Encodes a full v2 payload: this header followed by `body`.
    pub fn with_body(&self, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(V2_HEADER_LEN + body.len());
        self.encode_into(&mut buf);
        buf.extend_from_slice(body);
        buf
    }
}

/// Everything that can go wrong while framing or decoding a message.
#[derive(Debug)]
pub enum ProtocolError {
    /// An underlying socket/stream error.
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
    /// The payload ended before a field could be read in full.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were actually left.
        remaining: usize,
    },
    /// The payload decoded cleanly but bytes were left over.
    TrailingBytes(usize),
    /// An unrecognized message or enum tag.
    UnknownTag {
        /// Which field carried the tag.
        context: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A structurally valid but semantically impossible value (bad UTF-8, a
    /// list count larger than the remaining bytes, …).
    Malformed(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
            ProtocolError::FrameTooLarge(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME_LEN} cap")
            }
            ProtocolError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated payload: needed {needed} bytes, {remaining} left"
                )
            }
            ProtocolError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            ProtocolError::UnknownTag { context, tag } => {
                write!(f, "unknown {context} tag {tag:#04x}")
            }
            ProtocolError::Malformed(reason) => write!(f, "malformed payload: {reason}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Result alias for codec operations.
pub type ProtocolResult<T> = std::result::Result<T, ProtocolError>;

/// The paper's Intersection Index kinds, as spoken on the wire.
///
/// A label: the server keeps one slab index per dataset, and every request
/// carrying a kind (`LoadDataset`, `BuildIndex`, `SaveIndex`,
/// `RestoreIndex`) accepts either kind for it.  The byte layout is that of
/// protocol v2, unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IndexKind {
    /// The line quadtree / hyperplane octree (the paper's QUAD).
    #[default]
    Quadtree,
    /// The randomized cutting tree (the paper's CUTTING).
    CuttingTree,
}

impl IndexKind {
    fn to_wire(self) -> u8 {
        match self {
            IndexKind::Quadtree => 0,
            IndexKind::CuttingTree => 1,
        }
    }

    fn from_wire(tag: u8) -> ProtocolResult<Self> {
        match tag {
            0 => Ok(IndexKind::Quadtree),
            1 => Ok(IndexKind::CuttingTree),
            other => Err(ProtocolError::UnknownTag {
                context: "index kind",
                tag: other,
            }),
        }
    }
}

impl From<IndexKind> for IntersectionIndexKind {
    fn from(kind: IndexKind) -> Self {
        match kind {
            IndexKind::Quadtree => IntersectionIndexKind::Quadtree,
            IndexKind::CuttingTree => IntersectionIndexKind::CuttingTree,
        }
    }
}

impl From<IntersectionIndexKind> for IndexKind {
    fn from(kind: IntersectionIndexKind) -> Self {
        match kind {
            IntersectionIndexKind::Quadtree => IndexKind::Quadtree,
            IntersectionIndexKind::CuttingTree => IndexKind::CuttingTree,
        }
    }
}

/// A weight-ratio box on the wire: one `(lo, hi)` pair per ratio.
pub type WireBox = Vec<(f64, f64)>;

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Version/pipelining handshake; must be the **first** frame of a
    /// connection (bare body, no [`FrameHeader`]).  See [`negotiate`] for
    /// the answer.  A `Hello` after the first frame is answered with an
    /// error and the connection stays usable.
    Hello {
        /// Highest protocol version the client speaks.
        max_version: u32,
        /// Pipeline depth (in-flight requests) the client would like; the
        /// server clamps it to its own per-connection limit.
        pipe_size: u32,
    },
    /// Liveness check.
    Ping,
    /// Registers (or replaces) a dataset: `coords` is row-major with `dim`
    /// values per point.  The server builds an [`eclipse_core::EclipseEngine`]
    /// and warms the `warm` index before acknowledging, so the first query
    /// batch already hits a built index.
    LoadDataset {
        /// Dataset name (the key of every subsequent request).
        name: String,
        /// Dimensionality of every point.
        dim: u32,
        /// Row-major coordinates, `dim` per point.
        coords: Vec<f64>,
        /// Which Intersection Index to build at registration (a label:
        /// either kind builds the one index).
        warm: IndexKind,
    },
    /// Eagerly builds (and caches) the dataset's index.
    BuildIndex {
        /// Dataset name.
        name: String,
        /// Which index to build (a label: either kind names the one index,
        /// and it is echoed in the acknowledgement).
        kind: IndexKind,
    },
    /// A batch of eclipse queries, answered through the engine's batched
    /// probe path; results are dataset point indices in ascending order.
    QueryBatch {
        /// Dataset name.
        name: String,
        /// One weight-ratio box per probe.
        boxes: Vec<WireBox>,
    },
    /// A batch of count-only eclipse queries: the result cardinality per
    /// box, with no per-probe result vectors materialized on the server.
    CountBatch {
        /// Dataset name.
        name: String,
        /// One weight-ratio box per probe.
        boxes: Vec<WireBox>,
    },
    /// Writes a versioned snapshot of the dataset plus its built index into
    /// the dataset's one file in the server's `--snapshot-dir` (building the
    /// index first if needed).  Answered with [`Response::SnapshotSaved`];
    /// an error if the server has no snapshot directory.
    SaveIndex {
        /// Dataset name.
        name: String,
        /// Which index to snapshot (a label: either kind writes the same
        /// file).
        kind: IndexKind,
    },
    /// Restores the dataset's previously saved index from the server's
    /// `--snapshot-dir` into the named dataset's engine.  The snapshot is
    /// validated against the registered dataset first — a snapshot of
    /// different data or another epoch is answered with an
    /// [`Response::Error`] instead of serving wrong results.  Answered with
    /// [`Response::IndexBuilt`].
    RestoreIndex {
        /// Dataset name.
        name: String,
        /// Which index to restore (a label: either kind reads the same file,
        /// and it is echoed in the acknowledgement).
        kind: IndexKind,
    },
    /// Scans the server's `--snapshot-dir` and restores **every** stored
    /// dataset + index found there — the re-warm operation a router issues
    /// against a standby (or restarted) backend before readmitting it.
    /// Per-file fault-tolerant: a corrupt or stale snapshot is skipped and
    /// reported in [`Response::SnapshotsLoaded`], never aborting the scan.
    LoadSnapshots,
    /// Opts this connection in (or out) of **degraded reads**: when the
    /// answering process is a shard router and some shards are down, an
    /// opted-in connection receives typed [`Response::PartialResults`] /
    /// [`Response::PartialCounts`] from the surviving shards instead of a
    /// hard error.  A single-process server acknowledges the flag but always
    /// serves complete answers.  Answered with [`Response::PartialAck`].
    AllowPartial {
        /// Whether degraded reads are acceptable on this connection.
        enabled: bool,
    },
    /// Server and per-dataset statistics.
    Stats,
    /// Appends one point to the named dataset, maintaining the skyline and
    /// any built indexes incrementally and bumping the dataset epoch.
    /// **Not idempotent**: a retry after an ambiguous transport failure
    /// could apply the insert twice, so routers never auto-retry it.
    /// Answered with [`Response::Mutated`].
    Insert {
        /// Dataset name.
        name: String,
        /// Coordinates of the new point (must match the dataset's `dim`).
        coords: Vec<f64>,
    },
    /// Deletes the point with the given id from the named dataset (ids above
    /// it shift down by one, exactly as if the dataset had been reloaded
    /// without the point).  **Not idempotent**: a blind retry could delete a
    /// different point once ids have shifted.  Answered with
    /// [`Response::Mutated`].
    Delete {
        /// Dataset name.
        name: String,
        /// Index of the point to delete.
        id: u64,
    },
}

/// How a mutation changed the skyline, as spoken on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationKind {
    /// An inserted point was dominated by the skyline: absorbed in place.
    InsertedDominated,
    /// An inserted point entered the skyline (possibly evicting members).
    InsertedSkyline,
    /// A deleted point was not a skyline member.
    DeletedNonSkyline,
    /// A deleted point was a skyline member (exclusively-dominated points
    /// were promoted).
    DeletedSkyline,
}

impl MutationKind {
    fn to_wire(self) -> u8 {
        match self {
            MutationKind::InsertedDominated => 0,
            MutationKind::InsertedSkyline => 1,
            MutationKind::DeletedNonSkyline => 2,
            MutationKind::DeletedSkyline => 3,
        }
    }

    fn from_wire(tag: u8) -> ProtocolResult<Self> {
        match tag {
            0 => Ok(MutationKind::InsertedDominated),
            1 => Ok(MutationKind::InsertedSkyline),
            2 => Ok(MutationKind::DeletedNonSkyline),
            3 => Ok(MutationKind::DeletedSkyline),
            other => Err(ProtocolError::UnknownTag {
                context: "mutation kind",
                tag: other,
            }),
        }
    }
}

/// The decoded contents of a [`Response::Mutated`], as returned by the
/// client's `insert`/`delete` helpers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutationAck {
    /// How the skyline changed.
    pub kind: MutationKind,
    /// The dataset epoch after the mutation.
    pub epoch: u64,
    /// The dataset size after the mutation.
    pub len: u64,
}

impl From<eclipse_core::MutationOutcome> for MutationKind {
    fn from(outcome: eclipse_core::MutationOutcome) -> Self {
        match outcome {
            eclipse_core::MutationOutcome::InsertedDominated => MutationKind::InsertedDominated,
            eclipse_core::MutationOutcome::InsertedSkyline => MutationKind::InsertedSkyline,
            eclipse_core::MutationOutcome::DeletedNonSkyline => MutationKind::DeletedNonSkyline,
            eclipse_core::MutationOutcome::DeletedSkyline => MutationKind::DeletedSkyline,
        }
    }
}

/// The acknowledgement of a [`Request::LoadDataset`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatasetSummary {
    /// Number of points registered.
    pub points: u64,
    /// Dimensionality.
    pub dim: u32,
    /// Skyline size of the warmed index.
    pub skyline_len: u64,
    /// Indexed intersection hyperplanes (`C(u, 2)`).
    pub intersections: u64,
}

/// The acknowledgement of a [`Request::BuildIndex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexSummary {
    /// The kind label of the request, echoed.
    pub kind: IndexKind,
    /// Skyline size.
    pub skyline_len: u64,
    /// Indexed intersection hyperplanes.
    pub intersections: u64,
    /// Always 0: the index holds no tree.  The field keeps the v2 byte
    /// layout unchanged.
    pub nodes: u64,
    /// Always 0, like `nodes`.
    pub depth: u32,
}

/// Per-dataset statistics inside a [`StatsReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Number of points.
    pub points: u64,
    /// Dimensionality.
    pub dim: u32,
    /// Skyline size (0 if no index has been built yet).
    pub skyline_len: u64,
    /// Intersection hyperplanes of the skyline.
    pub intersections: u64,
    /// How many of those actually cross the region `[0, 16]^{d−1}` of ratio
    /// space (gathered by a sweep over the index's slab).
    pub root_crossings: u64,
    /// Whether the dataset's index is built (reported under both kind
    /// labels).
    pub quad_built: bool,
    /// Whether the dataset's index is built; always equal to `quad_built`.
    pub cutting_built: bool,
    /// Mutation epoch of the dataset: 0 at registration, +1 per applied
    /// insert/delete.
    pub epoch: u64,
    /// Accounted heap bytes of the dataset's engine (points, cached index,
    /// skyline cache); 0 while evicted.
    pub bytes: u64,
    /// `false` when the dataset is currently evicted to its snapshot under
    /// the server's memory budget (the next request touching it restores it
    /// transparently).
    pub resident: bool,
}

/// The reply to a [`Request::Stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// `QueryBatch` requests answered successfully.
    pub query_batches: u64,
    /// `CountBatch` requests answered successfully.
    pub count_batches: u64,
    /// Total probes (boxes) answered across both batch kinds.
    pub probes: u64,
    /// Requests that ended in an error response.
    pub errors: u64,
    /// Requests admitted but not yet answered at the time of the stats call
    /// (includes the stats request itself when it went through the queue).
    pub in_flight: u64,
    /// Requests answered with [`Response::Timeout`] because their deadline
    /// passed before execution started.
    pub timeouts: u64,
    /// Requests rejected with [`Response::Overloaded`] by the per-connection
    /// or global in-flight caps.
    pub rejected: u64,
    /// In-flight queue depth of every open connection at the time of the
    /// stats call, sorted descending.
    pub conn_queue_depths: Vec<u32>,
    /// Accounted heap bytes across all *resident* datasets (the figure the
    /// memory budget is enforced against).
    pub total_bytes: u64,
    /// The configured memory budget in bytes; 0 when unbounded.
    pub memory_budget: u64,
    /// Datasets evicted to their snapshots since the server started.
    pub evictions: u64,
    /// Evicted datasets transparently restored from their snapshots since
    /// the server started.
    pub reloads: u64,
    /// One entry per registered dataset, sorted by name.
    pub datasets: Vec<DatasetStats>,
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Hello`]: the negotiated protocol version, the
    /// granted pipeline depth, and the server's frame cap.
    HelloAck {
        /// Negotiated version: always [`PROTOCOL_V2`].
        version: u32,
        /// Granted per-connection pipeline depth (in-flight requests).
        pipe_size: u32,
        /// The server's [`MAX_FRAME_LEN`].
        max_frame_len: u32,
    },
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::LoadDataset`].
    DatasetLoaded(DatasetSummary),
    /// Reply to [`Request::BuildIndex`].
    IndexBuilt(IndexSummary),
    /// Reply to [`Request::QueryBatch`], in input order.
    QueryResults(Vec<Vec<u64>>),
    /// Reply to [`Request::CountBatch`], in input order.
    Counts(Vec<u64>),
    /// Reply to [`Request::SaveIndex`].
    SnapshotSaved {
        /// Size of the written snapshot file in bytes.
        bytes: u64,
    },
    /// Reply to [`Request::LoadSnapshots`]: what the snapshot-directory scan
    /// restored and which files it had to skip (corrupt, stale, or
    /// inconsistent — each with its rendered error).
    SnapshotsLoaded {
        /// `(dataset name, summary)` per successfully restored snapshot, in
        /// deterministic (path-sorted) order.
        restored: Vec<(String, DatasetSummary)>,
        /// `(path, error)` per snapshot file that could not be restored.
        skipped: Vec<(String, String)>,
    },
    /// Reply to [`Request::AllowPartial`], echoing the granted setting.
    PartialAck {
        /// Whether degraded reads are now enabled on this connection.
        enabled: bool,
    },
    /// Degraded reply to a `QueryBatch` when some shards are unavailable:
    /// one entry per probe in input order, `None` where every responsible
    /// shard was down.  Sent only on connections that opted in with
    /// [`Request::AllowPartial`].
    PartialResults(Vec<Option<Vec<u64>>>),
    /// Degraded reply to a `CountBatch`; see [`Response::PartialResults`].
    PartialCounts(Vec<Option<u64>>),
    /// Reply to [`Request::Stats`].
    Stats(StatsReport),
    /// The request's `deadline_ms` passed before execution started; the
    /// request was **not** executed and the connection stays usable.
    Timeout {
        /// The deadline the request carried.
        deadline_ms: u32,
    },
    /// The request was rejected by admission control (per-connection or
    /// global in-flight cap); nothing was executed and the connection stays
    /// usable — back off and resubmit.
    Overloaded {
        /// In-flight requests counted against the breached cap.
        in_flight: u32,
        /// The cap that was breached.
        limit: u32,
    },
    /// The named dataset is registered but currently **evicted** under the
    /// server's memory budget, and could not be restored from its snapshot
    /// (missing or unreadable snapshot file, or no snapshot directory).
    /// Nothing was executed and the connection stays usable — like
    /// [`Response::Overloaded`], this is a typed condition, not a protocol
    /// failure.
    DatasetUnavailable {
        /// The dataset that could not be made resident.
        name: String,
        /// Why the restore failed.
        reason: String,
    },
    /// Reply to [`Request::Insert`] / [`Request::Delete`]: what the mutation
    /// did to the skyline, plus the dataset's new epoch and size.
    Mutated {
        /// How the skyline changed.
        kind: MutationKind,
        /// The dataset epoch after the mutation.
        epoch: u64,
        /// The dataset size after the mutation.
        len: u64,
    },
    /// Any request that failed; the connection stays usable.
    Error(String),
}

// --- handshake -------------------------------------------------------------

/// Answers a connection's first frame (a bare body): a [`Request::Hello`]
/// with `max_version >= PROTOCOL_V2` is accepted, and anything else is
/// rejected.
///
/// Returns the reply to send, bare-framed like the `Hello`, and the granted
/// pipeline depth (the requested `pipe_size` clamped to
/// `1..=max_pipeline`).  An accepted handshake replies
/// [`Response::HelloAck`]; a rejected one replies a typed
/// [`Response::Error`] and grants nothing (`None`), and the connection
/// closes once the reply is sent.
pub fn negotiate(first_frame: &[u8], max_pipeline: u32) -> (Response, Option<u32>) {
    match Request::decode(first_frame) {
        Ok(Request::Hello {
            max_version,
            pipe_size,
        }) if max_version >= PROTOCOL_V2 => {
            let granted = pipe_size.clamp(1, max_pipeline);
            let ack = Response::HelloAck {
                version: PROTOCOL_V2,
                pipe_size: granted,
                max_frame_len: MAX_FRAME_LEN,
            };
            (ack, Some(granted))
        }
        Ok(Request::Hello { max_version, .. }) => {
            let reason = format!(
                "protocol v{max_version} is not supported; this server speaks v{PROTOCOL_V2} only"
            );
            (Response::Error(reason), None)
        }
        _ => {
            let reason = format!(
                "the first frame of a connection must be a Hello for protocol v{PROTOCOL_V2}"
            );
            (Response::Error(reason), None)
        }
    }
}

// --- framing ---------------------------------------------------------------

/// Writes one frame (length prefix + payload).  The caller flushes.
///
/// # Errors
/// Propagates stream errors; rejects payloads over [`MAX_FRAME_LEN`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("payload of {} bytes exceeds the frame cap", payload.len()),
            )
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame, returning `Ok(None)` on a clean end-of-stream (the peer
/// closed between frames).
///
/// # Errors
/// Surfaces oversized length prefixes as [`ProtocolError::FrameTooLarge`]
/// and mid-frame stream ends as [`ProtocolError::Io`].
pub fn read_frame<R: Read>(r: &mut R) -> ProtocolResult<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_buf.len() {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean close between frames
            }
            return Err(ProtocolError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream closed inside a frame length prefix",
            )));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// --- encoding --------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, u8::from(v));
}

fn put_boxes(buf: &mut Vec<u8>, boxes: &[WireBox]) {
    put_u32(buf, boxes.len() as u32);
    for b in boxes {
        put_u32(buf, b.len() as u32);
        for &(lo, hi) in b {
            put_f64(buf, lo);
            put_f64(buf, hi);
        }
    }
}

// --- decoding --------------------------------------------------------------

/// Bounds-checked cursor over a received payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> ProtocolResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(ProtocolError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> ProtocolResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> ProtocolResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ProtocolError::Malformed(format!(
                "boolean byte must be 0 or 1, got {other}"
            ))),
        }
    }

    fn u32(&mut self) -> ProtocolResult<u32> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> ProtocolResult<u64> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    fn f64(&mut self) -> ProtocolResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> ProtocolResult<String> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtocolError::Malformed("string is not valid UTF-8".to_string()))
    }

    /// Reads a list count and validates it against the bytes actually left
    /// (`min_elem_bytes` per element), so a garbage count can never trigger
    /// an oversized allocation.
    fn count(&mut self, min_elem_bytes: usize) -> ProtocolResult<usize> {
        let count = self.u32()? as usize;
        let needed = count.saturating_mul(min_elem_bytes);
        if needed > self.remaining() {
            return Err(ProtocolError::Malformed(format!(
                "element count {count} needs at least {needed} bytes, {} left",
                self.remaining()
            )));
        }
        Ok(count)
    }

    fn boxes(&mut self) -> ProtocolResult<Vec<WireBox>> {
        let n = self.count(4)?;
        let mut boxes = Vec::with_capacity(n);
        for _ in 0..n {
            let ranges = self.count(16)?;
            let mut b = Vec::with_capacity(ranges);
            for _ in 0..ranges {
                let lo = self.f64()?;
                let hi = self.f64()?;
                b.push((lo, hi));
            }
            boxes.push(b);
        }
        Ok(boxes)
    }

    fn finish(self) -> ProtocolResult<()> {
        if self.remaining() != 0 {
            return Err(ProtocolError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

// --- request codec ---------------------------------------------------------

const REQ_PING: u8 = 0x00;
const REQ_LOAD_DATASET: u8 = 0x01;
const REQ_BUILD_INDEX: u8 = 0x02;
const REQ_QUERY_BATCH: u8 = 0x03;
const REQ_COUNT_BATCH: u8 = 0x04;
const REQ_STATS: u8 = 0x05;
const REQ_SAVE_INDEX: u8 = 0x06;
const REQ_RESTORE_INDEX: u8 = 0x07;
const REQ_HELLO: u8 = 0x08;
const REQ_LOAD_SNAPSHOTS: u8 = 0x09;
const REQ_ALLOW_PARTIAL: u8 = 0x0a;
const REQ_INSERT: u8 = 0x0b;
const REQ_DELETE: u8 = 0x0c;

impl Request {
    /// Serializes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Hello {
                max_version,
                pipe_size,
            } => {
                put_u8(&mut buf, REQ_HELLO);
                put_u32(&mut buf, *max_version);
                put_u32(&mut buf, *pipe_size);
            }
            Request::Ping => put_u8(&mut buf, REQ_PING),
            Request::LoadDataset {
                name,
                dim,
                coords,
                warm,
            } => {
                put_u8(&mut buf, REQ_LOAD_DATASET);
                put_str(&mut buf, name);
                put_u32(&mut buf, *dim);
                put_u32(&mut buf, coords.len() as u32);
                for &c in coords {
                    put_f64(&mut buf, c);
                }
                put_u8(&mut buf, warm.to_wire());
            }
            Request::BuildIndex { name, kind } => {
                put_u8(&mut buf, REQ_BUILD_INDEX);
                put_str(&mut buf, name);
                put_u8(&mut buf, kind.to_wire());
            }
            Request::QueryBatch { name, boxes } => {
                put_u8(&mut buf, REQ_QUERY_BATCH);
                put_str(&mut buf, name);
                put_boxes(&mut buf, boxes);
            }
            Request::CountBatch { name, boxes } => {
                put_u8(&mut buf, REQ_COUNT_BATCH);
                put_str(&mut buf, name);
                put_boxes(&mut buf, boxes);
            }
            Request::SaveIndex { name, kind } => {
                put_u8(&mut buf, REQ_SAVE_INDEX);
                put_str(&mut buf, name);
                put_u8(&mut buf, kind.to_wire());
            }
            Request::RestoreIndex { name, kind } => {
                put_u8(&mut buf, REQ_RESTORE_INDEX);
                put_str(&mut buf, name);
                put_u8(&mut buf, kind.to_wire());
            }
            Request::LoadSnapshots => put_u8(&mut buf, REQ_LOAD_SNAPSHOTS),
            Request::AllowPartial { enabled } => {
                put_u8(&mut buf, REQ_ALLOW_PARTIAL);
                put_bool(&mut buf, *enabled);
            }
            Request::Stats => put_u8(&mut buf, REQ_STATS),
            Request::Insert { name, coords } => {
                put_u8(&mut buf, REQ_INSERT);
                put_str(&mut buf, name);
                put_u32(&mut buf, coords.len() as u32);
                for &c in coords {
                    put_f64(&mut buf, c);
                }
            }
            Request::Delete { name, id } => {
                put_u8(&mut buf, REQ_DELETE);
                put_str(&mut buf, name);
                put_u64(&mut buf, *id);
            }
        }
        buf
    }

    /// Parses a frame payload into a request.
    ///
    /// # Errors
    /// Any structural defect surfaces as a [`ProtocolError`]; this function
    /// never panics on arbitrary input.
    pub fn decode(payload: &[u8]) -> ProtocolResult<Request> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            REQ_HELLO => Request::Hello {
                max_version: r.u32()?,
                pipe_size: r.u32()?,
            },
            REQ_PING => Request::Ping,
            REQ_LOAD_DATASET => {
                let name = r.str()?;
                let dim = r.u32()?;
                let n = r.count(8)?;
                let mut coords = Vec::with_capacity(n);
                for _ in 0..n {
                    coords.push(r.f64()?);
                }
                let warm = IndexKind::from_wire(r.u8()?)?;
                Request::LoadDataset {
                    name,
                    dim,
                    coords,
                    warm,
                }
            }
            REQ_BUILD_INDEX => Request::BuildIndex {
                name: r.str()?,
                kind: IndexKind::from_wire(r.u8()?)?,
            },
            REQ_QUERY_BATCH => Request::QueryBatch {
                name: r.str()?,
                boxes: r.boxes()?,
            },
            REQ_COUNT_BATCH => Request::CountBatch {
                name: r.str()?,
                boxes: r.boxes()?,
            },
            REQ_SAVE_INDEX => Request::SaveIndex {
                name: r.str()?,
                kind: IndexKind::from_wire(r.u8()?)?,
            },
            REQ_RESTORE_INDEX => Request::RestoreIndex {
                name: r.str()?,
                kind: IndexKind::from_wire(r.u8()?)?,
            },
            REQ_LOAD_SNAPSHOTS => Request::LoadSnapshots,
            REQ_ALLOW_PARTIAL => Request::AllowPartial { enabled: r.bool()? },
            REQ_STATS => Request::Stats,
            REQ_INSERT => {
                let name = r.str()?;
                let n = r.count(8)?;
                let mut coords = Vec::with_capacity(n);
                for _ in 0..n {
                    coords.push(r.f64()?);
                }
                Request::Insert { name, coords }
            }
            REQ_DELETE => Request::Delete {
                name: r.str()?,
                id: r.u64()?,
            },
            other => {
                return Err(ProtocolError::UnknownTag {
                    context: "request",
                    tag: other,
                })
            }
        };
        r.finish()?;
        Ok(req)
    }
}

// --- response codec --------------------------------------------------------

const RESP_PONG: u8 = 0x80;
const RESP_DATASET_LOADED: u8 = 0x81;
const RESP_INDEX_BUILT: u8 = 0x82;
const RESP_QUERY_RESULTS: u8 = 0x83;
const RESP_COUNTS: u8 = 0x84;
const RESP_STATS: u8 = 0x85;
const RESP_SNAPSHOT_SAVED: u8 = 0x86;
const RESP_HELLO_ACK: u8 = 0x87;
const RESP_TIMEOUT: u8 = 0x88;
const RESP_OVERLOADED: u8 = 0x89;
const RESP_SNAPSHOTS_LOADED: u8 = 0x8a;
const RESP_PARTIAL_ACK: u8 = 0x8b;
const RESP_PARTIAL_QUERY: u8 = 0x8c;
const RESP_PARTIAL_COUNTS: u8 = 0x8d;
const RESP_MUTATED: u8 = 0x8e;
const RESP_DATASET_UNAVAILABLE: u8 = 0x8f;
const RESP_ERROR: u8 = 0xff;

impl Response {
    /// Serializes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::HelloAck {
                version,
                pipe_size,
                max_frame_len,
            } => {
                put_u8(&mut buf, RESP_HELLO_ACK);
                put_u32(&mut buf, *version);
                put_u32(&mut buf, *pipe_size);
                put_u32(&mut buf, *max_frame_len);
            }
            Response::Pong => put_u8(&mut buf, RESP_PONG),
            Response::DatasetLoaded(s) => {
                put_u8(&mut buf, RESP_DATASET_LOADED);
                put_u64(&mut buf, s.points);
                put_u32(&mut buf, s.dim);
                put_u64(&mut buf, s.skyline_len);
                put_u64(&mut buf, s.intersections);
            }
            Response::IndexBuilt(s) => {
                put_u8(&mut buf, RESP_INDEX_BUILT);
                put_u8(&mut buf, s.kind.to_wire());
                put_u64(&mut buf, s.skyline_len);
                put_u64(&mut buf, s.intersections);
                put_u64(&mut buf, s.nodes);
                put_u32(&mut buf, s.depth);
            }
            Response::QueryResults(results) => {
                put_u8(&mut buf, RESP_QUERY_RESULTS);
                put_u32(&mut buf, results.len() as u32);
                for ids in results {
                    put_u32(&mut buf, ids.len() as u32);
                    for &id in ids {
                        put_u64(&mut buf, id);
                    }
                }
            }
            Response::Counts(counts) => {
                put_u8(&mut buf, RESP_COUNTS);
                put_u32(&mut buf, counts.len() as u32);
                for &c in counts {
                    put_u64(&mut buf, c);
                }
            }
            Response::SnapshotSaved { bytes } => {
                put_u8(&mut buf, RESP_SNAPSHOT_SAVED);
                put_u64(&mut buf, *bytes);
            }
            Response::SnapshotsLoaded { restored, skipped } => {
                put_u8(&mut buf, RESP_SNAPSHOTS_LOADED);
                put_u32(&mut buf, restored.len() as u32);
                for (name, s) in restored {
                    put_str(&mut buf, name);
                    put_u64(&mut buf, s.points);
                    put_u32(&mut buf, s.dim);
                    put_u64(&mut buf, s.skyline_len);
                    put_u64(&mut buf, s.intersections);
                }
                put_u32(&mut buf, skipped.len() as u32);
                for (path, error) in skipped {
                    put_str(&mut buf, path);
                    put_str(&mut buf, error);
                }
            }
            Response::PartialAck { enabled } => {
                put_u8(&mut buf, RESP_PARTIAL_ACK);
                put_bool(&mut buf, *enabled);
            }
            Response::PartialResults(results) => {
                put_u8(&mut buf, RESP_PARTIAL_QUERY);
                put_u32(&mut buf, results.len() as u32);
                for row in results {
                    match row {
                        None => put_bool(&mut buf, false),
                        Some(ids) => {
                            put_bool(&mut buf, true);
                            put_u32(&mut buf, ids.len() as u32);
                            for &id in ids {
                                put_u64(&mut buf, id);
                            }
                        }
                    }
                }
            }
            Response::PartialCounts(counts) => {
                put_u8(&mut buf, RESP_PARTIAL_COUNTS);
                put_u32(&mut buf, counts.len() as u32);
                for c in counts {
                    match c {
                        None => put_bool(&mut buf, false),
                        Some(c) => {
                            put_bool(&mut buf, true);
                            put_u64(&mut buf, *c);
                        }
                    }
                }
            }
            Response::Timeout { deadline_ms } => {
                put_u8(&mut buf, RESP_TIMEOUT);
                put_u32(&mut buf, *deadline_ms);
            }
            Response::Overloaded { in_flight, limit } => {
                put_u8(&mut buf, RESP_OVERLOADED);
                put_u32(&mut buf, *in_flight);
                put_u32(&mut buf, *limit);
            }
            Response::Stats(report) => {
                put_u8(&mut buf, RESP_STATS);
                put_u64(&mut buf, report.query_batches);
                put_u64(&mut buf, report.count_batches);
                put_u64(&mut buf, report.probes);
                put_u64(&mut buf, report.errors);
                put_u64(&mut buf, report.in_flight);
                put_u64(&mut buf, report.timeouts);
                put_u64(&mut buf, report.rejected);
                put_u32(&mut buf, report.conn_queue_depths.len() as u32);
                for &depth in &report.conn_queue_depths {
                    put_u32(&mut buf, depth);
                }
                put_u64(&mut buf, report.total_bytes);
                put_u64(&mut buf, report.memory_budget);
                put_u64(&mut buf, report.evictions);
                put_u64(&mut buf, report.reloads);
                put_u32(&mut buf, report.datasets.len() as u32);
                for d in &report.datasets {
                    put_str(&mut buf, &d.name);
                    put_u64(&mut buf, d.points);
                    put_u32(&mut buf, d.dim);
                    put_u64(&mut buf, d.skyline_len);
                    put_u64(&mut buf, d.intersections);
                    put_u64(&mut buf, d.root_crossings);
                    put_bool(&mut buf, d.quad_built);
                    put_bool(&mut buf, d.cutting_built);
                    put_u64(&mut buf, d.epoch);
                    put_u64(&mut buf, d.bytes);
                    put_bool(&mut buf, d.resident);
                }
            }
            Response::Mutated { kind, epoch, len } => {
                put_u8(&mut buf, RESP_MUTATED);
                put_u8(&mut buf, kind.to_wire());
                put_u64(&mut buf, *epoch);
                put_u64(&mut buf, *len);
            }
            Response::DatasetUnavailable { name, reason } => {
                put_u8(&mut buf, RESP_DATASET_UNAVAILABLE);
                put_str(&mut buf, name);
                put_str(&mut buf, reason);
            }
            Response::Error(message) => {
                put_u8(&mut buf, RESP_ERROR);
                put_str(&mut buf, message);
            }
        }
        buf
    }

    /// Parses a frame payload into a response.
    ///
    /// # Errors
    /// Any structural defect surfaces as a [`ProtocolError`]; this function
    /// never panics on arbitrary input.
    pub fn decode(payload: &[u8]) -> ProtocolResult<Response> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            RESP_HELLO_ACK => Response::HelloAck {
                version: r.u32()?,
                pipe_size: r.u32()?,
                max_frame_len: r.u32()?,
            },
            RESP_TIMEOUT => Response::Timeout {
                deadline_ms: r.u32()?,
            },
            RESP_OVERLOADED => Response::Overloaded {
                in_flight: r.u32()?,
                limit: r.u32()?,
            },
            RESP_PONG => Response::Pong,
            RESP_DATASET_LOADED => Response::DatasetLoaded(DatasetSummary {
                points: r.u64()?,
                dim: r.u32()?,
                skyline_len: r.u64()?,
                intersections: r.u64()?,
            }),
            RESP_INDEX_BUILT => Response::IndexBuilt(IndexSummary {
                kind: IndexKind::from_wire(r.u8()?)?,
                skyline_len: r.u64()?,
                intersections: r.u64()?,
                nodes: r.u64()?,
                depth: r.u32()?,
            }),
            RESP_QUERY_RESULTS => {
                let n = r.count(4)?;
                let mut results = Vec::with_capacity(n);
                for _ in 0..n {
                    let ids = r.count(8)?;
                    let mut row = Vec::with_capacity(ids);
                    for _ in 0..ids {
                        row.push(r.u64()?);
                    }
                    results.push(row);
                }
                Response::QueryResults(results)
            }
            RESP_COUNTS => {
                let n = r.count(8)?;
                let mut counts = Vec::with_capacity(n);
                for _ in 0..n {
                    counts.push(r.u64()?);
                }
                Response::Counts(counts)
            }
            RESP_SNAPSHOT_SAVED => Response::SnapshotSaved { bytes: r.u64()? },
            RESP_SNAPSHOTS_LOADED => {
                let n = r.count(32)?;
                let mut restored = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.str()?;
                    restored.push((
                        name,
                        DatasetSummary {
                            points: r.u64()?,
                            dim: r.u32()?,
                            skyline_len: r.u64()?,
                            intersections: r.u64()?,
                        },
                    ));
                }
                let n = r.count(8)?;
                let mut skipped = Vec::with_capacity(n);
                for _ in 0..n {
                    let path = r.str()?;
                    let error = r.str()?;
                    skipped.push((path, error));
                }
                Response::SnapshotsLoaded { restored, skipped }
            }
            RESP_PARTIAL_ACK => Response::PartialAck { enabled: r.bool()? },
            RESP_PARTIAL_QUERY => {
                let n = r.count(1)?;
                let mut results = Vec::with_capacity(n);
                for _ in 0..n {
                    if r.bool()? {
                        let ids = r.count(8)?;
                        let mut row = Vec::with_capacity(ids);
                        for _ in 0..ids {
                            row.push(r.u64()?);
                        }
                        results.push(Some(row));
                    } else {
                        results.push(None);
                    }
                }
                Response::PartialResults(results)
            }
            RESP_PARTIAL_COUNTS => {
                let n = r.count(1)?;
                let mut counts = Vec::with_capacity(n);
                for _ in 0..n {
                    if r.bool()? {
                        counts.push(Some(r.u64()?));
                    } else {
                        counts.push(None);
                    }
                }
                Response::PartialCounts(counts)
            }
            RESP_STATS => {
                let query_batches = r.u64()?;
                let count_batches = r.u64()?;
                let probes = r.u64()?;
                let errors = r.u64()?;
                let in_flight = r.u64()?;
                let timeouts = r.u64()?;
                let rejected = r.u64()?;
                let depths = r.count(4)?;
                let mut conn_queue_depths = Vec::with_capacity(depths);
                for _ in 0..depths {
                    conn_queue_depths.push(r.u32()?);
                }
                let total_bytes = r.u64()?;
                let memory_budget = r.u64()?;
                let evictions = r.u64()?;
                let reloads = r.u64()?;
                let n = r.count(32)?;
                let mut datasets = Vec::with_capacity(n);
                for _ in 0..n {
                    datasets.push(DatasetStats {
                        name: r.str()?,
                        points: r.u64()?,
                        dim: r.u32()?,
                        skyline_len: r.u64()?,
                        intersections: r.u64()?,
                        root_crossings: r.u64()?,
                        quad_built: r.bool()?,
                        cutting_built: r.bool()?,
                        epoch: r.u64()?,
                        bytes: r.u64()?,
                        resident: r.bool()?,
                    });
                }
                Response::Stats(StatsReport {
                    query_batches,
                    count_batches,
                    probes,
                    errors,
                    in_flight,
                    timeouts,
                    rejected,
                    conn_queue_depths,
                    total_bytes,
                    memory_budget,
                    evictions,
                    reloads,
                    datasets,
                })
            }
            RESP_MUTATED => Response::Mutated {
                kind: MutationKind::from_wire(r.u8()?)?,
                epoch: r.u64()?,
                len: r.u64()?,
            },
            RESP_DATASET_UNAVAILABLE => Response::DatasetUnavailable {
                name: r.str()?,
                reason: r.str()?,
            },
            RESP_ERROR => Response::Error(r.str()?),
            other => {
                return Err(ProtocolError::UnknownTag {
                    context: "response",
                    tag: other,
                })
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_messages_round_trip() {
        for req in [
            Request::Ping,
            Request::Stats,
            Request::Hello {
                max_version: PROTOCOL_V2,
                pipe_size: 64,
            },
            Request::BuildIndex {
                name: "hotels".to_string(),
                kind: IndexKind::CuttingTree,
            },
            Request::QueryBatch {
                name: "n".to_string(),
                boxes: vec![
                    vec![(0.25, 2.0)],
                    vec![],
                    vec![(0.0, f64::INFINITY), (1.0, 1.0)],
                ],
            },
            Request::SaveIndex {
                name: "hotels".to_string(),
                kind: IndexKind::Quadtree,
            },
            Request::RestoreIndex {
                name: "hotels".to_string(),
                kind: IndexKind::CuttingTree,
            },
            Request::LoadSnapshots,
            Request::AllowPartial { enabled: true },
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        for resp in [
            Response::Pong,
            Response::QueryResults(vec![vec![0, 1, 2], vec![]]),
            Response::Counts(vec![3, 0, 7]),
            Response::SnapshotSaved { bytes: 4096 },
            Response::SnapshotsLoaded {
                restored: vec![(
                    "hotels".to_string(),
                    DatasetSummary {
                        points: 10,
                        dim: 2,
                        skyline_len: 4,
                        intersections: 6,
                    },
                )],
                skipped: vec![("bad.eclsnap".to_string(), "checksum mismatch".to_string())],
            },
            Response::PartialAck { enabled: true },
            Response::PartialResults(vec![Some(vec![1, 2]), None, Some(vec![])]),
            Response::PartialCounts(vec![Some(5), None, Some(0)]),
            Response::HelloAck {
                version: PROTOCOL_V2,
                pipe_size: 32,
                max_frame_len: MAX_FRAME_LEN,
            },
            Response::Timeout { deadline_ms: 25 },
            Response::Overloaded {
                in_flight: 64,
                limit: 64,
            },
            Response::Error("boom".to_string()),
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn negotiate_grants_v2_and_rejects_everything_else() {
        let hello = |max_version, pipe_size| {
            Request::Hello {
                max_version,
                pipe_size,
            }
            .encode()
        };
        for (max_version, asked, granted) in [(2, 8, 8), (3, 8, 8), (2, 0, 1), (2, 500, 16)] {
            let (ack, depth) = negotiate(&hello(max_version, asked), 16);
            assert_eq!(depth, Some(granted));
            assert_eq!(
                ack,
                Response::HelloAck {
                    version: PROTOCOL_V2,
                    pipe_size: granted,
                    max_frame_len: MAX_FRAME_LEN,
                }
            );
        }
        let ping_v2 = FrameHeader::default().with_body(&Request::Ping.encode());
        for first in [
            hello(1, 8),
            hello(0, 8),
            Request::Ping.encode(),
            ping_v2,
            Vec::new(),
        ] {
            assert!(matches!(negotiate(&first, 16), (Response::Error(_), None)));
        }
    }

    #[test]
    fn v2_headers_round_trip_and_reject_short_payloads() {
        let header = FrameHeader {
            request_id: 0xdead_beef_0042,
            deadline_ms: 1500,
        };
        let body = Request::Ping.encode();
        let payload = header.with_body(&body);
        assert_eq!(payload.len(), V2_HEADER_LEN + body.len());
        let (decoded, rest) = FrameHeader::split(&payload).unwrap();
        assert_eq!(decoded, header);
        assert_eq!(rest, &body[..]);

        // Shorter than the header: a typed truncation, never a panic.
        for cut in 0..V2_HEADER_LEN {
            assert!(matches!(
                FrameHeader::split(&payload[..cut]),
                Err(ProtocolError::Truncated { .. })
            ));
        }
        // Header with an empty body splits cleanly (the body decode then
        // reports its own truncation).
        let (decoded, rest) = FrameHeader::split(&payload[..V2_HEADER_LEN]).unwrap();
        assert_eq!(decoded, header);
        assert!(rest.is_empty());
    }

    #[test]
    fn stats_report_round_trips_flow_control_fields() {
        let resp = Response::Stats(StatsReport {
            query_batches: 10,
            count_batches: 3,
            probes: 999,
            errors: 2,
            in_flight: 17,
            timeouts: 4,
            rejected: 9,
            conn_queue_depths: vec![16, 5, 0],
            total_bytes: 123_456_789,
            memory_budget: 1 << 30,
            evictions: 12,
            reloads: 11,
            datasets: vec![],
        });
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn framing_round_trips_and_rejects_oversize() {
        let payload = Request::Ping.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = &wire[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);

        // A hostile length prefix is rejected before allocation.
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
        let mut cursor = &huge[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtocolError::FrameTooLarge(_))
        ));

        // A stream that dies inside the prefix is an I/O error, not a hang.
        let mut cursor = &[0x01u8, 0x02][..];
        assert!(matches!(read_frame(&mut cursor), Err(ProtocolError::Io(_))));
    }

    #[test]
    fn garbage_counts_do_not_allocate() {
        // QueryResults claiming u32::MAX rows in a 9-byte payload.
        let mut payload = vec![RESP_QUERY_RESULTS];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&[0u8; 4]);
        assert!(matches!(
            Response::decode(&payload),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert!(matches!(
            Request::decode(&payload),
            Err(ProtocolError::TrailingBytes(1))
        ));
    }

    #[test]
    fn kind_conversions_are_inverse() {
        for kind in [IndexKind::Quadtree, IndexKind::CuttingTree] {
            assert_eq!(IndexKind::from_wire(kind.to_wire()).unwrap(), kind);
            assert_eq!(IndexKind::from(IntersectionIndexKind::from(kind)), kind);
        }
        assert!(IndexKind::from_wire(7).is_err());
    }

    #[test]
    fn errors_render_and_wrap() {
        let e = ProtocolError::from(io::Error::other("x"));
        assert!(e.to_string().contains("i/o error"));
        assert!(ProtocolError::FrameTooLarge(u32::MAX)
            .to_string()
            .contains("cap"));
        assert!(ProtocolError::Truncated {
            needed: 8,
            remaining: 2
        }
        .to_string()
        .contains("truncated"));
        assert!(ProtocolError::UnknownTag {
            context: "request",
            tag: 0x42
        }
        .to_string()
        .contains("0x42"));
    }
}
