//! Clients for the eclipse-serve protocol: the pipelining
//! [`PipelinedClient`] (up to `pipe_size` requests in flight, replies
//! correlated by request id) and the blocking [`Client`], a depth-1 wrapper
//! over the same machinery with one typed method per request.  Both open
//! with the `Hello` handshake and speak protocol v2.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use eclipse_core::point::Point;
use eclipse_core::WeightRatioBox;

use crate::protocol::{
    read_frame, write_frame, DatasetSummary, FrameHeader, IndexKind, IndexSummary, MutationAck,
    ProtocolError, Request, Response, StatsReport, WireBox, PROTOCOL_V2,
};

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server's bytes did not decode.
    Protocol(ProtocolError),
    /// The server answered with an error response.
    Server(String),
    /// The request was rejected client-side before anything was sent.
    InvalidRequest(String),
    /// The server answered with a well-formed response of the wrong kind.
    UnexpectedResponse(&'static str),
    /// The server closed the connection instead of answering — covers a
    /// clean EOF between frames, a mid-frame EOF, and a reset socket (the
    /// mid-batch server-death cases).
    ConnectionClosed,
    /// A socket-level timeout fired (connect, read or write) before the
    /// peer answered.  After a *read* timeout the connection must be
    /// discarded: the reply may still arrive later and would desynchronize
    /// the framing if the stream were reused.
    SocketTimeout,
    /// The request's deadline passed server-side before execution started;
    /// it was not executed and the connection stays usable.
    TimedOut {
        /// The deadline the request carried, in milliseconds.
        deadline_ms: u32,
    },
    /// The server's admission control rejected the request; nothing was
    /// executed and the connection stays usable — back off and resubmit.
    Overloaded {
        /// In-flight requests counted against the breached cap.
        in_flight: u32,
        /// The cap that was breached.
        limit: u32,
    },
    /// The dataset is registered but evicted under the server's memory
    /// budget and could not be restored from its snapshot; nothing was
    /// executed and the connection stays usable.
    DatasetUnavailable {
        /// The dataset that could not be made resident.
        name: String,
        /// Why the restore failed.
        reason: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            ClientError::UnexpectedResponse(expected) => {
                write!(f, "unexpected response (expected {expected})")
            }
            ClientError::ConnectionClosed => write!(f, "connection closed by server"),
            ClientError::SocketTimeout => write!(f, "socket timed out waiting for the peer"),
            ClientError::TimedOut { deadline_ms } => {
                write!(
                    f,
                    "request timed out server-side ({deadline_ms} ms deadline)"
                )
            }
            ClientError::Overloaded { in_flight, limit } => {
                write!(
                    f,
                    "server overloaded ({in_flight} in flight, limit {limit})"
                )
            }
            ClientError::DatasetUnavailable { name, reason } => {
                write!(f, "dataset {name:?} unavailable: {reason}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe => ClientError::ConnectionClosed,
            // Both kinds occur in the wild for an expired socket timeout
            // (unix reports WouldBlock, windows TimedOut).
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::SocketTimeout,
            _ => ClientError::Io(e),
        }
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        match e {
            ProtocolError::Io(io) => ClientError::from(io),
            other => ClientError::Protocol(other),
        }
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = std::result::Result<T, ClientError>;

/// A pipelining connection: up to `pipe_size` requests in flight before the
/// first response is read, replies correlated by request id.
///
/// [`PipelinedClient::connect`] performs the `Hello` handshake and then
/// speaks protocol v2: out-of-order responses and per-request deadlines.
///
/// Submitted requests are buffered and sent before any read that would
/// block: a read that finds a whole response frame already buffered runs
/// no syscall and sends nothing, so requests queued while draining a burst
/// of responses go out together in one write.  A caller who wants requests
/// on the wire without reading calls [`PipelinedClient::flush`].
///
/// # Example
///
/// ```no_run
/// use eclipse_serve::client::PipelinedClient;
/// use eclipse_serve::protocol::Request;
///
/// let mut client = PipelinedClient::connect("127.0.0.1:7878", 8)?;
/// let a = client.submit(&Request::Ping)?;
/// let b = client.submit(&Request::Ping)?; // in flight alongside `a`
/// client.recv(b)?; // out-of-order receipt is fine
/// client.recv(a)?;
/// # Ok::<(), eclipse_serve::ClientError>(())
/// ```
pub struct PipelinedClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    pipe_size: u32,
    next_id: u64,
    /// Ids sent whose responses have not been read yet, in send order.
    pending: VecDeque<u64>,
    /// Responses read while waiting for a different id.
    ready: HashMap<u64, Response>,
}

impl PipelinedClient {
    /// Connects and performs the `Hello` handshake, requesting `pipe_size`
    /// in-flight requests.  The server may clamp the depth; the granted
    /// value is [`PipelinedClient::pipe_size`].
    ///
    /// # Errors
    /// Propagates socket errors; [`ClientError::Server`] when the peer
    /// rejects the handshake and [`ClientError::UnexpectedResponse`] when it
    /// does not acknowledge protocol v2.
    pub fn connect(addr: impl ToSocketAddrs, pipe_size: u32) -> ClientResult<PipelinedClient> {
        let mut client = Self::from_stream(TcpStream::connect(addr)?)?;
        client.handshake(pipe_size)?;
        Ok(client)
    }

    /// [`PipelinedClient::connect`] with timeouts: the TCP connect itself,
    /// the `Hello` handshake, and every subsequent read/write give up after
    /// `timeout` with [`ClientError::SocketTimeout`] instead of blocking
    /// indefinitely on an unresponsive peer (clear the I/O deadline
    /// afterwards with [`PipelinedClient::set_io_timeout`] if unwanted).
    ///
    /// # Errors
    /// As [`PipelinedClient::connect`], plus
    /// [`ClientError::SocketTimeout`]; an address that does not resolve is
    /// [`ClientError::Io`].
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        pipe_size: u32,
        timeout: Duration,
    ) -> ClientResult<PipelinedClient> {
        let mut client = Self::from_stream(connect_stream_timeout(addr, timeout)?)?;
        client.set_io_timeout(Some(timeout))?;
        client.handshake(pipe_size)?;
        Ok(client)
    }

    fn from_stream(stream: TcpStream) -> ClientResult<PipelinedClient> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(PipelinedClient {
            reader,
            writer: BufWriter::new(stream),
            pipe_size: 1,
            next_id: 0,
            pending: VecDeque::new(),
            ready: HashMap::new(),
        })
    }

    /// Performs the `Hello` exchange on a fresh connection, adopting the
    /// granted depth.
    fn handshake(&mut self, pipe_size: u32) -> ClientResult<()> {
        write_frame(
            &mut self.writer,
            &Request::Hello {
                max_version: PROTOCOL_V2,
                pipe_size,
            }
            .encode(),
        )?;
        self.writer.flush()?;
        match read_frame(&mut self.reader).map_err(ClientError::from)? {
            None => Err(ClientError::ConnectionClosed),
            Some(payload) => match Response::decode(&payload)? {
                Response::HelloAck {
                    version: PROTOCOL_V2,
                    pipe_size: granted,
                    ..
                } => {
                    self.pipe_size = granted.max(1);
                    Ok(())
                }
                Response::Error(m) => Err(ClientError::Server(m)),
                _ => Err(ClientError::UnexpectedResponse("HelloAck")),
            },
        }
    }

    /// Sets (or with `None` clears) the read/write timeout on the
    /// underlying socket.  A read that expires surfaces as
    /// [`ClientError::SocketTimeout`] — after which the connection must be
    /// dropped, because a late reply would desynchronize the framing.
    ///
    /// # Errors
    /// Propagates socket errors (`Some(Duration::ZERO)` is rejected by the
    /// OS).
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> ClientResult<()> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.writer.get_ref().set_write_timeout(timeout)?;
        Ok(())
    }

    /// The granted pipeline depth.
    pub fn pipe_size(&self) -> u32 {
        self.pipe_size
    }

    /// Requests submitted but not yet received.
    pub fn in_flight(&self) -> usize {
        self.pending.len() + self.ready.len()
    }

    /// Submits a request without reading its response, returning the id to
    /// [`PipelinedClient::recv`] later.  When the pipeline is full, blocks
    /// until one in-flight response arrives (stashed for its own `recv`).
    ///
    /// # Errors
    /// Propagates transport errors.
    pub fn submit(&mut self, request: &Request) -> ClientResult<u64> {
        self.submit_with_deadline(request, 0)
    }

    /// [`PipelinedClient::submit`] with a relative server-side deadline in
    /// milliseconds (0 = none): a request still queued server-side when the
    /// deadline passes is answered with a typed timeout instead of running.
    ///
    /// # Errors
    /// Propagates transport errors.
    pub fn submit_with_deadline(
        &mut self,
        request: &Request,
        deadline_ms: u32,
    ) -> ClientResult<u64> {
        while self.pending.len() >= self.pipe_size as usize {
            let (id, response) = self.read_one()?;
            self.ready.insert(id, response);
        }
        let id = self.next_id;
        self.next_id += 1;
        let payload = FrameHeader {
            request_id: id,
            deadline_ms,
        }
        .with_body(&request.encode());
        write_frame(&mut self.writer, &payload)?;
        self.pending.push_back(id);
        Ok(id)
    }

    /// Pushes buffered request frames to the socket without reading
    /// anything.  [`PipelinedClient::recv`] (and a `submit` into a full
    /// pipeline) sends them only before a read that would block; this is
    /// for getting requests onto the wire without reading.
    ///
    /// # Errors
    /// Propagates transport errors.
    pub fn flush(&mut self) -> ClientResult<()> {
        self.writer.flush()?;
        Ok(())
    }

    /// Blocks until the response for `id` is available and returns it.
    /// Typed failure responses surface as their [`ClientError`] variants
    /// ([`ClientError::Server`], [`ClientError::TimedOut`],
    /// [`ClientError::Overloaded`]); the connection stays usable after any
    /// of them.
    ///
    /// # Errors
    /// As above, plus transport errors.
    pub fn recv(&mut self, id: u64) -> ClientResult<Response> {
        let response = loop {
            if let Some(response) = self.ready.remove(&id) {
                break response;
            }
            if !self.pending.contains(&id) {
                return Err(ClientError::InvalidRequest(format!(
                    "request id {id} is not in flight"
                )));
            }
            let (got, response) = self.read_one()?;
            if got == id {
                break response;
            }
            self.ready.insert(got, response);
        };
        match response {
            Response::Error(m) => Err(ClientError::Server(m)),
            Response::Timeout { deadline_ms } => Err(ClientError::TimedOut { deadline_ms }),
            Response::Overloaded { in_flight, limit } => {
                Err(ClientError::Overloaded { in_flight, limit })
            }
            Response::DatasetUnavailable { name, reason } => {
                Err(ClientError::DatasetUnavailable { name, reason })
            }
            response => Ok(response),
        }
    }

    /// Reads the next response frame and removes its id from the in-flight
    /// queue.  Pending request frames are flushed first unless the read
    /// buffer already holds a whole frame: only then can the read neither
    /// block nor run a syscall, so the client never waits on the socket
    /// while requests are still unsent.
    fn read_one(&mut self) -> ClientResult<(u64, Response)> {
        if !self.frame_buffered() {
            self.flush()?;
        }
        match read_frame(&mut self.reader).map_err(ClientError::from)? {
            None => Err(ClientError::ConnectionClosed),
            Some(payload) => {
                let (header, body) = FrameHeader::split(&payload)?;
                let response = Response::decode(body)?;
                if let Some(pos) = self.pending.iter().position(|&p| p == header.request_id) {
                    self.pending.remove(pos);
                }
                Ok((header.request_id, response))
            }
        }
    }

    /// Whether the read buffer holds a whole frame: a length prefix and
    /// that many payload bytes.
    fn frame_buffered(&self) -> bool {
        match self.reader.buffer().split_first_chunk::<4>() {
            Some((len, payload)) => payload.len() >= u32::from_le_bytes(*len) as usize,
            None => false,
        }
    }

    /// One request/response round trip through the pipeline machinery.
    ///
    /// # Errors
    /// As [`PipelinedClient::recv`].
    pub fn call(&mut self, request: &Request) -> ClientResult<Response> {
        let id = self.submit(request)?;
        self.recv(id)
    }

    /// Answers eclipse queries for every box, pipelining `chunk`-sized
    /// `QueryBatch` requests up to the connection's depth; results come
    /// back in input order regardless of server-side completion order.
    ///
    /// # Errors
    /// As [`PipelinedClient::recv`].
    pub fn query_many(
        &mut self,
        name: &str,
        boxes: &[WeightRatioBox],
        chunk: usize,
    ) -> ClientResult<Vec<Vec<usize>>> {
        let chunk = chunk.max(1);
        let mut ids = Vec::with_capacity(boxes.len().div_ceil(chunk));
        for probe_chunk in boxes.chunks(chunk) {
            ids.push(self.submit(&Request::QueryBatch {
                name: name.to_string(),
                boxes: wire_boxes(probe_chunk),
            })?);
        }
        let mut out = Vec::with_capacity(boxes.len());
        for id in ids {
            match self.recv(id)? {
                Response::QueryResults(results) => out.extend(
                    results
                        .into_iter()
                        .map(|ids| ids.into_iter().map(|i| i as usize).collect::<Vec<_>>()),
                ),
                _ => return Err(ClientError::UnexpectedResponse("QueryResults")),
            }
        }
        Ok(out)
    }

    /// Count-only sibling of [`PipelinedClient::query_many`].
    ///
    /// # Errors
    /// As [`PipelinedClient::recv`].
    pub fn count_many(
        &mut self,
        name: &str,
        boxes: &[WeightRatioBox],
        chunk: usize,
    ) -> ClientResult<Vec<usize>> {
        let chunk = chunk.max(1);
        let mut ids = Vec::with_capacity(boxes.len().div_ceil(chunk));
        for probe_chunk in boxes.chunks(chunk) {
            ids.push(self.submit(&Request::CountBatch {
                name: name.to_string(),
                boxes: wire_boxes(probe_chunk),
            })?);
        }
        let mut out = Vec::with_capacity(boxes.len());
        for id in ids {
            match self.recv(id)? {
                Response::Counts(counts) => {
                    out.extend(counts.into_iter().map(|c| c as usize));
                }
                _ => return Err(ClientError::UnexpectedResponse("Counts")),
            }
        }
        Ok(out)
    }
}

impl fmt::Debug for PipelinedClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelinedClient")
            .field("peer", &self.reader.get_ref().peer_addr().ok())
            .field("pipe_size", &self.pipe_size)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

/// A blocking connection to an eclipse-serve server: one request in flight
/// at a time — a depth-1 wrapper over [`PipelinedClient`] with one typed
/// method per request.
pub struct Client {
    inner: PipelinedClient,
}

impl Client {
    /// Connects to a server and performs the `Hello` handshake.
    ///
    /// # Errors
    /// As [`PipelinedClient::connect`].
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        Ok(Client {
            inner: PipelinedClient::connect(addr, 1)?,
        })
    }

    /// [`Client::connect`] with timeouts: the TCP connect, the handshake
    /// and every subsequent read/write give up after `timeout` with
    /// [`ClientError::SocketTimeout`] instead of blocking indefinitely on
    /// an unresponsive peer.
    ///
    /// # Errors
    /// As [`PipelinedClient::connect_timeout`].
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> ClientResult<Client> {
        Ok(Client {
            inner: PipelinedClient::connect_timeout(addr, 1, timeout)?,
        })
    }

    /// Sets (or clears) the read/write timeout on the underlying socket —
    /// see [`PipelinedClient::set_io_timeout`].
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> ClientResult<()> {
        self.inner.set_io_timeout(timeout)
    }

    /// One request/response round trip.  Error responses surface as
    /// [`ClientError::Server`]; the connection stays usable afterwards.
    fn call(&mut self, request: &Request) -> ClientResult<Response> {
        self.inner.call(request)
    }

    /// Liveness check.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn ping(&mut self) -> ClientResult<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("Pong")),
        }
    }

    /// Registers (or replaces) a dataset from in-memory points; the server
    /// warms the `warm` index before acknowledging.
    ///
    /// # Errors
    /// Mixed dimensionalities are rejected client-side (the flat wire format
    /// could otherwise silently regroup the coordinates into different
    /// points); empty datasets and non-finite coordinates are rejected
    /// server-side.
    pub fn load_dataset(
        &mut self,
        name: &str,
        points: &[Point],
        warm: IndexKind,
    ) -> ClientResult<DatasetSummary> {
        let dim = points.first().map_or(0, Point::dim);
        if let Some(p) = points.iter().find(|p| p.dim() != dim) {
            return Err(ClientError::InvalidRequest(format!(
                "mixed dimensionalities: first point has {dim}, another has {}",
                p.dim()
            )));
        }
        let mut coords = Vec::with_capacity(points.len() * dim);
        for p in points {
            coords.extend_from_slice(p.coords());
        }
        let request = Request::LoadDataset {
            name: name.to_string(),
            dim: dim as u32,
            coords,
            warm,
        };
        match self.call(&request)? {
            Response::DatasetLoaded(summary) => Ok(summary),
            _ => Err(ClientError::UnexpectedResponse("DatasetLoaded")),
        }
    }

    /// Eagerly builds (and caches) the index of the given kind.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn build_index(&mut self, name: &str, kind: IndexKind) -> ClientResult<IndexSummary> {
        let request = Request::BuildIndex {
            name: name.to_string(),
            kind,
        };
        match self.call(&request)? {
            Response::IndexBuilt(summary) => Ok(summary),
            _ => Err(ClientError::UnexpectedResponse("IndexBuilt")),
        }
    }

    /// Appends one point to the named dataset; the skyline and any built
    /// indexes are maintained incrementally and the dataset epoch advances.
    ///
    /// Inserts are **not idempotent**: after an ambiguous transport failure
    /// the caller must check `Stats` (dataset epoch/size) before resending.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn insert(&mut self, name: &str, coords: &[f64]) -> ClientResult<MutationAck> {
        let request = Request::Insert {
            name: name.to_string(),
            coords: coords.to_vec(),
        };
        match self.call(&request)? {
            Response::Mutated { kind, epoch, len } => Ok(MutationAck { kind, epoch, len }),
            _ => Err(ClientError::UnexpectedResponse("Mutated")),
        }
    }

    /// Deletes the point with the given id from the named dataset (ids above
    /// it shift down by one).  Not idempotent — see [`Client::insert`].
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn delete(&mut self, name: &str, id: u64) -> ClientResult<MutationAck> {
        let request = Request::Delete {
            name: name.to_string(),
            id,
        };
        match self.call(&request)? {
            Response::Mutated { kind, epoch, len } => Ok(MutationAck { kind, epoch, len }),
            _ => Err(ClientError::UnexpectedResponse("Mutated")),
        }
    }

    /// Answers a batch of eclipse queries; results are dataset point indices
    /// in ascending order, one vector per box, in input order.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn query_batch(
        &mut self,
        name: &str,
        boxes: &[WeightRatioBox],
    ) -> ClientResult<Vec<Vec<usize>>> {
        let request = Request::QueryBatch {
            name: name.to_string(),
            boxes: wire_boxes(boxes),
        };
        match self.call(&request)? {
            Response::QueryResults(results) => Ok(results
                .into_iter()
                .map(|ids| ids.into_iter().map(|i| i as usize).collect())
                .collect()),
            _ => Err(ClientError::UnexpectedResponse("QueryResults")),
        }
    }

    /// Answers a batch of count-only eclipse queries: one result cardinality
    /// per box, in input order.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn count_batch(
        &mut self,
        name: &str,
        boxes: &[WeightRatioBox],
    ) -> ClientResult<Vec<usize>> {
        let request = Request::CountBatch {
            name: name.to_string(),
            boxes: wire_boxes(boxes),
        };
        match self.call(&request)? {
            Response::Counts(counts) => Ok(counts.into_iter().map(|c| c as usize).collect()),
            _ => Err(ClientError::UnexpectedResponse("Counts")),
        }
    }

    /// Persists the named dataset plus its built index of the given kind
    /// into the server's snapshot directory, returning the snapshot size in
    /// bytes.
    ///
    /// # Errors
    /// [`ClientError::Server`] when the server runs without a snapshot
    /// directory; transport errors otherwise.
    pub fn save_index(&mut self, name: &str, kind: IndexKind) -> ClientResult<u64> {
        let request = Request::SaveIndex {
            name: name.to_string(),
            kind,
        };
        match self.call(&request)? {
            Response::SnapshotSaved { bytes } => Ok(bytes),
            _ => Err(ClientError::UnexpectedResponse("SnapshotSaved")),
        }
    }

    /// Restores a previously saved index of the given kind from the
    /// server's snapshot directory into the named dataset's engine.  The
    /// server validates the snapshot against the registered dataset; a
    /// mismatch is a server error, not wrong results.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn restore_index(&mut self, name: &str, kind: IndexKind) -> ClientResult<IndexSummary> {
        let request = Request::RestoreIndex {
            name: name.to_string(),
            kind,
        };
        match self.call(&request)? {
            Response::IndexBuilt(summary) => Ok(summary),
            _ => Err(ClientError::UnexpectedResponse("IndexBuilt")),
        }
    }

    /// Directs the server to scan its snapshot directory and restore every
    /// snapshot in it (the failover re-warm primitive).  Returns the
    /// restored `(name, summary)` pairs and the `(path, error)` pairs of
    /// files that were skipped as corrupt/stale — a skip is not an error,
    /// so one bad file cannot block a re-warm.
    ///
    /// # Errors
    /// [`ClientError::Server`] when the server runs without a snapshot
    /// directory; transport errors otherwise.
    #[allow(clippy::type_complexity)]
    pub fn load_snapshots(
        &mut self,
    ) -> ClientResult<(Vec<(String, DatasetSummary)>, Vec<(String, String)>)> {
        match self.call(&Request::LoadSnapshots)? {
            Response::SnapshotsLoaded { restored, skipped } => Ok((restored, skipped)),
            _ => Err(ClientError::UnexpectedResponse("SnapshotsLoaded")),
        }
    }

    /// Opts this connection into degraded reads: when the serving side
    /// cannot reach every shard, it may answer probes with
    /// per-box-nullable partial results instead of a hard error.  A
    /// single-process server acknowledges but always serves complete
    /// results.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn allow_partial(&mut self, enabled: bool) -> ClientResult<bool> {
        match self.call(&Request::AllowPartial { enabled })? {
            Response::PartialAck { enabled } => Ok(enabled),
            _ => Err(ClientError::UnexpectedResponse("PartialAck")),
        }
    }

    /// [`Client::query_batch`] for degraded-opted-in connections: each box
    /// answers `Some(ids)`, or `None` when every shard owning it was down.
    /// A complete [`Response::QueryResults`] answer is accepted too (all
    /// `Some`), so the same helper works against plain servers.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn query_batch_degraded(
        &mut self,
        name: &str,
        boxes: &[WeightRatioBox],
    ) -> ClientResult<Vec<Option<Vec<usize>>>> {
        let request = Request::QueryBatch {
            name: name.to_string(),
            boxes: wire_boxes(boxes),
        };
        match self.call(&request)? {
            Response::QueryResults(results) => Ok(results
                .into_iter()
                .map(|ids| Some(ids.into_iter().map(|i| i as usize).collect()))
                .collect()),
            Response::PartialResults(results) => Ok(results
                .into_iter()
                .map(|row| row.map(|ids| ids.into_iter().map(|i| i as usize).collect()))
                .collect()),
            _ => Err(ClientError::UnexpectedResponse("QueryResults")),
        }
    }

    /// Count-only sibling of [`Client::query_batch_degraded`].
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn count_batch_degraded(
        &mut self,
        name: &str,
        boxes: &[WeightRatioBox],
    ) -> ClientResult<Vec<Option<usize>>> {
        let request = Request::CountBatch {
            name: name.to_string(),
            boxes: wire_boxes(boxes),
        };
        match self.call(&request)? {
            Response::Counts(counts) => Ok(counts.into_iter().map(|c| Some(c as usize)).collect()),
            Response::PartialCounts(counts) => {
                Ok(counts.into_iter().map(|c| c.map(|c| c as usize)).collect())
            }
            _ => Err(ClientError::UnexpectedResponse("Counts")),
        }
    }

    /// Fetches server and per-dataset statistics.
    ///
    /// # Errors
    /// Propagates transport and server errors.
    pub fn stats(&mut self) -> ClientResult<StatsReport> {
        match self.call(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            _ => Err(ClientError::UnexpectedResponse("Stats")),
        }
    }
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.inner.reader.get_ref().peer_addr().ok())
            .finish()
    }
}

/// Resolves `addr` and makes a timed TCP connect to each candidate in turn,
/// returning the first stream that comes up (std's plain `connect` does the
/// same sweep, but `TcpStream::connect_timeout` only takes one resolved
/// address).
fn connect_stream_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> ClientResult<TcpStream> {
    let mut last: Option<io::Error> = None;
    for candidate in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&candidate, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
    }
    Err(last.map(ClientError::from).unwrap_or_else(|| {
        ClientError::InvalidRequest("address resolved to no socket addresses".to_string())
    }))
}

/// Lowers weight-ratio boxes to their wire form.
fn wire_boxes(boxes: &[WeightRatioBox]) -> Vec<WireBox> {
    boxes
        .iter()
        .map(|b| b.ranges().iter().map(|r| (r.lo(), r.hi())).collect())
        .collect()
}
