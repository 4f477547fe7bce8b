//! The readiness-driven serving core: one thread owning every socket,
//! non-blocking I/O, and a completion queue fed by dispatcher workers.  It
//! serves any [`Handler`]: the dataset server's state and the shard
//! router's both run on it.
//!
//! * the listener and every connection socket are **non-blocking**; the loop
//!   polls them round-robin, with an adaptive backoff (spin → yield →
//!   `park_timeout`) when nothing is ready, and dispatcher workers `unpark`
//!   the loop the moment a response is ready (std only — no `epoll`, no
//!   external crates, no `unsafe`);
//! * decoded requests are handed to an [`eclipse_exec::Dispatcher`] whose
//!   workers run [`Handler::respond`] and push the fully framed response
//!   bytes onto a [`Completions`] queue; the loop drains that queue into the
//!   per-connection write buffers.  A request the handler's
//!   [`Handler::runs_inline`] rule accepts runs **inline** on the loop
//!   thread instead, skipping two thread handoffs; inline answers never
//!   count as in flight;
//! * **admission control**: a per-connection in-flight cap (the negotiated
//!   pipeline depth) and a global cap; a request over either limit is
//!   answered immediately with [`Response::Overloaded`] — typed, counted,
//!   connection stays usable;
//! * **handshake**: a connection's first frame must be a `Hello` for
//!   protocol v2 ([`negotiate`] decides); anything else is answered with one
//!   typed error and the connection closes once it has flushed.  A later
//!   `Hello` is a typed error, and `AllowPartial` sets the connection's
//!   flag that every later request's [`RequestCtx`] carries: the loop
//!   answers both itself;
//! * **deadlines**: a frame's `deadline_ms` is measured from the read that
//!   delivered its bytes; a request whose deadline has passed when
//!   execution would start (inline, at admission, or on the worker) is
//!   answered with [`Response::Timeout`] instead of being run;
//! * **out-of-order responses**: responses are written in completion order
//!   and correlated by the echoed request id;
//! * **graceful drain**: on shutdown the loop closes the listener, stops
//!   reading, lets every admitted request complete, flushes the write
//!   buffers, and only then exits (bounded by the configured drain timeout).
//!   The hard-stop path (`abort`) skips the drain.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use eclipse_exec::Dispatcher;

use crate::protocol::{negotiate, FrameHeader, Request, Response, MAX_FRAME_LEN, V2_HEADER_LEN};
use crate::server::ServerConfig;

/// What the event loop serves: the answer to each admitted request, and
/// whether it runs on the loop thread.  The loop calls both with requests
/// other than `Hello` and `AllowPartial`, which it answers itself.
pub trait Handler: Send + Sync + 'static {
    /// Answers one request.  Infallible: every failure is a typed response,
    /// so the connection stays alive.
    fn respond(&self, request: Request, ctx: RequestCtx) -> Response;

    /// Whether `request` runs on the loop thread rather than a dispatcher
    /// worker, given the requests dispatched and unanswered on its
    /// connection and in all.  An inline request holds every connection
    /// until it returns, so only requests of bounded cost qualify.
    fn runs_inline(&self, request: &Request, conn_in_flight: u32, global_in_flight: u64) -> bool;
}

/// What the loop knows about a request beyond its body.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestCtx {
    /// The connection opted into partial results with `AllowPartial`.
    pub allow_partial: bool,
    /// When the request's deadline passes, and the `deadline_ms` it
    /// carried; `None` without a deadline.
    pub deadline: Option<(Instant, u32)>,
}

/// What the loop counts, shared with the handler so `Stats` can report it.
/// A handler counts the errors and timeouts it answers itself into the
/// same counters.
#[derive(Default)]
pub struct LoopStats {
    /// Requests answered with an error, by the loop or the handler.
    pub errors: AtomicU64,
    /// Requests admitted and dispatched but not yet answered.
    pub(crate) in_flight: AtomicU64,
    /// Requests answered with [`Response::Timeout`].
    pub timeouts: AtomicU64,
    /// Requests rejected with [`Response::Overloaded`].
    pub rejected: AtomicU64,
    /// Per-connection in-flight gauges, so `Stats` (answered on a worker)
    /// can report live queue depths.
    conn_gauges: Mutex<HashMap<u64, Arc<AtomicU32>>>,
}

impl LoopStats {
    fn register_conn(&self, id: u64) -> Arc<AtomicU32> {
        let gauge = Arc::new(AtomicU32::new(0));
        self.conn_gauges
            .lock()
            .expect("conn gauge registry poisoned")
            .insert(id, Arc::clone(&gauge));
        gauge
    }

    fn unregister_conn(&self, id: u64) {
        self.conn_gauges
            .lock()
            .expect("conn gauge registry poisoned")
            .remove(&id);
    }

    /// Every open connection's in-flight count, deepest first.
    pub(crate) fn queue_depths(&self) -> Vec<u32> {
        let mut depths: Vec<u32> = self
            .conn_gauges
            .lock()
            .expect("conn gauge registry poisoned")
            .values()
            .map(|gauge| gauge.load(Ordering::Relaxed))
            .collect();
        depths.sort_unstable_by(|a, b| b.cmp(a));
        depths
    }
}

/// Idle iterations spent on `yield_now` before the loop starts parking.
/// Yields keep wake-up latency in the microseconds while any peer thread is
/// runnable; parking only kicks in once the server has been genuinely idle.
const IDLE_SPINS_BEFORE_PARK: u32 = 4096;

/// Longest single park; completions `unpark` the loop early, so this bounds
/// only the latency of events with no waker (new connections, new request
/// bytes).
const MAX_PARK: Duration = Duration::from_millis(1);

/// Stop reading from a connection whose un-flushed responses exceed this —
/// natural backpressure against a peer that sends but does not read.
const WBUF_SOFT_CAP: usize = 4 << 20;

/// Compact a buffer once its consumed prefix exceeds this.
const COMPACT_AT: usize = 64 << 10;

/// A finished request: the fully framed wire bytes plus enough routing to
/// deliver them (connection and request id).
struct Completion {
    conn_id: u64,
    request_id: u64,
    wire: Vec<u8>,
}

/// The queue dispatcher workers push finished responses onto, plus the
/// loop's thread handle (set when the loop starts) so a push can `unpark`
/// it out of its backoff.
#[derive(Default)]
pub(crate) struct Completions {
    queue: Mutex<Vec<Completion>>,
    loop_thread: OnceLock<std::thread::Thread>,
}

impl Completions {
    fn push(&self, done: Completion) {
        self.queue
            .lock()
            .expect("completion queue poisoned")
            .push(done);
        if let Some(thread) = self.loop_thread.get() {
            thread.unpark();
        }
    }

    fn take(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue.lock().expect("completion queue poisoned"))
    }
}

/// Per-connection state owned by the loop thread.
struct Conn {
    stream: TcpStream,
    /// The `Hello` handshake has completed: every later frame carries a
    /// [`FrameHeader`].
    greeted: bool,
    /// Negotiated per-connection in-flight cap.
    pipe_limit: u32,
    /// Set by `AllowPartial`; handed to the handler in [`RequestCtx`].
    allow_partial: bool,
    /// Read buffer: bytes `[rpos..]` are un-parsed.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Timestamp of the read that most recently appended to `rbuf`;
    /// deadlines are measured from here.
    read_at: Instant,
    /// When the connection was accepted; half-open hygiene measures the
    /// first-frame idle window from here.
    created: Instant,
    /// Write buffer: bytes `[wpos..]` are un-sent.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Requests admitted but not yet answered into `wbuf`.
    in_flight: u32,
    /// Mirror of `in_flight` readable by `Stats` workers.
    depth_gauge: Arc<AtomicU32>,
    /// Ids currently in flight (duplicates are rejected).
    live_ids: HashSet<u64>,
    /// No more requests will be read (EOF, broken framing, or drain).
    closed_read: bool,
    /// Remove the connection at the next sweep.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, depth_gauge: Arc<AtomicU32>) -> Conn {
        Conn {
            stream,
            greeted: false,
            pipe_limit: 1,
            allow_partial: false,
            rbuf: Vec::new(),
            rpos: 0,
            read_at: Instant::now(),
            created: Instant::now(),
            wbuf: Vec::new(),
            wpos: 0,
            in_flight: 0,
            depth_gauge,
            live_ids: HashSet::new(),
            closed_read: false,
            dead: false,
        }
    }

    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }

    /// True once nothing can ever be written to this connection again.
    fn finished(&self) -> bool {
        self.closed_read && self.in_flight == 0 && self.flushed()
    }

    fn set_in_flight(&mut self, n: u32) {
        self.in_flight = n;
        self.depth_gauge.store(n, Ordering::Relaxed);
    }
}

/// Frames one response into complete wire bytes (length prefix included),
/// with a [`FrameHeader`] echoing `request_id`, or bare for the handshake
/// reply (`None`).  A response too large for one frame is replaced by a
/// typed error — the client must not lose the connection over an oversized
/// batch result.
fn encode_wire(request_id: Option<u64>, response: &Response, stats: &LoopStats) -> Vec<u8> {
    let header_len = if request_id.is_some() {
        V2_HEADER_LEN
    } else {
        0
    };
    let mut body = response.encode();
    if header_len + body.len() > MAX_FRAME_LEN as usize {
        stats.errors.fetch_add(1, Ordering::Relaxed);
        body = Response::Error(format!(
            "response of {} bytes exceeds the {MAX_FRAME_LEN} byte frame cap; \
             split the batch into smaller requests",
            body.len()
        ))
        .encode();
    }
    let payload_len = (header_len + body.len()) as u32;
    let mut wire = Vec::with_capacity(4 + payload_len as usize);
    wire.extend_from_slice(&payload_len.to_le_bytes());
    if let Some(request_id) = request_id {
        FrameHeader {
            request_id,
            deadline_ms: 0,
        }
        .encode_into(&mut wire);
    }
    wire.extend_from_slice(&body);
    wire
}

/// Delivers a response produced on the loop thread (handshakes, rejections,
/// inline executions) straight into the write buffer.
fn deliver_now(conn: &mut Conn, request_id: Option<u64>, response: &Response, stats: &LoopStats) {
    let wire = encode_wire(request_id, response, stats);
    conn.wbuf.extend_from_slice(&wire);
}

/// Everything the per-connection handlers need besides the connection map —
/// split out so the loop can borrow `conns` mutably alongside it.
struct LoopCtx<H> {
    handler: Arc<H>,
    stats: Arc<LoopStats>,
    config: ServerConfig,
    dispatcher: Dispatcher,
    completions: Arc<Completions>,
}

/// The serving core: owns the listener, every connection, and the
/// dispatcher (`config.workers` workers, at least one).
pub(crate) struct EventLoop<H> {
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    ctx: LoopCtx<H>,
}

impl<H: Handler> EventLoop<H> {
    pub(crate) fn new(
        listener: TcpListener,
        handler: Arc<H>,
        stats: Arc<LoopStats>,
        config: ServerConfig,
    ) -> EventLoop<H> {
        EventLoop {
            listener: Some(listener),
            conns: HashMap::new(),
            next_conn_id: 0,
            ctx: LoopCtx {
                handler,
                stats,
                dispatcher: Dispatcher::new(config.workers),
                config,
                completions: Arc::default(),
            },
        }
    }

    /// Runs until `stop` (graceful drain) or `hard_stop` (abort) is set.
    pub(crate) fn run(mut self, stop: &AtomicBool, hard_stop: &AtomicBool) {
        self.ctx
            .completions
            .loop_thread
            .set(std::thread::current())
            .expect("an event loop runs once");
        let stats = Arc::clone(&self.ctx.stats);
        let mut scratch = vec![0u8; 64 << 10];
        let mut draining = false;
        let mut drain_deadline = Instant::now();
        let mut idle_iters: u32 = 0;
        let mut park = Duration::from_micros(50);
        loop {
            if hard_stop.load(Ordering::Acquire) {
                break;
            }
            if !draining && stop.load(Ordering::Acquire) {
                draining = true;
                drain_deadline = Instant::now() + self.ctx.config.drain_timeout;
                // Closing the listener refuses new connections at the OS
                // level; existing connections stop being read below.
                self.listener = None;
                for conn in self.conns.values_mut() {
                    conn.closed_read = true;
                }
            }
            let mut progress = false;

            // 1. Finished requests → write buffers, in completion order.
            for done in self.ctx.completions.take() {
                progress = true;
                stats.in_flight.fetch_sub(1, Ordering::Relaxed);
                if let Some(conn) = self.conns.get_mut(&done.conn_id) {
                    conn.set_in_flight(conn.in_flight.saturating_sub(1));
                    conn.live_ids.remove(&done.request_id);
                    conn.wbuf.extend_from_slice(&done.wire);
                }
            }

            // 2. New connections.
            if let Some(listener) = &self.listener {
                while self.conns.len() < self.ctx.config.max_connections {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            progress = true;
                            if stream.set_nonblocking(true).is_err()
                                || stream.set_nodelay(true).is_err()
                            {
                                continue;
                            }
                            let id = self.next_conn_id;
                            self.next_conn_id += 1;
                            let gauge = stats.register_conn(id);
                            self.conns.insert(id, Conn::new(stream, gauge));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
            }

            // 3. Per-connection I/O: read + parse + admit, then flush.
            let ctx = &self.ctx;
            for (&id, conn) in self.conns.iter_mut() {
                progress |= service_conn(ctx, id, conn, &mut scratch);
            }

            // 4. Reap connections with nothing left to do — plus half-open
            //    hygiene: a connection still waiting for its *first*
            //    complete frame past the idle window is dropped so a peer
            //    that accepts and goes silent cannot hold a slot (of
            //    max_connections) forever.  A greeted connection is never
            //    idle-reaped.
            let idle_timeout = self.ctx.config.idle_timeout;
            let now = Instant::now();
            self.conns.retain(|id, conn| {
                let half_open_expired = !conn.greeted
                    && idle_timeout.is_some_and(|t| now.duration_since(conn.created) >= t);
                let keep = !conn.dead && !conn.finished() && !half_open_expired;
                if !keep {
                    stats.unregister_conn(*id);
                }
                keep
            });

            // 5. Drain exit: every admitted request answered and flushed.
            if draining {
                let quiet = stats.in_flight.load(Ordering::Relaxed) == 0
                    && self.conns.values().all(Conn::flushed);
                if quiet || Instant::now() >= drain_deadline {
                    break;
                }
            }

            // 6. Backoff: spin while traffic is hot, park when idle.
            if progress {
                idle_iters = 0;
                park = Duration::from_micros(50);
            } else {
                idle_iters = idle_iters.saturating_add(1);
                if idle_iters < IDLE_SPINS_BEFORE_PARK {
                    std::thread::yield_now();
                } else {
                    std::thread::park_timeout(park);
                    park = (park * 2).min(MAX_PARK);
                }
            }
        }
        // Teardown: close sockets first so clients see EOF promptly, then
        // stop the workers (graceful drain already emptied the queue; the
        // hard path drops whatever is left).
        self.conns.clear();
        self.ctx.dispatcher.shutdown_now();
    }
}

/// One connection's turn: pull bytes, parse complete frames, admit or
/// reject each request, then push out whatever is writable.  Returns
/// whether anything happened (for the loop's backoff).
fn service_conn<H: Handler>(
    ctx: &LoopCtx<H>,
    id: u64,
    conn: &mut Conn,
    scratch: &mut [u8],
) -> bool {
    let mut progress = false;
    if !conn.closed_read && !conn.dead && conn.wbuf.len() - conn.wpos < WBUF_SOFT_CAP {
        progress |= read_some(conn, scratch);
        loop {
            match take_frame(conn) {
                Ok(Some(payload)) => handle_frame(ctx, id, conn, &payload),
                Ok(None) => break,
                Err(len) => {
                    // The length prefix itself is garbage: the byte stream
                    // can no longer be trusted.  Best-effort typed error,
                    // then close once it (and any pending work) flushes.
                    let stats = &ctx.stats;
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    let response = Response::Error(format!("frame of {len} bytes exceeds the cap"));
                    let request_id = conn.greeted.then_some(0);
                    deliver_now(conn, request_id, &response, stats);
                    conn.closed_read = true;
                    break;
                }
            }
        }
    }
    progress |= flush_some(conn);
    progress
}

/// Non-blocking read into the connection's buffer until the socket would
/// block.  EOF and errors mark the read side closed.
fn read_some(conn: &mut Conn, scratch: &mut [u8]) -> bool {
    let mut any = false;
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.closed_read = true;
                break;
            }
            Ok(n) => {
                any = true;
                conn.rbuf.extend_from_slice(&scratch[..n]);
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if any {
        conn.read_at = Instant::now();
    }
    any
}

/// Writes as much of the pending output as the socket accepts.
fn flush_some(conn: &mut Conn) -> bool {
    let mut any = false;
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                any = true;
                conn.wpos += n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > COMPACT_AT {
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
    any
}

/// Extracts the next complete frame payload, or `Err(len)` when the length
/// prefix exceeds the cap (framing is broken beyond recovery).
fn take_frame(conn: &mut Conn) -> Result<Option<Vec<u8>>, u64> {
    let avail = conn.rbuf.len() - conn.rpos;
    if avail < 4 {
        return Ok(None);
    }
    let len_bytes: [u8; 4] = conn.rbuf[conn.rpos..conn.rpos + 4]
        .try_into()
        .expect("4-byte slice");
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(u64::from(len));
    }
    let len = len as usize;
    if avail < 4 + len {
        return Ok(None);
    }
    let start = conn.rpos + 4;
    let payload = conn.rbuf[start..start + len].to_vec();
    conn.rpos = start + len;
    if conn.rpos == conn.rbuf.len() {
        conn.rbuf.clear();
        conn.rpos = 0;
    } else if conn.rpos > COMPACT_AT {
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
    }
    Ok(Some(payload))
}

/// Answers the handshake on an ungreeted connection; otherwise splits the
/// frame header and admits the request.
fn handle_frame<H: Handler>(ctx: &LoopCtx<H>, id: u64, conn: &mut Conn, payload: &[u8]) {
    let stats = &ctx.stats;
    if !conn.greeted {
        // The handshake reply is bare-framed: the client only switches to
        // headed frames after reading it.
        let (reply, granted) = negotiate(payload, ctx.config.max_pipeline);
        deliver_now(conn, None, &reply, stats);
        if let Some(depth) = granted {
            conn.greeted = true;
            conn.pipe_limit = depth;
        } else {
            // Close once the rejection flushes; frames already buffered
            // behind the bad first frame are dropped unread.
            stats.errors.fetch_add(1, Ordering::Relaxed);
            conn.closed_read = true;
            conn.rbuf.clear();
            conn.rpos = 0;
        }
        return;
    }
    match FrameHeader::split(payload) {
        Ok((header, body)) => {
            if !conn.live_ids.is_empty() && conn.live_ids.contains(&header.request_id) {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                let response = Response::Error(format!(
                    "request id {} is already in flight on this connection",
                    header.request_id
                ));
                deliver_now(conn, Some(header.request_id), &response, stats);
                return;
            }
            finish_decoded(
                ctx,
                id,
                conn,
                Request::decode(body),
                header.request_id,
                header.deadline_ms,
            );
        }
        Err(_) => {
            // Shorter than the frame header: framing is out of sync; close.
            stats.errors.fetch_add(1, Ordering::Relaxed);
            let response = Response::Error("v2 frame shorter than its 12-byte header".to_string());
            deliver_now(conn, Some(0), &response, stats);
            conn.closed_read = true;
        }
    }
}

/// Admission for one decoded request: malformed → typed error; over a cap →
/// `Overloaded`; expired → `Timeout`; `Hello` and `AllowPartial` → answered
/// here; otherwise run inline ([`Handler::runs_inline`]) or [`dispatch`]ed
/// to a worker.
fn finish_decoded<H: Handler>(
    ctx: &LoopCtx<H>,
    id: u64,
    conn: &mut Conn,
    decoded: Result<Request, crate::protocol::ProtocolError>,
    request_id: u64,
    deadline_ms: u32,
) {
    let stats = &ctx.stats;
    let request = match decoded {
        Ok(request) => request,
        Err(e) => {
            stats.errors.fetch_add(1, Ordering::Relaxed);
            let response = Response::Error(format!("malformed request: {e}"));
            deliver_now(conn, Some(request_id), &response, stats);
            return;
        }
    };
    // Per-connection, then global admission control.
    if conn.in_flight >= conn.pipe_limit {
        stats.rejected.fetch_add(1, Ordering::Relaxed);
        let response = Response::Overloaded {
            in_flight: conn.in_flight,
            limit: conn.pipe_limit,
        };
        deliver_now(conn, Some(request_id), &response, stats);
        return;
    }
    let global = stats.in_flight.load(Ordering::Relaxed);
    if global >= u64::from(ctx.config.max_in_flight) {
        stats.rejected.fetch_add(1, Ordering::Relaxed);
        let response = Response::Overloaded {
            in_flight: global.min(u64::from(u32::MAX)) as u32,
            limit: ctx.config.max_in_flight,
        };
        deliver_now(conn, Some(request_id), &response, stats);
        return;
    }
    let deadline =
        (deadline_ms > 0).then(|| conn.read_at + Duration::from_millis(u64::from(deadline_ms)));
    if deadline.is_some_and(|d| Instant::now() >= d) {
        stats.timeouts.fetch_add(1, Ordering::Relaxed);
        let response = Response::Timeout { deadline_ms };
        deliver_now(conn, Some(request_id), &response, stats);
        return;
    }
    let request_ctx = RequestCtx {
        allow_partial: conn.allow_partial,
        deadline: deadline.map(|d| (d, deadline_ms)),
    };
    let response = match request {
        Request::AllowPartial { enabled } => {
            conn.allow_partial = enabled;
            Response::PartialAck { enabled }
        }
        Request::Hello { .. } => {
            stats.errors.fetch_add(1, Ordering::Relaxed);
            Response::Error("Hello must be the first frame of a connection".to_string())
        }
        request if ctx.handler.runs_inline(&request, conn.in_flight, global) => {
            ctx.handler.respond(request, request_ctx)
        }
        request => return dispatch(ctx, id, conn, request, request_id, request_ctx),
    };
    deliver_now(conn, Some(request_id), &response, stats);
}

/// Hands an admitted request to a worker, which frames the response and
/// pushes it onto the completion queue, unparking the loop.
fn dispatch<H: Handler>(
    ctx: &LoopCtx<H>,
    id: u64,
    conn: &mut Conn,
    request: Request,
    request_id: u64,
    request_ctx: RequestCtx,
) {
    conn.live_ids.insert(request_id);
    conn.set_in_flight(conn.in_flight + 1);
    ctx.stats.in_flight.fetch_add(1, Ordering::Relaxed);
    let handler = Arc::clone(&ctx.handler);
    let stats = Arc::clone(&ctx.stats);
    let completions = Arc::clone(&ctx.completions);
    let submitted = ctx.dispatcher.submit(move || {
        let response = match request_ctx.deadline {
            Some((d, deadline_ms)) if Instant::now() >= d => {
                stats.timeouts.fetch_add(1, Ordering::Relaxed);
                Response::Timeout { deadline_ms }
            }
            _ => handler.respond(request, request_ctx),
        };
        let wire = encode_wire(Some(request_id), &response, &stats);
        completions.push(Completion {
            conn_id: id,
            request_id,
            wire,
        });
    });
    if !submitted {
        // Shutting down between the drain decision and this frame: answer
        // typed instead of going silent.
        let stats = &ctx.stats;
        stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        conn.set_in_flight(conn.in_flight.saturating_sub(1));
        conn.live_ids.remove(&request_id);
        stats.errors.fetch_add(1, Ordering::Relaxed);
        let response = Response::Error("server is shutting down".to_string());
        deliver_now(conn, Some(request_id), &response, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::IndexKind;
    use crate::server::{ServerState, INLINE_MAX_BOXES};
    use eclipse_core::exec::ExecutionContext;

    fn batch(boxes: usize, count: bool) -> Request {
        let name = "d".to_string();
        let boxes = vec![vec![(0.5, 2.0); 2]; boxes];
        if count {
            Request::CountBatch { name, boxes }
        } else {
            Request::QueryBatch { name, boxes }
        }
    }

    /// Every request variant the server's rule sees against it: whether it
    /// runs inline with nothing dispatched, and with one request dispatched
    /// from another connection (a heavy batch, say).  With its own
    /// connection busy, nothing runs inline, a `Ping` included; so a write
    /// never overtakes a dispatched request.  `Hello` and `AllowPartial`
    /// never reach a rule: the loop answers them itself.
    #[test]
    fn rule_table_covers_every_request() {
        let state = ServerState::new(ExecutionContext::serial());
        let name = || "d".to_string();
        let kind = IndexKind::Quadtree;
        let table: Vec<(Request, bool, bool)> = vec![
            (Request::Ping, true, true),
            (
                Request::Insert {
                    name: name(),
                    coords: vec![0.5; 3],
                },
                true,
                false,
            ),
            (
                Request::Delete {
                    name: name(),
                    id: 3,
                },
                true,
                false,
            ),
            (batch(1, false), true, false),
            (batch(INLINE_MAX_BOXES, false), true, false),
            (batch(INLINE_MAX_BOXES + 1, false), false, false),
            (batch(1, true), true, false),
            (batch(INLINE_MAX_BOXES, true), true, false),
            (batch(INLINE_MAX_BOXES + 1, true), false, false),
            (
                Request::LoadDataset {
                    name: name(),
                    dim: 3,
                    coords: vec![0.5; 3],
                    warm: kind,
                },
                false,
                false,
            ),
            (Request::BuildIndex { name: name(), kind }, false, false),
            (Request::SaveIndex { name: name(), kind }, false, false),
            (Request::RestoreIndex { name: name(), kind }, false, false),
            (Request::LoadSnapshots, false, false),
            (Request::Stats, false, false),
        ];
        for (request, idle, other_busy) in &table {
            assert_eq!(state.runs_inline(request, 0, 0), *idle, "{request:?}, idle");
            assert_eq!(
                state.runs_inline(request, 0, 1),
                *other_busy,
                "{request:?}, another connection busy"
            );
            assert!(
                !state.runs_inline(request, 1, 1),
                "{request:?}, own connection busy"
            );
        }
    }
}
