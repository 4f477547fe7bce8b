//! The shard router: speaks the eclipse-serve wire protocol to clients
//! (the `Hello` handshake, then protocol v2), partitions datasets across N
//! backend eclipse-serve processes, scatters probe batches over pipelined
//! connections, and merges replies in probe order.
//!
//! # Placement
//!
//! * **Hashed** (default): a dataset lives on exactly one member, chosen
//!   by `fnv1a(name) % members` — the slot is stable across address swaps,
//!   so a standby promoted into a slot inherits its datasets (from shared
//!   snapshots) without any remapping.
//! * **Replicated** ([`RouterConfig::replicated`] names): every member
//!   holds the full dataset, and a probe batch is *probe-space
//!   partitioned* — contiguous chunks of the batch scatter across all
//!   routable members in parallel and merge back in probe order.  Any
//!   chunk can be retried on any other member.
//!
//! # Robustness
//!
//! * an active health loop pings every member on a cadence
//!   ([`HealthPolicy`]), with consecutive-failure thresholds and half-open
//!   probation before a recovered member takes traffic again;
//! * per-request retries use capped exponential backoff with
//!   deterministic jitter, are **idempotent-only**, and draw from a global
//!   [`RetryBudget`] so retries cannot amplify an overload;
//! * when a member dies and a standby is configured, the router re-warms
//!   the standby from the shared snapshot directory (`LoadSnapshots`) and
//!   promotes it into the dead member's slot, recording a timed
//!   [`FailoverEvent`];
//! * clients that opt in with `AllowPartial` get typed
//!   [`Response::PartialResults`]/[`Response::PartialCounts`] — per-box
//!   `None` for shards that are down — instead of hard errors.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eclipse_persist::fnv1a;
use eclipse_serve::client::{Client, ClientError, PipelinedClient};
use eclipse_serve::protocol::{
    negotiate, write_frame, FrameHeader, Request, Response, StatsReport, MAX_FRAME_LEN,
};

use crate::health::{HealthMachine, HealthPolicy, HealthState, Transition};
use crate::retry::{is_idempotent, RetryBudget, RetryPolicy};

/// Everything the router needs to know at bind time.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Backend `host:port` addresses, one per shard slot.  Slot order is
    /// the placement function's domain — keep it stable across restarts.
    pub backends: Vec<String>,
    /// Standby backends: idle processes (sharing the snapshot directory)
    /// that get re-warmed and promoted into a dead member's slot.
    pub standbys: Vec<String>,
    /// Dataset names served by **every** member with probe-space
    /// partitioning, instead of hash placement on one member.
    pub replicated: Vec<String>,
    /// Pipeline depth of each backend connection.
    pub pipe_size: u32,
    /// TCP connect budget per backend dial.
    pub connect_timeout: Duration,
    /// Socket read/write budget per backend operation.
    pub io_timeout: Duration,
    /// Socket budget for a failover re-warm (`LoadSnapshots` decodes whole
    /// indexes — give it more room than a probe).
    pub rewarm_timeout: Duration,
    /// Health-check thresholds and cadence.
    pub health: HealthPolicy,
    /// Retry/backoff/budget policy.
    pub retry: RetryPolicy,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            backends: Vec::new(),
            standbys: Vec::new(),
            replicated: Vec::new(),
            pipe_size: 32,
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(2),
            rewarm_timeout: Duration::from_secs(30),
            health: HealthPolicy::default(),
            retry: RetryPolicy::default(),
        }
    }
}

impl RouterConfig {
    /// A config routing to `backends` with every other knob at default.
    pub fn new<S: Into<String>>(backends: impl IntoIterator<Item = S>) -> RouterConfig {
        RouterConfig {
            backends: backends.into_iter().map(Into::into).collect(),
            ..RouterConfig::default()
        }
    }
}

/// One completed failover or in-place recovery, with its measured cost.
#[derive(Clone, Debug)]
pub struct FailoverEvent {
    /// The shard slot that was recovered.
    pub slot: usize,
    /// Address the slot pointed at when it died.
    pub from_addr: String,
    /// Address serving the slot now (equal to `from_addr` for an in-place
    /// recovery of a restarted backend).
    pub to_addr: String,
    /// End-to-end re-warm time: connect + ping + `LoadSnapshots` until the
    /// member was routable again, in milliseconds.
    pub rewarm_ms: u64,
    /// Datasets the re-warm restored from snapshots.
    pub datasets_restored: usize,
    /// Snapshot files the re-warm skipped as corrupt/stale.
    pub snapshots_skipped: usize,
}

/// One shard slot: a stable placement target whose *address* may change
/// when a standby is promoted into it.
struct Member {
    addr: Mutex<String>,
    /// Bumped on every address swap; serving threads drop cached
    /// connections whose epoch is stale.
    epoch: AtomicU64,
    health: Mutex<HealthMachine>,
}

impl Member {
    fn new(addr: String) -> Member {
        Member {
            addr: Mutex::new(addr),
            epoch: AtomicU64::new(0),
            health: Mutex::new(HealthMachine::new()),
        }
    }

    fn addr(&self) -> String {
        self.addr.lock().expect("member addr poisoned").clone()
    }

    fn state(&self) -> HealthState {
        self.health.lock().expect("member health poisoned").state()
    }
}

/// State shared by the accept loop, serving threads, and the health loop.
struct Shared {
    config: RouterConfig,
    members: Vec<Member>,
    standbys: Mutex<Vec<String>>,
    budget: RetryBudget,
    failovers: Mutex<Vec<FailoverEvent>>,
    /// Monotone counter seeding retry jitter deterministically.
    retry_seq: AtomicU64,
    stop: AtomicBool,
}

impl Shared {
    fn replicated(&self, name: &str) -> bool {
        self.config.replicated.iter().any(|r| r == name)
    }

    fn owner_slot(&self, name: &str) -> usize {
        (fnv1a(name.as_bytes()) % self.members.len() as u64) as usize
    }

    fn routable_slots(&self) -> Vec<usize> {
        (0..self.members.len())
            .filter(|&slot| {
                self.members[slot]
                    .health
                    .lock()
                    .expect("member health poisoned")
                    .is_routable()
            })
            .collect()
    }

    /// Slots a dataset's non-probe operations fan out to.
    fn placement_slots(&self, name: &str) -> Vec<usize> {
        if self.replicated(name) {
            self.routable_slots()
        } else {
            vec![self.owner_slot(name)]
        }
    }

    fn note_success(&self, slot: usize) {
        self.members[slot]
            .health
            .lock()
            .expect("member health poisoned")
            .on_success(&self.config.health);
    }

    fn note_failure(&self, slot: usize) {
        // A passive WentDown is acted on by the health loop's next tick
        // (promotion/recovery); the serving path only records it.
        self.members[slot]
            .health
            .lock()
            .expect("member health poisoned")
            .on_failure(&self.config.health);
    }
}

/// A bound (but not yet serving) router.
pub struct Router {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Router {
    /// Binds the client-facing listener.  Backends are *not* dialed here —
    /// the health loop and the first routed request establish connections,
    /// so a router can come up before its backends.
    ///
    /// # Errors
    /// `InvalidInput` when `config.backends` is empty; socket errors.
    pub fn bind(addr: impl ToSocketAddrs, config: RouterConfig) -> io::Result<Router> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let members = config.backends.iter().cloned().map(Member::new).collect();
        let standbys = Mutex::new(config.standbys.clone());
        let budget = RetryBudget::new(&config.retry);
        Ok(Router {
            listener,
            shared: Arc::new(Shared {
                config,
                members,
                standbys,
                budget,
                failovers: Mutex::new(Vec::new()),
                retry_seq: AtomicU64::new(0),
                stop: AtomicBool::new(false),
            }),
        })
    }

    /// The client-facing address.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the accept loop and the health loop on background threads.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn spawn(self) -> io::Result<RouterHandle> {
        let addr = self.listener.local_addr()?;
        self.listener.set_nonblocking(true)?;
        let accept_thread = {
            let shared = Arc::clone(&self.shared);
            let listener = self.listener;
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let health_thread = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || health_loop(&shared))
        };
        Ok(RouterHandle {
            addr,
            shared: self.shared,
            accept_thread: Some(accept_thread),
            health_thread: Some(health_thread),
        })
    }
}

/// A running router; dropping it (or calling [`RouterHandle::shutdown`])
/// stops both loops and joins every serving thread.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    health_thread: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The client-facing address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current `(address, health)` per shard slot — observability for
    /// operators and the deflake-free test harness.
    pub fn member_states(&self) -> Vec<(String, HealthState)> {
        self.shared
            .members
            .iter()
            .map(|m| (m.addr(), m.state()))
            .collect()
    }

    /// Every failover/recovery the router has completed, oldest first.
    pub fn failovers(&self) -> Vec<FailoverEvent> {
        self.shared
            .failovers
            .lock()
            .expect("failover log poisoned")
            .clone()
    }

    /// The standby addresses not yet promoted or discarded.  A pool that
    /// shrinks without a matching [`FailoverEvent`] means a standby was
    /// found non-viable (unreachable, or its re-warm failed) and dropped.
    pub fn standbys(&self) -> Vec<String> {
        self.shared
            .standbys
            .lock()
            .expect("standby list poisoned")
            .clone()
    }

    /// Whole retry tokens currently in the budget.
    pub fn retry_budget_available(&self) -> u64 {
        self.shared.budget.available()
    }

    /// Stops accepting, tears down serving threads, and joins the loops.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.health_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

// ---------------------------------------------------------------------------
// Accept + per-client serving
// ---------------------------------------------------------------------------

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut serving: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                serving.push(std::thread::spawn(move || serve_client(&shared, stream)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
        serving.retain(|t| !t.is_finished());
    }
    for t in serving {
        let _ = t.join();
    }
}

/// Client-facing framing, mirroring the server: the first frame must be a
/// `Hello` for protocol v2 ([`negotiate`], with a depth cap of 128), and
/// anything else is answered with a typed error before the connection
/// closes.  Requests are processed strictly in order; the parallelism lives
/// in the scatter across backends.
fn serve_client(shared: &Arc<Shared>, stream: TcpStream) {
    if stream.set_nodelay(true).is_err() {
        return;
    }
    // Short read timeout so the thread notices shutdown promptly; the
    // accumulating reader makes timeouts between bytes harmless.
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => io::BufWriter::new(w),
        Err(_) => return,
    };
    let mut reader = ClientFrames::new(stream);
    let Ok(Some(first)) = reader.next_frame(&shared.stop) else {
        return;
    };
    let (reply, granted) = negotiate(&first, 128);
    let sent = write_frame(&mut writer, &reply.encode()).and_then(|()| writer.flush());
    if sent.is_err() || granted.is_none() {
        return;
    }
    let mut conns = BackendConns::default();
    let mut allow_partial = false;
    loop {
        let payload = match reader.next_frame(&shared.stop) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => return,
        };
        let read_at = Instant::now();
        let Ok((header, body)) = FrameHeader::split(&payload) else {
            return;
        };
        let deadline_ms = header.deadline_ms;
        let response = match Request::decode(body) {
            Err(e) => Response::Error(format!("malformed request: {e}")),
            Ok(request) => {
                let expired = deadline_ms > 0
                    && read_at.elapsed() >= Duration::from_millis(u64::from(deadline_ms));
                if expired {
                    Response::Timeout { deadline_ms }
                } else {
                    handle_request(shared, &mut conns, &mut allow_partial, request)
                }
            }
        };
        let wire = FrameHeader {
            request_id: header.request_id,
            deadline_ms: 0,
        }
        .with_body(&response.encode());
        if write_frame(&mut writer, &wire)
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

/// Accumulating frame reader for the client-facing socket: timeouts
/// between reads are polling ticks (stop-flag checks), not errors, and a
/// frame split across reads is reassembled.
struct ClientFrames {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

impl ClientFrames {
    fn new(stream: TcpStream) -> ClientFrames {
        ClientFrames {
            stream,
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn next_frame(&mut self, stop: &AtomicBool) -> io::Result<Option<Vec<u8>>> {
        let mut scratch = [0u8; 16 << 10];
        loop {
            if let Some(frame) = self.take_buffered()? {
                return Ok(Some(frame));
            }
            if stop.load(Ordering::Acquire) {
                return Ok(None);
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => return Ok(None),
                Ok(n) => self.buf.extend_from_slice(&scratch[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn take_buffered(&mut self) -> io::Result<Option<Vec<u8>>> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.pos..self.pos + 4]
            .try_into()
            .expect("4-byte slice");
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame exceeds cap",
            ));
        }
        let len = len as usize;
        if avail < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        let frame = self.buf[start..start + len].to_vec();
        self.pos = start + len;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(Some(frame))
    }
}

// ---------------------------------------------------------------------------
// Backend connections
// ---------------------------------------------------------------------------

/// Per-serving-thread cache of pipelined backend connections, keyed by
/// slot and validated against the member's epoch (a promoted standby bumps
/// the epoch, so stale connections to the dead address are dropped).
#[derive(Default)]
struct BackendConns {
    map: HashMap<usize, (u64, PipelinedClient)>,
}

impl BackendConns {
    fn get_or_connect(
        &mut self,
        shared: &Shared,
        slot: usize,
    ) -> Result<&mut PipelinedClient, ClientError> {
        let member = &shared.members[slot];
        let epoch = member.epoch.load(Ordering::Acquire);
        if self
            .map
            .get(&slot)
            .is_some_and(|(cached, _)| *cached != epoch)
        {
            self.map.remove(&slot);
        }
        if let std::collections::hash_map::Entry::Vacant(entry) = self.map.entry(slot) {
            let addr = member.addr();
            let mut client = PipelinedClient::connect_timeout(
                addr.as_str(),
                shared.config.pipe_size,
                shared.config.connect_timeout,
            )?;
            client.set_io_timeout(Some(shared.config.io_timeout))?;
            entry.insert((epoch, client));
        }
        Ok(&mut self.map.get_mut(&slot).expect("just inserted").1)
    }

    /// Drops a connection whose transport failed (it may be desynced).
    fn discard(&mut self, slot: usize) {
        self.map.remove(&slot);
    }
}

/// How a backend failure routes.
enum Failure {
    /// The backend executed and answered an error — deterministic; return
    /// it to the client, never retry, no health penalty.
    Deterministic(String),
    /// Typed flow control (`Overloaded`/`Timeout`): the backend is alive;
    /// retryable without a health penalty.
    FlowControl(String),
    /// Transport-level (timeout, closed, garbage): health penalty, the
    /// connection is discarded, retryable.
    Transport(String),
    /// Typed `DatasetUnavailable`: the backend is alive and answered, but
    /// could not restore an evicted dataset from its snapshot. Deterministic
    /// for that member (retrying it cannot help), no health penalty.
    DatasetUnavailable { name: String, reason: String },
}

fn classify(e: &ClientError) -> Failure {
    match e {
        ClientError::Server(m) => Failure::Deterministic(m.clone()),
        ClientError::InvalidRequest(m) => Failure::Deterministic(m.clone()),
        ClientError::UnexpectedResponse(_) => Failure::Deterministic(e.to_string()),
        ClientError::Overloaded { .. } | ClientError::TimedOut { .. } => {
            Failure::FlowControl(e.to_string())
        }
        ClientError::DatasetUnavailable { name, reason } => Failure::DatasetUnavailable {
            name: name.clone(),
            reason: reason.clone(),
        },
        ClientError::SocketTimeout
        | ClientError::ConnectionClosed
        | ClientError::Io(_)
        | ClientError::Protocol(_) => Failure::Transport(e.to_string()),
    }
}

/// Why a routed call gave up.
enum RouteError {
    /// A backend's own (deterministic) error response.
    Deterministic(String),
    /// A backend answered the typed `DatasetUnavailable` response: it is
    /// healthy but cannot restore the named evicted dataset. Re-emitted
    /// typed so clients can distinguish it from a routing failure.
    DatasetUnavailable { name: String, reason: String },
    /// No member could serve it: every candidate down, retries exhausted,
    /// or the retry budget refused.
    Unavailable(String),
}

/// Heavy operations (engine builds, snapshot encodes/decodes) get the
/// generous re-warm budget; probes keep the tight probe budget so a stuck
/// member is detected quickly.
fn is_heavy(request: &Request) -> bool {
    matches!(
        request,
        Request::LoadDataset { .. }
            | Request::BuildIndex { .. }
            | Request::RestoreIndex { .. }
            | Request::SaveIndex { .. }
            | Request::LoadSnapshots
    )
}

/// One attempt against one slot.
fn execute_on(
    shared: &Shared,
    conns: &mut BackendConns,
    slot: usize,
    request: &Request,
) -> Result<Response, ClientError> {
    let heavy = is_heavy(request);
    let conn = conns.get_or_connect(shared, slot)?;
    if heavy {
        conn.set_io_timeout(Some(shared.config.rewarm_timeout))?;
    }
    let result = conn.call(request);
    if heavy {
        let _ = conn.set_io_timeout(Some(shared.config.io_timeout));
    }
    if let Err(e) = &result {
        if matches!(classify(e), Failure::Transport(_)) {
            conns.discard(slot);
        }
    }
    result
}

/// The retry loop: rotates over `candidates`, pays backoff between
/// attempts, spends the budget, and applies the idempotent-only rule.
fn call_with_retry(
    shared: &Shared,
    conns: &mut BackendConns,
    candidates: &[usize],
    request: &Request,
) -> Result<Response, RouteError> {
    shared.budget.deposit();
    if candidates.is_empty() {
        return Err(RouteError::Unavailable(
            "no routable member for this request".to_string(),
        ));
    }
    let idempotent = is_idempotent(request);
    let max_attempts = if idempotent {
        shared.config.retry.max_attempts.max(1)
    } else {
        1
    };
    let seed = shared.retry_seq.fetch_add(1, Ordering::Relaxed);
    let mut last = String::new();
    for attempt in 1..=max_attempts {
        let slot = candidates[(attempt as usize - 1) % candidates.len()];
        match execute_on(shared, conns, slot, request) {
            Ok(response) => {
                shared.note_success(slot);
                return Ok(response);
            }
            Err(e) => match classify(&e) {
                Failure::Deterministic(m) => return Err(RouteError::Deterministic(m)),
                Failure::DatasetUnavailable { name, reason } => {
                    return Err(RouteError::DatasetUnavailable { name, reason })
                }
                Failure::FlowControl(m) => last = m,
                Failure::Transport(m) => {
                    shared.note_failure(slot);
                    last = m;
                }
            },
        }
        if attempt < max_attempts {
            if !shared.budget.try_spend() {
                return Err(RouteError::Unavailable(format!(
                    "retry budget exhausted after: {last}"
                )));
            }
            std::thread::sleep(shared.config.retry.backoff(attempt, seed));
        }
    }
    Err(RouteError::Unavailable(last))
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

fn handle_request(
    shared: &Shared,
    conns: &mut BackendConns,
    allow_partial: &mut bool,
    request: Request,
) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Hello { .. } => {
            Response::Error("Hello must be the first frame of a connection".to_string())
        }
        Request::AllowPartial { enabled } => {
            *allow_partial = enabled;
            Response::PartialAck { enabled }
        }
        Request::Stats => merged_stats(shared, conns),
        Request::LoadSnapshots => fan_load_snapshots(shared, conns),
        Request::QueryBatch {
            ref name,
            ref boxes,
        } => route_probes(shared, conns, *allow_partial, &request, name, boxes.len()),
        Request::CountBatch {
            ref name,
            ref boxes,
        } => route_probes(shared, conns, *allow_partial, &request, name, boxes.len()),
        // Mutations route exactly like the other placement-scoped dataset
        // operations, but are classified non-idempotent by the retry layer:
        // a transport failure mid-mutation surfaces as a typed error instead
        // of a silent replay that could double-apply.
        Request::LoadDataset { ref name, .. }
        | Request::BuildIndex { ref name, .. }
        | Request::RestoreIndex { ref name, .. }
        | Request::Insert { ref name, .. }
        | Request::Delete { ref name, .. } => {
            let name = name.clone();
            fan_to_placement(shared, conns, &name, &request)
        }
        Request::SaveIndex { ref name, .. } => {
            // One copy in the shared snapshot dir is enough: the owner for
            // hashed placement, any routable member for replicated.
            let slot = if shared.replicated(name) {
                match shared.routable_slots().first().copied() {
                    Some(slot) => slot,
                    None => return Response::Error("no routable member".to_string()),
                }
            } else {
                shared.owner_slot(name)
            };
            match call_with_retry(shared, conns, &[slot], &request) {
                Ok(response) => response,
                Err(RouteError::Deterministic(m)) => Response::Error(m),
                Err(RouteError::DatasetUnavailable { name, reason }) => {
                    Response::DatasetUnavailable { name, reason }
                }
                Err(RouteError::Unavailable(m)) => {
                    Response::Error(format!("shard unavailable: {m}"))
                }
            }
        }
    }
}

/// Non-probe dataset operations fan to every placement slot (owner, or all
/// routable members for replicated datasets); the first summary answers.
///
/// The fan is all-or-typed-error: every slot is attempted even after a
/// failure (aborting mid-loop would leave replicas desynced with the caller
/// none the wiser), and if any member missed the operation the caller gets
/// an error naming exactly which members applied it and which did not.
fn fan_to_placement(
    shared: &Shared,
    conns: &mut BackendConns,
    name: &str,
    request: &Request,
) -> Response {
    let slots = shared.placement_slots(name);
    if slots.is_empty() {
        return Response::Error("no routable member".to_string());
    }
    let total = slots.len();
    let mut first: Option<Response> = None;
    let mut failures: Vec<(usize, RouteError)> = Vec::new();
    for slot in slots {
        match call_with_retry(shared, conns, &[slot], request) {
            Ok(response) => {
                first.get_or_insert(response);
            }
            Err(e) => failures.push((slot, e)),
        }
    }
    if failures.is_empty() {
        return first.expect("at least one slot answered");
    }
    // Single-member placement: nothing was partially applied, so the lone
    // failure passes through with its original shape (typed stays typed).
    if total == 1 {
        return match failures.remove(0) {
            (_, RouteError::Deterministic(m)) => Response::Error(m),
            (_, RouteError::DatasetUnavailable { name, reason }) => {
                Response::DatasetUnavailable { name, reason }
            }
            (slot, RouteError::Unavailable(m)) => {
                Response::Error(format!("shard {slot} unavailable: {m}"))
            }
        };
    }
    let applied = total - failures.len();
    let detail: Vec<String> = failures
        .iter()
        .map(|(slot, e)| match e {
            RouteError::Deterministic(m) => format!("shard {slot}: {m}"),
            RouteError::DatasetUnavailable { reason, .. } => {
                format!("shard {slot}: dataset unavailable: {reason}")
            }
            RouteError::Unavailable(m) => format!("shard {slot}: unavailable: {m}"),
        })
        .collect();
    Response::Error(format!(
        "replicated operation on {name:?} applied to {applied}/{total} members; \
         failed: {}",
        detail.join("; ")
    ))
}

/// `LoadSnapshots` fans to every routable member and merges the scans.
fn fan_load_snapshots(shared: &Shared, conns: &mut BackendConns) -> Response {
    let slots = shared.routable_slots();
    if slots.is_empty() {
        return Response::Error("no routable member".to_string());
    }
    let mut restored = Vec::new();
    let mut skipped = Vec::new();
    for slot in slots {
        match call_with_retry(shared, conns, &[slot], &Request::LoadSnapshots) {
            Ok(Response::SnapshotsLoaded {
                restored: r,
                skipped: s,
            }) => {
                for entry in r {
                    if !restored.iter().any(|(n, _)| *n == entry.0) {
                        restored.push(entry);
                    }
                }
                for entry in s {
                    if !skipped.iter().any(|(p, _)| *p == entry.0) {
                        skipped.push(entry);
                    }
                }
            }
            Ok(_) => return Response::Error("unexpected response to LoadSnapshots".to_string()),
            Err(RouteError::Deterministic(m)) => return Response::Error(m),
            Err(RouteError::DatasetUnavailable { name, reason }) => {
                return Response::DatasetUnavailable { name, reason }
            }
            Err(RouteError::Unavailable(m)) => {
                return Response::Error(format!("shard unavailable: {m}"))
            }
        }
    }
    Response::SnapshotsLoaded { restored, skipped }
}

/// `Stats` merges every reachable member's report (members that cannot
/// answer are skipped — stats are observability, not correctness).
fn merged_stats(shared: &Shared, conns: &mut BackendConns) -> Response {
    let mut merged = StatsReport {
        query_batches: 0,
        count_batches: 0,
        probes: 0,
        errors: 0,
        in_flight: 0,
        timeouts: 0,
        rejected: 0,
        conn_queue_depths: Vec::new(),
        total_bytes: 0,
        memory_budget: 0,
        evictions: 0,
        reloads: 0,
        datasets: Vec::new(),
    };
    for slot in shared.routable_slots() {
        if let Ok(Response::Stats(report)) =
            call_with_retry(shared, conns, &[slot], &Request::Stats)
        {
            merged.query_batches += report.query_batches;
            merged.count_batches += report.count_batches;
            merged.probes += report.probes;
            merged.errors += report.errors;
            merged.in_flight += report.in_flight;
            merged.timeouts += report.timeouts;
            merged.rejected += report.rejected;
            merged.conn_queue_depths.extend(report.conn_queue_depths);
            merged.total_bytes += report.total_bytes;
            merged.memory_budget += report.memory_budget;
            merged.evictions += report.evictions;
            merged.reloads += report.reloads;
            for dataset in report.datasets {
                match merged.datasets.iter_mut().find(|d| d.name == dataset.name) {
                    None => merged.datasets.push(dataset),
                    // Replicated datasets report once per member: one row
                    // per name, the highest-epoch member authoritative for
                    // the engine shape, capacity and residency aggregated
                    // across members.
                    Some(existing) => {
                        if dataset.epoch > existing.epoch {
                            existing.epoch = dataset.epoch;
                            existing.points = dataset.points;
                            existing.dim = dataset.dim;
                            existing.skyline_len = dataset.skyline_len;
                            existing.intersections = dataset.intersections;
                            existing.root_crossings = dataset.root_crossings;
                        }
                        existing.bytes += dataset.bytes;
                        existing.quad_built |= dataset.quad_built;
                        existing.cutting_built |= dataset.cutting_built;
                        existing.resident |= dataset.resident;
                    }
                }
            }
        }
    }
    merged.datasets.sort_by(|a, b| a.name.cmp(&b.name));
    Response::Stats(merged)
}

/// Rows of one scattered chunk, polymorphic over query/count batches.
enum ChunkRows {
    Query(Vec<Vec<u64>>),
    Counts(Vec<u64>),
}

fn response_rows(response: Response, expected: usize) -> Result<ChunkRows, String> {
    match response {
        Response::QueryResults(rows) if rows.len() == expected => Ok(ChunkRows::Query(rows)),
        Response::Counts(counts) if counts.len() == expected => Ok(ChunkRows::Counts(counts)),
        Response::QueryResults(rows) => Err(format!(
            "backend answered {} rows for {expected} probes",
            rows.len()
        )),
        Response::Counts(counts) => Err(format!(
            "backend answered {} counts for {expected} probes",
            counts.len()
        )),
        _ => Err("unexpected response to a probe batch".to_string()),
    }
}

/// Probe routing: hashed datasets go whole-batch to their owner;
/// replicated datasets are probe-space partitioned across every routable
/// member, scattered in parallel over the pipelined connections, retried
/// per chunk, and merged in probe order.
fn route_probes(
    shared: &Shared,
    conns: &mut BackendConns,
    allow_partial: bool,
    request: &Request,
    name: &str,
    n_boxes: usize,
) -> Response {
    let (is_query, boxes) = match request {
        Request::QueryBatch { boxes, .. } => (true, boxes),
        Request::CountBatch { boxes, .. } => (false, boxes),
        _ => unreachable!("route_probes only sees probe batches"),
    };
    if !shared.replicated(name) {
        let owner = shared.owner_slot(name);
        let candidates: Vec<usize> = if shared.members[owner]
            .health
            .lock()
            .expect("member health poisoned")
            .is_routable()
        {
            vec![owner]
        } else {
            Vec::new()
        };
        return match call_with_retry(shared, conns, &candidates, request) {
            Ok(response) => response,
            Err(RouteError::Deterministic(m)) => Response::Error(m),
            Err(RouteError::DatasetUnavailable { name, reason }) => {
                Response::DatasetUnavailable { name, reason }
            }
            Err(RouteError::Unavailable(m)) => {
                degraded_or_error(allow_partial, is_query, n_boxes, &m)
            }
        };
    }

    // Replicated: contiguous probe-space chunks, one per routable member.
    let slots = shared.routable_slots();
    if slots.is_empty() {
        return degraded_or_error(allow_partial, is_query, n_boxes, "no routable member");
    }
    let k = slots.len().min(n_boxes.max(1));
    let base = n_boxes / k;
    let rem = n_boxes % k;
    let mut chunks: Vec<(usize, std::ops::Range<usize>)> = Vec::with_capacity(k);
    let mut start = 0usize;
    for (i, &slot) in slots.iter().take(k).enumerate() {
        let len = base + usize::from(i < rem);
        chunks.push((slot, start..start + len));
        start += len;
    }

    let sub_request = |range: &std::ops::Range<usize>| -> Request {
        let chunk_boxes = boxes[range.clone()].to_vec();
        if is_query {
            Request::QueryBatch {
                name: name.to_string(),
                boxes: chunk_boxes,
            }
        } else {
            Request::CountBatch {
                name: name.to_string(),
                boxes: chunk_boxes,
            }
        }
    };

    // Phase 1 — optimistic scatter: submit every chunk on its member's
    // pipelined connection, flush, then collect.
    let mut submitted: Vec<Option<u64>> = vec![None; chunks.len()];
    for (i, (slot, range)) in chunks.iter().enumerate() {
        if range.is_empty() {
            continue;
        }
        let request = sub_request(range);
        if let Ok(conn) = conns.get_or_connect(shared, *slot) {
            if let Ok(id) = conn.submit(&request) {
                submitted[i] = Some(id);
                continue;
            }
        }
        shared.note_failure(*slot);
        conns.discard(*slot);
    }
    for (slot, _) in &chunks {
        if let Some((_, conn)) = conns.map.get_mut(slot) {
            if conn.flush().is_err() {
                conns.discard(*slot);
            }
        }
    }
    let mut rows: Vec<Option<ChunkRows>> = Vec::with_capacity(chunks.len());
    for (i, (slot, range)) in chunks.iter().enumerate() {
        if range.is_empty() {
            rows.push(Some(if is_query {
                ChunkRows::Query(Vec::new())
            } else {
                ChunkRows::Counts(Vec::new())
            }));
            continue;
        }
        let received = submitted[i].and_then(|id| {
            let (_, conn) = conns.map.get_mut(slot)?;
            match conn.recv(id) {
                Ok(response) => Some(Ok(response)),
                Err(e) => Some(Err(e)),
            }
        });
        match received {
            Some(Ok(response)) => match response_rows(response, range.len()) {
                Ok(chunk_rows) => {
                    shared.note_success(*slot);
                    rows.push(Some(chunk_rows));
                }
                Err(m) => return Response::Error(m),
            },
            Some(Err(e)) => match classify(&e) {
                Failure::Deterministic(m) => return Response::Error(m),
                Failure::DatasetUnavailable { name, reason } => {
                    return Response::DatasetUnavailable { name, reason }
                }
                Failure::FlowControl(_) => rows.push(None),
                Failure::Transport(_) => {
                    shared.note_failure(*slot);
                    conns.discard(*slot);
                    rows.push(None);
                }
            },
            None => rows.push(None),
        }
    }

    // Phase 2 — per-chunk retry on whoever is still standing.
    for (i, (_, range)) in chunks.iter().enumerate() {
        if rows[i].is_some() {
            continue;
        }
        let request = sub_request(range);
        let candidates = shared.routable_slots();
        match call_with_retry(shared, conns, &candidates, &request) {
            Ok(response) => match response_rows(response, range.len()) {
                Ok(chunk_rows) => rows[i] = Some(chunk_rows),
                Err(m) => return Response::Error(m),
            },
            Err(RouteError::Deterministic(m)) => return Response::Error(m),
            Err(RouteError::DatasetUnavailable { name, reason }) => {
                return Response::DatasetUnavailable { name, reason }
            }
            Err(RouteError::Unavailable(_)) => {}
        }
    }

    // Merge in probe order.
    if is_query {
        let mut merged: Vec<Option<Vec<u64>>> = Vec::with_capacity(n_boxes);
        let mut complete = true;
        for (i, (_, range)) in chunks.iter().enumerate() {
            match rows[i].take() {
                Some(ChunkRows::Query(chunk)) => merged.extend(chunk.into_iter().map(Some)),
                Some(ChunkRows::Counts(_)) => {
                    return Response::Error("count rows for a query batch".to_string())
                }
                None => {
                    complete = false;
                    merged.extend(std::iter::repeat_with(|| None).take(range.len()));
                }
            }
        }
        if complete {
            Response::QueryResults(merged.into_iter().map(|r| r.expect("complete")).collect())
        } else if allow_partial {
            Response::PartialResults(merged)
        } else {
            Response::Error(
                "one or more shards are unavailable (opt in with AllowPartial for degraded reads)"
                    .to_string(),
            )
        }
    } else {
        let mut merged: Vec<Option<u64>> = Vec::with_capacity(n_boxes);
        let mut complete = true;
        for (i, (_, range)) in chunks.iter().enumerate() {
            match rows[i].take() {
                Some(ChunkRows::Counts(chunk)) => merged.extend(chunk.into_iter().map(Some)),
                Some(ChunkRows::Query(_)) => {
                    return Response::Error("query rows for a count batch".to_string())
                }
                None => {
                    complete = false;
                    merged.extend(std::iter::repeat_with(|| None).take(range.len()));
                }
            }
        }
        if complete {
            Response::Counts(merged.into_iter().map(|c| c.expect("complete")).collect())
        } else if allow_partial {
            Response::PartialCounts(merged)
        } else {
            Response::Error(
                "one or more shards are unavailable (opt in with AllowPartial for degraded reads)"
                    .to_string(),
            )
        }
    }
}

/// A fully failed probe batch: typed partials for opted-in clients, a hard
/// error otherwise.
fn degraded_or_error(
    allow_partial: bool,
    is_query: bool,
    n_boxes: usize,
    message: &str,
) -> Response {
    if !allow_partial {
        return Response::Error(format!(
            "shard unavailable: {message} (opt in with AllowPartial for degraded reads)"
        ));
    }
    if is_query {
        Response::PartialResults(vec![None; n_boxes])
    } else {
        Response::PartialCounts(vec![None; n_boxes])
    }
}

// ---------------------------------------------------------------------------
// Health loop + failover
// ---------------------------------------------------------------------------

fn health_loop(shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::Acquire) {
        for slot in 0..shared.members.len() {
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            let state = shared.members[slot].state();
            match state {
                HealthState::Up | HealthState::Probation => {
                    let healthy = ping_member(shared, slot);
                    let mut machine = shared.members[slot]
                        .health
                        .lock()
                        .expect("member health poisoned");
                    let transition = if healthy {
                        machine.on_success(&shared.config.health)
                    } else {
                        machine.on_failure(&shared.config.health)
                    };
                    drop(machine);
                    if transition == Transition::WentDown {
                        try_failover(shared, slot);
                    }
                }
                HealthState::Down => {
                    if !try_failover(shared, slot) {
                        try_recover_in_place(shared, slot);
                    }
                }
            }
        }
        std::thread::sleep(shared.config.health.check_interval);
    }
}

/// One active check: connect with the check timeout and ping.
fn ping_member(shared: &Shared, slot: usize) -> bool {
    let addr = shared.members[slot].addr();
    let timeout = shared.config.health.check_timeout;
    match Client::connect_timeout(addr.as_str(), timeout) {
        Ok(mut client) => client.ping().is_ok(),
        Err(_) => false,
    }
}

/// Connects to `addr`, verifies liveness, and re-warms it from the shared
/// snapshot directory.  A backend running without `--snapshot-dir` has
/// nothing to re-warm — that specific server error is tolerated.
fn rewarm_member(shared: &Shared, addr: &str) -> Result<(usize, usize), ClientError> {
    let mut client = Client::connect_timeout(addr, shared.config.connect_timeout)?;
    client.set_io_timeout(Some(shared.config.rewarm_timeout))?;
    client.ping()?;
    match client.load_snapshots() {
        Ok((restored, skipped)) => Ok((restored.len(), skipped.len())),
        Err(ClientError::Server(m)) if m.contains("--snapshot-dir") => Ok((0, 0)),
        Err(e) => Err(e),
    }
}

/// Promotes the first viable standby into `slot`: ping + snapshot re-warm,
/// then swap the address, bump the epoch (dropping every cached connection
/// to the dead address), and mark the slot `Up`.  Returns whether a
/// promotion happened.
fn try_failover(shared: &Arc<Shared>, slot: usize) -> bool {
    loop {
        let candidate = {
            let standbys = shared.standbys.lock().expect("standby list poisoned");
            standbys.first().cloned()
        };
        let Some(standby_addr) = candidate else {
            return false;
        };
        let started = Instant::now();
        match rewarm_member(shared, &standby_addr) {
            Ok((restored, skipped)) => {
                {
                    let mut standbys = shared.standbys.lock().expect("standby list poisoned");
                    standbys.retain(|a| *a != standby_addr);
                }
                let member = &shared.members[slot];
                let from_addr = {
                    let mut addr = member.addr.lock().expect("member addr poisoned");
                    std::mem::replace(&mut *addr, standby_addr.clone())
                };
                member.epoch.fetch_add(1, Ordering::Release);
                member
                    .health
                    .lock()
                    .expect("member health poisoned")
                    .reset_up();
                shared
                    .failovers
                    .lock()
                    .expect("failover log poisoned")
                    .push(FailoverEvent {
                        slot,
                        from_addr,
                        to_addr: standby_addr,
                        rewarm_ms: started.elapsed().as_millis() as u64,
                        datasets_restored: restored,
                        snapshots_skipped: skipped,
                    });
                return true;
            }
            Err(_) => {
                // This standby is not viable (maybe it died too): drop it
                // and try the next one.
                let mut standbys = shared.standbys.lock().expect("standby list poisoned");
                standbys.retain(|a| *a != standby_addr);
                if standbys.is_empty() {
                    return false;
                }
            }
        }
    }
}

/// No standby: try the member's own address (a restarted backend comes
/// back on it).  On success the member is re-warmed and enters half-open
/// probation — it must bank consecutive check successes before routing.
fn try_recover_in_place(shared: &Arc<Shared>, slot: usize) {
    let addr = shared.members[slot].addr();
    let started = Instant::now();
    if let Ok((restored, skipped)) = rewarm_member(shared, &addr) {
        let member = &shared.members[slot];
        member.epoch.fetch_add(1, Ordering::Release);
        let transition = member
            .health
            .lock()
            .expect("member health poisoned")
            .enter_probation();
        if transition == Transition::EnteredProbation {
            shared
                .failovers
                .lock()
                .expect("failover log poisoned")
                .push(FailoverEvent {
                    slot,
                    from_addr: addr.clone(),
                    to_addr: addr,
                    rewarm_ms: started.elapsed().as_millis() as u64,
                    datasets_restored: restored,
                    snapshots_skipped: skipped,
                });
        }
    }
}
