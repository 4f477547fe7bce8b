//! The shard router: speaks the eclipse-serve wire protocol to clients,
//! partitions datasets across N backend eclipse-serve processes, scatters
//! probe batches over pipelined connections, and merges replies in probe
//! order.
//!
//! Clients reach the router through eclipse-serve's own event loop: the
//! router is a [`Handler`], so it shares the server's handshake,
//! admission control (`Overloaded`), deadlines, graceful drain, half-open
//! reaping and out-of-order completion.  A connection's requests run on
//! the loop's dispatcher workers, [`RouterConfig::pipe_size`] of them, and
//! may run at the same time, as on a server with more than one worker.
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
//!   chunk can be retried on any other member.  Loads and mutations fan
//!   out under one lock, so every replica applies them in the same order,
//!   and run to completion on every replica once started: the client's
//!   deadline is checked once, before the first replica.
//!
//! # Robustness
//!
//! * an active health loop pings every member on a cadence
//!   ([`HealthPolicy`]), with consecutive-failure thresholds and half-open
//!   probation before a recovered member takes traffic again;
//! * per-request retries use capped exponential backoff with
//!   deterministic jitter, are **idempotent-only**, and draw from a global
//!   [`RetryBudget`] so retries cannot amplify an overload;
//! * every other backend call carries the time left of the client's
//!   deadline, and a request whose deadline passes is answered
//!   [`Response::Timeout`];
//! * when a member dies and a standby is configured, the router re-warms
//!   the standby from the shared snapshot directory (`LoadSnapshots`) and
//!   promotes it into the dead member's slot, recording a timed
//!   [`FailoverEvent`];
//! * clients that opt in with `AllowPartial` get typed
//!   [`Response::PartialResults`]/[`Response::PartialCounts`] — per-box
//!   `None` for shards that are down — instead of hard errors.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eclipse_persist::fnv1a;
use eclipse_serve::client::{Client, ClientError, PipelinedClient};
use eclipse_serve::protocol::{Request, Response, StatsReport};
use eclipse_serve::server::{
    spawn_handler, Handler, LoopStats, RequestCtx, ServerConfig, ServerHandle,
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
    /// Dispatcher workers: the requests the router serves at once.
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
    /// Bumped on every address swap or in-place recovery; pooled
    /// connections dialed at an older epoch are dropped.
    epoch: AtomicU64,
    health: Mutex<HealthMachine>,
    /// Idle connections to this member, shared by the router's workers.
    idle: Mutex<Vec<Pooled>>,
}

impl Member {
    fn new(addr: String) -> Member {
        Member {
            addr: Mutex::new(addr),
            epoch: AtomicU64::new(0),
            health: Mutex::new(HealthMachine::new()),
            idle: Mutex::new(Vec::new()),
        }
    }

    fn addr(&self) -> String {
        self.addr.lock().expect("member addr poisoned").clone()
    }

    fn state(&self) -> HealthState {
        self.health.lock().expect("member health poisoned").state()
    }
}

/// A backend connection checked out of a member's pool, tagged with the
/// member epoch it was dialed at.
struct Pooled {
    epoch: u64,
    conn: PipelinedClient,
}

/// State shared by the serving workers and the health loop.
struct Shared {
    config: RouterConfig,
    members: Vec<Member>,
    standbys: Mutex<Vec<String>>,
    budget: RetryBudget,
    failovers: Mutex<Vec<FailoverEvent>>,
    /// Monotone counter seeding retry jitter deterministically.
    retry_seq: AtomicU64,
    /// Held across every fan of a load or mutation of a replicated dataset
    /// (and of `LoadSnapshots`), so all replicas apply them in one order.
    fan: Mutex<()>,
    /// The router's event-loop counters, plus the timeouts it answers
    /// itself; merged into `Stats`.
    stats: Arc<LoopStats>,
    /// Stops the health loop.
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

    /// An idle connection to `slot` dialed at the member's current epoch,
    /// or a fresh one.
    fn checkout(&self, slot: usize) -> Result<Pooled, ClientError> {
        let member = &self.members[slot];
        let epoch = member.epoch.load(Ordering::Acquire);
        {
            let mut idle = member.idle.lock().expect("backend pool poisoned");
            idle.retain(|pooled| pooled.epoch == epoch);
            if let Some(pooled) = idle.pop() {
                return Ok(pooled);
            }
        }
        let addr = member.addr();
        // A checked-out connection carries one request at a time.
        let mut conn =
            PipelinedClient::connect_timeout(addr.as_str(), 1, self.config.connect_timeout)?;
        conn.set_io_timeout(Some(self.config.io_timeout))?;
        Ok(Pooled { epoch, conn })
    }

    /// Returns a connection to its pool after a call that left it in sync;
    /// one with requests still in flight, or from an older epoch, closes.
    fn checkin(&self, slot: usize, pooled: Pooled) {
        let member = &self.members[slot];
        if pooled.conn.in_flight() == 0 && pooled.epoch == member.epoch.load(Ordering::Acquire) {
            member
                .idle
                .lock()
                .expect("backend pool poisoned")
                .push(pooled);
        }
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
                fan: Mutex::new(()),
                stats: Arc::default(),
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

    /// Serves clients from eclipse-serve's event loop, with
    /// [`RouterConfig::pipe_size`] dispatcher workers and the server's
    /// default flow control, and starts the health loop.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn spawn(self) -> io::Result<RouterHandle> {
        let config = ServerConfig {
            workers: self.shared.config.pipe_size as usize,
            ..ServerConfig::default()
        };
        let stats = Arc::clone(&self.shared.stats);
        let server = spawn_handler(self.listener, Arc::clone(&self.shared), stats, config)?;
        let health_thread = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || health_loop(&shared))
        };
        Ok(RouterHandle {
            addr: server.addr(),
            server: Some(server),
            shared: self.shared,
            health_thread: Some(health_thread),
        })
    }
}

/// A running router; dropping it (or calling [`RouterHandle::shutdown`])
/// drains its event loop and stops the health loop.
pub struct RouterHandle {
    addr: SocketAddr,
    server: Option<ServerHandle>,
    shared: Arc<Shared>,
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

    /// Stops accepting, answers every admitted request (the server's
    /// graceful drain), then stops the health loop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.shared.stop.store(true, Ordering::Release);
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
// Backend calls
// ---------------------------------------------------------------------------

/// How a backend failure routes.
enum Failure {
    /// The backend executed and answered an error — deterministic; return
    /// it to the client, never retry, no health penalty.
    Deterministic(String),
    /// Typed `Overloaded`: the backend is alive; retryable without a
    /// health penalty.
    FlowControl(String),
    /// Typed `Timeout`: the client's deadline, forwarded, passed on the
    /// backend; answered `Timeout`, no health penalty.
    Expired,
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
        ClientError::Overloaded { .. } => Failure::FlowControl(e.to_string()),
        ClientError::TimedOut { .. } => Failure::Expired,
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
    /// The client's deadline passed, here or on a backend.
    TimedOut,
    /// No member could serve it: every candidate down, retries exhausted,
    /// or the retry budget refused.
    Unavailable(String),
}

/// The client-facing answer to a routed call that gave up.
fn route_error(e: RouteError, ctx: &RequestCtx) -> Response {
    match e {
        RouteError::Deterministic(m) => Response::Error(m),
        RouteError::DatasetUnavailable { name, reason } => {
            Response::DatasetUnavailable { name, reason }
        }
        RouteError::TimedOut => timeout(ctx),
        RouteError::Unavailable(m) => Response::Error(format!("shard unavailable: {m}")),
    }
}

/// The `Timeout` for a deadline that passed before a backend was asked,
/// counted here (a backend counts the ones it answers).
fn expired(shared: &Shared, ctx: &RequestCtx) -> Response {
    shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
    timeout(ctx)
}

fn timeout(ctx: &RequestCtx) -> Response {
    Response::Timeout {
        deadline_ms: ctx.deadline.map_or(0, |(_, ms)| ms),
    }
}

/// The `deadline_ms` a backend frame carries: the time left of the client's
/// deadline, rounded up to whole milliseconds (0 without a deadline), or
/// `None` once it has passed.
fn time_left_ms(ctx: &RequestCtx) -> Option<u32> {
    let Some((at, _)) = ctx.deadline else {
        return Some(0);
    };
    let left = at
        .checked_duration_since(Instant::now())
        .filter(|left| !left.is_zero())?;
    Some(u32::try_from(left.as_micros().div_ceil(1000)).unwrap_or(u32::MAX))
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

/// One attempt against one slot, on a pooled connection.
fn execute_on(
    shared: &Shared,
    slot: usize,
    request: &Request,
    deadline_ms: u32,
) -> Result<Response, ClientError> {
    let heavy = is_heavy(request);
    let mut pooled = shared.checkout(slot)?;
    if heavy {
        pooled
            .conn
            .set_io_timeout(Some(shared.config.rewarm_timeout))?;
    }
    let result = pooled
        .conn
        .submit_with_deadline(request, deadline_ms)
        .and_then(|id| pooled.conn.recv(id));
    if heavy {
        let _ = pooled.conn.set_io_timeout(Some(shared.config.io_timeout));
    }
    // A transport failure may leave the stream desynced: drop it.
    if !matches!(&result, Err(e) if matches!(classify(e), Failure::Transport(_))) {
        shared.checkin(slot, pooled);
    }
    result
}

/// The retry loop: rotates over `candidates`, pays backoff between
/// attempts, spends the budget, and applies the idempotent-only rule.
fn call_with_retry(
    shared: &Shared,
    candidates: &[usize],
    request: &Request,
    ctx: &RequestCtx,
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
        let Some(deadline_ms) = time_left_ms(ctx) else {
            shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
            return Err(RouteError::TimedOut);
        };
        let slot = candidates[(attempt as usize - 1) % candidates.len()];
        match execute_on(shared, slot, request, deadline_ms) {
            Ok(response) => {
                shared.note_success(slot);
                return Ok(response);
            }
            Err(e) => match classify(&e) {
                Failure::Deterministic(m) => return Err(RouteError::Deterministic(m)),
                Failure::DatasetUnavailable { name, reason } => {
                    return Err(RouteError::DatasetUnavailable { name, reason })
                }
                Failure::Expired => return Err(RouteError::TimedOut),
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

impl Handler for Shared {
    fn respond(&self, request: Request, ctx: RequestCtx) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::Stats => merged_stats(self, &ctx),
            Request::LoadSnapshots => fan_load_snapshots(self, &ctx),
            Request::QueryBatch {
                ref name,
                ref boxes,
            }
            | Request::CountBatch {
                ref name,
                ref boxes,
            } => route_probes(self, &ctx, &request, name, boxes.len()),
            // Mutations route exactly like the other placement-scoped dataset
            // operations, but are classified non-idempotent by the retry
            // layer: a transport failure mid-mutation surfaces as a typed
            // error instead of a silent replay that could double-apply.
            Request::LoadDataset { ref name, .. }
            | Request::BuildIndex { ref name, .. }
            | Request::RestoreIndex { ref name, .. }
            | Request::Insert { ref name, .. }
            | Request::Delete { ref name, .. } => fan_to_placement(self, &ctx, name, &request),
            Request::SaveIndex { ref name, .. } => {
                // One copy in the shared snapshot dir is enough: the owner for
                // hashed placement, any routable member for replicated.
                let slot = if self.replicated(name) {
                    match self.routable_slots().first().copied() {
                        Some(slot) => slot,
                        None => return Response::Error("no routable member".to_string()),
                    }
                } else {
                    self.owner_slot(name)
                };
                call_with_retry(self, &[slot], &request, &ctx)
                    .unwrap_or_else(|e| route_error(e, &ctx))
            }
            Request::Hello { .. } | Request::AllowPartial { .. } => {
                unreachable!("the event loop answers Hello and AllowPartial itself")
            }
        }
    }

    /// Only `Ping`, answered here without a backend, runs on the loop
    /// thread (when its connection is idle); everything else waits on a
    /// backend and is dispatched.
    fn runs_inline(&self, request: &Request, conn_in_flight: u32, _global_in_flight: u64) -> bool {
        matches!(request, Request::Ping) && conn_in_flight == 0
    }
}

/// Non-probe dataset operations go to the owner of a hashed dataset, or
/// fan to every routable member of a replicated one; the first summary
/// answers.
///
/// A replicated fan runs under the fan lock and checks the client's
/// deadline once, before the first member; its backend calls carry none,
/// so a member misses the operation only through a transport failure or
/// its own error.  The fan is all-or-typed-error: every slot is attempted
/// even after a failure (aborting mid-loop would leave replicas desynced
/// with the caller none the wiser), and if any member missed the operation
/// the caller gets an error naming exactly which members applied it and
/// which did not.
fn fan_to_placement(shared: &Shared, ctx: &RequestCtx, name: &str, request: &Request) -> Response {
    if !shared.replicated(name) {
        return on_one_slot(shared, shared.owner_slot(name), request, ctx);
    }
    let _order = shared.fan.lock().expect("fan lock poisoned");
    if time_left_ms(ctx).is_none() {
        return expired(shared, ctx);
    }
    let ctx = &RequestCtx {
        deadline: None,
        ..*ctx
    };
    let slots = shared.routable_slots();
    let total = slots.len();
    if total <= 1 {
        return slots.first().map_or_else(
            || Response::Error("no routable member".to_string()),
            |&slot| on_one_slot(shared, slot, request, ctx),
        );
    }
    let mut first: Option<Response> = None;
    let mut failures: Vec<(usize, RouteError)> = Vec::new();
    for slot in slots {
        match call_with_retry(shared, &[slot], request, ctx) {
            Ok(response) => {
                first.get_or_insert(response);
            }
            Err(e) => failures.push((slot, e)),
        }
    }
    if failures.is_empty() {
        return first.expect("at least one slot answered");
    }
    let applied = total - failures.len();
    let detail: Vec<String> = failures
        .iter()
        .map(|(slot, e)| match e {
            RouteError::Deterministic(m) => format!("shard {slot}: {m}"),
            RouteError::DatasetUnavailable { reason, .. } => {
                format!("shard {slot}: dataset unavailable: {reason}")
            }
            RouteError::TimedOut => format!("shard {slot}: deadline passed"),
            RouteError::Unavailable(m) => format!("shard {slot}: unavailable: {m}"),
        })
        .collect();
    Response::Error(format!(
        "replicated operation on {name:?} applied to {applied}/{total} members; \
         failed: {}",
        detail.join("; ")
    ))
}

/// An operation on one member: nothing can be partially applied, so a
/// failure passes through with its own shape (typed stays typed).
fn on_one_slot(shared: &Shared, slot: usize, request: &Request, ctx: &RequestCtx) -> Response {
    call_with_retry(shared, &[slot], request, ctx).unwrap_or_else(|e| match e {
        RouteError::Unavailable(m) => Response::Error(format!("shard {slot} unavailable: {m}")),
        e => route_error(e, ctx),
    })
}

/// `LoadSnapshots` fans to every routable member and merges the scans, under
/// the fan lock and with the deadline checked once, like a replicated fan.
fn fan_load_snapshots(shared: &Shared, ctx: &RequestCtx) -> Response {
    let _order = shared.fan.lock().expect("fan lock poisoned");
    if time_left_ms(ctx).is_none() {
        return expired(shared, ctx);
    }
    let ctx = &RequestCtx {
        deadline: None,
        ..*ctx
    };
    let slots = shared.routable_slots();
    if slots.is_empty() {
        return Response::Error("no routable member".to_string());
    }
    let mut restored = Vec::new();
    let mut skipped = Vec::new();
    for slot in slots {
        match call_with_retry(shared, &[slot], &Request::LoadSnapshots, ctx) {
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
            Err(e) => return route_error(e, ctx),
        }
    }
    Response::SnapshotsLoaded { restored, skipped }
}

/// `Stats` merges every reachable member's report (members that cannot
/// answer are skipped — stats are observability, not correctness) with the
/// errors, timeouts and `Overloaded` rejections the router answered itself.
fn merged_stats(shared: &Shared, ctx: &RequestCtx) -> Response {
    let mut merged = StatsReport {
        query_batches: 0,
        count_batches: 0,
        probes: 0,
        errors: shared.stats.errors.load(Ordering::Relaxed),
        in_flight: 0,
        timeouts: shared.stats.timeouts.load(Ordering::Relaxed),
        rejected: shared.stats.rejected.load(Ordering::Relaxed),
        conn_queue_depths: Vec::new(),
        total_bytes: 0,
        memory_budget: 0,
        evictions: 0,
        reloads: 0,
        datasets: Vec::new(),
    };
    for slot in shared.routable_slots() {
        if let Ok(Response::Stats(report)) = call_with_retry(shared, &[slot], &Request::Stats, ctx)
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
/// member, scattered in parallel over pooled connections, retried per
/// chunk, and merged in probe order.
fn route_probes(
    shared: &Shared,
    ctx: &RequestCtx,
    request: &Request,
    name: &str,
    n_boxes: usize,
) -> Response {
    let (is_query, boxes) = match request {
        Request::QueryBatch { boxes, .. } => (true, boxes),
        Request::CountBatch { boxes, .. } => (false, boxes),
        _ => unreachable!("route_probes only sees probe batches"),
    };
    let allow_partial = ctx.allow_partial;
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
        return match call_with_retry(shared, &candidates, request, ctx) {
            Ok(response) => response,
            Err(RouteError::Unavailable(m)) => {
                degraded_or_error(allow_partial, is_query, n_boxes, &m)
            }
            Err(e) => route_error(e, ctx),
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

    // Phase 1 — optimistic scatter: send every chunk on a connection of its
    // member, then collect.
    let Some(deadline_ms) = time_left_ms(ctx) else {
        return expired(shared, ctx);
    };
    let mut sent: Vec<Option<(Pooled, u64)>> = Vec::with_capacity(chunks.len());
    for (slot, range) in &chunks {
        if range.is_empty() {
            sent.push(None);
            continue;
        }
        let request = sub_request(range);
        let submitted = shared.checkout(*slot).and_then(|mut pooled| {
            let id = pooled.conn.submit_with_deadline(&request, deadline_ms)?;
            pooled.conn.flush()?;
            Ok((pooled, id))
        });
        match submitted {
            Ok(lease) => sent.push(Some(lease)),
            Err(_) => {
                shared.note_failure(*slot);
                sent.push(None);
            }
        }
    }
    let mut rows: Vec<Option<ChunkRows>> = Vec::with_capacity(chunks.len());
    for ((slot, range), lease) in chunks.iter().zip(sent) {
        if range.is_empty() {
            rows.push(Some(if is_query {
                ChunkRows::Query(Vec::new())
            } else {
                ChunkRows::Counts(Vec::new())
            }));
            continue;
        }
        let Some((mut pooled, id)) = lease else {
            rows.push(None);
            continue;
        };
        let received = pooled.conn.recv(id);
        let failure = received.as_ref().err().map(classify);
        if let Some(Failure::Transport(_)) = failure {
            shared.note_failure(*slot);
            rows.push(None);
            continue;
        }
        shared.checkin(*slot, pooled);
        match (received, failure) {
            (Ok(response), _) => match response_rows(response, range.len()) {
                Ok(chunk_rows) => {
                    shared.note_success(*slot);
                    rows.push(Some(chunk_rows));
                }
                Err(m) => return Response::Error(m),
            },
            (Err(_), Some(Failure::Deterministic(m))) => return Response::Error(m),
            (Err(_), Some(Failure::DatasetUnavailable { name, reason })) => {
                return Response::DatasetUnavailable { name, reason }
            }
            (Err(_), Some(Failure::Expired)) => return timeout(ctx),
            (Err(_), _) => rows.push(None),
        }
    }

    // Phase 2 — per-chunk retry on whoever is still standing.
    for (i, (_, range)) in chunks.iter().enumerate() {
        if rows[i].is_some() {
            continue;
        }
        let request = sub_request(range);
        let candidates = shared.routable_slots();
        match call_with_retry(shared, &candidates, &request, ctx) {
            Ok(response) => match response_rows(response, range.len()) {
                Ok(chunk_rows) => rows[i] = Some(chunk_rows),
                Err(m) => return Response::Error(m),
            },
            Err(RouteError::Unavailable(_)) => {}
            Err(e) => return route_error(e, ctx),
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
