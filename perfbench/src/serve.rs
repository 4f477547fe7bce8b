//! `serve_pipelined`: single-box requests over one protocol-v2 connection
//! at pipeline depth 8.
//!
//! One in-process server holds INDE n = 2^10 (the paper's default n) with
//! QUAD warmed.  The client alternates `QueryBatch` and `CountBatch`
//! requests, and every 64th request is a write: a dominated `Insert` or the
//! `Delete` of that point, in turn, neither of which changes an answer.
//! The serving layers (codec, event loop, dispatcher, socket) carry most of
//! each request.  The traced run also sends the stream through an
//! `eclipse-router` over two backends holding the dataset `--replicated`,
//! for the router's hop.
//!
//! Every server runs one dispatcher worker on a serial execution context,
//! and the run keeps the client, event loop and worker threads on one CPU
//! (see [`crate::affinity`]).

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eclipse_bench::workloads::probe_ratio_boxes;
use eclipse_core::index::IntersectionIndexKind;
use eclipse_core::weights::WeightRatioBox;
use eclipse_core::{EclipseEngine, ExecutionContext, Point, QueryOptions};
use eclipse_router::{Router, RouterConfig, RouterHandle};
use eclipse_serve::protocol::{MutationKind, Request, Response, StatsReport};
use eclipse_serve::{Client, IndexKind, PipelinedClient, Server, ServerConfig, ServerHandle};

use crate::affinity;
use crate::layers::{self, Values};
use crate::trace::Tracer;
use crate::{
    dataset, dominated_by, json_number, median, rounds_report, wire_box, EndToEnd, Report,
    RunConfig, Tally, DIM,
};

/// Points in the dataset.
pub const N: usize = 1 << 10;
/// Requests in flight on the connection.
pub const DEPTH: u32 = 8;
/// Distinct boxes drawn per run.
const BOXES: usize = 8192;
/// Every this many requests, one is a dominated insert.
const OPS_PER_WRITE: u64 = 64;
/// Rounds per run, each on a fresh deployment.
const ROUNDS: usize = 20;
/// Unrecorded traffic before each round.
const WARM_UP: Duration = Duration::from_millis(100);
/// Dataset name on the servers.
pub const NAME: &str = "inde";

/// How the client reaches the data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Straight to one server.
    Direct,
    /// Through a router over two replicas.
    Routed,
}

/// Running servers (and router) plus the address clients use.
pub struct Deployment {
    router: Option<RouterHandle>,
    servers: Vec<ServerHandle>,
    /// The client-facing address.
    pub addr: SocketAddr,
}

impl Deployment {
    /// Starts the topology over `points` with the given serving sizing.
    ///
    /// # Errors
    /// Socket and dataset registration failures.
    pub fn start(
        topology: Topology,
        points: &[Point],
        workers: usize,
        exec: &ExecutionContext,
    ) -> Result<Deployment, String> {
        let backend = || -> Result<ServerHandle, String> {
            let server = Server::bind_with_config(
                "127.0.0.1:0",
                exec.clone(),
                ServerConfig {
                    workers,
                    ..ServerConfig::default()
                },
            )
            .map_err(|e| format!("bind server: {e}"))?;
            server
                .register_dataset(NAME, points.to_vec(), IndexKind::Quadtree)
                .map_err(|e| format!("register dataset: {e}"))?;
            server.spawn().map_err(|e| format!("spawn server: {e}"))
        };
        match topology {
            Topology::Direct => {
                let server = backend()?;
                Ok(Deployment {
                    addr: server.addr(),
                    router: None,
                    servers: vec![server],
                })
            }
            Topology::Routed => {
                let servers = vec![backend()?, backend()?];
                let router = Router::bind(
                    "127.0.0.1:0",
                    RouterConfig {
                        backends: servers.iter().map(|s| s.addr().to_string()).collect(),
                        replicated: vec![NAME.to_string()],
                        ..RouterConfig::default()
                    },
                )
                .map_err(|e| format!("bind router: {e}"))?
                .spawn()
                .map_err(|e| format!("spawn router: {e}"))?;
                Ok(Deployment {
                    addr: router.addr(),
                    router: Some(router),
                    servers,
                })
            }
        }
    }

    /// Stats of every backend, read directly (not through the router).
    fn backend_stats(&self) -> Vec<StatsReport> {
        self.servers
            .iter()
            .filter_map(|s| Client::connect(s.addr()).and_then(|mut c| c.stats()).ok())
            .collect()
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        // The router goes first so it never sees its backends vanish.
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        for server in self.servers.drain(..) {
            server.shutdown();
        }
    }
}

/// Reference answers from an in-process engine over the same points.
#[derive(Clone, Debug)]
pub struct Expected {
    /// Result ids per box.
    pub rows: Vec<Vec<u64>>,
    /// Result counts per box.
    pub counts: Vec<u64>,
}

impl Expected {
    /// Answers every box with an in-process QUAD engine.
    pub fn compute(points: &[Point], boxes: &[WeightRatioBox]) -> Expected {
        let engine = EclipseEngine::new(points.to_vec())
            .expect("generated datasets are valid")
            .with_execution_context(ExecutionContext::serial());
        engine
            .build_index(IntersectionIndexKind::Quadtree)
            .expect("index builds");
        let opts = QueryOptions::default();
        let rows = engine
            .eclipse_query_batch(boxes, &opts)
            .expect("valid boxes");
        let counts = engine
            .eclipse_count_batch(boxes, &opts)
            .expect("valid boxes");
        Expected {
            rows: rows
                .into_iter()
                .map(|r| r.into_iter().map(|id| id as u64).collect())
                .collect(),
            counts: counts.into_iter().map(|c| c as u64).collect(),
        }
    }
}

/// The request stream's position, carried across the phases of a run so
/// write acknowledgements can be checked against the dataset epoch.
pub struct Stream {
    next_op: u64,
    writes: u64,
    probes_sent: u64,
    rng: StdRng,
}

impl Stream {
    /// A fresh stream for a freshly loaded dataset, starting at operation
    /// `first_op` of the run's sequence.
    pub fn new(seed: u64, first_op: u64) -> Stream {
        Stream {
            next_op: first_op,
            writes: 0,
            probes_sent: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x5851_f42d_4c95_7f2d),
        }
    }
}

enum Pending {
    Query(usize),
    Count(usize),
    /// The stream's `k`-th write (odd: insert, even: delete).
    Write(u64),
}

/// Runs the closed loop for `duration` at depth [`DEPTH`], checking every
/// answer against `expected`.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    client: &mut PipelinedClient,
    points: &[Point],
    boxes: &[WeightRatioBox],
    expected: &Expected,
    stream: &mut Stream,
    duration: Duration,
    out: &mut EndToEnd,
    mut hook: Option<&mut Tracer>,
) {
    let mut in_flight: VecDeque<(u64, Instant, Pending, Option<usize>)> = VecDeque::new();
    let start = Instant::now();
    loop {
        while in_flight.len() < DEPTH as usize && start.elapsed() < duration {
            let op = stream.next_op;
            stream.next_op += 1;
            let (request, pending, name) = if op % OPS_PER_WRITE == OPS_PER_WRITE - 1 {
                // Writes alternate between a dominated insert and the delete
                // of that point (the last id), so the dataset keeps its size
                // however fast the stream runs.  Only one write is ever in
                // flight, so the delete always follows its insert.
                stream.writes += 1;
                let request = if stream.writes % 2 == 1 {
                    let p = dominated_by(&points[stream.rng.gen_range(0..points.len())]);
                    Request::Insert {
                        name: NAME.to_string(),
                        coords: p.coords().to_vec(),
                    }
                } else {
                    Request::Delete {
                        name: NAME.to_string(),
                        id: points.len() as u64,
                    }
                };
                (request, Pending::Write(stream.writes), "client.write")
            } else {
                let b = (op as usize / 2) % boxes.len();
                stream.probes_sent += 1;
                let wire = vec![wire_box(&boxes[b])];
                if op.is_multiple_of(2) {
                    let request = Request::QueryBatch {
                        name: NAME.to_string(),
                        boxes: wire,
                    };
                    (request, Pending::Query(b), "client.query")
                } else {
                    let request = Request::CountBatch {
                        name: NAME.to_string(),
                        boxes: wire,
                    };
                    (request, Pending::Count(b), "client.count")
                }
            };
            let span = hook.as_deref_mut().map(|t| t.begin(name, None, op));
            let t0 = Instant::now();
            match client.submit(&request) {
                Ok(id) => in_flight.push_back((id, t0, pending, span)),
                Err(_) => {
                    out.tally.record(false);
                    out.ops += 1;
                }
            }
        }
        let Some((id, t0, pending, span)) = in_flight.pop_front() else {
            break;
        };
        let response = client.recv(id);
        let latency_us = t0.elapsed().as_secs_f64() * 1e6;
        if let (Some(t), Some(span)) = (hook.as_deref_mut(), span) {
            t.end(span);
        }
        let ok = match (&pending, &response) {
            (Pending::Query(b), Ok(Response::QueryResults(rows))) => {
                rows.len() == 1 && rows[0] == expected.rows[*b]
            }
            (Pending::Count(b), Ok(Response::Counts(counts))) => {
                counts.len() == 1 && counts[0] == expected.counts[*b]
            }
            (Pending::Write(k), Ok(Response::Mutated { kind, epoch, len })) => {
                let (want_kind, want_len) = if k % 2 == 1 {
                    (MutationKind::InsertedDominated, points.len() as u64 + 1)
                } else {
                    (MutationKind::DeletedNonSkyline, points.len() as u64)
                };
                *kind == want_kind && *epoch == *k && *len == want_len
            }
            _ => false,
        };
        out.tally.record(ok);
        out.ops += 1;
        match pending {
            Pending::Write(_) => out.write.push(latency_us),
            _ => {
                out.query.push(latency_us);
                out.probes += 1;
            }
        }
        // A transport error leaves the connection unusable: stop here and
        // let the failures show.
        if response.is_err() && !in_flight.is_empty() {
            for _ in in_flight.drain(..) {
                out.tally.record(false);
                out.ops += 1;
            }
            break;
        }
    }
    out.elapsed_s += start.elapsed().as_secs_f64();
}

fn stats(client: &mut PipelinedClient) -> Option<StatsReport> {
    match client.call(&Request::Stats) {
        Ok(Response::Stats(report)) => Some(report),
        _ => None,
    }
}

/// Starts a deployment and connects the workload's client (first in the
/// pair, so it is dropped before the servers).
///
/// # Errors
/// Set-up failures, or a server that grants another pipeline depth.
pub fn connect(
    topology: Topology,
    points: &[Point],
    workers: usize,
    exec: &ExecutionContext,
) -> Result<(PipelinedClient, Deployment), String> {
    let deployment = Deployment::start(topology, points, workers, exec)?;
    let client = PipelinedClient::connect(deployment.addr, DEPTH)
        .map_err(|e| format!("connect client: {e}"))?;
    if client.pipe_size() != DEPTH {
        return Err(format!("server granted depth {}", client.pipe_size()));
    }
    Ok((client, deployment))
}

/// Runs `serve_pipelined`.
///
/// # Errors
/// Set-up failures.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let points = dataset(N, 0);
    let boxes = probe_ratio_boxes(BOXES, DIM, cfg.seed);
    let expected = Expected::compute(&points, &boxes);
    let serial = ExecutionContext::serial();
    let seconds = Duration::from_secs_f64(cfg.seconds);
    let mut report = if cfg.trace {
        let (mut client, _deployment) = connect(Topology::Direct, &points, 1, &serial)?;
        let mut stream = Stream::new(cfg.seed, 0);
        let mut warm = EndToEnd::default();
        drive(
            &mut client,
            &points,
            &boxes,
            &expected,
            &mut stream,
            WARM_UP,
            &mut warm,
            None,
        );
        let mut report = traced(
            cfg,
            &points,
            &boxes,
            &expected,
            &mut client,
            &mut stream,
            seconds,
        )?;
        report.attempted += warm.tally.attempted;
        report.failed += warm.tally.failed;
        report.correct = report.failed == 0;
        report
    } else {
        // Each round starts a fresh deployment: its start-up is one set-up
        // sample, and fresh threads keep one unlucky thread placement from
        // setting the level of a whole run.
        let mut rounds = Vec::with_capacity(ROUNDS);
        let mut resident = 0;
        let mut setups = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS as u64 {
            let t0 = Instant::now();
            let (mut client, _deployment) = connect(Topology::Direct, &points, 1, &serial)?;
            setups.push(t0.elapsed().as_secs_f64());
            if round == 0 {
                resident = stats(&mut client).map_or(0, |s| s.total_bytes);
            }
            let mut stream = Stream::new(cfg.seed, round * BOXES as u64 / ROUNDS as u64 * 2);
            let mut warm = EndToEnd::default();
            drive(
                &mut client,
                &points,
                &boxes,
                &expected,
                &mut stream,
                WARM_UP,
                &mut warm,
                None,
            );
            // The warm-up's answers were checked too: count them.
            let mut e2e = EndToEnd {
                tally: warm.tally,
                ..EndToEnd::default()
            };
            drive(
                &mut client,
                &points,
                &boxes,
                &expected,
                &mut stream,
                seconds / ROUNDS as u32,
                &mut e2e,
                None,
            );
            rounds.push(e2e);
        }
        rounds_report(median(&setups), resident, rounds)
    };
    report.stamp(
        "dataset",
        format!("{{\"family\": \"INDE\", \"n\": {N}, \"d\": {DIM}, \"warm\": \"QUAD\"}}"),
    );
    report.stamp(
        "sizing",
        format!(
            "{{\"exec_threads\": 1, \"server_workers\": 1, \"depth\": {DEPTH}, \
             \"boxes_per_request\": 1, \"ops_per_write\": {OPS_PER_WRITE}, \
             \"boxes\": {BOXES}, \"rounds\": {ROUNDS}}}"
        ),
    );
    Ok(report)
}

/// The traced run: layer profile, replay with spans, the serving-layer
/// breakdown, the router hop and the sizing diagnostic.
fn traced(
    cfg: &RunConfig,
    points: &[Point],
    boxes: &[WeightRatioBox],
    expected: &Expected,
    client: &mut PipelinedClient,
    stream: &mut Stream,
    seconds: Duration,
) -> Result<Report, String> {
    let mut tracer = Tracer::new();
    let mut values = layers::profile(points, boxes, &mut tracer);
    values.insert("serve.execute_us", execute_us(points, boxes, &mut tracer));

    let overhead = layers::replay_overhead(seconds, &mut tracer, |dur, out, hook| {
        drive(client, points, boxes, expected, stream, dur, out, hook)
    });
    values.insert("trace.overhead_frac", overhead.frac);
    let client_p50 = median(&overhead.plain.query);
    values.insert("serve.client_p50_us", client_p50);
    values.insert(
        "serve.unattributed_us",
        client_p50
            - values["serve.execute_us"]
            - values["serve.encode_us"]
            - values["serve.decode_us"],
    );
    let mut tally = overhead.tally;
    let mut report = Report::default();
    if let Some(s) = stats(client) {
        insert_residency(&mut values, &s);
    } else {
        tally.record(false);
    }
    let hop = router_hop(cfg, points, boxes, expected, &mut values, &mut tally)?;
    report.diagnostic(
        "router_hop",
        format!(
            "{{\"routed_p50_us\": {}, \"direct_p50_us\": {}, \"routed_samples\": {}, \
             \"direct_samples\": {}}}",
            json_number(hop.0),
            json_number(client_p50),
            hop.1,
            overhead.plain.query.len()
        ),
    );
    values.insert("router.hop_us", hop.0 - client_p50);
    // The sizing question is about the host's cores, so its servers run
    // unpinned.
    let diag = affinity::unpinned(|| oversubscription(cfg, points, boxes, expected, &mut tally))??;
    report.diagnostic("oversubscription", diag);
    layers::finish(&mut report, &values, &tracer, cfg, tally);
    report.stamp(
        "samples",
        format!(
            "{{\"client_plain\": {}, \"client_traced\": {}}}",
            overhead.plain.query.len(),
            overhead.traced.query.len()
        ),
    );
    Ok(report)
}

/// The router's share of a request: the same stream through a router over
/// two replicas of the dataset.  Returns the routed client p50 and its
/// sample count, and records the router's retries (probes the backends
/// answered beyond those the client sent) and failovers.
fn router_hop(
    cfg: &RunConfig,
    points: &[Point],
    boxes: &[WeightRatioBox],
    expected: &Expected,
    values: &mut Values,
    tally: &mut Tally,
) -> Result<(f64, usize), String> {
    let (mut client, deployment) =
        connect(Topology::Routed, points, 1, &ExecutionContext::serial())?;
    let mut stream = Stream::new(cfg.seed, 0);
    let mut routed = EndToEnd::default();
    let slice = Duration::from_secs_f64((cfg.seconds / 4.0).clamp(0.5, 5.0));
    drive(
        &mut client,
        points,
        boxes,
        expected,
        &mut stream,
        slice,
        &mut routed,
        None,
    );
    tally.add(routed.tally);
    let backend_probes: u64 = deployment.backend_stats().iter().map(|s| s.probes).sum();
    values.insert(
        "router.retries",
        backend_probes.saturating_sub(stream.probes_sent) as f64,
    );
    let router = deployment
        .router
        .as_ref()
        .expect("routed deployments have a router");
    values.insert("router.failovers", router.failovers().len() as f64);
    Ok((median(&routed.query), routed.query.len()))
}

/// Median in-process time of what the server executes per request: one
/// single-box query or count batch on a QUAD engine.
fn execute_us(points: &[Point], boxes: &[WeightRatioBox], tracer: &mut Tracer) -> f64 {
    let engine = EclipseEngine::new(points.to_vec())
        .expect("generated datasets are valid")
        .with_execution_context(ExecutionContext::serial());
    engine
        .build_index(IntersectionIndexKind::Quadtree)
        .expect("index builds");
    let opts = QueryOptions::default();
    let mut times = Vec::with_capacity(2048);
    for (i, b) in boxes.iter().take(2048).enumerate() {
        let one = std::slice::from_ref(b);
        let t0 = Instant::now();
        if i % 2 == 0 {
            tracer.span("core.query_batch", None, i as u64, || {
                engine.eclipse_query_batch(one, &opts).expect("valid box")
            });
        } else {
            tracer.span("core.count_batch", None, i as u64, || {
                engine.eclipse_count_batch(one, &opts).expect("valid box")
            });
        }
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&times)
}

/// Residency figures from a server's `Stats`.
pub fn insert_residency(values: &mut Values, s: &StatsReport) {
    values.insert("serve.evictions", s.evictions as f64);
    values.insert("serve.reloads", s.reloads as f64);
    let touches = (s.query_batches + s.count_batches).max(1) as f64;
    values.insert("serve.resident_hit_ratio", 1.0 - s.reloads as f64 / touches);
}

/// The sizing question: does a server that sizes its dispatcher and exec
/// pool to the core count oversubscribe?  Alternates short runs of one
/// worker on a serial context against `workers: 0` on the global pool.
fn oversubscription(
    cfg: &RunConfig,
    points: &[Point],
    boxes: &[WeightRatioBox],
    expected: &Expected,
    tally: &mut Tally,
) -> Result<String, String> {
    let configs = [
        ("one_worker_serial", 1usize, ExecutionContext::serial()),
        ("default_sizing", 0usize, ExecutionContext::default()),
    ];
    let mut results: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); configs.len()];
    let slice = Duration::from_secs_f64((cfg.seconds / 8.0).clamp(0.5, 2.0));
    for _round in 0..2 {
        for (slot, (_, workers, exec)) in configs.iter().enumerate() {
            let (mut client, deployment) = connect(Topology::Direct, points, *workers, exec)?;
            let mut stream = Stream::new(cfg.seed, 0);
            let mut e = EndToEnd::default();
            drive(
                &mut client,
                points,
                boxes,
                expected,
                &mut stream,
                slice,
                &mut e,
                None,
            );
            tally.add(e.tally);
            results[slot].0.push(e.ops as f64 / e.elapsed_s);
            results[slot].1.push(median(&e.query));
            drop(client);
            drop(deployment);
        }
    }
    let body: Vec<String> = configs
        .iter()
        .zip(&results)
        .map(|((name, workers, exec), (ops, p50))| {
            format!(
                "\"{name}\": {{\"workers\": {workers}, \"exec_threads\": {}, \
                 \"ops_per_s\": {}, \"query_p50_us\": {}}}",
                exec.threads(),
                json_number(median(ops)),
                json_number(median(p50))
            )
        })
        .collect();
    Ok(format!("{{{}}}", body.join(", ")))
}
