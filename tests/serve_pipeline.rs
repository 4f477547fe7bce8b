//! Protocol-v2 serving: pipelined clients must agree byte-for-byte with the
//! blocking client at every depth, the `Hello` handshake must negotiate and
//! clamp (and refuse any other first frame, at the server and the router),
//! and the flow-control surface (deadlines, admission control,
//! graceful drain, mid-batch server death) must fail *typed* — never with a
//! panic, a wedged connection, or an opaque i/o error.  A scripted fake peer
//! pins when the pipelined client sends: before any read that would block,
//! and not before a read its buffer already answers.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eclipse_core::exec::ExecutionContext;
use eclipse_core::WeightRatioBox;
use eclipse_data::synthetic::{Distribution, SyntheticConfig};
use eclipse_router::router::{Router, RouterConfig};
use eclipse_serve::client::{Client, ClientError, PipelinedClient};
use eclipse_serve::protocol::{
    read_frame, write_frame, FrameHeader, IndexKind, Request, Response, MAX_FRAME_LEN, PROTOCOL_V2,
};
use eclipse_serve::server::{Server, ServerConfig, ServerHandle};

/// Probes big enough that one request occupies the (single) worker for many
/// milliseconds — the lever every flow-control test below leans on.
const HEAVY_PROBES: usize = 1024;

fn dataset() -> Vec<eclipse_core::Point> {
    SyntheticConfig::new(400, 3, Distribution::Independent, 77).generate()
}

/// Deterministic light probe `i` (the same generator everywhere, so oracle
/// and server replay identical request streams).
fn probe(i: usize) -> WeightRatioBox {
    let ranges = [
        (0.18, 5.67),
        (0.36, 2.75),
        (0.58, 1.73),
        (0.84, 1.19),
        (0.25, 2.0),
        (0.9, 1.1),
    ];
    let (lo, hi) = ranges[i % ranges.len()];
    WeightRatioBox::uniform(3, lo, hi).unwrap()
}

/// A `CountBatch` request heavy enough to hold a worker busy.
fn heavy_count(name: &str) -> Request {
    heavy_count_n(name, HEAVY_PROBES)
}

fn heavy_count_n(name: &str, probes: usize) -> Request {
    Request::CountBatch {
        name: name.to_string(),
        // d − 1 = 2 ratio ranges for the 3-dimensional dataset.
        boxes: vec![vec![(0.01, 100.0); 2]; probes],
    }
}

/// One dispatcher worker.  Heavy batches exceed the event loop's inline
/// box cap, so they queue for that worker, and a heavy request in front
/// deterministically delays everything behind it.
fn queued_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

fn spawn_server(exec: ExecutionContext, config: ServerConfig) -> (ServerHandle, SocketAddr) {
    let server = Server::bind_with_config("127.0.0.1:0", exec, config).unwrap();
    server
        .register_dataset("inde", dataset(), IndexKind::Quadtree)
        .unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();
    (handle, addr)
}

/// Satellite e2e: pipelined results at depth 1/8/64 are identical to the
/// blocking client's, at 1 and at 4 executor threads.
#[test]
fn pipelined_depths_match_blocking_at_1_and_4_threads() {
    let probes: Vec<WeightRatioBox> = (0..96).map(probe).collect();
    for threads in [1usize, 4] {
        let (handle, addr) = spawn_server(
            ExecutionContext::with_threads(threads),
            ServerConfig::default(),
        );

        // Blocking oracle: one request per probe, strictly serial.
        let mut blocking = Client::connect(addr).unwrap();
        let mut expected_rows = Vec::with_capacity(probes.len());
        let mut expected_counts = Vec::with_capacity(probes.len());
        for p in &probes {
            let rows = blocking
                .query_batch("inde", std::slice::from_ref(p))
                .unwrap();
            expected_rows.extend(rows);
            expected_counts.extend(
                blocking
                    .count_batch("inde", std::slice::from_ref(p))
                    .unwrap(),
            );
        }

        for depth in [1u32, 8, 64] {
            let mut piped = PipelinedClient::connect(addr, depth).unwrap();
            assert_eq!(piped.pipe_size(), depth);
            assert_eq!(
                piped.query_many("inde", &probes, 1).unwrap(),
                expected_rows,
                "query_many, depth {depth}, {threads} threads"
            );
            assert_eq!(
                piped.count_many("inde", &probes, 1).unwrap(),
                expected_counts,
                "count_many, depth {depth}, {threads} threads"
            );
        }
        handle.shutdown();
    }
}

/// One step of a mixed read/write stream: a single-box probe or a write.
enum Op {
    Probe(WeightRatioBox),
    Insert(Vec<f64>),
    Delete(usize),
}

impl Op {
    fn request(&self) -> Request {
        let name = "inde".to_string();
        match self {
            Op::Probe(b) => Request::QueryBatch {
                name,
                boxes: vec![b.ranges().iter().map(|r| (r.lo(), r.hi())).collect()],
            },
            Op::Insert(coords) => Request::Insert {
                name,
                coords: coords.clone(),
            },
            Op::Delete(id) => Request::Delete {
                name,
                id: *id as u64,
            },
        }
    }
}

/// A stream of single-box probes with a write every fifth step.  The
/// writes cycle through an insert that dominates every point (each probe
/// then answers only the new id), the delete of that point, an insert of
/// an ordinary point, and the delete of a low id (every id above it
/// shifts), so a probe that misses a write answers differently.
fn mixed_ops(steps: usize, base_len: usize) -> Vec<Op> {
    let mut len = base_len;
    let mut writes = 0usize;
    (0..steps)
        .map(|i| {
            if i % 5 != 4 {
                return Op::Probe(probe(i));
            }
            writes += 1;
            match writes % 4 {
                1 => {
                    len += 1;
                    Op::Insert(vec![1e-6; 3])
                }
                2 => {
                    len -= 1;
                    Op::Delete(len)
                }
                3 => {
                    len += 1;
                    let x = (writes as f64 * 0.37).fract();
                    Op::Insert(vec![x, 1.0 - x, 0.5])
                }
                _ => {
                    len -= 1;
                    Op::Delete(writes % 17)
                }
            }
        })
        .collect()
}

/// Writes pipelined among probes on one connection run in order: at depth
/// 8, at 1 and at 4 executor threads (4 dispatcher workers), the answers
/// and write acks equal a serial in-process replay of the same stream, so
/// every probe sent after a write sees that write's epoch.
#[test]
fn pipelined_writes_and_probes_match_a_serial_replay() {
    let ops = mixed_ops(400, dataset().len());
    let replay = eclipse_core::EclipseEngine::new(dataset()).unwrap();
    let replay_ids = |b: &WeightRatioBox| -> Vec<u64> {
        let ids = replay.eclipse_query_batch(std::slice::from_ref(b), &Default::default());
        ids.unwrap()[0].iter().map(|&i| i as u64).collect()
    };
    let mutated = |summary: eclipse_core::Result<eclipse_core::MutationSummary>| {
        let summary = summary.unwrap();
        Response::Mutated {
            kind: summary.outcome.into(),
            epoch: summary.epoch,
            len: summary.len as u64,
        }
    };
    let mut expected = Vec::with_capacity(ops.len());
    let mut changed_by_write = 0;
    for (step, op) in ops.iter().enumerate() {
        // The probe right after a write, answered before the write runs.
        let next_probe = match (op, ops.get(step + 1)) {
            (Op::Probe(_), _) => None,
            (_, Some(Op::Probe(b))) => Some(b),
            _ => None,
        };
        let before = next_probe.map(replay_ids);
        expected.push(match op {
            Op::Probe(b) => Response::QueryResults(vec![replay_ids(b)]),
            Op::Insert(coords) => mutated(replay.insert(eclipse_core::Point::new(coords.clone()))),
            Op::Delete(id) => mutated(replay.delete(*id)),
        });
        if next_probe.map(replay_ids) != before {
            changed_by_write += 1;
        }
    }
    let writes = ops.iter().filter(|op| !matches!(op, Op::Probe(_))).count();
    assert!(
        changed_by_write * 2 >= writes,
        "only {changed_by_write} of {writes} writes change the next probe's answer"
    );

    for threads in [1usize, 4] {
        let (handle, addr) = spawn_server(
            ExecutionContext::with_threads(threads),
            ServerConfig::default(),
        );
        let mut client = PipelinedClient::connect(addr, 8).unwrap();
        assert_eq!(client.pipe_size(), 8);
        let ids: Vec<u64> = ops
            .iter()
            .map(|op| client.submit(&op.request()).unwrap())
            .collect();
        for (step, (id, want)) in ids.into_iter().zip(&expected).enumerate() {
            assert_eq!(
                &client.recv(id).unwrap(),
                want,
                "step {step}, {threads} threads"
            );
        }
        handle.shutdown();
    }
}

/// Sends `first` as a connection's first frame and checks the peer answers
/// one bare-framed typed `Error` and then closes the connection.
fn assert_first_frame_rejected(addr: SocketAddr, first: &[u8], what: &str) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut stream, first).unwrap();
    let reply = read_frame(&mut stream)
        .unwrap()
        .unwrap_or_else(|| panic!("{what}: closed without an answer"));
    assert!(
        matches!(Response::decode(&reply), Ok(Response::Error(_))),
        "{what}: expected a bare typed Error, got {:?}",
        Response::decode(&reply)
    );
    assert!(
        read_frame(&mut stream).unwrap().is_none(),
        "{what}: the connection must close after the rejection"
    );
}

/// First frames the handshake refuses: a request that is not a `Hello`, and
/// a `Hello` that cannot reach protocol v2.
fn refused_first_frames() -> [(Vec<u8>, &'static str); 2] {
    let hello_v1 = Request::Hello {
        max_version: 1,
        pipe_size: 8,
    };
    [
        (Request::Ping.encode(), "non-Hello first frame"),
        (hello_v1.encode(), "Hello{max_version: 1}"),
    ]
}

/// The server answers a first frame that is not a v2 `Hello` with a typed
/// `Error`, counts it in `errors`, and closes the connection.
#[test]
fn server_rejects_a_non_hello_or_v1_first_frame() {
    let (handle, addr) = spawn_server(ExecutionContext::serial(), ServerConfig::default());
    for (first, what) in refused_first_frames() {
        assert_first_frame_rejected(addr, &first, what);
    }
    let report = Client::connect(addr).unwrap().stats().unwrap();
    assert_eq!(report.errors, 2);
    handle.shutdown();
}

/// The router applies the same handshake rule as the server, and its
/// merged `Stats` counts the refusals with its members' errors.
#[test]
fn router_rejects_a_non_hello_or_v1_first_frame() {
    let (backend, backend_addr) = spawn_server(ExecutionContext::serial(), ServerConfig::default());
    let router = Router::bind("127.0.0.1:0", RouterConfig::new([backend_addr.to_string()]))
        .unwrap()
        .spawn()
        .unwrap();
    for (first, what) in refused_first_frames() {
        assert_first_frame_rejected(router.addr(), &first, what);
    }
    // A v2 client still gets through.
    Client::connect(router.addr()).unwrap().ping().unwrap();
    let report = Client::connect(router.addr()).unwrap().stats().unwrap();
    assert_eq!(report.errors, 2);
    router.shutdown();
    backend.shutdown();
}

/// The handshake clamps the requested depth to the server's cap, and a
/// `Hello` after the first frame is a typed error that leaves the
/// connection usable.
#[test]
fn hello_negotiation_clamps_depth_and_rejects_midstream_hello() {
    let (handle, addr) = spawn_server(
        ExecutionContext::serial(),
        ServerConfig {
            max_pipeline: 4,
            ..ServerConfig::default()
        },
    );

    let mut client = PipelinedClient::connect(addr, 64).unwrap();
    assert_eq!(client.pipe_size(), 4, "requested 64, server cap is 4");

    let err = client
        .call(&Request::Hello {
            max_version: PROTOCOL_V2,
            pipe_size: 8,
        })
        .unwrap_err();
    assert!(
        matches!(err, ClientError::Server(ref m) if m.contains("first frame")),
        "mid-stream Hello should be a typed server error, got {err:?}"
    );
    // The connection survived the rejected Hello.
    assert!(matches!(
        client.call(&Request::Ping).unwrap(),
        Response::Pong
    ));
    handle.shutdown();
}

/// A request whose deadline passes while it waits behind a heavy request is
/// answered with a typed `Timeout`, never executed, and the connection (and
/// the `timeouts` stats counter) reflect exactly that.
#[test]
fn deadline_expiry_is_typed_and_connection_survives() {
    let (handle, addr) = spawn_server(ExecutionContext::serial(), queued_config());

    let mut client = PipelinedClient::connect(addr, 8).unwrap();
    let heavy = client.submit(&heavy_count("inde")).unwrap();
    // 1 ms deadline behind a many-millisecond request on the only worker:
    // guaranteed to expire before execution starts.
    let doomed = client.submit_with_deadline(&Request::Ping, 1).unwrap();
    client.flush().unwrap();

    assert!(matches!(client.recv(heavy).unwrap(), Response::Counts(_)));
    let err = client.recv(doomed).unwrap_err();
    assert!(
        matches!(err, ClientError::TimedOut { deadline_ms: 1 }),
        "expected typed timeout, got {err:?}"
    );

    // The connection is still usable, and the counter recorded the timeout.
    assert!(matches!(
        client.call(&Request::Ping).unwrap(),
        Response::Pong
    ));
    match client.call(&Request::Stats).unwrap() {
        Response::Stats(report) => {
            assert_eq!(report.timeouts, 1);
            assert_eq!(report.rejected, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    handle.shutdown();
}

/// Blasting past the negotiated pipeline depth gets typed `Overloaded`
/// rejections (echoing the breached cap), the admitted requests still
/// complete, the connection stays usable, and the `rejected` counter adds
/// up.  Drives the wire directly so the client-side depth limiter cannot
/// get in the way.
#[test]
fn overload_rejection_is_typed_counted_and_recoverable() {
    let (handle, addr) = spawn_server(
        ExecutionContext::serial(),
        ServerConfig {
            max_pipeline: 2,
            workers: 1,
            ..ServerConfig::default()
        },
    );

    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut stream,
        &Request::Hello {
            max_version: PROTOCOL_V2,
            pipe_size: 8,
        }
        .encode(),
    )
    .unwrap();
    let ack = read_frame(&mut stream).unwrap().expect("HelloAck frame");
    match Response::decode(&ack).unwrap() {
        Response::HelloAck {
            version, pipe_size, ..
        } => {
            assert_eq!(version, PROTOCOL_V2);
            assert_eq!(pipe_size, 2, "requested 8, server cap is 2");
        }
        other => panic!("expected HelloAck, got {other:?}"),
    }

    // Eight heavy requests back to back: the first two are admitted (cap
    // 2), the other six must be rejected before execution.  That needs the
    // loop to read all eight before the first batch finishes and frees a
    // slot: they go out in one write, and on an anti-correlated dataset a
    // batch takes about 18 ms in release (about 3 ms on `inde`, which a
    // loop thread waiting for a CPU can outlast).
    let slow = SyntheticConfig::new(64, 3, Distribution::AntiCorrelated, 5).generate();
    Client::connect(addr)
        .unwrap()
        .load_dataset("slow", &slow, IndexKind::Quadtree)
        .unwrap();
    let body = heavy_count("slow").encode();
    let mut frames = Vec::new();
    for id in 1..=8u64 {
        let header = FrameHeader {
            request_id: id,
            deadline_ms: 0,
        };
        write_frame(&mut frames, &header.with_body(&body)).unwrap();
    }
    stream.write_all(&frames).unwrap();

    let (mut admitted, mut rejected) = (0, 0);
    for _ in 0..8 {
        let payload = read_frame(&mut stream).unwrap().expect("response frame");
        let (header, body) = FrameHeader::split(&payload).unwrap();
        match Response::decode(body).unwrap() {
            Response::Counts(counts) => {
                assert_eq!(counts.len(), HEAVY_PROBES);
                admitted += 1;
            }
            Response::Overloaded { in_flight, limit } => {
                assert_eq!((in_flight, limit), (2, 2), "request {}", header.request_id);
                rejected += 1;
            }
            other => panic!("request {}: unexpected {other:?}", header.request_id),
        }
    }
    assert_eq!((admitted, rejected), (2, 6));

    // The connection shrugged it off.
    let header = FrameHeader {
        request_id: 99,
        deadline_ms: 0,
    };
    write_frame(&mut stream, &header.with_body(&Request::Ping.encode())).unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("pong frame");
    let (header, body) = FrameHeader::split(&payload).unwrap();
    assert_eq!(header.request_id, 99);
    assert!(matches!(Response::decode(body).unwrap(), Response::Pong));

    let mut observer = Client::connect(addr).unwrap();
    let report = observer.stats().unwrap();
    assert_eq!(report.rejected, 6);
    assert_eq!(report.timeouts, 0);
    handle.shutdown();
}

/// `Stats` answers with live flow-control state: the stats request itself
/// is in flight while it is being answered, and its connection shows up in
/// the per-connection queue depths.
#[test]
fn stats_reports_in_flight_and_queue_depths() {
    let (handle, addr) = spawn_server(ExecutionContext::serial(), queued_config());
    let mut client = Client::connect(addr).unwrap();
    let report = client.stats().unwrap();
    assert!(report.in_flight >= 1, "stats call counts itself in flight");
    assert!(
        report.conn_queue_depths.iter().sum::<u32>() >= 1,
        "this connection's queue depth includes the stats call: {:?}",
        report.conn_queue_depths
    );
    handle.shutdown();
}

/// Loads the anti-correlated `anti` dataset on the server at `addr`.  Its
/// skyline makes each wide box cost about a millisecond in release, so a
/// batch that holds a worker for long stays small on the wire.
fn load_anti(addr: SocketAddr) {
    let anti = SyntheticConfig::new(512, 3, Distribution::AntiCorrelated, 5).generate();
    Client::connect(addr)
        .unwrap()
        .load_dataset("anti", &anti, IndexKind::Quadtree)
        .unwrap();
}

/// A `CountBatch` of `boxes` wide boxes on `anti`.
fn wide(boxes: usize) -> Request {
    Request::CountBatch {
        name: "anti".to_string(),
        boxes: vec![vec![(0.18, 5.67); 2]; boxes],
    }
}

/// How many wide boxes hold one worker of the server at `addr` for about
/// `micros` in this build (timed on 8 boxes), and at least the 65 that are
/// dispatched rather than run inline.
fn wide_boxes_for(addr: SocketAddr, micros: u128) -> usize {
    let mut timer = PipelinedClient::connect(addr, 1).unwrap();
    let started = Instant::now();
    timer.call(&wide(8)).unwrap();
    let per_box = (started.elapsed().as_micros() / 8).max(1);
    (micros / per_box).clamp(65, 10_000) as usize
}

/// Graceful shutdown: admitted requests are drained and answered; only then
/// does the connection close.  The router drains the same way: what it
/// admitted is answered while its backend stays up.  Each batch is sized
/// by timing to outlast the sleep before shutdown, so work is still queued
/// and running when the drain begins, in debug and release builds alike.
#[test]
fn graceful_shutdown_drains_admitted_requests() {
    for routed in [false, true] {
        let (handle, addr) = spawn_server(ExecutionContext::serial(), queued_config());
        load_anti(addr);
        let boxes = wide_boxes_for(addr, 150_000);
        let router = routed.then(|| {
            Router::bind(
                "127.0.0.1:0",
                RouterConfig {
                    io_timeout: Duration::from_secs(60),
                    ..RouterConfig::new([addr.to_string()])
                },
            )
            .unwrap()
            .spawn()
            .unwrap()
        });
        let target = router.as_ref().map_or(addr, |router| router.addr());

        let mut client = PipelinedClient::connect(target, 8).unwrap();
        let ids: Vec<u64> = (0..3)
            .map(|_| client.submit(&wide(boxes)).unwrap())
            .collect();
        client.flush().unwrap();
        // Give the server time to read and admit all three before the drain
        // begins (the loop parses within microseconds of the flush).
        std::thread::sleep(Duration::from_millis(30));

        let (drainer, backend) = match router {
            Some(router) => (std::thread::spawn(move || router.shutdown()), Some(handle)),
            None => (std::thread::spawn(move || handle.shutdown()), None),
        };
        for id in ids {
            assert!(
                matches!(client.recv(id).unwrap(), Response::Counts(_)),
                "routed {routed}: admitted request {id} must be answered during the drain"
            );
        }
        drainer.join().unwrap();

        // After the drain the server is gone: the next call fails typed.
        let err = client.call(&Request::Ping).unwrap_err();
        assert!(
            matches!(err, ClientError::ConnectionClosed),
            "routed {routed}: expected ConnectionClosed after drain, got {err:?}"
        );
        if let Some(backend) = backend {
            backend.shutdown();
        }
    }
}

/// The router forwards the time left of a client's deadline: a request
/// that expires while queued on a one-worker backend behind a heavy batch
/// comes back `Timeout` through the router, and the backend counts it.
#[test]
fn deadline_expires_behind_a_heavy_batch_through_the_router() {
    const DEADLINE_MS: u32 = 50;
    let (backend, addr) = spawn_server(ExecutionContext::serial(), queued_config());
    load_anti(addr);
    // Hold the backend's worker for about half a second, far past the
    // sleep and the deadline below.
    let heavy_boxes = wide_boxes_for(addr, 500_000);

    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            io_timeout: Duration::from_secs(60),
            ..RouterConfig::new([addr.to_string()])
        },
    )
    .unwrap()
    .spawn()
    .unwrap();
    let mut client = PipelinedClient::connect(router.addr(), 8).unwrap();
    let heavy = client.submit(&wide(heavy_boxes)).unwrap();
    client.flush().unwrap();
    // Let the heavy batch reach the backend's worker first.
    std::thread::sleep(Duration::from_millis(20));
    let doomed = client.submit_with_deadline(&wide(1), DEADLINE_MS).unwrap();
    client.flush().unwrap();

    assert!(matches!(client.recv(heavy).unwrap(), Response::Counts(_)));
    let err = client.recv(doomed).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::TimedOut {
                deadline_ms: DEADLINE_MS
            }
        ),
        "expected the client's deadline back as a typed timeout, got {err:?}"
    );
    let mut direct = Client::connect(addr).unwrap();
    assert_eq!(
        direct.stats().unwrap().timeouts,
        1,
        "the backend timed it out"
    );
    router.shutdown();
    backend.shutdown();
}

/// A replicated write reaches every replica or none: the router checks the
/// client's deadline once, before the first replica, and then runs the fan
/// to completion.  An insert whose deadline passes while the second
/// replica's one worker is busy is still applied there, so both replicas
/// answer the same and report the same epoch.
#[test]
fn replicated_insert_outlives_its_deadline_on_every_replica() {
    const DEADLINE_MS: u32 = 50;
    let backends: Vec<(ServerHandle, SocketAddr)> = (0..2)
        .map(|_| spawn_server(ExecutionContext::serial(), queued_config()))
        .collect();
    for (_, addr) in &backends {
        load_anti(*addr);
    }
    let busy_addr = backends[1].1;
    let heavy_boxes = wide_boxes_for(busy_addr, 500_000);
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            replicated: vec!["anti".to_string()],
            io_timeout: Duration::from_secs(60),
            ..RouterConfig::new(backends.iter().map(|(_, addr)| addr.to_string()))
        },
    )
    .unwrap()
    .spawn()
    .unwrap();

    // Occupy the second replica's worker directly, then insert through the
    // router: the first replica applies it at once, the second only after
    // the heavy batch, long after the deadline.
    let mut busy = PipelinedClient::connect(busy_addr, 1).unwrap();
    let heavy = busy.submit(&wide(heavy_boxes)).unwrap();
    busy.flush().unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let mut client = PipelinedClient::connect(router.addr(), 8).unwrap();
    let insert = Request::Insert {
        name: "anti".to_string(),
        coords: vec![0.5; 3],
    };
    let id = client.submit_with_deadline(&insert, DEADLINE_MS).unwrap();
    client.flush().unwrap();
    let answer = client.recv(id);
    assert!(
        matches!(answer, Ok(Response::Mutated { .. })),
        "a started replicated insert must be applied on every replica, got {answer:?}"
    );
    assert!(matches!(busy.recv(heavy).unwrap(), Response::Counts(_)));

    let replica = |addr: SocketAddr| {
        let mut direct = Client::connect(addr).unwrap();
        let boxes: Vec<WeightRatioBox> = (0..6).map(probe).collect();
        let answers = direct.query_batch("anti", &boxes).unwrap();
        let epoch = direct
            .stats()
            .unwrap()
            .datasets
            .iter()
            .find(|d| d.name == "anti")
            .expect("every replica holds anti")
            .epoch;
        (answers, epoch)
    };
    assert_eq!(
        replica(backends[0].1),
        replica(busy_addr),
        "the replicas diverged"
    );
    router.shutdown();
    for (backend, _) in backends {
        backend.shutdown();
    }
}

/// Satellite regression: killing the server mid-batch surfaces as the typed
/// `ConnectionClosed` on a pipelined connection — not a panic, not an
/// opaque i/o error.
#[test]
fn abort_mid_pipeline_is_typed_connection_closed() {
    let (handle, addr) = spawn_server(ExecutionContext::serial(), queued_config());

    let mut client = PipelinedClient::connect(addr, 8).unwrap();
    // The first request is big enough that the single worker cannot finish
    // it before the abort fires even in release builds, so the requests
    // queued behind it are deterministically cut short.
    let mut ids = vec![client
        .submit(&heavy_count_n("inde", 64 * HEAVY_PROBES))
        .unwrap()];
    ids.extend((0..3).map(|_| client.submit(&heavy_count("inde")).unwrap()));
    client.flush().unwrap();
    std::thread::sleep(Duration::from_millis(20));
    handle.abort();

    let mut closed = 0;
    for id in ids {
        match client.recv(id) {
            Ok(Response::Counts(_)) => {} // raced ahead of the abort
            Err(ClientError::ConnectionClosed) => closed += 1,
            other => panic!("expected Counts or ConnectionClosed, got {other:?}"),
        }
    }
    assert!(closed >= 1, "the abort must cut at least one request short");
}

/// The same regression through the blocking client (the original
/// mid-batch-death repro): `count_batch` against a dead server returns
/// `ConnectionClosed`.  `abort()` joins the loop thread (sockets closed on
/// return), so issuing the call afterwards is deterministic in both debug
/// and release — the genuinely mid-flight race is covered by
/// `abort_mid_pipeline_is_typed_connection_closed` above.
#[test]
fn abort_mid_blocking_call_is_typed_connection_closed() {
    let (handle, addr) = spawn_server(ExecutionContext::serial(), queued_config());

    let mut client = Client::connect(addr).unwrap();
    handle.abort();
    let boxes = vec![WeightRatioBox::uniform(3, 0.01, 100.0).unwrap(); HEAVY_PROBES];
    let err = client.count_batch("inde", &boxes).unwrap_err();
    assert!(
        matches!(err, ClientError::ConnectionClosed),
        "expected ConnectionClosed, got {err:?}"
    );
}

/// A hand-written protocol-v2 peer on a raw listener: it grants `pipe_size`
/// to the client's `Hello` and then runs `script` on the accepted stream.
fn fake_peer(
    pipe_size: u32,
    script: impl FnOnce(&mut TcpStream) + Send + 'static,
) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        read_frame(&mut stream).unwrap().expect("Hello frame");
        let ack = Response::HelloAck {
            version: PROTOCOL_V2,
            pipe_size,
            max_frame_len: MAX_FRAME_LEN,
        };
        write_frame(&mut stream, &ack.encode()).unwrap();
        script(&mut stream)
    });
    (addr, peer)
}

/// Reads one v2 request frame and returns its id.
fn read_request_id(stream: &mut TcpStream) -> u64 {
    let payload = read_frame(stream).unwrap().expect("request frame");
    FrameHeader::split(&payload).unwrap().0.request_id
}

/// The framed answer to request `id`: a `Counts` body echoing the id, so a
/// reply handed to the wrong `recv` cannot pass for the right one.
fn answer(id: u64) -> Vec<u8> {
    let payload = FrameHeader {
        request_id: id,
        deadline_ms: 0,
    }
    .with_body(&Response::Counts(vec![id]).encode());
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).unwrap();
    frame
}

/// Whether any request bytes are waiting on the peer's side of the socket.
fn bytes_waiting(stream: &mut TcpStream) -> bool {
    stream.set_nonblocking(true).unwrap();
    let waiting = match stream.peek(&mut [0u8; 1]) {
        Ok(n) => n > 0,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(e) => panic!("peek failed: {e}"),
    };
    stream.set_nonblocking(false).unwrap();
    waiting
}

/// Receives request `id` and checks it got the fake peer's answer to `id`.
fn recv_answer(client: &mut PipelinedClient, id: u64) {
    match client.recv(id) {
        Ok(Response::Counts(counts)) => assert_eq!(counts, vec![id], "answer to request {id}"),
        other => panic!("request {id}: expected its Counts answer, got {other:?}"),
    }
}

/// The read buffer holds A's frame and only the start of B's when C is
/// submitted; the peer sends the rest of B only after it has read C.  The
/// client must send C before it waits for B's remaining bytes: a client
/// that skipped the flush whenever its buffer held any bytes would time
/// out here instead.
#[test]
fn pipelined_client_sends_before_reading_a_partial_frame() {
    // Cut B's frame inside its length prefix, and just after it.
    for cut in [2usize, 6] {
        let (addr, peer) = fake_peer(8, move |stream| {
            let (a, b) = (read_request_id(stream), read_request_id(stream));
            let b_frame = answer(b);
            let mut burst = answer(a);
            burst.extend_from_slice(&b_frame[..cut]);
            stream.write_all(&burst).unwrap();
            let c = read_request_id(stream);
            stream.write_all(&b_frame[cut..]).unwrap();
            stream.write_all(&answer(c)).unwrap();
        });
        let mut client = PipelinedClient::connect(addr, 8).unwrap();
        client.set_io_timeout(Some(Duration::from_secs(5))).unwrap();
        let a = client.submit(&Request::Ping).unwrap();
        let b = client.submit(&Request::Ping).unwrap();
        recv_answer(&mut client, a);
        let c = client.submit(&Request::Ping).unwrap();
        recv_answer(&mut client, b);
        recv_answer(&mut client, c);
        peer.join().unwrap();
    }
}

/// With B's whole frame already buffered, `recv(B)` reads it without
/// sending C (nothing reaches the peer), and the next `recv`, which has to
/// wait on the socket, sends C first.
#[test]
fn pipelined_client_defers_sending_while_a_whole_frame_is_buffered() {
    let (ask, asked) = mpsc::channel::<()>();
    let (tell, told) = mpsc::channel::<bool>();
    let (addr, peer) = fake_peer(8, move |stream| {
        let (a, b) = (read_request_id(stream), read_request_id(stream));
        let mut burst = answer(a);
        burst.extend_from_slice(&answer(b));
        stream.write_all(&burst).unwrap();
        asked.recv().unwrap();
        tell.send(bytes_waiting(stream)).unwrap();
        let c = read_request_id(stream);
        stream.write_all(&answer(c)).unwrap();
    });
    let mut client = PipelinedClient::connect(addr, 8).unwrap();
    client.set_io_timeout(Some(Duration::from_secs(5))).unwrap();
    let a = client.submit(&Request::Ping).unwrap();
    let b = client.submit(&Request::Ping).unwrap();
    recv_answer(&mut client, a);
    let c = client.submit(&Request::Ping).unwrap();
    recv_answer(&mut client, b);
    ask.send(()).unwrap();
    assert!(
        !told.recv().unwrap(),
        "C was sent although B's answer was already buffered"
    );
    recv_answer(&mut client, c);
    peer.join().unwrap();
}

/// A `submit` into a full pipeline reads one answer to make room: with the
/// read buffer empty it sends the queued requests first (or both sides
/// would wait forever), and with a whole frame buffered it reads that frame
/// and sends nothing.
#[test]
fn pipelined_client_submit_into_a_full_pipeline_sends_before_blocking() {
    let (ask, asked) = mpsc::channel::<()>();
    let (tell, told) = mpsc::channel::<bool>();
    let (addr, peer) = fake_peer(2, move |stream| {
        let (a, b) = (read_request_id(stream), read_request_id(stream));
        let mut burst = answer(a);
        burst.extend_from_slice(&answer(b));
        stream.write_all(&burst).unwrap();
        asked.recv().unwrap();
        tell.send(bytes_waiting(stream)).unwrap();
        let (c, d) = (read_request_id(stream), read_request_id(stream));
        let mut burst = answer(d);
        burst.extend_from_slice(&answer(c));
        stream.write_all(&burst).unwrap();
    });
    let mut client = PipelinedClient::connect(addr, 8).unwrap();
    assert_eq!(client.pipe_size(), 2);
    client.set_io_timeout(Some(Duration::from_secs(5))).unwrap();
    let a = client.submit(&Request::Ping).unwrap();
    let b = client.submit(&Request::Ping).unwrap();
    // Full: reads A off the socket, which first sends A and B.
    let c = client.submit(&Request::Ping).unwrap();
    // Full again: B's frame is buffered, so it is read and C stays unsent.
    let d = client.submit(&Request::Ping).unwrap();
    ask.send(()).unwrap();
    assert!(
        !told.recv().unwrap(),
        "C was sent although B's answer was already buffered"
    );
    recv_answer(&mut client, b);
    recv_answer(&mut client, a);
    recv_answer(&mut client, c);
    recv_answer(&mut client, d);
    peer.join().unwrap();
}
