//! `write_evict`: mutations and queries against a memory-budgeted server.
//!
//! One server (one worker, serial context) with a fresh snapshot directory
//! holds four INDE n = 2^10 datasets (the paper's default n), two QUAD
//! (hot) and two CUTTING (cold), under a memory budget that holds the hot
//! pair and one cold dataset but never all four (about two thirds of their
//! accounted bytes as built).  One
//! connection at depth 1 alternates single-box queries (query and count in
//! turn) with mutations of the hot datasets; every sixteenth operation
//! queries a cold dataset, the two in turn, so each of those reloads one
//! cold dataset and evicts the other.
//! Per dataset the mutations cycle through sixteen steps: a skyline-entering
//! insert (a skyline member nudged down in one coordinate), the delete of
//! that point (which restores the skyline), then dominated inserts and
//! non-skyline deletes in turn, so one mutation in eight takes a
//! skyline-touching path (an arena rebuild) and size and skyline stay
//! stationary over a run.  A touch of the evicted cold dataset restores it
//! from its snapshot; set-up saves the snapshots as registration evicts.
//!
//! The run is split into rounds, each on a fresh server, snapshot directory
//! and mirror: the server's start-up is one set-up sample, and one unlucky
//! placement of the server's threads or memory sets one round's speed, not
//! the run's (see [`crate::rounds_report`]).
//!
//! Every answer and acknowledgement is checked against an unbounded
//! in-process mirror engine fed the same mutations, and the accounted
//! total is checked against the budget plus the largest resident dataset.
//! The mirror's work runs between requests and is not timed; with one
//! request in flight, `ops_per_s` is one over the mean request latency.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eclipse_bench::workloads::probe_ratio_boxes;
use eclipse_core::index::{IndexConfig, IntersectionIndexKind};
use eclipse_core::weights::WeightRatioBox;
use eclipse_core::{EclipseEngine, ExecutionContext, Point, QueryOptions};
use eclipse_serve::client::ClientResult;
use eclipse_serve::protocol::{MutationKind, Request, Response, StatsReport};
use eclipse_serve::{IndexKind, PipelinedClient, Server, ServerConfig, ServerHandle};

use crate::layers;
use crate::trace::Tracer;
use crate::{
    dataset, dominated_by, dominating, median, rounds_report, wire_box, EndToEnd, Report,
    RunConfig, Tally, DIM,
};

/// Points per dataset.  A reload restores, and a skyline-touching mutation
/// rebuilds, an arena whose size follows the skyline size, which grows with
/// n: at 2^10 they cost about 3 and 12 ms (against 20 and 100 ms at 2^15),
/// so a run collects hundreds of each and the p99 figures, which fall among
/// them, rest on many samples.
pub const N: usize = 1 << 10;
/// Dataset seed offset of each dataset (see [`crate::DATASET_SEED`]): of the
/// first nine offsets, ones whose skylines are typical for n = 2^10 (27, 24,
/// 25 and 28 points; the serve dataset, offset 0, has 27) and for which
/// [`budget_for`] can separate the hot pair plus one cold dataset from all
/// four.
const OFFSETS: [u64; 4] = [0, 2, 1, 5];
/// Index kind per dataset.
const KINDS: [IntersectionIndexKind; 4] = [
    IntersectionIndexKind::Quadtree,
    IntersectionIndexKind::Quadtree,
    IntersectionIndexKind::CuttingTree,
    IntersectionIndexKind::CuttingTree,
];
/// The hot datasets, the two QUAD ones: they take every mutation and most
/// queries.  The budget holds both plus one cold CUTTING dataset.
const HOT: [usize; 2] = [0, 1];
/// The cold datasets, the two CUTTING ones, queried in turn by every
/// [`COLD_EVERY`]-th operation.  Each such query reloads its dataset and
/// evicts the other cold one, the least recently used (the hot pair is
/// touched in between), which is never mutated, so the eviction writes
/// nothing and every reload costs the same.
const COLD: [usize; 2] = [2, 3];
/// Operations per cold query.
const COLD_EVERY: u64 = 16;
/// Relative pick weight of each hot dataset for the other queries.
const QUERY_WEIGHTS: [u32; 2] = [3, 2];
/// Relative pick weight of each hot dataset for mutations.
const MUTATION_WEIGHTS: [u32; 2] = [2, 1];
/// Distinct boxes drawn per run.
const BOXES: usize = 4096;
/// Rounds per run, each on a fresh server.
const ROUNDS: usize = 20;
/// Operations between two budget checks.
const CHECK_EVERY: u64 = 32;
/// Unrecorded (but checked) operations before each round's measurement:
/// each cold dataset is reloaded four times, so both sit at their restored
/// size.
const WARM_UP_OPS: u64 = 4 * COLD_EVERY * COLD.len() as u64;

fn name(d: usize) -> String {
    format!("ds{d}")
}

/// A scratch directory under the working directory, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Creates `.bench_tmp/<label>-<pid>-<k>`, `k` counting the directories
    /// this process has made, so concurrent runs in one process never
    /// share one.
    ///
    /// # Errors
    /// File-system errors.
    pub fn create(label: &str) -> Result<ScratchDir, String> {
        static MADE: AtomicU64 = AtomicU64::new(0);
        let k = MADE.fetch_add(1, Ordering::Relaxed);
        let path = PathBuf::from(".bench_tmp").join(format!("{label}-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The unbounded in-process reference, one engine per dataset.  Its
/// quadtree is cut off at depth 4: answers stay exact (the replay
/// adjudicates every candidate), and a skyline-touching mutation rebuilds
/// a few hundred nodes instead of the server's full arena, so the mirror
/// costs the run little time.
pub struct Mirror {
    engines: Vec<EclipseEngine>,
}

impl Mirror {
    /// Builds every dataset's reference engine.
    pub fn build(datasets: &[Vec<Point>]) -> Mirror {
        let mut config = IndexConfig::with_kind(IntersectionIndexKind::Quadtree);
        config.quadtree.max_depth = 4;
        let engines = datasets
            .iter()
            .map(|points| {
                let engine = EclipseEngine::with_index_config(points.clone(), config)
                    .expect("generated datasets are valid")
                    .with_execution_context(ExecutionContext::serial());
                engine
                    .build_index(IntersectionIndexKind::Quadtree)
                    .expect("index builds");
                engine
            })
            .collect();
        Mirror { engines }
    }
}

/// Accounted bytes of each dataset at its largest and smallest: as built
/// and then mutated (buffers keep their growth slack), and as restored from
/// its snapshot (buffers exactly sized, about a third smaller).
fn size_range(datasets: &[Vec<Point>]) -> Vec<(u64, u64)> {
    datasets
        .iter()
        .zip(KINDS)
        .map(|(points, kind)| {
            let engine =
                EclipseEngine::with_index_config(points.clone(), IndexConfig::with_kind(kind))
                    .expect("generated datasets are valid")
                    .with_execution_context(ExecutionContext::serial());
            engine.build_index(kind).expect("index builds");
            let bytes = engine
                .save_snapshot("size", kind)
                .expect("snapshot encodes");
            let (_, restored) = EclipseEngine::from_snapshot(&bytes).expect("snapshot decodes");
            engine
                .insert(dominated_by(&points[0]))
                .expect("dominated insert applies");
            (engine.heap_bytes() as u64, restored.heap_bytes() as u64)
        })
        .collect()
}

/// A budget that holds the hot pair at their largest plus one cold dataset
/// as it comes back from its snapshot (cold datasets are never mutated, so
/// after their first eviction they stay at that size), but never all four
/// datasets, even at their smallest: the midpoint of the two.  Server-side
/// eviction only runs when something is admitted, so if all four ever fit,
/// nothing would be evicted again.
fn budget_for(sizes: &[(u64, u64)]) -> Result<u64, String> {
    let hot_max: u64 = HOT.iter().map(|&d| sizes[d].0).sum();
    let cold_max = COLD.iter().map(|&d| sizes[d].1).max().unwrap_or(0);
    let all_min: u64 = sizes.iter().map(|s| s.1).sum();
    let fits = hot_max + cold_max;
    if fits >= all_min {
        return Err(format!(
            "no budget separates hot + one cold ({fits} B) from all four ({all_min} B): {sizes:?}"
        ));
    }
    Ok((fits + all_min) / 2)
}

/// Index of the weighted pick `x < weights.sum()`.
fn weighted(weights: &[u32], mut x: u32) -> usize {
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// A mutation the stream plans from the mirror's current state.
enum Mutation {
    Insert(Point, MutationKind),
    Delete(usize, MutationKind),
}

/// The operation stream's state, carried across the phases of a run.
pub struct Stream {
    rng: StdRng,
    op: u64,
    reads: u64,
    cycle: [u64; 4],
    /// Acknowledged outcomes per class: dominated insert, skyline insert,
    /// plain delete, skyline delete.
    pub outcomes: [u64; 4],
}

impl Stream {
    /// A fresh stream for round `round` of a run.
    pub fn new(seed: u64, round: u64) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(
                seed ^ 0x2545_f491_4f6c_dd1d ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
            op: 0,
            reads: 0,
            cycle: [0; 4],
            outcomes: [0; 4],
        }
    }

    fn pick_query(&mut self, op: u64) -> usize {
        if op.is_multiple_of(COLD_EVERY) {
            return COLD[(op / COLD_EVERY) as usize % COLD.len()];
        }
        let x = self.rng.gen_range(0..QUERY_WEIGHTS.iter().sum());
        HOT[weighted(&QUERY_WEIGHTS, x)]
    }

    fn pick_mutation(&mut self) -> usize {
        let x = self.rng.gen_range(0..MUTATION_WEIGHTS.iter().sum());
        HOT[weighted(&MUTATION_WEIGHTS, x)]
    }

    fn plan(&mut self, engine: &EclipseEngine, d: usize) -> Mutation {
        let step = self.cycle[d] % 16;
        self.cycle[d] += 1;
        let points = engine.points();
        let len = points.len();
        match step {
            0 => {
                let sky = engine.skyline();
                let member = &points[sky[self.rng.gen_range(0..sky.len())]];
                Mutation::Insert(dominating(member), MutationKind::InsertedSkyline)
            }
            1 => Mutation::Delete(len - 1, MutationKind::DeletedSkyline),
            s if s % 2 == 0 => {
                let p = dominated_by(&points[self.rng.gen_range(0..len)]);
                Mutation::Insert(p, MutationKind::InsertedDominated)
            }
            _ => {
                let sky = engine.skyline();
                let id = loop {
                    let id = self.rng.gen_range(0..len);
                    if sky.binary_search(&id).is_err() {
                        break id;
                    }
                };
                Mutation::Delete(id, MutationKind::DeletedNonSkyline)
            }
        }
    }
}

fn class(kind: MutationKind) -> usize {
    match kind {
        MutationKind::InsertedDominated => 0,
        MutationKind::InsertedSkyline => 1,
        MutationKind::DeletedNonSkyline => 2,
        MutationKind::DeletedSkyline => 3,
    }
}

/// Runs the loop for `duration` of wall time, and for at least one cycle of
/// [`COLD_EVERY`] operations so that every call queries a cold dataset even
/// when its CPU is contended, checking every answer against the mirror and
/// the accounted total against the budget (bytes).
#[allow(clippy::too_many_arguments)]
pub fn drive(
    client: &mut PipelinedClient,
    mirror: &Mirror,
    boxes: &[WeightRatioBox],
    budget: u64,
    stream: &mut Stream,
    duration: Duration,
    out: &mut EndToEnd,
    mut hook: Option<&mut Tracer>,
) {
    let opts = QueryOptions::default();
    let start = Instant::now();
    let first = stream.op;
    while start.elapsed() < duration || stream.op - first < COLD_EVERY {
        let op = stream.op;
        stream.op += 1;
        let d = if op.is_multiple_of(2) {
            stream.pick_query(op)
        } else {
            stream.pick_mutation()
        };
        let engine = &mirror.engines[d];
        if op.is_multiple_of(2) {
            let b = (stream.reads as usize / 2) % boxes.len();
            let is_query = stream.reads.is_multiple_of(2);
            stream.reads += 1;
            let wire = vec![wire_box(&boxes[b])];
            let request = if is_query {
                Request::QueryBatch {
                    name: name(d),
                    boxes: wire,
                }
            } else {
                Request::CountBatch {
                    name: name(d),
                    boxes: wire,
                }
            };
            let span_name = if is_query {
                "client.query"
            } else {
                "client.count"
            };
            let one = std::slice::from_ref(&boxes[b]);
            let (response, latency, want) =
                timed_call(client, &request, hook.as_deref_mut(), span_name, op, || {
                    engine.eclipse_query_batch(one, &opts)
                });
            let ok = match (response, want) {
                (Ok(Response::QueryResults(rows)), Ok(want)) if is_query => {
                    rows.len() == 1
                        && rows[0].len() == want[0].len()
                        && rows[0].iter().zip(&want[0]).all(|(&a, &b)| a == b as u64)
                }
                (Ok(Response::Counts(counts)), Ok(want)) if !is_query => {
                    counts == [want[0].len() as u64]
                }
                _ => false,
            };
            out.query.push(latency * 1e6);
            out.elapsed_s += latency;
            out.probes += 1;
            out.ops += 1;
            out.tally.record(ok);
        } else {
            let mutation = stream.plan(engine, d);
            let (request, planned) = match &mutation {
                Mutation::Insert(p, kind) => (
                    Request::Insert {
                        name: name(d),
                        coords: p.coords().to_vec(),
                    },
                    *kind,
                ),
                Mutation::Delete(id, kind) => (
                    Request::Delete {
                        name: name(d),
                        id: *id as u64,
                    },
                    *kind,
                ),
            };
            let (response, latency, applied) = timed_call(
                client,
                &request,
                hook.as_deref_mut(),
                "client.mutate",
                op,
                || match mutation {
                    Mutation::Insert(p, _) => engine.insert(p),
                    Mutation::Delete(id, _) => engine.delete(id),
                },
            );
            let ok = match (response, applied) {
                (Ok(Response::Mutated { kind, epoch, len }), Ok(want)) => {
                    kind == planned
                        && MutationKind::from(want.outcome) == planned
                        && epoch == want.epoch
                        && len == want.len as u64
                }
                _ => false,
            };
            if ok {
                stream.outcomes[class(planned)] += 1;
            }
            out.write.push(latency * 1e6);
            out.elapsed_s += latency;
            out.ops += 1;
            out.tally.record(ok);
        }
        if stream.op.is_multiple_of(CHECK_EVERY) {
            // The server may exceed its budget by the dataset in use only.
            let ok = stats(client).is_some_and(|s| {
                let largest = s.datasets.iter().map(|d| d.bytes).max().unwrap_or(0);
                s.total_bytes <= budget + largest
            });
            out.tally.record(ok);
        }
    }
}

/// Sends `request` and waits for the answer inside a span named `span`,
/// then runs the mirror's share of the operation; returns the answer, the
/// seconds from send to answer, and the mirror's result.  The mirror runs
/// only after the answer is in, so its time never enters the latency (the
/// server idles meanwhile, as it would between a real client's requests).
fn timed_call<T>(
    client: &mut PipelinedClient,
    request: &Request,
    hook: Option<&mut Tracer>,
    span: &'static str,
    op: u64,
    mirror: impl FnOnce() -> T,
) -> (ClientResult<Response>, f64, T) {
    let t0 = Instant::now();
    let response = match hook {
        Some(tracer) => tracer.span(span, None, op, || client.call(request)),
        None => client.call(request),
    };
    let latency = t0.elapsed().as_secs_f64();
    (response, latency, mirror())
}

fn stats(client: &mut PipelinedClient) -> Option<StatsReport> {
    match client.call(&Request::Stats) {
        Ok(Response::Stats(report)) => Some(report),
        _ => None,
    }
}

/// Starts the budgeted server over `datasets` in a fresh snapshot
/// directory and connects the client.
///
/// # Errors
/// Socket, file-system and registration failures.
pub fn start(
    datasets: &[Vec<Point>],
    budget: u64,
    label: &str,
) -> Result<(PipelinedClient, ServerHandle, ScratchDir), String> {
    let dir = ScratchDir::create(label)?;
    let server = Server::bind_with_config(
        "127.0.0.1:0",
        ExecutionContext::serial(),
        ServerConfig {
            workers: 1,
            max_memory_bytes: Some(budget),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind server: {e}"))?;
    server.set_snapshot_dir(&dir.0);
    // Cold datasets first: registering the hot pair then evicts a cold one,
    // never a hot one, so the hot pair keeps its registration-time size.
    for d in COLD.into_iter().chain(HOT) {
        server
            .register_dataset(&name(d), datasets[d].clone(), IndexKind::from(KINDS[d]))
            .map_err(|e| format!("register dataset: {e}"))?;
    }
    let handle = server.spawn().map_err(|e| format!("spawn server: {e}"))?;
    let client =
        PipelinedClient::connect(handle.addr(), 1).map_err(|e| format!("connect client: {e}"))?;
    Ok((client, handle, dir))
}

/// Drives `stream` without recording latencies until it has issued
/// [`WARM_UP_OPS`] operations; returns the warm-up's correctness tally.
fn warm_up(
    client: &mut PipelinedClient,
    mirror: &Mirror,
    boxes: &[WeightRatioBox],
    budget: u64,
    stream: &mut Stream,
) -> Tally {
    let mut warm = EndToEnd::default();
    while stream.op < WARM_UP_OPS {
        drive(
            client,
            mirror,
            boxes,
            budget,
            stream,
            Duration::from_millis(10),
            &mut warm,
            None,
        );
    }
    warm.tally
}

/// Runs `write_evict`.
///
/// # Errors
/// Set-up failures.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let datasets: Vec<Vec<Point>> = OFFSETS.iter().map(|&offset| dataset(N, offset)).collect();
    let boxes = probe_ratio_boxes(BOXES, DIM, cfg.seed);
    let dataset_bytes = size_range(&datasets);
    let budget = budget_for(&dataset_bytes)?;
    let seconds = Duration::from_secs_f64(cfg.seconds);
    let mut outcomes = [0u64; 4];

    let mut report = if cfg.trace {
        let mirror = Mirror::build(&datasets);
        let (mut client, server, dir) = start(&datasets, budget, "write_evict")?;
        let mut stream = Stream::new(cfg.seed, 0);
        let warm = warm_up(&mut client, &mirror, &boxes, budget, &mut stream);
        let mut tracer = Tracer::new();
        let mut values = layers::profile(&datasets[0], &boxes, &mut tracer);
        let overhead = layers::replay_overhead(seconds, &mut tracer, |dur, out, hook| {
            drive(
                &mut client,
                &mirror,
                &boxes,
                budget,
                &mut stream,
                dur,
                out,
                hook,
            )
        });
        values.insert("trace.overhead_frac", overhead.frac);
        let mut tally = overhead.tally;
        tally.add(warm);
        match stats(&mut client) {
            Some(s) => crate::serve::insert_residency(&mut values, &s),
            None => tally.record(false),
        }
        outcomes = stream.outcomes;
        for (slot, name) in [
            "core.inserted_dominated",
            "core.inserted_skyline",
            "core.deleted_plain",
            "core.deleted_skyline",
        ]
        .into_iter()
        .enumerate()
        {
            values.insert(name, outcomes[slot] as f64);
        }
        let mut report = Report::default();
        layers::finish(&mut report, &values, &tracer, cfg, tally);
        drop(client);
        server.shutdown();
        drop(dir);
        report
    } else {
        let mut setups = Vec::with_capacity(ROUNDS);
        let mut rounds = Vec::with_capacity(ROUNDS);
        let mut resident = 0;
        let (mut evictions, mut reloads) = (0, 0);
        for round in 0..ROUNDS as u64 {
            // The mirror is built outside the timed set-up: it is the
            // benchmark's reference, not part of the system under test.
            let mirror = Mirror::build(&datasets);
            let t0 = Instant::now();
            let (mut client, server, dir) = start(&datasets, budget, "write_evict")?;
            setups.push(t0.elapsed().as_secs_f64());
            if round == 0 {
                resident = stats(&mut client).map_or(0, |s| s.total_bytes);
            }
            let mut stream = Stream::new(cfg.seed, round);
            // The warm-up's answers were checked too: count them.
            let mut e2e = EndToEnd {
                tally: warm_up(&mut client, &mirror, &boxes, budget, &mut stream),
                ..EndToEnd::default()
            };
            let reloads_before = stats(&mut client).map_or(0, |s| s.reloads);
            drive(
                &mut client,
                &mirror,
                &boxes,
                budget,
                &mut stream,
                seconds / ROUNDS as u32,
                &mut e2e,
                None,
            );
            let after = stats(&mut client);
            // A round without reloads no longer exercises eviction: fail it.
            e2e.tally
                .record(after.as_ref().is_some_and(|s| s.reloads > reloads_before));
            if let Some(s) = after {
                evictions += s.evictions;
                reloads += s.reloads;
            }
            for (total, n) in outcomes.iter_mut().zip(stream.outcomes) {
                *total += n;
            }
            rounds.push(e2e);
            drop(client);
            server.shutdown();
            drop(dir);
        }
        let mut report = rounds_report(median(&setups), resident, rounds);
        report.stamp(
            "residency",
            format!("{{\"evictions\": {evictions}, \"reloads\": {reloads}}}"),
        );
        report
    };
    report.stamp(
        "dataset",
        format!(
            "{{\"family\": \"INDE\", \"n\": {N}, \"d\": {DIM}, \"datasets\": {}, \
             \"offsets\": {OFFSETS:?}, \"kinds\": [\"QUAD\", \"QUAD\", \"CUTTING\", \"CUTTING\"], \
             \"hot\": {HOT:?}, \
             \"cold\": {COLD:?}, \"cold_every\": {COLD_EVERY}, \
             \"query_weights\": {QUERY_WEIGHTS:?}, \"mutation_weights\": {MUTATION_WEIGHTS:?}}}",
            KINDS.len()
        ),
    );
    let ranges: Vec<String> = dataset_bytes
        .iter()
        .map(|(max, min)| format!("[{max}, {min}]"))
        .collect();
    report.stamp(
        "sizing",
        format!(
            "{{\"exec_threads\": 1, \"server_workers\": 1, \"depth\": 1, \
             \"dataset_bytes_max_min\": [{}], \"budget_bytes\": {budget}, \"rounds\": {ROUNDS}}}",
            ranges.join(", "),
        ),
    );
    report.stamp(
        "outcomes",
        format!(
            "{{\"inserted_dominated\": {}, \"inserted_skyline\": {}, \"deleted_plain\": {}, \
             \"deleted_skyline\": {}}}",
            outcomes[0], outcomes[1], outcomes[2], outcomes[3]
        ),
    );
    Ok(report)
}
