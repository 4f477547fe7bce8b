//! The traced mode's per-layer measurements, taken from outside by timing
//! calls into each layer's public functions on the workload's own dataset
//! and boxes.
//!
//! Every traced run reports every per-layer metric.  A metric whose layer
//! is not on the workload's path (the router on `write_evict`, say) reads
//! 0, and the stamp lists those under `layers_off_path`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eclipse_core::index::{EclipseIndex, IndexConfig, IntersectionIndexKind, ProbeScratch};
use eclipse_core::weights::WeightRatioBox;
use eclipse_core::{EclipseEngine, ExecutionContext, MutationOutcome, Point, QueryOptions};
use eclipse_geom::cutting::CuttingTree;
use eclipse_geom::hyperplane::HyperplaneSlab;
use eclipse_geom::point::BoundingBox;
use eclipse_geom::quadtree::HyperplaneQuadtree;
use eclipse_geom::traverse::TraversalScratch;
use eclipse_serve::protocol::{Request, Response};

use crate::trace::Tracer;
use crate::{
    dominated_by, dominating, json_number, json_string, median, wire_box, EndToEnd, Report,
    RunConfig, Tally,
};

/// Names and units of the per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("skyline.compute_ms", "ms"),
    ("skyline.size", "count"),
    ("geom.slab_pairs", "count"),
    ("geom.quad_build_ms", "ms"),
    ("geom.cutting_build_ms", "ms"),
    ("geom.quad_nodes", "count"),
    ("geom.cutting_nodes", "count"),
    ("geom.depth", "count"),
    ("geom.traverse_us", "us"),
    ("geom.candidates_per_probe", "count"),
    ("core.probe_us", "us"),
    ("core.count_probe_us", "us"),
    ("core.replay_us", "us"),
    ("core.results_per_candidate", "ratio"),
    ("core.insert_dominated_us", "us"),
    ("core.insert_skyline_us", "us"),
    ("core.delete_plain_us", "us"),
    ("core.delete_skyline_us", "us"),
    ("core.inserted_dominated", "count"),
    ("core.inserted_skyline", "count"),
    ("core.deleted_plain", "count"),
    ("core.deleted_skyline", "count"),
    ("persist.save_ms", "ms"),
    ("persist.restore_ms", "ms"),
    ("persist.snapshot_mb", "MB"),
    ("persist.restore_mb_per_s", "MB/s"),
    ("persist.checksum_mb_per_s", "MB/s"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("serve.execute_us", "us"),
    ("serve.client_p50_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.evictions", "count"),
    ("serve.reloads", "count"),
    ("serve.resident_hit_ratio", "ratio"),
    ("exec.batch_overhead_us", "us"),
    ("router.hop_us", "us"),
    ("router.retries", "count"),
    ("router.failovers", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Boxes profiled per layer call kind.
const PROFILE_BOXES: usize = 512;
/// Boxes per batch call when timing the batch fan-out overhead.
const BATCH: usize = 64;
/// Mutation cycles (one of each class per cycle) to time.
const MUTATION_CYCLES: usize = 8;

/// Profiles the layers in process on the workload's dataset and boxes:
/// skyline, geometry, index probe and replay, batch fan-out, mutation
/// maintenance, snapshots, and the wire codec.
pub fn profile(points: &[Point], boxes: &[WeightRatioBox], tracer: &mut Tracer) -> Values {
    let mut v = Values::new();
    let serial = ExecutionContext::serial();
    let boxes = &boxes[..boxes.len().min(PROFILE_BOXES)];

    // Skyline.
    let mut sky_ms = Vec::new();
    let mut sky = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        sky = tracer.span("skyline.compute", None, 0, || {
            eclipse_skyline::skyline_dc_parallel(points, serial.pool())
        });
        sky_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    v.insert("skyline.compute_ms", median(&sky_ms));
    v.insert("skyline.size", sky.len() as f64);

    // Geometry: the score-difference slab of the skyline, then both arenas
    // built over it exactly as the index builds them.
    let config = IndexConfig::default();
    let slab = skyline_slab(points, &sky);
    let k = points[0].dim() - 1;
    let root = BoundingBox::new(vec![0.0; k], vec![config.max_ratio; k]);
    v.insert("geom.slab_pairs", slab.len() as f64);
    let (mut quad_ms, mut cut_ms) = (Vec::new(), Vec::new());
    let mut trees = None;
    for _ in 0..3 {
        let (slab_q, slab_c) = (slab.clone(), slab.clone());
        let t0 = Instant::now();
        let quad = tracer.span("geom.quad_build", None, 0, || {
            HyperplaneQuadtree::build_from_slab_with(
                slab_q,
                root.clone(),
                config.quadtree,
                Some(serial.pool()),
            )
        });
        quad_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let cut = tracer.span("geom.cutting_build", None, 0, || {
            CuttingTree::build_from_slab_with(
                slab_c,
                root.clone(),
                config.cutting,
                Some(serial.pool()),
            )
        });
        cut_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        trees = Some((quad, cut));
    }
    let (quad, cut) = trees.expect("built three times");
    v.insert("geom.quad_build_ms", median(&quad_ms));
    v.insert("geom.cutting_build_ms", median(&cut_ms));
    v.insert("geom.quad_nodes", quad.node_count() as f64);
    v.insert("geom.cutting_nodes", cut.node_count() as f64);
    v.insert("geom.depth", quad.depth().max(cut.depth()) as f64);

    // Index probes: the trees' candidate traversal alone (the walk a probe
    // makes), then the full probe and the count probe on the index.  Each
    // call is timed in a pass of its own over every box: the first call on
    // a box warms the cache for the next, so interleaving the three per box
    // would time call order (3 to 5 us a probe on a 2^10 dataset), not
    // layer cost, and could make the replay read negative.
    let mut traverse = Vec::new();
    let mut probe = Vec::new();
    let mut count_probe = Vec::new();
    let (mut candidates, mut results) = (0usize, 0usize);
    let mut rows: Vec<Vec<u64>> = Vec::new();
    let mut walk = TraversalScratch::new();
    let mut hits = Vec::new();
    for kind in [
        IntersectionIndexKind::Quadtree,
        IntersectionIndexKind::CuttingTree,
    ] {
        let index = EclipseIndex::build_with(points, IndexConfig::with_kind(kind), &serial)
            .expect("generated datasets are valid");
        let mut scratch = ProbeScratch::new();
        for (i, b) in boxes.iter().enumerate() {
            let (qlo, qhi) = (b.lower_corner(), b.upper_corner());
            let t0 = Instant::now();
            tracer.span("geom.traverse", None, i as u64, || match kind {
                IntersectionIndexKind::Quadtree => {
                    quad.query_into(&qlo, &qhi, &mut walk, &mut hits)
                }
                IntersectionIndexKind::CuttingTree => {
                    cut.query_into(&qlo, &qhi, &mut walk, &mut hits)
                }
            });
            traverse.push(t0.elapsed().as_secs_f64() * 1e6);
            candidates += hits.len();
        }
        for (i, b) in boxes.iter().enumerate() {
            let t0 = Instant::now();
            let r = tracer.span("core.probe", None, i as u64, || {
                index
                    .query_with_scratch(b, &mut scratch)
                    .expect("valid box")
                    .len()
            });
            probe.push(t0.elapsed().as_secs_f64() * 1e6);
            results += r;
        }
        for (i, b) in boxes.iter().enumerate() {
            let t0 = Instant::now();
            tracer.span("core.count_probe", None, i as u64, || {
                index
                    .count_with_scratch(b, &mut scratch)
                    .expect("valid box")
            });
            count_probe.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        if kind == IntersectionIndexKind::Quadtree {
            for b in boxes {
                let ids = index
                    .query_with_scratch(b, &mut scratch)
                    .expect("valid box");
                rows.push(ids.iter().map(|&id| id as u64).collect());
            }
        }
    }
    let n_probes = traverse.len().max(1) as f64;
    v.insert("geom.traverse_us", median(&traverse));
    v.insert("geom.candidates_per_probe", candidates as f64 / n_probes);
    v.insert("core.probe_us", median(&probe));
    v.insert("core.count_probe_us", median(&count_probe));
    v.insert("core.replay_us", median(&probe) - median(&traverse));
    v.insert(
        "core.results_per_candidate",
        results as f64 / candidates.max(1) as f64,
    );

    // Batch fan-out overhead: one batch call against the sum of the same
    // boxes probed one by one.
    let engine = EclipseEngine::new(points.to_vec())
        .expect("generated datasets are valid")
        .with_execution_context(serial.clone());
    let index = engine
        .build_index(IntersectionIndexKind::Quadtree)
        .expect("index builds");
    let opts = QueryOptions::default();
    let mut scratch = ProbeScratch::new();
    let mut overhead = Vec::new();
    for (i, batch) in boxes.chunks(BATCH).enumerate() {
        let t0 = Instant::now();
        tracer.span("exec.batch", None, i as u64, || {
            engine
                .eclipse_query_batch(batch, &opts)
                .expect("valid boxes")
        });
        let batch_us = t0.elapsed().as_secs_f64() * 1e6;
        let t0 = Instant::now();
        for b in batch {
            index
                .query_with_scratch(b, &mut scratch)
                .expect("valid box");
        }
        overhead.push(batch_us - t0.elapsed().as_secs_f64() * 1e6);
    }
    v.insert("exec.batch_overhead_us", median(&overhead));
    drop(index);

    mutation_profile(points, MUTATION_CYCLES, tracer, &mut v);
    persist_profile(&engine, tracer, &mut v);
    codec_profile(boxes, &rows, tracer, &mut v);
    v
}

/// The slab of score-difference hyperplanes over the skyline `sky`, in the
/// index's pair order.
fn skyline_slab(points: &[Point], sky: &[usize]) -> HyperplaneSlab {
    let dim = points[0].dim();
    let k = dim - 1;
    let mut slab = HyperplaneSlab::with_capacity(k, sky.len() * sky.len().saturating_sub(1) / 2);
    let mut row = Vec::with_capacity(k);
    for (i, &a) in sky.iter().enumerate() {
        let pa = points[a].coords();
        for &b in &sky[i + 1..] {
            let pb = points[b].coords();
            row.clear();
            row.extend((0..k).map(|j| pa[j] - pb[j]));
            slab.push(&row, pa[k] - pb[k]);
        }
    }
    slab
}

/// Times each mutation class on a QUAD engine: per cycle a dominated
/// insert, a non-skyline delete, a skyline-entering insert (a skyline
/// member nudged down in one coordinate) and the delete of that point,
/// which restores the original skyline.
fn mutation_profile(points: &[Point], cycles: usize, tracer: &mut Tracer, v: &mut Values) {
    let engine = EclipseEngine::with_index_config(
        points.to_vec(),
        IndexConfig::with_kind(IntersectionIndexKind::Quadtree),
    )
    .expect("generated datasets are valid")
    .with_execution_context(ExecutionContext::serial());
    engine
        .build_index(IntersectionIndexKind::Quadtree)
        .expect("index builds");
    let mut rng = StdRng::seed_from_u64(points.len() as u64);
    let mut times: [Vec<f64>; 4] = Default::default();
    let mut counts = [0u64; 4];
    for c in 0..cycles {
        let sky = engine.skyline();
        let len = engine.len();
        let plain = loop {
            let id = rng.gen_range(0..len - 1);
            if sky.binary_search(&id).is_err() {
                break id;
            }
        };
        let member = engine.points()[sky[c % sky.len()]].clone();
        let entrant = dominating(&member);
        let ops: [(&'static str, MutationOutcome, Box<dyn Fn() -> _>); 4] = [
            (
                "core.insert_dominated",
                MutationOutcome::InsertedDominated,
                Box::new(|| engine.insert(dominated_by(&member))),
            ),
            (
                "core.delete_plain",
                MutationOutcome::DeletedNonSkyline,
                Box::new(|| engine.delete(plain)),
            ),
            (
                "core.insert_skyline",
                MutationOutcome::InsertedSkyline,
                Box::new(|| engine.insert(entrant.clone())),
            ),
            (
                "core.delete_skyline",
                MutationOutcome::DeletedSkyline,
                Box::new(|| engine.delete(engine.len() - 1)),
            ),
        ];
        for (slot, (name, want, op)) in ops.iter().enumerate() {
            let t0 = Instant::now();
            let summary = tracer
                .span(name, None, c as u64, op)
                .expect("mutation applies");
            times[slot].push(t0.elapsed().as_secs_f64() * 1e6);
            assert_eq!(
                summary.outcome, *want,
                "{name} took another maintenance path"
            );
            counts[slot] += 1;
        }
    }
    assert_eq!(
        engine.skyline().len(),
        eclipse_skyline::skyline_dc(points).len()
    );
    for (slot, name) in [
        "core.insert_dominated_us",
        "core.delete_plain_us",
        "core.insert_skyline_us",
        "core.delete_skyline_us",
    ]
    .into_iter()
    .enumerate()
    {
        v.insert(name, median(&times[slot]));
    }
    for (slot, name) in [
        "core.inserted_dominated",
        "core.deleted_plain",
        "core.inserted_skyline",
        "core.deleted_skyline",
    ]
    .into_iter()
    .enumerate()
    {
        v.insert(name, counts[slot] as f64);
    }
}

/// Times snapshot save (encode plus checksums), restore (decode plus
/// validation) and a bare FNV-1a pass over the same bytes.
fn persist_profile(engine: &EclipseEngine, tracer: &mut Tracer, v: &mut Values) {
    let (mut save, mut restore, mut checksum) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    for i in 0..5u64 {
        let t0 = Instant::now();
        bytes = tracer.span("persist.save", None, i, || {
            engine
                .save_snapshot("bench", IntersectionIndexKind::Quadtree)
                .expect("snapshot encodes")
        });
        save.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let restored = tracer.span("persist.restore", None, i, || {
            EclipseEngine::from_snapshot(&bytes).expect("snapshot decodes")
        });
        restore.push(t0.elapsed().as_secs_f64());
        assert_eq!(restored.1.len(), engine.len());
        let t0 = Instant::now();
        let sum = tracer.span("persist.checksum", None, i, || {
            eclipse_persist::fnv1a(std::hint::black_box(&bytes))
        });
        std::hint::black_box(sum);
        checksum.push(t0.elapsed().as_secs_f64());
    }
    let mb = bytes.len() as f64 / 1e6;
    v.insert("persist.save_ms", median(&save) * 1e3);
    v.insert("persist.restore_ms", median(&restore) * 1e3);
    v.insert("persist.snapshot_mb", mb);
    v.insert("persist.restore_mb_per_s", mb / median(&restore));
    v.insert("persist.checksum_mb_per_s", mb / median(&checksum));
}

/// Times the wire codec on the workload's single-box requests and their
/// responses: encode is request plus response encode, decode likewise.
fn codec_profile(boxes: &[WeightRatioBox], rows: &[Vec<u64>], tracer: &mut Tracer, v: &mut Values) {
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    let (mut req_bytes, mut resp_bytes) = (0usize, 0usize);
    for round in 0..8u64 {
        for (i, (b, row)) in boxes.iter().zip(rows).enumerate() {
            let (request, response) = if i % 2 == 0 {
                (
                    Request::QueryBatch {
                        name: "inde".to_string(),
                        boxes: vec![wire_box(b)],
                    },
                    Response::QueryResults(vec![row.clone()]),
                )
            } else {
                (
                    Request::CountBatch {
                        name: "inde".to_string(),
                        boxes: vec![wire_box(b)],
                    },
                    Response::Counts(vec![row.len() as u64]),
                )
            };
            let id = round * boxes.len() as u64 + i as u64;
            let t0 = Instant::now();
            let (req, resp) = tracer.span("serve.encode", None, id, || {
                (request.encode(), response.encode())
            });
            encode.push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            let (req2, resp2) = tracer.span("serve.decode", None, id, || {
                (
                    Request::decode(&req).expect("round trip"),
                    Response::decode(&resp).expect("round trip"),
                )
            });
            decode.push(t0.elapsed().as_secs_f64() * 1e6);
            assert!(req2 == request && resp2 == response, "codec round trip");
            req_bytes += req.len();
            resp_bytes += resp.len();
        }
    }
    let n = encode.len().max(1) as f64;
    v.insert("serve.encode_us", median(&encode));
    v.insert("serve.decode_us", median(&decode));
    v.insert("serve.request_bytes", req_bytes as f64 / n);
    v.insert("serve.response_bytes", resp_bytes as f64 / n);
}

/// The replay's untraced and traced halves.
pub struct Overhead {
    /// Traced per-op time over untraced per-op time, minus one.
    pub frac: f64,
    /// Untraced half.
    pub plain: EndToEnd,
    /// Traced half.
    pub traced: EndToEnd,
    /// Correctness over both halves.
    pub tally: Tally,
}

/// Slices per half of the traced replay.
const OVERHEAD_SLICES: u32 = 8;

/// Replays the workload's loop for half of `seconds` without spans and half
/// with a span around every call, and compares time per operation.
pub fn replay_overhead(
    seconds: Duration,
    tracer: &mut Tracer,
    mut drive: impl FnMut(Duration, &mut EndToEnd, Option<&mut Tracer>),
) -> Overhead {
    // Alternating short slices, so drift in the host's speed falls on both
    // halves alike.
    let slice = seconds / (2 * OVERHEAD_SLICES);
    let mut plain = EndToEnd::default();
    let mut traced = EndToEnd::default();
    for _ in 0..OVERHEAD_SLICES {
        drive(slice, &mut plain, None);
        drive(slice, &mut traced, Some(&mut *tracer));
    }
    let per_op = |e: &EndToEnd| e.elapsed_s / e.ops.max(1) as f64;
    let mut tally = plain.tally;
    tally.add(traced.tally);
    Overhead {
        frac: per_op(&traced) / per_op(&plain) - 1.0,
        plain,
        traced,
        tally,
    }
}

/// Fills the traced report: every per-layer metric in order (0 for layers
/// off the workload's path), the span file with the span and operation
/// counts, and self time per layer.
pub fn finish(
    report: &mut Report,
    values: &Values,
    tracer: &Tracer,
    cfg: &RunConfig,
    tally: Tally,
) {
    let mut off_path = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = values.get(name).copied().unwrap_or_else(|| {
            off_path.push(json_string(name));
            0.0
        });
        report.metric(name, value, unit);
    }
    report.correct = tally.failed == 0;
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.stamp("layers_off_path", format!("[{}]", off_path.join(", ")));
    let self_times: Vec<(String, String)> = tracer
        .self_times()
        .into_iter()
        .map(|(layer, us)| (layer.to_string(), json_number(us / 1e3)))
        .collect();
    report.diagnostic("self_time_ms", crate::json_object(&self_times));
    let path = span_path(cfg);
    match tracer.write(&path) {
        Ok(()) => report.stamp("spans_file", json_string(&path.display().to_string())),
        Err(e) => report.stamp("spans_file_error", json_string(&e.to_string())),
    }
    report.stamp("spans", tracer.spans().len().to_string());
    report.stamp("client_ops", tally.attempted.to_string());
    report.stamp("client_failed", tally.failed.to_string());
}

/// Where a traced run writes its spans, relative to the working directory.
pub fn span_path(cfg: &RunConfig) -> PathBuf {
    PathBuf::from(".bench_trace").join(format!("{}-seed{}.tsv", cfg.workload.name(), cfg.seed))
}
