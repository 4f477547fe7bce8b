//! Intersection-index hot-path bench: single-probe and batched query
//! throughput of the arena-backed QUAD/CUTTING trees.
//!
//! Three levels are measured:
//!
//! * **tree level** — synthetic hyperplane sets (uniform / clustered /
//!   anticorrelated, n ∈ {10k, 100k}) probed with small boxes through the
//!   zero-alloc `query_into` path.
//! * **eclipse level** — end-to-end `EclipseIndex` probes on INDE data
//!   (bounded skyline), single scratch-reusing probes vs `query_batch`.
//! * **sweep vs walk** — the candidate gather a probe makes (one sweep over
//!   the skyline-pair slab) against a walk of each tree over the same slab,
//!   plus the whole probe, on a small slab (INDE n = 2^10, 351 pairs) and a
//!   large one (ANTI n = 2^14, about 5 million pairs) with the narrowest
//!   paper ratio range.  Probes never walk the trees; this group keeps the
//!   comparison that decided it timed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eclipse_bench::workloads::{
    hyperplane_workload, probe_boxes, probe_ratio_boxes, probe_root_cell, ratio_box, DatasetFamily,
    HyperplaneFamily, PAPER_RATIO_RANGES,
};
use eclipse_core::exec::ExecutionContext;
use eclipse_core::index::{EclipseIndex, IndexConfig, IntersectionIndexKind, ProbeScratch};
use eclipse_core::Point;
use eclipse_geom::cutting::{CuttingTree, CuttingTreeConfig};
use eclipse_geom::hyperplane::HyperplaneSlab;
use eclipse_geom::point::BoundingBox;
use eclipse_geom::quadtree::{HyperplaneQuadtree, QuadtreeConfig};
use eclipse_geom::traverse::TraversalScratch;
use eclipse_skyline::dc::skyline_dc;

const SEED: u64 = 20210614;
const K: usize = 2; // ratio-space dimensionality (d = 3)
const SIZES: [usize; 2] = [10_000, 100_000];
const NUM_PROBES: usize = 64;

fn bench_tree_probes(c: &mut Criterion) {
    let probes = probe_boxes(NUM_PROBES, K, 0.05, SEED + 1);
    for family in HyperplaneFamily::all() {
        for n in SIZES {
            let planes = hyperplane_workload(family, n, K, SEED);
            let mut group = c.benchmark_group(format!("index_query/tree/{}/n={n}", family.label()));
            group.sample_size(10);
            group.warm_up_time(std::time::Duration::from_millis(200));
            group.measurement_time(std::time::Duration::from_millis(1200));

            let quad =
                HyperplaneQuadtree::build(&planes, probe_root_cell(K), QuadtreeConfig::default());
            let mut scratch = TraversalScratch::new();
            let mut out = Vec::new();
            group.bench_function(BenchmarkId::new("QUAD", "single"), |b| {
                b.iter(|| {
                    for q in &probes {
                        quad.query_into(q.lo(), q.hi(), &mut scratch, &mut out);
                        black_box(out.len());
                    }
                })
            });

            let cutting =
                CuttingTree::build(&planes, probe_root_cell(K), CuttingTreeConfig::default());
            group.bench_function(BenchmarkId::new("CUTTING", "single"), |b| {
                b.iter(|| {
                    for q in &probes {
                        cutting.query_into(q.lo(), q.hi(), &mut scratch, &mut out);
                        black_box(out.len());
                    }
                })
            });
            group.finish();
        }
    }
}

fn bench_eclipse_probes(c: &mut Criterion) {
    let boxes = probe_ratio_boxes(NUM_PROBES, K + 1, SEED + 2);
    for n in SIZES {
        let points = DatasetFamily::Inde.generate(n, K + 1, SEED);
        let mut group = c.benchmark_group(format!("index_query/eclipse/INDE/n={n}"));
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(200));
        group.measurement_time(std::time::Duration::from_millis(1200));
        for kind in [
            IntersectionIndexKind::Quadtree,
            IntersectionIndexKind::CuttingTree,
        ] {
            let label = match kind {
                IntersectionIndexKind::Quadtree => "QUAD",
                IntersectionIndexKind::CuttingTree => "CUTTING",
            };
            let index =
                EclipseIndex::build(&points, IndexConfig::with_kind(kind)).expect("valid build");
            let mut scratch = ProbeScratch::new();
            group.bench_function(BenchmarkId::new(label, "single"), |b| {
                b.iter(|| {
                    for q in &boxes {
                        black_box(
                            index
                                .query_with_scratch(q, &mut scratch)
                                .expect("valid probe")
                                .len(),
                        );
                    }
                })
            });
            for threads in [1usize, 4] {
                let ctx = ExecutionContext::with_threads(threads);
                group.bench_function(
                    BenchmarkId::new(label, format!("batch/threads={threads}")),
                    |b| b.iter(|| black_box(index.query_batch(&boxes, &ctx).expect("valid batch"))),
                );
            }
        }
        group.finish();
    }
}

/// The score-difference hyperplane of every pair of skyline points, as an
/// index builds them.
fn skyline_slab(points: &[Point]) -> HyperplaneSlab {
    let sky = skyline_dc(points);
    let mut slab = HyperplaneSlab::with_capacity(K, sky.len() * sky.len().saturating_sub(1) / 2);
    let mut row = [0.0; K];
    for (i, &a) in sky.iter().enumerate() {
        let pa = points[a].coords();
        for &b in &sky[i + 1..] {
            let pb = points[b].coords();
            for (j, c) in row.iter_mut().enumerate() {
                *c = pa[j] - pb[j];
            }
            slab.push(&row, pa[K] - pb[K]);
        }
    }
    slab
}

/// A tree over the slab, walked the way probes once gathered candidates.
enum Tree {
    Quad(HyperplaneQuadtree),
    Cutting(CuttingTree),
}

impl Tree {
    fn query_into(&self, lo: &[f64], hi: &[f64], ts: &mut TraversalScratch, out: &mut Vec<usize>) {
        match self {
            Tree::Quad(t) => t.query_into(lo, hi, ts, out),
            Tree::Cutting(t) => t.query_into(lo, hi, ts, out),
        }
    }
}

fn bench_sweep_vs_walk(c: &mut Criterion) {
    let (lo, hi) = PAPER_RATIO_RANGES[PAPER_RATIO_RANGES.len() - 1];
    let narrowest = vec![ratio_box(K + 1, lo, hi)];
    let cases = [
        (DatasetFamily::Inde, 1usize << 10, true),
        (DatasetFamily::Anti, 1 << 14, false),
    ];
    for (family, n, small) in cases {
        let points = family.generate(n, K + 1, SEED);
        let mut sets = vec![("narrowest", narrowest.clone())];
        // Every wide box gathers nearly all of the large slab; one box
        // already takes tens of milliseconds there.
        if small {
            sets.push((
                "probe_ratio_boxes",
                probe_ratio_boxes(NUM_PROBES, K + 1, SEED + 2),
            ));
        }
        let corners: Vec<Vec<(Vec<f64>, Vec<f64>)>> = sets
            .iter()
            .map(|(_, boxes)| {
                boxes
                    .iter()
                    .map(|b| (b.lower_corner(), b.upper_corner()))
                    .collect()
            })
            .collect();
        let mut group = c.benchmark_group(format!("index_query/gather/{}/n={n}", family.label()));
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(200));
        group.measurement_time(std::time::Duration::from_millis(1200));

        let index = EclipseIndex::build(&points, IndexConfig::default()).expect("valid build");
        let mut scratch = ProbeScratch::new();
        for (set, boxes) in &sets {
            group.bench_function(BenchmarkId::new("probe", set), |b| {
                b.iter(|| {
                    for q in boxes {
                        black_box(
                            index
                                .query_with_scratch(q, &mut scratch)
                                .expect("valid probe")
                                .len(),
                        );
                    }
                })
            });
        }
        drop(index);

        let slab = skyline_slab(&points);
        let mut swept: Vec<usize> = Vec::new();
        for ((set, _), corners) in sets.iter().zip(&corners) {
            group.bench_function(BenchmarkId::new("sweep", set), |b| {
                b.iter(|| {
                    for (lo, hi) in corners {
                        swept.clear();
                        slab.filter_all_intersecting_into(lo, hi, &mut swept);
                        black_box(swept.len());
                    }
                })
            });
        }
        let root = BoundingBox::new(vec![0.0; K], vec![IndexConfig::default().max_ratio; K]);
        for kind in [
            IntersectionIndexKind::Quadtree,
            IntersectionIndexKind::CuttingTree,
        ] {
            let (label, tree) = match kind {
                IntersectionIndexKind::Quadtree => (
                    "QUAD-walk",
                    Tree::Quad(HyperplaneQuadtree::build_from_slab_with(
                        slab.clone(),
                        root.clone(),
                        QuadtreeConfig::default(),
                        None,
                    )),
                ),
                IntersectionIndexKind::CuttingTree => (
                    "CUTTING-walk",
                    Tree::Cutting(CuttingTree::build_from_slab_with(
                        slab.clone(),
                        root.clone(),
                        CuttingTreeConfig::default(),
                        None,
                    )),
                ),
            };
            let mut ts = TraversalScratch::new();
            let mut walked = Vec::new();
            for ((set, _), corners) in sets.iter().zip(&corners) {
                for (lo, hi) in corners {
                    swept.clear();
                    slab.filter_all_intersecting_into(lo, hi, &mut swept);
                    tree.query_into(lo, hi, &mut ts, &mut walked);
                    assert_eq!(walked, swept, "{label} and the sweep disagree");
                }
                group.bench_function(BenchmarkId::new(label, set), |b| {
                    b.iter(|| {
                        for (lo, hi) in corners {
                            tree.query_into(lo, hi, &mut ts, &mut walked);
                            black_box(walked.len());
                        }
                    })
                });
            }
        }
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_tree_probes,
    bench_eclipse_probes,
    bench_sweep_vs_walk
);
criterion_main!(benches);
