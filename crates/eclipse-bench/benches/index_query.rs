//! Intersection-index hot-path bench: single-probe and batched query
//! throughput of the arena-backed QUAD/CUTTING trees.
//!
//! Two levels are measured:
//!
//! * **tree level** — synthetic hyperplane sets (uniform / clustered /
//!   anticorrelated, n ∈ {10k, 100k}) probed with small boxes through the
//!   zero-alloc `query_into` path.
//! * **eclipse level** — end-to-end `EclipseIndex` probes on INDE data
//!   (bounded skyline), single scratch-reusing probes vs `query_batch`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eclipse_bench::workloads::{
    hyperplane_workload, probe_boxes, probe_ratio_boxes, probe_root_cell, DatasetFamily,
    HyperplaneFamily,
};
use eclipse_core::exec::ExecutionContext;
use eclipse_core::index::{EclipseIndex, IndexConfig, IntersectionIndexKind, ProbeScratch};
use eclipse_geom::cutting::{CuttingTree, CuttingTreeConfig};
use eclipse_geom::quadtree::{HyperplaneQuadtree, QuadtreeConfig};
use eclipse_geom::traverse::TraversalScratch;

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

criterion_group!(benches, bench_tree_probes, bench_eclipse_probes);
criterion_main!(benches);
