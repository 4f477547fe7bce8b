//! Figure 13 — worst-case query time of the index (the paper's QUAD and
//! CUTTING, answered by one slab index) while varying the number of points
//! (clustered dataset, d = 3).  On this workload every point is a skyline
//! point and all dual hyperplanes crowd into the same region, the case that
//! degrades the paper's quadtree; the tree-level comparison lives in the
//! `index_query` bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eclipse_bench::workloads::{default_ratio_box, worst_case_dataset};
use eclipse_core::index::{EclipseIndex, IndexConfig};

const SEED: u64 = 20210614;
const N_VALUES: [usize; 3] = [1 << 7, 1 << 8, 1 << 9];

fn bench_fig13(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13/worst-case-vary-n");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for &n in &N_VALUES {
        let points = worst_case_dataset(n, 3, SEED);
        let ratio_box = default_ratio_box(3);
        let index = EclipseIndex::build(&points, IndexConfig::default()).unwrap();
        group.bench_with_input(BenchmarkId::new("INDEX", n), &n, |b, _| {
            b.iter(|| index.query(black_box(&ratio_box)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig13);
criterion_main!(benches);
