//! Figure 14 — worst-case query time of the index (the paper's QUAD and
//! CUTTING, answered by one slab index) while varying the dimensionality
//! (clustered dataset, n = 2^7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eclipse_bench::workloads::{default_ratio_box, worst_case_dataset};
use eclipse_core::index::{EclipseIndex, IndexConfig};

const SEED: u64 = 20210614;
const D_VALUES: [usize; 3] = [3, 4, 5];

fn bench_fig14(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig14/worst-case-vary-d");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for &d in &D_VALUES {
        let points = worst_case_dataset(1 << 7, d, SEED);
        let ratio_box = default_ratio_box(d);
        let index = EclipseIndex::build(&points, IndexConfig::default()).unwrap();
        group.bench_with_input(BenchmarkId::new("INDEX", d), &d, |b, _| {
            b.iter(|| index.query(black_box(&ratio_box)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig14);
criterion_main!(benches);
