//! Figure 10 — query time of BASE / TRAN / INDEX (the paper's QUAD and
//! CUTTING, answered by one slab index) while varying the number of points n (d = 3, r ∈ [0.36, 2.75]) on the CORR, INDE, ANTI and
//! NBA datasets.
//!
//! Criterion gives per-(dataset, algorithm, n) timings; the companion
//! `experiments` binary prints the same series as one table per dataset.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eclipse_bench::workloads::{default_ratio_box, DatasetFamily, DEFAULT_D};
use eclipse_core::algo::baseline::eclipse_baseline;
use eclipse_core::algo::transform::{eclipse_transform, SkylineBackend};
use eclipse_core::index::{EclipseIndex, IndexConfig};

const SEED: u64 = 20210614;
/// Bench sweep: kept to sizes where even the quadratic baseline finishes in
/// reasonable wall-clock time; the experiments binary covers larger n.
const N_VALUES: [usize; 3] = [1 << 7, 1 << 9, 1 << 11];

fn bench_fig10(c: &mut Criterion) {
    for family in DatasetFamily::all() {
        let mut group = c.benchmark_group(format!("fig10/{}", family.label()));
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(300));
        group.measurement_time(std::time::Duration::from_millis(1200));
        for &n in &N_VALUES {
            let points = family.generate(n, DEFAULT_D, SEED);
            let ratio_box = default_ratio_box(DEFAULT_D);

            group.bench_with_input(BenchmarkId::new("BASE", n), &n, |b, _| {
                b.iter(|| eclipse_baseline(black_box(&points), black_box(&ratio_box)).unwrap())
            });
            group.bench_with_input(BenchmarkId::new("TRAN", n), &n, |b, _| {
                b.iter(|| {
                    eclipse_transform(
                        black_box(&points),
                        black_box(&ratio_box),
                        SkylineBackend::Auto,
                    )
                    .unwrap()
                })
            });
            let index = EclipseIndex::build(&points, IndexConfig::default()).unwrap();
            group.bench_with_input(BenchmarkId::new("INDEX", n), &n, |b, _| {
                b.iter(|| index.query(black_box(&ratio_box)).unwrap())
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);
