//! Figure 11 — query time of BASE / TRAN / INDEX (the paper's QUAD and
//! CUTTING, answered by one slab index) while varying the dimensionality d (n = 2^10 for the synthetic datasets, n = 1000 for NBA,
//! r ∈ [0.36, 2.75]).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eclipse_bench::workloads::{default_ratio_box, DatasetFamily, DEFAULT_N, DEFAULT_NBA_N};
use eclipse_core::algo::baseline::eclipse_baseline;
use eclipse_core::algo::transform::{eclipse_transform, SkylineBackend};
use eclipse_core::index::{EclipseIndex, IndexConfig};

const SEED: u64 = 20210614;
const D_VALUES: [usize; 4] = [2, 3, 4, 5];

fn bench_fig11(c: &mut Criterion) {
    for family in DatasetFamily::all() {
        let n = if family == DatasetFamily::Nba {
            DEFAULT_NBA_N
        } else {
            DEFAULT_N
        };
        let mut group = c.benchmark_group(format!("fig11/{}", family.label()));
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(300));
        group.measurement_time(std::time::Duration::from_millis(1200));
        for &d in &D_VALUES {
            let points = family.generate(n, d, SEED);
            let ratio_box = default_ratio_box(d);

            group.bench_with_input(BenchmarkId::new("BASE", d), &d, |b, _| {
                b.iter(|| eclipse_baseline(black_box(&points), black_box(&ratio_box)).unwrap())
            });
            group.bench_with_input(BenchmarkId::new("TRAN", d), &d, |b, _| {
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
            group.bench_with_input(BenchmarkId::new("INDEX", d), &d, |b, _| {
                b.iter(|| index.query(black_box(&ratio_box)).unwrap())
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_fig11);
criterion_main!(benches);
