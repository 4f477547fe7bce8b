//! Figure 12 — query time of the index-based algorithm (INDEX, the paper's
//! QUAD and CUTTING answered by one slab index) while varying the attribute-weight-ratio range (n = 2^10 / NBA n = 1000,
//! d = 3).  Wider ranges intersect more hyperplanes and are therefore slower.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eclipse_bench::workloads::{
    ratio_box, DatasetFamily, DEFAULT_D, DEFAULT_N, DEFAULT_NBA_N, PAPER_RATIO_RANGES,
};
use eclipse_core::index::{EclipseIndex, IndexConfig};

const SEED: u64 = 20210614;

fn bench_fig12(c: &mut Criterion) {
    for family in DatasetFamily::all() {
        let n = if family == DatasetFamily::Nba {
            DEFAULT_NBA_N
        } else {
            DEFAULT_N
        };
        let points = family.generate(n, DEFAULT_D, SEED);
        let index = EclipseIndex::build(&points, IndexConfig::default()).unwrap();

        let mut group = c.benchmark_group(format!("fig12/{}", family.label()));
        group.sample_size(20);
        group.warm_up_time(std::time::Duration::from_millis(300));
        group.measurement_time(std::time::Duration::from_millis(1200));
        for (lo, hi) in PAPER_RATIO_RANGES {
            let b = ratio_box(DEFAULT_D, lo, hi);
            let label = format!("[{lo},{hi}]");
            group.bench_with_input(BenchmarkId::new("INDEX", &label), &b, |bench, rb| {
                bench.iter(|| index.query(black_box(rb)).unwrap())
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_fig12);
criterion_main!(benches);
