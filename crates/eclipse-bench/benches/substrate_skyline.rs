//! Ablation bench for the skyline substrate: BNL vs SFS vs divide-and-conquer
//! on the three synthetic distributions, plus the transformation mapping cost
//! in isolation.  Not a figure of the paper, but it backs the choice of
//! skyline algorithm behind TRAN's `SkylineBackend::Auto` (SFS above two
//! mapped dimensions) and the divide-and-conquer skyline the engine and the
//! index compute.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eclipse_bench::workloads::{default_ratio_box, DatasetFamily, DEFAULT_D};
use eclipse_core::algo::transform::transform_point;
use eclipse_skyline::{skyline_bnl, skyline_dc, skyline_sfs};

const SEED: u64 = 20210614;
const N: usize = 1 << 12;

fn bench_skyline_substrate(c: &mut Criterion) {
    for family in [
        DatasetFamily::Corr,
        DatasetFamily::Inde,
        DatasetFamily::Anti,
    ] {
        let points = family.generate(N, DEFAULT_D, SEED);
        let mut group = c.benchmark_group(format!("substrate/skyline/{}", family.label()));
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(300));
        group.measurement_time(std::time::Duration::from_millis(1200));
        group.bench_function(BenchmarkId::new("BNL", N), |b| {
            b.iter(|| skyline_bnl(black_box(&points)))
        });
        group.bench_function(BenchmarkId::new("SFS", N), |b| {
            b.iter(|| skyline_sfs(black_box(&points)))
        });
        group.bench_function(BenchmarkId::new("DC", N), |b| {
            b.iter(|| skyline_dc(black_box(&points)))
        });
        group.finish();
    }

    // Cost of the TRAN mapping alone (Lines 1–4 of Algorithm 3).
    let points = DatasetFamily::Inde.generate(N, DEFAULT_D, SEED);
    let ratio_box = default_ratio_box(DEFAULT_D);
    let mut group = c.benchmark_group("substrate/transform-mapping");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.bench_function("map-all-points", |b| {
        b.iter(|| {
            points
                .iter()
                .map(|p| transform_point(black_box(p), black_box(&ratio_box)))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_skyline_substrate);
criterion_main!(benches);
