//! Property suite for the index query hot path: scratch-reusing probes and
//! the batched API are invisible optimizations — for any dataset, backend and
//! thread count they return exactly what fresh per-probe queries return,
//! which in turn match the brute-force eclipse oracle.
//!
//! (The CI thread-parity matrix additionally runs this suite under
//! `ECLIPSE_THREADS=1` and `=4`, pinning the process-wide default pool to
//! both regimes; the explicit `with_threads` contexts below cover the two
//! regimes regardless of the environment.)

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use eclipse_core::dominance::eclipse_naive;
use eclipse_core::exec::ExecutionContext;
use eclipse_core::index::{EclipseIndex, IndexConfig, IntersectionIndexKind, ProbeScratch};
use eclipse_core::{EclipseEngine, Point, WeightRatioBox};

fn random_points(seed: u64, n: usize, d: usize, grid: bool) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Point::new(
                (0..d)
                    .map(|_| {
                        if grid {
                            rng.gen_range(0..5) as f64
                        } else {
                            rng.gen_range(0.0..1.0)
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

fn random_boxes(seed: u64, m: usize, d: usize) -> Vec<WeightRatioBox> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            let lo = rng.gen_range(0.05..1.5);
            // Occasionally escape the indexed region to cover boxes
            // outside the trees' root cell inside a batch.
            let width = if rng.gen_range(0..4) == 0 {
                rng.gen_range(10.0..20.0)
            } else {
                rng.gen_range(0.05..2.5)
            };
            WeightRatioBox::uniform(d, lo, lo + width).unwrap()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One reused scratch over a probe sequence returns, probe for probe,
    /// what fresh queries return — and both match the oracle.
    #[test]
    fn scratch_probes_match_fresh_queries(
        seed in 0u64..100_000,
        n in 1usize..150,
        d in 2usize..5,
        grid in 0u8..2,
    ) {
        let pts = random_points(seed, n, d, grid == 1);
        let boxes = random_boxes(seed ^ 0xbeef, 6, d);
        for kind in [IntersectionIndexKind::Quadtree, IntersectionIndexKind::CuttingTree] {
            let idx = EclipseIndex::build(&pts, IndexConfig::with_kind(kind)).unwrap();
            let mut scratch = ProbeScratch::new();
            for b in &boxes {
                let fresh = idx.query(b).unwrap();
                prop_assert_eq!(&fresh, &eclipse_naive(&pts, b), "oracle mismatch, {:?}", kind);
                let reused = idx.query_with_scratch(b, &mut scratch).unwrap();
                prop_assert_eq!(reused, &fresh[..], "scratch mismatch, {:?}", kind);
            }
        }
    }

    /// `query_batch` equals sequential per-probe queries for both backends at
    /// 1 and 4 threads, in input order, including fallback-path probes.
    #[test]
    fn batched_probes_match_sequential(
        seed in 0u64..100_000,
        n in 1usize..150,
        d in 2usize..4,
        m in 1usize..24,
        grid in 0u8..2,
    ) {
        let pts = random_points(seed, n, d, grid == 1);
        let boxes = random_boxes(seed ^ 0xf00d, m, d);
        for kind in [IntersectionIndexKind::Quadtree, IntersectionIndexKind::CuttingTree] {
            let idx = EclipseIndex::build(&pts, IndexConfig::with_kind(kind)).unwrap();
            let expected: Vec<Vec<usize>> =
                boxes.iter().map(|b| idx.query(b).unwrap()).collect();
            for threads in [1usize, 4] {
                let ctx = ExecutionContext::with_threads(threads);
                let got = idx.query_batch(&boxes, &ctx).unwrap();
                prop_assert_eq!(&got, &expected, "{:?} at {} threads", kind, threads);
            }
        }
    }
}

/// Probes of the built index and of the index an engine serves after a
/// skyline entrant (a live-skyline overlay) match the brute-force oracle,
/// through fresh, scratch-reusing, count and batched probes, for boxes
/// inside and outside the indexed region.
#[test]
fn probes_match_the_oracle_with_and_without_an_overlay() {
    let boxes = [
        WeightRatioBox::uniform(3, 0.9, 1.1).unwrap(),
        WeightRatioBox::from_bounds(&[(0.3, 0.7), (1.2, 1.5)]).unwrap(),
        // Escapes the indexed region.
        WeightRatioBox::uniform(3, 0.5, 20.0).unwrap(),
    ];
    let points = random_points(7, 400, 3, false);
    let engine = EclipseEngine::new(points.clone()).unwrap();
    let member = engine.skyline()[0];
    let mut entrant = points[member].coords().to_vec();
    entrant[0] -= 1e-3;
    let mut grown = points.clone();
    grown.push(Point::new(entrant.clone()));
    let expected: Vec<Vec<usize>> = boxes.iter().map(|b| eclipse_naive(&points, b)).collect();
    let grown_expected: Vec<Vec<usize>> = boxes.iter().map(|b| eclipse_naive(&grown, b)).collect();
    for kind in [
        IntersectionIndexKind::Quadtree,
        IntersectionIndexKind::CuttingTree,
    ] {
        let engine =
            EclipseEngine::with_index_config(points.clone(), IndexConfig::with_kind(kind)).unwrap();
        let built = engine.build_index(kind).unwrap();
        assert_probes_match(&built, &boxes, &expected, &format!("{kind:?} built"));
        engine.insert(Point::new(entrant.clone())).unwrap();
        let maintained = engine.cached_index().unwrap();
        assert!(maintained.overlay_rows() > 0 && maintained.shares_arena(&built));
        assert_probes_match(
            &maintained,
            &boxes,
            &grown_expected,
            &format!("{kind:?} overlay"),
        );
    }
}

fn assert_probes_match(
    index: &EclipseIndex,
    boxes: &[WeightRatioBox],
    expected: &[Vec<usize>],
    label: &str,
) {
    let mut scratch = ProbeScratch::new();
    for (b, want) in boxes.iter().zip(expected) {
        assert_eq!(&index.query(b).unwrap(), want, "{label}, box {b}");
        assert_eq!(
            index.query_with_scratch(b, &mut scratch).unwrap(),
            &want[..]
        );
        assert_eq!(
            index.count_with_scratch(b, &mut scratch).unwrap(),
            want.len()
        );
    }
    let batched = index
        .query_batch(boxes, &ExecutionContext::with_threads(2))
        .unwrap();
    assert_eq!(batched, expected, "{label}, batched");
}
