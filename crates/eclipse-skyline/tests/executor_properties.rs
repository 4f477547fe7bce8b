//! Property suites for the skyline executors: every executor — serial or
//! parallel, at every thread count — must return the identical index set as
//! the brute-force `skyline_naive` oracle, on continuous data, on discrete
//! grids full of duplicates and degenerate ties, and on adversarial shapes.

use std::sync::Arc;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use eclipse_exec::ThreadPool;
use eclipse_geom::point::Point;
use eclipse_skyline::dominance::skyline_naive;
use eclipse_skyline::exec::{
    ParallelBnl, ParallelDc, ParallelSfs, SerialBnl, SerialDc, SerialSfs, SkylineExecutor,
};

/// Random dataset: continuous uniform coordinates, or a grid over
/// {−0.0, 0.0, 1, 2, 3} (lots of exact duplicates, per-dimension ties and
/// signed-zero twins, which are equal) when `grid` is set.
fn random_points(seed: u64, n: usize, d: usize, grid: bool) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Point::new(
                (0..d)
                    .map(|_| {
                        if grid {
                            [-0.0, 0.0, 1.0, 2.0, 3.0][rng.gen_range(0..5)]
                        } else {
                            rng.gen_range(0.0..1.0)
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Every executor variant under test, with cutoffs low enough that the
/// parallel code paths run even on property-sized inputs.
fn all_executors(pool: &Arc<ThreadPool>) -> Vec<Box<dyn SkylineExecutor>> {
    vec![
        Box::new(SerialBnl),
        Box::new(SerialSfs),
        Box::new(SerialDc),
        Box::new(ParallelBnl::with_cutoff(pool.clone(), 8)),
        Box::new(ParallelSfs::with_cutoff(pool.clone(), 8)),
        Box::new(ParallelDc::with_cutoff(pool.clone(), 8)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All executors agree with the oracle on random data, 2–6 dims, with
    /// and without duplicates, at 1/2/4 threads.
    #[test]
    fn executors_match_naive(
        seed in 0u64..100_000,
        n in 0usize..180,
        d in 2usize..7,
        grid in 0u8..2,
    ) {
        let pts = random_points(seed, n, d, grid == 1);
        let expected = skyline_naive(&pts);
        for threads in [1usize, 2, 4] {
            let pool = Arc::new(ThreadPool::with_threads(threads));
            for exec in all_executors(&pool) {
                prop_assert_eq!(
                    exec.skyline(&pts),
                    expected.clone(),
                    "executor {} at {} threads (n={}, d={}, grid={})",
                    exec.name(), threads, n, d, grid
                );
            }
        }
    }

    /// Thread count never changes a parallel executor's answer: 2 and 8
    /// threads agree with each other on identical input.
    #[test]
    fn thread_count_is_invisible(seed in 0u64..100_000, n in 0usize..150, d in 2usize..5) {
        let pts = random_points(seed, n, d, false);
        let pool2 = Arc::new(ThreadPool::with_threads(2));
        let pool8 = Arc::new(ThreadPool::with_threads(8));
        for (narrow, wide) in all_executors(&pool2).iter().zip(all_executors(&pool8).iter()) {
            prop_assert_eq!(
                narrow.skyline(&pts),
                wide.skyline(&pts),
                "{} 2 vs 8 threads", narrow.name()
            );
        }
    }
}

/// A dataset large enough to cross the *default* parallel cutoffs, so the
/// production configuration (not just the test-lowered one) is exercised.
#[test]
fn default_cutoff_executors_match_serial_on_large_input() {
    let pts = random_points(7, 6000, 4, false);
    let expected = SerialDc.skyline(&pts);
    let pool = Arc::new(ThreadPool::with_threads(4));
    let execs: Vec<Box<dyn SkylineExecutor>> = vec![
        Box::new(ParallelBnl::new(pool.clone())),
        Box::new(ParallelSfs::new(pool.clone())),
        Box::new(ParallelDc::new(pool.clone())),
    ];
    for exec in execs {
        assert_eq!(exec.skyline(&pts), expected, "{}", exec.name());
    }
}

/// Anti-correlated plane: everything is on the skyline, the hardest case for
/// the merge filter (candidates = entire input).
#[test]
fn anti_correlated_everything_survives_in_parallel() {
    let n = 1200;
    let pts: Vec<Point> = (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            Point::new(vec![x, 1.0 - x, 0.5])
        })
        .collect();
    let pool = Arc::new(ThreadPool::with_threads(4));
    for exec in all_executors(&pool) {
        assert_eq!(exec.skyline(&pts).len(), n, "{}", exec.name());
    }
}
