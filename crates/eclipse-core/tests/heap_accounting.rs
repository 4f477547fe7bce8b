//! Validates the memory-governance accounting ([`EclipseEngine::heap_bytes`]
//! and the `heap_bytes()` chain below it) against ground truth: the whole
//! test binary runs under a byte-tracking global allocator, and the live-byte
//! delta across building an engine must bracket the accounted figure.
//!
//! The accounting intentionally skips allocator headers and the `Arc`/lock
//! control blocks (a handful of fixed-size allocations), so the accounted
//! figure must be *at most* the measured delta and still capture the
//! dominant share of it.
//!
//! Like `zero_alloc_probe`, this file holds a single test so no concurrent
//! test case can disturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use eclipse_core::exec::ExecutionContext;
use eclipse_core::index::IntersectionIndexKind;
use eclipse_core::{EclipseEngine, Point};
use rand::{Rng, SeedableRng};

struct ByteTrackingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for ByteTrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: ByteTrackingAllocator = ByteTrackingAllocator;

fn dataset(n: usize, dim: usize, seed: u64) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new((0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()))
        .collect()
}

/// Builds an engine with both index backends warm and the skyline cached —
/// the fully-resident shape the serving layer accounts for.
fn build_full(points: Vec<Point>) -> EclipseEngine {
    let engine = EclipseEngine::new(points)
        .unwrap()
        .with_execution_context(ExecutionContext::serial());
    engine.build_index(IntersectionIndexKind::Quadtree).unwrap();
    engine
        .build_index(IntersectionIndexKind::CuttingTree)
        .unwrap();
    engine.skyline();
    engine
}

#[test]
fn heap_bytes_matches_the_allocator_ground_truth() {
    // Warm-up: populate any lazily-initialised process-wide state (thread
    // locals, scratch pools, the default execution context) so the measured
    // build below only retains what the engine itself owns.
    drop(build_full(dataset(400, 3, 7)));

    for (n, dim, seed) in [(400usize, 3usize, 2021u64), (250, 4, 2022), (600, 2, 2023)] {
        // Snapshot before generating the points: the dataset vector is moved
        // into the engine, so its bytes belong to the measured window.
        let before = LIVE_BYTES.load(Ordering::Relaxed);
        let engine = build_full(dataset(n, dim, seed));
        let after = LIVE_BYTES.load(Ordering::Relaxed);
        let delta = after - before;
        let accounted = engine.heap_bytes();

        // Never over-count: everything heap_bytes() reports is genuinely
        // retained by the engine.
        assert!(
            accounted <= delta,
            "n={n} dim={dim}: accounted {accounted} exceeds live delta {delta}"
        );
        // And capture the dominant share: the only retained bytes outside
        // the accounting are allocator headers and a fixed handful of
        // `Arc`/lock control blocks.
        assert!(
            accounted * 10 >= delta * 8,
            "n={n} dim={dim}: accounted {accounted} is under 80% of live delta {delta}"
        );

        // The rollup decomposes: the dataset share alone is also exact.
        let points_bytes = engine.dataset_heap_bytes();
        assert!(points_bytes >= n * (std::mem::size_of::<Point>() + dim * 8));
        assert!(points_bytes < accounted);
        drop(engine);
        let freed = LIVE_BYTES.load(Ordering::Relaxed);
        assert!(
            freed <= before + (delta - accounted),
            "dropping the engine must return at least the accounted bytes"
        );

        // The same bounds hold for an engine whose indexes carry a
        // live-skyline overlay: a skyline-entering insert adds extra rows,
        // dead base rows and overlay pairs beside the shared arenas.
        let before = LIVE_BYTES.load(Ordering::Relaxed);
        let engine = build_full(dataset(n, dim, seed));
        let member = engine.skyline()[0];
        let mut entrant = engine.points()[member].coords().to_vec();
        entrant[0] -= 1e-3;
        engine.insert(Point::new(entrant)).unwrap();
        for kind in [
            IntersectionIndexKind::Quadtree,
            IntersectionIndexKind::CuttingTree,
        ] {
            assert!(engine.cached_index(kind).unwrap().overlay_rows() > 0);
        }
        let delta = LIVE_BYTES.load(Ordering::Relaxed) - before;
        let accounted = engine.heap_bytes();
        assert!(
            accounted <= delta,
            "n={n} dim={dim} overlay: accounted {accounted} exceeds live delta {delta}"
        );
        assert!(
            accounted * 10 >= delta * 8,
            "n={n} dim={dim} overlay: accounted {accounted} is under 80% of live delta {delta}"
        );
        drop(engine);
        let freed = LIVE_BYTES.load(Ordering::Relaxed);
        assert!(
            freed <= before + (delta - accounted),
            "dropping the overlay engine must return at least the accounted bytes"
        );
    }
}
