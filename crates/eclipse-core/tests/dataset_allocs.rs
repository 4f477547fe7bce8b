//! Allocation-count gate for the dataset layout: the engine keeps each
//! dataset as one row-major buffer, so restoring a snapshot, dropping the
//! restored engine, a dominated insert into spare capacity and a plain
//! delete each make a number of allocations that does not grow with the
//! number of points.  A per-point layout makes at least `n` allocations per
//! restore and `n` deallocations per drop.
//!
//! A fresh index build runs the divide-and-conquer skyline over that
//! buffer, which sorts row ids once and recurses in place: it must make at
//! most `n / 4` allocations.  A core that keys, groups and clones points
//! per row makes about four per point (4,359 for this build at n = 2^10).
//!
//! The whole test binary runs under a counting global allocator; this file
//! intentionally holds a single test so no concurrent test case can disturb
//! the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use eclipse_core::exec::ExecutionContext;
use eclipse_core::index::IntersectionIndexKind;
use eclipse_core::{EclipseEngine, MutationOutcome, Point};
use rand::{Rng, SeedableRng};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static DEALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// The largest single allocation since the last reset, in bytes.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    LARGEST.fetch_max(size, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const DIM: usize = 3;

/// What one dataset size costs in allocations.
#[derive(Debug)]
struct Counts {
    /// Allocations of `build_index` on a fresh engine.
    build: usize,
    /// Allocations of `EclipseEngine::from_snapshot`.
    restore: usize,
    /// Deallocations of dropping the restored engine.
    drop: usize,
    /// Allocations of a dominated insert into spare row capacity.
    dominated_insert: usize,
    /// Allocations of a non-skyline delete.
    plain_delete: usize,
}

fn measure(n: usize) -> Counts {
    let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
    let points: Vec<Point> = (0..n)
        .map(|_| Point::new((0..DIM).map(|_| rng.gen_range(0.0..1.0)).collect()))
        .collect();
    let engine = EclipseEngine::new(points)
        .unwrap()
        .with_execution_context(ExecutionContext::serial());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    engine.build_index(IntersectionIndexKind::Quadtree).unwrap();
    let build = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let bytes = engine
        .save_snapshot("gate", IntersectionIndexKind::Quadtree)
        .unwrap();
    drop(engine);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (_, restored) = EclipseEngine::from_snapshot(&bytes).unwrap();
    let restore = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let before = DEALLOCATIONS.load(Ordering::Relaxed);
    drop(restored);
    let dropped = DEALLOCATIONS.load(Ordering::Relaxed) - before;

    // A restored buffer is full: the first insert grows it (and caches the
    // skyline at its epoch), which leaves spare capacity for the second.
    let (_, engine) = EclipseEngine::from_snapshot(&bytes).unwrap();
    let dominated = || Point::new(vec![2.0; DIM]);
    engine.insert(dominated()).unwrap();
    let point = dominated();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let summary = engine.insert(point).unwrap();
    let dominated_insert = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(summary.outcome, MutationOutcome::InsertedDominated);

    let sky = engine.skyline();
    let plain = (0..engine.len())
        .find(|i| sky.binary_search(i).is_err())
        .expect("an INDE dataset has non-skyline points");
    let rows_bytes = engine.len() * DIM * 8;
    LARGEST.store(0, Ordering::Relaxed);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let summary = engine.delete(plain).unwrap();
    let plain_delete = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let largest = LARGEST.load(Ordering::Relaxed);
    assert_eq!(summary.outcome, MutationOutcome::DeletedNonSkyline);
    assert!(
        largest < rows_bytes,
        "n = {n}: a plain delete allocated {largest} B, as much as the {rows_bytes} B of rows"
    );
    Counts {
        build,
        restore,
        drop: dropped,
        dominated_insert,
        plain_delete,
    }
}

#[test]
fn dataset_allocations_do_not_grow_with_n() {
    // Warm-up: the process-wide pool and any lazily initialised state.
    measure(1 << 6);
    let small = measure(1 << 10);
    let large = measure(1 << 14);
    for (n, counts) in [(1 << 10, &small), (1 << 14, &large)] {
        assert!(
            counts.build <= n / 4,
            "an index build at n = {n} allocates per point: {counts:?}"
        );
    }
    assert_eq!(
        small.restore, large.restore,
        "from_snapshot allocates per point: {small:?} vs {large:?}"
    );
    assert_eq!(
        small.drop, large.drop,
        "dropping a restored engine frees per point: {small:?} vs {large:?}"
    );
    assert_eq!(small.dominated_insert, 0, "{small:?}");
    assert_eq!(large.dominated_insert, 0, "{large:?}");
    assert_eq!(
        small.plain_delete, large.plain_delete,
        "a plain delete allocates per point: {small:?} vs {large:?}"
    );
}
