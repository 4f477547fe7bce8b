//! Proves the acceptance criterion of the arena-index refactor: a
//! steady-state [`EclipseIndex::query_with_scratch`] probe performs **zero
//! heap allocations** — for boxes inside and outside the indexed region,
//! for a freshly built index and for one carrying a live-skyline overlay —
//! once the scratch buffers have reached their high-water capacity.
//!
//! The whole test binary runs under a counting global allocator; this file
//! intentionally holds a single test so no concurrent test case can disturb
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use eclipse_core::exec::ExecutionContext;
use eclipse_core::index::{EclipseIndex, IndexConfig, IntersectionIndexKind, ProbeScratch};
use eclipse_core::{EclipseEngine, Point, WeightRatioBox};
use rand::{Rng, SeedableRng};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_probes_do_not_allocate() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2021);
    let pts: Vec<Point> = (0..600)
        .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
        .collect();
    // One in-region box, one escaping the indexed region,
    // one narrow box — the probe mix a serving loop would see.
    let boxes = [
        WeightRatioBox::uniform(3, 0.36, 2.75).unwrap(),
        WeightRatioBox::uniform(3, 0.5, 20.0).unwrap(),
        WeightRatioBox::uniform(3, 0.9, 1.1).unwrap(),
    ];
    for kind in [
        IntersectionIndexKind::Quadtree,
        IntersectionIndexKind::CuttingTree,
    ] {
        let built = EclipseIndex::build_with(
            &pts,
            IndexConfig::with_kind(kind),
            &ExecutionContext::serial(),
        )
        .unwrap();
        assert_steady_state_probes_do_not_allocate(&built, &boxes, kind, "built");
        let maintained = with_overlay(&pts, kind);
        assert!(maintained.overlay_rows() > 0);
        assert_steady_state_probes_do_not_allocate(&maintained, &boxes, kind, "overlay");
    }
}

/// The index an engine serves after a skyline-entering insert: the built
/// arena plus a non-empty live-skyline overlay.
fn with_overlay(pts: &[Point], kind: IntersectionIndexKind) -> Arc<EclipseIndex> {
    let engine = EclipseEngine::with_index_config(pts.to_vec(), IndexConfig::with_kind(kind))
        .unwrap()
        .with_execution_context(ExecutionContext::serial());
    engine.build_index(kind).unwrap();
    let member = engine.skyline()[0];
    let mut entrant = engine.points()[member].coords().to_vec();
    entrant[0] -= 1e-3;
    engine.insert(Point::new(entrant)).unwrap();
    engine.cached_index().unwrap()
}

fn assert_steady_state_probes_do_not_allocate(
    index: &EclipseIndex,
    boxes: &[WeightRatioBox],
    kind: IntersectionIndexKind,
    label: &str,
) {
    let mut scratch = ProbeScratch::new();
    let expected: Vec<Vec<usize>> = boxes
        .iter()
        .map(|b| index.query_with_scratch(b, &mut scratch).unwrap().to_vec())
        .collect();

    // Buffers are now at high-water capacity: from here on, probing is
    // allocation-free.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..50 {
        for (b, want) in boxes.iter().zip(&expected) {
            let got = index.query_with_scratch(b, &mut scratch).unwrap();
            assert_eq!(got, &want[..]);
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state probes allocated ({kind:?}, {label})"
    );

    // The count-only probe (the CountBatch serving path) shares the same
    // scratch and allocates nothing either — it never even touches the
    // result buffer.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..50 {
        for (b, want) in boxes.iter().zip(&expected) {
            let got = index.count_with_scratch(b, &mut scratch).unwrap();
            assert_eq!(got, want.len());
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state count probes allocated ({kind:?}, {label})"
    );
}
