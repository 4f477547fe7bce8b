//! Validates the memory-governance accounting ([`EclipseEngine::heap_bytes`]
//! and the `heap_bytes()` chain below it) against ground truth: the whole
//! test binary runs under a byte-tracking global allocator, and the live-byte
//! delta across building an engine must bracket the accounted figure.
//!
//! The accounting intentionally skips allocator headers and the `Arc`/lock
//! control blocks (a handful of fixed-size allocations), so the accounted
//! figure must be *at most* the measured delta and still capture the
//! dominant share of it.  Every buffer is sized exactly, so a fresh engine
//! and its own snapshot's restore account the same bytes.
//!
//! The tests take [`SERIAL`] so no concurrent test case can disturb the
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Held by every test of this file: the live-byte counter is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

fn dataset(n: usize, dim: usize, seed: u64) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new((0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()))
        .collect()
}

/// Builds an engine with the index warm (under both kind labels) and the
/// skyline cached — the fully-resident shape the serving layer accounts for.
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
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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

        // The same bounds hold for an engine whose index carries a
        // live-skyline overlay: a skyline-entering insert adds extra rows,
        // dead base rows and overlay pairs beside the shared slab.
        let before = LIVE_BYTES.load(Ordering::Relaxed);
        let engine = build_full(dataset(n, dim, seed));
        let member = engine.skyline()[0];
        let mut entrant = engine.points()[member].coords().to_vec();
        entrant[0] -= 1e-3;
        engine.insert(Point::new(entrant)).unwrap();
        assert!(engine.cached_index().unwrap().overlay_rows() > 0);
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

/// The three synthetic families of the paper's evaluation, in small: INDE
/// (uniform), CORR (one latent quality plus jitter) and ANTI (points near
/// the plane where the coordinates sum to `d / 2`).
fn family(name: &str, n: usize, dim: usize, seed: u64) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let coords: Vec<f64> = match name {
                "inde" => (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect(),
                "corr" => {
                    let q: f64 = rng.gen_range(0.0..1.0);
                    (0..dim)
                        .map(|_| (q + rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0))
                        .collect()
                }
                _ => {
                    let raw: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                    let shift = (dim as f64 / 2.0 - raw.iter().sum::<f64>()) / dim as f64;
                    raw.iter()
                        .map(|c| (c + shift + rng.gen_range(-0.02..0.02)).clamp(0.0, 1.0))
                        .collect()
                }
            };
            Point::new(coords)
        })
        .collect()
}

/// A fresh engine and the engine restored from its own snapshot account
/// the same heap bytes, under both kind labels, and so do a maintained
/// engine whose snapshot compacted its overlay and that snapshot's restore
/// (index for index; the restored engine equals a fresh build over the
/// mutated points).
#[test]
fn fresh_and_restored_engines_account_the_same_bytes() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for name in ["inde", "corr", "anti"] {
        for dim in 2..=4usize {
            let points = family(name, 300, dim, 2021 + dim as u64);
            for kind in [
                IntersectionIndexKind::Quadtree,
                IntersectionIndexKind::CuttingTree,
            ] {
                let case = format!("{name} d={dim} {kind:?}");
                let fresh = EclipseEngine::new(points.clone())
                    .unwrap()
                    .with_execution_context(ExecutionContext::serial());
                fresh.build_index(kind).unwrap();
                let bytes = fresh.save_snapshot("heap", kind).unwrap();
                let (_, restored) = EclipseEngine::from_snapshot(&bytes).unwrap();
                assert_eq!(fresh.heap_bytes(), restored.heap_bytes(), "{case}");

                // A skyline entrant leaves an overlay; the snapshot compacts
                // it into the cached index.
                let member = fresh.skyline()[0];
                let mut entrant = fresh.points()[member].coords().to_vec();
                entrant[0] -= 1e-3;
                fresh.insert(Point::new(entrant)).unwrap();
                assert!(fresh.cached_index().unwrap().overlay_rows() > 0, "{case}");
                let bytes = fresh.save_snapshot("heap", kind).unwrap();
                let compacted = fresh.cached_index().unwrap();
                assert_eq!(compacted.overlay_rows(), 0, "{case}");
                let (_, restored) = EclipseEngine::from_snapshot(&bytes).unwrap();
                assert_eq!(
                    compacted.heap_bytes(),
                    restored.cached_index().unwrap().heap_bytes(),
                    "{case} compacted"
                );
                let rebuilt = EclipseEngine::new(fresh.points().to_vec())
                    .unwrap()
                    .with_execution_context(ExecutionContext::serial());
                rebuilt.build_index(kind).unwrap();
                assert_eq!(
                    rebuilt.heap_bytes(),
                    restored.heap_bytes(),
                    "{case} compacted"
                );
            }
        }
    }
}
