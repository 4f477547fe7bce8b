//! Bounds the heap allocations of an arena build: the level builder plans
//! into reusable flat scratch and keeps each frontier level in one flat
//! entry buffer, so a build allocates only when a buffer outgrows its
//! high-water capacity — a few hundred times per build, not once or more
//! per node.
//!
//! The whole test binary runs under a counting global allocator; this file
//! intentionally holds a single test so no concurrent test case can disturb
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use eclipse_geom::cutting::{CuttingTree, CuttingTreeConfig};
use eclipse_geom::hyperplane::HyperplaneSlab;
use eclipse_geom::point::BoundingBox;
use eclipse_geom::quadtree::{HyperplaneQuadtree, QuadtreeConfig};
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

/// The score-difference slab of the skyline of `n` independent uniform 3-D
/// points, as the eclipse index builds it: one row `(a₀−b₀, a₁−b₁)` with
/// offset `a₂−b₂` per skyline pair `a < b`.
fn inde3d_skyline_slab(n: usize, seed: u64) -> HyperplaneSlab {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let points: Vec<[f64; 3]> = (0..n).map(|_| [rng.gen(), rng.gen(), rng.gen()]).collect();
    let dominates = |a: &[f64; 3], b: &[f64; 3]| {
        a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
    };
    let skyline: Vec<&[f64; 3]> = points
        .iter()
        .filter(|p| !points.iter().any(|q| dominates(q, p)))
        .collect();
    let mut slab = HyperplaneSlab::new(2);
    for (i, a) in skyline.iter().enumerate() {
        for b in &skyline[i + 1..] {
            slab.push(&[a[0] - b[0], a[1] - b[1]], a[2] - b[2]);
        }
    }
    slab
}

#[test]
fn arena_builds_allocate_less_than_once_per_four_nodes() {
    let slab = inde3d_skyline_slab(1 << 10, 20210619);
    let root = BoundingBox::new(vec![0.0; 2], vec![16.0; 2]);
    for kind in ["quad", "cutting"] {
        // The inputs are cloned outside the counted window.
        let (rows, cell) = (slab.clone(), root.clone());
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let nodes = match kind {
            "quad" => HyperplaneQuadtree::build_from_slab(rows, cell, QuadtreeConfig::default())
                .node_count(),
            _ => {
                CuttingTree::build_from_slab(rows, cell, CuttingTreeConfig::default()).node_count()
            }
        };
        let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
        assert!(
            nodes >= 5000,
            "{kind}: the {}-pair slab must grow a >=5k-node arena, got {nodes}",
            slab.len()
        );
        assert!(
            allocations * 4 < nodes,
            "{kind}: {allocations} allocations for {nodes} nodes"
        );
    }
}
