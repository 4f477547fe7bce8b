//! Timing harness used by the `experiments` binary.
//!
//! Criterion benches (under `benches/`) give statistically rigorous
//! micro-benchmarks per figure; this harness complements them with a
//! coarse-grained wall-clock runner that prints each table/figure of the
//! paper as one aligned text block (and optionally CSV), which is what
//! EXPERIMENTS.md records.

use std::sync::Arc;
use std::time::Instant;

use eclipse_core::algo::baseline::eclipse_baseline;
use eclipse_core::algo::transform::{eclipse_transform, eclipse_transform_with, SkylineBackend};
use eclipse_core::exec::ExecutionContext;
use eclipse_core::index::{EclipseIndex, IndexConfig, IntersectionIndexKind, ProbeScratch};
use eclipse_core::point::{BoundingBox, Point};
use eclipse_core::weights::WeightRatioBox;
use eclipse_exec::ThreadPool;
use eclipse_geom::cutting::{CuttingTree, CuttingTreeConfig};
use eclipse_geom::hyperplane::Hyperplane;
use eclipse_geom::quadtree::{HyperplaneQuadtree, QuadtreeConfig};
use eclipse_geom::traverse::TraversalScratch;
use eclipse_skyline::exec::{
    ParallelBnl, ParallelDc, ParallelSfs, SerialBnl, SerialDc, SerialSfs, SkylineExecutor,
};

/// The algorithms of the paper's evaluation.  The paper's QUAD and CUTTING
/// differ only in the tree that fetches crossing hyperplanes; the index
/// fetches them with one slab sweep instead, so both are one competitor
/// here.  The trees themselves are compared by [`run_tree_probes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Competitor {
    /// BASE — Algorithm 1.
    Base,
    /// TRAN — Algorithms 2/3.
    Tran,
    /// INDEX — the index-based Algorithms 5–7 (the paper's QUAD/CUTTING).
    Index,
}

impl Competitor {
    /// All competitors in the paper's legend order.
    pub fn all() -> [Competitor; 3] {
        [Competitor::Base, Competitor::Tran, Competitor::Index]
    }

    /// The index-based competitors only (Figures 12–14).
    pub fn index_based() -> [Competitor; 1] {
        [Competitor::Index]
    }

    /// Label used in output rows.
    pub fn label(self) -> &'static str {
        match self {
            Competitor::Base => "BASE",
            Competitor::Tran => "TRAN",
            Competitor::Index => "INDEX",
        }
    }
}

/// One timed measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measurement {
    /// Query time in seconds (excludes index construction).
    pub query_secs: f64,
    /// Index build time in seconds (zero for BASE/TRAN).
    pub build_secs: f64,
    /// Size of the returned eclipse set.
    pub result_size: usize,
}

/// Runs one competitor once on a dataset/query pair and reports the timing.
///
/// For the index-based competitors the index is built once (timed separately)
/// and the query phase is what lands in `query_secs`, matching the paper's
/// methodology of reporting query time for different users over a pre-built
/// index.
pub fn run_competitor(
    competitor: Competitor,
    points: &[Point],
    ratio_box: &WeightRatioBox,
) -> Measurement {
    match competitor {
        Competitor::Base => {
            let start = Instant::now();
            let result = eclipse_baseline(points, ratio_box).expect("valid workload");
            Measurement {
                query_secs: start.elapsed().as_secs_f64(),
                build_secs: 0.0,
                result_size: result.len(),
            }
        }
        Competitor::Tran => {
            let start = Instant::now();
            let result =
                eclipse_transform(points, ratio_box, SkylineBackend::Auto).expect("valid workload");
            Measurement {
                query_secs: start.elapsed().as_secs_f64(),
                build_secs: 0.0,
                result_size: result.len(),
            }
        }
        Competitor::Index => {
            let build_start = Instant::now();
            let index =
                EclipseIndex::build(points, IndexConfig::default()).expect("valid workload");
            let build_secs = build_start.elapsed().as_secs_f64();
            let start = Instant::now();
            let result = index.query(ratio_box).expect("valid workload");
            Measurement {
                query_secs: start.elapsed().as_secs_f64(),
                build_secs,
                result_size: result.len(),
            }
        }
    }
}

/// Runs a competitor `repetitions` times (re-using one index build for the
/// index-based competitors) and returns the mean query time plus the single
/// build time.
pub fn run_competitor_repeated(
    competitor: Competitor,
    points: &[Point],
    ratio_box: &WeightRatioBox,
    repetitions: usize,
) -> Measurement {
    assert!(repetitions > 0, "repetitions must be positive");
    match competitor {
        Competitor::Base | Competitor::Tran => {
            let mut total = 0.0;
            let mut last = run_competitor(competitor, points, ratio_box);
            total += last.query_secs;
            for _ in 1..repetitions {
                last = run_competitor(competitor, points, ratio_box);
                total += last.query_secs;
            }
            Measurement {
                query_secs: total / repetitions as f64,
                ..last
            }
        }
        Competitor::Index => {
            let build_start = Instant::now();
            let index =
                EclipseIndex::build(points, IndexConfig::default()).expect("valid workload");
            let build_secs = build_start.elapsed().as_secs_f64();
            // Repeated probes share one scratch, like a serving loop would.
            let mut scratch = ProbeScratch::new();
            let mut total = 0.0;
            let mut size = 0;
            for _ in 0..repetitions {
                let start = Instant::now();
                let result = index
                    .query_with_scratch(ratio_box, &mut scratch)
                    .expect("valid workload");
                total += start.elapsed().as_secs_f64();
                size = result.len();
            }
            Measurement {
                query_secs: total / repetitions as f64,
                build_secs,
                result_size: size,
            }
        }
    }
}

/// The skyline executor line-up for a thread count: the serial BNL/SFS/DC
/// trio for `threads <= 1`, their parallel counterparts over one shared pool
/// otherwise.  Used by the thread-sweep experiment and the Criterion bench.
pub fn skyline_executors(threads: usize) -> Vec<Box<dyn SkylineExecutor>> {
    if threads <= 1 {
        return vec![Box::new(SerialBnl), Box::new(SerialSfs), Box::new(SerialDc)];
    }
    let pool = Arc::new(ThreadPool::with_threads(threads));
    vec![
        Box::new(ParallelBnl::new(pool.clone())),
        Box::new(ParallelSfs::new(pool.clone())),
        Box::new(ParallelDc::new(pool)),
    ]
}

/// Times one skyline executor: mean wall-clock of `repetitions` runs plus
/// the result size (for cross-checking between executors).
pub fn run_skyline_executor(
    executor: &dyn SkylineExecutor,
    points: &[Point],
    repetitions: usize,
) -> Measurement {
    assert!(repetitions > 0, "repetitions must be positive");
    let mut total = 0.0;
    let mut size = 0;
    for _ in 0..repetitions {
        let start = Instant::now();
        let result = executor.skyline(points);
        total += start.elapsed().as_secs_f64();
        size = result.len();
    }
    Measurement {
        query_secs: total / repetitions as f64,
        build_secs: 0.0,
        result_size: size,
    }
}

/// Times TRAN at a given thread count: serial divide-and-conquer backend for
/// one thread, the parallel one (mapping + skyline fan out) otherwise.
pub fn run_tran_at_threads(
    points: &[Point],
    ratio_box: &WeightRatioBox,
    threads: usize,
    repetitions: usize,
) -> Measurement {
    assert!(repetitions > 0, "repetitions must be positive");
    let ctx = ExecutionContext::with_threads(threads);
    let backend = if threads <= 1 {
        SkylineBackend::DivideConquer
    } else {
        SkylineBackend::ParallelDivideConquer
    };
    let mut total = 0.0;
    let mut size = 0;
    for _ in 0..repetitions {
        let start = Instant::now();
        let result =
            eclipse_transform_with(points, ratio_box, backend, &ctx).expect("valid workload");
        total += start.elapsed().as_secs_f64();
        size = result.len();
    }
    Measurement {
        query_secs: total / repetitions as f64,
        build_secs: 0.0,
        result_size: size,
    }
}

/// One tree-level probe measurement: construction time plus steady-state
/// single-probe latency over a fixed probe set (reused traversal scratch, the
/// serving-loop configuration).  Probe latencies are the **minimum** over the
/// repetition passes — the standard noise-robust estimator on shared
/// hardware.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeProbeMeasurement {
    /// Tree construction time in seconds.
    pub build_secs: f64,
    /// Mean wall-clock seconds per probe.
    pub probe_secs: f64,
    /// Mean number of reported hyperplanes per probe (result-size sanity
    /// check across backends).
    pub mean_hits: f64,
    /// Arena node count (diagnostic).
    pub nodes: usize,
    /// Tree depth (diagnostic; tracks the quadtree's clustered degradation).
    pub depth: usize,
}

/// Builds a QUAD or CUTTING tree over `planes` with the default configs and
/// times `repetitions` passes over `probes` through the zero-alloc
/// `query_into` path.
pub fn run_tree_probes(
    kind: IntersectionIndexKind,
    planes: &[Hyperplane],
    cell: BoundingBox,
    probes: &[BoundingBox],
    repetitions: usize,
) -> TreeProbeMeasurement {
    run_tree_probes_configured(
        kind,
        planes,
        cell,
        probes,
        repetitions,
        QuadtreeConfig::default(),
        CuttingTreeConfig::default(),
    )
}

/// [`run_tree_probes`] with explicit tree configs, so sweeps can compare
/// split/cut strategies (e.g. the legacy midpoint rules vs the adaptive
/// defaults) on the same workload.
pub fn run_tree_probes_configured(
    kind: IntersectionIndexKind,
    planes: &[Hyperplane],
    cell: BoundingBox,
    probes: &[BoundingBox],
    repetitions: usize,
    quad_config: QuadtreeConfig,
    cutting_config: CuttingTreeConfig,
) -> TreeProbeMeasurement {
    assert!(repetitions > 0, "repetitions must be positive");
    assert!(!probes.is_empty(), "probe set must be non-empty");
    enum Tree {
        Quad(HyperplaneQuadtree),
        Cutting(CuttingTree),
    }
    let build_start = Instant::now();
    let tree = match kind {
        IntersectionIndexKind::Quadtree => {
            Tree::Quad(HyperplaneQuadtree::build(planes, cell, quad_config))
        }
        IntersectionIndexKind::CuttingTree => {
            Tree::Cutting(CuttingTree::build(planes, cell, cutting_config))
        }
    };
    let build_secs = build_start.elapsed().as_secs_f64();
    let (nodes, depth) = match &tree {
        Tree::Quad(t) => (t.node_count(), t.depth()),
        Tree::Cutting(t) => (t.node_count(), t.depth()),
    };
    let mut scratch = TraversalScratch::new();
    let mut out = Vec::new();
    let mut hits = 0usize;
    let mut best_pass = f64::INFINITY;
    for _ in 0..repetitions {
        hits = 0;
        let start = Instant::now();
        for b in probes {
            match &tree {
                Tree::Quad(t) => t.query_into(b.lo(), b.hi(), &mut scratch, &mut out),
                Tree::Cutting(t) => t.query_into(b.lo(), b.hi(), &mut scratch, &mut out),
            }
            hits += out.len();
        }
        best_pass = best_pass.min(start.elapsed().as_secs_f64());
    }
    TreeProbeMeasurement {
        build_secs,
        probe_secs: best_pass / probes.len() as f64,
        mean_hits: hits as f64 / probes.len() as f64,
        nodes,
        depth,
    }
}

/// Seconds per probe (minimum over repetition passes) answering `boxes` one
/// at a time through the scratch-reusing single-probe path.
pub fn run_index_probes(
    index: &EclipseIndex,
    boxes: &[WeightRatioBox],
    repetitions: usize,
) -> Measurement {
    assert!(repetitions > 0, "repetitions must be positive");
    assert!(!boxes.is_empty(), "probe set must be non-empty");
    let mut scratch = ProbeScratch::new();
    let mut size = 0usize;
    let mut best_pass = f64::INFINITY;
    for _ in 0..repetitions {
        let start = Instant::now();
        for b in boxes {
            size = index
                .query_with_scratch(b, &mut scratch)
                .expect("valid workload")
                .len();
        }
        best_pass = best_pass.min(start.elapsed().as_secs_f64());
    }
    Measurement {
        query_secs: best_pass / boxes.len() as f64,
        build_secs: 0.0,
        result_size: size,
    }
}

/// Seconds per probe (minimum over repetition passes) answering `boxes` as
/// one batch per repetition through [`EclipseIndex::query_batch`] on `ctx`.
pub fn run_index_probes_batched(
    index: &EclipseIndex,
    boxes: &[WeightRatioBox],
    ctx: &ExecutionContext,
    repetitions: usize,
) -> Measurement {
    assert!(repetitions > 0, "repetitions must be positive");
    assert!(!boxes.is_empty(), "probe set must be non-empty");
    let mut size = 0usize;
    let mut best_pass = f64::INFINITY;
    for _ in 0..repetitions {
        let start = Instant::now();
        let results = index.query_batch(boxes, ctx).expect("valid workload");
        best_pass = best_pass.min(start.elapsed().as_secs_f64());
        size = results.last().map_or(0, Vec::len);
    }
    Measurement {
        query_secs: best_pass / boxes.len() as f64,
        build_secs: 0.0,
        result_size: size,
    }
}

/// Formats a duration in seconds the way the paper's log-scale plots are
/// usually read (3 significant digits, scientific for very small values).
pub fn format_secs(secs: f64) -> String {
    if secs == 0.0 {
        "0".to_string()
    } else if secs < 1e-3 {
        format!("{secs:.3e}")
    } else {
        format!("{secs:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{default_ratio_box, DatasetFamily};

    #[test]
    fn competitors_agree_on_a_small_workload() {
        let pts = DatasetFamily::Inde.generate(200, 3, 11);
        let b = default_ratio_box(3);
        let sizes: Vec<usize> = Competitor::all()
            .into_iter()
            .map(|c| run_competitor(c, &pts, &b).result_size)
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "sizes {sizes:?}");
    }

    #[test]
    fn repeated_runs_average_and_reuse_index() {
        let pts = DatasetFamily::Corr.generate(300, 3, 3);
        let b = default_ratio_box(3);
        let m = run_competitor_repeated(Competitor::Index, &pts, &b, 3);
        assert!(m.build_secs > 0.0);
        assert!(m.query_secs >= 0.0);
        let t = run_competitor_repeated(Competitor::Tran, &pts, &b, 2);
        assert_eq!(t.build_secs, 0.0);
        assert_eq!(t.result_size, m.result_size);
    }

    #[test]
    fn executor_sweep_agrees_across_thread_counts() {
        let pts = DatasetFamily::Inde.generate(400, 3, 7);
        let serial_sizes: Vec<usize> = skyline_executors(1)
            .iter()
            .map(|e| run_skyline_executor(e.as_ref(), &pts, 1).result_size)
            .collect();
        for threads in [2usize, 4] {
            let sizes: Vec<usize> = skyline_executors(threads)
                .iter()
                .map(|e| run_skyline_executor(e.as_ref(), &pts, 1).result_size)
                .collect();
            assert_eq!(sizes, serial_sizes, "threads = {threads}");
        }
        let b = default_ratio_box(3);
        let t1 = run_tran_at_threads(&pts, &b, 1, 1);
        let t4 = run_tran_at_threads(&pts, &b, 4, 1);
        assert_eq!(t1.result_size, t4.result_size);
    }

    #[test]
    fn probe_runners_agree_across_paths() {
        use crate::workloads::{
            hyperplane_workload, probe_boxes, probe_ratio_boxes, probe_root_cell, HyperplaneFamily,
        };
        let planes = hyperplane_workload(HyperplaneFamily::Uniform, 400, 2, 5);
        let probes = probe_boxes(10, 2, 0.1, 6);
        let quad = run_tree_probes(
            IntersectionIndexKind::Quadtree,
            &planes,
            probe_root_cell(2),
            &probes,
            2,
        );
        let cutting = run_tree_probes(
            IntersectionIndexKind::CuttingTree,
            &planes,
            probe_root_cell(2),
            &probes,
            2,
        );
        // Both backends are exact, so they report identical hit counts.
        assert_eq!(quad.mean_hits, cutting.mean_hits);
        assert!(quad.build_secs > 0.0 && cutting.build_secs > 0.0);
        assert!(quad.nodes >= 1 && cutting.nodes >= 1);

        let pts = DatasetFamily::Inde.generate(300, 3, 11);
        let idx = EclipseIndex::build(&pts, IndexConfig::default()).expect("valid workload");
        let boxes = probe_ratio_boxes(8, 3, 12);
        let single = run_index_probes(&idx, &boxes, 2);
        let batched = run_index_probes_batched(&idx, &boxes, &ExecutionContext::serial(), 2);
        assert_eq!(single.result_size, batched.result_size);
    }

    #[test]
    fn label_and_format_helpers() {
        assert_eq!(Competitor::Base.label(), "BASE");
        assert_eq!(Competitor::index_based(), [Competitor::Index]);
        assert_eq!(format_secs(0.0), "0");
        assert!(format_secs(5e-5).contains('e'));
        assert_eq!(format_secs(0.1234567), "0.1235");
    }
}
