//! TRAN — the transformation-based eclipse algorithms (Algorithms 2 and 3).
//!
//! The idea of §III is to map every point `p` to a vector of (scaled) scores
//! at a fixed set of corner (domination) vectors of the ratio box, so that
//! eclipse dominance becomes coordinate-wise (skyline) dominance of the
//! mapped vectors and any off-the-shelf skyline algorithm finishes the job.
//!
//! **Two dimensions (Theorem 4 / Algorithm 2).**  The box has exactly two
//! corners, the mapping is
//! `c = (p[1] + p[2]/h,  l·p[1] + p[2])` and the equivalence is exact; the
//! 2-D O(n log n) sweep computes the skyline of the mapped points.
//!
//! **Higher dimensions — a correction to the paper.**
//! Theorem 6 of the paper keeps only `d` of the `2^{d−1}` corner vectors
//! (chosen so the corresponding matrix has rank `d`) and claims the resulting
//! `d`-dimensional mapping is still equivalent.  The rank argument shows the
//! chosen vectors *span* the weight space, but score inequalities at those
//! `d` corners do **not** imply the inequalities at the remaining corners —
//! implication would require every corner to be a *convex* combination of
//! the chosen ones, which fails for d ≥ 3.  Concretely, with
//! `r_1, r_2 ∈ [0, 1]`, `p = (1, 1, 1)` and `p′ = (0, 0, 2)`:
//! `S(p) ≤ S(p′)` at the three chosen corners `(0,0), (1,0), (0,1)` but
//! `S(p) = 3 > 2 = S(p′)` at the corner `(1,1)`, so `p` does *not*
//! eclipse-dominate `p′` even though the paper's mapped vector of `p`
//! skyline-dominates that of `p′` — Algorithm 3 as written would drop the
//! eclipse point `p′`.
//!
//! This module therefore provides:
//!
//! * [`eclipse_transform`] — the **corrected** transformation: the mapped
//!   vector holds the scores at *all* `2^{d−1}` corners (Theorem 2 makes this
//!   exact by construction), and a skyline algorithm over the mapped points
//!   finishes the computation.  For d = 2 this is identical to the paper.
//! * [`eclipse_transform_paper`] / [`transform_point_paper`] — the literal
//!   Algorithm 3 mapping, kept as a faithful rendition of the paper.  Its
//!   result is always a *subset* of the true eclipse points (it may
//!   under-report for d ≥ 3), which the tests document.
//! * [`eclipse_transform_with`] / [`CornerTable`] — the execution-aware
//!   entry point: an [`ExecutionContext`] supplies the thread pool for the
//!   parallel [`SkylineBackend`] variants (both the corner-score mapping and
//!   the skyline phase fan out), and the precomputed corner table removes
//!   the per-point corner recomputation from the hot path.

use eclipse_geom::point::Point;

use crate::error::{EclipseError, Result};
use crate::exec::ExecutionContext;
use crate::score::score_with_ratios;
use crate::weights::WeightRatioBox;

/// Which skyline algorithm finishes the transformation-based computation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SkylineBackend {
    /// 2-D sweep when the mapped space is two-dimensional, sort-filter
    /// otherwise (sort-filter touches each point against the current — small —
    /// skyline of mapped points, which is the fastest practical choice for
    /// the corner-score space).
    #[default]
    Auto,
    /// Block-nested-loop skyline.
    BlockNestedLoop,
    /// Sort-filter skyline.
    SortFilter,
    /// Multidimensional divide-and-conquer (ECDF) skyline.
    DivideConquer,
    /// Parallel block-nested-loop: partition → local BNL → merge-filter over
    /// the execution context's thread pool.
    ParallelBlockNestedLoop,
    /// Parallel sort-filter: global presort → partitioned filter passes →
    /// merge-filter over the pool.
    ParallelSortFilter,
    /// Parallel divide-and-conquer: the divide step forks on the pool.
    ParallelDivideConquer,
}

impl SkylineBackend {
    /// `true` for the backends that draw on the execution context's thread
    /// pool.  Parallel backends (and the TRAN mapping feeding them) return
    /// results identical to their serial counterparts at every thread count.
    pub fn is_parallel(self) -> bool {
        matches!(
            self,
            SkylineBackend::ParallelBlockNestedLoop
                | SkylineBackend::ParallelSortFilter
                | SkylineBackend::ParallelDivideConquer
        )
    }
}

/// Precomputed corner ratio vectors of a box: the reusable part of the TRAN
/// mapping.  [`transform_point`] recomputes the `2^{d−1}` corners on every
/// call; on query hot paths build the table once and map every point through
/// it (this is what [`eclipse_transform`] does internally).
#[derive(Clone, Debug)]
pub struct CornerTable {
    corners: Vec<Vec<f64>>,
}

impl CornerTable {
    /// Precomputes the corner ratios of `ratio_box`.
    ///
    /// # Errors
    /// [`EclipseError::Unsupported`] when a ratio range is unbounded.
    pub fn new(ratio_box: &WeightRatioBox) -> Result<Self> {
        Ok(CornerTable {
            corners: ratio_box.corner_ratios()?,
        })
    }

    /// Number of corners (`2^{d−1}`) — the mapped dimensionality.
    pub fn num_corners(&self) -> usize {
        self.corners.len()
    }

    /// Maps one point to its corner-score vector.
    pub fn map_point(&self, p: &Point) -> Point {
        let mut coords = Vec::with_capacity(self.corners.len());
        for corner in &self.corners {
            coords.push(score_with_ratios(p, corner));
        }
        Point::new(coords)
    }

    /// Writes the corner scores of `p` into `out` (cleared first), reusing
    /// the buffer's capacity — the allocation-free flavour of
    /// [`CornerTable::map_point`] for callers that score in a loop.
    pub fn map_coords_into(&self, p: &Point, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.corners.len());
        for corner in &self.corners {
            out.push(score_with_ratios(p, corner));
        }
    }
}

/// Maps a point to its corner-score vector: the scores `S(p)_r` at every one
/// of the `2^{d−1}` corner ratio vectors of the box, in
/// [`WeightRatioBox::corner_ratios`] order.  Eclipse dominance of the original
/// points is exactly skyline dominance of these vectors (Theorem 2 plus the
/// strict convention of [`crate::dominance`]: `≤` at every corner, `<` at
/// one).
///
/// # Panics
/// Panics if the point and box dimensionalities disagree or the box is
/// unbounded (the public entry point [`eclipse_transform`] validates both and
/// returns an error instead).
pub fn transform_point(p: &Point, ratio_box: &WeightRatioBox) -> Point {
    assert_eq!(
        ratio_box.dim(),
        p.dim(),
        "ratio box must match point dimensionality"
    );
    let corners = ratio_box
        .corner_ratios()
        .expect("transform_point requires finite ratio ranges");
    Point::new(
        corners
            .iter()
            .map(|r| score_with_ratios(p, r))
            .collect::<Vec<f64>>(),
    )
}

/// The paper's literal Theorem 4 / Theorem 6 mapping: `d` coordinates, the
/// score at the all-lower corner plus, per dimension `j`, the score at the
/// corner with `r[j] = h_j` (every other ratio at its lower bound) divided by
/// `h_j` — geometrically the smallest intercept of the domination hyperplanes
/// on the `j`-th axis.
///
/// Exact for d = 2; for d ≥ 3 see the module documentation.
///
/// # Panics
/// Same contract as [`transform_point`].
pub fn transform_point_paper(p: &Point, ratio_box: &WeightRatioBox) -> Point {
    let d = p.dim();
    assert_eq!(
        ratio_box.dim(),
        d,
        "ratio box must match point dimensionality"
    );
    assert!(
        !ratio_box.has_unbounded_range(),
        "transform_point_paper requires finite ratio ranges"
    );
    let ranges = ratio_box.ranges();
    let lower_corner_score: f64 =
        (0..d - 1).map(|j| ranges[j].lo() * p.coord(j)).sum::<f64>() + p.coord(d - 1);

    let mut coords = Vec::with_capacity(d);
    for (j, range) in ranges.iter().enumerate().take(d - 1) {
        let h_j = range.hi();
        if h_j == 0.0 {
            // The j-th weight is identically zero: the coordinate carries no
            // information.
            coords.push(0.0);
            continue;
        }
        let score_j = lower_corner_score - range.lo() * p.coord(j) + h_j * p.coord(j);
        coords.push(score_j / h_j);
    }
    coords.push(lower_corner_score);
    Point::new(coords)
}

/// Computes the eclipse points with the (corrected) transformation-based
/// algorithm, returning indices in ascending order.
///
/// Parallel backends draw on the process-wide default pool; use
/// [`eclipse_transform_with`] to supply an explicit [`ExecutionContext`].
///
/// # Errors
/// * [`EclipseError::DimensionMismatch`] when the box does not match the
///   dataset dimensionality.
/// * [`EclipseError::Unsupported`] when a ratio range is unbounded.
pub fn eclipse_transform(
    points: &[Point],
    ratio_box: &WeightRatioBox,
    backend: SkylineBackend,
) -> Result<Vec<usize>> {
    eclipse_transform_with(points, ratio_box, backend, &ExecutionContext::default())
}

/// Datasets below this size are mapped serially even for parallel backends.
const PARALLEL_MAP_CUTOFF: usize = 1024;

/// [`eclipse_transform`] with an explicit execution context: for a parallel
/// backend both the corner-score mapping and the skyline phase run on the
/// context's pool.  The result is identical to the serial computation for
/// every backend and thread count (the property suites enforce this).
///
/// # Errors
/// Same as [`eclipse_transform`].
pub fn eclipse_transform_with(
    points: &[Point],
    ratio_box: &WeightRatioBox,
    backend: SkylineBackend,
    ctx: &ExecutionContext,
) -> Result<Vec<usize>> {
    let table = validate(points, ratio_box)?;
    if points.is_empty() {
        return Ok(Vec::new());
    }
    let mapped: Vec<Point> =
        if backend.is_parallel() && ctx.threads() > 1 && points.len() >= PARALLEL_MAP_CUTOFF {
            ctx.pool().par_map(points, |p| table.map_point(p))
        } else {
            points.iter().map(|p| table.map_point(p)).collect()
        };
    Ok(run_skyline(&mapped, backend, ctx))
}

/// Computes the paper's literal Algorithm 2/3: exact for d = 2, a subset of
/// the eclipse points for d ≥ 3 (see the module documentation).
///
/// # Errors
/// Same as [`eclipse_transform`].
pub fn eclipse_transform_paper(
    points: &[Point],
    ratio_box: &WeightRatioBox,
    backend: SkylineBackend,
) -> Result<Vec<usize>> {
    validate(points, ratio_box)?;
    if points.is_empty() {
        return Ok(Vec::new());
    }
    let mapped: Vec<Point> = points
        .iter()
        .map(|p| transform_point_paper(p, ratio_box))
        .collect();
    Ok(run_skyline(&mapped, backend, &ExecutionContext::default()))
}

fn validate(points: &[Point], ratio_box: &WeightRatioBox) -> Result<CornerTable> {
    if let Some(first) = points.first() {
        let d = first.dim();
        if ratio_box.dim() != d {
            return Err(EclipseError::DimensionMismatch {
                expected: d,
                found: ratio_box.dim(),
            });
        }
        for p in points {
            if p.dim() != d {
                return Err(EclipseError::DimensionMismatch {
                    expected: d,
                    found: p.dim(),
                });
            }
        }
    }
    if ratio_box.has_unbounded_range() {
        return Err(EclipseError::Unsupported(
            "the transformation-based algorithm requires finite ratio ranges".to_string(),
        ));
    }
    CornerTable::new(ratio_box)
}

/// Runs the selected skyline backend over an already mapped (or raw) point
/// set.  Shared with the engine's `skyline_with` so backend dispatch has one
/// definition.
pub(crate) fn run_skyline(
    mapped: &[Point],
    backend: SkylineBackend,
    ctx: &ExecutionContext,
) -> Vec<usize> {
    let mapped_dim = mapped.first().map_or(0, Point::dim);
    match backend {
        SkylineBackend::Auto => {
            if mapped_dim == 2 {
                eclipse_skyline::sweep::skyline_2d(mapped)
            } else {
                eclipse_skyline::sfs::skyline_sfs(mapped)
            }
        }
        SkylineBackend::BlockNestedLoop => eclipse_skyline::bnl::skyline_bnl(mapped),
        SkylineBackend::SortFilter => eclipse_skyline::sfs::skyline_sfs(mapped),
        SkylineBackend::DivideConquer => eclipse_skyline::dc::skyline_dc(mapped),
        // The pooled entry points borrow the context's pool handle directly:
        // one handle serves every dispatch, with no per-call `Arc` clone or
        // executor construction.
        SkylineBackend::ParallelBlockNestedLoop => eclipse_skyline::exec::skyline_bnl_pooled(
            mapped,
            ctx.pool(),
            eclipse_skyline::exec::DEFAULT_SEQUENTIAL_CUTOFF,
        ),
        SkylineBackend::ParallelSortFilter => eclipse_skyline::exec::skyline_sfs_pooled(
            mapped,
            ctx.pool(),
            eclipse_skyline::exec::DEFAULT_SEQUENTIAL_CUTOFF,
        ),
        SkylineBackend::ParallelDivideConquer => {
            eclipse_skyline::dc::skyline_dc_parallel(mapped, ctx.pool())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::baseline::eclipse_baseline;
    use rand::{Rng, SeedableRng};

    fn p(c: &[f64]) -> Point {
        Point::from_slice(c)
    }

    fn paper_points() -> Vec<Point> {
        vec![
            p(&[1.0, 6.0]),
            p(&[4.0, 4.0]),
            p(&[6.0, 1.0]),
            p(&[8.0, 5.0]),
        ]
    }

    #[test]
    fn paper_mapping_matches_figure5() {
        // Figure 5 (r ∈ [1/4, 2]): c1(4, 6.25), c2(6, 5), c3(6.5, 2.5), c4(10.5, 7).
        let b = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        let expected = [
            vec![4.0, 6.25],
            vec![6.0, 5.0],
            vec![6.5, 2.5],
            vec![10.5, 7.0],
        ];
        for (pt, exp) in paper_points().iter().zip(expected.iter()) {
            let c = transform_point_paper(pt, &b);
            for (a, b) in c.coords().iter().zip(exp.iter()) {
                assert!((a - b).abs() < 1e-12, "mapped {c:?} expected {exp:?}");
            }
        }
    }

    #[test]
    fn corner_mapping_in_2d_is_a_rescaled_figure5() {
        // In 2-D the corner scores are (S at l, S at h); the paper's mapping is
        // (S at h / h, S at l) — the same data up to a positive rescale and a
        // coordinate swap, so both induce the same dominance order.
        let b = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        for pt in paper_points() {
            let corners = transform_point(&pt, &b);
            let paper = transform_point_paper(&pt, &b);
            assert!((corners.coord(0) - paper.coord(1)).abs() < 1e-12);
            assert!((corners.coord(1) / 2.0 - paper.coord(0)).abs() < 1e-12);
        }
    }

    #[test]
    fn example3_transformation_result() {
        let b = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        assert_eq!(
            eclipse_transform(&paper_points(), &b, SkylineBackend::Auto).unwrap(),
            vec![0, 1, 2]
        );
        assert_eq!(
            eclipse_transform_paper(&paper_points(), &b, SkylineBackend::Auto).unwrap(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn agrees_with_baseline_in_2d() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        for _ in 0..10 {
            let pts: Vec<Point> = (0..250)
                .map(|_| Point::new(vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]))
                .collect();
            let lo = rng.gen_range(0.05..1.0);
            let hi = lo + rng.gen_range(0.1..4.0);
            let b = WeightRatioBox::uniform(2, lo, hi).unwrap();
            let base = eclipse_baseline(&pts, &b).unwrap();
            assert_eq!(
                eclipse_transform(&pts, &b, SkylineBackend::Auto).unwrap(),
                base
            );
            // In two dimensions the paper's mapping is exact as well.
            assert_eq!(
                eclipse_transform_paper(&pts, &b, SkylineBackend::Auto).unwrap(),
                base
            );
        }
    }

    #[test]
    fn agrees_with_baseline_in_higher_dimensions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(62);
        for d in 3..=5usize {
            for _ in 0..5 {
                let pts: Vec<Point> = (0..200)
                    .map(|_| Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect()))
                    .collect();
                let lo = rng.gen_range(0.05..1.0);
                let hi = lo + rng.gen_range(0.1..4.0);
                let b = WeightRatioBox::uniform(d, lo, hi).unwrap();
                assert_eq!(
                    eclipse_transform(&pts, &b, SkylineBackend::Auto).unwrap(),
                    eclipse_baseline(&pts, &b).unwrap(),
                    "d = {d}, box = {b}"
                );
            }
        }
    }

    #[test]
    fn asymmetric_per_dimension_ranges() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(63);
        let pts: Vec<Point> = (0..200)
            .map(|_| Point::new((0..4).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let b = WeightRatioBox::from_bounds(&[(0.1, 0.6), (0.8, 3.0), (1.5, 2.0)]).unwrap();
        assert_eq!(
            eclipse_transform(&pts, &b, SkylineBackend::Auto).unwrap(),
            eclipse_baseline(&pts, &b).unwrap()
        );
    }

    #[test]
    fn all_backends_agree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(64);
        let pts: Vec<Point> = (0..300)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let b = WeightRatioBox::uniform(3, 0.36, 2.75).unwrap();
        let auto = eclipse_transform(&pts, &b, SkylineBackend::Auto).unwrap();
        for backend in [
            SkylineBackend::BlockNestedLoop,
            SkylineBackend::SortFilter,
            SkylineBackend::DivideConquer,
            SkylineBackend::ParallelBlockNestedLoop,
            SkylineBackend::ParallelSortFilter,
            SkylineBackend::ParallelDivideConquer,
        ] {
            assert_eq!(
                eclipse_transform(&pts, &b, backend).unwrap(),
                auto,
                "{backend:?}"
            );
        }
    }

    #[test]
    fn parallel_backends_agree_above_the_map_cutoff() {
        // Large enough that the parallel corner mapping and the parallel
        // skyline phase both actually engage.
        let mut rng = rand::rngs::StdRng::seed_from_u64(66);
        let pts: Vec<Point> = (0..4000)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        let b = WeightRatioBox::uniform(3, 0.36, 2.75).unwrap();
        let serial = eclipse_transform(&pts, &b, SkylineBackend::SortFilter).unwrap();
        for threads in [1usize, 2, 4] {
            let ctx = ExecutionContext::with_threads(threads);
            for backend in [
                SkylineBackend::ParallelBlockNestedLoop,
                SkylineBackend::ParallelSortFilter,
                SkylineBackend::ParallelDivideConquer,
            ] {
                assert_eq!(
                    eclipse_transform_with(&pts, &b, backend, &ctx).unwrap(),
                    serial,
                    "{backend:?} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn corner_table_matches_transform_point() {
        let b = WeightRatioBox::uniform(3, 0.25, 2.0).unwrap();
        let table = CornerTable::new(&b).unwrap();
        assert_eq!(table.num_corners(), 4);
        let mut scratch = Vec::new();
        for pt in [p(&[1.0, 2.0, 3.0]), p(&[0.5, 0.5, 0.5])] {
            assert_eq!(table.map_point(&pt), transform_point(&pt, &b));
            table.map_coords_into(&pt, &mut scratch);
            assert_eq!(scratch.as_slice(), table.map_point(&pt).coords());
        }
        // Unbounded boxes are rejected like the transform itself.
        assert!(CornerTable::new(&WeightRatioBox::skyline(2).unwrap()).is_err());
    }

    #[test]
    fn paper_theorem6_counterexample() {
        // The counterexample from the module documentation: the paper's
        // mapping drops p2 = (0,0,2) even though nothing eclipse-dominates it.
        let pts = vec![p(&[1.0, 1.0, 1.0]), p(&[0.0, 0.0, 2.0])];
        let b = WeightRatioBox::uniform(3, 0.0, 1.0).unwrap();
        let base = eclipse_baseline(&pts, &b).unwrap();
        assert_eq!(base, vec![0, 1], "neither point dominates the other");
        assert_eq!(
            eclipse_transform(&pts, &b, SkylineBackend::Auto).unwrap(),
            base,
            "the corrected transformation matches the definition"
        );
        assert_eq!(
            eclipse_transform_paper(&pts, &b, SkylineBackend::Auto).unwrap(),
            vec![0],
            "the literal Theorem 6 mapping under-reports"
        );
    }

    #[test]
    fn paper_variant_is_subset_of_true_eclipse() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(65);
        for d in 3..=4usize {
            for _ in 0..5 {
                let pts: Vec<Point> = (0..150)
                    .map(|_| Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect()))
                    .collect();
                let b = WeightRatioBox::uniform(d, 0.36, 2.75).unwrap();
                let exact: std::collections::HashSet<usize> =
                    eclipse_transform(&pts, &b, SkylineBackend::Auto)
                        .unwrap()
                        .into_iter()
                        .collect();
                let paper = eclipse_transform_paper(&pts, &b, SkylineBackend::Auto).unwrap();
                assert!(
                    paper.iter().all(|i| exact.contains(i)),
                    "paper variant must never report a non-eclipse point (d = {d})"
                );
            }
        }
    }

    #[test]
    fn exact_box_degenerates_to_1nn() {
        let b = WeightRatioBox::exact(&[2.0]).unwrap();
        assert_eq!(
            eclipse_transform(&paper_points(), &b, SkylineBackend::Auto).unwrap(),
            vec![0]
        );
    }

    #[test]
    fn zero_upper_bound_is_handled() {
        // r ∈ [0, 0]: only the last attribute matters; p3 has the smallest.
        let b = WeightRatioBox::uniform(2, 0.0, 0.0).unwrap();
        let got = eclipse_transform(&paper_points(), &b, SkylineBackend::Auto).unwrap();
        assert_eq!(got, eclipse_baseline(&paper_points(), &b).unwrap());
        assert_eq!(got, vec![2]);
        let paper = eclipse_transform_paper(&paper_points(), &b, SkylineBackend::Auto).unwrap();
        assert_eq!(paper, vec![2]);
    }

    #[test]
    fn unbounded_and_mismatched_inputs_are_rejected() {
        let sky = WeightRatioBox::skyline(2).unwrap();
        assert!(eclipse_transform(&paper_points(), &sky, SkylineBackend::Auto).is_err());
        assert!(eclipse_transform_paper(&paper_points(), &sky, SkylineBackend::Auto).is_err());
        let wrong_dim = WeightRatioBox::uniform(3, 0.5, 1.0).unwrap();
        assert!(eclipse_transform(&paper_points(), &wrong_dim, SkylineBackend::Auto).is_err());
        let mixed = vec![p(&[1.0, 2.0]), p(&[1.0, 2.0, 3.0])];
        let b = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        assert!(eclipse_transform(&mixed, &b, SkylineBackend::Auto).is_err());
    }

    #[test]
    fn empty_dataset_is_fine() {
        let b = WeightRatioBox::uniform(3, 0.25, 2.0).unwrap();
        assert_eq!(
            eclipse_transform(&[], &b, SkylineBackend::Auto).unwrap(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn duplicates_map_to_identical_points_and_survive() {
        let b = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        let pts = vec![p(&[1.0, 1.0]), p(&[1.0, 1.0]), p(&[9.0, 9.0])];
        assert_eq!(
            eclipse_transform(&pts, &b, SkylineBackend::Auto).unwrap(),
            vec![0, 1]
        );
    }
}
