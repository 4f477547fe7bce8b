//! Property-based tests for the geometry substrate: bounding boxes,
//! hyperplane/box predicates, the duality transform, the LP solver and the
//! linear-algebra helpers.

use proptest::prelude::*;

use eclipse_exec::ThreadPool;
use eclipse_geom::cutting::{CutRule, CuttingTree, CuttingTreeConfig};
use eclipse_geom::dual::{score, score_difference_hyperplane, DualHyperplane};
use eclipse_geom::hyperplane::{DualLine, Hyperplane, HyperplaneSlab};
use eclipse_geom::linalg::Matrix;
use eclipse_geom::lp::{Constraint, LinearProgram, LpOutcome};
use eclipse_geom::point::{BoundingBox, Point};
use eclipse_geom::quadtree::{HyperplaneQuadtree, QuadtreeConfig, SplitRule};
use eclipse_geom::traverse::TraversalScratch;

fn point_strategy(d: usize) -> impl Strategy<Value = Point> {
    proptest::collection::vec(-10.0f64..10.0, d).prop_map(Point::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The enclosing box contains every input point, and union is commutative
    /// and monotone.
    #[test]
    fn bbox_enclosing_and_union(
        pts in proptest::collection::vec(proptest::collection::vec(-5.0f64..5.0, 3), 1..30),
    ) {
        let points: Vec<Point> = pts.into_iter().map(Point::new).collect();
        let bbox = BoundingBox::enclosing(&points).unwrap();
        for p in &points {
            prop_assert!(bbox.contains_point(p));
        }
        let a = BoundingBox::from_point(&points[0]);
        let u1 = bbox.union(&a);
        let u2 = a.union(&bbox);
        prop_assert_eq!(&u1, &u2);
        prop_assert!(u1.contains_box(&bbox));
        prop_assert!(u1.volume() + 1e-12 >= bbox.volume());
    }

    /// min/max weighted sums over a box bound the value at any contained point.
    #[test]
    fn bbox_weighted_sum_bounds_hold(
        lo in proptest::collection::vec(-5.0f64..0.0, 2..5),
        extent in proptest::collection::vec(0.0f64..5.0, 2..5),
        weights in proptest::collection::vec(-3.0f64..3.0, 2..5),
        t in proptest::collection::vec(0.0f64..1.0, 2..5),
    ) {
        let d = lo.len().min(extent.len()).min(weights.len()).min(t.len());
        let lo = &lo[..d];
        let hi: Vec<f64> = lo.iter().zip(&extent[..d]).map(|(l, e)| l + e).collect();
        let bbox = BoundingBox::new(lo.to_vec(), hi.clone());
        let inner: Vec<f64> = lo
            .iter()
            .zip(hi.iter())
            .zip(&t[..d])
            .map(|((l, h), t)| l + (h - l) * t)
            .collect();
        let w = &weights[..d];
        let value: f64 = inner.iter().zip(w).map(|(x, w)| x * w).sum();
        prop_assert!(bbox.min_weighted_sum(w) <= value + 1e-9);
        prop_assert!(bbox.max_weighted_sum(w) + 1e-9 >= value);
    }

    /// A hyperplane intersects a box iff its value changes sign over the box
    /// corners (the definition used by every index structure).
    #[test]
    fn hyperplane_box_intersection_matches_corner_signs(
        coeffs in proptest::collection::vec(-2.0f64..2.0, 2..4),
        offset in -2.0f64..2.0,
        lo in proptest::collection::vec(-3.0f64..3.0, 2..4),
        extent in proptest::collection::vec(0.0f64..2.0, 2..4),
    ) {
        let d = coeffs.len().min(lo.len()).min(extent.len());
        let h = Hyperplane::new(coeffs[..d].to_vec(), offset);
        let hi: Vec<f64> = lo[..d].iter().zip(&extent[..d]).map(|(l, e)| l + e).collect();
        let bbox = BoundingBox::new(lo[..d].to_vec(), hi);
        let corner_values: Vec<f64> = bbox.corners().iter().map(|c| h.eval(c.coords())).collect();
        let min = corner_values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = corner_values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let expected = min <= 1e-9 && max >= -1e-9;
        prop_assert_eq!(h.intersects_box(&bbox), expected);
    }

    /// Dual line evaluation is consistent with the primal score at every ratio.
    #[test]
    fn dual_line_score_consistency(p in point_strategy(2), r in 0.01f64..10.0) {
        let line = DualLine::from_point(&p);
        let s = p.weighted_sum(&[r, 1.0]);
        prop_assert!((line.score_at_ratio(r) - s).abs() < 1e-9);
        prop_assert!((-line.value_at(-r) - s).abs() < 1e-9);
    }

    /// The dual hyperplane of a point evaluates consistently with `score`, and
    /// the score-difference hyperplane is the difference of scores.
    #[test]
    fn dual_hyperplane_consistency(
        a in point_strategy(4),
        b in point_strategy(4),
        r in proptest::collection::vec(0.01f64..5.0, 3),
    ) {
        let ha = DualHyperplane::from_point(&a);
        prop_assert!((ha.score_at_ratio(&r) - score(&a, &r)).abs() < 1e-9);
        let diff = score_difference_hyperplane(&a, &b);
        prop_assert!((diff.eval(&r) - (score(&a, &r) - score(&b, &r))).abs() < 1e-9);
    }

    /// Solving A·x = b and multiplying back recovers b (when solvable).
    #[test]
    fn linalg_solve_round_trip(
        rows in proptest::collection::vec(proptest::collection::vec(-3.0f64..3.0, 3), 3),
        x in proptest::collection::vec(-3.0f64..3.0, 3),
    ) {
        let m = Matrix::from_row_vecs(rows);
        let b = m.mul_vec(&x);
        if let Some(solved) = m.solve(&b) {
            let back = m.mul_vec(&solved);
            for (u, v) in back.iter().zip(b.iter()) {
                prop_assert!((u - v).abs() < 1e-6);
            }
        } else {
            // Singular matrices must have deficient rank.
            prop_assert!(m.rank() < 3);
        }
    }

    /// The slab predicates agree with the per-object [`Hyperplane`] ones on
    /// arbitrary rows and boxes, degenerate rows included.
    #[test]
    fn slab_predicates_match_hyperplane_predicates(
        rows in proptest::collection::vec(
            (proptest::collection::vec(-2.0f64..2.0, 2), -2.0f64..2.0),
            1..40,
        ),
        zero_rows in proptest::collection::vec(-2.0f64..2.0, 0..4),
        lo in proptest::collection::vec(-3.0f64..3.0, 2),
        extent in proptest::collection::vec(0.0f64..3.0, 2),
    ) {
        let mut hs: Vec<Hyperplane> = rows
            .into_iter()
            .map(|(c, o)| Hyperplane::new(c, o))
            .collect();
        // Degenerate rows (all-zero coefficients) exercise the special case.
        hs.extend(zero_rows.into_iter().map(|o| Hyperplane::new(vec![0.0, 0.0], o)));
        let slab = HyperplaneSlab::from_hyperplanes(&hs);
        let hi: Vec<f64> = lo.iter().zip(&extent).map(|(l, e)| l + e).collect();
        let bbox = BoundingBox::new(lo.clone(), hi.clone());
        for (i, h) in hs.iter().enumerate() {
            prop_assert_eq!(
                slab.intersects_box(i, &lo, &hi),
                h.intersects_box(&bbox),
                "row {}", i
            );
            if !slab.is_degenerate(i) {
                let (min, max) = slab.min_max_over_box(i, &lo, &hi);
                prop_assert!((min - h.min_over_box(&bbox)).abs() < 1e-12);
                prop_assert!((max - h.max_over_box(&bbox)).abs() < 1e-12);
            }
        }
    }

    /// The arena-backed QUAD and CUTTING trees report exactly the hyperplanes
    /// a naive `intersects_box` filter reports, for any hyperplane set and
    /// query box — through both the compatibility `query` and the
    /// scratch-reusing `query_into` paths.
    #[test]
    fn arena_trees_match_naive_filter(
        rows in proptest::collection::vec(
            (proptest::collection::vec(-1.0f64..1.0, 2), -1.0f64..1.0),
            0..120,
        ),
        qlo in proptest::collection::vec(-1.0f64..0.9, 2),
        side in 0.01f64..0.5,
        cap in 1usize..8,
    ) {
        let hs: Vec<Hyperplane> = rows
            .into_iter()
            .map(|(c, o)| Hyperplane::new(c, o))
            .collect();
        let root = BoundingBox::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        let qhi: Vec<f64> = qlo.iter().map(|l| (l + side).min(1.0)).collect();
        let query = BoundingBox::new(qlo.clone(), qhi.clone());
        let expected: Vec<usize> = (0..hs.len())
            .filter(|&i| hs[i].intersects_box(&query))
            .collect();
        let quad = HyperplaneQuadtree::build(
            &hs,
            root.clone(),
            QuadtreeConfig { max_capacity: cap, ..QuadtreeConfig::default() },
        );
        let cut = CuttingTree::build(
            &hs,
            root,
            CuttingTreeConfig { max_capacity: cap, ..CuttingTreeConfig::default() },
        );
        prop_assert_eq!(quad.query(&hs, &query), expected.clone());
        prop_assert_eq!(cut.query(&hs, &query), expected.clone());
        // The zero-alloc path returns the same ids, and one scratch serves
        // both trees back to back.
        let mut scratch = TraversalScratch::new();
        let mut out = Vec::new();
        quad.query_into(&qlo, &qhi, &mut scratch, &mut out);
        prop_assert_eq!(&out, &expected);
        cut.query_into(&qlo, &qhi, &mut scratch, &mut out);
        prop_assert_eq!(&out, &expected);
    }

    /// The whole-slab sweep reports exactly the ids both trees' walks report,
    /// at every ratio-space dimensionality the index uses (`k = 1–4`).  Rows
    /// and box corners sit on a quarter grid, so hyperplanes run through
    /// cell edges and corners and boxes lie on cell edges (or collapse to a
    /// face or a point); degenerate rows and exact duplicates are mixed in.
    /// The sweep appends after whatever the output already holds.
    #[test]
    fn slab_sweep_matches_both_tree_walks(
        k in 1usize..5,
        rows in proptest::collection::vec(
            (proptest::collection::vec(-4i32..5, 4), -4i32..5, 0u8..8, -1.0f64..1.0),
            0..80,
        ),
        corner in proptest::collection::vec((-4i32..5, 0i32..4), 4),
        cap in 1usize..6,
    ) {
        let mut hs: Vec<Hyperplane> = Vec::new();
        for (coeffs, offset, shape, jitter) in rows {
            let h = match (shape, hs.last()) {
                (0, _) => Hyperplane::new(vec![0.0; k], offset as f64 / 4.0),
                (1, Some(prev)) => prev.clone(),
                (2, _) => Hyperplane::new(
                    coeffs[..k].iter().map(|&c| c as f64 / 4.0 + jitter).collect(),
                    jitter,
                ),
                _ => Hyperplane::new(
                    coeffs[..k].iter().map(|&c| c as f64 / 4.0).collect(),
                    offset as f64 / 4.0,
                ),
            };
            hs.push(h);
        }
        let root = BoundingBox::new(vec![-1.0; k], vec![1.0; k]);
        let qlo: Vec<f64> = corner[..k].iter().map(|&(l, _)| l as f64 / 4.0).collect();
        let qhi: Vec<f64> = corner[..k]
            .iter()
            .map(|&(l, w)| ((l + w) as f64 / 4.0).min(1.0))
            .collect();
        let slab = HyperplaneSlab::from_hyperplanes(&hs);
        let expected: Vec<usize> = (0..hs.len())
            .filter(|&i| slab.intersects_box(i, &qlo, &qhi))
            .collect();

        let mut swept: Vec<usize> = vec![usize::MAX];
        slab.filter_all_intersecting_into(&qlo, &qhi, &mut swept);
        prop_assert_eq!(swept[0], usize::MAX);
        prop_assert_eq!(&swept[1..], &expected[..]);
        let mut swept32: Vec<u32> = Vec::new();
        slab.filter_all_intersecting_into(&qlo, &qhi, &mut swept32);
        prop_assert!(swept32.iter().map(|&i| i as usize).eq(expected.iter().copied()));

        let quad = HyperplaneQuadtree::build(
            &hs,
            root.clone(),
            QuadtreeConfig { max_capacity: cap, ..QuadtreeConfig::default() },
        );
        let cut = CuttingTree::build(
            &hs,
            root,
            CuttingTreeConfig { max_capacity: cap, ..CuttingTreeConfig::default() },
        );
        let mut scratch = TraversalScratch::new();
        let mut walked = Vec::new();
        quad.query_into(&qlo, &qhi, &mut scratch, &mut walked);
        prop_assert_eq!(&walked, &expected);
        cut.query_into(&qlo, &qhi, &mut scratch, &mut walked);
        prop_assert_eq!(&walked, &expected);
    }

    /// Parallel construction is identical to serial construction: for
    /// random hyperplane sets — including a clustered bundle dense enough to
    /// push deep levels past the parallel-dispatch threshold, and degenerate
    /// all-zero rows — building on a 1-thread and a 4-thread pool yields
    /// equal arenas (slab, nodes, cells, entries, root cell, config and
    /// reached depth) under every split/cut rule, both unbounded and
    /// with node/entry budgets small enough to truncate a frontier level
    /// mid-chunk (the final-chunk case where `SampledCrossings` draws used
    /// to depend on how much budget earlier nodes had consumed).
    #[test]
    fn parallel_build_matches_serial_bytes(
        rows in proptest::collection::vec(
            (proptest::collection::vec(-1.0f64..1.0, 2), -1.0f64..1.0),
            0..60,
        ),
        cluster_n in 60usize..110,
        cluster_x in -0.8f64..0.8,
        zero_rows in 0usize..3,
        cap in 1usize..3,
        max_nodes in 9usize..41,
        max_entries in 300usize..2000,
    ) {
        let mut hs: Vec<Hyperplane> = rows
            .into_iter()
            .map(|(c, o)| Hyperplane::new(c, o))
            .collect();
        // A tight vertical bundle: every line crosses O(2^depth) cells per
        // level, so level-entry totals blow past the dispatch threshold.
        for i in 0..cluster_n {
            hs.push(Hyperplane::new(
                vec![1.0, 0.0],
                -cluster_x - 1e-4 * i as f64,
            ));
        }
        for _ in 0..zero_rows {
            hs.push(Hyperplane::new(vec![0.0, 0.0], 0.5));
        }
        let root = BoundingBox::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        let single = ThreadPool::with_threads(1);
        let quad_pool = ThreadPool::with_threads(4);
        // (usize::MAX, usize::MAX) leaves the default budgets in place; the
        // drawn pair is tight enough that the clustered bundle truncates a
        // level mid-chunk.
        for (nodes_budget, entries_budget) in [(usize::MAX, usize::MAX), (max_nodes, max_entries)] {
            for split in [SplitRule::Midpoint, SplitRule::Hybrid] {
                let mut config =
                    QuadtreeConfig { max_capacity: cap, split, ..QuadtreeConfig::default() };
                config.max_nodes = config.max_nodes.min(nodes_budget);
                config.max_entries = config.max_entries.min(entries_budget);
                let serial = HyperplaneQuadtree::build_from_slab_with(
                    HyperplaneSlab::from_hyperplanes(&hs),
                    root.clone(),
                    config,
                    Some(&single),
                );
                let pooled = HyperplaneQuadtree::build_from_slab_with(
                    HyperplaneSlab::from_hyperplanes(&hs),
                    root.clone(),
                    config,
                    Some(&quad_pool),
                );
                prop_assert!(serial == pooled, "quadtree {:?} budgets {:?}",
                    split, (nodes_budget, entries_budget));
            }
            for cut in [CutRule::SampledCrossings, CutRule::MedianExtents] {
                let mut config =
                    CuttingTreeConfig { max_capacity: cap, cut, ..CuttingTreeConfig::default() };
                config.max_nodes = config.max_nodes.min(nodes_budget);
                config.max_entries = config.max_entries.min(entries_budget);
                let serial = CuttingTree::build_from_slab_with(
                    HyperplaneSlab::from_hyperplanes(&hs),
                    root.clone(),
                    config,
                    Some(&single),
                );
                let pooled = CuttingTree::build_from_slab_with(
                    HyperplaneSlab::from_hyperplanes(&hs),
                    root.clone(),
                    config,
                    Some(&quad_pool),
                );
                prop_assert!(serial == pooled, "cutting {:?} budgets {:?}",
                    cut, (nodes_budget, entries_budget));
            }
        }
    }

    /// LP solutions are feasible and no corner of a random box beats the optimum.
    #[test]
    fn lp_optimum_dominates_box_corners(
        c in proptest::collection::vec(-2.0f64..2.0, 2),
        cap in proptest::collection::vec(0.5f64..4.0, 2),
    ) {
        // maximize c·x subject to x_i <= cap_i, x >= 0.
        let mut lp = LinearProgram::maximize(c.clone());
        lp.add_constraint(Constraint::less_eq(vec![1.0, 0.0], cap[0]));
        lp.add_constraint(Constraint::less_eq(vec![0.0, 1.0], cap[1]));
        match lp.solve() {
            LpOutcome::Optimal { objective, solution } => {
                prop_assert!(solution[0] >= -1e-7 && solution[0] <= cap[0] + 1e-7);
                prop_assert!(solution[1] >= -1e-7 && solution[1] <= cap[1] + 1e-7);
                // The optimum of a linear function over a box is a corner value.
                let mut best = f64::NEG_INFINITY;
                for xc in [0.0, cap[0]] {
                    for yc in [0.0, cap[1]] {
                        best = best.max(c[0] * xc + c[1] * yc);
                    }
                }
                prop_assert!((objective - best).abs() < 1e-6);
            }
            other => prop_assert!(false, "bounded LP must be optimal, got {other:?}"),
        }
    }
}
