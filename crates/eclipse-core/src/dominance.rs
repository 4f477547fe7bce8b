//! 1NN-, skyline- and eclipse-dominance predicates (Definitions 1–3).
//!
//! The strictness convention: `p ≺e p′`
//! ("p eclipse-dominates p′") holds when `S(p) ≤ S(p′)` for **every** ratio
//! vector in the box and `S(p) < S(p′)` for **at least one** — identical
//! points therefore never dominate each other, which keeps the relation
//! asymmetric (Property 1) and transitive (Property 2).  The weak (all-≤)
//! variant of Definition 3 is exposed as [`eclipse_dominates_weak`].
//!
//! By Theorems 1 and 2 it suffices to evaluate the scores at the `2^{d−1}`
//! corner (domination) vectors; for *unbounded* ranges (the skyline
//! instantiation) the corner set is infinite, and the predicate instead uses
//! the equivalent analytic condition on the per-dimension coefficients.

use eclipse_geom::approx::EPS;
use eclipse_geom::point::Point;

use crate::score::score_with_ratios;
use crate::weights::WeightRatioBox;

/// Returns `true` if `p` 1NN-dominates `q` for the exact ratio vector
/// `ratios`, i.e. `S(p) < S(q)` (Definition 1).
///
/// # Panics
/// Panics if `ratios.len() + 1` does not match the point dimensionality.
pub fn nn_dominates(p: &Point, q: &Point, ratios: &[f64]) -> bool {
    score_with_ratios(p, ratios) < score_with_ratios(q, ratios)
}

/// Skyline dominance (Definition 2), re-exported from the skyline substrate
/// so that callers of this crate need only one import path.
pub use eclipse_skyline::dominance::dominates as skyline_dominates;

// The skyline crate owns the single definition of every coordinate-wise
// dominance predicate; this module adds only the eclipse-specific (ratio-box)
// predicates and re-exports the rest so no caller is tempted to re-implement
// them here.
pub use eclipse_skyline::dominance::{
    compare as skyline_compare, same_point_set, skyline_naive,
    strictly_dominates as skyline_strictly_dominates, weakly_dominates as skyline_weakly_dominates,
    DominanceOrdering,
};

/// Returns `true` if `p` eclipse-dominates `q` over the ratio box (strict
/// convention: `≤` everywhere, `<` somewhere).
///
/// # Panics
/// Panics if the dimensionality of the points does not match the box.
pub fn eclipse_dominates(p: &Point, q: &Point, ratio_box: &WeightRatioBox) -> bool {
    let (max_diff, min_diff) = score_difference_extrema(p, q, ratio_box);
    max_diff <= EPS && min_diff < -EPS
}

/// Returns `true` if `p` *weakly* eclipse-dominates `q`: `S(p) ≤ S(q)` for
/// every ratio vector in the box (Definition 3 verbatim; identical points
/// weakly dominate each other).
pub fn eclipse_dominates_weak(p: &Point, q: &Point, ratio_box: &WeightRatioBox) -> bool {
    let (max_diff, _) = score_difference_extrema(p, q, ratio_box);
    max_diff <= EPS
}

/// The extrema of `S(p)_r − S(q)_r` over the ratio box.
///
/// The difference is linear in `r`, so over a finite box its extrema are
/// attained at corners; per dimension the contribution is
/// `(p[j] − q[j])·r[j]`, maximized at `h_j` when the coefficient is positive
/// and at `l_j` otherwise (and vice versa for the minimum).  Unbounded upper
/// bounds contribute `+∞`/`−∞` when the coefficient is non-zero, which is
/// precisely the analytic skyline condition.
fn score_difference_extrema(p: &Point, q: &Point, ratio_box: &WeightRatioBox) -> (f64, f64) {
    let d = ratio_box.dim();
    assert_eq!(p.dim(), d, "point dimensionality must match the ratio box");
    assert_eq!(q.dim(), d, "point dimensionality must match the ratio box");
    let mut max_diff = p.coord(d - 1) - q.coord(d - 1);
    let mut min_diff = max_diff;
    for (j, range) in ratio_box.ranges().iter().enumerate() {
        let coeff = p.coord(j) - q.coord(j);
        if coeff == 0.0 {
            continue;
        }
        let (lo, hi) = (range.lo(), range.hi());
        if coeff > 0.0 {
            max_diff += coeff * hi; // +∞ when hi is infinite
            min_diff += coeff * lo;
        } else {
            max_diff += coeff * lo;
            min_diff += coeff * hi; // −∞ when hi is infinite
        }
    }
    (max_diff, min_diff)
}

/// Brute-force eclipse points ("not eclipse-dominated by any other point"),
/// used as the oracle in tests of the faster algorithms.  O(n²·d).
pub fn eclipse_naive(points: &[Point], ratio_box: &WeightRatioBox) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, q)| j != i && eclipse_dominates(q, &points[i], ratio_box))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::WeightRatioBox;

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
    fn skyline_predicates_are_reexported_from_the_substrate() {
        // One definition lives in eclipse-skyline; this module only adds the
        // eclipse-specific predicates on top.
        let a = p(&[1.0, 2.0]);
        let b = p(&[2.0, 3.0]);
        assert!(skyline_dominates(&a, &b));
        assert!(skyline_strictly_dominates(&a, &b));
        assert!(skyline_weakly_dominates(&a, &a));
        assert_eq!(skyline_compare(&a, &b), DominanceOrdering::LeftDominates);
        assert_eq!(skyline_naive(&[a.clone(), b.clone()]), vec![0]);
        assert!(same_point_set(&[a, b], &[0], &[0]));
    }

    #[test]
    fn paper_figure3_eclipse_dominance() {
        // r ∈ [1/4, 2]: p1, p2, p3 each eclipse-dominate p4; none of p1, p2,
        // p3 dominates another.
        let b = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        let pts = paper_points();
        assert!(eclipse_dominates(&pts[0], &pts[3], &b));
        assert!(eclipse_dominates(&pts[1], &pts[3], &b));
        assert!(eclipse_dominates(&pts[2], &pts[3], &b));
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    assert!(!eclipse_dominates(&pts[i], &pts[j], &b), "{i} vs {j}");
                }
            }
        }
        assert_eq!(eclipse_naive(&pts, &b), vec![0, 1, 2]);
    }

    #[test]
    fn example2_boundary_check() {
        // Example 2: S(p2) < S(p4) at both r = 1/4 and r = 2 implies p2 ≺e p4.
        let b = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        assert!(eclipse_dominates(&p(&[4.0, 4.0]), &p(&[8.0, 5.0]), &b));
    }

    #[test]
    fn nn_instantiation_matches_nn_dominance() {
        let b = WeightRatioBox::exact(&[2.0]).unwrap();
        let pts = paper_points();
        // With r = 2, p1 has the smallest score and dominates everything.
        for j in 1..4 {
            assert!(eclipse_dominates(&pts[0], &pts[j], &b));
            assert!(nn_dominates(&pts[0], &pts[j], &[2.0]));
        }
        assert_eq!(eclipse_naive(&pts, &b), vec![0]);
    }

    #[test]
    fn skyline_instantiation_matches_skyline_dominance() {
        let b = WeightRatioBox::skyline(2).unwrap();
        let pts = paper_points();
        for i in 0..4 {
            for j in 0..4 {
                if i == j {
                    continue;
                }
                assert_eq!(
                    eclipse_dominates(&pts[i], &pts[j], &b),
                    skyline_dominates(&pts[i], &pts[j]),
                    "{i} vs {j}"
                );
            }
        }
        assert_eq!(eclipse_naive(&pts, &b), vec![0, 1, 2]);
    }

    #[test]
    fn skyline_instantiation_matches_on_random_data() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for d in 2..=4usize {
            let b = WeightRatioBox::skyline(d).unwrap();
            let pts: Vec<Point> = (0..100)
                .map(|_| Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect()))
                .collect();
            for i in 0..pts.len() {
                for j in 0..pts.len() {
                    if i == j {
                        continue;
                    }
                    assert_eq!(
                        eclipse_dominates(&pts[i], &pts[j], &b),
                        skyline_dominates(&pts[i], &pts[j]),
                        "d = {d}, {i} vs {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn asymmetry_property_1() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let b = WeightRatioBox::uniform(3, 0.36, 2.75).unwrap();
        let pts: Vec<Point> = (0..60)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                if i != j && eclipse_dominates(&pts[i], &pts[j], &b) {
                    assert!(!eclipse_dominates(&pts[j], &pts[i], &b));
                }
            }
        }
    }

    #[test]
    fn transitivity_property_2() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let b = WeightRatioBox::uniform(3, 0.5, 1.5).unwrap();
        let pts: Vec<Point> = (0..40)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        for a in 0..pts.len() {
            for bb in 0..pts.len() {
                for c in 0..pts.len() {
                    if a != bb
                        && bb != c
                        && a != c
                        && eclipse_dominates(&pts[a], &pts[bb], &b)
                        && eclipse_dominates(&pts[bb], &pts[c], &b)
                    {
                        assert!(eclipse_dominates(&pts[a], &pts[c], &b));
                    }
                }
            }
        }
    }

    #[test]
    fn skyline_dominance_implies_eclipse_dominance_property_3() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let b = WeightRatioBox::uniform(3, 0.36, 2.75).unwrap();
        let pts: Vec<Point> = (0..80)
            .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                if i != j && skyline_dominates(&pts[i], &pts[j]) {
                    assert!(eclipse_dominates(&pts[i], &pts[j], &b));
                }
            }
        }
    }

    #[test]
    fn eclipse_without_skyline_dominance_property_4() {
        // Figure 3: p1 does not skyline-dominate p4 but does eclipse-dominate it.
        let b = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        let pts = paper_points();
        assert!(!skyline_dominates(&pts[0], &pts[3]));
        assert!(eclipse_dominates(&pts[0], &pts[3], &b));
    }

    #[test]
    fn identical_points_weakly_dominate_but_not_strictly() {
        let b = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
        let a = p(&[1.0, 1.0]);
        let c = p(&[1.0, 1.0]);
        assert!(eclipse_dominates_weak(&a, &c, &b));
        assert!(!eclipse_dominates(&a, &c, &b));
        // And both stay in the eclipse result.
        assert_eq!(eclipse_naive(&[a, c], &b), vec![0, 1]);
    }

    #[test]
    fn unbounded_non_skyline_box() {
        // r ∈ [1, +∞): dominance requires p[0] ≤ q[0] (the unbounded direction)
        // plus S(p) ≤ S(q) at r = 1.
        let b = WeightRatioBox::from_bounds(&[(1.0, f64::INFINITY)]).unwrap();
        // (2, 0) vs (1, 5): at r = 1 scores are 2 vs 6, but p[0] = 2 > 1 means
        // for huge r the first point loses — no dominance.
        assert!(!eclipse_dominates(&p(&[2.0, 0.0]), &p(&[1.0, 5.0]), &b));
        // (1, 1) vs (2, 3) dominates for every r ≥ 1 (and indeed skyline-dominates).
        assert!(eclipse_dominates(&p(&[1.0, 1.0]), &p(&[2.0, 3.0]), &b));
        // (3, 0) vs (1, 1): wins at r = 1? 3 vs 2 — no. Loses everywhere.
        assert!(!eclipse_dominates(&p(&[3.0, 0.0]), &p(&[1.0, 1.0]), &b));
    }
}
