//! Skyline dominance predicates.
//!
//! All operators in this workspace follow the paper's minimisation
//! convention: the query point sits at the origin and **smaller attribute
//! values are better** (closer to the query).  A point `p` skyline-dominates
//! `p′` when it is at least as close on every dimension and strictly closer
//! on at least one (Definition 2 together with the standard skyline
//! literature).  The strict part keeps the relation asymmetric: identical
//! points never dominate each other, so duplicates of a skyline point all
//! stay in the skyline.

use eclipse_geom::approx::EPS;
use eclipse_geom::point::Point;

/// The three-way outcome of comparing two points under skyline dominance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DominanceOrdering {
    /// The left point dominates the right one.
    LeftDominates,
    /// The right point dominates the left one.
    RightDominates,
    /// Neither dominates the other (they are incomparable or equal).
    Incomparable,
}

/// Returns `true` if `p` skyline-dominates `q`: `p[i] ≤ q[i]` on every
/// dimension and `p[i] < q[i]` on at least one.
///
/// Exact (non-tolerance) comparisons are used: the skyline definition is
/// purely ordinal, and introducing an epsilon here would make dominance
/// non-transitive.  Points with identical coordinates do not dominate each
/// other.
///
/// # Panics
/// Panics if the points have different dimensionality.
pub fn dominates(p: &Point, q: &Point) -> bool {
    dominates_coords(p.coords(), q.coords())
}

/// [`dominates`] over two coordinate slices, for callers that keep their
/// points as rows of one buffer.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dominates_coords(p: &[f64], q: &[f64]) -> bool {
    assert_eq!(p.len(), q.len(), "dimension mismatch in dominates");
    let mut strictly_better = false;
    for (a, b) in p.iter().zip(q) {
        if a > b {
            return false;
        }
        if a < b {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Returns `true` if `p` dominates `q` strictly on *every* dimension.
/// (A stronger notion occasionally useful for pruning and for tests.)
///
/// # Panics
/// Panics if the points have different dimensionality.
pub fn strictly_dominates(p: &Point, q: &Point) -> bool {
    assert_eq!(p.dim(), q.dim(), "dimension mismatch in strictly_dominates");
    (0..p.dim()).all(|i| p.coord(i) < q.coord(i))
}

/// Returns `true` if `p` weakly dominates `q`: `p[i] ≤ q[i]` on every
/// dimension (identical points weakly dominate each other).
///
/// # Panics
/// Panics if the points have different dimensionality.
pub fn weakly_dominates(p: &Point, q: &Point) -> bool {
    assert_eq!(p.dim(), q.dim(), "dimension mismatch in weakly_dominates");
    (0..p.dim()).all(|i| p.coord(i) <= q.coord(i))
}

/// Compares two points and reports which (if either) dominates.
///
/// # Panics
/// Panics if the points have different dimensionality.
pub fn compare(p: &Point, q: &Point) -> DominanceOrdering {
    assert_eq!(p.dim(), q.dim(), "dimension mismatch in compare");
    let mut p_better = false;
    let mut q_better = false;
    for i in 0..p.dim() {
        if p.coord(i) < q.coord(i) {
            p_better = true;
        } else if p.coord(i) > q.coord(i) {
            q_better = true;
        }
        if p_better && q_better {
            return DominanceOrdering::Incomparable;
        }
    }
    match (p_better, q_better) {
        (true, false) => DominanceOrdering::LeftDominates,
        (false, true) => DominanceOrdering::RightDominates,
        _ => DominanceOrdering::Incomparable,
    }
}

/// Returns `true` if `p` dominates `q` when both are first re-expressed
/// relative to the query point `origin` (absolute distances per dimension).
///
/// This is the "any monotonic scoring function around a query point" reading
/// of dominance used when the query point is not the coordinate origin.
///
/// # Panics
/// Panics if the dimensionalities disagree.
pub fn dominates_wrt(p: &Point, q: &Point, origin: &Point) -> bool {
    assert_eq!(p.dim(), q.dim(), "dimension mismatch in dominates_wrt");
    assert_eq!(p.dim(), origin.dim(), "origin dimension mismatch");
    let pd: Vec<f64> = (0..p.dim())
        .map(|i| (p.coord(i) - origin.coord(i)).abs())
        .collect();
    let qd: Vec<f64> = (0..q.dim())
        .map(|i| (q.coord(i) - origin.coord(i)).abs())
        .collect();
    dominates(&Point::new(pd), &Point::new(qd))
}

/// Brute-force O(n²·d) skyline used as the ground-truth oracle in tests and
/// as a correctness fallback: returns the indices of all points not dominated
/// by any other point.
pub fn skyline_naive(points: &[Point]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, q)| j != i && dominates(q, &points[i]))
        })
        .collect()
}

/// Returns `true` if the two result index sets denote the same subset of
/// points, treating duplicate coordinates as interchangeable.  Helper shared
/// by the algorithm-equivalence tests of the downstream crates.
pub fn same_point_set(points: &[Point], a: &[usize], b: &[usize]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut left: Vec<&Point> = a.iter().map(|&i| &points[i]).collect();
    let mut right: Vec<&Point> = b.iter().map(|&i| &points[i]).collect();
    left.sort_by(|x, y| x.lex_cmp(y));
    right.sort_by(|x, y| x.lex_cmp(y));
    left.iter().zip(right.iter()).all(|(x, y)| {
        x.coords()
            .iter()
            .zip(y.coords())
            .all(|(a, b)| (a - b).abs() <= EPS)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(c: &[f64]) -> Point {
        Point::from_slice(c)
    }

    #[test]
    fn basic_dominance() {
        assert!(dominates(&p(&[1.0, 1.0]), &p(&[2.0, 2.0])));
        assert!(dominates(&p(&[1.0, 2.0]), &p(&[1.0, 3.0])));
        assert!(!dominates(&p(&[1.0, 3.0]), &p(&[2.0, 2.0])));
        assert!(!dominates(&p(&[1.0, 1.0]), &p(&[1.0, 1.0])));
        assert!(strictly_dominates(&p(&[1.0, 1.0]), &p(&[2.0, 2.0])));
        assert!(!strictly_dominates(&p(&[1.0, 2.0]), &p(&[1.0, 3.0])));
        assert!(weakly_dominates(&p(&[1.0, 1.0]), &p(&[1.0, 1.0])));
    }

    #[test]
    fn paper_running_example_dominance() {
        // Figure 2: p1(1,6), p2(4,4), p3(6,1), p4(8,5); p2 dominates p4, the
        // skyline is {p1, p2, p3}.
        let pts = vec![
            p(&[1.0, 6.0]),
            p(&[4.0, 4.0]),
            p(&[6.0, 1.0]),
            p(&[8.0, 5.0]),
        ];
        assert!(dominates(&pts[1], &pts[3]));
        assert!(!dominates(&pts[0], &pts[3])); // p1 cannot skyline-dominate p4
        assert_eq!(skyline_naive(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn compare_is_consistent_with_dominates() {
        let a = p(&[1.0, 5.0]);
        let b = p(&[2.0, 6.0]);
        let c = p(&[5.0, 1.0]);
        assert_eq!(compare(&a, &b), DominanceOrdering::LeftDominates);
        assert_eq!(compare(&b, &a), DominanceOrdering::RightDominates);
        assert_eq!(compare(&a, &c), DominanceOrdering::Incomparable);
        assert_eq!(compare(&a, &a), DominanceOrdering::Incomparable);
    }

    #[test]
    fn dominance_wrt_query_point() {
        // Relative to query (5,5): (4,4) is closer than (1,1) on both axes.
        let origin = p(&[5.0, 5.0]);
        assert!(dominates_wrt(&p(&[4.0, 4.0]), &p(&[1.0, 1.0]), &origin));
        assert!(!dominates_wrt(&p(&[1.0, 1.0]), &p(&[4.0, 4.0]), &origin));
    }

    #[test]
    fn naive_skyline_handles_duplicates_and_singletons() {
        let pts = vec![p(&[1.0, 1.0]), p(&[1.0, 1.0]), p(&[2.0, 2.0])];
        // Identical points do not dominate each other: both stay.
        assert_eq!(skyline_naive(&pts), vec![0, 1]);
        assert_eq!(skyline_naive(&[p(&[3.0, 7.0])]), vec![0]);
        assert_eq!(skyline_naive(&[]), Vec::<usize>::new());
    }

    #[test]
    fn same_point_set_tolerates_permutation_and_duplicates() {
        let pts = vec![p(&[1.0, 1.0]), p(&[1.0, 1.0]), p(&[2.0, 2.0])];
        assert!(same_point_set(&pts, &[0, 1], &[1, 0]));
        assert!(!same_point_set(&pts, &[0], &[2]));
        assert!(!same_point_set(&pts, &[0], &[0, 1]));
        assert!(same_point_set(&pts, &[0, 2], &[1, 2]));
    }
}
