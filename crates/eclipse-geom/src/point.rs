//! d-dimensional points and axis-aligned bounding boxes.
//!
//! A [`Point`] is the fundamental record of the whole workspace: a small,
//! heap-allocated vector of `f64` attribute values.  All attribute semantics
//! follow the paper: *smaller is better* (the query point sits at the origin
//! and every operator minimises the weighted sum of attributes).

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::approx::{approx_eq, total_cmp};

/// A point in d-dimensional attribute space.
///
/// Coordinates are stored in a boxed slice to keep the type two words wide
/// and cheap to move.  Dimensions are addressed zero-based in code; the
/// paper's one-based notation `p[j]` corresponds to `p.coord(j - 1)`.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Point {
    coords: Box<[f64]>,
}

impl Point {
    /// Creates a point from a coordinate vector.
    ///
    /// # Panics
    /// Panics if `coords` is empty; zero-dimensional points are meaningless
    /// for every operator in this workspace.
    pub fn new(coords: Vec<f64>) -> Self {
        assert!(!coords.is_empty(), "a Point must have at least 1 dimension");
        Point {
            coords: coords.into_boxed_slice(),
        }
    }

    /// Creates a point from a slice of coordinates.
    pub fn from_slice(coords: &[f64]) -> Self {
        Self::new(coords.to_vec())
    }

    /// The dimensionality of the point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// The `i`-th coordinate (zero-based).
    #[inline]
    pub fn coord(&self, i: usize) -> f64 {
        self.coords[i]
    }

    /// All coordinates as a slice.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Returns a new point translated by `delta` (element-wise addition).
    pub fn translate(&self, delta: &[f64]) -> Point {
        assert_eq!(delta.len(), self.dim(), "dimension mismatch in translate");
        Point::new(
            self.coords
                .iter()
                .zip(delta.iter())
                .map(|(a, b)| a + b)
                .collect(),
        )
    }

    /// Re-expresses this point relative to a query point `q`, i.e. returns
    /// `self - q`.  The paper assumes the query point is the origin; this is
    /// the helper that makes that assumption hold for arbitrary query points.
    pub fn relative_to(&self, q: &Point) -> Point {
        assert_eq!(q.dim(), self.dim(), "dimension mismatch in relative_to");
        Point::new(
            self.coords
                .iter()
                .zip(q.coords.iter())
                .map(|(a, b)| a - b)
                .collect(),
        )
    }

    /// Euclidean (L2) distance to another point.
    pub fn l2_distance(&self, other: &Point) -> f64 {
        assert_eq!(other.dim(), self.dim(), "dimension mismatch in l2_distance");
        self.coords
            .iter()
            .zip(other.coords.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Manhattan (L1) distance to another point.
    pub fn l1_distance(&self, other: &Point) -> f64 {
        assert_eq!(other.dim(), self.dim(), "dimension mismatch in l1_distance");
        self.coords
            .iter()
            .zip(other.coords.iter())
            .map(|(a, b)| (a - b).abs())
            .sum()
    }

    /// Weighted sum `Σ_i w[i] · p[i]` of the point's attributes — the scoring
    /// function `S(p)` of the paper when `w` is a full weight vector
    /// (including `w[d] = 1`).
    pub fn weighted_sum(&self, weights: &[f64]) -> f64 {
        assert_eq!(
            weights.len(),
            self.dim(),
            "weight vector must match point dimensionality"
        );
        self.coords
            .iter()
            .zip(weights.iter())
            .map(|(p, w)| p * w)
            .sum()
    }

    /// Returns `true` when every coordinate of the two points is within the
    /// default tolerance.
    pub fn approx_eq(&self, other: &Point) -> bool {
        self.dim() == other.dim()
            && self
                .coords
                .iter()
                .zip(other.coords.iter())
                .all(|(a, b)| approx_eq(*a, *b))
    }

    /// Lexicographic comparison with deterministic NaN handling, useful for
    /// canonical sorting of result sets in tests.
    pub fn lex_cmp(&self, other: &Point) -> std::cmp::Ordering {
        for (a, b) in self.coords.iter().zip(other.coords.iter()) {
            let c = total_cmp(*a, *b);
            if c != std::cmp::Ordering::Equal {
                return c;
            }
        }
        self.dim().cmp(&other.dim())
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.4}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<f64>> for Point {
    fn from(v: Vec<f64>) -> Self {
        Point::new(v)
    }
}

impl From<&[f64]> for Point {
    fn from(v: &[f64]) -> Self {
        Point::from_slice(v)
    }
}

impl std::ops::Index<usize> for Point {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

/// An axis-aligned bounding box in d dimensions, used by the R-tree, the
/// line quadtree / hyperplane octree and the cutting tree.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl BoundingBox {
    /// Creates a bounding box from its lower and upper corners.
    ///
    /// # Panics
    /// Panics if the corners have different dimensionality, are empty, or if
    /// any `lo[i] > hi[i]`.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner dimensionality mismatch");
        assert!(
            !lo.is_empty(),
            "a BoundingBox must have at least 1 dimension"
        );
        for (l, h) in lo.iter().zip(hi.iter()) {
            assert!(l <= h, "BoundingBox requires lo <= hi on every axis");
        }
        BoundingBox {
            lo: lo.into_boxed_slice(),
            hi: hi.into_boxed_slice(),
        }
    }

    /// The degenerate box covering a single point.
    pub fn from_point(p: &Point) -> Self {
        BoundingBox::new(p.coords().to_vec(), p.coords().to_vec())
    }

    /// The smallest box enclosing all the given points.
    ///
    /// Returns `None` for an empty slice.
    pub fn enclosing(points: &[Point]) -> Option<Self> {
        let first = points.first()?;
        let d = first.dim();
        let mut lo = vec![f64::INFINITY; d];
        let mut hi = vec![f64::NEG_INFINITY; d];
        for p in points {
            assert_eq!(p.dim(), d, "mixed dimensionality in enclosing");
            for i in 0..d {
                lo[i] = lo[i].min(p.coord(i));
                hi[i] = hi[i].max(p.coord(i));
            }
        }
        Some(BoundingBox::new(lo, hi))
    }

    /// Dimensionality of the box.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Heap bytes owned by the box: the two boxed corner slices.  Exact for
    /// the buffers themselves (boxed slices carry no spare capacity); the
    /// allocator's per-allocation header is not included.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        (self.lo.len() + self.hi.len()) * std::mem::size_of::<f64>()
    }

    /// Side length on axis `i`.
    #[inline]
    pub fn extent(&self, i: usize) -> f64 {
        self.hi[i] - self.lo[i]
    }

    /// The centre of the box.
    pub fn center(&self) -> Point {
        Point::new(
            self.lo
                .iter()
                .zip(self.hi.iter())
                .map(|(l, h)| 0.5 * (l + h))
                .collect(),
        )
    }

    /// Hyper-volume of the box (product of extents).
    pub fn volume(&self) -> f64 {
        (0..self.dim()).map(|i| self.extent(i)).product()
    }

    /// Perimeter-like measure: the sum of extents (used by the R-tree split
    /// heuristics).
    pub fn margin(&self) -> f64 {
        (0..self.dim()).map(|i| self.extent(i)).sum()
    }

    /// Returns `true` if the point lies inside the box (boundaries included).
    pub fn contains_point(&self, p: &Point) -> bool {
        assert_eq!(p.dim(), self.dim(), "dimension mismatch in contains_point");
        (0..self.dim()).all(|i| p.coord(i) >= self.lo[i] && p.coord(i) <= self.hi[i])
    }

    /// Returns `true` if `other` is entirely contained in `self`.
    pub fn contains_box(&self, other: &BoundingBox) -> bool {
        assert_eq!(
            other.dim(),
            self.dim(),
            "dimension mismatch in contains_box"
        );
        (0..self.dim()).all(|i| self.lo[i] <= other.lo[i] && self.hi[i] >= other.hi[i])
    }

    /// Returns `true` if the boxes intersect (boundaries included).
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        assert_eq!(other.dim(), self.dim(), "dimension mismatch in intersects");
        (0..self.dim()).all(|i| self.lo[i] <= other.hi[i] && other.lo[i] <= self.hi[i])
    }

    /// The smallest box enclosing both boxes.
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        assert_eq!(other.dim(), self.dim(), "dimension mismatch in union");
        BoundingBox::new(
            self.lo
                .iter()
                .zip(other.lo.iter())
                .map(|(a, b)| a.min(*b))
                .collect(),
            self.hi
                .iter()
                .zip(other.hi.iter())
                .map(|(a, b)| a.max(*b))
                .collect(),
        )
    }

    /// The increase in volume caused by enlarging `self` to also cover
    /// `other` — the classic R-tree insertion heuristic.
    pub fn enlargement(&self, other: &BoundingBox) -> f64 {
        self.union(other).volume() - self.volume()
    }

    /// Minimum squared Euclidean distance from `p` to the box (0 when inside).
    pub fn min_sq_distance(&self, p: &Point) -> f64 {
        assert_eq!(p.dim(), self.dim(), "dimension mismatch in min_sq_distance");
        let mut acc = 0.0;
        for i in 0..self.dim() {
            let c = p.coord(i);
            let d = if c < self.lo[i] {
                self.lo[i] - c
            } else if c > self.hi[i] {
                c - self.hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Minimum possible weighted sum `Σ w[i]·x[i]` over all `x` in the box,
    /// assuming non-negative weights (so the minimum is attained at the lower
    /// corner for positive weights and at the upper corner for negative ones).
    pub fn min_weighted_sum(&self, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.dim(), "weight dimensionality mismatch");
        weights
            .iter()
            .enumerate()
            .map(|(i, w)| {
                if *w >= 0.0 {
                    w * self.lo[i]
                } else {
                    w * self.hi[i]
                }
            })
            .sum()
    }

    /// Maximum possible weighted sum over the box (counterpart of
    /// [`BoundingBox::min_weighted_sum`]).
    pub fn max_weighted_sum(&self, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.dim(), "weight dimensionality mismatch");
        weights
            .iter()
            .enumerate()
            .map(|(i, w)| {
                if *w >= 0.0 {
                    w * self.hi[i]
                } else {
                    w * self.lo[i]
                }
            })
            .sum()
    }

    /// Returns the `2^d` corner points of the box.  Only intended for small
    /// `d` (the workspace never exceeds d = 8).
    pub fn corners(&self) -> Vec<Point> {
        let d = self.dim();
        let mut out = Vec::with_capacity(1 << d);
        for mask in 0u32..(1u32 << d) {
            let mut c = Vec::with_capacity(d);
            for i in 0..d {
                if mask & (1 << i) != 0 {
                    c.push(self.hi[i]);
                } else {
                    c.push(self.lo[i]);
                }
            }
            out.push(Point::new(c));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coords: &[f64]) -> Point {
        Point::from_slice(coords)
    }

    #[test]
    fn point_basic_accessors() {
        let a = p(&[1.0, 6.0]);
        assert_eq!(a.dim(), 2);
        assert_eq!(a.coord(0), 1.0);
        assert_eq!(a[1], 6.0);
        assert_eq!(a.coords(), &[1.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "at least 1 dimension")]
    fn point_rejects_empty() {
        let _ = Point::new(vec![]);
    }

    #[test]
    fn point_weighted_sum_matches_paper_example() {
        // Figure 1: p1 = (1, 6), w = <2, 1> -> S(p1) = 8.
        let p1 = p(&[1.0, 6.0]);
        assert_eq!(p1.weighted_sum(&[2.0, 1.0]), 8.0);
        // p4 = (8, 5) -> S = 21 for w = <2,1>.
        let p4 = p(&[8.0, 5.0]);
        assert_eq!(p4.weighted_sum(&[2.0, 1.0]), 21.0);
    }

    #[test]
    fn point_distances() {
        let a = p(&[0.0, 0.0]);
        let b = p(&[3.0, 4.0]);
        assert!((a.l2_distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.l1_distance(&b) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn point_relative_to_query() {
        let a = p(&[3.0, 4.0]);
        let q = p(&[1.0, 1.0]);
        assert_eq!(a.relative_to(&q), p(&[2.0, 3.0]));
        assert_eq!(a.translate(&[-1.0, -1.0]), p(&[2.0, 3.0]));
    }

    #[test]
    fn point_lex_cmp_and_approx_eq() {
        use std::cmp::Ordering;
        assert_eq!(p(&[1.0, 2.0]).lex_cmp(&p(&[1.0, 3.0])), Ordering::Less);
        assert_eq!(p(&[2.0, 2.0]).lex_cmp(&p(&[1.0, 3.0])), Ordering::Greater);
        assert_eq!(p(&[1.0, 2.0]).lex_cmp(&p(&[1.0, 2.0])), Ordering::Equal);
        assert!(p(&[1.0, 2.0]).approx_eq(&p(&[1.0, 2.0 + 1e-12])));
        assert!(!p(&[1.0, 2.0]).approx_eq(&p(&[1.0, 2.1])));
        assert!(!p(&[1.0]).approx_eq(&p(&[1.0, 2.0])));
    }

    #[test]
    fn display_and_debug_format() {
        let a = p(&[1.0, 2.5]);
        assert_eq!(format!("{a}"), "(1.0000, 2.5000)");
        assert_eq!(format!("{a:?}"), "Point(1, 2.5)");
    }

    #[test]
    fn bbox_construction_and_accessors() {
        let b = BoundingBox::new(vec![0.0, 1.0], vec![2.0, 3.0]);
        assert_eq!(b.dim(), 2);
        assert_eq!(b.extent(0), 2.0);
        assert_eq!(b.extent(1), 2.0);
        assert_eq!(b.volume(), 4.0);
        assert_eq!(b.margin(), 4.0);
        assert_eq!(b.center(), p(&[1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn bbox_rejects_inverted() {
        let _ = BoundingBox::new(vec![1.0], vec![0.0]);
    }

    #[test]
    fn bbox_enclosing_points() {
        let pts = vec![p(&[1.0, 6.0]), p(&[4.0, 4.0]), p(&[6.0, 1.0])];
        let b = BoundingBox::enclosing(&pts).unwrap();
        assert_eq!(b.lo(), &[1.0, 1.0]);
        assert_eq!(b.hi(), &[6.0, 6.0]);
        assert!(BoundingBox::enclosing(&[]).is_none());
    }

    #[test]
    fn bbox_containment_and_intersection() {
        let b = BoundingBox::new(vec![0.0, 0.0], vec![4.0, 4.0]);
        let inner = BoundingBox::new(vec![1.0, 1.0], vec![2.0, 2.0]);
        let overlapping = BoundingBox::new(vec![3.0, 3.0], vec![5.0, 5.0]);
        let outside = BoundingBox::new(vec![5.0, 5.0], vec![6.0, 6.0]);
        assert!(b.contains_point(&p(&[0.0, 4.0])));
        assert!(!b.contains_point(&p(&[4.1, 0.0])));
        assert!(b.contains_box(&inner));
        assert!(!b.contains_box(&overlapping));
        assert!(b.intersects(&overlapping));
        assert!(!b.intersects(&outside));
        // Touching boundaries count as intersecting.
        let touching = BoundingBox::new(vec![4.0, 0.0], vec![5.0, 1.0]);
        assert!(b.intersects(&touching));
    }

    #[test]
    fn bbox_union_and_enlargement() {
        let a = BoundingBox::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let b = BoundingBox::new(vec![2.0, 2.0], vec![3.0, 3.0]);
        let u = a.union(&b);
        assert_eq!(u.lo(), &[0.0, 0.0]);
        assert_eq!(u.hi(), &[3.0, 3.0]);
        assert!((a.enlargement(&b) - (9.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn bbox_min_sq_distance() {
        let b = BoundingBox::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert_eq!(b.min_sq_distance(&p(&[0.5, 0.5])), 0.0);
        assert!((b.min_sq_distance(&p(&[2.0, 0.5])) - 1.0).abs() < 1e-12);
        assert!((b.min_sq_distance(&p(&[2.0, 2.0])) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bbox_weighted_sum_bounds() {
        let b = BoundingBox::new(vec![1.0, 2.0], vec![3.0, 5.0]);
        assert_eq!(b.min_weighted_sum(&[1.0, 1.0]), 3.0);
        assert_eq!(b.max_weighted_sum(&[1.0, 1.0]), 8.0);
        // Negative weight flips the corner used.
        assert_eq!(b.min_weighted_sum(&[-1.0, 1.0]), -3.0 + 2.0);
        assert_eq!(b.max_weighted_sum(&[-1.0, 1.0]), -1.0 + 5.0);
    }

    #[test]
    fn bbox_corners() {
        let b = BoundingBox::new(vec![0.0, 0.0], vec![2.0, 2.0]);
        let corners = b.corners();
        assert_eq!(corners.len(), 4);
        assert!(corners.contains(&p(&[0.0, 0.0])));
        assert!(corners.contains(&p(&[2.0, 2.0])));
        assert!(corners.contains(&p(&[0.0, 2.0])));
        assert!(corners.contains(&p(&[2.0, 0.0])));
    }
}
