//! Computational-geometry substrate for the eclipse query operator.
//!
//! This crate hosts every geometric building block the eclipse algorithms
//! (crate `eclipse-core`) and the skyline/kNN substrate (crate
//! `eclipse-skyline`) depend on:
//!
//! * [`point`] — fixed-precision d-dimensional points and bounding boxes,
//! * [`hyperplane`] — hyperplanes, dual transform, score lines,
//! * [`dual`] — the primal ⇄ dual transform of de Berg et al. used in §IV of
//!   the paper,
//! * [`arrangement`] — the 2-D arrangement of dual lines (intersection
//!   abscissae, interval partition of the x-axis),
//! * [`quadtree`] — the line quadtree / hyperplane octree Intersection Index,
//! * [`cutting`] — the randomized cutting-tree Intersection Index,
//! * [`rtree`] — an STR bulk-loaded R-tree with best-first kNN search,
//! * [`linalg`] — small dense linear algebra (rank, solve) for the
//!   domination-vector matrices of Theorem 6,
//! * [`lp`] — a simplex LP solver used for convex-hull-query membership.
//!
//! Everything is implemented from scratch on `f64` with an explicit epsilon
//! policy (see [`EPS`] and [`approx`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod approx;
pub mod arrangement;
mod build;
pub mod cutting;
pub mod dual;
pub mod hyperplane;
pub mod linalg;
pub mod lp;
pub mod point;
pub mod quadtree;
pub mod rtree;
pub mod traverse;

pub use approx::{approx_eq, approx_ge, approx_le, EPS};
pub use hyperplane::{DualLine, Hyperplane};
pub use point::{BoundingBox, Point};
