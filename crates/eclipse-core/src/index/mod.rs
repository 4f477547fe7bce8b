//! Index-based eclipse query processing (§IV of the paper).
//!
//! The transformation-based algorithm recomputes everything from scratch for
//! every query; the index-based algorithms instead precompute, once per
//! dataset:
//!
//! 1. the skyline points (eclipse results are always a subset of them),
//! 2. the *intersection hyperplanes* — for every pair of skyline points the
//!    locus in weight-ratio space where their scores are equal, and
//! 3. a spatial index over those hyperplanes (the **Intersection Index**):
//!    in the paper either a line quadtree / hyperplane octree
//!    ([`eclipse_geom::quadtree`], QUAD) or a cutting tree
//!    ([`eclipse_geom::cutting`], CUTTING),
//!
//! so that a query only has to (a) rank the skyline points at one corner of
//! the query box (the **Order Vector**), (b) fetch the intersection
//! hyperplanes crossing the box, and (c) replay them to determine which
//! points stay undominated across the whole box (Algorithms 5 and 7).
//!
//! Two implementations are provided:
//!
//! * [`ndim::EclipseIndex`] — the production index for any `d ≥ 2`: the
//!   skyline rows alone, probed by an early-exit dominator search that
//!   derives each pair's hyperplane from its two rows (see the module docs
//!   for why no pair hyperplane is stored and how ties are decided),
//! * [`dual2d::OrderVectorIndex2d`] — the verbatim two-dimensional structure
//!   of Algorithm 4 (interval partition of the dual x-axis with one stored
//!   order vector per interval), kept both as an executable rendition of the
//!   paper's §IV-A example and as an alternative 2-D backend.

pub mod dual2d;
pub mod ndim;

pub use dual2d::OrderVectorIndex2d;
pub use ndim::{
    EclipseIndex, IndexConfig, IntersectionIndexKind, ProbeScratch, SECTION_DATASET,
    SECTION_INDEX_META, SECTION_SKYLINE,
};
