//! The eclipse query operator — a flexible generalization of 1NN and skyline.
//!
//! Given a dataset of `n` points in `d` dimensions and a per-dimension
//! attribute-weight-ratio range `r[j] ∈ [l_j, h_j]`, the **eclipse points**
//! are the points that are possible nearest neighbours for *some* linear
//! scoring function whose weight ratios lie in the given box — equivalently
//! the points not eclipse-dominated by any other point (Definition 3 of the
//! paper). Setting `[l, l]` recovers 1NN; setting `[0, +∞)` recovers skyline.
//!
//! Modules:
//!
//! * [`point`], [`weights`], [`score`] — the data model,
//! * [`dominance`] — 1NN-, skyline- and eclipse-dominance predicates,
//! * [`algo`] — the paper's query algorithms: [`algo::baseline`] (Alg. 1),
//!   [`algo::transform`] (Algs. 2–3),
//! * [`index`] — the index-based algorithms of §IV: the 2-D dual-space Order
//!   Vector Index ([`index::dual2d`]) and the d-dimensional Intersection
//!   Index ([`index::ndim`]), the skyline rows probed by an early-exit
//!   dominator search in place of the paper's line-quadtree
//!   ([`eclipse_geom::quadtree`]) and cutting-tree
//!   ([`eclipse_geom::cutting`]) structures,
//! * [`prefs`] — user-facing preference specifications (exact weights,
//!   ratio ranges, weight ranges, categorical importance levels),
//! * [`relations`] — relationships between eclipse, 1NN, convex hull and
//!   skyline (Table I / Fig. 4),
//! * [`exec`] — the execution layer: [`exec::ExecutionContext`] (a shared
//!   [`eclipse_exec::ThreadPool`] behind an `Arc`) and per-query
//!   [`exec::QueryOptions`]; parallel skyline backends, the TRAN mapping,
//!   index construction and explanations all fan out over it,
//! * [`query`] — a high-level [`query::EclipseEngine`] facade that owns a
//!   dataset, builds indexes lazily and dispatches to the best algorithm.
//!
//! # Example
//!
//! The running example of the paper (hotels with distance and price):
//!
//! ```
//! use eclipse_core::{EclipseEngine, Point, WeightRatioBox};
//!
//! let hotels = vec![
//!     Point::new(vec![1.0, 6.0]), // p1
//!     Point::new(vec![4.0, 4.0]), // p2
//!     Point::new(vec![6.0, 1.0]), // p3
//!     Point::new(vec![8.0, 5.0]), // p4
//! ];
//! let engine = EclipseEngine::new(hotels)?;
//!
//! // "Distance is between 1/4x and 2x as important as price" (Figure 3).
//! let prefs = WeightRatioBox::uniform(2, 0.25, 2.0)?;
//! assert_eq!(engine.eclipse(&prefs)?, vec![0, 1, 2]);
//!
//! // 1NN and skyline are instantiations of the same operator.
//! assert_eq!(engine.eclipse(&WeightRatioBox::exact(&[2.0])?)?, vec![0]);
//! assert_eq!(engine.eclipse(&WeightRatioBox::skyline(2)?)?, vec![0, 1, 2]);
//! # Ok::<(), eclipse_core::EclipseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod algo;
pub mod dominance;
pub mod error;
pub mod exec;
pub mod explain;
pub mod index;
pub mod prefs;
pub mod query;
pub mod relations;
pub mod score;
pub mod weights;

pub use error::{EclipseError, Result};
pub use exec::{ExecutionContext, QueryOptions};
pub use query::{EclipseEngine, MutationOutcome, MutationSummary};
pub use weights::{RatioRange, WeightRatioBox};

/// Re-export of the point types shared across the workspace.
pub mod point {
    pub use eclipse_geom::point::{BoundingBox, Point};
}
pub use point::Point;
