//! Skyline, kNN and convex-hull-query substrate.
//!
//! The eclipse operator of the paper reduces to (and is compared against)
//! three classic operators, all implemented here from scratch:
//!
//! * [`dominance`] — skyline dominance predicates (minimisation convention),
//! * [`bnl`] — block-nested-loop skyline (the classic baseline of Börzsönyi
//!   et al.),
//! * [`sfs`] — sort-filter skyline (pre-sort by a monotone score, single pass),
//! * [`sweep`] — the O(n log n) two-dimensional sort + sweep skyline,
//! * [`dc`] — Bentley's multidimensional divide-and-conquer (ECDF) skyline,
//!   the O(n log^{d-1} n) routine called by the paper's Algorithm 3,
//! * [`knn`] — generalized 1NN / kNN under a linear scoring function (linear
//!   scan, binary-heap top-k, and R-tree accelerated variants),
//! * [`hull`] — the convex-hull query from the origin's view (2-D monotone
//!   chain and d-dimensional LP-feasibility membership), used for the
//!   relationship experiments around Fig. 4 of the paper,
//! * [`layers`] — skyline layers (onion peeling), the decomposition several
//!   result-size-control schemes in the paper's related work build on,
//! * [`exec`] — pluggable [`exec::SkylineExecutor`] strategies: the primary
//!   API since the parallel substrate landed.  Serial executors wrap the
//!   free functions below; parallel executors run the same algorithms over
//!   an [`eclipse_exec::ThreadPool`] (partition → local skyline →
//!   merge-filter for BNL/SFS, forked divide step for DC) and return
//!   bit-identical results at every thread count.
//!
//! # Example
//!
//! ```
//! use eclipse_geom::point::Point;
//! use eclipse_skyline::{skyline_bnl, skyline_dc};
//!
//! let pts = vec![
//!     Point::new(vec![1.0, 6.0]),
//!     Point::new(vec![4.0, 4.0]),
//!     Point::new(vec![6.0, 1.0]),
//!     Point::new(vec![8.0, 5.0]),
//! ];
//! assert_eq!(skyline_bnl(&pts), vec![0, 1, 2]);
//! assert_eq!(skyline_dc(&pts), skyline_bnl(&pts));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bnl;
pub mod dc;
pub mod dominance;
pub mod exec;
pub mod hull;
pub mod knn;
pub mod layers;
pub mod sfs;
pub mod sweep;

pub use bnl::skyline_bnl;
pub use dc::{skyline_dc, skyline_dc_parallel, skyline_dc_rows};
pub use dominance::{dominates, strictly_dominates, DominanceOrdering};
pub use exec::{
    ParallelBnl, ParallelDc, ParallelSfs, SerialBnl, SerialDc, SerialSfs, SkylineExecutor,
};
pub use layers::{skyline_layers, SkylineLayers};
pub use sfs::skyline_sfs;
pub use sweep::skyline_2d;
