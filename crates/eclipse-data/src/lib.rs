//! Workload generators and dataset utilities for the eclipse reproduction.
//!
//! * [`synthetic`] — the independent (INDE), correlated (CORR) and
//!   anti-correlated (ANTI) generators of Börzsönyi et al. used throughout
//!   the paper's evaluation, plus the clustered worst-case generator used for
//!   Figs. 13–14,
//! * [`nba`] — a synthetic NBA-like league standing in for the real
//!   2384-player dataset, which is not redistributable (the module docs
//!   list the statistical shape the substitute keeps),
//! * [`io`] — CSV reading/writing of datasets and experiment results,
//! * [`stats`] — summary statistics (mean, percentiles, correlation),
//! * [`survey`] — the user-study simulator regenerating Table V.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod io;
pub mod nba;
pub mod stats;
pub mod survey;
pub mod synthetic;

pub use nba::{nba_dataset, NbaPlayer};
pub use synthetic::{Distribution, SyntheticConfig};
