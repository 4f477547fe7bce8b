//! Fault-tolerant shard router for the eclipse serving tier.
//!
//! `eclipse-router` fronts N `eclipse-serve` backends behind the ordinary
//! client wire protocol: clients connect to one address and the router
//! places datasets (hash placement by default, probe-space partitioning
//! for replicated datasets), scatters probe batches over pipelined v2
//! backend connections, and merges replies in probe order.
//!
//! The crate is organized around four pieces:
//!
//! * [`health`] — the per-member health state machine (consecutive-failure
//!   thresholds, half-open probation);
//! * [`retry`] — capped exponential backoff with deterministic jitter,
//!   idempotent-only rules, and a global retry budget;
//! * [`router`] — the router itself, served from eclipse-serve's event
//!   loop: placement, scatter/gather, the active health loop, and standby
//!   promotion with timed snapshot re-warm;
//! * [`fault`] — a deterministic frame-aware fault-injection proxy used by
//!   the integration suites and the failover benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod health;
pub mod retry;
pub mod router;

pub use fault::{FaultPlan, FaultProxy};
pub use health::{HealthMachine, HealthPolicy, HealthState, Transition};
pub use retry::{is_idempotent, RetryBudget, RetryPolicy};
pub use router::{FailoverEvent, Router, RouterConfig, RouterHandle};
