//! `eclipse-serve` — the batched query-serving layer of the eclipse
//! workspace.
//!
//! The ROADMAP's heavy-traffic north star needs the eclipse operator behind
//! a network boundary, not just in-process.  This crate provides the three
//! pieces:
//!
//! * [`protocol`] — a length-prefixed binary wire protocol with a tiny
//!   hand-rolled codec (std only, no serde): `LoadDataset`, `BuildIndex`,
//!   `QueryBatch`, `CountBatch`, `SaveIndex`, `RestoreIndex`, `Ping` and
//!   `Stats` requests with their responses.  Every connection opens with a
//!   `Hello` handshake and then speaks protocol v2: a
//!   `request_id`/`deadline_ms` header per frame, responses multiplexed
//!   out of order; any other first frame is refused with a typed error.
//!   Decoding is total —
//!   garbage bytes become [`protocol::ProtocolError`] values, never panics
//!   or oversized allocations;
//! * [`server`] — a readiness-driven event-loop server (non-blocking
//!   sockets, one loop thread, a FIFO worker pool; std only, no async
//!   runtime) holding one [`eclipse_core::EclipseEngine`] per registered
//!   dataset, all sharing one `eclipse-exec` pool.  Datasets are warmed
//!   (index built) at registration, and batches route through the engine's
//!   zero-allocation batched probe paths (`eclipse_query_batch` /
//!   `eclipse_count_batch`).  Flow control is typed end to end: per-request
//!   deadlines answered with `Timeout`, per-connection and global in-flight
//!   caps answered with `Overloaded`, and graceful shutdown that drains
//!   admitted requests before closing ([`ServerConfig`] holds the knobs).
//!   The loop serves any [`Handler`] ([`spawn_handler`]); the shard router
//!   runs on it too.  With a snapshot directory configured (`--snapshot-dir`), `SaveIndex`
//!   persists versioned dataset+index snapshots and a restarted server
//!   warm-loads them instead of rebuilding;
//! * [`client`] — the pipelining [`PipelinedClient`] (up to `pipe_size`
//!   requests in flight, replies correlated by request id) and the blocking
//!   [`Client`], a depth-1 wrapper over the same machinery
//!   used by the integration tests, the examples and the `perfbench`
//!   benchmark.
//!
//! The `eclipse-serve` binary (this crate's `src/main.rs`) wraps
//! [`server::Server`] with address/thread/flow-control/preload flags.
//!
//! # Example (in-process round trip)
//!
//! ```
//! use eclipse_core::exec::ExecutionContext;
//! use eclipse_core::point::Point;
//! use eclipse_core::WeightRatioBox;
//! use eclipse_serve::client::Client;
//! use eclipse_serve::protocol::IndexKind;
//! use eclipse_serve::server::Server;
//!
//! let server = Server::bind("127.0.0.1:0", ExecutionContext::serial())?;
//! let handle = server.spawn()?;
//!
//! let mut client = Client::connect(handle.addr())?;
//! let hotels = vec![
//!     Point::new(vec![1.0, 6.0]),
//!     Point::new(vec![4.0, 4.0]),
//!     Point::new(vec![6.0, 1.0]),
//!     Point::new(vec![8.0, 5.0]),
//! ];
//! client.load_dataset("hotels", &hotels, IndexKind::Quadtree)?;
//! let results = client.query_batch(
//!     "hotels",
//!     &[WeightRatioBox::uniform(2, 0.25, 2.0)?],
//! )?;
//! assert_eq!(results, vec![vec![0, 1, 2]]);
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod client;
mod event_loop;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, PipelinedClient};
pub use protocol::{IndexKind, MutationAck, MutationKind, Request, Response, StatsReport};
pub use server::{
    spawn_handler, Handler, LoopStats, RequestCtx, Server, ServerConfig, ServerHandle, SnapshotScan,
};
