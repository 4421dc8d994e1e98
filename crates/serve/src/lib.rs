//! Online query serving for the Random Ball Cover: micro-batching,
//! deadlines, caching, and latency accounting.
//!
//! The paper's central observation is that nearest-neighbor search only
//! becomes hardware-efficient when many queries are batched so they share
//! database tiles — `BF(Q, X)` is fast *because* `Q` is a matrix, not a
//! vector (§3). Offline that is trivial: the caller already holds all the
//! queries. Online it is not: requests arrive one at a time, from many
//! concurrent producers, each wanting an answer soon. This crate closes
//! that gap with the classic serving-system recipe (cf. NCAM, Lee et al.
//! 2016; buffer k-d trees, Gieseke et al. 2015):
//!
//! * **[`Engine`]** — producers submit owned queries through a cloneable
//!   [`ServeHandle`] and get [`Ticket`]s; a scheduler coalesces pending
//!   queries into micro-batches (dispatching when a batch is full or the
//!   oldest query has lingered long enough) and a worker pool executes
//!   each batch as one [`SearchIndex::search_batch`] call.
//! * **Deadlines** — [`ServeHandle::submit_with_deadline`] attaches a
//!   latency budget; requests whose budget expires before execution are
//!   shed, protecting the batch from wasted work under overload.
//! * **[`CachedIndex`]** — an optional exact answer cache (TinyLFU
//!   admission over a segmented LRU) composed under the engine, for
//!   traffic with repeated queries.
//! * **[`ServeMetrics`]** — throughput, achieved-batch-size histogram and
//!   p50/p95/p99 latency, snapshotted as serialisable records that the
//!   `serve_bench` binary writes next to the paper-reproduction reports.
//!
//! The engine serves anything implementing [`rbc_core::SearchIndex`]:
//! both RBC variants, the distributed cluster, or the cover tree —
//! which makes "how much does micro-batching buy on this index?" a
//! measurable question rather than an architectural commitment.
//!
//! # Example
//!
//! ```
//! use rbc_core::{ExactRbc, RbcConfig, RbcParams};
//! use rbc_metric::{Euclidean, VectorSet};
//! use rbc_serve::{Engine, ServeConfig};
//! use std::time::Duration;
//!
//! // A toy database and an exact RBC over it.
//! let rows: Vec<Vec<f32>> = (0..500)
//!     .map(|i| vec![(i % 29) as f32, (i % 31) as f32, i as f32 * 0.01])
//!     .collect();
//! let db = VectorSet::from_rows(&rows);
//! let index = ExactRbc::build(db, Euclidean, RbcParams::standard(500, 7), RbcConfig::default());
//!
//! // Serve it: batches of up to 64, dispatched after at most 500µs.
//! let engine = Engine::start(
//!     index,
//!     ServeConfig::default()
//!         .with_max_batch(64)
//!         .with_linger(Duration::from_micros(500)),
//! )
//! .unwrap();
//!
//! // Producers submit owned buffers and redeem tickets.
//! let handle = engine.handle();
//! let ticket = handle.submit(vec![3.0, 5.0, 1.2], 2).unwrap();
//! let reply = ticket.wait().unwrap();
//! assert_eq!(reply.neighbors.len(), 2);
//!
//! let stats = engine.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod config;
pub mod engine;
pub mod metrics;
mod queue;
pub mod ticket;

pub use cache::{CacheCounters, CacheKey, CachedIndex, TinyLfuCache};
pub use config::{ServeConfig, ServeError};
pub use engine::{Engine, ServeHandle};
pub use metrics::{BatchSizeBucket, LatencyHistogram, MetricsSnapshot, ServeMetrics};
pub use ticket::{ServeReply, Ticket};

// Re-exported so downstream code can name the trait bound without adding
// a direct `rbc-core` dependency.
pub use rbc_core::SearchIndex;

// Re-exported so snapshot consumers can name the per-node load records of
// a served sharded index (see [`ServeMetrics::track_cluster`]) without a
// direct `rbc-distributed` dependency.
pub use rbc_distributed::{ClusterLoad, NodeLoad};
