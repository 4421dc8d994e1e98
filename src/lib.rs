//! # rbc — Random Ball Cover nearest-neighbor search
//!
//! A Rust reproduction of Cayton, *Accelerating Nearest Neighbor Search on
//! Manycore Systems* (2012). This facade crate re-exports the workspace's
//! public API so applications can depend on a single crate:
//!
//! * [`core`](mod@core) (`rbc-core`) — the Random Ball Cover itself:
//!   [`OneShotRbc`] and [`ExactRbc`] with their parameter types.
//! * [`metric`] (`rbc-metric`) — datasets and metrics ([`VectorSet`],
//!   [`Euclidean`], edit distance, Hamming, …).
//! * [`bruteforce`] (`rbc-bruteforce`) — the parallel brute-force primitive
//!   everything is built from.
//! * [`baselines`] (`rbc-baselines`) — the Cover Tree, the paper's exact
//!   comparator besides brute force (Table 3).
//! * [`data`] (`rbc-data`) — synthetic workload generators, random
//!   projection, expansion-rate estimation.
//! * [`distributed`] (`rbc-distributed`) — the paper's future-work
//!   extension: the database sharded across (simulated) cluster nodes by
//!   representative, with replicated placement
//!   ([`PlacementPolicy`]), failover routing to the least-loaded live
//!   replica, flagged partial answers when coverage is lost, and
//!   communication-cost accounting. A [`DistributedRbc`] is itself a
//!   batched [`SearchIndex`], so the serving engine can route
//!   micro-batches through the cluster (one query payload per node per
//!   batch) and surface per-node load, replica distribution, and
//!   degradation counters in its metrics.
//! * [`serve`] (`rbc-serve`) — the online query-serving engine: concurrent
//!   producers' queries coalesced into micro-batches (with deadlines, an
//!   answer cache, and latency accounting) over any [`SearchIndex`].
//! * [`trace`] (`rbc-trace`) — end-to-end tracing and unified telemetry:
//!   sampled spans across submit → plan → route → scan → merge, a
//!   process-wide metric registry, and JSON / Prometheus / folded-stack
//!   exporters (see `docs/OBSERVABILITY.md`).
//!
//! ## Quickstart
//!
//! ```
//! use rbc::prelude::*;
//!
//! // Index 5,000 synthetic points and answer queries both ways.
//! let data = rbc::data::low_dim_manifold(5_000, 3, 24, 0.01, 7);
//! let queries = rbc::data::low_dim_manifold(100, 3, 24, 0.01, 8);
//!
//! let params = RbcParams::standard(data.len(), 42);
//! let exact = ExactRbc::build(&data, Euclidean, params.clone(), RbcConfig::default());
//! let (answers, stats) = exact.query_batch(&queries);
//! assert_eq!(answers.len(), 100);
//! assert!(stats.evals_per_query() < data.len() as f64);
//!
//! let one_shot = OneShotRbc::build(&data, Euclidean, params, RbcConfig::default());
//! let (fast_answers, _) = one_shot.query_batch(&queries);
//! assert_eq!(fast_answers.len(), 100);
//! ```

#![warn(missing_docs)]

pub use rbc_baselines as baselines;
pub use rbc_bruteforce as bruteforce;
pub use rbc_core as core;
pub use rbc_data as data;
pub use rbc_distributed as distributed;
pub use rbc_metric as metric;
pub use rbc_serve as serve;
pub use rbc_trace as trace;

pub use rbc_bruteforce::{BfConfig, BruteForce, Neighbor};
pub use rbc_core::{
    ExactRbc, OneShotRbc, QueryStats, RbcConfig, RbcParams, SearchIndex, SearchStats,
};
pub use rbc_distributed::{ClusterConfig, DistributedRbc, Placement, PlacementPolicy};
pub use rbc_metric::{Dataset, Dist, Euclidean, Metric, VectorSet};
pub use rbc_serve::{CachedIndex, Engine, ServeConfig, ServeError, ServeHandle, Ticket};

/// Everything a typical application needs in scope.
pub mod prelude {
    pub use rbc_bruteforce::{BfConfig, BruteForce, Neighbor};
    pub use rbc_core::{
        ExactRbc, OneShotRbc, QueryStats, RbcConfig, RbcParams, SearchIndex, SearchStats,
    };
    pub use rbc_distributed::{ClusterConfig, DistributedRbc, PlacementPolicy};
    pub use rbc_metric::{Dataset, Dist, Euclidean, Manhattan, Metric, VectorSet};
    pub use rbc_serve::{CachedIndex, Engine, ServeConfig, ServeError, ServeHandle, Ticket};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_are_usable_together() {
        let db = VectorSet::from_rows(&[[0.0f32, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0]]);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 1),
            RbcConfig::default(),
        );
        let (nn, _) = rbc.query(&[0.9f32, 0.1][..]);
        assert_eq!(nn.index, 1);

        let bf = BruteForce::with_config(BfConfig::sequential());
        let (check, _) = bf.nn_single(&[0.9f32, 0.1][..], &db, &Euclidean);
        assert_eq!(check, nn);
    }
}
