//! Sharded serving: the serving layer, replicated placement, and failover
//! composed into one system.
//!
//! `rbc-serve` coalesces a live stream of requests into micro-batches;
//! `rbc-distributed` shards
//! the database by representative across a (simulated) cluster with every
//! ownership list on **two** nodes. Because `DistributedRbc` is a batched
//! `SearchIndex`, the engine can put one on top of the other: every
//! micro-batch the scheduler closes runs stage 1 once on the coordinator,
//! routes the per-list query groups to the least-loaded live replica of
//! each list in two rounds — each query's nearest list first, then what
//! the returned threshold still admits (one message per node per round)
//! — and merges the partial
//! top-k replies — while the engine's metrics snapshot reports the
//! per-node load, the replica distribution, and the degradation counters.
//!
//! Mid-serve, one node is **killed**. With replication factor 2 every
//! list still has a live home, so the router sheds the dead node and
//! every answer stays exact: every reply is checked against a direct
//! `query_exact` call on an untouched twin index — routing, batching,
//! replication and failover are execution strategies, never
//! approximations.
//!
//! Run with:
//! ```text
//! cargo run --release --example sharded_serving
//! ```

use std::sync::Arc;
use std::time::Duration;

use rbc::distributed::{eval_skew, ClusterConfig, DistributedRbc, PlacementPolicy};
use rbc::prelude::*;

#[path = "util/scale.rs"]
mod util;
use util::scaled;

fn main() {
    let n = scaled(30_000);
    let nodes = 8;
    let producers = 4;
    let requests_per_producer = 200;

    println!("indexing {n} synthetic points (exact RBC, {nodes}-node cluster, replication 2) ...");
    let database = rbc::data::gaussian_mixture(n, 12, 24, 0.03, 7);
    let query_pool = rbc::data::gaussian_mixture(512, 12, 24, 0.03, 8);
    let dim = database.dim();
    let rbc = ExactRbc::build(
        database,
        Euclidean,
        RbcParams::standard(n, 42),
        RbcConfig::default(),
    );
    // A twin index (same deterministic build, no failures injected) for
    // the direct verification queries, so the served index's load counters
    // reflect only the engine's routed batches.
    let verifier = Arc::new(DistributedRbc::from_exact(
        rbc.clone(),
        ClusterConfig::with_nodes(nodes),
        dim,
    ));
    let index = Arc::new(DistributedRbc::from_exact_with_policy(
        rbc,
        ClusterConfig::with_nodes(nodes),
        PlacementPolicy::Replicated { factor: 2 },
        dim,
    ));
    let chaos = index.health();
    println!(
        "placed {} ownership lists over {} nodes: {:.2} replicas/list, \
         {:.2}x storage, imbalance {:.2}",
        index.rbc().num_reps(),
        nodes,
        index.placement().mean_replication(),
        index.load().storage_overhead(),
        index.placement().imbalance(),
    );

    // Serve the sharded index: micro-batches of up to 64, dispatched
    // after a 2ms linger at most.
    let engine = Engine::start(
        Arc::clone(&index),
        ServeConfig::default()
            .with_max_batch(64)
            .with_linger(Duration::from_millis(2)),
    )
    .expect("valid serving configuration");
    // Register the cluster's load counters so the serving snapshot carries
    // the per-node, replica, and degradation view.
    engine.track_cluster(index.load());

    println!(
        "serving {producers} producers x {requests_per_producer} requests each, \
         killing node 2 mid-stream ..."
    );
    let mismatches: usize = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for p in 0..producers {
            let handle = engine.handle();
            let verifier = Arc::clone(&verifier);
            let query_pool = &query_pool;
            let chaos = Arc::clone(&chaos);
            joins.push(scope.spawn(move || {
                let mut mismatches = 0usize;
                let mut in_flight = std::collections::VecDeque::new();
                for i in 0..requests_per_producer {
                    if p == 0 && i == requests_per_producer / 2 {
                        // The failure drill: node 2 drops out of the
                        // cluster while requests are in flight. Every
                        // list has a second home, so nothing is lost.
                        chaos.fail(2);
                    }
                    let qi = (p * 97 + i) % query_pool.len();
                    let query = query_pool.point(qi).to_vec();
                    let ticket = handle.submit(query.clone(), 3).expect("submit");
                    in_flight.push_back((query, ticket));
                    if in_flight.len() >= 16 {
                        let (query, ticket) = in_flight.pop_front().unwrap();
                        let reply = ticket.wait().expect("served");
                        let (direct, _) = verifier.query_exact(&query[..], 3);
                        if reply.neighbors != direct {
                            mismatches += 1;
                        }
                    }
                }
                for (query, ticket) in in_flight {
                    let reply = ticket.wait().expect("served");
                    let (direct, _) = verifier.query_exact(&query[..], 3);
                    if reply.neighbors != direct {
                        mismatches += 1;
                    }
                }
                mismatches
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).sum()
    });

    let stats = engine.shutdown();
    println!("\nserved {} queries through the cluster:", stats.completed);
    println!(
        "  throughput      : {:.0} queries/s over {} micro-batches",
        stats.throughput_qps, stats.batches
    );
    println!(
        "  achieved batch  : mean {:.1} queries/batch (max_batch = 64, linger 2ms)",
        stats.mean_batch_size
    );
    println!(
        "  latency         : p50 {} us, p95 {} us, p99 {} us",
        stats.latency_p50_us, stats.latency_p95_us, stats.latency_p99_us
    );
    println!(
        "  answers checked : {} / {} identical to direct distributed queries",
        stats.completed as usize - mismatches,
        stats.completed
    );
    assert_eq!(
        mismatches, 0,
        "served answers must match direct queries, node failure included"
    );

    // The per-node view the serving snapshot inherited from the cluster.
    println!("\nper-node load (from the serving metrics snapshot):");
    println!("  node  queries   groups     evals     KB out    KB in");
    for load in &stats.node_loads {
        println!(
            "  {:>4}  {:>7}  {:>7}  {:>8}  {:>9.1}  {:>7.1}",
            load.node,
            load.queries,
            load.groups,
            load.evals,
            load.bytes_out as f64 / 1024.0,
            load.bytes_in as f64 / 1024.0,
        );
    }
    assert_eq!(stats.node_loads.len(), nodes);
    let routed: u64 = stats.node_loads.iter().map(|l| l.queries).sum();
    assert!(routed > 0, "no query ever reached a shard");
    println!(
        "  skew            : busiest node at {:.2}x the balanced share by evals",
        eval_skew(&stats.node_loads)
    );
    println!(
        "  fan-out         : {:.2} query routings per request ({} total), \
         one message per node per round",
        routed as f64 / stats.completed as f64,
        routed
    );
    println!(
        "  replication     : {:.2} replicas/list at {:.2}x storage",
        stats.mean_replication, stats.storage_overhead
    );
    println!(
        "  failover        : node 2 down mid-stream; {} groups re-routed, \
         {} lost, {} degraded answers",
        stats.rerouted_groups, stats.lost_groups, stats.degraded_queries
    );
    assert_eq!(stats.lost_groups, 0, "replication 2 must cover one failure");
    assert_eq!(stats.degraded_queries, 0, "no degraded answers expected");
}
