//! Online serving: turning a stream of concurrent requests into the
//! batched brute-force calls the paper's kernels want.
//!
//! The offline examples hand `query_batch` a ready-made matrix of
//! queries. A live service never has that luxury — requests arrive one at
//! a time from many clients. This example runs the `rbc-serve` engine
//! over an exact RBC: four producer threads submit individual queries,
//! the scheduler coalesces them into micro-batches (dispatching when a
//! batch fills or the oldest query has lingered 500µs), and every answer
//! is checked against a direct `query` call — batching is an execution
//! strategy, not an approximation. It also demonstrates per-request
//! deadlines (shed-on-expiry) and the LRU answer cache.
//!
//! Run with:
//! ```text
//! cargo run --release --example online_serving
//! ```
//!
//! Telemetry: set `RBC_TRACE=on` (or `RBC_TRACE=<n>` for 1-in-n
//! sampling) to record spans; the example then prints the per-stage
//! breakdown. Set `RBC_TRACE_PROM=<path>` to also write the unified
//! metric registry as Prometheus text exposition — CI pipes that file
//! through `promcheck` as its observability smoke test.

use std::sync::Arc;
use std::time::Duration;

use rbc::prelude::*;
use rbc::serve::CacheKey;

#[path = "util/scale.rs"]
mod util;
use util::scaled;

fn main() {
    let sampling = rbc::trace::init_from_env();
    let tracing = sampling != rbc::trace::Sampling::Off;

    let n = scaled(30_000);
    let producers = 4;
    let requests_per_producer = 250;

    println!("indexing {n} synthetic points (exact RBC) ...");
    let database = rbc::data::low_dim_manifold(n, 3, 24, 0.01, 7);
    let query_pool = rbc::data::low_dim_manifold(256, 3, 24, 0.01, 8);
    let index = Arc::new(ExactRbc::build(
        database,
        Euclidean,
        RbcParams::standard(n, 42),
        RbcConfig::default(),
    ));

    // --- Serve a concurrent stream through micro-batches -----------------
    let engine = Engine::start(
        Arc::clone(&index),
        ServeConfig::default()
            .with_max_batch(64)
            .with_linger(Duration::from_micros(500)),
    )
    .expect("valid serving configuration");

    println!("serving {producers} producers x {requests_per_producer} requests each ...");
    let mismatches: usize = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for p in 0..producers {
            let handle = engine.handle();
            let index = Arc::clone(&index);
            let query_pool = &query_pool;
            joins.push(scope.spawn(move || {
                let mut mismatches = 0usize;
                let mut in_flight = std::collections::VecDeque::new();
                for i in 0..requests_per_producer {
                    let qi = (p * 61 + i) % query_pool.len();
                    let query = query_pool.point(qi).to_vec();
                    let ticket = handle.submit(query.clone(), 1).expect("submit");
                    in_flight.push_back((query, ticket));
                    if in_flight.len() >= 16 {
                        let (query, ticket) = in_flight.pop_front().unwrap();
                        let reply = ticket.wait().expect("served");
                        let (direct, _) = index.query(&query[..]);
                        if reply.neighbors[0] != direct {
                            mismatches += 1;
                        }
                    }
                }
                for (query, ticket) in in_flight {
                    let reply = ticket.wait().expect("served");
                    let (direct, _) = index.query(&query[..]);
                    if reply.neighbors[0] != direct {
                        mismatches += 1;
                    }
                }
                mismatches
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).sum()
    });

    let stats = engine.shutdown();
    println!("\nserved {} queries:", stats.completed);
    println!(
        "  throughput      : {:.0} queries/s over {} micro-batches",
        stats.throughput_qps, stats.batches
    );
    println!(
        "  achieved batch  : mean {:.1} queries/batch (max_batch = 64)",
        stats.mean_batch_size
    );
    println!(
        "  latency         : p50 {} us, p95 {} us, p99 {} us, max {} us",
        stats.latency_p50_us, stats.latency_p95_us, stats.latency_p99_us, stats.latency_max_us
    );
    println!(
        "  answers checked : {} / {} identical to direct queries",
        stats.completed as usize - mismatches,
        stats.completed
    );
    assert_eq!(mismatches, 0, "served answers must match direct queries");

    // The engine's batches run the list-major stage 2, so queries that
    // landed in the same micro-batch shared ownership-list tiles. Replay
    // the query pool as one offline batch to show the sharing the serving
    // path inherits: how many queries each physical list scan served.
    let (_, batch_stats) = index.query_batch_k(&query_pool, 1);
    println!(
        "  tile sharing    : {:.1} queries per list scan ({} shared scans covered {} query-list pairs)",
        batch_stats.tile_sharing_factor(),
        batch_stats.list_scans,
        batch_stats.reps_examined
    );
    assert!(
        batch_stats.tile_sharing_factor() >= 1.0,
        "a batch should never scan a list more often than its rows do alone"
    );

    // --- Deadlines: shed instead of serving stale answers -----------------
    let engine = Engine::start(
        Arc::clone(&index),
        ServeConfig::default()
            .with_workers(1)
            .with_linger(Duration::from_millis(5)),
    )
    .expect("valid serving configuration");
    let handle = engine.handle();
    let patient = handle
        .submit_with_deadline(query_pool.point(0).to_vec(), 1, Duration::from_secs(5))
        .unwrap();
    let hopeless = handle
        .submit_with_deadline(query_pool.point(1).to_vec(), 1, Duration::ZERO)
        .unwrap();
    println!("\ndeadlines:");
    println!(
        "  5s budget  -> {:?}",
        patient.wait().map(|r| r.neighbors[0].index)
    );
    println!(
        "  0s budget  -> {:?}",
        hopeless.wait().expect_err("must be shed")
    );
    let stats = engine.shutdown();
    println!(
        "  engine shed {} of {} requests",
        stats.shed, stats.submitted
    );

    // --- The answer cache for repeated queries ----------------------------
    let cached = Arc::new(CachedIndex::new(Arc::clone(&index), 128));
    let engine = Engine::start(Arc::clone(&cached), ServeConfig::default())
        .expect("valid serving configuration");
    // Register the cache so the engine's own metrics snapshot carries the
    // hit/miss counters and hit rate.
    engine.track_cache(cached.counters());
    let handle = engine.handle();
    let hot_query = query_pool.point(3).to_vec();
    let _ = hot_query[..].cache_key(); // the trait behind the cache's exactness
    for _ in 0..100 {
        handle
            .submit(hot_query.clone(), 1)
            .unwrap()
            .wait()
            .expect("served");
    }
    let stats = engine.shutdown();
    println!(
        "\nanswer cache on a hot query: {} hits / {} misses ({:.0}% hit rate), {} distance evals total",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_hit_rate * 100.0,
        stats.distance_evals
    );

    // --- Telemetry: drained spans + the unified registry ------------------
    if tracing {
        let records = rbc::trace::drain();
        println!(
            "\ntraced stages ({:?} sampling, {} spans):",
            sampling,
            records.len()
        );
        for stage in rbc::trace::stage_breakdown(&records) {
            println!(
                "  {:<18} x{:<6} total {:>9.1} ms, self {:>9.1} ms",
                stage.label,
                stage.count,
                stage.total.as_secs_f64() * 1e3,
                stage.self_total.as_secs_f64() * 1e3,
            );
        }
    }
    if let Ok(path) = std::env::var("RBC_TRACE_PROM") {
        let exposition = rbc::trace::prometheus_snapshot();
        match std::fs::write(&path, &exposition) {
            Ok(()) => println!("wrote Prometheus exposition to {path}"),
            Err(error) => eprintln!("could not write {path}: {error}"),
        }
    }
}
