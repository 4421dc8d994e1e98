//! `serve_bench` — the online serving experiment.
//!
//! Not a paper artifact: the paper measures offline batches, while this
//! binary measures what `rbc-serve` adds on top — how much throughput
//! micro-batch coalescing recovers for a *stream* of concurrent requests,
//! and what it costs in latency. It sweeps the maximum batch size from 1
//! (per-query dispatch, the hardware-hostile regime §3 argues against) up
//! to 128, with a fixed producer pool hammering an exact RBC, and prints
//! one row per policy plus a cached-serving row for a repeated-query
//! stream. Full metrics — including the achieved-batch-size histogram and
//! the p50/p95/p99 latency percentiles — are written as JSON under
//! `results/serve_bench.json`.
//!
//! Usage: `serve_bench [--n N] [--queries N] [--producers N]
//! [--requests N] [--depth N] [--k N] [--seed N] [--trace]`

use std::sync::Arc;
use std::time::Duration;

use serde::Serialize;

use rbc_bench::{write_json_records, Table};
use rbc_core::{ExactRbc, RbcConfig, RbcParams, SearchIndex};
use rbc_data::low_dim_manifold;
use rbc_metric::{Euclidean, VectorSet};
use rbc_serve::{CacheCounters, CachedIndex, Engine, MetricsSnapshot, ServeConfig};

/// Command-line configuration of the serving sweep.
#[derive(Clone)]
struct Options {
    /// Database size.
    n: usize,
    /// Distinct queries the producers cycle through (a finite pool, so
    /// the cached-serving row has repeats to hit on).
    query_pool: usize,
    /// Concurrent producer threads hammering the engine.
    producers: usize,
    /// Requests each producer submits over its lifetime.
    requests_per_producer: usize,
    /// Outstanding requests each producer keeps in flight (pipelining).
    /// Depth 1 is a closed loop — submit, wait, repeat — which can never
    /// fill a batch beyond the producer count; real serving clients
    /// pipeline, which is what lets micro-batches actually fill.
    depth: usize,
    /// Neighbors requested per query.
    k: usize,
    /// Base RNG seed for the database and query pool.
    seed: u64,
    /// Record spans during the sweep and print the stage breakdown.
    trace: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            n: 20_000,
            query_pool: 512,
            producers: 4,
            requests_per_producer: 500,
            depth: 32,
            k: 1,
            seed: 0,
            trace: false,
        }
    }
}

fn parse_options() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| -> usize {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage(&format!("{flag} needs an integer value")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--n" => opts.n = need(&mut args, "--n").max(2),
            "--queries" => opts.query_pool = need(&mut args, "--queries").max(1),
            "--producers" => opts.producers = need(&mut args, "--producers").max(1),
            "--requests" => opts.requests_per_producer = need(&mut args, "--requests").max(1),
            "--depth" => opts.depth = need(&mut args, "--depth").max(1),
            "--k" => opts.k = need(&mut args, "--k").max(1),
            "--seed" => opts.seed = need(&mut args, "--seed") as u64,
            "--trace" => opts.trace = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    opts
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}");
    }
    eprintln!(
        "usage: serve_bench [--n N] [--queries N] [--producers N] [--requests N] \
         [--depth N] [--k N] [--seed N] [--trace]"
    );
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}

/// One measured serving policy, flattened for the JSON report. Cache
/// hit/miss counts and the hit rate ride inside the snapshot, which the
/// engine fills from the registered [`CacheCounters`] (zero for uncached
/// policies).
#[derive(Serialize)]
struct Record {
    policy: String,
    max_batch: usize,
    linger_us: u64,
    producers: usize,
    requests: usize,
    snapshot: MetricsSnapshot,
}

/// Runs `producers` threads of `requests_per_producer` submissions each
/// through a fresh engine over `index` and returns the final metrics.
/// When the index is cache-wrapped, its counters are registered so the
/// returned snapshot carries hit/miss counts and the hit rate.
fn drive<I>(
    index: I,
    policy: ServeConfig,
    opts: &Options,
    queries: &VectorSet,
    cache: Option<Arc<CacheCounters>>,
) -> MetricsSnapshot
where
    I: SearchIndex<Query = [f32]> + Send + Sync + 'static,
{
    let engine = Engine::start(index, policy).expect("valid policy");
    if let Some(counters) = cache {
        engine.track_cache(counters);
    }
    std::thread::scope(|scope| {
        for p in 0..opts.producers {
            let handle = engine.handle();
            scope.spawn(move || {
                let mut in_flight = std::collections::VecDeque::new();
                for i in 0..opts.requests_per_producer {
                    let qi = (p + i * opts.producers) % queries.len();
                    let ticket = handle
                        .submit(queries.point(qi).to_vec(), opts.k)
                        .expect("submit");
                    in_flight.push_back(ticket);
                    if in_flight.len() >= opts.depth {
                        in_flight.pop_front().unwrap().wait().expect("served");
                    }
                }
                for ticket in in_flight {
                    ticket.wait().expect("served");
                }
            });
        }
    });
    engine.shutdown()
}

fn main() {
    let opts = parse_options();
    println!(
        "serve_bench: n = {}, query pool = {}, {} producers x {} requests (depth {}), k = {}\n",
        opts.n, opts.query_pool, opts.producers, opts.requests_per_producer, opts.depth, opts.k
    );

    println!("generating workload and building the exact RBC ...");
    let database = low_dim_manifold(opts.n, 3, 24, 0.01, 7 + opts.seed);
    let queries = low_dim_manifold(opts.query_pool, 3, 24, 0.01, 8 + opts.seed);
    let index = Arc::new(ExactRbc::build(
        database,
        Euclidean,
        RbcParams::standard(opts.n, 42 + opts.seed),
        RbcConfig::default(),
    ));

    if opts.trace {
        rbc_bench::enable_tracing();
    }

    let linger = Duration::from_micros(500);
    let mut records = Vec::new();
    let mut table = Table::new(
        "online serving: micro-batch policy sweep (exact RBC)",
        &[
            "policy", "batch", "qps", "mean B", "p50 us", "p95 us", "p99 us", "evals/q",
        ],
    );

    for max_batch in [1usize, 8, 32, 128] {
        let policy = ServeConfig::default()
            .with_max_batch(max_batch)
            .with_linger(linger)
            .with_queue_capacity(4096);
        let snapshot = drive(Arc::clone(&index), policy, &opts, &queries, None);
        table.row(&[
            format!("batch<={max_batch}"),
            max_batch.to_string(),
            format!("{:.0}", snapshot.throughput_qps),
            format!("{:.2}", snapshot.mean_batch_size),
            snapshot.latency_p50_us.to_string(),
            snapshot.latency_p95_us.to_string(),
            snapshot.latency_p99_us.to_string(),
            format!(
                "{:.0}",
                snapshot.distance_evals as f64 / snapshot.completed.max(1) as f64
            ),
        ]);
        records.push(Record {
            policy: format!("batch<={max_batch}"),
            max_batch,
            linger_us: linger.as_micros() as u64,
            producers: opts.producers,
            requests: opts.producers * opts.requests_per_producer,
            snapshot,
        });
    }

    // Cached serving on the same stream: the query pool repeats, so an LRU
    // answer cache absorbs most of the work after the first pass.
    let cached = CachedIndex::new(Arc::clone(&index), opts.query_pool.max(16));
    let policy = ServeConfig::default()
        .with_max_batch(32)
        .with_linger(linger)
        .with_queue_capacity(4096);
    let cached = Arc::new(cached);
    let snapshot = drive(
        Arc::clone(&cached),
        policy,
        &opts,
        &queries,
        Some(cached.counters()),
    );
    table.row(&[
        "batch<=32+cache".to_string(),
        "32".to_string(),
        format!("{:.0}", snapshot.throughput_qps),
        format!("{:.2}", snapshot.mean_batch_size),
        snapshot.latency_p50_us.to_string(),
        snapshot.latency_p95_us.to_string(),
        snapshot.latency_p99_us.to_string(),
        format!(
            "{:.0}",
            snapshot.distance_evals as f64 / snapshot.completed.max(1) as f64
        ),
    ]);
    records.push(Record {
        policy: "batch<=32+cache".to_string(),
        max_batch: 32,
        linger_us: linger.as_micros() as u64,
        producers: opts.producers,
        requests: opts.producers * opts.requests_per_producer,
        snapshot,
    });

    println!();
    table.print();
    println!(
        "\ncached run: {} hits / {} misses ({:.1}% hit rate)",
        cached.hits(),
        cached.misses(),
        cached.hit_rate() * 100.0
    );

    if opts.trace {
        println!();
        rbc_bench::print_stage_breakdown("serve_bench: stage breakdown (traced spans)");
    }

    match write_json_records("serve_bench", &records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(error) => eprintln!("could not write JSON records: {error}"),
    }
}
