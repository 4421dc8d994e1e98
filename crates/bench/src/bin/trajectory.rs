//! `trajectory` — the perf-trajectory harness and its regression gate.
//!
//! One binary sweeps every layer of the stack over matched *and hostile*
//! query streams and writes four schema-versioned trajectory files at
//! the repository root:
//!
//! | File               | Area    | What it sweeps |
//! |--------------------|---------|----------------|
//! | `BENCH_core.json`  | `core`  | brute force vs. exact vs. one-shot RBC, across database scale, `k`, and all four streams |
//! | `BENCH_batch.json` | `batch` | exact batches across micro-batch sizes, with tile-sharing stats |
//! | `BENCH_shard.json` | `shard` | node counts, placement policies, and a node-down failure cell on the hostile streams |
//! | `BENCH_serve.json` | `serve` | per-query dispatch vs. micro-batch coalescing under concurrent producers |
//!
//! The streams: `matched` draws queries from the database's own mixture;
//! `skewed` Zipf-weights the cluster choice so a few clusters carry most
//! of the traffic; `drifting` sweeps the query distribution along the
//! cluster path over the stream (non-stationary); `adversarial` aims the
//! whole stream at one tight ball on a single cluster — the contention
//! worst case. All come from `rbc_data::adversarial` and are exactly
//! reproducible from the recorded seed.
//!
//! # Regression gate
//!
//! `trajectory --check <dir>` reads the baselines in `<dir>`, re-runs
//! each area at the baseline's *recorded* scale and seed, writes the
//! fresh results under `--out`, and compares within tolerances (see
//! `rbc_bench::trajectory` for the gating model: deterministic
//! work/quality metrics gated, wall-clock informational). Exit status 0
//! means every area passed; 1 means the failure tables printed above
//! explain what drifted.
//!
//! `trajectory --perturb <dir>` writes deliberately broken copies of the
//! baselines (work metrics tripled, recall shifted) into `<dir>`; CI
//! checks against them and asserts the gate *fails* — the negative
//! control proving the gate can actually catch a regression.
//!
//! Usage: `trajectory [--scale F] [--seed N] [--out DIR] [--areas a,b]
//! [--check DIR] [--perturb DIR] [--tol-work F] [--tol-quality F]
//! [--tol-time F]`

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbc_bench::{
    compare_files, failure_table, perturbed, read_bench_file, recall_at_k, write_bench_file, Cell,
    CellMetrics, CheckFailure, Table, Tolerances, TrajectoryFile, AREAS, SCHEMA_VERSION,
};
use rbc_bruteforce::{BfConfig, BruteForce, Neighbor};
use rbc_core::{ExactRbc, OneShotRbc, RbcConfig, RbcParams, SearchStats};
use rbc_data::{adversarial_ball_queries, drifting_queries, gaussian_mixture, skewed_queries};
use rbc_distributed::{
    eval_skew, ClusterConfig, DistributedQueryStats, DistributedRbc, PlacementPolicy,
};
use rbc_metric::{Dataset, Euclidean, VectorSet};
use rbc_serve::{Engine, ServeConfig};

/// Command-line configuration of the trajectory run.
struct Options {
    /// Multiplies every database and stream size in the grid (floors
    /// keep the cells meaningful at tiny scales).
    scale: f64,
    /// Base seed for every workload; recorded in the files so `--check`
    /// can regenerate the exact streams.
    seed: u64,
    /// Directory the `BENCH_<area>.json` files are written to. Defaults
    /// to the repository root (`.`).
    out: PathBuf,
    /// Baseline directory to check against instead of just recording.
    check: Option<PathBuf>,
    /// Directory to write perturbed (deliberately failing) baselines to.
    perturb: Option<PathBuf>,
    /// Areas to run; defaults to all four.
    areas: Vec<String>,
    /// Gate tolerances (`--tol-work`, `--tol-quality`, `--tol-time`).
    tolerances: Tolerances,
    /// Record spans while the areas run and print a per-area stage
    /// breakdown after each summary table.
    trace: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scale: 1.0,
            seed: 0,
            out: PathBuf::from("."),
            check: None,
            perturb: None,
            areas: AREAS.iter().map(|a| a.to_string()).collect(),
            tolerances: Tolerances::default(),
            trace: false,
        }
    }
}

fn parse_options() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let need_f64 = |it: &mut dyn Iterator<Item = String>, flag: &str| -> f64 {
        need(it, flag)
            .parse()
            .unwrap_or_else(|_| usage(&format!("{flag} needs a number")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => opts.scale = need_f64(&mut args, "--scale").max(0.01),
            "--seed" => {
                opts.seed = need(&mut args, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--out" => opts.out = PathBuf::from(need(&mut args, "--out")),
            "--check" => opts.check = Some(PathBuf::from(need(&mut args, "--check"))),
            "--perturb" => opts.perturb = Some(PathBuf::from(need(&mut args, "--perturb"))),
            "--areas" => {
                opts.areas = need(&mut args, "--areas")
                    .split(',')
                    .map(|a| a.trim().to_string())
                    .filter(|a| !a.is_empty())
                    .collect();
                for area in &opts.areas {
                    if !AREAS.contains(&area.as_str()) {
                        usage(&format!(
                            "unknown area {area} (areas: {})",
                            AREAS.join(", ")
                        ));
                    }
                }
            }
            "--tol-work" => opts.tolerances.work_rel = need_f64(&mut args, "--tol-work").max(0.0),
            "--tol-quality" => {
                opts.tolerances.quality_abs = need_f64(&mut args, "--tol-quality").max(0.0)
            }
            "--tol-time" => {
                opts.tolerances.time_rel = Some(need_f64(&mut args, "--tol-time").max(0.0))
            }
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
        "usage: trajectory [--scale F] [--seed N] [--out DIR] [--areas a,b] \
         [--check DIR] [--perturb DIR] [--tol-work F] [--tol-quality F] [--tol-time F] \
         [--trace]"
    );
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}

/// Ambient dimension of every trajectory workload.
const DIM: usize = 12;
/// Clusters in every trajectory database.
const CLUSTERS: usize = 16;
/// Per-cluster spread of every trajectory database.
const SPREAD: f64 = 0.03;
/// Zipf concentration of the `skewed` stream.
const SKEW_CONCENTRATION: f64 = 1.5;
/// Fraction of the cluster path the `drifting` stream sweeps.
const DRIFT_SWEEP: f64 = 1.0;

/// The four query streams every area replays.
const STREAMS: [&str; 4] = ["matched", "skewed", "drifting", "adversarial"];

/// Generates the named query stream aimed at the database that
/// `gaussian_mixture(n, DIM, CLUSTERS, SPREAD, 7 + seed)` produced.
fn make_stream(stream: &str, queries: usize, seed: u64) -> VectorSet {
    let db_seed = 7 + seed;
    match stream {
        "matched" => gaussian_mixture(queries, DIM, CLUSTERS, SPREAD, 8 + seed),
        "skewed" => skewed_queries(
            queries,
            DIM,
            CLUSTERS,
            SPREAD,
            SKEW_CONCENTRATION,
            db_seed,
            100 + seed,
        ),
        "drifting" => drifting_queries(
            queries,
            DIM,
            CLUSTERS,
            SPREAD,
            DRIFT_SWEEP,
            db_seed,
            200 + seed,
        ),
        "adversarial" => {
            adversarial_ball_queries(queries, DIM, CLUSTERS, SPREAD, 0, db_seed, 300 + seed)
        }
        other => unreachable!("unknown stream {other}"),
    }
}

/// Scales a grid size, flooring so tiny `--scale` values stay runnable.
fn scaled(base: usize, scale: f64, floor: usize) -> usize {
    ((base as f64 * scale) as usize).max(floor)
}

/// Brute-force ground truth for recall computations.
fn ground_truth(database: &VectorSet, stream: &VectorSet, k: usize) -> Vec<Vec<Neighbor>> {
    let bf = BruteForce::with_config(BfConfig::default());
    let (truth, _) = bf.knn(stream, database, &Euclidean, k);
    truth
}

fn empty_file(area: &str, opts_scale: f64, seed: u64) -> TrajectoryFile {
    TrajectoryFile {
        schema_version: SCHEMA_VERSION,
        area: area.to_string(),
        generated_by: format!("rbc-bench trajectory v{SCHEMA_VERSION}"),
        scale: opts_scale,
        seed,
        cells: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// core area: engines x streams x scale x k
// ---------------------------------------------------------------------

/// Runs all three engines over one `(database, stream, k)` cell and
/// pushes one trajectory cell per engine.
#[allow(clippy::too_many_arguments)]
fn core_engine_cells(
    file: &mut TrajectoryFile,
    database: &VectorSet,
    exact: &ExactRbc<&VectorSet, Euclidean>,
    one_shot: &OneShotRbc<&VectorSet, Euclidean>,
    stream_name: &str,
    stream: &VectorSet,
    k: usize,
) {
    let n = database.len();
    let queries = stream.len();
    let truth = ground_truth(database, stream, k);

    for engine in ["brute", "exact", "oneshot"] {
        let start = Instant::now();
        let (answers, evals, stats): (Vec<Vec<Neighbor>>, u64, Option<SearchStats>) = match engine {
            "brute" => {
                let bf = BruteForce::with_config(BfConfig::default());
                let (a, s) = bf.knn(stream, database, &Euclidean, k);
                (a, s.distance_evals, None)
            }
            "exact" => {
                let (a, s) = exact.query_batch_k(stream, k);
                (a, s.total_distance_evals(), Some(s))
            }
            "oneshot" => {
                let (a, s) = one_shot.query_batch_k(stream, k);
                (a, s.total_distance_evals(), Some(s))
            }
            other => unreachable!("unknown engine {other}"),
        };
        let elapsed = start.elapsed();
        let metrics = CellMetrics {
            recall: recall_at_k(&answers, &truth),
            evals_per_query: evals as f64 / queries as f64,
            tile_passes_per_query: stats
                .as_ref()
                .map_or(0.0, |s| s.list_tile_passes as f64 / queries as f64),
            tile_sharing_factor: stats.as_ref().map_or(0.0, SearchStats::tile_sharing_factor),
            throughput_qps: queries as f64 / elapsed.as_secs_f64().max(1e-9),
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            mean_batch_size: queries as f64,
            ..CellMetrics::default()
        };
        file.cells.push(Cell {
            id: format!("core/n{n}/k{k}/{engine}/{stream_name}"),
            engine: engine.to_string(),
            stream: stream_name.to_string(),
            n,
            dim: DIM,
            queries,
            k,
            batch: 0,
            nodes: 0,
            replication: 0,
            failed_nodes: 0,
            variant: String::new(),
            metrics,
        });
    }
}

fn run_core(scale: f64, seed: u64) -> TrajectoryFile {
    let mut file = empty_file("core", scale, seed);
    let queries = scaled(192, scale, 48);

    for base_n in [2048usize, 6144] {
        let n = scaled(base_n, scale, 512);
        let database = gaussian_mixture(n, DIM, CLUSTERS, SPREAD, 7 + seed);
        let params = RbcParams::standard(n, 42 + seed);
        let exact = ExactRbc::build(&database, Euclidean, params.clone(), RbcConfig::default());
        let one_shot = OneShotRbc::build(&database, Euclidean, params, RbcConfig::default());

        for stream_name in STREAMS {
            let stream = make_stream(stream_name, queries, seed);
            // The k sweep runs on the smaller database only; the larger
            // one pins k = 10 so the grid stays diff-reviewable.
            let ks: &[usize] = if base_n == 2048 { &[1, 10] } else { &[10] };
            for &k in ks {
                core_engine_cells(
                    &mut file,
                    &database,
                    &exact,
                    &one_shot,
                    stream_name,
                    &stream,
                    k,
                );
            }
        }
    }

    // Million-point cell: three orders of magnitude above the base grid
    // on the matched stream only, k = 10 — the scale where the blocked
    // SIMD layout and the √n-list pruning earn their keep. A short query
    // stream keeps the brute-force ground truth (and hence the cell)
    // affordable at full `--scale 1`.
    let big_n = scaled(1_000_000, scale, 4096);
    let big_queries = scaled(32, scale, 8);
    let database = gaussian_mixture(big_n, DIM, CLUSTERS, SPREAD, 7 + seed);
    let params = RbcParams::standard(big_n, 42 + seed);
    let exact = ExactRbc::build(&database, Euclidean, params.clone(), RbcConfig::default());
    let one_shot = OneShotRbc::build(&database, Euclidean, params, RbcConfig::default());
    let stream = make_stream("matched", big_queries, seed);
    core_engine_cells(
        &mut file, &database, &exact, &one_shot, "matched", &stream, 10,
    );

    file
}

// ---------------------------------------------------------------------
// batch area: micro-batch size x streams
// ---------------------------------------------------------------------

fn run_batch(scale: f64, seed: u64) -> TrajectoryFile {
    let mut file = empty_file("batch", scale, seed);
    let n = scaled(4096, scale, 512);
    let queries = scaled(256, scale, 64);
    let k = 10usize;

    let database = gaussian_mixture(n, DIM, CLUSTERS, SPREAD, 7 + seed);
    let exact = ExactRbc::build(
        &database,
        Euclidean,
        RbcParams::standard(n, 42 + seed),
        RbcConfig::default(),
    );

    for stream_name in ["matched", "skewed", "adversarial"] {
        let stream = make_stream(stream_name, queries, seed);
        let truth = ground_truth(&database, &stream, k);
        for batch in [16usize, 128] {
            let batch = batch.min(queries);
            let start = Instant::now();
            let mut answers = Vec::with_capacity(queries);
            let mut stats = SearchStats::default();
            let mut begin = 0usize;
            while begin < queries {
                let end = (begin + batch).min(queries);
                let indices: Vec<usize> = (begin..end).collect();
                let chunk = stream.subset(&indices);
                let (chunk_answers, chunk_stats) = exact.query_batch_k(&chunk, k);
                answers.extend(chunk_answers);
                stats.merge(&chunk_stats);
                begin = end;
            }
            let elapsed = start.elapsed();
            let metrics = CellMetrics {
                recall: recall_at_k(&answers, &truth),
                evals_per_query: stats.total_distance_evals() as f64 / queries as f64,
                tile_passes_per_query: stats.list_tile_passes as f64 / queries as f64,
                tile_sharing_factor: stats.tile_sharing_factor(),
                throughput_qps: queries as f64 / elapsed.as_secs_f64().max(1e-9),
                elapsed_ms: elapsed.as_secs_f64() * 1e3,
                mean_batch_size: batch as f64,
                ..CellMetrics::default()
            };
            file.cells.push(Cell {
                id: format!("batch/list-major/b{batch}/{stream_name}"),
                engine: "exact-list-major".to_string(),
                stream: stream_name.to_string(),
                n,
                dim: DIM,
                queries,
                k,
                batch,
                nodes: 0,
                replication: 0,
                failed_nodes: 0,
                variant: String::new(),
                metrics,
            });
        }
    }
    file
}

// ---------------------------------------------------------------------
// shard area: nodes x placement x failure on the hostile streams
// ---------------------------------------------------------------------

/// Replays `stream` through `index` in `batch`-sized chunks, merging the
/// per-chunk distributed stats (same protocol as `shard_bench`).
fn replay_sharded<D: Dataset<Item = [f32]>>(
    index: &DistributedRbc<D, Euclidean>,
    stream: &VectorSet,
    batch: usize,
    k: usize,
) -> (Vec<Vec<Neighbor>>, DistributedQueryStats, Duration) {
    let start = Instant::now();
    let mut stats = DistributedQueryStats::default();
    let mut answers = Vec::with_capacity(stream.len());
    let mut begin = 0usize;
    while begin < stream.len() {
        let end = (begin + batch).min(stream.len());
        let indices: Vec<usize> = (begin..end).collect();
        let chunk = stream.subset(&indices);
        let (chunk_answers, chunk_stats) = index.query_batch_exact(&chunk, k);
        stats.merge(&chunk_stats);
        answers.extend(chunk_answers);
        begin = end;
    }
    (answers, stats, start.elapsed())
}

fn run_shard(scale: f64, seed: u64) -> TrajectoryFile {
    let mut file = empty_file("shard", scale, seed);
    let n = scaled(6144, scale, 512);
    let queries = scaled(192, scale, 48);
    let (k, batch) = (5usize, 64usize);

    let database = gaussian_mixture(n, DIM, CLUSTERS, SPREAD, 7 + seed);
    let exact = ExactRbc::build(
        &database,
        Euclidean,
        RbcParams::standard(n, 42 + seed),
        RbcConfig::default(),
    );

    // (id suffix, nodes, replication, fail one node?, stream)
    let grid: Vec<(usize, usize, bool, &str)> = vec![
        (4, 1, false, "skewed"),
        (4, 2, false, "skewed"),
        (8, 1, false, "skewed"),
        (8, 2, false, "skewed"),
        (8, 2, true, "skewed"),
        (8, 1, false, "drifting"),
        (8, 1, false, "adversarial"),
    ];

    for (nodes, replication, fail, stream_name) in grid {
        let stream = make_stream(stream_name, queries, seed);
        let truth = ground_truth(&database, &stream, k);
        let policy = if replication > 1 {
            PlacementPolicy::Replicated {
                factor: replication,
            }
        } else {
            PlacementPolicy::SingleOwner
        };
        let index = DistributedRbc::from_exact_with_policy(
            exact.clone(),
            ClusterConfig::with_nodes(nodes),
            policy,
            database.dim(),
        );
        let failed_nodes = usize::from(fail);
        if fail {
            index.fail_node(0);
        }
        let (answers, stats, elapsed) = replay_sharded(&index, &stream, batch, k);
        let metrics = CellMetrics {
            recall: recall_at_k(&answers, &truth),
            evals_per_query: stats.total_evals() as f64 / queries as f64,
            bytes_per_query: stats.comm.total_bytes() as f64 / queries as f64,
            eval_skew: eval_skew(&stats.per_node),
            degraded_queries: stats.degraded_queries(),
            throughput_qps: queries as f64 / elapsed.as_secs_f64().max(1e-9),
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            mean_batch_size: batch.min(queries) as f64,
            ..CellMetrics::default()
        };
        let down = if fail { "-down" } else { "" };
        file.cells.push(Cell {
            id: format!("shard/nodes{nodes}/r{replication}{down}/{stream_name}"),
            engine: "distributed".to_string(),
            stream: stream_name.to_string(),
            n,
            dim: DIM,
            queries,
            k,
            batch,
            nodes,
            replication,
            failed_nodes,
            variant: String::new(),
            metrics,
        });
    }
    file
}

// ---------------------------------------------------------------------
// serve area: dispatch policy x streams under concurrent producers
// ---------------------------------------------------------------------

fn run_serve(scale: f64, seed: u64) -> TrajectoryFile {
    let mut file = empty_file("serve", scale, seed);
    let n = scaled(4096, scale, 512);
    let pool = scaled(192, scale, 48);
    let requests_per_producer = scaled(250, scale, 50);
    let (k, producers, depth) = (10usize, 4usize, 16usize);

    let database = gaussian_mixture(n, DIM, CLUSTERS, SPREAD, 7 + seed);
    let params = RbcParams::standard(n, 42 + seed);
    let index = Arc::new(ExactRbc::build(
        database.clone(),
        Euclidean,
        params,
        RbcConfig::default(),
    ));

    // Drives the producer pool against `engine` and returns each reply
    // with its query index, so recall is measurable afterwards.
    let drive = |engine: &Engine<Arc<ExactRbc<VectorSet, Euclidean>>, Vec<f32>>,
                 stream: &VectorSet| {
        let mut answers: Vec<(usize, Vec<Neighbor>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..producers)
                .map(|p| {
                    let handle = engine.handle();
                    scope.spawn(move || {
                        let mut in_flight = std::collections::VecDeque::new();
                        let mut got = Vec::with_capacity(requests_per_producer);
                        for i in 0..requests_per_producer {
                            let qi = (p + i * producers) % stream.len();
                            let ticket =
                                handle.submit(stream.point(qi).to_vec(), k).expect("submit");
                            in_flight.push_back((qi, ticket));
                            if in_flight.len() >= depth {
                                let (done_qi, ticket) = in_flight.pop_front().unwrap();
                                got.push((done_qi, ticket.wait().expect("served").neighbors));
                            }
                        }
                        for (qi, ticket) in in_flight {
                            got.push((qi, ticket.wait().expect("served").neighbors));
                        }
                        got
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("producer panicked"))
                .collect()
        });
        answers.sort_by_key(|(qi, _)| *qi);
        answers
    };

    for stream_name in ["matched", "adversarial"] {
        let stream = make_stream(stream_name, pool, seed);
        let truth = ground_truth(&database, &stream, k);
        for max_batch in [1, 32] {
            let id = format!("serve/b{max_batch}/{stream_name}");
            let policy = ServeConfig::default()
                .with_max_batch(max_batch)
                .with_linger(Duration::from_micros(500));
            let engine = Engine::start(Arc::clone(&index), policy).expect("valid serve policy");
            let start = Instant::now();
            let answers = drive(&engine, &stream);
            let elapsed = start.elapsed();
            let snapshot = engine.shutdown();

            // Recall over every individual reply against its query's truth.
            let per_reply_truth: Vec<Vec<Neighbor>> =
                answers.iter().map(|(qi, _)| truth[*qi].clone()).collect();
            let replies: Vec<Vec<Neighbor>> = answers.into_iter().map(|(_, nbrs)| nbrs).collect();

            let metrics = CellMetrics {
                recall: recall_at_k(&replies, &per_reply_truth),
                evals_per_query: snapshot.distance_evals as f64 / snapshot.completed.max(1) as f64,
                degraded_queries: snapshot.degraded_queries,
                throughput_qps: snapshot.throughput_qps,
                latency_p50_us: snapshot.latency_p50_us,
                latency_p99_us: snapshot.latency_p99_us,
                latency_p999_us: snapshot.latency_p999_us,
                elapsed_ms: elapsed.as_secs_f64() * 1e3,
                mean_batch_size: snapshot.mean_batch_size,
                ..CellMetrics::default()
            };
            file.cells.push(Cell {
                id,
                engine: "serve".to_string(),
                stream: stream_name.to_string(),
                n,
                dim: DIM,
                queries: producers * requests_per_producer,
                k,
                batch: max_batch,
                nodes: 0,
                replication: 0,
                failed_nodes: 0,
                variant: String::new(),
                metrics,
            });
        }
    }
    file
}

// ---------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------

fn run_area(area: &str, scale: f64, seed: u64) -> TrajectoryFile {
    match area {
        "core" => run_core(scale, seed),
        "batch" => run_batch(scale, seed),
        "shard" => run_shard(scale, seed),
        "serve" => run_serve(scale, seed),
        other => unreachable!("unknown area {other}"),
    }
}

/// Prints a compact summary table of one area's cells.
fn print_summary(file: &TrajectoryFile) {
    let mut table = Table::new(
        format!("trajectory: {} ({} cells)", file.area, file.cells.len()),
        &["cell", "recall", "evals/q", "B/q", "skew", "qps", "ms"],
    );
    for cell in &file.cells {
        let m = &cell.metrics;
        table.row(&[
            cell.id.clone(),
            format!("{:.3}", m.recall),
            format!("{:.0}", m.evals_per_query),
            format!("{:.0}", m.bytes_per_query),
            format!("{:.2}", m.eval_skew),
            format!("{:.0}", m.throughput_qps),
            format!("{:.1}", m.elapsed_ms),
        ]);
    }
    table.print();
    println!();
}

/// The `--perturb` mode: read each baseline under `--out`, write a
/// deliberately failing copy into `dir`.
fn perturb_mode(opts: &Options, dir: &Path) -> i32 {
    let mut wrote = 0usize;
    for area in &opts.areas {
        match read_bench_file::<TrajectoryFile>(&opts.out, area) {
            Ok(baseline) => {
                let bad = perturbed(&baseline);
                match write_bench_file(dir, area, &bad) {
                    Ok(path) => {
                        println!("wrote perturbed baseline {}", path.display());
                        wrote += 1;
                    }
                    Err(error) => {
                        eprintln!("could not write perturbed {area} baseline: {error}");
                        return 1;
                    }
                }
            }
            Err(error) => {
                eprintln!(
                    "could not read {area} baseline from {}: {error}",
                    opts.out.display()
                );
                return 1;
            }
        }
    }
    println!("{wrote} perturbed baselines ready; `trajectory --check` against them must fail.");
    0
}

/// The `--check` mode: re-run each area at its baseline's recorded
/// config, write the fresh files under `--out`, and gate.
fn check_mode(opts: &Options, baseline_dir: &Path) -> i32 {
    let mut all_failures: Vec<(String, Vec<CheckFailure>)> = Vec::new();
    for area in &opts.areas {
        let baseline: TrajectoryFile = match read_bench_file(baseline_dir, area) {
            Ok(b) => b,
            Err(error) => {
                eprintln!(
                    "could not read {area} baseline from {}: {error}",
                    baseline_dir.display()
                );
                return 1;
            }
        };
        println!(
            "checking {area}: re-running at recorded scale {} seed {} ...",
            baseline.scale, baseline.seed
        );
        let fresh = run_area(area, baseline.scale, baseline.seed);
        match write_bench_file(&opts.out, area, &fresh) {
            Ok(path) => println!("wrote fresh {}", path.display()),
            Err(error) => eprintln!("could not write fresh {area} results: {error}"),
        }
        let failures = compare_files(&baseline, &fresh, &opts.tolerances);
        if failures.is_empty() {
            println!(
                "{area}: PASS ({} cells within tolerance)\n",
                fresh.cells.len()
            );
        } else {
            println!("{area}: FAIL ({} violations)", failures.len());
            failure_table(area, &failures).print();
            println!();
            all_failures.push((area.clone(), failures));
        }
    }
    if all_failures.is_empty() {
        println!("regression gate: every area PASSED.");
        0
    } else {
        let areas: Vec<&str> = all_failures.iter().map(|(a, _)| a.as_str()).collect();
        println!("regression gate: FAILED in {}.", areas.join(", "));
        1
    }
}

fn main() {
    let opts = parse_options();

    if let Some(dir) = opts.perturb.clone() {
        std::process::exit(perturb_mode(&opts, &dir));
    }
    if let Some(dir) = opts.check.clone() {
        std::process::exit(check_mode(&opts, &dir));
    }

    println!(
        "trajectory: scale {}, seed {}, areas [{}], out {}\n",
        opts.scale,
        opts.seed,
        opts.areas.join(", "),
        opts.out.display()
    );
    for area in &opts.areas {
        if opts.trace {
            rbc_bench::enable_tracing();
        }
        let file = run_area(area, opts.scale, opts.seed);
        print_summary(&file);
        if opts.trace {
            rbc_bench::print_stage_breakdown(&format!("trajectory: {area} stage breakdown"));
            println!();
        }
        match write_bench_file(&opts.out, area, &file) {
            Ok(path) => println!("wrote {}\n", path.display()),
            Err(error) => eprintln!("could not write {area} results: {error}\n"),
        }
    }
}
