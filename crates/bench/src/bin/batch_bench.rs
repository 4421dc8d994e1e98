//! `batch_bench` — what batching buys the exact search.
//!
//! Not a paper artifact: the paper's tables batch queries but never ask
//! what a batch shares. This binary runs the same clustered query stream
//! through one built exact RBC in batches of {1, 16, 256} — the one search
//! path, a single query being a batch of one — and for each size reports
//! distance evaluations (arithmetic work — a query meets its nearest list
//! first, so it barely moves with the batch), **list-tile passes** (memory
//! traffic — what shared list scans reduce), the achieved tile-sharing
//! factor, and wall-clock. It asserts that every size returns identical
//! answers and that batches of 256 stream no more list tiles than single
//! queries do. The database tile is 64 points, so tile passes are counted
//! at ownership-list granularity. The grid is written as JSON under
//! `results/batch_bench.json`.
//!
//! One extra mode rides on the same workload generator:
//!
//! * `--simd-check` runs the dense brute-force kernel and the batched
//!   exact and one-shot searches (the exact one screens `f32` lanes, the
//!   one-shot one `u8` codes) under the forced-scalar kernel, SSE2 and
//!   whatever SIMD kernel the host detects — each kernel building its own
//!   indexes — asserts the lists and answers are **bit-identical**, the
//!   one-shot lists those the canonical `BruteForce::knn` heap selects, and
//!   the builds' and searches' `distance_evals` equal, and the exact
//!   search's answers and one-thread `distance_evals` those of an exact
//!   index over `PerPoint(Euclidean)`, which has no lanes and no screen; it
//!   reports each kernel's one-shot build time, its exact search's
//!   `list_reranked_groups` per query, and the speedup; `--assert-speedup X`
//!   turns the dense-kernel
//!   ratio into a hard assertion (skipped with a notice when the host has
//!   no SIMD kernel).
//!
//! Usage: `batch_bench [--n N] [--queries N] [--clusters N] [--dim N]
//! [--k N] [--seed N] [--simd-check [--assert-speedup X]]`

use std::time::Instant;

use serde::Serialize;

use rbc_bench::{write_json_records, Table};
use rbc_bruteforce::{BfConfig, BruteForce};
use rbc_core::{ExactRbc, OneShotRbc, OwnershipList, RbcConfig, RbcParams, SearchStats};
use rbc_data::gaussian_mixture;
use rbc_metric::{
    active_kernel, force_kernel, Dataset, Euclidean, KernelChoice, PerPoint, VectorSet,
};

/// Command-line configuration of the batch-size sweep.
struct Options {
    /// Database size.
    n: usize,
    /// Length of the clustered query stream.
    queries: usize,
    /// Clusters in the Gaussian-mixture workload (more clusters =
    /// less co-travel for a batch's shared list scans to exploit).
    clusters: usize,
    /// Ambient dimension.
    dim: usize,
    /// Neighbors requested per query.
    k: usize,
    /// Base RNG seed for the database, stream, and representatives.
    seed: u64,
    /// Run the SIMD-vs-scalar identity + speedup check instead.
    simd_check: bool,
    /// Minimum dense-kernel speedup `--simd-check` must observe (when the
    /// host has a SIMD kernel at all).
    assert_speedup: Option<f64>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            n: 20_000,
            queries: 256,
            clusters: 24,
            dim: 12,
            k: 1,
            seed: 0,
            simd_check: false,
            assert_speedup: None,
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
            "--queries" => opts.queries = need(&mut args, "--queries").max(1),
            "--clusters" => opts.clusters = need(&mut args, "--clusters").max(1),
            "--dim" => opts.dim = need(&mut args, "--dim").max(1),
            "--k" => opts.k = need(&mut args, "--k").max(1),
            "--seed" => opts.seed = need(&mut args, "--seed") as u64,
            "--simd-check" => opts.simd_check = true,
            "--assert-speedup" => {
                let value: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--assert-speedup needs a number"));
                opts.assert_speedup = Some(value);
            }
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
        "usage: batch_bench [--n N] [--queries N] [--clusters N] [--dim N] [--k N] [--seed N] \
         [--simd-check [--assert-speedup X]]"
    );
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}

/// One batch size of the sweep, flattened for JSON.
#[derive(Serialize)]
struct Record {
    batch_size: usize,
    queries: usize,
    k: usize,
    total_distance_evals: u64,
    list_tile_passes: u64,
    list_scans: u64,
    reps_examined: u64,
    tile_sharing_factor: f64,
    elapsed_ms: f64,
}

/// Runs the whole query stream through `rbc` in `batch_size` chunks,
/// merging per-chunk stats.
fn run_sweep<D: Dataset<Item = [f32]>>(
    rbc: &ExactRbc<D, Euclidean>,
    queries: &VectorSet,
    batch_size: usize,
    k: usize,
) -> (Vec<Vec<rbc_bruteforce::Neighbor>>, SearchStats, f64) {
    let start = Instant::now();
    let mut stats = SearchStats::default();
    let mut answers = Vec::with_capacity(queries.len());
    let mut begin = 0usize;
    while begin < queries.len() {
        let end = (begin + batch_size).min(queries.len());
        let indices: Vec<usize> = (begin..end).collect();
        let chunk = queries.subset(&indices);
        let (chunk_answers, chunk_stats) = rbc.query_batch_k(&chunk, k);
        stats.merge(&chunk_stats);
        answers.extend(chunk_answers);
        begin = end;
    }
    (answers, stats, start.elapsed().as_secs_f64() * 1e3)
}

/// Generates the clustered workload shared by every mode.
fn workload(opts: &Options) -> (VectorSet, VectorSet) {
    let database = gaussian_mixture(opts.n, opts.dim, opts.clusters, 0.03, 7 + opts.seed);
    let queries = gaussian_mixture(opts.queries, opts.dim, opts.clusters, 0.03, 8 + opts.seed);
    (database, queries)
}

/// `--simd-check`: runs the dense brute-force kernel, the batched exact
/// search and the batched one-shot search under every kernel the host
/// supports (forced scalar, SSE2, and the detected one), each over indexes
/// built under that kernel; asserts bit-identical lists and answers, one-shot
/// lists equal to the canonical heap's, equal build and search evaluation
/// counts, and exact answers and evaluations equal to a lane-free index's,
/// and reports build times, screened groups and speedups.
fn run_simd_check(opts: &Options) {
    let (database, queries) = workload(opts);
    force_kernel(None);
    let detected = active_kernel();
    // SSE2 is nobody's detected kernel on a host with AVX2, and its screen
    // rounds differently from the FMA one: it gets full searches of its own.
    force_kernel(Some(KernelChoice::Sse2));
    let mut kernels = vec![KernelChoice::Scalar];
    for kernel in [active_kernel(), detected] {
        if !kernels.contains(&kernel) {
            kernels.push(kernel);
        }
    }
    force_kernel(None);
    println!(
        "simd-check: n = {}, {} queries, dim {}, k = {}; detected kernel: {}\n",
        opts.n,
        opts.queries,
        opts.dim,
        opts.k,
        detected.name()
    );

    let config = BfConfig::default();
    let bf = BruteForce::with_config(config);
    // Each kernel builds its own indexes: the exact build's `BF(X, R)` and
    // the one-shot build's `BF(R, X)` screen lane groups, and the screen's
    // masks differ between kernels, so that the lists do not is checked,
    // not assumed.
    let params = RbcParams::standard(opts.n, 42 + opts.seed);
    let rbc_config = RbcConfig {
        bf: config,
        ..RbcConfig::default()
    };
    let build = || {
        let exact = ExactRbc::build(&database, Euclidean, params.clone(), rbc_config);
        let start = Instant::now();
        let one_shot = OneShotRbc::build(&database, Euclidean, params.clone(), rbc_config);
        let one_shot_ms = start.elapsed().as_secs_f64() * 1e3;
        // The one-shot arm is the code screen's: every list it scans is coded.
        let coded = one_shot.list_blocks().is_some_and(|mirrors| {
            let mut mirrors = mirrors.iter().flatten();
            mirrors.all(|mirror| mirror.codes().is_some())
        });
        assert!(coded, "the one-shot lists must be screened from codes");
        (exact, one_shot, one_shot_ms)
    };
    /// Every list's representative, members and distance bits, in order.
    fn list_bits(lists: &[OwnershipList]) -> Vec<(usize, Vec<usize>, Vec<u64>)> {
        let bits = |list: &OwnershipList| list.member_dists.iter().map(|d| d.to_bits()).collect();
        let lists = lists.iter();
        lists
            .map(|list| (list.rep_index, list.members.clone(), bits(list)))
            .collect()
    }
    // The one-shot lists as the canonical heap selects them: `knn(R, X, s)`,
    // which screens nothing, for the representatives every build draws.
    let heap_lists = {
        let reps = rbc_core::sample_representatives(opts.n, params.n_reps, params.seed);
        let s = params.list_size.min(opts.n);
        let (nearest, _) = bf.knn(&database.subset(&reps), &database, &Euclidean, s);
        let lists = reps.iter().zip(nearest).map(|(&rep, nearest)| {
            let dists = nearest.iter().map(|nb| nb.dist).collect();
            OwnershipList::from_sorted(rep, nearest.iter().map(|nb| nb.index).collect(), dists)
        });
        list_bits(&lists.collect::<Vec<_>>())
    };

    /// Best of three: the answers and the fastest run's milliseconds.
    fn timed<A>(mut run: impl FnMut() -> A) -> (A, f64) {
        let mut best: Option<(A, f64)> = None;
        for _ in 0..3 {
            let start = Instant::now();
            let answers = run();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if best.as_ref().is_none_or(|(_, fastest)| ms < *fastest) {
                best = Some((answers, ms));
            }
        }
        best.expect("three runs were made")
    }
    // Evaluation counts of a parallel list-major search depend on which
    // group tightened a threshold first; on one thread they are a function
    // of the data alone, so any difference is the kernel's.
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the shim's builder cannot fail");
    // The lane-free reference: over `PerPoint` the exact index scans rows,
    // screens nothing, and computes no distance any kernel touches, so one
    // build serves every kernel. The screen decides what is skipped, never
    // the work: every kernel's lane build must match its answers and its
    // evaluations.
    let (per_point_answers, per_point_stats) = {
        let per_point = ExactRbc::build(&database, PerPoint(Euclidean), params.clone(), rbc_config);
        one_thread.install(|| per_point.query_batch_k(&queries, opts.k))
    };
    let per_query = |groups: u64| groups as f64 / queries.len() as f64;

    let workloads = [
        "dense BF(Q, DB)",
        "batched exact RBC",
        "batched one-shot RBC (codes)",
    ];
    let mut runs = Vec::with_capacity(kernels.len());
    let mut scalar_build = None;
    let mut build_ms = Vec::with_capacity(kernels.len());
    let mut reranked_per_query = Vec::with_capacity(kernels.len());
    for &kernel in &kernels {
        force_kernel(Some(kernel));
        let (exact, one_shot, one_shot_ms) = build();
        build_ms.push(one_shot_ms);
        let lists = [list_bits(exact.lists()), list_bits(one_shot.lists())];
        assert!(
            lists[1] == heap_lists,
            "one-shot lists built under {} differ from the canonical heap's",
            kernel.name()
        );
        let build_evals = [
            exact.build_distance_evals(),
            one_shot.build_distance_evals(),
        ];
        match &scalar_build {
            None => scalar_build = Some((lists, build_evals)),
            Some((want_lists, want_evals)) => {
                assert!(
                    &lists == want_lists,
                    "(exact, one-shot) lists built under {} differ from the scalar build's",
                    kernel.name()
                );
                assert_eq!(
                    &build_evals,
                    want_evals,
                    "build distance_evals (exact, one-shot) differ between scalar and {} kernels",
                    kernel.name()
                );
            }
        }
        let (dense, dense_ms) = timed(|| bf.knn(&queries, &database, &Euclidean, opts.k).0);
        let (exact_answers, exact_ms) = timed(|| exact.query_batch_k(&queries, opts.k).0);
        let (one_shot_answers, one_shot_ms) = timed(|| one_shot.query_batch_k(&queries, opts.k).0);
        let (evals, reranked) = one_thread.install(|| {
            let (lane_answers, exact_stats) = exact.query_batch_k(&queries, opts.k);
            let (_, one_shot_stats) = one_shot.query_batch_k(&queries, opts.k);
            assert!(
                lane_answers == per_point_answers
                    && exact_stats.total_distance_evals() == per_point_stats.total_distance_evals(),
                "exact answers or one-thread distance_evals under {} differ from the lane-free \
                 index's",
                kernel.name()
            );
            let evals = [
                exact_stats.total_distance_evals(),
                one_shot_stats.total_distance_evals(),
            ];
            (evals, exact_stats.list_reranked_groups)
        });
        reranked_per_query.push(per_query(reranked));
        runs.push((
            [dense, exact_answers, one_shot_answers],
            evals,
            [dense_ms, exact_ms, one_shot_ms],
        ));
    }
    force_kernel(None);

    let (scalar_answers, scalar_evals, scalar_ms) = &runs[0];
    for (kernel, (answers, evals, _)) in kernels.iter().zip(&runs).skip(1) {
        for (workload, (got, want)) in workloads.iter().zip(answers.iter().zip(scalar_answers)) {
            assert_eq!(
                got,
                want,
                "{workload} answers differ between scalar and {} kernels",
                kernel.name()
            );
        }
        assert_eq!(
            evals,
            scalar_evals,
            "distance_evals (exact, one-shot) differ between scalar and {} kernels",
            kernel.name()
        );
    }

    let mut header = vec!["workload".to_string()];
    header.extend(kernels.iter().map(|kernel| format!("{} ms", kernel.name())));
    header.push("speedup".to_string());
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "every supported kernel (bit-identical lists and answers, equal distance_evals asserted)",
        &header,
    );
    let detected_at = kernels.iter().position(|&kernel| kernel == detected);
    let detected_at = detected_at.expect("the detected kernel was run");
    let (_, _, detected_ms) = &runs[detected_at];
    let mut row = vec!["one-shot build (once)".to_string()];
    row.extend(build_ms.iter().map(|ms| format!("{ms:.2}")));
    row.push(format!("{:.2}x", build_ms[0] / build_ms[detected_at]));
    table.row(&row);
    for (w, workload) in workloads.iter().enumerate() {
        let mut row = vec![workload.to_string()];
        row.extend(runs.iter().map(|(_, _, ms)| format!("{:.2}", ms[w])));
        row.push(format!("{:.2}x", scalar_ms[w] / detected_ms[w]));
        table.row(&row);
    }
    table.print();
    println!(
        "\nlists and answers bit-identical, one-shot lists the canonical heap's, and build and \
         search distance_evals equal across {} kernels; exact answers and distance_evals those \
         of the lane-free index.",
        kernels.len()
    );
    // Reported, never asserted: which lane groups a screen keeps depends on
    // the kernel's rounding and on the threshold each screen was called at.
    let screened = kernels.iter().zip(&reranked_per_query);
    let screened: Vec<String> = screened
        .map(|(kernel, groups)| format!("{} {groups:.1}", kernel.name()))
        .collect();
    println!(
        "exact list_reranked_groups per query (one thread): {}; lane-free {:.1}",
        screened.join(", "),
        per_query(per_point_stats.list_reranked_groups)
    );

    let dense_speedup = scalar_ms[0] / detected_ms[0];
    if detected == KernelChoice::Scalar {
        println!(
            "host has no SIMD kernel (or RBC_FORCE_SCALAR is set); speedup assertion skipped."
        );
    } else if let Some(min) = opts.assert_speedup {
        assert!(
            dense_speedup >= min,
            "dense SIMD speedup {dense_speedup:.2}x below the required {min:.2}x"
        );
        println!("dense speedup {dense_speedup:.2}x meets the required {min:.2}x.");
    }
}

fn main() {
    let opts = parse_options();
    if opts.simd_check {
        run_simd_check(&opts);
        return;
    }
    println!(
        "batch_bench: n = {}, {} clustered queries ({} clusters, dim {}), k = {}\n",
        opts.n, opts.queries, opts.clusters, opts.dim, opts.k
    );

    println!("generating clustered workload and building the exact RBC ...");
    let (database, queries) = workload(&opts);
    // Shrink the database tile so tile-pass counts are meaningful at
    // ownership-list granularity (lists are ~√n points long).
    let config = RbcConfig {
        bf: BfConfig {
            db_tile: 64,
            ..BfConfig::default()
        },
        ..RbcConfig::default()
    };
    let rbc = ExactRbc::build(
        &database,
        Euclidean,
        RbcParams::standard(opts.n, 42 + opts.seed),
        config,
    );

    let mut records = Vec::new();
    let mut table = Table::new(
        "offline batched exact search by batch size",
        &["batch", "evals/q", "tile passes", "scans", "share", "ms"],
    );
    let mut single: Option<(Vec<Vec<rbc_bruteforce::Neighbor>>, u64)> = None;
    for batch_size in [1usize, 16, 256] {
        let (answers, stats, elapsed_ms) = run_sweep(&rbc, &queries, batch_size, opts.k);
        match &single {
            None => single = Some((answers, stats.list_tile_passes)),
            Some((expected, single_passes)) => {
                assert_eq!(
                    expected, &answers,
                    "batches of {batch_size} disagreed with single queries"
                );
                let passes = stats.list_tile_passes;
                assert!(
                    batch_size < 256 || passes <= *single_passes,
                    "batches of {batch_size} streamed more list tiles than single queries \
                     ({passes} vs {single_passes})"
                );
            }
        }
        table.row(&[
            batch_size.to_string(),
            format!("{:.0}", stats.evals_per_query()),
            stats.list_tile_passes.to_string(),
            stats.list_scans.to_string(),
            format!("{:.2}", stats.tile_sharing_factor()),
            format!("{elapsed_ms:.1}"),
        ]);
        records.push(Record {
            batch_size,
            queries: opts.queries,
            k: opts.k,
            total_distance_evals: stats.total_distance_evals(),
            list_tile_passes: stats.list_tile_passes,
            list_scans: stats.list_scans,
            reps_examined: stats.reps_examined,
            tile_sharing_factor: stats.tile_sharing_factor(),
            elapsed_ms,
        });
    }

    println!();
    table.print();
    println!("\nanswers identical at every batch size.");

    match write_json_records("batch_bench", &records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(error) => eprintln!("could not write JSON records: {error}"),
    }
}
