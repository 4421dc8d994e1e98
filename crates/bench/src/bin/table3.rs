//! Table 3 — Cover Tree vs. exact RBC on a quad-core desktop.
//!
//! The paper compares the single-core Cover Tree implementation against
//! the exact RBC running on all four cores of a desktop machine, reporting
//! the total query time in seconds for 10k queries per dataset. This
//! binary reproduces that protocol: the Cover Tree answers queries
//! sequentially inside a single-thread pool, the RBC answers the same
//! queries inside a 4-thread pool, and both times (plus the
//! machine-independent distance-evaluation counts) are reported.

use std::time::{Duration, Instant};

use serde::Serialize;

use rbc_baselines::CoverTree;
use rbc_bench::{exact_rbc_batch, BenchOptions, PreparedWorkload, Table};
use rbc_core::{RbcConfig, RbcParams};
use rbc_metric::Euclidean;

/// Runs `op` inside `pool` and returns its result with its wall-clock time.
fn timed<R: Send>(pool: &rayon::ThreadPool, op: impl FnOnce() -> R + Send) -> (R, Duration) {
    pool.install(|| {
        let start = Instant::now();
        let result = op();
        (result, start.elapsed())
    })
}

#[derive(Serialize)]
struct Record {
    dataset: String,
    n: usize,
    dim: usize,
    queries: usize,
    cover_tree_seconds: f64,
    rbc_seconds: f64,
    cover_tree_evals_per_query: f64,
    rbc_evals_per_query: f64,
    cover_tree_build_seconds: f64,
    rbc_build_seconds: f64,
}

fn main() {
    let opts = BenchOptions::from_env();
    let pool = |threads| {
        let builder = rayon::ThreadPoolBuilder::new().num_threads(threads);
        builder.build().expect("the shim's builder cannot fail")
    };
    let (single, quad) = (pool(1), pool(4));
    println!(
        "Table 3 reproduction: Cover Tree (1 core) vs. exact RBC (4 cores), total query time (scale = {})\n",
        opts.scale
    );

    let mut table = Table::new(
        "Table 3: total query time in seconds",
        &[
            "dataset",
            "n",
            "queries",
            "Cover Tree [s]",
            "RBC [s]",
            "CT evals/q",
            "RBC evals/q",
        ],
    );
    let mut records = Vec::new();

    for spec in opts.catalog() {
        let workload = PreparedWorkload::generate(&spec);
        let n = workload.n();
        let nq = workload.queries.len();

        // Cover Tree: built and queried on a single core, per the paper.
        let (ct, ct_build_time) =
            timed(&single, || CoverTree::build(&workload.database, Euclidean));
        let ((_ct_answers, ct_evals), ct_query_time) =
            timed(&single, || ct.query_batch_k(&workload.queries, 1));

        // Exact RBC: four threads, the paper's quad-core desktop.
        let params = RbcParams::standard(n, 53 + spec.seed);
        let (rbc, rbc_build_time) =
            quad.install(|| exact_rbc_batch(&workload, params, RbcConfig::default()));

        table.row(&[
            spec.name.clone(),
            format!("{n}"),
            format!("{nq}"),
            format!("{:.3}", ct_query_time.as_secs_f64()),
            format!("{:.3}", rbc.elapsed.as_secs_f64()),
            format!("{:.0}", ct_evals as f64 / nq as f64),
            format!("{:.0}", rbc.evals_per_query()),
        ]);
        records.push(Record {
            dataset: spec.name.clone(),
            n,
            dim: spec.dim,
            queries: nq,
            cover_tree_seconds: ct_query_time.as_secs_f64(),
            rbc_seconds: rbc.elapsed.as_secs_f64(),
            cover_tree_evals_per_query: ct_evals as f64 / nq as f64,
            rbc_evals_per_query: rbc.evals_per_query(),
            cover_tree_build_seconds: ct_build_time.as_secs_f64(),
            rbc_build_seconds: rbc_build_time.as_secs_f64(),
        });
    }

    table.print();
    println!(
        "\nNote: as in the paper, the Cover Tree uses one thread while the RBC uses four;\n\
         evals/query is the machine-independent comparison."
    );
    match rbc_bench::write_json_records("table3", &records) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write results: {e}"),
    }
}
