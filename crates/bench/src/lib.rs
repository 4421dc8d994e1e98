//! Shared harness code for regenerating every table and figure of the RBC
//! paper, measuring the post-paper layers, and gating CI on the perf
//! trajectory.
//!
//! The paper-artifact binaries in `src/bin/` each reproduce one
//! experiment:
//!
//! | Binary   | Paper artifact | What it prints |
//! |----------|----------------|----------------|
//! | `table1` | Table 1        | dataset catalogue + measured expansion rates |
//! | `fig1`   | Figure 1       | one-shot speedup vs. mean rank error, per dataset, sweeping `n_r = s` |
//! | `fig2`   | Figure 2       | exact-search speedup over brute force (on the host's threads) |
//! | `fig3`   | Figure 3       | exact-search speedup vs. number of representatives |
//! | `table3` | Table 3        | Cover Tree (1 thread) vs. exact RBC (4 threads), total query seconds |
//!
//! Table 2 measured a GPU; with none to run on, `fig1`'s one-shot speedup
//! on the CPU at rank error ≈ 10⁻¹ stands in for it.
//!
//! These accept `--scale <f64>` (default 0.005) to grow or shrink the
//! synthetic datasets relative to the paper's sizes, `--queries <n>` to
//! cap the query count, and `--datasets a,b,c` to restrict the run
//! (parsed by [`BenchOptions`]). Results are printed as aligned text
//! tables and also written as JSON records under `results/` so
//! EXPERIMENTS.md can cite them.
//!
//! The post-paper binaries measure what the workspace adds on top, each
//! with its own flags (see its module docs):
//!
//! | Binary        | Layer | What it measures |
//! |---------------|-------|------------------|
//! | `batch_bench` | `rbc-core`        | batch-size sweep {1, 16, 256}: identical answers, tile passes, sharing factor |
//! | `serve_bench` | `rbc-serve`       | micro-batch policy sweep under concurrent producers, plus cached serving |
//! | `shard_bench` | `rbc-distributed` | routed batch protocol across node counts, placements, and failures (asserting bit-identity, byte amortisation, skew halving, lossless failover) |
//! | `trajectory`  | all of the above  | the perf-trajectory harness: every engine over matched and hostile streams, into the schema-versioned `BENCH_<area>.json` baselines, with the `--check` regression gate CI runs |
//!
//! Library support lives in [`measure`] (prepared workloads, batch
//! measurements, recall), [`report`] (text tables, `results/` JSON,
//! `BENCH_<area>.json` IO), [`options`] (shared flag parsing), and
//! [`trajectory`] (the baseline schema, tolerances, and comparison
//! logic). `docs/BENCHMARKING.md` at the repo root is the user-facing
//! guide.

#![warn(missing_docs)]

pub mod measure;
pub mod options;
pub mod report;
pub mod tracebench;
pub mod trajectory;

pub use measure::{
    brute_force_batch, exact_rbc_batch, one_shot_batch, recall_at_k, BatchMeasurement,
    PreparedWorkload,
};
pub use options::BenchOptions;
pub use report::{
    bench_file_path, read_bench_file, write_bench_file, write_json_records, write_json_records_to,
    Table,
};
pub use tracebench::{enable_tracing, print_stage_breakdown};
pub use trajectory::{
    compare_files, failure_table, perturbed, Cell, CellMetrics, CheckFailure, Tolerances,
    TrajectoryFile, AREAS, SCHEMA_VERSION,
};
