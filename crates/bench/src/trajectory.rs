//! The perf-trajectory schema and its regression gate.
//!
//! The `trajectory` binary sweeps every layer of the stack — single-node
//! engines, list-major batching, sharded placement, and the serving
//! engine — over matched and hostile query streams, and records one
//! [`Cell`] per grid point into a schema-versioned [`TrajectoryFile`]
//! (`BENCH_core.json`, `BENCH_batch.json`, `BENCH_shard.json`,
//! `BENCH_serve.json` at the repository root). This module owns the
//! record types, the tolerance model, and the comparison logic behind
//! `trajectory --check`.
//!
//! # What is gated, and what is informational
//!
//! The gate only compares metrics that are *deterministic functions of
//! the workload and the algorithm*: recall, distance evaluations per
//! query, bytes on the wire per query, tile passes, eval skew, and the
//! degraded-query count. Those cannot wobble with machine load, so a
//! drift beyond tolerance means the code's behaviour changed — in either
//! direction. Improvements fail the gate too, on purpose: a better
//! number still means the committed baseline no longer describes the
//! code, and the fix is to regenerate the baseline in the same change
//! that improved it.
//!
//! Wall-clock metrics (throughput, latency percentiles, elapsed time)
//! are recorded so trajectories can be plotted, but never gated: CI
//! machines differ too much for timing to be a signal.
//!
//! Serving cells are the exception: achieved micro-batch sizes depend on
//! thread timing, which moves the work counters, so for the `serve` area
//! only quality metrics (recall, degraded queries) are gated.

use serde::{Deserialize, Serialize};

/// Version of the `BENCH_<area>.json` schema. Bump when a field is
/// added, removed, or changes meaning; `--check` refuses to compare
/// files across versions.
///
/// v2: added [`Cell::variant`], an implementation-variant coordinate.
/// No area sweeps a variant any more, so every cell leaves it empty.
pub const SCHEMA_VERSION: u32 = 2;

/// The four benchmark areas, in the order the binary runs them. Each
/// gets its own `BENCH_<area>.json` file.
pub const AREAS: [&str; 4] = ["core", "batch", "shard", "serve"];

/// One `BENCH_<area>.json` file: provenance plus the measured grid.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrajectoryFile {
    /// Schema version this file was written with ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Which area the file covers: `core`, `batch`, `shard`, or `serve`.
    pub area: String,
    /// Human-readable provenance string (binary name and version).
    pub generated_by: String,
    /// The `--scale` the grid was generated at. `--check` re-runs at the
    /// *baseline's* recorded scale, so command-line scale flags can never
    /// cause a config mismatch.
    pub scale: f64,
    /// The `--seed` the workloads were generated with.
    pub seed: u64,
    /// One record per measured grid point.
    pub cells: Vec<Cell>,
}

/// One measured grid point: the coordinates that identify it plus its
/// metrics.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cell {
    /// Unique id within the file, e.g. `core/n2048/k10/exact/skewed`.
    /// `--check` matches baseline and fresh cells by this id.
    pub id: String,
    /// Engine under test: `brute`, `exact`, `oneshot`, `distributed`,
    /// or `serve`.
    pub engine: String,
    /// Query stream: `matched` (same mixture as the database), `skewed`
    /// (Zipf-weighted cluster choice), `drifting` (non-stationary), or
    /// `adversarial` (one tight ball on the hottest cluster).
    pub stream: String,
    /// Database size.
    pub n: usize,
    /// Ambient dimension.
    pub dim: usize,
    /// Number of queries replayed.
    pub queries: usize,
    /// Neighbors requested per query.
    pub k: usize,
    /// Micro-batch size the stream was replayed in (0 = one full batch).
    pub batch: usize,
    /// Cluster nodes (0 for non-distributed cells).
    pub nodes: usize,
    /// Replication factor (0 when not applicable, 1 = single owner).
    pub replication: usize,
    /// Nodes deliberately killed before the replay.
    pub failed_nodes: usize,
    /// Implementation variant under test, when an area sweeps one. No
    /// area does today, so this is always empty.
    #[serde(default)]
    pub variant: String,
    /// The measurements.
    pub metrics: CellMetrics,
}

/// The measured metrics of one cell. See the module docs for which of
/// these the regression gate compares.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellMetrics {
    /// Mean recall@k against brute-force ground truth (gated, absolute).
    pub recall: f64,
    /// Mean distance evaluations per query (gated, relative).
    pub evals_per_query: f64,
    /// Mean bytes on the wire per query; 0 for single-node cells
    /// (gated, relative).
    pub bytes_per_query: f64,
    /// Mean list-tile passes per query under the batch plan; 0 when the
    /// engine does not tile (gated, relative).
    pub tile_passes_per_query: f64,
    /// Queries sharing each tile pass on average; 0 when not tiled
    /// (gated, relative).
    pub tile_sharing_factor: f64,
    /// Busiest-node evals over the per-node mean; 0 for single-node
    /// cells (gated, relative).
    pub eval_skew: f64,
    /// Queries answered with a flagged partial result (gated, exact).
    pub degraded_queries: u64,
    /// Completed queries per second (informational).
    pub throughput_qps: f64,
    /// Median latency in microseconds; 0 outside the serve area
    /// (informational).
    pub latency_p50_us: u64,
    /// 99th-percentile latency in microseconds (informational).
    pub latency_p99_us: u64,
    /// 99.9th-percentile latency in microseconds (informational).
    pub latency_p999_us: u64,
    /// Wall-clock for the whole cell in milliseconds (informational).
    pub elapsed_ms: f64,
    /// Mean achieved micro-batch size; equals `batch` outside the serve
    /// area (informational).
    pub mean_batch_size: f64,
}

impl Default for CellMetrics {
    fn default() -> Self {
        Self {
            recall: 0.0,
            evals_per_query: 0.0,
            bytes_per_query: 0.0,
            tile_passes_per_query: 0.0,
            tile_sharing_factor: 0.0,
            eval_skew: 0.0,
            degraded_queries: 0,
            throughput_qps: 0.0,
            latency_p50_us: 0,
            latency_p99_us: 0,
            latency_p999_us: 0,
            elapsed_ms: 0.0,
            mean_batch_size: 0.0,
        }
    }
}

/// Tolerances of the regression gate.
#[derive(Clone, Copy, Debug)]
pub struct Tolerances {
    /// Relative tolerance on the deterministic work metrics
    /// (`evals_per_query`, `bytes_per_query`, `tile_passes_per_query`,
    /// `tile_sharing_factor`, `eval_skew`). The denominator is
    /// `max(|baseline|, 1.0)` so near-zero baselines get absolute slack
    /// instead of exploding.
    pub work_rel: f64,
    /// Absolute tolerance on `recall`.
    pub quality_abs: f64,
    /// Relative tolerance on the timing metrics. `None` (the default)
    /// records them without gating — CI machines make timing noise, not
    /// signal.
    pub time_rel: Option<f64>,
}

impl Default for Tolerances {
    fn default() -> Self {
        Self {
            work_rel: 0.15,
            quality_abs: 0.05,
            time_rel: None,
        }
    }
}

/// One gate violation, ready for a failure table.
#[derive(Clone, Debug)]
pub struct CheckFailure {
    /// Cell id (or `<file>` for file-level mismatches).
    pub cell: String,
    /// The offending metric.
    pub metric: String,
    /// Baseline value (formatted).
    pub baseline: String,
    /// Fresh value (formatted).
    pub fresh: String,
    /// What the tolerance allowed (formatted).
    pub allowed: String,
}

/// The gated metric set for an area: `(name, extractor, is_quality)`.
/// Serving cells gate only quality — the achieved batch size (and with
/// it every work counter) depends on thread timing.
type MetricFn = fn(&CellMetrics) -> f64;
fn gated_metrics(area: &str) -> Vec<(&'static str, MetricFn, bool)> {
    let quality: Vec<(&'static str, MetricFn, bool)> =
        vec![("recall", |m: &CellMetrics| m.recall, true)];
    if area == "serve" {
        return quality;
    }
    let mut all = quality;
    all.extend([
        (
            "evals_per_query",
            (|m: &CellMetrics| m.evals_per_query) as MetricFn,
            false,
        ),
        (
            "bytes_per_query",
            |m: &CellMetrics| m.bytes_per_query,
            false,
        ),
        (
            "tile_passes_per_query",
            |m: &CellMetrics| m.tile_passes_per_query,
            false,
        ),
        (
            "tile_sharing_factor",
            |m: &CellMetrics| m.tile_sharing_factor,
            false,
        ),
        ("eval_skew", |m: &CellMetrics| m.eval_skew, false),
    ]);
    all
}

/// The timing metrics, gated only when [`Tolerances::time_rel`] is set.
fn timing_metrics() -> Vec<(&'static str, MetricFn)> {
    vec![
        ("throughput_qps", (|m: &CellMetrics| m.throughput_qps) as _),
        ("elapsed_ms", |m: &CellMetrics| m.elapsed_ms),
    ]
}

/// Compares a fresh run against a baseline file and returns every gate
/// violation (empty = pass). Both files must carry the same
/// [`SCHEMA_VERSION`] and the same cell-id set; mismatches are reported
/// as failures rather than panics so `--check` can print one table.
pub fn compare_files(
    baseline: &TrajectoryFile,
    fresh: &TrajectoryFile,
    tol: &Tolerances,
) -> Vec<CheckFailure> {
    let mut failures = Vec::new();
    if baseline.schema_version != fresh.schema_version {
        failures.push(CheckFailure {
            cell: "<file>".into(),
            metric: "schema_version".into(),
            baseline: baseline.schema_version.to_string(),
            fresh: fresh.schema_version.to_string(),
            allowed: "exact match".into(),
        });
        return failures;
    }
    if baseline.area != fresh.area {
        failures.push(CheckFailure {
            cell: "<file>".into(),
            metric: "area".into(),
            baseline: baseline.area.clone(),
            fresh: fresh.area.clone(),
            allowed: "exact match".into(),
        });
        return failures;
    }

    for base_cell in &baseline.cells {
        let Some(fresh_cell) = fresh.cells.iter().find(|c| c.id == base_cell.id) else {
            failures.push(CheckFailure {
                cell: base_cell.id.clone(),
                metric: "<presence>".into(),
                baseline: "present".into(),
                fresh: "missing".into(),
                allowed: "same grid".into(),
            });
            continue;
        };
        for (name, extract, is_quality) in gated_metrics(&baseline.area) {
            let b = extract(&base_cell.metrics);
            let f = extract(&fresh_cell.metrics);
            let (ok, allowed) = if is_quality {
                (
                    (f - b).abs() <= tol.quality_abs,
                    format!("±{}", tol.quality_abs),
                )
            } else {
                let denom = b.abs().max(1.0);
                (
                    (f - b).abs() / denom <= tol.work_rel,
                    format!("±{:.0}% of max(|base|, 1)", tol.work_rel * 100.0),
                )
            };
            if !ok {
                failures.push(CheckFailure {
                    cell: base_cell.id.clone(),
                    metric: name.into(),
                    baseline: format!("{b:.4}"),
                    fresh: format!("{f:.4}"),
                    allowed,
                });
            }
        }
        if base_cell.metrics.degraded_queries != fresh_cell.metrics.degraded_queries {
            failures.push(CheckFailure {
                cell: base_cell.id.clone(),
                metric: "degraded_queries".into(),
                baseline: base_cell.metrics.degraded_queries.to_string(),
                fresh: fresh_cell.metrics.degraded_queries.to_string(),
                allowed: "exact match".into(),
            });
        }
        if let Some(time_rel) = tol.time_rel {
            for (name, extract) in timing_metrics() {
                let b = extract(&base_cell.metrics);
                let f = extract(&fresh_cell.metrics);
                if (f - b).abs() / b.abs().max(1.0) > time_rel {
                    failures.push(CheckFailure {
                        cell: base_cell.id.clone(),
                        metric: name.into(),
                        baseline: format!("{b:.2}"),
                        fresh: format!("{f:.2}"),
                        allowed: format!("±{:.0}%", time_rel * 100.0),
                    });
                }
            }
        }
    }
    for fresh_cell in &fresh.cells {
        if !baseline.cells.iter().any(|c| c.id == fresh_cell.id) {
            failures.push(CheckFailure {
                cell: fresh_cell.id.clone(),
                metric: "<presence>".into(),
                baseline: "missing".into(),
                fresh: "present".into(),
                allowed: "same grid".into(),
            });
        }
    }
    failures
}

/// A deliberately broken copy of `file`: every gated work metric
/// tripled and the recall halved, far outside any sane tolerance. CI
/// writes these with `trajectory --perturb` and asserts that `--check`
/// against them fails — the gate's negative control.
#[must_use]
pub fn perturbed(file: &TrajectoryFile) -> TrajectoryFile {
    let mut out = file.clone();
    for cell in &mut out.cells {
        let m = &mut cell.metrics;
        // shift recall by exactly 0.5 (down when possible, up otherwise)
        // so the gap beats any sane quality tolerance even from 0.0
        m.recall = if m.recall >= 0.5 {
            m.recall - 0.5
        } else {
            m.recall + 0.5
        };
        m.evals_per_query = m.evals_per_query * 3.0 + 10.0;
        m.bytes_per_query = m.bytes_per_query * 3.0 + 10.0;
        m.tile_passes_per_query = m.tile_passes_per_query * 3.0 + 10.0;
        m.tile_sharing_factor = m.tile_sharing_factor * 3.0 + 10.0;
        m.eval_skew = m.eval_skew * 3.0 + 10.0;
    }
    out
}

/// Renders failures as an aligned table (via [`crate::report::Table`]).
pub fn failure_table(area: &str, failures: &[CheckFailure]) -> crate::report::Table {
    let mut table = crate::report::Table::new(
        format!("regression gate failures: {area}"),
        &["cell", "metric", "baseline", "fresh", "allowed"],
    );
    for f in failures {
        table.row(&[
            f.cell.clone(),
            f.metric.clone(),
            f.baseline.clone(),
            f.fresh.clone(),
            f.allowed.clone(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file(area: &str) -> TrajectoryFile {
        let metrics = CellMetrics {
            recall: 0.97,
            evals_per_query: 812.5,
            bytes_per_query: 96.0,
            tile_passes_per_query: 3.5,
            tile_sharing_factor: 4.2,
            eval_skew: 1.3,
            degraded_queries: 0,
            throughput_qps: 10_000.0,
            latency_p50_us: 120,
            latency_p99_us: 900,
            latency_p999_us: 2_000,
            elapsed_ms: 42.0,
            mean_batch_size: 64.0,
        };
        TrajectoryFile {
            schema_version: SCHEMA_VERSION,
            area: area.to_string(),
            generated_by: "unit-test".into(),
            scale: 1.0,
            seed: 7,
            cells: vec![Cell {
                id: format!("{area}/n2048/k10/exact/skewed"),
                engine: "exact".into(),
                stream: "skewed".into(),
                n: 2048,
                dim: 12,
                queries: 192,
                k: 10,
                batch: 64,
                nodes: 0,
                replication: 0,
                failed_nodes: 0,
                variant: String::new(),
                metrics,
            }],
        }
    }

    #[test]
    fn identical_files_pass() {
        let file = sample_file("core");
        assert!(compare_files(&file, &file, &Tolerances::default()).is_empty());
    }

    #[test]
    fn small_work_wobble_passes_large_drift_fails() {
        let base = sample_file("core");
        let mut fresh = base.clone();
        fresh.cells[0].metrics.evals_per_query *= 1.05; // within 15%
        assert!(compare_files(&base, &fresh, &Tolerances::default()).is_empty());
        fresh.cells[0].metrics.evals_per_query = base.cells[0].metrics.evals_per_query * 1.4;
        let failures = compare_files(&base, &fresh, &Tolerances::default());
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].metric, "evals_per_query");
    }

    #[test]
    fn improvements_fail_too() {
        let base = sample_file("core");
        let mut fresh = base.clone();
        fresh.cells[0].metrics.evals_per_query = base.cells[0].metrics.evals_per_query * 0.5;
        assert!(!compare_files(&base, &fresh, &Tolerances::default()).is_empty());
    }

    #[test]
    fn recall_gated_absolutely_and_degraded_exactly() {
        let base = sample_file("core");
        let mut fresh = base.clone();
        fresh.cells[0].metrics.recall -= 0.2;
        fresh.cells[0].metrics.degraded_queries = 3;
        let failures = compare_files(&base, &fresh, &Tolerances::default());
        let metrics: Vec<&str> = failures.iter().map(|f| f.metric.as_str()).collect();
        assert!(metrics.contains(&"recall"));
        assert!(metrics.contains(&"degraded_queries"));
    }

    #[test]
    fn serve_area_gates_only_quality() {
        let base = sample_file("serve");
        let mut fresh = base.clone();
        // Wild work drift: fine for serve (batching is timing-dependent).
        fresh.cells[0].metrics.evals_per_query *= 10.0;
        fresh.cells[0].metrics.eval_skew *= 10.0;
        assert!(compare_files(&base, &fresh, &Tolerances::default()).is_empty());
        // But a recall drop still fails.
        fresh.cells[0].metrics.recall -= 0.2;
        assert!(!compare_files(&base, &fresh, &Tolerances::default()).is_empty());
    }

    #[test]
    fn schema_and_grid_mismatches_reported() {
        let base = sample_file("core");
        let mut fresh = base.clone();
        fresh.schema_version += 1;
        let failures = compare_files(&base, &fresh, &Tolerances::default());
        assert_eq!(failures[0].metric, "schema_version");

        let mut fresh = base.clone();
        fresh.cells[0].id = "core/other".into();
        let failures = compare_files(&base, &fresh, &Tolerances::default());
        assert_eq!(failures.len(), 2, "one missing + one extra cell");
        assert!(failures.iter().all(|f| f.metric == "<presence>"));
    }

    #[test]
    fn perturbed_copy_fails_every_gated_area() {
        for area in AREAS {
            let base = sample_file(area);
            let bad = perturbed(&base);
            let failures = compare_files(&base, &bad, &Tolerances::default());
            assert!(
                !failures.is_empty(),
                "perturbed {area} baseline must fail the gate"
            );
        }
    }

    #[test]
    fn json_round_trip_preserves_the_file() {
        let file = sample_file("batch");
        let json = serde_json::to_string_pretty(&file).unwrap();
        let back: TrajectoryFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, file.schema_version);
        assert_eq!(back.area, file.area);
        assert_eq!(back.seed, file.seed);
        assert_eq!(back.cells.len(), 1);
        assert_eq!(back.cells[0].id, file.cells[0].id);
        let (b, f) = (&file.cells[0].metrics, &back.cells[0].metrics);
        assert_eq!(b.recall, f.recall);
        assert_eq!(b.evals_per_query, f.evals_per_query);
        assert_eq!(b.degraded_queries, f.degraded_queries);
        assert_eq!(b.latency_p999_us, f.latency_p999_us);
    }

    #[test]
    fn timing_gate_is_opt_in() {
        let base = sample_file("core");
        let mut fresh = base.clone();
        fresh.cells[0].metrics.throughput_qps *= 5.0;
        assert!(compare_files(&base, &fresh, &Tolerances::default()).is_empty());
        let strict = Tolerances {
            time_rel: Some(0.5),
            ..Tolerances::default()
        };
        assert!(!compare_files(&base, &fresh, &strict).is_empty());
    }
}
