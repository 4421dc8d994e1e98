//! The benchmark's contract in one place: workloads, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository root
//! is this table rendered (`--print-contract`); a unit test keeps the two in
//! step.

use serde::Value;

use crate::report::{list, num, obj, text, uint};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_120_521;
/// A seed never used while the benchmark was written; it must run clean too.
pub const HOLD_OUT_SEED: u64 = 77_003;
/// Seconds one run measures for (`run_seconds` of the contract).
pub const RUN_SECONDS: u64 = 25;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "exact_batch",
        why: "offline exact RBC, k=10, batches of 128 at n=200k: rbc-core planning + rbc-bruteforce group scans; where the evals-to-wall-clock gap lives",
    },
    WorkloadDef {
        name: "oneshot_batch",
        why: "offline one-shot RBC, k=1, batches of 256 at n=100k: dense BF(Q,R) + one list per query, the lane kernel dominates; the only workload with recall < 1",
    },
    WorkloadDef {
        name: "serve_local",
        why: "closed loop of 32 through Engine + answer cache over exact RBC, Zipf(1.1) repeats: cache reads and admissions, misses reach the index as small batches",
    },
    WorkloadDef {
        name: "serve_wire",
        why: "same closed loop through Engine over a 4-node replicated cluster on loopback TCP, skewed unique queries: route, codec, wire, merge; the cache is bypassed",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; the same seven on every workload.
/// (`failed_share` is not among them because a healthy run's value is 0,
/// which the contract forbids for a gated metric: failures are reported
/// through `attempted` / `failed` / `correct` instead.)
pub const END_TO_END: &[MetricDef] = &[
    e2e("qps", "queries/s", Higher, 0.25),
    e2e("lat_p50_us", "us", Lower, 0.25),
    e2e("lat_p95_us", "us", Lower, 0.25),
    e2e("speedup_vs_brute", "ratio", Higher, 0.20),
    e2e("recall", "share", Higher, 0.01),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Single layers, named `<layer>.<metric>`. A layer a workload does not
/// exercise reports 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("host.ref_scan_ms", "ms", Lower),
    layer("host.slowdown", "ratio", Lower),
    layer("host.round_spread", "ratio", Lower),
    layer("host.nproc", "count", Higher),
    layer("metric.lanes_ns_per_eval", "ns", Lower),
    layer("metric.lanes_gbps", "GB/s", Higher),
    layer("metric.blocked_build_ms", "ms", Lower),
    layer("bf.dense_ns_per_eval", "ns", Lower),
    layer("bf.dense_b32_ns_per_eval", "ns", Lower),
    layer("bf.pairwise_ns_per_eval", "ns", Lower),
    layer("bf.par_efficiency", "ratio", Higher),
    layer("core.evals_per_query", "count", Lower),
    layer("core.eval_reduction", "ratio", Higher),
    layer("core.tile_passes_per_query", "count", Lower),
    layer("core.tile_sharing_factor", "ratio", Higher),
    layer("core.ns_per_eval", "ns", Lower),
    layer("core.wall_gap", "ratio", Lower),
    layer("core.stage1_us_per_query", "us", Lower),
    layer("core.plan_us_per_query", "us", Lower),
    layer("core.scan_us_per_query", "us", Lower),
    layer("core.par_efficiency", "ratio", Higher),
    layer("core.b4_us_per_query", "us", Lower),
    layer("core.oneshot_evals_per_query", "count", Lower),
    layer("core.oneshot_stage1_share", "share", Lower),
    layer("core.oneshot_list_entries", "count", Lower),
    layer("core.build_evals", "count", Lower),
    layer("core.build_s", "s", Lower),
    layer("core.build_minor_faults", "count", Lower),
    layer("serve.batch_size_mean", "count", Higher),
    layer("serve.search_busy_share", "share", Lower),
    layer("serve.outside_index_us_p50", "us", Lower),
    layer("serve.cache_hit_rate", "share", Higher),
    layer("serve.cache_admit_share", "share", Higher),
    layer("serve.cache_hit_ns", "ns", Lower),
    layer("serve.miss_batch_mean", "count", Higher),
    layer("serve.inner_us_per_call", "us", Lower),
    layer("serve.submit_ns_p50", "ns", Lower),
    layer("serve.lat_p99_us", "us", Lower),
    layer("dist.call_us_per_batch", "us", Lower),
    layer("dist.endpoint_us_per_call", "us", Lower),
    layer("dist.endpoint_calls_per_batch", "count", Lower),
    layer("dist.coord_self_us_per_batch", "us", Lower),
    layer("dist.node_exec_us_per_call", "us", Lower),
    layer("dist.wire_overhead_us_per_call", "us", Lower),
    layer("dist.codec_us_per_call", "us", Lower),
    layer("dist.connects_per_batch", "count", Lower),
    layer("dist.wire_bytes_per_query", "B", Lower),
    layer("dist.wire_over_inproc", "ratio", Lower),
    layer("dist.eval_skew", "ratio", Lower),
    layer("dist.evals_per_query", "count", Lower),
    layer("dist.rerouted_groups", "count", Lower),
    layer("dist.degraded_queries", "count", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.spans_per_query", "count", Lower),
    layer("trace.dropped_records", "count", Lower),
    layer("trace.unattributed_share", "share", Lower),
    layer("trace.conservation_violations", "count", Lower),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj(vec![
        ("command", list(command.iter().map(|s| text(s)))),
        ("paths", list([text("benchmark")])),
        ("run_seconds", uint(RUN_SECONDS)),
        (
            "workloads",
            list(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))])),
            ),
        ),
        (
            "end_to_end",
            list(END_TO_END.iter().map(|m| {
                obj(vec![
                    ("name", text(m.name)),
                    ("unit", text(m.unit)),
                    ("better", text(m.better.name())),
                    ("bound", num(m.bound)),
                ])
            })),
        ),
        (
            "per_layer",
            list(PER_LAYER.iter().map(|m| {
                obj(vec![
                    ("name", text(m.name)),
                    ("unit", text(m.unit)),
                    ("better", text(m.better.name())),
                ])
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "setup_s carries the largest bound");
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let parsed: Value = serde_json::from_str(&on_disk).expect("BENCHMARK.json parses");
        assert_eq!(
            parsed,
            serde_json::from_str::<Value>(&crate::report::render(&benchmark_json())).unwrap(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --print-contract > BENCHMARK.json"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
