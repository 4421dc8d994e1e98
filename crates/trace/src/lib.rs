//! # rbc-trace — end-to-end tracing and unified telemetry
//!
//! The runtime crates of this workspace each kept their own atomic
//! counters (`ServeMetrics`, `ClusterLoad`, `SearchStats`,
//! `CacheCounters`) but nothing connected them, and none of them could
//! answer "for *this* batch, how long was queue wait vs. stage-1
//! `BF(Q, R)` vs. per-node scan vs. merge?". This crate is that missing
//! layer, with zero external dependencies:
//!
//! * **Spans** ([`span`], [`SpanGuard`], [`SpanRecord`]) — lightweight
//!   monotonic-timed stage intervals with parent links and static
//!   labels, recorded into per-thread ring buffers. Sampling
//!   ([`Sampling`]) is decided once per root and inherited, so recorded
//!   trace trees are always complete; when off, opening a span is one
//!   relaxed atomic load.
//! * **Registry** ([`Registry`], [`registry`]) — named counters, gauges
//!   and histograms plus [`Collector`]s that expose the existing metric
//!   structs as live views over one namespace. Every sampled span also
//!   feeds a per-stage duration histogram
//!   ([`STAGE_DURATION_METRIC`]), so the stage breakdown is available
//!   through the ordinary metric exporters too.
//! * **Exporters** — JSON snapshots ([`json_snapshot`]), Prometheus
//!   text exposition ([`prometheus_snapshot`]), and folded-stack
//!   profiles ([`folded_stacks`]) for flamegraph tooling, plus the
//!   [`stage_breakdown`] aggregation the benches' `--trace` modes print.
//!
//! The span taxonomy (`serve.batch` → `serve.search` → `dist.node` →
//! `bf.group_scan` …) and the registry naming scheme are documented in
//! `docs/OBSERVABILITY.md` at the repository root.
//!
//! ## Example
//!
//! ```
//! use rbc_trace::{Sampling, set_sampling, span, drain};
//!
//! set_sampling(Sampling::Always);
//! {
//!     let _root = span("request");
//!     let _child = span("request.parse");
//! } // guards drop: both spans are recorded
//! let records = drain();
//! assert_eq!(records.len(), 2);
//! assert_eq!(records[0].label, "request");
//! assert_eq!(records[1].parent, Some(records[0].id));
//! set_sampling(Sampling::Off);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod export;
mod registry;
mod span;

pub use export::{
    folded_stacks, json_snapshot, metrics_to_value, prometheus_snapshot, prometheus_text,
    stage_breakdown, StageBreakdown,
};
pub use registry::{
    registry, BucketCount, Collector, Counter, Gauge, Histogram, HistogramSnapshot, MetricSample,
    MetricValue, Registry, HISTOGRAM_BUCKETS, STAGE_DURATION_METRIC,
};
pub use span::{
    clear, current, drain, dropped_records, enabled, init_from_env, record_interval, sampling,
    set_sampling, span, span_under, trace_epoch, Sampling, SpanCtx, SpanGuard, SpanRecord,
    RING_CAPACITY,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use std::time::{Duration, Instant};

    /// Sampling mode and the rings are process-global, so tests that
    /// touch them must not interleave.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn fresh(sampling: Sampling) -> MutexGuard<'static, ()> {
        let guard = serial();
        set_sampling(sampling);
        clear();
        guard
    }

    #[test]
    fn spans_record_parent_links_and_durations() {
        let _guard = fresh(Sampling::Always);
        {
            let root = span("a");
            assert!(root.ctx().is_some());
            {
                let _child = span("a.b");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let records = drain();
        set_sampling(Sampling::Off);
        assert_eq!(records.len(), 2);
        let root = records.iter().find(|r| r.label == "a").unwrap();
        let child = records.iter().find(|r| r.label == "a.b").unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.id));
        assert!(child.dur_ns >= 2_000_000);
        assert!(root.dur_ns >= child.dur_ns);
        assert!(root.start_ns <= child.start_ns);
    }

    #[test]
    fn sibling_spans_close_in_any_order_and_a_discarded_one_leaves_no_trace() {
        let _guard = fresh(Sampling::Always);
        {
            let root = span("root");
            let first = span_under("root.first", root.ctx());
            let first_child = span("root.first.child");
            drop(first_child);
            let second = span_under("root.second", root.ctx());
            let skipped = span_under("root.skipped", root.ctx());
            skipped.discard();
            // The latest open sibling parents new spans; closing the
            // first one before it leaves that unchanged.
            drop(first);
            assert_eq!(current(), second.ctx());
            drop(span("root.second.child"));
            drop(second);
            assert_eq!(current(), root.ctx());
        }
        let records = drain();
        set_sampling(Sampling::Off);
        let find = |label: &str| records.iter().find(|r| r.label == label).unwrap();
        assert_eq!(records.len(), 5, "{records:?}");
        assert!(records.iter().all(|r| r.label != "root.skipped"));
        let root = find("root");
        assert_eq!(find("root.first").parent, Some(root.id));
        assert_eq!(find("root.second").parent, Some(root.id));
        assert_eq!(find("root.first.child").parent, Some(find("root.first").id));
        assert_eq!(
            find("root.second.child").parent,
            Some(find("root.second").id)
        );
    }

    #[test]
    fn off_mode_records_nothing_and_reports_no_context() {
        let _guard = fresh(Sampling::Off);
        {
            let g = span("never");
            assert!(g.ctx().is_none());
            assert!(current().is_none());
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn one_in_n_samples_whole_trees() {
        let _guard = fresh(Sampling::OneIn(4));
        for _ in 0..8 {
            let _root = span("root");
            let _child = span("root.child");
        }
        let records = drain();
        set_sampling(Sampling::Off);
        // 2 of 8 roots sampled, each with its child: complete trees only.
        assert_eq!(records.iter().filter(|r| r.label == "root").count(), 2);
        assert_eq!(
            records.iter().filter(|r| r.label == "root.child").count(),
            2
        );
        for child in records.iter().filter(|r| r.label == "root.child") {
            assert!(records
                .iter()
                .any(|r| r.label == "root" && Some(r.id) == child.parent));
        }
    }

    #[test]
    fn span_under_attaches_cross_thread_work_to_the_dispatching_tree() {
        let _guard = fresh(Sampling::Always);
        {
            let root = span("fanout");
            let ctx = root.ctx();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(move || {
                        let _worker = span_under("fanout.worker", ctx);
                    });
                }
            });
        }
        let records = drain();
        set_sampling(Sampling::Off);
        let root = records.iter().find(|r| r.label == "fanout").unwrap();
        let workers: Vec<_> = records
            .iter()
            .filter(|r| r.label == "fanout.worker")
            .collect();
        assert_eq!(workers.len(), 2);
        assert!(workers.iter().all(|w| w.parent == Some(root.id)));
    }

    #[test]
    fn rings_of_exited_threads_are_drained_once_and_unlisted() {
        let _guard = fresh(Sampling::Always);
        // Whatever earlier tests' threads left behind goes first.
        clear();
        let before = span::listed_rings();
        let dropped_before = dropped_records();
        for _ in 0..500 {
            std::thread::spawn(|| drop(span("short.lived")))
                .join()
                .expect("recording thread panicked");
        }
        assert_eq!(span::listed_rings(), before + 500, "one ring per thread");
        let records = drain();
        set_sampling(Sampling::Off);
        assert_eq!(
            records.iter().filter(|r| r.label == "short.lived").count(),
            500,
            "every exited thread's record is drained"
        );
        // Only rings of threads that are still alive remain: at most the
        // ones listed before, none of the 500.
        assert!(span::listed_rings() <= before);
        assert!(drain().is_empty());
        assert_eq!(dropped_records(), dropped_before);
    }

    #[test]
    fn record_interval_is_retroactive_and_respects_parent_sampling() {
        let _guard = fresh(Sampling::Always);
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let id = record_interval("waited", None, start, Instant::now());
        assert!(id.is_some());
        let unsampled = record_interval(
            "never",
            Some(SpanCtx {
                id: 1,
                sampled: false,
            }),
            start,
            Instant::now(),
        );
        assert!(unsampled.is_none());
        let records = drain();
        set_sampling(Sampling::Off);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].label, "waited");
        assert!(records[0].dur_ns >= 1_000_000);
    }

    #[test]
    fn sampled_spans_feed_the_stage_duration_histograms() {
        let _guard = fresh(Sampling::Always);
        {
            let _s = span("stage.hist.test");
        }
        clear();
        set_sampling(Sampling::Off);
        let h = registry().histogram_with(STAGE_DURATION_METRIC, &[("stage", "stage.hist.test")]);
        assert!(h.count() >= 1);
    }

    #[test]
    fn registry_handles_are_idempotent_per_series() {
        let r = Registry::new();
        let a = r.counter("rbc_test_total");
        let b = r.counter("rbc_test_total");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        let la = r.counter_with("rbc_test_total", &[("node", "0")]);
        la.inc();
        assert_eq!(la.get(), 1);
        assert_eq!(a.get(), 3, "labelled series must be distinct");
        let g = r.gauge("rbc_test_ratio");
        g.set(0.5);
        assert_eq!(r.gauge("rbc_test_ratio").get(), 0.5);
    }

    #[test]
    fn histogram_buckets_are_cumulative_powers_of_two() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 500, 1 << 20] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 506 + (1 << 20));
        assert_eq!(snap.buckets[0].le, 1.0);
        // le=1 sees 0 and 1; le=2 adds 2; le=4 adds 3.
        assert_eq!(snap.buckets[0].count, 2);
        assert_eq!(snap.buckets[1].count, 3);
        assert_eq!(snap.buckets[2].count, 4);
        // 500 <= 512 = 2^9; cumulative by the 2^9 bucket is 5.
        assert_eq!(snap.buckets[9].count, 5);
        assert_eq!(snap.buckets.last().unwrap().count, 6);
        for w in snap.buckets.windows(2) {
            assert!(w[0].count <= w[1].count);
        }
    }

    #[test]
    fn collectors_are_live_views_and_slots_replace() {
        struct Fixed(u64);
        impl Collector for Fixed {
            fn collect(&self) -> Vec<MetricSample> {
                vec![MetricSample::counter("rbc_fixed_total", self.0)]
            }
        }
        let r = Registry::new();
        r.register_collector("fixed", std::sync::Arc::new(Fixed(1)));
        r.register_collector("fixed", std::sync::Arc::new(Fixed(7)));
        let samples = r.snapshot();
        let fixed: Vec<_> = samples
            .iter()
            .filter(|s| s.name == "rbc_fixed_total")
            .collect();
        assert_eq!(fixed.len(), 1, "slot registration must replace");
        assert_eq!(fixed[0].value, MetricValue::Counter(7));
        r.unregister_collector("fixed");
        assert!(r.snapshot().iter().all(|s| s.name != "rbc_fixed_total"));
    }

    #[test]
    fn prometheus_text_has_valid_exposition_shape() {
        let r = Registry::new();
        r.counter("rbc_requests_total").add(3);
        r.gauge_with("rbc_load_ratio", &[("node", "1")]).set(0.25);
        r.histogram("rbc_latency_us").record(100);
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("# TYPE rbc_requests_total counter\n"));
        assert!(text.contains("rbc_requests_total 3\n"));
        assert!(text.contains("rbc_load_ratio{node=\"1\"} 0.25\n"));
        assert!(text.contains("# TYPE rbc_latency_us histogram\n"));
        assert!(text.contains("rbc_latency_us_bucket{le=\"128\"} 1\n"));
        assert!(text.contains("rbc_latency_us_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("rbc_latency_us_sum 100\n"));
        assert!(text.contains("rbc_latency_us_count 1\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').unwrap();
            assert!(!series.is_empty());
            assert!(value == "+Inf" || value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn json_snapshot_round_trips_through_the_shim_parser() {
        let r = Registry::new();
        r.counter("rbc_json_total").add(9);
        r.histogram("rbc_json_us").record(42);
        let text = serde_json::to_string_pretty(&metrics_to_value(&r.snapshot())).unwrap();
        let value: serde::Value = serde_json::from_str(&text).unwrap();
        let metrics = match value.get("metrics").unwrap() {
            serde::Value::Array(items) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(metrics.len(), 2);
        assert!(metrics.iter().any(|m| m.get("name")
            == Some(&serde::Value::Str("rbc_json_total".into()))
            && m.get("value") == Some(&serde::Value::UInt(9))));
    }

    #[test]
    fn folded_stacks_attribute_self_time_along_parent_paths() {
        let records = vec![
            SpanRecord {
                id: 1,
                parent: None,
                label: "root",
                thread: 0,
                start_ns: 0,
                dur_ns: 10_000_000,
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                label: "child",
                thread: 0,
                start_ns: 1_000_000,
                dur_ns: 4_000_000,
            },
            SpanRecord {
                id: 3,
                parent: Some(2),
                label: "leaf",
                thread: 0,
                start_ns: 2_000_000,
                dur_ns: 1_000_000,
            },
        ];
        let folded = folded_stacks(&records);
        assert_eq!(folded, "root 6000\nroot;child 3000\nroot;child;leaf 1000\n");
        let breakdown = stage_breakdown(&records);
        assert_eq!(breakdown[0].label, "root");
        assert_eq!(breakdown[0].total, Duration::from_millis(10));
        assert_eq!(breakdown[0].self_total, Duration::from_millis(6));
        assert_eq!(breakdown.len(), 3);
    }

    #[test]
    fn env_init_parses_the_supported_values() {
        let _guard = serial();
        let before = sampling();
        std::env::set_var("RBC_TRACE", "16");
        assert_eq!(init_from_env(), Sampling::OneIn(16));
        std::env::set_var("RBC_TRACE", "on");
        assert_eq!(init_from_env(), Sampling::Always);
        std::env::set_var("RBC_TRACE", "off");
        assert_eq!(init_from_env(), Sampling::Off);
        std::env::set_var("RBC_TRACE", "nonsense");
        assert_eq!(init_from_env(), Sampling::Off, "bad values change nothing");
        std::env::remove_var("RBC_TRACE");
        set_sampling(before);
    }
}
