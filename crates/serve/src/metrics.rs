//! Serving metrics: throughput, achieved batch sizes, latency percentiles.
//!
//! Counters are lock-free atomics; the two histograms sit behind mutexes
//! that are touched once per *batch*, not once per query, so accounting
//! cost stays off the per-query path. A [`MetricsSnapshot`] is a plain
//! serialisable struct, so `serve_bench` can write it straight into the
//! JSON reports the rest of `rbc-bench` produces.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rbc_distributed::{ClusterLoad, NodeLoad};
use rbc_trace::{Collector, MetricSample, MetricValue};
use serde::{Deserialize, Serialize};

use crate::cache::CacheCounters;

/// A submission queue whose depth [`ServeMetrics`] can poll at
/// snapshot/collect time. Object-safe so the metrics sink does not need
/// the queue's payload type parameter.
pub(crate) trait QueueProbe: Send + Sync {
    /// Requests pending right now.
    fn depth(&self) -> usize;
}

/// The tracked queue slot, opaque in `Debug` output (the probe's payload
/// type need not be `Debug`).
#[derive(Default)]
struct TrackedQueue(Option<Arc<dyn QueueProbe>>);

impl std::fmt::Debug for TrackedQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TrackedQueue")
            .field(&self.0.as_ref().map(|_| "..."))
            .finish()
    }
}

/// Locks `mutex`, recovering the data if a panicking worker poisoned it.
/// Metrics are monotone counters and histograms — every individual write
/// leaves them consistent — so serving a snapshot after a worker panic is
/// strictly better than taking the metrics endpoint down with it.
fn recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of power-of-two latency buckets (bucket `i` covers
/// `[2^i, 2^{i+1})` microseconds; 40 buckets reach ~12.7 days).
const LATENCY_BUCKETS: usize = 40;

/// Log-scaled latency histogram with exact count/sum/max.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (63 - us.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile in microseconds (`q` in `[0, 1]`).
    ///
    /// The quantile's rank is located in the power-of-two bucket it lands
    /// in, then linearly interpolated within that bucket assuming samples
    /// spread uniformly across it — rather than reporting the raw bucket
    /// upper bound, which would bias every percentile high by up to 2x.
    /// Results are monotone in `q` and never exceed `max_us`.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            let before = seen;
            seen += c;
            if c > 0 && seen >= rank {
                // Bucket `i` covers `[2^i, 2^{i+1})` (sub-microsecond
                // samples clamp into bucket 0, whose floor is 1).
                let lower = 1u64 << i;
                let upper = if i + 1 >= 64 {
                    self.max_us.max(lower)
                } else {
                    (1u64 << (i + 1)) - 1
                };
                let frac = (rank - before) as f64 / c as f64;
                let value = lower as f64 + frac * upper.saturating_sub(lower) as f64;
                return (value.round() as u64).min(self.max_us);
            }
        }
        self.max_us
    }

    /// The histogram as a cumulative [`rbc_trace::HistogramSnapshot`], for
    /// export through the unified registry. Bucket `le` bounds are the
    /// inclusive upper edges `2^{i+1} - 1`; empty leading/trailing buckets
    /// past the last occupied one are trimmed.
    pub fn trace_snapshot(&self) -> rbc_trace::HistogramSnapshot {
        let last = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        let mut cumulative = 0u64;
        let buckets = self.buckets[..last]
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                cumulative += c;
                rbc_trace::BucketCount {
                    le: ((1u128 << (i + 1)) - 1) as f64,
                    count: cumulative,
                }
            })
            .collect();
        rbc_trace::HistogramSnapshot {
            buckets,
            sum: self.sum_us,
            count: self.count,
        }
    }
}

/// Shared metrics sink for one engine.
#[derive(Debug)]
pub struct ServeMetrics {
    started: Instant,
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    batched_queries: AtomicU64,
    distance_evals: AtomicU64,
    /// `batch_hist[s]` counts executed batches of live size `s`; index 0
    /// is unused (empty batches are not executed).
    batch_hist: Mutex<Vec<u64>>,
    latency: Mutex<LatencyHistogram>,
    /// Answer-cache counters, when an engine serves a `CachedIndex` and
    /// registered it; `None` means snapshots report zero cache activity.
    cache: Mutex<Option<Arc<CacheCounters>>>,
    /// Per-node load counters, when an engine serves a sharded
    /// (`DistributedRbc`) index and registered it; `None` means snapshots
    /// report no node loads.
    cluster: Mutex<Option<Arc<ClusterLoad>>>,
    /// The engine's submission queue, polled at snapshot and collect
    /// time for its depth; `None` means snapshots report depth 0.
    queue: Mutex<TrackedQueue>,
}

impl ServeMetrics {
    /// Creates a sink sized for batches up to `max_batch`.
    pub fn new(max_batch: usize) -> Self {
        Self {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_queries: AtomicU64::new(0),
            distance_evals: AtomicU64::new(0),
            batch_hist: Mutex::new(vec![0; max_batch + 1]),
            latency: Mutex::new(LatencyHistogram::default()),
            cache: Mutex::new(None),
            cluster: Mutex::new(None),
            queue: Mutex::new(TrackedQueue::default()),
        }
    }

    /// Registers an answer cache's counters so snapshots report hit/miss
    /// counts and the hit rate. Replaces any previously tracked cache.
    pub fn track_cache(&self, counters: Arc<CacheCounters>) {
        *recover(&self.cache) = Some(counters);
    }

    /// Registers a sharded index's cumulative per-node counters (see
    /// `DistributedRbc::load`) so snapshots report each node's queries,
    /// evaluations and bytes alongside throughput and latency — making
    /// shard skew visible from the serving layer. Replaces any previously
    /// tracked cluster.
    pub fn track_cluster(&self, load: Arc<ClusterLoad>) {
        *recover(&self.cluster) = Some(load);
    }

    /// Registers the engine's submission queue so snapshots and the
    /// collector report its depth. Replaces any previously tracked queue.
    pub(crate) fn track_queue(&self, queue: Arc<dyn QueueProbe>) {
        recover(&self.queue).0 = Some(queue);
    }

    pub(crate) fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Rolls back a [`record_submitted`](Self::record_submitted) whose
    /// enqueue then failed (submissions are counted before the request is
    /// published so `completed` can never overtake `submitted`).
    pub(crate) fn unrecord_submitted(&self) {
        self.submitted.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records requests failed because their batch's search panicked.
    pub(crate) fn record_failed(&self, requests: usize) {
        self.failed.fetch_add(requests as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one executed batch: its live size, the work it cost, and
    /// the per-request latencies.
    pub(crate) fn record_batch(&self, live: usize, evals: u64, latencies: &[Duration]) {
        debug_assert!(live > 0, "empty batches are not executed");
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_queries
            .fetch_add(live as u64, Ordering::Relaxed);
        self.completed.fetch_add(live as u64, Ordering::Relaxed);
        self.distance_evals.fetch_add(evals, Ordering::Relaxed);
        {
            let mut hist = recover(&self.batch_hist);
            let slot = live.min(hist.len() - 1);
            hist[slot] += 1;
        }
        let mut latency = recover(&self.latency);
        for &sample in latencies {
            latency.record(sample);
        }
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let uptime = self.started.elapsed();
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let batched_queries = self.batched_queries.load(Ordering::Relaxed);
        let batch_size_histogram: Vec<BatchSizeBucket> = {
            let hist = recover(&self.batch_hist);
            hist.iter()
                .enumerate()
                .filter(|(_, &count)| count > 0)
                .map(|(batch_size, &count)| BatchSizeBucket {
                    batch_size: batch_size as u64,
                    count,
                })
                .collect()
        };
        let latency = recover(&self.latency).clone();
        let (cache_hits, cache_misses, cache_hit_rate) = recover(&self.cache)
            .as_ref()
            .map_or((0, 0, 0.0), |c| (c.hits(), c.misses(), c.hit_rate()));
        let cluster = recover(&self.cluster);
        let node_loads = cluster
            .as_ref()
            .map_or_else(Vec::new, |load| load.snapshot());
        let (degraded_queries, rerouted_groups, lost_groups) =
            cluster.as_ref().map_or((0, 0, 0), |load| {
                (
                    load.degraded_queries(),
                    load.rerouted_groups(),
                    load.lost_groups(),
                )
            });
        let (mean_replication, storage_overhead) = cluster.as_ref().map_or((0.0, 0.0), |load| {
            (load.mean_replication(), load.storage_overhead())
        });
        drop(cluster);
        let queue_depth = recover(&self.queue)
            .0
            .as_ref()
            .map_or(0, |queue| queue.depth() as u64);
        MetricsSnapshot {
            uptime_secs: uptime.as_secs_f64(),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            shed: self.shed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                batched_queries as f64 / batches as f64
            },
            batch_size_histogram,
            distance_evals: self.distance_evals.load(Ordering::Relaxed),
            throughput_qps: if uptime.as_secs_f64() > 0.0 {
                completed as f64 / uptime.as_secs_f64()
            } else {
                0.0
            },
            latency_mean_us: latency.mean_us(),
            latency_p50_us: latency.quantile_us(0.50),
            latency_p95_us: latency.quantile_us(0.95),
            latency_p99_us: latency.quantile_us(0.99),
            latency_p999_us: latency.quantile_us(0.999),
            latency_max_us: latency.max_us,
            cache_hits,
            cache_misses,
            cache_hit_rate,
            node_loads,
            degraded_queries,
            rerouted_groups,
            lost_groups,
            mean_replication,
            storage_overhead,
            queue_depth,
        }
    }
}

impl Collector for ServeMetrics {
    /// Exports the engine's counters, gauges and latency histogram as
    /// registry samples under the `rbc_serve_*` namespace, plus any
    /// tracked cache (`rbc_cache_*`) and cluster (`rbc_cluster_*`)
    /// counters — one registry, one exposition endpoint, every layer.
    fn collect(&self) -> Vec<MetricSample> {
        let mut out = vec![
            MetricSample::counter(
                "rbc_serve_submitted_total",
                self.submitted.load(Ordering::Relaxed),
            ),
            MetricSample::counter(
                "rbc_serve_completed_total",
                self.completed.load(Ordering::Relaxed),
            ),
            MetricSample::counter("rbc_serve_shed_total", self.shed.load(Ordering::Relaxed)),
            MetricSample::counter(
                "rbc_serve_rejected_total",
                self.rejected.load(Ordering::Relaxed),
            ),
            MetricSample::counter(
                "rbc_serve_failed_total",
                self.failed.load(Ordering::Relaxed),
            ),
            MetricSample::counter(
                "rbc_serve_batches_total",
                self.batches.load(Ordering::Relaxed),
            ),
            MetricSample::counter(
                "rbc_serve_batched_queries_total",
                self.batched_queries.load(Ordering::Relaxed),
            ),
            MetricSample::counter(
                "rbc_serve_distance_evals_total",
                self.distance_evals.load(Ordering::Relaxed),
            ),
        ];
        out.push(MetricSample {
            name: "rbc_serve_latency_us".to_owned(),
            labels: Vec::new(),
            value: MetricValue::Histogram(recover(&self.latency).trace_snapshot()),
        });
        if let Some(queue) = recover(&self.queue).0.as_ref() {
            out.push(MetricSample::gauge(
                "rbc_serve_queue_depth",
                queue.depth() as f64,
            ));
        }
        if let Some(cache) = recover(&self.cache).as_ref() {
            out.extend(cache.collect());
        }
        if let Some(cluster) = recover(&self.cluster).as_ref() {
            out.extend(cluster.collect());
        }
        out
    }
}

/// One bar of the achieved-batch-size histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchSizeBucket {
    /// Live batch size.
    pub batch_size: u64,
    /// Number of executed batches of exactly this size.
    pub count: u64,
}

/// A serialisable point-in-time copy of an engine's metrics.
///
/// Round-trips through `serde_json` (`Serialize` and `Deserialize`), so
/// downstream tooling can reload the reports `serve_bench` writes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Seconds since the engine started.
    pub uptime_secs: f64,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered (their batch was executed).
    pub completed: u64,
    /// Requests shed because their deadline expired before execution.
    pub shed: u64,
    /// Non-blocking submissions rejected because the queue was full.
    pub rejected: u64,
    /// Requests failed because the index panicked executing their batch.
    pub failed: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Mean live queries per executed batch — the coalescing the paper's
    /// batching economics depend on; 1.0 means no coalescing happened.
    pub mean_batch_size: f64,
    /// Histogram of achieved (live) batch sizes; only non-empty bars.
    pub batch_size_histogram: Vec<BatchSizeBucket>,
    /// Total distance evaluations spent by executed batches.
    pub distance_evals: u64,
    /// Completed queries per second of uptime.
    pub throughput_qps: f64,
    /// Mean submission-to-completion latency, microseconds.
    pub latency_mean_us: f64,
    /// Median latency (bucket upper bound), microseconds.
    pub latency_p50_us: u64,
    /// 95th-percentile latency, microseconds.
    pub latency_p95_us: u64,
    /// 99th-percentile latency, microseconds.
    pub latency_p99_us: u64,
    /// 99.9th-percentile latency, microseconds — the deep-tail figure the
    /// perf-trajectory harness records; resolution is the same
    /// power-of-two bucketing as the other percentiles.
    pub latency_p999_us: u64,
    /// Worst observed latency, microseconds.
    pub latency_max_us: u64,
    /// Answer-cache hits (0 when no cache is tracked; see
    /// [`ServeMetrics::track_cache`]).
    pub cache_hits: u64,
    /// Answer-cache misses (0 when no cache is tracked).
    pub cache_misses: u64,
    /// Fraction of lookups served from the answer cache (0.0 when no
    /// cache is tracked or before any lookup).
    pub cache_hit_rate: f64,
    /// Cumulative per-node load of the served sharded index — one record
    /// per cluster node, so shard skew is observable from the serving
    /// layer. Empty unless a cluster is tracked (see
    /// [`ServeMetrics::track_cluster`]).
    pub node_loads: Vec<NodeLoad>,
    /// Queries answered with a flagged partial (degraded) result because
    /// an unreplicated shard was down (0 when no cluster is tracked) —
    /// the serving-side view of the degradation contract.
    pub degraded_queries: u64,
    /// Groups re-routed to a surviving replica after a mid-batch node
    /// failure (0 when no cluster is tracked).
    pub rerouted_groups: u64,
    /// Groups lost outright because no live replica existed (0 when no
    /// cluster is tracked).
    pub lost_groups: u64,
    /// Mean replicas per ownership list of the served placement (1.0 =
    /// single-owner; 0.0 when no cluster is tracked).
    pub mean_replication: f64,
    /// Stored points over primary points of the served placement (1.0 =
    /// no replica storage; 0.0 when no cluster is tracked).
    pub storage_overhead: f64,
    /// Requests pending in the submission queue at snapshot time (a
    /// gauge). 0 before an engine registered its queue, and on
    /// deserialising reports written without the field.
    #[serde(default)]
    pub queue_depth: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded() {
        let mut h = LatencyHistogram::default();
        for us in [3u64, 10, 10, 50, 400, 10_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 6);
        let p50 = h.quantile_us(0.50);
        let p95 = h.quantile_us(0.95);
        let p99 = h.quantile_us(0.99);
        let p999 = h.quantile_us(0.999);
        assert!(
            p50 <= p95 && p95 <= p99 && p99 <= p999,
            "{p50} {p95} {p99} {p999}"
        );
        assert!(p999 <= h.max_us);
        assert!(h.mean_us() > 0.0);
        assert_eq!(LatencyHistogram::default().quantile_us(0.99), 0);
    }

    #[test]
    fn quantiles_interpolate_within_buckets_against_exact_values() {
        // 128 samples spread uniformly across one bucket ([1024, 2048)):
        // interpolation should land within a couple percent of the exact
        // order statistic, where the old upper-bound answer was a flat
        // 2047 for every percentile.
        let mut h = LatencyHistogram::default();
        let samples: Vec<u64> = (0..128).map(|i| 1024 + 8 * i).collect();
        for &us in &samples {
            h.record(Duration::from_micros(us));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.50, 0.95, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let exact = sorted[rank - 1];
            let approx = h.quantile_us(q);
            let err = (approx as f64 - exact as f64).abs();
            assert!(
                err <= 0.02 * exact as f64 + 8.0,
                "q={q}: interpolated {approx} vs exact {exact}"
            );
        }
        // A single sample reports (close to) itself, not its bucket's
        // upper bound: 1500 sits in [1024, 2048) and interpolation with
        // rank 1 of 1 reaches the bucket top, but the observed-max cap
        // pulls it back to the exact value.
        let mut one = LatencyHistogram::default();
        one.record(Duration::from_micros(1500));
        assert_eq!(one.quantile_us(0.99), 1500);
    }

    #[test]
    fn quantile_hits_the_right_bucket_for_a_bimodal_load() {
        let mut h = LatencyHistogram::default();
        // 90 fast samples (~8us), 10 slow (~8ms).
        for _ in 0..90 {
            h.record(Duration::from_micros(8));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(8));
        }
        assert!(h.quantile_us(0.50) < 100);
        assert!(h.quantile_us(0.95) > 4_000);
    }

    #[test]
    fn batch_accounting_feeds_the_snapshot() {
        let m = ServeMetrics::new(8);
        m.record_submitted();
        m.record_submitted();
        m.record_submitted();
        m.record_shed();
        m.record_batch(
            2,
            100,
            &[Duration::from_micros(40), Duration::from_micros(60)],
        );
        let s = m.snapshot();
        assert_eq!(s.submitted, 3);
        assert_eq!(s.completed, 2);
        assert_eq!(s.shed, 1);
        assert_eq!(s.batches, 1);
        assert_eq!(s.mean_batch_size, 2.0);
        assert_eq!(s.distance_evals, 100);
        assert_eq!(
            s.batch_size_histogram,
            vec![BatchSizeBucket {
                batch_size: 2,
                count: 1
            }]
        );
        assert!(s.latency_p50_us > 0);
        assert!(s.throughput_qps > 0.0);
    }

    #[test]
    fn oversized_batches_clamp_into_the_last_bar() {
        let m = ServeMetrics::new(4);
        m.record_batch(9, 1, &[Duration::from_micros(1)]);
        let s = m.snapshot();
        assert_eq!(s.batch_size_histogram[0].batch_size, 4);
    }

    #[test]
    fn snapshot_serialises_to_json() {
        let m = ServeMetrics::new(4);
        m.record_batch(3, 42, &[Duration::from_micros(5); 3]);
        m.track_cluster(Arc::new(ClusterLoad::new(2)));
        let json = serde_json::to_string(&m.snapshot()).unwrap();
        assert!(json.contains("\"mean_batch_size\""));
        assert!(json.contains("\"latency_p99_us\""));
        assert!(json.contains("\"batch_size_histogram\""));
        assert!(json.contains("\"cache_hit_rate\""));
        assert!(json.contains("\"node_loads\""));
    }

    #[test]
    fn snapshot_round_trips_through_the_serde_json_shim() {
        let m = ServeMetrics::new(8);
        for _ in 0..3 {
            m.record_submitted();
        }
        m.record_shed();
        m.record_batch(
            2,
            100,
            &[Duration::from_micros(40), Duration::from_micros(60)],
        );
        let load = Arc::new(ClusterLoad::with_placement(2, 1.5, 1.2));
        load.absorb(&[NodeLoad {
            node: 1,
            queries: 4,
            groups: 2,
            evals: 100,
            bytes_out: 640,
            bytes_in: 80,
        }]);
        load.record_outcome(1, 2, 0);
        m.track_cluster(load);
        let snapshot = m.snapshot();
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn poisoned_locks_recover_instead_of_panicking() {
        let m = Arc::new(ServeMetrics::new(4));
        m.record_batch(1, 10, &[Duration::from_micros(3)]);
        // Poison both histogram locks the way a panicking worker would.
        for poison in [true, false] {
            let m = Arc::clone(&m);
            let _ = std::thread::spawn(move || {
                let _latency = m.latency.lock().unwrap();
                let _hist = m.batch_hist.lock().unwrap();
                if poison {
                    panic!("poison the metrics locks");
                }
            })
            .join();
        }
        // Snapshots and further recording must keep working.
        assert_eq!(m.snapshot().completed, 1);
        m.record_batch(1, 10, &[Duration::from_micros(5)]);
        let s = m.snapshot();
        assert_eq!(s.completed, 2);
        assert_eq!(s.batches, 2);
        assert!(s.latency_p50_us > 0);
    }

    #[test]
    fn collector_exports_the_unified_namespace() {
        let m = ServeMetrics::new(8);
        m.record_submitted();
        m.record_batch(1, 42, &[Duration::from_micros(100)]);
        let counters = Arc::new(CacheCounters::default());
        counters.record_hits(2);
        counters.record_misses(1);
        m.track_cache(counters);
        m.track_cluster(Arc::new(ClusterLoad::new(2)));
        let samples = m.collect();
        let find = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing sample {name}"))
        };
        assert_eq!(
            find("rbc_serve_distance_evals_total").value,
            MetricValue::Counter(42)
        );
        match &find("rbc_serve_latency_us").value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 1);
                assert_eq!(h.sum, 100);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        // Tracked cache and cluster counters flow into the same sample
        // stream — one namespace across serve, cache and cluster layers.
        assert_eq!(find("rbc_cache_hits_total").value, MetricValue::Counter(2));
        assert!(samples
            .iter()
            .any(|s| s.name == "rbc_cluster_queries_total"));
    }

    #[test]
    fn untracked_cluster_reports_no_node_loads() {
        let m = ServeMetrics::new(4);
        let s = m.snapshot();
        assert!(s.node_loads.is_empty());
        assert_eq!(s.degraded_queries, 0);
        assert_eq!(s.rerouted_groups, 0);
        assert_eq!(s.lost_groups, 0);
        assert_eq!(s.mean_replication, 0.0);
        assert_eq!(s.storage_overhead, 0.0);
    }

    #[test]
    fn degradation_and_replica_distribution_flow_into_the_snapshot() {
        let m = ServeMetrics::new(4);
        let load = Arc::new(ClusterLoad::with_placement(3, 2.0, 1.8));
        m.track_cluster(Arc::clone(&load));
        let s = m.snapshot();
        assert_eq!(s.mean_replication, 2.0);
        assert_eq!(s.storage_overhead, 1.8);
        assert_eq!(s.degraded_queries, 0);
        // Outcomes recorded after registration show up live.
        load.record_outcome(4, 7, 2);
        let s = m.snapshot();
        assert_eq!(s.degraded_queries, 4);
        assert_eq!(s.rerouted_groups, 7);
        assert_eq!(s.lost_groups, 2);
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"degraded_queries\""));
        assert!(json.contains("\"mean_replication\""));
    }

    #[test]
    fn tracked_cluster_loads_flow_into_the_snapshot() {
        let m = ServeMetrics::new(4);
        let load = Arc::new(ClusterLoad::new(3));
        m.track_cluster(Arc::clone(&load));
        assert_eq!(m.snapshot().node_loads.len(), 3);
        // Loads are read live at snapshot time, so activity recorded
        // after registration must show up.
        load.absorb(&[NodeLoad {
            node: 1,
            queries: 4,
            groups: 2,
            evals: 100,
            bytes_out: 640,
            bytes_in: 80,
        }]);
        let s = m.snapshot();
        assert_eq!(s.node_loads[1].evals, 100);
        assert_eq!(s.node_loads[1].bytes_total(), 720);
        assert_eq!(s.node_loads[0], NodeLoad::idle(0));
    }

    /// A stand-in queue probe with a fixed depth.
    #[derive(Debug)]
    struct FakeQueue;

    impl QueueProbe for FakeQueue {
        fn depth(&self) -> usize {
            3
        }
    }

    #[test]
    fn tracked_queue_depth_flows_into_the_snapshot_and_collector() {
        let m = ServeMetrics::new(4);
        assert_eq!(m.snapshot().queue_depth, 0);
        assert!(m
            .collect()
            .iter()
            .all(|s| s.name != "rbc_serve_queue_depth"));
        m.track_queue(Arc::new(FakeQueue));
        let s = m.snapshot();
        assert_eq!(s.queue_depth, 3);
        // The snapshot round-trips with the depth included.
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        // Reports written without the field still deserialise (depth 0).
        let legacy = json.replace(",\"queue_depth\":3", "");
        assert_ne!(legacy, json, "field should have been stripped");
        let old: MetricsSnapshot = serde_json::from_str(&legacy).unwrap();
        assert_eq!(old.queue_depth, 0);
        // The collector exports one unlabelled gauge.
        let samples = m.collect();
        let depth = samples
            .iter()
            .find(|s| s.name == "rbc_serve_queue_depth")
            .expect("depth gauge exported");
        assert!(depth.labels.is_empty());
        assert_eq!(depth.value, MetricValue::Gauge(3.0));
    }

    #[test]
    fn untracked_cache_reports_zero_activity() {
        let m = ServeMetrics::new(4);
        let s = m.snapshot();
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 0);
        assert_eq!(s.cache_hit_rate, 0.0);
    }

    #[test]
    fn tracked_cache_counters_flow_into_the_snapshot() {
        let m = ServeMetrics::new(4);
        let counters = Arc::new(CacheCounters::default());
        m.track_cache(Arc::clone(&counters));
        assert_eq!(m.snapshot().cache_hits, 0);
        // Counters are read live at snapshot time, so activity recorded
        // after registration must show up.
        counters.record_hits(3);
        counters.record_misses(1);
        let s = m.snapshot();
        assert_eq!(s.cache_hits, 3);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hit_rate, 0.75);
    }
}
