//! The serving engine: producers, a micro-batching scheduler, and a pool
//! of batch-executing workers.
//!
//! Producers [`submit`](ServeHandle::submit) owned queries through a
//! cloneable handle and receive [`Ticket`]s. Worker threads close batches
//! under the size-or-linger policy of [`ServeConfig`], shed requests
//! whose deadline already expired, and execute each batch as *one*
//! coalesced [`SearchIndex::search_batch`] call — for brute-force-backed
//! indexes that is a single `BF(Q, X)` with the matrix–matrix structure
//! the paper's whole argument rests on, instead of `|Q|` anaemic
//! matrix–vector passes.
//!
//! Requests inside one batch may ask for different `k`; the batch is
//! executed at the largest requested `k` and each answer truncated, which
//! yields exactly the per-request `query_k` answers because every index
//! in the workspace returns ascending, deterministically tie-broken
//! neighbor lists.

use std::borrow::Borrow;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rbc_core::SearchIndex;

use crate::config::{ServeConfig, ServeError};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::queue::{Request, SubmitQueue};
use crate::ticket::{ServeReply, Ticket};

/// A cloneable producer handle onto a running [`Engine`].
///
/// `O` is the *owned* query payload (`Vec<f32>`, `String`, …); it only
/// needs to [`Borrow`] the index's borrowed query type, so producers hand
/// over their buffers and the scheduler coalesces them without copying.
/// Every handle, original or clone, pushes onto the engine's one bounded
/// submission queue.
#[derive(Debug)]
pub struct ServeHandle<O> {
    queue: Arc<SubmitQueue<O>>,
    metrics: Arc<ServeMetrics>,
}

impl<O> Clone for ServeHandle<O> {
    fn clone(&self) -> Self {
        Self {
            queue: Arc::clone(&self.queue),
            metrics: Arc::clone(&self.metrics),
        }
    }
}

impl<O> ServeHandle<O> {
    fn request(&self, query: O, k: usize, deadline: Option<Instant>) -> (Ticket, Request<O>) {
        let (ticket, cell) = Ticket::new();
        (
            ticket,
            Request {
                query,
                k,
                deadline,
                submitted_at: Instant::now(),
                ticket: cell,
            },
        )
    }

    fn enqueue(
        &self,
        query: O,
        k: usize,
        deadline: Option<Instant>,
        blocking: bool,
    ) -> Result<Ticket, ServeError> {
        if k == 0 {
            return Err(ServeError::InvalidRequest(
                "k must be at least 1 (got 0)".into(),
            ));
        }
        let (ticket, request) = self.request(query, k, deadline);
        // Count the submission *before* the request becomes visible to
        // workers: otherwise a fast worker could complete it first and a
        // concurrent snapshot would read completed > submitted.
        self.metrics.record_submitted();
        let pushed = if blocking {
            self.queue.push(request)
        } else {
            self.queue.try_push(request)
        };
        match pushed {
            Ok(()) => Ok(ticket),
            Err((_, error)) => {
                self.metrics.unrecord_submitted();
                if error == ServeError::QueueFull {
                    self.metrics.record_rejected();
                }
                Err(error)
            }
        }
    }

    /// Submits a query for its `k` nearest neighbors, blocking while the
    /// queue is full (backpressure).
    pub fn submit(&self, query: O, k: usize) -> Result<Ticket, ServeError> {
        self.enqueue(query, k, None, true)
    }

    /// Submits with a latency budget: if no worker has executed the
    /// query's batch within `budget` of submission, the request is shed
    /// and its ticket resolves to [`ServeError::DeadlineExceeded`].
    pub fn submit_with_deadline(
        &self,
        query: O,
        k: usize,
        budget: Duration,
    ) -> Result<Ticket, ServeError> {
        let deadline = Instant::now() + budget;
        self.enqueue(query, k, Some(deadline), true)
    }

    /// Non-blocking submission: fails with [`ServeError::QueueFull`]
    /// instead of waiting when the queue is at capacity.
    pub fn try_submit(&self, query: O, k: usize) -> Result<Ticket, ServeError> {
        self.enqueue(query, k, None, false)
    }

    /// A point-in-time copy of the engine's metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Requests currently waiting for a batch (diagnostic).
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }
}

/// The online query-serving engine.
///
/// Owns the worker pool; create one with [`Engine::start`], hand
/// [`handle`](Engine::handle)s to producers, and finish with
/// [`shutdown`](Engine::shutdown) (or just drop it — pending requests are
/// drained either way).
#[derive(Debug)]
pub struct Engine<I, O> {
    index: Arc<I>,
    queue: Arc<SubmitQueue<O>>,
    metrics: Arc<ServeMetrics>,
    workers: Vec<JoinHandle<()>>,
    config: ServeConfig,
}

impl<I, O> Engine<I, O>
where
    I: SearchIndex + Send + Sync + 'static,
    O: Borrow<I::Query> + Send + 'static,
{
    /// Validates `config`, takes ownership of `index`, and spawns the
    /// worker pool.
    pub fn start(index: I, config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let index = Arc::new(index);
        let queue = Arc::new(SubmitQueue::new(config.queue_capacity));
        let metrics = Arc::new(ServeMetrics::new(config.max_batch));
        // Expose the queue's depth through the metrics sink (snapshots
        // and the `rbc_serve_queue_depth` gauge).
        metrics.track_queue(Arc::clone(&queue) as _);
        // Publish this engine's metrics (and whatever cache/cluster
        // counters get tracked later) through the global trace registry,
        // so one exposition endpoint covers every layer. The slot is
        // replaced, not accumulated: the most recently started engine
        // owns it.
        rbc_trace::registry().register_collector("serve", Arc::clone(&metrics) as _);
        let workers = (0..config.workers)
            .map(|worker_id| {
                let index = Arc::clone(&index);
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("rbc-serve-{worker_id}"))
                    .spawn(move || {
                        while let Some(batch) = queue.next_batch(config.max_batch, config.linger) {
                            execute_batch(&*index, batch, &metrics);
                        }
                    })
                    .expect("failed to spawn serving worker")
            })
            .collect();
        Ok(Self {
            index,
            queue,
            metrics,
            workers,
            config,
        })
    }

    /// A new producer handle; clone it freely across threads.
    pub fn handle(&self) -> ServeHandle<O> {
        ServeHandle {
            queue: Arc::clone(&self.queue),
            metrics: Arc::clone(&self.metrics),
        }
    }

    /// The index being served.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The policy the engine was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// A point-in-time copy of the engine's metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Registers an answer cache's counters (see
    /// [`CachedIndex::counters`](crate::cache::CachedIndex::counters)) so
    /// metrics snapshots report cache hits, misses and the hit rate
    /// alongside throughput and latency.
    pub fn track_cache(&self, counters: Arc<crate::cache::CacheCounters>) {
        self.metrics.track_cache(counters);
    }

    /// Registers a sharded index's per-node load counters (see
    /// `DistributedRbc::load` in `rbc-distributed`) so metrics snapshots
    /// report each node's queries, distance evaluations and bytes
    /// alongside throughput and latency — the serving-side view of shard
    /// skew.
    pub fn track_cluster(&self, load: Arc<rbc_distributed::ClusterLoad>) {
        self.metrics.track_cluster(load);
    }

    /// Stops intake, drains every pending request, joins the workers, and
    /// returns the final metrics. Tickets of drained requests resolve
    /// normally (or as shed, if their deadline passed while queued).
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop();
        self.metrics.snapshot()
    }

    fn stop(&mut self) {
        self.queue.close();
        for worker in self.workers.drain(..) {
            worker.join().expect("serving worker panicked");
        }
    }
}

impl<I, O> Drop for Engine<I, O> {
    fn drop(&mut self) {
        // `shutdown` already joined the workers; this covers plain drops.
        self.queue.close();
        for worker in self.workers.drain(..) {
            // Don't double-panic while unwinding.
            let _ = worker.join();
        }
    }
}

/// Executes one closed batch: shed expired requests, run the survivors as
/// a single coalesced search, deliver answers and account everything.
fn execute_batch<I: SearchIndex, O: Borrow<I::Query>>(
    index: &I,
    batch: Vec<Request<O>>,
    metrics: &ServeMetrics,
) {
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    for request in batch {
        match request.deadline {
            Some(deadline) if deadline <= now => {
                metrics.record_shed();
                request.ticket.complete(Err(ServeError::DeadlineExceeded));
            }
            _ => live.push(request),
        }
    }
    if live.is_empty() {
        return;
    }

    // Root span for the batch; each request's queue wait (submission to
    // dispatch, covering queueing + linger) predates the span, so it is
    // recorded retroactively as a child interval.
    let batch_span = rbc_trace::span("serve.batch");
    let batch_ctx = batch_span.ctx();
    for request in &live {
        rbc_trace::record_interval("serve.queue_wait", batch_ctx, request.submitted_at, now);
    }

    let k_max = live.iter().map(|r| r.k).max().expect("nonempty");
    let queries: Vec<&I::Query> = live.iter().map(|r| r.query.borrow()).collect();
    // A panicking index (poisoned cache lock, dimension assert, a bug)
    // must not take the worker down with unresolved tickets: producers
    // blocked in `Ticket::wait` would hang forever. Catch the panic, fail
    // this batch's tickets, and keep serving. `AssertUnwindSafe` is sound
    // here because nothing of ours is mutated across the call — `index`
    // is only shared by reference and its own interior state (e.g. a
    // cache mutex) uses poisoning to surface the torn write.
    let searched = {
        let _search_span = rbc_trace::span_under("serve.search", batch_ctx);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            index.search_batch_flagged(&queries, k_max)
        }))
    };
    drop(queries);
    // A result-count mismatch is the same bug class as a panic (a broken
    // index implementation) and must fail the same way — zipping short
    // would leave the unmatched tickets uncompleted, hanging producers.
    let (answers, degraded, evals) = match searched {
        Ok((answers, degraded, evals))
            if answers.len() == live.len() && degraded.len() == live.len() =>
        {
            (answers, degraded, evals)
        }
        Ok(_) | Err(_) => {
            metrics.record_failed(live.len());
            for request in live {
                request.ticket.complete(Err(ServeError::BatchFailed));
            }
            return;
        }
    };

    let _respond_span = rbc_trace::span_under("serve.respond", batch_ctx);
    let batch_size = live.len();
    let mut latencies = Vec::with_capacity(batch_size);
    let mut replies = Vec::with_capacity(batch_size);
    for ((request, mut neighbors), degraded) in live.into_iter().zip(answers).zip(degraded) {
        neighbors.truncate(request.k);
        let latency = request.submitted_at.elapsed();
        latencies.push(latency);
        let reply = ServeReply {
            neighbors,
            latency,
            batch_size,
            degraded,
        };
        replies.push((request.ticket, reply));
    }
    // Counted before anyone is woken: a client holding its reply must find
    // it in the metrics.
    metrics.record_batch(batch_size, evals, &latencies);
    for (ticket, reply) in replies {
        ticket.complete(Ok(reply));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbc_core::{ExactRbc, RbcConfig, RbcParams};
    use rbc_metric::{Euclidean, VectorSet};

    fn cloud(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(dim);
            for _ in 0..dim {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                row.push(((state >> 33) as f32 / u32::MAX as f32) * 10.0 - 5.0);
            }
            rows.push(row);
        }
        VectorSet::from_rows(&rows)
    }

    fn toy_engine(config: ServeConfig) -> Engine<ExactRbc<VectorSet, Euclidean>, Vec<f32>> {
        let db = cloud(300, 4, 1);
        let index = ExactRbc::build(
            db,
            Euclidean,
            RbcParams::standard(300, 2),
            RbcConfig::default(),
        );
        Engine::start(index, config).expect("valid config")
    }

    #[test]
    fn invalid_config_never_starts() {
        let db = cloud(50, 3, 3);
        let index = ExactRbc::build(
            db,
            Euclidean,
            RbcParams::standard(50, 4),
            RbcConfig::default(),
        );
        let err = Engine::<_, Vec<f32>>::start(index, ServeConfig::default().with_max_batch(0))
            .expect_err("zero max_batch must be rejected");
        assert!(matches!(err, ServeError::InvalidConfig(_)));
    }

    #[test]
    fn served_answers_match_direct_queries() {
        let engine = toy_engine(ServeConfig::default().with_linger(Duration::from_micros(200)));
        let handle = engine.handle();
        let queries = cloud(20, 4, 5);
        let tickets: Vec<Ticket> = (0..queries.len())
            .map(|i| handle.submit(queries.point(i).to_vec(), 3).unwrap())
            .collect();
        for (qi, ticket) in tickets.into_iter().enumerate() {
            let reply = ticket.wait().expect("served");
            let (direct, _) = engine.index().query_k(queries.point(qi), 3);
            assert_eq!(reply.neighbors, direct, "query {qi}");
            assert!(reply.batch_size >= 1);
        }
        let snapshot = engine.shutdown();
        assert_eq!(snapshot.completed, 20);
        assert_eq!(snapshot.shed, 0);
    }

    #[test]
    fn zero_k_submissions_are_rejected() {
        let engine = toy_engine(ServeConfig::default());
        let err = engine.handle().submit(vec![0.0; 4], 0).unwrap_err();
        assert!(matches!(err, ServeError::InvalidRequest(_)));
    }

    #[test]
    fn expired_deadlines_are_shed_not_searched() {
        let engine = toy_engine(
            ServeConfig::default()
                .with_workers(1)
                .with_linger(Duration::from_millis(20)),
        );
        let handle = engine.handle();
        // A deadline that is already unmeetable: zero budget.
        let doomed = handle
            .submit_with_deadline(vec![0.0; 4], 1, Duration::ZERO)
            .unwrap();
        assert_eq!(doomed.wait(), Err(ServeError::DeadlineExceeded));
        let snapshot = engine.shutdown();
        assert_eq!(snapshot.shed, 1);
        assert_eq!(snapshot.completed, 0);
    }

    #[test]
    fn mixed_k_batches_truncate_per_request() {
        let engine = toy_engine(
            ServeConfig::default()
                .with_workers(1)
                .with_linger(Duration::from_millis(30))
                .with_max_batch(8),
        );
        let handle = engine.handle();
        let queries = cloud(4, 4, 6);
        let ks = [1usize, 5, 2, 4];
        let tickets: Vec<Ticket> = ks
            .iter()
            .enumerate()
            .map(|(i, &k)| handle.submit(queries.point(i).to_vec(), k).unwrap())
            .collect();
        for ((qi, ticket), &k) in tickets.into_iter().enumerate().zip(&ks) {
            let reply = ticket.wait().unwrap();
            assert_eq!(reply.neighbors.len(), k);
            let (direct, _) = engine.index().query_k(queries.point(qi), k);
            assert_eq!(reply.neighbors, direct);
        }
        drop(engine); // exercise Drop-based shutdown
    }

    #[test]
    fn shutdown_drains_pending_requests() {
        let engine = toy_engine(
            ServeConfig::default()
                .with_workers(1)
                // A very long linger: only shutdown's drain can release a
                // partial batch this fast.
                .with_linger(Duration::from_secs(3600))
                .with_max_batch(1024),
        );
        let handle = engine.handle();
        let tickets: Vec<Ticket> = (0..5)
            .map(|i| handle.submit(vec![i as f32; 4], 1).unwrap())
            .collect();
        let snapshot = engine.shutdown();
        assert_eq!(snapshot.completed, 5);
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        // After shutdown the handle refuses new work.
        assert_eq!(
            handle.submit(vec![0.0; 4], 1).unwrap_err(),
            ServeError::Shutdown
        );
    }

    /// An index that panics on "poisonous" queries (negative first
    /// coordinate), for exercising the worker's panic containment.
    struct PanickyIndex;

    impl SearchIndex for PanickyIndex {
        type Query = [f32];

        fn size(&self) -> usize {
            1
        }

        fn search(&self, query: &[f32], _k: usize) -> (Vec<rbc_bruteforce::Neighbor>, u64) {
            assert!(query[0] >= 0.0, "poisonous query");
            (vec![rbc_bruteforce::Neighbor::new(0, 0.0)], 1)
        }
    }

    /// An index whose batched path returns the wrong number of results —
    /// the other "broken implementation" class the engine must contain.
    struct ShortIndex;

    impl SearchIndex for ShortIndex {
        type Query = [f32];

        fn size(&self) -> usize {
            1
        }

        fn search(&self, _query: &[f32], _k: usize) -> (Vec<rbc_bruteforce::Neighbor>, u64) {
            (vec![rbc_bruteforce::Neighbor::new(0, 0.0)], 1)
        }

        fn search_batch(
            &self,
            _queries: &[&[f32]],
            _k: usize,
        ) -> (Vec<Vec<rbc_bruteforce::Neighbor>>, u64) {
            (Vec::new(), 0) // always short: drops every answer
        }
    }

    #[test]
    fn a_short_batch_result_fails_every_ticket_instead_of_hanging() {
        let engine = Engine::start(
            ShortIndex,
            ServeConfig::default()
                .with_workers(1)
                .with_max_batch(4)
                .with_linger(Duration::from_millis(5)),
        )
        .expect("valid config");
        let handle = engine.handle();
        let a = handle.submit(vec![0.0f32], 1).unwrap();
        let b = handle.submit(vec![1.0f32], 1).unwrap();
        assert_eq!(a.wait(), Err(ServeError::BatchFailed));
        assert_eq!(b.wait(), Err(ServeError::BatchFailed));
        let snapshot = engine.shutdown();
        assert_eq!(snapshot.failed, 2);
        assert_eq!(snapshot.completed, 0);
    }

    #[test]
    fn a_panicking_search_fails_its_batch_but_not_the_engine() {
        let engine = Engine::start(
            PanickyIndex,
            ServeConfig::default()
                .with_workers(1)
                .with_max_batch(1)
                .with_linger(Duration::ZERO),
        )
        .expect("valid config");
        let handle = engine.handle();
        let doomed = handle.submit(vec![-1.0f32], 1).unwrap();
        assert_eq!(doomed.wait(), Err(ServeError::BatchFailed));
        // The worker survived the panic and keeps serving.
        let fine = handle.submit(vec![1.0f32], 1).unwrap();
        assert_eq!(fine.wait().unwrap().neighbors[0].index, 0);
        let snapshot = engine.shutdown();
        assert_eq!(snapshot.failed, 1);
        assert_eq!(snapshot.completed, 1);
    }

    #[test]
    fn tracked_cache_shows_up_in_snapshots() {
        let db = cloud(200, 4, 9);
        let index = ExactRbc::build(
            db.clone(),
            Euclidean,
            RbcParams::standard(200, 10),
            RbcConfig::default(),
        );
        let cached = crate::cache::CachedIndex::new(index, 32);
        let counters = cached.counters();
        let engine = Engine::start(
            cached,
            ServeConfig::default().with_linger(Duration::from_micros(100)),
        )
        .expect("valid config");
        engine.track_cache(counters);
        let handle = engine.handle();
        let hot = db.point(7).to_vec();
        for _ in 0..6 {
            handle.submit(hot.clone(), 1).unwrap().wait().unwrap();
        }
        let snapshot = engine.shutdown();
        assert_eq!(snapshot.cache_hits + snapshot.cache_misses, 6);
        assert!(snapshot.cache_misses >= 1);
        assert!(snapshot.cache_hits >= 1, "repeated query never hit");
        assert!(snapshot.cache_hit_rate > 0.0 && snapshot.cache_hit_rate < 1.0);
    }

    #[test]
    fn serving_a_sharded_index_reports_per_node_loads() {
        let db = cloud(400, 4, 11);
        let index = ExactRbc::build(
            db.clone(),
            Euclidean,
            RbcParams::standard(400, 12),
            RbcConfig::default(),
        );
        let sharded = rbc_distributed::DistributedRbc::from_exact(
            index,
            rbc_distributed::ClusterConfig::with_nodes(4),
            db.dim(),
        );
        let load = sharded.load();
        let engine = Engine::start(
            sharded,
            ServeConfig::default().with_linger(Duration::from_micros(100)),
        )
        .expect("valid config");
        engine.track_cluster(load);
        let handle = engine.handle();
        for i in 0..20 {
            let reply = handle
                .submit(db.point(i).to_vec(), 2)
                .unwrap()
                .wait()
                .expect("served");
            // Self-queries on duplicate-free data recover the point.
            assert_eq!(reply.neighbors[0].index, i);
        }
        let snapshot = engine.shutdown();
        assert_eq!(snapshot.completed, 20);
        assert_eq!(snapshot.node_loads.len(), 4);
        let routed: u64 = snapshot.node_loads.iter().map(|l| l.queries).sum();
        let moved: u64 = snapshot.node_loads.iter().map(|l| l.bytes_total()).sum();
        assert!(routed > 0, "no query ever reached a shard");
        assert!(moved > 0, "no bytes accounted on any link");
    }

    #[test]
    fn concurrent_producers_are_served_correctly() {
        let engine = toy_engine(
            ServeConfig::default()
                .with_workers(2)
                .with_linger(Duration::from_micros(200)),
        );
        let handle = engine.handle();
        let queries = cloud(32, 4, 13);
        // Eight producer threads, each with its own cloned handle,
        // submitting four queries each.
        std::thread::scope(|scope| {
            for producer in 0..8 {
                let handle = handle.clone();
                let queries = &queries;
                let index = engine.index();
                scope.spawn(move || {
                    for j in 0..4 {
                        let qi = producer * 4 + j;
                        let reply = handle
                            .submit(queries.point(qi).to_vec(), 3)
                            .unwrap()
                            .wait()
                            .expect("served");
                        let (direct, _) = index.query_k(queries.point(qi), 3);
                        assert_eq!(reply.neighbors, direct, "query {qi}");
                    }
                });
            }
        });
        let snapshot = engine.shutdown();
        assert_eq!(snapshot.submitted, 32);
        assert_eq!(snapshot.completed, 32);
        assert_eq!(snapshot.shed, 0);
        assert_eq!(snapshot.failed, 0);
        assert_eq!(snapshot.queue_depth, 0);
    }

    #[test]
    fn a_linger_too_long_for_the_clock_waits_for_size_or_shutdown() {
        let engine = toy_engine(
            ServeConfig::default()
                .with_workers(1)
                .with_max_batch(2)
                .with_linger(Duration::MAX),
        );
        let handle = engine.handle();
        let queries = cloud(3, 4, 17);
        let first = handle.submit(queries.point(0).to_vec(), 1).unwrap();
        // Let the worker find the lone request and wait on it.
        std::thread::sleep(Duration::from_millis(20));
        let second = handle.submit(queries.point(1).to_vec(), 1).unwrap();
        for ticket in [first, second] {
            assert_eq!(ticket.wait().expect("served").batch_size, 2);
        }
        let third = handle.submit(queries.point(2).to_vec(), 1).unwrap();
        let snapshot = engine.shutdown();
        assert_eq!(snapshot.completed, 3);
        assert_eq!(third.wait().expect("drained").batch_size, 1);
    }

    #[test]
    fn handles_are_cloneable_and_report_metrics() {
        let engine = toy_engine(ServeConfig::default());
        let handle = engine.handle();
        let clone = handle.clone();
        clone.submit(vec![1.0; 4], 1).unwrap().wait().unwrap();
        assert_eq!(handle.metrics().completed, 1);
        assert_eq!(handle.queue_depth(), 0);
    }
}
