//! The two online workloads: one generator thread keeps 32 requests
//! outstanding against an `Engine` (closed loop) — over an answer cache and
//! an exact RBC on one machine (`serve_local`), or over a 4-node replicated
//! cluster on loopback TCP (`serve_wire`).
//!
//! Closed, not open, loop on purpose: on two shared cores an open-loop
//! generator's own lateness would dominate the numbers. The consequence is
//! Little's law, `qps × mean latency ≈ 32`: throughput and latency move
//! together here, and neither workload makes the submission queue or the
//! tickets the bottleneck.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rbc_bruteforce::{BruteForce, Neighbor};
use rbc_core::{ExactRbc, RbcConfig, RbcParams, SearchIndex};
use rbc_distributed::net::{
    spawn_local_cluster, LocalWireCluster, NetConfig, NodeEndpoint, NodeShard, QueryReply,
    QueryRequest,
};
use rbc_distributed::{eval_skew, ClusterConfig, DistributedRbc, NodeLoad, PlacementPolicy};
use rbc_metric::{BlockedVectors, Euclidean, QueryBatch, VectorSet};
use rbc_serve::{
    CacheCounters, CachedIndex, Engine, MetricsSnapshot, ServeConfig, ServeHandle, Ticket,
};

use crate::check::{self, Tally};
use crate::estimator::{self, Round};
use crate::report::Metrics;
use crate::rng::{sub_seed, zipf_order};
use crate::run::{Checks, TracedPass};
use crate::spans::{Layer, SpanRec, SpanSink, TraceCtl};
use crate::workload::{calm_ns_per_unit, calm_time_ratio, Driver, PRODUCT_SEED};
use crate::wrappers::{TimedEndpoint, TimedIndex};

/// Requests the generator keeps in flight.
pub const OUTSTANDING: usize = 32;
/// Queries per brute-force reference call: the engine's `max_batch`.
const BRUTE_BATCH: usize = 32;
const NODES: usize = 4;
const CACHE_CAPACITY: usize = 1024;

#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    pub wire: bool,
    pub n: usize,
    pub k: usize,
    /// Distinct queries.
    pub pool: usize,
    /// Requests per round.
    pub round: usize,
    /// Rounds after which the request order repeats. One means every round
    /// does identical work; more are needed where a cache would otherwise
    /// learn a single round by heart.
    pub windows: usize,
    /// Cluster-Zipf concentration of the query distribution (0 = matched).
    pub concentration: f64,
    /// Zipf exponent of the request order over the pool; `None` cycles the
    /// pool in order, so nothing repeats within a round.
    pub zipf: Option<f64>,
}

pub const SERVE_LOCAL: ServeSpec = ServeSpec {
    wire: false,
    n: 50_000,
    k: 10,
    pool: 4096,
    round: 4096,
    windows: 16,
    concentration: 0.0,
    zipf: Some(1.1),
};

/// 1024 unique queries replayed every round rather than 4096 cycled across
/// four: with no cache in this stack uniqueness beyond a round buys nothing,
/// and identical rounds are what the calm quarter needs to rank fairly.
pub const SERVE_WIRE: ServeSpec = ServeSpec {
    wire: true,
    n: 50_000,
    k: 10,
    pool: 1024,
    round: 1024,
    windows: 1,
    concentration: 1.0,
    zipf: None,
};

fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_max_batch(32)
        .with_linger(Duration::from_micros(500))
        .with_workers(1)
        .with_queue_capacity(4096)
}

type Exact = ExactRbc<VectorSet, Euclidean>;
type Cluster = DistributedRbc<VectorSet, Euclidean>;

/// The few engine operations the benchmark needs, with the index type erased
/// (the traced pass serves wrapped indexes, the end-to-end pass bare ones).
trait EngineOps {
    fn handle(&self) -> ServeHandle<Vec<f32>>;
    fn metrics(&self) -> MetricsSnapshot;
    fn stop(self: Box<Self>);
}

impl<I: SearchIndex<Query = [f32]> + Send + Sync + 'static> EngineOps for Engine<I, Vec<f32>> {
    fn handle(&self) -> ServeHandle<Vec<f32>> {
        Engine::handle(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        Engine::metrics(self)
    }

    fn stop(self: Box<Self>) {
        self.shutdown();
    }
}

fn start_engine<I: SearchIndex<Query = [f32]> + Send + Sync + 'static>(
    index: I,
) -> Box<dyn EngineOps> {
    Box::new(
        Engine::<I, Vec<f32>>::start(index, serve_config())
            .expect("the serving configuration is valid"),
    )
}

/// What the traced pass adds to a stack.
struct Probes {
    outer: Arc<SpanSink>,
    inner: Option<Arc<SpanSink>>,
    endpoints: Vec<Arc<TimedEndpoint>>,
    captured_batches: Arc<Mutex<Vec<Vec<Vec<f32>>>>>,
}

/// What the engine serves.
enum Below {
    /// An answer cache over the exact index, in this process.
    Local {
        exact: Arc<Exact>,
        cache: Arc<CacheCounters>,
    },
    /// The sharded index over its node servers on loopback TCP.
    Wire {
        index: Arc<Cluster>,
        cluster: LocalWireCluster,
    },
}

/// A started serving stack: everything between "data in memory" and "ready
/// to answer".
pub struct Stack {
    engine: Box<dyn EngineOps>,
    below: Below,
    probes: Option<Probes>,
}

impl Stack {
    /// Builds the index over `db` and starts everything above it. With a
    /// `ctl` the benchmark's timers are placed on the `SearchIndex` and
    /// `NodeEndpoint` seams; without, the engine gets the bare product types.
    pub fn start(spec: &ServeSpec, db: VectorSet, ctl: Option<&Arc<TraceCtl>>) -> Self {
        let dim = db.dim();
        let exact = ExactRbc::build(
            db,
            Euclidean,
            RbcParams::standard(spec.n, PRODUCT_SEED),
            RbcConfig::default(),
        );
        if spec.wire {
            Self::start_wire(exact, dim, ctl)
        } else {
            Self::start_local(Arc::new(exact), ctl)
        }
    }

    fn start_local(exact: Arc<Exact>, ctl: Option<&Arc<TraceCtl>>) -> Self {
        let (engine, cache, probes) = match ctl {
            None => {
                let cached = CachedIndex::new(Arc::clone(&exact), CACHE_CAPACITY);
                let cache = cached.counters();
                (start_engine(cached), cache, None)
            }
            Some(ctl) => {
                let inner = TimedIndex::new(
                    Arc::clone(&exact),
                    Arc::clone(ctl),
                    "cache.inner_call",
                    Layer::InnerCall,
                );
                let inner_sink = inner.sink();
                let cached = CachedIndex::new(inner, CACHE_CAPACITY);
                let cache = cached.counters();
                let outer = TimedIndex::new(
                    cached,
                    Arc::clone(ctl),
                    "serve.index_call",
                    Layer::IndexCall,
                );
                let probes = Probes {
                    outer: outer.sink(),
                    inner: Some(inner_sink),
                    endpoints: Vec::new(),
                    captured_batches: outer.captured(),
                };
                (start_engine(outer), cache, Some(probes))
            }
        };
        Self {
            engine,
            below: Below::Local { exact, cache },
            probes,
        }
    }

    fn start_wire(exact: Exact, dim: usize, ctl: Option<&Arc<TraceCtl>>) -> Self {
        let sharded = DistributedRbc::from_exact_with_policy(
            exact,
            ClusterConfig::with_nodes(NODES),
            PlacementPolicy::Replicated { factor: 2 },
            dim,
        );
        let cluster = spawn_local_cluster(&sharded, NetConfig::default(), false)
            .expect("loopback cluster starts");
        let (engine, index, probes) = match ctl {
            None => {
                let index = Arc::new(sharded.with_endpoints(cluster.endpoints()));
                (start_engine(Arc::clone(&index)), index, None)
            }
            Some(ctl) => {
                let endpoints: Vec<Arc<TimedEndpoint>> = cluster
                    .endpoints()
                    .into_iter()
                    .map(|endpoint| Arc::new(TimedEndpoint::new(endpoint, Arc::clone(ctl))))
                    .collect();
                let as_dyn = endpoints
                    .iter()
                    .map(|e| Arc::clone(e) as Arc<dyn NodeEndpoint>)
                    .collect();
                let index = Arc::new(sharded.with_endpoints(as_dyn));
                let outer = TimedIndex::new(
                    Arc::clone(&index),
                    Arc::clone(ctl),
                    "dist.search_batch",
                    Layer::IndexCall,
                );
                let probes = Probes {
                    outer: outer.sink(),
                    inner: None,
                    endpoints,
                    captured_batches: outer.captured(),
                };
                (start_engine(outer), index, Some(probes))
            }
        };
        Self {
            engine,
            below: Below::Wire { index, cluster },
            probes,
        }
    }

    /// Drains the engine, joins its worker and stops the node servers.
    pub fn stop(self) {
        self.engine.stop();
        if let Below::Wire { cluster, .. } = self.below {
            cluster.shutdown();
        }
    }

    fn exact(&self) -> &Exact {
        match &self.below {
            Below::Local { exact, .. } => exact,
            Below::Wire { index, .. } => index.rbc(),
        }
    }

    pub fn database(&self) -> &VectorSet {
        self.exact().database()
    }

    pub fn build_evals(&self) -> u64 {
        self.exact().build_distance_evals()
    }

    /// The representatives and their blocked mirror (the stage-1 table).
    pub fn rep_table(&self) -> (&[usize], Option<&BlockedVectors>) {
        (self.exact().rep_indices(), self.exact().rep_blocked())
    }
}

/// Counters whose growth over the accounted phase the layer metrics report.
#[derive(Clone, Default)]
struct Counters {
    engine_completed: u64,
    engine_batches: u64,
    engine_evals: u64,
    cache: [u64; 4],
    connects: u64,
    wire_bytes: u64,
    node_loads: Vec<NodeLoad>,
    rerouted: u64,
    degraded: u64,
}

pub struct ServeDriver<'a> {
    spec: ServeSpec,
    stack: &'a Stack,
    handle: ServeHandle<Vec<f32>>,
    pool: &'a VectorSet,
    /// The pool's rows, for the brute-force reference calls.
    rows: Vec<&'a [f32]>,
    /// Pool index of each request, `spec.windows` rounds long.
    order: Vec<u32>,
    /// The window of `order` the next round sends.
    window: usize,
    truth: Vec<Vec<Neighbor>>,
    /// `BruteForce::knn` calls per reference round (sized at start to last
    /// about as long as a measured round).
    brute_calls: usize,
    bf: BruteForce,
    ctl: Arc<TraceCtl>,
    tally: Tally,
    spans: Vec<SpanRec>,
    /// Duration of each `submit` call of the traced rounds.
    submit_ns: Vec<u64>,
    /// Reply latencies of the traced rounds.
    traced_lat_ns: Vec<u64>,
    baseline: Counters,
    accounted_requests: u64,
    /// Frame bytes the endpoint timers saw and bytes the sockets counted
    /// over the capture round.
    captured_bytes: Option<(u64, u64)>,
}

impl<'a> ServeDriver<'a> {
    pub fn new(
        spec: ServeSpec,
        stack: &'a Stack,
        pool: &'a VectorSet,
        truth: Vec<Vec<Neighbor>>,
        seed: u64,
        ctl: Arc<TraceCtl>,
    ) -> Self {
        let order = match spec.zipf {
            Some(exponent) => zipf_order(
                spec.pool,
                exponent,
                spec.round * spec.windows,
                sub_seed(seed, 3),
            ),
            None => (0..spec.round * spec.windows)
                .map(|i| (i % spec.pool) as u32)
                .collect(),
        };
        let mut driver = Self {
            spec,
            stack,
            handle: stack.engine.handle(),
            pool,
            rows: crate::workload::rows(pool),
            order,
            window: 0,
            truth,
            brute_calls: 1,
            bf: BruteForce::new(),
            ctl,
            tally: Tally::default(),
            spans: Vec::new(),
            submit_ns: Vec::new(),
            traced_lat_ns: Vec::new(),
            baseline: Counters::default(),
            accounted_requests: 0,
            captured_bytes: None,
        };
        // Size the reference round: at least 50 ms of brute force.
        let one_call = (0..3)
            .map(|_| driver.brute_round().wall_ns)
            .min()
            .expect("three calls");
        driver.brute_calls = (60_000_000 / one_call.max(1)).clamp(1, 128) as usize;
        driver
    }

    fn counters(&self) -> Counters {
        let engine = self.stack.engine.metrics();
        let mut now = Counters {
            engine_completed: engine.completed,
            engine_batches: engine.batches,
            engine_evals: engine.distance_evals,
            ..Counters::default()
        };
        match &self.stack.below {
            Below::Local { cache, .. } => {
                now.cache = [
                    cache.hits(),
                    cache.misses(),
                    cache.admitted(),
                    cache.rejected(),
                ];
            }
            Below::Wire { index, cluster } => {
                now.wire_bytes = cluster.wire_bytes();
                now.connects = cluster
                    .clients()
                    .iter()
                    .map(|c| {
                        c.counters()
                            .connects
                            .load(std::sync::atomic::Ordering::Relaxed)
                    })
                    .sum();
                let load = index.load();
                now.node_loads = load.snapshot();
                now.rerouted = load.rerouted_groups();
                now.degraded = load.degraded_queries();
            }
        }
        now
    }

    /// Waits for the oldest outstanding request and checks its reply.
    fn reap(
        &mut self,
        inflight: &mut VecDeque<(Ticket, u32, Instant)>,
        lat_ns: &mut Vec<u64>,
        tracing: bool,
        round_id: u64,
    ) {
        let (ticket, qi, submitted) = inflight.pop_front().expect("caller checked");
        match ticket.wait() {
            Ok(reply) => {
                let latency = reply.latency.as_nanos() as u64;
                lat_ns.push(latency);
                let ok = !reply.degraded
                    && check::matches_truth(&reply.neighbors, &self.truth[qi as usize]);
                self.tally.record(ok);
                if tracing {
                    let start_ns = self.ctl.ns_of(submitted);
                    self.spans.push(SpanRec {
                        id: self.ctl.next_id(),
                        parent: round_id,
                        name: "engine.request",
                        layer: Layer::Request,
                        batch: round_id,
                        items: 1,
                        start_ns,
                        end_ns: start_ns + latency,
                    });
                }
            }
            Err(_) => self.tally.record(false),
        }
    }
}

impl ServeDriver<'_> {
    /// The closed loop: sends the requests `order` names, 32 outstanding,
    /// each reply checked against truth; returns when all have been answered.
    fn send(&mut self, order: &[u32]) -> Round {
        let tracing = self.ctl.enabled();
        let round_id = self.ctl.next_id();
        self.ctl
            .round_span
            .store(round_id, std::sync::atomic::Ordering::SeqCst);
        let mut lat_ns = Vec::with_capacity(order.len());
        let mut inflight = VecDeque::with_capacity(OUTSTANDING);
        let start = Instant::now();
        for &qi in order {
            if inflight.len() == OUTSTANDING {
                self.reap(&mut inflight, &mut lat_ns, tracing, round_id);
            }
            let query = self.pool.point(qi as usize).to_vec();
            let submitted = Instant::now();
            match self.handle.submit(query, self.spec.k) {
                Ok(ticket) => inflight.push_back((ticket, qi, submitted)),
                Err(_) => self.tally.record(false),
            }
            if tracing {
                self.submit_ns.push(submitted.elapsed().as_nanos() as u64);
            }
        }
        while !inflight.is_empty() {
            self.reap(&mut inflight, &mut lat_ns, tracing, round_id);
        }
        let end = Instant::now();
        if tracing {
            self.traced_lat_ns.extend_from_slice(&lat_ns);
            self.spans.push(SpanRec {
                id: round_id,
                parent: 0,
                name: "bench.round",
                layer: Layer::Round,
                batch: round_id,
                items: order.len() as u64,
                start_ns: self.ctl.ns_of(start),
                end_ns: self.ctl.ns_of(end),
            });
        }
        self.accounted_requests += order.len() as u64;
        Round {
            wall_ns: (end - start).as_nanos() as u64,
            queries: order.len() as u64,
            lat_ns,
        }
    }
}

impl Driver for ServeDriver<'_> {
    fn round(&mut self) -> Round {
        let order = std::mem::take(&mut self.order);
        let from = (self.window % self.spec.windows) * self.spec.round;
        self.window += 1;
        let round = self.send(&order[from..from + self.spec.round]);
        self.order = order;
        round
    }

    /// The engine is idle meanwhile: the round before has drained.
    fn brute_round(&mut self) -> Round {
        let db = self.stack.database();
        let start = Instant::now();
        for call in 0..self.brute_calls {
            let from = (call * BRUTE_BATCH) % (self.rows.len() - BRUTE_BATCH + 1);
            let batch = QueryBatch::new(&self.rows[from..from + BRUTE_BATCH]);
            black_box(self.bf.knn(&batch, db, &Euclidean, self.spec.k));
        }
        Round {
            wall_ns: start.elapsed().as_nanos() as u64,
            queries: (self.brute_calls * BRUTE_BATCH) as u64,
            lat_ns: Vec::new(),
        }
    }

    /// Every distinct query once through the engine, in pool order.
    fn verify(&mut self) -> f64 {
        let before = self.tally;
        let pool_order: Vec<u32> = (0..self.spec.pool as u32).collect();
        self.send(&pool_order);
        let (attempted, failed) = (
            self.tally.attempted - before.attempted,
            self.tally.failed - before.failed,
        );
        // Replies equal to truth neighbour for neighbour have recall 1.
        (attempted - failed) as f64 / attempted.max(1) as f64
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn take_spans(&mut self) -> Vec<SpanRec> {
        let mut spans = std::mem::take(&mut self.spans);
        if let Some(probes) = &self.stack.probes {
            spans.extend(probes.outer.take());
            if let Some(inner) = &probes.inner {
                spans.extend(inner.take());
            }
            for endpoint in &probes.endpoints {
                spans.extend(endpoint.take_spans());
            }
        }
        spans
    }

    fn begin_accounting(&mut self) {
        self.baseline = self.counters();
        self.accounted_requests = 0;
    }

    fn capture_round(&mut self) {
        let Below::Wire { cluster, .. } = &self.stack.below else {
            return;
        };
        let wire_before = cluster.wire_bytes();
        self.ctl.set_capture(true);
        self.ctl.set_enabled(true);
        self.round();
        self.ctl.set_enabled(false);
        self.ctl.set_capture(false);
        let on_socket = cluster.wire_bytes() - wire_before;
        let probes = self
            .stack
            .probes
            .as_ref()
            .expect("capture needs the traced stack");
        let seen: u64 = probes.endpoints.iter().map(|e| e.frame_bytes()).sum();
        self.captured_bytes = Some((seen, on_socket));
    }

    fn layer_metrics(&mut self, pass: &TracedPass, m: &mut Metrics, checks: &mut Checks) {
        let now = self.counters();
        let base = self.baseline.clone();
        let completed = (now.engine_completed - base.engine_completed) as f64;
        let batches = (now.engine_batches - base.engine_batches).max(1) as f64;
        if now.engine_completed - base.engine_completed != self.accounted_requests {
            checks.hard(format!(
                "the engine completed {} requests, the generator sent {}",
                now.engine_completed - base.engine_completed,
                self.accounted_requests
            ));
        }

        // --- rbc-serve: from the timers on the SearchIndex seam ---------
        let by_layer = |layer: Layer| -> Vec<&SpanRec> {
            pass.spans.iter().filter(|s| s.layer == layer).collect()
        };
        let outer = by_layer(Layer::IndexCall);
        let outer_ns: u64 = outer.iter().map(|s| s.dur_ns()).sum();
        m.set("serve.batch_size_mean", completed / batches);
        m.set(
            "serve.search_busy_share",
            outer_ns as f64 / pass.traced_wall_ns.max(1) as f64,
        );
        let mut outer_durs: Vec<u64> = outer.iter().map(|s| s.dur_ns()).collect();
        outer_durs.sort_unstable();
        let mut traced_lat = std::mem::take(&mut self.traced_lat_ns);
        traced_lat.sort_unstable();
        if let (Ok(lat_p50), Ok(call_p50)) = (
            estimator::percentile(&traced_lat, 0.5),
            estimator::percentile(&outer_durs, 0.5),
        ) {
            m.set(
                "serve.outside_index_us_p50",
                (lat_p50 as f64 - call_p50 as f64) / 1e3,
            );
        }
        let mut submit = std::mem::take(&mut self.submit_ns);
        submit.sort_unstable();
        if let Ok(p50) = estimator::percentile(&submit, 0.5) {
            m.set("serve.submit_ns_p50", p50 as f64);
        }
        if let Ok(p99) = estimator::percentile(&pass.untraced.calm_lat_ns, 0.99) {
            m.set("serve.lat_p99_us", p99 as f64 / 1e3);
        }

        match &self.stack.below {
            Below::Local { exact, .. } => self.cache_metrics(exact, pass, &now, &base, m, checks),
            Below::Wire { index, .. } => self.cluster_metrics(
                index, pass, &now, &base, completed, batches, &outer, m, checks,
            ),
        }
    }
}

impl ServeDriver<'_> {
    fn cache_metrics(
        &self,
        exact: &Arc<Exact>,
        pass: &TracedPass,
        now: &Counters,
        base: &Counters,
        m: &mut Metrics,
        checks: &mut Checks,
    ) {
        let delta = |i: usize| (now.cache[i] - base.cache[i]) as f64;
        let (hits, misses, admitted, rejected) = (delta(0), delta(1), delta(2), delta(3));
        m.set("serve.cache_hit_rate", hits / (hits + misses).max(1.0));
        m.set(
            "serve.cache_admit_share",
            admitted / (admitted + rejected).max(1.0),
        );
        // Conservation: every request is exactly one cache lookup.
        if (hits + misses) as u64 != self.accounted_requests {
            checks.hard(format!(
                "cache hits + misses = {}, requests = {}",
                hits + misses,
                self.accounted_requests
            ));
        }
        let inner: Vec<&SpanRec> = pass
            .spans
            .iter()
            .filter(|s| s.layer == Layer::InnerCall)
            .collect();
        if !inner.is_empty() {
            let calls = inner.len() as f64;
            m.set(
                "serve.miss_batch_mean",
                inner.iter().map(|s| s.items).sum::<u64>() as f64 / calls,
            );
            m.set(
                "serve.inner_us_per_call",
                inner.iter().map(|s| s.dur_ns()).sum::<u64>() as f64 / calls / 1e3,
            );
        }

        // A hit, measured directly: 32 cached queries through a cache of
        // the engine's kind over the same index.
        let rows = &self.rows;
        let hot = &rows[..BRUTE_BATCH];
        let cached = CachedIndex::new(Arc::clone(exact), CACHE_CAPACITY);
        cached.search_batch(hot, self.spec.k);
        let hit_ns = calm_ns_per_unit(pass.probe_slice / 2, 8, || {
            for _ in 0..64 {
                black_box(cached.search_batch(hot, self.spec.k));
            }
            64 * BRUTE_BATCH as u64
        });
        m.set("serve.cache_hit_ns", hit_ns);

        // The miss path: the index called with batches of four.
        let fours: Vec<&[&[f32]]> = rows[..64].chunks(4).collect();
        let b4_ns = calm_ns_per_unit(pass.probe_slice / 2, 8, || {
            for four in &fours {
                black_box(exact.search_batch(four, self.spec.k));
            }
            (fours.len() * 4) as u64
        });
        m.set("core.b4_us_per_query", b4_ns / 1e3);
        let evals = (now.engine_evals - base.engine_evals) as f64;
        m.set("core.evals_per_query", evals / misses.max(1.0));
    }

    #[allow(clippy::too_many_arguments)]
    fn cluster_metrics(
        &self,
        index: &Cluster,
        pass: &TracedPass,
        now: &Counters,
        base: &Counters,
        completed: f64,
        batches: f64,
        outer: &[&SpanRec],
        m: &mut Metrics,
        checks: &mut Checks,
    ) {
        let probes = self
            .stack
            .probes
            .as_ref()
            .expect("layer metrics need the traced stack");

        // --- counters -----------------------------------------------------
        m.set(
            "dist.connects_per_batch",
            (now.connects - base.connects) as f64 / batches,
        );
        m.set(
            "dist.wire_bytes_per_query",
            (now.wire_bytes - base.wire_bytes) as f64 / completed.max(1.0),
        );
        m.set(
            "dist.evals_per_query",
            (now.engine_evals - base.engine_evals) as f64 / completed.max(1.0),
        );
        let loads: Vec<NodeLoad> = now
            .node_loads
            .iter()
            .zip(&base.node_loads)
            .map(|(a, b)| NodeLoad {
                evals: a.evals - b.evals,
                ..NodeLoad::idle(a.node)
            })
            .collect();
        m.set("dist.eval_skew", eval_skew(&loads));
        m.set(
            "dist.rerouted_groups",
            (now.rerouted - base.rerouted) as f64,
        );
        m.set(
            "dist.degraded_queries",
            (now.degraded - base.degraded) as f64,
        );
        // Conservation: the frames the endpoint timers saw are the bytes
        // the sockets counted.
        match self.captured_bytes {
            Some((seen, on_socket)) if seen == on_socket => {}
            Some((seen, on_socket)) => checks.hard(format!(
                "endpoint timers saw {seen} frame bytes, the sockets counted {on_socket}"
            )),
            None => checks.hard("no capture round ran".into()),
        }

        // --- spans: cluster call, endpoints under it ----------------------
        let endpoints: Vec<&SpanRec> = pass
            .spans
            .iter()
            .filter(|s| s.layer == Layer::Endpoint)
            .collect();
        let calls = outer.len().max(1) as f64;
        let call_us = outer.iter().map(|s| s.dur_ns()).sum::<u64>() as f64 / calls / 1e3;
        let endpoint_us = endpoints.iter().map(|s| s.dur_ns()).sum::<u64>() as f64
            / endpoints.len().max(1) as f64
            / 1e3;
        m.set("dist.call_us_per_batch", call_us);
        m.set("dist.endpoint_us_per_call", endpoint_us);
        m.set(
            "dist.endpoint_calls_per_batch",
            endpoints.len() as f64 / calls,
        );
        // Coordinator self time: the call minus the part its endpoint calls
        // cover (they overlap, so take their union per batch).
        let mut by_batch: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for e in &endpoints {
            by_batch
                .entry(e.batch)
                .or_default()
                .push((e.start_ns, e.end_ns));
        }
        let covered: u64 = by_batch
            .values_mut()
            .map(|intervals| union_ns(intervals))
            .sum();
        let call_total: u64 = outer.iter().map(|s| s.dur_ns()).sum();
        m.set(
            "dist.coord_self_us_per_batch",
            call_total.saturating_sub(covered) as f64 / calls / 1e3,
        );

        // --- replays of the captured round ---------------------------------
        let captured: Vec<Vec<(QueryRequest, QueryReply)>> =
            probes.endpoints.iter().map(|e| e.take_captured()).collect();
        let exchanges: u64 = captured.iter().map(|c| c.len() as u64).sum();
        if exchanges == 0 {
            checks.hard("the capture round recorded no endpoint exchange".into());
            return;
        }
        // Node execution without the wire: the same requests through
        // `NodeShard::execute` in this process.
        let shards: Vec<NodeShard<Euclidean>> = (0..NODES)
            .map(|node| NodeShard::from_exact(index.rbc(), index.placement(), node))
            .collect();
        let node_ns = calm_ns_per_unit(pass.probe_slice, 4, || {
            for (node, exchanges) in captured.iter().enumerate() {
                for (request, _) in exchanges {
                    black_box(
                        shards[node]
                            .execute(request)
                            .expect("a captured request replays"),
                    );
                }
            }
            exchanges
        });
        m.set("dist.node_exec_us_per_call", node_ns / 1e3);
        m.set(
            "dist.wire_overhead_us_per_call",
            endpoint_us - node_ns / 1e3,
        );
        // The codec alone: both messages encoded and decoded once.
        let codec_ns = calm_ns_per_unit(pass.probe_slice / 2, 4, || {
            for (request, reply) in captured.iter().flatten() {
                black_box(QueryRequest::decode(&request.encode()).expect("round trip"));
                black_box(QueryReply::decode(&reply.encode()).expect("round trip"));
            }
            exchanges
        });
        m.set("dist.codec_us_per_call", codec_ns / 1e3);

        // The same batches through a closure-transport twin of the cluster.
        let twin = DistributedRbc::from_exact_with_placement(
            index.rbc().clone(),
            ClusterConfig::with_nodes(NODES),
            index.placement().clone(),
            self.pool.dim(),
        );
        let batches_seen = probes
            .captured_batches
            .lock()
            .expect("capture poisoned")
            .clone();
        let replay = |target: &Cluster| {
            for batch in &batches_seen {
                let refs: Vec<&[f32]> = batch.iter().map(Vec::as_slice).collect();
                black_box(target.search_batch_flagged(&refs, self.spec.k));
            }
        };
        m.set(
            "dist.wire_over_inproc",
            calm_time_ratio(pass.probe_slice, 3, || replay(index), || replay(&twin)),
        );
    }
}

/// Length of the union of intervals (sorted in place).
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut open: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        open = match open {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + open.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::union_ns;

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(&mut [(10, 30), (20, 40), (50, 60)]), 40);
        assert_eq!(union_ns(&mut [(5, 6)]), 1);
        assert_eq!(union_ns(&mut []), 0);
    }
}
