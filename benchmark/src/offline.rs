//! The two offline workloads: a caller that holds whole batches and calls
//! `query_batch_k` directly — `exact_batch` (the paper's Fig. 2 setting) and
//! `oneshot_batch` (Fig. 1 / Table 2).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rbc_bruteforce::{BruteForce, Neighbor};
use rbc_core::{BatchPlan, ExactRbc, OneShotRbc, RbcConfig, RbcParams, SearchStats};
use rbc_metric::{BlockedVectors, Dataset, Euclidean, QueryBatch, VectorSet};

use crate::check::{self, Tally};
use crate::estimator::Round;
use crate::refscan;
use crate::report::Metrics;
use crate::run::{Checks, TracedPass};
use crate::spans::{Layer, SpanRec, TraceCtl};
use crate::workload::{calm_ns_per_unit, calm_time_ratio, Driver, DIM, PRODUCT_SEED};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Exact,
    OneShot,
}

#[derive(Clone, Copy, Debug)]
pub struct OfflineSpec {
    pub kind: Kind,
    /// Database size.
    pub n: usize,
    pub k: usize,
    /// Queries per `query_batch_k` call.
    pub batch: usize,
    /// Distinct batches; one round calls each once, so every round does
    /// identical work.
    pub batches: usize,
}

/// n = 200 000 as in ROADMAP item 2's gap. Batches of 128, not 256: a call
/// takes ≈ 16 ms, and only at that size does a 20 s run put the 200 samples
/// into the calm quarter that a p95 needs.
pub const EXACT_BATCH: OfflineSpec = OfflineSpec {
    kind: Kind::Exact,
    n: 200_000,
    k: 10,
    batch: 128,
    batches: 4,
};

/// n = 100 000, not 200 000: the one-shot build (`BF(R, X)` keeping 4·√n
/// neighbours for each of 4·√n representatives) takes ≈ 6 s at 200 000 on
/// the 2-core host, and a run sets up three times.
pub const ONESHOT_BATCH: OfflineSpec = OfflineSpec {
    kind: Kind::OneShot,
    n: 100_000,
    k: 1,
    batch: 256,
    batches: 16,
};

impl OfflineSpec {
    pub fn distinct_queries(&self) -> usize {
        self.batch * self.batches
    }

    fn params(&self) -> RbcParams {
        let standard = RbcParams::standard(self.n, PRODUCT_SEED);
        match self.kind {
            Kind::Exact => standard,
            Kind::OneShot => {
                let s = 4 * standard.n_reps;
                standard.with_n_reps(s).with_list_size(s)
            }
        }
    }
}

pub enum OfflineIndex {
    Exact(ExactRbc<VectorSet, Euclidean>),
    OneShot(OneShotRbc<VectorSet, Euclidean>),
}

impl OfflineIndex {
    pub fn build(spec: &OfflineSpec, db: VectorSet, config: RbcConfig) -> Self {
        match spec.kind {
            Kind::Exact => Self::Exact(ExactRbc::build(db, Euclidean, spec.params(), config)),
            Kind::OneShot => Self::OneShot(OneShotRbc::build(db, Euclidean, spec.params(), config)),
        }
    }

    pub fn query_batch_k(&self, queries: &[&[f32]], k: usize) -> (Vec<Vec<Neighbor>>, SearchStats) {
        let batch = QueryBatch::new(queries);
        match self {
            Self::Exact(index) => index.query_batch_k(&batch, k),
            Self::OneShot(index) => index.query_batch_k(&batch, k),
        }
    }

    pub fn database(&self) -> &VectorSet {
        match self {
            Self::Exact(index) => index.database(),
            Self::OneShot(index) => index.database(),
        }
    }

    pub fn rep_indices(&self) -> &[usize] {
        match self {
            Self::Exact(index) => index.rep_indices(),
            Self::OneShot(index) => index.rep_indices(),
        }
    }

    pub fn rep_blocked(&self) -> Option<&BlockedVectors> {
        match self {
            Self::Exact(index) => index.rep_blocked(),
            Self::OneShot(index) => index.rep_blocked(),
        }
    }

    fn plan(&self, rep_dists: &[f64], k: usize) -> BatchPlan {
        match self {
            Self::Exact(index) => {
                BatchPlan::plan_exact(rep_dists, index.lists(), k, index.config())
            }
            Self::OneShot(index) => BatchPlan::plan_one_shot(rep_dists, index.lists().len()),
        }
    }

    pub fn build_evals(&self) -> u64 {
        match self {
            Self::Exact(index) => index.build_distance_evals(),
            Self::OneShot(index) => index.build_distance_evals(),
        }
    }
}

pub struct OfflineDriver<'a> {
    spec: OfflineSpec,
    index: &'a OfflineIndex,
    /// The distinct batches, as rows of the query set.
    batches: Vec<Vec<&'a [f32]>>,
    /// Brute-force truth, per batch and query.
    truth: Vec<Vec<Vec<Neighbor>>>,
    /// What every timed call must return: truth on the exact workload, the
    /// verification pass's own answers on the one-shot workload.
    expected: Vec<Vec<Vec<Neighbor>>>,
    ctl: Arc<TraceCtl>,
    bf: BruteForce,
    tally: Tally,
    spans: Vec<SpanRec>,
    /// Work counters of the untraced (`[0]`) and traced (`[1]`) rounds.
    stats: [SearchStats; 2],
}

impl<'a> OfflineDriver<'a> {
    pub fn new(
        spec: OfflineSpec,
        index: &'a OfflineIndex,
        queries: &'a VectorSet,
        truth: Vec<Vec<Neighbor>>,
        ctl: Arc<TraceCtl>,
    ) -> Self {
        let rows = crate::workload::rows(queries);
        let batches: Vec<Vec<&[f32]>> = rows.chunks(spec.batch).map(<[&[f32]]>::to_vec).collect();
        let truth: Vec<Vec<Vec<Neighbor>>> = truth
            .chunks(spec.batch)
            .map(<[Vec<Neighbor>]>::to_vec)
            .collect();
        assert_eq!(batches.len(), spec.batches);
        Self {
            spec,
            index,
            batches,
            expected: truth.clone(),
            truth,
            ctl,
            bf: BruteForce::new(),
            tally: Tally::default(),
            spans: Vec::new(),
            stats: [SearchStats::default(); 2],
        }
    }

    /// A one-shot answer cannot be held to brute-force truth, but it can be
    /// held to the database: each reported distance must be the real
    /// distance to the reported point, and no nearer than the true nearest.
    fn oneshot_answer_is_sound(
        &self,
        query: &[f32],
        answer: &[Neighbor],
        truth: &[Neighbor],
    ) -> bool {
        let flat = self.index.database().as_flat();
        !answer.is_empty()
            && answer.len() <= self.spec.k
            && answer.iter().all(|nb| {
                let real =
                    refscan::squared_l2(&flat[nb.index * DIM..(nb.index + 1) * DIM], query).sqrt();
                (real - nb.dist).abs() <= 1e-6 && nb.dist >= truth[0].dist - 1e-9
            })
    }
}

impl Driver for OfflineDriver<'_> {
    fn round(&mut self) -> Round {
        let tracing = self.ctl.enabled();
        let round_id = self.ctl.next_id();
        let mut lat_ns = Vec::with_capacity(self.batches.len());
        let mut answers = Vec::with_capacity(self.batches.len());
        let mut stats = SearchStats::default();
        let start = Instant::now();
        for batch in &self.batches {
            let call_start = Instant::now();
            let (result, call_stats) = self.index.query_batch_k(batch, self.spec.k);
            let call_end = Instant::now();
            lat_ns.push((call_end - call_start).as_nanos() as u64);
            stats.merge(&call_stats);
            answers.push(result);
            if tracing {
                self.spans.push(SpanRec {
                    id: self.ctl.next_id(),
                    parent: round_id,
                    name: "core.query_batch_k",
                    layer: Layer::IndexCall,
                    batch: round_id,
                    items: batch.len() as u64,
                    start_ns: self.ctl.ns_of(call_start),
                    end_ns: self.ctl.ns_of(call_end),
                });
            }
        }
        let end = Instant::now();
        if tracing {
            self.spans.push(SpanRec {
                id: round_id,
                parent: 0,
                name: "bench.round",
                layer: Layer::Round,
                batch: round_id,
                items: self.spec.distinct_queries() as u64,
                start_ns: self.ctl.ns_of(start),
                end_ns: self.ctl.ns_of(end),
            });
        }
        // Checked after the clock stopped: an offline caller's wait ends
        // when the call returns.
        for (got, expected) in answers.iter().zip(&self.expected) {
            for (answer, want) in got.iter().zip(expected) {
                let ok = match self.spec.kind {
                    Kind::Exact => check::matches_truth(answer, want),
                    Kind::OneShot => answer == want,
                };
                self.tally.record(ok);
            }
        }
        self.stats[usize::from(tracing)].merge(&stats);
        Round {
            wall_ns: (end - start).as_nanos() as u64,
            queries: self.spec.distinct_queries() as u64,
            lat_ns,
        }
    }

    fn brute_round(&mut self) -> Round {
        let batch = QueryBatch::new(&self.batches[0]);
        let start = Instant::now();
        black_box(
            self.bf
                .knn(&batch, self.index.database(), &Euclidean, self.spec.k),
        );
        Round {
            wall_ns: start.elapsed().as_nanos() as u64,
            queries: self.spec.batch as u64,
            lat_ns: Vec::new(),
        }
    }

    fn verify(&mut self) -> f64 {
        let mut all_answers = Vec::with_capacity(self.batches.len());
        for (b, batch) in self.batches.iter().enumerate() {
            let (answers, _) = self.index.query_batch_k(batch, self.spec.k);
            for (qi, answer) in answers.iter().enumerate() {
                let ok = match self.spec.kind {
                    Kind::Exact => check::matches_truth(answer, &self.truth[b][qi]),
                    Kind::OneShot => {
                        self.oneshot_answer_is_sound(batch[qi], answer, &self.truth[b][qi])
                    }
                };
                self.tally.record(ok);
            }
            all_answers.push(answers);
        }
        let flat_answers: Vec<Vec<Neighbor>> = all_answers.iter().flatten().cloned().collect();
        let flat_truth: Vec<Vec<Neighbor>> = self.truth.iter().flatten().cloned().collect();
        if self.spec.kind == Kind::OneShot {
            self.expected = all_answers;
        }
        check::recall(&flat_answers, &flat_truth, self.spec.k)
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn take_spans(&mut self) -> Vec<SpanRec> {
        std::mem::take(&mut self.spans)
    }

    fn layer_metrics(&mut self, pass: &TracedPass, m: &mut Metrics, checks: &mut Checks) {
        let n = self.spec.n as f64;
        let k = self.spec.k;
        let (plain, traced) = (self.stats[0], self.stats[1]);

        // Work counters, from the product's own `SearchStats`.
        let evals_per_query = plain.evals_per_query();
        m.set("core.evals_per_query", evals_per_query);
        m.set("core.eval_reduction", n / evals_per_query);
        m.set(
            "core.tile_passes_per_query",
            plain.list_tile_passes as f64 / plain.queries.max(1) as f64,
        );
        m.set("core.tile_sharing_factor", plain.tile_sharing_factor());
        if self.spec.kind == Kind::OneShot {
            m.set("core.oneshot_evals_per_query", evals_per_query);
            m.set(
                "core.oneshot_stage1_share",
                plain.rep_distance_evals as f64 / plain.total_distance_evals().max(1) as f64,
            );
            if let OfflineIndex::OneShot(index) = self.index {
                m.set(
                    "core.oneshot_list_entries",
                    index.total_list_entries() as f64,
                );
            }
        }
        // Conservation: tracing must not change the work. One-shot counts
        // repeat exactly; the exact search prunes against thresholds other
        // threads are still tightening, so its counts move with scheduling.
        let traced_evals = traced.evals_per_query();
        let tolerance = if self.spec.kind == Kind::OneShot {
            0.0
        } else {
            0.02
        };
        if (traced_evals - evals_per_query).abs() > tolerance * evals_per_query {
            checks.hard(format!(
                "evals per query differ between the untraced ({evals_per_query}) and traced ({traced_evals}) rounds"
            ));
        }

        // Time per query and what it buys.
        let batch_us_per_query = 1e6 / pass.untraced.qps;
        m.set(
            "core.ns_per_eval",
            batch_us_per_query * 1e3 / evals_per_query,
        );
        m.set(
            "core.wall_gap",
            (n / evals_per_query) / (pass.untraced.qps / pass.brute.qps),
        );

        // Stage 1 and the plan, replayed from outside with the same public
        // functions `query_batch_k` calls; the scan is what remains.
        let db = self.index.database();
        let reps = db.subset(self.index.rep_indices());
        let blocks = self.index.rep_blocked();
        let bf = BruteForce::new();
        let batches = &self.batches;
        let mut rep_dists = Vec::new();
        let stage1_ns = calm_ns_per_unit(pass.probe_slice, 6, || {
            for batch in batches {
                rep_dists = bf
                    .pairwise_with_blocks(&QueryBatch::new(batch), &reps, &Euclidean, blocks)
                    .0;
            }
            (batches.len() * self.spec.batch) as u64
        });
        let index = self.index;
        let plan_ns = calm_ns_per_unit(pass.probe_slice / 2, 6, || {
            black_box(index.plan(&rep_dists, k));
            self.spec.batch as u64
        });
        m.set("core.stage1_us_per_query", stage1_ns / 1e3);
        m.set("core.plan_us_per_query", plan_ns / 1e3);
        let scan_us = batch_us_per_query - (stage1_ns + plan_ns) / 1e3;
        m.set("core.scan_us_per_query", scan_us);
        if scan_us <= 0.0 {
            checks.hard(format!(
                "replayed stage 1 + plan ({:.2} us/query) exceed the whole batch call ({batch_us_per_query:.2} us/query)",
                (stage1_ns + plan_ns) / 1e3
            ));
        }
        // Conservation: the product's own stage spans of the traced rounds
        // (stage 1, plan, scan) add up to the batch calls that contain them.
        let traced_queries = pass.traced_queries.max(1) as f64;
        let product_us = |label: &str| pass.stage_total_ns(label) as f64 / 1e3 / traced_queries;
        let product_sum =
            product_us("core.stage1") + product_us("core.plan") + product_us("core.scan");
        let traced_batch_us = pass.traced_wall_ns as f64 / 1e3 / traced_queries;
        if (product_sum - traced_batch_us).abs() > 0.05 * traced_batch_us {
            checks.soft(format!(
                "core stage spans sum to {product_sum:.2} us/query, the traced batch calls take {traced_batch_us:.2}"
            ));
        }

        // Thread scaling: the same index built sequential, calls alternated
        // with the parallel one so drift cancels.
        let sequential = OfflineIndex::build(
            &self.spec,
            VectorSet::from_flat(db.as_flat().to_vec(), DIM),
            RbcConfig::sequential(),
        );
        let sequential_over_parallel = calm_time_ratio(
            pass.probe_slice,
            4,
            || {
                black_box(sequential.query_batch_k(&batches[0], k));
            },
            || {
                black_box(index.query_batch_k(&batches[0], k));
            },
        );
        m.set(
            "core.par_efficiency",
            sequential_over_parallel / crate::host::nproc() as f64,
        );

        // The small-batch path the serving engine ends up on.
        let fours: Vec<&[&[f32]]> = batches[0].chunks(4).take(16).collect();
        let b4_ns = calm_ns_per_unit(pass.probe_slice / 2, 6, || {
            for four in &fours {
                black_box(index.query_batch_k(four, k));
            }
            (fours.len() * 4) as u64
        });
        m.set("core.b4_us_per_query", b4_ns / 1e3);
    }
}
