//! Measurement primitives shared by the experiment binaries.

use std::time::{Duration, Instant};

use rbc_bruteforce::{BfConfig, BruteForce, Neighbor};
use rbc_core::{mean_rank, ExactRbc, OneShotRbc, RbcConfig, RbcParams};
use rbc_data::{DatasetSpec, GeneratedDataset};
use rbc_metric::{Euclidean, VectorSet};

/// A generated workload plus anything expensive the experiments share.
#[derive(Clone, Debug)]
pub struct PreparedWorkload {
    /// Spec the workload came from.
    pub spec: DatasetSpec,
    /// The database points.
    pub database: VectorSet,
    /// The query points.
    pub queries: VectorSet,
}

impl PreparedWorkload {
    /// Generates the workload described by `spec`.
    pub fn generate(spec: &DatasetSpec) -> Self {
        let GeneratedDataset {
            spec,
            database,
            queries,
        } = spec.generate();
        Self {
            spec,
            database,
            queries,
        }
    }

    /// Database size `n`.
    pub fn n(&self) -> usize {
        self.database.len()
    }
}

/// One measured batch of queries: answers, wall-clock, and work.
#[derive(Clone, Debug)]
pub struct BatchMeasurement {
    /// Per-query nearest neighbors as returned by the algorithm.
    pub answers: Vec<Neighbor>,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
    /// Total distance evaluations across the batch.
    pub distance_evals: u64,
    /// Number of queries.
    pub queries: usize,
}

impl BatchMeasurement {
    /// Mean distance evaluations per query.
    pub fn evals_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.distance_evals as f64 / self.queries as f64
        }
    }

    /// Wall-clock speedup of this measurement relative to a baseline.
    pub fn time_speedup_over(&self, baseline: &BatchMeasurement) -> f64 {
        let mine = self.elapsed.as_secs_f64();
        if mine == 0.0 {
            0.0
        } else {
            baseline.elapsed.as_secs_f64() / mine
        }
    }

    /// Work (distance-evaluation) speedup relative to a baseline.
    pub fn work_speedup_over(&self, baseline: &BatchMeasurement) -> f64 {
        if self.distance_evals == 0 {
            0.0
        } else {
            baseline.distance_evals as f64 / self.distance_evals as f64
        }
    }

    /// Mean rank error of the answers against the true neighbors.
    pub fn mean_rank_error(&self, workload: &PreparedWorkload) -> f64 {
        mean_rank(
            &workload.database,
            &Euclidean,
            &workload.queries,
            &self.answers,
        )
    }
}

/// Mean recall@k of per-query answer lists against ground-truth lists.
///
/// A truth neighbor counts as recalled when the answer list contains a
/// neighbor at least as close (distance comparison, not index identity,
/// so ties between equidistant points never depress recall). Both inputs
/// must be sorted by ascending distance, as every `query_batch_k` in the
/// workspace returns them. Panics if the two slices disagree on the
/// query count.
pub fn recall_at_k(answers: &[Vec<Neighbor>], truth: &[Vec<Neighbor>]) -> f64 {
    assert_eq!(
        answers.len(),
        truth.len(),
        "answers and ground truth must cover the same queries"
    );
    if answers.is_empty() {
        return 1.0;
    }
    let mut total = 0.0f64;
    for (ans, tru) in answers.iter().zip(truth.iter()) {
        if tru.is_empty() {
            total += 1.0;
            continue;
        }
        let recalled = tru
            .iter()
            .enumerate()
            .filter(|(rank, t)| ans.get(*rank).is_some_and(|a| a.dist <= t.dist + 1e-9))
            .count();
        total += recalled as f64 / tru.len() as f64;
    }
    total / answers.len() as f64
}

/// Runs parallel brute-force 1-NN over the whole query batch.
pub fn brute_force_batch(workload: &PreparedWorkload, config: BfConfig) -> BatchMeasurement {
    let bf = BruteForce::with_config(config);
    let start = Instant::now();
    let (answers, stats) = bf.nn(&workload.queries, &workload.database, &Euclidean);
    BatchMeasurement {
        answers,
        elapsed: start.elapsed(),
        distance_evals: stats.distance_evals,
        queries: workload.queries.len(),
    }
}

/// Builds an exact RBC with the given parameters and measures a full query
/// batch. Returns the measurement and the build time.
pub fn exact_rbc_batch(
    workload: &PreparedWorkload,
    params: RbcParams,
    config: RbcConfig,
) -> (BatchMeasurement, Duration) {
    let build_start = Instant::now();
    let rbc = ExactRbc::build(&workload.database, Euclidean, params, config);
    let build_time = build_start.elapsed();

    let start = Instant::now();
    let (answers, stats) = rbc.query_batch(&workload.queries);
    (
        BatchMeasurement {
            answers,
            elapsed: start.elapsed(),
            distance_evals: stats.total_distance_evals(),
            queries: workload.queries.len(),
        },
        build_time,
    )
}

/// Builds a one-shot RBC and measures a full query batch. Returns the
/// measurement and the build time.
pub fn one_shot_batch(
    workload: &PreparedWorkload,
    params: RbcParams,
    config: RbcConfig,
) -> (BatchMeasurement, Duration) {
    let build_start = Instant::now();
    let rbc = OneShotRbc::build(&workload.database, Euclidean, params, config);
    let build_time = build_start.elapsed();

    let start = Instant::now();
    let (answers, stats) = rbc.query_batch(&workload.queries);
    (
        BatchMeasurement {
            answers,
            elapsed: start.elapsed(),
            distance_evals: stats.total_distance_evals(),
            queries: workload.queries.len(),
        },
        build_time,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbc_data::{DatasetSpec, WorkloadKind};

    fn tiny_spec() -> DatasetSpec {
        DatasetSpec::new(
            "unit-test",
            1000,
            8,
            WorkloadKind::Manifold {
                intrinsic_dim: 2,
                noise: 0.01,
            },
            1.0,
            7,
        )
    }

    fn tiny_workload() -> PreparedWorkload {
        let mut spec = tiny_spec();
        spec.n_queries = 30;
        PreparedWorkload::generate(&spec)
    }

    #[test]
    fn brute_force_measurement_counts_full_work() {
        let w = tiny_workload();
        let m = brute_force_batch(&w, BfConfig::default());
        assert_eq!(m.queries, 30);
        assert_eq!(m.distance_evals, (30 * w.n()) as u64);
        assert_eq!(m.answers.len(), 30);
        assert!(m.elapsed.as_nanos() > 0);
        assert_eq!(m.mean_rank_error(&w), 0.0);
    }

    #[test]
    fn exact_rbc_matches_brute_force_answers_with_less_work() {
        let w = tiny_workload();
        let brute = brute_force_batch(&w, BfConfig::default());
        let params = RbcParams::standard(w.n(), 3);
        let (rbc, build_time) = exact_rbc_batch(&w, params, RbcConfig::default());
        assert!(build_time.as_nanos() > 0);
        for (a, b) in rbc.answers.iter().zip(brute.answers.iter()) {
            assert!((a.dist - b.dist).abs() < 1e-12);
        }
        assert!(rbc.work_speedup_over(&brute) > 2.0);
        assert_eq!(rbc.mean_rank_error(&w), 0.0);
    }

    #[test]
    fn one_shot_trades_error_for_work() {
        let w = tiny_workload();
        let brute = brute_force_batch(&w, BfConfig::default());
        let params = RbcParams::standard(w.n(), 5);
        let (os, _) = one_shot_batch(&w, params, RbcConfig::default());
        assert!(os.work_speedup_over(&brute) > 4.0);
        // At the bare √n setting the answer is approximate; the error must
        // still be small relative to the database (Figure 1's regime).
        let rank = os.mean_rank_error(&w);
        assert!(rank < w.n() as f64 / 10.0, "rank error {rank} too large");
        // A more generous parameter setting must reduce the error.
        let generous = RbcParams::standard(w.n(), 5)
            .with_n_reps(4 * 32)
            .with_list_size(4 * 32);
        let (os_generous, _) = one_shot_batch(&w, generous, RbcConfig::default());
        assert!(os_generous.mean_rank_error(&w) <= rank);
    }

    #[test]
    fn recall_is_one_for_exact_answers_and_less_for_truncated_ones() {
        let w = tiny_workload();
        let bf = BruteForce::with_config(BfConfig::default());
        let (truth, _) = bf.knn(&w.queries, &w.database, &Euclidean, 5);
        assert_eq!(recall_at_k(&truth, &truth), 1.0);
        // Drop the closest neighbor from every answer: every remaining
        // rank is dominated by the truth, so recall collapses to 0 unless
        // distances tie.
        let worse: Vec<Vec<Neighbor>> = truth.iter().map(|l| l[1..].to_vec()).collect();
        assert!(recall_at_k(&worse, &truth) < 0.5);
        // Ties (identical lists with permuted equal distances) still count.
        assert_eq!(recall_at_k(&truth, &truth), 1.0);
    }

    #[test]
    #[should_panic(expected = "same queries")]
    fn recall_rejects_mismatched_query_counts() {
        recall_at_k(&[Vec::new()], &[]);
    }

    #[test]
    fn speedup_helpers_behave() {
        let w = tiny_workload();
        let brute = brute_force_batch(&w, BfConfig::default());
        assert!((brute.work_speedup_over(&brute) - 1.0).abs() < 1e-12);
        assert!(brute.time_speedup_over(&brute) > 0.0);
        assert_eq!(brute.evals_per_query(), w.n() as f64);
    }
}
