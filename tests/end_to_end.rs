//! Cross-crate integration tests: the full pipeline from synthetic
//! workload generation through indexing, search and baselines, exercised
//! the way the experiment harness uses it.

use rbc::baselines::CoverTree;
use rbc::data::{standard_catalog, ExpansionRate, RandomProjection};
use rbc::prelude::*;

/// A small workload drawn from the same catalogue the benchmarks use.
fn small_workload(name: &str) -> (VectorSet, VectorSet) {
    let mut spec = standard_catalog(0.002)
        .into_iter()
        .find(|s| s.name == name)
        .expect("catalog entry exists");
    spec.n_queries = 20;
    let g = spec.generate();
    (g.database, g.queries)
}

#[test]
fn exact_rbc_and_all_baselines_agree_on_catalog_workloads() {
    for name in ["bio", "tiny8"] {
        let (db, queries) = small_workload(name);
        let params = RbcParams::standard(db.len(), 7);
        let rbc = ExactRbc::build(&db, Euclidean, params, RbcConfig::default());
        let cover = CoverTree::build(&db, Euclidean);
        let bf = BruteForce::new();

        for qi in 0..queries.len() {
            let q = queries.point(qi);
            let (truth, _) = bf.nn_single(q, &db, &Euclidean);
            let (a, _) = rbc.query(q);
            let (b, _) = cover.query(q);
            for (label, got) in [("rbc", a), ("cover", b)] {
                assert!(
                    (got.dist - truth.dist).abs() < 1e-9,
                    "{label} disagreed with brute force on {name} query {qi}"
                );
            }
        }
    }
}

#[test]
fn one_shot_recall_improves_with_larger_parameter() {
    let (db, queries) = small_workload("bio");
    let bf = BruteForce::new();
    let truth: Vec<Neighbor> = (0..queries.len())
        .map(|qi| bf.nn_single(queries.point(qi), &db, &Euclidean).0)
        .collect();

    let recall_at = |mult: f64| -> f64 {
        let nr = (((db.len() as f64).sqrt() * mult).ceil() as usize).clamp(1, db.len());
        let params = RbcParams::standard(db.len(), 11)
            .with_n_reps(nr)
            .with_list_size(nr);
        let rbc = OneShotRbc::build(&db, Euclidean, params, RbcConfig::default());
        let (answers, _) = rbc.query_batch(&queries);
        answers
            .iter()
            .zip(&truth)
            .filter(|(a, b)| a.index == b.index)
            .count() as f64
            / truth.len() as f64
    };

    let low = recall_at(0.5);
    let high = recall_at(6.0);
    assert!(
        high >= low,
        "recall should not degrade as nr = s grows (got {low} -> {high})"
    );
    // The bio analogue has intrinsic dimension ~8, so even generous
    // parameters do not reach near-perfect recall at this tiny scale; the
    // requirement is that it is clearly better than chance and substantial.
    assert!(
        high > 0.6,
        "generous parameters should give decent recall, got {high}"
    );
}

#[test]
fn work_reduction_grows_with_database_size() {
    // The theory says exact-search work per query is O(√n): quadrupling n
    // should roughly double per-query work, i.e. the *fraction* of the
    // database touched must clearly shrink.
    let small = rbc::data::low_dim_manifold(2_000, 3, 16, 0.01, 5);
    let large = rbc::data::low_dim_manifold(8_000, 3, 16, 0.01, 5);
    let queries = rbc::data::low_dim_manifold(50, 3, 16, 0.01, 6);

    let frac = |db: &VectorSet| -> f64 {
        let rbc = ExactRbc::build(
            db,
            Euclidean,
            RbcParams::standard(db.len(), 3),
            RbcConfig::default(),
        );
        let (_, stats) = rbc.query_batch(&queries);
        stats.evals_per_query() / db.len() as f64
    };

    let small_frac = frac(&small);
    let large_frac = frac(&large);
    assert!(
        large_frac < small_frac,
        "per-query fraction of the database touched should shrink with n \
         (got {small_frac:.4} at n=2000 vs {large_frac:.4} at n=8000)"
    );
}

#[test]
fn expansion_rate_orders_the_catalog_sensibly() {
    // tiny4 (4 ambient dims) must report a lower intrinsic-dimension
    // estimate than tiny32 (32 ambient dims) under the same generator.
    let (tiny4, _) = small_workload("tiny4");
    let (tiny32, _) = small_workload("tiny32");
    let e4 = ExpansionRate::estimate(&tiny4, &Euclidean, 10, 6, 8);
    let e32 = ExpansionRate::estimate(&tiny32, &Euclidean, 10, 6, 8);
    assert!(
        e4.dimension_estimate <= e32.dimension_estimate + 0.5,
        "tiny4 should not look higher-dimensional than tiny32 ({} vs {})",
        e4.dimension_estimate,
        e32.dimension_estimate
    );
}

#[test]
fn random_projection_preserves_neighbors_well_enough_to_index() {
    // Project a high-dimensional workload the way the TinyIm pipeline does
    // and check that exact search in the projected space still returns
    // close neighbors in the original space.
    let db_hi = rbc::data::low_dim_manifold(3_000, 4, 128, 0.01, 9);
    let q_hi = rbc::data::low_dim_manifold(30, 4, 128, 0.01, 10);
    let proj = RandomProjection::new(128, 32, 11);
    let db_lo = proj.project(&db_hi);
    let q_lo = proj.project(&q_hi);

    let rbc = ExactRbc::build(
        &db_lo,
        Euclidean,
        RbcParams::standard(db_lo.len(), 13),
        RbcConfig::default(),
    );
    let mut rank_sum = 0.0;
    for qi in 0..q_lo.len() {
        let (projected_nn, _) = rbc.query(q_lo.point(qi));
        // rank of that answer in the *original* space
        let d_ret = Euclidean.dist(q_hi.point(qi), db_hi.point(projected_nn.index));
        let rank = (0..db_hi.len())
            .filter(|&j| Euclidean.dist(q_hi.point(qi), db_hi.point(j)) < d_ret)
            .count();
        rank_sum += rank as f64;
    }
    let mean_rank = rank_sum / q_lo.len() as f64;
    // A 128 → 32 dimensional Johnson–Lindenstrauss projection distorts
    // distances by tens of percent, and on a dense manifold many points sit
    // at nearly the same distance, so the projected-space NN is a
    // top-of-the-ranking point rather than the exact one. The requirement
    // is that it stays far above a random answer (expected rank n/2 = 1500).
    assert!(
        mean_rank < db_hi.len() as f64 / 5.0,
        "projected-space neighbors should stay near the top of the original ranking, got mean rank {mean_rank}"
    );
}

#[test]
fn pinned_executors_do_not_change_answers() {
    let (db, queries) = small_workload("phy");
    let params = RbcParams::standard(db.len(), 17);
    let rbc = ExactRbc::build(&db, Euclidean, params, RbcConfig::default());

    let pool = |threads| {
        let builder = rayon::ThreadPoolBuilder::new().num_threads(threads);
        builder.build().expect("the shim's builder cannot fail")
    };
    let (a, _) = pool(4).install(|| rbc.query_batch(&queries));
    let (b, _) = pool(1).install(|| rbc.query_batch(&queries));
    assert_eq!(a, b);
}

/// Euclidean with its lane kernel but the trait's default keep-all screen.
struct KeepAll;

impl Metric<[f32]> for KeepAll {
    fn dist(&self, a: &[f32], b: &[f32]) -> Dist {
        Euclidean.dist(a, b)
    }

    fn lanes_supported(&self) -> bool {
        true
    }

    fn dist_lanes(
        &self,
        query: &[f32],
        group: rbc::metric::LaneGroup<'_>,
        out: &mut [Dist; rbc::metric::LANES],
    ) -> bool {
        Euclidean.dist_lanes(query, group, out)
    }
}

#[test]
fn k1_reductions_rerank_only_the_lane_groups_the_screen_keeps() {
    // The gated one-shot shape scaled down to n = 20 000: the benchmark's
    // 64-cluster mixture, s = n_r = 4 × the standard representative count.
    let n = 20_000;
    let db = rbc::data::gaussian_mixture(n, 16, 64, 0.05, 2012);
    let queries = rbc::data::skewed_queries(512, 16, 64, 0.05, 0.0, 2012, 3);
    let standard = RbcParams::standard(n, 1);
    let s = 4 * standard.n_reps;
    let params = standard.clone().with_n_reps(s).with_list_size(s);
    let one_shot = OneShotRbc::build(&db, Euclidean, params, RbcConfig::default());
    let groups = (one_shot.num_reps() / rbc::metric::LANES) as u64;

    let (answers, stats) = one_shot.query_batch_k(&queries, 1);
    let share = stats.rep_reranked_groups as f64 / (queries.len() as u64 * groups) as f64;
    assert!(
        share < 0.15,
        "stage 1 reranked {share:.3} of its lane groups"
    );

    // A metric that keeps every lane reranks every whole group, and
    // answers exactly what the screened scan answers.
    let bf = BruteForce::new();
    let reps = db.subset(one_shot.rep_indices());
    let blocks = one_shot.rep_blocked();
    let (screened, _) = bf.nn_with_blocks(&queries, &reps, &Euclidean, blocks);
    let (kept, keep_all) = bf.nn_with_blocks(&queries, &reps, &KeepAll, blocks);
    assert_eq!(keep_all.reranked_groups, queries.len() as u64 * groups);
    assert_eq!(screened, kept);
    let first: Vec<Neighbor> = answers.iter().map(|a| a[0]).collect();
    assert_eq!(first, one_shot.query_batch(&queries).0);

    // The exact build's `BF(X, R)` at the same n.
    let exact = ExactRbc::build(&db, Euclidean, standard, RbcConfig::default());
    let reps = db.subset(exact.rep_indices());
    let (_, build) = bf.nn_with_blocks(&db, &reps, &Euclidean, exact.rep_blocked());
    assert_eq!(build.distance_evals, exact.build_distance_evals());
    let groups = (exact.num_reps() / rbc::metric::LANES) as u64;
    let share = build.reranked_groups as f64 / (n as u64 * groups) as f64;
    assert!(
        share < 0.25,
        "the exact build reranked {share:.3} of its lane groups"
    );
}
