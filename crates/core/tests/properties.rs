//! Property-based tests for the RBC search structures.
//!
//! The essential invariants:
//!
//! * the exact search structure returns exactly what brute force returns,
//!   for every point cloud, parameter choice, and configuration;
//! * the one-shot structure always returns a genuine database point from
//!   the chosen representative's ownership list, with a correctly computed
//!   distance (its *recall* is probabilistic, but its well-formedness is
//!   not);
//! * the (1+ε)-approximate mode never violates its promised factor.

use proptest::prelude::*;
use rbc_bruteforce::{BruteForce, Neighbor};
use rbc_core::{BatchPlan, ExactRbc, OneShotRbc, RbcConfig, RbcParams};
use rbc_metric::{Dataset, Euclidean, Manhattan, Metric, PerPoint, VectorSet};

const DIM: usize = 3;

fn cloud(n_range: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-20.0f32..20.0, DIM), n_range)
}

fn brute_knn<M: Metric<[f32]>>(db: &VectorSet, q: &[f32], metric: &M, k: usize) -> Vec<Neighbor> {
    BruteForce::new().knn_single(q, db, metric, k).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact RBC 1-NN equals brute-force 1-NN for arbitrary data and
    /// representative counts.
    #[test]
    fn exact_equals_brute_force(
        db_rows in cloud(2..80),
        q_rows in cloud(1..6),
        n_reps in 1usize..40,
        seed in 0u64..1000,
    ) {
        let db = VectorSet::from_rows(&db_rows);
        let queries = VectorSet::from_rows(&q_rows);
        let params = RbcParams::standard(db.len(), seed).with_n_reps(n_reps.min(db.len()));
        let rbc = ExactRbc::build(&db, Euclidean, params, RbcConfig::default());
        for qi in 0..queries.len() {
            let q = queries.point(qi);
            let (got, _) = rbc.query(q);
            let want = brute_knn(&db, q, &Euclidean, 1)[0];
            // Distances must agree exactly; index may differ only on ties.
            prop_assert!((got.dist - want.dist).abs() < 1e-12);
            if (got.dist - want.dist).abs() < 1e-12 && got.index != want.index {
                let alt = Euclidean.dist(q, db.point(got.index));
                prop_assert!((alt - want.dist).abs() < 1e-12);
            }
        }
    }

    /// Exact RBC k-NN returns the same distance profile as brute force.
    #[test]
    fn exact_knn_distances_match_brute_force(
        db_rows in cloud(3..60),
        q in prop::collection::vec(-20.0f32..20.0, DIM),
        k in 1usize..10,
        seed in 0u64..100,
    ) {
        let db = VectorSet::from_rows(&db_rows);
        let params = RbcParams::standard(db.len(), seed);
        let rbc = ExactRbc::build(&db, Euclidean, params, RbcConfig::default());
        let (got, _) = rbc.query_k(&q, k);
        let want = brute_knn(&db, &q, &Euclidean, k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!((g.dist - w.dist).abs() < 1e-12);
        }
    }

    /// The exact structure stays exact under a different metric.
    #[test]
    fn exact_under_another_metric(
        db_rows in cloud(3..50),
        q in prop::collection::vec(-20.0f32..20.0, DIM),
        seed in 0u64..100,
    ) {
        let db = VectorSet::from_rows(&db_rows);
        let params = RbcParams::standard(db.len(), seed);
        let rbc = ExactRbc::build(&db, Manhattan, params, RbcConfig::default());
        let (got, _) = rbc.query(&q);
        let want = brute_knn(&db, &q, &Manhattan, 1)[0];
        prop_assert!((got.dist - want.dist).abs() < 1e-12);
    }

    /// The (1+ε)-approximate mode honours its factor.
    #[test]
    fn approximate_mode_respects_factor(
        db_rows in cloud(3..60),
        q in prop::collection::vec(-20.0f32..20.0, DIM),
        eps in 0.0f64..2.0,
        seed in 0u64..100,
    ) {
        let db = VectorSet::from_rows(&db_rows);
        let params = RbcParams::standard(db.len(), seed);
        let rbc = ExactRbc::build(&db, Euclidean, params, RbcConfig::default().with_epsilon(eps));
        let (got, _) = rbc.query(&q);
        let want = brute_knn(&db, &q, &Euclidean, 1)[0];
        prop_assert!(got.dist <= (1.0 + eps) * want.dist + 1e-9,
            "approx dist {} exceeds (1+{}) * {}", got.dist, eps, want.dist);
    }

    /// Exact range queries return exactly the brute-force filtered set.
    #[test]
    fn exact_range_matches_filter(
        db_rows in cloud(2..60),
        q in prop::collection::vec(-20.0f32..20.0, DIM),
        radius in 0.0f64..40.0,
        seed in 0u64..100,
    ) {
        let db = VectorSet::from_rows(&db_rows);
        let params = RbcParams::standard(db.len(), seed);
        let rbc = ExactRbc::build(&db, Euclidean, params, RbcConfig::default());
        let (hits, _) = rbc.query_range(&q, radius);
        let mut got: Vec<usize> = hits.iter().map(|n| n.index).collect();
        got.sort_unstable();
        let want: Vec<usize> = (0..db.len())
            .filter(|&j| Euclidean.dist(&q, db.point(j)) <= radius)
            .collect();
        prop_assert_eq!(got, want);
    }

    /// One-shot answers are always well-formed: a real database index whose
    /// reported distance matches the metric, drawn from the chosen
    /// representative's ownership list.
    #[test]
    fn one_shot_answers_are_well_formed(
        db_rows in cloud(2..60),
        q in prop::collection::vec(-20.0f32..20.0, DIM),
        n_reps in 1usize..20,
        list_size in 1usize..30,
        seed in 0u64..100,
    ) {
        let db = VectorSet::from_rows(&db_rows);
        let params = RbcParams::standard(db.len(), seed)
            .with_n_reps(n_reps.min(db.len()))
            .with_list_size(list_size);
        let rbc = OneShotRbc::build(&db, Euclidean, params, RbcConfig::default());
        let (nn, stats) = rbc.query(&q);
        prop_assert!(nn.index < db.len());
        prop_assert!((nn.dist - Euclidean.dist(&q, db.point(nn.index))).abs() < 1e-12);
        prop_assert!(rbc.lists().iter().any(|l| l.members.contains(&nn.index)));
        prop_assert_eq!(stats.reps_examined, 1);
        prop_assert!(stats.rep_distance_evals as usize == rbc.num_reps());
    }

    /// One-shot k-NN answers never report a distance smaller than the true
    /// k-NN distance (they answer from a restricted candidate set).
    #[test]
    fn one_shot_is_never_better_than_truth(
        db_rows in cloud(3..60),
        q in prop::collection::vec(-20.0f32..20.0, DIM),
        k in 1usize..6,
        seed in 0u64..100,
    ) {
        let db = VectorSet::from_rows(&db_rows);
        let params = RbcParams::standard(db.len(), seed);
        let rbc = OneShotRbc::build(&db, Euclidean, params, RbcConfig::default());
        let (got, _) = rbc.query_k(&q, k);
        let want = brute_knn(&db, &q, &Euclidean, k);
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!(g.dist >= w.dist - 1e-12);
        }
    }

    /// Exact structure ownership lists always partition the database,
    /// whatever the parameters.
    #[test]
    fn exact_lists_partition_database(
        db_rows in cloud(1..80),
        n_reps in 1usize..30,
        seed in 0u64..200,
    ) {
        let db = VectorSet::from_rows(&db_rows);
        let params = RbcParams::standard(db.len(), seed).with_n_reps(n_reps.min(db.len()));
        let rbc = ExactRbc::build(&db, Euclidean, params, RbcConfig::default());
        let mut owned: Vec<usize> = rbc.lists().iter().flat_map(|l| l.members.clone()).collect();
        owned.sort_unstable();
        prop_assert_eq!(owned, (0..db.len()).collect::<Vec<_>>());
        // radii really are the max member distance
        for l in rbc.lists() {
            let max_d = l.member_dists.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!((l.radius - max_d).abs() < 1e-12);
        }
    }

    /// Work accounting is consistent. A batch shares list tiles between
    /// its rows, and the order its scans run in moves evaluation counts a
    /// little, never answers; but stage 1 and the (query, list) pairs a
    /// cursor is built for are each row's own — a query meets its nearest
    /// list first, and only that scan decides which of its other lists it
    /// keeps — so they add up over the rows exactly. Everything respects
    /// the brute-force bound.
    #[test]
    fn work_accounting_is_consistent(
        db_rows in cloud(4..50),
        q_rows in cloud(1..5),
        seed in 0u64..100,
    ) {
        let db = VectorSet::from_rows(&db_rows);
        let queries = VectorSet::from_rows(&q_rows);
        let params = RbcParams::standard(db.len(), seed);
        let rbc = ExactRbc::build(&db, Euclidean, params, RbcConfig::default());
        let (_, stats) = rbc.query_batch_k(&queries, 1);
        let bound = (queries.len() * (db.len() + rbc.num_reps())) as u64;
        prop_assert!(stats.total_distance_evals() <= bound);
        let (mut rep_evals, mut examined) = (0u64, 0u64);
        for qi in 0..queries.len() {
            let (_, row) = rbc.query(queries.point(qi));
            prop_assert!(row.total_distance_evals() <= (db.len() + rbc.num_reps()) as u64);
            rep_evals += row.rep_distance_evals;
            examined += row.reps_examined as u64;
        }
        prop_assert_eq!(stats.rep_distance_evals, rep_evals);
        prop_assert_eq!(stats.reps_examined, examined);
        // `reps_examined` counts the (query, list) pairs a cursor was built
        // for: only ever γ_k survivors. A physical scan serves at least one.
        let reps = db.subset(rbc.rep_indices());
        let (rep_dists, _) = BruteForce::new().pairwise(&queries, &reps, &Euclidean);
        let survivors = BatchPlan::plan_exact(&rep_dists, rbc.lists(), 1, rbc.config()).pairs;
        prop_assert!(stats.reps_examined <= survivors as u64);
        prop_assert!(stats.list_scans <= stats.reps_examined);
    }

    /// The batch equivalence: `query_batch_k` returns bit-identical
    /// neighbors and ordering to brute force and to each row searched alone
    /// (`query_k`, a batch of one), across k ∈ {1, 5, n}, on uniform data.
    #[test]
    fn list_major_is_bit_identical_uniform(
        db_rows in cloud(2..70),
        q_rows in cloud(1..10),
        n_reps in 1usize..40,
        seed in 0u64..1000,
    ) {
        let db = VectorSet::from_rows(&db_rows);
        let queries = VectorSet::from_rows(&q_rows);
        let params = RbcParams::standard(db.len(), seed).with_n_reps(n_reps.min(db.len()));
        let rbc = ExactRbc::build(&db, Euclidean, params, RbcConfig::default());
        for k in [1usize, 5, db.len()] {
            let (batched, _) = rbc.query_batch_k(&queries, k);
            for (qi, got) in batched.iter().enumerate() {
                let q = queries.point(qi);
                prop_assert_eq!(got, &brute_knn(&db, q, &Euclidean, k));
                prop_assert_eq!(got, &rbc.query_k(q, k).0);
            }
        }
    }

    /// Same equivalence on clustered data, where many queries select the
    /// same ownership lists and the shared accumulators see real
    /// contention — plus the degenerate all-lists-pruned corner (every
    /// point its own representative, so stage 2 contributes nothing).
    #[test]
    fn list_major_is_bit_identical_clustered_and_degenerate(
        centers in prop::collection::vec(prop::collection::vec(-20.0f32..20.0, DIM), 2..6),
        assignments in prop::collection::vec(0usize..6, 8..60),
        offsets in prop::collection::vec(-0.4f32..0.4, 8..60),
        n_queries in 1usize..8,
        seed in 0u64..1000,
    ) {
        // Clustered cloud: each point is a center plus a small offset.
        let db_rows: Vec<Vec<f32>> = assignments
            .iter()
            .zip(offsets.iter().cycle())
            .map(|(&c, &off)| {
                centers[c % centers.len()].iter().map(|&v| v + off).collect()
            })
            .collect();
        let db = VectorSet::from_rows(&db_rows);
        let q_rows: Vec<Vec<f32>> = (0..n_queries)
            .map(|i| {
                centers[i % centers.len()]
                    .iter()
                    .map(|&v| v + 0.05 * (i as f32 + 1.0))
                    .collect()
            })
            .collect();
        let queries = VectorSet::from_rows(&q_rows);

        for n_reps in [db.len().isqrt().max(1), db.len()] {
            let params = RbcParams::standard(db.len(), seed).with_n_reps(n_reps);
            let rbc = ExactRbc::build(&db, Euclidean, params, RbcConfig::default());
            for k in [1usize, 5, db.len()] {
                let (batched, _) = rbc.query_batch_k(&queries, k);
                for (qi, got) in batched.iter().enumerate() {
                    let q = queries.point(qi);
                    prop_assert_eq!(got, &brute_knn(&db, q, &Euclidean, k));
                    prop_assert_eq!(got, &rbc.query_k(q, k).0);
                }
            }
        }
    }

    /// Both scan layouts — lane groups from the blocked mirrors, or the
    /// row-major fallback scoring each group member by member (what
    /// `PerPoint(Euclidean)`, having no lanes, gets) — return
    /// bit-identical neighbors and ordering, across k ∈ {1, 5, n}, in a batch
    /// and row by row (run the suite under `RBC_FORCE_SCALAR=1` to cover
    /// the scalar kernels too), on uniform and clustered data. Clustered
    /// clouds are the adversarial case: many queries pile onto the same
    /// ownership lists, so the private-then-merged accumulators see real
    /// multi-way merges.
    #[test]
    fn blocked_and_row_major_layouts_are_bit_identical(
        db_rows in cloud(2..60),
        centers in prop::collection::vec(prop::collection::vec(-20.0f32..20.0, DIM), 2..6),
        q_rows in cloud(1..8),
        n_reps in 1usize..30,
        seed in 0u64..1000,
    ) {
        // Clustered twin of the uniform cloud: snap each point to a
        // center, keeping a small per-point offset.
        let clustered: Vec<Vec<f32>> = db_rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                centers[i % centers.len()]
                    .iter()
                    .zip(row.iter())
                    .map(|(&c, &r)| c + 0.02 * r)
                    .collect()
            })
            .collect();
        for rows in [&db_rows, &clustered] {
            let db = VectorSet::from_rows(rows);
            let queries = VectorSet::from_rows(&q_rows);
            let params = RbcParams::standard(db.len(), seed).with_n_reps(n_reps.min(db.len()));
            let row_major =
                ExactRbc::build(&db, PerPoint(Euclidean), params.clone(), RbcConfig::default());
            let blocked = ExactRbc::build(&db, Euclidean, params, RbcConfig::default());
            for k in [1usize, 5, db.len()] {
                let (want, _) = row_major.query_batch_k(&queries, k);
                let (got, _) = blocked.query_batch_k(&queries, k);
                prop_assert_eq!(&got, &want);
                for (qi, want) in want.iter().enumerate() {
                    prop_assert_eq!(&blocked.query_k(queries.point(qi), k).0, want);
                }
            }
        }
    }

    /// Answers do not depend on the schedule: however many threads claim
    /// the batch's groups and queries, and in whatever order they get to
    /// them, the exact and the one-shot search return bit-identical
    /// neighbors (only evaluation counts may move), and the exact ones
    /// match brute force — on uniform and on clustered data, where many
    /// queries share a list and one accumulator.
    #[test]
    fn answers_are_schedule_independent(
        db_rows in cloud(30..120),
        centers in prop::collection::vec(prop::collection::vec(-20.0f32..20.0, DIM), 2..6),
        q_rows in cloud(2..24),
        n_reps in 2usize..30,
        seed in 0u64..1000,
    ) {
        let clustered: Vec<Vec<f32>> = db_rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                centers[i % centers.len()]
                    .iter()
                    .zip(row.iter())
                    .map(|(&c, &r)| c + 0.02 * r)
                    .collect()
            })
            .collect();
        let queries = VectorSet::from_rows(&q_rows);
        for rows in [&db_rows, &clustered] {
            let db = VectorSet::from_rows(rows);
            let params = RbcParams::standard(db.len(), seed).with_n_reps(n_reps);
            let exact = ExactRbc::build(&db, Euclidean, params.clone(), RbcConfig::default());
            let one_shot = OneShotRbc::build(&db, Euclidean, params, RbcConfig::default());
            for k in [1usize, 10] {
                let answers = |threads: usize| {
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .expect("the shim's builder cannot fail")
                        .install(|| {
                            (
                                exact.query_batch_k(&queries, k).0,
                                one_shot.query_batch_k(&queries, k).0,
                            )
                        })
                };
                let alone = answers(1);
                for (qi, got) in alone.0.iter().enumerate() {
                    let q = queries.point(qi);
                    prop_assert_eq!(got, &brute_knn(&db, q, &Euclidean, k));
                    prop_assert_eq!(got, &exact.query_k(q, k).0);
                    prop_assert_eq!(&alone.1[qi], &one_shot.query_k(q, k).0);
                }
                for threads in [2usize, 5] {
                    prop_assert_eq!(&answers(threads), &alone);
                }
            }
        }
    }

    /// The one-shot structure answers a row from the same realised list
    /// whoever shares its batch, so a batch and its rows alone must agree
    /// bit-for-bit too.
    #[test]
    fn one_shot_list_major_is_bit_identical(
        db_rows in cloud(2..60),
        q_rows in cloud(1..8),
        seed in 0u64..500,
    ) {
        let db = VectorSet::from_rows(&db_rows);
        let queries = VectorSet::from_rows(&q_rows);
        let params = RbcParams::standard(db.len(), seed);
        let rbc = OneShotRbc::build(&db, Euclidean, params, RbcConfig::default());
        let (bf, reps) = (BruteForce::new(), db.subset(rbc.rep_indices()));
        for k in [1usize, 5, db.len()] {
            let (batched, _) = rbc.query_batch_k(&queries, k);
            for (qi, got) in batched.iter().enumerate() {
                let q = queries.point(qi);
                prop_assert_eq!(got, &rbc.query_k(q, k).0);
                // Its nearest representative's list, brute-forced.
                let (nearest, _) = bf.nn_single(q, &reps, &Euclidean);
                let list = &rbc.lists()[nearest.index].members;
                prop_assert_eq!(got, &bf.knn_single_in_list(q, &db, list, &Euclidean, k).0);
            }
        }
    }
}
