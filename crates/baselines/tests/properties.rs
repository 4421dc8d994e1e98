//! Property-based exactness tests for the cover tree.
//!
//! Whatever the point cloud, the tree must return the same neighbor
//! distances as a naive scan — it exists to be an *exact* comparator for
//! the RBC experiments, so silent approximation would corrupt Table 3.

use proptest::prelude::*;
use rbc_baselines::CoverTree;
use rbc_bruteforce::{BruteForce, Neighbor};
use rbc_metric::{Euclidean, VectorSet};

const DIM: usize = 3;

fn cloud(n_range: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-30.0f32..30.0, DIM), n_range)
}

fn brute(db: &VectorSet, q: &[f32], k: usize) -> Vec<Neighbor> {
    BruteForce::new().knn_single(q, db, &Euclidean, k).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn cover_tree_is_exact(
        db_rows in cloud(1..60),
        q in prop::collection::vec(-30.0f32..30.0, DIM),
        k in 1usize..6,
    ) {
        let db = VectorSet::from_rows(&db_rows);
        let ct = CoverTree::build(&db, Euclidean);
        let (got, _) = ct.query_k(&q[..], k);
        let want = brute(&db, &q, k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!((g.dist - w.dist).abs() < 1e-12);
        }
    }

    /// The cover tree never does more distance evaluations than a full scan
    /// plus the tree's internal nodes (sanity bound on the counter).
    #[test]
    fn work_counters_are_bounded(
        db_rows in cloud(2..60),
        q in prop::collection::vec(-30.0f32..30.0, DIM),
    ) {
        let db = VectorSet::from_rows(&db_rows);
        let n = db.len() as u64;
        let ct = CoverTree::build(&db, Euclidean);
        prop_assert!(ct.query(&q[..]).1 <= 2 * n);
    }
}
