//! Property-based tests for the metric substrate.
//!
//! These exercise the metric axioms and dataset invariants on randomly
//! generated inputs, complementing the hand-picked cases in the unit tests.

use proptest::prelude::*;
use rbc_metric::{
    check_metric_axioms, Chebyshev, Cosine, Dataset, Euclidean, Hamming, Levenshtein, Manhattan,
    Metric, Minkowski, VectorSet,
};

const TOL: f64 = 1e-5;

fn vec_pair(dim: usize) -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    let coord = -100.0f32..100.0f32;
    (
        prop::collection::vec(coord.clone(), dim),
        prop::collection::vec(coord, dim),
    )
}

fn vec_triple(dim: usize) -> impl Strategy<Value = (Vec<f32>, Vec<f32>, Vec<f32>)> {
    let coord = -100.0f32..100.0f32;
    (
        prop::collection::vec(coord.clone(), dim),
        prop::collection::vec(coord.clone(), dim),
        prop::collection::vec(coord, dim),
    )
}

macro_rules! metric_axiom_props {
    ($modname:ident, $metric:expr) => {
        mod $modname {
            use super::*;

            proptest! {
                #[test]
                fn symmetry((a, b) in vec_pair(8)) {
                    let m = $metric;
                    let ab = m.dist(&a, &b);
                    let ba = m.dist(&b, &a);
                    prop_assert!((ab - ba).abs() <= TOL * (1.0 + ab.abs()));
                }

                #[test]
                fn non_negativity((a, b) in vec_pair(8)) {
                    let m = $metric;
                    prop_assert!(m.dist(&a, &b) >= 0.0);
                }

                #[test]
                fn self_distance_zero(a in prop::collection::vec(-100.0f32..100.0, 8)) {
                    let m = $metric;
                    prop_assert!(m.dist(&a, &a).abs() <= TOL);
                }

                #[test]
                fn triangle_inequality((a, b, c) in vec_triple(8)) {
                    let m = $metric;
                    let ac = m.dist(&a, &c);
                    let detour = m.dist(&a, &b) + m.dist(&b, &c);
                    prop_assert!(ac <= detour + TOL * (1.0 + detour.abs()));
                }
            }
        }
    };
}

metric_axiom_props!(euclidean_axioms, Euclidean);
metric_axiom_props!(manhattan_axioms, Manhattan);
metric_axiom_props!(chebyshev_axioms, Chebyshev);
metric_axiom_props!(minkowski3_axioms, Minkowski::new(3.0));
metric_axiom_props!(cosine_axioms, Cosine);

proptest! {
    /// The `ℓp` norms are ordered: `ℓ∞ ≤ ℓ2 ≤ ℓ1`.
    #[test]
    fn lp_norms_are_ordered((a, b) in vec_pair(10)) {
        let linf = Chebyshev.dist(&a, &b);
        let l2 = Euclidean.dist(&a, &b);
        let l1 = Manhattan.dist(&a, &b);
        prop_assert!(linf <= l2 + TOL);
        prop_assert!(l2 <= l1 + TOL);
    }

    /// Euclidean distance is translation invariant.
    #[test]
    fn euclidean_translation_invariance((a, b) in vec_pair(6), shift in -50.0f32..50.0) {
        let d0 = Euclidean.dist(&a, &b);
        let a2: Vec<f32> = a.iter().map(|x| x + shift).collect();
        let b2: Vec<f32> = b.iter().map(|x| x + shift).collect();
        let d1 = Euclidean.dist(&a2, &b2);
        prop_assert!((d0 - d1).abs() <= 1e-3 * (1.0 + d0));
    }

    /// Scaling both vectors scales the Euclidean distance.
    #[test]
    fn euclidean_homogeneity((a, b) in vec_pair(6), scale in 0.01f32..10.0) {
        let d0 = Euclidean.dist(&a, &b);
        let a2: Vec<f32> = a.iter().map(|x| x * scale).collect();
        let b2: Vec<f32> = b.iter().map(|x| x * scale).collect();
        let d1 = Euclidean.dist(&a2, &b2);
        prop_assert!((d1 - d0 * scale as f64).abs() <= 1e-3 * (1.0 + d1));
    }

    /// Levenshtein distance never exceeds the length of the longer string
    /// and is at least the length difference.
    #[test]
    fn levenshtein_bounds(a in "[a-c]{0,12}", b in "[a-c]{0,12}") {
        let d = Levenshtein::edit_distance(&a, &b);
        prop_assert!(d <= a.chars().count().max(b.chars().count()));
        prop_assert!(d >= a.chars().count().abs_diff(b.chars().count()));
    }

    /// Levenshtein triangle inequality on random short strings.
    #[test]
    fn levenshtein_triangle(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
        let ab = Levenshtein::edit_distance(&a, &b);
        let bc = Levenshtein::edit_distance(&b, &c);
        let ac = Levenshtein::edit_distance(&a, &c);
        prop_assert!(ac <= ab + bc);
    }

    /// Hamming distance on equal-length byte strings satisfies the triangle
    /// inequality.
    #[test]
    fn hamming_triangle(
        a in prop::collection::vec(0u8..4, 16),
        b in prop::collection::vec(0u8..4, 16),
        c in prop::collection::vec(0u8..4, 16),
    ) {
        let m = Hamming;
        let ab: f64 = Metric::<[u8]>::dist(&m, &a, &b);
        let bc: f64 = Metric::<[u8]>::dist(&m, &b, &c);
        let ac: f64 = Metric::<[u8]>::dist(&m, &a, &c);
        prop_assert!(ac <= ab + bc);
    }

    /// VectorSet round-trips rows regardless of content.
    #[test]
    fn vector_set_round_trip(rows in prop::collection::vec(prop::collection::vec(-1e6f32..1e6, 5), 1..40)) {
        let set = VectorSet::from_rows(&rows);
        prop_assert_eq!(set.len(), rows.len());
        prop_assert_eq!(set.dim(), 5);
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(set.point(i), row.as_slice());
        }
    }

    /// gather() returns exactly the selected rows.
    #[test]
    fn gather_matches_selection(
        rows in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 3), 2..20),
        picks in prop::collection::vec(0usize..1000, 0..10),
    ) {
        let set = VectorSet::from_rows(&rows);
        let picks: Vec<usize> = picks.into_iter().map(|p| p % rows.len()).collect();
        let g = set.gather(&picks);
        prop_assert_eq!(g.len(), picks.len());
        for (i, &p) in picks.iter().enumerate() {
            prop_assert_eq!(g.point(i), set.point(p));
        }
    }

    /// The axiom checker accepts Euclidean on arbitrary point clouds.
    #[test]
    fn checker_accepts_euclidean(rows in prop::collection::vec(prop::collection::vec(-50.0f32..50.0, 4), 3..12)) {
        let set = VectorSet::from_rows(&rows);
        prop_assert!(check_metric_axioms(&set, &Euclidean, 12, 1e-4).is_ok());
    }

    /// Subset views agree with direct indexing.
    #[test]
    fn subset_view_consistency(
        rows in prop::collection::vec(prop::collection::vec(-5.0f32..5.0, 2), 3..30),
        raw_idx in prop::collection::vec(0usize..1000, 1..15),
    ) {
        let set = VectorSet::from_rows(&rows);
        let idx: Vec<usize> = raw_idx.into_iter().map(|i| i % rows.len()).collect();
        let view = set.subset(&idx);
        prop_assert_eq!(view.len(), idx.len());
        prop_assert_eq!(view.indices(), &idx[..]);
        for (i, &original) in idx.iter().enumerate() {
            prop_assert_eq!(view.get(i), set.point(original));
        }
    }
}
