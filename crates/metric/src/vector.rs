//! Metrics over dense `f32` vectors.
//!
//! All experiments in the paper (§7.1) use the Euclidean (`ℓ2`) distance;
//! the remaining metrics here exercise the "general metric" claim of the
//! RBC and are used by the expansion-rate experiments (the paper's grid
//! example in §6 uses `ℓ1`).
//!
//! The per-pair inner loops are written over plain slices with scalar
//! `f32` arithmetic accumulated **sequentially** into a single `f64` — the
//! canonical semantics every other distance path must match bit for bit.
//! The explicit SIMD kernels in [`crate::simd`] vectorize *across points*
//! (one register lane per database point, the sequential dimension loop
//! preserved per lane), which is why [`Euclidean`] and
//! [`SquaredEuclidean`] can expose lane kernels whose results are
//! bitwise identical to these scalar loops on any hardware.

use crate::metric::{Dist, Metric};
use crate::simd::{
    screen_codes_l2, screen_squared_l2, squared_l2_lanes, CodeBlock, LaneBlock, LaneGroup, LANES,
    SCREEN_QUERIES,
};

#[inline]
fn debug_check_dims(a: &[f32], b: &[f32]) {
    debug_assert_eq!(
        a.len(),
        b.len(),
        "vector metric applied to vectors of different dimension"
    );
}

/// The Euclidean (`ℓ2`) metric: `ρ(x,y) = sqrt(Σ (x_i - y_i)^2)`.
///
/// This is the metric used for every dataset in the paper's evaluation
/// ("we measured distance with the ℓ2-norm", §7.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Euclidean;

impl Metric<[f32]> for Euclidean {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> Dist {
        debug_check_dims(a, b);
        squared_l2(a, b).sqrt()
    }

    fn name(&self) -> &'static str {
        "euclidean"
    }

    #[inline]
    fn lanes_supported(&self) -> bool {
        true
    }

    #[inline]
    fn dist_lanes(&self, query: &[f32], group: LaneGroup<'_>, out: &mut [Dist; LANES]) -> bool {
        squared_l2_lanes(query, group, out);
        // f64 sqrt is correctly rounded, so per-lane sqrt of a
        // bit-identical square is bit-identical to the scalar path.
        for d in out.iter_mut() {
            *d = d.sqrt();
        }
        true
    }

    #[inline]
    fn screen_lanes(
        &self,
        queries: &[&[f32]],
        block: LaneBlock<'_>,
        bounds: &[Dist],
        keep: &mut [u8],
    ) {
        // `sqrt_rn(c) <= bound` puts `c` within a few ulps of `bound²`; the
        // screen's slack covers them and this product's own rounding.
        let mut squares = [0.0; SCREEN_QUERIES];
        let squares = &mut squares[..bounds.len()];
        for (square, &bound) in squares.iter_mut().zip(bounds) {
            *square = bound * bound;
        }
        screen_squared_l2(queries, block, squares, keep);
    }

    #[inline]
    fn screen_codes(&self, query: &[f32], block: CodeBlock<'_>, bound: Dist, keep: &mut [u8]) {
        screen_codes_l2(query, block, bound, keep);
    }
}

/// The *squared* Euclidean distance.
///
/// Not a metric (it violates the triangle inequality), but monotonically
/// related to [`Euclidean`], so 1-NN / k-NN results are identical while each
/// evaluation avoids a square root. The brute-force primitive uses it
/// internally when only ranking matters; it must **not** be handed to the
/// exact RBC search, whose pruning rules require the true metric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SquaredEuclidean;

impl Metric<[f32]> for SquaredEuclidean {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> Dist {
        debug_check_dims(a, b);
        squared_l2(a, b)
    }

    fn name(&self) -> &'static str {
        "squared-euclidean"
    }

    #[inline]
    fn lanes_supported(&self) -> bool {
        true
    }

    #[inline]
    fn dist_lanes(&self, query: &[f32], group: LaneGroup<'_>, out: &mut [Dist; LANES]) -> bool {
        squared_l2_lanes(query, group, out);
        true
    }

    #[inline]
    fn screen_lanes(
        &self,
        queries: &[&[f32]],
        block: LaneBlock<'_>,
        bounds: &[Dist],
        keep: &mut [u8],
    ) {
        screen_squared_l2(queries, block, bounds, keep);
    }

    #[inline]
    fn screen_codes(&self, query: &[f32], block: CodeBlock<'_>, bound: Dist, keep: &mut [u8]) {
        // The code screen's bound is a distance. `sqrt_rn` may land an ulp
        // under `√bound`; the screen's slack covers it.
        screen_codes_l2(query, block, bound.sqrt(), keep);
    }
}

#[inline]
fn squared_l2(a: &[f32], b: &[f32]) -> f64 {
    // Strictly sequential accumulation in a single f64 — the canonical
    // semantics. The SIMD kernels in `crate::simd` reproduce exactly this
    // per lane (vectorizing across points, not dimensions), which is what
    // makes blocked and unblocked scans bit-identical.
    let n = a.len().min(b.len());
    let mut acc = 0.0f64;
    for i in 0..n {
        let d = f64::from(a[i] - b[i]);
        acc += d * d;
    }
    acc
}

/// The Manhattan (`ℓ1`) metric: `ρ(x,y) = Σ |x_i - y_i|`.
///
/// The paper's intuition-building example for the expansion rate (§6) is a
/// grid under `ℓ1`, where the expansion rate is exactly `2^d`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Manhattan;

impl Metric<[f32]> for Manhattan {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> Dist {
        debug_check_dims(a, b);
        let mut total = 0.0f64;
        for i in 0..a.len().min(b.len()) {
            total += ((a[i] - b[i]) as f64).abs();
        }
        total
    }

    fn name(&self) -> &'static str {
        "manhattan"
    }
}

/// The Chebyshev (`ℓ∞`) metric: `ρ(x,y) = max_i |x_i - y_i|`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Chebyshev;

impl Metric<[f32]> for Chebyshev {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> Dist {
        debug_check_dims(a, b);
        let mut max = 0.0f64;
        for i in 0..a.len().min(b.len()) {
            let d = ((a[i] - b[i]) as f64).abs();
            if d > max {
                max = d;
            }
        }
        max
    }

    fn name(&self) -> &'static str {
        "chebyshev"
    }
}

/// The Minkowski (`ℓp`) metric for `p ≥ 1`:
/// `ρ(x,y) = (Σ |x_i - y_i|^p)^{1/p}`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Minkowski {
    p: f64,
}

impl Minkowski {
    /// Creates the `ℓp` metric.
    ///
    /// # Panics
    /// Panics if `p < 1`, for which the triangle inequality fails.
    pub fn new(p: f64) -> Self {
        assert!(p >= 1.0, "Minkowski requires p >= 1 (got {p})");
        Self { p }
    }

    /// The exponent `p`.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Metric<[f32]> for Minkowski {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> Dist {
        debug_check_dims(a, b);
        let mut total = 0.0f64;
        for i in 0..a.len().min(b.len()) {
            total += ((a[i] - b[i]) as f64).abs().powf(self.p);
        }
        total.powf(1.0 / self.p)
    }

    fn name(&self) -> &'static str {
        "minkowski"
    }
}

/// The angular (cosine) metric: `ρ(x,y) = arccos(⟨x,y⟩ / (‖x‖·‖y‖))`.
///
/// The arc-cosine form (rather than `1 - cos`) is a true metric on the unit
/// sphere — it is the geodesic distance — so it is safe to use with the
/// exact RBC search. Zero vectors are treated as being at distance `π/2`
/// from everything except other zero vectors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cosine;

impl Metric<[f32]> for Cosine {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> Dist {
        debug_check_dims(a, b);
        let n = a.len().min(b.len());
        let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
        for i in 0..n {
            let (x, y) = (a[i] as f64, b[i] as f64);
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        if na == 0.0 && nb == 0.0 {
            return 0.0;
        }
        if na == 0.0 || nb == 0.0 {
            return std::f64::consts::FRAC_PI_2;
        }
        let cos = (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0);
        cos.acos()
    }

    fn name(&self) -> &'static str {
        "cosine"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn euclidean_matches_hand_computation() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 6.0, 3.0];
        assert!((Euclidean.dist(&a, &b) - 5.0).abs() < EPS);
        assert!((SquaredEuclidean.dist(&a, &b) - 25.0).abs() < EPS);
    }

    #[test]
    fn euclidean_handles_dims_not_divisible_by_four() {
        for d in 1..12 {
            let a: Vec<f32> = (0..d).map(|i| i as f32).collect();
            let b: Vec<f32> = (0..d).map(|i| (i as f32) + 1.0).collect();
            // every coordinate differs by exactly 1
            assert!(
                (Euclidean.dist(&a, &b) - (d as f64).sqrt()).abs() < EPS,
                "d={d}"
            );
        }
    }

    #[test]
    fn manhattan_and_chebyshev_match_hand_computation() {
        let a = [0.0f32, 0.0, 0.0];
        let b = [1.0f32, -2.0, 3.0];
        assert!((Manhattan.dist(&a, &b) - 6.0).abs() < EPS);
        assert!((Chebyshev.dist(&a, &b) - 3.0).abs() < EPS);
    }

    #[test]
    fn minkowski_interpolates_between_l1_and_linf() {
        let a = [0.0f32, 0.0];
        let b = [3.0f32, 4.0];
        assert!((Minkowski::new(1.0).dist(&a, &b) - Manhattan.dist(&a, &b)).abs() < EPS);
        assert!((Minkowski::new(2.0).dist(&a, &b) - Euclidean.dist(&a, &b)).abs() < EPS);
        // large p approaches the max-coordinate
        assert!((Minkowski::new(64.0).dist(&a, &b) - 4.0).abs() < 1e-2);
        assert_eq!(Minkowski::new(3.0).p(), 3.0);
    }

    #[test]
    #[should_panic(expected = "requires p >= 1")]
    fn minkowski_rejects_p_below_one() {
        let _ = Minkowski::new(0.5);
    }

    #[test]
    fn cosine_is_geodesic_angle() {
        let x = [1.0f32, 0.0];
        let y = [0.0f32, 1.0];
        let d = Cosine.dist(&x, &y);
        assert!((d - std::f64::consts::FRAC_PI_2).abs() < EPS);
        assert!(Cosine.dist(&x, &x) < 1e-6);
        // antipodal
        let z = [-1.0f32, 0.0];
        assert!((Cosine.dist(&x, &z) - std::f64::consts::PI).abs() < EPS);
    }

    #[test]
    fn cosine_zero_vector_conventions() {
        let zero = [0.0f32, 0.0];
        let x = [1.0f32, 0.0];
        assert_eq!(Cosine.dist(&zero, &zero), 0.0);
        assert!((Cosine.dist(&zero, &x) - std::f64::consts::FRAC_PI_2).abs() < EPS);
    }

    #[test]
    fn cosine_is_scale_invariant() {
        let x = [1.0f32, 2.0, 3.0];
        let y = [-2.0f32, 0.5, 1.0];
        let x2 = [10.0f32, 20.0, 30.0];
        assert!((Cosine.dist(&x, &y) - Cosine.dist(&x2, &y)).abs() < 1e-6);
    }

    #[test]
    fn identity_of_indiscernibles_for_all_vector_metrics() {
        let v = [0.25f32, -1.5, 3.75, 0.0, 9.0];
        assert_eq!(Euclidean.dist(&v, &v), 0.0);
        assert_eq!(Manhattan.dist(&v, &v), 0.0);
        assert_eq!(Chebyshev.dist(&v, &v), 0.0);
        assert_eq!(Minkowski::new(3.0).dist(&v, &v), 0.0);
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            Metric::<[f32]>::name(&Euclidean),
            Metric::<[f32]>::name(&SquaredEuclidean),
            Metric::<[f32]>::name(&Manhattan),
            Metric::<[f32]>::name(&Chebyshev),
            Metric::<[f32]>::name(&Minkowski::new(3.0)),
            Metric::<[f32]>::name(&Cosine),
        ];
        let mut sorted = names.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
