//! The [`Metric`] trait: a distance function over items of some type.

use crate::simd::{CodeBlock, LaneBlock, LaneGroup, NormTile, LANES};

/// Distances throughout the library are `f64`.
///
/// Vector components are stored as `f32` (see
/// [`VectorSet`](crate::VectorSet)), but distances are accumulated and
/// reported in double precision so triangle-inequality reasoning (pruning
/// rules, radius bookkeeping, theory validation) is robust to rounding.
pub type Dist = f64;

/// A metric `ρ(·,·)` over items of type `T`.
///
/// Implementations must satisfy the metric axioms on the items they will be
/// used with:
///
/// 1. `ρ(a, b) ≥ 0` (non-negativity),
/// 2. `ρ(a, a) = 0` (identity of indiscernibles, at least the forward
///    direction — pseudometrics where distinct items may be at distance zero
///    are acceptable to the search algorithms),
/// 3. `ρ(a, b) = ρ(b, a)` (symmetry),
/// 4. `ρ(a, c) ≤ ρ(a, b) + ρ(b, c)` (triangle inequality).
///
/// The exact RBC search algorithm relies on axioms 3 and 4 for correctness
/// of its pruning rules; the one-shot algorithm relies on them only through
/// its probabilistic analysis. The one-shot build's screen cap relies on no
/// axiom: it is the largest of `s` distances to real points, computed with
/// [`dist`](Self::dist). Use
/// [`check_metric_axioms`](crate::check_metric_axioms) to sanity-check a new
/// metric against sampled triples.
///
/// Metrics must be [`Sync`] because the brute-force primitive evaluates them
/// from many worker threads concurrently.
pub trait Metric<T: ?Sized>: Sync {
    /// Computes the distance between `a` and `b`.
    fn dist(&self, a: &T, b: &T) -> Dist;

    /// Computes a *lower bound* on the distance between `a` and `b` that is
    /// cheap to evaluate.
    ///
    /// The default returns `0.0`, which is always valid. Metrics with an
    /// inexpensive bound (e.g. the difference of cached norms for `ℓ2`) can
    /// override this; the brute-force primitive consults it before paying
    /// for a full distance evaluation when a pruning threshold is active.
    #[inline]
    fn dist_lower_bound(&self, _a: &T, _b: &T) -> Dist {
        0.0
    }

    /// A short human-readable name for reports and benchmark labels.
    fn name(&self) -> &'static str {
        "metric"
    }

    /// True when this metric can score a whole blocked lane group at once
    /// via [`dist_lanes`](Self::dist_lanes).
    ///
    /// Contract: when this returns `true`, `dist_lanes` must compute all
    /// [`LANES`] distances and return `true`, and each lane's result must
    /// be **bit-identical** to `dist` on the corresponding point — the
    /// brute-force primitive mixes the two paths freely (partial tail
    /// groups, per-query fallbacks) and the engines assert bitwise
    /// agreement between blocked and unblocked scans.
    #[inline]
    fn lanes_supported(&self) -> bool {
        false
    }

    /// Computes the distances from `query` to all [`LANES`] lanes of a
    /// blocked group at once, writing them to `out`.
    ///
    /// Returns `false` (leaving `out` untouched) when the metric has no
    /// lane kernel — the default. See
    /// [`lanes_supported`](Self::lanes_supported) for the bit-compatibility
    /// contract when it does.
    #[inline]
    fn dist_lanes(&self, _query: &T, _group: LaneGroup<'_>, _out: &mut [Dist; LANES]) -> bool {
        false
    }

    /// Cheaply screens the lane groups of `block` for up to
    /// [`SCREEN_QUERIES`](crate::SCREEN_QUERIES) queries, each against its
    /// own bound, before anyone pays for [`dist_lanes`](Self::dist_lanes):
    /// bit `lane` of `keep[t * block.groups() + j]` may be cleared only if
    /// `dist_lanes` for `queries[t]` on group `j` is certain to report a
    /// distance **greater than** `bounds[t]` for that lane (a NaN bound
    /// clears nothing). A set bit promises nothing; callers recompute a
    /// group with `dist_lanes` before using any lane of it, so the screen
    /// decides what is skipped, never what is answered — which is why its
    /// masks, unlike distances, may differ between kernels. They may not
    /// differ with the tile: query `t`'s mask is the one a call for it
    /// alone returns.
    ///
    /// The default keeps every lane, which is always valid.
    ///
    /// # Panics
    /// Implementations may panic if `bounds` is not one bound per query, if
    /// there are more than [`SCREEN_QUERIES`](crate::SCREEN_QUERIES)
    /// queries, or if `keep` is shorter than `queries.len() *
    /// block.groups()`.
    #[inline]
    fn screen_lanes(
        &self,
        queries: &[&T],
        block: LaneBlock<'_>,
        _bounds: &[Dist],
        keep: &mut [u8],
    ) {
        keep[..queries.len() * block.groups()].fill(u8::MAX);
    }

    /// Fills `tile` with the register tile of `queries` (up to
    /// [`TILE_QUERIES`](crate::TILE_QUERIES)) against the lane groups of
    /// `block`, on this metric's reported scale, and returns `true`; the
    /// dense scans then score canonically only the groups in which
    /// [`NormTile::open_groups`] finds a lane under [`NormTile::limit`] of
    /// the collector's bound. Returns `false` when the metric has no tile
    /// for blocks of this dimension, and the scans score every group with
    /// [`dist_lanes`](Self::dist_lanes). The answer may depend on the
    /// metric and the block's dimension only — a scan asks once, with an
    /// empty block — so a query of another length must still fill.
    ///
    /// Like [`screen_lanes`](Self::screen_lanes), a tile decides what is
    /// skipped, never what is answered: it may clear a lane only when
    /// `dist_lanes` is certain to report a distance **greater than** the
    /// bound its limit was taken from.
    ///
    /// The default has no tile, which is always valid.
    #[inline]
    fn tile_lanes(&self, _queries: &[&T], _block: LaneBlock<'_>, _tile: &mut NormTile) -> bool {
        false
    }

    /// [`screen_lanes`](Self::screen_lanes) from a `u8`-coded block
    /// ([`CodedVectors`](crate::CodedVectors)): bit `lane` of `keep[j]` may
    /// be cleared only if [`dist`](Self::dist) on the *original* point that
    /// lane codes is certain to be **greater than** `bound`. The codes are
    /// lossy, so nothing but `dist` on the original decides what a kept lane
    /// is worth.
    ///
    /// The default keeps every lane, which is always valid.
    ///
    /// # Panics
    /// Implementations may panic if `keep` is shorter than `block.groups()`.
    #[inline]
    fn screen_codes(&self, _query: &T, block: CodeBlock<'_>, _bound: Dist, keep: &mut [u8]) {
        keep[..block.groups()].fill(u8::MAX);
    }
}

impl<T: ?Sized, M: Metric<T>> Metric<T> for &M {
    #[inline]
    fn dist(&self, a: &T, b: &T) -> Dist {
        (**self).dist(a, b)
    }

    #[inline]
    fn dist_lower_bound(&self, a: &T, b: &T) -> Dist {
        (**self).dist_lower_bound(a, b)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    #[inline]
    fn lanes_supported(&self) -> bool {
        (**self).lanes_supported()
    }

    #[inline]
    fn dist_lanes(&self, query: &T, group: LaneGroup<'_>, out: &mut [Dist; LANES]) -> bool {
        (**self).dist_lanes(query, group, out)
    }

    #[inline]
    fn screen_lanes(&self, queries: &[&T], block: LaneBlock<'_>, bounds: &[Dist], keep: &mut [u8]) {
        (**self).screen_lanes(queries, block, bounds, keep);
    }

    #[inline]
    fn tile_lanes(&self, queries: &[&T], block: LaneBlock<'_>, tile: &mut NormTile) -> bool {
        (**self).tile_lanes(queries, block, tile)
    }

    #[inline]
    fn screen_codes(&self, query: &T, block: CodeBlock<'_>, bound: Dist, keep: &mut [u8]) {
        (**self).screen_codes(query, block, bound, keep);
    }
}

/// `M` without its lane kernel: the same `dist`, `dist_lower_bound` and
/// `name`, and [`lanes_supported`](Metric::lanes_supported) left `false`.
///
/// Every scan picks its layout from the metric alone, so this wrapper is how
/// a caller asks for the per-point path on a metric that has lanes — the
/// reference the lane-blocked scans are checked against bit for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerPoint<M>(pub M);

impl<T: ?Sized, M: Metric<T>> Metric<T> for PerPoint<M> {
    #[inline]
    fn dist(&self, a: &T, b: &T) -> Dist {
        self.0.dist(a, b)
    }

    #[inline]
    fn dist_lower_bound(&self, a: &T, b: &T) -> Dist {
        self.0.dist_lower_bound(a, b)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::Euclidean;

    #[test]
    fn metric_is_object_usable_through_reference() {
        let m = Euclidean;
        let r = &m;
        let a = [0.0f32, 0.0];
        let b = [3.0f32, 4.0];
        assert_eq!(Metric::<[f32]>::dist(&r, &a[..], &b[..]), 5.0);
        assert_eq!(Metric::<[f32]>::name(&r), "euclidean");
    }

    #[test]
    fn default_screen_keeps_every_lane() {
        struct Unscreened;
        impl Metric<[f32]> for Unscreened {
            fn dist(&self, _a: &[f32], _b: &[f32]) -> Dist {
                1.0
            }
        }
        let blocked = crate::BlockedVectors::from_flat(&[0.0; 20], 1);
        let mut keep = [0u8; 4];
        Unscreened.screen_lanes(&[&[9.0][..]], blocked.block(0..3), &[0.0], &mut keep);
        assert_eq!(keep, [u8::MAX, u8::MAX, u8::MAX, 0]);
        let mut keep = [0u8; 7];
        let queries = [&[9.0][..], &[1.0][..]];
        Unscreened.screen_lanes(&queries, blocked.block(0..3), &[0.0, 0.0], &mut keep);
        assert_eq!(
            keep,
            [u8::MAX, u8::MAX, u8::MAX, u8::MAX, u8::MAX, u8::MAX, 0]
        );
        let coded = crate::CodedVectors::gather_flat(&[0.0; 20], 1, &[0; 20]);
        let mut keep = [0u8; 4];
        Unscreened.screen_codes(&[9.0][..], coded.block(0..3), 0.0, &mut keep);
        assert_eq!(keep, [u8::MAX, u8::MAX, u8::MAX, 0]);
    }

    #[test]
    fn per_point_forwards_everything_but_the_lanes() {
        let per_point = PerPoint(Euclidean);
        assert!(Metric::<[f32]>::lanes_supported(&Euclidean));
        assert!(!Metric::<[f32]>::lanes_supported(&per_point));
        assert_eq!(Metric::<[f32]>::name(&per_point), "euclidean");
        let rows = [
            ([0.0f32, 0.0, 0.0], [3.0f32, 4.0, 12.0]),
            ([1.0e-20, -7.5, 0.1], [2.5e18, 0.3, -0.1]),
            ([f32::NAN, 1.0, 2.0], [0.0, 1.0, 2.0]),
            ([f32::INFINITY, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ];
        for (a, b) in &rows {
            let (a, b) = (&a[..], &b[..]);
            assert_eq!(
                per_point.dist(a, b).to_bits(),
                Euclidean.dist(a, b).to_bits()
            );
            assert_eq!(
                per_point.dist_lower_bound(a, b).to_bits(),
                Euclidean.dist_lower_bound(a, b).to_bits()
            );
        }
        let blocked = crate::BlockedVectors::from_flat(&[0.0; 24], 3);
        let mut out = [0.0; LANES];
        assert!(!per_point.dist_lanes(&[1.0, 2.0, 3.0][..], blocked.group(0), &mut out));
        // A metric whose lower bound is not the default zero.
        let edit = PerPoint(crate::Levenshtein);
        assert_eq!(edit.dist_lower_bound("kitten", "sit"), 3.0);
        assert_eq!(edit.dist("kitten", "sitting"), 3.0);
        assert_eq!(edit.name(), "levenshtein");
    }

    #[test]
    fn default_lower_bound_is_zero() {
        struct Trivial;
        impl Metric<[f32]> for Trivial {
            fn dist(&self, _a: &[f32], _b: &[f32]) -> Dist {
                1.0
            }
        }
        let t = Trivial;
        assert_eq!(t.dist_lower_bound(&[1.0][..], &[2.0][..]), 0.0);
        assert_eq!(t.name(), "metric");
    }
}
