//! Work accounting for the brute-force primitive.
//!
//! The RBC theory (§6) measures the cost of a search in *distance
//! evaluations*, not seconds: Theorem 1 bounds the expected number of
//! evaluations by `O(c^{3/2}·√n)`. Every brute-force call therefore counts
//! the evaluations it performed and returns them alongside its result, so
//! the upper layers (and the experiment harness) can report work and
//! wall-clock independently.

/// Work performed by one brute-force call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BfStats {
    /// Number of full distance evaluations.
    pub distance_evals: u64,
    /// Number of candidate items that were skipped because a cheap lower
    /// bound already exceeded the pruning threshold (only nonzero when a
    /// threshold was supplied and the metric provides a non-trivial bound).
    pub lower_bound_skips: u64,
    /// Number of queries processed.
    pub queries: u64,
    /// Lane groups the canonical lane kernel scored: all of them on an
    /// unscreened blocked scan (a dense scan leaves the partial last group
    /// to the per-point arm, the row kernel scores it too), the groups the
    /// screen kept on a screened one
    /// ([`BruteForce::nn_with_blocks`](crate::BruteForce::nn_with_blocks)),
    /// zero on the per-point path. Unlike the other fields it depends on
    /// the active kernel's rounding and on scan order: a report, never a
    /// gate, and never compared for equality across kernels or schedules.
    pub reranked_groups: u64,
}

impl BfStats {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter for a plain per-point scan of `items` candidates for
    /// `queries` queries.
    pub fn full_scan(queries: u64, items: u64) -> Self {
        Self {
            distance_evals: queries * items,
            queries,
            ..Self::default()
        }
    }

    /// Merges the work of two calls (or two workers of the same call).
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        Self {
            distance_evals: self.distance_evals + other.distance_evals,
            lower_bound_skips: self.lower_bound_skips + other.lower_bound_skips,
            queries: self.queries + other.queries,
            reranked_groups: self.reranked_groups + other.reranked_groups,
        }
    }

    /// Adds `other` into `self`.
    pub fn merge_from(&mut self, other: Self) {
        *self = self.merged(other);
    }

    /// Average number of distance evaluations per query (0 if no queries).
    pub fn evals_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.distance_evals as f64 / self.queries as f64
        }
    }
}

impl std::ops::Add for BfStats {
    type Output = BfStats;
    fn add(self, rhs: Self) -> Self {
        self.merged(rhs)
    }
}

impl std::iter::Sum for BfStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| a.merged(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scan_multiplies() {
        let s = BfStats::full_scan(10, 100);
        assert_eq!(s.distance_evals, 1000);
        assert_eq!(s.queries, 10);
        assert_eq!(s.evals_per_query(), 100.0);
    }

    #[test]
    fn merged_adds_componentwise() {
        let a = BfStats {
            distance_evals: 5,
            lower_bound_skips: 2,
            queries: 1,
            reranked_groups: 4,
        };
        let b = BfStats {
            distance_evals: 7,
            lower_bound_skips: 0,
            queries: 3,
            reranked_groups: 1,
        };
        let m = a.merged(b);
        assert_eq!(m.distance_evals, 12);
        assert_eq!(m.lower_bound_skips, 2);
        assert_eq!(m.queries, 4);
        assert_eq!(m.reranked_groups, 5);
        assert_eq!(a + b, m);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![BfStats::full_scan(1, 3); 4];
        let total: BfStats = parts.into_iter().sum();
        assert_eq!(total.distance_evals, 12);
        assert_eq!(total.queries, 4);
    }

    #[test]
    fn evals_per_query_handles_zero_queries() {
        assert_eq!(BfStats::new().evals_per_query(), 0.0);
    }

    #[test]
    fn merge_from_accumulates_in_place() {
        let mut a = BfStats::new();
        a.merge_from(BfStats::full_scan(2, 5));
        a.merge_from(BfStats::full_scan(1, 5));
        assert_eq!(a.distance_evals, 15);
        assert_eq!(a.queries, 3);
    }
}
