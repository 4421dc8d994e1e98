//! Work accounting for RBC queries.
//!
//! The theory (§6) is phrased in distance evaluations, and the experiments
//! report speedups over brute force; these counters let both be measured
//! directly. Every search is a batch and returns a [`SearchStats`]; the
//! single-query entry points are batches of one and hand back their one row
//! as a [`QueryStats`].

use serde::{Deserialize, Serialize};

/// Work performed by a single RBC query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryStats {
    /// Distance evaluations in the first brute-force stage, `BF(q, R)`.
    pub rep_distance_evals: u64,
    /// Distance evaluations in the second stage (ownership-list scans).
    pub list_distance_evals: u64,
    /// Number of representatives in the structure.
    pub reps_total: usize,
    /// Representatives whose lists were scanned (exact search: survivors of
    /// the pruning rules; one-shot: 1, or 0 for a query no representative
    /// is nearest to — every distance NaN).
    pub reps_examined: usize,
    /// Candidate points skipped by the sorted-list triangle-inequality cut
    /// (exact search only).
    pub list_points_skipped: u64,
    /// Ownership-list tiles this query streamed in stage 2. Alone in its
    /// batch it shares them with nobody; in a larger batch tiles are shared
    /// (see [`SearchStats::list_tile_passes`]).
    pub list_tile_passes: u64,
}

impl QueryStats {
    /// Total distance evaluations across both stages.
    pub fn total_distance_evals(&self) -> u64 {
        self.rep_distance_evals + self.list_distance_evals
    }

    /// Fraction of representatives that survived pruning.
    pub fn rep_survival_rate(&self) -> f64 {
        if self.reps_total == 0 {
            0.0
        } else {
            self.reps_examined as f64 / self.reps_total as f64
        }
    }
}

/// Aggregated work over a batch of queries.
///
/// # Counter semantics
///
/// Two kinds of stage-2 work are counted, and they deliberately scale
/// differently as a batch grows and its queries share list scans:
///
/// * **Distance evaluations** (`list_distance_evals`) are always counted
///   once per `(query, point)` pair. A distance belongs to exactly one
///   query and can never be shared, so this number measures arithmetic
///   work; each query meets its nearest list first, so it barely depends
///   on who else is in the batch.
/// * **Tile passes** (`list_tile_passes`) are counted once per *shared*
///   tile stream. When a group scan streams one ownership-list tile for
///   several co-travelling queries, that is **one** pass — not one per
///   query sharing it. For a batch of one it is the query's own count.
///   This number measures memory traffic, the resource the paper's
///   batching argument is about.
///
/// `reps_examined` is a per-(query, list) count (it answers "how well did
/// pruning work per query"), while `list_scans` counts physical scans — so
/// `reps_examined / list_scans` is the achieved tile-sharing factor (see
/// [`tile_sharing_factor`]).
///
/// [`tile_sharing_factor`]: SearchStats::tile_sharing_factor
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Number of queries aggregated.
    pub queries: u64,
    /// Sum of first-stage distance evaluations.
    pub rep_distance_evals: u64,
    /// Sum of second-stage distance evaluations (per `(query, point)`
    /// pair; see the type-level counter semantics).
    pub list_distance_evals: u64,
    /// Sum of representatives examined (per `(query, list)` pair).
    pub reps_examined: u64,
    /// Sum of points skipped by the sorted-list cut.
    pub list_points_skipped: u64,
    /// Maximum total evaluations over any single query (tail behaviour).
    pub max_query_evals: u64,
    /// Stage-2 list tiles streamed through memory, counted once per
    /// shared pass (see the type-level counter semantics).
    pub list_tile_passes: u64,
    /// Physical stage-2 list scans performed, each shared group scan
    /// counted once; equal to `reps_examined` when no two queries shared
    /// one (always, for a batch of one).
    pub list_scans: u64,
    /// Lane groups in which the stage-2 group scans recomputed a lane
    /// canonically after the `f32` or code screen
    /// (`GroupScanStats::reranked`); the share of `list_distance_evals / 8`
    /// the screen did *not* reject (a single query's [`QueryStats`] has no
    /// slot for it). It depends on the active kernel's rounding and on scan
    /// order: a report, never a gate, and never compared for equality.
    pub list_reranked_groups: u64,
    /// Lane groups stage 1 scored with the canonical lane kernel
    /// (`BfStats::reranked_groups` of its `BF(Q, R)`): every lane group of
    /// the representatives' mirror for the exact search, the groups the
    /// `f32` screen kept for the one-shot search's screened k = 1 scan.
    /// Like `list_reranked_groups`, a report that depends on the kernel and
    /// is never gated or compared for equality.
    pub rep_reranked_groups: u64,
}

impl SearchStats {
    /// The account of a batch of one as its query's [`QueryStats`], in a
    /// structure of `reps_total` representatives (`list_reranked_groups`
    /// and `rep_reranked_groups` have no slot there and are dropped).
    pub(crate) fn into_query(self, reps_total: usize) -> QueryStats {
        debug_assert_eq!(self.queries, 1, "only a batch of one is one query");
        QueryStats {
            rep_distance_evals: self.rep_distance_evals,
            list_distance_evals: self.list_distance_evals,
            reps_total,
            reps_examined: self.reps_examined as usize,
            list_points_skipped: self.list_points_skipped,
            list_tile_passes: self.list_tile_passes,
        }
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.queries += other.queries;
        self.rep_distance_evals += other.rep_distance_evals;
        self.list_distance_evals += other.list_distance_evals;
        self.reps_examined += other.reps_examined;
        self.list_points_skipped += other.list_points_skipped;
        self.max_query_evals = self.max_query_evals.max(other.max_query_evals);
        self.list_tile_passes += other.list_tile_passes;
        self.list_scans += other.list_scans;
        self.list_reranked_groups += other.list_reranked_groups;
        self.rep_reranked_groups += other.rep_reranked_groups;
    }

    /// Total distance evaluations across both stages and all queries.
    pub fn total_distance_evals(&self) -> u64 {
        self.rep_distance_evals + self.list_distance_evals
    }

    /// Mean distance evaluations per query.
    pub fn evals_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total_distance_evals() as f64 / self.queries as f64
        }
    }

    /// Mean number of ownership lists scanned per query.
    pub fn reps_examined_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.reps_examined as f64 / self.queries as f64
        }
    }

    /// Mean number of queries served per physical list scan — the achieved
    /// stage-2 tile-sharing factor: `1.0` when every scan served one query
    /// (always, for a batch of one), more whenever co-travelling queries
    /// selected the same ownership lists. `0.0` when no list was scanned at
    /// all.
    pub fn tile_sharing_factor(&self) -> f64 {
        if self.list_scans == 0 {
            0.0
        } else {
            self.reps_examined as f64 / self.list_scans as f64
        }
    }

    /// The work reduction relative to scanning a database of `n` points:
    /// `n / evals_per_query`. This is the quantity Figures 1–3 call
    /// "speedup" when measured in work rather than wall-clock.
    pub fn work_speedup_over_brute_force(&self, n: usize) -> f64 {
        let per_query = self.evals_per_query();
        if per_query == 0.0 {
            0.0
        } else {
            n as f64 / per_query
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query(rep: u64, list: u64) -> QueryStats {
        QueryStats {
            rep_distance_evals: rep,
            list_distance_evals: list,
            reps_total: 10,
            reps_examined: 3,
            list_points_skipped: 2,
            list_tile_passes: 4,
        }
    }

    /// `queries` queries' worth of work, three lists each, scanned apart.
    fn batch(queries: u64, rep: u64, list: u64, max_query: u64) -> SearchStats {
        SearchStats {
            queries,
            rep_distance_evals: rep,
            list_distance_evals: list,
            reps_examined: 3 * queries,
            max_query_evals: max_query,
            list_tile_passes: 2 * queries,
            list_scans: 3 * queries,
            ..SearchStats::default()
        }
    }

    #[test]
    fn query_totals_and_survival() {
        let q = sample_query(10, 25);
        assert_eq!(q.total_distance_evals(), 35);
        assert!((q.rep_survival_rate() - 0.3).abs() < 1e-12);
        assert_eq!(QueryStats::default().rep_survival_rate(), 0.0);
    }

    #[test]
    fn a_batch_of_one_is_its_query_stats() {
        let row = SearchStats {
            queries: 1,
            rep_distance_evals: 10,
            list_distance_evals: 25,
            reps_examined: 3,
            list_points_skipped: 2,
            max_query_evals: 35,
            list_tile_passes: 4,
            list_scans: 3,
            list_reranked_groups: 1,
            rep_reranked_groups: 1,
        };
        assert_eq!(row.into_query(10), sample_query(10, 25));
    }

    #[test]
    fn tile_sharing_factor_reflects_shared_scans() {
        // A list-major batch: 6 (query, list) pairs served by 2 physical
        // scans means each scan carried 3 queries.
        let agg = SearchStats {
            queries: 3,
            reps_examined: 6,
            list_scans: 2,
            list_tile_passes: 2,
            ..SearchStats::default()
        };
        assert_eq!(agg.tile_sharing_factor(), 3.0);
        assert_eq!(SearchStats::default().tile_sharing_factor(), 0.0);
    }

    #[test]
    fn merge_combines_aggregates() {
        let mut a = batch(1, 5, 5, 10);
        a.merge(&batch(2, 8, 4, 7));
        assert_eq!(a.queries, 3);
        assert_eq!(a.total_distance_evals(), 22);
        assert_eq!(a.max_query_evals, 10);
        assert_eq!(a.evals_per_query(), 22.0 / 3.0);
        assert_eq!(a.reps_examined_per_query(), 3.0);
        assert_eq!((a.list_tile_passes, a.list_scans), (6, 9));
    }

    #[test]
    fn work_speedup_is_relative_to_database_size() {
        let agg = batch(1, 10, 10, 20);
        assert_eq!(agg.work_speedup_over_brute_force(2000), 100.0);
        assert_eq!(
            SearchStats::default().work_speedup_over_brute_force(100),
            0.0
        );
    }

    #[test]
    fn empty_aggregate_is_all_zero() {
        let agg = SearchStats::default();
        assert_eq!(agg.evals_per_query(), 0.0);
        assert_eq!(agg.reps_examined_per_query(), 0.0);
        assert_eq!(agg.total_distance_evals(), 0);
    }
}
