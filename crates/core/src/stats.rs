//! Work accounting for RBC queries.
//!
//! The theory (§6) is phrased in distance evaluations, and the experiments
//! report speedups over brute force; these counters let both be measured
//! directly. Every query returns a [`QueryStats`]; batch entry points
//! aggregate them into a [`SearchStats`].

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
    /// Ownership-list tiles this query streamed in stage 2. A single query
    /// always pays for its own tiles, so this is a private count; batched
    /// list-major execution is where tiles get shared (see
    /// [`SearchStats::list_tile_passes`]).
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
/// differently under list-major (tile-sharing) execution:
///
/// * **Distance evaluations** (`list_distance_evals`) are always counted
///   once per `(query, point)` pair. A distance belongs to exactly one
///   query; no execution strategy can share it, so this number measures
///   arithmetic work and is strategy-independent up to pruning-order
///   effects.
/// * **Tile passes** (`list_tile_passes`) are counted once per *shared*
///   tile stream. When list-major execution streams one ownership-list
///   tile for a group of co-travelling queries, that is **one** pass — not
///   one per query sharing it. Query-major execution gives every query a
///   private pass over every list it scans, so there the count equals the
///   sum of per-query passes. This number measures memory traffic, the
///   resource the paper's batching argument is about.
///
/// `reps_examined` stays a per-(query, list) count under both strategies
/// (it answers "how well did pruning work per query"), while `list_scans`
/// counts physical scans — so `reps_examined / list_scans` is the achieved
/// tile-sharing factor (see [`tile_sharing_factor`]).
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
    /// Physical stage-2 list scans performed: list-major counts each
    /// shared group scan once; query-major performs one private scan per
    /// `(query, list)` pair, making this equal to `reps_examined`.
    pub list_scans: u64,
    /// Lane groups the stage-2 group scans recomputed with the canonical
    /// kernel after the `f32` screen (`GroupScanStats::reranked`); the
    /// share of `list_distance_evals / 8` the screen did *not* reject. Only
    /// batched list-major searches report it (a solo query's [`QueryStats`]
    /// has no slot for it). It depends on the active kernel's rounding and
    /// on scan order: a report, never a gate, and never compared for
    /// equality.
    pub list_reranked_groups: u64,
}

impl SearchStats {
    /// Folds one query's stats into the aggregate. A solo query streams
    /// its tiles privately, so each of its list scans counts as one
    /// physical scan and its tile passes add unshared.
    pub fn absorb(&mut self, q: &QueryStats) {
        self.queries += 1;
        self.rep_distance_evals += q.rep_distance_evals;
        self.list_distance_evals += q.list_distance_evals;
        self.reps_examined += q.reps_examined as u64;
        self.list_points_skipped += q.list_points_skipped;
        self.max_query_evals = self.max_query_evals.max(q.total_distance_evals());
        self.list_tile_passes += q.list_tile_passes;
        self.list_scans += q.reps_examined as u64;
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
    /// stage-2 tile-sharing factor. Query-major execution is always `1.0`
    /// (every scan serves one query); list-major execution exceeds `1.0`
    /// whenever co-travelling queries selected the same ownership lists.
    /// `0.0` when no list was scanned at all.
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

impl std::iter::FromIterator<QueryStats> for SearchStats {
    fn from_iter<I: IntoIterator<Item = QueryStats>>(iter: I) -> Self {
        let mut agg = SearchStats::default();
        for q in iter {
            agg.absorb(&q);
        }
        agg
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

    #[test]
    fn query_totals_and_survival() {
        let q = sample_query(10, 25);
        assert_eq!(q.total_distance_evals(), 35);
        assert!((q.rep_survival_rate() - 0.3).abs() < 1e-12);
        assert_eq!(QueryStats::default().rep_survival_rate(), 0.0);
    }

    #[test]
    fn absorb_accumulates_and_tracks_max() {
        let mut agg = SearchStats::default();
        agg.absorb(&sample_query(10, 20));
        agg.absorb(&sample_query(10, 50));
        assert_eq!(agg.queries, 2);
        assert_eq!(agg.total_distance_evals(), 90);
        assert_eq!(agg.max_query_evals, 60);
        assert_eq!(agg.evals_per_query(), 45.0);
        assert_eq!(agg.reps_examined_per_query(), 3.0);
        // Solo queries stream privately: one physical scan per examined
        // list, so the sharing factor is exactly 1.
        assert_eq!(agg.list_tile_passes, 8);
        assert_eq!(agg.list_scans, 6);
        assert_eq!(agg.tile_sharing_factor(), 1.0);
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
        let mut a: SearchStats = vec![sample_query(5, 5)].into_iter().collect();
        let b: SearchStats = vec![sample_query(7, 3), sample_query(1, 1)]
            .into_iter()
            .collect();
        a.merge(&b);
        assert_eq!(a.queries, 3);
        assert_eq!(a.total_distance_evals(), 22);
        assert_eq!(a.max_query_evals, 10);
    }

    #[test]
    fn work_speedup_is_relative_to_database_size() {
        let agg: SearchStats = vec![sample_query(10, 10)].into_iter().collect();
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
