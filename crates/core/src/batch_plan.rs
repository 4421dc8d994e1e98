//! Stage-1 planning for list-major batched search.
//!
//! Cayton's argument is that metric search should be recast as batched
//! brute-force kernels so the hardware sees dense, regular work. The
//! query-major batch path gets this for stage 1 (`BF(Q, R)` is one dense
//! call) but loses it in stage 2: every query privately re-scans the
//! ownership lists it survived to, so a list selected by many queries of
//! the batch is streamed through memory once *per query*.
//!
//! [`BatchPlan`] inverts that. After stage 1 has produced the full
//! query × representative distance matrix, the plan applies the paper's
//! pruning rules (eq. 1 / eq. 2, exactly as the query-major path does) per
//! query and then groups the survivors *by list*: for each ownership list,
//! the set of batch positions that must scan it. Stage 2 execution then
//! parallelises over lists and streams each list's tiles once for its
//! whole group — the `BF(Q_group, X[L])` shape — merging candidates into
//! per-query top-k accumulators.
//!
//! The plan is pure bookkeeping: building it costs no distance
//! evaluations, and because the survivor sets are identical to the
//! query-major path's, the two strategies return bit-identical answers in
//! exact mode (pruning with strict thresholds only ever discards points
//! that provably cannot enter the final top-k, and ties break
//! deterministically by index). With `epsilon > 0` the cut is allowed to
//! discard points inside the `(1+ε)` margin, so the strategies still each
//! honour the approximation guarantee but may return different eligible
//! answers.

use std::sync::Mutex;

use rayon::prelude::*;

use rbc_bruteforce::{
    BruteForce, GroupCursor, GroupScanStats, ListMirror, Neighbor, TopK, MIN_PARALLEL_EVALS,
};
use rbc_metric::{Dataset, Dist, Metric};

use crate::params::RbcConfig;
use crate::reps::OwnershipList;
use crate::stats::SearchStats;

/// Queries per parallel claim while planning: a survivor row costs ~3 µs,
/// and waking a helper for less than ~50 µs of work loses (batches of four
/// planned 60 % slower in parallel than on the caller's thread).
const PLAN_MIN_QUERIES: usize = 16;

/// Planned members (group size × list length, summed over a plan's groups)
/// below which a lane-kernel stage 2 stays on the calling thread. The cuts
/// leave a seventh to a tenth of them to evaluate, some 30 000 evaluations
/// here: a serving batch's handful of cache misses ran 15 % faster without
/// the helper's wake-up and the wait for its last group than with them.
const MIN_PARALLEL_PLANNED: usize = 4 * MIN_PARALLEL_EVALS;

/// The queries that must scan one ownership list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ListGroup {
    /// Position of the list (and of its representative) in the structure.
    pub list_index: usize,
    /// Batch positions of the queries whose pruning rules selected this
    /// list, ascending.
    pub queries: Vec<usize>,
}

/// An inverted stage-2 execution plan: for every ownership list that any
/// query must scan, the group of queries that scan it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchPlan {
    /// Non-empty list groups, ordered **largest scan first**: descending
    /// estimated work (group size × list length for the exact plan, group
    /// size for the one-shot plan), ties broken toward the lower list
    /// index. The order is a contract, not an execution schedule: the
    /// distributed router's longest-processing-time routing walks it, and
    /// [`execute_list_major`] re-orders for itself (nearest lists first).
    /// It does suit a scheduler that hands out groups on demand — the
    /// parallel executor claims a few at a time, so the heavy scans start
    /// early and the light tail evens the threads out — whereas cutting
    /// this list into one contiguous run per thread would give the first
    /// thread every heavy group.
    pub groups: Vec<ListGroup>,
    /// Per-query pruning cap `γ_k` — the k-th smallest representative
    /// distance, a valid upper bound on the k-th NN distance because
    /// representatives are database points. `INFINITY` (pruning disabled)
    /// when fewer than `k` representatives exist.
    pub gamma_k: Vec<Dist>,
    /// Number of queries the plan covers.
    pub queries: usize,
    /// Total (query, list) scan pairs — the number of *private* list scans
    /// query-major execution would perform for the same batch.
    pub pairs: usize,
}

impl BatchPlan {
    /// Builds the exact-search plan from the stage-1 distance matrix
    /// `rep_dists` (row-major, one row of `lists.len()` distances per
    /// query), applying the radius bound (eq. 1) and the Lemma 1 bound
    /// (eq. 2) per query exactly as the query-major path does, then
    /// inverting the survivor sets into list groups.
    ///
    /// # Panics
    /// Panics if `rep_dists.len()` is not a multiple of `lists.len()`.
    pub fn plan_exact(
        rep_dists: &[Dist],
        lists: &[OwnershipList],
        k: usize,
        config: &RbcConfig,
    ) -> Self {
        Self::plan_exact_seeded(rep_dists, lists, k, config).0
    }

    /// [`plan_exact`](Self::plan_exact), also returning each query's top-k
    /// collector seeded with the representatives (`lists[ri].rep_index` at
    /// distance `rep_dists[qi, ri]`) — the state every exact search starts
    /// its stage 2 or its merge from. `γ_k` *is* the seeded collector's
    /// threshold, so one selection per query serves both. The per-query
    /// work runs on the rayon pool when `config.bf.parallel`; only the
    /// inversion into list groups is sequential.
    pub fn plan_exact_seeded(
        rep_dists: &[Dist],
        lists: &[OwnershipList],
        k: usize,
        config: &RbcConfig,
    ) -> (Self, Vec<TopK>) {
        let n_lists = lists.len();
        assert!(n_lists > 0, "cannot plan over zero ownership lists");
        assert!(
            rep_dists.len().is_multiple_of(n_lists),
            "distance matrix does not tile into rows of {n_lists}"
        );
        let nq = rep_dists.len() / n_lists;
        let row_survivors = |qi: usize| {
            survivors(
                &rep_dists[qi * n_lists..(qi + 1) * n_lists],
                lists,
                k,
                config,
            )
        };
        let per_query: Vec<(TopK, Vec<usize>)> = if config.bf.parallel {
            (0..nq)
                .into_par_iter()
                .with_min_len(PLAN_MIN_QUERIES)
                .map(row_survivors)
                .collect()
        } else {
            (0..nq).map(row_survivors).collect()
        };
        let (seeds, kept): (Vec<TopK>, Vec<Vec<usize>>) = per_query.into_iter().unzip();

        // Invert, sizing each group before filling it.
        let mut group_sizes = vec![0usize; n_lists];
        for &ri in kept.iter().flatten() {
            group_sizes[ri] += 1;
        }
        let pairs = group_sizes.iter().sum();
        let mut per_list: Vec<Vec<usize>> =
            group_sizes.into_iter().map(Vec::with_capacity).collect();
        for (qi, kept) in kept.iter().enumerate() {
            for &ri in kept {
                per_list[ri].push(qi);
            }
        }

        let mut groups: Vec<ListGroup> = per_list
            .into_iter()
            .enumerate()
            .filter(|(_, queries)| !queries.is_empty())
            .map(|(list_index, queries)| ListGroup {
                list_index,
                queries,
            })
            .collect();
        // Largest scans first: work ≈ queries × list members streamed.
        groups.sort_by_key(|g| {
            (
                std::cmp::Reverse(g.queries.len() * lists[g.list_index].len()),
                g.list_index,
            )
        });
        let plan = Self {
            groups,
            gamma_k: seeds.iter().map(TopK::threshold).collect(),
            queries: nq,
            pairs,
        };
        (plan, seeds)
    }

    /// Builds the one-shot plan: each query scans exactly the list of its
    /// nearest representative, so the groups partition the batch by argmin
    /// of each row (smallest distance, ties broken towards the lower list
    /// index — the same deterministic rule as the `BF(q, R)` reduction of
    /// the query-major path).
    ///
    /// # Panics
    /// Panics if `rep_dists.len()` is not a multiple of `n_lists`.
    pub fn plan_one_shot(rep_dists: &[Dist], n_lists: usize) -> Self {
        assert!(n_lists > 0, "cannot plan over zero ownership lists");
        assert!(
            rep_dists.len().is_multiple_of(n_lists),
            "distance matrix does not tile into rows of {n_lists}"
        );
        let nq = rep_dists.len() / n_lists;
        let mut per_list: Vec<Vec<usize>> = vec![Vec::new(); n_lists];
        for qi in 0..nq {
            let row = &rep_dists[qi * n_lists..(qi + 1) * n_lists];
            let nearest = row
                .iter()
                .enumerate()
                .map(|(ri, &d)| Neighbor::new(ri, d))
                .fold(Neighbor::farthest(), Neighbor::closer);
            per_list[nearest.index].push(qi);
        }
        let mut groups: Vec<ListGroup> = per_list
            .into_iter()
            .enumerate()
            .filter(|(_, queries)| !queries.is_empty())
            .map(|(list_index, queries)| ListGroup {
                list_index,
                queries,
            })
            .collect();
        // Largest groups first (list lengths are not known here; the group
        // size is the schedulable proxy), ties toward the lower list index.
        groups.sort_by_key(|g| (std::cmp::Reverse(g.queries.len()), g.list_index));
        Self {
            groups,
            gamma_k: Vec::new(),
            queries: nq,
            pairs: nq,
        }
    }

    /// Splits the plan by a routing policy: `route` is called once per
    /// group (in plan order, i.e. largest scan first) and names the owner
    /// that will execute it — or `None` when no owner can take it. Sub-plan
    /// `o` keeps exactly the groups routed to owner `o`, in plan order;
    /// unroutable groups are returned separately so the caller can degrade
    /// explicitly instead of silently dropping work.
    ///
    /// This is how a distributed RBC routes one coordinator-side plan to
    /// the cluster nodes holding the shards — under replication the policy
    /// picks the least-loaded **live** replica of each group's list, and a
    /// group whose replicas are all dead comes back in the unroutable set.
    /// `queries` and `gamma_k` are carried into every sub-plan (each node
    /// prunes against the same per-query caps, and accumulator slices stay
    /// indexed by batch position), while `pairs` is recomputed per owner so
    /// each sub-plan's [`sharing_factor`](Self::sharing_factor) describes
    /// only the work that owner performs. Executing every sub-plan and
    /// merging the per-query partial top-k results is equivalent to
    /// executing the whole plan minus the unroutable groups (see
    /// `rbc-distributed`).
    ///
    /// # Panics
    /// Panics if `route` names an owner `>= owners`.
    pub fn split_routed<F>(&self, owners: usize, mut route: F) -> (Vec<BatchPlan>, Vec<ListGroup>)
    where
        F: FnMut(&ListGroup) -> Option<usize>,
    {
        let mut parts: Vec<BatchPlan> = (0..owners)
            .map(|_| BatchPlan {
                groups: Vec::new(),
                gamma_k: self.gamma_k.clone(),
                queries: self.queries,
                pairs: 0,
            })
            .collect();
        let mut unroutable = Vec::new();
        for group in &self.groups {
            match route(group) {
                Some(owner) => {
                    assert!(
                        owner < owners,
                        "list {} routed to {owner}, but only {owners} owners exist",
                        group.list_index
                    );
                    parts[owner].pairs += group.queries.len();
                    parts[owner].groups.push(group.clone());
                }
                None => unroutable.push(group.clone()),
            }
        }
        (parts, unroutable)
    }

    /// Splits the plan by a total ownership map over lists: sub-plan `o`
    /// keeps exactly the groups whose list is owned by owner `o`
    /// (`owner_of_list[group.list_index]`), in plan order — the
    /// single-owner special case of [`split_routed`](Self::split_routed),
    /// where every group has exactly one place to go.
    ///
    /// # Panics
    /// Panics if a planned list has no owner (`owner_of_list` too short)
    /// or an owner index is out of range.
    pub fn split_by_owner(&self, owner_of_list: &[usize], owners: usize) -> Vec<BatchPlan> {
        let (parts, unroutable) =
            self.split_routed(owners, |group| Some(owner_of_list[group.list_index]));
        debug_assert!(unroutable.is_empty(), "total routes never lose a group");
        parts
    }

    /// Mean number of queries sharing each planned list scan — how many
    /// private query-major scans one shared list-major scan replaces.
    /// `0.0` for an empty plan.
    pub fn sharing_factor(&self) -> f64 {
        if self.groups.is_empty() {
            0.0
        } else {
            self.pairs as f64 / self.groups.len() as f64
        }
    }
}

/// Executes a planned list-major stage 2, shared by the exact and
/// one-shot searches: parallelise over the plan's groups, stream each
/// group's list once through the shared kernel
/// ([`BruteForce::knn_group_in_list`]), fold the group stats into a
/// batch-level [`SearchStats`] (attributing evaluations back to queries so
/// `max_query_evals` stays exact), and extract the sorted per-query
/// answers.
///
/// `cursor` builds the per-`(list_index, query)` cursor state — the only
/// part that differs between the two searches (the exact search threads
/// `ρ(q, r)` and `γ_k` through it; the one-shot search runs uncut).
/// `list_blocks`, when supplied, must hold one slot per entry of `lists`
/// with the list's [`ListMirror`] (the builders gather these once at build
/// time, masking the members `skip` flags; empty lists carry `None`) so
/// each group scan scores lane groups from the mirror; `None` overall
/// scores them member by member from `db`. `accumulators` arrive
/// pre-seeded (the exact search seeds the representatives; a distributed
/// worker node starts from empty accumulators and lets the coordinator
/// seed the merge instead) and must hold one entry per batch position
/// (`plan.queries`). Concurrent group scans sharing a query each work on a
/// private copy of its accumulator and merge what they admitted when done;
/// a stale copy only ever prunes less and the accumulator's total order
/// makes its contents insertion-order-independent, so the *order* groups
/// run in changes only how early thresholds tighten, i.e. evaluation
/// counts, never answers: groups that are some query's nearest planned
/// list run first, the rest follow, and under `parallel` threads claim
/// from that order a few groups at a time. `parallel` selects whether
/// groups run on the rayon pool or the calling thread (where a mirror
/// plan below `MIN_PARALLEL_PLANNED` stays either way);
/// `rep_evals_per_query` and `rep_distance_evals` account the stage-1 work
/// the caller already performed.
///
/// This is public so `rbc-distributed` can execute the per-node sub-plans
/// produced by [`BatchPlan::split_by_owner`] through the exact same
/// kernel as the centralized search; it is execution plumbing, not a
/// user-facing search entry point.
#[allow(clippy::too_many_arguments)] // deliberately a flat execution-plumbing signature
pub fn execute_list_major<Q, D, M, F>(
    bf: &BruteForce,
    parallel: bool,
    queries: &Q,
    db: &D,
    metric: &M,
    lists: &[OwnershipList],
    list_blocks: Option<&[Option<ListMirror>]>,
    plan: &BatchPlan,
    cursor: F,
    shrink: f64,
    sorted_cut: bool,
    skip: Option<&[bool]>,
    accumulators: Vec<Mutex<TopK>>,
    rep_evals_per_query: u64,
    rep_distance_evals: u64,
) -> (Vec<Vec<Neighbor>>, SearchStats)
where
    Q: Dataset,
    D: Dataset<Item = Q::Item>,
    M: Metric<Q::Item>,
    F: Fn(usize, usize) -> GroupCursor + Sync,
{
    // Group scans may run on rayon pool threads; capture the enclosing
    // span's context here so each group's span parents under it rather
    // than starting an orphan trace on the pool thread.
    let scan_ctx = rbc_trace::current();
    let cursors: Vec<Vec<GroupCursor>> = plan
        .groups
        .iter()
        .map(|group| {
            group
                .queries
                .iter()
                .map(|&qi| cursor(group.list_index, qi))
                .collect()
        })
        .collect();
    let scan = |gi: usize| -> GroupScanStats {
        let _group_span = rbc_trace::span_under("core.scan.group", scan_ctx);
        let group = &plan.groups[gi];
        let list = &lists[group.list_index];
        // One blocked mirror per ownership list, in member order, built
        // once at index-build time (see the `list_blocks` docs above).
        let blocks = list_blocks.and_then(|b| b[group.list_index].as_ref());
        bf.knn_group_in_list(
            queries,
            db,
            metric,
            &list.members,
            &list.member_dists,
            &cursors[gi],
            shrink,
            sorted_cut,
            skip,
            blocks,
            &accumulators,
        )
    };
    // The plan's own order is left alone — the distributed router balances
    // on it; only the execution is re-ordered.
    let order = nearest_first(&cursors, plan.queries);
    // A small batch's mirror scans finish on the calling thread before a
    // parked helper could join them (see `MIN_PARALLEL_PLANNED`); without
    // mirrors an evaluation costs whatever the metric costs, and is shared.
    let planned = || -> usize {
        plan.groups
            .iter()
            .map(|g| g.queries.len() * lists[g.list_index].len())
            .sum()
    };
    let shared = parallel && (list_blocks.is_none() || planned() >= MIN_PARALLEL_PLANNED);
    let per_group: Vec<GroupScanStats> = if shared {
        order.par_iter().map(|&gi| scan(gi)).collect()
    } else {
        order.iter().map(|&gi| scan(gi)).collect()
    };

    let mut per_query_evals = vec![rep_evals_per_query; plan.queries];
    let mut agg = SearchStats {
        queries: plan.queries as u64,
        rep_distance_evals,
        reps_examined: plan.pairs as u64,
        list_scans: plan.groups.len() as u64,
        ..SearchStats::default()
    };
    for (&gi, scan_stats) in order.iter().zip(&per_group) {
        agg.list_distance_evals += scan_stats.distance_evals;
        agg.list_points_skipped += scan_stats.points_skipped;
        agg.list_tile_passes += scan_stats.tile_passes;
        let group = &plan.groups[gi];
        for (&qi, &evals) in group.queries.iter().zip(&scan_stats.evals_per_cursor) {
            per_query_evals[qi] += evals;
        }
    }
    agg.max_query_evals = per_query_evals.iter().copied().max().unwrap_or(0);

    let results: Vec<Vec<Neighbor>> = accumulators
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("top-k accumulator lock poisoned")
                .into_sorted()
        })
        .collect();
    (results, agg)
}

/// The order to run a batch's list groups in, as positions into `cursors`
/// (one cursor vector per group, in plan order): first the groups that are
/// the nearest planned list (smallest `d_to_rep`) of at least one of their
/// queries, then the rest, both in plan order. A query's nearest list is
/// where its true neighbours most likely are, so scanning it first
/// tightens that query's threshold before its other lists are cut against
/// it. In exact mode the order moves evaluation counts only, never answers.
///
/// Public so a wire node (`rbc-distributed`'s `NodeShard`) runs its groups
/// in the same order as the in-process execution it must match evaluation
/// for evaluation. `queries` bounds every `GroupCursor::query`.
pub fn nearest_first(cursors: &[Vec<GroupCursor>], queries: usize) -> Vec<usize> {
    let mut nearest: Vec<Option<(Dist, usize)>> = vec![None; queries];
    for (gi, group) in cursors.iter().enumerate() {
        for cursor in group {
            if nearest[cursor.query].is_none_or(|(best, _)| cursor.d_to_rep < best) {
                nearest[cursor.query] = Some((cursor.d_to_rep, gi));
            }
        }
    }
    let mut seeds = vec![false; cursors.len()];
    for (_, gi) in nearest.into_iter().flatten() {
        seeds[gi] = true;
    }
    let (mut order, rest): (Vec<usize>, Vec<usize>) = (0..cursors.len()).partition(|&gi| seeds[gi]);
    order.extend(rest);
    order
}

/// One query's stage-1 outcome, from its `row` of representative distances:
/// a top-k collector seeded with the representatives, and the lists its
/// pruning rules keep (ascending).
///
/// The collector's threshold is `γ_k`, the k-th smallest representative
/// distance. Representatives are database points, so this is a valid upper
/// bound on the k-th NN distance (for k = 1 it is the γ of the paper). With
/// fewer than `k` representatives it is `INFINITY`: no such bound exists, so
/// pruning is disabled (the query degenerates to a full scan but stays
/// exact).
pub(crate) fn survivors(
    row: &[Dist],
    lists: &[OwnershipList],
    k: usize,
    config: &RbcConfig,
) -> (TopK, Vec<usize>) {
    let mut seeded = TopK::new(k);
    for (list, &d_qr) in lists.iter().zip(row) {
        // Most representatives lose to the current k-th: skip the push.
        if d_qr <= seeded.threshold() {
            seeded.push(Neighbor::new(list.rep_index, d_qr));
        }
    }
    let gamma = seeded.threshold();
    let within = gamma / (1.0 + config.epsilon);
    let mut kept = Vec::with_capacity(lists.len());
    for (ri, (list, &d_qr)) in lists.iter().zip(row).enumerate() {
        // eq. (1): every owned point is at distance ≥ d_qr − ψ_r ≥ γ/(1+ε);
        // the list cannot improve the answer beyond the allowed
        // approximation.
        let radius_pruned = config.use_radius_bound && d_qr >= within + list.radius;
        // eq. (2) / Lemma 1, generalised to γ_k for k-NN.
        let lemma1_pruned = config.use_lemma1_bound && d_qr > 3.0 * gamma;
        if !(list.is_empty() || radius_pruned || lemma1_pruned) {
            kept.push(ri);
        }
    }
    (seeded, kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RbcConfig;

    fn singleton_lists(radii: &[Dist]) -> Vec<OwnershipList> {
        radii
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                // One real member at distance r, so radius = r.
                OwnershipList::from_pairs(i, vec![(100 + i, r)])
            })
            .collect()
    }

    #[test]
    fn exact_plan_inverts_the_survivor_sets() {
        // Two queries over three lists; distances chosen so that query 0
        // keeps lists {0, 1} and query 1 keeps lists {1, 2}.
        let lists = singleton_lists(&[1.0, 1.0, 1.0]);
        let rep_dists = vec![
            1.0, 1.5, 9.0, // query 0: γ = 1.0, list 2 fails both bounds
            9.0, 1.5, 1.0, // query 1: mirror image
        ];
        let plan = BatchPlan::plan_exact(&rep_dists, &lists, 1, &RbcConfig::default());
        assert_eq!(plan.queries, 2);
        assert_eq!(plan.pairs, 4);
        assert_eq!(plan.groups.len(), 3);
        // Largest scan first: list 1 serves both queries, then the two
        // single-query lists in index order.
        assert_eq!(plan.groups[0].list_index, 1);
        assert_eq!(plan.groups[0].queries, vec![0, 1]);
        assert_eq!(plan.groups[1].list_index, 0);
        assert_eq!(plan.groups[1].queries, vec![0]);
        assert_eq!(plan.groups[2].list_index, 2);
        assert_eq!(plan.groups[2].queries, vec![1]);
        assert_eq!(plan.gamma_k, vec![1.0, 1.0]);
        assert!((plan.sharing_factor() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn exact_plan_emits_groups_largest_scan_first() {
        // Three lists of very different sizes; every query keeps them all
        // (tiny distances, huge radii), so ordering is decided by the
        // estimated work alone: queries × list length.
        let lists = vec![
            OwnershipList::from_pairs(0, (0..2).map(|i| (100 + i, 0.1)).collect()),
            OwnershipList::from_pairs(1, (0..50).map(|i| (200 + i, 0.1)).collect()),
            OwnershipList::from_pairs(2, (0..9).map(|i| (300 + i, 0.1)).collect()),
        ];
        let rep_dists = vec![0.2, 0.2, 0.2, 0.3, 0.3, 0.3];
        let plan = BatchPlan::plan_exact(&rep_dists, &lists, 1, &RbcConfig::default());
        let order: Vec<usize> = plan.groups.iter().map(|g| g.list_index).collect();
        assert_eq!(order, vec![1, 2, 0], "heaviest shared scans must lead");
        let works: Vec<usize> = plan
            .groups
            .iter()
            .map(|g| g.queries.len() * lists[g.list_index].len())
            .collect();
        assert!(
            works.windows(2).all(|w| w[0] >= w[1]),
            "group work must be non-increasing: {works:?}"
        );
    }

    #[test]
    fn one_shot_plan_emits_groups_largest_first_with_index_tiebreak() {
        // Five queries: three pick list 2, one picks list 0, one list 1.
        let rep_dists = vec![
            9.0, 9.0, 1.0, // -> 2
            9.0, 9.0, 1.0, // -> 2
            1.0, 9.0, 9.0, // -> 0
            9.0, 9.0, 1.0, // -> 2
            9.0, 1.0, 9.0, // -> 1
        ];
        let plan = BatchPlan::plan_one_shot(&rep_dists, 3);
        let order: Vec<usize> = plan.groups.iter().map(|g| g.list_index).collect();
        assert_eq!(
            order,
            vec![2, 0, 1],
            "largest group first, then ties by index"
        );
    }

    #[test]
    fn exact_plan_prunes_like_the_query_major_rules() {
        let lists = singleton_lists(&[0.5, 0.0]);
        let rep_dists = vec![2.0, 1.0]; // γ = 1.0
        let plan = BatchPlan::plan_exact(&rep_dists, &lists, 1, &RbcConfig::default());
        // List 0: d_qr = 2.0 ≥ γ(1.0) + ψ(0.5) → pruned by eq. 1.
        // List 1: d_qr = 1.0 ≥ γ(1.0) + ψ(0.0) → also pruned: this is the
        // all-lists-pruned corner, where stage 1 alone answers the query.
        assert!(plan.groups.is_empty());
        assert_eq!(plan.pairs, 0);
        assert_eq!(plan.sharing_factor(), 0.0);
    }

    #[test]
    fn empty_lists_are_never_planned() {
        let mut lists = singleton_lists(&[1.0, 1.0]);
        lists.push(OwnershipList::from_pairs(2, vec![]));
        let rep_dists = vec![1.0, 1.2, 0.1];
        let plan = BatchPlan::plan_exact(&rep_dists, &lists, 1, &RbcConfig::default());
        assert!(plan.groups.iter().all(|g| g.list_index < 2));
    }

    #[test]
    fn one_shot_plan_groups_by_nearest_with_index_tiebreak() {
        let rep_dists = vec![
            1.0, 2.0, 3.0, // query 0 → list 0
            2.0, 1.0, 1.0, // query 1 → tie between 1 and 2 → list 1
            5.0, 4.0, 0.5, // query 2 → list 2
            1.0, 1.0, 1.0, // query 3 → three-way tie → list 0
        ];
        let plan = BatchPlan::plan_one_shot(&rep_dists, 3);
        assert_eq!(plan.queries, 4);
        assert_eq!(plan.pairs, 4);
        assert_eq!(plan.groups.len(), 3);
        assert_eq!(plan.groups[0].queries, vec![0, 3]);
        assert_eq!(plan.groups[1].queries, vec![1]);
        assert_eq!(plan.groups[2].queries, vec![2]);
        assert!((plan.sharing_factor() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn split_by_owner_routes_groups_and_recomputes_pairs() {
        let lists = singleton_lists(&[1.0, 1.0, 1.0]);
        let rep_dists = vec![
            1.0, 1.5, 9.0, // query 0 keeps lists {0, 1}
            9.0, 1.5, 1.0, // query 1 keeps lists {1, 2}
        ];
        let plan = BatchPlan::plan_exact(&rep_dists, &lists, 1, &RbcConfig::default());
        // Lists 0 and 1 on owner 1, list 2 on owner 0; owner 2 idle.
        let parts = plan.split_by_owner(&[1, 1, 0], 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].groups.len(), 1);
        assert_eq!(parts[0].groups[0].list_index, 2);
        assert_eq!(parts[0].pairs, 1);
        assert_eq!(parts[1].groups.len(), 2);
        assert_eq!(parts[1].pairs, 3);
        assert!(parts[2].groups.is_empty());
        assert_eq!(parts[2].pairs, 0);
        // Every sub-plan keeps the batch-wide query count and caps so the
        // per-node executions stay indexed by batch position.
        for part in &parts {
            assert_eq!(part.queries, plan.queries);
            assert_eq!(part.gamma_k, plan.gamma_k);
        }
        let total_pairs: usize = parts.iter().map(|p| p.pairs).sum();
        assert_eq!(total_pairs, plan.pairs);
    }

    #[test]
    fn split_routed_returns_unroutable_groups_instead_of_dropping_them() {
        let lists = singleton_lists(&[1.0, 1.0, 1.0]);
        let rep_dists = vec![
            1.0, 1.5, 9.0, // query 0 keeps lists {0, 1}
            9.0, 1.5, 1.0, // query 1 keeps lists {1, 2}
        ];
        let plan = BatchPlan::plan_exact(&rep_dists, &lists, 1, &RbcConfig::default());
        // A policy with no home for list 1 (its "replicas" are all dead).
        let (parts, unroutable) = plan.split_routed(2, |g| match g.list_index {
            0 => Some(0),
            2 => Some(1),
            _ => None,
        });
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].groups.len(), 1);
        assert_eq!(parts[0].groups[0].list_index, 0);
        assert_eq!(parts[1].groups.len(), 1);
        assert_eq!(parts[1].groups[0].list_index, 2);
        assert_eq!(unroutable.len(), 1);
        assert_eq!(unroutable[0].list_index, 1);
        assert_eq!(unroutable[0].queries, vec![0, 1]);
        // Routed + unroutable account for every planned pair.
        let routed_pairs: usize = parts.iter().map(|p| p.pairs).sum();
        let lost_pairs: usize = unroutable.iter().map(|g| g.queries.len()).sum();
        assert_eq!(routed_pairs + lost_pairs, plan.pairs);
    }

    #[test]
    #[should_panic(expected = "only 1 owners exist")]
    fn split_by_owner_rejects_out_of_range_owner() {
        let lists = singleton_lists(&[1.0]);
        let plan = BatchPlan::plan_exact(&[0.5], &lists, 1, &RbcConfig::default());
        let _ = plan.split_by_owner(&[3], 1);
    }

    #[test]
    #[should_panic(expected = "does not tile")]
    fn ragged_distance_matrix_rejected() {
        let lists = singleton_lists(&[1.0, 1.0]);
        let _ = BatchPlan::plan_exact(&[1.0, 2.0, 3.0], &lists, 1, &RbcConfig::default());
    }
}
