//! Planning and executing stage 2 of a list-major batched search.
//!
//! Cayton's argument is that metric search should be recast as batched
//! brute-force kernels so the hardware sees dense, regular work. Stage 1
//! gets this for free (`BF(Q, R)` is one dense call); stage 2 gets it only
//! if a list selected by many queries of the batch is not streamed through
//! memory once *per query*.
//!
//! List-major execution sees to that: (query, list) pairs are grouped *by
//! list*, and each list's tiles are streamed once for its whole group — the
//! `BF(Q_group, X[L])` shape — merging candidates into per-query top-k
//! accumulators. [`Stage2`] is that execution. For the exact search it runs
//! as two dense phases with the plan *between* them
//! ([`Stage2::nearest_then_rest`]): every query first meets the nearest
//! list its `γ_k` rules (eq. 1 / eq. 2) keep, and only then — against the
//! threshold that scan left — is it decided which of its other survivors
//! are worth a cursor. The buffer-k-d-tree discipline: a query's own leaf
//! first, then the leaves it still has to visit.
//!
//! [`BatchPlan`] is a set of survivor pairs in inverted form, grouped by
//! list. The in-process search never builds one (it never inverts the
//! pairs its re-plan drops); the distributed coordinator does, because it
//! holds no lists: a plan is what its router balances on and what crosses
//! the wire. It runs the same two phases as rounds across the cluster —
//! each query's nearest list on that list's owner, then, from the
//! thresholds that come back ([`seeded_survivors`] rows, re-planned with
//! [`GroupCursor::run_is_empty`]), the rest — and each node runs
//! [`Stage2::nearest_then_rest`] on the part it was sent.
//!
//! Planning costs no distance evaluations, and every cut is the triangle
//! inequality at a strict threshold, so batched and brute-force answers
//! are bit-identical in exact mode (ties break deterministically by index),
//! whatever else shares the batch. With `epsilon > 0` the cuts may discard
//! points inside the `(1+ε)` margin: every answer honours the approximation
//! guarantee, but which eligible one comes back may depend on the batch.

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
    /// index. The order is a contract: the distributed router's
    /// longest-processing-time routing walks it. It also suits a scheduler
    /// that hands out groups on demand — the heavy scans start early and
    /// the light tail evens the threads out — whereas cutting this list
    /// into one contiguous run per thread would give the first thread every
    /// heavy group.
    pub groups: Vec<ListGroup>,
    /// Per-query pruning cap. For the exact plan it is `γ_k` — the k-th
    /// smallest representative distance, a valid upper bound on the k-th
    /// NN distance because representatives are database points;
    /// `INFINITY` (pruning disabled) when fewer than `k` representatives
    /// exist. A plan built by [`from_pairs`](Self::from_pairs) carries
    /// whatever caps its caller proved, such as the distributed
    /// coordinator's second-round thresholds `τ_q ≤ γ_k`.
    pub gamma_k: Vec<Dist>,
    /// Number of queries the plan covers.
    pub queries: usize,
    /// Total (query, list) scan pairs — the number of list scans the batch's
    /// queries would perform one at a time.
    pub pairs: usize,
}

impl BatchPlan {
    /// Builds the exact-search plan from the stage-1 distance matrix
    /// `rep_dists` (row-major, one row of `lists.len()` distances per
    /// query), applying the radius bound (eq. 1) and the Lemma 1 bound
    /// (eq. 2) per query exactly as the in-process search does, then
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
        let (seeds, rows) = seeded_survivors(rep_dists, lists, k, config);
        let pairs = rows
            .iter()
            .enumerate()
            .flat_map(|(qi, row)| row.iter().map(move |&(list, _)| (qi, list)));
        Self::from_pairs(pairs, seeds.iter().map(TopK::threshold).collect(), lists)
    }

    /// Inverts `(query, list)` pairs into list groups, largest scan first
    /// (queries × list members). `caps` holds one pruning cap per query of
    /// the batch and becomes [`gamma_k`](Self::gamma_k). Pairs are taken
    /// in the order given, so pairs sorted by query give every group its
    /// queries ascending. This is how the distributed coordinator turns
    /// the pairs of each of its fan-out rounds into a routable plan.
    ///
    /// # Panics
    /// Panics if a pair names a list `>= lists.len()`.
    pub fn from_pairs(
        pairs: impl IntoIterator<Item = (usize, usize)>,
        caps: Vec<Dist>,
        lists: &[OwnershipList],
    ) -> Self {
        let mut per_list: Vec<Vec<usize>> = vec![Vec::new(); lists.len()];
        let mut total = 0;
        for (qi, list) in pairs {
            per_list[list].push(qi);
            total += 1;
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
        Self {
            groups,
            queries: caps.len(),
            gamma_k: caps,
            pairs: total,
        }
    }

    /// Builds the one-shot plan: each query scans exactly the list of its
    /// nearest representative — the argmin of its row (smallest distance,
    /// ties broken towards the lower list index, the rule of every
    /// `BF(q, R)` reduction), then the crate's `group_by_nearest`, which
    /// the in-process one-shot search also ends in. A row with no
    /// nearest entry (all NaN) joins no group, and `pairs` counts the
    /// queries that joined one.
    ///
    /// # Panics
    /// Panics if `rep_dists.len()` is not a multiple of `n_lists`.
    pub fn plan_one_shot(rep_dists: &[Dist], n_lists: usize) -> Self {
        assert!(n_lists > 0, "cannot plan over zero ownership lists");
        assert!(
            rep_dists.len().is_multiple_of(n_lists),
            "distance matrix does not tile into rows of {n_lists}"
        );
        let nearest = rep_dists.chunks_exact(n_lists).map(|row| {
            let entries = row.iter().enumerate();
            entries
                .map(|(ri, &d)| Neighbor::new(ri, d))
                .fold(Neighbor::farthest(), Neighbor::closer)
        });
        let groups = group_by_nearest(nearest, n_lists);
        Self {
            pairs: groups.iter().map(|group| group.queries.len()).sum(),
            groups,
            gamma_k: Vec::new(),
            queries: rep_dists.len() / n_lists,
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

    /// Mean number of queries sharing each planned list scan — how many
    /// one-query scans one shared scan replaces.
    /// `0.0` for an empty plan.
    pub fn sharing_factor(&self) -> f64 {
        if self.groups.is_empty() {
            0.0
        } else {
            self.pairs as f64 / self.groups.len() as f64
        }
    }
}

/// One ownership list as stage 2 reads it, wherever it is stored (the
/// index's [`OwnershipList`]s and mirrors, or a wire node's shard).
#[derive(Clone, Copy, Debug)]
pub struct ListView<'a> {
    /// Database indices of the members, sorted by `member_dists`.
    pub members: &'a [usize],
    /// Ascending distances of `members` to the list's representative.
    pub member_dists: &'a [Dist],
    /// The last of `member_dists`, the list's radius `ψ_r` — carried so the
    /// re-plan tests a list without touching its arrays.
    pub radius: Dist,
    /// The list's blocked mirror, gathered from `members` with the scan's
    /// `skip` flags masked; `None` scores member by member from the database.
    pub mirror: Option<&'a ListMirror>,
}

impl<'a> ListView<'a> {
    /// An index's own list, with its slot of the index's mirrors.
    pub(crate) fn of(list: &'a OwnershipList, mirror: Option<&'a ListMirror>) -> Self {
        Self {
            members: &list.members,
            member_dists: &list.member_dists,
            radius: list.radius,
            mirror,
        }
    }
}

/// One planned group scan: a list (as [`Stage2::list`] names it), and the
/// cursors of the queries that scan it.
struct CursorGroup {
    list: usize,
    cursors: Vec<GroupCursor>,
    /// The smallest `ρ(q, r)` among the cursors. A phase runs its groups in
    /// ascending order of it: the nearer a list is to one of its queries,
    /// the sooner scanning it tightens that query's threshold for the
    /// farther ones (on uniform data 3–10 % fewer evaluations than largest
    /// scan first; no difference in wall time on `exact_batch`).
    nearest: Dist,
    /// Group size × list length; among equally near groups — all of an
    /// uncut phase — the largest scan runs first, which suits a pool
    /// claiming groups on demand. Remaining ties go to the lower list id.
    work: usize,
}

/// A query's stage-2 candidates: `(list, ρ(q, r))` for every list its `γ_k`
/// rules keep (or, on a worker node, the part of them routed there).
pub type CandidateRow = Vec<(usize, Dist)>;

/// Stage 2 of a batched search — everything a group scan needs besides the
/// groups themselves. Shared by the exact and one-shot searches and by
/// `rbc-distributed`'s nodes (in-process and wire), so every caller makes
/// the same evaluations through the same kernel
/// ([`BruteForce::knn_group_in_list`]); it is execution plumbing, not a
/// user-facing search entry point.
///
/// Concurrent group scans sharing a query each work on a private copy of
/// its accumulator and merge what they admitted when done; a stale copy only
/// ever prunes less and the accumulator's total order makes its contents
/// insertion-order-independent, so the order groups run in changes only how
/// early thresholds tighten, i.e. evaluation counts, never answers.
pub struct Stage2<'a, Q, D, M, L> {
    /// The scanning primitive; its own `parallel` switch is not consulted.
    pub bf: &'a BruteForce,
    /// Whether a phase's groups may run on the rayon pool.
    pub parallel: bool,
    /// The batch; cursors index it (and the accumulators) by position.
    pub queries: &'a Q,
    /// The database the lists' members index.
    pub db: &'a D,
    /// The metric.
    pub metric: &'a M,
    /// List id → the list. Must be cheap: it is called per planned pair.
    pub list: L,
    /// The `(1+ε)` relaxation of every cut.
    pub shrink: f64,
    /// Whether scans apply the sorted-list cut (and the re-plan with it):
    /// set for lists sorted by distance to their representative; clear for
    /// one-shot cursors, whose `ρ(q, r)` is a placeholder.
    pub sorted_cut: bool,
    /// Members a scan must not admit (the exact search's representatives).
    pub skip: Option<&'a [bool]>,
}

impl<'a, Q, D, M, L> Stage2<'a, Q, D, M, L>
where
    Q: Dataset,
    D: Dataset<Item = Q::Item>,
    M: Metric<Q::Item>,
    L: Fn(usize) -> ListView<'a> + Sync,
{
    /// Scans every group's list once for its cursors. The groups go to the
    /// rayon pool when `parallel` and their planned members (group size ×
    /// list length) reach [`MIN_PARALLEL_EVALS`] — under that a parked
    /// helper's wake-up costs more than it saves; without mirrors an
    /// evaluation costs whatever the metric costs, and is always shared.
    fn scan_groups(
        &self,
        groups: &[CursorGroup],
        accumulators: &[Mutex<TopK>],
    ) -> Vec<GroupScanStats> {
        // Group scans may run on rayon pool threads; capture the enclosing
        // span's context here so each group's span parents under it rather
        // than starting an orphan trace on the pool thread.
        let scan_ctx = rbc_trace::current();
        let scan = |group: &CursorGroup| -> GroupScanStats {
            let _group_span = rbc_trace::span_under("core.scan.group", scan_ctx);
            let list = (self.list)(group.list);
            self.bf.knn_group_in_list(
                self.queries,
                self.db,
                self.metric,
                list.members,
                list.member_dists,
                &group.cursors,
                self.shrink,
                self.sorted_cut,
                self.skip,
                list.mirror,
                accumulators,
            )
        };
        let planned: usize = groups.iter().map(|group| group.work).sum();
        let mirrored = || groups.iter().all(|g| (self.list)(g.list).mirror.is_some());
        if self.parallel && (planned >= MIN_PARALLEL_EVALS || !mirrored()) {
            groups.par_iter().map(scan).collect()
        } else {
            groups.iter().map(scan).collect()
        }
    }

    /// Groups `pairs` by list, in the order the groups should run (see
    /// [`CursorGroup::nearest`]).
    fn invert(&self, pairs: impl Iterator<Item = (usize, GroupCursor)>) -> Vec<CursorGroup> {
        let mut cursors: Vec<(usize, GroupCursor)> = pairs.collect();
        cursors.sort_by_key(|&(list, _)| list); // stable: a list's cursors keep their order
        let mut groups: Vec<CursorGroup> = cursors
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| {
                let cursors: Vec<GroupCursor> = run.iter().map(|&(_, cursor)| cursor).collect();
                let to_reps = cursors.iter().map(|cursor| cursor.d_to_rep);
                CursorGroup {
                    list: run[0].0,
                    nearest: to_reps.fold(Dist::INFINITY, Dist::min),
                    work: cursors.len() * (self.list)(run[0].0).members.len(),
                    cursors,
                }
            })
            .collect();
        groups.sort_by(|a, b| {
            let by_nearest = a.nearest.total_cmp(&b.nearest);
            let then_largest = by_nearest.then_with(|| b.work.cmp(&a.work));
            then_largest.then_with(|| a.list.cmp(&b.list))
        });
        groups
    }

    /// One dense phase — the whole of the one-shot search's stage 2, each
    /// half of the exact search's. Groups the `(list, cursor)` `pairs` by
    /// list, scans each list once for its group (cursors in the order
    /// their pairs arrived), merging candidates into `accumulators` (one
    /// per batch position, already holding whatever the caller seeded), and
    /// adds the phase's account to
    /// `work` — `reps_examined` (cursors built), `list_scans` (group scans)
    /// and the list evaluation, skip, tile-pass and re-rank counts — and each
    /// cursor's evaluations to `list_evals[query]`, so tail statistics stay
    /// exact although the scans are shared.
    pub fn scan_pairs(
        &self,
        pairs: impl Iterator<Item = (usize, GroupCursor)>,
        accumulators: &[Mutex<TopK>],
        work: &mut SearchStats,
        list_evals: &mut [u64],
    ) {
        let groups = self.invert(pairs);
        let per_group = self.scan_groups(&groups, accumulators);
        for (group, scan) in groups.iter().zip(&per_group) {
            work.reps_examined += group.cursors.len() as u64;
            work.list_scans += 1;
            work.list_distance_evals += scan.distance_evals;
            work.list_points_skipped += scan.points_skipped;
            work.list_tile_passes += scan.tile_passes;
            work.list_reranked_groups += scan.reranked;
            for (cursor, &evals) in group.cursors.iter().zip(&scan.evals_per_cursor) {
                list_evals[cursor.query] += evals;
            }
        }
    }

    /// The exact search's stage 2: **nearest list first, then plan**.
    ///
    /// *Phase A* scans, for every query, the nearest list of its row (the
    /// one-shot plan restricted to survivors; ties toward the earlier
    /// entry) — where Theorem 2 says its neighbours most likely are. Then
    /// each query's tightened threshold `τ_q` is read once from its
    /// accumulator, and *phase B* plans only what is left of the rows: a
    /// list whose run `τ_q` already empties
    /// ([`GroupCursor::run_is_empty`], the scan's own near-side cut taken
    /// at the list's radius — strict, so a list that may hold a point at
    /// exactly `τ_q` stays and ties still resolve by index) is dropped
    /// before a cursor is built for it. A dropped pair is a pair whose scan
    /// would have evaluated nothing, so answers are those of scanning every
    /// row in full, and `(1+ε)`-sound by the argument the cut already
    /// carries. Both phases cut against `caps` (`γ_k`) as well.
    ///
    /// Returns the stage-2 share of a [`SearchStats`]: `queries`,
    /// `reps_examined` (cursors built, A + B), `list_scans` (group scans,
    /// A + B), the list evaluation, skip (a dropped pair skips its whole
    /// list) and tile-pass counts, and in `max_query_evals` the largest
    /// per-query *list* evaluation count.
    pub fn nearest_then_rest(
        &self,
        rows: &[CandidateRow],
        caps: &[Dist],
        accumulators: &[Mutex<TopK>],
    ) -> SearchStats {
        let mut work = SearchStats {
            queries: rows.len() as u64,
            ..SearchStats::default()
        };
        let mut list_evals = vec![0u64; rows.len()];

        let cursor = |qi: usize, d_to_rep: Dist| GroupCursor {
            query: qi,
            d_to_rep,
            threshold_cap: caps[qi],
        };

        // The nearest entry of each row: its position, so phase B can leave
        // exactly that entry out.
        let nearest: Vec<Option<usize>> = rows.iter().map(|row| nearest_entry(row)).collect();
        let firsts = nearest.iter().enumerate().filter_map(|(qi, at)| {
            let (list, d_to_rep) = rows[qi][(*at)?];
            Some((list, cursor(qi, d_to_rep)))
        });
        self.scan_pairs(firsts, accumulators, &mut work, &mut list_evals);

        // The re-plan, per query: the cursors of its row that survive τ_q,
        // and how many members the dropped lists hold.
        let replan = |qi: usize| -> (Vec<(usize, GroupCursor)>, u64) {
            let tau = accumulators[qi]
                .lock()
                .expect("top-k accumulator lock poisoned")
                .threshold();
            let mut skipped = 0u64;
            let mut rest = Vec::new();
            for (at, &(list, d_to_rep)) in rows[qi].iter().enumerate() {
                if Some(at) == nearest[qi] {
                    continue;
                }
                let cursor = cursor(qi, d_to_rep);
                let view = (self.list)(list);
                if self.sorted_cut && cursor.run_is_empty(view.radius, tau, self.shrink) {
                    skipped += view.members.len() as u64;
                } else {
                    rest.push((list, cursor));
                }
            }
            (rest, skipped)
        };
        let rests: Vec<(Vec<(usize, GroupCursor)>, u64)> = if self.parallel {
            (0..rows.len())
                .into_par_iter()
                .with_min_len(PLAN_MIN_QUERIES)
                .map(replan)
                .collect()
        } else {
            (0..rows.len()).map(replan).collect()
        };
        work.list_points_skipped += rests.iter().map(|(_, skipped)| skipped).sum::<u64>();
        let rest = rests.iter().flat_map(|(rest, _)| rest.iter().copied());
        self.scan_pairs(rest, accumulators, &mut work, &mut list_evals);

        work.max_query_evals = list_evals.into_iter().max().unwrap_or(0);
        work
    }
}

/// The one-shot plan proper: groups batch positions by the list of their
/// nearest representative (`nearest[qi].index`), largest group first (list
/// lengths are not known here; the group size is the schedulable proxy),
/// ties toward the lower list index. A query with no nearest representative
/// — the [`Neighbor::farthest`] sentinel of an empty reduction, or a NaN
/// distance, which is all a NaN query ever measures — joins no group and is
/// answered empty.
pub(crate) fn group_by_nearest(
    nearest: impl IntoIterator<Item = Neighbor>,
    n_lists: usize,
) -> Vec<ListGroup> {
    let mut per_list: Vec<Vec<usize>> = vec![Vec::new(); n_lists];
    for (qi, nearest) in nearest.into_iter().enumerate() {
        if !(nearest.is_sentinel() || nearest.dist.is_nan()) {
            per_list[nearest.index].push(qi);
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
    groups.sort_by_key(|g| (std::cmp::Reverse(g.queries.len()), g.list_index));
    groups
}

/// The position of a candidate row's nearest list: its first minimum of
/// `ρ(q, r)`, so ties go to the earlier entry. Phase A of
/// [`Stage2::nearest_then_rest`] scans it first, and the distributed
/// coordinator's first round sends it to its owner. `None` for an empty
/// row.
pub fn nearest_entry(row: &[(usize, Dist)]) -> Option<usize> {
    (0..row.len()).reduce(|best, at| if row[at].1 < row[best].1 { at } else { best })
}

/// Takes the sorted answers out of a batch's accumulators.
pub fn into_answers(accumulators: Vec<Mutex<TopK>>) -> Vec<Vec<Neighbor>> {
    accumulators
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("top-k accumulator lock poisoned")
                .into_sorted()
        })
        .collect()
}

/// Every query's stage-1 outcome from a stage-1 distance matrix
/// `rep_dists` somebody else computed (row-major, one row of `lists.len()`
/// distances per query), by batch position: a top-k collector seeded with
/// the representatives (its threshold is `γ_k`, the k-th smallest
/// representative distance), and the candidate row of the lists the
/// pruning rules (eq. 1 / eq. 2) keep, ascending, each with its `ρ(q, r)`.
/// The distributed coordinator starts from these, and so does
/// [`BatchPlan::plan_exact`]; the in-process search hands the per-row rule
/// to `BruteForce::rows_with` and never holds a matrix. Runs on the rayon
/// pool when `config.bf.parallel`.
///
/// # Panics
/// Panics if `rep_dists.len()` is not a multiple of `lists.len()`.
pub fn seeded_survivors(
    rep_dists: &[Dist],
    lists: &[OwnershipList],
    k: usize,
    config: &RbcConfig,
) -> (Vec<TopK>, Vec<CandidateRow>) {
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
    let per_query: Vec<(TopK, CandidateRow)> = if config.bf.parallel {
        (0..nq)
            .into_par_iter()
            .with_min_len(PLAN_MIN_QUERIES)
            .map(row_survivors)
            .collect()
    } else {
        (0..nq).map(row_survivors).collect()
    };
    per_query.into_iter().unzip()
}

/// One query's stage-1 outcome, from its `row` of representative distances:
/// a top-k collector seeded with the representatives, and the lists its
/// pruning rules keep (ascending), each with its `ρ(q, r)`.
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
) -> (TopK, CandidateRow) {
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
        let radius_pruned = d_qr >= within + list.radius;
        // eq. (2) / Lemma 1, generalised to γ_k for k-NN.
        let lemma1_pruned = d_qr > 3.0 * gamma;
        if !(list.is_empty() || radius_pruned || lemma1_pruned) {
            kept.push((ri, d_qr));
        }
    }
    (seeded, kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RbcConfig;
    use rbc_metric::{Euclidean, VectorSet};

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
    fn exact_plan_applies_both_pruning_rules() {
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
    fn one_shot_plan_leaves_an_all_nan_row_out() {
        let nan = Dist::NAN;
        let rep_dists = vec![
            2.0, 1.0, 3.0, // query 0 → list 1
            nan, nan, nan, // query 1: nothing is nearest to it
            nan, 4.0, nan, // query 2 → list 1, the one comparable entry
        ];
        let plan = BatchPlan::plan_one_shot(&rep_dists, 3);
        assert_eq!(plan.queries, 3);
        assert_eq!(plan.pairs, 2);
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0].list_index, 1);
        assert_eq!(plan.groups[0].queries, vec![0, 2]);
    }

    #[test]
    fn split_routed_with_a_total_route_recomputes_pairs() {
        let lists = singleton_lists(&[1.0, 1.0, 1.0]);
        let rep_dists = vec![
            1.0, 1.5, 9.0, // query 0 keeps lists {0, 1}
            9.0, 1.5, 1.0, // query 1 keeps lists {1, 2}
        ];
        let plan = BatchPlan::plan_exact(&rep_dists, &lists, 1, &RbcConfig::default());
        // Lists 0 and 1 on owner 1, list 2 on owner 0; owner 2 idle.
        let owner_of_list = [1, 1, 0];
        let (parts, unroutable) = plan.split_routed(3, |g| Some(owner_of_list[g.list_index]));
        assert!(unroutable.is_empty(), "a total route never loses a group");
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
    fn split_routed_rejects_out_of_range_owner() {
        let lists = singleton_lists(&[1.0]);
        let plan = BatchPlan::plan_exact(&[0.5], &lists, 1, &RbcConfig::default());
        let _ = plan.split_routed(1, |_| Some(3));
    }

    /// Points on a line (second coordinate 0) under hand-made ownership
    /// lists, so every distance a test reasons about is an exact integer.
    struct Line {
        db: VectorSet,
        lists: Vec<OwnershipList>,
        skip: Vec<bool>,
    }

    impl Line {
        /// `lists[i] = (representative, members)`, all as database indices
        /// into `xs`; representatives are skip-flagged like the exact
        /// search's.
        fn new(xs: &[f32], lists: &[(usize, &[usize])]) -> Self {
            let db = VectorSet::from_rows(&xs.iter().map(|&x| [x, 0.0]).collect::<Vec<_>>());
            let mut skip = vec![false; xs.len()];
            let lists = lists
                .iter()
                .map(|&(rep, members)| {
                    skip[rep] = true;
                    let pairs = members
                        .iter()
                        .map(|&m| (m, f64::from((xs[m] - xs[rep]).abs())))
                        .collect();
                    OwnershipList::from_pairs(rep, pairs)
                })
                .collect();
            Self { db, lists, skip }
        }

        /// Runs `nearest_then_rest` for one query at `x` over all lists
        /// (or `row`, when given), the accumulator seeded with the
        /// representatives as the exact search seeds it.
        fn search(
            &self,
            x: f32,
            k: usize,
            epsilon: f64,
            row: Option<CandidateRow>,
        ) -> (Vec<Neighbor>, SearchStats) {
            let queries = VectorSet::from_rows(&[[x, 0.0]]);
            let d_to = |i: usize| Euclidean.dist(queries.point(0), self.db.point(i));
            let mut seeded = TopK::new(k);
            for list in &self.lists {
                seeded.push(Neighbor::new(list.rep_index, d_to(list.rep_index)));
            }
            let gamma_k = seeded.threshold();
            let row = row.unwrap_or_else(|| {
                let lists = self.lists.iter().enumerate();
                lists.map(|(li, l)| (li, d_to(l.rep_index))).collect()
            });
            let accumulators = vec![Mutex::new(seeded)];
            let bf = BruteForce::with_config(RbcConfig::sequential().bf);
            let stage2 = Stage2 {
                bf: &bf,
                parallel: false,
                queries: &queries,
                db: &self.db,
                metric: &Euclidean,
                list: |li: usize| ListView::of(&self.lists[li], None),
                shrink: 1.0 + epsilon,
                sorted_cut: true,
                skip: Some(&self.skip),
            };
            let stats = stage2.nearest_then_rest(&[row], &[gamma_k], &accumulators);
            (into_answers(accumulators).remove(0), stats)
        }
    }

    #[test]
    fn replan_keeps_a_list_whose_bound_equals_the_threshold() {
        // Query at 0, k = 1. List 0 (rep 4 at x = 1) owns index 3 at x = 1:
        // after phase A, τ = 1 (index 3; the rep at the same distance has
        // the higher index). List 1 (rep 0 at x = −3) owns index 1 at
        // x = −1, its radius 2: ρ(q, r) − ψ = 3 − 2 = 1 = τ. The cut is
        // strict, so the list stays — and holds the answer: index 1 ties
        // index 3 at distance 1 and wins on index.
        let line = Line::new(&[-3.0, -1.0, 9.0, 1.0, 1.0], &[(4, &[3, 4]), (0, &[0, 1])]);
        let (got, stats) = line.search(0.0, 1, 0.0, None);
        assert_eq!(got, vec![Neighbor::new(1, 1.0)]);
        assert_eq!(stats.reps_examined, 2);
        assert_eq!(stats.list_scans, 2);

        // Move list 1's far member out to x = −0.5 (radius 2.5 → bound 0.5):
        // nothing changes. Move it *in* to x = −1.5 (radius 1.5 → bound
        // 1.5 > τ): the pair is dropped before a cursor exists, and its
        // whole list is accounted as skipped.
        let line = Line::new(&[-3.0, -1.5, 9.0, 1.0, 1.0], &[(4, &[3, 4]), (0, &[0, 1])]);
        let (got, stats) = line.search(0.0, 1, 0.0, None);
        assert_eq!(got, vec![Neighbor::new(3, 1.0)]);
        assert_eq!(stats.reps_examined, 1);
        assert_eq!(stats.list_scans, 1);
        assert_eq!(stats.list_points_skipped, 2);
        assert_eq!(stats.list_distance_evals, 1);
    }

    #[test]
    fn replan_never_drops_on_nan() {
        // A NaN ρ(q, r) — and with it a NaN threshold — makes every
        // comparison of the cut false: the pair is kept and scanned in full.
        let line = Line::new(&[-3.0, -1.5, 9.0, 1.0, 1.0], &[(4, &[3, 4]), (0, &[0, 1])]);
        let row = vec![(0, 1.0), (1, Dist::NAN)];
        let (got, stats) = line.search(0.0, 1, 0.0, Some(row));
        assert_eq!(got, vec![Neighbor::new(3, 1.0)]);
        assert_eq!(stats.reps_examined, 2);
        assert_eq!(stats.list_distance_evals, 2);
        let cursor = GroupCursor {
            query: 0,
            d_to_rep: 3.0,
            threshold_cap: Dist::INFINITY,
        };
        assert!(cursor.run_is_empty(1.5, 1.0, 1.0));
        assert!(!cursor.run_is_empty(1.5, Dist::NAN, 1.0));
        assert!(!cursor.run_is_empty(Dist::NAN, 1.0, 1.0));
    }

    #[test]
    fn replan_with_a_short_or_empty_first_list_falls_back_to_gamma_k() {
        // k = 3 over three lists. The nearest list (rep 2 at x = 0.5) holds
        // only its flagged representative: phase A evaluates nothing, τ
        // stays γ_k = 4 (the third representative), and phase B must still
        // find the true neighbours in the lists γ_k admits.
        let xs = [-4.0, -1.0, 0.5, 2.0, 3.0, 3.5];
        let brute = |line: &Line, k: usize| {
            let origin: &[f32] = &[0.0, 0.0];
            BruteForce::new()
                .knn_single(origin, &line.db, &Euclidean, k)
                .0
        };
        let lists: [(usize, &[usize]); 3] = [(2, &[2]), (0, &[0, 1]), (4, &[3, 4, 5])];
        let line = Line::new(&xs, &lists);
        let (got, stats) = line.search(0.0, 3, 0.0, None);
        assert_eq!(got, brute(&line, 3));
        assert_eq!(stats.reps_examined, 3);

        // With k = 5 over three representatives there is no γ_k at all (∞),
        // and a first list shorter than k leaves τ at ∞ too: nothing is
        // dropped.
        let line = Line::new(&xs, &[(2, &[2, 1]), (0, &[0]), (4, &[3, 4, 5])]);
        let (got, stats) = line.search(0.0, 5, 0.0, None);
        assert_eq!(got, brute(&line, 5));
        assert_eq!(stats.reps_examined, 3);
    }

    #[test]
    fn replan_of_empty_rows_does_nothing() {
        // Every list pruned under γ_k: phase A has no pair, phase B neither,
        // and the seeded accumulator is the answer.
        let line = Line::new(&[0.0, 5.0], &[(0, &[0]), (1, &[1])]);
        let (got, stats) = line.search(0.0, 1, 0.0, Some(Vec::new()));
        assert_eq!(got, vec![Neighbor::new(0, 0.0)]);
        assert_eq!(
            stats,
            SearchStats {
                queries: 1,
                ..SearchStats::default()
            }
        );
    }

    #[test]
    fn replan_under_epsilon_drops_more_and_stays_within_the_factor() {
        // τ = 1 after the first list; list 1's bound is 0.8. Exact search
        // keeps it (0.8 ≤ 1) and finds the true neighbour at 0.8; with
        // ε = 0.5 the bound is compared with 1 / 1.5 and the list goes —
        // the answer, the seeded representative at distance 1, is within
        // 1.5 × 0.8.
        let xs = [-3.0, -0.8, 9.0, 1.0, 1.0];
        let lists: [(usize, &[usize]); 2] = [(4, &[3, 4]), (0, &[0, 1])];
        let line = Line::new(&xs, &lists);
        let (exact, _) = line.search(0.0, 1, 0.0, None);
        assert_eq!(exact[0].index, 1);
        let (approx, stats) = line.search(0.0, 1, 0.5, None);
        assert_eq!(approx, vec![Neighbor::new(4, 1.0)]);
        assert!(approx[0].dist <= 1.5 * exact[0].dist);
        assert_eq!(stats.reps_examined, 1);
    }

    #[test]
    #[should_panic(expected = "does not tile")]
    fn ragged_distance_matrix_rejected() {
        let lists = singleton_lists(&[1.0, 1.0]);
        let _ = BatchPlan::plan_exact(&[1.0, 2.0, 3.0], &lists, 1, &RbcConfig::default());
    }
}
