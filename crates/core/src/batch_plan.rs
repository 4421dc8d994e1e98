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
//! ([`Candidates::nearest_then_rest`]): every query first meets the nearest
//! list its `γ_k` rules (eq. 1 / eq. 2) keep, and only then — against the
//! threshold that scan left — is it decided which of its other survivors
//! are worth a cursor. The buffer-k-d-tree discipline: a query's own leaf
//! first, then the leaves it still has to visit.
//!
//! The plan between the two brute-force calls is a kernel of its own, read
//! from flat per-list arrays ([`ListBounds`]): stage 1 finishes each row
//! with one branch-light pass (the seeds, the survivors and the nearest of
//! them), and between the phases the re-plan cuts every row against its
//! query's threshold in one serial pass and buckets what is left by list
//! with a counting sort.
//!
//! That driver is generic over how a phase runs ([`PhaseExecutor`]): in a
//! process as [`Stage2`]'s group scans (the exact search, and every
//! `rbc-distributed` node over the pairs it was sent); on the distributed
//! coordinator, which holds no lists, as a fan-out round of a routed
//! [`BatchPlan`].
//!
//! Planning costs no distance evaluations, and every cut is the triangle
//! inequality at a strict threshold, so batched and brute-force answers
//! are bit-identical in exact mode (ties break deterministically by index),
//! whatever else shares the batch. With `epsilon > 0` the cuts may discard
//! points inside the `(1+ε)` margin: every answer honours the approximation
//! guarantee, but which eligible one comes back may depend on the batch.

use std::cell::RefCell;
use std::hint::select_unpredictable;
use std::sync::Mutex;

use rayon::prelude::*;

use rbc_bruteforce::{
    BruteForce, GroupCursor, GroupScanStats, ListMirror, Neighbor, TopK, MIN_PARALLEL_EVALS,
};
use rbc_metric::{cut_mask, Dataset, Dist, Metric};

use crate::params::RbcConfig;
use crate::reps::OwnershipList;
use crate::stats::SearchStats;

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
    /// Number of queries the plan covers.
    pub queries: usize,
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
        let n_lists = lists.len();
        assert!(
            rep_dists.len().is_multiple_of(n_lists),
            "distance matrix does not tile into rows of {n_lists}"
        );
        let reps: Vec<usize> = lists.iter().map(|list| list.rep_index).collect();
        let bounds = ListBounds::of(lists);
        let rows = rep_dists.chunks_exact(n_lists).enumerate();
        let pairs = rows.flat_map(|(qi, row)| {
            let (_, kept, _) = survivors(row, &reps, &bounds, k, config.epsilon);
            kept.into_iter().map(move |(list, _)| (qi, list))
        });
        Self::from_pairs(pairs, rep_dists.len() / n_lists, lists)
    }

    /// Inverts `(query, list)` pairs of a batch of `queries` into list
    /// groups, largest scan first (queries × list members). Pairs are taken
    /// in the order given, so pairs sorted by query give every group its
    /// queries ascending. This is how the distributed coordinator turns
    /// the pairs of each of its fan-out rounds into a routable plan.
    ///
    /// # Panics
    /// Panics if a pair names a list `>= lists.len()`.
    pub fn from_pairs(
        pairs: impl IntoIterator<Item = (usize, usize)>,
        queries: usize,
        lists: &[OwnershipList],
    ) -> Self {
        // Largest scans first: work ≈ queries × list members streamed.
        let work = |g: &ListGroup| g.queries.len() * lists[g.list_index].len();
        Self {
            groups: invert(pairs, lists.len(), work),
            queries,
        }
    }

    /// Builds the one-shot plan: each query scans exactly the list of its
    /// nearest representative — the argmin of its row (smallest distance,
    /// ties broken towards the lower list index, the rule of every
    /// `BF(q, R)` reduction), then the crate's `group_by_nearest`, which
    /// the in-process one-shot search also ends in. A row with no
    /// nearest entry (all NaN) joins no group.
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
        Self {
            groups: group_by_nearest(nearest, n_lists),
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
    /// `queries` is carried into every sub-plan (accumulator slices stay
    /// indexed by batch position). Executing every sub-plan and
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
                queries: self.queries,
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
                    parts[owner].groups.push(group.clone());
                }
                None => unroutable.push(group.clone()),
            }
        }
        (parts, unroutable)
    }
}

/// One ownership list as stage 2 scans it, wherever it is stored (the
/// index's [`OwnershipList`]s and mirrors, or a wire node's shard).
#[derive(Clone, Copy, Debug)]
pub struct ListView<'a> {
    /// Database indices of the members, sorted by `member_dists`.
    pub members: &'a [usize],
    /// Ascending distances of `members` to the list's representative.
    pub member_dists: &'a [Dist],
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
            mirror,
        }
    }
}

/// Each list's radius and member count, by list id, as flat arrays: what
/// the plan reads of the lists, without walking them.
#[derive(Clone, Debug)]
pub struct ListBounds {
    /// `ψ_r`: zero for an empty list, NaN for a list holding a NaN point
    /// (which every cut keeps).
    radius: Vec<Dist>,
    len: Vec<usize>,
    /// Bit `l % 64` of word `l / 64`: list `l` has members.
    nonempty: Vec<u64>,
}

impl ListBounds {
    /// The bounds of lists given as `(radius, members)`, by list id.
    pub fn new(lists: impl IntoIterator<Item = (Dist, usize)>) -> Self {
        let (radius, len): (Vec<Dist>, Vec<usize>) = lists.into_iter().unzip();
        let mut nonempty = vec![0u64; len.len().div_ceil(64)];
        for l in (0..len.len()).filter(|&l| len[l] > 0) {
            nonempty[l / 64] |= 1 << (l % 64);
        }
        Self {
            radius,
            len,
            nonempty,
        }
    }

    /// The bounds of `lists`, by position.
    pub(crate) fn of(lists: &[OwnershipList]) -> Self {
        Self::new(lists.iter().map(|list| (list.radius, list.len())))
    }
}

/// Cursors bucketed by list, each list's in the order they arrived: list
/// `l`'s run from `offsets[l]` up to `offsets[l + 1]`.
#[derive(Debug)]
pub struct ListBuckets {
    offsets: Vec<usize>,
    cursors: Vec<GroupCursor>,
}

impl ListBuckets {
    /// A counting sort of `(list, cursor)` pairs over `n_lists` lists: one
    /// pass counts, one fills.
    fn sort(n_lists: usize, pairs: impl Iterator<Item = (usize, GroupCursor)> + Clone) -> Self {
        let mut offsets = vec![0; n_lists + 1];
        for (list, _) in pairs.clone() {
            offsets[list + 1] += 1;
        }
        for l in 1..=n_lists {
            offsets[l] += offsets[l - 1];
        }
        let (mut next, blank) = (offsets.clone(), GroupCursor::default());
        let mut cursors = vec![blank; offsets[n_lists]];
        for (list, cursor) in pairs {
            cursors[next[list]] = cursor;
            next[list] += 1;
        }
        Self { offsets, cursors }
    }

    /// Every `(query, list)` pair, list after list.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let lists = self.offsets.windows(2).enumerate();
        lists.flat_map(|(l, at)| self.cursors[at[0]..at[1]].iter().map(move |c| (c.query, l)))
    }
}

/// One planned group scan: a list (as [`Stage2::list`] names it), and its
/// bucket of cursors.
struct CursorGroup {
    list: usize,
    cursors: std::ops::Range<usize>,
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

/// How one phase of the exact search's stage 2 is executed: the phase's
/// `(list, cursor)` pairs, bucketed by list, are scanned and their
/// candidates merged into the batch's collectors, one per batch position.
pub trait PhaseExecutor {
    /// The label of the span around the re-plan between the two phases.
    const REPLAN_SPAN: &'static str;

    /// Executes one phase.
    fn scan(&mut self, buckets: &ListBuckets);

    /// Every query's threshold as its collector now stands — after the
    /// first phase, `τ_q`.
    fn thresholds(&self) -> Vec<Dist>;
}

/// A batch's stage-2 candidates, by batch position.
#[derive(Clone, Debug, PartialEq)]
pub struct Candidates {
    /// Each query's candidate row, lists ascending.
    pub rows: Vec<CandidateRow>,
    /// The position of each row's nearest entry (its first minimum of
    /// `ρ(q, r)` in [`Neighbor`]'s order); `None` for an empty row.
    pub nearest: Vec<Option<usize>>,
}

impl Candidates {
    /// The candidates of rows without their nearest entries (a node's
    /// routed pairs): each row's is found here.
    pub fn new(rows: Vec<CandidateRow>) -> Self {
        let nearest = rows.iter().map(|row| nearest_entry(row)).collect();
        Self { rows, nearest }
    }

    /// The exact search's stage 2: **nearest list first, then plan**.
    ///
    /// *Phase A* scans, for every query, the nearest list of its row —
    /// where Theorem 2 says its neighbours most likely are. Then each
    /// query's tightened threshold `τ_q` is read once from its collector,
    /// and *phase B* scans only what the re-plan (under the executor's
    /// span) leaves of the rows: a list whose run `τ_q` already empties is
    /// dropped before a cursor is built for it. A dropped pair is a pair
    /// whose scan would have evaluated nothing, so answers are those of
    /// scanning every row in full, and `(1+ε)`-sound (`shrink` = 1 + ε) by
    /// the argument the cut already carries. Both phases cut against
    /// `caps` (`γ_k`, or what a node was sent) as well. Returns the members
    /// of the dropped lists, which their scans would have skipped.
    pub fn nearest_then_rest<X: PhaseExecutor>(
        &self,
        caps: &[Dist],
        shrink: f64,
        bounds: &ListBounds,
        executor: &mut X,
    ) -> u64 {
        let firsts = self.nearest.iter().enumerate().filter_map(|(qi, at)| {
            let (list, d_to_rep) = self.rows[qi][(*at)?];
            let cursor = GroupCursor {
                query: qi,
                d_to_rep,
                threshold_cap: caps[qi],
            };
            Some((list, cursor))
        });
        executor.scan(&ListBuckets::sort(bounds.len.len(), firsts));

        let replan_span = rbc_trace::span(X::REPLAN_SPAN);
        let tau = executor.thresholds();
        let (rest, skipped) = replan(&self.rows, &self.nearest, caps, &tau, shrink, bounds);
        drop(replan_span);
        executor.scan(&rest);
        skipped
    }
}

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
    /// List id → the list. Called once per group a phase scans.
    pub list: L,
    /// Every list's radius and length, by list id.
    pub bounds: &'a ListBounds,
    /// The `(1+ε)` relaxation of every cut.
    pub shrink: f64,
    /// Whether scans apply the sorted-list cut: set for lists sorted by
    /// distance to their representative (which [`nearest_then_rest`]
    /// requires); clear for one-shot cursors, whose `ρ(q, r)` is a
    /// placeholder.
    ///
    /// [`nearest_then_rest`]: Self::nearest_then_rest
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
        buckets: &ListBuckets,
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
                &buckets.cursors[group.cursors.clone()],
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

    /// One dense phase — the whole of the one-shot search's stage 2, each
    /// half of the exact search's. Buckets the `(list, cursor)` `pairs` by
    /// list, scans each list once for its group (cursors in the order
    /// their pairs arrived), merging candidates into `accumulators` (one
    /// per batch position, already holding whatever the caller seeded), and
    /// adds the phase's account to `work` — `reps_examined` (cursors built),
    /// `list_scans` (group scans) and the list evaluation, skip, tile-pass
    /// and re-rank counts — and each cursor's evaluations to
    /// `list_evals[query]`, so tail statistics stay exact although the
    /// scans are shared.
    pub fn scan_pairs(
        &self,
        pairs: impl Iterator<Item = (usize, GroupCursor)> + Clone,
        accumulators: &[Mutex<TopK>],
        work: &mut SearchStats,
        list_evals: &mut [u64],
    ) {
        let buckets = ListBuckets::sort(self.bounds.len.len(), pairs);
        let mut scans = GroupScans {
            stage2: self,
            accumulators,
            work,
            list_evals,
        };
        scans.scan(&buckets);
    }

    /// [`Candidates::nearest_then_rest`] in this process: each phase as
    /// [`scan_pairs`](Self::scan_pairs) runs its one.
    ///
    /// Returns the stage-2 share of a [`SearchStats`]: `queries`,
    /// `reps_examined` (cursors built, A + B), `list_scans` (group scans,
    /// A + B), the list evaluation, skip (a dropped pair skips its whole
    /// list) and tile-pass counts, and in `max_query_evals` the largest
    /// per-query *list* evaluation count.
    pub fn nearest_then_rest(
        &self,
        candidates: &Candidates,
        caps: &[Dist],
        accumulators: &[Mutex<TopK>],
    ) -> SearchStats {
        debug_assert!(self.sorted_cut, "the re-plan cuts sorted lists");
        let queries = candidates.rows.len();
        let mut work = SearchStats {
            queries: queries as u64,
            ..SearchStats::default()
        };
        let mut list_evals = vec![0; queries];
        let mut scans = GroupScans {
            stage2: self,
            accumulators,
            work: &mut work,
            list_evals: &mut list_evals,
        };
        work.list_points_skipped +=
            candidates.nearest_then_rest(caps, self.shrink, self.bounds, &mut scans);
        work.max_query_evals = list_evals.into_iter().max().unwrap_or(0);
        work
    }
}

/// [`Stage2`]'s group scans as a [`PhaseExecutor`]: into the shared
/// accumulators, with each phase's account added to `work` and each
/// cursor's evaluations to `list_evals[query]`.
struct GroupScans<'s, 'a, Q, D, M, L> {
    stage2: &'s Stage2<'a, Q, D, M, L>,
    accumulators: &'s [Mutex<TopK>],
    work: &'s mut SearchStats,
    list_evals: &'s mut [u64],
}

impl<'a, Q, D, M, L> PhaseExecutor for GroupScans<'_, 'a, Q, D, M, L>
where
    Q: Dataset,
    D: Dataset<Item = Q::Item>,
    M: Metric<Q::Item>,
    L: Fn(usize) -> ListView<'a> + Sync,
{
    const REPLAN_SPAN: &'static str = "core.replan";

    fn scan(&mut self, buckets: &ListBuckets) {
        let groups = cursor_groups(buckets, self.stage2.bounds);
        let per_group = self.stage2.scan_groups(buckets, &groups, self.accumulators);
        let work = &mut *self.work;
        for (group, scan) in groups.iter().zip(&per_group) {
            work.reps_examined += group.cursors.len() as u64;
            work.list_scans += 1;
            work.list_distance_evals += scan.distance_evals;
            work.list_points_skipped += scan.points_skipped;
            work.list_tile_passes += scan.tile_passes;
            work.list_reranked_groups += scan.reranked;
            let cursors = &buckets.cursors[group.cursors.clone()];
            for (cursor, &evals) in cursors.iter().zip(&scan.evals_per_cursor) {
                self.list_evals[cursor.query] += evals;
            }
        }
    }

    fn thresholds(&self) -> Vec<Dist> {
        let accumulators = self.accumulators.iter();
        let locked = accumulators.map(|acc| acc.lock().expect("top-k accumulator lock poisoned"));
        locked.map(|topk| topk.threshold()).collect()
    }
}

/// The non-empty buckets as groups, in the order they should run (see
/// [`CursorGroup::nearest`]).
fn cursor_groups(buckets: &ListBuckets, bounds: &ListBounds) -> Vec<CursorGroup> {
    let bucketed = buckets.offsets.windows(2).enumerate();
    let mut groups: Vec<CursorGroup> = bucketed
        .filter(|(_, at)| at[0] < at[1])
        .map(|(list, at)| {
            let to_reps = buckets.cursors[at[0]..at[1]].iter().map(|c| c.d_to_rep);
            CursorGroup {
                list,
                cursors: at[0]..at[1],
                nearest: to_reps.fold(Dist::INFINITY, Dist::min),
                work: (at[1] - at[0]) * bounds.len[list],
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

/// The re-plan between the two phases, one serial pass: every entry but a
/// query's nearest (phase A scanned it) keeps its cursor unless the query's
/// threshold already empties its run — [`GroupCursor::run_is_empty`] at the
/// list's radius, strict and false on NaN, its limit taken once per query.
/// The kept entries are compacted without a branch and counting-sorted by
/// list, in query order: the phase's groups. Also returns the members of
/// the dropped lists, which their scans would have skipped.
fn replan(
    rows: &[CandidateRow],
    nearest: &[Option<usize>],
    caps: &[Dist],
    tau: &[Dist],
    shrink: f64,
    bounds: &ListBounds,
) -> (ListBuckets, u64) {
    let entries = rows.iter().map(Vec::len).sum();
    let cursor = |query: usize, d_to_rep: Dist| GroupCursor {
        query,
        d_to_rep,
        threshold_cap: caps[query],
    };
    ENTRIES.with_borrow_mut(|kept| {
        kept.resize(kept.len().max(entries), Default::default());
        let (mut m, mut skipped) = (0, 0);
        for (qi, row) in rows.iter().enumerate() {
            let limit = tau[qi].min(caps[qi]) / shrink;
            let at = nearest[qi].unwrap_or(row.len());
            for part in [&row[..at], row.get(at + 1..).unwrap_or_default()] {
                for &(list, d_to_rep) in part {
                    let cut = d_to_rep - bounds.radius[list] > limit;
                    kept[m] = (list, cursor(qi, d_to_rep));
                    m += usize::from(!cut);
                    skipped += select_unpredictable(cut, bounds.len[list], 0);
                }
            }
        }
        let cursors = kept[..m].iter().copied();
        (ListBuckets::sort(bounds.len.len(), cursors), skipped as u64)
    })
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
    let nearest = nearest.into_iter().enumerate();
    let joined = nearest.filter(|(_, n)| !(n.is_sentinel() || n.dist.is_nan()));
    let pairs = joined.map(|(qi, n)| (qi, n.index));
    invert(pairs, n_lists, |g| g.queries.len())
}

/// Inverts `(query, list)` pairs over `n_lists` lists into the non-empty
/// list groups, each group's queries in the order given, by descending
/// `work`, ties toward the lower list index.
fn invert(
    pairs: impl IntoIterator<Item = (usize, usize)>,
    n_lists: usize,
    work: impl Fn(&ListGroup) -> usize,
) -> Vec<ListGroup> {
    let mut per_list: Vec<Vec<usize>> = vec![Vec::new(); n_lists];
    for (qi, list) in pairs {
        per_list[list].push(qi);
    }
    let per_list = per_list.into_iter().enumerate();
    let mut groups: Vec<ListGroup> = per_list
        .filter(|(_, queries)| !queries.is_empty())
        .map(|(list_index, queries)| ListGroup {
            list_index,
            queries,
        })
        .collect();
    groups.sort_by_key(|g| (std::cmp::Reverse(work(g)), g.list_index));
    groups
}

/// The position of a candidate row's nearest list: its first minimum of
/// `ρ(q, r)` in [`Neighbor`]'s order — a NaN after every number, ties to
/// the earlier entry — so an all-NaN row names its first entry. Phase A of
/// [`Candidates::nearest_then_rest`] scans it first. `None` for an empty
/// row.
fn nearest_entry(row: &[(usize, Dist)]) -> Option<usize> {
    (0..row.len()).min_by_key(|&at| Neighbor::new(at, row[at].1))
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

/// The smallest number in `chunk` (`+∞` if none: a NaN never lowers it),
/// over four running minima that do not wait on each other.
fn chunk_min(chunk: &[Dist]) -> Dist {
    let min = |m: Dist, d: Dist| if d < m { d } else { m };
    let quads = chunk.chunks_exact(4);
    let rest = quads
        .remainder()
        .iter()
        .fold(Dist::INFINITY, |m, &d| min(m, d));
    let lanes = quads.fold([Dist::INFINITY; 4], |m, q| {
        std::array::from_fn(|i| min(m[i], q[i]))
    });
    lanes.into_iter().fold(rest, min)
}

/// Calls `visit` with the position of every set bit of `mask`, ascending.
fn for_each_set(mask: &[u64], mut visit: impl FnMut(usize)) {
    for (w, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            visit(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

thread_local! {
    /// The per-thread scratch of [`survivors`] (a row's mask and the
    /// representatives it seeds from) and of [`replan`] (the compacted
    /// entries).
    static MASK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static SEEDS: RefCell<Vec<Neighbor>> = const { RefCell::new(Vec::new()) };
    static ENTRIES: RefCell<Vec<(usize, GroupCursor)>> = const { RefCell::new(Vec::new()) };
}

/// One query's stage-1 outcome, from its `row` of representative distances
/// (list `i`'s representative is `reps[i]`): a top-k collector seeded with
/// the representatives, the lists its pruning rules keep (ascending), each
/// with its `ρ(q, r)`, and the position of the nearest of them (the row's
/// [`nearest_entry`]).
///
/// The collector's threshold is `γ_k`, the k-th smallest representative
/// distance. Representatives are database points, so this is a valid upper
/// bound on the k-th NN distance (for k = 1 it is the γ of the paper). With
/// fewer than `k` representatives it is `INFINITY`: no such bound exists, so
/// pruning is disabled (the query degenerates to a full scan but stays
/// exact).
///
/// No entry is tested behind a branch: the largest of `k` chunk minima
/// bounds `γ_k` from above (each chunk holds an entry at or under it), so
/// one [`cut_mask`] picks the few entries the collector must see, and a
/// second applies eq. 1 / eq. 2; only set bits are visited. The collector is
/// built from the few in one step ([`TopK::from_candidates`]).
pub(crate) fn survivors(
    row: &[Dist],
    reps: &[usize],
    bounds: &ListBounds,
    k: usize,
    epsilon: f64,
) -> (TopK, CandidateRow, Option<usize>) {
    let n = row.len();
    let bound = if n < k {
        Dist::INFINITY
    } else {
        let minima = row.chunks_exact(n / k).take(k).map(chunk_min);
        minima.fold(Dist::NEG_INFINITY, Dist::max)
    };
    MASK.with_borrow_mut(|mask| {
        mask.resize(n.div_ceil(64), 0);
        // A NaN shift turns eq. 1's cut off; a NaN passes the cap but never
        // seeds.
        cut_mask(row, &bounds.radius, Dist::NAN, bound, mask);
        let seeded = SEEDS.with_borrow_mut(|seeds| {
            for_each_set(mask, |ri| {
                if !row[ri].is_nan() {
                    seeds.push(Neighbor::new(reps[ri], row[ri]));
                }
            });
            TopK::from_candidates(k, seeds)
        });
        // eq. (1): every owned point is at distance ≥ ρ(q, r) − ψ_r ≥
        // γ/(1+ε), so the list cannot improve the answer beyond the allowed
        // approximation; eq. (2) / Lemma 1, generalised to γ_k for k-NN.
        let gamma = seeded.threshold();
        cut_mask(
            row,
            &bounds.radius,
            gamma / (1.0 + epsilon),
            3.0 * gamma,
            mask,
        );
        let mut count = 0;
        for (word, &nonempty) in mask.iter_mut().zip(&bounds.nonempty) {
            *word &= nonempty;
            count += word.count_ones() as usize;
        }
        let mut kept = Vec::with_capacity(count);
        let (mut nearest, mut nearest_d) = (None, Dist::INFINITY);
        for_each_set(mask, |ri| {
            if row[ri] < nearest_d {
                (nearest, nearest_d) = (Some(kept.len()), row[ri]);
            }
            kept.push((ri, row[ri]));
        });
        // Every kept entry +∞ or NaN: the first in `Neighbor`'s order.
        let nearest = nearest.or_else(|| nearest_entry(&kept));
        (seeded, kept, nearest)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RbcConfig;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use rbc_metric::{Euclidean, VectorSet};

    /// The (query, list) pairs a plan scans: its group sizes summed.
    fn pairs(plan: &BatchPlan) -> usize {
        plan.groups.iter().map(|group| group.queries.len()).sum()
    }

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
        assert_eq!(pairs(&plan), 4);
        assert_eq!(plan.groups.len(), 3);
        // Largest scan first: list 1 serves both queries, then the two
        // single-query lists in index order.
        assert_eq!(plan.groups[0].list_index, 1);
        assert_eq!(plan.groups[0].queries, vec![0, 1]);
        assert_eq!(plan.groups[1].list_index, 0);
        assert_eq!(plan.groups[1].queries, vec![0]);
        assert_eq!(plan.groups[2].list_index, 2);
        assert_eq!(plan.groups[2].queries, vec![1]);
        assert_eq!((pairs(&plan), plan.groups.len()), (4, 3));
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
        assert_eq!(pairs(&plan), 0);
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
        assert_eq!(pairs(&plan), 4);
        assert_eq!(plan.groups.len(), 3);
        assert_eq!(plan.groups[0].queries, vec![0, 3]);
        assert_eq!(plan.groups[1].queries, vec![1]);
        assert_eq!(plan.groups[2].queries, vec![2]);
        assert_eq!((pairs(&plan), plan.groups.len()), (4, 3));
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
        assert_eq!(pairs(&plan), 2);
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
        assert_eq!(pairs(&parts[0]), 1);
        assert_eq!(parts[1].groups.len(), 2);
        assert_eq!(pairs(&parts[1]), 3);
        assert!(parts[2].groups.is_empty());
        assert_eq!(pairs(&parts[2]), 0);
        // Every sub-plan keeps the batch-wide query count so the per-node
        // executions stay indexed by batch position.
        for part in &parts {
            assert_eq!(part.queries, plan.queries);
        }
        let total_pairs: usize = parts.iter().map(pairs).sum();
        assert_eq!(total_pairs, pairs(&plan));
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
        let routed_pairs: usize = parts.iter().map(pairs).sum();
        let lost_pairs: usize = unroutable.iter().map(|g| g.queries.len()).sum();
        assert_eq!(routed_pairs + lost_pairs, pairs(&plan));
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
                bounds: &ListBounds::of(&self.lists),
                shrink: 1.0 + epsilon,
                sorted_cut: true,
                skip: Some(&self.skip),
            };
            let candidates = Candidates::new(vec![row]);
            let stats = stage2.nearest_then_rest(&candidates, &[gamma_k], &accumulators);
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

    /// The per-row rule before the kernel: every entry offered to the
    /// collector behind a branch on its threshold, then every list tested
    /// behind a branch on eq. 1 / eq. 2. The kernel's reference.
    fn reference_survivors(
        row: &[Dist],
        lists: &[OwnershipList],
        k: usize,
        config: &RbcConfig,
    ) -> (TopK, CandidateRow) {
        let mut seeded = TopK::new(k);
        for (list, &d_qr) in lists.iter().zip(row) {
            if d_qr <= seeded.threshold() {
                seeded.push(Neighbor::new(list.rep_index, d_qr));
            }
        }
        let gamma = seeded.threshold();
        let within = gamma / (1.0 + config.epsilon);
        let mut kept = Vec::with_capacity(lists.len());
        for (ri, (list, &d_qr)) in lists.iter().zip(row).enumerate() {
            let radius_pruned = d_qr >= within + list.radius;
            let lemma1_pruned = d_qr > 3.0 * gamma;
            if !(list.is_empty() || radius_pruned || lemma1_pruned) {
                kept.push((ri, d_qr));
            }
        }
        (seeded, kept)
    }

    /// Groups as lists, each with its cursors' bits.
    type Groups = Vec<(usize, Vec<[u64; 3]>)>;

    /// The re-plan before the fused pass: a cursor per surviving entry
    /// through `run_is_empty`, a stable sort by list, one group per run of
    /// equal lists, then the run order. Each group as its list and its
    /// cursors' bits.
    fn reference_replan(
        rows: &[CandidateRow],
        caps: &[Dist],
        tau: &[Dist],
        shrink: f64,
        bounds: &ListBounds,
    ) -> (Groups, u64) {
        let mut skipped = 0;
        let mut rest = Vec::new();
        for (qi, row) in rows.iter().enumerate() {
            let nearest = nearest_entry(row);
            for (at, &(list, d_to_rep)) in row.iter().enumerate() {
                if Some(at) == nearest {
                    continue;
                }
                let cursor = GroupCursor {
                    query: qi,
                    d_to_rep,
                    threshold_cap: caps[qi],
                };
                if cursor.run_is_empty(bounds.radius[list], tau[qi], shrink) {
                    skipped += bounds.len[list] as u64;
                } else {
                    rest.push((list, cursor));
                }
            }
        }
        rest.sort_by_key(|&(list, _)| list);
        let mut groups: Vec<(usize, Vec<GroupCursor>, Dist, usize)> = rest
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| {
                let cursors: Vec<GroupCursor> = run.iter().map(|&(_, c)| c).collect();
                let nearest = cursors
                    .iter()
                    .map(|c| c.d_to_rep)
                    .fold(Dist::INFINITY, Dist::min);
                let work = cursors.len() * bounds.len[run[0].0];
                (run[0].0, cursors, nearest, work)
            })
            .collect();
        groups.sort_by(|a, b| {
            let by_nearest = a.2.total_cmp(&b.2);
            let then_largest = by_nearest.then_with(|| b.3.cmp(&a.3));
            then_largest.then_with(|| a.0.cmp(&b.0))
        });
        let groups = groups
            .into_iter()
            .map(|(list, cursors, _, _)| (list, bits(&cursors)));
        (groups.collect(), skipped)
    }

    fn bits(cursors: &[GroupCursor]) -> Vec<[u64; 3]> {
        let bits = |c: &GroupCursor| {
            [
                c.query as u64,
                c.d_to_rep.to_bits(),
                c.threshold_cap.to_bits(),
            ]
        };
        cursors.iter().map(bits).collect()
    }

    /// A distance from a small set, so ties are common, with NaN and ±∞
    /// mixed in.
    fn coarse_dist(rng: &mut StdRng) -> Dist {
        match rng.gen_range(0..20) {
            0 => Dist::NAN,
            1 => Dist::INFINITY,
            2 => Dist::NEG_INFINITY,
            _ => f64::from(rng.gen_range(0..12u8)) * 0.25,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The kernel keeps the reference's rows and seeds the reference's
        /// collectors, and names each kept row's `nearest_entry`.
        #[test]
        fn the_survivors_kernel_equals_the_reference(
            size in 0usize..4,
            k in 1usize..14,
            wide_k in any::<bool>(),
            epsilon_on in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_r = [1usize, 2, 409, 1225][size];
            // k > n_r leaves γ_k at ∞.
            let k = if wide_k { n_r + k } else { k };
            let config = RbcConfig::default().with_epsilon(if epsilon_on { 0.5 } else { 0.0 });
            // Distinct representatives in no particular order.
            let reps: Vec<usize> = (0..n_r).map(|ri| (7919 * ri) % 12_289).collect();
            let lists: Vec<OwnershipList> = reps
                .iter()
                .map(|&rep| match rng.gen_range(0..10) {
                    0 => OwnershipList::from_pairs(rep, Vec::new()),
                    1 => OwnershipList::from_pairs(rep, vec![(rep, 0.0), (rep + 1, Dist::NAN)]),
                    _ => OwnershipList::from_pairs(rep, vec![(rep, 0.0), (rep + 1, coarse_dist(&mut rng).abs())]),
                })
                .collect();
            let smooth = rng.gen_bool(0.5);
            let rows: Vec<Vec<Dist>> = (0..3)
                .map(|_| {
                    let entry = |rng: &mut StdRng| if smooth && rng.gen_range(0..10) > 0 {
                        rng.gen_range(0.0..3.0)
                    } else {
                        coarse_dist(rng)
                    };
                    (0..n_r).map(|_| entry(&mut rng)).collect()
                })
                .collect();
            let bounds = ListBounds::of(&lists);
            let sorted = |seeds: TopK| -> Vec<(usize, u64)> {
                seeds.into_sorted().iter().map(|n| (n.index, n.dist.to_bits())).collect()
            };
            for row in &rows {
                let (want_seeds, want_row) = reference_survivors(row, &lists, k, &config);
                let (seeds, got_row, nearest) = survivors(row, &reps, &bounds, k, config.epsilon);
                prop_assert_eq!(seeds.threshold().to_bits(), want_seeds.threshold().to_bits());
                prop_assert_eq!(sorted(seeds), sorted(want_seeds));
                let row_bits = |row: &CandidateRow| -> Vec<(usize, u64)> {
                    row.iter().map(|&(ri, d)| (ri, d.to_bits())).collect()
                };
                prop_assert_eq!(row_bits(&got_row), row_bits(&want_row));
                prop_assert_eq!(nearest, nearest_entry(&want_row));
            }
            let matrix: Vec<Dist> = rows.concat();
            let plan = BatchPlan::plan_exact(&matrix, &lists, k, &config);
            prop_assert_eq!(plan.queries, rows.len());
            let kept = rows.iter().map(|row| reference_survivors(row, &lists, k, &config).1.len());
            prop_assert_eq!(pairs(&plan), kept.sum::<usize>());
        }

        /// The fused re-plan forms the groups the per-query re-plan and the
        /// stable-sort inversion formed: same lists, same cursors in the
        /// same order, same run order, same members skipped.
        #[test]
        fn the_fused_replan_equals_the_replan_and_inversion(
            n_lists in 1usize..40,
            queries in 0usize..40,
            shrink_on in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let bounds =
                ListBounds::new((0..n_lists).map(|_| (coarse_dist(&mut rng).abs(), rng.gen_range(0..5))));
            let rows: Vec<CandidateRow> = (0..queries)
                .map(|_| {
                    let mut row = CandidateRow::new();
                    for list in 0..n_lists {
                        if rng.gen_bool(0.6) {
                            row.push((list, coarse_dist(&mut rng).abs()));
                        }
                    }
                    row
                })
                .collect();
            let caps: Vec<Dist> = (0..queries).map(|_| coarse_dist(&mut rng).abs()).collect();
            let tau: Vec<Dist> = (0..queries).map(|_| coarse_dist(&mut rng).abs()).collect();
            let shrink = if shrink_on { 1.5 } else { 1.0 };
            let nearest: Vec<Option<usize>> = rows.iter().map(|row| nearest_entry(row)).collect();

            let (buckets, skipped) = replan(&rows, &nearest, &caps, &tau, shrink, &bounds);
            let groups = cursor_groups(&buckets, &bounds);
            let got: Groups = groups
                .iter()
                .map(|g| (g.list, bits(&buckets.cursors[g.cursors.clone()])))
                .collect();
            let (want, want_skipped) = reference_replan(&rows, &caps, &tau, shrink, &bounds);
            prop_assert_eq!(got, want);
            prop_assert_eq!(skipped, want_skipped);
        }
    }

    #[test]
    fn nearest_entry_orders_like_a_neighbor() {
        let nan = Dist::NAN;
        // A leading NaN sits after every number.
        assert_eq!(nearest_entry(&[(0, nan), (1, 0.5)]), Some(1));
        assert_eq!(
            nearest_entry(&[(0, nan), (1, 0.5), (2, nan), (3, 0.5)]),
            Some(1)
        );
        // An all-NaN row names its first entry; an empty row none.
        assert_eq!(nearest_entry(&[(4, nan), (7, nan)]), Some(0));
        assert_eq!(nearest_entry(&[]), None);
        // Ties go to the earlier entry, whatever the lists.
        assert_eq!(nearest_entry(&[(9, 2.0), (3, 1.0), (1, 1.0)]), Some(1));
    }
}
