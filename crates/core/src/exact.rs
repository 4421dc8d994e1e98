//! The exact RBC search structure (paper §5.2).
//!
//! Build: choose random representatives `R`, then one call `BF(X, R)`
//! assigns every database point to its nearest representative, so the
//! ownership lists partition `X`. Search: compute all representative
//! distances (`BF(q, R)`, distances retained), prune representatives with
//! the radius bound `ρ(q,r) ≥ γ + ψ_r` (eq. 1) and the Lemma 1 bound
//! `ρ(q,r) > 3γ` (eq. 2), then brute-force the surviving lists. The result
//! is always the true nearest neighbor; only the amount of work is random
//! (Theorem 1: expected `O(c^{3/2}·√n)` at the standard setting).
//!
//! Two refinements from the paper are implemented:
//!
//! * **sorted-list pruning** — ownership lists are stored sorted by
//!   distance to their representative, so a list scan stops as soon as
//!   the triangle inequality shows no later entry can beat the current
//!   best (the "4γ" observation after Claim 2). Like both bounds, it
//!   always applies;
//! * **approximate mode** — footnote 1 notes the algorithm is easily
//!   modified to return a `(1+ε)`-approximate NN with less work; setting
//!   [`RbcConfig::epsilon`] `> 0` tightens every pruning threshold by
//!   `1/(1+ε)`.

use std::sync::Mutex;

use rbc_bruteforce::{BfConfig, BfStats, BruteForce, ListMirror, Neighbor, TopK};
use rbc_metric::{BlockedVectors, Dataset, Dist, Metric, QueryBatch};

use crate::batch_plan::{self, Candidates, ListBounds, ListView, Stage2};
use crate::params::{RbcConfig, RbcParams};
use crate::reps::{gather_mirrors, sample_representatives, OwnershipList};
use crate::stats::{QueryStats, SearchStats};

/// The exact Random Ball Cover index.
#[derive(Clone, Debug)]
pub struct ExactRbc<D, M> {
    db: D,
    metric: M,
    params: RbcParams,
    config: RbcConfig,
    rep_indices: Vec<usize>,
    lists: Vec<OwnershipList>,
    /// The lists' radii and lengths as flat arrays, for the plan.
    bounds: ListBounds,
    /// `rep_flags[i]` is true iff database item `i` is a representative.
    /// Representatives are answered from the first search stage (their
    /// distances are computed there anyway), so list scans skip them.
    rep_flags: Vec<bool>,
    /// Blocked SoA mirror of the representative set, gathered once at
    /// build time so every stage-1 `BF(Q, R)` scan can run the metric's
    /// SIMD lane kernel. `None` when the metric has no lane kernel or the
    /// dataset has no blocked layout.
    rep_blocked: Option<BlockedVectors>,
    /// Blocked SoA mirror of each ownership list in member order, with the
    /// representatives masked out, for the stage-2 list scans.
    list_blocks: Option<Vec<Option<ListMirror>>>,
    build_distance_evals: u64,
}

impl<D, M> ExactRbc<D, M>
where
    D: Dataset,
    M: Metric<D::Item>,
{
    /// Builds the exact structure over `db`.
    ///
    /// The build is a single `BF(X, R)` call: every database point finds
    /// its nearest representative and joins that representative's list.
    /// Work is `O(n · n_r)` distance evaluations, fully parallel.
    ///
    /// # Panics
    /// Panics if `db` is empty.
    pub fn build(db: D, metric: M, params: RbcParams, config: RbcConfig) -> Self {
        let n = db.len();
        assert!(n > 0, "cannot build an RBC over an empty database");
        let rep_indices = sample_representatives(n, params.n_reps, params.seed);

        let bf = BruteForce::with_config(config.bf);
        // Blocked SoA mirrors are gathered once here and reused by every
        // query; like the primitive, only a metric with lanes gets them.
        let use_lanes = metric.lanes_supported();
        let rep_blocked = if use_lanes {
            db.gather_blocked(&rep_indices)
        } else {
            None
        };
        // BF(X, R): nearest representative of every database point.
        let rep_view = db.subset(&rep_indices);
        let (assignments, build_stats) =
            bf.nn_with_blocks(&db, &rep_view, &metric, rep_blocked.as_ref());

        // Group points by owning representative (position within R).
        let mut pairs: Vec<Vec<(usize, Dist)>> = vec![Vec::new(); rep_indices.len()];
        for (x_idx, assignment) in assignments.iter().enumerate() {
            pairs[assignment.index].push((x_idx, assignment.dist));
        }
        let lists: Vec<OwnershipList> = rep_indices
            .iter()
            .zip(pairs)
            .map(|(&rep_index, p)| OwnershipList::from_pairs(rep_index, p))
            .collect();
        let mut rep_flags = vec![false; n];
        for &r in &rep_indices {
            rep_flags[r] = true;
        }
        // `f32` lanes: a batch reads these lists from cache again and again,
        // and rescores a screened group from the lanes it just read (coded
        // lists rescored from the database measured slower).
        let list_blocks = use_lanes.then(|| {
            let parallel = config.bf.parallel;
            gather_mirrors(
                &db,
                &lists,
                ListMirror::gather,
                true,
                Some(&rep_flags),
                parallel,
            )
        });

        Self {
            db,
            metric,
            params,
            config,
            rep_indices,
            bounds: ListBounds::of(&lists),
            lists,
            rep_flags,
            rep_blocked,
            list_blocks,
            build_distance_evals: build_stats.distance_evals,
        }
    }

    /// The blocked SoA mirror of the representative set, if one was built
    /// (callers running their own `BF(Q, R)` scans reuse it).
    pub fn rep_blocked(&self) -> Option<&BlockedVectors> {
        self.rep_blocked.as_ref()
    }

    /// The `f32` mirrors of the ownership lists (one slot per list, in
    /// member order, representatives masked), if they were built.
    pub fn list_blocks(&self) -> Option<&[Option<ListMirror>]> {
        self.list_blocks.as_deref()
    }

    /// Exact nearest neighbor of a single query.
    pub fn query(&self, query: &D::Item) -> (Neighbor, QueryStats) {
        let (mut knn, stats) = self.query_k(query, 1);
        (knn.pop().unwrap_or_else(Neighbor::farthest), stats)
    }

    /// Exact `k` nearest neighbors of a single query, sorted by ascending
    /// distance. Returns `min(k, n)` results. A batch of one: the answer
    /// and the work of [`query_batch_k`](Self::query_batch_k) on that row.
    pub fn query_k(&self, query: &D::Item, k: usize) -> (Vec<Neighbor>, QueryStats) {
        let (mut answers, stats) = self.query_batch_k(&QueryBatch::new(&[query]), k);
        let answer = answers.pop().unwrap_or_default();
        (answer, stats.into_query(self.rep_indices.len()))
    }

    /// Every database point within `radius` of the query, sorted by
    /// ascending distance (ε-range search, exact).
    pub fn query_range(&self, query: &D::Item, radius: Dist) -> (Vec<Neighbor>, QueryStats) {
        assert!(radius >= 0.0, "radius must be non-negative");
        let bf = BruteForce::with_config(self.config.bf);
        // Stage 1: all representative distances, from the dense kernel the
        // k-NN search's stage 1 runs.
        let rep_view = self.db.subset(&self.rep_indices);
        let blocks = self.rep_blocked.as_ref();
        let (mut rows, rep_stats) = bf.rows_with(
            &QueryBatch::new(&[query]),
            &rep_view,
            &self.metric,
            blocks,
            |_, row| row.to_vec(),
        );
        let rep_dists = rows.pop().unwrap_or_default();

        let mut hits = Vec::new();
        let mut list_evals = 0u64;
        let mut skipped = 0u64;
        let mut reps_examined = 0usize;
        let mut tile_passes = 0u64;
        let db_tile = self.config.bf.db_tile.max(1);
        for (ri, list) in self.lists.iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            let d_qr = rep_dists[ri];
            // A list can contain a point within `radius` of q only if
            // ρ(q,r) ≤ radius + ψ_r.
            if d_qr > radius + list.radius {
                continue;
            }
            reps_examined += 1;
            let mut visited = 0usize;
            for (pos, &member) in list.members.iter().enumerate() {
                visited = pos + 1;
                let d_xr = list.member_dists[pos];
                if d_xr > d_qr + radius {
                    // Sorted ascending: everything after is farther too.
                    skipped += (list.len() - pos) as u64;
                    break;
                }
                if d_qr - d_xr > radius {
                    skipped += 1;
                    continue;
                }
                list_evals += 1;
                let d = self.metric.dist(query, self.db.get(member));
                if d <= radius {
                    hits.push(Neighbor::new(member, d));
                }
            }
            tile_passes += visited.div_ceil(db_tile) as u64;
        }
        hits.sort();
        let stats = QueryStats {
            rep_distance_evals: rep_stats.distance_evals,
            list_distance_evals: list_evals,
            reps_total: self.rep_indices.len(),
            reps_examined,
            list_points_skipped: skipped,
            list_tile_passes: tile_passes,
        };
        (hits, stats)
    }

    /// Batch search: exact NN for every query.
    pub fn query_batch<Q>(&self, queries: &Q) -> (Vec<Neighbor>, SearchStats)
    where
        Q: Dataset<Item = D::Item>,
    {
        let (knn, stats) = self.query_batch_k(queries, 1);
        let nn = knn
            .into_iter()
            .map(|mut v| v.pop().unwrap_or_else(Neighbor::farthest))
            .collect();
        (nn, stats)
    }

    /// Batch exact k-NN search (see the crate-level "Batched search
    /// architecture" notes): one dense `BF(Q, R)` stage that finishes every
    /// query's `γ_k` plan as its row is scored, then a parallel loop over
    /// *ownership lists* in which each list's tiles are streamed once and
    /// shared by every query whose pruning rules selected the list — each
    /// query's nearest list first, then whatever of its row the threshold
    /// that scan left still admits. Every k-NN search of the structure runs
    /// here; a single query is a batch of one.
    pub fn query_batch_k<Q>(&self, queries: &Q, k: usize) -> (Vec<Vec<Neighbor>>, SearchStats)
    where
        Q: Dataset<Item = D::Item>,
    {
        assert!(k > 0, "k must be at least 1");
        let nq = queries.len();
        if nq == 0 {
            return (Vec::new(), SearchStats::default());
        }
        let n_reps = self.rep_indices.len();

        let stage1_span = rbc_trace::span("core.stage1");
        let (seeded, candidates, rep_stats) = self.stage1(queries, k);
        drop(stage1_span);

        let plan_span = rbc_trace::span("core.plan");
        let gamma_k: Vec<Dist> = seeded.iter().map(TopK::threshold).collect();
        let accumulators: Vec<Mutex<TopK>> = seeded.into_iter().map(Mutex::new).collect();
        drop(plan_span);

        // Stage 2: each query's nearest surviving list, then whatever of
        // its row the tightened threshold still admits — both phases
        // parallel across lists, each list streamed once for its group.
        let inner_bf = BruteForce::with_config(BfConfig {
            parallel: false,
            ..self.config.bf
        });
        let scan_span = rbc_trace::span("core.scan");
        let stage2 = Stage2 {
            bf: &inner_bf,
            parallel: self.config.bf.parallel,
            queries,
            db: &self.db,
            metric: &self.metric,
            list: |ri: usize| self.list_view(ri),
            bounds: &self.bounds,
            shrink: 1.0 + self.config.epsilon,
            sorted_cut: true,
            skip: Some(&self.rep_flags),
        };
        let mut stats = stage2.nearest_then_rest(&candidates, &gamma_k, &accumulators);
        drop(scan_span);
        stats.rep_distance_evals = rep_stats.distance_evals;
        stats.rep_reranked_groups = rep_stats.reranked_groups;
        stats.max_query_evals += n_reps as u64;
        (batch_plan::into_answers(accumulators), stats)
    }

    /// Stage 1 of a batch, which the distributed coordinator runs too: one
    /// dense `BF(Q, R)` pass whose rows never leave the thread that scored
    /// them — each becomes its query's collector seeded with the
    /// representatives (threshold `γ_k`) and its candidate row of the lists
    /// eq. 1 / eq. 2 keep, each with its `ρ(q, r)`.
    ///
    /// Seeding the representatives — their exact distances are computed
    /// here anyway and they are genuine database points — guarantees a
    /// valid answer even in the corner case where every ownership list is
    /// pruned (e.g. the nearest representative owns only itself, so its
    /// singleton list satisfies eq. 1 with ψ_r = 0). It is also what makes
    /// the (1+ε)-approximate mode sound: whatever gets pruned, the answer
    /// returned is never worse than the nearest representative. List scans
    /// skip them (`rep_flags`): already answered, and a second entry would
    /// duplicate a k-NN result. The rows stay per query; stage 2 inverts
    /// only what its re-plan leaves.
    pub fn stage1<Q>(&self, queries: &Q, k: usize) -> (Vec<TopK>, Candidates, BfStats)
    where
        Q: Dataset<Item = D::Item>,
    {
        let bf = BruteForce::with_config(self.config.bf);
        let rep_view = self.db.subset(&self.rep_indices);
        let (reps, bounds, epsilon) = (&self.rep_indices, &self.bounds, self.config.epsilon);
        let plan_row = |_, row: &[Dist]| batch_plan::survivors(row, reps, bounds, k, epsilon);
        let blocks = self.rep_blocked.as_ref();
        let (per_query, stats) = bf.rows_with(queries, &rep_view, &self.metric, blocks, plan_row);
        let ((seeds, rows), nearest) = per_query
            .into_iter()
            .map(|(seeds, row, nearest)| ((seeds, row), nearest))
            .unzip();
        (seeds, Candidates { rows, nearest }, stats)
    }

    /// List `ri` as stage 2 scans it.
    fn list_view(&self, ri: usize) -> ListView<'_> {
        let mirrors = self.list_blocks.as_ref();
        ListView::of(&self.lists[ri], mirrors.and_then(|b| b[ri].as_ref()))
    }

    /// Every list's radius and length as flat arrays, by list id — what the
    /// plan reads of the lists.
    pub fn list_bounds(&self) -> &ListBounds {
        &self.bounds
    }

    // --- accessors -----------------------------------------------------

    /// The database this structure indexes.
    pub fn database(&self) -> &D {
        &self.db
    }

    /// The metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Database indices of the representatives (the realised draw).
    pub fn rep_indices(&self) -> &[usize] {
        &self.rep_indices
    }

    /// Number of representatives actually drawn.
    pub fn num_reps(&self) -> usize {
        self.rep_indices.len()
    }

    /// The ownership lists, parallel to [`rep_indices`](Self::rep_indices).
    /// Together they partition the database.
    pub fn lists(&self) -> &[OwnershipList] {
        &self.lists
    }

    /// Parameters the structure was built with.
    pub fn params(&self) -> &RbcParams {
        &self.params
    }

    /// Configuration the structure was built with.
    pub fn config(&self) -> &RbcConfig {
        &self.config
    }

    /// Distance evaluations spent building the structure (`BF(X, R)`).
    pub fn build_distance_evals(&self) -> u64 {
        self.build_distance_evals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch_plan::{BatchPlan, CandidateRow};
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use rbc_metric::{Euclidean, Manhattan, PerPoint, VectorSet};

    fn random_cloud(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect())
            .collect();
        VectorSet::from_rows(&rows)
    }

    fn clustered_cloud(n: usize, dim: usize, seed: u64) -> VectorSet {
        clusters(n, dim, 12, seed)
    }

    fn clusters(n: usize, dim: usize, n_centers: usize, seed: u64) -> VectorSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..n_centers)
            .map(|_| (0..dim).map(|_| rng.gen_range(-10.0f32..10.0)).collect())
            .collect();
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let c = &centers[i % centers.len()];
                c.iter().map(|&v| v + rng.gen_range(-0.2f32..0.2)).collect()
            })
            .collect();
        VectorSet::from_rows(&rows)
    }

    /// Stage 1's seeds and rows from a distance matrix computed elsewhere,
    /// each row through the same `survivors` kernel.
    fn matrix_survivors<D: Dataset, M: Metric<D::Item>>(
        matrix: &[Dist],
        rbc: &ExactRbc<D, M>,
        k: usize,
    ) -> (Vec<TopK>, Vec<CandidateRow>) {
        let (reps, bounds, epsilon) = (rbc.rep_indices(), rbc.list_bounds(), rbc.config().epsilon);
        let rows = matrix.chunks_exact(rbc.num_reps());
        let survivors = rows.map(|row| batch_plan::survivors(row, reps, bounds, k, epsilon));
        survivors.map(|(seeds, kept, _)| (seeds, kept)).unzip()
    }

    fn brute_knn(db: &VectorSet, q: &[f32], k: usize) -> Vec<Neighbor> {
        BruteForce::new().knn_single(q, db, &Euclidean, k).0
    }

    /// (query, list) pairs the γ_k rules (eq. 1 / eq. 2) keep for a batch.
    fn gamma_k_pairs(rbc: &ExactRbc<&VectorSet, Euclidean>, queries: &VectorSet, k: usize) -> u64 {
        let reps = rbc.database().subset(rbc.rep_indices());
        let (rep_dists, _) = BruteForce::new().pairwise(queries, &reps, rbc.metric());
        let plan = BatchPlan::plan_exact(&rep_dists, rbc.lists(), k, rbc.config());
        plan.groups
            .iter()
            .map(|group| group.queries.len() as u64)
            .sum()
    }

    #[test]
    fn mirrors_gathered_in_parallel_equal_mirrors_gathered_in_turn() {
        let db = clustered_cloud(1500, 6, 70);
        let params = RbcParams::standard(db.len(), 71);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(3);
        let pool = pool.build().expect("the shim's builder cannot fail");
        let rbc = pool.install(|| ExactRbc::build(&db, Euclidean, params, RbcConfig::default()));
        let gather = ListMirror::gather;
        let in_turn = gather_mirrors(&db, &rbc.lists, gather, true, Some(&rbc.rep_flags), false);
        assert_eq!(in_turn.len(), rbc.num_reps());
        assert!(in_turn.iter().any(Option::is_some));
        assert_eq!(rbc.list_blocks(), Some(&in_turn[..]));
        // Neither the flags nor the distances are optional extras.
        assert_ne!(
            gather_mirrors(&db, &rbc.lists, gather, true, None, true),
            in_turn
        );
        assert_ne!(
            gather_mirrors(&db, &rbc.lists, gather, false, Some(&rbc.rep_flags), true),
            in_turn
        );
    }

    #[test]
    fn a_nan_database_point_sits_last_in_its_list_and_changes_no_answer() {
        // Point 333 has a NaN coordinate: its distance to everything is NaN.
        // The same database with that point far away instead is the oracle.
        const POISONED_AT: usize = 333;
        let clean = clustered_cloud(600, 6, 72);
        let queries = clustered_cloud(40, 6, 73);
        let params = RbcParams::standard(clean.len(), 74);
        assert!(
            !sample_representatives(clean.len(), params.n_reps, params.seed).contains(&POISONED_AT)
        );
        let with_row = |row: Vec<f32>| {
            let mut rows: Vec<Vec<f32>> = clean.iter().map(<[f32]>::to_vec).collect();
            rows[POISONED_AT] = row;
            VectorSet::from_rows(&rows)
        };
        let mut nan_row = clean.point(POISONED_AT).to_vec();
        nan_row[1] = f32::NAN;
        let (poisoned, far) = (with_row(nan_row), with_row(vec![1.0e6; 6]));

        fn check<M: Metric<[f32]> + Copy>(
            metric: M,
            (poisoned, far, queries): (&VectorSet, &VectorSet, &VectorSet),
            params: &RbcParams,
        ) {
            let config = RbcConfig::default();
            let got = ExactRbc::build(poisoned, metric, params.clone(), config);
            let holders: Vec<&OwnershipList> = got
                .lists()
                .iter()
                .filter(|l| l.members.contains(&POISONED_AT))
                .collect();
            assert_eq!(holders.len(), 1, "the lists still partition the database");
            assert_eq!(holders[0].members.last(), Some(&POISONED_AT));
            assert!(holders[0].member_dists.last().is_some_and(|d| d.is_nan()));

            let want = ExactRbc::build(far, metric, params.clone(), config);
            assert_eq!(
                got.query_batch_k(queries, 3).0,
                want.query_batch_k(queries, 3).0
            );
            for qi in 0..queries.len() {
                let q = queries.point(qi);
                assert_eq!(got.query_k(q, 3).0, brute_knn(far, q, 3));
            }
        }
        let sets = (&poisoned, &far, &queries);
        check(Euclidean, sets, &params);
        check(PerPoint(Euclidean), sets, &params);
    }

    #[test]
    fn fused_stage_one_equals_the_plan_over_the_matrix() {
        // The rows the tiled kernel hands to `survivors` on its own threads
        // are the rows of the stage-1 matrix: same seeds, same candidates.
        let db = clustered_cloud(900, 7, 60);
        let queries = clustered_cloud(150, 7, 61);
        let params = RbcParams::standard(db.len(), 62).with_n_reps(230);
        for config in [RbcConfig::default(), RbcConfig::sequential()] {
            let rbc = ExactRbc::build(&db, Euclidean, params.clone(), config);
            let reps = db.subset(rbc.rep_indices());
            let (matrix, matrix_stats) =
                BruteForce::new().pairwise_with_blocks(&queries, &reps, &Euclidean, None);
            for k in [1usize, 10] {
                let (seeds, rows) = matrix_survivors(&matrix, &rbc, k);
                let (fused_seeds, fused, stats) = rbc.stage1(&queries, k);
                // The same work; only the layout (and so which groups the
                // lane kernel scored) differs.
                assert_eq!(stats.queries, matrix_stats.queries);
                assert_eq!(stats.distance_evals, matrix_stats.distance_evals);
                assert_eq!(
                    stats.distance_evals,
                    (queries.len() * rbc.num_reps()) as u64
                );
                let fused_rows = fused.rows;
                assert_eq!(fused_rows, rows);
                let sorted = |seeds: Vec<TopK>| -> Vec<Vec<Neighbor>> {
                    seeds.into_iter().map(TopK::into_sorted).collect()
                };
                assert_eq!(sorted(fused_seeds), sorted(seeds));
            }
        }
    }

    #[test]
    fn the_screened_build_makes_the_lists_the_per_point_build_makes() {
        // `BF(X, R)` screens lane groups when the build is blocked. Every
        // point twice over (ties between representatives settle on the
        // lower position), a NaN point and a far outlier; the lists must
        // match the row-major build's member for member, distance bit for
        // distance bit, in order.
        let distinct = clustered_cloud(700, 7, 75);
        let mut rows: Vec<Vec<f32>> = distinct.iter().map(<[f32]>::to_vec).collect();
        rows.extend(rows.clone());
        rows[123][2] = f32::NAN;
        rows[456] = vec![1.0e6; 7];
        let db = VectorSet::from_rows(&rows);
        let params = RbcParams::standard(db.len(), 76).with_n_reps(230);
        let bits = |l: &OwnershipList| -> Vec<u64> {
            l.member_dists.iter().map(|d| d.to_bits()).collect()
        };
        for parallel in [true, false] {
            let mut config = RbcConfig::default();
            config.bf.parallel = parallel;
            let screened = ExactRbc::build(&db, Euclidean, params.clone(), config);
            let per_point = ExactRbc::build(&db, PerPoint(Euclidean), params.clone(), config);
            assert!(screened.rep_blocked().is_some() && per_point.rep_blocked().is_none());
            assert_eq!(
                screened.build_distance_evals(),
                per_point.build_distance_evals()
            );
            assert_eq!(screened.lists().len(), per_point.lists().len());
            for (a, b) in screened.lists().iter().zip(per_point.lists()) {
                assert_eq!(a.rep_index, b.rep_index);
                assert_eq!(a.members, b.members, "parallel {parallel}");
                assert_eq!(bits(a), bits(b), "parallel {parallel}");
            }
        }
    }

    #[test]
    fn build_partitions_the_database() {
        let db = random_cloud(500, 6, 1);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 2),
            RbcConfig::default(),
        );
        let mut owned: Vec<usize> = rbc.lists().iter().flat_map(|l| l.members.clone()).collect();
        owned.sort_unstable();
        assert_eq!(
            owned,
            (0..db.len()).collect::<Vec<_>>(),
            "lists must partition X"
        );
        // radii are consistent with membership distances
        for l in rbc.lists() {
            for (&m, &d) in l.members.iter().zip(&l.member_dists) {
                assert!((Euclidean.dist(db.point(l.rep_index), db.point(m)) - d).abs() < 1e-12);
                assert!(d <= l.radius + 1e-12);
            }
        }
        assert_eq!(
            rbc.build_distance_evals(),
            (db.len() * rbc.num_reps()) as u64
        );
    }

    #[test]
    fn exact_search_always_matches_brute_force_uniform_data() {
        let db = random_cloud(800, 5, 3);
        let queries = random_cloud(60, 5, 4);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 5),
            RbcConfig::default(),
        );
        for qi in 0..queries.len() {
            let q = queries.point(qi);
            let (got, _) = rbc.query(q);
            let want = brute_knn(&db, q, 1)[0];
            assert_eq!(got.index, want.index, "query {qi}");
            assert!((got.dist - want.dist).abs() < 1e-12);
        }
    }

    #[test]
    fn exact_search_matches_brute_force_clustered_data() {
        let db = clustered_cloud(1200, 8, 6);
        let queries = clustered_cloud(80, 8, 7);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 8),
            RbcConfig::default(),
        );
        let (answers, stats) = rbc.query_batch(&queries);
        for (qi, ans) in answers.iter().enumerate() {
            let want = brute_knn(&db, queries.point(qi), 1)[0];
            assert_eq!(ans.index, want.index, "query {qi}");
        }
        // Exactness must not cost full brute-force work on clustered data.
        assert!(stats.evals_per_query() < db.len() as f64 * 0.8);
    }

    #[test]
    fn exact_knn_matches_brute_force() {
        let db = clustered_cloud(700, 6, 9);
        let queries = random_cloud(40, 6, 10);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 11),
            RbcConfig::default(),
        );
        for k in [1usize, 3, 10] {
            for qi in 0..queries.len() {
                let q = queries.point(qi);
                let (got, _) = rbc.query_k(q, k);
                let want = brute_knn(&db, q, k);
                assert_eq!(
                    got.iter().map(|n| n.index).collect::<Vec<_>>(),
                    want.iter().map(|n| n.index).collect::<Vec<_>>(),
                    "k={k} query {qi}"
                );
            }
        }
    }

    #[test]
    fn approximate_mode_is_within_the_promised_factor_and_cheaper() {
        let db = clustered_cloud(1500, 8, 15);
        let queries = clustered_cloud(60, 8, 16);
        let params = RbcParams::standard(db.len(), 17);
        let exact = ExactRbc::build(&db, Euclidean, params.clone(), RbcConfig::default());
        let approx = ExactRbc::build(
            &db,
            Euclidean,
            params,
            RbcConfig::default().with_epsilon(0.5),
        );
        let (_, exact_stats) = exact.query_batch(&queries);
        let (approx_answers, approx_stats) = approx.query_batch(&queries);
        for (qi, ans) in approx_answers.iter().enumerate() {
            let true_nn = brute_knn(&db, queries.point(qi), 1)[0];
            assert!(
                ans.dist <= (1.0 + 0.5) * true_nn.dist + 1e-9,
                "query {qi}: {} vs {}",
                ans.dist,
                true_nn.dist
            );
        }
        assert!(approx_stats.total_distance_evals() <= exact_stats.total_distance_evals());
    }

    #[test]
    fn query_on_database_points_returns_zero_distance() {
        let db = random_cloud(400, 4, 18);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 19),
            RbcConfig::default(),
        );
        for i in (0..db.len()).step_by(29) {
            let (nn, _) = rbc.query(db.point(i));
            assert_eq!(nn.dist, 0.0);
            // with duplicate-free random data the point itself is returned
            assert_eq!(nn.index, i);
        }
    }

    #[test]
    fn range_query_matches_brute_force_filter() {
        /// `query_range` against the filter `{j : ρ(q, x_j) ≤ r}` in
        /// `(dist, index)` order, at radii on, just below and just above
        /// member distances, at 0 and past the farthest point.
        fn check<M: Metric<[f32]>>(metric: M, lanes: bool) {
            let db = clustered_cloud(800, 6, 20);
            let queries = clustered_cloud(25, 6, 21);
            let params = RbcParams::standard(db.len(), 22);
            let rbc = ExactRbc::build(&db, metric, params, RbcConfig::default());
            assert_eq!(rbc.rep_blocked().is_some(), lanes);
            for qi in 0..queries.len() {
                let q = queries.point(qi);
                let mut all: Vec<Neighbor> = (0..db.len())
                    .map(|j| Neighbor::new(j, rbc.metric().dist(q, db.point(j))))
                    .collect();
                all.sort();
                let farthest = all.last().expect("non-empty database").dist;
                let mut radii = vec![0.0, farthest + 1.0];
                for member in all.iter().step_by(97) {
                    let d = member.dist;
                    radii.extend([d, d.next_down().max(0.0), d.next_up()]);
                }
                for radius in radii {
                    let (hits, stats) = rbc.query_range(q, radius);
                    let expect: Vec<Neighbor> =
                        all.iter().copied().filter(|n| n.dist <= radius).collect();
                    assert_eq!(hits, expect, "radius {radius} query {qi}");
                    assert_eq!(stats.rep_distance_evals, rbc.num_reps() as u64);
                }
            }
        }
        check(Euclidean, true);
        check(PerPoint(Euclidean), false);
    }

    #[test]
    fn pruning_reduces_work_on_clustered_data() {
        let db = clustered_cloud(2000, 8, 23);
        let queries = clustered_cloud(50, 8, 24);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 25),
            RbcConfig::default(),
        );
        let (answers, stats) = rbc.query_batch(&queries);
        for (qi, ans) in answers.iter().enumerate() {
            assert_eq!(*ans, brute_knn(&db, queries.point(qi), 1)[0], "query {qi}");
        }
        // Brute force evaluates every point for every query; the pruned
        // search must do less than half of that.
        let brute_evals = (queries.len() * db.len()) as u64;
        assert!(
            stats.total_distance_evals() < brute_evals / 2,
            "pruning saved too little: {} vs {brute_evals}",
            stats.total_distance_evals()
        );
        // The representative-level rules must also cut down how many lists
        // are scanned at all, not just how many points are evaluated.
        assert!(
            stats.reps_examined < (queries.len() * rbc.lists().len()) as u64,
            "representative pruning had no effect on lists scanned"
        );
    }

    #[test]
    fn works_with_other_metrics() {
        let db = clustered_cloud(500, 5, 26);
        let queries = random_cloud(20, 5, 27);
        let rbc = ExactRbc::build(
            &db,
            Manhattan,
            RbcParams::standard(db.len(), 28),
            RbcConfig::default(),
        );
        // No lane kernel, so no mirror: the metric alone picks the
        // per-point arm.
        assert!(rbc.rep_blocked().is_none());
        assert!(rbc.list_blocks().is_none());
        for qi in 0..queries.len() {
            let q = queries.point(qi);
            let (got, _) = rbc.query(q);
            let want = BruteForce::new().nn_single(q, &db, &Manhattan).0;
            assert_eq!(got.index, want.index);
        }
    }

    #[test]
    fn stats_report_pruning_effect() {
        let db = clustered_cloud(1000, 6, 29);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 30),
            RbcConfig::default(),
        );
        let (_, stats) = rbc.query(db.point(3));
        assert_eq!(stats.reps_total, rbc.num_reps());
        assert!(stats.reps_examined <= stats.reps_total);
        assert!(stats.rep_distance_evals == rbc.num_reps() as u64);
        assert!(stats.total_distance_evals() > 0);
    }

    #[test]
    fn batched_rows_equal_brute_force_and_their_rows_alone() {
        let db = clustered_cloud(900, 6, 40);
        let queries = random_cloud(48, 6, 41);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 42),
            RbcConfig::default(),
        );
        for k in [1usize, 4, 16] {
            let (batched, stats) = rbc.query_batch_k(&queries, k);
            let mut alone_examined = 0;
            for (qi, got) in batched.iter().enumerate() {
                let q = queries.point(qi);
                assert_eq!(got, &brute_knn(&db, q, k), "k={k} query {qi}");
                let (single, single_stats) = rbc.query_k(q, k);
                assert_eq!(got, &single, "k={k} query {qi}");
                alone_examined += single_stats.reps_examined as u64;
            }
            // A cursor is built only for a γ_k survivor, and which ones get
            // one depends only on the query's own nearest list: the same
            // pairs in the batch as row by row ...
            assert_eq!(stats.reps_examined, alone_examined);
            assert!(stats.reps_examined <= gamma_k_pairs(&rbc, &queries, k));
            assert_eq!(stats.queries, queries.len() as u64);
            // ... and never more physical scans than pairs.
            assert!(stats.list_scans <= stats.reps_examined);
            assert!(stats.tile_sharing_factor() >= 1.0);
        }
    }

    #[test]
    fn evaluations_do_not_grow_with_the_batch() {
        // Every query meets its own nearest list before any other, so what
        // it evaluates does not depend on who shares its batch: work per
        // query stays at the one-row floor at every batch size (sequential,
        // so the counts are exact). A plan made before any list is scanned
        // can cut only against γ_k, which costs 2–4× more evaluations at
        // b = 128 than at b = 4.
        //
        // 48 clusters under ~140 representatives: fewer representatives
        // per cluster than k, so γ_k reaches into the neighbouring clusters
        // and only a real neighbour can tighten it — the benchmark's regime.
        let cloud = clusters(20_128, 8, 48, 60);
        let points: Vec<&[f32]> = (0..cloud.len()).map(|i| cloud.point(i)).collect();
        let (db, rows) = points.split_at(20_000);
        let db = VectorSet::from_rows(db);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 62),
            RbcConfig::sequential(),
        );
        let list_evals = |batch: usize| -> f64 {
            let per_batch = rows.chunks(batch).map(|chunk| {
                let batch = rbc_metric::QueryBatch::new(chunk);
                let (_, stats) = rbc.query_batch_k(&batch, 10);
                stats.list_distance_evals
            });
            per_batch.sum::<u64>() as f64 / rows.len() as f64
        };
        let floor = list_evals(1);
        for batch in [4usize, 32, 128] {
            let evals = list_evals(batch);
            assert!(
                (evals - floor).abs() <= 0.05 * floor,
                "b = {batch}: {evals} list evaluations per query, one-row batches {floor}"
            );
        }
    }

    #[test]
    fn list_major_shares_tiles_on_clustered_queries() {
        // Clustered queries land in the same ownership lists, so the batch
        // must serve several queries per physical scan and stream strictly
        // fewer tiles than its rows do one at a time.
        let db = clustered_cloud(1500, 8, 43);
        let queries = clustered_cloud(64, 8, 44);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 45),
            RbcConfig::default(),
        );
        let (batched, stats) = rbc.query_batch_k(&queries, 1);
        let mut alone_tiles = 0;
        for (qi, got) in batched.iter().enumerate() {
            let (single, single_stats) = rbc.query_k(queries.point(qi), 1);
            assert_eq!(got, &single, "query {qi}");
            alone_tiles += single_stats.list_tile_passes;
        }
        assert!(
            stats.tile_sharing_factor() > 1.5,
            "sharing factor too low: {}",
            stats.tile_sharing_factor()
        );
        assert!(
            stats.list_tile_passes < alone_tiles,
            "the batch streamed {} tiles, its rows alone {alone_tiles}",
            stats.list_tile_passes
        );
    }

    #[test]
    fn all_lists_pruned_corner_case_is_answered_from_stage_one() {
        // Every point its own representative: every ownership list is a
        // singleton holding the representative itself, so stage 2 has
        // nothing to contribute and every query must be answered entirely
        // from the seeded stage-1 distances.
        let db = random_cloud(60, 4, 46);
        let params = RbcParams::standard(db.len(), 47).with_n_reps(10 * db.len());
        let rbc = ExactRbc::build(&db, Euclidean, params, RbcConfig::default());
        assert_eq!(rbc.num_reps(), db.len());
        let queries = random_cloud(9, 4, 48);
        for k in [1usize, 5, db.len()] {
            let (batched, stats) = rbc.query_batch_k(&queries, k);
            assert_eq!(stats.list_distance_evals, 0, "k={k}");
            for (qi, per_q) in batched.iter().enumerate() {
                let q = queries.point(qi);
                assert_eq!(per_q, &brute_knn(&db, q, k), "k={k} query {qi}");
                assert_eq!(per_q, &rbc.query_k(q, k).0, "k={k} query {qi}");
            }
        }
    }

    #[test]
    fn nan_query_neither_panics_nor_disturbs_its_batch() {
        // A NaN coordinate makes every distance of that query NaN: no
        // pruning rule and no cut fires (they are all false on NaN), so it
        // scans every list once and its own answer is unspecified — but it
        // must come back, and a finite query sharing the batch must still
        // get exactly its brute-force answer.
        let db = clustered_cloud(600, 5, 50);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 51),
            RbcConfig::default(),
        );
        let mut poisoned = vec![0.5f32; 5];
        poisoned[2] = f32::NAN;
        let finite = random_cloud(1, 5, 52).point(0).to_vec();
        let (_, single_stats) = rbc.query_k(&poisoned, 10);
        assert!(single_stats.list_distance_evals <= db.len() as u64);
        let queries = VectorSet::from_rows(&[poisoned, finite.clone()]);
        let (answers, stats) = rbc.query_batch_k(&queries, 10);
        assert_eq!(answers[1], brute_knn(&db, &finite, 10));
        assert_eq!(answers[1], rbc.query_k(&finite, 10).0);
        assert!(stats.list_distance_evals <= 2 * db.len() as u64);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        let db = random_cloud(50, 3, 31);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 32),
            RbcConfig::default(),
        );
        let _ = rbc.query_k(db.point(0), 0);
    }

    #[test]
    #[should_panic(expected = "radius must be non-negative")]
    fn negative_radius_rejected() {
        let db = random_cloud(50, 3, 33);
        let rbc = ExactRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 34),
            RbcConfig::default(),
        );
        let _ = rbc.query_range(db.point(0), -1.0);
    }
}
