//! The one-shot RBC search structure (paper §5.1).
//!
//! Build: choose random representatives `R`, then `BF(R, X)` assigns to
//! each representative the `s` database points nearest to it (ownership
//! lists overlap). That is the primitive's screened dense scan with a
//! *selecting* collector ([`BruteForce::select_with`]): `s` is in the
//! hundreds or thousands, so each representative keeps a bound and an
//! unsorted buffer that is partitioned when it fills, not an `s`-deep
//! heap, and the thread that selected a list writes it. The scan runs in
//! two waves, so that most representatives screen against a bound that is
//! tight from their first lane group: every 16th selects first under its
//! own running bound, and every other one is then capped by its distances
//! to the members of its nearest first-wave list. The lists overlap
//! (together they hold about `n_r·s/n` copies of the database), so each is
//! kept as `u8` codes beside the database rather than as an `f32` copy.
//! Search: `BF(q, R)` finds the nearest representative `r`, and
//! `BF(q, X[L_r])` answers from `r`'s list, screened from its codes and
//! rescored from the database rows. The
//! answer is the true nearest neighbor with probability at least `1 − δ`
//! when `n_r = s = c·√(n·ln(1/δ))` (Theorem 2).

use std::sync::Mutex;

use rayon::prelude::*;
use rbc_bruteforce::{BfConfig, BruteForce, GroupCursor, ListMirror, Neighbor, TopK};
use rbc_metric::{BlockedVectors, Dataset, Dist, Metric, QueryBatch};

use crate::batch_plan::{self, ListBounds, ListView, Stage2};
use crate::params::{RbcConfig, RbcParams};
use crate::reps::{sample_representatives, OwnershipList};
use crate::stats::{QueryStats, SearchStats};

/// One representative in this many (positions `0, 16, 32, …` of the draw)
/// selects its list in the build's first wave, uncapped; the rest are
/// capped by the first wave's lists. On the interleaved 64-cluster mixture
/// at n = 100 000 (1 225 lists of 1 268), 1/8 and 1/16 built fastest of
/// 1/4, 1/8, 1/16 and 1/32, within noise of each other.
const FIRST_WAVE_STRIDE: usize = 16;

/// The one-shot Random Ball Cover index.
///
/// Generic over the database type `D` (anything implementing
/// [`Dataset`], e.g. [`rbc_metric::VectorSet`] or a reference to one) and
/// the metric `M`.
#[derive(Clone, Debug)]
pub struct OneShotRbc<D, M> {
    db: D,
    metric: M,
    params: RbcParams,
    config: RbcConfig,
    rep_indices: Vec<usize>,
    lists: Vec<OwnershipList>,
    /// The lists' radii and lengths as flat arrays, for stage 2.
    bounds: ListBounds,
    /// Blocked SoA mirror of the representative set for stage-1 scans
    /// (`None` when the metric has no lane kernel or the dataset no blocked
    /// layout).
    rep_blocked: Option<BlockedVectors>,
    /// Coded mirror of each ownership list in member order (empty lists
    /// carry `None`), for the list-major stage-2 group scans: screened from
    /// its `u8` codes, rescored from `db`.
    list_blocks: Option<Vec<Option<ListMirror>>>,
    build_distance_evals: u64,
}

impl<D, M> OneShotRbc<D, M>
where
    D: Dataset,
    M: Metric<D::Item>,
{
    /// Builds the one-shot structure over `db`.
    ///
    /// Every representative selects its `s = params.list_size` nearest
    /// database points with a screened `BF(R, X)` (bounded selection, see
    /// [`BruteForce::select_with`]), and its list is written, already
    /// sorted and exactly `s` long, by the thread that scanned for it; on
    /// the same thread, while its rows are hot, a metric with lanes codes
    /// the list's mirror straight from the database rows (`u8` codes; no
    /// `f32` copy of a list is made). The lists are those an `s`-deep heap
    /// per representative would produce, ties by index included.
    ///
    /// The scan runs in two waves. Every 16th representative (`R₁`) selects
    /// first, against its own running `s`-th distance, which stays loose
    /// until much of `db` has been seen. Each other one (`r ∈ R₂`) is then
    /// capped from its first lane group by the largest of its distances to
    /// the `s` members of its nearest `R₁` list (ties to the lower
    /// position). At least `s` points lie at or within that distance of
    /// `r`, so it bounds `r`'s true `s`-th distance without any metric
    /// axiom; a NaN among those distances, or no `R₁` representative at a
    /// number distance, leaves `r` uncapped. Work is
    /// `n_r · n + |R₂| · (|R₁| + s)` distance evaluations, every one of
    /// them counted, fully parallel.
    ///
    /// # Panics
    /// Panics if `db` is empty, or if a capped list comes back shorter than
    /// `s` (a cap below the true `s`-th distance, which is a bug).
    pub fn build(db: D, metric: M, params: RbcParams, config: RbcConfig) -> Self {
        let n = db.len();
        assert!(n > 0, "cannot build an RBC over an empty database");
        let rep_indices = sample_representatives(n, params.n_reps, params.seed);
        let s = params.list_size.min(n);

        let bf = BruteForce::with_config(config.bf);
        let use_lanes = metric.lanes_supported();
        // BF(R, X) for one wave: each representative selects its `s` nearest
        // database points, and the thread that selected them writes the list
        // and codes its mirror (only a metric with lanes scans one).
        let select = |reps: &[usize], caps: Option<&[Dist]>| {
            let view = db.subset(reps);
            bf.select_with(&view, &db, &metric, s, caps, |ri, nearest| {
                let members: Vec<usize> = nearest.iter().map(|nb| nb.index).collect();
                let mirror = if use_lanes {
                    ListMirror::gather_codes(&db, &members, None, None)
                } else {
                    None
                };
                let dists = nearest.iter().map(|nb| nb.dist).collect();
                (OwnershipList::from_sorted(reps[ri], members, dists), mirror)
            })
        };
        // The first representative of each chunk of the draw selects first.
        let chunks = rep_indices.chunks(FIRST_WAVE_STRIDE);
        let first: Vec<usize> = chunks.clone().map(|chunk| chunk[0]).collect();
        let rest: Vec<usize> = chunks
            .clone()
            .flat_map(|chunk| &chunk[1..])
            .copied()
            .collect();

        let (first_lists, first_stats) = select(&first, None);
        let (caps, cap_evals) = {
            let lists: Vec<&OwnershipList> = first_lists.iter().map(|(list, _)| list).collect();
            second_wave_caps(&bf, &db, &metric, &lists, &rest)
        };
        let (rest_lists, rest_stats) = select(&rest, Some(&caps));
        assert!(
            rest_lists.iter().all(|(list, _)| list.len() == s),
            "a capped list came back shorter than s = {s}: its cap was below the s-th distance"
        );

        // Back into draw order, chunk by chunk.
        let mut rest_lists = rest_lists.into_iter();
        let (mut lists, mut mirrors) = (Vec::new(), Vec::new());
        for (first_list, chunk) in first_lists.into_iter().zip(chunks) {
            let chunk_lists = rest_lists.by_ref().take(chunk.len() - 1);
            for (list, mirror) in std::iter::once(first_list).chain(chunk_lists) {
                lists.push(list);
                mirrors.push(mirror);
            }
        }

        // Like the primitive, only a metric with lanes gets mirrors; every
        // batched query reuses them.
        let rep_blocked = if use_lanes {
            db.gather_blocked(&rep_indices)
        } else {
            None
        };
        let list_blocks = use_lanes.then_some(mirrors);

        Self {
            db,
            metric,
            params,
            config,
            rep_indices,
            bounds: ListBounds::of(&lists),
            lists,
            rep_blocked,
            list_blocks,
            build_distance_evals: first_stats.distance_evals
                + rest_stats.distance_evals
                + cap_evals,
        }
    }

    /// The blocked SoA mirror of the representative set, if one was built.
    pub fn rep_blocked(&self) -> Option<&BlockedVectors> {
        self.rep_blocked.as_ref()
    }

    /// The coded mirrors of the ownership lists (one slot per list, in
    /// member order), if they were built.
    pub fn list_blocks(&self) -> Option<&[Option<ListMirror>]> {
        self.list_blocks.as_deref()
    }

    /// Nearest neighbor of a single query (probabilistically correct).
    pub fn query(&self, query: &D::Item) -> (Neighbor, QueryStats) {
        let (mut knn, stats) = self.query_k(query, 1);
        (knn.pop().unwrap_or_else(Neighbor::farthest), stats)
    }

    /// `k` nearest neighbors of a single query from the chosen
    /// representative's ownership list (probabilistically correct; at most
    /// `min(k, s)` results can be returned). A batch of one: the answer and
    /// the work of [`query_batch_k`](Self::query_batch_k) on that row.
    pub fn query_k(&self, query: &D::Item, k: usize) -> (Vec<Neighbor>, QueryStats) {
        let (mut answers, stats) = self.query_batch_k(&QueryBatch::new(&[query]), k);
        let answer = answers.pop().unwrap_or_default();
        (answer, stats.into_query(self.rep_indices.len()))
    }

    /// Batch search: one-shot NN for every query.
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

    /// Batch k-NN search: one dense `BF(Q, R)` stage that keeps only each
    /// query's nearest representative, queries grouped by it, then a
    /// parallel loop over the chosen *lists* in which each list's tiles are
    /// streamed once for its whole group (`BF(Q_group, X[L_r])`). Each query
    /// belongs to at most one group, so the shared kernel's accumulator
    /// locks are uncontended here. Every k-NN search of the structure runs
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
        let bf = BruteForce::with_config(self.config.bf);
        let n_reps = self.rep_indices.len();

        // Stage 1: the dense k = 1 kernel over the representatives (ties
        // to the lower index, NaN distances last, like every `BF(q, R)`
        // reduction); no distance but the nearest is retained.
        let stage1_span = rbc_trace::span("core.stage1");
        let rep_view = self.db.subset(&self.rep_indices);
        let (nearest, rep_stats) =
            bf.nn_with_blocks(queries, &rep_view, &self.metric, self.rep_blocked.as_ref());
        drop(stage1_span);
        let plan_span = rbc_trace::span("core.plan");
        let groups = batch_plan::group_by_nearest(nearest, n_reps);
        drop(plan_span);

        let accumulators: Vec<Mutex<TopK>> = (0..nq).map(|_| Mutex::new(TopK::new(k))).collect();
        let inner_bf = BruteForce::with_config(BfConfig {
            parallel: false,
            ..self.config.bf
        });
        // Stage 2: one uncut phase, every query on the one list it chose.
        let scan_span = rbc_trace::span("core.scan");
        let stage2 = Stage2 {
            bf: &inner_bf,
            parallel: self.config.bf.parallel,
            queries,
            db: &self.db,
            metric: &self.metric,
            list: |ri: usize| {
                let mirrors = self.list_blocks.as_ref();
                ListView::of(&self.lists[ri], mirrors.and_then(|b| b[ri].as_ref()))
            },
            bounds: &self.bounds,
            shrink: 1.0,
            sorted_cut: false,
            skip: None,
        };
        let mut stats = SearchStats {
            queries: nq as u64,
            rep_distance_evals: rep_stats.distance_evals,
            rep_reranked_groups: rep_stats.reranked_groups,
            ..SearchStats::default()
        };
        let mut list_evals = vec![0u64; nq];
        let uncut = |query: usize| GroupCursor {
            query,
            d_to_rep: 0.0,
            threshold_cap: Dist::INFINITY,
        };
        let pairs = groups.iter().flat_map(|group| {
            let queries = group.queries.iter();
            queries.map(|&query| (group.list_index, uncut(query)))
        });
        stage2.scan_pairs(pairs, &accumulators, &mut stats, &mut list_evals);
        drop(scan_span);
        stats.max_query_evals = n_reps as u64 + list_evals.into_iter().max().unwrap_or(0);
        (batch_plan::into_answers(accumulators), stats)
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

    /// Distance evaluations spent building the structure (`BF(R, X)`).
    pub fn build_distance_evals(&self) -> u64 {
        self.build_distance_evals
    }

    /// Total memory footprint of the ownership lists, in entries.
    pub fn total_list_entries(&self) -> usize {
        self.lists.iter().map(OwnershipList::len).sum()
    }
}

/// The second wave's caps, and the distance evaluations they took: for each
/// representative of `rest`, the largest of its distances to the members
/// of its nearest `first` list (ties to the lower position). Each is a real
/// upper bound on that representative's `s`-th distance — at least `s`
/// database points lie at or within it — so the caps need no metric axiom.
/// `+∞` when no `first` representative is at a number distance, or when any
/// member distance is NaN.
///
/// The member distances are rows of [`BruteForce::rows_with`], one call per
/// list for all the representatives that chose it (each bit-identical to
/// [`Metric::dist`], every one computed), and the lists are shared out
/// among the threads.
fn second_wave_caps<D, M>(
    bf: &BruteForce,
    db: &D,
    metric: &M,
    first: &[&OwnershipList],
    rest: &[usize],
) -> (Vec<Dist>, u64)
where
    D: Dataset,
    M: Metric<D::Item>,
{
    let first_reps: Vec<usize> = first.iter().map(|list| list.rep_index).collect();
    let (nearest, nearest_stats) = bf.nn(&db.subset(rest), &db.subset(&first_reps), metric);
    let groups = batch_plan::group_by_nearest(nearest, first.len());
    let inner_bf = BruteForce::with_config(BfConfig {
        parallel: false,
        ..bf.config()
    });
    let cap_group = |group: &batch_plan::ListGroup| {
        let members = &first[group.list_index].members;
        let reps: Vec<usize> = group.queries.iter().map(|&at| rest[at]).collect();
        let blocks = if metric.lanes_supported() {
            db.gather_blocked(members)
        } else {
            None
        };
        let (members, reps) = (db.subset(members), db.subset(&reps));
        inner_bf.rows_with(&reps, &members, metric, blocks.as_ref(), |_, row| {
            let row = row
                .iter()
                .map(|&d| if d.is_nan() { Dist::INFINITY } else { d });
            row.fold(Dist::NEG_INFINITY, Dist::max)
        })
    };
    let capped: Vec<_> = if bf.config().parallel {
        groups.par_iter().map(cap_group).collect()
    } else {
        groups.iter().map(cap_group).collect()
    };
    let mut caps = vec![Dist::INFINITY; rest.len()];
    let mut evals = nearest_stats.distance_evals;
    for (group, (group_caps, stats)) in groups.iter().zip(capped) {
        for (&at, cap) in group.queries.iter().zip(group_caps) {
            caps[at] = cap;
        }
        evals += stats.distance_evals;
    }
    (caps, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reps::gather_mirrors;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use rbc_metric::{
        Euclidean, Levenshtein, Manhattan, PerPoint, SquaredEuclidean, StringSet, VectorSet,
    };

    /// The lists as the heap made them: `bf.knn(R, X, s)`, every answer
    /// sorted once more by `from_pairs`.
    fn lists_from_knn<D: Dataset, M: Metric<D::Item>>(
        db: &D,
        metric: &M,
        params: &RbcParams,
        bf: BfConfig,
    ) -> Vec<OwnershipList> {
        let rep_indices = sample_representatives(db.len(), params.n_reps, params.seed);
        let reps = db.subset(&rep_indices);
        let s = params.list_size.min(db.len());
        let (knn, _) = BruteForce::with_config(bf).knn(&reps, db, metric, s);
        let answers = rep_indices.iter().zip(knn);
        answers
            .map(|(&rep, nearest)| {
                let pairs = nearest.into_iter().map(|nb| (nb.index, nb.dist)).collect();
                OwnershipList::from_pairs(rep, pairs)
            })
            .collect()
    }

    /// The build's distance evaluations: `BF(R, X)` in full, then each
    /// second-wave representative's distances to the first wave and to the
    /// `s` members of one first-wave list.
    fn build_evals(n_reps: usize, n: usize, s: usize) -> u64 {
        let first = n_reps.div_ceil(FIRST_WAVE_STRIDE);
        (n_reps * n + (n_reps - first) * (first + s)) as u64
    }

    fn clustered_cloud(n: usize, dim: usize, seed: u64) -> VectorSet {
        // Tight clusters so the one-shot structure virtually always answers
        // exactly: intrinsic structure is what the theory assumes.
        let mut rng = StdRng::seed_from_u64(seed);
        let n_clusters = 10;
        let centers: Vec<Vec<f32>> = (0..n_clusters)
            .map(|_| (0..dim).map(|_| rng.gen_range(-10.0f32..10.0)).collect())
            .collect();
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let c = &centers[i % n_clusters];
                c.iter()
                    .map(|&v| v + rng.gen_range(-0.05f32..0.05))
                    .collect()
            })
            .collect();
        VectorSet::from_rows(&rows)
    }

    /// Data with low intrinsic dimension but no cluster gaps: points on a
    /// smooth 2-D sheet embedded in `dim` dimensions. This is the regime
    /// where Theorem 2's guarantee bites (moderate expansion rate
    /// everywhere), so recall-style assertions are reliable on it.
    fn smooth_sheet(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                let u = rng.gen_range(0.0f32..4.0);
                let v = rng.gen_range(0.0f32..4.0);
                (0..dim)
                    .map(|d| match d % 4 {
                        0 => u,
                        1 => v,
                        2 => (u * 1.3 + 0.2 * v).sin(),
                        _ => (v * 0.7 - 0.4 * u).cos(),
                    })
                    .collect()
            })
            .collect();
        VectorSet::from_rows(&rows)
    }

    fn brute_force_nn(db: &VectorSet, q: &[f32]) -> Neighbor {
        let bf = BruteForce::new();
        bf.nn_single(q, db, &Euclidean).0
    }

    #[test]
    fn build_produces_lists_of_requested_size() {
        let db = clustered_cloud(500, 6, 1);
        let params = RbcParams::standard(db.len(), 42); // nr = s = 23
        let rbc = OneShotRbc::build(&db, Euclidean, params.clone(), RbcConfig::default());
        assert!(rbc.num_reps() > 0);
        assert_eq!(rbc.lists().len(), rbc.num_reps());
        for l in rbc.lists() {
            assert_eq!(l.len(), params.list_size);
            // sorted by distance to the representative
            for w in l.member_dists.windows(2) {
                assert!(w[0] <= w[1]);
            }
            // the representative owns itself as its closest member
            assert_eq!(l.members[0], l.rep_index);
            assert_eq!(l.member_dists[0], 0.0);
        }
        assert_eq!(
            rbc.build_distance_evals(),
            build_evals(rbc.num_reps(), db.len(), params.list_size)
        );
    }

    #[test]
    fn build_selects_exactly_the_lists_the_heap_made() {
        let mut rng = StdRng::seed_from_u64(60);
        let uniform: Vec<Vec<f32>> = (0..700)
            .map(|_| (0..5).map(|_| rng.gen_range(-5.0f32..5.0)).collect())
            .collect();
        let databases = [
            ("random", VectorSet::from_rows(&uniform)),
            ("clustered", clustered_cloud(900, 6, 61)),
            (
                "all duplicates",
                VectorSet::from_rows(&vec![vec![1.5f32, -2.0, 0.25]; 300]),
            ),
        ];
        fn check<'a, M: Metric<[f32]> + Copy>(
            db: &'a VectorSet,
            metric: M,
            params: &RbcParams,
            config: RbcConfig,
            case: &str,
        ) -> OneShotRbc<&'a VectorSet, M> {
            let rbc = OneShotRbc::build(db, metric, params.clone(), config);
            let want = lists_from_knn(db, &metric, params, config.bf);
            let case = format!("{}, {case}", metric.name());
            assert_eq!(rbc.lists(), want, "{case}");
            let s = params.list_size.min(db.len());
            assert_eq!(
                rbc.build_distance_evals(),
                build_evals(rbc.num_reps(), db.len(), s),
                "{case}"
            );
            assert!(rbc.lists().iter().all(|l| l.len() == s), "{case}");
            rbc
        }
        for (name, db) in &databases {
            let standard = RbcParams::standard(db.len(), 62);
            // Lists several times the standard size, so every buffer fills
            // and partitions more than once; then lists that are the database.
            let sizes = [standard.list_size, 4 * standard.list_size, db.len() + 7];
            for list_size in sizes {
                let params = standard.clone().with_list_size(list_size);
                for (per_point, parallel) in [(false, true), (false, false), (true, true)] {
                    let mut config = RbcConfig::default();
                    config.bf.parallel = parallel;
                    let case = format!("{name}, s {list_size}, {:?}", config.bf);
                    if per_point {
                        check(db, PerPoint(Euclidean), &params, config, &case);
                    } else {
                        check(db, Euclidean, &params, config, &case);
                        // Breaks the triangle inequality, which no cap uses.
                        check(db, SquaredEuclidean, &params, config, &case);
                    }

                    // No lane kernel: the per-point arm, lower bound and all,
                    // chosen by the metric alone, so nothing is mirrored.
                    let rbc = check(db, Manhattan, &params, config, &case);
                    assert!(rbc.rep_blocked().is_none(), "{case}");
                    assert!(rbc.list_blocks().is_none(), "{case}");
                }
            }
        }

        // Few representatives: one (no second wave), two (a second wave of
        // one), sixteen and seventeen (a second first-wave list) — each
        // database is its own representative set, so every list is the
        // database.
        let mut drawn = Vec::new();
        for n in [1, 2, 16, 17] {
            let db = clustered_cloud(n, 4, 70 + n as u64);
            let params = RbcParams::standard(n, 71).with_n_reps(n);
            for list_size in [1, n, n + 3] {
                let params = params.clone().with_list_size(list_size);
                let case = format!("n = n_r = {n}, s {list_size}");
                let config = RbcConfig::default();
                drawn.push(check(&db, Euclidean, &params, config, &case).num_reps());
                check(&db, PerPoint(Euclidean), &params, config, &case);
            }
        }
        assert_eq!(drawn, [1, 1, 1, 2, 2, 2, 16, 16, 16, 17, 17, 17]);
        // Fewer than sixteen drawn from a larger database, lists shorter
        // than it and longer.
        let db = &databases[1].1;
        for n_reps in [1, 3, 12] {
            for list_size in [40, db.len(), db.len() + 1] {
                let params = RbcParams::standard(db.len(), 72)
                    .with_n_reps(n_reps)
                    .with_list_size(list_size);
                let case = format!("clustered, n_r ≈ {n_reps}, s {list_size}");
                let rbc = check(db, Euclidean, &params, RbcConfig::default(), &case);
                assert!(rbc.num_reps() <= 16, "{case}: {} drawn", rbc.num_reps());
            }
        }
    }

    #[test]
    fn levenshtein_builds_select_exactly_the_lists_the_heap_made() {
        // Strings of 3 to 14 letters over a four-letter alphabet: lengths
        // differ, so the per-point arm's length-difference lower bound
        // skips candidates once a cap or a bound is finite, and ties in edit
        // distance are everywhere. The evaluation count depends on those
        // skips; the lists must not.
        let mut rng = StdRng::seed_from_u64(73);
        let words = (0..260).map(|_| {
            let len = rng.gen_range(3usize..15);
            (0..len)
                .map(|_| ['a', 'c', 'g', 't'][rng.gen_range(0usize..4)])
                .collect::<String>()
        });
        let db = StringSet::new(words);
        let standard = RbcParams::standard(db.len(), 74).with_n_reps(40);
        for list_size in [standard.list_size, 60] {
            let params = standard.clone().with_list_size(list_size);
            for parallel in [true, false] {
                let mut config = RbcConfig::default();
                config.bf.parallel = parallel;
                let rbc = OneShotRbc::build(&db, Levenshtein, params.clone(), config);
                assert!(
                    rbc.num_reps() > FIRST_WAVE_STRIDE,
                    "a second wave is capped"
                );
                let want = lists_from_knn(&db, &Levenshtein, &params, config.bf);
                assert_eq!(rbc.lists(), want, "s {list_size}, parallel {parallel}");
            }
        }
    }

    #[test]
    fn mirrors_gathered_in_parallel_equal_mirrors_gathered_in_turn() {
        let db = clustered_cloud(900, 6, 63);
        let params = RbcParams::standard(db.len(), 64).with_list_size(101);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(3);
        let pool = pool.build().expect("the shim's builder cannot fail");
        let rbc = pool.install(|| OneShotRbc::build(&db, Euclidean, params, RbcConfig::default()));
        let in_turn = gather_mirrors(
            &db,
            rbc.lists(),
            ListMirror::gather_codes,
            false,
            None,
            false,
        );
        assert_eq!(in_turn.len(), rbc.num_reps());
        assert!(in_turn.iter().all(Option::is_some));
        assert_eq!(rbc.list_blocks(), Some(&in_turn[..]));
    }

    #[test]
    fn one_shot_lists_are_coded_and_exact_lists_are_not() {
        let db = clustered_cloud(900, 6, 68);
        let params = RbcParams::standard(db.len(), 69);
        let one_shot = OneShotRbc::build(&db, Euclidean, params.clone(), RbcConfig::default());
        let mirrors = one_shot
            .list_blocks()
            .expect("Euclidean lists are mirrored");
        assert_eq!(mirrors.len(), one_shot.num_reps());
        for (mirror, list) in mirrors.iter().zip(one_shot.lists()) {
            let codes = mirror.as_ref().and_then(ListMirror::codes);
            let codes = codes.expect("every one-shot list is coded");
            // One byte per coordinate, padded to whole lane groups.
            let padded = list.len().div_ceil(rbc_metric::LANES) * rbc_metric::LANES;
            assert_eq!(codes.code_bytes(), padded * db.dim());
            assert!(codes.err().is_finite());
        }
        let exact = crate::ExactRbc::build(&db, Euclidean, params, RbcConfig::default());
        let mirrors = exact.list_blocks().expect("Euclidean lists are mirrored");
        assert!(mirrors.iter().flatten().count() > 0);
        assert!(mirrors
            .iter()
            .flatten()
            .all(|mirror| mirror.codes().is_none()));
    }

    #[test]
    fn a_nan_database_point_joins_no_list_and_changes_no_answer() {
        // Point 333 has a NaN coordinate: its distance to everything is NaN.
        // The same database with that point far away instead is the oracle.
        const POISONED_AT: usize = 333;
        let clean = clustered_cloud(600, 6, 65);
        let queries = clustered_cloud(40, 6, 66);
        let params = RbcParams::standard(clean.len(), 67);
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
        let mut inf_row = clean.point(POISONED_AT).to_vec();
        inf_row[4] = f32::INFINITY;
        let databases = [
            with_row(nan_row),
            with_row(inf_row),
            with_row(vec![1.0e6; 6]),
        ];

        fn check<M: Metric<[f32]> + Copy>(
            metric: M,
            [poisoned, infinite, far]: &[VectorSet; 3],
            queries: &VectorSet,
            params: &RbcParams,
        ) {
            let config = RbcConfig::default();
            let got = OneShotRbc::build(poisoned, metric, params.clone(), config);
            let want = OneShotRbc::build(far, metric, params.clone(), config);
            assert_eq!(got.lists(), want.lists());
            assert!(got
                .lists()
                .iter()
                .all(|l| !l.members.contains(&POISONED_AT)));
            assert_eq!(
                got.query_batch_k(queries, 3).0,
                want.query_batch_k(queries, 3).0
            );

            // Lists as long as the database hold it — last.
            let everything = params.clone().with_list_size(poisoned.len());
            let got = OneShotRbc::build(poisoned, metric, everything.clone(), config);
            for list in got.lists() {
                assert_eq!(list.members.last(), Some(&POISONED_AT));
                assert!(list.member_dists[..list.len() - 1]
                    .iter()
                    .all(|d| d.is_finite()));
            }

            // A +∞ coordinate instead: every list holds it, so no list can
            // be screened from codes (each keeps every lane) — and the
            // answers are still the far-point build's.
            let got = OneShotRbc::build(infinite, metric, everything.clone(), config);
            let want = OneShotRbc::build(far, metric, everything.clone(), config);
            for list in got.lists() {
                assert_eq!(list.members.last(), Some(&POISONED_AT));
                assert_eq!(list.member_dists.last(), Some(&Dist::INFINITY));
            }
            let coded = got.list_blocks().into_iter().flatten().flatten();
            let lanes = metric.lanes_supported();
            assert_eq!(
                coded.clone().count(),
                if lanes { got.num_reps() } else { 0 }
            );
            assert!(coded
                .map(|m| m.codes().expect("coded"))
                .all(|c| c.err() == Dist::INFINITY));
            let far_coded = want.list_blocks().into_iter().flatten().flatten();
            assert!(far_coded
                .map(|m| m.codes().expect("coded"))
                .all(|c| c.err().is_finite()));
            let (got_answers, got_stats) = got.query_batch_k(queries, 3);
            let (want_answers, want_stats) = want.query_batch_k(queries, 3);
            assert_eq!(got_answers, want_answers);
            assert_eq!(
                got_stats.list_distance_evals,
                want_stats.list_distance_evals
            );
        }
        check(Euclidean, &databases, &queries, &params);
        check(PerPoint(Euclidean), &databases, &queries, &params);
    }

    #[test]
    fn query_on_database_point_returns_itself_when_list_is_large() {
        let db = smooth_sheet(400, 6, 2);
        // Theorem 2 style parameters: generous representative count and
        // list size relative to √n, on data with low intrinsic dimension.
        let params = RbcParams::one_shot_with_guarantee(db.len(), 2.0, 0.01, 3);
        let rbc = OneShotRbc::build(&db, Euclidean, params, RbcConfig::default());
        let mut hits = 0usize;
        let mut tried = 0usize;
        for i in (0..db.len()).step_by(37) {
            tried += 1;
            let (nn, stats) = rbc.query(db.point(i));
            assert_eq!(stats.reps_examined, 1);
            assert!(stats.total_distance_evals() < db.len() as u64);
            if nn.index == i {
                assert_eq!(nn.dist, 0.0);
                hits += 1;
            }
        }
        // The structure is probabilistic; with these parameters a failure
        // on this fixed seed would indicate a real regression.
        assert_eq!(hits, tried, "a database point failed to find itself");
    }

    #[test]
    fn recall_is_high_on_low_intrinsic_dimension_data() {
        let db = smooth_sheet(1000, 8, 4);
        let queries = smooth_sheet(100, 8, 5);
        // c ≈ 2, δ = 0.05: Theorem 2 promises ≥95% per-query success.
        let params = RbcParams::one_shot_with_guarantee(db.len(), 2.0, 0.05, 6);
        let rbc = OneShotRbc::build(&db, Euclidean, params, RbcConfig::default());
        let (answers, stats) = rbc.query_batch(&queries);
        let mut correct = 0;
        for (qi, ans) in answers.iter().enumerate() {
            if ans.index == brute_force_nn(&db, queries.point(qi)).index {
                correct += 1;
            }
        }
        assert!(
            correct >= 90,
            "one-shot recall too low: {correct}/100 on smooth low-dimensional data"
        );
        assert_eq!(stats.queries, 100);
        assert!(stats.evals_per_query() < db.len() as f64 / 2.0);
    }

    #[test]
    fn returned_distance_matches_metric() {
        let db = clustered_cloud(300, 4, 7);
        let queries = clustered_cloud(20, 4, 8);
        let rbc = OneShotRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 9),
            RbcConfig::default(),
        );
        for qi in 0..queries.len() {
            let (nn, _) = rbc.query(queries.point(qi));
            assert!(
                (nn.dist - Euclidean.dist(queries.point(qi), db.point(nn.index))).abs() < 1e-12
            );
        }
    }

    #[test]
    fn query_k_returns_sorted_unique_members_of_one_list() {
        let db = clustered_cloud(500, 5, 10);
        let rbc = OneShotRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 11),
            RbcConfig::default(),
        );
        let q = db.point(17);
        let (knn, _) = rbc.query_k(q, 5);
        assert_eq!(knn.len(), 5);
        for w in knn.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        let mut idx: Vec<usize> = knn.iter().map(|n| n.index).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn k_larger_than_list_size_is_truncated_to_list() {
        let db = clustered_cloud(200, 3, 12);
        let params = RbcParams::standard(db.len(), 13).with_list_size(4);
        let rbc = OneShotRbc::build(&db, Euclidean, params, RbcConfig::default());
        let (knn, _) = rbc.query_k(db.point(0), 50);
        assert_eq!(knn.len(), 4);
    }

    #[test]
    fn batch_and_single_query_agree() {
        let db = clustered_cloud(600, 6, 14);
        let queries = clustered_cloud(30, 6, 15);
        let rbc = OneShotRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 16),
            RbcConfig::default(),
        );
        let (batch, _) = rbc.query_batch(&queries);
        for (qi, batched) in batch.iter().enumerate() {
            let (single, _) = rbc.query(queries.point(qi));
            assert_eq!(*batched, single);
        }
    }

    #[test]
    fn batched_rows_agree_with_their_rows_alone_and_share_scans() {
        let db = clustered_cloud(800, 6, 30);
        let queries = clustered_cloud(40, 6, 31);
        let rbc = OneShotRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 32),
            RbcConfig::default(),
        );
        for k in [1usize, 3, 8] {
            let (batched, stats) = rbc.query_batch_k(&queries, k);
            let mut alone = SearchStats::default();
            for (qi, got) in batched.iter().enumerate() {
                let row = VectorSet::from_rows(&[queries.point(qi)]);
                let (single, single_stats) = rbc.query_batch_k(&row, k);
                assert_eq!(got, &single[0], "k={k} query {qi}");
                alone.merge(&single_stats);
            }
            // One list per query, scanned in full: the work is the rows'.
            assert_eq!(stats.total_distance_evals(), alone.total_distance_evals());
            assert_eq!(stats.max_query_evals, alone.max_query_evals);
            assert_eq!(stats.reps_examined, alone.reps_examined);
            // 40 clustered queries choose far fewer than 40 distinct
            // representatives, so the shared scans must coalesce.
            assert!(stats.list_scans < alone.list_scans);
            assert!(stats.tile_sharing_factor() > 1.0);
        }
    }

    #[test]
    fn a_nan_query_is_answered_empty_and_its_batch_mates_unchanged() {
        let db = clustered_cloud(600, 6, 40);
        let good = clustered_cloud(30, 6, 41);
        let rbc = OneShotRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 42),
            RbcConfig::default(),
        );
        // One NaN coordinate makes every distance of the row NaN.
        let mut rows: Vec<Vec<f32>> = good.iter().map(<[f32]>::to_vec).collect();
        let mut poisoned = rows[7].clone();
        poisoned[2] = f32::NAN;
        rows.insert(7, poisoned);
        let mixed = VectorSet::from_rows(&rows);
        let nan_query = mixed.point(7);

        let (want, want_stats) = rbc.query_batch_k(&good, 3);
        let (mut got, stats) = rbc.query_batch_k(&mixed, 3);
        assert!(got.remove(7).is_empty());
        assert_eq!(got, want);
        assert_eq!(
            stats.list_distance_evals, want_stats.list_distance_evals,
            "the NaN query scans no list"
        );
        // Alone in its batch, through the single-query entry, and behind
        // the serving trait.
        let alone = VectorSet::from_rows(&[nan_query]);
        assert_eq!(rbc.query_batch_k(&alone, 3).0, vec![Vec::new()]);
        let (single, stats) = rbc.query_k(nan_query, 3);
        assert!(single.is_empty());
        assert_eq!((stats.reps_examined, stats.list_distance_evals), (0, 0));
        assert!(rbc.query(nan_query).0.is_sentinel());
        let refs: Vec<&[f32]> = mixed.iter().collect();
        let (mut served, _) = crate::SearchIndex::search_batch(&rbc, &refs, 3);
        assert!(served.remove(7).is_empty());
        assert_eq!(served, want);
    }

    #[test]
    fn a_partly_nan_row_picks_the_same_representative_on_every_path() {
        // A query with a +∞ coordinate is NaN from a representative with a
        // +∞ coordinate too (∞ − ∞) and +∞ from every finite one. With such
        // representatives at the lowest positions — one, then a whole lane
        // group and one more — its stage-1 row opens with NaNs, and every
        // `BF(q, R)` reduction must skip them for the first number.
        let clean = clustered_cloud(400, 6, 49);
        let queries = clustered_cloud(12, 6, 50);
        let params = RbcParams::standard(clean.len(), 51).with_list_size(30);
        let reps = sample_representatives(clean.len(), params.n_reps, params.seed);
        let mut with_inf = queries.point(5).to_vec();
        with_inf[0] = f32::INFINITY;
        for poisoned in [1, rbc_metric::LANES + 1] {
            let mut rows: Vec<Vec<f32>> = clean.iter().map(<[f32]>::to_vec).collect();
            for &rep in &reps[..poisoned] {
                rows[rep][0] = f32::INFINITY;
            }
            let db = VectorSet::from_rows(&rows);
            let rbc = OneShotRbc::build(&db, Euclidean, params.clone(), RbcConfig::default());
            assert_eq!(rbc.rep_indices(), reps);

            let bf = BruteForce::new();
            let rep_view = db.subset(rbc.rep_indices());
            let one = VectorSet::from_rows(&[&with_inf]);
            let (single, _) = bf.nn_single(&with_inf[..], &rep_view, &Euclidean);
            assert_eq!(single, Neighbor::new(poisoned, Dist::INFINITY));
            let (blocked, _) = bf.nn_with_blocks(&one, &rep_view, &Euclidean, rbc.rep_blocked());
            assert_eq!(blocked, vec![single], "{poisoned} poisoned");
            let (matrix, _) = bf.pairwise(&one, &rep_view, &Euclidean);
            assert!(matrix[..poisoned].iter().all(|d| d.is_nan()));
            let plan = batch_plan::BatchPlan::plan_one_shot(&matrix, rbc.num_reps());
            assert_eq!(plan.groups.len(), 1);
            assert_eq!(plan.groups[0].list_index, single.index);

            // The answer is that list's, alone and inside a batch.
            let list = &rbc.lists()[single.index].members;
            let want = bf
                .knn_single_in_list(&with_inf[..], &db, list, &Euclidean, 3)
                .0;
            assert_eq!(want.len(), 3);
            assert_eq!(rbc.query_k(&with_inf, 3).0, want, "{poisoned} poisoned");
            let mut mixed: Vec<Vec<f32>> = queries.iter().map(<[f32]>::to_vec).collect();
            mixed[5] = with_inf.clone();
            let (batched, _) = rbc.query_batch_k(&VectorSet::from_rows(&mixed), 3);
            assert_eq!(batched[5], want, "{poisoned} poisoned");
            for (qi, got) in batched.iter().enumerate() {
                assert_eq!(got, &rbc.query_k(&mixed[qi], 3).0, "query {qi}");
            }
        }
    }

    #[test]
    fn single_row_batches_take_the_batched_path_and_agree_with_query_k() {
        let db = clustered_cloud(600, 6, 43);
        let queries = clustered_cloud(12, 6, 44);
        let rbc = OneShotRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 45),
            RbcConfig::default(),
        );
        for qi in 0..queries.len() {
            let row = VectorSet::from_rows(&[queries.point(qi)]);
            let (batched, stats) = rbc.query_batch_k(&row, 4);
            let (single, single_stats) = rbc.query_k(queries.point(qi), 4);
            assert_eq!(batched, vec![single]);
            assert_eq!(stats.into_query(rbc.num_reps()), single_stats);
            assert_eq!(stats.list_scans, 1);
        }
    }

    #[test]
    fn stage_one_keeps_the_row_argmin_under_duplicated_representatives() {
        // Every point twice: representatives drawn from both copies are at
        // equal distance from every query, and the batch must send a query
        // to the one at the lower position — what `plan_one_shot` reads off
        // the full distance matrix.
        let distinct = clustered_cloud(150, 5, 46);
        let mut db = VectorSet::empty(5);
        for _ in 0..2 {
            distinct.iter().for_each(|point| db.push(point));
        }
        let queries = clustered_cloud(37, 5, 47);
        let params = RbcParams::standard(db.len(), 48).with_n_reps(120);
        let rbc = OneShotRbc::build(&db, Euclidean, params, RbcConfig::default());
        let mut drawn: Vec<usize> = rbc.rep_indices().iter().map(|r| r % 150).collect();
        drawn.sort_unstable();
        drawn.dedup();
        assert!(drawn.len() < rbc.num_reps(), "no duplicated representative");

        let bf = BruteForce::new();
        let reps = db.subset(rbc.rep_indices());
        let (nearest, stats) = bf.nn_with_blocks(&queries, &reps, &Euclidean, rbc.rep_blocked());
        assert_eq!(
            stats.distance_evals,
            (queries.len() * rbc.num_reps()) as u64
        );
        let (matrix, _) = bf.pairwise_with_blocks(&queries, &reps, &Euclidean, rbc.rep_blocked());
        let plan = batch_plan::BatchPlan::plan_one_shot(&matrix, rbc.num_reps());
        assert_eq!(
            batch_plan::group_by_nearest(nearest, rbc.num_reps()),
            plan.groups
        );
        let (_, search) = rbc.query_batch_k(&queries, 1);
        assert_eq!(search.rep_distance_evals, stats.distance_evals);
    }

    #[test]
    fn sequential_config_gives_identical_answers() {
        let db = clustered_cloud(400, 5, 17);
        let queries = clustered_cloud(25, 5, 18);
        let params = RbcParams::standard(db.len(), 19);
        let par = OneShotRbc::build(&db, Euclidean, params.clone(), RbcConfig::default());
        let seq = OneShotRbc::build(&db, Euclidean, params, RbcConfig::sequential());
        let (a, _) = par.query_batch(&queries);
        let (b, _) = seq.query_batch(&queries);
        assert_eq!(a, b);
    }

    #[test]
    fn work_is_much_smaller_than_brute_force() {
        let db = clustered_cloud(2000, 8, 20);
        let queries = clustered_cloud(50, 8, 21);
        let rbc = OneShotRbc::build(
            &db,
            Euclidean,
            RbcParams::standard(db.len(), 22),
            RbcConfig::default(),
        );
        let (_, stats) = rbc.query_batch(&queries);
        // Standard setting: ~sqrt(n) + s ≈ 2·45 evals per query vs 2000 for
        // brute force — at least a 10x work reduction with margin.
        assert!(stats.evals_per_query() < 200.0);
        assert!(stats.work_speedup_over_brute_force(db.len()) > 10.0);
    }

    #[test]
    fn accessors_expose_structure() {
        let db = clustered_cloud(300, 4, 23);
        let params = RbcParams::standard(db.len(), 24);
        let rbc = OneShotRbc::build(&db, Euclidean, params.clone(), RbcConfig::default());
        assert_eq!(rbc.params(), &params);
        assert_eq!(rbc.config(), &RbcConfig::default());
        assert_eq!(rbc.database().len(), 300);
        assert_eq!(rbc.num_reps(), rbc.rep_indices().len());
        assert_eq!(rbc.total_list_entries(), rbc.num_reps() * params.list_size);
        assert_eq!(rbc.metric().name(), "euclidean");
    }

    #[test]
    #[should_panic(expected = "empty database")]
    fn empty_database_rejected() {
        let db = VectorSet::empty(3);
        let _ = OneShotRbc::build(
            &db,
            Euclidean,
            RbcParams {
                n_reps: 1,
                list_size: 1,
                seed: 0,
            },
            RbcConfig::default(),
        );
    }
}
