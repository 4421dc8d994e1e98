//! The brute-force primitive itself: batched, tiled, parallel scans.

use std::sync::Mutex;

use rayon::prelude::*;

use rbc_metric::{BlockedVectors, Dataset, Dist, Metric, LANES};

use crate::neighbor::Neighbor;
use crate::stats::BfStats;
use crate::topk::{Collector, SelectK, TopK};

/// Fewest lane-kernel distance evaluations worth a parallel job (~200 µs).
/// Below it the caller finishes before a parked helper has woken, and then
/// sleeps until that helper is done with the one chunk it still claimed.
pub const MIN_PARALLEL_EVALS: usize = 1 << 16;

/// Row tiles a shared [`BruteForce::rows_with`] call cuts per thread: the
/// last tile a thread claims is then a quarter of its share at most.
const TILES_PER_THREAD: usize = 4;

/// Lane groups a screened dense scan screens at once: four give the screen
/// kernel four independent accumulators.
const SCREEN_GROUPS: usize = 4;

/// Tiling and parallelism knobs for the primitive.
///
/// The defaults are sensible for dense vectors of moderate dimension; the
/// benchmark harness shrinks `db_tile` to count tile passes at list
/// granularity. The layout is not a knob: a scan runs over the blocked
/// structure-of-arrays mirror through the metric's SIMD lane kernel exactly
/// when [`Metric::lanes_supported`] says it has one, and point by point
/// otherwise (wrap a metric in [`PerPoint`](rbc_metric::PerPoint) to ask
/// for the per-point path). The two are bit-identical in their answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BfConfig {
    /// Number of queries grouped into one parallel task. Groups of queries
    /// share each database tile while it is hot in cache, which is the
    /// "block decomposition" structure the paper likens to matrix–matrix
    /// multiply.
    pub query_tile: usize,
    /// Number of database items per inner tile.
    pub db_tile: usize,
    /// If `false`, run everything on the calling thread (used by the
    /// baselines for fair single-core comparisons, and by the inner scans
    /// of a search that parallelises over lists itself).
    pub parallel: bool,
}

impl Default for BfConfig {
    fn default() -> Self {
        Self {
            query_tile: 16,
            db_tile: 256,
            parallel: true,
        }
    }
}

impl BfConfig {
    /// A configuration that forces sequential execution.
    pub fn sequential() -> Self {
        Self {
            parallel: false,
            ..Self::default()
        }
    }

    /// Checks the configuration for degenerate values.
    ///
    /// A zero `query_tile` or `db_tile` would make every tiled loop spin
    /// without advancing; historically these were silently clamped to 1,
    /// which hid the misconfiguration. Callers that accept configurations
    /// from the outside ([`BruteForce::with_config`], the RBC builders and
    /// the serving layer) reject them instead.
    pub fn validate(&self) -> Result<(), String> {
        if self.query_tile == 0 {
            return Err("BfConfig::query_tile must be at least 1 (got 0)".into());
        }
        if self.db_tile == 0 {
            return Err("BfConfig::db_tile must be at least 1 (got 0)".into());
        }
        Ok(())
    }
}

/// The blocked-layout gate: a blocked mirror is only usable when the metric
/// has a lane kernel and the mirror actually covers `expected_len` points.
fn lane_gate<'b, T: ?Sized, M: Metric<T>>(
    blocks: Option<&'b BlockedVectors>,
    metric: &M,
    expected_len: usize,
) -> Option<&'b BlockedVectors> {
    blocks.filter(|b| metric.lanes_supported() && b.len() == expected_len)
}

/// The dataset's own blocked mirror, if the metric can use it. Deliberately
/// does not call [`Dataset::lane_blocks`] (which may lazily build the
/// mirror) for a metric without a lane kernel.
fn auto_blocks<'b, D, M>(db: &'b D, metric: &M) -> Option<&'b BlockedVectors>
where
    D: Dataset,
    M: Metric<D::Item>,
{
    if metric.lanes_supported() {
        lane_gate(db.lane_blocks(), metric, db.len())
    } else {
        None
    }
}

/// The brute-force primitive `BF(Q, X[L])` with a fixed configuration.
///
/// All methods return the result together with a [`BfStats`] describing the
/// work performed.
#[derive(Clone, Copy, Debug, Default)]
pub struct BruteForce {
    config: BfConfig,
}

impl BruteForce {
    /// Primitive with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Primitive with an explicit configuration.
    ///
    /// # Panics
    /// Panics if `config` fails [`BfConfig::validate`] (zero tile sizes).
    pub fn with_config(config: BfConfig) -> Self {
        if let Err(message) = config.validate() {
            panic!("invalid brute-force configuration: {message}");
        }
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> BfConfig {
        self.config
    }

    // ------------------------------------------------------------------
    // Batched queries against the full database: BF(Q, X)
    // ------------------------------------------------------------------

    /// 1-NN for every query in `queries` against every item of `db`.
    pub fn nn<Q, D, M>(&self, queries: &Q, db: &D, metric: &M) -> (Vec<Neighbor>, BfStats)
    where
        Q: Dataset,
        D: Dataset<Item = Q::Item>,
        M: Metric<Q::Item>,
    {
        self.nn_with_blocks(queries, db, metric, auto_blocks(db, metric))
    }

    /// k-NN for every query in `queries` against every item of `db`.
    ///
    /// Each per-query result is sorted by ascending distance and contains
    /// `min(k, db.len())` neighbors.
    pub fn knn<Q, D, M>(
        &self,
        queries: &Q,
        db: &D,
        metric: &M,
        k: usize,
    ) -> (Vec<Vec<Neighbor>>, BfStats)
    where
        Q: Dataset,
        D: Dataset<Item = Q::Item>,
        M: Metric<Q::Item>,
    {
        self.knn_over::<false, _, _, _, _, _, _, _>(
            queries,
            db,
            metric,
            None,
            auto_blocks(db, metric),
            heaps(k),
            sorted_answer,
        )
    }

    /// [`nn`](Self::nn) with an explicitly supplied blocked mirror of `db`
    /// (e.g. a representative set gathered out of a larger database, which
    /// has no mirror of its own).
    ///
    /// A *screened* dense scan. Once a query has a finite nearest
    /// distance, the lane groups of each database tile are screened four
    /// at a time with [`Metric::screen_lanes`] against it, and only groups
    /// with a kept lane are scored canonically and admitted. Answers (ties
    /// to the lower index, NaN last) and `distance_evals` are those of the
    /// unscreened scan, bit for bit; [`BfStats::reranked_groups`] says how
    /// many groups were scored. This is the one-shot search's stage 1 and
    /// the exact build's `BF(X, R)`.
    ///
    /// [`select_with`](Self::select_with) screens the same way;
    /// [`knn`](Self::knn) does not. `knn` is the brute-force reference the
    /// RBC speedups are measured against, so screening it would change
    /// every speedup at once.
    pub fn nn_with_blocks<Q, D, M>(
        &self,
        queries: &Q,
        db: &D,
        metric: &M,
        blocks: Option<&BlockedVectors>,
    ) -> (Vec<Neighbor>, BfStats)
    where
        Q: Dataset,
        D: Dataset<Item = Q::Item>,
        M: Metric<Q::Item>,
    {
        // Finished per query inside the scan: a build's `BF(X, R)` asks this
        // for every database point, and one heap-allocated answer per point
        // is memory the scanning threads' allocators keep long after.
        self.knn_over::<true, _, _, _, _, _, _, _>(
            queries,
            db,
            metric,
            None,
            blocks,
            heaps(1),
            |_, best: TopK| best.into_sorted().pop().unwrap_or_else(Neighbor::farthest),
        )
    }

    /// `BF(Q, X)` for an index build: each query's `k` nearest items of
    /// `db`, for `k` in the hundreds or thousands, **consumed where they
    /// were selected** — `finish(qi, nearest)` runs on the thread that
    /// scanned for query `qi` and sees its `min(k, db.len())` nearest,
    /// ascending by `(dist, index)`; only its results (in query order)
    /// leave the call, so no `queries × k` table of neighbors exists.
    ///
    /// `nearest` is exactly what [`knn`](Self::knn) returns for that query,
    /// and `distance_evals` is `knn`'s too, but the scan is
    /// [`nn_with_blocks`](Self::nn_with_blocks)'s: once a query's threshold
    /// is finite, lane groups are screened four at a time against it and
    /// only groups with a kept lane are scored. The comparison step differs
    /// from `knn`'s as well: a bound and one `select_nth_unstable` each time
    /// a `2k` buffer fills, not a `k`-deep heap sifted on every admission.
    /// Either way a NaN distance is kept only when fewer than `k` numbers
    /// were seen, and sorts last.
    ///
    /// The threshold is the selection's running `k`-th distance, which stays
    /// loose until much of `db` has been seen. A caller that knows better
    /// passes `caps`, one per query: a distance **at or above** that query's
    /// true `k`-th nearest distance in `db` (a NaN cap, like `+∞`, caps
    /// nothing). The threshold is then never above the cap, from the first
    /// lane group on. A cap below the true `k`-th distance is a caller bug:
    /// the answer may then be short of `min(k, db.len())` neighbors, or
    /// differ from `knn`'s.
    ///
    /// # Panics
    /// Panics if `k == 0`, or if `caps` is not one cap per query.
    pub fn select_with<Q, D, M, R, F>(
        &self,
        queries: &Q,
        db: &D,
        metric: &M,
        k: usize,
        caps: Option<&[Dist]>,
        finish: F,
    ) -> (Vec<R>, BfStats)
    where
        Q: Dataset,
        D: Dataset<Item = Q::Item>,
        M: Metric<Q::Item>,
        R: Send,
        F: Fn(usize, &[Neighbor]) -> R + Sync,
    {
        assert!(k > 0, "k must be at least 1");
        assert!(
            caps.is_none_or(|caps| caps.len() == queries.len()),
            "select_with takes one cap per query"
        );
        // The buffer is sized by `k`; more than the database cannot come back.
        let k = k.min(db.len().max(1));
        let blocks = auto_blocks(db, metric);
        let cap = |qi: usize| caps.map_or(Dist::INFINITY, |caps| caps[qi]);
        self.knn_over::<true, _, _, _, _, _, _, _>(
            queries,
            db,
            metric,
            None,
            blocks,
            |qi| SelectK::new(k, cap(qi)),
            |qi, best: SelectK| finish(qi, &best.into_sorted()),
        )
    }

    /// k-NN for every query against the sub-database `X[L]` given by
    /// `list`. Returned neighbor indices refer to the *original* database.
    pub fn knn_in_list<Q, D, M>(
        &self,
        queries: &Q,
        db: &D,
        list: &[usize],
        metric: &M,
        k: usize,
    ) -> (Vec<Vec<Neighbor>>, BfStats)
    where
        Q: Dataset,
        D: Dataset<Item = Q::Item>,
        M: Metric<Q::Item>,
    {
        let list = Some(list);
        self.knn_over::<false, _, _, _, _, _, _, _>(
            queries,
            db,
            metric,
            list,
            None,
            heaps(k),
            sorted_answer,
        )
    }

    /// All items of `db` within distance `radius` of each query, sorted by
    /// ascending distance (ε-range search).
    pub fn range<Q, D, M>(
        &self,
        queries: &Q,
        db: &D,
        metric: &M,
        radius: Dist,
    ) -> (Vec<Vec<Neighbor>>, BfStats)
    where
        Q: Dataset,
        D: Dataset<Item = Q::Item>,
        M: Metric<Q::Item>,
    {
        let nq = queries.len();
        let n = db.len();
        let work = |qi: usize| -> (Vec<Neighbor>, u64) {
            let q = queries.get(qi);
            let mut hits = Vec::new();
            for j in 0..n {
                let d = metric.dist(q, db.get(j));
                if d <= radius {
                    hits.push(Neighbor::new(j, d));
                }
            }
            hits.sort();
            (hits, n as u64)
        };

        let per_query: Vec<(Vec<Neighbor>, u64)> = if self.config.parallel {
            (0..nq).into_par_iter().map(work).collect()
        } else {
            (0..nq).map(work).collect()
        };

        let mut stats = BfStats::new();
        let mut out = Vec::with_capacity(nq);
        for (hits, evals) in per_query {
            stats.distance_evals += evals;
            stats.queries += 1;
            out.push(hits);
        }
        (out, stats)
    }

    /// Dense pairwise distance matrix (row-major, `queries.len() × db.len()`).
    ///
    /// This is the "distance computation step" of the primitive in
    /// isolation: [`rows_with`](Self::rows_with) keeping every row.
    pub fn pairwise<Q, D, M>(&self, queries: &Q, db: &D, metric: &M) -> (Vec<Dist>, BfStats)
    where
        Q: Dataset,
        D: Dataset<Item = Q::Item>,
        M: Metric<Q::Item>,
    {
        self.pairwise_with_blocks(queries, db, metric, auto_blocks(db, metric))
    }

    /// [`pairwise`](Self::pairwise) with an explicitly supplied blocked
    /// mirror of `db` — what a caller that needs the whole stage-1 matrix
    /// at once asks for (the distributed coordinator re-reads it when it
    /// builds node rows). Every matrix entry is bit-identical to the
    /// per-point path.
    pub fn pairwise_with_blocks<Q, D, M>(
        &self,
        queries: &Q,
        db: &D,
        metric: &M,
        blocks: Option<&BlockedVectors>,
    ) -> (Vec<Dist>, BfStats)
    where
        Q: Dataset,
        D: Dataset<Item = Q::Item>,
        M: Metric<Q::Item>,
    {
        let (nq, n) = (queries.len(), db.len());
        let mut matrix = vec![0.0 as Dist; nq * n];
        if matrix.is_empty() {
            return (matrix, BfStats::full_scan(nq as u64, n as u64));
        }
        // One slot per row, each locked once, by the thread that scored it.
        let slots: Vec<Mutex<&mut [Dist]>> = matrix.chunks_mut(n).map(Mutex::new).collect();
        let (_, stats) = self.rows_with(queries, db, metric, blocks, |qi, row| {
            slots[qi]
                .lock()
                .expect("a matrix row is written once")
                .copy_from_slice(row);
        });
        drop(slots);
        (matrix, stats)
    }

    /// `BF(Q, X)` with every distance retained — one row of `db.len()`
    /// distances per query, in database order, each bit-identical to
    /// [`Metric::dist`] on that pair — and **consumed where it was
    /// produced**: `finish(qi, row)` runs on the thread that scored row
    /// `qi`, while the row is still in cache, and only its results (in
    /// query order) leave the call. The exact RBC search passes its
    /// pruning rules, so no `queries × db` matrix ever exists.
    ///
    /// The paper's §3 block decomposition: a tile of at most `query_tile`
    /// queries meets the blocked table one lane group at a time, the group
    /// scored for every query of the tile while it sits in L1. Tiles go to
    /// the rayon pool when the configuration is parallel and the call is
    /// worth a helper's wake-up — evaluations plus the entries `finish`
    /// reads reach [`MIN_PARALLEL_EVALS`] — and are then cut so every thread
    /// has several to claim. Without a lane kernel rows are scored point by
    /// point and always shared: an evaluation costs whatever the metric
    /// costs.
    pub fn rows_with<Q, D, M, R, F>(
        &self,
        queries: &Q,
        db: &D,
        metric: &M,
        blocks: Option<&BlockedVectors>,
        finish: F,
    ) -> (Vec<R>, BfStats)
    where
        Q: Dataset,
        D: Dataset<Item = Q::Item>,
        M: Metric<Q::Item>,
        R: Send,
        F: Fn(usize, &[Dist]) -> R + Sync,
    {
        let (nq, n) = (queries.len(), db.len());
        let blocks = lane_gate(blocks, metric, n);
        let stats = BfStats {
            reranked_groups: blocks.map_or(0, |b| (nq * b.num_groups()) as u64),
            ..BfStats::full_scan(nq as u64, n as u64)
        };
        let shared = self.config.parallel && (blocks.is_none() || 2 * nq * n >= MIN_PARALLEL_EVALS);
        let tile = if shared {
            let claims = TILES_PER_THREAD * rayon::current_num_threads();
            self.config.query_tile.min(nq.div_ceil(claims)).max(1)
        } else {
            self.config.query_tile.max(1)
        };

        let score_tile = |q_start: usize| -> Vec<R> {
            let tile_queries = q_start..(q_start + tile).min(nq);
            let mut rows = vec![0.0 as Dist; tile_queries.len() * n];
            match blocks {
                Some(b) => {
                    let mut lane_dists = [0.0 as Dist; LANES];
                    for g in 0..b.num_groups() {
                        let (group, valid) = (b.group(g), b.valid_lanes(g));
                        for (row, qi) in tile_queries.clone().enumerate() {
                            let computed =
                                metric.dist_lanes(queries.get(qi), group, &mut lane_dists);
                            debug_assert!(computed, "lanes_supported() metric must compute lanes");
                            rows[row * n + g * LANES..][..valid]
                                .copy_from_slice(&lane_dists[..valid]);
                        }
                    }
                }
                None => {
                    for (row, qi) in tile_queries.clone().enumerate() {
                        let q = queries.get(qi);
                        for (j, d) in rows[row * n..][..n].iter_mut().enumerate() {
                            *d = metric.dist(q, db.get(j));
                        }
                    }
                }
            }
            tile_queries
                .enumerate()
                .map(|(row, qi)| finish(qi, &rows[row * n..][..n]))
                .collect()
        };

        let tile_starts: Vec<usize> = (0..nq).step_by(tile).collect();
        let per_tile: Vec<Vec<R>> = if shared {
            tile_starts.into_par_iter().map(score_tile).collect()
        } else {
            tile_starts.into_iter().map(score_tile).collect()
        };
        (per_tile.into_iter().flatten().collect(), stats)
    }

    // ------------------------------------------------------------------
    // Single-query (streaming) paths: BF(q, X) parallelised over the DB
    // ------------------------------------------------------------------

    /// 1-NN of a single query, with the database split across workers
    /// (matrix–vector structure + parallel reduce, §3).
    pub fn nn_single<D, M>(&self, query: &D::Item, db: &D, metric: &M) -> (Neighbor, BfStats)
    where
        D: Dataset,
        M: Metric<D::Item>,
    {
        let n = db.len();
        let stats = BfStats::full_scan(1, n as u64);
        if n == 0 {
            return (Neighbor::farthest(), stats);
        }
        let chunk = self.config.db_tile.max(1);
        let best = if self.config.parallel {
            (0..n)
                .into_par_iter()
                .with_min_len(chunk)
                .map(|j| Neighbor::new(j, metric.dist(query, db.get(j))))
                .reduce(Neighbor::farthest, Neighbor::closer)
        } else {
            (0..n)
                .map(|j| Neighbor::new(j, metric.dist(query, db.get(j))))
                .fold(Neighbor::farthest(), Neighbor::closer)
        };
        (best, stats)
    }

    /// k-NN of a single query against the sub-database `X[L]`, returning
    /// original database indices. Pass `0..db.len()` semantics by using
    /// [`knn_single`](Self::knn_single) instead.
    pub fn knn_single_in_list<D, M>(
        &self,
        query: &D::Item,
        db: &D,
        list: &[usize],
        metric: &M,
        k: usize,
    ) -> (Vec<Neighbor>, BfStats)
    where
        D: Dataset,
        M: Metric<D::Item>,
    {
        let stats = BfStats::full_scan(1, list.len() as u64);
        let chunk = self.config.db_tile.max(1);
        let collect_chunk = |idx_chunk: &[usize]| -> TopK {
            let mut topk = TopK::new(k);
            for &j in idx_chunk {
                topk.push(Neighbor::new(j, metric.dist(query, db.get(j))));
            }
            topk
        };
        let merged = if self.config.parallel && list.len() > chunk {
            list.par_chunks(chunk)
                .map(collect_chunk)
                .reduce_with(|mut a, b| {
                    a.merge(&b);
                    a
                })
                .unwrap_or_else(|| TopK::new(k))
        } else {
            collect_chunk(list)
        };
        (merged.into_sorted(), stats)
    }

    /// k-NN of a single query against the whole database.
    pub fn knn_single<D, M>(
        &self,
        query: &D::Item,
        db: &D,
        metric: &M,
        k: usize,
    ) -> (Vec<Neighbor>, BfStats)
    where
        D: Dataset,
        M: Metric<D::Item>,
    {
        let all: Vec<usize> = (0..db.len()).collect();
        self.knn_single_in_list(query, db, &all, metric, k)
    }

    /// All distances from one query to every item of `db`, in database
    /// order. The exact search algorithm calls this on the representative
    /// set because it must retain the distances for its pruning rules.
    pub fn distances_single<D, M>(
        &self,
        query: &D::Item,
        db: &D,
        metric: &M,
    ) -> (Vec<Dist>, BfStats)
    where
        D: Dataset,
        M: Metric<D::Item>,
    {
        let n = db.len();
        let stats = BfStats::full_scan(1, n as u64);
        let chunk = self.config.db_tile.max(1);
        let dists: Vec<Dist> = if self.config.parallel && n > chunk {
            (0..n)
                .into_par_iter()
                .with_min_len(chunk)
                .map(|j| metric.dist(query, db.get(j)))
                .collect()
        } else {
            (0..n).map(|j| metric.dist(query, db.get(j))).collect()
        };
        (dists, stats)
    }

    // ------------------------------------------------------------------
    // Core tiled implementation
    // ------------------------------------------------------------------

    /// The one dense scan, generic over what it fills: [`TopK`] for answers,
    /// [`SelectK`] for builds. `start(qi)` is query `qi`'s empty collector,
    /// and `finish(qi, collector)` turns it, filled, into its result, on the
    /// thread that scanned it.
    ///
    /// `SCREEN` runs [`Metric::screen_lanes`] over the blocked arm, so only
    /// lane groups with a lane the screen keeps are scored. It changes what
    /// is skipped, never a distance, an answer or an evaluation count; a
    /// canonical scan compiles to the one-group-at-a-time loop alone.
    /// [`nn_with_blocks`](Self::nn_with_blocks) and
    /// [`select_with`](Self::select_with) pass `true`; `knn` is the
    /// brute-force reference every speedup is measured against. The
    /// parameter goes when it screens too (ROADMAP item 3, "Screen the
    /// comparator").
    #[allow(clippy::too_many_arguments)] // deliberately a flat kernel signature
    fn knn_over<const SCREEN: bool, Q, D, M, C, S, R, F>(
        &self,
        queries: &Q,
        db: &D,
        metric: &M,
        list: Option<&[usize]>,
        blocks: Option<&BlockedVectors>,
        start: S,
        finish: F,
    ) -> (Vec<R>, BfStats)
    where
        Q: Dataset,
        D: Dataset<Item = Q::Item>,
        M: Metric<Q::Item>,
        C: Collector,
        S: Fn(usize) -> C + Sync,
        R: Send,
        F: Fn(usize, C) -> R + Sync,
    {
        let nq = queries.len();
        let n_candidates = list.map_or(db.len(), <[usize]>::len);
        if nq == 0 {
            return (Vec::new(), BfStats::new());
        }
        // The blocked mirror indexes the database directly, so it only
        // applies to full-database scans, not index-list sub-scans.
        let blocks = if list.is_none() {
            lane_gate(blocks, metric, n_candidates)
        } else {
            None
        };

        let query_tile = self.config.query_tile.max(1);
        let db_tile = self.config.db_tile.max(1);

        // One parallel task per tile of queries. Within a task, iterate the
        // database tile by tile and keep every query's collector warm,
        // so each database tile is read once per query tile (the blocked
        // matrix-multiply access pattern from §3).
        let process_tile = |q_start: usize| -> (Vec<R>, BfStats) {
            let q_end = (q_start + query_tile).min(nq);
            let mut collectors: Vec<C> = (q_start..q_end).map(&start).collect();
            let mut evals = 0u64;
            let mut skips = 0u64;
            let mut reranked = 0u64;

            let mut tile_start = 0usize;
            while tile_start < n_candidates {
                let tile_end = (tile_start + db_tile).min(n_candidates);
                for (ci, qi) in (q_start..q_end).enumerate() {
                    let q = queries.get(qi);
                    let collector = &mut collectors[ci];
                    let mut pos = tile_start;
                    while pos < tile_end {
                        // Blocked fast path over the lane-aligned whole
                        // groups of the tile. A screened scan whose
                        // threshold is finite first clears the lanes
                        // certainly above it, up to `SCREEN_GROUPS` groups
                        // at once, and scores only the groups with a kept
                        // lane; a cleared lane could not be admitted now,
                        // nor later, as the threshold only falls. Otherwise
                        // (a canonical scan, or `+∞`, which clears nothing)
                        // the group is scored outright. Every lane counts
                        // as an evaluation. The partial tail group falls
                        // through to the per-point arm.
                        if let Some(b) = blocks {
                            if pos.is_multiple_of(LANES) && pos + LANES <= tile_end {
                                let first = pos / LANES;
                                let bound = collector.threshold();
                                if SCREEN && bound.is_finite() {
                                    let last =
                                        first + ((tile_end - pos) / LANES).min(SCREEN_GROUPS);
                                    let mut keep = [0u8; SCREEN_GROUPS];
                                    metric.screen_lanes(
                                        &[q],
                                        b.block(first..last),
                                        &[bound],
                                        &mut keep,
                                    );
                                    for (g, keep) in (first..last).zip(keep) {
                                        if keep != 0 {
                                            reranked += 1;
                                            admit_group(metric, q, b, g, collector);
                                        }
                                    }
                                    evals += ((last - first) * LANES) as u64;
                                    pos = last * LANES;
                                } else {
                                    reranked += 1;
                                    admit_group(metric, q, b, first, collector);
                                    evals += LANES as u64;
                                    pos += LANES;
                                }
                                continue;
                            }
                        }
                        let (db_idx, item) = match list {
                            Some(l) => (l[pos], db.get(l[pos])),
                            None => (pos, db.get(pos)),
                        };
                        let threshold = collector.threshold();
                        if threshold.is_finite() && metric.dist_lower_bound(q, item) > threshold {
                            skips += 1;
                            pos += 1;
                            continue;
                        }
                        evals += 1;
                        collector.offer(Neighbor::new(db_idx, metric.dist(q, item)));
                        pos += 1;
                    }
                }
                tile_start = tile_end;
            }

            let results: Vec<R> = (q_start..q_end)
                .zip(collectors)
                .map(|(qi, collector)| finish(qi, collector))
                .collect();
            let stats = BfStats {
                distance_evals: evals,
                lower_bound_skips: skips,
                queries: (q_end - q_start) as u64,
                reranked_groups: reranked,
            };
            (results, stats)
        };

        let tile_starts: Vec<usize> = (0..nq).step_by(query_tile).collect();
        let per_tile: Vec<(Vec<R>, BfStats)> = if self.config.parallel {
            tile_starts.into_par_iter().map(process_tile).collect()
        } else {
            tile_starts.into_iter().map(process_tile).collect()
        };

        let mut out = Vec::with_capacity(nq);
        let mut stats = BfStats::new();
        for (tile_results, tile_stats) in per_tile {
            out.extend(tile_results);
            stats.merge_from(tile_stats);
        }
        (out, stats)
    }
}

/// Scores lane group `g` of `blocks` for `q` with the lane kernel and, if
/// its nearest lane is within `collector`'s threshold, offers every lane:
/// the whole-group admission of the blocked arm of `knn_over`.
#[inline]
fn admit_group<T: ?Sized, M: Metric<T>, C: Collector>(
    metric: &M,
    q: &T,
    blocks: &BlockedVectors,
    g: usize,
    collector: &mut C,
) {
    let mut lane_dists = [0.0 as Dist; LANES];
    let computed = metric.dist_lanes(q, blocks.group(g), &mut lane_dists);
    debug_assert!(computed, "lanes_supported() metric must compute lanes");
    let group_min = lane_dists.iter().copied().fold(Dist::INFINITY, Dist::min);
    if group_min <= collector.threshold() {
        for (lane, &d) in lane_dists.iter().enumerate() {
            collector.offer(Neighbor::new(g * LANES + lane, d));
        }
    }
}

/// Every query's empty `k`-heap (a `knn_over` `start`).
///
/// # Panics
/// Panics if `k == 0`, whether or not there are queries.
fn heaps(k: usize) -> impl Fn(usize) -> TopK + Sync {
    assert!(k > 0, "k must be at least 1");
    move |_| TopK::new(k)
}

/// A query's answer from its filled heap (a `knn_over` `finish`).
fn sorted_answer(_query: usize, best: TopK) -> Vec<Neighbor> {
    best.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbc_metric::{Euclidean, Manhattan, PerPoint, QueryBatch, VectorSet};

    /// A deterministic pseudo-random cloud (no dependency on `rand` needed
    /// for unit tests).
    fn cloud(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(dim);
            for _ in 0..dim {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                row.push(((state >> 33) as f32 / u32::MAX as f32) * 20.0 - 10.0);
            }
            rows.push(row);
        }
        VectorSet::from_rows(&rows)
    }

    /// Reference: naive sequential k-NN.
    fn naive_knn(
        queries: &VectorSet,
        db: &VectorSet,
        k: usize,
        list: Option<&[usize]>,
    ) -> Vec<Vec<Neighbor>> {
        let mut out = Vec::new();
        for qi in 0..queries.len() {
            let q = queries.point(qi);
            let mut all: Vec<Neighbor> = match list {
                Some(l) => l
                    .iter()
                    .map(|&j| Neighbor::new(j, Euclidean.dist(q, db.point(j))))
                    .collect(),
                None => (0..db.len())
                    .map(|j| Neighbor::new(j, Euclidean.dist(q, db.point(j))))
                    .collect(),
            };
            all.sort();
            all.truncate(k);
            out.push(all);
        }
        out
    }

    #[test]
    fn nn_finds_the_true_nearest_neighbor() {
        let db = cloud(300, 8, 1);
        let queries = cloud(40, 8, 2);
        let bf = BruteForce::new();
        let (nn, stats) = bf.nn(&queries, &db, &Euclidean);
        let expect = naive_knn(&queries, &db, 1, None);
        for (got, want) in nn.iter().zip(expect.iter()) {
            assert_eq!(got.index, want[0].index);
            assert!((got.dist - want[0].dist).abs() < 1e-12);
        }
        assert_eq!(stats.queries, 40);
        assert_eq!(stats.distance_evals, 40 * 300);
    }

    #[test]
    fn knn_matches_naive_reference_across_tile_sizes() {
        let db = cloud(200, 5, 3);
        let queries = cloud(17, 5, 4);
        for (qt, dt) in [(1, 1), (4, 16), (16, 256), (100, 7)] {
            let bf = BruteForce::with_config(BfConfig {
                query_tile: qt,
                db_tile: dt,
                ..BfConfig::default()
            });
            let (knn, _) = bf.knn(&queries, &db, &Euclidean, 5);
            let expect = naive_knn(&queries, &db, 5, None);
            assert_eq!(knn.len(), expect.len());
            for (got, want) in knn.iter().zip(expect.iter()) {
                let gi: Vec<usize> = got.iter().map(|n| n.index).collect();
                let wi: Vec<usize> = want.iter().map(|n| n.index).collect();
                assert_eq!(gi, wi, "tile config ({qt},{dt})");
            }
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let db = cloud(150, 6, 5);
        let queries = cloud(9, 6, 6);
        let par = BruteForce::new();
        let seq = BruteForce::with_config(BfConfig::sequential());
        let (a, sa) = par.knn(&queries, &db, &Euclidean, 3);
        let (b, sb) = seq.knn(&queries, &db, &Euclidean, 3);
        assert_eq!(a, b);
        assert_eq!(sa.distance_evals, sb.distance_evals);
    }

    #[test]
    fn knn_in_list_returns_original_indices() {
        let db = cloud(100, 4, 7);
        let queries = cloud(5, 4, 8);
        let list: Vec<usize> = (0..100).filter(|i| i % 3 == 0).collect();
        let bf = BruteForce::new();
        let (knn, stats) = bf.knn_in_list(&queries, &db, &list, &Euclidean, 4);
        let expect = naive_knn(&queries, &db, 4, Some(&list));
        assert_eq!(knn, expect);
        for per_q in &knn {
            for n in per_q {
                assert!(list.contains(&n.index));
            }
        }
        assert_eq!(stats.distance_evals, 5 * list.len() as u64);
    }

    #[test]
    fn k_larger_than_database_returns_everything() {
        let db = cloud(7, 3, 11);
        let queries = cloud(3, 3, 12);
        let bf = BruteForce::new();
        let (knn, _) = bf.knn(&queries, &db, &Euclidean, 50);
        for per_q in knn {
            assert_eq!(per_q.len(), 7);
        }
    }

    #[test]
    fn single_query_paths_agree_with_batched() {
        let db = cloud(400, 10, 13);
        let queries = cloud(6, 10, 14);
        let bf = BruteForce::new();
        let (batched, _) = bf.knn(&queries, &db, &Euclidean, 5);
        for (qi, batch) in batched.iter().enumerate() {
            let (nn_s, stats) = bf.nn_single(queries.point(qi), &db, &Euclidean);
            assert_eq!(nn_s.index, batch[0].index);
            assert_eq!(stats.distance_evals, 400);

            let (knn_s, _) = bf.knn_single(queries.point(qi), &db, &Euclidean, 5);
            assert_eq!(&knn_s, batch);
        }
    }

    #[test]
    fn nn_single_on_empty_database_returns_sentinel() {
        let db = VectorSet::empty(3);
        let bf = BruteForce::new();
        let (nn, stats) = bf.nn_single(&[0.0, 0.0, 0.0][..], &db, &Euclidean);
        assert!(nn.is_sentinel());
        assert_eq!(stats.distance_evals, 0);
    }

    #[test]
    fn distances_single_matches_direct_metric_calls() {
        let db = cloud(123, 4, 15);
        let q = cloud(1, 4, 16);
        let bf = BruteForce::new();
        let (dists, stats) = bf.distances_single(q.point(0), &db, &Euclidean);
        assert_eq!(dists.len(), 123);
        assert_eq!(stats.distance_evals, 123);
        for (j, &d) in dists.iter().enumerate() {
            assert_eq!(d, Euclidean.dist(q.point(0), db.point(j)));
        }
    }

    #[test]
    fn range_returns_exactly_the_points_within_radius() {
        let db = cloud(250, 3, 17);
        let queries = cloud(8, 3, 18);
        let bf = BruteForce::new();
        let radius = 6.0;
        let (hits, stats) = bf.range(&queries, &db, &Euclidean, radius);
        assert_eq!(stats.distance_evals, 8 * 250);
        for (qi, query_hits) in hits.iter().enumerate() {
            let q = queries.point(qi);
            let expected: Vec<usize> = (0..db.len())
                .filter(|&j| Euclidean.dist(q, db.point(j)) <= radius)
                .collect();
            let mut got: Vec<usize> = query_hits.iter().map(|n| n.index).collect();
            got.sort_unstable();
            assert_eq!(got, expected);
            // and results are sorted by distance
            for w in query_hits.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
        }
    }

    #[test]
    fn pairwise_matrix_has_row_major_layout() {
        let db = cloud(20, 3, 19);
        let queries = cloud(4, 3, 20);
        let bf = BruteForce::new();
        let (m, stats) = bf.pairwise(&queries, &db, &Euclidean);
        assert_eq!(m.len(), 4 * 20);
        assert_eq!(stats.distance_evals, 80);
        for qi in 0..4 {
            for j in 0..20 {
                assert_eq!(
                    m[qi * 20 + j],
                    Euclidean.dist(queries.point(qi), db.point(j))
                );
            }
        }
    }

    /// Every row `rows_with` hands out, in query order, must be
    /// `metric.dist` per point, bit for bit.
    fn assert_rows_are_per_point_distances<M: Metric<[f32]>>(
        bf: &BruteForce,
        queries: &VectorSet,
        db: &VectorSet,
        metric: &M,
    ) {
        let (rows, stats) = bf.rows_with(queries, db, metric, db.lane_blocks(), |qi, row| {
            (qi, row.to_vec())
        });
        let full = BfStats::full_scan(queries.len() as u64, db.len() as u64);
        assert_eq!(
            (stats.distance_evals, stats.queries),
            (full.distance_evals, full.queries)
        );
        assert_eq!(rows.len(), queries.len());
        for (at, (qi, row)) in rows.iter().enumerate() {
            assert_eq!(*qi, at, "results come back in query order");
            let want: Vec<Dist> = (0..db.len())
                .map(|j| metric.dist(queries.point(at), db.point(j)))
                .collect();
            let same = row.len() == want.len()
                && row
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                same,
                "row {at} differs: dim {}, n {}, {:?}",
                db.dim(),
                db.len(),
                bf.config()
            );
        }
    }

    #[test]
    fn rows_are_bit_identical_to_per_point_distances() {
        // 21 queries: neither a multiple of the default tile (16) nor of
        // the odd one (5); database sizes on both sides of a lane group
        // and of a `db_tile`.
        let tiles = [BfConfig::default().query_tile, 5];
        for dim in 1..=65 {
            let queries = cloud(21, dim, 100 + dim as u64);
            for n in [1, 7, 8, 9, 255, 256, 257] {
                let db = cloud(n, dim, 200 + (dim * n) as u64);
                let bf = |query_tile| {
                    BruteForce::with_config(BfConfig {
                        query_tile,
                        ..BfConfig::default()
                    })
                };
                let (blocked, per_point) = (bf(tiles[dim % 2]), bf(tiles[0]));
                assert_rows_are_per_point_distances(&blocked, &queries, &db, &Euclidean);
                // No lane kernel: the point-by-point arm, always shared.
                assert_rows_are_per_point_distances(
                    &per_point,
                    &queries,
                    &db,
                    &PerPoint(Euclidean),
                );
                for bf in [&blocked, &per_point] {
                    assert_rows_are_per_point_distances(bf, &queries, &db, &Manhattan);
                }
            }
        }
    }

    #[test]
    fn shared_rows_do_not_depend_on_the_schedule() {
        // 150 × 257 evaluations, each read once by the consumer: enough for
        // the lane path to publish its tiles (8 rows under five threads,
        // 16 under two; 150 is a multiple of neither).
        let db = cloud(257, 16, 50);
        let queries = cloud(150, 16, 51);
        assert!(2 * queries.len() * db.len() >= MIN_PARALLEL_EVALS);
        for threads in [1, 2, 5] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads);
            let pool = pool.build().expect("the shim's builder cannot fail");
            pool.install(|| {
                let bf = BruteForce::new();
                assert_rows_are_per_point_distances(&bf, &queries, &db, &Euclidean);
                assert_rows_are_per_point_distances(&bf, &queries, &db, &PerPoint(Euclidean));
                assert_rows_are_per_point_distances(&bf, &queries, &db, &Manhattan);
                let (matrix, _) = bf.pairwise(&queries, &db, &Euclidean);
                let (rows, _) =
                    bf.rows_with(&queries, &db, &Euclidean, None, |_, row| row.to_vec());
                assert_eq!(matrix, rows.concat(), "pairwise is the kernel, copied");
                let (matrix, _) = bf.pairwise(&queries, &db, &PerPoint(Euclidean));
                assert_eq!(matrix, rows.concat(), "the per-point matrix is the lanes'");
            });
        }
    }

    #[test]
    fn rows_over_an_empty_side_are_empty() {
        let bf = BruteForce::new();
        let some = cloud(3, 2, 52);
        let none = VectorSet::empty(2);
        let lens = |_: usize, row: &[Dist]| row.len();
        assert_eq!(bf.rows_with(&some, &none, &Euclidean, None, lens).0, [0; 3]);
        assert!(bf
            .rows_with(&none, &some, &Euclidean, None, lens)
            .0
            .is_empty());
        assert!(bf.pairwise(&some, &none, &Euclidean).0.is_empty());
        assert!(bf.pairwise(&none, &some, &Euclidean).0.is_empty());
    }

    #[test]
    fn nn_over_duplicated_points_is_the_row_argmin() {
        // Every point three times over: each query's nearest distance is
        // attained by three indices, in different lane groups, and the
        // dense k = 1 kernel must settle on the lowest — `Neighbor::closer`
        // folded over the query's row.
        let distinct = cloud(37, 6, 53);
        let mut db = VectorSet::empty(6);
        for _ in 0..3 {
            distinct.iter().for_each(|point| db.push(point));
        }
        let queries = cloud(21, 6, 54);
        fn check<M: Metric<[f32]>>(
            queries: &VectorSet,
            db: &VectorSet,
            metric: &M,
            distinct: usize,
        ) {
            let bf = BruteForce::new();
            let (nearest, _) = bf.nn(queries, db, metric);
            let (argmin, _) = bf.rows_with(queries, db, metric, db.lane_blocks(), |_, row| {
                let entries = row.iter().enumerate();
                entries
                    .map(|(j, &d)| Neighbor::new(j, d))
                    .fold(Neighbor::farthest(), Neighbor::closer)
            });
            assert_eq!(nearest, argmin);
            assert!(nearest.iter().all(|nb| nb.index < distinct));
        }
        check(&queries, &db, &Euclidean, distinct.len());
        check(&queries, &db, &PerPoint(Euclidean), distinct.len());
    }

    #[test]
    fn the_screened_nn_scores_only_the_groups_a_near_hit_leaves_open() {
        // The query sits on point 0; every other point is ~2 000 away. The
        // first group meets a threshold of +∞ and is scored unscreened;
        // once point 0 is in, the screen clears all fifteen others under
        // every kernel — and they still count as evaluations.
        let dim = 4;
        let mut db = VectorSet::empty(dim);
        db.push(&[0.0; 4]);
        for point in cloud(16 * LANES - 1, dim, 57).iter() {
            db.push(&point.iter().map(|x| x + 1000.0).collect::<Vec<_>>());
        }
        let queries = VectorSet::from_rows(&[vec![0.0; 4]]);
        let bf = BruteForce::with_config(BfConfig::sequential());
        let (nearest, stats) = bf.nn(&queries, &db, &Euclidean);
        assert_eq!(nearest, [Neighbor::new(0, 0.0)]);
        assert_eq!(stats.distance_evals, db.len() as u64);
        assert_eq!(stats.reranked_groups, 1);
        let (_, canonical) = bf.knn(&queries, &db, &Euclidean, 1);
        assert_eq!(canonical.reranked_groups, 16, "knn scores every group");
    }

    #[test]
    fn select_with_hands_each_query_what_knn_returns() {
        // Every point three times over (ties at every distance), sizes on
        // both sides of a lane group and a `db_tile`, `k` from one to past
        // the database; uncapped, and capped at each query's `k`-th
        // distance, the tightest cap there is.
        let distinct = cloud(91, 6, 55);
        let mut db = VectorSet::empty(6);
        for _ in 0..3 {
            distinct.iter().for_each(|point| db.push(point));
        }
        let queries = cloud(21, 6, 56);
        fn check<M: Metric<[f32]>>(
            bf: &BruteForce,
            queries: &VectorSet,
            db: &VectorSet,
            metric: &M,
        ) {
            for k in [1, 2, 40, db.len() - 1, db.len(), db.len() + 5] {
                let (want, want_stats) = bf.knn(queries, db, metric, k);
                let kth: Vec<Dist> = want.iter().map(|near| near[near.len() - 1].dist).collect();
                for caps in [None, Some(&kth[..])] {
                    let (got, stats) = bf
                        .select_with(queries, db, metric, k, caps, |qi, near| (qi, near.to_vec()));
                    let queries_in_order: Vec<usize> = got.iter().map(|(qi, _)| *qi).collect();
                    assert_eq!(queries_in_order, (0..queries.len()).collect::<Vec<_>>());
                    let got: Vec<Vec<Neighbor>> = got.into_iter().map(|(_, near)| near).collect();
                    let case = format!("{}, k {k}, capped {}", metric.name(), caps.is_some());
                    assert_eq!(got, want, "{case}, {:?}", bf.config());
                    // The screen skips lane groups, never an evaluation.
                    let scored = stats.reranked_groups;
                    assert_eq!(
                        BfStats {
                            reranked_groups: want_stats.reranked_groups,
                            ..stats
                        },
                        want_stats,
                        "{case}"
                    );
                    assert!(scored <= want_stats.reranked_groups, "{case}");
                }
            }
        }
        for (per_point, parallel, query_tile, db_tile) in [
            (false, true, 16, 256),
            (false, false, 5, 24),
            (true, true, 4, 7),
        ] {
            let bf = BruteForce::with_config(BfConfig {
                query_tile,
                db_tile,
                parallel,
            });
            if per_point {
                check(&bf, &queries, &db, &PerPoint(Euclidean));
            } else {
                check(&bf, &queries, &db, &Euclidean);
            }
            check(&bf, &queries, &db, &Manhattan);
        }
    }

    #[test]
    fn a_capped_selection_screens_from_its_first_group() {
        // The query's eight nearest are the last lane group, every other
        // point ~2 000 away. Uncapped, the selection's running bound only
        // falls to the far points' eighth, which leaves far groups open;
        // capped at the true eighth distance, only the near group is scored.
        let dim = 4;
        let mut db = VectorSet::empty(dim);
        for point in cloud(15 * LANES, dim, 58).iter() {
            db.push(&point.iter().map(|x| x + 1000.0).collect::<Vec<_>>());
        }
        cloud(LANES, dim, 59)
            .iter()
            .for_each(|point| db.push(point));
        let queries = VectorSet::from_rows(&[vec![0.0; 4]]);
        let bf = BruteForce::with_config(BfConfig::sequential());
        let (want, _) = bf.knn(&queries, &db, &Euclidean, LANES);
        assert!(want[0].iter().all(|nb| nb.index >= 15 * LANES));
        let kth = [want[0][LANES - 1].dist];
        let near = |_: usize, near: &[Neighbor]| near.to_vec();
        let (uncapped, loose) = bf.select_with(&queries, &db, &Euclidean, LANES, None, near);
        let (capped, tight) = bf.select_with(&queries, &db, &Euclidean, LANES, Some(&kth), near);
        assert_eq!((uncapped, capped), (want.clone(), want));
        assert_eq!(tight.distance_evals, db.len() as u64);
        assert_eq!(tight.reranked_groups, 1);
        assert!(loose.reranked_groups > 2, "{loose:?}");
    }

    #[test]
    #[should_panic(expected = "one cap per query")]
    fn select_with_rejects_a_cap_count_other_than_the_query_count() {
        let db = cloud(10, 2, 22);
        let caps = [1.0; 3];
        let _ = BruteForce::new()
            .select_with(&db, &db, &Euclidean, 2, Some(&caps), |_, near| near.len());
    }

    #[test]
    fn empty_query_set_is_handled() {
        let db = cloud(10, 2, 21);
        let queries = VectorSet::empty(2);
        let bf = BruteForce::new();
        let (knn, stats) = bf.knn(&queries, &db, &Euclidean, 3);
        assert!(knn.is_empty());
        assert_eq!(stats, BfStats::new());
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn select_with_rejects_zero_k() {
        let db = cloud(10, 2, 22);
        let _ = BruteForce::new().select_with(&db, &db, &Euclidean, 0, None, |_, near| near.len());
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_is_rejected() {
        let db = cloud(10, 2, 22);
        let queries = cloud(1, 2, 23);
        let _ = BruteForce::new().knn(&queries, &db, &Euclidean, 0);
    }

    #[test]
    fn owned_query_batch_matches_dataset_batch() {
        let db = cloud(120, 4, 24);
        let queries = cloud(9, 4, 25);
        let owned: Vec<Vec<f32>> = queries.iter().map(<[f32]>::to_vec).collect();
        let bf = BruteForce::new();
        let (from_set, set_stats) = bf.knn(&queries, &db, &Euclidean, 3);
        let batch = QueryBatch::new(&owned);
        let (from_items, item_stats) = bf.knn(&batch, &db, &Euclidean, 3);
        assert_eq!(from_set, from_items);
        assert_eq!(set_stats, item_stats);

        let (nn_set, _) = bf.nn(&queries, &db, &Euclidean);
        let (nn_items, _) = bf.nn(&batch, &db, &Euclidean);
        assert_eq!(nn_set, nn_items);
    }

    #[test]
    fn blocked_and_row_major_scans_are_bit_identical() {
        let db = cloud(237, 7, 40);
        let queries = cloud(9, 7, 41);
        let bf = BruteForce::new();
        let (a, sa) = bf.knn(&queries, &db, &Euclidean, 5);
        let (b, sb) = bf.knn(&queries, &db, &PerPoint(Euclidean), 5);
        assert_eq!(a, b);
        assert_eq!(sa.distance_evals, sb.distance_evals);

        let (pa, _) = bf.pairwise(&queries, &db, &Euclidean);
        let (pb, _) = bf.pairwise(&queries, &db, &PerPoint(Euclidean));
        assert_eq!(pa, pb);
    }

    #[test]
    fn validate_flags_zero_tiles() {
        assert!(BfConfig::default().validate().is_ok());
        let zero_q = BfConfig {
            query_tile: 0,
            ..BfConfig::default()
        };
        assert!(zero_q.validate().unwrap_err().contains("query_tile"));
        let zero_db = BfConfig {
            db_tile: 0,
            ..BfConfig::default()
        };
        assert!(zero_db.validate().unwrap_err().contains("db_tile"));
    }

    #[test]
    #[should_panic(expected = "query_tile must be at least 1")]
    fn zero_query_tile_is_rejected_at_construction() {
        let _ = BruteForce::with_config(BfConfig {
            query_tile: 0,
            ..BfConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "db_tile must be at least 1")]
    fn zero_db_tile_is_rejected_at_construction() {
        let _ = BruteForce::with_config(BfConfig {
            db_tile: 0,
            ..BfConfig::default()
        });
    }
}
