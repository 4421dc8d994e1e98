//! Property-based tests for the brute-force primitive.
//!
//! The invariant that matters most for the rest of the workspace: whatever
//! the tiling, parallelism, or entry point, the primitive returns exactly
//! the same neighbors as a naive sequential scan.

use proptest::prelude::*;
use rbc_bruteforce::{BfConfig, BruteForce, Neighbor};
use rbc_metric::{force_kernel, Dataset, Euclidean, KernelChoice, Metric, PerPoint, VectorSet};

const DIM: usize = 4;

/// Database tiles that make the screened scan's blocks of four lane groups
/// meet tile ends: 7 holds no whole group, 8 exactly one.
const DB_TILES: [usize; 4] = [7, 8, 64, 256];
const QUERY_TILES: [usize; 2] = [1, 16];
/// Coordinate magnitudes: squares that go subnormal in `f32`, ordinary
/// ones, squares that overflow `f32`, and differences that overflow it.
const SCALES: [f32; 4] = [1e-20, 1.0, 1e18, 3e38];
const KERNELS: [KernelChoice; 3] = [
    KernelChoice::Scalar,
    KernelChoice::Sse2,
    KernelChoice::Avx2Fma,
];
/// Where a cloud sits: at the origin, or translated far from it relative
/// to its spread.
const OFFSETS: [f32; 3] = [0.0, 1e3, 1e6];
/// What a poisoned coordinate becomes.
const SPECIALS: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

/// Held while a test forces a kernel: the choice is process-wide, and a
/// test that compares two scans' rescored groups needs both on one kernel.
static KERNEL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn points(n_range: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-50.0f32..50.0, DIM), n_range)
}

/// A deterministic pseudo-random stream in `[-1, 1)`.
fn unit_stream(seed: u64) -> impl FnMut() -> f32 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// `(index, distance bits)`: an answer compared bit for bit, NaN included.
fn bits(n: &Neighbor) -> (usize, u64) {
    (n.index, n.dist.to_bits())
}

fn naive_knn<M: Metric<[f32]>>(
    queries: &VectorSet,
    db: &VectorSet,
    metric: &M,
    k: usize,
) -> Vec<Vec<Neighbor>> {
    (0..queries.len())
        .map(|qi| {
            let mut all: Vec<Neighbor> = (0..db.len())
                .map(|j| Neighbor::new(j, metric.dist(queries.point(qi), db.point(j))))
                .collect();
            all.sort();
            all.truncate(k);
            all
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tiled parallel k-NN agrees with the naive scan for arbitrary
    /// point clouds, query counts, k, and tile shapes.
    #[test]
    fn knn_agrees_with_naive(
        db_rows in points(1..60),
        q_rows in points(1..12),
        k in 1usize..8,
        query_tile in 1usize..20,
        db_tile in 1usize..40,
    ) {
        let db = VectorSet::from_rows(&db_rows);
        let queries = VectorSet::from_rows(&q_rows);
        let bf = BruteForce::with_config(BfConfig { query_tile, db_tile, ..BfConfig::default() });
        let (got, stats) = bf.knn(&queries, &db, &Euclidean, k);
        let want = naive_knn(&queries, &db, &Euclidean, k);
        prop_assert_eq!(got, want);
        prop_assert_eq!(stats.distance_evals, (db_rows.len() * q_rows.len()) as u64);
    }

    /// The streaming single-query path returns the same nearest neighbor as
    /// the batched path.
    #[test]
    fn single_query_matches_batched(
        db_rows in points(1..80),
        q in prop::collection::vec(-50.0f32..50.0, DIM),
    ) {
        let db = VectorSet::from_rows(&db_rows);
        let queries = VectorSet::from_rows(std::slice::from_ref(&q));
        let bf = BruteForce::new();
        let (batched, _) = bf.nn(&queries, &db, &Euclidean);
        let (single, _) = bf.nn_single(&q[..], &db, &Euclidean);
        prop_assert_eq!(batched[0], single);
    }

    /// k-NN results are always sorted, contain no duplicate indices, and
    /// have length min(k, n).
    #[test]
    fn knn_results_are_well_formed(
        db_rows in points(1..40),
        q_rows in points(1..5),
        k in 1usize..12,
    ) {
        let db = VectorSet::from_rows(&db_rows);
        let queries = VectorSet::from_rows(&q_rows);
        let (knn, _) = BruteForce::new().knn(&queries, &db, &Euclidean, k);
        for per_q in &knn {
            prop_assert_eq!(per_q.len(), k.min(db.len()));
            for w in per_q.windows(2) {
                prop_assert!(w[0].dist <= w[1].dist);
            }
            let mut idx: Vec<usize> = per_q.iter().map(|n| n.index).collect();
            idx.sort_unstable();
            idx.dedup();
            prop_assert_eq!(idx.len(), per_q.len());
        }
    }

    /// The screened dense scans answer exactly what the unscreened blocked
    /// scan (`knn`) and the per-point scan (`PerPoint(Euclidean)`) answer —
    /// index and distance bits, NaN included, ties to the lower index —
    /// with the same evaluation count, on every kernel, tiling and schedule:
    /// `nn_with_blocks` against `knn` with k = 1, and `select_with`, capped
    /// at each query's true `k`-th distance and uncapped, against `knn`.
    /// Databases reach from tail-only (n < 8) through exact multiples of 8;
    /// some rows are duplicated (the lower index must win), some
    /// coordinates poisoned with NaN or ±∞, in rows and in queries, and
    /// some clouds translated to 10³ or 10⁶ from the origin, where the
    /// tile's norm form cancels.
    #[test]
    fn screened_nn_is_bit_identical_to_the_canonical_scan(
        (seed, dim, n_raw, n_shape) in (any::<u64>(), 1usize..=65, 1usize..=300, 0usize..3),
        (nq, db_tile, query_tile, scale) in (1usize..=20, 0usize..4, 0usize..2, 0usize..4),
        (duplicates, poisoned, parallel) in (0usize..6, 0usize..4, any::<bool>()),
        (offset, k) in (0usize..OFFSETS.len(), 1usize..=12),
    ) {
        let n = match n_shape {
            0 => n_raw % 7 + 1,
            1 => 8 * (n_raw % 37 + 1),
            _ => n_raw,
        };
        let mut next = unit_stream(seed);
        let mut cloud = |len: usize| -> Vec<Vec<f32>> {
            (0..len)
                .map(|_| (0..dim).map(|_| OFFSETS[offset] + next() * SCALES[scale]).collect())
                .collect()
        };
        let mut rows = cloud(n);
        let mut q_rows = cloud(nq);
        let mut pick = unit_stream(seed ^ 0x5eed);
        let mut index = |len: usize| ((pick() + 1.0) / 2.0 * len as f32) as usize % len;
        for _ in 0..duplicates {
            let (from, to) = (index(n), index(n));
            rows[to] = rows[from].clone();
            // A query on the duplicated point ties at distance 0.
            let at = index(nq);
            q_rows[at] = rows[from].clone();
        }
        for p in 0..poisoned {
            let special = SPECIALS[p % SPECIALS.len()];
            let (row, col) = (index(n), index(dim));
            rows[row][col] = special;
            if p % 2 == 1 {
                let (query, col) = (index(nq), index(dim));
                q_rows[query][col] = special;
            }
        }
        let db = VectorSet::from_rows(&rows);
        let queries = VectorSet::from_rows(&q_rows);
        let blocked = BruteForce::with_config(BfConfig {
            query_tile: QUERY_TILES[query_tile],
            db_tile: DB_TILES[db_tile],
            parallel,
        });
        let (canonical, canonical_stats) = blocked.nn(&queries, &db, &PerPoint(Euclidean));
        let canonical: Vec<_> = canonical.iter().map(bits).collect();

        let _kernel = KERNEL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        for kernel in KERNELS {
            force_kernel(Some(kernel));
            let (screened, stats) =
                blocked.nn_with_blocks(&queries, &db, &Euclidean, db.lane_blocks());
            let (knn, knn_stats) = blocked.knn(&queries, &db, &Euclidean, 1);
            force_kernel(None);
            let screened: Vec<_> = screened.iter().map(bits).collect();
            let knn: Vec<_> = knn.iter().map(|answer| bits(&answer[0])).collect();
            prop_assert_eq!(&screened, &canonical, "kernel {:?}, n {}, dim {}", kernel, n, dim);
            prop_assert_eq!(&knn, &canonical, "kernel {:?}, n {}, dim {}", kernel, n, dim);
            prop_assert_eq!(stats.distance_evals, canonical_stats.distance_evals);
            prop_assert_eq!(knn_stats.distance_evals, canonical_stats.distance_evals);
            prop_assert_eq!(stats.distance_evals, (n * nq) as u64);
            // The screen only ever removes canonical work.
            prop_assert!(stats.reranked_groups <= knn_stats.reranked_groups);

            force_kernel(Some(kernel));
            let (want, want_stats) = blocked.knn(&queries, &db, &Euclidean, k);
            let kth: Vec<f64> = want.iter().map(|near| near[near.len() - 1].dist).collect();
            for caps in [None, Some(&kth[..])] {
                let (got, stats) = blocked
                    .select_with(&queries, &db, &Euclidean, k, caps, |_, near| near.to_vec());
                let got: Vec<Vec<_>> = got.iter().map(|near| near.iter().map(bits).collect()).collect();
                let want: Vec<Vec<_>> = want.iter().map(|near| near.iter().map(bits).collect()).collect();
                prop_assert_eq!(
                    got, want, "kernel {:?}, n {}, dim {}, k {}, capped {}", kernel, n, dim, k, caps.is_some()
                );
                prop_assert_eq!(stats.distance_evals, want_stats.distance_evals);
                prop_assert!(stats.reranked_groups <= want_stats.reranked_groups);
            }
            force_kernel(None);
        }
    }
}

/// Shapes of a tiled group scan's cursor: at or near its own query's true
/// distance to the representative, a NaN distance, far outside the list
/// with a zero cap (an empty run), or with a finite cap.
#[derive(Clone, Copy, Debug)]
enum CursorShape {
    True,
    Nan,
    Empty,
    Capped,
}

impl CursorShape {
    /// Half true cursors, a quarter capped, an eighth each NaN and empty.
    fn from_draw(draw: usize) -> Self {
        match draw % 8 {
            0..=3 => Self::True,
            4 | 5 => Self::Capped,
            6 => Self::Nan,
            _ => Self::Empty,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A group scan runs its cursors in tiles; each tile screens a lane
    /// group once for all its cursors, but every cursor keeps its own run,
    /// blocks, re-clips and collector. So a group of up to nine cursors
    /// gives the same answers, the same evaluations per cursor and the same
    /// skipped members as the same cursors scanned one group scan each —
    /// with `f32` lanes, coded lanes and none, with NaN distances to the
    /// representative, `+∞` and finite caps, empty runs and flagged members.
    #[test]
    fn a_tiled_group_scan_equals_its_cursors_scanned_one_at_a_time(
        (seed, n, k, db_tile) in (any::<u64>(), 1usize..=200, 1usize..=6, 0usize..4),
        draws in prop::collection::vec(0usize..8, 1..=9),
        flagged in prop::collection::vec(0usize..200, 0..12),
        seeded in any::<bool>(),
    ) {
        use rbc_bruteforce::{GroupCursor, ListMirror, TopK};
        use std::sync::Mutex;
        let shapes: Vec<CursorShape> = draws.into_iter().map(CursorShape::from_draw).collect();
        let mut next = unit_stream(seed);
        let mut cloud = |len: usize| -> Vec<Vec<f32>> {
            (0..len).map(|_| (0..DIM).map(|_| next() * 10.0).collect()).collect()
        };
        let rows = cloud(n);
        let q_rows = cloud(shapes.len());
        let rep = vec![0.0f32; DIM];
        let db = VectorSet::from_rows(&rows);
        let queries = VectorSet::from_rows(&q_rows);
        // The list: every point, sorted by distance to the representative.
        let mut order: Vec<(f64, usize)> =
            (0..n).map(|i| (Euclidean.dist(db.point(i), &rep), i)).collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let members: Vec<usize> = order.iter().map(|&(_, i)| i).collect();
        let member_dists: Vec<f64> = order.iter().map(|&(d, _)| d).collect();
        let mut skip = vec![false; n];
        for &i in &flagged {
            skip[i % n] = true;
        }
        let cursors: Vec<GroupCursor> = shapes
            .iter()
            .enumerate()
            .map(|(qi, shape)| {
                let d_to_rep = Euclidean.dist(queries.point(qi), &rep);
                let (d_to_rep, threshold_cap) = match shape {
                    CursorShape::True => (d_to_rep, f64::INFINITY),
                    CursorShape::Nan => (f64::NAN, f64::INFINITY),
                    CursorShape::Empty => (d_to_rep + 1e3, 0.0),
                    CursorShape::Capped => (d_to_rep, 2.0),
                };
                GroupCursor { query: qi, d_to_rep, threshold_cap }
            })
            .collect();
        // Accumulators seeded as the exact search seeds them, with points
        // from outside the list, or empty.
        let accumulators = || -> Vec<Mutex<TopK>> {
            (0..shapes.len())
                .map(|qi| {
                    let mut topk = TopK::new(k);
                    if seeded {
                        topk.push(Neighbor::new(n + qi, 3.0 + qi as f64 * 0.25));
                    }
                    Mutex::new(topk)
                })
                .collect()
        };
        let bf = BruteForce::with_config(BfConfig {
            db_tile: DB_TILES[db_tile],
            ..BfConfig::sequential()
        });
        let floats = ListMirror::gather(&db, &members, Some(&member_dists), Some(&skip));
        let codes = ListMirror::gather_codes(&db, &members, Some(&member_dists), Some(&skip));
        for mirror in [floats.as_ref(), codes.as_ref(), None] {
            let scan = |cursors: &[GroupCursor], accumulators: &[Mutex<TopK>]| {
                bf.knn_group_in_list(
                    &queries, &db, &Euclidean, &members, &member_dists, cursors, 1.0, true,
                    Some(&skip), mirror, accumulators,
                )
            };
            let together = accumulators();
            let stats = scan(&cursors, &together);
            let alone = accumulators();
            let mut evals = Vec::new();
            let mut skipped = 0;
            for cursor in &cursors {
                let single = scan(std::slice::from_ref(cursor), &alone);
                evals.extend(single.evals_per_cursor);
                skipped += single.points_skipped;
            }
            let answers = |accumulators: Vec<Mutex<TopK>>| -> Vec<Vec<(usize, u64)>> {
                accumulators
                    .into_iter()
                    .map(|m| m.into_inner().unwrap().into_sorted().iter().map(bits).collect())
                    .collect()
            };
            let case = format!("mirror {} shapes {:?}", mirror.is_some(), shapes);
            prop_assert_eq!(answers(together), answers(alone), "{}", case);
            prop_assert_eq!(&stats.evals_per_cursor, &evals, "{}", case);
            prop_assert_eq!(stats.distance_evals, evals.iter().sum::<u64>(), "{}", case);
            prop_assert_eq!(stats.points_skipped, skipped, "{}", case);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A cursor's cap bounds its screen and its offers, not only its run. A
    /// cursor capped at `c` scanning into an empty accumulator collects
    /// exactly the numbers at or under `c` of what the uncapped scan
    /// collects (a NaN cap is no cap; NaN lanes are offered either way, so
    /// they may fill what the cap left free) and rescores no more groups —
    /// for `c` below, at and above the true k-th distance, `+∞` and NaN,
    /// with `f32` lanes, coded lanes and none, on every kernel. For a
    /// finite `c` it is the scan of an uncapped cursor whose accumulator
    /// holds `k` sentinels at `c` (the exact search's seeding): the same
    /// numbers, evaluations, skips and rescored groups, which a screen that
    /// ignored the cap would exceed. Where the cap cannot clip the run, the
    /// evaluations are the uncapped scan's.
    #[test]
    fn a_capped_scan_collects_the_uncapped_answers_at_or_under_its_cap(
        (seed, n, k, db_tile) in (any::<u64>(), 1usize..=200, 1usize..=6, 0usize..4),
        flagged in prop::collection::vec(0usize..200, 0..12),
        (sorted_cut, poisoned) in (any::<bool>(), 0usize..3),
    ) {
        use rbc_bruteforce::{GroupCursor, GroupScanStats, ListMirror, TopK};
        use std::sync::Mutex;
        let mut next = unit_stream(seed);
        let mut rows: Vec<Vec<f32>> =
            (0..n).map(|_| (0..DIM).map(|_| next() * 10.0).collect()).collect();
        for p in 0..poisoned {
            rows[(seed as usize).wrapping_add(p * 7) % n][p % DIM] = f32::NAN;
        }
        let query: Vec<f32> = (0..DIM).map(|_| next() * 10.0).collect();
        let rep = vec![0.0f32; DIM];
        let db = VectorSet::from_rows(&rows);
        let queries = VectorSet::from_rows(&[query]);
        let mut order: Vec<(f64, usize)> =
            (0..n).map(|i| (Euclidean.dist(db.point(i), &rep), i)).collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let members: Vec<usize> = order.iter().map(|&(_, i)| i).collect();
        let member_dists: Vec<f64> = order.iter().map(|&(d, _)| d).collect();
        let mut skip = vec![false; n];
        for &i in &flagged {
            skip[i % n] = true;
        }
        let d_to_rep = Euclidean.dist(queries.point(0), &rep);
        let bf = BruteForce::with_config(BfConfig {
            db_tile: DB_TILES[db_tile],
            ..BfConfig::sequential()
        });
        let floats = ListMirror::gather(&db, &members, Some(&member_dists), Some(&skip));
        let codes = ListMirror::gather_codes(&db, &members, Some(&member_dists), Some(&skip));
        let numbers = |answers: &[Neighbor]| -> Vec<(usize, u64)> {
            answers.iter().filter(|a| !a.dist.is_nan() && a.index < n).map(bits).collect()
        };
        let _kernel = KERNEL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        for kernel in KERNELS {
            force_kernel(Some(kernel));
            for mirror in [floats.as_ref(), codes.as_ref(), None] {
                let scan = |cap: f64, sentinels: usize| -> (Vec<Neighbor>, GroupScanStats) {
                    let mut topk = TopK::new(k);
                    for s in 0..sentinels {
                        topk.push(Neighbor::new(n + s, cap));
                    }
                    let accumulators = [Mutex::new(topk)];
                    let cursor = GroupCursor { query: 0, d_to_rep, threshold_cap: cap };
                    let stats = bf.knn_group_in_list(
                        &queries, &db, &Euclidean, &members, &member_dists, &[cursor], 1.0,
                        sorted_cut, Some(&skip), mirror, &accumulators,
                    );
                    let [accumulator] = accumulators;
                    (accumulator.into_inner().unwrap().into_sorted(), stats)
                };
                let (uncapped, open) = scan(f64::INFINITY, 0);
                let finite: Vec<f64> =
                    uncapped.iter().map(|a| a.dist).filter(|d| !d.is_nan()).collect();
                let kth = finite.last().copied().unwrap_or(1.0);
                let nearest = finite.first().copied().unwrap_or(1.0);
                let caps = [
                    0.0,
                    kth * 0.5,
                    (nearest + kth) / 2.0,
                    kth,
                    kth * 1.5,
                    f64::INFINITY,
                    f64::NAN,
                ];
                for cap in caps {
                    let case = format!(
                        "kernel {kernel:?}, mirror {}, cap {cap}, kth {kth}",
                        mirror.map_or("none", |m| if m.codes().is_some() { "codes" } else { "f32" })
                    );
                    // A NaN cap is no cap.
                    let within = |d: f64| d <= cap || cap.is_nan();
                    let (capped, stats) = scan(cap, 0);
                    let want: Vec<(usize, u64)> = uncapped
                        .iter()
                        .filter(|a| !a.dist.is_nan() && within(a.dist))
                        .map(bits)
                        .collect();
                    prop_assert_eq!(numbers(&capped), want, "{}", &case);
                    if poisoned == 0 {
                        prop_assert!(capped.iter().all(|a| within(a.dist)), "{}", &case);
                    }
                    prop_assert!(stats.reranked <= open.reranked, "{}", &case);
                    if !sorted_cut || !cap.is_finite() {
                        prop_assert_eq!(stats.distance_evals, open.distance_evals, "{}", &case);
                    }
                    if cap.is_finite() {
                        let (seeded, twin) = scan(cap, k);
                        prop_assert_eq!(numbers(&seeded), numbers(&capped), "{}", &case);
                        prop_assert_eq!(twin.distance_evals, stats.distance_evals, "{}", &case);
                        prop_assert_eq!(twin.points_skipped, stats.points_skipped, "{}", &case);
                        prop_assert_eq!(twin.reranked, stats.reranked, "{}", &case);
                    }
                }
            }
        }
        force_kernel(None);
    }
}
