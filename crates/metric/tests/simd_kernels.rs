//! Property tests pinning the SIMD lane kernels to the scalar reference.
//!
//! The contract under test is **bit identity**: every kernel (scalar,
//! SSE2, AVX2+FMA), every layout (row-major reference vs. blocked SoA),
//! every dimension (including the awkward 64±1 and sub-lane cases),
//! every gather (unaligned starts, duplicated indices), and every padded
//! remainder group must produce `f64` distances whose bits are equal to
//! the canonical sequential accumulation. Equality of the *sorted top-k*
//! then follows and is pinned separately, because that is the property
//! the search layers actually rely on.
//!
//! The `f32` screen and the `u8` code screen are held to a different
//! contract — **conservatism**: they may keep anything, but under no
//! kernel, magnitude or bound may they clear a lane whose canonical
//! distance is within the bound (for the code screen: the distance of the
//! point the lane codes, not of its decode). And a tile of queries screened
//! together gets, per query, exactly the masks of that query screened alone.
//!
//! Kernel forcing mutates process-global dispatch state, so every test
//! that forces serialises on one mutex and restores auto-detection
//! before releasing it.

use std::sync::Mutex;

use proptest::prelude::*;
use rbc_metric::{
    force_kernel, squared_l2_lanes, BlockedVectors, CodedVectors, Euclidean, KernelChoice, Metric,
    SquaredEuclidean, LANES, SCREEN_QUERIES,
};

/// Dimensions that stress every kernel path: below one SSE quad, exactly
/// one lane group's worth, around the 64-float cache line, and off-by-one
/// on both sides of 64.
const DIMS: [usize; 9] = [1, 3, 7, 8, 16, 17, 63, 64, 65];
const MAX_DIM: usize = 65;
const MAX_N: usize = 40;

const KERNELS: [KernelChoice; 3] = [
    KernelChoice::Scalar,
    KernelChoice::Sse2,
    KernelChoice::Avx2Fma,
];

/// Coordinate scales for the screen's safety net, `SCALES[0]` the ordinary
/// one: differences whose squares go subnormal in `f32` (1e-20) or vanish
/// (1e-30), subnormal differences (1e-39), the 1e±18 of the issue, squares
/// that overflow `f32` but not `f64` (3e19), and differences that overflow
/// `f32` themselves (3e38).
const SCALES: [f32; 8] = [1.0, 1e-20, 1e-30, 1e-39, 1e-18, 1e18, 3e19, 3e38];

/// Serialises tests that force the process-global kernel choice.
static KERNEL_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The canonical semantics, restated independently of the crate: strictly
/// sequential accumulation in one `f64` accumulator.
fn reference_sql2(a: &[f32], b: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        let d = f64::from(x - y);
        acc += d * d;
    }
    acc
}

/// Carves `n` rows of `dim` floats out of a flat random pool.
fn carve_rows(pool: &[f32], n: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| pool[i * dim..(i + 1) * dim].to_vec())
        .collect()
}

fn flatten(rows: &[Vec<f32>]) -> Vec<f32> {
    rows.iter().flatten().copied().collect()
}

proptest! {
    /// Every kernel produces bit-identical squared distances on every
    /// dimension in the stress set, from an unaligned-start query slice,
    /// and pads remainder lanes with the last point's distance.
    #[test]
    fn kernels_are_bit_identical_across_dims_and_padding(
        pool in prop::collection::vec(-100.0f32..100.0, MAX_N * MAX_DIM),
        qpool in prop::collection::vec(-100.0f32..100.0, MAX_DIM + 1),
        di in 0usize..DIMS.len(),
        n in 1usize..MAX_N,
        qoff in 0usize..2,
    ) {
        let dim = DIMS[di];
        let rows = carve_rows(&pool, n, dim);
        // `qoff == 1` starts the query slice one float into the pool, so
        // SIMD loads of the query side see a 4-byte-misaligned base.
        let query = &qpool[qoff..qoff + dim];
        let blocked = BlockedVectors::from_flat(&flatten(&rows), dim);
        prop_assert_eq!(blocked.len(), n);

        let _guard = lock();
        for kernel in KERNELS {
            force_kernel(Some(kernel));
            let mut out = [0.0f64; LANES];
            for g in 0..blocked.num_groups() {
                squared_l2_lanes(query, blocked.group(g), &mut out);
                let valid = blocked.valid_lanes(g);
                for lane in 0..valid {
                    let want = reference_sql2(query, &rows[g * LANES + lane]);
                    prop_assert_eq!(
                        out[lane].to_bits(), want.to_bits(),
                        "kernel {:?} dim {} point {}", kernel, dim, g * LANES + lane
                    );
                }
                // Padding lanes replicate the last point, which is what
                // keeps group-minimum admission filtering sound.
                let last = reference_sql2(query, &rows[n - 1]);
                for (lane, slot) in out.iter().enumerate().skip(valid) {
                    prop_assert_eq!(
                        slot.to_bits(), last.to_bits(),
                        "kernel {:?} dim {} padding lane {}", kernel, dim, lane
                    );
                }
            }
        }
        force_kernel(None);
    }

    /// Blocks gathered from arbitrary (unaligned, duplicated, reordered)
    /// row indices keep bit identity under every kernel — the path the
    /// RBC engines use for per-ownership-list mirrors.
    #[test]
    fn gathered_blocks_are_bit_identical_under_every_kernel(
        pool in prop::collection::vec(-100.0f32..100.0, MAX_N * MAX_DIM),
        qpool in prop::collection::vec(-100.0f32..100.0, MAX_DIM),
        di in 0usize..DIMS.len(),
        n in 1usize..MAX_N,
        raw_picks in prop::collection::vec(0usize..1000, 1..25),
    ) {
        let dim = DIMS[di];
        let rows = carve_rows(&pool, n, dim);
        let query = &qpool[..dim];
        let picks: Vec<usize> = raw_picks.into_iter().map(|p| p % n).collect();
        let blocked = BlockedVectors::gather_flat(&flatten(&rows), dim, &picks);
        prop_assert_eq!(blocked.len(), picks.len());

        let _guard = lock();
        for kernel in KERNELS {
            force_kernel(Some(kernel));
            let mut out = [0.0f64; LANES];
            for g in 0..blocked.num_groups() {
                squared_l2_lanes(query, blocked.group(g), &mut out);
                for lane in 0..blocked.valid_lanes(g) {
                    let want = reference_sql2(query, &rows[picks[g * LANES + lane]]);
                    prop_assert_eq!(
                        out[lane].to_bits(), want.to_bits(),
                        "kernel {:?} dim {} pick {}", kernel, dim, g * LANES + lane
                    );
                }
            }
        }
        force_kernel(None);
    }

    /// The metric-level lane hooks (including Euclidean's square root)
    /// match `Metric::dist` bit for bit, so any code path mixing lane and
    /// scalar evaluations stays coherent.
    #[test]
    fn dist_lanes_matches_dist_bitwise(
        pool in prop::collection::vec(-100.0f32..100.0, MAX_N * MAX_DIM),
        qpool in prop::collection::vec(-100.0f32..100.0, MAX_DIM),
        di in 0usize..DIMS.len(),
        n in 1usize..MAX_N,
    ) {
        let dim = DIMS[di];
        let rows = carve_rows(&pool, n, dim);
        let query = &qpool[..dim];
        let blocked = BlockedVectors::from_flat(&flatten(&rows), dim);

        prop_assert!(Metric::<[f32]>::lanes_supported(&Euclidean));
        prop_assert!(Metric::<[f32]>::lanes_supported(&SquaredEuclidean));
        let mut out = [0.0f64; LANES];
        for g in 0..blocked.num_groups() {
            prop_assert!(Euclidean.dist_lanes(query, blocked.group(g), &mut out));
            for lane in 0..blocked.valid_lanes(g) {
                let want = Euclidean.dist(query, &rows[g * LANES + lane]);
                prop_assert_eq!(out[lane].to_bits(), want.to_bits());
            }
            prop_assert!(SquaredEuclidean.dist_lanes(query, blocked.group(g), &mut out));
            for lane in 0..blocked.valid_lanes(g) {
                let want = SquaredEuclidean.dist(query, &rows[g * LANES + lane]);
                prop_assert_eq!(out[lane].to_bits(), want.to_bits());
            }
        }
    }

    /// The sorted top-k over blocked lane distances is *identical* (same
    /// indices, same distance bits, same order) under every kernel — the
    /// property the search layers actually rely on.
    #[test]
    fn top_k_is_identical_under_every_kernel(
        pool in prop::collection::vec(-100.0f32..100.0, MAX_N * MAX_DIM),
        qpool in prop::collection::vec(-100.0f32..100.0, MAX_DIM),
        di in 0usize..DIMS.len(),
        n in 2usize..MAX_N,
        k in 1usize..8,
    ) {
        let dim = DIMS[di];
        let rows = carve_rows(&pool, n, dim);
        let query = &qpool[..dim];
        let blocked = BlockedVectors::from_flat(&flatten(&rows), dim);
        let k = k.min(n);

        let _guard = lock();
        let mut per_kernel: Vec<Vec<(u64, usize)>> = Vec::new();
        for kernel in KERNELS {
            force_kernel(Some(kernel));
            let mut ranked: Vec<(u64, usize)> = Vec::with_capacity(n);
            let mut out = [0.0f64; LANES];
            for g in 0..blocked.num_groups() {
                prop_assert!(Euclidean.dist_lanes(query, blocked.group(g), &mut out));
                for (lane, slot) in out.iter().enumerate().take(blocked.valid_lanes(g)) {
                    ranked.push((slot.to_bits(), g * LANES + lane));
                }
            }
            // Distances are non-negative, so bit order is value order.
            ranked.sort_unstable();
            ranked.truncate(k);
            per_kernel.push(ranked);
        }
        force_kernel(None);
        prop_assert_eq!(&per_kernel[0], &per_kernel[1], "scalar vs sse2");
        prop_assert_eq!(&per_kernel[0], &per_kernel[2], "scalar vs avx2+fma");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The safety net under the screen: whatever the kernel, the metric,
    /// the magnitudes and the bound, a lane whose canonical distance is
    /// `<=` the bound keeps its bit — and on ordinary data the screen still
    /// earns its keep, clearing every lane clearly above the bound.
    #[test]
    fn screen_never_clears_a_lane_within_the_bound(
        unit in prop::collection::vec(-1.0f32..1.0, MAX_N * MAX_DIM),
        qunit in prop::collection::vec(-1.0f32..1.0, MAX_DIM),
        dim in 1usize..=MAX_DIM,
        n in 1usize..=MAX_N,
        first_group in 0usize..3,
        poison in prop::collection::vec((0usize..MAX_N * MAX_DIM, 0usize..3), 6),
        target in 0usize..MAX_N,
    ) {
        let _guard = lock();
        // Coordinate magnitudes: one scale for everything (ordinary, or
        // differences and squares that underflow or overflow `f32`), a
        // different scale per coordinate, or that with NaN and ±∞ sprinkled
        // over the points and the query.
        for regime in 0..SCALES.len() + 2 {
            let scale =
                |i: usize| SCALES[if regime < SCALES.len() { regime } else { i % SCALES.len() }];
            let mut flat: Vec<f32> =
                (0..n * dim).map(|i| unit[i] * scale(i / dim + i % dim)).collect();
            let mut query: Vec<f32> = (0..dim).map(|d| qunit[d] * scale(d)).collect();
            if regime > SCALES.len() {
                let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
                for (k, &(at, which)) in poison.iter().enumerate() {
                    if k == 0 {
                        query[at % dim] = specials[which];
                    } else {
                        flat[at % (n * dim)] = specials[which];
                    }
                }
            }
            let blocked = BlockedVectors::from_flat(&flat, dim);
            // Full blocks of four groups and tails of one to three, from
            // the start of the list or from inside it.
            let groups = first_group.min(blocked.num_groups() - 1)..blocked.num_groups();
            let member = groups.start * LANES + target % (n - groups.start * LANES);

            for (kernel, euclidean) in KERNELS.into_iter().flat_map(|k| [(k, true), (k, false)]) {
                force_kernel(Some(kernel));
                let lanes = |g: usize| {
                    let mut out = [0.0f64; LANES];
                    let computed = if euclidean {
                        Euclidean.dist_lanes(&query, blocked.group(g), &mut out)
                    } else {
                        SquaredEuclidean.dist_lanes(&query, blocked.group(g), &mut out)
                    };
                    assert!(computed);
                    out
                };
                // The bound: on a member's canonical distance, one ulp
                // either side of it, well inside and outside, 0, +∞, NaN.
                let on = lanes(member / LANES)[member % LANES];
                let bounds =
                    [on, on.next_down(), on.next_up(), on * 0.5, on * 2.0, 0.0, f64::INFINITY, f64::NAN];
                for bound in bounds {
                    let mut keep = [0u8; MAX_N.div_ceil(LANES)];
                    let block = blocked.block(groups.clone());
                    if euclidean {
                        Euclidean.screen_lanes(&[&query], block, &[bound], &mut keep);
                    } else {
                        SquaredEuclidean.screen_lanes(&[&query], block, &[bound], &mut keep);
                    }
                    let case = format!(
                        "kernel {kernel:?} euclidean {euclidean} dim {dim} regime {regime} bound {bound}"
                    );
                    for (j, g) in groups.clone().enumerate() {
                        if bound.is_nan() || bound == f64::INFINITY {
                            prop_assert_eq!(keep[j], u8::MAX, "{}: screened anyway", case);
                        }
                        for (lane, &dist) in lanes(g).iter().enumerate() {
                            let kept = (keep[j] >> lane) & 1 != 0;
                            prop_assert!(
                                kept || dist.partial_cmp(&bound).is_none_or(|o| o.is_gt()),
                                "{}: lane {} of group {} at {} cleared", case, lane, g, dist
                            );
                            // A NaN sum (a NaN or ∞ − ∞ difference) keeps its lane.
                            prop_assert!(kept || !dist.is_nan(), "{}: NaN lane cleared", case);
                            if regime == 0 && bound.is_finite() && dist > bound * 1.001 {
                                prop_assert!(!kept, "{}: lane at {} kept", case, dist);
                            }
                        }
                    }
                    prop_assert!(
                        keep[groups.len()..].iter().all(|&mask| mask == 0),
                        "{}: wrote past the block", case
                    );
                }
            }
        }
        force_kernel(None);
    }

    /// The same safety net under the code screen, which reads `u8` codes
    /// and must answer for the *original* points: whatever the kernel, the
    /// metric, the magnitudes, the list and the bound, a lane whose point's
    /// canonical distance is `<=` the bound keeps its bit. A list holding a
    /// NaN or ±∞ coordinate, and a NaN query, keep every lane; on ordinary
    /// data every lane clearly outside the bound plus twice the error radius
    /// (the lane's own decode may sit one radius nearer) is cleared.
    #[test]
    fn code_screen_never_clears_a_lane_within_the_bound(
        unit in prop::collection::vec(-1.0f32..1.0, MAX_N * MAX_DIM),
        qunit in prop::collection::vec(-1.0f32..1.0, MAX_DIM),
        grid in prop::collection::vec(-100i32..100, MAX_N * MAX_DIM),
        dim in 1usize..=MAX_DIM,
        n in 1usize..=MAX_N,
        first_group in 0usize..3,
        poison in prop::collection::vec((0usize..MAX_N * MAX_DIM, 0usize..3), 3),
        target in 0usize..MAX_N,
    ) {
        let _guard = lock();
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for regime in CodeRegime::ALL {
            let scale = |i: usize| match regime {
                CodeRegime::Scale(s) => s,
                _ => CODE_SCALES[i % CODE_SCALES.len()],
            };
            let mut flat: Vec<f32> = (0..n * dim)
                .map(|i| match regime {
                    // Multiples of 2⁻⁷: every code exact, `err` = 0.
                    CodeRegime::Grid => grid[i] as f32 / 128.0,
                    // Far from the origin relative to their spread.
                    CodeRegime::Offset => 1000.0 + unit[i] * 1e-3,
                    CodeRegime::Duplicates => unit[i % dim],
                    _ => unit[i] * scale(i / dim + i % dim),
                })
                .collect();
            let mut query: Vec<f32> = (0..dim)
                .map(|d| match regime {
                    CodeRegime::Offset => 1000.0 + qunit[d] * 2e-3,
                    _ => qunit[d] * scale(d),
                })
                .collect();
            match regime {
                CodeRegime::NonFinitePoints => {
                    for &(at, which) in &poison {
                        flat[at % (n * dim)] = specials[which];
                    }
                }
                CodeRegime::NanQuery => query[poison[0].0 % dim] = f32::NAN,
                _ => {}
            }
            let rows = carve_rows(&flat, n, dim);
            let members: Vec<usize> = (0..n).collect();
            let coded = CodedVectors::gather_flat(&flat, dim, &members);
            prop_assert_eq!(coded.len(), n);
            prop_assert_eq!(coded.code_bytes(), n.div_ceil(LANES) * LANES * dim);
            if regime == CodeRegime::NonFinitePoints {
                prop_assert_eq!(coded.err(), f64::INFINITY, "a non-finite list is screened");
            }
            if regime == CodeRegime::Grid {
                prop_assert_eq!(coded.err(), 0.0, "grid points decode exactly");
            }
            let err = coded.err();
            let keeps_all = matches!(regime, CodeRegime::NonFinitePoints | CodeRegime::NanQuery);
            let groups = first_group.min(coded.num_groups() - 1)..coded.num_groups();
            let member = groups.start * LANES + target % (n - groups.start * LANES);

            for (kernel, euclidean) in KERNELS.into_iter().flat_map(|k| [(k, true), (k, false)]) {
                force_kernel(Some(kernel));
                // Canonical distances of the points themselves, padding
                // lanes standing for the last point.
                let dist = |point: usize| {
                    let row = &rows[point.min(n - 1)];
                    if euclidean {
                        Euclidean.dist(&query, row)
                    } else {
                        SquaredEuclidean.dist(&query, row)
                    }
                };
                let on = dist(member);
                let bounds =
                    [on, on.next_down(), on.next_up(), on * 0.5, on * 2.0, 0.0, f64::INFINITY, f64::NAN];
                for bound in bounds {
                    let mut keep = [0u8; MAX_N.div_ceil(LANES)];
                    let block = coded.block(groups.clone());
                    if euclidean {
                        Euclidean.screen_codes(&query, block, bound, &mut keep);
                    } else {
                        SquaredEuclidean.screen_codes(&query, block, bound, &mut keep);
                    }
                    let case = format!(
                        "kernel {kernel:?} euclidean {euclidean} dim {dim} n {n} {regime:?} \
                         bound {bound} err {err}"
                    );
                    // The bound and the error radius on the distance scale.
                    let reach = |d: f64| if euclidean { d } else { d.sqrt() };
                    for (j, g) in groups.clone().enumerate() {
                        if keeps_all || bound.is_nan() || bound == f64::INFINITY {
                            prop_assert_eq!(keep[j], u8::MAX, "{}: screened anyway", case);
                        }
                        for lane in 0..LANES {
                            let d = dist(g * LANES + lane);
                            let kept = (keep[j] >> lane) & 1 != 0;
                            prop_assert!(
                                kept || d.partial_cmp(&bound).is_none_or(|o| o.is_gt()),
                                "{}: lane {} of group {} at {} cleared", case, lane, g, d
                            );
                            prop_assert!(kept || !d.is_nan(), "{}: NaN lane cleared", case);
                            let outside = reach(d) > 1.01 * (reach(bound) + 2.0 * err);
                            if regime == CodeRegime::Scale(1.0) && bound.is_finite() && outside {
                                prop_assert!(!kept, "{}: lane at {} kept", case, d);
                            }
                        }
                    }
                    prop_assert!(
                        keep[groups.len()..].iter().all(|&mask| mask == 0),
                        "{}: wrote past the block", case
                    );
                }
            }
        }
        force_kernel(None);
    }
}

/// Largest dimension of the tiled-screen property: past one AVX2 register
/// of dimensions, and past the 16 of the benchmark.
const TILE_MAX_DIM: usize = 33;
/// Lane groups of the tiled-screen property: four blocks of four.
const TILE_MAX_GROUPS: usize = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A tile of up to [`SCREEN_QUERIES`] queries is screened as if each
    /// query were screened alone: on every kernel and for both metrics,
    /// query `t`'s row of masks equals, bit for bit, the masks a call for
    /// that query alone writes — whatever the bounds, among them NaN, ±∞,
    /// 0, bounds under the screen's `2⁻¹⁰⁰` floor and every mixture of
    /// them in one tile — and nothing past the tile's rows is written.
    #[test]
    fn tiled_screen_masks_equal_single_query_masks(
        unit in prop::collection::vec(-1.0f32..1.0, TILE_MAX_GROUPS * LANES * TILE_MAX_DIM),
        qunit in prop::collection::vec(-1.0f32..1.0, SCREEN_QUERIES * TILE_MAX_DIM),
        dim in 1usize..=TILE_MAX_DIM,
        groups in 1usize..=TILE_MAX_GROUPS,
        tile in 1usize..=SCREEN_QUERIES,
        picks in prop::collection::vec((0usize..10, 0usize..TILE_MAX_GROUPS * LANES), SCREEN_QUERIES),
    ) {
        let _guard = lock();
        let n = groups * LANES;
        let flat: Vec<f32> = unit[..n * dim].to_vec();
        let blocked = BlockedVectors::from_flat(&flat, dim);
        let queries: Vec<Vec<f32>> = (0..tile)
            .map(|t| qunit[t * TILE_MAX_DIM..][..dim].to_vec())
            .collect();
        let tiled: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        for (kernel, euclidean) in KERNELS.into_iter().flat_map(|k| [(k, true), (k, false)]) {
            force_kernel(Some(kernel));
            let dist = |q: &[f32], point: usize| {
                let row = &flat[point * dim..][..dim];
                if euclidean { Euclidean.dist(q, row) } else { SquaredEuclidean.dist(q, row) }
            };
            // Each query's bound: a member's canonical distance, beside it,
            // well inside or outside it, or one of the special values.
            let bounds: Vec<f64> = tiled
                .iter()
                .zip(&picks)
                .map(|(q, &(kind, member))| {
                    let on = dist(q, member % n);
                    match kind {
                        0 => on,
                        1 => on.next_down(),
                        2 => on * 0.5,
                        3 => on * 2.0,
                        4 => 0.0,
                        5 => f64::INFINITY,
                        6 => f64::NEG_INFINITY,
                        7 => f64::NAN,
                        8 => 1e-40,
                        _ => on.next_up(),
                    }
                })
                .collect();
            let screen = |queries: &[&[f32]], bounds: &[f64], keep: &mut [u8]| {
                let block = blocked.block(0..groups);
                if euclidean {
                    Euclidean.screen_lanes(queries, block, bounds, keep);
                } else {
                    SquaredEuclidean.screen_lanes(queries, block, bounds, keep);
                }
            };
            let mut keep = vec![0xA5u8; SCREEN_QUERIES * TILE_MAX_GROUPS + 1];
            screen(&tiled, &bounds, &mut keep);
            let case = format!("kernel {kernel:?} euclidean {euclidean} dim {dim} bounds {bounds:?}");
            for (t, (&query, &bound)) in tiled.iter().zip(&bounds).enumerate() {
                let mut alone = vec![0xA5u8; groups];
                screen(&[query], &[bound], &mut alone);
                prop_assert_eq!(&keep[t * groups..][..groups], &alone[..], "{}: query {}", case, t);
            }
            prop_assert!(
                keep[tile * groups..].iter().all(|&mask| mask == 0xA5),
                "{}: wrote past the tile", case
            );
        }
        force_kernel(None);
    }
}

/// Coordinate scales for the code screen's safety net (`1.0` first, the
/// ordinary one): magnitudes whose squares go subnormal in `f32` or vanish,
/// the 1e±18 of the float screen, and near the top of `f32`.
const CODE_SCALES: [f32; 6] = [1.0, 1e-20, 1e-30, 1e-18, 1e18, 3e38];

/// One list-and-query shape of the code screen's safety net.
#[derive(Clone, Copy, Debug, PartialEq)]
enum CodeRegime {
    /// Every coordinate at one magnitude.
    Scale(f32),
    /// A different magnitude per coordinate.
    Mixed,
    /// Points on a grid the codes hit exactly (`err` = 0), so only the
    /// slack stands between the bound and a rounding.
    Grid,
    /// Points far from the origin relative to their spread.
    Offset,
    /// One point repeated: every dimension's range is 0.
    Duplicates,
    /// NaN and ±∞ coordinates among the points: nothing may be cleared.
    NonFinitePoints,
    /// A NaN coordinate in the query: nothing may be cleared.
    NanQuery,
}

impl CodeRegime {
    const ALL: [CodeRegime; 12] = [
        CodeRegime::Scale(CODE_SCALES[0]),
        CodeRegime::Scale(CODE_SCALES[1]),
        CodeRegime::Scale(CODE_SCALES[2]),
        CodeRegime::Scale(CODE_SCALES[3]),
        CodeRegime::Scale(CODE_SCALES[4]),
        CodeRegime::Scale(CODE_SCALES[5]),
        CodeRegime::Mixed,
        CodeRegime::Grid,
        CodeRegime::Offset,
        CodeRegime::Duplicates,
        CodeRegime::NonFinitePoints,
        CodeRegime::NanQuery,
    ];
}
