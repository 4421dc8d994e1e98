//! Blocked structure-of-arrays storage and SIMD distance kernels.
//!
//! The brute-force primitive's hot loop is "distances from one query to a
//! run of database points". Row-major storage makes that loop walk `dim`
//! consecutive floats per point and then jump; vector units want the
//! transpose. This module provides it:
//!
//! * [`BlockedVectors`] — an interleaved structure-of-arrays mirror of a
//!   vector set: points are grouped into blocks of [`LANES`] lanes, and
//!   within a group dimension `d` of all eight points is contiguous
//!   (`[p0.d, p1.d, .., p7.d]`). One `loadu` per dimension feeds a whole
//!   group. The buffer is cache-line (64-byte) aligned and the final
//!   partial group is padded by replicating the last point, so kernels
//!   never branch on the remainder.
//! * [`squared_l2_lanes`] — the group kernel: squared Euclidean distances
//!   from one query to all eight lanes of a group, dispatched at runtime
//!   to an AVX2+FMA, SSE2, or portable scalar implementation.
//! * [`screen_squared_l2`] — the block screen: for a run of consecutive
//!   lane groups ([`LaneBlock`]), which lanes *might* lie within a bound,
//!   for a tile of up to [`SCREEN_QUERIES`] queries, each with its own
//!   bound, every group loaded once for the tile. Pure `f32`, no converts,
//!   no square roots; it decides only what is not worth the group kernel,
//!   never a distance.
//! * [`CodedVectors`] — the same lane-blocked layout with one `u8` code per
//!   coordinate (a quarter of the bytes), a per-dimension decode
//!   `x̂ = lo + step·code` and one error radius `err ≥ max ‖x − x̂‖`; and
//!   [`screen_codes_l2`], the screen that reads it. The codes are never
//!   distances either: what survives is scored from the original rows.
//!
//! # Bit-compatibility contract
//!
//! **What is bit-identical: every distance.** Every [`squared_l2_lanes`]
//! kernel computes, per lane, *exactly* the same floating-point result as
//! the canonical scalar accumulation used by
//! [`Euclidean`](crate::Euclidean) / [`SquaredEuclidean`](crate::SquaredEuclidean):
//! the per-dimension difference is an `f32` subtraction widened to `f64`,
//! and squares are accumulated sequentially in a single `f64` accumulator.
//! This is why SIMD is applied **across points** (one lane per point, the
//! sequential dimension loop preserved per lane) rather than across
//! dimensions. The FMA variant is also exact: the widened difference has
//! at most 24 significand bits, so its square (≤ 48 bits) is representable
//! exactly in `f64`, making `fma(d, d, acc)` bit-identical to
//! `acc + d * d`. Consequently the scalar, SSE2 and AVX2 kernels — and the
//! per-point [`Metric::dist`](crate::Metric::dist) path — all return
//! identical bits. Every distance that reaches a top-k collector comes from
//! these kernels, so every layout/kernel combination yields identical
//! answers, ties and thresholds, *and* identical `distance_evals`.
//!
//! **What is not: the screen's sums and masks.** [`screen_squared_l2`]
//! accumulates the same `f32` differences in `f32`, and its three variants
//! round differently (one rounding per term with FMA, two with multiply +
//! add), so which lanes it clears near the bound depends on the active
//! kernel — but not on the tile: a query's sums are accumulated in the
//! same order whatever other queries share its call, so its masks are
//! those of a call for it alone. That is allowed because of what a cleared
//! lane means — "the canonical distance is certainly above the bound" — and
//! the callers' discipline: a screened-out lane is skipped, a kept lane is
//! *recomputed* by the canonical kernel before anything is compared or
//! stored. The screen's sums never leave this module. How many groups
//! survive it (`GroupScanStats::reranked`) is therefore reported, never
//! compared.
//!
//! **Why the screen is conservative.** Write `u = 2⁻²⁴`, `dᵢ` for the
//! `f32` differences (the same in both computations), `T = Σ dᵢ²` exactly,
//! `c` for the canonical `f64` sum and `s` for the screen's `f32` sum. All
//! terms are non-negative, so rounding errors compound as relative factors:
//!
//! * FMA screen: one rounding per term, `s ≤ T·(1+u)^dim`; multiply + add
//!   (SSE2, scalar): two, `s ≤ T·(1+u)^(2·dim)`.
//! * Canonical: squares are exact, one `f64` rounding per add,
//!   `c ≥ T·(1−2⁻⁵³)^dim`.
//! * A lane matters when its reported distance is `≤ kth`. For
//!   [`SquaredEuclidean`](crate::SquaredEuclidean) that is `c ≤ kth`; for
//!   [`Euclidean`](crate::Euclidean), `sqrt_rn(c) ≤ kth ⇒
//!   c ≤ kth²·(1+2⁻⁵²)²`, and `kth²` itself is one more `f64` rounding.
//!
//! So a lane that matters has `s ≤ B·(1+u)^(2·dim)·(1+2⁻³³)` with `B` the
//! squared bound, the last factor covering every `f64` term up to
//! `dim = 2¹⁶`. With `x = (2·dim+8)·u ≤ 1`, `(1+u)^(2·dim) ≤ e^(2·dim·u) ≤
//! 1 + x + x² − 8u`, which leaves `8u = 2⁻²¹` for the `f64` terms: one slack
//! `1 + x·(1+x)` serves all three kernels (to first order
//! `1 + (2·dim+8)·2⁻²⁴`; the `x²` is what keeps it a bound at large `dim`).
//! The limit `B·slack` is rounded **up** to `f32`, and a lane is cleared
//! only when `s > limit`.
//!
//! The relative bounds fail where `f32` underflows: a product or sum below
//! `2⁻¹²⁶` is off by up to `2⁻¹⁵⁰` absolutely, `dim·2⁻¹⁵⁰ ≤ 2⁻¹³⁴` in all.
//! The limit is therefore never taken below `2⁻¹⁰⁰`, against which that is
//! a relative `2⁻³⁴` — inside the `8u`. Everything else errs towards
//! keeping: a sum that overflows `f32` meets a limit that rounded up to
//! `+∞` or is dropped against a finite one it really exceeds; a NaN sum or
//! a NaN bound compares false and keeps the lane; a `+∞` bound keeps
//! everything (a lane at canonical distance `+∞` is `≤` it); and above
//! `dim = 2¹⁶` the screen is off.
//!
//! **The code screen.** [`screen_codes_l2`] holds to the same contract —
//! clear a lane only if its canonical distance is certainly above the bound
//! — but sums the squares of `d̂ᵢ = fl(qᵢ − x̂ᵢ)`, the differences to the
//! *decoded* point, and its bound `R` is a Euclidean one (a distance, not a
//! square). Three facts make it a bound:
//!
//! * The decode is exact on every kernel. `step` is a power of two and `lo`
//!   a multiple of it, so `x̂ = step·(lo/step + code)` with an integer under
//!   `2²⁴` in the brackets: representable in `f32`, and produced unrounded
//!   by FMA (AVX2) and by multiply + add (SSE2, scalar) alike. Lists for
//!   which that cannot be arranged — a non-finite coordinate, a decode that
//!   would leave `f32` — get `err = +∞` and are never screened.
//! * `err` is the largest `‖x − x̂‖` over the members, computed in `f64` and
//!   inflated by `1 + 2⁻³⁰` — far more than the `f64` roundings of `dim ≤
//!   2¹⁶` terms — so it bounds the real distance between a point and its
//!   decode.
//! * With `T` as above (the canonical differences `dᵢ`): `|qᵢ − xᵢ| ≤
//!   |dᵢ|/(1−u)`, so `‖q − x‖ ≤ √T/(1−u)`; by the triangle inequality
//!   `‖q − x̂‖ ≤ ‖q − x‖ + err`; and `|d̂ᵢ| ≤ (1+u)·|qᵢ − x̂ᵢ|`. Chained
//!   with the sum's own rounding, a lane that matters (`√T ≤ R` up to the
//!   `f64` factors above) has `s ≤ (R + err)²·(1+u)^(2·dim+4)`, using
//!   `1/(1−u) ≤ (1+u)(1+2u²)`.
//!
//! That is the plain screen's inequality for the squared bound
//! `(R + err)²` at `dim + 2`, so the code screen's limit is
//! `screen_limit((R + err)², dim + 2)`: the `x` of the slack grows by
//! `4u`, and the `8u` left over still covers every `f64` factor. Underflow
//! adds nothing new (a difference of two `f32`s that lands below `2⁻¹²⁶` is
//! exact), and every special value errs towards keeping: a NaN or `+∞`
//! bound or `err` makes the limit `+∞`, a NaN query coordinate makes the
//! sum NaN.
//!
//! # Kernel selection
//!
//! The kernel is chosen once per process by runtime feature detection
//! ([`active_kernel`]); setting the `RBC_FORCE_SCALAR` environment
//! variable (to anything but `0` or the empty string) pins the portable
//! scalar kernel for A/B runs and CI. [`force_kernel`] overrides the
//! choice in-process for benchmarks and tests.

// The one place in the workspace where `unsafe` is allowed: `std::arch`
// intrinsics behind runtime feature detection, over bounds-checked slices.
#![allow(unsafe_code)]

use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};

use crate::metric::Dist;

/// Number of points interleaved per lane group (one AVX2 `f32` register).
pub const LANES: usize = 8;

/// Floats per cache line; group starts are aligned to this.
const ALIGN_FLOATS: usize = 16;

/// An interleaved, lane-blocked structure-of-arrays copy of a vector set.
///
/// Group `g` holds points `g*LANES .. g*LANES+LANES`; within the group,
/// the `LANES` values of each dimension are contiguous. The final group is
/// padded by replicating the last point, so [`group`](Self::group) always
/// returns a full `dim × LANES` view ([`valid_lanes`](Self::valid_lanes)
/// says how many of its lanes are real points).
#[derive(Clone, Debug)]
pub struct BlockedVectors {
    /// Backing buffer; group data starts at `offset` so it is 64-byte
    /// aligned regardless of where the allocator put the `Vec`.
    data: Vec<f32>,
    offset: usize,
    dim: usize,
    len: usize,
}

impl BlockedVectors {
    /// Blocks a row-major flat buffer of `flat.len() / dim` points.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `flat.len()` is not a multiple of `dim`.
    pub fn from_flat(flat: &[f32], dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            flat.len().is_multiple_of(dim),
            "flat buffer does not tile into rows of {dim}"
        );
        let len = flat.len() / dim;
        Self::build(dim, len, |i| &flat[i * dim..(i + 1) * dim])
    }

    /// Blocks the selected rows of a row-major flat buffer, in `indices`
    /// order — the gathered layout ownership-list scans use (list members
    /// are arbitrary database indices, so a contiguous blocked copy must
    /// be gathered once at build time).
    ///
    /// # Panics
    /// Panics if `dim == 0` or an index is out of range.
    pub fn gather_flat(flat: &[f32], dim: usize, indices: &[usize]) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self::build(dim, indices.len(), |i| {
            let p = indices[i];
            &flat[p * dim..(p + 1) * dim]
        })
    }

    fn build<'a>(dim: usize, len: usize, row: impl Fn(usize) -> &'a [f32]) -> Self {
        let groups = len.div_ceil(LANES);
        let mut data = vec![0.0f32; groups * dim * LANES + ALIGN_FLOATS];
        // A `Vec<f32>` is only guaranteed 4-byte aligned; start the group
        // data at the first 64-byte boundary inside the buffer.
        let misalign = (data.as_ptr() as usize / std::mem::size_of::<f32>()) % ALIGN_FLOATS;
        let offset = (ALIGN_FLOATS - misalign) % ALIGN_FLOATS;
        for g in 0..groups {
            let base = offset + g * dim * LANES;
            for lane in 0..LANES {
                // Padding lanes replicate the last real point, so group
                // reductions (e.g. a min over the group's distances) stay
                // valid without masking.
                let point = row((g * LANES + lane).min(len - 1));
                for (d, &value) in point.iter().enumerate().take(dim) {
                    data[base + d * LANES + lane] = value;
                }
            }
        }
        Self {
            data,
            offset,
            dim,
            len,
        }
    }

    /// Number of real (unpadded) points stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the stored points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of lane groups (the last one may be padded).
    pub fn num_groups(&self) -> usize {
        self.len.div_ceil(LANES)
    }

    /// How many lanes of `group` are real points (the rest replicate the
    /// last point).
    pub fn valid_lanes(&self, group: usize) -> usize {
        (self.len - group * LANES).min(LANES)
    }

    /// The `dim × LANES` interleaved view of one group.
    ///
    /// # Panics
    /// Panics if `group >= num_groups()`.
    pub fn group(&self, group: usize) -> LaneGroup<'_> {
        assert!(group < self.num_groups(), "group index out of range");
        let start = self.offset + group * self.dim * LANES;
        LaneGroup {
            data: &self.data[start..start + self.dim * LANES],
            dim: self.dim,
        }
    }

    /// The consecutive lane groups `groups` as one view, for kernels that
    /// work on several groups at a time.
    ///
    /// # Panics
    /// Panics if `groups` reaches past `num_groups()`.
    pub fn block(&self, groups: Range<usize>) -> LaneBlock<'_> {
        assert!(
            groups.start <= groups.end && groups.end <= self.num_groups(),
            "group range out of range"
        );
        let stride = self.dim * LANES;
        LaneBlock {
            data: &self.data
                [self.offset + groups.start * stride..self.offset + groups.end * stride],
            dim: self.dim,
        }
    }
}

/// Equal when both hold the same points in the same lanes; where the
/// allocator put either buffer (`offset`) does not count.
impl PartialEq for BlockedVectors {
    fn eq(&self, other: &Self) -> bool {
        let floats = self.num_groups() * self.dim * LANES;
        (self.dim, self.len) == (other.dim, other.len)
            && self.data[self.offset..][..floats] == other.data[other.offset..][..floats]
    }
}

/// A borrowed view of one lane group: `dim` runs of [`LANES`] floats,
/// dimension-major (`data[d * LANES + lane]` is dimension `d` of lane
/// `lane`'s point).
#[derive(Clone, Copy, Debug)]
pub struct LaneGroup<'a> {
    data: &'a [f32],
    dim: usize,
}

impl LaneGroup<'_> {
    /// Dimensionality of the group's points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The raw interleaved values (`dim * LANES` floats).
    pub fn as_slice(&self) -> &[f32] {
        self.data
    }
}

/// A borrowed view of consecutive lane groups
/// ([`BlockedVectors::block`]): group `j` of the block is the
/// `dim * LANES` floats at `j * dim * LANES`, laid out as a [`LaneGroup`].
#[derive(Clone, Copy, Debug)]
pub struct LaneBlock<'a> {
    /// Always a whole number of groups: `groups() * dim * LANES` floats.
    data: &'a [f32],
    dim: usize,
}

impl LaneBlock<'_> {
    /// Dimensionality of the block's points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of lane groups in the block.
    pub fn groups(&self) -> usize {
        self.data.len() / (self.dim * LANES)
    }
}

/// The most a code can count in steps above its dimension's `lo`.
const CODE_MAX: f64 = u8::MAX as f64;

/// A lane-blocked copy of a vector set in which every coordinate is one
/// `u8` code: dimension `d` of a point decodes to `lo[d] + step[d]·code`.
///
/// The codes sit exactly where [`BlockedVectors`] keeps its floats (group
/// `g`, dimension `d`, lane `lane` at `(g·dim + d)·LANES + lane`, the last
/// group padded with the last point), so a group is `dim·LANES` bytes. The
/// decode is exact in `f32` on every kernel (see the module docs), and
/// [`err`](Self::err) bounds how far any stored point is from its decode —
/// `+∞` for a set the codes cannot describe that way, which no screen then
/// clears anything of. Codes screen; they are never distances.
#[derive(Clone, Debug, PartialEq)]
pub struct CodedVectors {
    codes: Vec<u8>,
    lo: Vec<f32>,
    step: Vec<f32>,
    err: Dist,
    dim: usize,
    len: usize,
}

impl CodedVectors {
    /// Codes the selected rows of a row-major flat buffer, in `indices`
    /// order (the layout of [`BlockedVectors::gather_flat`]), reading each
    /// row twice — once for the per-dimension range, once to code it — and
    /// keeping nothing of it but the codes.
    ///
    /// # Panics
    /// Panics if `dim == 0`, `indices` is empty or an index is out of range.
    pub fn gather_flat(flat: &[f32], dim: usize, indices: &[usize]) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(!indices.is_empty(), "cannot code an empty selection");
        let row = |i: usize| &flat[i * dim..(i + 1) * dim];
        let len = indices.len();
        let mut low = vec![f32::INFINITY; dim];
        let mut high = vec![f32::NEG_INFINITY; dim];
        let mut finite = true;
        for &i in indices {
            for ((low, high), &x) in low.iter_mut().zip(&mut high).zip(row(i)) {
                finite &= x.is_finite();
                *low = low.min(x);
                *high = high.max(x);
            }
        }
        let decode: Option<Vec<(f32, f32)>> = finite
            .then(|| {
                low.iter()
                    .zip(&high)
                    .map(|(&l, &h)| decode_for(l, h))
                    .collect()
            })
            .flatten();
        let mut codes = vec![0u8; len.div_ceil(LANES) * dim * LANES];
        let Some(decode) = decode else {
            // Nothing to screen with: every code 0, and an error radius no
            // bound survives.
            return Self {
                codes,
                lo: vec![0.0; dim],
                step: vec![1.0; dim],
                err: Dist::INFINITY,
                dim,
                len,
            };
        };

        // `(lo, step, 1/step)` in f64; `1/step` is exact, a power of two.
        let decode_f64: Vec<(f64, f64, f64)> = decode
            .iter()
            .map(|&(lo, step)| (f64::from(lo), f64::from(step), 1.0 / f64::from(step)))
            .collect();
        let mut worst = 0.0f64;
        for (g, group) in codes.chunks_exact_mut(dim * LANES).enumerate() {
            // Padding lanes replicate the last point, like the float layout.
            let rows: [&[f32]; LANES] =
                std::array::from_fn(|lane| row(indices[(g * LANES + lane).min(len - 1)]));
            let mut sq = [0.0f64; LANES];
            let dims = group.chunks_exact_mut(LANES).zip(&decode_f64).enumerate();
            for (d, (codes, &(lo, step, per_step))) in dims {
                for ((code, sq), row) in codes.iter_mut().zip(&mut sq).zip(rows) {
                    let x = f64::from(row[d]);
                    *code = code_of(x, lo, per_step);
                    // `lo + step·code` is exact in f64 and equals the f32
                    // decode.
                    let diff = x - (lo + step * f64::from(*code));
                    *sq += diff * diff;
                }
            }
            worst = sq.into_iter().fold(worst, f64::max);
        }
        Self {
            codes,
            lo: decode.iter().map(|&(lo, _)| lo).collect(),
            step: decode.iter().map(|&(_, step)| step).collect(),
            // Inflated past the f64 roundings of forming it (module docs).
            err: worst.sqrt() * (1.0 + ERR_INFLATION),
            dim,
            len,
        }
    }

    /// Number of real (unpadded) points stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the stored points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of lane groups (the last one may be padded).
    pub fn num_groups(&self) -> usize {
        self.len.div_ceil(LANES)
    }

    /// Bytes of codes held: `dim` per point, padded to whole lane groups.
    pub fn code_bytes(&self) -> usize {
        self.codes.len()
    }

    /// An upper bound on `‖x − x̂‖` over every stored point and its decode;
    /// `+∞` when the set holds a non-finite coordinate or cannot be decoded
    /// exactly, and then no screen clears any lane of it.
    pub fn err(&self) -> Dist {
        self.err
    }

    /// The consecutive lane groups `groups` as one view, for the code
    /// screen.
    ///
    /// # Panics
    /// Panics if `groups` reaches past `num_groups()`.
    pub fn block(&self, groups: Range<usize>) -> CodeBlock<'_> {
        assert!(
            groups.start <= groups.end && groups.end <= self.num_groups(),
            "group range out of range"
        );
        let stride = self.dim * LANES;
        CodeBlock {
            codes: &self.codes[groups.start * stride..groups.end * stride],
            lo: &self.lo,
            step: &self.step,
            err: self.err,
        }
    }
}

/// Relative inflation of a coded set's error radius: covers the `f64`
/// roundings of its differences, squares, sum and square root up to
/// `dim = 2¹⁶` (about `2⁻³⁶`) with room to spare.
const ERR_INFLATION: f64 = 1.0 / (1u64 << 30) as f64;

/// The decode `(lo, step)` of one dimension whose values span `low..=high`:
/// `step` the smallest power of two with `254·step ≥ high − low` and at
/// least `max(|low|, |high|)·2⁻²³` (so `lo/step + 255 < 2²⁴`), and
/// `lo = ⌊low/step⌋·step`. Then `lo + 255·step ≥ low + 254·step ≥ high`, and
/// every decode is a multiple of `step` under `2²⁴` of them — exact in
/// `f32`. `None` if `lo` or the top of the range would leave `f32`.
fn decode_for(low: f32, high: f32) -> Option<(f32, f32)> {
    let (low, high) = (f64::from(low), f64::from(high));
    let wanted = ((high - low) / (CODE_MAX - 1.0))
        .max(low.abs().max(high.abs()) / f64::from(1u32 << 23))
        .max(f64::from(f32::from_bits(1))); // the smallest subnormal, 2⁻¹⁴⁹
                                            // `2^e`, built from its bits: `wanted` lies in [2⁻¹⁴⁹, 2¹²²].
    let pow2 = |e: i32| f64::from_bits(((e + 1023) as u64) << 52);
    let mut e = wanted.log2().ceil() as i32;
    while pow2(e) < wanted {
        e += 1;
    }
    while pow2(e - 1) >= wanted {
        e -= 1;
    }
    let step = pow2(e);
    let lo = (low / step).floor() * step;
    // The largest decode any member gets.
    let top = lo + f64::from(code_of(high, lo, 1.0 / step)) * step;
    let fits = |v: f64| v.abs() <= f64::from(f32::MAX);
    (fits(lo) && fits(top)).then_some((lo as f32, step as f32))
}

/// The code of `x ≥ lo`: the nearest whole number of steps above `lo`
/// (`per_step` is `1/step`), saturating at 255. `as` is the rounding: the
/// value is non-negative, so truncating it plus one half rounds it, without
/// the library call `f64::round` is on baseline x86-64.
#[inline]
fn code_of(x: f64, lo: f64, per_step: f64) -> u8 {
    ((x - lo) * per_step + 0.5) as u8
}

/// A borrowed view of consecutive lane groups of a [`CodedVectors`]
/// ([`CodedVectors::block`]), with the decode and error radius they need.
#[derive(Clone, Copy, Debug)]
pub struct CodeBlock<'a> {
    /// Always a whole number of groups: `groups() * dim * LANES` codes.
    codes: &'a [u8],
    lo: &'a [f32],
    step: &'a [f32],
    err: Dist,
}

impl CodeBlock<'_> {
    /// Dimensionality of the block's points.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Number of lane groups in the block.
    pub fn groups(&self) -> usize {
        self.codes.len() / (self.dim() * LANES)
    }
}

/// Which distance kernel implementation is executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum KernelChoice {
    /// Portable scalar fallback: one lane at a time, sequential `f64`
    /// accumulation — the canonical semantics every other kernel matches.
    Scalar = 0,
    /// SSE2: 4 lanes per `f32` register, exact widened `f64` arithmetic.
    Sse2 = 1,
    /// AVX2 + FMA: all 8 lanes per register, fused multiply-add (exact
    /// here — see the module docs).
    Avx2Fma = 2,
}

impl KernelChoice {
    /// Short human-readable kernel name (`"scalar"`, `"sse2"`,
    /// `"avx2+fma"`), for logs and benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelChoice::Scalar => "scalar",
            KernelChoice::Sse2 => "sse2",
            KernelChoice::Avx2Fma => "avx2+fma",
        }
    }
}

/// Sentinel for "not yet detected" in [`ACTIVE_KERNEL`].
const KERNEL_UNSET: u8 = u8::MAX;

/// Process-wide kernel choice, detected lazily on first use.
static ACTIVE_KERNEL: AtomicU8 = AtomicU8::new(KERNEL_UNSET);

#[cfg(target_arch = "x86_64")]
fn kernel_supported(choice: KernelChoice) -> bool {
    match choice {
        KernelChoice::Scalar => true,
        KernelChoice::Sse2 => is_x86_feature_detected!("sse2"),
        KernelChoice::Avx2Fma => {
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn kernel_supported(choice: KernelChoice) -> bool {
    matches!(choice, KernelChoice::Scalar)
}

/// Runtime detection: the widest supported kernel, unless
/// `RBC_FORCE_SCALAR` pins the portable fallback.
fn detect_kernel() -> KernelChoice {
    let forced = std::env::var_os("RBC_FORCE_SCALAR")
        .is_some_and(|value| !value.is_empty() && value != *"0");
    if forced {
        return KernelChoice::Scalar;
    }
    if kernel_supported(KernelChoice::Avx2Fma) {
        KernelChoice::Avx2Fma
    } else if kernel_supported(KernelChoice::Sse2) {
        KernelChoice::Sse2
    } else {
        KernelChoice::Scalar
    }
}

fn kernel_from_u8(value: u8) -> KernelChoice {
    match value {
        1 => KernelChoice::Sse2,
        2 => KernelChoice::Avx2Fma,
        _ => KernelChoice::Scalar,
    }
}

/// The kernel all lane-distance computations currently dispatch to.
///
/// Detected once per process (see the module docs); every call after the
/// first is a single relaxed atomic load.
pub fn active_kernel() -> KernelChoice {
    match ACTIVE_KERNEL.load(Ordering::Relaxed) {
        KERNEL_UNSET => {
            let choice = detect_kernel();
            ACTIVE_KERNEL.store(choice as u8, Ordering::Relaxed);
            choice
        }
        value => kernel_from_u8(value),
    }
}

/// Overrides the process-wide kernel choice — `Some(choice)` pins a
/// specific kernel (silently clamped to the scalar fallback if the CPU
/// lacks the required features), `None` reverts to automatic detection
/// (re-reading `RBC_FORCE_SCALAR`).
///
/// Because every kernel is bit-identical, switching mid-run changes
/// performance only, never answers — which is exactly what the A/B
/// benchmarks and the SIMD-vs-scalar CI check rely on.
pub fn force_kernel(choice: Option<KernelChoice>) {
    let value = match choice {
        Some(k) if kernel_supported(k) => k as u8,
        Some(_) => KernelChoice::Scalar as u8,
        None => KERNEL_UNSET,
    };
    ACTIVE_KERNEL.store(value, Ordering::Relaxed);
}

/// Squared Euclidean distances from `query` to all [`LANES`] lanes of
/// `group`, written to `out` (padding lanes included — callers mask with
/// [`BlockedVectors::valid_lanes`]).
///
/// Matches the per-point scalar accumulation bit for bit on every kernel
/// (see the module docs). Dimensions beyond `min(query.len(), group.dim())`
/// are ignored, mirroring the scalar kernel's zip semantics.
pub fn squared_l2_lanes(query: &[f32], group: LaneGroup<'_>, out: &mut [Dist; LANES]) {
    let dim = group.dim.min(query.len());
    match active_kernel() {
        KernelChoice::Scalar => scalar_lanes(query, group.data, dim, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the kernel choice is either runtime-detected or clamped
        // by `force_kernel`, so the required features are present; both
        // kernels read only `dim * LANES` floats from the bounds-checked
        // group slice.
        KernelChoice::Sse2 => unsafe { sse2_lanes(query, group.data, dim, out) },
        #[cfg(target_arch = "x86_64")]
        KernelChoice::Avx2Fma => unsafe { avx2_lanes(query, group.data, dim, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar_lanes(query, group.data, dim, out),
    }
}

/// Portable fallback. Deliberately lane-outer (each lane runs the full
/// sequential dimension loop with strided loads) so the compiler cannot
/// re-vectorize it across lanes: when `RBC_FORCE_SCALAR` is set this is
/// the honest scalar baseline the speedup ratios are measured against.
fn scalar_lanes(query: &[f32], data: &[f32], dim: usize, out: &mut [Dist; LANES]) {
    for (lane, slot) in out.iter_mut().enumerate() {
        let mut acc = 0.0f64;
        for d in 0..dim {
            let diff = f64::from(query[d] - data[d * LANES + lane]);
            acc += diff * diff;
        }
        *slot = acc;
    }
}

/// SSE2 kernel: the 8 lanes as two `f32` quads, each widened to two `f64`
/// pairs; multiply + add (no FMA on baseline x86_64, and none needed for
/// bit-compatibility — the product is exact either way).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn sse2_lanes(query: &[f32], data: &[f32], dim: usize, out: &mut [Dist; LANES]) {
    use std::arch::x86_64::*;
    debug_assert!(data.len() >= dim * LANES);
    let mut acc = [_mm_setzero_pd(); 4];
    for (d, &qv) in query[..dim].iter().enumerate() {
        let q = _mm_set1_ps(qv);
        let row = data.as_ptr().add(d * LANES);
        for half in 0..2 {
            let x = _mm_loadu_ps(row.add(half * 4));
            let diff = _mm_sub_ps(q, x);
            let lo = _mm_cvtps_pd(diff);
            let hi = _mm_cvtps_pd(_mm_movehl_ps(diff, diff));
            acc[half * 2] = _mm_add_pd(acc[half * 2], _mm_mul_pd(lo, lo));
            acc[half * 2 + 1] = _mm_add_pd(acc[half * 2 + 1], _mm_mul_pd(hi, hi));
        }
    }
    for (i, a) in acc.iter().enumerate() {
        _mm_storeu_pd(out.as_mut_ptr().add(i * 2), *a);
    }
}

/// AVX2 + FMA kernel: one 8-wide `f32` load and subtract per dimension,
/// widened to two 4-wide `f64` accumulators driven by fused multiply-adds
/// (exact here, so still bit-identical to the scalar path).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_lanes(query: &[f32], data: &[f32], dim: usize, out: &mut [Dist; LANES]) {
    use std::arch::x86_64::*;
    debug_assert!(data.len() >= dim * LANES);
    let mut acc_lo = _mm256_setzero_pd();
    let mut acc_hi = _mm256_setzero_pd();
    for (d, &qv) in query[..dim].iter().enumerate() {
        let q = _mm256_set1_ps(qv);
        let x = _mm256_loadu_ps(data.as_ptr().add(d * LANES));
        let diff = _mm256_sub_ps(q, x);
        let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(diff));
        let hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(diff));
        acc_lo = _mm256_fmadd_pd(lo, lo, acc_lo);
        acc_hi = _mm256_fmadd_pd(hi, hi, acc_hi);
    }
    _mm256_storeu_pd(out.as_mut_ptr(), acc_lo);
    _mm256_storeu_pd(out.as_mut_ptr().add(4), acc_hi);
}

/// Largest dimension the screen's rounding bound is proven for; above it
/// [`screen_squared_l2`] keeps every lane.
const SCREEN_MAX_DIM: usize = 1 << 16;

/// Floor of the screen's limit: below it `f32` products underflow and the
/// relative rounding bounds no longer hold (see the module docs).
const SCREEN_FLOOR: f64 = f64::from_bits((1023 - 100) << 52); // 2⁻¹⁰⁰

/// `u = 2⁻²⁴`, the unit roundoff of `f32`.
const F32_ROUNDOFF: f64 = 1.0 / (1u64 << 24) as f64;

/// The largest `f32` sum the screen can produce for a lane whose canonical
/// squared distance matters under `sq_bound` — `sq_bound` inflated by the
/// rounding slack of the module docs, floored, and rounded **up** to `f32`.
/// `+∞` (keep everything) for a NaN or `+∞` bound, one that overflows
/// `f32`, or a dimension the bound is not proven for.
fn screen_limit(sq_bound: f64, dim: usize) -> f32 {
    if sq_bound.is_nan() || dim > SCREEN_MAX_DIM {
        return f32::INFINITY;
    }
    let x = (2 * dim + 8) as f64 * F32_ROUNDOFF;
    let limit = (sq_bound * (1.0 + x * (1.0 + x))).max(SCREEN_FLOOR);
    // `as` rounds to nearest (and saturates to +∞); step up if it went down.
    let nearest = limit as f32;
    if f64::from(nearest) < limit {
        nearest.next_up()
    } else {
        nearest
    }
}

/// Runs a `G`-groups-at-a-time screen kernel over `groups` lane groups of
/// `data`: blocks of four (one accumulator per group and query, so at
/// least four independent dependency chains), then the 1–3 groups left
/// over in one call. The kernel takes the `[lead]` arguments, a pointer to
/// its first group, `stride`, and the index of its first group — where its
/// masks go in `keep` — and, when given, the tile size `<T>` after `G`.
#[cfg(target_arch = "x86_64")]
macro_rules! screen_in_fours {
    ($kernel:ident $(<$tile:ident>)?, [$($lead:ident),+], $data:ident, $stride:ident, $groups:expr) => {{
        let groups: usize = $groups;
        let mut at = 0;
        while at + 4 <= groups {
            $kernel::<4 $(, $tile)?>($($lead,)+ $data.as_ptr().add(at * $stride), $stride, at);
            at += 4;
        }
        let data = $data.as_ptr().add(at * $stride);
        match groups - at {
            3 => $kernel::<3 $(, $tile)?>($($lead,)+ data, $stride, at),
            2 => $kernel::<2 $(, $tile)?>($($lead,)+ data, $stride, at),
            1 => $kernel::<1 $(, $tile)?>($($lead,)+ data, $stride, at),
            _ => {}
        }
    }};
}

/// Most queries one [`screen_squared_l2`] call screens: every lane group it
/// loads is subtracted from up to this many queries before the next one is
/// read, and the exact group scan tiles a list's cursors by it. Four is the
/// most whose sums fit beside a block's rows in the sixteen AVX2 registers
/// (as two pairs of four-group blocks). Measured on a 2-vCPU AVX2+FMA host
/// at `exact_batch`'s shape (n = 200 000, k = 10, batches of 128), in one
/// process against the untiled scan, medians of 20 alternations: tiles of
/// one ran `exact_batch` at 0.96× its time, of two at 0.94–0.96×, of four
/// at 0.93× on one thread and on two. On an L1-hot block the kernel costs
/// 0.7–0.9 ns per lane and query at T = 2–4 against 1.1–1.3 ns at T = 1;
/// the rest of a screen is the first read of each group, which a tile
/// makes once, and the untiled scan made once too, its later cursors
/// finding the run in L1.
pub const SCREEN_QUERIES: usize = 4;

/// Screens the lane groups of `block` for up to [`SCREEN_QUERIES`]
/// queries at once, each against its own canonical **squared** distance
/// bound: `keep[t * block.groups() + j]` gets one bit per lane of group
/// `j` for query `t`, cleared only if that lane's [`squared_l2_lanes`]
/// result for `queries[t]` is certainly above `sq_bounds[t]` (and its
/// square root above `sqrt(sq_bounds[t])`), on every kernel. A set bit
/// promises nothing — recompute the group canonically before using any
/// lane of it. Padding lanes are screened like the point they replicate;
/// `keep` beyond `queries.len() * block.groups()` is left alone.
///
/// Each group is loaded once for the whole tile, and each query's mask is
/// the one a call for that query alone would return, bit for bit: its
/// sums are accumulated in the same order with the same roundings. The
/// masks themselves are *not* part of the bit-compatibility contract
/// between kernels (see the module docs). Dimensions beyond
/// `min(queries[t].len(), block.dim())` are ignored, as in the group
/// kernel.
///
/// # Panics
/// Panics if `sq_bounds` is not one bound per query, if there are more
/// than [`SCREEN_QUERIES`] queries, or if `keep` is shorter than
/// `queries.len() * block.groups()`.
pub fn screen_squared_l2(
    queries: &[&[f32]],
    block: LaneBlock<'_>,
    sq_bounds: &[Dist],
    keep: &mut [u8],
) {
    assert!(
        queries.len() == sq_bounds.len() && queries.len() <= SCREEN_QUERIES,
        "a screen takes one bound per query and at most {SCREEN_QUERIES} queries"
    );
    let groups = block.groups();
    let keep = &mut keep[..queries.len() * groups];
    match *queries {
        _ if groups == 0 => {}
        [] => {}
        [q] => screen_tile([q], [sq_bounds[0]], block, groups, keep),
        _ => screen_tiles(queries, block, sq_bounds, groups, keep),
    }
}

/// [`screen_squared_l2`] for two to [`SCREEN_QUERIES`] queries, out of
/// line, so that the one-query calls (every stage-1 screen, a lone cursor's)
/// stay short.
#[inline(never)]
fn screen_tiles(
    queries: &[&[f32]],
    block: LaneBlock<'_>,
    sq_bounds: &[Dist],
    groups: usize,
    keep: &mut [u8],
) {
    let dim = |query: &[f32]| block.dim.min(query.len());
    if queries.iter().any(|&query| dim(query) != dim(queries[0])) {
        // Queries of unequal lengths screen different dimensions: one by one.
        let rows = keep.chunks_mut(groups);
        for ((&query, &sq_bound), keep) in queries.iter().zip(sq_bounds).zip(rows) {
            screen_tile([query], [sq_bound], block, groups, keep);
        }
        return;
    }
    let b = sq_bounds;
    match *queries {
        [q, r] => screen_tile([q, r], [b[0], b[1]], block, groups, keep),
        [q, r, s] => screen_tile([q, r, s], [b[0], b[1], b[2]], block, groups, keep),
        [q, r, s, t] => {
            // Sixteen accumulators do not fit beside the rows: two pairs,
            // the second reading the groups the first just brought into L1.
            let (front, back) = keep.split_at_mut(2 * groups);
            screen_tile([q, r], [b[0], b[1]], block, groups, front);
            screen_tile([s, t], [b[2], b[3]], block, groups, back);
        }
        _ => unreachable!("two to {SCREEN_QUERIES} queries"),
    }
}

/// [`screen_squared_l2`] for a tile of `T` queries, all screening the same
/// dimensions, over the `groups` lane groups of `block`: query `t`'s masks
/// go to `keep[t * groups..]`.
#[inline(always)]
fn screen_tile<const T: usize>(
    queries: [&[f32]; T],
    sq_bounds: [Dist; T],
    block: LaneBlock<'_>,
    groups: usize,
    keep: &mut [u8],
) {
    let dim = block.dim.min(queries[0].len());
    // A query whose limit is `+∞` keeps every lane; the kernels say so too,
    // at the price of a screen.
    let limits = sq_bounds.map(|sq_bound| screen_limit(sq_bound, dim));
    if limits.iter().all(|&limit| limit == f32::INFINITY) {
        keep.fill(u8::MAX);
        return;
    }
    let queries = queries.map(|query| &query[..dim]);
    let (data, stride) = (block.data, block.dim * LANES);
    match active_kernel() {
        KernelChoice::Scalar => scalar_screen(&queries, &limits, keep, groups, data, stride),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the kernel choice is either runtime-detected or clamped
        // by `force_kernel`, so the required features are present. A
        // `LaneBlock` holds `groups` whole groups of `stride` floats, `keep`
        // one row of `groups` masks per query, and every query is `dim` long
        // with `dim * LANES <= stride`, which is every float the kernels
        // read: `dim * LANES` from the start of each group.
        KernelChoice::Sse2 => unsafe { sse2_screen(queries, limits, keep, groups, data, stride) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as for SSE2 above.
        KernelChoice::Avx2Fma => unsafe {
            avx2_screen(queries, limits, keep, groups, data, stride)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar_screen(&queries, &limits, keep, groups, data, stride),
    }
}

/// Portable screen: per query and lane, the `f32` differences squared and
/// summed in `f32` (two roundings per term). Lane-outer like
/// [`scalar_lanes`].
fn scalar_screen<const T: usize>(
    queries: &[&[f32]; T],
    limits: &[f32; T],
    keep: &mut [u8],
    groups: usize,
    data: &[f32],
    stride: usize,
) {
    for ((query, &limit), keep) in queries.iter().zip(limits).zip(keep.chunks_mut(groups)) {
        for (slot, group) in keep.iter_mut().zip(data.chunks_exact(stride)) {
            *slot = 0;
            for lane in 0..LANES {
                let mut sum = 0.0f32;
                for (d, &qv) in query.iter().enumerate() {
                    let diff = qv - group[d * LANES + lane];
                    sum += diff * diff;
                }
                // Not `sum <= limit`: a NaN sum must keep its lane.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let kept = !(sum > limit);
                *slot |= u8::from(kept) << lane;
            }
        }
    }
}

/// SSE2 screen of `groups` groups of `data` for `T` queries, query `t`'s
/// masks to `keep[t * groups..]`.
///
/// # Safety
/// The CPU must support SSE2, the queries must all be `dim` long, and
/// `data` must hold `groups` groups of `stride >= dim * LANES` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn sse2_screen<const T: usize>(
    queries: [&[f32]; T],
    limits: [f32; T],
    keep: &mut [u8],
    groups: usize,
    data: &[f32],
    stride: usize,
) {
    debug_assert!(data.len() >= groups * stride && keep.len() >= T * groups);
    debug_assert!(queries
        .iter()
        .all(|q| q.len() == queries[0].len() && q.len() * LANES <= stride));
    let (queries, limits) = (&queries, &limits);
    screen_in_fours!(
        sse2_screen_groups<T>,
        [queries, limits, keep, groups],
        data,
        stride,
        groups
    );
}

/// SSE2 screen of `G` groups for `T` queries: each group's 8 lanes as two
/// `f32` quads, multiply + add (two roundings per term); the masks of
/// group `at + j` for query `t` go to `keep[t * groups + at + j]`.
///
/// # Safety
/// The CPU must support SSE2, the queries must all be `dim` long, and
/// `data` must point at `G` groups of `stride >= dim * LANES` readable
/// floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
unsafe fn sse2_screen_groups<const G: usize, const T: usize>(
    queries: &[&[f32]; T],
    limits: &[f32; T],
    keep: &mut [u8],
    groups: usize,
    data: *const f32,
    stride: usize,
    at: usize,
) {
    use std::arch::x86_64::*;
    let mut acc = [[[_mm_setzero_ps(); 2]; G]; T];
    for d in 0..queries[0].len() {
        let row = data.add(d * LANES);
        for (sums, query) in acc.iter_mut().zip(queries) {
            // SAFETY: `d < queries[0].len()`, and every query is as long
            // (the caller's contract, which `screen_squared_l2` makes
            // true by slicing each query to the shared `dim`). Checked
            // indexing here cost the one-query screen ≈ 25 %.
            let q = _mm_set1_ps(*query.get_unchecked(d));
            for (j, halves) in sums.iter_mut().enumerate() {
                for (half, sum) in halves.iter_mut().enumerate() {
                    let diff = _mm_sub_ps(q, _mm_loadu_ps(row.add(j * stride + half * 4)));
                    *sum = _mm_add_ps(*sum, _mm_mul_ps(diff, diff));
                }
            }
        }
    }
    for (t, (sums, &limit)) in acc.into_iter().zip(limits).enumerate() {
        let limit = _mm_set1_ps(limit);
        for (slot, [lo, hi]) in keep[t * groups + at..][..G].iter_mut().zip(sums) {
            // "Not greater than" is true on NaN: a NaN sum keeps its lane.
            let lo = _mm_movemask_ps(_mm_cmpngt_ps(lo, limit));
            let hi = _mm_movemask_ps(_mm_cmpngt_ps(hi, limit));
            *slot = (lo | hi << 4) as u8;
        }
    }
}

/// AVX2 + FMA screen of `groups` groups of `data` for `T` queries.
///
/// # Safety
/// The CPU must support AVX2 and FMA; otherwise as [`sse2_screen`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_screen<const T: usize>(
    queries: [&[f32]; T],
    limits: [f32; T],
    keep: &mut [u8],
    groups: usize,
    data: &[f32],
    stride: usize,
) {
    debug_assert!(data.len() >= groups * stride && keep.len() >= T * groups);
    debug_assert!(queries
        .iter()
        .all(|q| q.len() == queries[0].len() && q.len() * LANES <= stride));
    let (queries, limits) = (&queries, &limits);
    screen_in_fours!(
        avx2_screen_groups<T>,
        [queries, limits, keep, groups],
        data,
        stride,
        groups
    );
}

/// AVX2 + FMA screen of `G` groups for `T` queries: per group and
/// dimension one 8-wide load, then per query a subtract and a fused
/// multiply-add (one rounding per term); masks placed as in
/// [`sse2_screen_groups`].
///
/// # Safety
/// The CPU must support AVX2 and FMA; otherwise as [`sse2_screen_groups`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn avx2_screen_groups<const G: usize, const T: usize>(
    queries: &[&[f32]; T],
    limits: &[f32; T],
    keep: &mut [u8],
    groups: usize,
    data: *const f32,
    stride: usize,
    at: usize,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); G]; T];
    for d in 0..queries[0].len() {
        let row = data.add(d * LANES);
        let mut x = [_mm256_setzero_ps(); G];
        for (j, x) in x.iter_mut().enumerate() {
            *x = _mm256_loadu_ps(row.add(j * stride));
        }
        for (sums, query) in acc.iter_mut().zip(queries) {
            // SAFETY: as in `sse2_screen_groups`.
            let q = _mm256_set1_ps(*query.get_unchecked(d));
            for (sum, &x) in sums.iter_mut().zip(&x) {
                let diff = _mm256_sub_ps(q, x);
                *sum = _mm256_fmadd_ps(diff, diff, *sum);
            }
        }
    }
    for (t, (sums, &limit)) in acc.into_iter().zip(limits).enumerate() {
        let limit = _mm256_set1_ps(limit);
        for (slot, sum) in keep[t * groups + at..][..G].iter_mut().zip(sums) {
            // "Not greater than, unordered": a NaN sum keeps its lane.
            *slot = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NGT_UQ>(sum, limit)) as u8;
        }
    }
}

/// Screens the lane groups of a coded `block` against a **Euclidean**
/// distance bound: bit `lane` of `keep[j]` is cleared only if that lane's
/// canonical Euclidean distance to `query` — computed from the point
/// itself, not its code — is certainly above `bound`, on every kernel. A set
/// bit promises nothing. The limit is the plain screen's for
/// `(bound + err)²` at `dim + 2` (see the module docs); a NaN or `+∞` bound
/// or error radius keeps every lane. Padding lanes, `keep` beyond
/// `block.groups()` and the dimensions past `query.len()` are treated as in
/// [`screen_squared_l2`].
///
/// # Panics
/// Panics if `keep` is shorter than `block.groups()`.
pub fn screen_codes_l2(query: &[f32], block: CodeBlock<'_>, bound: Dist, keep: &mut [u8]) {
    let keep = &mut keep[..block.groups()];
    let dim = block.dim().min(query.len());
    let reach = bound + block.err;
    let limit = screen_limit(reach * reach, dim + 2);
    if limit == f32::INFINITY {
        keep.fill(u8::MAX);
        return;
    }
    let query = &query[..dim];
    let stride = block.dim() * LANES;
    let (codes, lo, step) = (block.codes, &block.lo[..dim], &block.step[..dim]);
    match active_kernel() {
        KernelChoice::Scalar => scalar_screen_codes(query, lo, step, codes, stride, limit, keep),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the kernel choice is either runtime-detected or clamped
        // by `force_kernel`, so the required features are present. A
        // `CodeBlock` holds `keep.len()` whole groups of `stride` codes,
        // `lo` and `step` are `query.len()` long and `query.len() * LANES <=
        // stride`: every byte the kernels read is `query.len() * LANES` from
        // the start of each group.
        KernelChoice::Sse2 => unsafe {
            sse2_screen_codes(query, lo, step, codes, stride, limit, keep)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as for SSE2 above.
        KernelChoice::Avx2Fma => unsafe {
            avx2_screen_codes(query, lo, step, codes, stride, limit, keep)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar_screen_codes(query, lo, step, codes, stride, limit, keep),
    }
}

/// Portable code screen: per lane, decode (`lo + step·code`, exact), the
/// `f32` difference squared and summed in `f32`. Lane-outer like
/// [`scalar_lanes`].
fn scalar_screen_codes(
    query: &[f32],
    lo: &[f32],
    step: &[f32],
    codes: &[u8],
    stride: usize,
    limit: f32,
    keep: &mut [u8],
) {
    for (slot, group) in keep.iter_mut().zip(codes.chunks_exact(stride)) {
        *slot = 0;
        for lane in 0..LANES {
            let mut sum = 0.0f32;
            for (d, &qv) in query.iter().enumerate() {
                let decoded = lo[d] + step[d] * f32::from(group[d * LANES + lane]);
                let diff = qv - decoded;
                sum += diff * diff;
            }
            // Not `sum <= limit`: a NaN sum must keep its lane.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let kept = !(sum > limit);
            *slot |= u8::from(kept) << lane;
        }
    }
}

/// SSE2 code screen: each group's 8 codes widened to two `i32` quads,
/// converted, decoded with multiply + add (exact), then the float screen's
/// multiply + add.
///
/// # Safety
/// The CPU must support SSE2, `lo` and `step` must be `query.len()` long,
/// and `codes` must hold `keep.len()` groups of `stride >= query.len() *
/// LANES` bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn sse2_screen_codes(
    query: &[f32],
    lo: &[f32],
    step: &[f32],
    codes: &[u8],
    stride: usize,
    limit: f32,
    keep: &mut [u8],
) {
    debug_assert!(codes.len() >= keep.len() * stride && stride >= query.len() * LANES);
    debug_assert!(lo.len() == query.len() && step.len() == query.len());
    screen_in_fours!(
        sse2_screen_code_groups,
        [query, lo, step, limit, keep],
        codes,
        stride,
        keep.len()
    );
}

/// # Safety
/// As [`sse2_screen_codes`], with `codes` pointing at `G` groups, whose
/// masks go to `keep[at..at + G]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
#[allow(clippy::too_many_arguments)] // the flat kernel signature of `screen_in_fours!`
unsafe fn sse2_screen_code_groups<const G: usize>(
    query: &[f32],
    lo: &[f32],
    step: &[f32],
    limit: f32,
    keep: &mut [u8],
    codes: *const u8,
    stride: usize,
    at: usize,
) {
    use std::arch::x86_64::*;
    let zero = _mm_setzero_si128();
    let mut acc = [[_mm_setzero_ps(); 2]; G];
    for (d, &qv) in query.iter().enumerate() {
        let (q, lo, step) = (_mm_set1_ps(qv), _mm_set1_ps(lo[d]), _mm_set1_ps(step[d]));
        let row = codes.add(d * LANES);
        for (j, halves) in acc.iter_mut().enumerate() {
            let bytes = _mm_loadl_epi64(row.add(j * stride) as *const __m128i);
            let words = _mm_unpacklo_epi8(bytes, zero);
            let quads = [
                _mm_unpacklo_epi16(words, zero),
                _mm_unpackhi_epi16(words, zero),
            ];
            for (sum, quad) in halves.iter_mut().zip(quads) {
                let decoded = _mm_add_ps(_mm_mul_ps(_mm_cvtepi32_ps(quad), step), lo);
                let diff = _mm_sub_ps(q, decoded);
                *sum = _mm_add_ps(*sum, _mm_mul_ps(diff, diff));
            }
        }
    }
    let limit = _mm_set1_ps(limit);
    for (slot, [lo, hi]) in keep[at..][..G].iter_mut().zip(acc) {
        // "Not greater than" is true on NaN: a NaN sum keeps its lane.
        let lo = _mm_movemask_ps(_mm_cmpngt_ps(lo, limit));
        let hi = _mm_movemask_ps(_mm_cmpngt_ps(hi, limit));
        *slot = (lo | hi << 4) as u8;
    }
}

/// AVX2 + FMA code screen: per group and dimension one 8-byte load widened
/// and converted to eight floats, a fused decode (exact), a subtract and a
/// fused multiply-add.
///
/// # Safety
/// The CPU must support AVX2 and FMA; otherwise as [`sse2_screen_codes`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_screen_codes(
    query: &[f32],
    lo: &[f32],
    step: &[f32],
    codes: &[u8],
    stride: usize,
    limit: f32,
    keep: &mut [u8],
) {
    debug_assert!(codes.len() >= keep.len() * stride && stride >= query.len() * LANES);
    debug_assert!(lo.len() == query.len() && step.len() == query.len());
    screen_in_fours!(
        avx2_screen_code_groups,
        [query, lo, step, limit, keep],
        codes,
        stride,
        keep.len()
    );
}

/// # Safety
/// As [`avx2_screen_codes`], with `codes` pointing at `G` groups, whose
/// masks go to `keep[at..at + G]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
#[allow(clippy::too_many_arguments)] // the flat kernel signature of `screen_in_fours!`
unsafe fn avx2_screen_code_groups<const G: usize>(
    query: &[f32],
    lo: &[f32],
    step: &[f32],
    limit: f32,
    keep: &mut [u8],
    codes: *const u8,
    stride: usize,
    at: usize,
) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_ps(); G];
    for (d, &qv) in query.iter().enumerate() {
        let (q, lo, step) = (
            _mm256_set1_ps(qv),
            _mm256_set1_ps(lo[d]),
            _mm256_set1_ps(step[d]),
        );
        let row = codes.add(d * LANES);
        for (j, sum) in acc.iter_mut().enumerate() {
            let bytes = _mm_loadl_epi64(row.add(j * stride) as *const __m128i);
            let code = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
            let diff = _mm256_sub_ps(q, _mm256_fmadd_ps(code, step, lo));
            *sum = _mm256_fmadd_ps(diff, diff, *sum);
        }
    }
    let limit = _mm256_set1_ps(limit);
    for (slot, sum) in keep[at..][..G].iter_mut().zip(acc) {
        // "Not greater than, unordered": a NaN sum keeps its lane.
        *slot = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NGT_UQ>(sum, limit)) as u8;
    }
}

/// Which entries of a row two cuts leave standing, as a bit mask: bit
/// `i % 64` of `out[i / 64]` is set unless `values[i] >= shift +
/// offsets[i]` or `values[i] > cap`. Both comparisons are false on NaN, so
/// a NaN value or offset clears nothing, and a NaN `shift` turns the first
/// cut off. Bits past `values.len()` in the last word are clear.
///
/// One addition and two comparisons per entry, each exact, so every kernel
/// sets the same bits — this mask is inside the bit-compatibility contract.
///
/// # Panics
/// Panics if `offsets` is shorter than `values` or `out` shorter than
/// `values.len().div_ceil(64)`.
pub fn cut_mask(values: &[Dist], offsets: &[Dist], shift: Dist, cap: Dist, out: &mut [u64]) {
    let words = values.len().div_ceil(64);
    let (offsets, out) = (&offsets[..values.len()], &mut out[..words]);
    match active_kernel() {
        KernelChoice::Scalar => scalar_cut_mask(values, offsets, shift, cap, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the kernel choice is runtime-detected or clamped by
        // `force_kernel`, so the features are present; both kernels read
        // whole lanes only inside the equally long `values` and `offsets`.
        KernelChoice::Sse2 => unsafe { sse2_cut_mask(values, offsets, shift, cap, out) },
        #[cfg(target_arch = "x86_64")]
        KernelChoice::Avx2Fma => unsafe { avx2_cut_mask(values, offsets, shift, cap, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar_cut_mask(values, offsets, shift, cap, out),
    }
}

/// The bits of `values[from..]` (at most one word's worth, starting at bit
/// `from`), entry by entry: the portable kernel, and every SIMD kernel's tail.
#[inline]
fn cut_bits(values: &[Dist], offsets: &[Dist], shift: Dist, cap: Dist, from: usize) -> u64 {
    let entries = values[from..].iter().zip(&offsets[from..]);
    entries.enumerate().fold(0, |bits, (j, (&v, &o))| {
        let cut = (v >= shift + o) | (v > cap);
        bits | u64::from(!cut) << (from + j)
    })
}

fn scalar_cut_mask(values: &[Dist], offsets: &[Dist], shift: Dist, cap: Dist, out: &mut [u64]) {
    for ((word, v), o) in out
        .iter_mut()
        .zip(values.chunks(64))
        .zip(offsets.chunks(64))
    {
        *word = cut_bits(v, o, shift, cap, 0);
    }
}

/// SSE2: two entries per comparison.
///
/// # Safety
/// The CPU must support SSE2, `offsets` must be as long as `values`, and
/// `out` must have a word per 64 values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn sse2_cut_mask(
    values: &[Dist],
    offsets: &[Dist],
    shift: Dist,
    cap: Dist,
    out: &mut [u64],
) {
    use std::arch::x86_64::*;
    let (shifts, caps) = (_mm_set1_pd(shift), _mm_set1_pd(cap));
    for ((word, v), o) in out
        .iter_mut()
        .zip(values.chunks(64))
        .zip(offsets.chunks(64))
    {
        let pairs = v.len() / 2 * 2;
        let mut bits = cut_bits(v, o, shift, cap, pairs);
        for j in (0..pairs).step_by(2) {
            let x = _mm_loadu_pd(v.as_ptr().add(j));
            let limit = _mm_add_pd(shifts, _mm_loadu_pd(o.as_ptr().add(j)));
            // "Not greater (or equal)" is true on NaN: a NaN cuts nothing.
            let kept = _mm_and_pd(_mm_cmpnge_pd(x, limit), _mm_cmpngt_pd(x, caps));
            bits |= (_mm_movemask_pd(kept) as u64) << j;
        }
        *word = bits;
    }
}

/// AVX2: four entries per comparison.
///
/// # Safety
/// The CPU must support AVX2 and FMA, `offsets` must be as long as
/// `values`, and `out` must have a word per 64 values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_cut_mask(
    values: &[Dist],
    offsets: &[Dist],
    shift: Dist,
    cap: Dist,
    out: &mut [u64],
) {
    use std::arch::x86_64::*;
    let (shifts, caps) = (_mm256_set1_pd(shift), _mm256_set1_pd(cap));
    for ((word, v), o) in out
        .iter_mut()
        .zip(values.chunks(64))
        .zip(offsets.chunks(64))
    {
        let quads = v.len() / 4 * 4;
        let mut bits = cut_bits(v, o, shift, cap, quads);
        for j in (0..quads).step_by(4) {
            let x = _mm256_loadu_pd(v.as_ptr().add(j));
            let limit = _mm256_add_pd(shifts, _mm256_loadu_pd(o.as_ptr().add(j)));
            // "Not greater (or equal), unordered": a NaN cuts nothing.
            let below = _mm256_cmp_pd::<_CMP_NGE_UQ>(x, limit);
            let kept = _mm256_and_pd(below, _mm256_cmp_pd::<_CMP_NGT_UQ>(x, caps));
            bits |= (_mm256_movemask_pd(kept) as u64) << j;
        }
        *word = bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) as f32 / u32::MAX as f32) * 10.0 - 5.0
                    })
                    .collect()
            })
            .collect()
    }

    fn flat(rows: &[Vec<f32>]) -> Vec<f32> {
        rows.iter().flatten().copied().collect()
    }

    /// The canonical scalar semantics, restated independently.
    fn reference_sql2(a: &[f32], b: &[f32]) -> f64 {
        let mut acc = 0.0f64;
        for (x, y) in a.iter().zip(b) {
            let d = f64::from(x - y);
            acc += d * d;
        }
        acc
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn blocked_layout_round_trips_and_pads_with_last_point() {
        for n in [1usize, 7, 8, 9, 16, 23] {
            let dim = 5;
            let data = rows(n, dim, n as u64);
            let blocked = BlockedVectors::from_flat(&flat(&data), dim);
            assert_eq!(blocked.len(), n);
            assert_eq!(blocked.num_groups(), n.div_ceil(LANES));
            for g in 0..blocked.num_groups() {
                let group = blocked.group(g);
                for lane in 0..LANES {
                    let point = (g * LANES + lane).min(n - 1);
                    for d in 0..dim {
                        assert_eq!(
                            group.as_slice()[d * LANES + lane],
                            data[point][d],
                            "n={n} g={g} lane={lane} d={d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn group_start_is_cache_line_aligned() {
        let data = rows(20, 7, 3);
        let blocked = BlockedVectors::from_flat(&flat(&data), 7);
        let addr = blocked.group(0).as_slice().as_ptr() as usize;
        assert_eq!(addr % 64, 0, "group data must start on a cache line");
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn gather_selects_rows_in_index_order() {
        let data = rows(30, 4, 9);
        let indices = [13usize, 2, 2, 29, 0, 7, 21, 8, 16];
        let blocked = BlockedVectors::gather_flat(&flat(&data), 4, &indices);
        assert_eq!(blocked.len(), indices.len());
        for (i, &p) in indices.iter().enumerate() {
            let group = blocked.group(i / LANES);
            for d in 0..4 {
                assert_eq!(group.as_slice()[d * LANES + i % LANES], data[p][d]);
            }
        }
    }

    #[test]
    fn block_views_consecutive_groups() {
        let data = rows(29, 3, 5);
        let blocked = BlockedVectors::from_flat(&flat(&data), 3);
        let block = blocked.block(1..3);
        assert_eq!((block.groups(), block.dim()), (2, 3));
        let joined = [blocked.group(1).as_slice(), blocked.group(2).as_slice()].concat();
        assert_eq!(block.data, joined);
        assert_eq!(blocked.block(4..4).groups(), 0);
    }

    #[test]
    fn a_screen_of_no_groups_writes_nothing_whatever_the_tile() {
        let blocked = BlockedVectors::from_flat(&[0.5; 24], 3);
        let (short, long) = ([1.0f32, 2.0], [1.0f32, 2.0, 3.0]);
        for kernel in [
            KernelChoice::Scalar,
            KernelChoice::Sse2,
            KernelChoice::Avx2Fma,
        ] {
            force_kernel(Some(kernel));
            for queries in [
                &[&long[..]][..],
                &[&long, &long, &long, &long],
                &[&short, &long],
            ] {
                let mut keep = [7u8; 4];
                let bounds = vec![1.0; queries.len()];
                screen_squared_l2(queries, blocked.block(1..1), &bounds, &mut keep);
                assert_eq!(keep, [7; 4]);
            }
        }
        force_kernel(None);
    }

    #[test]
    fn screen_limit_rounds_up_and_gives_way_at_the_edges() {
        for (bound, dim) in [
            (1.0, 1usize),
            (3.7e5, 64),
            (1e-3, 65),
            (2.5e38, 3),
            (7.0, 1 << 16),
        ] {
            let limit = screen_limit(bound, dim);
            let x = (2 * dim + 8) as f64 * F32_ROUNDOFF;
            let exact = bound * (1.0 + x * (1.0 + x));
            assert!(f64::from(limit) >= exact, "bound {bound} dim {dim}");
            assert!(
                f64::from(limit.next_down()) < exact,
                "bound {bound} dim {dim}"
            );
        }
        // The floor, for bounds whose squares underflow `f32` arithmetic.
        for bound in [0.0, -1.0, 1e-40] {
            assert_eq!(f64::from(screen_limit(bound, 8)), SCREEN_FLOOR);
        }
        assert_eq!(SCREEN_FLOOR, 0.5f64.powi(100));
        // Keep everything: no bound, no comparable bound, a bound past
        // `f32`, a dimension past the proof.
        assert_eq!(screen_limit(f64::INFINITY, 8), f32::INFINITY);
        assert_eq!(screen_limit(f64::NAN, 8), f32::INFINITY);
        assert_eq!(screen_limit(3.5e38, 8), f32::INFINITY);
        assert_eq!(screen_limit(1.0, SCREEN_MAX_DIM + 1), f32::INFINITY);
    }

    #[test]
    fn every_kernel_is_bit_identical_to_the_reference() {
        for dim in [1usize, 3, 7, 8, 12, 17, 64] {
            let db = rows(19, dim, dim as u64);
            let queries = rows(4, dim, 100 + dim as u64);
            let blocked = BlockedVectors::from_flat(&flat(&db), dim);
            for choice in [
                KernelChoice::Scalar,
                KernelChoice::Sse2,
                KernelChoice::Avx2Fma,
            ] {
                force_kernel(Some(choice));
                for q in &queries {
                    let mut out = [0.0f64; LANES];
                    for g in 0..blocked.num_groups() {
                        squared_l2_lanes(q, blocked.group(g), &mut out);
                        for lane in 0..blocked.valid_lanes(g) {
                            let want = reference_sql2(q, &db[g * LANES + lane]);
                            assert_eq!(
                                out[lane].to_bits(),
                                want.to_bits(),
                                "kernel {choice:?} dim {dim} point {}",
                                g * LANES + lane
                            );
                        }
                    }
                }
            }
            force_kernel(None);
        }
    }

    #[test]
    fn every_kernel_cuts_the_same_bits() {
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            1.5,
            2.5,
        ];
        // Every (value, offset) pair of specials, in turn and then shuffled
        // by a stride, so each lane of each kernel meets every pair and
        // `value == shift + offset` comes up at every shift.
        let n = specials.len();
        let pair = |i: usize| (specials[i % n], specials[i / n % n]);
        for len in [0usize, 1, 2, 3, 5, 63, 64, 65, 130, 409] {
            let (values, offsets): (Vec<f64>, Vec<f64>) = (0..len)
                .map(|i| pair(if len < 130 { i } else { i * 37 }))
                .unzip();
            for (shift, cap) in [
                (0.5, 2.0),
                (1.0, 1.5),
                (0.0, 1.0),
                (f64::NAN, 1.5),
                (1.0, f64::INFINITY),
                (-1.0, f64::NAN),
            ] {
                let mut want = vec![0u64; len.div_ceil(64)];
                for (i, (&v, &o)) in values.iter().zip(&offsets).enumerate() {
                    if !(v >= shift + o || v > cap) {
                        want[i / 64] |= 1 << (i % 64);
                    }
                }
                for choice in [
                    KernelChoice::Scalar,
                    KernelChoice::Sse2,
                    KernelChoice::Avx2Fma,
                ] {
                    force_kernel(Some(choice));
                    let mut got = vec![u64::MAX; len.div_ceil(64)];
                    cut_mask(&values, &offsets, shift, cap, &mut got);
                    assert_eq!(
                        got, want,
                        "kernel {choice:?}, {len} values, shift {shift}, cap {cap}"
                    );
                }
                force_kernel(None);
            }
        }
    }

    #[test]
    fn force_kernel_clamps_unsupported_choices_to_scalar() {
        force_kernel(Some(KernelChoice::Avx2Fma));
        let active = active_kernel();
        assert!(
            active == KernelChoice::Avx2Fma || active == KernelChoice::Scalar,
            "forced kernel must be the requested one or the safe fallback"
        );
        force_kernel(None);
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(KernelChoice::Scalar.name(), "scalar");
        assert_eq!(KernelChoice::Sse2.name(), "sse2");
        assert_eq!(KernelChoice::Avx2Fma.name(), "avx2+fma");
    }
}
