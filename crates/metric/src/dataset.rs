//! Dataset abstractions: indexed collections of items that a [`Metric`]
//! can measure distances over.
//!
//! The central concrete type is [`VectorSet`]: a dense, row-major `f32`
//! matrix holding `n` points of dimension `d`. This is the layout used by
//! the paper's CPU (OpenMP) and GPU (CUDA) implementations — contiguous
//! rows make the brute-force primitive's inner loops cache-friendly and
//! auto-vectorizable, and make tiling straightforward.
//!
//! [`SubsetView`] provides the `X[L]` notation from the paper: a borrowed
//! view of a dataset restricted to a list of indices, without copying.

use crate::metric::Metric;
use crate::simd::{BlockedVectors, CodedVectors};
use std::sync::OnceLock;

/// An indexed collection of items of type `Item`.
///
/// `Dataset` is intentionally tiny: the brute-force primitive and every
/// index structure in the workspace only ever need to know how many items
/// there are and how to borrow the `i`-th one. Implementations must be
/// [`Sync`] so worker threads can read them concurrently.
pub trait Dataset: Sync {
    /// The item type; unsized types such as `[f32]` and `str` are allowed.
    /// Items must be `Sync` because borrowed items are handed to worker
    /// threads (e.g. a query shared by a parallel reduction over the
    /// database).
    type Item: ?Sized + Sync;

    /// Number of items in the collection.
    fn len(&self) -> usize;

    /// Returns `true` if the collection holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows the `i`-th item.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    fn get(&self, i: usize) -> &Self::Item;

    /// Restricts this dataset to the given index list, i.e. the paper's
    /// `X[L]`.
    fn subset<'a>(&'a self, indices: &'a [usize]) -> SubsetView<'a, Self>
    where
        Self: Sized,
    {
        SubsetView::new(self, indices)
    }

    /// A blocked structure-of-arrays mirror of this dataset's items, when
    /// the implementation maintains one (dense vector sets do; general
    /// datasets return `None`, the default). The brute-force primitive
    /// consults this to run its SIMD lane kernels over full-database scans.
    fn lane_blocks(&self) -> Option<&BlockedVectors> {
        None
    }

    /// Gathers the selected items into a freshly blocked
    /// structure-of-arrays copy, when the item type supports blocking.
    ///
    /// Index structures call this once at build time to materialise a
    /// SIMD-scannable copy of each ownership list (whose members are
    /// arbitrary, non-contiguous database indices).
    fn gather_blocked(&self, _indices: &[usize]) -> Option<BlockedVectors> {
        None
    }

    /// Codes the selected items into a lane-blocked `u8` copy
    /// ([`CodedVectors`]), straight from the items, when the item type
    /// supports it — a quarter of [`gather_blocked`](Self::gather_blocked)'s
    /// bytes, for lists that are screened from codes and scored from the
    /// items themselves.
    fn gather_coded(&self, _indices: &[usize]) -> Option<CodedVectors> {
        None
    }
}

impl<D: Dataset> Dataset for &D {
    type Item = D::Item;

    fn len(&self) -> usize {
        (**self).len()
    }

    fn get(&self, i: usize) -> &Self::Item {
        (**self).get(i)
    }

    fn lane_blocks(&self) -> Option<&BlockedVectors> {
        (**self).lane_blocks()
    }

    fn gather_blocked(&self, indices: &[usize]) -> Option<BlockedVectors> {
        (**self).gather_blocked(indices)
    }

    fn gather_coded(&self, indices: &[usize]) -> Option<CodedVectors> {
        (**self).gather_coded(indices)
    }
}

/// A dense set of `n` points in `R^d`, stored row-major as `f32`.
///
/// This is the storage used for all of the paper's experimental datasets
/// (Table 1). Rows are contiguous, so `&set[i]` is a `&[f32]` slice of
/// length `dim` with no indirection.
#[derive(Clone, Debug)]
pub struct VectorSet {
    data: Vec<f32>,
    dim: usize,
    len: usize,
    /// Lazily built blocked SoA mirror for the SIMD scan path; invalidated
    /// by mutation, excluded from equality.
    blocked: OnceLock<BlockedVectors>,
}

impl PartialEq for VectorSet {
    fn eq(&self, other: &Self) -> bool {
        // The blocked mirror is a cache of `data`; two sets with the same
        // rows are equal whether or not either has materialised it.
        self.dim == other.dim && self.len == other.len && self.data == other.data
    }
}

impl VectorSet {
    /// Creates a vector set from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn from_flat(data: Vec<f32>, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "flat buffer length {} is not a multiple of dim {}",
            data.len(),
            dim
        );
        let len = data.len() / dim;
        Self {
            data,
            dim,
            len,
            blocked: OnceLock::new(),
        }
    }

    /// Creates a vector set from a slice of equal-length rows.
    ///
    /// # Panics
    /// Panics if `rows` is empty or rows have inconsistent lengths.
    pub fn from_rows<R: AsRef<[f32]>>(rows: &[R]) -> Self {
        assert!(!rows.is_empty(), "cannot build a VectorSet from zero rows");
        let dim = rows[0].as_ref().len();
        assert!(dim > 0, "dimension must be positive");
        let mut data = Vec::with_capacity(rows.len() * dim);
        for (i, r) in rows.iter().enumerate() {
            let r = r.as_ref();
            assert!(
                r.len() == dim,
                "row {} has dimension {} but expected {}",
                i,
                r.len(),
                dim
            );
            data.extend_from_slice(r);
        }
        Self::from_flat(data, dim)
    }

    /// An empty set with the given dimensionality (useful as a builder seed).
    pub fn empty(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            data: Vec::new(),
            dim,
            len: 0,
            blocked: OnceLock::new(),
        }
    }

    /// Dimensionality `d` of each point.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points (inherent mirror of [`Dataset::len`] so callers do
    /// not need the trait in scope).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrows the `i`-th point as a slice of length `dim`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f32] {
        let start = i * self.dim;
        &self.data[start..start + self.dim]
    }

    /// The underlying flat row-major buffer.
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Appends a point.
    ///
    /// # Panics
    /// Panics if `point.len() != self.dim()`.
    pub fn push(&mut self, point: &[f32]) {
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        self.data.extend_from_slice(point);
        self.len += 1;
        // The blocked mirror no longer matches; drop it so the next
        // `lane_blocks` call rebuilds from the current rows.
        self.blocked.take();
    }

    /// Copies the points with the given indices into a new owned set.
    ///
    /// Used when an ownership list is small enough that materialising it is
    /// cheaper than indirecting through a [`SubsetView`] (e.g. when handing
    /// representative points to a device kernel).
    pub fn gather(&self, indices: &[usize]) -> VectorSet {
        let mut data = Vec::with_capacity(indices.len() * self.dim);
        for &i in indices {
            data.extend_from_slice(self.point(i));
        }
        VectorSet {
            data,
            dim: self.dim,
            len: indices.len(),
            blocked: OnceLock::new(),
        }
    }

    /// Iterates over the points in order.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> + '_ {
        (0..self.len).map(move |i| self.point(i))
    }

    /// Computes all pairwise distances from item `i` to every item of
    /// `other` under `metric`, appending into `out`. Convenience used by
    /// tests and small tools; the tiled production path lives in
    /// `rbc-bruteforce`.
    pub fn distances_from<M: Metric<[f32]>>(
        &self,
        i: usize,
        other: &VectorSet,
        metric: &M,
        out: &mut Vec<crate::metric::Dist>,
    ) {
        let q = self.point(i);
        out.clear();
        out.reserve(other.len());
        for j in 0..other.len() {
            out.push(metric.dist(q, other.point(j)));
        }
    }
}

impl Dataset for VectorSet {
    type Item = [f32];

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, i: usize) -> &[f32] {
        self.point(i)
    }

    fn lane_blocks(&self) -> Option<&BlockedVectors> {
        if self.len == 0 {
            return None;
        }
        Some(
            self.blocked
                .get_or_init(|| BlockedVectors::from_flat(&self.data, self.dim)),
        )
    }

    fn gather_blocked(&self, indices: &[usize]) -> Option<BlockedVectors> {
        if indices.is_empty() {
            return None;
        }
        Some(BlockedVectors::gather_flat(&self.data, self.dim, indices))
    }

    fn gather_coded(&self, indices: &[usize]) -> Option<CodedVectors> {
        if indices.is_empty() {
            return None;
        }
        Some(CodedVectors::gather_flat(&self.data, self.dim, indices))
    }
}

impl std::ops::Index<usize> for VectorSet {
    type Output = [f32];

    fn index(&self, i: usize) -> &[f32] {
        self.point(i)
    }
}

/// Incremental builder for a [`VectorSet`], for generators that produce
/// points one at a time.
#[derive(Clone, Debug)]
pub struct VectorSetBuilder {
    set: VectorSet,
}

impl VectorSetBuilder {
    /// Starts a builder for points of dimension `dim`, reserving space for
    /// `capacity` points.
    pub fn with_capacity(dim: usize, capacity: usize) -> Self {
        let mut set = VectorSet::empty(dim);
        set.data.reserve(capacity * dim);
        Self { set }
    }

    /// Appends one point.
    pub fn push(&mut self, point: &[f32]) -> &mut Self {
        self.set.push(point);
        self
    }

    /// Number of points added so far.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Returns `true` if no points were added yet.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Finishes and returns the built set.
    pub fn build(self) -> VectorSet {
        self.set
    }
}

/// A borrowed view of a dataset restricted to an index list — the paper's
/// `X[L]`.
///
/// Item `i` of the view is item `indices[i]` of the underlying dataset. The
/// view holds references only; building one is O(1).
#[derive(Clone, Copy, Debug)]
pub struct SubsetView<'a, D: Dataset> {
    base: &'a D,
    indices: &'a [usize],
}

impl<'a, D: Dataset> SubsetView<'a, D> {
    /// Creates a view of `base` restricted to `indices`.
    pub fn new(base: &'a D, indices: &'a [usize]) -> Self {
        Self { base, indices }
    }

    /// The index in the *underlying* dataset of the view's `i`-th item.
    #[inline]
    pub fn original_index(&self, i: usize) -> usize {
        self.indices[i]
    }

    /// The index list backing this view.
    pub fn indices(&self) -> &[usize] {
        self.indices
    }
}

impl<'a, D: Dataset> Dataset for SubsetView<'a, D> {
    type Item = D::Item;

    #[inline]
    fn len(&self) -> usize {
        self.indices.len()
    }

    #[inline]
    fn get(&self, i: usize) -> &Self::Item {
        self.base.get(self.indices[i])
    }
}

/// A [`Dataset`] view over a slice of individually owned (or borrowed)
/// items — the coalesced query matrix `Q` of an online micro-batch.
///
/// A serving layer accumulates queries one at a time (`Vec<f32>`, `String`,
/// `&[f32]`, …); this adapter presents the accumulated slice to the
/// brute-force primitive directly, without first copying the items into a
/// contiguous [`VectorSet`]/`StringSet`. Any element type that derefs to
/// the item via [`std::borrow::Borrow`] works, including plain references.
#[derive(Clone, Copy, Debug)]
pub struct QueryBatch<'a, T: ?Sized, O> {
    items: &'a [O],
    _item: std::marker::PhantomData<fn() -> &'a T>,
}

impl<'a, T, O> QueryBatch<'a, T, O>
where
    T: ?Sized + Sync,
    O: std::borrow::Borrow<T> + Sync,
{
    /// Wraps a slice of owned or borrowed items as a dataset.
    pub fn new(items: &'a [O]) -> Self {
        Self {
            items,
            _item: std::marker::PhantomData,
        }
    }
}

impl<'a, T, O> Dataset for QueryBatch<'a, T, O>
where
    T: ?Sized + Sync,
    O: std::borrow::Borrow<T> + Sync,
{
    type Item = T;

    #[inline]
    fn len(&self) -> usize {
        self.items.len()
    }

    #[inline]
    fn get(&self, i: usize) -> &T {
        self.items[i].borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_set() -> VectorSet {
        VectorSet::from_rows(&[[0.0f32, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    }

    #[test]
    fn from_flat_round_trips() {
        let s = VectorSet::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.dim(), 3);
        assert_eq!(s.point(0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.point(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_rejects_ragged_buffer() {
        let _ = VectorSet::from_flat(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_rejected() {
        let _ = VectorSet::from_flat(vec![], 0);
    }

    #[test]
    #[should_panic(expected = "row 1 has dimension")]
    fn from_rows_rejects_inconsistent_rows() {
        let rows: Vec<Vec<f32>> = vec![vec![1.0, 2.0], vec![3.0]];
        let _ = VectorSet::from_rows(&rows);
    }

    #[test]
    fn index_operator_matches_point() {
        let s = small_set();
        assert_eq!(&s[3], s.point(3));
    }

    #[test]
    fn push_and_builder_agree() {
        let mut a = VectorSet::empty(2);
        a.push(&[1.0, 2.0]);
        a.push(&[3.0, 4.0]);

        let mut b = VectorSetBuilder::with_capacity(2, 2);
        b.push(&[1.0, 2.0]).push(&[3.0, 4.0]);
        assert_eq!(a, b.build());
    }

    #[test]
    fn gather_selects_rows_in_order() {
        let s = small_set();
        let g = s.gather(&[3, 0, 3]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.point(0), &[2.0, 2.0]);
        assert_eq!(g.point(1), &[0.0, 0.0]);
        assert_eq!(g.point(2), &[2.0, 2.0]);
    }

    #[test]
    fn subset_view_maps_indices() {
        let s = small_set();
        let idx = vec![2usize, 0];
        let v = s.subset(&idx);
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(0), s.point(2));
        assert_eq!(v.get(1), s.point(0));
        assert_eq!(v.original_index(0), 2);
        assert_eq!(v.indices(), &[2, 0]);
    }

    #[test]
    fn distances_from_matches_manual_computation() {
        let s = small_set();
        let q = VectorSet::from_rows(&[[0.0f32, 0.0]]);
        let mut out = Vec::new();
        q.distances_from(0, &s, &crate::vector::Euclidean, &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], 0.0);
        assert_eq!(out[1], 1.0);
        assert_eq!(out[2], 1.0);
        assert!((out[3] - (8.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn iter_visits_all_points() {
        let s = small_set();
        let collected: Vec<Vec<f32>> = s.iter().map(|p| p.to_vec()).collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[1], vec![1.0, 0.0]);
    }

    #[test]
    fn query_batch_works_over_owned_and_borrowed_items() {
        let owned: Vec<Vec<f32>> = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let batch: QueryBatch<[f32], Vec<f32>> = QueryBatch::new(&owned);
        assert_eq!(Dataset::len(&batch), 2);
        assert_eq!(batch.get(1), &[3.0, 4.0][..]);

        let refs: Vec<&[f32]> = owned.iter().map(Vec::as_slice).collect();
        let ref_batch: QueryBatch<[f32], &[f32]> = QueryBatch::new(&refs);
        assert_eq!(ref_batch.get(0), &[1.0, 2.0][..]);

        let strings = vec!["abc".to_string(), "de".to_string()];
        let str_batch: QueryBatch<str, String> = QueryBatch::new(&strings);
        assert_eq!(str_batch.get(0), "abc");
        assert!(!Dataset::is_empty(&str_batch));
    }

    #[test]
    fn dataset_impl_for_reference_delegates() {
        let s = small_set();
        let r = &s;
        assert_eq!(Dataset::len(&r), 4);
        assert_eq!(Dataset::get(&r, 2), s.point(2));
        assert!(!Dataset::is_empty(&r));
    }
}
