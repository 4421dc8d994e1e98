//! A bounded collector for the `k` nearest candidates seen so far.
//!
//! The comparison step of the brute-force primitive needs, per query, the
//! smallest `k` of a stream of distances. [`TopK`] is a small bounded
//! max-heap: the root is the *worst* of the current best-`k`, so a new
//! candidate is admitted only if it beats the root, and admission is
//! `O(log k)`. Two collectors can be merged, which is what the parallel
//! reduction over database chunks does.
//!
//! A heap pays `O(log k)` per admission, which is the right price for an
//! answer (`k` ≤ a few dozen) and the wrong one for an index build that
//! asks for the 1 225 nearest of 100 000: the crate-private `SelectK` keeps
//! an unsorted buffer under a bound instead and partitions it once each
//! time it fills. Both implement the crate-private `Collector` trait, so
//! the dense scan of `primitive.rs` is written once; the entry point a
//! caller names ([`BruteForce::knn`](crate::BruteForce::knn) or
//! [`BruteForce::select_with`](crate::BruteForce::select_with)) decides
//! which one it fills.

use std::hint::select_unpredictable;

use crate::neighbor::Neighbor;
use rbc_metric::Dist;

/// What the dense scan needs of the per-query state it fills (the caller
/// of the scan makes each query's empty collector).
pub(crate) trait Collector {
    /// A distance no candidate the collector would still keep exceeds
    /// (`+∞` while it keeps everything). It may be stale — larger than the
    /// true `k`-th distance so far — never smaller.
    fn threshold(&self) -> Dist;

    /// Offers a candidate.
    fn offer(&mut self, cand: Neighbor);
}

impl Collector for TopK {
    #[inline]
    fn threshold(&self) -> Dist {
        TopK::threshold(self)
    }

    #[inline]
    fn offer(&mut self, cand: Neighbor) {
        self.push(cand);
    }
}

/// Bounded collector of the `k` nearest neighbors seen so far.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    /// Max-heap: `heap[0]` is the current k-th (worst retained) neighbor.
    heap: Vec<Neighbor>,
    /// Candidates [`push`](Self::push) has admitted over the collector's
    /// life (copied by `clone`): a group scan that seeded a private copy
    /// reads it to learn whether anyone pushed into the shared one since.
    pub(crate) admissions: u64,
}

impl Clone for TopK {
    fn clone(&self) -> Self {
        Self {
            k: self.k,
            heap: self.heap.clone(),
            admissions: self.admissions,
        }
    }

    /// Reuses `self`'s heap allocation — the group scan re-seeds one
    /// private collector per cursor from scratch it keeps across scans.
    fn clone_from(&mut self, source: &Self) {
        self.k = source.k;
        self.heap.clone_from(&source.heap);
        self.admissions = source.admissions;
    }
}

impl TopK {
    /// Creates a collector for the `k` nearest candidates.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        Self {
            k,
            heap: Vec::with_capacity(k),
            admissions: 0,
        }
    }

    /// The collector that pushing every one of `candidates` into
    /// [`TopK::new(k)`](Self::new) would leave: the `k` smallest in
    /// [`Neighbor`]'s order, selected in one pass and made a heap once,
    /// instead of sifted in one candidate at a time. `candidates` is left
    /// empty (its allocation is the caller's to reuse); `admissions` counts
    /// the neighbours kept.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn from_candidates(k: usize, candidates: &mut Vec<Neighbor>) -> Self {
        assert!(k > 0, "k must be at least 1");
        if candidates.len() > k {
            candidates.select_nth_unstable(k - 1);
            candidates.truncate(k);
        }
        let mut heap = Vec::with_capacity(k);
        heap.append(candidates);
        let mut topk = Self {
            k,
            admissions: heap.len() as u64,
            heap,
        };
        for i in (0..topk.heap.len() / 2).rev() {
            topk.sift_down(i);
        }
        topk
    }

    /// The `k` this collector was created with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidates currently held (`≤ k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no candidate has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The distance a candidate must beat to be admitted: the current k-th
    /// distance, or `+∞` while fewer than `k` candidates are held — or while
    /// the k-th is a NaN, which every number beats.
    ///
    /// This doubles as a pruning threshold for callers that can skip
    /// candidates using a cheap lower bound.
    #[inline]
    pub fn threshold(&self) -> Dist {
        if self.heap.len() < self.k {
            Dist::INFINITY
        } else {
            // `min` takes the number: a NaN k-th reads as +∞.
            self.heap[0].dist.min(Dist::INFINITY)
        }
    }

    /// Offers a candidate; keeps it only if it is among the best `k` so
    /// far. Returns whether the candidate was admitted (callers batching
    /// pushes against a snapshot use this to skip candidates that can no
    /// longer matter).
    #[inline]
    pub fn push(&mut self, cand: Neighbor) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(cand);
            self.sift_up(self.heap.len() - 1);
        } else if cand < self.heap[0] {
            self.heap[0] = cand;
            self.sift_down(0);
        } else {
            return false;
        }
        self.admissions += 1;
        true
    }

    /// Merges another collector into this one.
    pub fn merge(&mut self, other: &TopK) {
        for &n in &other.heap {
            self.push(n);
        }
    }

    /// Consumes the collector and returns the retained neighbors sorted by
    /// ascending distance (ties broken by index).
    pub fn into_sorted(mut self) -> Vec<Neighbor> {
        self.heap.sort();
        self.heap
    }

    /// The single best neighbor retained, if any.
    pub fn best(&self) -> Option<Neighbor> {
        self.heap.iter().copied().min()
    }

    /// Moves the neighbour at `i` up to its place. The entry is held out
    /// of the heap while its parents move down into the hole, so each
    /// level costs one comparison and one move, not a swap.
    fn sift_up(&mut self, mut i: usize) {
        let heap = &mut self.heap[..];
        let item = heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if item <= heap[parent] {
                break;
            }
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = item;
    }

    /// Moves the neighbour at `i` down to its place, holding it out of the
    /// heap as [`sift_up`](Self::sift_up) does. The larger child is chosen
    /// without a branch: which one it is depends on the data alone, and a
    /// mispredicted choice at every level was most of an admission's cost.
    /// The heap ends exactly as a swap-based sift leaves it.
    fn sift_down(&mut self, mut i: usize) {
        let heap = &mut self.heap[..];
        let item = heap[i];
        loop {
            let left = 2 * i + 1;
            let Some(&left_child) = heap.get(left) else {
                break;
            };
            let right_wins = heap.get(left + 1).is_some_and(|right| *right > left_child);
            let child = select_unpredictable(right_wins, left + 1, left);
            if heap[child] <= item {
                break;
            }
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = item;
    }
}

/// Bounded selection of the `k` nearest candidates of a long stream, for
/// `k` in the hundreds or thousands.
///
/// An unsorted buffer of capacity `2k` admits a candidate only if it is
/// below the current bound in `(dist, index)` order; when the buffer fills,
/// one `select_nth_unstable` moves the `k` smallest to the front, the rest
/// are dropped and the `k`-th becomes the bound. There is no bound before
/// the first partition, and every later bound is the exact `k`-th of all
/// candidates offered up to its partition, so nothing that belongs to the
/// final `k` is ever refused: [`into_sorted`](Self::into_sorted) equals
/// [`TopK::into_sorted`], ties included, in any arrival order. Both use
/// `Neighbor`'s order (partitions and sorts through its integer
/// [`sort_key`](Neighbor::sort_key)), so a NaN distance is kept only while
/// fewer than `k` numbers have been offered and comes out last.
///
/// A caller that knows more than the stream has shown so far passes a
/// *cap*: a distance at or above the `k`-th smallest of the whole stream.
/// The threshold is then the smaller of the bound and the cap from the
/// first offer on, and the answer is unchanged, since nothing at or under
/// the final `k`-th is refused either way. A NaN cap, or `+∞`, caps
/// nothing.
#[derive(Debug)]
pub(crate) struct SelectK {
    k: usize,
    /// Unsorted; at most `2k` long, and the `k` smallest candidates offered
    /// so far are always in it.
    buf: Vec<Neighbor>,
    /// The `k`-th smallest candidate as of the last partition.
    bound: Option<Neighbor>,
    /// The caller's upper bound on the final `k`-th distance (`+∞` if none).
    cap: Dist,
}

impl SelectK {
    /// An empty collector for the `k` nearest candidates (`k ≥ 1`) of a
    /// stream whose `k`-th smallest distance is at most `cap`.
    pub(crate) fn new(k: usize, cap: Dist) -> Self {
        debug_assert!(k > 0, "k must be at least 1");
        Self {
            k,
            buf: Vec::with_capacity(2 * k),
            bound: None,
            // `min` takes the number: a NaN cap reads as +∞.
            cap: cap.min(Dist::INFINITY),
        }
    }

    /// Moves the `k` smallest to the front and drops the rest.
    fn partition(&mut self) {
        if self.buf.len() > self.k {
            self.buf
                .select_nth_unstable_by_key(self.k - 1, Neighbor::sort_key);
            self.buf.truncate(self.k);
            self.bound = Some(self.buf[self.k - 1]);
        }
    }

    /// Consumes the collector and returns the `k` smallest candidates it
    /// was offered (all of them if fewer), ascending by `(dist, index)`
    /// with NaN distances last.
    pub(crate) fn into_sorted(mut self) -> Vec<Neighbor> {
        self.partition();
        self.buf.sort_unstable_by_key(Neighbor::sort_key);
        self.buf
    }
}

impl Collector for SelectK {
    #[inline]
    fn threshold(&self) -> Dist {
        match self.bound {
            // A NaN bound (fewer than `k` numbers so far) excludes nothing.
            Some(bound) if !bound.dist.is_nan() => bound.dist.min(self.cap),
            _ => self.cap,
        }
    }

    #[inline]
    fn offer(&mut self, cand: Neighbor) {
        // Most lanes of an admitted lane group are plainly too far: one
        // float comparison turns them away before the full order is asked.
        if cand.dist > self.threshold() || self.bound.is_some_and(|bound| cand >= bound) {
            return;
        }
        self.buf.push(cand);
        if self.buf.len() == 2 * self.k {
            self.partition();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn select_sorted(k: usize, stream: &[Neighbor]) -> Vec<Neighbor> {
        select_capped(k, Dist::INFINITY, stream)
    }

    fn select_capped(k: usize, cap: Dist, stream: &[Neighbor]) -> Vec<Neighbor> {
        let mut select = SelectK::new(k, cap);
        stream.iter().for_each(|&cand| select.offer(cand));
        select.into_sorted()
    }

    /// Candidate `i` gets distance `dist(entries[i].0)`; the second field
    /// is its place in the arrival order.
    fn arrivals(entries: &[(u8, u32)], dist: impl Fn(u8) -> Dist) -> Vec<Neighbor> {
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| entries[i].1);
        let arrival = order.into_iter();
        arrival
            .map(|i| Neighbor::new(i, dist(entries[i].0)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Six distance levels over up to 160 candidates: duplicates
        /// everywhere and ties at the `k`-th distance; small `k` fills and
        /// partitions the buffer many times, `k` around `n` never does.
        #[test]
        fn select_k_equals_the_heap_on_nan_free_streams(
            entries in prop::collection::vec((0u8..6, 0u32..1_000_000), 1..160),
            k_choice in 0usize..6,
            k_small in 1usize..12,
        ) {
            let n = entries.len();
            let k = [1, (n - 1).max(1), n, n + 5, k_small, k_small][k_choice];
            let stream = arrivals(&entries, |level| Dist::from(level) * 0.5);
            let mut heap = TopK::new(k);
            stream.iter().for_each(|&cand| { heap.push(cand); });
            prop_assert_eq!(select_sorted(k, &stream), heap.into_sorted());
        }

        /// A collector built from its candidates in one step holds what
        /// pushing them one at a time leaves, reports the same threshold,
        /// and goes on admitting exactly what the pushed one admits.
        #[test]
        fn a_collector_built_from_candidates_equals_one_pushed_into(
            entries in prop::collection::vec((0u8..6, 0u32..1_000_000), 0..60),
            later in prop::collection::vec((0u8..6, 0u32..1_000_000), 0..20),
            k in 1usize..12,
        ) {
            let stream = arrivals(&entries, |level| Dist::from(level) * 0.5);
            let mut pushed = TopK::new(k);
            stream.iter().for_each(|&cand| { pushed.push(cand); });
            let mut candidates = stream.clone();
            let mut built = TopK::from_candidates(k, &mut candidates);
            prop_assert!(candidates.is_empty());
            prop_assert_eq!(built.threshold().to_bits(), pushed.threshold().to_bits());
            for cand in arrivals(&later, |level| Dist::from(level) * 0.5) {
                prop_assert_eq!(built.push(cand), pushed.push(cand));
                prop_assert_eq!(built.threshold().to_bits(), pushed.threshold().to_bits());
            }
            prop_assert_eq!(built.into_sorted(), pushed.into_sorted());
        }

        /// Levels 0 and 1 are NaNs of either sign, arriving anywhere in the
        /// stream — before the buffer first fills and after.
        #[test]
        fn select_k_puts_the_smallest_numbers_first_whatever_nans_arrive(
            entries in prop::collection::vec((0u8..7, 0u32..1_000_000), 1..120),
            k in 1usize..20,
        ) {
            let stream = arrivals(&entries, |level| match level {
                0 => Dist::NAN,
                1 => -Dist::NAN,
                _ => Dist::from(level),
            });
            let mut numbers: Vec<Neighbor> =
                stream.iter().copied().filter(|cand| !cand.dist.is_nan()).collect();
            numbers.sort();
            numbers.truncate(k);
            let got = select_sorted(k, &stream);
            prop_assert_eq!(got.len(), k.min(stream.len()));
            prop_assert_eq!(&got[..numbers.len()], &numbers[..]);
            prop_assert!(got[numbers.len()..].iter().all(|cand| cand.dist.is_nan()));
            // The heap keeps the same ones (NaN ≠ NaN, so compare indices).
            let mut heap = TopK::new(k);
            stream.iter().for_each(|&cand| { heap.push(cand); });
            let indices = |v: &[Neighbor]| v.iter().map(|nb| nb.index).collect::<Vec<_>>();
            prop_assert_eq!(indices(&heap.into_sorted()), indices(&got));
        }

        /// Capped at the stream's true `k`-th distance, one ulp above it,
        /// well above it, at `+∞` or at NaN, the selection is the uncapped
        /// one. The same six levels, ties at every distance; with `nans`,
        /// levels 0 and 1 are NaNs of either sign, and a stream with fewer
        /// than `k` numbers has no finite cap at all.
        #[test]
        fn a_cap_at_or_above_the_kth_distance_changes_no_selection(
            entries in prop::collection::vec((0u8..6, 0u32..1_000_000), 1..160),
            k_choice in 0usize..6,
            k_small in 1usize..12,
            nans in any::<bool>(),
        ) {
            let n = entries.len();
            let k = [1, (n - 1).max(1), n, n + 5, k_small, k_small][k_choice];
            let stream = arrivals(&entries, |level| match level {
                0 if nans => Dist::NAN,
                1 if nans => -Dist::NAN,
                _ => Dist::from(level) * 0.5,
            });
            let mut numbers: Vec<Dist> =
                stream.iter().map(|cand| cand.dist).filter(|d| !d.is_nan()).collect();
            numbers.sort_by(Dist::total_cmp);
            let kth = numbers.get(k - 1).copied().unwrap_or(Dist::INFINITY);
            // NaN ≠ NaN: compare indices and distance bits.
            let bits = |v: &[Neighbor]| {
                v.iter().map(|nb| (nb.index, nb.dist.to_bits())).collect::<Vec<_>>()
            };
            let uncapped = bits(&select_sorted(k, &stream));
            for cap in [kth, kth.next_up(), kth + 10.0, Dist::INFINITY, Dist::NAN] {
                let capped = bits(&select_capped(k, cap, &stream));
                prop_assert_eq!(&capped, &uncapped, "k {}, cap {}", k, cap);
            }
        }
    }

    #[test]
    fn a_cap_lowers_the_threshold_from_the_first_offer() {
        let mut select = SelectK::new(2, 4.0);
        assert_eq!(select.threshold(), 4.0);
        // 9.0 is refused at once; the other three wait for a partition.
        for (i, d) in [(0, 9.0), (1, 3.0), (2, Dist::NAN), (3, 4.0)] {
            select.offer(Neighbor::new(i, d));
        }
        assert_eq!(select.threshold(), 4.0);
        // The fourth admission fills the buffer: the bound (3.0) undercuts
        // the cap.
        select.offer(Neighbor::new(4, 1.0));
        assert_eq!(select.threshold(), 3.0);
        assert_eq!(
            select.into_sorted(),
            [Neighbor::new(4, 1.0), Neighbor::new(1, 3.0)]
        );
        assert_eq!(SelectK::new(2, Dist::NAN).threshold(), Dist::INFINITY);
    }

    #[test]
    fn select_k_drops_nans_once_k_numbers_have_been_seen() {
        let nan = Dist::NAN;
        // k = 2: the buffer fills at the fourth arrival, NaNs on both sides.
        let dists = [nan, 5.0, nan, 4.0, nan, 3.0, 9.0, nan, 1.0];
        let stream: Vec<Neighbor> = (0..).zip(dists).map(|(i, d)| Neighbor::new(i, d)).collect();
        assert_eq!(
            select_sorted(2, &stream),
            [Neighbor::new(8, 1.0), Neighbor::new(5, 3.0)]
        );
        // Fewer numbers than `k`: the NaNs fill the tail, lowest index first.
        let got = select_sorted(3, &stream[..3]);
        assert_eq!(got[0], Neighbor::new(1, 5.0));
        assert_eq!((got[1].index, got[2].index), (0, 2));
        assert!(got[1].dist.is_nan() && got[2].dist.is_nan());
    }

    #[test]
    fn select_k_threshold_is_infinite_until_the_kth_is_a_number() {
        let mut select = SelectK::new(2, Dist::INFINITY);
        assert_eq!(select.threshold(), Dist::INFINITY);
        for (i, d) in [(0, Dist::NAN), (1, 7.0), (2, Dist::NAN), (3, Dist::NAN)] {
            select.offer(Neighbor::new(i, d));
        }
        // Partitioned with one number seen: the bound is a NaN.
        assert_eq!(select.threshold(), Dist::INFINITY);
        for (i, d) in [(4, 6.0), (5, 8.0)] {
            select.offer(Neighbor::new(i, d));
        }
        assert_eq!(select.threshold(), 7.0);
    }

    fn offer_all(topk: &mut TopK, dists: &[f64]) {
        for (i, &d) in dists.iter().enumerate() {
            topk.push(Neighbor::new(i, d));
        }
    }

    #[test]
    fn keeps_k_smallest() {
        let mut t = TopK::new(3);
        offer_all(&mut t, &[5.0, 1.0, 4.0, 2.0, 3.0, 0.5]);
        let out = t.into_sorted();
        let dists: Vec<f64> = out.iter().map(|n| n.dist).collect();
        assert_eq!(dists, vec![0.5, 1.0, 2.0]);
    }

    #[test]
    fn fewer_candidates_than_k_returns_all_sorted() {
        let mut t = TopK::new(10);
        offer_all(&mut t, &[3.0, 1.0]);
        assert_eq!(t.len(), 2);
        let out = t.into_sorted();
        assert_eq!(out[0].dist, 1.0);
        assert_eq!(out[1].dist, 3.0);
    }

    #[test]
    fn threshold_tracks_kth_distance() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), f64::INFINITY);
        t.push(Neighbor::new(0, 4.0));
        assert_eq!(t.threshold(), f64::INFINITY);
        t.push(Neighbor::new(1, 2.0));
        assert_eq!(t.threshold(), 4.0);
        t.push(Neighbor::new(2, 1.0));
        assert_eq!(t.threshold(), 2.0);
    }

    #[test]
    fn a_nan_kth_admits_every_number() {
        let mut t = TopK::new(2);
        t.push(Neighbor::new(0, Dist::NAN));
        t.push(Neighbor::new(1, 5.0));
        assert_eq!(t.threshold(), f64::INFINITY);
        assert!(!t.push(Neighbor::new(2, Dist::NAN)));
        assert!(t.push(Neighbor::new(3, f64::INFINITY)));
        assert_eq!(t.threshold(), f64::INFINITY);
        assert!(t.push(Neighbor::new(4, 7.0)));
        assert_eq!(t.threshold(), 7.0);
        assert_eq!(
            t.into_sorted(),
            [Neighbor::new(1, 5.0), Neighbor::new(4, 7.0)]
        );
    }

    #[test]
    fn push_reports_admission() {
        let mut t = TopK::new(2);
        assert!(t.push(Neighbor::new(0, 4.0))); // filling up
        assert!(t.push(Neighbor::new(1, 2.0))); // filling up
        assert!(t.push(Neighbor::new(2, 3.0))); // beats the kth (4.0)
        assert!(!t.push(Neighbor::new(3, 3.0))); // ties the kth: rejected
        assert!(!t.push(Neighbor::new(4, 9.0))); // worse: rejected
    }

    #[test]
    fn admissions_count_the_pushes_that_got_in_and_clones_copy_them() {
        let mut t = TopK::new(2);
        let stream = [4.0, 2.0, 3.0, 3.0, 9.0, Dist::NAN, 1.0];
        for (i, d) in stream.into_iter().enumerate() {
            let before = t.admissions;
            let admitted = t.push(Neighbor::new(i, d));
            assert_eq!(t.admissions, before + u64::from(admitted), "push {i}");
        }
        assert_eq!(t.admissions, 4);
        let copy = t.clone();
        assert_eq!(copy.admissions, 4);
        let mut reused = TopK::new(5);
        reused.push(Neighbor::new(0, 1.0));
        reused.clone_from(&t);
        assert_eq!((reused.k(), reused.admissions), (2, 4));
        assert_eq!(reused.into_sorted(), t.into_sorted());
    }

    #[test]
    fn merge_equals_sequential_offering() {
        let dists: Vec<f64> = (0..50).map(|i| ((i * 37) % 50) as f64).collect();
        let mut whole = TopK::new(5);
        offer_all(&mut whole, &dists);

        let mut left = TopK::new(5);
        let mut right = TopK::new(5);
        for (i, &d) in dists.iter().enumerate() {
            if i < 25 {
                left.push(Neighbor::new(i, d));
            } else {
                right.push(Neighbor::new(i, d));
            }
        }
        left.merge(&right);
        assert_eq!(left.into_sorted(), whole.into_sorted());
    }

    #[test]
    fn best_returns_minimum() {
        let mut t = TopK::new(4);
        assert!(t.best().is_none());
        offer_all(&mut t, &[9.0, 3.0, 7.0]);
        assert_eq!(t.best().unwrap().dist, 3.0);
        assert!(!t.is_empty());
        assert_eq!(t.k(), 4);
    }

    #[test]
    fn ties_are_broken_by_index_deterministically() {
        let mut t = TopK::new(2);
        t.push(Neighbor::new(9, 1.0));
        t.push(Neighbor::new(3, 1.0));
        t.push(Neighbor::new(6, 1.0));
        let out = t.into_sorted();
        assert_eq!(out.iter().map(|n| n.index).collect::<Vec<_>>(), vec![3, 6]);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        let _ = TopK::new(0);
    }
}
