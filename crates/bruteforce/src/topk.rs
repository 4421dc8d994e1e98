//! A bounded collector for the `k` nearest candidates seen so far.
//!
//! The comparison step of the brute-force primitive needs, per query, the
//! smallest `k` of a stream of distances. [`TopK`] is a small bounded
//! max-heap: the root is the *worst* of the current best-`k`, so a new
//! candidate is admitted only if it beats the root, and admission is
//! `O(log k)`. Two collectors can be merged, which is what the parallel
//! reduction over database chunks does.

use crate::neighbor::Neighbor;
use rbc_metric::Dist;

/// Bounded collector of the `k` nearest neighbors seen so far.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    /// Max-heap: `heap[0]` is the current k-th (worst retained) neighbor.
    heap: Vec<Neighbor>,
}

impl Clone for TopK {
    fn clone(&self) -> Self {
        Self {
            k: self.k,
            heap: self.heap.clone(),
        }
    }

    /// Reuses `self`'s heap allocation — the group scan re-seeds one
    /// private collector per cursor from scratch it keeps across scans.
    fn clone_from(&mut self, source: &Self) {
        self.k = source.k;
        self.heap.clone_from(&source.heap);
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
        }
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
    /// distance, or `+∞` while fewer than `k` candidates are held.
    ///
    /// This doubles as a pruning threshold for callers that can skip
    /// candidates using a cheap lower bound.
    #[inline]
    pub fn threshold(&self) -> Dist {
        if self.heap.len() < self.k {
            Dist::INFINITY
        } else {
            self.heap[0].dist
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
            true
        } else if cand < self.heap[0] {
            self.heap[0] = cand;
            self.sift_down(0);
            true
        } else {
            false
        }
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

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] > self.heap[parent] {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < n && self.heap[l] > self.heap[largest] {
                largest = l;
            }
            if r < n && self.heap[r] > self.heap[largest] {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn push_reports_admission() {
        let mut t = TopK::new(2);
        assert!(t.push(Neighbor::new(0, 4.0))); // filling up
        assert!(t.push(Neighbor::new(1, 2.0))); // filling up
        assert!(t.push(Neighbor::new(2, 3.0))); // beats the kth (4.0)
        assert!(!t.push(Neighbor::new(3, 3.0))); // ties the kth: rejected
        assert!(!t.push(Neighbor::new(4, 9.0))); // worse: rejected
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
