//! Property tests for the answer cache's admission policy.
//!
//! The cache is an execution shortcut, never an approximation: whatever
//! the admission policy decides, a [`CachedIndex`] must serve exactly what
//! the uncached index would — the right answer when the backend is
//! healthy, the backend's own flagged partial answer when it is degraded,
//! and *never* a stale degraded answer dressed up as a fresh one. These
//! tests drive random hit/miss/degraded interleavings against a fake
//! backend whose healthy and degraded answers are deliberately different,
//! so any policy bug that caches a degraded answer (or serves the wrong
//! entry) surfaces as a concrete answer mismatch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rbc_bruteforce::Neighbor;
use rbc_core::SearchIndex;
use rbc_serve::CachedIndex;

/// A backend with a controllable outage. Queries are item ids; the full
/// answer and the degraded answer for an id are deterministic and
/// distinguishable (the degraded answer is a truncated list at a shifted
/// distance), so a cached index that ever re-serves a degraded answer is
/// caught by content, not just by flag.
struct FlakyIndex {
    size: usize,
    /// Ids that return degraded answers while the outage holds.
    fragile: Vec<bool>,
    /// Shared outage switch, toggled by the driving test.
    outage: Arc<AtomicBool>,
    /// Queries that actually reached this backend (cache misses).
    backend_queries: AtomicU64,
}

impl FlakyIndex {
    fn new(size: usize, fragile: Vec<bool>, outage: Arc<AtomicBool>) -> Self {
        Self {
            size,
            fragile,
            outage,
            backend_queries: AtomicU64::new(0),
        }
    }

    /// The exact answer for `id`: k neighbors at id-dependent distances.
    fn full(&self, id: usize, k: usize) -> Vec<Neighbor> {
        (0..k.min(self.size))
            .map(|j| Neighbor::new((id + j) % self.size, (id * 7 + j) as f64 * 0.5))
            .collect()
    }

    /// The degraded answer for `id`: a single survivor at a distance the
    /// full answer never produces.
    fn degraded(&self, id: usize) -> Vec<Neighbor> {
        vec![Neighbor::new(id % self.size, id as f64 + 1000.0)]
    }

    fn is_degraded(&self, id: usize) -> bool {
        self.outage.load(Ordering::SeqCst) && self.fragile[id % self.fragile.len()]
    }
}

impl SearchIndex for FlakyIndex {
    type Query = usize;

    fn size(&self) -> usize {
        self.size
    }

    fn search(&self, query: &usize, k: usize) -> (Vec<Neighbor>, u64) {
        self.backend_queries.fetch_add(1, Ordering::SeqCst);
        (self.full(*query, k), 1)
    }

    fn search_batch_flagged(
        &self,
        queries: &[&usize],
        k: usize,
    ) -> (Vec<Vec<Neighbor>>, Vec<bool>, u64) {
        self.backend_queries
            .fetch_add(queries.len() as u64, Ordering::SeqCst);
        let mut results = Vec::with_capacity(queries.len());
        let mut flags = Vec::with_capacity(queries.len());
        for &&q in queries {
            if self.is_degraded(q) {
                results.push(self.degraded(q));
                flags.push(true);
            } else {
                results.push(self.full(q, k));
                flags.push(false);
            }
        }
        let evals = queries.len() as u64;
        (results, flags, evals)
    }
}

const K: usize = 3;
const IDS: usize = 12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cache equivalence under random hit/miss/degraded
    /// interleavings. Invariants per served query:
    ///
    /// * an un-flagged answer is always the backend's full answer — a
    ///   cached degraded answer would surface here as the wrong content;
    /// * a flagged answer is exactly the backend's current degraded
    ///   answer, and only while the outage actually holds;
    /// * after the outage lifts, every id — including ones served
    ///   degraded moments before — comes back full and matches the
    ///   uncached twin exactly, proving no degraded entry was retained.
    #[test]
    fn cache_never_serves_wrong_or_stale_degraded_answers(
        ops in prop::collection::vec((0usize..IDS, any::<bool>()), 1..100),
        fragile in prop::collection::vec(any::<bool>(), IDS),
        capacity in 1usize..8,
    ) {
        let outage = Arc::new(AtomicBool::new(false));
        let cached = CachedIndex::new(
            FlakyIndex::new(64, fragile.clone(), Arc::clone(&outage)),
            capacity,
        );
        let twin = FlakyIndex::new(64, fragile.clone(), Arc::clone(&outage));

        let mut served = 0u64;
        for &(id, outage_on) in &ops {
            outage.store(outage_on, Ordering::SeqCst);
            let (answers, flags, _) = cached.search_batch_flagged(&[&id], K);
            served += 1;
            let full = twin.full(id, K);
            if flags[0] {
                // Flags are truthful: only a live outage on a fragile id
                // may degrade, and the content is the current partial.
                prop_assert!(outage_on && fragile[id % IDS]);
                prop_assert_eq!(&answers[0], &twin.degraded(id));
            } else {
                // Un-flagged answers are always the exact full answer,
                // whether they came from the cache or the backend.
                prop_assert_eq!(&answers[0], &full);
            }
        }

        // Outage over: every id must come back full and un-flagged, and
        // match the uncached twin bit-for-bit — a retained degraded entry
        // would diverge here.
        outage.store(false, Ordering::SeqCst);
        for id in 0..IDS {
            let (answers, flags, _) = cached.search_batch_flagged(&[&id], K);
            served += 1;
            let (want, want_flags, _) = twin.search_batch_flagged(&[&id], K);
            prop_assert!(!flags[0]);
            prop_assert_eq!(&flags, &want_flags);
            prop_assert_eq!(&answers[0], &want[0]);
        }

        // Accounting closes: every query either hit or missed, every
        // miss reached the backend, and only healthy misses were offered
        // to the admission policy.
        let counters = cached.counters();
        prop_assert_eq!(counters.hits() + counters.misses(), served);
        prop_assert_eq!(
            cached.inner().backend_queries.load(Ordering::SeqCst),
            counters.misses()
        );
        prop_assert!(counters.admitted() + counters.rejected() <= counters.misses());
    }
}
