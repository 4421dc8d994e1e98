//! An optional exact answer cache, composed *under* the engine.
//!
//! [`CachedIndex`] wraps any [`SearchIndex`] and is itself a
//! [`SearchIndex`], so caching is orthogonal to scheduling: wrap the index
//! before handing it to [`Engine::start`](crate::engine::Engine::start)
//! and repeated queries are answered without any distance evaluations.
//! Point lookups repeat heavily in real serving traffic (hot documents,
//! retried requests, popular spell-corrections), which is why NCAM-style
//! serving stacks put a result cache in front of the searcher.
//!
//! Keys are the *exact bytes* of the query (plus `k`): two queries hit the
//! same entry only if they are bit-identical, so a hit is always the exact
//! answer — the cache never introduces approximation.
//!
//! The store is a [`TinyLfuCache`]: a segmented LRU whose admissions are
//! gated by a [W-TinyLFU]-style frequency sketch, so a one-pass scan of
//! cold queries cannot flush the hot working set. The answers served are
//! identical to the uncached index; the policy only decides *which*
//! misses get remembered.
//!
//! [W-TinyLFU]: https://arxiv.org/abs/1512.00727

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rbc_bruteforce::Neighbor;
use rbc_core::SearchIndex;

/// Queries that can serve as exact cache keys.
///
/// The returned bytes must uniquely determine the query: equal bytes ⇒
/// equal answers. Implementations exist for the workspace's query types
/// (`[f32]` vectors, `str` strings, `usize` graph vertices).
pub trait CacheKey {
    /// Serialises the query into its identity bytes.
    fn cache_key(&self) -> Vec<u8>;
}

impl CacheKey for [f32] {
    fn cache_key(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.len() * 4);
        for v in self {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes
    }
}

impl CacheKey for str {
    fn cache_key(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }
}

impl CacheKey for usize {
    fn cache_key(&self) -> Vec<u8> {
        (*self as u64).to_le_bytes().to_vec()
    }
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<V> {
    key: Vec<u8>,
    /// `None` only while the slot sits on the free list.
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map from key bytes to values.
///
/// Classic slab + doubly-linked recency list: `get`, `insert` and
/// eviction are all O(1) (amortised over the hash map).
#[derive(Debug)]
pub struct LruCache<V> {
    capacity: usize,
    map: HashMap<Vec<u8>, usize>,
    slots: Vec<Slot<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<V> LruCache<V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a zero-capacity cache is a
    /// misconfiguration, not a useful degenerate case.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruCache capacity must be at least 1 (got 0)");
        Self {
            capacity,
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Looks a key up, refreshing its recency on a hit.
    pub fn get(&mut self, key: &[u8]) -> Option<&V> {
        let slot = *self.map.get(key)?;
        if slot != self.head {
            self.unlink(slot);
            self.push_front(slot);
        }
        self.slots[slot].value.as_ref()
    }

    /// Whether a key is cached, without refreshing its recency.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.map.contains_key(key)
    }

    /// The key of the least recently used entry, without refreshing it —
    /// the eviction victim an admission policy weighs candidates against.
    pub fn peek_lru(&self) -> Option<&[u8]> {
        if self.tail == NIL {
            None
        } else {
            Some(&self.slots[self.tail].key)
        }
    }

    /// Unlinks `slot` and returns its entry, recycling the slot.
    fn remove_slot(&mut self, slot: usize) -> (Vec<u8>, V) {
        self.unlink(slot);
        let key = std::mem::take(&mut self.slots[slot].key);
        let value = self.slots[slot].value.take().expect("occupied slot");
        self.map.remove(&key);
        self.free.push(slot);
        (key, value)
    }

    /// Removes and returns the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<(Vec<u8>, V)> {
        if self.tail == NIL {
            None
        } else {
            Some(self.remove_slot(self.tail))
        }
    }

    /// Removes a key, returning its value if it was cached.
    pub fn remove(&mut self, key: &[u8]) -> Option<V> {
        let slot = *self.map.get(key)?;
        Some(self.remove_slot(slot).1)
    }

    /// Inserts (or refreshes) a key, evicting the least recently used
    /// entry when at capacity.
    pub fn insert(&mut self, key: Vec<u8>, value: V) {
        if let Some(&slot) = self.map.get(&key) {
            self.slots[slot].value = Some(value);
            if slot != self.head {
                self.unlink(slot);
                self.push_front(slot);
            }
            return;
        }
        if self.map.len() >= self.capacity {
            self.pop_lru();
        }
        let slot = match self.free.pop() {
            Some(reused) => {
                self.slots[reused] = Slot {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                };
                reused
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.push_front(slot);
        self.map.insert(key, slot);
    }
}

/// Row seeds decorrelating the four count-min hash functions.
const SKETCH_HASH_SEEDS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xc2b2_ae3d_27d4_eb4f,
];

/// A count-min sketch of 4-bit saturating counters — the compact
/// frequency history behind TinyLFU admission.
///
/// Sixteen counters pack into each `u64`; the table holds ~8 counters per
/// cached entry so collisions stay rare at cache scale. Once roughly 10×
/// the cache capacity of increments have been observed, every counter is
/// halved ("aging"), so popularity decays and yesterday's hot keys cannot
/// block today's.
#[derive(Debug)]
struct FrequencySketch {
    /// Packed counters: sixteen 4-bit counters per `u64`.
    table: Vec<u64>,
    /// Counter-index mask (counter count is a power of two).
    mask: u64,
    /// Increments since the last aging pass.
    additions: u64,
    /// Aging threshold: ~10× the cache capacity.
    sample_size: u64,
}

impl FrequencySketch {
    fn new(capacity: usize) -> Self {
        let counters = capacity
            .max(1)
            .saturating_mul(8)
            .next_power_of_two()
            .max(16);
        Self {
            table: vec![0u64; counters / 16],
            mask: (counters - 1) as u64,
            additions: 0,
            sample_size: (capacity.max(1) as u64).saturating_mul(10),
        }
    }

    /// FNV-1a over the key bytes; each row re-mixes this base.
    fn base_hash(key: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// (word, bit-shift) of this key's counter in one sketch row.
    fn slot(&self, base: u64, seed: u64) -> (usize, u32) {
        let mut h = base ^ seed;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        let idx = h & self.mask;
        ((idx / 16) as usize, ((idx % 16) * 4) as u32)
    }

    /// Bumps the key's counter in every row (saturating at 15) and runs
    /// an aging pass when the sample window fills.
    fn increment(&mut self, key: &[u8]) {
        let base = Self::base_hash(key);
        let mut bumped = false;
        for seed in SKETCH_HASH_SEEDS {
            let (word, shift) = self.slot(base, seed);
            if (self.table[word] >> shift) & 0xF < 15 {
                self.table[word] += 1u64 << shift;
                bumped = true;
            }
        }
        if bumped {
            self.additions += 1;
            if self.additions >= self.sample_size {
                self.age();
            }
        }
    }

    /// The key's estimated frequency: the minimum across rows (count-min
    /// only ever over-estimates, so the minimum is the tightest bound).
    fn frequency(&self, key: &[u8]) -> u64 {
        let base = Self::base_hash(key);
        SKETCH_HASH_SEEDS
            .iter()
            .map(|&seed| {
                let (word, shift) = self.slot(base, seed);
                (self.table[word] >> shift) & 0xF
            })
            .min()
            .unwrap_or(0)
    }

    /// Halves every counter so old popularity decays: the mask clears the
    /// bit that each nibble's neighbour shifted across the boundary.
    fn age(&mut self) {
        for word in &mut self.table {
            *word = (*word >> 1) & 0x7777_7777_7777_7777;
        }
        self.additions /= 2;
    }
}

/// A segmented-LRU cache gated by TinyLFU admission.
///
/// Layout follows W-TinyLFU (Einziger, Friedman, Manes): new keys enter a
/// small *probation* segment (~20% of capacity); a further hit promotes
/// them into the *protected* segment (~80%), whose overflow demotes back
/// to probation rather than leaving the cache. At capacity a new key is
/// admitted only if the frequency sketch estimates it is strictly more
/// popular than the probation victim it would evict — so one-hit wonders
/// (scans, cold tails) bounce off instead of flushing the hot working
/// set, which plain LRU cannot resist.
#[derive(Debug)]
pub struct TinyLfuCache<V> {
    capacity: usize,
    /// Protected-segment budget; `0` at capacity 1 (probation only).
    protected_cap: usize,
    sketch: FrequencySketch,
    probation: LruCache<V>,
    protected: LruCache<V>,
}

impl<V> TinyLfuCache<V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero, matching [`LruCache::new`].
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "TinyLfuCache capacity must be at least 1 (got 0)"
        );
        let protected_cap = capacity * 4 / 5;
        Self {
            capacity,
            protected_cap,
            sketch: FrequencySketch::new(capacity),
            // Segment caps are enforced here, not by the inner LRUs: the
            // probation LRU is sized for the whole cache so its implicit
            // eviction never fires behind the admission filter's back.
            probation: LruCache::new(capacity),
            protected: LruCache::new(protected_cap.max(1)),
        }
    }

    /// Number of cached entries across both segments.
    pub fn len(&self) -> usize {
        self.probation.len() + self.protected.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks a key up, recording the access in the frequency sketch
    /// (misses included — that is how a re-requested key earns admission)
    /// and promoting probation hits into the protected segment.
    pub fn get(&mut self, key: &[u8]) -> Option<&V> {
        self.sketch.increment(key);
        if self.protected.contains(key) {
            return self.protected.get(key);
        }
        if !self.probation.contains(key) {
            return None;
        }
        if self.protected_cap == 0 {
            return self.probation.get(key);
        }
        let value = self.probation.remove(key).expect("probation hit");
        if self.protected.len() >= self.protected_cap {
            if let Some((demoted_key, demoted_value)) = self.protected.pop_lru() {
                self.probation.insert(demoted_key, demoted_value);
            }
        }
        self.protected.insert(key.to_vec(), value);
        self.protected.get(key)
    }

    /// Inserts a key, returning whether it was admitted.
    ///
    /// Existing keys refresh in place and always count as admitted. At
    /// capacity a new key must beat the eviction victim's sketch
    /// frequency (strictly — ties keep the incumbent, which is what makes
    /// a one-pass scan bounce off).
    pub fn insert(&mut self, key: Vec<u8>, value: V) -> bool {
        self.sketch.increment(&key);
        if self.protected.contains(&key) {
            self.protected.insert(key, value);
            return true;
        }
        if self.probation.contains(&key) {
            self.probation.insert(key, value);
            return true;
        }
        if self.len() >= self.capacity {
            let victim_freq = self
                .probation
                .peek_lru()
                .or_else(|| self.protected.peek_lru())
                .map_or(0, |victim| self.sketch.frequency(victim));
            if self.sketch.frequency(&key) <= victim_freq {
                return false;
            }
            if self.probation.pop_lru().is_none() {
                self.protected.pop_lru();
            }
        }
        self.probation.insert(key, value);
        true
    }
}

/// Shared hit/miss counters of a [`CachedIndex`].
///
/// The counters live behind an `Arc` so they can be handed to an
/// [`Engine`](crate::engine::Engine) via
/// [`track_cache`](crate::engine::Engine::track_cache): metrics snapshots
/// then report cache effectiveness alongside throughput and latency
/// instead of the counters living only on the index wrapper.
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
}

impl CacheCounters {
    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to be forwarded to the inner index so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups served from the cache; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Answers the cache accepted on insert so far.
    ///
    /// Degraded answers are never offered to the cache, so they count
    /// neither as admitted nor rejected.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Answers the admission policy refused so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    pub(crate) fn record_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_misses(&self, n: u64) {
        self.misses.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_admission(&self, admitted: bool) {
        if admitted {
            self.admitted.fetch_add(1, Ordering::Relaxed);
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl rbc_trace::Collector for CacheCounters {
    /// Exports the hit/miss counters, the derived hit rate, and the
    /// admission outcomes as registry samples under the `rbc_cache_*`
    /// namespace (admission under `rbc_cache_admission_*`).
    fn collect(&self) -> Vec<rbc_trace::MetricSample> {
        vec![
            rbc_trace::MetricSample::counter("rbc_cache_hits_total", self.hits()),
            rbc_trace::MetricSample::counter("rbc_cache_misses_total", self.misses()),
            rbc_trace::MetricSample::gauge("rbc_cache_hit_rate", self.hit_rate()),
            rbc_trace::MetricSample::counter("rbc_cache_admission_admitted_total", self.admitted()),
            rbc_trace::MetricSample::counter("rbc_cache_admission_rejected_total", self.rejected()),
        ]
    }
}

/// A [`SearchIndex`] wrapper that answers repeated queries from a
/// [`TinyLfuCache`].
///
/// Cache hits cost zero distance evaluations and are excluded from the
/// inner index's batches; misses are forwarded (batched together when
/// they arrived batched) and their answers cached on the way out.
#[derive(Debug)]
pub struct CachedIndex<I> {
    inner: I,
    cache: Mutex<TinyLfuCache<Vec<Neighbor>>>,
    counters: Arc<CacheCounters>,
}

impl<I: SearchIndex> CachedIndex<I>
where
    I::Query: CacheKey,
{
    /// Wraps `inner` with a cache of at most `capacity` answers.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (see [`TinyLfuCache::new`]); to serve
    /// uncached, hand the engine the bare index instead.
    pub fn new(inner: I, capacity: usize) -> Self {
        Self {
            inner,
            cache: Mutex::new(TinyLfuCache::new(capacity)),
            counters: Arc::new(CacheCounters::default()),
        }
    }

    /// The wrapped index.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// A shared handle onto this cache's hit/miss counters, for
    /// registering with an engine's metrics
    /// ([`Engine::track_cache`](crate::engine::Engine::track_cache)).
    pub fn counters(&self) -> Arc<CacheCounters> {
        Arc::clone(&self.counters)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.counters.hits()
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.counters.misses()
    }

    /// Fraction of lookups served from the cache; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        self.counters.hit_rate()
    }

    fn key_of(query: &I::Query, k: usize) -> Vec<u8> {
        let mut key = query.cache_key();
        key.extend_from_slice(&(k as u64).to_le_bytes());
        key
    }
}

impl<I: SearchIndex> SearchIndex for CachedIndex<I>
where
    I::Query: CacheKey,
{
    type Query = I::Query;

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn search(&self, query: &Self::Query, k: usize) -> (Vec<Neighbor>, u64) {
        let key = Self::key_of(query, k);
        if let Some(hit) = self.cache.lock().expect("cache lock poisoned").get(&key) {
            self.counters.record_hits(1);
            return (hit.clone(), 0);
        }
        self.counters.record_misses(1);
        let (answer, evals) = self.inner.search(query, k);
        let admitted = self
            .cache
            .lock()
            .expect("cache lock poisoned")
            .insert(key, answer.clone());
        self.counters.record_admission(admitted);
        (answer, evals)
    }

    fn search_batch(&self, queries: &[&Self::Query], k: usize) -> (Vec<Vec<Neighbor>>, u64) {
        let (results, _, evals) = self.search_batch_flagged(queries, k);
        (results, evals)
    }

    /// Cache hits are never degraded (a degraded answer is never cached:
    /// it reflects a transient outage, and caching it would keep serving
    /// the partial result after the index recovered); misses forward the
    /// inner index's flags.
    fn search_batch_flagged(
        &self,
        queries: &[&Self::Query],
        k: usize,
    ) -> (Vec<Vec<Neighbor>>, Vec<bool>, u64) {
        let mut results: Vec<Option<Vec<Neighbor>>> = vec![None; queries.len()];
        let mut degraded = vec![false; queries.len()];
        let mut miss_positions = Vec::new();
        {
            let mut cache = self.cache.lock().expect("cache lock poisoned");
            for (i, q) in queries.iter().enumerate() {
                match cache.get(&Self::key_of(q, k)) {
                    Some(hit) => results[i] = Some(hit.clone()),
                    None => miss_positions.push(i),
                }
            }
        }
        self.counters
            .record_hits((queries.len() - miss_positions.len()) as u64);
        self.counters.record_misses(miss_positions.len() as u64);

        let mut evals = 0u64;
        if !miss_positions.is_empty() {
            let missed: Vec<&Self::Query> = miss_positions.iter().map(|&i| queries[i]).collect();
            let (answers, flags, work) = self.inner.search_batch_flagged(&missed, k);
            evals = work;
            let mut cache = self.cache.lock().expect("cache lock poisoned");
            for ((&i, answer), flag) in miss_positions.iter().zip(answers).zip(flags) {
                if !flag {
                    let admitted = cache.insert(Self::key_of(queries[i], k), answer.clone());
                    self.counters.record_admission(admitted);
                }
                degraded[i] = flag;
                results[i] = Some(answer);
            }
        }
        (
            results
                .into_iter()
                .map(|r| r.expect("every position filled"))
                .collect(),
            degraded,
            evals,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbc_core::{ExactRbc, RbcConfig, RbcParams};
    use rbc_metric::{Euclidean, VectorSet};

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = LruCache::new(2);
        lru.insert(b"a".to_vec(), 1);
        lru.insert(b"b".to_vec(), 2);
        assert_eq!(lru.get(b"a"), Some(&1)); // refresh a; b is now LRU
        lru.insert(b"c".to_vec(), 3);
        assert_eq!(lru.get(b"b"), None);
        assert_eq!(lru.get(b"a"), Some(&1));
        assert_eq!(lru.get(b"c"), Some(&3));
        assert_eq!(lru.len(), 2);
        assert!(!lru.is_empty());
    }

    #[test]
    fn lru_insert_refreshes_existing_keys() {
        let mut lru = LruCache::new(2);
        lru.insert(b"a".to_vec(), 1);
        lru.insert(b"b".to_vec(), 2);
        lru.insert(b"a".to_vec(), 10); // refresh + overwrite; b is LRU
        lru.insert(b"c".to_vec(), 3);
        assert_eq!(lru.get(b"a"), Some(&10));
        assert_eq!(lru.get(b"b"), None);
    }

    #[test]
    fn lru_capacity_one_works() {
        let mut lru = LruCache::new(1);
        for i in 0..10u32 {
            lru.insert(vec![i as u8], i);
            assert_eq!(lru.len(), 1);
            assert_eq!(lru.get(&[i as u8]), Some(&i));
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = LruCache::<u32>::new(0);
    }

    #[test]
    fn sketch_counts_and_ages() {
        let mut sketch = FrequencySketch::new(4);
        assert_eq!(sketch.frequency(b"x"), 0);
        for _ in 0..3 {
            sketch.increment(b"x");
        }
        assert!(sketch.frequency(b"x") >= 3); // count-min over-estimates only
        for _ in 0..100 {
            sketch.increment(b"x");
        }
        assert_eq!(sketch.frequency(b"x"), 15, "counters saturate at 15");
        sketch.age();
        assert_eq!(sketch.frequency(b"x"), 7, "aging halves every counter");
        // The sample window (10× capacity) triggers aging automatically.
        let mut small = FrequencySketch::new(1);
        for _ in 0..10 {
            small.increment(b"y");
        }
        assert!(small.frequency(b"y") <= 7, "window aging halved the count");
    }

    #[test]
    fn tinylfu_scan_resistance_protects_the_hot_set() {
        let mut cache = TinyLfuCache::new(10);
        let hot: Vec<Vec<u8>> = (0..5u8).map(|i| vec![b'h', i]).collect();
        for key in &hot {
            assert!(cache.insert(key.clone(), 1u32));
            cache.get(key); // second touch → promoted to protected
        }
        for i in 0..5u8 {
            assert!(cache.insert(vec![b'f', i], 2)); // cold fillers → probation
        }
        assert_eq!(cache.len(), 10);
        // A one-pass scan of one-hit wonders (short enough to stay inside
        // one sketch sample window): a candidate seen once cannot
        // *strictly* beat the probation victim's frequency, so scan keys
        // bounce off — modulo the odd count-min collision that inflates a
        // candidate's estimate — and the cache never grows. Admitted
        // collisions can only displace probation fillers; the protected
        // hot set is untouchable by a scan.
        let rejected = (0..50u32)
            .filter(|i| !cache.insert(i.to_le_bytes().to_vec(), 3))
            .count();
        assert!(rejected >= 40, "only {rejected}/50 scan keys bounced off");
        assert_eq!(cache.len(), 10);
        for key in &hot {
            assert_eq!(cache.get(key), Some(&1), "hot set survived the scan");
        }
        // Contrast: plain LRU loses the hot set to the same scan.
        let mut lru = LruCache::new(10);
        for key in &hot {
            lru.insert(key.clone(), 1u32);
            lru.get(key);
        }
        for i in 0..50u32 {
            lru.insert(i.to_le_bytes().to_vec(), 3);
        }
        assert!(hot.iter().all(|key| lru.get(key).is_none()));
    }

    #[test]
    fn tinylfu_rerequested_keys_earn_admission() {
        let mut cache = TinyLfuCache::new(2);
        assert!(cache.insert(b"a".to_vec(), 1u32));
        assert!(cache.insert(b"b".to_vec(), 2));
        // New key at capacity, seen once: tie with the victim → rejected.
        assert!(!cache.insert(b"c".to_vec(), 3));
        assert_eq!(cache.get(b"c"), None);
        // Each retry raises c's sketch frequency; soon it beats the
        // victim and replaces it.
        assert!(cache.insert(b"c".to_vec(), 3));
        assert_eq!(cache.get(b"c"), Some(&3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn tinylfu_capacity_one_has_no_protected_segment() {
        let mut cache = TinyLfuCache::new(1);
        assert!(cache.insert(b"x".to_vec(), 1u32));
        assert_eq!(cache.get(b"x"), Some(&1));
        assert_eq!(cache.get(b"x"), Some(&1));
        assert!(!cache.insert(b"y".to_vec(), 2), "x is far more popular");
        assert_eq!(cache.get(b"y"), None);
        assert!(cache.insert(b"x".to_vec(), 10), "refresh always admits");
        assert_eq!(cache.get(b"x"), Some(&10));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn tinylfu_promotion_demotes_protected_overflow_without_eviction() {
        // Capacity 5 → protected 4. Promote all five one after another:
        // the fifth promotion overflows protected, demoting its LRU back
        // to probation — nothing ever leaves the cache.
        let mut cache = TinyLfuCache::new(5);
        for i in 0..5u8 {
            cache.insert(vec![i], u32::from(i));
        }
        for i in 0..5u8 {
            assert_eq!(cache.get(&[i]), Some(&u32::from(i)));
        }
        assert_eq!(cache.len(), 5);
        for i in 0..5u8 {
            assert_eq!(cache.get(&[i]), Some(&u32::from(i)));
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn tinylfu_zero_capacity_is_rejected() {
        let _ = TinyLfuCache::<u32>::new(0);
    }

    #[test]
    fn cache_keys_distinguish_k_and_query() {
        let a = [1.0f32, 2.0];
        let b = [1.0f32, 2.5];
        assert_ne!(a.cache_key(), b.cache_key());
        assert_ne!("ab".cache_key(), "ac".cache_key());
        assert_ne!(3usize.cache_key(), 4usize.cache_key());
    }

    fn toy_index() -> ExactRbc<VectorSet, Euclidean> {
        let rows: Vec<Vec<f32>> = (0..200)
            .map(|i| vec![(i % 17) as f32, (i % 23) as f32, i as f32 * 0.01])
            .collect();
        let db = VectorSet::from_rows(&rows);
        ExactRbc::build(
            db,
            Euclidean,
            RbcParams::standard(200, 1),
            RbcConfig::default(),
        )
    }

    #[test]
    fn repeated_queries_hit_and_cost_zero_evals() {
        let cached = CachedIndex::new(toy_index(), 16);
        let q = vec![3.0f32, 5.0, 0.4];
        let (first, evals_first) = cached.search(&q, 2);
        assert!(evals_first > 0);
        let (second, evals_second) = cached.search(&q, 2);
        assert_eq!(first, second);
        assert_eq!(evals_second, 0);
        assert_eq!(cached.hits(), 1);
        assert_eq!(cached.misses(), 1);
        assert_eq!(cached.hit_rate(), 0.5);
        // The shared counter handle sees the same numbers the wrapper does.
        let counters = cached.counters();
        assert_eq!(counters.hits(), 1);
        assert_eq!(counters.misses(), 1);
        assert_eq!(counters.hit_rate(), 0.5);
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
        // Different k is a different entry.
        let (_, evals_k3) = cached.search(&q, 3);
        assert!(evals_k3 > 0);
    }

    #[test]
    fn batch_path_mixes_hits_and_misses_in_order() {
        let cached = CachedIndex::new(toy_index(), 16);
        let a = vec![1.0f32, 1.0, 0.1];
        let b = vec![9.0f32, 2.0, 0.7];
        let c = vec![4.0f32, 8.0, 1.3];
        let (direct_a, _) = cached.inner().search(&a, 1);
        let (direct_b, _) = cached.inner().search(&b, 1);
        let (direct_c, _) = cached.inner().search(&c, 1);

        // Warm only b.
        let (_, _) = cached.search(&b, 1);
        let queries: Vec<&[f32]> = vec![&a, &b, &c];
        let (batch, evals) = cached.search_batch(&queries, 1);
        assert_eq!(batch, vec![direct_a, direct_b, direct_c]);
        assert!(evals > 0);
        assert_eq!(cached.hits(), 1);
        assert_eq!(cached.misses(), 3); // warmup b + misses a, c

        // Everything warm now: a full-hit batch costs nothing.
        let (batch2, evals2) = cached.search_batch(&queries, 1);
        assert_eq!(batch2, batch);
        assert_eq!(evals2, 0);
    }

    #[test]
    fn admission_counters_track_policy_decisions() {
        // Capacity 2: the third distinct query is refused (tie with the
        // victim), but re-asking it earns admission.
        let cached = CachedIndex::new(toy_index(), 2);
        let a = vec![1.0f32, 1.0, 0.1];
        let b = vec![9.0f32, 2.0, 0.7];
        let c = vec![4.0f32, 8.0, 1.3];
        cached.search(&a, 1);
        cached.search(&b, 1);
        let counters = cached.counters();
        assert_eq!((counters.admitted(), counters.rejected()), (2, 0));
        let (first_c, _) = cached.search(&c, 1);
        assert_eq!((counters.admitted(), counters.rejected()), (2, 1));
        // The rejected answer was still correct, just not remembered.
        let (again_c, evals_again) = cached.search(&c, 1);
        assert_eq!(first_c, again_c);
        assert!(evals_again > 0, "c was not cached the first time");
        assert_eq!((counters.admitted(), counters.rejected()), (3, 1));
        let (_, evals_hit) = cached.search(&c, 1);
        assert_eq!(evals_hit, 0, "second ask admitted c");

        // The collector exports the admission family.
        let samples = rbc_trace::Collector::collect(&*counters);
        let find = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing sample {name}"))
                .value
                .clone()
        };
        assert_eq!(
            find("rbc_cache_admission_admitted_total"),
            rbc_trace::MetricValue::Counter(3)
        );
        assert_eq!(
            find("rbc_cache_admission_rejected_total"),
            rbc_trace::MetricValue::Counter(1)
        );
    }

    #[test]
    fn cached_answers_equal_the_uncached_index() {
        let cached = CachedIndex::new(toy_index(), 4);
        let bare = toy_index();
        // More distinct queries than capacity, repeated: the cache keeps
        // a subset but must serve the same answers as the bare index.
        let queries: Vec<Vec<f32>> = (0..8)
            .map(|i| vec![i as f32 * 1.7, (8 - i) as f32 * 0.9, i as f32 * 0.05])
            .collect();
        for round in 0..3 {
            for q in &queries {
                let k = 1 + round % 2;
                let (want, _) = bare.search(q, k);
                assert_eq!(cached.search(q, k).0, want);
            }
        }
    }
}
