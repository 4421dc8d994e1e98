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
//! The store is one slab of entries, each holding its key once, and one
//! map from a key's keyed SipHash to its slot. The two segments are
//! intrusive recency lists through the slab, so promotion, demotion and
//! eviction relink slots and leave the map alone. A lookup hashes its key
//! once for the map and once, unseeded, for the sketch, and probes once.
//! `serve.cache_hit_ns` on `serve_local` (2-vCPU host) fell from ≈ 500 ns
//! with two LRU maps, each holding a copy of every key, to ≈ 195 ns.
//!
//! [W-TinyLFU]: https://arxiv.org/abs/1512.00727

use std::collections::hash_map::{HashMap, RandomState};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rbc_bruteforce::Neighbor;
use rbc_core::SearchIndex;

/// Queries that can serve as exact cache keys.
///
/// The written bytes must uniquely determine the query: equal bytes ⇒
/// equal answers. Implementations exist for the workspace's query types
/// (`[f32]` vectors, `str` strings, `usize` ids).
pub trait CacheKey {
    /// Appends the query's identity bytes to `out`.
    fn write_cache_key(&self, out: &mut Vec<u8>);

    /// Serialises the query into its identity bytes.
    fn cache_key(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.write_cache_key(&mut bytes);
        bytes
    }
}

impl CacheKey for [f32] {
    fn write_cache_key(&self, out: &mut Vec<u8>) {
        for v in self {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

impl CacheKey for str {
    fn write_cache_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

impl CacheKey for usize {
    fn write_cache_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
}

/// Row seeds decorrelating the four count-min hash functions.
const SKETCH_HASH_SEEDS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xc2b2_ae3d_27d4_eb4f,
];

/// The sketch's hash of a key, one folded 64 × 64 → 128-bit multiply per
/// word; unseeded, so admission is the same in every run.
fn sketch_hash(key: &[u8]) -> u64 {
    fn fold(a: u64, b: u64) -> u64 {
        let product = u128::from(a) * u128::from(b);
        product as u64 ^ (product >> 64) as u64
    }
    let mut words = key.chunks_exact(8);
    let mut h = key.len() as u64;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        h = fold(h ^ word, SKETCH_HASH_SEEDS[0]);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    fold(h ^ u64::from_le_bytes(tail), SKETCH_HASH_SEEDS[1])
}

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

    /// (word, bit-shift) of this key's counter in one sketch row.
    fn slot(&self, hash: u64, seed: u64) -> (usize, u32) {
        let mut h = hash ^ seed;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        let idx = h & self.mask;
        ((idx / 16) as usize, ((idx % 16) * 4) as u32)
    }

    /// Bumps the key's counter in every row (saturating at 15) and runs
    /// an aging pass when the sample window fills.
    fn increment(&mut self, hash: u64) {
        let mut bumped = false;
        for seed in SKETCH_HASH_SEEDS {
            let (word, shift) = self.slot(hash, seed);
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
    fn frequency(&self, hash: u64) -> u64 {
        SKETCH_HASH_SEEDS
            .iter()
            .map(|&seed| {
                let (word, shift) = self.slot(hash, seed);
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

/// A key's keyed SipHash for the map and unseeded [`sketch_hash`].
#[derive(Clone, Copy)]
struct KeyHash {
    map: u64,
    sketch: u64,
}

/// A [`Hasher`] for map keys that already are hashes.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the map's keys are u64 hashes")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// End of a recency list or of a hash chain.
const NIL: usize = usize::MAX;

/// The segment an entry is in; it indexes [`TinyLfuCache::lists`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Segment {
    Probation = 0,
    Protected = 1,
}

/// One cached entry: `prev`/`next` link it into its segment's list,
/// `twin` to the next slot whose key has the same map `hash`.
#[derive(Debug)]
struct Slot<V> {
    key: Box<[u8]>,
    value: V,
    hash: u64,
    segment: Segment,
    prev: usize,
    next: usize,
    twin: usize,
}

/// An intrusive recency list through the slab, most recent at `head`.
#[derive(Debug, Clone, Copy)]
struct List {
    head: usize,
    tail: usize,
    len: usize,
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
    /// Keys the map's SipHash, so crafted keys cannot aim at one bucket.
    hasher: RandomState,
    /// Map hash → the first slot with that hash.
    map: HashMap<u64, usize, BuildHasherDefault<Prehashed>>,
    slots: Vec<Slot<V>>,
    lists: [List; 2],
}

impl<V> TinyLfuCache<V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a zero-capacity cache is a
    /// misconfiguration, not a useful degenerate case.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "TinyLfuCache capacity must be at least 1 (got 0)"
        );
        Self {
            capacity,
            protected_cap: capacity * 4 / 5,
            sketch: FrequencySketch::new(capacity),
            hasher: RandomState::new(),
            map: HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
            slots: Vec::with_capacity(capacity),
            lists: [List {
                head: NIL,
                tail: NIL,
                len: 0,
            }; 2],
        }
    }

    /// Number of cached entries across both segments.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Looks a key up, recording the access in the frequency sketch
    /// (misses included — that is how a re-requested key earns admission)
    /// and promoting probation hits into the protected segment.
    pub fn get(&mut self, key: &[u8]) -> Option<&V> {
        self.get_hashed(key, self.hash(key))
    }

    /// Inserts a key, returning whether it was admitted.
    ///
    /// Existing keys refresh in place and always count as admitted. At
    /// capacity a new key must beat the eviction victim's sketch
    /// frequency (strictly — ties keep the incumbent, which is what makes
    /// a one-pass scan bounce off).
    pub fn insert(&mut self, key: Vec<u8>, value: V) -> bool {
        self.insert_hashed(&key, self.hash(&key), value)
    }

    fn hash(&self, key: &[u8]) -> KeyHash {
        KeyHash {
            map: self.hasher.hash_one(key),
            sketch: sketch_hash(key),
        }
    }

    /// [`get`](Self::get) with the key's hashes already computed.
    fn get_hashed(&mut self, key: &[u8], hash: KeyHash) -> Option<&V> {
        self.sketch.increment(hash.sketch);
        let slot = self.find(key, hash.map)?;
        let protected = self.lists[Segment::Protected as usize];
        match self.slots[slot].segment {
            // At capacity 1 there is no protected segment to promote to.
            Segment::Probation if self.protected_cap > 0 => {
                if protected.len == self.protected_cap {
                    self.relink(protected.tail, Segment::Probation);
                }
                self.relink(slot, Segment::Protected);
            }
            segment => self.relink(slot, segment),
        }
        Some(&self.slots[slot].value)
    }

    /// [`insert`](Self::insert) with the key's hashes already computed;
    /// the key is copied only if it is admitted.
    fn insert_hashed(&mut self, key: &[u8], hash: KeyHash, value: V) -> bool {
        self.sketch.increment(hash.sketch);
        if let Some(slot) = self.find(key, hash.map) {
            self.slots[slot].value = value;
            self.relink(slot, self.slots[slot].segment);
            return true;
        }
        let slot = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                key: key.into(),
                value,
                hash: hash.map,
                segment: Segment::Probation,
                prev: NIL,
                next: NIL,
                twin: NIL,
            });
            self.slots.len() - 1
        } else {
            let [probation, protected] = self.lists.map(|list| list.tail);
            let victim = if probation == NIL {
                protected
            } else {
                probation
            };
            let victim_freq = self.sketch.frequency(sketch_hash(&self.slots[victim].key));
            if self.sketch.frequency(hash.sketch) <= victim_freq {
                return false;
            }
            self.unlink(victim);
            self.unindex(victim);
            let entry = &mut self.slots[victim];
            entry.key = key.into();
            entry.value = value;
            entry.hash = hash.map;
            victim
        };
        self.push_front(slot, Segment::Probation);
        let displaced = self.map.insert(hash.map, slot);
        self.slots[slot].twin = displaced.unwrap_or(NIL);
        true
    }

    /// The slot holding `key`: one probe, then a walk of the (almost
    /// always one-long) chain of slots with the same map hash.
    fn find(&self, key: &[u8], hash: u64) -> Option<usize> {
        let mut slot = *self.map.get(&hash)?;
        while *self.slots[slot].key != *key {
            slot = self.slots[slot].twin;
            if slot == NIL {
                return None;
            }
        }
        Some(slot)
    }

    /// Takes `slot` out of its hash chain, before its slot is reused.
    fn unindex(&mut self, slot: usize) {
        let Slot { hash, twin, .. } = self.slots[slot];
        let first = self.map.get_mut(&hash).expect("a cached key is in the map");
        if *first != slot {
            let mut at = *first;
            while self.slots[at].twin != slot {
                at = self.slots[at].twin;
            }
            self.slots[at].twin = twin;
        } else if twin != NIL {
            *first = twin;
        } else {
            self.map.remove(&hash);
        }
    }

    fn unlink(&mut self, slot: usize) {
        let Slot { prev, next, .. } = self.slots[slot];
        let list = &mut self.lists[self.slots[slot].segment as usize];
        match prev {
            NIL => list.head = next,
            _ => self.slots[prev].next = next,
        }
        match next {
            NIL => list.tail = prev,
            _ => self.slots[next].prev = prev,
        }
        list.len -= 1;
    }

    fn push_front(&mut self, slot: usize, segment: Segment) {
        let list = &mut self.lists[segment as usize];
        let entry = &mut self.slots[slot];
        entry.segment = segment;
        entry.prev = NIL;
        entry.next = list.head;
        match list.head {
            NIL => list.tail = slot,
            head => self.slots[head].prev = slot,
        }
        list.head = slot;
        list.len += 1;
    }

    /// Moves `slot` to the front of `segment`'s list.
    fn relink(&mut self, slot: usize, segment: Segment) {
        self.unlink(slot);
        self.push_front(slot, segment);
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
}

impl<I: SearchIndex> SearchIndex for CachedIndex<I>
where
    I::Query: CacheKey,
{
    type Query = I::Query;

    fn size(&self) -> usize {
        self.inner.size()
    }

    /// One query through the batch path, which never caches a degraded answer.
    fn search(&self, query: &Self::Query, k: usize) -> (Vec<Neighbor>, u64) {
        let (mut answers, _, evals) = self.search_batch_flagged(&[query], k);
        (answers.pop().expect("one answer per query"), evals)
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
        let mut results = Vec::with_capacity(queries.len());
        let mut degraded = vec![false; queries.len()];
        // Each key is written once into `keys`: a hit's bytes are
        // overwritten by the next query's, a miss's stay for admission.
        let mut keys = Vec::new();
        let mut misses = Vec::new();
        {
            let mut cache = self.cache.lock().expect("cache lock poisoned");
            for (i, q) in queries.iter().enumerate() {
                let start = keys.len();
                q.write_cache_key(&mut keys);
                keys.extend_from_slice(&(k as u64).to_le_bytes());
                let hash = cache.hash(&keys[start..]);
                match cache.get_hashed(&keys[start..], hash) {
                    Some(hit) => {
                        results.push(hit.clone());
                        keys.truncate(start);
                    }
                    None => {
                        results.push(Vec::new());
                        misses.push((i, start..keys.len(), hash));
                    }
                }
            }
        }
        self.counters
            .record_hits((queries.len() - misses.len()) as u64);
        self.counters.record_misses(misses.len() as u64);

        let mut evals = 0u64;
        if !misses.is_empty() {
            let missed: Vec<&Self::Query> = misses.iter().map(|&(i, ..)| queries[i]).collect();
            let (answers, flags, work) = self.inner.search_batch_flagged(&missed, k);
            evals = work;
            let mut cache = self.cache.lock().expect("cache lock poisoned");
            for ((i, range, hash), (answer, flag)) in
                misses.into_iter().zip(answers.into_iter().zip(flags))
            {
                if !flag {
                    let admitted = cache.insert_hashed(&keys[range], hash, answer.clone());
                    self.counters.record_admission(admitted);
                }
                degraded[i] = flag;
                results[i] = answer;
            }
        }
        (results, degraded, evals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rbc_core::{ExactRbc, RbcConfig, RbcParams};
    use rbc_metric::{Euclidean, VectorSet};
    use std::collections::HashSet;

    /// Inserts `key` under `hash` until the admission filter lets it in
    /// (each attempt raises its sketch count).
    fn admit_hashed(cache: &mut TinyLfuCache<u32>, key: &[u8], hash: KeyHash, value: u32) {
        for _ in 0..64 {
            if cache.insert_hashed(key, hash, value) {
                return;
            }
        }
        panic!("{key:?} was never admitted");
    }

    fn admit(cache: &mut TinyLfuCache<u32>, key: &[u8], value: u32) {
        let hash = cache.hash(key);
        admit_hashed(cache, key, hash, value);
    }

    /// Walks both recency lists, checking each slot's links, segment tag
    /// and map entry and each list's tail and length, and returns each
    /// segment's keys from most to least recent.
    fn segments<V>(cache: &TinyLfuCache<V>) -> [Vec<Vec<u8>>; 2] {
        [Segment::Probation, Segment::Protected].map(|segment| {
            let list = cache.lists[segment as usize];
            let mut keys = Vec::new();
            let (mut prev, mut at) = (NIL, list.head);
            while at != NIL {
                let slot = &cache.slots[at];
                assert_eq!((slot.segment, slot.prev), (segment, prev));
                assert_eq!(cache.find(&slot.key, slot.hash), Some(at));
                keys.push(slot.key.to_vec());
                (prev, at) = (at, slot.next);
            }
            assert_eq!((list.tail, list.len), (prev, keys.len()));
            keys
        })
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Capacity 2 → protected 1. The victim is probation's least
        // recently used entry.
        let mut cache = TinyLfuCache::new(2);
        cache.insert(b"a".to_vec(), 1);
        cache.insert(b"b".to_vec(), 2);
        assert_eq!(cache.get(b"a"), Some(&1)); // a → protected; b is the victim
        admit(&mut cache, b"c", 3);
        assert_eq!(cache.get(b"b"), None);
        assert_eq!(cache.get(b"a"), Some(&1));
        assert_eq!(cache.get(b"c"), Some(&3));
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn lru_insert_refreshes_existing_keys() {
        let mut cache = TinyLfuCache::new(2);
        cache.insert(b"a".to_vec(), 1);
        cache.insert(b"b".to_vec(), 2);
        assert!(cache.insert(b"a".to_vec(), 10)); // refresh + overwrite; b is LRU
        admit(&mut cache, b"c", 3);
        assert_eq!(cache.get(b"a"), Some(&10));
        assert_eq!(cache.get(b"b"), None);
    }

    #[test]
    fn lru_capacity_one_works() {
        // One slot, reused by every admitted key.
        let mut cache = TinyLfuCache::new(1);
        for i in 0..10u32 {
            admit(&mut cache, &[i as u8], i);
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.get(&[i as u8]), Some(&i));
            assert_eq!(segments(&cache), [vec![vec![i as u8]], vec![]]);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = CachedIndex::new(toy_index(), 0);
    }

    #[test]
    fn keys_sharing_a_map_hash_are_stored_found_and_evicted_apart() {
        // Capacity 2 → protected 1; `a` and `b` are forced onto one map
        // hash, so one map entry chains both slots.
        let mut cache = TinyLfuCache::new(2);
        let (a, b) = (&b"a"[..], &b"b"[..]);
        let shared = |key: &[u8]| KeyHash {
            map: 7,
            sketch: sketch_hash(key),
        };
        assert!(cache.insert_hashed(a, shared(a), 1));
        assert!(cache.insert_hashed(b, shared(b), 2));
        assert_eq!(cache.map.len(), 1);
        assert_eq!(cache.get_hashed(a, shared(a)), Some(&1));
        assert_eq!(cache.get_hashed(b, shared(b)), Some(&2)); // demotes a
                                                              // a is the victim, behind b in the chain.
        admit(&mut cache, b"c", 3);
        assert_eq!(cache.get_hashed(a, shared(a)), None);
        assert_eq!(cache.get_hashed(b, shared(b)), Some(&2));
        // a comes back (the victim is c) at the head of the chain ...
        admit_hashed(&mut cache, a, shared(a), 1);
        assert_eq!(cache.get(b"c"), None);
        assert_eq!(cache.get_hashed(b, shared(b)), Some(&2));
        // ... and leaves again, the map entry passing to b.
        admit(&mut cache, b"d", 4);
        assert_eq!(cache.get_hashed(a, shared(a)), None);
        assert_eq!(cache.get_hashed(b, shared(b)), Some(&2));
        // Last, b leaves on its own and takes the map entry with it.
        assert_eq!(cache.get(b"d"), Some(&4)); // demotes b
        admit(&mut cache, b"e", 5);
        assert_eq!(cache.get_hashed(b, shared(b)), None);
        assert!(!cache.map.contains_key(&7));
        assert_eq!(segments(&cache), [vec![b"e".to_vec()], vec![b"d".to_vec()]]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random `get`/`insert` traffic over a small alphabet (so keys
        /// repeat), checked at several capacities against a model of the
        /// live contents.
        #[test]
        fn random_traffic_agrees_with_a_model_of_the_live_contents(
            ops in prop::collection::vec((any::<bool>(), 0usize..1 << 16, 0u32..1000), 1..400),
        ) {
            for capacity in [1, 2, 5, 64] {
                let mut cache = TinyLfuCache::new(capacity);
                let mut live: HashMap<Vec<u8>, u32> = HashMap::new();
                for &(is_get, draw, value) in &ops {
                    let key = (draw % (2 * capacity + 3)).to_le_bytes().to_vec();
                    let mut entered = false;
                    if is_get {
                        // A hit returns the value last inserted; a key that
                        // was evicted or never admitted misses.
                        prop_assert_eq!(cache.get(&key), live.get(&key));
                    } else {
                        let present = live.contains_key(&key);
                        let room = live.len() < capacity;
                        let admitted = cache.insert(key.clone(), value);
                        prop_assert!(admitted || !(present || room), "a present key or a free slot admits");
                        if admitted {
                            entered = !present;
                            live.insert(key, value);
                        }
                    }
                    let [probation, protected] = segments(&cache);
                    prop_assert!(probation.iter().all(|key| !protected.contains(key)));
                    prop_assert!(protected.len() <= cache.protected_cap);
                    prop_assert_eq!(probation.len() + protected.len(), cache.len());
                    prop_assert!(cache.len() <= capacity);
                    // One key at most leaves, and only for a new one.
                    let cached: HashSet<&Vec<u8>> = probation.iter().chain(&protected).collect();
                    let evicted: Vec<Vec<u8>> =
                        live.keys().filter(|key| !cached.contains(key)).cloned().collect();
                    prop_assert!(evicted.len() <= usize::from(entered));
                    for key in &evicted {
                        live.remove(key);
                    }
                    prop_assert!(cached.iter().all(|key| live.contains_key(*key)));
                }
            }
        }
    }

    #[test]
    fn sketch_counts_and_ages() {
        let (x, y) = (sketch_hash(b"x"), sketch_hash(b"y"));
        let mut sketch = FrequencySketch::new(4);
        assert_eq!(sketch.frequency(x), 0);
        for _ in 0..3 {
            sketch.increment(x);
        }
        assert!(sketch.frequency(x) >= 3); // count-min over-estimates only
        for _ in 0..100 {
            sketch.increment(x);
        }
        assert_eq!(sketch.frequency(x), 15, "counters saturate at 15");
        sketch.age();
        assert_eq!(sketch.frequency(x), 7, "aging halves every counter");
        // The sample window (10× capacity) triggers aging automatically.
        let mut small = FrequencySketch::new(1);
        for _ in 0..10 {
            small.increment(y);
        }
        assert!(small.frequency(y) <= 7, "window aging halved the count");
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
