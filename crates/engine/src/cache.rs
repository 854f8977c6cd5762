//! Fingerprint-keyed memoization of [`LocalityProfile`]s.
//!
//! The expensive part of a prediction is the trace analysis; evaluating a
//! profile at one more sector setting is nearly free. The cache therefore
//! keys on everything [`LocalityProfile::compute`] depends on — the
//! matrix's structural fingerprint, the method, the modeled thread count,
//! and the two machine parameters baked into a profile (line size and
//! domain width) — and deliberately **not** on the individual sector
//! setting, so a 7-setting sweep of one matrix costs one computation and
//! 6 hits. Method-(A) (marker-quantized) profiles additionally key on the
//! *fingerprint of their capacity grids* (`caps_fingerprint`), because
//! such a profile only answers at the capacities it tracked; method-(B)
//! profiles answer every capacity and key with 0.
//!
//! Concurrent requests for the same key block on a shared [`OnceLock`]:
//! exactly one worker computes, the rest wait for the slot rather than
//! duplicating the work, so the computation count equals the number of
//! distinct keys regardless of scheduling.
//!
//! # Bounded mode
//!
//! The default cache is unbounded — the engine relies on that for its
//! deterministic hit/computation summary. Long-lived holders (the
//! `spmv-locality serve` daemon, whose cache is shared across every
//! client request) cap it with [`ProfileCache::bounded`], which evicts by
//! **LRU**: every lookup stamps its key with a use clock, and the key
//! with the oldest stamp goes first.
//!
//! # Source memo
//!
//! Next to the profiles the cache keeps a small memo from each generated
//! matrix's source key to what a job needs before its lookup — report
//! name, reorder-tagged fingerprint, shape — so a warm request builds no
//! matrix at all. The memo is bounded by the same `max_entries`, with the
//! same use-stamp LRU as the profile slots, and gains an entry only after
//! a build succeeds. The cache also owns the
//! source counters (`engine.sources.*`): matrices built, memo hits, and
//! the most matrices alive at once.

use crate::source::{SourceKey, SourceMeta};
use locality_core::{LocalityProfile, Method};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything a memoized profile depends on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProfileKey {
    /// The workload's format-tagged
    /// [`fingerprint`](locality_core::SpmvWorkload::fingerprint) (CSR
    /// keeps the legacy untagged
    /// [`CsrMatrix::fingerprint`](sparsemat::CsrMatrix::fingerprint)),
    /// further tagged by the batch's
    /// [`ReorderSpec`](locality_core::ReorderSpec) when one applies.
    pub fingerprint: u64,
    /// Model variant.
    pub method: Method,
    /// Modeled SpMV thread count.
    pub threads: usize,
    /// Cache line size the trace was folded to.
    pub line_bytes: usize,
    /// Cores per NUMA domain (thread-to-domain grouping).
    pub cores_per_domain: usize,
    /// [`locality_core::TrackedCaps::fingerprint`] of a method-(A)
    /// profile's capacity grids; 0 for method-(B) profiles, which track
    /// none.
    pub caps_fingerprint: u64,
    /// [`machine::HierarchyConfig::fingerprint`] of the machine the
    /// profile was computed for. Distinct hierarchies must never share a
    /// cache slot even when their projections agree on `line_bytes` and
    /// `cores_per_domain` (they can still differ in L1 capacity, sector
    /// policy, ...). 0 for machine-agnostic callers that key their cache
    /// some other way.
    pub machine_tag: u64,
}

/// The outcome of a cache lookup that may be cancelled mid-computation.
#[derive(Clone, Debug)]
pub struct CacheLookup {
    /// The (possibly shared) profile.
    pub profile: Arc<LocalityProfile>,
    /// `true` if this lookup was served from an existing slot, `false`
    /// if the calling thread computed the profile itself.
    pub hit: bool,
}

/// A thread-safe profile memo with hit/computation/eviction counters.
///
/// The default cache is unbounded — the engine relies on that for its
/// deterministic hit/computation summary (an eviction under memory
/// pressure would make `computations` scheduling-dependent). For
/// long-lived or corpus-scale holders, [`Self::bounded`] caps entries
/// with LRU eviction.
#[derive(Debug, Default)]
pub struct ProfileCache {
    slots: Mutex<Lru<ProfileKey, Slot>>,
    max_entries: Option<usize>,
    hits: AtomicU64,
    computations: AtomicU64,
    evictions: AtomicU64,
    cancellations: AtomicU64,
    sources: Mutex<Lru<SourceKey, Arc<SourceMeta>>>,
    sources_built: AtomicU64,
    source_memo_hits: AtomicU64,
    sources_live: AtomicU64,
    sources_live_max: AtomicU64,
}

/// Entries stamped with a use clock: the one recency mechanism of the
/// profile slots and the source memo. A lookup restamps its entry in
/// O(1); a bounded insert evicts the entry with the oldest stamp.
#[derive(Debug)]
struct Lru<K, V> {
    map: HashMap<K, (V, u64)>,
    clock: u64,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru {
            map: HashMap::new(),
            clock: 0,
        }
    }
}

impl<K: Clone + Eq + Hash, V> Lru<K, V> {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The value for `key`, marked most recently used.
    fn get(&mut self, key: &K) -> Option<&V> {
        let now = self.tick();
        let (value, used) = self.map.get_mut(key)?;
        *used = now;
        Some(value)
    }

    /// Inserts `key` as the most recently used entry. When that takes the
    /// map beyond `max` entries, evicts and returns the least recently
    /// used key (never `key` itself, whose stamp is the newest).
    fn insert(&mut self, key: K, value: V, max: Option<usize>) -> Option<K> {
        let now = self.tick();
        self.map.insert(key, (value, now));
        if self.map.len() <= max? {
            return None;
        }
        let coldest = self
            .map
            .iter()
            .min_by_key(|(_, (_, used))| *used)
            .map(|(k, _)| k.clone())
            .expect("an over-full map is non-empty");
        self.map.remove(&coldest);
        Some(coldest)
    }

    /// Removes `key` if its value satisfies `pred`.
    fn remove_if(&mut self, key: &K, pred: impl FnOnce(&V) -> bool) {
        if self.map.get(key).is_some_and(|(value, _)| pred(value)) {
            self.map.remove(key);
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// A built matrix's hold on the cache's live-source count, from
/// [`ProfileCache::source_built`]; dropping it releases the hold.
pub(crate) struct LiveSource<'c>(&'c ProfileCache);

impl Drop for LiveSource<'_> {
    fn drop(&mut self) {
        self.0.sources_live.fetch_sub(1, Ordering::Relaxed);
    }
}

type Slot = Arc<OnceLock<Option<Arc<LocalityProfile>>>>;

impl ProfileCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `max_entries` profiles, evicting
    /// the least-recently-used entry beyond that. An evicted key that is
    /// requested again recomputes (and recounts as a computation).
    ///
    /// # Panics
    ///
    /// Panics if `max_entries` is zero.
    pub fn bounded(max_entries: usize) -> Self {
        assert!(max_entries > 0, "cache capacity must be positive");
        ProfileCache {
            max_entries: Some(max_entries),
            ..Self::default()
        }
    }

    /// Returns the profile for `key`, computing it with `compute` exactly
    /// once per key no matter how many threads ask concurrently.
    pub fn get_or_compute(
        &self,
        key: ProfileKey,
        compute: impl FnOnce() -> LocalityProfile,
    ) -> Arc<LocalityProfile> {
        self.get_or_try_compute(key, || Some(compute()))
            .expect("infallible compute cannot be cancelled")
            .profile
    }

    /// Cancellable [`get_or_compute`](Self::get_or_compute): `compute`
    /// may give up (cooperative cancellation) by returning `None`, which
    /// releases the slot so a later request for the same key retries
    /// cleanly. Returns `None` only when *this* call's computation was
    /// the one cancelled; a waiter whose computer was cancelled retries
    /// the lookup (and may become the computer itself).
    pub fn get_or_try_compute(
        &self,
        key: ProfileKey,
        compute: impl FnOnce() -> Option<LocalityProfile>,
    ) -> Option<CacheLookup> {
        let _span = obs::span("cache.lookup");
        let mut compute = Some(compute);
        loop {
            let slot = {
                let mut slots = self.slots.lock().expect("profile cache poisoned");
                match slots.get(&key).map(Arc::clone) {
                    Some(slot) => slot,
                    None => {
                        let slot: Slot = Arc::default();
                        let evicted = slots.insert(key, Arc::clone(&slot), self.max_entries);
                        if let Some(coldest) = evicted {
                            self.evictions.fetch_add(1, Ordering::Relaxed);
                            obs::events::record("cache.evict", || {
                                format!(
                                    "fingerprint={:#018x} method={:?} machine_tag={:#x}",
                                    coldest.fingerprint, coldest.method, coldest.machine_tag
                                )
                            });
                        }
                        slot
                    }
                }
            };
            let mut computed = false;
            let value = slot.get_or_init(|| {
                computed = true;
                let f = compute.take().expect("a thread computes at most once");
                match f() {
                    Some(profile) => {
                        self.computations.fetch_add(1, Ordering::Relaxed);
                        Some(Arc::new(profile))
                    }
                    None => None,
                }
            });
            match (computed, value) {
                (_, Some(profile)) => {
                    if !computed {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                    }
                    return Some(CacheLookup {
                        profile: Arc::clone(profile),
                        hit: !computed,
                    });
                }
                (true, None) => {
                    // Our own computation was cancelled: release the slot
                    // so the key stays computable, and report cancelled.
                    self.release(&key, &slot);
                    self.cancellations.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                (false, None) => {
                    // We waited on a computation that was cancelled. Make
                    // sure the dead slot is gone, then retry — our own
                    // `compute` is still unused.
                    self.release(&key, &slot);
                }
            }
        }
    }

    /// Drops `key`'s slot if the resident slot is still `slot` — a
    /// cancelled computation must not tear out a slot that eviction
    /// already replaced with a newer incarnation.
    fn release(&self, key: &ProfileKey, slot: &Slot) {
        self.slots
            .lock()
            .expect("profile cache poisoned")
            .remove_if(key, |resident| Arc::ptr_eq(resident, slot));
    }

    /// The memoized meta of a generated matrix, if an earlier build
    /// recorded it (a memo hit touches the entry).
    pub(crate) fn source_meta(&self, key: &SourceKey) -> Option<Arc<SourceMeta>> {
        let mut memo = self.sources.lock().expect("source memo poisoned");
        let meta = Arc::clone(memo.get(key)?);
        self.source_memo_hits.fetch_add(1, Ordering::Relaxed);
        Some(meta)
    }

    /// Records a successfully built matrix's meta, evicting the
    /// least-recently-used entry beyond `max_entries`.
    pub(crate) fn remember_source(&self, key: SourceKey, meta: Arc<SourceMeta>) {
        let mut memo = self.sources.lock().expect("source memo poisoned");
        memo.insert(key, meta, self.max_entries);
    }

    /// Counts one matrix build; the returned hold keeps it in the live
    /// count until dropped.
    pub(crate) fn source_built(&self) -> LiveSource<'_> {
        self.sources_built.fetch_add(1, Ordering::Relaxed);
        let live = self.sources_live.fetch_add(1, Ordering::Relaxed) + 1;
        self.sources_live_max.fetch_max(live, Ordering::Relaxed);
        LiveSource(self)
    }

    /// Matrices built (or read from `mtx` files) for jobs on this cache.
    pub fn sources_built(&self) -> u64 {
        self.sources_built.load(Ordering::Relaxed)
    }

    /// Generated matrices whose name, fingerprint and shape came from the
    /// source memo instead of a build.
    pub fn source_memo_hits(&self) -> u64 {
        self.source_memo_hits.load(Ordering::Relaxed)
    }

    /// The most built matrices held at once.
    pub fn sources_live_max(&self) -> u64 {
        self.sources_live_max.load(Ordering::Relaxed)
    }

    /// Requests served from an already-(being-)computed slot.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Profiles actually computed (= distinct keys requested, for an
    /// unbounded cache).
    pub fn computations(&self) -> u64 {
        self.computations.load(Ordering::Relaxed)
    }

    /// Entries evicted by a [`bounded`](Self::bounded) cache (always 0
    /// for the default unbounded cache).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Lookups abandoned by cooperative cancellation
    /// ([`get_or_try_compute`](Self::get_or_try_compute) returning `None`).
    pub fn cancellations(&self) -> u64 {
        self.cancellations.load(Ordering::Relaxed)
    }

    /// Completed lookups (hits + computations; cancellations excluded).
    pub fn lookups(&self) -> u64 {
        self.hits() + self.computations()
    }

    /// Hit rate over completed lookups, in percent (0 when idle). This is
    /// the serve-path SLO number: a shared cross-request cache earns its
    /// memory by keeping this high.
    pub fn hit_rate_pct(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            return 0.0;
        }
        100.0 * self.hits() as f64 / lookups as f64
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("profile cache poisoned").len()
    }

    /// Returns `true` if no profiles are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reports the cache's counters and size through the telemetry
    /// counters/gauges (`engine.cache.*`). The cache is the single source
    /// of truth — callers don't keep a parallel tally. Call once per
    /// cache lifetime (the counters are totals, so repeated flushes of a
    /// long-lived cache would double-count; the serve daemon reports its
    /// shared cache through the `STATUS` document instead and flushes
    /// once at shutdown).
    pub fn flush_obs(&self) {
        if !obs::enabled() {
            return;
        }
        obs::add("engine.cache.hits", self.hits());
        obs::add("engine.cache.computations", self.computations());
        obs::add("engine.cache.evictions", self.evictions());
        obs::add("engine.cache.cancellations", self.cancellations());
        obs::add("engine.sources.built", self.sources_built());
        obs::add("engine.sources.memo_hits", self.source_memo_hits());
        obs::gauge_max("engine.cache.size", self.len() as u64);
        obs::gauge_max("engine.cache.hit_rate_pct", self.hit_rate_pct() as u64);
        obs::gauge_max("engine.sources.live_max", self.sources_live_max());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a64fx::MachineConfig;
    use sparsemat::CsrMatrix;

    fn key(fp: u64, method: Method) -> ProfileKey {
        ProfileKey {
            fingerprint: fp,
            method,
            threads: 1,
            line_bytes: a64fx::A64FX_LINE_BYTES,
            cores_per_domain: 12,
            caps_fingerprint: 0,
            machine_tag: 0,
        }
    }

    fn profile() -> LocalityProfile {
        LocalityProfile::compute(
            &CsrMatrix::identity(64),
            &MachineConfig::a64fx_scaled(64),
            Method::B,
            1,
            &[],
        )
    }

    #[test]
    fn computes_once_per_key() {
        let cache = ProfileCache::new();
        for _ in 0..5 {
            cache.get_or_compute(key(1, Method::A), profile);
        }
        cache.get_or_compute(key(1, Method::B), profile);
        cache.get_or_compute(key(2, Method::A), profile);
        assert_eq!(cache.computations(), 3);
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.lookups(), 7);
        assert!((cache.hit_rate_pct() - 400.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_caps_fingerprints_get_distinct_slots() {
        // A sweep-restricted profile only answers at its own capacity
        // grid, so another grid must trigger a fresh computation.
        let cache = ProfileCache::new();
        let mut sweep_key = key(1, Method::A);
        sweep_key.caps_fingerprint = 0xfeed;
        cache.get_or_compute(key(1, Method::A), profile);
        cache.get_or_compute(sweep_key, profile);
        cache.get_or_compute(sweep_key, profile);
        assert_eq!(cache.computations(), 2);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn bounded_lru_eviction_spares_touched_keys() {
        // Insertion order would evict key 1 here; LRU must evict key 2,
        // because key 1 was touched after key 2's insertion.
        let cache = ProfileCache::bounded(2);
        cache.get_or_compute(key(1, Method::A), profile);
        cache.get_or_compute(key(2, Method::A), profile);
        cache.get_or_compute(key(1, Method::A), profile); // touch 1
        cache.get_or_compute(key(3, Method::A), profile); // evicts 2
        assert_eq!(cache.evictions(), 1);
        // 1 and 3 are resident: both hit without recomputation.
        cache.get_or_compute(key(1, Method::A), profile);
        cache.get_or_compute(key(3, Method::A), profile);
        assert_eq!(cache.computations(), 3, "keys 1/2/3 computed once each");
        // 2 was the victim: asking again recomputes.
        cache.get_or_compute(key(2, Method::A), profile);
        assert_eq!(cache.computations(), 4);
    }

    #[test]
    fn source_memo_is_bounded_by_capacity_and_evicts_lru() {
        let spec = crate::BatchSpec::parse("corpus count=3 scale=64 seed=1\n").unwrap();
        let keys: Vec<SourceKey> = crate::source::entries(&spec)
            .map(|entry| match entry {
                crate::source::Entry::Key(key) => key,
                crate::source::Entry::Mtx(_) => unreachable!("corpus entries are keyed"),
            })
            .collect();
        let meta = |fingerprint| {
            Arc::new(SourceMeta {
                name: String::new(),
                fingerprint,
                shape: (1, 1, 1),
            })
        };
        let cache = ProfileCache::bounded(2);
        cache.remember_source(keys[0].clone(), meta(0));
        cache.remember_source(keys[1].clone(), meta(1));
        assert!(cache.source_meta(&keys[0]).is_some()); // touch 0
        cache.remember_source(keys[2].clone(), meta(2)); // evicts 1
        assert!(cache.source_meta(&keys[1]).is_none());
        assert_eq!(cache.source_meta(&keys[0]).unwrap().fingerprint, 0);
        assert_eq!(cache.source_meta(&keys[2]).unwrap().fingerprint, 2);
        assert_eq!(cache.source_memo_hits(), 3);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = ProfileCache::new();
        for fp in 0..50 {
            cache.get_or_compute(key(fp, Method::B), profile);
        }
        assert_eq!(cache.len(), 50);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn cancelled_computation_releases_the_slot() {
        let cache = ProfileCache::new();
        // A compute that gives up must not poison the key...
        assert!(cache
            .get_or_try_compute(key(9, Method::A), || None)
            .is_none());
        assert_eq!(cache.cancellations(), 1);
        assert_eq!(cache.len(), 0);
        // ...a later request computes normally.
        let lookup = cache
            .get_or_try_compute(key(9, Method::A), || Some(profile()))
            .expect("second attempt succeeds");
        assert!(!lookup.hit);
        assert_eq!(cache.computations(), 1);
        // And now it hits.
        let lookup = cache
            .get_or_try_compute(key(9, Method::A), || Some(profile()))
            .expect("hit");
        assert!(lookup.hit);
    }

    #[test]
    fn concurrent_requests_share_one_computation() {
        let cache = ProfileCache::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for fp in 0..4 {
                        cache.get_or_compute(key(fp, Method::A), profile);
                    }
                });
            }
        });
        assert_eq!(cache.computations(), 4);
        assert_eq!(cache.hits(), 8 * 4 - 4);
    }

    #[test]
    fn waiters_on_a_cancelled_computer_retry_and_succeed() {
        use std::sync::atomic::{AtomicBool, AtomicU64};
        let cache = ProfileCache::new();
        let successes = AtomicU64::new(0);
        // Thread 0 is guaranteed to be the computer: the other threads
        // only start their lookup once thread 0 is inside its compute
        // closure (which then gives up), so they block as waiters, see
        // the cancelled slot, and retry.
        let computing = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let cancelled = scope.spawn(|| {
                cache
                    .get_or_try_compute(key(5, Method::B), || {
                        computing.store(true, Ordering::Release);
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        None
                    })
                    .is_none()
            });
            for _ in 0..5 {
                scope.spawn(|| {
                    while !computing.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    if cache
                        .get_or_try_compute(key(5, Method::B), || Some(profile()))
                        .is_some()
                    {
                        successes.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            assert!(cancelled.join().expect("no panic"), "computer reports None");
        });
        // Exactly the cancelled thread fails; everyone else gets a profile.
        assert_eq!(successes.load(Ordering::Relaxed), 5);
        assert_eq!(cache.cancellations(), 1);
        let lookup = cache
            .get_or_try_compute(key(5, Method::B), || Some(profile()))
            .expect("key remains computable");
        assert!(lookup.hit, "profile is resident after the retries");
    }
}
