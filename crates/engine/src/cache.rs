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
//! # Bounded modes
//!
//! The default cache is unbounded — the engine relies on that for its
//! deterministic hit/computation summary. Long-lived holders (the
//! `spmv-locality serve` daemon, whose cache is shared across every
//! client request) cap it with [`ProfileCache::bounded`], which evicts by
//! **LRU**: a key is touched on every lookup, and the coldest key goes
//! first. The pre-service **FIFO** behavior (evict oldest-inserted, never
//! touch) remains available through [`EvictionPolicy::Fifo`] and
//! [`ProfileCache::bounded_with`]. An optional [`Admission`] policy filters what
//! a bounded cache retains: [`Admission::SecondTouch`] computes but does
//! not cache a key on first sight, so one-off matrices cannot evict the
//! repeat customers that make a shared cache worthwhile.
//!
//! # Source memo
//!
//! Next to the profiles the cache keeps a small memo from each generated
//! matrix's source key to what a job needs before its lookup — report
//! name, reorder-tagged fingerprint, shape — so a warm request builds no
//! matrix at all. The memo is bounded by the same `max_entries` (LRU) and
//! gains an entry only after a build succeeds. The cache also owns the
//! source counters (`engine.sources.*`): matrices built, memo hits, and
//! the most matrices alive at once.

use crate::source::{SourceKey, SourceMeta};
use locality_core::{LocalityProfile, Method};
use std::collections::{HashMap, HashSet, VecDeque};
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
    /// [`machine::CacheHierarchy::fingerprint`] of the machine the
    /// profile was computed for. Distinct hierarchies must never share a
    /// cache slot even when their projections agree on `line_bytes` and
    /// `cores_per_domain` (they can still differ in L1 capacity, sector
    /// policy, ...). 0 for machine-agnostic callers that key their cache
    /// some other way.
    pub machine_tag: u64,
}

/// How a bounded cache picks its victim once full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the least-recently *used* key (every lookup is a touch).
    /// The right policy for a cross-request cache with repeat customers.
    #[default]
    Lru,
    /// Evict the oldest-*inserted* key regardless of use — the original
    /// bounded-cache behavior, kept for batch runs that want a strict
    /// working-set cap with insertion-order accounting.
    Fifo,
}

/// Whether a bounded cache retains a key it has never seen before.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Admission {
    /// Every computed profile is cached.
    #[default]
    Always,
    /// A first-seen key is computed and returned but *not* cached; the
    /// key is remembered in a doorkeeper set and admitted on its second
    /// request. Scan-resistant: a stream of one-off matrices cannot
    /// flush the repeatedly-requested profiles a shared cache exists for.
    SecondTouch,
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
/// with LRU eviction; [`Self::bounded_with`] selects the policy.
#[derive(Debug, Default)]
pub struct ProfileCache {
    slots: Mutex<CacheMap>,
    max_entries: Option<usize>,
    policy: EvictionPolicy,
    admission: Admission,
    hits: AtomicU64,
    computations: AtomicU64,
    evictions: AtomicU64,
    admission_skips: AtomicU64,
    cancellations: AtomicU64,
    sources: Mutex<SourceMemo>,
    sources_built: AtomicU64,
    source_memo_hits: AtomicU64,
    sources_live: AtomicU64,
    sources_live_max: AtomicU64,
}

/// Source key → matrix meta, with a use stamp per entry for LRU eviction.
#[derive(Debug, Default)]
struct SourceMemo {
    map: HashMap<SourceKey, (Arc<SourceMeta>, u64)>,
    clock: u64,
}

impl SourceMemo {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
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

/// Slot map plus the eviction order (only maintained for bounded caches;
/// `order` stays empty otherwise). Under FIFO `order` is insertion order;
/// under LRU it is recency order (front = coldest). `doorkeeper` is the
/// [`Admission::SecondTouch`] memory of first-seen keys.
#[derive(Debug, Default)]
struct CacheMap {
    map: HashMap<ProfileKey, Slot>,
    order: VecDeque<ProfileKey>,
    doorkeeper: HashSet<ProfileKey>,
}

impl CacheMap {
    /// Moves `key` to the warm end of the recency order (LRU only; the
    /// order deque is at most `max_entries` long, so the linear scan is
    /// bounded and trivial next to a profile computation).
    fn touch(&mut self, key: &ProfileKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            self.order.remove(pos);
            self.order.push_back(*key);
        }
    }

    /// Drops `key`'s slot (and order entry) if the resident slot is still
    /// `slot` — a cancelled computation must not tear out a slot that
    /// eviction already replaced with a newer incarnation.
    fn remove_if_same(&mut self, key: &ProfileKey, slot: &Slot) {
        if let Some(resident) = self.map.get(key) {
            if Arc::ptr_eq(resident, slot) {
                self.map.remove(key);
                if let Some(pos) = self.order.iter().position(|k| k == key) {
                    self.order.remove(pos);
                }
            }
        }
    }
}

/// What the locked lookup phase decided to do with a key.
enum Placement {
    /// Wait on (or compute into) this shared slot.
    Slot(Slot),
    /// Admission declined to cache: compute privately, return uncached.
    Bypass,
}

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
        Self::bounded_with(max_entries, EvictionPolicy::Lru)
    }

    /// An empty bounded cache with an explicit eviction policy
    /// ([`EvictionPolicy::Fifo`] recovers the pre-LRU behavior).
    ///
    /// # Panics
    ///
    /// Panics if `max_entries` is zero.
    pub fn bounded_with(max_entries: usize, policy: EvictionPolicy) -> Self {
        assert!(max_entries > 0, "cache capacity must be positive");
        ProfileCache {
            max_entries: Some(max_entries),
            policy,
            ..Self::default()
        }
    }

    /// Sets the admission policy (builder-style; meaningful only for
    /// bounded caches — an unbounded cache always admits).
    pub fn with_admission(mut self, admission: Admission) -> Self {
        self.admission = admission;
        self
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
            let placement = {
                let mut slots = self.slots.lock().expect("profile cache poisoned");
                match slots.map.get(&key).map(Arc::clone) {
                    Some(slot) => {
                        if self.max_entries.is_some() && self.policy == EvictionPolicy::Lru {
                            slots.touch(&key);
                        }
                        Placement::Slot(slot)
                    }
                    None if !self.admits(&mut slots, &key) => {
                        self.admission_skips.fetch_add(1, Ordering::Relaxed);
                        Placement::Bypass
                    }
                    None => {
                        let slot: Slot = Arc::default();
                        slots.map.insert(key, Arc::clone(&slot));
                        if let Some(max) = self.max_entries {
                            slots.order.push_back(key);
                            while slots.map.len() > max {
                                let coldest = slots.order.pop_front().expect("order tracks map");
                                slots.map.remove(&coldest);
                                self.evictions.fetch_add(1, Ordering::Relaxed);
                                obs::events::record("cache.evict", || {
                                    format!(
                                        "fingerprint={:#018x} method={:?} machine_tag={:#x}",
                                        coldest.fingerprint, coldest.method, coldest.machine_tag
                                    )
                                });
                            }
                        }
                        Placement::Slot(slot)
                    }
                }
            };
            let slot = match placement {
                Placement::Slot(slot) => slot,
                Placement::Bypass => {
                    let f = compute.take().expect("bypass precedes any computation");
                    return match f() {
                        Some(profile) => {
                            self.computations.fetch_add(1, Ordering::Relaxed);
                            Some(CacheLookup {
                                profile: Arc::new(profile),
                                hit: false,
                            })
                        }
                        None => {
                            self.cancellations.fetch_add(1, Ordering::Relaxed);
                            None
                        }
                    };
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
                    let mut slots = self.slots.lock().expect("profile cache poisoned");
                    slots.remove_if_same(&key, &slot);
                    self.cancellations.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                (false, None) => {
                    // We waited on a computation that was cancelled. Make
                    // sure the dead slot is gone, then retry — our own
                    // `compute` is still unused.
                    let mut slots = self.slots.lock().expect("profile cache poisoned");
                    slots.remove_if_same(&key, &slot);
                }
            }
        }
    }

    /// Whether a new `key` may occupy a slot. Called with the map locked
    /// and `key` absent from it.
    fn admits(&self, slots: &mut CacheMap, key: &ProfileKey) -> bool {
        if self.max_entries.is_none() || self.admission == Admission::Always {
            return true;
        }
        if slots.doorkeeper.remove(key) {
            return true;
        }
        // Remember the first touch; cap the doorkeeper so a one-off-only
        // workload cannot grow it without bound.
        let cap = self.max_entries.unwrap_or(usize::MAX).saturating_mul(8);
        if slots.doorkeeper.len() >= cap {
            slots.doorkeeper.clear();
        }
        slots.doorkeeper.insert(*key);
        false
    }

    /// The memoized meta of a generated matrix, if an earlier build
    /// recorded it (a memo hit touches the entry).
    pub(crate) fn source_meta(&self, key: &SourceKey) -> Option<Arc<SourceMeta>> {
        let mut memo = self.sources.lock().expect("source memo poisoned");
        let now = memo.tick();
        let (meta, used) = memo.map.get_mut(key)?;
        *used = now;
        self.source_memo_hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(meta))
    }

    /// Records a successfully built matrix's meta, evicting the
    /// least-recently-used entry beyond `max_entries`.
    pub(crate) fn remember_source(&self, key: SourceKey, meta: Arc<SourceMeta>) {
        let mut memo = self.sources.lock().expect("source memo poisoned");
        let now = memo.tick();
        memo.map.insert(key, (meta, now));
        if let Some(max) = self.max_entries {
            while memo.map.len() > max {
                let coldest = memo
                    .map
                    .iter()
                    .min_by_key(|(_, (_, used))| *used)
                    .map(|(k, _)| k.clone())
                    .expect("an over-full memo is non-empty");
                memo.map.remove(&coldest);
            }
        }
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

    /// Computations that ran uncached because [`Admission::SecondTouch`]
    /// declined a first-seen key.
    pub fn admission_skips(&self) -> u64 {
        self.admission_skips.load(Ordering::Relaxed)
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
        self.slots.lock().expect("profile cache poisoned").map.len()
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
        obs::add("engine.cache.admission_skips", self.admission_skips());
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
    fn bounded_fifo_cache_evicts_oldest_and_counts() {
        let cache = ProfileCache::bounded_with(2, EvictionPolicy::Fifo);
        cache.get_or_compute(key(1, Method::A), profile);
        cache.get_or_compute(key(2, Method::A), profile);
        cache.get_or_compute(key(3, Method::A), profile); // evicts key 1
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // Key 1 is gone: asking again recomputes; keys 2 and 3 remain
        // until the reinsertion pushes key 2 out.
        cache.get_or_compute(key(1, Method::A), profile);
        assert_eq!(cache.computations(), 4);
        assert_eq!(cache.evictions(), 2);
        cache.get_or_compute(key(3, Method::A), profile);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn bounded_lru_eviction_spares_touched_keys() {
        // FIFO would evict key 1 here; LRU must evict key 2, because
        // key 1 was touched after key 2's insertion.
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
    fn second_touch_admission_filters_one_off_keys() {
        let cache = ProfileCache::bounded_with(4, EvictionPolicy::Lru)
            .with_admission(Admission::SecondTouch);
        // First sight: computed but not cached.
        cache.get_or_compute(key(1, Method::A), profile);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.admission_skips(), 1);
        assert_eq!(cache.computations(), 1);
        // Second sight: admitted (recomputes once, then hits).
        cache.get_or_compute(key(1, Method::A), profile);
        assert_eq!(cache.len(), 1);
        cache.get_or_compute(key(1, Method::A), profile);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.computations(), 2);
        // A stream of one-offs leaves the resident set untouched.
        for fp in 100..120 {
            cache.get_or_compute(key(fp, Method::B), profile);
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
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
