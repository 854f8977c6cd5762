//! Set-associative cache with way-based sector partitioning.
//!
//! Models one cache level of the A64FX:
//!
//! * lookups search **all** ways of the set — a line is found regardless of
//!   which sector's ways it resides in (the sector only governs placement);
//! * on a miss, the victim is chosen among the ways belonging to the
//!   incoming line's sector (way-based partitioning, as the A64FX sector
//!   cache does);
//! * within a sector's ways, replacement is true LRU or bit-PLRU
//!   ([`Replacement`]); invalid ways are filled first;
//! * lines carry a `prefetched` flag so the premature-eviction effect of
//!   §4.3 (prefetched lines evicted before first use) can be observed.

use crate::config::{CacheGeometry, Replacement, SectorPolicy};

/// What kind of request is touching the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Demand load from the core.
    Load,
    /// Demand store from the core (write-allocate, marks the line dirty).
    Store,
    /// Hardware-prefetch fill request.
    Prefetch,
    /// Writeback arriving from an upper cache level (updates the line if
    /// present, does **not** allocate on miss).
    Writeback,
}

impl Request {
    /// Is this a demand (core-issued) request?
    pub fn is_demand(self) -> bool {
        matches!(self, Request::Load | Request::Store)
    }
}

/// Outcome of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The line was present.
    Hit {
        /// The hit consumed a line that a prefetch brought in and no demand
        /// access had touched yet (a "useful prefetch" on first touch).
        first_use_of_prefetch: bool,
    },
    /// The line was absent and has been filled (except for writebacks).
    Miss {
        /// A dirty line that had to be evicted to make room, if any.
        writeback: Option<u64>,
        /// The evicted line was prefetched and never demanded — the
        /// premature-eviction signature of §4.3.
        evicted_unused_prefetch: bool,
    },
    /// A writeback to a line not present: forwarded to the next level.
    WritebackMiss,
}

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Brought in by prefetch and not yet touched by a demand access.
    prefetched_unused: bool,
    /// LRU timestamp (for `Replacement::Lru`).
    stamp: u64,
    /// MRU bit (for `Replacement::BitPlru`).
    mru: bool,
}

/// Per-cache event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (loads + stores).
    pub demand_accesses: u64,
    /// Demand hits.
    pub demand_hits: u64,
    /// Demand misses (fills triggered by demand requests).
    pub demand_misses: u64,
    /// Fills triggered by prefetch requests.
    pub prefetch_fills: u64,
    /// Prefetch requests that hit (already present — no fill).
    pub prefetch_hits: u64,
    /// Dirty evictions (writebacks issued to the next level).
    pub writebacks: u64,
    /// Evictions of prefetched lines that were never demanded (§4.3).
    pub evicted_unused_prefetches: u64,
    /// Demand hits that were the first touch of a prefetched line.
    pub prefetch_first_uses: u64,
}

impl CacheStats {
    /// Total fills (demand + prefetch) — lines brought in from below.
    pub fn fills(&self) -> u64 {
        self.demand_misses + self.prefetch_fills
    }
}

/// A set-associative, write-back, write-allocate cache with sector
/// partitioning.
#[derive(Clone, Debug)]
pub struct Cache {
    geometry: CacheGeometry,
    policy: SectorPolicy,
    replacement: Replacement,
    num_sets: usize,
    /// `num_sets - 1` when the set count is a power of two.
    set_mask: Option<u64>,
    ways: usize,
    /// `sets[set * ways + way]`.
    slots: Vec<Way>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(geometry: CacheGeometry, policy: SectorPolicy, replacement: Replacement) -> Self {
        let num_sets = geometry.num_sets();
        assert!(
            policy.sector1_ways < geometry.ways,
            "sector 1 must leave at least one way for sector 0"
        );
        Cache {
            geometry,
            policy,
            replacement,
            num_sets,
            set_mask: num_sets.is_power_of_two().then(|| num_sets as u64 - 1),
            ways: geometry.ways,
            slots: vec![Way::default(); num_sets * geometry.ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Event counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zeroes the event counters, keeping cache contents (for discarding
    /// warm-up iterations).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Set index of `line`: a mask when the set count is a power of two
    /// (every preset's), the remainder otherwise.
    #[inline]
    fn set_of(&self, line: u64) -> usize {
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.num_sets as u64) as usize,
        }
    }

    /// The way-index range victims for `sector` are chosen from.
    fn sector_way_range(&self, sector: u8) -> std::ops::Range<usize> {
        if !self.policy.enabled() {
            return 0..self.ways;
        }
        match sector {
            // Sector 1 occupies the low way indices, sector 0 the rest.
            1 => 0..self.policy.sector1_ways,
            0 => self.policy.sector1_ways..self.ways,
            _ => panic!("only sectors 0 and 1 are modelled"),
        }
    }

    /// Accesses `line` on behalf of `sector`. See [`Outcome`].
    pub fn access(&mut self, line: u64, sector: u8, request: Request) -> Outcome {
        self.clock += 1;
        let set = self.set_of(line);
        let base = set * self.ways;
        if request.is_demand() {
            self.stats.demand_accesses += 1;
        }

        // Lookup across ALL ways: sector assignment never hides data.
        let found = (0..self.ways).find(|&w| {
            let slot = &self.slots[base + w];
            slot.valid && slot.tag == line
        });

        if let Some(w) = found {
            let first_use = {
                let slot = &mut self.slots[base + w];
                let first_use = slot.prefetched_unused && request.is_demand();
                if request.is_demand() {
                    slot.prefetched_unused = false;
                }
                if matches!(request, Request::Store | Request::Writeback) {
                    slot.dirty = true;
                }
                first_use
            };
            self.touch(base, w);
            match request {
                Request::Load | Request::Store => {
                    self.stats.demand_hits += 1;
                    if first_use {
                        self.stats.prefetch_first_uses += 1;
                    }
                }
                Request::Prefetch => self.stats.prefetch_hits += 1,
                Request::Writeback => {}
            }
            return Outcome::Hit {
                first_use_of_prefetch: first_use,
            };
        }

        // Miss.
        if request == Request::Writeback {
            return Outcome::WritebackMiss;
        }
        match request {
            Request::Load | Request::Store => self.stats.demand_misses += 1,
            Request::Prefetch => self.stats.prefetch_fills += 1,
            Request::Writeback => unreachable!(),
        }

        let victim = self.choose_victim(base, sector);
        let (writeback, evicted_unused) = {
            let slot = &self.slots[base + victim];
            if slot.valid {
                (slot.dirty.then_some(slot.tag), slot.prefetched_unused)
            } else {
                (None, false)
            }
        };
        if writeback.is_some() {
            self.stats.writebacks += 1;
        }
        if evicted_unused {
            self.stats.evicted_unused_prefetches += 1;
        }
        {
            let slot = &mut self.slots[base + victim];
            slot.tag = line;
            slot.valid = true;
            slot.dirty = request == Request::Store;
            slot.prefetched_unused = request == Request::Prefetch;
        }
        self.touch(base, victim);
        Outcome::Miss {
            writeback,
            evicted_unused_prefetch: evicted_unused,
        }
    }

    /// Marks way `w` of the set at `base` most-recently used.
    ///
    /// Bit-PLRU state is kept per sector region: each region's MRU bits
    /// reset independently when they saturate, mirroring the independent
    /// replacement the way partitioning creates.
    fn touch(&mut self, base: usize, w: usize) {
        match self.replacement {
            Replacement::Lru => self.slots[base + w].stamp = self.clock,
            Replacement::BitPlru => {
                self.slots[base + w].mru = true;
                let region = self.region_of_way(w);
                let all_set = region
                    .clone()
                    .all(|i| !self.slots[base + i].valid || self.slots[base + i].mru);
                if all_set {
                    for i in region {
                        if i != w {
                            self.slots[base + i].mru = false;
                        }
                    }
                }
            }
        }
    }

    /// The sector way region containing way `w`.
    fn region_of_way(&self, w: usize) -> std::ops::Range<usize> {
        if !self.policy.enabled() {
            0..self.ways
        } else if w < self.policy.sector1_ways {
            0..self.policy.sector1_ways
        } else {
            self.policy.sector1_ways..self.ways
        }
    }

    /// Chooses the victim way within the sector's way range.
    fn choose_victim(&self, base: usize, sector: u8) -> usize {
        let range = self.sector_way_range(sector);
        // Invalid ways first.
        if let Some(w) = range.clone().find(|&w| !self.slots[base + w].valid) {
            return w;
        }
        match self.replacement {
            Replacement::Lru => range
                .min_by_key(|&w| self.slots[base + w].stamp)
                .expect("sector way range is never empty"),
            Replacement::BitPlru => {
                // First way in the region without its MRU bit; if all are
                // set (possible because the reset is set-global while the
                // region is a subset), fall back to the first way.
                range
                    .clone()
                    .find(|&w| !self.slots[base + w].mru)
                    .unwrap_or(range.start)
            }
        }
    }

    /// Returns `true` if `line` is currently resident (test helper).
    pub fn contains(&self, line: u64) -> bool {
        let set = self.set_of(line);
        let base = set * self.ways;
        (0..self.ways).any(|w| {
            let s = &self.slots[base + w];
            s.valid && s.tag == line
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(ways: usize, sets: usize, sector1: usize, repl: Replacement) -> Cache {
        let line = 64;
        let geom = CacheGeometry::new(ways * sets * line, ways, line);
        Cache::new(
            geom,
            SectorPolicy {
                sector1_ways: sector1,
            },
            repl,
        )
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small_cache(4, 2, 0, Replacement::Lru);
        assert!(matches!(
            c.access(10, 0, Request::Load),
            Outcome::Miss { .. }
        ));
        assert!(matches!(
            c.access(10, 0, Request::Load),
            Outcome::Hit { .. }
        ));
        assert_eq!(c.stats().demand_hits, 1);
        assert_eq!(c.stats().demand_misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        // 1 set, 2 ways: lines 0, 2, 4 map to set 0 (even lines).
        let mut c = small_cache(2, 2, 0, Replacement::Lru);
        c.access(0, 0, Request::Load);
        c.access(2, 0, Request::Load);
        c.access(0, 0, Request::Load); // 0 is now MRU
        c.access(4, 0, Request::Load); // evicts 2
        assert!(c.contains(0));
        assert!(!c.contains(2));
        assert!(c.contains(4));
    }

    #[test]
    fn store_marks_dirty_and_eviction_writes_back() {
        let mut c = small_cache(1, 1, 0, Replacement::Lru);
        c.access(5, 0, Request::Store);
        let out = c.access(6, 0, Request::Load);
        assert_eq!(
            out,
            Outcome::Miss {
                writeback: Some(5),
                evicted_unused_prefetch: false
            }
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small_cache(1, 1, 0, Replacement::Lru);
        c.access(5, 0, Request::Load);
        let out = c.access(6, 0, Request::Load);
        assert_eq!(
            out,
            Outcome::Miss {
                writeback: None,
                evicted_unused_prefetch: false
            }
        );
    }

    #[test]
    fn sector_partitioning_restricts_victims() {
        // 4 ways, 1 set; sector 1 gets 1 way (way 0), sector 0 gets 3.
        let mut c = small_cache(4, 1, 1, Replacement::Lru);
        // Fill sector 0 with 3 lines.
        for l in [1, 2, 3] {
            c.access(l, 0, Request::Load);
        }
        // Stream 10 lines through sector 1: they may only use way 0,
        // so sector-0 residents survive.
        for l in 10..20 {
            c.access(l, 1, Request::Load);
        }
        assert!(c.contains(1) && c.contains(2) && c.contains(3));
        assert!(c.contains(19)); // last streamed line sits in way 0
        assert!(!c.contains(18));
    }

    #[test]
    fn hit_allowed_across_sectors() {
        let mut c = small_cache(4, 1, 1, Replacement::Lru);
        // Line placed via sector 1's way.
        c.access(7, 1, Request::Load);
        // Demand access tagged sector 0 still hits it.
        assert!(matches!(c.access(7, 0, Request::Load), Outcome::Hit { .. }));
    }

    #[test]
    fn prefetch_flags_and_first_use() {
        let mut c = small_cache(2, 1, 0, Replacement::Lru);
        c.access(4, 0, Request::Prefetch);
        assert_eq!(c.stats().prefetch_fills, 1);
        let out = c.access(4, 0, Request::Load);
        assert_eq!(
            out,
            Outcome::Hit {
                first_use_of_prefetch: true
            }
        );
        assert_eq!(c.stats().prefetch_first_uses, 1);
        // Second demand touch is an ordinary hit.
        assert_eq!(
            c.access(4, 0, Request::Load),
            Outcome::Hit {
                first_use_of_prefetch: false
            }
        );
    }

    #[test]
    fn premature_prefetch_eviction_detected() {
        // 1 way: a prefetch immediately displaced before use.
        let mut c = small_cache(1, 1, 0, Replacement::Lru);
        c.access(4, 0, Request::Prefetch);
        let out = c.access(5, 0, Request::Load);
        assert!(matches!(
            out,
            Outcome::Miss {
                evicted_unused_prefetch: true,
                ..
            }
        ));
        assert_eq!(c.stats().evicted_unused_prefetches, 1);
    }

    #[test]
    fn writeback_request_updates_present_line_only() {
        let mut c = small_cache(2, 1, 0, Replacement::Lru);
        c.access(8, 0, Request::Load);
        assert!(matches!(
            c.access(8, 0, Request::Writeback),
            Outcome::Hit { .. }
        ));
        // Dirty now: evicting it produces a writeback.
        c.access(10, 0, Request::Load);
        let out = c.access(12, 0, Request::Load);
        assert!(matches!(
            out,
            Outcome::Miss {
                writeback: Some(8),
                ..
            }
        ));
        // Writeback to an absent line does not allocate.
        assert_eq!(c.access(100, 0, Request::Writeback), Outcome::WritebackMiss);
        assert!(!c.contains(100));
    }

    #[test]
    fn bit_plru_behaves_as_stack_like_policy() {
        // Sanity: with repeated round-robin over ways+1 lines, bit-PLRU
        // still misses every time (like LRU), and hits on immediate reuse.
        let mut c = small_cache(2, 1, 0, Replacement::BitPlru);
        c.access(0, 0, Request::Load);
        assert!(matches!(c.access(0, 0, Request::Load), Outcome::Hit { .. }));
        c.access(2, 0, Request::Load);
        c.access(4, 0, Request::Load); // evicts one of {0, 2}
        let resident = [0u64, 2, 4].iter().filter(|&&l| c.contains(l)).count();
        assert_eq!(resident, 2);
        assert!(c.contains(4));
    }

    #[test]
    fn prefetch_hit_does_not_refill() {
        let mut c = small_cache(2, 1, 0, Replacement::Lru);
        c.access(6, 0, Request::Load);
        c.access(6, 0, Request::Prefetch);
        assert_eq!(c.stats().prefetch_fills, 0);
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn sector_taking_all_ways_rejected() {
        small_cache(4, 1, 4, Replacement::Lru);
    }
}
