//! Property-based tests of the cache simulator against the reuse-distance
//! theory it must embody: a fully associative LRU cache's hits and misses
//! are *exactly* predicted by Eq. (1).

mod common;

use a64fx::{Cache, CacheGeometry, Outcome, Replacement, Request, SectorPolicy};
use common::NaiveStack;
use proptest::prelude::*;

const LINE: usize = 64;

fn fully_associative(lines: usize, repl: Replacement) -> Cache {
    let geom = CacheGeometry::new(lines * LINE, lines, LINE);
    Cache::new(geom, SectorPolicy::OFF, repl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A fully associative LRU cache misses exactly when the reuse
    /// distance reaches its capacity (Eq. 1 of the paper).
    #[test]
    fn fully_associative_lru_obeys_eq1(
        trace in prop::collection::vec(0u64..40, 1..300),
        capacity in 1usize..24,
    ) {
        let mut cache = fully_associative(capacity, Replacement::Lru);
        let mut stack = NaiveStack::new();
        for (i, &line) in trace.iter().enumerate() {
            let outcome = cache.access(line, 0, Request::Load);
            let rd = stack.access(line);
            let expect_miss = match rd {
                None => true,
                Some(d) => d >= capacity as u64,
            };
            match outcome {
                Outcome::Hit { .. } => prop_assert!(!expect_miss, "access {i} should miss"),
                Outcome::Miss { .. } => prop_assert!(expect_miss, "access {i} should hit"),
                Outcome::WritebackMiss => unreachable!(),
            }
        }
    }

    /// Every accessed line is resident immediately afterwards, whatever the
    /// replacement policy or sector assignment.
    #[test]
    fn accessed_line_is_resident(
        trace in prop::collection::vec((0u64..100, 0u8..2), 1..200),
        repl in prop::sample::select(vec![Replacement::Lru, Replacement::BitPlru]),
    ) {
        let geom = CacheGeometry::new(4 * 4 * LINE, 4, LINE);
        let mut cache = Cache::new(geom, SectorPolicy { sector1_ways: 2 }, repl);
        for &(line, sector) in &trace {
            cache.access(line, sector, Request::Load);
            prop_assert!(cache.contains(line));
        }
    }

    /// With partitioning on, a sector-1 stream can never evict sector-0
    /// residents: after filling sector 0, streaming arbitrary sector-1
    /// lines leaves every sector-0 line resident.
    #[test]
    fn sector_isolation_protects_other_sector(
        stream in prop::collection::vec(1000u64..2000, 1..200),
    ) {
        // 1 set, 8 ways, 3 for sector 1 -> 5 for sector 0.
        let geom = CacheGeometry::new(8 * LINE, 8, LINE);
        let mut cache = Cache::new(geom, SectorPolicy { sector1_ways: 3 }, Replacement::Lru);
        let residents: Vec<u64> = (0..5).collect();
        for &l in &residents {
            cache.access(l, 0, Request::Load);
        }
        for &l in &stream {
            cache.access(l, 1, Request::Load);
        }
        for &l in &residents {
            prop_assert!(cache.contains(l), "sector-0 line {l} was evicted");
        }
    }

    /// Dirty lines produce exactly one writeback when evicted, clean lines
    /// none: the number of writebacks never exceeds the number of stores.
    #[test]
    fn writebacks_bounded_by_stores(
        trace in prop::collection::vec((0u64..64, prop::bool::ANY), 1..300),
    ) {
        let geom = CacheGeometry::new(2 * 4 * LINE, 2, LINE);
        let mut cache = Cache::new(geom, SectorPolicy::OFF, Replacement::Lru);
        let mut stores = 0u64;
        for &(line, write) in &trace {
            let req = if write { stores += 1; Request::Store } else { Request::Load };
            cache.access(line, 0, req);
        }
        prop_assert!(cache.stats().writebacks <= stores);
    }

    /// Counter conservation: demand hits + demand misses = demand accesses.
    #[test]
    fn demand_counters_conserve(
        trace in prop::collection::vec(0u64..128, 1..300),
    ) {
        let geom = CacheGeometry::new(4 * 8 * LINE, 4, LINE);
        let mut cache = Cache::new(geom, SectorPolicy::OFF, Replacement::BitPlru);
        for &line in &trace {
            cache.access(line, 0, Request::Load);
        }
        let s = cache.stats();
        prop_assert_eq!(s.demand_hits + s.demand_misses, s.demand_accesses);
        prop_assert_eq!(s.demand_accesses as usize, trace.len());
    }
}
