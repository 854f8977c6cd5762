//! The simulated machine: private cache levels per core, shared levels
//! per domain, prefetchers.
//!
//! Request flow for a demand access from core `c`:
//!
//! 1. The access's array determines its **sector ID** (the paper's
//!    Listing 1 tags `a`/`colidx` with sector 1 via compiler directives).
//! 2. The private levels are walked innermost first; a dirty victim of
//!    level *i* is written back into level *i+1* (propagating further
//!    down on writeback misses; a writeback that misses every remaining
//!    level goes straight to memory).
//! 3. On a miss the walk continues with a demand request to the next
//!    level; a miss at the last (shared) level is a memory access. A
//!    dirty victim of the last level counts as a memory writeback inside
//!    that cache's own stats.
//! 4. The core's stream prefetcher trains on the demand line stream.
//!    Prefetched lines are filled into the second level (the A64FX's L2,
//!    an x86's private L2) with the sector of the triggering access, and
//!    — within the shorter L1 distance — into the L1 as well.
//!
//! Caches are non-inclusive write-back/write-allocate; writebacks never
//! allocate. The model is deliberately minimal: everything the paper's
//! evaluation needs (miss counts per level, demand vs. prefetch fills,
//! writeback traffic, premature prefetch eviction) emerges from this flow.
//!
//! [`Machine::new`] is the one constructor: it builds any validated
//! [`HierarchyConfig`], from the two-level A64FX (reached from a
//! [`MachineConfig`](crate::MachineConfig) through
//! [`to_hierarchy`](crate::MachineConfig::to_hierarchy)) to the
//! three-level `generic-x86` preset.

use crate::cache::{Cache, Outcome, Request};
use crate::counters::PmuSnapshot;
use crate::prefetch::StreamPrefetcher;
use machine::{HierarchyConfig, PrefetchConfig};
use memtrace::{Access, ArraySet};

struct Core {
    /// Private cache levels, innermost first.
    privates: Vec<Cache>,
    prefetcher: StreamPrefetcher,
    /// Scratch buffer for prefetch emissions.
    pf_buf: Vec<u64>,
    /// Last-level demand misses attributed to this core.
    l2_demand_misses: u64,
}

/// The simulated machine.
pub struct Machine {
    cores_per_domain: usize,
    prefetch: PrefetchConfig,
    sector1: ArraySet,
    cores: Vec<Core>,
    /// Shared cache levels per domain, outermost last.
    domains: Vec<Vec<Cache>>,
    /// Number of private levels (the rest are shared).
    num_private: usize,
    /// Total cache levels.
    num_levels: usize,
    /// Per-domain writebacks that missed every cache level and went
    /// straight to memory. Still memory traffic from that domain, so they
    /// count toward both the aggregate `L2D_CACHE_WB` and the domain's
    /// writeback row.
    direct_memory_writebacks: Vec<u64>,
}

impl Machine {
    /// Builds the machine described by a validated hierarchy; arrays in
    /// `sector1` are tagged with sector ID 1 on every memory request.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy fails [`HierarchyConfig::validate`].
    pub fn new(hier: &HierarchyConfig, sector1: ArraySet) -> Self {
        if let Err(e) = hier.validate() {
            panic!("invalid hierarchy: {e}");
        }
        let prefetch = hier.prefetch;
        let num_private = hier.first_shared_level();
        let num_levels = hier.num_levels();
        let caches = |levels: &[machine::LevelConfig]| -> Vec<Cache> {
            levels
                .iter()
                .map(|l| Cache::new(l.geometry, l.sector, hier.replacement))
                .collect()
        };
        let cores = (0..hier.num_cores)
            .map(|_| Core {
                privates: caches(&hier.levels[..num_private]),
                prefetcher: if prefetch.enabled {
                    StreamPrefetcher::new(prefetch.streams, prefetch.l2_distance)
                } else {
                    StreamPrefetcher::off()
                },
                pf_buf: Vec::new(),
                l2_demand_misses: 0,
            })
            .collect();
        let num_domains = hier.num_domains();
        Machine {
            cores_per_domain: hier.cores_per_domain,
            prefetch,
            sector1,
            cores,
            domains: (0..num_domains)
                .map(|_| caches(&hier.levels[num_private..]))
                .collect(),
            num_private,
            num_levels,
            direct_memory_writebacks: vec![0; num_domains],
        }
    }

    /// Number of cache levels being simulated.
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Sector ID for an access, from the machine's array assignment.
    #[inline]
    pub fn sector_of(&self, access: &Access) -> u8 {
        u8::from(self.sector1.contains(access.array))
    }

    fn cache_mut(&mut self, core: usize, domain: usize, level: usize) -> &mut Cache {
        if level < self.num_private {
            &mut self.cores[core].privates[level]
        } else {
            &mut self.domains[domain][level - self.num_private]
        }
    }

    /// Accesses `level`; a dirty victim of a non-last level is written
    /// back into the level below. Returns the outcome.
    fn level_access(
        &mut self,
        core: usize,
        domain: usize,
        level: usize,
        line: u64,
        sector: u8,
        request: Request,
    ) -> Outcome {
        let outcome = self
            .cache_mut(core, domain, level)
            .access(line, sector, request);
        if level + 1 < self.num_levels {
            if let Outcome::Miss {
                writeback: Some(victim),
                ..
            } = outcome
            {
                self.writeback_into(core, domain, level + 1, victim);
            }
        }
        outcome
    }

    /// Writes a dirty victim back into `level`, walking down the
    /// hierarchy until some level holds the line; a victim no level holds
    /// is a direct memory writeback.
    fn writeback_into(&mut self, core: usize, domain: usize, mut level: usize, line: u64) {
        while level < self.num_levels {
            if self
                .cache_mut(core, domain, level)
                .access(line, 0, Request::Writeback)
                != Outcome::WritebackMiss
            {
                return;
            }
            level += 1;
        }
        self.direct_memory_writebacks[domain] += 1;
    }

    /// Performs one demand access on behalf of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn demand_access(&mut self, core: usize, access: Access) {
        let sector = self.sector_of(&access);
        let domain = core / self.cores_per_domain;
        // Prefetches (software hints and hardware emissions) fill the
        // second level — the A64FX's shared L2, an x86's private L2.
        let pf_level = 1.min(self.num_levels - 1);

        // Software-prefetch hints warm the prefetch level (and L1) without
        // demanding data, stalling, or training the hardware prefetcher.
        if access.sw_prefetch {
            self.prefetch_fill(core, domain, pf_level, access.line, sector);
            if pf_level != 0 {
                self.level_access(core, domain, 0, access.line, sector, Request::Prefetch);
            }
            return;
        }

        let request = if access.write {
            Request::Store
        } else {
            Request::Load
        };

        // Walk the hierarchy innermost first; deeper levels see plain
        // demand loads (write-allocate turns stores into fills).
        for level in 0..self.num_levels {
            let req = if level == 0 { request } else { Request::Load };
            match self.level_access(core, domain, level, access.line, sector, req) {
                Outcome::Hit { .. } => break,
                Outcome::Miss { .. } => {
                    if level + 1 == self.num_levels {
                        self.cores[core].l2_demand_misses += 1;
                    }
                }
                Outcome::WritebackMiss => unreachable!("demand requests allocate"),
            }
        }

        // Train the prefetcher on the demand line stream. Training sees
        // every demand access (not only L1 misses): otherwise the
        // prefetcher's own L1 fills would hide the stream it is following.
        // A disabled prefetcher emits nothing.
        if !self.cores[core].prefetcher.enabled() {
            return;
        }
        let mut pf_buf = std::mem::take(&mut self.cores[core].pf_buf);
        pf_buf.clear();
        self.cores[core]
            .prefetcher
            .observe(access.line, &mut pf_buf);
        let l1_window = access.line + self.prefetch.l1_distance as u64;
        for &pf_line in &pf_buf {
            self.prefetch_fill(core, domain, pf_level, pf_line, sector);
            if self.prefetch.l1_distance > 0 && pf_line <= l1_window {
                self.level_access(core, domain, 0, pf_line, sector, Request::Prefetch);
            }
        }
        self.cores[core].pf_buf = pf_buf;
    }

    /// Fills a prefetched line into `level` and every level below it down
    /// to the last: the fill path is memory → LLC → ... → `level`. On a
    /// two-level machine this is exactly one L2 access; on deeper
    /// hierarchies it keeps LLC fill counters equal to memory traffic.
    fn prefetch_fill(&mut self, core: usize, domain: usize, level: usize, line: u64, sector: u8) {
        for l in (level..self.num_levels).rev() {
            self.level_access(core, domain, l, line, sector, Request::Prefetch);
        }
    }

    /// Zeroes all event counters while keeping cache and prefetcher state
    /// (used to discard the warm-up iteration).
    pub fn reset_stats(&mut self) {
        for core in &mut self.cores {
            for l in &mut core.privates {
                l.reset_stats();
            }
            core.l2_demand_misses = 0;
        }
        for chain in &mut self.domains {
            for l in chain {
                l.reset_stats();
            }
        }
        self.direct_memory_writebacks.fill(0);
    }

    /// Aggregates all counters into a [`PmuSnapshot`]: `l1d_*` from the
    /// innermost level, `l2d_*` from the last level, intermediate levels
    /// in `mid_level_refill`.
    pub fn pmu(&self) -> PmuSnapshot {
        let mut snap = PmuSnapshot {
            mid_level_refill: vec![0; self.num_levels.saturating_sub(2)],
            ..PmuSnapshot::default()
        };
        for core in &self.cores {
            let s = core.privates[0].stats();
            snap.l1d_cache_refill += s.fills();
            snap.l1d_demand_misses += s.demand_misses;
            snap.evicted_unused_prefetches += s.evicted_unused_prefetches;
            snap.per_core_l1_demand_misses.push(s.demand_misses);
            snap.per_core_l2_demand_misses.push(core.l2_demand_misses);
            for (mid, l) in core.privates[1..].iter().enumerate() {
                snap.mid_level_refill[mid] += l.stats().fills();
                snap.evicted_unused_prefetches += l.stats().evicted_unused_prefetches;
            }
        }
        let shared_levels = self.num_levels - self.num_private;
        for (chain, &direct_wb) in self.domains.iter().zip(&self.direct_memory_writebacks) {
            for (pos, l) in chain[..shared_levels - 1].iter().enumerate() {
                let mid = self.num_private - 1 + pos;
                snap.mid_level_refill[mid] += l.stats().fills();
                snap.evicted_unused_prefetches += l.stats().evicted_unused_prefetches;
            }
            let s = chain[shared_levels - 1].stats();
            snap.l2d_cache_refill += s.fills();
            snap.l2d_cache_refill_dm += s.demand_misses;
            snap.l2d_cache_refill_prf += s.prefetch_fills;
            snap.l2d_cache_wb += s.writebacks + direct_wb;
            snap.evicted_unused_prefetches += s.evicted_unused_prefetches;
            snap.per_domain_l2_refill.push(s.fills());
            snap.per_domain_l2_wb.push(s.writebacks + direct_wb);
        }
        snap
    }

    /// Direct read access to a domain's last-level cache (tests,
    /// diagnostics).
    pub fn l2(&self, domain: usize) -> &Cache {
        self.domains[domain].last().expect("shared last level")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, PrefetchConfig};
    use memtrace::Array;

    /// A scaled A64FX with two cores sharing one domain.
    fn tiny_config(sector1_ways: usize, prefetch: bool) -> MachineConfig {
        let mut cfg = MachineConfig::a64fx_scaled(64).with_cores(2);
        cfg.cores_per_domain = 2;
        if sector1_ways > 0 {
            cfg = cfg.with_l2_sector(sector1_ways);
        }
        if !prefetch {
            cfg = cfg.with_prefetch(PrefetchConfig::off());
        }
        cfg
    }

    fn tiny_machine(sector1_ways: usize, prefetch: bool) -> Machine {
        let hier = tiny_config(sector1_ways, prefetch).to_hierarchy("tiny");
        Machine::new(&hier, ArraySet::MATRIX_STREAM)
    }

    #[test]
    fn sector_assignment_follows_array_set() {
        let m = tiny_machine(2, false);
        assert_eq!(m.sector_of(&Access::load(0, Array::A)), 1);
        assert_eq!(m.sector_of(&Access::load(0, Array::ColIdx)), 1);
        assert_eq!(m.sector_of(&Access::load(0, Array::X)), 0);
        assert_eq!(m.sector_of(&Access::load(0, Array::RowPtr)), 0);
    }

    #[test]
    fn l1_hit_generates_no_l2_traffic() {
        let mut m = tiny_machine(0, false);
        m.demand_access(0, Access::load(7, Array::X));
        let after_first = m.pmu().l2d_cache_refill;
        m.demand_access(0, Access::load(7, Array::X));
        assert_eq!(m.pmu().l2d_cache_refill, after_first);
        assert_eq!(m.pmu().l1d_demand_misses, 1);
    }

    #[test]
    fn l1_miss_l2_hit_refills_l1_only() {
        let mut m = tiny_machine(0, false);
        // Core 0 loads the line into its L1 and the shared L2.
        m.demand_access(0, Access::load(7, Array::X));
        // Core 1 (same domain) misses L1, hits L2.
        m.demand_access(1, Access::load(7, Array::X));
        let p = m.pmu();
        assert_eq!(p.l1d_demand_misses, 2);
        assert_eq!(p.l2d_cache_refill, 1);
        assert_eq!(p.per_core_l2_demand_misses, vec![1, 0]);
    }

    #[test]
    fn dirty_lines_propagate_writebacks() {
        let mut m = tiny_machine(0, false);
        let l1 = tiny_config(0, false).l1;
        let sets = l1.num_sets() as u64;
        // Store to a line, then stream enough conflicting lines through the
        // same L1 set to force the dirty victim out.
        m.demand_access(0, Access::store(0, Array::Y));
        for i in 1..=l1.ways as u64 {
            m.demand_access(0, Access::load(i * sets, Array::X));
        }
        // The dirty line was written back into the L2 (present there), so
        // no direct memory writeback and no L2 writeback yet.
        let p = m.pmu();
        assert_eq!(p.l2d_cache_wb, 0);
        assert!(p.l1d_demand_misses >= l1.ways as u64);
    }

    #[test]
    fn prefetcher_fills_l2_ahead_of_stream() {
        let mut m = tiny_machine(0, true);
        // Walk a long ascending line stream.
        for l in 0..32u64 {
            m.demand_access(0, Access::load(l, Array::A));
        }
        let p = m.pmu();
        assert!(p.l2d_cache_refill_prf > 0, "prefetch fills expected");
        // Prefetched lines beyond the demand frontier are resident in L2.
        let l2_distance = tiny_config(0, true).prefetch.l2_distance as u64;
        assert!(m.l2(0).contains(32 + l2_distance - 1));
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut m = tiny_machine(0, false);
        m.demand_access(0, Access::load(5, Array::X));
        m.reset_stats();
        assert_eq!(m.pmu().l2d_cache_refill, 0);
        // Still resident: re-access hits both levels.
        m.demand_access(0, Access::load(5, Array::X));
        let p = m.pmu();
        assert_eq!(p.l1d_demand_misses, 0);
        assert_eq!(p.l2d_cache_refill, 0);
    }

    #[test]
    fn domains_are_independent() {
        let mut cfg = MachineConfig::a64fx_scaled(64).with_cores(4);
        cfg.cores_per_domain = 2;
        let mut m = Machine::new(&cfg.to_hierarchy("two-domains"), ArraySet::EMPTY);
        // Core 0 (domain 0) and core 2 (domain 1) load the same line: each
        // domain fetches its own copy — the paper's §3.1 replication note.
        m.demand_access(0, Access::load(9, Array::X));
        m.demand_access(2, Access::load(9, Array::X));
        let p = m.pmu();
        assert_eq!(p.l2d_cache_refill, 2);
        assert_eq!(p.per_domain_l2_refill, vec![1, 1]);
        assert!(m.l2(0).contains(9) && m.l2(1).contains(9));
    }

    /// The three-level generic-x86 preset simulates end to end; the
    /// middle level filters traffic between L1 misses and LLC fills.
    #[test]
    fn three_level_machine_filters_through_mid_level() {
        let hier = HierarchyConfig::generic_x86().scaled(64).with_cores(2);
        let mut m = Machine::new(&hier, ArraySet::EMPTY);
        assert_eq!(m.num_levels(), 3);
        for l in 0..256u64 {
            m.demand_access(0, Access::load(l % 96, Array::X));
        }
        let p = m.pmu();
        assert_eq!(p.mid_level_refill.len(), 1);
        assert!(p.mid_level_refill[0] > 0, "mid level sees fills");
        assert!(p.l1d_cache_refill >= p.mid_level_refill[0]);
        // Working set fits in the scaled L3, so it holds every line.
        assert!(p.l2d_cache_refill <= 96 + hier.prefetch.l2_distance as u64);
    }

    /// Dirty victims of a middle level land in the level below it, not in
    /// memory, as long as the line is still resident there.
    #[test]
    fn mid_level_victims_write_back_into_llc() {
        let hier = HierarchyConfig::generic_x86().scaled(64).with_cores(1);
        let mut m = Machine::new(&hier, ArraySet::EMPTY);
        let l2_lines = hier.level(1).geometry.total_lines() as u64;
        // Dirty many lines, then stream far past the L2 capacity.
        for l in 0..l2_lines * 4 {
            m.demand_access(0, Access::store(l, Array::Y));
        }
        let p = m.pmu();
        // All writeback traffic stayed inside the hierarchy (the scaled
        // L3 is big enough to hold evicted dirty lines).
        assert_eq!(p.l2d_cache_wb, 0);
        assert!(p.mid_level_refill[0] > 0);
    }
}
