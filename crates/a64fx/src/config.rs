//! Machine configuration: the two-level projection the models consume.
//!
//! The geometry/policy vocabulary ([`CacheGeometry`], [`SectorPolicy`],
//! [`Replacement`], [`PrefetchConfig`], [`TimingParams`]) lives in the
//! `machine` crate and is re-exported here, so existing `a64fx::...`
//! paths keep working. The A64FX numbers themselves live in exactly one
//! place — [`machine::HierarchyConfig::a64fx`] — and [`MachineConfig`] is
//! the *projection* of a hierarchy onto the two levels the analytic
//! models reason about: the innermost private cache (`l1`) and the
//! last-level shared cache (`l2`). For the A64FX those are the only two
//! levels, so the projection is lossless; for deeper hierarchies (e.g.
//! the `generic-x86` preset) intermediate levels are simulated by
//! [`crate::hierarchy::Machine`] but invisible to the reuse-distance
//! model, which predicts last-level misses.
//!
//! [`MachineConfig::a64fx_scaled`] shrinks all capacities by a factor while
//! keeping way counts, line size and topology, so the full corpus can be
//! simulated at laptop scale with identical working-set/cache *ratios* —
//! the quantities every effect in the paper depends on (see DESIGN.md).

pub use machine::{CacheGeometry, PrefetchConfig, Replacement, SectorPolicy, TimingParams};

use machine::{HierarchyConfig, LevelConfig, LevelScope};

/// Full machine description: the two-level view of a cache hierarchy.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Total number of cores (= hardware threads used).
    pub num_cores: usize,
    /// Cores sharing each last-level cache (per NUMA domain / CMG).
    pub cores_per_domain: usize,
    /// Private L1D geometry.
    pub l1: CacheGeometry,
    /// Shared per-domain last-level-cache geometry.
    pub l2: CacheGeometry,
    /// L1 sector policy.
    pub l1_sector: SectorPolicy,
    /// L2 sector policy.
    pub l2_sector: SectorPolicy,
    /// Replacement policy (both levels).
    pub replacement: Replacement,
    /// Prefetcher configuration.
    pub prefetch: PrefetchConfig,
    /// Timing-model parameters.
    pub timing: TimingParams,
}

impl MachineConfig {
    /// The full-size A64FX: 48 cores, 4 domains, 64 KiB 4-way L1D,
    /// 8 MiB 16-way L2 per domain, 256 B lines. Delegates to the
    /// [`HierarchyConfig::a64fx`] preset — the single source of truth for
    /// these numbers.
    pub fn a64fx() -> Self {
        Self::from_hierarchy(&HierarchyConfig::a64fx())
    }

    /// A capacity-scaled A64FX: identical ways, line size and topology,
    /// with L1/L2 capacities divided by `factor`. Working-set/cache ratios
    /// — the quantities the paper's effects depend on — are preserved when
    /// the workload is scaled by the same factor.
    ///
    /// # Panics
    ///
    /// Panics if the scaled caches would not have a whole number of sets.
    pub fn a64fx_scaled(factor: usize) -> Self {
        Self::from_hierarchy(&HierarchyConfig::a64fx().scaled(factor))
    }

    /// Projects a validated hierarchy onto the two-level view: `l1` is
    /// the innermost level, `l2` the last (shared) level.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy has no levels (call
    /// [`HierarchyConfig::validate`] first for a typed error).
    pub fn from_hierarchy(hier: &HierarchyConfig) -> Self {
        let first = hier.level(0);
        let last = hier.last_level();
        MachineConfig {
            num_cores: hier.num_cores,
            cores_per_domain: hier.cores_per_domain,
            l1: first.geometry,
            l2: last.geometry,
            l1_sector: first.sector,
            l2_sector: last.sector,
            replacement: hier.replacement,
            prefetch: hier.prefetch,
            timing: hier.timing,
        }
    }

    /// The inverse of [`MachineConfig::from_hierarchy`] for two-level
    /// machines: rebuilds a hierarchy (named `name`) whose projection is
    /// `self`. Link parameters are taken from the A64FX preset's shape.
    pub fn to_hierarchy(&self, name: &str) -> HierarchyConfig {
        let template = HierarchyConfig::a64fx();
        let mut l1 = LevelConfig {
            geometry: self.l1,
            sector: self.l1_sector,
            ..template.levels[0].clone()
        };
        l1.scope = LevelScope::PerCore;
        let mut l2 = LevelConfig {
            geometry: self.l2,
            sector: self.l2_sector,
            ..template.levels[1].clone()
        };
        l2.scope = LevelScope::PerDomain;
        l2.link_bandwidth_bps = self.timing.domain_bandwidth;
        HierarchyConfig {
            name: name.to_string(),
            num_cores: self.num_cores,
            cores_per_domain: self.cores_per_domain,
            levels: vec![l1, l2],
            replacement: self.replacement,
            prefetch: self.prefetch,
            timing: self.timing,
            overlap: template.overlap,
        }
    }

    /// Number of NUMA domains in use for `num_cores`.
    pub fn num_domains(&self) -> usize {
        self.num_cores.div_ceil(self.cores_per_domain)
    }

    /// Sets the L2 sector-1 way count (builder style).
    #[must_use]
    pub fn with_l2_sector(mut self, sector1_ways: usize) -> Self {
        assert!(
            sector1_ways < self.l2.ways,
            "sector 1 cannot take all {} L2 ways",
            self.l2.ways
        );
        self.l2_sector = SectorPolicy::ways(sector1_ways);
        self
    }

    /// Sets the L1 sector-1 way count (builder style).
    #[must_use]
    pub fn with_l1_sector(mut self, sector1_ways: usize) -> Self {
        assert!(
            sector1_ways < self.l1.ways,
            "sector 1 cannot take all {} L1 ways",
            self.l1.ways
        );
        self.l1_sector = SectorPolicy::ways(sector1_ways);
        self
    }

    /// Sets the prefetch configuration (builder style).
    #[must_use]
    pub fn with_prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Sets the core count (builder style), e.g. 1 for sequential runs.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    #[must_use]
    pub fn with_cores(mut self, num_cores: usize) -> Self {
        assert!(num_cores > 0, "need at least one core");
        self.num_cores = num_cores;
        self
    }

    /// Capacity (in lines) of the L2 partition holding sector-`s` data.
    pub fn l2_partition_lines(&self, sector: u8) -> usize {
        let (geom, policy) = (&self.l2, self.l2_sector);
        if !policy.enabled() {
            return geom.total_lines();
        }
        match sector {
            0 => geom.sector_lines(geom.ways - policy.sector1_ways),
            1 => geom.sector_lines(policy.sector1_ways),
            _ => panic!("only sectors 0 and 1 are modelled"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a64fx_geometry() {
        let cfg = MachineConfig::a64fx();
        assert_eq!(cfg.l1.num_sets(), 64); // 64 KiB / (4 * 256 B)
        assert_eq!(cfg.l2.num_sets(), 2048); // 8 MiB / (16 * 256 B)
        assert_eq!(cfg.l1.total_lines(), 256);
        assert_eq!(cfg.l2.total_lines(), 32768);
        assert_eq!(cfg.num_domains(), 4);
    }

    #[test]
    fn scaled_preserves_ways_and_lines() {
        let cfg = MachineConfig::a64fx_scaled(16);
        assert_eq!(cfg.l1.ways, 4);
        assert_eq!(cfg.l2.ways, 16);
        assert_eq!(cfg.l1.line_bytes, machine::A64FX_LINE_BYTES);
        assert_eq!(cfg.l2.size_bytes, 512 << 10);
        assert_eq!(cfg.l2.num_sets(), 128);
        assert_eq!(cfg.l1.num_sets(), 4);
    }

    #[test]
    fn sector_partition_capacities() {
        let cfg = MachineConfig::a64fx().with_l2_sector(5);
        // Sector 1: 5 of 16 ways; sector 0: 11 ways.
        assert_eq!(cfg.l2_partition_lines(1), 2048 * 5);
        assert_eq!(cfg.l2_partition_lines(0), 2048 * 11);
        // Disabled partitioning: both sectors see the whole cache.
        let off = MachineConfig::a64fx();
        assert_eq!(off.l2_partition_lines(0), 32768);
        assert_eq!(off.l2_partition_lines(1), 32768);
    }

    #[test]
    fn builders() {
        let cfg = MachineConfig::a64fx()
            .with_l2_sector(4)
            .with_l1_sector(1)
            .with_cores(1)
            .with_prefetch(PrefetchConfig::off());
        assert!(cfg.l2_sector.enabled());
        assert_eq!(cfg.l1_sector.sector1_ways, 1);
        assert_eq!(cfg.num_cores, 1);
        assert!(!cfg.prefetch.enabled);
        assert_eq!(cfg.num_domains(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot take all")]
    fn full_sector_takeover_rejected() {
        let _ = MachineConfig::a64fx().with_l2_sector(16);
    }

    #[test]
    fn projection_of_generic_x86_takes_inner_and_last_levels() {
        let cfg = MachineConfig::from_hierarchy(&HierarchyConfig::generic_x86());
        assert_eq!(cfg.l1.size_bytes, 32 << 10);
        assert_eq!(cfg.l2.size_bytes, 32 << 20);
        assert_eq!(cfg.l1.line_bytes, 64);
        assert_eq!(cfg.num_cores, 8);
        assert_eq!(cfg.num_domains(), 1);
    }

    #[test]
    fn hierarchy_roundtrip_preserves_projection() {
        let cfg = MachineConfig::a64fx().with_l2_sector(3).with_cores(4);
        let hier = cfg.to_hierarchy("roundtrip");
        hier.validate().unwrap();
        let back = MachineConfig::from_hierarchy(&hier);
        assert_eq!(back, cfg);
    }
}
