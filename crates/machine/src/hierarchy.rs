//! Declarative cache-hierarchy descriptions and the named presets.
//!
//! A [`HierarchyConfig`] is a list of [`LevelConfig`]s (closest to the
//! core first), plus topology, replacement/prefetch policy and the timing
//! parameters the analytic models need. The rest of the stack reads a
//! machine through `HierarchyConfig`'s public fields and its read-only
//! accessors (see DESIGN.md §3d).
//!
//! Presets:
//!
//! * [`HierarchyConfig::a64fx`] — the paper's machine. The numbers here
//!   are **the** source of truth for A64FX geometry; `a64fx::MachineConfig`
//!   projects them and everything downstream reads from there.
//! * [`HierarchyConfig::generic_x86`] — a generic three-level x86-style
//!   server socket (private L1/L2, shared non-inclusive L3, 64 B lines).

use crate::geometry::{CacheGeometry, PrefetchConfig, Replacement, SectorPolicy, TimingParams};
use std::fmt;

/// The A64FX cache-line size in bytes, at every level.
///
/// Exposed as a constant so tests and docs outside this crate can name the
/// value instead of restating the literal (the grep gate in
/// `tests/no_literal_geometry.rs` enforces this).
pub const A64FX_LINE_BYTES: usize = 256;

/// Who shares one instance of a cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LevelScope {
    /// One instance per core (private).
    PerCore,
    /// One instance per NUMA domain, shared by `cores_per_domain` cores.
    PerDomain,
}

/// Inclusion policy of a level with respect to the levels above it.
///
/// The simulator models every level as non-inclusive write-back
/// write-allocate (the A64FX L2 and modern x86 L3s behave this way); the
/// field is declarative so specs can record the intent, and validation
/// rejects `Inclusive`/`Exclusive` only where the simulator would silently
/// mis-model them (nowhere today — all three share the non-inclusive
/// fill/writeback flow, which over-counts inclusive victims slightly).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Inclusion {
    /// Neither inclusive nor exclusive: fills allocate, victims of upper
    /// levels are written back on eviction. The simulated behaviour.
    #[default]
    NonInclusive,
    /// Lower level keeps a superset of upper levels.
    Inclusive,
    /// Lower level holds only lines evicted from upper levels.
    Exclusive,
}

/// One cache level: geometry plus the policies and link parameters
/// attached to it.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelConfig {
    /// Set-associative geometry.
    pub geometry: CacheGeometry,
    /// Way-based sector partitioning for this level (OFF = disabled).
    pub sector: SectorPolicy,
    /// Private per core or shared per domain.
    pub scope: LevelScope,
    /// Declared inclusion policy.
    pub inclusion: Inclusion,
    /// Bandwidth of the link *below* this level (towards memory), in
    /// bytes/s: per core for a private level, per domain for a shared
    /// level. The last level's link is the memory interface. Feeds the
    /// ECM transfer-time terms.
    pub link_bandwidth_bps: f64,
    /// Load-to-use latency of a fill from the level below, in seconds.
    pub link_latency_s: f64,
}

impl LevelConfig {
    /// A private per-core level with default inclusion.
    pub fn private(geometry: CacheGeometry, link_bandwidth_bps: f64, link_latency_s: f64) -> Self {
        LevelConfig {
            geometry,
            sector: SectorPolicy::OFF,
            scope: LevelScope::PerCore,
            inclusion: Inclusion::NonInclusive,
            link_bandwidth_bps,
            link_latency_s,
        }
    }

    /// A shared per-domain level with default inclusion.
    pub fn shared(geometry: CacheGeometry, link_bandwidth_bps: f64, link_latency_s: f64) -> Self {
        LevelConfig {
            geometry,
            sector: SectorPolicy::OFF,
            scope: LevelScope::PerDomain,
            inclusion: Inclusion::NonInclusive,
            link_bandwidth_bps,
            link_latency_s,
        }
    }
}

/// How the ECM model composes in-core and transfer times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EcmOverlap {
    /// No overlap between data transfers and execution: total time is the
    /// *sum* of the contributions. Alappat et al. found the A64FX behaves
    /// this way (no overlap of transfers across the memory hierarchy).
    Serial,
    /// Full overlap: total time is the *maximum* contribution (the
    /// classic optimistic ECM composition, closer to modern x86).
    Overlapped,
}

/// A machine description: an ordered cache hierarchy plus topology and
/// model parameters. Level 0 is closest to the core.
#[derive(Clone, Debug, PartialEq)]
pub struct HierarchyConfig {
    /// Preset / display name ("a64fx", "generic-x86", "custom").
    pub name: String,
    /// Total number of cores (= hardware threads used).
    pub num_cores: usize,
    /// Cores sharing each per-domain level (NUMA domain / CMG size).
    pub cores_per_domain: usize,
    /// Cache levels, closest to the core first. Private levels precede
    /// shared levels; the last level is shared (validated).
    pub levels: Vec<LevelConfig>,
    /// Replacement policy (all levels).
    pub replacement: Replacement,
    /// Prefetcher configuration.
    pub prefetch: PrefetchConfig,
    /// Analytic timing-model parameters.
    pub timing: TimingParams,
    /// ECM composition rule for this machine.
    pub overlap: EcmOverlap,
}

/// A structural problem with a [`HierarchyConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HierarchyError {
    /// The hierarchy has no levels at all.
    NoLevels,
    /// `num_cores` or `cores_per_domain` is zero.
    NoCores,
    /// A level has zero ways.
    ZeroWays {
        /// Level index (0 = closest to core).
        level: usize,
    },
    /// A level's line size is not a power of two.
    LineNotPowerOfTwo {
        /// Level index.
        level: usize,
        /// The offending line size.
        line_bytes: usize,
    },
    /// A level's capacity is not a whole number of sets.
    RaggedSets {
        /// Level index.
        level: usize,
    },
    /// Two levels disagree on the line size (the line-granular trace and
    /// model pipeline assume one line size end to end).
    MixedLineSize {
        /// Line size of level 0.
        first: usize,
        /// The first differing line size.
        other: usize,
    },
    /// A private level appears below a shared level.
    PrivateBelowShared {
        /// Index of the offending private level.
        level: usize,
    },
    /// The last level is private; the engine's domain fan-out needs a
    /// shared last level.
    LastLevelPrivate,
    /// A sector policy claims all (or more than all) of a level's ways.
    SectorTakesAllWays {
        /// Level index.
        level: usize,
        /// Sector-1 way count.
        sector1_ways: usize,
        /// Total ways at that level.
        ways: usize,
    },
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::NoLevels => write!(f, "hierarchy has no cache levels"),
            HierarchyError::NoCores => {
                write!(f, "num_cores and cores_per_domain must both be at least 1")
            }
            HierarchyError::ZeroWays { level } => {
                write!(f, "L{} has zero ways; associativity must be at least 1", level + 1)
            }
            HierarchyError::LineNotPowerOfTwo { level, line_bytes } => write!(
                f,
                "L{} line size {} is not a power of two",
                level + 1,
                line_bytes
            ),
            HierarchyError::RaggedSets { level } => write!(
                f,
                "L{} capacity is not a whole number of sets (size must divide into ways x line)",
                level + 1
            ),
            HierarchyError::MixedLineSize { first, other } => write!(
                f,
                "all levels must share one line size (saw {} and {}); the trace pipeline is line-granular",
                first, other
            ),
            HierarchyError::PrivateBelowShared { level } => write!(
                f,
                "L{} is private but sits below a shared level; private levels must precede shared ones",
                level + 1
            ),
            HierarchyError::LastLevelPrivate => {
                write!(f, "the last level must be shared (per-domain)")
            }
            HierarchyError::SectorTakesAllWays {
                level,
                sector1_ways,
                ways,
            } => write!(
                f,
                "L{} sector 1 cannot take {} of {} ways; at least one way must remain for sector 0",
                level + 1,
                sector1_ways,
                ways
            ),
        }
    }
}

impl HierarchyConfig {
    /// Validates the structural invariants the stack relies on.
    pub fn validate(&self) -> Result<(), HierarchyError> {
        if self.levels.is_empty() {
            return Err(HierarchyError::NoLevels);
        }
        if self.num_cores == 0 || self.cores_per_domain == 0 {
            return Err(HierarchyError::NoCores);
        }
        let first_line = self.levels[0].geometry.line_bytes;
        let mut seen_shared = false;
        for (i, level) in self.levels.iter().enumerate() {
            let g = &level.geometry;
            if g.ways == 0 {
                return Err(HierarchyError::ZeroWays { level: i });
            }
            if !g.line_bytes.is_power_of_two() {
                return Err(HierarchyError::LineNotPowerOfTwo {
                    level: i,
                    line_bytes: g.line_bytes,
                });
            }
            if g.line_bytes != first_line {
                return Err(HierarchyError::MixedLineSize {
                    first: first_line,
                    other: g.line_bytes,
                });
            }
            if g.size_bytes % (g.ways * g.line_bytes) != 0 || g.size_bytes == 0 {
                return Err(HierarchyError::RaggedSets { level: i });
            }
            if level.sector.enabled() && level.sector.sector1_ways >= g.ways {
                return Err(HierarchyError::SectorTakesAllWays {
                    level: i,
                    sector1_ways: level.sector.sector1_ways,
                    ways: g.ways,
                });
            }
            match level.scope {
                LevelScope::PerDomain => seen_shared = true,
                LevelScope::PerCore if seen_shared => {
                    return Err(HierarchyError::PrivateBelowShared { level: i });
                }
                LevelScope::PerCore => {}
            }
        }
        if self.levels.last().unwrap().scope != LevelScope::PerDomain {
            return Err(HierarchyError::LastLevelPrivate);
        }
        Ok(())
    }

    /// The full-size A64FX: 48 cores in 4 CMGs, private 64 KiB 4-way L1D,
    /// shared 8 MiB 16-way L2 per CMG, 256 B lines, HBM2 at ~200 GB/s per
    /// CMG. Link numbers follow Alappat et al.'s ECM measurements: the
    /// L1↔L2 link moves a 256 B line in ~4 cycles (64 B/cy ≈ 140.8 GB/s
    /// per core at 2.2 GHz).
    pub fn a64fx() -> Self {
        let timing = TimingParams::a64fx();
        HierarchyConfig {
            name: "a64fx".to_string(),
            num_cores: 48,
            cores_per_domain: 12,
            levels: vec![
                LevelConfig::private(
                    CacheGeometry::new(64 << 10, 4, A64FX_LINE_BYTES),
                    64.0 * timing.clock_hz,
                    37.0 / timing.clock_hz,
                ),
                LevelConfig::shared(
                    CacheGeometry::new(8 << 20, 16, A64FX_LINE_BYTES),
                    timing.domain_bandwidth,
                    110.0e-9,
                ),
            ],
            replacement: Replacement::default(),
            prefetch: PrefetchConfig::a64fx(),
            timing,
            overlap: EcmOverlap::Serial,
        }
    }

    /// A generic three-level x86-style server socket: 8 cores on one
    /// memory domain, private 32 KiB 8-way L1D and 1 MiB 16-way L2,
    /// shared non-inclusive 32 MiB 16-way L3, 64 B lines, ~50 GB/s DDR.
    /// Deliberately round numbers — a what-if backend, not a die shot.
    pub fn generic_x86() -> Self {
        let clock = 3.0e9;
        HierarchyConfig {
            name: "generic-x86".to_string(),
            num_cores: 8,
            cores_per_domain: 8,
            levels: vec![
                LevelConfig::private(
                    CacheGeometry::new(32 << 10, 8, 64),
                    64.0 * clock,
                    12.0 / clock,
                ),
                LevelConfig::private(
                    CacheGeometry::new(1 << 20, 16, 64),
                    32.0 * clock,
                    40.0 / clock,
                ),
                LevelConfig::shared(CacheGeometry::new(32 << 20, 16, 64), 50.0e9, 90.0e-9),
            ],
            replacement: Replacement::Lru,
            prefetch: PrefetchConfig {
                enabled: true,
                l2_distance: 8,
                l1_distance: 2,
                streams: 16,
            },
            timing: TimingParams {
                clock_hz: clock,
                cycles_per_nnz: 0.8,
                domain_bandwidth: 50.0e9,
                demand_miss_cost: 90.0e-9 / 10.0,
                l1_refill_cost: 12.0 / 3.0e9 / 24.0,
            },
            overlap: EcmOverlap::Overlapped,
        }
    }

    /// Divides every level's capacity by `factor`, keeping way counts,
    /// line size and topology — the same ratio-preserving shrink as
    /// `MachineConfig::a64fx_scaled` (which delegates here). The L2
    /// prefetch distance shrinks linearly (floored at 2) so per-set
    /// pressure of in-flight prefetched lines is preserved.
    ///
    /// # Panics
    ///
    /// Panics if a scaled level would not have a whole number of sets
    /// ([`try_scaled`](Self::try_scaled) returns that as an error).
    #[must_use]
    pub fn scaled(self, factor: usize) -> Self {
        self.try_scaled(factor).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`scaled`](Self::scaled), but returns
    /// [`HierarchyError::RaggedSets`] for the first level whose scaled
    /// capacity is not a whole number of sets.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn try_scaled(mut self, factor: usize) -> Result<Self, HierarchyError> {
        assert!(factor >= 1, "scale factor must be at least 1");
        for (i, level) in self.levels.iter_mut().enumerate() {
            let g = &mut level.geometry;
            g.size_bytes /= factor;
            if g.size_bytes % (g.ways * g.line_bytes) != 0 {
                return Err(HierarchyError::RaggedSets { level: i });
            }
        }
        self.prefetch.l2_distance = (self.prefetch.l2_distance / factor).max(2);
        Ok(self)
    }

    /// Sets the core count (builder style).
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
}

impl HierarchyConfig {
    /// Number of cache levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Level `i` (0 = closest to core).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn level(&self, i: usize) -> &LevelConfig {
        &self.levels[i]
    }

    /// The uniform line size in bytes (validated equal at every level).
    pub fn line_bytes(&self) -> usize {
        self.levels[0].geometry.line_bytes
    }

    /// Number of domains in use.
    pub fn num_domains(&self) -> usize {
        self.num_cores.div_ceil(self.cores_per_domain)
    }

    /// Index of the first shared (per-domain) level.
    pub fn first_shared_level(&self) -> usize {
        self.levels
            .iter()
            .position(|l| l.scope == LevelScope::PerDomain)
            .expect("validated hierarchies end in a shared level")
    }

    /// The last (memory-side) level.
    pub fn last_level(&self) -> &LevelConfig {
        self.levels
            .last()
            .expect("validated hierarchies have levels")
    }

    /// Order-sensitive fingerprint over every modelled parameter; two
    /// hierarchies with equal fingerprints are interchangeable for
    /// caching purposes.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_str(&self.name);
        h.write(self.num_cores as u64);
        h.write(self.cores_per_domain as u64);
        h.write(self.levels.len() as u64);
        for level in &self.levels {
            h.write(level.geometry.size_bytes as u64);
            h.write(level.geometry.ways as u64);
            h.write(level.geometry.line_bytes as u64);
            h.write(level.sector.sector1_ways as u64);
            h.write(match level.scope {
                LevelScope::PerCore => 0,
                LevelScope::PerDomain => 1,
            });
            h.write(match level.inclusion {
                Inclusion::NonInclusive => 0,
                Inclusion::Inclusive => 1,
                Inclusion::Exclusive => 2,
            });
            h.write(level.link_bandwidth_bps.to_bits());
            h.write(level.link_latency_s.to_bits());
        }
        h.write(match self.replacement {
            Replacement::Lru => 0,
            Replacement::BitPlru => 1,
        });
        h.write(self.prefetch.enabled as u64);
        h.write(self.prefetch.l2_distance as u64);
        h.write(self.prefetch.l1_distance as u64);
        h.write(self.prefetch.streams as u64);
        h.write(self.timing.clock_hz.to_bits());
        h.write(self.timing.cycles_per_nnz.to_bits());
        h.write(self.timing.domain_bandwidth.to_bits());
        h.write(self.timing.demand_miss_cost.to_bits());
        h.write(self.timing.l1_refill_cost.to_bits());
        h.write(match self.overlap {
            EcmOverlap::Serial => 0,
            EcmOverlap::Overlapped => 1,
        });
        h.finish()
    }
}

/// FNV-1a over 8-byte words; deterministic across platforms and runs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_str(&mut self, s: &str) {
        for b in s.as_bytes() {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.write(s.len() as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a64fx_preset_validates_and_matches_paper_geometry() {
        let h = HierarchyConfig::a64fx();
        h.validate().expect("a64fx preset must validate");
        assert_eq!(h.num_levels(), 2);
        assert_eq!(h.line_bytes(), A64FX_LINE_BYTES);
        assert_eq!(h.level(0).geometry.num_sets(), 64);
        assert_eq!(h.level(1).geometry.num_sets(), 2048);
        assert_eq!(h.num_domains(), 4);
        assert_eq!(h.first_shared_level(), 1);
    }

    #[test]
    fn generic_x86_preset_validates() {
        let h = HierarchyConfig::generic_x86();
        h.validate().expect("generic-x86 preset must validate");
        assert_eq!(h.num_levels(), 3);
        assert_eq!(h.line_bytes(), 64);
        assert_eq!(h.first_shared_level(), 2);
        assert_eq!(h.num_domains(), 1);
    }

    #[test]
    fn scaled_divides_capacities_and_prefetch_distance() {
        let h = HierarchyConfig::a64fx().scaled(16);
        assert_eq!(h.level(0).geometry.size_bytes, 4 << 10);
        assert_eq!(h.level(1).geometry.size_bytes, 512 << 10);
        assert_eq!(h.level(1).geometry.ways, 16);
        assert_eq!(h.prefetch.l2_distance, 2);
        h.validate().unwrap();
    }

    #[test]
    fn validation_rejects_structural_problems() {
        let mut h = HierarchyConfig::a64fx();
        h.levels[0].geometry.ways = 0;
        assert_eq!(h.validate(), Err(HierarchyError::ZeroWays { level: 0 }));

        let mut h = HierarchyConfig::a64fx();
        h.levels[0].geometry.line_bytes = 96;
        assert!(matches!(
            h.validate(),
            Err(HierarchyError::LineNotPowerOfTwo { level: 0, .. })
        ));

        let mut h = HierarchyConfig::a64fx();
        h.levels[0].geometry.line_bytes = 128;
        assert!(matches!(
            h.validate(),
            Err(HierarchyError::MixedLineSize { .. })
        ));

        let mut h = HierarchyConfig::a64fx();
        h.levels[1].scope = LevelScope::PerCore;
        assert_eq!(h.validate(), Err(HierarchyError::LastLevelPrivate));

        let mut h = HierarchyConfig::generic_x86();
        h.levels.swap(1, 2);
        assert!(matches!(
            h.validate(),
            Err(HierarchyError::PrivateBelowShared { level: 2 })
        ));

        let mut h = HierarchyConfig::a64fx();
        h.levels[1].sector = SectorPolicy::ways(16);
        assert!(matches!(
            h.validate(),
            Err(HierarchyError::SectorTakesAllWays { level: 1, .. })
        ));

        let mut h = HierarchyConfig::a64fx();
        h.levels.clear();
        assert_eq!(h.validate(), Err(HierarchyError::NoLevels));
    }

    #[test]
    fn fingerprints_distinguish_presets_and_parameters() {
        let a = HierarchyConfig::a64fx();
        let x = HierarchyConfig::generic_x86();
        assert_ne!(a.fingerprint(), x.fingerprint());
        assert_eq!(a.fingerprint(), HierarchyConfig::a64fx().fingerprint());
        let scaled = HierarchyConfig::a64fx().scaled(4);
        assert_ne!(a.fingerprint(), scaled.fingerprint());
        let cores = HierarchyConfig::a64fx().with_cores(8);
        assert_ne!(a.fingerprint(), cores.fingerprint());
    }
}
