//! Machine selection specs: named presets and the `custom:` grammar.
//!
//! `--machine` (and the batch `machine` directive) accepts:
//!
//! * `a64fx` — the paper's machine, the default everywhere;
//! * `generic-x86` — the three-level what-if preset;
//! * `custom:<spec>` — a declarative hierarchy, `;`-separated fields with
//!   `,`-separated level parameters:
//!
//! ```text
//! custom:cores=8;domain=8;l1=32k,8,64;l2=1m,16,64;l3=32m,16,64,shared;mem=50g
//! ```
//!
//! Level keys `l1..l9` must be contiguous from `l1`; each takes
//! `size,ways,line[,shared][,sector=W]`. Sizes accept `k`/`m`/`g` binary
//! suffixes; `mem` (bytes/s, decimal `k`/`m`/`g`) sets the memory link of
//! the last level, `clock` (Hz) the core clock. The last level is shared
//! implicitly. Errors are typed ([`MachineParseError`]) with pointed
//! messages, mirroring the `FormatSpec::parse` hardening.

use crate::hierarchy::{EcmOverlap, HierarchyConfig, HierarchyError, LevelScope};
use crate::{CacheGeometry, LevelConfig, Replacement, SectorPolicy, TimingParams};
use std::fmt;

/// A parsed `--machine` argument. Carries enough to build the
/// [`HierarchyConfig`] at any capacity scale.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum MachineSpec {
    /// The `a64fx` preset (the default machine everywhere).
    #[default]
    A64fx,
    /// The `generic-x86` preset.
    GenericX86,
    /// A `custom:` hierarchy, already validated.
    Custom(HierarchyConfig),
}

/// A problem parsing a `--machine` argument.
#[derive(Clone, Debug, PartialEq)]
pub enum MachineParseError {
    /// Empty string.
    Empty,
    /// Not a preset and not `custom:`.
    UnknownMachine(String),
    /// `custom:` with nothing after it.
    EmptyCustom,
    /// An unrecognised `key=value` field.
    UnknownKey(String),
    /// The same field given twice.
    DuplicateKey(String),
    /// A field without `=`.
    MissingValue(String),
    /// A level list ends in a comma, e.g. `l1=32k,8,64,`.
    TrailingComma(String),
    /// A number (or suffixed size) that does not parse.
    BadNumber {
        /// Field the number appeared in.
        field: String,
        /// The offending token.
        value: String,
    },
    /// A level spec with too few or unrecognised parameters.
    BadLevel {
        /// Level key, e.g. `l2`.
        level: String,
        /// What is wrong.
        detail: String,
    },
    /// Level keys skip a number (e.g. `l1` and `l3` with no `l2`).
    NonContiguousLevels(String),
    /// No `l1=` field at all.
    MissingLevels,
    /// The assembled hierarchy failed structural validation (zero ways,
    /// non-power-of-two line size, ragged sets, ...).
    Invalid(HierarchyError),
}

impl fmt::Display for MachineParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineParseError::Empty => {
                write!(
                    f,
                    "empty machine spec (expected a64fx, generic-x86 or custom:...)"
                )
            }
            MachineParseError::UnknownMachine(s) => write!(
                f,
                "unknown machine '{s}' (expected a64fx, generic-x86 or custom:<spec>)"
            ),
            MachineParseError::EmptyCustom => write!(
                f,
                "custom: needs fields, e.g. custom:cores=8;domain=8;l1=32k,8,64;l2=1m,16,64;mem=50g"
            ),
            MachineParseError::UnknownKey(k) => write!(
                f,
                "unknown machine field '{k}' (expected cores, domain, l1..l9, mem or clock)"
            ),
            MachineParseError::DuplicateKey(k) => write!(f, "machine field '{k}' given twice"),
            MachineParseError::MissingValue(k) => {
                write!(f, "machine field '{k}' needs a value (key=value)")
            }
            MachineParseError::TrailingComma(field) => write!(
                f,
                "trailing comma in '{field}' (expected size,ways,line[,shared][,sector=W])"
            ),
            MachineParseError::BadNumber { field, value } => {
                write!(f, "bad number '{value}' in machine field '{field}'")
            }
            MachineParseError::BadLevel { level, detail } => {
                write!(f, "bad level spec '{level}': {detail}")
            }
            MachineParseError::NonContiguousLevels(k) => write!(
                f,
                "level keys must be contiguous from l1 (missing level before '{k}')"
            ),
            MachineParseError::MissingLevels => {
                write!(f, "custom machine needs at least l1=size,ways,line")
            }
            MachineParseError::Invalid(e) => write!(f, "invalid machine: {e}"),
        }
    }
}

impl std::error::Error for MachineParseError {}

impl MachineSpec {
    /// Parses `a64fx`, `generic-x86` or `custom:<spec>`.
    pub fn parse(s: &str) -> Result<MachineSpec, MachineParseError> {
        let trimmed = s.trim();
        if trimmed.is_empty() {
            return Err(MachineParseError::Empty);
        }
        let lower = trimmed.to_ascii_lowercase();
        match lower.as_str() {
            "a64fx" => return Ok(MachineSpec::A64fx),
            "generic-x86" | "generic_x86" | "x86" => return Ok(MachineSpec::GenericX86),
            _ => {}
        }
        if let Some(body) = lower.strip_prefix("custom:") {
            return parse_custom(body).map(MachineSpec::Custom);
        }
        Err(MachineParseError::UnknownMachine(trimmed.to_string()))
    }

    /// Canonical label; doubles as the report's `machine` field.
    pub fn label(&self) -> &str {
        match self {
            MachineSpec::A64fx => "a64fx",
            MachineSpec::GenericX86 => "generic-x86",
            MachineSpec::Custom(h) => &h.name,
        }
    }

    /// Is this the default machine (whose reports stay byte-identical to
    /// the pre-abstraction output)?
    pub fn is_default(&self) -> bool {
        matches!(self, MachineSpec::A64fx)
    }

    /// Builds the hierarchy at a capacity scale (1 = full size), matching
    /// the engine's `a64fx_scaled` convention for every backend.
    ///
    /// # Panics
    ///
    /// Panics if the scale leaves a level without a whole number of sets
    /// ([`try_hierarchy`](Self::try_hierarchy) returns that as an error).
    pub fn hierarchy(&self, scale: usize) -> HierarchyConfig {
        self.try_hierarchy(scale).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`hierarchy`](Self::hierarchy), but returns
    /// [`HierarchyError::RaggedSets`] when the scale leaves a level
    /// without a whole number of sets.
    pub fn try_hierarchy(&self, scale: usize) -> Result<HierarchyConfig, HierarchyError> {
        let base = match self {
            MachineSpec::A64fx => HierarchyConfig::a64fx(),
            MachineSpec::GenericX86 => HierarchyConfig::generic_x86(),
            MachineSpec::Custom(h) => h.clone(),
        };
        if scale <= 1 {
            Ok(base)
        } else {
            base.try_scaled(scale)
        }
    }
}

fn parse_custom(body: &str) -> Result<HierarchyConfig, MachineParseError> {
    if body.trim().is_empty() {
        return Err(MachineParseError::EmptyCustom);
    }
    let mut cores: Option<usize> = None;
    let mut domain: Option<usize> = None;
    let mut mem_bw: Option<f64> = None;
    let mut clock: Option<f64> = None;
    let mut levels: Vec<(usize, LevelConfig)> = Vec::new();

    for field in body.split(';') {
        let field = field.trim();
        if field.is_empty() {
            continue;
        }
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| MachineParseError::MissingValue(field.to_string()))?;
        let key = key.trim();
        let value = value.trim();
        match key {
            "cores" => set_once(&mut cores, key, parse_count(key, value)?)?,
            "domain" => set_once(&mut domain, key, parse_count(key, value)?)?,
            "mem" => set_once(&mut mem_bw, key, parse_rate(key, value)?)?,
            "clock" => set_once(&mut clock, key, parse_rate(key, value)?)?,
            _ if key.len() >= 2 && key.starts_with('l') => {
                let idx: usize = key[1..]
                    .parse()
                    .map_err(|_| MachineParseError::UnknownKey(key.to_string()))?;
                if idx == 0 || idx > 9 {
                    return Err(MachineParseError::UnknownKey(key.to_string()));
                }
                if levels.iter().any(|(i, _)| *i == idx) {
                    return Err(MachineParseError::DuplicateKey(key.to_string()));
                }
                levels.push((idx, parse_level(field, key, value)?));
            }
            _ => return Err(MachineParseError::UnknownKey(key.to_string())),
        }
    }

    if levels.is_empty() {
        return Err(MachineParseError::MissingLevels);
    }
    levels.sort_by_key(|(i, _)| *i);
    for (pos, (idx, _)) in levels.iter().enumerate() {
        if *idx != pos + 1 {
            return Err(MachineParseError::NonContiguousLevels(format!("l{idx}")));
        }
    }
    let mut levels: Vec<LevelConfig> = levels.into_iter().map(|(_, l)| l).collect();
    // The last level is the shared LLC whether or not the spec said so,
    // and its link is the memory interface.
    let num = levels.len();
    let clock = clock.unwrap_or(2.5e9);
    let mem_bw = mem_bw.unwrap_or(50.0e9);
    for (i, level) in levels.iter_mut().enumerate() {
        if i + 1 == num {
            level.scope = LevelScope::PerDomain;
            level.link_bandwidth_bps = mem_bw;
            level.link_latency_s = 100.0e-9;
        } else if level.link_bandwidth_bps == 0.0 {
            // Inner links default to a 64 B/cy-style per-core path that
            // halves per level down the hierarchy.
            level.link_bandwidth_bps = 64.0 * clock / (1 << i) as f64;
            level.link_latency_s = (12 << i) as f64 / clock;
        }
    }
    let cores = cores.unwrap_or(8);
    let cfg = HierarchyConfig {
        name: "custom".to_string(),
        num_cores: cores,
        cores_per_domain: domain.unwrap_or(cores.max(1)),
        levels,
        replacement: Replacement::Lru,
        prefetch: crate::PrefetchConfig {
            enabled: true,
            l2_distance: 8,
            l1_distance: 2,
            streams: 8,
        },
        timing: TimingParams {
            clock_hz: clock,
            cycles_per_nnz: 1.0,
            domain_bandwidth: mem_bw,
            demand_miss_cost: 100.0e-9 / 8.0,
            l1_refill_cost: 12.0 / clock / 24.0,
        },
        overlap: EcmOverlap::Overlapped,
    };
    cfg.validate().map_err(MachineParseError::Invalid)?;
    Ok(cfg)
}

fn set_once<T>(slot: &mut Option<T>, key: &str, value: T) -> Result<(), MachineParseError> {
    if slot.is_some() {
        return Err(MachineParseError::DuplicateKey(key.to_string()));
    }
    *slot = Some(value);
    Ok(())
}

/// `size,ways,line[,shared][,sector=W]` — scope defaults to private; the
/// caller forces the last level shared.
fn parse_level(field: &str, key: &str, value: &str) -> Result<LevelConfig, MachineParseError> {
    if value.ends_with(',') {
        return Err(MachineParseError::TrailingComma(field.to_string()));
    }
    let parts: Vec<&str> = value.split(',').map(str::trim).collect();
    if parts.len() < 3 {
        return Err(MachineParseError::BadLevel {
            level: key.to_string(),
            detail: format!("expected size,ways,line[,shared][,sector=W], got '{value}'"),
        });
    }
    if parts.iter().any(|p| p.is_empty()) {
        return Err(MachineParseError::TrailingComma(field.to_string()));
    }
    let size = parse_size(key, parts[0])?;
    let ways = parse_usize(key, parts[1])?;
    let line = parse_size(key, parts[2])?;
    let mut level = LevelConfig::private(CacheGeometry::new(size, ways, line), 0.0, 0.0);
    for extra in &parts[3..] {
        if *extra == "shared" {
            level.scope = LevelScope::PerDomain;
        } else if let Some(w) = extra.strip_prefix("sector=") {
            level.sector = SectorPolicy::ways(parse_usize(key, w)?);
        } else {
            return Err(MachineParseError::BadLevel {
                level: key.to_string(),
                detail: format!("unknown level option '{extra}' (expected shared or sector=W)"),
            });
        }
    }
    Ok(level)
}

fn parse_usize(field: &str, value: &str) -> Result<usize, MachineParseError> {
    value.parse().map_err(|_| MachineParseError::BadNumber {
        field: field.to_string(),
        value: value.to_string(),
    })
}

fn parse_count(field: &str, value: &str) -> Result<usize, MachineParseError> {
    parse_usize(field, value)
}

/// Binary-suffixed byte size: `64`, `32k`, `1m`, `2g`.
fn parse_size(field: &str, value: &str) -> Result<usize, MachineParseError> {
    let (digits, mult) = match value.as_bytes().last() {
        Some(b'k') | Some(b'K') => (&value[..value.len() - 1], 1usize << 10),
        Some(b'm') | Some(b'M') => (&value[..value.len() - 1], 1usize << 20),
        Some(b'g') | Some(b'G') => (&value[..value.len() - 1], 1usize << 30),
        _ => (value, 1usize),
    };
    let bad = || MachineParseError::BadNumber {
        field: field.to_string(),
        value: value.to_string(),
    };
    let n: usize = digits.parse().map_err(|_| bad())?;
    n.checked_mul(mult).ok_or_else(bad)
}

/// Decimal-suffixed rate (bytes/s or Hz): `50g` = 50e9.
fn parse_rate(field: &str, value: &str) -> Result<f64, MachineParseError> {
    let (digits, mult) = match value.as_bytes().last() {
        Some(b'k') | Some(b'K') => (&value[..value.len() - 1], 1.0e3),
        Some(b'm') | Some(b'M') => (&value[..value.len() - 1], 1.0e6),
        Some(b'g') | Some(b'G') => (&value[..value.len() - 1], 1.0e9),
        _ => (value, 1.0),
    };
    let bad = || MachineParseError::BadNumber {
        field: field.to_string(),
        value: value.to_string(),
    };
    let rate = digits.parse::<f64>().map_err(|_| bad())? * mult;
    if !(rate.is_finite() && rate > 0.0) {
        return Err(bad());
    }
    Ok(rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse() {
        assert_eq!(MachineSpec::parse("a64fx"), Ok(MachineSpec::A64fx));
        assert_eq!(MachineSpec::parse(" A64FX "), Ok(MachineSpec::A64fx));
        assert_eq!(
            MachineSpec::parse("generic-x86"),
            Ok(MachineSpec::GenericX86)
        );
        assert_eq!(MachineSpec::parse("x86"), Ok(MachineSpec::GenericX86));
        assert!(MachineSpec::parse("a64fx").unwrap().is_default());
        assert!(!MachineSpec::parse("x86").unwrap().is_default());
    }

    #[test]
    fn unknown_machine_is_pointed() {
        let err = MachineSpec::parse("sparc").unwrap_err();
        assert_eq!(err, MachineParseError::UnknownMachine("sparc".into()));
        assert!(err.to_string().contains("a64fx, generic-x86 or custom:"));
        assert!(matches!(
            MachineSpec::parse("  "),
            Err(MachineParseError::Empty)
        ));
    }

    #[test]
    fn custom_roundtrip() {
        let spec = MachineSpec::parse(
            "custom:cores=4;domain=4;l1=32k,8,64;l2=1m,16,64;l3=16m,16,64;mem=40g",
        )
        .unwrap();
        let h = spec.hierarchy(1);
        assert_eq!(h.num_levels(), 3);
        assert_eq!(h.num_cores, 4);
        assert_eq!(h.level(2).scope, LevelScope::PerDomain);
        assert_eq!(h.level(1).scope, LevelScope::PerCore);
        assert_eq!(h.level(2).link_bandwidth_bps, 40.0e9);
        assert_eq!(h.line_bytes(), 64);
        h.validate().unwrap();
    }

    #[test]
    fn custom_sector_and_shared_options() {
        let spec =
            MachineSpec::parse("custom:cores=2;l1=4k,4,256;l2=64k,16,256,shared,sector=5").unwrap();
        let h = spec.hierarchy(1);
        assert_eq!(h.level(1).sector, SectorPolicy::ways(5));
        assert_eq!(h.level(1).scope, LevelScope::PerDomain);
    }

    #[test]
    fn trailing_comma_rejected() {
        let err = MachineSpec::parse("custom:l1=32k,8,64,;l2=1m,16,64").unwrap_err();
        assert!(
            matches!(err, MachineParseError::TrailingComma(_)),
            "{err:?}"
        );
        assert!(err.to_string().contains("trailing comma"));
        // An interior empty slot is the same mistake.
        let err = MachineSpec::parse("custom:l1=32k,,64;l2=1m,16,64").unwrap_err();
        assert!(
            matches!(err, MachineParseError::TrailingComma(_)),
            "{err:?}"
        );
    }

    #[test]
    fn zero_ways_rejected() {
        let err = MachineSpec::parse("custom:l1=32k,0,64;l2=1m,16,64").unwrap_err();
        assert_eq!(
            err,
            MachineParseError::Invalid(HierarchyError::ZeroWays { level: 0 })
        );
        assert!(err.to_string().contains("zero ways"));
    }

    #[test]
    fn non_power_of_two_line_rejected() {
        let err = MachineSpec::parse("custom:l1=30k,8,96;l2=1m,16,96").unwrap_err();
        assert!(
            matches!(
                err,
                MachineParseError::Invalid(HierarchyError::LineNotPowerOfTwo {
                    level: 0,
                    line_bytes: 96
                })
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    fn structural_errors_are_pointed() {
        assert!(matches!(
            MachineSpec::parse("custom:"),
            Err(MachineParseError::EmptyCustom)
        ));
        assert!(matches!(
            MachineSpec::parse("custom:cores=8"),
            Err(MachineParseError::MissingLevels)
        ));
        assert!(matches!(
            MachineSpec::parse("custom:l1=32k,8,64;l3=1m,16,64"),
            Err(MachineParseError::NonContiguousLevels(_))
        ));
        assert!(matches!(
            MachineSpec::parse("custom:l1=32k,8,64;bogus=3"),
            Err(MachineParseError::UnknownKey(_))
        ));
        assert!(matches!(
            MachineSpec::parse("custom:cores"),
            Err(MachineParseError::MissingValue(_))
        ));
        assert!(matches!(
            MachineSpec::parse("custom:cores=8;cores=9;l1=32k,8,64"),
            Err(MachineParseError::DuplicateKey(_))
        ));
        assert!(matches!(
            MachineSpec::parse("custom:l1=32q,8,64"),
            Err(MachineParseError::BadNumber { .. })
        ));
        assert!(matches!(
            MachineSpec::parse("custom:l1=32k,8"),
            Err(MachineParseError::BadLevel { .. })
        ));
        assert!(matches!(
            MachineSpec::parse("custom:l1=32k,8,64,fancy;l2=1m,16,64"),
            Err(MachineParseError::BadLevel { .. })
        ));
    }

    #[test]
    fn overflowing_sizes_and_rates_are_bad_numbers() {
        // Found by the parser proptests: the `k` suffix multiplied past
        // `usize::MAX` and panicked.
        for spec in [
            "custom:l1=18446744073709551615k,8,64",
            "custom:l1=32k,8,64;mem=1e308g",
        ] {
            assert!(
                matches!(
                    MachineSpec::parse(spec),
                    Err(MachineParseError::BadNumber { .. })
                ),
                "{spec}"
            );
        }
    }

    #[test]
    fn labels_and_scaling() {
        assert_eq!(MachineSpec::A64fx.label(), "a64fx");
        assert_eq!(MachineSpec::GenericX86.label(), "generic-x86");
        let h = MachineSpec::A64fx.hierarchy(16);
        assert_eq!(h.level(1).geometry.size_bytes, 512 << 10);
        let h1 = MachineSpec::A64fx.hierarchy(1);
        assert_eq!(h1, HierarchyConfig::a64fx());
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_size("l1", "64").unwrap(), 64);
        assert_eq!(parse_size("l1", "32k").unwrap(), 32 << 10);
        assert_eq!(parse_size("l1", "1M").unwrap(), 1 << 20);
        assert_eq!(parse_size("l1", "2g").unwrap(), 2 << 30);
        assert_eq!(parse_rate("mem", "50g").unwrap(), 50.0e9);
        assert!(parse_rate("mem", "-3g").is_err());
    }
}
