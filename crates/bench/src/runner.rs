//! Shared experiment plumbing: machine setup, measurement, host-side
//! parallelism and argument parsing for the `exp_*` binaries.

use a64fx::{estimate, simulate_spmv, MachineConfig, Performance, PrefetchConfig, SimResult};
use locality_core::SectorSetting;
use memtrace::ArraySet;
use sparsemat::CsrMatrix;

/// One point of the sector-cache sweep: `l2_ways == 0` means the sector
/// cache is disabled entirely (the baseline), otherwise `l2_ways` L2 ways
/// (and optionally `l1_ways` L1 ways) are reserved for the non-temporal
/// matrix data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepPoint {
    /// L2 ways for sector 1 (0 = sector cache off).
    pub l2_ways: usize,
    /// L1 ways for sector 1 (0 = L1 sector cache off).
    pub l1_ways: usize,
}

impl SweepPoint {
    /// The disabled-sector-cache baseline.
    pub const BASELINE: SweepPoint = SweepPoint {
        l2_ways: 0,
        l1_ways: 0,
    };

    /// Label like `base`, `L2=5`, `L2=4+L1=2`.
    pub fn label(&self) -> String {
        match (self.l2_ways, self.l1_ways) {
            (0, _) => "base".to_string(),
            (w, 0) => format!("L2={w}"),
            (w, l) => format!("L2={w}+L1={l}"),
        }
    }
}

/// The model's sweep type maps losslessly onto the simulator's: the model
/// has no L1-sector dimension, so `l1_ways` is always 0.
impl From<SectorSetting> for SweepPoint {
    fn from(setting: SectorSetting) -> SweepPoint {
        match setting {
            SectorSetting::Off => SweepPoint::BASELINE,
            SectorSetting::L2Ways(w) => SweepPoint {
                l2_ways: w,
                l1_ways: 0,
            },
        }
    }
}

/// The reverse direction is partial: a sweep point that reserves L1 ways
/// has no [`SectorSetting`] equivalent (the model only partitions L2) and
/// is rejected rather than silently truncated.
impl TryFrom<SweepPoint> for SectorSetting {
    type Error = String;

    fn try_from(point: SweepPoint) -> Result<SectorSetting, String> {
        if point.l1_ways != 0 && point.l2_ways != 0 {
            return Err(format!(
                "sweep point {} reserves L1 ways, which the locality model cannot express",
                point.label()
            ));
        }
        Ok(match point.l2_ways {
            0 => SectorSetting::Off,
            w => SectorSetting::L2Ways(w),
        })
    }
}

/// Builds the machine configuration for a sweep point.
pub fn machine_for(scale: usize, threads: usize, point: SweepPoint) -> MachineConfig {
    let mut cfg = if scale <= 1 {
        MachineConfig::a64fx()
    } else {
        MachineConfig::a64fx_scaled(scale)
    };
    cfg = cfg.with_cores(threads.max(1));
    if point.l2_ways > 0 {
        cfg = cfg.with_l2_sector(point.l2_ways);
    }
    if point.l1_ways > 0 {
        cfg = cfg.with_l1_sector(point.l1_ways);
    }
    cfg
}

/// Simulates one measured SpMV iteration (after one warm-up) at a sweep
/// point and estimates its performance.
pub fn measure(
    matrix: &CsrMatrix,
    scale: usize,
    threads: usize,
    point: SweepPoint,
) -> (SimResult, Performance) {
    let cfg = machine_for(scale, threads, point);
    let sector1 = if point.l2_ways > 0 || point.l1_ways > 0 {
        ArraySet::MATRIX_STREAM
    } else {
        ArraySet::EMPTY
    };
    let sim = simulate_spmv(matrix, &cfg, sector1, threads, 1);
    let perf = estimate(&cfg, matrix.nnz(), &sim);
    (sim, perf)
}

/// Like [`measure`], but with the prefetcher configured explicitly (for
/// the §4.3 prefetch-distance ablation).
pub fn measure_with_prefetch(
    matrix: &CsrMatrix,
    scale: usize,
    threads: usize,
    point: SweepPoint,
    prefetch: PrefetchConfig,
) -> (SimResult, Performance) {
    let cfg = machine_for(scale, threads, point).with_prefetch(prefetch);
    let sector1 = if point.l2_ways > 0 || point.l1_ways > 0 {
        ArraySet::MATRIX_STREAM
    } else {
        ArraySet::EMPTY
    };
    let sim = simulate_spmv(matrix, &cfg, sector1, threads, 1);
    let perf = estimate(&cfg, matrix.nnz(), &sim);
    (sim, perf)
}

/// Common command-line arguments of the experiment binaries.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Number of corpus matrices (`--count`, default per experiment).
    pub count: usize,
    /// Machine scale divisor (`--scale`, default 16; `--full` sets 1).
    pub scale: usize,
    /// SpMV threads (`--threads`, default 48).
    pub threads: usize,
    /// Corpus seed (`--seed`, default 2023).
    pub seed: u64,
}

impl ExpArgs {
    /// Parses `std::env::args` with the given default corpus count.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse(default_count: usize) -> ExpArgs {
        Self::parse_from(std::env::args().skip(1), default_count)
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>, default_count: usize) -> ExpArgs {
        let mut out = ExpArgs {
            count: default_count,
            scale: 16,
            threads: 48,
            seed: 2023,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut take = |what: &str| -> u64 {
                it.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("expected a number after {what}"))
            };
            match arg.as_str() {
                "--count" => out.count = take("--count") as usize,
                "--scale" => out.scale = take("--scale") as usize,
                "--threads" => out.threads = take("--threads") as usize,
                "--seed" => out.seed = take("--seed"),
                "--full" => out.scale = 1,
                other => panic!(
                    "unknown argument '{other}' (expected --count/--scale/--threads/--seed/--full)"
                ),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_labels() {
        assert_eq!(SweepPoint::BASELINE.label(), "base");
        assert_eq!(
            SweepPoint {
                l2_ways: 5,
                l1_ways: 0
            }
            .label(),
            "L2=5"
        );
        assert_eq!(
            SweepPoint {
                l2_ways: 4,
                l1_ways: 2
            }
            .label(),
            "L2=4+L1=2"
        );
    }

    #[test]
    fn setting_conversions_round_trip() {
        for s in SectorSetting::paper_sweep() {
            let p = SweepPoint::from(s);
            assert_eq!(p.l1_ways, 0);
            assert_eq!(SectorSetting::try_from(p), Ok(s), "{s:?}");
        }
        assert_eq!(SweepPoint::from(SectorSetting::Off), SweepPoint::BASELINE);
        assert!(SectorSetting::try_from(SweepPoint {
            l2_ways: 4,
            l1_ways: 2
        })
        .is_err());
    }

    #[test]
    fn machine_for_applies_sectors() {
        let cfg = machine_for(
            16,
            48,
            SweepPoint {
                l2_ways: 5,
                l1_ways: 1,
            },
        );
        assert_eq!(cfg.l2_sector.sector1_ways, 5);
        assert_eq!(cfg.l1_sector.sector1_ways, 1);
        assert_eq!(cfg.num_cores, 48);
        let base = machine_for(16, 1, SweepPoint::BASELINE);
        assert!(!base.l2_sector.enabled());
    }

    #[test]
    fn args_defaults_and_flags() {
        let a = ExpArgs::parse_from(Vec::<String>::new(), 490);
        assert_eq!(a.count, 490);
        assert_eq!(a.scale, 16);
        assert_eq!(a.threads, 48);
        let b = ExpArgs::parse_from(
            ["--count", "10", "--threads", "4", "--seed", "7"]
                .iter()
                .map(|s| s.to_string()),
            490,
        );
        assert_eq!(b.count, 10);
        assert_eq!(b.threads, 4);
        assert_eq!(b.seed, 7);
        let c = ExpArgs::parse_from(["--full".to_string()], 1);
        assert_eq!(c.scale, 1);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn bad_args_rejected() {
        ExpArgs::parse_from(["--bogus".to_string()], 1);
    }
}
