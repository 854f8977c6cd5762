//! Structured divergence records and per-run accounting.
//!
//! Every invariant violation becomes one JSON line carrying enough state
//! to reproduce it offline: the corpus coordinates (harness seed, case
//! index, generator parameters), the matrix fingerprint, the machine
//! setting under test, and the expected/actual pair. Hand-written JSON,
//! same as `locality_engine::report` — the schema is flat and fixed, and
//! the offline build has no serde.

use locality_core::SectorSetting;
use obs::json::escape;
use std::fmt::Write as _;

/// Which cross-implementation invariant a record refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// Streaming profile vs materialized oracle vs marker-sweep profile:
    /// predictions must be byte-identical.
    PipelineAgreement,
    /// Partition-1 misses non-increasing / partition-0 misses
    /// non-decreasing as partition 1 gains ways.
    Monotonicity,
    /// `by_array` components must sum to `l2_misses` in every prediction.
    TrafficConservation,
    /// Method B within its documented envelope of Method A.
    MethodEnvelope,
    /// Model-predicted L2 misses vs simulator PMU counters within the
    /// per-class tolerance.
    ModelVsSim,
    /// PMU self-consistency: refill split, per-core/per-domain sums.
    PmuIdentity,
    /// SELL-C-σ with C=1, σ=1 (no padding, natural order) must predict
    /// within the padding-only tolerance of the CSR view of the same
    /// matrix.
    CrossFormat,
    /// The k=1 SpMM view of a storage workload must predict
    /// byte-identically to the workload itself, in either RHS layout, at
    /// every thread count.
    ScenarioIdentity,
    /// The CG-iteration trace must be exactly the inner SpMV trace plus
    /// `CG_SWEEP_REFS_PER_ROW` references per row — counted by the
    /// cursor's own accounting and by a full drain.
    ScenarioConservation,
    /// Adding right-hand sides must never reduce predicted misses, and
    /// must leave the matrix-stream (compulsory) misses unchanged.
    ScenarioAmplification,
    /// The a64fx preset projected through the `machine` hierarchy must
    /// reproduce the frozen pre-refactor geometry constants and predict
    /// byte-identically to the legacy constructor.
    MachineIdentity,
}

impl Check {
    /// Stable identifier used in the JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Check::PipelineAgreement => "pipeline_agreement",
            Check::Monotonicity => "monotonicity",
            Check::TrafficConservation => "traffic_conservation",
            Check::MethodEnvelope => "method_envelope",
            Check::ModelVsSim => "model_vs_sim",
            Check::PmuIdentity => "pmu_identity",
            Check::CrossFormat => "cross_format",
            Check::ScenarioIdentity => "scenario_identity",
            Check::ScenarioConservation => "scenario_conservation",
            Check::ScenarioAmplification => "scenario_amplification",
            Check::MachineIdentity => "machine_identity",
        }
    }
}

/// One invariant violation, with its reproduction coordinates.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Invariant that failed.
    pub check: Check,
    /// Corpus case name (`c3a-banded-104`).
    pub matrix: String,
    /// Generator family.
    pub family: String,
    /// Working-set class label (`"1"`, `"2"`, `"3a"`, `"3b"`).
    pub class: String,
    /// Structural fingerprint of the matrix.
    pub fingerprint: u64,
    /// Harness seed the corpus was drawn from.
    pub seed: u64,
    /// Corpus case index (with `seed`, reproduces the matrix).
    pub index: usize,
    /// Sector setting under test, if the check is per-setting.
    pub setting: Option<SectorSetting>,
    /// Thread count under test.
    pub threads: usize,
    /// Expected value (reference side of the comparison).
    pub expected: f64,
    /// Actual value (implementation under test).
    pub actual: f64,
    /// Tolerance the comparison was allowed (0 for exact checks).
    pub tolerance: f64,
    /// Human-oriented context (which arrays, which pipeline, ...).
    pub detail: String,
}

fn setting_json(setting: Option<SectorSetting>) -> String {
    match setting {
        None => "null".to_string(),
        Some(SectorSetting::Off) => "\"off\"".to_string(),
        Some(SectorSetting::L2Ways(w)) => w.to_string(),
    }
}

/// Formats an f64 so integers stay integral in the JSON (`15` not `15.0`
/// stays readable next to the integer counters it compares against).
fn num_json(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl Divergence {
    /// One JSON object on one line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(out, "{{\"check\":\"{}\",\"matrix\":\"", self.check.name());
        out.push_str(&escape(&self.matrix));
        out.push_str("\",\"family\":\"");
        out.push_str(&escape(&self.family));
        let _ = write!(
            out,
            "\",\"class\":\"{}\",\"fingerprint\":\"{:016x}\",\"seed\":{},\"index\":{},\
             \"setting\":{},\"threads\":{},\"expected\":{},\"actual\":{},\"tolerance\":{}",
            self.class,
            self.fingerprint,
            self.seed,
            self.index,
            setting_json(self.setting),
            self.threads,
            num_json(self.expected),
            num_json(self.actual),
            num_json(self.tolerance),
        );
        out.push_str(",\"detail\":\"");
        out.push_str(&escape(&self.detail));
        out.push_str("\"}");
        out
    }
}

/// Wall-clock nanoseconds per harness stage, summed over cases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Matrix generation.
    pub build: u64,
    /// Streaming profile computation.
    pub profile: u64,
    /// Materialized oracle computation.
    pub oracle: u64,
    /// Marker-stack sweep computation.
    pub sweep: u64,
    /// Cache simulator runs.
    pub simulate: u64,
    /// Invariant evaluation.
    pub check: u64,
}

impl StageNanos {
    /// Element-wise accumulation.
    pub fn add(&mut self, other: &StageNanos) {
        self.build += other.build;
        self.profile += other.profile;
        self.oracle += other.oracle;
        self.sweep += other.sweep;
        self.simulate += other.simulate;
        self.check += other.check;
    }
}

/// Whole-run accounting, emitted as the final JSON line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Corpus size.
    pub matrices: usize,
    /// Cases per class, in class order 1, 2, 3a, 3b.
    pub by_class: [usize; 4],
    /// Individual invariant evaluations performed.
    pub checks_run: u64,
    /// Invariant violations recorded.
    pub divergences: usize,
    /// Per-stage wall-clock totals.
    pub nanos: StageNanos,
}

impl RunStats {
    /// The final summary line of a run's JSON-lines output.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"summary\":{{\"matrices\":{},\"by_class\":{{\"1\":{},\"2\":{},\"3a\":{},\
             \"3b\":{}}},\"checks_run\":{},\"divergences\":{},\"stage_ns\":{{\"build\":{},\
             \"profile\":{},\"oracle\":{},\"sweep\":{},\"simulate\":{},\"check\":{}}}}}}}",
            self.matrices,
            self.by_class[0],
            self.by_class[1],
            self.by_class[2],
            self.by_class[3],
            self.checks_run,
            self.divergences,
            self.nanos.build,
            self.nanos.profile,
            self.nanos.oracle,
            self.nanos.sweep,
            self.nanos.simulate,
            self.nanos.check,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Divergence {
        Divergence {
            check: Check::ModelVsSim,
            matrix: "c2-banded-17".to_string(),
            family: "banded".to_string(),
            class: "2".to_string(),
            fingerprint: 0xDEAD_BEEF,
            seed: 2023,
            index: 17,
            setting: Some(SectorSetting::L2Ways(5)),
            threads: 8,
            expected: 1500.0,
            actual: 1701.0,
            tolerance: 120.0,
            detail: "method A vs sim \"l2\"".to_string(),
        }
    }

    #[test]
    fn divergence_json_schema() {
        assert_eq!(
            sample().to_json_line(),
            "{\"check\":\"model_vs_sim\",\"matrix\":\"c2-banded-17\",\
             \"family\":\"banded\",\"class\":\"2\",\"fingerprint\":\"00000000deadbeef\",\
             \"seed\":2023,\"index\":17,\"setting\":5,\"threads\":8,\"expected\":1500,\
             \"actual\":1701,\"tolerance\":120,\"detail\":\"method A vs sim \\\"l2\\\"\"}"
        );
    }

    #[test]
    fn off_and_absent_settings() {
        let mut d = sample();
        d.setting = Some(SectorSetting::Off);
        assert!(d.to_json_line().contains("\"setting\":\"off\""));
        d.setting = None;
        assert!(d.to_json_line().contains("\"setting\":null"));
    }

    #[test]
    fn fractional_tolerances_keep_their_fraction() {
        let mut d = sample();
        d.tolerance = 0.08;
        assert!(d.to_json_line().contains("\"tolerance\":0.08"));
    }

    #[test]
    fn summary_line_shape() {
        let stats = RunStats {
            matrices: 8,
            by_class: [2, 2, 2, 2],
            checks_run: 96,
            divergences: 0,
            nanos: StageNanos {
                build: 1,
                profile: 2,
                oracle: 3,
                sweep: 4,
                simulate: 5,
                check: 6,
            },
        };
        let line = stats.to_json_line();
        assert!(line.starts_with("{\"summary\":{\"matrices\":8,"));
        assert!(line.contains("\"by_class\":{\"1\":2,\"2\":2,\"3a\":2,\"3b\":2}"));
        assert!(line.contains("\"divergences\":0"));
        assert!(line.contains(
            "\"stage_ns\":{\"build\":1,\"profile\":2,\"oracle\":3,\
             \"sweep\":4,\"simulate\":5,\"check\":6}"
        ));
    }

    #[test]
    fn stage_nanos_accumulate() {
        let mut a = StageNanos {
            build: 1,
            profile: 1,
            oracle: 1,
            sweep: 1,
            simulate: 1,
            check: 1,
        };
        a.add(&a.clone());
        assert_eq!(a.build, 2);
        assert_eq!(a.check, 2);
    }
}
