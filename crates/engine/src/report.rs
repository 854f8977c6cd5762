//! Batch results and their JSON-lines serialization.
//!
//! No serde in the offline build environment, so the (flat, fixed-schema)
//! records are written by hand. Field order is fixed and no timestamps or
//! durations are recorded, keeping the output byte-identical across runs
//! and worker counts.

use crate::job::Job;
use locality_core::{Method, Prediction, SectorSetting};
use memtrace::Array;
use obs::json::escape;
use std::fmt::Write as _;

/// An ECM-style throughput estimate attached to a report (see the
/// `machine` crate's `ecm` module for the composition rules). Times are
/// per measured iteration, on the critical-path core/domain.
#[derive(Clone, Debug, PartialEq)]
pub struct EcmSummary {
    /// Predicted throughput in Gflop/s.
    pub gflops: f64,
    /// Composed total runtime in seconds.
    pub t_total_s: f64,
    /// In-core execution seconds.
    pub t_core_s: f64,
    /// Per-link transfer seconds, innermost first, labelled (`"l1-l2"`,
    /// ..., `"mem"`).
    pub links: Vec<(String, f64)>,
    /// Largest single contribution: `"core"`, a link label, or `"mem"`.
    pub bottleneck: String,
}

/// The outcome of one [`Job`].
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Batch position (output order).
    pub id: usize,
    /// Matrix display name.
    pub matrix: String,
    /// Structural fingerprint of the matrix.
    pub fingerprint: u64,
    /// Matrix shape.
    pub rows: usize,
    /// Matrix shape.
    pub cols: usize,
    /// Nonzero count.
    pub nnz: usize,
    /// Model variant used.
    pub method: Method,
    /// Sector setting evaluated.
    pub setting: SectorSetting,
    /// Modeled SpMV thread count.
    pub threads: usize,
    /// The prediction itself.
    pub prediction: Prediction,
    /// Machine label for non-default machines (`None` on the a64fx
    /// default, keeping legacy report bytes).
    pub machine: Option<String>,
    /// ECM throughput estimate, when the spec asked for one.
    pub ecm: Option<EcmSummary>,
}

/// Whole-batch accounting, emitted as the final JSON line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Matrices resolved from the spec's sources.
    pub matrices: usize,
    /// Jobs run (matrices × methods × settings).
    pub jobs: usize,
    /// Profiles actually computed (distinct cache keys).
    pub profile_computations: u64,
    /// Jobs served from the profile cache.
    pub profile_hits: u64,
}

/// A finished batch: per-job reports in job order, plus cache accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchResult {
    /// One report per job, sorted by job id.
    pub reports: Vec<Report>,
    /// Cache and size accounting.
    pub stats: BatchStats,
}

fn setting_json(setting: SectorSetting) -> String {
    match setting {
        SectorSetting::Off => "\"off\"".to_string(),
        SectorSetting::L2Ways(w) => w.to_string(),
    }
}

impl Report {
    /// One JSON object on one line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(out, "{{\"job\":{},\"matrix\":\"", self.id);
        out.push_str(&escape(&self.matrix));
        let _ = write!(
            out,
            "\",\"fingerprint\":\"{:016x}\",\"rows\":{},\"cols\":{},\"nnz\":{},\
             \"method\":\"{:?}\",\"setting\":{},\"threads\":{},\"l2_misses\":{}",
            self.fingerprint,
            self.rows,
            self.cols,
            self.nnz,
            self.method,
            setting_json(self.setting),
            self.threads,
            self.prediction.l2_misses,
        );
        out.push_str(",\"by_array\":{");
        for (i, (array, label)) in Array::ALL
            .iter()
            .zip(["x", "y", "a", "colidx", "rowptr"])
            .enumerate()
        {
            let _ = write!(
                out,
                "{}\"{label}\":{}",
                if i == 0 { "" } else { "," },
                self.prediction.misses_of(*array)
            );
        }
        out.push('}');
        // Optional fields come last so default (a64fx, no-ECM) reports
        // keep their historical bytes exactly.
        if let Some(machine) = &self.machine {
            out.push_str(",\"machine\":\"");
            out.push_str(&escape(machine));
            out.push('"');
        }
        if let Some(ecm) = &self.ecm {
            let _ = write!(
                out,
                ",\"ecm\":{{\"gflops\":{},\"t_total_s\":{},\"t_core_s\":{},\"links\":{{",
                fmt_f64(ecm.gflops),
                fmt_f64(ecm.t_total_s),
                fmt_f64(ecm.t_core_s),
            );
            for (i, (label, seconds)) in ecm.links.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}\"{label}\":{}",
                    if i == 0 { "" } else { "," },
                    fmt_f64(*seconds)
                );
            }
            let _ = write!(out, "}},\"bottleneck\":\"{}\"}}", ecm.bottleneck);
        }
        out.push('}');
        out
    }
}

/// Deterministic JSON number for an ECM quantity: four significant
/// digits in scientific notation — stable across platforms, precise
/// enough for a model whose inputs are themselves estimates.
fn fmt_f64(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    format!("{v:.3e}")
}

impl BatchStats {
    /// The final summary line of a batch's JSON-lines output.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"summary\":{{\"matrices\":{},\"jobs\":{},\"profile_computations\":{},\
             \"profile_hits\":{}}}}}",
            self.matrices, self.jobs, self.profile_computations, self.profile_hits
        )
    }
}

impl BatchResult {
    /// The full JSON-lines document: one line per job, then the summary.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.reports {
            out.push_str(&r.to_json_line());
            out.push('\n');
        }
        out.push_str(&self.stats.to_json_line());
        out.push('\n');
        out
    }
}

/// Builds a report from a finished job (helper for the engine).
#[allow(clippy::too_many_arguments)]
pub(crate) fn report_for(
    job: &Job,
    name: &str,
    fingerprint: u64,
    shape: (usize, usize, usize),
    threads: usize,
    prediction: Prediction,
    machine: Option<String>,
    ecm: Option<EcmSummary>,
) -> Report {
    Report {
        id: job.id,
        matrix: name.to_string(),
        fingerprint,
        rows: shape.0,
        cols: shape.1,
        nnz: shape.2,
        method: job.method,
        setting: job.setting,
        threads,
        prediction,
        machine,
        ecm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            id: 3,
            matrix: "band \"w\"=2".to_string(),
            fingerprint: 0xDEAD_BEEF,
            rows: 10,
            cols: 11,
            nnz: 12,
            method: Method::A,
            setting: SectorSetting::L2Ways(5),
            threads: 4,
            prediction: Prediction {
                setting: SectorSetting::L2Ways(5),
                l2_misses: 15,
                by_array: [1, 2, 3, 4, 5],
            },
            machine: None,
            ecm: None,
        }
    }

    #[test]
    fn report_json_schema() {
        let line = sample().to_json_line();
        assert_eq!(
            line,
            "{\"job\":3,\"matrix\":\"band \\\"w\\\"=2\",\
             \"fingerprint\":\"00000000deadbeef\",\"rows\":10,\"cols\":11,\"nnz\":12,\
             \"method\":\"A\",\"setting\":5,\"threads\":4,\"l2_misses\":15,\
             \"by_array\":{\"x\":1,\"y\":2,\"a\":3,\"colidx\":4,\"rowptr\":5}}"
        );
    }

    #[test]
    fn off_setting_is_a_string() {
        let mut r = sample();
        r.setting = SectorSetting::Off;
        assert!(r.to_json_line().contains("\"setting\":\"off\""));
    }

    #[test]
    fn machine_and_ecm_fields_append_after_by_array() {
        let mut r = sample();
        r.machine = Some("generic-x86".to_string());
        r.ecm = Some(EcmSummary {
            gflops: 12.5,
            t_total_s: 1.6e-4,
            t_core_s: 4.0e-5,
            links: vec![("l1-l2".to_string(), 2.0e-5), ("mem".to_string(), 1.0e-4)],
            bottleneck: "mem".to_string(),
        });
        let line = r.to_json_line();
        assert!(
            line.contains("\"rowptr\":5},\"machine\":\"generic-x86\",\"ecm\":{"),
            "{line}"
        );
        assert!(
            line.ends_with(
                "\"ecm\":{\"gflops\":1.250e1,\"t_total_s\":1.600e-4,\"t_core_s\":4.000e-5,\
                 \"links\":{\"l1-l2\":2.000e-5,\"mem\":1.000e-4},\"bottleneck\":\"mem\"}}"
            ),
            "{line}"
        );
        // Default reports keep the legacy shape: no machine, no ecm.
        let legacy = sample().to_json_line();
        assert!(!legacy.contains("machine"));
        assert!(!legacy.contains("ecm"));
    }

    #[test]
    fn ecm_floats_are_deterministic_json_numbers() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(12.5), "1.250e1");
        assert_eq!(fmt_f64(1.0 / 3.0e9), "3.333e-10");
    }

    #[test]
    fn summary_line() {
        let stats = BatchStats {
            matrices: 20,
            jobs: 140,
            profile_computations: 20,
            profile_hits: 120,
        };
        assert_eq!(
            stats.to_json_line(),
            "{\"summary\":{\"matrices\":20,\"jobs\":140,\
             \"profile_computations\":20,\"profile_hits\":120}}"
        );
    }
}
