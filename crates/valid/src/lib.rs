//! Differential validation harness for the locality model.
//!
//! The repo implements the same mathematics several times over — a
//! streaming (marker-stack) profile, a materialized exact oracle, two
//! prediction methods, and a cycle-free cache simulator. This crate
//! cross-checks them against each other over a stratified random corpus
//! covering the paper's §3.1 working-set classes, and emits every
//! violation as a structured JSON-lines divergence record that carries
//! its own reproduction recipe (harness seed + case index + generator
//! parameters). The model-side invariants run per storage format — the
//! CSR view and the planned SELL-C-σ views of each matrix — and a
//! cross-format invariant pins the degenerate SELL (C=1, σ=1) view to
//! the CSR predictions within a padding-only tolerance. Three scenario
//! invariants tie the multi-RHS (SpMM) and CG-iteration views back to
//! the plain SpMV predictions: the k=1 identity, the CG trace
//! conservation, and the k-fold RHS amplification.
//!
//! The harness is both a bug-finder and a regression gate: `scripts/ci.sh`
//! runs the smoke tier (`spmv-locality validate --smoke`) on every build.
//!
//! * [`corpus`] — stratified corpus generation (classes 1, 2, 3a, 3b);
//! * [`checks`] — the ten invariants and the per-case driver;
//! * [`record`] — divergence records and run accounting;
//! * [`run_validation`] — parallel orchestration over the engine's
//!   work-stealing pool.

pub mod checks;
pub mod corpus;
pub mod record;

pub use checks::{CaseResult, CheckPlan, Tolerance};
pub use corpus::{stratified, CaseSpec};
pub use record::{Check, Divergence, RunStats, StageNanos};

use locality_core::ReorderSpec;
use locality_engine::pool;
use machine::MachineSpec;

/// Knobs for one validation run.
#[derive(Clone, Debug)]
pub struct ValidationConfig {
    /// Corpus size (split evenly over the four classes).
    pub matrices: usize,
    /// Corpus seed; the same seed always yields the same corpus and the
    /// same verdict.
    pub seed: u64,
    /// Worker threads (0 = one per host core).
    pub workers: usize,
    /// Run the reduced smoke plan instead of the full sweep.
    pub smoke: bool,
    /// Override for the SELL `(C, σ)` views the model-side invariants
    /// re-run on: `None` keeps the plan default, `Some(vec![])` skips
    /// the SELL reruns (the C=1, σ=1 cross-format pass always runs).
    pub sell_formats: Option<Vec<(usize, usize)>>,
    /// Row reordering applied to every corpus matrix before checking —
    /// validates the invariants on reordered workloads.
    pub reorder: ReorderSpec,
    /// The machine the invariants run against. The default a64fx preset
    /// keeps the calibrated bands and the simulator cross-checks; other
    /// machines run the model-only plan (see `CheckPlan::with_machine`).
    pub machine: MachineSpec,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            matrices: 200,
            seed: 2023,
            workers: 0,
            smoke: false,
            sell_formats: None,
            reorder: ReorderSpec::None,
            machine: MachineSpec::A64fx,
        }
    }
}

/// A finished validation run: all divergences plus run accounting.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// Every invariant violation, in corpus order.
    pub divergences: Vec<Divergence>,
    /// Run accounting (corpus composition, checks run, stage timings).
    pub stats: RunStats,
}

impl ValidationReport {
    /// A run passes iff no invariant was violated.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }

    /// The full JSON-lines document: one line per divergence, then the
    /// summary line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for d in &self.divergences {
            out.push_str(&d.to_json_line());
            out.push('\n');
        }
        out.push_str(&self.stats.to_json_line());
        out.push('\n');
        out
    }
}

/// Runs the whole harness: generates the stratified corpus, fans the
/// cases out over the work-stealing pool (largest first), and folds the
/// per-case results into one report in corpus order. The verdict,
/// divergence records, and counters are deterministic for a fixed
/// `(matrices, seed, smoke)` triple regardless of `workers`; only the
/// `stage_ns` wall-clock metrics vary run to run.
pub fn run_validation(config: &ValidationConfig) -> ValidationReport {
    let specs = corpus::stratified(config.matrices, config.seed);
    let mut plan = CheckPlan::new(config.smoke).with_machine(&config.machine);
    if let Some(formats) = &config.sell_formats {
        plan.sell_formats = formats.clone();
    }
    plan.reorder = config.reorder;
    let seed = config.seed;

    // The run-level machine-identity pass: pins the a64fx preset's
    // hierarchy projection to the frozen pre-refactor constants and
    // prediction bytes before any per-case work runs.
    let (mut divergences, identity_checks) = checks::machine_identity(&plan, seed);

    // Deal the cases longest first (by `n·p`, ties in corpus order), so
    // no worker is left alone with a large case at the tail; the results
    // go back into corpus order below.
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(specs[i].n * specs[i].p));
    let dealt = pool::run_indexed(config.workers, &order, |_, &i| {
        checks::run_case(&specs[i], &plan, seed)
    });
    let mut results: Vec<(usize, CaseResult)> = order.into_iter().zip(dealt).collect();
    results.sort_unstable_by_key(|&(i, _)| i);

    let mut stats = RunStats {
        matrices: specs.len(),
        checks_run: identity_checks,
        ..RunStats::default()
    };
    for (_, r) in results {
        stats.by_class[r.class_index] += 1;
        stats.checks_run += r.checks_run;
        stats.nanos.add(&r.nanos);
        divergences.extend(r.divergences);
    }
    stats.divergences = divergences.len();
    ValidationReport { divergences, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The a64fx smoke corpus (4 matrices, seed 2023) at two workers.
    fn a64fx_smoke_config() -> ValidationConfig {
        ValidationConfig {
            matrices: 4,
            seed: 2023,
            workers: 2,
            smoke: true,
            ..ValidationConfig::default()
        }
    }

    /// [`a64fx_smoke_config`]'s report, run once for every test that
    /// reads it.
    fn a64fx_smoke() -> &'static ValidationReport {
        static REPORT: OnceLock<ValidationReport> = OnceLock::new();
        REPORT.get_or_init(|| run_validation(&a64fx_smoke_config()))
    }

    /// The tier-1 gate on the harness itself: a small smoke corpus must
    /// come back clean, cover every stratum, and be worker-independent:
    /// with the wall-clock `stage_ns` stripped, one worker and two
    /// workers (which deal the cases longest first) give the same bytes.
    #[test]
    fn smoke_corpus_validates_cleanly() {
        let report = a64fx_smoke();
        let stripped = |mut report: ValidationReport| {
            report.stats.nanos = StageNanos::default();
            report.to_json_lines()
        };
        let serial = run_validation(&ValidationConfig {
            workers: 1,
            ..a64fx_smoke_config()
        });
        assert_eq!(stripped(serial), stripped(report.clone()));
        assert!(
            report.passed(),
            "divergences on the smoke corpus:\n{}",
            report.to_json_lines()
        );
        assert_eq!(report.stats.by_class, [1, 1, 1, 1]);
        assert!(report.stats.checks_run > 80);
        let line = report.to_json_lines();
        assert!(line.contains("\"divergences\":0"));
    }

    /// The model-only pass for a non-a64fx hierarchy: same corpus, same
    /// model invariants, no simulator cross-checks, and a clean verdict.
    #[test]
    fn generic_x86_smoke_runs_model_only() {
        let x86 = ValidationConfig {
            machine: MachineSpec::GenericX86,
            ..a64fx_smoke_config()
        };
        let report = run_validation(&x86);
        assert!(
            report.passed(),
            "divergences on the generic-x86 smoke corpus:\n{}",
            report.to_json_lines()
        );
        // No simulator cross-checks and no machine-identity pass: strictly
        // fewer comparisons than the a64fx run of the same corpus.
        let reference = a64fx_smoke();
        assert!(
            report.stats.checks_run < reference.stats.checks_run,
            "{} vs {}",
            report.stats.checks_run,
            reference.stats.checks_run
        );
    }

    /// The machine-identity pass runs (and passes) on the default plan,
    /// and is skipped entirely for non-a64fx machines.
    #[test]
    fn machine_identity_pins_the_a64fx_preset() {
        let plan = checks::CheckPlan::new(true);
        let (divergences, checks_run) = checks::machine_identity(&plan, 2023);
        assert!(divergences.is_empty(), "{divergences:#?}");
        assert!(checks_run >= 10, "{checks_run}");

        let x86 = checks::CheckPlan::new(true).with_machine(&MachineSpec::GenericX86);
        let (divergences, checks_run) = checks::machine_identity(&x86, 2023);
        assert!(divergences.is_empty() && checks_run == 0);
        assert!(
            !x86.machine_spec.is_default(),
            "non-a64fx machines run model-only"
        );
    }

    #[test]
    fn report_serializes_divergences_before_summary() {
        let report = ValidationReport {
            divergences: vec![Divergence {
                check: Check::Monotonicity,
                matrix: "m".into(),
                family: "random".into(),
                class: "2".into(),
                fingerprint: 1,
                seed: 7,
                index: 0,
                setting: None,
                threads: 1,
                expected: 1.0,
                actual: 2.0,
                tolerance: 0.0,
                detail: "d".into(),
            }],
            stats: RunStats::default(),
        };
        assert!(!report.passed());
        let doc = report.to_json_lines();
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"check\":\"monotonicity\""));
        assert!(lines[1].starts_with("{\"summary\""));
    }
}
