//! The cross-implementation invariants and their per-case evaluation.
//!
//! One case = one corpus matrix pushed through every prediction path and
//! the cache simulator at a sweep of sector settings and thread counts,
//! with six invariants checked along the way:
//!
//! 1. **Pipeline agreement** — the streaming profile (marker stacks for
//!    method (A), an exact stack for method (B)) and the materialized
//!    exact oracle must produce byte-identical predictions at the sweep's
//!    settings (they implement the same mathematics two ways).
//! 2. **Monotonicity** — giving the matrix-stream partition more ways
//!    must never increase its misses, and the complementary partition's
//!    misses must never decrease (LRU miss curves are monotone in
//!    capacity).
//! 3. **Traffic conservation** — per-array misses sum to the total in
//!    every prediction.
//! 4. **Method envelope** — method (B) stays within its documented band
//!    of method (A).
//! 5. **Model vs simulator** — method (A) predictions track the
//!    simulator's PMU-style `l2_misses()` within per-class tolerances
//!    (the machine is configured LRU + no prefetch, where the model's
//!    only blind spot is set-conflict noise).
//! 6. **PMU identity** — each simulation's counter snapshot is
//!    self-consistent: refills split into demand + prefetch, per-core
//!    and per-domain attributions sum to the aggregates, and the §4.4
//!    traffic formula holds.
//!
//! The model-side invariants (1–4) additionally re-run on every SELL-C-σ
//! view in [`CheckPlan::sell_formats`] — the pipelines are format-generic,
//! so the same mathematics must agree for chunked workloads too (the
//! simulator is CSR-only, so 5–6 stay CSR). A seventh, cross-format
//! invariant ties the formats together:
//!
//! 7. **Cross-format** — SELL with C=1, σ=1 stores exactly the CSR
//!    nonzeros in the CSR order (no padding, no sorting), so its
//!    predictions must match the CSR view within a padding-only
//!    tolerance (the residual difference is the metadata stream: one
//!    descriptor per row instead of `rows+1` row pointers).
//!
//! Three further invariants tie the scenario views (multi-RHS SpMM and
//! the CG iteration) back to the plain SpMV predictions:
//!
//! 8. **Scenario identity** — the k=1 SpMM view of any storage workload
//!    predicts byte-identically to the workload itself, in either RHS
//!    layout, at every thread count.
//! 9. **Scenario conservation** — the CG-iteration trace is exactly the
//!    inner SpMV trace plus `CG_SWEEP_REFS_PER_ROW` references per row
//!    (the cursor's accounting and a full drain must both land on the
//!    formula), and the CG view additionally re-runs the model-side
//!    invariants 1–3 (the envelope check is skipped: method (B)
//!    accounts the vector sweeps analytically, so the documented band
//!    applies to the SpMV inside the iteration, not the iteration).
//! 10. **Scenario amplification** — adding right-hand sides never
//!     reduces the predicted misses, in total or for the matrix stream
//!     alone, checked with k=16 against the base view.
//!
//! Tolerances live in [`CheckPlan`] and are documented in
//! `EXPERIMENTS.md` (divergence triage).

use crate::corpus::{build, CaseSpec, SCALE};
use crate::record::{Check, Divergence, StageNanos};
use a64fx::config::{MachineConfig, PrefetchConfig};
use a64fx::sim_spmv::simulate_spmv;
use a64fx::Replacement;
use locality_core::{
    classify_for, CgWorkload, LocalityProfile, MatrixClass, Method, Prediction, ReorderSpec,
    RhsLayout, SectorSetting, SpmmWorkload, SpmvWorkload, Workload,
};
use machine::{HierarchyConfig, MachineSpec};
use memtrace::{Array, ArraySet, TraceCursor, CG_SWEEP_REFS_PER_ROW};
use sparsemat::SellMatrix;
use std::time::Instant;

/// Tolerance band for the soft (statistical) checks: a relative term, a
/// *cliff slack* proportional to the matrix's per-iteration line
/// footprint, and an absolute floor in cache lines.
///
/// The cliff term exists because both soft comparisons are dominated by
/// the same mechanism when a working set sits within a few lines of a
/// partition's capacity: the fully associative LRU model flips the whole
/// footprint between hit and miss at once, while the 16-way simulator
/// (or the other method's slightly different footprint estimate) lands
/// on the other side of the cliff. The resulting gap is bounded by the
/// footprint itself, not by any fraction of the compared value — so the
/// band must carry a footprint-proportional term to separate this
/// benign, explained effect from genuine model bugs. See EXPERIMENTS.md,
/// "Divergence triage".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerance {
    /// Relative band, as a fraction of the expected value.
    pub rel: f64,
    /// Capacity-cliff slack, as a fraction of the matrix's working-set
    /// line footprint.
    pub cliff: f64,
    /// Absolute floor in cache lines.
    pub floor: f64,
}

impl Tolerance {
    /// The allowed absolute deviation for a given expected value and
    /// working-set footprint (in lines).
    pub fn allowed(&self, expected: f64, ws_lines: f64) -> f64 {
        (self.rel * expected.abs() + self.cliff * ws_lines).max(self.floor)
    }

    /// Whether `actual` is inside the band around `expected`.
    pub fn accepts(&self, expected: f64, actual: f64, ws_lines: f64) -> bool {
        (expected - actual).abs() <= self.allowed(expected, ws_lines)
    }
}

/// What to run per case: settings, thread counts, and tolerances.
#[derive(Clone, Debug)]
pub struct CheckPlan {
    /// Thread counts to validate (1 = sequential, 8 = four 2-core domains).
    pub threads: Vec<usize>,
    /// Settings for the envelope and model-vs-sim checks (each costs one
    /// simulation per thread count).
    pub check_settings: Vec<SectorSetting>,
    /// Settings for the pipeline-agreement and monotonicity sweep
    /// (model-only, so a wider sweep is cheap).
    pub sweep_settings: Vec<SectorSetting>,
    /// Model-vs-sim tolerance per class (order: 1, 2, 3a, 3b),
    /// sequential runs.
    pub sim_tol: [Tolerance; 4],
    /// Extra relative slack for parallel (multi-domain) runs, where
    /// thread-partition boundary effects add noise.
    pub sim_parallel_extra_rel: f64,
    /// Method (B) vs method (A) envelope per class.
    pub envelope_tol: [Tolerance; 4],
    /// SELL-C-σ `(C, σ)` views that re-run the model-side invariants
    /// (the C=1, σ=1 cross-format view runs regardless).
    pub sell_formats: Vec<(usize, usize)>,
    /// Row reordering applied to every corpus matrix before checking.
    pub reorder: ReorderSpec,
    /// CSR vs SELL (C=1, σ=1) cross-format band: the two views differ
    /// only in their metadata stream, so the band is tight.
    pub cross_format_tol: Tolerance,
    /// The machine the invariants run against (default: the a64fx
    /// preset, byte-identical to the pre-refactor harness).
    pub machine_spec: MachineSpec,
    /// Run the simulator cross-checks (5–6)? Off for non-a64fx machines:
    /// the tolerance bands were calibrated against the A64FX simulator,
    /// so other hierarchies get a model-only pass.
    pub simulate: bool,
}

impl CheckPlan {
    /// The full plan (CI's deep tier and the default CLI run), or the
    /// smoke plan (fast CI tier: fewer settings, same invariants).
    pub fn new(smoke: bool) -> Self {
        let check_settings = if smoke {
            vec![SectorSetting::Off, SectorSetting::L2Ways(5)]
        } else {
            vec![
                SectorSetting::Off,
                SectorSetting::L2Ways(2),
                SectorSetting::L2Ways(5),
            ]
        };
        let mut sweep_settings = vec![SectorSetting::Off];
        if smoke {
            sweep_settings.extend([2, 4, 6].map(SectorSetting::L2Ways));
        } else {
            sweep_settings.extend((1..=7).map(SectorSetting::L2Ways));
        }
        CheckPlan {
            threads: vec![1, 8],
            check_settings,
            sweep_settings,
            // Calibrated on the 200-matrix seed-2023 corpus; see
            // EXPERIMENTS.md "Divergence triage" for the measured error
            // distributions behind these bands.
            sim_tol: [
                Tolerance {
                    rel: 0.10,
                    cliff: 0.75,
                    floor: 96.0,
                },
                Tolerance {
                    rel: 0.10,
                    cliff: 0.75,
                    floor: 96.0,
                },
                Tolerance {
                    rel: 0.12,
                    cliff: 0.75,
                    floor: 96.0,
                },
                Tolerance {
                    rel: 0.12,
                    cliff: 0.75,
                    floor: 96.0,
                },
            ],
            sim_parallel_extra_rel: 0.06,
            envelope_tol: [
                Tolerance {
                    rel: 0.35,
                    cliff: 1.0,
                    floor: 64.0,
                },
                Tolerance {
                    rel: 0.35,
                    cliff: 1.0,
                    floor: 64.0,
                },
                Tolerance {
                    rel: 0.35,
                    cliff: 1.0,
                    floor: 64.0,
                },
                Tolerance {
                    rel: 0.35,
                    cliff: 1.0,
                    floor: 64.0,
                },
            ],
            sell_formats: vec![(8, 32)],
            reorder: ReorderSpec::None,
            // The C=1, σ=1 view differs from CSR only in the metadata
            // stream and trace interleaving; <5% relative was measured on
            // the seed-2023 corpus, with the usual capacity-cliff slack.
            cross_format_tol: Tolerance {
                rel: 0.05,
                cliff: 0.75,
                floor: 96.0,
            },
            machine_spec: MachineSpec::A64fx,
            simulate: true,
        }
    }

    /// Retargets the plan at `spec`'s machine. The a64fx preset keeps the
    /// calibrated bands and the simulator cross-checks; any other
    /// hierarchy runs model-only (the simulator bands were calibrated on
    /// the A64FX) with a widened method envelope — the documented (B)
    /// vs (A) band was measured on 256 B lines, and shorter lines put
    /// more of the footprint on partition boundaries.
    pub fn with_machine(mut self, spec: &MachineSpec) -> Self {
        self.machine_spec = spec.clone();
        if !spec.is_default() {
            self.simulate = false;
            for tol in &mut self.envelope_tol {
                tol.rel = tol.rel.max(0.45);
            }
        }
        self
    }

    /// The machine every check runs against: the plan's hierarchy at the
    /// corpus scale, with true LRU and the prefetcher off — the
    /// configuration under which the model is exact up to set conflicts
    /// (see `tests/model_vs_sim.rs`). The harness pins two cores per
    /// domain so the `threads` sweep exercises multi-domain runs. For the
    /// a64fx preset this is byte-identical to the pre-refactor
    /// `a64fx_scaled(SCALE)` construction (the machine-identity invariant
    /// pins that).
    pub fn machine(&self) -> MachineConfig {
        let mut cfg = match &self.machine_spec {
            MachineSpec::A64fx => MachineConfig::a64fx_scaled(SCALE),
            spec => MachineConfig::from_hierarchy(&spec.hierarchy(SCALE)),
        }
        .with_prefetch(PrefetchConfig::off());
        cfg.replacement = Replacement::Lru;
        cfg.cores_per_domain = 2;
        cfg
    }
}

/// The machine-identity invariant: run once per validation, on the a64fx
/// preset only. Pins (a) the unscaled preset hierarchy to the frozen
/// pre-refactor A64FX geometry constants, (b) the hierarchy-projected
/// harness config to the legacy `a64fx_scaled` constructor field for
/// field, and (c) predictions computed through the projected config to
/// the legacy config's bytes on one corpus matrix. Any drift in the
/// machine crate that would silently change every downstream prediction
/// surfaces here as an exact-comparison divergence.
pub fn machine_identity(plan: &CheckPlan, harness_seed: u64) -> (Vec<Divergence>, u64) {
    let mut divergences = Vec::new();
    let mut checks = 0u64;
    if !plan.machine_spec.is_default() {
        return (divergences, checks);
    }
    let mut record = |checks: &mut u64, what: &str, expected: f64, actual: f64| {
        *checks += 1;
        if expected != actual {
            divergences.push(Divergence {
                check: Check::MachineIdentity,
                matrix: "machine:a64fx".to_string(),
                family: "preset".to_string(),
                class: "-".to_string(),
                fingerprint: 0,
                seed: harness_seed,
                index: 0,
                setting: None,
                threads: 1,
                expected,
                actual,
                tolerance: 0.0,
                detail: what.to_string(),
            });
        }
    };

    // (a) Frozen unscaled geometry: the constants the models were built on.
    let hier = HierarchyConfig::a64fx();
    record(
        &mut checks,
        "preset line bytes",
        256.0,
        hier.line_bytes() as f64,
    );
    record(
        &mut checks,
        "preset L1 size",
        (64 << 10) as f64,
        hier.level(0).geometry.size_bytes as f64,
    );
    record(
        &mut checks,
        "preset L1 ways",
        4.0,
        hier.level(0).geometry.ways as f64,
    );
    record(
        &mut checks,
        "preset L2 size",
        // The frozen pre-refactor value, spelled out: this oracle must
        // not be derived from the machine crate it is checking.
        8.0 * 1024.0 * 1024.0,
        hier.last_level().geometry.size_bytes as f64,
    );
    record(
        &mut checks,
        "preset L2 ways",
        16.0,
        hier.last_level().geometry.ways as f64,
    );
    record(&mut checks, "preset cores", 48.0, hier.num_cores as f64);
    record(
        &mut checks,
        "preset cores per domain",
        12.0,
        hier.cores_per_domain as f64,
    );

    // (b) The harness config through both constructions.
    let legacy = plan.machine();
    let mut projected = MachineConfig::from_hierarchy(&HierarchyConfig::a64fx().scaled(SCALE))
        .with_prefetch(PrefetchConfig::off());
    projected.replacement = Replacement::Lru;
    projected.cores_per_domain = 2;
    record(
        &mut checks,
        "projected L1 size",
        legacy.l1.size_bytes as f64,
        projected.l1.size_bytes as f64,
    );
    record(
        &mut checks,
        "projected L2 size",
        legacy.l2.size_bytes as f64,
        projected.l2.size_bytes as f64,
    );
    record(
        &mut checks,
        "projected L2 ways",
        legacy.l2.ways as f64,
        projected.l2.ways as f64,
    );
    record(
        &mut checks,
        "projected line bytes",
        legacy.l2.line_bytes as f64,
        projected.l2.line_bytes as f64,
    );
    record(
        &mut checks,
        "projected == legacy (full config)",
        1.0,
        (projected == legacy) as u64 as f64,
    );

    // (c) Prediction byte-identity on one corpus matrix, both methods.
    let spec0 = &crate::corpus::stratified(4, harness_seed)[0];
    let matrix = build(spec0);
    for method in [Method::A, Method::B] {
        let expected = LocalityProfile::compute(&matrix, &legacy, method, 1, &plan.sweep_settings)
            .evaluate(&legacy, &plan.sweep_settings);
        let actual = LocalityProfile::compute(&matrix, &projected, method, 1, &plan.sweep_settings)
            .evaluate(&projected, &plan.sweep_settings);
        checks += 1;
        if expected != actual {
            let (e, a) = (expected[0].l2_misses as f64, actual[0].l2_misses as f64);
            divergences.push(Divergence {
                check: Check::MachineIdentity,
                matrix: spec0.name.clone(),
                family: spec0.family.to_string(),
                class: "-".to_string(),
                fingerprint: matrix.fingerprint(),
                seed: harness_seed,
                index: 0,
                setting: None,
                threads: 1,
                expected: e,
                actual: a,
                tolerance: 0.0,
                detail: format!(
                    "method {method:?}: hierarchy-projected config predicts differently \
                     from the legacy a64fx constructor"
                ),
            });
        }
    }
    (divergences, checks)
}

/// Everything `run_case` learned about one matrix.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Stratum the case actually classified into (sequential, 5 ways).
    pub class_index: usize,
    /// Violations found.
    pub divergences: Vec<Divergence>,
    /// Individual comparisons evaluated.
    pub checks_run: u64,
    /// Per-stage wall-clock.
    pub nanos: StageNanos,
}

fn class_label(class: MatrixClass) -> (&'static str, usize) {
    match class {
        MatrixClass::Class1 => ("1", 0),
        MatrixClass::Class2 => ("2", 1),
        MatrixClass::Class3a => ("3a", 2),
        MatrixClass::Class3b => ("3b", 3),
    }
}

/// Per-case coordinates shared by every divergence record and check pass.
struct CaseCtx<'a> {
    spec: &'a CaseSpec,
    plan: &'a CheckPlan,
    cfg: &'a MachineConfig,
    class: &'static str,
    class_index: usize,
    harness_seed: u64,
    /// CSR working-set footprint in lines (the cliff-slack scale for
    /// every view of the matrix).
    ws_lines: f64,
    /// All settings any model-side check needs, deduplicated: the sweep
    /// profile must be computed for exactly the capacities it will be
    /// asked to evaluate.
    all_settings: Vec<SectorSetting>,
}

impl CaseCtx<'_> {
    #[allow(clippy::too_many_arguments)]
    fn diverge(
        &self,
        out: &mut Vec<Divergence>,
        check: Check,
        name: &str,
        fingerprint: u64,
        setting: Option<SectorSetting>,
        threads: usize,
        expected: f64,
        actual: f64,
        tolerance: f64,
        detail: String,
    ) {
        out.push(Divergence {
            check,
            matrix: name.to_string(),
            family: self.spec.family.to_string(),
            class: self.class.to_string(),
            fingerprint,
            seed: self.harness_seed,
            index: self.spec.index,
            setting,
            threads,
            expected,
            actual,
            tolerance,
            detail,
        });
    }
}

/// Running tallies for one case, threaded through every check pass.
struct CaseTally {
    divergences: Vec<Divergence>,
    checks_run: u64,
    nanos: StageNanos,
}

/// Runs the model-side invariants — pipeline agreement, traffic
/// conservation, monotonicity, method envelope — for one workload view at
/// one thread count. `oracle` supplies the reference profile per method
/// (the verbatim CSR oracle for the CSR view, the generic
/// materialize-then-replay oracle for chunked views); `name` labels any
/// divergence with the view (e.g. `c2-banded-17@sell:8,32`); `envelope`
/// turns the method-(B)-vs-(A) band off for views where the band is not
/// documented (the CG iteration, whose vector sweeps method (B) accounts
/// analytically). Returns the oracle-evaluated predictions for methods
/// (A, B), over `ctx.all_settings`, for downstream cross-checks.
fn model_invariants<W: SpmvWorkload>(
    ctx: &CaseCtx<'_>,
    workload: &W,
    name: &str,
    oracle: &dyn Fn(Method) -> LocalityProfile,
    threads: usize,
    envelope: bool,
    tally: &mut CaseTally,
) -> (Vec<Prediction>, Vec<Prediction>) {
    let cfg = ctx.cfg;
    let all_settings = &ctx.all_settings;
    let fingerprint = workload.fingerprint();
    let mut preds_a: Option<Vec<Prediction>> = None;
    let mut preds_b: Option<Vec<Prediction>> = None;
    for method in [Method::A, Method::B] {
        let t = Instant::now();
        let streaming = LocalityProfile::compute(workload, cfg, method, threads, all_settings);
        tally.nanos.profile += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let reference = oracle(method);
        tally.nanos.oracle += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let expected = reference.evaluate(cfg, all_settings);
        let actual = streaming.evaluate(cfg, all_settings);
        tally.checks_run += 1;
        for (e, a) in expected.iter().zip(&actual) {
            if e != a {
                ctx.diverge(
                    &mut tally.divergences,
                    Check::PipelineAgreement,
                    name,
                    fingerprint,
                    Some(e.setting),
                    threads,
                    e.l2_misses as f64,
                    a.l2_misses as f64,
                    0.0,
                    format!(
                        "method {method:?}: streaming pipeline disagrees with the \
                         materialized oracle (by_array {:?} vs {:?})",
                        a.by_array, e.by_array
                    ),
                );
            }
        }

        // Traffic conservation inside each prediction.
        for p in &expected {
            tally.checks_run += 1;
            let sum: u64 = p.by_array.iter().sum();
            if sum != p.l2_misses {
                ctx.diverge(
                    &mut tally.divergences,
                    Check::TrafficConservation,
                    name,
                    fingerprint,
                    Some(p.setting),
                    threads,
                    p.l2_misses as f64,
                    sum as f64,
                    0.0,
                    format!(
                        "method {method:?}: by_array {:?} does not sum to total",
                        p.by_array
                    ),
                );
            }
        }

        // Monotonicity across the way sweep: partition 1 (A + ColIdx)
        // gains capacity with w, partition 0 (X + Y + RowPtr) loses it.
        let mut ways: Vec<&Prediction> = expected
            .iter()
            .filter(|p| matches!(p.setting, SectorSetting::L2Ways(_)))
            .collect();
        ways.sort_by_key(|p| match p.setting {
            SectorSetting::L2Ways(w) => w,
            SectorSetting::Off => 0,
        });
        for pair in ways.windows(2) {
            let stream = |p: &Prediction| p.misses_of(Array::A) + p.misses_of(Array::ColIdx);
            let reused = |p: &Prediction| {
                p.misses_of(Array::X) + p.misses_of(Array::Y) + p.misses_of(Array::RowPtr)
            };
            tally.checks_run += 1;
            if stream(pair[1]) > stream(pair[0]) {
                ctx.diverge(
                    &mut tally.divergences,
                    Check::Monotonicity,
                    name,
                    fingerprint,
                    Some(pair[1].setting),
                    threads,
                    stream(pair[0]) as f64,
                    stream(pair[1]) as f64,
                    0.0,
                    format!(
                        "method {method:?}: matrix-stream misses grew when partition 1 \
                         gained a way ({:?} -> {:?})",
                        pair[0].setting, pair[1].setting
                    ),
                );
            }
            tally.checks_run += 1;
            if reused(pair[1]) < reused(pair[0]) {
                ctx.diverge(
                    &mut tally.divergences,
                    Check::Monotonicity,
                    name,
                    fingerprint,
                    Some(pair[1].setting),
                    threads,
                    reused(pair[0]) as f64,
                    reused(pair[1]) as f64,
                    0.0,
                    format!(
                        "method {method:?}: x/y/rowptr misses shrank when partition 0 \
                         lost a way ({:?} -> {:?})",
                        pair[0].setting, pair[1].setting
                    ),
                );
            }
        }
        tally.nanos.check += t.elapsed().as_nanos() as u64;

        match method {
            Method::A => preds_a = Some(expected),
            Method::B => preds_b = Some(expected),
        }
    }

    let preds_a = preds_a.expect("method A always runs");
    let preds_b = preds_b.expect("method B always runs");

    // Method (B) inside its envelope of method (A).
    let t = Instant::now();
    let tol = ctx.plan.envelope_tol[ctx.class_index];
    for (a, b) in preds_a.iter().zip(&preds_b) {
        if !envelope || !ctx.plan.check_settings.contains(&a.setting) {
            continue;
        }
        tally.checks_run += 1;
        let (ea, eb) = (a.l2_misses as f64, b.l2_misses as f64);
        if !tol.accepts(ea, eb, ctx.ws_lines) {
            ctx.diverge(
                &mut tally.divergences,
                Check::MethodEnvelope,
                name,
                fingerprint,
                Some(a.setting),
                threads,
                ea,
                eb,
                tol.allowed(ea, ctx.ws_lines),
                "method B left its envelope of method A".to_string(),
            );
        }
    }
    tally.nanos.check += t.elapsed().as_nanos() as u64;

    (preds_a, preds_b)
}

/// Invariant 8 — scenario identity. The k=1 SpMM view of `base` must
/// evaluate byte-identically to the base workload's own predictions
/// (`reference`: the oracle-evaluated methods (A, B) per thread count),
/// in either RHS layout. The comparison is exact: a k=1 view shares the
/// base's layout, fingerprint, and traces, so any difference is a bug in
/// the RHS widening, not a modelling choice.
fn spmm_identity(
    ctx: &CaseCtx<'_>,
    base: &Workload,
    base_name: &str,
    reference: &[(usize, Vec<Prediction>, Vec<Prediction>)],
    tally: &mut CaseTally,
) {
    let cfg = ctx.cfg;
    for layout in [RhsLayout::Interleaved, RhsLayout::Separate] {
        let spmm = SpmmWorkload::new(base.clone(), 1, layout);
        let fingerprint = SpmvWorkload::fingerprint(&spmm);
        let suffix = match layout {
            RhsLayout::Interleaved => "",
            RhsLayout::Separate => ":col",
        };
        let name = format!("{base_name}@rhs1{suffix}");
        for (threads, ref_a, ref_b) in reference {
            for (method, expected) in [(Method::A, ref_a), (Method::B, ref_b)] {
                let t = Instant::now();
                let profile =
                    LocalityProfile::compute(&spmm, cfg, method, *threads, &ctx.all_settings);
                tally.nanos.profile += t.elapsed().as_nanos() as u64;
                let t = Instant::now();
                let actual = profile.evaluate(cfg, &ctx.all_settings);
                tally.checks_run += 1;
                for (e, a) in expected.iter().zip(&actual) {
                    if e != a {
                        ctx.diverge(
                            &mut tally.divergences,
                            Check::ScenarioIdentity,
                            &name,
                            fingerprint,
                            Some(e.setting),
                            *threads,
                            e.l2_misses as f64,
                            a.l2_misses as f64,
                            0.0,
                            format!(
                                "method {method:?}: k=1 SpMM view diverged from the base \
                                 workload (by_array {:?} vs {:?})",
                                a.by_array, e.by_array
                            ),
                        );
                    }
                }
                tally.nanos.check += t.elapsed().as_nanos() as u64;
            }
        }
    }
}

/// Invariant 9 — scenario conservation. The CG-iteration trace of `base`
/// must be exactly the inner SpMV trace plus `CG_SWEEP_REFS_PER_ROW`
/// references per row: the cursor's own `remaining()` accounting and a
/// full drain must both land on the formula. The CG view then re-runs
/// the model-side invariants (pipeline agreement, conservation,
/// monotonicity) against the generic materialized oracle — with the
/// method envelope off, since (B) accounts the sweeps analytically.
fn cg_invariants(ctx: &CaseCtx<'_>, base: &Workload, base_name: &str, tally: &mut CaseTally) {
    let cfg = ctx.cfg;
    let cg = CgWorkload::new(base.clone());
    let fingerprint = SpmvWorkload::fingerprint(&cg);
    let name = format!("{base_name}@cg");

    let t = Instant::now();
    let layout = cg.layout(cfg.l2.line_bytes);
    let mut cursor = cg.trace_cursor(&layout, 0..cg.num_work_items());
    let declared = cursor.remaining();
    let mut drained = 0usize;
    while cursor.next_access().is_some() {
        drained += 1;
    }
    let base_layout = base.layout(cfg.l2.line_bytes);
    let inner = base
        .trace_cursor(&base_layout, 0..base.num_work_items())
        .remaining();
    let expected = inner + CG_SWEEP_REFS_PER_ROW * SpmvWorkload::num_rows(&cg);
    for (what, actual) in [("remaining()", declared), ("drained trace", drained)] {
        tally.checks_run += 1;
        if actual != expected {
            ctx.diverge(
                &mut tally.divergences,
                Check::ScenarioConservation,
                &name,
                fingerprint,
                None,
                1,
                expected as f64,
                actual as f64,
                0.0,
                format!(
                    "CG {what} is not the inner trace plus \
                     {CG_SWEEP_REFS_PER_ROW} refs per row"
                ),
            );
        }
    }
    tally.nanos.check += t.elapsed().as_nanos() as u64;

    for &threads in &ctx.plan.threads {
        model_invariants(
            ctx,
            &cg,
            &name,
            &|method| LocalityProfile::compute_materialized_workload(&cg, cfg, method, threads),
            threads,
            false,
            tally,
        );
    }
}

/// Invariant 10 — scenario amplification. Adding right-hand sides only
/// grows the traffic: the total misses must be at least the base's at
/// every setting, and so must the matrix-stream misses (the stream data
/// is untouched, but the k-fold x/y footprint can push a previously
/// cache-resident stream out of steady-state residence — it can start
/// missing, never stop).
fn rhs_amplification(
    ctx: &CaseCtx<'_>,
    base: &Workload,
    base_name: &str,
    threads: usize,
    ref_a: &[Prediction],
    ref_b: &[Prediction],
    tally: &mut CaseTally,
) {
    const AMP_K: usize = 16;
    let cfg = ctx.cfg;
    let spmm = SpmmWorkload::new(base.clone(), AMP_K, RhsLayout::Interleaved);
    let fingerprint = SpmvWorkload::fingerprint(&spmm);
    let name = format!("{base_name}@rhs{AMP_K}");
    let stream = |p: &Prediction| p.misses_of(Array::A) + p.misses_of(Array::ColIdx);
    for (method, reference) in [(Method::A, ref_a), (Method::B, ref_b)] {
        let t = Instant::now();
        let profile = LocalityProfile::compute(&spmm, cfg, method, threads, &ctx.all_settings);
        tally.nanos.profile += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let actual = profile.evaluate(cfg, &ctx.all_settings);
        for (b, a) in reference.iter().zip(&actual) {
            tally.checks_run += 1;
            if stream(a) < stream(b) {
                ctx.diverge(
                    &mut tally.divergences,
                    Check::ScenarioAmplification,
                    &name,
                    fingerprint,
                    Some(b.setting),
                    threads,
                    stream(b) as f64,
                    stream(a) as f64,
                    0.0,
                    format!(
                        "method {method:?}: the matrix-stream misses shrank under \
                         extra right-hand sides"
                    ),
                );
            }
            tally.checks_run += 1;
            if a.l2_misses < b.l2_misses {
                ctx.diverge(
                    &mut tally.divergences,
                    Check::ScenarioAmplification,
                    &name,
                    fingerprint,
                    Some(b.setting),
                    threads,
                    b.l2_misses as f64,
                    a.l2_misses as f64,
                    0.0,
                    format!(
                        "method {method:?}: k={AMP_K} predicted fewer misses than \
                         the single-RHS view"
                    ),
                );
            }
        }
        tally.nanos.check += t.elapsed().as_nanos() as u64;
    }
}

/// Per-case check driver. Builds the matrix, runs the three prediction
/// pipelines (for the CSR view and every planned SELL view) and the
/// simulator over the plan's sweep, and records every invariant
/// violation.
pub fn run_case(spec: &CaseSpec, plan: &CheckPlan, harness_seed: u64) -> CaseResult {
    let t = Instant::now();
    let matrix = plan.reorder.apply(build(spec));
    let mut tally = CaseTally {
        divergences: Vec::new(),
        checks_run: 0,
        nanos: StageNanos {
            build: t.elapsed().as_nanos() as u64,
            ..StageNanos::default()
        },
    };

    let cfg = plan.machine();
    let (class, class_index) =
        class_label(classify_for(&matrix, &cfg.clone().with_l2_sector(5), 1));
    let fingerprint = matrix.fingerprint();
    let mut all_settings = plan.sweep_settings.clone();
    for &s in &plan.check_settings {
        if !all_settings.contains(&s) {
            all_settings.push(s);
        }
    }
    let ctx = CaseCtx {
        spec,
        plan,
        cfg: &cfg,
        class,
        class_index,
        harness_seed,
        ws_lines: matrix.working_set_bytes().div_ceil(cfg.l2.line_bytes) as f64,
        all_settings,
    };

    // CSR view: model-side invariants against the verbatim CSR oracle,
    // then the simulator cross-checks. Predictions are kept per thread
    // count for the cross-format comparison below.
    let mut csr_preds: Vec<(usize, Vec<Prediction>, Vec<Prediction>)> = Vec::new();
    for &threads in &plan.threads {
        let (preds_a, preds_b) = model_invariants(
            &ctx,
            &matrix,
            &spec.name,
            &|method| LocalityProfile::compute_materialized(&matrix, &cfg, method, threads),
            threads,
            true,
            &mut tally,
        );

        // Simulator cross-check: method (A) vs PMU-style counters, plus
        // PMU self-consistency on every snapshot. Skipped on non-a64fx
        // machines (model-only pass — see `CheckPlan::with_machine`).
        for &setting in plan.check_settings.iter().filter(|_| plan.simulate) {
            let t = Instant::now();
            let sim = match setting {
                SectorSetting::Off => simulate_spmv(&matrix, &cfg, ArraySet::EMPTY, threads, 1),
                SectorSetting::L2Ways(w) => {
                    let cfg_w = cfg.clone().with_l2_sector(w);
                    simulate_spmv(&matrix, &cfg_w, ArraySet::MATRIX_STREAM, threads, 1)
                }
            };
            tally.nanos.simulate += t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            let pmu = &sim.pmu;
            let measured = pmu.l2_misses() as f64;
            let predicted = preds_a
                .iter()
                .find(|p| p.setting == setting)
                .expect("check settings are a subset of the sweep")
                .l2_misses as f64;
            let mut tol = plan.sim_tol[class_index];
            if threads > 1 {
                tol.rel += plan.sim_parallel_extra_rel;
            }
            tally.checks_run += 1;
            if !tol.accepts(measured, predicted, ctx.ws_lines) {
                ctx.diverge(
                    &mut tally.divergences,
                    Check::ModelVsSim,
                    &spec.name,
                    fingerprint,
                    Some(setting),
                    threads,
                    measured,
                    predicted,
                    tol.allowed(measured, ctx.ws_lines),
                    "method A prediction left the simulator tolerance band".to_string(),
                );
            }

            // PMU identities are exact.
            let line = cfg.l2.line_bytes;
            let identities: [(&str, u64, u64); 6] = [
                (
                    "refill == refill_dm + refill_prf",
                    pmu.l2d_cache_refill,
                    pmu.l2d_cache_refill_dm + pmu.l2d_cache_refill_prf,
                ),
                (
                    "per-core l1 sums to aggregate",
                    pmu.l1d_demand_misses,
                    pmu.per_core_l1_demand_misses.iter().sum(),
                ),
                (
                    "per-core l2 dm sums to aggregate",
                    pmu.l2d_cache_refill_dm,
                    pmu.per_core_l2_demand_misses.iter().sum(),
                ),
                (
                    "per-domain refill sums to aggregate",
                    pmu.l2d_cache_refill,
                    pmu.per_domain_l2_refill.iter().sum(),
                ),
                (
                    "per-domain wb sums to aggregate",
                    pmu.l2d_cache_wb,
                    pmu.per_domain_l2_wb.iter().sum(),
                ),
                (
                    "memory_bytes == (refill + wb - swaps) * line",
                    pmu.memory_bytes(line),
                    (pmu.l2d_cache_refill + pmu.l2d_cache_wb
                        - pmu.l2d_swap_dm
                        - pmu.l2d_cache_mibmch_prf)
                        * line as u64,
                ),
            ];
            for (what, lhs, rhs) in identities {
                tally.checks_run += 1;
                if lhs != rhs {
                    ctx.diverge(
                        &mut tally.divergences,
                        Check::PmuIdentity,
                        &spec.name,
                        fingerprint,
                        Some(setting),
                        threads,
                        lhs as f64,
                        rhs as f64,
                        0.0,
                        what.to_string(),
                    );
                }
            }
            tally.nanos.check += t.elapsed().as_nanos() as u64;
        }

        csr_preds.push((threads, preds_a, preds_b));
    }

    // SELL views: the same model-side invariants on the chunked
    // workloads, with the generic materialize-then-replay oracle as the
    // reference (the simulator stays CSR-only).
    for &(c, sigma) in &plan.sell_formats {
        let sell = SellMatrix::from_csr(&matrix, c, sigma);
        let name = format!("{}@sell:{c},{sigma}", spec.name);
        let mut sell_preds: Vec<(usize, Vec<Prediction>, Vec<Prediction>)> = Vec::new();
        for &threads in &plan.threads {
            let (preds_a, preds_b) = model_invariants(
                &ctx,
                &sell,
                &name,
                &|method| {
                    LocalityProfile::compute_materialized_workload(&sell, &cfg, method, threads)
                },
                threads,
                true,
                &mut tally,
            );
            sell_preds.push((threads, preds_a, preds_b));
        }
        // Scenario identity on the chunked view: the k=1 SpMM wrapper
        // must reproduce the SELL predictions byte for byte too.
        spmm_identity(
            &ctx,
            &Workload::Sell(sell.clone()),
            &name,
            &sell_preds,
            &mut tally,
        );
    }

    // Cross-format invariant: the C=1, σ=1 SELL view stores exactly the
    // CSR nonzeros in the CSR order (no padding, no sorting), so after
    // its own invariant pass its predictions must sit within the
    // padding-only band of the CSR predictions.
    let sell11 = SellMatrix::from_csr(&matrix, 1, 1);
    let name11 = format!("{}@sell:1,1", spec.name);
    let tol = plan.cross_format_tol;
    for (threads, csr_a, csr_b) in &csr_preds {
        let (sell_a, sell_b) = model_invariants(
            &ctx,
            &sell11,
            &name11,
            &|method| {
                LocalityProfile::compute_materialized_workload(&sell11, &cfg, method, *threads)
            },
            *threads,
            true,
            &mut tally,
        );
        let t = Instant::now();
        for (method, csr, sell) in [(Method::A, csr_a, &sell_a), (Method::B, csr_b, &sell_b)] {
            for (cp, sp) in csr.iter().zip(sell) {
                if !plan.check_settings.contains(&cp.setting) {
                    continue;
                }
                tally.checks_run += 1;
                let (expected, actual) = (cp.l2_misses as f64, sp.l2_misses as f64);
                if !tol.accepts(expected, actual, ctx.ws_lines) {
                    ctx.diverge(
                        &mut tally.divergences,
                        Check::CrossFormat,
                        &name11,
                        SpmvWorkload::fingerprint(&sell11),
                        Some(cp.setting),
                        *threads,
                        expected,
                        actual,
                        tol.allowed(expected, ctx.ws_lines),
                        format!(
                            "method {method:?}: SELL C=1, σ=1 prediction left the \
                             padding-only band of the CSR view"
                        ),
                    );
                }
            }
        }
        tally.nanos.check += t.elapsed().as_nanos() as u64;
    }

    // Scenario invariants on the CSR view: the k=1 SpMM identity (both
    // layouts, every thread count), the CG-iteration conservation and
    // model-side rerun, and the k=16 amplification (sequential — the
    // engine's own tests cover sharded amplification, and the identity
    // pass above already exercises sharded scenario traces here).
    let base = Workload::Csr(matrix.clone());
    spmm_identity(&ctx, &base, &spec.name, &csr_preds, &mut tally);
    cg_invariants(&ctx, &base, &spec.name, &mut tally);
    if let Some((threads, ref_a, ref_b)) = csr_preds.first() {
        rhs_amplification(&ctx, &base, &spec.name, *threads, ref_a, ref_b, &mut tally);
    }

    CaseResult {
        class_index,
        divergences: tally.divergences,
        checks_run: tally.checks_run,
        nanos: tally.nanos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::stratified;

    #[test]
    fn tolerance_band_combines_rel_cliff_and_floor() {
        let t = Tolerance {
            rel: 0.1,
            cliff: 0.5,
            floor: 96.0,
        };
        // Floor governs tiny cases.
        assert_eq!(t.allowed(10.0, 0.0), 96.0);
        // Relative band plus cliff slack otherwise.
        assert_eq!(t.allowed(10_000.0, 200.0), 1100.0);
        assert!(t.accepts(100.0, 150.0, 0.0)); // inside floor
        assert!(!t.accepts(10_000.0, 12_000.0, 200.0)); // outside band
                                                        // The cliff term admits a whole-footprint flip.
        let t = Tolerance {
            rel: 0.1,
            cliff: 1.0,
            floor: 64.0,
        };
        assert!(t.accepts(0.0, 1800.0, 1850.0));
    }

    #[test]
    fn smoke_plan_is_a_subset_of_full() {
        let full = CheckPlan::new(false);
        let smoke = CheckPlan::new(true);
        for s in &smoke.check_settings {
            assert!(full.check_settings.contains(s));
        }
        assert!(smoke.sweep_settings.len() < full.sweep_settings.len());
        assert_eq!(smoke.threads, full.threads);
    }

    #[test]
    fn clean_case_produces_no_divergences() {
        // One cheap class-1 case end to end through the smoke plan.
        let spec = &stratified(4, 5)[0];
        let plan = CheckPlan::new(true);
        let result = run_case(spec, &plan, 5);
        assert!(
            result.divergences.is_empty(),
            "unexpected divergences: {:#?}",
            result.divergences
        );
        assert!(result.checks_run > 20);
        assert_eq!(result.class_index, 0);
    }

    #[test]
    fn sell_views_are_checked_per_case() {
        // The per-format reruns and the cross-format pass multiply the
        // check count: strip the plan to one thread count and verify the
        // SELL passes contribute beyond the CSR-only baseline.
        let spec = &stratified(4, 5)[1];
        let mut plan = CheckPlan::new(true);
        plan.threads = vec![1];
        let with_sell = run_case(spec, &plan, 5);
        assert!(
            with_sell.divergences.is_empty(),
            "unexpected divergences: {:#?}",
            with_sell.divergences
        );
        plan.sell_formats.clear();
        let without_sell = run_case(spec, &plan, 5);
        // Dropping the (8,32) view removes one full model-invariant pass;
        // the C=1, σ=1 cross-format pass still runs.
        assert!(with_sell.checks_run > without_sell.checks_run);
    }

    /// A ready-made context plus doctored reference predictions for the
    /// planted-violation tests below.
    fn planted_fixture() -> (
        CheckPlan,
        a64fx::config::MachineConfig,
        sparsemat::CsrMatrix,
        Vec<Prediction>,
        Vec<Prediction>,
    ) {
        let spec = &stratified(4, 5)[0];
        let plan = CheckPlan::new(true);
        let cfg = plan.machine();
        let matrix = plan.reorder.apply(build(spec));
        let settings = plan.sweep_settings.clone();
        let ref_a = LocalityProfile::compute(&matrix, &cfg, Method::A, 1, &settings)
            .evaluate(&cfg, &settings);
        let ref_b = LocalityProfile::compute(&matrix, &cfg, Method::B, 1, &settings)
            .evaluate(&cfg, &settings);
        (plan, cfg, matrix, ref_a, ref_b)
    }

    fn planted_ctx<'a>(
        spec: &'a CaseSpec,
        plan: &'a CheckPlan,
        cfg: &'a a64fx::config::MachineConfig,
    ) -> CaseCtx<'a> {
        CaseCtx {
            spec,
            plan,
            cfg,
            class: "1",
            class_index: 0,
            harness_seed: 5,
            ws_lines: 0.0,
            all_settings: plan.sweep_settings.clone(),
        }
    }

    fn fresh_tally() -> CaseTally {
        CaseTally {
            divergences: Vec::new(),
            checks_run: 0,
            nanos: StageNanos::default(),
        }
    }

    #[test]
    fn scenario_identity_catches_a_planted_mismatch() {
        // Doctor one reference prediction: the byte-identity comparison
        // must surface it as a scenario_identity divergence carrying the
        // @rhs1 view name.
        let (plan, cfg, matrix, mut ref_a, ref_b) = planted_fixture();
        ref_a[0].l2_misses += 1;
        let specs = stratified(4, 5);
        let ctx = planted_ctx(&specs[0], &plan, &cfg);
        let mut tally = fresh_tally();
        let base = Workload::Csr(matrix);
        spmm_identity(&ctx, &base, "planted", &[(1, ref_a, ref_b)], &mut tally);
        let hit = tally
            .divergences
            .iter()
            .find(|d| d.check == Check::ScenarioIdentity)
            .expect("planted mismatch must diverge");
        assert!(hit.matrix.starts_with("planted@rhs1"), "{}", hit.matrix);
        assert_eq!(hit.tolerance, 0.0);
    }

    #[test]
    fn amplification_check_catches_a_planted_regression() {
        // Inflate the base predictions far past anything k=16 can reach:
        // the >= comparison must flag every setting.
        let (plan, cfg, matrix, mut ref_a, mut ref_b) = planted_fixture();
        for p in ref_a.iter_mut().chain(ref_b.iter_mut()) {
            p.l2_misses = u64::MAX / 2;
        }
        let specs = stratified(4, 5);
        let ctx = planted_ctx(&specs[0], &plan, &cfg);
        let mut tally = fresh_tally();
        let base = Workload::Csr(matrix);
        rhs_amplification(&ctx, &base, "planted", 1, &ref_a, &ref_b, &mut tally);
        let hit = tally
            .divergences
            .iter()
            .find(|d| d.check == Check::ScenarioAmplification && d.detail.contains("fewer misses"))
            .expect("planted regression must diverge");
        assert!(hit.matrix.ends_with("@rhs16"), "{}", hit.matrix);
    }

    #[test]
    fn cross_format_band_catches_a_planted_gap() {
        // Sanity-check the tolerance wiring: with a zero-width band, the
        // (benign) CSR-vs-SELL metadata difference must surface as a
        // cross_format divergence somewhere in a stratified corpus, and
        // the record must carry the SELL view's name.
        let mut plan = CheckPlan::new(true);
        plan.sell_formats.clear();
        plan.cross_format_tol = Tolerance {
            rel: 0.0,
            cliff: 0.0,
            floor: 0.0,
        };
        let cross: Vec<Divergence> = stratified(8, 5)
            .iter()
            .flat_map(|spec| run_case(spec, &plan, 5).divergences)
            .filter(|d| d.check == Check::CrossFormat)
            .collect();
        assert!(
            !cross.is_empty(),
            "zero-width band accepted every cross-format comparison"
        );
        assert!(
            cross[0].matrix.ends_with("@sell:1,1"),
            "{}",
            cross[0].matrix
        );
    }
}
