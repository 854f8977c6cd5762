//! Byte-for-byte pin of the materialized exact-stack oracle.
//!
//! `valid` checks the streaming profile pipeline against
//! `LocalityProfile::compute_materialized` (CSR) and
//! `compute_materialized_workload` (any workload): materialise every
//! per-thread trace with the independent generators, then replay each L2
//! domain through exact stacks. This test renders the oracle's evaluated
//! predictions — per-array misses over the full validation sweep — for
//! both methods, the validation thread counts and the four views `valid`
//! replays (CSR, SELL-8-32, SELL-1-1, CG) on one member of each
//! working-set class (three generator families), and the lines must equal
//! `tests/golden/oracle_profiles.txt` exactly. Any change to the oracle's
//! trace generation, interleaving or stack accounting that moves one miss
//! count shows up here as a changed line.
//!
//! On a mismatch the actual rendering is written to
//! `oracle_profiles.actual` under Cargo's integration-test temp
//! directory, so a deliberate change can be reviewed with `diff`.

use locality_core::{CgWorkload, LocalityProfile, Method, SectorSetting, Workload};
use sparsemat::SellMatrix;
use std::fmt::Write as _;
use valid::CheckPlan;

const GOLDEN: &str = include_str!("golden/oracle_profiles.txt");

fn render() -> String {
    let plan = CheckPlan::new(false);
    let cfg = plan.machine();
    assert_eq!(cfg.cores_per_domain, 2, "threads 8 must span four domains");
    let mut settings: Vec<SectorSetting> = plan.sweep_settings.clone();
    for s in &plan.check_settings {
        if !settings.contains(s) {
            settings.push(*s);
        }
    }
    let mut out = String::new();
    let mut line = |tag: &str, profile: LocalityProfile| {
        for p in profile.evaluate(&cfg, &settings) {
            writeln!(out, "{tag} {:?}: {:?}", p.setting, p.by_array).unwrap();
        }
    };
    // One member of each class (1, 2, 3a, 3b) of the 8-matrix corpus:
    // random, banded, banded and circuit structure.
    let corpus = valid::stratified(8, 2023);
    for spec in [0, 3, 5, 7].map(|i| &corpus[i]) {
        let matrix = valid::corpus::build(spec);
        let sell832 = SellMatrix::from_csr(&matrix, 8, 32);
        let sell11 = SellMatrix::from_csr(&matrix, 1, 1);
        let cg = CgWorkload::new(Workload::Csr(matrix.clone()));
        for threads in [1, 8] {
            for method in [Method::A, Method::B] {
                let tag = |view: &str| format!("{}{view} threads={threads} {method:?}", spec.name);
                line(
                    &tag(""),
                    LocalityProfile::compute_materialized(&matrix, &cfg, method, threads),
                );
                line(
                    &tag("@sell:8,32"),
                    LocalityProfile::compute_materialized_workload(&sell832, &cfg, method, threads),
                );
                line(
                    &tag("@sell:1,1"),
                    LocalityProfile::compute_materialized_workload(&sell11, &cfg, method, threads),
                );
                line(
                    &tag("@cg"),
                    LocalityProfile::compute_materialized_workload(&cg, &cfg, method, threads),
                );
            }
        }
    }
    out
}

#[test]
fn oracle_predictions_match_golden_file() {
    let actual = render();
    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("oracle_profiles.actual");
        std::fs::write(&path, &actual).unwrap();
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "oracle predictions drifted from tests/golden/oracle_profiles.txt at line {} \
             ({} vs {} lines); actual output written to {}",
            first + 1,
            actual.lines().count(),
            GOLDEN.lines().count(),
            path.display()
        );
    }
}
