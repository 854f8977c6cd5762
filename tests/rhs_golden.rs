//! Byte-for-byte pin of the streaming profile pipeline on SpMM workloads.
//!
//! The differential harness in `valid` checks `k = 1` generation against
//! independent generators, but nothing checks `k > 1` cursor generation
//! against another implementation. This test renders the evaluated
//! predictions of `LocalityProfile::compute` — per-array misses over the
//! full validation sweep — for SpMM with `k ∈ {3, 16}` right-hand sides in
//! both RHS layouts, both methods and the validation thread counts, over
//! a CSR and a SELL-8-32 view of one narrow-row and one wide-row matrix,
//! and the lines must equal `tests/golden/rhs_profiles.txt` exactly. Any
//! change to the multi-RHS cursors, their block fills or the replay that
//! moves one miss count shows up here as a changed line.
//!
//! On a mismatch the actual rendering is written to `rhs_profiles.actual`
//! under Cargo's integration-test temp directory, so a deliberate change
//! can be reviewed with `diff`.

use locality_core::{LocalityProfile, Method, RhsLayout, SectorSetting, SpmmWorkload, Workload};
use sparsemat::{CsrMatrix, SellMatrix};
use std::fmt::Write as _;
use valid::CheckPlan;

const GOLDEN: &str = include_str!("golden/rhs_profiles.txt");

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
    // Narrow rows: the class-(1) member of the 8-matrix validation corpus
    // (about 9 nonzeros per row). Wide rows: the pdb1HYS analogue at
    // scale 64 (about 107 nonzeros per row, so at k >= 3 every row
    // outgrows a trace block).
    let narrow = &valid::stratified(8, 2023)[0];
    let wide = corpus::table1_member(64, 0);
    let matrices: [(String, CsrMatrix); 2] = [
        (narrow.name.clone(), valid::corpus::build(narrow)),
        (wide.name, wide.matrix),
    ];
    let mut out = String::new();
    for (name, matrix) in matrices {
        let p = matrix.nnz() as f64 / matrix.num_rows() as f64;
        writeln!(
            out,
            "# {name}: n={} nnz={} p={p:.1}",
            matrix.num_rows(),
            matrix.nnz()
        )
        .unwrap();
        let views = [
            ("", Workload::Csr(matrix.clone())),
            (
                "@sell:8,32",
                Workload::Sell(SellMatrix::from_csr(&matrix, 8, 32)),
            ),
        ];
        for (view, base) in views {
            for k in [3, 16] {
                for rhs_layout in [RhsLayout::Interleaved, RhsLayout::Separate] {
                    let spmm = SpmmWorkload::new(base.clone(), k, rhs_layout);
                    for threads in [1, 8] {
                        for method in [Method::A, Method::B] {
                            let profile =
                                LocalityProfile::compute(&spmm, &cfg, method, threads, &settings);
                            for p in profile.evaluate(&cfg, &settings) {
                                writeln!(
                                    out,
                                    "{name}{view} k={k} {rhs_layout:?} threads={threads} \
                                     {method:?} {:?}: {:?}",
                                    p.setting, p.by_array
                                )
                                .unwrap();
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

#[test]
fn spmm_streaming_predictions_match_golden_file() {
    let actual = render();
    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("rhs_profiles.actual");
        std::fs::write(&path, &actual).unwrap();
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "SpMM predictions drifted from tests/golden/rhs_profiles.txt at line {} \
             ({} vs {} lines); actual output written to {}",
            first + 1,
            actual.lines().count(),
            GOLDEN.lines().count(),
            path.display()
        );
    }
}
