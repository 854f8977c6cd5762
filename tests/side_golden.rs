//! Byte-for-byte pin of the side analyses built on the locality model.
//!
//! The L1 predictor, the way-partition optimiser and the L1-filtered
//! two-level ablation each derive their reference streams from the same
//! sparsity-pattern traces as the main model. This test renders their
//! outputs on a few small corpus matrices, one line per case, and the
//! lines must equal `tests/golden/side_models.txt` exactly — any change
//! to trace generation, interleaving order or stack accounting that moves
//! one miss count shows up here as a changed line.
//!
//! On a mismatch the actual rendering is written to `side_models.actual`
//! under Cargo's integration-test temp directory, so a deliberate change
//! can be reviewed with `diff`.

use a64fx::MachineConfig;
use locality_core::l1::predict_l1_misses;
use locality_core::optimize::PartitionOptimizer;
use locality_core::two_level::predict_filtered;
use locality_core::{Method, SectorSetting};
use memtrace::{Array, ArraySet};
use std::fmt::Write as _;

const SCALE: usize = 64;
const GOLDEN: &str = include_str!("golden/side_models.txt");

fn render() -> String {
    // The three smallest members of a 12-matrix corpus (the same ones
    // `sim_golden` pins) plus the circuit member, whose irregular `x`
    // gather overflows the narrow partitions: the whole file renders in
    // seconds even in the debug test profile.
    let suite: Vec<_> = corpus::corpus(12, SCALE, 2023)
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| i < 3 || i == 5)
        .map(|(_, nm)| nm)
        .collect();
    let cfg = MachineConfig::a64fx_scaled(SCALE);
    let two_groups = [
        ArraySet::of(&[Array::X, Array::Y, Array::RowPtr]),
        ArraySet::MATRIX_STREAM,
    ];
    let three_groups = [
        ArraySet::of(&[Array::X]),
        ArraySet::of(&[Array::Y, Array::RowPtr]),
        ArraySet::MATRIX_STREAM,
    ];
    let settings = SectorSetting::paper_sweep();
    let mut out = String::new();
    for nm in &suite {
        let m = &nm.matrix;
        for threads in [1, 8, 48] {
            let tag = format!("{} threads={threads}", nm.name);
            for method in [Method::A, Method::B] {
                let misses = predict_l1_misses(m, &cfg, method, threads);
                writeln!(out, "{tag} l1 method={method:?}: {misses}").unwrap();
            }
            for groups in [&two_groups[..], &three_groups[..]] {
                let opt = PartitionOptimizer::from_spmv(m, &cfg, groups, threads);
                for g in 0..groups.len() {
                    let curve: Vec<u64> = opt.miss_curve(g).iter().map(|&(_, n)| n).collect();
                    writeln!(
                        out,
                        "{tag} optimizer groups={} curve[{g}]: {curve:?}",
                        groups.len()
                    )
                    .unwrap();
                }
                let (alloc, best) = opt.best_allocation();
                writeln!(
                    out,
                    "{tag} optimizer groups={} best: {alloc:?} {best}",
                    groups.len()
                )
                .unwrap();
            }
            for p in predict_filtered(m, &cfg, &settings, threads) {
                writeln!(out, "{tag} filtered: {p:?}").unwrap();
            }
        }
    }
    out
}

#[test]
fn side_model_outputs_match_golden_file() {
    let actual = render();
    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("side_models.actual");
        std::fs::write(&path, &actual).unwrap();
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "side-model outputs drifted from tests/golden/side_models.txt at line {} \
             ({} vs {} lines); actual output written to {}",
            first + 1,
            actual.lines().count(),
            GOLDEN.lines().count(),
            path.display()
        );
    }
}
