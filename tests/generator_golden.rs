//! Byte-for-byte pin of the matrix generators.
//!
//! Every experiment, `batch` source and `validate` case starts from a
//! generated matrix, and the oracle files downstream only cover a few of
//! them. This test renders one line per matrix — name, rows, cols, nnz
//! and `CsrMatrix::fingerprint` (a hash of the full `rowptr`/`colidx`
//! pattern) — for the Table-1 suite at scales 32 and 64, two seeds of the
//! evaluation corpus, the 40-case stratified validation corpus, small
//! arrow matrices across their block and border sizes, and the RCM
//! reordering of three generated matrices. The lines must equal
//! `tests/golden/generator_fingerprints.txt` exactly, so any change to a
//! generator's draws, row lengths, assembly or deduplication — or to RCM's
//! adjacency — shows up as a changed line.
//!
//! On a mismatch the actual rendering is written to
//! `generator_fingerprints.actual` under Cargo's integration-test temp
//! directory, so a deliberate change can be reviewed with `diff`.

use sparsemat::{reorder, CsrMatrix};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/generator_fingerprints.txt");

fn line(out: &mut String, name: &str, m: &CsrMatrix) {
    writeln!(
        out,
        "{name} {} {} {} {:016x}",
        m.num_rows(),
        m.num_cols(),
        m.nnz(),
        m.fingerprint()
    )
    .unwrap();
}

fn render() -> String {
    let mut out = String::new();
    let mut rcm_inputs: Vec<(String, CsrMatrix)> = Vec::new();
    for scale in [32, 64] {
        for m in corpus::table1_suite(scale) {
            let name = format!("table1/{scale}/{}", m.name);
            line(&mut out, &name, &m.matrix);
            // Block-banded, arrow and power-law structure for RCM.
            if scale == 64 && ["pdb1HYS", "bundle_adj", "kkt_power"].contains(&m.name.as_str()) {
                rcm_inputs.push((name, m.matrix));
            }
        }
    }
    for seed in [7, 2023] {
        for m in corpus::corpus(20, 64, seed) {
            line(
                &mut out,
                &format!("corpus/20/64/{seed}/{}", m.name),
                &m.matrix,
            );
        }
    }
    for spec in valid::stratified(40, 2023) {
        let m = valid::corpus::build(&spec);
        line(&mut out, &format!("stratified/40/2023/{}", spec.name), &m);
    }
    for n in [2, 31, 100] {
        for block in [1, 4, 9] {
            for border in 0..n {
                let m = corpus::banded::arrow(n, block, border, 107);
                line(&mut out, &format!("arrow/n{n}/b{block}/border{border}"), &m);
            }
        }
    }
    for (name, m) in &rcm_inputs {
        line(&mut out, &format!("rcm/{name}"), &reorder::rcm_reorder(m));
    }
    out
}

#[test]
fn generated_matrices_match_golden_file() {
    let actual = render();
    if actual != GOLDEN {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("generator_fingerprints.actual");
        std::fs::write(&path, &actual).unwrap();
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "generated matrices drifted from tests/golden/generator_fingerprints.txt at line {} \
             ({} vs {} lines); actual output written to {}",
            first + 1,
            actual.lines().count(),
            GOLDEN.lines().count(),
            path.display()
        );
    }
}
