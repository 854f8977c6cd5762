//! The matrix suites: Table 1 analogues and the 490-matrix corpus.
//!
//! SuiteSparse is unavailable offline, so the experiments run on synthetic
//! analogues:
//!
//! * [`table1_suite`] builds one matrix per Table 1 row, matching the
//!   original's row count, nonzeros-per-row and structural family
//!   (FEM block-banded, circuit, grid, power-law, arrow, …), scaled down
//!   by the machine scale factor;
//! * [`corpus`] builds the evaluation population standing in for the 490
//!   SuiteSparse matrices (> 1 M nonzeros, working sets from just above
//!   one L2 segment to far beyond the aggregate cache), log-uniformly
//!   spread in size and cycling through all structural families.

use crate::banded::{arrow, block_banded, random_banded, tridiag_plus_random};
use crate::random::{power_law, uniform_random};
use crate::stencil::{laplacian_2d, laplacian_3d, stencil_3d_27pt};
use sparsemat::CsrMatrix;

/// A generated matrix with its provenance.
pub struct NamedMatrix {
    /// Display name (for Table 1 analogues, the original matrix's name).
    pub name: String,
    /// Structural family of the generator.
    pub family: &'static str,
    /// The matrix.
    pub matrix: CsrMatrix,
}

/// Number of Table 1 analogues: [`table1_suite`] returns this many and
/// [`table1_member`] accepts indices below it.
pub const TABLE1_LEN: usize = 18;

/// Row counts of the Table 1 originals, in table order; analogue `i` at
/// scale `s` starts from `TABLE1_ROWS[i] / s` rows.
const TABLE1_ROWS: [usize; TABLE1_LEN] = [
    36_000, 1_447_000, 1_585_000, 141_000, 218_000, 2_063_000, 186_000, 513_000, 416_000, 639_000,
    1_508_000, 1_391_000, 987_000, 944_000, 4_802_000, 3_542_000, 16_777_000, 1_504_000,
];

/// The largest scale [`table1_suite`] accepts: the smallest original's
/// row count, so every analogue keeps at least one row.
pub fn table1_max_scale() -> usize {
    *TABLE1_ROWS.iter().min().expect("Table 1 is not empty")
}

/// Builds the 18 Table 1 analogues at `1/scale` of the original sizes.
///
/// Row counts and nonzeros-per-row follow the paper's Table 1; the
/// structural family is chosen to match the original's domain (protein,
/// circuit, FEM, optimisation, graph).
///
/// # Panics
///
/// Panics if `scale` is zero or above [`table1_max_scale`].
pub fn table1_suite(scale: usize) -> Vec<NamedMatrix> {
    (0..TABLE1_LEN).map(|i| table1_member(scale, i)).collect()
}

/// Builds Table 1 analogue `index` (in table order) at `1/scale` of the
/// original size: `table1_member(scale, i)` is `table1_suite(scale)[i]`,
/// without building the other 17.
///
/// # Panics
///
/// Panics if `scale` is zero or above [`table1_max_scale`], or if
/// `index >= TABLE1_LEN`.
pub fn table1_member(scale: usize, index: usize) -> NamedMatrix {
    assert!(
        (1..=table1_max_scale()).contains(&scale),
        "Table 1 scale {scale} outside 1..={}",
        table1_max_scale()
    );
    assert!(
        index < TABLE1_LEN,
        "Table 1 has {TABLE1_LEN} rows, no index {index}"
    );
    let rows = TABLE1_ROWS[index] / scale;
    let grid2 = |rows: usize| {
        let side = (rows as f64).sqrt().round() as usize;
        laplacian_2d(side.max(2), side.max(2))
    };
    let grid3 = |rows: usize| {
        let side = (rows as f64).cbrt().round() as usize;
        laplacian_3d(side.max(2), side.max(2), side.max(2))
    };
    let grid27 = |rows: usize| {
        let side = (rows as f64).cbrt().round() as usize;
        stencil_3d_27pt(side.max(2), side.max(2), side.max(2))
    };
    let blockb = |rows: usize, block: usize, per_row: usize, seed: u64| {
        let n = rows.div_ceil(block) * block;
        let blocks_per_row = (per_row / block).max(2);
        block_banded(n, block, blocks_per_row, blocks_per_row * 3, seed)
    };
    // (name, family, generator) per Table 1 row.
    let (name, family, matrix) = match index {
        0 => ("pdb1HYS", "block-banded", blockb(rows, 6, 120, 101)),
        1 => ("Hamrle3", "circuit", tridiag_plus_random(rows, 1, 102)),
        2 => ("G3_circuit", "grid-2d", grid2(rows)),
        3 => ("shipsec1", "block-banded", blockb(rows, 6, 55, 103)),
        4 => ("pwtk", "block-banded", blockb(rows, 6, 53, 104)),
        5 => ("kkt_power", "power-law", power_law(rows, 7, 0.8, 105)),
        6 => (
            "Si41Ge41H72",
            "banded",
            random_banded(rows, rows / 8, 80, 106),
        ),
        // Border sized so the average row length lands near the original's
        // ~39 nonzeros/row: nnz ~ n * (block + border). It shrinks only
        // where the scaled matrix has no more rows than the border.
        7 => ("bundle_adj", "arrow", arrow(rows, 9, 30.min(rows - 1), 107)),
        8 => ("msdoor", "block-banded", blockb(rows, 6, 49, 108)),
        9 => ("Fault_639", "block-banded", blockb(rows, 6, 45, 109)),
        10 => ("af_shell10", "block-banded", blockb(rows, 5, 35, 110)),
        11 => ("Serena", "block-banded", blockb(rows, 6, 46, 111)),
        12 => ("bone010", "grid-27pt", grid27(rows)),
        13 => ("audikw_1", "block-banded", blockb(rows, 9, 82, 112)),
        // channel-500 is a 3-D mesh graph; the 7-point grid is the closest
        // structural family (the analogue ends up slightly sparser per row).
        14 => ("channel-500x100x100-b050", "grid-3d", grid3(rows)),
        15 => ("nlpkkt120", "grid-27pt", grid27(rows)),
        16 => ("delaunay_n24", "random", uniform_random(rows, 6, 114)),
        17 => ("ML_Geer", "block-banded", blockb(rows, 6, 74, 115)),
        _ => unreachable!("index checked above"),
    };
    NamedMatrix {
        name: name.to_string(),
        family,
        matrix,
    }
}

/// Builds the evaluation corpus of `count` matrices at machine scale
/// `scale` (pass 16 with `MachineConfig::a64fx_scaled(16)`).
///
/// Matrix data sizes are log-uniform between ~1.2× one scaled L2 segment
/// and ~40× it — mirroring the paper's population (smallest matrix 11 MiB
/// vs. the 8 MiB segment) — cycling through seven structural families.
///
/// # Panics
///
/// Panics if `count` is zero or `scale` is zero.
pub fn corpus(count: usize, scale: usize, seed: u64) -> Vec<NamedMatrix> {
    assert!(count > 0, "need at least one matrix");
    (0..count)
        .map(|i| corpus_member(count, scale, seed, i))
        .collect()
}

/// Builds member `index` of the `count`-matrix corpus alone:
/// `corpus_member(count, scale, seed, i)` is `corpus(count, scale, seed)[i]`.
/// Each member's size target and generator seed depend only on
/// `(count, scale, seed, index)`, so no other member is built.
///
/// # Panics
///
/// Panics if `scale` is zero or `index >= count`.
pub fn corpus_member(count: usize, scale: usize, seed: u64, index: usize) -> NamedMatrix {
    assert!(index < count, "corpus of {count} has no member {index}");
    assert!(scale > 0, "scale must be positive");
    // Size targets relative to the scaled L2 segment (8 MiB / scale).
    let segment_bytes = (8usize << 20) / scale;
    let min_bytes = segment_bytes + segment_bytes / 4; // 1.25x
    let max_bytes = segment_bytes * 40;
    let log_lo = (min_bytes as f64).ln();
    let log_hi = (max_bytes as f64).ln();

    let i = index;
    let frac = (i as f64 + 0.5) / count as f64;
    // Deterministic low-discrepancy jitter from the seed.
    let jitter = (((seed ^ i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40) as f64
        / (1u64 << 24) as f64
        - 0.5)
        / count as f64;
    let target_bytes = (log_lo + (frac + jitter).clamp(0.0, 1.0) * (log_hi - log_lo)).exp();
    let mseed = seed.wrapping_add(1000 + i as u64);
    // Family weights mirror the SuiteSparse population the paper
    // samples: predominantly structured PDE/FEM matrices with good
    // x locality, a minority of irregular graph/optimisation
    // matrices (the paper's §4.5.5 finds only 42/490 matrices with
    // x-dominated traffic).
    const FAMILIES: [usize; 14] = [2, 5, 1, 2, 6, 4, 5, 2, 1, 6, 3, 5, 0, 4];
    build_family(FAMILIES[i % 14], target_bytes as usize, mseed, i)
}

/// Builds one corpus member of the given family sized to ~`target_bytes`
/// of CSR data.
fn build_family(family: usize, target_bytes: usize, seed: u64, index: usize) -> NamedMatrix {
    // CSR bytes ~ nnz * 12 + rows * 8; with p = nnz/row: rows ~ target / (12p + 8).
    let named = |name: String, family: &'static str, matrix: CsrMatrix| NamedMatrix {
        name,
        family,
        matrix,
    };
    match family {
        0 => {
            let p = 8 + (seed % 9) as usize; // 8..16
            let rows = (target_bytes / (12 * p + 8)).max(64);
            named(
                format!("rand-{index}"),
                "random",
                uniform_random(rows, p, seed),
            )
        }
        1 => {
            let p = 27;
            let rows = (target_bytes / (12 * p + 8)).max(64);
            let side = ((rows as f64).cbrt().round() as usize).max(2);
            named(
                format!("grid27-{index}"),
                "grid-27pt",
                stencil_3d_27pt(side, side, side),
            )
        }
        2 => {
            let block = 6;
            let per_row = 30 + (seed % 60) as usize; // 30..90
            let rows = (target_bytes / (12 * per_row + 8)).max(64);
            let n = rows.div_ceil(block) * block;
            named(
                format!("fem-{index}"),
                "block-banded",
                block_banded(
                    n,
                    block,
                    (per_row / block).max(2),
                    (per_row / block) * 3,
                    seed,
                ),
            )
        }
        3 => {
            let p = 4 + (seed % 5) as usize;
            let rows = (target_bytes / (12 * p + 8)).max(64);
            named(
                format!("powlaw-{index}"),
                "power-law",
                power_law(rows, p, 0.6 + (seed % 5) as f64 * 0.15, seed),
            )
        }
        4 => {
            let rows = (target_bytes / (12 * 4 + 8)).max(64);
            named(
                format!("circuit-{index}"),
                "circuit",
                tridiag_plus_random(rows, 1, seed),
            )
        }
        5 => {
            let p = 10 + (seed % 40) as usize;
            let rows = (target_bytes / (12 * p + 8)).max(64);
            let band = (rows / 16).max(8);
            named(
                format!("banded-{index}"),
                "banded",
                random_banded(rows, band, p, seed),
            )
        }
        _ => {
            let rows = (target_bytes / (12 * 7 + 8)).max(64);
            let side = ((rows as f64).cbrt().round() as usize).max(2);
            named(
                format!("grid7-{index}"),
                "grid-3d",
                laplacian_3d(side, side, side),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::MatrixStats;

    #[test]
    fn table1_builds_every_member_at_the_largest_scale() {
        let scale = table1_max_scale();
        assert_eq!(scale, 36_000, "pdb1HYS has the fewest rows");
        for (i, m) in table1_suite(scale).iter().enumerate() {
            assert!(m.matrix.num_rows() > 0 && m.matrix.nnz() > 0, "member {i}");
        }
    }

    #[test]
    #[should_panic(expected = "outside 1..=36000")]
    fn table1_rejects_a_scale_past_the_largest() {
        table1_member(table1_max_scale() + 1, 0);
    }

    #[test]
    fn table1_matches_paper_shapes() {
        let suite = table1_suite(16);
        assert_eq!(suite.len(), 18);
        let by_name: std::collections::HashMap<&str, &NamedMatrix> =
            suite.iter().map(|m| (m.name.as_str(), m)).collect();
        // Row counts within 10% of the scaled Table 1 values.
        let expect_rows = [
            ("pdb1HYS", 36_000 / 16),
            ("Hamrle3", 1_447_000 / 16),
            ("delaunay_n24", 16_777_000 / 16),
        ];
        for (name, rows) in expect_rows {
            let got = by_name[name].matrix.num_rows();
            let err = (got as f64 - rows as f64).abs() / rows as f64;
            assert!(err < 0.10, "{name}: {got} vs {rows}");
        }
        // Nonzeros-per-row in the right ballpark for a dense FEM matrix.
        let s = MatrixStats::compute(&by_name["audikw_1"].matrix);
        assert!(
            s.row_nnz_mean > 40.0,
            "audikw analog too sparse: {}",
            s.row_nnz_mean
        );
        // And sparse for the circuit matrix.
        let s = MatrixStats::compute(&by_name["Hamrle3"].matrix);
        assert!(s.row_nnz_mean < 5.0);
    }

    #[test]
    fn corpus_sizes_span_the_paper_range() {
        let c = corpus(20, 64, 42);
        assert_eq!(c.len(), 20);
        let hier = machine::HierarchyConfig::a64fx().scaled(64);
        let segment = hier.last_level().geometry.size_bytes;
        let sizes: Vec<usize> = c.iter().map(|m| m.matrix.matrix_bytes()).collect();
        // Every matrix exceeds one L2 segment (the paper's selection rule).
        for (m, &b) in c.iter().zip(&sizes) {
            assert!(
                b > segment,
                "{} is smaller ({} B) than one segment",
                m.name,
                b
            );
        }
        // The population spans more than a decade of sizes.
        let min = *sizes.iter().min().unwrap() as f64;
        let max = *sizes.iter().max().unwrap() as f64;
        assert!(max / min > 8.0, "span {min}..{max}");
    }

    #[test]
    fn corpus_cycles_families() {
        let c = corpus(14, 64, 7);
        let families: std::collections::HashSet<&str> = c.iter().map(|m| m.family).collect();
        assert!(families.len() >= 7, "families: {families:?}");
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = corpus(5, 64, 9);
        let b = corpus(5, 64, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.matrix, y.matrix);
        }
    }

    #[test]
    fn members_equal_the_assembled_suites() {
        let same = |a: &NamedMatrix, b: &NamedMatrix| {
            assert_eq!(a.name, b.name);
            assert_eq!(a.family, b.family);
            assert!(a.matrix == b.matrix, "{}", a.name);
        };
        let suite = table1_suite(64);
        assert_eq!(suite.len(), TABLE1_LEN);
        for (i, nm) in suite.iter().enumerate() {
            same(&table1_member(64, i), nm);
        }
        for count in [1, 7, 20] {
            for seed in [0, 9, 2023] {
                for (i, nm) in corpus(count, 64, seed).iter().enumerate() {
                    same(&corpus_member(count, 64, seed, i), nm);
                }
            }
        }
    }

    #[test]
    fn corpus_matrices_are_square_and_nonempty() {
        for m in corpus(10, 64, 3) {
            assert_eq!(m.matrix.num_rows(), m.matrix.num_cols(), "{}", m.name);
            assert!(m.matrix.nnz() > 0, "{}", m.name);
        }
    }
}
