//! Banded and block-structured matrix generators.
//!
//! FEM discretisations (`shipsec1`, `pwtk`, `msdoor`, `af_shell`,
//! `audikw_1`-like) are block matrices with nonzeros clustered near the
//! diagonal; circuit matrices (`Hamrle3`-like) are nearly tridiagonal with
//! sparse random long-range connections; optimisation/saddle-point systems
//! (`bundle_adj`-like) have an arrow shape with a dense border.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sparsemat::{CsrBuilder, CsrMatrix};

/// Random banded matrix: each row has a diagonal entry plus
/// `nnz_per_row` entries uniform within `±half_band` of the diagonal.
pub fn random_banded(n: usize, half_band: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    assert!(n > 0, "matrix must be non-empty");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = CsrBuilder::with_capacity(n, n, n * (nnz_per_row + 1));
    for r in 0..n {
        b.push(r);
        let lo = r.saturating_sub(half_band);
        let hi = (r + half_band).min(n - 1);
        for _ in 0..nnz_per_row {
            b.push(rng.gen_range(lo..=hi));
        }
        b.end_row();
    }
    b.finish()
}

/// Block-banded FEM-like matrix of `n / block` dense `block`×`block`
/// blocks: each block row couples to itself and `blocks_per_row - 1`
/// random nearby block columns (within `±block_band` block indices).
pub fn block_banded(
    n: usize,
    block: usize,
    blocks_per_row: usize,
    block_band: usize,
    seed: u64,
) -> CsrMatrix {
    assert!(
        block > 0 && n.is_multiple_of(block),
        "n must be a multiple of the block size"
    );
    let nb = n / block;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = CsrBuilder::with_capacity(n, n, n * block * blocks_per_row);
    for brow in 0..nb {
        // Self block plus distinct random neighbours.
        let mut cols = vec![brow];
        let lo = brow.saturating_sub(block_band);
        let hi = (brow + block_band).min(nb - 1);
        for _ in 0..blocks_per_row.saturating_sub(1) {
            cols.push(rng.gen_range(lo..=hi));
        }
        cols.sort_unstable();
        cols.dedup();
        // Each of the block's rows crosses the sorted block columns.
        for _ in 0..block {
            for &bcol in &cols {
                for j in 0..block {
                    b.push(bcol * block + j);
                }
            }
            b.end_row();
        }
    }
    b.finish()
}

/// Nearly tridiagonal matrix with `extras_per_row` additional uniformly
/// random entries per row (`Hamrle3`-like circuit structure).
pub fn tridiag_plus_random(n: usize, extras_per_row: usize, seed: u64) -> CsrMatrix {
    assert!(n > 0, "matrix must be non-empty");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = CsrBuilder::with_capacity(n, n, n * (3 + extras_per_row));
    for r in 0..n {
        b.push(r);
        if r > 0 {
            b.push(r - 1);
        }
        if r + 1 < n {
            b.push(r + 1);
        }
        for _ in 0..extras_per_row {
            b.push(rng.gen_range(0..n));
        }
        b.end_row();
    }
    b.finish()
}

/// Arrow matrix: block diagonal of dense `block`×`block` blocks plus a
/// dense border of `border` rows/columns coupling everything
/// (`bundle_adj`-like bundle-adjustment structure).
pub fn arrow(n: usize, block: usize, border: usize, seed: u64) -> CsrMatrix {
    assert!(border < n, "border must be smaller than the matrix");
    let body = n - border;
    let mut rng = SmallRng::seed_from_u64(seed);
    // Border couplings (sampled at 50% density to vary row lengths):
    // `coupled[k * body + c]` links border row/column `body + k` with
    // body row/column `c`, drawn border row by border row.
    let coupled: Vec<bool> = (0..border * body).map(|_| rng.gen_bool(0.5)).collect();
    let mut b = CsrBuilder::with_capacity(n, n, body * block + 2 * border * n);
    // Body rows: a dense diagonal block, then the coupled border columns.
    let mut start = 0;
    while start < body {
        let width = block.min(body - start);
        for r in start..start + width {
            for c in start..start + width {
                b.push(c);
            }
            for k in 0..border {
                if coupled[k * body + r] {
                    b.push(body + k);
                }
            }
            b.end_row();
        }
        start += width;
    }
    // Border rows: the coupled body columns, then the diagonal.
    for k in 0..border {
        for c in 0..body {
            if coupled[k * body + c] {
                b.push(c);
            }
        }
        b.push(body + k);
        b.end_row();
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::MatrixStats;

    #[test]
    fn random_banded_respects_band() {
        let m = random_banded(1000, 25, 8, 5);
        let s = MatrixStats::compute(&m);
        assert!(s.bandwidth <= 25);
        assert_eq!(s.empty_rows, 0);
    }

    #[test]
    fn block_banded_has_dense_blocks() {
        let m = block_banded(120, 6, 4, 5, 9);
        // Every row has at least its own block's width.
        for r in 0..120 {
            assert!(m.row_nnz(r) >= 6, "row {r} has {}", m.row_nnz(r));
        }
        // Diagonal block is dense: entries (0,0..6).
        for j in 0..6 {
            assert!(m.contains(0, j));
        }
    }

    #[test]
    fn block_banded_rejects_misaligned_size() {
        let r = std::panic::catch_unwind(|| block_banded(100, 7, 3, 2, 1));
        assert!(r.is_err());
    }

    #[test]
    fn tridiag_plus_random_structure() {
        let m = tridiag_plus_random(500, 1, 3);
        assert!(m.contains(250, 249));
        assert!(m.contains(250, 251));
        assert!(m.contains(250, 250));
        let s = MatrixStats::compute(&m);
        // Mean close to 4 (3 tridiag + 1 extra), low but nonzero CV.
        assert!(s.row_nnz_mean > 3.2 && s.row_nnz_mean < 4.2);
    }

    #[test]
    fn arrow_shape() {
        let m = arrow(200, 5, 8, 7);
        let s = MatrixStats::compute(&m);
        // Border rows are long.
        assert!(s.row_nnz_max > 50);
        // Full bandwidth because of the border.
        assert!(s.bandwidth > 150);
        // Body rows stay short.
        assert!(m.row_nnz(0) <= 5 + 8);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_banded(300, 10, 5, 77), random_banded(300, 10, 5, 77));
        assert_eq!(arrow(100, 4, 5, 3), arrow(100, 4, 5, 3));
    }
}
