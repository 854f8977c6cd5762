//! Compressed Sparse Row (CSR) matrix format.
//!
//! CSR is the format studied by the paper (Listing 1). The matrix stores
//! only the sparsity pattern: 4-byte `u32` column indices (`colidx`) and
//! 8-byte `i64` row pointers (`rowptr`). The 8-byte `f64` value array `a`
//! is *modelled*, not stored: the locality model and the trace addresses
//! depend only on where the nonzeros are, so [`CsrMatrix::matrix_bytes`]
//! and the layouts built on it still count [`VALUE_BYTES`] per nonzero.
//! The closed-form traffic terms
//! (`⌈8K/L⌉ + ⌈4K/L⌉ + ⌈8(M+1)/L⌉ + ⌈8M/L⌉`) depend on these sizes.

use crate::{COLIDX_BYTES, ROWPTR_BYTES, VALUE_BYTES, VECTOR_BYTES};

/// The sparsity pattern of a matrix in CSR format.
///
/// Invariants (validated by [`CsrMatrix::from_parts`]):
/// * `rowptr.len() == num_rows + 1`, `rowptr[0] == 0`,
///   `rowptr[num_rows] == colidx.len()` (the nonzero count), and `rowptr`
///   is non-decreasing;
/// * every column index is `< num_cols`.
///
/// Column indices within a row are *not* required to be sorted (CSR from
/// arbitrary sources may be unsorted); [`CsrBuilder`](crate::CsrBuilder)
/// and [`CooMatrix::to_csr`](crate::CooMatrix::to_csr) produce sorted rows.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    num_rows: usize,
    num_cols: usize,
    rowptr: Vec<i64>,
    colidx: Vec<u32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts, validating all invariants.
    ///
    /// # Panics
    ///
    /// Panics if any CSR invariant is violated.
    pub fn from_parts(
        num_rows: usize,
        num_cols: usize,
        rowptr: Vec<i64>,
        colidx: Vec<u32>,
    ) -> Self {
        assert_eq!(
            rowptr.len(),
            num_rows + 1,
            "rowptr length must be num_rows + 1"
        );
        assert_eq!(rowptr[0], 0, "rowptr must start at 0");
        assert_eq!(
            rowptr[num_rows] as usize,
            colidx.len(),
            "rowptr must end at nnz"
        );
        for r in 0..num_rows {
            assert!(
                rowptr[r] <= rowptr[r + 1],
                "rowptr must be non-decreasing at row {r}"
            );
        }
        assert!(
            u32::try_from(num_cols).is_ok(),
            "number of columns {num_cols} exceeds u32 range"
        );
        for &c in &colidx {
            assert!(
                (c as usize) < num_cols,
                "column index {c} out of bounds ({num_cols})"
            );
        }
        CsrMatrix {
            num_rows,
            num_cols,
            rowptr,
            colidx,
        }
    }

    /// Builds an `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let rowptr = (0..=n as i64).collect();
        let colidx = (0..n as u32).collect();
        Self::from_parts(n, n, rowptr, colidx)
    }

    /// Number of rows (the paper's `M`).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns (the paper's `N`).
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of stored nonzeros (the paper's `K`).
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// The row pointer array (`rowptr`), `num_rows + 1` entries.
    pub fn rowptr(&self) -> &[i64] {
        &self.rowptr
    }

    /// The column index array (`colidx`), `nnz` entries.
    pub fn colidx(&self) -> &[u32] {
        &self.colidx
    }

    /// The half-open nonzero index range of row `r`.
    #[inline]
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.rowptr[r] as usize..self.rowptr[r + 1] as usize
    }

    /// Number of nonzeros in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        (self.rowptr[r + 1] - self.rowptr[r]) as usize
    }

    /// Iterates over the column indices of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.colidx[self.row_range(r)].iter().map(|&c| c as usize)
    }

    /// Returns `true` if `(row, col)` is a stored nonzero.
    ///
    /// Linear scan over the row; intended for tests and small matrices.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        self.row(row).any(|c| c == col)
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0i64; self.num_cols + 1];
        for &c in &self.colidx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.num_cols {
            counts[i + 1] += counts[i];
        }
        let rowptr = counts.clone();
        let mut next = counts;
        let mut colidx = vec![0u32; self.nnz()];
        for r in 0..self.num_rows {
            for c in self.row(r) {
                let dst = next[c] as usize;
                colidx[dst] = r as u32;
                next[c] += 1;
            }
        }
        CsrMatrix::from_parts(self.num_cols, self.num_rows, rowptr, colidx)
    }

    /// Applies a symmetric permutation `perm` (new index -> old index) to a
    /// square matrix, returning `P A Pᵀ`.
    ///
    /// Used by RCM reordering. `perm[i] = j` means new row/column `i` is old
    /// row/column `j`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `perm` is not a permutation of
    /// `0..num_rows`.
    pub fn permute_symmetric(&self, perm: &[usize]) -> CsrMatrix {
        assert_eq!(
            self.num_rows, self.num_cols,
            "symmetric permutation needs a square matrix"
        );
        assert_eq!(perm.len(), self.num_rows, "permutation length mismatch");
        let mut inv = vec![usize::MAX; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            assert!(old < perm.len(), "permutation entry out of range");
            assert!(
                inv[old] == usize::MAX,
                "permutation has duplicate entry {old}"
            );
            inv[old] = new;
        }

        let mut rowptr = Vec::with_capacity(self.num_rows + 1);
        rowptr.push(0i64);
        let mut colidx: Vec<u32> = Vec::with_capacity(self.nnz());
        for &old_r in perm {
            let b = colidx.len();
            colidx.extend(self.row(old_r).map(|c| inv[c] as u32));
            colidx[b..].sort_unstable();
            rowptr.push(colidx.len() as i64);
        }
        CsrMatrix::from_parts(self.num_rows, self.num_cols, rowptr, colidx)
    }

    /// Total bytes of the CSR data structures (`a` + `colidx` + `rowptr`),
    /// the paper's "matrix data". The modelled `a` counts [`VALUE_BYTES`]
    /// per nonzero although no values are stored.
    pub fn matrix_bytes(&self) -> usize {
        self.nnz() * (VALUE_BYTES + COLIDX_BYTES) + (self.num_rows + 1) * ROWPTR_BYTES
    }

    /// Total bytes of the SpMV working set: matrix data plus the `x`
    /// (`num_cols` elements) and `y` (`num_rows` elements) vectors.
    pub fn working_set_bytes(&self) -> usize {
        self.matrix_bytes() + (self.num_rows + self.num_cols) * VECTOR_BYTES
    }

    /// A stable 64-bit fingerprint of the *sparsity structure*: dimensions,
    /// `rowptr`, and `colidx` — everything the matrix stores. The locality
    /// model depends only on the access pattern, so matrices read from
    /// files with different values but equal structure share reuse
    /// profiles (and may share a memoized prediction).
    ///
    /// The hash is FNV-1a over a fixed little-endian serialization, so it
    /// is identical across runs, platforms, and processes — safe to use as
    /// a persistent cache key.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::fingerprint::Fnv::new();
        h.mix_u64(self.num_rows as u64);
        h.mix_u64(self.num_cols as u64);
        for &p in &self.rowptr {
            h.mix(&p.to_le_bytes());
        }
        for &c in &self.colidx {
            h.mix(&c.to_le_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CsrMatrix {
        // The 4x4, 7-nonzero example of the paper's Fig. 1:
        // row 0: cols 1,2 ; row 1: col 0 ; row 2: cols 2,3 ; row 3: cols 1,3
        CsrMatrix::from_parts(4, 4, vec![0, 2, 3, 5, 7], vec![1, 2, 0, 2, 3, 1, 3])
    }

    #[test]
    fn fig1_example_accessors() {
        let a = example();
        assert_eq!(a.num_rows(), 4);
        assert_eq!(a.num_cols(), 4);
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.row_nnz(0), 2);
        assert_eq!(a.row_nnz(1), 1);
        assert_eq!(a.row_range(2), 3..5);
        assert!(a.colidx()[a.row_range(0)].is_sorted());
        assert!(a.contains(3, 1));
        assert!(!a.contains(3, 0));
        assert_eq!(a.row(2).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn identity_matrix() {
        let i = CsrMatrix::identity(5);
        assert_eq!(i.nnz(), 5);
        for r in 0..5 {
            assert_eq!(i.row(r).collect::<Vec<_>>(), vec![r]);
        }
    }

    #[test]
    fn transpose_involution() {
        let a = example();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn transpose_moves_entries() {
        let a = example();
        let at = a.transpose();
        assert!(at.contains(1, 0));
        assert!(at.contains(2, 0));
        assert!(at.contains(0, 1));
        assert!(!at.contains(0, 0));
    }

    #[test]
    fn coo_roundtrip() {
        let a = example();
        let mut coo = crate::CooMatrix::new(a.num_rows(), a.num_cols());
        for r in 0..a.num_rows() {
            for c in a.row(r) {
                coo.push(r, c);
            }
        }
        assert_eq!(a, coo.to_csr());
    }

    #[test]
    fn permute_identity_is_noop() {
        let a = example();
        let perm: Vec<usize> = (0..4).collect();
        assert_eq!(a.permute_symmetric(&perm), a);
    }

    #[test]
    fn permute_reversal() {
        let a = example();
        let perm = vec![3, 2, 1, 0];
        let p = a.permute_symmetric(&perm);
        // Old (3,1) maps to new (0,2).
        assert!(p.contains(0, 2));
        // Old (1,0) maps to new (2,3).
        assert!(p.contains(2, 3));
        assert!((0..4).all(|r| p.colidx()[p.row_range(r)].is_sorted()));
        // Applying the inverse (same reversal) restores the matrix.
        assert_eq!(p.permute_symmetric(&perm), a);
    }

    #[test]
    fn byte_accounting_matches_paper_formulas() {
        let a = example();
        // 7 nonzeros: 8*7 + 4*7 = 84 bytes, rowptr: 8*5 = 40.
        assert_eq!(a.matrix_bytes(), 84 + 40);
        // Vectors: (4 + 4) * 8 = 64.
        assert_eq!(a.working_set_bytes(), 84 + 40 + 64);
    }

    #[test]
    #[should_panic(expected = "rowptr must end at nnz")]
    fn invalid_rowptr_rejected() {
        CsrMatrix::from_parts(1, 1, vec![0, 2], vec![0]);
    }

    #[test]
    #[should_panic(expected = "column index 5 out of bounds")]
    fn invalid_colidx_rejected() {
        CsrMatrix::from_parts(1, 2, vec![0, 1], vec![5]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_rowptr_rejected() {
        CsrMatrix::from_parts(3, 2, vec![0, 2, 1, 2], vec![0, 1]);
    }

    #[test]
    fn fingerprint_is_stable() {
        // Equal structure, equal fingerprint — deterministic across calls.
        assert_eq!(example().fingerprint(), example().fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_patterns() {
        let a = example();
        // Moving one nonzero to a different column changes the print.
        let shifted = CsrMatrix::from_parts(4, 4, vec![0, 2, 3, 5, 7], vec![1, 3, 0, 2, 3, 1, 3]);
        assert_ne!(a.fingerprint(), shifted.fingerprint());
        // Same arrays, different dimensions (extra empty column).
        let wider = CsrMatrix::from_parts(4, 5, vec![0, 2, 3, 5, 7], vec![1, 2, 0, 2, 3, 1, 3]);
        assert_ne!(a.fingerprint(), wider.fingerprint());
        // Same flat nonzero sequence, different row boundaries.
        let rebalanced =
            CsrMatrix::from_parts(4, 4, vec![0, 1, 3, 5, 7], vec![1, 2, 0, 2, 3, 1, 3]);
        assert_ne!(a.fingerprint(), rebalanced.fingerprint());
        assert_ne!(a.fingerprint(), CsrMatrix::identity(4).fingerprint());
    }
}
