//! Coordinate (row, column pair) sparsity-pattern format.
//!
//! COO is the assembly format for Matrix Market input ([`crate::mm`]),
//! whose entries arrive in any order: entries can be pushed in any order
//! and duplicates are allowed until conversion. Sources that emit their
//! entries row by row assemble with [`crate::CsrBuilder`] instead, without
//! the 12 bytes per entry and the sorting copy. Only positions are stored —
//! the matrix values are modelled, not kept (see [`crate::csr`]) — so
//! [`CooMatrix::to_csr`] sorts and collapses each duplicate position to a
//! single nonzero, producing a canonical [`CsrMatrix`].

use crate::csr::CsrMatrix;

/// A sparsity pattern in coordinate format.
///
/// Entries are stored in insertion order; rows and columns are kept in
/// parallel arrays. The matrix dimensions are fixed at construction and
/// every pushed entry is bounds-checked against them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CooMatrix {
    num_rows: usize,
    num_cols: usize,
    rows: Vec<usize>,
    cols: Vec<u32>,
}

impl CooMatrix {
    /// Creates an empty COO matrix with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `num_cols` does not fit in `u32`, since column indices are
    /// stored as 4-byte integers throughout this workspace (matching the
    /// paper's `colidx` accounting).
    pub fn new(num_rows: usize, num_cols: usize) -> Self {
        assert!(
            u32::try_from(num_cols).is_ok(),
            "number of columns {num_cols} exceeds u32 range"
        );
        CooMatrix {
            num_rows,
            num_cols,
            rows: Vec::new(),
            cols: Vec::new(),
        }
    }

    /// Creates an empty COO matrix with capacity reserved for `nnz` entries.
    pub fn with_capacity(num_rows: usize, num_cols: usize, nnz: usize) -> Self {
        let mut m = Self::new(num_rows, num_cols);
        m.rows.reserve(nnz);
        m.cols.reserve(nnz);
        m
    }

    /// Appends the entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn push(&mut self, row: usize, col: usize) {
        assert!(
            row < self.num_rows,
            "row {row} out of bounds ({})",
            self.num_rows
        );
        assert!(
            col < self.num_cols,
            "col {col} out of bounds ({})",
            self.num_cols
        );
        self.rows.push(row);
        self.cols.push(col as u32);
    }

    /// Appends the entry, and its transpose mirror if off-diagonal.
    ///
    /// Convenience for assembling symmetric matrices from one triangle, as
    /// Matrix Market symmetric files store them.
    pub fn push_symmetric(&mut self, row: usize, col: usize) {
        self.push(row, col);
        if row != col {
            self.push(col, row);
        }
    }

    /// Converts to CSR, sorting entries and collapsing duplicates.
    ///
    /// Sorting is done with a counting pass over rows (O(nnz + rows)), then
    /// each row's columns are sorted and repeated columns removed. The
    /// resulting CSR is canonical: strictly increasing column indices
    /// within each row.
    pub fn to_csr(&self) -> CsrMatrix {
        // Counting sort by row.
        let mut next = vec![0i64; self.num_rows + 1];
        for &r in &self.rows {
            next[r + 1] += 1;
        }
        for i in 0..self.num_rows {
            next[i + 1] += next[i];
        }
        let rowptr_raw = next.clone();
        let mut cols = vec![0u32; self.cols.len()];
        for (&r, &c) in self.rows.iter().zip(&self.cols) {
            cols[next[r] as usize] = c;
            next[r] += 1;
        }

        // Sort within each row by column, then compact duplicates in place:
        // the output written so far never passes the input still unread.
        let mut rowptr: Vec<i64> = Vec::with_capacity(self.num_rows + 1);
        rowptr.push(0);
        let mut len = 0;
        for r in 0..self.num_rows {
            let (b, e) = (rowptr_raw[r] as usize, rowptr_raw[r + 1] as usize);
            cols[b..e].sort_unstable();
            let row_start = len;
            for i in b..e {
                if len == row_start || cols[len - 1] != cols[i] {
                    cols[len] = cols[i];
                    len += 1;
                }
            }
            rowptr.push(len as i64);
        }
        cols.truncate(len);

        CsrMatrix::from_parts(self.num_rows, self.num_cols, rowptr, cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_roundtrip() {
        let csr = CooMatrix::new(3, 4).to_csr();
        assert_eq!(csr.num_rows(), 3);
        assert_eq!(csr.num_cols(), 4);
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn unsorted_entries_become_canonical() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(1, 2);
        coo.push(0, 1);
        coo.push(1, 0);
        coo.push(0, 0);
        let csr = coo.to_csr();
        assert_eq!(csr.rowptr(), &[0, 2, 4]);
        assert_eq!(csr.colidx(), &[0, 1, 0, 2]);
    }

    #[test]
    fn duplicates_collapse() {
        let mut coo = CooMatrix::new(3, 2);
        coo.push(0, 1);
        coo.push(2, 0);
        coo.push(0, 1);
        coo.push(0, 0);
        coo.push(2, 0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.rowptr(), &[0, 2, 2, 3]);
        assert_eq!(csr.colidx(), &[0, 1, 0]);
    }

    #[test]
    fn symmetric_push_mirrors_offdiagonal() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_symmetric(0, 0);
        coo.push_symmetric(2, 0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 3);
        assert!(csr.contains(0, 2));
        assert!(csr.contains(2, 0));
        assert!(csr.contains(0, 0));
    }

    #[test]
    #[should_panic(expected = "row 2 out of bounds")]
    fn row_bounds_checked() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(2, 0);
    }

    #[test]
    #[should_panic(expected = "col 7 out of bounds")]
    fn col_bounds_checked() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 7);
    }
}
