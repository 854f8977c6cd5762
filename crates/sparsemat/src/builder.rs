//! Row-ordered CSR assembly.
//!
//! Generators and transformations that emit their entries row by row do
//! not need a coordinate list: [`CsrBuilder`] appends each row's columns
//! straight into the growing `colidx` array, then sorts and collapses the
//! open row in place when it is ended. The result is the same canonical
//! [`CsrMatrix`] that [`CooMatrix::to_csr`](crate::CooMatrix::to_csr)
//! produces from the same entries, at 4 bytes per pushed entry instead of
//! COO's 12 plus a second column array.

use crate::csr::CsrMatrix;

/// Assembles a canonical CSR pattern one row at a time.
///
/// Push a row's columns in any order, with repeats, then call
/// [`end_row`](CsrBuilder::end_row); after exactly `num_rows` ended rows,
/// [`finish`](CsrBuilder::finish) returns the matrix.
///
/// ```
/// use sparsemat::CsrBuilder;
///
/// let mut b = CsrBuilder::with_capacity(2, 3, 4);
/// b.push(2);
/// b.push(0);
/// b.push(2); // a repeated column collapses to one nonzero
/// b.end_row();
/// b.end_row(); // an empty row
/// let a = b.finish();
/// assert_eq!(a.rowptr(), &[0, 2, 2]);
/// assert_eq!(a.colidx(), &[0, 2]);
/// ```
#[derive(Debug)]
pub struct CsrBuilder {
    num_rows: usize,
    num_cols: usize,
    rowptr: Vec<i64>,
    colidx: Vec<u32>,
}

impl CsrBuilder {
    /// Creates a builder for a `num_rows`-by-`num_cols` pattern, reserving
    /// room for `nnz` pushed entries (repeats included).
    ///
    /// # Panics
    ///
    /// Panics if `num_cols` does not fit in `u32`.
    pub fn with_capacity(num_rows: usize, num_cols: usize, nnz: usize) -> Self {
        assert!(
            u32::try_from(num_cols).is_ok(),
            "number of columns {num_cols} exceeds u32 range"
        );
        let mut rowptr = Vec::with_capacity(num_rows + 1);
        rowptr.push(0);
        CsrBuilder {
            num_rows,
            num_cols,
            rowptr,
            colidx: Vec::with_capacity(nnz),
        }
    }

    /// Appends column `col` to the open row. A column pushed after the
    /// last row was ended belongs to no row, and makes
    /// [`finish`](CsrBuilder::finish) panic.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    #[inline]
    pub fn push(&mut self, col: usize) {
        assert!(
            col < self.num_cols,
            "col {col} out of bounds ({})",
            self.num_cols
        );
        self.colidx.push(col as u32);
    }

    /// Ends the open row: sorts its columns and collapses repeats in
    /// place, then opens the next row.
    ///
    /// # Panics
    ///
    /// Panics if all `num_rows` rows have already been ended.
    pub fn end_row(&mut self) {
        let row = self.rowptr.len() - 1;
        assert!(
            row < self.num_rows,
            "cannot end row {row} of a {}-row matrix",
            self.num_rows
        );
        let start = self.rowptr[row] as usize;
        let open = &mut self.colidx[start..];
        // Stencil, block and arrow rows arrive strictly increasing.
        if !open.windows(2).all(|w| w[0] < w[1]) {
            open.sort_unstable();
            let mut len = 1;
            for i in 1..open.len() {
                if open[i] != open[len - 1] {
                    open[len] = open[i];
                    len += 1;
                }
            }
            self.colidx.truncate(start + len);
        }
        self.rowptr.push(self.colidx.len() as i64);
    }

    /// Returns the assembled matrix, validated by
    /// [`CsrMatrix::from_parts`].
    ///
    /// # Panics
    ///
    /// Panics unless exactly `num_rows` rows were ended.
    pub fn finish(self) -> CsrMatrix {
        let ended = self.rowptr.len() - 1;
        assert_eq!(
            ended, self.num_rows,
            "finish after {ended} of {} rows were ended",
            self.num_rows
        );
        CsrMatrix::from_parts(self.num_rows, self.num_cols, self.rowptr, self.colidx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// Builds the same rows through the builder and through COO.
    fn both(num_cols: usize, rows: &[&[usize]]) -> (CsrMatrix, CsrMatrix) {
        let mut b = CsrBuilder::with_capacity(rows.len(), num_cols, 0);
        let mut coo = CooMatrix::new(rows.len(), num_cols);
        for (r, cols) in rows.iter().enumerate() {
            for &c in *cols {
                b.push(c);
                coo.push(r, c);
            }
            b.end_row();
        }
        (b.finish(), coo.to_csr())
    }

    #[test]
    fn unsorted_rows_become_canonical() {
        let (a, want) = both(4, &[&[3, 1, 2], &[0], &[2, 0, 3, 1]]);
        assert_eq!(a.rowptr(), &[0, 3, 4, 8]);
        assert_eq!(a.colidx(), &[1, 2, 3, 0, 0, 1, 2, 3]);
        assert_eq!(a, want);
    }

    #[test]
    fn repeats_collapse_within_a_row_only() {
        // Row 0 ends with column 2 and row 1 starts with it: both stay.
        let (a, want) = both(3, &[&[2, 0, 2, 2], &[2, 2, 1, 1]]);
        assert_eq!(a.rowptr(), &[0, 2, 4]);
        assert_eq!(a.colidx(), &[0, 2, 1, 2]);
        assert_eq!(a, want);
    }

    #[test]
    fn empty_rows_are_kept() {
        let (a, want) = both(5, &[&[], &[4, 4], &[], &[]]);
        assert_eq!(a.rowptr(), &[0, 0, 1, 1, 1]);
        assert_eq!(a.colidx(), &[4]);
        assert_eq!(a, want);
    }

    #[test]
    fn zero_row_matrix() {
        let (a, want) = both(3, &[]);
        assert_eq!((a.num_rows(), a.num_cols(), a.nnz()), (0, 3, 0));
        assert_eq!(a, want);
    }

    #[test]
    #[should_panic(expected = "col 3 out of bounds (3)")]
    fn column_bounds_checked() {
        let mut b = CsrBuilder::with_capacity(2, 3, 1);
        b.push(3);
    }

    #[test]
    #[should_panic(expected = "rowptr must end at nnz")]
    fn push_past_the_last_row_rejected_by_finish() {
        let mut b = CsrBuilder::with_capacity(1, 3, 1);
        b.end_row();
        b.push(0);
        b.finish();
    }

    #[test]
    #[should_panic(expected = "cannot end row 2 of a 2-row matrix")]
    fn ending_too_many_rows_rejected() {
        let mut b = CsrBuilder::with_capacity(2, 3, 0);
        b.end_row();
        b.end_row();
        b.end_row();
    }

    #[test]
    #[should_panic(expected = "finish after 1 of 2 rows were ended")]
    fn finish_before_every_row_rejected() {
        let mut b = CsrBuilder::with_capacity(2, 3, 1);
        b.push(1);
        b.end_row();
        b.push(2);
        b.finish();
    }
}
