//! Static row partitioning of a CSR matrix across threads.
//!
//! The paper's kernel parallelises the outer row loop with an OpenMP
//! worksharing construct. With the default static schedule each thread
//! receives one contiguous block of rows of (nearly) equal *row* count —
//! that is [`RowPartition::static_rows`]. Alappat et al.'s load-balancing
//! optimisation instead equalises the *nonzero* count per thread, which is
//! [`RowPartition::balanced_nnz`] (used by the Table 1 comparator).

use crate::csr::CsrMatrix;

/// A partition of the rows `0..num_rows` into `num_parts` contiguous blocks.
///
/// Block `t` covers the half-open row range `bounds[t]..bounds[t + 1]`.
/// Blocks may be empty when there are more parts than rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowPartition {
    bounds: Vec<usize>,
}

impl RowPartition {
    /// Partitions rows into `num_parts` blocks of (nearly) equal row count,
    /// mimicking an OpenMP `schedule(static)` worksharing loop.
    ///
    /// The first `num_rows % num_parts` blocks receive one extra row.
    ///
    /// # Panics
    ///
    /// Panics if `num_parts == 0`.
    pub fn static_rows(num_rows: usize, num_parts: usize) -> Self {
        assert!(num_parts > 0, "cannot partition into zero parts");
        let base = num_rows / num_parts;
        let extra = num_rows % num_parts;
        let mut bounds = Vec::with_capacity(num_parts + 1);
        let mut pos = 0;
        bounds.push(0);
        for t in 0..num_parts {
            pos += base + usize::from(t < extra);
            bounds.push(pos);
        }
        debug_assert_eq!(pos, num_rows);
        RowPartition { bounds }
    }

    /// Partitions rows into `num_parts` contiguous blocks of (nearly) equal
    /// *nonzero* count, the load-balancing scheme of Alappat et al.
    ///
    /// Boundaries are chosen greedily: block `t` ends at the first row whose
    /// cumulative nonzero count reaches `(t + 1) / num_parts` of the total.
    ///
    /// # Panics
    ///
    /// Panics if `num_parts == 0`.
    pub fn balanced_nnz(matrix: &CsrMatrix, num_parts: usize) -> Self {
        assert!(num_parts > 0, "cannot partition into zero parts");
        let num_rows = matrix.num_rows();
        let total = matrix.nnz() as u128;
        let rowptr = matrix.rowptr();
        let mut bounds = Vec::with_capacity(num_parts + 1);
        bounds.push(0);
        let mut row = 0usize;
        for t in 0..num_parts {
            let target = (total * (t as u128 + 1)) / num_parts as u128;
            while row < num_rows && (rowptr[row + 1] as u128) < target {
                row += 1;
            }
            // Include the row that crosses the target, except after the last.
            if t + 1 < num_parts {
                if row < num_rows {
                    row += 1;
                }
                bounds.push(row);
            } else {
                bounds.push(num_rows);
            }
        }
        RowPartition { bounds }
    }

    /// Number of blocks.
    pub fn num_parts(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The row range of block `t`.
    pub fn range(&self, t: usize) -> std::ops::Range<usize> {
        self.bounds[t]..self.bounds[t + 1]
    }

    /// Iterates over all block ranges in order.
    pub fn iter(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        (0..self.num_parts()).map(move |t| self.range(t))
    }

    /// The raw boundary array (`num_parts + 1` entries).
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// Maximum number of nonzeros assigned to any block — the makespan
    /// that governs parallel SpMV load balance.
    fn max_block_nnz(p: &RowPartition, matrix: &CsrMatrix) -> usize {
        p.iter()
            .map(|r| (matrix.rowptr()[r.end] - matrix.rowptr()[r.start]) as usize)
            .max()
            .unwrap_or(0)
    }

    fn skewed_matrix() -> CsrMatrix {
        // 8 rows; row 0 has 16 nonzeros, the rest have 1 each.
        let mut coo = CooMatrix::new(8, 16);
        for c in 0..16 {
            coo.push(0, c);
        }
        for r in 1..8 {
            coo.push(r, r);
        }
        coo.to_csr()
    }

    #[test]
    fn static_rows_exact_division() {
        let p = RowPartition::static_rows(12, 4);
        assert_eq!(p.bounds(), &[0, 3, 6, 9, 12]);
    }

    #[test]
    fn static_rows_with_remainder() {
        let p = RowPartition::static_rows(10, 4);
        assert_eq!(p.bounds(), &[0, 3, 6, 8, 10]);
        let total: usize = p.iter().map(|r| r.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn static_rows_more_parts_than_rows() {
        let p = RowPartition::static_rows(2, 5);
        assert_eq!(p.num_parts(), 5);
        let total: usize = p.iter().map(|r| r.len()).sum();
        assert_eq!(total, 2);
        // Ranges are contiguous and non-overlapping.
        for t in 0..4 {
            assert_eq!(p.range(t).end, p.range(t + 1).start);
        }
    }

    #[test]
    fn balanced_nnz_covers_all_rows() {
        let m = skewed_matrix();
        let p = RowPartition::balanced_nnz(&m, 3);
        assert_eq!(p.num_parts(), 3);
        assert_eq!(p.bounds()[0], 0);
        assert_eq!(*p.bounds().last().unwrap(), 8);
    }

    #[test]
    fn balanced_nnz_beats_static_on_skewed_matrix() {
        let m = skewed_matrix();
        let stat = RowPartition::static_rows(m.num_rows(), 4);
        let bal = RowPartition::balanced_nnz(&m, 4);
        // Static: block 0 holds the fat row plus another -> 17 nnz.
        // Balanced: fat row isolated -> 16 nnz.
        assert!(max_block_nnz(&bal, &m) <= max_block_nnz(&stat, &m));
        assert_eq!(max_block_nnz(&bal, &m), 16);
    }

    #[test]
    fn balanced_nnz_uniform_matrix_matches_static() {
        let m = CsrMatrix::identity(12);
        let bal = RowPartition::balanced_nnz(&m, 4);
        let total: usize = bal.iter().map(|r| r.len()).sum();
        assert_eq!(total, 12);
        assert_eq!(max_block_nnz(&bal, &m), 3);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn zero_parts_rejected() {
        RowPartition::static_rows(4, 0);
    }
}
