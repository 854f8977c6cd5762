//! Property-based tests of the matrix transformations: format conversions
//! and permutations preserve the pattern, and partitions cover every row.

use proptest::prelude::*;
use sparsemat::{reorder, CooMatrix, CsrBuilder, CsrMatrix, MatrixStats, RowPartition};

/// Arbitrary sparse matrix as (rows, cols, entries).
fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (1usize..40, 1usize..40)
        .prop_flat_map(|(rows, cols)| {
            let entries = prop::collection::vec((0..rows, 0..cols), 0..rows * 4);
            (Just(rows), Just(cols), entries)
        })
        .prop_map(|(rows, cols, entries)| {
            let mut coo = CooMatrix::new(rows, cols);
            for (r, c) in entries {
                coo.push(r, c);
            }
            coo.to_csr()
        })
}

/// Arbitrary rows of column indices, as (cols, rows): 0 to 19 rows of 0
/// to 7 columns each, drawn from so few columns that repeats are common.
fn arb_rows() -> impl Strategy<Value = (usize, Vec<Vec<usize>>)> {
    (1usize..6, 0usize..20).prop_flat_map(|(cols, rows)| {
        let row = prop::collection::vec(0..cols, 0..8);
        (Just(cols), prop::collection::vec(row, rows..rows + 1))
    })
}

/// Arbitrary square symmetric-pattern matrix (for RCM).
fn arb_square() -> impl Strategy<Value = CsrMatrix> {
    (2usize..30)
        .prop_flat_map(|n| {
            let entries = prop::collection::vec((0..n, 0..n), 0..n * 3);
            (Just(n), entries)
        })
        .prop_map(|(n, entries)| {
            let mut coo = CooMatrix::new(n, n);
            for v in 0..n {
                coo.push(v, v);
            }
            for (r, c) in entries {
                coo.push_symmetric(r, c);
            }
            coo.to_csr()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// COO -> CSR -> COO -> CSR is a fixed point.
    #[test]
    fn format_roundtrip(a in arb_matrix()) {
        let mut coo = CooMatrix::new(a.num_rows(), a.num_cols());
        for r in 0..a.num_rows() {
            for c in a.row(r) {
                coo.push(r, c);
            }
        }
        prop_assert_eq!(a, coo.to_csr());
    }

    /// Row-ordered assembly equals COO assembly of the same entries:
    /// unsorted columns, repeats, empty rows and zero-row matrices alike.
    #[test]
    fn builder_matches_coo(m in arb_rows()) {
        let (cols, rows) = m;
        let mut b = CsrBuilder::with_capacity(rows.len(), cols, 0);
        let mut coo = CooMatrix::new(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            for &c in row {
                b.push(c);
                coo.push(r, c);
            }
            b.end_row();
        }
        prop_assert_eq!(b.finish(), coo.to_csr());
    }

    /// Transpose is an involution and preserves nnz.
    #[test]
    fn transpose_involution(a in arb_matrix()) {
        let t = a.transpose();
        prop_assert_eq!(t.nnz(), a.nnz());
        prop_assert_eq!(t.transpose(), a);
    }

    /// RCM produces a valid permutation and never increases the bandwidth
    /// of a path-connected... of any symmetric-pattern matrix by more than
    /// the trivial bound (n - 1).
    #[test]
    fn rcm_is_valid_permutation(a in arb_square()) {
        let perm = reorder::reverse_cuthill_mckee(&a);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..a.num_rows()).collect::<Vec<_>>());
        // The permuted matrix is a legal CSR with the same nnz.
        let pm = a.permute_symmetric(&perm);
        let bw = MatrixStats::compute(&pm).bandwidth;
        prop_assert!(bw <= a.num_rows().saturating_sub(1));
        prop_assert_eq!(pm.nnz(), a.nnz());
    }

    /// Partition blocks are contiguous, disjoint and cover all rows for
    /// both partitioners.
    #[test]
    fn partitions_cover(a in arb_matrix(), threads in 1usize..8) {
        for p in [
            RowPartition::static_rows(a.num_rows(), threads),
            RowPartition::balanced_nnz(&a, threads),
        ] {
            prop_assert_eq!(p.num_parts(), threads);
            prop_assert_eq!(p.bounds()[0], 0);
            prop_assert_eq!(*p.bounds().last().unwrap(), a.num_rows());
            for w in p.bounds().windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }
    }
}
