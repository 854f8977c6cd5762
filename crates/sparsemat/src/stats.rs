//! Per-matrix statistics used by the model and the evaluation.
//!
//! The paper's §4.5 filters matrices by the mean (`μ_K`) and coefficient of
//! variation (`CV_K = σ_K / μ_K`) of the nonzeros-per-row distribution:
//! method (B)'s accuracy degrades for matrices with low `μ_K` and high
//! `CV_K`. [`MatrixStats`] computes these together with structural
//! measures (bandwidth, diagonal fraction) used by the corpus generators'
//! self-checks.

use crate::csr::CsrMatrix;

/// Summary statistics of a sparse matrix's nonzero structure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatrixStats {
    /// Number of rows (`M`).
    pub num_rows: usize,
    /// Number of columns (`N`).
    pub num_cols: usize,
    /// Number of nonzeros (`K`).
    pub nnz: usize,
    /// Mean nonzeros per row, the paper's `μ_K`.
    pub row_nnz_mean: f64,
    /// Standard deviation of nonzeros per row, the paper's `σ_K`
    /// (population standard deviation).
    pub row_nnz_std: f64,
    /// Coefficient of variation `CV_K = σ_K / μ_K` (0 when `μ_K = 0`).
    pub row_nnz_cv: f64,
    /// Maximum nonzeros in any row.
    pub row_nnz_max: usize,
    /// Number of rows with no nonzeros.
    pub empty_rows: usize,
    /// Matrix bandwidth: `max |r - c|` over stored entries (0 if empty).
    pub bandwidth: usize,
    /// Fraction of stored entries on the main diagonal.
    pub diag_fraction: f64,
}

impl MatrixStats {
    /// Computes statistics for `matrix` in a single pass over its pattern.
    pub fn compute(matrix: &CsrMatrix) -> Self {
        let m = matrix.num_rows();
        let k = matrix.nnz();
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut row_nnz_max = 0usize;
        let mut empty_rows = 0usize;
        let mut bandwidth = 0usize;
        let mut diag = 0usize;
        for r in 0..m {
            let nnz_r = matrix.row_nnz(r);
            sum += nnz_r as f64;
            sum_sq += (nnz_r * nnz_r) as f64;
            row_nnz_max = row_nnz_max.max(nnz_r);
            if nnz_r == 0 {
                empty_rows += 1;
            }
            for i in matrix.row_range(r) {
                let c = matrix.colidx()[i] as usize;
                bandwidth = bandwidth.max(r.abs_diff(c));
                if c == r {
                    diag += 1;
                }
            }
        }
        let mean = if m > 0 { sum / m as f64 } else { 0.0 };
        let var = if m > 0 {
            (sum_sq / m as f64 - mean * mean).max(0.0)
        } else {
            0.0
        };
        let std = var.sqrt();
        MatrixStats {
            num_rows: m,
            num_cols: matrix.num_cols(),
            nnz: k,
            row_nnz_mean: mean,
            row_nnz_std: std,
            row_nnz_cv: if mean > 0.0 { std / mean } else { 0.0 },
            row_nnz_max,
            empty_rows,
            bandwidth,
            diag_fraction: if k > 0 { diag as f64 / k as f64 } else { 0.0 },
        }
    }

    /// The paper's §4.5.2 "well-behaved" predicate for method (B):
    /// `μ_K ≥ 8` and `CV_K ≤ 1`.
    pub fn is_method_b_friendly(&self) -> bool {
        self.row_nnz_mean >= 8.0 && self.row_nnz_cv <= 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    #[test]
    fn identity_stats() {
        let s = MatrixStats::compute(&CsrMatrix::identity(10));
        assert_eq!(s.nnz, 10);
        assert_eq!(s.row_nnz_mean, 1.0);
        assert_eq!(s.row_nnz_std, 0.0);
        assert_eq!(s.row_nnz_cv, 0.0);
        assert_eq!(s.row_nnz_max, 1);
        assert_eq!(s.empty_rows, 0);
        assert_eq!(s.bandwidth, 0);
        assert_eq!(s.diag_fraction, 1.0);
    }

    #[test]
    fn skewed_stats() {
        // Rows with 4, 0, 2 nonzeros: mean = 2, var = (16+0+4)/3 - 4 = 8/3.
        let mut coo = CooMatrix::new(3, 8);
        for c in 0..4 {
            coo.push(0, c);
        }
        coo.push(2, 2);
        coo.push(2, 7);
        let s = MatrixStats::compute(&coo.to_csr());
        assert_eq!(s.row_nnz_mean, 2.0);
        assert!((s.row_nnz_std - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.empty_rows, 1);
        assert_eq!(s.row_nnz_max, 4);
        assert_eq!(s.bandwidth, 5); // |2 - 7|
                                    // Diagonal entries: (0,0) and (2,2) out of 6 stored.
        assert!((s.diag_fraction - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn method_b_friendly_predicate() {
        // Dense-ish rows, uniform: friendly.
        let mut coo = CooMatrix::new(4, 16);
        for r in 0..4 {
            for c in 0..10 {
                coo.push(r, c);
            }
        }
        assert!(MatrixStats::compute(&coo.to_csr()).is_method_b_friendly());
        // Sparse rows: unfriendly (mean < 8).
        assert!(!MatrixStats::compute(&CsrMatrix::identity(4)).is_method_b_friendly());
    }

    #[test]
    fn empty_matrix_stats_are_finite() {
        let s = MatrixStats::compute(&CooMatrix::new(0, 0).to_csr());
        assert_eq!(s.nnz, 0);
        assert_eq!(s.row_nnz_mean, 0.0);
        assert_eq!(s.row_nnz_cv, 0.0);
        assert_eq!(s.diag_fraction, 0.0);
    }
}
