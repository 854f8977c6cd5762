//! Closed-form streaming-traffic terms of the model (§3.1).
//!
//! The matrix data (`a`, `colidx`) is touched exactly once per SpMV
//! iteration in ascending order, and `rowptr`/`y` likewise; when such an
//! array does not stay resident, it incurs exactly one capacity miss per
//! cache line per iteration:
//!
//! * `a`:      `⌈8K/L⌉` misses,
//! * `colidx`: `⌈4K/L⌉`,
//! * `rowptr`: `⌈8(M+1)/L⌉`,
//! * `y`:      `⌈8M/L⌉`,
//!
//! for an `M`-by-`N` matrix with `K` nonzeros and line size `L`.
//!
//! The method (B) scaling factors translate `x`-only reuse distances into
//! full-trace reuse distances: each distinct `x` element access is
//! accompanied on average by `16·M/K + 8` bytes of other partition-0 data
//! when `a`/`colidx` are isolated (`s1`) and by 12 more bytes of `a` +
//! `colidx` when they are not (`s2`), relative to the 8-byte `x` element:
//!
//! * `s1 = (16·M/K + 8) / 8`
//! * `s2 = (16·M/K + 20) / 8`

use sparsemat::CsrMatrix;

/// Streaming-miss term for the `a` array: `⌈8K/L⌉`.
pub fn stream_misses_a(nnz: usize, line_bytes: usize) -> u64 {
    (8 * nnz).div_ceil(line_bytes) as u64
}

/// Streaming-miss term for `colidx`: `⌈4K/L⌉`.
pub fn stream_misses_colidx(nnz: usize, line_bytes: usize) -> u64 {
    (4 * nnz).div_ceil(line_bytes) as u64
}

/// Streaming-miss term for the metadata stream (the `rowptr` role):
/// `⌈8·meta/L⌉` for `meta` 8-byte elements streamed per iteration —
/// `M + 1` row pointers for CSR, one descriptor per chunk for SELL-C-σ.
pub fn stream_misses_meta(meta_elems: usize, line_bytes: usize) -> u64 {
    (8 * meta_elems).div_ceil(line_bytes) as u64
}

/// Streaming-miss term for `rowptr`: `⌈8(M+1)/L⌉`.
pub fn stream_misses_rowptr(num_rows: usize, line_bytes: usize) -> u64 {
    stream_misses_meta(num_rows + 1, line_bytes)
}

/// Streaming-miss term for `y`: `⌈8M/L⌉`.
pub fn stream_misses_y(num_rows: usize, line_bytes: usize) -> u64 {
    (8 * num_rows).div_ceil(line_bytes) as u64
}

/// Method (B) scaling factor without partitioning (`x` additionally shares
/// the cache with `a` and `colidx`): `s2 = (16·M/K + 20)/8`.
///
/// # Panics
///
/// Panics if the matrix has no nonzeros.
pub fn scale_s2(num_rows: usize, nnz: usize) -> f64 {
    assert!(nnz > 0, "scaling factor undefined for an empty matrix");
    (16.0 * num_rows as f64 / nnz as f64 + 20.0) / 8.0
}

/// Method (B) scaling factor with partitioning (`x` shares partition 0
/// with `rowptr` and `y`), format-generic: partition-0 companion bytes
/// per `x` reference relative to the 8-byte `x` element, `(c/K + 8)/8`
/// for `c` companion bytes over `K` `x` references. With CSR's `c = 16·M`
/// this is the paper's `s1 = (16·M/K + 8)/8`.
///
/// # Panics
///
/// Panics if the workload issues no `x` references.
pub fn scale_part0(companion0_bytes: usize, x_refs: usize) -> f64 {
    assert!(x_refs > 0, "scaling factor undefined for an empty workload");
    (companion0_bytes as f64 / x_refs as f64 + 8.0) / 8.0
}

/// Format-generic `s2`: like [`scale_part0`] plus the 12 bytes of matrix
/// stream (`a` + index) per `x` reference, `(c/K + 20)/8`.
///
/// # Panics
///
/// Panics if the workload issues no `x` references.
pub fn scale_unpart(companion0_bytes: usize, x_refs: usize) -> f64 {
    assert!(x_refs > 0, "scaling factor undefined for an empty workload");
    (companion0_bytes as f64 / x_refs as f64 + 20.0) / 8.0
}

/// Convenience: all four streaming terms for a matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamTerms {
    /// `⌈8K/L⌉`.
    pub a: u64,
    /// `⌈4K/L⌉`.
    pub colidx: u64,
    /// `⌈8(M+1)/L⌉`.
    pub rowptr: u64,
    /// `⌈8M/L⌉`.
    pub y: u64,
}

impl StreamTerms {
    /// Computes the terms for `matrix` with line size `line_bytes`.
    pub fn of(matrix: &CsrMatrix, line_bytes: usize) -> Self {
        StreamTerms {
            a: stream_misses_a(matrix.nnz(), line_bytes),
            colidx: stream_misses_colidx(matrix.nnz(), line_bytes),
            rowptr: stream_misses_rowptr(matrix.num_rows(), line_bytes),
            y: stream_misses_y(matrix.num_rows(), line_bytes),
        }
    }

    /// Sum of all four terms.
    pub fn total(&self) -> u64 {
        self.a + self.colidx + self.rowptr + self.y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{Array, DataLayout};

    #[test]
    fn terms_match_paper_formulas() {
        // M = 1000 rows, K = 5000 nonzeros, L = 256 (the A64FX line).
        let l = memtrace::A64FX_LINE_BYTES;
        assert_eq!(stream_misses_a(5000, l), 157); // ceil(40000/256)
        assert_eq!(stream_misses_colidx(5000, l), 79); // ceil(20000/256)
        assert_eq!(stream_misses_rowptr(1000, l), 32); // ceil(8008/256)
        assert_eq!(stream_misses_y(1000, l), 32); // ceil(8000/256)
    }

    #[test]
    fn terms_equal_layout_line_counts() {
        // The closed forms are exactly the number of cache lines each array
        // occupies in the layout.
        let m = sparsemat::CsrMatrix::identity(321);
        let layout = DataLayout::new(&m, memtrace::A64FX_LINE_BYTES);
        let t = StreamTerms::of(&m, memtrace::A64FX_LINE_BYTES);
        assert_eq!(t.a, layout.array_lines(Array::A));
        assert_eq!(t.colidx, layout.array_lines(Array::ColIdx));
        assert_eq!(t.rowptr, layout.array_lines(Array::RowPtr));
        assert_eq!(t.y, layout.array_lines(Array::Y));
    }

    #[test]
    fn scaling_factors() {
        // CSR's partition-0 companions: 16 bytes (`y` + `rowptr`) per row.
        let s1 = |rows: usize, nnz: usize| scale_part0(16 * rows, nnz);
        // M/K = 1: s1 = 24/8 = 3, s2 = 36/8 = 4.5.
        assert_eq!(s1(100, 100), 3.0);
        assert_eq!(scale_s2(100, 100), 4.5);
        // Dense-ish rows (K >> M): s1 -> 1, s2 -> 2.5.
        assert!((s1(10, 100_000) - 1.0).abs() < 0.01);
        assert!((scale_s2(10, 100_000) - 2.5).abs() < 0.01);
        // s2 > s1 always.
        assert!(scale_s2(7, 13) > s1(7, 13));
    }

    #[test]
    #[should_panic(expected = "empty matrix")]
    fn empty_matrix_scaling_rejected() {
        scale_s2(10, 0);
    }
}
