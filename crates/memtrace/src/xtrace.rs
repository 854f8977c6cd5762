//! Method (B) trace generation: `x`-vector accesses only.
//!
//! The sink-pushing generator here is the independent reference the
//! cursors are pinned against ([`crate::cursor::XCursor`]) and the trace
//! source of the materialised oracle; production reads the `x` stream
//! through the cursors' block merge.
//!
//! The paper's §3.2.2 approximates SpMV reuse distances from a single pass
//! over a much smaller trace containing only the `x`-vector references
//! implied by `colidx` (one per nonzero, in row-major order). The influence
//! of the other four arrays is reintroduced analytically by the model via
//! the scaling factors `s1`/`s2` and closed-form streaming-miss terms
//! (see method (B) in `locality_core::predict`).

use crate::layout::{Array, DataLayout};
use crate::sink::TraceSink;
use crate::Access;
use sparsemat::CsrMatrix;

/// Generates the method (B) trace (one `x` reference per nonzero) for rows
/// `rows` of `matrix` into `sink`.
///
/// # Panics
///
/// Panics if the row range is out of bounds.
pub fn trace_x_rows<S: TraceSink>(
    matrix: &CsrMatrix,
    layout: &DataLayout,
    rows: std::ops::Range<usize>,
    sink: &mut S,
) {
    assert!(rows.end <= matrix.num_rows(), "row range out of bounds");
    if rows.is_empty() {
        return;
    }
    let colidx = matrix.colidx();
    let start = matrix.rowptr()[rows.start] as usize;
    let end = matrix.rowptr()[rows.end] as usize;
    for &c in &colidx[start..end] {
        sink.access(Access::load(layout.line_of(Array::X, c as usize), Array::X));
    }
}

/// Generates per-thread method (B) traces for the given row partition.
pub fn trace_x_partitioned(
    matrix: &CsrMatrix,
    layout: &DataLayout,
    partition: &sparsemat::RowPartition,
) -> Vec<Vec<Access>> {
    partition
        .iter()
        .map(|rows| {
            let nnz = (matrix.rowptr()[rows.end] - matrix.rowptr()[rows.start]) as usize;
            let mut sink = Vec::with_capacity(nnz);
            trace_x_rows(matrix, layout, rows, &mut sink);
            sink
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::VecSink;
    use crate::spmv_trace;
    use sparsemat::{CsrMatrix, RowPartition};

    fn fig1() -> (CsrMatrix, DataLayout) {
        let m = CsrMatrix::from_parts(4, 4, vec![0, 2, 3, 5, 7], vec![1, 2, 0, 2, 3, 1, 3]);
        let l = DataLayout::new(&m, 16);
        (m, l)
    }

    #[test]
    fn xtrace_has_one_access_per_nonzero() {
        let (m, l) = fig1();
        let mut sink = VecSink::new();
        trace_x_rows(&m, &l, 0..4, &mut sink);
        assert_eq!(sink.trace.len(), m.nnz());
        assert!(sink.trace.iter().all(|a| a.array == Array::X && !a.write));
    }

    #[test]
    fn xtrace_matches_x_subsequence_of_full_trace() {
        let (m, l) = fig1();
        let mut full = VecSink::new();
        spmv_trace::trace_spmv(&m, &l, &mut full);
        let x_only: Vec<u64> = full
            .trace
            .iter()
            .filter(|a| a.array == Array::X)
            .map(|a| a.line)
            .collect();
        let mut xs = VecSink::new();
        trace_x_rows(&m, &l, 0..4, &mut xs);
        let got: Vec<u64> = xs.trace.iter().map(|a| a.line).collect();
        assert_eq!(got, x_only);
    }

    #[test]
    fn partitioned_xtrace_covers_all_nonzeros() {
        let (m, l) = fig1();
        let p = RowPartition::static_rows(4, 3);
        let blocks = trace_x_partitioned(&m, &l, &p);
        let total: usize = blocks.iter().map(|b| b.len()).sum();
        assert_eq!(total, m.nnz());
    }
}
