//! Method (A) trace generation: the full SpMV memory access pattern.
//!
//! The trace reproduces the reference pattern of the paper's Listing 1
//! kernel at cache-line granularity (Fig. 1 (b)):
//!
//! * at loop entry, `rowptr[r0]` is read once;
//! * for each row `r`: the loop bound `rowptr[r + 1]` is read, then for
//!   each nonzero `i` in the row the values `a[i]`, `colidx[i]` and
//!   `x[colidx[i]]` are read, and finally `y[r]` is updated (one store —
//!   the accumulator lives in a register during the inner loop, as the
//!   compiled kernel keeps it).
//!
//! A trace for rows `r0..r1` is exactly what the thread owning that row
//! block produces. This sink-pushing generator is the independent
//! reference the cursors are pinned against ([`crate::cursor::SpmvCursor`])
//! and the trace source of the materialised oracle; production reads the
//! stream through the cursors' block merge.

use crate::layout::{Array, DataLayout};
use crate::sink::TraceSink;
use crate::Access;
use sparsemat::CsrMatrix;

/// Number of references method (A) generates for rows `r0..r1` with `k`
/// nonzeros: `1 + (r1 - r0)` rowptr + `3k` (a, colidx, x) + `(r1 - r0)` y.
pub fn trace_len(num_rows_in_block: usize, nnz_in_block: usize) -> usize {
    1 + 2 * num_rows_in_block + 3 * nnz_in_block
}

/// Generates the method (A) trace for rows `rows` of `matrix` into `sink`.
///
/// # Panics
///
/// Panics if the row range is out of bounds.
pub fn trace_spmv_rows<S: TraceSink>(
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
    // Loop entry: rowptr[r0].
    sink.access(Access::load(
        layout.line_of(Array::RowPtr, rows.start),
        Array::RowPtr,
    ));
    for r in rows {
        // Loop bound for row r.
        sink.access(Access::load(
            layout.line_of(Array::RowPtr, r + 1),
            Array::RowPtr,
        ));
        for i in matrix.row_range(r) {
            sink.access(Access::load(layout.line_of(Array::A, i), Array::A));
            sink.access(Access::load(
                layout.line_of(Array::ColIdx, i),
                Array::ColIdx,
            ));
            let c = colidx[i] as usize;
            sink.access(Access::load(layout.line_of(Array::X, c), Array::X));
        }
        sink.access(Access::store(layout.line_of(Array::Y, r), Array::Y));
    }
}

/// Generates the full sequential method (A) trace of one SpMV iteration.
pub fn trace_spmv<S: TraceSink>(matrix: &CsrMatrix, layout: &DataLayout, sink: &mut S) {
    trace_spmv_rows(matrix, layout, 0..matrix.num_rows(), sink);
}

/// Generates per-thread method (A) traces for the given row partition.
///
/// Returns one trace per partition block, in block order. This is the
/// multi-threaded trace recording of the paper's §3.2.1, done
/// deterministically (each block's trace is independent of scheduling).
pub fn trace_spmv_partitioned(
    matrix: &CsrMatrix,
    layout: &DataLayout,
    partition: &sparsemat::RowPartition,
) -> Vec<Vec<Access>> {
    partition
        .iter()
        .map(|rows| {
            let nnz = (matrix.rowptr()[rows.end] - matrix.rowptr()[rows.start]) as usize;
            let mut sink = Vec::with_capacity(trace_len(rows.len(), nnz));
            trace_spmv_rows(matrix, layout, rows, &mut sink);
            sink
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CountSink, VecSink};
    use sparsemat::{CooMatrix, RowPartition};

    /// The paper's Fig. 1 matrix: 4x4, 7 nonzeros, rows
    /// {1,2}, {0}, {2,3}, {1,3}; 16-byte cache lines.
    fn fig1() -> (CsrMatrix, DataLayout) {
        let m = CsrMatrix::from_parts(4, 4, vec![0, 2, 3, 5, 7], vec![1, 2, 0, 2, 3, 1, 3]);
        let l = DataLayout::new(&m, 16);
        (m, l)
    }

    #[test]
    fn reference_counts_match_formula() {
        let (m, l) = fig1();
        let mut sink = CountSink::new();
        trace_spmv(&m, &l, &mut sink);
        assert_eq!(sink.total() as usize, trace_len(4, 7));
        assert_eq!(sink.counts[Array::RowPtr as usize], 5); // M + 1
        assert_eq!(sink.counts[Array::A as usize], 7);
        assert_eq!(sink.counts[Array::ColIdx as usize], 7);
        assert_eq!(sink.counts[Array::X as usize], 7);
        assert_eq!(sink.counts[Array::Y as usize], 4);
        assert_eq!(sink.writes, 4); // only y stores
    }

    #[test]
    fn first_row_trace_order() {
        let (m, l) = fig1();
        let mut sink = VecSink::new();
        trace_spmv_rows(&m, &l, 0..1, &mut sink);
        let lines: Vec<(u64, Array)> = sink.trace.iter().map(|a| (a.line, a.array)).collect();
        // rowptr[0] (line 10), rowptr[1] (line 10), a[0] (4), col[0] (8),
        // x[1] (0), a[1] (4), col[1] (8), x[2] (1), y[0] (2).
        assert_eq!(
            lines,
            vec![
                (10, Array::RowPtr),
                (10, Array::RowPtr),
                (4, Array::A),
                (8, Array::ColIdx),
                (0, Array::X),
                (4, Array::A),
                (8, Array::ColIdx),
                (1, Array::X),
                (2, Array::Y),
            ]
        );
    }

    #[test]
    fn x_lines_follow_sparsity_pattern() {
        let (m, l) = fig1();
        let mut sink = VecSink::new();
        trace_spmv(&m, &l, &mut sink);
        let x_lines: Vec<u64> = sink
            .trace
            .iter()
            .filter(|a| a.array == Array::X)
            .map(|a| a.line)
            .collect();
        // Columns in row order: 1,2,0,2,3,1,3 -> lines 0,1,0,1,1,0,1.
        assert_eq!(x_lines, vec![0, 1, 0, 1, 1, 0, 1]);
    }

    #[test]
    fn partitioned_traces_concatenate_to_sequential() {
        let (m, l) = fig1();
        // With chunk boundaries at rows, the concatenation of block traces
        // differs from the sequential trace only by the extra loop-entry
        // rowptr access per block.
        let p = RowPartition::static_rows(4, 2);
        let blocks = trace_spmv_partitioned(&m, &l, &p);
        assert_eq!(blocks.len(), 2);
        let total: usize = blocks.iter().map(|b| b.len()).sum();
        assert_eq!(total, trace_len(2, 3) + trace_len(2, 4));
        // Each block's x accesses must match its own rows' columns.
        let x0: Vec<u64> = blocks[0]
            .iter()
            .filter(|a| a.array == Array::X)
            .map(|a| a.line)
            .collect();
        assert_eq!(x0, vec![0, 1, 0]); // rows 0..2: cols 1,2,0
    }

    #[test]
    fn empty_row_range_produces_nothing() {
        let (m, l) = fig1();
        let mut sink = VecSink::new();
        trace_spmv_rows(&m, &l, 2..2, &mut sink);
        assert!(sink.trace.is_empty());
    }

    #[test]
    fn empty_rows_still_touch_rowptr_and_y() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(1, 1);
        let m = coo.to_csr();
        let l = DataLayout::new(&m, 16);
        let mut sink = CountSink::new();
        trace_spmv(&m, &l, &mut sink);
        assert_eq!(sink.counts[Array::RowPtr as usize], 4);
        assert_eq!(sink.counts[Array::Y as usize], 3);
        assert_eq!(sink.counts[Array::X as usize], 1);
    }

    #[test]
    #[should_panic(expected = "row range out of bounds")]
    fn out_of_bounds_rows_rejected() {
        let (m, l) = fig1();
        let mut sink = VecSink::new();
        trace_spmv_rows(&m, &l, 0..5, &mut sink);
    }
}
