//! Reference trace derivation for SELL-C-σ SpMV — test-only.
//!
//! The five array *roles* of the CSR analysis map directly: the padded
//! `values`/`colidx` arrays are the non-temporal stream (sector 1 under
//! the Listing 1 policy), the per-chunk metadata plays the `rowptr` role,
//! and `x`/`y` are unchanged — so the same partitioned reuse-distance
//! machinery predicts SELL-C-σ cache behaviour without modification.
//!
//! Access pattern per chunk (matching the kernel in
//! `sparsemat::sell::SellMatrix::spmv`): the chunk metadata, then for each
//! padded column `j` and lane the `values`, `colidx` and gathered `x`
//! elements, then one `y` update per row of the chunk.
//!
//! Production traces SELL-C-σ through [`crate::cursor::SellCursor`] (the
//! matrix is a [`crate::SpmvWorkload`]); this straight-line generator is
//! the independent reference the cursor is pinned against.

use crate::layout::{Array, DataLayout};
use crate::sink::TraceSink;
use crate::Access;
use sparsemat::SellMatrix;

/// Generates the trace for a contiguous range of chunks (one thread's
/// share under a static chunk partition).
///
/// # Panics
///
/// Panics if the chunk range is out of bounds.
pub fn trace_sell_chunks<S: TraceSink>(
    matrix: &SellMatrix,
    layout: &DataLayout,
    chunks: std::ops::Range<usize>,
    sink: &mut S,
) {
    assert!(
        chunks.end <= matrix.num_chunks(),
        "chunk range out of bounds"
    );
    let c = matrix.chunk_size();
    let colidx = matrix.colidx();
    for k in chunks {
        // Chunk metadata (width + offset) plays the rowptr role.
        sink.access(Access::load(
            layout.line_of(Array::RowPtr, k),
            Array::RowPtr,
        ));
        let base = matrix.chunk_ptr()[k];
        let width = matrix.chunk_width()[k] as usize;
        let row_base = k * c;
        let rows_in_chunk = c.min(matrix.num_rows() - row_base.min(matrix.num_rows()));
        for j in 0..width {
            for lane in 0..c {
                let idx = base + j * c + lane;
                sink.access(Access::load(layout.line_of(Array::A, idx), Array::A));
                sink.access(Access::load(
                    layout.line_of(Array::ColIdx, idx),
                    Array::ColIdx,
                ));
                sink.access(Access::load(
                    layout.line_of(Array::X, colidx[idx] as usize),
                    Array::X,
                ));
            }
        }
        for lane in 0..rows_in_chunk {
            let original_row = matrix.row_perm()[row_base + lane];
            sink.access(Access::store(
                layout.line_of(Array::Y, original_row),
                Array::Y,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CountSink, VecSink};
    use crate::SpmvWorkload;
    use sparsemat::{CooMatrix, CsrMatrix};

    fn sample_csr() -> CsrMatrix {
        let mut coo = CooMatrix::new(10, 10);
        let mut state = 3u64;
        for r in 0..10usize {
            for _ in 0..(r % 4) + 1 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                coo.push(r, (state >> 33) as usize % 10);
            }
        }
        coo.to_csr()
    }

    fn trace_all<S: TraceSink>(sell: &SellMatrix, layout: &DataLayout, sink: &mut S) {
        trace_sell_chunks(sell, layout, 0..sell.num_chunks(), sink);
    }

    #[test]
    fn reference_counts_match_padded_sizes() {
        let a = sample_csr();
        let sell = SellMatrix::from_csr(&a, 4, 8);
        let layout = sell.layout(64);
        let mut sink = CountSink::new();
        trace_all(&sell, &layout, &mut sink);
        let padded = sell.stored_entries() as u64;
        assert_eq!(sink.counts[Array::A as usize], padded);
        assert_eq!(sink.counts[Array::ColIdx as usize], padded);
        assert_eq!(sink.counts[Array::X as usize], padded);
        assert_eq!(sink.counts[Array::Y as usize], 10);
        assert_eq!(
            sink.counts[Array::RowPtr as usize],
            sell.num_chunks() as u64
        );
        assert_eq!(sink.writes, 10);
    }

    #[test]
    fn all_lines_stay_in_their_arrays() {
        let a = sample_csr();
        let sell = SellMatrix::from_csr(&a, 4, 8);
        let layout = sell.layout(64);
        let mut sink = VecSink::new();
        trace_all(&sell, &layout, &mut sink);
        for acc in &sink.trace {
            assert_eq!(layout.array_of_line(acc.line), Some(acc.array));
        }
    }

    #[test]
    fn y_stores_cover_every_row_once() {
        let a = sample_csr();
        let sell = SellMatrix::from_csr(&a, 4, 8);
        let layout = sell.layout(64);
        let mut sink = VecSink::new();
        trace_all(&sell, &layout, &mut sink);
        let mut seen = vec![0u32; layout.array_lines(Array::Y) as usize];
        let y_base = layout.line_of(Array::Y, 0);
        for acc in sink.trace.iter().filter(|a| a.array == Array::Y) {
            seen[(acc.line - y_base) as usize] += 1;
        }
        // 10 rows at 8 per line: line 0 holds rows 0..7, line 1 rows 8..9.
        assert_eq!(seen, vec![8, 2]);
    }

    #[test]
    fn chunk_subrange_traces_less() {
        let a = sample_csr();
        let sell = SellMatrix::from_csr(&a, 4, 8);
        let layout = sell.layout(64);
        let mut all = CountSink::new();
        trace_all(&sell, &layout, &mut all);
        let mut first = CountSink::new();
        trace_sell_chunks(&sell, &layout, 0..1, &mut first);
        assert!(first.total() < all.total());
        assert_eq!(first.counts[Array::RowPtr as usize], 1);
    }
}
