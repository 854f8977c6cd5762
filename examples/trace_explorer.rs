//! Trace explorer: reproduces the paper's Fig. 1 on a tiny matrix —
//! the sparsity pattern, the cache-line layout of the five SpMV arrays,
//! the derived memory trace, and each reference's reuse distance.
//!
//! Run: `cargo run --example trace_explorer`

use a64fx_spmv::prelude::*;
use memtrace::TraceCursor;

fn main() {
    // The paper's Fig. 1 matrix: 4x4 with 7 nonzeros, 16-byte lines.
    let matrix = CsrMatrix::from_parts(4, 4, vec![0, 2, 3, 5, 7], vec![1, 2, 0, 2, 3, 1, 3]);
    let layout = DataLayout::new(&matrix, 16);

    println!("# sparsity pattern (Fig. 1a)");
    for r in 0..matrix.num_rows() {
        let mut row = String::new();
        for c in 0..matrix.num_cols() {
            row.push(if matrix.contains(r, c) { 'x' } else { '.' });
            row.push(' ');
        }
        println!("  {row}");
    }

    println!("\n# cache-line layout (Fig. 1c), 16-byte lines");
    for array in Array::ALL {
        let first = layout.line_of(array, 0);
        let count = layout.array_lines(array);
        println!(
            "  {:<7} lines {:>2}..{:>2} ({} elements)",
            array.name(),
            first,
            first + count - 1,
            layout.array_elements(array)
        );
    }

    println!("\n# derived memory trace (Fig. 1b) with reuse distances");
    let mut sink = memtrace::VecSink::new();
    matrix
        .trace_cursor(&layout, 0..matrix.num_rows())
        .drain_into(&mut sink);
    let mut stack = ExactStack::new();
    println!("  {:<4} {:<7} {:>4}  reuse distance", "#", "array", "line");
    for (i, a) in sink.trace.iter().enumerate() {
        let rd = stack.access(a.line);
        let rd_str = match rd {
            Some(d) => d.to_string(),
            None => "inf (cold)".to_string(),
        };
        println!("  {:<4} {:<7} {:>4}  {}", i, a.array.name(), a.line, rd_str);
    }

    // Which references would hit in a tiny 4-line fully associative cache?
    let mut hist = ReuseHistogram::new();
    let mut stack2 = ExactStack::new();
    for a in &sink.trace {
        hist.record(stack2.access(a.line));
    }
    println!(
        "\n# with a 4-line LRU cache: {} hits, {} misses out of {} references",
        hist.hits(4),
        hist.misses(4),
        hist.total()
    );
}
