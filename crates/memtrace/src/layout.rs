//! Memory layout of the SpMV data structures at cache-line granularity.
//!
//! Mirrors the paper's Fig. 1 (c): each of the five arrays is assumed to be
//! aligned to a cache-line boundary (the A64FX line is 256 bytes) and laid
//! out contiguously in the order `x`, `y`, `a`, `colidx`, `rowptr`. Every
//! element of every array therefore maps to a unique global cache-line
//! number, which is the alphabet the reuse-distance analysis and the cache
//! simulator operate on.

use sparsemat::CsrMatrix;

/// Cache-line size of the A64FX in bytes (unusually large; the paper notes
/// this makes `x`-vector traffic up to 95 % of the data volume in the worst
/// case). Re-exported from the `machine` crate — the single source of
/// truth for hardware geometry.
pub use machine::A64FX_LINE_BYTES;

/// The five data structures of CSR SpMV (Listing 1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Array {
    /// The input vector `x` (`num_cols` × 8 bytes).
    X = 0,
    /// The output vector `y` (`num_rows` × 8 bytes).
    Y = 1,
    /// The nonzero values `a` (`nnz` × 8 bytes).
    A = 2,
    /// The column indices `colidx` (`nnz` × 4 bytes).
    ColIdx = 3,
    /// The row pointers `rowptr` (`(num_rows + 1)` × 8 bytes).
    RowPtr = 4,
}

impl Array {
    /// All arrays in layout order.
    pub const ALL: [Array; 5] = [Array::X, Array::Y, Array::A, Array::ColIdx, Array::RowPtr];

    /// Bytes per element of this array (8 except for the 4-byte `colidx`).
    #[inline]
    pub const fn element_bytes(self) -> usize {
        match self {
            Array::ColIdx => 4,
            _ => 8,
        }
    }

    /// Short lower-case name (`x`, `y`, `a`, `colidx`, `rowptr`).
    pub const fn name(self) -> &'static str {
        match self {
            Array::X => "x",
            Array::Y => "y",
            Array::A => "a",
            Array::ColIdx => "colidx",
            Array::RowPtr => "rowptr",
        }
    }
}

/// Assignment of cache-line numbers to the SpMV data structures for one
/// matrix, at a given cache-line size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataLayout {
    line_bytes: usize,
    /// First global line number of each array, in `Array::ALL` order.
    base: [u64; 5],
    /// Number of lines occupied by each array.
    lines: [u64; 5],
    /// Number of elements of each array (for bounds checking).
    elements: [usize; 5],
}

impl DataLayout {
    /// Builds the layout for a matrix with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero or not a multiple of 8 (so that 8-byte
    /// elements never straddle a line boundary).
    pub fn from_dims(num_rows: usize, num_cols: usize, nnz: usize, line_bytes: usize) -> Self {
        Self::from_counts([num_cols, num_rows, nnz, nnz, num_rows + 1], line_bytes)
    }

    /// Builds the layout for `matrix` (A64FX default when `line_bytes` is
    /// [`A64FX_LINE_BYTES`]).
    pub fn new(matrix: &CsrMatrix, line_bytes: usize) -> Self {
        Self::from_dims(
            matrix.num_rows(),
            matrix.num_cols(),
            matrix.nnz(),
            line_bytes,
        )
    }

    /// Builds a layout with explicit per-array element counts, in
    /// [`Array::ALL`] order (`x`, `y`, `a`, `colidx`, `rowptr`).
    ///
    /// Used by non-CSR formats that reuse the five array *roles* with
    /// different sizes — e.g. SELL-C-σ, where `a`/`colidx` are padded and
    /// the `rowptr` role is played by the per-chunk metadata.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero or not a multiple of 8, or if an
    /// array's byte count overflows `usize` (see
    /// [`checked_total_lines`](Self::checked_total_lines)).
    pub fn from_counts(counts: [usize; 5], line_bytes: usize) -> Self {
        assert!(line_bytes > 0, "line size must be positive");
        assert_eq!(line_bytes % 8, 0, "line size must be a multiple of 8 bytes");
        let lines = Self::array_lines_of(counts, line_bytes).expect("layout byte counts overflow");
        let mut base = [0u64; 5];
        let mut next = 0u64;
        for (b, &n) in base.iter_mut().zip(&lines) {
            *b = next;
            next += n;
        }
        DataLayout {
            line_bytes,
            base,
            lines,
            elements: counts,
        }
    }

    /// The number of lines [`from_counts`](Self::from_counts) would lay
    /// out, with checked arithmetic: `None` when a byte or line count
    /// overflows.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero.
    pub fn checked_total_lines(counts: [usize; 5], line_bytes: usize) -> Option<u64> {
        let lines = Self::array_lines_of(counts, line_bytes)?;
        lines
            .iter()
            .try_fold(0u64, |total, &n| total.checked_add(n))
    }

    /// Lines per array for the element counts, or `None` when a byte
    /// count overflows `usize`.
    fn array_lines_of(counts: [usize; 5], line_bytes: usize) -> Option<[u64; 5]> {
        let mut lines = [0u64; 5];
        for ((n, &count), array) in lines.iter_mut().zip(&counts).zip(Array::ALL) {
            *n = count
                .checked_mul(array.element_bytes())?
                .div_ceil(line_bytes) as u64;
        }
        Some(lines)
    }

    /// The cache-line size this layout was built for.
    #[inline]
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Global line number of element `index` of `array`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `index` is out of bounds for the array.
    #[inline]
    pub fn line_of(&self, array: Array, index: usize) -> u64 {
        debug_assert!(
            index < self.elements[array as usize],
            "{}[{index}] out of bounds ({})",
            array.name(),
            self.elements[array as usize]
        );
        self.base[array as usize] + (index * array.element_bytes() / self.line_bytes) as u64
    }

    /// First global line number of `array` — `line_of(array, 0)` without
    /// requiring the array to be non-empty. Block-batched cursor fills
    /// hoist this once per block and advance line numbers incrementally.
    #[inline]
    pub fn array_base(&self, array: Array) -> u64 {
        self.base[array as usize]
    }

    /// Number of cache lines occupied by `array`.
    #[inline]
    pub fn array_lines(&self, array: Array) -> u64 {
        self.lines[array as usize]
    }

    /// Total number of cache lines occupied by all five arrays.
    pub fn total_lines(&self) -> u64 {
        self.base[4] + self.lines[4]
    }

    /// Number of elements of `array`.
    #[inline]
    pub fn array_elements(&self, array: Array) -> usize {
        self.elements[array as usize]
    }

    /// Which array a global line number belongs to, or `None` if the line is
    /// beyond the layout.
    #[cfg(test)]
    pub fn array_of_line(&self, line: u64) -> Option<Array> {
        for (i, &array) in Array::ALL.iter().enumerate() {
            if line >= self.base[i] && line < self.base[i] + self.lines[i] {
                return Some(array);
            }
        }
        None
    }

    /// Elements of `array` per cache line.
    #[inline]
    pub fn elements_per_line(&self, array: Array) -> usize {
        self.line_bytes / array.element_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 1 example: 4x4 matrix with 7 nonzeros, 16-byte
    /// lines. Expected layout (from the figure):
    /// lines 0-1 x, 2-3 y, 4-7 a, 8-9 colidx, 10-12 rowptr.
    fn fig1_layout() -> DataLayout {
        DataLayout::from_dims(4, 4, 7, 16)
    }

    #[test]
    fn fig1_line_counts() {
        let l = fig1_layout();
        assert_eq!(l.array_lines(Array::X), 2); // 4*8/16
        assert_eq!(l.array_lines(Array::Y), 2);
        assert_eq!(l.array_lines(Array::A), 4); // ceil(56/16)
        assert_eq!(l.array_lines(Array::ColIdx), 2); // ceil(28/16)
        assert_eq!(l.array_lines(Array::RowPtr), 3); // ceil(40/16)
        assert_eq!(l.total_lines(), 13);
    }

    #[test]
    fn fig1_line_numbers_match_figure() {
        let l = fig1_layout();
        // x[0-1] -> line 0, x[2-3] -> line 1
        assert_eq!(l.line_of(Array::X, 0), 0);
        assert_eq!(l.line_of(Array::X, 1), 0);
        assert_eq!(l.line_of(Array::X, 2), 1);
        assert_eq!(l.line_of(Array::X, 3), 1);
        // y[0-1] -> line 2, y[2-3] -> line 3
        assert_eq!(l.line_of(Array::Y, 0), 2);
        assert_eq!(l.line_of(Array::Y, 3), 3);
        // a[0-1] -> 4, a[2-3] -> 5, a[4-5] -> 6, a[6] -> 7
        assert_eq!(l.line_of(Array::A, 0), 4);
        assert_eq!(l.line_of(Array::A, 3), 5);
        assert_eq!(l.line_of(Array::A, 6), 7);
        // col[0-3] -> 8, col[4-6] -> 9
        assert_eq!(l.line_of(Array::ColIdx, 0), 8);
        assert_eq!(l.line_of(Array::ColIdx, 3), 8);
        assert_eq!(l.line_of(Array::ColIdx, 4), 9);
        // row[0-1] -> 10, row[2-3] -> 11, row[4] -> 12
        assert_eq!(l.line_of(Array::RowPtr, 0), 10);
        assert_eq!(l.line_of(Array::RowPtr, 2), 11);
        assert_eq!(l.line_of(Array::RowPtr, 4), 12);
    }

    #[test]
    fn array_of_line_inverts_line_of() {
        let l = fig1_layout();
        assert_eq!(l.array_of_line(0), Some(Array::X));
        assert_eq!(l.array_of_line(3), Some(Array::Y));
        assert_eq!(l.array_of_line(7), Some(Array::A));
        assert_eq!(l.array_of_line(9), Some(Array::ColIdx));
        assert_eq!(l.array_of_line(12), Some(Array::RowPtr));
        assert_eq!(l.array_of_line(13), None);
    }

    #[test]
    fn a64fx_line_geometry() {
        // 256-byte lines hold 32 f64s or 64 u32s.
        let l = DataLayout::from_dims(1000, 1000, 5000, A64FX_LINE_BYTES);
        assert_eq!(l.elements_per_line(Array::X), 32);
        assert_eq!(l.elements_per_line(Array::ColIdx), 64);
        assert_eq!(l.array_lines(Array::X), 32); // ceil(8000/256) = 32 (exact: 31.25 -> 32)
        assert_eq!(
            l.array_lines(Array::ColIdx),
            (5000 * 4usize).div_ceil(A64FX_LINE_BYTES) as u64
        );
    }

    #[test]
    fn empty_matrix_layout() {
        let l = DataLayout::from_dims(0, 0, 0, 64);
        assert_eq!(l.array_lines(Array::X), 0);
        assert_eq!(l.array_lines(Array::RowPtr), 1); // rowptr always has 1 entry
        assert_eq!(l.total_lines(), 1);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn odd_line_size_rejected() {
        DataLayout::from_dims(1, 1, 1, 12);
    }
}
