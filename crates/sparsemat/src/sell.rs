//! SELL-C-σ sliced-ELLPACK storage format.
//!
//! The paper's related work notes that Alappat et al. found SELL-C-σ to
//! outperform CSR on the A64FX (its chunk-major layout vectorises cleanly
//! with 512-bit SVE), while leaving its sector-cache interaction
//! unexplored. This implementation makes the format available as an
//! extension: rows are sorted by length within windows of `σ` rows, packed
//! into chunks of `C` rows stored column-major, and padded to the longest
//! row of each chunk. Like [`CsrMatrix`], only the pattern is stored; the
//! padded value array is modelled from [`SellMatrix::stored_entries`].

use crate::csr::CsrMatrix;

/// The sparsity pattern of a matrix in SELL-C-σ format.
#[derive(Clone, Debug, PartialEq)]
pub struct SellMatrix {
    num_rows: usize,
    num_cols: usize,
    nnz: usize,
    chunk_size: usize,
    sigma: usize,
    /// Start of each chunk in `colidx` (length `num_chunks + 1`).
    chunk_ptr: Vec<usize>,
    /// Width (padded row length) of each chunk.
    chunk_width: Vec<u32>,
    /// Column indices, chunk-major (`chunk_width * chunk_size` per chunk,
    /// padding entries repeat the row's last valid column).
    colidx: Vec<u32>,
    /// `row_perm[packed_row] = original_row`: the sorting permutation.
    row_perm: Vec<usize>,
}

impl SellMatrix {
    /// Converts a CSR matrix to SELL-C-σ.
    ///
    /// `chunk_size` is the paper's `C` (rows per chunk, the SIMD width —
    /// 8 for 512-bit SVE on f64); `sigma` is the sorting window in rows
    /// and is rounded up to a multiple of `chunk_size`. `sigma <=
    /// chunk_size` means no reordering beyond the natural row order.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn from_csr(a: &CsrMatrix, chunk_size: usize, sigma: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        let n = a.num_rows();
        let sigma = sigma.max(chunk_size).div_ceil(chunk_size) * chunk_size;

        // Sort rows by descending length within each sigma window.
        let mut row_perm: Vec<usize> = (0..n).collect();
        for window in row_perm.chunks_mut(sigma) {
            window.sort_by_key(|&r| std::cmp::Reverse(a.row_nnz(r)));
        }

        let num_chunks = n.div_ceil(chunk_size);
        let mut chunk_ptr = Vec::with_capacity(num_chunks + 1);
        let mut chunk_width = Vec::with_capacity(num_chunks);
        chunk_ptr.push(0usize);
        let mut colidx = Vec::new();

        for c in 0..num_chunks {
            let rows = &row_perm[c * chunk_size..((c + 1) * chunk_size).min(n)];
            let width = rows.iter().map(|&r| a.row_nnz(r)).max().unwrap_or(0);
            chunk_width.push(width as u32);
            // Column-major within the chunk: entry (j, i) = j-th nonzero of
            // the i-th row of the chunk.
            for j in 0..width {
                for lane in 0..chunk_size {
                    if let Some(&r) = rows.get(lane) {
                        let range = a.row_range(r);
                        if j < range.len() {
                            colidx.push(a.colidx()[range.start + j]);
                        } else if !range.is_empty() {
                            // Pad with the row's last column (harmless
                            // gather target).
                            colidx.push(a.colidx()[range.end - 1]);
                        } else {
                            colidx.push(0);
                        }
                    } else {
                        // Lane beyond the last row of a ragged final chunk.
                        colidx.push(0);
                    }
                }
            }
            chunk_ptr.push(colidx.len());
        }

        SellMatrix {
            num_rows: n,
            num_cols: a.num_cols(),
            nnz: a.nnz(),
            chunk_size,
            sigma,
            chunk_ptr,
            chunk_width,
            colidx,
            row_perm,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of (unpadded) nonzeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The chunk size `C`.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The (rounded-up) sorting window `σ`.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Stored entries including padding.
    pub fn stored_entries(&self) -> usize {
        self.colidx.len()
    }

    /// Padding overhead: `stored / nnz` (1.0 = no padding).
    pub fn padding_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.stored_entries() as f64 / self.nnz as f64
        }
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunk_width.len()
    }

    /// Per-chunk start offsets into the padded arrays
    /// (`num_chunks + 1` entries).
    pub fn chunk_ptr(&self) -> &[usize] {
        &self.chunk_ptr
    }

    /// Per-chunk padded widths.
    pub fn chunk_width(&self) -> &[u32] {
        &self.chunk_width
    }

    /// The padded, chunk-major column indices.
    pub fn colidx(&self) -> &[u32] {
        &self.colidx
    }

    /// The row permutation (`row_perm[packed] = original`).
    pub fn row_perm(&self) -> &[usize] {
        &self.row_perm
    }

    /// A stable, *format-tagged* 64-bit fingerprint of the stored
    /// structure: a `"sell-c-sigma"` tag, the format parameters `C` and
    /// `σ`, the dimensions, and the chunk/permutation/index arrays that
    /// determine the access pattern.
    ///
    /// The leading tag guarantees a SELL view of a matrix never hashes
    /// equal to the CSR view of the same (or any other) matrix, so
    /// fingerprint-keyed caches cannot serve one format's profile for the
    /// other.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::fingerprint::Fnv::new();
        h.mix(b"sell-c-sigma");
        h.mix_u64(self.chunk_size as u64);
        h.mix_u64(self.sigma as u64);
        h.mix_u64(self.num_rows as u64);
        h.mix_u64(self.num_cols as u64);
        for &p in &self.chunk_ptr {
            h.mix_u64(p as u64);
        }
        for &w in &self.chunk_width {
            h.mix(&w.to_le_bytes());
        }
        for &c in &self.colidx {
            h.mix(&c.to_le_bytes());
        }
        for &r in &self.row_perm {
            h.mix_u64(r as u64);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn random_matrix(rows: usize, cols: usize, max_per_row: usize, seed: u64) -> CsrMatrix {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let mut coo = CooMatrix::new(rows, cols);
        for r in 0..rows {
            let len = next() % (max_per_row + 1);
            for _ in 0..len {
                coo.push(r, next() % cols);
            }
        }
        coo.to_csr()
    }

    /// Every packed row's non-padding columns, reached through `row_perm`,
    /// are exactly the CSR row's column indices.
    fn assert_rows_match(a: &CsrMatrix, c: usize, sigma: usize) {
        let sell = SellMatrix::from_csr(a, c, sigma);
        for (packed, &r) in sell.row_perm().iter().enumerate() {
            let (chunk, lane) = (packed / c, packed % c);
            let base = sell.chunk_ptr()[chunk];
            let got: Vec<u32> = (0..a.row_nnz(r))
                .map(|j| sell.colidx()[base + j * c + lane])
                .collect();
            assert_eq!(
                got,
                &a.colidx()[a.row_range(r)],
                "row {r} (C={c}, sigma={sigma})"
            );
        }
    }

    #[test]
    fn rows_match_csr_various_shapes() {
        let a = random_matrix(100, 80, 12, 5);
        for (c, sigma) in [(1, 1), (4, 4), (8, 8), (8, 64), (16, 128), (7, 21)] {
            assert_rows_match(&a, c, sigma);
        }
    }

    #[test]
    fn rows_match_with_empty_rows_and_ragged_tail() {
        // 13 rows (not a multiple of typical C), some empty.
        let mut coo = CooMatrix::new(13, 13);
        for r in [0usize, 3, 12] {
            coo.push(r, r);
            coo.push(r, (r + 5) % 13);
        }
        let a = coo.to_csr();
        for c in [4, 8] {
            assert_rows_match(&a, c, 4 * c);
        }
    }

    #[test]
    fn sigma_sorting_reduces_padding_on_skewed_rows() {
        // Alternating long/short rows: without sorting every chunk pads the
        // short rows to the long width; with a big sigma, rows of similar
        // length share chunks.
        let mut coo = CooMatrix::new(64, 64);
        let mut state = 9u64;
        for r in 0..64 {
            let len = if r % 2 == 0 { 16 } else { 1 };
            for _ in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                coo.push(r, (state >> 33) as usize % 64);
            }
        }
        let a = coo.to_csr();
        let unsorted = SellMatrix::from_csr(&a, 8, 8);
        let sorted = SellMatrix::from_csr(&a, 8, 64);
        assert!(
            sorted.padding_ratio() < unsorted.padding_ratio(),
            "{} vs {}",
            sorted.padding_ratio(),
            unsorted.padding_ratio()
        );
        assert!(sorted.padding_ratio() < 1.2);
        // Sorting must not change the rows.
        assert_rows_match(&a, 8, 64);
    }

    #[test]
    fn uniform_rows_have_no_padding() {
        let a = CsrMatrix::identity(32);
        let sell = SellMatrix::from_csr(&a, 8, 8);
        assert_eq!(sell.padding_ratio(), 1.0);
        assert_eq!(sell.stored_entries(), 32);
    }

    #[test]
    fn accessors() {
        let a = random_matrix(20, 20, 4, 11);
        let sell = SellMatrix::from_csr(&a, 8, 10);
        assert_eq!(sell.num_rows(), 20);
        assert_eq!(sell.num_cols(), 20);
        assert_eq!(sell.nnz(), a.nnz());
        assert_eq!(sell.chunk_size(), 8);
        // Sigma rounds up to a chunk multiple.
        assert_eq!(sell.sigma(), 16);
    }

    #[test]
    fn fingerprint_is_format_tagged() {
        let a = random_matrix(40, 40, 6, 3);
        let sell = SellMatrix::from_csr(&a, 4, 8);
        // The SELL fingerprint never equals the CSR fingerprint of the
        // source structure, and it depends on the format parameters.
        assert_ne!(sell.fingerprint(), a.fingerprint());
        let other = SellMatrix::from_csr(&a, 8, 8);
        assert_ne!(sell.fingerprint(), other.fingerprint());
        // Same parameters, same structure: stable.
        assert_eq!(
            sell.fingerprint(),
            SellMatrix::from_csr(&a, 4, 8).fingerprint()
        );
    }

    #[test]
    fn empty_matrix() {
        let a = CooMatrix::new(0, 5).to_csr();
        let sell = SellMatrix::from_csr(&a, 8, 8);
        assert_eq!(sell.stored_entries(), 0);
        assert_eq!(sell.num_chunks(), 0);
    }
}
