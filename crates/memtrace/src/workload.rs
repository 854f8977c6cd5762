//! The format-generic SpMV workload abstraction.
//!
//! The locality model takes nothing but an access pattern: dimensions, a
//! per-thread partition of the work, and the derived cache-line trace.
//! [`SpmvWorkload`] captures exactly that contract so every layer of the
//! pipeline — classification, profile computation, prediction, the
//! engine's cache keys and the validation harness — is written once
//! against the trait instead of hardwiring `&CsrMatrix`:
//!
//! * dimensions and working-set statistics (classify inputs),
//! * [`DataLayout`] construction (the single entry point all layers and
//!   the cache simulator route through),
//! * per-thread trace / x-trace cursor generation over a partition of the
//!   format's *work items* (rows for CSR, chunks for SELL-C-σ),
//! * a **format-tagged fingerprint** for persistent cache keys.
//!
//! Implementations exist for [`CsrMatrix`] (rows are the work items; the
//! fingerprint keeps its historical untagged value so existing cache keys
//! and reports are unchanged) and [`SellMatrix`] (chunks are the work
//! items; the fingerprint carries a `"sell-c-sigma"` tag plus the format
//! parameters). The [`Workload`] enum packages both behind one runtime
//! type for the engine, CLI and validator.
//!
//! # Adding a format
//!
//! Implement [`SpmvWorkload`] for the new storage type: map its data
//! structures onto the five array *roles* (`x`, `y`, `a`, `colidx`,
//! metadata in the `rowptr` slot), provide a cursor that yields the
//! kernel's reference order, and tag the fingerprint with a distinct
//! format label. Everything above the trait — profiles, sector sweeps,
//! the engine cache, the validators — works unmodified.

use crate::cursor::{SellCursor, SpmvCursor, TraceCursor, XCursor};
use crate::layout::DataLayout;
use sparsemat::{
    reorder::rcm_reorder, CsrMatrix, SellMatrix, COLIDX_BYTES, ROWPTR_BYTES, VALUE_BYTES,
    VECTOR_BYTES,
};
use std::ops::Range;

/// One thread group's share of a workload (for the analytic terms and
/// working-set fit checks of method B).
///
/// Shares are expressed in the model's units, not the format's: `rows`
/// is output rows covered, `x_refs` is `x`-gather references issued, and
/// `meta_elems` is metadata elements (the `rowptr` role) streamed. For
/// CSR these are the row count, the nonzero count and `rows + 1`; for
/// SELL-C-σ they are the rows of the chunk block, the *padded* stored
/// entries and the chunk count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkShare {
    /// Output rows covered by this share.
    pub rows: usize,
    /// `x` gather references issued per iteration (nonzeros for CSR,
    /// padded stored entries for SELL).
    pub x_refs: usize,
    /// Metadata elements (the `rowptr` role) streamed per iteration.
    pub meta_elems: usize,
}

/// A sparse-matrix storage format viewed as an SpMV *workload*: the
/// access pattern the locality model analyses.
///
/// The trait is the format axis of the pipeline. Work is partitioned over
/// abstract *work items* ([`num_work_items`](Self::num_work_items)); a
/// contiguous item range maps to a [`WorkShare`] of model quantities and
/// to trace cursors yielding the kernel's reference order.
pub trait SpmvWorkload: Sync {
    /// Method (A) cursor: the full per-item reference stream.
    type Cursor<'w>: TraceCursor
    where
        Self: 'w;
    /// Method (B) cursor: the `x`-gather references only.
    type XCursor<'w>: TraceCursor
    where
        Self: 'w;

    /// The storage format (and its parameters).
    fn format(&self) -> FormatSpec;

    /// Number of matrix rows.
    fn num_rows(&self) -> usize;

    /// Number of matrix columns.
    fn num_cols(&self) -> usize;

    /// Number of (unpadded) nonzeros.
    fn nnz(&self) -> usize;

    /// Number of schedulable work items: rows for CSR, chunks for
    /// SELL-C-σ. Thread partitions split `0..num_work_items()` into
    /// contiguous blocks.
    fn num_work_items(&self) -> usize;

    /// `x` gather references issued per SpMV iteration (`nnz` for CSR;
    /// the padded [`SellMatrix::stored_entries`] for SELL). A multi-RHS
    /// (SpMM) view multiplies this by `k`.
    fn x_refs(&self) -> usize;

    /// Stored matrix entries streamed per iteration (`a`/`colidx`
    /// elements). Equals [`x_refs`](Self::x_refs) for plain SpMV; an SpMM
    /// view keeps the stored-entry count while `x_refs` grows `k`-fold.
    fn stream_entries(&self) -> usize {
        self.x_refs()
    }

    /// Bytes of `y` written per output row per iteration: 8 for SpMV,
    /// `8k` for SpMM with `k` right-hand sides.
    fn y_row_bytes(&self) -> usize {
        VECTOR_BYTES
    }

    /// Metadata elements (the `rowptr` role) streamed per iteration:
    /// `rows + 1` row pointers for CSR, one descriptor per chunk for
    /// SELL.
    fn meta_elems(&self) -> usize;

    /// Bytes of partition-0 companion traffic (everything that shares
    /// partition 0 with `x` under the Listing-1 routing: `y` and the
    /// metadata stream) per iteration. Feeds the method (B) reuse-distance
    /// scaling factors; CSR uses the paper's `16·M` (8 bytes of `y` plus
    /// nominally 8 of `rowptr` per row).
    fn companion0_bytes(&self) -> usize;

    /// A stable 64-bit fingerprint of the structure, *tagged by format*
    /// so two storage views of one matrix can never collide in a
    /// fingerprint-keyed cache. The plain-CSR fingerprint keeps its
    /// historical untagged value.
    fn fingerprint(&self) -> u64;

    /// Element counts of the five array roles, in [`Array`] layout order
    /// (`x`, `y`, `a`, `colidx`, `rowptr`), or `None` when one overflows
    /// `usize`.
    ///
    /// [`Array`]: crate::Array
    fn layout_counts(&self) -> Option<[usize; 5]>;

    /// The cache-line layout of the five array roles — the single
    /// constructor every layer (trace generation, profiles, the cache
    /// simulator) routes through.
    ///
    /// # Panics
    ///
    /// Panics if the element counts overflow; callers sizing anything by
    /// a workload from outside check
    /// [`check_line_range`](Self::check_line_range) first.
    fn layout(&self, line_bytes: usize) -> DataLayout {
        let counts = self
            .layout_counts()
            .expect("layout element counts overflow usize");
        DataLayout::from_counts(counts, line_bytes)
    }

    /// Checks that [`layout`](Self::layout) at `line_bytes` stays below
    /// `u32::MAX` cache lines, with checked arithmetic, before anything
    /// is sized by it. Marker-stack nodes, line tables and exact-stack
    /// slots index lines with 32-bit handles, so a larger layout (say, an
    /// SpMM view with a huge RHS count) is an error, not an allocation.
    fn check_line_range(&self, line_bytes: usize) -> Result<(), String> {
        let max = u64::from(u32::MAX) - 1;
        match self
            .layout_counts()
            .and_then(|counts| DataLayout::checked_total_lines(counts, line_bytes))
        {
            Some(lines) if lines <= max => Ok(()),
            Some(lines) => Err(format!(
                "the layout spans {lines} cache lines of {line_bytes} bytes, \
                 beyond the {max} the model can index"
            )),
            None => Err(format!(
                "the layout's size in {line_bytes}-byte cache lines overflows \
                 64-bit arithmetic"
            )),
        }
    }

    /// The model quantities of a contiguous work-item range.
    fn share(&self, items: Range<usize>) -> WorkShare;

    /// A method (A) cursor over a contiguous work-item range.
    fn trace_cursor<'w>(&'w self, layout: &'w DataLayout, items: Range<usize>) -> Self::Cursor<'w>;

    /// A method (B) (`x`-only) cursor over a contiguous work-item range.
    fn x_trace_cursor<'w>(
        &'w self,
        layout: &'w DataLayout,
        items: Range<usize>,
    ) -> Self::XCursor<'w>;

    /// Bytes of streamed matrix data per iteration (values + indices +
    /// metadata). Independent of the RHS count: the matrix is streamed
    /// once per iteration however many vectors it multiplies.
    fn matrix_bytes(&self) -> usize {
        self.stream_entries() * (VALUE_BYTES + COLIDX_BYTES) + self.meta_elems() * ROWPTR_BYTES
    }

    /// Bytes of the `x`-role data (all right-hand sides / reused solver
    /// vectors).
    fn x_bytes(&self) -> usize {
        self.num_cols() * VECTOR_BYTES
    }

    /// Bytes of the reusable (non-matrix-stream) data: `x`, `y` and the
    /// metadata stream — the classify input for the partitioned classes.
    fn reusable_bytes(&self) -> usize {
        self.x_bytes() + self.num_rows() * self.y_row_bytes() + self.meta_elems() * ROWPTR_BYTES
    }

    /// Total bytes of the SpMV working set.
    fn working_set_bytes(&self) -> usize {
        self.matrix_bytes() + self.num_rows() * self.y_row_bytes() + self.x_bytes()
    }
}

impl SpmvWorkload for CsrMatrix {
    type Cursor<'w> = SpmvCursor<'w>;
    type XCursor<'w> = XCursor<'w>;

    fn format(&self) -> FormatSpec {
        FormatSpec::Csr
    }

    fn num_rows(&self) -> usize {
        CsrMatrix::num_rows(self)
    }

    fn num_cols(&self) -> usize {
        CsrMatrix::num_cols(self)
    }

    fn nnz(&self) -> usize {
        CsrMatrix::nnz(self)
    }

    fn num_work_items(&self) -> usize {
        CsrMatrix::num_rows(self)
    }

    fn x_refs(&self) -> usize {
        CsrMatrix::nnz(self)
    }

    fn meta_elems(&self) -> usize {
        CsrMatrix::num_rows(self) + 1
    }

    fn companion0_bytes(&self) -> usize {
        16 * CsrMatrix::num_rows(self)
    }

    fn fingerprint(&self) -> u64 {
        CsrMatrix::fingerprint(self)
    }

    fn layout_counts(&self) -> Option<[usize; 5]> {
        let (rows, cols, nnz) = (self.num_rows(), self.num_cols(), self.nnz());
        Some([cols, rows, nnz, nnz, rows.checked_add(1)?])
    }

    fn share(&self, items: Range<usize>) -> WorkShare {
        let x_refs = if items.is_empty() {
            0
        } else {
            (self.rowptr()[items.end] - self.rowptr()[items.start]) as usize
        };
        WorkShare {
            rows: items.len(),
            x_refs,
            // The per-domain accounting charges `rows + 1` row pointers
            // (loop entry plus one bound per row), as in the paper.
            meta_elems: items.len() + 1,
        }
    }

    fn trace_cursor<'w>(&'w self, layout: &'w DataLayout, items: Range<usize>) -> SpmvCursor<'w> {
        SpmvCursor::new(self, layout, items)
    }

    fn x_trace_cursor<'w>(&'w self, layout: &'w DataLayout, items: Range<usize>) -> XCursor<'w> {
        XCursor::new(self, layout, items)
    }
}

impl SpmvWorkload for SellMatrix {
    type Cursor<'w> = SellCursor<'w>;
    type XCursor<'w> = XCursor<'w>;

    fn format(&self) -> FormatSpec {
        FormatSpec::Sell {
            chunk_size: self.chunk_size(),
            sigma: self.sigma(),
        }
    }

    fn num_rows(&self) -> usize {
        SellMatrix::num_rows(self)
    }

    fn num_cols(&self) -> usize {
        SellMatrix::num_cols(self)
    }

    fn nnz(&self) -> usize {
        SellMatrix::nnz(self)
    }

    fn num_work_items(&self) -> usize {
        self.num_chunks()
    }

    fn x_refs(&self) -> usize {
        self.stored_entries()
    }

    fn meta_elems(&self) -> usize {
        self.num_chunks()
    }

    fn companion0_bytes(&self) -> usize {
        // 8 bytes of `y` per row plus one 8-byte chunk descriptor per
        // chunk — the SELL analogue of CSR's 16·M.
        VECTOR_BYTES * SellMatrix::num_rows(self) + ROWPTR_BYTES * self.num_chunks()
    }

    fn fingerprint(&self) -> u64 {
        SellMatrix::fingerprint(self)
    }

    fn layout_counts(&self) -> Option<[usize; 5]> {
        Some([
            SellMatrix::num_cols(self),
            SellMatrix::num_rows(self),
            self.stored_entries(),
            self.stored_entries(),
            self.num_chunks().checked_add(1)?,
        ])
    }

    fn share(&self, items: Range<usize>) -> WorkShare {
        if items.is_empty() {
            return WorkShare {
                rows: 0,
                x_refs: 0,
                meta_elems: 0,
            };
        }
        let c = self.chunk_size();
        let n = SellMatrix::num_rows(self);
        WorkShare {
            rows: (items.end * c).min(n) - (items.start * c).min(n),
            x_refs: self.chunk_ptr()[items.end] - self.chunk_ptr()[items.start],
            meta_elems: items.len(),
        }
    }

    fn trace_cursor<'w>(&'w self, layout: &'w DataLayout, items: Range<usize>) -> SellCursor<'w> {
        SellCursor::new(self, layout, items)
    }

    fn x_trace_cursor<'w>(&'w self, layout: &'w DataLayout, items: Range<usize>) -> XCursor<'w> {
        assert!(items.end <= self.num_chunks(), "chunk range out of bounds");
        let entries = if items.is_empty() {
            0..0
        } else {
            self.chunk_ptr()[items.start]..self.chunk_ptr()[items.end]
        };
        XCursor::over(self.colidx(), layout, entries)
    }
}

/// A storage-format selector (with format parameters), parsed from specs
/// and CLI flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FormatSpec {
    /// Compressed Sparse Row — the paper's format.
    Csr,
    /// SELL-C-σ with the given chunk size `C` and sorting window `σ`.
    Sell {
        /// Rows per chunk (`C`).
        chunk_size: usize,
        /// Sorting window in rows (`σ`).
        sigma: usize,
    },
}

impl FormatSpec {
    /// Parses `"csr"`, `"sell:C,σ"` or `"sell:C"` (σ defaulting to `C`).
    pub fn parse(s: &str) -> Result<FormatSpec, String> {
        let lower = s.trim().to_ascii_lowercase();
        let s = lower.as_str();
        if s == "csr" {
            return Ok(FormatSpec::Csr);
        }
        if s == "sell" {
            return Err(format!(
                "format '{s}' needs parameters: sell:C,sigma (e.g. sell:32,128)"
            ));
        }
        if let Some(params) = s.strip_prefix("sell:") {
            let mut it = params.split(',');
            let c: usize = it
                .next()
                .unwrap()
                .trim()
                .parse()
                .map_err(|_| format!("bad SELL chunk size in '{s}'"))?;
            if c == 0 {
                return Err(format!("SELL chunk size must be positive in '{s}'"));
            }
            let sigma = match it.next() {
                Some(v) if v.trim().is_empty() => {
                    return Err(format!(
                        "SELL sigma missing after ',' in '{s}' (expected sell:C,sigma)"
                    ));
                }
                Some(v) => v
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad SELL sigma in '{s}'"))?,
                None => c,
            };
            if let Some(extra) = it.next() {
                return Err(format!(
                    "unexpected trailing SELL parameter '{extra}' in '{s}' \
                     (expected sell:C,sigma)"
                ));
            }
            return Ok(FormatSpec::Sell {
                chunk_size: c,
                sigma,
            });
        }
        Err(format!(
            "unknown format '{s}' (expected csr or sell:C,sigma)"
        ))
    }

    /// Canonical label: `"csr"` or `"sell:C,σ"`.
    pub fn label(&self) -> String {
        match self {
            FormatSpec::Csr => "csr".to_string(),
            FormatSpec::Sell { chunk_size, sigma } => format!("sell:{chunk_size},{sigma}"),
        }
    }

    /// Builds the workload view of a CSR matrix under this format.
    pub fn build(&self, matrix: CsrMatrix) -> Workload {
        match *self {
            FormatSpec::Csr => Workload::Csr(matrix),
            FormatSpec::Sell { chunk_size, sigma } => {
                Workload::Sell(SellMatrix::from_csr(&matrix, chunk_size, sigma))
            }
        }
    }
}

/// A row-reordering selector applied before format conversion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ReorderSpec {
    /// Keep the natural row order.
    #[default]
    None,
    /// Reverse Cuthill–McKee (bandwidth-reducing; square matrices only).
    Rcm,
}

impl ReorderSpec {
    /// Parses `"none"` or `"rcm"`.
    pub fn parse(s: &str) -> Result<ReorderSpec, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "none" => Ok(ReorderSpec::None),
            "rcm" => Ok(ReorderSpec::Rcm),
            other => Err(format!("unknown reorder '{other}' (expected none or rcm)")),
        }
    }

    /// Canonical label.
    pub fn label(&self) -> &'static str {
        match self {
            ReorderSpec::None => "none",
            ReorderSpec::Rcm => "rcm",
        }
    }

    /// Applies the reordering to a CSR matrix.
    ///
    /// # Panics
    ///
    /// RCM panics on non-square matrices.
    pub fn apply(&self, matrix: CsrMatrix) -> CsrMatrix {
        match self {
            ReorderSpec::None => matrix,
            ReorderSpec::Rcm => rcm_reorder(&matrix),
        }
    }

    /// Folds the reorder discriminant into a structure fingerprint.
    /// `None` is the identity, so plain (unreordered) fingerprints keep
    /// their historical values; `Rcm` perturbs the key so a reordered and
    /// an unreordered view can never share a cache entry even when the
    /// permutation happens to be the identity.
    pub fn tag_fingerprint(&self, fingerprint: u64) -> u64 {
        match self {
            ReorderSpec::None => fingerprint,
            // Mix with FNV-style multiply-xor using a fixed tag.
            ReorderSpec::Rcm => (fingerprint ^ 0x7263_6D5F_7461_675F) // "rcm_tag_"
                .wrapping_mul(0x0000_0100_0000_01B3),
        }
    }
}

/// Memory layout of the `k` right-hand sides of an SpMM workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum RhsLayout {
    /// Row-major interleaved: RHS `j` of logical element `c` lives at
    /// `x[c*k + j]`, so one gather touches `k` consecutive elements.
    #[default]
    Interleaved,
    /// Column-major separate vectors: RHS `j` is a contiguous vector at
    /// offset `j·N`, so one gather touches `k` strided elements.
    Separate,
}

impl RhsLayout {
    /// Parses `"row"` (interleaved) or `"col"` (separate vectors).
    pub fn parse(s: &str) -> Result<RhsLayout, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "row" => Ok(RhsLayout::Interleaved),
            "col" => Ok(RhsLayout::Separate),
            other => Err(format!(
                "unknown RHS layout '{other}' (expected row or col)"
            )),
        }
    }

    /// Canonical label.
    pub fn label(&self) -> &'static str {
        match self {
            RhsLayout::Interleaved => "row",
            RhsLayout::Separate => "col",
        }
    }
}

/// The kernel scenario a workload models, parsed from specs and CLI
/// flags. Applied *on top* of the storage format: the same matrix in the
/// same format can be traced as one SpMV, a `k`-RHS SpMM, or a full CG
/// iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ScenarioSpec {
    /// Plain single-vector SpMV — the paper's kernel.
    #[default]
    Spmv,
    /// Multi-vector SpMM with `k` right-hand sides.
    Spmm {
        /// Number of right-hand sides.
        k: usize,
        /// RHS memory layout.
        layout: RhsLayout,
    },
    /// One conjugate-gradient iteration (SpMV plus the solver's vector
    /// sweeps).
    Cg,
}

impl ScenarioSpec {
    /// Parses `"spmv"`, `"cg"`, `"spmm:K"` or `"spmm:K,row|col"`.
    pub fn parse(s: &str) -> Result<ScenarioSpec, String> {
        let lower = s.trim().to_ascii_lowercase();
        let s = lower.as_str();
        match s {
            "spmv" => return Ok(ScenarioSpec::Spmv),
            "cg" => return Ok(ScenarioSpec::Cg),
            "spmm" => {
                return Err(format!(
                    "scenario '{s}' needs a RHS count: spmm:K[,row|col] (e.g. spmm:16)"
                ))
            }
            _ => {}
        }
        if let Some(params) = s.strip_prefix("spmm:") {
            let mut it = params.split(',');
            let k: usize = it
                .next()
                .unwrap()
                .trim()
                .parse()
                .map_err(|_| format!("bad SpMM RHS count in '{s}'"))?;
            if k == 0 {
                return Err(format!("SpMM RHS count must be positive in '{s}'"));
            }
            let layout = match it.next() {
                Some(v) => RhsLayout::parse(v)?,
                None => RhsLayout::default(),
            };
            if let Some(extra) = it.next() {
                return Err(format!(
                    "unexpected trailing SpMM parameter '{extra}' in '{s}' \
                     (expected spmm:K[,row|col])"
                ));
            }
            return Ok(ScenarioSpec::Spmm { k, layout });
        }
        Err(format!(
            "unknown scenario '{s}' (expected spmv, cg or spmm:K[,row|col])"
        ))
    }

    /// Canonical label: `"spmv"`, `"cg"` or `"spmm:K,row|col"`.
    pub fn label(&self) -> String {
        match self {
            ScenarioSpec::Spmv => "spmv".to_string(),
            ScenarioSpec::Cg => "cg".to_string(),
            ScenarioSpec::Spmm { k, layout } => format!("spmm:{k},{}", layout.label()),
        }
    }

    /// Wraps a storage workload in this scenario's view.
    ///
    /// # Panics
    ///
    /// Panics if `base` is already a scenario view, or (for CG) is not
    /// square.
    pub fn apply(&self, base: Workload) -> Workload {
        match *self {
            ScenarioSpec::Spmv => base,
            ScenarioSpec::Spmm { k, layout } => {
                Workload::Spmm(Box::new(SpmmWorkload::new(base, k, layout)))
            }
            ScenarioSpec::Cg => Workload::Cg(Box::new(CgWorkload::new(base))),
        }
    }
}

/// FNV-style fingerprint mixing for scenario tags (the same pattern as
/// [`ReorderSpec::tag_fingerprint`]).
fn mix_fingerprint(fingerprint: u64, tag: u64) -> u64 {
    (fingerprint ^ tag).wrapping_mul(0x0000_0100_0000_01B3)
}

/// A multi-vector (SpMM) view of a storage workload: `k` right-hand
/// sides, each `x` gather widening to `k` loads and each `y` store to
/// `k` stores, with the matrix streamed once.
///
/// With `k = 1` the view is **byte-identical** to the base workload —
/// same fingerprint (so cache keys and reports are unchanged), same
/// layout, same traces.
#[derive(Clone, Debug)]
pub struct SpmmWorkload {
    base: Workload,
    k: usize,
    rhs_layout: RhsLayout,
}

impl SpmmWorkload {
    /// Wraps `base` with `k` right-hand sides in `rhs_layout`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or `base` is already a scenario view.
    pub fn new(base: Workload, k: usize, rhs_layout: RhsLayout) -> Self {
        assert!(k > 0, "need at least one right-hand side");
        assert!(
            matches!(base, Workload::Csr(_) | Workload::Sell(_)),
            "SpMM base must be a storage workload, not another scenario view"
        );
        SpmmWorkload {
            base,
            k,
            rhs_layout,
        }
    }

    /// The number of right-hand sides.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The RHS memory layout.
    pub fn rhs_layout(&self) -> RhsLayout {
        self.rhs_layout
    }

    /// The underlying storage workload.
    pub fn base(&self) -> &Workload {
        &self.base
    }

    fn geom(&self) -> crate::cursor::RhsGeom {
        crate::cursor::RhsGeom::new(
            self.k,
            matches!(self.rhs_layout, RhsLayout::Interleaved),
            self.base.num_cols(),
            SpmvWorkload::num_rows(&self.base),
        )
    }

    /// Metadata element count of the layout's `rowptr` role.
    fn meta_count(&self) -> usize {
        match &self.base {
            Workload::Csr(m) => CsrMatrix::num_rows(m) + 1,
            Workload::Sell(s) => s.num_chunks() + 1,
            _ => unreachable!("SpMM base is a storage workload"),
        }
    }
}

impl SpmvWorkload for SpmmWorkload {
    type Cursor<'w> = WorkloadCursor<'w>;
    type XCursor<'w> = XCursor<'w>;

    fn format(&self) -> FormatSpec {
        self.base.format()
    }

    fn num_rows(&self) -> usize {
        SpmvWorkload::num_rows(&self.base)
    }

    fn num_cols(&self) -> usize {
        SpmvWorkload::num_cols(&self.base)
    }

    fn nnz(&self) -> usize {
        SpmvWorkload::nnz(&self.base)
    }

    fn num_work_items(&self) -> usize {
        self.base.num_work_items()
    }

    fn x_refs(&self) -> usize {
        self.k * self.base.x_refs()
    }

    fn stream_entries(&self) -> usize {
        self.base.x_refs()
    }

    fn y_row_bytes(&self) -> usize {
        self.k * VECTOR_BYTES
    }

    fn x_bytes(&self) -> usize {
        self.k * SpmvWorkload::num_cols(&self.base) * VECTOR_BYTES
    }

    fn meta_elems(&self) -> usize {
        self.base.meta_elems()
    }

    fn companion0_bytes(&self) -> usize {
        // The partition-0 companion traffic gains (k-1) extra `y` stores
        // per row; the metadata stream is unchanged.
        self.base.companion0_bytes()
            + (self.k - 1) * VECTOR_BYTES * SpmvWorkload::num_rows(&self.base)
    }

    fn fingerprint(&self) -> u64 {
        if self.k == 1 {
            // Identity: a k=1 SpMM view shares the base's cache entries
            // (its traces and predictions are byte-identical).
            return SpmvWorkload::fingerprint(&self.base);
        }
        let tag = 0x7370_6D6D_5F74_6167u64 // "spmm_tag"
            ^ ((self.k as u64) << 8)
            ^ matches!(self.rhs_layout, RhsLayout::Separate) as u64;
        mix_fingerprint(SpmvWorkload::fingerprint(&self.base), tag)
    }

    fn layout_counts(&self) -> Option<[usize; 5]> {
        Some([
            SpmvWorkload::num_cols(&self.base).checked_mul(self.k)?,
            SpmvWorkload::num_rows(&self.base).checked_mul(self.k)?,
            self.base.x_refs(),
            self.base.x_refs(),
            self.meta_count(),
        ])
    }

    fn share(&self, items: Range<usize>) -> WorkShare {
        // Shares stay in stored-entry units: the matrix-stream terms and
        // metadata accounting are RHS-independent.
        self.base.share(items)
    }

    fn trace_cursor<'w>(
        &'w self,
        layout: &'w DataLayout,
        items: Range<usize>,
    ) -> WorkloadCursor<'w> {
        let geom = self.geom();
        match &self.base {
            Workload::Csr(m) => WorkloadCursor::Csr(SpmvCursor::with_rhs(m, layout, items, geom)),
            Workload::Sell(s) => WorkloadCursor::Sell(SellCursor::with_rhs(s, layout, items, geom)),
            _ => unreachable!("SpMM base is a storage workload"),
        }
    }

    fn x_trace_cursor<'w>(&'w self, layout: &'w DataLayout, items: Range<usize>) -> XCursor<'w> {
        let geom = self.geom();
        match &self.base {
            Workload::Csr(m) => {
                assert!(
                    items.end <= CsrMatrix::num_rows(m),
                    "row range out of bounds"
                );
                let entries = if items.is_empty() {
                    0..0
                } else {
                    m.rowptr()[items.start] as usize..m.rowptr()[items.end] as usize
                };
                XCursor::over_rhs(m.colidx(), layout, entries, geom)
            }
            Workload::Sell(s) => {
                assert!(items.end <= s.num_chunks(), "chunk range out of bounds");
                let entries = if items.is_empty() {
                    0..0
                } else {
                    s.chunk_ptr()[items.start]..s.chunk_ptr()[items.end]
                };
                XCursor::over_rhs(s.colidx(), layout, entries, geom)
            }
            _ => unreachable!("SpMM base is a storage workload"),
        }
    }
}

/// A CG-iteration view of a storage workload: the SpMV (`ap = A·p`) of
/// unpreconditioned conjugate gradient plus the four vector sweeps of one
/// iteration, traced pass for pass (see
/// [`CgCursor`](crate::cursor::CgCursor)).
///
/// The `x` array role holds the three reused solver vectors (`p`, `r`,
/// `x`) as consecutive segments — `p` at offset 0, so the SpMV gathers
/// are unchanged — and the `y` role holds `ap`.
#[derive(Clone, Debug)]
pub struct CgWorkload {
    base: Workload,
}

impl CgWorkload {
    /// Wraps `base` in a CG-iteration view.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not square or is already a scenario view.
    pub fn new(base: Workload) -> Self {
        assert!(
            matches!(base, Workload::Csr(_) | Workload::Sell(_)),
            "CG base must be a storage workload, not another scenario view"
        );
        assert_eq!(
            SpmvWorkload::num_rows(&base),
            SpmvWorkload::num_cols(&base),
            "CG needs a square matrix"
        );
        CgWorkload { base }
    }

    /// The underlying storage workload.
    pub fn base(&self) -> &Workload {
        &self.base
    }

    /// Metadata element count of the layout's `rowptr` role.
    fn meta_count(&self) -> usize {
        match &self.base {
            Workload::Csr(m) => CsrMatrix::num_rows(m) + 1,
            Workload::Sell(s) => s.num_chunks() + 1,
            _ => unreachable!("CG base is a storage workload"),
        }
    }

    /// The vector-index span covered by a contiguous work-item range (the
    /// rows for CSR; the chunk block's row span for SELL, a documented
    /// approximation of the solver's row-block sweep partition).
    fn vector_span(&self, items: &Range<usize>) -> Range<usize> {
        match &self.base {
            Workload::Csr(_) => items.clone(),
            Workload::Sell(s) => {
                let c = s.chunk_size();
                let n = SellMatrix::num_rows(s);
                (items.start * c).min(n)..(items.end * c).min(n)
            }
            _ => unreachable!("CG base is a storage workload"),
        }
    }
}

impl SpmvWorkload for CgWorkload {
    type Cursor<'w> = crate::cursor::CgCursor<'w, WorkloadCursor<'w>>;
    type XCursor<'w> = XCursor<'w>;

    fn format(&self) -> FormatSpec {
        self.base.format()
    }

    fn num_rows(&self) -> usize {
        SpmvWorkload::num_rows(&self.base)
    }

    fn num_cols(&self) -> usize {
        SpmvWorkload::num_cols(&self.base)
    }

    fn nnz(&self) -> usize {
        SpmvWorkload::nnz(&self.base)
    }

    fn num_work_items(&self) -> usize {
        self.base.num_work_items()
    }

    fn x_refs(&self) -> usize {
        self.base.x_refs()
    }

    fn x_bytes(&self) -> usize {
        // Three reused solver vectors live in the `x` role.
        3 * SpmvWorkload::num_rows(&self.base) * VECTOR_BYTES
    }

    fn meta_elems(&self) -> usize {
        self.base.meta_elems()
    }

    fn companion0_bytes(&self) -> usize {
        // The vector sweeps add CG_SWEEP_REFS_PER_ROW 8-byte partition-0
        // references per row on top of the SpMV's companion traffic.
        self.base.companion0_bytes()
            + crate::cursor::CG_SWEEP_REFS_PER_ROW
                * VECTOR_BYTES
                * SpmvWorkload::num_rows(&self.base)
    }

    fn fingerprint(&self) -> u64 {
        // Always tagged: a CG view never shares cache entries with the
        // plain SpMV view of the same matrix.
        mix_fingerprint(
            SpmvWorkload::fingerprint(&self.base),
            0x6367_5F74_6167_5F5Fu64, // "cg_tag__"
        )
    }

    fn layout_counts(&self) -> Option<[usize; 5]> {
        let n = SpmvWorkload::num_rows(&self.base);
        Some([
            n.checked_mul(3)?,
            n,
            self.base.x_refs(),
            self.base.x_refs(),
            self.meta_count(),
        ])
    }

    fn share(&self, items: Range<usize>) -> WorkShare {
        self.base.share(items)
    }

    fn trace_cursor<'w>(
        &'w self,
        layout: &'w DataLayout,
        items: Range<usize>,
    ) -> crate::cursor::CgCursor<'w, WorkloadCursor<'w>> {
        let span = self.vector_span(&items);
        let inner = self.base.trace_cursor(layout, items);
        crate::cursor::CgCursor::new(inner, layout, span, SpmvWorkload::num_rows(&self.base))
    }

    fn x_trace_cursor<'w>(&'w self, layout: &'w DataLayout, items: Range<usize>) -> XCursor<'w> {
        // Method (B) tracks the `x` gathers only; the sweeps stream and
        // are accounted analytically via companion0_bytes.
        self.base.x_trace_cursor(layout, items)
    }
}

/// A runtime-dispatched workload: the engine, CLI and validator hold one
/// of these and every layer underneath is generic over [`SpmvWorkload`].
#[derive(Clone, Debug)]
pub enum Workload {
    /// A CSR matrix (rows are the work items).
    Csr(CsrMatrix),
    /// A SELL-C-σ matrix (chunks are the work items).
    Sell(SellMatrix),
    /// A multi-RHS (SpMM) view over a storage workload.
    Spmm(Box<SpmmWorkload>),
    /// A CG-iteration view over a storage workload.
    Cg(Box<CgWorkload>),
}

impl Workload {
    /// Builds a workload from a CSR matrix: reorder first, then convert.
    pub fn build(matrix: CsrMatrix, format: FormatSpec, reorder: ReorderSpec) -> Workload {
        format.build(reorder.apply(matrix))
    }

    /// Builds a workload and wraps it in a scenario view: reorder, then
    /// convert, then apply the scenario.
    pub fn build_scenario(
        matrix: CsrMatrix,
        format: FormatSpec,
        reorder: ReorderSpec,
        scenario: ScenarioSpec,
    ) -> Workload {
        scenario.apply(Self::build(matrix, format, reorder))
    }

    /// The scenario this workload models.
    pub fn scenario(&self) -> ScenarioSpec {
        match self {
            Workload::Csr(_) | Workload::Sell(_) => ScenarioSpec::Spmv,
            Workload::Spmm(w) => ScenarioSpec::Spmm {
                k: w.k(),
                layout: w.rhs_layout(),
            },
            Workload::Cg(_) => ScenarioSpec::Cg,
        }
    }

    /// The CSR view, if this is a CSR workload.
    pub fn as_csr(&self) -> Option<&CsrMatrix> {
        match self {
            Workload::Csr(m) => Some(m),
            _ => None,
        }
    }

    /// The SELL view, if this is a SELL workload.
    pub fn as_sell(&self) -> Option<&SellMatrix> {
        match self {
            Workload::Sell(m) => Some(m),
            _ => None,
        }
    }
}

/// Method (A) cursor of a [`Workload`].
#[derive(Clone, Debug)]
pub enum WorkloadCursor<'w> {
    /// CSR row-block cursor (single- or multi-RHS).
    Csr(SpmvCursor<'w>),
    /// SELL chunk-block cursor (single- or multi-RHS).
    Sell(SellCursor<'w>),
    /// CG-iteration cursor wrapping a storage cursor.
    Cg(Box<crate::cursor::CgCursor<'w, WorkloadCursor<'w>>>),
}

impl TraceCursor for WorkloadCursor<'_> {
    fn next_access(&mut self) -> Option<crate::Access> {
        match self {
            WorkloadCursor::Csr(c) => c.next_access(),
            WorkloadCursor::Sell(c) => c.next_access(),
            WorkloadCursor::Cg(c) => c.next_access(),
        }
    }

    fn remaining(&self) -> usize {
        match self {
            WorkloadCursor::Csr(c) => c.remaining(),
            WorkloadCursor::Sell(c) => c.remaining(),
            WorkloadCursor::Cg(c) => c.remaining(),
        }
    }

    fn next_block(&mut self, block: &mut crate::AccessBlock) -> usize {
        match self {
            WorkloadCursor::Csr(c) => c.next_block(block),
            WorkloadCursor::Sell(c) => c.next_block(block),
            WorkloadCursor::Cg(c) => c.next_block(block),
        }
    }
}

macro_rules! delegate {
    ($self:ident, $m:ident => $e:expr) => {
        match $self {
            Workload::Csr($m) => $e,
            Workload::Sell($m) => $e,
            Workload::Spmm(boxed) => {
                let $m = &**boxed;
                $e
            }
            Workload::Cg(boxed) => {
                let $m = &**boxed;
                $e
            }
        }
    };
}

impl SpmvWorkload for Workload {
    type Cursor<'w> = WorkloadCursor<'w>;
    type XCursor<'w> = XCursor<'w>;

    fn format(&self) -> FormatSpec {
        delegate!(self, m => m.format())
    }

    fn num_rows(&self) -> usize {
        delegate!(self, m => SpmvWorkload::num_rows(m))
    }

    fn num_cols(&self) -> usize {
        delegate!(self, m => SpmvWorkload::num_cols(m))
    }

    fn nnz(&self) -> usize {
        delegate!(self, m => SpmvWorkload::nnz(m))
    }

    fn num_work_items(&self) -> usize {
        delegate!(self, m => m.num_work_items())
    }

    fn x_refs(&self) -> usize {
        delegate!(self, m => m.x_refs())
    }

    fn stream_entries(&self) -> usize {
        delegate!(self, m => m.stream_entries())
    }

    fn y_row_bytes(&self) -> usize {
        delegate!(self, m => m.y_row_bytes())
    }

    fn x_bytes(&self) -> usize {
        delegate!(self, m => m.x_bytes())
    }

    fn meta_elems(&self) -> usize {
        delegate!(self, m => m.meta_elems())
    }

    fn companion0_bytes(&self) -> usize {
        delegate!(self, m => m.companion0_bytes())
    }

    fn fingerprint(&self) -> u64 {
        delegate!(self, m => SpmvWorkload::fingerprint(m))
    }

    fn layout_counts(&self) -> Option<[usize; 5]> {
        delegate!(self, m => m.layout_counts())
    }

    fn share(&self, items: Range<usize>) -> WorkShare {
        delegate!(self, m => m.share(items))
    }

    fn trace_cursor<'w>(
        &'w self,
        layout: &'w DataLayout,
        items: Range<usize>,
    ) -> WorkloadCursor<'w> {
        match self {
            Workload::Csr(m) => WorkloadCursor::Csr(m.trace_cursor(layout, items)),
            Workload::Sell(m) => WorkloadCursor::Sell(m.trace_cursor(layout, items)),
            Workload::Spmm(w) => w.trace_cursor(layout, items),
            Workload::Cg(w) => WorkloadCursor::Cg(Box::new(w.trace_cursor(layout, items))),
        }
    }

    fn x_trace_cursor<'w>(&'w self, layout: &'w DataLayout, items: Range<usize>) -> XCursor<'w> {
        delegate!(self, m => m.x_trace_cursor(layout, items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::A64FX_LINE_BYTES;
    use crate::sink::VecSink;
    use sparsemat::CooMatrix;

    fn sample(seed: u64) -> CsrMatrix {
        let mut state = seed | 1;
        let mut coo = CooMatrix::new(30, 30);
        for r in 0..30usize {
            for _ in 0..(r % 5) + 1 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                coo.push(r, (state >> 33) as usize % 30);
            }
        }
        coo.to_csr()
    }

    fn collect<C: TraceCursor>(mut c: C) -> Vec<crate::Access> {
        let mut out = Vec::new();
        while let Some(a) = c.next_access() {
            out.push(a);
        }
        out
    }

    #[test]
    fn csr_workload_keeps_legacy_fingerprint_and_stats() {
        let m = sample(3);
        assert_eq!(SpmvWorkload::fingerprint(&m), m.fingerprint());
        assert_eq!(SpmvWorkload::matrix_bytes(&m), m.matrix_bytes());
        assert_eq!(SpmvWorkload::working_set_bytes(&m), m.working_set_bytes());
        assert_eq!(m.x_refs(), m.nnz());
        assert_eq!(m.num_work_items(), m.num_rows());
        assert_eq!(m.companion0_bytes(), 16 * m.num_rows());
    }

    /// The satellite regression test: fingerprint keys of different
    /// format (and reorder) views of the same matrix never collide.
    #[test]
    fn fingerprints_are_format_and_reorder_tagged() {
        let m = sample(9);
        let csr = Workload::Csr(m.clone());
        let sell11 = FormatSpec::Sell {
            chunk_size: 1,
            sigma: 1,
        }
        .build(m.clone());
        let sell48 = FormatSpec::Sell {
            chunk_size: 4,
            sigma: 8,
        }
        .build(m.clone());
        let fp_csr = SpmvWorkload::fingerprint(&csr);
        let fp11 = SpmvWorkload::fingerprint(&sell11);
        let fp48 = SpmvWorkload::fingerprint(&sell48);
        assert_ne!(fp_csr, fp11, "CSR and SELL(1,1) views must not collide");
        assert_ne!(fp_csr, fp48);
        assert_ne!(fp11, fp48, "different SELL parameters must not collide");
        // Reorder discriminant: identity for None, a distinct key for RCM
        // (even if the permutation were the identity).
        assert_eq!(ReorderSpec::None.tag_fingerprint(fp_csr), fp_csr);
        assert_ne!(ReorderSpec::Rcm.tag_fingerprint(fp_csr), fp_csr);
    }

    #[test]
    fn layouts_route_through_single_constructor() {
        let m = sample(5);
        let direct = DataLayout::new(&m, 64);
        assert_eq!(SpmvWorkload::layout(&m, 64), direct);
        // SELL-C-σ: padded entry counts in the `a`/`colidx` roles, chunk
        // metadata in the `rowptr` role.
        use crate::Array;
        let sell = SellMatrix::from_csr(&m, 4, 8);
        let l = SpmvWorkload::layout(&sell, 64);
        assert_eq!(l.array_elements(Array::A), sell.stored_entries());
        assert_eq!(l.array_elements(Array::ColIdx), sell.stored_entries());
        assert_eq!(l.array_elements(Array::RowPtr), sell.num_chunks() + 1);
        assert_eq!(l.array_elements(Array::Y), m.num_rows());
    }

    #[test]
    fn csr_shares_partition_the_work() {
        let m = sample(7);
        let a = m.share(0..10);
        let b = m.share(10..30);
        assert_eq!(a.rows + b.rows, 30);
        assert_eq!(a.x_refs + b.x_refs, m.nnz());
        assert_eq!(a.meta_elems, 11);
        assert_eq!(
            m.share(4..4),
            WorkShare {
                rows: 0,
                x_refs: 0,
                meta_elems: 1
            }
        );
    }

    #[test]
    fn sell_shares_partition_the_work() {
        let m = sample(11);
        let sell = SellMatrix::from_csr(&m, 4, 8);
        let n = sell.num_chunks();
        let a = sell.share(0..2);
        let b = sell.share(2..n);
        assert_eq!(a.rows + b.rows, 30);
        assert_eq!(a.x_refs + b.x_refs, sell.stored_entries());
        assert_eq!(a.meta_elems + b.meta_elems, n);
        assert_eq!(
            sell.share(1..1),
            WorkShare {
                rows: 0,
                x_refs: 0,
                meta_elems: 0
            }
        );
    }

    #[test]
    fn workload_enum_cursors_match_concrete_cursors() {
        let m = sample(13);
        let sell = SellMatrix::from_csr(&m, 4, 8);
        let csr_wl = Workload::Csr(m.clone());
        let layout = SpmvWorkload::layout(&csr_wl, 16);
        assert_eq!(
            collect(csr_wl.trace_cursor(&layout, 0..30)),
            collect(m.trace_cursor(&layout, 0..30))
        );
        assert_eq!(
            collect(csr_wl.x_trace_cursor(&layout, 3..17)),
            collect(m.x_trace_cursor(&layout, 3..17))
        );

        let sell_wl = Workload::Sell(sell.clone());
        let slayout = SpmvWorkload::layout(&sell_wl, 16);
        let n = sell.num_chunks();
        assert_eq!(
            collect(sell_wl.trace_cursor(&slayout, 0..n)),
            collect(sell.trace_cursor(&slayout, 0..n))
        );
        assert_eq!(
            collect(sell_wl.x_trace_cursor(&slayout, 1..n)),
            collect(sell.x_trace_cursor(&slayout, 1..n))
        );
    }

    #[test]
    fn sell_x_cursor_yields_one_load_per_stored_entry() {
        let m = sample(17);
        let sell = SellMatrix::from_csr(&m, 8, 16);
        let layout = SpmvWorkload::layout(&sell, 64);
        let mut full = VecSink::new();
        sell.trace_cursor(&layout, 0..sell.num_chunks())
            .drain_into(&mut full);
        let x_only: Vec<_> = full
            .trace
            .into_iter()
            .filter(|a| a.array == crate::Array::X)
            .collect();
        assert_eq!(x_only.len(), sell.stored_entries());
        assert_eq!(
            collect(sell.x_trace_cursor(&layout, 0..sell.num_chunks())),
            x_only
        );
    }

    #[test]
    fn format_spec_parses_and_round_trips() {
        assert_eq!(FormatSpec::parse("csr").unwrap(), FormatSpec::Csr);
        assert_eq!(FormatSpec::parse("CSR").unwrap(), FormatSpec::Csr);
        assert_eq!(
            FormatSpec::parse("sell:32,128").unwrap(),
            FormatSpec::Sell {
                chunk_size: 32,
                sigma: 128
            }
        );
        assert_eq!(
            FormatSpec::parse("sell:8").unwrap(),
            FormatSpec::Sell {
                chunk_size: 8,
                sigma: 8
            }
        );
        for spec in [
            FormatSpec::Csr,
            FormatSpec::Sell {
                chunk_size: 32,
                sigma: 128,
            },
        ] {
            assert_eq!(FormatSpec::parse(&spec.label()).unwrap(), spec);
        }
        assert!(FormatSpec::parse("sell").is_err());
        assert!(FormatSpec::parse("sell:0,8").is_err());
        assert!(FormatSpec::parse("ellpack").is_err());
        assert!(FormatSpec::parse("sell:x,y").is_err());
    }

    #[test]
    fn reorder_spec_parses_and_applies() {
        assert_eq!(ReorderSpec::parse("none").unwrap(), ReorderSpec::None);
        assert_eq!(ReorderSpec::parse("rcm").unwrap(), ReorderSpec::Rcm);
        assert!(ReorderSpec::parse("amd").is_err());
        let m = sample(19);
        let same = ReorderSpec::None.apply(m.clone());
        assert_eq!(same.fingerprint(), m.fingerprint());
        let rcm = ReorderSpec::Rcm.apply(m.clone());
        assert_eq!(rcm.nnz(), m.nnz());
    }

    #[test]
    fn workload_build_composes_reorder_and_format() {
        let m = sample(23);
        let wl = Workload::build(
            m.clone(),
            FormatSpec::Sell {
                chunk_size: 4,
                sigma: 8,
            },
            ReorderSpec::Rcm,
        );
        assert_eq!(SpmvWorkload::nnz(&wl), m.nnz());
        assert!(wl.as_sell().is_some());
        assert_eq!(
            wl.format(),
            FormatSpec::Sell {
                chunk_size: 4,
                sigma: 8
            }
        );
    }

    #[test]
    fn format_spec_rejects_malformed_sell_parameters() {
        let err = FormatSpec::parse("sell:32,").unwrap_err();
        assert!(err.contains("sigma missing"), "{err}");
        let err = FormatSpec::parse("sell:32,128,extra").unwrap_err();
        assert!(err.contains("trailing"), "{err}");
        assert!(err.contains("extra"), "{err}");
    }

    #[test]
    fn scenario_spec_parses_labels_and_rejects() {
        assert_eq!(ScenarioSpec::parse("spmv").unwrap(), ScenarioSpec::Spmv);
        assert_eq!(ScenarioSpec::parse("CG").unwrap(), ScenarioSpec::Cg);
        assert_eq!(
            ScenarioSpec::parse("spmm:16").unwrap(),
            ScenarioSpec::Spmm {
                k: 16,
                layout: RhsLayout::Interleaved
            }
        );
        assert_eq!(
            ScenarioSpec::parse("spmm:4,col").unwrap(),
            ScenarioSpec::Spmm {
                k: 4,
                layout: RhsLayout::Separate
            }
        );
        for spec in [
            ScenarioSpec::Spmv,
            ScenarioSpec::Cg,
            ScenarioSpec::Spmm {
                k: 8,
                layout: RhsLayout::Separate,
            },
        ] {
            assert_eq!(ScenarioSpec::parse(&spec.label()).unwrap(), spec);
        }
        assert!(ScenarioSpec::parse("spmm")
            .unwrap_err()
            .contains("RHS count"));
        assert!(ScenarioSpec::parse("spmm:0")
            .unwrap_err()
            .contains("positive"));
        assert!(ScenarioSpec::parse("spmm:4,diag")
            .unwrap_err()
            .contains("row or col"));
        assert!(ScenarioSpec::parse("spmm:4,row,extra")
            .unwrap_err()
            .contains("trailing"));
        assert!(ScenarioSpec::parse("lu")
            .unwrap_err()
            .contains("unknown scenario"));
    }

    #[test]
    fn spmm_k1_view_is_identical_to_its_base() {
        let m = sample(23);
        for format in [
            FormatSpec::Csr,
            FormatSpec::Sell {
                chunk_size: 4,
                sigma: 8,
            },
        ] {
            let base = format.build(m.clone());
            for layout in [RhsLayout::Interleaved, RhsLayout::Separate] {
                let spmm = SpmmWorkload::new(base.clone(), 1, layout);
                assert_eq!(
                    SpmvWorkload::fingerprint(&spmm),
                    SpmvWorkload::fingerprint(&base)
                );
                assert_eq!(spmm.layout(A64FX_LINE_BYTES), base.layout(A64FX_LINE_BYTES));
                assert_eq!(spmm.x_refs(), base.x_refs());
                assert_eq!(spmm.stream_entries(), base.stream_entries());
                assert_eq!(spmm.y_row_bytes(), base.y_row_bytes());
                assert_eq!(SpmvWorkload::x_bytes(&spmm), SpmvWorkload::x_bytes(&base));
                assert_eq!(spmm.companion0_bytes(), base.companion0_bytes());
            }
        }
    }

    #[test]
    fn scenario_fingerprints_are_tagged_and_distinct() {
        let m = sample(23);
        let base = Workload::Csr(m);
        let all = [
            SpmvWorkload::fingerprint(&base),
            SpmvWorkload::fingerprint(&SpmmWorkload::new(base.clone(), 4, RhsLayout::Interleaved)),
            SpmvWorkload::fingerprint(&SpmmWorkload::new(base.clone(), 4, RhsLayout::Separate)),
            SpmvWorkload::fingerprint(&SpmmWorkload::new(base.clone(), 8, RhsLayout::Interleaved)),
            SpmvWorkload::fingerprint(&CgWorkload::new(base.clone())),
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b, "scenario views must never share cache keys");
            }
        }
    }

    #[test]
    fn build_scenario_applies_and_reports_the_scenario() {
        let m = sample(23);
        let spec = ScenarioSpec::Spmm {
            k: 4,
            layout: RhsLayout::Separate,
        };
        let wl = Workload::build_scenario(m.clone(), FormatSpec::Csr, ReorderSpec::None, spec);
        assert_eq!(wl.scenario(), spec);
        assert_eq!(SpmvWorkload::x_refs(&wl), 4 * m.nnz());
        let cg = Workload::build_scenario(
            m.clone(),
            FormatSpec::Csr,
            ReorderSpec::None,
            ScenarioSpec::Cg,
        );
        assert_eq!(cg.scenario(), ScenarioSpec::Cg);
        assert_eq!(SpmvWorkload::x_bytes(&cg), 3 * m.num_rows() * 8);
    }
}
