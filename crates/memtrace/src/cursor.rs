//! Resumable trace *cursors*: work-item-block generators that yield
//! [`Access`]es on demand — the one trace feed of the model, the side
//! analyses and the simulator.
//!
//! A cursor carries its generator's loop state (row or chunk, entry,
//! emission stage) in O(1) space and produces the next reference each
//! time it is asked — one at a time through
//! [`next_access`](TraceCursor::next_access), or a block at a time
//! through [`next_block`](TraceCursor::next_block), which hoists the
//! layout arithmetic out of the per-reference path. The SpMV and SELL
//! cursors fill blocks with whole `a`/`colidx`/`k × x` entry groups
//! from any entry boundary, mid-row included, and leave only row or
//! chunk bounds, `y` stores and partial groups to the per-reference
//! step. Every production
//! reader of a reference stream goes through the block merge
//! [`round_robin_cursors_blocks`](crate::interleave::round_robin_cursors_blocks),
//! which interleaves the threads sharing a cache with O(threads) total
//! state and zero trace allocation; a single cursor is the one-thread
//! case.
//!
//! Cursors are cheap to construct (they borrow the matrix and layout), so
//! replaying a stream — e.g. the warm-up and measured iterations of the
//! locality model — is done by building fresh cursors rather than storing
//! the trace.
//!
//! The sink-pushing generators ([`spmv_trace`](crate::spmv_trace),
//! [`xtrace`](crate::xtrace)) are kept only as the independent reference:
//! the cursor tests pin every cursor to them reference for reference, and
//! `LocalityProfile::compute_materialized` replays them as the validation
//! oracle.

use crate::layout::{Array, DataLayout};
use crate::sink::{AccessBlock, TraceSink};
use crate::{Access, PackedAccess};
use sparsemat::{CsrMatrix, SellMatrix};
use std::ops::Range;

/// A resumable generator of [`Access`] events.
pub trait TraceCursor {
    /// Produces the next reference, or `None` when the trace is exhausted.
    fn next_access(&mut self) -> Option<Access>;

    /// Exact number of references this cursor will still produce.
    fn remaining(&self) -> usize;

    /// Appends upcoming references to `block` — in exactly the order
    /// [`next_access`](Self::next_access) would produce them — until the
    /// block is full or the cursor is exhausted. Returns the number
    /// appended; 0 means exhausted (given a non-full block).
    ///
    /// The default forwards to `next_access`; the SpMV cursors override
    /// it with batched fills that hoist the layout's line arithmetic out
    /// of the per-reference path (whole entry groups for the CSR and
    /// SELL cursors, whole gathers for the single-RHS `x` cursor).
    fn next_block(&mut self, block: &mut AccessBlock) -> usize {
        let mut n = 0;
        while !block.is_full() {
            match self.next_access() {
                Some(a) => {
                    block.push(PackedAccess::pack(a));
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Drains the cursor into a sink (convenience; equivalent to calling
    /// [`next_access`](Self::next_access) until exhaustion).
    fn drain_into<S: TraceSink>(&mut self, sink: &mut S)
    where
        Self: Sized,
    {
        while let Some(a) = self.next_access() {
            sink.access(a);
        }
    }
}

/// Per-array line arithmetic hoisted out of a block fill: `line_of` is a
/// base plus an integer division by the elements-per-line, which is exact
/// because a line holds a whole number of elements (`line_bytes` is a
/// multiple of every element size). Division by a power of two becomes a
/// shift.
#[derive(Clone, Copy, Debug)]
struct LaneGeom {
    base: u64,
    epl: usize,
    /// `Some(log2(epl))` when the division reduces to a shift — always
    /// the case for power-of-two line sizes such as the A64FX's 256 B.
    shift: Option<u32>,
}

impl LaneGeom {
    fn new(layout: &DataLayout, array: Array) -> Self {
        let epl = layout.elements_per_line(array);
        LaneGeom {
            base: layout.array_base(array),
            epl,
            shift: epl.is_power_of_two().then(|| epl.trailing_zeros()),
        }
    }

    /// Line number of element `index`; equals `layout.line_of(array, index)`.
    #[inline]
    fn line(self, index: usize) -> u64 {
        match self.shift {
            Some(s) => self.base + ((index as u64) >> s),
            None => self.base + (index / self.epl) as u64,
        }
    }
}

/// Incremental line counter over a sequentially-scanned array: one
/// decrement per element instead of one division.
#[derive(Clone, Copy, Debug)]
struct SeqLine {
    line: u64,
    /// Elements left on the current line.
    left: usize,
    epl: usize,
}

impl SeqLine {
    fn at(geom: LaneGeom, index: usize) -> Self {
        SeqLine {
            line: geom.line(index),
            left: geom.epl - index % geom.epl,
            epl: geom.epl,
        }
    }

    /// Line of the current element, then advances by one element.
    #[inline]
    fn next(&mut self) -> u64 {
        let line = self.line;
        self.left -= 1;
        if self.left == 0 {
            self.line += 1;
            self.left = self.epl;
        }
        line
    }
}

/// Line geometry of one `a`/`colidx`/`k × x` entry group, the unit of
/// the SpMV and SELL cursors' block fills.
#[derive(Clone, Copy, Debug)]
struct EntryLanes {
    a: LaneGeom,
    col: LaneGeom,
    x: LaneGeom,
}

impl EntryLanes {
    fn new(layout: &DataLayout) -> Self {
        EntryLanes {
            a: LaneGeom::new(layout, Array::A),
            col: LaneGeom::new(layout, Array::ColIdx),
            x: LaneGeom::new(layout, Array::X),
        }
    }

    /// Appends the whole groups of `entries` (indices into `colidx` and
    /// the matrix values), in order, while a group fits in `block`.
    /// Returns the number of entries emitted; 0 when the block holds less
    /// than one group.
    #[inline]
    fn fill(
        self,
        block: &mut AccessBlock,
        colidx: &[u32],
        entries: Range<usize>,
        rhs: RhsGeom,
    ) -> usize {
        let groups = (block.space() / (2 + rhs.k)).min(entries.len());
        if groups == 0 {
            return 0;
        }
        let (x_scale, x_step) = rhs.x_steps();
        let mut a_line = SeqLine::at(self.a, entries.start);
        let mut c_line = SeqLine::at(self.col, entries.start);
        for &col in &colidx[entries.start..entries.start + groups] {
            block.push(PackedAccess::pack(Access::load(a_line.next(), Array::A)));
            block.push(PackedAccess::pack(Access::load(
                c_line.next(),
                Array::ColIdx,
            )));
            let base = col as usize * x_scale;
            for j in 0..rhs.k {
                block.push(PackedAccess::pack(Access::load(
                    self.x.line(base + j * x_step),
                    Array::X,
                )));
            }
        }
        groups
    }
}

/// Multi-RHS geometry: `k` right-hand sides and how their elements are
/// laid out in the `x`/`y` array roles.
///
/// With `k = 1` every element index degenerates to the single-vector
/// index, so cursors constructed through [`RhsGeom::single`] emit traces
/// byte-identical to the historical single-RHS cursors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RhsGeom {
    /// Number of right-hand sides.
    pub k: usize,
    /// Row-major interleaved (`x[c*k + j]`) when `true`; column-major
    /// separate vectors (`x[j*x_stride + c]`) when `false`.
    pub interleaved: bool,
    /// Column-major stride of the `x` role (matrix columns).
    pub x_stride: usize,
    /// Column-major stride of the `y` role (matrix rows).
    pub y_stride: usize,
}

impl RhsGeom {
    /// The single-RHS geometry (`k = 1`; layout is irrelevant).
    pub fn single() -> Self {
        RhsGeom {
            k: 1,
            interleaved: true,
            x_stride: 0,
            y_stride: 0,
        }
    }

    /// Geometry for `k` right-hand sides over an `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize, interleaved: bool, cols: usize, rows: usize) -> Self {
        assert!(k > 0, "need at least one right-hand side");
        RhsGeom {
            k,
            interleaved,
            x_stride: cols,
            y_stride: rows,
        }
    }

    /// Element index of RHS `j` of logical `x` element `c`.
    #[inline]
    fn x_elem(self, c: usize, j: usize) -> usize {
        let (scale, step) = self.x_steps();
        c * scale + j * step
    }

    /// `(scale, step)` such that RHS `j` of logical `x` element `c` is
    /// element `c * scale + j * step`.
    #[inline]
    fn x_steps(self) -> (usize, usize) {
        if self.interleaved {
            (self.k, 1)
        } else {
            (1, self.x_stride)
        }
    }

    /// Element index of RHS `j` of logical `y` element `r`.
    #[inline]
    fn y_elem(self, r: usize, j: usize) -> usize {
        if self.interleaved {
            r * self.k + j
        } else {
            j * self.y_stride + r
        }
    }
}

/// Emission stage of the method (A) generator's inner loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// Loop entry: `rowptr[r0]`.
    Entry,
    /// Loop bound of the current row: `rowptr[r + 1]`.
    Bound,
    /// `a[i]` of the current nonzero.
    A,
    /// `colidx[i]` of the current nonzero.
    Col,
    /// `x[colidx[i]]` of the current nonzero.
    X,
    /// `y[r]` store closing the current row.
    Y,
    /// Exhausted.
    Done,
}

/// Streaming equivalent of the reference generator `trace_spmv_rows` in
/// [`spmv_trace`](crate::spmv_trace): yields the method (A) trace of one
/// row block reference-by-reference.
///
/// The emission order is identical to the sink generator's (verified by
/// tests): `rowptr[r0]`, then per row the bound load, the per-nonzero
/// `a`/`colidx`/`x` triple, and the `y` store.
#[derive(Clone, Debug)]
pub struct SpmvCursor<'a> {
    matrix: &'a CsrMatrix,
    layout: &'a DataLayout,
    rows: Range<usize>,
    row: usize,
    nz: usize,
    nz_end: usize,
    rhs: RhsGeom,
    /// Next RHS of the current `x` gather (`< rhs.k`).
    xj: usize,
    /// Next RHS of the current `y` store (`< rhs.k`).
    yj: usize,
    stage: Stage,
    remaining: usize,
}

impl<'a> SpmvCursor<'a> {
    /// Creates a cursor over rows `rows` of `matrix`.
    ///
    /// # Panics
    ///
    /// Panics if the row range is out of bounds.
    pub fn new(matrix: &'a CsrMatrix, layout: &'a DataLayout, rows: Range<usize>) -> Self {
        Self::with_rhs(matrix, layout, rows, RhsGeom::single())
    }

    /// Creates a multi-RHS (SpMM) cursor over rows `rows`: every `x`
    /// gather widens to `rhs.k` loads and every `y` store to `rhs.k`
    /// stores. With [`RhsGeom::single`] the trace is byte-identical to
    /// [`new`](Self::new)'s.
    ///
    /// # Panics
    ///
    /// Panics if the row range is out of bounds.
    pub fn with_rhs(
        matrix: &'a CsrMatrix,
        layout: &'a DataLayout,
        rows: Range<usize>,
        rhs: RhsGeom,
    ) -> Self {
        assert!(rows.end <= matrix.num_rows(), "row range out of bounds");
        let nnz = if rows.is_empty() {
            0
        } else {
            (matrix.rowptr()[rows.end] - matrix.rowptr()[rows.start]) as usize
        };
        let remaining = if rows.is_empty() {
            0
        } else {
            // trace_len generalised to k: the entry load, per row the
            // bound load plus k `y` stores, per nonzero a/colidx plus k
            // `x` loads. k = 1 reduces to the reference `trace_len`.
            1 + rows.len() * (1 + rhs.k) + nnz * (2 + rhs.k)
        };
        SpmvCursor {
            matrix,
            layout,
            row: rows.start,
            rows,
            nz: 0,
            nz_end: 0,
            rhs,
            xj: 0,
            yj: 0,
            stage: Stage::Entry,
            remaining,
        }
    }
}

impl TraceCursor for SpmvCursor<'_> {
    fn next_access(&mut self) -> Option<Access> {
        let access = match self.stage {
            Stage::Done => return None,
            Stage::Entry => {
                if self.rows.is_empty() {
                    self.stage = Stage::Done;
                    return None;
                }
                self.stage = Stage::Bound;
                Access::load(
                    self.layout.line_of(Array::RowPtr, self.rows.start),
                    Array::RowPtr,
                )
            }
            Stage::Bound => {
                let r = self.row;
                let range = self.matrix.row_range(r);
                self.nz = range.start;
                self.nz_end = range.end;
                self.stage = if self.nz < self.nz_end {
                    Stage::A
                } else {
                    Stage::Y
                };
                Access::load(self.layout.line_of(Array::RowPtr, r + 1), Array::RowPtr)
            }
            Stage::A => {
                self.stage = Stage::Col;
                Access::load(self.layout.line_of(Array::A, self.nz), Array::A)
            }
            Stage::Col => {
                self.stage = Stage::X;
                Access::load(self.layout.line_of(Array::ColIdx, self.nz), Array::ColIdx)
            }
            Stage::X => {
                let c = self.matrix.colidx()[self.nz] as usize;
                let elem = self.rhs.x_elem(c, self.xj);
                self.xj += 1;
                if self.xj == self.rhs.k {
                    self.xj = 0;
                    self.nz += 1;
                    self.stage = if self.nz < self.nz_end {
                        Stage::A
                    } else {
                        Stage::Y
                    };
                }
                Access::load(self.layout.line_of(Array::X, elem), Array::X)
            }
            Stage::Y => {
                let elem = self.rhs.y_elem(self.row, self.yj);
                self.yj += 1;
                if self.yj == self.rhs.k {
                    self.yj = 0;
                    self.row += 1;
                    self.stage = if self.row < self.rows.end {
                        Stage::Bound
                    } else {
                        Stage::Done
                    };
                }
                Access::store(self.layout.line_of(Array::Y, elem), Array::Y)
            }
        };
        self.remaining -= 1;
        Some(access)
    }

    fn remaining(&self) -> usize {
        self.remaining
    }

    fn next_block(&mut self, block: &mut AccessBlock) -> usize {
        let lanes = EntryLanes::new(self.layout);
        let group = 2 + self.rhs.k;
        let mut n = 0;
        loop {
            // Entry-group fast path: at an entry boundary (the start of
            // a row or a resume mid-row), emit every whole group of the
            // row's remaining entries that fits the block.
            if self.stage == Stage::A {
                let groups =
                    lanes.fill(block, self.matrix.colidx(), self.nz..self.nz_end, self.rhs);
                self.nz += groups;
                if self.nz == self.nz_end {
                    self.stage = Stage::Y;
                }
                self.remaining -= group * groups;
                n += group * groups;
            }
            // Per-reference step: the loop entry, row bounds, `y` stores,
            // a resume inside a group, and the block's last slots when
            // they hold less than a whole group.
            if block.is_full() {
                return n;
            }
            match self.next_access() {
                Some(a) => {
                    block.push(PackedAccess::pack(a));
                    n += 1;
                }
                None => return n,
            }
        }
    }
}

/// Streaming equivalent of the reference generator `trace_x_rows` in
/// [`xtrace`](crate::xtrace): yields the method (B) trace (one `x` load
/// per nonzero) of one row block.
#[derive(Clone, Debug)]
pub struct XCursor<'a> {
    colidx: &'a [u32],
    layout: &'a DataLayout,
    nz: usize,
    nz_end: usize,
    rhs: RhsGeom,
    /// Next RHS of the current gather (`< rhs.k`).
    j: usize,
}

impl<'a> XCursor<'a> {
    /// Creates a cursor over rows `rows` of `matrix`.
    ///
    /// # Panics
    ///
    /// Panics if the row range is out of bounds.
    pub fn new(matrix: &'a CsrMatrix, layout: &'a DataLayout, rows: Range<usize>) -> Self {
        assert!(rows.end <= matrix.num_rows(), "row range out of bounds");
        let (nz, nz_end) = if rows.is_empty() {
            (0, 0)
        } else {
            (
                matrix.rowptr()[rows.start] as usize,
                matrix.rowptr()[rows.end] as usize,
            )
        };
        XCursor {
            colidx: matrix.colidx(),
            layout,
            nz,
            nz_end,
            rhs: RhsGeom::single(),
            j: 0,
        }
    }

    /// Creates a cursor over an explicit range of gather indices in a raw
    /// `colidx` array — the format-agnostic entry point. Any format whose
    /// per-thread share of `x` gather targets is a contiguous `colidx`
    /// slice (CSR row blocks, SELL-C-σ chunk blocks) reduces to this.
    ///
    /// # Panics
    ///
    /// Panics if the entry range is out of bounds.
    pub fn over(colidx: &'a [u32], layout: &'a DataLayout, entries: Range<usize>) -> Self {
        Self::over_rhs(colidx, layout, entries, RhsGeom::single())
    }

    /// Like [`over`](Self::over), but widening every gather to `rhs.k`
    /// loads (the SpMM x-trace). With [`RhsGeom::single`] the trace is
    /// byte-identical to [`over`](Self::over)'s.
    ///
    /// # Panics
    ///
    /// Panics if the entry range is out of bounds.
    pub fn over_rhs(
        colidx: &'a [u32],
        layout: &'a DataLayout,
        entries: Range<usize>,
        rhs: RhsGeom,
    ) -> Self {
        assert!(entries.end <= colidx.len(), "entry range out of bounds");
        XCursor {
            colidx,
            layout,
            nz: entries.start.min(entries.end),
            nz_end: entries.end,
            rhs,
            j: 0,
        }
    }
}

impl TraceCursor for XCursor<'_> {
    fn next_access(&mut self) -> Option<Access> {
        if self.nz >= self.nz_end {
            return None;
        }
        let c = self.colidx[self.nz] as usize;
        let elem = self.rhs.x_elem(c, self.j);
        self.j += 1;
        if self.j == self.rhs.k {
            self.j = 0;
            self.nz += 1;
        }
        Some(Access::load(self.layout.line_of(Array::X, elem), Array::X))
    }

    fn remaining(&self) -> usize {
        (self.nz_end - self.nz) * self.rhs.k - self.j
    }

    fn next_block(&mut self, block: &mut AccessBlock) -> usize {
        if self.rhs.k != 1 {
            // Multi-RHS gathers go through the per-reference path; the
            // hoisted line arithmetic below assumes one load per entry.
            let mut n = 0;
            while !block.is_full() {
                match self.next_access() {
                    Some(a) => {
                        block.push(PackedAccess::pack(a));
                        n += 1;
                    }
                    None => break,
                }
            }
            return n;
        }
        let take = block.space().min(self.nz_end - self.nz);
        if take == 0 {
            return 0;
        }
        let geom = LaneGeom::new(self.layout, Array::X);
        for &c in &self.colidx[self.nz..self.nz + take] {
            block.push(PackedAccess::pack(Access::load(
                geom.line(c as usize),
                Array::X,
            )));
        }
        self.nz += take;
        take
    }
}

/// A cursor over an already-materialised trace slice.
#[cfg(test)]
#[derive(Clone, Debug)]
pub struct SliceCursor<'a> {
    trace: &'a [Access],
    pos: usize,
}

#[cfg(test)]
impl<'a> SliceCursor<'a> {
    /// Creates a cursor yielding `trace` in order.
    pub fn new(trace: &'a [Access]) -> Self {
        SliceCursor { trace, pos: 0 }
    }
}

#[cfg(test)]
impl TraceCursor for SliceCursor<'_> {
    fn next_access(&mut self) -> Option<Access> {
        let a = self.trace.get(self.pos).copied();
        self.pos += a.is_some() as usize;
        a
    }

    fn remaining(&self) -> usize {
        self.trace.len() - self.pos
    }

    fn next_block(&mut self, block: &mut AccessBlock) -> usize {
        let take = block.space().min(self.trace.len() - self.pos);
        for &a in &self.trace[self.pos..self.pos + take] {
            block.push(PackedAccess::pack(a));
        }
        self.pos += take;
        take
    }
}

/// Emission stage of the SELL-C-σ generator's inner loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SellStage {
    /// Chunk metadata load (`rowptr` role) opening chunk `k`.
    Meta,
    /// `values[idx]` of the current padded entry.
    A,
    /// `colidx[idx]` of the current padded entry.
    Col,
    /// `x[colidx[idx]]` of the current padded entry.
    X,
    /// `y[row_perm[row]]` store closing the chunk.
    Y,
    /// Exhausted.
    Done,
}

/// Yields the method (A) trace of one chunk block of a SELL-C-σ matrix
/// reference-by-reference.
///
/// The emission order is identical to the test-only straight-line
/// reference generator's (`trace_sell_chunks`, verified by tests): per
/// chunk the metadata load, then the `a`/`colidx`/`x` triple of every
/// padded entry in storage (column-major) order, then one `y` store per
/// row of the chunk in packed order.
#[derive(Clone, Debug)]
pub struct SellCursor<'a> {
    matrix: &'a SellMatrix,
    layout: &'a DataLayout,
    chunks: Range<usize>,
    /// Current chunk.
    k: usize,
    /// Current padded entry (global index into `values`/`colidx`).
    idx: usize,
    /// One past the last padded entry of the current chunk.
    idx_end: usize,
    /// Next `y` lane of the current chunk.
    lane: usize,
    /// Rows actually present in the current chunk (≤ `C` on a ragged tail).
    rows_in_chunk: usize,
    rhs: RhsGeom,
    /// Next RHS of the current `x` gather (`< rhs.k`).
    xj: usize,
    /// Next RHS of the current `y` store (`< rhs.k`).
    yj: usize,
    stage: SellStage,
    remaining: usize,
}

impl<'a> SellCursor<'a> {
    /// Creates a cursor over chunks `chunks` of `matrix`.
    ///
    /// # Panics
    ///
    /// Panics if the chunk range is out of bounds.
    pub fn new(matrix: &'a SellMatrix, layout: &'a DataLayout, chunks: Range<usize>) -> Self {
        Self::with_rhs(matrix, layout, chunks, RhsGeom::single())
    }

    /// Creates a multi-RHS (SpMM) cursor over chunks `chunks`: every `x`
    /// gather widens to `rhs.k` loads and every `y` store to `rhs.k`
    /// stores. With [`RhsGeom::single`] the trace is byte-identical to
    /// [`new`](Self::new)'s.
    ///
    /// # Panics
    ///
    /// Panics if the chunk range is out of bounds.
    pub fn with_rhs(
        matrix: &'a SellMatrix,
        layout: &'a DataLayout,
        chunks: Range<usize>,
        rhs: RhsGeom,
    ) -> Self {
        assert!(
            chunks.end <= matrix.num_chunks(),
            "chunk range out of bounds"
        );
        let remaining = if chunks.is_empty() {
            0
        } else {
            let entries = matrix.chunk_ptr()[chunks.end] - matrix.chunk_ptr()[chunks.start];
            let c = matrix.chunk_size();
            let rows = (chunks.end * c).min(matrix.num_rows()) - chunks.start * c;
            (2 + rhs.k) * entries + chunks.len() + rhs.k * rows
        };
        SellCursor {
            matrix,
            layout,
            k: chunks.start,
            chunks,
            idx: 0,
            idx_end: 0,
            lane: 0,
            rows_in_chunk: 0,
            rhs,
            xj: 0,
            yj: 0,
            stage: SellStage::Meta,
            remaining,
        }
    }

    /// Advances to the next chunk (or `Done` past the last).
    fn advance_chunk(&mut self) {
        self.k += 1;
        self.stage = if self.k < self.chunks.end {
            SellStage::Meta
        } else {
            SellStage::Done
        };
    }
}

impl TraceCursor for SellCursor<'_> {
    fn next_access(&mut self) -> Option<Access> {
        let access = match self.stage {
            SellStage::Done => return None,
            SellStage::Meta => {
                if self.chunks.is_empty() {
                    self.stage = SellStage::Done;
                    return None;
                }
                let k = self.k;
                let c = self.matrix.chunk_size();
                let width = self.matrix.chunk_width()[k] as usize;
                self.idx = self.matrix.chunk_ptr()[k];
                self.idx_end = self.idx + width * c;
                self.lane = 0;
                let row_base = k * c;
                self.rows_in_chunk =
                    c.min(self.matrix.num_rows() - row_base.min(self.matrix.num_rows()));
                self.stage = if self.idx < self.idx_end {
                    SellStage::A
                } else if self.rows_in_chunk > 0 {
                    SellStage::Y
                } else {
                    // Width-0 chunk past the last row cannot occur, but a
                    // zero-row matrix has no chunks at all; be defensive.
                    self.advance_chunk();
                    self.remaining -= 1;
                    return Some(Access::load(
                        self.layout.line_of(Array::RowPtr, k),
                        Array::RowPtr,
                    ));
                };
                Access::load(self.layout.line_of(Array::RowPtr, k), Array::RowPtr)
            }
            SellStage::A => {
                self.stage = SellStage::Col;
                Access::load(self.layout.line_of(Array::A, self.idx), Array::A)
            }
            SellStage::Col => {
                self.stage = SellStage::X;
                Access::load(self.layout.line_of(Array::ColIdx, self.idx), Array::ColIdx)
            }
            SellStage::X => {
                let c = self.matrix.colidx()[self.idx] as usize;
                let elem = self.rhs.x_elem(c, self.xj);
                self.xj += 1;
                if self.xj == self.rhs.k {
                    self.xj = 0;
                    self.idx += 1;
                    self.stage = if self.idx < self.idx_end {
                        SellStage::A
                    } else {
                        SellStage::Y
                    };
                }
                Access::load(self.layout.line_of(Array::X, elem), Array::X)
            }
            SellStage::Y => {
                let row_base = self.k * self.matrix.chunk_size();
                let original = self.matrix.row_perm()[row_base + self.lane];
                let elem = self.rhs.y_elem(original, self.yj);
                self.yj += 1;
                if self.yj == self.rhs.k {
                    self.yj = 0;
                    self.lane += 1;
                    if self.lane >= self.rows_in_chunk {
                        self.advance_chunk();
                    }
                }
                Access::store(self.layout.line_of(Array::Y, elem), Array::Y)
            }
        };
        self.remaining -= 1;
        Some(access)
    }

    fn remaining(&self) -> usize {
        self.remaining
    }

    fn next_block(&mut self, block: &mut AccessBlock) -> usize {
        let lanes = EntryLanes::new(self.layout);
        let group = 2 + self.rhs.k;
        let mut n = 0;
        loop {
            // Entry-group fast path, as in `SpmvCursor::next_block`, over
            // the chunk's padded entries.
            if self.stage == SellStage::A {
                let groups = lanes.fill(
                    block,
                    self.matrix.colidx(),
                    self.idx..self.idx_end,
                    self.rhs,
                );
                self.idx += groups;
                if self.idx == self.idx_end {
                    self.stage = SellStage::Y;
                }
                self.remaining -= group * groups;
                n += group * groups;
            }
            // Per-reference step: chunk metadata, `y` stores, a resume
            // inside a group, and the block's last slots.
            if block.is_full() {
                return n;
            }
            match self.next_access() {
                Some(a) => {
                    block.push(PackedAccess::pack(a));
                    n += 1;
                }
                None => return n,
            }
        }
    }
}

/// References issued per vector index by each CG sweep pass (see
/// [`CgCursor`]).
pub const CG_PASS_REFS: [usize; 4] = [2, 4, 1, 3];

/// Total vector-sweep references per vector index of a CG iteration: the
/// sum of [`CG_PASS_REFS`].
pub const CG_SWEEP_REFS_PER_ROW: usize = 10;

/// One conjugate-gradient iteration as a trace: the inner SpMV cursor's
/// references followed by the solver's four vector sweeps in pass-major
/// order, loop for loop as unpreconditioned CG runs them.
///
/// The `x` array role holds the three reused solver vectors as
/// consecutive `n`-element segments — `p` at offset `0` (so the SpMV
/// gathers hit it unchanged), `r` at `n`, the solution `x` at `2n` — and
/// the `y` role holds `ap`. Per vector index `i` the sweeps issue, in the
/// solver's loop order:
///
/// 1. `pap = Σ p·ap`: load `p[i]`, load `ap[i]` (2 refs);
/// 2. `x[i] += α·p[i]; r[i] -= α·ap[i]`: load `p[i]`, store `x[i]`,
///    load `ap[i]`, store `r[i]` (4 refs);
/// 3. `rs = Σ r²`: load `r[i]` (1 ref);
/// 4. `p[i] = r[i] + β·p[i]`: load `r[i]`, load `p[i]`, store `p[i]`
///    (3 refs).
///
/// Updates count one store per element written, matching the SpMV `y`
/// convention. The trace length is exactly the inner cursor's plus
/// [`CG_SWEEP_REFS_PER_ROW`]`·rows` — the traffic-conservation invariant
/// the validation harness pins.
#[derive(Clone, Debug)]
pub struct CgCursor<'a, C: TraceCursor> {
    inner: C,
    layout: &'a DataLayout,
    /// Vector-index span this thread sweeps (its share of `0..n`).
    rows: Range<usize>,
    /// Vector length `n` — the segment stride of the `x` role.
    n: usize,
    /// Vector index offset within `rows` of the current sweep pass.
    i: usize,
    /// Current sweep pass (`0..4`; `4` = exhausted).
    pass: u8,
    /// Reference index within the current pass at the current `i`.
    step: u8,
    /// Sweep references not yet produced.
    sweep_left: usize,
}

impl<'a, C: TraceCursor> CgCursor<'a, C> {
    /// Wraps `inner` (the SpMV share of the iteration) with the vector
    /// sweeps over indices `rows` of `n`-element vectors.
    ///
    /// # Panics
    ///
    /// Panics if the index range exceeds `n`.
    pub fn new(inner: C, layout: &'a DataLayout, rows: Range<usize>, n: usize) -> Self {
        assert!(rows.end <= n, "vector index range out of bounds");
        let sweep_left = CG_SWEEP_REFS_PER_ROW * rows.len();
        CgCursor {
            inner,
            layout,
            pass: if rows.is_empty() { 4 } else { 0 },
            rows,
            n,
            i: 0,
            step: 0,
            sweep_left,
        }
    }
}

impl<C: TraceCursor> TraceCursor for CgCursor<'_, C> {
    fn next_access(&mut self) -> Option<Access> {
        if let Some(a) = self.inner.next_access() {
            return Some(a);
        }
        if self.pass >= 4 {
            return None;
        }
        let n = self.n;
        let i = self.rows.start + self.i;
        let (array, elem, store) = match (self.pass, self.step) {
            // pap = Σ p·ap
            (0, 0) => (Array::X, i, false),
            (0, 1) => (Array::Y, i, false),
            // x += α·p; r -= α·ap
            (1, 0) => (Array::X, i, false),
            (1, 1) => (Array::X, 2 * n + i, true),
            (1, 2) => (Array::Y, i, false),
            (1, 3) => (Array::X, n + i, true),
            // rs = Σ r²
            (2, 0) => (Array::X, n + i, false),
            // p = r + β·p
            (3, 0) => (Array::X, n + i, false),
            (3, 1) => (Array::X, i, false),
            (3, 2) => (Array::X, i, true),
            _ => unreachable!("pass/step out of range"),
        };
        self.step += 1;
        if usize::from(self.step) == CG_PASS_REFS[self.pass as usize] {
            self.step = 0;
            self.i += 1;
            if self.i == self.rows.len() {
                self.i = 0;
                self.pass += 1;
            }
        }
        self.sweep_left -= 1;
        let line = self.layout.line_of(array, elem);
        Some(if store {
            Access::store(line, array)
        } else {
            Access::load(line, array)
        })
    }

    fn remaining(&self) -> usize {
        self.inner.remaining() + self.sweep_left
    }

    fn next_block(&mut self, block: &mut AccessBlock) -> usize {
        let mut n = 0;
        // The SpMV prefix keeps its batched fill; the sweeps are emitted
        // per reference (their line arithmetic is already sequential).
        while self.inner.remaining() > 0 && !block.is_full() {
            n += self.inner.next_block(block);
        }
        while !block.is_full() {
            match self.next_access() {
                Some(a) => {
                    block.push(PackedAccess::pack(a));
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

/// Software x-prefetch: the kernel of the paper's future-work section,
/// which issues a `prfm`-style hint for the `x` line gathered `distance`
/// positions ahead.
///
/// Wraps a method (A) cursor (`inner`) and the method (B) cursor over the
/// same work items (`lead`), advanced `distance` gathers at construction.
/// After each `x` load of `inner` it emits one [`Access::prefetch`] for
/// the lead's next line; the last `distance` gathers of the block get no
/// hint, so hints never cross into another thread's share.
#[derive(Clone, Debug)]
pub struct SwPrefetchCursor<C, X> {
    inner: C,
    lead: X,
    /// Hint owed after the `x` load just emitted.
    pending: Option<Access>,
}

impl<C: TraceCursor, X: TraceCursor> SwPrefetchCursor<C, X> {
    /// Pairs `inner` with `lead`, the `x`-gather stream of the same items.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is zero.
    pub fn new(inner: C, mut lead: X, distance: usize) -> Self {
        assert!(distance > 0, "prefetch distance must be positive");
        for _ in 0..distance {
            if lead.next_access().is_none() {
                break;
            }
        }
        SwPrefetchCursor {
            inner,
            lead,
            pending: None,
        }
    }
}

impl<C: TraceCursor, X: TraceCursor> TraceCursor for SwPrefetchCursor<C, X> {
    fn next_access(&mut self) -> Option<Access> {
        if let Some(hint) = self.pending.take() {
            return Some(hint);
        }
        let access = self.inner.next_access()?;
        if access.array == Array::X && !access.write {
            self.pending = self
                .lead
                .next_access()
                .map(|a| Access::prefetch(a.line, Array::X));
        }
        Some(access)
    }

    /// Exact as long as the lead yields no more gathers than `inner`
    /// loads `x` — true whenever `lead` is the method (B) stream of
    /// `inner`'s items, the only pairing built.
    fn remaining(&self) -> usize {
        self.inner.remaining() + self.lead.remaining() + usize::from(self.pending.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::VecSink;
    use crate::spmv_trace::{trace_spmv_partitioned, trace_spmv_rows};
    use crate::xtrace::trace_x_rows;
    use sparsemat::{CooMatrix, RowPartition};

    fn fig1() -> (CsrMatrix, DataLayout) {
        let m = CsrMatrix::from_parts(4, 4, vec![0, 2, 3, 5, 7], vec![1, 2, 0, 2, 3, 1, 3]);
        let l = DataLayout::new(&m, 16);
        (m, l)
    }

    fn random_csr(n: usize, per_row: usize, seed: u64) -> CsrMatrix {
        let mut state = seed | 1;
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            for _ in 0..per_row {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
                coo.push(r, (state >> 33) as usize % n);
            }
        }
        coo.to_csr()
    }

    fn collect<C: TraceCursor>(mut c: C) -> Vec<Access> {
        let mut out = Vec::new();
        while let Some(a) = c.next_access() {
            out.push(a);
        }
        out
    }

    #[test]
    fn spmv_cursor_matches_sink_generator() {
        let (m, l) = fig1();
        for rows in [0..4, 0..1, 1..3, 2..2, 0..0] {
            let mut sink = VecSink::new();
            trace_spmv_rows(&m, &l, rows.clone(), &mut sink);
            let got = collect(SpmvCursor::new(&m, &l, rows.clone()));
            assert_eq!(got, sink.trace, "rows {rows:?}");
        }
    }

    #[test]
    fn spmv_cursor_matches_on_random_matrix_with_empty_rows() {
        let mut coo = CooMatrix::new(10, 10);
        // Rows 0, 4, 9 empty; others sparse.
        for (r, c) in [(1, 3), (2, 0), (2, 9), (3, 3), (5, 5), (6, 1), (8, 8)] {
            coo.push(r, c);
        }
        let m = coo.to_csr();
        let l = DataLayout::new(&m, 16);
        let mut sink = VecSink::new();
        trace_spmv_rows(&m, &l, 0..10, &mut sink);
        assert_eq!(collect(SpmvCursor::new(&m, &l, 0..10)), sink.trace);
    }

    #[test]
    fn x_cursor_matches_sink_generator() {
        let (m, l) = fig1();
        for rows in [0..4, 1..3, 3..3] {
            let mut sink = VecSink::new();
            trace_x_rows(&m, &l, rows.clone(), &mut sink);
            assert_eq!(collect(XCursor::new(&m, &l, rows.clone())), sink.trace);
        }
    }

    #[test]
    fn remaining_counts_down_exactly() {
        let m = random_csr(64, 5, 9);
        let l = DataLayout::new(&m, 64);
        let mut c = SpmvCursor::new(&m, &l, 0..64);
        let total = c.remaining();
        assert_eq!(total, crate::spmv_trace::trace_len(64, m.nnz()));
        let mut seen = 0;
        while c.next_access().is_some() {
            seen += 1;
            assert_eq!(c.remaining(), total - seen);
        }
        assert_eq!(seen, total);
        assert_eq!(c.next_access(), None);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn partitioned_cursors_match_partitioned_traces() {
        let m = random_csr(100, 4, 3);
        let l = DataLayout::new(&m, 64);
        let p = RowPartition::static_rows(100, 7);
        let traces = trace_spmv_partitioned(&m, &l, &p);
        assert_eq!(traces.len(), p.num_parts());
        for (rows, trace) in p.iter().zip(traces) {
            assert_eq!(collect(SpmvCursor::new(&m, &l, rows)), trace);
        }
    }

    fn swpf_cursor<'a>(
        m: &'a CsrMatrix,
        l: &'a DataLayout,
        rows: Range<usize>,
        distance: usize,
    ) -> SwPrefetchCursor<SpmvCursor<'a>, XCursor<'a>> {
        SwPrefetchCursor::new(
            SpmvCursor::new(m, l, rows.clone()),
            XCursor::new(m, l, rows),
            distance,
        )
    }

    #[test]
    fn swpf_trace_adds_x_prefetch_hints() {
        let (m, l) = fig1();
        let plain = collect(SpmvCursor::new(&m, &l, 0..4));
        let swpf = collect(swpf_cursor(&m, &l, 0..4, 2));
        // One hint per nonzero except the last `distance` of the block.
        let hints: Vec<_> = swpf.iter().filter(|a| a.sw_prefetch).collect();
        assert_eq!(hints.len(), m.nnz() - 2);
        assert!(hints.iter().all(|a| a.array == Array::X && !a.write));
        // Stripping the hints recovers the plain trace.
        let stripped: Vec<Access> = swpf.iter().copied().filter(|a| !a.sw_prefetch).collect();
        assert_eq!(stripped, plain);
        // The first hint follows the first x load and targets the x line
        // of the nonzero 2 ahead: colidx[2] = 0 -> x line 0.
        // Trace: rowptr, rowptr, a, colidx, x, hint.
        assert!(swpf[5].sw_prefetch && swpf[4].array == Array::X);
        assert_eq!(hints[0].line, 0);
    }

    #[test]
    fn swpf_partitioned_hints_stay_in_block() {
        let (m, l) = fig1();
        let p = RowPartition::static_rows(4, 2);
        // Each block loses exactly its last hint (distance 1).
        for rows in p.iter() {
            let nnz = (m.rowptr()[rows.end] - m.rowptr()[rows.start]) as usize;
            let hints = collect(swpf_cursor(&m, &l, rows, 1))
                .iter()
                .filter(|a| a.sw_prefetch)
                .count();
            assert_eq!(hints, nnz - 1);
        }
    }

    /// The hint after the `j`-th gather of a block targets gather
    /// `j + distance` of the same block, for distances below, at and past
    /// the block length; `remaining` stays exact throughout.
    #[test]
    fn swpf_hints_lead_by_distance_within_each_block() {
        let m = random_csr(90, 5, 17);
        let l = DataLayout::new(&m, 64);
        for distance in [1, 4, 16, 1000] {
            for rows in RowPartition::static_rows(90, 7).iter() {
                let start = m.rowptr()[rows.start] as usize;
                let end = m.rowptr()[rows.end] as usize;
                let mut expected = Vec::new();
                let mut gathers = 0;
                for a in collect(SpmvCursor::new(&m, &l, rows.clone())) {
                    expected.push(a);
                    if a.array == Array::X {
                        let ahead = start + gathers + distance;
                        gathers += 1;
                        if ahead < end {
                            let col = m.colidx()[ahead] as usize;
                            expected.push(Access::prefetch(l.line_of(Array::X, col), Array::X));
                        }
                    }
                }
                let mut c = swpf_cursor(&m, &l, rows.clone(), distance);
                assert_eq!(c.remaining(), expected.len());
                let mut got = Vec::new();
                while let Some(a) = c.next_access() {
                    got.push(a);
                    assert_eq!(c.remaining(), expected.len() - got.len());
                }
                assert_eq!(got, expected, "distance {distance} rows {rows:?}");
            }
        }
    }

    #[test]
    fn slice_cursor_round_trips() {
        let (m, l) = fig1();
        let mut sink = VecSink::new();
        trace_spmv_rows(&m, &l, 0..4, &mut sink);
        let c = SliceCursor::new(&sink.trace);
        assert_eq!(c.remaining(), sink.trace.len());
        assert_eq!(collect(c), sink.trace);
    }

    #[test]
    fn drain_into_feeds_whole_trace() {
        let (m, l) = fig1();
        let mut direct = VecSink::new();
        trace_spmv_rows(&m, &l, 0..4, &mut direct);
        let mut drained = VecSink::new();
        SpmvCursor::new(&m, &l, 0..4).drain_into(&mut drained);
        assert_eq!(drained.trace, direct.trace);
    }

    #[test]
    #[should_panic(expected = "row range out of bounds")]
    fn out_of_bounds_rejected() {
        let (m, l) = fig1();
        SpmvCursor::new(&m, &l, 0..5);
    }

    #[test]
    fn x_cursor_over_slice_matches_row_constructor() {
        let (m, l) = fig1();
        let by_rows = collect(XCursor::new(&m, &l, 1..3));
        let range = m.rowptr()[1] as usize..m.rowptr()[3] as usize;
        let by_slice = collect(XCursor::over(m.colidx(), &l, range));
        assert_eq!(by_slice, by_rows);
    }

    fn sell_fixture(seed: u64) -> CsrMatrix {
        let mut coo = CooMatrix::new(13, 13);
        let mut state = seed | 1;
        for r in 0..13usize {
            // Rows 4 and 9 left empty; varying lengths elsewhere.
            if r == 4 || r == 9 {
                continue;
            }
            for _ in 0..(r % 5) + 1 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                coo.push(r, (state >> 33) as usize % 13);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn sell_cursor_matches_sink_generator() {
        use crate::sell_trace::trace_sell_chunks;
        let a = sell_fixture(5);
        for (c, sigma) in [(1, 1), (4, 8), (8, 16), (5, 5)] {
            let sell = sparsemat::SellMatrix::from_csr(&a, c, sigma);
            let l = crate::SpmvWorkload::layout(&sell, 16);
            let n = sell.num_chunks();
            for chunks in [0..n, 0..1, 1..n, n..n, 0..0] {
                let mut sink = VecSink::new();
                trace_sell_chunks(&sell, &l, chunks.clone(), &mut sink);
                let cursor = SellCursor::new(&sell, &l, chunks.clone());
                assert_eq!(cursor.remaining(), sink.trace.len(), "C={c} {chunks:?}");
                assert_eq!(collect(cursor), sink.trace, "C={c} {chunks:?}");
            }
        }
    }

    #[test]
    fn sell_cursor_remaining_counts_down_exactly() {
        let a = sell_fixture(11);
        let sell = sparsemat::SellMatrix::from_csr(&a, 4, 8);
        let l = crate::SpmvWorkload::layout(&sell, 64);
        let mut cursor = SellCursor::new(&sell, &l, 0..sell.num_chunks());
        let total = cursor.remaining();
        let mut seen = 0;
        while cursor.next_access().is_some() {
            seen += 1;
            assert_eq!(cursor.remaining(), total - seen);
        }
        assert_eq!(seen, total);
        assert_eq!(cursor.next_access(), None);
    }

    #[test]
    fn sell_x_cursor_matches_x_loads_of_full_trace() {
        use crate::sell_trace::trace_sell_chunks;
        let a = sell_fixture(23);
        let sell = sparsemat::SellMatrix::from_csr(&a, 4, 8);
        let l = crate::SpmvWorkload::layout(&sell, 16);
        let mut sink = VecSink::new();
        trace_sell_chunks(&sell, &l, 0..sell.num_chunks(), &mut sink);
        let expect: Vec<Access> = sink
            .trace
            .iter()
            .copied()
            .filter(|acc| acc.array == Array::X)
            .collect();
        let got = collect(XCursor::over(sell.colidx(), &l, 0..sell.stored_entries()));
        assert_eq!(got, expect);
    }

    fn collect_blocks<C: TraceCursor>(mut c: C) -> Vec<Access> {
        let mut out = Vec::new();
        let mut block = AccessBlock::new();
        loop {
            block.clear();
            if c.next_block(&mut block) == 0 {
                break;
            }
            out.extend(block.refs().iter().map(|p| p.unpack()));
        }
        out
    }

    #[test]
    fn spmv_next_block_matches_per_ref_path() {
        for (n, per_row, seed) in [(64usize, 5usize, 9u64), (100, 4, 3), (7, 120, 1)] {
            let m = random_csr(n, per_row, seed);
            for line_bytes in [16, 64, 24] {
                let l = DataLayout::new(&m, line_bytes);
                let expect = collect(SpmvCursor::new(&m, &l, 0..n));
                let got = collect_blocks(SpmvCursor::new(&m, &l, 0..n));
                assert_eq!(got, expect, "n={n} line_bytes={line_bytes}");
            }
        }
    }

    #[test]
    fn spmv_next_block_resumes_mid_row() {
        // Interleave per-ref and block pulls so blocks start mid-row.
        let m = random_csr(40, 6, 5);
        let l = DataLayout::new(&m, 64);
        let expect = collect(SpmvCursor::new(&m, &l, 0..40));
        let mut c = SpmvCursor::new(&m, &l, 0..40);
        let mut got = Vec::new();
        let mut block = AccessBlock::new();
        let mut flip = 0usize;
        loop {
            flip += 1;
            if flip % 2 == 1 {
                match c.next_access() {
                    Some(a) => got.push(a),
                    None => break,
                }
            } else {
                block.clear();
                if c.next_block(&mut block) == 0 {
                    break;
                }
                got.extend(block.refs().iter().map(|p| p.unpack()));
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn x_and_slice_next_block_match_per_ref_path() {
        let m = random_csr(64, 7, 21);
        for line_bytes in [16, 24, 256] {
            let l = DataLayout::new(&m, line_bytes);
            let expect = collect(XCursor::new(&m, &l, 0..64));
            assert_eq!(collect_blocks(XCursor::new(&m, &l, 0..64)), expect);
            let mut sink = VecSink::new();
            trace_spmv_rows(&m, &l, 0..64, &mut sink);
            assert_eq!(collect_blocks(SliceCursor::new(&sink.trace)), sink.trace);
        }
    }

    #[test]
    fn sell_next_block_matches_per_ref_path() {
        let a = sell_fixture(7);
        for (c, sigma) in [(1, 1), (4, 8), (8, 16), (5, 5)] {
            let sell = sparsemat::SellMatrix::from_csr(&a, c, sigma);
            for line_bytes in [16, 64] {
                let l = crate::SpmvWorkload::layout(&sell, line_bytes);
                let expect = collect(SellCursor::new(&sell, &l, 0..sell.num_chunks()));
                let got = collect_blocks(SellCursor::new(&sell, &l, 0..sell.num_chunks()));
                assert_eq!(got, expect, "C={c} line_bytes={line_bytes}");
            }
        }
    }

    #[test]
    fn next_block_on_empty_cursor_returns_zero() {
        let (m, l) = fig1();
        let mut c = SpmvCursor::new(&m, &l, 0..0);
        let mut block = AccessBlock::new();
        assert_eq!(c.next_block(&mut block), 0);
        assert!(block.is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk range out of bounds")]
    fn sell_out_of_bounds_rejected() {
        let a = sell_fixture(3);
        let sell = sparsemat::SellMatrix::from_csr(&a, 4, 8);
        let l = crate::SpmvWorkload::layout(&sell, 16);
        SellCursor::new(&sell, &l, 0..sell.num_chunks() + 1);
    }

    /// Layout of a k-RHS view of `m` (X and Y roles widen k-fold).
    fn rhs_layout(m: &CsrMatrix, k: usize, line_bytes: usize) -> DataLayout {
        DataLayout::from_counts(
            [
                m.num_cols() * k,
                m.num_rows() * k,
                m.nnz(),
                m.nnz(),
                m.num_rows() + 1,
            ],
            line_bytes,
        )
    }

    #[test]
    fn rhs_single_geometry_is_byte_identical_to_plain_cursors() {
        let m = random_csr(48, 6, 17);
        let l = DataLayout::new(&m, 64);
        let geom = RhsGeom::new(1, true, m.num_cols(), m.num_rows());
        assert_eq!(
            collect(SpmvCursor::with_rhs(&m, &l, 0..48, geom)),
            collect(SpmvCursor::new(&m, &l, 0..48))
        );
        assert_eq!(
            collect(XCursor::over_rhs(m.colidx(), &l, 0..m.nnz(), geom)),
            collect(XCursor::new(&m, &l, 0..48))
        );
        let geom_sep = RhsGeom::new(1, false, m.num_cols(), m.num_rows());
        assert_eq!(
            collect(SpmvCursor::with_rhs(&m, &l, 0..48, geom_sep)),
            collect(SpmvCursor::new(&m, &l, 0..48))
        );
    }

    #[test]
    fn rhs_cursor_widens_every_gather_and_store() {
        let m = random_csr(32, 4, 29);
        for k in [2usize, 5] {
            for interleaved in [true, false] {
                let l = rhs_layout(&m, k, 64);
                let geom = RhsGeom::new(k, interleaved, m.num_cols(), m.num_rows());
                let trace = collect(SpmvCursor::with_rhs(&m, &l, 0..32, geom));
                assert_eq!(trace.len(), 1 + 32 * (1 + k) + m.nnz() * (2 + k));
                let x_loads = trace.iter().filter(|a| a.array == Array::X).count();
                let y_stores = trace.iter().filter(|a| a.array == Array::Y).count();
                assert_eq!(x_loads, k * m.nnz());
                assert_eq!(y_stores, k * 32);
                let xs = collect(XCursor::over_rhs(m.colidx(), &l, 0..m.nnz(), geom));
                let expect: Vec<Access> = trace
                    .iter()
                    .copied()
                    .filter(|a| a.array == Array::X)
                    .collect();
                assert_eq!(xs, expect, "k={k} interleaved={interleaved}");
            }
        }
    }

    #[test]
    fn rhs_next_block_matches_per_ref_path() {
        let m = random_csr(40, 5, 41);
        let sell_src = sell_fixture(41);
        for k in [1usize, 3, 8] {
            for interleaved in [true, false] {
                let l = rhs_layout(&m, k, 64);
                let geom = RhsGeom::new(k, interleaved, m.num_cols(), m.num_rows());
                assert_eq!(
                    collect_blocks(SpmvCursor::with_rhs(&m, &l, 0..40, geom)),
                    collect(SpmvCursor::with_rhs(&m, &l, 0..40, geom)),
                    "csr k={k} interleaved={interleaved}"
                );
                assert_eq!(
                    collect_blocks(XCursor::over_rhs(m.colidx(), &l, 0..m.nnz(), geom)),
                    collect(XCursor::over_rhs(m.colidx(), &l, 0..m.nnz(), geom)),
                    "x k={k} interleaved={interleaved}"
                );
                let sell = sparsemat::SellMatrix::from_csr(&sell_src, 4, 8);
                let sl = DataLayout::from_counts(
                    [
                        sell.num_cols() * k,
                        sell.num_rows() * k,
                        sell.stored_entries(),
                        sell.stored_entries(),
                        sell.num_chunks() + 1,
                    ],
                    64,
                );
                let sgeom = RhsGeom::new(k, interleaved, sell.num_cols(), sell.num_rows());
                let n = sell.num_chunks();
                let per_ref = collect(SellCursor::with_rhs(&sell, &sl, 0..n, sgeom));
                assert_eq!(
                    collect_blocks(SellCursor::with_rhs(&sell, &sl, 0..n, sgeom)),
                    per_ref,
                    "sell k={k} interleaved={interleaved}"
                );
                assert_eq!(
                    per_ref.len(),
                    (2 + k) * sell.stored_entries() + n + k * sell.num_rows()
                );
            }
        }
    }

    /// A `rows × cols` matrix whose rows hold about `per_row` nonzeros
    /// each (duplicates collapse), with row 2 left empty.
    fn wide_csr(rows: usize, cols: usize, per_row: usize, seed: u64) -> CsrMatrix {
        let mut state = seed | 1;
        let mut coo = CooMatrix::new(rows, cols);
        for r in (0..rows).filter(|&r| r != 2) {
            for _ in 0..per_row {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
                coo.push(r, (state >> 33) as usize % cols);
            }
        }
        coo.to_csr()
    }

    /// Both storage cursors of a wide-row matrix at `k` right-hand sides:
    /// CSR rows and SELL-4-8 chunks hold far more entry groups than one
    /// block, so every block fill starts mid-row or mid-chunk.
    fn wide_views(k: usize) -> (CsrMatrix, SellMatrix) {
        let m = wide_csr(9, 700, 300, 83 + k as u64);
        assert!((0..9).any(|r| m.row_range(r).len() * (2 + k) > crate::BLOCK_REFS));
        let sell = SellMatrix::from_csr(&m, 4, 8);
        (m, sell)
    }

    fn sell_rhs_layout(sell: &SellMatrix, k: usize, line_bytes: usize) -> DataLayout {
        DataLayout::from_counts(
            [
                sell.num_cols() * k,
                sell.num_rows() * k,
                sell.stored_entries(),
                sell.stored_entries(),
                sell.num_chunks() + 1,
            ],
            line_bytes,
        )
    }

    #[test]
    fn rhs_next_block_matches_per_ref_path_on_rows_wider_than_a_block() {
        for k in [2usize, 16] {
            let (m, sell) = wide_views(k);
            for interleaved in [true, false] {
                for line_bytes in [64, 24] {
                    let l = rhs_layout(&m, k, line_bytes);
                    let geom = RhsGeom::new(k, interleaved, m.num_cols(), m.num_rows());
                    for rows in [0..9, 1..4, 5..6] {
                        assert_eq!(
                            collect_blocks(SpmvCursor::with_rhs(&m, &l, rows.clone(), geom)),
                            collect(SpmvCursor::with_rhs(&m, &l, rows.clone(), geom)),
                            "csr k={k} interleaved={interleaved} {line_bytes} B rows {rows:?}"
                        );
                    }
                    let sl = sell_rhs_layout(&sell, k, line_bytes);
                    let sgeom = RhsGeom::new(k, interleaved, sell.num_cols(), sell.num_rows());
                    let n = sell.num_chunks();
                    for chunks in [0..n, 1..n] {
                        assert_eq!(
                            collect_blocks(SellCursor::with_rhs(&sell, &sl, chunks.clone(), sgeom)),
                            collect(SellCursor::with_rhs(&sell, &sl, chunks.clone(), sgeom)),
                            "sell k={k} interleaved={interleaved} {line_bytes} B {chunks:?}"
                        );
                    }
                }
            }
        }
    }

    /// Alternates runs of 1..=`k + 4` per-reference pulls with block
    /// pulls; returns the trace and how many block pulls began inside an
    /// `x` group (`xj(cursor) != 0`).
    fn collect_mixed<C: TraceCursor>(
        mut c: C,
        k: usize,
        xj: impl Fn(&C) -> usize,
    ) -> (Vec<Access>, usize) {
        let mut got = Vec::new();
        let mut block = AccessBlock::new();
        let mut mid_group = 0;
        for run in (1..=k + 4).cycle() {
            for _ in 0..run {
                match c.next_access() {
                    Some(a) => got.push(a),
                    None => return (got, mid_group),
                }
            }
            mid_group += usize::from(xj(&c) != 0);
            block.clear();
            if c.next_block(&mut block) == 0 {
                return (got, mid_group);
            }
            got.extend(block.refs().iter().map(|p| p.unpack()));
        }
        unreachable!("cycle never ends")
    }

    #[test]
    fn rhs_next_block_resumes_inside_an_x_group() {
        for k in [2usize, 16] {
            let (m, sell) = wide_views(k);
            for interleaved in [true, false] {
                let l = rhs_layout(&m, k, 64);
                let geom = RhsGeom::new(k, interleaved, m.num_cols(), m.num_rows());
                let (got, mid_group) =
                    collect_mixed(SpmvCursor::with_rhs(&m, &l, 0..9, geom), k, |c| c.xj);
                assert_eq!(got, collect(SpmvCursor::with_rhs(&m, &l, 0..9, geom)));
                assert!(
                    mid_group > 0,
                    "csr k={k}: no block pull began inside a group"
                );
                let sl = sell_rhs_layout(&sell, k, 64);
                let sgeom = RhsGeom::new(k, interleaved, sell.num_cols(), sell.num_rows());
                let n = sell.num_chunks();
                let (got, mid_group) =
                    collect_mixed(SellCursor::with_rhs(&sell, &sl, 0..n, sgeom), k, |c| c.xj);
                assert_eq!(got, collect(SellCursor::with_rhs(&sell, &sl, 0..n, sgeom)));
                assert!(
                    mid_group > 0,
                    "sell k={k}: no block pull began inside a group"
                );
            }
        }
    }

    #[test]
    fn rhs_remaining_counts_down_exactly() {
        let m = random_csr(24, 3, 53);
        let l = rhs_layout(&m, 4, 64);
        let geom = RhsGeom::new(4, true, m.num_cols(), m.num_rows());
        let mut c = SpmvCursor::with_rhs(&m, &l, 0..24, geom);
        let total = c.remaining();
        let mut seen = 0;
        while c.next_access().is_some() {
            seen += 1;
            assert_eq!(c.remaining(), total - seen);
        }
        assert_eq!(seen, total);
    }

    /// CG layout over `m`: `x` role holds p|r|x (3n), `y` holds ap.
    fn cg_layout(m: &CsrMatrix, line_bytes: usize) -> DataLayout {
        let n = m.num_rows();
        DataLayout::from_counts([3 * n, n, m.nnz(), m.nnz(), n + 1], line_bytes)
    }

    #[test]
    fn cg_cursor_conserves_traffic_vs_constituent_sweeps() {
        let m = random_csr(30, 4, 61);
        let l = cg_layout(&m, 64);
        let inner = SpmvCursor::new(&m, &l, 0..30);
        let spmv_len = inner.remaining();
        let c = CgCursor::new(inner, &l, 0..30, 30);
        assert_eq!(c.remaining(), spmv_len + CG_SWEEP_REFS_PER_ROW * 30);
        let trace = collect(c);
        assert_eq!(trace.len(), spmv_len + CG_SWEEP_REFS_PER_ROW * 30);
        // The SpMV prefix is the plain trace, untouched.
        assert_eq!(
            &trace[..spmv_len],
            &collect(SpmvCursor::new(&m, &l, 0..30))[..]
        );
        // Sweep refs per pass follow CG_PASS_REFS.
        assert_eq!(CG_PASS_REFS.iter().sum::<usize>(), CG_SWEEP_REFS_PER_ROW);
        let sweep = &trace[spmv_len..];
        let stores = sweep.iter().filter(|a| a.write).count();
        assert_eq!(stores, 3 * 30, "x, r and p stores per index");
    }

    #[test]
    fn cg_next_block_matches_per_ref_path() {
        let m = random_csr(30, 4, 67);
        let l = cg_layout(&m, 16);
        for rows in [0..30usize, 5..20, 12..12] {
            let per_ref = collect(CgCursor::new(
                SpmvCursor::new(&m, &l, rows.clone()),
                &l,
                rows.clone(),
                30,
            ));
            let blocks = collect_blocks(CgCursor::new(
                SpmvCursor::new(&m, &l, rows.clone()),
                &l,
                rows.clone(),
                30,
            ));
            assert_eq!(blocks, per_ref, "rows {rows:?}");
        }
    }

    #[test]
    fn cg_remaining_counts_down_exactly() {
        let m = random_csr(20, 3, 71);
        let l = cg_layout(&m, 64);
        let mut c = CgCursor::new(SpmvCursor::new(&m, &l, 3..17), &l, 3..17, 20);
        let total = c.remaining();
        let mut seen = 0;
        while c.next_access().is_some() {
            seen += 1;
            assert_eq!(c.remaining(), total - seen);
        }
        assert_eq!(seen, total);
        assert_eq!(c.next_access(), None);
    }
}
