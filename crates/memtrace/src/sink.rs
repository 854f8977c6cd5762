//! Trace sinks: consumers of [`Access`] streams.
//!
//! Consumers — reuse-distance stack processors, the cache simulator, or
//! plain vectors — process references on the fly rather than from a
//! materialised trace. A full method-(A) trace has `M + 1 + 3K + M`
//! references; for the larger corpus matrices that is far too many to
//! want to materialise per configuration.
//!
//! The production feed is block-batched: cursors and the round-robin
//! merge hand [`AccessBlock`]s to a [`BlockSink`]. The per-reference
//! [`TraceSink`] is what the reference generators (`spmv_trace`,
//! `xtrace`) push into, for the materialised oracles.

use crate::{Access, PackedAccess};

/// Number of references a full [`AccessBlock`] holds.
///
/// 256 packed references are 2 KiB — four A64FX cache lines — small
/// enough to stay resident in L1 between the producing cursor and the
/// consuming stack, large enough to amortise one virtual dispatch over
/// hundreds of references.
pub const BLOCK_REFS: usize = 256;

/// A fixed-capacity batch of [`PackedAccess`]es: the unit of transfer of
/// the block-batched streaming pipeline.
///
/// Cursors fill blocks via [`crate::TraceCursor::next_block`] and hand
/// them to a [`BlockSink`]; the per-reference [`TraceSink`] path remains
/// for the exact/materialised oracles. A block's references are in
/// exactly the order the per-reference path would have emitted them.
#[derive(Clone, Debug)]
pub struct AccessBlock {
    refs: [PackedAccess; BLOCK_REFS],
    len: usize,
}

impl Default for AccessBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessBlock {
    /// An empty block.
    pub fn new() -> Self {
        AccessBlock {
            refs: [PackedAccess(0); BLOCK_REFS],
            len: 0,
        }
    }

    /// Number of references currently staged.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no references are staged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` when the block is at capacity.
    pub fn is_full(&self) -> bool {
        self.len == BLOCK_REFS
    }

    /// Remaining capacity in references.
    pub fn space(&self) -> usize {
        BLOCK_REFS - self.len
    }

    /// Drops all staged references.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Removes the first `n` references, shifting any remainder to the
    /// front (used by the round-robin merge to retire the cycles it has
    /// emitted from each staging block).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the current length.
    pub fn discard_front(&mut self, n: usize) {
        assert!(n <= self.len, "discarding more references than staged");
        self.refs.copy_within(n..self.len, 0);
        self.len -= n;
    }

    /// Appends one reference.
    ///
    /// # Panics
    ///
    /// Panics if the block is full.
    #[inline]
    pub fn push(&mut self, p: PackedAccess) {
        self.refs[self.len] = p;
        self.len += 1;
    }

    /// The staged references, in emission order.
    #[inline]
    pub fn refs(&self) -> &[PackedAccess] {
        &self.refs[..self.len]
    }
}

/// A consumer of block-batched reference streams.
///
/// The block counterpart of [`TraceSink`]: one virtual call per
/// [`AccessBlock`] instead of one per reference. Implementations must
/// treat a block's references as an ordered subsequence of the stream;
/// partial (non-full) blocks are legal anywhere, not just at the end.
pub trait BlockSink {
    /// Consumes one block of references.
    fn consume(&mut self, block: &AccessBlock);
}

impl BlockSink for PackedVecSink {
    #[inline]
    fn consume(&mut self, block: &AccessBlock) {
        self.trace.extend_from_slice(block.refs());
    }
}

impl BlockSink for VecSink {
    fn consume(&mut self, block: &AccessBlock) {
        self.trace.extend(block.refs().iter().map(|p| p.unpack()));
    }
}

/// A consumer of a stream of memory references.
pub trait TraceSink {
    /// Consumes one reference.
    fn access(&mut self, access: Access);

    /// Consumes a batch of references (default: one at a time).
    fn access_all(&mut self, accesses: &[Access]) {
        for &a in accesses {
            self.access(a);
        }
    }
}

/// Collects the trace into a vector.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    /// The recorded references, in order.
    pub trace: Vec<Access>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sink with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        VecSink {
            trace: Vec::with_capacity(n),
        }
    }
}

impl TraceSink for VecSink {
    #[inline]
    fn access(&mut self, access: Access) {
        self.trace.push(access);
    }
}

impl TraceSink for Vec<Access> {
    #[inline]
    fn access(&mut self, access: Access) {
        self.push(access);
    }
}

/// Collects the trace as 8-byte [`PackedAccess`]es — half the memory of
/// [`VecSink`] for the paths that must buffer (e.g. a materialised
/// interleaving replayed against several stack configurations).
#[derive(Clone, Debug, Default)]
pub struct PackedVecSink {
    /// The recorded references, packed, in order.
    pub trace: Vec<PackedAccess>,
}

impl PackedVecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sink with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        PackedVecSink {
            trace: Vec::with_capacity(n),
        }
    }
}

/// Counts references per array without storing them.
#[derive(Clone, Debug, Default)]
pub struct CountSink {
    /// Reference counts indexed by `Array as usize`.
    pub counts: [u64; 5],
    /// Number of store references.
    pub writes: u64,
}

impl CountSink {
    /// Creates a zeroed counter sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of references seen.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl TraceSink for CountSink {
    #[inline]
    fn access(&mut self, access: Access) {
        self.counts[access.array as usize] += 1;
        if access.write {
            self.writes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Array;

    #[test]
    fn vec_sink_records_in_order() {
        let mut s = VecSink::new();
        s.access(Access::load(3, Array::X));
        s.access(Access::store(1, Array::Y));
        assert_eq!(s.trace.len(), 2);
        assert_eq!(s.trace[0].line, 3);
        assert!(s.trace[1].write);
    }

    #[test]
    fn count_sink_counts_by_array() {
        let mut s = CountSink::new();
        s.access(Access::load(0, Array::X));
        s.access(Access::load(1, Array::X));
        s.access(Access::store(2, Array::Y));
        assert_eq!(s.counts[Array::X as usize], 2);
        assert_eq!(s.counts[Array::Y as usize], 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn access_block_stages_in_order() {
        let mut b = AccessBlock::new();
        assert!(b.is_empty());
        assert_eq!(b.space(), BLOCK_REFS);
        b.push(PackedAccess::pack(Access::load(3, Array::X)));
        b.push(PackedAccess::pack(Access::store(1, Array::Y)));
        assert_eq!(b.len(), 2);
        assert_eq!(b.refs()[0].unpack(), Access::load(3, Array::X));
        assert_eq!(b.refs()[1].unpack(), Access::store(1, Array::Y));
        b.clear();
        assert!(b.is_empty());
    }
}
