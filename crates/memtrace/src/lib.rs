//! Cache-line-granular memory-trace generation for sparse kernels.
//!
//! The paper's method (§3.2.1) does not instrument a running SpMV kernel;
//! instead it *derives* the memory trace the kernel would produce from the
//! matrix sparsity pattern alone. This crate implements that derivation:
//!
//! * [`layout::DataLayout`] assigns cache-line numbers to the elements of
//!   the five SpMV data structures (`x`, `y`, `a`, `colidx`, `rowptr`),
//!   each aligned to a cache-line boundary (the paper's Fig. 1c).
//! * [`cursor`] holds the resumable trace cursors — the full method (A)
//!   trace (Fig. 1b) and the reduced method (B) `x`-only trace, for CSR,
//!   SELL-C-σ, SpMM and CG — and [`workload::SpmvWorkload`] hands them out
//!   per range of work items.
//! * [`interleave::round_robin_cursors_blocks`] merges the cursors of the
//!   threads sharing a cache into the order that cache sees, in
//!   [`AccessBlock`]s. Cursors plus this block merge are the one trace
//!   feed: the locality profile, the side analyses and the simulator all
//!   read their streams through it.
//! * [`mcs::McsLock`] is a queue-based MCS lock (Mellor-Crummey & Scott)
//!   used to collate per-thread trace chunks with FIFO fairness, exactly as
//!   the paper orders concurrent accesses for shared-cache analysis
//!   ([`interleave::mcs_interleave`]).
//! * [`spmv_trace`] and [`xtrace`] are straight-line sink-pushing
//!   generators of the CSR method (A) and (B) traces. They are the
//!   independent reference: the cursor tests pin every cursor to them, and
//!   the materialised validation oracle replays them.
//!
//! Consumers implement [`sink::BlockSink`], so references are processed
//! on the fly without materialising multi-gigabyte traces; the
//! generators push into the per-reference [`sink::TraceSink`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cursor;
pub mod interleave;
pub mod layout;
pub mod mcs;
#[cfg(test)]
mod sell_trace;
pub mod sink;
pub mod spmv_trace;
pub mod workload;
pub mod xtrace;

pub use cursor::{RhsGeom, TraceCursor, CG_SWEEP_REFS_PER_ROW};
pub use layout::{Array, DataLayout, A64FX_LINE_BYTES};
pub use sink::{
    AccessBlock, BlockSink, BlockTee, CountSink, PackedVecSink, TraceSink, VecSink, BLOCK_REFS,
};
pub use workload::{
    CgWorkload, FormatSpec, ReorderSpec, RhsLayout, ScenarioSpec, SpmmWorkload, SpmvWorkload,
    WorkShare, Workload, WorkloadCursor,
};

/// A single memory reference at cache-line granularity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Access {
    /// Global cache-line number (see [`DataLayout`]).
    pub line: u64,
    /// Which SpMV data structure the reference belongs to.
    pub array: Array,
    /// `true` for stores (only `y` accesses in SpMV), `false` for loads.
    pub write: bool,
    /// `true` for software-prefetch hints (`prfm`-style): they warm the
    /// caches but are not demand accesses and never stall the core.
    pub sw_prefetch: bool,
}

impl Access {
    /// Convenience constructor for a load.
    #[inline]
    pub fn load(line: u64, array: Array) -> Self {
        Access {
            line,
            array,
            write: false,
            sw_prefetch: false,
        }
    }

    /// Convenience constructor for a store.
    #[inline]
    pub fn store(line: u64, array: Array) -> Self {
        Access {
            line,
            array,
            write: true,
            sw_prefetch: false,
        }
    }

    /// Convenience constructor for a software-prefetch hint.
    #[inline]
    pub fn prefetch(line: u64, array: Array) -> Self {
        Access {
            line,
            array,
            write: false,
            sw_prefetch: true,
        }
    }
}

/// An [`Access`] packed into 8 bytes, for the paths that still *buffer*
/// references (MCS collation, two-level replay) rather than streaming
/// them through a cursor.
///
/// Layout: array tag in the line's high bits — bits 63..61 the [`Array`]
/// discriminant, bit 60 the write flag, bit 59 the software-prefetch
/// flag, bits 58..0 the global cache-line number. Halves the footprint of
/// a buffered trace relative to the 16-byte `Access` (the compiler pads
/// the `u64` + 3 small fields to 16).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PackedAccess(u64);

impl PackedAccess {
    /// Highest representable cache-line number (59 bits).
    pub const MAX_LINE: u64 = (1 << 59) - 1;

    /// Packs an access.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the line number needs more than 59
    /// bits — unreachable for any [`DataLayout`] of a matrix that fits in
    /// memory.
    #[inline]
    pub fn pack(access: Access) -> Self {
        debug_assert!(
            access.line <= Self::MAX_LINE,
            "line number overflows 59 bits"
        );
        PackedAccess(
            ((access.array as u64) << 61)
                | ((access.write as u64) << 60)
                | ((access.sw_prefetch as u64) << 59)
                | (access.line & Self::MAX_LINE),
        )
    }

    /// Unpacks back to the full event.
    #[inline]
    pub fn unpack(self) -> Access {
        let array = match (self.0 >> 61) as u8 {
            0 => Array::X,
            1 => Array::Y,
            2 => Array::A,
            3 => Array::ColIdx,
            _ => Array::RowPtr,
        };
        Access {
            line: self.0 & Self::MAX_LINE,
            array,
            write: self.0 & (1 << 60) != 0,
            sw_prefetch: self.0 & (1 << 59) != 0,
        }
    }

    /// The packed line number without unpacking the rest.
    #[inline]
    pub fn line(self) -> u64 {
        self.0 & Self::MAX_LINE
    }

    /// The packed array tag without unpacking the rest.
    #[inline]
    pub fn array(self) -> Array {
        match (self.0 >> 61) as u8 {
            0 => Array::X,
            1 => Array::Y,
            2 => Array::A,
            3 => Array::ColIdx,
            _ => Array::RowPtr,
        }
    }
}

impl From<Access> for PackedAccess {
    #[inline]
    fn from(a: Access) -> Self {
        PackedAccess::pack(a)
    }
}

impl From<PackedAccess> for Access {
    #[inline]
    fn from(p: PackedAccess) -> Self {
        p.unpack()
    }
}

/// A set of SpMV data structures, used to assign arrays to cache sectors.
///
/// The paper's partitioning policy (Listing 1) assigns `a` and `colidx` to
/// sector 1 and everything else to sector 0; that set is
/// [`ArraySet::MATRIX_STREAM`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct ArraySet(u8);

impl ArraySet {
    /// The empty set.
    pub const EMPTY: ArraySet = ArraySet(0);
    /// `{a, colidx}` — the non-temporal matrix data of Listing 1.
    pub const MATRIX_STREAM: ArraySet =
        ArraySet((1 << Array::A as u8) | (1 << Array::ColIdx as u8));
    /// `{a, colidx, rowptr, y}` — the §3.1 class-(3) variant that also
    /// isolates the streaming `rowptr` and `y` accesses, leaving the whole
    /// other partition to `x`.
    pub const ALL_BUT_X: ArraySet = ArraySet(
        (1 << Array::A as u8)
            | (1 << Array::ColIdx as u8)
            | (1 << Array::RowPtr as u8)
            | (1 << Array::Y as u8),
    );

    /// Builds a set from a list of arrays.
    pub fn of(arrays: &[Array]) -> Self {
        let mut bits = 0u8;
        for &a in arrays {
            bits |= 1 << a as u8;
        }
        ArraySet(bits)
    }

    /// Tests membership.
    #[inline]
    pub fn contains(self, array: Array) -> bool {
        self.0 & (1 << array as u8) != 0
    }

    /// Inserts an array, returning the extended set.
    #[must_use]
    pub fn with(self, array: Array) -> Self {
        ArraySet(self.0 | (1 << array as u8))
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_set_membership() {
        let s = ArraySet::MATRIX_STREAM;
        assert!(s.contains(Array::A));
        assert!(s.contains(Array::ColIdx));
        assert!(!s.contains(Array::X));
        assert!(!s.contains(Array::Y));
        assert!(!s.contains(Array::RowPtr));
    }

    #[test]
    fn array_set_builders() {
        assert!(ArraySet::EMPTY.is_empty());
        let s = ArraySet::of(&[Array::X, Array::Y]);
        assert!(s.contains(Array::X) && s.contains(Array::Y));
        assert!(!s.contains(Array::A));
        let s2 = ArraySet::EMPTY.with(Array::RowPtr);
        assert!(s2.contains(Array::RowPtr));
    }

    #[test]
    fn packed_access_round_trips() {
        for array in Array::ALL {
            for (write, pf) in [(false, false), (true, false), (false, true)] {
                let a = Access {
                    line: 0x0123_4567_89AB,
                    array,
                    write,
                    sw_prefetch: pf,
                };
                let p = PackedAccess::pack(a);
                assert_eq!(p.unpack(), a);
                assert_eq!(p.line(), a.line);
            }
        }
    }

    #[test]
    fn packed_access_extremes() {
        let a = Access::store(PackedAccess::MAX_LINE, Array::RowPtr);
        assert_eq!(PackedAccess::pack(a).unpack(), a);
        let b = Access::load(0, Array::X);
        assert_eq!(PackedAccess::from(b).unpack(), b);
    }

    #[test]
    fn packed_access_is_8_bytes() {
        assert_eq!(std::mem::size_of::<PackedAccess>(), 8);
        assert!(std::mem::size_of::<Access>() > 8);
    }

    #[test]
    fn all_but_x_excludes_only_x() {
        let s = ArraySet::ALL_BUT_X;
        assert!(!s.contains(Array::X));
        for a in [Array::Y, Array::A, Array::ColIdx, Array::RowPtr] {
            assert!(s.contains(a));
        }
    }
}
