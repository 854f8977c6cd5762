//! Sparse matrix substrate for the A64FX SpMV locality study.
//!
//! This crate provides the sparsity-pattern machinery the paper's locality
//! model is built on. The model predicts cache misses from nothing but the
//! pattern and the dimensions, so the matrix types store no values: the
//! `f64` array `a` is modelled ([`VALUE_BYTES`] per nonzero), not kept.
//!
//! * [`builder::CsrBuilder`] — row-ordered assembly straight into CSR,
//!   for every source that emits its entries row by row (the corpus
//!   generators, RCM's symmetrised adjacency); repeated columns within a
//!   row collapse when the row is ended.
//! * [`coo::CooMatrix`] — coordinate (pair) format, the assembly format
//!   for Matrix Market input, whose entries arrive in any order; duplicate
//!   positions collapse on conversion.
//! * [`csr::CsrMatrix`] — Compressed Sparse Row, the storage format studied
//!   by the paper (Listing 1). Index types and the modelled value size match
//!   the paper's accounting exactly: `f64` nonzero values (8 bytes), `u32`
//!   column indices (4 bytes) and `i64` row pointers (8 bytes).
//! * [`partition`] — static row partitioning (contiguous row blocks, as an
//!   OpenMP static worksharing loop would produce) and balanced-nonzero
//!   partitioning (the load-balancing optimisation of Alappat et al.
//!   discussed in the paper's §4.2).
//! * [`stats`] — per-matrix statistics used by the model and evaluation:
//!   mean and coefficient of variation of nonzeros per row, bandwidth, etc.
//! * [`mm`] — Matrix Market (`.mtx`) reader/writer so real SuiteSparse
//!   matrices can be used when available.
//! * [`reorder`] — (Reverse) Cuthill–McKee reordering, the locality
//!   optimisation the paper cites from Alappat et al.
//! * [`sell`] — the SELL-C-σ sliced-ELLPACK format the paper's related
//!   work highlights as the faster A64FX alternative to CSR.
//!
//! # Quick example
//!
//! ```
//! use sparsemat::CsrBuilder;
//!
//! let mut b = CsrBuilder::with_capacity(2, 2, 4);
//! b.push(0);
//! b.end_row();
//! b.push(1);
//! b.push(0);
//! b.push(0); // a repeated column collapses to one nonzero
//! b.end_row();
//! let a = b.finish();
//!
//! assert_eq!(a.nnz(), 3);
//! assert_eq!(a.row(1).collect::<Vec<_>>(), vec![0, 1]);
//! // The modelled `a` array still counts 8 bytes per nonzero.
//! assert_eq!(a.matrix_bytes(), 3 * (8 + 4) + 3 * 8);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod coo;
pub mod csr;
mod fingerprint;
pub mod mm;
pub mod partition;
pub mod reorder;
pub mod sell;
pub mod stats;

pub use builder::CsrBuilder;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use partition::RowPartition;
pub use sell::SellMatrix;
pub use stats::MatrixStats;

/// Size in bytes of a modelled nonzero matrix value (`f64`), as in the
/// paper. No values are stored; layouts and byte counts still include them.
pub const VALUE_BYTES: usize = 8;
/// Size in bytes of a column index (`u32`), as in the paper.
pub const COLIDX_BYTES: usize = 4;
/// Size in bytes of a row pointer (`i64`), as in the paper.
pub const ROWPTR_BYTES: usize = 8;
/// Size in bytes of a vector element (`f64`).
pub const VECTOR_BYTES: usize = 8;
