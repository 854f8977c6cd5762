//! Synthetic sparse-matrix corpus.
//!
//! Stands in for the paper's evaluation population — 490 square,
//! non-complex SuiteSparse matrices with more than 1 M nonzeros — and for
//! the 18 named matrices of Table 1. Generators cover the structural
//! families that drive SpMV locality behaviour:
//!
//! * [`stencil`] — 2-D/3-D grid Laplacians and 27-point stencils (regular,
//!   narrow-band, uniform rows);
//! * [`banded`] — random banded, dense-block FEM-like, nearly-tridiagonal
//!   circuit, and arrow (dense-border) matrices;
//! * [`random`] — uniform random (worst-case `x` locality) and power-law
//!   (hot columns, heavy-tailed row lengths);
//! * [`suite`] — the assembled corpora: [`suite::table1_suite`] and
//!   [`suite::corpus`].
//!
//! All generators are deterministic in their seed, so every experiment is
//! reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod banded;
pub mod random;
pub mod stencil;
pub mod suite;

pub use suite::{
    corpus, corpus_member, table1_max_scale, table1_member, table1_suite, NamedMatrix, TABLE1_LEN,
};
