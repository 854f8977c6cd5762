//! The paper's primary contribution: a reuse-distance cache-miss model for
//! CSR SpMV with cache partitioning.
//!
//! Given nothing but a sparse matrix's dimensions and sparsity pattern,
//! the model predicts the number of last-level cache misses of iterative
//! SpMV — sequentially or with many threads sharing segmented L2 caches —
//! both without and with the A64FX-style sector cache isolating the
//! non-temporal matrix data.
//!
//! * [`mod@classify`] — the §3.1 working-set classification (classes 1, 2,
//!   3a, 3b) that predicts when partitioning helps.
//! * [`analytic`] — closed-form streaming-miss terms and the method (B)
//!   scaling factors `s1`, `s2`.
//! * [`concurrent`] — per-domain trace grouping and interleaving for the
//!   multi-threaded shared-cache analysis.
//! * [`predict`] — the prediction API ([`predict::predict`]) over
//!   method (A), full-trace stack processing (§3.2.1), and method (B),
//!   the single-pass `x`-trace approximation (§3.2.2), and the
//!   [`predict::SectorSetting`] sweep type.
//! * [`profile`] — [`LocalityProfile`]s: the expensive trace analysis
//!   distilled into per-capacity miss counts (method A) or `(RD, gap)`
//!   pairs (method B) that every setting of a sweep evaluates cheaply —
//!   the memoization unit of the batch engine.
//! * [`error`] — MAPE and APE-std metrics (Eq. 3) used by the evaluation.
//!
//! # Example
//!
//! ```
//! use a64fx::MachineConfig;
//! use locality_core::predict::{predict, Method, SectorSetting};
//! use sparsemat::CsrMatrix;
//!
//! let matrix = CsrMatrix::identity(100_000);
//! let cfg = MachineConfig::a64fx();
//! let preds = predict(
//!     &matrix,
//!     &cfg,
//!     Method::B,
//!     &[SectorSetting::Off, SectorSetting::L2Ways(5)],
//!     1,
//! );
//! // Isolating the streamed matrix data never increases predicted misses.
//! assert!(preds[1].l2_misses <= preds[0].l2_misses);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analytic;
pub mod classify;
pub mod concurrent;
pub mod error;
pub mod l1;
pub mod optimize;
pub mod predict;
pub mod profile;
pub mod two_level;

pub use classify::{classify, classify_for, MatrixClass};
pub use error::ErrorSummary;
pub use memtrace::{
    CgWorkload, FormatSpec, ReorderSpec, RhsLayout, ScenarioSpec, SpmmWorkload, SpmvWorkload,
    WorkShare, Workload,
};
pub use predict::{Method, Prediction, SectorSetting};
pub use profile::{DomainPartial, LocalityProfile, ProfileBuilder, TrackedCaps};
