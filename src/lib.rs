//! # a64fx-spmv — Modelling Data Locality of SpMV on the A64FX
//!
//! A full reproduction of Breiter, Trotter & Fürlinger, *"Modelling Data
//! Locality of Sparse Matrix-Vector Multiplication on the A64FX"*
//! (SC-W 2023), as a Rust workspace. This facade crate re-exports the
//! member crates:
//!
//! * [`sparsemat`] — pattern-only COO/CSR/SELL-C-σ formats, partitioning,
//!   statistics, Matrix Market I/O, RCM;
//! * [`memtrace`] — SpMV memory-trace generation from the sparsity
//!   pattern (methods A and B), MCS-lock trace collation, interleaving;
//! * [`reuse`] — reuse-distance engines: exact Fenwick stack, the Kim
//!   et al. marker stack, partitioned-cache accounting (Eq. 2);
//! * [`a64fx`] — the A64FX memory-hierarchy simulator: sector-cache way
//!   partitioning, stream prefetcher, PMU counters, timing model;
//! * [`locality_core`] — the paper's cache-miss model: classification,
//!   methods (A)/(B), concurrent prediction, error metrics;
//! * [`corpus`] — synthetic matrix corpus and Table 1 analogues;
//! * [`locality_engine`] — parallel batch prediction engine with
//!   fingerprint-keyed profile caching (`spmv-locality batch`);
//! * [`valid`] — differential validation harness cross-checking the
//!   prediction pipelines against each other and against the simulator
//!   over a stratified working-set-class corpus
//!   (`spmv-locality validate`);
//! * [`obs`] — offline telemetry: hierarchical spans, counters,
//!   log2 histograms and peak-RSS checkpoints behind a no-op global
//!   sink, surfaced by `--metrics <path>` on every subcommand.
//!
//! ## Quickstart
//!
//! ```
//! use a64fx_spmv::prelude::*;
//!
//! // A matrix whose working set exceeds one L2 segment.
//! let matrix = corpus::suite::corpus(1, 16, 42).remove(0).matrix;
//! let cfg = MachineConfig::a64fx_scaled(16);
//!
//! // What does the locality model say the sector cache buys us?
//! let preds = predict(
//!     &matrix,
//!     &cfg,
//!     Method::B,
//!     &[SectorSetting::Off, SectorSetting::L2Ways(5)],
//!     1,
//! );
//! println!(
//!     "L2 misses/iteration: {} (off) vs {} (5 ways)",
//!     preds[0].l2_misses, preds[1].l2_misses
//! );
//! // The streamed matrix data exceeds either partition, so its per-line
//! // misses are always part of the prediction.
//! assert!(preds.iter().all(|p| p.l2_misses > 0));
//! ```

pub use a64fx;
pub use corpus;
pub use locality_core;
pub use locality_engine;
pub use machine;
pub use memtrace;
pub use obs;
pub use reuse;
pub use sparsemat;
pub use valid;

/// Commonly used items in one import.
pub mod prelude {
    pub use a64fx::{
        estimate, simulate_spmv, MachineConfig, Performance, PmuSnapshot, PrefetchConfig, SimResult,
    };
    pub use locality_core::predict::{predict, Method, Prediction, SectorSetting};
    pub use locality_core::{
        classify_for, ErrorSummary, FormatSpec, LocalityProfile, MatrixClass, ReorderSpec,
        RhsLayout, ScenarioSpec, SpmvWorkload, Workload,
    };
    pub use locality_engine::{
        ecm_for, run_batch, BatchResult, BatchSpec, EcmSummary, ProfileCache,
    };
    pub use machine::{HierarchyConfig, MachineParseError, MachineSpec};
    pub use memtrace::{Access, Array, ArraySet, DataLayout};
    pub use reuse::{ExactStack, MarkerStack, ReuseHistogram};
    pub use sparsemat::{CooMatrix, CsrMatrix, MatrixStats, RowPartition};
    pub use valid::{run_validation, ValidationConfig, ValidationReport};
}
