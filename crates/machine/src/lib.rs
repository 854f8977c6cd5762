//! Declarative machine models for the locality pipeline.
//!
//! This crate is the single source of truth for every hardware number in
//! the workspace: cache geometries, sector policies, prefetch and timing
//! parameters live in [`HierarchyConfig`] presets here, and everything
//! else — the analytic models in `locality-core`, the simulator in
//! `a64fx`, the batch engine, the CLI and the validator — consumes them
//! through its public fields and read-only accessors.
//!
//! * [`geometry`] — per-level geometry and shared policy types
//!   (re-exported by `a64fx` for compatibility).
//! * [`hierarchy`] — [`LevelConfig`]/[`HierarchyConfig`], validation,
//!   the `a64fx` and `generic-x86` presets, fingerprints.
//! * [`spec`] — [`MachineSpec`]: `--machine` parsing with typed errors,
//!   including the `custom:` grammar.
//! * [`ecm`] — the Execution-Cache-Memory throughput model that turns
//!   predicted per-link traffic into Gflop/s.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ecm;
pub mod geometry;
pub mod hierarchy;
pub mod spec;

pub use ecm::{EcmEstimate, EcmInput};
pub use geometry::{CacheGeometry, PrefetchConfig, Replacement, SectorPolicy, TimingParams};
pub use hierarchy::{
    EcmOverlap, HierarchyConfig, HierarchyError, Inclusion, LevelConfig, LevelScope,
    A64FX_LINE_BYTES,
};
pub use spec::{MachineParseError, MachineSpec};
