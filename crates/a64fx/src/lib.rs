//! A64FX memory-hierarchy simulator.
//!
//! The "measured" side of the reproduction: since the A64FX hardware, the
//! Fujitsu compiler's sector-cache directives and the PMU are unavailable,
//! this crate simulates the machine the paper measures on:
//!
//! * [`config::MachineConfig`] — 48 cores in 4 NUMA domains, private
//!   64 KiB 4-way L1D, shared 8 MiB 16-way L2 per domain, 256 B lines
//!   ([`config::MachineConfig::a64fx`]), plus a capacity-scaled variant for
//!   corpus-size experiments.
//! * [`cache::Cache`] — set-associative, write-back/write-allocate, with
//!   **way-based sector partitioning**: victims are chosen within the
//!   incoming line's sector ways, hits are sector-blind.
//! * [`prefetch::StreamPrefetcher`] — ascending-stream prefetcher with
//!   configurable distance (the paper's §4.3 prefetch-distance effect).
//! * [`hierarchy::Machine`] — request flow L1 → L2 → memory, per-core
//!   prefetch training, writeback propagation.
//! * [`counters::PmuSnapshot`] — A64FX PMU event names and the paper's
//!   derived formulas (L2 misses, demand misses, memory bytes).
//! * [`sim_spmv`] — streams any SpMV workload's per-thread trace cursors
//!   through the machine (warm-up + measured iteration).
//! * [`timing`] — roofline-style time/Gflop/s estimate from the counters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod counters;
pub mod hierarchy;
pub mod prefetch;
pub mod sim_spmv;
pub mod timing;

pub use cache::{Cache, CacheStats, Outcome, Request};
pub use config::{CacheGeometry, MachineConfig, PrefetchConfig, Replacement, SectorPolicy};
pub use counters::PmuSnapshot;
pub use hierarchy::Machine;
pub use machine::{HierarchyConfig, A64FX_LINE_BYTES};
pub use sim_spmv::{simulate_spmv, simulate_spmv_partitioned, SimResult};
pub use timing::{estimate, Bottleneck, Performance};
