//! Reuse-distance (stack-distance) machinery.
//!
//! Reuse distance is the hardware-independent locality metric the paper's
//! cache-miss model is built on (§2.2): for a fully associative LRU cache
//! of `n` lines, a reference hits iff its reuse distance is `< n`
//! (Eq. 1). Computing it once yields miss counts for *every* capacity.
//!
//! * [`exact::ExactStack`] — exact distances in O(log lines) per reference
//!   via a hash map of last-access stamps and a [`fenwick::Fenwick`] tree
//!   over a compacting time window.
//! * [`fxhash`] — FxHash hasher and the open-addressing [`fxhash::LineTable`]
//!   backing the processors' per-reference map operations.
//! * [`markers::MarkerStack`] — the Kim et al. (1991) algorithm the paper
//!   uses: hit/miss classification against a fixed set of capacities in
//!   O(#capacities) per reference, *independent of locality*. Counts are
//!   kept per capacity and per SpMV array.
//! * [`histogram::ReuseHistogram`] — distance histogram with `misses(n)`
//!   queries.
//! * [`partitioned::PartitionedStack`] — Eq. (2): two marker stacks with
//!   array-based routing, modelling a way-partitioned (sector) cache.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exact;
pub mod fenwick;
pub mod fxhash;
pub mod histogram;
pub mod markers;
pub mod partitioned;

pub use exact::ExactStack;
pub use fxhash::{FxHashMap, LineTable, PROBE_ABSENT};
pub use histogram::ReuseHistogram;
pub use markers::{MarkerStack, QuantizedCounts};
pub use partitioned::PartitionedStack;
