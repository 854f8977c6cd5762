//! Experiment harness for the paper reproduction.
//!
//! One binary per table/figure of the paper (see `src/bin/exp_*.rs`), plus
//! Criterion micro-benchmarks under `benches/`. The binaries share:
//!
//! * [`runner`] — machine setup per sweep point, the simulate-and-estimate
//!   measurement, host-parallel corpus mapping, and CLI argument parsing;
//! * [`boxplot`] — the five-number summaries Figs. 2 and 3 are plotted
//!   from.
//!
//! Every binary accepts `--count N` (corpus size, default 490),
//! `--scale N` (machine capacity divisor, default 16), `--threads N`
//! (default 48), `--seed N`, and `--full` (full-size A64FX).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accuracy;
pub mod boxplot;
pub mod runner;

pub use boxplot::BoxStats;
pub use runner::{machine_for, measure, parallel_map, ExpArgs, SweepPoint};
