//! `spmv-serve` — the long-lived prediction service over the batch
//! engine.
//!
//! The batch command answers one spec and exits; every invocation pays
//! the full profile-computation cost even when clients keep asking
//! about the same matrices. This crate turns the engine into a daemon:
//! line-delimited JSON requests arrive over a Unix socket and/or TCP
//! listener, predict jobs run on a bounded executor pool against a
//! **shared LRU [`ProfileCache`](locality_engine::ProfileCache)**, and
//! each result line streams back the moment it exists — byte-identical
//! to `spmv-locality batch` output under the id framing.
//!
//! Module map:
//!
//! * [`codec`] — newline framing with a line cap and typed
//!   oversize/UTF-8 rejection;
//! * [`protocol`] — request/response types and their wire rendering;
//! * [`server`] — listeners, sessions, the bounded queue, executors,
//!   and graceful drain;
//! * [`signal`] — SIGINT/SIGTERM routed into a pollable shutdown flag.
//!
//! Service guarantees, in one place:
//!
//! * **Backpressure**: the request queue is bounded; a full queue
//!   answers `overloaded` immediately instead of buffering.
//! * **Deadlines**: per-request budgets start at admission and cancel
//!   cooperatively at the engine's checkpoints; exceeding one yields a
//!   typed `deadline_exceeded` error, never a hang.
//! * **Graceful drain**: shutdown (signal or protocol) stops intake,
//!   finishes accepted work, and still delivers those responses.

#![warn(missing_docs)]

pub mod codec;
pub mod protocol;
pub mod server;
pub mod signal;

pub use codec::{Frame, LineFramer};
pub use protocol::{ErrorCode, Request, RequestError};
pub use server::{ServeConfig, ServeSummary, Server};
