//! Test-only helpers shared by the integration tests: the naive LRU-stack
//! reuse-distance oracle and a materialising round-robin interleaver.
//! Each test file pulls this in with `mod common;` and uses a subset.
#![allow(dead_code)]

use memtrace::interleave::round_robin_into;
use memtrace::{Access, VecSink};

/// Naive O(N·n) reuse-distance processor: the LRU stack as a plain vector,
/// scanned linearly on each access. Far too slow for real traces but
/// unbeatable as an oracle for the Fenwick-based exact processor, the
/// marker stack and the cache simulator.
#[derive(Clone, Debug, Default)]
pub struct NaiveStack {
    stack: Vec<u64>,
}

impl NaiveStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes one access and returns its reuse distance — the number of
    /// distinct other lines accessed since the previous access to `line`,
    /// its 0-based depth in the LRU stack — or `None` for a first-ever
    /// access.
    pub fn access(&mut self, line: u64) -> Option<u64> {
        if let Some(pos) = self.stack.iter().position(|&l| l == line) {
            self.stack.remove(pos);
            self.stack.insert(0, line);
            Some(pos as u64)
        } else {
            self.stack.insert(0, line);
            None
        }
    }
}

/// Per-access reuse distances of a whole trace of line numbers.
pub fn reuse_distances(lines: &[u64]) -> Vec<Option<u64>> {
    let mut s = NaiveStack::new();
    lines.iter().map(|&l| s.access(l)).collect()
}

/// Misses of a fully associative LRU cache of `capacity` lines over a
/// trace, by Eq. (1): an access misses iff its reuse distance is
/// `>= capacity` (cold accesses always miss).
pub fn lru_misses(lines: &[u64], capacity: usize) -> u64 {
    reuse_distances(lines)
        .into_iter()
        .filter(|d| d.is_none_or(|d| d >= capacity as u64))
        .count() as u64
}

/// The round-robin interleaving of per-thread traces in chunks of
/// `chunk` references, materialised.
pub fn round_robin(traces: &[Vec<Access>], chunk: usize) -> Vec<Access> {
    let mut sink = VecSink::new();
    round_robin_into(traces, chunk, &mut sink);
    sink.trace
}
