//! Exact stack-distance processor (Bennett–Kruskal / Olken style).
//!
//! Computes the exact reuse distance of every reference in O(log N) per
//! reference using a hash map of last-access times plus a [`Fenwick`] tree
//! in which position `t` holds 1 while the access at trace time `t` is the
//! most recent access to its line. The reuse distance of a reference to a
//! line last touched at `t0` is then the number of set positions strictly
//! between `t0` and now.
//!
//! This is the precise reference implementation; the production path for
//! the way-sweep experiments is the locality-independent
//! [`MarkerStack`](crate::markers::MarkerStack) (Kim et al.), which this
//! processor validates.

use crate::fenwick::Fenwick;
use crate::fxhash::LineTable;
use crate::histogram::ReuseHistogram;

/// Exact reuse-distance processor over a stream of cache-line numbers.
///
/// The last-access map is an open-addressing [`LineTable`] (`u64 → u32`)
/// rather than the default SipHash `HashMap`: one insert-or-update per
/// reference is the processor's hot path, and the offline trace data needs
/// no DoS-resistant hashing. The `u32` timestamps cap a single processor
/// at `u32::MAX` references (~4.3 × 10⁹ — two full replays of a
/// 700M-nonzero matrix), checked with an assertion.
#[derive(Clone, Debug)]
pub struct ExactStack {
    last: LineTable,
    live: Fenwick,
    time: usize,
    /// Lines placed by [`seed_lru`](Self::seed_lru): each holds one time
    /// slot but was never an access of this processor.
    seeded: usize,
}

impl Default for ExactStack {
    fn default() -> Self {
        Self::new()
    }
}

impl ExactStack {
    /// Creates a processor with a small initial time capacity.
    pub fn new() -> Self {
        Self::with_capacity(1024)
    }

    /// Creates a processor sized for an expected trace length (avoids
    /// regrowth when the length is known up front).
    pub fn with_capacity(expected_len: usize) -> Self {
        ExactStack {
            last: LineTable::new(),
            live: Fenwick::new(expected_len.max(16)),
            time: 0,
            seeded: 0,
        }
    }

    /// Like [`with_capacity`](Self::with_capacity), but also pre-sizes
    /// the last-access map for an expected number of distinct lines, so
    /// neither structure regrows (nor rehashes) during the trace.
    pub fn with_line_capacity(expected_len: usize, distinct_lines: usize) -> Self {
        ExactStack {
            last: LineTable::with_capacity(distinct_lines),
            live: Fenwick::new(expected_len.max(16)),
            time: 0,
            seeded: 0,
        }
    }

    /// Rebuilds the state a replay of a warm-up stream would leave behind,
    /// from nothing but that stream's distinct lines in
    /// most-recently-accessed-first order — the exact-stack counterpart of
    /// [`MarkerStack::seed_lru`](crate::MarkerStack::seed_lru).
    ///
    /// Why this is exact: after a replay, the live Fenwick positions are
    /// the lines' last-access times, and a later reference's distance is
    /// the number of live positions strictly between its line's last
    /// access and now. That count depends only on the *order* of the live
    /// positions, so renumbering the lines `0..n` in last-access order
    /// (oldest first) yields the same distance for every later reference.
    /// The seeded processor needs `n` time slots instead of the warm-up's
    /// length: size it with
    /// [`with_line_capacity`](Self::with_line_capacity)`(n + measured_len, …)`.
    ///
    /// # Panics
    ///
    /// Panics if the processor already holds an access or a seeded line,
    /// or if the order holds `u32::MAX` lines or more. Debug builds also
    /// assert the lines are distinct.
    pub fn seed_lru(&mut self, lines_most_recent_first: &[u64]) {
        assert!(self.time == 0, "seed_lru requires an empty stack");
        let n = lines_most_recent_first.len();
        assert!(n < u32::MAX as usize, "seed exceeds u32 timestamp range");
        if self.live.len() < n {
            self.live = Fenwick::new(n.max(16));
        }
        self.live.fill_prefix_ones(n);
        for (i, &line) in lines_most_recent_first.iter().enumerate() {
            let previous = self.last.insert(line, (n - 1 - i) as u32);
            debug_assert!(previous.is_none(), "seed line {line} repeated");
        }
        self.time = n;
        self.seeded = n;
    }

    /// Processes one access, returning its exact reuse distance
    /// (`None` = cold).
    ///
    /// # Panics
    ///
    /// Panics after `u32::MAX` accesses (the last-access table stores
    /// 32-bit timestamps).
    pub fn access(&mut self, line: u64) -> Option<u64> {
        if self.time >= self.live.len() {
            self.live.grow(self.live.len() * 2);
        }
        let t = self.time;
        assert!(t < u32::MAX as usize, "trace exceeds u32 timestamp range");
        self.time += 1;
        let distance = match self.last.insert(line, t as u32) {
            Some(t0) => {
                let t0 = t0 as usize;
                // Count most-recent accesses strictly between t0 and t.
                let d = self.live.range_sum(t0 + 1..t);
                self.live.add(t0, -1);
                Some(d)
            }
            None => None,
        };
        self.live.add(t, 1);
        distance
    }

    /// Number of distinct lines seen so far, seeded lines included.
    pub fn distinct_lines(&self) -> usize {
        self.last.len()
    }

    /// Number of accesses processed so far (seeded lines are state, not
    /// accesses, and are not counted).
    pub fn accesses(&self) -> usize {
        self.time - self.seeded
    }

    /// Reports this processor's accumulated statistics to the telemetry
    /// counters (`reuse.exact.*`, `reuse.linetable.*`). No-op when
    /// telemetry is disabled; the per-reference path never touches obs —
    /// everything reported here is state the processor tracks anyway.
    ///
    /// `reuse.exact.accesses` counts the references this processor
    /// measured: after [`seed_lru`](Self::seed_lru) that is the measured
    /// pass only, not the warm-up the seed stands in for.
    /// `reuse.exact.cold` counts the lines first met by one of those
    /// accesses (seeded lines are not cold), `reuse.exact.warm_accesses`
    /// their difference, and `reuse.exact.distinct_lines` observes every
    /// line the processor holds, seeded or accessed.
    pub fn flush_obs(&self) {
        if !obs::enabled() {
            return;
        }
        let accesses = self.accesses() as u64;
        let cold = (self.last.len() - self.seeded) as u64;
        obs::add("reuse.exact.accesses", accesses);
        obs::add("reuse.exact.cold", cold);
        obs::add("reuse.exact.warm_accesses", accesses - cold);
        obs::observe("reuse.exact.distinct_lines", self.last.len() as u64);
        let probes = self.last.probe_stats();
        obs::add("reuse.linetable.entries", probes.entries);
        obs::add(
            "reuse.linetable.displacement_total",
            probes.total_displacement,
        );
        obs::gauge_max("reuse.linetable.displacement_max", probes.max_displacement);
        obs::gauge_max("reuse.linetable.slots_max", probes.slots);
        obs::add("reuse.linetable.rehashes", self.last.rehashes());
    }

    /// Processes a whole trace, returning its reuse-distance histogram.
    pub fn histogram_of(lines: impl IntoIterator<Item = u64>) -> ReuseHistogram {
        let mut s = ExactStack::new();
        let mut h = ReuseHistogram::new();
        for line in lines {
            h.record(s.access(line));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_textbook_example() {
        let mut s = ExactStack::new();
        assert_eq!(s.access(1), None);
        assert_eq!(s.access(2), None);
        assert_eq!(s.access(3), None);
        assert_eq!(s.access(1), Some(2));
        assert_eq!(s.access(1), Some(0));
        assert_eq!(s.access(2), Some(2));
    }

    #[test]
    fn growth_preserves_correctness() {
        // Start tiny so the Fenwick tree must grow several times. A cyclic
        // trace over 10 lines: 10 cold accesses, then every reuse sees the
        // 9 other lines.
        let mut s = ExactStack::with_capacity(4);
        for i in 0..500u64 {
            let expect = (i >= 10).then_some(9);
            assert_eq!(s.access(i % 10), expect, "position {i}");
        }
    }

    #[test]
    #[should_panic(expected = "requires an empty stack")]
    fn seed_lru_rejects_non_empty_stack() {
        let mut s = ExactStack::new();
        s.access(1);
        s.seed_lru(&[9]);
    }

    #[test]
    fn distinct_and_access_counters() {
        let mut s = ExactStack::new();
        for l in [9, 9, 8, 7, 9] {
            s.access(l);
        }
        assert_eq!(s.distinct_lines(), 3);
        assert_eq!(s.accesses(), 5);

        // Seeded lines are held, not accessed.
        let mut s = ExactStack::new();
        s.seed_lru(&[7, 9, 8]);
        assert_eq!((s.distinct_lines(), s.accesses()), (3, 0));
        assert_eq!(s.access(8), Some(2));
        assert_eq!(s.access(6), None);
        assert_eq!((s.distinct_lines(), s.accesses()), (4, 2));
    }
}
