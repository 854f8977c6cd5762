//! Exact stack-distance processor (Bennett–Kruskal / Olken style).
//!
//! Computes the exact reuse distance of every reference in O(log lines)
//! per reference using a hash map of last-access slots plus a [`Fenwick`]
//! tree over a time window (a bitmap with counts per word) in which slot
//! `t` is set while the access stamped `t` is the most recent access to
//! its line. Every held line has
//! exactly one live slot and all of them lie below the next stamp, so the
//! reuse distance of a reference to a line last stamped `t0` — the number
//! of live slots after `t0` — is `held lines − prefix_sum(t0)`: one
//! prefix sum per access.
//!
//! The window is compacting: when its slots run out, the held lines are
//! renumbered `0..k` in last-access order in one linear pass (distances
//! depend only on that order — the argument behind
//! [`ExactStack::seed_lru`]), and the window doubles only when more than
//! a quarter of it is live. The tree is therefore O(distinct lines), not
//! O(trace length).
//!
//! This is the precise reference implementation; the production path for
//! the way-sweep experiments is the locality-independent
//! [`MarkerStack`](crate::markers::MarkerStack) (Kim et al.), which this
//! processor validates.

use crate::fenwick::Fenwick;
use crate::fxhash::LineTable;

/// Smallest time window a processor starts with.
const MIN_WINDOW: usize = 64;

/// Exact reuse-distance processor over a stream of cache-line numbers.
///
/// The last-access map is an open-addressing [`LineTable`] (`u64 → u32`)
/// rather than the default SipHash `HashMap`: one insert-or-update per
/// reference is the processor's hot path, and the offline trace data needs
/// no DoS-resistant hashing. Its `u32` slot stamps cap a single processor
/// below `u32::MAX` distinct lines, checked with an assertion; the number
/// of references is unbounded.
#[derive(Clone, Debug)]
pub struct ExactStack {
    last: LineTable,
    live: Fenwick,
    /// The next slot to stamp; every live slot lies below it.
    now: usize,
    /// References processed ([`access`](Self::access) and
    /// [`touch`](Self::touch)), independent of the window's renumbering.
    accesses: usize,
    /// Lines placed by [`seed_lru`](Self::seed_lru): each holds one slot
    /// but was never an access of this processor.
    seeded: usize,
}

impl Default for ExactStack {
    fn default() -> Self {
        Self::new()
    }
}

/// Largest window: its slots must fit the `u32` stamps.
const MAX_WINDOW: usize = u32::MAX as usize;

/// The window a processor expecting `lines` distinct lines starts with:
/// a quarter of it live, so it compacts rather than doubles.
fn window_for(lines: usize) -> usize {
    let slots = lines.saturating_mul(4).clamp(MIN_WINDOW, MAX_WINDOW);
    slots.next_power_of_two().min(MAX_WINDOW)
}

impl ExactStack {
    /// Creates a processor with the minimum time window; it grows with
    /// the number of distinct lines it holds.
    pub fn new() -> Self {
        Self::with_line_capacity(0)
    }

    /// Creates a processor pre-sized for an expected number of distinct
    /// lines, so neither the last-access map nor the window regrows while
    /// it holds at most that many.
    pub fn with_line_capacity(distinct_lines: usize) -> Self {
        ExactStack {
            last: LineTable::with_capacity(distinct_lines),
            live: Fenwick::new(window_for(distinct_lines)),
            now: 0,
            accesses: 0,
            seeded: 0,
        }
    }

    /// Rebuilds the state a replay of a warm-up stream would leave behind,
    /// from nothing but that stream's distinct lines in
    /// most-recently-accessed-first order — the exact-stack counterpart of
    /// [`MarkerStack::seed_lru`](crate::MarkerStack::seed_lru).
    ///
    /// Why this is exact: after a replay, the live Fenwick slots are the
    /// lines' last-access stamps, and a later reference's distance is the
    /// number of live slots after its line's last stamp. That count
    /// depends only on the *order* of the live slots, so renumbering the
    /// lines `0..n` in last-access order (oldest first) yields the same
    /// distance for every later reference. The window's compaction
    /// renumbers the same way.
    ///
    /// # Panics
    ///
    /// Panics if the processor already holds an access or a seeded line,
    /// or if the order holds `u32::MAX` lines or more. Debug builds also
    /// assert the lines are distinct.
    pub fn seed_lru(&mut self, lines_most_recent_first: &[u64]) {
        assert!(self.now == 0, "seed_lru requires an empty stack");
        let n = lines_most_recent_first.len();
        assert!(n < u32::MAX as usize, "seed exceeds the u32 line range");
        if self.live.len() < window_for(n) {
            self.live = Fenwick::new(window_for(n));
        }
        self.live.set_prefix_ones(n);
        for (i, &line) in lines_most_recent_first.iter().enumerate() {
            let previous = self.last.insert(line, (n - 1 - i) as u32);
            debug_assert!(previous.is_none(), "seed line {line} repeated");
        }
        self.now = n;
        self.seeded = n;
    }

    /// Processes one access, returning its exact reuse distance
    /// (`None` = cold).
    ///
    /// # Panics
    ///
    /// Panics once the processor holds `u32::MAX` distinct lines (the
    /// last-access table stores 32-bit slot stamps).
    pub fn access(&mut self, line: u64) -> Option<u64> {
        let t = self.stamp();
        let distance = match self.last.insert(line, t as u32) {
            Some(t0) => {
                let t0 = t0 as usize;
                let d = self.last.len() as u64 - self.live.prefix_sum(t0);
                self.live.clear(t0);
                Some(d)
            }
            None => None,
        };
        self.live.set(t);
        distance
    }

    /// Processes one access whose distance the caller does not need —
    /// a warm-up replay. Leaves the processor in exactly the state
    /// [`access`](Self::access) would, without the prefix sum.
    pub fn touch(&mut self, line: u64) {
        let t = self.stamp();
        if let Some(t0) = self.last.insert(line, t as u32) {
            self.live.clear(t0 as usize);
        }
        self.live.set(t);
    }

    /// Claims the next slot for an access, compacting the window first
    /// when it is full.
    fn stamp(&mut self) -> usize {
        if self.now == self.live.len() {
            self.compact();
        }
        self.accesses += 1;
        self.now += 1;
        self.now - 1
    }

    /// Renumbers the held lines `0..k` in last-access order, in one pass
    /// over the window's words and one over the last-access map, then
    /// refills the tree with `k` leading ones. Doubles the window when
    /// more than a quarter of it stays live.
    ///
    /// # Panics
    ///
    /// Panics if the processor holds `u32::MAX` distinct lines or more.
    fn compact(&mut self) {
        let held = self.last.len();
        assert!(
            held < u32::MAX as usize,
            "exact stack exceeds the u32 line range"
        );
        // A live stamp's new value is the number of live stamps below it.
        {
            let rank = self.live.ranks();
            for t in self.last.values_mut() {
                *t = rank(*t as usize);
            }
        }
        if held > self.live.len() / 4 {
            self.live = Fenwick::new((self.live.len() * 2).min(MAX_WINDOW));
        }
        self.live.set_prefix_ones(held);
        self.now = held;
    }

    /// Number of distinct lines seen so far, seeded lines included.
    pub fn distinct_lines(&self) -> usize {
        self.last.len()
    }

    /// Number of accesses processed so far, [`touch`](Self::touch)es
    /// included (seeded lines are state, not accesses, and are not
    /// counted).
    pub fn accesses(&self) -> usize {
        self.accesses
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
    fn compaction_preserves_correctness() {
        // A cyclic trace over 10 lines runs through many compactions of
        // the minimum window: 10 cold accesses, then every reuse sees the
        // 9 other lines.
        let mut s = ExactStack::new();
        for i in 0..500u64 {
            let expect = (i >= 10).then_some(9);
            assert_eq!(s.access(i % 10), expect, "position {i}");
        }
        assert_eq!(s.live.len(), MIN_WINDOW, "10 of 64 live never doubles");
        // 40 lines keep more than a quarter of the window live: it
        // doubles twice, until a quarter of it holds them.
        let mut s = ExactStack::new();
        for i in 0..2000u64 {
            assert_eq!(s.access(i % 40), (i >= 40).then_some(39), "position {i}");
        }
        assert_eq!(s.live.len(), 4 * MIN_WINDOW);
    }

    #[test]
    fn touch_leaves_the_state_access_leaves() {
        let trace = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3];
        let (mut touched, mut accessed) = (ExactStack::new(), ExactStack::new());
        for _ in 0..8 {
            for &l in &trace {
                touched.touch(l);
                accessed.access(l);
            }
        }
        for &l in &trace {
            assert_eq!(touched.access(l), accessed.access(l));
        }
        assert_eq!(touched.accesses(), accessed.accesses());
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

    #[test]
    fn counters_do_not_see_compactions() {
        // The same seeded trace through a window that never compacts and
        // through the minimum window, which compacts and doubles many
        // times: the accessors and every `reuse.exact.*` counter agree.
        let seed: Vec<u64> = (150..200).rev().collect();
        let trace: Vec<u64> = (0..3000u64).map(|i| (i * 7919) % 97 + 90).collect();
        let run = |mut s: ExactStack| {
            s.seed_lru(&seed);
            for &l in &trace {
                s.access(l);
            }
            let compacted = s.now < seed.len() + trace.len();
            obs::reset();
            obs::enable();
            s.flush_obs();
            let snapshot = obs::snapshot();
            obs::disable();
            let counters: Vec<(String, u64)> = snapshot
                .counters
                .into_iter()
                .filter(|(name, _)| name.starts_with("reuse.exact."))
                .collect();
            let distinct = snapshot
                .histograms
                .get("reuse.exact.distinct_lines")
                .cloned();
            (
                s.accesses(),
                s.distinct_lines(),
                counters,
                distinct,
                compacted,
            )
        };
        let (acc, lines, counters, distinct, compacted) =
            run(ExactStack::with_line_capacity(1 << 12));
        assert!(!compacted, "the pre-sized window must not compact here");
        let (acc_c, lines_c, counters_c, distinct_c, compacted_c) = run(ExactStack::new());
        assert!(compacted_c, "the minimum window must compact here");
        assert_eq!((acc, lines), (trace.len(), 110));
        assert_eq!((acc_c, lines_c), (acc, lines));
        assert_eq!(counters.len(), 3, "{counters:?}");
        assert_eq!(counters_c, counters);
        assert!(distinct.is_some());
        assert_eq!(distinct_c, distinct);
    }
}
