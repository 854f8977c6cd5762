//! Reuse-distance histograms.
//!
//! A histogram of reuse distances fully determines LRU miss counts for
//! *every* cache capacity at once (the property that makes reuse distance
//! preferable to per-size cache simulation, as the paper's §2.2 notes):
//! `misses(n) = #\{accesses with RD >= n\} + #cold`.

use std::collections::BTreeMap;

/// A histogram of reuse distances with an explicit infinite (cold) bucket.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReuseHistogram {
    finite: BTreeMap<u64, u64>,
    infinite: u64,
}

impl ReuseHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access with the given reuse distance (`None` = cold).
    pub fn record(&mut self, distance: Option<u64>) {
        self.record_n(distance, 1);
    }

    /// Records `count` accesses sharing one reuse distance. Recording a
    /// zero count is a no-op (no empty bucket is created, so equality
    /// with an access-by-access histogram is preserved).
    pub fn record_n(&mut self, distance: Option<u64>, count: u64) {
        if count == 0 {
            return;
        }
        match distance {
            Some(d) => *self.finite.entry(d).or_insert(0) += count,
            None => self.infinite += count,
        }
    }

    /// Total number of recorded accesses.
    pub fn total(&self) -> u64 {
        self.infinite + self.finite.values().sum::<u64>()
    }

    /// Number of cold (infinite-distance) accesses.
    pub fn cold(&self) -> u64 {
        self.infinite
    }

    /// Number of accesses with finite reuse distance `>= n`.
    pub fn finite_at_least(&self, n: u64) -> u64 {
        self.finite.range(n..).map(|(_, c)| c).sum()
    }

    /// Misses of a fully associative LRU cache with `capacity` lines,
    /// Eq. (1) of the paper (cold accesses always miss).
    pub fn misses(&self, capacity: usize) -> u64 {
        self.infinite + self.finite_at_least(capacity as u64)
    }

    /// Hits of a fully associative LRU cache with `capacity` lines.
    pub fn hits(&self, capacity: usize) -> u64 {
        self.total() - self.misses(capacity)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &ReuseHistogram) {
        self.infinite += other.infinite;
        for (&d, &c) in &other.finite {
            *self.finite.entry(d).or_insert(0) += c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReuseHistogram {
        let mut h = ReuseHistogram::new();
        for d in [None, None, Some(0), Some(2), Some(2), Some(5)] {
            h.record(d);
        }
        h
    }

    #[test]
    fn totals_and_cold() {
        let h = sample();
        assert_eq!(h.total(), 6);
        assert_eq!(h.cold(), 2);
    }

    #[test]
    fn miss_curve_is_monotone_nonincreasing() {
        let h = sample();
        // capacity 0: everything misses.
        assert_eq!(h.misses(0), 6);
        assert_eq!(h.misses(1), 5); // RD 0 hits
        assert_eq!(h.misses(2), 5);
        assert_eq!(h.misses(3), 3); // the two RD-2 accesses hit
        assert_eq!(h.misses(6), 2); // only cold
        assert_eq!(h.misses(1000), 2);
        let mut prev = u64::MAX;
        for n in 0..10 {
            let m = h.misses(n);
            assert!(m <= prev);
            prev = m;
        }
    }

    #[test]
    fn hits_complement_misses() {
        let h = sample();
        for n in 0..8 {
            assert_eq!(h.hits(n) + h.misses(n), h.total());
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.total(), 12);
        assert_eq!(a.misses(3), 6);
    }
}
