//! Partitioned-cache miss accounting — Eq. (2) of the paper.
//!
//! A way-partitioned cache is modelled as two independent LRU caches of
//! capacities `n0` and `n1` with `n0 + n1 = n`. References are routed by
//! the array they touch: arrays in the sector-1 set are counted in
//! partition 1, everything else in partition 0. Disabling partitioning is
//! the special case of routing all references to partition 0.
//!
//! [`PartitionedStack`] tracks both partitions for a whole *sweep* of
//! partition sizes at once (each partition side is a multi-capacity
//! [`MarkerStack`]), so one pass over the trace yields Eq. (2) for every
//! way split of interest. This works because LRU stack contents are
//! capacity-independent: partition contents depend only on the routing,
//! not on the partition sizes.

use crate::markers::MarkerStack;
use memtrace::{Access, Array, ArraySet, TraceSink};

/// Eq. (2) evaluator: two marker stacks with a routing predicate.
#[derive(Clone, Debug)]
pub struct PartitionedStack {
    sector1: ArraySet,
    p0: MarkerStack,
    p1: MarkerStack,
}

impl PartitionedStack {
    /// Creates an evaluator routing arrays in `sector1` to partition 1.
    ///
    /// `caps0` and `caps1` are the partition-capacity sweeps (in cache
    /// lines) to evaluate for partition 0 and 1 respectively.
    pub fn new(sector1: ArraySet, caps0: &[usize], caps1: &[usize]) -> Self {
        PartitionedStack {
            sector1,
            p0: MarkerStack::new(caps0),
            p1: MarkerStack::new(caps1),
        }
    }

    /// Processes one reference, routing it to the appropriate partition.
    pub fn access(&mut self, line: u64, array: Array) {
        if self.sector1.contains(array) {
            self.p1.access(line, array);
        } else {
            self.p0.access(line, array);
        }
    }

    /// Resets miss counters in both partitions (keeps stack state), used to
    /// discard the warm-up iteration.
    pub fn reset_counters(&mut self) {
        self.p0.reset_counters();
        self.p1.reset_counters();
    }

    /// The partition-0 marker stack (non-isolated data: `x`, `y`,
    /// `rowptr` under the Listing 1 policy).
    pub fn partition0(&self) -> &MarkerStack {
        &self.p0
    }

    /// The partition-1 marker stack (isolated data: `a`, `colidx` under
    /// the Listing 1 policy).
    pub fn partition1(&self) -> &MarkerStack {
        &self.p1
    }

    /// Total Eq. (2) misses for partition capacities `(n0, n1)` given by
    /// capacity indices into the respective sweeps.
    pub fn total_misses(&self, cap0_idx: usize, cap1_idx: usize) -> u64 {
        self.p0.misses(cap0_idx) + self.p1.misses(cap1_idx)
    }
}

impl TraceSink for PartitionedStack {
    #[inline]
    fn access(&mut self, access: Access) {
        PartitionedStack::access(self, access.line, access.array);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactStack;
    use crate::histogram::ReuseHistogram;
    use memtrace::Access;

    fn mixed_trace(seed: u64, len: usize) -> Vec<Access> {
        // Alternates x-vector lines (0..32, reused) with streaming matrix
        // lines (1000.., never reused), approximating SpMV structure.
        let mut state = seed | 1;
        let mut stream = 1000u64;
        (0..len)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                if i % 3 == 2 {
                    stream += 1;
                    Access::load(stream, Array::A)
                } else {
                    Access::load((state >> 33) % 32, Array::X)
                }
            })
            .collect()
    }

    #[test]
    fn unpartitioned_special_case_matches_single_stack() {
        // Routing nothing to partition 1 must reproduce a single LRU cache.
        let trace = mixed_trace(5, 2000);
        let mut ps = PartitionedStack::new(ArraySet::EMPTY, &[16, 64], &[1]);
        let mut ex = ExactStack::new();
        let mut hist = ReuseHistogram::new();
        for a in &trace {
            ps.access(a.line, a.array);
            hist.record(ex.access(a.line));
        }
        assert_eq!(ps.partition0().misses(0), hist.misses(16));
        assert_eq!(ps.partition0().misses(1), hist.misses(64));
        assert_eq!(ps.partition1().accesses(), 0);
    }

    #[test]
    fn partitioned_isolates_streaming_data() {
        let trace = mixed_trace(9, 3000);
        let mut ps = PartitionedStack::new(ArraySet::MATRIX_STREAM, &[32], &[4]);
        for a in &trace {
            ps.access(a.line, a.array);
        }
        // x lines (universe 32) fit fully in partition 0 -> only cold misses.
        assert_eq!(ps.partition0().misses(0), ps.partition0().cold_total());
        // streaming lines never reuse -> every access cold in partition 1.
        assert_eq!(ps.partition1().misses(0), ps.partition1().accesses());
    }

    #[test]
    fn eq2_totals_are_sum_of_partitions() {
        let trace = mixed_trace(13, 1000);
        let mut ps = PartitionedStack::new(ArraySet::MATRIX_STREAM, &[8, 32], &[2, 4]);
        for a in &trace {
            ps.access(a.line, a.array);
        }
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(
                    ps.total_misses(i, j),
                    ps.partition0().misses(i) + ps.partition1().misses(j)
                );
            }
        }
    }

    #[test]
    fn partitioning_reduces_misses_for_thrashing_reusable_data() {
        // Universe of 40 x-lines with a shared cache of 32 lines: the
        // streaming data pollutes the cache without partitioning.
        let trace = mixed_trace(21, 6000);
        // Without partitioning: total cache 32 lines.
        let mut unpart = PartitionedStack::new(ArraySet::EMPTY, &[32], &[1]);
        // With partitioning: 28 lines for x, 4 for the stream.
        let mut part = PartitionedStack::new(ArraySet::MATRIX_STREAM, &[28], &[4]);
        for a in &trace {
            unpart.access(a.line, a.array);
            part.access(a.line, a.array);
        }
        let m_unpart = unpart.total_misses(0, 0);
        let m_part = part.total_misses(0, 0);
        assert!(
            m_part <= m_unpart,
            "partitioning should not hurt here: {m_part} vs {m_unpart}"
        );
    }

    #[test]
    fn warmup_reset() {
        let trace = mixed_trace(33, 500);
        let mut ps = PartitionedStack::new(ArraySet::MATRIX_STREAM, &[16], &[2]);
        for a in &trace {
            ps.access(a.line, a.array);
        }
        ps.reset_counters();
        assert_eq!(ps.partition0().accesses(), 0);
        assert_eq!(ps.partition1().misses(0), 0);
        // The x lines are warm now: a second pass has no cold x misses.
        for a in &trace {
            ps.access(a.line, a.array);
        }
        assert_eq!(ps.partition0().cold_total(), 0);
    }
}
