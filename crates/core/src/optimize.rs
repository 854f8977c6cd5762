//! Way-partition optimisation and co-design miss curves.
//!
//! The paper's conclusion proposes the model "for example in a co-design
//! process to determine optimized cache sizes, or to decide whether to
//! integrate a cache partitioning mechanism". This module provides that
//! machinery: per-group reuse-distance histograms computed once yield the
//! full miss-vs-capacity curve of every routing group, from which
//!
//! * [`PartitionOptimizer::best_allocation`] finds the way split
//!   minimising total misses (exhaustive over the small allocation space,
//!   exact under the fully associative LRU model);
//! * [`PartitionOptimizer::miss_curve`] exposes the raw curves for cache
//!   sizing studies (see the `exp_codesign` binary).
//!
//! Because LRU stack contents are capacity-independent, one pass per
//! routing group covers *every* candidate allocation — the same property
//! Eq. (2) exploits.

use crate::concurrent::{thread_partition, DomainCursors};
use a64fx::MachineConfig;
use memtrace::{Array, ArraySet, PackedVecSink, SpmvWorkload};
use reuse::{ExactStack, ReuseHistogram};
use sparsemat::CsrMatrix;

/// Per-routing-group miss curves for one steady-state SpMV iteration on
/// one shared cache, and the machinery to optimise way allocations.
#[derive(Clone, Debug)]
pub struct PartitionOptimizer {
    groups: Vec<ArraySet>,
    /// One steady-state histogram per group per domain.
    histograms: Vec<Vec<ReuseHistogram>>,
    sets: usize,
    ways: usize,
}

impl PartitionOptimizer {
    /// Builds the optimizer for `matrix` on `cfg`'s L2 geometry, routing
    /// arrays into the given groups (each array must appear in exactly one
    /// group).
    ///
    /// `threads` follows the usual static row partition; per-domain
    /// interleaved traces feed per-domain stacks whose histograms are
    /// summed at query time.
    ///
    /// # Panics
    ///
    /// Panics if the groups do not partition the five SpMV arrays, or if
    /// `threads` is zero.
    pub fn from_spmv(
        matrix: &CsrMatrix,
        cfg: &MachineConfig,
        groups: &[ArraySet],
        threads: usize,
    ) -> Self {
        assert!(threads >= 1, "need at least one thread");
        assert!(!groups.is_empty(), "need at least one group");
        for array in Array::ALL {
            let owners = groups.iter().filter(|g| g.contains(array)).count();
            assert_eq!(
                owners,
                1,
                "array {} must belong to exactly one group (found {owners})",
                array.name()
            );
        }

        let layout = matrix.layout(cfg.l2.line_bytes);
        let partition = thread_partition(matrix, threads);
        let domains = DomainCursors::new(matrix, &layout, &partition, cfg.cores_per_domain);

        let mut histograms = vec![Vec::new(); groups.len()];
        for d in 0..domains.num_domains() {
            // Every group replays the same merged stream twice, so it is
            // buffered once, packed.
            let mut merged = PackedVecSink::with_capacity(domains.spmv_len(d));
            domains.feed_spmv_blocks(d, &mut merged);
            for (gi, group) in groups.iter().enumerate() {
                let mut stack = ExactStack::new();
                // Warm-up iteration.
                for p in merged.trace.iter().filter(|p| group.contains(p.array())) {
                    stack.touch(p.line());
                }
                // Measured iteration.
                let mut hist = ReuseHistogram::new();
                for p in merged.trace.iter().filter(|p| group.contains(p.array())) {
                    hist.record(stack.access(p.line()));
                }
                histograms[gi].push(hist);
            }
        }

        PartitionOptimizer {
            groups: groups.to_vec(),
            histograms,
            sets: cfg.l2.num_sets(),
            ways: cfg.l2.ways,
        }
    }

    /// The routing groups.
    pub fn groups(&self) -> &[ArraySet] {
        &self.groups
    }

    /// Total misses of group `g` at a capacity of `lines`, summed over
    /// domains.
    pub fn group_misses(&self, g: usize, lines: usize) -> u64 {
        self.histograms[g].iter().map(|h| h.misses(lines)).sum()
    }

    /// The steady-state miss curve of group `g` sampled at each way count
    /// `1..=ways` (capacity `sets * w` lines).
    pub fn miss_curve(&self, g: usize) -> Vec<(usize, u64)> {
        (1..=self.ways)
            .map(|w| (w, self.group_misses(g, self.sets * w)))
            .collect()
    }

    /// Total predicted misses for an explicit way allocation (one entry
    /// per group; entries must be ≥ 1 and sum to the total way count).
    ///
    /// # Panics
    ///
    /// Panics on a malformed allocation.
    pub fn misses_for(&self, allocation: &[usize]) -> u64 {
        assert_eq!(
            allocation.len(),
            self.groups.len(),
            "one way count per group"
        );
        assert!(
            allocation.iter().all(|&w| w >= 1),
            "every group needs a way"
        );
        assert_eq!(
            allocation.iter().sum::<usize>(),
            self.ways,
            "allocation must use exactly {} ways",
            self.ways
        );
        allocation
            .iter()
            .enumerate()
            .map(|(g, &w)| self.group_misses(g, self.sets * w))
            .sum()
    }

    /// Misses with partitioning disabled (all groups share all ways).
    ///
    /// Note this is an approximation when groups interleave: it sums each
    /// group's solo curve at full capacity, which ignores cross-group
    /// pollution — the exact unpartitioned number comes from a single
    /// combined stack (method A's first pass).
    pub fn unpartitioned_upper_bound(&self) -> u64 {
        (0..self.groups.len())
            .map(|g| self.group_misses(g, self.sets * self.ways))
            .sum()
    }

    /// Exhaustively finds the allocation minimising total misses.
    /// Returns `(ways per group, predicted misses)`.
    pub fn best_allocation(&self) -> (Vec<usize>, u64) {
        let k = self.groups.len();
        let mut best: Option<(Vec<usize>, u64)> = None;
        let mut alloc = vec![1usize; k];
        // Enumerate compositions of `ways` into k parts >= 1.
        fn recurse(
            opt: &PartitionOptimizer,
            alloc: &mut Vec<usize>,
            g: usize,
            remaining: usize,
            best: &mut Option<(Vec<usize>, u64)>,
        ) {
            let k = alloc.len();
            if g == k - 1 {
                alloc[g] = remaining;
                let misses = opt.misses_for(alloc);
                if best.as_ref().is_none_or(|(_, b)| misses < *b) {
                    *best = Some((alloc.clone(), misses));
                }
                return;
            }
            let groups_left = k - g - 1;
            for w in 1..=(remaining - groups_left) {
                alloc[g] = w;
                recurse(opt, alloc, g + 1, remaining - w, best);
            }
        }
        recurse(self, &mut alloc, 0, self.ways, &mut best);
        best.expect("at least one allocation exists")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::CooMatrix;

    fn random_matrix(n: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
        let mut state = seed | 1;
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            for _ in 0..nnz_per_row {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
                coo.push(r, (state >> 33) as usize % n);
            }
        }
        coo.to_csr()
    }

    fn listing1_groups() -> Vec<ArraySet> {
        vec![
            // Group 0: the reusable data.
            ArraySet::of(&[Array::X, Array::Y, Array::RowPtr]),
            // Group 1: the matrix stream.
            ArraySet::MATRIX_STREAM,
        ]
    }

    #[test]
    fn curves_are_monotone() {
        let m = random_matrix(2048, 12, 5);
        let cfg = MachineConfig::a64fx_scaled(64);
        let opt = PartitionOptimizer::from_spmv(&m, &cfg, &listing1_groups(), 1);
        for g in 0..2 {
            let curve = opt.miss_curve(g);
            assert_eq!(curve.len(), 16);
            for w in curve.windows(2) {
                assert!(w[1].1 <= w[0].1, "group {g}: curve not monotone");
            }
        }
    }

    #[test]
    fn stream_group_curve_is_flat_when_oversized() {
        // The matrix stream never fits: its misses are capacity-independent
        // (one per line).
        let m = random_matrix(4096, 16, 7);
        let cfg = MachineConfig::a64fx_scaled(64);
        let opt = PartitionOptimizer::from_spmv(&m, &cfg, &listing1_groups(), 1);
        let curve = opt.miss_curve(1);
        assert!(m.matrix_bytes() > cfg.l2.size_bytes);
        assert_eq!(curve.first().unwrap().1, curve.last().unwrap().1);
        assert!(curve[0].1 > 0);
    }

    #[test]
    fn best_allocation_is_optimal_and_valid() {
        let m = random_matrix(3000, 10, 9);
        let cfg = MachineConfig::a64fx_scaled(64);
        let opt = PartitionOptimizer::from_spmv(&m, &cfg, &listing1_groups(), 1);
        let (alloc, best) = opt.best_allocation();
        assert_eq!(alloc.len(), 2);
        assert_eq!(alloc.iter().sum::<usize>(), 16);
        // Exhaustive check that nothing beats it.
        for w0 in 1..16 {
            assert!(opt.misses_for(&[w0, 16 - w0]) >= best);
        }
        // With an oversized stream, the optimum gives the stream group the
        // minimum and the reusable group the rest.
        if m.matrix_bytes() > cfg.l2.size_bytes {
            assert!(
                alloc[0] >= alloc[1],
                "reusable data should get more ways: {alloc:?}"
            );
        }
    }

    #[test]
    fn three_group_allocation() {
        let m = random_matrix(2048, 8, 21);
        let cfg = MachineConfig::a64fx_scaled(64);
        let groups = vec![
            ArraySet::of(&[Array::X]),
            ArraySet::of(&[Array::Y, Array::RowPtr]),
            ArraySet::MATRIX_STREAM,
        ];
        let opt = PartitionOptimizer::from_spmv(&m, &cfg, &groups, 1);
        let (alloc, best) = opt.best_allocation();
        assert_eq!(alloc.len(), 3);
        assert_eq!(alloc.iter().sum::<usize>(), 16);
        assert!(best <= opt.misses_for(&[14, 1, 1]));
    }

    #[test]
    fn parallel_optimizer_sums_domains() {
        let m = random_matrix(4096, 8, 31);
        let mut cfg = MachineConfig::a64fx_scaled(64);
        cfg.cores_per_domain = 2;
        let opt = PartitionOptimizer::from_spmv(&m, &cfg, &listing1_groups(), 4);
        // 4 threads over 2 domains: histograms per group per domain.
        assert_eq!(opt.histograms[0].len(), 2);
        let (_, best) = opt.best_allocation();
        assert!(best > 0);
    }

    #[test]
    #[should_panic(expected = "exactly one group")]
    fn overlapping_groups_rejected() {
        let m = random_matrix(64, 2, 3);
        let cfg = MachineConfig::a64fx_scaled(64);
        let groups = vec![
            ArraySet::of(&[Array::X]),
            ArraySet::of(&[Array::X, Array::Y]),
        ];
        PartitionOptimizer::from_spmv(&m, &cfg, &groups, 1);
    }

    #[test]
    #[should_panic(expected = "exactly 16 ways")]
    fn malformed_allocation_rejected() {
        let m = random_matrix(64, 2, 3);
        let cfg = MachineConfig::a64fx_scaled(64);
        let opt = PartitionOptimizer::from_spmv(&m, &cfg, &listing1_groups(), 1);
        opt.misses_for(&[3, 4]);
    }
}
