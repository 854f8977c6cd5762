//! Driving the machine with SpMV traces: the simulator-side "measurement".
//!
//! Mirrors the paper's experimental procedure: the SpMV trace is replayed
//! once to warm the caches (the paper models behaviour "after a warm-up
//! iteration", i.e. no cold misses), counters are reset, and a second
//! iteration is measured. Threads are mapped one-per-core in order (the
//! paper pins with `OMP_PROC_BIND=close OMP_PLACES=cores`), and the
//! threads' references are interleaved round-robin one reference at a
//! time — the equal-progress interleaving the model's MCS-ordered
//! collation approximates.
//!
//! Every pass streams fresh per-thread [`SpmvWorkload::trace_cursor`]s
//! straight into [`Machine::demand_access`]; no trace is materialized, so
//! any storage format the model analyses can be simulated the same way.

use crate::config::MachineConfig;
use crate::counters::PmuSnapshot;
use crate::hierarchy::Machine;
use memtrace::cursor::SwPrefetchCursor;
use memtrace::{ArraySet, SpmvWorkload, TraceCursor};
use sparsemat::{CsrMatrix, RowPartition};

/// Result of a simulated SpMV measurement.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Counters of the measured (post-warm-up) iteration.
    pub pmu: PmuSnapshot,
    /// Maximum `x` gathers (nonzeros for CSR, padded entries for
    /// SELL-C-σ) assigned to any thread — the timing critical path.
    pub max_thread_nnz: usize,
    /// Threads used.
    pub num_threads: usize,
}

/// Simulates iterative SpMV on `cfg` with the arrays in `sector1` assigned
/// to sector 1, using `num_threads` threads (static contiguous row blocks).
///
/// Replays `warmup` iterations, resets counters, then measures one
/// iteration and returns its counters.
///
/// # Panics
///
/// Panics if `num_threads` is zero or exceeds `cfg.num_cores`.
pub fn simulate_spmv(
    matrix: &CsrMatrix,
    cfg: &MachineConfig,
    sector1: ArraySet,
    num_threads: usize,
    warmup: usize,
) -> SimResult {
    assert!(num_threads > 0, "need at least one thread");
    let partition = RowPartition::static_rows(matrix.num_rows(), num_threads);
    simulate_spmv_partitioned(matrix, cfg, sector1, &partition, warmup, None)
}

/// Like [`simulate_spmv`], but for any [`SpmvWorkload`] with an explicit
/// partition of its work items (one block per thread) — e.g. the
/// nonzero-balanced partition of the Table 1 comparator, or chunk blocks
/// of a SELL-C-σ matrix.
///
/// With `sw_prefetch = Some(distance)` the kernel also issues a
/// software-prefetch hint for the `x` line gathered `distance` positions
/// ahead ([`SwPrefetchCursor`]) — the paper's future-work combination of
/// software prefetching with the sector cache.
///
/// # Panics
///
/// Panics if the partition has zero blocks or more blocks than cores, or
/// if the prefetch distance is zero.
pub fn simulate_spmv_partitioned<W: SpmvWorkload>(
    workload: &W,
    cfg: &MachineConfig,
    sector1: ArraySet,
    partition: &RowPartition,
    warmup: usize,
    sw_prefetch: Option<usize>,
) -> SimResult {
    let num_threads = partition.num_parts();
    assert!(num_threads > 0, "need at least one thread");
    assert!(
        num_threads <= cfg.num_cores,
        "more threads ({num_threads}) than cores ({})",
        cfg.num_cores
    );
    let layout = workload.layout(cfg.l2.line_bytes);
    let hier = cfg
        .clone()
        .with_cores(num_threads)
        .to_hierarchy("simulated");
    let mut machine = Machine::new(&hier, sector1);
    for pass in 0..=warmup {
        if pass == warmup {
            machine.reset_stats();
        }
        let cursors = partition
            .iter()
            .map(|items| workload.trace_cursor(&layout, items));
        match sw_prefetch {
            None => replay(&mut machine, cursors.collect()),
            Some(distance) => replay(
                &mut machine,
                cursors
                    .zip(partition.iter())
                    .map(|(c, items)| {
                        SwPrefetchCursor::new(c, workload.x_trace_cursor(&layout, items), distance)
                    })
                    .collect(),
            ),
        }
    }

    SimResult {
        pmu: machine.pmu(),
        max_thread_nnz: partition
            .iter()
            .map(|items| workload.share(items).x_refs)
            .max()
            .unwrap_or(0),
        num_threads,
    }
}

/// Feeds the per-core cursors to the machine one reference per core per
/// round, skipping exhausted cores — the equal-progress interleaving.
fn replay<C: TraceCursor>(machine: &mut Machine, mut cursors: Vec<C>) {
    let mut live = true;
    while live {
        live = false;
        for (core, cursor) in cursors.iter_mut().enumerate() {
            if let Some(access) = cursor.next_access() {
                machine.demand_access(core, access);
                live = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetchConfig;
    use sparsemat::CooMatrix;

    /// Matrix whose whole working set fits the scaled L2: class (1).
    fn small_matrix() -> CsrMatrix {
        let n = 64;
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            for d in [0i64, -1, 1] {
                let c = r as i64 + d;
                if (0..n as i64).contains(&c) {
                    coo.push(r, c as usize);
                }
            }
        }
        coo.to_csr()
    }

    /// Matrix whose CSR arrays far exceed the scaled L2 but whose vectors
    /// fit a partition: class (2).
    fn streaming_matrix(rows: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
        let mut state = seed | 1;
        let mut coo = CooMatrix::new(rows, rows);
        for r in 0..rows {
            for _ in 0..nnz_per_row {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                coo.push(r, ((state >> 33) as usize) % rows);
            }
        }
        coo.to_csr()
    }

    fn cfg_seq() -> MachineConfig {
        MachineConfig::a64fx_scaled(64)
            .with_cores(1)
            .with_prefetch(PrefetchConfig::off())
    }

    #[test]
    fn class1_matrix_has_no_steady_state_misses() {
        let m = small_matrix();
        let cfg = cfg_seq();
        assert!(m.working_set_bytes() < cfg.l2.size_bytes);
        let r = simulate_spmv(&m, &cfg, ArraySet::EMPTY, 1, 1);
        // Everything fits in L2: the measured iteration has no L2 fills.
        assert_eq!(
            r.pmu.l2_misses(),
            0,
            "class (1) must not miss after warm-up"
        );
    }

    #[test]
    #[should_panic(expected = "need at least one thread")]
    fn zero_threads_panic_as_documented() {
        simulate_spmv(&small_matrix(), &cfg_seq(), ArraySet::EMPTY, 0, 1);
    }

    #[test]
    fn streaming_matrix_misses_scale_with_matrix_lines() {
        // CSR arrays are streamed once per iteration; if they exceed the
        // cache they must be refetched every iteration.
        let m = streaming_matrix(8192, 8, 3);
        let cfg = cfg_seq();
        assert!(m.matrix_bytes() > 2 * cfg.l2.size_bytes);
        let r = simulate_spmv(&m, &cfg, ArraySet::EMPTY, 1, 1);
        let layout = m.layout(machine::A64FX_LINE_BYTES);
        let stream_lines =
            layout.array_lines(memtrace::Array::A) + layout.array_lines(memtrace::Array::ColIdx);
        assert!(
            r.pmu.l2_misses() >= stream_lines,
            "streamed arrays must miss at least once per line: {} < {stream_lines}",
            r.pmu.l2_misses()
        );
    }

    #[test]
    fn sector_cache_reduces_misses_for_class2() {
        // Class (2): matrix streams through, vectors fit in a partition.
        let m = streaming_matrix(2048, 16, 11);
        let cfg = cfg_seq();
        let base = simulate_spmv(&m, &cfg, ArraySet::EMPTY, 1, 1);
        let part = simulate_spmv(
            &m,
            &cfg_seq().with_l2_sector(4),
            ArraySet::MATRIX_STREAM,
            1,
            1,
        );
        assert!(
            part.pmu.l2_misses() <= base.pmu.l2_misses(),
            "sector cache should not increase misses for class (2): {} vs {}",
            part.pmu.l2_misses(),
            base.pmu.l2_misses()
        );
    }

    #[test]
    fn parallel_run_uses_all_cores() {
        let m = streaming_matrix(512, 4, 5);
        let mut cfg = MachineConfig::a64fx_scaled(64).with_cores(8);
        cfg.cores_per_domain = 2;
        cfg.prefetch = PrefetchConfig::off();
        // Measure the cold iteration (warmup = 0) so every domain is
        // guaranteed to pull its share of the matrix in.
        let r = simulate_spmv(&m, &cfg, ArraySet::EMPTY, 8, 0);
        assert_eq!(r.num_threads, 8);
        assert_eq!(r.pmu.per_core_l1_demand_misses.len(), 8);
        assert_eq!(r.pmu.per_domain_l2_refill.len(), 4);
        // Every domain saw traffic.
        assert!(r.pmu.per_domain_l2_refill.iter().all(|&f| f > 0));
    }

    #[test]
    fn warmup_eliminates_cold_misses_in_measurement() {
        let m = small_matrix();
        let cfg = cfg_seq();
        // Without warm-up (warmup = 0), the measured iteration includes
        // cold misses; with warm-up it does not.
        let cold = simulate_spmv(&m, &cfg, ArraySet::EMPTY, 1, 0);
        let warm = simulate_spmv(&m, &cfg, ArraySet::EMPTY, 1, 1);
        assert!(cold.pmu.l2_misses() > warm.pmu.l2_misses());
    }

    #[test]
    fn software_prefetch_hides_x_demand_misses() {
        // Irregular x accesses defeat the hardware stream prefetcher; the
        // software gather-prefetch hints convert x demand misses into
        // prefetch fills without changing total traffic much.
        // x (131072 cols = 4096 lines) exceeds the 2048-line scaled L2, so
        // the gathered x accesses demand-miss heavily at baseline.
        let m = streaming_matrix(131_072, 6, 13);
        let cfg = MachineConfig::a64fx_scaled(64).with_cores(1);
        let plain = simulate_spmv(&m, &cfg, ArraySet::EMPTY, 1, 1);
        let partition = RowPartition::static_rows(m.num_rows(), 1);
        let swpf = simulate_spmv_partitioned(&m, &cfg, ArraySet::EMPTY, &partition, 1, Some(16));
        assert!(
            swpf.pmu.l2_demand_misses() < plain.pmu.l2_demand_misses() / 2,
            "software prefetch should hide most x demand misses: {} vs {}",
            swpf.pmu.l2_demand_misses(),
            plain.pmu.l2_demand_misses()
        );
        // Total memory traffic stays within a modest factor (early fetches
        // can be evicted and refetched, but not wholesale).
        assert!(swpf.pmu.l2_misses() < plain.pmu.l2_misses() * 2);
    }

    #[test]
    fn prefetch_converts_demand_misses_to_prefetch_fills() {
        let m = streaming_matrix(2048, 8, 7);
        let base = simulate_spmv(&m, &cfg_seq(), ArraySet::EMPTY, 1, 1);
        let pf_cfg = MachineConfig::a64fx_scaled(64).with_cores(1);
        let pf = simulate_spmv(&m, &pf_cfg, ArraySet::EMPTY, 1, 1);
        assert!(pf.pmu.l2d_cache_refill_prf > 0);
        assert!(
            pf.pmu.l2_demand_misses() < base.pmu.l2_demand_misses(),
            "prefetching must hide some demand misses"
        );
    }
}
