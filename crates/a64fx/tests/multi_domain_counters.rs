//! Trace-driven tests of the `counters` aggregation helpers on
//! multi-domain simulations: the per-core and per-domain vectors a real
//! SpMV replay produces must sum to the aggregate counters, and the
//! `max_*` critical-path helpers must agree with the vectors they reduce.

use a64fx::config::{MachineConfig, PrefetchConfig};
use a64fx::sim_spmv::simulate_spmv;
use memtrace::ArraySet;
use sparsemat::{CooMatrix, CsrMatrix};

/// Random streaming matrix: CSR arrays far exceed the scaled L2.
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

/// 8 threads on 2-core domains: a 4-domain machine.
fn cfg_multi_domain() -> MachineConfig {
    let mut cfg = MachineConfig::a64fx_scaled(64)
        .with_cores(8)
        .with_prefetch(PrefetchConfig::off());
    cfg.cores_per_domain = 2;
    cfg
}

#[test]
fn per_core_and_per_domain_vectors_sum_to_aggregates() {
    let m = streaming_matrix(8192, 8, 11);
    let cfg = cfg_multi_domain();
    assert_eq!(cfg.num_domains(), 4);
    let r = simulate_spmv(&m, &cfg, ArraySet::EMPTY, 8, 1);
    let pmu = &r.pmu;

    assert_eq!(pmu.per_core_l1_demand_misses.len(), 8);
    assert_eq!(pmu.per_core_l2_demand_misses.len(), 8);
    assert_eq!(pmu.per_domain_l2_refill.len(), 4);
    assert_eq!(pmu.per_domain_l2_wb.len(), 4);

    // Attribution must conserve the aggregate counters exactly.
    assert_eq!(
        pmu.per_core_l1_demand_misses.iter().sum::<u64>(),
        pmu.l1d_demand_misses
    );
    assert_eq!(
        pmu.per_core_l2_demand_misses.iter().sum::<u64>(),
        pmu.l2d_cache_refill_dm
    );
    assert_eq!(
        pmu.per_domain_l2_refill.iter().sum::<u64>(),
        pmu.l2d_cache_refill
    );
    assert_eq!(pmu.per_domain_l2_wb.iter().sum::<u64>(), pmu.l2d_cache_wb);

    // Every domain sees work on this matrix: a zero row would mean the
    // domain mapping dropped cores.
    assert!(pmu.per_domain_l2_refill.iter().all(|&r| r > 0));
}

#[test]
fn max_helpers_agree_with_their_vectors() {
    let m = streaming_matrix(6144, 6, 29);
    let cfg = cfg_multi_domain();
    let r = simulate_spmv(&m, &cfg, ArraySet::EMPTY, 8, 1);
    let pmu = &r.pmu;
    let line = cfg.l2.line_bytes as u64;

    assert_eq!(
        pmu.max_core_l1_demand_misses(),
        *pmu.per_core_l1_demand_misses.iter().max().unwrap()
    );
    assert_eq!(
        pmu.max_core_l2_demand_misses(),
        *pmu.per_core_l2_demand_misses.iter().max().unwrap()
    );
    let expect_max_domain_bytes = pmu
        .per_domain_l2_refill
        .iter()
        .zip(&pmu.per_domain_l2_wb)
        .map(|(&re, &wb)| (re + wb) * line)
        .max()
        .unwrap();
    assert_eq!(
        pmu.max_domain_memory_bytes(cfg.l2.line_bytes),
        expect_max_domain_bytes
    );

    // The critical-path maxima bound the aggregate identities: max over
    // cores is at least the mean, and the domain maximum is at least
    // total traffic divided by the domain count.
    let domains = pmu.per_domain_l2_refill.len() as u64;
    assert!(pmu.max_core_l2_demand_misses() * 8 >= pmu.l2d_cache_refill_dm);
    assert!(
        pmu.max_domain_memory_bytes(cfg.l2.line_bytes) * domains
            >= pmu.memory_bytes(cfg.l2.line_bytes)
    );
}

#[test]
fn refill_splits_into_demand_and_prefetch() {
    // With the prefetcher ON, refills split across demand and prefetch
    // and the PMU identity REFILL == REFILL_DM + REFILL_PRF must hold on
    // a real multi-domain trace.
    let m = streaming_matrix(8192, 8, 5);
    let mut cfg = MachineConfig::a64fx_scaled(64).with_cores(8);
    cfg.cores_per_domain = 2;
    let r = simulate_spmv(&m, &cfg, ArraySet::EMPTY, 8, 1);
    let pmu = &r.pmu;
    assert_eq!(
        pmu.l2d_cache_refill,
        pmu.l2d_cache_refill_dm + pmu.l2d_cache_refill_prf
    );
    assert!(
        pmu.l2d_cache_refill_prf > 0,
        "prefetcher generated no fills"
    );
    // The paper's miss formula reduces to REFILL with the simulator's
    // always-zero swap/merge artefact counters.
    assert_eq!(pmu.l2_misses(), pmu.l2d_cache_refill);
}
