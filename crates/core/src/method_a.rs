//! Method (A): full-trace stack processing (§3.2.1).
//!
//! The complete SpMV memory trace (Fig. 1 b) is generated from the
//! sparsity pattern and processed with the marker stack. Two passes are
//! needed, exactly as the paper describes: one with all references in a
//! single partition (sector cache off) and one with references divided
//! between the partitions (Eq. 2). Each pass replays the trace twice —
//! a warm-up iteration (whose counters are discarded) and a measured one —
//! so the prediction covers steady-state iterative SpMV with no cold
//! misses.
//!
//! All way splits of a sweep share one pass: partition contents under LRU
//! depend only on the reference routing, not on the capacities, so one
//! marker stack per routing (Kim et al.'s algorithm, §3.2.1) classifies
//! every reference against all the partition capacities the sweep's
//! [`SectorSetting`]s query at once. The per-capacity miss counts form a
//! [`LocalityProfile`] evaluated per split, which batch drivers memoize.

use crate::predict::{Method, Prediction, SectorSetting};
use crate::profile::LocalityProfile;
use a64fx::MachineConfig;
use memtrace::SpmvWorkload;

/// Predicts steady-state L2 misses for the given settings using method (A).
pub fn predict<W: SpmvWorkload>(
    workload: &W,
    cfg: &MachineConfig,
    settings: &[SectorSetting],
    threads: usize,
) -> Vec<Prediction> {
    LocalityProfile::compute(workload, cfg, Method::A, threads, settings).evaluate(cfg, settings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::Array;
    use sparsemat::{CooMatrix, CsrMatrix};

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

    fn cfg() -> MachineConfig {
        MachineConfig::a64fx_scaled(64)
    }

    #[test]
    fn class1_predicts_zero_misses() {
        // Everything fits in the scaled L2 (128 KiB): steady state has no
        // capacity misses in any configuration.
        let m = random_matrix(64, 3, 5);
        assert!(m.working_set_bytes() < cfg().l2.size_bytes);
        for p in predict(&m, &cfg(), &SectorSetting::paper_sweep(), 1) {
            assert_eq!(p.l2_misses, 0, "{:?}", p.setting);
        }
    }

    #[test]
    fn streaming_arrays_always_miss_when_oversized() {
        let m = random_matrix(4096, 16, 7);
        assert!(m.matrix_bytes() > cfg().l2.size_bytes);
        let preds = predict(&m, &cfg(), &[SectorSetting::L2Ways(4)], 1);
        let terms = crate::analytic::StreamTerms::of(&m, memtrace::A64FX_LINE_BYTES);
        // In the partitioned prediction the matrix stream misses once per
        // line (it cannot fit 4 ways), exactly the closed-form terms.
        assert_eq!(preds[0].misses_of(Array::A), terms.a);
        assert_eq!(preds[0].misses_of(Array::ColIdx), terms.colidx);
    }

    #[test]
    fn partitioning_protects_reusable_data_for_class2() {
        // A 32 KiB L2 (128 lines): the reusable data (x + y + rowptr of a
        // 1024-row matrix = 97 lines) fits 13 of 16 ways (104 lines), but
        // the whole working set (matrix streams included) does not fit the
        // cache — the paper's class (2).
        let mut c = cfg();
        c.l2.size_bytes = 32 << 10;
        let m = random_matrix(1024, 32, 9);
        assert_eq!(
            crate::classify::classify(&m, c.l2.size_bytes, 104 * memtrace::A64FX_LINE_BYTES),
            crate::classify::MatrixClass::Class2
        );
        let preds = predict(&m, &c, &[SectorSetting::Off, SectorSetting::L2Ways(3)], 1);
        let off = &preds[0];
        let part = &preds[1];
        // With partitioning, x/y/rowptr fit partition 0: no misses there —
        // "misses caused by accesses to x, rowptr, and y are avoided" (§3.1).
        assert_eq!(part.misses_of(Array::X), 0);
        assert_eq!(part.misses_of(Array::Y), 0);
        assert_eq!(part.misses_of(Array::RowPtr), 0);
        // Without partitioning, y and rowptr are evicted between their
        // per-iteration reuses, costing their full streaming terms extra.
        let terms = crate::analytic::StreamTerms::of(&m, memtrace::A64FX_LINE_BYTES);
        assert!(off.misses_of(Array::Y) + off.misses_of(Array::RowPtr) >= terms.y + terms.rowptr);
        assert!(off.l2_misses >= part.l2_misses + terms.y + terms.rowptr);
    }

    #[test]
    fn parallel_prediction_sums_domains() {
        let m = random_matrix(8192, 16, 3);
        let mut c = cfg();
        c.cores_per_domain = 2;
        let seq = predict(&m, &c, &[SectorSetting::Off], 1);
        let par = predict(&m, &c, &[SectorSetting::Off], 8);
        // 8 threads over 4 domains: each domain streams ~1/4 of the matrix
        // but replicates x; total misses differ from sequential, and the
        // prediction machinery must produce a nonzero per-domain sum.
        assert!(par[0].l2_misses > 0);
        assert_ne!(par[0].l2_misses, seq[0].l2_misses);
    }

    #[test]
    fn settings_order_is_preserved() {
        let m = random_matrix(256, 4, 1);
        let settings = [
            SectorSetting::L2Ways(5),
            SectorSetting::Off,
            SectorSetting::L2Ways(2),
        ];
        let preds = predict(&m, &cfg(), &settings, 1);
        assert_eq!(preds[0].setting, SectorSetting::L2Ways(5));
        assert_eq!(preds[1].setting, SectorSetting::Off);
        assert_eq!(preds[2].setting, SectorSetting::L2Ways(2));
    }

    #[test]
    fn by_array_sums_to_total() {
        let m = random_matrix(4096, 8, 21);
        for p in predict(&m, &cfg(), &SectorSetting::paper_sweep(), 1) {
            let sum: u64 = p.by_array.iter().sum();
            assert_eq!(sum, p.l2_misses, "{:?}", p.setting);
        }
    }
}
