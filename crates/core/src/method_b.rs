//! Method (B): `x`-trace approximation with analytic scaling (§3.2.2).
//!
//! Only the `x`-vector references (one per nonzero, from `colidx`) are
//! stack-processed. The other arrays' influence is reintroduced
//! analytically:
//!
//! * `x`-reuse distances are inflated to account for the other arrays'
//!   references sharing `x`'s partition. The paper expresses the average
//!   inflation through the byte ratios `s1 = (16·M/K + 8)/8` (Listing 1
//!   partitioning: `x` shares with `rowptr`, `y`) and
//!   `s2 = (16·M/K + 20)/8` (no partitioning: plus 12 bytes of
//!   `a`+`colidx` per nonzero) — "the ratio of the average number of
//!   bytes accessed per element of x and the data type size of x". We
//!   apply the same per-access companion volume at line granularity:
//!   between a reuse pair with `g` intervening `x` accesses, the companion
//!   arrays contribute `g·(s−1)·8 / L` distinct lines (they are pure
//!   streams, so every companion byte in the gap is distinct), giving the
//!   effective distance `RD_x + g·(s−1)·8/L`. One exact-stack pass yields
//!   `RD_x` and `g` together, so all sweep settings are still covered in
//!   a single pass over the (much shorter) `x` trace — the advantage the
//!   paper claims for method (B);
//! * the streaming arrays contribute their closed-form per-line miss
//!   terms whenever the §3.1 classification says they do not fit their
//!   partition.
//!
//! The approximation degrades for matrices with few nonzeros per row and
//! high row-length variation (low `μ_K`, high `CV_K`), as §4.5 discusses —
//! the average-based scaling factor is then a poor stand-in for the true
//! interleaving of references.

use crate::predict::{Method, Prediction, SectorSetting};
use crate::profile::LocalityProfile;
use a64fx::MachineConfig;
use memtrace::SpmvWorkload;

/// Predicts steady-state L2 misses for the given settings using method (B).
///
/// The `x`-trace pass is capacity-independent: one [`LocalityProfile`]
/// records the `(RD_x, g)` pair distribution plus per-domain shares, and
/// every sweep setting is evaluated from it analytically. The scaling
/// factors come from the workload's partition-0 companion volume
/// ([`SpmvWorkload::companion0_bytes`]), which reduces to the paper's
/// `s1`/`s2` for CSR.
pub fn predict<W: SpmvWorkload>(
    workload: &W,
    cfg: &MachineConfig,
    settings: &[SectorSetting],
    threads: usize,
) -> Vec<Prediction> {
    LocalityProfile::compute(workload, cfg, Method::B, threads, settings).evaluate(cfg, settings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::StreamTerms;
    use crate::method_a;
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
    fn class1_predicts_zero() {
        let m = random_matrix(64, 3, 5);
        for p in predict(&m, &cfg(), &SectorSetting::paper_sweep(), 1) {
            assert_eq!(p.l2_misses, 0, "{:?}", p.setting);
        }
    }

    #[test]
    fn empty_matrix_predicts_zero() {
        let m = CooMatrix::new(8, 8).to_csr();
        for p in predict(&m, &cfg(), &[SectorSetting::Off], 1) {
            assert_eq!(p.l2_misses, 0);
        }
    }

    #[test]
    fn streaming_terms_appear_when_matrix_oversized() {
        let m = random_matrix(4096, 16, 7);
        let p = predict(&m, &cfg(), &[SectorSetting::L2Ways(3)], 1);
        let terms = StreamTerms::of(&m, memtrace::A64FX_LINE_BYTES);
        assert_eq!(p[0].misses_of(Array::A), terms.a);
        assert_eq!(p[0].misses_of(Array::ColIdx), terms.colidx);
        // Reusable data fits partition 0 -> no y/rowptr misses.
        assert_eq!(p[0].misses_of(Array::Y), 0);
        assert_eq!(p[0].misses_of(Array::RowPtr), 0);
    }

    #[test]
    fn approximates_method_a_for_well_behaved_matrices() {
        // Dense-ish uniform rows: method (B)'s happy case (mu_K >= 8,
        // CV_K small). Its partitioned predictions should track method (A)
        // within a few percent.
        let m = random_matrix(4096, 16, 23);
        let settings = [SectorSetting::L2Ways(4), SectorSetting::L2Ways(6)];
        let a = method_a::predict(&m, &cfg(), &settings, 1);
        let b = predict(&m, &cfg(), &settings, 1);
        for (pa, pb) in a.iter().zip(&b) {
            let err =
                (pa.l2_misses as f64 - pb.l2_misses as f64).abs() / pa.l2_misses.max(1) as f64;
            assert!(
                err < 0.10,
                "method B off by {:.1}% at {:?}: A={} B={}",
                err * 100.0,
                pa.setting,
                pa.l2_misses,
                pb.l2_misses
            );
        }
    }

    #[test]
    fn parallel_prediction_runs_per_domain() {
        let m = random_matrix(2048, 12, 31);
        let mut c = cfg();
        c.cores_per_domain = 2;
        let p = predict(&m, &c, &[SectorSetting::L2Ways(4)], 8);
        assert!(p[0].l2_misses > 0);
        // The matrix stream terms are accounted once per line in total
        // (split across domains).
        let terms = StreamTerms::of(&m, memtrace::A64FX_LINE_BYTES);
        let stream_pred = p[0].misses_of(Array::A) + p[0].misses_of(Array::ColIdx);
        let total_terms = terms.a + terms.colidx;
        // Domain splitting adds at most one extra line per domain boundary
        // and array.
        assert!(stream_pred >= total_terms);
        assert!(stream_pred <= total_terms + 8);
    }

    #[test]
    fn unpartitioned_includes_all_streams() {
        let m = random_matrix(4096, 16, 41);
        let p = predict(&m, &cfg(), &[SectorSetting::Off], 1);
        let terms = StreamTerms::of(&m, memtrace::A64FX_LINE_BYTES);
        assert!(p[0].l2_misses >= terms.total());
    }
}
