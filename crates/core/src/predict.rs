//! Unified prediction API over methods (A) and (B).
//!
//! A [`SectorSetting`] names one point of the paper's sweep — sector cache
//! off, or `w` L2 ways carved out for the non-temporal data. The model
//! treats the L2 (one segment, i.e. one NUMA domain's cache) as a fully
//! associative LRU cache of its line capacity; a partitioned cache is two
//! such caches (Eq. 2). Capacities are derived from the machine geometry:
//! `w` ways of an `S`-set cache hold `S·w` lines.
//!
//! [`predict`] computes a [`LocalityProfile`] for the sweep and evaluates
//! it per setting; the two methods differ in what the profile records.
//!
//! # Method (A): full-trace stack processing (§3.2.1)
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
//!
//! # Method (B): `x`-trace approximation with analytic scaling (§3.2.2)
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
//!   paper claims for method (B). The scaling factors come from the
//!   workload's partition-0 companion volume
//!   ([`SpmvWorkload::companion0_bytes`]), which reduces to the paper's
//!   `s1`/`s2` for CSR;
//! * the streaming arrays contribute their closed-form per-line miss
//!   terms whenever the §3.1 classification says they do not fit their
//!   partition.
//!
//! The approximation degrades for matrices with few nonzeros per row and
//! high row-length variation (low `μ_K`, high `CV_K`), as §4.5 discusses —
//! the average-based scaling factor is then a poor stand-in for the true
//! interleaving of references.

use crate::profile::LocalityProfile;
use a64fx::MachineConfig;
use memtrace::{Array, SpmvWorkload};

/// One sector-cache configuration of the sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SectorSetting {
    /// Sector cache disabled: all data shares the whole cache.
    Off,
    /// `a` and `colidx` isolated in a sector of this many L2 ways.
    L2Ways(usize),
}

impl SectorSetting {
    /// The paper's Table 2/3 sweep: off, then 2..=7 ways.
    pub fn paper_sweep() -> Vec<SectorSetting> {
        let mut v = vec![SectorSetting::Off];
        v.extend((2..=7).map(SectorSetting::L2Ways));
        v
    }

    /// Partition-0 (reusable data) capacity in lines under this setting.
    pub fn cap0_lines(self, cfg: &MachineConfig) -> usize {
        match self {
            SectorSetting::Off => cfg.l2.total_lines(),
            SectorSetting::L2Ways(w) => cfg.l2.num_sets() * (cfg.l2.ways - w),
        }
    }

    /// Partition-1 (matrix stream) capacity in lines under this setting.
    pub fn cap1_lines(self, cfg: &MachineConfig) -> usize {
        match self {
            SectorSetting::Off => cfg.l2.total_lines(),
            SectorSetting::L2Ways(w) => cfg.l2.num_sets() * w,
        }
    }

    /// Short display label (`off`, `2 ways`, ...).
    pub fn label(self) -> String {
        match self {
            SectorSetting::Off => "off".to_string(),
            SectorSetting::L2Ways(w) => format!("{w} ways"),
        }
    }
}

/// A model prediction of steady-state (post-warm-up) L2 misses for one
/// SpMV iteration under one sector setting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// The configuration predicted.
    pub setting: SectorSetting,
    /// Predicted total L2 misses (Eq. 2).
    pub l2_misses: u64,
    /// Misses attributed per array (indexed by `Array as usize`).
    pub by_array: [u64; 5],
}

impl Prediction {
    /// Misses attributed to one array.
    pub fn misses_of(&self, array: Array) -> u64 {
        self.by_array[array as usize]
    }

    /// Fraction of predicted misses caused by `x`-vector accesses — the
    /// §4.5.5 "hard matrix" criterion uses ≥ 50 %.
    pub fn x_traffic_fraction(&self) -> f64 {
        if self.l2_misses == 0 {
            0.0
        } else {
            self.misses_of(Array::X) as f64 / self.l2_misses as f64
        }
    }
}

/// Which model variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Full-trace stack processing (§3.2.1).
    A,
    /// `x`-trace with analytic scaling (§3.2.2).
    B,
}

/// Predicts steady-state L2 misses for every setting, sequential or
/// parallel.
///
/// * `threads == 1`: sequential SpMV against one L2 segment.
/// * `threads > 1`: per-domain concurrent analysis; threads are grouped
///   `cfg.cores_per_domain` per shared L2 and per-domain predictions are
///   summed (every domain replicates shared data, as on the A64FX).
///
/// Accepts any [`SpmvWorkload`] (a `&CsrMatrix`, a `&SellMatrix`, or the
/// runtime-dispatched `memtrace::Workload`).
pub fn predict<W: SpmvWorkload>(
    workload: &W,
    cfg: &MachineConfig,
    method: Method,
    settings: &[SectorSetting],
    threads: usize,
) -> Vec<Prediction> {
    LocalityProfile::compute(workload, cfg, method, threads, settings).evaluate(cfg, settings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::StreamTerms;
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
    fn paper_sweep_contents() {
        let s = SectorSetting::paper_sweep();
        assert_eq!(s.len(), 7);
        assert_eq!(s[0], SectorSetting::Off);
        assert_eq!(s[1], SectorSetting::L2Ways(2));
        assert_eq!(s[6], SectorSetting::L2Ways(7));
    }

    #[test]
    fn capacities_from_geometry() {
        let cfg = MachineConfig::a64fx();
        // 2048 sets, 16 ways.
        assert_eq!(SectorSetting::Off.cap0_lines(&cfg), 32768);
        assert_eq!(SectorSetting::L2Ways(5).cap1_lines(&cfg), 2048 * 5);
        assert_eq!(SectorSetting::L2Ways(5).cap0_lines(&cfg), 2048 * 11);
    }

    #[test]
    fn x_fraction() {
        let p = Prediction {
            setting: SectorSetting::Off,
            l2_misses: 100,
            by_array: [60, 10, 20, 10, 0],
        };
        assert!((p.x_traffic_fraction() - 0.6).abs() < 1e-12);
        assert_eq!(p.misses_of(Array::A), 20);
    }

    #[test]
    fn labels() {
        assert_eq!(SectorSetting::Off.label(), "off");
        assert_eq!(SectorSetting::L2Ways(4).label(), "4 ways");
    }

    #[test]
    fn method_a_class1_predicts_zero_misses() {
        // Everything fits in the scaled L2 (128 KiB): steady state has no
        // capacity misses in any configuration.
        let m = random_matrix(64, 3, 5);
        assert!(m.working_set_bytes() < cfg().l2.size_bytes);
        for p in predict(&m, &cfg(), Method::A, &SectorSetting::paper_sweep(), 1) {
            assert_eq!(p.l2_misses, 0, "{:?}", p.setting);
        }
    }

    #[test]
    fn method_a_streaming_arrays_always_miss_when_oversized() {
        let m = random_matrix(4096, 16, 7);
        assert!(m.matrix_bytes() > cfg().l2.size_bytes);
        let preds = predict(&m, &cfg(), Method::A, &[SectorSetting::L2Ways(4)], 1);
        let terms = StreamTerms::of(&m, memtrace::A64FX_LINE_BYTES);
        // In the partitioned prediction the matrix stream misses once per
        // line (it cannot fit 4 ways), exactly the closed-form terms.
        assert_eq!(preds[0].misses_of(Array::A), terms.a);
        assert_eq!(preds[0].misses_of(Array::ColIdx), terms.colidx);
    }

    #[test]
    fn method_a_partitioning_protects_reusable_data_for_class2() {
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
        let preds = predict(
            &m,
            &c,
            Method::A,
            &[SectorSetting::Off, SectorSetting::L2Ways(3)],
            1,
        );
        let off = &preds[0];
        let part = &preds[1];
        // With partitioning, x/y/rowptr fit partition 0: no misses there —
        // "misses caused by accesses to x, rowptr, and y are avoided" (§3.1).
        assert_eq!(part.misses_of(Array::X), 0);
        assert_eq!(part.misses_of(Array::Y), 0);
        assert_eq!(part.misses_of(Array::RowPtr), 0);
        // Without partitioning, y and rowptr are evicted between their
        // per-iteration reuses, costing their full streaming terms extra.
        let terms = StreamTerms::of(&m, memtrace::A64FX_LINE_BYTES);
        assert!(off.misses_of(Array::Y) + off.misses_of(Array::RowPtr) >= terms.y + terms.rowptr);
        assert!(off.l2_misses >= part.l2_misses + terms.y + terms.rowptr);
    }

    #[test]
    fn method_a_parallel_prediction_sums_domains() {
        let m = random_matrix(8192, 16, 3);
        let mut c = cfg();
        c.cores_per_domain = 2;
        let seq = predict(&m, &c, Method::A, &[SectorSetting::Off], 1);
        let par = predict(&m, &c, Method::A, &[SectorSetting::Off], 8);
        // 8 threads over 4 domains: each domain streams ~1/4 of the matrix
        // but replicates x; total misses differ from sequential, and the
        // prediction machinery must produce a nonzero per-domain sum.
        assert!(par[0].l2_misses > 0);
        assert_ne!(par[0].l2_misses, seq[0].l2_misses);
    }

    #[test]
    fn method_a_settings_order_is_preserved() {
        let m = random_matrix(256, 4, 1);
        let settings = [
            SectorSetting::L2Ways(5),
            SectorSetting::Off,
            SectorSetting::L2Ways(2),
        ];
        let preds = predict(&m, &cfg(), Method::A, &settings, 1);
        assert_eq!(preds[0].setting, SectorSetting::L2Ways(5));
        assert_eq!(preds[1].setting, SectorSetting::Off);
        assert_eq!(preds[2].setting, SectorSetting::L2Ways(2));
    }

    #[test]
    fn method_a_by_array_sums_to_total() {
        let m = random_matrix(4096, 8, 21);
        for p in predict(&m, &cfg(), Method::A, &SectorSetting::paper_sweep(), 1) {
            let sum: u64 = p.by_array.iter().sum();
            assert_eq!(sum, p.l2_misses, "{:?}", p.setting);
        }
    }

    #[test]
    fn method_b_class1_predicts_zero() {
        let m = random_matrix(64, 3, 5);
        for p in predict(&m, &cfg(), Method::B, &SectorSetting::paper_sweep(), 1) {
            assert_eq!(p.l2_misses, 0, "{:?}", p.setting);
        }
    }

    #[test]
    fn method_b_empty_matrix_predicts_zero() {
        let m = CooMatrix::new(8, 8).to_csr();
        for p in predict(&m, &cfg(), Method::B, &[SectorSetting::Off], 1) {
            assert_eq!(p.l2_misses, 0);
        }
    }

    #[test]
    fn method_b_streaming_terms_appear_when_matrix_oversized() {
        let m = random_matrix(4096, 16, 7);
        let p = predict(&m, &cfg(), Method::B, &[SectorSetting::L2Ways(3)], 1);
        let terms = StreamTerms::of(&m, memtrace::A64FX_LINE_BYTES);
        assert_eq!(p[0].misses_of(Array::A), terms.a);
        assert_eq!(p[0].misses_of(Array::ColIdx), terms.colidx);
        // Reusable data fits partition 0 -> no y/rowptr misses.
        assert_eq!(p[0].misses_of(Array::Y), 0);
        assert_eq!(p[0].misses_of(Array::RowPtr), 0);
    }

    #[test]
    fn method_b_approximates_method_a_for_well_behaved_matrices() {
        // Dense-ish uniform rows: method (B)'s happy case (mu_K >= 8,
        // CV_K small). Its partitioned predictions should track method (A)
        // within a few percent.
        let m = random_matrix(4096, 16, 23);
        let settings = [SectorSetting::L2Ways(4), SectorSetting::L2Ways(6)];
        let a = predict(&m, &cfg(), Method::A, &settings, 1);
        let b = predict(&m, &cfg(), Method::B, &settings, 1);
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
    fn method_b_parallel_prediction_runs_per_domain() {
        let m = random_matrix(2048, 12, 31);
        let mut c = cfg();
        c.cores_per_domain = 2;
        let p = predict(&m, &c, Method::B, &[SectorSetting::L2Ways(4)], 8);
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
    fn method_b_unpartitioned_includes_all_streams() {
        let m = random_matrix(4096, 16, 41);
        let p = predict(&m, &cfg(), Method::B, &[SectorSetting::Off], 1);
        let terms = StreamTerms::of(&m, memtrace::A64FX_LINE_BYTES);
        assert!(p[0].l2_misses >= terms.total());
    }
}
