//! Property-based tests of the locality model and trace machinery on
//! arbitrary sparse matrices.

use a64fx::MachineConfig;
use locality_core::predict::{predict, Method, SectorSetting};
use memtrace::spmv_trace::{trace_len, trace_spmv};
use memtrace::{Array, CountSink, DataLayout};
use proptest::prelude::*;
use sparsemat::{CooMatrix, CsrMatrix};

fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (4usize..60)
        .prop_flat_map(|n| {
            let entries = prop::collection::vec((0..n, 0..n), 1..n * 6);
            (Just(n), entries)
        })
        .prop_map(|(n, entries)| {
            let mut coo = CooMatrix::new(n, n);
            for (r, c) in entries {
                coo.push(r, c);
            }
            coo.to_csr()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The trace generator emits exactly the reference counts of Fig. 1b:
    /// M+1 rowptr, K each of a/colidx/x, M y-stores.
    #[test]
    fn trace_reference_counts(m in arb_matrix()) {
        let layout = DataLayout::new(&m, 64);
        let mut sink = CountSink::new();
        trace_spmv(&m, &layout, &mut sink);
        prop_assert_eq!(sink.counts[Array::RowPtr as usize] as usize, m.num_rows() + 1);
        prop_assert_eq!(sink.counts[Array::A as usize] as usize, m.nnz());
        prop_assert_eq!(sink.counts[Array::ColIdx as usize] as usize, m.nnz());
        prop_assert_eq!(sink.counts[Array::X as usize] as usize, m.nnz());
        prop_assert_eq!(sink.counts[Array::Y as usize] as usize, m.num_rows());
        prop_assert_eq!(sink.writes as usize, m.num_rows());
        prop_assert_eq!(sink.total() as usize, trace_len(m.num_rows(), m.nnz()));
    }

    /// Layout assigns every reference a line inside its own array's range.
    #[test]
    fn layout_lines_stay_in_range(m in arb_matrix()) {
        let layout = DataLayout::new(&m, 64);
        let mut sink = memtrace::VecSink::new();
        trace_spmv(&m, &layout, &mut sink);
        for a in &sink.trace {
            let base = layout.array_base(a.array);
            prop_assert!((base..base + layout.array_lines(a.array)).contains(&a.line));
        }
    }

    /// Model predictions are deterministic and respect by-array totals.
    #[test]
    fn predictions_consistent(m in arb_matrix(), threads in 1usize..4) {
        let cfg = MachineConfig::a64fx_scaled(64);
        let settings = [SectorSetting::Off, SectorSetting::L2Ways(3)];
        for method in [Method::A, Method::B] {
            let p1 = predict(&m, &cfg, method, &settings, threads);
            let p2 = predict(&m, &cfg, method, &settings, threads);
            prop_assert_eq!(&p1, &p2, "non-deterministic {:?}", method);
            for p in &p1 {
                prop_assert_eq!(p.by_array.iter().sum::<u64>(), p.l2_misses);
            }
        }
    }

    /// A giant cache predicts zero steady-state misses (everything fits).
    #[test]
    fn huge_cache_predicts_zero(m in arb_matrix()) {
        // Full-size A64FX: these tiny matrices always fit.
        let cfg = MachineConfig::a64fx();
        for method in [Method::A, Method::B] {
            let p = predict(&m, &cfg, method, &[SectorSetting::Off], 1);
            prop_assert_eq!(p[0].l2_misses, 0, "{:?}", method);
        }
    }

    /// Predictions shrink (weakly) as the sector-0 partition grows, for
    /// the partition-0 arrays.
    #[test]
    fn partition0_misses_monotone_in_capacity(m in arb_matrix()) {
        let cfg = MachineConfig::a64fx_scaled(64);
        let settings: Vec<SectorSetting> =
            (2..8).rev().map(SectorSetting::L2Ways).collect();
        let preds = predict(&m, &cfg, Method::A, &settings, 1);
        // Settings are in decreasing sector-1 ways, i.e. increasing
        // partition-0 capacity: x/y/rowptr misses must not increase.
        for w in preds.windows(2) {
            let p0_prev: u64 = w[0].misses_of(Array::X)
                + w[0].misses_of(Array::Y)
                + w[0].misses_of(Array::RowPtr);
            let p0_next: u64 = w[1].misses_of(Array::X)
                + w[1].misses_of(Array::Y)
                + w[1].misses_of(Array::RowPtr);
            prop_assert!(p0_next <= p0_prev);
        }
    }
}
