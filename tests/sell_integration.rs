//! End-to-end SELL-C-σ integration: packed rows against CSR, trace-driven
//! simulation through the A64FX machine, and the sector-cache story for
//! the chunked format.

use a64fx::{simulate_spmv_partitioned, MachineConfig, PrefetchConfig};
use a64fx_spmv::prelude::*;
use memtrace::{CountSink, TraceCursor};
use proptest::prelude::*;

fn banded(n: usize, band: usize, per_row: usize, seed: u64) -> CsrMatrix {
    corpus::banded::random_banded(n, band, per_row, seed)
}

#[test]
fn sell_rows_match_csr_on_corpus_matrices() {
    for nm in corpus::corpus(4, 64, 5) {
        let a = &nm.matrix;
        let c = 8;
        let sell = sparsemat::SellMatrix::from_csr(a, c, 64);
        // Packed row `p` sits in lane `p % C` of chunk `p / C`; its first
        // `row_nnz` column-major slots are the non-padding entries.
        for (p, &r) in sell.row_perm().iter().enumerate() {
            let base = sell.chunk_ptr()[p / c] + p % c;
            let cols: Vec<u32> = (0..a.row_nnz(r))
                .map(|j| sell.colidx()[base + j * c])
                .collect();
            assert_eq!(cols, &a.colidx()[a.row_range(r)], "{} row {r}", nm.name);
        }
    }
}

/// Simulates one thread of SELL SpMV (warm-up + measured) and returns the
/// measured L2 misses.
fn simulate_sell(sell: &sparsemat::SellMatrix, cfg: &MachineConfig, sector1: ArraySet) -> u64 {
    let one_thread = RowPartition::static_rows(sell.num_chunks(), 1);
    simulate_spmv_partitioned(sell, cfg, sector1, &one_thread, 1, None)
        .pmu
        .l2_misses()
}

#[test]
fn sell_sector_cache_protects_reusable_data_like_csr() {
    let a = banded(6000, 400, 24, 9);
    let sell = sparsemat::SellMatrix::from_csr(&a, 8, 64);
    let cfg = MachineConfig::a64fx_scaled(64).with_prefetch(PrefetchConfig::off());

    let base = simulate_sell(&sell, &cfg, ArraySet::EMPTY);
    let cfg5 = cfg.clone().with_l2_sector(5);
    let part = simulate_sell(&sell, &cfg5, ArraySet::MATRIX_STREAM);
    // The padded stream exceeds the cache either way; partitioning must
    // not increase misses for this class-(2)-like banded matrix.
    assert!(
        part <= base,
        "SELL sector-on should not hurt: {part} vs {base}"
    );
}

#[test]
fn sell_padding_shows_up_as_extra_stream_traffic() {
    // Skewed rows force padding; the SELL stream traffic (lines of the
    // padded arrays) must exceed CSR's in proportion.
    let mut coo = sparsemat::CooMatrix::new(4096, 4096);
    let mut state = 3u64;
    for r in 0..4096usize {
        let len = if r % 8 == 0 { 32 } else { 2 };
        for _ in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            coo.push(r, (state >> 33) as usize % 4096);
        }
    }
    let a = coo.to_csr();
    // sigma = C: padding inside each chunk is decided by its widest row.
    let sell = sparsemat::SellMatrix::from_csr(&a, 8, 8);
    assert!(sell.padding_ratio() > 1.5, "ratio {}", sell.padding_ratio());

    let cfg = MachineConfig::a64fx_scaled(64).with_prefetch(PrefetchConfig::off());
    let sell_misses = simulate_sell(&sell, &cfg, ArraySet::EMPTY);
    let csr = a64fx::simulate_spmv(&a, &cfg, ArraySet::EMPTY, 1, 1);
    assert!(
        sell_misses > csr.pmu.l2_misses(),
        "padding must cost stream misses: {sell_misses} vs {}",
        csr.pmu.l2_misses()
    );

    // A large sorting window recovers most of the padding.
    let sorted = sparsemat::SellMatrix::from_csr(&a, 8, 512);
    assert!(sorted.padding_ratio() < sell.padding_ratio());
}

/// Per-array reference counts of one full workload trace.
fn count_trace(workload: &Workload) -> CountSink {
    let layout = workload.layout(memtrace::A64FX_LINE_BYTES);
    let mut sink = CountSink::new();
    workload
        .trace_cursor(&layout, 0..workload.num_work_items())
        .drain_into(&mut sink);
    sink
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// SELL with C=1, σ=1 stores each row as its own chunk with no
    /// padding, so its trace is the CSR trace except for the documented
    /// metadata difference: CSR reads `rows + 1` rowptr bounds (one loop
    /// entry plus one bound per row) while SELL reads one descriptor per
    /// chunk, i.e. exactly `rows`. Every other per-array count matches
    /// exactly on random corpus matrices.
    #[test]
    fn sell_1_1_trace_matches_csr_except_metadata(seed in 0u64..1_000_000) {
        for nm in corpus::corpus(5, 256, seed) {
            let rows = nm.matrix.num_rows() as u64;
            let nnz = nm.matrix.nnz() as u64;
            let csr = Workload::build(nm.matrix.clone(), FormatSpec::Csr, ReorderSpec::None);
            let sell = Workload::build(
                nm.matrix.clone(),
                FormatSpec::Sell { chunk_size: 1, sigma: 1 },
                ReorderSpec::None,
            );
            prop_assert_eq!(sell.x_refs(), csr.x_refs(), "C=1 must not pad {}", &nm.name);

            let c = count_trace(&csr);
            let s = count_trace(&sell);
            for array in [Array::A, Array::ColIdx, Array::X, Array::Y] {
                prop_assert_eq!(
                    s.counts[array as usize],
                    c.counts[array as usize],
                    "array {} count diverged on {}",
                    array.name(),
                    &nm.name
                );
            }
            prop_assert_eq!(c.counts[Array::RowPtr as usize], rows + 1);
            prop_assert_eq!(s.counts[Array::RowPtr as usize], rows);
            prop_assert_eq!(s.writes, c.writes);
            prop_assert_eq!(c.counts.iter().sum::<u64>(), 1 + 2 * rows + 3 * nnz);
            prop_assert_eq!(s.counts.iter().sum::<u64>(), 2 * rows + 3 * nnz);
        }
    }

    /// For general (C, σ) the only trace differences against CSR are the
    /// documented padding terms: the streamed arrays grow from `nnz` to
    /// `stored_entries()` references and the metadata shrinks to one
    /// descriptor per chunk; `x` gathers track the padded stream and `y`
    /// stays one store per row.
    #[test]
    fn sell_padding_terms_account_for_all_trace_growth(
        seed in 0u64..1_000_000,
        chunk in 1usize..32,
        sigma_mult in 1usize..8,
    ) {
        let nm = &corpus::corpus(3, 256, seed)[(seed % 3) as usize];
        let rows = nm.matrix.num_rows() as u64;
        let sell_m = sparsemat::SellMatrix::from_csr(&nm.matrix, chunk, chunk * sigma_mult);
        let stored = sell_m.stored_entries() as u64;
        let chunks = sell_m.num_chunks() as u64;
        prop_assert!(stored >= nm.matrix.nnz() as u64);

        let s = count_trace(&Workload::Sell(sell_m));
        prop_assert_eq!(s.counts[Array::A as usize], stored);
        prop_assert_eq!(s.counts[Array::ColIdx as usize], stored);
        prop_assert_eq!(s.counts[Array::X as usize], stored);
        prop_assert_eq!(s.counts[Array::Y as usize], rows);
        prop_assert_eq!(s.counts[Array::RowPtr as usize], chunks);
    }
}
