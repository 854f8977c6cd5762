//! Two-level model extension: L1-filtered L2 reuse-distance analysis.
//!
//! The paper's model feeds the *full* reference stream to the L2 stack,
//! implicitly treating the hierarchy as inclusive and L1-transparent. The
//! real L2 only sees L1 *misses*. For SpMV the two usually coincide —
//! repeated touches within one cache line are absorbed by the L1 in both
//! views — but matrices with short-range `x` reuse straddling the L1
//! capacity can differ. This module implements the filtered variant as an
//! ablation: each thread's references first pass through a private
//! fully associative LRU of the L1's line capacity, and only the misses
//! reach the shared-L2 analysis.

use crate::concurrent::{thread_partition, DomainTraces};
use crate::predict::{Method, Prediction, SectorSetting};
use crate::profile::ProfileBuilder;
use a64fx::MachineConfig;
use memtrace::{Access, PackedAccess, SpmvWorkload, TraceCursor, VecSink};
use reuse::ExactStack;
use sparsemat::CsrMatrix;

/// Filters a per-thread trace through a private fully associative LRU of
/// `l1_lines` lines, keeping only the L1 misses.
///
/// The filter state persists across the returned trace's reuse (warm-up
/// then measurement replays both see a warm L1), matching steady-state
/// iterative SpMV: the filter is warmed with one full pass first.
pub fn l1_filter(trace: &[Access], l1_lines: usize) -> Vec<Access> {
    let mut stack = ExactStack::new();
    // Warm-up pass: establish steady-state L1 contents.
    for a in trace {
        stack.touch(a.line);
    }
    let mut out = Vec::new();
    for a in trace {
        let miss = match stack.access(a.line) {
            Some(d) => d >= l1_lines as u64,
            None => true,
        };
        if miss {
            out.push(*a);
        }
    }
    out
}

/// Method (A) with per-thread L1 filtering before the shared-L2 analysis.
///
/// Each domain's round-robin interleaving of its threads' filtered
/// traces is recorded once and profiled by the marker pass of
/// [`ProfileBuilder`]'s buffered branch over every capacity `settings`
/// query, so Eq. (2) is evaluated by the same
/// [`LocalityProfile`](crate::profile::LocalityProfile) code as
/// the unfiltered model.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn predict_filtered(
    matrix: &CsrMatrix,
    cfg: &MachineConfig,
    settings: &[SectorSetting],
    threads: usize,
) -> Vec<Prediction> {
    let builder = ProfileBuilder::for_sweep(matrix, cfg, Method::A, threads, settings);
    let layout = matrix.layout(cfg.l2.line_bytes);
    // The L1-filtered stream is inherently buffered: each thread's trace
    // is drained from its cursor and filtered before the interleaving.
    let per_thread: Vec<Vec<Access>> = thread_partition(matrix, threads)
        .iter()
        .map(|rows| {
            let mut cursor = matrix.trace_cursor(&layout, rows);
            let mut trace = VecSink::with_capacity(cursor.remaining());
            cursor.drain_into(&mut trace);
            l1_filter(&trace.trace, cfg.l1.total_lines())
        })
        .collect();
    let domains = DomainTraces::group(per_thread, cfg.cores_per_domain);
    let partials = (0..domains.num_domains())
        .map(|d| {
            let mut stream = Vec::new();
            domains.feed_domain(d, &mut stream);
            builder.buffered_partial(stream.into_iter().map(PackedAccess::pack).collect())
        })
        .collect();
    builder.finish(partials).evaluate(cfg, settings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::predict;
    use memtrace::{Array, ArraySet};
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

    #[test]
    fn filter_removes_short_distance_reuse() {
        let trace: Vec<Access> = [1u64, 2, 1, 2, 50, 1]
            .iter()
            .map(|&l| Access::load(l, Array::X))
            .collect();
        // L1 of 2 lines. After the warm-up pass the LRU stack is [1,50,2].
        // Measured pass: 1 (d=0, hit), 2 (d=2, miss), 1 (d=1, hit),
        // 2 (d=1, hit), 50 (d=2, miss), 1 (d=2, miss).
        let filtered = l1_filter(&trace, 2);
        let lines: Vec<u64> = filtered.iter().map(|a| a.line).collect();
        assert_eq!(lines, vec![2, 50, 1]);
    }

    #[test]
    fn filter_with_huge_l1_removes_everything() {
        let m = random_matrix(128, 4, 3);
        let layout = m.layout(memtrace::A64FX_LINE_BYTES);
        let mut sink = memtrace::VecSink::new();
        memtrace::spmv_trace::trace_spmv(&m, &layout, &mut sink);
        let filtered = l1_filter(&sink.trace, 1 << 20);
        assert!(
            filtered.is_empty(),
            "warm, giant L1 absorbs all steady-state reuse"
        );
    }

    #[test]
    fn filter_with_one_line_keeps_nearly_everything() {
        let m = random_matrix(128, 4, 3);
        let layout = m.layout(memtrace::A64FX_LINE_BYTES);
        let mut sink = memtrace::VecSink::new();
        memtrace::spmv_trace::trace_spmv(&m, &layout, &mut sink);
        let filtered = l1_filter(&sink.trace, 1);
        // Only immediate same-line repeats are absorbed.
        assert!(filtered.len() > sink.trace.len() / 3);
    }

    #[test]
    fn filtered_prediction_close_to_unfiltered_for_spmv() {
        // For SpMV's access structure the L1 absorbs intra-line reuse that
        // the L2 stack would also classify as hits, so the two variants
        // agree closely (this is why the paper's single-level model works).
        let m = random_matrix(4096, 12, 9);
        let cfg = MachineConfig::a64fx_scaled(64);
        let settings = [SectorSetting::Off, SectorSetting::L2Ways(5)];
        let plain = predict(&m, &cfg, Method::A, &settings, 1);
        let filtered = predict_filtered(&m, &cfg, &settings, 1);
        for (p, f) in plain.iter().zip(&filtered) {
            let rel = (p.l2_misses as f64 - f.l2_misses as f64).abs() / p.l2_misses.max(1) as f64;
            assert!(
                rel < 0.05,
                "{:?}: plain {} vs filtered {}",
                p.setting,
                p.l2_misses,
                f.l2_misses
            );
        }
    }

    #[test]
    fn filtered_matches_lru_simulator() {
        // The filtered model mirrors the simulator's actual request flow
        // (L2 sees only L1 misses); under LRU + no prefetch they agree.
        use a64fx::{simulate_spmv, PrefetchConfig, Replacement};
        let m = random_matrix(4096, 8, 21);
        let mut cfg = MachineConfig::a64fx_scaled(64).with_prefetch(PrefetchConfig::off());
        cfg.replacement = Replacement::Lru;
        let pred = predict_filtered(&m, &cfg, &[SectorSetting::Off], 1);
        let sim = simulate_spmv(&m, &cfg, ArraySet::EMPTY, 1, 1);
        let rel = (pred[0].l2_misses as f64 - sim.pmu.l2_misses() as f64).abs()
            / sim.pmu.l2_misses().max(1) as f64;
        assert!(
            rel < 0.08,
            "filtered model {} vs simulator {}",
            pred[0].l2_misses,
            sim.pmu.l2_misses()
        );
    }
}
