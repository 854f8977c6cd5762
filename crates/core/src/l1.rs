//! L1 cache-miss prediction (§4.5.4).
//!
//! The same reuse-distance machinery applied to the private L1D caches:
//! each thread's trace is processed against its own core's L1 capacity —
//! no interleaving, since L1s are private. The paper reports markedly
//! higher error here (≈ 8–15 %) than for the L2 because the A64FX L1 is
//! only 4-way associative, far from the fully associative LRU the model
//! assumes; the same gap appears against this repository's simulator.

use crate::analytic::{scale_s2, StreamTerms};
use crate::concurrent::{thread_partition, DomainCursors};
use crate::predict::Method;
use a64fx::MachineConfig;
use memtrace::SpmvWorkload;
use reuse::MarkerStack;
use sparsemat::CsrMatrix;

/// Predicts steady-state L1 misses (summed over all threads) for SpMV
/// without cache partitioning.
pub fn predict_l1_misses(
    matrix: &CsrMatrix,
    cfg: &MachineConfig,
    method: Method,
    threads: usize,
) -> u64 {
    assert!(threads >= 1, "need at least one thread");
    if matrix.nnz() == 0 {
        return 0;
    }
    let layout = matrix.layout(cfg.l1.line_bytes);
    let partition = thread_partition(matrix, threads);
    // One thread per "domain": each private L1 sees its own stream only.
    let per_thread = DomainCursors::new(matrix, &layout, &partition, 1);
    let l1_lines = cfg.l1.total_lines();

    match method {
        Method::A => private_misses(&per_thread, method, l1_lines),
        Method::B => {
            // x misses from the scaled x-trace distances; streamed arrays
            // never stay in a (tiny) L1 across their reuse, so they
            // contribute their full per-line terms.
            let s2 = scale_s2(matrix.num_rows(), matrix.nnz());
            let threshold = ((l1_lines as f64 / s2).floor() as usize).max(1);
            let terms = StreamTerms::of(matrix, cfg.l1.line_bytes);
            private_misses(&per_thread, method, threshold) + terms.total()
        }
    }
}

/// Measured-iteration misses of a fully associative LRU of `capacity`
/// lines per thread, summed over threads: each thread's method (A) or
/// (B) stream is replayed twice through its own stack — warm-up, counter
/// reset, measured.
fn private_misses(
    per_thread: &DomainCursors<'_, CsrMatrix>,
    method: Method,
    capacity: usize,
) -> u64 {
    (0..per_thread.num_domains())
        .map(|t| {
            let mut stack = MarkerStack::new(&[capacity]);
            let feed = |stack: &mut MarkerStack| match method {
                Method::A => per_thread.feed_spmv_blocks(t, stack),
                Method::B => per_thread.feed_x_blocks(t, stack),
            };
            feed(&mut stack);
            stack.reset_counters();
            feed(&mut stack);
            stack.misses(0)
        })
        .sum()
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

    #[test]
    fn predictions_are_positive_for_oversized_matrices() {
        let cfg = MachineConfig::a64fx_scaled(16);
        let m = random_matrix(20_000, 8, 3);
        let a = predict_l1_misses(&m, &cfg, Method::A, 1);
        let b = predict_l1_misses(&m, &cfg, Method::B, 1);
        assert!(a > 0);
        assert!(b > 0);
        // Both predictions at least cover the streamed matrix lines.
        let terms = StreamTerms::of(&m, cfg.l1.line_bytes);
        assert!(a >= terms.a + terms.colidx);
        assert!(b >= terms.a + terms.colidx);
    }

    #[test]
    fn methods_agree_within_a_factor() {
        let cfg = MachineConfig::a64fx_scaled(16);
        let m = random_matrix(20_000, 16, 7);
        let a = predict_l1_misses(&m, &cfg, Method::A, 1) as f64;
        let b = predict_l1_misses(&m, &cfg, Method::B, 1) as f64;
        let ratio = a.max(b) / a.min(b);
        assert!(ratio < 1.5, "A = {a}, B = {b}");
    }

    #[test]
    fn parallel_prediction_close_to_sequential_total() {
        // Private L1s: splitting rows across threads barely changes the sum
        // (only per-thread boundary lines differ).
        let cfg = MachineConfig::a64fx_scaled(16);
        let m = random_matrix(10_000, 8, 9);
        let seq = predict_l1_misses(&m, &cfg, Method::A, 1) as f64;
        let par = predict_l1_misses(&m, &cfg, Method::A, 8) as f64;
        assert!((par - seq).abs() / seq < 0.05, "seq {seq} par {par}");
    }

    #[test]
    fn empty_matrix_predicts_zero() {
        let cfg = MachineConfig::a64fx_scaled(16);
        let m = CooMatrix::new(4, 4).to_csr();
        assert_eq!(predict_l1_misses(&m, &cfg, Method::A, 1), 0);
        assert_eq!(predict_l1_misses(&m, &cfg, Method::B, 1), 0);
    }
}
