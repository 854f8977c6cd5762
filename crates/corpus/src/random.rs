//! Unstructured random matrix generators.
//!
//! Uniform (Erdős–Rényi-style) patterns model the worst case for
//! `x`-vector locality (`kkt_power`/`delaunay`-like irregularity); the
//! Zipf-column power-law generator models scale-free structures with a few
//! very hot columns and a heavy-tailed row-length distribution
//! (`bundle_adj`-like), which is exactly the regime where method (B)'s
//! average-based scaling degrades (§4.5.2).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sparsemat::{CsrBuilder, CsrMatrix};

/// Uniform random square matrix: each row draws `nnz_per_row` columns
/// uniformly (duplicates merged, so rows may end up slightly shorter).
/// A unit diagonal is always included to keep the matrix structurally
/// nonsingular.
pub fn uniform_random(n: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = CsrBuilder::with_capacity(n, n, n * (nnz_per_row + 1));
    for r in 0..n {
        b.push(r);
        for _ in 0..nnz_per_row {
            b.push(rng.gen_range(0..n));
        }
        b.end_row();
    }
    b.finish()
}

/// Power-law matrix: row lengths follow a truncated Pareto distribution
/// with the given mean, and columns are drawn Zipf-like (column `c` with
/// probability ∝ `1 / (c + 1)^alpha` under a random column permutation, so
/// the hot columns are scattered). `alpha` in `[0, 1.5]`; 0 degenerates to
/// uniform.
pub fn power_law(n: usize, mean_nnz_per_row: usize, alpha: f64, seed: u64) -> CsrMatrix {
    assert!(n > 0, "matrix must be non-empty");
    let mut rng = SmallRng::seed_from_u64(seed);
    // Random permutation so hot columns are not contiguous.
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    let mut b = CsrBuilder::with_capacity(n, n, n * (mean_nnz_per_row + 1));
    for r in 0..n {
        b.push(r);
        // Pareto-ish row length with mean `mean_nnz_per_row`: draw from a
        // geometric-like heavy tail, capped at 16x the mean.
        let u: f64 = rng.gen_range(1e-6..1.0f64);
        let len = ((mean_nnz_per_row as f64 * 0.5) / u.powf(0.5))
            .min(16.0 * mean_nnz_per_row as f64) as usize;
        for _ in 0..len {
            let c = zipf_like(&mut rng, n, alpha);
            b.push(perm[c] as usize);
        }
        b.end_row();
    }
    b.finish()
}

/// Draws an index in `0..n` with probability ∝ `1/(i+1)^alpha` using
/// inverse-CDF on the continuous approximation.
fn zipf_like(rng: &mut SmallRng, n: usize, alpha: f64) -> usize {
    if alpha <= f64::EPSILON {
        return rng.gen_range(0..n);
    }
    let u: f64 = rng.gen_range(0.0..1.0);
    if (alpha - 1.0).abs() < 1e-9 {
        // CDF ~ ln(1 + x) / ln(1 + n).
        let x = ((1.0 + n as f64).powf(u) - 1.0).floor() as usize;
        x.min(n - 1)
    } else {
        // CDF ~ ((1+x)^(1-a) - 1) / ((1+n)^(1-a) - 1).
        let p = 1.0 - alpha;
        let x = ((u * ((1.0 + n as f64).powf(p) - 1.0) + 1.0).powf(1.0 / p) - 1.0).floor();
        (x as usize).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::MatrixStats;

    #[test]
    fn uniform_random_shape() {
        let m = uniform_random(500, 8, 42);
        assert_eq!(m.num_rows(), 500);
        // Duplicates merge, so nnz is close to but at most n * 9.
        assert!(m.nnz() <= 500 * 9);
        assert!(m.nnz() > 500 * 7);
        // Diagonal present everywhere.
        for r in [0, 250, 499] {
            assert!(m.contains(r, r));
        }
    }

    #[test]
    fn uniform_random_is_deterministic_per_seed() {
        let a = uniform_random(200, 5, 7);
        let b = uniform_random(200, 5, 7);
        let c = uniform_random(200, 5, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_random_has_large_bandwidth() {
        let s = MatrixStats::compute(&uniform_random(1000, 6, 3));
        assert!(s.bandwidth > 500, "uniform columns should span the matrix");
    }

    #[test]
    fn power_law_rows_are_skewed() {
        let m = power_law(2000, 10, 1.0, 11);
        let s = MatrixStats::compute(&m);
        // Heavy tail: max row much longer than the mean, CV noticeable.
        assert!(s.row_nnz_max as f64 > 4.0 * s.row_nnz_mean);
        assert!(s.row_nnz_cv > 0.5, "CV = {}", s.row_nnz_cv);
    }

    #[test]
    fn power_law_columns_are_skewed() {
        let m = power_law(2000, 10, 1.0, 13);
        // Count column frequencies via the transpose's row lengths.
        let t = m.transpose();
        let s = MatrixStats::compute(&t);
        assert!(
            s.row_nnz_max as f64 > 10.0 * s.row_nnz_mean,
            "hot columns expected: max {} mean {}",
            s.row_nnz_max,
            s.row_nnz_mean
        );
    }

    #[test]
    fn zero_alpha_degenerates_to_uniform() {
        let m = power_law(800, 6, 0.0, 17);
        let t = m.transpose();
        let s = MatrixStats::compute(&t);
        // No hot columns: max column count within a small factor of mean.
        assert!((s.row_nnz_max as f64) < 8.0 * s.row_nnz_mean.max(1.0));
    }
}
