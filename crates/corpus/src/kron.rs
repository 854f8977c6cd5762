//! R-MAT (recursive-matrix, Kronecker-like) graph generator.
//!
//! Produces the skewed, community-structured adjacency patterns of real
//! graph workloads (`kkt_power`-like optimisation graphs, social/road
//! networks) that stress `x`-vector locality differently from both the
//! uniform generator (no structure at all) and the banded families
//! (strong structure): R-MAT patterns have localised dense blocks at all
//! scales plus heavy-tailed degrees.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sparsemat::{CooMatrix, CsrMatrix};

/// R-MAT parameters: quadrant probabilities (must sum to ~1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    /// Top-left (both endpoints in the low half).
    pub a: f64,
    /// Top-right.
    pub b: f64,
    /// Bottom-left.
    pub c: f64,
}

impl RmatParams {
    /// The classic skewed setting (a=0.57, b=c=0.19, d=0.05).
    pub fn graph500() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }

    /// A mildly skewed setting producing less extreme hubs.
    pub fn mild() -> Self {
        RmatParams {
            a: 0.45,
            b: 0.22,
            c: 0.22,
        }
    }
}

/// Generates an R-MAT matrix of order `2^scale` with ~`edges` nonzeros
/// (duplicates merge, so the final count is slightly lower), plus a unit
/// diagonal.
pub fn rmat(scale: u32, edges: usize, params: RmatParams, seed: u64) -> CsrMatrix {
    assert!((1..31).contains(&scale), "scale out of range");
    let n = 1usize << scale;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, edges + n);
    for v in 0..n {
        coo.push(v, v);
    }
    for _ in 0..edges {
        let (mut r, mut c) = (0usize, 0usize);
        for level in (0..scale).rev() {
            let bit = 1usize << level;
            let u: f64 = rng.gen();
            if u < params.a {
                // top-left: nothing set
            } else if u < params.a + params.b {
                c |= bit;
            } else if u < params.a + params.b + params.c {
                r |= bit;
            } else {
                r |= bit;
                c |= bit;
            }
        }
        coo.push(r, c);
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::MatrixStats;

    #[test]
    fn dimensions_and_nnz() {
        let m = rmat(10, 8192, RmatParams::graph500(), 42);
        assert_eq!(m.num_rows(), 1024);
        assert_eq!(m.num_cols(), 1024);
        // Diagonal plus merged edges.
        assert!(m.nnz() > 1024 + 6000);
        assert!(m.nnz() <= 1024 + 8192);
    }

    #[test]
    fn graph500_is_heavily_skewed() {
        let m = rmat(11, 20_000, RmatParams::graph500(), 7);
        let s = MatrixStats::compute(&m);
        assert!(
            s.row_nnz_max as f64 > 10.0 * s.row_nnz_mean,
            "expected hubs: max {} mean {}",
            s.row_nnz_max,
            s.row_nnz_mean
        );
        assert!(s.row_nnz_cv > 1.0, "CV = {}", s.row_nnz_cv);
    }

    #[test]
    fn mild_is_less_skewed_than_graph500() {
        let hub = rmat(11, 20_000, RmatParams::graph500(), 3);
        let mild = rmat(11, 20_000, RmatParams::mild(), 3);
        let s_hub = MatrixStats::compute(&hub);
        let s_mild = MatrixStats::compute(&mild);
        assert!(s_mild.row_nnz_cv < s_hub.row_nnz_cv);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            rmat(8, 1000, RmatParams::mild(), 5),
            rmat(8, 1000, RmatParams::mild(), 5)
        );
        assert_ne!(
            rmat(8, 1000, RmatParams::mild(), 5),
            rmat(8, 1000, RmatParams::mild(), 6)
        );
    }

    #[test]
    fn diagonal_always_present() {
        let m = rmat(7, 300, RmatParams::graph500(), 9);
        for r in 0..m.num_rows() {
            assert!(m.contains(r, r), "row {r} lost its diagonal");
        }
    }
}
