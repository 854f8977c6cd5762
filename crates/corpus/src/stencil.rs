//! Structured-grid (stencil) matrix generators.
//!
//! Discretised Laplacians on 2-D and 3-D grids: the archetypal
//! well-structured sparse matrices (narrow effective bandwidth, uniform
//! rows), standing in for the PDE-derived part of SuiteSparse
//! (`G3_circuit`-like grids, `nlpkkt`-like structured KKT systems).

use sparsemat::{CsrBuilder, CsrMatrix};

/// 5-point Laplacian on an `nx`-by-`ny` grid (matrix order `nx*ny`).
pub fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
    let n = nx * ny;
    let mut b = CsrBuilder::with_capacity(n, n, 5 * n);
    let idx = |i: usize, j: usize| i * ny + j;
    for i in 0..nx {
        for j in 0..ny {
            let r = idx(i, j);
            b.push(r);
            if i > 0 {
                b.push(idx(i - 1, j));
            }
            if i + 1 < nx {
                b.push(idx(i + 1, j));
            }
            if j > 0 {
                b.push(idx(i, j - 1));
            }
            if j + 1 < ny {
                b.push(idx(i, j + 1));
            }
            b.end_row();
        }
    }
    b.finish()
}

/// 7-point Laplacian on an `nx`-by-`ny`-by-`nz` grid.
pub fn laplacian_3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    let n = nx * ny * nz;
    let mut b = CsrBuilder::with_capacity(n, n, 7 * n);
    let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let r = idx(i, j, k);
                b.push(r);
                if i > 0 {
                    b.push(idx(i - 1, j, k));
                }
                if i + 1 < nx {
                    b.push(idx(i + 1, j, k));
                }
                if j > 0 {
                    b.push(idx(i, j - 1, k));
                }
                if j + 1 < ny {
                    b.push(idx(i, j + 1, k));
                }
                if k > 0 {
                    b.push(idx(i, j, k - 1));
                }
                if k + 1 < nz {
                    b.push(idx(i, j, k + 1));
                }
                b.end_row();
            }
        }
    }
    b.finish()
}

/// 27-point stencil on an `nx`-by-`ny`-by-`nz` grid (dense 3×3×3
/// neighbourhood), a `bone010`/`audikw`-like heavy FEM pattern.
pub fn stencil_3d_27pt(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    let n = nx * ny * nz;
    let mut b = CsrBuilder::with_capacity(n, n, 27 * n);
    let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                for di in -1i64..=1 {
                    for dj in -1i64..=1 {
                        for dk in -1i64..=1 {
                            let (ii, jj, kk) = (i as i64 + di, j as i64 + dj, k as i64 + dk);
                            if ii >= 0
                                && jj >= 0
                                && kk >= 0
                                && (ii as usize) < nx
                                && (jj as usize) < ny
                                && (kk as usize) < nz
                            {
                                b.push(idx(ii as usize, jj as usize, kk as usize));
                            }
                        }
                    }
                }
                b.end_row();
            }
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::MatrixStats;

    #[test]
    fn laplacian_2d_structure() {
        let m = laplacian_2d(4, 5);
        assert_eq!(m.num_rows(), 20);
        // n diagonal entries plus two per grid edge:
        // horizontal edges nx*(ny-1) = 16, vertical (nx-1)*ny = 15.
        assert_eq!(m.nnz(), 20 + 2 * (16 + 15));
        // Corner (0,0): itself and its two grid neighbours.
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![0, 1, 5]);
        assert!(m.contains(1, 0));
    }

    #[test]
    fn laplacian_2d_interior_row_is_a_five_point_stencil() {
        let m = laplacian_2d(5, 5);
        // Interior row (2,2) -> r = 12: itself and its four neighbours.
        assert_eq!(m.row(12).collect::<Vec<_>>(), vec![7, 11, 12, 13, 17]);
    }

    #[test]
    fn laplacian_3d_structure() {
        let m = laplacian_3d(3, 3, 3);
        assert_eq!(m.num_rows(), 27);
        // Centre point has full 7-point stencil.
        assert_eq!(m.row_nnz(13), 7);
        assert_eq!(
            m.row(13).collect::<Vec<_>>(),
            vec![4, 10, 12, 13, 14, 16, 22]
        );
        let s = MatrixStats::compute(&m);
        assert!(s.bandwidth <= 9); // ny * nz
    }

    #[test]
    fn stencil_27pt_centre_row() {
        let m = stencil_3d_27pt(3, 3, 3);
        assert_eq!(m.row_nnz(13), 27);
        assert_eq!(m.row(13).collect::<Vec<_>>(), (0..27).collect::<Vec<_>>());
        // Corner has a 2x2x2 neighbourhood.
        assert_eq!(m.row_nnz(0), 8);
    }

    #[test]
    fn stencils_are_symmetric_patterns() {
        let m = laplacian_3d(4, 3, 2);
        let t = m.transpose();
        assert_eq!(m, t);
    }
}
