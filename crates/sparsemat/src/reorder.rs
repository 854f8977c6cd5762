//! (Reverse) Cuthill–McKee bandwidth-reducing reordering.
//!
//! The paper's §4.2 attributes part of the performance gap to Alappat et
//! al.'s use of RCM reordering, which improves the temporal locality of the
//! `x`-vector accesses by clustering nonzeros near the diagonal. The
//! Table 1 comparator applies this reordering; it is also exposed publicly
//! as a locality optimisation users can combine with the sector cache.

use crate::builder::CsrBuilder;
use crate::csr::CsrMatrix;

/// Computes the Cuthill–McKee ordering of a square matrix's symmetrised
/// adjacency structure.
///
/// Returns a permutation `perm` with `perm[new] = old`. Vertices are
/// visited breadth-first from a pseudo-peripheral vertex of each connected
/// component, neighbours in order of increasing degree.
///
/// # Panics
///
/// Panics if the matrix is not square.
pub fn cuthill_mckee(matrix: &CsrMatrix) -> Vec<usize> {
    assert_eq!(
        matrix.num_rows(),
        matrix.num_cols(),
        "Cuthill-McKee requires a square matrix"
    );
    let n = matrix.num_rows();
    let adj = symmetrized_adjacency(matrix);
    let degree: Vec<usize> = (0..n).map(|v| adj.row_nnz(v)).collect();

    let mut perm = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut neighbour_buf: Vec<usize> = Vec::new();

    // Process each connected component.
    for start_candidate in 0..n {
        if visited[start_candidate] {
            continue;
        }
        let start = pseudo_peripheral(&adj, &degree, start_candidate);
        let mut queue = std::collections::VecDeque::new();
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            perm.push(v);
            neighbour_buf.clear();
            for u in adj.row(v) {
                if !visited[u] {
                    visited[u] = true;
                    neighbour_buf.push(u);
                }
            }
            neighbour_buf.sort_unstable_by_key(|&u| degree[u]);
            queue.extend(neighbour_buf.iter().copied());
        }
    }
    debug_assert_eq!(perm.len(), n);
    perm
}

/// Computes the *Reverse* Cuthill–McKee ordering (`perm[new] = old`).
pub fn reverse_cuthill_mckee(matrix: &CsrMatrix) -> Vec<usize> {
    let mut perm = cuthill_mckee(matrix);
    perm.reverse();
    perm
}

/// Applies RCM to a square matrix, returning the reordered matrix.
pub fn rcm_reorder(matrix: &CsrMatrix) -> CsrMatrix {
    matrix.permute_symmetric(&reverse_cuthill_mckee(matrix))
}

/// Builds the pattern of `A + Aᵀ` without diagonal entries — the
/// undirected adjacency used for BFS orderings.
fn symmetrized_adjacency(matrix: &CsrMatrix) -> CsrMatrix {
    let n = matrix.num_rows();
    let transpose = matrix.transpose();
    let mut b = CsrBuilder::with_capacity(n, n, matrix.nnz() * 2);
    for r in 0..n {
        for c in matrix.row(r).chain(transpose.row(r)).filter(|&c| c != r) {
            b.push(c);
        }
        b.end_row();
    }
    b.finish()
}

/// Finds a pseudo-peripheral vertex of the component containing `start`
/// using the standard George–Liu iteration: repeated BFS, moving to a
/// minimum-degree vertex in the last (deepest) level until the eccentricity
/// stops growing.
fn pseudo_peripheral(adj: &CsrMatrix, degree: &[usize], start: usize) -> usize {
    let n = adj.num_rows();
    let mut current = start;
    let mut level = vec![usize::MAX; n];
    let mut last_ecc = 0usize;
    loop {
        // BFS from `current`.
        level.iter_mut().for_each(|l| *l = usize::MAX);
        level[current] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(current);
        let mut deepest = current;
        let mut ecc = 0usize;
        while let Some(v) = queue.pop_front() {
            for u in adj.row(v) {
                if level[u] == usize::MAX {
                    level[u] = level[v] + 1;
                    if level[u] > ecc || (level[u] == ecc && degree[u] < degree[deepest]) {
                        ecc = level[u];
                        deepest = u;
                    }
                    queue.push_back(u);
                }
            }
        }
        if ecc <= last_ecc {
            return current;
        }
        last_ecc = ecc;
        current = deepest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::stats::MatrixStats;

    /// Path graph 0-1-2-...-(n-1) but with shuffled labels.
    fn shuffled_path(n: usize, seed: u64) -> CsrMatrix {
        let mut labels: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            labels.swap(i, j);
        }
        let mut coo = CooMatrix::new(n, n);
        for v in 0..n {
            coo.push(v, v);
        }
        for w in labels.windows(2) {
            coo.push_symmetric(w[0], w[1]);
        }
        coo.to_csr()
    }

    #[test]
    fn perm_is_a_permutation() {
        let m = shuffled_path(50, 3);
        let perm = reverse_cuthill_mckee(&m);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_recovers_path_bandwidth() {
        // A path graph has optimal bandwidth 1; RCM must find it.
        let m = shuffled_path(64, 11);
        let before = MatrixStats::compute(&m).bandwidth;
        let reordered = rcm_reorder(&m);
        let after = MatrixStats::compute(&reordered).bandwidth;
        assert!(after <= before);
        assert_eq!(after, 1, "RCM should recover bandwidth 1 on a path");
    }

    #[test]
    fn rcm_reduces_bandwidth_on_random_banded() {
        let m = shuffled_path(200, 12345);
        let perm = reverse_cuthill_mckee(&m);
        let permuted = MatrixStats::compute(&m.permute_symmetric(&perm));
        assert!(permuted.bandwidth < MatrixStats::compute(&m).bandwidth);
    }

    #[test]
    fn handles_disconnected_components() {
        // Two disjoint edges plus an isolated vertex.
        let mut coo = CooMatrix::new(5, 5);
        coo.push_symmetric(0, 1);
        coo.push_symmetric(2, 3);
        for v in 0..5 {
            coo.push(v, v);
        }
        let m = coo.to_csr();
        let perm = reverse_cuthill_mckee(&m);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn rcm_permutes_the_pattern() {
        let m = shuffled_path(30, 77);
        let perm = reverse_cuthill_mckee(&m);
        let pm = m.permute_symmetric(&perm);
        let mut inv = vec![0; 30];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        // (i, j) ∈ A ⇔ (inv[i], inv[j]) ∈ P A Pᵀ.
        assert_eq!(pm.nnz(), m.nnz());
        for i in 0..30 {
            for j in 0..30 {
                assert_eq!(m.contains(i, j), pm.contains(inv[i], inv[j]), "({i}, {j})");
            }
        }
    }

    #[test]
    fn empty_matrix_ok() {
        let m = CooMatrix::new(0, 0).to_csr();
        assert!(reverse_cuthill_mckee(&m).is_empty());
    }
}
