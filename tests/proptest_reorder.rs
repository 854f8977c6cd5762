//! Property-based tests of RCM reordering over the corpus generators:
//! the permuted matrix is the same pattern under relabelling, so nnz,
//! pattern symmetry and `(i, j) ∈ A ⇔ (inv[i], inv[j]) ∈ P A Pᵀ` all hold
//! on every structural family the evaluation corpus draws from.

use proptest::prelude::*;
use sparsemat::{reorder, CsrMatrix};
use std::collections::HashSet;

/// The sparsity pattern as a set of `(row, col)` coordinates.
fn pattern(a: &CsrMatrix) -> HashSet<(usize, usize)> {
    (0..a.num_rows())
        .flat_map(|r| a.row(r).map(move |c| (r, c)))
        .collect()
}

/// Whether the pattern is structurally symmetric.
fn pattern_symmetric(a: &CsrMatrix) -> bool {
    let p = pattern(a);
    p.iter().all(|&(r, c)| p.contains(&(c, r)))
}

/// Checks every RCM invariant on one matrix.
fn check_rcm_invariants(a: &CsrMatrix, name: &str) {
    let perm = reorder::reverse_cuthill_mckee(a);
    let pm = a.permute_symmetric(&perm);
    prop_assert_eq!(
        &pm,
        &reorder::rcm_reorder(a),
        "rcm_reorder must equal permute_symmetric(reverse_cuthill_mckee) on {}",
        name
    );

    // Same pattern size and shape.
    prop_assert_eq!(pm.nnz(), a.nnz(), "nnz changed on {}", name);
    prop_assert_eq!(pm.num_rows(), a.num_rows());
    prop_assert_eq!(pm.num_cols(), a.num_cols());

    // A symmetric permutation relabels rows and columns together, so
    // structural symmetry is invariant either way.
    prop_assert_eq!(
        pattern_symmetric(&pm),
        pattern_symmetric(a),
        "pattern symmetry changed on {}",
        name
    );

    // The permuted pattern is exactly the relabelled original pattern:
    // (i, j) ∈ A ⇔ (inv[i], inv[j]) ∈ P A Pᵀ.
    let mut inv = vec![0usize; a.num_rows()];
    for (new, &old) in perm.iter().enumerate() {
        inv[old] = new;
    }
    let relabelled: HashSet<(usize, usize)> = pattern(a)
        .into_iter()
        .map(|(r, c)| (inv[r], inv[c]))
        .collect();
    prop_assert_eq!(
        pattern(&pm),
        relabelled,
        "pattern not relabelled on {}",
        name
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All RCM invariants hold on every structural family of the
    /// evaluation corpus, for arbitrary corpus seeds.
    #[test]
    fn rcm_invariants_hold_on_corpus_generators(seed in 0u64..1_000_000) {
        for nm in corpus::corpus(7, 256, seed) {
            check_rcm_invariants(&nm.matrix, &nm.name);
        }
    }

    /// Same invariants on the dedicated generators the suite composes
    /// (banded and tridiagonal-plus-random reach patterns the mixed
    /// corpus may sample thinly).
    #[test]
    fn rcm_invariants_hold_on_banded_generators(
        n in 16usize..400,
        band in 1usize..32,
        per_row in 1usize..8,
        seed in 0u64..100_000,
    ) {
        let banded = corpus::banded::random_banded(n, band.min(n - 1), per_row, seed);
        check_rcm_invariants(&banded, "random_banded");
        let tri = corpus::banded::tridiag_plus_random(n, per_row, seed);
        check_rcm_invariants(&tri, "tridiag_plus_random");
    }
}
