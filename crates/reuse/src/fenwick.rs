//! Fenwick tree (binary indexed tree) over integer counts.
//!
//! Backs the exact stack-distance processor: one slot per trace position,
//! holding 1 while that position is the *most recent* access to its cache
//! line. The number of distinct lines accessed between two trace positions
//! is then a range sum.

/// A Fenwick tree over `len` slots of `u64` counts.
#[derive(Clone, Debug)]
pub struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    /// Creates a zeroed tree with `len` slots (indices `0..len`).
    pub fn new(len: usize) -> Self {
        Fenwick {
            tree: vec![0; len + 1],
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Returns `true` if the tree has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `delta` to slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` (in debug builds via indexing).
    pub fn add(&mut self, i: usize, delta: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u64);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of slots `0..=i`.
    ///
    /// `i` must be a valid slot index (`i < len`). Debug builds assert
    /// this; release builds clamp to the last slot, returning the total —
    /// out-of-range queries are a caller bug, and the clamp merely keeps
    /// the answer monotone instead of panicking mid-experiment.
    pub fn prefix_sum(&self, i: usize) -> u64 {
        debug_assert!(
            i < self.len(),
            "prefix_sum index {i} out of range for {} slots",
            self.len()
        );
        let mut i = (i + 1).min(self.tree.len() - 1);
        let mut sum = 0u64;
        while i > 0 {
            sum = sum.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Sum of slots in `range` (half-open).
    pub fn range_sum(&self, range: std::ops::Range<usize>) -> u64 {
        if range.is_empty() {
            return 0;
        }
        let hi = self.prefix_sum(range.end - 1);
        let lo = if range.start == 0 {
            0
        } else {
            self.prefix_sum(range.start - 1)
        };
        hi.wrapping_sub(lo)
    }

    /// Sum of all slots.
    pub fn total(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.prefix_sum(self.len() - 1)
        }
    }

    /// Sets slots `0..n` of a zeroed tree to 1 in O(n + log len) — the
    /// bulk form of `n` calls to `add(i, 1)`. Node `i` (1-based) covers
    /// slots `(i - lowbit(i), i]`: nodes up to `n` cover only set slots,
    /// and the nodes above `n` that cover some set slot are exactly the
    /// ones whose range contains `n`, i.e. the update path of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`. Debug builds also assert the tree is zeroed.
    pub fn fill_prefix_ones(&mut self, n: usize) {
        assert!(n <= self.len(), "{n} ones exceed {} slots", self.len());
        debug_assert_eq!(self.total(), 0, "fill_prefix_ones needs a zeroed tree");
        for (i, node) in self.tree.iter_mut().enumerate().take(n + 1).skip(1) {
            *node = (i & i.wrapping_neg()) as u64;
        }
        if n == 0 {
            return;
        }
        let mut i = n + (n & n.wrapping_neg());
        while i < self.tree.len() {
            let low = i & i.wrapping_neg();
            self.tree[i] = (n - (i - low)) as u64;
            i += low;
        }
    }

    /// Grows the tree to at least `new_len` slots, preserving contents.
    pub fn grow(&mut self, new_len: usize) {
        if new_len <= self.len() {
            return;
        }
        // Rebuild from per-slot values (O(n log n), amortised by doubling).
        let mut values = vec![0i64; new_len];
        for (i, v) in values.iter_mut().enumerate().take(self.len()) {
            *v = self.range_sum(i..i + 1) as i64;
        }
        let mut fresh = Fenwick::new(new_len);
        for (i, &v) in values.iter().enumerate() {
            if v != 0 {
                fresh.add(i, v);
            }
        }
        *self = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_prefix_sums() {
        let mut f = Fenwick::new(10);
        f.add(0, 1);
        f.add(3, 2);
        f.add(9, 5);
        assert_eq!(f.prefix_sum(0), 1);
        assert_eq!(f.prefix_sum(2), 1);
        assert_eq!(f.prefix_sum(3), 3);
        assert_eq!(f.prefix_sum(9), 8);
        assert_eq!(f.total(), 8);
    }

    #[test]
    fn range_sums() {
        let mut f = Fenwick::new(8);
        for i in 0..8 {
            f.add(i, 1);
        }
        assert_eq!(f.range_sum(0..8), 8);
        assert_eq!(f.range_sum(2..5), 3);
        assert_eq!(f.range_sum(4..4), 0);
        assert_eq!(f.range_sum(7..8), 1);
    }

    #[test]
    fn negative_deltas_remove() {
        let mut f = Fenwick::new(4);
        f.add(1, 1);
        f.add(2, 1);
        f.add(1, -1);
        assert_eq!(f.total(), 1);
        assert_eq!(f.range_sum(1..2), 0);
        assert_eq!(f.range_sum(2..3), 1);
    }

    #[test]
    fn grow_preserves_contents() {
        let mut f = Fenwick::new(4);
        f.add(0, 3);
        f.add(3, 1);
        f.grow(16);
        assert_eq!(f.len(), 16);
        assert_eq!(f.range_sum(0..1), 3);
        assert_eq!(f.range_sum(3..4), 1);
        assert_eq!(f.total(), 4);
        f.add(15, 2);
        assert_eq!(f.total(), 6);
    }

    #[test]
    fn fill_prefix_ones_matches_repeated_adds() {
        for len in [0usize, 1, 2, 7, 8, 9, 33, 64] {
            for n in 0..=len {
                let mut bulk = Fenwick::new(len);
                bulk.fill_prefix_ones(n);
                let mut adds = Fenwick::new(len);
                for i in 0..n {
                    adds.add(i, 1);
                }
                assert_eq!(bulk.tree, adds.tree, "len {len} n {n}");
            }
        }
    }

    #[test]
    fn empty_tree() {
        let f = Fenwick::new(0);
        assert!(f.is_empty());
        assert_eq!(f.total(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn prefix_sum_out_of_range_asserts_in_debug() {
        let f = Fenwick::new(4);
        f.prefix_sum(4);
    }

    #[test]
    fn prefix_sum_last_slot_equals_total() {
        // The documented release-mode clamp target: the last valid index
        // must already cover the whole tree.
        let mut f = Fenwick::new(6);
        f.add(0, 2);
        f.add(5, 3);
        assert_eq!(f.prefix_sum(5), f.total());
    }

    #[test]
    fn matches_naive_prefix_sums() {
        // Deterministic pseudo-random adds compared against a plain array.
        let mut f = Fenwick::new(64);
        let mut naive = [0i64; 64];
        let mut state = 12345u64;
        for _ in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (state >> 33) as usize % 64;
            let delta = ((state >> 20) % 7) as i64 - 3;
            f.add(i, delta);
            naive[i] += delta;
        }
        let mut acc = 0i64;
        for (i, &n) in naive.iter().enumerate() {
            acc += n;
            assert_eq!(f.prefix_sum(i), acc as u64, "prefix {i}");
        }
    }
}
