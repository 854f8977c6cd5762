//! Fenwick tree (binary indexed tree) over a set of 0/1 slots.
//!
//! Backs the exact stack-distance processor: one slot per stamp of its
//! time window, set while that stamp is the *most recent* access to its
//! cache line. The number of distinct lines accessed since a stamp is
//! then the held line count minus a prefix count.
//!
//! The slots live in a bitmap and the tree runs over per-word counts: a
//! prefix count is one masked popcount plus a walk over `len / 64`
//! words, six levels shorter than a tree over the slots themselves, and
//! the whole structure takes about 1.1 bits per slot, so the exact
//! stack's hottest data stays cache-resident.

/// A Fenwick tree over `len` slots that are each set or clear.
#[derive(Clone, Debug)]
pub struct Fenwick {
    /// Slot `i` is bit `i % 64` of word `i / 64`.
    bits: Vec<u64>,
    /// 1-based Fenwick tree over the set-bit counts of `bits`' words;
    /// every count is at most `len`, which the exact stack keeps within
    /// `u32`.
    tree: Vec<u32>,
    len: usize,
}

impl Fenwick {
    /// Creates a tree with `len` slots (indices `0..len`), all clear.
    pub fn new(len: usize) -> Self {
        let words = len.div_ceil(64);
        Fenwick {
            bits: vec![0; words],
            tree: vec![0; words + 1],
            len,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets slot `i`, which must be clear (asserted in debug builds).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` rounded up to a whole word.
    #[inline]
    pub fn set(&mut self, i: usize) {
        let bit = 1u64 << (i % 64);
        debug_assert!(self.bits[i / 64] & bit == 0, "slot {i} already set");
        self.bits[i / 64] |= bit;
        let mut w = i / 64 + 1;
        while w < self.tree.len() {
            self.tree[w] += 1;
            w += w & w.wrapping_neg();
        }
    }

    /// Clears slot `i`, which must be set (asserted in debug builds).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` rounded up to a whole word.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        let bit = 1u64 << (i % 64);
        debug_assert!(self.bits[i / 64] & bit != 0, "slot {i} not set");
        self.bits[i / 64] &= !bit;
        let mut w = i / 64 + 1;
        while w < self.tree.len() {
            self.tree[w] -= 1;
            w += w & w.wrapping_neg();
        }
    }

    /// Number of set slots in `0..=i`.
    ///
    /// # Panics
    ///
    /// Debug builds assert `i < len`; release builds panic only past the
    /// last word.
    #[inline]
    pub fn prefix_sum(&self, i: usize) -> u64 {
        debug_assert!(
            i < self.len,
            "prefix_sum index {i} out of range for {} slots",
            self.len
        );
        let mut w = i / 64;
        let in_word = self.bits[w] & (u64::MAX >> (63 - i % 64));
        let mut sum = u64::from(in_word.count_ones());
        while w > 0 {
            sum += u64::from(self.tree[w]);
            w -= w & w.wrapping_neg();
        }
        sum
    }

    /// A rank function for the current slots: `rank(i)` is the number
    /// of set slots in `0..i`. Built in one pass over the words (a
    /// `u32` per word), each query is then one masked popcount — how the
    /// exact stack renumbers its live stamps when its window compacts.
    ///
    /// The returned closure panics for `i` past the last word.
    pub fn ranks(&self) -> impl Fn(usize) -> u32 + '_ {
        let below: Vec<u32> = self
            .bits
            .iter()
            .scan(0u32, |acc, word| {
                let before = *acc;
                *acc += word.count_ones();
                Some(before)
            })
            .collect();
        move |i| below[i / 64] + (self.bits[i / 64] & ((1u64 << (i % 64)) - 1)).count_ones()
    }

    /// Overwrites the tree so that slots `0..n` are set and the rest
    /// clear, in one pass and without reallocating. Tree node `w`
    /// (1-based) counts the words `(w - lowbit(w), w]`, so it holds how
    /// many of their slots lie below `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    pub fn set_prefix_ones(&mut self, n: usize) {
        assert!(n <= self.len, "{n} ones exceed {} slots", self.len);
        for (w, word) in self.bits.iter_mut().enumerate() {
            let ones = n.saturating_sub(64 * w).min(64);
            *word = u64::MAX.checked_shr(64 - ones as u32).unwrap_or(0);
        }
        for (w, node) in self.tree.iter_mut().enumerate().skip(1) {
            let low = w & w.wrapping_neg();
            *node = n.saturating_sub(64 * (w - low)).min(64 * low) as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_and_prefix_sums() {
        let mut f = Fenwick::new(200);
        for i in [0, 3, 63, 64, 130, 199] {
            f.set(i);
        }
        assert_eq!(f.prefix_sum(0), 1);
        assert_eq!(f.prefix_sum(2), 1);
        assert_eq!(f.prefix_sum(3), 2);
        assert_eq!(f.prefix_sum(63), 3);
        assert_eq!(f.prefix_sum(64), 4);
        assert_eq!(f.prefix_sum(199), 6);
        f.clear(63);
        f.clear(0);
        assert_eq!(f.prefix_sum(63), 1);
        assert_eq!(f.prefix_sum(199), 4);
    }

    #[test]
    fn set_prefix_ones_matches_repeated_sets() {
        for len in [0usize, 1, 2, 63, 64, 65, 127, 128, 129, 700] {
            for n in (0..=len).step_by(7).chain([len]) {
                // Start from a tree holding other slots: the bulk set
                // overwrites every word and node.
                let mut bulk = Fenwick::new(len);
                for i in (0..len).step_by(3) {
                    bulk.set(i);
                }
                bulk.set_prefix_ones(n);
                let mut sets = Fenwick::new(len);
                for i in 0..n {
                    sets.set(i);
                }
                assert_eq!(bulk.bits, sets.bits, "len {len} n {n}");
                assert_eq!(bulk.tree, sets.tree, "len {len} n {n}");
            }
        }
    }

    #[test]
    fn ranks_count_the_set_slots_below() {
        let mut f = Fenwick::new(300);
        let set = [0usize, 5, 63, 64, 100, 128, 299];
        for &i in &set {
            f.set(i);
        }
        let rank = f.ranks();
        for i in 0..300 {
            let expect = set.iter().filter(|&&s| s < i).count() as u32;
            assert_eq!(rank(i), expect, "slot {i}");
        }
    }

    #[test]
    fn empty_tree() {
        let f = Fenwick::new(0);
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn prefix_sum_out_of_range_asserts_in_debug() {
        let f = Fenwick::new(4);
        f.prefix_sum(4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already set")]
    fn setting_a_set_slot_asserts_in_debug() {
        let mut f = Fenwick::new(4);
        f.set(2);
        f.set(2);
    }

    #[test]
    fn matches_naive_prefix_sums() {
        // Deterministic pseudo-random toggles compared against a plain
        // array, over several words.
        let mut f = Fenwick::new(300);
        let mut naive = [false; 300];
        let mut state = 12345u64;
        for _ in 0..3000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (state >> 33) as usize % 300;
            if naive[i] {
                f.clear(i);
            } else {
                f.set(i);
            }
            naive[i] = !naive[i];
        }
        let mut acc = 0u64;
        for (i, &set) in naive.iter().enumerate() {
            acc += u64::from(set);
            assert_eq!(f.prefix_sum(i), acc, "prefix {i}");
        }
    }
}
