//! Marker-based stack processing (Kim et al., SIGMETRICS 1991).
//!
//! The paper chose this stack-processing algorithm "because of its constant
//! time complexity per reference" — unlike a plain LRU-stack scan, the cost
//! per reference does not depend on the reuse distance. The trick: we do
//! not need exact distances, only *hit or miss for a fixed set of cache
//! capacities*. A marker is kept at each capacity's depth in the LRU stack,
//! and each node remembers which inter-marker segment (its *group*) it lies
//! in. An access to a node in group `g` misses in exactly the capacities
//! below it (`caps[0..g]`); moving the node to the front shifts each of
//! those markers up by one list position — O(#capacities) work per
//! reference, independent of locality.
//!
//! Miss counts are kept per capacity *and per originating array*, which the
//! model uses to decompose traffic (`x`-traffic fraction, §4.5.5) and to
//! account partitions separately (Eq. 2).

use crate::histogram::ReuseHistogram;
use crate::slots::{LineSlots, ABSENT};
use memtrace::{Access, AccessBlock, Array, BlockSink, PackedAccess, TraceSink};

const NIL: u32 = u32::MAX;

// The node does NOT store its line: the line → node index is never walked
// backwards (hits arrive with the slot already resolved), so keeping the
// node at 12 bytes roughly halves the LRU list's cache traffic.
#[derive(Clone, Debug)]
struct Node {
    prev: u32,
    next: u32,
    /// Number of capacities whose marker lies strictly above this node,
    /// i.e. `#{j : caps[j] < depth}`.
    group: u8,
}

/// Multi-capacity LRU hit/miss counter with locality-independent cost per
/// reference.
#[derive(Clone, Debug)]
pub struct MarkerStack {
    caps: Vec<usize>,
    nodes: Vec<Node>,
    index: LineSlots,
    head: u32,
    tail: u32,
    len: usize,
    /// Per capacity: the slot currently at depth `caps[j]`, or NIL while the
    /// stack is shorter than that.
    markers: Vec<u32>,
    /// Demand misses per capacity per array (cold misses included).
    misses: Vec<[u64; 5]>,
    /// Cold (infinite-distance) accesses per array.
    cold: [u64; 5],
    /// Accesses per array since the last counter reset.
    accesses_by_array: [u64; 5],
    accesses: u64,
}

impl MarkerStack {
    /// Creates a marker stack counting hits/misses for the given cache
    /// capacities (in lines).
    ///
    /// Capacities are sorted and deduplicated; zero capacities are
    /// rejected (a zero-line cache misses always and needs no stack).
    /// The line index starts empty and grows to the largest line id seen.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty, contains zero, or has more than 64
    /// entries.
    pub fn new(capacities: &[usize]) -> Self {
        let mut caps = capacities.to_vec();
        caps.sort_unstable();
        caps.dedup();
        assert!(!caps.is_empty(), "need at least one capacity");
        assert!(caps[0] > 0, "capacities must be positive");
        assert!(caps.len() <= 64, "too many capacities for one stack");
        let n = caps.len();
        MarkerStack {
            caps,
            nodes: Vec::new(),
            index: LineSlots::default(),
            head: NIL,
            tail: NIL,
            len: 0,
            markers: vec![NIL; n],
            misses: vec![[0; 5]; n],
            cold: [0; 5],
            accesses_by_array: [0; 5],
            accesses: 0,
        }
    }

    /// Like [`new`](Self::new), but pre-sizes the line index for line
    /// ids below `total_lines` (a [`memtrace::DataLayout`] numbers lines
    /// densely as `0..total_lines`), so it never grows while every line
    /// lies in that range. A line beyond it still works: the index grows.
    /// Memory is 4 bytes per line id of the range, touched or not.
    pub fn with_line_universe(capacities: &[usize], total_lines: usize) -> Self {
        let mut s = Self::new(capacities);
        s.index = LineSlots::with_universe(total_lines);
        s
    }

    /// The (sorted, deduplicated) capacities this stack tracks.
    pub fn capacities(&self) -> &[usize] {
        &self.caps
    }

    /// Total accesses since the last counter reset.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Cold accesses (all arrays) since the last counter reset.
    pub fn cold_total(&self) -> u64 {
        self.cold.iter().sum()
    }

    /// Accesses of one array since the last counter reset.
    pub fn accesses_by_array(&self, array: Array) -> u64 {
        self.accesses_by_array[array as usize]
    }

    /// Misses (cold included) at capacity index `j` since the last reset.
    pub fn misses(&self, j: usize) -> u64 {
        self.misses[j].iter().sum()
    }

    /// Number of distinct lines currently in the stack.
    pub fn depth(&self) -> usize {
        self.len
    }

    /// Rebuilds the exact stack state a full replay of a reference stream
    /// would leave behind, from nothing but the stream's distinct lines in
    /// most-recently-accessed-first order. Counters stay zero, as after
    /// [`reset_counters`](Self::reset_counters).
    ///
    /// Why this is sufficient: every access (re-reference or cold insert)
    /// moves its line to the front of the LRU list, so the post-replay
    /// list *is* the last-access order; marker `j` is maintained at depth
    /// exactly `caps[j]` whenever the stack is that deep, and each node's
    /// group label equals the number of capacities above its depth — both
    /// pure functions of the final order. Replacing a warm-up replay (a
    /// full stack simulation per reference) with a seed from a cheap
    /// last-access-position scan is therefore byte-identical, and turns
    /// the warm-up from O(refs · caps) stack work into O(distinct lines).
    ///
    /// # Panics
    ///
    /// Panics if the stack is not empty.
    pub fn seed_lru(&mut self, lines_most_recent_first: &[u64]) {
        assert!(self.len == 0, "seed_lru requires an empty stack");
        let n = lines_most_recent_first.len();
        self.nodes.reserve(n);
        // caps is sorted: advance `group` as depth passes each capacity.
        let mut group = 0u8;
        for (i, &line) in lines_most_recent_first.iter().enumerate() {
            let depth = i + 1;
            while (group as usize) < self.caps.len() && self.caps[group as usize] < depth {
                group += 1;
            }
            let slot = i as u32;
            self.nodes.push(Node {
                prev: if i == 0 { NIL } else { slot - 1 },
                next: if i + 1 == n { NIL } else { slot + 1 },
                group,
            });
            let previous = self.index.replace(line, slot);
            debug_assert_eq!(previous, ABSENT, "seed line {line} repeated");
        }
        self.len = n;
        self.head = if n == 0 { NIL } else { 0 };
        self.tail = if n == 0 { NIL } else { (n - 1) as u32 };
        for (j, &c) in self.caps.iter().enumerate() {
            self.markers[j] = if n >= c { (c - 1) as u32 } else { NIL };
        }
        debug_assert!(n < u32::MAX as usize, "line universe overflows u32 slots");
    }

    /// Zeroes the hit/miss/cold/access counters while keeping the stack
    /// state — used to discard the warm-up iteration, matching the paper's
    /// "model the cache behavior after a warm-up iteration".
    pub fn reset_counters(&mut self) {
        for m in &mut self.misses {
            *m = [0; 5];
        }
        self.cold = [0; 5];
        self.accesses_by_array = [0; 5];
        self.accesses = 0;
    }

    /// Processes one reference.
    ///
    /// # Panics
    ///
    /// Panics on a line id of `u32::MAX` or more.
    #[inline]
    pub fn access(&mut self, line: u64, array: Array) {
        self.accesses += 1;
        let ai = array as usize;
        self.accesses_by_array[ai] += 1;
        let slot = self.index.get(line);
        if slot != ABSENT {
            self.hit(slot, ai);
        } else {
            self.cold_insert(line, ai);
        }
    }

    /// Processes a block of packed references, in order — the
    /// block-batched hot path of [`BlockSink`].
    pub fn access_block(&mut self, refs: &[PackedAccess]) {
        for &p in refs {
            self.access(p.line(), p.array());
        }
    }

    /// Re-reference of the line stored at node `slot`.
    #[inline]
    fn hit(&mut self, slot: u32, ai: usize) {
        if self.head == slot {
            // Depth 1: hit everywhere, nothing moves.
            return;
        }
        let g = self.nodes[slot as usize].group as usize;
        // Miss in every capacity whose marker lies above the node.
        for j in 0..g {
            self.misses[j][ai] += 1;
            // Shift marker j up one position: the node formerly at
            // depth caps[j] - 1 will be at caps[j] after the move.
            let m = self.markers[j];
            debug_assert_ne!(m, NIL);
            self.nodes[m as usize].group += 1;
            self.markers[j] = self.nodes[m as usize].prev;
        }
        // A marker pointing at the accessed node itself (possible only
        // for the first capacity >= its depth) also retargets to the
        // node that will take its depth.
        if g < self.caps.len() && self.markers[g] == slot {
            self.markers[g] = self.nodes[slot as usize].prev;
        }
        self.unlink(slot);
        self.push_front(slot);
        self.nodes[slot as usize].group = 0;
        self.fix_depth1_markers();
    }

    /// First-ever reference of `line`: misses at every capacity; the
    /// whole stack shifts down, so every existing marker shifts up.
    fn cold_insert(&mut self, line: u64, ai: usize) {
        self.cold[ai] += 1;
        for j in 0..self.caps.len() {
            self.misses[j][ai] += 1;
            let m = self.markers[j];
            if m != NIL {
                self.nodes[m as usize].group += 1;
                self.markers[j] = self.nodes[m as usize].prev;
            }
        }
        let slot = self.alloc();
        self.push_front(slot);
        self.len += 1;
        self.index.replace(line, slot);
        debug_assert!(
            self.len < u32::MAX as usize,
            "line universe overflows u32 slots"
        );
        self.fix_depth1_markers();
        // Markers spring into existence when the stack first reaches
        // their capacity: the tail is then exactly at that depth.
        for j in 0..self.caps.len() {
            if self.markers[j] == NIL && self.len == self.caps[j] {
                self.markers[j] = self.tail;
            }
        }
    }

    /// Restores markers orphaned by a `prev`-of-head shift: only a
    /// capacity of 1 can be affected, and its marker is the new head.
    fn fix_depth1_markers(&mut self) {
        if self.caps[0] == 1 && self.markers[0] == NIL && self.len >= 1 {
            self.markers[0] = self.head;
        }
    }

    /// Snapshots the per-capacity counters in mergeable form: each shard
    /// of a sharded profile computation tracks a subset of the capacity
    /// grid against the same stream, [`QuantizedCounts::concat`] splices
    /// the subsets back together, and [`QuantizedCounts::histogram`]
    /// distils them per array.
    pub fn counts(&self) -> QuantizedCounts {
        QuantizedCounts {
            caps: self.caps.clone(),
            misses: self.misses.clone(),
            cold: self.cold,
            accesses_by_array: self.accesses_by_array,
        }
    }

    /// Reports this stack's accumulated statistics to the telemetry
    /// counters (`reuse.marker.*`). No-op when telemetry is disabled;
    /// everything reported is state the stack tracks anyway, so the
    /// per-reference path never touches obs.
    pub fn flush_obs(&self) {
        if !obs::enabled() {
            return;
        }
        let cold = self.cold_total();
        obs::add("reuse.marker.accesses", self.accesses);
        obs::add("reuse.marker.cold", cold);
        obs::add(
            "reuse.marker.warm_accesses",
            self.accesses.saturating_sub(cold),
        );
        obs::observe("reuse.marker.depth", self.len as u64);
    }

    fn alloc(&mut self) -> u32 {
        // Lines are never evicted from the stack, so nodes are never
        // freed and a node id stays valid for the stack's lifetime.
        self.nodes.push(Node {
            prev: NIL,
            next: NIL,
            group: 0,
        });
        (self.nodes.len() - 1) as u32
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let n = &self.nodes[slot as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let n = &mut self.nodes[slot as usize];
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].prev = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
    }

    /// Debug helper: walks the list and checks all structural invariants
    /// (marker depths, group labels). O(n); test use only.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut depth = 0usize;
        let mut slot = self.head;
        let mut prev = NIL;
        while slot != NIL {
            depth += 1;
            let n = &self.nodes[slot as usize];
            assert_eq!(n.prev, prev, "prev link broken at depth {depth}");
            let expected_group = self.caps.iter().filter(|&&c| c < depth).count();
            assert_eq!(
                n.group as usize, expected_group,
                "group label wrong at depth {depth}"
            );
            for (j, &m) in self.markers.iter().enumerate() {
                if m == slot {
                    assert_eq!(depth, self.caps[j], "marker {j} at wrong depth");
                }
            }
            prev = slot;
            slot = n.next;
        }
        assert_eq!(depth, self.len, "length mismatch");
        assert_eq!(self.tail, prev, "tail mismatch");
        for (j, &m) in self.markers.iter().enumerate() {
            if self.len >= self.caps[j] {
                assert_ne!(m, NIL, "marker {j} missing although stack is deep enough");
            } else {
                assert_eq!(m, NIL, "marker {j} present although stack is shallow");
            }
        }
    }
}

impl TraceSink for MarkerStack {
    #[inline]
    fn access(&mut self, access: Access) {
        MarkerStack::access(self, access.line, access.array);
    }
}

impl BlockSink for MarkerStack {
    #[inline]
    fn consume(&mut self, block: &AccessBlock) {
        self.access_block(block.refs());
    }
}

/// A [`MarkerStack`]'s per-capacity counters in mergeable form.
///
/// The marker algorithm's miss count at a capacity `c` depends only on
/// the reference stream, not on which *other* capacities the same stack
/// happens to track (each marker is maintained independently at its own
/// depth). Sharded profile computation exploits exactly that: the
/// capacity grid is split across shards, every shard replays the same
/// stream through a stack tracking only its slice, and concatenating the
/// slices' counters reproduces the unsharded stack's counters
/// bit-for-bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantizedCounts {
    /// Tracked capacities, sorted ascending.
    pub caps: Vec<usize>,
    /// `misses[j][array]`: demand misses (cold included) at `caps[j]`.
    pub misses: Vec<[u64; 5]>,
    /// Cold (first-reference) accesses per array.
    pub cold: [u64; 5],
    /// Accesses per array.
    pub accesses_by_array: [u64; 5],
}

impl QuantizedCounts {
    /// Distils one array's counters into a reuse-distance histogram that
    /// is **exact at every tracked capacity**.
    ///
    /// An access classified into inter-marker group `g` has a true
    /// distance `d` with `caps[g-1] <= d < caps[g]`; the histogram
    /// records it at the representative distance `caps[g-1]` (0 for
    /// accesses that hit at every capacity, infinite for cold ones). For
    /// any tracked capacity `c`, `histogram.misses(c)` then equals the
    /// marker counter exactly; between tracked capacities the curve is a
    /// step-function approximation. This is how the streaming profile
    /// pipeline routes the Kim et al. counter under evaluate-compatible
    /// histograms: a way sweep pays O(#capacities) per reference instead
    /// of the exact processor's O(log N) Fenwick updates.
    ///
    /// # Panics
    ///
    /// Panics if `caps` is empty (debug builds).
    pub fn histogram(&self, array: Array) -> ReuseHistogram {
        let ai = array as usize;
        let (caps, misses) = (&self.caps, &self.misses);
        let n = caps.len();
        debug_assert!(n > 0, "quantized histogram needs at least one capacity");
        let total = self.accesses_by_array[ai];
        let cold = self.cold[ai];
        let mut h = ReuseHistogram::new();
        // Hits at every capacity: distance below caps[0].
        h.record_n(Some(0), total - misses[0][ai]);
        // Between adjacent capacities: misses at caps[j], hits at caps[j+1].
        for j in 0..n - 1 {
            h.record_n(Some(caps[j] as u64), misses[j][ai] - misses[j + 1][ai]);
        }
        // Warm misses beyond the largest capacity, then the cold tail.
        h.record_n(Some(caps[n - 1] as u64), misses[n - 1][ai] - cold);
        h.record_n(None, cold);
        h
    }

    /// Splices capacity-sharded counts back into one grid.
    ///
    /// The parts must hold disjoint, ascending capacity slices (in shard
    /// order) of one stream's grid; the per-array access and cold tallies
    /// must agree across parts, since every shard saw the same stream.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, capacities are not strictly ascending
    /// across the concatenation, or the tallies disagree.
    pub fn concat<I: IntoIterator<Item = QuantizedCounts>>(parts: I) -> QuantizedCounts {
        let mut it = parts.into_iter();
        let mut out = it.next().expect("at least one shard");
        for part in it {
            assert_eq!(
                part.cold, out.cold,
                "shards of one stream must agree on cold counts"
            );
            assert_eq!(
                part.accesses_by_array, out.accesses_by_array,
                "shards of one stream must agree on access counts"
            );
            let hi = *out.caps.last().expect("non-empty shard slice");
            let lo = *part.caps.first().expect("non-empty shard slice");
            assert!(hi < lo, "shard capacity slices must ascend");
            out.caps.extend_from_slice(&part.caps);
            out.misses.extend_from_slice(&part.misses);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactStack;
    use crate::histogram::ReuseHistogram;

    fn pseudorandom_trace(len: usize, universe: u64, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % universe
            })
            .collect()
    }

    fn compare_with_exact(trace: &[u64], caps: &[usize]) {
        let mut ms = MarkerStack::new(caps);
        let mut ex = ExactStack::new();
        let mut hist = ReuseHistogram::new();
        for &l in trace {
            ms.access(l, Array::X);
            hist.record(ex.access(l));
        }
        for (j, &c) in ms.capacities().to_vec().iter().enumerate() {
            assert_eq!(ms.misses(j), hist.misses(c), "capacity {c}");
        }
        assert_eq!(ms.cold_total(), hist.cold());
        ms.check_invariants();
    }

    #[test]
    fn matches_exact_small_universe() {
        let trace = pseudorandom_trace(3000, 50, 3);
        compare_with_exact(&trace, &[1, 2, 8, 16, 40, 64]);
    }

    #[test]
    fn matches_exact_large_universe() {
        let trace = pseudorandom_trace(2000, 5000, 17);
        // Out of order on purpose: `new` sorts the capacities.
        compare_with_exact(&trace, &[1000, 4, 4096, 100]);
    }

    #[test]
    fn matches_exact_sequential_streaming() {
        // Pure streaming: every access cold.
        let trace: Vec<u64> = (0..500).collect();
        compare_with_exact(&trace, &[1, 10, 100]);
    }

    #[test]
    fn matches_exact_cyclic() {
        // Cyclic reuse just above/below capacities.
        let trace: Vec<u64> = (0..1000).map(|i| i % 10).collect();
        compare_with_exact(&trace, &[9, 10, 11]);
    }

    #[test]
    fn capacity_one() {
        // Only immediate re-references hit with capacity 1.
        let trace = [1, 1, 2, 2, 2, 1, 3, 3];
        let mut ms = MarkerStack::new(&[1]);
        for &l in &trace {
            ms.access(l, Array::Y);
        }
        // Misses: 1(cold), 2(cold), 1(dist 1), 3(cold) -> 4; hits: 4.
        assert_eq!(ms.misses(0), 4);
        assert_eq!(ms.cold_total(), 3);
        ms.check_invariants();
    }

    #[test]
    fn per_array_attribution() {
        let mut ms = MarkerStack::new(&[2]);
        ms.access(0, Array::X); // cold
        ms.access(100, Array::A); // cold
        ms.access(200, Array::A); // cold
        ms.access(0, Array::X); // distance 2 -> miss at cap 2
        assert_eq!(ms.misses[0][Array::X as usize], 2);
        assert_eq!(ms.misses[0][Array::A as usize], 2);
    }

    #[test]
    fn reset_counters_keeps_stack_state() {
        let mut ms = MarkerStack::new(&[4]);
        for l in 0..10u64 {
            ms.access(l, Array::X);
        }
        ms.reset_counters();
        assert_eq!(ms.misses(0), 0);
        assert_eq!(ms.accesses(), 0);
        // Line 9 is at depth 1: hit; line 0 is at depth 10: miss, not cold.
        ms.access(9, Array::X);
        ms.access(0, Array::X);
        assert_eq!(ms.misses(0), 1);
        assert_eq!(ms.cold_total(), 0);
        ms.check_invariants();
    }

    #[test]
    fn invariants_hold_during_mixed_workload() {
        let trace = pseudorandom_trace(400, 30, 9);
        let mut ms = MarkerStack::new(&[1, 3, 7, 20]);
        for (i, &l) in trace.iter().enumerate() {
            ms.access(l, Array::ColIdx);
            if i % 37 == 0 {
                ms.check_invariants();
            }
        }
        ms.check_invariants();
    }

    #[test]
    fn quantized_histogram_exact_at_tracked_capacities() {
        let trace = pseudorandom_trace(3000, 120, 5);
        let caps = [1, 4, 16, 64, 128];
        let mut ms = MarkerStack::new(&caps);
        let mut ex = ExactStack::new();
        let mut hist = ReuseHistogram::new();
        for &l in &trace {
            ms.access(l, Array::A);
            hist.record(ex.access(l));
        }
        let q = ms.counts().histogram(Array::A);
        assert_eq!(q.total(), hist.total());
        assert_eq!(q.cold(), hist.cold());
        for &c in &caps {
            assert_eq!(q.misses(c), hist.misses(c), "capacity {c}");
        }
        // Arrays that never appeared produce an empty histogram.
        assert_eq!(ms.counts().histogram(Array::X).total(), 0);
    }

    #[test]
    fn quantized_histogram_steps_conservatively_between_capacities() {
        // Between tracked capacities the quantized curve must report the
        // miss count of the next tracked capacity (distances are rounded
        // down to the representative), never fewer misses than reality.
        let trace = pseudorandom_trace(2000, 60, 11);
        let caps = [2, 8, 32];
        let mut ms = MarkerStack::new(&caps);
        let mut ex = ExactStack::new();
        let mut hist = ReuseHistogram::new();
        for &l in &trace {
            ms.access(l, Array::X);
            hist.record(ex.access(l));
        }
        let q = ms.counts().histogram(Array::X);
        for c in 3..=8 {
            assert_eq!(q.misses(c), hist.misses(8), "capacity {c}");
            assert!(q.misses(c) <= hist.misses(c));
        }
    }

    #[test]
    fn quantized_histogram_partitions_by_array() {
        let mut ms = MarkerStack::new(&[2, 4]);
        for (l, a) in [
            (0, Array::X),
            (10, Array::A),
            (20, Array::A),
            (0, Array::X),
            (30, Array::Y),
            (10, Array::A),
        ] {
            ms.access(l, a);
        }
        let qx = ms.counts().histogram(Array::X);
        let qa = ms.counts().histogram(Array::A);
        let qy = ms.counts().histogram(Array::Y);
        assert_eq!(qx.total() + qa.total() + qy.total(), ms.accesses());
        assert_eq!(qx.cold() + qa.cold() + qy.cold(), ms.cold_total());
        for (j, &c) in ms.capacities().to_vec().iter().enumerate() {
            assert_eq!(
                qx.misses(c) + qa.misses(c) + qy.misses(c),
                ms.misses(j),
                "capacity {c}"
            );
        }
    }

    #[test]
    fn access_block_matches_per_ref_path() {
        // Mixed arrays, several block boundaries, immediate re-references
        // (depth-1 fast path) and absent-then-present within one block.
        let trace = pseudorandom_trace(5000, 900, 29);
        let arrays = [Array::X, Array::A, Array::ColIdx, Array::Y, Array::RowPtr];
        let packed: Vec<PackedAccess> = trace
            .iter()
            .enumerate()
            .map(|(i, &l)| PackedAccess::pack(Access::load(l, arrays[i % arrays.len()])))
            .collect();
        let caps = [1, 4, 16, 64, 256];
        let mut per_ref = MarkerStack::new(&caps);
        for p in &packed {
            let a = p.unpack();
            per_ref.access(a.line, a.array);
        }
        let mut blocked = MarkerStack::new(&caps);
        // Ragged sub-block boundaries exercise the chunking.
        for chunk in packed.chunks(97) {
            blocked.access_block(chunk);
        }
        blocked.check_invariants();
        assert_eq!(blocked.accesses(), per_ref.accesses());
        assert_eq!(blocked.cold_total(), per_ref.cold_total());
        assert_eq!(blocked.misses, per_ref.misses);
        assert_eq!(blocked.counts(), per_ref.counts());
    }

    #[test]
    fn growing_index_matches_presized_index() {
        // A stack whose line index grows from empty must be identical —
        // counts, cold, depth, per-array misses — to one pre-sized for
        // part of the line range, whose index grows past its pre-size,
        // over both the per-ref and block paths.
        let universe = 700u64;
        let warm = pseudorandom_trace(3000, universe, 41);
        let trace = pseudorandom_trace(6000, universe, 43);
        let arrays = [Array::X, Array::A, Array::ColIdx, Array::Y, Array::RowPtr];
        let packed: Vec<PackedAccess> = trace
            .iter()
            .enumerate()
            .map(|(i, &l)| PackedAccess::pack(Access::load(l, arrays[i % arrays.len()])))
            .collect();
        for caps in [vec![1, 4, 16, 64], vec![8, 512], vec![2]] {
            let mut grown = MarkerStack::new(&caps);
            let mut sized = MarkerStack::with_line_universe(&caps, universe as usize / 3);
            for &l in &warm {
                grown.access(l, Array::A);
                sized.access(l, Array::A);
            }
            for chunk in packed.chunks(113) {
                grown.access_block(chunk);
                sized.access_block(chunk);
            }
            sized.check_invariants();
            assert_eq!(sized.counts(), grown.counts(), "caps {caps:?}");
            assert_eq!(sized.depth(), grown.depth());
            assert_eq!(sized.cold_total(), grown.cold_total());
        }
    }

    #[test]
    fn growing_index_seed_lru_matches_presized_seed() {
        // The seed and the measured stream both reach past the pre-size.
        let lines: Vec<u64> = [9u64, 2, 17, 0, 30, 11, 4].to_vec();
        let measured = pseudorandom_trace(2000, 48, 13);
        let mut grown = MarkerStack::new(&[2, 8]);
        let mut sized = MarkerStack::with_line_universe(&[2, 8], 12);
        grown.seed_lru(&lines);
        sized.seed_lru(&lines);
        sized.check_invariants();
        for &l in &measured {
            grown.access(l, Array::X);
            sized.access(l, Array::X);
        }
        assert_eq!(sized.counts(), grown.counts());
    }

    #[test]
    fn seed_lru_matches_replayed_warm_up() {
        // A stack seeded from the warm-up stream's last-access order must
        // be indistinguishable — counter-for-counter, on any subsequent
        // stream — from a stack that replayed the warm-up and reset its
        // counters. Exercises capacity 1 (depth-1 marker edge), caps
        // larger than the line universe, and multi-capacity grids.
        for caps in [vec![1, 4, 16], vec![8], vec![2, 64, 4096], vec![1]] {
            for (universe, seed) in [(40u64, 7u64), (300, 19), (5, 3)] {
                let warm = pseudorandom_trace(2500, universe, seed);
                let measured = pseudorandom_trace(2500, universe, seed ^ 0x5a5a);

                let mut replayed = MarkerStack::new(&caps);
                for &l in &warm {
                    replayed.access(l, Array::X);
                }
                replayed.reset_counters();

                // Last-access order, most recent first.
                let mut last: std::collections::HashMap<u64, usize> = Default::default();
                for (i, &l) in warm.iter().enumerate() {
                    last.insert(l, i);
                }
                let mut order: Vec<(usize, u64)> = last.into_iter().map(|(l, i)| (i, l)).collect();
                order.sort_unstable_by_key(|&(i, _)| std::cmp::Reverse(i));
                let lines: Vec<u64> = order.into_iter().map(|(_, l)| l).collect();

                let mut seeded = MarkerStack::new(&caps);
                seeded.seed_lru(&lines);
                seeded.check_invariants();
                assert_eq!(seeded.depth(), replayed.depth());
                assert_eq!(seeded.accesses(), 0);

                for &l in &measured {
                    replayed.access(l, Array::X);
                    seeded.access(l, Array::X);
                }
                assert_eq!(
                    seeded.counts(),
                    replayed.counts(),
                    "caps {caps:?} universe {universe} seed {seed}"
                );
                seeded.check_invariants();
            }
        }
    }

    #[test]
    fn seed_lru_empty_order_is_fresh_stack() {
        let mut s = MarkerStack::new(&[2, 8]);
        s.seed_lru(&[]);
        s.check_invariants();
        s.access(5, Array::A);
        assert_eq!(s.cold_total(), 1);
    }

    #[test]
    #[should_panic(expected = "requires an empty stack")]
    fn seed_lru_rejects_non_empty_stack() {
        let mut s = MarkerStack::new(&[2]);
        s.access(1, Array::X);
        s.seed_lru(&[9]);
    }

    #[test]
    fn capacity_sharded_counts_concat_to_full_grid() {
        // A stack per capacity-slice over the same stream must reproduce
        // the full stack's counters exactly (the marker independence the
        // sharded profile computation relies on).
        let trace = pseudorandom_trace(4000, 300, 41);
        let caps = [1, 2, 8, 32, 64, 128, 512];
        let mut full = MarkerStack::new(&caps);
        for &l in &trace {
            full.access(l, Array::X);
        }
        for split in [1usize, 2, 3, 7] {
            let parts: Vec<QuantizedCounts> = (0..split)
                .map(|s| {
                    let lo = s * caps.len() / split;
                    let hi = (s + 1) * caps.len() / split;
                    let mut stack = MarkerStack::new(&caps[lo..hi]);
                    for &l in &trace {
                        stack.access(l, Array::X);
                    }
                    stack.counts()
                })
                .collect();
            let merged = QuantizedCounts::concat(parts);
            assert_eq!(merged, full.counts(), "split {split}");
            for &a in &[Array::X, Array::A] {
                assert_eq!(merged.histogram(a), full.counts().histogram(a));
            }
        }
    }

    #[test]
    #[should_panic(expected = "must agree on cold counts")]
    fn concat_rejects_mismatched_streams() {
        let mut a = MarkerStack::new(&[2]);
        a.access(1, Array::X);
        let mut b = MarkerStack::new(&[4]);
        b.access(1, Array::X);
        b.access(2, Array::X);
        QuantizedCounts::concat([a.counts(), b.counts()]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_capacity_rejected() {
        MarkerStack::new(&[0, 4]);
    }
}
