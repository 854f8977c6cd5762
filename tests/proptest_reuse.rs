//! Property-based tests of the reuse-distance engines: the marker stack
//! (production path) must agree exactly with the Fenwick-based exact
//! processor and the naive LRU-stack oracle on arbitrary traces.

mod common;

use common::{exact_histogram, lru_misses, reuse_distances, round_robin};
use memtrace::interleave::domain_groups;
use memtrace::{Access, Array};
use proptest::prelude::*;
use reuse::{ExactStack, MarkerStack, ReuseHistogram};

fn arb_trace(max_len: usize, universe: u64) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..universe, 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact stack distances equal the naive oracle's on any trace.
    #[test]
    fn exact_equals_naive(trace in arb_trace(400, 40)) {
        let expect = reuse_distances(&trace);
        let mut s = ExactStack::new();
        for (i, &l) in trace.iter().enumerate() {
            prop_assert_eq!(s.access(l), expect[i]);
        }
    }

    /// An exact stack seeded from a warm-up's last-access order returns
    /// the same distance for every measured reference as one that
    /// replayed the warm-up. The empty warm-up (seeding nothing) is
    /// checked on every case.
    #[test]
    fn exact_seed_equals_replay(
        warm in arb_trace(300, 40),
        measured in arb_trace(300, 60),
    ) {
        for warm in [&warm[..], &[]] {
            let mut replayed = ExactStack::new();
            for &l in warm {
                replayed.access(l);
            }
            let mut order: Vec<u64> = Vec::new();
            for &l in warm.iter().rev() {
                if !order.contains(&l) {
                    order.push(l);
                }
            }
            let mut seeded = ExactStack::new();
            seeded.seed_lru(&order);
            for (i, &l) in measured.iter().enumerate() {
                prop_assert_eq!(seeded.access(l), replayed.access(l), "measured ref {}", i);
            }
        }
    }

    /// Long traces over small line universes run exact stacks that start
    /// at their minimum window (64 slots) through dozens of compactions —
    /// and, once more than a quarter of the window stays live, doublings
    /// up to 512 slots. Every reference must get the naive stack's
    /// distance: from a fresh start, from a `seed_lru` start, and after a
    /// warm-up replayed with `touch` or with `access`.
    #[test]
    fn exact_compactions_equal_naive(
        trace in prop::collection::vec(0u64..1 << 20, 1500..4000),
        universe in 2u64..100,
        seed_len in 0u64..60,
    ) {
        let trace: Vec<u64> = trace.iter().map(|&l| l % universe).collect();
        // Seeded lines partly overlap the trace's universe.
        let order: Vec<u64> = (0..seed_len).map(|i| 2 * i).rev().collect();
        let (mut fresh, mut seeded) = (ExactStack::new(), ExactStack::new());
        seeded.seed_lru(&order);
        let (mut naive_fresh, mut naive_seeded) = (common::NaiveStack::new(), common::NaiveStack::new());
        for &l in order.iter().rev() {
            naive_seeded.access(l);
        }
        let (mut touched, mut accessed) = (ExactStack::new(), ExactStack::new());
        let mut naive_warm = common::NaiveStack::new();
        for &l in &trace {
            touched.touch(l);
            accessed.access(l);
            naive_warm.access(l);
        }
        for (i, &l) in trace.iter().enumerate() {
            prop_assert_eq!(fresh.access(l), naive_fresh.access(l), "fresh ref {}", i);
            prop_assert_eq!(seeded.access(l), naive_seeded.access(l), "seeded ref {}", i);
            let warm = naive_warm.access(l);
            prop_assert_eq!(touched.access(l), warm, "touched ref {}", i);
            prop_assert_eq!(accessed.access(l), warm, "accessed ref {}", i);
        }
        prop_assert_eq!(seeded.accesses(), trace.len());
        prop_assert_eq!(touched.accesses(), 2 * trace.len());
        prop_assert_eq!(touched.distinct_lines(), fresh.distinct_lines());
    }

    /// Marker-stack miss counts equal histogram-derived miss counts for
    /// every tracked capacity, on any trace.
    #[test]
    fn markers_equal_exact(
        trace in arb_trace(500, 64),
        caps in prop::collection::btree_set(1usize..80, 1..6),
    ) {
        let caps: Vec<usize> = caps.into_iter().collect();
        let mut ms = MarkerStack::new(&caps);
        let mut hist = ReuseHistogram::new();
        let mut ex = ExactStack::new();
        for &l in &trace {
            ms.access(l, Array::X);
            hist.record(ex.access(l));
        }
        for (j, &c) in ms.capacities().to_vec().iter().enumerate() {
            prop_assert_eq!(ms.misses(j), hist.misses(c), "capacity {}", c);
        }
        ms.check_invariants();
    }

    /// Marker-stack and exact-stack miss counts agree on round-robin
    /// interleaved multi-domain traces — the exact reference order the
    /// streaming pipeline replays per L2 domain. Each domain is an
    /// independent cache, so the agreement must hold domain by domain,
    /// and the marker stack's quantized histogram must reproduce the
    /// same miss counts at every tracked capacity.
    #[test]
    fn markers_equal_exact_on_interleaved_domains(
        per_thread in prop::collection::vec(arb_trace(150, 48), 1..7),
        cores_per_domain in 1usize..4,
        caps in prop::collection::btree_set(1usize..64, 1..5),
    ) {
        let caps: Vec<usize> = caps.into_iter().collect();
        let traces: Vec<Vec<Access>> = per_thread
            .iter()
            .map(|t| t.iter().map(|&l| Access::load(l, Array::X)).collect())
            .collect();
        for (d, span) in domain_groups(traces.len(), cores_per_domain).into_iter().enumerate() {
            let interleaved = round_robin(&traces[span], 1);
            let mut ms = MarkerStack::new(&caps);
            let mut hist = ReuseHistogram::new();
            let mut ex = ExactStack::new();
            for a in &interleaved {
                ms.access(a.line, a.array);
                hist.record(ex.access(a.line));
            }
            let quantized = ms.counts().histogram(Array::X);
            for (j, &c) in caps.iter().enumerate() {
                prop_assert_eq!(ms.misses(j), hist.misses(c), "domain {} capacity {}", d, c);
                prop_assert_eq!(quantized.misses(c), hist.misses(c), "domain {} capacity {}", d, c);
            }
            ms.check_invariants();
        }
    }

    /// The marker stack's internal invariants survive arbitrary
    /// warm-up/reset/measure interleavings.
    #[test]
    fn marker_invariants_after_reset(
        warm in arb_trace(200, 32),
        measured in arb_trace(200, 32),
    ) {
        let mut ms = MarkerStack::new(&[1, 5, 17]);
        for &l in &warm {
            ms.access(l, Array::A);
        }
        ms.reset_counters();
        prop_assert_eq!(ms.accesses(), 0);
        for &l in &measured {
            ms.access(l, Array::A);
        }
        prop_assert_eq!(ms.accesses(), measured.len() as u64);
        ms.check_invariants();
    }

    /// Exact-stack histogram miss counts equal the naive oracle's LRU
    /// misses at every capacity, on any trace.
    #[test]
    fn exact_histogram_matches_naive_misses(trace in arb_trace(400, 48)) {
        let hist = exact_histogram(&trace);
        for cap in [1, 2, 4, 8, 16, 32, 48, 64] {
            prop_assert_eq!(hist.misses(cap), lru_misses(&trace, cap), "capacity {}", cap);
        }
    }

    /// The LRU miss curve is monotonically non-increasing in capacity.
    #[test]
    fn miss_curve_monotone(trace in arb_trace(400, 50)) {
        let hist = exact_histogram(&trace);
        let mut prev = u64::MAX;
        for cap in 1..60 {
            let m = hist.misses(cap);
            prop_assert!(m <= prev);
            prev = m;
        }
        // And a cache bigger than the universe only takes cold misses.
        prop_assert_eq!(hist.misses(64), hist.cold());
    }
}

/// The naive oracle itself, on textbook traces.
#[test]
fn naive_oracle_textbook_distances() {
    // a b c a -> inf, inf, inf, 2; immediate reuse is distance 0, and a
    // distance counts distinct lines, not accesses.
    assert_eq!(reuse_distances(&[1, 2, 3, 1]), [None, None, None, Some(2)]);
    assert_eq!(reuse_distances(&[5, 5, 5]), [None, Some(0), Some(0)]);
    assert_eq!(reuse_distances(&[1, 2, 2, 2, 1])[4], Some(1));
    // Cyclic trace over 3 lines: capacity 2 misses everything, capacity 3
    // only the cold misses.
    assert_eq!(lru_misses(&[1, 2, 3, 1, 2, 3], 2), 6);
    assert_eq!(lru_misses(&[1, 2, 3, 1, 2, 3], 3), 3);
}
