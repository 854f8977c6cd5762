//! Reuse-distance algorithm benchmarks: the O(N·n) naive oracle, the
//! O(log N) exact Fenwick processor, and the O(#capacities) marker stack
//! (Kim et al.) the paper selects for its locality-independent cost.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use memtrace::Array;
use reuse::{naive::NaiveStack, ExactStack, MarkerStack};

fn trace(len: usize, universe: u64, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            (state >> 33) % universe
        })
        .collect()
}

fn bench_algorithms(c: &mut Criterion) {
    let t = trace(200_000, 8192, 5);
    let caps = [512usize, 2048, 8192, 16384];

    let mut group = c.benchmark_group("reuse-distance");
    group.throughput(Throughput::Elements(t.len() as u64));

    group.bench_function("marker-stack-4caps", |b| {
        b.iter(|| {
            let mut s = MarkerStack::new(&caps);
            for &l in &t {
                s.access(l, Array::X);
            }
            s.misses(0)
        })
    });
    group.bench_function("exact-fenwick", |b| {
        b.iter(|| {
            let mut s = ExactStack::with_capacity(t.len());
            let mut acc = 0u64;
            for &l in &t {
                if let Some(d) = s.access(l) {
                    acc = acc.wrapping_add(d);
                }
            }
            acc
        })
    });
    group.finish();

    // The naive oracle is orders of magnitude slower: bench a short prefix
    // so the run terminates.
    let short = &t[..5_000];
    let mut group = c.benchmark_group("reuse-distance-naive");
    group.throughput(Throughput::Elements(short.len() as u64));
    group.bench_function("naive-5k", |b| {
        b.iter(|| {
            let mut s = NaiveStack::new();
            let mut acc = 0u64;
            for &l in short {
                if let Some(d) = s.access(l) {
                    acc = acc.wrapping_add(d);
                }
            }
            acc
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_algorithms
}
criterion_main!(benches);
