//! Live-byte pin of method (B)'s profile storage.
//!
//! A counting global allocator over [`System`] tracks live heap bytes and
//! their peak while one 48-thread method-(B) `LocalityProfile::compute`
//! runs on the scale-64 delaunay_n24 analogue (about 1.6M `x` references,
//! four L2 domains, many distinct `(RD, gap)` pairs). Two things are
//! asserted:
//!
//! * the profile retains exactly 12 B per run entry (a `u64` packed key
//!   and a `u32` count, each run's capacity equal to its length), plus
//!   one run header per non-empty domain and one share per domain;
//! * the live peak stays within the retained runs plus what a single
//!   domain needs while it is computed: its stream buffer (8 B per `x`
//!   reference) and its scan and stack tables, bounded from the layout.
//!   Keeping every domain's buffer until the end, or copying the runs
//!   into a merged array while they are alive, breaks this bound.
//!
//! This file is its own test binary with one test, so nothing else
//! allocates while it measures.

use a64fx::MachineConfig;
use locality_core::profile::PairCounts;
use locality_core::{
    DomainPartial, LocalityProfile, Method, ProfileBuilder, SectorSetting, SpmvWorkload, WorkShare,
};
use memtrace::Array;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live bytes and their peak, over every thread.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

/// [`System`] with every allocation's requested size counted.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Small allocations the pipeline makes besides its tables (cursors,
/// partition spans, vector headers), far below any table here.
const SMALL_BYTES: usize = 64 << 10;

/// Bytes of an exact stack over `lines` line ids: a 4 B slot per line
/// and a Fenwick window of `next_pow2(4 × lines)` slots (a bit and a
/// sixteenth of a `u32` count per slot), once more for the ranks a
/// compaction builds.
fn exact_stack_bytes(lines: usize) -> usize {
    let window = (4 * lines).max(64).next_power_of_two();
    4 * lines + window / 4 + 8
}

#[test]
fn method_b_profile_retains_12_bytes_per_entry_and_peaks_at_one_domain() {
    let matrix = corpus::table1_member(64, 16).matrix;
    let cfg = MachineConfig::a64fx();
    let threads = 48;
    let settings = SectorSetting::paper_sweep();

    // Each domain's run length, from partials computed before the
    // measured region.
    let builder = ProfileBuilder::for_sweep(&matrix, &cfg, Method::B, threads, &settings);
    let runs: Vec<usize> = (0..builder.num_domains())
        .map(|d| match builder.domain_shard_partial(d, 0, 1) {
            DomainPartial::XTrace { pairs, .. } => pairs.len(),
            DomainPartial::Trace { .. } => unreachable!("method (B) builder"),
        })
        .filter(|&n| n > 0)
        .collect();
    drop(builder);
    assert!(runs.len() >= 4, "test needs several domains: {runs:?}");
    let entries: usize = runs.iter().sum();
    assert!(entries > 500_000, "test needs many pairs: {entries}");

    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let profile = LocalityProfile::compute(&matrix, &cfg, Method::B, threads, &settings);
    let peak = PEAK.load(Relaxed) - base;
    let shares = profile.domains();
    let (num_domains, max_x_refs) = (shares.len(), shares.iter().map(|s| s.x_refs).max());
    let held = LIVE.load(Relaxed);
    drop(profile);
    let retained = held - LIVE.load(Relaxed);

    let expected = 12 * entries
        + runs.len() * std::mem::size_of::<PairCounts>()
        + num_domains * std::mem::size_of::<WorkShare>();
    assert_eq!(
        retained,
        expected,
        "profile retains {retained} B for {entries} entries in {} runs",
        runs.len()
    );

    // The largest domain's stream buffer, its scan's 8 B per line id, its
    // last-access order (16 B per touched line sorted by position, 16 B
    // once collected, 8 B per seed line) and the seeded exact stack over
    // the `x` lines.
    let layout = matrix.layout(cfg.l2.line_bytes);
    let total_lines = layout.total_lines() as usize;
    let x_lines = layout.array_lines(Array::X) as usize;
    let buffer = 8 * max_x_refs.expect("a domain");
    let tables = 8 * total_lines + 40 * x_lines + exact_stack_bytes(x_lines);
    let bound = retained + buffer + tables + SMALL_BYTES;
    assert!(
        peak <= bound,
        "live peak {peak} B exceeds retained {retained} + buffer {buffer} + tables {tables} B"
    );
}
