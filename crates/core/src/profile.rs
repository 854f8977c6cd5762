//! Reuse profiles: compute once per sweep, evaluate per setting.
//!
//! Both prediction methods factor into an expensive *trace analysis* of
//! the sparsity pattern, the thread count, and the machine *shape* (line
//! size, cores per domain) — and a cheap *capacity evaluation* per
//! [`SectorSetting`]. This module makes the split explicit:
//!
//! * [`LocalityProfile::compute`] runs the trace machinery and distills it
//!   into quantized per-array reuse histograms (method A: Kim et al.'s
//!   marker stacks, exact at the partition capacities the sweep's
//!   settings query) or `(RD, gap)` pair counts (method B: an exact
//!   stack, valid at every capacity);
//! * [`LocalityProfile::evaluate`] turns a profile into [`Prediction`]s
//!   for the sweep's settings in time independent of the trace length.
//!
//! [`predict`](crate::predict::predict) is a thin wrapper over this
//! pair, so profiles are guaranteed to reproduce its results. The
//! batch engine (`locality-engine`) memoizes profiles keyed by matrix
//! fingerprint, which is what makes corpus-scale sector sweeps cheap:
//! seven settings share one trace analysis instead of re-deriving it.

use crate::analytic::{scale_part0, scale_unpart, StreamTerms};
use crate::concurrent::{thread_partition, DomainCursors, DomainTraces};
use crate::predict::{Method, Prediction, SectorSetting};
use a64fx::MachineConfig;
use memtrace::sink::PackedVecSink;
use memtrace::spmv_trace::trace_spmv_partitioned;
use memtrace::xtrace::trace_x_partitioned;
use memtrace::{
    Access, AccessBlock, Array, ArraySet, BlockSink, DataLayout, PackedAccess, SpmvWorkload,
    TraceCursor, TraceSink, BLOCK_REFS,
};
use reuse::{ExactStack, FxHashMap, MarkerStack, QuantizedCounts, ReuseHistogram};
use sparsemat::{CsrMatrix, RowPartition};

/// One NUMA domain's share of the workload (for the analytic terms and
/// working-set fit checks of method B) — a [`memtrace::WorkShare`] in the
/// model's units (`rows`, `x_refs`, `meta_elems`).
pub use memtrace::WorkShare as DomainShare;

/// Per-array reuse histograms of one routed reference stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArrayHistograms {
    /// One histogram per [`Array`] (indexed by `Array as usize`),
    /// recording the measured (steady-state) iteration only.
    pub by_array: [ReuseHistogram; 5],
}

impl ArrayHistograms {
    /// Misses of a fully associative LRU partition of `capacity` lines,
    /// summed over arrays.
    pub fn misses(&self, capacity: usize) -> u64 {
        self.by_array.iter().map(|h| h.misses(capacity)).sum()
    }

    /// Misses attributed to one array at `capacity` lines.
    pub fn misses_of(&self, array: Array, capacity: usize) -> u64 {
        self.by_array[array as usize].misses(capacity)
    }

    fn merge(&mut self, other: &ArrayHistograms) {
        for (mine, theirs) in self.by_array.iter_mut().zip(&other.by_array) {
            mine.merge(theirs);
        }
    }

    /// Adds one routing's marker counters, distilled per array by
    /// [`QuantizedCounts::histogram`]. `None` (a routing that tracks no
    /// capacity) adds nothing.
    fn merge_counts(&mut self, counts: &Option<QuantizedCounts>) {
        if let Some(c) = counts {
            for a in Array::ALL {
                self.by_array[a as usize].merge(&c.histogram(a));
            }
        }
    }
}

/// One exact stack of the materialized oracle with dense per-array
/// distance counters for the measured iteration.
struct CountingStack {
    stack: ExactStack,
    /// `finite[array][d]`: measured references to `array` at reuse
    /// distance `d` (distances are below the stack's line count).
    finite: [Vec<u64>; 5],
    cold: [u64; 5],
}

impl CountingStack {
    fn new(total_lines: usize) -> Self {
        CountingStack {
            stack: ExactStack::with_line_universe(total_lines),
            finite: Default::default(),
            cold: [0; 5],
        }
    }

    fn record(&mut self, access: Access) {
        let array = access.array as usize;
        match self.stack.access(access.line) {
            Some(d) => {
                let counts = &mut self.finite[array];
                let d = d as usize;
                if d >= counts.len() {
                    counts.resize(d + 1, 0);
                }
                counts[d] += 1;
            }
            None => self.cold[array] += 1,
        }
    }

    /// Folds the counters into per-array histograms. `record_n` skips
    /// zero counts, so the result equals recording reference by
    /// reference.
    fn histograms(&self) -> ArrayHistograms {
        let mut h = ArrayHistograms::default();
        for a in Array::ALL {
            let hist = &mut h.by_array[a as usize];
            hist.record_n(None, self.cold[a as usize]);
            for (d, &n) in self.finite[a as usize].iter().enumerate() {
                hist.record_n(Some(d as u64), n);
            }
        }
        h
    }
}

/// Trace sink of the materialized oracle's method-(A) replay: one exact
/// stack for the unpartitioned routing and the Listing-1 pair, all fed
/// by the same pass. The warm-up only updates the stacks
/// ([`ExactStack::touch`]); the measured iteration counts distances.
struct HistogramSink {
    shared: CountingStack,
    part0: CountingStack,
    part1: CountingStack,
    measuring: bool,
}

impl HistogramSink {
    /// Creates the sink with each stack pre-sized for the layout's line
    /// ids. Partition 0's ids span the whole layout, because `rowptr`
    /// comes last.
    fn new(layout: &DataLayout) -> Self {
        let total = layout.total_lines() as usize;
        HistogramSink {
            shared: CountingStack::new(total),
            part0: CountingStack::new(total),
            part1: CountingStack::new(total),
            measuring: false,
        }
    }
}

impl TraceSink for HistogramSink {
    fn access(&mut self, access: Access) {
        let routed = if ArraySet::MATRIX_STREAM.contains(access.array) {
            &mut self.part1
        } else {
            &mut self.part0
        };
        if self.measuring {
            self.shared.record(access);
            routed.record(access);
        } else {
            self.shared.stack.touch(access.line);
            routed.stack.touch(access.line);
        }
    }
}

/// The lines of a last-access order that `sector1` routes to partition 1
/// (`want1`) or partition 0, most recent first.
fn route(order: &[LastAccess], sector1: ArraySet, want1: bool) -> Vec<u64> {
    order
        .iter()
        .filter(|a| sector1.contains(a.array) == want1)
        .map(|a| a.line)
        .collect()
}

/// Method (A)'s measured consumer: [`MarkerStack`]s classifying the
/// unpartitioned stream and both Listing-1 partitions against fixed
/// capacity grids — O(#capacities) per reference, no Fenwick log factor.
/// A stack is only instantiated for a routing that tracks at least one
/// capacity.
struct MarkerSink {
    shared: Option<MarkerStack>,
    part0: Option<MarkerStack>,
    part1: Option<MarkerStack>,
    // Per-block routing scratch of the Listing-1 pair.
    buf0: Vec<PackedAccess>,
    buf1: Vec<PackedAccess>,
}

impl MarkerSink {
    /// Creates the sink over the `(shared, part0, part1)` capacity grids
    /// for a layout whose line ids all lie below `universe`
    /// ([`DataLayout`] numbers lines densely, so `layout.total_lines()`
    /// is that bound): each stack's line index is pre-sized for it.
    fn new(grids: (&[usize], &[usize], &[usize]), universe: usize) -> Self {
        let mk = |caps: &[usize]| {
            (!caps.is_empty()).then(|| MarkerStack::with_line_universe(caps, universe))
        };
        MarkerSink {
            shared: mk(grids.0),
            part0: mk(grids.1),
            part1: mk(grids.2),
            buf0: Vec::with_capacity(BLOCK_REFS),
            buf1: Vec::with_capacity(BLOCK_REFS),
        }
    }

    /// The instantiated stacks, in routing order.
    fn stacks(&self) -> impl Iterator<Item = &MarkerStack> {
        [&self.shared, &self.part0, &self.part1]
            .into_iter()
            .flatten()
    }

    /// The domain's partial: each routing's quantized counts, `None` for
    /// a routing that tracks no capacity.
    fn partial(&self) -> DomainPartial {
        let counts = |s: &Option<MarkerStack>| s.as_ref().map(|s| s.counts());
        DomainPartial::Trace {
            shared: counts(&self.shared),
            part0: counts(&self.part0),
            part1: counts(&self.part1),
        }
    }

    /// Seeds the stacks with the warm-up stream's post-replay state from
    /// its last-access order (most recent first), routing each line to the
    /// partition its array belongs to (every line to the unpartitioned
    /// stack). Counters stay zero — equivalent to replaying the warm-up
    /// and then resetting, per [`MarkerStack::seed_lru`]'s exactness
    /// argument.
    fn seed_lru(&mut self, order: &[LastAccess]) {
        let stream = ArraySet::MATRIX_STREAM;
        if let Some(s) = &mut self.shared {
            s.seed_lru(&route(order, ArraySet::EMPTY, false));
        }
        if let Some(s) = &mut self.part0 {
            s.seed_lru(&route(order, stream, false));
        }
        if let Some(s) = &mut self.part1 {
            s.seed_lru(&route(order, stream, true));
        }
    }

    /// Reports the instantiated stacks' statistics to the telemetry
    /// counters.
    fn flush_obs(&self) {
        self.stacks().for_each(MarkerStack::flush_obs);
    }
}

/// The consumer of a domain's measured pass ([`ProfileBuilder`]'s
/// per-domain driver): a regenerated stream arrives a block at a time
/// through [`BlockSink`], a buffered one whole, with its buffer.
trait MeasuredSink: BlockSink {
    /// Consumes the buffered stream, in order.
    fn replay(&mut self, refs: Vec<PackedAccess>);
}

impl MeasuredSink for MarkerSink {
    fn replay(&mut self, refs: Vec<PackedAccess>) {
        self.consume_refs(&refs);
    }
}

impl MarkerSink {
    /// Consumes a run of the stream of any length. The unpartitioned
    /// stack takes the whole run as-is; the Listing-1 pair splits it by
    /// routing a block at a time, so its scratch stays block-sized.
    fn consume_refs(&mut self, refs: &[PackedAccess]) {
        if let Some(s) = &mut self.shared {
            s.access_block(refs);
        }
        if self.part0.is_none() && self.part1.is_none() {
            return;
        }
        // The two partition stacks are independent, so feeding each its
        // subsequence preserves the per-ref semantics.
        for block in refs.chunks(BLOCK_REFS) {
            self.buf0.clear();
            self.buf1.clear();
            for &p in block {
                if ArraySet::MATRIX_STREAM.contains(p.array()) {
                    self.buf1.push(p);
                } else {
                    self.buf0.push(p);
                }
            }
            if let Some(s) = &mut self.part0 {
                s.access_block(&self.buf0);
            }
            if let Some(s) = &mut self.part1 {
                s.access_block(&self.buf1);
            }
        }
    }
}

impl BlockSink for MarkerSink {
    #[inline]
    fn consume(&mut self, block: &AccessBlock) {
        self.consume_refs(block.refs());
    }
}

/// A line's last access in a scanned stream.
struct LastAccess {
    line: u64,
    array: Array,
}

/// Block sink recording each line's last access position in one pass —
/// the cheap warm-up replacement of every stack pipeline. Global line ids
/// are dense (`DataLayout` packs the five arrays back to back), so the
/// scan is a direct store per reference: no hash probe, no stack work.
struct LastPosSink {
    /// `((pos + 1) << 3) | array` per global line id; 0 = untouched.
    last: Vec<u64>,
    pos: u64,
}

impl LastPosSink {
    fn new(total_lines: u64) -> Self {
        LastPosSink {
            last: vec![0; total_lines as usize],
            pos: 0,
        }
    }

    /// The touched lines in most-recently-accessed-first order — the seed
    /// order for the stacks' `seed_lru`.
    fn lru_order(&self) -> Vec<LastAccess> {
        let mut touched: Vec<(u64, u64)> = self
            .last
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0)
            .map(|(line, &v)| (v, line as u64))
            .collect();
        // Positions are unique, so this orders strictly by recency.
        touched.sort_unstable_by_key(|&(v, _)| std::cmp::Reverse(v));
        touched
            .into_iter()
            .map(|(v, line)| LastAccess {
                line,
                array: Array::ALL[(v & 7) as usize],
            })
            .collect()
    }

    /// Records `p` as the next stream position and returns the gap, in
    /// positions, since its line's previous access (`None` on the line's
    /// first access).
    #[inline]
    fn advance(&mut self, p: PackedAccess) -> Option<u64> {
        self.pos += 1;
        let prev = std::mem::replace(
            &mut self.last[p.line() as usize],
            (self.pos << 3) | p.array() as u64,
        );
        (prev != 0).then(|| self.pos - (prev >> 3))
    }
}

impl BlockSink for LastPosSink {
    fn consume(&mut self, block: &AccessBlock) {
        for &p in block.refs() {
            self.advance(p);
        }
    }
}

/// Method (B)'s `(RD, gap)` pair counts of one domain's measured
/// iteration: the distinct pairs as sorted packed `rd << 32 | gap` keys,
/// with a parallel array of their `u32` counts — 12 B per distinct pair,
/// both arrays exactly sized.
///
/// The packing is lossless and ordered like `(rd, gap)` for values below
/// `u32::MAX` (`XPairSink::seeded` bounds both by the domain's total
/// time). The same bound, below 2³¹ references per domain, keeps every
/// count within a `u32`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PairCounts {
    keys: Box<[u64]>,
    counts: Box<[u32]>,
}

impl PairCounts {
    /// Packs an `(rd, gap)` pair into its key.
    ///
    /// # Panics
    ///
    /// Panics if either value reaches `u32::MAX`.
    fn pack(rd: u64, gap: u64) -> u64 {
        assert!(
            rd < u64::from(u32::MAX) && gap < u64::from(u32::MAX),
            "(rd, gap) = ({rd}, {gap}) exceeds the packed key"
        );
        rd << 32 | gap
    }

    /// A pair's count as stored.
    ///
    /// # Panics
    ///
    /// Panics if `count` reaches 2³².
    fn count(count: usize) -> u32 {
        u32::try_from(count).expect("pair count exceeds u32")
    }

    /// Counts a buffer of packed keys, one per warm reference: the keys
    /// are sorted in `keys`' own allocation, each run of equal keys is
    /// copied out as its key and length into exactly sized arrays, and
    /// the buffer is freed.
    fn from_keys(mut keys: Vec<u64>) -> Self {
        keys.sort_unstable();
        let runs = keys.chunk_by(|a, b| a == b);
        let distinct = runs.clone().count();
        let mut sorted = Vec::with_capacity(distinct);
        let mut counts = Vec::with_capacity(distinct);
        for run in runs {
            sorted.push(run[0]);
            counts.push(Self::count(run.len()));
        }
        PairCounts {
            keys: sorted.into_boxed_slice(),
            counts: counts.into_boxed_slice(),
        }
    }

    /// Number of distinct pairs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no pair was counted.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Method (B)'s `x` misses at one setting: the references whose pair
    /// has `rd + gap × companion ≥ cap0`.
    //
    // One setting per walk: the engine evaluates one setting per job. The
    // `u32` halves convert to `f64` in one instruction where a `u64` takes
    // several; the values are those of `rd as f64` and `gap as f64`.
    fn misses(&self, companion: f64, cap0: f64) -> u64 {
        self.keys
            .iter()
            .zip(&self.counts)
            .filter(|(&key, _)| {
                f64::from((key >> 32) as u32) + f64::from(key as u32) * companion >= cap0
            })
            .map(|(_, &count)| u64::from(count))
            .sum()
    }

    /// The pairs in `(rd, gap)` order, as `(rd, gap, count)`.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.keys
            .iter()
            .zip(&self.counts)
            .map(|(&key, &count)| (key >> 32, key & u64::from(u32::MAX), u64::from(count)))
    }

    /// Bytes the two arrays hold allocated.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.keys) + std::mem::size_of_val(&*self.counts)
    }

    /// Collects distinct `((rd, gap), count)` pairs in any order, as a
    /// hash map yields them: packs and sorts them, then splits keys from
    /// counts.
    ///
    /// # Panics
    ///
    /// Panics if a value reaches `u32::MAX` (see [`Self::pack`]) or a
    /// count reaches 2³²; a repeated pair is a debug assertion.
    fn from_distinct(pairs: impl IntoIterator<Item = ((u64, u64), usize)>) -> Self {
        let mut packed: Vec<(u64, u32)> = pairs
            .into_iter()
            .map(|((rd, gap), count)| (Self::pack(rd, gap), Self::count(count)))
            .collect();
        packed.sort_unstable_by_key(|&(key, _)| key);
        debug_assert!(packed.windows(2).all(|w| w[0].0 < w[1].0), "repeated pair");
        PairCounts {
            keys: packed.iter().map(|&(key, _)| key).collect(),
            counts: packed.iter().map(|&(_, count)| count).collect(),
        }
    }
}

/// Block sink distilling the measured iteration of the method (B)
/// `x`-stream into `(RD, gap)` pair counts on the fly — the streaming
/// replacement for the materialise-then-replay loop.
///
/// Each warm pair is buffered as one packed [`PairCounts`] key; sorting
/// the keys and counting runs in place ([`PairCounts::from_keys`])
/// replaces a hash-map insert per reference. The buffer is 8 B per
/// measured reference — the replay buffer's own allocation when the
/// stream was buffered — and is freed once the domain's exactly sized
/// run (12 B per distinct pair) is copied out of it.
struct XPairSink {
    stack: ExactStack,
    /// The warm-up scan, continued as the gap clock: it holds each line's
    /// last position, so measured reference `i` is position `len + i`.
    clock: LastPosSink,
    keys: Vec<u64>,
    cold: u64,
}

impl XPairSink {
    /// Creates a sink in the state a replay of the warm-up iteration that
    /// `clock` scanned, with last-access order `order`, leaves behind: the
    /// reuse stack is seeded ([`ExactStack::seed_lru`]) and the clock
    /// keeps the replay's numbering. The stack's line index is pre-sized
    /// for the layout's `x` lines, which come first in a [`DataLayout`].
    ///
    /// # Panics
    ///
    /// Panics if twice the warm-up's length reaches `u32::MAX` (the
    /// packed keys' range).
    fn seeded(order: &[LastAccess], clock: LastPosSink, x_lines: usize) -> Self {
        let len = clock.pos as usize;
        assert!(
            2 * len < u32::MAX as usize,
            "x trace exceeds u32 timestamp range"
        );
        let lines: Vec<u64> = order.iter().map(|a| a.line).collect();
        let mut stack = ExactStack::with_line_universe(x_lines);
        stack.seed_lru(&lines);
        XPairSink {
            stack,
            clock,
            keys: Vec::new(),
            cold: 0,
        }
    }

    /// Steps the reuse stack and the gap clock for one measured
    /// reference: the packed key of a warm `(RD, gap)` pair, or `None`
    /// for a cold access (counted).
    #[inline]
    fn record(&mut self, p: PackedAccess) -> Option<u64> {
        // `seeded` bounds the total time below u32::MAX, so the packed key
        // cannot overflow.
        match (self.stack.access(p.line()), self.clock.advance(p)) {
            (Some(rd), Some(gap)) => {
                debug_assert!(
                    rd < u64::from(u32::MAX),
                    "reuse distance exceeds the packed key"
                );
                Some(rd << 32 | gap)
            }
            _ => {
                self.cold += 1;
                None
            }
        }
    }

    /// The measured iteration's pair counts, counted in the key buffer
    /// once the stack and the clock are released; the buffer is freed.
    fn pairs(self) -> PairCounts {
        let XPairSink {
            stack, clock, keys, ..
        } = self;
        drop((stack, clock));
        let pairs = PairCounts::from_keys(keys);
        obs::observe("core.xpair.distinct_pairs", pairs.len() as u64);
        pairs
    }
}

impl MeasuredSink for XPairSink {
    fn replay(&mut self, refs: Vec<PackedAccess>) {
        // A reference yields at most one key of the same size, so the
        // keys are collected into the buffer's own allocation (std
        // collects a `vec::IntoIter` adapter in place): the replay needs
        // no second stream-sized array.
        self.keys = refs.into_iter().filter_map(|p| self.record(p)).collect();
    }
}

impl BlockSink for XPairSink {
    fn consume(&mut self, block: &AccessBlock) {
        if self.keys.capacity() == 0 {
            // First block of a regenerated pass: the clock still reads the
            // warm-up's length, the measured pass's too.
            self.keys.reserve_exact(self.clock.pos as usize);
        }
        for &p in block.refs() {
            if let Some(key) = self.record(p) {
                self.keys.push(key);
            }
        }
    }
}

/// The capacity grids a method-(A) (marker-quantized) profile is exact at.
///
/// Derived from a machine plus a sector-setting sweep: one grid per
/// routing (shared stream, Listing-1 partition 0, partition 1). A profile
/// carrying tracked capacities answers [`LocalityProfile::evaluate`]
/// *only* at these capacities (asserted); in exchange its trace analysis
/// runs on marker stacks, O(#capacities) per reference.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrackedCaps {
    /// Capacities queried against the unpartitioned routing.
    pub shared: Vec<usize>,
    /// Capacities queried against Listing-1 partition 0 (`x`/`y`/`rowptr`).
    pub part0: Vec<usize>,
    /// Capacities queried against Listing-1 partition 1 (`a`/`colidx`).
    pub part1: Vec<usize>,
}

impl TrackedCaps {
    /// The capacity grids `settings` will query under `cfg`.
    pub fn for_sweep(cfg: &MachineConfig, settings: &[SectorSetting]) -> Self {
        let mut t = TrackedCaps::default();
        for &s in settings {
            match s {
                SectorSetting::Off => t.shared.push(s.cap0_lines(cfg)),
                SectorSetting::L2Ways(_) => {
                    t.part0.push(s.cap0_lines(cfg));
                    t.part1.push(s.cap1_lines(cfg));
                }
            }
        }
        for grid in [&mut t.shared, &mut t.part0, &mut t.part1] {
            // Capacity 0 means "everything misses" — exact in any
            // histogram, so it needs no marker.
            grid.retain(|&c| c > 0);
            grid.sort_unstable();
            grid.dedup();
        }
        t
    }

    /// A cache-key discriminator for the grids. Never 0 — that value is
    /// reserved for method-(B) profiles, which track no capacities.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = reuse::fxhash::FxHasher::default();
        for grid in [&self.shared, &self.part0, &self.part1] {
            h.write_usize(grid.len());
            for &c in grid.iter() {
                h.write_usize(c);
            }
        }
        h.finish().max(1)
    }

    fn covers(grid: &[usize], cap: usize) -> bool {
        cap == 0 || grid.binary_search(&cap).is_ok()
    }
}

/// Method (A) profile: steady-state per-array reuse histograms under both
/// reference routings the paper evaluates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceProfile {
    /// Unpartitioned routing (sector cache off): all arrays in one stream.
    pub shared: ArrayHistograms,
    /// Listing-1 routing, partition 0: `x`, `y`, `rowptr`.
    pub part0: ArrayHistograms,
    /// Listing-1 routing, partition 1: `a`, `colidx`.
    pub part1: ArrayHistograms,
}

/// Method (B) profile: the measured-iteration `x`-trace distilled to
/// `(reuse distance, access gap)` pair counts (plus the cold tail).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XProfile {
    /// `(line reuse distance, access-count gap) -> occurrences`, one run
    /// per domain with any warm pair, in domain order: 12 B per distinct
    /// pair of a domain. Evaluation sums over the runs, so a pair several
    /// domains share is stored once per domain and never merged.
    pub runs: Vec<PairCounts>,
    /// Accesses cold in the measured iteration (counted as misses at
    /// every setting; cannot happen after a full warm-up, kept for
    /// fidelity with the streaming evaluation).
    pub cold: u64,
}

/// The method-specific payload of a [`LocalityProfile`].
//
// The variants differ in stack size, but there is exactly one of these
// per profile (and one partial per domain), never a collection of them —
// boxing the big variant would buy nothing and cost an indirection on
// every evaluation.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProfileKind {
    /// Method (A): full-trace histograms.
    Trace(TraceProfile),
    /// Method (B): `x`-trace pair counts.
    XTrace(XProfile),
}

/// A distillation of one matrix's trace analysis.
///
/// Valid against a machine with the same line size and cores-per-domain
/// topology ([`Self::evaluate`] asserts this). A method-(B) profile
/// answers any cache size and way split; a streaming method-(A) profile
/// answers the partition capacities of the sweep it was computed for
/// (its [`TrackedCaps`]), on any machine whose settings map to them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalityProfile {
    method: Method,
    threads: usize,
    line_bytes: usize,
    cores_per_domain: usize,
    x_array_bytes: usize,
    y_row_bytes: usize,
    x_refs: usize,
    companion0_bytes: usize,
    domains: Vec<DomainShare>,
    tracked: Option<TrackedCaps>,
    kind: ProfileKind,
}

/// One L2 domain's contribution to a profile, produced by
/// [`ProfileBuilder::domain_shard_partial`] and merged by
/// [`ProfileBuilder::finish`]. Domains are independent, so partials may be
/// computed on any thread in any order; merging in domain order keeps the
/// result identical to the sequential pipeline. A method-(A) partial may
/// cover only a slice of the tracked capacities (one shard); a domain's
/// shards are joined with [`Self::merge_shards`] before `finish`.
//
// Same trade-off as [`ProfileKind`]: a handful of instances per matrix,
// so the variant size gap is not worth a box.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DomainPartial {
    /// Method (A): one domain's marker counters per routing, over the
    /// capacities this partial tracked. A routing is `None` when it
    /// tracks none of them.
    Trace {
        /// Unpartitioned-routing counts.
        shared: Option<QuantizedCounts>,
        /// Listing-1 partition-0 counts.
        part0: Option<QuantizedCounts>,
        /// Listing-1 partition-1 counts.
        part1: Option<QuantizedCounts>,
    },
    /// Method (B): one domain's `(RD, gap)` pair counts and cold tail.
    XTrace {
        /// Pair counts of this domain's measured iteration, exactly
        /// sized: the run [`ProfileBuilder::finish`] keeps as it is.
        pairs: PairCounts,
        /// Cold accesses of this domain's measured iteration.
        cold: u64,
    },
}

impl DomainPartial {
    /// Joins one domain's shard partials (in shard order) into the
    /// partial an unsharded computation produces. A single partial, of
    /// either method, passes through unchanged.
    ///
    /// A marker stack's miss count at a capacity is independent of the
    /// other capacities the stack tracks, so concatenating each routing's
    /// per-capacity counts across the shards — every shard replayed the
    /// identical stream — reproduces the full-grid counters bit for bit
    /// (asserted: all shards must agree on the cold/access tallies).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty, holds several partials of which one
    /// is a method-(B) partial, or the shards' streams disagree.
    pub fn merge_shards(mut shards: Vec<DomainPartial>) -> DomainPartial {
        assert!(!shards.is_empty(), "need at least one shard partial");
        if shards.len() == 1 {
            return shards.pop().expect("one partial");
        }
        let mut parts: [Vec<QuantizedCounts>; 3] = Default::default();
        for shard in shards {
            match shard {
                DomainPartial::Trace {
                    shared,
                    part0,
                    part1,
                } => {
                    parts[0].extend(shared);
                    parts[1].extend(part0);
                    parts[2].extend(part1);
                }
                DomainPartial::XTrace { .. } => panic!("method (B) partials are not sharded"),
            }
        }
        let [shared, part0, part1] =
            parts.map(|p| (!p.is_empty()).then(|| QuantizedCounts::concat(p)));
        DomainPartial::Trace {
            shared,
            part0,
            part1,
        }
    }
}

/// The streaming trace pipeline behind [`LocalityProfile::compute`],
/// factored so independent L2 domains can run on separate threads.
///
/// Construction does the cheap shared setup (layout, work partition,
/// domain shares); [`domain_shard_partial`](Self::domain_shard_partial)
/// is a pure function of `&self`, the domain index and the capacity shard
/// — it streams the domain's interleaved references from cursors through
/// one scan → seed → measured-pass driver for both methods, buffering the
/// stream between the two passes when it fits a fixed budget and
/// generating it twice otherwise. [`finish`](Self::finish)
/// merges the partials in domain order and distils their counters into
/// histograms, so any parallel schedule produces the byte-identical
/// profile.
///
/// Generic over the storage format via [`SpmvWorkload`] (defaulting to
/// CSR, whose results are byte-identical to the historical CSR-only
/// pipeline).
pub struct ProfileBuilder<'m, W: SpmvWorkload = CsrMatrix> {
    workload: &'m W,
    method: Method,
    threads: usize,
    line_bytes: usize,
    cores_per_domain: usize,
    layout: DataLayout,
    partition: RowPartition,
    domains: Vec<DomainShare>,
    /// The marker stacks' capacity grids: `Some` exactly for method (A).
    tracked: Option<TrackedCaps>,
    /// [`Self::REPLAY_REFS_MAX`]; tests lower it to force the driver's
    /// regenerated branch.
    replay_refs_max: usize,
}

impl<'m, W: SpmvWorkload> ProfileBuilder<'m, W> {
    /// Sets up the pipeline for a sweep: for method (A) the trace analysis
    /// runs on marker stacks over the capacity grids `settings` will query
    /// under `cfg` ([`TrackedCaps::for_sweep`]) — O(#capacities) per
    /// reference — and the resulting profile answers `evaluate` exactly at
    /// those capacities (and only there, asserted). Method (B) needs exact
    /// distances for its `(RD, gap)` pairs, so it ignores `settings` and
    /// runs an exact stack; its profile answers every capacity.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn for_sweep(
        workload: &'m W,
        cfg: &MachineConfig,
        method: Method,
        threads: usize,
        settings: &[SectorSetting],
    ) -> Self {
        assert!(threads >= 1, "need at least one thread");
        let tracked = (method == Method::A).then(|| TrackedCaps::for_sweep(cfg, settings));
        let line_bytes = cfg.l2.line_bytes;
        let cores_per_domain = cfg.cores_per_domain;
        let layout = workload.layout(line_bytes);
        let partition = thread_partition(workload, threads);

        // Method (B) predicts all-zero for an empty workload before
        // tracing; mirror that so evaluation stays exact.
        let trivial = method == Method::B && workload.x_refs() == 0;

        // Domain shares (contiguous work-item spans, as in the per-domain
        // accounting of both methods).
        let mut domains = Vec::new();
        if !trivial {
            let num_parts = partition.num_parts();
            let num_domains = num_parts.div_ceil(cores_per_domain);
            for d in 0..num_domains {
                let t0 = d * cores_per_domain;
                let t1 = ((d + 1) * cores_per_domain).min(num_parts);
                let span = partition.range(t0).start..partition.range(t1 - 1).end;
                domains.push(workload.share(span));
            }
        }

        ProfileBuilder {
            workload,
            method,
            threads,
            line_bytes,
            cores_per_domain,
            layout,
            partition,
            domains,
            tracked,
            replay_refs_max: Self::REPLAY_REFS_MAX,
        }
    }

    /// Number of L2 domains (= number of partials [`finish`](Self::finish)
    /// expects).
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }

    /// The most capacity shards a domain's trace analysis can usefully be
    /// split into: the total number of tracked capacity slots across the
    /// three routings. 1 for method-(B) builders — their exact stack has
    /// no capacity grid to shard.
    pub fn max_shards(&self) -> usize {
        self.tracked.as_ref().map_or(1, |t| {
            (t.shared.len() + t.part0.len() + t.part1.len()).max(1)
        })
    }

    /// The slice of each routing's capacity grid that shard `shard` of
    /// `shards` owns: the grids are flattened `[shared, part0, part1]`
    /// and split into `shards` contiguous near-equal ranges.
    fn shard_grids(t: &TrackedCaps, shard: usize, shards: usize) -> (&[usize], &[usize], &[usize]) {
        fn slice(grid: &[usize], off: usize, lo: usize, hi: usize) -> &[usize] {
            let g_lo = lo.clamp(off, off + grid.len()) - off;
            let g_hi = hi.clamp(off, off + grid.len()) - off;
            &grid[g_lo..g_hi]
        }
        let total = t.shared.len() + t.part0.len() + t.part1.len();
        let lo = shard * total / shards;
        let hi = (shard + 1) * total / shards;
        (
            slice(&t.shared, 0, lo, hi),
            slice(&t.part0, t.shared.len(), lo, hi),
            slice(&t.part1, t.shared.len() + t.part0.len(), lo, hi),
        )
    }

    /// The per-domain driver of both methods. It scans domain `d`'s
    /// stream (every array for method (A), `x` only for method (B)) with a
    /// [`LastPosSink`] in place of the warm-up replay, hands the scan's
    /// last-access order — and the scan itself — to `seed`, which builds
    /// the measured consumer in its post-warm-up state, then runs the
    /// measured pass. A stream of at most `replay_refs_max` references is
    /// generated once into a buffer that [`Self::replay_buffered`] scans
    /// and replays; a longer one is generated a second time.
    fn run_domain<S: MeasuredSink>(
        &self,
        d: usize,
        seed: impl FnOnce(&[LastAccess], LastPosSink) -> S,
    ) -> S {
        let cursors = DomainCursors::new(
            self.workload,
            &self.layout,
            &self.partition,
            self.cores_per_domain,
        );
        let len = match self.method {
            Method::A => cursors.spmv_len(d),
            Method::B => cursors.x_len(d),
        };
        if len <= self.replay_refs_max {
            let mut buf = PackedVecSink::with_capacity(len);
            self.feed(&cursors, d, &mut buf);
            self.replay_buffered(buf.trace, seed)
        } else {
            let mut scan = LastPosSink::new(self.layout.total_lines());
            self.feed(&cursors, d, &mut scan);
            let mut sink = seed(&scan.lru_order(), scan);
            self.feed(&cursors, d, &mut sink);
            sink
        }
    }

    /// The driver's buffered branch: scans the recorded stream `refs` in
    /// place of the warm-up, hands the last-access order and the scan to
    /// `seed`, and replays `refs` into the seeded consumer as one run.
    fn replay_buffered<S: MeasuredSink>(
        &self,
        refs: Vec<PackedAccess>,
        seed: impl FnOnce(&[LastAccess], LastPosSink) -> S,
    ) -> S {
        let mut scan = LastPosSink::new(self.layout.total_lines());
        for &p in &refs {
            scan.advance(p);
        }
        let mut sink = seed(&scan.lru_order(), scan);
        sink.replay(refs);
        sink
    }

    /// Streams domain `d`'s references for the builder's method.
    fn feed<S: BlockSink>(&self, cursors: &DomainCursors<'_, W>, d: usize, sink: &mut S) {
        match self.method {
            Method::A => cursors.feed_spmv_blocks(d, sink),
            Method::B => cursors.feed_x_blocks(d, sink),
        }
    }

    /// Builds method (A)'s measured consumer over the given capacity
    /// grids in its post-warm-up state, for [`Self::run_domain`] or
    /// [`Self::replay_buffered`].
    fn marker_seed<'g>(
        &self,
        grids: (&'g [usize], &'g [usize], &'g [usize]),
    ) -> impl FnOnce(&[LastAccess], LastPosSink) -> MarkerSink + 'g {
        let universe = self.layout.total_lines() as usize;
        move |order, _| {
            let mut sink = MarkerSink::new(grids, universe);
            sink.seed_lru(order);
            sink
        }
    }

    /// Method (A)'s partial of one domain whose stream the caller recorded
    /// in `refs` (line ids of the builder's layout) instead of the
    /// builder's cursors — the L1-filtered ablation's
    /// ([`crate::two_level`]). The stream runs through the driver's
    /// buffered branch over every tracked capacity.
    ///
    /// # Panics
    ///
    /// Panics on a method-(B) builder.
    pub(crate) fn buffered_partial(&self, refs: Vec<PackedAccess>) -> DomainPartial {
        let t = self.tracked.as_ref().expect("a method (A) builder");
        let seed = self.marker_seed(Self::shard_grids(t, 0, 1));
        self.replay_buffered(refs, seed).partial()
    }

    /// Longest per-domain stream the driver will buffer for
    /// warm-up/measured single-generation replay: 4M packed references
    /// = 32 MiB. Beyond this the pipeline stays fully streaming and
    /// generates the stream twice instead.
    const REPLAY_REFS_MAX: usize = 1 << 22;

    /// Computes domain `d`'s contribution restricted to capacity shard
    /// `shard` of `shards`. Method (A) replays the domain's stream on
    /// marker stacks over only the shard's slice of the tracked capacity
    /// grids, so the `shards` partials of one domain can run on separate
    /// threads and [`DomainPartial::merge_shards`] reassembles the exact
    /// full-grid partial; `shards` may exceed
    /// [`max_shards`](Self::max_shards), and the surplus shards own empty
    /// grids and contribute nothing. Method (B) runs an exact stack over
    /// the `x` trace and has nothing to shard. `shard = 0, shards = 1` is
    /// the whole domain. Pure in `&self`: safe to call from any thread,
    /// in any order.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shards`, `d >= num_domains()`, or `shards > 1`
    /// on a method-(B) builder.
    pub fn domain_shard_partial(&self, d: usize, shard: usize, shards: usize) -> DomainPartial {
        assert!(shard < shards, "shard index {shard} out of range {shards}");
        let _span = obs::span("profile.domain");
        match &self.tracked {
            Some(t) => {
                let seed = self.marker_seed(Self::shard_grids(t, shard, shards));
                let sink = self.run_domain(d, seed);
                let _extract = obs::span("reuse_stack.extract");
                sink.flush_obs();
                sink.partial()
            }
            None => {
                assert_eq!(shards, 1, "method (B) builders run one shard per domain");
                let x_lines = self.layout.array_lines(Array::X) as usize;
                let sink =
                    self.run_domain(d, |order, scan| XPairSink::seeded(order, scan, x_lines));
                let _extract = obs::span("reuse_stack.extract");
                sink.stack.flush_obs();
                let cold = sink.cold;
                DomainPartial::XTrace {
                    pairs: sink.pairs(),
                    cold,
                }
            }
        }
    }

    /// Merges the per-domain partials (in domain order) into the profile,
    /// turning method (A)'s marker counters into per-array histograms.
    ///
    /// # Panics
    ///
    /// Panics if the partial count or kinds don't match the builder.
    pub fn finish(self, partials: Vec<DomainPartial>) -> LocalityProfile {
        assert_eq!(
            partials.len(),
            self.num_domains(),
            "one partial per domain required"
        );
        let kind = match self.method {
            Method::A => {
                let mut shared = ArrayHistograms::default();
                let mut part0 = ArrayHistograms::default();
                let mut part1 = ArrayHistograms::default();
                for partial in &partials {
                    match partial {
                        DomainPartial::Trace {
                            shared: s,
                            part0: p0,
                            part1: p1,
                        } => {
                            shared.merge_counts(s);
                            part0.merge_counts(p0);
                            part1.merge_counts(p1);
                        }
                        DomainPartial::XTrace { .. } => {
                            panic!("method (B) partial in method (A) build")
                        }
                    }
                }
                ProfileKind::Trace(TraceProfile {
                    shared,
                    part0,
                    part1,
                })
            }
            Method::B => {
                let mut runs = Vec::with_capacity(partials.len());
                let mut cold = 0u64;
                for partial in partials {
                    match partial {
                        DomainPartial::XTrace { pairs, cold: c } => {
                            if !pairs.is_empty() {
                                runs.push(pairs);
                            }
                            cold += c;
                        }
                        DomainPartial::Trace { .. } => {
                            panic!("method (A) partial in method (B) build")
                        }
                    }
                }
                runs.shrink_to_fit();
                let entries: usize = runs.iter().map(PairCounts::len).sum();
                obs::observe("core.xpair.profile_pairs", entries as u64);
                ProfileKind::XTrace(XProfile { runs, cold })
            }
        };
        LocalityProfile {
            method: self.method,
            threads: self.threads,
            line_bytes: self.line_bytes,
            cores_per_domain: self.cores_per_domain,
            x_array_bytes: self.workload.x_bytes(),
            y_row_bytes: self.workload.y_row_bytes(),
            x_refs: self.workload.x_refs(),
            companion0_bytes: self.workload.companion0_bytes(),
            domains: self.domains,
            tracked: self.tracked,
            kind,
        }
    }
}

impl LocalityProfile {
    /// Runs the trace analysis for `method` on `workload` with `threads`
    /// threads, for the sector sweep `settings` under `cfg`.
    ///
    /// Method (A) runs marker stacks over exactly the partition
    /// capacities `settings` query under `cfg` (see
    /// [`ProfileBuilder::for_sweep`]): the profile's answers there equal
    /// an exact replay's, and querying any other capacity panics. Method
    /// (B) reads only the machine *shape* (`l2.line_bytes`,
    /// `cores_per_domain`) and ignores `settings`.
    ///
    /// The pipeline is fully streaming: per-thread cursors are
    /// interleaved on demand and both routings of each replay share one
    /// generation pass. Any [`SpmvWorkload`] is accepted; a plain
    /// `&CsrMatrix` reproduces the historical CSR-only results byte for
    /// byte.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn compute<W: SpmvWorkload>(
        workload: &W,
        cfg: &MachineConfig,
        method: Method,
        threads: usize,
        settings: &[SectorSetting],
    ) -> Self {
        let _span = obs::span("profile.build");
        obs::add("core.profile.builds", 1);
        let builder = ProfileBuilder::for_sweep(workload, cfg, method, threads, settings);
        obs::observe("core.profile.domains", builder.num_domains() as u64);
        let partials = (0..builder.num_domains())
            .map(|d| builder.domain_shard_partial(d, 0, 1))
            .collect();
        builder.finish(partials)
    }

    /// The original materialise-then-replay pipeline, kept as the
    /// reference oracle for the streaming path (tests compare the two
    /// bit-for-bit). Its traces come from the independent
    /// `memtrace::spmv_trace`/`memtrace::xtrace` generators rather than the
    /// cursors the streaming path runs on. Buffers every per-thread trace
    /// and replays each domain twice, warm-up then measured, through
    /// exact stacks — prefer [`compute`](Self::compute).
    pub fn compute_materialized(
        matrix: &CsrMatrix,
        cfg: &MachineConfig,
        method: Method,
        threads: usize,
    ) -> Self {
        Self::replay_materialized(
            matrix,
            cfg,
            method,
            threads,
            |rows| DomainShare {
                rows: rows.len(),
                x_refs: (matrix.rowptr()[rows.end] - matrix.rowptr()[rows.start]) as usize,
                meta_elems: rows.len() + 1,
            },
            |layout, partition| match method {
                Method::A => trace_spmv_partitioned(matrix, layout, partition),
                Method::B => trace_x_partitioned(matrix, layout, partition),
            },
        )
    }

    /// Format-generic materialise-then-replay oracle: buffers every
    /// per-thread trace from the workload's cursors, then replays each
    /// domain through the buffered [`DomainTraces`] pipeline — an
    /// independent cross-check of the streaming [`DomainCursors`]
    /// interleaving for any [`SpmvWorkload`]. For CSR it reproduces
    /// [`compute_materialized`](Self::compute_materialized) exactly;
    /// prefer [`compute`](Self::compute) outside validation.
    pub fn compute_materialized_workload<W: SpmvWorkload>(
        workload: &W,
        cfg: &MachineConfig,
        method: Method,
        threads: usize,
    ) -> Self {
        Self::replay_materialized(
            workload,
            cfg,
            method,
            threads,
            |items| workload.share(items),
            |layout, partition| {
                (0..partition.num_parts())
                    .map(|t| {
                        let mut sink = memtrace::VecSink::new();
                        match method {
                            Method::A => workload
                                .trace_cursor(layout, partition.range(t))
                                .drain_into(&mut sink),
                            Method::B => workload
                                .x_trace_cursor(layout, partition.range(t))
                                .drain_into(&mut sink),
                        }
                        sink.trace
                    })
                    .collect()
            },
        )
    }

    /// The replay body both materialized oracles share. `share` gives a
    /// domain's accounting for a span of work items; `per_thread` produces
    /// each thread's buffered trace — every array for method (A), `x` only
    /// for method (B). The traces are grouped into L2 domains and each
    /// domain is replayed twice (warm-up, then measured), one reference
    /// at a time: method (A) through one sink holding the unpartitioned
    /// exact stack and the Listing-1 pair, method (B) on an exact stack
    /// paired with a reuse-gap clock, counting each domain's pairs in its
    /// own hash map.
    fn replay_materialized<W: SpmvWorkload>(
        workload: &W,
        cfg: &MachineConfig,
        method: Method,
        threads: usize,
        share: impl Fn(std::ops::Range<usize>) -> DomainShare,
        per_thread: impl FnOnce(&DataLayout, &RowPartition) -> Vec<Vec<Access>>,
    ) -> Self {
        assert!(threads >= 1, "need at least one thread");
        let line_bytes = cfg.l2.line_bytes;
        let cores_per_domain = cfg.cores_per_domain;

        let mut profile = LocalityProfile {
            method,
            threads,
            line_bytes,
            cores_per_domain,
            x_array_bytes: workload.x_bytes(),
            y_row_bytes: workload.y_row_bytes(),
            x_refs: workload.x_refs(),
            companion0_bytes: workload.companion0_bytes(),
            domains: Vec::new(),
            tracked: None,
            kind: ProfileKind::XTrace(XProfile {
                runs: Vec::new(),
                cold: 0,
            }),
        };

        // Method (B) predicts all-zero for an empty workload before
        // tracing; mirror that so evaluation stays exact.
        if method == Method::B && workload.x_refs() == 0 {
            return profile;
        }

        let layout = workload.layout(line_bytes);
        let partition = thread_partition(workload, threads);
        let num_parts = partition.num_parts();
        for d in 0..num_parts.div_ceil(cores_per_domain) {
            let t0 = d * cores_per_domain;
            let t1 = ((d + 1) * cores_per_domain).min(num_parts);
            profile.domains.push(share(
                partition.range(t0).start..partition.range(t1 - 1).end,
            ));
        }

        let domains = DomainTraces::group(per_thread(&layout, &partition), cores_per_domain);
        match method {
            Method::A => {
                let mut shared = ArrayHistograms::default();
                let mut part0 = ArrayHistograms::default();
                let mut part1 = ArrayHistograms::default();
                for d in 0..domains.num_domains() {
                    let mut sink = HistogramSink::new(&layout);
                    domains.feed_domain(d, &mut sink); // warm-up
                    sink.measuring = true;
                    domains.feed_domain(d, &mut sink); // measured
                    shared.merge(&sink.shared.histograms());
                    part0.merge(&sink.part0.histograms());
                    part1.merge(&sink.part1.histograms());
                }
                profile.kind = ProfileKind::Trace(TraceProfile {
                    shared,
                    part0,
                    part1,
                });
            }
            Method::B => {
                let mut runs = Vec::new();
                let mut cold = 0u64;
                for d in 0..domains.num_domains() {
                    let mut pairs: FxHashMap<(u64, u64), usize> = FxHashMap::default();
                    let mut interleaved = memtrace::VecSink::new();
                    domains.feed_domain(d, &mut interleaved);
                    let trace = &interleaved.trace;
                    let mut stack =
                        ExactStack::with_line_universe(layout.array_lines(Array::X) as usize);
                    // Each line's last access time, dense over the layout's
                    // line ids: `time + 1`, 0 = not yet seen.
                    let mut last_seen = vec![0u64; layout.total_lines() as usize];
                    // Warm-up iteration.
                    for (t, a) in trace.iter().enumerate() {
                        stack.touch(a.line);
                        last_seen[a.line as usize] = t as u64 + 1;
                    }
                    // Measured iteration.
                    let offset = trace.len() as u64;
                    for (t, a) in trace.iter().enumerate() {
                        let now = offset + t as u64;
                        let rd = stack.access(a.line);
                        let prev = std::mem::replace(&mut last_seen[a.line as usize], now + 1);
                        match (rd, prev.checked_sub(1).map(|prev| now - prev)) {
                            (Some(rd), Some(g)) => *pairs.entry((rd, g)).or_insert(0) += 1,
                            _ => cold += 1,
                        }
                    }
                    // Counted by hashing, not by the streaming path's
                    // sorted keys; only the result takes the shared
                    // container, one run per domain with warm pairs.
                    if !pairs.is_empty() {
                        runs.push(PairCounts::from_distinct(pairs));
                    }
                }
                profile.kind = ProfileKind::XTrace(XProfile { runs, cold });
            }
        }
        profile
    }

    /// The method this profile was computed for.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The thread count this profile was computed for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The cache-line size the trace was laid out with.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// The cores-per-domain topology the trace was grouped with.
    pub fn cores_per_domain(&self) -> usize {
        self.cores_per_domain
    }

    /// The per-domain workload shares (rows, `x` references, metadata
    /// elements).
    pub fn domains(&self) -> &[DomainShare] {
        &self.domains
    }

    /// The method-specific payload (histograms or pair counts).
    pub fn kind(&self) -> &ProfileKind {
        &self.kind
    }

    /// Evaluates the profile for every setting of a sweep.
    ///
    /// Reproduces [`predict`](crate::predict::predict) for the matrix the
    /// profile was computed from, in time independent of the trace length.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` disagrees with the profile's machine shape
    /// (line size or cores per domain).
    pub fn evaluate(&self, cfg: &MachineConfig, settings: &[SectorSetting]) -> Vec<Prediction> {
        assert_eq!(
            cfg.l2.line_bytes, self.line_bytes,
            "profile computed for a different line size"
        );
        assert_eq!(
            cfg.cores_per_domain, self.cores_per_domain,
            "profile computed for a different domain topology"
        );
        match &self.kind {
            ProfileKind::Trace(t) => self.evaluate_trace(t, cfg, settings),
            ProfileKind::XTrace(x) => self.evaluate_xtrace(x, cfg, settings),
        }
    }

    fn evaluate_trace(
        &self,
        t: &TraceProfile,
        cfg: &MachineConfig,
        settings: &[SectorSetting],
    ) -> Vec<Prediction> {
        settings
            .iter()
            .map(|&setting| {
                let mut by_array = [0u64; 5];
                let (cap0, cap1) = (setting.cap0_lines(cfg), setting.cap1_lines(cfg));
                match setting {
                    SectorSetting::Off => {
                        if let Some(tracked) = &self.tracked {
                            assert!(
                                TrackedCaps::covers(&tracked.shared, cap0),
                                "sweep profile does not track shared capacity {cap0}"
                            );
                        }
                        for a in Array::ALL {
                            by_array[a as usize] = t.shared.misses_of(a, cap0);
                        }
                    }
                    SectorSetting::L2Ways(_) => {
                        if let Some(tracked) = &self.tracked {
                            assert!(
                                TrackedCaps::covers(&tracked.part0, cap0)
                                    && TrackedCaps::covers(&tracked.part1, cap1),
                                "sweep profile does not track partition capacities \
                                 ({cap0}, {cap1})"
                            );
                        }
                        for a in [Array::X, Array::Y, Array::RowPtr] {
                            by_array[a as usize] = t.part0.misses_of(a, cap0);
                        }
                        for a in [Array::A, Array::ColIdx] {
                            by_array[a as usize] = t.part1.misses_of(a, cap1);
                        }
                    }
                }
                Prediction {
                    setting,
                    l2_misses: by_array.iter().sum(),
                    by_array,
                }
            })
            .collect()
    }

    fn evaluate_xtrace(
        &self,
        x: &XProfile,
        cfg: &MachineConfig,
        settings: &[SectorSetting],
    ) -> Vec<Prediction> {
        if self.x_refs == 0 {
            return settings
                .iter()
                .map(|&setting| Prediction {
                    setting,
                    l2_misses: 0,
                    by_array: [0; 5],
                })
                .collect();
        }
        let line = cfg.l2.line_bytes;
        let s1 = scale_part0(self.companion0_bytes, self.x_refs);
        let s2 = scale_unpart(self.companion0_bytes, self.x_refs);

        // Per setting: companion lines per intervening x access, and
        // partition-0 capacity (see method (B)'s derivation in `crate::predict`).
        let x_misses: Vec<u64> = settings
            .iter()
            .map(|s| {
                let scale = match s {
                    SectorSetting::Off => s2,
                    SectorSetting::L2Ways(_) => s1,
                };
                let companion = (scale - 1.0) * 8.0 / line as f64;
                let cap0 = s.cap0_lines(cfg) as f64;
                let warm: u64 = x.runs.iter().map(|run| run.misses(companion, cap0)).sum();
                x.cold + warm
            })
            .collect();

        let mut preds: Vec<Prediction> = settings
            .iter()
            .zip(&x_misses)
            .map(|(&setting, &xm)| {
                let mut by_array = [0u64; 5];
                by_array[Array::X as usize] = xm;
                Prediction {
                    setting,
                    l2_misses: xm,
                    by_array,
                }
            })
            .collect();

        // Analytic streaming terms per domain.
        for share in &self.domains {
            let (rows_d, x_refs_d, meta_d) = (share.rows, share.x_refs, share.meta_elems);
            if x_refs_d == 0 && rows_d == 0 {
                continue;
            }
            let terms = StreamTerms {
                a: crate::analytic::stream_misses_a(x_refs_d, line),
                colidx: crate::analytic::stream_misses_colidx(x_refs_d, line),
                rowptr: crate::analytic::stream_misses_meta(meta_d, line),
                y: crate::analytic::stream_misses_y(rows_d * (self.y_row_bytes / 8), line),
            };
            let matrix_bytes_d = x_refs_d * 12 + meta_d * 8;
            let reusable_bytes_d = self.x_array_bytes + rows_d * self.y_row_bytes + meta_d * 8;
            let working_set_d = matrix_bytes_d + self.x_array_bytes + rows_d * self.y_row_bytes;

            for (i, &setting) in settings.iter().enumerate() {
                let p = &mut preds[i];
                match setting {
                    SectorSetting::Off => {
                        if working_set_d <= cfg.l2.size_bytes {
                            continue;
                        }
                        p.by_array[Array::A as usize] += terms.a;
                        p.by_array[Array::ColIdx as usize] += terms.colidx;
                        p.by_array[Array::RowPtr as usize] += terms.rowptr;
                        p.by_array[Array::Y as usize] += terms.y;
                    }
                    SectorSetting::L2Ways(_) => {
                        let cap1_bytes = setting.cap1_lines(cfg) * line;
                        let cap0_bytes = setting.cap0_lines(cfg) * line;
                        if matrix_bytes_d > cap1_bytes {
                            p.by_array[Array::A as usize] += terms.a;
                            p.by_array[Array::ColIdx as usize] += terms.colidx;
                        }
                        if reusable_bytes_d > cap0_bytes {
                            p.by_array[Array::RowPtr as usize] += terms.rowptr;
                            p.by_array[Array::Y as usize] += terms.y;
                        }
                    }
                }
            }
        }

        // Class-(1) override for the unpartitioned case: when every
        // domain's working set fits, steady state has no misses at all.
        let all_fit = self.domains.iter().all(|share| {
            let ws = share.x_refs * 12
                + share.meta_elems * 8
                + self.x_array_bytes
                + share.rows * self.y_row_bytes;
            ws <= cfg.l2.size_bytes
        });
        if all_fit {
            for (i, &setting) in settings.iter().enumerate() {
                if setting == SectorSetting::Off {
                    preds[i].by_array = [0; 5];
                }
            }
        }

        for p in &mut preds {
            p.l2_misses = p.by_array.iter().sum();
        }
        preds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::predict;
    use sparsemat::CooMatrix;

    fn random_matrix(n: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
        let mut state = seed | 1;
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            for _ in 0..nnz_per_row {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
                coo.push(r, (state >> 33) as usize % n);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn one_profile_serves_every_setting() {
        let m = random_matrix(2048, 12, 3);
        let cfg = MachineConfig::a64fx_scaled(64);
        let settings = SectorSetting::paper_sweep();
        for method in [Method::A, Method::B] {
            let profile = LocalityProfile::compute(&m, &cfg, method, 1, &settings);
            let batch = profile.evaluate(&cfg, &settings);
            // Per-setting evaluation of the same profile agrees with the
            // batch evaluation and with the one-shot API.
            for (i, &s) in settings.iter().enumerate() {
                assert_eq!(
                    profile.evaluate(&cfg, &[s])[0],
                    batch[i],
                    "{method:?} {s:?}"
                );
            }
            assert_eq!(batch, predict(&m, &cfg, method, &settings, 1), "{method:?}");
        }
    }

    #[test]
    fn method_b_profile_is_reusable_across_capacity_scales() {
        // A method-(B) profile answers machines differing only in cache
        // size (same line size and topology). Method (A) tracks only its
        // sweep's capacities, so it has no such property.
        let m = random_matrix(1024, 8, 11);
        let small = MachineConfig::a64fx_scaled(64);
        let large = MachineConfig::a64fx_scaled(16);
        assert_eq!(small.l2.line_bytes, large.l2.line_bytes);
        let settings = [SectorSetting::Off, SectorSetting::L2Ways(4)];
        let profile = LocalityProfile::compute(&m, &small, Method::B, 1, &settings);
        assert!(profile.tracked.is_none());
        assert_eq!(
            profile.evaluate(&large, &settings),
            predict(&m, &large, Method::B, &settings, 1)
        );
    }

    #[test]
    fn parallel_profiles_match_predict() {
        let m = random_matrix(2048, 12, 31);
        let mut cfg = MachineConfig::a64fx_scaled(64);
        cfg.cores_per_domain = 2;
        let settings = [SectorSetting::Off, SectorSetting::L2Ways(4)];
        for method in [Method::A, Method::B] {
            let profile = LocalityProfile::compute(&m, &cfg, method, 8, &settings);
            assert_eq!(
                profile.evaluate(&cfg, &settings),
                predict(&m, &cfg, method, &settings, 8),
                "{method:?}"
            );
        }
    }

    #[test]
    fn empty_matrix_profiles() {
        let m = CooMatrix::new(8, 8).to_csr();
        let cfg = MachineConfig::a64fx_scaled(64);
        let settings = [SectorSetting::Off, SectorSetting::L2Ways(3)];
        for method in [Method::A, Method::B] {
            let profile = LocalityProfile::compute(&m, &cfg, method, 1, &settings);
            assert_eq!(
                profile.evaluate(&cfg, &settings),
                predict(&m, &cfg, method, &settings, 1)
            );
        }
    }

    #[test]
    fn streaming_matches_materialized_oracle() {
        // The streaming pipeline — marker stacks for method (A), an exact
        // stack for method (B) — must reproduce the buffered exact
        // reference pipeline bit-for-bit at the sweep's capacities, across
        // thread counts and domain widths.
        let m = random_matrix(1024, 10, 77);
        let settings = SectorSetting::paper_sweep();
        for (threads, cores_per_domain) in [(1, 12), (5, 2), (8, 3), (8, 4)] {
            let mut cfg = MachineConfig::a64fx_scaled(64);
            cfg.cores_per_domain = cores_per_domain;
            for method in [Method::A, Method::B] {
                let streaming = LocalityProfile::compute(&m, &cfg, method, threads, &settings);
                let oracle = LocalityProfile::compute_materialized(&m, &cfg, method, threads);
                assert_eq!(
                    streaming.evaluate(&cfg, &settings),
                    oracle.evaluate(&cfg, &settings),
                    "{method:?} threads={threads} cpd={cores_per_domain}"
                );
                assert_eq!(streaming.domains(), oracle.domains());
                assert_eq!(streaming.tracked.is_some(), method == Method::A);
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not track")]
    fn sweep_profile_rejects_untracked_capacity() {
        let m = random_matrix(256, 6, 23);
        let cfg = MachineConfig::a64fx_scaled(64);
        let profile = LocalityProfile::compute(&m, &cfg, Method::A, 1, &[SectorSetting::L2Ways(4)]);
        profile.evaluate(&cfg, &[SectorSetting::L2Ways(5)]);
    }

    #[test]
    fn domain_partials_merge_identically_in_any_computation_order() {
        let m = random_matrix(900, 9, 41);
        let mut cfg = MachineConfig::a64fx_scaled(64);
        cfg.cores_per_domain = 2;
        let settings = SectorSetting::paper_sweep();
        for method in [Method::A, Method::B] {
            let builder = ProfileBuilder::for_sweep(&m, &cfg, method, 8, &settings);
            assert!(builder.num_domains() > 1, "test needs several domains");
            // Compute partials back-to-front, hand them over in order.
            let mut partials: Vec<DomainPartial> = (0..builder.num_domains())
                .rev()
                .map(|d| builder.domain_shard_partial(d, 0, 1))
                .collect();
            partials.reverse();
            let profile = builder.finish(partials);
            let reference = LocalityProfile::compute(&m, &cfg, method, 8, &settings);
            assert_eq!(profile, reference, "{method:?}");
        }
    }

    /// Sharded partials, merged per domain, must reproduce the unsharded
    /// tracked pipeline bit for bit — for any shard count, including
    /// counts exceeding the capacity-slot total (surplus shards are
    /// empty).
    fn assert_sharding_is_exact<W: SpmvWorkload>(workload: &W, threads: usize, cpd: usize) {
        let mut cfg = MachineConfig::a64fx_scaled(64);
        cfg.cores_per_domain = cpd;
        let settings = SectorSetting::paper_sweep();
        let builder = ProfileBuilder::for_sweep(workload, &cfg, Method::A, threads, &settings);
        let reference: Vec<DomainPartial> = (0..builder.num_domains())
            .map(|d| builder.domain_shard_partial(d, 0, 1))
            .collect();
        assert!(builder.max_shards() > 1, "paper sweep tracks many slots");
        for shards in [1, 2, 3, 7, 16] {
            let merged: Vec<DomainPartial> = (0..builder.num_domains())
                .map(|d| {
                    DomainPartial::merge_shards(
                        (0..shards)
                            .map(|s| builder.domain_shard_partial(d, s, shards))
                            .collect(),
                    )
                })
                .collect();
            assert_eq!(merged, reference, "shards={shards}");
        }
        // And through finish(): a profile assembled from 7-way sharded,
        // per-domain-merged partials equals the direct computation.
        let merged: Vec<DomainPartial> = (0..builder.num_domains())
            .map(|d| {
                DomainPartial::merge_shards(
                    (0..7)
                        .map(|s| builder.domain_shard_partial(d, s, 7))
                        .collect(),
                )
            })
            .collect();
        let sharded = builder.finish(merged);
        let direct = LocalityProfile::compute(workload, &cfg, Method::A, threads, &settings);
        assert_eq!(sharded, direct);
    }

    #[test]
    fn sharded_csr_partials_merge_to_unsharded() {
        let m = random_matrix(1200, 9, 63);
        assert_sharding_is_exact(&m, 8, 3);
        assert_sharding_is_exact(&m, 1, 12);
    }

    #[test]
    fn sharded_sell_partials_merge_to_unsharded() {
        let m = random_matrix(1024, 8, 29);
        let sell = sparsemat::SellMatrix::from_csr(&m, 8, 32);
        assert_sharding_is_exact(&sell, 5, 2);
    }

    /// Both branches of the per-domain driver — the measured pass
    /// replaying the scan's buffer, and the stream generated a second
    /// time — must give the same partial, for both methods.
    fn assert_replay_branches_agree<W: SpmvWorkload>(workload: &W) {
        let mut cfg = MachineConfig::a64fx_scaled(64);
        cfg.cores_per_domain = 2;
        let settings = SectorSetting::paper_sweep();
        for method in [Method::A, Method::B] {
            let mut builder = ProfileBuilder::for_sweep(workload, &cfg, method, 5, &settings);
            assert!(builder.num_domains() > 1, "test needs several domains");
            for d in 0..builder.num_domains() {
                builder.replay_refs_max = usize::MAX;
                let buffered = builder.domain_shard_partial(d, 0, 1);
                builder.replay_refs_max = 0;
                let regenerated = builder.domain_shard_partial(d, 0, 1);
                assert_eq!(buffered, regenerated, "{method:?} domain {d}");
                if let DomainPartial::XTrace { pairs, .. } = &buffered {
                    assert!(!pairs.is_empty(), "domain {d} has warm x reuse");
                }
            }
        }
    }

    #[test]
    fn buffered_and_regenerated_csr_domains_agree() {
        assert_replay_branches_agree(&random_matrix(1200, 9, 71));
    }

    #[test]
    fn buffered_and_regenerated_sell_domains_agree() {
        let m = random_matrix(1024, 8, 73);
        assert_replay_branches_agree(&sparsemat::SellMatrix::from_csr(&m, 8, 32));
    }

    #[test]
    #[should_panic(expected = "method (B) partials are not sharded")]
    fn merge_shards_rejects_method_b_shards() {
        let x = || DomainPartial::XTrace {
            pairs: PairCounts::default(),
            cold: 0,
        };
        DomainPartial::merge_shards(vec![x(), x()]);
    }

    /// `n` packed keys from a fixed LCG, a third of them with `rd` or
    /// `gap` at the packing edges (0 and `u32::MAX - 1`).
    fn edge_keys(n: usize, seed: u64) -> Vec<u64> {
        let edge = u64::from(u32::MAX) - 1;
        let mut state = seed | 1;
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
                let (rd, gap) = ((state >> 40) % 50, (state >> 20) % 30);
                match i % 6 {
                    0 => PairCounts::pack(edge, gap),
                    1 => PairCounts::pack(rd, edge),
                    2 => PairCounts::pack(edge, edge - (state >> 62)),
                    3 => PairCounts::pack(0, gap),
                    _ => PairCounts::pack(rd, gap),
                }
            })
            .collect()
    }

    /// `keys` counted by a `BTreeMap`, as `(rd, gap, count)` in order.
    fn reference_counts<'k>(keys: impl IntoIterator<Item = &'k u64>) -> Vec<(u64, u64, u64)> {
        let mut map = std::collections::BTreeMap::new();
        for &key in keys {
            *map.entry((key >> 32, key & u64::from(u32::MAX)))
                .or_insert(0) += 1;
        }
        map.into_iter().map(|((rd, gap), n)| (rd, gap, n)).collect()
    }

    #[test]
    fn pair_counts_run_length_encode_like_a_btreemap() {
        for (n, seed) in [(0, 1), (1, 2), (7, 3), (5000, 4)] {
            let keys = edge_keys(n, seed);
            let expected = reference_counts(&keys);
            let pairs = PairCounts::from_keys(keys);
            assert_eq!(pairs.iter().collect::<Vec<_>>(), expected, "n={n}");
            assert_eq!(pairs.len(), expected.len());
            assert_eq!(pairs.heap_bytes(), 12 * pairs.len(), "n={n}");
            // The oracle's route: distinct pairs in hash order, collected.
            let collected = PairCounts::from_distinct(
                expected
                    .iter()
                    .rev()
                    .map(|&(rd, gap, n)| ((rd, gap), n as usize)),
            );
            assert_eq!(collected, pairs, "n={n}");
        }
        let edge = u64::from(u32::MAX) - 1;
        let pairs = PairCounts::from_keys(vec![PairCounts::pack(edge, edge); 3]);
        assert_eq!(pairs.iter().collect::<Vec<_>>(), [(edge, edge, 3)]);
    }

    #[test]
    #[should_panic(expected = "exceeds the packed key")]
    fn pair_counts_reject_values_beyond_the_packing() {
        PairCounts::pack(0, u64::from(u32::MAX));
    }

    #[test]
    fn method_b_runs_are_stored_at_12_bytes_per_entry() {
        // A wider count or a tuple record breaks this bound.
        let m = random_matrix(1500, 9, 13);
        let settings = SectorSetting::paper_sweep();
        for (threads, cpd) in [(1, 12), (8, 2)] {
            let mut cfg = MachineConfig::a64fx_scaled(64);
            cfg.cores_per_domain = cpd;
            // Both branches of the driver: keys collected in the replay
            // buffer, and keys pushed from a regenerated stream.
            for budget in [usize::MAX, 0] {
                let mut builder =
                    ProfileBuilder::for_sweep(&m, &cfg, Method::B, threads, &settings);
                builder.replay_refs_max = budget;
                let partials = (0..builder.num_domains())
                    .map(|d| builder.domain_shard_partial(d, 0, 1))
                    .collect();
                let profile = builder.finish(partials);
                let ProfileKind::XTrace(x) = profile.kind() else {
                    unreachable!("method (B) profile")
                };
                assert_eq!(x.runs.len(), profile.domains().len(), "threads={threads}");
                let entries: usize = x.runs.iter().map(PairCounts::len).sum();
                assert!(entries > 1000, "threads={threads}: {entries}");
                for (d, run) in x.runs.iter().enumerate() {
                    assert!(
                        run.heap_bytes() <= 12 * run.len(),
                        "threads={threads} budget={budget} run {d}: {} B for {} pairs",
                        run.heap_bytes(),
                        run.len()
                    );
                }
            }
        }
    }

    #[test]
    fn tracked_caps_fingerprints_discriminate() {
        let cfg = MachineConfig::a64fx_scaled(64);
        let sweep = TrackedCaps::for_sweep(&cfg, &SectorSetting::paper_sweep());
        let off_only = TrackedCaps::for_sweep(&cfg, &[SectorSetting::Off]);
        assert_ne!(sweep.fingerprint(), off_only.fingerprint());
        assert_ne!(
            sweep.fingerprint(),
            0,
            "0 is reserved for method (B) profiles"
        );
        assert_eq!(
            sweep.fingerprint(),
            TrackedCaps::for_sweep(&cfg, &SectorSetting::paper_sweep()).fingerprint(),
            "fingerprint must be deterministic"
        );
        assert!(off_only.part0.is_empty() && off_only.part1.is_empty());
    }

    #[test]
    fn generic_materialized_oracle_matches_csr_oracle() {
        // The format-generic oracle must agree with the verbatim CSR
        // oracle (and hence with the streaming pipeline) bit for bit.
        let m = random_matrix(700, 7, 57);
        let mut cfg = MachineConfig::a64fx_scaled(64);
        cfg.cores_per_domain = 3;
        let settings = SectorSetting::paper_sweep();
        for method in [Method::A, Method::B] {
            for threads in [1, 8] {
                let csr_oracle = LocalityProfile::compute_materialized(&m, &cfg, method, threads);
                let generic =
                    LocalityProfile::compute_materialized_workload(&m, &cfg, method, threads);
                assert_eq!(
                    generic.evaluate(&cfg, &settings),
                    csr_oracle.evaluate(&cfg, &settings),
                    "{method:?} threads={threads}"
                );
                assert_eq!(generic.domains(), csr_oracle.domains());
            }
        }
    }

    #[test]
    fn sell_streaming_matches_sell_materialized_oracle() {
        // The streaming pipeline and the materialise-then-replay oracle
        // must agree for SELL-C-σ workloads too, across thread counts and
        // domain widths.
        let m = random_matrix(2048, 12, 91);
        let sell = sparsemat::SellMatrix::from_csr(&m, 8, 32);
        let settings = SectorSetting::paper_sweep();
        for (threads, cores_per_domain) in [(1, 12), (5, 2)] {
            let mut cfg = MachineConfig::a64fx_scaled(64);
            cfg.cores_per_domain = cores_per_domain;
            for method in [Method::A, Method::B] {
                let streaming = LocalityProfile::compute(&sell, &cfg, method, threads, &settings);
                let oracle =
                    LocalityProfile::compute_materialized_workload(&sell, &cfg, method, threads);
                assert_eq!(
                    streaming.evaluate(&cfg, &settings),
                    oracle.evaluate(&cfg, &settings),
                    "{method:?} threads={threads} cpd={cores_per_domain}"
                );
                assert_eq!(streaming.domains(), oracle.domains());
                assert!(streaming.evaluate(&cfg, &settings)[0].l2_misses > 0);
            }
        }
    }

    #[test]
    fn sell_c1_sigma1_tracks_csr_profile() {
        // SELL with C=1, σ=1 keeps rows in order with no padding; its
        // method (A) shared-routing misses match CSR's exactly (the trace
        // differs only in the metadata stream: one chunk descriptor per
        // row instead of rows+1 row pointers).
        let m = random_matrix(1024, 9, 17);
        let sell = sparsemat::SellMatrix::from_csr(&m, 1, 1);
        assert_eq!(sell.stored_entries(), m.nnz());
        let cfg = MachineConfig::a64fx_scaled(64);
        let settings = [SectorSetting::Off, SectorSetting::L2Ways(4)];
        for method in [Method::A, Method::B] {
            let pc =
                LocalityProfile::compute(&m, &cfg, method, 1, &settings).evaluate(&cfg, &settings);
            let ps = LocalityProfile::compute(&sell, &cfg, method, 1, &settings)
                .evaluate(&cfg, &settings);
            for (c, s) in pc.iter().zip(&ps) {
                // x-gather misses see the same reference stream modulo the
                // interleaved metadata loads; allow a small relative gap.
                let (c, s) = (c.l2_misses as f64, s.l2_misses as f64);
                let rel = (c - s).abs() / c.max(1.0);
                assert!(rel < 0.05, "{method:?}: csr={c} sell={s} rel={rel}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "different line size")]
    fn mismatched_line_size_rejected() {
        let m = random_matrix(64, 3, 1);
        let cfg = MachineConfig::a64fx_scaled(64);
        let profile = LocalityProfile::compute(&m, &cfg, Method::A, 1, &[SectorSetting::Off]);
        let mut other = cfg.clone();
        other.l2.line_bytes /= 2;
        profile.evaluate(&other, &[SectorSetting::Off]);
    }
}
