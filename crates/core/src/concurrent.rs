//! Concurrent reuse-distance plumbing shared by methods (A) and (B).
//!
//! For parallel SpMV the paper records per-thread traces (each thread's
//! assigned row block) and interleaves the traces of the threads sharing
//! each L2 (§3.2.1). This module builds the per-domain thread groups and
//! feeds their interleaved references into arbitrary sinks.
//!
//! The interleaving used for *prediction* is the deterministic round-robin
//! order (equal thread progress) — the order the FIFO-fair MCS collation
//! approximates; `memtrace::interleave::mcs_interleave` provides the real
//! concurrent variant for validation.

use a64fx::MachineConfig;
use memtrace::cursor::TraceCursor;
use memtrace::interleave::{domain_groups, round_robin_cursors_blocks, round_robin_into};
use memtrace::{Access, BlockSink, DataLayout, SpmvWorkload, TraceSink};
use sparsemat::RowPartition;
use std::ops::Range;

/// Per-thread traces grouped by L2 domain.
pub struct DomainTraces {
    /// `groups[d]` holds the traces of the threads sharing domain `d`.
    pub groups: Vec<Vec<Vec<Access>>>,
}

impl DomainTraces {
    /// Groups per-thread traces into domains of `cores_per_domain`.
    pub fn group(per_thread: Vec<Vec<Access>>, cores_per_domain: usize) -> Self {
        let ranges = domain_groups(per_thread.len(), cores_per_domain);
        let mut iter = per_thread.into_iter();
        let groups = ranges
            .iter()
            .map(|r| (&mut iter).take(r.len()).collect())
            .collect();
        DomainTraces { groups }
    }

    /// Number of domains.
    pub fn num_domains(&self) -> usize {
        self.groups.len()
    }

    /// Feeds domain `d`'s round-robin interleaved reference stream into a
    /// sink (one reference per thread per turn, as equal-rate threads
    /// would submit them).
    pub fn feed_domain<S: TraceSink>(&self, d: usize, sink: &mut S) {
        round_robin_into(&self.groups[d], 1, sink);
    }
}

/// Streaming per-domain trace access — the zero-materialization
/// counterpart of [`DomainTraces`], and the feed of every production
/// reader of a domain's reference stream.
///
/// Instead of grouping buffered per-thread traces, this factory hands out
/// fresh per-thread *cursors* for any domain on demand and merges them in
/// blocks, in the same round-robin order [`DomainTraces::feed_domain`]
/// uses. A replay (e.g. the warm-up and measured iterations of the
/// locality model) is just another `feed_*_blocks` call: total state is
/// O(threads in the domain) and no reference is ever buffered. With
/// `cores_per_domain = 1` every "domain" is one thread's private stream.
///
/// Generic over the storage format: the cursors come from the
/// [`SpmvWorkload`] trait, so the same plumbing serves CSR row blocks and
/// SELL-C-σ chunk blocks.
pub struct DomainCursors<'a, W: SpmvWorkload> {
    workload: &'a W,
    layout: &'a DataLayout,
    partition: &'a RowPartition,
    spans: Vec<Range<usize>>,
}

impl<'a, W: SpmvWorkload> DomainCursors<'a, W> {
    /// Groups the partition's threads into domains of `cores_per_domain`.
    pub fn new(
        workload: &'a W,
        layout: &'a DataLayout,
        partition: &'a RowPartition,
        cores_per_domain: usize,
    ) -> Self {
        let spans = domain_groups(partition.num_parts(), cores_per_domain);
        DomainCursors {
            workload,
            layout,
            partition,
            spans,
        }
    }

    /// Number of domains.
    pub fn num_domains(&self) -> usize {
        self.spans.len()
    }

    /// Fresh method (A) cursors for domain `d`'s threads.
    fn spmv_cursors(&self, d: usize) -> Vec<W::Cursor<'a>> {
        self.spans[d]
            .clone()
            .map(|t| {
                self.workload
                    .trace_cursor(self.layout, self.partition.range(t))
            })
            .collect()
    }

    /// Fresh method (B) cursors for domain `d`'s threads.
    fn x_cursors(&self, d: usize) -> Vec<W::XCursor<'a>> {
        self.spans[d]
            .clone()
            .map(|t| {
                self.workload
                    .x_trace_cursor(self.layout, self.partition.range(t))
            })
            .collect()
    }

    /// Length of domain `d`'s interleaved method (A) stream.
    pub fn spmv_len(&self, d: usize) -> usize {
        self.spmv_cursors(d).iter().map(|c| c.remaining()).sum()
    }

    /// Length of domain `d`'s interleaved method (B) stream.
    pub fn x_len(&self, d: usize) -> usize {
        self.x_cursors(d).iter().map(|c| c.remaining()).sum()
    }

    /// Streams domain `d`'s round-robin interleaved method (A) references
    /// (one reference per thread per turn) into a block sink, in
    /// [`memtrace::AccessBlock`]s — the same order as
    /// [`DomainTraces::feed_domain`] over the materialised traces.
    pub fn feed_spmv_blocks<S: BlockSink>(&self, d: usize, sink: &mut S) {
        let mut cursors = self.spmv_cursors(d);
        round_robin_cursors_blocks(&mut cursors, sink);
    }

    /// Streams domain `d`'s round-robin interleaved method (B) references
    /// into a block sink.
    pub fn feed_x_blocks<S: BlockSink>(&self, d: usize, sink: &mut S) {
        let mut cursors = self.x_cursors(d);
        round_robin_cursors_blocks(&mut cursors, sink);
    }
}

/// The static work partition used for `threads`-way SpMV (contiguous
/// blocks of the workload's work items — rows for CSR, chunks for
/// SELL-C-σ — as the paper's OpenMP static schedule).
pub fn thread_partition<W: SpmvWorkload>(workload: &W, threads: usize) -> RowPartition {
    RowPartition::static_rows(workload.num_work_items(), threads)
}

/// Convenience: domain count for a thread count under `cfg`.
pub fn num_domains(cfg: &MachineConfig, threads: usize) -> usize {
    threads.div_ceil(cfg.cores_per_domain).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{Array, VecSink};

    fn acc(line: u64) -> Access {
        Access::load(line, Array::X)
    }

    #[test]
    fn grouping_by_domain() {
        let traces: Vec<Vec<Access>> = (0..5).map(|t| vec![acc(t)]).collect();
        let dt = DomainTraces::group(traces, 2);
        assert_eq!(dt.num_domains(), 3);
        assert_eq!(dt.groups[0].len(), 2);
        assert_eq!(dt.groups[2].len(), 1);
        assert_eq!(dt.groups[2][0][0].line, 4);
    }

    #[test]
    fn feeding_interleaves_within_domain_only() {
        let traces = vec![
            vec![acc(0), acc(1)],
            vec![acc(10), acc(11)],
            vec![acc(20), acc(21)],
        ];
        let dt = DomainTraces::group(traces, 2);
        let mut sink = VecSink::new();
        dt.feed_domain(0, &mut sink);
        let lines: Vec<u64> = sink.trace.iter().map(|a| a.line).collect();
        assert_eq!(lines, vec![0, 10, 1, 11]);
        let mut sink1 = VecSink::new();
        dt.feed_domain(1, &mut sink1);
        assert_eq!(sink1.trace.len(), 2);
    }

    #[test]
    fn domain_cursors_match_materialized_feed() {
        use sparsemat::CooMatrix;
        let mut state = 5u64;
        let mut coo = CooMatrix::new(60, 60);
        for r in 0..60 {
            for _ in 0..4 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
                coo.push(r, (state >> 33) as usize % 60);
            }
        }
        let m = coo.to_csr();
        let layout = DataLayout::new(&m, 64);
        let partition = thread_partition(&m, 7);
        let cursors = DomainCursors::new(&m, &layout, &partition, 3);

        let spmv = memtrace::spmv_trace::trace_spmv_partitioned(&m, &layout, &partition);
        let materialized = DomainTraces::group(spmv, 3);
        assert_eq!(cursors.num_domains(), materialized.num_domains());
        for d in 0..cursors.num_domains() {
            let mut want = VecSink::new();
            materialized.feed_domain(d, &mut want);
            let mut got = VecSink::new();
            cursors.feed_spmv_blocks(d, &mut got);
            assert_eq!(got.trace, want.trace, "spmv domain {d}");
            assert_eq!(cursors.spmv_len(d), want.trace.len(), "spmv len {d}");
        }

        let x = memtrace::xtrace::trace_x_partitioned(&m, &layout, &partition);
        let materialized = DomainTraces::group(x, 3);
        for d in 0..cursors.num_domains() {
            let mut want = VecSink::new();
            materialized.feed_domain(d, &mut want);
            let mut got = VecSink::new();
            cursors.feed_x_blocks(d, &mut got);
            assert_eq!(got.trace, want.trace, "x domain {d}");
        }
    }

    #[test]
    fn domain_count_helper() {
        let cfg = a64fx::MachineConfig::a64fx();
        assert_eq!(num_domains(&cfg, 1), 1);
        assert_eq!(num_domains(&cfg, 12), 1);
        assert_eq!(num_domains(&cfg, 13), 2);
        assert_eq!(num_domains(&cfg, 48), 4);
    }
}
