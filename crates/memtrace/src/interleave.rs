//! Interleaving of per-thread traces into shared-cache reference order.
//!
//! The cache behaviour of a shared cache depends on the order in which the
//! sharing threads' references reach it (concurrent reuse distance, Schuff
//! et al.). Every prediction uses the deterministic round-robin order:
//! threads submit fixed-size chunks in cyclic order, which models threads
//! progressing at identical rates. [`round_robin_cursors_blocks`] merges
//! per-thread *cursors* one reference per thread per turn and is the
//! production feed; [`round_robin_into`] merges materialised traces for
//! the reference oracle. The paper collates with an MCS lock instead
//! (§3.2.1), whose order depends on scheduling; over equal-rate threads it
//! statistically approximates round-robin, which the integration tests
//! check against a test-only MCS collation.
//!
//! [`domain_groups`] maps a flat thread list onto the A64FX topology (12
//! cores per L2/NUMA domain) so each shared L2 can be analysed with only
//! its own threads' references.

use crate::cursor::TraceCursor;
use crate::sink::{AccessBlock, BlockSink, TraceSink};
use crate::Access;
use std::ops::Range;

/// Streams the round-robin interleaving of per-thread traces directly into
/// a sink, without materialising the merged trace: threads submit
/// `chunk`-reference chunks in cyclic order, and threads whose traces are
/// exhausted drop out of the cycle, so the sink sees every input
/// reference exactly once.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn round_robin_into<S: TraceSink>(traces: &[Vec<Access>], chunk: usize, sink: &mut S) {
    assert!(chunk > 0, "chunk size must be positive");
    let mut cursors = vec![0usize; traces.len()];
    let mut remaining: usize = traces.iter().map(|t| t.len()).sum();
    let _span = obs::span("trace.stream");
    if obs::enabled() {
        obs::add("memtrace.buffered.refs", remaining as u64);
        obs::observe("memtrace.stream.refs", remaining as u64);
    }
    while remaining > 0 {
        for (t, cursor) in traces.iter().zip(cursors.iter_mut()) {
            if *cursor >= t.len() {
                continue;
            }
            let end = (*cursor + chunk).min(t.len());
            sink.access_all(&t[*cursor..end]);
            remaining -= end - *cursor;
            *cursor = end;
        }
    }
}

/// Streams the round-robin interleaving of per-thread trace cursors into
/// a [`BlockSink`], in blocks of up to [`crate::BLOCK_REFS`] references.
///
/// This is the collation every production reader of a shared cache's
/// reference stream goes through. The reference order is *identical* to
/// [`round_robin_into`]`(traces, 1, sink)` over the traces the cursors
/// would produce — one reference per cursor per cycle — but the merged
/// stream is generated on demand (total state is O(threads), no
/// per-thread trace is materialised) and moves in blocks at both ends:
/// each cursor refills a staging block via [`TraceCursor::next_block`]
/// (amortising its per-reference layout arithmetic) and the merged
/// output reaches the sink as full blocks (amortising the virtual
/// dispatch). A single-cursor "interleaving" skips the staging entirely
/// and forwards the cursor's blocks as-is.
pub fn round_robin_cursors_blocks<C: TraceCursor, S: BlockSink>(cursors: &mut [C], sink: &mut S) {
    let total: usize = cursors.iter().map(|c| c.remaining()).sum();
    let _span = obs::span("trace.stream");
    if obs::enabled() {
        obs::add("memtrace.cursor.feeds", 1);
        obs::add("memtrace.cursor.refs", total as u64);
        obs::observe("memtrace.stream.refs", total as u64);
    }
    if let [cursor] = cursors {
        let mut block = AccessBlock::new();
        loop {
            block.clear();
            if cursor.next_block(&mut block) == 0 {
                return;
            }
            sink.consume(&block);
        }
    }
    // Multi-cursor: each cursor refills a staging block via its
    // specialised `next_block` (amortising per-reference layout
    // arithmetic), and whole staging blocks are merged by striding —
    // `rounds` complete cycles at a time, one already-packed copy per
    // reference, no per-reference refill checks. `rounds` is the
    // shortest staged length, and a cursor's block is short only at
    // exhaustion, so refill checks run once per *block*, not per
    // reference; a cursor drops out when its refill comes back empty —
    // exactly when its `next_access()` would return `None`.
    let mut staging: Vec<AccessBlock> = cursors.iter().map(|_| AccessBlock::new()).collect();
    let mut active: Vec<usize> = Vec::with_capacity(cursors.len());
    for (i, c) in cursors.iter_mut().enumerate() {
        if c.next_block(&mut staging[i]) > 0 {
            active.push(i);
        }
    }
    let mut out = AccessBlock::new();
    while !active.is_empty() {
        let rounds = active
            .iter()
            .map(|&i| staging[i].len())
            .min()
            .expect("active cursors have staged references");
        for j in 0..rounds {
            for &i in &active {
                out.push(staging[i].refs()[j]);
                if out.is_full() {
                    sink.consume(&out);
                    out.clear();
                }
            }
        }
        // Drop the `rounds` merged references from every staging block;
        // refill the drained ones and retire exhausted cursors.
        let mut kept = 0;
        for k in 0..active.len() {
            let i = active[k];
            staging[i].discard_front(rounds);
            let keep = !staging[i].is_empty() || cursors[i].next_block(&mut staging[i]) > 0;
            if keep {
                active[kept] = i;
                kept += 1;
            }
        }
        active.truncate(kept);
    }
    if !out.is_empty() {
        sink.consume(&out);
    }
}

/// Splits `num_threads` thread indices into groups of `threads_per_group`,
/// mirroring the A64FX topology where consecutive cores share an L2.
///
/// The last group may be smaller if the counts do not divide evenly.
///
/// # Panics
///
/// Panics if `threads_per_group` is zero.
pub fn domain_groups(num_threads: usize, threads_per_group: usize) -> Vec<Range<usize>> {
    assert!(threads_per_group > 0, "group size must be positive");
    let mut groups = Vec::new();
    let mut start = 0;
    while start < num_threads {
        let end = (start + threads_per_group).min(num_threads);
        groups.push(start..end);
        start = end;
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Array;

    fn acc(line: u64) -> Access {
        Access::load(line, Array::X)
    }

    fn traces_of(lens: &[usize]) -> Vec<Vec<Access>> {
        // Thread t's i-th access has line t * 1000 + i, so provenance and
        // order are recoverable.
        lens.iter()
            .enumerate()
            .map(|(t, &n)| (0..n as u64).map(|i| acc(t as u64 * 1000 + i)).collect())
            .collect()
    }

    /// The round-robin interleaving, materialised.
    fn round_robin(traces: &[Vec<Access>], chunk: usize) -> Vec<Access> {
        let mut sink = crate::sink::VecSink::new();
        round_robin_into(traces, chunk, &mut sink);
        sink.trace
    }

    #[test]
    fn round_robin_chunk1_cycles() {
        let traces = traces_of(&[3, 3]);
        let out = round_robin(&traces, 1);
        let lines: Vec<u64> = out.iter().map(|a| a.line).collect();
        assert_eq!(lines, vec![0, 1000, 1, 1001, 2, 1002]);
    }

    #[test]
    fn round_robin_chunked() {
        let traces = traces_of(&[4, 2]);
        let out = round_robin(&traces, 2);
        let lines: Vec<u64> = out.iter().map(|a| a.line).collect();
        assert_eq!(lines, vec![0, 1, 1000, 1001, 2, 3]);
    }

    #[test]
    fn round_robin_uneven_lengths_drop_out() {
        let traces = traces_of(&[1, 4]);
        let out = round_robin(&traces, 1);
        let lines: Vec<u64> = out.iter().map(|a| a.line).collect();
        assert_eq!(lines, vec![0, 1000, 1001, 1002, 1003]);
    }

    #[test]
    fn round_robin_cursors_blocks_matches_chunk1_order() {
        use crate::cursor::SliceCursor;
        // Lengths straddling several block boundaries, plus drop-outs,
        // single-cursor and empty edge cases.
        for lens in [
            vec![500, 300, 700],
            vec![1, 4],
            vec![0, 0, 2],
            vec![999],
            vec![],
        ] {
            let traces = traces_of(&lens);
            let direct = round_robin(&traces, 1);
            let mut cursors: Vec<SliceCursor> =
                traces.iter().map(|t| SliceCursor::new(t)).collect();
            let mut sink = crate::sink::VecSink::new();
            round_robin_cursors_blocks(&mut cursors, &mut sink);
            assert_eq!(sink.trace, direct, "lens {lens:?}");
        }
    }

    #[test]
    fn round_robin_empty_inputs() {
        assert!(round_robin(&[], 1).is_empty());
        let traces = traces_of(&[0, 0]);
        assert!(round_robin(&traces, 3).is_empty());
    }

    #[test]
    fn domain_groups_a64fx_topology() {
        let groups = domain_groups(48, 12);
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[0], 0..12);
        assert_eq!(groups[3], 36..48);
    }

    #[test]
    fn domain_groups_uneven() {
        let groups = domain_groups(10, 4);
        assert_eq!(groups, vec![0..4, 4..8, 8..10]);
    }
}
