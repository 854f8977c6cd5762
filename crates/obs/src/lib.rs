//! Offline telemetry for the prediction pipeline.
//!
//! Every stage of the locality model — trace streaming, stack processing,
//! profile construction, cache lookups — can report what it did through
//! this crate: hierarchical [`span`]s with monotonic wall times, typed
//! [`add`] counters, [`gauge_max`] gauges, log2-bucketed [`observe`]
//! histograms, and peak-RSS [`rss_checkpoint`]s. Three properties the
//! pipeline depends on:
//!
//! * **No-op when disabled.** The global sink starts disabled; every
//!   recording call first reads one relaxed atomic and returns. Hot loops
//!   stay uninstrumented — stages count into plain locals (or reuse state
//!   they already track) and report once per phase, so a disabled build
//!   pays a handful of atomic loads per *domain*, not per reference.
//! * **Thread-local collection, merge at join.** Enabled recording goes to
//!   a per-thread collector; when a worker thread exits (the engine's
//!   scoped pools join before returning) its collector drains into the
//!   global aggregate under one short lock (see [`flush_thread`]). Merging is commutative — sums
//!   for counters and histogram buckets, max for gauges, recursive
//!   name-keyed sums for span trees — so any schedule yields the same
//!   aggregate (wall times aside).
//! * **Side channel only.** Telemetry never touches report payloads; the
//!   batch/validate JSON-lines outputs are byte-identical with telemetry
//!   on or off. The aggregate leaves the process only as the separate
//!   metrics document ([`json::MetricsDoc`]) written by `--metrics`.
//!
//! Spans aggregate by *name path*: a span opened while another is open on
//! the same thread becomes its child, and same-named spans at the same
//! path merge (count + total wall time). Threads each root their own
//! forest; [`snapshot`] returns the merged forest plus all counters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod events;
pub mod hist;
pub mod json;
pub mod memstats;
pub mod prom;
pub mod series;
pub mod trace;

pub use aggregate::{Aggregate, Checkpoint, SpanStats};
pub use hist::Hist;
pub use json::MetricsDoc;
pub use trace::RequestCtx;

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn global() -> &'static Mutex<Aggregate> {
    static GLOBAL: OnceLock<Mutex<Aggregate>> = OnceLock::new();
    GLOBAL.get_or_init(Mutex::default)
}

/// Whether telemetry is being recorded. One relaxed load; instrumentation
/// may use this to skip building report-only values.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the global sink on. Call [`reset`] first for a clean aggregate.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the global sink off; recording calls become no-ops again.
///
/// Also flushes the calling thread's collector. Otherwise what this
/// thread recorded would reach the global aggregate only when the thread
/// exits, which can land after a later [`reset`] and leak one run's
/// telemetry into the next one's snapshot.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    flush_thread();
}

/// Clears the global aggregate and the calling thread's collector.
///
/// Collectors of *other* live threads are not reachable and keep their
/// data; callers (tests, the CLI) reset before spawning workers.
pub fn reset() {
    *global().lock().expect("obs aggregate poisoned") = Aggregate::default();
    let _ = COLLECTOR.try_with(|c| {
        let mut c = c.borrow_mut();
        c.drain(); // discard
    });
}

/// Adds `delta` to the named counter.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    let _ = COLLECTOR.try_with(|c| {
        *c.borrow_mut().counters.entry(name).or_insert(0) += delta;
    });
}

/// Raises the named gauge to at least `value` (gauges merge by max).
#[inline]
pub fn gauge_max(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    let _ = COLLECTOR.try_with(|c| {
        let mut c = c.borrow_mut();
        let g = c.gauges.entry(name).or_insert(0);
        *g = (*g).max(value);
    });
}

/// Records `value` into the named log2-bucketed histogram.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    let _ = COLLECTOR.try_with(|c| {
        c.borrow_mut().hists.entry(name).or_default().record(value);
    });
}

/// Opens a span. The guard closes it on drop, accumulating one count and
/// the elapsed wall time under the span's name *path* (nested spans become
/// children of the innermost open span on this thread).
///
/// Guards must drop in LIFO order (the natural scoped usage). When
/// telemetry is disabled this neither reads the clock nor touches the
/// thread-local state.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { start: None };
    }
    let opened = COLLECTOR.try_with(|c| c.borrow_mut().open(name)).is_ok();
    SpanGuard {
        start: opened.then(Instant::now),
    }
}

/// Opens a span as a *thread root* — a child of the root sentinel rather
/// than of the innermost open span. Code that sometimes runs on a fresh
/// worker thread (empty span stack) and sometimes inline on the calling
/// thread (stack mid-pipeline) uses this so the aggregated span tree has
/// the same shape either way; the worker pool's inline path is the case
/// in point. Closing still follows guard-drop LIFO order.
#[inline]
pub fn span_root(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { start: None };
    }
    let opened = COLLECTOR
        .try_with(|c| c.borrow_mut().open_root(name))
        .is_ok();
    SpanGuard {
        start: opened.then(Instant::now),
    }
}

/// Appends a peak-RSS checkpoint (`VmHWM`, [`memstats::vm_hwm_kb`]) under
/// `label` to the global aggregate. `None` (no `/proc`, non-Linux) is
/// recorded as an explicit `null`. Checkpoints keep append order, so call
/// from one thread (the CLI records `start`/`end` around each command).
pub fn rss_checkpoint(label: &str) {
    rss_checkpoint_at(label, std::path::Path::new(memstats::PROC_SELF_STATUS));
}

/// [`rss_checkpoint`] reading an explicit status file — the testable
/// spelling of the portability contract: an unreadable path (non-Linux,
/// no `/proc`) still records the checkpoint, with an explicit `null`
/// `vm_hwm_kb`, never silently skipping it.
pub fn rss_checkpoint_at(label: &str, status_path: &std::path::Path) {
    if !enabled() {
        return;
    }
    global()
        .lock()
        .expect("obs aggregate poisoned")
        .checkpoints
        .push(Checkpoint {
            label: label.to_string(),
            vm_hwm_kb: memstats::vm_hwm_kb_at(status_path),
        });
}

/// Drains the calling thread's collector into the global aggregate.
///
/// Pool workers call this at the end of their work loop so the drain is
/// ordered before the pool's join returns. (The thread-local destructor
/// also drains as a safety net, but `std::thread::scope` can observe the
/// closure's return *before* TLS destructors run, so the explicit flush
/// is what makes "drained at join" deterministic.) [`snapshot`] calls it
/// for the snapshotting thread.
pub fn flush_thread() {
    let _ = COLLECTOR.try_with(|c| {
        let agg = c.borrow_mut().drain();
        global().lock().expect("obs aggregate poisoned").merge(&agg);
    });
}

/// Flushes the calling thread and returns a copy of the global aggregate.
pub fn snapshot() -> Aggregate {
    flush_thread();
    global().lock().expect("obs aggregate poisoned").clone()
}

/// Closes its span on drop. See [`span`].
#[must_use = "dropping the guard immediately records an empty span"]
pub struct SpanGuard {
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = start.elapsed().as_nanos() as u64;
            let _ = COLLECTOR.try_with(|c| c.borrow_mut().close(nanos));
        }
    }
}

/// One span-tree node in a collector's arena (index 0 is the root
/// sentinel; its children are the thread's top-level spans).
struct Node {
    name: &'static str,
    count: u64,
    nanos: u64,
    children: Vec<usize>,
}

/// Per-thread metric storage: cheap to update (no locks), drained into the
/// global aggregate on thread exit or [`flush_thread`].
struct Collector {
    counters: HashMap<&'static str, u64>,
    gauges: HashMap<&'static str, u64>,
    hists: HashMap<&'static str, Hist>,
    nodes: Vec<Node>,
    /// Open-span chain; `stack[0]` is always the root sentinel.
    stack: Vec<usize>,
}

impl Collector {
    fn new() -> Self {
        Collector {
            counters: HashMap::new(),
            gauges: HashMap::new(),
            hists: HashMap::new(),
            nodes: vec![Node {
                name: "",
                count: 0,
                nanos: 0,
                children: Vec::new(),
            }],
            stack: vec![0],
        }
    }

    fn open(&mut self, name: &'static str) {
        let parent = *self.stack.last().expect("root sentinel always present");
        self.open_under(parent, name);
    }

    fn open_root(&mut self, name: &'static str) {
        self.open_under(0, name);
    }

    fn open_under(&mut self, parent: usize, name: &'static str) {
        let existing = self.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c].name == name);
        let idx = existing.unwrap_or_else(|| {
            self.nodes.push(Node {
                name,
                count: 0,
                nanos: 0,
                children: Vec::new(),
            });
            let idx = self.nodes.len() - 1;
            self.nodes[parent].children.push(idx);
            idx
        });
        self.stack.push(idx);
    }

    fn close(&mut self, nanos: u64) {
        // Defensive: never pop the root sentinel (an unbalanced guard
        // after a reset mid-span would otherwise corrupt the stack).
        if self.stack.len() > 1 {
            let idx = self.stack.pop().expect("stack non-empty");
            self.nodes[idx].count += 1;
            self.nodes[idx].nanos += nanos;
        }
    }

    /// Moves all closed data out as an [`Aggregate`] and zeroes the span
    /// counters in place (the arena survives so open-span guards stay
    /// valid).
    fn drain(&mut self) -> Aggregate {
        let mut agg = Aggregate::default();
        for (k, v) in self.counters.drain() {
            agg.counters.insert(k.to_string(), v);
        }
        for (k, v) in self.gauges.drain() {
            agg.gauges.insert(k.to_string(), v);
        }
        for (k, v) in self.hists.drain() {
            agg.histograms.insert(k.to_string(), v);
        }
        for &c in &self.nodes[0].children {
            if let Some((name, stats)) = convert(&self.nodes, c) {
                agg.roots.insert(name, stats);
            }
        }
        for node in &mut self.nodes {
            node.count = 0;
            node.nanos = 0;
        }
        agg
    }
}

/// Converts an arena subtree into a [`SpanStats`] tree, pruning subtrees
/// that recorded nothing (left behind by a previous drain).
fn convert(nodes: &[Node], idx: usize) -> Option<(String, SpanStats)> {
    let n = &nodes[idx];
    let children: std::collections::BTreeMap<String, SpanStats> = n
        .children
        .iter()
        .filter_map(|&c| convert(nodes, c))
        .collect();
    if n.count == 0 && children.is_empty() {
        return None;
    }
    Some((
        n.name.to_string(),
        SpanStats {
            count: n.count,
            wall_ns: n.nanos,
            children,
        },
    ))
}

impl Drop for Collector {
    fn drop(&mut self) {
        let agg = self.drain();
        if let Ok(mut global) = global().lock() {
            global.merge(&agg);
        }
    }
}

thread_local! {
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::new());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-state tests must not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let _guard = lock();
        disable();
        reset();
        add("c", 3);
        gauge_max("g", 9);
        observe("h", 100);
        {
            let _s = span("s");
        }
        rss_checkpoint("cp");
        let agg = snapshot();
        assert!(agg.counters.is_empty());
        assert!(agg.gauges.is_empty());
        assert!(agg.histograms.is_empty());
        assert!(agg.roots.is_empty());
        assert!(agg.checkpoints.is_empty());
    }

    #[test]
    fn disable_flushes_the_calling_thread() {
        let _guard = lock();
        reset();
        enable();
        add("late", 1);
        disable();
        let pending = COLLECTOR.with(|c| c.borrow_mut().drain());
        assert!(pending.counters.is_empty(), "left for thread exit");
        assert_eq!(snapshot().counters["late"], 1);
    }

    #[test]
    fn counters_gauges_histograms_aggregate() {
        let _guard = lock();
        reset();
        enable();
        add("refs", 5);
        add("refs", 7);
        gauge_max("peak", 3);
        gauge_max("peak", 9);
        gauge_max("peak", 4);
        observe("len", 1);
        observe("len", 1000);
        let agg = snapshot();
        disable();
        assert_eq!(agg.counters["refs"], 12);
        assert_eq!(agg.gauges["peak"], 9);
        let h = &agg.histograms["len"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1001);
    }

    #[test]
    fn spans_nest_by_name_path_and_merge_counts() {
        let _guard = lock();
        reset();
        enable();
        for _ in 0..3 {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        {
            let _other = span("other");
        }
        let agg = snapshot();
        disable();
        let outer = &agg.roots["outer"];
        assert_eq!(outer.count, 3);
        assert_eq!(outer.children["inner"].count, 3);
        assert_eq!(agg.roots["other"].count, 1);
        assert!(!agg.roots.contains_key("inner"), "inner must not be a root");
    }

    #[test]
    fn worker_thread_collectors_drain_at_join() {
        let _guard = lock();
        reset();
        enable();
        // No flush_thread in the workers: joining the handle (pthread_join)
        // waits for full thread termination, so the thread-local destructor
        // has merged by the time join returns. (Pools that use
        // `thread::scope` — which can return before TLS destructors run —
        // flush explicitly at the end of the worker closure instead.)
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = span("worker");
                    add("jobs", 2);
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                // Surface the worker's own message, not the opaque payload.
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                panic!("worker panicked: {msg}");
            }
        }
        let agg = snapshot();
        disable();
        assert_eq!(agg.counters["jobs"], 8);
        assert_eq!(agg.roots["worker"].count, 4);
    }

    #[test]
    fn explicit_flush_drains_scoped_workers() {
        let _guard = lock();
        reset();
        enable();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    add("scoped.jobs", 1);
                    flush_thread();
                });
            }
        });
        let agg = snapshot();
        disable();
        assert_eq!(agg.counters["scoped.jobs"], 4);
    }

    #[test]
    fn merge_is_order_insensitive() {
        let _guard = lock();
        // Build three per-thread aggregates and merge them in every order:
        // the result must be identical (wall times included — they sum).
        let parts: Vec<Aggregate> = (0..3u64)
            .map(|i| {
                reset();
                enable();
                add("n", i + 1);
                observe("h", 10 * (i + 1));
                gauge_max("g", 100 - i);
                {
                    let _a = span("a");
                    let _b = span("b");
                }
                let agg = snapshot();
                disable();
                agg
            })
            .collect();
        let merge_in = |order: &[usize]| {
            let mut acc = Aggregate::default();
            for &i in order {
                acc.merge(&parts[i]);
            }
            acc
        };
        let reference = merge_in(&[0, 1, 2]);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            assert_eq!(merge_in(&order), reference, "order {order:?}");
        }
        assert_eq!(reference.counters["n"], 6);
        assert_eq!(reference.gauges["g"], 100);
        assert_eq!(reference.roots["a"].children["b"].count, 3);
    }

    #[test]
    fn drain_prunes_already_reported_spans() {
        let _guard = lock();
        reset();
        enable();
        {
            let _s = span("once");
        }
        flush_thread();
        {
            let _s = span("twice");
        }
        let agg = snapshot();
        disable();
        // "once" was drained by the explicit flush; the second drain must
        // not re-report it with a zero count.
        assert_eq!(agg.roots["once"].count, 1);
        assert_eq!(agg.roots["twice"].count, 1);
    }

    #[test]
    fn rss_checkpoint_with_missing_proc_records_explicit_null() {
        let _guard = lock();
        reset();
        enable();
        rss_checkpoint_at("no-proc", std::path::Path::new("/nonexistent/proc/status"));
        let agg = snapshot();
        disable();
        // The checkpoint is present (not silently skipped) and carries an
        // explicit None, which serializes as null.
        assert_eq!(agg.checkpoints.len(), 1);
        assert_eq!(agg.checkpoints[0].label, "no-proc");
        assert_eq!(agg.checkpoints[0].vm_hwm_kb, None);
        let doc = MetricsDoc {
            command: "test",
            aggregate: &agg,
        }
        .to_json();
        assert!(
            doc.contains("{\"label\": \"no-proc\", \"vm_hwm_kb\": null}"),
            "{doc}"
        );
    }

    #[test]
    fn rss_checkpoints_keep_order_and_allow_null() {
        let _guard = lock();
        reset();
        enable();
        rss_checkpoint("start");
        rss_checkpoint("end");
        let agg = snapshot();
        disable();
        let labels: Vec<&str> = agg.checkpoints.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["start", "end"]);
        // On Linux both carry a value; elsewhere both are None. Either way
        // the entries exist.
        assert_eq!(agg.checkpoints.len(), 2);
    }
}
