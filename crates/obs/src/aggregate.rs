//! The merged view of all collectors: counters, gauges, histograms, span
//! forest, RSS checkpoints.

use crate::hist::Hist;
use std::collections::BTreeMap;

/// Aggregated statistics for one span name at one position in the tree.
///
/// Spans are keyed by their *name path* — all same-named spans under the
/// same parent merge into one node, summing counts and wall times.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct SpanStats {
    /// Times the span was opened and closed.
    pub count: u64,
    /// Total wall-clock nanoseconds across all openings.
    pub wall_ns: u64,
    /// Child spans keyed by name (BTreeMap for stable output order).
    pub children: BTreeMap<String, SpanStats>,
}

impl SpanStats {
    /// Recursively merges `other` into `self` (sums, name-keyed children).
    pub fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.wall_ns += other.wall_ns;
        for (name, child) in &other.children {
            self.children.entry(name.clone()).or_default().merge(child);
        }
    }

    /// Looks up a (possibly nested) descendant by name path; the empty
    /// path is `self`.
    pub fn get(&self, path: &[&str]) -> Option<&SpanStats> {
        let mut node = self;
        for name in path {
            node = node.children.get(*name)?;
        }
        Some(node)
    }

    /// The descendant at `path`, created on first visit. Finding an
    /// existing node allocates nothing; only a name's first visit
    /// allocates its key.
    pub(crate) fn entry_path(&mut self, path: &[&str]) -> &mut SpanStats {
        let mut node = self;
        for &name in path {
            if !node.children.contains_key(name) {
                node.children.insert(name.to_owned(), SpanStats::default());
            }
            node = node.children.get_mut(name).expect("inserted above");
        }
        node
    }
}

/// One peak-RSS observation, labelled by where in the run it was taken.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// Caller-supplied position label (e.g. `"start"`, `"end"`).
    pub label: String,
    /// `VmHWM` in kB, or `None` where `/proc/self/status` is unavailable.
    pub vm_hwm_kb: Option<u64>,
}

/// Everything the telemetry subsystem collected, merged across threads.
///
/// All maps are `BTreeMap` so iteration (and therefore the serialized
/// metrics document) has a stable order independent of hashing or merge
/// order. `merge` is commutative in every field except `checkpoints`,
/// which append — checkpoints are only taken from the coordinating
/// thread, so order is program order.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Aggregate {
    /// Monotonic event counters, merged by sum.
    pub counters: BTreeMap<String, u64>,
    /// High-watermark gauges, merged by max.
    pub gauges: BTreeMap<String, u64>,
    /// Log2-bucketed sample distributions, merged bucket-wise.
    pub histograms: BTreeMap<String, Hist>,
    /// Top-level spans of the merged forest.
    pub roots: BTreeMap<String, SpanStats>,
    /// Peak-RSS checkpoints in the order they were taken.
    pub checkpoints: Vec<Checkpoint>,
}

impl Aggregate {
    /// The named counter's value, 0 if it was never touched. Convenience
    /// for consumers (the serve `STATUS` endpoint, tests) that read a few
    /// known counters out of a snapshot.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's high-watermark, 0 if it was never raised.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &Aggregate) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(0);
            *g = (*g).max(*v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
        for (name, span) in &other.roots {
            self.roots.entry(name.clone()).or_default().merge(span);
        }
        self.checkpoints.extend(other.checkpoints.iter().cloned());
    }

    /// The aggregate with wall-clock and schedule-dependent data removed:
    /// span `wall_ns` zeroed and gauges/checkpoints cleared. Two runs of
    /// the same deterministic workload must produce equal stripped
    /// aggregates regardless of worker count — tests assert exactly that.
    pub fn deterministic_view(&self) -> Aggregate {
        fn strip(span: &SpanStats) -> SpanStats {
            SpanStats {
                count: span.count,
                wall_ns: 0,
                children: span
                    .children
                    .iter()
                    .map(|(k, v)| (k.clone(), strip(v)))
                    .collect(),
            }
        }
        Aggregate {
            counters: self.counters.clone(),
            gauges: BTreeMap::new(),
            histograms: self.histograms.clone(),
            roots: self
                .roots
                .iter()
                .map(|(k, v)| (k.clone(), strip(v)))
                .collect(),
            checkpoints: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Aggregate {
        let mut a = Aggregate::default();
        a.counters.insert("c".into(), n);
        a.gauges.insert("g".into(), n);
        let mut h = Hist::default();
        h.record(n);
        a.histograms.insert("h".into(), h);
        let child = SpanStats {
            count: n,
            wall_ns: n * 10,
            ..SpanStats::default()
        };
        let mut root = SpanStats {
            count: 1,
            wall_ns: n * 100,
            ..SpanStats::default()
        };
        root.children.insert("child".into(), child);
        a.roots.insert("root".into(), root);
        a
    }

    #[test]
    fn merge_sums_counters_maxes_gauges_recurses_spans() {
        let mut acc = sample(2);
        acc.merge(&sample(5));
        assert_eq!(acc.counters["c"], 7);
        assert_eq!(acc.gauges["g"], 5);
        assert_eq!(acc.histograms["h"].count, 2);
        assert_eq!(acc.roots["root"].count, 2);
        assert_eq!(acc.roots["root"].wall_ns, 700);
        assert_eq!(acc.roots["root"].children["child"].count, 7);
    }

    #[test]
    fn deterministic_view_strips_time_and_schedule_data() {
        let mut a = sample(3);
        a.checkpoints.push(Checkpoint {
            label: "start".into(),
            vm_hwm_kb: Some(123),
        });
        let mut b = sample(3);
        b.roots.get_mut("root").unwrap().wall_ns = 999_999;
        b.gauges.insert("g".into(), 7777);
        assert_ne!(a, b);
        assert_eq!(a.deterministic_view(), b.deterministic_view());
        assert!(a.deterministic_view().checkpoints.is_empty());
    }
}
