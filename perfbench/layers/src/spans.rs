//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a workspace crate is wrapped in a
//! span named `<crate>.<operation>`. Spans are kept in memory (name,
//! start, end, parent) and written out once, when the run ends, so the
//! recording itself does no I/O while the layers run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records a tree of spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing: the untraced side of the
    /// trace-overhead pairs.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::default()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Runs `f` inside a span called `name`; returns its duration in
    /// seconds.
    pub fn timed(&mut self, name: &str, f: impl FnOnce()) -> f64 {
        let start = Instant::now();
        self.span(name, |_| f());
        start.elapsed().as_secs_f64()
    }

    /// Durations in seconds of every span called `name`, in start order.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover (children run on the same thread, one after
    /// another, so they never overlap).
    pub fn self_secs(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(s.name.clone()).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The span list and the per-name self times as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("],\"self_s\":{");
        for (i, (name, secs)) in self.self_secs().iter().enumerate() {
            let _ = write!(out, "{}\"{name}\":{secs}", if i == 0 { "" } else { "," });
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let own = t.self_secs();
        let outer = t.secs("outer")[0];
        let inner = t.secs("inner")[0];
        assert!((own["outer"] - (outer - inner)).abs() < 1e-9);
        assert!((own["inner"] - inner).abs() < 1e-9);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn off_records_nothing_but_runs_and_times() {
        let mut t = Tracer::off();
        let out = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(out, 7);
        assert!(t.timed("timed", || {}) >= 0.0);
        assert!(t.spans.is_empty() && t.secs("outer").is_empty());
    }
}
