//! Per-request trace capture for the serve path.
//!
//! The global sink ([`crate::span`]) answers "where did the *process*
//! spend its time"; a long-lived daemon also needs "where did *this
//! request* spend its time". A [`RequestCtx`] carries a request id and
//! admission instant from serve's admission point through the engine
//! (including the scoped worker pool — the ctx is `Sync`, so per-domain
//! compute closures record into it concurrently) and accumulates a small
//! phase tree: queue-wait, cache-lookup, compute, per-domain work,
//! stream-out.
//!
//! Two properties mirror the global sink's contract:
//!
//! * **Disabled is near-free.** [`RequestCtx::disabled`] carries no
//!   allocation; every recording call checks one `Option`, never reads
//!   the clock, and feeds nothing — not even a requested global
//!   histogram, so batch entry points (which always pass a disabled ctx)
//!   stay free of request-phase telemetry.
//! * **Side channel only.** Traces never touch report payloads; the wire
//!   bytes of a traced request are identical to an untraced one.
//!
//! The phase tree is a [`SpanStats`] tree, so phases merge by *name
//! path* exactly like spans: same path ⇒ one node summing `count` and
//! `wall_ns`, so per-domain fan-out shows up as one `domain` node with
//! `count == domains`. Each phase may additionally feed a named global
//! histogram ([`crate::observe`]) so the *fleet-wide* latency
//! distribution of e.g. queue-wait builds up alongside the per-request
//! numbers.

use crate::aggregate::SpanStats;
use crate::json::{escape, write_span_list};
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct TraceInner {
    request_id: String,
    admitted_at: Instant,
    root: Mutex<SpanStats>,
}

/// Identity and phase accumulator for one in-flight request.
///
/// Cheap to pass by reference through the engine; a
/// [`disabled`](RequestCtx::disabled) ctx records nothing.
pub struct RequestCtx {
    inner: Option<Arc<TraceInner>>,
}

impl RequestCtx {
    /// A live ctx: `admitted_at` is *now*, phases accumulate.
    pub fn new(request_id: impl Into<String>) -> RequestCtx {
        RequestCtx {
            inner: Some(Arc::new(TraceInner {
                request_id: request_id.into(),
                admitted_at: Instant::now(),
                root: Mutex::new(SpanStats::default()),
            })),
        }
    }

    /// A no-op ctx: every call is an `Option` check, no clock reads, no
    /// allocation. The engine's non-serve entry points use this.
    pub fn disabled() -> RequestCtx {
        RequestCtx { inner: None }
    }

    /// The request id a live ctx was admitted under.
    pub fn request_id(&self) -> Option<&str> {
        self.inner.as_deref().map(|i| i.request_id.as_str())
    }

    /// The admission instant of a live ctx (phase offsets and the final
    /// `total_ns` are measured from here).
    pub fn admitted_at(&self) -> Option<Instant> {
        self.inner.as_deref().map(|i| i.admitted_at)
    }

    /// Opens a phase at `path`; the guard closes it on drop. `hist`
    /// optionally names a global [`crate::observe`] histogram fed the
    /// same duration, so fleet-wide latency distributions accumulate even
    /// for requests nobody TRACEs (every served request carries a live
    /// ctx whether or not anyone retrieves its trace). A disabled ctx
    /// feeds neither the tree nor the histogram — batch entry points stay
    /// free of request-phase telemetry — and costs one branch.
    pub fn phase(
        &self,
        path: &'static [&'static str],
        hist: Option<&'static str>,
    ) -> PhaseGuard<'_> {
        let observe = hist.filter(|_| self.inner.is_some() && crate::enabled());
        let start = (self.inner.is_some() || observe.is_some()).then(Instant::now);
        PhaseGuard {
            inner: self.inner.as_deref(),
            path,
            hist: observe,
            start,
        }
    }

    /// Records a phase whose start predates this call (e.g. queue-wait,
    /// whose clock started at admission on another thread). Duration is
    /// `start..now`.
    pub fn record_since(
        &self,
        path: &'static [&'static str],
        start: Instant,
        hist: Option<&'static str>,
    ) {
        let observe = hist.filter(|_| self.inner.is_some() && crate::enabled());
        if self.inner.is_none() {
            return;
        }
        let nanos = start.elapsed().as_nanos() as u64;
        if let Some(inner) = self.inner.as_deref() {
            inner.add(path, nanos);
        }
        if let Some(h) = observe {
            crate::observe(h, nanos);
        }
    }

    /// Freezes the accumulated tree into a [`Trace`] (`None` for a
    /// disabled ctx). The ctx stays usable; `total_ns` is admission → now.
    pub fn finish(&self) -> Option<Trace> {
        let inner = self.inner.as_deref()?;
        Some(Trace {
            request_id: inner.request_id.clone(),
            total_ns: inner.admitted_at.elapsed().as_nanos() as u64,
            root: inner.root.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        })
    }
}

impl TraceInner {
    fn add(&self, path: &[&'static str], nanos: u64) {
        let mut root = self.root.lock().unwrap_or_else(|e| e.into_inner());
        let node = root.entry_path(path);
        node.count += 1;
        node.wall_ns += nanos;
    }
}

/// Closes its phase on drop; see [`RequestCtx::phase`].
#[must_use = "dropping the guard immediately records an empty phase"]
pub struct PhaseGuard<'a> {
    inner: Option<&'a TraceInner>,
    path: &'static [&'static str],
    hist: Option<&'static str>,
    start: Option<Instant>,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let nanos = start.elapsed().as_nanos() as u64;
        if let Some(inner) = self.inner {
            inner.add(self.path, nanos);
        }
        if let Some(h) = self.hist {
            crate::observe(h, nanos);
        }
    }
}

/// A finished request's phase tree, ready to serialize.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// The id the request was admitted under.
    pub request_id: String,
    /// Admission → finish wall time in nanoseconds.
    pub total_ns: u64,
    /// Top-level phases are the root's children (its own count and
    /// wall_ns are unused).
    pub root: SpanStats,
}

impl Trace {
    /// Single-line JSON: `{"request": ..., "total_ns": ..., "phases":
    /// [{"name": ..., "count": ..., "wall_ns": ..., "children": [...]},
    /// ...]}` — the form a `TRACE` response embeds.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"request\": \"{}\", \"total_ns\": {}, \"phases\": [",
            escape(&self.request_id),
            self.total_ns
        );
        write_span_list(&mut out, &self.root.children, None);
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ctx_records_nothing_and_finishes_none() {
        let ctx = RequestCtx::disabled();
        assert_eq!(ctx.request_id(), None);
        {
            let _p = ctx.phase(&["compute"], None);
        }
        ctx.record_since(&["queue-wait"], Instant::now(), None);
        assert!(ctx.finish().is_none());
    }

    #[test]
    fn phases_merge_by_path_across_threads() {
        let ctx = RequestCtx::new("r1");
        {
            let _p = ctx.phase(&["cache-lookup"], None);
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _p = ctx.phase(&["compute", "domain"], None);
                });
            }
        });
        ctx.record_since(&["queue-wait"], Instant::now(), None);
        let trace = ctx.finish().expect("live ctx");
        assert_eq!(trace.request_id, "r1");
        assert_eq!(trace.root.get(&["cache-lookup"]).unwrap().count, 1);
        let domain = trace.root.get(&["compute", "domain"]).unwrap();
        assert_eq!(domain.count, 4, "same path merges into one node");
        assert!(trace.root.get(&["queue-wait"]).is_some());
        assert!(trace.root.get(&["missing"]).is_none());
    }

    #[test]
    fn trace_json_is_one_valid_line() {
        let ctx = RequestCtx::new("req \"quoted\"");
        {
            let _outer = ctx.phase(&["compute"], None);
            let _inner = ctx.phase(&["compute", "domain"], None);
        }
        let json = ctx.finish().unwrap().to_json();
        assert!(!json.contains('\n'));
        crate::json::Json::parse(&json).unwrap_or_else(|e| panic!("invalid: {e}\n{json}"));
        assert!(
            json.contains("\"request\": \"req \\\"quoted\\\"\""),
            "{json}"
        );
        assert!(json.contains("\"name\": \"compute\""), "{json}");
        assert!(json.contains("\"name\": \"domain\""), "{json}");
    }

    #[test]
    fn durations_accumulate_and_total_covers_phases() {
        let ctx = RequestCtx::new("r2");
        {
            let _p = ctx.phase(&["compute"], None);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let trace = ctx.finish().unwrap();
        let compute = trace.root.get(&["compute"]).unwrap();
        assert!(compute.wall_ns > 0);
        assert!(trace.total_ns >= compute.wall_ns);
    }
}
