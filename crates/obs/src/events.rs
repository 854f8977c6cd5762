//! Flight recorder: a bounded ring of recent structured events.
//!
//! Counters say *how many* admissions, rejections, deadline hits and
//! evictions happened; the flight recorder says *which ones happened
//! last*, in order, with details — the thing a post-mortem of an
//! overload or cancellation incident actually needs. The serve daemon
//! dumps the ring to stderr (and an optional file) on `SIGQUIT` and when
//! an executor thread panics.
//!
//! Design constraints, mirroring the rest of the crate:
//!
//! * **Disabled sites cost one relaxed atomic load.** [`record`] takes
//!   the detail as a closure so a disabled recorder never formats a
//!   string.
//! * **Lock-light.** One short [`Mutex`] guards the ring; events are rare
//!   (admissions and incidents, not per-reference work) so contention is
//!   negligible, and a panicking recorder never poisons readers
//!   (`into_inner` on poison).
//! * **Bounded.** The ring holds the newest `capacity` events; sequence
//!   numbers are global and never reused, so a dump shows how much
//!   history was dropped.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Default ring capacity used by [`enable`]'s callers that have no
/// opinion (512 events ≈ minutes of serve history at realistic rates).
pub const DEFAULT_CAPACITY: usize = 512;

static ENABLED: AtomicBool = AtomicBool::new(false);

struct Ring {
    started: Instant,
    next_seq: u64,
    capacity: usize,
    buf: VecDeque<Event>,
}

fn ring() -> MutexGuard<'static, Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            started: Instant::now(),
            next_seq: 0,
            capacity: DEFAULT_CAPACITY,
            buf: VecDeque::new(),
        })
    })
    .lock()
    .unwrap_or_else(|e| e.into_inner())
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (never reused; gaps mean dropped history —
    /// the ring only keeps the newest `capacity`).
    pub seq: u64,
    /// Milliseconds since the recorder first existed.
    pub at_ms: u64,
    /// Static event kind (e.g. `"overloaded"`, `"deadline"`, `"panic"`).
    pub kind: &'static str,
    /// Free-form detail (request id, queue depth, panic message, ...).
    pub detail: String,
}

impl Event {
    /// The event as one line of JSON.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\": {}, \"at_ms\": {}, \"kind\": \"{}\", \"detail\": \"{}\"}}",
            self.seq,
            self.at_ms,
            crate::json::escape(self.kind),
            crate::json::escape(&self.detail)
        )
    }
}

/// Whether events are being recorded (one relaxed load).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on with the given ring capacity (min 1). Existing
/// events beyond the new capacity are dropped oldest-first.
pub fn enable(capacity: usize) {
    {
        let mut r = ring();
        r.capacity = capacity.max(1);
        while r.buf.len() > r.capacity {
            r.buf.pop_front();
        }
    }
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the recorder off; [`record`] becomes one relaxed load again.
/// Already-recorded events stay dumpable.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Drops all recorded events (capacity and sequence counter survive —
/// sequence numbers are never reused).
pub fn clear() {
    ring().buf.clear();
}

/// Records one event. `detail` is only invoked when the recorder is
/// enabled, so a disabled site never formats anything.
#[inline]
pub fn record(kind: &'static str, detail: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    let detail = detail();
    let mut r = ring();
    let at_ms = r.started.elapsed().as_millis() as u64;
    let seq = r.next_seq;
    r.next_seq += 1;
    if r.buf.len() == r.capacity {
        r.buf.pop_front();
    }
    r.buf.push_back(Event {
        seq,
        at_ms,
        kind,
        detail,
    });
}

/// The recorded events, oldest first.
pub fn recent() -> Vec<Event> {
    ring().buf.iter().cloned().collect()
}

/// Renders the ring as a dump: a `# flight-recorder` header, one JSON
/// line per event (oldest first), and a `# flight-recorder end` footer.
/// The markers make the dump greppable inside a busy stderr stream.
pub fn render_dump() -> String {
    let events = recent();
    let mut out = String::new();
    let _ = writeln!(out, "# flight-recorder dump: {} event(s)", events.len());
    for e in &events {
        let _ = writeln!(out, "{}", e.to_json());
    }
    out.push_str("# flight-recorder end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recorder state is process-global; tests must not interleave.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recorder_never_builds_details() {
        let _guard = lock();
        disable();
        clear();
        let mut called = false;
        record("admit", || {
            called = true;
            String::new()
        });
        assert!(!called, "detail closure must not run while disabled");
        assert!(recent().is_empty());
    }

    #[test]
    fn ring_keeps_newest_with_global_sequence() {
        let _guard = lock();
        clear();
        enable(4);
        let first_seq = {
            record("probe", String::new);
            let seq = recent().last().unwrap().seq;
            clear();
            seq + 1
        };
        for i in 0..10 {
            record("admit", || format!("r{i}"));
        }
        disable();
        let events = recent();
        assert_eq!(events.len(), 4, "capacity bounds the ring");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(
            seqs,
            vec![first_seq + 6, first_seq + 7, first_seq + 8, first_seq + 9]
        );
        assert_eq!(events[0].detail, "r6");
        assert_eq!(events[3].detail, "r9");
    }

    #[test]
    fn dump_is_marked_and_json_lines_parse() {
        let _guard = lock();
        clear();
        enable(8);
        record("overloaded", || "id=c9 queue=0".to_string());
        record("deadline", || "id=c10 \"quoted\"".to_string());
        disable();
        let dump = render_dump();
        let mut lines = dump.lines();
        assert_eq!(lines.next(), Some("# flight-recorder dump: 2 event(s)"));
        let mut body = 0;
        for line in lines {
            if line == "# flight-recorder end" {
                break;
            }
            body += 1;
            crate::json::Json::parse(line).unwrap_or_else(|e| panic!("bad dump line {line}: {e}"));
        }
        assert_eq!(body, 2);
        assert!(dump.contains("\"kind\": \"overloaded\""));
        assert!(
            dump.contains("\\\"quoted\\\""),
            "details are escaped: {dump}"
        );
        assert!(dump.ends_with("# flight-recorder end\n"));
    }

    #[test]
    fn shrinking_capacity_trims_oldest() {
        let _guard = lock();
        clear();
        enable(8);
        for i in 0..6 {
            record("e", || format!("{i}"));
        }
        enable(2);
        disable();
        let events = recent();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].detail, "5");
    }
}
