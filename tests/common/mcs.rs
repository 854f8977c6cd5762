//! The paper's concurrent trace collation (§3.2.1), kept as a test
//! reference for the deterministic round-robin order every prediction
//! uses: an MCS queue lock (Mellor-Crummey & Scott, 1991) and the
//! interleaving it produces when real threads submit their traces
//! through it.
//!
//! The paper collates memory accesses submitted by different threads with
//! an MCS lock "because it provides starvation freedom and fairness (FIFO
//! ordering)". This implementation uses per-thread queue nodes in a fixed
//! slot array addressed by small integers instead of raw pointers, which
//! needs no `unsafe` while preserving the algorithm: a single atomic tail
//! swap enqueues a waiter behind its predecessor, each waiter spins on its
//! *own* node's flag (local spinning), and unlock hands the lock to the
//! queue successor — FIFO order by construction.

use memtrace::Access;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Sentinel meaning "no node" in `tail`/`next` (slots are stored +1).
const NIL: usize = 0;

struct Node {
    /// Slot + 1 of the queue successor, or [`NIL`].
    next: AtomicUsize,
    /// `true` while this waiter must keep spinning.
    locked: AtomicBool,
    /// Guards against a slot being used for two overlapping acquisitions.
    in_use: AtomicBool,
}

/// A fair, FIFO-ordered MCS queue lock with a fixed number of slots.
///
/// Each participating thread must use its own dedicated slot index (e.g.
/// its thread id); a slot can be part of at most one acquisition at a time,
/// which is checked at runtime.
pub struct McsLock {
    tail: AtomicUsize,
    nodes: Box<[Node]>,
}

impl McsLock {
    /// Creates a lock usable by `num_slots` threads (slots `0..num_slots`).
    ///
    /// # Panics
    ///
    /// Panics if `num_slots` is zero.
    pub fn new(num_slots: usize) -> Self {
        assert!(num_slots > 0, "MCS lock needs at least one slot");
        let nodes = (0..num_slots)
            .map(|_| Node {
                next: AtomicUsize::new(NIL),
                locked: AtomicBool::new(false),
                in_use: AtomicBool::new(false),
            })
            .collect();
        McsLock {
            tail: AtomicUsize::new(NIL),
            nodes,
        }
    }

    /// Acquires the lock using `slot`, spinning until it is granted.
    ///
    /// Returns a guard that releases the lock when dropped.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or already part of an acquisition.
    pub fn lock(&self, slot: usize) -> McsGuard<'_> {
        let node = &self.nodes[slot];
        assert!(
            !node.in_use.swap(true, Ordering::Acquire),
            "MCS slot {slot} used for two overlapping acquisitions"
        );
        node.next.store(NIL, Ordering::Relaxed);
        node.locked.store(true, Ordering::Relaxed);
        let pred = self.tail.swap(slot + 1, Ordering::AcqRel);
        if pred != NIL {
            // Link behind the predecessor, then spin locally.
            self.nodes[pred - 1].next.store(slot + 1, Ordering::Release);
            let mut spins = 0u32;
            while node.locked.load(Ordering::Acquire) {
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        McsGuard { lock: self, slot }
    }

    fn unlock(&self, slot: usize) {
        let node = &self.nodes[slot];
        if node.next.load(Ordering::Acquire) == NIL {
            // No known successor: try to close the queue.
            if self
                .tail
                .compare_exchange(slot + 1, NIL, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                node.in_use.store(false, Ordering::Release);
                return;
            }
            // A successor is enqueuing; wait for the link.
            while node.next.load(Ordering::Acquire) == NIL {
                std::hint::spin_loop();
            }
        }
        let succ = node.next.load(Ordering::Acquire);
        node.in_use.store(false, Ordering::Release);
        self.nodes[succ - 1].locked.store(false, Ordering::Release);
    }
}

/// RAII guard for an acquired [`McsLock`]; releases on drop.
pub struct McsGuard<'a> {
    lock: &'a McsLock,
    slot: usize,
}

impl McsGuard<'_> {
    /// The slot this acquisition used.
    pub fn slot(&self) -> usize {
        self.slot
    }
}

impl Drop for McsGuard<'_> {
    fn drop(&mut self) {
        self.lock.unlock(self.slot);
    }
}

/// Interleaves per-thread traces by actually running one thread per trace,
/// each submitting chunks of `chunk` references under an MCS lock.
///
/// The MCS lock's FIFO ordering guarantees starvation freedom: a thread
/// that requests the collation queue is served before any thread that
/// requests it later. The exact global order depends on OS scheduling and
/// is therefore not deterministic; every reference appears exactly once and
/// per-thread subsequences preserve program order.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn mcs_interleave(traces: &[Vec<Access>], chunk: usize) -> Vec<Access> {
    assert!(chunk > 0, "chunk size must be positive");
    if traces.is_empty() {
        return Vec::new();
    }
    let total: usize = traces.iter().map(|t| t.len()).sum();
    let lock = McsLock::new(traces.len());
    // The MCS lock serialises writers; the Mutex only provides the safe
    // `&mut` projection (it is always uncontended because acquisition order
    // is decided by the MCS queue).
    let out = std::sync::Mutex::new(Vec::with_capacity(total));
    std::thread::scope(|scope| {
        for (slot, trace) in traces.iter().enumerate() {
            let lock = &lock;
            let out = &out;
            scope.spawn(move || {
                let mut cursor = 0;
                while cursor < trace.len() {
                    let end = (cursor + chunk).min(trace.len());
                    let _g = lock.lock(slot);
                    out.lock()
                        .expect("collation buffer poisoned")
                        .extend_from_slice(&trace[cursor..end]);
                    cursor = end;
                }
            });
        }
    });
    out.into_inner().expect("collation buffer poisoned")
}

/// Unwraps a [`std::thread::JoinHandle::join`] result, propagating the
/// worker's own panic message instead of the opaque `Any` payload.
///
/// `handle.join().unwrap()` re-panics with `called `Result::unwrap()` on
/// an `Err` value: Any { .. }`, burying what the worker actually said.
/// This downcasts the payload (panics carry a `&str` or `String` in
/// practice) and re-panics as `"{what} panicked: {message}"`, so a
/// multi-threaded failure is diagnosable from the top-level report.
///
/// # Panics
///
/// Panics if `result` is the `Err` (worker-panicked) variant.
pub fn join_propagating<T>(result: std::thread::Result<T>, what: &str) -> T {
    match result {
        Ok(v) => v,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            panic!("{what} panicked: {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::Array;
    use std::sync::atomic::{AtomicU64, Ordering};

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

    #[test]
    fn single_thread_lock_unlock() {
        let lock = McsLock::new(1);
        for _ in 0..100 {
            let g = lock.lock(0);
            assert_eq!(g.slot(), 0);
        }
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let lock = McsLock::new(8);
        // Increment a shared atomic non-atomically (read, spin, write)
        // under the lock; races would lose updates.
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for slot in 0..8 {
                let lock = &lock;
                let counter = &counter;
                s.spawn(move || {
                    for _ in 0..200 {
                        let _g = lock.lock(slot);
                        let v = counter.load(Ordering::Relaxed);
                        std::hint::spin_loop();
                        counter.store(v + 1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 200);
    }

    #[test]
    fn fifo_handoff_two_threads() {
        // Thread B enqueues while A holds the lock; when A releases, B must
        // acquire before A can re-acquire (FIFO). We verify the sequence of
        // acquisitions recorded under the lock alternates as forced by the
        // barrier-free handoff pattern.
        let lock = McsLock::new(2);
        let order = AtomicU64::new(0);
        std::thread::scope(|s| {
            let g = lock.lock(0);
            let lockref = &lock;
            let orderref = &order;
            let h = s.spawn(move || {
                let _g = lockref.lock(1);
                orderref.fetch_add(1, Ordering::SeqCst);
            });
            // Give B time to enqueue behind us.
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(
                order.load(Ordering::SeqCst),
                0,
                "B acquired while A held the lock"
            );
            drop(g);
            // Propagate the worker's own message (an assert inside the
            // spawned closure would otherwise surface as an opaque
            // `Any { .. }` unwrap).
            join_propagating(h.join(), "handoff worker");
            assert_eq!(order.load(Ordering::SeqCst), 1);
        });
    }

    #[test]
    #[should_panic(expected = "overlapping acquisitions")]
    fn overlapping_slot_use_detected() {
        let lock = McsLock::new(2);
        let _g1 = lock.lock(0);
        let _g2 = lock.lock(0); // same slot while held
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        McsLock::new(0);
    }

    fn assert_valid_interleaving(traces: &[Vec<Access>], out: &[Access]) {
        // Every reference exactly once and per-thread order preserved.
        let total: usize = traces.iter().map(|t| t.len()).sum();
        assert_eq!(out.len(), total);
        let mut cursors = vec![0usize; traces.len()];
        for a in out {
            let t = (a.line / 1000) as usize;
            let i = a.line % 1000;
            assert_eq!(i, cursors[t] as u64, "thread {t} out of order");
            cursors[t] += 1;
        }
        for (t, (&c, tr)) in cursors.iter().zip(traces).enumerate() {
            assert_eq!(c, tr.len(), "thread {t} incomplete");
        }
    }

    #[test]
    fn mcs_interleave_is_a_valid_interleaving() {
        let traces = traces_of(&[50, 70, 30, 60]);
        let out = mcs_interleave(&traces, 4);
        assert_valid_interleaving(&traces, &out);
    }

    #[test]
    fn mcs_interleave_chunk1() {
        let traces = traces_of(&[25, 25]);
        let out = mcs_interleave(&traces, 1);
        assert_valid_interleaving(&traces, &out);
    }

    #[test]
    fn mcs_interleave_single_thread_preserves_order() {
        let traces = traces_of(&[10]);
        let out = mcs_interleave(&traces, 3);
        let lines: Vec<u64> = out.iter().map(|a| a.line).collect();
        assert_eq!(lines, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn ok_value_passes_through() {
        let h = std::thread::spawn(|| 42);
        assert_eq!(join_propagating(h.join(), "worker"), 42);
    }

    #[test]
    fn str_payload_is_propagated() {
        let joined = std::thread::spawn(|| panic!("bad slot index")).join();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join_propagating(joined, "cursor worker")
        }))
        .expect_err("must re-panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "cursor worker panicked: bad slot index");
    }

    #[test]
    fn formatted_payload_is_propagated() {
        let joined = std::thread::spawn(|| panic!("shard {} out of range", 7)).join();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join_propagating(joined, "shard worker")
        }))
        .expect_err("must re-panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "shard worker panicked: shard 7 out of range");
    }
}
