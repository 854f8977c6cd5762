//! A work-stealing worker pool on plain `std::thread` — the build
//! environment has no third-party crates, so there is no rayon or
//! crossbeam to lean on.
//!
//! The engine runs two kinds of item on it: a batch's matrices (each with
//! all its jobs), and one profile's L2 domains or capacity shards. A
//! batch gives its profiles only the width its matrices leave unused, so
//! the two never multiply into more threads than the batch's `workers`.
//!
//! Each worker owns a deque of item indices; it pops from the front of its
//! own deque and, when empty, steals from the *back* of a sibling's (the
//! classic split that keeps contention low and gives thieves the work the
//! owner would reach last). Items are dealt round-robin up front, so with
//! uniform costs nobody steals at all and with skewed costs (one huge
//! matrix among small ones) idle workers drain the loaded deque.
//!
//! Results are returned in item order regardless of which worker ran
//! what — batch output must be byte-identical for any worker count.

use std::collections::VecDeque;
use std::sync::Mutex;

/// The thread count a `workers` request resolves to: `0` means one per
/// host core. Callers sizing work *for* the pool (e.g. the capacity-shard
/// heuristic) use this to see the same parallelism `run_indexed` will.
pub fn resolved_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        workers
    }
}

/// Runs `run(i, &items[i])` for every item on `workers` threads and
/// returns the results in item order.
///
/// `workers == 0` means one per host core. Panics in `run` propagate.
pub fn run_indexed<T, R, F>(workers: usize, items: &[T], run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = resolved_workers(workers).min(items.len().max(1));

    obs::gauge_max("engine.pool.workers", workers as u64);

    // One worker means no parallelism to buy: run inline on the calling
    // thread instead of paying a thread spawn plus mutexed deques for a
    // serial traversal. On a single-core host this is what makes the
    // "parallel" engine path cost the same as the serial one.
    if workers == 1 {
        // A spawned worker's span opens on a fresh thread stack, so it is
        // a root in the aggregated tree; open the inline one as a root
        // too, keeping the span tree invariant under worker count.
        let span = obs::span_root("pool.worker");
        if obs::enabled() {
            obs::add("engine.pool.jobs", items.len() as u64);
            obs::observe("engine.pool.jobs_per_worker", items.len() as u64);
        }
        let out = items
            .iter()
            .enumerate()
            .map(|(i, item)| run(i, item))
            .collect();
        drop(span);
        return out;
    }

    // Deal round-robin: worker w starts with items w, w+workers, ...
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..items.len()).step_by(workers).collect()))
        .collect();

    let results = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for w in 0..workers {
            let deques = &deques;
            let results = &results;
            let run = &run;
            scope.spawn(move || {
                let span = obs::span("pool.worker");
                let mut local = Vec::new();
                let mut stolen = 0u64;
                loop {
                    // Own deque first (front), then steal from the back of
                    // the first sibling that still has work. No deque is
                    // ever refilled, so finding all of them empty is a
                    // sound termination condition (no len-then-pop race:
                    // the pop itself is the check).
                    let job = (0..workers).map(|k| (w + k) % workers).find_map(|v| {
                        let mut deque = deques[v].lock().expect("deque poisoned");
                        let popped = if v == w {
                            deque.pop_front()
                        } else {
                            deque.pop_back()
                        };
                        if popped.is_some() && v != w {
                            stolen += 1;
                        }
                        popped
                    });
                    match job {
                        Some(i) => local.push((i, run(i, &items[i]))),
                        None => break,
                    }
                }
                if obs::enabled() {
                    obs::add("engine.pool.jobs", local.len() as u64);
                    obs::add("engine.pool.steals", stolen);
                    obs::observe("engine.pool.jobs_per_worker", local.len() as u64);
                }
                results.lock().expect("results poisoned").append(&mut local);
                // Drain this worker's collector before the scope observes
                // completion — `thread::scope` can return before TLS
                // destructors run, and telemetry promises "drained at join".
                drop(span);
                obs::flush_thread();
            });
        }
    });

    let mut collected = results.into_inner().expect("results poisoned");
    collected.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(collected.len(), items.len());
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order_for_any_worker_count() {
        let items: Vec<usize> = (0..57).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 8, 64] {
            assert_eq!(
                run_indexed(workers, &items, |_, &x| x * x),
                expect,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
        run_indexed(4, &(0..40).collect::<Vec<_>>(), |i, _| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn skewed_costs_get_stolen() {
        // One slow job at the head of worker 0's deque: the other jobs
        // must still all complete (stolen or not) and order must hold.
        let items: Vec<u64> = (0..16).map(|i| if i == 0 { 30 } else { 1 }).collect();
        let out = run_indexed(4, &items, |i, &ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_degenerate() {
        assert!(run_indexed(4, &Vec::<u8>::new(), |_, &b| b).is_empty());
        assert_eq!(run_indexed(0, &[7u8], |_, &b| b), vec![7]);
    }
}
