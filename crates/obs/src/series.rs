//! Rolling time-series over monotonic counters.
//!
//! A long-lived daemon needs *rates*, not lifetime totals: "the cache
//! hit-rate is 98% since boot" hides the cold client that is missing
//! right now. A sampler thread snapshots its live counters on a fixed
//! tick into a [`SeriesRing`]; windowed rates are then derived as the
//! delta between the newest sample and the oldest sample still inside
//! the window, divided by the time between them.
//!
//! Contracts the serve daemon (and DESIGN.md §3e) rely on:
//!
//! * **Bounded.** The ring keeps the newest `capacity` samples; pushing
//!   beyond that drops the oldest. Memory is `O(capacity × keys)` and
//!   independent of uptime.
//! * **Deltas, not totals.** A rate over window `w` uses exactly two
//!   samples — the newest, and the oldest with `at_ms >= now - w` — so
//!   a counter that stopped moving decays to 0 within one window.
//! * **Honest absence.** Fewer than two samples in the window (daemon
//!   just started, window shorter than the tick) yields `None`, which
//!   serializes as `null` — never a fabricated 0.
//! * **Monotonic inputs.** Samples carry cumulative counters; deltas are
//!   `saturating_sub`, so a counter reset (which live serve counters
//!   never do) clamps to 0 rather than underflowing.

use std::collections::BTreeMap;
use std::collections::VecDeque;

/// The STATUS windows: label → width in milliseconds.
pub const WINDOWS: [(&str, u64); 3] = [("10s", 10_000), ("1m", 60_000), ("5m", 300_000)];

/// One sampler tick: a timestamp plus the cumulative counter values and
/// instantaneous gauge values observed at that instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Sample {
    /// Milliseconds since the observer's epoch (serve uses daemon start).
    pub at_ms: u64,
    /// Cumulative counters (monotonic).
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous gauges (e.g. queue depth) at this tick.
    pub gauges: BTreeMap<String, u64>,
}

impl Sample {
    /// The named counter at this tick (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Bounded ring of [`Sample`]s with windowed-rate derivation.
#[derive(Clone, Debug)]
pub struct SeriesRing {
    capacity: usize,
    samples: VecDeque<Sample>,
}

impl SeriesRing {
    /// An empty ring keeping at most `capacity` samples (min 2 — a rate
    /// needs two points).
    pub fn new(capacity: usize) -> SeriesRing {
        SeriesRing {
            capacity: capacity.max(2),
            samples: VecDeque::new(),
        }
    }

    /// Capacity that covers the widest [`WINDOWS`] entry at `tick_ms`
    /// (plus one fencepost sample), clamped to `[2, 4096]` so a
    /// pathological tick cannot balloon memory.
    pub fn capacity_for_tick(tick_ms: u64) -> usize {
        let widest = WINDOWS.iter().map(|&(_, w)| w).max().unwrap_or(0);
        (widest / tick_ms.max(1) + 2).clamp(2, 4096) as usize
    }

    /// Appends a sample, dropping the oldest beyond capacity. Samples
    /// must arrive in non-decreasing `at_ms` order (one sampler thread).
    pub fn push(&mut self, sample: Sample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The two samples a `window_ms` rate at `now_ms` is derived from:
    /// the oldest retained sample with `at_ms >= now_ms - window_ms`,
    /// and the newest. `None` unless both exist and time actually
    /// elapsed between them.
    pub fn window(&self, now_ms: u64, window_ms: u64) -> Option<(&Sample, &Sample)> {
        let newest = self.samples.back()?;
        let cutoff = now_ms.saturating_sub(window_ms);
        let oldest = self.samples.iter().find(|s| s.at_ms >= cutoff)?;
        (oldest.at_ms < newest.at_ms).then_some((oldest, newest))
    }

    /// Increase of the named counter across the window (saturating).
    pub fn delta(&self, now_ms: u64, window_ms: u64, counter: &str) -> Option<u64> {
        let (oldest, newest) = self.window(now_ms, window_ms)?;
        Some(
            newest
                .counter(counter)
                .saturating_sub(oldest.counter(counter)),
        )
    }

    /// The named counter's rate per second across the window.
    pub fn rate_per_sec(&self, now_ms: u64, window_ms: u64, counter: &str) -> Option<f64> {
        let (oldest, newest) = self.window(now_ms, window_ms)?;
        let dt_ms = newest.at_ms - oldest.at_ms;
        let delta = newest
            .counter(counter)
            .saturating_sub(oldest.counter(counter));
        Some(delta as f64 * 1000.0 / dt_ms as f64)
    }

    /// Maximum of the named gauge across samples inside the window. A
    /// gauge needs only one point (it is instantaneous, not a delta);
    /// `None` when no sample in the window carries the gauge.
    pub fn gauge_max(&self, now_ms: u64, window_ms: u64, gauge: &str) -> Option<u64> {
        let cutoff = now_ms.saturating_sub(window_ms);
        self.samples
            .iter()
            .filter(|s| s.at_ms >= cutoff)
            .filter_map(|s| s.gauges.get(gauge).copied())
            .max()
    }

    /// `100 × Δnum / Σ Δden` across the window — e.g. cache hit-rate as
    /// `ratio_pct(now, w, "hits", &["hits", "computations"])`. `None`
    /// when the window is unavailable or nothing moved (an idle cache
    /// has no hit-rate, rather than a fake 0% or 100%).
    pub fn ratio_pct(&self, now_ms: u64, window_ms: u64, num: &str, den: &[&str]) -> Option<f64> {
        let (oldest, newest) = self.window(now_ms, window_ms)?;
        let d = |name: &str| newest.counter(name).saturating_sub(oldest.counter(name));
        let denom: u64 = den.iter().map(|n| d(n)).sum();
        if denom == 0 {
            return None;
        }
        Some(100.0 * d(num) as f64 / denom as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_ms: u64, pairs: &[(&str, u64)]) -> Sample {
        Sample {
            at_ms,
            counters: pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            gauges: BTreeMap::new(),
        }
    }

    #[test]
    fn rates_come_from_window_edges() {
        let mut ring = SeriesRing::new(16);
        for t in 0..=10u64 {
            ring.push(sample(t * 1000, &[("refs", t * 100), ("jobs", t)]));
        }
        // 10s window at t=10s spans t=0..10: 1000 refs over 10s.
        assert_eq!(ring.rate_per_sec(10_000, 10_000, "refs"), Some(100.0));
        assert_eq!(ring.delta(10_000, 10_000, "jobs"), Some(10));
        // 4s window only sees t=6..10: 400 refs over 4s.
        assert_eq!(ring.rate_per_sec(10_000, 4_000, "refs"), Some(100.0));
        assert_eq!(ring.delta(10_000, 4_000, "refs"), Some(400));
        // Unknown counters read as 0 everywhere -> rate 0, not None.
        assert_eq!(ring.rate_per_sec(10_000, 4_000, "nope"), Some(0.0));
    }

    #[test]
    fn too_few_samples_is_none_not_zero() {
        let mut ring = SeriesRing::new(8);
        assert_eq!(ring.rate_per_sec(0, 10_000, "refs"), None);
        ring.push(sample(0, &[("refs", 5)]));
        assert_eq!(ring.rate_per_sec(0, 10_000, "refs"), None, "one point");
        ring.push(sample(1000, &[("refs", 10)]));
        assert_eq!(ring.rate_per_sec(1000, 10_000, "refs"), Some(5.0));
        // A window too narrow to contain two samples is also None.
        assert_eq!(ring.rate_per_sec(1000, 1, "refs"), None);
    }

    #[test]
    fn capacity_bounds_and_drops_oldest() {
        let mut ring = SeriesRing::new(3);
        for t in 0..10u64 {
            ring.push(sample(t, &[("c", t)]));
        }
        assert_eq!(ring.len(), 3);
        let span = ring
            .window(9, 1_000_000)
            .map(|(old, new)| (old.at_ms, new.at_ms));
        assert_eq!(span, Some((7, 9)));
        // The huge window clamps to what's retained: t=7..9.
        assert_eq!(ring.delta(9, 1_000_000, "c"), Some(2));
    }

    #[test]
    fn ratio_pct_is_windowed_and_honest_when_idle() {
        let mut ring = SeriesRing::new(16);
        // Lifetime: 50 hits / 100 lookups = 50%. Last 2 ticks: 30/30 hit.
        ring.push(sample(0, &[("hits", 0), ("comps", 0)]));
        ring.push(sample(1000, &[("hits", 20), ("comps", 50)]));
        ring.push(sample(2000, &[("hits", 35), ("comps", 50)]));
        ring.push(sample(3000, &[("hits", 50), ("comps", 50)]));
        let recent = ring
            .ratio_pct(3000, 2000, "hits", &["hits", "comps"])
            .unwrap();
        assert!(
            (recent - 100.0).abs() < 1e-9,
            "window is all hits: {recent}"
        );
        let lifetime = ring
            .ratio_pct(3000, 10_000, "hits", &["hits", "comps"])
            .unwrap();
        assert!((lifetime - 50.0).abs() < 1e-9, "{lifetime}");
        // Nothing moved in the window -> None, not 0%.
        ring.push(sample(4000, &[("hits", 50), ("comps", 50)]));
        assert_eq!(ring.ratio_pct(4000, 1000, "hits", &["hits", "comps"]), None);
    }

    #[test]
    fn gauge_max_needs_only_one_point_in_window() {
        let mut ring = SeriesRing::new(8);
        let mut s = sample(1000, &[]);
        s.gauges.insert("depth".into(), 7);
        ring.push(s);
        let mut s = sample(2000, &[]);
        s.gauges.insert("depth".into(), 3);
        ring.push(s);
        // One-point windows still answer (unlike counter rates).
        assert_eq!(ring.gauge_max(2000, 500, "depth"), Some(3));
        assert_eq!(ring.gauge_max(2000, 2000, "depth"), Some(7));
        assert_eq!(ring.gauge_max(2000, 2000, "missing"), None);
    }

    #[test]
    fn counter_reset_saturates_to_zero() {
        let mut ring = SeriesRing::new(8);
        ring.push(sample(0, &[("c", 100)]));
        ring.push(sample(1000, &[("c", 40)]));
        assert_eq!(ring.delta(1000, 10_000, "c"), Some(0));
    }

    #[test]
    fn capacity_for_tick_covers_widest_window() {
        assert_eq!(SeriesRing::capacity_for_tick(1000), 302);
        assert_eq!(SeriesRing::capacity_for_tick(0), 4096, "clamped");
        assert_eq!(SeriesRing::capacity_for_tick(u64::MAX), 2);
    }
}
