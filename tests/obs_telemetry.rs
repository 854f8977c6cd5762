//! Telemetry invariants over the real prediction pipeline:
//!
//! * the batch report is byte-identical with telemetry on vs off and for
//!   any worker count (telemetry is a pure side channel);
//! * the model-result part of the aggregate (cache and batch accounting,
//!   profile builds, exact-stack totals, derived histograms) is identical
//!   for 1 vs N workers, i.e. thread-local collector merging is
//!   order-insensitive. Work-volume telemetry is excluded by design: the
//!   capacity-shard fan-out sizes itself to the pool, and every shard
//!   replays its domain stream, so trace-generation counters legitimately
//!   grow with worker count (the *reports* still don't — see above).
//!
//! Telemetry state is process-global, so every test serialises on one
//! mutex and leaves the sink disabled.

use a64fx_spmv::obs::{self, Aggregate, SpanStats};
use a64fx_spmv::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Serialises tests that touch the global telemetry state.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The aggregate with wall-clock and schedule-dependent data removed:
/// span `wall_ns` zeroed and gauges/checkpoints cleared. Two runs of the
/// same deterministic workload must produce equal stripped aggregates
/// regardless of worker count.
fn deterministic_view(agg: &Aggregate) -> Aggregate {
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
        counters: agg.counters.clone(),
        gauges: BTreeMap::new(),
        histograms: agg.histograms.clone(),
        roots: agg
            .roots
            .iter()
            .map(|(k, v)| (k.clone(), strip(v)))
            .collect(),
        checkpoints: Vec::new(),
    }
}

const SPEC: &str = "corpus count=6 scale=64 seed=11\n\
                    methods A,B\n\
                    settings off,2,5\n\
                    threads 4\n\
                    scale 64\n";

fn batch_report(workers: usize, telemetry: bool) -> String {
    let mut spec = BatchSpec::parse(SPEC).expect("spec parses");
    spec.workers = workers;
    obs::reset();
    if telemetry {
        obs::enable();
    } else {
        obs::disable();
    }
    let out = run_batch(&spec).expect("batch runs").to_json_lines();
    obs::disable();
    out
}

#[test]
fn report_bytes_identical_with_and_without_telemetry() {
    let _guard = obs_lock();
    let plain = batch_report(1, false);
    let with_telemetry = batch_report(1, true);
    assert!(
        plain == with_telemetry,
        "telemetry must not change report bytes"
    );
    assert!(plain.contains("\"summary\":"));
}

#[test]
fn report_bytes_identical_with_the_full_observability_plane() {
    let _guard = obs_lock();
    use locality_engine::{run_streaming, run_streaming_traced, CancelToken};

    // Everything off: the plain streaming run is the byte oracle.
    obs::reset();
    obs::disable();
    let spec = BatchSpec::parse(SPEC).expect("spec parses");
    let token = CancelToken::never();
    let mut plain = String::new();
    run_streaming(&spec, &ProfileCache::new(), &token, |r| {
        plain.push_str(&r.to_json_line());
        plain.push('\n');
    })
    .expect("plain streaming runs");

    // Everything on: global metrics sink, flight-recorder ring, and a
    // live per-request trace ctx — the whole serve observability plane.
    obs::reset();
    obs::enable();
    obs::events::enable(obs::events::DEFAULT_CAPACITY);
    let ctx = obs::RequestCtx::new("full-plane");
    let mut traced = String::new();
    run_streaming_traced(&spec, &ProfileCache::new(), &token, &ctx, |r| {
        traced.push_str(&r.to_json_line());
        traced.push('\n');
    })
    .expect("traced streaming runs");
    obs::events::disable();
    obs::disable();

    assert!(
        plain == traced,
        "the observability plane must not change report bytes"
    );
    let trace = ctx.finish().expect("live ctx yields a trace");
    assert!(trace.total_ns > 0);
    assert!(trace.root.get(&["cache-lookup"]).is_some());
}

#[test]
fn report_bytes_identical_across_worker_counts() {
    let _guard = obs_lock();
    let one = batch_report(1, true);
    for workers in [2, 4, 8] {
        let many = batch_report(workers, true);
        assert!(one == many, "report differs with {workers} workers");
    }
}

#[test]
fn deterministic_aggregate_is_worker_count_invariant() {
    let _guard = obs_lock();
    // Same batch under 1 and 4 workers: wall times, steal counts and
    // per-worker job distribution legitimately differ, but the
    // deterministic view — counters like trace reference totals and cache
    // computations, histograms, span counts on the deterministic paths —
    // must merge to the same aggregate regardless of scheduling.
    let snap = |workers: usize| {
        let mut spec = BatchSpec::parse(SPEC).expect("spec parses");
        spec.workers = workers;
        obs::reset();
        obs::enable();
        run_batch(&spec).expect("batch runs");
        let agg = obs::snapshot();
        obs::disable();
        agg
    };
    let base = snap(1);
    let wide = snap(4);

    let mut det1 = deterministic_view(&base);
    let mut det4 = deterministic_view(&wide);
    // Schedule-dependent by design: who stole what, how jobs spread over
    // workers, how many worker spans the pools opened — and, since the
    // capacity-shard fan-out sizes itself to the pool width, the *work
    // volume* of the tracked pipeline: every shard replays the domain
    // stream against its slice of the capacity grid, so cursor feeds and
    // references, marker-stack traffic and the per-shard
    // `profile.domain` spans all grow with worker count.
    // Everything that describes the *model's results* — cache and batch
    // accounting, profile builds, exact-stack totals, the derived
    // histograms, the `cache.lookup`/`profile.build` span counts — must
    // match exactly.
    for agg in [&mut det1, &mut det4] {
        agg.counters.remove("engine.pool.steals");
        agg.counters.remove("engine.pool.jobs");
        for work in [
            "memtrace.cursor.feeds",
            "memtrace.cursor.refs",
            "reuse.marker.accesses",
            "reuse.marker.warm_accesses",
        ] {
            agg.counters.remove(work);
        }
        agg.histograms.remove("engine.pool.jobs_per_worker");
        agg.histograms.remove("memtrace.stream.refs");
        agg.histograms.remove("reuse.marker.depth");
        if let Some(pool) = agg.roots.get_mut("pool.worker") {
            pool.count = 0;
            pool.children.remove("profile.domain");
        }
    }
    assert_eq!(
        det1, det4,
        "deterministic telemetry must not depend on worker count"
    );

    // Sanity: the invariant part actually saw the pipeline.
    assert!(base.counters["memtrace.cursor.refs"] > 0);
    assert_eq!(base.counters["engine.cache.computations"], 12); // 6 matrices x 2 methods
    assert_eq!(base.counters["engine.cache.hits"], 24); // 12 profiles x 2 extra settings
    assert_eq!(base.counters["engine.batch.jobs"], 36);
    // Sharding only ever *adds* replay work, never removes any.
    assert!(wide.counters["memtrace.cursor.refs"] >= base.counters["memtrace.cursor.refs"]);
}

#[test]
fn disabled_telemetry_records_nothing_during_batch() {
    let _guard = obs_lock();
    obs::reset();
    obs::disable();
    let spec = BatchSpec::parse(SPEC).expect("spec parses");
    run_batch(&spec).expect("batch runs");
    let agg = obs::snapshot();
    assert!(agg.counters.is_empty(), "counters: {:?}", agg.counters);
    assert!(agg.roots.is_empty());
    assert!(agg.histograms.is_empty());
}
