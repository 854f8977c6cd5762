//! Per-layer probes: each times calls into one crate's public functions
//! on one of the workload's own matrices, inside spans.

use crate::spans::Tracer;
use a64fx::sim_spmv::simulate_spmv;
use a64fx::MachineConfig;
use locality_core::{
    DomainPartial, LocalityProfile, Method, ProfileBuilder, SectorSetting, TrackedCaps,
};
use locality_engine::{compute_profile_sharded, ProfileCache, ProfileKey};
use memtrace::cursor::{SpmvCursor, XCursor};
use memtrace::interleave::round_robin_cursors_blocks;
use memtrace::spmv_trace::trace_len;
use memtrace::{AccessBlock, ArraySet, BlockSink, DataLayout, PackedAccess, BLOCK_REFS};
use reuse::{ExactStack, MarkerStack};
use sparsemat::{CsrMatrix, RowPartition};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Shortest time a repeated probe measures before it reports.
const MIN_PROBE_SECS: f64 = 0.3;
/// Shard counts of the shard-scaling record.
const SHARD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

pub type Metrics = BTreeMap<String, f64>;

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `f` under span `name` at least three times and for at least
/// [`MIN_PROBE_SECS`]; returns the median duration in seconds.
fn repeat(t: &mut Tracer, name: &str, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < 3 || start.elapsed().as_secs_f64() < MIN_PROBE_SECS {
        secs.push(t.timed(name, &mut f));
    }
    median(&secs)
}

struct Count(u64);

impl BlockSink for Count {
    fn consume(&mut self, block: &AccessBlock) {
        self.0 += block.len() as u64;
    }
}

struct Collect(Vec<PackedAccess>);

impl BlockSink for Collect {
    fn consume(&mut self, block: &AccessBlock) {
        self.0.extend_from_slice(block.refs());
    }
}

/// Row ranges of L2 domain 0 under the modelled thread partition.
fn domain0_rows(m: &CsrMatrix, cfg: &MachineConfig, threads: usize) -> Vec<std::ops::Range<usize>> {
    let partition = RowPartition::static_rows(m.num_rows(), threads);
    partition.iter().take(cfg.cores_per_domain).collect()
}

/// Capacity grid of the paper sweep, all routings merged.
fn sweep_caps(cfg: &MachineConfig) -> Vec<usize> {
    let t = TrackedCaps::for_sweep(cfg, &SectorSetting::paper_sweep());
    let mut caps: Vec<usize> = [t.shared, t.part0, t.part1].concat();
    caps.sort_unstable();
    caps.dedup();
    caps
}

/// `k` capacities spread geometrically over the sweep grid's range.
fn spread_caps(grid: &[usize], k: usize) -> Vec<usize> {
    let (lo, hi) = (grid[0] as f64, grid[grid.len() - 1] as f64);
    (0..k)
        .map(|i| {
            let f = if k == 1 {
                1.0
            } else {
                i as f64 / (k - 1) as f64
            };
            (lo * (hi / lo).powf(f)).round() as usize
        })
        .collect()
}

fn marker_stack(caps: &[usize], lines: u64) -> MarkerStack {
    // The pipeline's dense line index applies up to 4M lines.
    if lines <= 1 << 22 {
        MarkerStack::with_line_universe(caps, lines as usize)
    } else {
        MarkerStack::new(caps)
    }
}

/// memtrace, reuse, core, engine and a64fx probes on matrix `m`.
pub fn layer_probes(
    t: &mut Tracer,
    m: &CsrMatrix,
    cfg: &MachineConfig,
    threads: usize,
    nproc: usize,
) -> Metrics {
    let mut out = Metrics::new();
    let settings = SectorSetting::paper_sweep();
    let layout = DataLayout::new(m, cfg.l2.line_bytes);
    let rows = domain0_rows(m, cfg, threads);

    // memtrace: one domain's cursors merged into a counting block sink.
    let mut refs = 0;
    let gen = repeat(t, "memtrace.gen", || {
        let mut cursors: Vec<SpmvCursor> = rows
            .iter()
            .map(|r| SpmvCursor::new(m, &layout, r.clone()))
            .collect();
        let mut sink = Count(0);
        round_robin_cursors_blocks(&mut cursors, &mut sink);
        refs = black_box(sink.0);
    });
    out.insert("memtrace.refs".into(), refs as f64);
    out.insert("memtrace.gen_refs_per_s".into(), refs as f64 / gen);

    // reuse: marker stacks replaying the pre-generated block buffer.
    let mut buf = Collect(Vec::with_capacity(refs as usize));
    let mut cursors: Vec<SpmvCursor> = rows
        .iter()
        .map(|r| SpmvCursor::new(m, &layout, r.clone()))
        .collect();
    round_robin_cursors_blocks(&mut cursors, &mut buf);
    let buf = buf.0;
    let lines = layout.total_lines();
    let replay = |stack: &mut MarkerStack| {
        for block in buf.chunks(BLOCK_REFS) {
            stack.access_block(block);
        }
    };
    let grid = sweep_caps(cfg);
    let secs = repeat(t, "reuse.marker_sweep", || {
        let mut stack = marker_stack(&grid, lines);
        replay(&mut stack);
        black_box(&stack);
    });
    out.insert("reuse.marker_refs_per_s".into(), buf.len() as f64 / secs);
    for k in [1usize, 4, 16] {
        let caps = spread_caps(&grid, k);
        let secs = repeat(t, &format!("reuse.marker_caps_{k}"), || {
            let mut stack = marker_stack(&caps, lines);
            replay(&mut stack);
            black_box(&stack);
        });
        out.insert(
            format!("reuse.marker_ns_per_ref_per_cap_{k}"),
            secs * 1e9 / (buf.len() * k) as f64,
        );
    }
    drop(buf);

    // reuse: exact stack over domain 0's x trace (method B's input).
    let mut xs = Collect(Vec::new());
    let mut xcursors: Vec<XCursor> = rows
        .iter()
        .map(|r| XCursor::new(m, &layout, r.clone()))
        .collect();
    round_robin_cursors_blocks(&mut xcursors, &mut xs);
    let xs = xs.0;
    let secs = repeat(t, "reuse.exact", || {
        let mut stack = ExactStack::new();
        for p in &xs {
            black_box(stack.access(p.line()));
        }
    });
    out.insert("reuse.exact_refs_per_s".into(), xs.len() as f64 / secs);

    // core: the serial sweep profile, stage by stage.
    let total_refs = trace_len(m.num_rows(), m.nnz()) as f64;
    let profile = t.span("core.profile", |t| {
        let b = ProfileBuilder::for_sweep(m, cfg, Method::A, threads, &settings);
        let partials: Vec<DomainPartial> = (0..b.num_domains())
            .map(|d| {
                let shard = t.span("core.domain_shard_partial", |_| {
                    b.domain_shard_partial(d, 0, 1)
                });
                t.span("core.merge_shards", |_| {
                    DomainPartial::merge_shards(vec![shard])
                })
            })
            .collect();
        t.span("core.finish", |_| b.finish(partials))
    });
    let secs = t.secs("core.profile")[0];
    out.insert("core.profile_ms".into(), secs * 1e3);
    out.insert("core.profile_refs_per_s".into(), total_refs / secs);
    let b = ProfileBuilder::for_sweep(m, cfg, Method::A, threads, &settings);
    let halves: Vec<DomainPartial> = (0..2).map(|s| b.domain_shard_partial(0, s, 2)).collect();
    let merges: Vec<f64> = (0..200)
        .map(|_| {
            let shards = halves.clone();
            t.timed("core.merge_shards", || {
                black_box(DomainPartial::merge_shards(shards));
            })
        })
        .collect();
    out.insert("core.merge_us".into(), median(&merges) * 1e6);
    let mut evals = Vec::new();
    for _ in 0..50 {
        for s in &settings {
            evals.push(t.timed("core.evaluate", || {
                black_box(profile.evaluate(cfg, std::slice::from_ref(s)));
            }));
        }
    }
    out.insert("core.evaluate_us".into(), median(&evals) * 1e6);

    // engine: domain fan-out speed-up, shard scaling, cache hits.
    let sharded = |workers: usize, shards: Option<usize>| {
        black_box(compute_profile_sharded(
            m,
            cfg,
            Method::A,
            threads,
            Some(&settings),
            workers,
            shards,
        ));
    };
    let serial = t.timed("engine.profile_1_worker", || sharded(1, None));
    let parallel = t.timed("engine.profile_nproc_workers", || sharded(nproc, None));
    out.insert("engine.parallel_speedup".into(), serial / parallel);
    let widest = SHARD_COUNTS
        .iter()
        .copied()
        .filter(|&s| s <= nproc)
        .max()
        .unwrap_or(1);
    for shards in SHARD_COUNTS {
        if shards == 1 || shards == widest {
            let secs = t.timed(&format!("engine.shards_{shards}"), || {
                sharded(shards, Some(shards))
            });
            if shards == 1 {
                out.insert("engine.shards_1_ms".into(), secs * 1e3);
            }
            if shards == widest {
                out.insert("engine.shards_nproc_ms".into(), secs * 1e3);
            }
        }
        // Work count: references the marker stacks of all shards replayed.
        // Past `nproc` threads wall-clock scaling measures the scheduler,
        // so only this count is reported there.
        obs::reset();
        obs::enable();
        sharded(shards.min(nproc), Some(shards));
        let work = obs::snapshot().counter("reuse.marker.accesses");
        obs::disable();
        obs::reset();
        out.insert(format!("engine.shards_{shards}_work_refs"), work as f64);
    }
    let cache = ProfileCache::new();
    let key = ProfileKey {
        fingerprint: m.fingerprint(),
        method: Method::A,
        threads,
        line_bytes: cfg.l2.line_bytes,
        cores_per_domain: cfg.cores_per_domain,
        caps_fingerprint: TrackedCaps::for_sweep(cfg, &settings).fingerprint(),
        machine_tag: 0,
    };
    cache.get_or_compute(key, || profile.clone());
    const LOOKUPS: usize = 1000;
    let lookup = repeat(t, "engine.cache_lookup_x1000", || {
        for _ in 0..LOOKUPS {
            black_box(cache.get_or_compute(key, || unreachable!("the key is cached")));
        }
    });
    out.insert(
        "engine.cache_lookup_us".into(),
        lookup * 1e6 / LOOKUPS as f64,
    );

    // a64fx: the simulator on the same matrix (warm-up + measured pass).
    let sim = t.timed("a64fx.simulate_spmv", || {
        black_box(simulate_spmv(m, cfg, ArraySet::EMPTY, threads, 1));
    });
    out.insert("a64fx.sim_refs_per_s".into(), 2.0 * total_refs / sim);
    out
}

/// The in-process batch the workload's command runs: every matrix ×
/// method × paper setting, profiles memoised in a [`ProfileCache`].
/// Returns (cache hits, lookups).
pub fn batch_form(
    t: &mut Tracer,
    matrices: &[&CsrMatrix],
    cfg: &MachineConfig,
    threads: usize,
    workers: usize,
) -> (u64, u64) {
    let settings = SectorSetting::paper_sweep();
    let caps = TrackedCaps::for_sweep(cfg, &settings).fingerprint();
    let cache = ProfileCache::new();
    for &m in matrices {
        let fingerprint = t.span("sparsemat.fingerprint", |_| m.fingerprint());
        for method in [Method::A, Method::B] {
            let key = ProfileKey {
                fingerprint,
                method,
                threads,
                line_bytes: cfg.l2.line_bytes,
                cores_per_domain: cfg.cores_per_domain,
                caps_fingerprint: if method == Method::A { caps } else { 0 },
                machine_tag: 0,
            };
            for s in &settings {
                let profile = t.span("engine.get_or_compute", |t| {
                    cache.get_or_compute(key, || {
                        t.span("engine.compute_profile_sharded", |_| {
                            compute_profile_sharded(
                                m,
                                cfg,
                                method,
                                threads,
                                Some(&settings),
                                workers,
                                None,
                            )
                        })
                    })
                });
                t.span("core.evaluate", |_| {
                    black_box(profile.evaluate(cfg, std::slice::from_ref(s)));
                });
            }
        }
    }
    (cache.hits(), cache.lookups())
}

/// Prices one serve hit in process: `run_streaming` against a warm cache,
/// and the pieces it is made of on the same spec.
pub fn serve_inproc(
    t: &mut Tracer,
    spec_text: &str,
    corpus_seed: u64,
    cfg: &MachineConfig,
) -> Metrics {
    use locality_engine::{run_streaming, BatchSpec, CancelToken};
    let spec = BatchSpec::parse(spec_text).expect("generated specs parse");
    let cache = ProfileCache::new();
    let mut jobs = 0;
    run_streaming(&spec, &cache, &CancelToken::never(), |_| jobs += 1).expect("spec runs");
    let mut runs = Vec::new();
    for _ in 0..5 {
        runs.push(t.timed("engine.run_streaming_warm", || {
            run_streaming(&spec, &cache, &CancelToken::never(), |r| {
                black_box(r.to_json_line());
            })
            .expect("spec runs");
        }));
    }
    let mut built = Vec::new();
    let build = t.timed("corpus.build", || {
        built = corpus::corpus(1, crate::inputs::SERVE_SCALE, corpus_seed);
    });
    let m = &built[0].matrix;
    let fp = t.timed("sparsemat.fingerprint", || {
        black_box(m.fingerprint());
    });
    let settings = SectorSetting::paper_sweep();
    let mut evaluate = 0.0;
    let mut profile = None;
    for method in [Method::A, Method::B] {
        let p: LocalityProfile = compute_profile_sharded(
            m,
            cfg,
            method,
            crate::inputs::THREADS,
            Some(&settings),
            1,
            None,
        );
        for s in &settings {
            evaluate += t.timed("core.evaluate", || {
                black_box(p.evaluate(cfg, std::slice::from_ref(s)));
            });
        }
        profile.get_or_insert(p);
    }
    let profile = profile.expect("method A ran");
    let key = ProfileKey {
        fingerprint: 1,
        method: Method::A,
        threads: crate::inputs::THREADS,
        line_bytes: cfg.l2.line_bytes,
        cores_per_domain: cfg.cores_per_domain,
        caps_fingerprint: 1,
        machine_tag: 0,
    };
    cache.get_or_compute(key, || profile.clone());
    let lookup = t.timed("engine.cache_lookup_x100", || {
        for _ in 0..100 {
            black_box(cache.get_or_compute(key, || unreachable!("the key is cached")));
        }
    }) / 100.0;
    let mut out = Metrics::new();
    out.insert("jobs".into(), jobs as f64);
    out.insert("inproc_ms".into(), median(&runs) * 1e3);
    out.insert("build_ms".into(), build * 1e3);
    out.insert("fingerprint_ms".into(), fp * 1e3);
    out.insert("evaluate_ms".into(), evaluate * 1e3);
    out.insert("lookup_ms".into(), lookup * 1e3 * jobs as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_caps_span_the_grid() {
        assert_eq!(spread_caps(&[4, 16, 64], 1), vec![64]);
        assert_eq!(spread_caps(&[4, 16, 64], 3), vec![4, 16, 64]);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
