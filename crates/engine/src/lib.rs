//! Parallel batch prediction engine with fingerprint-keyed result caching.
//!
//! Sweeping the locality model over a corpus is embarrassingly parallel
//! across matrices but wasteful if done naively: the paper's Table 2/3
//! sweep evaluates 7 sector settings per matrix and method, and the
//! expensive part — the trace analysis — is *identical* for all 7. This
//! crate runs such batches on a work-stealing pool of plain `std`
//! threads, one matrix (with all its jobs) per pool item, memoizing each
//! matrix's [`LocalityProfile`] under its structural fingerprint so a
//! `matrices × methods × settings` batch computes only
//! `matrices × methods` profiles. A profile fans its L2 domains out over
//! only the pool width the matrices leave unused, so a batch has one
//! level of parallelism: many matrices run side by side, one matrix runs
//! its domains side by side.
//!
//! Five entry points, over one private job path (plan the run once, then
//! look up or compute, evaluate and report each job). A spec's matrices
//! enter that path as per-matrix source keys: a matrix is built only when
//! one of its jobs misses the cache, and dropped after its last job (see
//! the `source` module and [`ProfileCache`]'s source memo). In brackets
//! after each, the callers outside this crate that pin it:
//!
//! * [`compute_profile_sharded`] — one profile, its L2 domains (or
//!   capacity shards) fanned out over the pool (the benchmark's
//!   `perfbench/layers/src/probes.rs`).
//! * [`run_batch`] — a whole spec, its matrices on the pool, against a
//!   fresh cache (the `batch` command and `tests/obs_telemetry.rs`).
//! * [`run_on`] — the same sweep over caller-built workloads (the Table 2/3
//!   and hard-matrix drivers, through `crates/bench/src/accuracy.rs` and
//!   `crates/bench/src/bin/exp_hard.rs`).
//! * [`run_streaming`] — a spec in job order on the calling thread against
//!   a caller-owned shared cache, emitting each report as it is made
//!   (`perfbench/layers/src/probes.rs` and `tests/obs_telemetry.rs`).
//! * [`run_streaming_traced`] — the same with a per-request trace (the
//!   serve daemon, `crates/serve/src/server.rs`, and
//!   `tests/obs_telemetry.rs`).
//!
//! * [`job`] — [`BatchSpec`] (what to run) and its line-based spec format,
//!   including the `format`/`reorder` directives that run a batch under a
//!   different storage format (e.g. SELL-C-σ) or row order.
//! * [`cache`] — the [`ProfileCache`], keyed by the workload's
//!   format-tagged [`SpmvWorkload::fingerprint`] (reorder-tagged by the
//!   spec) + method + threads + machine geometry.
//! * [`pool`] — the work-stealing worker pool ([`pool::run_indexed`]): a
//!   batch's matrices, or one profile's domains.
//! * [`report`] — per-job [`Report`]s and the deterministic JSON-lines
//!   output (no timestamps; identical bytes for any worker count).
//!
//! # Example
//!
//! ```
//! use locality_engine::{run_batch, BatchSpec};
//!
//! let spec = BatchSpec::parse(
//!     "corpus count=3 scale=64 seed=1\n\
//!      settings paper\n\
//!      scale 64\n",
//! )
//! .unwrap();
//! let result = run_batch(&spec).unwrap();
//! // 3 matrices x 2 methods x 7 settings:
//! assert_eq!(result.reports.len(), 42);
//! // ...but only 3 x 2 profile computations; the rest hit the cache.
//! assert_eq!(result.stats.profile_computations, 6);
//! assert_eq!(result.stats.profile_hits, 36);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod cancel;
pub mod job;
pub mod pool;
pub mod report;
mod source;

pub use cache::{Admission, CacheLookup, EvictionPolicy, ProfileCache, ProfileKey};
pub use cancel::{CancelToken, Cancelled};
pub use job::{BatchSpec, Job, MatrixSource, SpecError};
pub use report::{BatchResult, BatchStats, EcmSummary, Report};

use a64fx::MachineConfig;
use locality_core::{
    DomainPartial, LocalityProfile, Method, Prediction, ProfileBuilder, SectorSetting,
    SpmvWorkload, TrackedCaps, Workload,
};
use machine::{CacheHierarchy, HierarchyConfig};
use source::{Entry, MatrixSlot};
use std::collections::{hash_map, HashMap};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A batch that could not run: bad spec, unreadable matrix file, or a run
/// stopped by its cancellation token.
#[derive(Debug)]
pub enum EngineError {
    /// The spec text was malformed.
    Spec(SpecError),
    /// A `mtx` source failed to load.
    Matrix {
        /// The path that failed.
        path: std::path::PathBuf,
        /// Reader error text.
        message: String,
    },
    /// A resolved matrix is incompatible with the spec's scenario (e.g.
    /// a CG iteration over a non-square matrix).
    Scenario {
        /// The resolved matrix name.
        name: String,
        /// What was incompatible.
        message: String,
    },
    /// The batch stopped early: its deadline passed or it was cancelled.
    Cancelled(Cancelled),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Spec(e) => write!(f, "{e}"),
            EngineError::Matrix { path, message } => {
                write!(f, "cannot load '{}': {message}", path.display())
            }
            EngineError::Scenario { name, message } => {
                write!(f, "cannot trace '{name}': {message}")
            }
            EngineError::Cancelled(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SpecError> for EngineError {
    fn from(e: SpecError) -> Self {
        EngineError::Spec(e)
    }
}

impl From<Cancelled> for EngineError {
    fn from(c: Cancelled) -> Self {
        EngineError::Cancelled(c)
    }
}

/// The job at position `id` of the spec's deterministic order: matrices
/// outermost, then machines, then methods, then settings.
fn job_at(spec: &BatchSpec, id: usize) -> Job {
    let settings = spec.settings.len();
    let per_machine = spec.methods.len() * settings;
    let within = id % spec.jobs_per_matrix();
    Job {
        id,
        machine: within / per_machine,
        method: spec.methods[within % per_machine / settings],
        setting: spec.settings[within % settings],
    }
}

/// One machine of the batch's sweep, resolved at the spec's scale and
/// thread count: the full hierarchy (for fingerprinting and the ECM
/// model) plus its two-level projection (what the locality model runs
/// on).
struct ResolvedMachine {
    /// Report label (`"a64fx"`, `"generic-x86"`, `"custom"`).
    label: String,
    /// Emit the label in reports? `false` for the default `a64fx`,
    /// keeping legacy bytes.
    emit_label: bool,
    /// Two-level projection for the analytic model.
    cfg: MachineConfig,
    /// The declarative hierarchy itself.
    hier: HierarchyConfig,
    /// [`CacheHierarchy::fingerprint`] — the cache-key machine tag.
    tag: u64,
}

/// Resolves the spec's machine sweep (the implicit `[a64fx]` when no
/// `machine` directive was given). For the a64fx entry this reproduces
/// the historical `a64fx_scaled(scale).with_cores(threads)` config
/// exactly — `MachineConfig::a64fx_scaled` *is* the projection of the
/// scaled preset hierarchy.
fn resolve_machines(spec: &BatchSpec) -> Vec<ResolvedMachine> {
    spec.machine_specs()
        .iter()
        .map(|ms| {
            let hier = ms.hierarchy(spec.scale).with_cores(spec.threads.max(1));
            ResolvedMachine {
                label: ms.label().to_string(),
                emit_label: !ms.is_default(),
                cfg: MachineConfig::from_hierarchy(&hier),
                tag: hier.fingerprint(),
                hier,
            }
        })
        .collect()
}

/// The default machine the batch models (kept for tests and callers
/// outside the machine sweep).
#[cfg(test)]
fn machine_for(spec: &BatchSpec) -> MachineConfig {
    let cfg = if spec.scale <= 1 {
        MachineConfig::a64fx()
    } else {
        MachineConfig::a64fx_scaled(spec.scale)
    };
    cfg.with_cores(spec.threads.max(1))
}

/// Derives the ECM throughput estimate for one prediction: the memory
/// link carries the model's predicted LLC miss lines (per critical-path
/// domain, uniform-spread assumption), inner links carry at least the
/// workload's distinct-line footprint (the streaming lower bound — exact
/// for the matrix/index/result streams, optimistic for repeated `x`
/// gathers missing in inner levels), and the in-core time retires one
/// gather-FMA group per `x` reference at the machine's `cycles_per_nnz`.
/// Used by the batch/streaming paths for their `ecm on` reports; public
/// so the CLI can attach the same estimate to one-shot predictions.
pub fn ecm_for<W: SpmvWorkload>(
    workload: &W,
    hier: &HierarchyConfig,
    prediction: &Prediction,
) -> EcmSummary {
    obs::add("engine.ecm.estimates", 1);
    let line = hier.line_bytes() as f64;
    let cores = hier.num_cores().max(1) as f64;
    let domains = hier.num_domains().max(1) as f64;
    let footprint = workload.layout(hier.line_bytes()).total_lines() as f64 * line;
    let x_refs = workload.x_refs() as f64;
    let mut link_bytes: Vec<f64> = (0..hier.num_levels())
        .map(|i| {
            if machine::ecm::link_is_per_core(hier, i) {
                footprint / cores
            } else {
                footprint / domains
            }
        })
        .collect();
    *link_bytes
        .last_mut()
        .expect("validated hierarchy has levels") = prediction.l2_misses as f64 * line / domains;
    let input = machine::EcmInput {
        flops: 2.0 * x_refs,
        core_seconds: machine::ecm::core_seconds(hier, x_refs / cores),
        link_bytes,
    };
    let est = machine::ecm::estimate(hier, &input);
    EcmSummary {
        gflops: est.gflops,
        t_total_s: est.t_total_s,
        t_core_s: est.t_core_s,
        links: est
            .t_link_s
            .iter()
            .enumerate()
            .map(|(i, &t)| (machine::ecm::link_label(hier, i), t))
            .collect(),
        bottleneck: est.bottleneck,
    }
}

/// Computes a profile with its independent L2 domains fanned out over the
/// work-stealing pool: each domain's trace analysis is a pure function of
/// the builder, so the partials run on `workers` threads and are merged in
/// domain order — the result is byte-identical to the sequential pipeline
/// for any worker count. Inside a batch, `workers` is the width the
/// batch's matrices leave unused ([`profile_workers`]); the streaming
/// runs pass the spec's `workers`. Method (A) runs marker stacks over the
/// capacities `settings` query (see [`ProfileBuilder::for_sweep`]);
/// method (B) ignores `settings`.
///
/// When one matrix has fewer L2 domains than `workers`, the per-domain
/// fan-out alone cannot fill that width; method (A) builders then split
/// each domain's tracked capacity grid into shards — every
/// shard replays the identical stream against a slice of the capacities,
/// and the deterministic per-domain merge reproduces the unsharded
/// counters bit for bit. `shards = None` applies that heuristic;
/// `Some(n)` forces `n` shards per domain, clamped to the tracked grid's
/// slot count. Method (B) builders have nothing to shard and always run
/// the plain per-domain fan-out.
///
/// `token` is polled before each per-domain (or per-shard) partial — the
/// engine's cooperative cancellation checkpoints, so one huge matrix is
/// abandoned within a domain's worth of work. Returns `None` once the
/// token trips; the partially-built profile is discarded.
///
/// Each partial records a `compute/domain` (or `compute/shard`) phase
/// into `ctx` from whichever pool worker ran it, so a TRACE of the request
/// shows the fan-out width and its wall time. A
/// [`disabled`](obs::RequestCtx::disabled) ctx records nothing and costs
/// an `Option` check per partial — profiles are identical either way.
#[allow(clippy::too_many_arguments)]
fn try_compute_profile<W: SpmvWorkload>(
    workload: &W,
    cfg: &MachineConfig,
    method: Method,
    threads: usize,
    settings: &[SectorSetting],
    workers: usize,
    shards: Option<usize>,
    token: &CancelToken,
    ctx: &obs::RequestCtx,
) -> Option<LocalityProfile> {
    let _span = obs::span("profile.build");
    obs::add("core.profile.builds", 1);
    let builder = ProfileBuilder::for_sweep(workload, cfg, method, threads, settings);
    obs::observe("core.profile.domains", builder.num_domains() as u64);
    let num_domains = builder.num_domains();
    let shard_count = match shards {
        Some(n) => n.max(1),
        None => {
            let pool_width = pool::resolved_workers(workers);
            if num_domains == 0 || num_domains >= pool_width {
                1
            } else {
                pool_width.div_ceil(num_domains)
            }
        }
    }
    .min(builder.max_shards());

    if shard_count <= 1 {
        let domains: Vec<usize> = (0..num_domains).collect();
        let partials: Option<Vec<DomainPartial>> = pool::run_indexed(workers, &domains, |_, &d| {
            if token.is_cancelled() {
                None
            } else {
                let _p = ctx.phase(&["compute", "domain"], Some("serve.phase.domain_ns"));
                Some(builder.domain_partial(d))
            }
        })
        .into_iter()
        .collect();
        return Some(builder.finish(partials?));
    }

    obs::gauge_max("engine.profile.shards", shard_count as u64);
    let tasks: Vec<(usize, usize)> = (0..num_domains)
        .flat_map(|d| (0..shard_count).map(move |s| (d, s)))
        .collect();
    let shard_partials: Option<Vec<DomainPartial>> =
        pool::run_indexed(workers, &tasks, |_, &(d, s)| {
            if token.is_cancelled() {
                None
            } else {
                let _p = ctx.phase(&["compute", "shard"], Some("serve.phase.shard_ns"));
                Some(builder.domain_shard_partial(d, s, shard_count))
            }
        })
        .into_iter()
        .collect();
    // Tasks are domain-major, so consecutive chunks are one domain's
    // shards in shard order — exactly what the merge expects.
    let partials: Vec<DomainPartial> = shard_partials?
        .chunks(shard_count)
        .map(|chunk| DomainPartial::merge_shards(chunk.to_vec()))
        .collect();
    Some(builder.finish(partials))
}

/// One profile with its L2 domains (or capacity shards) fanned out over
/// `workers` pool threads; byte-identical for any worker or shard count.
/// The engine's own jobs run the same computation cancellable and traced.
///
/// `settings` is the sweep the profile will be evaluated for. Method (B)
/// ignores it and accepts `None`.
///
/// # Panics
///
/// Panics if `settings` is `None` with method (A): its marker stacks
/// need the capacities to track.
pub fn compute_profile_sharded<W: SpmvWorkload>(
    workload: &W,
    cfg: &MachineConfig,
    method: Method,
    threads: usize,
    settings: Option<&[SectorSetting]>,
    workers: usize,
    shards: Option<usize>,
) -> LocalityProfile {
    let settings = settings.unwrap_or_else(|| {
        assert!(
            method == Method::B,
            "a method (A) profile needs the settings it will be evaluated for"
        );
        &[]
    });
    try_compute_profile(
        workload,
        cfg,
        method,
        threads,
        settings,
        workers,
        shards,
        &CancelToken::never(),
        &obs::RequestCtx::disabled(),
    )
    .expect("a never-cancelled computation completes")
}

/// Everything a run resolves once, before its first job: the machine
/// sweep and each machine's tracked-capacity grid fingerprint.
struct Plan<'a> {
    spec: &'a BatchSpec,
    machines: Vec<ResolvedMachine>,
    caps_fingerprints: Vec<u64>,
}

fn plan(spec: &BatchSpec) -> Plan<'_> {
    let machines = resolve_machines(spec);
    Plan {
        spec,
        caps_fingerprints: machines
            .iter()
            .map(|rm| TrackedCaps::for_sweep(&rm.cfg, &spec.settings).fingerprint())
            .collect(),
        machines,
    }
}

/// Runs one job of `plan` on its matrix `slot` against `cache`: the
/// profile lookup (building the matrix and computing the profile on a
/// miss), the per-setting evaluation and the report. Returns the report
/// and whether the profile was a cache hit. `token` is polled before the
/// job and before a build inside the lookup. Records `build`,
/// `cache-lookup` and `compute` phases into `ctx`. A profile computed here
/// fans out over `workers` pool threads.
fn run_job<'a, W, H>(
    plan: &Plan<'_>,
    job: &Job,
    slot: &MatrixSlot<'a, H>,
    cache: &'a ProfileCache,
    workers: usize,
    token: &CancelToken,
    ctx: &obs::RequestCtx,
) -> Result<(Report, bool), EngineError>
where
    W: SpmvWorkload,
    H: Deref<Target = W> + Clone,
{
    let cancelled = || EngineError::from(token.cancelled().unwrap_or(Cancelled::Shutdown));
    if token.is_cancelled() {
        return Err(cancelled());
    }
    let spec = plan.spec;
    let meta = slot.meta(cache, ctx)?;
    let rm = &plan.machines[job.machine];
    // Method (A) keys on the sweep-restricted capacity grid (marker stacks
    // only answer at the capacities they tracked); method (B) profiles
    // answer every capacity. The hierarchy fingerprint keeps machines whose
    // two-level projections happen to agree from sharing slots.
    let key = ProfileKey {
        fingerprint: meta.fingerprint,
        method: job.method,
        threads: spec.threads,
        line_bytes: rm.cfg.l2.line_bytes,
        cores_per_domain: rm.cfg.cores_per_domain,
        caps_fingerprint: match job.method {
            Method::A => plan.caps_fingerprints[job.machine],
            Method::B => 0,
        },
        machine_tag: rm.tag,
    };
    let mut build_error = None;
    let lookup = {
        let _lookup_phase = ctx.phase(&["cache-lookup"], Some("serve.phase.cache_lookup_ns"));
        cache.get_or_try_compute(key, || {
            if token.is_cancelled() {
                return None;
            }
            let workload = slot
                .workload(cache, ctx)
                .and_then(|w| {
                    // Refuse a layout the stacks cannot index before the
                    // pipeline sizes anything by it.
                    w.check_line_range(rm.cfg.l2.line_bytes)
                        .map(|()| w)
                        .map_err(|message| EngineError::Scenario {
                            name: meta.name.clone(),
                            message,
                        })
                })
                .map_err(|e| build_error = Some(e))
                .ok()?;
            let _compute_phase = ctx.phase(&["compute"], Some("serve.phase.compute_ns"));
            try_compute_profile(
                &*workload,
                &rm.cfg,
                job.method,
                spec.threads,
                &spec.settings,
                workers,
                None,
                token,
                ctx,
            )
        })
    };
    let lookup = lookup.ok_or_else(|| build_error.unwrap_or_else(cancelled))?;
    let prediction = lookup.profile.evaluate(&rm.cfg, &[job.setting])[0];
    let ecm = if spec.ecm {
        Some(ecm_for(&*slot.workload(cache, ctx)?, &rm.hier, &prediction))
    } else {
        None
    };
    let report = report::report_for(
        job,
        &meta.name,
        meta.fingerprint,
        meta.shape,
        spec.threads,
        prediction,
        rm.emit_label.then(|| rm.label.clone()),
        ecm,
    );
    slot.job_done();
    Ok((report, lookup.hit))
}

/// Runs a batch: expands the spec's sources into per-matrix source keys
/// (reading `mtx` files up front, so their errors come first), then deals
/// the matrices to the work-stealing pool as [`run_on`] does. Each matrix
/// is built — with the spec's `reorder`, `format` and scenario — by the
/// first of its jobs that needs it, on the worker running that matrix,
/// and dropped when its last job finishes. A spec with `deadline_ms` runs
/// under a [`CancelToken`] covering the whole batch and reports
/// [`EngineError::Cancelled`] if the budget runs out.
pub fn run_batch(spec: &BatchSpec) -> Result<BatchResult, EngineError> {
    let token = match spec.deadline_ms {
        Some(ms) => CancelToken::with_deadline_ms(ms),
        None => CancelToken::never(),
    };
    batch_spec(spec, &ProfileCache::new(), &token)
}

/// [`run_batch`] against an explicit cache and token: one slot per
/// distinct source, then [`batch_on`].
fn batch_spec(
    spec: &BatchSpec,
    cache: &ProfileCache,
    token: &CancelToken,
) -> Result<BatchResult, EngineError> {
    let jobs = spec.jobs_per_matrix();
    // A source named twice shares one slot (and one countdown), so it is
    // built once whatever the schedule.
    let mut slots: Vec<MatrixSlot<Arc<Workload>>> = Vec::new();
    let mut slot_of = Vec::new();
    let mut by_key = HashMap::new();
    for entry in source::entries(spec) {
        let slot = match entry {
            Entry::Key(key) => match by_key.entry(key) {
                hash_map::Entry::Occupied(seen) => {
                    let i: usize = *seen.get();
                    slots[i].add_jobs(jobs);
                    slot_of.push(i);
                    continue;
                }
                hash_map::Entry::Vacant(new) => {
                    let slot = MatrixSlot::keyed(new.key().clone(), jobs);
                    new.insert(slots.len());
                    slot
                }
            },
            Entry::Mtx(path) => MatrixSlot::read(path, spec, cache, jobs)?,
        };
        slot_of.push(slots.len());
        slots.push(slot);
    }
    batch_on(spec, &slots, &slot_of, cache, token)
}

/// Runs the spec's methods × settings sweep over an explicit list of
/// already built workloads (any [`SpmvWorkload`] — `&CsrMatrix`,
/// `&SellMatrix`, or the [`Workload`] enum). This is the entry point for
/// experiment drivers that build or filter their matrix population
/// themselves — e.g. the Table 2/3 accuracy tables, which keep only
/// matrices above the L2-capacity threshold. The spec's `sources`,
/// `format` and `reorder` are *not* applied here — the caller owns the
/// conversion — but `reorder` still tags the cache/report fingerprints,
/// so callers passing reordered matrices keep them distinct from
/// natural-order runs.
///
/// Matrices run on the work-stealing pool, each one's jobs in job order
/// on one worker; each (matrix, method) profile is computed once and
/// shared by every setting via the fingerprint-keyed cache. Reports come
/// back sorted by job id — matrix outermost, then method, then setting,
/// matching the spec's orders — and carry no timing, so the output is
/// byte-identical for any worker count.
pub fn run_on<W: SpmvWorkload>(spec: &BatchSpec, matrices: &[(&str, &W)]) -> BatchResult {
    let cache = ProfileCache::new();
    let jobs = spec.jobs_per_matrix();
    let slots: Vec<_> = matrices
        .iter()
        .map(|&(name, workload)| MatrixSlot::given(name, workload, spec.reorder, jobs))
        .collect();
    let slot_of: Vec<usize> = (0..slots.len()).collect();
    batch_on(spec, &slots, &slot_of, &cache, &CancelToken::never())
        .expect("a never-cancelled batch over built workloads completes")
}

/// The width a batch's profile computations fan out over: what a pool of
/// `pool_width` threads has left once each worker holds a matrix, so the
/// batch never runs more than `pool_width` analysis threads. A one-matrix
/// batch keeps the whole pool for its domains (or capacity shards); a
/// batch with at least as many matrices as workers computes each profile
/// inline on the worker that holds its matrix.
fn profile_workers(pool_width: usize, matrices: usize) -> usize {
    (pool_width / matrices.clamp(1, pool_width.max(1))).max(1)
}

/// The batch runner behind [`run_batch`] and [`run_on`]: the matrices on
/// the work-stealing pool against `cache`, each one's jobs in job order
/// on one worker, matrix `m`'s on `slots[slot_of[m]]`. A worker thus
/// holds at most its own matrix and never waits on a profile another
/// worker computes (except for a source named twice, which shares one
/// slot). Profiles fan out over [`profile_workers`] threads. `token` is
/// polled before every job and between the per-domain partials inside
/// each profile computation. Once it trips the whole run reports
/// [`Cancelled`] — reports are all or nothing, matching the batch
/// contract (deterministic, complete JSON-lines output); an error stops
/// its matrix's remaining jobs, and the first one in job order is
/// reported.
fn batch_on<'a, W, H>(
    spec: &BatchSpec,
    slots: &[MatrixSlot<'a, H>],
    slot_of: &[usize],
    cache: &'a ProfileCache,
    token: &CancelToken,
) -> Result<BatchResult, EngineError>
where
    W: SpmvWorkload,
    H: Deref<Target = W> + Clone + Send,
{
    let _span = obs::span("batch.run");
    obs::add("engine.batch.runs", 1);
    let plan = plan(spec);
    let per_matrix = spec.jobs_per_matrix();
    let jobs = slot_of.len() * per_matrix;
    let workers = profile_workers(pool::resolved_workers(spec.workers), slot_of.len());
    obs::gauge_max("engine.batch.profile_workers", workers as u64);
    let ctx = obs::RequestCtx::disabled();
    let reports: Result<Vec<Vec<Report>>, EngineError> =
        pool::run_indexed(spec.workers, slot_of, |m, &s| {
            let slot = &slots[s];
            (m * per_matrix..(m + 1) * per_matrix)
                .map(|id| {
                    run_job(&plan, &job_at(spec, id), slot, cache, workers, token, &ctx)
                        .map(|(report, _)| report)
                })
                .collect::<Result<Vec<Report>, EngineError>>()
        })
        .into_iter()
        .collect();

    // The cache is the single source of truth for both the report stats
    // and the telemetry counters — no parallel tally.
    cache.flush_obs();
    obs::add("engine.batch.jobs", jobs as u64);

    Ok(BatchResult {
        stats: BatchStats {
            matrices: slot_of.len(),
            jobs,
            profile_computations: cache.computations(),
            profile_hits: cache.hits(),
        },
        reports: reports?.into_iter().flatten().collect(),
    })
}

/// Streaming batch run for the prediction service: reads the spec's `mtx`
/// sources (so file errors come before any report), then walks its
/// matrices and their jobs **in job order on the calling thread**,
/// emitting each finished [`Report`] through `emit` the moment it exists
/// rather than collecting the batch. One matrix is held at a time, and a
/// matrix is only built when a job misses `cache` (or needs it for an
/// `ecm on` estimate): the cache's source memo answers the name,
/// fingerprint and shape of matrices it has seen. Parallelism comes from
/// the per-domain fan-out inside each profile computation
/// (`spec.workers`) and from the caller running many requests
/// concurrently — all sharing `cache`, which is where repeated matrices
/// across clients become near-free. The returned [`BatchStats`] count
/// this request's hits against the shared cache and the profiles
/// computed for it.
///
/// `token` is polled before every job, before every build, and between
/// domain partials; a tripped token aborts the remainder (already-emitted
/// reports stand — a streaming protocol cannot unsend them) and returns
/// the reason.
pub fn run_streaming(
    spec: &BatchSpec,
    cache: &ProfileCache,
    token: &CancelToken,
    emit: impl FnMut(&Report),
) -> Result<BatchStats, EngineError> {
    run_streaming_traced(spec, cache, token, &obs::RequestCtx::disabled(), emit)
}

/// [`run_streaming`] under a per-request trace ctx (the serve daemon's
/// entry point). Each matrix build records a `build` phase, each job's
/// shared-cache lookup a `cache-lookup` phase, profile computations
/// record `compute` (with `domain`/`shard` children from the pool workers
/// workers), and each report emission records
/// `stream-out`; every phase also feeds a fleet-wide `serve.phase.*`
/// latency histogram. Report bytes are identical to an untraced run.
pub fn run_streaming_traced(
    spec: &BatchSpec,
    cache: &ProfileCache,
    token: &CancelToken,
    ctx: &obs::RequestCtx,
    mut emit: impl FnMut(&Report),
) -> Result<BatchStats, EngineError> {
    let _span = obs::span("serve.request");
    let jobs = spec.jobs_per_matrix();
    let mut mtx = std::collections::VecDeque::new();
    for source in &spec.sources {
        if let MatrixSource::MtxFile(path) = source {
            mtx.push_back(MatrixSlot::read(path, spec, cache, jobs)?);
        }
    }
    let plan = plan(spec);
    let matrices = source::num_matrices(spec);
    let mut stats = BatchStats {
        matrices,
        jobs: matrices.saturating_mul(jobs),
        ..BatchStats::default()
    };
    for (m, entry) in source::entries(spec).enumerate() {
        let slot = match entry {
            Entry::Key(key) => MatrixSlot::keyed(key, jobs),
            Entry::Mtx(_) => mtx.pop_front().expect("every mtx source was read"),
        };
        for id in m * jobs..(m + 1) * jobs {
            let job = job_at(spec, id);
            let (report, hit) = run_job(&plan, &job, &slot, cache, spec.workers, token, ctx)?;
            if hit {
                stats.profile_hits += 1;
            } else {
                stats.profile_computations += 1;
            }
            let _out_phase = ctx.phase(&["stream-out"], Some("serve.phase.stream_out_ns"));
            emit(&report);
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_core::predict::predict;
    use locality_core::ScenarioSpec;
    use sparsemat::CsrMatrix;

    fn small_spec() -> BatchSpec {
        BatchSpec::parse(
            "corpus count=4 scale=64 seed=11\n\
             settings paper\n\
             threads 1\n\
             scale 64\n",
        )
        .unwrap()
    }

    #[test]
    fn batch_matches_direct_predictions() {
        let spec = small_spec();
        let result = run_batch(&spec).unwrap();
        let cfg = machine_for(&spec);
        let suite = corpus::corpus(4, 64, 11);
        assert_eq!(result.reports.len(), 4 * 2 * 7);
        for report in &result.reports {
            let nm = &suite[report.id / spec.jobs_per_matrix()];
            assert_eq!(report.matrix, nm.name);
            let direct = predict(&nm.matrix, &cfg, report.method, &[report.setting], 1);
            assert_eq!(report.prediction, direct[0], "job {}", report.id);
        }
    }

    #[test]
    fn identical_output_for_any_worker_count() {
        let mut spec = small_spec();
        spec.workers = 1;
        let reference = run_batch(&spec).unwrap();
        for workers in [2, 8] {
            spec.workers = workers;
            let result = run_batch(&spec).unwrap();
            assert_eq!(result, reference, "{workers} workers");
            assert_eq!(
                result.to_json_lines(),
                reference.to_json_lines(),
                "{workers} workers (bytes)"
            );
        }
    }

    #[test]
    fn sweep_settings_share_profiles() {
        let result = run_batch(&small_spec()).unwrap();
        // 4 matrices x 2 methods x 7 settings = 56 jobs, but only
        // 4 x 2 = 8 profile computations: the sweep dimension is free.
        assert_eq!(result.stats.jobs, 56);
        assert_eq!(result.stats.profile_computations, 8);
        assert_eq!(result.stats.profile_hits, 48);
        assert!(
            result.stats.profile_computations < result.stats.jobs as u64,
            "cache must beat matrices x settings"
        );
    }

    #[test]
    fn duplicate_matrices_share_profiles_across_sources() {
        // The same corpus twice: fingerprints collide, profiles are shared.
        let spec = BatchSpec::parse(
            "corpus count=2 scale=64 seed=3\n\
             corpus count=2 scale=64 seed=3\n\
             settings off\n\
             methods A\n\
             scale 64\n",
        )
        .unwrap();
        let result = run_batch(&spec).unwrap();
        assert_eq!(result.stats.matrices, 4);
        assert_eq!(result.stats.profile_computations, 2);
    }

    #[test]
    fn sell_batches_run_and_key_separately() {
        let spec = BatchSpec::parse(
            "corpus count=2 scale=64 seed=11\n\
             settings off,4\n\
             methods B\n\
             threads 1\n\
             scale 64\n\
             format sell:8,32\n",
        )
        .unwrap();
        let result = run_batch(&spec).unwrap();
        // 2 matrices x 1 method x 2 settings
        assert_eq!(result.reports.len(), 4);
        assert_eq!(result.stats.profile_computations, 2);
        let cfg = machine_for(&spec);
        let suite = corpus::corpus(2, 64, 11);
        for report in &result.reports {
            let nm = &suite[report.id / spec.jobs_per_matrix()];
            // The name carries the format suffix and the fingerprint is
            // format-tagged: a CSR sweep of the same corpus shares nothing.
            assert_eq!(report.matrix, format!("{}@sell:8,32", nm.name));
            let wl = Workload::build(nm.matrix.clone(), spec.format, spec.reorder);
            assert_ne!(report.fingerprint, nm.matrix.fingerprint());
            assert_eq!(report.fingerprint, wl.fingerprint());
            let direct = predict(&wl, &cfg, report.method, &[report.setting], 1);
            assert_eq!(report.prediction, direct[0], "job {}", report.id);
        }
    }

    #[test]
    fn reorder_tags_names_and_fingerprints() {
        let spec = BatchSpec::parse(
            "corpus count=2 scale=64 seed=5\n\
             settings off\n\
             methods B\n\
             scale 64\n\
             reorder rcm\n",
        )
        .unwrap();
        let result = run_batch(&spec).unwrap();
        let suite = corpus::corpus(2, 64, 5);
        for report in &result.reports {
            let nm = &suite[report.id / spec.jobs_per_matrix()];
            assert_eq!(report.matrix, format!("{}@rcm", nm.name));
            let reordered = spec.reorder.apply(nm.matrix.clone());
            assert_eq!(
                report.fingerprint,
                spec.reorder.tag_fingerprint(reordered.fingerprint())
            );
        }
    }

    #[test]
    fn csr_reports_keep_bare_names_and_legacy_fingerprints() {
        // The format-generic resolver must leave default (CSR, natural
        // order) batches byte-identical to the pre-workload engine.
        let result = run_batch(&small_spec()).unwrap();
        let suite = corpus::corpus(4, 64, 11);
        for report in &result.reports {
            let nm = &suite[report.id / small_spec().jobs_per_matrix()];
            assert_eq!(report.matrix, nm.name);
            assert_eq!(report.fingerprint, nm.matrix.fingerprint());
        }
    }

    #[test]
    fn streaming_matches_batch_and_shares_the_cache_across_requests() {
        // Every axis the job path branches on: format, scenario (SpMM and
        // CG), machine, and the ECM attachment.
        let base = "corpus count=2 scale=64 seed=11\n\
                    settings off,2,5\n\
                    threads 2\n\
                    scale 64\n";
        let mut specs = vec![small_spec()];
        for axis in [
            "format sell:8,32\n",
            "rhs 4\n",
            "workload cg\n",
            "machine generic-x86\n",
            "ecm on\n",
        ] {
            specs.push(BatchSpec::parse(&format!("{base}{axis}")).unwrap());
        }
        let token = CancelToken::never();
        for spec in &specs {
            let batch = run_batch(spec).unwrap();
            let cache = ProfileCache::bounded(64);
            let stream = |out: &mut String| {
                let stats = run_streaming(spec, &cache, &token, |r| {
                    out.push_str(&r.to_json_line());
                    out.push('\n');
                })
                .unwrap();
                out.push_str(&stats.to_json_line());
                out.push('\n');
                stats
            };

            let mut streamed = String::new();
            let stats = stream(&mut streamed);
            assert_eq!(streamed, batch.to_json_lines(), "{spec:?}");
            assert_eq!(stats, batch.stats, "{spec:?}");

            // The same request again: every profile comes from the shared
            // cache — the cross-request regime the serve daemon exists for.
            let stats2 = stream(&mut String::new());
            assert_eq!(stats2.profile_computations, 0, "{spec:?}");
            assert_eq!(stats2.profile_hits, stats2.jobs as u64, "{spec:?}");
        }
    }

    #[test]
    fn traced_streaming_keeps_report_bytes_and_records_phases() {
        let spec = small_spec();
        let cache = ProfileCache::new();
        let token = CancelToken::never();
        let mut plain = Vec::new();
        run_streaming(&spec, &cache, &token, |r| plain.push(r.clone())).unwrap();

        let traced_cache = ProfileCache::new();
        let ctx = obs::RequestCtx::new("t1");
        let mut traced = Vec::new();
        run_streaming_traced(&spec, &traced_cache, &token, &ctx, |r| {
            traced.push(r.clone())
        })
        .unwrap();
        assert_eq!(traced, plain, "tracing must not change report bytes");

        let trace = ctx.finish().expect("live ctx yields a trace");
        let lookups = trace.root.get(&["cache-lookup"]).expect("lookup phase");
        assert_eq!(lookups.count, 56, "one lookup per job");
        let compute = trace.root.get(&["compute"]).expect("compute phase");
        assert_eq!(compute.count, 8, "one compute per (matrix, method)");
        assert!(compute.wall_ns > 0);
        // The fan-out records `domain` partials, or `shard` partials when
        // the pool is wider than the domain count (any multicore host).
        let partials: u64 = [["compute", "domain"], ["compute", "shard"]]
            .iter()
            .filter_map(|path| trace.root.get(path))
            .map(|node| node.count)
            .sum();
        assert!(partials >= compute.count, "at least one partial each");
        let out = trace.root.get(&["stream-out"]).expect("stream-out phase");
        assert_eq!(out.count, 56, "one emission per job");
    }

    #[test]
    fn sharded_profiles_match_direct_computation() {
        use locality_core::LocalityProfile;
        let nm = &corpus::corpus(1, 64, 2023)[0];
        let cfg = machine_for(&small_spec());
        let settings = locality_core::SectorSetting::paper_sweep();
        let direct = LocalityProfile::compute(&nm.matrix, &cfg, Method::A, 8, &settings);
        // Heuristic sharding (threads 8 → one domain, 4 workers) and every
        // explicit shard count must reproduce the direct profile exactly.
        let heuristic =
            compute_profile_sharded(&nm.matrix, &cfg, Method::A, 8, Some(&settings), 4, None);
        assert_eq!(heuristic, direct);
        for shards in [1, 2, 7, 64] {
            let sharded = compute_profile_sharded(
                &nm.matrix,
                &cfg,
                Method::A,
                8,
                Some(&settings),
                4,
                Some(shards),
            );
            assert_eq!(sharded, direct, "shards={shards}");
        }
        // Method (B) builders have nothing to shard but must still accept
        // the override, with or without settings.
        let b = LocalityProfile::compute(&nm.matrix, &cfg, Method::B, 8, &settings);
        for settings in [Some(&settings[..]), None] {
            let sharded =
                compute_profile_sharded(&nm.matrix, &cfg, Method::B, 8, settings, 4, Some(8));
            assert_eq!(sharded, b);
        }
    }

    #[test]
    #[should_panic(expected = "needs the settings")]
    fn method_a_profile_without_settings_panics() {
        let nm = &corpus::corpus(1, 64, 2023)[0];
        let cfg = machine_for(&small_spec());
        compute_profile_sharded(&nm.matrix, &cfg, Method::A, 8, None, 1, None);
    }

    #[test]
    fn spmm_k1_batches_are_byte_identical_to_spmv() {
        // The SpMM view with one right-hand side IS the plain SpMV: for
        // both storage formats, every worker count and both RHS layouts,
        // the batch output (names, fingerprints, predictions — the full
        // JSON bytes) must not change when the spec adds `rhs 1`.
        for format_line in ["", "format sell:8,32\n"] {
            let base_text = format!(
                "corpus count=3 scale=64 seed=11\n\
                 settings off,4\n\
                 threads 2\n\
                 scale 64\n\
                 {format_line}"
            );
            let reference = run_batch(&BatchSpec::parse(&base_text).unwrap()).unwrap();
            for rhs_line in ["rhs 1\n", "rhs 1 col\n"] {
                let mut spec = BatchSpec::parse(&format!("{base_text}{rhs_line}")).unwrap();
                assert!(matches!(spec.scenario, ScenarioSpec::Spmm { k: 1, .. }));
                for workers in [1, 4] {
                    spec.workers = workers;
                    let result = run_batch(&spec).unwrap();
                    assert_eq!(
                        result.to_json_lines(),
                        reference.to_json_lines(),
                        "format={format_line:?} rhs={rhs_line:?} workers={workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn scenario_batches_tag_names_and_fingerprints() {
        let base = BatchSpec::parse(
            "corpus count=2 scale=64 seed=7\n\
             settings off\n\
             methods B\n\
             scale 64\n",
        )
        .unwrap();
        let reference = run_batch(&base).unwrap();
        let suite = corpus::corpus(2, 64, 7);

        let spmm = BatchSpec::parse(
            "corpus count=2 scale=64 seed=7\n\
             settings off\n\
             methods B\n\
             scale 64\n\
             rhs 16\n",
        )
        .unwrap();
        let result = run_batch(&spmm).unwrap();
        for (report, reference) in result.reports.iter().zip(&reference.reports) {
            let nm = &suite[report.id / spmm.jobs_per_matrix()];
            assert_eq!(report.matrix, format!("{}@rhs16", nm.name));
            assert_ne!(report.fingerprint, reference.fingerprint);
            // 16 RHS gathers per stored entry: the measured x traffic must
            // exceed the single-vector run's (k-fold reuse amplification).
            assert!(
                report.prediction.l2_misses >= reference.prediction.l2_misses,
                "{}: SpMM misses {} < SpMV misses {}",
                report.matrix,
                report.prediction.l2_misses,
                reference.prediction.l2_misses
            );
        }

        let cg = BatchSpec::parse(
            "corpus count=2 scale=64 seed=7\n\
             settings off\n\
             methods B\n\
             scale 64\n\
             workload cg\n",
        )
        .unwrap();
        let result = run_batch(&cg).unwrap();
        for (report, reference) in result.reports.iter().zip(&reference.reports) {
            let nm = &suite[report.id / cg.jobs_per_matrix()];
            assert_eq!(report.matrix, format!("{}@cg", nm.name));
            assert_ne!(report.fingerprint, reference.fingerprint);
        }

        // The separate-vectors layout keys and labels distinctly.
        let col = BatchSpec::parse(
            "corpus count=2 scale=64 seed=7\n\
             settings off\n\
             methods B\n\
             scale 64\n\
             rhs 16 col\n",
        )
        .unwrap();
        let col_result = run_batch(&col).unwrap();
        assert!(col_result.reports[0].matrix.ends_with("@rhs16:col"));
    }

    #[test]
    fn cg_over_non_square_mtx_is_a_typed_error() {
        let dir = std::env::temp_dir().join("locality-engine-cg-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wide.mtx");
        let mut coo = sparsemat::CooMatrix::new(2, 5);
        coo.push(0, 4);
        coo.push(1, 0);
        let mut file = std::fs::File::create(&path).unwrap();
        sparsemat::mm::write_csr(&mut file, &coo.to_csr()).unwrap();
        drop(file);

        let spec = BatchSpec::parse(&format!(
            "mtx {}\nsettings off\nmethods B\nscale 64\nworkload cg\n",
            path.display()
        ))
        .unwrap();
        match run_batch(&spec) {
            Err(EngineError::Scenario { name, message }) => {
                assert_eq!(name, "wide");
                assert!(message.contains("square"), "{message}");
            }
            other => panic!("expected scenario error, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_token_stops_batch_and_streaming() {
        let spec = small_spec();
        let token = CancelToken::never();
        token.cancel();
        match batch_spec(&spec, &ProfileCache::new(), &token) {
            Err(EngineError::Cancelled(Cancelled::Shutdown)) => {}
            other => panic!("expected shutdown cancellation, got {other:?}"),
        }
        let cache = ProfileCache::new();
        let mut emitted = 0usize;
        match run_streaming(&spec, &cache, &token, |_| emitted += 1) {
            Err(EngineError::Cancelled(Cancelled::Shutdown)) => {}
            other => panic!("expected shutdown cancellation, got {other:?}"),
        }
        assert_eq!(emitted, 0, "no report may be emitted after cancellation");
    }

    #[test]
    fn expired_deadline_reports_typed_error() {
        let spec = small_spec();
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        match batch_spec(&spec, &ProfileCache::new(), &token) {
            Err(EngineError::Cancelled(Cancelled::DeadlineExceeded)) => {}
            other => panic!("expected deadline error, got {other:?}"),
        }
        let cache = ProfileCache::new();
        let mut emitted = 0usize;
        match run_streaming(&spec, &cache, &token, |_| emitted += 1) {
            Err(EngineError::Cancelled(Cancelled::DeadlineExceeded)) => {}
            other => panic!("expected deadline error, got {other:?}"),
        }
        assert_eq!(emitted, 0, "no report may be emitted past the deadline");
        // The spec-level directive routes through the same machinery; a
        // generous budget completes normally.
        let mut roomy = small_spec();
        roomy.deadline_ms = Some(600_000);
        assert!(run_batch(&roomy).is_ok());
    }

    #[test]
    fn mtx_sources_load() {
        let dir = std::env::temp_dir().join("locality-engine-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("diag4.mtx");
        let m = CsrMatrix::identity(4);
        let mut file = std::fs::File::create(&path).unwrap();
        sparsemat::mm::write_csr(&mut file, &m).unwrap();
        drop(file);

        let spec = BatchSpec::parse(&format!(
            "mtx {}\nsettings off\nmethods B\nscale 64\n",
            path.display()
        ))
        .unwrap();
        let result = run_batch(&spec).unwrap();
        assert_eq!(result.reports.len(), 1);
        assert_eq!(result.reports[0].matrix, "diag4");
        assert_eq!(result.reports[0].fingerprint, m.fingerprint());
        assert_eq!(result.reports[0].nnz, 4);

        let missing = BatchSpec::parse("mtx /no/such/file.mtx\n").unwrap();
        assert!(matches!(
            run_batch(&missing),
            Err(EngineError::Matrix { .. })
        ));
    }

    #[test]
    fn cross_machine_sweep_runs_both_hierarchies() {
        let base = BatchSpec::parse(
            "corpus count=2 scale=16 seed=9\n\
             settings off,4\n\
             methods A\n\
             threads 2\n\
             scale 16\n",
        )
        .unwrap();
        let reference = run_batch(&base).unwrap();

        let swept = BatchSpec::parse(
            "corpus count=2 scale=16 seed=9\n\
             settings off,4\n\
             methods A\n\
             threads 2\n\
             scale 16\n\
             machine a64fx\n\
             machine generic-x86\n",
        )
        .unwrap();
        let result = run_batch(&swept).unwrap();
        // 2 matrices x 2 machines x 1 method x 2 settings.
        assert_eq!(result.reports.len(), 8);
        assert_eq!(result.stats.jobs, 2 * reference.stats.jobs);
        // One profile per (matrix, machine, method): the machine dimension
        // is NOT free — distinct hierarchies never share cache slots.
        assert_eq!(result.stats.profile_computations, 4);

        // Job order is matrix-outermost, machine next: even machine-block =
        // a64fx, odd = generic-x86.
        for (i, report) in result.reports.iter().enumerate() {
            let block = (i / swept.methods.len() / swept.settings.len()) % 2;
            if block == 0 {
                assert_eq!(report.machine, None, "job {i} should be default a64fx");
            } else {
                assert_eq!(report.machine.as_deref(), Some("generic-x86"), "job {i}");
            }
        }

        // The a64fx half is byte-identical to the machine-less run (modulo
        // the job ids, which now interleave the second machine).
        let a64fx_half: Vec<&Report> = result
            .reports
            .iter()
            .filter(|r| r.machine.is_none())
            .collect();
        assert_eq!(a64fx_half.len(), reference.reports.len());
        for (ours, legacy) in a64fx_half.iter().zip(&reference.reports) {
            assert_eq!(ours.prediction, legacy.prediction);
            assert_eq!(ours.matrix, legacy.matrix);
            assert_eq!(ours.fingerprint, legacy.fingerprint);
        }

        // The x86 hierarchy (64 B lines, one shared LLC) predicts
        // different miss counts than the a64fx (256 B lines) — the sweep
        // actually ran two machines, not one twice.
        let x86_half: Vec<&Report> = result
            .reports
            .iter()
            .filter(|r| r.machine.is_some())
            .collect();
        assert!(
            x86_half
                .iter()
                .zip(&a64fx_half)
                .any(|(x, a)| x.prediction.l2_misses != a.prediction.l2_misses),
            "generic-x86 predictions must differ from a64fx somewhere"
        );
    }

    #[test]
    fn projection_twins_do_not_share_profiles() {
        // A custom machine whose two-level projection agrees with the
        // a64fx preset on everything the legacy cache key carried
        // (line_bytes 256, cores_per_domain 12): before the machine tag,
        // these two machines would silently share profile slots.
        let spec = BatchSpec::parse(
            "corpus count=1 scale=64 seed=3\n\
             settings off\n\
             methods B\n\
             threads 1\n\
             scale 64\n\
             machine a64fx\n\
             machine custom:cores=1;domain=12;l1=64k,4,256;l2=8m,16,256;mem=200g\n",
        )
        .unwrap();
        let result = run_batch(&spec).unwrap();
        assert_eq!(result.stats.jobs, 2);
        assert_eq!(
            result.stats.profile_computations, 2,
            "identical projections on distinct hierarchies must not share cache slots"
        );
    }

    #[test]
    fn a64fx_preset_is_byte_identical_to_committed_oracle() {
        // The PR-2 batch spec and its output were committed before the
        // machine dimension existed. The refactored engine must reproduce
        // those bytes exactly — with no machine directive AND with the
        // a64fx preset spelled out.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let spec_text = std::fs::read_to_string(root.join("results/batch_pr2.spec")).unwrap();
        let oracle = std::fs::read_to_string(root.join("results/batch_pr2_oracle.jsonl")).unwrap();

        let implicit = run_batch(&BatchSpec::parse(&spec_text).unwrap()).unwrap();
        assert_eq!(implicit.to_json_lines(), oracle, "implicit a64fx default");

        let explicit_text = format!("{spec_text}machine a64fx\n");
        let explicit = run_batch(&BatchSpec::parse(&explicit_text).unwrap()).unwrap();
        assert_eq!(explicit.to_json_lines(), oracle, "explicit `machine a64fx`");
    }

    #[test]
    fn ecm_directive_attaches_estimates() {
        let spec = BatchSpec::parse(
            "corpus count=2 scale=64 seed=5\n\
             settings off,2\n\
             threads 4\n\
             scale 64\n\
             ecm on\n",
        )
        .unwrap();
        let result = run_batch(&spec).unwrap();
        for report in &result.reports {
            let ecm = report.ecm.as_ref().expect("ecm on attaches an estimate");
            assert!(ecm.gflops.is_finite() && ecm.gflops > 0.0, "{ecm:?}");
            assert!(ecm.t_total_s > 0.0);
            // a64fx composes serially: total = core + all link times.
            let links: f64 = ecm.links.iter().map(|(_, t)| t).sum();
            assert!(
                (ecm.t_total_s - (ecm.t_core_s + links)).abs() <= 1e-12 * ecm.t_total_s.max(1.0),
                "serial composition: {ecm:?}"
            );
            assert_eq!(ecm.links.last().unwrap().0, "mem");
            let line = report.to_json_line();
            assert!(line.contains(",\"ecm\":{\"gflops\":"), "{line}");
        }
        // Sector capping changes predicted misses, so the memory link —
        // and with it the ECM estimate — must respond per setting.
        let off = &result.reports[0];
        let capped = &result.reports[1];
        assert_eq!(off.setting, SectorSetting::Off);
        if off.prediction.l2_misses != capped.prediction.l2_misses {
            let (a, b) = (
                off.ecm.as_ref().unwrap().gflops,
                capped.ecm.as_ref().unwrap().gflops,
            );
            assert_ne!(a, b, "ECM must track the per-setting miss counts");
        }

        // Streaming attaches the same estimates.
        let cache = ProfileCache::new();
        let mut streamed = Vec::new();
        run_streaming(&spec, &cache, &CancelToken::never(), |r| {
            streamed.push(r.clone())
        })
        .unwrap();
        assert_eq!(streamed, result.reports);
    }

    #[test]
    fn generic_x86_ecm_overlaps_instead_of_summing() {
        let spec = BatchSpec::parse(
            "corpus count=1 scale=16 seed=5\n\
             settings off\n\
             methods B\n\
             threads 2\n\
             scale 16\n\
             machine generic-x86\n\
             ecm on\n",
        )
        .unwrap();
        let result = run_batch(&spec).unwrap();
        let report = &result.reports[0];
        assert_eq!(report.machine.as_deref(), Some("generic-x86"));
        let ecm = report.ecm.as_ref().unwrap();
        // Overlapped composition: the total is the slowest single stage,
        // not the sum.
        let slowest = ecm
            .links
            .iter()
            .map(|(_, t)| *t)
            .fold(ecm.t_core_s, f64::max);
        assert!(
            (ecm.t_total_s - slowest).abs() <= 1e-12 * slowest.max(1.0),
            "overlapped composition: {ecm:?}"
        );
        // Three cache levels + memory = links l1-l2, l2-l3, mem.
        let labels: Vec<&str> = ecm.links.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["l1-l2", "l2-l3", "mem"]);
    }

    /// A streaming run's report lines.
    fn stream_lines(spec: &BatchSpec, cache: &ProfileCache) -> String {
        let mut out = String::new();
        run_streaming(spec, cache, &CancelToken::never(), |r| {
            out.push_str(&r.to_json_line());
            out.push('\n');
        })
        .unwrap();
        out
    }

    #[test]
    fn memo_meta_equals_a_fresh_build() {
        let ctx = obs::RequestCtx::disabled();
        for source in ["corpus count=3 scale=256 seed=5", "table1 scale=2048"] {
            for format in ["csr", "sell:8,32"] {
                for reorder in ["none", "rcm"] {
                    for scenario in ["workload spmv", "rhs 4", "workload cg"] {
                        let spec = BatchSpec::parse(&format!(
                            "{source}\nformat {format}\nreorder {reorder}\n{scenario}\nscale 64\n"
                        ))
                        .unwrap();
                        let reference = match spec.sources[0] {
                            MatrixSource::Corpus { count, scale, seed } => {
                                corpus::corpus(count, scale, seed)
                            }
                            MatrixSource::Table1 { scale } => corpus::table1_suite(scale),
                            MatrixSource::MtxFile(_) => unreachable!(),
                        };
                        let cache = ProfileCache::new();
                        for (entry, nm) in source::entries(&spec).zip(reference) {
                            let Entry::Key(key) = entry else {
                                unreachable!("generated sources are keyed")
                            };
                            MatrixSlot::keyed(key.clone(), 1)
                                .meta(&cache, &ctx)
                                .unwrap();
                            let memo = cache.source_meta(&key).expect("a build is memoized");
                            let built = Workload::build_scenario(
                                nm.matrix,
                                spec.format,
                                spec.reorder,
                                spec.scenario,
                            );
                            let what = format!("{} {format} {reorder} {scenario}", nm.name);
                            assert_eq!(
                                memo.fingerprint,
                                spec.reorder.tag_fingerprint(built.fingerprint()),
                                "{what}"
                            );
                            assert_eq!(
                                memo.shape,
                                (built.num_rows(), built.num_cols(), built.nnz()),
                                "{what}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_streaming_builds_no_matrix() {
        let spec = small_spec();
        let cache = ProfileCache::new();
        let first = stream_lines(&spec, &cache);
        assert_eq!(cache.sources_built(), 4);
        assert_eq!(cache.source_memo_hits(), 0);
        assert_eq!(stream_lines(&spec, &cache), first);
        assert_eq!(cache.sources_built(), 4, "the repeat built nothing");
        assert_eq!(cache.source_memo_hits(), 4);
        assert_eq!(cache.sources_live_max(), 1, "one matrix at a time");
    }

    #[test]
    fn memo_hit_with_an_evicted_profile_matches_batch() {
        let spec = BatchSpec::parse(
            "corpus count=1 scale=64 seed=11\n\
             settings off,4\n\
             methods A,B\n\
             scale 64\n",
        )
        .unwrap();
        let expected: String = run_batch(&spec)
            .unwrap()
            .reports
            .iter()
            .map(|r| r.to_json_line() + "\n")
            .collect();
        // One slot: the method-B profile evicts method A's, but the
        // matrix's memo entry survives.
        let cache = ProfileCache::bounded(1);
        assert_eq!(stream_lines(&spec, &cache), expected);
        assert_eq!(stream_lines(&spec, &cache), expected);
        assert_eq!(cache.source_memo_hits(), 1);
        assert_eq!(cache.sources_built(), 2, "the method-A miss rebuilt");
    }

    #[test]
    fn rewritten_mtx_file_is_read_again() {
        let dir = std::env::temp_dir().join("locality-engine-rewrite-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.mtx");
        let spec = BatchSpec::parse(&format!(
            "mtx {}\nsettings off\nmethods B\nscale 64\n",
            path.display()
        ))
        .unwrap();
        let cache = ProfileCache::bounded(8);
        let serve = |m: &CsrMatrix| {
            let mut file = std::fs::File::create(&path).unwrap();
            sparsemat::mm::write_csr(&mut file, m).unwrap();
            drop(file);
            let mut fingerprint = 0;
            run_streaming(&spec, &cache, &CancelToken::never(), |r| {
                fingerprint = r.fingerprint
            })
            .unwrap();
            fingerprint
        };
        let identity = CsrMatrix::identity(8);
        assert_eq!(serve(&identity), identity.fingerprint());
        let mut coo = sparsemat::CooMatrix::new(8, 8);
        for i in 0..8 {
            coo.push(i, (i + 3) % 8);
        }
        let shifted = coo.to_csr();
        assert_eq!(serve(&shifted), shifted.fingerprint());
        assert_eq!(cache.sources_built(), 2);
        assert_eq!(
            cache.source_memo_hits(),
            0,
            "mtx sources are never memoized"
        );
    }

    #[test]
    fn batch_builds_each_source_once_and_releases_it() {
        let mut spec = small_spec();
        let dup = BatchSpec::parse(
            "corpus count=2 scale=64 seed=3\n\
             corpus count=2 scale=64 seed=3\n\
             settings off\n\
             methods A,B\n\
             scale 64\n",
        )
        .unwrap();
        for workers in [1, 2, 4] {
            spec.workers = workers;
            let cache = ProfileCache::new();
            batch_spec(&spec, &cache, &CancelToken::never()).unwrap();
            assert_eq!(cache.sources_built(), 4, "{workers} workers");
            // Each worker holds at most the matrix it runs.
            assert!(
                cache.sources_live_max() <= workers as u64,
                "{workers} workers: {} live matrices",
                cache.sources_live_max()
            );
            if workers == 1 {
                assert_eq!(cache.sources_live_max(), 1, "one live matrix");
            }
            // A source named twice shares its slot whatever the schedule.
            let cache = ProfileCache::new();
            batch_spec(
                &BatchSpec {
                    workers,
                    ..dup.clone()
                },
                &cache,
                &CancelToken::never(),
            )
            .unwrap();
            assert_eq!(cache.sources_built(), 2, "{workers} workers");
        }
    }

    #[test]
    fn profiles_fan_out_over_the_width_the_matrices_leave() {
        for matrices in [0, 1, 2, 18, 1000] {
            assert_eq!(profile_workers(1, matrices), 1, "{matrices} matrices");
        }
        assert_eq!(profile_workers(2, 18), 1);
        assert_eq!(profile_workers(2, 2), 1);
        assert_eq!(profile_workers(2, 1), 2);
        assert_eq!(profile_workers(8, 3), 2);
        assert_eq!(profile_workers(8, 1), 8);
        // No matrices, no profiles: any width will do, but no panic.
        assert!(profile_workers(4, 0) >= 1);
        // Never more analysis threads than the pool has.
        for pool_width in 1..=16 {
            for matrices in 1..=20 {
                let width = profile_workers(pool_width, matrices);
                assert!(width >= 1);
                assert!(
                    width * matrices.min(pool_width) <= pool_width,
                    "pool {pool_width}, {matrices} matrices: width {width}"
                );
            }
        }
    }

    #[test]
    fn hostile_corpus_count_streams_until_its_deadline() {
        // A hundred million matrices: no job list, no matrix list — one
        // matrix at a time until the deadline.
        let spec = BatchSpec::parse(
            "corpus count=100000000 scale=64 seed=1\n\
             settings off\n\
             methods B\n\
             scale 64\n",
        )
        .unwrap();
        let cache = ProfileCache::new();
        let token = CancelToken::with_deadline_ms(200);
        let start = std::time::Instant::now();
        match run_streaming(&spec, &cache, &token, |_| {}) {
            Err(EngineError::Cancelled(Cancelled::DeadlineExceeded)) => {}
            other => panic!("expected deadline error, got {other:?}"),
        }
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
        assert!(cache.sources_live_max() <= 1);
    }
}
