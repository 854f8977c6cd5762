//! The daemon itself: listeners, per-connection sessions, the bounded
//! request queue, and the executor pool.
//!
//! Threading model — three kinds of thread, all plain `std`:
//!
//! * the **accept loop** ([`Server::run`]) polls the non-blocking
//!   listeners and spawns one session per connection;
//! * a **session** thread reads its connection with a short timeout,
//!   frames lines, parses requests and either answers inline (`status`,
//!   `shutdown`, rejections) or enqueues the predict job;
//! * **executor** threads pop predict jobs from the bounded queue and
//!   run them through [`locality_engine::run_streaming_traced`] against
//!   the daemon's shared cache, writing each report line through the
//!   connection's shared writer the moment it exists.
//!
//! Backpressure is the queue bound: a predict request arriving with the
//! queue full is rejected immediately with a typed `overloaded` error —
//! the service never buffers unboundedly. Deadlines start at *enqueue*
//! (queue wait spends the client's budget) and cancel cooperatively at
//! the engine's checkpoints. Shutdown — SIGINT, SIGTERM or a `shutdown`
//! request — stops accepting, closes the queue, and drains: jobs
//! already accepted run to completion and their responses are still
//! delivered on connections the clients keep open.
//!
//! The **observability plane** rides along without touching report
//! bytes:
//!
//! * every admitted predict request carries an [`obs::RequestCtx`]
//!   from admission through the engine; its finished phase tree
//!   (queue-wait, cache-lookup, compute, per-domain/per-shard work,
//!   stream-out) lands in a bounded trace buffer answerable via a
//!   `trace` request;
//! * a **sampler** thread (`sample_ms` tick) snapshots the live
//!   counters into a bounded [`obs::series::SeriesRing`]; `status`
//!   responses carry windowed rates over 10s/1m/5m;
//! * a `metrics` request — and an optional `--prometheus` HTTP
//!   listener sharing the same non-blocking accept loop — renders the
//!   live counters as Prometheus text exposition;
//! * a **flight recorder** ([`obs::events`]) keeps the newest
//!   admissions/rejections/deadline/eviction/panic events and dumps
//!   them to stderr (and `flight_file`) on SIGQUIT and on executor
//!   panic.

use crate::codec::{Frame, LineFramer};
use crate::protocol::{self, ErrorCode, Request, RequestError};
use crate::signal;
use locality_engine::{BatchSpec, CancelToken, Cancelled, EngineError, ProfileCache};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked loops re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// Session read timeout; bounds shutdown latency per connection.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Unix socket path to listen on (the daemon owns the path: a stale
    /// file there is removed at bind, the live one at shutdown).
    pub unix: Option<PathBuf>,
    /// TCP address to listen on, e.g. `127.0.0.1:7070`.
    pub tcp: Option<String>,
    /// Executor threads — the number of predict requests in flight.
    pub executors: usize,
    /// Queue bound: predict requests accepted but not yet started.
    /// Zero disables queueing entirely (only useful in tests).
    pub queue: usize,
    /// Shared profile cache capacity (LRU entries).
    pub cache: usize,
    /// Request line cap in bytes; longer lines are rejected.
    pub max_line: usize,
    /// Deadline applied to predict requests that bring none of their
    /// own (request field first, then the spec's `deadline_ms`).
    pub default_deadline_ms: Option<u64>,
    /// Machine applied to predict requests whose spec has no `machine`
    /// directive of its own. `None` keeps the engine default (the a64fx
    /// preset) — and the legacy report bytes.
    pub default_machine: Option<machine::MachineSpec>,
    /// Sampler tick in milliseconds for the rolling time-series
    /// (windowed rates in `status`). Zero disables the sampler thread.
    pub sample_ms: u64,
    /// Optional TCP address for a plain-HTTP Prometheus scrape
    /// endpoint, e.g. `127.0.0.1:9464`. `None` leaves scraping to the
    /// protocol's `metrics` request.
    pub prometheus: Option<String>,
    /// Optional file the flight-recorder dump is appended to (stderr
    /// always receives it).
    pub flight_file: Option<PathBuf>,
    /// How many finished request traces the daemon retains for `trace`
    /// lookups (oldest evicted first). Zero disables retention.
    pub trace_buffer: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            unix: None,
            tcp: None,
            executors: 2,
            queue: 64,
            cache: 256,
            max_line: 1 << 20,
            default_deadline_ms: None,
            default_machine: None,
            sample_ms: 1000,
            prometheus: None,
            flight_file: None,
            trace_buffer: 64,
        }
    }
}

/// What the daemon did, for the operator's exit summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Requests parsed (predict + status + shutdown).
    pub requests: u64,
    /// Predict requests completed with a `done` line.
    pub completed: u64,
    /// Error lines written.
    pub errors: u64,
    /// Predict requests that were in flight when shutdown began and
    /// were drained to completion instead of dropped.
    pub drained: u64,
}

/// Service counters, readable at any time from any thread (unlike the
/// obs thread-locals, which merge only at flush); the `STATUS` endpoint
/// reads these plus the shared cache's own counters.
#[derive(Default)]
struct ServiceStats {
    connections: AtomicU64,
    requests: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
    write_errors: AtomicU64,
    inflight: AtomicUsize,
    inflight_peak: AtomicUsize,
    drained: AtomicU64,
}

/// A connection's write half, shared between its session thread and the
/// executors streaming results back.
type Out = Arc<Mutex<Box<dyn Write + Send>>>;

/// An accepted predict request waiting for an executor.
struct QueuedRequest {
    id: String,
    spec: BatchSpec,
    token: CancelToken,
    out: Out,
    /// When the request entered the queue; the `queue-wait` phase spans
    /// from here to executor pickup.
    admitted: Instant,
    /// The request's trace accumulator, created at admission.
    ctx: obs::RequestCtx,
}

struct QueueState {
    jobs: VecDeque<QueuedRequest>,
    closing: bool,
}

/// Bounded buffer of finished request traces, newest kept.
struct TraceStore {
    capacity: usize,
    traces: VecDeque<obs::trace::Trace>,
}

impl TraceStore {
    fn new(capacity: usize) -> TraceStore {
        TraceStore {
            capacity,
            traces: VecDeque::new(),
        }
    }

    fn insert(&mut self, trace: obs::trace::Trace) {
        if self.capacity == 0 {
            return;
        }
        if self.traces.len() == self.capacity {
            self.traces.pop_front();
        }
        self.traces.push_back(trace);
    }

    /// The newest retained trace for `request_id` (ids are
    /// client-chosen and may repeat; latest wins).
    fn get(&self, request_id: &str) -> Option<&obs::trace::Trace> {
        self.traces
            .iter()
            .rev()
            .find(|t| t.request_id == request_id)
    }
}

struct Shared {
    config: ServeConfig,
    cache: ProfileCache,
    queue: Mutex<QueueState>,
    ready: Condvar,
    stats: ServiceStats,
    started: Instant,
    traces: Mutex<TraceStore>,
    /// End-to-end (admission → response) latency of predict requests.
    latency: Mutex<obs::Hist>,
    /// The sampler's rolling time-series.
    series: Mutex<obs::series::SeriesRing>,
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    shared: Arc<Shared>,
    unix_listener: Option<UnixListener>,
    tcp_listener: Option<TcpListener>,
    prom_listener: Option<TcpListener>,
}

impl Server {
    /// Binds the configured listeners. At least one of `unix`/`tcp`
    /// must be set.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        if config.unix.is_none() && config.tcp.is_none() {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                "serve needs a unix socket path or a tcp address to listen on",
            ));
        }
        let unix_listener = match &config.unix {
            Some(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Some(listener)
            }
            None => None,
        };
        let tcp_listener = match &config.tcp {
            Some(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                listener.set_nonblocking(true)?;
                Some(listener)
            }
            None => None,
        };
        let prom_listener = match &config.prometheus {
            Some(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                listener.set_nonblocking(true)?;
                Some(listener)
            }
            None => None,
        };
        let cache = ProfileCache::bounded(config.cache.max(1));
        // The flight recorder covers the daemon's whole lifetime; the
        // engine's cache-eviction events land in the same ring.
        obs::events::enable(obs::events::DEFAULT_CAPACITY);
        let series_capacity = obs::series::SeriesRing::capacity_for_tick(config.sample_ms.max(1));
        let trace_buffer = config.trace_buffer;
        Ok(Server {
            shared: Arc::new(Shared {
                config,
                cache,
                queue: Mutex::new(QueueState {
                    jobs: VecDeque::new(),
                    closing: false,
                }),
                ready: Condvar::new(),
                stats: ServiceStats::default(),
                started: Instant::now(),
                traces: Mutex::new(TraceStore::new(trace_buffer)),
                latency: Mutex::new(obs::Hist::default()),
                series: Mutex::new(obs::series::SeriesRing::new(series_capacity)),
            }),
            unix_listener,
            tcp_listener,
            prom_listener,
        })
    }

    /// The bound TCP address, when a TCP listener was configured (lets
    /// callers bind port 0 and discover the real port).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_listener.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// The bound Prometheus scrape address, when one was configured.
    pub fn prometheus_addr(&self) -> Option<SocketAddr> {
        self.prom_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// Serves until shutdown is requested (signal or protocol), then
    /// drains and returns the summary.
    pub fn run(self) -> ServeSummary {
        let shared = &self.shared;
        let executors: Vec<JoinHandle<()>> = (0..shared.config.executors.max(1))
            .map(|_| {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || executor_loop(&shared))
            })
            .collect();
        let sampler: Option<JoinHandle<()>> = (shared.config.sample_ms > 0).then(|| {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || sampler_loop(&shared))
        });

        let mut sessions: Vec<JoinHandle<()>> = Vec::new();
        while !signal::shutdown_requested() {
            if signal::take_dump_request() {
                dump_flight(&shared.config);
            }
            let mut accepted = false;
            if let Some(listener) = &self.unix_listener {
                match listener.accept() {
                    Ok((stream, _)) => {
                        accepted = true;
                        if let Ok(writer) = stream.try_clone() {
                            let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                            sessions.push(spawn_session(shared, stream, Box::new(writer)));
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(_) => {}
                }
            }
            if let Some(listener) = &self.tcp_listener {
                match listener.accept() {
                    Ok((stream, _)) => {
                        accepted = true;
                        if let Ok(writer) = stream.try_clone() {
                            let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                            sessions.push(spawn_session(shared, stream, Box::new(writer)));
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(_) => {}
                }
            }
            if let Some(listener) = &self.prom_listener {
                match listener.accept() {
                    Ok((stream, _)) => {
                        accepted = true;
                        let shared = Arc::clone(shared);
                        sessions.push(std::thread::spawn(move || {
                            serve_prometheus_scrape(&shared, stream);
                        }));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(_) => {}
                }
            }
            sessions.retain(|handle| !handle.is_finished());
            if !accepted {
                std::thread::sleep(POLL_INTERVAL);
            }
        }

        // Drain: whatever is in flight now finishes; nothing new enters.
        let drained = shared.stats.inflight.load(Ordering::SeqCst) as u64;
        shared.stats.drained.store(drained, Ordering::SeqCst);
        {
            let mut queue = lock(&shared.queue);
            queue.closing = true;
            shared.ready.notify_all();
        }
        for handle in sessions {
            log_worker_panic(handle.join(), "session worker");
        }
        for handle in executors {
            log_worker_panic(handle.join(), "executor worker");
        }
        if let Some(handle) = sampler {
            log_worker_panic(handle.join(), "sampler");
        }
        // A SIGQUIT that raced the shutdown still gets its dump.
        if signal::take_dump_request() {
            dump_flight(&shared.config);
        }
        if let Some(path) = &shared.config.unix {
            let _ = std::fs::remove_file(path);
        }

        // One obs flush for the whole service lifetime (the per-thread
        // span/counter data was flushed by each executor as it exited).
        let stats = &shared.stats;
        obs::add(
            "serve.connections",
            stats.connections.load(Ordering::SeqCst),
        );
        obs::add("serve.requests", stats.requests.load(Ordering::SeqCst));
        obs::add("serve.completed", stats.completed.load(Ordering::SeqCst));
        obs::add("serve.errors", stats.errors.load(Ordering::SeqCst));
        obs::add("serve.overloaded", stats.overloaded.load(Ordering::SeqCst));
        obs::add("serve.drained", drained);
        obs::gauge_max(
            "serve.inflight_peak",
            stats.inflight_peak.load(Ordering::SeqCst) as u64,
        );
        shared.cache.flush_obs();
        obs::flush_thread();

        ServeSummary {
            connections: stats.connections.load(Ordering::SeqCst),
            requests: stats.requests.load(Ordering::SeqCst),
            completed: stats.completed.load(Ordering::SeqCst),
            errors: stats.errors.load(Ordering::SeqCst),
            drained,
        }
    }
}

/// Reports a worker panic to stderr during shutdown instead of silently
/// dropping the payload (the drain must still join every other worker,
/// so it logs rather than re-panics).
fn log_worker_panic<T>(result: std::thread::Result<T>, what: &str) {
    if let Err(payload) = result {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        eprintln!("spmv-locality serve: {what} panicked: {msg}");
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A panicking writer must not wedge the daemon; the guarded state
    // stays consistent (whole lines, whole queue entries).
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Writes one response line (appending `\n`) under the connection's
/// writer lock.
fn write_line(shared: &Shared, out: &Out, line: &str) {
    let mut writer = lock(out);
    let result = writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush());
    if result.is_err() {
        shared.stats.write_errors.fetch_add(1, Ordering::SeqCst);
    }
}

fn write_error(shared: &Shared, out: &Out, id: Option<&str>, code: ErrorCode, message: &str) {
    shared.stats.errors.fetch_add(1, Ordering::SeqCst);
    if code == ErrorCode::Overloaded {
        shared.stats.overloaded.fetch_add(1, Ordering::SeqCst);
    }
    write_line(shared, out, &protocol::error_line(id, code, message));
}

fn spawn_session<R>(
    shared: &Arc<Shared>,
    reader: R,
    writer: Box<dyn Write + Send>,
) -> JoinHandle<()>
where
    R: Read + Send + 'static,
{
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        shared.stats.connections.fetch_add(1, Ordering::SeqCst);
        let out: Out = Arc::new(Mutex::new(writer));
        run_session(&shared, reader, &out);
    })
}

fn run_session<R: Read>(shared: &Shared, mut reader: R, out: &Out) {
    let mut framer = LineFramer::new(shared.config.max_line);
    let mut buf = [0u8; 4096];
    while !signal::shutdown_requested() {
        let n = match reader.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        for frame in framer.push(&buf[..n]) {
            handle_frame(shared, out, frame);
        }
    }
}

fn handle_frame(shared: &Shared, out: &Out, frame: Frame) {
    let line = match frame {
        Frame::Line(line) => line,
        Frame::Oversized { dropped } => {
            let message = format!(
                "request line exceeded the {}-byte cap ({dropped} bytes dropped)",
                shared.config.max_line
            );
            write_error(shared, out, None, ErrorCode::OversizedLine, &message);
            return;
        }
        Frame::BadUtf8 => {
            write_error(
                shared,
                out,
                None,
                ErrorCode::BadRequest,
                "request line is not valid UTF-8",
            );
            return;
        }
    };
    if line.trim().is_empty() {
        return; // blank keep-alive lines are fine
    }
    let request = match Request::parse(&line) {
        Ok(request) => request,
        Err(RequestError { id, code, message }) => {
            write_error(shared, out, id.as_deref(), code, &message);
            return;
        }
    };
    shared.stats.requests.fetch_add(1, Ordering::SeqCst);
    match request {
        Request::Predict {
            id,
            spec,
            deadline_ms,
        } => submit_predict(shared, out, id, &spec, deadline_ms),
        Request::Status { id } => {
            let body = status_document(shared);
            write_line(shared, out, &protocol::status_line(&id, &body));
        }
        Request::Trace { id, request } => {
            let json = lock(&shared.traces).get(&request).map(|t| t.to_json());
            match json {
                Some(json) => write_line(shared, out, &protocol::trace_line(&id, &json)),
                None => {
                    let message = format!(
                        "no trace retained for request \"{request}\" (buffer keeps the newest {})",
                        shared.config.trace_buffer
                    );
                    write_error(shared, out, Some(&id), ErrorCode::NotFound, &message);
                }
            }
        }
        Request::Metrics { id } => {
            let body = metrics_document(shared);
            write_line(shared, out, &protocol::metrics_line(&id, &body));
        }
        Request::Shutdown { id } => {
            write_line(shared, out, &protocol::shutdown_line(&id));
            signal::request_shutdown();
        }
    }
}

fn submit_predict(
    shared: &Shared,
    out: &Out,
    id: String,
    spec_text: &str,
    deadline_ms: Option<u64>,
) {
    let mut spec = match BatchSpec::parse(spec_text) {
        Ok(spec) => spec,
        Err(e) => {
            let message = format!("invalid spec: {e}");
            write_error(shared, out, Some(&id), ErrorCode::BadRequest, &message);
            return;
        }
    };
    // A spec with its own `machine` directives wins; otherwise the
    // daemon's default machine (if any) applies.
    if spec.machines.is_empty() {
        if let Some(m) = &shared.config.default_machine {
            spec.machines.push(m.clone());
        }
    }
    // Deadline precedence: request field, spec directive, server default.
    // The clock starts here — time spent queued is the client's budget.
    let budget = deadline_ms
        .or(spec.deadline_ms)
        .or(shared.config.default_deadline_ms);
    let token = match budget {
        Some(ms) => CancelToken::with_deadline_ms(ms),
        None => CancelToken::never(),
    };
    let request = QueuedRequest {
        ctx: obs::RequestCtx::new(id.as_str()),
        id,
        spec,
        token,
        out: Arc::clone(out),
        admitted: Instant::now(),
    };
    let mut queue = lock(&shared.queue);
    if queue.closing {
        let id = request.id;
        drop(queue);
        obs::events::record("shutting_down", || {
            format!("request {id} rejected: service draining")
        });
        write_error(
            shared,
            out,
            Some(&id),
            ErrorCode::ShuttingDown,
            "service is draining and accepts no new work",
        );
        return;
    }
    if queue.jobs.len() >= shared.config.queue {
        let depth = queue.jobs.len();
        let message = format!("queue full ({depth} request(s) queued); retry later");
        let id = request.id;
        drop(queue);
        obs::events::record("overloaded", || {
            format!("request {id} rejected: queue full ({depth} queued)")
        });
        write_error(shared, out, Some(&id), ErrorCode::Overloaded, &message);
        return;
    }
    let depth = queue.jobs.len() + 1;
    obs::events::record("admit", || {
        format!("request {} admitted (queue depth {depth})", request.id)
    });
    queue.jobs.push_back(request);
    let inflight = shared.stats.inflight.fetch_add(1, Ordering::SeqCst) + 1;
    shared
        .stats
        .inflight_peak
        .fetch_max(inflight, Ordering::SeqCst);
    shared.ready.notify_one();
}

fn executor_loop(shared: &Shared) {
    loop {
        let request = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(request) = queue.jobs.pop_front() {
                    break Some(request);
                }
                if queue.closing {
                    break None;
                }
                let (guard, _) = shared
                    .ready
                    .wait_timeout(queue, POLL_INTERVAL)
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        };
        let Some(request) = request else {
            // Queue closed and empty: flush this thread's obs data
            // (spans recorded by the engine during our requests).
            obs::flush_thread();
            return;
        };
        // A panicking request must not take the executor thread (and
        // its queue slot) with it: contain it, dump the flight
        // recorder, answer the client with a typed error, and keep
        // serving.
        let id = request.id.clone();
        let out = Arc::clone(&request.out);
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_one(shared, request)));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            obs::events::record("panic", || {
                format!("executor panicked on request {id}: {msg}")
            });
            dump_flight(&shared.config);
            write_error(
                shared,
                &out,
                Some(&id),
                ErrorCode::Internal,
                "executor panicked while running the request",
            );
        }
        shared.stats.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

fn run_one(shared: &Shared, request: QueuedRequest) {
    let QueuedRequest {
        id,
        spec,
        token,
        out,
        admitted,
        ctx,
    } = request;
    ctx.record_since(&["queue-wait"], admitted, Some("serve.phase.queue_wait_ns"));
    // A request whose deadline elapsed while queued fails fast without
    // touching the engine.
    if let Some(reason) = token.cancelled() {
        if matches!(reason, Cancelled::DeadlineExceeded) {
            obs::events::record("deadline", || format!("request {id} expired while queued"));
        }
        finish_request(shared, &ctx);
        write_error(
            shared,
            &out,
            Some(&id),
            cancel_code(reason),
            &reason.to_string(),
        );
        return;
    }
    let result =
        locality_engine::run_streaming_traced(&spec, &shared.cache, &token, &ctx, |report| {
            write_line(
                shared,
                &out,
                &protocol::report_line(&id, &report.to_json_line()),
            );
        });
    // Seal the trace *before* the final response line goes out: a client
    // that sends `TRACE <id>` the moment it reads `done` must find it.
    match result {
        Ok(stats) => {
            shared.stats.completed.fetch_add(1, Ordering::SeqCst);
            finish_request(shared, &ctx);
            write_line(shared, &out, &protocol::done_line(&id, &stats));
        }
        Err(e) => {
            if matches!(&e, EngineError::Cancelled(Cancelled::DeadlineExceeded)) {
                obs::events::record("deadline", || {
                    format!("request {id} hit its deadline mid-run")
                });
            }
            let code = match &e {
                EngineError::Cancelled(reason) => cancel_code(*reason),
                EngineError::Spec(_)
                | EngineError::Matrix { .. }
                | EngineError::Scenario { .. } => ErrorCode::BadRequest,
            };
            finish_request(shared, &ctx);
            write_error(shared, &out, Some(&id), code, &e.to_string());
        }
    }
}

/// Seals a request's trace into the trace buffer, folds its end-to-end
/// latency into the live histogram, and flushes this executor's
/// thread-local obs data so the sampler and `metrics` scrapes see the
/// engine's counters while the daemon is still running.
fn finish_request(shared: &Shared, ctx: &obs::RequestCtx) {
    if let Some(trace) = ctx.finish() {
        lock(&shared.latency).record(trace.total_ns);
        obs::observe("serve.request_latency_ns", trace.total_ns);
        lock(&shared.traces).insert(trace);
    }
    if obs::enabled() {
        obs::flush_thread();
    }
}

fn cancel_code(reason: Cancelled) -> ErrorCode {
    match reason {
        Cancelled::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        Cancelled::Shutdown => ErrorCode::ShuttingDown,
    }
}

/// The live counters/gauges as an [`obs::Aggregate`]: service atomics,
/// the shared cache's SLO and source counters, and the end-to-end request-latency
/// histogram (whose JSON form carries `p50`/`p95`/`p99`). Both the
/// `STATUS` document and the Prometheus exposition build on this.
fn live_aggregate(shared: &Shared) -> obs::Aggregate {
    let stats = &shared.stats;
    let cache = &shared.cache;
    let mut agg = obs::Aggregate::default();
    let counters: [(&str, u64); 13] = [
        (
            "serve.connections",
            stats.connections.load(Ordering::SeqCst),
        ),
        ("serve.requests", stats.requests.load(Ordering::SeqCst)),
        ("serve.completed", stats.completed.load(Ordering::SeqCst)),
        ("serve.errors", stats.errors.load(Ordering::SeqCst)),
        ("serve.overloaded", stats.overloaded.load(Ordering::SeqCst)),
        (
            "serve.write_errors",
            stats.write_errors.load(Ordering::SeqCst),
        ),
        ("engine.cache.hits", cache.hits()),
        ("engine.cache.computations", cache.computations()),
        ("engine.cache.evictions", cache.evictions()),
        ("engine.cache.admission_skips", cache.admission_skips()),
        ("engine.cache.cancellations", cache.cancellations()),
        ("engine.sources.built", cache.sources_built()),
        ("engine.sources.memo_hits", cache.source_memo_hits()),
    ];
    for (name, value) in counters {
        agg.counters.insert(name.to_string(), value);
    }
    let gauges: [(&str, u64); 7] = [
        (
            "serve.uptime_ms",
            shared.started.elapsed().as_millis() as u64,
        ),
        (
            "serve.inflight",
            stats.inflight.load(Ordering::SeqCst) as u64,
        ),
        (
            "serve.inflight_peak",
            stats.inflight_peak.load(Ordering::SeqCst) as u64,
        ),
        ("serve.queue_depth", lock(&shared.queue).jobs.len() as u64),
        ("engine.cache.size", cache.len() as u64),
        (
            "engine.cache.hit_rate_pct",
            cache.hit_rate_pct().round() as u64,
        ),
        ("engine.sources.live_max", cache.sources_live_max()),
    ];
    for (name, value) in gauges {
        agg.gauges.insert(name.to_string(), value);
    }
    let latency = lock(&shared.latency).clone();
    if latency.count > 0 {
        agg.histograms
            .insert("serve.request_latency_ns".to_string(), latency);
    }
    agg
}

/// The `STATUS` body: the live aggregate rendered as a one-line obs
/// metrics document, extended with a `"series"` member carrying the
/// sampler's windowed rates.
fn status_document(shared: &Shared) -> String {
    let agg = live_aggregate(shared);
    let doc = obs::MetricsDoc {
        command: "serve",
        aggregate: &agg,
    }
    .to_json_line();
    // Splice the series object in before the document's closing brace;
    // the document is a single-line JSON object by construction.
    let series = series_json(shared);
    format!("{},\"series\": {}}}", &doc[..doc.len() - 1], series)
}

/// The `METRICS` body: the live aggregate — merged with the global obs
/// aggregate when `--obs` telemetry is enabled, so engine spans,
/// counters and phase histograms ride along — rendered as Prometheus
/// text exposition.
fn metrics_document(shared: &Shared) -> String {
    let mut agg = live_aggregate(shared);
    if obs::enabled() {
        agg.merge(&obs::snapshot());
    }
    obs::prom::render(&agg)
}

/// An `Option<f64>` as a JSON number or `null` (honest absence: a
/// window with too few samples has no rate, not a zero one).
fn fmt_rate(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v:.3}"),
        _ => "null".to_string(),
    }
}

/// The `"series"` member of the `STATUS` document: for each window,
/// refs/sec, jobs/sec, cache hit-rate, queue depth and evictions/sec
/// derived from the sampler's ring.
fn series_json(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let ring = lock(&shared.series);
    let now_ms = shared.started.elapsed().as_millis() as u64;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"sample_ms\": {}, \"samples\": {}, \"windows\": {{",
        shared.config.sample_ms,
        ring.len()
    );
    let mut first = true;
    for (label, width) in obs::series::WINDOWS {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let refs = fmt_rate(ring.rate_per_sec(now_ms, width, "memtrace.cursor.refs"));
        let jobs = fmt_rate(ring.rate_per_sec(now_ms, width, "serve.completed"));
        let hit_rate = fmt_rate(ring.ratio_pct(
            now_ms,
            width,
            "engine.cache.hits",
            &["engine.cache.hits", "engine.cache.computations"],
        ));
        let evictions = fmt_rate(ring.rate_per_sec(now_ms, width, "engine.cache.evictions"));
        let depth = match ring.gauge_max(now_ms, width, "serve.queue_depth") {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "\"{label}\": {{\"refs_per_sec\": {refs}, \"jobs_per_sec\": {jobs}, \
             \"cache_hit_rate_pct\": {hit_rate}, \"queue_depth\": {depth}, \
             \"evictions_per_sec\": {evictions}}}"
        );
    }
    out.push_str("}}");
    out
}

/// One sampler tick: the cumulative live counters plus instantaneous
/// gauges, stamped with milliseconds since daemon start. When the obs
/// sink is enabled the global aggregate's reference counter rides along
/// so `refs_per_sec` windows resolve.
fn live_sample(shared: &Shared) -> obs::series::Sample {
    let stats = &shared.stats;
    let cache = &shared.cache;
    let mut sample = obs::series::Sample {
        at_ms: shared.started.elapsed().as_millis() as u64,
        ..Default::default()
    };
    let counters: [(&str, u64); 7] = [
        ("serve.requests", stats.requests.load(Ordering::SeqCst)),
        ("serve.completed", stats.completed.load(Ordering::SeqCst)),
        ("serve.errors", stats.errors.load(Ordering::SeqCst)),
        ("serve.overloaded", stats.overloaded.load(Ordering::SeqCst)),
        ("engine.cache.hits", cache.hits()),
        ("engine.cache.computations", cache.computations()),
        ("engine.cache.evictions", cache.evictions()),
    ];
    for (name, value) in counters {
        sample.counters.insert(name.to_string(), value);
    }
    if obs::enabled() {
        let agg = obs::snapshot();
        if let Some(&refs) = agg.counters.get("memtrace.cursor.refs") {
            sample
                .counters
                .insert("memtrace.cursor.refs".to_string(), refs);
        }
    }
    let gauges: [(&str, u64); 3] = [
        (
            "serve.inflight",
            stats.inflight.load(Ordering::SeqCst) as u64,
        ),
        ("serve.queue_depth", lock(&shared.queue).jobs.len() as u64),
        ("engine.cache.size", cache.len() as u64),
    ];
    for (name, value) in gauges {
        sample.gauges.insert(name.to_string(), value);
    }
    sample
}

/// The sampler thread: pushes one [`live_sample`] per `sample_ms` tick
/// into the bounded series ring until shutdown. Sleeps in
/// [`POLL_INTERVAL`] slices so the drain never waits a full tick.
fn sampler_loop(shared: &Shared) {
    let tick = Duration::from_millis(shared.config.sample_ms.max(1));
    let mut next = Instant::now() + tick;
    while !signal::shutdown_requested() {
        std::thread::sleep(POLL_INTERVAL.min(tick));
        if Instant::now() < next {
            continue;
        }
        next = Instant::now() + tick;
        let sample = live_sample(shared);
        lock(&shared.series).push(sample);
    }
}

/// Writes the flight-recorder dump to stderr and, when configured, to
/// the flight file (append — successive dumps accumulate).
fn dump_flight(config: &ServeConfig) {
    let dump = obs::events::render_dump();
    eprint!("{dump}");
    if let Some(path) = &config.flight_file {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(dump.as_bytes()));
        if let Err(e) = appended {
            eprintln!(
                "spmv-locality serve: cannot append flight dump to {}: {e}",
                path.display()
            );
        }
    }
}

/// Answers one Prometheus scrape on the dedicated HTTP listener: reads
/// the request head (best effort — the exposition is the same whatever
/// the path), writes one `200` with the text-format body, closes.
fn serve_prometheus_scrape(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    // Read until the blank line ending the request head, EOF, or
    // timeout; scrapers send tiny GETs, so a few reads suffice.
    for _ in 0..64 {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n")
                    || head.windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
    let body = metrics_document(shared);
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    if stream
        .write_all(response.as_bytes())
        .and_then(|()| stream.flush())
        .is_err()
    {
        shared.stats.write_errors.fetch_add(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::Json;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    fn send(conn: &mut TcpStream, line: &str) {
        conn.write_all(line.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        conn.flush().unwrap();
    }

    /// One test drives a whole server lifecycle (the shutdown flag is
    /// process-global, so concurrent server tests would interfere; the
    /// CLI integration tests run servers in subprocesses instead).
    #[test]
    fn end_to_end_over_tcp() {
        let server = Server::bind(ServeConfig {
            tcp: Some("127.0.0.1:0".into()),
            executors: 2,
            queue: 8,
            cache: 32,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.tcp_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());

        let conn = TcpStream::connect(addr).unwrap();
        let mut lines = BufReader::new(conn.try_clone().unwrap()).lines();
        let mut conn = conn;
        let mut next = || Json::parse(&lines.next().unwrap().unwrap()).unwrap();

        // The same spec the engine's own tests use, with its newlines as
        // JSON \n escapes.
        let spec = r"corpus count=2 scale=64 seed=7\nsettings off\nmethods B\nthreads 1\nscale 64";

        send(&mut conn, &format!(r#"{{"id":"r1","spec":"{spec}"}}"#));
        let mut reports = 0;
        let done = loop {
            let line = next();
            assert_eq!(line.get("id").and_then(Json::as_str), Some("r1"));
            if let Some(done) = line.get("done") {
                break done.clone();
            }
            assert!(line.get("report").is_some(), "unexpected line");
            reports += 1;
        };
        assert_eq!(reports, 2);
        assert_eq!(done.get("jobs").and_then(Json::as_u64), Some(2));
        assert_eq!(
            done.get("profile_computations").and_then(Json::as_u64),
            Some(2)
        );

        // Same matrices again: everything comes from the shared cache.
        send(&mut conn, &format!(r#"{{"id":"r2","spec":"{spec}"}}"#));
        let done = loop {
            let line = next();
            if let Some(done) = line.get("done") {
                break done.clone();
            }
        };
        assert_eq!(done.get("profile_hits").and_then(Json::as_u64), Some(2));
        assert_eq!(
            done.get("profile_computations").and_then(Json::as_u64),
            Some(0)
        );

        // STATUS sees the cross-request cache hits and service counters.
        send(&mut conn, r#"{"id":"s1","status":true}"#);
        let status = next();
        let body = status.get("status").cloned().unwrap();
        let counter = |name: &str| {
            body.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
                .unwrap()
        };
        assert_eq!(counter("engine.cache.hits"), 2);
        assert_eq!(counter("engine.cache.computations"), 2);
        assert_eq!(counter("serve.completed"), 2);
        // The repeat built no matrix: its name, fingerprint and shape
        // came from the source memo.
        assert_eq!(counter("engine.sources.built"), 2);
        assert_eq!(counter("engine.sources.memo_hits"), 2);
        let gauge = |name: &str| body.get("gauges").and_then(|g| g.get(name)).is_some();
        assert!(gauge("engine.cache.size"));
        assert!(gauge("engine.sources.live_max"));
        // The extended STATUS carries the request-latency histogram with
        // percentiles and a series object with every window (rates are
        // null this early — the sampler has at most one sample).
        let latency = body
            .get("histograms")
            .and_then(|h| h.get("serve.request_latency_ns"))
            .expect("latency histogram present");
        assert_eq!(latency.get("count").and_then(Json::as_u64), Some(2));
        assert!(latency.get("p50").and_then(Json::as_u64).unwrap() > 0);
        let series = body.get("series").expect("series present");
        for (label, _) in obs::series::WINDOWS {
            let window = series
                .get("windows")
                .and_then(|w| w.get(label))
                .unwrap_or_else(|| panic!("window {label} missing"));
            assert!(window.get("jobs_per_sec").is_some());
            assert!(window.get("cache_hit_rate_pct").is_some());
        }

        // TRACE of a finished request: the phase tree has queue-wait,
        // cache-lookup, compute and stream-out with real durations.
        send(&mut conn, r#"{"id":"t1","trace":"r1"}"#);
        let trace = next();
        let tree = trace.get("trace").cloned().unwrap();
        assert_eq!(tree.get("request").and_then(Json::as_str), Some("r1"));
        assert!(tree.get("total_ns").and_then(Json::as_u64).unwrap() > 0);
        let phases = tree.get("phases").and_then(Json::as_array).unwrap();
        let phase = |name: &str| {
            phases
                .iter()
                .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("phase {name} missing"))
        };
        for name in ["queue-wait", "cache-lookup", "compute", "stream-out"] {
            let p = phase(name);
            assert!(
                p.get("wall_ns").and_then(Json::as_u64).unwrap() > 0,
                "{name} has zero duration"
            );
        }
        // Two jobs -> the per-domain fan-out merged under compute.
        assert!(phase("compute")
            .get("children")
            .and_then(Json::as_array)
            .is_some());

        // TRACE of an unknown id is a typed not_found error.
        send(&mut conn, r#"{"id":"t2","trace":"nope"}"#);
        let error = next();
        assert_eq!(
            error
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("not_found")
        );

        // METRICS round-trips the strict Prometheus checker and carries
        // the live counters.
        send(&mut conn, r#"{"id":"m1","metrics":true}"#);
        let metrics = next();
        let text = metrics.get("metrics").and_then(Json::as_str).unwrap();
        let samples = obs::prom::check(text).unwrap_or_else(|e| panic!("bad exposition: {e}"));
        assert!(samples > 0);
        assert!(text.contains("spmv_serve_completed 2"), "{text}");
        assert!(
            text.contains("# TYPE spmv_serve_request_latency_ns histogram"),
            "{text}"
        );

        // Malformed and invalid-spec lines answer with typed errors.
        send(&mut conn, "this is not json");
        let error = next();
        assert_eq!(
            error
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("bad_request")
        );
        send(&mut conn, r#"{"id":"r3","spec":"no such directive"}"#);
        let error = next();
        assert_eq!(error.get("id").and_then(Json::as_str), Some("r3"));
        assert_eq!(
            error
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("bad_request")
        );

        // Protocol shutdown: ack, then the daemon drains and exits.
        send(&mut conn, r#"{"id":"q1","shutdown":true}"#);
        let ack = next();
        assert!(ack.get("shutdown").is_some());
        let summary = handle.join().unwrap();
        assert_eq!(summary.connections, 1);
        assert_eq!(summary.completed, 2);
        // bad JSON, bad spec, unknown trace id.
        assert_eq!(summary.errors, 3);
    }
}
