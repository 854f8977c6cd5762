//! Integration tests for `spmv-locality serve`: the daemon runs as a real
//! subprocess on a Unix socket, driven by real clients. The load-bearing
//! acceptance checks live here — report payloads byte-identical to the
//! `batch` command, cross-request cache hits visible through `STATUS`,
//! typed errors for malformed/overload/deadline paths, and a SIGTERM
//! drain that finishes in-flight work.

use obs::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_spmv-locality");

/// A spec small enough to answer promptly: 2 matrices × 2 methods × 2
/// settings = 8 jobs over 4 distinct (matrix, method) profiles.
const SPEC: &str =
    "corpus count=2 scale=64 seed=7\nmethods A,B\nsettings off,5\nthreads 1\nscale 64\nworkers 1\n";

/// A spec whose single profile takes a large fraction of a second to
/// compute even in an optimized build (scale-2 machine, scale-2 corpus
/// matrix): deadline and drain tests need in-flight time.
const HEAVY_SPEC: &str =
    "corpus count=1 scale=2 seed=3\nsettings paper\nmethods B\nthreads 4\nscale 2\nworkers 2\n";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spmv-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(name: &str, extra: &[&str]) -> Daemon {
        let socket = scratch(name).join("serve.sock");
        let mut child = Command::new(BIN)
            .arg("serve")
            .args(["--unix", socket.to_str().unwrap()])
            .args(extra)
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve daemon");
        for _ in 0..400 {
            if socket.exists() {
                return Daemon { child, socket };
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        // Reap the stuck daemon before failing so it cannot linger.
        let _ = child.kill();
        let _ = child.wait();
        panic!("daemon did not create {}", socket.display());
    }

    fn connect(&self) -> Client {
        let stream = UnixStream::connect(&self.socket).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Waits for the daemon to exit and returns (exit code, stderr).
    fn wait(self) -> (i32, String) {
        let out = self.child.wait_with_output().expect("daemon exit");
        (
            out.status.code().unwrap_or(-1),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn predict(&mut self, id: &str, spec: &str, deadline_ms: Option<u64>) {
        let deadline = match deadline_ms {
            Some(ms) => format!(",\"deadline_ms\":{ms}"),
            None => String::new(),
        };
        self.send(&format!(
            "{{\"id\":\"{id}\",\"spec\":\"{}\"{deadline}}}",
            spec.replace('\n', "\\n")
        ));
    }

    fn recv_raw(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        assert!(line.ends_with('\n'), "connection closed mid-response");
        line.truncate(line.len() - 1);
        line
    }

    fn recv(&mut self) -> Json {
        let line = self.recv_raw();
        Json::parse(&line).unwrap_or_else(|e| panic!("bad response line {line:?}: {e}"))
    }

    /// Reads a predict response stream to its end; returns the raw report
    /// lines and the `done` body.
    fn recv_stream(&mut self, id: &str) -> (Vec<String>, Json) {
        let mut reports = Vec::new();
        loop {
            let raw = self.recv_raw();
            let line = Json::parse(&raw).unwrap_or_else(|e| panic!("bad line {raw:?}: {e}"));
            assert_eq!(
                line.get("id").and_then(Json::as_str),
                Some(id),
                "interleaved response for another request: {raw}"
            );
            if let Some(done) = line.get("done") {
                return (reports, done.clone());
            }
            assert!(
                line.get("report").is_some(),
                "expected report or done, got {raw}"
            );
            reports.push(raw);
        }
    }
}

fn error_code(line: &Json) -> String {
    line.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("not an error line"))
        .to_string()
}

/// Strips the `{"id":"..","report":` prefix and trailing `}` framing,
/// recovering the exact batch-command payload.
fn strip_framing(line: &str, id: &str) -> String {
    let prefix = format!("{{\"id\":\"{id}\",\"report\":");
    assert!(
        line.starts_with(&prefix) && line.ends_with('}'),
        "unexpected framing: {line}"
    );
    line[prefix.len()..line.len() - 1].to_string()
}

#[test]
fn serve_matches_batch_and_shares_cache_across_requests() {
    // Oracle: the batch command on the same spec.
    let dir = scratch("oracle");
    let spec_path = dir.join("jobs.spec");
    std::fs::write(&spec_path, SPEC).unwrap();
    let batch = Command::new(BIN)
        .args(["batch", spec_path.to_str().unwrap()])
        .output()
        .expect("run batch oracle");
    assert_eq!(batch.status.code(), Some(0));
    let oracle: Vec<String> = String::from_utf8_lossy(&batch.stdout)
        .lines()
        .filter(|l| l.contains("\"job\":"))
        .map(str::to_string)
        .collect();
    assert_eq!(oracle.len(), 8);

    let daemon = Daemon::start("match-batch", &[]);
    let mut client = daemon.connect();

    // First request computes the 4 profiles; responses are the batch
    // payloads byte-for-byte under the id framing.
    client.predict("c1", SPEC, None);
    let (reports, done) = client.recv_stream("c1");
    let payloads: Vec<String> = reports.iter().map(|l| strip_framing(l, "c1")).collect();
    assert_eq!(payloads, oracle, "serve payloads differ from batch output");
    assert_eq!(done.get("jobs").and_then(Json::as_u64), Some(8));
    assert_eq!(
        done.get("profile_computations").and_then(Json::as_u64),
        Some(4)
    );
    assert_eq!(done.get("profile_hits").and_then(Json::as_u64), Some(4));

    // Two concurrent clients resubmitting the same matrices: everything
    // is served from the shared cache (the OnceLock slots make the
    // computation exactly-once even under the race).
    let handles: Vec<_> = ["t1", "t2"]
        .into_iter()
        .map(|id| {
            let mut c = daemon.connect();
            std::thread::spawn(move || {
                c.predict(id, SPEC, None);
                let (reports, done) = c.recv_stream(id);
                assert_eq!(reports.len(), 8);
                assert_eq!(done.get("profile_hits").and_then(Json::as_u64), Some(8));
                assert_eq!(
                    done.get("profile_computations").and_then(Json::as_u64),
                    Some(0)
                );
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // STATUS exposes the cache SLO counters: 4 computations ever, every
    // other lookup a hit (4 + 8 + 8 = 20).
    client.send(r#"{"id":"s1","status":true}"#);
    let status = client.recv();
    let body = status.get("status").cloned().expect("status body");
    let counter = |name: &str| {
        body.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    assert_eq!(counter("engine.cache.computations"), 4);
    assert_eq!(counter("engine.cache.hits"), 20);
    assert_eq!(counter("serve.completed"), 3);
    assert!(
        body.get("gauges")
            .and_then(|g| g.get("engine.cache.hit_rate_pct"))
            .and_then(Json::as_u64)
            .unwrap()
            >= 80
    );

    // Malformed lines get a typed rejection without killing the session.
    client.send("{oops");
    let error = client.recv();
    assert_eq!(error_code(&error), "bad_request");
    client.send(r#"{"id":"c9","spec":"frobnicate the matrix"}"#);
    let error = client.recv();
    assert_eq!(error.get("id").and_then(Json::as_str), Some("c9"));
    assert_eq!(error_code(&error), "bad_request");

    // Protocol shutdown: acknowledged, then a clean exit.
    client.send(r#"{"id":"q1","shutdown":true}"#);
    let ack = client.recv();
    assert!(ack.get("shutdown").is_some(), "expected shutdown ack");
    let (code, stderr) = daemon.wait();
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stderr.contains("3 completed"), "stderr: {stderr}");
}

#[test]
fn serve_one_slot_cache_evicts_least_recently_used_profile() {
    // Two specs, one distinct matrix and one profile each. With room for
    // one profile, A, B, A makes B evict A and the second A evict B.
    let spec = |seed: u64| {
        format!(
            "corpus count=1 scale=64 seed={seed}\nmethods A\nsettings off,5\nthreads 1\nscale 64\nworkers 1\n"
        )
    };
    let (spec_a, spec_b) = (spec(7), spec(8));
    let dir = scratch("lru-oracle");
    let oracle = |name: &str, spec: &str| -> Vec<String> {
        let path = dir.join(name);
        std::fs::write(&path, spec).unwrap();
        let batch = Command::new(BIN)
            .args(["batch", path.to_str().unwrap()])
            .output()
            .expect("run batch oracle");
        assert_eq!(batch.status.code(), Some(0));
        String::from_utf8_lossy(&batch.stdout)
            .lines()
            .filter(|l| l.contains("\"job\":"))
            .map(str::to_string)
            .collect()
    };
    let (oracle_a, oracle_b) = (oracle("a.spec", &spec_a), oracle("b.spec", &spec_b));
    assert_ne!(oracle_a, oracle_b, "the specs must name distinct matrices");

    let daemon = Daemon::start("lru", &["--cache", "1"]);
    let mut client = daemon.connect();
    let mut done = Json::Null;
    for (id, spec, oracle) in [
        ("a1", &spec_a, &oracle_a),
        ("b1", &spec_b, &oracle_b),
        ("a2", &spec_a, &oracle_a),
    ] {
        client.predict(id, spec, None);
        let (reports, d) = client.recv_stream(id);
        let payloads: Vec<String> = reports.iter().map(|l| strip_framing(l, id)).collect();
        assert_eq!(&payloads, oracle, "{id} differs from batch output");
        done = d;
    }
    assert!(
        done.get("profile_computations").and_then(Json::as_u64) > Some(0),
        "A's profile was evicted, so the third request recomputes: {done:?}"
    );

    client.send(r#"{"id":"s","status":true}"#);
    let evictions = client
        .recv()
        .get("status")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get("engine.cache.evictions"))
        .and_then(Json::as_u64)
        .expect("engine.cache.evictions counter");
    assert!(evictions >= 2, "evictions = {evictions}");

    client.send(r#"{"id":"q","shutdown":true}"#);
    client.recv();
    let (code, stderr) = daemon.wait();
    assert_eq!(code, 0, "stderr: {stderr}");
}

#[test]
fn serve_stays_byte_exact_under_concurrent_status_and_metrics_polling() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    // Oracle: the batch command on the same spec.
    let dir = scratch("poll-oracle");
    let spec_path = dir.join("jobs.spec");
    std::fs::write(&spec_path, SPEC).unwrap();
    let batch = Command::new(BIN)
        .args(["batch", spec_path.to_str().unwrap()])
        .output()
        .expect("run batch oracle");
    assert_eq!(batch.status.code(), Some(0));
    let oracle: Vec<String> = String::from_utf8_lossy(&batch.stdout)
        .lines()
        .filter(|l| l.contains("\"job\":"))
        .map(str::to_string)
        .collect();
    assert_eq!(oracle.len(), 8);

    let daemon = Daemon::start("polling", &["--sample-ms", "50"]);

    // A second connection hammers STATUS and METRICS the whole time:
    // every response must parse, the exposition must round-trip the
    // Prometheus checker, and the completion counter must be monotonic
    // across both views.
    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let stop = Arc::clone(&stop);
        let mut c = daemon.connect();
        std::thread::spawn(move || {
            let mut last_completed = 0u64;
            let mut polls = 0u64;
            while !stop.load(Ordering::Relaxed) {
                c.send(r#"{"id":"ps","status":true}"#);
                let body = c.recv().get("status").cloned().expect("status body");
                let completed = body
                    .get("counters")
                    .and_then(|cs| cs.get("serve.completed"))
                    .and_then(Json::as_u64)
                    .expect("serve.completed counter");
                assert!(completed >= last_completed, "STATUS counter went backwards");
                last_completed = completed;
                assert!(body.get("series").is_some(), "STATUS lost its series block");

                c.send(r#"{"id":"pm","metrics":true}"#);
                let text = c
                    .recv()
                    .get("metrics")
                    .and_then(Json::as_str)
                    .expect("metrics body")
                    .to_string();
                let samples = a64fx_spmv::obs::prom::check(&text)
                    .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
                assert!(samples > 0, "empty exposition");
                let exposed = text
                    .lines()
                    .find_map(|l| l.strip_prefix("spmv_serve_completed "))
                    .and_then(|v| v.parse::<u64>().ok())
                    .expect("spmv_serve_completed sample");
                assert!(exposed >= last_completed, "METRICS counter went backwards");
                last_completed = exposed;
                polls += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            polls
        })
    };

    // Meanwhile the main client runs real predictions; the report
    // payloads must stay byte-identical to the batch oracle under the
    // concurrent polling load.
    let mut client = daemon.connect();
    for (i, id) in ["c1", "c2", "c3"].into_iter().enumerate() {
        client.predict(id, SPEC, None);
        let (reports, done) = client.recv_stream(id);
        let payloads: Vec<String> = reports.iter().map(|l| strip_framing(l, id)).collect();
        assert_eq!(payloads, oracle, "request {i} drifted from the oracle");
        assert_eq!(done.get("jobs").and_then(Json::as_u64), Some(8));
    }

    stop.store(true, Ordering::Relaxed);
    let polls = poller.join().expect("poller thread");
    assert!(polls > 0, "poller never completed a round");

    // Final state: all three predictions visible in both views.
    client.send(r#"{"id":"sf","status":true}"#);
    let body = client.recv().get("status").cloned().expect("status body");
    assert_eq!(
        body.get("counters")
            .and_then(|cs| cs.get("serve.completed"))
            .and_then(Json::as_u64),
        Some(3)
    );

    client.send(r#"{"id":"q","shutdown":true}"#);
    client.recv();
    let (code, stderr) = daemon.wait();
    assert_eq!(code, 0, "stderr: {stderr}");
}

#[test]
fn serve_overload_and_oversized_lines_are_typed_errors() {
    // queue 0: no predict request is ever admitted — the deterministic
    // way to exercise the backpressure rejection.
    let daemon = Daemon::start("overload", &["--queue", "0", "--max-line", "256"]);
    let mut client = daemon.connect();

    client.predict("o1", SPEC, None);
    let error = client.recv();
    assert_eq!(error.get("id").and_then(Json::as_str), Some("o1"));
    assert_eq!(error_code(&error), "overloaded");

    // A line over the cap is rejected, and the session keeps working.
    client.send(&format!(
        "{{\"id\":\"big\",\"spec\":\"{}\"}}",
        "x".repeat(512)
    ));
    let error = client.recv();
    assert_eq!(error_code(&error), "oversized_line");
    client.send(r#"{"id":"s","status":true}"#);
    let status = client.recv();
    assert!(status.get("status").is_some(), "session should survive");

    client.send(r#"{"id":"q","shutdown":true}"#);
    client.recv();
    let (code, stderr) = daemon.wait();
    assert_eq!(code, 0, "stderr: {stderr}");
}

#[test]
fn serve_deeply_nested_line_is_a_typed_error_not_a_crash() {
    // 20,000 nested arrays fit the default 1 MiB line cap but are far
    // deeper than a recursive parser could follow on a session thread's
    // stack: the parser's nesting bound must answer bad_request instead.
    let daemon = Daemon::start("nesting", &[]);
    let mut client = daemon.connect();

    client.send(&"[".repeat(20_000));
    let error = client.recv();
    assert_eq!(error_code(&error), "bad_request");
    client.send(r#"{"id":"s","status":true}"#);
    let status = client.recv();
    assert_eq!(status.get("id").and_then(Json::as_str), Some("s"));
    assert!(status.get("status").is_some(), "daemon should survive");

    client.send(r#"{"id":"q","shutdown":true}"#);
    client.recv();
    let (code, stderr) = daemon.wait();
    assert_eq!(code, 0, "stderr: {stderr}");
}

#[test]
fn serve_threads_beyond_the_machine_cores_are_a_typed_error() {
    // A thread count past the machine's cores is refused at parse time,
    // before the row partition is sized: even 4e9 threads answers
    // bad_request at once, and the daemon keeps answering.
    let daemon = Daemon::start("threads", &[]);
    let mut client = daemon.connect();
    for (id, threads) in [("t1", "49"), ("t2", "4000000000")] {
        let spec = SPEC.replace("threads 1", &format!("threads {threads}"));
        client.predict(id, &spec, None);
        let error = client.recv();
        assert_eq!(error.get("id").and_then(Json::as_str), Some(id));
        assert_eq!(error_code(&error), "bad_request");
        let message = error
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        assert!(
            message.contains(&format!("threads {threads} exceeds the 48 cores")),
            "{message}"
        );
    }
    client.predict("ok", SPEC, None);
    let (reports, _) = client.recv_stream("ok");
    assert_eq!(reports.len(), 8);

    client.send(r#"{"id":"q","shutdown":true}"#);
    client.recv();
    let (code, stderr) = daemon.wait();
    assert_eq!(code, 0, "stderr: {stderr}");

    // A daemon whose default machine has fewer cores checks specs that
    // name no machine against it.
    let daemon = Daemon::start("threads-default", &["--machine", "generic-x86"]);
    let mut client = daemon.connect();
    let spec = SPEC.replace("threads 1", "threads 9");
    client.predict("t3", &spec, None);
    let error = client.recv();
    assert_eq!(error_code(&error), "bad_request");
    client.send(r#"{"id":"q","shutdown":true}"#);
    client.recv();
    let (code, stderr) = daemon.wait();
    assert_eq!(code, 0, "stderr: {stderr}");
}

#[test]
fn serve_rhs_beyond_the_line_id_range_is_a_typed_error_not_an_abort() {
    // 1e11 right-hand sides lay out more cache lines than the stacks'
    // u32 line ids can index: the request gets a typed error before any
    // per-line table is sized, and the daemon keeps answering.
    let daemon = Daemon::start("huge-rhs", &[]);
    let mut client = daemon.connect();
    let spec = format!("{SPEC}rhs 100000000000\n");
    client.predict("k", &spec, None);
    let error = client.recv();
    assert_eq!(error.get("id").and_then(Json::as_str), Some("k"));
    assert_eq!(error_code(&error), "bad_request");
    let message = error
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    assert!(message.contains("cache lines"), "{message}");

    client.send(r#"{"id":"s","status":true}"#);
    assert!(
        client.recv().get("status").is_some(),
        "daemon should answer"
    );
    client.predict("ok", SPEC, None);
    let (reports, _) = client.recv_stream("ok");
    assert_eq!(reports.len(), 8);

    client.send(r#"{"id":"q","shutdown":true}"#);
    client.recv();
    let (code, stderr) = daemon.wait();
    assert_eq!(code, 0, "stderr: {stderr}");
}

#[test]
fn serve_deadline_exceeded_is_a_typed_error_not_a_hang() {
    let daemon = Daemon::start("deadline", &[]);
    let mut client = daemon.connect();

    // A 1 ms budget against seconds of work: the engine's cancellation
    // checkpoints must surface a typed error promptly.
    client.predict("d1", HEAVY_SPEC, Some(1));
    let error = client.recv();
    assert_eq!(error.get("id").and_then(Json::as_str), Some("d1"));
    assert_eq!(error_code(&error), "deadline_exceeded");

    // The daemon is still healthy afterwards.
    client.predict("d2", SPEC, None);
    let (reports, _) = client.recv_stream("d2");
    assert_eq!(reports.len(), 8);

    client.send(r#"{"id":"q","shutdown":true}"#);
    client.recv();
    let (code, stderr) = daemon.wait();
    assert_eq!(code, 0, "stderr: {stderr}");
}

#[test]
fn serve_sigterm_drains_inflight_work() {
    let daemon = Daemon::start("drain", &[]);
    let mut client = daemon.connect();

    // Submit seconds of work, then SIGTERM while it is in flight.
    client.predict("w1", HEAVY_SPEC, None);
    std::thread::sleep(Duration::from_millis(200));
    let term = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());

    // The drained job still answers in full on the open connection.
    let (reports, done) = client.recv_stream("w1");
    assert_eq!(reports.len(), 7);
    assert_eq!(done.get("jobs").and_then(Json::as_u64), Some(7));

    let (code, stderr) = daemon.wait();
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stderr.contains("1 drained"), "stderr: {stderr}");
}
