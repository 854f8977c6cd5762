//! Integration tests driving the `spmv-locality` binary: error paths must
//! exit nonzero with a diagnostic on stderr (never a panic backtrace), and
//! the happy path must emit the documented JSON lines.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_spmv-locality");

/// A per-test scratch directory under the target temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spmv-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn batch_missing_matrix_path_reports_engine_error() {
    let dir = scratch("missing-matrix");
    let spec = dir.join("jobs.spec");
    let missing = dir.join("no-such-matrix.mtx");
    std::fs::write(
        &spec,
        format!(
            "mtx {}\nsettings off\nthreads 1\nscale 64\n",
            missing.display()
        ),
    )
    .unwrap();

    let out = Command::new(BIN)
        .args(["batch", spec.to_str().unwrap()])
        .output()
        .expect("spawn spmv-locality");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot load") && stderr.contains("no-such-matrix.mtx"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn matrix_name_with_a_tab_round_trips_through_the_report_json() {
    // `mtx` trims the path but keeps interior whitespace, so a file name
    // with a tab is the one way a control character reaches a report.
    let dir = scratch("tab-name");
    let matrix = dir.join("tab\tname.mtx");
    std::fs::write(
        &matrix,
        "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 1\n2 2 1\n3 3 1\n1 3 1\n",
    )
    .unwrap();
    let spec = dir.join("jobs.spec");
    std::fs::write(
        &spec,
        format!(
            "mtx {}\nsettings off\nthreads 1\nscale 64\n",
            matrix.display()
        ),
    )
    .unwrap();

    let out = Command::new(BIN)
        .args(["batch", spec.to_str().unwrap()])
        .output()
        .expect("spawn spmv-locality");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout
        .lines()
        .find(|l| l.contains("\"job\":"))
        .expect("a report");
    assert!(line.contains("\"matrix\":\"tab\\tname\""), "{line}");
    let report = a64fx_spmv::obs::json::Json::parse(line).expect("report line is JSON");
    assert_eq!(
        report
            .get("matrix")
            .and_then(a64fx_spmv::obs::json::Json::as_str),
        Some("tab\tname")
    );
}

#[test]
fn hostile_matrix_market_dimensions_are_parse_errors_not_aborts() {
    // Each size line overflows a `u32` index or `num_rows + 1`: it must be
    // a typed parse error (exit 1), never a panic (101) or an allocation
    // abort (134), which under `serve` would get past `catch_unwind`.
    let dir = scratch("hostile-header");
    for (i, size) in [
        "2 5000000000 1",
        "1000000000000 2 1",
        "18446744073709551615 2 1",
    ]
    .iter()
    .enumerate()
    {
        let mtx = dir.join(format!("hostile{i}.mtx"));
        std::fs::write(
            &mtx,
            format!("%%MatrixMarket matrix coordinate pattern general\n{size}\n1 1\n"),
        )
        .unwrap();
        let spec = dir.join(format!("hostile{i}.spec"));
        std::fs::write(
            &spec,
            format!("mtx {}\nsettings off\nthreads 1\nscale 64\n", mtx.display()),
        )
        .unwrap();

        for args in [
            ["analyze", mtx.to_str().unwrap()],
            ["batch", spec.to_str().unwrap()],
        ] {
            let out = Command::new(BIN)
                .args(args)
                .output()
                .expect("spawn spmv-locality");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(
                stderr.contains("Matrix Market parse error")
                    && stderr.contains("exceeds the u32 index range"),
                "{args:?}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            if args[0] == "batch" {
                assert!(stderr.contains("cannot load"), "{args:?}: {stderr}");
            }
        }
    }
}

#[test]
fn batch_deadline_stops_before_building_the_whole_corpus() {
    // Three hundred scale-16 matrices: building them all takes seconds, so
    // the deadline must be polled before each build, not after all of them.
    let dir = scratch("deadline");
    let spec = dir.join("jobs.spec");
    std::fs::write(
        &spec,
        "corpus count=300 scale=16 seed=1\ndeadline_ms 100\nmethods B\nsettings off\nscale 16\n",
    )
    .unwrap();
    let start = std::time::Instant::now();
    let out = Command::new(BIN)
        .args(["batch", spec.to_str().unwrap()])
        .output()
        .expect("spawn spmv-locality");
    let elapsed = start.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("deadline exceeded"), "stderr: {stderr}");
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "took {elapsed:?}"
    );
}

#[test]
fn batch_bad_spec_reports_line_number() {
    let dir = scratch("bad-spec");
    let spec = dir.join("jobs.spec");
    std::fs::write(&spec, "corpus count=banana\n").unwrap();

    let out = Command::new(BIN)
        .args(["batch", spec.to_str().unwrap()])
        .output()
        .expect("spawn spmv-locality");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("line 1"), "stderr: {stderr}");
}

#[test]
fn batch_scale_that_splits_cache_sets_is_a_spec_error() {
    let dir = scratch("ragged-scale");
    let spec = dir.join("jobs.spec");
    std::fs::write(&spec, "corpus count=1 scale=64\nscale 3\nsettings off\n").unwrap();

    let out = Command::new(BIN)
        .args(["batch", spec.to_str().unwrap()])
        .output()
        .expect("spawn spmv-locality");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("line 2") && stderr.contains("scale 3"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    // The one-shot commands reject the same scale as a bad flag value.
    let out = Command::new(BIN)
        .args(["analyze", "whatever.mtx", "--scale", "3"])
        .output()
        .expect("spawn spmv-locality");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--scale 3"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn bad_flag_value_exits_cleanly() {
    let out = Command::new(BIN)
        .args(["analyze", "whatever.mtx", "--threads", "notanumber"])
        .output()
        .expect("spawn spmv-locality");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("expected a number after --threads"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn batch_happy_path_emits_json_lines() {
    let dir = scratch("happy");
    let mtx = dir.join("tiny.mtx");
    // 4x4 tridiagonal-ish matrix, general real.
    std::fs::write(
        &mtx,
        "%%MatrixMarket matrix coordinate real general\n\
         4 4 7\n1 1 2.0\n1 2 -1.0\n2 2 2.0\n2 3 -1.0\n3 3 2.0\n3 4 -1.0\n4 4 2.0\n",
    )
    .unwrap();
    let spec = dir.join("jobs.spec");
    std::fs::write(
        &spec,
        format!(
            "mtx {}\nmethods A,B\nsettings off,5\nthreads 1\nscale 64\nworkers 1\n",
            mtx.display()
        ),
    )
    .unwrap();

    let out = Command::new(BIN)
        .args(["batch", spec.to_str().unwrap()])
        .output()
        .expect("spawn spmv-locality");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    // 2 methods x 2 settings = 4 job lines plus one summary line.
    let job_lines: Vec<&str> = stdout.lines().filter(|l| l.contains("\"job\":")).collect();
    assert_eq!(job_lines.len(), 4, "stdout: {stdout}");
    assert!(job_lines.iter().all(|l| l.contains("\"l2_misses\":")));
    assert!(stdout.lines().any(|l| l.contains("\"summary\":")));
}

#[test]
fn batch_metrics_flag_writes_json_without_changing_report() {
    let dir = scratch("metrics");
    let spec = dir.join("jobs.spec");
    std::fs::write(
        &spec,
        "corpus count=2 scale=64 seed=7\nmethods A,B\nsettings off,5\nthreads 2\nscale 64\nworkers 2\n",
    )
    .unwrap();

    let plain = Command::new(BIN)
        .args(["batch", spec.to_str().unwrap()])
        .output()
        .expect("spawn spmv-locality");
    assert_eq!(
        plain.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&plain.stderr)
    );

    let metrics_path = dir.join("metrics.json");
    let with_metrics = Command::new(BIN)
        .args([
            "batch",
            spec.to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn spmv-locality");
    assert_eq!(
        with_metrics.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&with_metrics.stderr)
    );

    // Telemetry is a pure side channel: the report bytes must not move.
    assert_eq!(
        plain.stdout, with_metrics.stdout,
        "--metrics changed the batch report"
    );

    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    a64fx_spmv::obs::json::Json::parse(&metrics).expect("metrics output is well-formed JSON");
    assert!(metrics.contains("\"schema\": \"spmv-obs/1\""), "{metrics}");
    assert!(metrics.contains("\"command\": \"batch\""), "{metrics}");
    // The span tree must cover the pipeline stages end to end.
    for span in [
        "batch.run",
        "cache.lookup",
        "profile.build",
        "profile.domain",
        "reuse_stack.extract",
        "trace.stream",
    ] {
        assert!(
            metrics.contains(&format!("\"name\": \"{span}\"")),
            "missing span {span}: {metrics}"
        );
    }
    for counter in ["engine.cache.computations", "memtrace.cursor.refs"] {
        assert!(metrics.contains(counter), "missing counter {counter}");
    }
    assert!(metrics.contains("\"rss_checkpoints\""), "{metrics}");
}
