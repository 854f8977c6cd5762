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
    // Each size line overflows a `u32` index or `num_rows + 1`, or
    // declares billions of rows for one entry: it must be a typed parse
    // error (exit 1), never a panic (101) or an allocation abort (134),
    // which under `serve` would get past `catch_unwind`.
    let dir = scratch("hostile-header");
    for (i, (size, message)) in [
        ("2 5000000000 1", "exceeds the u32 index range"),
        ("1000000000000 2 1", "exceeds the u32 index range"),
        ("18446744073709551615 2 1", "exceeds the u32 index range"),
        ("4294967294 2 1", "exceeds the limit of 1048577 rows"),
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
                stderr.contains("Matrix Market parse error") && stderr.contains(message),
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
fn source_scales_out_of_range_are_spec_errors_not_panics() {
    // A zero or oversized source scale is refused while the spec is
    // parsed, naming its line, before any generator runs.
    let dir = scratch("source-scale");
    let spec = dir.join("jobs.spec");
    for text in [
        "corpus count=1 scale=0 seed=1\n",
        "table1 scale=0\n",
        "table1 scale=18446744073709551615\n",
    ] {
        std::fs::write(&spec, format!("settings off\n{text}")).unwrap();
        let out = Command::new(BIN)
            .args(["batch", spec.to_str().unwrap()])
            .output()
            .expect("spawn spmv-locality");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{text:?} stderr: {stderr}");
        assert!(
            stderr.contains("spec line 2") && stderr.contains("scale"),
            "{text:?} stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{text:?} stderr: {stderr}");
    }
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

    // So is a scale that fits the spec's machine but not the machine a
    // `--machine` flag puts in its place.
    std::fs::write(&spec, "corpus count=1 scale=64\nscale 64\nsettings off\n").unwrap();
    let out = Command::new(BIN)
        .args(["batch", spec.to_str().unwrap()])
        .args([
            "--machine",
            "custom:cores=2;l1=4k,4,64;l2=64k,16,64;mem=40g",
        ])
        .output()
        .expect("spawn spmv-locality");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("scale 64 does not fit machine 'custom'"),
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
fn threads_beyond_the_machine_cores_are_rejected() {
    // A batch spec: a typed spec error naming both numbers and the line,
    // for the a64fx default (48 cores), a count far past any core count,
    // and a machine directive after the threads line.
    let dir = scratch("threads-bound");
    for (text, line, threads, cores) in [
        (
            "corpus count=1 scale=64
threads 200
scale 64
",
            2,
            "200",
            "48",
        ),
        (
            "corpus count=1 scale=64
scale 64
threads 4000000000
",
            3,
            "4000000000",
            "48",
        ),
        (
            "corpus count=1 scale=64
threads 9
machine generic-x86
scale 64
",
            2,
            "9",
            "8",
        ),
    ] {
        let spec = dir.join("jobs.spec");
        std::fs::write(&spec, text).unwrap();
        let out = Command::new(BIN)
            .args(["batch", spec.to_str().unwrap()])
            .output()
            .expect("spawn spmv-locality");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{text:?}: {stderr}");
        assert!(
            stderr.contains(&format!("line {line}"))
                && stderr.contains(&format!("threads {threads} exceeds the {cores} cores")),
            "{text:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{text:?}: {stderr}");
    }

    // A `--machine` flag that replaces the spec's machines is checked too.
    let spec = dir.join("jobs.spec");
    std::fs::write(
        &spec,
        "corpus count=1 scale=64
threads 48
scale 64
",
    )
    .unwrap();
    let out = Command::new(BIN)
        .args(["batch", spec.to_str().unwrap(), "--machine", "generic-x86"])
        .output()
        .expect("spawn spmv-locality");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("threads 48 exceeds the 8 cores of machine 'generic-x86'"),
        "stderr: {stderr}"
    );

    // The one-shot commands reject the same count as a bad flag value,
    // before the matrix file is opened; the core count itself passes the
    // check and fails on the missing file.
    for command in ["analyze", "tune", "simulate"] {
        let out = Command::new(BIN)
            .args([command, "whatever.mtx", "--scale", "64", "--threads", "49"])
            .output()
            .expect("spawn spmv-locality");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command}: {stderr}");
        assert!(
            stderr.contains("--threads 49 exceeds the 48 cores of machine 'a64fx'"),
            "{command}: {stderr}"
        );
        let out = Command::new(BIN)
            .args([command, "whatever.mtx", "--scale", "64", "--threads", "48"])
            .output()
            .expect("spawn spmv-locality");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.contains("failed to read"), "{command}: {stderr}");
    }
    let out = Command::new(BIN)
        .args([
            "analyze",
            "whatever.mtx",
            "--machine",
            "generic-x86",
            "--threads",
            "9",
        ])
        .output()
        .expect("spawn spmv-locality");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--threads 9 exceeds the 8 cores of machine 'generic-x86'"),
        "stderr: {stderr}"
    );
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

#[test]
fn l2_ways_outside_the_machine_is_a_bad_flag_value() {
    // The scaled a64fx L2 has 16 ways: the matrix stream may take 1..=15
    // of them (and `simulate` also 0, sector cache off). Out of range is
    // rejected while parsing, before the matrix file is even opened;
    // `tune` sweeps every split, so it takes no value at all.
    for (command, ways, range) in [
        ("simulate", "16", "0 to 15"),
        ("simulate", "99", "0 to 15"),
        ("analyze", "16", "1 to 15"),
        ("analyze", "99", "1 to 15"),
        ("analyze", "0", "1 to 15"),
        ("tune", "5", "sweeps every way split"),
        ("tune", "99", "sweeps every way split"),
    ] {
        let out = Command::new(BIN)
            .args([command, "whatever.mtx", "--scale", "64", "--l2-ways", ways])
            .output()
            .expect("spawn spmv-locality");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command} {ways}: {stderr}");
        assert!(
            stderr.contains(&format!("--l2-ways {ways}")) && stderr.contains(range),
            "{command} {ways}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{command} {ways}: {stderr}");
    }
    // In-range values pass the flag check and fail on the missing file.
    for (command, ways) in [("simulate", "0"), ("simulate", "15"), ("analyze", "15")] {
        let out = Command::new(BIN)
            .args([command, "whatever.mtx", "--l2-ways", ways])
            .output()
            .expect("spawn spmv-locality");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command} {ways}: {stderr}");
        assert!(
            stderr.contains("failed to read"),
            "{command} {ways}: {stderr}"
        );
    }
}

#[test]
fn zero_threads_and_zero_rhs_are_bad_flag_values() {
    // A zero count is rejected while parsing (exit 2, no panic), before
    // the matrix file is even opened — for every one-shot command.
    for command in ["analyze", "tune", "simulate"] {
        for flag in ["--threads", "--rhs"] {
            let out = Command::new(BIN)
                .args([command, "whatever.mtx", "--scale", "64", flag, "0"])
                .output()
                .expect("spawn spmv-locality");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{command} {flag} 0: {stderr}");
            assert!(
                stderr.contains(&format!("expected a positive count after {flag}")),
                "{command} {flag} 0: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{command} {flag} 0: {stderr}");
        }
    }
    // So is a zero batch deadline or validation corpus size.
    let dir = scratch("zero-counts");
    let spec = dir.join("jobs.spec");
    std::fs::write(
        &spec,
        "corpus count=1 scale=64 seed=7
settings off
scale 64
",
    )
    .unwrap();
    let spec = spec.to_str().unwrap();
    for (args, flag) in [
        (["batch", spec], "--deadline-ms"),
        (["validate", "--smoke"], "--matrices"),
    ] {
        let out = Command::new(BIN)
            .args(args)
            .args([flag, "0"])
            .output()
            .expect("spawn spmv-locality");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} {flag} 0: {stderr}");
        assert!(
            stderr.contains(&format!("expected a positive count after {flag}")),
            "{args:?} {flag} 0: {stderr}"
        );
    }
    // A positive count passes the flag check and fails on the missing file.
    let out = Command::new(BIN)
        .args(["analyze", "whatever.mtx", "--threads", "1", "--rhs", "1"])
        .output()
        .expect("spawn spmv-locality");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("failed to read"), "{stderr}");
}

#[test]
fn rhs_counts_beyond_the_line_id_range_are_refused_before_allocation() {
    // K right-hand sides widen `x` and `y` K-fold. On a 4×4 matrix,
    // K = 1e11 lays out ~2.5e10 cache lines, past the u32 line ids the
    // stacks index by, and K = usize::MAX overflows the byte count: each
    // must be a typed error before any per-line table is sized, never an
    // allocation abort (exit 134).
    let dir = scratch("huge-rhs");
    let mtx = dir.join("tiny.mtx");
    std::fs::write(
        &mtx,
        "%%MatrixMarket matrix coordinate pattern general\n4 4 5\n1 1\n2 2\n3 3\n4 4\n1 4\n",
    )
    .unwrap();
    for (k, why) in [
        ("100000000000", "beyond the 4294967294"),
        ("18446744073709551615", "overflows"),
    ] {
        for command in ["analyze", "tune"] {
            let out = Command::new(BIN)
                .args([command, mtx.to_str().unwrap(), "--scale", "64", "--rhs", k])
                .output()
                .expect("spawn spmv-locality");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{command} --rhs {k}: {stderr}");
            assert!(
                stderr.contains("cannot trace") && stderr.contains(why),
                "{command} --rhs {k}: {stderr}"
            );
        }
        for source in [
            format!("mtx {}", mtx.display()),
            "corpus count=1 scale=64".to_string(),
        ] {
            let spec = dir.join("huge-rhs.spec");
            std::fs::write(
                &spec,
                format!("{source}\nsettings off\nthreads 1\nscale 64\nrhs {k}\n"),
            )
            .unwrap();
            let out = Command::new(BIN)
                .args(["batch", spec.to_str().unwrap()])
                .output()
                .expect("spawn spmv-locality");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{source} rhs {k}: {stderr}");
            assert!(
                stderr.contains("cannot trace") && stderr.contains(why),
                "{source} rhs {k}: {stderr}"
            );
        }
    }
    // A modest K still runs.
    let out = Command::new(BIN)
        .args([
            "analyze",
            mtx.to_str().unwrap(),
            "--scale",
            "64",
            "--rhs",
            "16",
        ])
        .output()
        .expect("spawn spmv-locality");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
