//! `spmv-locality` — command-line front end to the locality model and the
//! A64FX simulator.
//!
//! ```text
//! spmv-locality analyze  <matrix.mtx> [--threads N] [--scale N]
//!                        [--format csr|sell:C,S] [--reorder none|rcm]
//!                        [--rhs K] [--rhs-layout row|col] [--workload W]
//!                        [--machine M] [--ecm]
//! spmv-locality tune     <matrix.mtx> [--threads N] [--scale N]
//!                        [--format csr|sell:C,S] [--reorder none|rcm]
//!                        [--rhs K] [--rhs-layout row|col] [--workload W]
//!                        [--machine M] [--ecm]
//! spmv-locality simulate <matrix.mtx> [--threads N] [--scale N] [--l2-ways W]
//!                        [--reorder none|rcm]
//! spmv-locality batch    <spec-file>  [--workers N] [--format F] [--reorder R]
//!                        [--rhs K] [--rhs-layout row|col] [--workload W]
//!                        [--deadline-ms N] [--machine M]... [--ecm]
//! spmv-locality validate [--matrices N] [--seed S] [--workers N] [--smoke]
//!                        [--format csr|sell:C,S] [--reorder none|rcm]
//!                        [--machine M]
//! spmv-locality serve    [--unix PATH] [--tcp ADDR] [--executors N]
//!                        [--queue N] [--cache N] [--max-line BYTES]
//!                        [--deadline-ms N] [--machine M]
//! ```
//!
//! `analyze` prints the matrix statistics, its §3.1 classification and the
//! model's predicted misses; `tune` sweeps every legal sector split and
//! recommends one; `simulate` runs the machine simulator and reports the
//! PMU counters and estimated performance; `batch` runs a whole work list
//! of predictions on the parallel engine (see `BatchSpec::parse` for the
//! spec format) and prints one JSON line per job plus a summary line with
//! the profile-cache accounting; `validate` runs the differential
//! validation harness over a stratified random corpus, printing one JSON
//! line per divergence plus a summary line, and exits nonzero if any
//! invariant was violated (see `EXPERIMENTS.md`, "Divergence triage");
//! `serve` runs the long-lived prediction daemon — line-delimited JSON
//! requests over a Unix socket and/or TCP, sharing one LRU profile cache
//! across requests (see README, "Prediction service", for the wire
//! protocol). `serve` drains gracefully on SIGINT/SIGTERM or a protocol
//! `shutdown` request.
//!
//! `--format` selects the storage format the model analyses (`csr`, or
//! `sell:C,S` for SELL-C-σ with chunk size `C` and sorting window `S`);
//! `--reorder rcm` applies Reverse Cuthill–McKee before the format
//! conversion. For `batch` they override the spec file's directives; for
//! `validate`, `--format csr` skips the SELL invariant reruns and
//! `--format sell:C,S` replaces the default (8, 32) view (the C=1, σ=1
//! cross-format pass always runs). The simulator is CSR-only, so
//! `simulate` accepts `--reorder` but not a SELL `--format`.
//!
//! `--l2-ways W` (analyze, simulate; default 5) is the number of
//! last-level ways given to the matrix stream's sector. It must leave the
//! other sector at least one way, so it ranges over 1 to ways − 1 of the
//! selected machine; `simulate` also takes 0 for "sector cache off". A
//! value outside that range is a bad flag value (exit 2), and so is the
//! flag on `tune`, which sweeps every split. `--threads` and `--rhs`
//! take positive counts; 0 is a bad flag value too, and so is a
//! `--threads` above the selected machine's core count, which is also
//! the default (48 on the a64fx).
//!
//! `--rhs K` traces a `K`-right-hand-side SpMM instead of the single
//! vector SpMV (`--rhs-layout` picks row-major interleaved RHS, the
//! default, or `col` for separate vectors); `--workload cg` traces a full
//! conjugate-gradient iteration (the SpMV plus the solver's vector
//! sweeps, see `memtrace::cursor::CgCursor`), `--workload spmm:K[,row|col]`
//! is the spelled-out SpMM form. With `--rhs 1` every output is
//! byte-identical to the plain SpMV. The simulator executes the SpMV
//! kernel itself, so `simulate` accepts neither flag.
//!
//! `--machine M` selects the cache hierarchy the model analyses: the
//! `a64fx` preset (the default — byte-identical output to builds before
//! the machine abstraction existed), `generic-x86` (a 3-level
//! Skylake-like hierarchy with 64 B lines), or a `custom:<spec>` string
//! (see README, "Machine models", for the grammar). For `batch` the flag
//! may repeat — the batch then sweeps every machine per matrix — and
//! overrides the spec file's `machine` directives; for `serve` it sets
//! the default machine applied to requests whose spec names none; for
//! `validate` it retargets the harness (non-a64fx machines run the
//! model-only plan). The simulator is A64FX-only, so `simulate` takes no
//! `--machine`. `--ecm` (analyze, tune, batch) attaches ECM-style
//! throughput estimates — in-core plus per-link transfer times composed
//! into Gflop/s — to every prediction.
//!
//! `--metrics <path>` (every subcommand) enables the telemetry subsystem
//! and writes its structured JSON metrics document — span tree with wall
//! times, counters, histograms, peak-RSS checkpoints — to `<path>` when
//! the command finishes. Telemetry is a side channel: the command's
//! stdout (including batch/validate JSON lines) is byte-identical with
//! and without it.

use a64fx_spmv::prelude::*;

struct Cli {
    command: String,
    path: String,
    threads: usize,
    scale: usize,
    l2_ways: usize,
    format: FormatSpec,
    reorder: ReorderSpec,
    scenario: ScenarioPick,
    machine: MachineSpec,
    ecm: bool,
    metrics: Option<String>,
}

/// Accumulates the `--rhs`/`--rhs-layout`/`--workload` flags, which may
/// arrive in any order, and resolves them into one [`ScenarioSpec`].
#[derive(Default)]
struct ScenarioPick {
    rhs: Option<usize>,
    rhs_layout: Option<RhsLayout>,
    workload: Option<ScenarioSpec>,
}

impl ScenarioPick {
    fn resolve(&self) -> ScenarioSpec {
        match (self.workload, self.rhs) {
            (Some(_), Some(_)) => {
                eprintln!("spmv-locality: --workload and --rhs are mutually exclusive");
                std::process::exit(2);
            }
            (Some(w), None) => {
                if self.rhs_layout.is_some() && !matches!(w, ScenarioSpec::Spmm { .. }) {
                    eprintln!("spmv-locality: --rhs-layout only applies to SpMM workloads");
                    std::process::exit(2);
                }
                match (w, self.rhs_layout) {
                    (ScenarioSpec::Spmm { k, .. }, Some(layout)) => {
                        ScenarioSpec::Spmm { k, layout }
                    }
                    _ => w,
                }
            }
            (None, Some(k)) => ScenarioSpec::Spmm {
                k,
                layout: self.rhs_layout.unwrap_or_default(),
            },
            (None, None) => {
                if self.rhs_layout.is_some() {
                    eprintln!("spmv-locality: --rhs-layout needs --rhs or --workload spmm:K");
                    std::process::exit(2);
                }
                ScenarioSpec::Spmv
            }
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: spmv-locality <analyze|tune|simulate> <matrix.mtx> \
         [--threads N] [--scale N] [--l2-ways W] \
         [--format csr|sell:C,S] [--reorder none|rcm] \
         [--rhs K] [--rhs-layout row|col] [--workload spmv|cg|spmm:K] \
         [--machine a64fx|generic-x86|custom:SPEC] [--ecm] [--metrics PATH]\n\
         \x20      spmv-locality batch <spec-file> [--workers N] \
         [--format F] [--reorder R] [--rhs K] [--rhs-layout row|col] \
         [--workload W] [--machine M]... [--ecm] [--metrics PATH]\n\
         \x20      spmv-locality validate [--matrices N] [--seed S] \
         [--workers N] [--smoke] [--format F] [--reorder R] [--machine M] \
         [--metrics PATH]\n\
         \x20      spmv-locality serve [--unix PATH] [--tcp ADDR] \
         [--executors N] [--queue N] [--cache N] [--max-line BYTES] \
         [--deadline-ms N] [--machine M] [--metrics PATH] \
         [--sample-ms N] [--prometheus ADDR] [--flight-file PATH] \
         [--trace-buffer N]"
    );
    std::process::exit(2);
}

/// Turns telemetry on (clean slate + a `start` RSS checkpoint) when a
/// `--metrics` path was given. Recording costs nothing otherwise: the
/// global sink stays disabled.
fn metrics_setup(path: &Option<String>) {
    if path.is_some() {
        obs::reset();
        obs::enable();
        obs::rss_checkpoint("start");
    }
}

/// Writes the metrics document for a finished command. The document is a
/// side channel — it never touches the command's stdout.
fn metrics_write(path: &Option<String>, command: &str) {
    let Some(path) = path else { return };
    obs::rss_checkpoint("end");
    let aggregate = obs::snapshot();
    let doc = obs::MetricsDoc {
        command,
        aggregate: &aggregate,
    };
    if let Err(e) = std::fs::write(path, doc.to_json()) {
        eprintln!("spmv-locality: failed to write metrics to {path}: {e}");
        std::process::exit(1);
    }
}

/// Parses the value of a `--format` flag, exiting with the parse error.
fn parse_format(value: Option<String>) -> FormatSpec {
    FormatSpec::parse(value.as_deref().unwrap_or("")).unwrap_or_else(|e| {
        eprintln!("spmv-locality: {e}");
        std::process::exit(2);
    })
}

/// Parses the value of a `--reorder` flag, exiting with the parse error.
fn parse_reorder(value: Option<String>) -> ReorderSpec {
    ReorderSpec::parse(value.as_deref().unwrap_or("")).unwrap_or_else(|e| {
        eprintln!("spmv-locality: {e}");
        std::process::exit(2);
    })
}

/// Parses the value of a `--rhs-layout` flag, exiting with the parse error.
fn parse_rhs_layout(value: Option<String>) -> RhsLayout {
    RhsLayout::parse(value.as_deref().unwrap_or("")).unwrap_or_else(|e| {
        eprintln!("spmv-locality: {e}");
        std::process::exit(2);
    })
}

/// Parses the value of a `--workload` flag, exiting with the parse error.
fn parse_workload(value: Option<String>) -> ScenarioSpec {
    ScenarioSpec::parse(value.as_deref().unwrap_or("")).unwrap_or_else(|e| {
        eprintln!("spmv-locality: {e}");
        std::process::exit(2);
    })
}

/// Parses the value of a `--machine` flag, exiting with the parse error.
fn parse_machine(value: Option<String>) -> MachineSpec {
    MachineSpec::parse(value.as_deref().unwrap_or("")).unwrap_or_else(|e| {
        eprintln!("spmv-locality: {e}");
        std::process::exit(2);
    })
}

/// Picks the sweep setting with the fewest predicted misses for `tune`.
///
/// Returns a typed error instead of panicking when the sweep is empty —
/// a degenerate machine shape (no legal way split) must exit with a
/// diagnostic, not a `min_by_key(...).unwrap()` backtrace.
fn tune_recommendation(preds: &[Prediction]) -> Result<&Prediction, String> {
    preds.iter().min_by_key(|p| p.l2_misses).ok_or_else(|| {
        "the sector sweep produced no predictions \
         (this machine shape has no legal sector setting)"
            .to_string()
    })
}

/// `validate` subcommand: the differential validation harness. JSON
/// divergence lines plus a summary on stdout, human accounting on
/// stderr; exit 1 if any invariant was violated.
fn run_validate_command(args: impl Iterator<Item = String>) -> ! {
    let mut config = valid::ValidationConfig::default();
    let mut metrics = None;
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> usize {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("spmv-locality: expected a number after {what}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--matrices" => config.matrices = value("--matrices").max(1),
            "--seed" => config.seed = value("--seed") as u64,
            "--workers" => config.workers = value("--workers"),
            "--smoke" => config.smoke = true,
            "--format" => {
                config.sell_formats = Some(match parse_format(args.next()) {
                    FormatSpec::Csr => Vec::new(),
                    FormatSpec::Sell { chunk_size, sigma } => vec![(chunk_size, sigma)],
                });
            }
            "--reorder" => config.reorder = parse_reorder(args.next()),
            "--machine" => config.machine = parse_machine(args.next()),
            "--metrics" => metrics = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    metrics_setup(&metrics);
    let report = valid::run_validation(&config);
    metrics_write(&metrics, "validate");
    print!("{}", report.to_json_lines());
    let s = &report.stats;
    eprintln!(
        "# {} matrices (class 1/2/3a/3b: {}/{}/{}/{}), {} checks, {} divergences",
        s.matrices,
        s.by_class[0],
        s.by_class[1],
        s.by_class[2],
        s.by_class[3],
        s.checks_run,
        s.divergences
    );
    std::process::exit(if report.passed() { 0 } else { 1 });
}

/// `serve` subcommand: the long-lived prediction daemon. Runs until a
/// signal or protocol `shutdown`, then drains in-flight requests and
/// prints an accounting line to stderr.
fn run_serve_command(args: impl Iterator<Item = String>) -> ! {
    let mut config = serve::ServeConfig::default();
    let mut metrics = None;
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> usize {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("spmv-locality: expected a number after {what}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--unix" => {
                config.unix = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--tcp" => config.tcp = Some(args.next().unwrap_or_else(|| usage())),
            "--executors" => config.executors = value("--executors").max(1),
            "--queue" => config.queue = value("--queue"),
            "--cache" => config.cache = value("--cache").max(1),
            "--max-line" => config.max_line = value("--max-line").max(1),
            "--deadline-ms" => {
                config.default_deadline_ms = Some(value("--deadline-ms").max(1) as u64);
            }
            "--machine" => config.default_machine = Some(parse_machine(args.next())),
            "--metrics" => metrics = Some(args.next().unwrap_or_else(|| usage())),
            "--sample-ms" => config.sample_ms = value("--sample-ms") as u64,
            "--prometheus" => {
                config.prometheus = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--flight-file" => {
                config.flight_file = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--trace-buffer" => config.trace_buffer = value("--trace-buffer"),
            _ => usage(),
        }
    }
    metrics_setup(&metrics);
    let unix_path = config.unix.clone();
    let tcp_addr = config.tcp.clone();
    let prometheus = config.prometheus.clone();
    serve::signal::install_handlers();
    let server = serve::Server::bind(config).unwrap_or_else(|e| {
        eprintln!("spmv-locality serve: {e}");
        std::process::exit(1);
    });
    if let Some(path) = &unix_path {
        eprintln!("# serve: listening on unix {}", path.display());
    }
    if tcp_addr.is_some() {
        if let Some(addr) = server.tcp_addr() {
            eprintln!("# serve: listening on tcp {addr}");
        }
    }
    if prometheus.is_some() {
        if let Some(addr) = server.prometheus_addr() {
            eprintln!("# serve: prometheus exposition on http://{addr}/metrics");
        }
    }
    let summary = server.run();
    metrics_write(&metrics, "serve");
    eprintln!(
        "# serve: {} connection(s), {} request(s), {} completed, {} error(s), {} drained",
        summary.connections, summary.requests, summary.completed, summary.errors, summary.drained
    );
    std::process::exit(0);
}

/// `batch` subcommand: run a spec file on the engine, JSON lines out.
/// Command-line `--workers`/`--format`/`--reorder`/`--deadline-ms`
/// override the spec file's directives.
fn run_batch_command(spec_path: &str, args: impl Iterator<Item = String>) -> ! {
    let text = std::fs::read_to_string(spec_path).unwrap_or_else(|e| {
        eprintln!("failed to read {spec_path}: {e}");
        std::process::exit(1);
    });
    let mut spec = BatchSpec::parse(&text).unwrap_or_else(|e| {
        eprintln!("{spec_path}: {e}");
        std::process::exit(1);
    });
    let mut metrics = None;
    let mut scenario = ScenarioPick::default();
    let mut machines: Vec<MachineSpec> = Vec::new();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--machine" => {
                let m = parse_machine(args.next());
                if machines.contains(&m) {
                    eprintln!("spmv-locality: duplicate --machine {}", m.label());
                    std::process::exit(2);
                }
                machines.push(m);
            }
            "--ecm" => spec.ecm = true,
            "--workers" => {
                spec.workers = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("spmv-locality: expected a number after --workers");
                    std::process::exit(2);
                });
            }
            "--format" => spec.format = parse_format(args.next()),
            "--reorder" => spec.reorder = parse_reorder(args.next()),
            "--rhs" => {
                let k = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&k| k > 0)
                    .unwrap_or_else(|| {
                        eprintln!("spmv-locality: expected a positive count after --rhs");
                        std::process::exit(2);
                    });
                scenario.rhs = Some(k);
            }
            "--rhs-layout" => scenario.rhs_layout = Some(parse_rhs_layout(args.next())),
            "--workload" => scenario.workload = Some(parse_workload(args.next())),
            "--deadline-ms" => {
                let ms = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("spmv-locality: expected a number after --deadline-ms");
                        std::process::exit(2);
                    });
                spec.deadline_ms = Some(ms.max(1));
            }
            "--metrics" => metrics = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if scenario.rhs.is_some() || scenario.workload.is_some() || scenario.rhs_layout.is_some() {
        spec.scenario = scenario.resolve();
    }
    if !machines.is_empty() {
        spec.machines = machines;
        if let Err(e) = spec.check_machines() {
            eprintln!("{spec_path}: {e}");
            std::process::exit(1);
        }
    }
    metrics_setup(&metrics);
    match run_batch(&spec) {
        Ok(result) => {
            metrics_write(&metrics, "batch");
            print!("{}", result.to_json_lines());
            eprintln!(
                "# {} jobs over {} matrices: {} profiles computed, {} cache hits",
                result.stats.jobs,
                result.stats.matrices,
                result.stats.profile_computations,
                result.stats.profile_hits
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{spec_path}: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_cli() -> Cli {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| usage());
    if command == "validate" {
        run_validate_command(args);
    }
    if command == "serve" {
        run_serve_command(args);
    }
    let path = args.next().unwrap_or_else(|| usage());
    if command == "batch" {
        run_batch_command(&path, args);
    }
    let mut cli = Cli {
        command,
        path,
        threads: 0, // resolved against the machine's cores below
        scale: 1,
        l2_ways: 5,
        format: FormatSpec::Csr,
        reorder: ReorderSpec::None,
        scenario: ScenarioPick::default(),
        machine: MachineSpec::A64fx,
        ecm: false,
        metrics: None,
    };
    let mut l2_ways_given = false;
    let mut threads = None;
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> usize {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("spmv-locality: expected a number after {what}");
                std::process::exit(2);
            })
        };
        let positive = |what: &str, n: usize| -> usize {
            if n == 0 {
                eprintln!("spmv-locality: expected a positive count after {what}");
                std::process::exit(2);
            }
            n
        };
        match flag.as_str() {
            "--threads" => threads = Some(positive("--threads", value("--threads"))),
            "--scale" => cli.scale = value("--scale"),
            "--l2-ways" => {
                cli.l2_ways = value("--l2-ways");
                l2_ways_given = true;
            }
            "--format" => cli.format = parse_format(args.next()),
            "--reorder" => cli.reorder = parse_reorder(args.next()),
            "--rhs" => cli.scenario.rhs = Some(positive("--rhs", value("--rhs"))),
            "--rhs-layout" => cli.scenario.rhs_layout = Some(parse_rhs_layout(args.next())),
            "--workload" => cli.scenario.workload = Some(parse_workload(args.next())),
            "--machine" => cli.machine = parse_machine(args.next()),
            "--ecm" => cli.ecm = true,
            "--metrics" => cli.metrics = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let hier = cli.machine.try_hierarchy(cli.scale).unwrap_or_else(|e| {
        eprintln!(
            "spmv-locality: --scale {} does not fit machine '{}': {e}",
            cli.scale,
            cli.machine.label()
        );
        std::process::exit(2);
    });
    cli.threads = threads.unwrap_or(hier.num_cores);
    if cli.threads > hier.num_cores {
        eprintln!(
            "spmv-locality: --threads {} exceeds the {} cores of machine '{}'",
            cli.threads,
            hier.num_cores,
            cli.machine.label()
        );
        std::process::exit(2);
    }
    if cli.command == "tune" && l2_ways_given {
        eprintln!(
            "spmv-locality: --l2-ways {} does not apply: tune sweeps every way split",
            cli.l2_ways
        );
        std::process::exit(2);
    }
    // The matrix stream's sector must leave sector 0 at least one way;
    // `simulate` also takes 0 for "sector cache off".
    if matches!(cli.command.as_str(), "analyze" | "simulate") {
        let ways = hier.last_level().geometry.ways;
        let lowest = usize::from(cli.command == "analyze");
        if !(lowest..ways).contains(&cli.l2_ways) {
            eprintln!(
                "spmv-locality: --l2-ways {} is out of range for machine '{}' \
                 ({ways} last-level ways): {} takes {lowest} to {}",
                cli.l2_ways,
                cli.machine.label(),
                cli.command,
                ways - 1
            );
            std::process::exit(2);
        }
    }
    if cli.command == "simulate" && cli.format != FormatSpec::Csr {
        eprintln!("spmv-locality: the simulator is CSR-only (drop --format or use csr)");
        std::process::exit(2);
    }
    if cli.command == "simulate" && cli.scenario.resolve() != ScenarioSpec::Spmv {
        eprintln!(
            "spmv-locality: the simulator executes the plain SpMV kernel \
             (drop --rhs/--workload)"
        );
        std::process::exit(2);
    }
    if cli.command == "simulate" && (!cli.machine.is_default() || cli.ecm) {
        eprintln!(
            "spmv-locality: the simulator models the A64FX and reports its own \
             performance estimate (drop --machine/--ecm)"
        );
        std::process::exit(2);
    }
    cli
}

/// The modeled machine: the selected hierarchy at the CLI's scale and
/// thread count. For the default a64fx preset this is byte-identical to
/// the historical `a64fx_scaled(scale).with_cores(threads)` config.
fn machine_of(
    spec: &MachineSpec,
    scale: usize,
    threads: usize,
) -> (HierarchyConfig, MachineConfig) {
    let hier = spec.hierarchy(scale).with_cores(threads);
    let cfg = MachineConfig::from_hierarchy(&hier);
    (hier, cfg)
}

fn main() {
    let cli = parse_cli();
    metrics_setup(&cli.metrics);
    let matrix = sparsemat::mm::read_csr_file(&cli.path)
        .unwrap_or_else(|e| {
            eprintln!("failed to read {}: {e}", cli.path);
            std::process::exit(1);
        })
        .clone();
    let (hier, cfg) = machine_of(&cli.machine, cli.scale, cli.threads);
    // Reorder first so statistics, classification and predictions all see
    // the same row order; then build the requested format view, then wrap
    // it in the scenario view (SpMM/CG) if one was requested.
    let matrix = cli.reorder.apply(matrix);
    let stats = MatrixStats::compute(&matrix);
    let scenario = cli.scenario.resolve();
    if scenario == ScenarioSpec::Cg && matrix.num_rows() != matrix.num_cols() {
        eprintln!(
            "spmv-locality: a CG iteration needs a square matrix, got {}x{}",
            matrix.num_rows(),
            matrix.num_cols()
        );
        std::process::exit(2);
    }
    let workload = scenario.apply(cli.format.build(matrix.clone()));
    if let Err(e) = workload.check_line_range(cfg.l2.line_bytes) {
        eprintln!("spmv-locality: cannot trace {}: {e}", cli.path);
        std::process::exit(2);
    }

    match cli.command.as_str() {
        "analyze" => {
            println!("matrix      : {}", cli.path);
            if cli.reorder != ReorderSpec::None {
                println!("reorder     : {}", cli.reorder.label());
            }
            if !cli.machine.is_default() {
                println!("machine     : {}", cli.machine.label());
            }
            println!(
                "rows x cols : {} x {}",
                matrix.num_rows(),
                matrix.num_cols()
            );
            println!(
                "nonzeros    : {} ({:.2}/row, CV {:.2})",
                matrix.nnz(),
                stats.row_nnz_mean,
                stats.row_nnz_cv
            );
            println!(
                "CSR bytes   : {:.2} MiB",
                matrix.matrix_bytes() as f64 / (1 << 20) as f64
            );
            if cli.format != FormatSpec::Csr {
                println!("format      : {}", cli.format.label());
                // Stored entries, not gathers: an SpMM view widens
                // `x_refs` k-fold while the stored stream is unchanged.
                println!(
                    "stored      : {} entries ({:+.1} % padding), {:.2} MiB",
                    workload.stream_entries(),
                    100.0 * (workload.stream_entries() as f64 - matrix.nnz() as f64)
                        / matrix.nnz().max(1) as f64,
                    workload.matrix_bytes() as f64 / (1 << 20) as f64
                );
            }
            if scenario != ScenarioSpec::Spmv {
                println!("workload    : {}", scenario.label());
                println!(
                    "x refs/iter : {} ({} per stored entry)",
                    workload.x_refs(),
                    workload.x_refs() / workload.stream_entries().max(1)
                );
            }
            println!(
                "working set : {:.2} MiB",
                workload.working_set_bytes() as f64 / (1 << 20) as f64
            );
            println!("bandwidth   : {}", stats.bandwidth);
            let class_cfg = cfg.clone().with_l2_sector(cli.l2_ways);
            println!(
                "class ({} L2 ways for the matrix stream): {}",
                cli.l2_ways,
                classify_for(&workload, &class_cfg, cli.threads).label()
            );
            let preds = predict(
                &workload,
                &cfg,
                Method::B,
                &[SectorSetting::Off, SectorSetting::L2Ways(cli.l2_ways)],
                cli.threads,
            );
            println!(
                "model (B)   : {} misses/iter without sector cache, {} with {} ways ({:+.1} %)",
                preds[0].l2_misses,
                preds[1].l2_misses,
                cli.l2_ways,
                100.0 * (preds[0].l2_misses as f64 - preds[1].l2_misses as f64)
                    / preds[0].l2_misses.max(1) as f64
            );
            if cli.ecm {
                for p in &preds {
                    let e = ecm_for(&workload, &hier, p);
                    println!(
                        "ECM ({:<7}): {:.2} Gflop/s, {:.3} ms/iter, bottleneck {}",
                        p.setting.label(),
                        e.gflops,
                        e.t_total_s * 1e3,
                        e.bottleneck
                    );
                }
            }
        }
        "tune" => {
            let settings: Vec<SectorSetting> = std::iter::once(SectorSetting::Off)
                .chain((1..cfg.l2.ways).map(SectorSetting::L2Ways))
                .collect();
            let preds = predict(&workload, &cfg, Method::B, &settings, cli.threads);
            if cli.ecm {
                println!("{:<10} {:>14} {:>12}", "setting", "pred. misses", "Gflop/s");
                for p in &preds {
                    let e = ecm_for(&workload, &hier, p);
                    println!(
                        "{:<10} {:>14} {:>12.2}",
                        p.setting.label(),
                        p.l2_misses,
                        e.gflops
                    );
                }
            } else {
                println!("{:<10} {:>14}", "setting", "pred. misses");
                for p in &preds {
                    println!("{:<10} {:>14}", p.setting.label(), p.l2_misses);
                }
            }
            match tune_recommendation(&preds) {
                Ok(best) => {
                    println!("recommendation: sector cache {}", best.setting.label());
                }
                Err(e) => {
                    eprintln!("spmv-locality: {e}");
                    std::process::exit(2);
                }
            }
        }
        "simulate" => {
            let (cfg, sector) = if cli.l2_ways > 0 {
                (cfg.with_l2_sector(cli.l2_ways), ArraySet::MATRIX_STREAM)
            } else {
                (cfg, ArraySet::EMPTY)
            };
            let sim = simulate_spmv(&matrix, &cfg, sector, cli.threads, 1);
            let perf = estimate(&cfg, matrix.nnz(), &sim);
            println!("L2D_CACHE_REFILL    : {}", sim.pmu.l2d_cache_refill);
            println!("L2D_CACHE_REFILL_DM : {}", sim.pmu.l2d_cache_refill_dm);
            println!("L2D_CACHE_WB        : {}", sim.pmu.l2d_cache_wb);
            println!("L1D_CACHE_REFILL    : {}", sim.pmu.l1d_cache_refill);
            println!("L2 misses (paper)   : {}", sim.pmu.l2_misses());
            println!(
                "memory traffic      : {:.2} MiB/iter",
                sim.pmu.memory_bytes(cfg.l2.line_bytes) as f64 / (1 << 20) as f64
            );
            println!("est. time           : {:.3} ms/iter", perf.seconds * 1e3);
            println!(
                "est. performance    : {:.1} Gflop/s ({:?}-bound)",
                perf.gflops, perf.bottleneck
            );
            println!("est. bandwidth      : {:.1} GB/s", perf.bandwidth_gbs);
        }
        _ => usage(),
    }
    metrics_write(&cli.metrics, &cli.command);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_recommendation_picks_fewest_misses() {
        let pred = |setting, l2_misses| Prediction {
            setting,
            l2_misses,
            by_array: [0; 5],
        };
        let preds = [
            pred(SectorSetting::Off, 900),
            pred(SectorSetting::L2Ways(2), 350),
            pred(SectorSetting::L2Ways(3), 400),
        ];
        let best = tune_recommendation(&preds).unwrap();
        assert_eq!(best.setting, SectorSetting::L2Ways(2));
    }

    #[test]
    fn tune_recommendation_reports_empty_sweep_as_error() {
        // Regression: this used to be `min_by_key(...).unwrap()`, which
        // panicked on an empty sweep instead of failing with a message.
        let err = tune_recommendation(&[]).unwrap_err();
        assert!(err.contains("no predictions"), "{err}");
    }

    #[test]
    fn scenario_pick_resolves_flag_combinations() {
        assert_eq!(ScenarioPick::default().resolve(), ScenarioSpec::Spmv);
        let pick = ScenarioPick {
            rhs: Some(4),
            ..Default::default()
        };
        assert_eq!(
            pick.resolve(),
            ScenarioSpec::Spmm {
                k: 4,
                layout: RhsLayout::Interleaved
            }
        );
        let pick = ScenarioPick {
            rhs: Some(4),
            rhs_layout: Some(RhsLayout::Separate),
            ..Default::default()
        };
        assert_eq!(
            pick.resolve(),
            ScenarioSpec::Spmm {
                k: 4,
                layout: RhsLayout::Separate
            }
        );
        let pick = ScenarioPick {
            workload: Some(ScenarioSpec::Spmm {
                k: 8,
                layout: RhsLayout::Interleaved,
            }),
            rhs_layout: Some(RhsLayout::Separate),
            ..Default::default()
        };
        assert_eq!(
            pick.resolve(),
            ScenarioSpec::Spmm {
                k: 8,
                layout: RhsLayout::Separate
            }
        );
        let pick = ScenarioPick {
            workload: Some(ScenarioSpec::Cg),
            ..Default::default()
        };
        assert_eq!(pick.resolve(), ScenarioSpec::Cg);
    }
}
