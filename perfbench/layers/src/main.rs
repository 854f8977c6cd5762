//! `perfbench-layers`: the in-process half of the benchmark in `perfbench/`.
//!
//! ```text
//! perfbench-layers inputs --workload W --seed N
//!     Prints the workload's generated inputs as JSON, with timings of
//!     the generator its command runs (`setup_s`, five or more samples)
//!     and `nproc`, the worker count every run of the benchmark uses.
//! perfbench-layers trace --workload W --seed N --spans PATH
//!     Runs the workload's batch form and every layer probe in process,
//!     with spans around each call into a workspace crate; writes the
//!     spans to PATH and prints the per-layer metrics as JSON.
//! ```

mod inputs;
mod probes;
mod spans;

use a64fx::MachineConfig;
use inputs::{build_inputs, scale_of, Input, THREADS};
use probes::Metrics;
use spans::Tracer;
use std::fmt::Write as _;
use std::time::Instant;

/// Alternating pairs of the batch form, traced and untraced, behind
/// `bench.trace_overhead_pct`.
const TRACE_PAIRS: usize = 3;

struct Args {
    command: String,
    workload: String,
    seed: u64,
    spans: String,
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let usage = || -> ! {
        eprintln!(
            "usage: perfbench-layers inputs --workload W --seed N\n       perfbench-layers trace --workload W --seed N --spans PATH"
        );
        std::process::exit(2)
    };
    let command = it.next().unwrap_or_else(|| usage());
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 2023,
        spans: String::new(),
    };
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--spans" => args.spans = value,
            _ => usage(),
        }
    }
    if !["batch-table1", "serve-hot", "validate-8"].contains(&args.workload.as_str())
        || (args.command == "trace" && args.spans.is_empty())
    {
        usage();
    }
    args
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The host's usable cores (affinity and cgroup limits included): the
/// `--workers`/`--executors`/connection count of every run.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cfg_for(workload: &str) -> MachineConfig {
    MachineConfig::a64fx_scaled(scale_of(workload)).with_cores(THREADS)
}

/// `inputs`: the generated inputs plus five timings of the generator.
fn print_inputs(args: &Args) {
    let mut out = String::from("{");
    let (calls, build) = build_inputs(&args.workload, args.seed);
    // At least five samples and half a second, so a fast generator is
    // not timed at the clock's noise floor.
    let first = Instant::now();
    let mut setup: Vec<String> = Vec::new();
    while setup.len() < 5 || first.elapsed().as_secs_f64() < 0.5 {
        let start = Instant::now();
        for i in 0..calls {
            std::hint::black_box(build(i));
        }
        setup.push(start.elapsed().as_secs_f64().to_string());
    }
    let _ = write!(
        out,
        "\"nproc\":{},\"setup_s\":[{}]",
        nproc(),
        setup.join(",")
    );
    match args.workload.as_str() {
        "batch-table1" => {
            let _ = write!(out, ",\"spec\":{}", json_str(&inputs::table1_spec()));
        }
        "validate-8" => {
            let _ = write!(
                out,
                ",\"validate_args\":[\"--matrices\",\"{}\",\"--seed\",\"{}\"]",
                inputs::VALIDATE_MATRICES,
                inputs::VALIDATE_SEED
            );
        }
        _ => {}
    }
    let serve = inputs::serve_inputs(args.seed);
    let specs = |seeds: &[u64]| -> String {
        let v: Vec<String> = seeds
            .iter()
            .map(|&s| json_str(&inputs::corpus_spec(s)))
            .collect();
        format!("[{}]", v.join(","))
    };
    let script: Vec<String> = serve
        .script
        .iter()
        .map(|e| e.map_or_else(|| "-1".to_string(), |k| k.to_string()))
        .collect();
    let _ = write!(
        out,
        ",\"hot\":{},\"misses\":{},\"script\":[{}],\"hot_batch_spec\":{}}}",
        specs(&serve.hot),
        specs(&serve.misses),
        script.join(","),
        json_str(&inputs::corpus_batch_spec(&serve.hot))
    );
    println!("{out}");
}

/// The workload's batch form under `t`: builds every matrix the command
/// builds and prices it. Returns the matrices, the cache's (hits,
/// lookups) and the wall seconds.
fn workload_form(
    t: &mut Tracer,
    args: &Args,
    cfg: &MachineConfig,
    nproc: usize,
) -> (Vec<Input>, (u64, u64), f64) {
    let (calls, build) = build_inputs(&args.workload, args.seed);
    let start = Instant::now();
    let mut matrices: Vec<Input> = Vec::new();
    let hits = t.span("bench.workload", |t| {
        for i in 0..calls {
            matrices.extend(t.span("corpus.build", |_| build(i)));
        }
        let list: Vec<&sparsemat::CsrMatrix> = matrices.iter().map(|i| &i.matrix).collect();
        probes::batch_form(t, &list, cfg, THREADS, nproc)
    });
    (matrices, hits, start.elapsed().as_secs_f64())
}

/// `trace`: the workload's batch form and every layer probe, traced.
fn run_trace(args: &Args) {
    let nproc = nproc();
    let cfg = cfg_for(&args.workload);
    let mut t = Tracer::default();
    let mut m = Metrics::new();

    // The batch form in alternating traced/untraced pairs, so drift
    // favours neither side; `t` keeps the first traced run's spans.
    let mut kept = None;
    let mut trace_overhead = Vec::new();
    for pair in 0..TRACE_PAIRS {
        let mut secs = [0.0; 2];
        let order = if pair % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for traced in order {
            let keep = traced && kept.is_none();
            let mut scratch = if traced {
                Tracer::default()
            } else {
                Tracer::off()
            };
            let tracer = if keep { &mut t } else { &mut scratch };
            let (matrices, hits, s) = workload_form(tracer, args, &cfg, nproc);
            secs[traced as usize] = s;
            if keep {
                kept = Some((matrices, hits));
            }
        }
        trace_overhead.push(100.0 * (secs[1] - secs[0]) / secs[0]);
    }
    let (matrices, (hits, lookups)) = kept.expect("a traced run");
    m.insert(
        "bench.batch_form_hit_pct".into(),
        100.0 * hits as f64 / lookups as f64,
    );
    let nnz: usize = matrices.iter().map(|i| i.matrix.nnz()).sum();
    let build_secs: f64 = t.secs("corpus.build").iter().sum();
    m.insert(
        "corpus.build_ms".into(),
        build_secs * 1e3 / matrices.len() as f64,
    );
    m.insert("corpus.nnz_per_s".into(), nnz as f64 / build_secs);
    let fp_secs: f64 = t.secs("sparsemat.fingerprint").iter().sum();
    m.insert(
        "sparsemat.fingerprint_ms".into(),
        fp_secs * 1e3 / matrices.len() as f64,
    );

    // The validation harness: the workload itself on validate-8, the
    // smoke tier on the corpus's first matrix elsewhere.
    let full = args.workload == "validate-8";
    let config = valid::ValidationConfig {
        matrices: if full { inputs::VALIDATE_MATRICES } else { 1 },
        seed: inputs::VALIDATE_SEED,
        workers: nproc,
        smoke: !full,
        ..valid::ValidationConfig::default()
    };
    let report = t.span("valid.run_validation", |_| valid::run_validation(&config));
    m.insert("valid.checks".into(), report.stats.checks_run as f64);
    m.insert("valid.divergences".into(), report.stats.divergences as f64);
    let stage = &report.stats.nanos;
    for (name, ns) in [
        ("profile", stage.profile),
        ("oracle", stage.oracle),
        ("sweep", stage.sweep),
        ("simulate", stage.simulate),
    ] {
        m.insert(format!("valid.{name}_s"), ns as f64 * 1e-9);
    }

    let probe = matrices
        .iter()
        .max_by_key(|i| i.matrix.nnz())
        .expect("every workload has a matrix");
    eprintln!(
        "# layer probes on {} ({} rows, {} nnz)",
        probe.name,
        probe.matrix.num_rows(),
        probe.matrix.nnz()
    );
    m.extend(probes::layer_probes(
        &mut t,
        &probe.matrix,
        &cfg,
        THREADS,
        nproc,
    ));

    // Serve: each hot spec priced in process, for the overhead split.
    let serve_cfg = cfg_for("serve-hot");
    let serve = inputs::serve_inputs(args.seed);
    let per_spec: Vec<Metrics> = serve
        .hot
        .iter()
        .map(|&s| probes::serve_inproc(&mut t, &inputs::corpus_spec(s), s, &serve_cfg))
        .collect();

    if let Err(e) = std::fs::write(&args.spans, t.to_json()) {
        eprintln!("perfbench-layers: cannot write {}: {e}", args.spans);
        std::process::exit(1);
    }
    let per_spec: Vec<String> = per_spec.iter().map(json_metrics).collect();
    let pairs: Vec<String> = trace_overhead.iter().map(f64::to_string).collect();
    println!(
        "{{\"metrics\":{},\"serve_hot\":[{}],\"trace_overhead_pct\":[{}]}}",
        json_metrics(&m),
        per_spec.join(","),
        pairs.join(",")
    );
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "inputs" => print_inputs(&args),
        "trace" => run_trace(&args),
        _ => {
            eprintln!("perfbench-layers: unknown command {}", args.command);
            std::process::exit(2);
        }
    }
}
