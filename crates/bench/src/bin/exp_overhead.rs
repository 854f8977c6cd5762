//! §4.5.1: computational overhead of method (A) relative to method (B).
//!
//! The paper reports average `t_A / t_B` of 4.21× (sequential analysis)
//! and 3.02× (48-thread analysis), with method (B) average runtimes of
//! 6.54 s and 9.22 s on the full-size corpus. We report the same ratios on
//! the scaled corpus (absolute runtimes scale with matrix size).
//!
//! Run: `cargo run --release -p spmv-bench --bin exp_overhead [--count N --scale N --threads N]`

use locality_core::predict::{predict, Method, SectorSetting};
use locality_engine::pool::run_indexed;
use spmv_bench::runner::{machine_for, ExpArgs, SweepPoint};
use std::time::Instant;

fn main() {
    let args = ExpArgs::parse(100);
    println!(
        "# §4.5.1: model runtime, method (A) vs method (B) ({} matrices, scale 1/{})",
        args.count, args.scale
    );
    let suite = corpus::corpus(args.count, args.scale, args.seed);
    let settings = SectorSetting::paper_sweep();

    for threads in [1usize, args.threads] {
        let cfg = machine_for(args.scale, threads, SweepPoint::BASELINE);
        let times: Vec<(f64, f64)> = run_indexed(0, &suite, |_, nm| {
            let t0 = Instant::now();
            let pa = predict(&nm.matrix, &cfg, Method::A, &settings, threads);
            let ta = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let pb = predict(&nm.matrix, &cfg, Method::B, &settings, threads);
            let tb = t1.elapsed().as_secs_f64();
            // Keep the predictions alive so the work cannot be elided.
            std::hint::black_box((pa, pb));
            (ta, tb)
        });
        let sum_a: f64 = times.iter().map(|t| t.0).sum();
        let sum_b: f64 = times.iter().map(|t| t.1).sum();
        let mean_ratio: f64 =
            times.iter().map(|t| t.0 / t.1.max(1e-9)).sum::<f64>() / times.len() as f64;
        let label = if threads == 1 {
            "sequential".to_string()
        } else {
            format!("{threads} threads")
        };
        println!(
            "{label:<12} mean t_A/t_B = {mean_ratio:.2}x   total t_A = {sum_a:.2}s   total t_B = {sum_b:.2}s   mean t_B = {:.4}s",
            sum_b / times.len() as f64
        );
    }
}
