//! §4.5.4: accuracy of the L1 cache-miss prediction (no partitioning),
//! sequential and parallel, methods (A) and (B).
//!
//! The paper reports MAPEs of 8.40 %/15.27 % (A/B, sequential) and
//! 8.91 %/13.66 % (parallel) — clearly worse than the L2 predictions,
//! because the 4-way L1 is far from the fully associative LRU assumption.
//!
//! Run: `cargo run --release -p spmv-bench --bin exp_l1 [--count N --scale N --threads N]`

use locality_core::l1::predict_l1_misses;
use locality_core::predict::Method;
use locality_core::ErrorSummary;
use locality_engine::pool::run_indexed;
use spmv_bench::runner::{machine_for, measure, ExpArgs, SweepPoint};

fn main() {
    let args = ExpArgs::parse(490);
    println!(
        "# §4.5.4: L1 miss prediction error, no partitioning (scale 1/{})",
        args.scale
    );
    let suite = corpus::corpus(args.count, args.scale, args.seed);

    for threads in [1usize, args.threads] {
        let cfg = machine_for(args.scale, threads, SweepPoint::BASELINE);
        let pairs: Vec<(f64, f64, f64)> = run_indexed(0, &suite, |_, nm| {
            let (sim, _) = measure(&nm.matrix, args.scale, threads, SweepPoint::BASELINE);
            let measured = sim.pmu.l1_misses() as f64;
            let a = predict_l1_misses(&nm.matrix, &cfg, Method::A, threads) as f64;
            let b = predict_l1_misses(&nm.matrix, &cfg, Method::B, threads) as f64;
            (measured, a, b)
        });
        let ea = ErrorSummary::from_pairs(pairs.iter().map(|&(m, a, _)| (m, a)));
        let eb = ErrorSummary::from_pairs(pairs.iter().map(|&(m, _, b)| (m, b)));
        let label = if threads == 1 {
            "sequential".to_string()
        } else {
            format!("{threads} threads")
        };
        println!("{label:<12} method (A): {ea}   method (B): {eb}");
    }
}
