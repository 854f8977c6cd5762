//! Fig. 2: distribution over the corpus of the L2 cache-miss reduction (or
//! increase) of SpMV under different sector-cache configurations.
//!
//! Sweeps 2–6 L2 ways for sector 1 combined with L1 sector settings
//! {off, 1, 2, 3 ways}, and prints one box-plot row per configuration of
//! the relative difference in measured L2 misses. The difference is
//! reported as `(baseline − config) / config × 100` — positive when the
//! sector cache removes misses — which is the reading consistent with the
//! figure's −40…+120 % axis (a pure reduction can exceed +100 %, an
//! increase is bounded at −100 %).
//!
//! Run: `cargo run --release -p spmv-bench --bin exp_fig2 [--count N --scale N --threads N]`

use locality_engine::pool::run_indexed;
use spmv_bench::boxplot::BoxStats;
use spmv_bench::runner::{measure, ExpArgs, SweepPoint};

fn main() {
    let args = ExpArgs::parse(490);
    println!(
        "# Fig. 2: % difference in L2 cache misses vs baseline ({} matrices, {} threads, scale 1/{})",
        args.count, args.threads, args.scale
    );
    let suite = corpus::corpus(args.count, args.scale, args.seed);

    let l1_settings = [0usize, 1, 2, 3];
    let l2_settings = [2usize, 3, 4, 5, 6];

    // Per matrix: baseline misses + misses per config.
    let per_matrix: Vec<(u64, Vec<u64>)> = run_indexed(0, &suite, |_, nm| {
        let (base, _) = measure(&nm.matrix, args.scale, args.threads, SweepPoint::BASELINE);
        let mut cfgs = Vec::with_capacity(l1_settings.len() * l2_settings.len());
        for &l1 in &l1_settings {
            for &l2 in &l2_settings {
                let (sim, _) = measure(
                    &nm.matrix,
                    args.scale,
                    args.threads,
                    SweepPoint {
                        l2_ways: l2,
                        l1_ways: l1,
                    },
                );
                cfgs.push(sim.pmu.l2_misses());
            }
        }
        (base.pmu.l2_misses(), cfgs)
    });

    println!(
        "{:<14} difference in L2 misses [%] = (base - cfg)/cfg (positive = fewer misses)",
        "config"
    );
    let mut idx = 0;
    for &l1 in &l1_settings {
        for &l2 in &l2_settings {
            let samples: Vec<f64> = per_matrix
                .iter()
                .filter(|(base, cfgs)| *base > 0 && cfgs[idx] > 0)
                .map(|(base, cfgs)| 100.0 * (*base as f64 - cfgs[idx] as f64) / cfgs[idx] as f64)
                .collect();
            let label = SweepPoint {
                l2_ways: l2,
                l1_ways: l1,
            }
            .label();
            match BoxStats::compute(&samples) {
                Some(s) => println!("{label:<14} {}", s.row()),
                None => println!("{label:<14} (no samples)"),
            }
            idx += 1;
        }
        println!();
    }
}
