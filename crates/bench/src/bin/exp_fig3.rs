//! Fig. 3: distribution over the corpus of the SpMV speedup (or slowdown)
//! under different sector-cache configurations.
//!
//! Sweeps 2–6 L2 ways × L1 sector {off, 1, 2 ways}; prints one box-plot
//! row of speedups versus the sector-cache-off baseline per configuration.
//!
//! Run: `cargo run --release -p spmv-bench --bin exp_fig3 [--count N --scale N --threads N]`

use locality_engine::pool::run_indexed;
use spmv_bench::boxplot::BoxStats;
use spmv_bench::runner::{measure, ExpArgs, SweepPoint};

fn main() {
    let args = ExpArgs::parse(490);
    println!(
        "# Fig. 3: SpMV speedup vs baseline ({} matrices, {} threads, scale 1/{})",
        args.count, args.threads, args.scale
    );
    let suite = corpus::corpus(args.count, args.scale, args.seed);

    let l1_settings = [0usize, 1, 2];
    let l2_settings = [2usize, 3, 4, 5, 6];

    let per_matrix: Vec<(f64, Vec<f64>)> = run_indexed(0, &suite, |_, nm| {
        let (_, base) = measure(&nm.matrix, args.scale, args.threads, SweepPoint::BASELINE);
        let mut cfgs = Vec::with_capacity(l1_settings.len() * l2_settings.len());
        for &l1 in &l1_settings {
            for &l2 in &l2_settings {
                let (_, perf) = measure(
                    &nm.matrix,
                    args.scale,
                    args.threads,
                    SweepPoint {
                        l2_ways: l2,
                        l1_ways: l1,
                    },
                );
                cfgs.push(perf.seconds);
            }
        }
        (base.seconds, cfgs)
    });

    println!("{:<14} speedup over baseline", "config");
    let mut idx = 0;
    for &l1 in &l1_settings {
        for &l2 in &l2_settings {
            let samples: Vec<f64> = per_matrix
                .iter()
                .map(|(base, cfgs)| base / cfgs[idx])
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
