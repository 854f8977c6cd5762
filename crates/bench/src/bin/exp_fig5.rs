//! Fig. 5: speedup versus the change in L2 *demand* misses for the sector
//! cache with 5 L2 ways, restricted to working sets exceeding the L2.
//!
//! Emits the scatter series (per matrix: % difference in demand misses,
//! speedup, class) and the correlation between demand-miss reduction and
//! speedup, reproducing the figure's reading: speedups are accompanied by
//! demand-miss reductions, and the top speedups show 30–80 % reductions.
//!
//! Run: `cargo run --release -p spmv-bench --bin exp_fig5 [--count N --scale N --threads N]`

use locality_core::{classify_for, MatrixClass};
use locality_engine::pool::run_indexed;
use spmv_bench::runner::{machine_for, measure, ExpArgs, SweepPoint};

fn main() {
    let args = ExpArgs::parse(490);
    let point = SweepPoint {
        l2_ways: 5,
        l1_ways: 0,
    };
    println!(
        "# Fig. 5: speedup vs %change in L2 demand misses, 5 L2 ways ({} matrices, {} threads, scale 1/{})",
        args.count, args.threads, args.scale
    );
    let suite = corpus::corpus(args.count, args.scale, args.seed);
    let class_cfg = machine_for(args.scale, args.threads, point);
    let l2_bytes = class_cfg.l2.size_bytes;

    let rows: Vec<Option<(String, MatrixClass, f64, f64)>> = run_indexed(0, &suite, |_, nm| {
        // Fig. 5 uses only working sets exceeding the L2 cache.
        if nm.matrix.working_set_bytes() <= l2_bytes {
            return None;
        }
        let (bsim, bperf) = measure(&nm.matrix, args.scale, args.threads, SweepPoint::BASELINE);
        let (psim, pperf) = measure(&nm.matrix, args.scale, args.threads, point);
        let base_dm = bsim.pmu.l2_demand_misses();
        if base_dm == 0 {
            return None;
        }
        let diff_pct =
            100.0 * (psim.pmu.l2_demand_misses() as f64 - base_dm as f64) / base_dm as f64;
        let class = classify_for(&nm.matrix, &class_cfg, args.threads);
        Some((
            nm.name.clone(),
            class,
            diff_pct,
            bperf.seconds / pperf.seconds,
        ))
    });
    let rows: Vec<_> = rows.into_iter().flatten().collect();

    println!(
        "{:<18} {:<11} {:>16} {:>8}",
        "matrix", "class", "ddemand-miss[%]", "speedup"
    );
    for (name, class, diff, speedup) in &rows {
        println!(
            "{name:<18} {:<11} {diff:>16.1} {speedup:>8.3}",
            class.label()
        );
    }

    // Correlation between demand-miss reduction and speedup.
    let n = rows.len() as f64;
    if n > 1.0 {
        let mean_x = rows.iter().map(|r| -r.2).sum::<f64>() / n;
        let mean_y = rows.iter().map(|r| r.3).sum::<f64>() / n;
        let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
        for (_, _, diff, speedup) in &rows {
            let dx = -diff - mean_x;
            let dy = speedup - mean_y;
            sxy += dx * dy;
            sxx += dx * dx;
            syy += dy * dy;
        }
        let r = sxy / (sxx.sqrt() * syy.sqrt()).max(1e-12);
        println!(
            "\n# correlation(demand-miss reduction, speedup) = {r:.3} over {} matrices",
            rows.len()
        );
    }

    // The figure's headline: top speedups come with 30-80% reductions.
    let mut by_speedup = rows.clone();
    by_speedup.sort_by(|a, b| b.3.total_cmp(&a.3));
    println!("\n# top 10 speedups and their demand-miss change");
    for (name, class, diff, speedup) in by_speedup.iter().take(10) {
        println!(
            "{name:<18} {:<11} {diff:>16.1} {speedup:>8.3}",
            class.label()
        );
    }
}
